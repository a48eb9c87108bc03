"""Tests for the ASCII Gantt renderer + third-party GridFTP copies."""

import pytest

from repro.bench.gantt import render_gantt
from repro.workflow.scheduler import plan_workflow
from repro.workflow.simrunner import SimReport, simulate_plan
from repro.workflow.spec import FileUse, Stage, Workflow

MB = 1024 * 1024


def report_for(coupling):
    wf = Workflow(
        "g",
        [
            Stage("p", writes=(FileUse("f", 10 * MB),), work=100, chunks=10),
            Stage("q", reads=(FileUse("f", 10 * MB),), work=100, chunks=10),
        ],
    )
    placement = {"p": "brecca", "q": "dione"} if coupling != "local" else {"p": "brecca", "q": "brecca"}
    plan = plan_workflow(wf, placement, coupling={"f": coupling})
    return simulate_plan(plan)


class TestGantt:
    def test_sequential_bars_stack(self):
        text = render_gantt(report_for("local"))
        lines = text.splitlines()
        assert any("p@brecca" in l for l in lines)
        assert any("q@brecca" in l for l in lines)
        p_line = next(l for l in lines if "p@brecca" in l)
        q_line = next(l for l in lines if "q@brecca" in l)
        # q's bar starts after p's bar ends.
        assert q_line.index("#") >= p_line.rindex("#")

    def test_pipelined_bars_overlap(self):
        text = render_gantt(report_for("buffer"))
        lines = text.splitlines()
        p_line = next(l for l in lines if "p@brecca" in l)
        q_line = next(l for l in lines if "q@dione" in l)
        assert q_line.index("#") < p_line.rindex("#")

    def test_copy_row_present(self):
        text = render_gantt(report_for("copy"))
        assert "copy:f" in text

    def test_empty_report(self):
        wf = Workflow("e", [Stage("only", work=1)])
        plan = plan_workflow(wf, {"only": "brecca"})
        empty = SimReport(plan=plan)
        assert "empty" in render_gantt(empty)


class TestThirdPartyCopy:
    def test_server_to_server_transfer(self, tmp_path):
        from repro.transport.gridftp import GridFtpClient, GridFtpServer

        src_root = tmp_path / "src"
        dst_root = tmp_path / "dst"
        src_root.mkdir()
        (src_root / "data.bin").write_bytes(bytes(i % 199 for i in range(120_000)))
        with GridFtpServer(src_root) as src, GridFtpServer(dst_root) as dst:
            with GridFtpClient(*dst.address) as client:
                n = client.third_party_copy(
                    src.address[0], src.address[1], "/data.bin", "/pulled/data.bin"
                )
        assert n == 120_000
        assert (dst_root / "pulled" / "data.bin").read_bytes() == (
            src_root / "data.bin"
        ).read_bytes()

    def test_third_party_missing_source(self, tmp_path):
        from repro.transport.gridftp import GridFtpClient, GridFtpServer
        from repro.transport.tcp import RpcError

        with GridFtpServer(tmp_path / "a") as src, GridFtpServer(tmp_path / "b") as dst:
            with GridFtpClient(*dst.address) as client:
                with pytest.raises(RpcError):
                    client.third_party_copy(
                        src.address[0], src.address[1], "/missing", "/x"
                    )

    def test_third_party_with_parallel_streams(self, tmp_path):
        from repro.transport.gridftp import GridFtpClient, GridFtpServer

        src_root = tmp_path / "src"
        src_root.mkdir()
        payload = bytes(i % 251 for i in range(300_000))
        (src_root / "big").write_bytes(payload)
        with GridFtpServer(src_root) as src, GridFtpServer(tmp_path / "dst") as dst:
            with GridFtpClient(*dst.address, block_size=8192) as client:
                client.third_party_copy(src.address[0], src.address[1], "/big", "/big")
        assert (tmp_path / "dst" / "big").read_bytes() == payload
