"""BENCHMARK.json, the schema module and the CLI's output agree."""

import json
import re
import subprocess
import sys

import pytest

from bench_e2e import schema
from bench_e2e.compare import compare, load, render

from .conftest import REPO

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_schema_written_out():
    on_disk = json.loads((REPO / "BENCHMARK.json").read_text())
    assert on_disk == schema.benchmark_json()


def test_contract_limits():
    spec = schema.benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in spec[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # 4 + 22 x workloads runs, each about run_seconds + 8 s of set-up,
    # warm-up and start-up, must fit the driver's 3420 s.
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 8) < 3420


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    """Every workload through the real CLI, both trace modes, one process each."""
    out = tmp_path_factory.mktemp("smoke")
    results = {}
    for workload in schema.WORKLOAD_WHY:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "-m", "bench_e2e", "--workload", workload, "--seed", "7",
                 "--seconds", "5", "--trace", str(trace), "--smoke",
                 "--out", str(out / f"t{trace}" / f"{workload}.json")],
                cwd=REPO, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            results[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results, out


def test_smoke_emits_exactly_the_declared_names(smoke_results):
    results, _out = smoke_results
    end_to_end = {n: u for n, u, _b, _bound in schema.END_TO_END}
    per_layer = {n: u for n, u, _b in schema.PER_LAYER}
    for (workload, trace), result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        declared = per_layer if trace else end_to_end
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        assert got == declared, (workload, trace)
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values()), (workload, result)


def test_layers_separate_the_way_the_workloads_promise(smoke_results):
    results, _out = smoke_results

    def layer(workload, prefix):
        return {n: m["value"] for n, m in results[workload, 1]["metrics"].items()
                if n.startswith(prefix)}

    for stream in ("stream_lan", "stream_wan"):
        assert layer(stream, "transport.gridftp.")["transport.gridftp.calls"] == 0
        assert layer(stream, "gridbuffer.service.")["gridbuffer.service.calls"] > 0
    files = layer("files_wan", "gridbuffer.")
    assert files["gridbuffer.service.calls"] == 0 and files["gridbuffer.client.read_rpcs"] == 0
    assert layer("files_wan", "transport.gridftp.")["transport.gridftp.calls"] > 0
    assert layer("stream_wan", "gridbuffer.cache.")["gridbuffer.cache.load_calls"] > 0
    assert layer("stream_lan", "gridbuffer.cache.")["gridbuffer.cache.store_calls"] == 0
    for workload in schema.WORKLOAD_WHY:
        metrics = results[workload, 1]["metrics"]
        assert metrics["trace.unattributed_share"]["value"] <= 0.10, workload
        assert metrics["trace.spans"]["value"] > 0


def test_compare_reads_the_records_the_cli_writes(smoke_results):
    _results, out = smoke_results
    rows = compare(load(out / "t0"), load(out / "t0"))
    assert len(rows) == len(schema.WORKLOAD_WHY) * len(schema.END_TO_END)
    assert {row[-1] for row in rows} == {"ok"}           # a set against itself
    assert all(row[6] == "+0.0%" for row in rows)
    assert render(rows, markdown=True).count("\n") == len(rows) + 1
    assert load(out / "t1") == {}                        # traced records carry no end-to-end set


def test_compare_flags_worse_and_unresolved():
    def runs(*values):
        return {"w": {"first_byte_ms": list(values), "peak_rss_mib": [10.0] * len(values)}}

    steady = runs(10.0, 10.1, 9.9, 10.0, 10.05)
    verdicts = {row[1]: row[-1] for row in compare(steady, runs(14.0, 14.1, 13.9, 14.0, 14.05))}
    assert verdicts == {"first_byte_ms": "worse", "peak_rss_mib": "ok"}
    noisy = runs(6.0, 14.0, 10.0, 8.0, 13.0)
    assert {row[1]: row[-1] for row in compare(steady, noisy)}["first_byte_ms"] == "unresolved"
    # "better: higher" flips the sign of the gap
    fast, slow = {"w": {"goodput_mib_s": [50.0, 51.0, 49.0]}}, {"w": {"goodput_mib_s": [30.0, 31.0, 29.0]}}
    assert compare(fast, slow)[0][-1] == "worse" and compare(slow, fast)[0][-1] == "ok"
