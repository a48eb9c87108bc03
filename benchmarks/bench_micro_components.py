"""Microbenchmarks of the real components (not paper tables).

Timed with pytest-benchmark's normal statistics so regressions in the
hot paths (framing, FM dispatch, DES engine) are
visible across commits.  The pipelined remote-IO A/B additionally
emits ``BENCH_remote_io.json`` at the repo root so the prefetch
trajectory is tracked from commit to commit.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from repro.core.multiplexer import FileMultiplexer, GridContext
from repro.core.remote_client import RemoteFileClient
from repro.gns.client import LocalGnsClient
from repro.gns.server import NameService
from repro.sim.engine import Environment
from repro.transport.gridftp import GridFtpClient, GridFtpServer
from repro.transport.inmem import HostRegistry

PAYLOAD = b"x" * 4096


def test_fm_local_open_read_close(benchmark, tmp_path):
    hosts = HostRegistry(tmp_path)
    hosts.add_host("m")
    fm = FileMultiplexer(
        GridContext(machine="m", gns=LocalGnsClient(NameService()), hosts=hosts)
    )
    f = fm.open("/bench.bin", "w")
    f.write(PAYLOAD * 16)
    f.close()

    def op():
        f = fm.open("/bench.bin", "r")
        f.read(4096)
        f.close()

    benchmark(op)
    fm.close()


def test_plain_open_baseline(benchmark, tmp_path):
    """Baseline for the FM overhead comparison above."""
    target = tmp_path / "plain.bin"
    target.write_bytes(PAYLOAD * 16)

    def op():
        with open(target, "rb") as f:
            f.read(4096)

    benchmark(op)


def test_des_engine_event_throughput(benchmark):
    def run_sim():
        env = Environment()

        def proc(env):
            for _ in range(1000):
                yield env.timeout(1.0)

        for _ in range(10):
            env.process(proc(env))
        env.run()
        return env.now

    result = benchmark(run_sim)
    assert result == 1000.0


def test_gns_resolution(benchmark):
    from repro.gns.records import GnsRecord, IOMode

    ns = NameService()
    for i in range(200):
        ns.add(GnsRecord(machine=f"m{i % 10}", path=f"/data/file{i}.dat", mode=IOMode.LOCAL))
    ns.add(GnsRecord(machine="*", path="/data/*", mode=IOMode.LOCAL))

    def op():
        return ns.resolve("m3", "/data/file33.dat")

    record = benchmark(op)
    assert record.path == "/data/file33.dat"


# -- pipelined remote IO over a simulated-latency link ---------------------

LINK_LATENCY = 0.005          # one-way seconds injected per RPC
AB_BLOCK = 8192
AB_FILE_BYTES = AB_BLOCK * 48  # 384 KiB → 48 block RPCs unpipelined


def _drain(f, chunk=AB_BLOCK):
    h = hashlib.sha256()
    total = 0
    while True:
        data = f.read(chunk)
        if not data:
            break
        h.update(data)
        total += len(data)
    return total, h.hexdigest()


@pytest.mark.slow
def test_remote_io_prefetch_ab(tmp_path, obs_snapshot):
    """Sequential proxy read, prefetch on vs off, over a 5 ms link.

    Acceptance: ≥ 2x throughput with the pipeline engaged
    (``prefetch_hits > 0``) and byte-identical data either way.
    """
    root = tmp_path / "export"
    root.mkdir()
    payload = bytes(i % 256 for i in range(AB_FILE_BYTES))
    (root / "ab.bin").write_bytes(payload)
    want = hashlib.sha256(payload).hexdigest()

    results = {}
    with GridFtpServer(root, simulated_latency=LINK_LATENCY) as server:
        for label, prefetch in (("prefetch_off", False), ("prefetch_on", True)):
            client = GridFtpClient(*server.address, block_size=AB_BLOCK)
            remote = RemoteFileClient(client, scratch_dir=tmp_path / f"scratch-{label}")
            f = remote.open_proxy("/ab.bin", "r", block_size=AB_BLOCK, prefetch=prefetch)
            t0 = time.perf_counter()
            total, digest = _drain(f)
            elapsed = time.perf_counter() - t0
            f.close()
            client.close()
            assert total == AB_FILE_BYTES
            assert digest == want, f"{label}: corrupted transfer"
            results[label] = {
                "seconds": elapsed,
                "mib_per_s": AB_FILE_BYTES / elapsed / (1 << 20),
                "rpc_reads": f.rpc_reads,
                "prefetch_hits": f.prefetch_hits,
                "prefetch_wasted": f.prefetch_wasted,
            }

    read_speedup = results["prefetch_off"]["seconds"] / results["prefetch_on"]["seconds"]
    assert results["prefetch_on"]["prefetch_hits"] > 0, "pipeline never engaged"
    assert read_speedup >= 2.0, f"prefetch speedup only {read_speedup:.2f}x"

    out = {
        "bench": "remote_io_pipelining",
        "link_latency_s": LINK_LATENCY,
        "file_bytes": AB_FILE_BYTES,
        "block_size": AB_BLOCK,
        "read_speedup": round(read_speedup, 3),
        "results": {
            k: {kk: (round(vv, 5) if isinstance(vv, float) else vv) for kk, vv in v.items()}
            for k, v in results.items()
        },
    }
    if obs_snapshot is not None:
        out["metrics"] = obs_snapshot()
    (Path(__file__).resolve().parents[1] / "BENCH_remote_io.json").write_text(
        json.dumps(out, indent=2) + "\n"
    )
