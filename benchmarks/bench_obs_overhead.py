"""Overhead of the observability layer on the Grid Buffer fast path.

Re-baselined on the PR 6 stack: the stream below rides the async
engine end to end — binary wire framing, coalesced vectored writes,
windowed read-ahead — which is the hottest path the repo has.  Three
arms, interleaved and paired:

* **disabled** — :func:`repro.obs.disabled`: every counter bound to
  the null registry, no sink, no spans.
* **metrics**  — the default registry enabled (PR 4 baseline): one
  lock acquisition and a float add per bound counter.
* **traced**   — a sink configured and the run bracketed by a root
  span, so every RPC additionally opens an ``rpc.client`` span,
  injects ``_trace`` into the binary frame, and the server opens the
  matching ``rpc.server`` span (PR 7).

The instrumentation budget is <5% *including trace propagation*: the
per-RPC span costs two monotonic clock reads, one dict, and one sink
append, which must vanish next to even a loopback round trip — and
the fast path coalesces RPCs, so spans amortise over many blocks.

Emits ``BENCH_obs_overhead.json`` at the repo root so the overhead
trajectory is tracked commit to commit.
"""

import hashlib
import json
import statistics
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.gridbuffer.client import GridBufferClient
from repro.gridbuffer.server import GridBufferServer

LINK_LATENCY = 0.002          # one-way seconds injected per RPC
BLOCK = 4096
FILE_BYTES = BLOCK * 96       # 384 KiB per stream
COALESCE = BLOCK * 16
REPS = 5                      # paired, interleaved repetitions per arm
#: Allowed overhead: 5% relative plus a small absolute floor so timer
#: noise on a sub-100ms run cannot fail the assertion spuriously.
MAX_RELATIVE = 0.05
ABS_SLACK = 0.010


def _stream_once(address, stream: str, data: bytes, digest: str) -> float:
    """One writer -> reader pass through the fast path; returns seconds."""
    host, port = address
    client = GridBufferClient(host, port, timeout=60.0)
    errors: list = []
    ctx = obs.current_context()  # root span when the traced arm is active

    def write_all():
        with obs.attach(ctx):
            try:
                w = client.open_writer(stream, n_readers=1, coalesce_bytes=COALESCE)
                for off in range(0, FILE_BYTES, BLOCK):
                    w.write(data[off : off + BLOCK])
                w.close()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

    def read_all():
        with obs.attach(ctx):
            try:
                r = client.open_reader(stream, reader_id="r0", read_ahead_depth=4)
                h = hashlib.sha256()
                got = 0
                while True:
                    chunk = r.read(BLOCK)
                    if not chunk:
                        break
                    h.update(chunk)
                    got += len(chunk)
                r.close()
                assert got == FILE_BYTES, f"short read: {got}"
                assert h.hexdigest() == digest, "corrupted stream"
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

    try:
        client.create_stream(stream, n_readers=1)
        threads = [
            threading.Thread(target=write_all),
            threading.Thread(target=read_all),
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
    finally:
        client.close()
    if errors:
        raise errors[0]
    return elapsed


@pytest.mark.slow
def test_obs_overhead_buffer_fastpath(tmp_path):
    """Traced vs metrics-only vs uninstrumented buffer stream, paired."""
    data = bytes((i * 31) % 256 for i in range(FILE_BYTES))
    digest = hashlib.sha256(data).hexdigest()
    tracer = obs.get_tracer()

    times: dict = {"disabled": [], "metrics": [], "traced": []}
    seq = 0
    with GridBufferServer(
        cache_dir=tmp_path / "cache", simulated_latency=LINK_LATENCY
    ) as server:

        def one(arm: str) -> float:
            nonlocal seq
            seq += 1
            return _stream_once(server.address, f"ab-{arm}-{seq}", data, digest)

        one("warm")  # absorbs first-connection and import costs
        for _ in range(REPS):
            with obs.disabled():
                times["disabled"].append(one("disabled"))
            times["metrics"].append(one("metrics"))
            sink = obs.MemorySink()
            prior = obs.configure(sink)
            try:
                with tracer.span("bench.root", bench="obs_overhead"):
                    times["traced"].append(one("traced"))
            finally:
                obs.configure(prior)
            # Every RPC in the traced arm must really have carried a span
            # both ways, or the arm measures nothing.
            assert sink.spans("rpc.client"), "traced arm produced no client spans"
            assert sink.spans("rpc.server"), "traced arm produced no server spans"

    off_s = min(times["disabled"])
    for arm in ("metrics", "traced"):
        on_s = min(times[arm])
        overhead = (on_s - off_s) / off_s
        assert on_s <= off_s * (1.0 + MAX_RELATIVE) + ABS_SLACK, (
            f"{arm} overhead {overhead:+.1%} exceeds {MAX_RELATIVE:.0%} "
            f"({arm} {on_s * 1e3:.1f}ms vs disabled {off_s * 1e3:.1f}ms)"
        )

    out = {
        "bench": "obs_overhead_buffer_fastpath",
        "engine": "async",
        "link_latency_s": LINK_LATENCY,
        "file_bytes": FILE_BYTES,
        "block_size": BLOCK,
        "coalesce_bytes": COALESCE,
        "reps": REPS,
        "arms_s": {
            arm: {
                "min": round(min(vals), 5),
                "median": round(statistics.median(vals), 5),
            }
            for arm, vals in times.items()
        },
        "overhead_relative": {
            arm: round((min(times[arm]) - off_s) / off_s, 4)
            for arm in ("metrics", "traced")
        },
        "budget_relative": MAX_RELATIVE,
    }
    (Path(__file__).resolve().parents[1] / "BENCH_obs_overhead.json").write_text(
        json.dumps(out, indent=2) + "\n"
    )
