"""The benchmark's contract in one place: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written
out; ``tests/test_schema.py`` keeps the two identical.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["COMMAND", "RUN_SECONDS", "WORKLOAD_WHY", "END_TO_END", "PER_LAYER", "benchmark_json"]

COMMAND = ["python3", "-m", "bench_e2e"]
#: Nine passes of NOMINAL_PASS_S; see README "Pass sizes".
RUN_SECONDS = 22

WORKLOAD_WHY: Dict[str, str] = {
    "stream_lan": (
        "CPU-bound 128 MiB BUFFER stream, no latency: every per-byte and per-frame "
        "cost shows in goodput and cpu_s_per_gib; gridftp and the file modes idle"
    ),
    "stream_wan": (
        "Same stream at 5 ms one-way latency plus a cached re-read: only RPC count, "
        "window and batching move goodput; a faster codec must leave it alone"
    ),
    "files_wan": (
        "COPY/REMOTE/replica reads and writes at 5 ms latency, working set both larger "
        "than and inside the block cache: gridftp and remote_io work, gridbuffer idles"
    ),
    "six_mode_smallio": (
        "Thousands of open/<=32 small calls/close over all six modes with GNS over TCP: "
        "per-operation overhead and RPC latency at concurrency 1; bytes negligible"
    ),
}

#: (name, unit, better, bound).  Bounds come from the committed A/A
#: study (NOISE.md), not from taste: on the reference box whole runs of
#: the CPU-bound workloads sit inside noisy-neighbour bursts, so ten
#: runs of identical code spread by about 0.11.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("goodput_mib_s", "MiB/s", "higher", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
    ("first_byte_ms", "ms", "lower", 0.25),
    ("read_call_p50_us", "us", "lower", 0.25),
]

#: (name, unit, better).  ``<layer>.<metric>``; counts and seconds are
#: per traced pass.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("core.multiplexer.open_calls", "count", "lower"),
    ("core.multiplexer.open_self_s", "s", "lower"),
    ("core.multiplexer.open_p50_us", "us", "lower"),
    ("core.multiplexer.read_calls", "count", "lower"),
    ("core.multiplexer.read_self_s", "s", "lower"),
    ("core.multiplexer.read_call_p99_us", "us", "lower"),
    ("core.multiplexer.write_calls", "count", "lower"),
    ("core.multiplexer.write_self_s", "s", "lower"),
    ("core.multiplexer.write_call_p50_us", "us", "lower"),
    ("core.multiplexer.write_call_p99_us", "us", "lower"),
    ("core.multiplexer.close_self_s", "s", "lower"),
    ("core.remote_client.proxy_read_self_s", "s", "lower"),
    ("core.remote_client.proxy_write_self_s", "s", "lower"),
    ("core.remote_client.copy_in_s", "s", "lower"),
    ("core.remote_client.copy_out_s", "s", "lower"),
    ("core.remote_client.put_rpcs", "count", "lower"),
    ("core.remote_io.cache_hit_ratio", "ratio", "higher"),
    ("core.remote_io.prefetch_hit_ratio", "ratio", "higher"),
    ("core.remote_io.prefetch_wasted", "count", "lower"),
    ("core.remote_io.claim_wait_s", "s", "lower"),
    ("core.remote_io.write_flushes", "count", "lower"),
    ("core.replica.best_calls", "count", "lower"),
    ("core.replica.best_self_s", "s", "lower"),
    ("gns.client.resolve_calls", "count", "lower"),
    ("gns.client.resolve_busy_s", "s", "lower"),
    ("gns.client.resolve_p50_us", "us", "lower"),
    ("gns.server.resolve_self_s", "s", "lower"),
    ("gridbuffer.client.writer_self_s", "s", "lower"),
    ("gridbuffer.client.reader_self_s", "s", "lower"),
    ("gridbuffer.client.reader_wait_s", "s", "lower"),
    ("gridbuffer.client.write_rpcs", "count", "lower"),
    ("gridbuffer.client.read_rpcs", "count", "lower"),
    ("gridbuffer.client.consume_rpcs", "count", "lower"),
    ("gridbuffer.client.rpcs_per_mib", "1/MiB", "lower"),
    ("gridbuffer.client.readahead_hit_ratio", "ratio", "higher"),
    ("gridbuffer.client.flush_deadline_fires", "count", "lower"),
    ("gridbuffer.client.vectored_fallbacks", "count", "lower"),
    ("gridbuffer.service.calls", "count", "lower"),
    ("gridbuffer.service.self_s", "s", "lower"),
    ("gridbuffer.service.write_self_s", "s", "lower"),
    ("gridbuffer.service.read_self_s", "s", "lower"),
    ("gridbuffer.cache.store_calls", "count", "lower"),
    ("gridbuffer.cache.store_self_s", "s", "lower"),
    ("gridbuffer.cache.load_calls", "count", "lower"),
    ("gridbuffer.cache.load_self_s", "s", "lower"),
    ("gridbuffer.cache.bytes", "B", "lower"),
    ("transport.wire.frames", "count", "lower"),
    ("transport.wire.encode_self_s", "s", "lower"),
    ("transport.wire.decode_self_s", "s", "lower"),
    ("transport.wire.us_per_frame", "us", "lower"),
    ("ioutil.crc32_self_s", "s", "lower"),
    ("ioutil.crc32_bytes", "B", "lower"),
    ("transport.tcp.calls", "count", "lower"),
    ("transport.tcp.busy_s", "s", "lower"),
    ("transport.tcp.call_p50_us", "us", "lower"),
    ("transport.tcp.call_p99_us", "us", "lower"),
    ("transport.tcp.retries", "count", "lower"),
    ("transport.tcp.errors", "count", "lower"),
    ("transport.tcp.overhead_us_per_call", "us", "lower"),
    ("transport.aio.echo_c1_p50_us", "us", "lower"),
    ("transport.aio.echo_64k_p50_us", "us", "lower"),
    ("transport.aio.echo_c1_ops_per_s", "1/s", "higher"),
    ("transport.gridftp.calls", "count", "lower"),
    ("transport.gridftp.bytes", "B", "lower"),
    ("transport.gridftp.busy_s", "s", "lower"),
    ("transport.gridftp.fetch_mib_s", "MiB/s", "higher"),
    ("transport.gridftp.store_mib_s", "MiB/s", "higher"),
    ("transport.gridftp.read_block_p50_us", "us", "lower"),
    ("ceiling.socket_mib_s", "MiB/s", "higher"),
    ("ceiling.memcpy_mib_s", "MiB/s", "higher"),
    ("ceiling.crc32_mib_s", "MiB/s", "higher"),
    ("ceiling.frac", "ratio", "higher"),
    ("machine.calib_ms", "ms", "lower"),
    ("machine.calib_spread", "ratio", "lower"),
    ("machine.loadavg1", "count", "lower"),
    ("passes.n", "count", "higher"),
    ("passes.spread", "ratio", "lower"),
    ("passes.drift", "ratio", "lower"),
    ("passes.warmup_s", "s", "lower"),
    ("passes.makespan_s", "s", "lower"),
    ("passes.cpu_s_per_gib", "s/GiB", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": ["bench_e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
