"""One run of one workload: set-up, warm-up, measured passes, metrics.

Shape of a run (``--trace 0``)::

    set-up x5 (timed; the last one is kept)   -> setup_s = median
    full-size warm-up pass(es) (discarded)
    N measured passes, calibration spin around each
    -> eight end-to-end metrics

and with ``--trace 1`` the measured passes are split in two halves,
the second with the layer wrappers installed, followed by the echo
probe and the ceiling arm; only per-layer metrics are printed.

A run's value for a per-pass quantity is the fast quartile over its
passes (see :func:`fast_quartile`).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs

from . import probes, schema
from .trace import Recorder, Span, percentile, self_times, targets
from .workloads import NOMINAL_PASS_S, WORKLOADS, PassResult, Workload

__all__ = ["run", "OUT_DIR", "spread", "fast_quartile"]

MIB = 1 << 20
GIB = 1 << 30
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Set-ups timed per run (the driver compares medians of ``setup_s``).
SETUPS = 5

DISCLAIMER = (
    "loopback TCP inside one process; files live in the page cache; "
    "latency is injected by the servers, not by a network"
)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0.0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> Dict[str, Any]:
    """Run workload ``name`` once; returns the full result record."""
    workload: Workload = WORKLOADS[name](seed, smoke)
    n_passes = 2 if smoke else max(2, round(seconds / NOMINAL_PASS_S))
    load_start = os.getloadavg()[0]
    work = OUT_DIR / "work" / f"{name}-{os.getpid()}"
    # The payload is the benchmark's input, not the program's set-up:
    # generated once, outside the timed set-ups.
    workload.generate()

    setup_times: List[float] = []
    recorder: Optional[Recorder] = None
    traced: List[PassResult] = []
    try:
        for i in range(1 if smoke else SETUPS):
            workload.teardown()
            t0 = time.perf_counter()
            workload.setup(work / f"setup-{i}")
            setup_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        warm = [] if smoke else [
            workload.run_pass(10_000 + i) for i in range(workload.warmup_passes)
        ]
        warmup_s = time.perf_counter() - t0
        n_plain = max(1, n_passes * 3 // 8) if trace else n_passes
        plain = _measure(workload, range(n_plain))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            recorder = workload.recorder = Recorder()
            recorder.install(targets())
            counters0 = obs.snapshot()
            try:
                traced = _measure(workload, range(n_plain, 2 * n_plain))
            finally:
                recorder.uninstall()
            counters1 = obs.snapshot()
    finally:
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + traced + warm
    calib = [ms for p in plain + traced for ms in p.calib_ms]
    failed = sum(p.meter.failed for p in passes)
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "payload_sha256": workload.payload_sha256,
        "plan_digest": workload.plan_digest(n_passes),
        "correct": failed == 0,
        "attempted": sum(p.meter.ops for p in passes),
        "failed": failed,
        "errors": [e for p in passes for e in p.meter.errors][:20],
        "env": _environment(seed, load_start),
        "passes": [
            {
                "wall_s": p.wall_s, "cpu_s": p.cpu_s, "ops": p.meter.ops,
                "payload_bytes": p.meter.payload_bytes, "failed": p.meter.failed,
                "traced": p in traced, "calib_ms": p.calib_ms,
            }
            for p in plain + traced
        ],
        "samples": {
            "passes": len(plain),
            "read_calls": sum(len(p.meter.read_ns) for p in plain),
            "read_opens": sum(len(p.meter.first_byte_ns) for p in plain),
            "setups": len(setup_times),
        },
        "setup_times_s": setup_times,
        "machine": {
            "calib_ms": statistics.median(calib),
            "calib_spread": spread(calib),
            "loadavg1": os.getloadavg()[0],
        },
    }
    if recorder is None:
        record["metrics"] = _end_to_end(plain, setup_times, peak_rss_mib)
        return record

    layers, record["critical_thread"] = _per_layer(
        recorder, threading.get_ident(), plain, traced, counters0, counters1, workload
    )
    budget = 0.3 if smoke else max(0.3, min(2.0, seconds / 12.0))
    layers.update({f"transport.aio.{k}": v for k, v in probes.echo_probe(budget).items()})
    ceil = probes.ceiling(workload.payload, budget)
    limit = min(
        x for x in (ceil["socket_mib_s"], workload.latency_ceiling_mib_s()) if x is not None
    )
    goodput = fast_quartile([p.meter.payload_bytes / p.wall_s / MIB for p in plain], "higher")
    ceil["frac"] = goodput / limit
    layers.update({f"ceiling.{k}": v for k, v in ceil.items()})
    layers.update({f"machine.{k}": v for k, v in record["machine"].items()})
    walls = [p.wall_s for p in plain]
    layers["passes.n"] = len(walls)
    layers["passes.spread"] = spread(walls)
    layers["passes.drift"] = statistics.mean(walls[-3:]) / statistics.mean(walls[:3]) - 1
    layers["passes.warmup_s"] = warmup_s
    layers["passes.makespan_s"] = sum(walls)
    layers["passes.cpu_s_per_gib"] = fast_quartile(
        [p.cpu_s / (p.meter.payload_bytes / GIB) for p in plain], "lower"
    )
    record["metrics"] = {
        n: {"value": float(layers[n]), "unit": u} for n, u, _better in schema.PER_LAYER
    }
    _write_trace(recorder, name)
    return record


def _measure(workload: Workload, indices: Sequence[int]) -> List[PassResult]:
    """Run passes ``indices``, a calibration spin before and after each."""
    results = []
    for k in indices:
        gc.collect()
        before = probes.calibration_spin_ms()
        result = workload.run_pass(k)
        result.calib_ms = (before, probes.calibration_spin_ms())
        results.append(result)
    return results


def fast_quartile(values: Sequence[float], better: str) -> float:
    """The quartile on the fast side: lower for times, upper for rates.

    A noisy neighbour only ever slows a pass down, in bursts that last
    from milliseconds to several passes.  The median over passes then
    tracks the neighbours; the fast quartile tracks the program (NOISE.md
    has both measured: 0.12-0.17 against 0.07-0.10 run-to-run spread on
    the CPU-bound workloads during a noisy hour).
    """
    if len(values) < 2:
        return values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1 if better == "lower" else q3


def _end_to_end(
    passes: List[PassResult], setup_times: List[float], peak_rss_mib: float
) -> Dict[str, Dict[str, Any]]:
    per_pass = {
        "goodput_mib_s": [p.meter.payload_bytes / p.wall_s / MIB for p in passes],
        "ops_per_s": [p.meter.ops / p.wall_s for p in passes],
        "first_byte_ms": [statistics.median(p.meter.first_byte_ns) / 1e6 for p in passes],
        "read_call_p50_us": [statistics.median(p.meter.read_ns) / 1e3 for p in passes],
    }
    values = {"setup_s": statistics.median(setup_times), "peak_rss_mib": peak_rss_mib}
    out = {}
    for name, unit, better, _bound in schema.END_TO_END:
        value = values[name] if name in values else fast_quartile(per_pass[name], better)
        out[name] = {"value": value, "unit": unit}
    return out


def _environment(seed: int, load_start: float) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg1_start": load_start,
        "seed": seed,
        "git_commit": _git_commit(),
        "disclaimer": DISCLAIMER,
    }


def _git_commit() -> str:
    """HEAD of the enclosing checkout, read without running git."""
    git = Path(__file__).resolve().parents[1] / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# Per-layer budget from the traced passes
# ---------------------------------------------------------------------------


class _Agg:
    """Totals of one ``(layer, op)`` over the traced passes."""

    __slots__ = ("calls", "total_ns", "self_ns", "outer_ns", "value", "durations")

    def __init__(self) -> None:
        self.calls = 0.0
        self.total_ns = 0
        self.self_ns = 0
        self.outer_ns = 0     # spans whose parent is not of the same layer
        self.value = 0.0
        self.durations: List[int] = []


def _counter_total(snapshot: Dict[str, Any], name: str) -> float:
    family = snapshot.get(name)
    if not family:
        return 0.0
    return float(sum(s["value"] for s in family["series"]))


def _per_layer(
    recorder: Recorder,
    main_ident: int,
    plain: List[PassResult],
    traced: List[PassResult],
    counters0: Dict[str, Any],
    counters1: Dict[str, Any],
    workload: Workload,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    keys, async_keys = recorder.keys, recorder.async_keys
    aggs: Dict[Tuple[str, str], _Agg] = {key: _Agg() for key in keys}
    critical_self: Dict[str, int] = {}
    attributed_ns = 0
    put_rpcs = 0
    n_spans = 0
    for ident, spans in recorder.threads():
        own = self_times(spans)
        n_spans += len(spans)
        for i, (kid, start, end, parent, value) in enumerate(spans):
            if kid < 0:
                continue
            layer, op = keys[kid]
            agg = aggs[(layer, op)]
            dur = end - start
            agg.calls += value if kid in async_keys else 1
            agg.total_ns += dur
            agg.self_ns += own[i]
            agg.durations.append(dur)
            if kid not in async_keys:
                agg.value += value
            if parent < 0 or keys[spans[parent][0]][0] != layer:
                agg.outer_ns += dur
            if op == "write_block" and _has_ancestor(spans, keys, parent, "core.remote_client"):
                put_rpcs += 1
            if ident == main_ident:
                critical_self[layer] = critical_self.get(layer, 0) + own[i]
                if parent < 0:
                    attributed_ns += dur

    n = len(traced)
    wall_ns = sum(p.wall_s for p in traced) * 1e9
    payload_mib = sum(p.meter.payload_bytes for p in traced) / MIB

    def a(layer: str, op: str) -> _Agg:
        return aggs.get((layer, op)) or _Agg()

    def calls(layer: str, *ops: str) -> float:
        return sum(a(layer, op).calls for op in ops) / n

    def self_s(layer: str, *ops: str) -> float:
        return sum(a(layer, op).self_ns for op in ops) / 1e9 / n

    def total_s(layer: str, *ops: str) -> float:
        return sum(a(layer, op).total_ns for op in ops) / 1e9 / n

    def outer_s(layer: str) -> float:
        return sum(g.outer_ns for (lay, _op), g in aggs.items() if lay == layer) / 1e9 / n

    def pct_us(layer: str, op: str, q: float) -> float:
        return percentile(a(layer, op).durations, q) / 1e3

    def delta(counter: str) -> float:
        return (_counter_total(counters1, counter) - _counter_total(counters0, counter)) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def layer_calls(layer: str) -> float:
        return sum(g.calls for (lay, _op), g in aggs.items() if lay == layer) / n

    mux, rc, rio = "core.multiplexer", "core.remote_client", "core.remote_io"
    gbc, gbs, gbk = "gridbuffer.client", "gridbuffer.service", "gridbuffer.cache"
    wire, tcp, ftp = "transport.wire", "transport.tcp", "transport.gridftp"
    gb_rpcs = delta("buffer_write_rpcs_total") + calls(gbc, "read_window_ex", "consume_multi_ex")
    frames = calls(wire, "build_binary_frame") + calls(wire, "decode_binary_header")
    encode_s = self_s(wire, "build_binary_frame", "encode_fields")
    decode_s = self_s(wire, "decode_binary_header", "decode_fields")
    rpc_calls = calls(tcp, "call")
    # What the traced server side accounts for; GridFTP handlers are
    # private and stay inside the overhead figure.
    handler_s = outer_s(gbs) + outer_s("gns.server")
    injected_s = rpc_calls * 2 * workload.latency
    m: Dict[str, float] = {
        f"{mux}.open_calls": calls(mux, "open"),
        f"{mux}.open_self_s": self_s(mux, "open"),
        f"{mux}.open_p50_us": pct_us(mux, "open", 50),
        f"{mux}.read_calls": calls(mux, "read"),
        f"{mux}.read_self_s": self_s(mux, "read"),
        f"{mux}.read_call_p99_us": pct_us(mux, "read", 99),
        f"{mux}.write_calls": calls(mux, "write"),
        f"{mux}.write_self_s": self_s(mux, "write"),
        f"{mux}.write_call_p50_us": pct_us(mux, "write", 50),
        f"{mux}.write_call_p99_us": pct_us(mux, "write", 99),
        f"{mux}.close_self_s": self_s(mux, "close"),
        f"{rc}.proxy_read_self_s": self_s(rc, "proxy_read"),
        f"{rc}.proxy_write_self_s": self_s(rc, "proxy_write", "proxy_close"),
        f"{rc}.copy_in_s": total_s(rc, "copy_in"),
        f"{rc}.copy_out_s": total_s(rc, "copy_out"),
        f"{rc}.put_rpcs": put_rpcs / n,
        f"{rio}.cache_hit_ratio": ratio(a(rio, "cache_fetch").value, a(rio, "cache_fetch").calls),
        f"{rio}.prefetch_hit_ratio": ratio(
            delta("fm_prefetch_hits_total"), delta("fm_prefetch_rpcs_total")
        ),
        f"{rio}.prefetch_wasted": delta("fm_prefetch_wasted_total"),
        f"{rio}.claim_wait_s": a(rio, "claim").value / 1e9 / n,
        f"{rio}.write_flushes": delta("fm_write_flushes_total"),
        "core.replica.best_calls": calls("core.replica", "best"),
        "core.replica.best_self_s": self_s("core.replica", "best"),
        "gns.client.resolve_calls": calls("gns.client", "resolve"),
        "gns.client.resolve_busy_s": total_s("gns.client", "resolve"),
        "gns.client.resolve_p50_us": pct_us("gns.client", "resolve", 50),
        "gns.server.resolve_self_s": self_s("gns.server", "resolve"),
        f"{gbc}.writer_self_s": self_s(gbc, "writer_write", "writer_close"),
        f"{gbc}.reader_self_s": self_s(gbc, "reader_read", "reader_seek", "reader_close"),
        f"{gbc}.reader_wait_s": a(gbc, "reader_read").value / 1e9 / n,
        f"{gbc}.write_rpcs": delta("buffer_write_rpcs_total"),
        f"{gbc}.read_rpcs": calls(gbc, "read_window_ex"),
        f"{gbc}.consume_rpcs": calls(gbc, "consume_multi_ex"),
        f"{gbc}.rpcs_per_mib": ratio(gb_rpcs * n, payload_mib),
        f"{gbc}.readahead_hit_ratio": ratio(
            delta("buffer_readahead_hits_total"), calls(gbc, "reader_read")
        ),
        f"{gbc}.flush_deadline_fires": delta("buffer_flush_deadline_total"),
        f"{gbc}.vectored_fallbacks": delta("buffer_vectored_fallbacks_total"),
        f"{gbs}.calls": layer_calls(gbs),
        f"{gbs}.self_s": sum(
            g.self_ns for (lay, _op), g in aggs.items() if lay == gbs
        ) / 1e9 / n,
        f"{gbs}.write_self_s": self_s(gbs, "write"),
        f"{gbs}.read_self_s": self_s(gbs, "read"),
        f"{gbk}.store_calls": calls(gbk, "store"),
        f"{gbk}.store_self_s": self_s(gbk, "store"),
        f"{gbk}.load_calls": calls(gbk, "load"),
        f"{gbk}.load_self_s": self_s(gbk, "load"),
        f"{gbk}.bytes": a(gbk, "store").value / n,
        f"{wire}.frames": frames,
        f"{wire}.encode_self_s": encode_s,
        f"{wire}.decode_self_s": decode_s,
        f"{wire}.us_per_frame": ratio((encode_s + decode_s) * 1e6, frames),
        "ioutil.crc32_self_s": self_s("ioutil", "crc32"),
        "ioutil.crc32_bytes": a("ioutil", "crc32").value / n,
        f"{tcp}.calls": rpc_calls,
        f"{tcp}.busy_s": total_s(tcp, "call"),
        f"{tcp}.call_p50_us": pct_us(tcp, "call", 50),
        f"{tcp}.call_p99_us": pct_us(tcp, "call", 99),
        f"{tcp}.retries": delta("rpc_retries_total"),
        f"{tcp}.errors": delta("rpc_client_errors_total"),
        f"{tcp}.overhead_us_per_call": ratio(
            (total_s(tcp, "call") - handler_s - injected_s) * 1e6, rpc_calls
        ),
        f"{ftp}.calls": layer_calls(ftp),
        f"{ftp}.bytes": sum(
            a(ftp, op).value for op in ("read_block", "write_block")
        ) / n,
        f"{ftp}.busy_s": outer_s(ftp),
        f"{ftp}.fetch_mib_s": ratio(
            a(ftp, "fetch_file").value / MIB, a(ftp, "fetch_file").total_ns / 1e9
        ),
        f"{ftp}.store_mib_s": ratio(
            a(ftp, "store_file").value / MIB, a(ftp, "store_file").total_ns / 1e9
        ),
        f"{ftp}.read_block_p50_us": pct_us(ftp, "read_block", 50),
        "trace.spans": n_spans / n,
        "trace.overhead_share": statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in plain) - 1,
        "trace.unattributed_share": 1 - attributed_ns / wall_ns,
    }
    # The caller's thread ends the pass, so its layers' self times plus
    # what no span covers must add up to the pass wall.
    critical = {
        "wall_s": wall_ns / 1e9 / n,
        "self_s": {layer: ns / 1e9 / n for layer, ns in sorted(critical_self.items())},
        "unattributed_s": (wall_ns - attributed_ns) / 1e9 / n,
    }
    total = sum(critical["self_s"].values()) + critical["unattributed_s"]
    if abs(total - critical["wall_s"]) > 0.01 * critical["wall_s"]:
        raise RuntimeError(
            f"critical-thread budget {total:.4f}s does not sum to the pass wall "
            f"{critical['wall_s']:.4f}s"
        )
    other_busy = {
        layer: round(outer_s(layer), 6) for layer in sorted({lay for lay, _op in aggs})
    }
    critical["busy_all_threads_s"] = other_busy
    return m, critical


def _has_ancestor(spans: Sequence[Span], keys: List[Tuple[str, str]], parent: int, layer: str) -> bool:
    while parent >= 0:
        kid, _start, _end, parent_of, _value = spans[parent]
        if kid >= 0 and keys[kid][0] == layer:
            return True
        parent = parent_of
    return False


def _write_trace(recorder: Recorder, name: str) -> None:
    """Spans of the last traced pass, one JSON object per line."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cutoff = recorder.window_starts[-1]
    with open(OUT_DIR / f"{name}.trace.jsonl", "w") as fh:
        for ident, spans in recorder.threads():
            for i, (kid, start, end, parent, value) in enumerate(spans):
                if kid < 0 or start < cutoff:
                    continue
                layer, op = recorder.keys[kid]
                fh.write(
                    json.dumps(
                        {
                            "thread": ident, "id": i, "parent": parent, "layer": layer,
                            "name": op, "start_ns": start, "end_ns": end, "value": value,
                        }
                    )
                    + "\n"
                )
