"""Workload behaviour: determinism, clean-up, and what each one is sensitive to."""

import os
import threading
import time

import pytest

from bench_e2e import harness
from bench_e2e.workloads import CALL, MIB, WORKLOADS, StreamLan, StreamWan, make_payload


def test_payload_pages_are_distinct_and_seeded():
    a, b = make_payload(3, 64 * 1024), make_payload(3, 64 * 1024)
    assert a == b and len(a) == 64 * 1024
    assert make_payload(4, 64 * 1024) != a
    pages = {a[off : off + 4096] for off in range(0, len(a), 4096)}
    assert len(pages) == 16
    big = make_payload(3, 3 * MIB + 5)
    assert len(big) == 3 * MIB + 5 and big[MIB : MIB + 4096] != big[:4096]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    def digest(seed):
        workload = WORKLOADS[name](seed, smoke=True)
        workload.generate()
        return workload.payload_sha256, workload.plan_digest(3)

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


def _threads():
    # The RPC engine's loop thread and handler pool are process-wide
    # singletons that outlive any one deployment by design.
    return {t for t in threading.enumerate() if not t.name.startswith(("rpc-event-loop", "rpc-handler"))}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_restores_wrappers_and_leaves_nothing_behind(name):
    from repro import ioutil
    from repro.core.multiplexer import FMFile
    from repro.gridbuffer.service import GridBufferService
    from repro.transport import aio, tcp, wire

    def bound():
        return (
            FMFile.read, FMFile.__dict__["close"], GridBufferService.read_async,
            wire.build_binary_frame, tcp.__dict__["build_binary_frame"],
            aio.__dict__["build_binary_frame"], wire.encode_fields,
            tcp.__dict__["decode_binary_header"], ioutil.crc32, tcp.RpcClient.call,
        )

    harness.run(name, 5, 5, trace=False, smoke=True)     # starts the engine singletons
    before = bound(), _threads(), _open_fds()
    record = harness.run(name, 5, 5, trace=True, smoke=True)
    assert record["correct"], record["errors"]
    assert bound() == before[0]
    deadline = time.monotonic() + 5.0     # server-side sockets close on the loop's next turns
    while (_threads(), _open_fds()) != before[1:] and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _threads() == before[1]
    assert _open_fds() == before[2]
    assert not (harness.OUT_DIR / "work" / f"{name}-{os.getpid()}").exists()


def _smoke_pass_wall(workload, tmp_path):
    workload.setup(tmp_path / workload.name)
    try:
        result = min((workload.run_pass(k) for k in range(2)), key=lambda r: r.wall_s)
    finally:
        workload.teardown()
    assert not result.meter.failed, result.meter.errors
    return result.wall_s, result.meter.payload_bytes


def test_stream_wan_sees_the_round_trip_and_stream_lan_does_not_see_the_window(tmp_path):
    """What each stream is sensitive to, at smoke size.

    At this commit a BUFFER writer flushes synchronously, one 64 KiB
    batch per round trip, so ``stream_wan`` is bound by CALL / RTT and
    *not* by the reader's read-ahead depth (README, findings): the
    round trip is what it must respond to.  ``stream_lan`` has no round
    trip to hide and must not care about the window depth.
    """
    class SlowWan(StreamWan):
        latency = 2 * StreamWan.latency

    wan, wan_bytes = _smoke_pass_wall(StreamWan(1, smoke=True), tmp_path / "wan")
    slow, _ = _smoke_pass_wall(SlowWan(1, smoke=True), tmp_path / "slow")
    assert slow > 1.7 * wan
    round_trip_bound = CALL / (2 * StreamWan.latency)
    assert 0.5 * round_trip_bound < wan_bytes / wan <= round_trip_bound

    lan, lan_bytes = _smoke_pass_wall(StreamLan(1, smoke=True), tmp_path / "lan")
    narrow, _ = _smoke_pass_wall(
        StreamLan(1, smoke=True, ctx_overrides={"buffer_readahead_depth": 1}), tmp_path / "narrow"
    )
    assert narrow < 2 * lan
    assert wan_bytes / wan <= 0.25 * (lan_bytes / lan)
