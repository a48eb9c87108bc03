"""The one window rule both BUFFER stream windows run, and the reader's
window on the engine.

The rule sizes the reader's fetches and the writer's batches from the
window's delivery rate and smallest round trip.  These tests drive it
against a real ``GridBufferServer`` with injected latency: both windows
converge on the bandwidth-delay product and stay there, a seek
collapses the window, and a link without latency keeps the largest
span.  The reader's window costs no thread, a gap a short reply leaves
never queues behind fetches parked past the writer, and a landed span
is served without copying its tail.
"""

import random
import sys
import threading
import time
import tracemalloc

import pytest

from repro.gridbuffer import client as gbc
from repro.gridbuffer.client import GridBufferClient, _WindowRule
from repro.gridbuffer.server import GridBufferServer

from ._seed import SEED

KIB = 1024
MIB = 1024 * KIB
CALL = 64 * KIB


@pytest.fixture()
def slow_server(tmp_path):
    """Builds Grid Buffer servers with injected one-way latency; stops them."""
    servers = []

    def make(latency):
        servers.append(
            GridBufferServer(cache_dir=tmp_path / f"gb-{len(servers)}", simulated_latency=latency)
        )
        return servers[-1].start()

    yield make
    for server in servers:
        server.stop()


def _log_sizes(rule):
    """Record ``(time, span, depth, rate, min_rtt)`` after every reply."""
    log = []
    delivered = rule.delivered

    def logging(token, nbytes):
        delivered(token, nbytes)
        log.append((time.monotonic(), rule.span, rule.depth, rule.rate, rule.min_rtt))

    rule.delivered = logging
    return log


def _converged(sample):
    """Bytes in flight within 2x of rate x RTT (one span of rounding)."""
    _t, span, depth, rate, min_rtt = sample
    bdp = rate * min_rtt
    return bdp <= depth * span <= 2 * bdp + span


def _check_settles(log, name, rtt, within):
    """Within ``within`` round trips of its first reply the window holds
    the product and its span stops changing, for a stream that runs on
    at least as long again; afterwards it stays within the product."""
    assert len(log) > 20, f"{name}: too few replies to judge ({len(log)})"
    start, end = log[0][0], log[-1][0]
    assert end - start >= 2 * within * rtt, f"{name}: the stream ended too soon to judge"
    settle = max((i for i in range(1, len(log)) if log[i][1] != log[i - 1][1]), default=0)
    assert log[settle][0] - start <= within * rtt, (
        f"{name} oscillates: its span changed at round trip {(log[settle][0] - start) / rtt:.1f}"
    )
    first = next((i for i in range(settle, len(log)) if _converged(log[i])), None)
    assert first is not None, f"{name} never converged: {log[-1]}"
    trips = (log[first][0] - start) / rtt
    assert trips <= within, f"{name} took {trips:.1f} round trips to converge"
    off = [s for s in log[first:] if not _converged(s)]
    assert len(off) <= len(log[first:]) // 20, f"{name} left the product: {off[:3]}"


class TestWindowConvergence:
    #: One-way latency of the slow link, as in ``stream_wan``.
    LATENCY = 0.005
    #: Round trips from the first reply until the window holds the
    #: product: the depth doubles per round trip from the floor of four
    #: 64 KiB spans until the memory bound (eight 128 KiB spans) caps it.
    WITHIN = 12

    def test_both_windows_reach_the_product_and_settle(self, slow_server):
        server = slow_server(self.LATENCY)
        rtt = 2 * self.LATENCY
        # At most WINDOW_BYTES per round trip: 24 MiB lasts 24+ round trips.
        payload = random.Random(SEED).randbytes(24 * MIB)
        client = GridBufferClient(*server.address)
        w = client.open_writer("conv")
        r = client.open_reader("conv")
        writer_log, reader_log = _log_sizes(w._rule), _log_sizes(r._ra._rule)
        errors = []

        def produce():
            try:
                for off in range(0, len(payload), CALL):
                    w.write(payload[off : off + CALL])
                w.close()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        t = threading.Thread(target=produce)
        t.start()
        try:
            got = bytearray()
            while chunk := r.read(CALL):
                got += chunk
            t.join(timeout=30.0)
            assert errors == [] and bytes(got) == payload
            for name, log in (("writer", writer_log), ("reader", reader_log)):
                _check_settles(log, name, rtt, self.WITHIN)
                _t, span, depth, _rate, min_rtt = log[-1]
                assert min_rtt >= rtt
                # Latency-bound: small spans, bytes in flight at the bound.
                assert span <= _WindowRule.LATENCY_SPAN
                assert depth * span <= _WindowRule.WINDOW_BYTES
        finally:
            r.close()
            client.close()

    def test_a_link_without_latency_keeps_the_top_span(self, monkeypatch):
        """Scripted replies of a fast link without latency: the rate and
        the round trip jitter reply by reply, as on a busy loopback, and
        the span stays at the top tier throughout, on any box.  The
        real-socket check below depends on the box: under a line tracer
        a loopback round trip exceeds the latency threshold."""
        rng = random.Random(SEED + 1)
        now = [0.0]
        monkeypatch.setattr(gbc, "_clock", lambda: now[0])
        rule = _WindowRule(_WindowRule.TOP_SPAN)
        spans = []
        for _ in range(400):
            rtt = rng.uniform(0.3e-3, 2e-3)  # below LATENCY_RTT
            rate = rng.uniform(80, 500) * MIB  # from a loaded box to an idle one
            token = rule.sent()
            now[0] += rtt
            rule.delivered(token, int(rate * rtt))
            spans.append(rule.span)
        assert spans[2:] == [_WindowRule.TOP_SPAN] * (len(spans) - 2)
        assert rule.depth * rule.span <= _WindowRule.MIN_DEPTH * _WindowRule.TOP_SPAN

    def test_a_rate_at_a_tier_boundary_does_not_flip_the_span(self, monkeypatch):
        """Scripted replies: a rate that hovers either side of a tier's
        ceiling, or stays under it but above half of it, keeps the span
        it reached; only a rate below half the ceiling, for as many
        replies as the estimate keeps, steps down."""
        now = [0.0]
        monkeypatch.setattr(gbc, "_clock", lambda: now[0])
        rule = _WindowRule(_WindowRule.TOP_SPAN)
        rtt = 1e-3

        def reply(rate):
            token = rule.sent()
            now[0] += rtt
            rule.delivered(token, int(rate * rtt))
            return rule.span

        ceiling = _WindowRule.SPANS[-1][0]  # the 128 KiB tier's ceiling
        assert reply(1.2 * ceiling) == _WindowRule.TOP_SPAN
        hovering = [reply(ceiling * f) for f in (0.55, 0.95, 1.05) * 2 * _WindowRule.RATE_SAMPLES]
        hovering += [reply(0.6 * ceiling) for _ in range(2 * _WindowRule.RATE_SAMPLES)]
        assert hovering == [_WindowRule.TOP_SPAN] * len(hovering)
        spans = [reply(0.4 * ceiling) for _ in range(_WindowRule.RATE_SAMPLES)]
        assert spans[-1] == _WindowRule.SPANS[-1][1]
        assert spans == sorted(spans, reverse=True)  # stepped down once, stayed

    @pytest.mark.skipif(
        sys.gettrace() is not None,
        reason="a line tracer slows a loopback round trip past LATENCY_RTT",
    )
    def test_a_real_link_without_latency_keeps_the_top_span(self, slow_server):
        """The same on a real server at 0 ms.  The stream is written
        first, so the link sets the rate, not a writer the reader keeps
        catching up with: the reader's span reaches the top tier within a
        few replies and stays there for the rest of the stream."""
        server = slow_server(0)
        payload = random.Random(SEED + 4).randbytes(16 * MIB)
        client = GridBufferClient(*server.address)
        with client.open_writer("lan") as w:
            w.write(payload)
        r = client.open_reader("lan")
        log = _log_sizes(r._ra._rule)
        try:
            got = bytearray()
            while chunk := r.read(CALL):
                got += chunk
            assert bytes(got) == payload
            spans = [span for _t, span, _depth, _rate, _rtt in log]
            assert _WindowRule.TOP_SPAN in spans, log[-1]
            top = spans.index(_WindowRule.TOP_SPAN)
            assert top <= 4, f"the top span took {top} replies to reach"
            assert spans[top:] == [_WindowRule.TOP_SPAN] * (len(spans) - top), log[-1]
        finally:
            r.close()
            client.close()

    def test_a_seek_collapses_the_window(self, slow_server):
        server = slow_server(self.LATENCY)
        payload = random.Random(SEED + 2).randbytes(4 * MIB)
        client = GridBufferClient(*server.address)
        with client.open_writer("seek", cache=True) as w:
            w.write(payload)
        r = client.open_reader("seek")
        rule = r._ra._rule
        try:
            for off in range(0, 2 * MIB, CALL):
                assert r.read(CALL) == payload[off : off + CALL]
            assert rule.depth * rule.span > _WindowRule.START_SPAN and rule.rate
            r.seek(MIB // 2)
            assert (rule.span, rule.depth, rule.rate) == (_WindowRule.START_SPAN, 1, 0.0)
            assert r.read(CALL) == payload[MIB // 2 : MIB // 2 + CALL]
            assert r.read() == payload[MIB // 2 + CALL :]
        finally:
            r.close()
            client.close()


class TestReaderWindowOnTheEngine:
    N = 64

    def test_many_open_readers_add_at_most_two_threads(self, buffer_server):
        """Window fetches are futures on the engine loop: 64 readers with
        their windows parked on unwritten bytes add no thread per reader."""
        client = GridBufferClient(*buffer_server.address)
        client.create_stream("many", n_readers=self.N)
        client.write("many", 0, b"m" * 4096)  # the writer stays open
        baseline = threading.active_count()
        readers = []
        try:
            for i in range(self.N):
                r = client.open_reader("many", reader_id=f"r{i}")
                assert r.read(4096) == b"m" * 4096
                readers.append(r)
            stream = buffer_server.service._stream("many")
            deadline = time.monotonic() + 10.0
            while len(stream.async_readers) < self.N:  # every window parked
                assert time.monotonic() < deadline, "the windows never parked"
                time.sleep(0.01)
            added = threading.active_count() - baseline
            assert added <= 2, f"{added} new threads for {self.N} open readers"
        finally:
            for r in readers:
                r.close()
            client.close()

    def test_a_paused_writer_reaches_the_reader_within_the_flush_deadline(
        self, buffer_server
    ):
        """Each short reply leaves a gap below fetches parked past the
        writer.  Replies are FIFO per connection, so the gap's fetch must
        not ride behind them: every 100 B write of a writer that pauses
        between them reaches the reader within about the writer's flush
        deadline, on a stream without a cache file."""
        client = GridBufferClient(*buffer_server.address, timeout=5.0)
        w = client.open_writer("pause")
        r = client.open_reader("pause")
        try:
            for i in range(8):
                block = bytes([i]) * 100
                w.write(block)  # no flush: the deadline timer sends it
                t0 = time.monotonic()
                assert r.read(len(block)) == block
                waited = time.monotonic() - t0
                assert waited < 1.0, f"write {i} took {waited:.2f} s to reach the reader"
                time.sleep(0.05)  # the window parks on the next bytes
            w.close()
            assert r.read(CALL) == b""
        finally:
            r.close()
            client.close()

    def test_a_landed_span_is_served_without_copying_its_tail(self, buffer_server):
        """Sixteen 64 KiB reads of one landed 1 MiB span allocate about
        one read's worth at a time, not the span's shrinking tail."""
        payload = random.Random(SEED + 3).randbytes(MIB)
        client = GridBufferClient(*buffer_server.address)
        with client.open_writer("copy") as w:
            w.write(payload)
        r = client.open_reader("copy")
        try:
            window = r._ra
            with window._cv:  # one landed span holds the whole stream
                window._results[0] = payload
                window._eof_at = len(payload)
            tracemalloc.start()
            try:
                for off in range(0, MIB, CALL):
                    assert r.read(CALL) == payload[off : off + CALL]
                _now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 512 * KIB, f"peak {peak} B while serving one landed span"
            assert r.read(CALL) == b""
        finally:
            r.close()
            client.close()
