"""Async Grid Buffer coverage: batched consume, adaptive chunking,
and thousands-of-readers concurrency without per-reader server threads.

Complements ``test_gridbuffer_fastpath.py`` (PR 3 vectored path) with
the async-engine additions: ``gb.consume_multi``, the service's
block-granular reader lag, rate-tiered read-ahead chunk sizing, and the
headline scaling property — a parked reader costs a future, not a
thread.
"""

import asyncio
import resource
import threading
import time

import pytest

from repro import obs
from repro.gridbuffer import client as gbc
from repro.gridbuffer.client import GridBufferClient, _ReadAheadWindow, _WindowRule
from repro.gridbuffer.protocol import OP_READ_MULTI
from repro.gridbuffer.service import GridBufferError
from repro.transport.aio import AsyncRpcClient, get_engine

from ._run import run


@pytest.fixture()
def client(buffer_server):
    c = GridBufferClient(*buffer_server.address)
    yield c
    c.close()


class TestConsumeMulti:
    def test_two_readers_one_frame(self, client):
        client.create_stream("cm", n_readers=2)
        client.register_reader("cm", "r0")
        client.register_reader("cm", "r1")
        client.write("cm", 0, b"z" * 8192)
        client.consume_multi("cm", [("r0", [(0, 8192)]), ("r1", [(0, 8192)])])
        stats = client.stats("cm")
        assert stats["bytes_read"] == 2 * 8192  # both readers accounted
        assert stats["blocks_in_table"] == 0    # one GC pass emptied it

    def test_empty_entries_is_noop(self, client):
        client.consume_multi("no-such-stream", [])  # no frame sent: no unknown-stream error

    def test_mark_consumed_multi_validates_all_readers_upfront(self, buffer_server):
        """A bad reader anywhere in the batch rejects the whole frame."""
        service = buffer_server.service
        service.create_stream("mv", n_readers=1)
        service.register_reader("mv", "real")
        run(service.write_async("mv", 0, b"k" * 4096))
        with pytest.raises(GridBufferError):
            service.mark_consumed_multi(
                "mv", [("real", [(0, 4096)]), ("ghost", [(0, 4096)])]
            )
        # Nothing was applied: the valid entry must not have been
        # consumed before validation rejected the batch.
        assert service.stats("mv").blocks_in_table == 1


class TestReaderLagBlocks:
    """Block-granular lag gauge per reader, published by the service."""

    def test_gauge_tracks_consume_frontier(self, client):
        client.create_stream("lag", n_readers=1)
        client.register_reader("lag", "r")
        for i in range(3):
            client.write("lag", i * 4096, b"l" * 4096)
        labels = {"stream": "lag", "reader": "r"}
        client.consume_multi("lag", [("r", [(0, 4096)])])
        assert obs.value("buffer_reader_lag_blocks", labels) == 2
        client.consume_multi("lag", [("r", [(4096, 12288)])])
        assert obs.value("buffer_reader_lag_blocks", labels) == 0


def _feed(rule, clock, rate, rtt, replies=8):
    """Script ``replies`` one-at-a-time round trips delivering ``rate``."""
    for _ in range(replies):
        token = rule.sent()
        clock[0] += rtt
        rule.delivered(token, int(rate * rtt))


@pytest.fixture()
def clock(monkeypatch):
    """The window rule's clock, advanced by hand."""
    now = [100.0]
    monkeypatch.setattr(gbc, "_clock", lambda: now[0])
    return now


class TestAdaptiveChunk:
    @pytest.mark.parametrize(
        ("bandwidth", "expected"),
        [
            (512 * 1024, 16 * 1024),        # < 1 MB/s
            (4 << 20, 64 * 1024),           # < 8 MB/s
            (32 << 20, 128 * 1024),         # < 64 MB/s
            (500 << 20, 1024 * 1024),       # above the top tier
        ],
    )
    def test_chunk_follows_bandwidth_tier(self, clock, bandwidth, expected):
        """The span follows the window's delivery rate; at a 100 us round
        trip no rate here needs more than the floor's depth."""
        rule = _WindowRule(gbc._WindowRule.TOP_SPAN)
        _feed(rule, clock, bandwidth, 100e-6)
        assert rule.rate == pytest.approx(bandwidth, rel=0.01)
        assert (rule.span, rule.depth) == (expected, _WindowRule.MIN_DEPTH)

    def test_no_samples_keeps_the_start_chunk(self, client):
        client.create_stream("fix", n_readers=1)
        client.register_reader("fix", "r")
        window = _ReadAheadWindow(client, "fix", "r", None, 1 << 20)
        capped = _ReadAheadWindow(client, "fix", "r", None, 4096)
        try:
            assert (window._rule.span, window._rule.depth) == (_WindowRule.START_SPAN, 1)
            assert capped._rule.span == 4096
        finally:
            window.close()
            capped.close()

    def test_retier_with_requests_outstanding_leaves_no_gap(self, client, clock):
        """A span that changes size under outstanding requests must not
        leave a hole in the window: the next fetch starts where the
        last one in flight ends."""
        client.create_stream("busy", n_readers=1)
        client.register_reader("busy", "r")
        window = _ReadAheadWindow(client, "busy", "r", None, 1 << 20)
        try:
            window.schedule(0)  # one 64 KiB fetch, parked on unwritten bytes
            assert dict(window._inflight) == {0: 64 * 1024}
            _feed(window._rule, clock, 500 << 20, 100e-6)  # now a 1 MiB tier
            window.schedule(0)
            spans = sorted(window._inflight.items())
            assert spans[1] == (64 * 1024, 1 << 20)
            assert all(o + n == nxt for (o, n), (nxt, _) in zip(spans, spans[1:]))
        finally:
            window.close()


class TestManyAsyncReaders:
    #: The fan-in width the retired ``bench_async_framing`` used, capped
    #: so the client + server sockets fit the process fd limit.
    N = min(512, resource.getrlimit(resource.RLIMIT_NOFILE)[0] // 4)

    def test_parked_readers_hold_no_server_threads(self, buffer_server):
        """N concurrently blocked reads park futures, not threads.

        All N readers issue a blocking ``gb.read_multi`` before any byte is
        written; a thread-per-connection server would pin N handler
        threads.  The async engine must keep the process thread count
        flat while all N are parked, then deliver everyone when the
        writer shows up.
        """
        ctl = GridBufferClient(*buffer_server.address)
        ctl.create_stream("fan", n_readers=self.N)
        for i in range(self.N):
            ctl.register_reader("fan", f"r{i}")
        payload = b"w" * 4096
        parked_threads = {}

        async def one(addr, i):
            rpc = AsyncRpcClient(*addr, timeout=30.0)
            try:
                _, data = await rpc.call(
                    OP_READ_MULTI,
                    {
                        "name": "fan",
                        "reader_id": f"r{i}",
                        "offset": 0,
                        "budget": len(payload),
                        "timeout": 20.0,
                    },
                )
                return data
            finally:
                await rpc.close()

        async def go(addr):
            baseline = threading.active_count()
            tasks = [asyncio.create_task(one(addr, i)) for i in range(self.N)]
            await asyncio.sleep(0.5)  # let every read park server-side
            parked_threads["delta"] = threading.active_count() - baseline
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, ctl.write, "fan", 0, payload)
            await loop.run_in_executor(None, ctl.close_writer, "fan")
            return await asyncio.gather(*tasks)

        try:
            results = asyncio.run(go(buffer_server.address))
        finally:
            ctl.close()
        assert results == [payload] * self.N
        # The parked phase must not have grown a thread per reader.
        assert parked_threads["delta"] <= 8, (
            f"{parked_threads['delta']} new threads while {self.N} readers parked"
        )

    def test_stalled_cached_writers_hold_no_threads(self, buffer_server):
        """Backpressure on cached streams parks futures too.

        A cached stream's write touches the cache file, so part of it
        runs on a worker thread — but only the bounded store step.  40
        writers stalled on 40 full cached streams (more than the default
        executor can ever have threads: its hard cap is 32) must leave
        the node able to serve a cache-file re-read and a ``gb.create``.
        """
        n = 40
        service = buffer_server.service
        ctl = GridBufferClient(*buffer_server.address)
        try:
            seen = b"s" * 4096
            ctl.create_stream("seen", cache=True)
            ctl.register_reader("seen", "r")
            ctl.write("seen", 0, seen)
            ctl.close_writer("seen")
            assert ctl.read_window_ex("seen", "r", 0, len(seen), timeout=5)[0] == seen
            assert ctl.stats("seen")["blocks_in_table"] == 0  # a re-read needs the file

            payloads = [bytes([i]) * 64 + bytes([i + 100]) * 192 for i in range(n)]
            baseline = threading.active_count()
            writers = []
            for i, payload in enumerate(payloads):
                ctl.create_stream(f"full{i}", capacity_bytes=64, cache=True)
                ctl.register_reader(f"full{i}", "r")  # registered, but idle
                runs = [(off, payload[off : off + 64]) for off in range(0, 256, 64)]
                writers.append(
                    get_engine().submit(service.write_multi_async(f"full{i}", runs, timeout=30))
                )
                # One at a time, so the executor reuses its idle thread
                # and the thread-count bound below is machine-independent.
                deadline = time.monotonic() + 5
                while service.stats(f"full{i}").writer_stalls == 0:
                    assert time.monotonic() < deadline, f"writer {i} never reached its stall"
                    time.sleep(0.002)
            assert not any(w.done() for w in writers)
            assert threading.active_count() - baseline <= 8

            t0 = time.monotonic()
            assert ctl.read_window_ex("seen", "r", 0, len(seen), timeout=5)[0] == seen
            ctl.create_stream("late", cache=True)
            assert time.monotonic() - t0 < 1.0

            for i, payload in enumerate(payloads):
                got = bytearray()
                while len(got) < len(payload):
                    got += ctl.read_window_ex(f"full{i}", "r", len(got), 256, timeout=5)[0]
                assert bytes(got) == payload
                assert writers[i].result(5) == (256, "slow_reader")
        finally:
            ctl.close()
