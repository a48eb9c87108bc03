"""Fast-path tests: vectored ops, no per-op fallback, shared cache, shutdown.

Covers the Grid Buffer fast path end to end over real TCP: vectored
``write_multi``/``read_multi``/``consume_multi`` round trips, a missing
op surfacing as ``unknown-op``, multi-reader broadcast under
interleaved seeks and re-reads (asserting delete-on-read GC and the
per-reader lag gauges stay exact), writer flush-deadline visibility,
reader shutdown hygiene, and a reader's one-round-trip open.
"""

import hashlib
import threading
import time

import pytest

from repro import obs
from repro.gridbuffer.client import GridBufferClient
from repro.gridbuffer.protocol import OP_CONSUME_MULTI, OP_READ_MULTI, OP_WRITE_MULTI
from repro.transport.tcp import RpcError

PAYLOAD = bytes((i * 7 + i // 256) % 256 for i in range(128 * 1024))


@pytest.fixture()
def client(buffer_server):
    c = GridBufferClient(*buffer_server.address)
    yield c
    c.close()


class TestVectoredOps:
    def test_write_multi_scatters_in_one_frame(self, client):
        client.create_stream("vm")
        client.register_reader("vm", "r")
        served = {"op": OP_WRITE_MULTI, "status": "ok"}
        before = obs.value("rpc_server_requests_total", served) or 0
        client.write_multi("vm", [(0, b"aaaa"), (4, b"bbbb"), (12, b"dddd"), (8, b"cccc")])
        client.close_writer("vm")
        assert client.read_window_ex("vm", "r", 0, 16)[0] == b"aaaabbbbccccdddd"
        assert obs.value("rpc_server_requests_total", served) == before + 1

    def test_read_window_returns_contiguous_run_and_total(self, client):
        client.create_stream("rw")
        client.register_reader("rw", "r")
        for off in range(0, 12288, 4096):
            client.write("rw", off, PAYLOAD[off : off + 4096])
        client.close_writer("rw")
        data, total = client.read_window_ex("rw", "r", 0, 1 << 20)
        assert data == PAYLOAD[:12288]  # one reply, three blocks
        assert total == 12288

    def test_read_window_min_bytes_waits_for_more(self, client):
        client.create_stream("mb")
        client.register_reader("mb", "r")
        client.write("mb", 0, b"x" * 100)

        def late_writer():
            time.sleep(0.05)
            client.write("mb", 100, b"y" * 100)

        t = threading.Thread(target=late_writer)
        t.start()
        data, _ = client.read_window_ex("mb", "r", 0, 4096, min_bytes=150)
        t.join()
        assert len(data) >= 150  # blocked past the first write

    def test_consume_acks_without_transfer(self, client, buffer_server):
        client.create_stream("ck")
        client.register_reader("ck", "r")
        client.write("ck", 0, b"z" * 8192)
        client.consume_multi("ck", [("r", [(0, 8192)])])
        stats = client.stats("ck")
        assert stats["bytes_read"] == 8192     # counted as served
        assert stats["blocks_in_table"] == 0   # delete-on-read fired


class TestNoFallback:
    """The op set is the wire version: a missing op is an error, not a detour."""

    @pytest.mark.parametrize("op", [OP_WRITE_MULTI, OP_READ_MULTI, OP_CONSUME_MULTI])
    def test_missing_op_propagates_unknown_op(self, buffer_server, client, op):
        client.create_stream("nf")
        client.register_reader("nf", "r")
        client.write("nf", 0, b"z" * 8192)
        del buffer_server._rpc._handlers[op]
        calls = {
            OP_WRITE_MULTI: lambda: client.write_multi("nf", [(8192, b"a"), (9000, b"b")]),
            OP_READ_MULTI: lambda: client.read_window_ex("nf", "r", 0, 4096),
            OP_CONSUME_MULTI: lambda: client.consume_multi("nf", [("r", [(0, 4096)])]),
        }
        with pytest.raises(RpcError) as exc_info:
            calls[op]()
        assert exc_info.value.kind == "unknown-op"
        # Nothing was quietly redone per block behind the caller's back.
        stats = client.stats("nf")
        assert stats["bytes_written"] == 8192
        assert stats["bytes_read"] == 0


class TestBroadcastStress:
    N_READERS = 3

    def test_interleaved_seeks_rereads_gc_and_lag(self, client, buffer_server):
        """Broadcast + cache stream under seek/re-read churn.

        Every reader re-reads a prefix mid-stream (cache-file path),
        then drains to EOF.  Afterwards delete-on-read GC must have
        emptied the hash table and every per-reader lag gauge must be
        zero.
        """
        name = "stress"
        digest = hashlib.sha256(PAYLOAD).hexdigest()
        w = client.open_writer(
            name, n_readers=self.N_READERS, cache=True, coalesce_bytes=16 * 1024
        )
        readers = [
            client.open_reader(name, reader_id=f"r{i}", read_ahead_depth=3)
            for i in range(self.N_READERS)
        ]
        errors = []

        def write_all():
            try:
                for off in range(0, len(PAYLOAD), 4096):
                    w.write(PAYLOAD[off : off + 4096])
                w.close()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def read_all(r, i):
            try:
                first = r.read(24 * 1024)
                # Interleave: jump back and re-read a slice (a cache-file
                # hit server-side), then resume.
                r.seek(4096 * i)
                again = r.read(8192)
                assert again == PAYLOAD[4096 * i : 4096 * i + 8192]
                r.seek(len(first))
                rest = r.read()
                got = first + rest
                assert hashlib.sha256(got).hexdigest() == digest, f"reader {i} corrupt"
                r.close()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=write_all)] + [
            threading.Thread(target=read_all, args=(r, i)) for i, r in enumerate(readers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == [], errors

        # Delete-on-read GC: every block consumed by all three readers
        # must have left the table.
        stats = client.stats(name)
        assert stats["blocks_in_table"] == 0
        assert stats["bytes_in_table"] == 0
        # Each reader accounted for at least the full stream (re-reads
        # can only add); vectored serving must not lose accounting.
        assert stats["bytes_read"] >= self.N_READERS * len(PAYLOAD)

        # Per-reader lag gauges: everyone drained to the high-water mark.
        snap = obs.snapshot()
        lag = snap.get("buffer_reader_lag_bytes")
        assert lag is not None
        ours = [s for s in lag["series"] if s["labels"].get("stream") == name]
        assert len(ours) == self.N_READERS
        assert all(s["value"] == 0 for s in ours), ours


class TestWriterFlushDeadline:
    def test_deadline_pushes_partial_batch(self, client):
        w = client.open_writer("dl", coalesce_bytes=1 << 20, flush_after=0.05)
        w.write(b"p" * 1000)  # far below the batch limit
        deadline = time.monotonic() + 5.0
        while client.high_water("dl") < 1000:
            assert time.monotonic() < deadline, "deadline flush never happened"
            time.sleep(0.01)
        assert w.rpc_writes == 1
        w.close()

    def test_zero_deadline_keeps_bytes_local_until_flush(self, client):
        w = client.open_writer("dl0", coalesce_bytes=1 << 20, flush_after=0)
        w.write(b"p" * 1000)
        time.sleep(0.15)
        assert client.high_water("dl0") == 0  # nothing pushed
        w.flush()
        assert client.high_water("dl0") == 1000
        w.close()


class TestReaderShutdown:
    def test_close_fails_parked_fetches_and_leaves_no_task_or_connection(self, client):
        """close() must fail window fetches parked server-side at once and
        leave no fetch task and no connection behind."""
        chunk = 16 * 1024
        client.create_stream("shut")
        client.write("shut", 0, b"a" * 4 * chunk)  # writer stays open
        r = client.open_reader("shut", read_ahead_bytes=chunk, read_ahead_depth=4)
        for _ in range(4):
            assert r.read(chunk) == b"a" * chunk
        # The window is now blocked server-side waiting for bytes that
        # will never arrive (writer never closes).
        window = r._ra
        deadline = time.monotonic() + 5.0
        while len(window._inflight) < 4:
            assert time.monotonic() < deadline, "the window never parked its fetches"
            time.sleep(0.01)
        tasks = list(window._tasks)
        conns = list(window._load)
        t0 = time.perf_counter()
        r.close()
        elapsed = time.perf_counter() - t0
        assert elapsed < 3.0, f"close() hung {elapsed:.1f}s on blocked read-ahead"
        assert tasks and all(t.done() for t in tasks), "a window fetch outlived close()"
        assert not window._tasks and not window._load and window._conn is None
        assert conns and all(c._closed and c._conn is None for c in conns)
        # The head fetch's one-socket pool is released too.
        assert not window._head._idle and not window._head._inflight

    def test_repeated_open_close_leaks_no_threads(self, client):
        client.create_stream("leak", n_readers=5)
        client.write("leak", 0, b"b" * 4096)
        client.close_writer("leak")
        for i in range(5):
            r = client.open_reader("leak", reader_id=f"r{i}")
            assert r.read() == b"b" * 4096
            r.close()
        lingering = [
            t.name for t in threading.enumerate() if t.name.startswith("gb-window")
        ]
        assert lingering == [], lingering


class TestHeadFetchNeverStarves:
    def test_reread_after_seek_is_not_queued_behind_parked_prefetches(
        self, client, buffer_server
    ):
        """A writer stalled on ``buffer_full`` leaves the whole depth-4
        window parked ahead of the reader; a re-read after ``seek(0)``
        must still get a connection and return at once."""
        chunk, cap = 16 * 1024, 64 * 1024
        client.create_stream("starve", n_readers=2, capacity_bytes=cap, cache=True)
        client.register_reader("starve", "lagger")  # never reads: GC cannot free capacity
        client.write_multi("starve", [(o, PAYLOAD[o : o + chunk]) for o in range(0, cap, chunk)])
        outcome = []

        def stalled_write():
            try:
                client.write("starve", cap, PAYLOAD[cap : cap + chunk])
            except RpcError as exc:
                outcome.append(exc.kind)

        stalled = threading.Thread(target=stalled_write, daemon=True)
        stalled.start()
        r = client.open_reader("starve", reader_id="r", read_ahead_bytes=chunk, read_ahead_depth=4)
        try:
            for off in range(0, cap, chunk):
                assert r.read(chunk) == PAYLOAD[off : off + chunk]
            stream = buffer_server.service._stream("starve")
            deadline = time.monotonic() + 5.0
            while len(stream.async_readers) < 4 or not stream.async_writers:
                assert time.monotonic() < deadline, "window or writer never parked"
                time.sleep(0.01)
            r.seek(0)
            t0 = time.perf_counter()
            assert r.read(chunk) == PAYLOAD[:chunk]
            assert time.perf_counter() - t0 < 3.0
        finally:
            r.close()
            client.abort_writer("starve")  # fails the stalled write
            stalled.join(timeout=5.0)
        assert not stalled.is_alive() and outcome


class TestOpenCreatesStream:
    def test_open_reader_creates_the_stream_in_one_rpc(self, buffer_server, client):
        """A reader that opens before any writer creates the stream with
        the config it passes, inside its one ``gb.register_reader``: no
        ``gb.create``, no ``gb.exists`` poll.  The config is the
        stream's, so a second reader of a one-reader stream is refused
        at open."""
        ops = ("gb.create", "gb.exists", "gb.register_reader")

        def calls():
            return {op: obs.value("rpc_client_calls_total", {"op": op}) or 0 for op in ops}

        before = calls()
        r = client.open_reader(
            "never-created", reader_id="a", n_readers=1, capacity_bytes=4096, cache=True
        )
        try:
            after = calls()
            assert {op: after[op] - before[op] for op in ops} == {
                "gb.create": 0, "gb.exists": 0, "gb.register_reader": 1,
            }
            st = buffer_server.service._stream("never-created")
            assert (st.n_readers, st.capacity, st.cache is not None) == (1, 4096, True)
            with pytest.raises(RpcError, match="already has 1 readers"):
                client.open_reader("never-created", reader_id="b", n_readers=1, cache=True)
        finally:
            r.close()
        # Without the config the register only attaches: nothing is created.
        with pytest.raises(RpcError, match="unknown stream"):
            client.open_reader("still-absent")
        assert not buffer_server.service.exists("still-absent")
