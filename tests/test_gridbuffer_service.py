"""Unit tests for the Grid Buffer service semantics."""

import threading
import time

import pytest

from repro import obs
from repro.gridbuffer.cache import BufferCache
from repro.gridbuffer.service import (
    GridBufferError,
    GridBufferService,
    StreamClosed,
    StreamFailed,
)
from repro.transport.aio import get_engine

from ._run import run


@pytest.fixture()
def svc():
    return GridBufferService()


def parked(direction):
    return obs.value("buffer_async_parked", {"direction": direction}) or 0


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.005)


def make_stream(svc, name="s", n_readers=1, readers=("r1",), cache=None, capacity=None):
    factory = None if cache is None else (lambda: cache)
    svc.create_stream(name, n_readers=n_readers, capacity_bytes=capacity, cache=factory)
    for r in readers:
        svc.register_reader(name, r)


class TestBasicReadWrite:
    def test_sequential_roundtrip(self, svc):
        make_stream(svc)
        run(svc.write_async("s", 0, b"abc"))
        run(svc.write_async("s", 3, b"def"))
        svc.close_writer("s")
        assert run(svc.read_async("s", "r1", 0, 6)) == b"abcdef"

    def test_read_smaller_than_block(self, svc):
        make_stream(svc)
        run(svc.write_async("s", 0, b"0123456789"))
        assert run(svc.read_async("s", "r1", 0, 4)) == b"0123"
        assert run(svc.read_async("s", "r1", 4, 6)) == b"456789"

    def test_read_spanning_blocks(self, svc):
        make_stream(svc)
        run(svc.write_async("s", 0, b"aaa"))
        run(svc.write_async("s", 3, b"bbb"))
        run(svc.write_async("s", 6, b"ccc"))
        assert run(svc.read_async("s", "r1", 1, 7)) == b"aabbbcc"

    def test_eof_semantics(self, svc):
        make_stream(svc)
        run(svc.write_async("s", 0, b"xy"))
        total = svc.close_writer("s")
        assert total == 2
        assert run(svc.read_async("s", "r1", 0, 10)) == b"xy"  # short read at EOF
        assert run(svc.read_async("s", "r1", 2, 10)) == b""    # at EOF
        assert run(svc.read_async("s", "r1", 99, 1)) == b""    # beyond EOF

    def test_random_offset_writes(self, svc):
        """The hash table supports out-of-order (random) writes."""
        make_stream(svc)
        run(svc.write_async("s", 5, b"world"))
        run(svc.write_async("s", 0, b"hello"))
        svc.close_writer("s")
        assert run(svc.read_async("s", "r1", 0, 10)) == b"helloworld"

    def test_close_with_gap_raises(self, svc):
        make_stream(svc)
        run(svc.write_async("s", 0, b"a"))
        run(svc.write_async("s", 5, b"b"))
        with pytest.raises(GridBufferError, match="gap"):
            svc.close_writer("s")

    def test_write_after_close_raises(self, svc):
        make_stream(svc)
        run(svc.write_async("s", 0, b"x"))
        svc.close_writer("s")
        with pytest.raises(StreamClosed):
            run(svc.write_async("s", 1, b"y"))

    def test_close_idempotent(self, svc):
        make_stream(svc)
        run(svc.write_async("s", 0, b"x"))
        assert svc.close_writer("s") == 1
        assert svc.close_writer("s") == 1

    def test_unknown_stream_raises(self, svc):
        with pytest.raises(GridBufferError, match="unknown stream"):
            run(svc.write_async("nope", 0, b"x"))

    def test_unregistered_reader_raises(self, svc):
        make_stream(svc)
        with pytest.raises(GridBufferError, match="not registered"):
            run(svc.read_async("s", "ghost", 0, 1))

    def test_too_many_readers_raises(self, svc):
        make_stream(svc, n_readers=1)
        with pytest.raises(GridBufferError, match="already has"):
            svc.register_reader("s", "r2")

    def test_reregister_same_reader_ok(self, svc):
        make_stream(svc)
        svc.register_reader("s", "r1")  # no error

    def test_create_idempotent_same_config(self, svc):
        svc.create_stream("s", n_readers=2)
        svc.create_stream("s", n_readers=2)
        with pytest.raises(GridBufferError):
            svc.create_stream("s", n_readers=3)


class TestBlockingReads:
    def test_read_blocks_until_written(self, svc):
        make_stream(svc)
        result = {}

        def reader():
            result["data"] = run(svc.read_async("s", "r1", 0, 5, timeout=5))

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        assert "data" not in result  # still blocked
        run(svc.write_async("s", 0, b"12345"))
        t.join(timeout=5)
        assert result["data"] == b"12345"

    def test_partial_data_returned_without_blocking(self, svc):
        """POSIX semantics: an over-long read returns what is there."""
        make_stream(svc)
        run(svc.write_async("s", 0, b"short"))
        assert run(svc.read_async("s", "r1", 0, 100, timeout=5)) == b"short"

    def test_read_at_unwritten_offset_blocks_until_eof(self, svc):
        make_stream(svc)
        run(svc.write_async("s", 0, b"12345"))
        result = {}

        def reader():
            # Offset 5 has nothing yet; must block until close -> EOF.
            result["data"] = run(svc.read_async("s", "r1", 5, 10, timeout=5))

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        assert "data" not in result
        svc.close_writer("s")
        t.join(timeout=5)
        assert result["data"] == b""

    def test_read_timeout(self, svc):
        make_stream(svc)
        with pytest.raises(TimeoutError):
            run(svc.read_async("s", "r1", 0, 1, timeout=0.05))


class TestDeleteOnRead:
    def test_block_removed_after_consumption(self, svc):
        make_stream(svc)
        run(svc.write_async("s", 0, b"x" * 100))
        assert svc.stats("s").bytes_in_table == 100
        run(svc.read_async("s", "r1", 0, 100))
        assert svc.stats("s").bytes_in_table == 0

    def test_partial_consumption_keeps_block(self, svc):
        make_stream(svc)
        run(svc.write_async("s", 0, b"x" * 100))
        run(svc.read_async("s", "r1", 0, 40))
        assert svc.stats("s").bytes_in_table == 100  # not fully consumed
        run(svc.read_async("s", "r1", 40, 60))
        assert svc.stats("s").bytes_in_table == 0

    def test_reread_without_cache_raises(self, svc):
        make_stream(svc)
        run(svc.write_async("s", 0, b"data"))
        run(svc.read_async("s", "r1", 0, 4))
        with pytest.raises(GridBufferError, match="no\\s+cache"):
            run(svc.read_async("s", "r1", 0, 4))

    def test_reread_with_cache_served(self, svc, tmp_path):
        cache = BufferCache(tmp_path / "s.cache")
        make_stream(svc, cache=cache)
        run(svc.write_async("s", 0, b"cached-data"))
        svc.close_writer("s")
        assert run(svc.read_async("s", "r1", 0, 11)) == b"cached-data"
        assert svc.stats("s").bytes_in_table == 0
        # Seek back: the paper's DARLAM re-read pattern.
        assert run(svc.read_async("s", "r1", 0, 6)) == b"cached"
        assert svc.stats("s").cache_hits >= 1

    def test_arbitrary_seek_with_cache(self, svc, tmp_path):
        cache = BufferCache(tmp_path / "s.cache")
        make_stream(svc, cache=cache)
        run(svc.write_async("s", 0, b"0123456789"))
        svc.close_writer("s")
        run(svc.read_async("s", "r1", 0, 10))
        assert run(svc.read_async("s", "r1", 3, 4)) == b"3456"


class TestBroadcast:
    def test_both_readers_get_data(self, svc):
        make_stream(svc, n_readers=2, readers=("a", "b"))
        run(svc.write_async("s", 0, b"broadcast"))
        assert run(svc.read_async("s", "a", 0, 9)) == b"broadcast"
        assert run(svc.read_async("s", "b", 0, 9)) == b"broadcast"

    def test_block_kept_until_all_readers_consume(self, svc):
        make_stream(svc, n_readers=2, readers=("a", "b"))
        run(svc.write_async("s", 0, b"x" * 10))
        run(svc.read_async("s", "a", 0, 10))
        assert svc.stats("s").bytes_in_table == 10  # b hasn't read
        run(svc.read_async("s", "b", 0, 10))
        assert svc.stats("s").bytes_in_table == 0

    def test_block_kept_until_all_readers_registered(self, svc):
        svc.create_stream("s", n_readers=2)
        svc.register_reader("s", "a")
        run(svc.write_async("s", 0, b"keep"))
        run(svc.read_async("s", "a", 0, 4))
        assert svc.stats("s").bytes_in_table == 4  # late reader must see it
        svc.register_reader("s", "b")
        assert run(svc.read_async("s", "b", 0, 4)) == b"keep"
        assert svc.stats("s").bytes_in_table == 0


class TestBackpressure:
    def test_writer_blocks_at_capacity(self, svc):
        make_stream(svc, capacity=100)
        run(svc.write_async("s", 0, b"x" * 100))
        with pytest.raises(TimeoutError):
            run(svc.write_async("s", 100, b"y", timeout=0.05))
        assert svc.stats("s").writer_stalls >= 1

    def test_reader_frees_capacity(self, svc):
        make_stream(svc, capacity=100)
        run(svc.write_async("s", 0, b"x" * 100))
        unblocked = []

        def writer():
            run(svc.write_async("s", 100, b"y" * 50, timeout=5))
            unblocked.append(True)

        t = threading.Thread(target=writer)
        t.start()
        time.sleep(0.05)
        assert not unblocked
        run(svc.read_async("s", "r1", 0, 100))  # consume -> free space
        t.join(timeout=5)
        assert unblocked == [True]

    def test_cached_stream_stall_publishes_prefix_and_dedupes_replay(self, svc, tmp_path):
        """A cached stream's store step runs on a worker thread; the
        stall contract must not change because of it."""
        cache = BufferCache(tmp_path / "s.cache")
        make_stream(svc, cache=cache, capacity=100)
        runs = [(0, b"a" * 60), (60, b"b" * 60)]  # the second cannot fit yet
        before = parked("write")
        writer = get_engine().submit(
            svc.write_multi_async("s", runs, timeout=5, token="tok", seq=0)
        )
        wait_until(lambda: parked("write") == before + 1)
        # Mid-batch stall: the stored prefix is already readable, and it
        # reached the cache file before delete-on-read GC could drop it.
        assert run(svc.read_async("s", "r1", 0, 200, timeout=1)) == b"a" * 60
        assert cache.load(0, 60) == b"a" * 60
        assert writer.result(5) == (120, "slow_reader")
        assert run(svc.read_async("s", "r1", 60, 200, timeout=1)) == b"b" * 60
        assert cache.total_cached() == 120
        # The client lost the reply and retries the batch: a no-op.
        assert run(svc.write_multi_async("s", runs, timeout=1, token="tok", seq=0)) == (0, None)
        assert svc.stats("s").bytes_written == 120
        assert run(svc.read_async("s", "r1", 0, 200)) == b"a" * 60 + b"b" * 60  # cache-served

    def test_block_larger_than_capacity_rejected(self, svc):
        make_stream(svc, capacity=10)
        with pytest.raises(GridBufferError, match="exceeds"):
            run(svc.write_async("s", 0, b"x" * 11))


class TestStatsAndLifecycle:
    def test_stats_counts(self, svc):
        make_stream(svc)
        run(svc.write_async("s", 0, b"abcd"))
        run(svc.read_async("s", "r1", 0, 2))
        stats = svc.stats("s")
        assert stats.bytes_written == 4
        assert stats.bytes_read == 2

    def test_drop_stream(self, svc):
        make_stream(svc)
        assert svc.exists("s")
        svc.drop_stream("s")
        assert not svc.exists("s")
        svc.drop_stream("s")  # idempotent

    def test_drop_wakes_parked_waiters(self, svc):
        """A waiter parked with no timeout must not outlive its stream."""
        make_stream(svc, capacity=100)
        run(svc.write_async("s", 0, b"x" * 100))
        readers, writers = parked("read"), parked("write")
        reader = get_engine().submit(svc.read_async("s", "r1", 100, 10))
        writer = get_engine().submit(svc.write_async("s", 100, b"y" * 50))
        wait_until(lambda: (parked("read"), parked("write")) == (readers + 1, writers + 1))
        svc.drop_stream("s")
        for waiter in (reader, writer):
            with pytest.raises(StreamFailed, match="dropped"):
                waiter.result(1)
        assert (parked("read"), parked("write")) == (readers, writers)

    def test_validation(self, svc):
        with pytest.raises(ValueError):
            svc.create_stream("s", n_readers=0)
        make_stream(svc)
        with pytest.raises(ValueError):
            run(svc.write_async("s", -1, b"x"))
        with pytest.raises(ValueError):
            run(svc.read_async("s", "r1", -1, 1))

    def test_empty_write_is_noop(self, svc):
        make_stream(svc)
        run(svc.write_async("s", 0, b""))
        assert svc.stats("s").bytes_written == 0


class TestConcurrentStreaming:
    def test_pipelined_writer_reader(self, svc, tmp_path):
        """A full producer/consumer run with randomish chunk sizes."""
        cache = BufferCache(tmp_path / "p.cache")
        make_stream(svc, name="pipe", cache=cache, capacity=4096)
        payload = bytes(i % 256 for i in range(100_000))
        received = bytearray()

        def writer():
            pos = 0
            sizes = [1, 7, 512, 4096, 33, 999]
            i = 0
            while pos < len(payload):
                size = sizes[i % len(sizes)]
                chunk = payload[pos : pos + size]
                run(svc.write_async("pipe", pos, chunk, timeout=10))
                pos += len(chunk)
                i += 1
            svc.close_writer("pipe")

        def reader():
            pos = 0
            while True:
                chunk = run(svc.read_async("pipe", "r1", pos, 777, timeout=10))
                if not chunk:
                    break
                received.extend(chunk)
                pos += len(chunk)

        tw = threading.Thread(target=writer)
        tr = threading.Thread(target=reader)
        tw.start()
        tr.start()
        tw.join(timeout=30)
        tr.join(timeout=30)
        assert bytes(received) == payload
