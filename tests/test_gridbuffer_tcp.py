"""Integration tests: Grid Buffer over real TCP."""

import random
import threading

import pytest

from repro import obs
from repro.core.buffer_client import GridBufferClientPool
from repro.gns.records import BufferEndpoint
from repro.gridbuffer.client import GridBufferClient
from repro.transport.tcp import RpcError


def _served(op):
    """Requests for ``op`` the in-process server answered, any status."""
    family = obs.snapshot().get("rpc_server_requests_total") or {"series": []}
    return sum(s["value"] for s in family["series"] if s["labels"].get("op") == op)


@pytest.fixture()
def client(buffer_server):
    c = GridBufferClient(*buffer_server.address)
    yield c
    c.close()


class TestRemoteStream:
    def test_roundtrip(self, client):
        client.create_stream("s")
        client.register_reader("s", "r")
        client.write("s", 0, b"over the wire")
        client.close_writer("s")
        assert client.read_window_ex("s", "r", 0, 13)[0] == b"over the wire"

    def test_stream_exists(self, client, buffer_server):
        assert not buffer_server.service.exists("s")
        client.create_stream("s")
        assert buffer_server.service.exists("s")

    def test_stats(self, client):
        client.create_stream("s")
        client.register_reader("s", "r")
        client.write("s", 0, b"abcd")
        stats = client.stats("s")
        assert stats["bytes_written"] == 4

    def test_error_propagates_as_rpc_error(self, client):
        with pytest.raises(RpcError):
            client.write("unknown-stream", 0, b"x")

    def test_drop(self, client, buffer_server):
        client.create_stream("s")
        client.drop_stream("s")
        assert not buffer_server.service.exists("s")


class TestFileLikeAdapters:
    def test_writer_reader_threads(self, client, buffer_server):
        payload = bytes(i % 256 for i in range(50_000))

        def produce():
            w = client.open_writer("wire", cache=True)
            pos = 0
            while pos < len(payload):
                w.write(payload[pos : pos + 4096])
                pos += 4096
            w.close()

        received = {}

        def consume():
            reader_client = GridBufferClient(*buffer_server.address)
            # Either thread may open first: the reader's open carries the
            # stream's config and creates it if absent.
            r = reader_client.open_reader("wire", read_timeout=10, n_readers=1, cache=True)
            received["data"] = r.read()
            r.close()
            reader_client.close()

        tw = threading.Thread(target=produce)
        tr = threading.Thread(target=consume)
        tw.start()
        tr.start()
        tw.join(timeout=30)
        tr.join(timeout=30)
        assert received["data"] == payload

    def test_reader_seek_and_reread_via_cache(self, client):
        w = client.open_writer("seekable", cache=True)
        w.write(b"0123456789")
        w.close()
        r = client.open_reader("seekable", read_timeout=5)
        assert r.read(10) == b"0123456789"
        r.seek(2)
        assert r.read(4) == b"2345"
        assert r.tell() == 6
        r.close()

    def test_writer_tracks_position(self, client):
        w = client.open_writer("pos")
        w.write(b"abc")
        assert w.tell() == 3
        w.seek(10)
        w.write(b"z")
        assert w.tell() == 11
        # The stream has a gap at (3, 10), so it cannot close; abort
        # releases the writer's channel before the server goes away.
        w.abort()

    def test_write_after_close_raises(self, client):
        w = client.open_writer("closed")
        w.write(b"x")
        w.close()
        with pytest.raises(ValueError):
            w.write(b"y")

    def test_broadcast_two_remote_readers(self, client, buffer_server):
        w = client.open_writer("bcast", n_readers=2, cache=True)
        w.write(b"fanout")
        w.close()
        got = []
        for name in ("one", "two"):
            c = GridBufferClient(*buffer_server.address)
            r = c.open_reader("bcast", reader_id=name, read_timeout=5)
            got.append(r.read(6))
            r.close()
            c.close()
        assert got == [b"fanout", b"fanout"]

    def test_write_larger_than_capacity_streams_through(self, client, buffer_server):
        """One ``write()`` of four times the stream's capacity goes out in
        batches no larger than the capacity, so it lands instead of
        failing the stream."""
        capacity = 256 * 1024
        payload = random.Random(7).randbytes(4 * capacity)
        received = {}

        def consume():
            reader_client = GridBufferClient(*buffer_server.address)
            try:
                r = reader_client.open_reader(
                    "big", read_timeout=10, n_readers=1, capacity_bytes=capacity
                )
                received["data"] = r.read()
                r.close()
            finally:
                reader_client.close()

        tr = threading.Thread(target=consume)
        tr.start()
        with client.open_writer("big", capacity_bytes=capacity) as w:
            w.write(payload)
        tr.join(timeout=30)
        assert received["data"] == payload

    def test_readinto_supported(self, client):
        """BufferedReader requires raw readinto — regression test."""
        import io

        w = client.open_writer("buffered")
        w.write(b"line one\nline two\n")
        w.close()
        r = client.open_reader("buffered", read_timeout=5)
        buffered = io.BufferedReader(r)
        assert buffered.readline() == b"line one\n"
        assert buffered.readline() == b"line two\n"
        buffered.close()


class TestBroadcastReadersPullFromTheServer:
    def test_two_machines_in_one_process_each_fetch_the_stream(self, buffer_server):
        """Two FMs of different machines in one process hold a broadcast
        stream open and read it in turn: each gets every byte from the
        buffer server, so nothing acknowledges bytes it did not read."""
        endpoint = BufferEndpoint(stream="fanout", n_readers=2, cache=True)
        payload = random.Random(11).randbytes(256 * 1024)
        pools = [GridBufferClientPool("m1"), GridBufferClientPool("m2")]
        try:
            with pools[0].open_writer(endpoint, buffer_server.address) as w:
                w.write(payload)
            before = _served("gb.consume_multi")
            readers = [
                pool.open_reader(endpoint, buffer_server.address, read_timeout=5) for pool in pools
            ]
            try:
                for r in readers:
                    assert r.read() == payload
            finally:
                for r in readers:
                    r.close()
            assert _served("gb.consume_multi") == before
        finally:
            for pool in pools:
                pool.close()


class TestCacheFiles:
    """A cached stream owns its cache file: the FM's pool opens it, and a
    late reader re-reads what the writer left there."""

    def _reread(self, pool, address, endpoint, size):
        r = pool.open_reader(endpoint, address, read_timeout=5)
        try:
            first = r.read(size)
            r.seek(0)  # the table dropped the bytes on read: this hits the cache file
            return first, r.read(size)
        finally:
            r.close()

    def test_late_reader_open_keeps_the_cache_file(self, buffer_server):
        """The reader's open is a second create of a live cached stream;
        it must not truncate the file the writer filled."""
        pool = GridBufferClientPool("m")
        endpoint = BufferEndpoint(stream="late", cache=True)
        payload = bytes(range(256)) * 16  # 4 KiB
        try:
            with pool.open_writer(endpoint, buffer_server.address) as w:
                w.write(payload)
            assert self._reread(pool, buffer_server.address, endpoint, 4096) == (payload, payload)
            assert buffer_server.service._stream("late").cache.path.stat().st_size == 4096
        finally:
            pool.close()

    def test_names_differing_in_slash_and_underscore_use_two_files(self, buffer_server):
        pool = GridBufferClientPool("m")
        address = buffer_server.address
        streams = {"job/a": b"A" * 8, "job_a": b"B" * 8}
        try:
            for name, data in streams.items():
                with pool.open_writer(BufferEndpoint(stream=name, cache=True), address) as w:
                    w.write(data)
            for name, data in streams.items():
                got = self._reread(pool, address, BufferEndpoint(stream=name, cache=True), 8)
                assert got == (data, data), name
        finally:
            pool.close()
