"""Pipelined remote-IO correctness: prefetch, coalescing, parallel streams.

Every scenario checks byte-identity against plain local reads — the
pipeline must be invisible except in the counters.
"""

import hashlib
import io
import sys
import threading
import time

import pytest

from repro import faults
from repro.core.remote_client import RemoteFileClient
from repro.core.remote_io import WriteCoalescer
from repro.faults import FaultRule
from repro.transport.gridftp import GridFtpClient, GridFtpServer

from ._seed import SEED

PATTERN = bytes(i % 256 for i in range(64_000))
BLOCK = 1024


@pytest.fixture()
def export(tmp_path):
    root = tmp_path / "export"
    root.mkdir()
    (root / "data.bin").write_bytes(PATTERN)
    server = GridFtpServer(root)
    with server:
        yield server, root


@pytest.fixture()
def remote(export, tmp_path):
    server, _ = export
    client = GridFtpClient(*server.address, block_size=BLOCK)
    yield RemoteFileClient(client, scratch_dir=tmp_path / "scratch")
    client.close()


class TestPrefetchCorrectness:
    def test_sequential_read_pipelines_and_is_byte_identical(self, remote):
        f = remote.open_proxy("/data.bin", "r", block_size=BLOCK)
        out = bytearray()
        while True:
            chunk = f.read(BLOCK)
            if not chunk:
                break
            out += chunk
        assert bytes(out) == PATTERN
        assert f.prefetch_hits > 0, "sequential read never engaged the pipeline"
        # Demand RPCs must be well below one per block once the window opens.
        nblocks = -(-len(PATTERN) // BLOCK)
        assert f.rpc_reads < nblocks
        f.close()

    def test_sequential_then_random_seek_interleave(self, remote):
        f = remote.open_proxy("/data.bin", "r", block_size=BLOCK)
        local = io.BytesIO(PATTERN)
        # Sequential warm-up to open the prefetch window…
        for _ in range(8):
            assert f.read(BLOCK) == local.read(BLOCK)
        # …then hop around: forward, backward, unaligned, repeat.
        for offset in (40_000, 3, 63_000, 512, 40_000, 31_999):
            f.seek(offset)
            local.seek(offset)
            assert f.read(700) == local.read(700)
        # …then sequential again from an arbitrary point.
        f.seek(10_000)
        local.seek(10_000)
        for _ in range(10):
            assert f.read(BLOCK) == local.read(BLOCK)
        f.close()

    def test_reads_straddling_block_and_eof_boundaries(self, remote):
        f = remote.open_proxy("/data.bin", "r", block_size=BLOCK)
        local = io.BytesIO(PATTERN)
        # Straddle every block boundary with an odd-sized read.
        f.seek(BLOCK - 100)
        local.seek(BLOCK - 100)
        for _ in range(20):
            assert f.read(333) == local.read(333)
        # Read straddling EOF: asks past the end, gets the tail.
        f.seek(len(PATTERN) - 50)
        assert f.read(500) == PATTERN[-50:]
        # Read exactly at EOF.
        assert f.read(10) == b""
        # read(-1) from mid-file.
        f.seek(60_000)
        assert f.read() == PATTERN[60_000:]
        f.close()

    def test_write_invalidates_in_flight_prefetch(self, remote, export):
        _, root = export
        f = remote.open_proxy("/data.bin", "r+", block_size=BLOCK)
        # Sequential reads to open the window and put blocks in flight.
        f.read(BLOCK)
        f.read(BLOCK)
        # Overwrite a block that is (or may be) in the prefetch window.
        target = 5 * BLOCK
        f.seek(target)
        f.write(b"\xaa" * BLOCK)
        f.seek(target)
        assert f.read(BLOCK) == b"\xaa" * BLOCK, "stale prefetched block served"
        f.close()
        on_disk = (root / "data.bin").read_bytes()
        assert on_disk[target : target + BLOCK] == b"\xaa" * BLOCK
        assert on_disk[:BLOCK] == PATTERN[:BLOCK]

    def test_concurrent_readers_share_one_client(self, remote):
        digests = {}
        errors = []

        def reader(idx: int) -> None:
            try:
                f = remote.open_proxy("/data.bin", "r", block_size=BLOCK)
                h = hashlib.sha256()
                while True:
                    chunk = f.read(3 * BLOCK + 7)
                    if not chunk:
                        break
                    h.update(chunk)
                f.close()
                digests[idx] = h.hexdigest()
            except BaseException as exc:  # noqa: BLE001 - surface in main thread
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        expected = hashlib.sha256(PATTERN).hexdigest()
        assert all(d == expected for d in digests.values())

    def test_writes_into_the_window_under_a_short_switch_interval(self, remote, export):
        """Eight proxies (more than cores), each on its own file, write
        into their own prefetch window while its blocks are in flight on
        the loop: a dirtied block is never served stale."""
        _, root = export
        for i in range(8):
            (root / f"w{i}.bin").write_bytes(PATTERN)
        errors = []

        def writer(i: int) -> None:
            try:
                f = remote.open_proxy(f"/w{i}.bin", "r+", block_size=BLOCK)
                try:
                    for round_ in range(6):
                        start = round_ * 8 * BLOCK
                        f.seek(start)
                        f.read(2 * BLOCK)  # blocks +2 and +3 go in flight
                        fresh = bytes([i * 8 + round_]) * BLOCK
                        f.write(fresh)  # dirties block +2
                        f.seek(start + 2 * BLOCK)
                        assert f.read(BLOCK) == fresh, f"proxy {i} served a stale block"
                finally:
                    f.close()
            except BaseException as exc:  # noqa: BLE001 - surface in main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]

    def test_prefetch_disabled_still_correct(self, remote):
        f = remote.open_proxy("/data.bin", "r", block_size=BLOCK, prefetch=False)
        assert f.read() == PATTERN
        assert f.prefetch_hits == 0
        f.close()

    def test_prefetch_counters_observable(self, remote):
        """Block 0 comes with the open (a demand block in the cache); the
        read there starts the window, which serves blocks 1 to 7."""
        demand_hits = remote.block_cache.demand_hits
        f = remote.open_proxy("/data.bin", "r", block_size=BLOCK)
        assert f.read(8 * BLOCK) == PATTERN[: 8 * BLOCK]
        assert remote.block_cache.demand_hits == demand_hits + 1
        assert f.prefetch_hits >= 1
        assert f.prefetch_hits + f.rpc_reads == 7
        assert f.prefetch_wasted >= 0
        f.close()


class TestPrefetchUnderFaults:
    """Prefetch stays on.  The first ``get_block`` call is the open's
    probe of block 0; the read there starts the window, so the second
    and third are the prefetches of blocks 1 and 2."""

    def test_a_failed_prefetch_is_refetched_on_demand(self, remote, monkeypatch):
        demand = []
        read_block = remote.client.read_block

        def recording(path, offset, length):
            demand.append(offset)
            return read_block(path, offset, length)

        monkeypatch.setattr(remote.client, "read_block", recording)
        rule = FaultRule(layer="gridftp", op="get_block", action="error", nth=3)
        with faults.injected(rule, seed=SEED) as injector:
            f = remote.open_proxy("/data.bin", "r", block_size=BLOCK)
            try:
                out = bytearray()
                while chunk := f.read(BLOCK):
                    out += chunk
            finally:
                f.close()
        assert bytes(out) == PATTERN
        assert [action for *_, action in injector.fired] == ["error"]
        assert demand == [2 * BLOCK], "block 2 was not re-fetched on demand"
        assert f.rpc_reads == 1
        assert f.prefetch_hits > 0

    def test_a_delayed_prefetch_does_not_delay_another_connection(self, remote):
        """The delay is awaited on the loop, so the server, on the same
        loop, still answers a demand call within a fraction of it."""
        rule = FaultRule(layer="gridftp", op="get_block", action="delay", delay=0.2, nth=3)
        with faults.injected(rule, seed=SEED) as injector:
            f = remote.open_proxy("/data.bin", "r", block_size=BLOCK)
            try:
                assert f.read(2 * BLOCK) == PATTERN[: 2 * BLOCK]  # schedules 1 to 8
                deadline = time.monotonic() + 5.0
                while not injector.fired:
                    assert time.monotonic() < deadline, "the prefetch never fired"
                    time.sleep(0.001)
                t0 = time.perf_counter()
                assert remote.client.exists("/data.bin")
                elapsed = time.perf_counter() - t0
                assert f.read() == PATTERN[2 * BLOCK :]
            finally:
                f.close()
        assert [action for *_, action in injector.fired] == ["delay"]
        assert elapsed < 0.1, f"a call on another connection waited {elapsed:.3f} s"


class TestWriteCoalescing:
    def test_small_sequential_writes_batched(self, remote, export):
        _, root = export
        f = remote.open_proxy("/out.bin", "w", block_size=BLOCK)
        payload = bytes(i % 97 for i in range(10 * BLOCK))
        for i in range(0, len(payload), 64):  # 160 tiny writes
            f.write(payload[i : i + 64])
        f.close()
        assert (root / "out.bin").read_bytes() == payload
        # 10 full blocks => ~10 put RPCs, not 160.
        assert f.put_rpcs <= 11

    def test_flush_pushes_pending_writes(self, remote, export):
        _, root = export
        f = remote.open_proxy("/out.bin", "w", block_size=BLOCK)
        f.write(b"abc")
        f.flush()
        assert (root / "out.bin").read_bytes() == b"abc"
        f.close()

    def test_seek_flushes_then_read_sees_own_writes(self, remote):
        f = remote.open_proxy("/out.bin", "w+", block_size=BLOCK)
        f.write(b"hello world")
        f.seek(0)
        assert f.read(11) == b"hello world"
        f.close()

    def test_non_contiguous_writes_correct(self, remote, export):
        _, root = export
        f = remote.open_proxy("/out.bin", "w", block_size=BLOCK)
        f.write(b"AAAA")
        f.seek(100)
        f.write(b"BBBB")
        f.seek(4)
        f.write(b"CCCC")
        f.close()
        data = (root / "out.bin").read_bytes()
        assert data[:8] == b"AAAACCCC"
        assert data[100:104] == b"BBBB"

    def test_coalescer_unit_behaviour(self):
        flushed = []
        c = WriteCoalescer(lambda off, data: flushed.append((off, bytes(data))), 8)
        c.write(0, b"ab")
        c.write(2, b"cd")
        assert flushed == []  # still below one block
        c.write(4, b"efghijkl")  # crosses the block boundary
        assert flushed == [(0, b"abcdefgh")]
        c.flush()
        assert flushed == [(0, b"abcdefgh"), (8, b"ijkl")]
        assert c.writes_coalesced >= 1


class TestAppendModes:
    """POSIX append must create a missing file (regression)."""

    def test_proxy_append_creates_missing_file(self, remote, export):
        _, root = export
        f = remote.open_proxy("/fresh.log", "a", block_size=BLOCK)
        f.write(b"line-1\n")
        f.close()
        assert (root / "fresh.log").read_bytes() == b"line-1\n"

    def test_proxy_append_plus_creates_missing_file(self, remote, export):
        _, root = export
        f = remote.open_proxy("/fresh2.log", "a+", block_size=BLOCK)
        f.write(b"x")
        f.close()
        assert (root / "fresh2.log").read_bytes() == b"x"

    def test_proxy_append_existing_appends(self, remote, export):
        _, root = export
        f = remote.open_proxy("/data.bin", "a", block_size=BLOCK)
        f.write(b"TAIL")
        f.close()
        assert (root / "data.bin").read_bytes() == PATTERN + b"TAIL"

    def test_copy_append_creates_missing_file(self, remote, export):
        _, root = export
        f = remote.open_copy("/made-by-copy.log", "a")
        f.write(b"created\n")
        f.close()
        assert (root / "made-by-copy.log").read_bytes() == b"created\n"

    def test_copy_append_plus_creates_missing_file(self, remote, export):
        _, root = export
        f = remote.open_copy("/made-by-copy2.log", "a+")
        f.write(b"z")
        f.close()
        assert (root / "made-by-copy2.log").read_bytes() == b"z"

    def test_copy_append_missing_then_empty_close_creates_empty(self, remote, export):
        _, root = export
        f = remote.open_copy("/empty-append.log", "a")
        f.close()
        assert (root / "empty-append.log").read_bytes() == b""

    def test_read_modes_still_raise_on_missing(self, remote):
        with pytest.raises(FileNotFoundError):
            remote.open_proxy("/nope", "r")
        with pytest.raises(FileNotFoundError):
            remote.open_copy("/nope", "r")


class TestBulkTransfers:
    def test_fetch_detects_short_copy(self, export, tmp_path):
        server, root = export
        client = GridFtpClient(*server.address, block_size=BLOCK)

        # Shrink the file right after the head block's reply reports its
        # size: that size is then past the end, and the copy must not
        # silently return the full total.
        real_head = client.read_block_ex

        def head_then_shrink(path, offset, length):
            reply = real_head(path, offset, length)
            (root / "data.bin").write_bytes(PATTERN[: 8 * BLOCK + 5])
            return reply

        client.read_block_ex = head_then_shrink
        with pytest.raises(IOError, match="short fetch") as excinfo:
            client.fetch_file("/data.bin", tmp_path / "short.bin")
        assert excinfo.value.copied == 8 * BLOCK + 5
        client.close()

    def test_parallel_store_roundtrip(self, export, tmp_path):
        server, root = export
        payload = bytes((i * 7) % 256 for i in range(300_000))
        src = tmp_path / "upload.bin"
        src.write_bytes(payload)
        with GridFtpClient(*server.address, block_size=8192) as client:
            n = client.store_file(src, "/incoming/upload.bin")
        assert n == len(payload)
        stored = (root / "incoming" / "upload.bin").read_bytes()
        assert hashlib.sha256(stored).hexdigest() == hashlib.sha256(payload).hexdigest()

    def test_parallel_store_overwrites_longer_file(self, export, tmp_path):
        server, root = export
        (root / "big-old.bin").write_bytes(b"\xff" * 500_000)
        payload = bytes(i % 251 for i in range(100_000))
        src = tmp_path / "new.bin"
        src.write_bytes(payload)
        with GridFtpClient(*server.address, block_size=4096) as client:
            client.store_file(src, "/big-old.bin")
        assert (root / "big-old.bin").read_bytes() == payload

    def test_lone_stream_copies_inline_and_truncates_with_its_first_block(
        self, export, tmp_path
    ):
        """A store over a longer file costs one ``put_block`` per block,
        counted at the server: the first one truncates, so a COPY close
        pays no extra round trip, and it lands before any other put
        starts (the server runs pipelined puts concurrently, so a late
        truncate would wipe blocks already written)."""
        server, root = export
        (root / "old.bin").write_bytes(b"\xff" * (8 * BLOCK))
        src = tmp_path / "new.bin"
        src.write_bytes(PATTERN[: 3 * BLOCK + 5])
        kind, put_block = server._rpc._handlers["put_block"]
        events = []

        def counting(header, payload):
            events.append(("start", header["offset"], bool(header.get("truncate"))))
            try:
                return put_block(header, payload)
            finally:
                events.append(("end", header["offset"], bool(header.get("truncate"))))

        server._rpc._handlers["put_block"] = (kind, counting)
        client = GridFtpClient(*server.address, block_size=BLOCK)
        try:
            assert client.store_file(src, "/old.bin") == 3 * BLOCK + 5
            assert client.fetch_file("/old.bin", tmp_path / "back.bin") == 3 * BLOCK + 5
        finally:
            client.close()
        assert events[:2] == [("start", 0, True), ("end", 0, True)]
        starts = sorted(e[1:] for e in events if e[0] == "start")
        assert starts == [(0, True), (BLOCK, False), (2 * BLOCK, False), (3 * BLOCK, False)]
        assert (root / "old.bin").read_bytes() == PATTERN[: 3 * BLOCK + 5]
        assert (tmp_path / "back.bin").read_bytes() == PATTERN[: 3 * BLOCK + 5]

    def test_store_empty_file(self, export, tmp_path):
        server, root = export
        src = tmp_path / "empty.bin"
        src.write_bytes(b"")
        with GridFtpClient(*server.address) as client:
            assert client.store_file(src, "/empty.out") == 0
        assert (root / "empty.out").read_bytes() == b""
