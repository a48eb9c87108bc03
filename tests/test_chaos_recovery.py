"""End-to-end failure recovery under seeded fault injection.

The chaos run drives all six IO modes while the injector kills
connections at every layer, one replica host dies outright, and the
Grid Buffer front end restarts mid-stream — outputs must still be
byte-identical and the recovery work must be visible in ``repro.obs``.
"""

import hashlib
import random
import threading
import time

import pytest

from repro import faults, obs
from repro.core.multiplexer import FileMultiplexer, GridContext
from repro.core.replica import NoReplicaError, ReplicaSelector
from repro.faults import FaultRule
from repro.gns.client import LocalGnsClient
from repro.gns.records import BufferEndpoint, GnsRecord, IOMode
from repro.gns.server import NameService
from repro.grid.replica_catalog import Replica, ReplicaCatalog
from repro.gridbuffer import client as gbc
from repro.gridbuffer.client import GridBufferClient
from repro.gridbuffer.server import GridBufferServer
from repro.gridbuffer.service import GridBufferService
from repro.transport.gridftp import (
    DEFAULT_BLOCK,
    WINDOW_BLOCKS,
    GridFtpClient,
    GridFtpServer,
    TransferError,
)
from repro.transport.tcp import IDEMPOTENT_OPS, PoolTimeout, RetryPolicy, RpcError
from repro.transport.inmem import HostRegistry

from ._run import run
from ._seed import SEED

pytestmark = pytest.mark.faults


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with no injector armed."""
    faults.disarm()
    yield
    faults.disarm()


def _counter(name, labels=None):
    if labels is not None:
        return obs.value(name, labels) or 0.0
    # No labels: total the family across all label series.
    family = obs.snapshot().get(name)
    if not family:
        return 0.0
    total = 0.0
    for series in family["series"]:
        value = series["value"]
        total += value["count"] if isinstance(value, dict) else value
    return total


# ---------------------------------------------------------------------------
# Unit: retry backoff timing
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(retries=5, base=0.05, multiplier=2.0, max_delay=0.3, jitter=0.0)
        rng = random.Random(SEED)
        delays = [policy.backoff(attempt, rng) for attempt in range(1, 6)]
        assert delays[:3] == [0.05, 0.1, 0.2]
        assert delays[3] == delays[4] == 0.3  # capped

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base=0.1, multiplier=2.0, max_delay=10.0, jitter=0.25)
        rng = random.Random(SEED)
        for attempt in range(1, 5):
            base = min(10.0, 0.1 * 2.0 ** (attempt - 1))
            for _ in range(20):
                d = policy.backoff(attempt, rng)
                assert base <= d <= base * 1.25

    def test_idempotency_table_covers_reads_not_writes(self):
        assert "gb.read_multi" in IDEMPOTENT_OPS
        assert "get_block" in IDEMPOTENT_OPS
        # bare gb.write is not blanket-retryable; it retries only when
        # the caller attaches a dedupe token (retryable=True per call).
        assert "gb.write" not in IDEMPOTENT_OPS
        assert "gb.write_multi" not in IDEMPOTENT_OPS


# ---------------------------------------------------------------------------
# Unit: write replay dedupe (the token/seq idempotency table)
# ---------------------------------------------------------------------------
class TestWriteDedupe:
    def test_replayed_write_is_skipped(self):
        svc = GridBufferService()
        svc.create_stream("s", n_readers=1)
        svc.register_reader("s", "r")
        run(svc.write_async("s", 0, b"abc", token="tok", seq=0))
        run(svc.write_async("s", 0, b"abc", token="tok", seq=0))  # retry replay
        run(svc.write_async("s", 3, b"def", token="tok", seq=1))
        svc.close_writer("s")
        assert run(svc.read_async("s", "r", 0, 64, timeout=1.0)) == b"abcdef"
        assert svc.stats("s").bytes_written == 6  # replay not double-counted

    def test_replayed_write_multi_is_skipped(self):
        svc = GridBufferService()
        svc.create_stream("s", n_readers=1)
        svc.register_reader("s", "r")
        runs = [(0, b"ab"), (2, b"cd")]
        written, _ = run(svc.write_multi_async("s", runs, token="tok", seq=0))
        assert written == 4
        replay_written, _ = run(svc.write_multi_async("s", runs, token="tok", seq=0))
        svc.close_writer("s")
        assert run(svc.read_async("s", "r", 0, 64, timeout=1.0)) == b"abcd"
        assert svc.stats("s").bytes_written == 4
        assert replay_written == 0 or replay_written == 4  # reply, not re-apply

    def test_batch_landing_after_a_later_one_is_stored_and_replays_are_not(self):
        """Dedupe is exact, not a high-water mark: batch 1 arriving after
        batch 2 (a pipelined writer's retry) must still land."""
        svc = GridBufferService()
        svc.create_stream("s", n_readers=1)
        svc.register_reader("s", "r")
        run(svc.write_async("s", 3, b"def", token="tok", seq=2))
        run(svc.write_multi_async("s", [(0, b"a"), (1, b"bc")], token="tok", seq=1))
        run(svc.write_async("s", 3, b"def", token="tok", seq=2))  # replays of either
        run(svc.write_multi_async("s", [(0, b"a"), (1, b"bc")], token="tok", seq=1))
        assert svc.stats("s").bytes_written == 6
        svc.close_writer("s")
        assert run(svc.read_async("s", "r", 0, 64, timeout=1.0)) == b"abcdef"

    def test_retried_write_through_injected_close_lands_once(self, buffer_server):
        host, port = buffer_server.address
        client = GridBufferClient(host, port)
        client.create_stream("dedupe", n_readers=1)
        client.register_reader("dedupe", "r")
        # Kill the connection on the first write attempt; the retry must
        # not double-apply the block.
        with faults.injected(
            FaultRule(layer="rpc.client", op="gb.write", action="close", nth=1),
            seed=SEED,
        ):
            client.write("dedupe", 0, b"exactly-once")
        client.close_writer("dedupe")
        assert client.read_window_ex("dedupe", "r", 0, 64, timeout=2.0)[0] == b"exactly-once"
        assert client.stats("dedupe")["bytes_written"] == len(b"exactly-once")
        client.close()


# ---------------------------------------------------------------------------
# Unit: reader connection recovery + resume offset
# ---------------------------------------------------------------------------
class TestReaderResume:
    def test_reader_resumes_at_offset_after_connection_death(self, buffer_server):
        host, port = buffer_server.address
        writer_client = GridBufferClient(host, port)
        payload = bytes(random.Random(SEED).randbytes(64 * 1024))
        with writer_client.open_writer("resume-stream", n_readers=1, cache=True) as w:
            w.write(payload)
        resumes_before = _counter(
            "buffer_reader_resumes_total", {"stream": "resume-stream"}
        )
        reader_client = GridBufferClient(host, port)
        reader = reader_client.open_reader("resume-stream", reader_id="r1")
        # A fresh seek leaves the window idle, so the next read is the
        # window's inline head fetch — the call the fault rule kills.
        start = reader.seek(16 * 1024)
        got = b""
        # Exhaust every retry attempt (1 original + 3 retries) so the
        # failure reaches the reader's own recovery layer.
        with faults.injected(
            FaultRule(
                layer="rpc.client", op="gb.read_multi", action="close", nth=1, times=4
            ),
            seed=SEED,
        ):
            while start + len(got) < len(payload):
                chunk = reader.read(16 * 1024)
                if not chunk:
                    break
                got += chunk
        reader.close()
        assert got == payload[start:]  # resumed exactly at the pre-failure offset
        resumes_after = _counter(
            "buffer_reader_resumes_total", {"stream": "resume-stream"}
        )
        assert resumes_after > resumes_before
        writer_client.close()
        reader_client.close()

    def test_recovery_never_resurrects_a_dropped_stream(self, buffer_server):
        """A reader's open creates its stream; its recovery only
        re-registers, so a stream dropped under it stays dropped."""
        from repro.core.buffer_client import GridBufferClientPool

        pool = GridBufferClientPool("m")
        endpoint = BufferEndpoint(stream="dropped", cache=True)
        payload = bytes(random.Random(SEED + 3).randbytes(32 * 1024))
        try:
            with pool.open_writer(endpoint, buffer_server.address) as w:
                w.write(payload)
            r = pool.open_reader(endpoint, buffer_server.address, read_timeout=5)
            assert r.read(4096) == payload[:4096]
            admin = GridBufferClient(*buffer_server.address)
            admin.drop_stream("dropped")
            admin.close()
            buffer_server.restart()
            r.seek(0)  # an idle window: the next read is the head fetch
            resumes = _counter("buffer_reader_resumes_total", {"stream": "dropped"})
            # Kill the head fetch past the transport's retries, so the
            # reader's own recovery runs and re-registers.
            with faults.injected(
                FaultRule(
                    layer="rpc.client", op="gb.read_multi", action="close", nth=1, times=4
                ),
                seed=SEED,
            ):
                with pytest.raises(RpcError, match="unknown stream"):
                    r.read(4096)
            assert _counter("buffer_reader_resumes_total", {"stream": "dropped"}) > resumes
            assert not buffer_server.service.exists("dropped")
            r.close()
        finally:
            pool.close()

    CHUNK = 16 * 1024

    def _park_window(self, buffer_server, name, cache=True):
        """A stream with its writer open and a depth-4 window parked.

        The writer lands ``[0, 64K)`` and stays open; the reader consumes
        those four chunks, which doubles its window to depth 4, and every
        window fetch then parks server-side on bytes not yet written.
        Returns ``(writer, reader, reader_client, writer_client, payload)``.
        """
        host, port = buffer_server.address
        payload = bytes(random.Random(SEED + 2).randbytes(16 * self.CHUNK))
        writer_client = GridBufferClient(host, port)
        w = writer_client.open_writer(name, n_readers=1, cache=cache)
        w.write(payload[: 4 * self.CHUNK])
        w.flush()
        reader_client = GridBufferClient(host, port)
        r = reader_client.open_reader(
            name, reader_id="r1", read_ahead_bytes=self.CHUNK, read_ahead_depth=4
        )
        for i in range(4):
            assert r.read(self.CHUNK) == payload[i * self.CHUNK : (i + 1) * self.CHUNK]
        stream = buffer_server.service._stream(name)
        deadline = time.monotonic() + 5.0
        while len(stream.async_readers) < 4:
            assert time.monotonic() < deadline, "window never parked 4 fetches"
            time.sleep(0.01)
        return w, r, reader_client, writer_client, payload

    @staticmethod
    def _drain_watched(reader, want, chunk):
        """Read ``want`` bytes on a thread the caller joins with a timeout.

        A hang then fails the test in seconds, naming the stuck offset,
        instead of riding out the suite's per-test ceiling.
        """
        got = bytearray()
        errors = []

        def drain():
            try:
                while len(got) < want:
                    data = reader.read(chunk)
                    if not data:
                        break
                    got.extend(data)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        t = threading.Thread(target=drain, name="drain", daemon=True)
        t.start()
        return t, got, errors

    def test_window_fetch_resumes_after_retries_are_exhausted(self, buffer_server):
        """The transport gives up on a *window* fetch, not the head fetch:
        the reader must recover it exactly like any other fetch."""
        self._resume_exhausted_window_fetch(buffer_server, "window-resume", cache=True)

    def test_window_fetch_resume_keeps_landed_spans_without_cache_file(self, buffer_server):
        """The same failure on a stream with no cache file: spans that
        landed past the failed fetch were consumed server-side, so the
        recovery must deliver them rather than re-fetch them."""
        self._resume_exhausted_window_fetch(buffer_server, "window-resume-nocache", cache=False)

    def _resume_exhausted_window_fetch(self, buffer_server, name, cache):
        """Fail the window's fetch at 128K, land the spans after it, then
        read on through the failure under the drain watchdog."""
        chunk = self.CHUNK
        w, r, reader_client, writer_client, payload = self._park_window(
            buffer_server, name, cache=cache
        )
        before = _counter("buffer_reader_resumes_total", {"stream": name})
        window = r._ra

        def settle(done, what):
            deadline = time.monotonic() + 5.0
            while True:
                with window._cv:
                    if done():
                        return
                assert time.monotonic() < deadline, what
                time.sleep(0.01)

        try:
            # The four parked fetches were sent before arming, so the next
            # gb.read_multi on the wire is the window's fresh fetch at 128K.
            # Its connection dies under it, and with it the fetches parked
            # on the same connection: every attempt of every one of them
            # (1 + 3 transport retries) dies until the rule is disarmed.
            with faults.injected(
                FaultRule(layer="rpc.client", op="gb.read_multi", action="close", nth=1, times=0),
                seed=SEED,
            ):
                w.write(payload[4 * chunk : 5 * chunk])  # releases the 64K fetch
                w.flush()
                assert r.read(chunk) == payload[4 * chunk : 5 * chunk]
                settle(lambda: 8 * chunk in window._errors, "the 128K fetch never failed")
            for i in range(5, 16):  # one server-side block per chunk: GC frees each
                w.write(payload[i * chunk : (i + 1) * chunk])
                w.flush()
            w.close()
            # Step up to the failed offset, letting every fetch the window
            # schedules land first: the spans past 128K are landed (and, on
            # a stream without a cache file, gone server-side) by then.
            for i in (5, 6, 7):
                settle(lambda: not window._inflight, "a window fetch never landed")
                assert r.read(chunk) == payload[i * chunk : (i + 1) * chunk]
            settle(
                lambda: not window._inflight and max(window._results, default=0) > 8 * chunk,
                "no span landed past the failed fetch",
            )
            t, got, errors = self._drain_watched(r, len(payload) - 8 * chunk, chunk)
            t.join(10.0)
            assert not t.is_alive(), f"reader hung at offset {r.tell()}"
            assert errors == []
            assert bytes(got) == payload[8 * chunk :]
            assert _counter("buffer_reader_resumes_total", {"stream": name}) > before
        finally:
            r.close()
            reader_client.close()
            writer_client.close()

    def test_recovery_leaves_healthy_fetches_in_flight(self, buffer_server):
        """Recovery must not cut off a fetch that is still healthy: on a
        stream without a cache file, bytes the server sends to a socket
        the client just shut down are gone for good."""
        name = "recover-parked"
        chunk = self.CHUNK
        w, r, reader_client, writer_client, payload = self._park_window(
            buffer_server, name, cache=False
        )
        try:
            parked = set(r._ra._inflight)
            assert len(parked) == 4
            r._recover(ConnectionError("the head fetch's connection died"))
            time.sleep(0.1)  # a shut-down socket would have failed its fetch by now
            assert set(r._ra._inflight) == parked
            t, got, errors = self._drain_watched(r, len(payload) - 4 * chunk, chunk)
            for i in range(4, 16):
                w.write(payload[i * chunk : (i + 1) * chunk])
                w.flush()
            w.close()
            t.join(10.0)
            assert not t.is_alive(), f"reader hung at offset {r.tell()}"
            assert errors == []
            assert bytes(got) == payload[4 * chunk :]
        finally:
            r.close()
            reader_client.close()
            writer_client.close()

    def test_restart_while_window_fetches_are_parked(self, buffer_server):
        """The chaos run's Grid Buffer restart, in isolation."""
        name = "window-restart"
        w, r, reader_client, writer_client, payload = self._park_window(buffer_server, name)
        t, got, errors = self._drain_watched(r, len(payload) - 4 * self.CHUNK, self.CHUNK)
        buffer_server.restart()
        w.write(payload[4 * self.CHUNK :])
        w.close()
        t.join(10.0)
        try:
            assert not t.is_alive(), f"reader hung at offset {r.tell()}"
            assert errors == []
            assert bytes(got) == payload[4 * self.CHUNK :]
        finally:
            r.close()
            reader_client.close()
            writer_client.close()

    def test_silent_connection_reaches_recovery_within_its_bound(
        self, buffer_server, monkeypatch
    ):
        """A server that never answers: every transport attempt ends at
        the socket timeout ``read_timeout + _DEADLINE_MARGIN``, and then
        the reader recovers — after that many timeouts plus backoff."""
        name = "silent-stream"
        host, port = buffer_server.address
        payload = bytes(random.Random(SEED + 3).randbytes(4 * self.CHUNK))
        writer_client = GridBufferClient(host, port)
        with writer_client.open_writer(name, n_readers=1, cache=True) as w:
            w.write(payload)
        read_timeout, margin = 0.3, 0.2
        monkeypatch.setattr(gbc, "_DEADLINE_MARGIN", margin)
        reader_client = GridBufferClient(host, port)
        r = reader_client.open_reader(
            name, reader_id="r1", read_timeout=read_timeout, read_ahead_bytes=self.CHUNK
        )
        recoveries = []
        recover = r._recover

        def recover_and_unmute(exc):
            recoveries.append((time.monotonic(), exc))
            faults.disarm()  # the server answers the retry
            recover(exc)

        monkeypatch.setattr(r, "_recover", recover_and_unmute)
        policy = RetryPolicy()
        attempts = 1 + policy.retries
        backoff = sum(
            min(policy.max_delay, policy.base * policy.multiplier ** (n - 1)) * (1 + policy.jitter)
            for n in range(1, attempts)
        )
        socket_timeout = read_timeout + margin
        # The server sits on every gb.read_multi far past the socket timeout.
        faults.arm(
            [FaultRule(layer="rpc.server", op="gb.read_multi", action="delay", delay=3.0, times=0)],
            seed=SEED,
        )
        t0 = time.monotonic()
        try:
            assert r.read(self.CHUNK) == payload[: self.CHUNK]
            assert len(recoveries) == 1
            at, exc = recoveries[0]
            assert isinstance(exc, TimeoutError)
            assert attempts * socket_timeout <= at - t0 <= attempts * socket_timeout + backoff + 1.0
            assert r.read() == payload[self.CHUNK :]
        finally:
            r.close()
            reader_client.close()
            writer_client.close()

    def test_recreated_stream_moves_the_reader_to_the_new_generation(self, buffer_server):
        """The stream is dropped and re-created under a reader with other
        bytes: its next fetch is "not registered", and recovery rebinds
        the window to the new generation, so every byte read after it
        belongs to the new incarnation."""
        name, chunk = "regen-stream", self.CHUNK
        host, port = buffer_server.address
        rng = random.Random(SEED + 5)
        old, new = rng.randbytes(4 * chunk), rng.randbytes(8 * chunk)
        writer_client = GridBufferClient(host, port)
        with writer_client.open_writer(name, n_readers=1, cache=True) as w:
            w.write(old)
        reader_client = GridBufferClient(host, port)
        r = reader_client.open_reader(
            name, reader_id="r1", read_ahead_bytes=chunk, read_ahead_depth=1
        )
        before = _counter("buffer_reader_resumes_total", {"stream": name})
        try:
            assert r.read(chunk) == old[:chunk]
            deadline = time.monotonic() + 5.0
            while r._ra._inflight or not r._ra._results:  # the prefetch of [16K, 32K)
                assert time.monotonic() < deadline, "the window never prefetched"
                time.sleep(0.01)
            old_gen = r._gen
            writer_client.drop_stream(name)
            with writer_client.open_writer(name, n_readers=1, cache=True) as w:
                w.write(new)
            # Landed before the drop: the old incarnation's, by design.
            assert r.read(chunk) == old[chunk : 2 * chunk]
            assert _counter("buffer_reader_resumes_total", {"stream": name}) == before
            rest = r.read()
            assert _counter("buffer_reader_resumes_total", {"stream": name}) == before + 1
            assert rest == new[2 * chunk :]
            assert r._gen == r._ra._gen == old_gen + 1
        finally:
            r.close()
            reader_client.close()
            writer_client.close()

    def test_pool_exhaustion_is_not_recovered(self, buffer_server):
        """No free connection is the caller's problem, not a dead server:
        redialing would not help, so recovery re-raises it."""
        host, port = buffer_server.address
        client = GridBufferClient(host, port)
        client.create_stream("pool-stream", n_readers=1)
        r = client.open_reader("pool-stream", reader_id="r1")
        before = _counter("buffer_reader_resumes_total", {"stream": "pool-stream"})
        try:
            with pytest.raises(PoolTimeout):
                r._recover(PoolTimeout("no free RPC connection"))
            assert _counter("buffer_reader_resumes_total", {"stream": "pool-stream"}) == before
        finally:
            r.close()
            client.close()


# ---------------------------------------------------------------------------
# Unit: gridftp transfer resume
# ---------------------------------------------------------------------------
class TestTransferResume:
    def test_fetch_resumes_from_reported_offset(self, tmp_path):
        root = tmp_path / "export"
        root.mkdir()
        payload = bytes(random.Random(SEED + 1).randbytes(300_000))
        (root / "big.bin").write_bytes(payload)
        with GridFtpServer(root) as server:
            client = GridFtpClient(*server.address, block_size=32 * 1024)
            dst = tmp_path / "out.bin"
            with faults.injected(
                FaultRule(layer="gridftp", op="get_block", action="error", nth=4),
                seed=SEED,
            ):
                with pytest.raises(TransferError) as excinfo:
                    client.fetch_file("big.bin", dst)
                copied = excinfo.value.copied
                assert 0 < copied < len(payload)
                moved = client.fetch_file("big.bin", dst, resume_from=copied)
            assert moved == len(payload) - copied
            assert dst.read_bytes() == payload
            client.close()

    def test_striped_fetch_resumes_from_reported_offset(self, tmp_path):
        """A window of blocks in flight, the 9th block request fails:
        ``copied`` is the end of the last block landed in order — a good
        prefix — and a windowed resume from there reproduces the file."""
        root = tmp_path / "export"
        root.mkdir()
        payload = bytes(random.Random(SEED + 4).randbytes(1_000_000))
        (root / "big.bin").write_bytes(payload)
        block = 32 * 1024
        with GridFtpServer(root) as server:
            client = GridFtpClient(*server.address, block_size=block)
            dst = tmp_path / "out.bin"
            with faults.injected(
                FaultRule(layer="gridftp", op="get_block", action="error", nth=9),
                seed=SEED,
            ):
                with pytest.raises(TransferError) as excinfo:
                    client.fetch_file("big.bin", dst)
            copied = excinfo.value.copied
            assert 0 < copied < len(payload)
            assert copied % block == 0
            assert dst.read_bytes()[:copied] == payload[:copied]
            moved = client.fetch_file("big.bin", dst, resume_from=copied)
            assert moved == len(payload) - copied
            assert dst.read_bytes() == payload
            client.close()

    def test_failed_copy_in_leaves_no_scratch_file(self, tmp_path):
        """A COPY open whose copy-in dies mid-file raises and unlinks its
        scratch copy rather than leaving ``fm-copy-*`` behind."""
        from repro.core.remote_client import RemoteFileClient

        root = tmp_path / "export"
        root.mkdir()
        (root / "big.bin").write_bytes(random.Random(SEED + 5).randbytes(600_000))
        scratch = tmp_path / "scratch"
        with GridFtpServer(root) as server:
            client = GridFtpClient(*server.address, block_size=64 * 1024)
            remote = RemoteFileClient(client, scratch_dir=scratch)
            with faults.injected(
                FaultRule(layer="gridftp", op="get_block", action="error", nth=3),
                seed=SEED,
            ):
                with pytest.raises(TransferError):
                    remote.open_copy("/big.bin", "r")
            client.close()
        assert list(scratch.iterdir()) == []


# ---------------------------------------------------------------------------
# Integration: a REMOTE write window through a reset connection
# ---------------------------------------------------------------------------
class TestRemoteWriteWindowRetry:
    def test_a_put_reset_at_the_server_is_retried_byte_identical(self, tmp_path):
        """A nine-block REMOTE write through the FM: the server resets the
        connection on one of the window's ``put_block`` requests, every
        put in flight on it fails, and each is retried (``put_block`` is
        idempotent), so the stored file is byte-identical."""
        hosts = HostRegistry(tmp_path / "hosts")
        for name in ("compute", "store"):
            hosts.add_host(name)
        payload = random.Random(SEED + 6).randbytes(8 * 256 * 1024 + 777)
        ns = NameService()
        ns.add(
            GnsRecord(
                machine="compute", path="/job/out.dat", mode=IOMode.REMOTE,
                remote_host="store", remote_path="/out/result.dat",
            )
        )
        server = GridFtpServer(hosts.host("store").root).start()
        fm = FileMultiplexer(
            GridContext(
                machine="compute", gns=LocalGnsClient(ns), hosts=hosts,
                gridftp={"store": server.address}, scratch_dir=tmp_path / "scratch",
            )
        )
        # Put 1 is the open's truncate and put 2 block 0, on the demand
        # connection; the seed picks one of the window's puts after them.
        nth = 3 + SEED % 6
        retries = _counter("rpc_retries_total")
        try:
            rule = FaultRule(layer="rpc.server", op="put_block", action="close", nth=nth)
            with faults.injected(rule, seed=SEED) as injector:
                f = fm.open("/job/out.dat", "w")
                for i in range(0, len(payload), 64 * 1024):
                    f.write(payload[i : i + 64 * 1024])
                f.close()
        finally:
            fm.close()
            server.stop()
        assert [action for *_, action in injector.fired] == ["close"]
        assert _counter("rpc_retries_total") > retries
        assert hosts.host("store").resolve("/out/result.dat").read_bytes() == payload


# ---------------------------------------------------------------------------
# Integration: a deep REMOTE read window through a reset connection
# ---------------------------------------------------------------------------
class TestRemoteReadWindowRetry:
    @pytest.mark.timeout(120)
    def test_a_get_reset_under_a_deep_window_is_retried_byte_identical(self, tmp_path):
        """A 64 MiB REMOTE read through the FM from a 5 ms server: the
        server resets the read-ahead connection on a ``get_block`` while
        more than ``WINDOW_BLOCKS`` blocks are in flight on it.  Every
        block in flight fails and is fetched again, the bytes read are
        identical, and ``close()`` leaves no fetch pending."""
        hosts = HostRegistry(tmp_path / "hosts")
        for name in ("compute", "store"):
            hosts.add_host(name)
        source = hosts.host("store").resolve("/in/big.dat")
        source.parent.mkdir(parents=True)
        rng = random.Random(SEED + 7)
        expected = hashlib.sha256()
        with open(source, "wb") as out:
            for _ in range(64):
                chunk = rng.randbytes(1 << 20)
                out.write(chunk)
                expected.update(chunk)
        ns = NameService()
        ns.add(
            GnsRecord(
                machine="compute", path="/job/in.dat", mode=IOMode.REMOTE,
                remote_host="store", remote_path="/in/big.dat",
            )
        )
        server = GridFtpServer(hosts.host("store").root, simulated_latency=0.005).start()
        fm = FileMultiplexer(
            GridContext(
                machine="compute", gns=LocalGnsClient(ns), hosts=hosts,
                gridftp={"store": server.address}, scratch_dir=tmp_path / "scratch",
            )
        )
        # Request 1 is the open's probe; the seed picks one well into the
        # read, once the window has deepened past its floor.
        nth = 96 + SEED % 64
        at_fault = []
        got = hashlib.sha256()
        try:
            rule = FaultRule(layer="rpc.server", op="get_block", action="close", nth=nth)
            with faults.injected(rule, seed=SEED) as injector:
                f = fm.open("/job/in.dat", "r")
                proxy = f._inner
                fire = injector.fire_async

                async def watching(layer, op, peer):
                    verdict = await fire(layer, op, peer)
                    if verdict == "close":
                        at_fault.append(len(proxy._prefetcher._inflight))
                    return verdict

                injector.fire_async = watching
                while chunk := f.read(DEFAULT_BLOCK):
                    got.update(chunk)
                prefetcher = proxy._prefetcher
                f.close()
        finally:
            fm.close()
            server.stop()
        assert [action for *_, action in injector.fired] == ["close"]
        assert len(at_fault) == 1 and at_fault[0] > WINDOW_BLOCKS, at_fault
        assert got.hexdigest() == expected.hexdigest()
        assert prefetcher._inflight == {}


# ---------------------------------------------------------------------------
# Integration: stage crash aborts its streams; readers fail fast
# ---------------------------------------------------------------------------
class TestStageCrashAbort:
    @pytest.mark.timeout(60)
    def test_writer_crash_fails_reader_fast(self):
        from repro.workflow.runner import RealRunner
        from repro.workflow.scheduler import plan_workflow
        from repro.workflow.spec import FileUse, Stage, Workflow

        def producer(io):
            fh = io.open("feed.bin", "wb")
            fh.write(b"x" * 4096)
            fh.flush()
            raise RuntimeError("simulated stage crash")

        def consumer(io):
            with io.open("feed.bin", "rb") as fh:
                while fh.read(1024):
                    pass

        wf = Workflow(
            "chaos-abort",
            [
                Stage("produce", writes=(FileUse("feed.bin"),), func=producer),
                Stage("consume", reads=(FileUse("feed.bin"),), func=consumer),
            ],
        )
        plan = plan_workflow(
            wf, {"produce": "m1", "consume": "m2"}, coupling={"feed.bin": "buffer"}
        )
        runner = RealRunner(plan, stage_timeout=30.0)
        t0 = time.monotonic()
        result = runner.run()
        elapsed = time.monotonic() - t0
        runner.deployment.stop()
        assert "produce" in result.errors
        assert "consume" in result.errors  # saw StreamFailed, did not hang
        assert elapsed < 25.0, "reader must fail fast, not ride out its timeout"


# ---------------------------------------------------------------------------
# The chaos six-modes run
# ---------------------------------------------------------------------------
@pytest.fixture()
def chaos_world(tmp_path):
    hosts = HostRegistry(tmp_path / "hosts")
    for name in ("compute", "store1", "store2"):
        hosts.add_host(name)

    rng = random.Random(SEED)
    source = bytes(rng.randbytes(96 * 1024))
    replica_payload = bytes(rng.randbytes(640 * 1024))
    stream_payload = bytes(rng.randbytes(192 * 1024))

    # Non-replicated inputs live on store2: store1 is the host the
    # chaos run kills, so only failover-capable paths may depend on it.
    src = hosts.host("store2").resolve("/in/source.dat")
    src.parent.mkdir(parents=True, exist_ok=True)
    src.write_bytes(source)
    for host in ("store1", "store2"):  # replicas are byte-identical
        p = hosts.host(host).resolve("/replicas/big.dat")
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(replica_payload)

    servers = {
        name: GridFtpServer(hosts.host(name).root).start()
        for name in ("compute", "store1", "store2")
    }
    buffer_server = GridBufferServer(cache_dir=tmp_path / "cache").start()

    catalog = ReplicaCatalog()
    catalog.register("lfn://big", Replica("store1", "/replicas/big.dat", size=len(replica_payload)))
    catalog.register("lfn://big", Replica("store2", "/replicas/big.dat", size=len(replica_payload)))
    # Static costs prefer store1 — the host the chaos run kills.
    selector = ReplicaSelector(
        catalog, static_cost=lambda s, d: 1.0 if s == "store1" else 2.0
    )

    ns = NameService(locate_buffer_server=lambda m: buffer_server.address)
    ns.add_all(
        [
            GnsRecord(
                machine="compute", path="/job/remote-in.dat", mode=IOMode.REMOTE,
                remote_host="store2", remote_path="/in/source.dat",
            ),
            GnsRecord(
                machine="compute", path="/job/copied-in.dat", mode=IOMode.COPY,
                remote_host="store2", remote_path="/in/source.dat",
            ),
            GnsRecord(
                machine="compute", path="/job/replica-remote.dat",
                mode=IOMode.REMOTE_REPLICA, logical_name="lfn://big",
            ),
            GnsRecord(
                machine="compute", path="/job/replica-local.dat",
                mode=IOMode.LOCAL_REPLICA, logical_name="lfn://big",
                local_path="/cache/big.dat",
            ),
            GnsRecord(
                machine="*", path="/job/stream.dat", mode=IOMode.BUFFER,
                buffer=BufferEndpoint(stream="chaos-stream", cache=True),
            ),
            # A stream whose buffer endpoint is dead on arrival: the
            # fallback chain degrades it to COPY via store2.
            GnsRecord(
                machine="*", path="/job/degraded.dat", mode=IOMode.BUFFER,
                buffer=BufferEndpoint(stream="dead-stream", host="127.0.0.1", port=1),
                fallback=GnsRecord(
                    machine="*", path="/job/degraded.dat", mode=IOMode.COPY,
                    remote_host="store2", remote_path="/handoff/degraded.dat",
                ),
            ),
        ]
    )
    gns = LocalGnsClient(ns)

    def ctx(machine):
        return GridContext(
            machine=machine,
            gns=gns,
            hosts=hosts,
            gridftp={name: s.address for name, s in servers.items()},
            buffer_locator=lambda m: buffer_server.address,
            selector=selector,
            scratch_dir=tmp_path / "scratch",
            io_timeout=30.0,
            prefetch=False,  # deterministic per-op fault counting
        )

    fms = {name: FileMultiplexer(ctx(name)) for name in ("compute", "store2")}
    world = {
        "fms": fms,
        "hosts": hosts,
        "servers": servers,
        "buffer_server": buffer_server,
        "payloads": {
            "source": source,
            "replica": replica_payload,
            "stream": stream_payload,
        },
    }
    yield world
    for fm in fms.values():
        fm.close()
    for s in servers.values():
        s.stop()
    buffer_server.stop()


class TestChaosSixModes:
    @pytest.mark.timeout(120)
    def test_all_modes_survive_seeded_faults(self, chaos_world):
        fm = chaos_world["fms"]["compute"]
        fm_store2 = chaos_world["fms"]["store2"]
        payloads = chaos_world["payloads"]
        before = {
            "injected": _counter("fault_injected_total"),
            "retries": _counter("rpc_retries_total"),
            "failovers": _counter("replica_failovers_total"),
            "degraded": _counter("fm_mode_degraded_total"),
        }

        # Deterministic chaos across every layer: connection closes on
        # the client transport, an injected failure at the GridFTP layer
        # (lands in mode 4, whose handle fails over), and a service-side
        # delay in the Grid Buffer.  On top of the rules, store1 dies
        # outright after mode 4 and the GB front end restarts mid-stream.
        rules = [
            FaultRule(layer="rpc.client", op="get_block", action="close", nth=3),
            FaultRule(layer="rpc.client", op="gb.write*", action="close", nth=2),
            FaultRule(layer="rpc.client", op="gb.read*", action="close", nth=4),
            FaultRule(layer="gb.service", op="read", action="delay", nth=2, delay=0.02),
            FaultRule(layer="gridftp", op="get_block", peer="store1", action="error", nth=2),
        ]
        modes_used = []
        with faults.injected(*rules, seed=SEED) as injector:
            # 1. LOCAL
            f = fm.open("/job/local.dat", "w")
            modes_used.append(f.io_mode)
            f.write(payloads["source"][:1024])
            f.close()
            f = fm.open("/job/local.dat", "r")
            assert f.read() == payloads["source"][:1024]
            f.close()

            # 2. COPY (store2 -> compute) through dropped connections.
            f = fm.open("/job/copied-in.dat", "r")
            modes_used.append(f.io_mode)
            assert f.read() == payloads["source"]
            f.close()

            # 3. REMOTE proxy reads through dropped connections.
            f = fm.open("/job/remote-in.dat", "r")
            modes_used.append(f.io_mode)
            assert f.read() == payloads["source"]
            f.close()

            # 4. REMOTE_REPLICA: store1 (the preferred source) dies
            # mid-read; the handle must fail over and keep its offset.
            f = fm.open("/job/replica-remote.dat", "r")
            modes_used.append(f.io_mode)
            got = f.read(64 * 1024)
            chaos_world["servers"]["store1"].stop()
            chaos_world["servers"]["store1"].disconnect_all()
            while True:
                chunk = f.read(64 * 1024)
                if not chunk:
                    break
                got += chunk
            f.close()
            assert got == payloads["replica"]
            assert f.stats.failovers >= 1

            # 5. LOCAL_REPLICA: store1 is already dead, so the copy-in
            # must come from store2 (selection skips the dead source
            # after the first failed attempt).
            f = fm.open("/job/replica-local.dat", "r")
            modes_used.append(f.io_mode)
            assert f.read() == payloads["replica"]
            f.close()

            # 6. BUFFER: restart the Grid Buffer front end mid-stream.
            stream = payloads["stream"]
            wrote = threading.Event()

            def produce():
                w = fm_store2.open("/job/stream.dat", "w")
                half = len(stream) // 2
                w.write(stream[:half])
                w.flush()
                wrote.set()
                w.write(stream[half:])
                w.close()

            t = threading.Thread(target=produce, daemon=True)
            t.start()
            r = fm.open("/job/stream.dat", "r")
            modes_used.append(r.io_mode)
            got = r.read(32 * 1024)
            wrote.wait(timeout=10)
            chaos_world["buffer_server"].restart()
            while len(got) < len(stream):
                chunk = r.read(32 * 1024)
                if not chunk:
                    break
                got += chunk
            r.close()
            t.join(timeout=15)
            assert not t.is_alive(), "producer must survive the restart"
            assert got == stream

            # Degraded stream: BUFFER endpoint dead -> COPY fallback.
            w = fm_store2.open("/job/degraded.dat", "w")
            w.write(b"degraded-payload")
            w.close()
            f = fm.open("/job/degraded.dat", "r")
            assert f.read() == b"degraded-payload"
            assert f.stats.io_mode == IOMode.COPY.value
            assert f.stats.remaps >= 1
            f.close()

            fired_layers = {layer for layer, _, _, _ in injector.fired}
            assert {"rpc.client", "gb.service", "gridftp"} <= fired_layers

        assert set(modes_used) == set(IOMode), "all six IO modes must run"

        # Recovery work is visible in one obs snapshot.
        assert _counter("fault_injected_total") > before["injected"]
        assert _counter("rpc_retries_total") > before["retries"]
        assert _counter("replica_failovers_total") > before["failovers"]
        assert _counter("fm_mode_degraded_total") > before["degraded"]
        assert (
            obs.value("fm_mode_degraded_total", {"from_mode": "buffer", "to_mode": "copy"})
            or 0
        ) > 0


class TestExcludeSelection:
    def test_rank_skips_excluded_and_raises_when_exhausted(self):
        catalog = ReplicaCatalog()
        catalog.register("lfn://x", Replica("h1", "/a", size=10))
        catalog.register("lfn://x", Replica("h2", "/b", size=10))
        selector = ReplicaSelector(catalog, static_cost=lambda s, d: 1.0)
        ranked = selector.rank("lfn://x", "dst", exclude={("h1", "/a")})
        assert [c.replica.host for c in ranked] == ["h2"]
        with pytest.raises(NoReplicaError):
            selector.best("lfn://x", "dst", exclude={("h1", "/a"), ("h2", "/b")})
