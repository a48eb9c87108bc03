"""No thread per open file or transfer: REMOTE read-ahead and
write-behind, GridFTP bulk copies and the BUFFER writer's flush deadline
run on the engine loop.

A REMOTE proxy's prefetches are ``get_block`` futures pipelined on one
connection per prefetcher, its writes after the first block are
``put_block`` futures on one connection per handle, a bulk copy's
blocks are ``get_block`` / ``put_block`` futures on one connection per
transfer, and a writer's flush deadline is a timer on the loop, so many
open files cost connections, not threads.  The timer runs on the loop that resolves the
writer's replies: it must never wait for one, or every stream on the
engine stalls behind a full window.
"""

import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import wait
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.core.remote_client import RemoteFileClient
from repro.faults import FaultRule
from repro.gridbuffer.client import GridBufferClient
from repro.transport import aio
from repro.transport.gridftp import GridFtpClient, GridFtpServer, TransferError

from ._seed import SEED

KIB = 1024
BLOCK = 1024
N = 64


def _warm_handler_pool() -> None:
    """Grow the engine's handler pool to its fixed size first: GridFTP's
    third-party copy runs on it, and its threads exist per process, not
    per file."""
    engine = aio.get_engine()
    wait([engine.executor.submit(time.sleep, 0.05) for _ in range(aio._EXECUTOR_WORKERS)])


def _exit_without_closing(script: str) -> None:
    """Run ``script`` in a fresh interpreter; it must print "leaving"
    and exit cleanly, whatever it left open."""
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "leaving\n"


class TestThreadBudget:
    def test_remote_proxies_and_buffer_writers_add_at_most_two_threads(
        self, tmp_path, buffer_server
    ):
        """64 REMOTE proxies read from block 0, so each has prefetches in
        flight, plus 64 BUFFER writers holding bytes under a
        flush deadline: together they add at most two threads, and each
        prefetcher holds one connection."""
        root = tmp_path / "export"
        root.mkdir()
        payloads = {}
        for i in range(N):
            payloads[i] = bytes([i]) * (8 * BLOCK)
            (root / f"f{i}.bin").write_bytes(payloads[i])
        ftp_server = GridFtpServer(root, simulated_latency=0.002).start()
        ftp = GridFtpClient(*ftp_server.address, block_size=BLOCK)
        remote = RemoteFileClient(ftp)
        gb = GridBufferClient(*buffer_server.address)
        proxies, writers = [], []
        _warm_handler_pool()
        baseline = threading.active_count()
        most = 0
        try:
            for i in range(N):
                f = remote.open_proxy(f"/f{i}.bin", "r", block_size=BLOCK)
                assert f.read(2 * BLOCK) == payloads[i][: 2 * BLOCK]
                assert f._prefetcher is not None, "a read at block 0 never engaged it"
                proxies.append(f)
                most = max(most, threading.active_count() - baseline)
            for i in range(N):
                w = gb.open_writer(f"held-{i}", flush_after=30.0)
                w.write(b"h" * 100)  # stays pending until the deadline
                writers.append(w)
                most = max(most, threading.active_count() - baseline)
            assert all(w._coalescer.pending_bytes == 100 for w in writers)
            assert most <= 2, f"{most} new threads for {N} proxies and {N} writers"
            # One connection per prefetcher, plus the demand connection.
            with ftp_server._rpc._writers_lock:
                connections = len(ftp_server._rpc._writers)
            assert connections == N + 1
            for i, f in enumerate(proxies):
                assert f.read() == payloads[i][2 * BLOCK :]
        finally:
            for f in proxies:
                f.close()
            for w in writers:
                w.close()
            gb.close()
            ftp.close()
            ftp_server.stop()


    def test_remote_writers_with_puts_in_flight_add_at_most_two_threads(self, tmp_path):
        """64 REMOTE writers each leave puts in flight behind their first
        block: together they add at most two threads, and each holds one
        connection for its window."""
        root = tmp_path / "export"
        root.mkdir()
        ftp_server = GridFtpServer(root, simulated_latency=0.02).start()
        ftp = GridFtpClient(*ftp_server.address, block_size=BLOCK)
        remote = RemoteFileClient(ftp)
        payloads = {i: bytes([i]) * (4 * BLOCK) for i in range(N)}
        writers = []
        in_flight = 0
        _warm_handler_pool()
        baseline = threading.active_count()
        most = 0
        try:
            for i in range(N):
                f = remote.open_proxy(f"/w{i}.bin", "w", block_size=BLOCK)
                f.write(payloads[i])  # block 0 inline, blocks 1-3 in the window
                in_flight += any(not put.done() for *_, put in f._puts)
                writers.append(f)
                most = max(most, threading.active_count() - baseline)
            assert in_flight >= N // 2, f"only {in_flight} of {N} writers had a put in flight"
            assert most <= 2, f"{most} new threads for {N} writers"
            with ftp_server._rpc._writers_lock:
                connections = len(ftp_server._rpc._writers)
            assert connections <= N + 1  # the demand one, and one per window
        finally:
            for f in writers:
                f.close()
            ftp.close()
            ftp_server.stop()
        for i in range(N):
            assert (root / f"w{i}.bin").read_bytes() == payloads[i]

    def test_a_handle_left_open_at_exit_does_not_hang_the_interpreter(self, tmp_path):
        """A client process leaves a reader with its window in flight and
        a writer with puts in flight, never closed: the interpreter still
        exits, and the writer's bytes land (the exit hook closes both
        while the engine loop still runs)."""
        (tmp_path / "in.bin").write_bytes(bytes(16 * BLOCK))
        server = GridFtpServer(tmp_path, simulated_latency=0.01).start()
        script = textwrap.dedent(
            f"""
            from repro.core.remote_client import RemoteFileClient
            from repro.transport.gridftp import GridFtpClient

            client = GridFtpClient(*{tuple(server.address)!r}, block_size={BLOCK})
            remote = RemoteFileClient(client)
            reader = remote.open_proxy("/in.bin", "r", block_size={BLOCK})
            assert reader.read(3 * {BLOCK}) == bytes(3 * {BLOCK})
            writer = remote.open_proxy("/out.bin", "w", block_size={BLOCK})
            writer.write(b"w" * (8 * {BLOCK}))
            assert writer._puts, "the write window should still be in flight"
            print("leaving", flush=True)
            """
        )
        try:
            _exit_without_closing(script)
        finally:
            server.stop()
        assert (tmp_path / "out.bin").read_bytes() == b"w" * (8 * BLOCK)

    def test_a_buffer_writer_left_open_at_exit_delivers_its_bytes_and_eof(
        self, buffer_server
    ):
        """A writer whose bytes still wait in its coalescer when the
        process exits: its reader gets them, then EOF, not a timeout."""
        script = textwrap.dedent(
            f"""
            from repro.gridbuffer.client import GridBufferClient

            client = GridBufferClient(*{tuple(buffer_server.address)!r})
            writer = client.open_writer("left-open", n_readers=1)
            writer.write(b"x" * 5000)
            print("leaving", flush=True)
            """
        )
        _exit_without_closing(script)
        reader = GridBufferClient(*buffer_server.address).open_reader(
            "left-open", read_timeout=5.0
        )
        try:
            assert reader.read() == b"x" * 5000
        finally:
            reader.close()


class TestFlushDeadlineOnTheLoop:
    def test_a_full_window_keeps_its_bytes_and_never_blocks_the_loop(self, buffer_server):
        """Writer A's stream is at capacity and its reader paused, so A's
        window is full: its deadline keeps the pending bytes and re-arms
        rather than wait for a reply the loop must deliver.  Meanwhile a
        second writer on the same engine reaches its reader within its
        deadline, and once A's reader drains, A's stream completes
        byte-identical with the held bytes pushed by the deadline."""
        cap = 64 * KIB
        payload = bytes(i % 251 for i in range(2 * cap)) + b"t" * 100
        client = GridBufferClient(*buffer_server.address, timeout=10.0)
        wa = client.open_writer("parked", capacity_bytes=cap)
        ra = client.open_reader("parked", read_timeout=10.0)
        wb = client.open_writer("free")
        rb = client.open_reader("free", read_timeout=10.0)
        try:
            wa.write(payload[:cap])
            wa.write(payload[cap : 2 * cap])  # parks on the full buffer
            stream = buffer_server.service._stream("parked")
            deadline = time.monotonic() + 5.0
            while not stream.async_writers:
                assert time.monotonic() < deadline, "A's second batch never parked"
                time.sleep(0.01)
            rearms = []
            on_deadline = wa._on_deadline

            def counting():
                rearms.append(time.monotonic())
                on_deadline()

            wa._on_deadline = counting  # what each re-arm schedules
            wa.write(payload[2 * cap :])  # held: the window is full

            wb.write(b"b" * 100)
            t0 = time.monotonic()
            assert rb.read(100) == b"b" * 100
            waited = time.monotonic() - t0
            assert waited < 1.0, f"B's bytes took {waited:.2f} s behind A's full window"

            time.sleep(0.2)  # ten of A's deadlines
            assert wa._coalescer.pending_bytes == 100
            assert len(wa._inflight) == 1 and not wa._inflight[0].done()
            assert rearms, "A's deadline never re-armed"

            got = bytearray()
            while len(got) < len(payload):  # the last 100 B need the deadline
                chunk = ra.read(32 * KIB)
                assert chunk, "A's stream ended early"
                got += chunk
            assert bytes(got) == payload
            wa.close()
            assert ra.read(32 * KIB) == b""
            wb.close()
            assert rb.read(100) == b""
        finally:
            for f in (ra, rb, wa, wb):
                f.close()
            client.close()


LATENCY = 0.005
BLOCKS = 32


def _watch_blocks(server, baseline):
    """Track a server's concurrent block requests, with the server's
    connections and the process's new threads at each one.

    Wraps the ``get_block``/``put_block`` handlers, which run inline on
    the loop once the simulated link delay (two one-way latencies) has
    passed, so a request is in flight from that long before its handler
    runs until the reply: handlers that ran within one such delay of
    each other had their requests in flight together."""
    rpc = server._rpc
    delay = 2 * rpc.simulated_latency
    ran = []
    seen = {"peak": 0, "connections": 0, "threads": 0}

    def watching(handler):
        def counting(header, payload):
            now = time.monotonic()
            ran.append(now)
            seen["peak"] = max(seen["peak"], sum(1 for t in ran if t > now - delay) or 1)
            with rpc._writers_lock:
                seen["connections"] = max(seen["connections"], len(rpc._writers))
            seen["threads"] = max(seen["threads"], threading.active_count() - baseline)
            return handler(header, payload)

        return counting

    for op in ("get_block", "put_block"):
        kind, handler = rpc._handlers[op]
        rpc._handlers[op] = (kind, watching(handler))
    return seen


class TestBulkCopyWindow:
    def _export(self, tmp_path, name):
        root = tmp_path / name
        root.mkdir()
        payload = bytes(i % 251 for i in range(BLOCKS * BLOCK))
        (root / "big.bin").write_bytes(payload)
        return root, payload

    def test_fetch_store_and_third_party_copy_keep_a_window_in_flight(self, tmp_path):
        """A 32-block fetch, store and third-party copy each keep at least
        four blocks in flight at the server, over at most one connection
        beyond the demand one, and add no thread."""
        root, payload = self._export(tmp_path, "src")
        (tmp_path / "upload.bin").write_bytes(payload)
        _warm_handler_pool()
        baseline = threading.active_count()
        copies = {
            "fetch": lambda c, _: c.fetch_file("/big.bin", tmp_path / "fetched.bin"),
            "store": lambda c, _: c.store_file(tmp_path / "upload.bin", "/stored.bin"),
            "third_party": lambda c, dst: dst.third_party_copy(
                *c.address, "/big.bin", "/pulled.bin"
            ),
        }
        for name, copy in copies.items():
            with GridFtpServer(root, simulated_latency=LATENCY) as server, GridFtpServer(
                tmp_path / f"dst-{name}"
            ) as dst_server:
                seen = _watch_blocks(server, baseline)
                client = GridFtpClient(*server.address, block_size=BLOCK)
                dst = GridFtpClient(*dst_server.address, block_size=BLOCK)
                try:
                    assert copy(client, dst) == len(payload)
                finally:
                    client.close()
                    dst.close()
            assert seen["peak"] >= 4, f"{name}: {seen['peak']} blocks in flight"
            assert seen["connections"] <= 2, f"{name}: {seen['connections']} connections"
            assert seen["threads"] == 0, f"{name}: {seen['threads']} new threads"
        assert (tmp_path / "fetched.bin").read_bytes() == payload
        assert (root / "stored.bin").read_bytes() == payload
        assert (tmp_path / "dst-third_party" / "pulled.bin").read_bytes() == payload

    @pytest.mark.faults
    def test_a_failed_store_lands_nothing_after_it_raises(self, tmp_path):
        """The 9th put of a windowed store fails: the store raises with the
        blocks landed in order before it, and no put of it reaches the
        server's disk afterwards (its window was closed and drained)."""
        root, payload = self._export(tmp_path, "export")
        src = tmp_path / "upload.bin"
        src.write_bytes(payload)
        with GridFtpServer(root, simulated_latency=LATENCY) as server:
            kind, put_block = server._rpc._handlers["put_block"]
            puts = []

            def counting(header, data):
                puts.append(header["offset"])
                return put_block(header, data)

            server._rpc._handlers["put_block"] = (kind, counting)
            client = GridFtpClient(*server.address, block_size=BLOCK)
            try:
                with faults.injected(
                    FaultRule(layer="gridftp", op="put_block", action="error", nth=9),
                    seed=SEED,
                ):
                    with pytest.raises(TransferError) as excinfo:
                        client.store_file(src, "/stored.bin")
                landed = len(puts)
                time.sleep(4 * LATENCY)
                assert len(puts) == landed
            finally:
                client.close()
        assert excinfo.value.copied == 8 * BLOCK
        assert (root / "stored.bin").read_bytes()[: 8 * BLOCK] == payload[: 8 * BLOCK]


class TestRemoteWriteWindow:
    """A REMOTE proxy's write-behind: the first block inline on the
    demand connection, every later one a ``put_block`` future on one
    connection of the handle's own, the client's window depth at most in
    flight."""

    BLOCKS = 16

    def _payload(self):
        return bytes(i % 251 for i in range(self.BLOCKS * BLOCK))

    def test_a_16_block_write_keeps_a_window_of_puts_in_flight(self, tmp_path):
        """At least four puts are in flight at the server at once, over at
        most one connection beyond the demand one, and no thread is added."""
        payload = self._payload()
        _warm_handler_pool()
        baseline = threading.active_count()
        with GridFtpServer(tmp_path, simulated_latency=LATENCY) as server:
            seen = _watch_blocks(server, baseline)
            client = GridFtpClient(*server.address, block_size=BLOCK)
            try:
                f = RemoteFileClient(client).open_proxy("/out.bin", "w", block_size=BLOCK)
                for i in range(0, len(payload), 4 * BLOCK):
                    f.write(payload[i : i + 4 * BLOCK])
                f.close()
            finally:
                client.close()
        assert f.put_rpcs == self.BLOCKS
        assert seen["peak"] >= 4, f"{seen['peak']} puts in flight"
        assert seen["connections"] <= 2, f"{seen['connections']} connections"
        assert seen["threads"] == 0, f"{seen['threads']} new threads"
        assert (tmp_path / "out.bin").read_bytes() == payload

    def test_a_one_block_write_dials_no_engine_connection(self, tmp_path):
        with GridFtpServer(tmp_path) as server:
            seen = _watch_blocks(server, threading.active_count())
            client = GridFtpClient(*server.address, block_size=BLOCK)
            try:
                f = RemoteFileClient(client).open_proxy("/one.bin", "w", block_size=BLOCK)
                f.write(b"x" * BLOCK)
                f.close()
            finally:
                client.close()
        assert f._put_conn is None
        assert seen["connections"] == 1
        assert (tmp_path / "one.bin").read_bytes() == b"x" * BLOCK

    @pytest.mark.faults
    def test_a_failed_put_raises_from_the_next_call_with_nothing_in_flight(self, tmp_path):
        """The 5th block's put fails: a later ``write`` or the ``flush``
        raises it after waiting out the window, so no put of the handle
        reaches the server afterwards; the next ``write`` and ``close``
        raise it again."""
        payload = self._payload()
        with GridFtpServer(tmp_path, simulated_latency=LATENCY) as server:
            kind, put_block = server._rpc._handlers["put_block"]
            puts = []

            def counting(header, data):
                puts.append(header["offset"])
                return put_block(header, data)

            server._rpc._handlers["put_block"] = (kind, counting)
            client = GridFtpClient(*server.address, block_size=BLOCK)
            try:
                f = RemoteFileClient(client).open_proxy("/out.bin", "w", block_size=BLOCK)
                # Armed after the open's truncating put: blocks 0 to 4.
                rule = FaultRule(layer="gridftp", op="put_block", action="error", nth=5)
                with faults.injected(rule, seed=SEED):
                    with pytest.raises(faults.InjectedFault):
                        for i in range(0, len(payload), BLOCK):
                            f.write(payload[i : i + BLOCK])
                        f.flush()
                    landed = len(puts)
                    time.sleep(4 * LATENCY)
                    assert len(puts) == landed
                    with pytest.raises(faults.InjectedFault):  # sticky
                        f.write(b"more")
                    with pytest.raises(faults.InjectedFault):
                        f.close()
            finally:
                client.close()
        assert f.closed
        assert 4 * BLOCK not in puts
        assert len(puts) == landed

    def test_a_seek_back_over_in_flight_blocks_then_a_rewrite_keeps_the_later_bytes(
        self, tmp_path
    ):
        """The seek drains the window, so the rewrite of blocks 2-3 never
        overlaps their first puts, and blocks 4-15 stay on the store."""
        payload = self._payload()
        fresh = b"\xaa" * (2 * BLOCK)
        with GridFtpServer(tmp_path, simulated_latency=LATENCY) as server:
            client = GridFtpClient(*server.address, block_size=BLOCK)
            try:
                f = RemoteFileClient(client).open_proxy("/out.bin", "w+", block_size=BLOCK)
                f.write(payload)
                f.seek(2 * BLOCK)
                f.write(fresh)
                f.seek(0)
                expected = payload[: 2 * BLOCK] + fresh + payload[4 * BLOCK :]
                assert f.read() == expected
                f.close()
            finally:
                client.close()
        assert (tmp_path / "out.bin").read_bytes() == expected
