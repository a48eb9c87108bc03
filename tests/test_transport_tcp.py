"""Unit + property tests for the framed TCP RPC layer.

There is one wire version: every suite here runs the sync pooled
client against the async engine over checksummed binary frames, and
``TestRefusal`` pins what happens to a peer that speaks anything else
— it is refused at its first frame, counted, and never retried.
"""

import asyncio
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.faults import FaultRule
from repro.transport.aio import AsyncRpcClient
from repro.transport.tcp import (
    ClientClosedError,
    FrameError,
    RetryPolicy,
    RpcClient,
    RpcError,
    RpcServer,
    WireVersionError,
    _Conn,
    _conn_recv_frame,
    _conn_send_frame,
)
from repro.transport.wire import (
    FLAG_CRC,
    MAGIC,
    MAX_FIELDS,
    PREAMBLE,
    PREAMBLE_SIZE,
    WIRE_VERSION,
    WireError,
    build_binary_frame,
    decode_binary_header,
    decode_fields,
)

from ._frames import frame_bytes, legacy_json_frame


def _make_server(host: str = "127.0.0.1", port: int = 0):
    server = RpcServer(host, port)
    server.register("echo", lambda header, payload: ({"echo": header.get("msg")}, payload))

    async def park(header, payload):
        await asyncio.sleep(float(header.get("seconds", 5.0)))
        return {}, b""

    server.register_async("park", park)

    def boom(header, payload):
        raise ValueError("deliberate")

    server.register("boom", boom)

    def typed_error(header, payload):
        raise RpcError("custom-kind", "custom message")

    server.register("typed", typed_error)
    return server


# The id is what is left of the old (client wire, server wire) skew
# matrix; it stays so the surviving arm keeps its test names.
@pytest.fixture(params=["binary-binary"])
def echo_server(request):
    with _make_server() as server:
        yield server


@pytest.fixture()
def echo_client(echo_server):
    client = RpcClient(*echo_server.address)
    yield client
    client.close()


@pytest.fixture()
def pair():
    """Two ``_Conn``s over a socketpair: the sync client's frame path."""
    a, b = socket.socketpair()
    try:
        yield _Conn(a), _Conn(b)
    finally:
        a.close()
        b.close()


class TestFraming:
    def test_roundtrip_over_socketpair(self, pair):
        a, b = pair
        _conn_send_frame(a, {"op": "x", "n": 3}, b"payload")
        header, payload = _conn_recv_frame(b)
        assert header["op"] == "x"
        assert header["n"] == 3
        assert payload == b"payload"

    def test_empty_payload(self, pair):
        a, b = pair
        _conn_send_frame(a, {"op": "x"}, b"")
        header, payload = _conn_recv_frame(b)
        assert payload == b""
        assert header["payload_len"] == 0

    def test_eof_mid_frame_raises(self, pair):
        a, b = pair
        a.sock.sendall(frame_bytes({"op": "x"}, b"payload")[:10])
        a.sock.close()
        with pytest.raises(FrameError):
            _conn_recv_frame(b)

    def test_garbage_header_raises(self, pair):
        a, b = pair
        bad = b"\xff" * 10  # count byte 255, then nothing that parses
        a.sock.sendall(
            PREAMBLE.pack(MAGIC, WIRE_VERSION, FLAG_CRC, 0, len(bad), 0) + bad + bytes(4)
        )
        with pytest.raises(FrameError, match="bad binary header"):
            _conn_recv_frame(b)

    @given(
        msg=st.text(max_size=200),
        payload=st.binary(max_size=5000),
        extra=st.integers(min_value=-(2**31), max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_any_header_payload_roundtrips(self, msg, payload, extra):
        a, b = socket.socketpair()
        try:
            _conn_send_frame(_Conn(a), {"op": "t", "msg": msg, "extra": extra}, payload)
            header, got = _conn_recv_frame(_Conn(b))
            assert header["msg"] == msg
            assert header["extra"] == extra
            assert got == payload
        finally:
            a.close()
            b.close()


class TestRpc:
    def test_echo(self, echo_client):
        reply, payload = echo_client.call("echo", {"msg": "hi"}, b"data")
        assert reply["echo"] == "hi"
        assert payload == b"data"

    def test_unknown_op_is_rpc_error(self, echo_client):
        with pytest.raises(RpcError, match="no handler"):
            echo_client.call("nope")

    def test_handler_exception_becomes_error_reply(self, echo_client):
        with pytest.raises(RpcError, match="deliberate"):
            echo_client.call("boom")
        # Connection survives the error.
        reply, _ = echo_client.call("echo", {"msg": "still-alive"})
        assert reply["echo"] == "still-alive"

    def test_typed_rpc_error_kind_preserved(self, echo_client):
        with pytest.raises(RpcError) as exc_info:
            echo_client.call("typed")
        assert exc_info.value.kind == "custom-kind"

    def test_concurrent_clients(self, echo_server):
        errors = []

        def worker(n):
            try:
                with RpcClient(*echo_server.address) as client:
                    for i in range(20):
                        reply, _ = client.call("echo", {"msg": f"{n}:{i}"})
                        assert reply["echo"] == f"{n}:{i}"
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_large_payload(self, echo_client):
        blob = bytes(range(256)) * 4096  # 1 MiB
        _, got = echo_client.call("echo", {"msg": "big"}, blob)
        assert got == blob

    def test_client_is_thread_safe(self, echo_client):
        errors = []

        def worker(n):
            try:
                for i in range(10):
                    reply, _ = echo_client.call("echo", {"msg": f"{n}.{i}"})
                    assert reply["echo"] == f"{n}.{i}"
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class TestFramingEdgeCases:
    def test_oversized_header_raises(self, pair):
        """A claimed 4 GiB field table is refused before any allocation."""
        a, b = pair
        a.sock.sendall(PREAMBLE.pack(MAGIC, WIRE_VERSION, FLAG_CRC, 0, 0xFFFFFFFF, 0))
        with pytest.raises(WireVersionError, match="exceeds maximum") as exc_info:
            _conn_recv_frame(b)
        assert exc_info.value.reason == "fields-len"
        assert len(b.rbuf) == PREAMBLE_SIZE  # nothing past the preamble was read for

    def test_field_table_at_the_cap_is_not_refused(self, pair):
        a, b = pair
        a.sock.sendall(PREAMBLE.pack(MAGIC, WIRE_VERSION, FLAG_CRC, 0, MAX_FIELDS, 0))
        a.sock.close()
        with pytest.raises(FrameError, match="outstanding"):  # EOF, not a refusal
            _conn_recv_frame(b)

    def test_truncated_payload_raises(self, pair):
        a, b = pair
        scratch = bytearray()
        build_binary_frame(scratch, {"op": "x"}, 100)
        a.sock.sendall(bytes(scratch) + b"only ten b")
        a.sock.close()  # peer disconnects mid-payload
        with pytest.raises(FrameError, match="outstanding"):
            _conn_recv_frame(b)

    def test_bytes_like_payloads_accepted(self, pair):
        a, b = pair
        _conn_send_frame(a, {"op": "x"}, memoryview(bytearray(b"view")))
        _, payload = _conn_recv_frame(b)
        assert payload == b"view"


class TestPooledClient:
    @pytest.fixture()
    def slow_server(self):
        server = RpcServer()
        gate = threading.Event()

        def sleepy(header, payload):
            time.sleep(float(header.get("s", 0.1)))
            return {"done": True}, b""

        def blocked(header, payload):
            gate.wait(10.0)
            return {"done": True}, b""

        server.register("sleepy", sleepy)
        server.register("blocked", blocked)
        server.gate = gate
        with server:
            yield server

    def test_calls_overlap_across_pool(self, slow_server):
        """Four concurrent calls on one client take ~1 nap, not four."""
        client = RpcClient(*slow_server.address, max_connections=4)
        results = []

        def one():
            reply, _ = client.call("sleepy", {"s": 0.2})
            results.append(reply["done"])

        threads = [threading.Thread(target=one) for _ in range(4)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        client.close()
        assert results == [True] * 4
        assert elapsed < 0.6, f"calls serialised: {elapsed:.2f}s for 4x 0.2s naps"

    def test_pool_of_one_serialises(self, slow_server):
        """max_connections caps in-flight depth (strict request/reply)."""
        client = RpcClient(*slow_server.address, max_connections=1)
        threads = [
            threading.Thread(target=lambda: client.call("sleepy", {"s": 0.15}))
            for _ in range(2)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        client.close()
        assert elapsed >= 0.28, f"pool of 1 overlapped calls: {elapsed:.2f}s"

    def test_close_all_unblocks_inflight_call(self, slow_server):
        client = RpcClient(*slow_server.address, max_connections=2)
        failures = []

        def blocked_call():
            try:
                client.call("blocked")
            except (OSError, FrameError) as exc:
                failures.append(exc)

        t = threading.Thread(target=blocked_call)
        t.start()
        time.sleep(0.1)  # let the call get in flight
        t0 = time.perf_counter()
        client.close_all()
        t.join(timeout=5.0)
        assert not t.is_alive(), "in-flight call survived close_all()"
        assert time.perf_counter() - t0 < 2.0
        assert failures, "blocked call should fail fast, not return"
        slow_server.gate.set()

    def test_client_recovers_after_peer_disconnect_mid_frame(self):
        """A mid-reply disconnect poisons one socket, not the client."""
        ready = threading.Event()
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        addr = listener.getsockname()
        stop = False

        def serve():
            first = True
            ready.set()
            while not stop:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                try:
                    header, payload = _conn_recv_frame(_Conn(conn))
                    if first:
                        first = False
                        # Half a frame, then hang up mid-payload.
                        conn.sendall(frame_bytes({"ok": True}, b"p" * 50)[:-40])
                        conn.close()
                        continue
                    conn.sendall(frame_bytes({"ok": True, "echo": header.get("msg")}))
                    conn.close()
                except (FrameError, OSError):
                    conn.close()

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        ready.wait(5.0)
        client = RpcClient(*addr, max_connections=2)
        with pytest.raises((FrameError, OSError)):
            client.call("echo", {"msg": "doomed"})
        # The poisoned connection was discarded; a fresh one works.
        reply, _ = client.call("echo", {"msg": "recovered"})
        assert reply["echo"] == "recovered"
        client.close()
        stop = True
        listener.close()


# ---------------------------------------------------------------------------
# Binary wire codec
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**48), max_value=2**48),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=60),
    st.binary(max_size=60),
)
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=4),
    st.dictionaries(st.text(max_size=10), _scalars, max_size=4),
)


def _binary_roundtrip(header, payload_len):
    scratch = bytearray()
    build_binary_frame(scratch, header, payload_len)
    magic, version, flags, opid, fields_len, plen = PREAMBLE.unpack_from(scratch, 0)
    assert magic == MAGIC and version == WIRE_VERSION and flags == FLAG_CRC
    assert len(scratch) == PREAMBLE_SIZE + fields_len
    fields = memoryview(scratch)[PREAMBLE_SIZE:]
    return decode_binary_header(opid, fields, plen)


class TestBinaryCodec:
    @given(
        header=st.dictionaries(st.text(min_size=1, max_size=16), _values, max_size=12),
        payload_len=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_header_roundtrips(self, header, payload_len):
        header.pop("payload_len", None)
        header.pop("op", None)
        got = _binary_roundtrip(dict(header, op="gb.write"), payload_len)
        assert got.pop("op") == "gb.write"
        assert got.pop("payload_len") == payload_len
        assert got == header

    def test_unknown_op_travels_as_literal(self):
        got = _binary_roundtrip({"op": "custom.op", "x": 1}, 0)
        assert got["op"] == "custom.op"
        assert got["x"] == 1

    def test_known_op_compresses_to_preamble_id(self):
        scratch = bytearray()
        build_binary_frame(scratch, {"op": "gb.read", "offset": 0}, 0)
        _, _, _, opid, _, _ = PREAMBLE.unpack_from(scratch, 0)
        assert opid != 0
        assert b"gb.read" not in bytes(scratch)

    def test_binary_header_beats_json_for_known_ops(self):
        header = {"op": "gb.read", "name": "s", "reader_id": "r1", "offset": 0, "length": 65536}
        bin_scratch = bytearray()
        build_binary_frame(bin_scratch, header, 65536)
        assert len(bin_scratch) < len(legacy_json_frame(header, b""))

    def test_trailing_garbage_rejected(self):
        scratch = bytearray()
        build_binary_frame(scratch, {"op": "gb.read", "offset": 1}, 0)
        with pytest.raises(WireError, match="trailing"):
            decode_fields(bytes(scratch[PREAMBLE_SIZE:]) + b"\x00")

    def test_unknown_op_id_rejected(self):
        with pytest.raises(WireError, match="unknown op id"):
            decode_binary_header(60000, b"\x00", 0)


# ---------------------------------------------------------------------------
# A peer of another wire version is refused, not degraded to
# ---------------------------------------------------------------------------


def _bad_frames(side, reason):
    return obs.value("rpc_bad_frames_total", {"side": side, "reason": reason}) or 0.0


def _tampered(header, payload=b"", version=WIRE_VERSION, flags=FLAG_CRC):
    """A well-formed frame with its version/flags bytes overwritten."""
    raw = bytearray(frame_bytes(header, payload))
    raw[1], raw[2] = version, flags
    if not flags & FLAG_CRC:
        del raw[-4:]  # what an un-checksummed sender would really emit
    return bytes(raw)


class _ScriptedPeer:
    """A listener that answers every connection's first bytes with ``reply``."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.connections = 0
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.address = self._sock.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                conn.recv(65536)
                conn.sendall(self.reply)

    def close(self):
        self._sock.close()
        self._thread.join(timeout=5)


REFUSED = [
    pytest.param(legacy_json_frame({"op": "echo", "msg": "old", "ok": True}), "magic", id="legacy-json"),
    pytest.param(_tampered({"op": "echo", "ok": True}, version=2), "version", id="version-2"),
    pytest.param(_tampered({"op": "echo", "ok": True}, b"data", flags=0), "no-crc", id="no-crc"),
    pytest.param(_tampered({"op": "echo", "ok": True}, flags=FLAG_CRC | 0x80), "flags", id="unknown-flag"),
    pytest.param(
        PREAMBLE.pack(MAGIC, WIRE_VERSION, FLAG_CRC, 0, 0xFFFFFFFF, 0), "fields-len", id="4gib-fields"
    ),
]


class TestRefusal:
    @pytest.mark.parametrize("frame, reason", REFUSED)
    def test_server_counts_the_violation_and_hangs_up(self, frame, reason):
        with _make_server() as server:
            before = _bad_frames("server", reason)
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(frame)
                assert sock.recv(65536) == b""  # closed without a reply
            assert _bad_frames("server", reason) == before + 1
            # The listener is unharmed: the next, well-behaved peer is served.
            with RpcClient(*server.address) as client:
                assert client.call("echo", {"msg": "ok"})[0]["echo"] == "ok"

    @pytest.mark.parametrize("frame, reason", REFUSED)
    def test_client_raises_after_exactly_one_attempt(self, frame, reason):
        peer = _ScriptedPeer(frame)
        before = _bad_frames("client", reason)
        retries = obs.value("rpc_retries_total", {"op": "get_block"}) or 0.0
        try:
            # get_block is idempotent: a flaky link would get 1 + 3 attempts.
            with RpcClient(*peer.address, retry=RetryPolicy(retries=3, base=0.001)) as client:
                with pytest.raises(WireVersionError) as exc_info:
                    client.call("get_block", {"path": "p"})
        finally:
            peer.close()
        assert exc_info.value.reason == reason
        assert peer.connections == 1
        assert _bad_frames("client", reason) == before + 1
        assert (obs.value("rpc_retries_total", {"op": "get_block"}) or 0.0) == retries

    def test_async_client_raises_after_exactly_one_attempt(self):
        peer = _ScriptedPeer(_tampered({"op": "echo", "ok": True}, version=2))

        async def go():
            client = AsyncRpcClient(*peer.address, retry=RetryPolicy(retries=3, base=0.001))
            try:
                with pytest.raises(WireVersionError):
                    await client.call("get_block", {"path": "p"})
            finally:
                await client.close()

        try:
            asyncio.run(go())
        finally:
            peer.close()
        assert peer.connections == 1

    def test_wire_version_error_is_a_connection_error(self):
        # Higher layers (replica failover, copy-in resume) catch OSError /
        # FrameError; a refused peer must look like an unusable one to them.
        assert issubclass(WireVersionError, FrameError)
        assert issubclass(WireVersionError, OSError)


@pytest.mark.faults
class TestFirstCallFaults:
    """Faults on a connection's very first call and on a warm one."""

    @pytest.fixture(autouse=True)
    def _disarmed(self):
        faults.disarm()
        yield
        faults.disarm()

    def test_first_call_survives_connection_reset(self):
        with _make_server() as server, RpcClient(*server.address) as client:
            with faults.injected(
                FaultRule(layer="rpc.server", op="echo", action="close", nth=1, times=1)
            ):
                reply, _ = client.call("echo", {"msg": "hi"}, retryable=True)
            assert reply["echo"] == "hi"

    def test_first_call_survives_dropped_request(self):
        with _make_server() as server, RpcClient(*server.address) as client:
            with faults.injected(
                FaultRule(layer="rpc.server", op="echo", action="drop", nth=1, times=1)
            ):
                reply, _ = client.call("echo", {"msg": "hi"}, retryable=True)
            assert reply["echo"] == "hi"

    def test_injected_error_reply_leaves_connection_usable(self):
        with _make_server() as server, RpcClient(*server.address) as client:
            with faults.injected(
                FaultRule(layer="rpc.server", op="echo", action="error", nth=1, times=1)
            ):
                with pytest.raises(RpcError) as exc_info:
                    client.call("echo", {"msg": "hi"})
            assert exc_info.value.kind == "injected-fault"
            reply, _ = client.call("echo", {"msg": "again"})
            assert reply["echo"] == "again"

    def test_warm_connection_survives_reset(self):
        with _make_server() as server, RpcClient(*server.address) as client:
            client.call("echo", {"msg": "warm"})
            with faults.injected(
                FaultRule(layer="rpc.server", op="echo", action="close", nth=1, times=1)
            ):
                reply, _ = client.call("echo", {"msg": "after"}, retryable=True)
            assert reply["echo"] == "after"


# ---------------------------------------------------------------------------
# Async server handler kinds + async client
# ---------------------------------------------------------------------------


class TestAsyncServerHandlers:
    def test_inline_and_native_async_handlers(self):
        server = RpcServer()
        server.register("double", lambda h, p: ({"v": h["x"] * 2}, b""), inline=True)

        async def plus_one(header, payload):
            await asyncio.sleep(0)
            return {"v": header["x"] + 1}, payload

        server.register_async("plus1", plus_one)
        with server, RpcClient(*server.address) as client:
            assert client.call("double", {"x": 3})[0]["v"] == 6
            reply, data = client.call("plus1", {"x": 3}, b"p")
            assert reply["v"] == 4
            assert data == b"p"

    def test_restart_rebinds_same_port(self):
        server = _make_server().start()
        host, port = server.address
        try:
            server.stop()
            again = _make_server(host, port)
            with again, RpcClient(host, port) as client:
                assert client.call("echo", {"msg": "back"})[0]["echo"] == "back"
        finally:
            server.stop()

    def test_stop_never_orphans_a_connection_accepted_in_the_same_pass(self):
        """``stop()`` lands after the listener's accept in one loop pass.

        The accepted socket's transport is built by a task queued behind
        the close; closing first made asyncio drop that socket silently
        (open, never read), and its client waited out the whole socket
        timeout.  The loop is held at two gates so the order is forced.
        """
        from repro.transport.aio import get_engine

        loop = get_engine().loop
        server = RpcServer()
        server.register("echo", lambda h, p: ({"echo": h.get("msg")}, p), inline=True)
        server.start()
        gate_a, gate_b = threading.Event(), threading.Event()
        in_a, in_b = threading.Event(), threading.Event()

        def hold(entered, gate):
            entered.set()
            gate.wait(5)

        outcome = []

        def call():
            client = RpcClient(*server.address, timeout=3.0, retry=RetryPolicy(retries=0))
            t0 = time.monotonic()
            try:
                outcome.append(client.call("echo", {"msg": "late"})[0]["echo"])
            except (OSError, FrameError) as exc:
                outcome.append(type(exc).__name__)
            outcome.append(time.monotonic() - t0)
            client.close()

        loop.call_soon_threadsafe(hold, in_a, gate_a)
        assert in_a.wait(5)
        caller = threading.Thread(target=call)
        caller.start()  # connects into the backlog; the loop is held
        time.sleep(0.05)
        # B runs first in the next pass, ahead of the accept handler.
        loop.call_soon_threadsafe(hold, in_b, gate_b)
        gate_a.set()
        assert in_b.wait(5)
        stopper = threading.Thread(target=server.stop)
        stopper.start()  # posts its callback behind the accept handler
        time.sleep(0.05)
        gate_b.set()
        stopper.join(5)
        caller.join(5)
        try:
            assert outcome[0] == "late"  # accepted before stop: still served
            assert outcome[1] < 1.0
        finally:
            server.disconnect_all()


class TestAsyncRpcClient:
    def test_echo(self):
        async def go(addr):
            client = AsyncRpcClient(*addr)
            try:
                reply, data = await client.call("echo", {"msg": "hi"}, b"abc")
                assert reply["echo"] == "hi"
                assert data == b"abc"
            finally:
                await client.close()

        with _make_server() as server:
            asyncio.run(go(server.address))

    def test_error_reply_raises(self):
        async def go(addr):
            client = AsyncRpcClient(*addr)
            try:
                with pytest.raises(RpcError) as exc_info:
                    await client.call("typed")
                assert exc_info.value.kind == "custom-kind"
            finally:
                await client.close()

        with _make_server() as server:
            asyncio.run(go(server.address))

    def test_many_concurrent_clients_one_loop(self):
        """64 clients multiplex on one caller loop, no thread each."""

        async def one(addr, i):
            client = AsyncRpcClient(*addr)
            try:
                reply, _ = await client.call("echo", {"msg": f"m{i}"})
                return reply["echo"]
            finally:
                await client.close()

        async def go(addr):
            return await asyncio.gather(*(one(addr, i) for i in range(64)))

        with _make_server() as server:
            results = asyncio.run(go(server.address))
        assert results == [f"m{i}" for i in range(64)]

    def test_call_after_the_server_dropped_an_idle_connection_redials(self):
        """The reader of a connection the server dropped detaches it, so the
        next call dials afresh instead of writing into the dead socket and
        waiting out the whole call timeout."""

        async def go(server):
            client = AsyncRpcClient(*server.address, timeout=5.0)
            try:
                assert (await client.call("echo", {"msg": "warm"}))[0]["echo"] == "warm"
                server.disconnect_all()
                await asyncio.sleep(0.1)  # the client's reader sees the hang-up
                t0 = time.monotonic()
                reply, _ = await client.call("echo", {"msg": "again"})
                return reply["echo"], time.monotonic() - t0
            finally:
                await client.close()

        with _make_server() as server:
            echoed, elapsed = asyncio.run(go(server))
        assert echoed == "again"
        assert elapsed < 1.0

    def test_close_fails_an_inflight_call_at_once_without_retrying(self):
        """``close()`` under a parked call ends it as ``ClientClosedError``
        straight away: no retry against a closed client, none counted."""

        async def go(addr):
            client = AsyncRpcClient(*addr, timeout=5.0)
            call = asyncio.ensure_future(
                client.call("park", {"seconds": 2.0}, retryable=True)
            )
            await asyncio.sleep(0.1)  # the request is parked server-side
            t0 = time.monotonic()
            await client.close()
            with pytest.raises(ClientClosedError):
                await call
            return time.monotonic() - t0

        retries = obs.value("rpc_retries_total", {"op": "park"}) or 0
        with _make_server() as server:
            try:
                elapsed = asyncio.run(go(server.address))
            finally:
                server.disconnect_all()
        assert elapsed < 0.1
        assert (obs.value("rpc_retries_total", {"op": "park"}) or 0) == retries

    def test_close_before_the_reader_task_runs_fails_queued_calls(self):
        """A connection's reader task that ``close()`` cancels before its
        first step never runs its cleanup: a call queued on the
        connection must fail all the same, not wait forever."""

        async def go(addr):
            client = AsyncRpcClient(*addr, timeout=5.0)
            await client._connect()  # the reader task is created, not yet run
            reply = asyncio.get_running_loop().create_future()
            client._conn.pending.append((reply, 0.0))  # as a sent call queues it
            await client.close()
            return reply

        with _make_server() as server:
            reply = asyncio.run(go(server.address))
        assert reply.done() and isinstance(reply.exception(), ConnectionError)

    def test_call_timeout_fails_the_call_and_the_next_call_redials(self):
        """The connection watchdog is the client's only call timeout: a
        reply overdue past ``timeout`` fails the call (after its retries)
        and tears the connection down; the next call dials afresh."""

        async def go(addr):
            client = AsyncRpcClient(*addr, timeout=0.3)
            try:
                t0 = time.monotonic()
                with pytest.raises(TimeoutError):
                    await client.call("park", {"seconds": 5.0}, retryable=True)
                timed_out = time.monotonic() - t0
                t0 = time.monotonic()
                reply, _ = await client.call("echo", {"msg": "after"})
                return timed_out, reply["echo"], time.monotonic() - t0
            finally:
                await client.close()

        with _make_server() as server:
            try:
                timed_out, echoed, elapsed = asyncio.run(go(server.address))
            finally:
                server.disconnect_all()
        assert 0.3 <= timed_out < 4.0  # well short of the 5 s park
        assert echoed == "after"
        assert elapsed < 1.0
