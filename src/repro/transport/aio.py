"""Async-native RPC engine behind the sync transport facade.

One process-wide background event loop (:class:`_LoopEngine`) hosts
every :class:`AsyncRpcServer` in the process.  A connection costs a
reader/writer pair on the loop instead of a dedicated thread, which is
what lets a single Grid Buffer node multiplex thousands of concurrent
readers.  Handlers come in three kinds:

* ``register(op, fn)`` — plain sync handler, dispatched to a shared
  thread pool so blocking handlers (file IO, condition waits) cannot
  stall the loop.  This is the drop-in path for existing services.
* ``register(op, fn, inline=True)`` — sync handler cheap enough to run
  directly on the loop (no locks, no IO).
* ``register_async(op, coro_fn)`` — native coroutine handler; blocking
  waits become awaits and consume no thread at all (the Grid Buffer
  read/write ops use this).

Framing is the one version :mod:`repro.transport.wire` defines.  A
connection that sends anything else (a legacy JSON frame, another wire
version, a frame without a CRC trailer) has committed a protocol
violation, not hung up: it is counted under
``rpc_bad_frames_total{side="server"}``, logged once, and closed.

:class:`AsyncRpcClient` is the asyncio twin of the sync pooled client
— same retry gating and fault hooks, but one coroutine per in-flight
call instead of one blocked thread (the DIRACX sync/aio dual-client
pattern).

:mod:`repro.transport.tcp` re-binds ``AsyncRpcServer`` as the public
``RpcServer``.
"""

from __future__ import annotations

import asyncio
import atexit
import logging
import os
import random
import socket
import sys
import threading
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from .. import faults, ioutil, obs
from ..obs import ops as obs_ops
from .common import (
    _BAD_FRAMES,
    _CLIENT_CALLS,
    _CLIENT_ERRORS,
    _CLIENT_RETRIES,
    _SERVER_REQUESTS,
    DEFAULT_RPC_TIMEOUT,
    IDEMPOTENT_OPS,
    ClientClosedError,
    RetryPolicy,
    RpcError,
    count_client_failure,
)
from .wire import (
    CRC_TRAILER_SIZE,
    PREAMBLE_SIZE,
    TRACE_KEY,
    FrameError,
    IntegrityError,
    WireError,
    WireVersionError,
    build_binary_frame,
    check_preamble,
    crc_trailer,
    decode_binary_header,
    verify_crc,
)

__all__ = ["AsyncRpcServer", "AsyncRpcClient", "LoopSignal", "get_engine"]

logger = logging.getLogger(__name__)

#: Thread-pool width for sync handlers hosted by the async engine.
#: Threads are created on demand, so an idle server costs none.
_EXECUTOR_WORKERS = 64

#: Per-connection cap on concurrently dispatched (reply-pending)
#: requests; beyond it the server stops reading that connection.
_MAX_PIPELINE = 1024

#: Loop-lag watchdog sampling interval (seconds); <= 0 disables it.
_WATCHDOG_INTERVAL = float(os.environ.get("REPRO_LOOP_WATCHDOG_S", "0.1"))

#: Lag past which a sample counts as a stall (the loop was unable to
#: run a due timer for this long — some callback blocked it).
_STALL_THRESHOLD = float(os.environ.get("REPRO_LOOP_STALL_S", "0.25"))

_PIPELINE_DEPTH = obs.histogram(
    "rpc_server_pipeline_depth",
    "In-flight requests on a connection when another is dispatched",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
)
_PUMP_QUEUE = obs.gauge(
    "rpc_reply_pump_queue",
    "Replies (ready or pending) queued behind a connection's reply pump",
)
_COALESCE_BATCH = obs.histogram(
    "rpc_frame_coalesce_batch",
    "Frames merged into one socket write by the per-connection coalescer",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
)
_LOOP_LAG = obs.gauge(
    "rpc_loop_lag_seconds",
    "Sampled callback-scheduling latency of the shared engine loop",
)
_LOOP_STALLS = obs.counter(
    "loop_stall_total",
    "Watchdog-detected event-loop stalls, labelled with the suspected op",
    labelnames=("op",),
)


#: Hot-path metric children, bound once per label set.  ``labels()``
#: does a guarded dict build per call, which shows up at small-op rates.
_CALLS_BY_OP: Dict[str, Any] = {}
_REQUESTS_BY_KEY: Dict[Tuple[str, str], Any] = {}


def _count_call(op: str) -> None:
    child = _CALLS_BY_OP.get(op)
    if child is None:
        child = _CALLS_BY_OP[op] = _CLIENT_CALLS.labels(op=op)
    child.inc()


def _count_request(op: str, status: str) -> None:
    key = (op, status)
    child = _REQUESTS_BY_KEY.get(key)
    if child is None:
        child = _REQUESTS_BY_KEY[key] = _SERVER_REQUESTS.labels(op=op, status=status)
    child.inc()


def _set_nodelay(writer: asyncio.StreamWriter) -> None:
    """Disable Nagle on a stream connection (matches the sync transport).

    RPC frames are small and latency-bound; without this each reply can
    sit behind the peer's delayed ACK for ~40 ms.
    """
    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # fault-ok: non-TCP or dying socket; Nagle is a perf knob
            pass


class _LoopEngine:
    """Process-wide event loop on a daemon thread, plus handler executor.

    All async servers and all sync-facade clients share one loop; the
    loop only ever runs scheduling and memory copies, so sharing it is
    cheaper than a loop per server and keeps cross-server wakeups on
    one core.
    """

    _instance: Optional["_LoopEngine"] = None
    _lock = threading.Lock()

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.executor = ThreadPoolExecutor(
            max_workers=_EXECUTOR_WORKERS, thread_name_prefix="rpc-handler"
        )
        # Watchdog state (touched only on the loop thread): when the
        # sampled tick arrives later than scheduled, some callback held
        # the loop — the longest on-loop sync handler since the last
        # tick is the prime suspect and gets the blame label.
        self._tick_due = 0.0
        self._blame_op: Optional[str] = None
        self._blame_dur = 0.0
        self._thread = threading.Thread(
            target=self._run, name="rpc-event-loop", daemon=True
        )
        self._thread.start()
        if _WATCHDOG_INTERVAL > 0:
            self.loop.call_soon_threadsafe(self._arm_watchdog)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    # -- loop-lag watchdog ----------------------------------------------------
    def _arm_watchdog(self) -> None:
        self._tick_due = self.loop.time() + _WATCHDOG_INTERVAL
        self.loop.call_later(_WATCHDOG_INTERVAL, self._watchdog_tick)

    def _watchdog_tick(self) -> None:
        lag = max(0.0, self.loop.time() - self._tick_due)
        _LOOP_LAG.set(lag)
        if lag >= _STALL_THRESHOLD:
            _LOOP_STALLS.labels(op=self._blame_op or "unknown").inc()
        self._blame_op = None
        self._blame_dur = 0.0
        self._arm_watchdog()

    def note_sync(self, op: str, duration: float) -> None:
        """Record an on-loop sync handler execution (loop thread only).

        Inline handlers are the only user code that can block the loop
        directly; the longest one since the last watchdog tick is
        blamed if that tick arrives late.  Runs before any overdue tick
        because the coroutine step that ran the handler completes
        (including this call) before the loop services timers.
        """
        if duration > self._blame_dur:
            self._blame_dur = duration
            self._blame_op = op

    @classmethod
    def get(cls) -> "_LoopEngine":
        if sys.is_finalizing():
            # The loop thread no longer runs, and a thread started now
            # never returns from ``start``: a future submitted here
            # would never complete.
            raise RuntimeError("the engine loop does not run during interpreter shutdown")
        with cls._lock:
            if cls._instance is None or not cls._instance._thread.is_alive():
                cls._instance = cls()
            return cls._instance

    def submit(self, coro):
        """Schedule a coroutine from sync code; returns a concurrent Future."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop)


def get_engine() -> _LoopEngine:
    return _LoopEngine.get()


#: Open file handles whose close needs the engine loop (see
#: :func:`close_at_exit`); held weakly, so a handle that is collected
#: earlier closes through its own finalizer.
_CLOSE_AT_EXIT: "weakref.WeakSet[Any]" = weakref.WeakSet()


def close_at_exit(handle: Any) -> None:
    """Have ``handle.close()`` run at interpreter exit if it is still open.

    A handle whose close drains futures on the engine loop cannot close
    from its finalizer once the interpreter shuts down, because the loop
    thread is gone by then.  The exit hook runs before that, so what a
    handle left open still holds (write-behind, a coalesced tail) lands.
    """
    _CLOSE_AT_EXIT.add(handle)


@atexit.register
def _close_open_handles() -> None:
    for handle in list(_CLOSE_AT_EXIT):
        try:
            handle.close()
        except Exception as exc:  # noqa: BLE001 - one failed close must not skip the rest
            logger.warning("closing %r at exit failed: %s", handle, exc)


async def read_frame_async(reader: asyncio.StreamReader) -> Tuple[Dict[str, Any], bytes]:
    """Read one frame, validated and CRC-verified by :mod:`.wire`."""
    try:
        opid, flen, plen = check_preamble(await reader.readexactly(PREAMBLE_SIZE))
        fields = await reader.readexactly(flen) if flen else b""
        payload = await reader.readexactly(plen) if plen else b""
        trailer = await reader.readexactly(CRC_TRAILER_SIZE)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid-frame") from exc
    try:
        header = decode_binary_header(opid, fields, plen)
    except WireError as exc:
        raise FrameError(f"bad binary header: {exc}") from exc
    verify_crc(header, payload, trailer)
    return header, payload


class LoopSignal:
    """Thread-safe change broadcast onto the engine loop.

    Mutating threads call :meth:`notify` (cheap, coalesced: one
    ``call_soon_threadsafe`` per burst); loop coroutines ``await
    wait(timeout)`` to park until the next notification.  This is the
    bridge the GNS watch op uses to turn a commit on a worker thread
    into a wakeup for every long-poll parked on the process-wide loop.

    The underlying ``asyncio.Event`` is level-triggered and shared by
    all waiters: waiters must ``clear()`` *before* re-checking the
    state they are watching, so a notification landing between the
    check and the wait is never lost.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._event = asyncio.Event()
        self._lock = threading.Lock()
        self._scheduled = False

    def notify(self) -> None:
        """Wake all current waiters; callable from any thread."""
        with self._lock:
            if self._scheduled:
                return
            self._scheduled = True
        try:
            self._loop.call_soon_threadsafe(self._fire)
        except RuntimeError:  # fault-ok: loop shut down; nothing to wake
            with self._lock:
                self._scheduled = False

    def _fire(self) -> None:
        with self._lock:
            self._scheduled = False
        self._event.set()

    def clear(self) -> None:
        self._event.clear()

    async def wait(self, timeout: float) -> bool:
        """Park until the next notify or ``timeout``; True if notified."""
        if timeout <= 0:
            return self._event.is_set()
        try:
            await asyncio.wait_for(self._event.wait(), timeout)
            return True
        except asyncio.TimeoutError:  # fault-ok: timeout is the False return
            return False


class _FrameQueue:
    """Per-connection frame coalescer: one ``send`` per loop pass.

    ``transport.write`` attempts an immediate ``send(2)`` whenever its
    buffer is empty, so naively writing each frame costs one syscall
    per frame.  Pipelined traffic queues many frames within a single
    event-loop pass; buffering them here and flushing from a
    ``call_soon`` callback (which the loop runs after the ready tasks)
    batches them into one write.  Frames stay strictly ordered because
    every write on the connection goes through the queue.
    """

    __slots__ = ("writer", "buf", "scheduled", "frames")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.buf = bytearray()
        self.scheduled = False
        self.frames = 0

    def push_frame(
        self,
        scratch: bytearray,
        header: Dict[str, Any],
        payload: bytes,
        corrupter=None,
    ) -> None:
        """Queue one frame; ``corrupter`` (chaos only) flips payload bits
        *after* the CRC trailer is computed, modelling wire corruption."""
        build_binary_frame(scratch, header, len(payload))
        trailer = crc_trailer(payload)
        if corrupter is not None and payload:
            payload = corrupter.corrupt_bytes(bytes(payload))
        self.buf += scratch
        if payload:
            self.buf += payload
        self.buf += trailer
        self.frames += 1
        if not self.scheduled:
            self.scheduled = True
            asyncio.get_running_loop().call_soon(self.flush)

    def flush(self) -> None:
        self.scheduled = False
        if not self.buf:
            return
        _COALESCE_BATCH.observe(self.frames)
        self.frames = 0
        transport = self.writer.transport
        if transport is None or transport.is_closing():
            self.buf.clear()  # fault-ok: peer gone; reader side surfaces the error
            return
        self.writer.write(bytes(self.buf))
        self.buf.clear()


Handler = Callable[[Dict[str, Any], bytes], Tuple[Dict[str, Any], bytes]]


class AsyncRpcServer:
    """Event-loop RPC server.

    ``register``/``register_async``/``start``/``stop``/
    ``disconnect_all``/``address``/``peer_name``/context manager.

    * replies leave each connection in request order (the framing
      carries no request ids), so a strict request/reply client's
      in-flight depth equals its connection count;
    * ``stop`` closes only the listener — established connections keep
      being served (``disconnect_all`` kills them);
    * handler exceptions become error replies, never dead connections;
    * the fault injector's ``rpc.server`` hook fires per request with
      identical drop/close/error verdict handling.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        simulated_latency: float = 0.0,
    ):
        self._handlers: Dict[str, Tuple[str, Handler]] = {}
        self.simulated_latency = max(0.0, simulated_latency)
        self._engine = get_engine()
        obs_ops.install(self)
        self._writers: Set[asyncio.StreamWriter] = set()
        self._writers_lock = threading.Lock()
        # Bind in the constructor (not start) so .address works before
        # start() and bind errors surface where the caller expects them.
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(128)
        self._sock = sock
        addr = sock.getsockname()
        self._address = (addr[0], addr[1])
        #: Label used by the fault injector to match ``peer=`` globs.
        self.peer_name = f"{addr[0]}:{addr[1]}"
        self._aserver: Optional[asyncio.base_events.Server] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._address

    def register(self, op: str, handler: Handler, inline: bool = False) -> None:
        self._handlers[op] = ("inline" if inline else "thread", handler)

    def register_async(self, op: str, handler: Callable[..., Any]) -> None:
        self._handlers[op] = ("async", handler)

    def start(self) -> "AsyncRpcServer":
        async def _bind():
            return await asyncio.start_server(self._serve_conn, sock=self._sock)

        self._aserver = self._engine.submit(_bind()).result(timeout=10)
        return self

    def stop(self) -> None:
        """Close the listener; established connections keep serving.

        Blocks until the listening socket is really closed so a
        restart can rebind the same port immediately.  (Deliberately
        not ``wait_closed()`` — on newer Pythons that waits for every
        connection too, which is ``disconnect_all``'s job, not ours.)
        """
        server, self._aserver = self._aserver, None
        if server is None:
            self._sock.close()
            return
        done = threading.Event()
        loop = self._engine.loop

        def _close() -> None:
            server.close()
            done.set()

        def _quiesce() -> None:
            # Stop accepting now, close one loop pass later.  A connection
            # accepted in this pass has its transport built by a task
            # queued ahead of _close; closing first fails that task's
            # Server._attach assertion, which asyncio swallows, orphaning
            # the socket: open, never read, invisible to disconnect_all,
            # so its client waits out the whole socket timeout.
            loop.remove_reader(self._sock.fileno())
            loop.call_soon(_close)

        loop.call_soon_threadsafe(_quiesce)
        done.wait(timeout=5)

    def disconnect_all(self) -> None:
        """Forcibly drop every established connection (crash simulation)."""
        with self._writers_lock:
            writers = list(self._writers)
        if not writers:
            return
        done = threading.Event()

        def _kill() -> None:
            for w in writers:
                transport = w.transport
                if transport is not None:
                    transport.abort()
            done.set()

        self._engine.loop.call_soon_threadsafe(_kill)
        done.wait(timeout=5)

    def __enter__(self) -> "AsyncRpcServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    async def _run_one(
        self,
        op: str,
        entry: Optional[Tuple[str, Callable]],
        header: Dict[str, Any],
        payload: bytes,
        rctx: Optional[obs.SpanContext] = None,
        corrupter=None,
    ) -> Tuple[Dict[str, Any], bytes, Any]:
        """Execute one handler and package its reply for the reply pump."""
        if self.simulated_latency:
            await asyncio.sleep(2.0 * self.simulated_latency)
        tracer = obs.get_tracer()
        # Stack-free span: this coroutine interleaves with others on the
        # loop thread, so the TLS span stack cannot carry it.  Sync
        # handlers get the context re-attached on *their* thread below,
        # so spans they open still parent under the remote caller.
        span = (
            tracer.start_span("rpc.server", parent=rctx, op=op, peer=self.peer_name)
            if tracer.sink is not None
            else None
        )
        ctx = span.context if span is not None else None
        try:
            if entry is None:
                raise RpcError("unknown-op", f"no handler for {op!r}")
            kind, fn = entry
            if span is not None:
                span.set(kind=kind)
            if kind == "async":
                reply, data = await fn(header, payload)
            elif kind == "inline":
                t0 = self._engine.loop.time()
                if ctx is not None:
                    with tracer.attach(ctx):
                        reply, data = fn(header, payload)
                else:
                    reply, data = fn(header, payload)
                self._engine.note_sync(op, self._engine.loop.time() - t0)
            else:
                if ctx is not None:
                    def _traced(fn=fn, header=header, payload=payload, ctx=ctx):
                        with tracer.attach(ctx):
                            return fn(header, payload)

                    reply, data = await self._engine.loop.run_in_executor(
                        self._engine.executor, _traced
                    )
                else:
                    reply, data = await self._engine.loop.run_in_executor(
                        self._engine.executor, fn, header, payload
                    )
            reply = dict(reply)
            reply.setdefault("ok", True)
            _count_request(op, "ok")
        except RpcError as exc:
            reply, data = {"ok": False, "error": exc.kind, "message": exc.message}, b""
            _count_request(op, "error")
        except Exception as exc:  # noqa: BLE001 - reply with error
            reply, data = {"ok": False, "error": type(exc).__name__, "message": str(exc)}, b""
            _count_request(op, "error")
        if span is not None:
            tracer.finish_span(
                span, error=None if reply.get("ok") else str(reply.get("error"))
            )
        return reply, data, corrupter

    async def _serve_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        with self._writers_lock:
            self._writers.add(writer)
        _set_nodelay(writer)
        scratch = bytearray(256)
        outq = _FrameQueue(writer)
        loop = self._engine.loop
        # Handlers on one connection run concurrently (a pipelined
        # client may have a write queued behind a parked read — serial
        # dispatch would deadlock it, and serial simulated latency would
        # defeat pipelining entirely).  The framing carries no request
        # ids, so replies must still leave in request order: ``order``
        # holds one entry per in-flight request — a handler Task, or a
        # ready ``(reply, data, corrupter)`` tuple — and the pump drains
        # it strictly FIFO.
        order: Deque[Any] = deque()
        wake = asyncio.Event()
        pump: Optional["asyncio.Task"] = None

        async def _pump() -> None:
            pump_scratch = bytearray(256)
            while True:
                while not order:
                    _PUMP_QUEUE.set(0)
                    wake.clear()
                    await wake.wait()
                _PUMP_QUEUE.set(len(order))
                item = order[0]
                reply, data, corrupter = item if isinstance(item, tuple) else await item
                order.popleft()
                try:
                    outq.push_frame(pump_scratch, reply, data, corrupter)
                    await writer.drain()
                except (OSError, ConnectionError):  # fault-ok: peer hung up mid-reply
                    return

        def _enqueue(item: Any) -> None:
            nonlocal pump
            order.append(item)
            if pump is None:
                pump = loop.create_task(_pump())
            wake.set()

        try:
            while True:
                try:
                    header, payload = await read_frame_async(reader)
                except WireVersionError as exc:
                    # Not a hang-up: the peer speaks another wire.  Count
                    # it, say so once, and close — there is no frame we
                    # could answer in that it would understand.
                    _BAD_FRAMES.labels(side="server", reason=exc.reason).inc()
                    logger.warning(
                        "%s: refusing connection from %s: %s",
                        self.peer_name, writer.get_extra_info("peername"), exc,
                    )
                    return
                except IntegrityError:
                    # Corrupted request frame.  The stream itself is back
                    # in sync (the full frame was consumed), but the
                    # request cannot be trusted — count the detection and
                    # drop the connection so the client redials and
                    # re-sends under its idempotency gate.
                    ioutil.count_integrity_error("rpc.server", "close")
                    return
                except (FrameError, OSError):  # fault-ok: peer hung up; normal teardown
                    return
                op = header.get("op", "")
                # The trace header never reaches handlers: popped here
                # whether or not tracing is active, so handler code sees
                # the same header dict either way.
                rctx = obs.context_from_wire(header.pop(TRACE_KEY, None))
                corrupter = None
                injector = faults.ACTIVE
                if injector is not None:
                    try:
                        # fire_async, not fire: a sync sleep for a delay
                        # rule here would stall every connection on the
                        # shared loop (the stall watchdog flags it).
                        verdict = await injector.fire_async("rpc.server", op, self.peer_name)
                    except faults.InjectedFault as exc:
                        reply = {"ok": False, "error": "injected-fault", "message": str(exc)}
                        if order:
                            _enqueue((reply, b"", None))
                            continue
                        try:
                            outq.push_frame(scratch, reply, b"")
                            await writer.drain()
                        except (OSError, ConnectionError):  # fault-ok: peer already gone
                            return
                        continue
                    if verdict == "corrupt":
                        # Serve the request but flip bits in the reply
                        # payload after checksumming (the pump applies it):
                        # the connection stays healthy, the data is wrong.
                        corrupter = injector
                    elif verdict is not None:
                        # "drop": swallow the request and close (FIN);
                        # "close": reset so the client's pending recv
                        # fails immediately.
                        if verdict == "close" and writer.transport is not None:
                            writer.transport.abort()
                        return
                entry = self._handlers.get(op)
                if (
                    not order
                    and not self.simulated_latency
                    and entry is not None
                    and entry[0] == "inline"
                ):
                    # Serial fast path: nothing in flight and the handler
                    # cannot block, so skip the task machinery — this is
                    # the common case for small-op request/reply traffic.
                    tracer = obs.get_tracer()
                    span = (
                        tracer.start_span(
                            "rpc.server", parent=rctx, op=op,
                            peer=self.peer_name, kind="inline",
                        )
                        if tracer.sink is not None
                        else None
                    )
                    t0 = loop.time()
                    try:
                        if span is not None:
                            with tracer.attach(span.context):
                                reply, data = entry[1](header, payload)
                        else:
                            reply, data = entry[1](header, payload)
                        reply = dict(reply)
                        reply.setdefault("ok", True)
                        _count_request(op, "ok")
                    except RpcError as exc:
                        reply, data = {"ok": False, "error": exc.kind, "message": exc.message}, b""
                        _count_request(op, "error")
                    except Exception as exc:  # noqa: BLE001 - reply with error
                        reply, data = (
                            {"ok": False, "error": type(exc).__name__, "message": str(exc)},
                            b"",
                        )
                        _count_request(op, "error")
                    self._engine.note_sync(op, loop.time() - t0)
                    if span is not None:
                        tracer.finish_span(
                            span, error=None if reply.get("ok") else str(reply.get("error"))
                        )
                    try:
                        outq.push_frame(scratch, reply, data, corrupter)
                        await writer.drain()
                    except (OSError, ConnectionError):  # fault-ok: peer hung up mid-reply
                        return
                    continue
                if len(order) >= _MAX_PIPELINE:
                    # Backpressure: stop reading until the oldest handler
                    # retires instead of buffering replies without bound.
                    head = order[0]
                    if isinstance(head, tuple):
                        await asyncio.sleep(0)  # pump drains it next pass
                    else:
                        await asyncio.wait({head})
                _PIPELINE_DEPTH.observe(len(order) + 1)
                _enqueue(
                    loop.create_task(
                        self._run_one(op, entry, header, payload, rctx, corrupter)
                    )
                )
        finally:
            with self._writers_lock:
                self._writers.discard(writer)
            if pump is not None:
                pump.cancel()
            for item in order:
                if not isinstance(item, tuple):
                    item.cancel()
            try:
                writer.close()
            except Exception:  # noqa: BLE001  # fault-ok: best-effort close on teardown
                pass


def _fail_pending(conn: "_Conn", exc: BaseException) -> None:
    """Fail every call still waiting for a reply on ``conn``."""
    while conn.pending:
        fut, _deadline = conn.pending.popleft()
        if not fut.done():
            fut.set_exception(exc)


class _Conn:
    """One client connection generation: stream pair + in-flight queue.

    Bundled so a reconnect swaps the whole generation atomically — the
    old reader task fails its own pending queue and can never touch the
    replacement connection's state.
    """

    __slots__ = ("reader", "writer", "outq", "pending", "task", "watchdog")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.outq = _FrameQueue(writer)
        self.pending: Deque[Tuple["asyncio.Future", float]] = deque()
        self.task: Optional["asyncio.Task"] = None
        self.watchdog: Optional["asyncio.TimerHandle"] = None


class AsyncRpcClient:
    """Asyncio-native RPC client: one connection, serial request/reply.

    The aio twin of the sync pooled ``RpcClient`` — identical
    retry/idempotency gating, wire-version refusal and ``rpc.client``
    fault hook, but callers hold a coroutine instead of a thread while
    a call is in flight.

    Unlike the sync client (one in-flight call per pooled connection),
    concurrent callers sharing one instance *pipeline*: the lock covers
    only the frame write, requests stream back-to-back on a single
    connection, and a per-connection reader task matches the strictly
    FIFO replies to caller futures.  That multiplexing — many in-flight
    ops, one socket, no thread or connection per op — is where the
    async engine's small-op throughput comes from.

    Must be used from a running event loop (any loop — not tied to the
    engine's).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self._addr = (host, port)
        self._peer = f"{host}:{port}"
        self._timeout = DEFAULT_RPC_TIMEOUT if timeout is None else timeout
        self._retry = retry if retry is not None else RetryPolicy()
        self._rng = random.Random()
        self._conn: Optional[_Conn] = None
        self._scratch = bytearray(256)
        self._lock = asyncio.Lock()  # connection setup + frame-write order
        self._closed = False

    async def call(
        self,
        op: str,
        header: Optional[Dict[str, Any]] = None,
        payload: bytes = b"",
        retryable: Optional[bool] = None,
        parent: Optional[obs.SpanContext] = None,
    ) -> Tuple[Dict[str, Any], bytes]:
        """One round trip.  ``parent`` is the span the call belongs to,
        for a caller on another thread; by default this thread's own."""
        msg = dict(header or {})
        msg["op"] = op
        _count_call(op)
        tracer = obs.get_tracer()
        span = None
        if tracer.sink is not None:
            # Stack-free: concurrent callers pipeline on one loop
            # thread, so the TLS stack cannot hold per-call spans.
            span = tracer.start_span(
                "rpc.client", parent=parent or tracer.current_context(), op=op, peer=self._peer
            )
            msg[TRACE_KEY] = span.context.to_wire()
        try:
            reply, data = await self._call_with_retry(op, msg, payload, retryable)
        except BaseException as exc:
            if span is not None:
                tracer.finish_span(span, error=f"{type(exc).__name__}: {exc}")
            raise
        if span is not None:
            tracer.finish_span(span)
        return reply, data

    async def _call_with_retry(
        self,
        op: str,
        msg: Dict[str, Any],
        payload: bytes,
        retryable: Optional[bool],
    ) -> Tuple[Dict[str, Any], bytes]:
        if retryable is None:
            retryable = op in IDEMPOTENT_OPS
        attempts = 1 + (self._retry.retries if retryable else 0)
        attempt = 0
        while True:
            attempt += 1
            try:
                return await self._dispatch(op, msg, payload)
            except (OSError, FrameError, asyncio.TimeoutError) as exc:
                if self._closed:
                    # close() failed the call: not a transport fault to
                    # count, and no retry can succeed.
                    raise ClientClosedError(f"client to {self._peer} is closed") from exc
                self._teardown()
                if not count_client_failure(op, exc):
                    raise
                if attempt >= attempts:
                    if isinstance(exc, asyncio.TimeoutError):
                        raise TimeoutError(
                            f"RPC {op} to {self._peer} timed out"
                        ) from exc
                    raise
                _CLIENT_RETRIES.labels(op=op).inc()
                await asyncio.sleep(self._retry.backoff(attempt, self._rng))

    async def _dispatch(
        self, op: str, msg: Dict[str, Any], payload: bytes
    ) -> Tuple[Dict[str, Any], bytes]:
        """Queue one request and await its reply.

        The lock covers connect + frame write only, so concurrent
        callers pipeline on one connection (replies are FIFO per the
        framing contract).
        """
        async with self._lock:
            if self._closed:
                raise ClientClosedError(f"client to {self._peer} is closed")
            loop = asyncio.get_running_loop()
            if self._conn is None:
                if self._timeout:
                    async with asyncio.timeout(self._timeout):
                        await self._connect()
                else:
                    await self._connect()
            conn = self._conn
            corrupter = None
            injector = faults.ACTIVE
            if injector is not None:
                # fire_async: this coroutine runs on the caller's loop, so
                # a sync sleep for a delay rule would stall every
                # pipelined call sharing it.
                verdict = await injector.fire_async("rpc.client", op, self._peer)
                if verdict == "corrupt":
                    # Flip bits in the outgoing request payload after
                    # checksumming (applied in push_frame): only the
                    # server's CRC check can notice.
                    corrupter = injector
                elif verdict is not None and conn.writer.transport is not None:
                    # Kill the connection under the call so the real
                    # send/recv path fails organically (same as sync client).
                    conn.writer.transport.abort()
                if conn is not self._conn:
                    # Its reader ended during the await: nothing would
                    # ever fail a future queued on it.
                    raise ConnectionError(f"connection to {self._peer} closed")
            fut = loop.create_future()
            deadline = (loop.time() + self._timeout) if self._timeout else 0.0
            conn.pending.append((fut, deadline))
            if self._timeout and conn.watchdog is None:
                # One timer per connection, not per call: replies are
                # FIFO, so the earliest un-met deadline is always the
                # queue head — arming a timer per call would just churn
                # the loop's timer heap.
                conn.watchdog = loop.call_later(
                    self._timeout, self._watchdog_fire, conn
                )
            conn.outq.push_frame(self._scratch, msg, payload, corrupter)
            try:
                await conn.writer.drain()
            except BaseException:
                fut.cancel()  # the caller handles this error; nothing awaits fut
                raise
        reply, data = await fut
        if not reply.get("ok", False):
            kind = reply.get("error", "remote-error")
            _CLIENT_ERRORS.labels(op=op, kind=kind).inc()
            raise RpcError(kind, reply.get("message", ""))
        return reply, data

    async def _connect(self) -> None:
        reader, writer = await asyncio.open_connection(*self._addr)
        _set_nodelay(writer)
        conn = _Conn(reader, writer)
        conn.task = asyncio.get_running_loop().create_task(self._recv_loop(conn))
        self._conn = conn

    def _watchdog_fire(self, conn: "_Conn") -> None:
        """Fail the connection when the oldest in-flight call is overdue.

        FIFO replies mean a stuck head blocks everything behind it, so
        timing out the whole connection (not just the head call) is the
        correct granularity — exactly what the sync client's per-socket
        timeout does.
        """
        conn.watchdog = None
        loop = asyncio.get_running_loop()
        now = loop.time()
        for fut, deadline in conn.pending:
            if fut.done():
                continue  # abandoned by a cancelled caller; recv will skip it
            if deadline <= now:
                fut.set_exception(
                    asyncio.TimeoutError(f"RPC to {self._peer} timed out")
                )
                if conn is self._conn:
                    self._teardown()
                else:
                    conn.writer.close()
            else:
                conn.watchdog = loop.call_later(
                    deadline - now, self._watchdog_fire, conn
                )
            return

    async def _recv_loop(self, conn: "_Conn") -> None:
        """Single reader per connection: match FIFO replies to futures.

        On any connection error every in-flight call fails with it; the
        per-call retry loops decide what to do from there.  The dead
        connection is detached too, so a call made while nothing was in
        flight redials instead of writing into it and waiting out the
        watchdog.
        """
        exc: Optional[BaseException] = None
        try:
            while True:
                reply, data = await read_frame_async(conn.reader)
                fut, _deadline = conn.pending.popleft()
                if not fut.done():  # timed-out callers abandon cancelled futures
                    fut.set_result((reply, data))
        except (OSError, FrameError, IndexError) as err:  # fault-ok: conn died; callers retry
            exc = err
        except asyncio.CancelledError:  # teardown cancelled us mid-read
            exc = None
        finally:
            _fail_pending(conn, exc or ConnectionError(f"connection to {self._peer} closed"))
            if conn is self._conn:
                self._teardown()  # also cancels this task, which is ending anyway

    def _teardown(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            if conn.task is not None:
                conn.task.cancel()
            if conn.watchdog is not None:
                conn.watchdog.cancel()
                conn.watchdog = None
            try:
                conn.writer.close()
            except Exception:  # noqa: BLE001  # fault-ok: best-effort close
                pass
            # A reader task cancelled before its first step never runs
            # its ``finally``: fail its calls here, or they wait forever.
            _fail_pending(conn, ConnectionError(f"connection to {self._peer} closed"))

    async def close(self) -> None:
        async with self._lock:
            self._closed = True
            self._teardown()

    async def __aenter__(self) -> "AsyncRpcClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
