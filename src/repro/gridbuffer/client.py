"""Client-side Grid Buffer API.

Two layers:

* :class:`GridBufferClient` — thin RPC mirror of the service methods,
  one per (process, server) pair.  Control calls share a *pooled*
  :class:`~repro.transport.tcp.RpcClient`, so concurrent calls fly in
  parallel instead of serialising behind one connection lock; writes
  pipeline on a :class:`_WriteChannel` per open writer.  The op set is
  fixed by the wire version, so the vectored ops (``gb.write_multi``,
  ``gb.read_multi``, ``gb.consume_multi``) are always available; an
  ``unknown-op`` reply is an error like any other and propagates.
* :class:`BufferWriter` / :class:`BufferReader` — file-like adapters
  the FM's Grid Buffer Client uses.  There is one stream path: the
  writer always coalesces writes into batched vectored RPCs behind a
  *bounded flush deadline* (downstream visibility lags by at most the
  deadline) and keeps a window of batches in flight, and the reader
  always keeps a window of ``gb.read_multi`` requests in flight.  One
  rule, :class:`_WindowRule`, sizes both windows from their measured
  delivery rate and smallest round trip; only caps on what it picks
  are arguments, and neither half can be switched off.

Both windows are futures on the engine loop, never threads: the writer
pipelines on its :class:`_WriteChannel`, the reader on one
:class:`~repro.transport.aio.AsyncRpcClient` connection of its own.
The reads the window does not cover are fetched inline on the caller's
thread over a second, one-socket connection, so a request parked
server-side never head-of-line blocks the caller's own fetch; one
recovery path redials and resumes after any fetch fails.  Every reader,
a broadcast stream's included, fetches its bytes from its buffer server
over these two connections and nothing else.
"""

from __future__ import annotations

import asyncio
import io
import os
import threading
import time
import uuid
from collections import deque
from concurrent.futures import Future, wait
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..ioutil import ReadIntoFromRead
from ..transport.aio import AsyncRpcClient, close_at_exit, get_engine
from ..transport.rate import DeliveryRate
from ..transport.tcp import PoolTimeout, RpcClient, RpcError
from .protocol import (
    DEFAULT_READ_BUDGET,
    OP_ABORT,
    OP_CLOSE_WRITER,
    OP_CONSUME_MULTI,
    OP_CREATE,
    OP_DROP,
    OP_HIGH_WATER,
    OP_READ_MULTI,
    OP_REGISTER_READER,
    OP_RESUME,
    OP_STATS,
    OP_WRITE,
    OP_WRITE_MULTI,
)

__all__ = ["GridBufferClient", "BufferWriter", "BufferReader"]


#: Default upper bound (seconds) on how long coalesced writer bytes may
#: stay local before the deadline timer pushes them.
_FLUSH_DEADLINE = 0.02

#: The clock every window measures round trips and delivery rate with.
_clock = time.perf_counter


_READAHEAD_HITS = obs.counter(
    "buffer_readahead_hits_total",
    "Client reads served from the read-ahead window",
    labelnames=("stream",),
)
_WRITE_RPCS = obs.counter(
    "buffer_write_rpcs_total",
    "WRITE RPCs issued by client-side writers",
    labelnames=("stream",),
)
_DEADLINE_FLUSHES = obs.counter(
    "buffer_flush_deadline_total",
    "Coalesced writer runs pushed out by the flush deadline",
    labelnames=("stream",),
)
_READER_RESUMES = obs.counter(
    "buffer_reader_resumes_total",
    "Reader connections re-established (redial + re-register + resume)",
    labelnames=("stream",),
)
_WRITER_ABORTS = obs.counter(
    "buffer_writer_aborts_total",
    "Streams marked failed by a writer-side abort",
    labelnames=("stream",),
)

#: A window socket outlives the reader's server-side read deadline by
#: this much; past it a silent connection counts as dead.  The transport
#: retries the timeout, so a silent server reaches reader recovery after
#: ``1 + retries`` socket timeouts plus backoff, and fails a read after
#: twice that.
_DEADLINE_MARGIN = 5.0


# ---------------------------------------------------------------------------
# The window rule (both directions)
# ---------------------------------------------------------------------------


class _WindowRule:
    """How large and how deep a stream window runs: one rule, both halves.

    Inputs, measured on every reply by a
    :class:`~repro.transport.rate.DeliveryRate`: the delivery rate over
    the whole window (the largest of the last :attr:`RATE_SAMPLES`
    samples, so a consumer that pauses does not shrink the window) and
    the smallest round trip seen.

    Outputs, read by the window before each request:

    * :attr:`span` — the reader's chunk, the writer's batch — from the
      rate (:attr:`SPANS`), so a fast, CPU-bound link keeps large spans
      and amortises per-frame cost.  A tier is left downwards only
      once the rate falls below half the ceiling under it, so a rate
      that hovers at a boundary does not flip the span;
    * :attr:`depth` — requests in flight — ``GAIN`` × rate × min RTT
      over the span, never below :attr:`MIN_DEPTH`.

    Bytes in flight are capped by :attr:`WINDOW_BYTES`, the per-stream
    memory bound (four spans may exceed it: the floor wins), and by the
    stream's ``capacity`` when known, where the server's stall reply
    stays the backpressure.  On a link whose smallest round trip
    exceeds :attr:`LATENCY_RTT` the window fills that bound, so bigger
    spans would raise its memory, not its rate: the span stops at
    :attr:`LATENCY_SPAN`.  This also keeps the rule from settling on
    four large spans there, whose rate would then justify them.  The
    threshold reads the box as well as the link: where a loopback round
    trip exceeds it (a loaded box, or one under a line tracer), a link
    without latency stops at that span too, which cost ``stream_lan``
    39% in ``read_call_p50_us`` when forced.

    Before the first sample, and after :meth:`collapse`, the window runs
    one request of :attr:`START_SPAN`: the first reply sizes it, and a
    short stream pays for no fetches past its end.
    Thread-safe: replies arrive on the engine loop while the owner reads
    the sizes.
    """

    #: (delivery-rate ceiling in bytes/s, span) — first match wins.
    SPANS = (
        (1 << 20, 16 * 1024),     # < 1 MB/s: keep replies snappy
        (8 << 20, 64 * 1024),     # < 8 MB/s
        (64 << 20, 128 * 1024),   # < 64 MB/s
    )
    #: Span above the top tier.
    TOP_SPAN = 1024 * 1024
    #: Span before the first sample.
    START_SPAN = 64 * 1024
    #: Requests in flight at least — BBR's four-packet floor.
    MIN_DEPTH = 4
    #: Bytes in flight over the bandwidth-delay product.
    GAIN = 2
    #: Per-stream memory bound on bytes in flight.
    WINDOW_BYTES = 1024 * 1024
    #: Largest span on a link with latency.
    LATENCY_SPAN = 128 * 1024
    #: Smallest round trip, in seconds, of a link with latency.
    LATENCY_RTT = 0.008
    #: Rate samples the estimate keeps.
    RATE_SAMPLES = DeliveryRate.RATE_SAMPLES

    def __init__(
        self, max_span: int, max_depth: Optional[int] = None, capacity: Optional[int] = None
    ):
        self._max_span = max(1, max_span)
        self._max_depth = max_depth
        self._capacity = capacity
        self._lock = threading.Lock()
        self._link = DeliveryRate(lambda: _clock())  # looked up per call: tests script it
        self.collapse()

    @property
    def rate(self) -> float:
        """Delivery-rate estimate in bytes/s (0 before the first sample)."""
        return self._link.rate

    @property
    def min_rtt(self) -> float:
        return self._link.min_rtt

    def collapse(self) -> None:
        """Forget the estimates (a seek): back to the start sizes.
        Replies to requests sent before this yield no samples."""
        with self._lock:
            self._link.reset()
            self._tier = 0
            self._resize_locked()

    def sent(self) -> Tuple[int, int, float, float]:
        """A request leaves; pass the token to :meth:`delivered`."""
        return self._link.sent()

    def delivered(self, token: Tuple[int, int, float, float], nbytes: Optional[int]) -> None:
        """The reply to ``token`` arrived with ``nbytes`` (None: it failed)."""
        if self._link.delivered(token, nbytes):
            with self._lock:
                self._resize_locked()

    def _tier_span(self, rate: float) -> int:
        return next((s for ceiling, s in self.SPANS if rate < ceiling), self.TOP_SPAN)

    def _resize_locked(self) -> None:
        rate = self.rate
        if not rate:
            span, depth = self.START_SPAN, 1
        else:
            span = self._tier_span(rate)
            if span < self._tier:  # down a tier only well below its ceiling
                span = min(self._tier, self._tier_span(2 * rate))
            self._tier = span
            if self.min_rtt > self.LATENCY_RTT:
                span = min(span, self.LATENCY_SPAN)
            span = min(span, self._max_span)
            want = self.GAIN * rate * self.min_rtt
            depth = max(self.MIN_DEPTH, -(-int(want) // span))
            depth = min(depth, max(self.MIN_DEPTH, self.WINDOW_BYTES // span))
        span = min(span, self._max_span)
        if self._capacity:
            span = min(span, self._capacity)
            depth = min(depth, max(1, self._capacity // span))
        if self._max_depth:
            depth = min(depth, self._max_depth)
        self.span, self.depth = span, depth


def _read_header(
    name: str, reader_id: str, offset: int, budget: int, min_bytes: int, timeout: Optional[float]
) -> Dict[str, Any]:
    """The ``gb.read_multi`` request header, for either connection."""
    return {
        "name": name,
        "reader_id": reader_id,
        "offset": offset,
        "budget": budget,
        "min_bytes": min_bytes,
        "timeout": timeout,
    }


def _reply_total(reply: Dict[str, Any]) -> Optional[int]:
    total = reply.get("total")
    return int(total) if total is not None else None


# ---------------------------------------------------------------------------
# RPC mirror
# ---------------------------------------------------------------------------


class GridBufferClient:
    """RPC client for one Grid Buffer server.

    ``monitor``/``peer`` optionally feed every data-plane round trip
    into a :class:`~repro.core.trace.TransferMonitor`, the FM's link
    estimates.  The stream windows do not read it: each measures its own
    delivery rate (:class:`_WindowRule`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        max_connections: Optional[int] = None,
        monitor: Optional[Any] = None,
        peer: Optional[str] = None,
    ):
        self._addr = (host, port)
        self._timeout = timeout
        self._rpc = RpcClient(host, port, timeout=timeout, max_connections=max_connections)
        self.monitor = monitor
        self.peer = peer or host
        # Drained write channels for the next writer, which keeps a dial
        # (~0.3 ms on loopback) off a new stream's first batch; None once
        # closed.
        self._idle_channels: Optional[List[_WriteChannel]] = []
        self._channels_lock = threading.Lock()

    @property
    def address(self) -> Tuple[str, int]:
        return self._addr

    def _record(self, op: str, nbytes: int, seconds: float) -> None:
        if self.monitor is not None:
            self.monitor.record(self.peer, op, nbytes, seconds)

    # -- service mirror ----------------------------------------------------
    def create_stream(
        self,
        name: str,
        n_readers: int = 1,
        capacity_bytes: Optional[int] = None,
        cache: bool = False,
    ) -> None:
        self._rpc.call(
            OP_CREATE,
            {
                "name": name,
                "n_readers": n_readers,
                "capacity_bytes": capacity_bytes,
                "cache": cache,
            },
        )

    def register_reader(self, name: str, reader_id: str) -> int:
        """Attach a reader; returns the stream generation."""
        return self.register_reader_ex(name, reader_id)

    def register_reader_ex(
        self,
        name: str,
        reader_id: str,
        n_readers: Optional[int] = None,
        capacity_bytes: Optional[int] = None,
        cache: bool = False,
    ) -> int:
        """The ``gb.register_reader`` round trip behind :meth:`register_reader`.

        With ``n_readers`` the frame also carries the stream's config,
        and the server creates the stream first if it is absent.
        """
        header: Dict[str, Any] = {"name": name, "reader_id": reader_id}
        if n_readers is not None:
            header.update(n_readers=n_readers, capacity_bytes=capacity_bytes, cache=cache)
        reply, _ = self._rpc.call(OP_REGISTER_READER, header)
        return int(reply["gen"])

    def write(
        self, name: str, offset: int, data: bytes, timeout: Optional[float] = None
    ) -> Optional[str]:
        """Store one block; returns the server's stall reason, if any."""
        return self.write_multi(name, [(offset, data)], timeout)

    def write_multi(
        self,
        name: str,
        runs: Sequence[Tuple[int, bytes]],
        timeout: Optional[float] = None,
    ) -> Optional[str]:
        """Scatter several blocks in one frame and wait for the reply.

        Returns the backpressure verdict from the reply header —
        ``"buffer_full"``/``"slow_reader"`` when the server had to stall
        this batch, ``None`` when it landed cleanly.
        """
        channel = self._take_channel()
        try:
            return channel.send(name, runs, timeout).result()
        finally:
            self._give_channel(channel)

    def _take_channel(self) -> "_WriteChannel":
        with self._channels_lock:
            if self._idle_channels:
                return self._idle_channels.pop()
        return _WriteChannel(self)

    def _give_channel(self, channel: "_WriteChannel", drained: bool = True) -> None:
        """Park a drained channel for the next writer; close any other,
        whose late replies would queue ahead of the next writer's."""
        with self._channels_lock:
            if drained and self._idle_channels is not None:
                self._idle_channels.append(channel)
                return
        channel.close()

    def read_window_ex(
        self,
        name: str,
        reader_id: str,
        offset: int,
        budget: int,
        min_bytes: int = 1,
        timeout: Optional[float] = None,
        rpc: Optional[RpcClient] = None,
    ) -> Tuple[bytes, Optional[int]]:
        """Windowed read: ``(data, stream_total_if_known)``.

        One reply carries as many contiguous bytes as the server has
        available at ``offset`` up to ``budget``, blocking only while
        fewer than ``min_bytes`` are.  ``total`` is the stream length
        once the writer closed, which is how readers learn EOF.
        """
        header = _read_header(name, reader_id, offset, budget, min_bytes, timeout)
        t0 = time.perf_counter()
        reply, data = (rpc or self._rpc).call(OP_READ_MULTI, header)
        self._record("read_multi", len(data), time.perf_counter() - t0)
        return data, _reply_total(reply)

    def consume_multi(
        self, name: str, entries: Sequence[Tuple[str, Sequence[Sequence[int]]]]
    ) -> None:
        """Mark ranges consumed without reading them, several readers a frame.

        ``entries`` is a list of ``(reader_id, ranges)`` pairs.
        """
        self.consume_multi_ex(name, entries)

    def consume_multi_ex(
        self, name: str, entries: Sequence[Tuple[str, Sequence[Sequence[int]]]]
    ) -> None:
        """The ``gb.consume_multi`` round trip behind :meth:`consume_multi`."""
        if not entries:
            return
        header: Dict[str, Any] = {
            "name": name,
            "entries": [
                [rid, [[int(s), int(e)] for s, e in ranges]] for rid, ranges in entries
            ],
        }
        self._rpc.call(OP_CONSUME_MULTI, header)

    def close_writer(self, name: str) -> int:
        reply, _ = self._rpc.call(OP_CLOSE_WRITER, {"name": name})
        return int(reply["total"])

    def stats(self, name: str) -> Dict[str, Any]:
        reply, _ = self._rpc.call(OP_STATS, {"name": name})
        return dict(reply["stats"])

    def drop_stream(self, name: str) -> None:
        self._rpc.call(OP_DROP, {"name": name})

    def abort_writer(self, name: str, reason: str = "writer aborted") -> None:
        self._rpc.call(OP_ABORT, {"name": name, "reason": reason})

    def resume_writer(self, name: str) -> int:
        """Clear a failure; returns the offset to resume writing from."""
        reply, _ = self._rpc.call(OP_RESUME, {"name": name})
        return int(reply["offset"])

    def high_water(self, name: str) -> int:
        reply, _ = self._rpc.call(OP_HIGH_WATER, {"name": name})
        return int(reply["offset"])

    # -- file-like adapters ----------------------------------------------------
    def open_writer(
        self,
        name: str,
        n_readers: int = 1,
        capacity_bytes: Optional[int] = None,
        cache: bool = False,
        write_timeout: Optional[float] = None,
        coalesce_bytes: int = _WindowRule.TOP_SPAN,
        flush_after: float = _FLUSH_DEADLINE,
    ) -> "BufferWriter":
        """Create (idempotently) and open a stream for writing.

        ``coalesce_bytes`` is the largest batch the window rule may pick.
        """
        if coalesce_bytes < 1:
            raise ValueError("coalesce_bytes must be >= 1")
        self.create_stream(name, n_readers=n_readers, capacity_bytes=capacity_bytes, cache=cache)
        return BufferWriter(
            self,
            name,
            write_timeout=write_timeout,
            coalesce_bytes=coalesce_bytes,
            flush_after=flush_after,
            capacity_bytes=capacity_bytes,
        )

    def open_reader(
        self,
        name: str,
        reader_id: Optional[str] = None,
        read_timeout: Optional[float] = None,
        n_readers: Optional[int] = None,
        capacity_bytes: Optional[int] = None,
        cache: bool = False,
        read_ahead_bytes: int = _WindowRule.TOP_SPAN,
        read_ahead_depth: Optional[int] = None,
    ) -> "BufferReader":
        """Attach a reader in one round trip.

        A reader may open before the writer (the paper's FM blocks the
        legacy OPEN until matched).  Given the stream's config
        (``n_readers`` and, like :meth:`open_writer`, ``capacity_bytes``
        and ``cache``), the register creates the stream if it is absent;
        without it, the stream must already exist.  ``read_ahead_bytes``
        and ``read_ahead_depth`` only cap the span and depth the window
        rule picks.
        """
        rid = reader_id or f"reader-{uuid.uuid4().hex[:8]}"
        gen = self.register_reader_ex(
            name, rid, n_readers=n_readers, capacity_bytes=capacity_bytes, cache=cache
        )
        return BufferReader(
            self,
            name,
            rid,
            read_timeout=read_timeout,
            read_ahead_bytes=read_ahead_bytes,
            read_ahead_depth=read_ahead_depth,
            gen=gen,
        )

    def close(self) -> None:
        self._rpc.close()
        with self._channels_lock:
            idle, self._idle_channels = self._idle_channels or [], None
        for channel in idle:
            channel.close()

    def __enter__(self) -> "GridBufferClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Writer side
# ---------------------------------------------------------------------------


class _RunBatcher:
    """Multi-run write-behind buffer flushed as one vectored RPC.

    Contiguous writes extend the active run; a scattered write opens a
    new run instead of forcing a flush (the vectored ``gb.write_multi``
    carries all runs in one frame).  The batch is pushed when it
    reaches ``limit`` bytes (the owner keeps it at its window's span),
    on an explicit flush, or by the owning writer's deadline timer.
    A batch never holds more than ``limit`` bytes: a longer write is cut
    into ``limit``-sized batches, since the server refuses any run
    longer than the stream's capacity.  Each run's buffer goes out as
    is: the batcher starts fresh ones.
    """

    def __init__(self, flush_fn, limit: int):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self._flush_fn = flush_fn  # callable(list[(offset, bytearray)])
        self.limit = limit
        self._runs: List[List[Any]] = []  # [start, bytearray]
        self._bytes = 0
        self.flushes = 0           # batch RPCs issued
        self.writes_coalesced = 0  # WRITE calls absorbed without an RPC

    @property
    def pending_bytes(self) -> int:
        return self._bytes

    def discard(self) -> None:
        """Drop pending runs without flushing (writer abort path)."""
        self._runs = []
        self._bytes = 0

    def write(self, offset: int, data: bytes) -> None:
        view = memoryview(data)
        while view:
            piece = view[: self.limit - self._bytes]
            if self._runs and offset == self._runs[-1][0] + len(self._runs[-1][1]):
                self._runs[-1][1] += piece
                self.writes_coalesced += 1
            else:
                self._runs.append([offset, bytearray(piece)])
            self._bytes += len(piece)
            offset += len(piece)
            view = view[len(piece) :]
            if self._bytes >= self.limit:
                self.flush()

    def flush(self) -> None:
        if not self._runs:
            return
        runs = [(start, buf) for start, buf in self._runs]
        self._runs = []
        self._bytes = 0
        self._flush_fn(runs)
        self.flushes += 1


class _WriteChannel:
    """A write connection: every write batch leaves through :meth:`send`.

    Batches pipeline on one :class:`~repro.transport.aio.AsyncRpcClient`
    on the engine loop, so a writer keeps futures in flight, not threads.
    Replies come back in request order, so a channel serves one writer at
    a time: a batch parked on a full stream holds every later reply.  Its
    (token, seq) pair makes a retried batch a no-op even when it lands
    after later ones.  Not thread-safe; its holder's lock serialises it.
    """

    def __init__(self, client: GridBufferClient) -> None:
        self._client = client
        self._rpc = AsyncRpcClient(*client.address, timeout=client._timeout)
        self._token = uuid.uuid4().hex[:12]
        self._seq = 0

    def send(
        self, name: str, runs: Sequence[Tuple[int, bytes]], timeout: Optional[float] = None
    ) -> "Future[Optional[str]]":
        """Send one batch (a lone run as ``gb.write``, several as
        ``gb.write_multi``); the future resolves to its stall verdict."""
        self._seq += 1
        header: Dict[str, Any] = {
            "name": name, "timeout": timeout, "token": self._token, "seq": self._seq
        }
        if len(runs) == 1:
            op, (header["offset"], payload) = OP_WRITE, runs[0]
        else:
            op = OP_WRITE_MULTI
            header["offsets"] = [offset for offset, _ in runs]
            header["sizes"] = [len(data) for _, data in runs]
            payload = b"".join(data for _, data in runs)
        return get_engine().submit(self._send(op, header, payload, obs.current_context()))

    async def _send(
        self, op: str, header: Dict[str, Any], payload: bytes, ctx: Optional[obs.SpanContext]
    ) -> Optional[str]:
        t0 = time.perf_counter()
        reply, _ = await self._rpc.call(op, header, payload, retryable=True, parent=ctx)
        self._client._record(op.partition(".")[2], len(payload), time.perf_counter() - t0)
        return reply.get("stall")

    def close(self) -> None:
        """Close the connection; a batch still in flight fails."""
        get_engine().submit(self._rpc.close()).result(timeout=5.0)


class BufferWriter(io.RawIOBase):
    """File-like writer feeding a Grid Buffer stream.

    Writes are buffered locally and pushed as *batched vectored RPCs*:
    contiguous runs merge, scattered runs ride the same
    ``gb.write_multi`` frame.  Coalescing is safe because a deadline
    bounds how long bytes stay local (``flush_after`` seconds, 20 ms by
    default) — a downstream blocking reader sees new data within the
    deadline even mid-run, which keeps tightly pipelined streams tight.
    The deadline is a timer on the engine loop, armed when bytes go
    pending, not a thread.  ``flush_after=0`` disables the deadline
    (flush only on size/flush/close).

    The writer's :class:`_WindowRule` sizes both the batch (its span,
    at most ``coalesce_bytes``) and how many batches are in flight at
    once on the writer's own :class:`_WriteChannel`, from the delivery
    rate of the batches' replies, and caps the bytes in flight at the
    stream's ``capacity_bytes``; a stall reply is the server's
    backpressure and simply arrives late.  :meth:`flush` and
    :meth:`close` drain the window; the deadline timer only adds to it,
    and only while the window has room.  A batch that fails beyond the
    transport's retries fails the writer: the next :meth:`write`,
    :meth:`flush` or :meth:`close` raises it, and :meth:`close` then
    marks the stream failed rather than end it with a hole.
    """

    def __init__(
        self,
        client: GridBufferClient,
        name: str,
        write_timeout: Optional[float] = None,
        coalesce_bytes: int = _WindowRule.TOP_SPAN,
        flush_after: float = _FLUSH_DEADLINE,
        capacity_bytes: Optional[int] = None,
    ):
        super().__init__()
        self._client = client
        self.name = name
        self._pos = 0
        self._timeout = write_timeout
        self._closed_writer = False
        self._lock = threading.Lock()
        self._m_write_rpcs = _WRITE_RPCS.labels(stream=name)
        self._m_deadline_flushes = _DEADLINE_FLUSHES.labels(stream=name)
        self._rule = _WindowRule(coalesce_bytes, capacity=capacity_bytes)
        self._coalescer = _RunBatcher(self._push_runs, self._rule.span)
        self._channel = client._take_channel()
        # The window: replies not yet reaped, oldest first.  Guarded by
        # _lock like everything else.
        self._inflight: Deque[Future] = deque()
        self._error: Optional[Exception] = None
        self._flush_after = max(0.0, flush_after)
        self._pending_since = 0.0
        self._deadline_armed = False
        # Deadline flushes issue write RPCs from the engine loop; adopt
        # the opener's span context so those rpc.client spans still
        # join the workflow trace.
        self._trace_ctx = obs.current_context()
        close_at_exit(self)

    def _push_runs(self, runs: List[Tuple[int, bytes]]) -> None:
        """The batcher's flush: wait for a free window slot, then send."""
        while len(self._inflight) >= self._rule.depth:
            self._reap()
        if self._error is None:  # a failed writer sends no more; its next call raises
            nbytes = sum(len(data) for _, data in runs)
            token = self._rule.sent()
            fut = self._channel.send(self.name, runs, timeout=self._timeout)
            fut.add_done_callback(
                lambda f: self._rule.delivered(
                    token, None if f.cancelled() or f.exception() else nbytes
                )
            )
            self._inflight.append(fut)
            self._m_write_rpcs.inc()
        self._coalescer.limit = self._rule.span

    def _reap(self) -> None:
        """Wait for the oldest batch; a failure is kept for the next call."""
        try:
            self._inflight.popleft().result()
        except Exception as exc:  # noqa: BLE001 - kept; raised by the writer's next call
            self._error = self._error or exc

    def _drain(self) -> None:
        """Reap every batch in flight; raise the writer's failure, if any."""
        while self._inflight:
            self._reap()
        if self._error is not None:
            raise self._error

    def _arm_deadline(self) -> None:
        """Bytes went pending: flush them by the deadline (writer lock held)."""
        self._pending_since = time.monotonic()
        if self._flush_after > 0 and not self._deadline_armed:
            self._deadline_armed = True
            loop = get_engine().loop
            loop.call_soon_threadsafe(loop.call_later, self._flush_after, self._on_deadline)

    def _on_deadline(self) -> None:
        """The flush deadline, a timer on the loop that resolves this
        writer's replies, so it never blocks: a busy lock or a full
        window re-arms it, and it reaps only batches already landed."""
        loop = asyncio.get_running_loop()
        if not self._lock.acquire(blocking=False):
            loop.call_later(self._flush_after, self._on_deadline)
            return
        try:
            if self._closed_writer or not self._coalescer.pending_bytes:
                self._deadline_armed = False
                return
            due = self._pending_since + self._flush_after - time.monotonic()
            if due > 0:  # these bytes went pending after the timer was set
                loop.call_later(due, self._on_deadline)
                return
            while self._inflight and self._inflight[0].done():
                self._reap()
            if len(self._inflight) >= self._rule.depth:
                loop.call_later(self._flush_after, self._on_deadline)
                return
            with obs.attach(self._trace_ctx):
                self._coalescer.flush()
            self._m_deadline_flushes.inc()
            self._deadline_armed = False
        finally:
            self._lock.release()

    @property
    def rpc_writes(self) -> int:
        """Write RPCs actually issued (one per flushed batch)."""
        return self._coalescer.flushes

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:  # type: ignore[override]
        data = bytes(data)
        with self._lock:
            if self._closed_writer:
                raise ValueError("write to closed BufferWriter")
            if data:
                had_pending = self._coalescer.pending_bytes > 0
                self._coalescer.write(self._pos, data)
                if self._coalescer.pending_bytes and not had_pending:
                    self._arm_deadline()
                self._pos += len(data)
            if self._error is not None:
                raise self._error
        return len(data)

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:  # type: ignore[override]
        with self._lock:
            # Seeks no longer force a flush: a scattered write simply
            # opens a new run in the same vectored batch.
            if whence == os.SEEK_SET:
                self._pos = offset
            elif whence == os.SEEK_CUR:
                self._pos += offset
            else:
                raise OSError("SEEK_END unsupported on a stream writer")
            if self._pos < 0:
                raise ValueError("negative seek position")
            return self._pos

    def seekable(self) -> bool:
        return True

    def tell(self) -> int:
        return self._pos

    def flush(self) -> None:  # type: ignore[override]
        with self._lock:
            if not self._closed_writer:
                self._coalescer.flush()
                self._drain()
        super().flush()

    def abort(self, reason: str = "writer aborted") -> None:
        """Fail the stream instead of finalising it.

        Unlike :meth:`close` no EOF is written: pending coalesced bytes
        are dropped and the stream is marked failed server-side, so
        blocking readers raise ``StreamFailed`` instead of hanging
        forever — or, worse, seeing a truncated stream that looks
        complete.  Idempotent; a later :meth:`close` is a no-op.
        """
        with self._lock:
            if self._closed_writer:
                return
            self._closed_writer = True
            self._coalescer.discard()
            # Batches in flight stay unread: their replies no longer matter.
            self._client._give_channel(self._channel, drained=not self._inflight)
        self._fail_stream(reason)
        super().close()

    def _fail_stream(self, reason: str) -> None:
        _WRITER_ABORTS.labels(stream=self.name).inc()
        try:
            self._client.abort_writer(self.name, reason)
        except (OSError, RpcError) as exc:
            # The abort signal is best-effort — the server may be the
            # very thing that died; readers then surface their own
            # connection errors instead of a clean StreamFailed.
            obs.event("gb.abort_failed", stream=self.name, error=str(exc))

    def close(self) -> None:
        with self._lock:
            if not self._closed_writer:
                self._closed_writer = True
                try:
                    self._coalescer.flush()
                    self._drain()
                except Exception as exc:
                    # A lost batch leaves a hole: EOF would truncate the
                    # stream or fail on the gap, so fail it for readers.
                    self._fail_stream(f"writer failed: {exc}")
                    raise
                finally:
                    self._client._give_channel(self._channel, drained=not self._inflight)
                self._client.close_writer(self.name)
        super().close()


# ---------------------------------------------------------------------------
# Reader side
# ---------------------------------------------------------------------------


class _ReadAheadWindow:
    """A reader's window: ``gb.read_multi`` futures on the engine loop.

    Keeps requests in flight ahead of the consumer, sized by a
    :class:`_WindowRule` from the window's delivery rate: span (at most
    ``chunk_bytes``) and depth (at most ``max_depth``, when given).  A
    seek collapses the rule back to its start sizes.  Each window fetch
    is a coroutine submitted to :func:`~repro.transport.aio.get_engine`
    on the window's one :class:`~repro.transport.aio.AsyncRpcClient`
    connection, in the model of :class:`_WriteChannel`: no thread per
    fetch.  Replies are FIFO per connection and fetches leave in
    ascending offset order, the order a sequential writer fills them.
    A fetch below one in flight — a seek back, or the gap a short reply
    leaves on a live stream — goes out on a fresh connection, so it
    never queues behind prefetches parked on bytes not yet written; the
    old one closes when its last fetch lands, and :meth:`close` closes
    them all.

    The window is the reader's only network path: the caller's inline
    :meth:`fetch_head` (the read the window does not cover) rides a
    one-socket :class:`~repro.transport.tcp.RpcClient` of its own, so it
    never waits behind a parked prefetch either.  Only window fetches
    feed the rule: a head fetch is sized by the caller and often parked
    on the writer, so it measures neither.  With a read deadline
    both connections time out ``_DEADLINE_MARGIN`` past it.  Both fetch
    paths claim their span with :meth:`_claim_locked` and land their
    reply with :meth:`_note_reply`; fetch failures reach the reader's
    one recovery path, which calls :meth:`reset`.
    """

    def __init__(
        self,
        client: GridBufferClient,
        name: str,
        reader_id: str,
        timeout: Optional[float],
        chunk_bytes: int,
        max_depth: Optional[int] = None,
        gen: int = 0,
    ):
        self._client = client
        self._name = name
        self._reader_id = reader_id
        self._timeout = timeout
        self._rule = _WindowRule(chunk_bytes, max_depth)
        # The stream generation fetched bytes belong to: a fetch that
        # lands after rebind() to a new incarnation is dropped.
        self._gen = int(gen)
        self._sock_timeout = client._timeout if timeout is None else timeout + _DEADLINE_MARGIN
        self._head = RpcClient(*client.address, timeout=self._sock_timeout, max_connections=1)
        # The connection new fetches go out on (dialled on first use),
        # the last offset sent on it, and the fetches in flight on each
        # live connection.
        self._conn: Optional[AsyncRpcClient] = None
        self._conn_top = 0
        self._load: Dict[AsyncRpcClient, int] = {}
        self._tasks: "set[Future]" = set()
        self._cv = threading.Condition()
        # In-flight requests: offset -> expected span.  Tracking the
        # width keeps schedule() from double-requesting bytes a fetch
        # (window or head) is already carrying.
        self._inflight: Dict[int, int] = {}
        self._results: Dict[int, bytes] = {}
        self._errors: Dict[int, BaseException] = {}
        self._eof_at: Optional[int] = None
        self._stopped = False
        # Bumped by reset(): a fetch claimed before it lands no error.
        self._epoch = 0
        # Window fetches run on the loop thread: they parent their
        # rpc.client spans under whatever span opened the reader.
        self._trace_ctx = obs.current_context()

    # -- owner-side API ----------------------------------------------------
    def _result_covering(self, pos: int) -> Optional[int]:
        for off, data in self._results.items():
            if off <= pos < off + len(data):
                return off
        return None

    def _inflight_covering(self, pos: int) -> bool:
        return any(off <= pos < off + span for off, span in self._inflight.items())

    def _covered_end_locked(self, pos: int) -> Optional[int]:
        """End of the landed, in-flight or failed span covering ``pos``."""
        off = self._result_covering(pos)
        if off is not None:
            return off + len(self._results[off])
        for off, span in self._inflight.items():
            if off <= pos < off + span:
                return off + span
        if pos in self._errors:
            return pos + self._rule.span
        return None

    def schedule(self, frontier: int) -> None:
        """Keep the window full of requests at/after ``frontier``.

        Walks the stream from ``frontier`` past every span already
        covered and sends one fetch per gap, so a span that changed
        size with requests outstanding never leaves a hole.
        """
        with self._cv:
            if self._stopped:
                return
            # Drop state the consumer has moved past.  A result is
            # stale only when *fully* below the frontier: its bytes are
            # consumed server-side, so dropping an undelivered tail
            # would make them unreachable on a cache-less stream.
            for off in [o for o, d in self._results.items() if o + len(d) <= frontier]:
                del self._results[off]
            for off in [o for o in self._errors if o < frontier]:
                del self._errors[off]
            tracked = (*self._inflight, *self._results, *self._errors)
            outstanding = len([o for o in tracked if o >= frontier])
            span, depth = self._rule.span, self._rule.depth
            pos = frontier
            while outstanding < depth and (self._eof_at is None or pos < self._eof_at):
                end = self._covered_end_locked(pos)
                if end is not None:
                    pos = end
                else:
                    pos += self._launch_locked(pos, span)
                    outstanding += 1

    def _launch_locked(self, offset: int, span: int) -> int:
        """Claim ``[offset, offset + span)`` and send its fetch; the span sent."""
        span = self._claim_locked(offset, span)
        if self._conn is not None and self._load[self._conn] and offset < self._conn_top:
            # A seek back, or the gap a short reply left: behind fetches
            # parked above it, its reply would wait for bytes past its own.
            self._retire_locked()
        if self._conn is None:
            self._conn = AsyncRpcClient(*self._client.address, timeout=self._sock_timeout)
            self._load[self._conn] = 0
        self._conn_top = offset
        self._load[self._conn] += 1
        task = get_engine().submit(
            self._fetch(self._conn, offset, span, self._epoch, self._gen, self._rule.sent())
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return span

    def take(self, pos: int) -> Optional[bytes]:
        """Pipelined data covering ``pos``, waiting while in flight.

        ``b""`` means EOF at/after ``pos``; None means the caller must
        fetch inline (:meth:`fetch_head`).  A request *covering* ``pos``
        (its span may start earlier when a seek moved the consumer
        mid-span) is served from ``pos`` onward, as a view of the landed
        bytes.  An error recorded at exactly ``pos`` re-raises
        here, for the reader's recovery path; other errors are dropped
        during scheduling.
        """
        with self._cv:
            while True:
                if pos in self._errors:
                    raise self._errors.pop(pos)
                off = self._result_covering(pos)
                if off is not None:
                    data = self._results.pop(off)
                    return memoryview(data)[pos - off :] if off != pos else data
                if self._eof_at is not None and pos >= self._eof_at:
                    return b""
                # An in-flight request whose span reaches pos: wait for
                # it rather than racing a head fetch against bytes it is
                # about to consume.
                if self._inflight_covering(pos):
                    self._cv.wait(timeout=0.05)
                    continue
                return None

    def discard(self) -> None:
        """A seek invalidated the window: drop landed work, collapse."""
        with self._cv:
            self._results.clear()
            self._errors.clear()
            self._rule.collapse()

    def _note_eof_locked(self, at: int) -> None:
        self._eof_at = at if self._eof_at is None else min(self._eof_at, at)

    def _retire_locked(self) -> None:
        """New fetches go out on a fresh connection; the current one
        closes once its fetches land (at once, if it carries none)."""
        conn, self._conn = self._conn, None
        if conn is not None and not self._load.get(conn):
            self._load.pop(conn, None)
            get_engine().submit(conn.close())

    def reset(self) -> None:
        """Recovery: drop parked errors, retire both connections softly.

        Landed and in-flight spans stay: the server counts bytes consumed
        as it sends them, and a stream without a cache file never serves
        them again.  So the connections close softly (idle ones now,
        busy ones once their fetches land) and an old fetch still lands
        its bytes, though never an error; a silent one ends at its
        socket timeout.
        """
        with self._cv:
            self._epoch += 1
            self._errors.clear()
            self._retire_locked()
            self._cv.notify_all()
        self._head.close()

    def rebind(self, gen: int) -> None:
        """Recovery found a new stream incarnation: swap the generation,
        drop results and EOF from the dead one."""
        with self._cv:
            self._gen = int(gen)
            self._results.clear()
            self._eof_at = None

    def close(self) -> None:
        """Fail every fetch in flight at once and wait for them to end."""
        with self._cv:
            self._stopped = True
            conns = list(self._load)
            self._conn = None
            self._load.clear()
            tasks = list(self._tasks)
            self._cv.notify_all()
        # Hard-close the head socket and every window connection: calls
        # parked in a server-side blocking read fail now instead of
        # waiting out their timeout.
        self._head.close_all()
        engine = get_engine()
        for conn in conns:
            engine.submit(conn.close())
        wait(tasks, timeout=2.0)
        self._head.close()

    # -- the two fetch paths -----------------------------------------------
    async def _fetch(
        self,
        rpc: AsyncRpcClient,
        offset: int,
        span: int,
        epoch: int,
        gen: int,
        token: Tuple[int, int, float, float],
    ) -> None:
        """One window fetch, on the loop; lands by the window's rules."""
        header = _read_header(self._name, self._reader_id, offset, span, 1, self._timeout)
        t0 = time.perf_counter()
        try:
            try:
                reply, data = await rpc.call(OP_READ_MULTI, header, parent=self._trace_ctx)
                self._client._record("read_multi", len(data), time.perf_counter() - t0)
                self._note_reply(offset, data, _reply_total(reply), gen)
            except BaseException as exc:  # noqa: BLE001 - surfaced on take()
                self._rule.delivered(token, None)
                with self._cv:
                    self._inflight.pop(offset, None)
                    if epoch == self._epoch and not self._stopped:
                        self._errors[offset] = exc
                    self._cv.notify_all()
                return
            self._rule.delivered(token, len(data))
            with self._cv:
                self._inflight.pop(offset, None)
                # An empty reply only marks EOF, which _note_reply noted.
                # Landed, it would count as outstanding work until the
                # consumer passed it: after a seek back, never.
                if data and gen == self._gen and not self._stopped:  # even across a reset()
                    self._results[offset] = data
                self._cv.notify_all()
        finally:
            await self._release(rpc)

    async def _release(self, rpc: AsyncRpcClient) -> None:
        """A fetch on ``rpc`` ended: close it if retired and now idle."""
        with self._cv:
            left = self._load.get(rpc)
            if left is None:
                return  # closed by close()
            if left > 1 or rpc is self._conn:
                self._load[rpc] = left - 1
                return
            del self._load[rpc]
        await rpc.close()

    def fetch_head(self, offset: int, size: int) -> bytes:
        """The read the window does not cover, inline on the caller's thread:
        ``size`` clamped at the next tracked offset, so it never overlaps
        a prefetch.  Errors go to the caller's recovery."""
        with self._cv:
            span = self._claim_locked(offset, size)
            gen = self._gen
        try:
            data, total = self._client.read_window_ex(
                self._name, self._reader_id, offset, span, timeout=self._timeout, rpc=self._head
            )
            self._note_reply(offset, data, total, gen)
            return data
        finally:
            with self._cv:
                self._inflight.pop(offset, None)
                self._cv.notify_all()

    def _claim_locked(self, offset: int, span: int) -> int:
        """Register ``[offset, offset + span)`` in flight; the clamped span.

        The span stops at the next offset in flight, landed or errored.
        """
        ahead = [o for o in (*self._inflight, *self._results, *self._errors) if o > offset]
        if ahead:
            span = min(span, min(ahead) - offset)
        self._inflight[offset] = span
        self._cv.notify_all()
        return span

    def _note_reply(self, offset: int, data: bytes, total: Optional[int], gen: int) -> None:
        """Keep a reply's EOF, if it belongs to the current generation."""
        with self._cv:
            if gen == self._gen:
                if total is not None:
                    self._note_eof_locked(total)
                elif not data:
                    self._note_eof_locked(offset)


class BufferReader(ReadIntoFromRead, io.RawIOBase):
    """File-like reader over a Grid Buffer stream.

    Sequential reads drain the hash table; re-reads and backwards
    seeks hit the server-side cache file — exactly the DARLAM pattern
    in Section 5.3.  A :class:`_ReadAheadWindow` keeps windowed requests
    in flight while the current chunk is consumed, as many and as large
    as its :class:`_WindowRule` measures the link needs (at most
    ``read_ahead_depth`` of at most ``read_ahead_bytes``); whatever the
    window does not cover, the window fetches inline on the caller's
    thread — the reader owns no connection of its own — and any fetch
    that fails beyond the transport's retries goes to :meth:`_recover`.
    A landed span is held as a view and served without copying its tail.
    """

    def __init__(
        self,
        client: GridBufferClient,
        name: str,
        reader_id: str,
        read_timeout: Optional[float] = None,
        read_ahead_bytes: int = _WindowRule.TOP_SPAN,
        read_ahead_depth: Optional[int] = None,
        gen: int = 0,
    ):
        super().__init__()
        self._client = client
        self.name = name
        self.reader_id = reader_id
        self._pos = 0
        self._ra_buf = memoryview(b"")  # data already fetched ahead, at _pos
        self._at_eof = False
        self.readahead_hits = 0     # reads served (fully) from the pipeline
        self._m_ra_hits = _READAHEAD_HITS.labels(stream=name)
        self._gen = int(gen)
        self._ra = _ReadAheadWindow(
            client, name, reader_id, read_timeout, read_ahead_bytes, read_ahead_depth, gen=self._gen
        )
        close_at_exit(self)

    def readable(self) -> bool:
        return True

    # -- read path ---------------------------------------------------------
    def _recover(self, exc: BaseException) -> None:
        """The one recovery path: the head fetch or a window fetch failed.

        Fires past the transport's own retries, when a connection died
        (the front end restarted, a socket outlived the read deadline)
        or the service forgot this reader.  Resets the window (see
        :meth:`_ReadAheadWindow.reset`), re-registers (idempotent), and
        rebinds a re-created stream; the caller retries its read once
        at ``self._pos`` — exact, because the server tracks consumption
        per byte range (a silent socket's bound: ``_DEADLINE_MARGIN``).
        Anything else (stream failed, the server's read timeout, a pool
        with no free connection) re-raises unchanged.
        """
        recoverable = isinstance(exc, OSError) and not isinstance(exc, PoolTimeout)
        if isinstance(exc, RpcError):
            recoverable = exc.kind == "grid-buffer" and "not registered" in exc.message
        if not recoverable:
            raise exc
        _READER_RESUMES.labels(stream=self.name).inc()
        obs.event(
            "gb.reader_resume",
            stream=self.name,
            reader=self.reader_id,
            pos=self._pos,
            error=str(exc),
        )
        self._ra.reset()
        gen = self._client.register_reader(self.name, self.reader_id)
        if gen and gen != self._gen:
            # The stream was re-created while we were away: everything
            # buffered belongs to a dead incarnation.
            self._ra_buf = memoryview(b"")
            self._at_eof = False
            self._ra.rebind(gen)
            self._gen = gen

    def read(self, size: int = -1) -> bytes:  # type: ignore[override]
        if size is None or size < 0:
            chunks = []
            while True:
                chunk = self.read(DEFAULT_READ_BUDGET)
                if not chunk:
                    break
                chunks.append(chunk)
            return b"".join(chunks)
        if size == 0:
            return b""
        # 1. Serve from the read-ahead buffer first.
        if len(self._ra_buf) >= size:
            out = self._ra_buf[:size].tobytes()
            self._ra_buf = self._ra_buf[size:]
            self._pos += size
            self.readahead_hits += 1
            self._m_ra_hits.inc()
            self._schedule_readahead()
            return out
        buf = bytearray(self._ra_buf)
        self._pos += len(self._ra_buf)
        size -= len(self._ra_buf)
        self._ra_buf = memoryview(b"")
        # 2. The window: a landed or in-flight span at _pos, or else the
        # head fetch, inline (a short read is fine — POSIX semantics —
        # but never block past EOF).
        if not self._at_eof:
            try:
                data, hit = self._next_span(size)
            except (OSError, RpcError) as exc:
                self._recover(exc)
                data, hit = self._next_span(size)
            if not data:
                self._at_eof = True
            else:
                self._serve(buf, data, size)
                if hit:
                    self.readahead_hits += 1
                    self._m_ra_hits.inc()
        self._schedule_readahead()
        return bytes(buf)

    def _serve(self, buf: bytearray, data, size: int) -> None:
        """Append up to ``size`` bytes of ``data`` at ``_pos``; keep the rest as a view."""
        view = memoryview(data)
        buf += view[:size]
        self._ra_buf = view[size:]
        self._pos += min(size, len(view))

    def _next_span(self, size: int) -> Tuple[bytes, bool]:
        """Bytes at ``_pos`` and whether the window already had them."""
        data = self._ra.take(self._pos)
        if data is not None:
            return data, True
        return self._ra.fetch_head(self._pos, size), False

    def _schedule_readahead(self) -> None:
        if self._at_eof:
            return
        self._ra.schedule(self._pos + len(self._ra_buf))

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:  # type: ignore[override]
        if whence == os.SEEK_SET:
            new_pos = offset
        elif whence == os.SEEK_CUR:
            new_pos = self._pos + offset
        else:
            raise OSError("SEEK_END unsupported on a stream reader")
        if new_pos < 0:
            raise ValueError("negative seek position")
        if new_pos != self._pos:
            if self._ra_buf and self._pos <= new_pos < self._pos + len(self._ra_buf):
                # Seek lands inside the buffered run: keep the tail.
                self._ra_buf = self._ra_buf[new_pos - self._pos :]
            else:
                self._ra_buf = memoryview(b"")
                self._ra.discard()
            self._at_eof = False
        self._pos = new_pos
        return self._pos

    def seekable(self) -> bool:
        return True

    def tell(self) -> int:
        return self._pos

    def close(self) -> None:
        if self.closed:
            return
        self._ra.close()
        super().close()
