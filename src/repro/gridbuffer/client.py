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
  always keeps an adaptive window of up to N ``gb.read_multi``
  requests in flight.  Only the sizes are arguments; neither half can
  be switched off.

The window is the only part of a reader that touches the network: one
fetch routine serves both its prefetches and the reads it does not
cover (fetched inline on the caller's thread), and one recovery path
redials and resumes after any of them fails.  A blocked read occupies
its connection until data arrives, so the window's pool is one wider
than its depth: a request parked server-side never head-of-line blocks
the caller's own fetch.  Co-located readers of one
broadcast stream can share a per-process block cache: each block is
fetched from the server once and the other readers acknowledge their
consumption with cheap batched ``gb.consume_multi`` calls, keeping
delete-on-read GC and per-reader lag gauges exact.
"""

from __future__ import annotations

import io
import os
import threading
import time
import uuid
from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from .. import faults, ioutil, obs
from ..ioutil import ReadIntoFromRead
from ..transport.aio import AsyncRpcClient, get_engine
from ..transport.tcp import PoolTimeout, RpcClient, RpcError
from .protocol import (
    DEFAULT_COALESCE_BYTES,
    DEFAULT_READ_BUDGET,
    OP_ABORT,
    OP_CLOSE_WRITER,
    OP_CONSUME_MULTI,
    OP_CREATE,
    OP_DROP,
    OP_EXISTS,
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
#: stay local before the deadline thread pushes them.
_FLUSH_DEADLINE = 0.02

#: Write batches a writer keeps in flight at most.  Depth 8 bought 4%
#: more goodput on a 10 ms round trip for 11% more peak memory.
_WRITE_WINDOW = 4


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
_SHARED_HITS = obs.counter(
    "buffer_shared_cache_hits_total",
    "Reads served from the per-process shared block cache",
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
# Shared per-process block cache (broadcast dedup)
# ---------------------------------------------------------------------------


class _SharedStreamCache:
    """Recently fetched runs of one remote stream, shared process-wide.

    R co-located readers of the same broadcast stream fetch each block
    from the server once; the other R-1 serve it from here and batch
    ``gb.consume_multi`` acknowledgements instead of re-transferring.
    Runs are evicted LRU once ``capacity_bytes`` is exceeded — a
    straggler that falls too far behind simply falls back to real reads
    (served by the stream's cache file server-side).
    """

    def __init__(
        self, capacity_bytes: int = 8 * 1024 * 1024, gen: int = 0, name: str = ""
    ):
        self._capacity = max(1, capacity_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[int, bytes]" = OrderedDict()
        # crc32 of each run, taken at insert time.  Serving paths
        # re-verify against it, so a run that rots in memory (or is
        # poisoned by the chaos injector) is discarded — the reader
        # falls through to the origin — instead of being handed to a
        # co-located sibling.
        self._crcs: Dict[int, int] = {}
        self._index: List[int] = []
        self._max_len = 0
        self._bytes = 0
        self.eof_total: Optional[int] = None
        self.refs = 0
        #: Stream generation this cache mirrors (part of the registry
        #: key): a re-created stream gets a fresh cache, never stale
        #: bytes from the previous incarnation.
        self.gen = gen
        #: Stream name, used only to label fault-injection hooks and
        #: discard events.
        self.name = name
        # Pending consume acknowledgements from *all* co-located
        # readers, merged here so one ``gb.consume_multi`` frame (and
        # one server-side GC pass) covers the whole group per flush.
        self._acks: Dict[str, List[List[int]]] = {}
        self._ack_bytes = 0
        self.ack_flushes = 0

    def ack(
        self, reader_id: str, start: int, end: int, flush_bytes: int
    ) -> Optional[List[Tuple[str, List[List[int]]]]]:
        """Queue a consumed range; returns the batch to send once the
        aggregate (across all readers) crosses ``flush_bytes``."""
        if end <= start:
            return None
        with self._lock:
            self._note_range_locked(self._acks.setdefault(reader_id, []), start, end)
            self._ack_bytes += end - start
            if self._ack_bytes < flush_bytes:
                return None
            return self._drain_acks_locked()

    def drain_acks(self) -> Optional[List[Tuple[str, List[List[int]]]]]:
        with self._lock:
            return self._drain_acks_locked()

    def _drain_acks_locked(self) -> Optional[List[Tuple[str, List[List[int]]]]]:
        if not self._acks:
            return None
        entries = [(rid, runs) for rid, runs in self._acks.items()]
        self._acks = {}
        self._ack_bytes = 0
        self.ack_flushes += 1
        return entries

    def note_eof(self, total: Optional[int]) -> None:
        if total is None:
            return
        with self._lock:
            self.eof_total = total if self.eof_total is None else min(self.eof_total, total)

    def put(self, offset: int, data: bytes) -> None:
        """Cache a run fetched from the server."""
        if not data:
            return
        data = bytes(data)
        # Checksum *before* the poison hook: a "corrupt" rule on
        # gb.cache flips a bit in the stored copy while the recorded
        # crc stays honest — exactly the shape of real memory rot, and
        # what the serve-time verify in get() must catch.
        crc = ioutil.crc32(data)
        injector = faults.ACTIVE
        if injector is not None:
            if injector.fire("gb.cache", "put", self.name) == "corrupt":
                data = injector.corrupt_bytes(data)
        with self._lock:
            if offset in self._entries:
                self._entries.move_to_end(offset)
                return
            self._entries[offset] = data
            self._crcs[offset] = crc
            insort(self._index, offset)
            self._max_len = max(self._max_len, len(data))
            self._bytes += len(data)
            while self._bytes > self._capacity and len(self._entries) > 1:
                self._remove_locked(next(iter(self._entries)))  # the LRU run

    @staticmethod
    def _note_range_locked(runs: List[List[int]], start: int, end: int) -> None:
        if runs and runs[-1][1] == start:
            runs[-1][1] = end
        else:
            runs.append([start, end])

    def _remove_locked(self, off: int) -> None:
        data = self._entries.pop(off)
        self._crcs.pop(off, None)
        self._bytes -= len(data)
        i = bisect_left(self._index, off)
        if i < len(self._index) and self._index[i] == off:
            del self._index[i]

    def _covering_locked(self, pos: int) -> Optional[int]:
        """Position in ``_index`` of the run covering ``pos``, or None."""
        i = bisect_right(self._index, pos) - 1
        floor = pos - self._max_len
        while i >= 0 and self._index[i] >= floor:
            data = self._entries.get(self._index[i])
            if data is not None and pos < self._index[i] + len(data):
                return i
            i -= 1
        return None

    def _verify_locked(self, off: int, data: bytes) -> bool:
        """Serve-time integrity check; a corrupt run is discarded.

        The caller sees a plain miss — readers fall through to the
        origin, which is always authoritative.
        """
        want = self._crcs.get(off)
        if want is None or ioutil.crc32(data) == want:
            return True
        self._remove_locked(off)
        ioutil.count_integrity_error("gb.cache", "discard")
        obs.event(
            "gb.cache_discard", stream=self.name, offset=off, length=len(data)
        )
        return False

    def get(self, pos: int) -> Optional[bytes]:
        """Bytes from ``pos`` to the end of a covering run, or None."""
        with self._lock:
            i = self._covering_locked(pos)
            if i is None:
                return None
            off = self._index[i]
            data = self._entries[off]
            if not self._verify_locked(off, data):
                return None
            self._entries.move_to_end(off)
            return data[pos - off :] if off != pos else data

    def covers(self, pos: int) -> bool:
        with self._lock:
            return self._covering_locked(pos) is not None


# Keyed (host, port, stream, generation): the generation makes a
# re-created stream (writer crash, drop + recreate) land in a *fresh*
# cache instead of being served the previous incarnation's bytes.
_SHARED_CACHES: Dict[Tuple[str, int, str, int], _SharedStreamCache] = {}
_SHARED_CACHES_LOCK = threading.Lock()


def _shared_cache_acquire(
    addr: Tuple[str, int], stream: str, gen: int = 0
) -> _SharedStreamCache:
    key = (addr[0], addr[1], stream, int(gen))
    with _SHARED_CACHES_LOCK:
        cache = _SHARED_CACHES.get(key)
        if cache is None:
            cache = _SHARED_CACHES[key] = _SharedStreamCache(gen=int(gen), name=stream)
        cache.refs += 1
        return cache


def _shared_cache_release(addr: Tuple[str, int], stream: str, gen: int = 0) -> bool:
    """Drop one reference; True when the cache was the last and removed."""
    key = (addr[0], addr[1], stream, int(gen))
    with _SHARED_CACHES_LOCK:
        cache = _SHARED_CACHES.get(key)
        if cache is not None:
            cache.refs -= 1
            if cache.refs <= 0:
                del _SHARED_CACHES[key]
                return True
        return False


# ---------------------------------------------------------------------------
# RPC mirror
# ---------------------------------------------------------------------------


class GridBufferClient:
    """RPC client for one Grid Buffer server.

    ``monitor``/``peer`` optionally feed every data-plane round trip
    into a :class:`~repro.core.trace.TransferMonitor`, which is what
    lets the read-ahead window pick its chunk size from *measured*
    link bandwidth instead of a guessed constant.
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
        header: Dict[str, Any] = {
            "name": name,
            "reader_id": reader_id,
            "offset": offset,
            "budget": budget,
            "min_bytes": min_bytes,
            "timeout": timeout,
        }
        t0 = time.perf_counter()
        reply, data = (rpc or self._rpc).call(OP_READ_MULTI, header)
        self._record("read_multi", len(data), time.perf_counter() - t0)
        total = reply.get("total")
        return data, (int(total) if total is not None else None)

    def consume_multi(
        self, name: str, entries: Sequence[Tuple[str, Sequence[Sequence[int]]]]
    ) -> None:
        """Acknowledge ranges served from a shared cache, several readers a frame.

        ``entries`` is a list of ``(reader_id, ranges)`` pairs — the
        shared-cache ack aggregator's flush unit.
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

    def stream_exists(self, name: str) -> bool:
        reply, _ = self._rpc.call(OP_EXISTS, {"name": name})
        return bool(reply["exists"])

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
        coalesce_bytes: int = DEFAULT_COALESCE_BYTES,
        flush_after: float = _FLUSH_DEADLINE,
    ) -> "BufferWriter":
        if coalesce_bytes < 1:
            raise ValueError("coalesce_bytes must be >= 1")
        self.create_stream(name, n_readers=n_readers, capacity_bytes=capacity_bytes, cache=cache)
        return BufferWriter(
            self,
            name,
            write_timeout=write_timeout,
            coalesce_bytes=coalesce_bytes,
            flush_after=flush_after,
        )

    def open_reader(
        self,
        name: str,
        reader_id: Optional[str] = None,
        read_timeout: Optional[float] = None,
        n_readers: Optional[int] = None,
        capacity_bytes: Optional[int] = None,
        cache: bool = False,
        read_ahead_bytes: int = DEFAULT_READ_BUDGET,
        read_ahead_depth: int = 4,
        shared_cache: bool = False,
    ) -> "BufferReader":
        """Attach a reader in one round trip.

        A reader may open before the writer (the paper's FM blocks the
        legacy OPEN until matched).  Given the stream's config
        (``n_readers`` and, like :meth:`open_writer`, ``capacity_bytes``
        and ``cache``), the register creates the stream if it is absent;
        without it, the stream must already exist.
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
            shared_cache=shared_cache,
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
    reaches ``limit`` bytes, on an explicit flush, or by the owning
    writer's deadline thread.
    """

    #: Floor for backpressure-driven limit shrinking.
    MIN_LIMIT = 4096

    def __init__(self, flush_fn, limit: int):
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self._flush_fn = flush_fn  # callable(list[(offset, bytes)])
        self._limit = limit
        self._configured = limit
        self._runs: List[List[Any]] = []  # [start, bytearray]
        self._bytes = 0
        self.flushes = 0           # batch RPCs issued
        self.writes_coalesced = 0  # WRITE calls absorbed without an RPC

    @property
    def pending_bytes(self) -> int:
        return self._bytes

    def adapt(self, stall: Optional[str]) -> None:
        """Tune the batch limit from the server's backpressure verdict.

        ``buffer_full`` halves the limit — a smaller batch fits the free
        headroom instead of stalling (and eventually timing out) against
        capacity.  A clean flush doubles it back toward the configured
        size.  ``slow_reader`` holds steady: the reader is the
        bottleneck, so batch size is neither the problem nor the fix.
        """
        if stall == "buffer_full":
            self._limit = max(self.MIN_LIMIT, self._limit // 2)
        elif stall is None and self._limit < self._configured:
            self._limit = min(self._configured, self._limit * 2)

    def discard(self) -> None:
        """Drop pending runs without flushing (writer abort path)."""
        self._runs = []
        self._bytes = 0

    def write(self, offset: int, data: bytes) -> None:
        if not data:
            return
        if self._runs and offset == self._runs[-1][0] + len(self._runs[-1][1]):
            self._runs[-1][1] += data
            self.writes_coalesced += 1
        else:
            self._runs.append([offset, bytearray(data)])
        self._bytes += len(data)
        if self._bytes >= self._limit:
            self.flush()

    def flush(self) -> None:
        if not self._runs:
            return
        runs = [(start, bytes(buf)) for start, buf in self._runs]
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

    Writes are buffered locally and pushed as *batched vectored RPCs*
    of up to ``coalesce_bytes``: contiguous runs merge, scattered runs
    ride the same ``gb.write_multi`` frame.  Coalescing is safe because
    a background deadline thread bounds how long bytes stay local
    (``flush_after`` seconds, 20 ms by default) — a downstream blocking
    reader sees new data within the deadline even mid-run, which keeps
    tightly pipelined streams tight.  ``flush_after=0`` disables the
    deadline (flush only on size/flush/close).

    Up to ``_WRITE_WINDOW`` batches are in flight at once, on the
    writer's own :class:`_WriteChannel`, so a slow link carries several
    batches per round trip.  The depth starts at 1 and doubles after
    each window of clean replies; a stall reply only shrinks the next
    batches (:meth:`_RunBatcher.adapt`).  :meth:`flush` and
    :meth:`close` drain the window; the deadline thread only adds to
    it.  A batch that fails beyond the transport's retries fails the
    writer: the next :meth:`write`, :meth:`flush` or :meth:`close`
    raises it, and :meth:`close` then marks the stream failed rather
    than end it with a hole.
    """

    def __init__(
        self,
        client: GridBufferClient,
        name: str,
        write_timeout: Optional[float] = None,
        coalesce_bytes: int = DEFAULT_COALESCE_BYTES,
        flush_after: float = _FLUSH_DEADLINE,
    ):
        super().__init__()
        self._client = client
        self.name = name
        self._pos = 0
        self._timeout = write_timeout
        self._closed_writer = False
        self._lock = threading.Lock()
        self._flush_cv = threading.Condition(self._lock)
        self._m_write_rpcs = _WRITE_RPCS.labels(stream=name)
        self._m_deadline_flushes = _DEADLINE_FLUSHES.labels(stream=name)
        self._coalescer = _RunBatcher(self._push_runs, coalesce_bytes)
        self._channel = client._take_channel()
        # The window: replies not yet reaped, oldest first, and its
        # slow-start state.  Guarded by _lock like everything else.
        self._inflight: Deque[Future] = deque()
        self._depth = 1
        self._clean = 0
        self._error: Optional[Exception] = None
        self._flush_after = max(0.0, flush_after)
        self._pending_since: Optional[float] = None
        self._deadline_thread: Optional[threading.Thread] = None
        # Deadline flushes issue write RPCs from a background thread;
        # adopt the opener's span context so those rpc.client spans
        # still join the workflow trace.
        self._trace_ctx = obs.current_context()
        if self._flush_after > 0:
            self._deadline_thread = threading.Thread(
                target=self._deadline_loop, name=f"gb-flush:{name}", daemon=True
            )
            self._deadline_thread.start()

    def _push_runs(self, runs: List[Tuple[int, bytes]]) -> None:
        """The batcher's flush: wait for a free window slot, then send."""
        while len(self._inflight) >= self._depth:
            self._reap()
        if self._error is None:  # a failed writer sends no more; its next call raises
            self._inflight.append(self._channel.send(self.name, runs, timeout=self._timeout))
            self._m_write_rpcs.inc()

    def _reap(self) -> None:
        """Wait for the oldest batch; its verdict steers depth and batch size."""
        try:
            stall = self._inflight.popleft().result()
        except Exception as exc:  # noqa: BLE001 - kept; raised by the writer's next call
            self._error = self._error or exc
            return
        self._coalescer.adapt(stall)
        if stall is None:
            self._clean += 1
            if self._clean >= self._depth:
                self._depth, self._clean = min(_WRITE_WINDOW, self._depth * 2), 0

    def _drain(self) -> None:
        """Reap every batch in flight; raise the writer's failure, if any."""
        while self._inflight:
            self._reap()
        if self._error is not None:
            raise self._error

    def _deadline_loop(self) -> None:
        with obs.attach(self._trace_ctx):
            self._deadline_loop_attached()

    def _deadline_loop_attached(self) -> None:
        with self._flush_cv:
            while not self._closed_writer:
                if self._coalescer.pending_bytes == 0:
                    self._pending_since = None
                    self._flush_cv.wait()
                    continue
                assert self._pending_since is not None
                age = time.monotonic() - self._pending_since
                if age >= self._flush_after:
                    self._coalescer.flush()
                    self._pending_since = None
                    self._m_deadline_flushes.inc()
                else:
                    self._flush_cv.wait(self._flush_after - age)

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
                if self._coalescer.pending_bytes == 0:
                    self._pending_since = None
                elif not had_pending or self._pending_since is None:
                    self._pending_since = time.monotonic()
                    self._flush_cv.notify_all()
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
                self._pending_since = None
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
        join_me = None
        with self._lock:
            if self._closed_writer:
                return
            self._closed_writer = True
            join_me = self._deadline_thread
            self._deadline_thread = None
            self._coalescer.discard()
            self._flush_cv.notify_all()
            # Batches in flight stay unread: their replies no longer matter.
            self._client._give_channel(self._channel, drained=not self._inflight)
        self._fail_stream(reason)
        if join_me is not None:
            join_me.join(timeout=2.0)
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
        join_me = None
        with self._lock:
            if not self._closed_writer:
                self._closed_writer = True
                join_me = self._deadline_thread
                self._deadline_thread = None
                self._flush_cv.notify_all()
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
        if join_me is not None:
            join_me.join(timeout=2.0)
        super().close()


# ---------------------------------------------------------------------------
# Reader side
# ---------------------------------------------------------------------------


class _ReadAheadWindow:
    """Up to N windowed reads in flight on a pooled connection set.

    Generalises the PR 1 double buffer (exactly one request in flight)
    into an adaptive window: worker threads keep ``depth`` chunk-grid
    requests outstanding ahead of the consumer.  Depth starts at 1,
    doubles every time the pipeline actually serves a read (up to
    ``max_depth``), and collapses on a seek.  Depth is not sized from
    link estimates: on a latency-bound link each fetch measures about
    chunk / RTT, so a bandwidth-delay product built from those numbers
    always says one fetch, and shuts the window the link needs.

    The window is the reader's only network path: :meth:`_transfer`
    moves the bytes for worker threads (queued offsets) and for the
    reader's inline :meth:`fetch_head` alike.  Its pool is one wider
    than ``max_depth``, so the head fetch never waits behind a parked
    prefetch, and with a read deadline its sockets time out
    ``_DEADLINE_MARGIN`` past it.  Fetch failures reach the reader's one
    recovery path, which calls :meth:`reset`.

    The chunk size adapts too: with measured link estimates the window
    re-tiers its request size from observed bandwidth (small requests
    keep time-to-first-byte low on a slow link; big ones amortise
    per-frame cost on a fast one).  Re-tiering happens only while
    nothing is queued or in flight, so an outstanding span is never
    partially duplicated under a new grid.
    """

    #: (bandwidth ceiling in bytes/s, chunk size) — first match wins.
    CHUNK_TIERS = (
        (1 << 20, 16 * 1024),     # < 1 MB/s: keep replies snappy
        (8 << 20, 64 * 1024),     # < 8 MB/s: the historical default
        (64 << 20, 256 * 1024),   # < 64 MB/s
    )
    #: Chunk size above the top tier.
    MAX_CHUNK = 1024 * 1024

    def __init__(
        self,
        client: GridBufferClient,
        name: str,
        reader_id: str,
        timeout: Optional[float],
        chunk_bytes: int,
        max_depth: int,
        shared: Optional[_SharedStreamCache] = None,
        gen: int = 0,
    ):
        self._client = client
        self._name = name
        self._reader_id = reader_id
        self._timeout = timeout
        self._chunk = max(1, chunk_bytes)
        self._max_depth = max(1, max_depth)
        self._shared = shared
        # The stream generation fetched bytes belong to: a fetch that
        # lands after rebind() to a new incarnation is dropped.
        self._gen = int(gen)
        self._rpc = RpcClient(
            *client.address,
            timeout=client._timeout if timeout is None else timeout + _DEADLINE_MARGIN,
            max_connections=self._max_depth + 1,
        )
        self._cv = threading.Condition()
        self._queue: List[int] = []                  # wanted offsets, ascending
        # In-flight requests: offset -> expected span.  Prefetches span
        # one chunk; a head fetch spans the caller's read size, and
        # tracking the width keeps schedule() from double-requesting
        # bytes it is already carrying.
        self._inflight: Dict[int, int] = {}
        self._results: Dict[int, bytes] = {}
        self._errors: Dict[int, BaseException] = {}
        self._eof_at: Optional[int] = None
        self._depth = 1
        self._stopped = False
        # Bumped by reset(): a fetch claimed before it lands no error.
        self._epoch = 0
        # Read-ahead RPCs issued by worker threads should parent under
        # whatever span opened the reader (the task, usually) — capture
        # the constructing thread's context for re-attachment.
        self._trace_ctx = obs.current_context()
        self._threads = [
            threading.Thread(target=self._run, name=f"gb-window:{name}#{i}", daemon=True)
            for i in range(self._max_depth)
        ]
        for t in self._threads:
            t.start()

    # -- owner-side API ----------------------------------------------------
    def _target_chunk(self) -> int:
        """Chunk size for the link's observed bandwidth tier."""
        monitor = self._client.monitor
        if monitor is None:
            return self._chunk
        bandwidth = monitor.bandwidth(self._client.peer)
        if not bandwidth:
            return self._chunk
        for ceiling, chunk in self.CHUNK_TIERS:
            if bandwidth < ceiling:
                return chunk
        return self.MAX_CHUNK

    def note_hit(self) -> None:
        with self._cv:
            self._depth = min(self._depth * 2, self._max_depth)

    def _result_covering(self, pos: int) -> Optional[int]:
        for off, data in self._results.items():
            if off <= pos < off + len(data):
                return off
        return None

    def _inflight_covering(self, pos: int) -> bool:
        return any(off <= pos < off + span for off, span in self._inflight.items())

    def schedule(self, frontier: int) -> None:
        """Keep the window full of requests at/after ``frontier``."""
        with self._cv:
            if self._stopped:
                return
            if not (self._queue or self._inflight or self._results or self._errors):
                # Idle gap: safe to re-tier the chunk grid — nothing
                # outstanding can straddle the old/new boundaries.
                self._chunk = max(1, self._target_chunk())
            # Drop state the consumer has moved past.  A result is
            # stale only when *fully* below the frontier: its bytes are
            # consumed server-side, so dropping an undelivered tail
            # would make them unreachable on a cache-less stream.
            for off in [
                o for o, d in self._results.items() if o + len(d) <= frontier
            ]:
                del self._results[off]
            for off in [o for o in self._errors if o < frontier]:
                del self._errors[off]
            self._queue = [o for o in self._queue if o >= frontier]
            tracked = set(self._queue) | set(self._inflight) | set(self._results) | set(self._errors)
            outstanding = len([o for o in tracked if o >= frontier])
            candidate = frontier
            while outstanding < self._depth:
                if self._eof_at is not None and candidate >= self._eof_at:
                    break
                if (
                    candidate not in tracked
                    and self._result_covering(candidate) is None
                    and not self._inflight_covering(candidate)
                    and not (self._shared is not None and self._shared.covers(candidate))
                ):
                    insort(self._queue, candidate)
                    tracked.add(candidate)
                    outstanding += 1
                candidate += self._chunk
            if self._queue:
                self._cv.notify_all()

    def take(self, pos: int) -> Optional[bytes]:
        """Pipelined data covering ``pos``, waiting while in flight.

        ``b""`` means EOF at/after ``pos``; None means the caller must
        fetch inline (:meth:`fetch_head`).  A request *covering* ``pos``
        (its span may start earlier when a shared-cache hit advanced the
        consumer mid-run) is served from ``pos`` onward.  An error
        recorded at exactly ``pos`` re-raises here, for the reader's
        recovery path; other errors are dropped during scheduling.
        """
        with self._cv:
            while True:
                if pos in self._errors:
                    raise self._errors.pop(pos)
                off = self._result_covering(pos)
                if off is not None:
                    data = self._results.pop(off)
                    return data[pos - off :] if off != pos else data
                if self._eof_at is not None and pos >= self._eof_at:
                    return b""
                # A queued/in-flight request whose span may reach pos:
                # wait for it rather than racing a head fetch against
                # bytes it is about to consume.
                if self._inflight_covering(pos) or any(
                    off <= pos < off + self._chunk for off in self._queue
                ):
                    self._cv.wait(timeout=0.05)
                    continue
                return None

    def discard(self) -> None:
        """A seek invalidated the window: drop queued work, collapse."""
        with self._cv:
            self._queue.clear()
            self._results.clear()
            self._errors.clear()
            self._depth = 1

    def _note_eof_locked(self, at: int) -> None:
        self._eof_at = at if self._eof_at is None else min(self._eof_at, at)

    def reset(self) -> None:
        """Recovery: drop queued work and parked errors, retire the pool.

        Landed and in-flight spans stay: the server counts bytes consumed
        as it sends them, and a stream without a cache file never serves
        them again.  So the pool closes softly (idle sockets now, busy
        ones at check-in) and an old fetch still lands its bytes, though
        never an error; a silent one ends at its socket timeout.
        """
        with self._cv:
            self._epoch += 1
            self._queue.clear()
            self._errors.clear()
            self._cv.notify_all()
        self._rpc.close()

    def rebind(self, shared: Optional[_SharedStreamCache], gen: int) -> None:
        """Recovery found a new stream incarnation: swap cache and
        generation, drop results and EOF from the dead one."""
        with self._cv:
            self._shared = shared
            self._gen = int(gen)
            self._results.clear()
            self._eof_at = None

    def close(self) -> None:
        with self._cv:
            self._stopped = True
            self._queue.clear()
            self._cv.notify_all()
        # Hard-close the pooled sockets: calls parked in a server-side
        # blocking read fail immediately instead of waiting out their
        # timeout, so join() below always completes promptly.
        self._rpc.close_all()
        for t in self._threads:
            t.join(timeout=2.0)
        self._rpc.close()

    # -- the one fetch routine ---------------------------------------------
    def _run(self) -> None:
        # Worker threads adopt the owner's span context so the rpc.client
        # spans of read-ahead fetches join the workflow trace.
        with obs.attach(self._trace_ctx):
            self._run_attached()

    def _run_attached(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._stopped:
                    self._cv.wait()
                if self._stopped:
                    return
                offset = self._queue[0]
                # Claimed as it leaves the queue, so take() always sees
                # the span; queued offsets it covers are absorbed.
                span = self._claim_locked(offset, self._chunk)
                epoch, gen = self._epoch, self._gen
            try:
                data = self._transfer(offset, span)
            except BaseException as exc:  # noqa: BLE001 - surfaced on take()
                # A shared-cache hit can ack bytes a prefetch was racing
                # to fetch; the server then rejects the re-read of
                # consumed bytes.  That is benign — the consumer got the
                # bytes locally — so drop the error when the cache
                # covers them.
                shared = self._shared
                benign = shared is not None and shared.covers(offset)
                with self._cv:
                    self._inflight.pop(offset, None)
                    if epoch == self._epoch and not (benign or self._stopped):
                        self._errors[offset] = exc
                    self._cv.notify_all()
                continue
            with self._cv:
                self._inflight.pop(offset, None)
                # An empty reply only marks EOF, which _transfer noted.
                # Landed, it would count as outstanding work until the
                # consumer passed it: after a seek back, never.
                if data and gen == self._gen and not self._stopped:  # even across a reset()
                    self._results[offset] = data
                self._cv.notify_all()

    def fetch_head(self, offset: int, size: int) -> bytes:
        """The read the window does not cover, inline on the caller's thread:
        ``size`` clamped at the next tracked (even queued) offset, so it
        never overlaps a prefetch.  Errors go to the caller's recovery."""
        with self._cv:
            span = self._claim_locked(offset, size, fences=self._queue)
        try:
            return self._transfer(offset, span)
        finally:
            with self._cv:
                self._inflight.pop(offset, None)
                self._cv.notify_all()

    def _claim_locked(self, offset: int, span: int, fences: Sequence[int] = ()) -> int:
        """Register ``[offset, offset + span)`` in flight; the clamped span.

        The span stops at the next offset in flight, landed, errored or
        in ``fences``; queued offsets inside it leave the queue.
        """
        tracked = (*self._inflight, *self._results, *self._errors, *fences)
        ahead = [o for o in tracked if o > offset]
        if ahead:
            span = min(span, min(ahead) - offset)
        self._queue = [o for o in self._queue if not offset <= o < offset + span]
        self._inflight[offset] = span
        self._cv.notify_all()
        return span

    def _transfer(self, offset: int, span: int) -> bytes:
        """The bytes at ``[offset, offset + span)``: every byte a reader reads.

        One ``gb.read_multi`` to the reader's buffer server; keeps the
        reply's EOF and puts the bytes in the shared cache.  The caller
        claims the span and lands the bytes.
        """
        shared, gen = self._shared, self._gen
        data, total = self._client.read_window_ex(
            self._name, self._reader_id, offset, span, timeout=self._timeout, rpc=self._rpc
        )
        if shared is not None:
            shared.put(offset, data)
            shared.note_eof(total)
        with self._cv:
            if gen == self._gen:
                if total is not None:
                    self._note_eof_locked(total)
                elif not data:
                    self._note_eof_locked(offset)
        return data


class BufferReader(ReadIntoFromRead, io.RawIOBase):
    """File-like reader over a Grid Buffer stream.

    Sequential reads drain the hash table; re-reads and backwards
    seeks hit the server-side cache file — exactly the DARLAM pattern
    in Section 5.3.  An adaptive :class:`_ReadAheadWindow` keeps up to
    ``read_ahead_depth`` windowed requests of ``read_ahead_bytes`` in
    flight while the current chunk is consumed; whatever the window
    does not cover, the window fetches inline on the caller's thread —
    the reader owns no connection of its own — and any fetch that fails
    beyond the transport's retries goes to :meth:`_recover`.  With
    ``shared_cache=True`` co-located readers of the same stream serve
    each other's fetches from a per-process cache and acknowledge
    consumption with batched ``gb.consume_multi`` calls.
    """

    #: Acked-but-unsent shared-cache ranges are flushed past this size.
    ACK_FLUSH_BYTES = 1 * 1024 * 1024

    def __init__(
        self,
        client: GridBufferClient,
        name: str,
        reader_id: str,
        read_timeout: Optional[float] = None,
        read_ahead_bytes: int = DEFAULT_READ_BUDGET,
        read_ahead_depth: int = 4,
        shared_cache: bool = False,
        gen: int = 0,
    ):
        super().__init__()
        self._client = client
        self.name = name
        self.reader_id = reader_id
        self._pos = 0
        self._ra_buf = b""          # data already fetched ahead, at _pos
        self._at_eof = False
        self.readahead_hits = 0     # reads served (fully) from the pipeline
        self.shared_hits = 0        # reads served from the shared cache
        self._m_ra_hits = _READAHEAD_HITS.labels(stream=name)
        self._m_shared_hits = _SHARED_HITS.labels(stream=name)
        self._gen = int(gen)
        self._shared: Optional[_SharedStreamCache] = None
        if shared_cache:
            self._shared = _shared_cache_acquire(client.address, name, self._gen)
        self._ra = _ReadAheadWindow(
            client,
            name,
            reader_id,
            read_timeout,
            read_ahead_bytes,
            read_ahead_depth,
            shared=self._shared,
            gen=self._gen,
        )

    def readable(self) -> bool:
        return True

    # -- shared-cache ack batching -----------------------------------------
    def _ack(self, start: int, end: int) -> None:
        """Queue a shared-cache-served range for acknowledgement.

        Acks from every co-located reader of this stream pool in the
        shared cache's aggregator; once the aggregate crosses
        ``ACK_FLUSH_BYTES`` the whole group's backlog goes out as one
        ``gb.consume_multi`` frame — one round trip and one server-side
        GC pass instead of one per reader.
        """
        if end <= start or self._shared is None:
            return
        entries = self._shared.ack(self.reader_id, start, end, self.ACK_FLUSH_BYTES)
        if entries:
            self._send_acks(entries)

    def _send_acks(self, entries: Sequence[Tuple[str, Sequence[Sequence[int]]]]) -> None:
        """One ``gb.consume_multi`` frame, best-effort: the transport
        already retried it, and a lost ack only delays GC."""
        try:
            self._client.consume_multi_ex(self.name, entries)
        except (OSError, RpcError):  # fault-ok: a lost ack delays GC, never corrupts
            pass

    # -- read path ---------------------------------------------------------
    def _recover(self, exc: BaseException) -> None:
        """The one recovery path: the head fetch or a window fetch failed.

        Fires past the transport's own retries, when a connection died
        (the front end restarted, a socket outlived the read deadline)
        or the service forgot this reader.  Resets the window (see
        :meth:`_ReadAheadWindow.reset`), re-registers (idempotent), and
        rebinds a re-created stream; the caller retries its read once
        at ``self._pos`` — exact, because acks track consumption per
        byte range (a silent socket's bound: ``_DEADLINE_MARGIN``).
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
            # buffered or cached belongs to a dead incarnation.  Swap to
            # the new generation's shared cache so no co-located reader
            # ever serves the old bytes.
            self._ra_buf = b""
            self._at_eof = False
            if self._shared is not None:
                _shared_cache_release(self._client.address, self.name, self._gen)
                self._shared = _shared_cache_acquire(self._client.address, self.name, gen)
            self._ra.rebind(self._shared, gen)
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
        out = bytearray()
        # 1. Serve from the read-ahead buffer first.
        if self._ra_buf:
            take = min(size, len(self._ra_buf))
            out += self._ra_buf[:take]
            self._ra_buf = self._ra_buf[take:]
            self._pos += take
            size -= take
            if size == 0:
                self.readahead_hits += 1
                self._m_ra_hits.inc()
                self._schedule_readahead()
                return bytes(out)
        # 2. Shared per-process cache: a co-located reader already
        # fetched this range; serve it locally and ack consumption.
        if self._shared is not None and not self._at_eof and size > 0:
            if self._shared.eof_total is not None and self._pos >= self._shared.eof_total:
                self._at_eof = True
                self._schedule_readahead()
                return bytes(out)
            data = self._shared.get(self._pos)
            if data is not None:
                take = min(size, len(data))
                out += data[:take]
                self._ra_buf = data[take:]
                self._ack(self._pos, self._pos + len(data))
                self._pos += take
                size -= take
                self.shared_hits += 1
                self._m_shared_hits.inc()
                self._schedule_readahead()
                return bytes(out)
        # 3. The window: a landed or in-flight span at _pos, or else the
        # head fetch, inline (a short read is fine — POSIX semantics —
        # but never block past EOF).
        if size > 0 and not self._at_eof:
            try:
                data, hit = self._next_span(size)
            except (OSError, RpcError) as exc:
                self._recover(exc)
                data, hit = self._next_span(size)
            if not data:
                self._at_eof = True
            else:
                take = min(size, len(data))
                out += data[:take]
                self._ra_buf = data[take:]
                self._pos += take
            if hit and out:
                self.readahead_hits += 1
                self._m_ra_hits.inc()
                self._ra.note_hit()
        self._schedule_readahead()
        return bytes(out)

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
                self._ra_buf = self._ra_buf[new_pos - self._pos:]
            else:
                self._ra_buf = b""
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
        if self._shared is not None:
            entries = self._shared.drain_acks()
            if entries:
                self._send_acks(entries)
            _shared_cache_release(self._client.address, self.name, self._gen)
            self._shared = None
        super().close()
