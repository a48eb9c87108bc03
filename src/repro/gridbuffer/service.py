"""The Grid Buffer service.

Implements Section 4's design: the service "acts as a sink for WRITE
operations and a source for READs", storing data "in a hash table
rather than a sequential buffer" so random reads and writes work.
Additional paper semantics implemented here:

* **blocking reads** — a read of data not yet written waits for the
  writer ("if a block has not been written, the reader must wait").
* **delete-on-read** — once every registered reader has consumed a
  block it is removed from the hash table, bounding memory.
* **cache file** — if configured, every written block is also recorded
  in a :class:`~repro.gridbuffer.cache.BufferCache`; re-reads and
  backwards seeks are served from it after the table copy is gone.
* **broadcast** — one writer, many readers; a block is only dropped
  when *all* readers have consumed it.
* **bounded capacity / backpressure** — writers block while the table
  holds ``capacity_bytes``; this is what propagates a slow WAN reader
  back to the upstream model in the Table 5 experiments.

The three data ops (``write_async``, ``write_multi_async``,
``read_async``) are coroutines and the only data path: a read of
unwritten data or a write into a full table parks a future on the
stream, so no waiter — cached stream or not — holds a thread.  Each
stream sits behind one plain lock, needed because lifecycle methods and
a cached write's cache-file step run on worker threads; it is held for
bounded work only, never across a wait.  The TCP server in
:mod:`repro.gridbuffer.server` awaits the coroutines from its handlers;
sync callers (tests) submit them to the same engine loop.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import zlib
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .. import faults, obs
from .cache import BufferCache, IntervalSet

__all__ = [
    "GridBufferError",
    "StreamClosed",
    "StreamFailed",
    "StreamStats",
    "GridBufferService",
]


logger = logging.getLogger("repro.gridbuffer")

_BYTES_WRITTEN = obs.counter(
    "buffer_bytes_written_total", "Bytes accepted by buffer streams", labelnames=("stream",)
)
_BLOCKS_STORED = obs.counter(
    "buffer_blocks_stored_total", "Blocks stored into buffer hash tables", labelnames=("stream",)
)
_BYTES_READ = obs.counter(
    "buffer_bytes_read_total", "Bytes delivered to buffer readers", labelnames=("stream",)
)
_CACHE_HITS = obs.counter(
    "buffer_cache_hits_total", "Reads served from a stream's cache file", labelnames=("stream",)
)
_CACHE_MISSES = obs.counter(
    "buffer_cache_misses_total",
    "Reads of consumed data with no cache file to fall back on",
    labelnames=("stream",),
)
_WRITER_STALLS = obs.counter(
    "buffer_writer_stalls_total",
    "Writer waits on a capacity-full buffer (backpressure events)",
    labelnames=("stream",),
)
_READER_WAITS = obs.counter(
    "buffer_reader_waits_total",
    "Reader waits for data not yet written",
    labelnames=("stream",),
)
_BLOCKS_CACHED = obs.gauge(
    "buffer_blocks_cached", "Blocks currently held in a stream's hash table", labelnames=("stream",)
)
_BYTES_CACHED = obs.gauge(
    "buffer_bytes_cached", "Bytes currently held in a stream's hash table", labelnames=("stream",)
)
_READERS = obs.gauge(
    "buffer_readers", "Readers registered on a stream (broadcast fan-out)", labelnames=("stream",)
)
_READER_LAG = obs.gauge(
    "buffer_reader_lag_bytes",
    "Bytes between the writer's high-water mark and a reader's read frontier",
    labelnames=("stream", "reader"),
)
_READER_LAG_BLOCKS = obs.gauge(
    "buffer_reader_lag_blocks",
    "Table blocks at/after a reader's contiguous consume frontier",
    labelnames=("stream", "reader"),
)
_ASYNC_PARKED = obs.gauge(
    "buffer_async_parked",
    "Coroutine handlers currently parked on a stream future",
    labelnames=("direction",),
)
_PARK_SECONDS = obs.histogram(
    "buffer_park_seconds",
    "Time a coroutine handler spent parked waiting for data/capacity",
    labelnames=("direction",),
)


class GridBufferError(RuntimeError):
    """Protocol violation or unavailable data."""


class StreamClosed(GridBufferError):
    """Write to a stream whose writer already closed it."""


class StreamFailed(GridBufferError):
    """The stream was aborted by a writer-side fault."""


@dataclass
class StreamStats:
    """Observable counters for one stream (for tests and benchmarks)."""

    bytes_written: int = 0
    bytes_read: int = 0
    blocks_in_table: int = 0
    bytes_in_table: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    writer_stalls: int = 0
    reader_waits: int = 0


class _Stream:
    def __init__(
        self,
        name: str,
        n_readers: int,
        capacity_bytes: Optional[int],
        cache: Optional[BufferCache],
        gen: int = 1,
    ):
        self.name = name
        self.n_readers = n_readers
        self.capacity = capacity_bytes
        self.cache = cache
        #: Stream generation: bumped by the service each time this name
        #: is *freshly* created (it survives drop_stream), so client
        #: caches keyed on it can never serve a previous incarnation's
        #: bytes.
        self.gen = gen
        self.blocks: Dict[int, bytes] = {}
        #: Sorted block offsets + the largest block seen: lets reads
        #: locate a covering block by bisection instead of scanning the
        #: whole dict per position.
        self.block_index: List[int] = []
        self.max_block_len = 0
        self.in_table = IntervalSet()
        self.written = IntervalSet()
        self.consumed: Dict[str, IntervalSet] = {}
        #: Write-batch sequences applied per writer token, exactly: a
        #: replayed batch (client retried after a lost reply) is deduped
        #: here even when it lands after later batches.  A stream's writer
        #: counts its seqs up under its own token, so the set is one
        #: interval plus at most the writer's in-flight window of gaps.
        self.applied_seq: Dict[str, IntervalSet] = {}
        self.eof_total: Optional[int] = None
        self.failed: Optional[str] = None
        self.mem_bytes = 0
        #: Guards every field above and below.  Held for bounded work
        #: only (table/interval updates, one batch's cache-file stores):
        #: waiting is always a parked future, never a held lock.
        self.lock = threading.Lock()
        #: (loop, future) pairs parked by the data coroutines, split by what
        #: they wait *for*: readers wait for new data/EOF/failure state,
        #: writers wait for freed capacity.  Keeping the lists separate
        #: is load-bearing — a broadcast stream has N readers succeeding
        #: per published block, and each success frees capacity (delete-
        #: on-read GC); if that woke the readers already re-parked for
        #: the *next* block it would be O(N^2) future churn per round.
        self.async_readers: List[Tuple[Any, Any]] = []
        self.async_writers: List[Tuple[Any, Any]] = []
        self.stats = StreamStats()
        # Per-stream metric children bound once; hot paths pay a lock + add.
        self.m_bytes_written = _BYTES_WRITTEN.labels(stream=name)
        self.m_blocks_stored = _BLOCKS_STORED.labels(stream=name)
        self.m_bytes_read = _BYTES_READ.labels(stream=name)
        self.m_cache_hits = _CACHE_HITS.labels(stream=name)
        self.m_cache_misses = _CACHE_MISSES.labels(stream=name)
        self.m_writer_stalls = _WRITER_STALLS.labels(stream=name)
        self.m_reader_waits = _READER_WAITS.labels(stream=name)
        self.m_blocks_cached = _BLOCKS_CACHED.labels(stream=name)
        self.m_bytes_cached = _BYTES_CACHED.labels(stream=name)
        self.m_readers = _READERS.labels(stream=name)

    def wake_all(self) -> None:
        """Wake every parked coroutine (callers hold ``lock``).

        Used for stream-global state changes (failure, resume, drop)
        where both directions must re-check.
        """
        self.wake_readers()
        self.wake_writers()

    def wake_readers(self) -> None:
        """Data/EOF became visible: wake coroutines parked on reads."""
        if self.async_readers:
            self._resolve(self.async_readers)
            self.async_readers = []

    def wake_writers(self) -> None:
        """Capacity freed (GC after read/consume): wake stalled writers."""
        if self.async_writers:
            self._resolve(self.async_writers)
            self.async_writers = []

    @staticmethod
    def _resolve(waiters: List[Tuple[Any, Any]]) -> None:
        """Resolve parked futures, one loop hop per event loop.

        All server-side waiters share the engine loop, so batching the
        futures into a single ``call_soon_threadsafe`` turns N wake-ups
        into one cross-thread signal.
        """
        by_loop: Dict[Any, List[Any]] = {}
        for loop, fut in waiters:
            by_loop.setdefault(loop, []).append(fut)
        for loop, futs in by_loop.items():
            loop.call_soon_threadsafe(_resolve_waiters, futs)

    def sync_table_gauges(self) -> None:
        """Push table occupancy into the registry (callers hold ``lock``)."""
        self.m_blocks_cached.set(len(self.blocks))
        self.m_bytes_cached.set(self.mem_bytes)

    def sync_reader_lag(self, reader_id: str) -> None:
        """Publish writer-frontier minus reader-frontier (callers hold ``lock``)."""
        ivs = self.written.intervals()
        top = ivs[-1][1] if ivs else 0
        done = self.consumed[reader_id].intervals()
        frontier = done[-1][1] if done else 0
        _READER_LAG.labels(stream=self.name, reader=reader_id).set(max(0, top - frontier))
        # Block-granular lag published by the *service* so it stays
        # exact when one consume covers many blocks (inferring blocks
        # from individual consume calls under-counts).
        behind = len(self.block_index) - bisect_left(self.block_index, frontier)
        _READER_LAG_BLOCKS.labels(stream=self.name, reader=reader_id).set(behind)


def _resolve_waiters(futs: List["asyncio.Future"]) -> None:
    for fut in futs:
        if not fut.done():
            fut.set_result(None)


async def _park(
    fut: "asyncio.Future", deadline: Optional[float], direction: str, timed_out: str
) -> None:
    """Wait on a future a stream's wake-up resolves; ``deadline`` is loop time."""
    loop = asyncio.get_running_loop()
    parked_at = loop.time()
    _ASYNC_PARKED.labels(direction=direction).inc()
    try:
        async with asyncio.timeout_at(deadline):  # None: wait indefinitely
            await fut
    except TimeoutError:
        raise TimeoutError(timed_out) from None
    finally:
        _ASYNC_PARKED.labels(direction=direction).dec()
        _PARK_SECONDS.labels(direction=direction).observe(loop.time() - parked_at)


class _AssemblyPlan:
    """Reply-assembly recipe built under the stream lock, executed outside.

    Table parts hold :class:`memoryview` slices of the immutable block
    ``bytes`` — still valid after delete-on-read GC removes the dict
    entries — and cache parts name file ranges to load once the lock is
    released, so cache-file IO never serialises the stream's other
    readers and the writer behind that lock.
    """

    __slots__ = ("total", "mem_parts", "cache_parts", "cache")

    def __init__(self, total: int, cache: Optional[BufferCache]):
        self.total = total
        self.mem_parts: List[Tuple[int, memoryview]] = []
        self.cache_parts: List[Tuple[int, int, int]] = []  # dest, file_off, length
        self.cache = cache

    def execute(self) -> bytes:
        if not self.cache_parts and len(self.mem_parts) == 1:
            return bytes(self.mem_parts[0][1])  # single-slice fast path
        buf = bytearray(self.total)
        for dest, view in self.mem_parts:
            buf[dest : dest + len(view)] = view
        for dest, off, length in self.cache_parts:
            buf[dest : dest + length] = self.cache.load(off, length)  # type: ignore[union-attr]
        return bytes(buf)


#: Registry shards: stream lookup contends only with same-shard
#: create/drop, never with every other stream's hot path.
_N_SHARDS = 16


class GridBufferService:
    """In-process Grid Buffer holding any number of named streams."""

    def __init__(self, default_capacity: Optional[int] = 32 * 1024 * 1024):
        self.default_capacity = default_capacity
        self._shard_locks = [threading.Lock() for _ in range(_N_SHARDS)]
        self._shard_maps: List[Dict[str, _Stream]] = [{} for _ in range(_N_SHARDS)]
        # Per-name generation counters.  Deliberately NOT per-stream
        # state: they must survive drop_stream so a re-created stream
        # gets a *new* generation — that is what tells a recovering
        # reader its buffered bytes belong to a dead incarnation after
        # a writer crash.  Own lock: names on
        # different shards share this dict.
        self._gen_lock = threading.Lock()
        self._generations: Dict[str, int] = {}

    def _shard(self, name: str) -> Tuple[threading.Lock, Dict[str, _Stream]]:
        i = zlib.crc32(name.encode("utf-8", "surrogatepass")) % _N_SHARDS
        return self._shard_locks[i], self._shard_maps[i]

    # -- stream lifecycle ----------------------------------------------------
    def create_stream(
        self,
        name: str,
        n_readers: int = 1,
        capacity_bytes: Optional[int] = None,
        cache: Optional[Callable[[], BufferCache]] = None,
    ) -> None:
        """Declare a stream before use.  Idempotent for identical config.

        ``cache`` makes the stream's cache file.  It is called under the
        registry lock, and only when this call creates the stream, so a
        repeated create never truncates a live stream's file.
        """
        if n_readers < 1:
            raise ValueError("n_readers must be >= 1")
        lock, streams = self._shard(name)
        with lock:
            existing = streams.get(name)
            if existing is not None:
                if existing.n_readers != n_readers:
                    raise GridBufferError(f"stream {name!r} already exists with different config")
                return
            cap = capacity_bytes if capacity_bytes is not None else self.default_capacity
            made = cache() if cache is not None else None
            with self._gen_lock:
                gen = self._generations.get(name, 0) + 1
                self._generations[name] = gen
            streams[name] = _Stream(name, n_readers, cap, made, gen=gen)
            logger.debug(
                "stream %s created (readers=%d capacity=%s cache=%s gen=%d)",
                name, n_readers, cap, cache is not None, gen,
            )

    def _stream(self, name: str) -> _Stream:
        lock, streams = self._shard(name)
        with lock:
            try:
                return streams[name]
            except KeyError:
                raise GridBufferError(f"unknown stream {name!r}") from None

    def exists(self, name: str) -> bool:
        lock, streams = self._shard(name)
        with lock:
            return name in streams

    def stream_names(self) -> List[str]:
        """Sorted names of every live stream (ops plane / introspection)."""
        names: List[str] = []
        for lock, streams in zip(self._shard_locks, self._shard_maps):
            with lock:
                names.extend(streams)
        return sorted(names)

    def register_reader(self, name: str, reader_id: str) -> int:
        """Attach a reader; at most ``n_readers`` distinct ids allowed.

        Returns the stream's generation, so a recovering reader learns
        the stream was re-created and drops the previous incarnation's
        buffered bytes.
        """
        st = self._stream(name)
        with st.lock:
            if reader_id in st.consumed:
                return st.gen
            if len(st.consumed) >= st.n_readers:
                raise GridBufferError(
                    f"stream {name!r} already has {st.n_readers} readers"
                )
            st.consumed[reader_id] = IntervalSet()
            st.m_readers.set(len(st.consumed))
            st.wake_writers()  # stall classification depends on reader count
            return st.gen

    def stats(self, name: str) -> StreamStats:
        st = self._stream(name)
        with st.lock:
            st.stats.blocks_in_table = len(st.blocks)
            st.stats.bytes_in_table = st.mem_bytes
            return StreamStats(**vars(st.stats))

    def drop_stream(self, name: str) -> None:
        lock, streams = self._shard(name)
        with lock:
            st = streams.pop(name, None)
        if st is None:
            return
        with st.lock:
            # Parked coroutines still hold the popped stream: fail it so
            # they raise instead of waiting on a name nobody can reach.
            st.failed = "stream dropped"
            st.wake_all()
        if st.cache is not None:
            st.cache.close()

    # -- writer side ----------------------------------------------------------
    async def write_async(
        self,
        name: str,
        offset: int,
        data: bytes,
        timeout: Optional[float] = None,
        token: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> Optional[str]:
        """Store a block at ``offset``; parks while capacity is exhausted.

        The one-run case of :meth:`write_multi_async` (same ``timeout``
        and ``token``/``seq`` replay-dedupe contract).  Returns the stall
        reason (``"buffer_full"``/``"slow_reader"``) if the writer had
        to wait, else ``None``.
        """
        _total, stall = await self._write_runs_async(
            "write", name, [(offset, data)], timeout, token, seq
        )
        return stall

    async def write_multi_async(
        self,
        name: str,
        runs: Sequence[Tuple[int, bytes]],
        timeout: Optional[float] = None,
        token: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> Tuple[int, Optional[str]]:
        """Scatter several blocks under one lock acquisition.

        One vectored call replaces ``len(runs)`` round trips *and*
        ``len(runs)`` lock/wake cycles; readers are woken once, after
        all blocks landed.  Returns ``(total bytes stored, stall
        reason)`` where the stall reason is ``None`` when the batch
        landed without waiting for capacity (else
        ``"buffer_full"``/``"slow_reader"`` — see :meth:`_store_fitting`).
        ``timeout`` bounds the whole call, however often it parks.

        ``token`` identifies the writer and ``seq`` its batch, unique
        per batch: a batch whose ``seq`` was already applied for
        ``token`` is a transport-level replay (the client retried after
        losing the reply, not the request) and is skipped, in whatever
        order batches arrive, making ``gb.write_multi`` safe to retry
        and to pipeline.
        """
        return await self._write_runs_async("write_multi", name, runs, timeout, token, seq)

    async def _write_runs_async(
        self,
        op: str,
        name: str,
        runs: Sequence[Tuple[int, bytes]],
        timeout: Optional[float],
        token: Optional[str],
        seq: Optional[int],
    ) -> Tuple[int, Optional[str]]:
        """Store ``runs``, parking on the loop whenever the table is full.

        Alternates the never-waiting :meth:`_store_fitting` step with a
        park on the future that step registered.  The step runs inline
        for a cache-less stream; a cached stream's step writes the cache
        file, which is blocking disk IO, so it runs on a worker thread —
        held for that one bounded step, never for the stall.
        """
        for offset, _ in runs:
            if offset < 0:
                raise ValueError("offset must be >= 0")
        injector = faults.ACTIVE
        if injector is not None:
            # On the event loop: await, so a delay rule stalls only this
            # handler, not every connection sharing the loop.
            await injector.fire_async("gb.service", op, name)
        st = self._stream(name)
        runs = [(int(offset), data) for offset, data in runs if data]
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        total = 0
        stall: Optional[str] = None
        i = 0
        while True:
            if st.cache is None:
                i, stored, why, fut = self._store_fitting(st, runs, i, token, seq, loop)
            else:
                i, stored, why, fut = await loop.run_in_executor(
                    None, self._store_fitting, st, runs, i, token, seq, loop
                )
            total += stored
            stall = why or stall
            if fut is None:
                return total, stall
            await _park(fut, deadline, "write", f"write stalled on full buffer {name!r}")

    def _store_fitting(
        self,
        st: _Stream,
        runs: Sequence[Tuple[int, bytes]],
        i: int,
        token: Optional[str],
        seq: Optional[int],
        loop: "asyncio.AbstractEventLoop",
    ) -> Tuple[int, int, Optional[str], Optional["asyncio.Future"]]:
        """Land the runs from ``runs[i]`` on that fit *now*; never waits.

        Returns ``(next i, bytes stored, stall reason, future)``.  The
        future is set when capacity ran out before the batch did: it is
        registered under the same lock hold that found the table full,
        so — on whichever thread this runs — the wake-up of whoever
        frees capacity cannot fall between the check and the park.  The
        stall reason is ``"slow_reader"`` when every reader is
        registered but lagging (the buffer drains as slowly as its
        slowest consumer), ``"buffer_full"`` when capacity is exhausted
        with readers still missing (nothing can be GC'd yet, so batching
        harder cannot help).
        """
        stored = 0
        stall: Optional[str] = None
        fut = None
        dedupe = token is not None and seq is not None
        with st.lock:
            applied = st.applied_seq.setdefault(token, IntervalSet()) if dedupe else None
            if i == 0 and applied is not None and applied.covers(seq, seq + 1):
                return len(runs), 0, None, None  # replayed batch: already landed
            while i < len(runs):
                offset, data = runs[i]
                self._check_writable(st, len(data))
                if st.capacity is not None and st.mem_bytes + len(data) > st.capacity:
                    stall = "slow_reader" if len(st.consumed) >= st.n_readers else "buffer_full"
                    st.stats.writer_stalls += 1
                    st.m_writer_stalls.inc()
                    break
                self._store_block(st, offset, data)
                stored += len(data)
                i += 1
            if i == len(runs) and applied is not None:
                applied.add(seq, seq + 1)
            st.sync_table_gauges()
            # Publish whatever landed (possibly a partial batch), or the
            # readers a stalled writer depends on could never drain —
            # and only then register the waiter, so this wake cannot
            # consume the future we are about to park on.
            st.wake_readers()
            if i < len(runs):
                fut = loop.create_future()
                st.async_writers.append((loop, fut))
        return i, stored, stall, fut

    @staticmethod
    def _check_writable(st: _Stream, data_len: int) -> None:
        """Raise unless the stream can (eventually) accept a block."""
        if st.failed is not None:
            raise StreamFailed(f"stream {st.name!r} failed: {st.failed}")
        if st.eof_total is not None:
            raise StreamClosed(f"stream {st.name!r} writer already closed")
        if st.capacity is not None and data_len > st.capacity:
            raise GridBufferError(
                f"block of {data_len} bytes exceeds stream capacity {st.capacity}"
            )

    def _store_block(self, st: _Stream, offset: int, data: bytes) -> None:
        """Land one block in the table (capacity already available)."""
        if st.written.covers(offset, offset + len(data)) and st.cache is None:
            # Overwrite of in-flight data: replace table contents.
            self._drop_blocks_overlapping(st, offset, offset + len(data))
        old = st.blocks.get(offset)
        if old is not None:
            st.mem_bytes -= len(old)  # same-offset rewrite replaces, not adds
        else:
            insort(st.block_index, offset)
        st.blocks[offset] = bytes(data)
        st.max_block_len = max(st.max_block_len, len(data))
        st.in_table.add(offset, offset + len(data))
        st.written.add(offset, offset + len(data))
        st.mem_bytes += len(data)
        st.stats.bytes_written += len(data)
        st.m_bytes_written.inc(len(data))
        st.m_blocks_stored.inc()
        if st.cache is not None:
            st.cache.store(offset, data)

    @staticmethod
    def _contiguous_top(st: _Stream) -> int:
        """End of the prefix written contiguously from offset 0 (holds ``lock``)."""
        gap = st.written.first_gap(0, 1 << 62)
        return gap[0] if gap is not None else 1 << 62

    def close_writer(self, name: str) -> int:
        """Mark EOF; returns the stream's total length.

        The stream must be contiguous from offset 0 — a gap means some
        range was never written and readers would block forever.
        """
        st = self._stream(name)
        with st.lock:
            if st.eof_total is not None:
                return st.eof_total
            total = self._contiguous_top(st)
            if st.written.total() > total:
                raise GridBufferError(
                    f"stream {name!r} has unwritten gap at offset {total}; cannot close"
                )
            st.eof_total = total
            st.wake_readers()
            return total

    # -- fault handling ---------------------------------------------------------
    def abort_writer(self, name: str, reason: str = "writer aborted") -> None:
        """Mark the stream failed; waiting readers raise StreamFailed.

        A stream with no EOF whose writer dies would otherwise block its
        readers forever (Section 4 motivates the cache partly as fault
        flexibility — this is the explicit failure signal).
        """
        st = self._stream(name)
        with st.lock:
            st.failed = reason
            logger.warning("stream %s aborted: %s", name, reason)
            st.wake_all()

    def resume_writer(self, name: str) -> int:
        """Clear a failure and return the offset to resume writing from.

        The resume point is the contiguous high-water mark: everything
        below it was durably delivered (table or cache).  A restarted
        writer seeks its source to this offset and continues.
        """
        st = self._stream(name)
        with st.lock:
            if st.eof_total is not None:
                raise StreamClosed(f"stream {name!r} already completed")
            st.failed = None
            st.wake_all()
            return self._contiguous_top(st)

    def high_water(self, name: str) -> int:
        """Contiguous bytes written from offset 0 (resume/monitor aid)."""
        st = self._stream(name)
        with st.lock:
            return self._contiguous_top(st)

    # -- reader side ----------------------------------------------------------
    async def read_async(
        self,
        name: str,
        reader_id: str,
        offset: int,
        length: int,
        timeout: Optional[float] = None,
        min_bytes: int = 1,
    ) -> bytes:
        """Read up to ``length`` bytes at ``offset`` for ``reader_id``.

        POSIX semantics: waits only while *nothing* is available at
        ``offset``; otherwise returns the available prefix (possibly
        fewer than ``length`` bytes).  Returns ``b""`` exactly when
        ``offset`` is at/after EOF.  Waiting for the full range would
        deadlock against a capacity-stalled writer.

        ``min_bytes > 1`` (the windowed-read op) keeps waiting until
        at least that much is contiguously available — unless EOF or
        the ``length`` budget bounds the wait first — so a fast reader
        polling a slow writer costs one reply per window, not one per
        trickled block.

        A wait parks a future on the stream instead of a server thread,
        which is what lets one node hold thousands of concurrently
        blocked readers; ``timeout`` bounds the whole call.  Cache-file
        IO and reply assembly happen *outside* the stream lock (the
        former on a worker thread): under the lock the service only
        plans the reply (slices of immutable table blocks + cache
        ranges), marks consumption and runs GC.
        """
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be >= 0")
        injector = faults.ACTIVE
        if injector is not None:
            await injector.fire_async("gb.service", "read", name)
        min_bytes = max(1, min(min_bytes, length)) if length else 0
        st = self._stream(name)
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while True:
            fut = None
            with st.lock:
                res = self._read_attempt(st, reader_id, offset, length, min_bytes)
                if res is None:
                    st.stats.reader_waits += 1
                    st.m_reader_waits.inc()
                    fut = loop.create_future()
                    st.async_readers.append((loop, fut))
            if res is not None:
                break
            await _park(
                fut, deadline, "read",
                f"read of [{offset},{offset + length}) timed out on stream {name!r}",
            )
        if isinstance(res, bytes):
            return res
        if res.cache_parts:
            return await loop.run_in_executor(None, res.execute)
        return res.execute()

    def _read_attempt(
        self, st: _Stream, reader_id: str, offset: int, length: int, min_bytes: int
    ):
        """One readiness check under ``st.lock``.

        Returns an :class:`_AssemblyPlan` when data is servable now,
        ``b""`` at/after EOF, or ``None`` when the caller must wait.
        Raises for unregistered readers, failed streams and
        unrecoverable (consumed, uncached) ranges.
        """
        if reader_id not in st.consumed:
            raise GridBufferError(
                f"reader {reader_id!r} not registered on stream {st.name!r}"
            )
        if st.failed is not None:
            raise StreamFailed(f"stream {st.name!r} failed: {st.failed}")
        end = offset + length
        if st.eof_total is not None:
            if offset >= st.eof_total:
                return b""
            end = min(end, st.eof_total)
        avail_end = self._available_upto(st, offset, end)
        if avail_end > offset and (avail_end - offset >= min_bytes or avail_end >= end):
            plan = self._plan_assembly(st, reader_id, offset, avail_end)
            st.stats.bytes_read += plan.total
            st.m_bytes_read.inc(plan.total)
            st.sync_reader_lag(reader_id)
            st.wake_writers()  # delete-on-read GC may have freed capacity
            return plan
        if avail_end < end and st.written.covers(avail_end, avail_end + 1):
            # Written, consumed and uncached: waiting would block forever
            # for data that will never reappear.
            raise GridBufferError(
                f"range [{avail_end},{end}) of stream {st.name!r} was consumed and no "
                "cache file is configured (sequential-only stream)"
            )
        return None  # genuinely unwritten: caller should wait

    def total_bytes(self, name: str) -> Optional[int]:
        """Stream length once the writer closed it, else ``None``."""
        st = self._stream(name)
        with st.lock:
            return st.eof_total

    def mark_consumed_multi(
        self,
        name: str,
        entries: Sequence[Tuple[str, Iterable[Tuple[int, int]]]],
    ) -> None:
        """Record ranges as consumed, without reading, for several readers.

        Backs the ``gb.consume_multi`` wire op: one frame, one lock
        acquisition and one GC pass for the whole group, and
        delete-on-read GC and the per-reader lag gauges move as if each
        reader had read its ranges.  Ranges outside written data are
        ignored.  All readers are validated before anything is
        applied.
        """
        st = self._stream(name)
        with st.lock:
            for reader_id, _ranges in entries:
                if reader_id not in st.consumed:
                    raise GridBufferError(
                        f"reader {reader_id!r} not registered on stream {name!r}"
                    )
            touched: List[int] = []
            for reader_id, ranges in entries:
                for start, end in ranges:
                    start, end = max(0, int(start)), int(end)
                    if end <= start:
                        continue
                    st.consumed[reader_id].add(start, end)
                    st.stats.bytes_read += end - start
                    st.m_bytes_read.inc(end - start)
                    touched.extend(self._blocks_overlapping(st, start, end))
                st.sync_reader_lag(reader_id)
            self._gc_blocks(st, touched)
            st.sync_table_gauges()
            st.wake_writers()

    # -- internals -----------------------------------------------------------
    def _available_upto(self, st: _Stream, start: int, end: int) -> int:
        """Furthest position in [start, end) servable contiguously now."""
        pos = start
        while pos < end:
            if st.in_table.covers(pos, pos + 1):
                gap = st.in_table.first_gap(pos, end)
                pos = end if gap is None else gap[0]
            elif st.cache is not None and st.cache.has(pos, 1):
                pos = min(st.cache.valid_upto(pos), end)
            else:
                break
        return pos

    def _plan_assembly(
        self, st: _Stream, reader_id: str, start: int, end: int
    ) -> _AssemblyPlan:
        """Plan the reply for [start, end) and account it (holds ``lock``).

        Collects memoryview slices over the table's immutable block
        bytes plus cache-range descriptors; the caller executes the
        plan (the actual copying and cache-file IO) after releasing
        the stream lock.
        """
        plan = _AssemblyPlan(end - start, st.cache)
        pos = start
        touched: list[int] = []
        while pos < end:
            block_off = self._covering_block(st, pos)
            if block_off is not None:
                data = st.blocks[block_off]
                take_from = pos - block_off
                take = min(len(data) - take_from, end - pos)
                plan.mem_parts.append(
                    (pos - start, memoryview(data)[take_from : take_from + take])
                )
                touched.append(block_off)
                pos += take
                continue
            if st.cache is not None and st.cache.has(pos, 1):
                upto = min(st.cache.valid_upto(pos), end)
                plan.cache_parts.append((pos - start, pos, upto - pos))
                st.stats.cache_hits += 1
                st.m_cache_hits.inc()
                pos = upto
                continue
            st.stats.cache_misses += 1
            st.m_cache_misses.inc()
            raise GridBufferError(
                f"range [{pos},{end}) of stream {st.name!r} was consumed and no "
                "cache file is configured (sequential-only stream)"
            )
        st.consumed[reader_id].add(start, end)
        self._gc_blocks(st, touched)
        st.sync_table_gauges()
        return plan

    def _covering_block(self, st: _Stream, pos: int) -> Optional[int]:
        """Offset of a table block covering ``pos`` (bisect, not scan)."""
        if not st.in_table.covers(pos, pos + 1):
            return None
        idx = st.block_index
        i = bisect_right(idx, pos) - 1
        # Walk left over candidate offsets; no block further left than
        # max_block_len can reach pos, which bounds the walk to the
        # (rare, cache-stream-only) overlapping-block case.
        floor = pos - st.max_block_len
        while i >= 0:
            off = idx[i]
            if off < floor:
                break
            data = st.blocks.get(off)
            if data is not None and off <= pos < off + len(data):
                return off
            i -= 1
        return None

    def _blocks_overlapping(self, st: _Stream, start: int, end: int) -> List[int]:
        """Offsets of table blocks intersecting [start, end)."""
        idx = st.block_index
        lo = bisect_right(idx, max(0, start - st.max_block_len))
        lo = max(0, lo - 1)
        out = []
        for i in range(lo, len(idx)):
            off = idx[i]
            if off >= end:
                break
            data = st.blocks.get(off)
            if data is not None and off + len(data) > start:
                out.append(off)
        return out

    def _drop_block(self, st: _Stream, off: int) -> None:
        """Remove one table block and its index/interval/byte accounting."""
        data = st.blocks.pop(off)
        i = bisect_left(st.block_index, off)
        if i < len(st.block_index) and st.block_index[i] == off:
            del st.block_index[i]
        st.mem_bytes -= len(data)
        st.in_table.remove(off, off + len(data))

    def _gc_blocks(self, st: _Stream, offsets: list[int]) -> None:
        """Drop table blocks fully consumed by every registered reader.

        Until all ``n_readers`` readers have registered, nothing is
        dropped (a late-joining reader must still see the data).
        """
        if len(st.consumed) < st.n_readers:
            return
        for off in set(offsets):
            data = st.blocks.get(off)
            if data is not None and all(
                c.covers(off, off + len(data)) for c in st.consumed.values()
            ):
                self._drop_block(st, off)

    def _drop_blocks_overlapping(self, st: _Stream, start: int, end: int) -> None:
        for off in self._blocks_overlapping(st, start, end):
            self._drop_block(st, off)
