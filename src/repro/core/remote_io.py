"""Pipelined remote-IO building blocks.

The paper's buffer/proxy modes win on low-latency links because blocks
are *pipelined* — the next block is already in flight while the
application consumes the current one.  This module supplies the three
mechanisms the FM's remote paths share to get that behaviour:

* :class:`BlockCache` — a thread-safe LRU of ``(path, block_no)``
  blocks, shared by every proxy file opened through one
  :class:`~repro.core.remote_client.RemoteFileClient`, with counters
  distinguishing demand hits from prefetch hits and wasted prefetches.
* :class:`BlockPrefetcher` — keeps a window of blocks in flight as
  ``get_block`` futures on the engine loop, on one connection of its
  own, so demand reads never queue behind read-ahead traffic and no
  open file costs a thread.
* :class:`WriteCoalescer` — a write-behind buffer that merges small
  contiguous writes into block-sized flushes (one ``put_block`` RPC
  per block instead of one per legacy WRITE call), through a ``flush``
  callable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future, wait
from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from .. import obs
from ..transport.aio import AsyncRpcClient, get_engine
from ..transport.gridftp import GridFtpClient

__all__ = ["BlockCache", "BlockPrefetcher", "WriteCoalescer"]

BlockKey = Tuple[str, int]

# Registry twins of the per-instance counters below: the instance
# attributes stay (policy/benchmarks read them per cache), the registry
# series aggregate across every cache/prefetcher/coalescer in process.
_PREFETCH_HITS = obs.counter(
    "fm_prefetch_hits_total", "Reads served by a block the pipeline prefetched"
)
_PREFETCH_WASTED = obs.counter(
    "fm_prefetch_wasted_total", "Prefetched blocks discarded before any read used them"
)
_DEMAND_HITS = obs.counter(
    "fm_demand_hits_total", "Reads served by a previously demand-fetched cached block"
)
_PREFETCH_RPCS = obs.counter(
    "fm_prefetch_rpcs_total", "Block RPCs completed by prefetchers on the engine loop"
)
_WRITE_FLUSHES = obs.counter(
    "fm_write_flushes_total", "Block flushes issued by write-behind coalescers"
)
_WRITE_COALESCED = obs.counter(
    "fm_write_coalesced_total", "WRITE calls absorbed into a pending run without an RPC"
)
_BLOCKS_CACHED = obs.gauge(
    "fm_blocks_cached", "Blocks currently resident across FM block caches"
)


class _CacheEntry:
    __slots__ = ("data", "prefetched", "consumed")

    def __init__(self, data: bytes, prefetched: bool):
        self.data = data
        self.prefetched = prefetched
        self.consumed = False


class BlockCache:
    """Thread-safe LRU block cache keyed by ``(path, block_no)``.

    Shared between every proxy file of one remote client so concurrent
    readers of the same file benefit from each other's fetches.
    Counters:

    * ``prefetch_hits`` — reads served by a block a prefetcher loaded;
    * ``prefetch_wasted`` — prefetched blocks evicted or invalidated
      before any reader consumed them;
    * ``demand_hits`` — reads served by a previously demand-fetched block.
    """

    def __init__(self, capacity_blocks: int = 64):
        self._capacity = max(1, capacity_blocks)
        self._entries: "OrderedDict[BlockKey, _CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.prefetch_hits = 0
        self.prefetch_wasted = 0
        self.demand_hits = 0

    @property
    def capacity(self) -> int:
        """Blocks the cache holds."""
        return self._capacity

    def fetch(self, path: str, block_no: int) -> Tuple[Optional[bytes], bool]:
        """The cached block (or None) and its pipeline credit.

        The second element is True when this lookup is the first consume
        of a prefetched block — i.e. the background pipeline, not a past
        demand fetch, paid for it.
        """
        with self._lock:
            entry = self._entries.get((path, block_no))
            if entry is None:
                return None, False
            self._entries.move_to_end((path, block_no))
            pipelined = entry.prefetched and not entry.consumed
            if pipelined:
                self.prefetch_hits += 1
                _PREFETCH_HITS.inc()
            elif not entry.prefetched:
                self.demand_hits += 1
                _DEMAND_HITS.inc()
            entry.consumed = True
            return entry.data, pipelined

    def put(self, path: str, block_no: int, data: bytes, prefetched: bool = False) -> None:
        with self._lock:
            if (path, block_no) not in self._entries:
                _BLOCKS_CACHED.inc()
            self._entries[(path, block_no)] = _CacheEntry(data, prefetched)
            self._entries.move_to_end((path, block_no))
            while len(self._entries) > self._capacity:
                _, evicted = self._entries.popitem(last=False)
                _BLOCKS_CACHED.dec()
                if evicted.prefetched and not evicted.consumed:
                    self.prefetch_wasted += 1
                    _PREFETCH_WASTED.inc()

    def contains(self, path: str, block_no: int) -> bool:
        with self._lock:
            return (path, block_no) in self._entries

    def invalidate(self, path: str, first_block: int, last_block: int) -> None:
        """Drop blocks ``first..last`` of ``path`` (a write dirtied them)."""
        with self._lock:
            for block_no in range(first_block, last_block + 1):
                entry = self._entries.pop((path, block_no), None)
                if entry is None:
                    continue
                _BLOCKS_CACHED.dec()
                if entry.prefetched and not entry.consumed:
                    self.prefetch_wasted += 1
                    _PREFETCH_WASTED.inc()

    def invalidate_path(self, path: str) -> None:
        with self._lock:
            for key in [k for k in self._entries if k[0] == path]:
                entry = self._entries.pop(key)
                _BLOCKS_CACHED.dec()
                if entry.prefetched and not entry.consumed:
                    self.prefetch_wasted += 1
                    _PREFETCH_WASTED.inc()

    def note_wasted(self, n: int = 1) -> None:
        """Account prefetched data discarded before it entered the cache."""
        with self._lock:
            self.prefetch_wasted += n
        _PREFETCH_WASTED.inc(n)


class BlockPrefetcher:
    """Keeps a window of upcoming blocks in flight as futures on the engine.

    The owner (a proxy file) calls :meth:`schedule` with the block
    numbers it expects to need next, in order, and the window's depth;
    each scheduled block becomes one ``get_block``
    coroutine on :func:`~repro.transport.aio.get_engine`, and all of
    them pipeline on the prefetcher's one
    :class:`~repro.transport.aio.AsyncRpcClient` connection, dialled on
    the first :meth:`schedule`, so demand reads never queue behind
    read-ahead traffic and no block costs a thread.  A landed block
    goes into the shared :class:`BlockCache` marked *prefetched*.  A
    reader about to demand-fetch a block first calls :meth:`claim` — if
    that block is in flight it waits for the pipeline instead of issuing
    a duplicate RPC.

    Writes call :meth:`invalidate` so an in-flight block dirtied under
    the prefetcher is discarded on arrival (counted as wasted) rather
    than poisoning the cache.  A failed fetch lands nothing and is not
    scheduled again before a :meth:`claim` of it: the demand path
    re-fetches the block and surfaces the error.

    Block fetches take the prefetcher's lock on the loop, so an owner
    thread never holds it while it waits.
    """

    def __init__(self, path: str, client: GridFtpClient, block_size: int, cache: BlockCache):
        self._path = path
        self._client = client
        self._block_size = block_size
        self._cache = cache
        self._lock = threading.Lock()
        self._inflight: Dict[int, Future] = {}
        self._stale: Set[int] = set()
        self._failed: Set[int] = set()  # left to the demand path
        self._conn: Optional[AsyncRpcClient] = None
        self._stopped = False
        # Fetches run on the loop thread: they parent their rpc.client
        # spans under whatever span opened the file.
        self._trace_ctx = obs.current_context()

    # -- owner-side API ----------------------------------------------------
    def schedule(self, block_nos: Iterable[int], depth: int) -> None:
        """Put the blocks of ``block_nos`` in flight, in order, skipping
        any cached, in flight or left to the demand path, until ``depth``
        are in flight."""
        with self._lock:
            if self._stopped:
                return
            for block_no in block_nos:
                if len(self._inflight) >= depth:
                    return
                if (
                    block_no in self._inflight
                    or block_no in self._failed
                    or self._cache.contains(self._path, block_no)
                ):
                    continue
                if self._conn is None:
                    self._conn = AsyncRpcClient(*self._client.address)
                self._inflight[block_no] = get_engine().submit(self._run(self._conn, block_no))

    def claim(self, block_no: int, timeout: Optional[float] = None) -> bool:
        """Wait for ``block_no`` if it is in flight.

        Returns True when the block was (or is now) in the cache thanks
        to the pipeline; False means the caller must demand-fetch.
        """
        with self._lock:
            pending = self._inflight.get(block_no)
            self._failed.discard(block_no)
        if pending is not None:
            wait([pending], timeout)
        # Also true for a block that landed since the caller's cache miss.
        return self._cache.contains(self._path, block_no)

    def invalidate(self, first_block: int, last_block: int) -> None:
        """A write dirtied ``first..last``: discard them when they land."""
        with self._lock:
            for block_no in range(first_block, last_block + 1):
                if block_no in self._inflight:
                    self._stale.add(block_no)

    def close(self) -> None:
        """Fail every fetch in flight at once and wait for them to end."""
        with self._lock:
            self._stopped = True
            conn, self._conn = self._conn, None
            tasks = list(self._inflight.values())
        if conn is not None:
            get_engine().submit(conn.close())
        wait(tasks, timeout=5)

    # -- the fetch, on the loop ----------------------------------------------
    async def _run(self, conn: AsyncRpcClient, block_no: int) -> None:
        try:
            data: Optional[bytes] = await self._client.read_block_async(
                conn,
                self._path,
                block_no * self._block_size,
                self._block_size,
                parent=self._trace_ctx,
            )
            _PREFETCH_RPCS.inc()
        except Exception:  # noqa: BLE001 - the demand path re-fetches and surfaces it
            data = None
        with self._lock:
            self._inflight.pop(block_no, None)
            stale = block_no in self._stale
            self._stale.discard(block_no)
            if data is None:
                self._failed.add(block_no)
            elif stale:
                self._cache.note_wasted()
            else:
                self._cache.put(self._path, block_no, data, prefetched=True)


class WriteCoalescer:
    """Write-behind buffer merging contiguous writes into block flushes.

    ``write(offset, data)`` extends the pending run when the write is
    contiguous with it; anything else (a backwards write, a hole, an
    explicit ``flush``) pushes the pending bytes out through ``flush_fn``
    first.  Runs longer than ``block_size`` are flushed eagerly in
    block-sized RPCs so the buffer never grows unboundedly.
    """

    def __init__(self, flush_fn: Callable[[int, bytes], None], block_size: int):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self._flush_fn = flush_fn
        self._block_size = block_size
        self._start = 0
        self._buf = bytearray()
        self.flushes = 0          # put RPCs issued
        self.writes_coalesced = 0  # WRITE calls absorbed without an RPC

    def write(self, offset: int, data: bytes) -> None:
        if not data:
            return
        if self._buf and offset != self._start + len(self._buf):
            self.flush()
        if not self._buf:
            self._start = offset
        else:
            self.writes_coalesced += 1
            _WRITE_COALESCED.inc()
        self._buf += data
        while len(self._buf) >= self._block_size:
            chunk = bytes(self._buf[: self._block_size])
            self._flush_fn(self._start, chunk)
            self.flushes += 1
            _WRITE_FLUSHES.inc()
            del self._buf[: self._block_size]
            self._start += len(chunk)

    def flush(self) -> None:
        if self._buf:
            self._flush_fn(self._start, bytes(self._buf))
            self.flushes += 1
            _WRITE_FLUSHES.inc()
            self._start += len(self._buf)
            self._buf.clear()
