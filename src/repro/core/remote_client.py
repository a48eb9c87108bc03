"""Remote File Client: proxy access and copy-in/copy-out.

Section 3.1 describes the two remote strategies the FM can choose:

* **copy** — "the remote file can be copied to the local machine, and
  then local operations can be performed.  If the file is modified it
  can be copied back when it is CLOSED."  Implemented by
  :class:`CopyInOutFile`.
* **proxy** — "the FM can access the file on the remote machine using a
  proxy file server" (our GridFTP-like block server).  Implemented by
  :class:`RemoteProxyFile`, a file-like object that fetches blocks on
  demand, pipelines sequential reads through a prefetcher on the engine
  loop, and coalesces small sequential writes into block-sized RPCs.
"""

from __future__ import annotations

import io
import os
import tempfile
from collections import deque
from concurrent.futures import Future
from itertools import chain
from pathlib import Path
from typing import Deque, Iterable, Optional, Tuple

from .. import ioutil, obs
from ..ioutil import ReadIntoFromRead
from ..transport.aio import AsyncRpcClient, close_at_exit, get_engine
from ..transport.gridftp import DEFAULT_BLOCK, GridFtpClient
from ..transport.tcp import RpcError
from .remote_io import BlockCache, BlockPrefetcher, WriteCoalescer

__all__ = ["RemoteProxyFile", "CopyInOutFile", "RemoteFileClient"]


class RemoteProxyFile(ReadIntoFromRead, io.RawIOBase):
    """File-like proxy over a remote file, block at a time.

    Reads fetch ``block_size``-aligned blocks through a shared
    :class:`~repro.core.remote_io.BlockCache`.  A read at block 0, or at
    the block after the last one read, has a
    :class:`~repro.core.remote_io.BlockPrefetcher` keep the next
    blocks in flight as futures on the engine loop, pipelined on one
    connection of its own, so a sequential legacy read loop never stalls
    on a round trip and the handle costs no thread.  On a file whose
    blocks fit the cache, any other read keeps the window busy with the
    file's uncached blocks, from the one after it round to the start.
    Every window is :meth:`GridFtpClient.window_depth` deep.

    Writes are coalesced write-behind into block-sized ``put_block``
    RPCs.  The handle's first block goes over the client's pooled demand
    connection (a one-block file dials nothing); every later one is a
    future on one :class:`~repro.transport.aio.AsyncRpcClient` of the
    handle's own, a window of them in flight.  ``seek``,
    ``read``, ``flush`` and ``close`` drain that window first, so two
    overlapping puts are never in flight together and reads see the
    handle's writes.  A failed put is kept: the next ``write``, ``flush``,
    ``seek``, ``read`` or ``close`` waits out the rest of the window and
    raises it.

    Observable counters: ``rpc_reads`` (demand RPCs this handle's reads
    issued), ``prefetch_hits`` (reads served by the pipeline),
    ``prefetch_wasted`` (prefetched blocks never consumed) and
    ``put_rpcs``.
    """

    def __init__(
        self,
        client: GridFtpClient,
        path: str,
        writable: bool = False,
        block_size: int = DEFAULT_BLOCK,
        cache_blocks: int = 8,
        cache: Optional[BlockCache] = None,
        prefetch: bool = True,
        size: Optional[int] = None,
        offset: int = 0,
    ):
        super().__init__()
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if offset < 0:
            raise ValueError("negative seek position")
        self._client = client
        self._path = path
        self._writable = writable
        self._block_size = block_size
        self._pos = offset
        self._cache = cache if cache is not None else BlockCache(max(1, cache_blocks))
        self._size_cache = size
        self.rpc_reads = 0  # demand RPCs issued by this handle's reads
        self.prefetch_hits = 0
        # -- read-ahead --
        self._prefetch_enabled = prefetch
        self._prefetcher: Optional[BlockPrefetcher] = None
        # A handle streams on from where it opens: its first read there
        # is the block after the last one read.
        self._last_block = offset // block_size - 1
        # -- write-behind --
        self._coalescer = WriteCoalescer(self._flush_run, block_size) if writable else None
        self._head_sent = False
        self._puts: Deque[Tuple[int, int, Future]] = deque()  # (first, last, put)
        self._put_conn: Optional[AsyncRpcClient] = None
        self._error: Optional[Exception] = None
        # Window puts run on the loop: they parent their rpc.client
        # spans under whatever span opened the file.
        self._trace_ctx = obs.current_context()
        close_at_exit(self)

    # -- capabilities ----------------------------------------------------------
    def readable(self) -> bool:
        return True

    def writable(self) -> bool:
        return self._writable

    def seekable(self) -> bool:
        return True

    @property
    def prefetch_wasted(self) -> int:
        """Prefetched blocks (across the shared cache) never consumed."""
        return self._cache.prefetch_wasted

    @property
    def put_rpcs(self) -> int:
        return self._coalescer.flushes if self._coalescer is not None else 0

    # -- geometry ----------------------------------------------------------
    def _size(self, refresh: bool = False) -> int:
        if self._size_cache is None or refresh:
            self._size_cache = self._client.size(self._path)
        return self._size_cache

    def _blocks(self, nbytes: int) -> int:
        return -(-nbytes // self._block_size)

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:  # type: ignore[override]
        self._flush_writes()
        if whence == os.SEEK_SET:
            new_pos = offset
        elif whence == os.SEEK_CUR:
            new_pos = self._pos + offset
        elif whence == os.SEEK_END:
            new_pos = self._size(refresh=True) + offset
        else:
            raise ValueError(f"bad whence {whence}")
        if new_pos < 0:
            raise ValueError("negative seek position")
        self._pos = new_pos
        return self._pos

    def tell(self) -> int:
        return self._pos

    # -- read-ahead ----------------------------------------------------------
    def _note_block(self, block_no: int) -> None:
        """A read entered ``block_no``: at block 0 or the block after the
        last one read, keep the next blocks in flight; elsewhere in a
        file of known size that fits the cache, keep the window busy
        with its uncached blocks, from ``block_no + 1`` round to the
        start.  Anywhere else (a larger file, or one of unknown size),
        start nothing: each miss is one demand fetch."""
        last, self._last_block = self._last_block, block_no
        if not self._prefetch_enabled or block_no == last:
            return
        depth = self._client.window_depth(self._block_size)
        if block_no in (0, last + 1):
            end = block_no + 1 + depth
            try:
                end = min(end, self._blocks(self._size()))
            except (OSError, RpcError):  # fault-ok: the window just runs to its full depth
                pass
            wanted: Iterable[int] = range(block_no + 1, end)
            if not wanted:
                return
        elif self._size_cache is not None and (
            self._blocks(self._size_cache) <= self._cache.capacity
        ):
            end = self._blocks(self._size_cache)
            wanted = chain(range(block_no + 1, end), range(block_no))
        else:
            return
        if self._prefetcher is None:
            self._prefetcher = BlockPrefetcher(
                self._path, self._client, self._block_size, self._cache
            )
        self._prefetcher.schedule(wanted, depth)

    # -- reads -----------------------------------------------------------
    def _fetch_block(self, block_no: int) -> bytes:
        data, pipelined = self._cache.fetch(self._path, block_no)
        if data is None and self._prefetcher is not None:
            if self._prefetcher.claim(block_no, timeout=30.0):
                data, pipelined = self._cache.fetch(self._path, block_no)
        if data is None:
            data = self._client.read_block(
                self._path, block_no * self._block_size, self._block_size
            )
            self.rpc_reads += 1
            self._cache.put(self._path, block_no, data, prefetched=False)
        elif pipelined:
            self.prefetch_hits += 1
        self._note_block(block_no)
        return data

    def read(self, size: int = -1) -> bytes:  # type: ignore[override]
        self._flush_writes()
        if size is None or size < 0:
            size = max(0, self._size(refresh=True) - self._pos)
        parts = []
        while size > 0:
            block_no, inner = divmod(self._pos, self._block_size)
            block = self._fetch_block(block_no)
            if inner >= len(block):
                break  # EOF
            take = min(size, len(block) - inner)
            parts.append(memoryview(block)[inner : inner + take])
            self._pos += take
            size -= take
            if len(block) < self._block_size:
                break  # short block == end of file
        # One copy: a span inside one block is a slice of it.
        return b"".join(parts)

    # -- writes -----------------------------------------------------------
    def _flush_run(self, offset: int, data: bytes) -> None:
        """Coalescer sink: the handle's first block goes out inline on the
        pooled demand client, every later one as a ``put_block`` future
        in the window, after waiting for a free slot."""
        first = offset // self._block_size
        last = (offset + len(data) - 1) // self._block_size
        if not self._head_sent:
            self._head_sent = True
            self._client.write_block(self._path, offset, data)
            self._landed(first, last)
            return
        while len(self._puts) >= self._client.window_depth(self._block_size):
            self._reap()
        if self._error is not None:
            return  # a failed handle sends no more; its next call raises
        if self._put_conn is None:
            self._put_conn = AsyncRpcClient(*self._client.address)
        put = self._client.write_block_async(
            self._put_conn, self._path, offset, data, self._trace_ctx
        )
        self._puts.append((first, last, get_engine().submit(put)))

    def _landed(self, first: int, last: int) -> None:
        """A put landed: drop whatever was cached or fetched of its blocks."""
        self._cache.invalidate(self._path, first, last)
        if self._prefetcher is not None:
            self._prefetcher.invalidate(first, last)
        self._size_cache = None

    def _reap(self) -> None:
        """Wait for the oldest put; a failure is kept for the next call."""
        first, last, put = self._puts.popleft()
        try:
            put.result()
        except Exception as exc:  # noqa: BLE001 - kept; raised by the handle's next call
            self._error = self._error or exc
        self._landed(first, last)

    def _drain(self) -> None:
        """Wait for every put in flight; raise the handle's failure, if any."""
        while self._puts:
            self._reap()
        if self._error is not None:
            raise self._error

    def _flush_writes(self) -> None:
        if self._coalescer is not None:
            self._coalescer.flush()
            self._drain()

    def write(self, data) -> int:  # type: ignore[override]
        if not self._writable:
            raise io.UnsupportedOperation("file not open for writing")
        assert self._coalescer is not None
        data = bytes(data)
        if data:
            # Invalidate eagerly so a prefetched copy of the old bytes
            # can't be served between this write and its flush.
            first = self._pos // self._block_size
            last = (self._pos + len(data) - 1) // self._block_size
            self._cache.invalidate(self._path, first, last)
            if self._prefetcher is not None:
                self._prefetcher.invalidate(first, last)
            self._coalescer.write(self._pos, data)
            self._pos += len(data)
            self._size_cache = None
        if self._error is not None:
            self._drain()
        return len(data)

    def flush(self) -> None:  # type: ignore[override]
        self._flush_writes()
        super().flush()

    def close(self) -> None:
        if self.closed:
            return
        try:
            self._flush_writes()
        finally:
            if self._put_conn is not None:
                get_engine().submit(self._put_conn.close()).result(timeout=5.0)
                self._put_conn = None
            if self._prefetcher is not None:
                self._prefetcher.close()
                self._prefetcher = None
            super().close()


class CopyInOutFile(ReadIntoFromRead, io.RawIOBase):
    """Whole-file copy-in on open, copy-out on close (if modified).

    With ``verify=True`` the local copy's SHA-256 is compared against
    the server's after the fetch (end-to-end integrity over however
    many blocks the transfer kept in flight).
    """

    def __init__(
        self,
        client: GridFtpClient,
        remote_path: str,
        mode: str,
        scratch_dir: Optional[Path] = None,
        verify: bool = False,
    ):
        super().__init__()
        self._client = client
        self._remote_path = remote_path
        self._verify = verify
        core = mode.replace("b", "").replace("t", "")
        self._reading = "r" in core or "+" in core
        self._writing = any(f in core for f in ("w", "a")) or "+" in core
        self._dirty = False
        if scratch_dir is not None:
            Path(scratch_dir).mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix="fm-copy-", dir=str(scratch_dir) if scratch_dir else None
        )
        os.close(fd)
        self._local_path = Path(tmp)
        try:
            if core in ("r", "r+", "a", "a+"):
                try:  # fetch_file's head block is the existence check
                    client.fetch_file(remote_path, self._local_path)
                except RpcError as exc:
                    if exc.kind != "not-found":
                        raise
                    if not core.startswith("a"):
                        raise FileNotFoundError(remote_path) from exc
                    # POSIX append creates a missing file; the copy-out
                    # on close materialises it remotely.
                    self._dirty = True
                if verify and not self._dirty:
                    self._verified_fetch()
            self._fh = open(self._local_path, self._local_mode(core))
        except BaseException:
            self._local_path.unlink(missing_ok=True)
            raise
        if core.startswith("a"):
            self._fh.seek(0, os.SEEK_END)

    #: Whole-file re-fetches attempted when a verified copy-in mismatches.
    _VERIFY_REFETCHES = 2

    def _verified_fetch(self) -> None:
        """Check the copy-in against the server; re-fetch on mismatch.

        The whole-file ``checksum`` op is the end of the integrity
        chain: it catches corruption the per-frame wire CRC cannot see
        (bit rot on disk, a bad block spliced in by a resumed
        transfer).  A mismatch discards the local copy and re-fetches
        from scratch — transient corruption heals; persistent mismatch
        (the remote file really changed under us, or the link corrupts
        every pass) raises after ``_VERIFY_REFETCHES`` re-fetches.
        """
        last_error: Optional[IOError] = None
        for attempt in range(1 + self._VERIFY_REFETCHES):
            try:
                self._verify_against_remote()
                return
            except IOError as exc:
                last_error = exc
                ioutil.count_integrity_error("copyin", "refetch")
                obs.event(
                    "copyin.refetch",
                    path=self._remote_path,
                    attempt=attempt + 1,
                )
                if attempt < self._VERIFY_REFETCHES:
                    self._client.fetch_file(self._remote_path, self._local_path)
        self._local_path.unlink(missing_ok=True)
        assert last_error is not None
        raise last_error

    def _verify_against_remote(self) -> None:
        local = ioutil.sha256_file(self._local_path)
        remote = self._client.checksum(self._remote_path)
        if local != remote:
            raise IOError(
                f"copy-in of {self._remote_path!r} failed checksum verification "
                f"(local {local[:12]}…, remote {remote[:12]}…)"
            )

    @staticmethod
    def _local_mode(core: str) -> str:
        # The local scratch copy always allows read+write so seeks work.
        return {"r": "rb", "r+": "r+b", "w": "w+b", "w+": "w+b", "a": "r+b", "a+": "r+b"}[core]

    @property
    def local_path(self) -> Path:
        return self._local_path

    def readable(self) -> bool:
        return self._reading

    def writable(self) -> bool:
        return self._writing

    def seekable(self) -> bool:
        return True

    def read(self, size: int = -1) -> bytes:  # type: ignore[override]
        if not self._reading:
            raise io.UnsupportedOperation("file not open for reading")
        return self._fh.read(size)

    def write(self, data) -> int:  # type: ignore[override]
        if not self._writing:
            raise io.UnsupportedOperation("file not open for writing")
        n = self._fh.write(bytes(data))
        self._dirty = True
        return n

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:  # type: ignore[override]
        return self._fh.seek(offset, whence)

    def tell(self) -> int:
        return self._fh.tell()

    def close(self) -> None:
        if self.closed:
            return
        try:
            self._fh.flush()
            if self._dirty:
                self._client.store_file(self._local_path, self._remote_path)
        finally:
            self._fh.close()
            self._local_path.unlink(missing_ok=True)
            super().close()


class RemoteFileClient:
    """Factory choosing proxy vs copy for one remote server.

    All proxy files opened through one instance share one
    :class:`BlockCache`, so concurrent readers of the same remote file
    pipeline for each other instead of re-fetching.
    """

    def __init__(
        self,
        client: GridFtpClient,
        scratch_dir: Optional[Path] = None,
        cache_blocks: int = 64,
        prefetch: bool = True,
    ):
        self.client = client
        self.scratch_dir = scratch_dir
        self.prefetch = prefetch
        self.block_cache = BlockCache(cache_blocks)

    def open_proxy(
        self,
        path: str,
        mode: str = "r",
        block_size: int = DEFAULT_BLOCK,
        prefetch: Optional[bool] = None,
        offset: int = 0,
    ) -> RemoteProxyFile:
        """Open ``path`` as a proxy positioned at ``offset``.

        An ``r`` open's existence probe fetches the block holding
        ``offset``, so a handle that resumes mid-file (a replica failover
        or re-map, a live migration) pays for no block it will not read,
        and its first read there starts the read-ahead.
        """
        core = mode.replace("b", "").replace("t", "")
        writable = any(f in core for f in ("w", "a", "+"))
        size = None
        if core == "r":
            # The existence probe is the first block read: a missing file
            # still fails here, at open(), and that read and the
            # read-ahead's extent cost no further round trip.
            first = offset // block_size
            try:
                head, size = self.client.read_block_ex(path, first * block_size, block_size)
            except RpcError as exc:
                if exc.kind != "not-found":
                    raise
                raise FileNotFoundError(path) from exc
            self.block_cache.put(path, first, head, prefetched=False)
        elif core in ("w", "w+"):
            # The truncating put creates the file: no probe needed.
            self.client.write_block(path, 0, b"", truncate=True)
            self.block_cache.invalidate_path(path)
        else:
            exists = self.client.exists(path)
            if core == "r+" and not exists:
                raise FileNotFoundError(path)
            if core.startswith("a") and not exists:
                # POSIX append creates the file rather than failing.
                self.client.write_block(path, 0, b"")
        f = RemoteProxyFile(
            self.client,
            path,
            writable=writable,
            block_size=block_size,
            cache=self.block_cache,
            prefetch=self.prefetch if prefetch is None else prefetch,
            size=size,
            offset=offset,
        )
        if core.startswith("a"):
            f.seek(0, os.SEEK_END)
        return f

    def open_copy(self, path: str, mode: str = "r", verify: bool = False) -> CopyInOutFile:
        return CopyInOutFile(
            self.client, path, mode, scratch_dir=self.scratch_dir, verify=verify
        )
