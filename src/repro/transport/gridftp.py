"""GridFTP-like file server and client.

Mirrors the two roles GridFTP plays in the paper:

* **bulk copy** — whole-file transfers that keep a window of blocks in
  flight (the role GridFTP's parallel TCP streams play), as deep as the
  link's delivery rate times its round trip asks; the
  latency-insensitive path used when the GNS says "copy the file
  between machines" (Table 5 "File Copy" rows).
* **block proxy** — ``GET_BLOCK(offset, length)`` partial reads, used
  by the FM's Remote File Client so an application can read a remote
  file in place without copying it.

Runs over the framed-TCP RPC layer; one server exports one directory
tree (a virtual host's root).
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import wait
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from .. import faults, obs
from .aio import AsyncRpcClient, get_engine
from .rate import DeliveryRate
from .tcp import RpcClient, RpcError, RpcServer

__all__ = [
    "GridFtpServer", "GridFtpClient", "TransferError", "DEFAULT_BLOCK", "WINDOW_BLOCKS",
    "MAX_WINDOW_BLOCKS",
]

DEFAULT_BLOCK = 256 * 1024

#: Blocks in flight per window at least: a bulk copy's, a proxy's
#: read-ahead and its write-behind (:meth:`GridFtpClient.window_depth`).
WINDOW_BLOCKS = 8

#: Blocks in flight per window at most: half the default 64-block
#: ``BlockCache``, so a read-ahead window cannot evict its own unread
#: blocks.
MAX_WINDOW_BLOCKS = 32


class TransferError(IOError):
    """A bulk copy died or came up short.

    ``copied`` is the byte offset up to which the *destination* is known
    good and contiguous (the end of the last block landed in order) —
    pass it back as ``fetch_file(resume_from=...)`` to continue.
    """

    def __init__(self, message: str, copied: int = 0):
        super().__init__(message)
        self.copied = copied

_RPC_SECONDS = obs.histogram(
    "gridftp_rpc_seconds",
    "Round-trip duration of client RPCs by peer and operation",
    labelnames=("peer", "op"),
)
_RPC_BYTES = obs.counter(
    "gridftp_rpc_bytes_total",
    "Payload bytes moved by client RPCs by peer and operation",
    labelnames=("peer", "op"),
)


class GridFtpServer:
    """Exports one directory over the framed RPC protocol.

    Operations: ``size``, ``exists``, ``get_block``, ``put_block``,
    ``checksum``, ``delete``, ``pull_from``.

    The block ops and the two metadata ops run inline on the engine
    loop: each is at most one block of page-cache IO or a ``stat``,
    cheaper than the executor hop, and a window of them in flight costs
    no handler thread.  ``checksum`` reads a whole file and
    ``pull_from`` waits on another server, so both stay threaded, as
    does ``delete``.
    """

    def __init__(
        self,
        root: Path,
        host: str = "127.0.0.1",
        port: int = 0,
        simulated_latency: float = 0.0,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._rpc = RpcServer(host, port, simulated_latency=simulated_latency)
        for op, handler in (
            ("size", self._op_size),
            ("exists", self._op_exists),
            ("get_block", self._op_get_block),
            ("put_block", self._op_put_block),
        ):
            self._rpc.register(op, handler, inline=True)
        self._rpc.register("checksum", self._op_checksum)
        self._rpc.register("delete", self._op_delete)
        self._rpc.register("pull_from", self._op_pull_from)  # threaded: its copy blocks

    # -- lifecycle -----------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return self._rpc.address

    def start(self) -> "GridFtpServer":
        self._rpc.start()
        return self

    def stop(self) -> None:
        self._rpc.stop()

    def disconnect_all(self) -> None:
        """Sever every live connection (chaos: model a host death).

        ``stop()`` alone only closes the listener; established
        connections keep being served until the client hangs up.
        """
        self._rpc.disconnect_all()

    def __enter__(self) -> "GridFtpServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- path safety -----------------------------------------------------------
    def _resolve(self, path: str) -> Path:
        rel = str(path).lstrip("/")
        candidate = (self.root / rel).resolve()
        root = self.root.resolve()
        if root != candidate and root not in candidate.parents:
            raise RpcError("forbidden", f"path escapes export root: {path!r}")
        return candidate

    # -- handlers -----------------------------------------------------------
    def _op_size(self, header: Dict[str, Any], _payload: bytes):
        p = self._resolve(header["path"])
        if not p.exists():
            raise RpcError("not-found", header["path"])
        return {"size": p.stat().st_size}, b""

    def _op_exists(self, header: Dict[str, Any], _payload: bytes):
        return {"exists": self._resolve(header["path"]).exists()}, b""

    def _op_get_block(self, header: Dict[str, Any], _payload: bytes):
        p = self._resolve(header["path"])
        if not p.exists():
            raise RpcError("not-found", header["path"])
        offset = int(header.get("offset", 0))
        length = int(header.get("length", DEFAULT_BLOCK))
        if offset < 0 or length < 0:
            raise RpcError("bad-request", "negative offset/length")
        with open(p, "rb") as fh:
            fh.seek(offset)
            data = fh.read(length)
            size = os.fstat(fh.fileno()).st_size
        # ``size`` lets a proxy open probe existence, block 0 and the
        # file's extent in one round trip.
        return {"offset": offset, "eof": offset + len(data) >= size, "size": size}, data

    def _op_put_block(self, header: Dict[str, Any], payload: bytes):
        p = self._resolve(header["path"])
        offset = int(header.get("offset", 0))
        truncate = bool(header.get("truncate", False))
        p.parent.mkdir(parents=True, exist_ok=True)
        # Inline on the loop, so no other put runs between the check and the open.
        mode = "r+b" if p.exists() and not truncate else "wb"
        with open(p, mode) as fh:
            fh.seek(offset)
            fh.write(payload)
        return {"written": len(payload)}, b""

    def _op_checksum(self, header: Dict[str, Any], _payload: bytes):
        p = self._resolve(header["path"])
        if not p.exists():
            raise RpcError("not-found", header["path"])
        digest = hashlib.sha256()
        with open(p, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        return {"sha256": digest.hexdigest()}, b""

    def _op_delete(self, header: Dict[str, Any], _payload: bytes):
        p = self._resolve(header["path"])
        existed = p.exists()
        if existed:
            p.unlink()
        return {"deleted": existed}, b""

    def _op_pull_from(self, header: Dict[str, Any], _payload: bytes):
        """Third-party transfer: this server fetches from another one.

        Mirrors GridFTP's server-to-server mode — the data never passes
        through the controlling client.
        """
        target = self._resolve(header["dst_path"])
        source = GridFtpClient(
            header["src_host"],
            int(header["src_port"]),
            block_size=int(header.get("block_size", DEFAULT_BLOCK)),
        )
        try:
            nbytes = source.fetch_file(header["src_path"], target)
        finally:
            source.close()
        return {"bytes": nbytes}, b""


class GridFtpClient:
    """Client-side API over one GridFTP server.

    Bulk copies (fetch and store) keep a window of blocks in flight on a
    connection of their own, the role GridFTP's parallel TCP streams
    play; everything else goes over the pooled demand client.  Every
    window over this client — copies, and a proxy's read-ahead and
    write-behind — is :meth:`window_depth` deep, from one delivery-rate
    and min-RTT estimate of the link that every metered reply feeds,
    windowed or demand.  The demand replies matter: a windowed reply
    waits behind the rest of its window, so only a request sent alone
    (an open's probe, a demand read) shows the link's own round trip.

    ``monitor`` is any object with ``record(peer, op, nbytes, seconds)``
    (e.g. :class:`repro.core.trace.TransferMonitor`); every RPC is
    timed into it so policy decisions can use measured link numbers.
    """

    def __init__(
        self,
        host: str,
        port: int,
        block_size: int = DEFAULT_BLOCK,
        monitor=None,
        peer: Optional[str] = None,
    ):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self._addr = (host, port)
        self.block_size = block_size
        self.monitor = monitor
        self.peer = peer or f"{host}:{port}"
        self._rpc = RpcClient(host, port)
        self._link = DeliveryRate()

    @property
    def address(self) -> Tuple[str, int]:
        return self._addr

    def window_depth(self, block_size: int) -> int:
        """Blocks of ``block_size`` a window keeps in flight:
        ⌈2 × rate × min RTT / block⌉, within [``WINDOW_BLOCKS``,
        ``MAX_WINDOW_BLOCKS``].  On a link without latency the product
        is a block or two, so the floor holds."""
        rate = self._link.rate
        if not rate:
            return WINDOW_BLOCKS
        want = -(-int(2 * rate * self._link.min_rtt) // block_size)
        return min(MAX_WINDOW_BLOCKS, max(WINDOW_BLOCKS, want))

    # -- observability -------------------------------------------------------
    def _timed(self, op: str, rpc: RpcClient, header: Dict[str, Any], payload: bytes = b""):
        """One metered RPC round trip; its reply feeds the link's estimate."""
        injector = faults.ACTIVE
        verdict = injector.fire("gridftp", op, self.peer) if injector is not None else None
        corrupter = self._fault_verdict(op, injector, verdict)
        token, t0 = self._link.sent(), time.perf_counter()
        try:
            reply, data = rpc.call(op, header, payload=payload)
        except BaseException:
            self._link.delivered(token, None)
            raise
        return reply, self._metered(op, corrupter, payload, data, t0, token)

    async def _timed_async(self, op: str, rpc: AsyncRpcClient, header: Dict[str, Any],
                           payload: bytes = b"", parent: Optional[obs.SpanContext] = None):
        """``_timed`` as a coroutine over a caller-owned connection: a
        ``delay`` fault is awaited, delaying this call, not the loop."""
        injector = faults.ACTIVE
        verdict = None
        if injector is not None:
            verdict = await injector.fire_async("gridftp", op, self.peer)
        corrupter = self._fault_verdict(op, injector, verdict)
        token, t0 = self._link.sent(), time.perf_counter()
        try:
            reply, data = await rpc.call(op, header, payload=payload, parent=parent)
        except BaseException:
            self._link.delivered(token, None)
            raise
        return reply, self._metered(op, corrupter, payload, data, t0, token)

    def _fault_verdict(self, op: str, injector, verdict: Optional[str]):
        """Act on the ``gridftp`` hook's verdict: the injector that corrupts
        the received block, or None; any other verdict raises."""
        if verdict == "corrupt":
            # Flip bits in the *received* block after the transfer:
            # corruption past the wire CRC (disk, memory), which only
            # the whole-file ``checksum`` re-verification can catch.
            return injector
        if verdict is not None:
            # There is no single socket to act on at this layer, so
            # close/drop verdicts degrade to a connection error; the
            # bulk-copy resume path is what recovers from it.
            raise faults.InjectedFault(f"injected fault: gridftp {op} to {self.peer}")
        return None

    def _metered(self, op: str, corrupter, payload: bytes, data: bytes, t0: float,
                 token: Tuple[int, int, float, float]) -> bytes:
        """The round trip's end: corrupt if told to, then meter and record."""
        elapsed = time.perf_counter() - t0
        if corrupter is not None and data:
            data = corrupter.corrupt_bytes(data)
        nbytes = max(len(payload), len(data))
        self._link.delivered(token, nbytes)
        _RPC_SECONDS.labels(peer=self.peer, op=op).observe(elapsed)
        _RPC_BYTES.labels(peer=self.peer, op=op).inc(nbytes)
        if self.monitor is not None:
            self.monitor.record(self.peer, op, nbytes, elapsed)
        return data

    # -- metadata -----------------------------------------------------------
    def size(self, path: str) -> int:
        reply, _ = self._timed("size", self._rpc, {"path": path})
        return int(reply["size"])

    def exists(self, path: str) -> bool:
        reply, _ = self._timed("exists", self._rpc, {"path": path})
        return bool(reply["exists"])

    def checksum(self, path: str) -> str:
        reply, _ = self._rpc.call("checksum", {"path": path})
        return str(reply["sha256"])

    def delete(self, path: str) -> bool:
        reply, _ = self._rpc.call("delete", {"path": path})
        return bool(reply["deleted"])

    def third_party_copy(
        self,
        src_host: str,
        src_port: int,
        src_path: str,
        dst_path: str,
    ) -> int:
        """Ask *this* server to pull a file directly from another server.

        Returns the byte count; the payload never transits the client.
        """
        reply, _ = self._rpc.call(
            "pull_from",
            {
                "src_host": src_host,
                "src_port": src_port,
                "src_path": src_path,
                "dst_path": dst_path,
                "block_size": self.block_size,
            },
        )
        return int(reply["bytes"])

    # -- block proxy ----------------------------------------------------------
    def read_block(self, path: str, offset: int, length: int) -> bytes:
        return self.read_block_ex(path, offset, length)[0]

    def read_block_ex(self, path: str, offset: int, length: int) -> Tuple[bytes, int]:
        """``read_block`` plus the file's size, from the same reply."""
        reply, data = self._timed(
            "get_block", self._rpc, {"path": path, "offset": offset, "length": length}
        )
        return data, int(reply["size"])

    def read_block_via(self, rpc: RpcClient, path: str, offset: int, length: int) -> bytes:
        """``read_block`` over a caller-owned blocking client."""
        _, data = self._timed(
            "get_block", rpc, {"path": path, "offset": offset, "length": length}
        )
        return data

    async def read_block_async(
        self,
        rpc: AsyncRpcClient,
        path: str,
        offset: int,
        length: int,
        parent: Optional[obs.SpanContext] = None,
    ) -> bytes:
        """``read_block`` as a coroutine over a caller-owned connection."""
        header = {"path": path, "offset": offset, "length": length}
        _, data = await self._timed_async("get_block", rpc, header, parent=parent)
        return data

    def write_block(self, path: str, offset: int, data: bytes, truncate: bool = False) -> int:
        reply, _ = self._timed(
            "put_block",
            self._rpc,
            {"path": path, "offset": offset, "truncate": truncate},
            payload=data,
        )
        return int(reply["written"])

    async def write_block_async(self, rpc: AsyncRpcClient, path: str, offset: int, data: bytes,
                                parent: Optional[obs.SpanContext] = None) -> int:
        """A non-truncating ``write_block`` as a coroutine over a caller-owned connection."""
        header = {"path": path, "offset": offset, "truncate": False}
        reply, _ = await self._timed_async("put_block", rpc, header, data, parent)
        return int(reply["written"])

    # -- bulk copy -----------------------------------------------------------
    def fetch_file(self, remote_path: str, local_path: Path, resume_from: int = 0) -> int:
        """Copy remote → local through the block window.

        ``resume_from`` continues an interrupted copy: the first
        ``resume_from`` bytes of ``local_path`` are assumed good (use
        :attr:`TransferError.copied` from the failed attempt) and the
        transfer restarts there, windowed like any other.  Returns the
        bytes moved *this call*.  The head block's reply is the
        existence check (a missing file raises ``RpcError`` with
        ``not-found``) and carries the file's extent, so no window block
        is sent past the end.  Raises :class:`TransferError` on a
        mid-copy connection failure or a short copy (e.g. the file
        shrank) — a short copy must never pass silently.
        """
        if resume_from < 0:
            raise ValueError(f"resume_from {resume_from} is negative")
        t0 = time.perf_counter()
        size, ctx = self.block_size, obs.current_context()
        head, total = self.read_block_ex(remote_path, resume_from, size)
        if resume_from > total:
            raise ValueError(f"resume_from {resume_from} outside [0, {total}]")
        local_path = Path(local_path)
        local_path.parent.mkdir(parents=True, exist_ok=True)
        mode = "r+b" if resume_from and local_path.exists() else "wb"
        with open(local_path, mode, buffering=0) as out:
            out.truncate(resume_from)
            fd = out.fileno()
            self._windowed(
                "fetch", remote_path, resume_from, total, head,
                lambda conn, offset: self.read_block_async(
                    conn, remote_path, offset, size, parent=ctx),
                lambda offset, data: os.pwrite(fd, data, offset),
            )
        copied = total - resume_from
        if copied and self.monitor is not None:
            self.monitor.record(self.peer, "fetch", copied, time.perf_counter() - t0)
        return copied

    def store_file(self, local_path: Path, remote_path: str) -> int:
        """Copy local → remote through the block window.  Block 0
        truncates the target, so it lands before any other put goes out
        (the server runs pipelined puts concurrently)."""
        local_path = Path(local_path)
        total = local_path.stat().st_size
        t0 = time.perf_counter()
        size, ctx = self.block_size, obs.current_context()
        with open(local_path, "rb", buffering=0) as src:
            fd = src.fileno()
            head = self.write_block(remote_path, 0, os.pread(fd, size, 0), truncate=True)
            self._windowed(
                "store", remote_path, 0, total, head,
                lambda conn, offset: self.write_block_async(
                    conn, remote_path, offset, os.pread(fd, size, offset), ctx),
                lambda _offset, written: written,
            )
        if total and self.monitor is not None:
            self.monitor.record(self.peer, "store", total, time.perf_counter() - t0)
        return total

    def _windowed(self, verb: str, path: str, start: int, total: int, head: Any,
                  later: Callable, land: Callable[[int, Any], int]) -> None:
        """The one bulk-copy loop: move ``[start, total)`` in blocks.

        ``head`` is the block at ``start``, already moved on the demand
        pool (its reply told a fetch the extent).  Every later block is
        ``later(conn, offset)`` on the engine, at most
        :meth:`window_depth` in flight on one connection dialled for
        this transfer.  Each lands in order on the caller's thread via
        ``land(offset, result)``, which returns its length, so a failure
        or short block leaves a contiguous good prefix: the window's
        connection is closed (failing its calls at once) and every call
        waited for before :class:`TransferError` reports it as ``copied``.
        """
        rest = iter(range(start + self.block_size, total, self.block_size))
        window: list = []  # (offset, future) in block order
        conn: Optional[AsyncRpcClient] = None
        copied, error = start, None

        def fill() -> None:
            nonlocal conn
            room = self.window_depth(self.block_size) - len(window)
            for offset in islice(rest, max(0, room)):
                conn = conn or AsyncRpcClient(*self._addr)
                window.append((offset, get_engine().submit(later(conn, offset))))

        def landed(offset: int, result: Any) -> bool:
            nonlocal copied
            copied = offset + land(offset, result)
            return copied >= min(offset + self.block_size, total)

        try:
            whole = landed(start, head)
            while whole:
                fill()
                if not window:
                    break
                offset, fut = window.pop(0)
                whole = landed(offset, fut.result())
        except (OSError, RpcError) as exc:  # fault-ok: raised below, after the window
            error = exc
        finally:
            if conn is not None:
                get_engine().submit(conn.close()).result()
                wait([fut for _, fut in window])
        if error is not None:
            raise TransferError(
                f"{verb} of {path!r} died at byte {copied} of {total}: {error}", copied=copied
            ) from error
        if copied < total:
            raise TransferError(
                f"short {verb} of {path!r}: have {copied} of {total} bytes", copied=copied
            )

    def close(self) -> None:
        # Hard close: also kills any demand socket still mid-RPC, so
        # teardown never leaks a parked caller.
        self._rpc.close_all()

    def __enter__(self) -> "GridFtpClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
