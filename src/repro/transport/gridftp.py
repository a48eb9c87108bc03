"""GridFTP-like file server and client.

Mirrors the two roles GridFTP plays in the paper:

* **bulk copy** — whole-file transfers with optional parallel streams;
  the latency-insensitive path used when the GNS says "copy the file
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
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from .. import faults, obs
from .aio import AsyncRpcClient
from .tcp import DEFAULT_POOL_CONNECTIONS, RpcClient, RpcError, RpcServer

__all__ = ["GridFtpServer", "GridFtpClient", "TransferError", "DEFAULT_BLOCK"]

DEFAULT_BLOCK = 256 * 1024


class TransferError(IOError):
    """A bulk copy died or came up short.

    ``copied`` is the byte offset up to which the *destination* is known
    good and contiguous — pass it back as ``fetch_file(resume_from=...)``
    to continue instead of re-copying, with any number of streams.
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
    ``checksum``, ``mkdirs``, ``delete``.
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
        self._lock = threading.Lock()
        self._rpc.register("size", self._op_size)
        self._rpc.register("exists", self._op_exists)
        self._rpc.register("get_block", self._op_get_block)
        self._rpc.register("put_block", self._op_put_block)
        self._rpc.register("checksum", self._op_checksum)
        self._rpc.register("mkdirs", self._op_mkdirs)
        self._rpc.register("delete", self._op_delete)
        self._rpc.register("pull_from", self._op_pull_from)

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
        return {"offset": offset, "eof": offset + len(data) >= p.stat().st_size}, data

    def _op_put_block(self, header: Dict[str, Any], payload: bytes):
        p = self._resolve(header["path"])
        offset = int(header.get("offset", 0))
        truncate = bool(header.get("truncate", False))
        p.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
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

    def _op_mkdirs(self, header: Dict[str, Any], _payload: bytes):
        self._resolve(header["path"]).mkdir(parents=True, exist_ok=True)
        return {}, b""

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
            parallel_streams=int(header.get("streams", 1)),
        )
        try:
            nbytes = source.fetch_file(header["src_path"], target)
        finally:
            source.close()
        return {"bytes": nbytes}, b""


class GridFtpClient:
    """Client-side API over one GridFTP server.

    ``parallel_streams`` stripes bulk copies (fetch and store) block by
    block over that many concurrent streams on the pooled client,
    mirroring GridFTP's parallel TCP streams.

    ``monitor`` is any object with ``record(peer, op, nbytes, seconds)``
    (e.g. :class:`repro.core.trace.TransferMonitor`); every RPC is
    timed into it so policy decisions can use measured link numbers.
    """

    def __init__(
        self,
        host: str,
        port: int,
        parallel_streams: int = 1,
        block_size: int = DEFAULT_BLOCK,
        monitor=None,
        peer: Optional[str] = None,
    ):
        if parallel_streams < 1:
            raise ValueError("parallel_streams must be >= 1")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self._addr = (host, port)
        self.parallel_streams = parallel_streams
        self.block_size = block_size
        self.monitor = monitor
        self.peer = peer or f"{host}:{port}"
        # One pooled client carries both the demand path and the data
        # channels: the pool is sized so every parallel stream plus the
        # demand connection can be in flight at once, and every transfer
        # inherits the client's redial/retry/backoff recovery.
        self._rpc = RpcClient(
            host,
            port,
            max_connections=max(DEFAULT_POOL_CONNECTIONS, parallel_streams + 1),
        )

    @property
    def address(self) -> Tuple[str, int]:
        return self._addr

    # -- observability -------------------------------------------------------
    def _timed(self, op: str, rpc: RpcClient, header: Dict[str, Any], payload: bytes = b""):
        """One RPC round trip, always metered, monitor-recorded if present."""
        injector = faults.ACTIVE
        verdict = injector.fire("gridftp", op, self.peer) if injector is not None else None
        corrupter = self._fault_verdict(op, injector, verdict)
        t0 = time.perf_counter()
        reply, data = rpc.call(op, header, payload=payload)
        return reply, self._metered(op, corrupter, payload, data, t0)

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

    def _metered(self, op: str, corrupter, payload: bytes, data: bytes, t0: float) -> bytes:
        """The round trip's end: corrupt if told to, then meter and record."""
        elapsed = time.perf_counter() - t0
        if corrupter is not None and data:
            data = corrupter.corrupt_bytes(data)
        nbytes = max(len(payload), len(data))
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
        streams: int = 1,
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
                "streams": streams,
                "block_size": self.block_size,
            },
        )
        return int(reply["bytes"])

    # -- block proxy ----------------------------------------------------------
    def read_block(self, path: str, offset: int, length: int) -> bytes:
        _, data = self._timed(
            "get_block", self._rpc, {"path": path, "offset": offset, "length": length}
        )
        return data

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
        """``read_block`` as a coroutine over a caller-owned connection.

        Runs on the event loop, so a ``delay`` fault is awaited rather
        than slept: it delays this block, not the loop.
        """
        injector = faults.ACTIVE
        verdict = None
        if injector is not None:
            verdict = await injector.fire_async("gridftp", "get_block", self.peer)
        corrupter = self._fault_verdict("get_block", injector, verdict)
        header = {"path": path, "offset": offset, "length": length}
        t0 = time.perf_counter()
        _, data = await rpc.call("get_block", header, parent=parent)
        return self._metered("get_block", corrupter, b"", data, t0)

    def write_block(self, path: str, offset: int, data: bytes, truncate: bool = False) -> int:
        reply, _ = self._timed(
            "put_block",
            self._rpc,
            {"path": path, "offset": offset, "truncate": truncate},
            payload=data,
        )
        return int(reply["written"])

    # -- bulk copy -----------------------------------------------------------
    def fetch_file(self, remote_path: str, local_path: Path, resume_from: int = 0) -> int:
        """Copy remote → local over ``parallel_streams`` striped streams.

        ``resume_from`` continues an interrupted copy: the first
        ``resume_from`` bytes of ``local_path`` are assumed good (use
        :attr:`TransferError.copied` from the failed attempt) and the
        transfer restarts there, striped like any other.  Returns the
        bytes moved *this call*.  Raises :class:`TransferError` on a
        mid-copy connection failure or a short copy (e.g. the file
        shrank) — a short copy must never pass silently.
        """
        total = self.size(remote_path)
        local_path = Path(local_path)
        local_path.parent.mkdir(parents=True, exist_ok=True)
        if resume_from < 0 or resume_from > total:
            raise ValueError(f"resume_from {resume_from} outside [0, {total}]")
        t0 = time.perf_counter()
        mode = "r+b" if resume_from and local_path.exists() else "wb"
        with open(local_path, mode, buffering=0) as out:
            out.truncate(resume_from)
            fd = out.fileno()

            def move(offset: int) -> int:
                return os.pwrite(fd, self.read_block(remote_path, offset, self.block_size), offset)

            self._striped("fetch", remote_path, resume_from, total, move)
        copied = total - resume_from
        if copied and self.monitor is not None:
            self.monitor.record(self.peer, "fetch", copied, time.perf_counter() - t0)
        return copied

    def store_file(self, local_path: Path, remote_path: str) -> int:
        """Copy local → remote over ``parallel_streams`` striped streams."""
        local_path = Path(local_path)
        total = local_path.stat().st_size
        t0 = time.perf_counter()
        # A lone stream truncates the target with its first block, so a
        # store costs no extra RPC; striped streams (and an empty file,
        # which has no block) truncate it first.
        lone = self.parallel_streams == 1 or total <= self.block_size
        if total == 0 or not lone:
            self.write_block(remote_path, 0, b"", truncate=True)
        with open(local_path, "rb", buffering=0) as src:
            fd = src.fileno()

            def move(offset: int) -> int:
                chunk = os.pread(fd, self.block_size, offset)
                return self.write_block(remote_path, offset, chunk, truncate=lone and offset == 0)

            self._striped("store", remote_path, 0, total, move)
        if total and self.monitor is not None:
            self.monitor.record(self.peer, "store", total, time.perf_counter() - t0)
        return total

    def _striped(
        self, verb: str, path: str, start: int, total: int, move: Callable[[int], int]
    ) -> None:
        """The one bulk-copy loop: move ``[start, total)`` in blocks.

        Stream *i* of *N* moves every *N*-th block from ``start``, in
        order; ``move(offset)`` moves one block and returns its length.
        A lone stream runs inline on the caller's thread.  All streams
        share the pooled client (sized for them in ``__init__``), whose
        retry layer redials a dead socket instead of failing the copy.

        A stream stops at a short block or once any stream has failed.
        The lowest stream's next offset is then a contiguous good
        prefix for any *N*: a failure or short copy raises
        :class:`TransferError` with ``copied`` set to it.
        """
        blocks = -(-(total - start) // self.block_size)  # ceiling division
        streams = max(1, min(self.parallel_streams, blocks))
        stride = streams * self.block_size
        ahead = [start + i * self.block_size for i in range(streams)]  # next offset per stream
        errors: list = []

        def stream(i: int) -> None:
            try:
                while ahead[i] < total and not errors:
                    n = move(ahead[i])
                    if n < min(self.block_size, total - ahead[i]):
                        ahead[i] += n
                        return
                    ahead[i] += stride
            except BaseException as exc:  # noqa: BLE001 - re-raised on the caller's thread
                errors.append(exc)

        if streams == 1:
            stream(0)
        else:
            threads = [
                threading.Thread(target=stream, args=(i,), daemon=True) for i in range(streams)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        copied = min(min(ahead), total)
        if errors:
            exc = errors[0]
            if not isinstance(exc, (OSError, RpcError)):
                raise exc
            raise TransferError(
                f"{verb} of {path!r} died at byte {copied} of {total}: {exc}", copied=copied
            ) from exc
        if copied < total:
            raise TransferError(
                f"short {verb} of {path!r}: have {copied} of {total} bytes", copied=copied
            )

    def close(self) -> None:
        # Hard close: also kills any data-channel socket still mid-RPC,
        # so teardown never leaks a parked worker.
        self._rpc.close_all()

    def __enter__(self) -> "GridFtpClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
