"""TCP front end for the Grid Buffer service.

One :class:`GridBufferServer` hosts a :class:`GridBufferService` and
serves any number of streams.  The blocking ops (reads waiting for
unwritten data, writes stalled on capacity) are native coroutine
handlers — a parked reader costs a future on the stream, not a server
thread, so one node multiplexes thousands of concurrent readers.  The
op set is fixed by the wire version: every client speaks all of it,
and there is no per-op fallback on either side.
"""

from __future__ import annotations

import asyncio
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Any, Dict, Optional, Tuple
from urllib.parse import quote

from ..transport.tcp import RpcError, RpcServer
from .cache import BufferCache
from .protocol import (
    DEFAULT_CAPACITY,
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
from .service import GridBufferError, GridBufferService

__all__ = ["GridBufferServer"]


@contextmanager
def _rpc_errors():
    """Map the service's exceptions onto wire error codes (sync and async handlers)."""
    try:
        yield
    except GridBufferError as exc:
        raise RpcError("grid-buffer", str(exc)) from exc
    except TimeoutError as exc:
        raise RpcError("timeout", str(exc)) from exc


class GridBufferServer:
    """Network wrapper: maps RPC ops onto a local GridBufferService.

    ``simulated_latency`` (one-way seconds) is injected per RPC by the
    underlying :class:`RpcServer`, so benchmarks can model a slow link
    without leaving localhost.
    """

    def __init__(
        self,
        cache_dir: Optional[Path] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        default_capacity: Optional[int] = DEFAULT_CAPACITY,
        simulated_latency: float = 0.0,
    ):
        self.service = GridBufferService(default_capacity=default_capacity)
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._simulated_latency = simulated_latency
        self._rpc = self._new_rpc(host, port)

    def _new_rpc(self, host: str, port: int) -> RpcServer:
        rpc = RpcServer(host, port, simulated_latency=self._simulated_latency)
        # Service-level detail for the ops plane's _obs.health op.
        rpc.health_info = self.health_info
        # gb.create and gb.drop run on a worker thread: they touch the
        # cache file on disk.
        rpc.register(OP_CREATE, self._op_create)
        rpc.register(OP_DROP, self._op_drop)
        # The potentially-blocking ops are coroutines: a reader waiting
        # for data (or a writer stalled on capacity) parks a future on
        # the stream instead of holding a thread.
        rpc.register_async(OP_WRITE, self._op_write)
        rpc.register_async(OP_WRITE_MULTI, self._op_write_multi)
        rpc.register_async(OP_READ_MULTI, self._op_read_multi)
        # A reader's open may create its stream: only a cached one
        # touches disk, so only that case leaves the loop.
        rpc.register_async(OP_REGISTER_READER, self._op_register_reader)
        # Everything left never blocks (lock-protected dict/interval
        # work, no waiting, no file IO) — run it inline on the loop and
        # skip the two thread hops of the executor path.
        for op, fn in (
            (OP_CONSUME_MULTI, self._op_consume_multi),
            (OP_CLOSE_WRITER, self._op_close_writer),
            (OP_STATS, self._op_stats),
            (OP_ABORT, self._op_abort),
            (OP_RESUME, self._op_resume),
            (OP_HIGH_WATER, self._op_high_water),
        ):
            rpc.register(op, fn, inline=True)
        return rpc

    @property
    def address(self) -> Tuple[str, int]:
        return self._rpc.address

    def health_info(self) -> Dict[str, Any]:
        """Buffer-service summary served by ``_obs.health``."""
        names = self.service.stream_names()
        return {
            "kind": "gridbuffer",
            "streams": len(names),
            "stream_names": names[:32],
        }

    def start(self) -> "GridBufferServer":
        self._rpc.start()
        return self

    def stop(self) -> None:
        self._rpc.stop()

    def restart(self) -> None:
        """Bounce the TCP front end on the same port; stream state survives.

        Every live connection dies (in-flight calls fail with a
        connection error) but the :class:`GridBufferService` and all its
        streams persist — this models a service blip, the scenario the
        client recovery layer (redial + re-register + dedupe tokens) is
        built for, and is what the chaos suite exercises.
        """
        host, port = self.address
        self._rpc.stop()
        self._rpc.disconnect_all()
        self._rpc = self._new_rpc(host, port)
        self._rpc.start()

    def __enter__(self) -> "GridBufferServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- handlers -----------------------------------------------------------
    def _create(self, header: Dict[str, Any]) -> None:
        """Create the stream ``header`` configures, unless it exists."""
        name = header["name"]
        cache = None
        if header.get("cache", False):
            if self.cache_dir is None:
                raise RpcError("no-cache-dir", "server started without cache_dir")
            # Quoted, so no two stream names share a file.
            path = self.cache_dir / f"{quote(name, safe='')}.cache"
            cache = partial(BufferCache, path)
        with _rpc_errors():
            self.service.create_stream(
                name,
                n_readers=int(header.get("n_readers", 1)),
                capacity_bytes=header.get("capacity_bytes"),
                cache=cache,
            )

    def _op_create(self, header: Dict[str, Any], _payload: bytes):
        self._create(header)
        return {}, b""

    async def _op_register_reader(self, header: Dict[str, Any], _payload: bytes):
        name = header["name"]
        # An open carries the stream's config and creates it if absent;
        # a recovering reader's register carries none and never does.
        if "n_readers" in header:
            if header.get("cache", False) and not self.service.exists(name):
                await asyncio.get_running_loop().run_in_executor(None, self._create, header)
            else:
                self._create(header)
        with _rpc_errors():
            gen = self.service.register_reader(name, header["reader_id"])
        # A recovering reader compares the generation to its own.
        return {"gen": gen}, b""

    async def _op_write(self, header: Dict[str, Any], payload: bytes):
        with _rpc_errors():
            stall = await self.service.write_async(
                header["name"],
                int(header["offset"]),
                payload,
                timeout=header.get("timeout"),
                token=header.get("token"),
                seq=header.get("seq"),
            )
        reply: Dict[str, Any] = {"written": len(payload)}
        if stall is not None:
            reply["stall"] = stall
        return reply, b""

    async def _op_write_multi(self, header: Dict[str, Any], payload: bytes):
        offsets = [int(o) for o in header["offsets"]]
        sizes = [int(s) for s in header["sizes"]]
        if len(offsets) != len(sizes):
            raise RpcError("bad-request", "offsets/sizes length mismatch")
        if sum(sizes) != len(payload):
            raise RpcError("bad-request", "payload length does not match sizes")
        view = memoryview(payload)
        runs = []
        pos = 0
        for offset, size in zip(offsets, sizes):
            runs.append((offset, bytes(view[pos : pos + size])))
            pos += size
        with _rpc_errors():
            written, stall = await self.service.write_multi_async(
                header["name"],
                runs,
                timeout=header.get("timeout"),
                token=header.get("token"),
                seq=header.get("seq"),
            )
        reply: Dict[str, Any] = {"written": written}
        if stall is not None:
            reply["stall"] = stall
        return reply, b""

    async def _op_read_multi(self, header: Dict[str, Any], _payload: bytes):
        name = header["name"]
        offset = int(header["offset"])
        with _rpc_errors():
            data = await self.service.read_async(
                name,
                header["reader_id"],
                offset,
                int(header.get("budget", 0)),
                timeout=header.get("timeout"),
                min_bytes=int(header.get("min_bytes", 1)),
            )
        return {"eof": len(data) == 0, "total": self.service.total_bytes(name)}, data

    def _op_consume_multi(self, header: Dict[str, Any], _payload: bytes):
        entries = [
            (reader_id, [(int(s), int(e)) for s, e in ranges])
            for reader_id, ranges in header.get("entries", [])
        ]
        with _rpc_errors():
            self.service.mark_consumed_multi(header["name"], entries)
        return {}, b""

    def _op_close_writer(self, header: Dict[str, Any], _payload: bytes):
        with _rpc_errors():
            total = self.service.close_writer(header["name"])
        return {"total": total}, b""

    def _op_stats(self, header: Dict[str, Any], _payload: bytes):
        with _rpc_errors():
            stats = self.service.stats(header["name"])
        return {"stats": vars(stats)}, b""

    def _op_drop(self, header: Dict[str, Any], _payload: bytes):
        self.service.drop_stream(header["name"])
        return {}, b""

    def _op_abort(self, header: Dict[str, Any], _payload: bytes):
        with _rpc_errors():
            self.service.abort_writer(header["name"], header.get("reason", "writer aborted"))
        return {}, b""

    def _op_resume(self, header: Dict[str, Any], _payload: bytes):
        with _rpc_errors():
            offset = self.service.resume_writer(header["name"])
        return {"offset": offset}, b""

    def _op_high_water(self, header: Dict[str, Any], _payload: bytes):
        with _rpc_errors():
            offset = self.service.high_water(header["name"])
        return {"offset": offset}, b""
