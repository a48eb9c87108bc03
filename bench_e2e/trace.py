"""Spans recorded from outside the program.

The benchmark wraps the public callables at each layer boundary (class
attributes, and module-level functions in every namespace that bound
them with ``from .wire import ...``), records one span per call in
memory, and restores everything afterwards.  No file under ``src/`` is
touched.

A span is ``(key, start_ns, end_ns, parent, value)``: ``key`` indexes
:data:`Recorder.keys` (``(layer, op)``), ``parent`` is the index of the
enclosing span in the same thread's buffer (-1 for a root) and
``value`` is a per-span number whose meaning belongs to the target
(bytes moved, hit flag, off-CPU nanoseconds).  A layer's self time is
its span's duration minus the part its child spans cover
(:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Recorder", "Span", "Target", "self_times", "percentile", "targets"]

Span = Tuple[int, int, int, int, float]
Key = Tuple[str, str]

_now = time.perf_counter_ns
_thread_cpu = time.thread_time_ns


class Target:
    """One callable to wrap.

    ``owners`` are the objects (a class, or every module that bound the
    function by name) whose attribute ``attr`` is replaced.  ``value``
    selects what the span's value slot records: ``None`` (nothing),
    ``"offcpu"`` (wall minus thread CPU of the call, i.e. time spent
    waiting) or a function ``(args, kwargs, result) -> number``.
    """

    def __init__(
        self,
        owners: Sequence[Any],
        attr: str,
        layer: str,
        op: str,
        value: Any = None,
        is_async: bool = False,
    ):
        self.owners = list(owners)
        self.attr = attr
        self.key: Key = (layer, op)
        self.value = value
        self.is_async = is_async


class Recorder:
    """In-memory span store, one append-only buffer per thread."""

    def __init__(self) -> None:
        self.keys: List[Key] = []
        #: Indices into :attr:`keys` whose spans are on-loop slices of a
        #: coroutine (value 1 marks the first slice of a call).
        self.async_keys: set = set()
        self.enabled = False
        #: ``perf_counter_ns`` at which each :meth:`window` opened.
        self.window_starts: List[int] = []
        self._key_ids: Dict[Key, int] = {}
        self._tls = threading.local()
        self._lock = threading.Lock()
        # A list, not a dict by ident: the OS reuses thread idents, and
        # every pass starts fresh writer/window/prefetch threads.
        self._buffers: List[Tuple[int, List[Optional[Span]]]] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def window(self):
        """Record spans while the block runs (one traced pass)."""
        self.window_starts.append(_now())
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    # -- recording ---------------------------------------------------------
    def _key_id(self, key: Key) -> int:
        kid = self._key_ids.get(key)
        if kid is None:
            kid = self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return kid

    def _state(self) -> Tuple[List[Optional[Span]], List[int]]:
        try:
            return self._tls.state
        except AttributeError:
            buf: List[Optional[Span]] = []
            with self._lock:
                self._buffers.append((threading.get_ident(), buf))
            state = self._tls.state = (buf, [])
            return state

    def _enter(self) -> Tuple[List[Optional[Span]], List[int], int, int]:
        buf, stack = self._state()
        idx = len(buf)
        buf.append(None)  # slot reserved so children can name their parent
        parent = stack[-1] if stack else -1
        stack.append(idx)
        return buf, stack, idx, parent

    def _wrap_sync(self, kid: int, fn: Callable, value: Any) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            buf, stack, idx, parent = rec._enter()
            cpu0 = _thread_cpu() if value == "offcpu" else 0
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                buf[idx] = (kid, t0, _now(), parent, 0.0)
                raise
            t1 = _now()
            if value is None:
                v = 0.0
            elif value == "offcpu":
                v = (t1 - t0) - (_thread_cpu() - cpu0)
            else:
                v = value(args, kwargs, result)
            stack.pop()
            buf[idx] = (kid, t0, t1, parent, v)
            return result

        return wrapper

    def _wrap_async(self, kid: int, fn: Callable) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            coro = fn(*args, **kwargs)
            if not rec.enabled:
                return coro
            return _SlicedAwaitable(rec, kid, coro)

        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self, target_list: Sequence[Target]) -> None:
        """Replace every target with its recording wrapper."""
        for target in target_list:
            kid = self._key_id(target.key)
            original = target.owners[0].__dict__[target.attr]
            if target.is_async:
                self.async_keys.add(kid)
                wrapped = self._wrap_async(kid, original)
            else:
                wrapped = self._wrap_sync(kid, original, target.value)
            for owner in target.owners:
                if owner.__dict__[target.attr] is not original:
                    raise RuntimeError(
                        f"{owner!r}.{target.attr} is not the function "
                        f"{target.owners[0]!r} binds; refusing to patch"
                    )
                self._patched.append((owner, target.attr, original))
                setattr(owner, target.attr, wrapped)

    def uninstall(self) -> None:
        """Put every original back (reverse order)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def threads(self) -> List[Tuple[int, List[Span]]]:
        """``(thread ident, spans)`` for every thread that recorded.

        A span still open when this is read keeps its slot (dropping it
        would shift the indices its children name) as a zero-length
        root with key -1, which the aggregation skips.
        """
        with self._lock:
            items = list(self._buffers)
        return [
            (ident, [s if s is not None else (-1, 0, 0, -1, 0.0) for s in buf])
            for ident, buf in items
        ]


class _SlicedAwaitable:
    """Drives a coroutine and records one span per on-loop slice.

    A native-async handler parks on futures; timing call-to-return
    would charge the parked wait to the layer.  Stepping the inner
    ``__await__`` iterator by hand times only the slices the coroutine
    actually runs, which is the layer's busy time on the loop thread.
    The first slice carries value 1 so calls can be counted.
    """

    __slots__ = ("_rec", "_kid", "_coro")

    def __init__(self, rec: Recorder, kid: int, coro: Any):
        self._rec = rec
        self._kid = kid
        self._coro = coro

    def __await__(self):
        rec, kid = self._rec, self._kid
        it = self._coro.__await__()
        send_value: Any = None
        pending: Optional[BaseException] = None
        first = 1.0
        while True:
            buf, stack, idx, parent = rec._enter()
            t0 = _now()
            try:
                if pending is None:
                    yielded = it.send(send_value)
                else:
                    exc, pending = pending, None
                    yielded = it.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                stack.pop()
                buf[idx] = (kid, t0, _now(), parent, first)
                first = 0.0
            try:
                send_value = yield yielded
            except BaseException as exc:  # noqa: BLE001 - forwarded into the coroutine
                pending, send_value = exc, None


def self_times(spans: Sequence[Span]) -> List[int]:
    """Self time (ns) of each span of ONE thread's buffer.

    Children of a span run on the same thread inside its interval and
    never overlap each other, so the covered part is the sum of the
    direct children's durations.
    """
    own = [end - start for _key, start, end, _parent, _value in spans]
    for _key, start, end, parent, _value in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``samples``; 0.0 if empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return float(ordered[rank])


def _nbytes_arg(index: int) -> Callable:
    return lambda args, kwargs, result: len(args[index])


def _nbytes_result(args, kwargs, result) -> int:
    return len(result) if result is not None else 0


def _int_result(args, kwargs, result) -> int:
    return int(result or 0)


def targets() -> List[Target]:
    """Every layer boundary the traced run records (see README, table 3)."""
    from repro import ioutil
    from repro.core.multiplexer import FileMultiplexer, FMFile
    from repro.core.remote_client import CopyInOutFile, RemoteProxyFile
    from repro.core.remote_io import BlockCache, BlockPrefetcher, WriteCoalescer
    from repro.core.replica import ReplicaSelector
    from repro.gns.client import GnsClient
    from repro.gns.server import NameService
    from repro.gridbuffer.cache import BufferCache
    from repro.gridbuffer.client import BufferReader, BufferWriter, GridBufferClient
    from repro.gridbuffer.service import GridBufferService
    from repro.transport import aio, tcp, wire
    from repro.transport.gridftp import GridFtpClient
    from repro.transport.tcp import RpcClient

    mux, rc, rio = "core.multiplexer", "core.remote_client", "core.remote_io"
    gbc, gbs, gbk = "gridbuffer.client", "gridbuffer.service", "gridbuffer.cache"
    ftp = "transport.gridftp"
    return [
        Target([FileMultiplexer], "open", mux, "open"),
        Target([FMFile], "read", mux, "read"),
        Target([FMFile], "write", mux, "write"),
        Target([FMFile], "seek", mux, "seek"),
        Target([FMFile], "close", mux, "close"),
        Target([RemoteProxyFile], "read", rc, "proxy_read"),
        Target([RemoteProxyFile], "write", rc, "proxy_write"),
        Target([RemoteProxyFile], "close", rc, "proxy_close"),
        Target([CopyInOutFile], "__init__", rc, "copy_in"),
        Target([CopyInOutFile], "close", rc, "copy_out"),
        Target(
            [BlockCache], "fetch", rio, "cache_fetch",
            value=lambda args, kwargs, result: 1.0 if result[0] is not None else 0.0,
        ),
        Target([BlockPrefetcher], "claim", rio, "claim", value="offcpu"),
        Target([WriteCoalescer], "flush", rio, "flush"),
        Target([ReplicaSelector], "best", "core.replica", "best"),
        Target([GnsClient], "resolve", "gns.client", "resolve"),
        Target([NameService], "resolve", "gns.server", "resolve"),
        Target([BufferWriter], "write", gbc, "writer_write"),
        Target([BufferWriter], "close", gbc, "writer_close"),
        Target([BufferReader], "read", gbc, "reader_read", value="offcpu"),
        Target([BufferReader], "seek", gbc, "reader_seek"),
        Target([BufferReader], "close", gbc, "reader_close"),
        Target([GridBufferClient], "write_multi", gbc, "write_multi"),
        Target([GridBufferClient], "read_window_ex", gbc, "read_window_ex"),
        Target([GridBufferClient], "consume_multi_ex", gbc, "consume_multi_ex"),
        Target([GridBufferClient], "register_reader_ex", gbc, "register_reader_ex"),
        Target([GridBufferService], "create_stream", gbs, "create_stream"),
        Target([GridBufferService], "register_reader", gbs, "register_reader"),
        Target([GridBufferService], "write_async", gbs, "write", is_async=True),
        Target([GridBufferService], "write_multi_async", gbs, "write", is_async=True),
        Target([GridBufferService], "read_async", gbs, "read", is_async=True),
        Target([GridBufferService], "mark_consumed_multi", gbs, "mark_consumed"),
        Target([GridBufferService], "close_writer", gbs, "close_writer"),
        Target([GridBufferService], "drop_stream", gbs, "drop_stream"),
        Target([BufferCache], "store", gbk, "store", value=_nbytes_arg(2)),
        Target([BufferCache], "load", gbk, "load", value=_nbytes_result),
        Target([wire, tcp, aio], "build_binary_frame", "transport.wire", "build_binary_frame"),
        Target([wire], "encode_fields", "transport.wire", "encode_fields"),
        Target([wire], "decode_fields", "transport.wire", "decode_fields"),
        Target([wire, tcp, aio], "decode_binary_header", "transport.wire", "decode_binary_header"),
        Target([ioutil], "crc32", "ioutil", "crc32", value=_nbytes_arg(0)),
        Target([RpcClient], "call", "transport.tcp", "call"),
        Target([GridFtpClient], "fetch_file", ftp, "fetch_file", value=_int_result),
        Target([GridFtpClient], "store_file", ftp, "store_file", value=_int_result),
        Target([GridFtpClient], "read_block", ftp, "read_block", value=_nbytes_result),
        Target([GridFtpClient], "read_block_via", ftp, "read_block", value=_nbytes_result),
        Target([GridFtpClient], "write_block", ftp, "write_block", value=_int_result),
        Target([GridFtpClient], "checksum", ftp, "checksum"),
    ]
