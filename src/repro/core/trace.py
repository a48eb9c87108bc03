"""FM call tracing (the Bypass-style observability layer).

The paper's implementation sat on Condor's Bypass trap layer, whose
other role was *inspection* — seeing exactly which file operations a
legacy binary performs.  :class:`FmTracer` recreates that: wrap a
:class:`~repro.core.multiplexer.FileMultiplexer` and every open/read/
write/seek/close is appended to a bounded in-memory log (optionally
echoed to a stream), with per-path summaries for post-run analysis.

Both classes here are thin adapters over :mod:`repro.obs`, the single
source of truth for process-wide telemetry: :class:`FmTracer` mirrors
each event into the obs tracer's sink (when one is configured) and
:class:`TransferMonitor` feeds every sample into the metrics registry
(``transport_transfer_bytes_total`` / ``transport_transfer_seconds_total``)
while keeping its local rolling window for bandwidth/latency estimation.

Usage::

    tracer = FmTracer(fm)
    f = tracer.open("/wf/x", "r")   # same API as fm.open
    ...
    print(tracer.summary())
"""

from __future__ import annotations

import io
import os
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, TextIO

from .. import obs
from ..ioutil import ReadIntoFromRead
from .multiplexer import FileMultiplexer, FMFile

__all__ = ["TraceEvent", "FmTracer", "TransferSample", "TransferMonitor"]

_TRANSFER_BYTES = obs.counter(
    "transport_transfer_bytes_total",
    "Bytes moved per monitored transfer operation",
    labelnames=("peer", "op"),
)
_TRANSFER_SECONDS = obs.counter(
    "transport_transfer_seconds_total",
    "Wall seconds spent in monitored transfer operations",
    labelnames=("peer", "op"),
)


@dataclass(frozen=True)
class TransferSample:
    """One timed remote transfer operation against one peer."""

    peer: str       # remote host label (GridFTP server, buffer server…)
    op: str         # get_block / put_block / size / fetch / store …
    nbytes: int
    seconds: float


#: Every finite double is an integer multiple of 2**-1074 s (the smallest
#: subnormal), so bulk seconds summed in that unit are summed exactly:
#: subtracting an evicted sample leaves no rounding residue behind.
_FIXED_ONE = 1 << 1074


def _fixed(seconds: float) -> int:
    """``seconds`` as an exact integer count of 2**-1074 s."""
    num, den = seconds.as_integer_ratio()  # den is a power of two
    return num << (1075 - den.bit_length())


class _Link:
    """One peer's sample window plus running aggregates over it."""

    __slots__ = ("samples", "bulk_bytes", "bulk_fixed", "probes")

    def __init__(self, max_samples: int):
        self.samples: Deque[TransferSample] = deque(maxlen=max_samples)
        self.bulk_bytes = 0    # sum of nbytes over the bulk samples in the window
        self.bulk_fixed = 0    # sum of their seconds, in _fixed() units
        # Monotonic min-deque over the window's probes: oldest first, each
        # strictly slower than the one before it, so the head is the fastest.
        self.probes: Deque[TransferSample] = deque()


class TransferMonitor:
    """Rolling per-peer transfer observations → bandwidth/latency estimates.

    The paper's policy (§3.1) and replica selection both want *measured*
    link numbers, not configured ones.  Every remote client records its
    RPCs here; :meth:`bandwidth` and :meth:`latency` turn the samples
    into the inputs :class:`~repro.core.policy.AccessEstimate` needs.

    Latency is estimated from the fastest small-payload round trip seen
    (halved: one-way), bandwidth from the aggregate of bulk samples —
    small ones are dominated by the round trip, not the pipe.  Both are
    taken over the last ``max_samples`` samples per peer.

    Classification goes by op type as well as payload size: a
    whole-file ``fetch``/``store`` is a bulk transfer even when the
    file happens to be tiny — its duration includes per-block RPCs and
    disk IO, so counting it as a latency probe would skew the one-way
    estimate upward.

    Both queries are O(1): the read-ahead window asks on every
    application ``read()``.  :meth:`record` classifies a sample once and
    keeps per-peer running state — exact integer bulk byte and second
    sums, and a monotonic min-deque of probe durations — subtracting
    whatever the window evicts, so an estimate is the one a scan of the
    window would give (bandwidth to within the scan's float rounding),
    and the lock is held for constant time.  At most
    :attr:`MAX_PEERS` peers are tracked; recording a new peer beyond
    that forgets the least recently recorded one.
    """

    #: Samples at or below this payload size count as latency probes.
    SMALL_BYTES = 4096
    #: Ops that are whole-file transfers, never latency probes.
    BULK_OPS = frozenset({"fetch", "store"})
    #: Peers tracked at once.
    MAX_PEERS = 64

    def __init__(self, max_samples: int = 1024):
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self._links: "OrderedDict[str, _Link]" = OrderedDict()  # oldest record first
        self._max = max_samples
        self._lock = threading.Lock()

    def record(self, peer: str, op: str, nbytes: int, seconds: float) -> None:
        sample = TransferSample(peer=peer, op=op, nbytes=nbytes, seconds=max(0.0, seconds))
        _TRANSFER_BYTES.labels(peer=peer, op=op).inc(max(0, nbytes))
        _TRANSFER_SECONDS.labels(peer=peer, op=op).inc(sample.seconds)
        bulk = self._is_bulk(sample)
        fixed = _fixed(sample.seconds) if bulk else 0
        with self._lock:
            link = self._links.get(peer)
            if link is None:
                if len(self._links) >= self.MAX_PEERS:
                    self._links.popitem(last=False)
                link = self._links[peer] = _Link(self._max)
            else:
                self._links.move_to_end(peer)
            samples, probes = link.samples, link.probes
            if len(samples) == self._max:
                old = samples.popleft()
                if self._is_bulk(old):
                    link.bulk_bytes -= old.nbytes
                    link.bulk_fixed -= _fixed(old.seconds)
                elif probes[0] is old:  # else a later, no-slower probe displaced it
                    probes.popleft()
            samples.append(sample)
            if bulk:
                link.bulk_bytes += nbytes
                link.bulk_fixed += fixed
            else:
                while probes and probes[-1].seconds >= sample.seconds:
                    probes.pop()
                probes.append(sample)

    def samples(self, peer: str) -> list:
        with self._lock:
            link = self._links.get(peer)
            return [] if link is None else list(link.samples)

    def _is_bulk(self, sample: TransferSample) -> bool:
        return sample.op in self.BULK_OPS or sample.nbytes > self.SMALL_BYTES

    @staticmethod
    def _latency(link: _Link) -> Optional[float]:
        return link.probes[0].seconds / 2.0 if link.probes else None

    @staticmethod
    def _bandwidth(link: _Link) -> Optional[float]:
        if not link.bulk_fixed:  # no bulk sample, or every one took 0 s
            return None
        return link.bulk_bytes / (link.bulk_fixed / _FIXED_ONE)

    def latency(self, peer: str) -> Optional[float]:
        """Best observed one-way latency to ``peer`` in seconds."""
        with self._lock:
            link = self._links.get(peer)
            return None if link is None else self._latency(link)

    def bandwidth(self, peer: str) -> Optional[float]:
        """Observed bulk throughput to ``peer`` in bytes/second."""
        with self._lock:
            link = self._links.get(peer)
            return None if link is None else self._bandwidth(link)

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-peer roll-up for logging/benchmark emission.

        Each row is built under one lock hold, so its counts and its
        estimates describe the same samples.
        """
        out: Dict[str, Dict[str, Any]] = {}
        with self._lock:
            peers = list(self._links)
        for peer in peers:
            with self._lock:
                link = self._links.get(peer)
                if link is None:  # forgotten since the peer list was taken
                    continue
                samples = link.samples
                out[peer] = {
                    "ops": len(samples),
                    "bytes": sum(s.nbytes for s in samples),
                    "seconds": sum(s.seconds for s in samples),
                    "bandwidth_bps": self._bandwidth(link),
                    "latency_s": self._latency(link),
                }
        return out


@dataclass(frozen=True)
class TraceEvent:
    """One traced FM call."""

    timestamp: float
    op: str          # open / read / write / seek / close
    path: str
    mode: str        # IO mode in force for the handle
    detail: int = 0  # bytes for read/write, target for seek

    def __str__(self) -> str:
        return f"[{self.timestamp:.6f}] {self.op:<5} {self.path} ({self.mode}) {self.detail}"


class _TracedFile(ReadIntoFromRead, io.RawIOBase):
    def __init__(self, inner: FMFile, tracer: "FmTracer", path: str):
        super().__init__()
        self._inner = inner
        self._tracer = tracer
        self._path = path

    def _log(self, op: str, detail: int = 0) -> None:
        self._tracer._record(op, self._path, self._inner.record.mode.value, detail)

    def readable(self) -> bool:
        return self._inner.readable()

    def writable(self) -> bool:
        return self._inner.writable()

    def seekable(self) -> bool:
        return self._inner.seekable()

    def read(self, size: int = -1) -> bytes:  # type: ignore[override]
        data = self._inner.read(size)
        self._log("read", len(data or b""))
        return data

    def write(self, data) -> int:  # type: ignore[override]
        n = self._inner.write(data)
        self._log("write", n)
        return n

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:  # type: ignore[override]
        pos = self._inner.seek(offset, whence)
        self._log("seek", pos)
        return pos

    def tell(self) -> int:
        return self._inner.tell()

    def close(self) -> None:
        if not self.closed:
            self._log("close")
            self._inner.close()
            super().close()


class FmTracer:
    """Wraps an FM; opened handles log every operation.

    The event log is a bounded deque guarded by a lock: handles may be
    used from several threads (the runner's stage threads all trace
    through one tracer), so appends and :meth:`summary`'s iteration
    must never interleave unprotected.  Each event is also mirrored to
    the :mod:`repro.obs` tracer sink (when configured) as an
    ``fm.<op>`` point event, nesting under whatever span is active.
    """

    def __init__(
        self,
        fm: FileMultiplexer,
        max_events: int = 100_000,
        echo: Optional[TextIO] = None,
        clock=time.monotonic,
    ):
        self.fm = fm
        self.events: Deque[TraceEvent] = deque(maxlen=max_events)
        self.echo = echo
        self._clock = clock
        self._t0 = clock()
        self._lock = threading.Lock()

    def _record(self, op: str, path: str, mode: str, detail: int = 0) -> None:
        event = TraceEvent(
            timestamp=self._clock() - self._t0, op=op, path=path, mode=mode, detail=detail
        )
        with self._lock:
            self.events.append(event)
        obs.event(f"fm.{op}", path=path, mode=mode, detail=detail)
        if self.echo is not None:
            print(event, file=self.echo)

    def snapshot(self) -> List[TraceEvent]:
        """A consistent copy of the event log (safe under concurrency)."""
        with self._lock:
            return list(self.events)

    def open(self, path: str, mode: str = "r") -> _TracedFile:
        handle = self.fm.open(path, mode)
        self._record("open", path, handle.record.mode.value)
        return _TracedFile(handle, self, path)

    # -- analysis ----------------------------------------------------------
    def transfer_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-peer throughput/latency observed by the wrapped FM."""
        monitor = getattr(self.fm, "monitor", None)
        return monitor.summary() if monitor is not None else {}

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-path op counts and byte totals."""
        out: Dict[str, Dict[str, int]] = {}
        for event in self.snapshot():
            entry = out.setdefault(
                event.path,
                {"opens": 0, "reads": 0, "writes": 0, "seeks": 0, "bytes_read": 0, "bytes_written": 0},
            )
            if event.op == "open":
                entry["opens"] += 1
            elif event.op == "read":
                entry["reads"] += 1
                entry["bytes_read"] += event.detail
            elif event.op == "write":
                entry["writes"] += 1
                entry["bytes_written"] += event.detail
            elif event.op == "seek":
                entry["seeks"] += 1
        return out

    def clear(self) -> None:
        with self._lock:
            self.events.clear()
