"""The File Multiplexer (FM).

"The key to providing a flexible IO system is to interpose a library
between the application and the Grid...  The FM intercepts all file
operations as specified in the legacy application.  When the program
performs an OPEN operation, the FM determines which mode to use, and
sets up the appropriate pathways.  Each OPEN operation makes an
independent choice." (Section 3.1)

:class:`FileMultiplexer` is that library.  ``open()`` consults the GNS
for the ``(machine, path)`` of the call and returns an :class:`FMFile`
backed by whichever client the record selects:

* ``local``           → :class:`~repro.core.local_client.LocalFileClient`
* ``copy``            → :class:`~repro.core.remote_client.CopyInOutFile`
* ``remote``          → :class:`~repro.core.remote_client.RemoteProxyFile`
* ``remote-replica``  → replica selection + proxy, with dynamic re-map
* ``local-replica``   → replica selection + copy-in, then local IO
* ``buffer``          → :class:`~repro.core.buffer_client.GridBufferClientPool`

No application source changes are required: the program calls plain
``open/read/write/seek/close`` (optionally via
:mod:`repro.core.interpose`) and re-wiring happens entirely in the GNS.
"""

from __future__ import annotations

import io
import logging
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from .. import obs
from ..gns.client import GnsClient, LocalGnsClient
from ..gns.records import BufferEndpoint, GnsRecord, IOMode
from ..grid.replica_catalog import Replica
from ..ioutil import ReadIntoFromRead
from ..transport.gridftp import GridFtpClient, TransferError
from ..transport.inmem import HostRegistry
from ..transport.tcp import RpcError
from .buffer_client import GridBufferClientPool
from .local_client import LocalFileClient
from .policy import AccessEstimate, AccessPolicy, observed_estimate
from .remote_client import RemoteFileClient
from .replica import NoReplicaError, ReplicaSelector

__all__ = ["FMError", "OpenStats", "GridContext", "FMFile", "FileMultiplexer"]

logger = logging.getLogger("repro.core.fm")

_FM_OPENS = obs.counter(
    "fm_opens_total", "FM open() calls by resolved IO mode", labelnames=("mode",)
)
_FM_OPS = obs.counter(
    "fm_ops_total", "FM file operations by op and IO mode", labelnames=("op", "mode")
)
_FM_BYTES = obs.counter(
    "fm_bytes_total", "Bytes through FM handles by direction and IO mode",
    labelnames=("direction", "mode"),
)
_FM_REMAPS = obs.counter(
    "fm_remaps_total", "Mid-read replica re-mappings performed by FM handles"
)
_FM_LIVE_REMAPS = obs.counter(
    "fm_live_remaps_total",
    "Open streams migrated between IO modes mid-run by a GNS change",
    labelnames=("from", "to"),
)
_FM_FAILOVERS = obs.counter(
    "replica_failovers_total",
    "Replica sources abandoned after an IO failure, by logical name",
    labelnames=("logical_name",),
)
_FM_DEGRADED = obs.counter(
    "fm_mode_degraded_total",
    "Opens degraded to a fallback IO mode (unreachable primary)",
    labelnames=("from_mode", "to_mode"),
)

Address = Tuple[str, int]
Locator = Union[Callable[[str], Address], Dict[str, Address]]


class FMError(RuntimeError):
    """Configuration or dispatch failure inside the FM."""


#: IO modes a live stream can be migrated between mid-run.  The two
#: replica modes keep their own selector-driven remap machinery and a
#: buffered *writer* owns its stream, so neither participates.
_MIGRATABLE = frozenset({IOMode.LOCAL, IOMode.COPY, IOMode.REMOTE, IOMode.BUFFER})


def _as_locator(loc: Optional[Locator], what: str) -> Callable[[str], Address]:
    if loc is None:
        def missing(host: str) -> Address:
            raise FMError(f"no {what} locator configured (needed for host {host!r})")
        return missing
    if callable(loc):
        return loc
    table = dict(loc)

    def lookup(host: str) -> Address:
        try:
            return table[host]
        except KeyError:
            raise FMError(f"no {what} registered for host {host!r}") from None
    return lookup


@dataclass
class OpenStats:
    """Per-open counters — the 'access pattern' input to the policy."""

    path: str = ""
    mode: str = ""
    io_mode: str = ""
    bytes_read: int = 0
    bytes_written: int = 0
    read_ops: int = 0
    write_ops: int = 0
    seeks: int = 0
    remaps: int = 0
    failovers: int = 0


@dataclass
class GridContext:
    """Everything one FM instance needs to reach the grid.

    Only ``machine`` and ``gns`` are mandatory; the other fields are
    required only by the modes that use them (e.g. ``gridftp`` for
    remote/copy, ``buffer_locator`` for direct connections).
    """

    machine: str
    gns: Union[GnsClient, LocalGnsClient]
    hosts: Optional[HostRegistry] = None
    gridftp: Optional[Locator] = None
    buffer_locator: Optional[Locator] = None
    selector: Optional[ReplicaSelector] = None
    policy: AccessPolicy = field(default_factory=AccessPolicy)
    scratch_dir: Optional[Path] = None
    io_timeout: Optional[float] = 120.0
    #: Re-consult the replica selector every N reads on read-only
    #: replicated opens (Section 3.1's dynamic re-mapping cadence).
    remap_every: int = 64
    #: Verify the SHA-256 of every copy-in against the remote server.
    verify_copies: bool = False
    #: Pipeline sequential proxy reads: up to 8 blocks in flight per
    #: proxy file, as futures on the engine loop over one connection.
    prefetch: bool = True
    #: Subscribe to GNS changes and live-migrate open read streams
    #: between IO modes mid-run (COPY↔BUFFER and friends) when their
    #: records are edited.  Off by default: resolve-at-open only.
    live_remap: bool = False
    #: Long-poll budget (seconds) for one ``gns.watch`` round of the
    #: live-remap watcher; also bounds how long FM close can stall on
    #: a parked watch.
    watch_budget: float = 1.0


class FMFile(ReadIntoFromRead, io.RawIOBase):
    """The handle returned by :meth:`FileMultiplexer.open`.

    Wraps whichever client implements this open's IO mode and counts
    traffic.  The handle changes source only through :meth:`_rebind`:
    replica failover, the periodic replica re-map of read-only
    replicated opens (Section 3.1), and live migration.
    """

    def __init__(self, inner: io.RawIOBase, record: GnsRecord, stats: OpenStats):
        super().__init__()
        self._inner = inner
        self.record = record
        self.stats = stats
        # Attached by the FM after open: the replica walker of a
        # REMOTE_REPLICA open, and the live-remap plumbing.  The watcher
        # parks a pending record here and the reader's own thread
        # applies it at the next read boundary (the quiesce point —
        # FMFile is single-reader, so no IO is in flight).
        self._replicas: Optional[_ReplicaWalker] = None
        self._migrate_opener: Optional[Callable[[GnsRecord], io.RawIOBase]] = None
        self._on_close: Optional[Callable[[], None]] = None
        self._pending_record: Optional[GnsRecord] = None
        self._pending_lock = threading.Lock()
        self._bind_metrics(record.mode.value)

    def _bind_metrics(self, mode: str) -> None:
        # Children bound once per open (and re-bound on a live
        # migration): the per-op cost is a lock + add.
        self._m_reads = _FM_OPS.labels(op="read", mode=mode)
        self._m_writes = _FM_OPS.labels(op="write", mode=mode)
        self._m_seeks = _FM_OPS.labels(op="seek", mode=mode)
        self._m_closes = _FM_OPS.labels(op="close", mode=mode)
        self._m_bytes_read = _FM_BYTES.labels(direction="read", mode=mode)
        self._m_bytes_written = _FM_BYTES.labels(direction="write", mode=mode)

    # -- capability passthrough ---------------------------------------------
    def readable(self) -> bool:
        return self._inner.readable()

    def writable(self) -> bool:
        return self._inner.writable()

    def seekable(self) -> bool:
        return self._inner.seekable()

    @property
    def io_mode(self) -> IOMode:
        return self.record.mode

    # -- IO with accounting ---------------------------------------------------
    def read(self, size: int = -1) -> bytes:  # type: ignore[override]
        self._maybe_migrate()
        if self._replicas is not None:
            self._replicas.remap(self)
        data = self._read_failsafe(size)
        self.stats.read_ops += 1
        self.stats.bytes_read += len(data or b"")
        self._m_reads.inc()
        self._m_bytes_read.inc(len(data or b""))
        return data

    def _read_failsafe(self, size: int) -> bytes:
        """One logical read; a replicated handle fails over on error.

        The position is captured *before* the attempt: a failed read may
        already have advanced the inner handle's bookkeeping for bytes
        that were never returned, so the replacement must resume from
        the pre-read offset, not the post-failure one.
        """
        while True:
            pos = self._inner.tell()
            try:
                return self._inner.read(size)
            except (OSError, RpcError) as exc:
                if self._replicas is None or not self._replicas.failover(self, exc, pos):
                    raise
                self.stats.failovers += 1

    def write(self, data) -> int:  # type: ignore[override]
        n = self._inner.write(bytes(data)) or 0
        self.stats.write_ops += 1
        self.stats.bytes_written += n
        self._m_writes.inc()
        self._m_bytes_written.inc(n)
        return n

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:  # type: ignore[override]
        self.stats.seeks += 1
        self._m_seeks.inc()
        return self._inner.seek(offset, whence)

    def tell(self) -> int:
        return self._inner.tell()

    def flush(self) -> None:
        if not self._inner.closed:
            self._inner.flush()

    def close(self) -> None:
        if not self.closed:
            self._m_closes.inc()
            try:
                self._inner.close()
            finally:
                super().close()
                if self._on_close is not None:
                    self._on_close()

    def abort(self) -> None:
        """Abandon the handle after a stage crash.

        Buffered writers propagate the abort so blocked readers fail
        fast (StreamFailed) instead of hanging to their timeout; other
        clients just close.
        """
        if self.closed:
            return
        inner_abort = getattr(self._inner, "abort", None)
        try:
            if callable(inner_abort):
                inner_abort()
            else:
                self._inner.close()
        finally:
            super().close()
            if self._on_close is not None:
                self._on_close()

    # -- the one source swap ------------------------------------------------
    def _rebind(self, open_source: Callable[[], io.RawIOBase], checkpoint: int) -> bool:
        """Move this handle onto a new source that resumes at ``checkpoint``.

        Failover, the replica re-map and live migration all come through
        here.  The replacement is opened and seeked first; only then is
        it swapped in and the old source closed, ignoring errors from
        that close (it may be the source that just died).  If the open
        or the seek fails, the handle keeps its current source and this
        returns False.
        """
        replacement = None
        try:
            replacement = open_source()
            replacement.seek(checkpoint)
        except (OSError, RpcError, FMError, NoReplicaError) as exc:
            if replacement is not None:
                _close_quietly(replacement)
            logger.warning("%s: new source unusable (%s); staying put", self.stats.path, exc)
            return False
        old, self._inner = self._inner, replacement
        _close_quietly(old)
        return True

    # -- live migration (GNS-driven mode change) ----------------------------
    def request_migration(self, record: GnsRecord) -> bool:
        """Ask this handle to move to ``record`` at its next read boundary.

        Called by the FM's GNS watcher (any thread).  The actual swap
        happens on the reader's own thread inside :meth:`read`, which
        is the safe block boundary: no IO is in flight, the offset is
        a clean checkpoint, and the stream resumes byte-exact.
        """
        if self._migrate_opener is None or self.closed:
            return False
        if record.mode not in _MIGRATABLE or self.record.mode not in _MIGRATABLE:
            return False
        if record == self.record:
            return False
        with self._pending_lock:
            self._pending_record = record
        return True

    def _maybe_migrate(self) -> None:
        with self._pending_lock:
            record, self._pending_record = self._pending_record, None
        if record is None or record == self.record or self._migrate_opener is None:
            return
        from_mode = self.record.mode.value
        to_mode = record.mode.value
        with obs.span(
            "remap", path=self.stats.path, from_mode=from_mode, to_mode=to_mode
        ):
            pos = self._inner.tell()
            if not self._rebind(lambda: self._migrate_opener(record), pos):  # type: ignore[misc]
                # New binding unreachable: stay on the current one; a
                # later GNS change (or the same record, retried by the
                # watcher on its next batch) can still move us.
                obs.event(
                    "fm.live_remap_failed",
                    path=self.stats.path,
                    from_mode=from_mode,
                    to_mode=to_mode,
                )
                return
            self.record = record
            self.stats.io_mode = to_mode
            self.stats.remaps += 1
            self._bind_metrics(to_mode)
            _FM_LIVE_REMAPS.labels(**{"from": from_mode, "to": to_mode}).inc()
            obs.event(
                "fm.live_remap",
                path=self.stats.path,
                from_mode=from_mode,
                to_mode=to_mode,
                offset=pos,
            )
            logger.info(
                "live remap %s: %s -> %s at offset %d",
                self.stats.path, from_mode, to_mode, pos,
            )


def _close_quietly(source: io.RawIOBase) -> None:
    try:
        source.close()
    except (OSError, RpcError):
        pass  # a dead or abandoned source; the handle has moved on


class _ReplicaWalker:
    """One open's walk over a replicated file's replicas, best first.

    ``open_replica`` turns a chosen replica into a raw source (a proxy
    for REMOTE_REPLICA, a copy-in for LOCAL_REPLICA).  Every ``(host,
    path)`` that fails this open — at open, mid-read or mid-copy — is
    excluded for the rest of the open, so no choice is tried twice.
    """

    def __init__(
        self,
        ctx: GridContext,
        record: GnsRecord,
        open_replica: Callable[[Replica, int], io.RawIOBase],
    ):
        if ctx.selector is None:
            raise FMError(
                f"replicated file {record.logical_name!r} needs a ReplicaSelector"
            )
        self._ctx = ctx
        self._name: str = record.logical_name  # type: ignore[assignment]
        self._open_replica = open_replica
        self._failed: set = set()
        self.current: Optional[Replica] = None

    def walk(self, offset: int = 0) -> io.RawIOBase:
        """Open the best replica not yet excluded, to be read from
        ``offset``, excluding each that cannot be opened; once none is
        left, raise the last open error."""
        last: Optional[BaseException] = None
        while True:
            try:
                choice = self._ctx.selector.best(  # type: ignore[union-attr]
                    self._name, self._ctx.machine, exclude=self._failed
                )
            except NoReplicaError:
                if last is None:
                    raise
                raise last
            try:
                source = self.open(choice.replica, offset)
            except (OSError, RpcError) as exc:
                last = exc
                continue
            self.current = choice.replica
            return source

    def open(self, replica: Replica, offset: int = 0) -> io.RawIOBase:
        try:
            return self._open_replica(replica, offset)
        except (OSError, RpcError) as exc:
            self.exclude(replica, exc)
            raise

    def exclude(self, replica: Replica, exc: BaseException) -> None:
        self._failed.add((replica.host, replica.path))
        _FM_FAILOVERS.labels(logical_name=self._name).inc()
        obs.event(
            "fm.replica_failover", logical_name=self._name, from_host=replica.host, error=str(exc)
        )
        logger.warning("replica %s on %s failed (%s); excluded", self._name, replica.host, exc)

    def failover(self, fmfile: FMFile, exc: BaseException, checkpoint: int) -> bool:
        """Exclude the source whose read failed; rebind to the next best."""
        self.exclude(self.current, exc)  # type: ignore[arg-type]
        return fmfile._rebind(lambda: self.walk(checkpoint), checkpoint)

    def remap(self, fmfile: FMFile) -> None:
        """Every ``remap_every`` reads, rebind to a replica the selector
        now forecasts as clearly cheaper; one that cannot be opened is
        excluded and the handle stays put."""
        if fmfile.stats.read_ops % max(1, self._ctx.remap_every):
            return
        try:
            choice = self._ctx.selector.maybe_remap(  # type: ignore[union-attr]
                self._name, self._ctx.machine, self.current, exclude=self._failed  # type: ignore
            )
        except NoReplicaError:
            return  # every replica has failed; the next read raises
        at = fmfile.tell()
        if choice is not None and fmfile._rebind(lambda: self.open(choice.replica, at), at):
            self.current = choice.replica
            fmfile.stats.remaps += 1
            _FM_REMAPS.inc()


class FileMultiplexer:
    """One per application process; dispatches opens by GNS record."""

    def __init__(self, ctx: GridContext):
        self.ctx = ctx
        host = ctx.hosts.host(ctx.machine) if ctx.hosts is not None else None
        self._local = LocalFileClient(host)
        self._gridftp_locator = _as_locator(ctx.gridftp, "GridFTP")
        self._buffer_locator = _as_locator(ctx.buffer_locator, "Grid Buffer")
        self._ftp_clients: Dict[str, GridFtpClient] = {}
        self._remote_clients: Dict[str, RemoteFileClient] = {}
        self._lock = threading.Lock()
        self.open_history: list[OpenStats] = []
        # Measured per-host throughput/latency; feeds the access policy
        # and sizes the buffered readers' read-ahead windows.
        from .trace import TransferMonitor  # local import: trace imports us

        self.monitor = TransferMonitor()
        self._buffer_pool = GridBufferClientPool(ctx.machine, monitor=self.monitor)
        # Live-remap state: open read handles watching the GNS, plus
        # the background thread driving the gns.watch long-poll.
        self._watched: Dict[int, Tuple[str, FMFile]] = {}
        self._watch_lock = threading.Lock()
        self._watch_stop = threading.Event()
        self._watch_thread: Optional[threading.Thread] = None

    # -- plumbing ----------------------------------------------------------
    def _ftp(self, host: str) -> GridFtpClient:
        with self._lock:
            client = self._ftp_clients.get(host)
            if client is None:
                addr = self._gridftp_locator(host)
                client = GridFtpClient(*addr, monitor=self.monitor, peer=host)
                self._ftp_clients[host] = client
            return client

    def _remote(self, host: str) -> RemoteFileClient:
        with self._lock:
            remote = self._remote_clients.get(host)
        if remote is not None:
            return remote
        client = self._ftp(host)
        with self._lock:
            remote = self._remote_clients.get(host)
            if remote is None:
                remote = RemoteFileClient(
                    client, scratch_dir=self.ctx.scratch_dir, prefetch=self.ctx.prefetch
                )
                self._remote_clients[host] = remote
            return remote

    def link_estimate(self, host: str, file_size: int, read_fraction: float = 1.0) -> AccessEstimate:
        """An :class:`AccessEstimate` for ``host`` from measured numbers."""
        return observed_estimate(self.monitor, host, file_size, read_fraction=read_fraction)

    # -- the public entry point ----------------------------------------------
    def open(self, path: str, mode: str = "r") -> FMFile:
        """Open ``path`` the way the GNS says this machine should.

        A binding that is unreachable at OPEN (``OSError``/``RpcError``:
        a dead host, a missing file) degrades down the record's
        ``fallback`` chain, whatever its mode; a configuration error
        (:class:`FMError`) raises.
        """
        record = self.ctx.gns.resolve(self.ctx.machine, path)
        stats = OpenStats(path=path, mode=mode, io_mode=record.mode.value)
        self.open_history.append(stats)
        _FM_OPENS.labels(mode=record.mode.value).inc()
        obs.event(
            "fm.open", path=path, machine=self.ctx.machine, io_mode=record.mode.value
        )
        logger.debug(
            "open %s mode=%s on %s -> %s", path, mode, self.ctx.machine, record.mode.value
        )
        while True:
            try:
                inner, replicas = self._open_source(record, path, mode, stats)
                break
            except (OSError, RpcError) as exc:
                fallback = record.fallback
                if fallback is None:
                    raise
                _FM_DEGRADED.labels(
                    from_mode=record.mode.value, to_mode=fallback.mode.value
                ).inc()
                _FM_REMAPS.inc()
                stats.remaps += 1
                stats.io_mode = fallback.mode.value
                obs.event(
                    "fm.mode_degraded",
                    path=path,
                    from_mode=record.mode.value,
                    to_mode=fallback.mode.value,
                    error=str(exc),
                )
                logger.warning(
                    "open %s: %s unreachable (%s); degrading to %s",
                    path, record.mode.value, exc, fallback.mode.value,
                )
                record = fallback
        fmfile = FMFile(inner, record, stats)
        fmfile._replicas = replicas
        self._maybe_register_live(path, mode, fmfile)
        return fmfile

    # -- the one table: GNS record -> raw source ------------------------------
    def _open_source(
        self, record: GnsRecord, path: str, mode: str, stats: OpenStats, offset: int = 0
    ) -> Tuple[io.RawIOBase, Optional[_ReplicaWalker]]:
        """The only place an IO mode becomes a source.

        ``open``, each fallback it degrades to, and each live migration
        come through here.  A REMOTE_REPLICA source comes with the
        replica walker the handle fails over and re-maps through.
        ``offset`` is where the handle will read first: a proxy's open
        probe fetches that block; other sources are seeked there by
        the caller.
        """
        core = mode.replace("b", "").replace("t", "")
        if record.mode is IOMode.LOCAL:
            return self._local.open(record.local_path or path, mode), None
        if record.mode is IOMode.COPY:
            remote = self._remote(record.remote_host)  # type: ignore[arg-type]
            return remote.open_copy(record.remote_path, mode, verify=self.ctx.verify_copies), None
        if record.mode is IOMode.REMOTE:
            remote = self._remote(record.remote_host)  # type: ignore[arg-type]
            return remote.open_proxy(record.remote_path, mode, offset=offset), None  # type: ignore[arg-type]
        if record.mode is IOMode.BUFFER:
            endpoint = record.buffer
            assert endpoint is not None  # enforced by GnsRecord validation
            if core in ("r+", "w+", "a+"):
                raise FMError("buffered streams are unidirectional (read xor write)")
            if core == "r":
                inner = self._buffer_pool.open_reader(
                    endpoint,
                    self._locate_buffer(endpoint, "reader"),
                    read_timeout=self.ctx.io_timeout,
                )
            else:
                inner = self._buffer_pool.open_writer(
                    endpoint,
                    self._locate_buffer(endpoint, "writer"),
                    write_timeout=self.ctx.io_timeout,
                )
            return inner, None
        # Only the two replicated modes are left, and both are read-only.
        if core != "r":
            raise FMError("replicated files are read-only")
        if record.mode is IOMode.REMOTE_REPLICA:
            replicas = _ReplicaWalker(self.ctx, record, self._open_replica_source)
            return replicas.walk(offset), replicas
        assert record.mode is IOMode.LOCAL_REPLICA  # the enum is closed
        return _ReplicaWalker(self.ctx, record, self._copy_in(record, path, stats)).walk(), None

    def _open_replica_source(self, replica: Replica, offset: int) -> io.RawIOBase:
        if replica.host == self.ctx.machine:
            return self._local.open(replica.path, "r")
        return self._remote(replica.host).open_proxy(replica.path, "r", offset=offset)

    def _copy_in(
        self, record: GnsRecord, path: str, stats: OpenStats
    ) -> Callable[[Replica, int], io.RawIOBase]:
        """LOCAL_REPLICA's replica opener: copy the replica in, then read
        the local copy, whole whatever offset the handle reads from.  A
        copy that dies counts as a failover, and the next replica resumes
        it at :attr:`TransferError.copied`."""
        local_copy = record.local_path or f"/fm-replica-cache{path}"
        resume = 0  # contiguous bytes already copied by failed attempts

        def copy_in(replica: Replica, _offset: int) -> io.RawIOBase:
            nonlocal resume
            if replica.host == self.ctx.machine:
                return self._local.open(replica.path, "r")
            try:
                # Replicas are byte-identical, so a copy interrupted at
                # offset N resumes at N from the *next* source.
                self._ftp(replica.host).fetch_file(
                    replica.path, self._local.resolve(local_copy), resume_from=resume
                )
            except (OSError, RpcError) as exc:
                stats.failovers += 1
                if isinstance(exc, TransferError):
                    resume = exc.copied
                raise
            return self._local.open(local_copy, "r")

        return copy_in

    # -- live remap (GNS change subscription) -------------------------------
    def _maybe_register_live(self, path: str, mode: str, fmfile: FMFile) -> None:
        """Put a freshly opened read handle under GNS watch.

        Writers keep their binding (a buffered writer owns its stream)
        and replica opens keep their selector-driven remap machinery;
        everything else migrates when its record changes.
        """
        if not self.ctx.live_remap:
            return
        core = mode.replace("b", "").replace("t", "")
        if core != "r" or fmfile.record.mode not in _MIGRATABLE:
            return
        key = id(fmfile)
        # A migration runs at a read boundary on the reader's thread, so
        # the handle's position is where the new source resumes.
        fmfile._migrate_opener = lambda record: self._open_source(
            record, path, mode, fmfile.stats, fmfile.tell()
        )[0]
        fmfile._on_close = lambda: self._unregister_live(key)
        with self._watch_lock:
            self._watched[key] = (path, fmfile)
            if self._watch_thread is None and not self._watch_stop.is_set():
                self._watch_thread = threading.Thread(
                    target=self._watch_loop,
                    name=f"fm-gns-watch-{self.ctx.machine}",
                    daemon=True,
                )
                self._watch_thread.start()
        # Close the open-vs-subscribe race: a txn landing between this
        # open's resolve and the watcher's baseline would otherwise be
        # invisible until the next change.
        try:
            current = self.ctx.gns.resolve(self.ctx.machine, path)
        except (OSError, RpcError):
            return  # control plane briefly unreachable; watcher retries
        if current != fmfile.record:
            fmfile.request_migration(current)

    def _unregister_live(self, key: int) -> None:
        with self._watch_lock:
            self._watched.pop(key, None)

    def _watch_loop(self) -> None:
        """Drive the gns.watch long-poll; resume from revision on faults.

        Server death mid-watch surfaces here as OSError/RpcError: the
        loop backs off and re-issues the watch from the last revision
        it has applied, so the store replays whatever was missed — no
        change is lost or seen twice.
        """
        gns = self.ctx.gns
        revision = -1
        while not self._watch_stop.is_set():
            try:
                if revision < 0:
                    revision = gns.watch(from_revision=-1, timeout=0.0).revision
                    self._apply_watch()
                    continue
                batch = gns.watch(from_revision=revision, timeout=self.ctx.watch_budget)
            except (OSError, RpcError) as exc:
                obs.event("fm.watch_retry", machine=self.ctx.machine, error=str(exc))
                if self._watch_stop.wait(0.1):
                    return
                continue
            if batch.events or batch.reset:
                self._apply_watch()
            revision = batch.revision

    def _apply_watch(self) -> None:
        """Re-resolve every watched path; queue migrations for changes."""
        with self._watch_lock:
            snapshot = list(self._watched.values())
        for path, fmfile in snapshot:
            if fmfile.closed:
                continue
            try:
                record = self.ctx.gns.resolve(self.ctx.machine, path)
            except (OSError, RpcError):
                continue  # control plane briefly unreachable; next batch retries
            if record != fmfile.record:
                fmfile.request_migration(record)

    def _locate_buffer(self, endpoint: BufferEndpoint, role: str) -> Address:
        if endpoint.host and endpoint.port:
            return (endpoint.host, endpoint.port)
        # Ask the GNS matcher; it places the server per the endpoint's
        # placement policy once the matching endpoint announces.
        host, port = self.ctx.gns.announce(
            endpoint.stream, role, self.ctx.machine, endpoint.placement
        )
        if not host or not port:
            # Matcher had no locator: place on this machine if we can.
            return self._buffer_locator(self.ctx.machine)
        return (host, port)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        self._watch_stop.set()
        thread = self._watch_thread
        if thread is not None:
            # Best-effort: the watcher is a daemon parked in a bounded
            # long-poll; it observes the stop flag on its next round.
            thread.join(timeout=0.2)
            self._watch_thread = None
        with self._watch_lock:
            self._watched.clear()
        self._buffer_pool.close()
        with self._lock:
            for client in self._ftp_clients.values():
                client.close()
            self._ftp_clients.clear()

    def __enter__(self) -> "FileMultiplexer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
