"""The GriddLeS Name Service — now a live control plane.

Historically the FM treated the GNS as a read-only database loaded
once per run.  Since PR 10 the :class:`NameService` fronts a
:class:`~repro.gns.store.RecordStore`: records are versioned per
namespace, mutations are atomic transactions, and running clients
subscribe to changes — so re-wiring a workflow really is *only* a
matter of changing entries here (the paper's headline flexibility
claim), and it takes effect on streams that are already open.

:class:`GnsServer` exposes the service over the framed RPC protocol.
Besides the legacy ops it serves:

* ``gns.txn`` — atomic multi-record transactions with a dedupe token
  (safe to retry over a redial);
* ``gns.watch`` — a native-async long-poll on the process-wide loop: a
  parked watch costs no thread, wakes on the next commit via a
  :class:`~repro.transport.aio.LoopSignal`, and a client that
  reconnects after server death resumes from its last seen revision;
* per-namespace bearer tokens, checked on every op that names a
  namespace.  A frame without an ``ns``/``auth`` field is the default
  client's: it lands in the (untokened by default) ``default``
  namespace.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..transport.aio import LoopSignal
from ..transport.tcp import RpcError, RpcServer
from .matcher import ConnectionMatcher, ServerLocator, StreamBinding
from .records import GnsRecord, IOMode
from .store import DEFAULT_NAMESPACE, GnsAuthError, RecordStore

__all__ = ["NameService", "GnsServer"]

#: Server-side cap on a single watch long-poll, seconds.  Clients poll
#: again on an empty batch, so a short cap only costs an extra
#: round-trip — it also bounds how long a parked handler can outlive a
#: dead connection.
WATCH_BUDGET_CAP = 30.0


class NameService:
    """Versioned GNS database plus the direct-connection matcher.

    The record API keeps its original single-namespace shape
    (``add``/``remove``/``resolve`` default to the ``default``
    namespace) and adds the control-plane surface: ``txn``,
    ``changes_since``/``wait_changes``, ``compact``, ``revision`` and
    token management, all namespace-scoped.
    """

    def __init__(
        self,
        locate_buffer_server: Optional[ServerLocator] = None,
        store: Optional[RecordStore] = None,
        db_path: str = ":memory:",
    ):
        self.store = store if store is not None else RecordStore(db_path)
        self.matcher = ConnectionMatcher(locate_buffer_server)

    # -- record management -------------------------------------------------
    def add(self, record: GnsRecord, ns: str = DEFAULT_NAMESPACE) -> None:
        self.store.txn([("add", record)], ns=ns)

    def add_all(self, records: List[GnsRecord], ns: str = DEFAULT_NAMESPACE) -> None:
        self.store.txn([("add", r) for r in records], ns=ns)

    def remove(self, machine: str, path: str, ns: str = DEFAULT_NAMESPACE) -> int:
        """Remove records with exactly this (machine, path) pattern."""
        present = sum(
            1 for r in self.store.records(ns) if r.machine == machine and r.path == path
        )
        if present:
            self.store.txn([("remove", machine, path)], ns=ns)
        return present

    def clear(self, ns: str = DEFAULT_NAMESPACE) -> None:
        pairs = {(r.machine, r.path) for r in self.store.records(ns)}
        if pairs:
            self.store.txn([("remove", m, p) for m, p in sorted(pairs)], ns=ns)

    def records(self, ns: str = DEFAULT_NAMESPACE) -> List[GnsRecord]:
        return self.store.records(ns)

    # -- control plane -----------------------------------------------------
    def txn(
        self,
        ops: List[Any],
        ns: str = DEFAULT_NAMESPACE,
        token: Optional[str] = None,
    ) -> int:
        """Atomically apply add/remove operations; return the new revision."""
        return self.store.txn(ops, ns=ns, token=token)

    def revision(self, ns: str = DEFAULT_NAMESPACE) -> int:
        return self.store.revision(ns)

    def changes_since(self, ns: str, from_revision: int):
        return self.store.changes_since(ns, from_revision)

    def wait_changes(self, ns: str, from_revision: int, timeout: float):
        return self.store.wait_changes(ns, from_revision, timeout)

    def compact(self, ns: str = DEFAULT_NAMESPACE) -> int:
        return self.store.compact(ns)

    def set_token(self, ns: str, token: Optional[str]) -> None:
        self.store.set_token(ns, token)

    def check_token(self, ns: str, token: Optional[str]) -> None:
        self.store.check_token(ns, token)

    # -- resolution ----------------------------------------------------------
    def resolve(self, machine: str, path: str, ns: str = DEFAULT_NAMESPACE) -> GnsRecord:
        """Find the best record for an OPEN of ``path`` on ``machine``.

        Most-specific match wins (exact machine beats glob, then exact
        path); among equals the most recently added wins, so overrides
        can be layered.  With no match at all, the FM's contract is
        plain local IO, expressed as a synthesized LOCAL record.

        The candidate scan runs over one atomic snapshot of the record
        set, so a concurrent ``txn`` that replaces a record (remove +
        add in one batch) can never leave a resolver observing the gap
        between the two halves.
        """
        entries = self.store.entries(ns)
        candidates = [rec for _, rec in entries if rec.matches(machine, path)]
        if not candidates:
            return GnsRecord(machine=machine, path=path, mode=IOMode.LOCAL)
        best_idx = max(
            range(len(candidates)),
            key=lambda i: (candidates[i].specificity(), i),
        )
        return candidates[best_idx]

    # -- direct-connection matching ---------------------------------------------
    def announce(self, stream: str, role: str, machine: str, placement: str = "reader") -> StreamBinding:
        return self.matcher.announce(stream, role, machine, placement)

    def pin_stream(self, stream: str, host: str, port: int, placement: str = "reader") -> StreamBinding:
        return self.matcher.pin(stream, host, port, placement)


class GnsServer:
    """TCP front end for a :class:`NameService` (see module docstring)."""

    def __init__(
        self,
        service: Optional[NameService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service if service is not None else NameService()
        self._signals: Dict[str, LoopSignal] = {}
        self._signals_lock = threading.Lock()
        self.service.store.add_listener(self._on_change)
        self._rpc = self._new_rpc(host, port)
        self._register_ops(self._rpc)

    def _new_rpc(self, host: str, port: int) -> RpcServer:
        return RpcServer(host, port)

    def _register_ops(self, rpc: RpcServer) -> None:
        rpc.register("gns.resolve", self._op_resolve)
        rpc.register("gns.add", self._op_add)
        rpc.register("gns.remove", self._op_remove)
        rpc.register("gns.list", self._op_list)
        rpc.register("gns.announce", self._op_announce)
        rpc.register("gns.pin", self._op_pin)
        rpc.register("gns.txn", self._op_txn)
        rpc.register_async("gns.watch", self._op_watch)

    @property
    def address(self) -> Tuple[str, int]:
        return self._rpc.address

    def start(self) -> "GnsServer":
        self._rpc.start()
        return self

    def stop(self) -> None:
        self._rpc.stop()

    def disconnect_all(self) -> None:
        self._rpc.disconnect_all()

    def restart(self) -> "GnsServer":
        """Crash-and-rebind on the same port; the store survives.

        Parked watch handlers die with their connections; clients
        redial (``gns.watch`` is idempotent) and resume from their last
        seen revision, so no change event is lost or duplicated.
        """
        host, port = self.address
        self._rpc.stop()
        self._rpc.disconnect_all()
        self._rpc = self._new_rpc(host, port)
        self._register_ops(self._rpc)
        self._rpc.start()
        return self

    def __enter__(self) -> "GnsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- auth ---------------------------------------------------------------
    def _scope(self, header: Dict[str, Any]) -> str:
        """Namespace + token check for one request; returns the namespace."""
        ns = str(header.get("ns", DEFAULT_NAMESPACE))
        try:
            self.service.check_token(ns, header.get("auth"))
        except GnsAuthError as exc:
            raise RpcError("auth", str(exc)) from exc
        return ns

    def _on_change(self, ns: str, _revision: int) -> None:
        with self._signals_lock:
            signal = self._signals.get(ns)
        if signal is not None:
            signal.notify()

    def _signal(self, ns: str) -> LoopSignal:
        with self._signals_lock:
            signal = self._signals.get(ns)
            if signal is None:
                signal = self._signals[ns] = LoopSignal(asyncio.get_running_loop())
            return signal

    # -- handlers -----------------------------------------------------------
    def _op_resolve(self, header: Dict[str, Any], _payload: bytes):
        ns = self._scope(header)
        record = self.service.resolve(header["machine"], header["path"], ns=ns)
        return {"record": record.to_dict()}, b""

    def _op_add(self, header: Dict[str, Any], _payload: bytes):
        ns = self._scope(header)
        try:
            record = GnsRecord.from_dict(header["record"])
        except (TypeError, ValueError) as exc:
            raise RpcError("bad-record", str(exc)) from exc
        self.service.add(record, ns=ns)
        return {}, b""

    def _op_remove(self, header: Dict[str, Any], _payload: bytes):
        ns = self._scope(header)
        removed = self.service.remove(header["machine"], header["path"], ns=ns)
        return {"removed": removed}, b""

    def _op_list(self, header: Dict[str, Any], _payload: bytes):
        ns = self._scope(header)
        return {"records": [r.to_dict() for r in self.service.records(ns)]}, b""

    def _op_txn(self, header: Dict[str, Any], _payload: bytes):
        ns = self._scope(header)
        try:
            revision = self.service.txn(
                list(header.get("ops") or []), ns=ns, token=header.get("token")
            )
        except (TypeError, ValueError, KeyError) as exc:
            raise RpcError("bad-txn", str(exc)) from exc
        return {"revision": revision}, b""

    async def _op_watch(self, header: Dict[str, Any], _payload: bytes):
        """Long-poll the change log; native-async so parks are free.

        ``from_revision < 0`` is a revision probe: it answers
        immediately with the current revision and no events.  Otherwise
        the handler returns as soon as changes past ``from_revision``
        exist (possibly a compaction reset), or an empty batch once the
        poll budget lapses — the client then re-polls, which doubles as
        its liveness check.
        """
        ns = self._scope(header)
        from_revision = int(header.get("from_revision", -1))
        budget = min(float(header.get("timeout", 10.0)), WATCH_BUDGET_CAP)
        if from_revision < 0:
            return {
                "events": [],
                "revision": self.service.revision(ns),
                "reset": False,
            }, b""
        signal = self._signal(ns)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, budget)
        while True:
            signal.clear()
            events, revision, reset = self.service.changes_since(ns, from_revision)
            if events or reset:
                return {"events": events, "revision": revision, "reset": reset}, b""
            remaining = deadline - loop.time()
            if remaining <= 0:
                return {"events": [], "revision": revision, "reset": False}, b""
            await signal.wait(remaining)

    def _op_announce(self, header: Dict[str, Any], _payload: bytes):
        binding = self.service.announce(
            header["stream"],
            header["role"],
            header["machine"],
            header.get("placement", "reader"),
        )
        return {
            "host": binding.host,
            "port": binding.port,
            "located": binding.located,
            "placement": binding.placement,
        }, b""

    def _op_pin(self, header: Dict[str, Any], _payload: bytes):
        binding = self.service.pin_stream(
            header["stream"],
            header["host"],
            int(header["port"]),
            header.get("placement", "reader"),
        )
        return {"host": binding.host, "port": binding.port, "located": binding.located}, b""
