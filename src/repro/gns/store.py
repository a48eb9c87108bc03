"""Versioned, persistent record store behind the Name Service.

The paper's headline claim — a workflow is re-wired *only* by editing
GNS entries — only works at runtime if those edits are observable.
:class:`RecordStore` turns the flat record list into a control-plane
database:

* every namespace carries a **monotonic revision**; each mutation is a
  row in an **append-only change log** (SQLite, in-memory by default,
  file-backed when given a path);
* mutations are **atomic transactions** (:meth:`txn`): a batch of
  add/remove operations commits with consecutive revisions or not at
  all, closing the classic remove-then-add window where a resolver
  could observe *neither* record;
* watchers replay the log from any revision (:meth:`changes_since`),
  block for new changes (:meth:`wait_changes`), and survive
  **compaction** (:meth:`compact`) via a reset snapshot;
* per-namespace **bearer tokens** (:meth:`set_token` /
  :meth:`check_token`) isolate tenants sharing one deployment;
* transactions carry an optional **dedupe token** so an RPC retry that
  replays an already-committed txn returns the original revision
  instead of double-applying it (same pattern as ``gb.write``).

Thread model: one SQLite connection guarded by a condition variable;
the materialized per-namespace record lists make reads (resolve /
records / changes_since) cheap snapshots.  Change listeners registered
with :meth:`add_listener` fire after commit, outside the lock — the
GNS server uses one to wake long-polls parked on the asyncio loop.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .records import GnsRecord

__all__ = [
    "DEFAULT_NAMESPACE",
    "GnsAuthError",
    "RecordStore",
    "normalize_txn_ops",
]

DEFAULT_NAMESPACE = "default"

#: Change events and txn operations use these action names on the wire.
_ACTION_ADD = "add"
_ACTION_REMOVE = "remove"

#: Bound on the remembered txn dedupe tokens (per store).
_DEDUPE_CAP = 4096

ChangeEvent = Dict[str, Any]
ChangeListener = Callable[[str, int], None]


class GnsAuthError(Exception):
    """A namespace token check failed (missing or wrong bearer token)."""


def normalize_txn_ops(ops: Iterable[Any]) -> List[Tuple[str, Any, str, str]]:
    """Normalize txn operations to ``(action, record, machine, path)``.

    Accepts the ergonomic tuple forms ``("add", record)`` and
    ``("remove", machine, path)`` as well as the wire dict forms
    ``{"action": "add", "record": {...}}`` / ``{"action": "remove",
    "machine": m, "path": p}``.  Raises ``ValueError`` on anything
    else, *before* any state is touched — a malformed txn is rejected
    whole.
    """
    out: List[Tuple[str, Any, str, str]] = []
    for op in ops:
        if isinstance(op, dict):
            action = op.get("action")
            if action == _ACTION_ADD:
                rec = op.get("record")
                record = rec if isinstance(rec, GnsRecord) else GnsRecord.from_dict(rec)
                out.append((_ACTION_ADD, record, record.machine, record.path))
                continue
            if action == _ACTION_REMOVE:
                out.append((_ACTION_REMOVE, None, str(op["machine"]), str(op["path"])))
                continue
            raise ValueError(f"unknown txn action: {action!r}")
        if isinstance(op, (tuple, list)):
            if len(op) == 2 and op[0] == _ACTION_ADD:
                rec = op[1]
                record = rec if isinstance(rec, GnsRecord) else GnsRecord.from_dict(rec)
                out.append((_ACTION_ADD, record, record.machine, record.path))
                continue
            if len(op) == 3 and op[0] == _ACTION_REMOVE:
                out.append((_ACTION_REMOVE, None, str(op[1]), str(op[2])))
                continue
        raise ValueError(f"malformed txn op: {op!r}")
    return out


class RecordStore:
    """SQLite-backed versioned GNS record store (see module docstring)."""

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self._con = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # ns -> ordered [(revision_added, record)]; insertion order is
        # load-bearing (ties in specificity resolve to the later add).
        self._current: Dict[str, List[Tuple[int, GnsRecord]]] = {}
        self._revision: Dict[str, int] = {}
        self._compacted: Dict[str, int] = {}
        self._tokens: Dict[str, str] = {}
        self._applied: "OrderedDict[str, int]" = OrderedDict()
        self._listeners: List[ChangeListener] = []
        with self._lock:
            self._init_schema()
            self._load()

    # -- schema / load ------------------------------------------------------
    def _init_schema(self) -> None:
        cur = self._con.cursor()
        cur.executescript(
            """
            CREATE TABLE IF NOT EXISTS gns_meta (
                ns TEXT PRIMARY KEY,
                revision INTEGER NOT NULL,
                compacted INTEGER NOT NULL
            );
            CREATE TABLE IF NOT EXISTS gns_changes (
                ns TEXT NOT NULL,
                revision INTEGER NOT NULL,
                action TEXT NOT NULL,
                machine TEXT NOT NULL,
                path TEXT NOT NULL,
                record TEXT,
                PRIMARY KEY (ns, revision)
            );
            CREATE TABLE IF NOT EXISTS gns_snapshot (
                ns TEXT NOT NULL,
                seq INTEGER NOT NULL,
                revision INTEGER NOT NULL,
                record TEXT NOT NULL,
                PRIMARY KEY (ns, seq)
            );
            CREATE TABLE IF NOT EXISTS gns_tokens (
                ns TEXT PRIMARY KEY,
                token TEXT NOT NULL
            );
            """
        )
        self._con.commit()

    def _load(self) -> None:
        """Rebuild the materialized state: snapshot + change-log replay."""
        cur = self._con.cursor()
        for ns, revision, compacted in cur.execute(
            "SELECT ns, revision, compacted FROM gns_meta"
        ).fetchall():
            self._revision[ns] = int(revision)
            self._compacted[ns] = int(compacted)
            entries: List[Tuple[int, GnsRecord]] = [
                (int(rev), GnsRecord.from_dict(json.loads(blob)))
                for rev, blob in cur.execute(
                    "SELECT revision, record FROM gns_snapshot WHERE ns=? ORDER BY seq",
                    (ns,),
                ).fetchall()
            ]
            for rev, action, machine, path, blob in cur.execute(
                "SELECT revision, action, machine, path, record FROM gns_changes"
                " WHERE ns=? ORDER BY revision",
                (ns,),
            ).fetchall():
                if action == _ACTION_ADD:
                    entries.append((int(rev), GnsRecord.from_dict(json.loads(blob))))
                else:
                    entries = [
                        e for e in entries if not (e[1].machine == machine and e[1].path == path)
                    ]
            self._current[ns] = entries
        for ns, token in cur.execute("SELECT ns, token FROM gns_tokens").fetchall():
            self._tokens[ns] = token

    # -- tenancy ------------------------------------------------------------
    def set_token(self, ns: str, token: Optional[str]) -> None:
        """Set (or clear, with ``None``) the bearer token for ``ns``."""
        with self._lock:
            cur = self._con.cursor()
            if token is None:
                self._tokens.pop(ns, None)
                cur.execute("DELETE FROM gns_tokens WHERE ns=?", (ns,))
            else:
                self._tokens[ns] = token
                cur.execute(
                    "INSERT INTO gns_tokens (ns, token) VALUES (?, ?)"
                    " ON CONFLICT(ns) DO UPDATE SET token=excluded.token",
                    (ns, token),
                )
            self._con.commit()

    def check_token(self, ns: str, token: Optional[str]) -> None:
        """Raise :class:`GnsAuthError` unless ``token`` opens ``ns``.

        Namespaces without a configured token are open: a default
        client sends no ``auth`` field, lands in the default namespace,
        and works as long as that namespace is not tokened.
        """
        with self._lock:
            expected = self._tokens.get(ns)
        if expected is not None and token != expected:
            raise GnsAuthError(f"bad or missing token for namespace {ns!r}")

    # -- listeners ----------------------------------------------------------
    def add_listener(self, fn: ChangeListener) -> None:
        with self._lock:
            self._listeners.append(fn)

    def remove_listener(self, fn: ChangeListener) -> None:
        with self._lock:
            try:
                self._listeners.remove(fn)
            except ValueError:
                pass

    # -- reads --------------------------------------------------------------
    def namespaces(self) -> List[str]:
        with self._lock:
            return sorted(set(self._current) | set(self._revision))

    def revision(self, ns: str = DEFAULT_NAMESPACE) -> int:
        with self._lock:
            return self._revision.get(ns, 0)

    def compacted(self, ns: str = DEFAULT_NAMESPACE) -> int:
        with self._lock:
            return self._compacted.get(ns, 0)

    def records(self, ns: str = DEFAULT_NAMESPACE) -> List[GnsRecord]:
        """Current record set, in insertion order (an atomic snapshot)."""
        with self._lock:
            return [rec for _, rec in self._current.get(ns, ())]

    def entries(self, ns: str = DEFAULT_NAMESPACE) -> List[Tuple[int, GnsRecord]]:
        """``(revision_added, record)`` pairs — one consistent snapshot."""
        with self._lock:
            return list(self._current.get(ns, ()))

    def changes_since(
        self, ns: str, from_revision: int
    ) -> Tuple[List[ChangeEvent], int, bool]:
        """Change events after ``from_revision``: ``(events, revision, reset)``.

        If the log before ``from_revision`` has been compacted away the
        caller cannot be replayed incrementally; it gets the full
        current record set as synthetic ``add`` events with
        ``reset=True`` and must replace its view wholesale.
        """
        with self._lock:
            return self._changes_since_locked(ns, from_revision)

    def _changes_since_locked(
        self, ns: str, from_revision: int
    ) -> Tuple[List[ChangeEvent], int, bool]:
        revision = self._revision.get(ns, 0)
        compacted = self._compacted.get(ns, 0)
        if from_revision < compacted:
            events = [
                {"revision": rev, "action": _ACTION_ADD, "record": rec.to_dict()}
                for rev, rec in self._current.get(ns, ())
            ]
            return events, revision, True
        if from_revision >= revision:
            return [], revision, False
        events = []
        for rev, action, machine, path, blob in self._con.execute(
            "SELECT revision, action, machine, path, record FROM gns_changes"
            " WHERE ns=? AND revision>? ORDER BY revision",
            (ns, from_revision),
        ).fetchall():
            event: ChangeEvent = {"revision": int(rev), "action": action}
            if action == _ACTION_ADD:
                event["record"] = json.loads(blob)
            else:
                event["machine"] = machine
                event["path"] = path
            events.append(event)
        return events, revision, False

    def wait_changes(
        self, ns: str, from_revision: int, timeout: float
    ) -> Tuple[List[ChangeEvent], int, bool]:
        """Blocking :meth:`changes_since`: parks until a change or timeout."""
        deadline = time.monotonic() + max(0.0, timeout)
        with self._cond:
            while True:
                events, revision, reset = self._changes_since_locked(ns, from_revision)
                if events or reset:
                    return events, revision, reset
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], revision, False
                self._cond.wait(remaining)

    # -- mutations ----------------------------------------------------------
    def txn(
        self,
        ops: Iterable[Any],
        ns: str = DEFAULT_NAMESPACE,
        token: Optional[str] = None,
    ) -> int:
        """Apply a batch of operations atomically; return the new revision.

        ``token`` is an optional client-chosen dedupe id: replaying a
        committed txn (an RPC retry after the reply was lost) returns
        the original revision without re-applying the operations.
        An empty batch is a no-op returning the current revision.
        """
        parsed = normalize_txn_ops(ops)
        with self._cond:
            if token:
                hit = self._applied.get(token)
                if hit is not None:
                    self._applied.move_to_end(token)
                    return hit
            revision = self._revision.get(ns, 0)
            staged = list(self._current.get(ns, ()))
            rows = []
            for action, record, machine, path in parsed:
                revision += 1
                if action == _ACTION_ADD:
                    staged.append((revision, record))
                    rows.append(
                        (ns, revision, action, machine, path, json.dumps(record.to_dict()))
                    )
                else:
                    staged = [
                        e for e in staged if not (e[1].machine == machine and e[1].path == path)
                    ]
                    rows.append((ns, revision, action, machine, path, None))
            if rows:
                cur = self._con.cursor()
                try:
                    cur.executemany(
                        "INSERT INTO gns_changes (ns, revision, action, machine, path, record)"
                        " VALUES (?, ?, ?, ?, ?, ?)",
                        rows,
                    )
                    cur.execute(
                        "INSERT INTO gns_meta (ns, revision, compacted) VALUES (?, ?, ?)"
                        " ON CONFLICT(ns) DO UPDATE SET revision=excluded.revision",
                        (ns, revision, self._compacted.get(ns, 0)),
                    )
                    self._con.commit()
                except sqlite3.Error:
                    self._con.rollback()
                    raise
                self._current[ns] = staged
                self._revision[ns] = revision
            if token:
                self._applied[token] = revision
                while len(self._applied) > _DEDUPE_CAP:
                    self._applied.popitem(last=False)
            self._cond.notify_all()
            listeners = list(self._listeners)
        if rows:
            for fn in listeners:
                fn(ns, revision)
        return revision

    def compact(self, ns: str = DEFAULT_NAMESPACE) -> int:
        """Fold the change log into a snapshot; return the compaction floor.

        After compaction, watchers at or past the floor replay nothing
        (they are current); watchers behind it receive a reset snapshot
        on their next poll.
        """
        with self._cond:
            revision = self._revision.get(ns, 0)
            entries = self._current.get(ns, ())
            cur = self._con.cursor()
            try:
                cur.execute("DELETE FROM gns_changes WHERE ns=? AND revision<=?", (ns, revision))
                cur.execute("DELETE FROM gns_snapshot WHERE ns=?", (ns,))
                cur.executemany(
                    "INSERT INTO gns_snapshot (ns, seq, revision, record) VALUES (?, ?, ?, ?)",
                    [
                        (ns, seq, rev, json.dumps(rec.to_dict()))
                        for seq, (rev, rec) in enumerate(entries)
                    ],
                )
                cur.execute(
                    "INSERT INTO gns_meta (ns, revision, compacted) VALUES (?, ?, ?)"
                    " ON CONFLICT(ns) DO UPDATE SET compacted=excluded.compacted",
                    (ns, revision, revision),
                )
                self._con.commit()
            except sqlite3.Error:
                self._con.rollback()
                raise
            self._compacted[ns] = revision
            return revision

    def close(self) -> None:
        with self._lock:
            self._con.close()
