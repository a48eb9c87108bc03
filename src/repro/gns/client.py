"""GNS client used by each File Multiplexer instance.

A thin RPC mirror of :class:`~repro.gns.server.NameService`; also
usable purely in-process via :class:`LocalGnsClient` when the workflow
runs inside one Python process (tests, examples, the simulator).

Both clients carry an optional ``namespace``/``token`` identity: every
call is scoped to that namespace and authenticated with its bearer
token.  Client and server ship as one wire version, so every op here
is served; a server lacking one answers ``RpcError("unknown-op")``,
which propagates to the caller like any other remote error.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..transport.tcp import RpcClient
from .records import GnsRecord
from .server import NameService
from .store import DEFAULT_NAMESPACE

__all__ = ["GnsClient", "LocalGnsClient", "WatchBatch"]


@dataclass
class WatchBatch:
    """One ``gns.watch`` reply: change events up to ``revision``.

    ``reset`` means the server compacted past the watcher's position:
    ``events`` is a full snapshot (synthetic adds) and any local view
    must be replaced, not patched.
    """

    events: List[Dict[str, Any]] = field(default_factory=list)
    revision: int = 0
    reset: bool = False


class GnsClient:
    """Remote GNS access over TCP."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        namespace: str = DEFAULT_NAMESPACE,
        token: Optional[str] = None,
    ):
        self._rpc = RpcClient(host, port, timeout=timeout)
        self.namespace = namespace
        self._token = token

    def _hdr(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        # Only stamp the identity fields when they deviate from the
        # defaults, which the server assumes for a frame without them.
        if self.namespace != DEFAULT_NAMESPACE:
            fields["ns"] = self.namespace
        if self._token is not None:
            fields["auth"] = self._token
        return fields

    def resolve(self, machine: str, path: str) -> GnsRecord:
        reply, _ = self._rpc.call("gns.resolve", self._hdr({"machine": machine, "path": path}))
        return GnsRecord.from_dict(reply["record"])

    def add(self, record: GnsRecord) -> None:
        self._rpc.call("gns.add", self._hdr({"record": record.to_dict()}))

    def remove(self, machine: str, path: str) -> int:
        reply, _ = self._rpc.call("gns.remove", self._hdr({"machine": machine, "path": path}))
        return int(reply["removed"])

    def list_records(self) -> list[GnsRecord]:
        reply, _ = self._rpc.call("gns.list", self._hdr({}))
        return [GnsRecord.from_dict(d) for d in reply["records"]]

    # -- control plane -----------------------------------------------------
    def txn(self, ops: List[Any], token: Optional[str] = None) -> int:
        """Atomically apply add/remove operations; return the new revision.

        Safe to retry: each txn carries a dedupe token (generated here
        unless supplied), so a redial that replays an already-committed
        batch gets the original revision back instead of applying it
        twice — the exactly-once discipline ``gb.write`` established.
        """
        wire_ops = []
        for op in ops:
            if isinstance(op, dict):
                wire_ops.append(op)
            elif len(op) == 2 and op[0] == "add":
                rec = op[1]
                wire_ops.append(
                    {"action": "add", "record": rec.to_dict() if isinstance(rec, GnsRecord) else rec}
                )
            elif len(op) == 3 and op[0] == "remove":
                wire_ops.append({"action": "remove", "machine": op[1], "path": op[2]})
            else:
                raise ValueError(f"malformed txn op: {op!r}")
        hdr = self._hdr({"ops": wire_ops, "token": token or uuid.uuid4().hex})
        reply, _ = self._rpc.call("gns.txn", hdr, retryable=True)
        return int(reply["revision"])

    def watch(self, from_revision: int, timeout: float = 10.0) -> WatchBatch:
        """Long-poll for changes after ``from_revision``.

        Blocks server-side until changes exist or ``timeout`` lapses
        (empty batch → poll again).  The op is idempotent, so the
        pooled client redials and replays it transparently when the
        server dies mid-watch; resuming from the last seen revision
        means no event is missed or duplicated across the crash.
        """
        hdr = self._hdr({"from_revision": int(from_revision), "timeout": float(timeout)})
        reply, _ = self._rpc.call("gns.watch", hdr)
        return WatchBatch(
            events=list(reply.get("events") or []),
            revision=int(reply["revision"]),
            reset=bool(reply.get("reset", False)),
        )

    def revision(self) -> int:
        """Current revision of this client's namespace (a watch probe)."""
        return self.watch(from_revision=-1, timeout=0.0).revision

    def announce(
        self,
        stream: str,
        role: str,
        machine: str,
        placement: str = "reader",
        wait: bool = True,
        poll_interval: float = 0.02,
        timeout: float = 30.0,
    ) -> Tuple[str, int]:
        """Announce an endpoint; optionally block until the buffer is placed.

        A writer may open before any reader exists (or vice versa); with
        ``wait=True`` the call polls until the matcher can name a buffer
        location, which mirrors the FM blocking the legacy OPEN call.
        """
        deadline = time.monotonic() + timeout
        while True:
            reply, _ = self._rpc.call(
                "gns.announce",
                {"stream": stream, "role": role, "machine": machine, "placement": placement},
            )
            if reply["located"] or not wait:
                return reply["host"], int(reply["port"])
            if time.monotonic() > deadline:
                raise TimeoutError(f"stream {stream!r} never acquired a buffer location")
            time.sleep(poll_interval)

    def pin_stream(self, stream: str, host: str, port: int, placement: str = "reader") -> None:
        self._rpc.call(
            "gns.pin", {"stream": stream, "host": host, "port": port, "placement": placement}
        )

    def close(self) -> None:
        self._rpc.close()

    def __enter__(self) -> "GnsClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LocalGnsClient:
    """Same interface, directly over an in-process :class:`NameService`."""

    def __init__(
        self,
        service: NameService,
        namespace: str = DEFAULT_NAMESPACE,
        token: Optional[str] = None,
    ):
        self.service = service
        self.namespace = namespace
        self._token = token

    def _check(self) -> None:
        self.service.check_token(self.namespace, self._token)

    def resolve(self, machine: str, path: str) -> GnsRecord:
        self._check()
        return self.service.resolve(machine, path, ns=self.namespace)

    def add(self, record: GnsRecord) -> None:
        self._check()
        self.service.add(record, ns=self.namespace)

    def remove(self, machine: str, path: str) -> int:
        self._check()
        return self.service.remove(machine, path, ns=self.namespace)

    def list_records(self) -> list[GnsRecord]:
        self._check()
        return self.service.records(ns=self.namespace)

    # -- control plane -----------------------------------------------------
    def txn(self, ops: List[Any], token: Optional[str] = None) -> int:
        self._check()
        return self.service.txn(ops, ns=self.namespace, token=token)

    def watch(self, from_revision: int, timeout: float = 10.0) -> WatchBatch:
        self._check()
        if from_revision < 0:
            return WatchBatch(revision=self.service.revision(ns=self.namespace))
        events, revision, reset = self.service.wait_changes(
            self.namespace, int(from_revision), timeout
        )
        return WatchBatch(events=events, revision=revision, reset=reset)

    def revision(self) -> int:
        self._check()
        return self.service.revision(ns=self.namespace)

    def announce(
        self,
        stream: str,
        role: str,
        machine: str,
        placement: str = "reader",
        wait: bool = True,
        poll_interval: float = 0.02,
        timeout: float = 30.0,
    ) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while True:
            binding = self.service.announce(stream, role, machine, placement)
            if binding.located or not wait:
                return binding.host, binding.port
            if time.monotonic() > deadline:
                raise TimeoutError(f"stream {stream!r} never acquired a buffer location")
            time.sleep(poll_interval)

    def pin_stream(self, stream: str, host: str, port: int, placement: str = "reader") -> None:
        self.service.pin_stream(stream, host, port, placement)

    def close(self) -> None:  # symmetry with GnsClient
        pass
