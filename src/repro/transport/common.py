"""What the sync client and the async engine share: a leaf module.

RPC-level exceptions, the RPC metric families, the retry policy, the
idempotency table and the verdict on a failed attempt.  Imports only
:mod:`~repro.transport.wire` (itself a leaf), so
:mod:`~repro.transport.tcp` and :mod:`~repro.transport.aio` both import
it without a cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet

from .. import ioutil, obs
from .wire import IntegrityError, WireVersionError

__all__ = [
    "RpcError",
    "PoolTimeout",
    "ClientClosedError",
    "RetryPolicy",
    "IDEMPOTENT_OPS",
    "DEFAULT_RPC_TIMEOUT",
    "DEFAULT_RPC_RETRIES",
    "count_client_failure",
]

_CLIENT_CALLS = obs.counter(
    "rpc_client_calls_total", "RPC round trips issued by clients", labelnames=("op",)
)
_CLIENT_ERRORS = obs.counter(
    "rpc_client_errors_total",
    "Client RPC failures by error kind",
    labelnames=("op", "kind"),
)
_SERVER_REQUESTS = obs.counter(
    "rpc_server_requests_total",
    "Requests dispatched by servers, by op and outcome",
    labelnames=("op", "status"),
)
_CLIENT_RETRIES = obs.counter(
    "rpc_retries_total",
    "Connection-level RPC failures recovered by redial + retry",
    labelnames=("op",),
)
_BAD_FRAMES = obs.counter(
    "rpc_bad_frames_total",
    "Frames refused at the preamble: the peer speaks another wire version",
    labelnames=("side", "reason"),
)

#: Default RPC timeout (seconds); callers that need another pass ``timeout=``.
DEFAULT_RPC_TIMEOUT = 30.0

#: Connection-level retries after the first attempt (idempotent ops only).
DEFAULT_RPC_RETRIES = 3

#: Ops that are safe to replay after a connection-level failure because
#: re-running them cannot corrupt state: reads, probes, registrations
#: that early-return when already applied, and interval-set writes where
#: the same (offset, bytes) lands in the same place.  ``gb.write`` /
#: ``gb.write_multi`` are deliberately absent — they only become
#: retryable when the caller attaches a dedupe token and passes
#: ``retryable=True`` (see GridBufferClient).
IDEMPOTENT_OPS: FrozenSet[str] = frozenset(
    {
        # Ops plane (read-only probes)
        "_obs.health",
        "_obs.metrics",
        "_obs.spans_tail",
        # GridFTP-like file server
        "size",
        "exists",
        "get_block",
        "put_block",
        "checksum",
        "pull_from",
        # Grid Buffer
        "gb.create",
        "gb.register_reader",
        "gb.read_multi",
        "gb.consume_multi",
        "gb.close_writer",
        "gb.stats",
        "gb.abort",
        "gb.resume",
        "gb.high_water",
        # GNS
        "gns.resolve",
        "gns.list",
        "gns.remove",
        # A watch is a read of the change log at ``from_revision``;
        # replaying it after a redial returns the same (or a later)
        # batch, so clients resume mid-watch across server death.
        # ``gns.txn`` is deliberately absent — it only becomes
        # retryable when the caller attaches a dedupe token (see
        # GnsClient.txn).
        "gns.watch",
    }
)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for connection-level RPC retries.

    ``retries`` is the number of *re*-attempts after the first try.
    Delay before the Nth retry is ``base * multiplier**(N-1)`` capped at
    ``max_delay``, stretched by up to ``jitter`` fraction (drawn from
    the client's RNG, so a seeded client backs off deterministically).
    """

    retries: int = DEFAULT_RPC_RETRIES
    base: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25

    def backoff(self, attempt: int, rng: random.Random) -> float:
        delay = min(self.max_delay, self.base * self.multiplier ** (attempt - 1))
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


def count_client_failure(op: str, exc: BaseException) -> bool:
    """Count one connection-level client failure; False if a retry cannot help.

    The one place both clients decide what a failed attempt means: a
    :class:`WireVersionError` is the peer speaking another wire —
    permanent, so never retried — while an :class:`IntegrityError` is a
    healthy peer whose frame was corrupted in flight and, like any other
    ``OSError``, worth re-requesting.
    """
    _CLIENT_ERRORS.labels(op=op, kind=type(exc).__name__).inc()
    if isinstance(exc, WireVersionError):
        _BAD_FRAMES.labels(side="client", reason=exc.reason).inc()
        return False
    if isinstance(exc, IntegrityError):
        ioutil.count_integrity_error("rpc.client", "retry")
    return True


class PoolTimeout(TimeoutError):
    """Checkout timed out waiting for a free pooled connection."""


class ClientClosedError(ConnectionError):
    """The client was close()d while this call was connecting."""


class RpcError(RuntimeError):
    """Remote handler signalled an error."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
