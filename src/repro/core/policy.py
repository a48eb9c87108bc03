"""Remote-access policy heuristics.

Section 3.1: "The choice of mode should be based on information about
the access patterns and the file size.  For example, if an application
reads a small fraction of the remote file, it may not warrant copying
it to the local file system.  Further, if the file is very large, it
may not be possible to copy it... On the other hand, if a file is small
and the latency to the remote system is high, then it is more efficient
to copy the file."

:class:`AccessPolicy` turns those sentences into a cost model: copying
costs one bulk transfer of the whole file; proxy access costs one
round trip per block over the fraction actually read.  The cheaper
predicted option wins, with a hard cap above which copying is
impossible (no local space / too large).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs

__all__ = ["AccessEstimate", "AccessPolicy", "RemoteDecision", "observed_estimate"]

_DECISIONS = obs.counter(
    "fm_policy_decisions_total",
    "Copy-vs-proxy verdicts by outcome and deciding rule",
    labelnames=("mode", "reason"),
)


@dataclass(frozen=True)
class AccessEstimate:
    """What the FM knows (or guesses) about an upcoming open.

    ``read_fraction`` is the expected fraction of the file the
    application will touch; 1.0 (read everything) is the conservative
    default for sequential legacy codes.
    """

    file_size: int
    bandwidth: float          # bytes/s to the remote host
    latency: float            # one-way seconds to the remote host
    read_fraction: float = 1.0
    block_size: int = 64 * 1024

    def __post_init__(self) -> None:
        if self.file_size < 0:
            raise ValueError("file_size must be >= 0")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")


@dataclass(frozen=True)
class RemoteDecision:
    """The policy's verdict plus its predicted costs (for logging)."""

    mode: str                 # "copy" | "proxy"
    copy_cost: float
    proxy_cost: float
    reason: str


def observed_estimate(
    monitor,
    peer: str,
    file_size: int,
    read_fraction: float = 1.0,
    block_size: int = 64 * 1024,
    default_bandwidth: float = 10 * 1024 * 1024,
    default_latency: float = 0.005,
) -> AccessEstimate:
    """Build an :class:`AccessEstimate` from *measured* link numbers.

    ``monitor`` is a :class:`repro.core.trace.TransferMonitor` (duck
    typed: anything with ``bandwidth(peer)`` / ``latency(peer)``).
    Before any transfer has been observed the defaults stand in, so the
    estimate degrades gracefully to a configured guess — the paper's
    NWS plays the same role with forecasts.
    """
    bandwidth = latency = None
    if monitor is not None:
        bandwidth = monitor.bandwidth(peer)
        latency = monitor.latency(peer)
    return AccessEstimate(
        file_size=file_size,
        bandwidth=bandwidth if bandwidth else default_bandwidth,
        latency=latency if latency is not None else default_latency,
        read_fraction=read_fraction,
        block_size=block_size,
    )


class AccessPolicy:
    """Cost-model based copy-vs-proxy decision.

    Parameters
    ----------
    max_copy_bytes:
        Files larger than this are never copied ("if the file is very
        large, it may not be possible to copy it").
    copy_setup_rtts:
        Round trips charged to start a bulk (GridFTP) copy: one, its head
        block, whose reply also carries the extent
        (``tests/test_open_rpc_budget.py``).
    """

    def __init__(self, max_copy_bytes: int = 2 * 1024**3, copy_setup_rtts: float = 1.0):
        if max_copy_bytes < 0:
            raise ValueError("max_copy_bytes must be >= 0")
        self.max_copy_bytes = max_copy_bytes
        self.copy_setup_rtts = copy_setup_rtts

    def copy_cost(self, est: AccessEstimate) -> float:
        """Predicted seconds to copy the whole file locally."""
        rtt = 2.0 * est.latency
        return self.copy_setup_rtts * rtt + est.file_size / est.bandwidth

    def proxy_cost(self, est: AccessEstimate) -> float:
        """Predicted seconds to read ``read_fraction`` via block RPCs."""
        touched = est.file_size * est.read_fraction
        nblocks = max(1, int(-(-touched // est.block_size))) if touched > 0 else 0
        rtt = 2.0 * est.latency
        return nblocks * rtt + touched / est.bandwidth

    def decide_observed(
        self,
        monitor,
        peer: str,
        file_size: int,
        read_fraction: float = 1.0,
        block_size: int = 64 * 1024,
    ) -> RemoteDecision:
        """:meth:`decide` fed by measured link numbers for ``peer``.

        This is the §3.1 loop closed: the FM's own transfer monitor
        (rather than static configuration) supplies bandwidth/latency.
        """
        est = observed_estimate(
            monitor, peer, file_size, read_fraction=read_fraction, block_size=block_size
        )
        return self.decide(est)

    def decide(self, est: AccessEstimate) -> RemoteDecision:
        c_copy = self.copy_cost(est)
        c_proxy = self.proxy_cost(est)
        if est.file_size > self.max_copy_bytes:
            decision = RemoteDecision("proxy", c_copy, c_proxy, "file exceeds max_copy_bytes")
            _DECISIONS.labels(mode=decision.mode, reason="size_cap").inc()
        elif c_copy <= c_proxy:
            decision = RemoteDecision("copy", c_copy, c_proxy, "bulk copy predicted cheaper")
            _DECISIONS.labels(mode=decision.mode, reason="copy_cheaper").inc()
        else:
            decision = RemoteDecision(
                "proxy", c_copy, c_proxy, "partial proxy access predicted cheaper"
            )
            _DECISIONS.labels(mode=decision.mode, reason="proxy_cheaper").inc()
        obs.event(
            "policy.decide",
            mode=decision.mode,
            copy_cost=decision.copy_cost,
            proxy_cost=decision.proxy_cost,
            reason=decision.reason,
        )
        return decision

    def crossover_fraction(self, est: AccessEstimate, tol: float = 1e-4) -> float:
        """The read fraction at which copy and proxy costs break even.

        Useful for the ablation bench: below this fraction, proxy
        access wins; above it, copying wins.  Returns 1.0 if copying
        never wins, 0.0 if it always does.
        """
        lo, hi = 0.0, 1.0

        def proxy_minus_copy(fraction: float) -> float:
            e = AccessEstimate(
                file_size=est.file_size,
                bandwidth=est.bandwidth,
                latency=est.latency,
                read_fraction=fraction,
                block_size=est.block_size,
            )
            return self.proxy_cost(e) - self.copy_cost(e)

        if proxy_minus_copy(1.0) <= 0:
            return 1.0
        if proxy_minus_copy(0.0) >= 0:
            return 0.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if proxy_minus_copy(mid) < 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
