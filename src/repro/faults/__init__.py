"""repro.faults — deterministic, seedable failure injection.

The transport, Grid Buffer, and GridFTP layers carry *hook points*: one
attribute load plus a ``None`` check on the hot path, so an unarmed
process pays nothing.  Arming installs a :class:`FaultInjector` whose
rules fire on the Nth call matching a ``(layer, op, peer)`` key and
perform one of five actions:

``error``
    raise :class:`InjectedFault` (a ``ConnectionError``) at the hook;
``close``
    the hook site tears its connection down so the *real* IO path fails
    organically (send/recv raises ``OSError``);
``drop``
    the hook site discards the unit of work without replying (server
    side: read the request, never answer);
``delay``
    sleep ``delay`` seconds at the hook, then continue normally;
``corrupt``
    the hook site flips seeded bits in the payload it was about to
    send/store (:meth:`FaultInjector.corrupt_bytes`), exercising the
    end-to-end integrity machinery: wire-CRC verification and
    whole-file checksum re-verification.

Rules are configured through the API (:func:`arm`, :class:`FaultRule`)
or the ``REPRO_FAULTS`` environment variable, which holds
semicolon-separated rules of comma-separated ``key=value`` pairs::

    REPRO_FAULTS='layer=rpc.client,op=gb.read*,action=close,nth=3;
                  layer=gridftp,peer=store2,action=error,nth=1,times=0'

``layer``/``op``/``peer`` are shell-style globs (default ``*``); ``nth``
is the 1-based index of the first matching call that fires (counted per
concrete ``(rule, layer, op, peer)`` key, so "the 3rd gb.read_multi to
store1" means exactly that); ``times`` is how many consecutive matches
fire from there (``0`` = forever).  ``probability`` makes a rule fire
randomly instead — draws come from a ``random.Random`` seeded via
:func:`arm` or ``REPRO_FAULTS_SEED``, so a seeded chaos run is
reproducible.  Malformed specs raise :class:`ValueError` naming the
offending rule text at arm time — a chaos run with a typo'd rule must
not silently run fault-free.

Every fired rule increments the ``fault_injected_total`` counter
(labels: layer, action) and emits a span event, so a chaos run's
recovery cost is visible in ``repro.obs`` snapshots.

Async hook sites (inline handlers on the shared event loop) must call
:meth:`FaultInjector.fire_async`, which awaits ``delay`` rules instead
of sleeping — a blocking ``time.sleep`` there stalls every connection
on the loop (the PR 7 stall watchdog flags exactly this).
"""

from __future__ import annotations

import asyncio
import fnmatch
import logging
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs

__all__ = [
    "ACTIVE",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "arm",
    "disarm",
    "injected",
    "parse_rules",
]

logger = logging.getLogger(__name__)

_FAULTS_INJECTED = obs.counter(
    "fault_injected_total",
    "Faults fired by the repro.faults injector",
    labelnames=("layer", "action"),
)

_ACTIONS = ("error", "close", "drop", "delay", "corrupt")
#: Every layer with a hook point; a ``layer`` glob must match one.
_LAYERS = ("rpc.client", "rpc.server", "gridftp", "gb.service")


class InjectedFault(ConnectionError):
    """Raised at a hook point by an ``action=error`` rule.

    Subclasses ``ConnectionError`` so it flows through the same
    discard/retry paths as a genuine connection failure.
    """


@dataclass(frozen=True)
class FaultRule:
    """One injection rule; see the module docstring for semantics."""

    layer: str = "*"
    op: str = "*"
    peer: str = "*"
    action: str = "error"
    nth: int = 1
    times: int = 1
    delay: float = 0.0
    probability: Optional[float] = None
    message: str = ""

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r} (want one of {_ACTIONS})")
        if not any(fnmatch.fnmatchcase(layer, self.layer) for layer in _LAYERS):
            raise ValueError(f"fault layer {self.layer!r} has no hook (want one of {_LAYERS})")
        if self.nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")
        if self.times < 0:
            raise ValueError("times must be >= 0 (0 = fire forever)")

    def matches(self, layer: str, op: str, peer: str) -> bool:
        return (
            fnmatch.fnmatchcase(layer, self.layer)
            and fnmatch.fnmatchcase(op, self.op)
            and fnmatch.fnmatchcase(peer, self.peer)
        )


def parse_rules(spec: str) -> List[FaultRule]:
    """Parse the ``REPRO_FAULTS`` rule syntax into :class:`FaultRule`.

    A blank/whitespace spec yields no rules (unset env var), but within
    a non-empty spec every chunk must parse: empty rules, unknown keys,
    actions or layers, and non-numeric ``nth``/``times``/``delay``/
    ``probability`` values raise :class:`ValueError` carrying the
    offending rule text, so a typo fails the run at arm time instead of
    silently disabling the fault.
    """
    chunks = [c.strip() for c in spec.split(";")]
    if not any(chunks):
        return []
    rules: List[FaultRule] = []
    for chunk in chunks:
        if not chunk:
            raise ValueError(f"empty fault rule in spec {spec!r}")
        kwargs: Dict[str, object] = {}
        for pair in chunk.split(","):
            pair = pair.strip()
            if not pair:
                raise ValueError(f"empty field in fault rule {chunk!r}")
            if "=" not in pair:
                raise ValueError(f"bad fault rule field {pair!r} (want key=value) in rule {chunk!r}")
            key, value = pair.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key in ("nth", "times"):
                try:
                    kwargs[key] = int(value)
                except ValueError:
                    raise ValueError(
                        f"non-integer {key}={value!r} in fault rule {chunk!r}"
                    ) from None
            elif key in ("delay", "probability"):
                try:
                    kwargs[key] = float(value)
                except ValueError:
                    raise ValueError(
                        f"non-numeric {key}={value!r} in fault rule {chunk!r}"
                    ) from None
            elif key in ("layer", "op", "peer", "action", "message"):
                kwargs[key] = value
            else:
                raise ValueError(f"unknown fault rule key {key!r} in rule {chunk!r}")
        if not kwargs:
            raise ValueError(f"empty fault rule in spec {spec!r}")
        try:
            rules.append(FaultRule(**kwargs))  # type: ignore[arg-type]
        except ValueError as exc:
            raise ValueError(f"{exc} (rule: {chunk!r})") from None
    return rules


class FaultInjector:
    """Matches hook calls against rules and fires actions deterministically."""

    def __init__(self, rules: Sequence[FaultRule] = (), seed: Optional[int] = None):
        self._rules: List[FaultRule] = list(rules)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        # per (rule index, layer, op, peer) match counts — "Nth matching op"
        self._counts: Dict[Tuple[int, str, str, str], int] = {}
        self._fired: List[Tuple[str, str, str, str]] = []

    def add(self, rule: FaultRule) -> None:
        with self._lock:
            self._rules.append(rule)

    @property
    def fired(self) -> List[Tuple[str, str, str, str]]:
        """(layer, op, peer, action) tuples for every fault fired so far."""
        with self._lock:
            return list(self._fired)

    def _evaluate(
        self, layer: str, op: str, peer: str
    ) -> Tuple[float, Optional[FaultRule], Optional[str]]:
        """Match rules under the lock; the caller performs the actions.

        Returns ``(delay_seconds, error_rule, verdict)`` so the sync
        and async hook fronts (:meth:`fire` / :meth:`fire_async`) share
        one matching/counting implementation and differ only in how
        they wait out a ``delay``.
        """
        verdict: Optional[str] = None
        delay = 0.0
        error: Optional[FaultRule] = None
        with self._lock:
            for idx, rule in enumerate(self._rules):
                if not rule.matches(layer, op, peer):
                    continue
                if rule.probability is not None:
                    if self._rng.random() >= rule.probability:
                        continue
                else:
                    key = (idx, layer, op, peer)
                    count = self._counts.get(key, 0) + 1
                    self._counts[key] = count
                    if count < rule.nth:
                        continue
                    if rule.times and count >= rule.nth + rule.times:
                        continue
                self._fired.append((layer, op, peer, rule.action))
                _FAULTS_INJECTED.labels(layer=layer, action=rule.action).inc()
                if rule.action == "delay":
                    delay = max(delay, rule.delay)
                elif rule.action == "error":
                    error = rule
                elif verdict is None:
                    verdict = rule.action
        return delay, error, verdict

    def _finish(
        self, layer: str, op: str, peer: str, error: Optional[FaultRule], verdict: Optional[str]
    ) -> Optional[str]:
        if error is not None:
            obs.event("fault.error", layer=layer, op=op, peer=peer)
            raise InjectedFault(
                error.message or f"injected fault: layer={layer} op={op} peer={peer}"
            )
        if verdict is not None:
            obs.event(f"fault.{verdict}", layer=layer, op=op, peer=peer)
        return verdict

    def fire(self, layer: str, op: str, peer: str) -> Optional[str]:
        """Evaluate rules for one hook call (sync hook sites).

        Raises :class:`InjectedFault` for ``error`` rules, sleeps for
        ``delay`` rules, and returns ``"close"``/``"drop"``/
        ``"corrupt"`` for the hook site to act on (``None`` when
        nothing fires).
        """
        delay, error, verdict = self._evaluate(layer, op, peer)
        if delay:
            obs.event("fault.delay", layer=layer, op=op, peer=peer, seconds=delay)
            time.sleep(delay)
        return self._finish(layer, op, peer, error, verdict)

    async def fire_async(self, layer: str, op: str, peer: str) -> Optional[str]:
        """:meth:`fire` for hook sites running on the event loop.

        ``delay`` rules are awaited (``asyncio.sleep``) so an injected
        slowdown delays *this* handler, not every connection sharing
        the loop.
        """
        delay, error, verdict = self._evaluate(layer, op, peer)
        if delay:
            obs.event("fault.delay", layer=layer, op=op, peer=peer, seconds=delay)
            await asyncio.sleep(delay)
        return self._finish(layer, op, peer, error, verdict)

    def corrupt_bytes(self, data: bytes, flips: int = 1) -> bytes:
        """Return ``data`` with ``flips`` seeded single-bit flips.

        Draws positions from the injector's RNG, so a seeded chaos run
        corrupts the same bits every time.  Empty payloads are returned
        unchanged (there is nothing to flip — and nothing a checksum
        over zero bytes would miss).
        """
        if not data:
            return data
        out = bytearray(data)
        with self._lock:
            for _ in range(flips):
                pos = self._rng.randrange(len(out))
                bit = self._rng.randrange(8)
                out[pos] ^= 1 << bit
        return bytes(out)


#: The armed injector, or None.  Hook sites read this attribute directly —
#: the disarmed cost is one module-attribute load and a None check.
ACTIVE: Optional[FaultInjector] = None


def arm(
    rules: Sequence[FaultRule] | FaultInjector = (),
    seed: Optional[int] = None,
) -> FaultInjector:
    """Install an injector process-wide and return it."""
    global ACTIVE
    injector = rules if isinstance(rules, FaultInjector) else FaultInjector(rules, seed=seed)
    ACTIVE = injector
    logger.info("fault injector armed (%d rules)", len(injector._rules))
    return injector


def disarm() -> None:
    global ACTIVE
    ACTIVE = None


class injected:
    """Context manager: arm rules for a ``with`` block, then disarm.

    >>> with faults.injected(FaultRule(layer="rpc.client", action="close")):
    ...     client.call("gb.read_multi", ...)
    """

    def __init__(self, *rules: FaultRule, seed: Optional[int] = None):
        self._injector = FaultInjector(rules, seed=seed)

    def __enter__(self) -> FaultInjector:
        arm(self._injector)
        return self._injector

    def __exit__(self, *exc: object) -> None:
        disarm()


def _arm_from_env() -> None:
    spec = os.environ.get("REPRO_FAULTS", "")
    if not spec.strip():
        return
    seed_raw = os.environ.get("REPRO_FAULTS_SEED")
    seed = int(seed_raw) if seed_raw else None
    arm(parse_rules(spec), seed=seed)


_arm_from_env()
