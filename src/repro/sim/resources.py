"""Shared-resource primitives for the simulation engine.

Provides the queuing building blocks the grid model needs:

* :class:`Resource` — counted resource with FIFO queuing (CPU slots, NIC
  channels).
* :class:`Store` — unbounded/bounded FIFO of Python objects (message
  queues between simulated processes).
* :class:`Container` — continuous quantity (disk space, credit pools).
* :class:`ProcessorSharing` — a processor-sharing CPU: *n* jobs on one
  core each progress at ``1/n`` of full speed.  This is what makes the
  paper's "all models concurrent on one machine" experiments (Table 4)
  behave correctly: two compute-bound stages on a single 2004-era CPU
  time-share it, yet IO waits overlap with the other job's compute.
"""

from __future__ import annotations

import math

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Optional

from .engine import Environment, Event, SimulationError

__all__ = ["Resource", "Store", "Container", "ProcessorSharing"]


class Resource:
    """A counted FIFO resource.

    >>> env = Environment()
    >>> cpu = Resource(env, capacity=1)
    >>> def job(env, cpu, t, out):
    ...     req = cpu.request()
    ...     yield req
    ...     yield env.timeout(t)
    ...     cpu.release(req)
    ...     out.append(env.now)
    >>> out = []
    >>> _ = env.process(job(env, cpu, 2, out)); _ = env.process(job(env, cpu, 3, out))
    >>> env.run(); out
    [2.0, 5.0]
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        evt = self.env.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            evt.succeed(self)
        else:
            self._waiters.append(evt)
        return evt

    def release(self, request: Optional[Event] = None) -> None:
        if self.in_use <= 0:
            raise SimulationError("release without matching request")
        if self._waiters:
            nxt = self._waiters.popleft()
            nxt.succeed(self)
        else:
            self.in_use -= 1

    def cancel(self, request: Event) -> bool:
        """Remove a still-queued request; returns True if it was queued."""
        try:
            self._waiters.remove(request)
            return True
        except ValueError:
            return False

    @property
    def queue_length(self) -> int:
        return len(self._waiters)


class Store:
    """FIFO store of arbitrary items with blocking get/put.

    ``capacity=None`` means unbounded (puts never block).
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def put(self, item: Any) -> Event:
        evt = self.env.event()
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            evt.succeed(None)
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            evt.succeed(None)
        else:
            self._putters.append((evt, item))
        return evt

    def get(self) -> Event:
        evt = self.env.event()
        if self.items:
            item = self.items.popleft()
            if self._putters:
                pevt, pitem = self._putters.popleft()
                self.items.append(pitem)
                pevt.succeed(None)
            evt.succeed(item)
        else:
            self._getters.append(evt)
        return evt

    def __len__(self) -> int:
        return len(self.items)


class Container:
    """A continuous quantity with blocking get (never negative)."""

    def __init__(self, env: Environment, init: float = 0.0, capacity: float = float("inf")):
        if init < 0 or init > capacity:
            raise ValueError("init outside [0, capacity]")
        self.env = env
        self.capacity = capacity
        self.level = float(init)
        self._getters: Deque[tuple[Event, float]] = deque()
        self._putters: Deque[tuple[Event, float]] = deque()

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be >= 0")
        evt = self.env.event()
        if self.level + amount <= self.capacity:
            self.level += amount
            evt.succeed(None)
            self._drain_getters()
        else:
            self._putters.append((evt, amount))
        return evt

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be >= 0")
        evt = self.env.event()
        if amount <= self.level:
            self.level -= amount
            evt.succeed(None)
            self._drain_putters()
        else:
            self._getters.append((evt, amount))
        return evt

    def _drain_getters(self) -> None:
        while self._getters and self._getters[0][1] <= self.level:
            evt, amount = self._getters.popleft()
            self.level -= amount
            evt.succeed(None)

    def _drain_putters(self) -> None:
        while self._putters and self.level + self._putters[0][1] <= self.capacity:
            evt, amount = self._putters.popleft()
            self.level += amount
            evt.succeed(None)


@dataclass
class _PSJob:
    work: float             # work units submitted
    remaining: float        # work units left
    done: Event
    last_update: float


class ProcessorSharing:
    """Processor-sharing CPU model.

    Jobs submit an amount of *work* (abstract units); a machine with
    ``speed`` executes ``speed`` work units per simulated second split
    evenly across all currently active jobs.  ``compute(work)`` returns
    an event that triggers when the job's work is done.

    The implementation re-profiles remaining work at every arrival and
    departure, which is exact for piecewise-constant sharing.
    """

    def __init__(self, env: Environment, speed: float = 1.0, cores: int = 1):
        if speed <= 0:
            raise ValueError("speed must be positive")
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.env = env
        self.speed = float(speed)
        self.cores = cores
        self._jobs: list[_PSJob] = []
        self._wake: Optional[Event] = None
        self._scheduler_running = False

    @property
    def load(self) -> int:
        """Number of jobs currently computing."""
        return len(self._jobs)

    def compute(self, work: float) -> Event:
        """Submit ``work`` units; returns event triggered at completion."""
        if work < 0:
            raise ValueError("work must be >= 0")
        done = self.env.event()
        if work == 0:
            done.succeed(None)
            return done
        self._advance_all()
        self._jobs.append(_PSJob(float(work), float(work), done, self.env.now))
        self._kick()
        return done

    # -- internals -----------------------------------------------------------
    def _per_job_rate(self) -> float:
        n = len(self._jobs)
        if n == 0:
            return 0.0
        # With c cores and n jobs, each job gets min(1, c/n) of one core.
        return self.speed * min(1.0, self.cores / n)

    def _advance_all(self) -> None:
        now = self.env.now
        rate = self._per_job_rate()
        for job in self._jobs:
            elapsed = now - job.last_update
            if elapsed > 0:
                job.remaining = max(0.0, job.remaining - elapsed * rate)
            job.last_update = now

    def _kick(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed(None)
        if not self._scheduler_running:
            self._scheduler_running = True
            self.env.process(self._scheduler(), name="ps-scheduler")

    def _scheduler(self):
        while self._jobs:
            self._advance_all()
            # A job is done when its residue is below what the clock can
            # resolve at this rate — a timeout under ulp(now) no longer
            # advances float time, so the loop would livelock on it — or
            # below the rounding of its own work.  Never an absolute
            # nanosecond: at a high rate that is real work, and a small
            # job would finish early.
            rate = self._per_job_rate()
            tick = rate * 2.0 * math.ulp(self.env.now)
            finished = [j for j in self._jobs if j.remaining <= tick + 4.0 * math.ulp(j.work)]
            if finished:
                self._jobs = [j for j in self._jobs if j not in finished]
                for job in finished:
                    job.done.succeed(None)
                continue
            next_done = min(j.remaining for j in self._jobs) / rate
            self._wake = self.env.event()
            timeout = self.env.timeout(next_done)
            yield self.env.any_of([timeout, self._wake])
            self._wake = None
        self._scheduler_running = False
        return None
