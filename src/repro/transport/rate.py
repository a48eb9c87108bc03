"""Delivery rate and smallest round trip of a window of requests.

One estimator sizes every window in the package: the Grid Buffer
stream windows (``gridbuffer.client._WindowRule`` builds its spans and
depths on it) and the GridFTP block windows (one per
:class:`~repro.transport.gridftp.GridFtpClient`, shared by every
read-ahead, bulk copy and write-behind over that server link).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Optional, Tuple

__all__ = ["DeliveryRate"]


class DeliveryRate:
    """Delivery rate and min RTT, measured on every reply.

    * The **delivery rate** over the whole window: bytes whose replies
      arrived per second, across every request in flight.  Each reply
      yields a sample from the bytes delivered since the last delivery
      before its request left (or since it left, when the pipe was
      idle), so one sample sees the whole window, not one request: a
      64 KiB fetch on a 10 ms link reads as 6.4 MB/s, a window of eight
      of them as 51 MB/s.  The estimate is the largest of the last
      :attr:`RATE_SAMPLES`, so a consumer that pauses does not shrink
      the window.
    * The **smallest round trip** seen.

    Callers pair :meth:`sent` with :meth:`delivered`.  :meth:`reset`
    forgets both estimates; replies to requests sent before it yield no
    samples.  Thread-safe: replies arrive on the engine loop while the
    owner reads the estimates.  ``clock`` returns seconds.
    """

    #: Rate samples the estimate keeps.
    RATE_SAMPLES = 16

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._now = clock
        self._lock = threading.Lock()
        self._outstanding = 0       # requests sent, reply not yet in
        self._delivered = 0         # bytes whose replies arrived
        self._delivered_at = clock()
        self._epoch = 0
        self._reset_locked()

    @property
    def rate(self) -> float:
        """Delivery-rate estimate in bytes/s (0 before the first sample)."""
        return max(self._rates, default=0.0)

    @property
    def min_rtt(self) -> float:
        return self._min_rtt

    def reset(self) -> None:
        with self._lock:
            self._reset_locked()

    def _reset_locked(self) -> None:
        self._epoch += 1
        self._rates: Deque[float] = deque(maxlen=self.RATE_SAMPLES)
        self._min_rtt = float("inf")

    def sent(self) -> Tuple[int, int, float, float]:
        """A request leaves; pass the token to :meth:`delivered`."""
        with self._lock:
            now = self._now()
            if self._outstanding == 0:
                self._delivered_at = now  # an idle gap is not delivery time
            self._outstanding += 1
            return self._epoch, self._delivered, self._delivered_at, now

    def delivered(self, token: Tuple[int, int, float, float], nbytes: Optional[int]) -> bool:
        """The reply to ``token`` arrived with ``nbytes`` (None: it failed).
        True when it updated the estimates."""
        with self._lock:
            self._outstanding -= 1
            if nbytes is None:
                return False
            now = self._now()
            self._delivered += nbytes
            self._delivered_at = now
            epoch, delivered0, since, sent_at = token
            if epoch != self._epoch:
                return False
            self._min_rtt = min(self._min_rtt, now - sent_at)
            if now > since:
                self._rates.append((self._delivered - delivered0) / (now - since))
            return True
