"""Frozen single-bucket admission controller (the legacy oracle).

The original tenant-blind gateway admission: one :class:`TokenBucket`
and one bounded FIFO queue with per-item deadlines.  The gateway now
runs :class:`repro.gateway.admission.FairAdmissionController`, which
must stay bit-identical to this controller when only one tenant is
present; ``tests/unit/test_gateway_admission.py`` replays randomized
ticks through both and compares every admission, shed and counter.

Do NOT "fix" or modernize this module: its value is that it does not
change.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, List, Tuple, TypeVar

from repro.gateway.admission import AdmissionStats, TokenBucket

T = TypeVar("T")


class AdmissionController(Generic[T]):
    """Token bucket + bounded FIFO queue with per-item deadlines.

    Usage per tick::

        admitted, shed = controller.submit_many(items, now)
        ... serve admitted ...
        # next tick: drain whatever the refilled bucket now allows
        admitted, shed = controller.pump(now)

    ``submit_many`` first drains the queue (FIFO fairness: a queued request
    is always older than a fresh one), then admits fresh items while
    tokens last, queues the overflow, and sheds what no longer fits.
    """

    def __init__(
        self,
        rate_per_s: float,
        burst: float,
        queue_capacity: int = 64,
        queue_deadline_s: float = 1.0,
    ) -> None:
        if queue_capacity < 0:
            raise ValueError(
                f"queue_capacity must be >= 0, got {queue_capacity}"
            )
        if queue_deadline_s <= 0:
            raise ValueError(
                f"queue_deadline_s must be positive, got {queue_deadline_s}"
            )
        self.bucket = TokenBucket(rate_per_s, burst)
        self.queue_capacity = queue_capacity
        self.queue_deadline_s = queue_deadline_s
        self._queue: Deque[Tuple[float, T]] = deque()  # (deadline, item)
        self.stats = AdmissionStats()

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def _expire(self, now: float) -> List[T]:
        """Shed queued items whose deadline has passed."""
        expired: List[T] = []
        while self._queue and self._queue[0][0] <= now:
            _, item = self._queue.popleft()
            expired.append(item)
            self.stats.shed_deadline += 1
        return expired

    def pump(self, now: float) -> Tuple[List[T], List[T]]:
        """Advance the clock: admit queued items as tokens refill.

        Returns ``(admitted, shed)`` — the shed list holds items whose
        deadline expired before a token arrived.
        """
        shed = self._expire(now)
        admitted: List[T] = []
        while self._queue and self.bucket.take(now):
            _, item = self._queue.popleft()
            admitted.append(item)
            self.stats.admitted += 1
        return admitted, shed

    def submit(self, item: T, now: float) -> Tuple[List[T], List[T]]:
        """Submit one item; returns (admitted, shed) like :meth:`pump`."""
        return self.submit_many([item], now)

    def submit_many(self, items: List[T], now: float) -> Tuple[List[T], List[T]]:
        """Submit a tick's worth of items.

        Queue first (FIFO), then fresh arrivals; whatever the bucket
        cannot cover is queued up to capacity and shed beyond it.
        """
        admitted, shed = self.pump(now)
        for item in items:
            self.stats.submitted += 1
            if self.bucket.take(now):
                self.stats.admitted += 1
                admitted.append(item)
            elif len(self._queue) < self.queue_capacity:
                self.stats.queued += 1
                self._queue.append((now + self.queue_deadline_s, item))
            else:
                self.stats.shed_full += 1
                shed.append(item)
        return admitted, shed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def queued_items(self) -> List[T]:
        return [item for _, item in self._queue]

    def __repr__(self) -> str:
        return (
            f"AdmissionController(queue={len(self._queue)}/"
            f"{self.queue_capacity}, stats={self.stats})"
        )
