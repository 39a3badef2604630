"""Sliding-window heavy-hitter detection (space-saving sketch).

Metadata hotspots are directories and files that suddenly dominate the
request stream — a build fan-out stat-ing one tree, a dataset everyone
opens.  The gateway tracks them with the **space-saving** algorithm
(Metwally, Agrawal, El Abbadi 2005): a fixed budget of ``capacity``
counters; an unmonitored key evicts the minimum counter and inherits its
count as over-estimation ``error``.  Guarantees: every key with true
frequency above ``N / capacity`` is monitored, and estimates never
under-count.

A single sketch never forgets, so yesterday's hotspot would stay "hot"
forever.  :class:`HotspotDetector` therefore keeps **two epochs** — the
current sketch and the previous one — rotated every ``window_s`` of
virtual time; a key's windowed estimate is the sum of both, which drops
cold keys out of the *hot set* within two windows while keeping
genuinely hot keys flagged across the rotation boundary.

The hot set is kept incrementally: each observation can only raise the
observed key's estimate and lower the estimate of the key its sketch
evicted, so those two keys are the only ones re-tested; the set is
recomputed from the previous sketch only at epoch rotation.  Eviction
picks the minimum counter through a lazy-deletion heap, O(log capacity).
``is_hot`` is a set-membership test.

Hot keys feed back into the cache (:meth:`GatewayCache.pin_many`, once
per tick): pinned entries are exempt from LRU eviction and, on hooked
gateways, get extended leases — the "shielding" — and hot keys surface
in the operator report (``repro.obs.report``) as the gateway hotspots
section.  Only the hot set decays: a pin is never cleared when its key
cools.  It lasts as long as the cache entry does, and a refresh of the
entry (``GatewayCache._install``) carries it over; invalidation or
eviction of the entry is what ends it.

**Shared-pin semantics (multi-tenant).**  The lease cache is one shared
structure per gateway process, so a pin is *tenant-blind by design*: when
tenant A's traffic makes ``/hot/path`` cross the threshold, the pinned
lease answers tenant B's lookups of the same path too.  That is the
correct economics — a lease is a fact about the namespace, not about who
asked, and sharing it multiplies the backend savings — but it means a
noisy tenant can *donate* cache benefit, never steal it: pins extend
TTLs and block eviction, they never consume another tenant's admission
tokens (admission fairness is enforced upstream, per tenant, in
``repro.gateway.admission``).
``tests/unit/test_gateway_hotspot.py`` locks this contract.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Set, Tuple


@dataclass(frozen=True)
class HeavyHitter:
    """One ranked hotspot: estimated count and max over-estimation."""

    key: str
    count: int
    error: int


class SpaceSavingSketch:
    """Fixed-size space-saving counter table.

    ``offer(key)`` is O(log capacity): the eviction victim comes from a
    lazy-deletion min-heap of ``(count, key)`` pairs.  Every counter
    change pushes its new pair; pairs whose count no longer matches the
    live counter are discarded when they reach the top, and the heap is
    rebuilt from the live counters once it outgrows
    ``HEAP_SLACK * capacity`` entries.
    """

    #: Heap entries allowed per counter before the stale pairs are
    #: compacted away.
    HEAP_SLACK = 4

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._counts: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        self._heap: List[Tuple[int, str]] = []
        self.observed = 0

    def offer(self, key: str, amount: int = 1) -> Optional[str]:
        """Account one observation of ``key``; returns the evicted key,
        or ``None`` when nothing was evicted."""
        if amount < 1:
            raise ValueError(f"amount must be >= 1, got {amount}")
        self.observed += amount
        counts = self._counts
        victim = None
        count = counts.get(key)
        if count is not None:
            count += amount
        elif len(counts) < self.capacity:
            count = amount
            self._errors[key] = 0
        else:
            # Evict the minimum counter; the newcomer inherits its count
            # as over-estimation error (ties broken by key for
            # determinism).
            victim = self._pop_min()
            floor = counts.pop(victim)
            self._errors.pop(victim)
            count = floor + amount
            self._errors[key] = floor
        counts[key] = count
        heap = self._heap
        heapq.heappush(heap, (count, key))
        if len(heap) > self.HEAP_SLACK * self.capacity:
            heap[:] = [(c, k) for k, c in counts.items()]
            heapq.heapify(heap)
        return victim

    def _pop_min(self) -> str:
        """Pop the live ``min((count, key))``, discarding stale pairs."""
        heap = self._heap
        counts = self._counts
        while True:
            count, key = heapq.heappop(heap)
            if counts.get(key) == count:
                return key

    def estimate(self, key: str) -> int:
        """Estimated count (never an under-count; 0 if unmonitored)."""
        return self._counts.get(key, 0)

    def guaranteed(self, key: str) -> int:
        """Lower bound on the true count (estimate minus error)."""
        return self._counts.get(key, 0) - self._errors.get(key, 0)

    def top(self, k: int) -> List[HeavyHitter]:
        """The ``k`` largest counters, count-descending then key-ascending."""
        ranked = sorted(
            self._counts.items(), key=lambda item: (-item[1], item[0])
        )
        return [
            HeavyHitter(key=key, count=count, error=self._errors[key])
            for key, count in ranked[:k]
        ]

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: str) -> bool:
        return key in self._counts

    def __repr__(self) -> str:
        return (
            f"SpaceSavingSketch(keys={len(self._counts)}/{self.capacity}, "
            f"observed={self.observed})"
        )


class HotspotDetector:
    """Two-epoch sliding window over a space-saving sketch.

    Parameters
    ----------
    capacity:
        Counter budget per epoch sketch.
    window_s:
        Epoch length in virtual seconds; an observation influences the
        hot set for at most two windows.
    hot_threshold:
        Windowed estimate at which a key counts as hot.
    """

    def __init__(
        self,
        capacity: int = 64,
        window_s: float = 5.0,
        hot_threshold: int = 32,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if hot_threshold < 1:
            raise ValueError(
                f"hot_threshold must be >= 1, got {hot_threshold}"
            )
        self.capacity = capacity
        self.window_s = window_s
        self._hot_threshold = hot_threshold
        self._current = SpaceSavingSketch(capacity)
        self._previous = SpaceSavingSketch(capacity)
        self._epoch_start = 0.0
        self.rotations = 0
        #: Every key whose windowed estimate reaches the threshold.
        self._hot: Set[str] = set()

    @property
    def hot_threshold(self) -> int:
        """Windowed estimate at which a key counts as hot (fixed at
        construction: the hot set is maintained against it)."""
        return self._hot_threshold

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _maybe_rotate(self, now: float) -> None:
        if now - self._epoch_start < self.window_s:
            return
        while now - self._epoch_start >= self.window_s:
            self._previous = self._current
            self._current = SpaceSavingSketch(self.capacity)
            self._epoch_start += self.window_s
            self.rotations += 1
        # The current epoch is empty, so a key's windowed estimate is
        # its previous-epoch count.
        threshold = self._hot_threshold
        self._hot = {
            key
            for key, count in self._previous._counts.items()
            if count >= threshold
        }

    def observe(self, key: str, now: float) -> None:
        """Account one request for ``key`` at virtual time ``now``.

        Only two estimates move: ``key``'s rises and the evicted
        victim's falls to its previous-epoch count, so only those two
        keys can enter or leave the hot set.
        """
        self._maybe_rotate(now)
        current = self._current
        victim = current.offer(key)
        previous = self._previous._counts
        threshold = self._hot_threshold
        if current._counts[key] + previous.get(key, 0) >= threshold:
            self._hot.add(key)
        if victim is not None and previous.get(victim, 0) < threshold:
            self._hot.discard(victim)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(self, key: str) -> int:
        """Windowed estimate: current + previous epoch."""
        return self._current.estimate(key) + self._previous.estimate(key)

    def is_hot(self, key: str) -> bool:
        return key in self._hot

    def hot_keys(self) -> List[str]:
        """Every currently-hot key, sorted (deterministic)."""
        return sorted(self._hot)

    @property
    def hot_set(self) -> AbstractSet[str]:
        """The live hot set, unsorted; read-only for callers and only
        valid until the next :meth:`observe`."""
        return self._hot

    def top_k(self, k: int = 5) -> List[HeavyHitter]:
        """Top hotspots by windowed estimate (merged across both epochs)."""
        merged: Dict[str, Tuple[int, int]] = {}
        for sketch in (self._current, self._previous):
            for key, count in sketch._counts.items():
                total, error = merged.get(key, (0, 0))
                merged[key] = (total + count, error + sketch._errors[key])
        ranked = sorted(merged.items(), key=lambda item: (-item[1][0], item[0]))
        return [
            HeavyHitter(key=key, count=count, error=error)
            for key, (count, error) in ranked[:k]
        ]

    def __repr__(self) -> str:
        return (
            f"HotspotDetector(window={self.window_s}s, "
            f"threshold={self.hot_threshold}, rotations={self.rotations})"
        )
