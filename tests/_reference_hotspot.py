"""Frozen two-epoch hotspot detector (the legacy oracle).

The original space-saving sketch picks its eviction victim with an
O(capacity) min-scan, and the detector rebuilds its hot set from the
union of both epoch sketches on every ``hot_keys()`` call.  The gateway
now runs :class:`repro.gateway.hotspot.HotspotDetector`, which keeps the
hot set incrementally and evicts through a lazy-deletion heap; it must
agree with this detector after every observation.
``tests/property/test_hotspot_incremental.py`` replays seeded Zipf
streams through both and compares hot sets, rankings and counters.

Do NOT "fix" or modernize this module: its value is that it does not
change.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.gateway.hotspot import HeavyHitter


class SpaceSavingSketch:
    """Fixed-size space-saving counter table.

    ``offer(key)`` is O(1) amortized on dict operations plus an O(capacity)
    min-scan on eviction; fine at the gateway's capacities (tens to a few
    thousand counters).
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._counts: Dict[str, int] = {}
        self._errors: Dict[str, int] = {}
        self.observed = 0

    def offer(self, key: str, amount: int = 1) -> None:
        """Account one observation of ``key``."""
        if amount < 1:
            raise ValueError(f"amount must be >= 1, got {amount}")
        self.observed += amount
        if key in self._counts:
            self._counts[key] += amount
            return
        if len(self._counts) < self.capacity:
            self._counts[key] = amount
            self._errors[key] = 0
            return
        # Evict the minimum counter; the newcomer inherits its count as
        # over-estimation error (ties broken by key for determinism).
        victim = min(self._counts, key=lambda k: (self._counts[k], k))
        floor = self._counts.pop(victim)
        self._errors.pop(victim)
        self._counts[key] = floor + amount
        self._errors[key] = floor

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
        self.hot_threshold = hot_threshold
        self._current = SpaceSavingSketch(capacity)
        self._previous = SpaceSavingSketch(capacity)
        self._epoch_start = 0.0
        self.rotations = 0

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _maybe_rotate(self, now: float) -> None:
        while now - self._epoch_start >= self.window_s:
            self._previous = self._current
            self._current = SpaceSavingSketch(self.capacity)
            self._epoch_start += self.window_s
            self.rotations += 1

    def observe(self, key: str, now: float) -> None:
        """Account one request for ``key`` at virtual time ``now``."""
        self._maybe_rotate(now)
        self._current.offer(key)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(self, key: str) -> int:
        """Windowed estimate: current + previous epoch."""
        return self._current.estimate(key) + self._previous.estimate(key)

    def is_hot(self, key: str) -> bool:
        return self.estimate(key) >= self.hot_threshold

    def hot_keys(self) -> List[str]:
        """Every currently-hot key, sorted (deterministic)."""
        keys = set(self._counts_union())
        return sorted(k for k in keys if self.is_hot(k))

    def _counts_union(self) -> List[str]:
        return list(self._current._counts) + [
            k for k in self._previous._counts if k not in self._current._counts
        ]

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
