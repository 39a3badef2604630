"""Lease-based client metadata cache: path → (home MDS, record).

Entries carry a TTL *lease* in virtual seconds; a fresh lease means the
gateway may answer without touching the MDS fleet.  Expired entries are
retained (until LRU eviction) as *predictions* — their last-known home MDS
seeds the multi-key batched verification in :mod:`repro.gateway.coalesce`.

Negative results (path does not exist anywhere) are cached too, under a
separate — typically much shorter — TTL, so repeated lookups of a missing
path do not hammer the L4 global multicast.

Coherence rules (see DESIGN.md §9):

- ``create``/``delete`` invalidate the exact path (a create also kills a
  cached negative entry; a delete kills a cached positive one).
- ``rename`` of a directory invalidates the *whole subtree* under both the
  old and the new prefix — the classic stale-subtree bug is the thing the
  rename-correctness tests pin down.
- A server leaving the cluster (graceful or crash) invalidates every entry
  whose lease points at it.
- Degraded backend answers (fault injection) must never be inserted; the
  client enforces that, the cache just provides the API.

Hot entries (flagged by :mod:`repro.gateway.hotspot`) are *pinned*: they
are exempt from LRU eviction and, where a coherence hook makes renewal
safe, get extended leases, shielding the MDS fleet from the heaviest
hitters even under cache pressure.  A pin stays on its entry (refreshes
carry it over) until the entry is invalidated or evicted.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.metadata.attributes import FileMetadata


@dataclass
class CacheEntry:
    """One cached lease.

    ``home_id``/``record`` are ``None`` for negative entries.  ``version``
    bumps on every refresh so tests can distinguish a re-validated lease
    from a stale survivor.
    """

    path: str
    home_id: Optional[int]
    record: Optional[FileMetadata]
    expires_at: float
    negative: bool = False
    pinned: bool = False
    version: int = 0
    #: Backend path version at install time (``None`` when the installer
    #: did not learn one) — the base the write-back buffer stamps on
    #: mutations so the home MDS can arbitrate version races.
    backend_version: Optional[int] = None

    def fresh(self, now: float) -> bool:
        return now < self.expires_at


@dataclass(frozen=True)
class CacheLookup:
    """Outcome of one cache probe.

    ``hit`` is True only for a fresh lease.  ``predicted_home`` is the
    last-known home MDS from an expired (but retained) positive entry —
    the batcher's routing hint; ``None`` when the cache knows nothing.
    """

    path: str
    hit: bool = False
    negative: bool = False
    home_id: Optional[int] = None
    record: Optional[FileMetadata] = None
    predicted_home: Optional[int] = None


@dataclass
class CacheStats:
    """Plain tallies; the client mirrors them into the metrics registry."""

    hits: int = 0
    negative_hits: int = 0
    misses: int = 0
    expired: int = 0
    insertions: int = 0
    evictions: int = 0
    clamped: int = 0
    invalidations: Dict[str, int] = field(default_factory=dict)

    def count_invalidation(self, cause: str, amount: int = 1) -> None:
        self.invalidations[cause] = self.invalidations.get(cause, 0) + amount


class GatewayCache:
    """LRU cache of leases with subtree-aware invalidation.

    Parameters
    ----------
    capacity:
        Maximum entries (pinned entries do not count toward eviction
        pressure but do count toward capacity; eviction skips them).
    lease_ttl_s:
        Lease duration of ordinary positive entries, in virtual seconds.
    negative_ttl_s:
        Lease duration of negative entries (shorter: a missing file may
        appear at any moment and negatives are cheap to re-resolve).
    hot_lease_ttl_s:
        Extended lease granted to entries flagged hot.
    """

    def __init__(
        self,
        capacity: int = 4096,
        lease_ttl_s: float = 5.0,
        negative_ttl_s: float = 0.5,
        hot_lease_ttl_s: float = 30.0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if lease_ttl_s <= 0 or negative_ttl_s <= 0 or hot_lease_ttl_s <= 0:
            raise ValueError("TTLs must be positive")
        self.capacity = capacity
        self.lease_ttl_s = lease_ttl_s
        self.negative_ttl_s = negative_ttl_s
        self.hot_lease_ttl_s = hot_lease_ttl_s
        #: Active TTL clamp in virtual seconds (None when released).  While
        #: set, every lease — existing, refreshed or pinned — expires within
        #: the clamp; the cohort tier engages it when invalidations from a
        #: peer gateway may be lost (partition), bounding staleness.
        self.ttl_clamp_s: Optional[float] = None
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, path: str, now: float) -> CacheLookup:
        """Probe the cache at virtual time ``now``.

        A fresh lease is a hit (and refreshes LRU recency).  An expired
        entry is a miss that still reports ``predicted_home`` so the
        caller can route a cheap direct verification.
        """
        entry = self._entries.get(path)
        if entry is None:
            self.stats.misses += 1
            return CacheLookup(path=path)
        if entry.fresh(now):
            self._entries.move_to_end(path)
            if entry.negative:
                self.stats.negative_hits += 1
                return CacheLookup(path=path, hit=True, negative=True)
            self.stats.hits += 1
            return CacheLookup(
                path=path,
                hit=True,
                home_id=entry.home_id,
                record=entry.record,
            )
        self.stats.misses += 1
        self.stats.expired += 1
        predicted = None if entry.negative else entry.home_id
        return CacheLookup(path=path, predicted_home=predicted)

    def peek(self, path: str) -> Optional[CacheEntry]:
        """The raw entry (fresh or stale) without touching stats/recency."""
        return self._entries.get(path)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def put(
        self,
        path: str,
        home_id: int,
        record: Optional[FileMetadata],
        now: float,
        hot: bool = False,
        backend_version: Optional[int] = None,
    ) -> CacheEntry:
        """Install (or refresh) a positive lease."""
        ttl = self.hot_lease_ttl_s if hot else self.lease_ttl_s
        if self.ttl_clamp_s is not None:
            ttl = min(ttl, self.ttl_clamp_s)
        return self._install(
            CacheEntry(
                path=path,
                home_id=home_id,
                record=record,
                expires_at=now + ttl,
                pinned=hot,
                backend_version=backend_version,
            )
        )

    def put_negative(
        self,
        path: str,
        now: float,
        backend_version: Optional[int] = None,
    ) -> CacheEntry:
        """Install (or refresh) a negative lease (path exists nowhere)."""
        ttl = self.negative_ttl_s
        if self.ttl_clamp_s is not None:
            ttl = min(ttl, self.ttl_clamp_s)
        return self._install(
            CacheEntry(
                path=path,
                home_id=None,
                record=None,
                expires_at=now + ttl,
                negative=True,
                backend_version=backend_version,
            )
        )

    def _install(self, entry: CacheEntry) -> CacheEntry:
        previous = self._entries.pop(entry.path, None)
        if previous is not None:
            entry.version = previous.version + 1
            # A refresh never *loses* the pin a hot entry earned.
            entry.pinned = entry.pinned or (previous.pinned and not entry.negative)
        self._entries[entry.path] = entry
        self.stats.insertions += 1
        self._evict_over_capacity()
        return entry

    def _evict_over_capacity(self) -> None:
        """Evict least-recent unpinned entries down to capacity."""
        if len(self._entries) <= self.capacity:
            return
        for path in list(self._entries):
            if len(self._entries) <= self.capacity:
                break
            entry = self._entries[path]
            if entry.pinned:
                continue
            del self._entries[path]
            self.stats.evictions += 1
        # Degenerate case: everything pinned.  Evict oldest pinned entries
        # rather than growing without bound.
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Hot-entry shielding
    # ------------------------------------------------------------------
    def pin(self, path: str, now: float, extend: bool = True) -> bool:
        """Mark ``path`` hot: pin it against eviction, optionally
        extending its lease.

        ``extend=True`` renews the lease *without re-validation*, which
        is only safe when an external coherence channel (the cluster
        mutation hook) invalidates this entry on every mutation.  A
        hook-less gateway — a cohort member or an independent deployment
        — must pass ``extend=False``: repeated touch-renewal would keep
        a hot lease alive forever and serve it stale without bound, the
        exact failure the staleness harness exists to catch.  Pinned,
        unextended entries still expire on schedule and re-earn their
        (hot) TTL at the next validated install.

        Returns True when an entry existed to pin.
        """
        entry = self._entries.get(path)
        if entry is None or entry.negative:
            return False
        entry.pinned = True
        if extend:
            extension = self.hot_lease_ttl_s
            if self.ttl_clamp_s is not None:
                extension = min(extension, self.ttl_clamp_s)
            entry.expires_at = max(entry.expires_at, now + extension)
        return True

    def pin_many(
        self, paths: Iterable[str], now: float, extend: bool = True
    ) -> None:
        """:meth:`pin` every path in ``paths`` in one pass — the shield
        refresh, once per tick.

        The per-entry effect is exactly :meth:`pin`'s (absent and
        negative entries are skipped), and pinning touches neither LRU
        recency nor any other entry, so the order of ``paths`` does not
        matter.
        """
        entries = self._entries
        horizon = None
        if extend:
            extension = self.hot_lease_ttl_s
            if self.ttl_clamp_s is not None:
                extension = min(extension, self.ttl_clamp_s)
            horizon = now + extension
        for path in paths:
            entry = entries.get(path)
            if entry is None or entry.negative:
                continue
            entry.pinned = True
            if horizon is not None and entry.expires_at < horizon:
                entry.expires_at = horizon

    def unpin(self, path: str) -> None:
        entry = self._entries.get(path)
        if entry is not None:
            entry.pinned = False

    def pinned_paths(self) -> List[str]:
        return sorted(p for p, e in self._entries.items() if e.pinned)

    # ------------------------------------------------------------------
    # TTL clamp (graceful degradation while invalidations may be lost)
    # ------------------------------------------------------------------
    def clamp_ttl(self, clamp_s: float, now: float) -> int:
        """Cap every lease — current and future — to ``clamp_s`` of life.

        Engaged by the cohort tier while a peer gateway is suspected
        unreachable: remote mutations may not arrive as invalidations, so
        no lease may outlive the clamp.  Returns the number of existing
        entries whose expiry was shortened.
        """
        if clamp_s <= 0:
            raise ValueError(f"clamp_s must be positive, got {clamp_s}")
        self.ttl_clamp_s = clamp_s
        limit = now + clamp_s
        shortened = 0
        for entry in self._entries.values():
            if entry.expires_at > limit:
                entry.expires_at = limit
                shortened += 1
        self.stats.clamped += shortened
        return shortened

    def release_ttl_clamp(self) -> None:
        """Lift the clamp; already-shortened leases keep their expiry."""
        self.ttl_clamp_s = None

    # ------------------------------------------------------------------
    # Invalidation (the coherence surface)
    # ------------------------------------------------------------------
    def invalidate(self, path: str, cause: str = "mutation") -> bool:
        """Drop the entry for ``path``; True when something was dropped."""
        if self._entries.pop(path, None) is not None:
            self.stats.count_invalidation(cause)
            return True
        return False

    def invalidate_subtree(self, prefix: str, cause: str = "rename") -> int:
        """Drop ``prefix`` and every cached descendant of it.

        This is the rename rule: after ``rename /a /b`` the gateway must
        forget every cached lease under ``/a`` — each one names a path
        that no longer exists (and whose record content is stale).
        """
        victims = [
            path
            for path in self._entries
            if path == prefix or path.startswith(prefix + "/")
        ]
        for path in victims:
            del self._entries[path]
        if victims:
            self.stats.count_invalidation(cause, len(victims))
        return len(victims)

    def invalidate_home(self, server_id: int, cause: str = "server_lost") -> int:
        """Drop every lease pointing at ``server_id`` (it left the fleet)."""
        victims = [
            path
            for path, entry in self._entries.items()
            if entry.home_id == server_id
        ]
        for path in victims:
            del self._entries[path]
        if victims:
            self.stats.count_invalidation(cause, len(victims))
        return len(victims)

    def clear(self) -> None:
        self._entries.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def hit_rate(self) -> float:
        """Fresh hits (positive + negative) over all probes."""
        total = self.stats.hits + self.stats.negative_hits + self.stats.misses
        if total == 0:
            return 0.0
        return (self.stats.hits + self.stats.negative_hits) / total

    def __repr__(self) -> str:
        return (
            f"GatewayCache(entries={len(self._entries)}/{self.capacity}, "
            f"hit_rate={self.hit_rate():.3f})"
        )
