"""Differential test: the bulk shield refresh vs the per-key pin loop.

The gateway pins its hot set once per tick through
:meth:`GatewayCache.pin_many`.  Before that, the tick ended with one
:meth:`GatewayCache.pin` call per key of ``hot_keys()``.  Two
identically built clusters each get a gateway, one with each shield, and
replay the same seeded sequence of lookup ticks, creates, deletes and
renames.  Hot keys are frequent, the cache is small enough to evict, and
a TTL clamp is engaged and later released mid-run.  After every
operation the two caches must match entry for entry, in LRU order:
``expires_at``, ``pinned``, ``version``, ``negative``.  Their
``CacheStats`` must match too.  This runs both for a hooked gateway,
whose pins extend leases, and for a hook-less one (``extend=False``).

``test_shield_skipping_fresh_installs_fails`` is the non-vacuity twin:
a shield that skips entries installed since its previous pass (an
edge-triggered shortcut) must fail the same comparison.
"""

import random

import pytest

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.gateway.cache import GatewayCache
from repro.gateway.client import GatewayConfig, MetadataClient

SEEDS = range(6)

DIRS = [f"/sh/d{index}" for index in range(6)]
PATHS = [f"{directory}/f{index}" for directory in DIRS for index in range(12)]


class _PerKeyPinCache(GatewayCache):
    """The shield refresh as it was: one ``pin`` per key, in sorted
    (``hot_keys()``) order."""

    def pin_many(self, paths, now, extend=True):
        for path in sorted(paths):
            self.pin(path, now, extend=extend)


class _SkipsFreshInstalls(GatewayCache):
    """Seeded bug: the shield skips entries installed since its last
    pass, so a hot path re-created between ticks is left unpinned and
    unextended."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._fresh = set()

    def _install(self, entry):
        self._fresh.add(entry.path)
        return super()._install(entry)

    def pin_many(self, paths, now, extend=True):
        fresh, self._fresh = self._fresh, set()
        super().pin_many(
            [path for path in paths if path not in fresh], now, extend
        )


def _gateway(hooked, cache_class):
    config = GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=200,
        lru_capacity=64,
        lru_filter_bits=1 << 10,
        seed=3,
    )
    cluster = GHBACluster(4, config, seed=3)
    cluster.populate(PATHS)
    cluster.synchronize_replicas(force=True)
    client = MetadataClient(
        cluster,
        GatewayConfig(
            cache_capacity=24,
            lease_ttl_s=0.4,
            negative_ttl_s=0.1,
            hot_lease_ttl_s=1.5,
            rate_per_s=1e6,
            burst=1e4,
            hot_threshold=4,
        ),
        register_mutation_hook=hooked,
    )
    old = client.cache
    client.cache = cache_class(
        capacity=old.capacity,
        lease_ttl_s=old.lease_ttl_s,
        negative_ttl_s=old.negative_ttl_s,
        hot_lease_ttl_s=old.hot_lease_ttl_s,
    )
    return client


def _generate_ops(seed, length=300):
    """A seeded op sequence over a Zipf-skewed path population."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(len(PATHS))]
    extra = [f"/sh/new{index}" for index in range(8)]
    ops = []
    now = 0.0
    clamp_at, release_at = sorted(rng.sample(range(40, length - 40), 2))
    for index in range(length):
        now += 0.01 + rng.random() * 0.05
        if index == clamp_at:
            ops.append(("clamp", now, 0.2))
            continue
        if index == release_at:
            ops.append(("release", now))
            continue
        roll = rng.random()
        if roll < 0.75:
            tick = rng.choices(PATHS + extra, weights + [0.05] * len(extra), k=8)
            ops.append(("lookup", now, tick))
        elif roll < 0.85:
            # Delete a likely-hot path; a later create re-installs it
            # between ticks.
            ops.append(("delete", now, rng.choices(PATHS, weights)[0]))
        elif roll < 0.95:
            ops.append(("create", now, rng.choice(PATHS[:12] + extra)))
        else:
            source, target = rng.sample(DIRS, 2)
            ops.append(("rename", now, source, target + "-r"))
    return ops


def _apply(client, op):
    kind, now = op[0], op[1]
    if kind == "lookup":
        return [(r.path, r.outcome.name, r.home_id) for r in
                client.lookup_many(op[2], now)]
    if kind == "create":
        servers = client.cluster.servers.values()
        if any(server.store.get(op[2]) is not None for server in servers):
            return None  # already exists; skipped on both gateways
        return client.create(op[2], now).outcome.name
    if kind == "delete":
        return client.delete(op[2], now).outcome.name
    if kind == "rename":
        return client.rename(op[2], op[3], now)
    if kind == "clamp":
        return client.clamp_leases(op[2], now)
    client.release_lease_clamp()
    return None


def _cache_state(cache):
    return (
        [
            (path, e.expires_at, e.pinned, e.version, e.negative)
            for path, e in cache._entries.items()
        ],
        cache.stats,
        cache.ttl_clamp_s,
    )


def _divergence(seed, hooked, cache_class):
    """The first op after which the two gateways differ, or ``None``."""
    reference = _gateway(hooked, _PerKeyPinCache)
    candidate = _gateway(hooked, cache_class)
    for step, op in enumerate(_generate_ops(seed)):
        expected = _apply(reference, op)
        got = _apply(candidate, op)
        if got != expected:
            return f"op {step} {op}: answers {got} != {expected}"
        mine, theirs = _cache_state(candidate.cache), _cache_state(reference.cache)
        if mine != theirs:
            return f"op {step} {op}: cache {mine} != {theirs}"
    return None


@pytest.mark.parametrize("hooked", [True, False], ids=["hooked", "hookless"])
@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_pin_matches_per_key_pins(seed, hooked):
    failure = _divergence(seed, hooked, GatewayCache)
    assert failure is None, failure


@pytest.mark.parametrize("hooked", [True, False], ids=["hooked", "hookless"])
def test_sequences_reach_the_shield_cases(hooked):
    """Pins, clamped leases and hot re-creates all happen, so the
    agreement above is not vacuous."""
    client = _gateway(hooked, _PerKeyPinCache)
    pinned = recreated_hot = clamped = 0
    for op in _generate_ops(SEEDS[0]):
        if op[0] == "create" and client.hotspots.is_hot(op[2]):
            recreated_hot += _apply(client, op) is not None
        else:
            _apply(client, op)
        pinned = max(pinned, len(client.cache.pinned_paths()))
        clamped = client.cache.stats.clamped
    assert pinned >= 5
    assert recreated_hot >= 1
    assert clamped >= 1


@pytest.mark.parametrize("hooked", [True, False], ids=["hooked", "hookless"])
def test_shield_skipping_fresh_installs_fails(hooked):
    failures = [
        seed for seed in SEEDS
        if _divergence(seed, hooked, _SkipsFreshInstalls) is not None
    ]
    assert len(failures) >= len(SEEDS) // 2, failures
