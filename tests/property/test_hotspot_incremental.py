"""Property tests: the incremental hotspot detector vs the frozen oracle.

:class:`repro.gateway.hotspot.HotspotDetector` keeps its hot set per
observation and evicts through a lazy-deletion heap;
``tests/_reference_hotspot.py`` is the original detector, which scans
for the minimum counter and rebuilds the hot set from both epoch
sketches on every query.  Each seed generates a Zipf key stream over a
small key universe with a small sketch capacity (so evictions and count
ties are frequent, and the heap is compacted many times), at timestamps
that cross one or several epoch rotations.  After **every** observation
the two detectors must agree on:

- ``hot_keys()`` and ``is_hot`` for every key of the universe;
- ``top_k`` over more keys than both sketches hold;
- every per-key count and error of both epoch sketches, the sketches'
  ``observed`` totals and the rotation count.

On failure the harness shrinks the op sequence (``tests/property/_shrink.py``)
before asserting.  ``test_detector_keeping_evicted_victims_fails`` is the
non-vacuity twin: a detector that never drops an evicted victim from the
hot set must fail the same harness.
"""

import random

import pytest

from repro.gateway.hotspot import HotspotDetector

from tests._reference_hotspot import HotspotDetector as ReferenceDetector
from tests.property._shrink import shrink

SEEDS = range(24)


def _params(seed):
    rng = random.Random(seed * 7919 + 1)
    return {
        "capacity": rng.randrange(2, 7),
        "window_s": 1.0,
        "hot_threshold": rng.randrange(2, 7),
        "universe": rng.randrange(8, 24),
    }


def _generate_ops(seed, params, length=400):
    """Zipf-distributed ``(now, key)`` observations.  Each op carries its
    own timestamp, so any subsequence replays deterministically."""
    rng = random.Random(seed)
    keys = [f"/k{index:02d}" for index in range(params["universe"])]
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(keys))]
    ops = []
    now = 0.0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.01:
            now += 2.0 + rng.random() * 2.0  # idle gap: several rotations
        elif roll < 0.05:
            now += 0.3 + rng.random() * 0.7
        else:
            now += rng.random() * 0.02
        ops.append((round(now, 6), rng.choices(keys, weights)[0]))
    return ops


def _sketch_state(sketch):
    return (sketch.observed, dict(sketch._counts), dict(sketch._errors))


def _compare(detector, reference, universe):
    """A description of the first disagreement, or ``None``."""
    if detector.hot_keys() != reference.hot_keys():
        return f"hot_keys {detector.hot_keys()} != {reference.hot_keys()}"
    for key in universe:
        if detector.is_hot(key) != reference.is_hot(key):
            return f"is_hot({key}) {detector.is_hot(key)}"
    depth = 4 * detector.capacity
    if detector.top_k(depth) != reference.top_k(depth):
        return f"top_k {detector.top_k(depth)} != {reference.top_k(depth)}"
    for epoch in ("_current", "_previous"):
        mine = _sketch_state(getattr(detector, epoch))
        theirs = _sketch_state(getattr(reference, epoch))
        if mine != theirs:
            return f"{epoch} sketch {mine} != {theirs}"
    if detector.rotations != reference.rotations:
        return f"rotations {detector.rotations} != {reference.rotations}"
    return None


def _run(params, ops, factory=HotspotDetector):
    """Replay ``ops`` through both detectors; ``(step, failure)`` at the
    first disagreement, or ``None``."""
    config = {
        "capacity": params["capacity"],
        "window_s": params["window_s"],
        "hot_threshold": params["hot_threshold"],
    }
    detector = factory(**config)
    reference = ReferenceDetector(**config)
    universe = [f"/k{index:02d}" for index in range(params["universe"])]
    universe.append("/never-seen")
    for step, (now, key) in enumerate(ops):
        detector.observe(key, now)
        reference.observe(key, now)
        failure = _compare(detector, reference, universe)
        if failure is not None:
            return step, f"after op {step} ({key!r} at {now}): {failure}"
    return None


def _check(seed, factory=HotspotDetector):
    params = _params(seed)
    ops = _generate_ops(seed, params)
    failure = _run(params, ops, factory)
    if failure is None:
        return None
    # Later ops cannot matter: shrink the prefix that already fails.
    step, _ = failure
    minimal = shrink(
        ops[: step + 1], lambda c: _run(params, c, factory) is not None
    )
    return (
        f"seed {seed} {params}: {_run(params, minimal, factory)[1]}\n"
        f"minimal ops ({len(minimal)}): {minimal}"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_detector_matches_reference(seed):
    failure = _check(seed)
    assert failure is None, failure


def test_streams_exercise_evictions_ties_and_rotations():
    """The generated streams reach the cases the heap and the hot-set
    bookkeeping must handle; otherwise the agreement above is vacuous."""
    evictions = ties = rotations = hot_evictions = 0
    for seed in SEEDS:
        params = _params(seed)
        reference = ReferenceDetector(
            capacity=params["capacity"],
            window_s=params["window_s"],
            hot_threshold=params["hot_threshold"],
        )
        for now, key in _generate_ops(seed, params):
            reference._maybe_rotate(now)
            counts = reference._current._counts
            if key not in counts and len(counts) == reference.capacity:
                evictions += 1
                floor = min(counts.values())
                ties += sum(1 for c in counts.values() if c == floor) > 1
                victim = min(counts, key=lambda k: (counts[k], k))
                hot_evictions += reference.is_hot(victim)
            reference.observe(key, now)
        rotations += reference.rotations
    assert evictions > 1000
    assert ties > 100
    assert hot_evictions > 10
    assert rotations > 100


class _KeepsEvictedVictims(HotspotDetector):
    """Seeded bug: an evicted victim stays in the hot set even when its
    remaining (previous-epoch) estimate is below the threshold."""

    def observe(self, key, now):
        self._maybe_rotate(now)
        self._current.offer(key)
        if self.estimate(key) >= self.hot_threshold:
            self._hot.add(key)


def test_detector_keeping_evicted_victims_fails():
    for seed in SEEDS:
        params = _params(seed)
        ops = _generate_ops(seed, params)
        assert _run(params, ops, _KeepsEvictedVictims) is not None, seed
    # The shrunk reproducer is small enough to read.
    report = _check(SEEDS[0], _KeepsEvictedVictims)
    assert report.count("), (") < 20, report
