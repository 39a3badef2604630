#!/usr/bin/env python
"""CI gate: packed-bitset throughput floors + same-seed determinism diff.

Compares the freshly regenerated ``BENCH_throughput.json`` (written by
``benchmarks/test_micro_query_throughput.py``) against the checked-in
pre-overhaul baseline ``benchmarks/seed_throughput.json`` and fails the
build when the speedup of the ISSUE 9 hot-path rebuild regresses below
the floors.

Honest numbers: on the machine that produced both artifacts, the rebuild
measured **4.3x** on ``ghba_query`` mean OPS (3 255 → 13 989 ops/s) and
**5.0x** on the p50 (298.9 µs → 60.2 µs); the end-to-end mean carries an
irreducible scheduler-noise outlier tax that medians do not.  The ISSUE's
aspirational 10x target was not reachable without shrinking the workload's
mandated per-query semantics (pinned counters, RNG draws, the full L1-L4
walk), so the gate floors are set from the *measured* multiples with
margin for cross-machine noise, not from the aspiration — see
EXPERIMENTS.md ("Hot-path overhaul") for the before/after table.

The second half of the gate replays the bench workload twice with the
same seed and requires bit-identical outcomes and counters: the perf
work is only acceptable while it stays observationally invisible.

Run from the repo root (after the throughput benchmarks):

    PYTHONPATH=src python -m pytest benchmarks/test_micro_query_throughput.py -q
    PYTHONPATH=src python benchmarks/check_throughput_gate.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED_PATH = REPO_ROOT / "benchmarks" / "seed_throughput.json"
BENCH_PATH = REPO_ROOT / "BENCH_throughput.json"

#: entry -> (min mean-OPS speedup, min p50 speedup) vs the seed artifact.
#: Floors sit well under the multiples measured on the reference machine
#: (in comments) so a noisy CI runner does not flake the gate, but far
#: above 1.0 so losing the packed-bitset fast path cannot pass.
FLOORS = {
    "ghba_query": (3.0, 3.5),      # measured 4.3x mean, 5.0x p50
    "ghba_hot_path": (4.0, 4.0),   # measured 5.9x mean, 6.8x p50
    "hba_query": (2.0, 2.0),       # measured 3.4x mean, 3.4x p50
    # The gateway p50 is dominated by lease-cache hits the Bloom
    # overhaul barely touches (1.0-1.3x run to run).  The incremental
    # hotspot shield then took the per-tick hot-set rebuild and the
    # ~90 per-key pin calls off that path: p50 105 -> 47 us (2.2x) on
    # one slower machine, parent and change back to back, and 37 us
    # against this artifact's 68 us (1.8x) on another.  The floor keeps
    # the usual ~0.7 margin under 1.8x.
    "gateway_lookup": (1.5, 1.25),  # measured 2.2x mean, 1.8x p50
}

DETERMINISM_QUERIES = 3_000


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        sys.exit(
            f"missing {path.name}: run the throughput benchmarks first "
            "(see module docstring)"
        )


def check_speedups() -> list:
    seed = _load(SEED_PATH)
    bench = _load(BENCH_PATH)
    failures = []
    print(f"{'entry':<16} {'seed':>10} {'now':>10} {'mean x':>7} "
          f"{'p50 x':>7}  floors")
    for entry, (mean_floor, p50_floor) in FLOORS.items():
        if entry not in bench:
            failures.append(f"{entry}: missing from {BENCH_PATH.name}")
            continue
        before, after = seed[entry], bench[entry]
        mean_x = before["mean_ms"] / after["mean_ms"]
        p50_x = before["p50_ms"] / after["p50_ms"]
        print(
            f"{entry:<16} {before['ops_per_s']:>10.0f} "
            f"{after['ops_per_s']:>10.0f} {mean_x:>7.2f} {p50_x:>7.2f}"
            f"  >={mean_floor}/{p50_floor}"
        )
        if mean_x < mean_floor:
            failures.append(
                f"{entry}: mean speedup {mean_x:.2f}x below floor "
                f"{mean_floor}x"
            )
        if p50_x < p50_floor:
            failures.append(
                f"{entry}: p50 speedup {p50_x:.2f}x below floor {p50_floor}x"
            )
    return failures


def _run_workload() -> str:
    """One seeded pass of the bench workload; returns a state digest.

    Mirrors the ``ghba_query`` benchmark setup exactly (30 servers, the
    group-size-6 config, 6 000 paths, forced replica sync), then replays
    the first DETERMINISM_QUERIES lookups and hashes every observable:
    per-query outcome tuples and the full ghba_* counter dump.
    """
    from repro.core.cluster import GHBACluster
    from repro.core.config import GHBAConfig

    config = GHBAConfig(
        max_group_size=6,
        expected_files_per_mds=1_000,
        lru_capacity=2_000,
        lru_filter_bits=1 << 12,
        seed=9,
    )
    cluster = GHBACluster(30, config, seed=9)
    paths = [f"/tp/d{i % 11}/f{i}" for i in range(6_000)]
    cluster.populate(paths)
    cluster.synchronize_replicas(force=True)

    outcomes = []
    for index in range(DETERMINISM_QUERIES):
        result = cluster.query(paths[index % len(paths)])
        outcomes.append(
            [
                result.home_id,
                result.level.name,
                round(result.latency_ms, 9),
                result.messages,
                result.false_forwards,
            ]
        )
    counters = {}
    for family in cluster.metrics.families():
        if family.kind == "counter" and family.name.startswith("ghba_"):
            series = family.as_dict()
            if series:
                counters[family.name] = dict(sorted(series.items()))
    payload = json.dumps(
        {"outcomes": outcomes, "counters": counters},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def check_determinism() -> list:
    first = _run_workload()
    second = _run_workload()
    print(f"determinism digest: {first}")
    if first != second:
        return [
            "same-seed replays diverged: "
            f"{first[:16]}... vs {second[:16]}..."
        ]
    return []


def main() -> int:
    failures = check_speedups()
    failures += check_determinism()
    if failures:
        print("\nTHROUGHPUT GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("throughput gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
