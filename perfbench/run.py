"""Wall-clock benchmark of the G-HBA reproduction, measured from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload res_gateway_read --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` measures the end-to-end metrics: set-up is repeated
``setups`` times (median reported), an untimed warm-up prefix is
replayed, then records are replayed as fast as the program answers for
``--seconds``.  Replay timings are scaled to a reference machine speed
measured between chunks of records (``calibrate.py``), and the
benchmark keeps itself and the processes it starts on one CPU; the raw
wall-clock figures are printed beside the calibrated ones.

``--trace 1`` measures the per-layer metrics: it replays a fixed window
of records twice from fresh set-ups, once plain and once with every
layer's public functions wrapped in spans (``spans.py``), and reports
self time per layer, the layers' own counts, and the tracing overhead.  ``--workload all`` runs every workload in a fresh
process and prints their tables.

Every run audits the program's answers and final state (``checks.py``),
refuses to run when the trace generator's output no longer matches the
digests locked in ``workloads.json``, and prints a digest of the
program's deterministic counts over the fixed record window, which is
identical across runs of one seed.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for MDS processes; under the checkout, removed after use.
WORKDIR = ROOT / ".perfbench_work"
#: Records the replay hands the workload per generation step.
CHUNK = 1024


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def delta(after, before):
    return {key: value - before.get(key, 0) for key, value in after.items()}


def load_specs():
    """The workload specifications, input locks and seeds (workloads.json)."""
    return json.loads((HERE / "workloads.json").read_text())


def lock_violations(workload, name: str, specs) -> list:
    from checks import check_lock

    actual = workload.input_digest(specs["default_seed"], specs["lock_records"])
    return check_lock(name, specs["workloads"][name]["input_digest"], actual)


def replay_window(workload, stream, stats, count: int, calibrated: bool = True) -> None:
    """Feed exactly ``count`` records in untimed chunks.

    When ``calibrated``, the calibration kernel runs between chunks and
    each chunk's program time and sample-list positions are recorded for
    ``calibrate.apply``.
    """
    while count > 0:
        chunk = list(itertools.islice(stream, min(CHUNK, count)))
        if not chunk:
            raise RuntimeError("record stream ended early")
        count -= len(chunk)
        if not calibrated:
            workload.replay(chunk, stats)
            continue
        if not stats.kernel_s:
            with stats.aside("bench.calibrate"):
                stats.kernel_s.append(calibrate.sample())
        marks = [len(stats.lookup_us), len(stats.mutation_us), len(stats.rename_us)]
        program_s = stats.program_s
        workload.replay(chunk, stats)
        stats.chunks.append((stats.program_s - program_s, marks))
        with stats.aside("bench.calibrate"):
            stats.kernel_s.append(calibrate.sample())


def measure_end_to_end(make, spec, setups_per_run: int, seed: int, seconds: float):
    """One ``--trace 0`` run; returns (stats, metrics, notes, digest)."""
    from checks import digest
    from workloads import Stats

    setups = []
    stats = Stats()
    workload = make()
    try:
        for _ in range(setups_per_run):
            gc.collect()
            setups.append(workload.setup(seed))
        base = workload.counts()
        stream = workload.records(seed)
        replay_window(workload, stream, Stats(), spec["warmup_records"], False)
        started = time.perf_counter()
        replay_window(workload, stream, stats, spec["window_records"])
        counts_digest = digest(delta(workload.counts(), base))
        while time.perf_counter() - started < seconds:
            replay_window(workload, stream, stats, CHUNK)
        workload.finish(stats)
    finally:
        workload.close()
    calibrate.apply(stats)
    metrics, notes = end_to_end_metrics(stats, setups)
    return stats, metrics, notes, counts_digest


def end_to_end_metrics(stats, setups):
    """The end-to-end metrics of one run, and the sample counts and raw
    (uncalibrated) values printed beside them.

    Set-up times are reported as measured: a set-up is about a second of
    allocation-heavy work that the kernel samples do not track (scaling
    it widened its spread across runs instead of narrowing it)."""
    metrics = {
        "throughput_ops_s": (stats.completed / stats.calibrated_s, "1/s"),
        "lookup_p50_us": (percentile(stats.lookup_us, 50), "us"),
        "lookup_p99_us": (percentile(stats.lookup_us, 99), "us"),
        "mutation_p50_us": (percentile(stats.mutation_us, 50), "us"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "throughput_ops_s": f"n={stats.completed}, "
        f"raw {stats.completed / stats.program_s:.6g}",
        "lookup_p50_us": f"n={len(stats.lookup_us)}",
        "lookup_p99_us": f"n={len(stats.lookup_us)}",
        "mutation_p50_us": f"n={len(stats.mutation_us)}",
        "setup_s": f"n={len(setups)}, uncalibrated",
    }
    return metrics, notes


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder, counts, totals, stats, plain):
    """The per-layer metrics of one traced window, from the span recorder
    and the program's counts over the window (``totals``: at its end).

    Self times are scaled by the window's mean calibration factor."""
    r = recorder
    scale = _ratio(stats.calibrated_s, stats.program_s)
    t = r.tallies
    calls = r.calls
    cache_probes = (
        counts.get("cache.hits", 0)
        + counts.get("cache.negative_hits", 0)
        + counts.get("cache.misses", 0)
    )
    queries = calls.get("core.query", 0)
    flushes = calls.get("core.apply_mutation_batch", 0)
    aside_ns = r.total_ns.get("bench.audit", 0) + r.total_ns.get("bench.calibrate", 0)
    loop_s = (r.total_ns["bench.harness"] - aside_ns) / 1e9
    harness_s = r.self_s("bench.harness")
    wire_bytes = counts.get("bytes_in", 0) + counts.get("bytes_out", 0)
    metrics = {name: (r.self_s(name) * scale, "s") for name in (
        "gateway", "gateway.shield", "gateway.cache", "gateway.coalesce",
        "gateway.admission", "gateway.writeback", "core.query",
        "core.group.multicast_query", "core.verify_batch",
        "core.apply_mutation_batch", "core.insert", "core.delete",
        "core.rename", "bloom.lru_array", "bloom.segment_array",
        "net.codec.encode", "net.codec.decode", "net.tcp.request",
        "bench.harness",
    )}
    metrics = {f"{name}.self_s": value for name, value in metrics.items()}
    metrics.update({
        "gateway.shield.pin_calls_per_tick": (
            _ratio(t.get("gateway.shield.pin_calls", 0), stats.ticks), "1/tick"),
        "gateway.cache.hit_ratio": (
            _ratio(counts.get("cache.hits", 0) + counts.get("cache.negative_hits", 0),
                   cache_probes), "ratio"),
        "gateway.cache.evictions": (counts.get("cache.evictions", 0), "count"),
        "gateway.coalesce.coalesced_ratio": (
            _ratio(counts.get("gateway_coalesced_total{}", 0),
                   stats.lookups_completed), "ratio"),
        "gateway.backend_queries_per_lookup": (
            _ratio(counts.get("gateway.backend_queries", 0),
                   counts.get("admission.submitted", 0)), "ratio"),
        "gateway.admission.queued": (counts.get("admission.queued", 0), "count"),
        "gateway.admission.shed": (counts.get("admission.shed", 0), "count"),
        "gateway.writeback.flush_batches": (
            counts.get("gateway_writeback_flush_batches_total{}", 0), "count"),
        "gateway.writeback.mutations_per_flush": (
            _ratio(t.get("core.apply_mutation_batch.mutations", 0), flushes), "count"),
        "gateway.writeback.overlay_hits": (
            counts.get("gateway_writeback_overlay_hits_total{}", 0), "count"),
        "core.query.calls": (queries, "count"),
        "core.query.messages_per_query": (
            _ratio(t.get("core.query.messages", 0), queries), "count"),
        "core.query.false_forwards": (t.get("core.query.false_forwards", 0), "count"),
        "core.verify_batch.keys_per_call": (
            _ratio(t.get("core.verify_batch.keys", 0),
                   calls.get("core.verify_batch", 0)), "count"),
        "core.apply_mutation_batch.conflicts": (
            t.get("core.apply_mutation_batch.conflicts", 0), "count"),
        "core.rename.records_per_record_scanned": (
            _ratio(t.get("core.rename.renamed", 0), t.get("core.rename.scanned", 0)),
            "ratio"),
        "core.rename.p50_us": (
            percentile(plain.rename_us, 50) if plain.rename_us else 0.0, "us"),
        "net.bytes_per_rpc": (_ratio(wire_bytes, counts.get("rpcs", 0)), "B"),
        "net.retries": (counts.get("retries", 0), "count"),
        "net.connect_retries": (counts.get("connect_retries", 0), "count"),
        "net.queue_high_water": (totals.get("queue_high_water", 0), "count"),
        "bench.unattributed_share": (_ratio(harness_s, loop_s), "ratio"),
        "bench.tracing_overhead": (
            _ratio(stats.calibrated_s, plain.calibrated_s), "ratio"),
    })
    for level in ("L1", "L2", "L3", "L4"):
        metrics[f"core.query.level_share.{level}"] = (
            _ratio(t.get(f"core.query.level.{level}", 0), queries), "ratio")
    return metrics


def traced_window(make, spec, seed: int, stats):
    """Set up afresh, warm up, then replay the fixed record window, with
    the layers traced when ``stats.recorder`` is set.  Returns the
    program's counts over the window, its counts at the end, and the
    digest of its counts since set-up."""
    from checks import digest
    from spans import layers_traced
    from workloads import Stats

    recorder = stats.recorder
    workload = make()
    try:
        workload.setup(seed)
        base = workload.counts()
        stream = workload.records(seed)
        replay_window(workload, stream, Stats(), spec["warmup_records"], False)
        before = workload.counts()
        window = spec["window_records"]
        records = iter(list(itertools.islice(stream, window)))
        if recorder is None:
            replay_window(workload, records, stats, window)
        else:
            with layers_traced(recorder):
                root = recorder.enter("bench.harness")
                replay_window(workload, records, stats, window)
                recorder.exit(root)
        after = workload.counts()
        workload.finish(stats)
    finally:
        workload.close()
    calibrate.apply(stats)
    return delta(after, before), after, digest(delta(after, base))


def measure_layers(make, spec, seed: int):
    """One ``--trace 1`` run; returns (stats, metrics, notes, digest)."""
    from spans import SpanRecorder
    from workloads import Stats

    plain = Stats()
    _, _, plain_digest = traced_window(make, spec, seed, plain)
    gc.collect()
    recorder = SpanRecorder()
    stats = Stats(recorder=recorder)
    counts, totals, traced_digest = traced_window(make, spec, seed, stats)
    stats.violations.extend(plain.violations)
    if traced_digest != plain_digest:
        stats.violations.append(
            f"tracing changed the program's counts ({traced_digest} traced, "
            f"{plain_digest} plain)"
        )
    metrics = layer_metrics(recorder, counts, totals, stats, plain)
    notes = {
        "core.rename.p50_us": f"n={len(plain.rename_us)}",
        "bench.tracing_overhead": f"raw {_ratio(stats.program_s, plain.program_s):.6g}",
    }
    return stats, metrics, notes, traced_digest


def pin_to_one_cpu() -> None:
    """Keep the benchmark, its threads and the processes it starts on one
    CPU: moving between the cores of a shared VM, and waking a peer on
    another core, are the largest sources of run-to-run spread."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args, specs) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    pin_to_one_cpu()
    from workloads import make_workload

    spec = specs["workloads"][args.workload]
    make = lambda: make_workload(args.workload, spec, WORKDIR / args.workload)  # noqa: E731
    refused = lock_violations(make(), args.workload, specs)
    if refused:
        for line in refused:
            print(f"REFUSED: {line}", file=sys.stderr)
        return 3
    try:
        if args.trace:
            stats, metrics, notes, counts_digest = measure_layers(
                make, spec, args.seed
            )
        else:
            stats, metrics, notes, counts_digest = measure_end_to_end(
                make, spec, specs["setups"], args.seed, args.seconds
            )
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"== {args.workload}  seed {args.seed}  {mode} ==")
    print(f"loop: {spec['loop']}")
    print(f"sizes: {spec['sizes']}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        suffix = f"  ({note})" if note is not None else ""
        print(f"  {name:44s} {value:14.6g} {unit}{suffix}")
    print(f"records {stats.records}  attempted {stats.attempted}  "
          f"failed {stats.failed}  violations {len(stats.violations)}")
    print(f"counts digest: {counts_digest}")
    for violation in stats.violations[:20]:
        print(f"VIOLATION: {violation}")
    correct = not stats.violations
    print(json.dumps({
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def run_all(args, specs) -> int:
    """Every workload, each in a fresh process; their tables, in order."""
    status = 0
    for name in specs["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        print("\n".join(proc.stdout.splitlines()[:-1]))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    specs = load_specs()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*specs["workloads"], "all"]
    )
    parser.add_argument("--seed", type=int, default=specs["default_seed"])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run = run_all if args.workload == "all" else run_one
    return run(args, specs)


if __name__ == "__main__":
    sys.exit(main())
