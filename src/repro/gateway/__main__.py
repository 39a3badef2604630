"""CLI for the gateway tier.

Usage::

    python -m repro.gateway bench --seed 7
    python -m repro.gateway bench --servers 20 --files 4000 --ops 6000 \\
        --clients 8 --profile HP --chaos --json gateway.json
    python -m repro.gateway bench --cohort 4 --json BENCH_cohort.json
    python -m repro.gateway bench --writeback
    python -m repro.gateway bench --tenants 4

``bench`` replays a synthetic :mod:`repro.traces` workload through a pool
of concurrent clients fronted by one :class:`~repro.gateway.client.
MetadataClient`, while a *mirror* cluster (identical seed and
configuration) serves the same lookups directly — the no-gateway
baseline.  The report prints cache hit rate, backend-query reduction
(direct queries / gateway backend requests), shed rate, latency
percentiles and the hotspot table, and audits **every** cache-served
answer against the live cluster (zero stale reads is an invariant, not a
statistic).

``bench --cohort N`` switches to the distributed-cohort experiment: N
gateways front the fleet, kept coherent by the invalidation multicast of
:mod:`repro.gateway.cohort` under a seeded fault plan (message loss,
delays, duplicates, and a mid-run partition islanding half the
gateways).  The baseline is N *independent* gateways replaying the same
trace with their lease TTL clamped to the cohort's staleness bound — the
only way an invalidation-free deployment can promise the same bound.
Both sides are audited by the shared
:class:`~repro.gateway.staleness.StalenessAuditor`; the report shows
staleness p99, invalidation traffic, and backend-query reduction, and
the bench exits nonzero on any staleness-bound violation.

``bench --writeback`` compares mutation cost across gateway write modes:
one trace replayed twice (identical fleet, crash windows and create
placements), once with synchronous write-through mutations and once with
the write-back buffer of :mod:`repro.gateway.writeback`.  The report
shows backend mutation-RPC reduction and client-perceived mutation
latency, and audits both replays against an acknowledgement oracle —
every acked mutation durable, nothing unacked silently absorbed, zero
divergences.  The gate (exit nonzero otherwise) is a >= 1.5x mutation-RPC
reduction with zero divergences and zero stale reads.

``bench --tenants N`` runs the multi-tenant admission sweep of
:mod:`repro.gateway.tenant_bench`: a Zipf tenant mixture (tenant ``u0``
the noisy neighbour) replayed at every ``--trace-rate`` sweep point
through the fair per-tenant controller, the legacy global bucket, and
per-tenant solo baselines.  The artifact ``BENCH_tenants.json`` records
per-tenant goodput/shed/latency, Jain's fairness index and the
determinism digest; the gates (exit nonzero otherwise) are Jain >= 0.9,
zero starved tenants, the noisy tenant capped at its weighted share,
every quiet tenant within 10% of its solo goodput — with the global
bucket demonstrably failing that bound — and a bit-identical repeat
replay.

Everything runs on seeded RNGs and virtual time, so the same arguments
always produce byte-identical reports — including under ``--chaos``,
which runs the replay beneath a seeded fault plan (message loss plus a
mid-run group partition).
"""

from __future__ import annotations

import argparse
import json
import random
import tempfile
from typing import Dict, List, Optional, Set, Tuple

from repro.bench import percentile, run_metadata
from repro.core.cluster import GHBACluster, MutationEvent
from repro.core.config import GHBAConfig
from repro.faults.injector import PlanFaultInjector
from repro.faults.plan import FaultPlan, Partition
from repro.gateway.client import GatewayConfig, MetadataClient, Outcome
from repro.gateway.cohort import CohortConfig, GatewayCohort
from repro.gateway.staleness import StalenessAuditor
from repro.gateway.tenant_bench import render_tenant_bench, run_tenant_bench
from repro.obs.report import gateway_hotspot_report
from repro.traces.profiles import PROFILES
from repro.traces.records import MetadataOp
from repro.traces.synthetic import SyntheticTraceGenerator


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _obs_from_args(args):
    """(tracer, flight) from ``--trace-out`` / ``--flight-dir``."""
    tracer = None
    flight = None
    if getattr(args, "trace_out", None):
        from repro.obs.trace import CollectingTracer

        tracer = CollectingTracer()
    if getattr(args, "flight_dir", None):
        from repro.obs.flight import FlightRecorderHub

        flight = FlightRecorderHub(dump_dir=args.flight_dir)
    return tracer, flight


def _finish_obs(args, tracer, flight) -> None:
    """Write the span JSONL and summarize flight dumps after a bench."""
    if tracer is not None:
        from repro.obs.export import write_spans_jsonl

        written = write_spans_jsonl(tracer.finished_spans(), args.trace_out)
        print(f"wrote {written} spans to {args.trace_out}")
    if flight is not None:
        print(
            f"flight recorder: {len(flight.dumps)} dump(s) in "
            f"{args.flight_dir}"
        )


def _build_cluster(args, faulted: bool, tracer=None) -> GHBACluster:
    config = GHBAConfig(
        max_group_size=args.group_size,
        expected_files_per_mds=max(256, args.files * 3 // args.servers),
        lru_capacity=max(256, args.files // 4),
        lru_filter_bits=1 << 12,
        seed=args.seed,
    )
    faults = None
    if faulted and args.chaos:
        island = frozenset(range(min(args.group_size, args.servers // 2)))
        plan = FaultPlan(
            seed=args.seed,
            drop_rate=0.02,
            partitions=(
                Partition(
                    start_s=args.chaos_start_s,
                    end_s=args.chaos_start_s + args.chaos_window_s,
                    island=island,
                ),
            ),
        )
        faults = PlanFaultInjector(plan)
    return GHBACluster(
        args.servers, config, seed=args.seed, tracer=tracer, faults=faults
    )


def run_bench(args, tracer=None, flight=None) -> Dict[str, object]:
    """Replay the workload through gateway + direct mirror; return stats."""
    profile = PROFILES[args.profile]
    generator = SyntheticTraceGenerator(
        profile, num_files=args.files, seed=args.seed
    )
    records = list(generator.generate(args.ops))

    gateway_cluster = _build_cluster(args, faulted=True, tracer=tracer)
    direct_cluster = _build_cluster(args, faulted=False)
    for cluster in (gateway_cluster, direct_cluster):
        cluster.populate(generator.paths)
        cluster.synchronize_replicas(force=True)

    gateway = MetadataClient(
        gateway_cluster,
        GatewayConfig(
            cache_capacity=args.cache_capacity,
            lease_ttl_s=args.lease_ttl_s,
            rate_per_s=args.rate_per_s,
            burst=max(args.clients * 4.0, 64.0),
            hot_threshold=args.hot_threshold,
        ),
        tracer=tracer,
        flight=flight,
    )

    latencies: List[float] = []
    direct_latencies: List[float] = []
    outcomes: Dict[str, int] = {}
    stale_reads = 0
    mismatches = 0
    direct_queries = 0
    degraded_answers = 0

    def audit(response) -> None:
        """Zero-stale-read invariant: cache answers match live state."""
        nonlocal stale_reads
        if not response.from_cache:
            return
        live_home = gateway_cluster.home_of(response.path)
        if response.outcome is Outcome.NEGATIVE_HIT or (
            response.outcome is Outcome.COALESCED
            and response.home_id is None
        ):
            if live_home is not None:
                stale_reads += 1
            return
        if live_home != response.home_id:
            stale_reads += 1
            return
        live_record = gateway_cluster.servers[live_home].store.get(
            response.path
        )
        if live_record != response.record:
            stale_reads += 1

    # Replay in ticks of ``clients`` concurrent requests.  Mutations
    # (create / unlink / rename) apply to both clusters so the mirror
    # stays equivalent; lookups fan through the gateway pipeline on one
    # side and hit the cluster directly on the other.
    tick: List = []
    now = 0.0

    def flush_tick() -> None:
        nonlocal direct_queries, degraded_answers, mismatches
        if not tick:
            return
        paths = [record.path for record in tick]
        responses = gateway.lookup_many(paths, now)
        for response in responses:
            outcomes[response.outcome.value] = (
                outcomes.get(response.outcome.value, 0) + 1
            )
            if not response.outcome.is_answer:
                continue
            latencies.append(response.latency_ms)
            if response.degraded:
                degraded_answers += 1
            audit(response)
        # The no-gateway baseline pays one full walk per lookup.
        answered = {r.path: r for r in responses if r.outcome.is_answer}
        for path in paths:
            direct = direct_cluster.query(path)
            direct_queries += 1
            direct_latencies.append(direct.latency_ms)
            response = answered.get(path)
            if (
                response is not None
                and not response.degraded
                and not direct.degraded
                and response.home_id != direct.home_id
            ):
                mismatches += 1
        tick.clear()

    for record in records:
        if gateway_cluster.faults.enabled:
            gateway_cluster.faults.advance(record.timestamp)
        if record.op.is_lookup:
            tick.append(record)
            if len(tick) >= args.clients:
                now = record.timestamp
                flush_tick()
            continue
        now = record.timestamp
        flush_tick()
        if record.op is MetadataOp.CREATE:
            created = gateway.create(record.path, now)
            # Pin the mirror's placement: the clusters' RNG streams have
            # diverged (queries draw origins), so an independent draw
            # would scatter the same file onto different homes.
            direct_cluster.insert_file(
                gateway_cluster.servers[created.home_id].store.get(
                    record.path
                ),
                home_id=created.home_id,
            )
        elif record.op is MetadataOp.UNLINK:
            gateway.delete(record.path, now)
            direct_cluster.delete_file(record.path)
        elif record.op is MetadataOp.RENAME:
            gateway.rename(record.path, record.new_path, now)
            direct_cluster.rename_subtree(record.path, record.new_path)
    now = records[-1].timestamp if records else 0.0
    flush_tick()
    # Drain the admission queue to a quiescent state.
    for step in range(1, 11):
        drained = gateway.pump(now + step * gateway.config.queue_deadline_s)
        for response in drained:
            outcomes[response.outcome.value] = (
                outcomes.get(response.outcome.value, 0) + 1
            )
            if response.outcome.is_answer:
                latencies.append(response.latency_ms)
                audit(response)
        if gateway.admission.queue_depth == 0:
            break

    submitted = gateway.admission.stats.submitted
    shed = gateway.admission.stats.shed
    backend = gateway.backend_queries
    reduction = direct_queries / backend if backend else float("inf")
    gateway.refresh_gauges()
    return {
        "seed": args.seed,
        "profile": args.profile,
        "servers": args.servers,
        "clients": args.clients,
        "ops": len(records),
        "lookups_submitted": submitted,
        "hit_rate": round(gateway.hit_rate(), 4),
        "backend_queries": backend,
        "direct_queries": direct_queries,
        "backend_reduction": round(reduction, 3),
        "shed": shed,
        "shed_rate": round(shed / submitted, 4) if submitted else 0.0,
        "stale_reads": stale_reads,
        "home_mismatches": mismatches,
        "degraded_answers": degraded_answers,
        "chaos": bool(args.chaos),
        "outcomes": {k: outcomes[k] for k in sorted(outcomes)},
        "p50_ms": round(percentile(latencies, 50), 4),
        "p99_ms": round(percentile(latencies, 99), 4),
        "direct_p50_ms": round(percentile(direct_latencies, 50), 4),
        "direct_p99_ms": round(percentile(direct_latencies, 99), 4),
        "hotspots": [
            {"path": h.key, "count": h.count, "error": h.error}
            for h in gateway.top_hotspots(args.top)
        ],
        "_gateway": gateway,  # stripped before serialization
    }


def _writeback_crash_windows(
    duration_s: float, servers: int
) -> List[Tuple[float, float, int]]:
    """Deterministic mid-trace MDS outages for the write-back bench.

    Two non-overlapping windows, each silencing one home MDS for ~10% of
    the trace.  Both end well before the trace does, so deferred flushes
    retry to acknowledgement and the final barrier reports zero losses —
    the loss path itself is exercised by the integration tests.
    """
    if duration_s <= 0 or servers < 3:
        return []
    return [
        (duration_s * 0.30, duration_s * 0.40, 1),
        (duration_s * 0.55, duration_s * 0.65, 2),
    ]


def _oracle_rename(oracle: Set[str], old_prefix: str, new_prefix: str) -> None:
    """Mirror ``rename_subtree`` boundary semantics on the oracle set."""
    victims = [
        path
        for path in oracle
        if path == old_prefix or path.startswith(old_prefix + "/")
    ]
    for path in victims:
        oracle.discard(path)
        oracle.add(new_prefix + path[len(old_prefix):])


def _replay_mutation_trace(
    args,
    records,
    population: List[str],
    writeback: bool,
    windows: List[Tuple[float, float, int]],
    placements: Dict[int, int],
    tracer=None,
    flight=None,
) -> Dict[str, object]:
    """One mode's replay: full trace through a gateway, oracle alongside.

    The oracle is an in-memory namespace of *acknowledged* state: it
    applies write-through mutations synchronously and write-back
    mutations at flush-ack (renames are synchronous in both modes).  At
    the end-of-trace barrier the fleet must equal the oracle exactly —
    every acknowledged mutation durable, nothing unacked silently
    absorbed.
    """
    config = GHBAConfig(
        max_group_size=args.group_size,
        expected_files_per_mds=max(256, args.files * 3 // args.servers),
        lru_capacity=max(256, args.files // 4),
        lru_filter_bits=1 << 12,
        seed=args.seed,
    )
    plan = FaultPlan(seed=args.seed, drop_rate=0.02 if args.chaos else 0.0)
    injector = PlanFaultInjector(plan, flight=flight)
    # The fleet shares the tracer so MDS-side arbitration spans
    # (wb_arbitrate) land in the same causal trees as the gateway hops.
    cluster = GHBACluster(
        args.servers, config, seed=args.seed, tracer=tracer, faults=injector
    )
    cluster.populate(population)
    cluster.synchronize_replicas(force=True)
    client = MetadataClient(
        cluster,
        GatewayConfig(
            cache_capacity=args.cache_capacity,
            lease_ttl_s=args.lease_ttl_s,
            rate_per_s=args.rate_per_s,
            burst=max(args.clients * 4.0, 64.0),
            hot_threshold=args.hot_threshold,
            writeback=writeback,
            flush_max_pending=args.flush_max_pending,
            flush_age_s=args.flush_age_s,
            writeback_seed=args.seed,
        ),
        tracer=tracer,
        flight=flight,
    )

    oracle: Set[str] = set(population)
    if writeback:
        def on_ack(mutation, outcome) -> None:
            if outcome is None or not outcome.applied:
                return  # lost or conflicted: never acknowledged
            if mutation.op == "create":
                oracle.add(mutation.path)
            else:
                oracle.discard(mutation.path)

        client.add_ack_listener(on_ack)

    mutation_latencies: List[float] = []
    stale_reads = 0
    overlay_mismatches = 0

    def audit(response) -> None:
        nonlocal stale_reads, overlay_mismatches
        if response.from_overlay:
            # Read-your-writes: the answer must match the pending intent,
            # not the (behind) fleet.
            pending = (
                client.writeback.get(response.path)
                if client.writeback is not None
                else None
            )
            if pending is None or (
                (pending.op == "create") != response.found
            ):
                overlay_mismatches += 1
            return
        if not response.from_cache:
            return
        live_home = cluster.home_of(response.path)
        if live_home != response.home_id:
            stale_reads += 1

    for index, record in enumerate(records):
        now = record.timestamp
        injector.advance(now)
        for start, end, server_id in windows:
            if start <= now < end:
                injector.silence(server_id)
            else:
                injector.restore(server_id)
        if record.op.is_lookup:
            audit(client.lookup(record.path, now))
        elif record.op is MetadataOp.CREATE:
            response = client.create(
                record.path, now, home_id=placements[index]
            )
            mutation_latencies.append(response.latency_ms)
            if not writeback:
                oracle.add(record.path)
        elif record.op is MetadataOp.UNLINK:
            response = client.delete(record.path, now)
            mutation_latencies.append(response.latency_ms)
            if not writeback or response.outcome is not Outcome.BUFFERED:
                # Write-through, or a write-back passthrough delete (no
                # routing lease during a degraded multicast): applied
                # synchronously, so the oracle learns it here, not at ack.
                oracle.discard(record.path)
        elif record.op is MetadataOp.RENAME:
            client.rename(record.path, record.new_path, now)
            _oracle_rename(oracle, record.path, record.new_path)

    end_of_trace = records[-1].timestamp if records else 0.0
    for _, _, server_id in windows:
        injector.restore(server_id)
    lost = 0
    if writeback:
        client.flush_barrier(end_of_trace)
        lost = len(client.lost_mutations)
    fleet = {
        meta.path
        for server in cluster.servers.values()
        for meta in server.store.records()
    }
    wb = {key: counter for key, counter in client._wb.items()}
    return {
        "mutation_rpcs": client.backend_mutations,
        "mutation_p50_ms": round(percentile(mutation_latencies, 50), 4),
        "mutation_p99_ms": round(percentile(mutation_latencies, 99), 4),
        "oracle_divergences": len(fleet ^ oracle),
        "stale_reads": stale_reads,
        "overlay_mismatches": overlay_mismatches,
        "lost_reported": lost,
        "flush_batches": int(wb["flush_batches"].value),
        "flush_retries": int(wb["retries"].value),
        "absorbed": int(wb["absorbed"].value),
        "overlay_hits": int(wb["overlay_hits"].value),
        "conflicts": int(wb["conflicts"].value),
        "deferred": int(wb["deferred"].value),
        "fleet": fleet,  # stripped before serialization
    }


def run_writeback_bench(args, tracer=None, flight=None) -> Dict[str, object]:
    """Write-through vs write-back on one trace: RPCs, latency, losses.

    Both replays see the identical op stream, MDS fleet, crash windows
    and create placements (drawn from a bench-level RNG and passed as
    explicit home hints), so the end-of-run namespaces must match each
    other *and* each mode's acknowledgement oracle exactly.
    """
    profile = PROFILES[args.profile]
    generator = SyntheticTraceGenerator(
        profile, num_files=args.files, seed=args.seed
    )
    records = list(generator.generate(args.ops))
    duration = records[-1].timestamp if records else 0.0
    windows = _writeback_crash_windows(duration, args.servers)
    placement_rng = random.Random(args.seed ^ 0x57B0)
    placements = {
        index: placement_rng.randrange(args.servers)
        for index, record in enumerate(records)
        if record.op is MetadataOp.CREATE
    }

    through = _replay_mutation_trace(
        args, records, generator.paths, False, windows, placements
    )
    # Observability rides on the mode under study only: the write-through
    # baseline stays plain so its replay is untouched by --trace-out.
    back = _replay_mutation_trace(
        args,
        records,
        generator.paths,
        True,
        windows,
        placements,
        tracer=tracer,
        flight=flight,
    )
    cross_mode = len(through.pop("fleet") ^ back.pop("fleet"))  # type: ignore[arg-type]
    wb_rpcs = back["mutation_rpcs"]
    reduction = (
        through["mutation_rpcs"] / wb_rpcs if wb_rpcs else float("inf")
    )
    mutations = sum(1 for r in records if r.op.mutates_namespace)
    return {
        "seed": args.seed,
        "profile": args.profile,
        "servers": args.servers,
        "ops": len(records),
        "mutations": mutations,
        "chaos": bool(args.chaos),
        "crash_windows": len(windows),
        "writethrough": through,
        "writeback": back,
        "mutation_rpc_reduction": round(reduction, 3),
        "mode_namespace_divergence": cross_mode,
    }


def render_writeback_bench(stats: Dict[str, object]) -> str:
    through: Dict[str, object] = stats["writethrough"]  # type: ignore[assignment]
    back: Dict[str, object] = stats["writeback"]  # type: ignore[assignment]
    return "\n".join(
        [
            "== gateway write-back bench ==",
            f"workload                : {stats['profile']} x {stats['ops']} ops "
            f"({stats['mutations']} mutations), seed {stats['seed']}, "
            f"{stats['crash_windows']} crash windows"
            + (" (chaos)" if stats["chaos"] else ""),
            f"mutation RPCs           : write-through {through['mutation_rpcs']} "
            f"vs write-back {back['mutation_rpcs']}",
            f"mutation RPC reduction  : x{stats['mutation_rpc_reduction']:.2f}",
            f"mutation p50/p99 ms     : write-through "
            f"{through['mutation_p50_ms']:.4f} / {through['mutation_p99_ms']:.4f}"
            f" vs write-back {back['mutation_p50_ms']:.4f} / "
            f"{back['mutation_p99_ms']:.4f}",
            f"flush batches (retries) : {back['flush_batches']} "
            f"({back['flush_retries']})",
            f"absorbed / overlay hits : {back['absorbed']} / "
            f"{back['overlay_hits']}",
            f"conflicts / deferred    : {back['conflicts']} / "
            f"{back['deferred']}",
            f"losses reported         : {back['lost_reported']}",
            f"oracle divergences      : write-through "
            f"{through['oracle_divergences']}, write-back "
            f"{back['oracle_divergences']}",
            f"cross-mode divergence   : {stats['mode_namespace_divergence']}",
            f"stale reads             : {back['stale_reads']} "
            f"(overlay mismatches {back['overlay_mismatches']})",
        ]
    )


def _cmd_writeback_bench(args) -> int:
    import time

    started = time.time()
    tracer, flight = _obs_from_args(args)
    stats = run_writeback_bench(args, tracer=tracer, flight=flight)
    print(render_writeback_bench(stats))
    if args.json is None:
        args.json = "BENCH_writeback.json"
    # Same nested shape the benchmarks suite's update_bench_json writes,
    # so the CLI and pytest emit interchangeable artifacts.
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "gateway_writeback": stats,
                "_meta": run_metadata(time.time() - started),
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"\nwrote bench stats to {args.json}")
    through: Dict[str, object] = stats["writethrough"]  # type: ignore[assignment]
    back: Dict[str, object] = stats["writeback"]  # type: ignore[assignment]
    failures = []
    if stats["mutation_rpc_reduction"] < 1.5:  # type: ignore[operator]
        failures.append(
            f"mutation RPC reduction x{stats['mutation_rpc_reduction']} < x1.5"
        )
    for label, side in (("write-through", through), ("write-back", back)):
        if side["oracle_divergences"]:
            failures.append(
                f"{side['oracle_divergences']} {label} oracle divergences"
            )
    if back["stale_reads"] or back["overlay_mismatches"]:
        failures.append(
            f"{back['stale_reads']} stale reads, "
            f"{back['overlay_mismatches']} overlay mismatches"
        )
    if stats["mode_namespace_divergence"]:
        failures.append(
            f"{stats['mode_namespace_divergence']} cross-mode namespace "
            "divergences"
        )
    if failures and flight is not None:
        # A red gate ships its forensics: the flight rings hold the
        # enqueue/flush/conflict events leading up to the divergence.
        flight.dump("writeback-gate-failure")
    _finish_obs(args, tracer, flight)
    if failures:
        print("FAILED: " + "; ".join(failures))
        return 1
    return 0


def _cmd_tenant_bench(args) -> int:
    import time

    if args.tenant_rate_factor <= 0:
        print("--tenant-rate-factor must be positive")
        return 2
    started = time.time()
    stats = run_tenant_bench(args)
    print(render_tenant_bench(stats))
    if args.json is None:
        args.json = "BENCH_tenants.json"
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "gateway_tenants": stats,
                "_meta": run_metadata(time.time() - started),
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"\nwrote bench stats to {args.json}")
    failures: List[str] = stats["failures"]  # type: ignore[assignment]
    if failures:
        print("FAILED: " + "; ".join(failures))
        return 1
    return 0


def _cohort_fault_plan(seed: int, size: int, duration_s: float) -> FaultPlan:
    """The cohort bench's canned chaos: lossy, duplicating links plus a
    mid-run partition islanding half the gateways."""
    partitions = ()
    if size > 1 and duration_s > 0:
        island = frozenset(range(max(1, size // 2)))
        partitions = (
            Partition(
                start_s=duration_s * 0.35,
                end_s=duration_s * 0.6,
                island=island,
            ),
        )
    return FaultPlan(
        seed=seed,
        drop_rate=0.05,
        delay_rate=0.10,
        delay_ms_min=0.5,
        delay_ms_max=3.0,
        duplicate_rate=0.05,
        partitions=partitions,
    )


def run_cohort_bench(args, tracer=None, flight=None) -> Dict[str, object]:
    """Cohort-with-multicast vs N independent gateways on one trace.

    Both deployments promise the same staleness bound; the cohort keeps
    it with invalidations (long leases stay safe), the independents by
    clamping every lease TTL to the bound.  The difference in backend
    queries is the value of the protocol.
    """
    profile = PROFILES[args.profile]
    generator = SyntheticTraceGenerator(
        profile,
        num_files=args.files,
        seed=args.seed,
        ops_per_second=args.trace_rate,
    )
    records = list(generator.generate(args.ops))
    duration = records[-1].timestamp if records else 0.0
    size = args.cohort

    cohort_config = CohortConfig(
        heartbeat_interval_s=args.heartbeat_s,
        suspect_after_s=args.suspect_after_s,
        ttl_clamp_s=args.ttl_clamp_s,
        gateway=GatewayConfig(
            cache_capacity=args.cache_capacity,
            lease_ttl_s=args.lease_ttl_s,
            # Invalidation multicast makes long negative leases safe too:
            # a create that would flip the answer is broadcast like any
            # other mutation.  The independent baseline cannot do this and
            # must clamp negatives to the bound below.
            negative_ttl_s=args.lease_ttl_s,
            rate_per_s=args.rate_per_s,
            burst=max(args.clients * 4.0, 64.0),
            hot_threshold=args.hot_threshold,
        ),
    )
    bound = cohort_config.staleness_bound_s
    plan = _cohort_fault_plan(args.seed, size, duration)

    # ---- cohort replay ------------------------------------------------
    cohort_cluster = _build_cluster(args, faulted=False, tracer=tracer)
    cohort_cluster.populate(generator.paths)
    cohort_cluster.synchronize_replicas(force=True)
    cohort = GatewayCohort(
        cohort_cluster,
        size,
        cohort_config,
        tracer=tracer,
        faults=PlanFaultInjector(
            plan, metrics=cohort_cluster.metrics, flight=flight
        ),
        flight=flight,
    )
    auditor = StalenessAuditor(
        cohort_cluster, bound, metrics=cohort_cluster.metrics, flight=flight
    )
    # Pinned placements so the independent mirror replays identically.
    created_homes: Dict[int, int] = {}
    step_s = cohort_config.heartbeat_interval_s / 2.0
    next_step = 0.0

    def advance_cohort(now: float) -> None:
        nonlocal next_step
        while next_step <= now:
            for member_id, responses in cohort.step(next_step).items():
                for response in responses:
                    auditor.audit(response, next_step, member_id)
            next_step += step_s

    for index, record in enumerate(records):
        now = record.timestamp
        advance_cohort(now)
        member = cohort.members[index % size]
        if record.op.is_lookup:
            response = member.lookup(record.path, now)
            auditor.audit(response, now, member.member_id)
        elif record.op is MetadataOp.CREATE:
            created = member.create(record.path, now)
            created_homes[index] = created.home_id
            auditor.note_mutation("create", record.path, now)
        elif record.op is MetadataOp.UNLINK:
            member.delete(record.path, now)
            auditor.note_mutation("delete", record.path, now)
        elif record.op is MetadataOp.RENAME:
            member.rename(record.path, record.new_path, now)
            auditor.note_mutation(
                "rename", record.path, now, new_path=record.new_path
            )
    advance_cohort(duration)
    cohort.settle(duration)

    # ---- independent-gateways replay ----------------------------------
    indep_cluster = _build_cluster(args, faulted=False)
    indep_cluster.populate(generator.paths)
    indep_cluster.synchronize_replicas(force=True)
    indep_config = GatewayConfig(
        cache_capacity=args.cache_capacity,
        lease_ttl_s=min(args.lease_ttl_s, bound),
        negative_ttl_s=min(GatewayConfig().negative_ttl_s, bound),
        hot_lease_ttl_s=bound,
        rate_per_s=args.rate_per_s,
        burst=max(args.clients * 4.0, 64.0),
        hot_threshold=args.hot_threshold,
    )
    independents = [
        MetadataClient(
            indep_cluster, indep_config, register_mutation_hook=False
        )
        for _ in range(size)
    ]
    indep_auditor = StalenessAuditor(indep_cluster, bound)
    for index, record in enumerate(records):
        now = record.timestamp
        client = independents[index % size]
        if record.op.is_lookup:
            response = client.lookup(record.path, now)
            indep_auditor.audit(response, now, index % size)
        elif record.op is MetadataOp.CREATE:
            client.create(record.path, now, home_id=created_homes[index])
            indep_auditor.note_mutation("create", record.path, now)
        elif record.op is MetadataOp.UNLINK:
            client.delete(record.path, now)
            indep_auditor.note_mutation("delete", record.path, now)
        elif record.op is MetadataOp.RENAME:
            client.rename(record.path, record.new_path, now)
            # An independent gateway still invalidates on its *own*
            # mutations; without the cluster hook the rename event must
            # be applied explicitly (the cohort member does the same).
            client.apply_mutation(
                MutationEvent(
                    op="rename", path=record.path, new_path=record.new_path
                )
            )
            indep_auditor.note_mutation(
                "rename", record.path, now, new_path=record.new_path
            )

    cohort_backend = cohort.backend_queries
    indep_backend = sum(c.backend_queries for c in independents)
    reduction = (
        indep_backend / cohort_backend if cohort_backend else float("inf")
    )
    mutations = sum(1 for r in records if r.op.mutates_namespace)
    counters = cohort.counter_snapshot()

    def total(name: str) -> int:
        return int(sum(counters.get(name, {}).values()))

    return {
        "seed": args.seed,
        "profile": args.profile,
        "servers": args.servers,
        "cohort": size,
        "ops": len(records),
        "mutations": mutations,
        "duration_s": round(duration, 4),
        "staleness_bound_s": round(bound, 4),
        "cohort_audit": auditor.summary(),
        "independent_audit": indep_auditor.summary(),
        "violations": auditor.stats.violations,
        "independent_violations": indep_auditor.stats.violations,
        "backend_queries_cohort": cohort_backend,
        "backend_queries_independent": indep_backend,
        "backend_reduction": round(reduction, 3),
        "invalidation_messages": cohort.invalidation_messages,
        "invalidations_published": total("gateway_cohort_published_total"),
        "invalidations_applied": total("gateway_cohort_applied_total"),
        "duplicates_discarded": total("gateway_cohort_duplicates_total"),
        "gaps_detected": total("gateway_cohort_gaps_total"),
        "sync_requests": total("gateway_cohort_sync_requests_total"),
        "sync_records_recovered": total("gateway_cohort_sync_records_total"),
        "peer_outages": total("gateway_cohort_peer_missing_total"),
        "clamp_engagements": total("gateway_cohort_clamp_engaged_total"),
        "cohort_hit_rate": round(
            sum(m.client.hit_rate() for m in cohort.members) / size, 4
        ),
        "independent_hit_rate": round(
            sum(c.hit_rate() for c in independents) / size, 4
        ),
    }


def render_cohort_bench(stats: Dict[str, object]) -> str:
    cohort_audit: Dict[str, object] = stats["cohort_audit"]  # type: ignore[assignment]
    indep_audit: Dict[str, object] = stats["independent_audit"]  # type: ignore[assignment]
    return "\n".join(
        [
            "== gateway cohort bench ==",
            f"workload                : {stats['profile']} x {stats['ops']} ops "
            f"({stats['mutations']} mutations), seed {stats['seed']}, "
            f"{stats['cohort']} gateways, {stats['duration_s']}s",
            f"staleness bound         : {stats['staleness_bound_s']}s",
            f"cohort stale reads      : {cohort_audit['stale_reads']} "
            f"(p99 {cohort_audit['staleness_p99_s']}s, "
            f"max {cohort_audit['staleness_max_s']}s)",
            f"cohort violations       : {stats['violations']}",
            f"independent violations  : {stats['independent_violations']}",
            f"backend queries         : cohort {stats['backend_queries_cohort']} "
            f"vs independent {stats['backend_queries_independent']}",
            f"backend reduction       : x{stats['backend_reduction']:.2f}",
            f"hit rate                : cohort {stats['cohort_hit_rate']:.3f} "
            f"vs independent {stats['independent_hit_rate']:.3f}",
            f"invalidation traffic    : {stats['invalidation_messages']} msgs "
            f"({stats['invalidations_published']} published, "
            f"{stats['invalidations_applied']} applied, "
            f"{stats['duplicates_discarded']} dup-discarded)",
            f"anti-entropy            : {stats['gaps_detected']} gaps, "
            f"{stats['sync_requests']} sync requests, "
            f"{stats['sync_records_recovered']} records recovered",
            f"degradation             : {stats['peer_outages']} peer outages, "
            f"{stats['clamp_engagements']} clamp engagements",
            f"independent stale reads : {indep_audit['stale_reads']} "
            f"(p99 {indep_audit['staleness_p99_s']}s)",
        ]
    )


def _cmd_cohort_bench(args) -> int:
    import time

    started = time.time()
    tracer, flight = _obs_from_args(args)
    stats = run_cohort_bench(args, tracer=tracer, flight=flight)
    print(render_cohort_bench(stats))
    if args.json:
        stats = dict(stats)
        stats["_meta"] = run_metadata(time.time() - started)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote bench stats to {args.json}")
    failures = []
    if stats["violations"]:
        failures.append(
            f"{stats['violations']} cohort staleness-bound violations"
        )
    if stats["independent_violations"]:
        failures.append(
            f"{stats['independent_violations']} baseline staleness-bound "
            "violations"
        )
    if failures and flight is not None:
        flight.dump("cohort-gate-failure")
    _finish_obs(args, tracer, flight)
    if failures:
        print("FAILED: " + "; ".join(failures))
        return 1
    return 0


def render_bench(stats: Dict[str, object], top: int) -> str:
    gateway: MetadataClient = stats["_gateway"]  # type: ignore[assignment]
    lines = [
        "== gateway bench ==",
        f"workload                : {stats['profile']} x {stats['ops']} ops, "
        f"seed {stats['seed']}, {stats['clients']} clients"
        + (" (chaos)" if stats["chaos"] else ""),
        f"lookups submitted       : {stats['lookups_submitted']}",
        f"cache hit rate          : {stats['hit_rate']:.3f}",
        f"backend queries         : {stats['backend_queries']} "
        f"(direct: {stats['direct_queries']})",
        f"backend reduction       : x{stats['backend_reduction']:.2f}",
        f"shed (rate)             : {stats['shed']} "
        f"({stats['shed_rate']:.3f})",
        f"stale reads             : {stats['stale_reads']}",
        f"degraded (uncached)     : {stats['degraded_answers']}",
        f"latency p50/p99 ms      : {stats['p50_ms']:.4f} / "
        f"{stats['p99_ms']:.4f}",
        f"direct p50/p99 ms       : {stats['direct_p50_ms']:.4f} / "
        f"{stats['direct_p99_ms']:.4f}",
        "outcomes                : "
        + ", ".join(
            f"{kind}={count}"
            for kind, count in stats["outcomes"].items()  # type: ignore[union-attr]
        ),
        "",
        gateway_hotspot_report(gateway, top=top),
    ]
    return "\n".join(lines)


def _resolve_bench_defaults(args) -> None:
    """Fill mode-dependent defaults for flags declared with ``None``.

    Cohort mode wants a longer trace (compulsory misses — every member
    must see a path once — amortize over more re-references) and long
    leases (the whole point of the invalidation protocol is that they
    stay safe); the single-gateway bench keeps its original defaults.
    """
    cohort = args.cohort is not None
    tenants = getattr(args, "tenants", None) is not None
    tcp = args.transport == "tcp"
    if args.servers is None:
        args.servers = 4 if tcp else 20
    if args.files is None:
        # Tenant mode replays the trace 2 + 1 + N times per sweep point
        # (fair x2, global, solo per tenant), so it trims the namespace.
        args.files = 800 if tcp else (1_500 if tenants else 3_000)
    if args.ops is None:
        args.ops = 2_000 if tcp else (
            20_000 if cohort else (4_000 if tenants else 5_000)
        )
    if args.lease_ttl_s is None:
        args.lease_ttl_s = 30.0 if cohort else 5.0
    if tcp and args.workdir is None:
        args.workdir = tempfile.mkdtemp(prefix="repro-tcp-bench-")


def _cmd_bench(args) -> int:
    _resolve_bench_defaults(args)
    if args.transport == "tcp":
        from repro.net.bench import run_tcp_bench

        return run_tcp_bench(args)
    if args.cohort is not None:
        return _cmd_cohort_bench(args)
    if args.tenants is not None:
        return _cmd_tenant_bench(args)
    if args.writeback:
        return _cmd_writeback_bench(args)
    tracer, flight = _obs_from_args(args)
    stats = run_bench(args, tracer=tracer, flight=flight)
    print(render_bench(stats, top=args.top))
    failures = []
    if stats["stale_reads"]:
        failures.append(f"{stats['stale_reads']} stale reads")
    if stats["home_mismatches"]:
        failures.append(
            f"{stats['home_mismatches']} gateway/direct home mismatches"
        )
    stats.pop("_gateway")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote bench stats to {args.json}")
    if failures and flight is not None:
        flight.dump("gateway-gate-failure")
    _finish_obs(args, tracer, flight)
    if failures:
        print("FAILED: " + "; ".join(failures))
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway", description=__doc__
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    bench = subparsers.add_parser(
        "bench",
        help="replay a trace through the gateway vs. direct cluster access",
    )
    bench.add_argument(
        "--transport", choices=("inproc", "tcp"), default="inproc",
        help="inproc (default): the deterministic single-process bench; "
        "tcp: launch real MDS/gateway OS processes over the repro.net "
        "wire and measure wall-clock cost (artifact BENCH_tcp.json)",
    )
    bench.add_argument(
        "--servers", type=_positive_int, default=None,
        help="MDS count (default: 20; tcp mode: 4 real processes)",
    )
    bench.add_argument("--group-size", type=_positive_int, default=5)
    bench.add_argument(
        "--files", type=_positive_int, default=None,
        help="namespace size (default: 3000; tcp mode: 800)",
    )
    bench.add_argument(
        "--ops", type=_positive_int, default=None,
        help="trace length (default: 5000; cohort mode: 20000 so "
        "compulsory misses amortize; tcp mode: 2000 ops per gateway)",
    )
    bench.add_argument(
        "--gateways", type=_positive_int, default=2,
        help="tcp mode: number of gateway worker processes",
    )
    bench.add_argument(
        "--lookup-frac", type=float, default=0.8,
        help="tcp mode: fraction of ops that are lookup batches",
    )
    bench.add_argument(
        "--timeout-s", type=float, default=10.0,
        help="tcp mode: per-request timeout",
    )
    bench.add_argument(
        "--worker-timeout-s", type=float, default=300.0,
        help="tcp mode: hard cap on one gateway worker's runtime",
    )
    bench.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="tcp mode: scratch directory for child configs/logs "
        "(default: a fresh temp dir)",
    )
    bench.add_argument(
        "--out", default="BENCH_tcp.json", metavar="FILE.json",
        help="tcp mode: wall-clock stats artifact",
    )
    bench.add_argument("--clients", type=_positive_int, default=8)
    bench.add_argument(
        "--profile", choices=sorted(PROFILES), default="HP",
        help="workload profile (op mix + Zipf skew)",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--cache-capacity", type=_positive_int, default=4096)
    bench.add_argument(
        "--lease-ttl-s", type=float, default=None,
        help="positive-lease TTL (default: 5; cohort mode: 30 — "
        "invalidations keep long leases safe)",
    )
    bench.add_argument("--rate-per-s", type=float, default=2000.0)
    bench.add_argument("--hot-threshold", type=_positive_int, default=32)
    bench.add_argument("--top", type=_positive_int, default=5)
    bench.add_argument(
        "--chaos", action="store_true",
        help="run under a seeded fault plan (drops + mid-run partition)",
    )
    bench.add_argument(
        "--cohort", type=_positive_int, default=None, metavar="N",
        help="distributed-cohort mode: N multicast-coherent gateways vs "
        "N independent gateways (always under a seeded fault plan)",
    )
    bench.add_argument(
        "--tenants", type=_positive_int, default=None, metavar="N",
        help="multi-tenant admission mode: N Zipf-mixed tenants replayed "
        "through fair vs global vs solo deployments at every --trace-rate "
        "sweep point; default JSON artifact BENCH_tenants.json",
    )
    bench.add_argument(
        "--tenant-zipf", type=float, default=2.0,
        help="tenant mode: skew of tenant popularity (tenant u0 is the "
        "noisy neighbour; higher = noisier)",
    )
    bench.add_argument(
        "--tenant-rate-factor", type=float, default=0.5,
        help="tenant mode: admission rate as a fraction of the trace "
        "rate (< 1 provisions contention)",
    )
    bench.add_argument(
        "--tenant-rates", type=float, nargs="+", default=None,
        metavar="RATE",
        help="tenant mode: explicit trace-rate sweep points "
        "(default: --trace-rate and 1000)",
    )
    bench.add_argument(
        "--writeback", action="store_true",
        help="write-back mode: compare buffered/batched mutations against "
        "write-through on one trace (with deterministic MDS crash "
        "windows); default JSON artifact BENCH_writeback.json",
    )
    bench.add_argument(
        "--flush-max-pending", type=_positive_int, default=16,
        help="write-back: flush a home's bucket at this many pending",
    )
    bench.add_argument(
        "--flush-age-s", type=float, default=0.25,
        help="write-back: flush once the oldest pending is this old",
    )
    bench.add_argument(
        "--heartbeat-s", type=float, default=0.05,
        help="cohort heartbeat interval (virtual seconds)",
    )
    bench.add_argument(
        "--suspect-after-s", type=float, default=0.15,
        help="silence/gap age before a cohort peer is suspected",
    )
    bench.add_argument(
        "--ttl-clamp-s", type=float, default=0.10,
        help="lease TTL clamp while a cohort peer is suspected",
    )
    bench.add_argument(
        "--trace-rate", type=float, default=150.0,
        help="cohort mode: trace arrival rate in ops per virtual second "
        "(lower stretches re-reference intervals past the bound)",
    )
    bench.add_argument("--chaos-start-s", type=float, default=0.5)
    bench.add_argument("--chaos-window-s", type=float, default=1.0)
    bench.add_argument("--json", default=None, metavar="FILE.json")
    bench.add_argument(
        "--trace-out", default=None, metavar="FILE.jsonl",
        help="record spans (with causal write-back context) as JSONL",
    )
    bench.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="write flight-recorder dumps here on crash windows and "
        "bench gate failures",
    )
    bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
