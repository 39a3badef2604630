"""The gateway facade: admission → cache → coalescer → cluster.

:class:`MetadataClient` fronts a :class:`~repro.core.cluster.GHBACluster`
for a pool of clients.  Requests are served in *ticks* — all lookups
submitted at one virtual instant are admitted, coalesced, batched and
resolved together, which is the deterministic-simulation model of
concurrency used throughout this repo.

Pipeline per tick (:meth:`MetadataClient.lookup_many`):

1. **Admission** — the token bucket admits what the provisioned rate
   allows; overflow queues (bounded, with a deadline) and the rest sheds
   with an explicit ``REJECTED`` outcome.
2. **Cache** — fresh leases answer immediately (positive or negative);
   expired entries contribute a *predicted home* for step 4.
3. **Coalescing** — same-tick duplicates collapse into one flight whose
   answer fans out to every waiter (``COALESCED``).
4. **Batching** — distinct misses predicted onto the same home MDS are
   re-validated with one multi-key ``verify_batch`` round trip
   (``BATCHED``); failures fall through to step 5.
5. **Backend query** — whatever remains walks the full L1-L4 hierarchy
   (``SERVED``).

Coherence: mutations on the backing cluster (whether issued through this
client or directly) invalidate affected leases via the cluster's mutation
hooks — including whole subtrees on rename.  Degraded answers (fault
injection lost multicast legs) are returned to the caller but **never
cached**, so a partition cannot poison the gateway.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.cluster import GHBACluster, MutationEvent, MutationOutcome
from repro.gateway.admission import (
    DEFAULT_TENANT,
    FairAdmissionController,
    TickResult,
)
from repro.gateway.cache import GatewayCache
from repro.gateway.coalesce import HomeBatcher, coalesce
from repro.gateway.hotspot import HeavyHitter, HotspotDetector
from repro.gateway.writeback import (
    AckListener,
    FlushReport,
    MutationBuffer,
    PendingMutation,
)
from repro.metadata.attributes import FileMetadata
from repro.obs.flight import NULL_RECORDER, FlightRecorderHub
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Span, Tracer

#: Client-side cost model: a lease answer costs one local memory probe
#: equivalent; it never touches the network.
CACHE_HIT_LATENCY_MS = 0.001


class Outcome(enum.Enum):
    """How the gateway disposed of one request."""

    HIT = "hit"                    # fresh positive lease
    NEGATIVE_HIT = "negative_hit"  # fresh negative lease
    BATCHED = "batched"            # re-validated via multi-key verify
    SERVED = "served"              # full backend L1-L4 walk
    COALESCED = "coalesced"        # piggybacked on a same-tick flight
    QUEUED = "queued"              # parked by admission; completes later
    REJECTED = "rejected"          # shed by admission control
    OVERLAY = "overlay"            # answered by a pending write-back entry
    BUFFERED = "buffered"          # mutation parked in the write-back buffer

    @property
    def is_answer(self) -> bool:
        return self not in (Outcome.REJECTED, Outcome.QUEUED)


@dataclass(frozen=True)
class GatewayResponse:
    """One completed (or shed) gateway request.

    ``from_cache`` is True when the answer was served from a lease without
    consulting the fleet this tick — exactly the responses the stale-read
    audit in the benchmark re-checks against the live cluster.
    """

    path: str
    outcome: Outcome
    home_id: Optional[int] = None
    record: Optional[FileMetadata] = None
    latency_ms: float = 0.0
    degraded: bool = False
    from_cache: bool = False
    #: True when the answer came from the client's own unflushed
    #: write-back buffer (read-your-writes): definitionally *ahead* of
    #: the fleet, so the stale-read audit must not compare it against
    #: live backend state the way it re-checks ``from_cache`` answers.
    from_overlay: bool = False
    #: The tenant this request was submitted under (admission quota key).
    tenant: str = DEFAULT_TENANT

    @property
    def found(self) -> bool:
        return self.home_id is not None


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables of the gateway tier (all times in virtual seconds)."""

    cache_capacity: int = 4096
    lease_ttl_s: float = 5.0
    negative_ttl_s: float = 0.5
    hot_lease_ttl_s: float = 30.0
    # Admission control
    rate_per_s: float = 2000.0
    burst: float = 200.0
    queue_capacity: int = 128
    queue_deadline_s: float = 0.5
    #: ``"fair"`` (default) shares the rate across tenants by weighted
    #: max-min; ``"global"`` is the legacy single-FIFO tenant-blind
    #: bucket — kept so the isolation harness can show it failing.
    #: With one tenant the two modes are bit-identical.
    admission_mode: str = "fair"
    #: Static tenant → weight map; tenants not listed get
    #: ``tenant_default_weight``.  Weights must be positive.
    tenant_weights: Optional[Mapping[str, float]] = None
    tenant_default_weight: float = 1.0
    # Coalescing / batching
    max_batch: int = 16
    # Hotspot detection (sketch capacity and window are the
    # HotspotDetector defaults)
    hot_threshold: int = 32
    # Write-back mutation buffering (DESIGN.md §11).  Off by default:
    # mutations stay synchronous write-through, bit-identical to PR 3.
    writeback: bool = False
    #: Flush a home's bucket once it holds this many pending mutations.
    flush_max_pending: int = 16
    #: ... or once its oldest pending mutation is this old (virtual s).
    flush_age_s: float = 0.25
    #: Attempts per flush before the batch is re-parked (or, at a
    #: barrier, declared lost).
    flush_retry_limit: int = 3
    #: After an unreachable-home flush re-parks its batch, leave that
    #: home alone for this long before the triggers may fire again —
    #: otherwise every enqueue/lookup during an outage re-burns the full
    #: retry budget.  Barriers ignore the backoff.
    flush_retry_backoff_s: float = 0.5
    #: Seed of the gateway-local RNG that places buffered creates with
    #: no home hint; separate from the cluster's RNG so buffering does
    #: not perturb backend query streams.
    writeback_seed: int = 0
    #: Origin ID in the at-most-once dedup key (cohort members pass
    #: their member ID).
    writeback_origin: int = 0

    def __post_init__(self) -> None:
        if self.cache_capacity < 1:
            raise ValueError(
                f"cache_capacity must be >= 1, got {self.cache_capacity}"
            )
        if self.admission_mode not in ("fair", "global"):
            raise ValueError(
                "admission_mode must be 'fair' or 'global', "
                f"got {self.admission_mode!r}"
            )
        if self.tenant_default_weight <= 0:
            raise ValueError(
                "tenant_default_weight must be positive, "
                f"got {self.tenant_default_weight}"
            )
        for tenant, weight in (self.tenant_weights or {}).items():
            if weight <= 0:
                raise ValueError(
                    f"tenant {tenant!r} weight must be positive, got {weight}"
                )
        if self.writeback:
            if self.flush_max_pending < 1:
                raise ValueError(
                    f"flush_max_pending must be >= 1, got {self.flush_max_pending}"
                )
            if self.flush_age_s <= 0:
                raise ValueError(
                    f"flush_age_s must be positive, got {self.flush_age_s}"
                )
            if self.flush_retry_limit < 1:
                raise ValueError(
                    f"flush_retry_limit must be >= 1, got {self.flush_retry_limit}"
                )
            if self.flush_retry_backoff_s < 0:
                raise ValueError(
                    "flush_retry_backoff_s must be non-negative, "
                    f"got {self.flush_retry_backoff_s}"
                )


class MetadataClient:
    """Client-facing metadata gateway over a :class:`GHBACluster`.

    Parameters
    ----------
    cluster:
        The backing MDS fleet.  The client registers a mutation listener
        so *any* namespace mutation — through this facade or directly on
        the cluster — invalidates affected leases.
    config:
        Gateway tunables; defaults are sized for tests.
    tracer:
        Optional tracer; gateway spans use ``gw_*`` event kinds and
        ``GW-<outcome>`` levels.  Defaults to the shared no-op tracer.
    metrics:
        Metrics registry; defaults to the cluster's own, so one exporter
        sees fleet and gateway series side by side.
    register_mutation_hook:
        When True (the default) the client registers a listener on the
        cluster so every mutation — through any client — invalidates its
        leases instantly.  A *distributed* gateway (one of several
        processes fronting the fleet) cannot have that oracle: the cohort
        tier (:mod:`repro.gateway.cohort`) passes False and routes
        invalidations explicitly through :meth:`apply_mutation`, locally
        for its own mutations and via the invalidation multicast for its
        peers'.
    """

    def __init__(
        self,
        cluster: GHBACluster,
        config: Optional[GatewayConfig] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        register_mutation_hook: bool = True,
        flight: Optional[FlightRecorderHub] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or GatewayConfig()
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else cluster.metrics
        self._flight = (
            flight.recorder(f"gateway-{self.config.writeback_origin}")
            if flight is not None
            else NULL_RECORDER
        )
        cfg = self.config
        self.cache = GatewayCache(
            capacity=cfg.cache_capacity,
            lease_ttl_s=cfg.lease_ttl_s,
            negative_ttl_s=cfg.negative_ttl_s,
            hot_lease_ttl_s=cfg.hot_lease_ttl_s,
        )
        self.admission: FairAdmissionController[str] = FairAdmissionController(
            rate_per_s=cfg.rate_per_s,
            burst=cfg.burst,
            queue_capacity=cfg.queue_capacity,
            queue_deadline_s=cfg.queue_deadline_s,
            weights=cfg.tenant_weights,
            default_weight=cfg.tenant_default_weight,
            per_tenant=cfg.admission_mode == "fair",
        )
        self.batcher = HomeBatcher(max_batch=cfg.max_batch)
        self.hotspots = HotspotDetector(hot_threshold=cfg.hot_threshold)
        self.backend_queries = 0  # full walks + batch round trips
        #: Mutation-path RPCs to the fleet: write-through mutations, flush
        #: batches (and their retries), renames, conflict re-reads and
        #: delete-routing resolutions — the figure BENCH_writeback.json
        #: compares across modes.
        self.backend_mutations = 0
        #: The write-back tier (None in write-through mode).
        self.writeback: Optional[MutationBuffer] = (
            MutationBuffer() if cfg.writeback else None
        )
        self._wb_rng = random.Random(cfg.writeback_seed)
        self._wb_created = 0
        self._wb_backoff: Dict[int, float] = {}
        self._ack_listeners: List[AckListener] = []
        #: Mutations declared lost (explicitly — at a barrier or a rename
        #: partial barrier), for harness introspection.
        self.lost_mutations: List[PendingMutation] = []
        self._register_metrics()
        self.hooked = register_mutation_hook
        if register_mutation_hook:
            cluster.add_mutation_listener(self.apply_mutation)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _register_metrics(self) -> None:
        m = self.metrics
        self._requests = m.counter(
            "gateway_requests_total",
            "Requests submitted to the gateway, by operation and tenant.",
            labels=("op", "tenant"),
        )
        self._lookup_latency = m.histogram(
            "gateway_lookup_latency_ms",
            "End-to-end latency of answered gateway lookups, by tenant.",
            labels=("tenant",),
            buckets=(0.01, 0.1, 1.0, 10.0, 100.0),
        )
        self._cache_hits = m.counter(
            "gateway_cache_hits_total",
            "Lookups answered from a fresh lease, by kind.",
            labels=("kind",),
        )
        self._coalesced = m.counter(
            "gateway_coalesced_total",
            "Lookups that piggybacked on a same-tick flight.",
        )
        self._batched = m.counter(
            "gateway_batched_total",
            "Lookups re-validated via a multi-key batch verify.",
        )
        self._backend = m.counter(
            "gateway_backend_queries_total",
            "Requests the gateway sent to the MDS fleet, by kind.",
            labels=("kind",),
        )
        self._shed = m.counter(
            "gateway_shed_total",
            "Requests shed by admission control, by tenant and cause.",
            labels=("tenant", "cause"),
        )
        self._queued = m.counter(
            "gateway_queued_total",
            "Requests parked in the admission queue.",
        )
        self._invalidations = m.counter(
            "gateway_invalidations_total",
            "Cache leases invalidated, by cause.",
            labels=("cause",),
        )
        self._uncacheable = m.counter(
            "gateway_degraded_uncached_total",
            "Degraded backend answers returned but not cached.",
        )
        # Write-back family (registered unconditionally so determinism
        # snapshots see identical shapes in both modes; all stay zero in
        # write-through mode).
        self._wb = {
            "enqueued": m.counter(
                "gateway_writeback_enqueued_total",
                "Mutations parked in the write-back buffer, by op.",
                labels=("op",),
            ),
            "absorbed": m.counter(
                "gateway_writeback_absorbed_total",
                "Pending same-path mutations absorbed by a newer intent.",
            ),
            "overlay_hits": m.counter(
                "gateway_writeback_overlay_hits_total",
                "Lookups answered from the pending-mutation overlay.",
            ),
            "flush_batches": m.counter(
                "gateway_writeback_flush_batches_total",
                "MUTATE_BATCH flushes attempted (including retries).",
            ),
            "retries": m.counter(
                "gateway_writeback_retries_total",
                "Flush attempts that found the home unreachable.",
            ),
            "flushed": m.counter(
                "gateway_writeback_flushed_total",
                "Mutations acknowledged by their home MDS, by op and home.",
                labels=("op", "home"),
            ),
            "conflicts": m.counter(
                "gateway_writeback_conflict_total",
                "Flushed mutations that lost a version race (re-read, "
                "never clobbered).",
            ),
            "lost": m.counter(
                "gateway_writeback_lost_total",
                "Mutations declared lost at a flush barrier.",
            ),
            "deferred": m.counter(
                "gateway_writeback_deferred_total",
                "Mutations re-parked after an unreachable-home flush.",
            ),
            "barriers": m.counter(
                "gateway_writeback_barrier_total",
                "Explicit flush barriers executed.",
            ),
            "rename_barriers": m.counter(
                "gateway_writeback_rename_barrier_total",
                "Renames that forced a partial flush of overlapping "
                "pending mutations.",
            ),
            "rereads": m.counter(
                "gateway_writeback_reread_total",
                "Backend re-reads after a write-back conflict.",
            ),
            "passthrough": m.counter(
                "gateway_writeback_passthrough_total",
                "Mutations served write-through despite write-back mode, "
                "by op (unroutable deletes, renames).",
                labels=("op",),
            ),
        }

    def refresh_gauges(self) -> None:
        """Point-in-time gateway gauges (hit rate, occupancy, hot set)."""
        m = self.metrics
        m.gauge(
            "gateway_hit_rate", "Fresh-lease hit rate over all probes."
        ).set(self.cache.hit_rate())
        m.gauge(
            "gateway_cache_entries", "Leases currently cached."
        ).set(len(self.cache))
        m.gauge(
            "gateway_hot_paths", "Paths currently flagged hot."
        ).set(len(self.hotspots.hot_keys()))
        m.gauge(
            "gateway_queue_depth", "Requests waiting in the admission queue."
        ).set(self.admission.queue_depth)
        m.gauge(
            "gateway_hot_threshold",
            "Current hotspot shield threshold.",
        ).set(self.hotspots.hot_threshold)

    # ------------------------------------------------------------------
    # Coherence: cluster mutation hooks
    # ------------------------------------------------------------------
    def apply_mutation(self, event: MutationEvent) -> None:
        """Invalidate the leases ``event`` affects (with exact metrics).

        Fired by the cluster's mutation hook when this client registered
        one, or called explicitly by the cohort tier when the event
        arrived over the invalidation multicast.
        """
        cache = self.cache
        before = cache.stats.invalidations.copy()
        if event.op == "rename":
            cache.invalidate_subtree(event.path, cause="rename")
            cache.invalidate_subtree(event.new_path, cause="rename")
        elif event.op in ("create", "delete"):
            cache.invalidate(event.path, cause=event.op)
        elif event.op == "server_removed":
            cache.invalidate_home(event.home_id, cause="server_lost")
        for cause, count in cache.stats.invalidations.items():
            delta = count - before.get(cause, 0)
            if delta:
                self._invalidations.labels(cause).inc(delta)

    def clamp_leases(self, clamp_s: float, now: float) -> int:
        """Bound every lease to ``clamp_s`` (cohort graceful degradation)."""
        return self.cache.clamp_ttl(clamp_s, now)

    def release_lease_clamp(self) -> None:
        self.cache.release_ttl_clamp()

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def lookup(
        self, path: str, now: float = 0.0, tenant: str = "-"
    ) -> GatewayResponse:
        """Resolve one path (a tick of size one); REJECTED when shed."""
        responses = self.lookup_many([path], now, tenant=tenant)
        for response in responses:
            if response.path == path:
                return response
        # The request was queued; it completes on a later tick (or sheds
        # with REJECTED once its deadline passes).
        return GatewayResponse(
            path=path, outcome=Outcome.QUEUED, tenant=tenant
        )

    def lookup_many(
        self, paths: Sequence[str], now: float = 0.0, tenant: str = "-"
    ) -> List[GatewayResponse]:
        """Resolve a tick of same-tenant lookups through the full pipeline.

        Returns completions for this tick: freshly admitted requests,
        queue drains whose token arrived, and explicit REJECTED responses
        for everything shed.  Queued requests are absent from the return
        and complete on a later tick.  ``tenant`` keys the admission
        quota (and dimensions the metric families); it never affects
        routing.  Multi-tenant ticks go through :meth:`lookup_tick`.
        """
        return self.lookup_tick([(tenant, path) for path in paths], now)

    def lookup_tick(
        self, items: Sequence[Tuple[str, str]], now: float = 0.0
    ) -> List[GatewayResponse]:
        """Resolve one tick of ``(tenant, path)`` lookups.

        All demands of one virtual instant must be submitted together —
        per-tenant fairness is decided *within* a tick, so feeding
        tenants through separate calls at the same ``now`` would hand
        the whole token budget to whoever called first.
        """
        if self.writeback is not None:
            self.maybe_flush(now)
        counts: Dict[str, int] = {}
        for tenant, _ in items:
            counts[tenant] = counts.get(tenant, 0) + 1
        for tenant, count in counts.items():
            self._requests.labels("lookup", tenant).inc(count)
        before_queued = self.admission.stats.queued
        tick = self.admission.submit_tick(list(items), now)
        responses = self._account_tick(tick, before_queued)
        if tick.admitted:
            responses.extend(
                self._serve_tick(
                    [path for _, path in tick.admitted],
                    now,
                    tenants=[tenant for tenant, _ in tick.admitted],
                )
            )
        for response in responses:
            if response.outcome not in (Outcome.QUEUED, Outcome.REJECTED):
                self._lookup_latency.labels(response.tenant).observe(
                    response.latency_ms
                )
        return responses

    def _account_tick(
        self, tick: TickResult[str], before_queued: int
    ) -> List[GatewayResponse]:
        """REJECTED responses + exact shed/queued metric reconciliation."""
        queued_delta = self.admission.stats.queued - before_queued
        if queued_delta:
            self._queued.inc(queued_delta)
        responses: List[GatewayResponse] = []
        for tenant, path, cause in tick.shed:
            self._shed.labels(tenant, cause).inc()
            responses.append(
                GatewayResponse(
                    path=path, outcome=Outcome.REJECTED, tenant=tenant
                )
            )
        return responses

    def pump(self, now: float) -> List[GatewayResponse]:
        """Advance the admission queue without submitting new work."""
        if self.writeback is not None:
            self.maybe_flush(now)
        before_queued = self.admission.stats.queued
        tick = self.admission.pump(now)
        responses = self._account_tick(tick, before_queued)
        if tick.admitted:
            responses.extend(
                self._serve_tick(
                    [path for _, path in tick.admitted],
                    now,
                    tenants=[tenant for tenant, _ in tick.admitted],
                )
            )
        return responses

    # ------------------------------------------------------------------
    # The serving pipeline
    # ------------------------------------------------------------------
    def _serve_tick(
        self,
        paths: List[str],
        now: float,
        tenants: Optional[List[str]] = None,
    ) -> List[GatewayResponse]:
        for path in paths:
            self.hotspots.observe(path, now)
        # ---- cache ----------------------------------------------------
        answered: Dict[str, GatewayResponse] = {}
        predictions: List[Tuple[str, Optional[int]]] = []
        flight = coalesce(paths)
        for path in flight.leaders:
            # ---- write-back overlay: read-your-writes ----------------
            if self.writeback is not None:
                pending = self.writeback.get(path)
                if pending is not None:
                    self._wb["overlay_hits"].inc()
                    if pending.op == "create":
                        answered[path] = GatewayResponse(
                            path=path,
                            outcome=Outcome.OVERLAY,
                            home_id=pending.home_id,
                            record=pending.record,
                            latency_ms=CACHE_HIT_LATENCY_MS,
                            from_overlay=True,
                        )
                    else:  # pending delete: the path is (about to be) gone
                        answered[path] = GatewayResponse(
                            path=path,
                            outcome=Outcome.OVERLAY,
                            latency_ms=CACHE_HIT_LATENCY_MS,
                            from_overlay=True,
                        )
                    continue
            lookup = self.cache.get(path, now)
            if lookup.hit:
                if lookup.negative:
                    self._cache_hits.labels("negative").inc()
                    answered[path] = GatewayResponse(
                        path=path,
                        outcome=Outcome.NEGATIVE_HIT,
                        latency_ms=CACHE_HIT_LATENCY_MS,
                        from_cache=True,
                    )
                else:
                    self._cache_hits.labels("positive").inc()
                    answered[path] = GatewayResponse(
                        path=path,
                        outcome=Outcome.HIT,
                        home_id=lookup.home_id,
                        record=lookup.record,
                        latency_ms=CACHE_HIT_LATENCY_MS,
                        from_cache=True,
                    )
                continue
            predictions.append((path, lookup.predicted_home))
        # ---- batched re-validation ------------------------------------
        batches, unroutable = self.batcher.plan(predictions)
        fallthrough: List[str] = list(unroutable)
        for batch in batches:
            outcome = self.cluster.verify_batch(batch.home_id, batch.paths)
            self.backend_queries += 1
            self._backend.labels("batch").inc()
            if outcome.degraded:
                # The predicted home did not answer; every key in the
                # batch must walk the full hierarchy instead.
                fallthrough.extend(batch.paths)
                continue
            for path in batch.paths:
                record = outcome.results.get(path)
                if record is None:
                    # Prediction went stale (migrated / deleted): full walk.
                    fallthrough.append(path)
                    continue
                self._batched.inc()
                hot = self.hotspots.is_hot(path)
                self.cache.put(
                    path,
                    batch.home_id,
                    record,
                    now,
                    hot=hot,
                    backend_version=outcome.versions.get(path),
                )
                answered[path] = GatewayResponse(
                    path=path,
                    outcome=Outcome.BATCHED,
                    home_id=batch.home_id,
                    record=record,
                    latency_ms=outcome.latency_ms,
                )
        # ---- full backend walks ---------------------------------------
        for path in fallthrough:
            result = self.cluster.query(path)
            self.backend_queries += 1
            self._backend.labels("query").inc()
            record = None
            if result.home_id is not None:
                record = self.cluster.servers[result.home_id].store.get(path)
            if result.degraded:
                # Fault-degraded answers are served but never cached: an
                # incomplete multicast may have missed the true home.
                self._uncacheable.inc()
            elif result.home_id is not None:
                hot = self.hotspots.is_hot(path)
                self.cache.put(
                    path,
                    result.home_id,
                    record,
                    now,
                    hot=hot,
                    backend_version=self.cluster.path_version(path),
                )
            else:
                self.cache.put_negative(
                    path, now, backend_version=self.cluster.path_version(path)
                )
            answered[path] = GatewayResponse(
                path=path,
                outcome=Outcome.SERVED,
                home_id=result.home_id,
                record=record,
                latency_ms=result.latency_ms,
                degraded=result.degraded,
            )
        # ---- shield refresh: pin what is hot --------------------------
        for path in self.hotspots.hot_keys():
            # Touch-renewal of hot leases is only coherent when the
            # cluster hook invalidates them; hook-less members pin for
            # eviction immunity but let leases expire on schedule.
            self.cache.pin(path, now, extend=self.hooked)
        # ---- gateway spans (one per leader flight) --------------------
        if self.tracer.enabled:
            for path in flight.leaders:
                response = answered[path]
                span = self.tracer.start_span(
                    path, -1, component="gateway", kind="lookup"
                )
                local = response.from_cache or response.from_overlay
                span.event(
                    "gw_cache",
                    hit=local,
                    latency_ms=(response.latency_ms if local else 0.0),
                )
                if not local:
                    span.event(
                        "gw_backend",
                        target=response.home_id,
                        latency_ms=response.latency_ms,
                        messages=2,
                        batched=response.outcome is Outcome.BATCHED,
                    )
                span.finish(
                    f"GW-{response.outcome.name}",
                    response.home_id,
                    response.latency_ms,
                    0 if local else 2,
                )
        # ---- fan out to waiters ---------------------------------------
        responses: List[GatewayResponse] = [None] * len(paths)  # type: ignore[list-item]
        for leader, indices in flight.waiters.items():
            base = answered[leader]
            for position, index in enumerate(indices):
                tenant = (
                    tenants[index] if tenants is not None else DEFAULT_TENANT
                )
                if position == 0:
                    responses[index] = (
                        base
                        if tenant == base.tenant
                        else replace(base, tenant=tenant)
                    )
                else:
                    self._coalesced.inc()
                    responses[index] = GatewayResponse(
                        path=base.path,
                        outcome=Outcome.COALESCED,
                        home_id=base.home_id,
                        record=base.record,
                        latency_ms=base.latency_ms,
                        degraded=base.degraded,
                        from_cache=base.from_cache,
                        from_overlay=base.from_overlay,
                        tenant=tenant,
                    )
        return list(responses)

    # ------------------------------------------------------------------
    # Mutations (write path)
    # ------------------------------------------------------------------
    def create(
        self,
        path: str,
        now: float = 0.0,
        home_id: Optional[int] = None,
        tenant: str = "-",
    ) -> GatewayResponse:
        """Create ``path``.

        Write-through mode: synchronous insert at the cluster plus a
        fresh lease.  Write-back mode: the create parks in the buffer
        (``BUFFERED``) with a versioned final-state record; the flush
        engine applies it in a batched ``MUTATE_BATCH`` later.
        """
        self._requests.labels("create", tenant).inc()
        if self.writeback is not None:
            return self._buffer_create(path, now, home_id)
        inode = sum(s.file_count for s in self.cluster.servers.values())
        home = self.cluster.insert_file(
            FileMetadata(path=path, inode=inode), home_id=home_id
        )
        self.backend_mutations += 1
        self._backend.labels("mutate").inc()
        # The mutation hook dropped any (negative) lease; write through.
        record = self.cluster.servers[home].store.get(path)
        self.cache.put(
            path,
            home,
            record,
            now,
            backend_version=self.cluster.path_version(path),
        )
        return GatewayResponse(
            path=path,
            outcome=Outcome.SERVED,
            home_id=home,
            record=record,
            latency_ms=self.cluster.config.network.round_trip_ms(),
        )

    def delete(
        self, path: str, now: float = 0.0, tenant: str = "-"
    ) -> GatewayResponse:
        """Delete ``path``; a negative lease remembers the absence."""
        self._requests.labels("delete", tenant).inc()
        if self.writeback is not None:
            return self._buffer_delete(path, now)
        home = self.cluster.delete_file(path)
        self.backend_mutations += 1
        self._backend.labels("mutate").inc()
        if home is not None:
            self.cache.put_negative(
                path, now, backend_version=self.cluster.path_version(path)
            )
        return GatewayResponse(
            path=path,
            outcome=Outcome.SERVED if home is not None else Outcome.NEGATIVE_HIT,
            home_id=home,
            latency_ms=self.cluster.config.network.round_trip_ms(),
        )

    def rename(
        self,
        old_prefix: str,
        new_prefix: str,
        now: float = 0.0,
        tenant: str = "-",
    ) -> int:
        """Rename a subtree; the mutation hook invalidates both prefixes.

        Renames are **barrier operations** in write-back mode: every
        pending mutation whose path falls under either prefix is flushed
        first (boundary-aware — a pending ``/a/bc`` survives a rename of
        ``/a/b``), then the rename applies synchronously.  A pending
        mutation whose home is unreachable during the partial barrier is
        declared lost (counted and recorded), never silently dropped —
        its path is about to change, so re-parking it is not sound.
        """
        self._requests.labels("rename", tenant).inc()
        if self.writeback is not None:
            affected = set(self.writeback.paths_under(old_prefix))
            affected.update(self.writeback.paths_under(new_prefix))
            if affected:
                self._wb["rename_barriers"].inc()
                grouped = self.writeback.drain_paths(affected)
                for home in sorted(grouped):
                    self._flush_mutations(home, grouped[home], now, final=True)
            self._wb["passthrough"].labels("rename").inc()
        renamed = self.cluster.rename_subtree(old_prefix, new_prefix)
        self.backend_mutations += 1
        self._backend.labels("mutate").inc()
        return renamed

    # ------------------------------------------------------------------
    # Write-back buffering
    # ------------------------------------------------------------------
    def add_ack_listener(self, listener: AckListener) -> None:
        """Register a callback fired at flush-ack time.

        Called as ``listener(mutation, outcome)`` when the home MDS
        settles a buffered mutation (``outcome.applied``/``.conflict``
        tell how), and as ``listener(mutation, None)`` when the mutation
        is declared lost.  The cohort tier mints invalidation records
        here — never at enqueue time, because an unflushed mutation has
        not happened as far as the fleet (and every peer) is concerned.
        """
        self._ack_listeners.append(listener)

    def _fire_ack(
        self, mutation: PendingMutation, outcome: Optional[MutationOutcome]
    ) -> None:
        for listener in self._ack_listeners:
            listener(mutation, outcome)

    def _buffer_create(
        self, path: str, now: float, home_id: Optional[int]
    ) -> GatewayResponse:
        buffer = self.writeback
        assert buffer is not None
        pending = buffer.get(path)
        base_version: Optional[int] = None
        if home_id is None:
            if pending is not None:
                # Same-path overwrite: stay at the pending home (enqueue
                # keeps the original base when absorbing).
                home_id = pending.home_id
            else:
                entry = self.cache.peek(path)
                if entry is not None and entry.home_id is not None:
                    home_id = entry.home_id
                else:
                    home_id = self._wb_rng.choice(sorted(self.cluster.servers))
        if pending is None:
            entry = self.cache.peek(path)
            if entry is not None:
                base_version = entry.backend_version
        record = FileMetadata(path=path, inode=self._next_inode())
        mutation = buffer.enqueue(
            "create",
            path,
            home_id,
            now,
            record=record,
            base_version=base_version,
        )
        self._wb["enqueued"].labels("create").inc()
        self._note_enqueue(mutation, now)
        self._mirror_absorbed()
        self.maybe_flush(now)
        pending_after = buffer.get(path)
        return GatewayResponse(
            path=path,
            outcome=Outcome.BUFFERED,
            home_id=(
                pending_after.home_id if pending_after is not None else home_id
            ),
            record=record,
            latency_ms=CACHE_HIT_LATENCY_MS,
            from_overlay=True,
        )

    def _buffer_delete(self, path: str, now: float) -> GatewayResponse:
        buffer = self.writeback
        assert buffer is not None
        pending = buffer.get(path)
        home_id: Optional[int] = None
        base_version: Optional[int] = None
        latency_ms = CACHE_HIT_LATENCY_MS
        if pending is not None:
            home_id = pending.home_id
        else:
            entry = self.cache.peek(path)
            if entry is not None and entry.negative and entry.fresh(now):
                # Fresh negative lease: the path is known absent.
                return GatewayResponse(
                    path=path,
                    outcome=Outcome.NEGATIVE_HIT,
                    latency_ms=CACHE_HIT_LATENCY_MS,
                    from_cache=True,
                )
            if entry is not None and entry.home_id is not None:
                home_id = entry.home_id
                base_version = entry.backend_version
            else:
                # No routing hint: resolve the home through the backend
                # (a mutation-path RPC) so the delete batches correctly;
                # the caller blocked on that round trip.
                home_id, base_version, degraded = self._resolve_for_delete(
                    path, now
                )
                latency_ms = self.cluster.config.network.round_trip_ms()
                if degraded:
                    # Partial multicast: routing unknown.  Never drop the
                    # delete — fall through to the synchronous path (the
                    # cluster owns routing), exactly as write-through
                    # would.  Guessing a home is not sound: a wrong-home
                    # delete settles as a conflict, not a retry.
                    self._wb["passthrough"].labels("delete").inc()
                    home = self.cluster.delete_file(path)
                    self.backend_mutations += 1
                    self._backend.labels("mutate").inc()
                    if home is not None:
                        self.cache.put_negative(
                            path,
                            now,
                            backend_version=self.cluster.path_version(path),
                        )
                    return GatewayResponse(
                        path=path,
                        outcome=(
                            Outcome.SERVED
                            if home is not None
                            else Outcome.NEGATIVE_HIT
                        ),
                        home_id=home,
                        latency_ms=latency_ms,
                    )
                if home_id is None:
                    return GatewayResponse(
                        path=path,
                        outcome=Outcome.NEGATIVE_HIT,
                        latency_ms=latency_ms,
                    )
        mutation = buffer.enqueue(
            "delete", path, home_id, now, base_version=base_version
        )
        self._wb["enqueued"].labels("delete").inc()
        self._note_enqueue(mutation, now)
        self._mirror_absorbed()
        self.maybe_flush(now)
        return GatewayResponse(
            path=path,
            outcome=Outcome.BUFFERED,
            latency_ms=latency_ms,
            from_overlay=True,
        )

    def _note_enqueue(self, mutation: PendingMutation, now: float) -> None:
        """Trace/flight bookkeeping for one buffered mutation.

        Mints the root span of the mutation's causal trace (client
        enqueue) and stamps its context on the pending record, so the
        flush, arbitration and invalidation hops downstream all attach
        to the same tree.  No-op (and allocation-free) when tracing and
        the flight recorder are both disabled.
        """
        if self.tracer.enabled:
            span = self.tracer.start_span(
                mutation.path,
                self.config.writeback_origin,
                component="gateway",
                kind="wb_enqueue",
            )
            span.event(
                "wb_enqueue",
                target=mutation.home_id,
                op=mutation.op,
                version=mutation.version,
                absorbed=mutation.absorbed,
            )
            span.finish("WB-ENQUEUE", mutation.home_id, 0.0, 0)
            mutation.trace = span.context(self.config.writeback_origin)
        if self._flight.enabled:
            self._flight.record(
                "wb_enqueue",
                now,
                op=mutation.op,
                path=mutation.path,
                home=mutation.home_id,
                version=mutation.version,
            )

    def _resolve_for_delete(
        self, path: str, now: float
    ) -> Tuple[Optional[int], Optional[int], bool]:
        """Find the home (and base version) of a delete with no lease.

        Returns ``(home_id, base_version, degraded)``; ``degraded`` means
        the multicast was partial and *nothing* can be concluded — the
        caller must not treat the path as absent.
        """
        result = self.cluster.query(path)
        self.backend_mutations += 1
        self._backend.labels("mutate_resolve").inc()
        if result.degraded:
            self._uncacheable.inc()
            return None, None, True
        version = self.cluster.path_version(path)
        if result.home_id is None:
            self.cache.put_negative(path, now, backend_version=version)
            return None, None, False
        record = self.cluster.servers[result.home_id].store.get(path)
        self.cache.put(
            path, result.home_id, record, now, backend_version=version
        )
        return result.home_id, version, False

    def _next_inode(self) -> int:
        inode = (
            sum(s.file_count for s in self.cluster.servers.values())
            + self._wb_created
        )
        self._wb_created += 1
        return inode

    def _mirror_absorbed(self) -> None:
        """Mirror the buffer's absorption tally into the counter."""
        buffer = self.writeback
        assert buffer is not None
        delta = buffer.absorbed - int(self._wb["absorbed"].value)
        if delta:
            self._wb["absorbed"].inc(delta)

    # ------------------------------------------------------------------
    # The flush engine
    # ------------------------------------------------------------------
    def maybe_flush(self, now: float) -> FlushReport:
        """Flush every home bucket that tripped a size or age trigger."""
        report = FlushReport()
        buffer = self.writeback
        if buffer is None:
            return report
        cfg = self.config
        for home_id in buffer.homes():
            if self._wb_backoff.get(home_id, 0.0) > now:
                continue
            if (
                buffer.pending_for(home_id) >= cfg.flush_max_pending
                or buffer.oldest_age(home_id, now) >= cfg.flush_age_s
            ):
                report.merge(self._flush_home(home_id, now, final=False))
        return report

    def flush_barrier(self, now: float = 0.0) -> FlushReport:
        """Flush **everything**; what cannot be acked is declared lost.

        The explicit end-of-run (and test harness) synchronization
        point: after it returns, every buffered mutation has either been
        acknowledged by its home MDS, surfaced as a version-race
        conflict, or is listed in ``report.lost`` (and
        ``self.lost_mutations``) — nothing stays silently parked.
        """
        report = FlushReport()
        buffer = self.writeback
        if buffer is None:
            return report
        self._wb["barriers"].inc()
        for home_id in buffer.homes():
            report.merge(self._flush_home(home_id, now, final=True))
        return report

    def _flush_home(
        self, home_id: int, now: float, final: bool
    ) -> FlushReport:
        buffer = self.writeback
        assert buffer is not None
        batch = buffer.drain_home(home_id)
        return self._flush_mutations(home_id, batch, now, final)

    def _flush_mutations(
        self,
        home_id: int,
        batch: List[PendingMutation],
        now: float,
        final: bool,
    ) -> FlushReport:
        report = FlushReport()
        if not batch:
            return report
        buffer = self.writeback
        assert buffer is not None
        report.batches += 1
        flush_spans: Dict[int, Span] = {}
        if self.tracer.enabled:
            # One flush span per mutation, parented on the enqueue span
            # (or the previous flush attempt).  The mutation's context is
            # re-pointed at the flush span before the payload is built,
            # so the MDS arbitration span and the invalidation mint both
            # land *under* the flush hop in the assembled tree.
            origin = self.config.writeback_origin
            payload = []
            for m in batch:
                ctx = m.trace
                span = self.tracer.start_span(
                    m.path,
                    origin,
                    trace_id=None if ctx is None else ctx[0],
                    parent_id=None if ctx is None else ctx[1],
                    component="gateway",
                    kind="wb_flush",
                )
                flush_spans[m.version] = span
                m.trace = span.context(origin)
                payload.append(m.as_path_mutation())
        else:
            payload = [m.as_path_mutation() for m in batch]
        result = None
        for _ in range(self.config.flush_retry_limit):
            report.attempts += 1
            self.backend_mutations += 1
            self._backend.labels("mutate_batch").inc()
            self._wb["flush_batches"].inc()
            attempt = self.cluster.apply_mutation_batch(
                home_id,
                payload,
                origin=self.config.writeback_origin,
                acked_version=buffer.ack_floor,
            )
            if not attempt.degraded:
                result = attempt
                break
            self._wb["retries"].inc()
        if result is None:
            if self._flight.enabled:
                self._flight.record(
                    "wb_flush_unreachable",
                    now,
                    home=home_id,
                    count=len(batch),
                    final=final,
                )
            if final:
                # Explicit loss: count, record, surface — and drop the
                # leases so later reads refetch true (pre-mutation) state
                # instead of serving the phantom write.
                self._wb["lost"].inc(len(batch))
                for mutation in batch:
                    buffer.settle(mutation.version)
                    self.lost_mutations.append(mutation)
                    self.cache.invalidate(mutation.path, cause="writeback_lost")
                    self._finish_flush_span(
                        flush_spans, mutation, home_id, "WB-LOST"
                    )
                    self._fire_ack(mutation, None)
                report.lost.extend(batch)
            else:
                # Transient: re-park for a later trigger (the fault
                # window may close); only a barrier declares loss.
                self._wb["deferred"].inc(len(batch))
                for mutation in batch:
                    mutation.retries += 1
                    self._finish_flush_span(
                        flush_spans, mutation, home_id, "WB-DEFERRED"
                    )
                buffer.requeue(batch)
                self._wb_backoff[home_id] = (
                    now + self.config.flush_retry_backoff_s
                )
                report.deferred.extend(batch)
            return report
        self._wb_backoff.pop(home_id, None)
        outcomes = {o.version: o for o in result.outcomes}
        for mutation in batch:
            outcome = outcomes.get(mutation.version)
            if outcome is None:
                # The home never saw this version (should not happen with
                # an intact reply); treat as deferred/lost conservatively.
                if final:
                    self._wb["lost"].inc()
                    buffer.settle(mutation.version)
                    self.lost_mutations.append(mutation)
                    self.cache.invalidate(mutation.path, cause="writeback_lost")
                    self._finish_flush_span(
                        flush_spans, mutation, home_id, "WB-LOST"
                    )
                    self._fire_ack(mutation, None)
                    report.lost.append(mutation)
                else:
                    self._wb["deferred"].inc()
                    self._finish_flush_span(
                        flush_spans, mutation, home_id, "WB-DEFERRED"
                    )
                    buffer.requeue([mutation])
                    report.deferred.append(mutation)
                continue
            buffer.settle(mutation.version)
            if flush_spans:
                span = flush_spans.get(mutation.version)
                if span is not None:
                    span.event(
                        "wb_ack",
                        target=home_id,
                        applied=outcome.applied,
                        conflict=outcome.conflict,
                        deduped=outcome.deduped,
                        new_version=outcome.new_version,
                    )
                    span.finish(
                        "WB-ACKED" if outcome.applied else "WB-CONFLICT",
                        home_id,
                        0.0,
                        2,
                    )
            if outcome.applied:
                self._wb["flushed"].labels(mutation.op, home_id).inc()
                if mutation.op == "create":
                    self.cache.put(
                        mutation.path,
                        home_id,
                        mutation.record,
                        now,
                        backend_version=outcome.new_version,
                    )
                else:
                    self.cache.put_negative(
                        mutation.path,
                        now,
                        backend_version=outcome.new_version,
                    )
                report.acked.append(mutation)
            else:  # version race lost: re-read, never clobber
                self._wb["conflicts"].inc()
                if self._flight.enabled:
                    self._flight.record(
                        "wb_conflict",
                        now,
                        path=mutation.path,
                        home=home_id,
                        version=mutation.version,
                        winner_version=outcome.new_version,
                    )
                self.cache.invalidate(
                    mutation.path, cause="writeback_conflict"
                )
                self._reread_after_conflict(mutation.path, now)
                report.conflicts.append(mutation)
            self._fire_ack(mutation, outcome)
        return report

    @staticmethod
    def _finish_flush_span(
        flush_spans: Dict[int, Span],
        mutation: PendingMutation,
        home_id: int,
        level: str,
    ) -> None:
        """Seal one flush span on the non-acked exits (lost/deferred)."""
        if not flush_spans:
            return
        span = flush_spans.get(mutation.version)
        if span is not None:
            span.event(
                "wb_flush_exit",
                target=home_id,
                op=mutation.op,
                retries=mutation.retries,
            )
            span.finish(level, home_id, 0.0, 1)

    def _reread_after_conflict(self, path: str, now: float) -> None:
        """Refetch the race winner's state and install a fresh lease."""
        result = self.cluster.query(path)
        self.backend_mutations += 1
        self._backend.labels("writeback_reread").inc()
        self._wb["rereads"].inc()
        if result.degraded:
            self._uncacheable.inc()
            return
        version = self.cluster.path_version(path)
        if result.home_id is not None:
            record = self.cluster.servers[result.home_id].store.get(path)
            self.cache.put(
                path, result.home_id, record, now, backend_version=version
            )
        else:
            self.cache.put_negative(path, now, backend_version=version)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def hit_rate(self) -> float:
        return self.cache.hit_rate()

    def shed_total(self) -> int:
        return self.admission.stats.shed

    def top_hotspots(self, k: int = 5) -> List[HeavyHitter]:
        return self.hotspots.top_k(k)

    def __repr__(self) -> str:
        return (
            f"MetadataClient(cache={len(self.cache)}, "
            f"backend_queries={self.backend_queries}, "
            f"hit_rate={self.hit_rate():.3f})"
        )
