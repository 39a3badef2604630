"""Operator surface: dashboard-style text reports and hotspot ranking.

:func:`render_summary` renders a :class:`~repro.core.metrics.ClusterSummary`
(the old ``format_summary``, which is now a thin wrapper over this).
:func:`hotspot_report` ranks servers and groups by query share,
false-forward rate and stale-bit backlog — the "where is it hot" view a
G-HBA operator reads before rebalancing.  :func:`render_report` combines
both into the full dashboard shown by ``python -m repro.obs report``.

Everything here works off the cluster's metrics registry and public
introspection surface; there are no module-level imports from
``repro.core``, so ``repro.core.metrics`` can import this module freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.cluster import GHBACluster
    from repro.core.metrics import ClusterSummary
    from repro.gateway.client import MetadataClient


def render_summary(summary: "ClusterSummary") -> str:
    """Render a cluster health summary as aligned text."""
    lines = [
        f"servers / groups        : {summary.num_servers} / "
        f"{summary.num_groups} {summary.group_sizes}",
        f"files (imbalance)       : {summary.total_files} "
        f"(x{summary.file_imbalance:.2f})",
        f"theta (replica imbal.)  : {summary.mean_theta:.2f} "
        f"({summary.replica_imbalance})",
        f"bloom bytes per server  : {summary.bloom_bytes_per_server:.0f}",
        f"queries (mean/p95 ms)   : {summary.total_queries} "
        f"({summary.mean_latency_ms:.3f} / {summary.p95_latency_ms:.3f})",
        f"messages / false fwds   : {summary.total_messages} / "
        f"{summary.false_forwards}",
        f"stale bits outstanding  : {summary.stale_bits_outstanding}",
        f"mean LRU hit rate       : {summary.mean_lru_hit_rate:.3f}",
    ]
    for level, fraction in sorted(summary.level_fractions.items()):
        lines.append(f"served at {level:<13} : {fraction * 100:.1f}%")
    return "\n".join(lines)


@dataclass(frozen=True)
class ServerHotspot:
    """Ranked per-server load attribution."""

    server_id: int
    queries_served: int
    query_share: float
    forwards: int
    false_forwards: int
    false_forward_rate: float
    stale_bits: int
    files: int
    theta: int


@dataclass(frozen=True)
class GroupHotspot:
    """Ranked per-group load attribution."""

    group_id: int
    size: int
    queries_served: int
    query_share: float
    multicasts: int
    stale_bits: int


def _counter_value(cluster: "GHBACluster", name: str, *labels: object) -> float:
    family = cluster.metrics.get(name)
    if family is None:
        return 0.0
    return family.get(*labels)  # type: ignore[union-attr]


def server_hotspots(cluster: "GHBACluster") -> List[ServerHotspot]:
    """Per-server attribution, hottest (most queries served) first."""
    total_served = sum(
        _counter_value(cluster, "ghba_server_queries_served_total", sid)
        for sid in cluster.servers
    )
    rows: List[ServerHotspot] = []
    for sid, server in cluster.servers.items():
        served = _counter_value(
            cluster, "ghba_server_queries_served_total", sid
        )
        forwards = _counter_value(cluster, "ghba_server_forwards_total", sid)
        false_forwards = _counter_value(
            cluster, "ghba_server_false_forwards_total", sid
        )
        rows.append(
            ServerHotspot(
                server_id=sid,
                queries_served=int(served),
                query_share=served / total_served if total_served else 0.0,
                forwards=int(forwards),
                false_forwards=int(false_forwards),
                false_forward_rate=(
                    false_forwards / forwards if forwards else 0.0
                ),
                stale_bits=server.staleness_bits(),
                files=server.file_count,
                theta=server.theta,
            )
        )
    rows.sort(
        key=lambda r: (-r.queries_served, -r.false_forwards, r.server_id)
    )
    return rows


def group_hotspots(cluster: "GHBACluster") -> List[GroupHotspot]:
    """Per-group attribution, hottest first."""
    total_served = sum(
        _counter_value(cluster, "ghba_group_queries_served_total", gid)
        for gid in cluster.groups
    )
    rows: List[GroupHotspot] = []
    for gid, group in cluster.groups.items():
        served = _counter_value(
            cluster, "ghba_group_queries_served_total", gid
        )
        multicasts = _counter_value(
            cluster, "ghba_group_multicasts_total", gid
        )
        rows.append(
            GroupHotspot(
                group_id=gid,
                size=group.size,
                queries_served=int(served),
                query_share=served / total_served if total_served else 0.0,
                multicasts=int(multicasts),
                stale_bits=sum(
                    member.staleness_bits() for member in group.members()
                ),
            )
        )
    rows.sort(key=lambda r: (-r.queries_served, -r.multicasts, r.group_id))
    return rows


def hotspot_report(cluster: "GHBACluster", top: int = 5) -> str:
    """Rank servers and groups by query share / misrouting / staleness."""
    lines = [f"-- hotspots: servers (top {top} by query share) --"]
    lines.append(
        "server  served  share%  fwd   ff  ff-rate%  stale-bits  files  theta"
    )
    for row in server_hotspots(cluster)[:top]:
        lines.append(
            f"{row.server_id:>6}  {row.queries_served:>6}  "
            f"{row.query_share * 100:>6.1f}  {row.forwards:>4}  "
            f"{row.false_forwards:>3}  {row.false_forward_rate * 100:>8.1f}  "
            f"{row.stale_bits:>10}  {row.files:>5}  {row.theta:>5}"
        )
    lines.append("")
    lines.append(f"-- hotspots: groups (top {top} by query share) --")
    lines.append("group  size  served  share%  multicasts  stale-bits")
    for row in group_hotspots(cluster)[:top]:
        lines.append(
            f"{row.group_id:>5}  {row.size:>4}  {row.queries_served:>6}  "
            f"{row.query_share * 100:>6.1f}  {row.multicasts:>10}  "
            f"{row.stale_bits:>10}"
        )
    return "\n".join(lines)


def gateway_hotspot_report(gateway: "MetadataClient", top: int = 5) -> str:
    """The gateway tier's heavy-hitter table: hot paths and shield state.

    Rows come from the sliding-window space-saving sketch
    (:mod:`repro.gateway.hotspot`); ``est`` is the windowed request
    estimate, ``err`` its maximum over-count, ``shielded`` whether the
    path currently holds a pinned, extended lease in the gateway cache.
    """
    lines = [f"-- hotspots: gateway paths (top {top} by request share) --"]
    hitters = gateway.top_hotspots(top)
    if not hitters:
        lines.append("(no gateway traffic observed)")
        return "\n".join(lines)
    pinned = set(gateway.cache.pinned_paths())
    lines.append("est    err  hot  shielded  path")
    for hitter in hitters:
        hot = "yes" if gateway.hotspots.is_hot(hitter.key) else "no"
        shielded = "yes" if hitter.key in pinned else "no"
        lines.append(
            f"{hitter.count:>5}  {hitter.error:>3}  {hot:>3}  "
            f"{shielded:>8}  {hitter.key}"
        )
    lines.append(
        f"cache: {len(gateway.cache)} leases, "
        f"hit rate {gateway.hit_rate():.3f}, "
        f"{len(pinned)} shielded, "
        f"shed {gateway.shed_total()}"
    )
    return "\n".join(lines)


#: Counter-family prefixes the pipeline section covers, in render order.
PIPELINE_PREFIXES = (
    "gateway_writeback_",
    "gateway_cohort_",
    "gateway_staleness_",
)


def _counter_section(registry, title: str, prefixes, kinds) -> str:
    """One line per non-empty family of ``kinds`` whose name starts with
    one of ``prefixes``: its per-series values in label order.  Returns
    ``""`` when no such family has recorded anything, so runs without
    the subsystem keep their report byte-identical."""
    rows: List[str] = []
    for family in registry.families():
        if family.kind not in kinds or len(family) == 0:
            continue
        if not family.name.startswith(prefixes):
            continue
        series = [
            ("|".join(labels), child.value)
            for labels, child in family.children()
        ]
        if len(series) == 1 and series[0][0] == "":
            cells = f"{series[0][1]:g}"
        else:
            cells = "  ".join(f"{label}={value:g}" for label, value in series)
        rows.append(f"{family.name:<42} {cells}")
    if not rows:
        return ""
    return "\n".join([f"-- {title} --"] + rows)


def gateway_pipeline_report(registry, prefixes=PIPELINE_PREFIXES) -> str:
    """Counter tables for the write-back / cohort / staleness pipelines."""
    return _counter_section(
        registry, "gateway pipeline counters", tuple(prefixes), ("counter",)
    )


def transport_report(registry) -> str:
    """Counter/gauge tables for the wire transport (``transport_*``):
    both transports' shared retry counters and the TCP-only wire stats
    (bytes/frames by direction, connects, backpressure stalls, queue
    high-water)."""
    return _counter_section(
        registry, "transport counters", ("transport_",), ("counter", "gauge")
    )


def replication_report(registry) -> str:
    """Counter/gauge tables for cross-cluster replication
    (``replication_*``): captured/shipped/acked entries, retransmits,
    fencing rejections, per-home lag gauges."""
    return _counter_section(
        registry,
        "replication counters",
        ("replication_",),
        ("counter", "gauge"),
    )


def render_report(
    cluster: "GHBACluster",
    top: int = 5,
    gateway: "MetadataClient" = None,
) -> str:
    """The full dashboard: health summary plus hotspot ranking.

    When a gateway client fronts the cluster, pass it as ``gateway`` to
    append the gateway-tier hotspots section.
    """
    from repro.core.metrics import summarize  # lazy: avoids import cycle

    refresh = getattr(cluster, "refresh_gauges", None)
    if callable(refresh):
        refresh()
    sections = [
        "== G-HBA cluster observability report ==",
        "",
        "-- health summary --",
        render_summary(summarize(cluster)),
        "",
        hotspot_report(cluster, top=top),
    ]
    if gateway is not None:
        gateway.refresh_gauges()
        sections.extend(["", gateway_hotspot_report(gateway, top=top)])
        registry = gateway.metrics
    else:
        # Shared-registry runs (cohort harnesses register on the
        # cluster's registry) still get the pipeline tables.
        registry = cluster.metrics
    pipeline = gateway_pipeline_report(registry)
    if pipeline:
        sections.extend(["", pipeline])
    transport = transport_report(registry)
    if transport:
        sections.extend(["", transport])
    replication = replication_report(registry)
    if replication:
        sections.extend(["", replication])
    return "\n".join(sections)
