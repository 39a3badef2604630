"""The prototype cluster: a fleet of MDS node threads plus a directory.

``PrototypeCluster`` builds either a G-HBA deployment (nodes packed into
groups of at most M, each group holding one replica mirror) or an HBA
deployment (every node holds every replica).  Clients call :meth:`lookup`,
which drives the real request/reply protocol over the transport; node
additions run the join/split machinery message by message so Figure 15's
counts are observed on the wire.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.checkpoint import restore_server, snapshot_server
from repro.core.config import GHBAConfig
from repro.core.query import QueryLevel
from repro.faults.injector import FaultInjector
from repro.faults.retry import RetryPolicy
from repro.metadata.attributes import FileMetadata
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.prototype.messages import Message, MessageKind
from repro.prototype.node import MDSNode
from repro.prototype.transport import InProcessTransport, TransportClosed

#: Client sender ID used in messages.
CLIENT = -1


@dataclass(frozen=True)
class LookupOutcome:
    """Result of one prototype lookup.

    ``degraded`` is True when a fault forced the lookup off its normal
    path — a protocol step timed out, a multicast lost members, or the
    group probe escalated to the global broadcast.  Fault-free lookups
    always report False.
    """

    path: str
    home_id: Optional[int]
    level: QueryLevel
    virtual_latency_ms: float
    origin_id: int
    degraded: bool = False

    @property
    def found(self) -> bool:
        return self.home_id is not None


class PrototypeCluster:
    """A running fleet of MDS nodes.

    Parameters
    ----------
    num_nodes:
        Initial node count.
    config:
        Shared configuration; ``max_group_size`` is G-HBA's M.
    scheme:
        ``"ghba"`` or ``"hba"``.
    seed:
        Seed for origin selection and placement.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; each :meth:`lookup`
        opens a span over the real request/reply protocol hops.
    metrics:
        Optional shared :class:`~repro.obs.registry.MetricsRegistry` for
        per-level lookup counts, lookup latency and wire message totals.
    injector:
        Optional :class:`~repro.faults.injector.FaultInjector` installed
        on the transport; lookups degrade gracefully (escalating to the
        global broadcast) instead of failing when it loses messages.
    retry:
        Optional :class:`~repro.faults.retry.RetryPolicy` for the
        transport's request/gather retries.
    """

    def __init__(
        self,
        num_nodes: int,
        config: Optional[GHBAConfig] = None,
        scheme: str = "ghba",
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        injector: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        flight=None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if scheme not in ("ghba", "hba"):
            raise ValueError(f"scheme must be 'ghba' or 'hba', got {scheme!r}")
        self.config = config or GHBAConfig()
        self.scheme = scheme
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional FlightRecorderHub; crash_node records and dumps here.
        self.flight = flight
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.transport = InProcessTransport(
            injector=injector, retry=retry, metrics=self.metrics
        )
        self._lookups_by_level = self.metrics.counter(
            "proto_lookups_total",
            "Prototype lookups resolved, by hierarchy level.",
            labels=("level",),
        )
        self._lookup_latency = self.metrics.histogram(
            "proto_lookup_latency_ms",
            "Prototype lookup virtual latency in milliseconds.",
            seed=seed,
        ).labels()
        self._degraded_lookups = self.metrics.counter(
            "proto_degraded_lookups_total",
            "Prototype lookups that lost protocol steps to faults.",
        )
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.nodes: Dict[int, MDSNode] = {}
        self._next_node_id = 0
        # Directory: group id -> sorted member list; replica placements
        # per group: {replica_home_id: hosting node}.
        self.groups: Dict[int, List[int]] = {}
        self._group_of: Dict[int, int] = {}
        self._placements: Dict[int, Dict[int, int]] = {}
        self._next_group_id = 0
        #: Durable ("on-disk") state of crashed nodes, by node id.
        self._crashed: Dict[int, Dict] = {}
        self._build(num_nodes)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _spawn_node(self) -> MDSNode:
        node = MDSNode(self._next_node_id, self.config, self.transport)
        self.nodes[node.node_id] = node
        self._next_node_id += 1
        node.start()
        return node

    def _build(self, num_nodes: int) -> None:
        for _ in range(num_nodes):
            self._spawn_node()
        node_ids = sorted(self.nodes)
        if self.scheme == "hba":
            group_id = self._new_group_id()
            self.groups[group_id] = list(node_ids)
            for node_id in node_ids:
                self._group_of[node_id] = group_id
            self._placements[group_id] = {}
            # Full replication: every node hosts every other node's filter.
            for node_id in node_ids:
                replica = self.nodes[node_id].server.publish_filter()
                for other_id in node_ids:
                    if other_id != node_id:
                        self.nodes[other_id].server.host_replica(
                            node_id, replica.copy()
                        )
            return
        max_size = self.config.max_group_size
        num_groups = -(-len(node_ids) // max_size)  # ceil: balanced groups
        base_size, extra = divmod(len(node_ids), num_groups)
        cursor = 0
        for index in range(num_groups):
            size = base_size + (1 if index < extra else 0)
            group_id = self._new_group_id()
            members = node_ids[cursor : cursor + size]
            cursor += size
            self.groups[group_id] = members
            self._placements[group_id] = {}
            for node_id in members:
                self._group_of[node_id] = group_id
        for group_id, members in self.groups.items():
            for node_id in node_ids:
                if node_id in members:
                    continue
                replica = self.nodes[node_id].server.publish_filter()
                host = self._lightest_member(group_id)
                self.nodes[host].server.host_replica(node_id, replica)
                self._placements[group_id][node_id] = host

    def _new_group_id(self) -> int:
        group_id = self._next_group_id
        self._next_group_id += 1
        return group_id

    def _lightest_member(self, group_id: int) -> int:
        counts = {member: 0 for member in self.groups[group_id]}
        for host in self._placements[group_id].values():
            # Hosts mid-departure are no longer members; ignore their load.
            if host in counts:
                counts[host] += 1
        return min(counts, key=lambda member: (counts[member], member))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node_ids(self) -> List[int]:
        return sorted(self.nodes)

    # ------------------------------------------------------------------
    # Population (out of band, before query traffic)
    # ------------------------------------------------------------------
    def populate(self, paths: Iterable[str], policy: str = "random") -> Dict[str, int]:
        """Insert fresh records and refresh every replica (direct, bulk)."""
        node_ids = sorted(self.nodes)
        placement: Dict[str, int] = {}
        batches: Dict[int, List[FileMetadata]] = {nid: [] for nid in node_ids}
        for index, path in enumerate(paths):
            if policy == "random":
                home = self._rng.choice(node_ids)
            else:
                home = node_ids[index % len(node_ids)]
            batches[home].append(FileMetadata(path=path, inode=index))
            placement[path] = home
        for node_id, records in batches.items():
            if records:
                self.nodes[node_id].server.insert_many(records)
        self._refresh_replicas()
        return placement

    def set_memory_budget(self, budget_bytes: Optional[int]) -> None:
        """Apply a per-node memory budget to every node (and future state).

        Used by the latency experiments to anchor both schemes to the same
        absolute budget after population, when working sets are measurable.
        """
        for node in self.nodes.values():
            node.server.memory.budget_bytes = budget_bytes

    def mean_working_set_bytes(self) -> float:
        """Mean per-node bytes across all registered memory consumers."""
        totals = [node.server.memory.total_bytes for node in self.nodes.values()]
        return sum(totals) / len(totals)

    def _refresh_replicas(self) -> None:
        """Re-publish every node's filter into the hosting structures."""
        for node_id, node in self.nodes.items():
            template = node.server.publish_filter()
            if self.scheme == "hba":
                for other in self.nodes.values():
                    if other.node_id != node_id:
                        other.server.replace_replica(node_id, template.copy())
                continue
            for group_id, placements in self._placements.items():
                host = placements.get(node_id)
                # A crashed host misses the refresh; it rejoins with its
                # checkpointed (possibly stale) replica set.
                if host is not None and host in self.nodes:
                    self.nodes[host].server.replace_replica(
                        node_id, template.copy()
                    )

    # ------------------------------------------------------------------
    # Lookup protocol
    # ------------------------------------------------------------------
    def lookup(
        self,
        path: str,
        vtime: float = 0.0,
        origin_id: Optional[int] = None,
    ) -> LookupOutcome:
        """Resolve ``path`` via real messages; return the virtual latency.

        Under fault injection the protocol degrades instead of raising: a
        timed-out step is skipped (its virtual timeout is charged to the
        latency), an incomplete group multicast escalates to the global
        broadcast, and the outcome is flagged ``degraded``.
        """
        net = self.config.network
        retry = self.transport.retry
        if origin_id is None:
            with self._lock:
                origin_id = self._rng.choice(sorted(self.nodes))
        span = self.tracer.start_span(
            path, origin_id, component="prototype", kind="lookup"
        )
        # Causal context threaded onto every protocol message of this
        # lookup (None when tracing is off — no per-message allocation).
        trace_ctx = (
            span.context(origin_id) if self.tracer.enabled else None
        )
        t = vtime + net.unicast_ms / 1000.0
        checkpoint_ms = 0.0
        degraded = False
        # Virtual wait a client spends on a request that never answers.
        exhaust_penalty_s = retry.timeout_s * retry.max_attempts

        def hop(kind: str, target: Optional[int] = None, msg: int = 0, **detail) -> None:
            """Span event covering the virtual latency since the last hop."""
            nonlocal checkpoint_ms
            elapsed_ms = (t - vtime) * 1000.0
            span.event(
                kind,
                target=target,
                latency_ms=elapsed_ms - checkpoint_ms,
                messages=msg,
                **detail,
            )
            checkpoint_ms = elapsed_ms

        def try_request(
            dest: int, kind: MessageKind, arrival: float, **payload
        ) -> Optional[Message]:
            """One protocol request; None (not an exception) on failure.

            MDS-to-MDS protocol steps carry ``sender=origin_id`` so the
            fault layer can sever them along group partitions; the client
            itself is never partitioned from the service.
            """
            nonlocal t, degraded
            message = Message(
                kind=kind,
                sender=origin_id,
                payload=payload,
                arrival_vtime=arrival,
                trace=trace_ctx,
            )
            try:
                return self.transport.request(dest, message)
            except (TransportClosed, TimeoutError):
                degraded = True
                t = max(t, arrival + exhaust_penalty_s)
                hop("step_timeout", target=dest)
                return None

        def verify(target: int, arrival: float) -> Tuple[bool, float]:
            reply = try_request(target, MessageKind.VERIFY, arrival, path=path)
            if reply is None:
                return (False, t)
            finish = reply.payload["finish_vtime"]
            return (reply.payload["found"], finish + net.unicast_ms / 1000.0)

        def verify_hop(target: int) -> bool:
            """Forward to ``target`` for verification, tracing the hops."""
            nonlocal t
            hop("forward", target=target, msg=2)
            found, t = verify(target, t + net.unicast_ms / 1000.0)
            hop("verify", target=target, found=found)
            if not found:
                hop("false_forward", target=target)
            return found

        def record_and_finish(
            level: QueryLevel, home: Optional[int], t_done: float
        ) -> LookupOutcome:
            if home is not None:
                try:
                    self.transport.send(
                        origin_id,
                        Message(
                            kind=MessageKind.RECORD_LRU,
                            sender=CLIENT,
                            payload={"path": path, "home_id": home},
                            arrival_vtime=t_done,
                            trace=trace_ctx,
                        ),
                    )
                except TransportClosed:
                    pass  # origin crashed mid-lookup; the hint is lost
            latency_ms = (t_done - vtime) * 1000.0
            self._lookups_by_level.labels(level.label).inc()
            self._lookup_latency.observe(latency_ms)
            if degraded:
                self._degraded_lookups.inc()
            span.finish(
                level.label,
                home,
                latency_ms,
                span.total_event_messages(),
            )
            return LookupOutcome(
                path=path,
                home_id=home,
                level=level,
                virtual_latency_ms=latency_ms,
                origin_id=origin_id,
                degraded=degraded,
            )

        # L1 + L2: one request to the origin node.
        reply = try_request(origin_id, MessageKind.PROBE_LOCAL, t, path=path)
        if reply is None:
            # The origin itself is unreachable: nothing local to probe;
            # fall through to the global broadcast.
            l1_hits: List[int] = []
            l2_hits: Optional[List[int]] = None
        else:
            t = reply.payload["finish_vtime"] + net.unicast_ms / 1000.0
            l1_hits = reply.payload["l1_hits"]
            l2_hits = reply.payload["l2_hits"]
        hop("l1_probe", target=origin_id, msg=2, hits=len(l1_hits))
        if len(l1_hits) == 1:
            if verify_hop(l1_hits[0]):
                return record_and_finish(QueryLevel.L1, l1_hits[0], t)
            # Stale L1 entry: fall back to a separate L2 probe.
            reply = try_request(
                origin_id,
                MessageKind.PROBE_SEGMENT,
                t + net.unicast_ms / 1000.0,
                path=path,
            )
            if reply is not None:
                t = reply.payload["finish_vtime"] + net.unicast_ms / 1000.0
                l2_hits = reply.payload["hits"]
        hop(
            "l2_probe",
            target=origin_id,
            hits=len(l2_hits) if l2_hits is not None else 0,
        )
        if l2_hits is not None and len(l2_hits) == 1:
            if verify_hop(l2_hits[0]):
                return record_and_finish(QueryLevel.L2, l2_hits[0], t)

        # L3: multicast within the origin's group (G-HBA only).
        if self.scheme == "ghba":
            group_id = self._group_of[origin_id]
            members = [m for m in self.groups[group_id] if m != origin_id]
            if members:
                arrival = t + net.unicast_ms / 1000.0
                result = self.transport.gather(
                    members,
                    lambda dest: Message(
                        kind=MessageKind.PROBE_SEGMENT,
                        sender=origin_id,
                        payload={"path": path},
                        arrival_vtime=arrival,
                        trace=trace_ctx,
                    ),
                )
                hits: set = set(l2_hits or [])
                finish = t
                for reply in result.replies.values():
                    hits.update(reply.payload["hits"])
                    finish = max(finish, reply.payload["finish_vtime"])
                if not result.complete:
                    # Waited out the silent members before giving up.
                    degraded = True
                    finish = max(finish, arrival + exhaust_penalty_s)
                t = finish + net.unicast_ms / 1000.0
                hop(
                    "group_multicast",
                    target=group_id,
                    msg=2 * len(members),
                    hits=len(hits),
                )
                # A unique hit from a *partial* multicast is not trusted:
                # the silent member might host the real home's replica, so
                # the query escalates to the global broadcast instead.
                if len(hits) == 1 and result.complete:
                    target = next(iter(hits))
                    if verify_hop(target):
                        return record_and_finish(QueryLevel.L3, target, t)

        # L4: global multicast — every node verifies locally.
        others = [nid for nid in self.node_ids() if nid != origin_id]
        arrival = t + net.unicast_ms / 1000.0
        result = self.transport.gather(
            others,
            lambda dest: Message(
                kind=MessageKind.VERIFY,
                sender=origin_id,
                payload={"path": path},
                arrival_vtime=arrival,
                trace=trace_ctx,
            ),
        )
        home: Optional[int] = None
        finish = t
        for node_id, reply in result.replies.items():
            finish = max(finish, reply.payload["finish_vtime"])
            if reply.payload["found"]:
                home = node_id
        if not result.complete:
            degraded = True
            finish = max(finish, arrival + exhaust_penalty_s)
        # The origin itself may be the home.
        origin_reply = try_request(
            origin_id, MessageKind.VERIFY, t + net.unicast_ms / 1000.0, path=path
        )
        if origin_reply is not None:
            finish = max(finish, origin_reply.payload["finish_vtime"])
            if origin_reply.payload["found"]:
                home = origin_id
        t = max(t, finish + net.unicast_ms / 1000.0)
        hop(
            "global_multicast",
            msg=2 * (len(others) + 1),
            found=home is not None,
        )
        if home is not None:
            return record_and_finish(QueryLevel.L4, home, t)
        return record_and_finish(QueryLevel.NEGATIVE, None, t)

    def apply_mutation_batch(
        self,
        node_id: int,
        mutations: List[Dict[str, object]],
        origin: int = 0,
        acked_version: int = 0,
        vtime: float = 0.0,
    ) -> Dict[str, object]:
        """Flush one write-back mutation batch to ``node_id`` over the wire.

        Each mutation dict carries ``version``/``op``/``path`` (plus
        ``record`` for creates); the node applies them **at most once**
        per ``(origin, version)`` — the transport's retry policy may
        duplicate the request, and the node's durable high-water mark
        absorbs the replay.  On a timeout (crash, drop schedule beyond
        the retry budget) ``degraded`` is True and *whether* the batch
        applied is unknown — the caller retries the identical batch or
        declares the loss at its flush barrier.
        """
        if node_id not in self.nodes and node_id not in self._crashed:
            raise KeyError(f"unknown node {node_id}")
        net = self.config.network
        arrival = vtime + net.unicast_ms / 1000.0
        message = Message(
            kind=MessageKind.MUTATE_BATCH,
            sender=CLIENT,
            payload={
                "origin": origin,
                "acked": acked_version,
                "mutations": list(mutations),
            },
            arrival_vtime=arrival,
        )
        try:
            reply = self.transport.request(node_id, message)
        except (TransportClosed, TimeoutError):
            retry = self.transport.retry
            penalty = retry.timeout_s * retry.max_attempts
            return {
                "outcomes": [],
                "virtual_latency_ms": penalty * 1000.0,
                "degraded": True,
            }
        finish = reply.payload["finish_vtime"] + net.unicast_ms / 1000.0
        return {
            "outcomes": reply.payload["outcomes"],
            "virtual_latency_ms": (finish - vtime) * 1000.0,
            "degraded": False,
        }

    # ------------------------------------------------------------------
    # Node addition (Figure 15's measured operation)
    # ------------------------------------------------------------------
    def add_node(self) -> Dict[str, int]:
        """Add one node via the live join protocol; return message counts."""
        before = self.transport.messages_sent
        newcomer = self._spawn_node()
        if self.scheme == "hba":
            self._hba_join(newcomer)
        else:
            self._ghba_join(newcomer)
        messages = self.transport.messages_sent - before
        self.quiesce()
        return {"node_id": newcomer.node_id, "messages": messages}

    def quiesce(self) -> None:
        """Wait until every node has drained its mailbox.

        Mailboxes are FIFO, so a PING round trip to each node guarantees all
        previously sent one-way messages (replica transfers) are applied.
        One-way transfers relayed through another node (COPY_REPLICA_TO)
        need two passes: the first drains the control messages, the second
        the transfers they spawned.  Sync pings are not counted on the wire.
        """
        for _ in range(2):
            for node_id in self.node_ids():
                self.transport.request(
                    node_id,
                    Message(kind=MessageKind.PING, sender=CLIENT),
                    count=False,
                )

    def _hba_join(self, newcomer: MDSNode) -> None:
        """HBA join: exchange Bloom filters with every existing node."""
        template = newcomer.server.publish_filter()
        group_id = self._group_of[next(iter(self.groups.values()))[0]]
        for node_id in self.node_ids():
            if node_id == newcomer.node_id:
                continue
            reply = self.transport.request(
                node_id,
                Message(
                    kind=MessageKind.EXCHANGE_REPLICA,
                    sender=CLIENT,
                    payload={"home_id": newcomer.node_id, "replica": template.copy()},
                ),
            )
            newcomer.server.host_replica(node_id, reply.payload["replica"])
        self.groups[group_id].append(newcomer.node_id)
        self.groups[group_id].sort()
        self._group_of[newcomer.node_id] = group_id

    def _ghba_join(self, newcomer: MDSNode) -> None:
        """G-HBA join: fill a group with room, or split the fullest group."""
        max_size = self.config.max_group_size
        with_room = [
            gid for gid, members in self.groups.items() if len(members) < max_size
        ]
        if not with_room:
            self._split_fullest_group()
            # The split's replica transfers are one-way and may still be in
            # flight; the join below redistributes some of those replicas,
            # so wait for them to land first.
            self.quiesce()
            with_room = [
                gid
                for gid, members in self.groups.items()
                if len(members) < max_size
            ]
        group_id = min(with_room, key=lambda gid: (len(self.groups[gid]), gid))
        members = self.groups[group_id]
        placements = self._placements[group_id]
        n_after = self.num_nodes
        target = math.ceil(
            max(0, n_after - (len(members) + 1)) / (len(members) + 1)
        )
        # Light-weight migration: members offload excess replicas by telling
        # the host to ship them to the newcomer (control + transfer).
        counts: Dict[int, List[int]] = {member: [] for member in members}
        for replica_id, host in placements.items():
            counts[host].append(replica_id)
        for member in members:
            hosted = sorted(counts[member])
            excess = len(hosted) - target
            for replica_id in hosted[-max(0, excess):] if excess > 0 else []:
                self.transport.send(
                    member,
                    Message(
                        kind=MessageKind.COPY_REPLICA_TO,
                        sender=CLIENT,
                        payload={
                            "home_id": replica_id,
                            "dest": newcomer.node_id,
                            "drop": True,
                        },
                    ),
                )
                placements[replica_id] = newcomer.node_id
        # Updated IDBFA multicast within the group (one message per member).
        for member in members:
            self.transport.send(
                member,
                Message(kind=MessageKind.PING, sender=CLIENT),
            )
        self.groups[group_id].append(newcomer.node_id)
        self.groups[group_id].sort()
        self._group_of[newcomer.node_id] = group_id
        # The newcomer's filter goes to one node of every *other* group.
        for other_gid in self.groups:
            if other_gid == group_id:
                continue
            host = self._lightest_member(other_gid)
            self.transport.send(
                newcomer.node_id,
                Message(
                    kind=MessageKind.SEND_LOCAL_TO,
                    sender=CLIENT,
                    payload={"dest": host},
                ),
            )
            self._placements[other_gid][newcomer.node_id] = host

    def remove_node(self, node_id: int) -> Dict[str, int]:
        """Gracefully remove a node via the live protocol (Section 3.1).

        The departing node's hosted replicas migrate to remaining group
        members; every other group is told to drop its replica; its
        metadata records are re-homed out of band (like population).
        Groups that now fit within M merge.  Returns message counts.
        """
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id}")
        if self.num_nodes == 1:
            raise ValueError("cannot remove the last node")
        before = self.transport.messages_sent
        departing = self.nodes[node_id]
        if self.scheme == "hba":
            self._hba_leave(node_id)
        else:
            self._ghba_leave(node_id)
        messages = self.transport.messages_sent - before
        self.quiesce()  # let the one-way drops and transfers land
        # Out-of-band re-homing of the departing node's metadata, followed
        # by a replica refresh so the moved files become routable.
        records = list(departing.server.store.records())
        departing.stop()
        del self.nodes[node_id]
        survivors = self.node_ids()
        for index, meta in enumerate(records):
            target = self.nodes[survivors[index % len(survivors)]]
            target.server.insert_metadata(meta)
        self._refresh_replicas()
        return {"node_id": node_id, "messages": messages}

    def _hba_leave(self, node_id: int) -> None:
        group_id = self._group_of.pop(node_id)
        self.groups[group_id].remove(node_id)
        for other_id in self.node_ids():
            if other_id == node_id:
                continue
            self.transport.send(
                other_id,
                Message(
                    kind=MessageKind.DROP_REPLICA,
                    sender=CLIENT,
                    payload={"home_id": node_id},
                ),
            )

    def _ghba_leave(self, node_id: int) -> None:
        group_id = self._group_of.pop(node_id)
        members = self.groups[group_id]
        members.remove(node_id)
        placements = self._placements[group_id]
        # (1) migrate the departing node's hosted replicas to peers.
        hosted = sorted(
            replica_id
            for replica_id, host in placements.items()
            if host == node_id
        )
        for replica_id in hosted:
            if not members:
                del placements[replica_id]
                continue
            dest = self._lightest_member(group_id)
            self.transport.send(
                node_id,
                Message(
                    kind=MessageKind.COPY_REPLICA_TO,
                    sender=CLIENT,
                    payload={"home_id": replica_id, "dest": dest, "drop": True},
                ),
            )
            placements[replica_id] = dest
        # (2) updated IDBFA multicast within the group.
        for member in members:
            self.transport.send(
                member, Message(kind=MessageKind.PING, sender=CLIENT)
            )
        # (3) every other group drops the departing node's replica.
        for other_gid, other_placements in self._placements.items():
            if other_gid == group_id:
                continue
            host = other_placements.pop(node_id, None)
            if host is not None:
                self.transport.send(
                    host,
                    Message(
                        kind=MessageKind.DROP_REPLICA,
                        sender=CLIENT,
                        payload={"home_id": node_id},
                    ),
                )
        if not members:
            del self.groups[group_id]
            del self._placements[group_id]
        self._maybe_merge_groups()

    def _maybe_merge_groups(self) -> None:
        """Merge the two smallest groups while they fit within M."""
        max_size = self.config.max_group_size
        while True:
            by_size = sorted(self.groups, key=lambda g: (len(self.groups[g]), g))
            if len(by_size) < 2:
                return
            small_gid, next_gid = by_size[0], by_size[1]
            if len(self.groups[small_gid]) + len(self.groups[next_gid]) > max_size:
                return
            self._merge_into(next_gid, small_gid)

    def _merge_into(self, target_gid: int, source_gid: int) -> None:
        """Fold ``source_gid`` into ``target_gid``: the target keeps its
        mirror; the source's members drop their (now duplicate) replicas
        and join; replicas of the ex-source members become internal and are
        dropped from the target."""
        source_members = self.groups.pop(source_gid)
        source_placements = self._placements.pop(source_gid)
        target_placements = self._placements[target_gid]
        for replica_id, host in source_placements.items():
            self.transport.send(
                host,
                Message(
                    kind=MessageKind.DROP_REPLICA,
                    sender=CLIENT,
                    payload={"home_id": replica_id},
                ),
            )
        for member in source_members:
            host = target_placements.pop(member, None)
            if host is not None:
                self.transport.send(
                    host,
                    Message(
                        kind=MessageKind.DROP_REPLICA,
                        sender=CLIENT,
                        payload={"home_id": member},
                    ),
                )
            self.groups[target_gid].append(member)
            self._group_of[member] = target_gid
        self.groups[target_gid].sort()

    def _split_fullest_group(self) -> None:
        """Split the fullest group in two (Section 3.2), message by message.

        Members keep the replicas they already host; each half then copies
        the replicas it now lacks from the other half and receives the
        other half's members' own filters.
        """
        victim_gid = max(self.groups, key=lambda gid: (len(self.groups[gid]), -gid))
        members = self.groups[victim_gid]
        half = len(members) // 2
        a_members = members[: len(members) - half]
        b_members = members[len(members) - half :]
        b_gid = self._new_group_id()
        old_placements = self._placements[victim_gid]
        a_placements: Dict[int, int] = {}
        b_placements: Dict[int, int] = {}
        for replica_id, host in old_placements.items():
            if host in a_members:
                a_placements[replica_id] = host
            else:
                b_placements[replica_id] = host
        self.groups[victim_gid] = a_members
        self.groups[b_gid] = b_members
        self._placements[victim_gid] = a_placements
        self._placements[b_gid] = b_placements
        for member in b_members:
            self._group_of[member] = b_gid
        # Cross-copy the replicas each half lacks (copy, not migrate).
        for replica_id, host in list(b_placements.items()):
            if replica_id in a_placements:
                continue
            dest = self._lightest_member(victim_gid)
            self.transport.send(
                host,
                Message(
                    kind=MessageKind.COPY_REPLICA_TO,
                    sender=CLIENT,
                    payload={"home_id": replica_id, "dest": dest, "drop": False},
                ),
            )
            a_placements[replica_id] = dest
        for replica_id, host in list(a_placements.items()):
            if replica_id in b_placements:
                continue
            dest = self._lightest_member(b_gid)
            self.transport.send(
                host,
                Message(
                    kind=MessageKind.COPY_REPLICA_TO,
                    sender=CLIENT,
                    payload={"home_id": replica_id, "dest": dest, "drop": False},
                ),
            )
            b_placements[replica_id] = dest
        # Each half needs the other half's members' own filters as replicas.
        for member in b_members:
            dest = self._lightest_member(victim_gid)
            self.transport.send(
                member,
                Message(
                    kind=MessageKind.SEND_LOCAL_TO,
                    sender=CLIENT,
                    payload={"dest": dest},
                ),
            )
            a_placements[member] = dest
        for member in a_members:
            dest = self._lightest_member(b_gid)
            self.transport.send(
                member,
                Message(
                    kind=MessageKind.SEND_LOCAL_TO,
                    sender=CLIENT,
                    payload={"dest": dest},
                ),
            )
            b_placements[member] = dest
        # Rebuilt IDBFAs are multicast within each new group.
        for member in a_members + b_members:
            self.transport.send(
                member, Message(kind=MessageKind.PING, sender=CLIENT)
            )

    # ------------------------------------------------------------------
    # Crash / restore (repro.faults)
    # ------------------------------------------------------------------
    def crash_node(self, node_id: int) -> None:
        """Abruptly kill ``node_id``; its durable state survives "on disk".

        The node's metadata records, Bloom filters and hosted replicas are
        checkpointed (:func:`~repro.core.checkpoint.snapshot_server`) the
        way a real MDS's disk would hold them; :meth:`restore_node` brings
        the node back from exactly that state.  While down, the node is
        deregistered from the transport (requests fail fast with
        :class:`TransportClosed`) and — when a fault injector is active —
        marked silenced so multicast filtering agrees.
        """
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id}")
        node = self.nodes.pop(node_id)
        self._crashed[node_id] = snapshot_server(node.server)
        # Halt the thread with a STOP dropped straight into the mailbox
        # (not a wire message, so not counted).  Queued requests drain
        # first, so no client blocks on a reply the dying node still owes.
        node._mailbox.put(Message(kind=MessageKind.STOP, sender=CLIENT))
        node.join(timeout=5.0)
        self.transport.deregister(node_id)
        if self.flight is not None:
            self.flight.recorder("cluster").record("crash_node", node=node_id)
            # The injector dumps too (once per outage); dump here only
            # when no injector will — a bare crash must still ship its
            # forensic snapshot.
            injector_dumps = (
                self.transport.injector.enabled
                and getattr(self.transport.injector, "flight", None)
                is self.flight
            )
            if not injector_dumps:
                self.flight.dump(f"crash-node-{node_id}")
        if self.transport.injector.enabled:
            self.transport.injector.silence(node_id)

    def restore_node(self, node_id: int) -> MDSNode:
        """Restart a crashed node from its checkpointed "disk" state."""
        state = self._crashed.pop(node_id, None)
        if state is None:
            raise KeyError(f"node {node_id} has no crashed state to restore")
        server = restore_server(state, self.config)
        node = MDSNode(node_id, self.config, self.transport, server=server)
        self.nodes[node_id] = node
        node.start()
        if self.transport.injector.enabled:
            self.transport.injector.restore(node_id)
        return node

    def crashed_node_ids(self) -> List[int]:
        """Nodes whose on-disk state awaits :meth:`restore_node`."""
        return sorted(self._crashed)

    # ------------------------------------------------------------------
    # Consistency check & shutdown
    # ------------------------------------------------------------------
    def check_directory(self) -> None:
        """Assert each G-HBA group holds a full mirror of outside nodes."""
        if self.scheme != "ghba":
            return
        all_ids = set(self.nodes)
        for group_id, members in self.groups.items():
            expected = all_ids - set(members)
            placements = self._placements[group_id]
            if set(placements) != expected:
                raise AssertionError(
                    f"group {group_id} mirror broken: "
                    f"missing={sorted(expected - set(placements))}, "
                    f"extra={sorted(set(placements) - expected)}"
                )
            for replica_id, host in placements.items():
                if replica_id not in self.nodes[host].server.segment:
                    raise AssertionError(
                        f"node {host} does not actually host replica "
                        f"{replica_id} (group {group_id})"
                    )

    def shutdown(self) -> None:
        """Stop every node thread."""
        for node in list(self.nodes.values()):
            node.stop()
        self.nodes.clear()

    def __enter__(self) -> "PrototypeCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"PrototypeCluster(scheme={self.scheme!r}, nodes={self.num_nodes}, "
            f"groups={len(self.groups)})"
        )
