"""One MDS node: a daemon thread serving protocol requests.

The node wraps a :class:`~repro.core.server.MetadataServer` (the same state
machine the simulator uses) behind a mailbox.  Requests are served strictly
one at a time — the node *is* a single-server queue — and each request
advances the node's **virtual clock**: service begins at
``max(arrival_vtime, busy_until)`` and costs a service time derived from the
shared network/memory cost model.  Replies carry the virtual finish time, so
clients can compute end-to-end virtual latency deterministically while the
message flow itself runs concurrently across real threads.

The mailbox loop itself — STOP handling, the "exception → ``error``
reply" guard and ``stop()`` — is :class:`MailboxNode`, shared with the
replication standby (:class:`~repro.replication.standby.StandbyNode`).
"""

from __future__ import annotations

import threading
from typing import Dict

from repro.core.config import GHBAConfig
from repro.core.server import CONSUMER_METADATA, MetadataServer
from repro.metadata.attributes import FileMetadata
from repro.prototype.messages import Message, MessageKind
from repro.prototype.transport import InProcessTransport


class MailboxNode(threading.Thread):
    """A daemon thread answering requests from its transport mailbox.

    Registers ``node_id`` on ``transport`` and serves one message at a
    time until a STOP arrives.  Subclasses implement only
    :meth:`_answer`; a handler that raises is answered with an
    ``error`` reply instead of killing the thread.  Works identically
    over either transport — the reply rides ``message.reply_to``.
    """

    def __init__(self, node_id: int, transport, name: str) -> None:
        super().__init__(name=name, daemon=True)
        self.node_id = node_id
        self.transport = transport
        self._mailbox = transport.register(node_id)

    def _answer(self, message: Message) -> Message:
        """Serve one request and return its reply."""
        raise NotImplementedError

    def run(self) -> None:  # pragma: no cover - exercised via integration
        while True:
            message = self._mailbox.get()
            if message.kind is MessageKind.STOP:
                if message.reply_to is not None:
                    message.reply_to.put(message.reply(stopped=True))
                break
            try:
                reply = self._answer(message)
            except Exception as exc:  # a bad request must not kill the node
                reply = message.reply(error=f"{type(exc).__name__}: {exc}")
            if message.reply_to is not None:
                message.reply_to.put(reply)

    def stop(self, timeout_s: float = 5.0) -> None:
        """Ask the node to exit and join the thread."""
        try:
            self.transport.request(
                self.node_id,
                Message(kind=MessageKind.STOP, sender=-1),
                timeout_s=timeout_s,
            )
        except Exception:
            pass
        self.join(timeout=timeout_s)
        self.transport.deregister(self.node_id)


class MDSNode(MailboxNode):
    """A metadata server thread.

    Parameters
    ----------
    node_id:
        Server ID (also the transport address).
    config:
        Shared G-HBA configuration (filter geometry, network costs).
    transport:
        Transport to register with.
    """

    def __init__(
        self,
        node_id: int,
        config: GHBAConfig,
        transport: InProcessTransport,
        server: "MetadataServer" = None,
    ) -> None:
        # A restored node (crash recovery) resumes with its checkpointed
        # server state instead of a fresh one.
        if server is None:
            server = MetadataServer(node_id, config)
        if server.server_id != node_id:
            raise ValueError(
                f"server id {server.server_id} != node id {node_id}"
            )
        super().__init__(node_id, transport, name=f"mds-{node_id}")
        self.config = config
        self.server = server
        self._clock_lock = threading.Lock()
        self._busy_until = 0.0
        #: Change-data-capture hook (repro.replication): when set, called
        #: as ``cdc(op, path, record, vtime)`` for every MUTATE_BATCH
        #: mutation that actually changed durable state — the prototype
        #: half of the capture point GHBACluster exposes via
        #: ``add_change_listener``.  ``None`` default: zero overhead.
        self.cdc = None

    # ------------------------------------------------------------------
    # Virtual clock
    # ------------------------------------------------------------------
    def _serve(self, arrival_vtime: float, service_ms: float) -> float:
        """Account one request on the virtual clock; return finish time."""
        with self._clock_lock:
            start = max(arrival_vtime, self._busy_until)
            finish = start + service_ms / 1000.0
            self._busy_until = finish
            return finish

    @property
    def busy_until(self) -> float:
        with self._clock_lock:
            return self._busy_until

    # ------------------------------------------------------------------
    # Service-time model (mirrors the simulator's costs)
    # ------------------------------------------------------------------
    def _lru_probe_ms(self) -> float:
        return self.config.network.memory_probe_ms * max(
            1, self.server.lru.num_filters
        )

    def _segment_probe_ms(self) -> float:
        net = self.config.network
        fraction = self.server.replica_memory_fraction()
        return net.probe_cost_ms(self.server.theta, fraction) + net.memory_probe_ms

    def _verify_ms(self, positive: bool) -> float:
        net = self.config.network
        cost = net.memory_probe_ms
        if positive:
            fraction = self.server.memory.resident_fraction(CONSUMER_METADATA)
            cost += (
                fraction * net.memory_record_ms
                + (1.0 - fraction) * net.disk_access_ms
            )
        return cost

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _answer(self, message: Message) -> Message:
        handler = {
            MessageKind.PROBE_LRU: self._on_probe_lru,
            MessageKind.PROBE_LOCAL: self._on_probe_local,
            MessageKind.PROBE_SEGMENT: self._on_probe_segment,
            MessageKind.COPY_REPLICA_TO: self._on_copy_replica_to,
            MessageKind.SEND_LOCAL_TO: self._on_send_local_to,
            MessageKind.EXCHANGE_REPLICA: self._on_exchange_replica,
            MessageKind.VERIFY: self._on_verify,
            MessageKind.VERIFY_BATCH: self._on_verify_batch,
            MessageKind.MUTATE_BATCH: self._on_mutate_batch,
            MessageKind.INSERT: self._on_insert,
            MessageKind.HOST_REPLICA: self._on_host_replica,
            MessageKind.DROP_REPLICA: self._on_drop_replica,
            MessageKind.REPLACE_REPLICA: self._on_replace_replica,
            MessageKind.PUBLISH: self._on_publish,
            MessageKind.RECORD_LRU: self._on_record_lru,
            MessageKind.PING: self._on_ping,
        }.get(message.kind)
        if handler is None:
            return message.reply(error=f"unknown kind {message.kind.value}")
        return handler(message)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _on_probe_lru(self, message: Message) -> Message:
        path = message.payload["path"]
        finish = self._serve(message.arrival_vtime, self._lru_probe_ms())
        lookup = self.server.probe_lru(path)
        return message.reply(hits=list(lookup.hits), finish_vtime=finish)

    def _on_probe_local(self, message: Message) -> Message:
        """Combined L1 + L2 probe — the origin MDS's local critical path."""
        path = message.payload["path"]
        service_ms = self._lru_probe_ms()
        l1 = self.server.probe_lru(path)
        l2_hits = None
        if not l1.is_unique:
            service_ms += self._segment_probe_ms()
            l2_hits = list(self.server.probe_segment(path).hits)
        finish = self._serve(message.arrival_vtime, service_ms)
        return message.reply(
            l1_hits=list(l1.hits), l2_hits=l2_hits, finish_vtime=finish
        )

    def _on_copy_replica_to(self, message: Message) -> Message:
        """Ship the hosted replica of ``home_id`` to ``dest`` (one-way).

        Used during group split/merge and joins: the receiving peer gets a
        HOST_REPLICA message.  With ``drop=True`` this is a migration (the
        replica leaves this node); otherwise a copy.
        """
        home_id = message.payload["home_id"]
        dest = message.payload["dest"]
        drop = message.payload.get("drop", False)
        finish = self._serve(
            message.arrival_vtime, self.config.network.memory_record_ms
        )
        if drop:
            replica = self.server.drop_replica(home_id)
        else:
            replica = self.server.segment.get_replica(home_id).copy()
        self.transport.send(
            dest,
            Message(
                kind=MessageKind.HOST_REPLICA,
                sender=self.node_id,
                payload={"home_id": home_id, "replica": replica},
                arrival_vtime=finish,
            ),
        )
        return message.reply(ok=True, finish_vtime=finish)

    def _on_send_local_to(self, message: Message) -> Message:
        """Ship this node's own filter as a replica to ``dest`` (one-way)."""
        dest = message.payload["dest"]
        finish = self._serve(
            message.arrival_vtime, self.config.network.memory_record_ms
        )
        replica = self.server.publish_filter()
        self.transport.send(
            dest,
            Message(
                kind=MessageKind.HOST_REPLICA,
                sender=self.node_id,
                payload={"home_id": self.node_id, "replica": replica},
                arrival_vtime=finish,
            ),
        )
        return message.reply(ok=True, finish_vtime=finish)

    def _on_exchange_replica(self, message: Message) -> Message:
        """HBA join: host the newcomer's filter, reply with our own."""
        home_id = message.payload["home_id"]
        replica = message.payload["replica"]
        finish = self._serve(
            message.arrival_vtime, self.config.network.memory_record_ms
        )
        if home_id in self.server.segment:
            self.server.replace_replica(home_id, replica)
        else:
            self.server.host_replica(home_id, replica)
        return message.reply(
            replica=self.server.publish_filter(), finish_vtime=finish
        )

    def _on_probe_segment(self, message: Message) -> Message:
        path = message.payload["path"]
        finish = self._serve(message.arrival_vtime, self._segment_probe_ms())
        lookup = self.server.probe_segment(path)
        return message.reply(hits=list(lookup.hits), finish_vtime=finish)

    def _on_verify(self, message: Message) -> Message:
        path = message.payload["path"]
        positive = self.server.local_filter.query(path)
        finish = self._serve(message.arrival_vtime, self._verify_ms(positive))
        meta = self.server.store.get(path) if positive else None
        return message.reply(
            found=meta is not None,
            home_id=self.node_id if meta is not None else None,
            finish_vtime=finish,
        )

    def _on_verify_batch(self, message: Message) -> Message:
        """Multi-key verification: one request, one filter+store pass per key.

        The gateway tier batches keys predicted onto this node into a
        single message; the reply maps each path to whether (and what)
        this node holds.  Service time charges one probe per key plus a
        record fetch per positive, all inside one queued service slot —
        that is the batching win over per-key VERIFY round trips.
        """
        paths = message.payload["paths"]
        service_ms = 0.0
        found: Dict[str, bool] = {}
        for path in paths:
            positive = self.server.local_filter.query(path)
            service_ms += self._verify_ms(positive)
            meta = self.server.store.get(path) if positive else None
            found[path] = meta is not None
        finish = self._serve(message.arrival_vtime, service_ms)
        return message.reply(found=found, finish_vtime=finish)

    def _on_mutate_batch(self, message: Message) -> Message:
        """Batched write-back mutation flush, applied **at most once**.

        The transport's retry policy re-sends a request whose reply was
        lost, so the node dedups on ``(origin, version)``.  Gateway
        versions are globally sequenced but this node sees only a gappy
        subsequence, so the test is **exact**: a version is a duplicate
        iff it is at or below the origin's cumulative-ack floor (settled
        client-side, never retried) or present in the outcome cache —
        duplicates are acked again from the cache without re-touching
        the store.  Both structures are durable (they ride
        :func:`~repro.core.checkpoint.snapshot_server` with the store),
        so a crash between apply and ack cannot lead the restored node
        to double-apply the retry.  ``acked`` is the client's cumulative
        ack; it advances the floor and prunes the cache beneath it.
        """
        origin = int(message.payload.get("origin", 0))
        acked = int(message.payload.get("acked", 0))
        mutations = message.payload["mutations"]
        server = self.server
        floor = max(server.writeback_floor.get(origin, 0), acked)
        server.writeback_floor[origin] = floor
        cache = server.writeback_outcomes.setdefault(origin, {})
        if floor:
            for version in [v for v in cache if v <= floor]:
                del cache[version]
        net = self.config.network
        service_ms = 0.0
        outcomes = []
        for raw in mutations:
            version = int(raw["version"])
            op = str(raw["op"])
            path = str(raw["path"])
            service_ms += net.memory_probe_ms
            cached = cache.get(version)
            if cached is not None:
                outcome = dict(cached)
                outcome["deduped"] = True
                outcomes.append(outcome)
                continue
            if version <= floor:
                # Settled client-side; a stray re-delivery, acked as
                # applied-without-detail.
                outcomes.append(
                    {
                        "version": version,
                        "op": op,
                        "path": path,
                        "applied": True,
                        "changed": False,
                        "deduped": True,
                    }
                )
                continue
            changed = False
            if op == "create":
                meta: FileMetadata = raw["record"]
                server.insert_metadata(meta)
                changed = True
            elif op == "delete":
                changed = server.remove_metadata(path)
            else:
                raise ValueError(f"unknown mutation op {op!r}")
            if changed:
                service_ms += self._verify_ms(True)
                server.writeback_applied += 1
                if self.cdc is not None:
                    self.cdc(
                        op,
                        path,
                        raw.get("record"),
                        message.arrival_vtime,
                    )
            outcome = {
                "version": version,
                "op": op,
                "path": path,
                "applied": True,
                "changed": changed,
                "deduped": False,
            }
            cache[version] = dict(outcome)
            outcomes.append(outcome)
        finish = self._serve(message.arrival_vtime, service_ms)
        return message.reply(outcomes=outcomes, finish_vtime=finish)

    def _on_insert(self, message: Message) -> Message:
        meta: FileMetadata = message.payload["meta"]
        finish = self._serve(
            message.arrival_vtime, self.config.network.memory_record_ms
        )
        self.server.insert_metadata(meta)
        return message.reply(ok=True, finish_vtime=finish)

    def _on_host_replica(self, message: Message) -> Message:
        home_id = message.payload["home_id"]
        replica = message.payload["replica"]
        finish = self._serve(
            message.arrival_vtime, self.config.network.memory_record_ms
        )
        self.server.host_replica(home_id, replica)
        return message.reply(ok=True, finish_vtime=finish)

    def _on_drop_replica(self, message: Message) -> Message:
        home_id = message.payload["home_id"]
        finish = self._serve(
            message.arrival_vtime, self.config.network.memory_record_ms
        )
        replica = self.server.drop_replica(home_id)
        return message.reply(ok=True, replica=replica, finish_vtime=finish)

    def _on_replace_replica(self, message: Message) -> Message:
        home_id = message.payload["home_id"]
        replica = message.payload["replica"]
        finish = self._serve(
            message.arrival_vtime, self.config.network.memory_record_ms
        )
        if home_id in self.server.segment:
            self.server.replace_replica(home_id, replica)
            return message.reply(ok=True, finish_vtime=finish)
        # A falsely identified target simply drops the update (Section 2.4).
        return message.reply(ok=False, finish_vtime=finish)

    def _on_publish(self, message: Message) -> Message:
        finish = self._serve(
            message.arrival_vtime, self.config.network.memory_record_ms
        )
        return message.reply(
            replica=self.server.publish_filter(), finish_vtime=finish
        )

    def _on_record_lru(self, message: Message) -> Message:
        path = message.payload["path"]
        home_id = message.payload["home_id"]
        finish = self._serve(
            message.arrival_vtime, self.config.network.memory_probe_ms
        )
        self.server.record_lru(path, home_id)
        return message.reply(ok=True, finish_vtime=finish)

    def _on_ping(self, message: Message) -> Message:
        return message.reply(alive=True, finish_vtime=message.arrival_vtime)
