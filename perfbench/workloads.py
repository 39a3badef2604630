"""The benchmark's four workloads, each driving the program from outside.

Every workload is one closed loop with one caller thread: the next
request is sent only after the previous one returned.  The trace
workloads replay records generated by ``repro.traces``; the records'
virtual timestamps drive the program's leases, admission and flush
triggers, so for one seed the program makes the same decisions on every
machine and only the wall time differs.

Only program calls are timed (``time.perf_counter`` around each call).
Input generation, oracle bookkeeping and the answer audits run between
timed calls.
"""

from __future__ import annotations

import contextlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.gateway.client import GatewayConfig, MetadataClient, Outcome
from repro.gateway.writeback import MutationBuffer
from repro.metadata.attributes import FileMetadata
from repro.net.supervisor import ProcessSupervisor
from repro.net.tcp import PortMap, TcpTransport
from repro.prototype.messages import Message, MessageKind
from repro.traces.profiles import PROFILES
from repro.traces.records import MetadataOp, TraceRecord
from repro.traces.synthetic import SyntheticTraceGenerator
from repro.traces.tenants import TenantModel

from checks import (
    audit_answer,
    check_answer,
    check_lost,
    check_namespace,
    check_reread,
    fleet_namespace,
    records_digest,
    registry_counts,
    rename_in,
)

# Audits must not call through the traced run's wrappers, or their time
# would be charged to the layer they check.
_pending_entry = MutationBuffer.get
_NO_SPAN = contextlib.nullcontext()


@dataclass
class Stats:
    """What one replay segment measured and found."""

    lookup_us: List[float] = field(default_factory=list)
    mutation_us: List[float] = field(default_factory=list)
    rename_us: List[float] = field(default_factory=list)
    program_s: float = 0.0
    #: Records fed to the workload (the record-count clock of the replay).
    records: int = 0
    #: Operations attempted / completed / failed (RPCs on the wire workload).
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    lookups_completed: int = 0
    ticks: int = 0
    violations: List[str] = field(default_factory=list)
    #: ``program_s`` with each chunk scaled to the reference machine speed
    #: (set by ``calibrate.apply``).
    calibrated_s: float = 0.0
    #: Calibration kernel samples, one before the first chunk and one
    #: after each chunk, and per chunk its program time and the lengths
    #: of the sample lists when it started.
    kernel_s: List[float] = field(default_factory=list)
    chunks: List[tuple] = field(default_factory=list)
    #: The traced run's span recorder; None when untraced.
    recorder: object = None

    def aside(self, name: str):
        """A span for the harness's own checking work (audits, calibration),
        so the traced run does not charge it to the harness loop."""
        return self.recorder.span(name) if self.recorder is not None else _NO_SPAN


class TraceWorkload:
    """Shared input generation for the workloads replaying a trace."""

    def __init__(self, name: str, spec: Dict, workdir: Path) -> None:
        self.name = name
        self.spec = spec
        self.workdir = workdir

    def generator(self, seed: int) -> SyntheticTraceGenerator:
        tenants = self.spec.get("tenants", 0)
        return SyntheticTraceGenerator(
            PROFILES[self.spec["profile"]],
            self.spec["files"],
            seed=seed,
            ops_per_second=self.spec["trace_rate_per_s"],
            tenants=TenantModel(tenants) if tenants else None,
        )

    def records(self, seed: int) -> Iterator[TraceRecord]:
        """The seed's record stream, long enough for any run length."""
        return self.generator(seed).generate(1 << 40)

    def input_digest(self, seed: int, count: int) -> str:
        generator = self.generator(seed)
        stream = generator.generate(count)
        return records_digest(generator.paths, stream)

    def close(self) -> None:
        pass


class ClusterWalk(TraceWorkload):
    """RES records straight into the cluster, no gateway.

    Lookups are grouped into ticks of up to ``tick`` exactly as on the
    gateway workloads, and a tick's paths are queried one after another.
    """

    def setup(self, seed: int) -> float:
        self.cluster = None
        paths = self.generator(seed).paths
        started = time.perf_counter()
        cluster = GHBACluster(
            self.spec["servers"], GHBAConfig(seed=seed), seed=seed
        )
        placement = cluster.populate(paths)
        cluster.synchronize_replicas(force=True)
        elapsed = time.perf_counter() - started
        self.cluster = cluster
        self.oracle = dict(placement)
        self.next_inode = len(paths)
        self.tick: List[str] = []
        return elapsed

    def _submit_tick(self, stats: Stats) -> None:
        """Query the open tick's paths one after another; every lookup is
        charged the tick's wall time."""
        if not self.tick:
            return
        paths, self.tick = self.tick, []
        query = self.cluster.query
        stats.attempted += len(paths)
        started = time.perf_counter()
        results = [query(path) for path in paths]
        elapsed = time.perf_counter() - started
        stats.program_s += elapsed
        stats.ticks += 1
        stats.lookup_us.extend([elapsed * 1e6] * len(paths))
        stats.lookups_completed += len(paths)
        stats.completed += len(paths)
        stats.failed += sum(result.degraded for result in results)
        with stats.aside("bench.audit"):
            for path, result in zip(paths, results):
                violation = check_answer(self.oracle, path, result.home_id)
                if violation is not None:
                    stats.violations.append(violation)

    def replay(self, records: Iterable[TraceRecord], stats: Stats) -> None:
        cluster = self.cluster
        oracle = self.oracle
        tick_size = self.spec["loop"]["tick"]
        clock = time.perf_counter
        for record in records:
            stats.records += 1
            op = record.op
            path = record.path
            if op.is_lookup:
                self.tick.append(path)
                if len(self.tick) >= tick_size:
                    self._submit_tick(stats)
                continue
            self._submit_tick(stats)
            stats.attempted += 1
            if op is MetadataOp.CREATE:
                meta = FileMetadata(path=path, inode=self.next_inode)
                self.next_inode += 1
                started = clock()
                home = cluster.insert_file(meta)
                elapsed = clock() - started
                stats.mutation_us.append(elapsed * 1e6)
                oracle[path] = home
                violation = None
            elif op is MetadataOp.UNLINK:
                started = clock()
                home = cluster.delete_file(path)
                elapsed = clock() - started
                stats.mutation_us.append(elapsed * 1e6)
                expected = oracle.pop(path, None)
                violation = (
                    None if home == expected
                    else f"{path}: delete found home {home}, expected {expected}"
                )
            else:
                started = clock()
                renamed = cluster.rename_subtree(path, record.new_path)
                elapsed = clock() - started
                stats.rename_us.append(elapsed * 1e6)
                with stats.aside("bench.audit"):
                    expected = rename_in(oracle, path, record.new_path)
                violation = (
                    None if renamed == expected
                    else f"{path}: rename moved {renamed} records, expected {expected}"
                )
            stats.program_s += elapsed
            stats.completed += 1
            if violation is not None:
                stats.violations.append(violation)

    def finish(self, stats: Stats) -> None:
        self._submit_tick(stats)
        stats.violations.extend(
            check_namespace(fleet_namespace(self.cluster), self.oracle)
        )

    def counts(self) -> Dict[str, float]:
        return registry_counts(self.cluster.metrics)


class GatewayWorkload(TraceWorkload):
    """Records through one ``MetadataClient`` in front of the cluster.

    Lookups are submitted in ticks of up to ``tick`` via ``lookup_tick``;
    a mutation record first submits the open tick.  Every completed
    lookup is charged the wall time of the tick that completed it.
    """

    def setup(self, seed: int) -> float:
        self.cluster = self.client = None
        spec = self.spec
        gateway = spec["gateway"]
        paths = self.generator(seed).paths
        started = time.perf_counter()
        cluster = GHBACluster(spec["servers"], GHBAConfig(seed=seed), seed=seed)
        placement = cluster.populate(paths)
        cluster.synchronize_replicas(force=True)
        client = MetadataClient(
            cluster,
            GatewayConfig(
                cache_capacity=gateway["cache_capacity"],
                rate_per_s=gateway["rate_per_s"],
                burst=gateway["burst"],
                writeback=gateway["writeback"],
                writeback_seed=seed,
            ),
        )
        elapsed = time.perf_counter() - started
        self.cluster = cluster
        self.client = client
        self.oracle = dict(placement)
        self.ack_violations: List[str] = []
        self.tick: List = []
        self.now = 0.0
        if gateway["writeback"]:
            client.add_ack_listener(self._on_ack)
        return elapsed

    def _on_ack(self, mutation, outcome) -> None:
        if outcome is None or not outcome.applied:
            return  # lost or conflicted: never acknowledged
        if mutation.op == "create":
            self.oracle[mutation.path] = mutation.home_id
        elif self.oracle.pop(mutation.path, None) is None:
            self.ack_violations.append(
                f"{mutation.path}: delete acknowledged for a path never created"
            )

    def _account(self, responses, elapsed: Optional[float], stats: Stats) -> None:
        """Tally one tick's completions (``elapsed`` None: untimed drain)."""
        client = self.client
        oracle = self.oracle
        for response in responses:
            if response.outcome is Outcome.REJECTED:
                stats.failed += 1
                continue
            if elapsed is not None:
                stats.lookup_us.append(elapsed * 1e6)
            stats.lookups_completed += 1
            stats.completed += 1
            if response.degraded:
                stats.failed += 1
        with stats.aside("bench.audit"):
            for response in responses:
                if response.outcome is Outcome.REJECTED:
                    continue
                if response.from_overlay:
                    pending = _pending_entry(client.writeback, response.path)
                    violation = audit_answer(self.cluster, response, pending)
                else:
                    violation = check_answer(
                        oracle, response.path, response.home_id
                    ) or audit_answer(self.cluster, response)
                if violation is not None:
                    stats.violations.append(violation)

    def _submit_tick(self, stats: Stats) -> None:
        if not self.tick:
            return
        stats.attempted += len(self.tick)
        started = time.perf_counter()
        responses = self.client.lookup_tick(self.tick, self.now)
        elapsed = time.perf_counter() - started
        stats.program_s += elapsed
        stats.ticks += 1
        self.tick = []
        self._account(responses, elapsed, stats)

    def replay(self, records: Iterable[TraceRecord], stats: Stats) -> None:
        client = self.client
        oracle = self.oracle
        writeback = client.writeback is not None
        tick_size = self.spec["loop"]["tick"]
        tenanted = bool(self.spec.get("tenants"))
        clock = time.perf_counter
        for record in records:
            stats.records += 1
            tenant = record.tenant if tenanted else "-"
            self.now = record.timestamp
            if record.op.is_lookup:
                self.tick.append((tenant, record.path))
                if len(self.tick) >= tick_size:
                    self._submit_tick(stats)
                continue
            self._submit_tick(stats)
            stats.attempted += 1
            path = record.path
            op = record.op
            violation = None
            if op is MetadataOp.CREATE:
                started = clock()
                response = client.create(path, self.now, tenant=tenant)
                elapsed = clock() - started
                stats.mutation_us.append(elapsed * 1e6)
                if not writeback:
                    oracle[path] = response.home_id
            elif op is MetadataOp.UNLINK:
                started = clock()
                response = client.delete(path, self.now, tenant=tenant)
                elapsed = clock() - started
                stats.mutation_us.append(elapsed * 1e6)
                if response.outcome is not Outcome.BUFFERED:
                    # Applied synchronously (or known absent): the
                    # acknowledged state changes now, not at a flush.
                    expected = oracle.pop(path, None)
                    if response.home_id != expected:
                        violation = (
                            f"{path}: delete answered home {response.home_id}, "
                            f"expected {expected}"
                        )
            else:
                started = clock()
                renamed = client.rename(path, record.new_path, self.now, tenant=tenant)
                elapsed = clock() - started
                stats.rename_us.append(elapsed * 1e6)
                with stats.aside("bench.audit"):
                    expected = rename_in(oracle, path, record.new_path)
                if renamed != expected:
                    violation = (
                        f"{path}: rename moved {renamed} records, expected {expected}"
                    )
            stats.program_s += elapsed
            stats.completed += 1
            if violation is not None:
                stats.violations.append(violation)

    def finish(self, stats: Stats) -> None:
        """Submit the open tick, drain admission, flush, compare namespaces."""
        client = self.client
        self._submit_tick(stats)
        # Advance virtual time in steps that refill far fewer tokens than
        # a queue holds, so queued requests are admitted before their
        # deadline instead of expiring in one long jump.
        step_s = client.config.queue_deadline_s / 50
        for step in range(1, 50):
            if client.admission.queue_depth == 0:
                break
            self._account(client.pump(self.now + step * step_s), None, stats)
        stats.failed += client.admission.queue_depth
        if client.writeback is not None:
            client.flush_barrier(self.now)
            stats.violations.extend(check_lost(client.lost_mutations))
        stats.violations.extend(self.ack_violations)
        stats.violations.extend(
            check_namespace(fleet_namespace(self.cluster), self.oracle)
        )

    def counts(self) -> Dict[str, float]:
        client = self.client
        cache = client.cache.stats
        admission = client.admission.stats
        counts = registry_counts(self.cluster.metrics)
        counts.update(
            {
                "cache.hits": cache.hits,
                "cache.negative_hits": cache.negative_hits,
                "cache.misses": cache.misses,
                "cache.evictions": cache.evictions,
                "gateway.backend_queries": client.backend_queries,
                "gateway.backend_mutations": client.backend_mutations,
                "admission.submitted": admission.submitted,
                "admission.queued": admission.queued,
                "admission.shed": admission.shed,
            }
        )
        return counts


#: Sender id of the benchmark's requests on the wire (clients are negative).
_SENDER = -7
#: Mutation origin of the benchmark at the MDS's at-most-once dedup.
_ORIGIN = 1
#: Request ids of the measured loop are drawn from here, so every frame's
#: length is the same on every run (ids are varints on the wire).
_FIRST_REQUEST_ID = 1 << 30


class TcpRpc(TraceWorkload):
    """One MDS process and one ``TcpTransport`` connection.

    Lookup records are sent as ``VERIFY_BATCH`` requests of ``tick``
    paths; each create, unlink or rename record toggles its path's
    existence with a one-mutation ``MUTATE_BATCH`` (the wire has no
    rename).  Each RPC is one sample.
    """

    supervisor: Optional[ProcessSupervisor] = None
    transport: Optional[TcpTransport] = None

    def setup(self, seed: int) -> float:
        self.close()
        paths = self.generator(seed).paths
        self.workdir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        portmap = PortMap.reserve([0])
        self.supervisor = ProcessSupervisor(portmap, GHBAConfig(), self.workdir)
        self.transport = TcpTransport(
            portmap, default_timeout_s=10.0, connect_attempts=5
        )
        self.supervisor.launch_mds(0)
        self.supervisor.wait_ready(self.transport, [0], timeout_s=30.0)
        for start in range(0, len(paths), 64):
            mutations = [
                {
                    "version": start + offset + 1,
                    "op": "create",
                    "path": path,
                    "record": FileMetadata(path=path, inode=start + offset),
                }
                for offset, path in enumerate(paths[start : start + 64])
            ]
            reply = self.transport.request(
                0,
                Message(
                    kind=MessageKind.MUTATE_BATCH,
                    sender=_SENDER,
                    payload={"origin": 0, "acked": 0, "mutations": mutations},
                ),
            )
            if not all(o["applied"] for o in reply.payload["outcomes"]):
                raise RuntimeError("populate mutation rejected")
        elapsed = time.perf_counter() - started
        self.exists = {path: True for path in paths}
        self.mutated: Dict[str, bool] = {}
        self.version = 0
        self.batch: List[str] = []
        self.request_ids = iter(range(_FIRST_REQUEST_ID, 1 << 34))
        self.rpcs = 0
        return elapsed

    def _request(self, kind: MessageKind, payload: Dict, stats: Stats):
        message = Message(
            kind=kind, sender=_SENDER, payload=payload,
            request_id=next(self.request_ids),
        )
        started = time.perf_counter()
        reply = self.transport.request(0, message)
        elapsed = time.perf_counter() - started
        stats.program_s += elapsed
        stats.attempted += 1
        stats.completed += 1
        self.rpcs += 1
        if "error" in reply.payload:
            stats.violations.append(f"{kind.value}: {reply.payload['error']}")
        return reply, elapsed

    def _send_lookups(self, stats: Stats) -> None:
        if not self.batch:
            return
        paths, self.batch = self.batch, []
        reply, elapsed = self._request(
            MessageKind.VERIFY_BATCH, {"paths": paths}, stats
        )
        stats.lookup_us.append(elapsed * 1e6)
        stats.lookups_completed += len(paths)
        with stats.aside("bench.audit"):
            found = reply.payload.get("found", {})
            expected = {path: self.exists.get(path, False) for path in paths}
            stats.violations.extend(check_reread(found, expected))

    def replay(self, records: Iterable[TraceRecord], stats: Stats) -> None:
        tick_size = self.spec["loop"]["tick"]
        for record in records:
            stats.records += 1
            path = record.path
            if record.op.is_lookup:
                self.batch.append(path)
                if len(self.batch) >= tick_size:
                    self._send_lookups(stats)
                continue
            self._send_lookups(stats)
            self.version += 1
            create = not self.exists.get(path, False)
            mutation = {
                "version": self.version,
                "op": "create" if create else "delete",
                "path": path,
                "record": FileMetadata(path=path, inode=self.version) if create else None,
            }
            reply, elapsed = self._request(
                MessageKind.MUTATE_BATCH,
                {"origin": _ORIGIN, "acked": self.version - 1, "mutations": [mutation]},
                stats,
            )
            stats.mutation_us.append(elapsed * 1e6)
            outcomes = reply.payload.get("outcomes", [])
            if len(outcomes) != 1 or not outcomes[0]["applied"]:
                stats.violations.append(f"{path}: mutation not applied: {outcomes}")
                continue
            self.exists[path] = create
            self.mutated[path] = create

    def finish(self, stats: Stats) -> None:
        """Re-read every mutated path over the wire."""
        self._send_lookups(stats)
        paths = sorted(self.mutated)
        found: Dict[str, bool] = {}
        for start in range(0, len(paths), 128):
            reply = self.transport.request(
                0,
                Message(
                    kind=MessageKind.VERIFY_BATCH,
                    sender=_SENDER,
                    payload={"paths": paths[start : start + 128]},
                ),
            )
            found.update(reply.payload.get("found", {}))
        stats.violations.extend(check_reread(found, self.mutated))

    def counts(self) -> Dict[str, float]:
        transport = self.transport
        counts = dict(transport.stats())
        counts.update(
            {
                "rpcs": self.rpcs,
                "messages_sent": transport.messages_sent,
                "replies_received": transport.replies_received,
                "retries": transport.retries,
                "exhausted": transport.exhausted,
            }
        )
        return counts

    def close(self) -> None:
        if self.supervisor is not None:
            try:
                self.supervisor.stop_all(self.transport)
            finally:
                self.transport.close()
                self.supervisor = self.transport = None
        shutil.rmtree(self.workdir, ignore_errors=True)


KINDS = {
    "cluster": ClusterWalk,
    "gateway": GatewayWorkload,
    "tcp": TcpRpc,
}


def make_workload(name: str, spec: Dict, workdir: Path) -> TraceWorkload:
    return KINDS[spec["kind"]](name, spec, workdir)
