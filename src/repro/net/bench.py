"""Multi-process wall-clock bench over the TCP transport.

``python -m repro.gateway bench --transport tcp`` lands here: the driver
reserves a port map, launches one ``repro.net serve`` MDS process per
server, populates the namespace over the real wire, then spawns one
gateway *worker process* per gateway.  Each worker hammers the fleet
with batched lookups (VERIFY_BATCH) and write-back style mutation
flushes (MUTATE_BATCH, per-origin versions + cumulative acks — the PR 5
at-most-once protocol), timing every RPC on the real clock.

Correctness gate: every mutation a worker saw *acknowledged* must be
visible in the fleet's final state.  Paths are partitioned across
workers (``crc32(path) % gateways``) so each path has exactly one
writer and the expected final state is computable per worker; the
driver re-reads every partitioned path at the end and counts
mismatches as lost acknowledged mutations — the bench exits nonzero on
any loss, mirroring the in-process write-back bench's acknowledgement
oracle.

Everything here is wall-clock and real-serialization: the numbers in
``BENCH_tcp.json`` are what the prototype costs as a *network* system,
not under the virtual clock.
"""

from __future__ import annotations

import json
import time
import zlib
from typing import Dict, List

from repro.bench import percentile, run_metadata
from repro.core.config import GHBAConfig
from repro.metadata.attributes import FileMetadata
from repro.net.supervisor import ProcessSupervisor, config_from_dict
from repro.net.tcp import PortMap, TcpTransport
from repro.prototype.messages import Message, MessageKind

#: Sender id the bench driver uses on the wire (clients are negative).
DRIVER_SENDER = -100
#: Mutation origin the driver's populate phase claims; worker origins are
#: their gateway ids, so this must stay clear of them.
DRIVER_ORIGIN = 1000


def bench_paths(files: int) -> List[str]:
    return [f"/bench/d{index // 64:03d}/f{index:06d}" for index in range(files)]


def home_of(path: str, servers: int) -> int:
    """Cross-process deterministic placement (built-in hash is salted)."""
    return zlib.crc32(path.encode("utf-8")) % servers


def owner_of(path: str, gateways: int) -> int:
    # Salted differently from home_of so ownership does not correlate
    # with placement (every worker talks to every server).
    return zlib.crc32(b"owner:" + path.encode("utf-8")) % gateways


def _record_for(path: str, index: int) -> FileMetadata:
    return FileMetadata(path=path, inode=index + 1, size=index % 4096)


def run_gateway_worker(args) -> Dict[str, object]:
    """One gateway's share of the bench; returns its JSON report."""
    import random

    portmap = PortMap.from_json(open(args.portmap_file).read())
    config_from_dict(json.loads(open(args.config_file).read()))  # validate
    transport = TcpTransport(
        portmap,
        default_timeout_s=args.timeout_s,
        connect_attempts=5,
        connect_backoff_s=0.05,
    )
    rng = random.Random(args.seed * 1009 + args.gateway_id)
    paths = bench_paths(args.files)
    path_index = {path: index for index, path in enumerate(paths)}
    owned = [
        path
        for path in paths
        if owner_of(path, args.gateways) == args.gateway_id
    ]
    exists: Dict[str, bool] = {path: True for path in owned}
    version = 0
    acked = 0
    latencies_ms: List[float] = []
    lookups = mutations = mutation_rpcs = lookup_rpcs = 0

    def timed_request(dest: int, message: Message) -> Message:
        start = time.monotonic()
        reply = transport.request(dest, message)
        latencies_ms.append((time.monotonic() - start) * 1000.0)
        return reply

    try:
        for _ in range(args.ops):
            if rng.random() < args.lookup_frac or not owned:
                batch = rng.sample(paths, min(8, len(paths)))
                by_home: Dict[int, List[str]] = {}
                for path in batch:
                    by_home.setdefault(
                        home_of(path, args.servers), []
                    ).append(path)
                for home, home_paths in sorted(by_home.items()):
                    reply = timed_request(
                        home,
                        Message(
                            kind=MessageKind.VERIFY_BATCH,
                            sender=-(args.gateway_id + 1),
                            payload={"paths": home_paths},
                        ),
                    )
                    lookup_rpcs += 1
                    lookups += len(reply.payload["found"])
            else:
                batch = rng.sample(owned, min(4, len(owned)))
                by_home: Dict[int, List[dict]] = {}
                for path in batch:
                    version += 1
                    if exists[path]:
                        mutation = {
                            "version": version,
                            "op": "delete",
                            "path": path,
                            "record": None,
                        }
                    else:
                        mutation = {
                            "version": version,
                            "op": "create",
                            "path": path,
                            "record": _record_for(path, path_index[path]),
                        }
                    by_home.setdefault(
                        home_of(path, args.servers), []
                    ).append(mutation)
                for home, muts in sorted(by_home.items()):
                    reply = timed_request(
                        home,
                        Message(
                            kind=MessageKind.MUTATE_BATCH,
                            sender=-(args.gateway_id + 1),
                            payload={
                                "origin": args.gateway_id,
                                "acked": acked,
                                "mutations": muts,
                            },
                        ),
                    )
                    mutation_rpcs += 1
                    outcomes = reply.payload["outcomes"]
                    if any(not o["applied"] for o in outcomes):
                        raise RuntimeError(f"mutation rejected: {outcomes}")
                    # The reply is the acknowledgement: fold the batch
                    # into the expected final state.
                    for mutation in muts:
                        exists[mutation["path"]] = (
                            mutation["op"] == "create"
                        )
                        mutations += 1
                # Synchronous flush: everything issued so far is settled.
                acked = version
        report = {
            "gateway": args.gateway_id,
            "ops": args.ops,
            "lookups": lookups,
            "lookup_rpcs": lookup_rpcs,
            "mutations": mutations,
            "mutation_rpcs": mutation_rpcs,
            "latency_ms": {
                name: round(percentile(latencies_ms, p), 3)
                for name, p in (
                    ("p50", 50), ("p95", 95), ("p99", 99), ("max", 100)
                )
            },
            "expected": {path: exists[path] for path in sorted(exists)},
            "transport": transport.stats(),
            "counters": {
                "messages_sent": transport.messages_sent,
                "replies_received": transport.replies_received,
                "retries": transport.retries,
                "exhausted": transport.exhausted,
            },
        }
    finally:
        transport.close()
    return report


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _populate(
    transport: TcpTransport, paths: List[str], servers: int
) -> None:
    by_home: Dict[int, List[dict]] = {}
    for index, path in enumerate(paths):
        by_home.setdefault(home_of(path, servers), []).append(
            {
                "version": index + 1,
                "op": "create",
                "path": path,
                "record": _record_for(path, index),
            }
        )
    for home, muts in sorted(by_home.items()):
        for start in range(0, len(muts), 64):
            reply = transport.request(
                home,
                Message(
                    kind=MessageKind.MUTATE_BATCH,
                    sender=DRIVER_SENDER,
                    payload={
                        "origin": DRIVER_ORIGIN,
                        "acked": 0,
                        "mutations": muts[start : start + 64],
                    },
                ),
            )
            if any(not o["applied"] for o in reply.payload["outcomes"]):
                raise RuntimeError("populate mutation rejected")


def _verify_final_state(
    transport: TcpTransport,
    expected: Dict[str, bool],
    servers: int,
) -> List[str]:
    """Re-read every path; return the ones whose state diverged."""
    by_home: Dict[int, List[str]] = {}
    for path in expected:
        by_home.setdefault(home_of(path, servers), []).append(path)
    mismatches: List[str] = []
    for home, home_paths in sorted(by_home.items()):
        for start in range(0, len(home_paths), 128):
            chunk = home_paths[start : start + 128]
            reply = transport.request(
                home,
                Message(
                    kind=MessageKind.VERIFY_BATCH,
                    sender=DRIVER_SENDER,
                    payload={"paths": chunk},
                ),
            )
            found = reply.payload["found"]
            for path in chunk:
                if bool(found.get(path)) != expected[path]:
                    mismatches.append(path)
    return mismatches


def run_tcp_bench(args) -> int:
    """Drive the multi-process bench; returns the process exit code."""
    started = time.monotonic()
    config = GHBAConfig()
    portmap = PortMap.reserve(range(args.servers))
    paths = bench_paths(args.files)
    out_path = args.out

    print(
        f"[tcp-bench] {args.servers} MDS process(es), "
        f"{args.gateways} gateway worker(s), {args.files} files, "
        f"{args.ops} ops/gateway"
    )
    with ProcessSupervisor(portmap, config, args.workdir) as supervisor:
        transport = TcpTransport(
            portmap,
            default_timeout_s=args.timeout_s,
            connect_attempts=3,
            connect_backoff_s=0.05,
        )
        try:
            for node_id in range(args.servers):
                supervisor.launch_mds(node_id)
            supervisor.wait_ready(
                transport, list(range(args.servers)), timeout_s=30.0
            )
            _populate(transport, paths, args.servers)
            print(f"[tcp-bench] populated {len(paths)} records")

            workers = []
            worker_phase_start = time.monotonic()
            for gateway_id in range(args.gateways):
                workers.append(
                    supervisor.spawn_worker(
                        [
                            "bench-worker",
                            "--gateway-id",
                            str(gateway_id),
                            "--gateways",
                            str(args.gateways),
                            "--servers",
                            str(args.servers),
                            "--files",
                            str(args.files),
                            "--ops",
                            str(args.ops),
                            "--seed",
                            str(args.seed),
                            "--lookup-frac",
                            str(args.lookup_frac),
                            "--timeout-s",
                            str(args.timeout_s),
                            "--portmap-file",
                            str(supervisor._portmap_path),
                            "--config-file",
                            str(supervisor._config_path),
                        ],
                        f"gateway-{gateway_id}.log",
                    )
                )
            reports = []
            failed = False
            for gateway_id, proc in enumerate(workers):
                stdout, _ = proc.communicate(timeout=args.worker_timeout_s)
                if proc.returncode != 0:
                    print(
                        f"[tcp-bench] FAIL: gateway worker {gateway_id} "
                        f"exited {proc.returncode} "
                        f"(see gateway-{gateway_id}.log)"
                    )
                    failed = True
                    continue
                reports.append(json.loads(stdout.decode("utf-8")))
            worker_wall_s = time.monotonic() - worker_phase_start
            if failed:
                return 1

            expected: Dict[str, bool] = {}
            for report in reports:
                expected.update(report.pop("expected"))
            # Paths no worker owns keep their populated state.
            for path in paths:
                expected.setdefault(path, True)
            mismatches = _verify_final_state(transport, expected, args.servers)

            total_rpcs = sum(
                r["lookup_rpcs"] + r["mutation_rpcs"] for r in reports
            )
            total_mutations = sum(r["mutations"] for r in reports)
            stats = {
                "transport": "tcp",
                "servers": args.servers,
                "gateways": args.gateways,
                "files": args.files,
                "ops_per_gateway": args.ops,
                "seed": args.seed,
                "worker_wall_s": round(worker_wall_s, 3),
                "rpcs": total_rpcs,
                "rpcs_per_s": round(total_rpcs / max(worker_wall_s, 1e-9), 1),
                "lookups": sum(r["lookups"] for r in reports),
                "mutations": total_mutations,
                "verified_paths": len(expected),
                "lost_acknowledged_mutations": len(mismatches),
                "driver_transport": transport.stats(),
                "workers": reports,
            }
            payload = {
                "tcp": stats,
                "_meta": run_metadata(time.monotonic() - started),
            }
            with open(out_path, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(
                f"[tcp-bench] {total_rpcs} RPCs in {worker_wall_s:.2f}s "
                f"({stats['rpcs_per_s']:.0f}/s), "
                f"{total_mutations} acknowledged mutations, "
                f"{len(mismatches)} lost -> {out_path}"
            )
            if mismatches:
                print(
                    "[tcp-bench] FAIL: acknowledged mutations lost at "
                    + ", ".join(sorted(mismatches)[:10])
                )
                return 1
            return 0
        finally:
            supervisor.stop_all(transport)
            transport.close()
