"""Correctness checks and digests of the benchmark.

Every check returns a list of violation strings (empty when the check
holds), so a run can report all of them and the tests can feed each one
a doctored answer.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Mapping, Optional

#: A namespace as the benchmark's oracle keeps it: path -> home MDS id.
Namespace = Dict[str, int]


def audit_answer(cluster, response, pending=None) -> Optional[str]:
    """Check one gateway answer served without a fresh backend walk.

    ``from_overlay`` answers come from the client's own unflushed
    write-back buffer and must match the pending intent (``pending`` is
    that entry, or None).  Lease-served and coalesced answers must match
    live cluster state: the home, or the absence, and the record.
    Backend-served answers are live by construction and pass.
    """
    outcome = response.outcome.value
    if response.from_overlay:
        if pending is None:
            return f"{response.path}: overlay answer with nothing pending"
        if (pending.op == "create") != response.found:
            return f"{response.path}: overlay answer disagrees with pending {pending.op}"
        if response.found and response.record != pending.record:
            return f"{response.path}: overlay record differs from the pending create"
        return None
    if not (response.from_cache or outcome == "coalesced"):
        return None
    live_home = cluster.home_of(response.path)
    if live_home != response.home_id:
        return (
            f"{response.path}: {outcome} answer says home {response.home_id}, "
            f"live home is {live_home}"
        )
    if live_home is not None:
        live = cluster.servers[live_home].store.get(response.path)
        if live != response.record:
            return f"{response.path}: {outcome} record differs from the live record"
    return None


def check_answer(oracle: Mapping[str, int], path: str, home_id: Optional[int]) -> Optional[str]:
    """A resolved home must equal the oracle's (None: the path is absent)."""
    expected = oracle.get(path)
    if expected != home_id:
        return f"{path}: answered home {home_id}, acknowledged state says {expected}"
    return None


def rename_in(oracle: Namespace, old_prefix: str, new_prefix: str) -> int:
    """Apply ``rename_subtree`` boundary semantics to the oracle."""
    victims = [
        path
        for path in oracle
        if path == old_prefix or path.startswith(old_prefix + "/")
    ]
    for path in victims:
        oracle[new_prefix + path[len(old_prefix):]] = oracle.pop(path)
    return len(victims)


def fleet_namespace(cluster) -> Namespace:
    return {
        meta.path: server_id
        for server_id, server in cluster.servers.items()
        for meta in server.store.records()
    }


def check_namespace(fleet: Mapping[str, int], oracle: Mapping[str, int]) -> List[str]:
    """The fleet must hold exactly the acknowledged namespace, on the
    acknowledged homes."""
    violations = []
    for path in sorted(set(fleet) | set(oracle)):
        if fleet.get(path) != oracle.get(path):
            violations.append(
                f"{path}: fleet has home {fleet.get(path)}, "
                f"acknowledged state says {oracle.get(path)}"
            )
    return violations


def check_lost(lost: Iterable) -> List[str]:
    return [f"{m.path}: {m.op} declared lost at the flush barrier" for m in lost]


def check_reread(found: Mapping[str, bool], expected: Mapping[str, bool]) -> List[str]:
    """A re-read over the wire must match every acknowledged state."""
    return [
        f"{path}: re-read says exists={found.get(path)}, acknowledged exists={want}"
        for path, want in sorted(expected.items())
        if found.get(path) != want
    ]


def digest(value) -> str:
    """Stable short digest of a JSON-able value."""
    encoded = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


def records_digest(paths: Iterable[str], records: Iterable) -> str:
    """Digest of a file population plus a generated record stream."""
    hasher = hashlib.sha256()
    for path in paths:
        hasher.update(path.encode("utf-8") + b"\n")
    for record in records:
        hasher.update(
            (
                f"{record.timestamp!r} {record.op.value} {record.path} "
                f"{record.new_path} {record.uid} {record.host}\n"
            ).encode("utf-8")
        )
    return hasher.hexdigest()[:16]


def check_lock(name: str, locked: str, actual: str) -> List[str]:
    if locked != actual:
        return [
            f"{name}: the generated input stream changed (digest {actual}, "
            f"locked {locked}); the workload is no longer the one measured"
        ]
    return []


def registry_counts(metrics) -> Dict[str, float]:
    """Every counter series in a metrics registry, keyed ``name{labels}``."""
    counts: Dict[str, float] = {}
    for family in metrics.families():
        if family.kind != "counter":
            continue
        for key, child in family.children():
            counts[f"{family.name}{{{'|'.join(key)}}}"] = child.value
    return counts
