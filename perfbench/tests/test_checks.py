"""Each correctness check passes on a true answer and fails on a doctored one."""

import copy
from dataclasses import replace
from pathlib import Path

import pytest

from checks import (
    audit_answer,
    check_answer,
    check_lost,
    check_namespace,
    check_reread,
    fleet_namespace,
    rename_in,
)
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.gateway.client import GatewayConfig, MetadataClient, Outcome
from repro.gateway.writeback import PendingMutation
from repro.metadata.attributes import FileMetadata
from workloads import Stats, make_workload

PATHS = [f"/d{i % 3}/f{i}" for i in range(40)]


@pytest.fixture
def gateway():
    cluster = GHBACluster(4, GHBAConfig(seed=3), seed=3)
    cluster.populate(PATHS)
    cluster.synchronize_replicas(force=True)
    return cluster, MetadataClient(cluster, GatewayConfig())


def lease_answer(client, path):
    client.lookup(path, 0.0)
    response = client.lookup(path, 0.1)
    assert response.from_cache
    return response


def test_audit_passes_true_lease_answers(gateway):
    cluster, client = gateway
    assert audit_answer(cluster, lease_answer(client, PATHS[0])) is None
    client.lookup("/absent", 0.0)
    negative = client.lookup("/absent", 0.1)
    assert negative.outcome is Outcome.NEGATIVE_HIT
    assert audit_answer(cluster, negative) is None


def test_audit_catches_doctored_lease_answers(gateway):
    cluster, client = gateway
    true = lease_answer(client, PATHS[1])
    wrong_home = (true.home_id + 1) % cluster.num_servers
    assert audit_answer(cluster, replace(true, home_id=wrong_home))
    assert audit_answer(cluster, replace(true, record=FileMetadata(PATHS[1], 999)))
    assert audit_answer(cluster, replace(true, home_id=None, record=None))
    coalesced = replace(true, outcome=Outcome.COALESCED, from_cache=False)
    assert audit_answer(cluster, coalesced) is None
    assert audit_answer(cluster, replace(coalesced, home_id=wrong_home))


def test_audit_checks_overlay_answers_against_the_pending_intent(gateway):
    cluster, _ = gateway
    record = FileMetadata("/new", 1)
    pending = PendingMutation(version=1, op="create", path="/new", home_id=2, record=record)
    overlay = replace(
        lease_answer(gateway[1], PATHS[2]),
        path="/new", outcome=Outcome.OVERLAY, home_id=2, record=record,
        from_cache=False, from_overlay=True,
    )
    assert audit_answer(cluster, overlay, pending) is None
    assert audit_answer(cluster, overlay, None)
    assert audit_answer(cluster, overlay, replace(pending, op="delete", record=None))
    assert audit_answer(cluster, replace(overlay, record=FileMetadata("/new", 2)), pending)


def test_oracle_checks_catch_doctored_state(gateway):
    cluster, _ = gateway
    oracle = fleet_namespace(cluster)
    assert check_namespace(fleet_namespace(cluster), oracle) == []
    path = PATHS[3]
    assert check_answer(oracle, path, oracle[path]) is None
    assert check_answer(oracle, path, (oracle[path] + 1) % 4)
    assert check_answer(oracle, "/absent", 0)
    doctored = dict(oracle)
    doctored[path] = (doctored[path] + 1) % 4
    assert len(check_namespace(fleet_namespace(cluster), doctored)) == 1
    del doctored[path]
    assert len(check_namespace(fleet_namespace(cluster), doctored)) == 1
    doctored["/ghost"] = 0
    assert len(check_namespace(fleet_namespace(cluster), doctored)) == 2


def test_rename_in_follows_subtree_boundaries():
    oracle = {"/a/b": 1, "/a/b/c": 2, "/a/bc": 3}
    assert rename_in(oracle, "/a/b", "/x") == 2
    assert oracle == {"/x": 1, "/x/c": 2, "/a/bc": 3}


def test_lost_mutations_and_rereads_are_violations():
    assert check_lost([]) == []
    lost = PendingMutation(version=4, op="delete", path="/p", home_id=0)
    assert check_lost([lost])
    assert check_reread({"/p": True, "/q": False}, {"/p": True, "/q": False}) == []
    assert check_reread({"/p": False, "/q": False}, {"/p": True, "/q": False})
    assert check_reread({"/q": False}, {"/p": True, "/q": False})


def tiny(spec_name, specs, **overrides):
    spec = copy.deepcopy(specs["workloads"][spec_name])
    spec.update(files=400, servers=4, warmup_records=200, window_records=600)
    spec.update(overrides)
    return spec


def replayed(name, spec, seed=5, count=1500):
    workload = make_workload(name, spec, Path("unused"))
    workload.setup(seed)
    stats = Stats()
    records = workload.records(seed)
    workload.replay([next(records) for _ in range(count)], stats)
    return workload, stats


@pytest.mark.parametrize("name", ["res_cluster_walk", "res_gateway_read", "hp_tenants_writeback"])
def test_workload_final_check_passes_then_catches_a_doctored_fleet(name, specs):
    workload, stats = replayed(name, tiny(name, specs))
    assert stats.violations == []
    workload.finish(stats)
    assert stats.violations == []
    # Move one record to another server behind the program's back.
    cluster = workload.cluster
    path = sorted(workload.oracle)[0]
    home = workload.oracle[path]
    meta = cluster.servers[home].store.get(path)
    cluster.servers[home].store.remove(path)
    cluster.servers[(home + 1) % 4].store.put(meta)
    workload.finish(stats)
    assert any(path in violation for violation in stats.violations)


def test_gateway_replay_catches_a_stale_lease(specs):
    name = "res_gateway_read"
    workload, stats = replayed(name, tiny(name, specs))
    cluster = workload.cluster
    cache = workload.client.cache
    cached = next(
        path for path in sorted(workload.oracle)
        if cache.peek(path) is not None
        and cache.peek(path).home_id is not None
        and cache.peek(path).fresh(workload.now)
    )
    # Rehome the record without the mutation hook, so the lease goes stale.
    home = workload.oracle[cached]
    meta = cluster.servers[home].store.get(cached)
    cluster.servers[home].store.remove(cached)
    cluster.servers[(home + 1) % 4].store.put(meta)
    workload.oracle[cached] = (home + 1) % 4
    workload.tick = [("-", cached)]
    workload._submit_tick(stats)
    assert any(cached in violation for violation in stats.violations)
