"""The input lock, the recorded input sizes and the counts digest."""

import copy
import dataclasses
from pathlib import Path

import pytest

from checks import check_lock, digest, records_digest
from workloads import Stats, make_workload

NAMES = ["res_gateway_read", "res_cluster_walk", "hp_tenants_writeback", "tcp_rpc"]


@pytest.mark.parametrize("name", NAMES)
def test_generator_output_matches_the_lock(name, specs):
    spec = specs["workloads"][name]
    workload = make_workload(name, spec, Path("unused"))
    actual = workload.input_digest(specs["default_seed"], specs["lock_records"])
    assert check_lock(name, spec["input_digest"], actual) == []


def test_lock_catches_a_changed_record_stream(specs):
    spec = specs["workloads"]["res_cluster_walk"]
    generator = make_workload("res_cluster_walk", spec, Path("unused")).generator(1)
    records = list(generator.generate(200))
    locked = records_digest(generator.paths, records)
    assert records_digest(generator.paths, list(records)) == locked
    doctored = list(records)
    doctored[57] = dataclasses.replace(doctored[57], path=doctored[0].path)
    assert check_lock("res_cluster_walk", locked, records_digest(generator.paths, doctored))
    shifted = list(records)
    shifted[3] = dataclasses.replace(shifted[3], timestamp=shifted[3].timestamp * 0.5)
    assert records_digest(generator.paths, shifted) != locked
    assert records_digest(generator.paths[1:], records) != locked


@pytest.mark.parametrize("name", NAMES)
def test_recorded_sizes_match_the_generator(name, specs):
    spec = specs["workloads"][name]
    generator = make_workload(name, spec, Path("unused")).generator(1)
    sizes = spec["sizes"]
    assert len(generator._active_paths) == sizes["active_files"]
    if "lease_cache" in sizes:
        assert spec["gateway"]["cache_capacity"] == sizes["lease_cache"]
        fits = sizes["active_files"] <= sizes["lease_cache"]
        assert fits == (spec["gateway"]["writeback"] is False)


@pytest.mark.parametrize("name", ["res_cluster_walk", "hp_tenants_writeback"])
def test_counts_digest_repeats_for_one_seed(name, specs):
    spec = copy.deepcopy(specs["workloads"][name])
    spec.update(files=400, servers=4)

    def run():
        workload = make_workload(name, spec, Path("unused"))
        workload.setup(9)
        base = workload.counts()
        records = workload.records(9)
        workload.replay([next(records) for _ in range(800)], Stats())
        after = workload.counts()
        return digest({k: v - base.get(k, 0) for k, v in after.items()})

    assert run() == run()
