"""The benchmark's own output checks pass on one smoke repetition of each
workload, so that a numerics change that would fail a benchmark op fails
here first."""

import pytest

from hcat.cli import run


@pytest.fixture
def workloads(load_bench_module):
    # the checks import the oracles by this name
    load_bench_module("oracles", "oracles.py")
    return load_bench_module("hcat_bench_workloads", "workloads.py")


@pytest.mark.parametrize("name", ["paper", "pair_scan", "forward"])
def test_smoke_repetition_passes_its_checks(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](0, tmp_path, smoke=True)
    ops = workload.rep(0)
    assert ops
    for op in ops:
        assert run(op.argv) == 0, op.argv
        op.check()
