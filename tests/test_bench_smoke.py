"""The benchmark's own output checks pass on one smoke repetition of each
workload, so that a numerics change that would fail a benchmark op fails
here first; and a short run of the benchmark ends in a well-formed result
line."""

import json
import math
import shutil
import subprocess
import sys

import pytest

from hcat.cli import run

from conftest import BENCH_DIR, ROOT

END_TO_END = ("setup_s", "wall_s", "op_p50_s", "op_tail_s", "peak_rss_mb")


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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("name, trace", [
    ("paper", 0), ("pair_scan", 0), ("forward", 0), ("paper", 1)])
def test_run_ends_in_a_result_line(tmp_path, name, trace):
    # a copy of the benchmark and the sources, as a fresh checkout holds
    # them; the run makes its work directory inside the copy
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    # every line is one of the runner's JSON documents: nothing else
    # writes to stdout
    docs = [json.loads(line, parse_constant=_reject_constant)
            for line in out.stdout.splitlines()]
    result = docs[-1]
    assert result["failed"] == 0 and result["correct"] is True, out.stderr
    assert result["attempted"] > 0
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if not trace:
        assert all(values[k] > 0.0 for k in END_TO_END), values
    else:
        # every hook found its target, so the result holds every per-layer
        # metric the benchmark declares, in the declared order
        assert docs[-2]["absent_metrics"] == []
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        assert list(result["metrics"]) == [m["name"] for m in declared]
