"""Tests of the benchmark itself: failure accounting, oracle checks,
tracing transparency and exactness, and small runs of every workload."""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hcat.cli
import hcat.core
import hcat.mesh
import hcat.strips
import run as bench
import speed
import tracer as tracing
from workloads import WORKLOADS, Op, Paper, PairScan

from conftest import BENCH_DIR, ROOT


def _outputs(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_of_each_workload(name, tmp_path):
    workload = WORKLOADS[name](seed=3, workdir=tmp_path, smoke=True)
    start = time.perf_counter()
    reps = [bench.run_rep(workload, i, hcat.cli.run) for i in range(2)]
    assert time.perf_counter() - start < 30.0
    assert all(rep.failed == 0 for rep in reps)
    assert all(len(rep.latencies) == len(workload.rep(0)) for rep in reps)


def test_nonzero_exit_counts_as_failure(tmp_path):
    workload = PairScan(seed=0, workdir=tmp_path, smoke=True)
    rep = bench.run_rep(workload, 0, lambda argv: 2)
    assert rep.failed == len(rep.latencies) == 3


def test_uncaught_error_counts_as_failure(tmp_path):
    def crash(argv):
        raise ZeroDivisionError("boom")

    rep = bench.run_rep(PairScan(seed=0, workdir=tmp_path, smoke=True), 0, crash)
    assert rep.failed == 3


@pytest.mark.parametrize("field, factor", [("d0", 1.0 + 1e-5), ("sup_gap", 1.0 + 1e-8)])
def test_oracle_mismatch_counts_as_failure(tmp_path, field, factor):
    def tampered(argv):
        rc = hcat.cli.run(argv)
        out = Path(argv[argv.index("--out") + 1])
        doc = json.loads(out.read_text())
        doc["result"][field] *= factor
        out.write_text(json.dumps(doc))
        return rc

    op = Paper(seed=0, workdir=tmp_path, smoke=True).rep(0)[0]
    assert bench.run_op(op, hcat.cli.run)[1] is None
    latency, error = bench.run_op(op, tampered)
    assert error is not None and field in error


def test_strip_radius_mismatch_counts_as_failure(tmp_path):
    def shifted(argv):
        rc = hcat.cli.run(argv)
        if argv[0] == "strips":
            out = Path(argv[argv.index("--out") + 1])
            doc = json.loads(out.read_text())
            doc["result"]["offsets"]["delta1"] += 1e-6
            out.write_text(json.dumps(doc))
        return rc

    rep = bench.run_rep(Paper(seed=0, workdir=tmp_path, smoke=True), 0, shifted)
    assert rep.failed == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_report_bytes_identical_with_tracing_on_and_off(name, tmp_path):
    # same directory both times: the strips report echoes the certificate path
    outputs = []
    for tracer in (None, tracing.Tracer()):
        workload = WORKLOADS[name](seed=5, workdir=tmp_path, smoke=True)
        if tracer:
            tracer.install()
        try:
            assert bench.run_rep(workload, 0, hcat.cli.run, tracer).failed == 0
        finally:
            if tracer:
                tracer.uninstall()
        outputs.append(_outputs(tmp_path))
    assert outputs[0] == outputs[1]
    assert outputs[0]


def test_uninstall_restores_every_name():
    before = {m: dict(vars(m)) for m in (hcat.core, hcat.cli, hcat.mesh)}
    tracer = tracing.Tracer()
    tracer.install()
    assert hasattr(hcat.cli.b_inverse, "__wrapped__")
    assert hasattr(hcat.core.quad, "__wrapped__")
    tracer.uninstall()
    for module, names in before.items():
        assert all(vars(module)[k] is v for k, v in names.items())


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for k in range(2):
        workload = Paper(seed=0, workdir=tmp_path, smoke=True)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            bench.run_rep(workload, 0, hcat.cli.run, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.rep_metrics()
        counts.append({m.name: metrics[m.name] for m in tracing.LAYER_METRICS
                       if tracing.is_count(m) and m.name in metrics})
    assert counts[0] == counts[1]
    assert counts[0]["core.b_inverse.calls"] == (
        counts[0]["cli.disjoint.b_inverse_calls"] + counts[0]["cli.strips.b_inverse_calls"])
    assert counts[0]["core.quad.calls"] > 0 and counts[0]["core.quad.evals"] > 0


def test_traced_run_reports_every_layer_metric(tmp_path):
    workload = Paper(seed=0, workdir=tmp_path, smoke=True)
    span_file = tmp_path / "spans.json"
    reps, metrics, info = bench.traced(workload, 0.01, hcat.cli.run, span_file)
    assert [rep.failed for rep in reps] == [0, 0]
    assert list(metrics) == [m.name for m in tracing.LAYER_METRICS]
    assert info["absent_metrics"] == []
    assert json.loads(span_file.read_text())["spans"]
    assert not hasattr(hcat.strips.b_inverse, "__wrapped__")


def test_forward_makes_no_inversions(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload = WORKLOADS["forward"](seed=0, workdir=tmp_path, smoke=True)
        assert bench.run_rep(workload, 0, hcat.cli.run, tracer).failed == 0
    finally:
        tracer.uninstall()
    metrics = tracer.rep_metrics()
    assert metrics["core.b_inverse.calls"] == 0
    assert metrics["core.lambda_height.calls"] > 0
    assert metrics["mesh.export_obj.bytes"] > 0


def test_missing_hook_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(hcat.mesh, "revolve")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {"mesh.revolve"}
    metrics = tracer.rep_metrics()
    assert "mesh.revolve.s" not in metrics
    assert "mesh.export_obj.s" in metrics


def test_speedometer_takes_its_own_time_out_and_scales_the_rest():
    op = Op(["sleep"], check=lambda: None)
    with speed.Speedometer() as meter:
        latency, error = bench.run_op(op, lambda argv: time.sleep(0.3) or 0, speed=meter)
    assert error is None
    assert len(meter.samples) >= 5  # one before the op, then every 50 ms
    assert latency == pytest.approx(0.3 * meter.factors[0], rel=0.05)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 241)]
    value, pct = bench.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 230 / 240)


def test_tail_of_a_few_mixed_calls_is_p90_of_the_slowest_command():
    # 10 or 11 repetitions of (curve, mesh, appendix): the tail stays an
    # appendix time whichever count the run reached
    for reps in (10, 11):
        values = [0.2] * reps + [0.9] * reps + [1.5 + 0.01 * k for k in range(reps)]
        value, pct = bench.tail(values)
        assert pct == 90.0 and 1.5 <= value <= 1.6


def test_benchmark_json_matches_the_metric_catalogues():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in tracing.LAYER_METRICS]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
