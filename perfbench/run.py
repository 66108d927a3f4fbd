"""hcat benchmark: one workload as a closed loop from one process and one thread.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

Each CLI call goes through `hcat.cli.run(argv)` in-process and starts
when the previous one returns; its outputs are checked (untimed) before
the next call.  Repetitions start until `--seconds` have passed, so a
run measures at least that long and at most one repetition longer.

With `--trace 0` the run prints the end-to-end metrics and hcat is
imported with nothing rebound; latencies are put on the reference clock
of `speed.py`, which takes out the host's changes of speed.  With
`--trace 1` every repetition runs untraced and then again with the
per-layer hooks installed; counts come from the first traced repetition
and times are medians over the traced ones.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
from speed import Speedometer
from workloads import WORKLOADS, CheckFailed, Workload

ROOT = Path(__file__).resolve().parents[1]
#: scratch space for CLI outputs and span dumps, inside the checkout
WORK_DIR = ROOT / ".perfbench"
#: fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 3
SETUP_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Rep:
    wall: float = 0.0
    latencies: list[tuple[str, float]] = field(default_factory=list)
    failed: int = 0


def run_op(op, cli_run, tracer=None, speed=None) -> tuple[float, str | None]:
    """Time one CLI call, then check it; returns (latency, error or None).
    With a Speedometer the latency is on its reference clock."""
    mark = speed.start() if speed else None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc = cli_run(op.argv)
        else:
            with tracer.span(f"cli.{op.command}"):
                rc = cli_run(op.argv)
    except Exception:  # an uncaught error in hcat is a failed op, not a crash
        rc, error = None, traceback.format_exc()
    latency = time.perf_counter() - t0
    if speed:
        latency = speed.stop(mark, latency)
    if rc is None:
        return latency, error
    if rc != 0:
        return latency, f"exit code {rc}"
    try:
        op.check()
    except CheckFailed as exc:
        return latency, str(exc)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return latency, f"unreadable output: {exc!r}"
    return latency, None


def run_rep(workload: Workload, i: int, cli_run, tracer=None, speed=None) -> Rep:
    rep = Rep()
    for op in workload.rep(i):
        latency, error = run_op(op, cli_run, tracer, speed)
        rep.latencies.append((op.command, latency))
        rep.wall += latency
        if error is not None:
            rep.failed += 1
            print(f"FAILED {' '.join(op.argv)}: {error}", file=sys.stderr)
    return rep


def tail(values: list[float]) -> tuple[float, float]:
    """Tail latency and its percentile: the highest percentile with at
    least 10 samples beyond it, but never below p90.

    Below 100 samples (`paper`, `forward`) that is p90 with fewer than 10
    beyond it: there the calls are a few commands of very different cost,
    and a rank fixed by the sample count would jump from one command to
    another as the number of repetitions changes.  The percentile is
    interpolated between order statistics, so it moves smoothly with n.
    """
    ordered = sorted(values)
    n = len(ordered)
    p = max(0.9, 1.0 - 10.0 / n)
    pos = p * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]), 100.0 * p


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it has imported hcat
    and built the workload's first inputs.  Not scaled by speed.py: the
    kernel's speed, sampled around or inside a probe, did not narrow its
    spread."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(out.stdout.split()[-1]) - t0


def untraced(workload: Workload, seconds: float, cli_run, probe):
    """End-to-end metrics.  The set-up probes are spread over the run, one
    before the first repetition to start k/SETUP_PROBES of the way through
    (any left over after the last), since the host's speed drifts within a
    run; their time does not count towards `seconds`."""
    reps, setup = [], []
    speed = Speedometer()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if len(setup) < SETUP_PROBES and (
                len(setup) * seconds <= SETUP_PROBES * (time.perf_counter() - start)):
            t0 = time.perf_counter()
            setup.append(probe())
            start += time.perf_counter() - t0
        with speed:
            reps.append(run_rep(workload, len(reps), cli_run, speed=speed))
    while len(setup) < SETUP_PROBES:
        setup.append(probe())
    latencies = [lat for rep in reps for _, lat in rep.latencies]
    unscaled = iter(lat / f for lat, f in zip(latencies, speed.factors))
    raw_walls = [sum(next(unscaled) for _ in rep.latencies) for rep in reps]
    tail_s, tail_pct = tail(latencies)
    stages = {}
    for rep in reps:
        for command, lat in rep.latencies:
            stages.setdefault(command, []).append(lat)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(rep.wall for rep in reps),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "reps": len(reps),
        "op_samples": len(latencies),
        "op_tail_percentile": tail_pct,
        "setup_samples_s": setup,
        "unscaled_wall_s": statistics.median(raw_walls),
        "speed_factor": {"p50": statistics.median(speed.factors),
                         "min": min(speed.factors), "max": max(speed.factors),
                         "samples": len(speed.samples)},
        "stage_p50_s": {cmd: statistics.median(v) for cmd, v in stages.items()},
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return reps, metrics, info


def traced(workload: Workload, seconds: float, cli_run, span_file: Path):
    """Per-layer metrics.  Each repetition runs twice back to back, untraced
    then traced, so that trace.overhead_frac compares the same inputs over
    the same stretch of machine time."""
    start = time.perf_counter()
    tracer = tracing.Tracer()
    plain, reps, per_rep = [], [], []
    while not reps or time.perf_counter() - start < seconds:
        i = len(reps)
        plain.append(run_rep(workload, i, cli_run))
        tracer.reset()
        tracer.install()
        try:
            reps.append(run_rep(workload, i, cli_run, tracer))
        finally:
            tracer.uninstall()
        per_rep.append(tracer.rep_metrics())
        if i == 0:
            span_file.write_text(json.dumps(
                {"rep": 0, "fields": ["name", "start", "end", "parent", "work"],
                 "spans": tracer.spans}))
    metrics = {}
    for m in tracing.LAYER_METRICS:
        if m.name == "trace.overhead_frac":
            value = statistics.median(t.wall / u.wall for u, t in zip(plain, reps)) - 1.0
        elif m.name not in per_rep[0]:
            continue
        elif tracing.is_count(m):
            value = per_rep[0][m.name]
        else:
            value = statistics.median(r[m.name] for r in per_rep)
        metrics[m.name] = {"value": value, "unit": m.unit}
    absent = [m.name for m in tracing.LAYER_METRICS if m.name not in metrics]
    info = {"reps": len(reps), "absent_metrics": absent, "spans": str(span_file)}
    return plain + reps, metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "hcat" / "__init__.py").is_file():
        print(f"error: no hcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from hcat.cli import run as cli_run

    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        if args.trace:
            span_file = WORK_DIR / f"spans_{args.workload}_{args.seed}.json"
            reps, metrics, info = traced(workload, args.seconds, cli_run, span_file)
        else:
            reps, metrics, info = untraced(workload, args.seconds, cli_run,
                                           lambda: probe_setup(args.workload, args.seed))
    finally:
        shutil.rmtree(tmp)

    attempted = sum(len(rep.latencies) for rep in reps)
    failed = sum(rep.failed for rep in reps)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
