"""Seeded workloads.  A repetition is a list of hcat CLI calls, each with
an untimed check of what it wrote.

Every parameter comes from `random.Random` seeded with the workload
name, the run's seed and the repetition index, so the same seed gives
the same argv lists, and no two repetitions of `pair_scan` repeat an
input (an in-process cache across calls cannot help it; CLI users run
one call per process).  `paper` repeats the paper's headline pair.

Why these three:
- paper: the paper's pipeline, `disjoint --solve-d0` then `strips`, on
  hot family members: ~7 000 hinted inversions on monotone grids per
  repetition, and `strips` inverts the same b-grids three times.
- pair_scan: many cold members, ~60 inversions per member, so fixed
  per-member cost (necksize, root recomputation, table builds) dominates.
- forward: height and remainder integrals and the OBJ writer with zero
  inversions; an inversion change must leave it unchanged.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: tolerances of the output checks (acceptance criteria 4 and 7)
D0_REL_TOL = 1e-6
SUP_GAP_TOL = 1e-9
HEIGHT_TOL = 1e-9
#: heights closer than this to 0 are not sampled by the height check
NECK_CLEARANCE = 0.05


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[], None]  # raises CheckFailed (or fails to parse the output)

    @property
    def command(self) -> str:
        return self.argv[0]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _result(path: Path) -> dict:
    return json.loads(path.read_text())["result"]


def check_certificate(path: Path, H: float, d1: float, d2: float | None) -> dict:
    """Certified, sup_gap is the neck difference, and (for --solve-d0) d0
    is the closed-form threshold."""
    # oracles (mpmath) is imported by the checks only, so that the set-up
    # probe, which builds inputs but checks nothing, times hcat's imports
    import oracles

    res = _result(path)
    _require(res.get("certified") is True, f"not certified: {res.get('failure')}")
    if d2 is None:
        d0 = oracles.d0_closed_form(H, d1)
        _require(abs(res["d0"] - d0) <= D0_REL_TOL * d0,
                 f"d0 {res['d0']!r} != closed form {d0!r}")
        d2 = res["d2"]
    want = oracles.neck_gap(H, d1, d2)
    _require(abs(res["sup_gap"] - want) <= SUP_GAP_TOL,
             f"sup_gap {res['sup_gap']!r} != neck difference {want!r}")
    return res


def check_strips(report: Path, margins: Path, cert: dict, rng: random.Random,
                 samples: int) -> None:
    """Passed, and the radii behind the margin table invert the height.

    b1(t) = center1_inside margin + delta1 and b2(t) = center2_inside
    margin + delta2; at `samples` seeded heights the mpmath height of
    each radius must return |t|.
    """
    import oracles

    res = _result(report)
    _require(res.get("passed") is True, "strip checks did not pass")
    offsets = res["offsets"]
    radii: dict[str, dict[float, float]] = {"center1_inside": {}, "center2_inside": {}}
    with margins.open(newline="") as fh:
        for row in csv.DictReader(fh):
            if row["check_id"] in radii:
                radii[row["check_id"]][float(row["t"])] = float(row["margin"])
    heights = sorted(radii["center1_inside"])
    _require(len(heights) > 0 and heights == sorted(radii["center2_inside"]),
             "margin table lacks matching center rows")
    # next to the neck the height grows like sqrt(rho - neck), so the last-bit
    # rounding of a radius read back from the table moves it by ~1e-8
    heights = [t for t in heights if abs(t) >= NECK_CLEARANCE]
    for t in rng.sample(heights, min(samples, len(heights))):
        for d, check_id, delta in ((cert["d1"], "center1_inside", offsets["delta1"]),
                                   (cert["d2"], "center2_inside", offsets["delta2"])):
            b = radii[check_id][t] + delta
            got = oracles.height(cert["H"], d, b)
            _require(abs(got - abs(t)) <= HEIGHT_TOL,
                     f"height(b_{d!r}({t!r})) = {got!r}, not {abs(t)!r}")


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def rng(self, rep: int, stream: str = "inputs") -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{rep}:{stream}")

    def rep(self, i: int) -> list[Op]:
        raise NotImplementedError


class Paper(Workload):
    """`disjoint --solve-d0` (t_max 50, step .05), then `strips --csv` on
    the certificate it wrote, with the CLI's default strip grid, on the
    paper's headline pair H = .25, d1 = 3 in every repetition.  The seed
    picks the heights that the strip check samples.

    The pair is fixed because other pairs next to it do not all certify:
    for H = 0.24820734518035178, d1 = 2.9255529619311083 (d0 ~ 7.1e4) one
    inversion of the d0 member at t = 25.65 misses its height by 7e-10,
    the scanned gap rises by 1.24e-9 > MONOTONE_TOL = 1e-9 and `disjoint`
    exits 2 with `certified: false`.  That is an accuracy defect of
    hcat's inversion, not of the benchmark, and is left to be fixed in
    hcat; this workload measures the pipeline on the pair the paper
    certifies.
    """

    name = "paper"
    HEIGHT_SAMPLES = 3
    H, D1 = 0.25, 3.0

    def rep(self, i: int) -> list[Op]:
        H, d1 = self.H, self.D1
        cert = self.workdir / "cert.json"
        report = self.workdir / "strips.json"
        margins = self.workdir / "margins.csv"
        if self.smoke:
            scan = ["--t-max", "2", "--step", "0.5"]
            grid = ["--t-min", "-2", "--t-max", "2", "--step", "0.5", "--d-points", "3"]
        else:
            scan = ["--t-max", "50", "--step", "0.05"]
            grid = []
        state = {}

        def check_cert():
            state["cert"] = check_certificate(cert, H, d1, None)

        def check_report():
            check_strips(report, margins, state["cert"], self.rng(i, "checks"),
                         self.HEIGHT_SAMPLES)

        return [
            Op(["disjoint", "--H", repr(H), "--d1", repr(d1), "--solve-d0", *scan,
                "--out", str(cert)], check_cert),
            Op(["strips", "--cert", str(cert), *grid, "--out", str(report),
                "--csv", str(margins)], check_report),
        ]


def _strata(rng: random.Random, n: int) -> list[float]:
    """n uniform draws on [0, 1), one in each of n equal strata, shuffled."""
    order = list(range(n))
    rng.shuffle(order)
    return [(k + rng.random()) / n for k in order]


class PairScan(Workload):
    """24 distinct pairs, each `disjoint --d2 ... --t-max 20 --step .5`,
    with H in [.15, .35], d1 in (2.2, 6] and d2 = d1 * 10^U(.3, 2).

    The draws are stratified (a Latin hypercube): a pair's cost rises
    about 3x from H = .35 to H = .15, and independent draws let the mix
    of cheap and dear pairs, and with it the median latency, wander from
    one repetition to the next.
    """

    name = "pair_scan"

    def rep(self, i: int) -> list[Op]:
        rng = self.rng(i)
        out = self.workdir / "pair.json"
        t_max = "2" if self.smoke else "20"
        n = 3 if self.smoke else 24
        ops = []
        for uh, ud1, ud2 in zip(_strata(rng, n), _strata(rng, n), _strata(rng, n)):
            H = 0.15 + 0.2 * uh
            d1 = 6.0 - 3.8 * ud1
            d2 = d1 * 10.0 ** (0.3 + 1.7 * ud2)
            ops.append(Op(
                ["disjoint", "--H", repr(H), "--d1", repr(d1), "--d2", repr(d2),
                 "--t-max", t_max, "--step", "0.5", "--out", str(out)],
                lambda H=H, d1=d1, d2=d2: check_certificate(out, H, d1, d2),
            ))
        return ops


class Forward(Workload):
    """`verify-appendix` (default H and d lists, 800 grid points), a
    4 096-point `curve`, then a 256 x 256 `mesh`.  H and d of the curve
    and mesh come from the seed and stay fixed across repetitions, so
    the OBJ bytes must repeat."""

    name = "forward"

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        super().__init__(seed, workdir, smoke)
        rng = self.rng(0)
        self.H = rng.uniform(0.15, 0.35)
        self.d = rng.uniform(1.0, 4.0)
        self.obj_sha256 = None

    def rep(self, i: int) -> list[Op]:
        appendix = self.workdir / "appendix.json"
        curve_csv = self.workdir / "curve.csv"
        obj = self.workdir / "mesh.obj"
        grid_points, curve_n, mesh_n = (10, 16, 8) if self.smoke else (800, 4096, 256)
        rng = self.rng(i, "checks")
        member = ["--H", repr(self.H), "--d", repr(self.d), "--rho-max", "6"]

        def check_appendix():
            _require(_result(appendix).get("passed") is True, "appendix checks failed")

        def check_curve():
            import oracles

            with curve_csv.open(newline="") as fh:
                rows = [(float(r["rho"]), float(r["t"])) for r in csv.DictReader(fh)]
            _require(len(rows) == curve_n, f"{len(rows)} curve rows, not {curve_n}")
            _require(all(b[0] > a[0] and b[1] > a[1] for a, b in zip(rows, rows[1:])),
                     "curve not strictly increasing")
            for rho, t in rng.sample(rows[1:], 2):  # row 0 is the neck, t = 0
                got = oracles.height(self.H, self.d, rho)
                _require(abs(got - t) <= HEIGHT_TOL, f"height({rho!r}) = {got!r}, not {t!r}")

        def check_mesh():
            meta = json.loads(obj.with_suffix(".json").read_text())
            rows = 2 * mesh_n - 1
            _require(meta["vertex_count"] == rows * mesh_n
                     and meta["face_count"] == (rows - 1) * mesh_n,
                     f"mesh counts {meta['vertex_count']}/{meta['face_count']}")
            digest = hashlib.sha256(obj.read_bytes()).hexdigest()
            if self.obj_sha256 is None:
                self.obj_sha256 = digest
            _require(digest == self.obj_sha256, "OBJ bytes changed between repetitions")

        return [
            Op(["verify-appendix", "--grid-points", str(grid_points),
                "--out", str(appendix)], check_appendix),
            Op(["curve", *member, "--n", str(curve_n), "--out", str(curve_csv)],
               check_curve),
            Op(["mesh", *member, "--n", str(mesh_n), "--m", str(mesh_n),
                "--out", str(obj)], check_mesh),
        ]


WORKLOADS = {w.name: w for w in (Paper, PairScan, Forward)}
