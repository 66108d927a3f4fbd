"""Per-height circle checks behind the shifted-barrier strip claims.

Each surface of revolution meets the horizontal plane at height t in a
metric circle of radius b_d(t).  Shifting a surface horizontally moves
the circle's center along the theta in {0, pi} geodesic.  The checks
here verify, height by height, the strict inequalities that make the
intersection of a shifted surface with the region between a certified
disjoint pair a strip (one arc per height), plus the sweep showing that
every intermediate family member meets one of the shifted barriers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import __version__
from .core import CmcParams, HeightTable, necksize
# re-exported so that hcat.strips.b_inverse stays importable; the benchmark's
# tests read it after tracing to check that it was restored
from .core import b_inverse as b_inverse
from .disjoint import DisjointnessCertificate, height_grid
from .errors import PreconditionError
from .geom import ORIGIN, HypCircle, HypPoint, two_point_margin


@dataclass(frozen=True)
class StripOffsets:
    """Shift distances derived from a certified gap infimum delta.

    delta1 = min(delta, neck1) / 2 shifts the inner surface toward
    theta = 0; delta2 = delta - delta1/2 shifts the outer surface toward
    theta = pi.  Always delta1 + delta2 > delta.
    """

    delta: float
    delta1: float
    delta2: float


@dataclass(frozen=True)
class StripCheck:
    t: float
    check_id: str
    margin: float
    passed: bool
    witness: float | None = None


@dataclass(frozen=True)
class StripReport:
    kind: str
    passed: bool
    min_margin: float
    min_margin_t: float
    min_margin_check: str
    records: tuple[StripCheck, ...]
    version: str = __version__

    def to_json_dict(self) -> dict:
        # shallow, unlike asdict: each record dict is the frozen record's own,
        # for serialising, not for editing
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["records"] = [vars(r) for r in self.records]
        return doc

    def to_margin_csv(self) -> str:
        lines = ["t,check_id,margin"]
        for r in self.records:
            lines.append(f"{r.t:.17g},{r.check_id},{r.margin:.17g}")
        return "\n".join(lines) + "\n"


def _finish(kind: str, records: list[StripCheck]) -> StripReport:
    worst = min(records, key=lambda r: r.margin)
    return StripReport(
        kind=kind,
        passed=all(r.passed for r in records),
        min_margin=worst.margin,
        min_margin_t=worst.t,
        min_margin_check=worst.check_id,
        records=tuple(records),
    )


def compute_offsets(cert: DisjointnessCertificate) -> StripOffsets:
    """Shift offsets for the certified pair; rejects a non-positive gap.

    delta is the scan's infimum estimate (the gap decreases in |t|, so
    the scanned minimum estimates inf over all heights).  The certified
    lower bound delta0 can be much smaller than the actual infimum and
    would place the barriers uselessly close to the pair.
    """
    delta = cert.min_gap_observed
    if not delta > 0.0:
        raise PreconditionError(f"certificate gap infimum not positive: {delta}")
    eta1 = necksize(CmcParams(cert.H, cert.d1))
    delta1 = 0.5 * min(delta, eta1)
    return StripOffsets(delta=delta, delta1=delta1, delta2=delta - 0.5 * delta1)


@dataclass(frozen=True)
class PairRadii:
    """The certified pair's height tables and the height grid they are checked on.

    h1 and h2 are the tables of the members d1 and d2.  The three checks
    read b_{d1}(t) and b_{d2}(t) from them, so each distinct |t| is
    solved once however many checks ask for it.
    """

    t_grid: list[float]
    h1: HeightTable
    h2: HeightTable


def pair_radii(
    cert: DisjointnessCertificate, t_grid: list[float], quad_tol: float
) -> PairRadii:
    """One height table for each member of the certified pair."""
    return PairRadii(t_grid, HeightTable(CmcParams(cert.H, cert.d1), quad_tol),
                     HeightTable(CmcParams(cert.H, cert.d2), quad_tol))


def verify_strip_claim(pair: PairRadii, offsets: StripOffsets) -> StripReport:
    """Check, per height, the six inequalities making both shifted
    surfaces cut strips out of the region between the certified pair."""
    if not (offsets.delta1 > 0.0 and offsets.delta2 > 0.0):
        raise PreconditionError("offsets must be positive")
    center1 = HypPoint(offsets.delta1, 0.0)
    center2 = HypPoint(offsets.delta2, math.pi)

    records: list[StripCheck] = []
    for t in pair.t_grid:
        r1, r2 = pair.h1.radius(t), pair.h2.radius(t)
        checks = [
            ("center1_inside", r1 - offsets.delta1),
            (
                "shifted1_meets_inner",
                two_point_margin(HypCircle(ORIGIN, r1), HypCircle(center1, r1)),
            ),
            ("shifted1_clears_outer", r2 - (r1 + offsets.delta1)),
            ("center2_inside", r2 - offsets.delta2),
            (
                "shifted2_meets_outer",
                two_point_margin(HypCircle(ORIGIN, r2), HypCircle(center2, r2)),
            ),
            ("shifted2_clears_inner", (r2 - offsets.delta2) - r1),
        ]
        for check_id, margin in checks:
            records.append(StripCheck(t, check_id, margin, margin > 0.0))
    return _finish("strip_claim", records)


def verify_c3_lemma(pair: PairRadii) -> StripReport:
    """Check that the outer surface shifted by its own neck radius cuts a
    pair of strips: per height, its circle meets both pair circles twice."""
    eta2 = necksize(pair.h2.params)
    center3 = HypPoint(eta2, 0.0)

    records: list[StripCheck] = []
    for t in pair.t_grid:
        r1, r2 = pair.h1.radius(t), pair.h2.radius(t)
        checks = [
            (
                "shifted3_meets_outer",
                two_point_margin(HypCircle(ORIGIN, r2), HypCircle(center3, r2)),
            ),
            # eta2 - b2(t) < b1(t)
            ("shifted3_reaches_inner", r1 - (eta2 - r2)),
            # eta2 - b2(t) > -b1(t), i.e. the gap stays below eta2
            ("shifted3_not_swallowing_inner", eta2 - (r2 - r1)),
        ]
        for check_id, margin in checks:
            records.append(StripCheck(t, check_id, margin, margin > 0.0))
    return _finish("c3_lemma", records)


def remark_sweep(
    pair: PairRadii, offsets: StripOffsets, d_grid: list[float]
) -> StripReport:
    """For each intermediate d, find a height whose circle meets one of
    the shifted barrier circles in two points.

    A miss triggers one automatic 10x refinement of the height grid for
    that d before being recorded as a failure (grid coarseness, not a
    disproof).
    """
    p1, p2 = pair.h1.params, pair.h2.params
    for d in d_grid:
        if not (p1.d < d < p2.d):
            raise PreconditionError(f"d = {d} outside ({p1.d}, {p2.d})")
    ts_abs = sorted({abs(t) for t in pair.t_grid})
    center1 = HypPoint(offsets.delta1, 0.0)
    center2 = HypPoint(offsets.delta2, math.pi)

    def margin_at(hd: HeightTable, t: float) -> float:
        bd, r1, r2 = hd.radius(t), pair.h1.radius(t), pair.h2.radius(t)
        return max(
            two_point_margin(HypCircle(ORIGIN, bd), HypCircle(center1, r1)),
            two_point_margin(HypCircle(ORIGIN, bd), HypCircle(center2, r2)),
        )

    records: list[StripCheck] = []
    for d in d_grid:
        hd = HeightTable(CmcParams(p1.H, d), pair.h1.quad_tol)
        best_margin, best_t = -math.inf, None
        for t in ts_abs:
            m = margin_at(hd, t)
            if m > best_margin:
                best_margin, best_t = m, t
            if m > 0.0:
                break
        if best_margin <= 0.0 and len(ts_abs) > 1:
            # one 10x refinement pass around the best coarse height
            step = (ts_abs[-1] - ts_abs[0]) / max(len(ts_abs) - 1, 1)
            lo = max(best_t - step, ts_abs[0])
            fine = height_grid(lo, min(best_t + step, ts_abs[-1]), step / 10.0)
            for t in fine:
                m = margin_at(hd, t)
                if m > best_margin:
                    best_margin, best_t = m, t
                if m > 0.0:
                    break
        records.append(
            StripCheck(
                t=best_t if best_t is not None else 0.0,
                check_id=f"remark_d={d:.17g}",
                margin=best_margin,
                passed=best_margin > 0.0,
                witness=best_t,
            )
        )
    return _finish("remark_sweep", records)
