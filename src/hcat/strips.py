"""Per-height circle checks behind the shifted-barrier strip claims.

Each surface of revolution meets the horizontal plane at height t in a
metric circle of radius b_d(t).  Shifting a surface horizontally moves
the circle's center along the theta in {0, pi} geodesic.  The checks
here verify, height by height, the strict inequalities that make the
intersection of a shifted surface with the region between a certified
disjoint pair a strip (one arc per height), plus the sweep showing that
every intermediate family member meets one of the shifted barriers.  The
second barrier, the outer surface shifted by its own neck radius, is
checked at t = 0 alone, where its margins are least.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, TextIO

from . import __version__
from .core import CmcParams, HeightTable, necksize
# re-exported so that hcat.strips.b_inverse stays importable; the benchmark's
# tests read it after tracing to check that it was restored
from .core import b_inverse as b_inverse
from .disjoint import DisjointnessCertificate, height_grid
from .errors import PreconditionError
from .geom import ORIGIN, HypPoint, hyp_distance, margin_at_distance
from .report import Pattern, Table, write_csv


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
class StripReport:
    """One check's records, held as columns.

    Record i is check `check_ids[i % len(check_ids)]` at height
    `t[i // (len(margins) // len(t))]`, with margin `margins[i]` and
    witness `witnesses[i]`: each grid height's checks in turn
    (len(margins) == len(t) * len(check_ids)), or one record per swept
    member with its own height and id (len(t) == len(check_ids) ==
    len(margins)); any other layout, or no record, is refused.  A record
    passes when its margin is > 0.0, the report when all do.  `min_margin`
    is the least margin, the first in record order among ties, at height
    `min_margin_t` in check `min_margin_check`; where the margins are
    flat to round-off, that height is noise: past |t| = 20, where both
    members' radii are closed forms (from t_far = 9.378 and 9.403 on), the
    headline's strip margins that follow the gap spread by 2.8e-14, and its
    least strip margin lies at t = -49.8.
    """

    kind: str
    t: list[float]
    check_ids: tuple[str, ...]
    margins: list[float]
    witnesses: list[float | None]
    passed: bool = field(init=False)
    min_margin: float = field(init=False)
    min_margin_t: float = field(init=False)
    min_margin_check: str = field(init=False)

    def __post_init__(self):
        n, heights, checks = len(self.margins), len(self.t), len(self.check_ids)
        if not (n and len(self.witnesses) == n
                and (n == heights * checks or n == heights == checks)):
            raise PreconditionError(
                f"{self.kind}: {n} margins and {len(self.witnesses)} witnesses do not fit "
                f"{heights} heights and {checks} check ids")
        # the first least margin in record order, as min() over records takes it
        i = self.margins.index(min(self.margins))
        summary = {"passed": all(map((0.0).__lt__, self.margins)),
                   "min_margin": self.margins[i],
                   "min_margin_t": self.t[i // (n // heights)],
                   "min_margin_check": self.check_ids[i % checks]}
        for name, value in summary.items():
            object.__setattr__(self, name, value)

    def _layout(self) -> tuple[Pattern, Pattern]:
        """The records' heights, each once per check, and their cycled ids."""
        n = len(self.margins)
        return Pattern(self.t, n, n // len(self.t)), Pattern(self.check_ids, n)

    def to_json_dict(self) -> dict:
        n = len(self.margins)
        t, check_ids = self._layout()
        # a value that every record shares is a one-value Pattern
        passed = Pattern((True,), n) if self.passed else list(map((0.0).__lt__, self.margins))
        witness = Pattern((None,), n) if self.witnesses.count(None) == n else self.witnesses
        records = Table({"t": t, "check_id": check_ids, "margin": self.margins,
                         "passed": passed, "witness": witness})
        return {"kind": self.kind, "passed": self.passed, "min_margin": self.min_margin,
                "min_margin_t": self.min_margin_t, "min_margin_check": self.min_margin_check,
                "records": records, "version": __version__}


def write_margin_csv(reports: Iterable[StripReport], fh: TextIO) -> None:
    """Write one margin table for `reports`: a `t,check_id,margin` header,
    then a row per record, floats with 17 significant digits."""
    fh.write("t,check_id,margin\n")
    for report in reports:
        write_csv((*report._layout(), report.margins), fh)


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
    """The certified pair's height tables, the height grid they are
    checked on and the pair's radii on it.

    t_grid is `height_grid(t_min, t_max, step)` and `step` its spacing,
    by which the sweep refines.  h1 and h2 are the tables of the members
    d1 and d2, and r1[k], r2[k] their radii at t_grid[k], from one
    `HeightTable.radii` call each: each distinct |t| is solved once, in
    closed form from t_far on and by Brent below it.  (A piece asked for
    more than `_INVERSE_AFTER` heights below t_far would read them from an
    inverse series; the default grid asks the headline pair's u in [2, 4]
    for 54 and 55, and fits none.)  The strip claim reads r1 and r2; the
    sweep reads the tables, whose memo holds the grid's radii.  A grid
    across t = 0 is mirrored about it, so t and -t are one |t|.
    """

    t_grid: list[float]
    step: float
    h1: HeightTable
    h2: HeightTable
    r1: list[float]
    r2: list[float]


def pair_radii(
    cert: DisjointnessCertificate, t_min: float, t_max: float, step: float,
) -> PairRadii:
    """The height grid on [t_min, t_max], one height table for each member
    of the certified pair, and their radii on the grid."""
    ts = height_grid(t_min, t_max, step)
    h1, h2 = HeightTable(CmcParams(cert.H, cert.d1)), HeightTable(CmcParams(cert.H, cert.d2))
    return PairRadii(ts, step, h1, h2, h1.radii(ts), h2.radii(ts))


_STRIP_CHECKS = ("center1_inside", "shifted1_meets_inner", "shifted1_clears_outer",
                 "center2_inside", "shifted2_meets_outer", "shifted2_clears_inner")


def verify_strip_claim(pair: PairRadii, offsets: StripOffsets) -> StripReport:
    """Check, per height, the six inequalities making both shifted
    surfaces cut strips out of the region between the certified pair."""
    delta1, delta2 = offsets.delta1, offsets.delta2
    if not (delta1 > 0.0 and delta2 > 0.0):
        raise PreconditionError("offsets must be positive")
    # the shifted centers' distances from the pair's common center
    dist1 = hyp_distance(ORIGIN, HypPoint(delta1, 0.0))
    dist2 = hyp_distance(ORIGIN, HypPoint(delta2, math.pi))

    margins: list[float] = []
    for r1, r2 in zip(pair.r1, pair.r2):
        margins.extend((r1 - delta1, margin_at_distance(dist1, r1, r1), r2 - (r1 + delta1),
                        r2 - delta2, margin_at_distance(dist2, r2, r2), (r2 - delta2) - r1))
    return StripReport("strip_claim", pair.t_grid, _STRIP_CHECKS, margins,
                       [None] * len(margins))


_C3_CHECKS = ("shifted3_meets_outer", "shifted3_reaches_inner",
              "shifted3_not_swallowing_inner")


def verify_c3_lemma(cert: DisjointnessCertificate) -> StripReport:
    """Check that the outer surface shifted by its own neck radius eta2
    cuts a pair of strips: at every height t its circle meets both pair
    circles in two points.

    With r1 = b_{d1}(t), r2 = b_{d2}(t), the gap g = r2 - r1 and the
    shifted center at distance dist3 ~ eta2 from the pair's, the three
    margins are each least at t = 0, where r1 = eta1, r2 = eta2 and
    g(0) = eta2 - eta1:

    - shifted3_meets_outer = min(dist3, 2 r2 - dist3) >= its value at
      r2 = eta2, since no radius is below its member's neck;
    - shifted3_reaches_inner = r1 + r2 - eta2 >= eta1, for the same reason;
    - shifted3_not_swallowing_inner = eta2 - g(t) >= eta2 - g(0) = eta1,
      since the gap falls from g(0) = sup g.

    So the report is these three margins, once, at t = 0.  The gap's fall
    is the certificate's claim: one that does not record
    `monotone_decreasing` as true, or whose `sup_gap` is not exactly
    eta2 - eta1, as `certify` records it, is refused.
    """
    eta1 = necksize(CmcParams(cert.H, cert.d1))
    eta2 = necksize(CmcParams(cert.H, cert.d2))
    if cert.monotone_decreasing is not True:
        raise PreconditionError("the c3 lemma needs a certificate whose gap is "
                                f"monotone_decreasing, got {cert.monotone_decreasing!r}")
    if cert.sup_gap != eta2 - eta1:
        raise PreconditionError(f"the c3 lemma needs sup_gap = eta2 - eta1 = {eta2 - eta1!r} "
                                f"of the certified pair, got {cert.sup_gap!r}")
    dist3 = hyp_distance(ORIGIN, HypPoint(eta2, 0.0))
    r1, r2 = eta1, eta2
    margins = [margin_at_distance(dist3, r2, r2), r1 - (eta2 - r2), eta2 - (r2 - r1)]
    return StripReport("c3_lemma", [0.0], _C3_CHECKS, margins, [None] * len(margins))


def remark_sweep(
    pair: PairRadii, offsets: StripOffsets, d_grid: list[float]
) -> StripReport:
    """For each intermediate d, find a height whose circle meets one of
    the shifted barrier circles in two points.

    A miss triggers one automatic 10x refinement before being recorded
    as a failure (grid coarseness, not a disproof): heights step by a
    tenth of the grid's step from the best coarse |t| minus that step to
    it plus that step, clamped to the grid's range of |t|.
    """
    if not d_grid:
        raise PreconditionError("the sweep's parameter grid d_grid is empty")
    p1, p2 = pair.h1.params, pair.h2.params
    for d in d_grid:
        if not (p1.d < d < p2.d):
            raise PreconditionError(f"d = {d} outside ({p1.d}, {p2.d})")
    ts_abs = sorted({abs(t) for t in pair.t_grid})
    dist1 = hyp_distance(ORIGIN, HypPoint(offsets.delta1, 0.0))
    dist2 = hyp_distance(ORIGIN, HypPoint(offsets.delta2, math.pi))

    def scan(hd: HeightTable, ts: list[float], best_margin: float, best_t: float | None):
        # the best margin up to the first positive one, and its height
        for t in ts:
            bd, r1, r2 = hd.radius(t), pair.h1.radius(t), pair.h2.radius(t)
            m = max(margin_at_distance(dist1, bd, r1), margin_at_distance(dist2, bd, r2))
            if m > best_margin:
                best_margin, best_t = m, t
            if m > 0.0:
                break
        return best_margin, best_t

    rows = []
    for d in d_grid:
        hd = HeightTable(CmcParams(p1.H, d))
        best_margin, best_t = scan(hd, ts_abs, -math.inf, None)
        if best_margin <= 0.0 and len(ts_abs) > 1:
            # one 10x refinement pass around the best coarse height
            lo = max(best_t - pair.step, ts_abs[0])
            fine = height_grid(lo, min(best_t + pair.step, ts_abs[-1]), pair.step / 10.0)
            best_margin, best_t = scan(hd, fine, best_margin, best_t)
        rows.append((best_t if best_t is not None else 0.0, f"remark_d={d:.17g}",
                     best_margin, best_t))
    ts, check_ids, margins, witnesses = map(list, zip(*rows))
    return StripReport("remark_sweep", ts, tuple(check_ids), margins, witnesses)
