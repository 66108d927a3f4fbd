"""Numeric disjointness certificates for pairs of family members.

A certificate establishes a positive lower bound delta0 for the radial
gap b_{d2}(t) - b_{d1}(t) over all heights t, by combining a finite
scan on [0, t_max] (even in t), a finite-difference monotonicity check
for t > 0, and the closed-form asymptotic separation bound valid for
large t.  Disjointness of the two surfaces of revolution follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from . import __version__
from .core import CmcParams, HeightTable, QUAD_TOL, ROOT_TOL, b_inverse
from .errors import CertificationFailure, PreconditionError
from .numerics import brentq

#: tolerance for the monotone-decrease finite-difference check
MONOTONE_TOL = 1e-9
#: default scan resolution in t
GRID_STEP_DEFAULT = 0.05


def _require_d1(d1: float) -> None:
    if not 2.0 < d1 < math.inf:
        raise PreconditionError(f"d1 must be finite and exceed 2, got {d1}")


def separation_lower_bound(H: float, d1: float, d2: float) -> float:
    """Asymptotic (large t) lower bound for the radial gap.

    (sqrt(1-4H^2)/(2H)) * (1/2 * ln sqrt((d2^2+1-4H^2)/(d1^2+1-4H^2))
                           - 2 pi sqrt(1-2H)).
    May be negative, in which case it certifies nothing by itself.  The
    threshold d0 for a given d1 > 2 is the unique d2 where it equals 1.
    """
    _require_d1(d1)
    # 1 - 4H^2 as a product, as in CmcParams: the difference cancels as H -> 1/2
    q = (1.0 - 2.0 * H) * (1.0 + 2.0 * H)
    ratio_log = 0.5 * (math.log(d2 * d2 + q) - math.log(d1 * d1 + q))
    return math.sqrt(q) / (2.0 * H) * (
        0.5 * ratio_log - 2.0 * math.pi * math.sqrt(1.0 - 2.0 * H)
    )


def solve_d0(H: float, d1: float) -> float:
    """Unique d0 > d1 with separation_lower_bound(H, d1, d0) = 1.

    Bracket-doubling then Brent; the closed-form rearrangement of the
    equation exists but is kept out of the solver so it can serve as an
    independent oracle.
    """
    _require_d1(d1)
    lo, hi = d1, 2.0 * d1
    while separation_lower_bound(H, d1, hi) < 1.0:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise PreconditionError("threshold equation has no finite root")
    d0 = brentq(
        lambda x: separation_lower_bound(H, d1, x) - 1.0,
        lo,
        hi,
        xtol=1e-12,
        rtol=4.0 * math.ulp(1.0),
    )
    if abs(separation_lower_bound(H, d1, d0) - 1.0) > 1e-10:
        raise CertificationFailure("threshold equation residual above tolerance")
    return d0


def gap(H: float, d1: float, d2: float, t: float) -> float:
    """Radial gap b_{d2}(t) - b_{d1}(t); even in t."""
    p1, p2 = CmcParams(H, d1), CmcParams(H, d2)
    if not d1 < d2:
        raise PreconditionError(f"need d1 < d2, got {d1} >= {d2}")
    return b_inverse(p2, t) - b_inverse(p1, t)


@dataclass(frozen=True)
class DisjointnessCertificate:
    """Full numeric record certifying a positive radial gap for one pair."""

    H: float
    d1: float
    d2: float
    delta0: float
    sup_gap: float
    t_max: float
    grid_step: float
    min_gap_observed: float
    min_gap_t: float
    asymptotic_bound: float
    monotone_decreasing: bool
    beyond_lemma: bool
    d0: float | None = None
    quad_tol: float = QUAD_TOL
    root_tol: float = ROOT_TOL
    monotone_tol: float = MONOTONE_TOL
    version: str = __version__

    def to_json_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_dict(data: dict) -> "DisjointnessCertificate":
        fields = {k: data[k] for k in (
            "H", "d1", "d2", "delta0", "sup_gap", "t_max", "grid_step",
            "min_gap_observed", "min_gap_t", "asymptotic_bound",
            "monotone_decreasing", "beyond_lemma",
        )}
        for opt in ("d0", "quad_tol", "root_tol", "monotone_tol", "version"):
            if opt in data and data[opt] is not None:
                fields[opt] = data[opt]
        return DisjointnessCertificate(**fields)


def height_grid(lo: float, hi: float, step: float) -> list[float]:
    """Heights lo, lo + step, ... on [lo, hi], the last one exactly hi.

    The number of steps is rounded to the nearest whole number: a last
    stepped height past hi is clamped to hi, one short of it is followed
    by hi.
    """
    if not (lo <= hi and math.isfinite(hi - lo)):
        raise PreconditionError(f"need a finite height range with lo <= hi, got [{lo}, {hi}]")
    if not step > 0.0:
        raise PreconditionError(f"step must be positive, got {step}")
    n = int(math.floor((hi - lo) / step + 0.5))
    ts = [min(lo + i * step, hi) for i in range(n + 1)]
    if ts[-1] < hi:
        ts.append(hi)
    return ts


def certify(
    H: float,
    d1: float,
    d2: float,
    t_max: float,
    grid_step: float = GRID_STEP_DEFAULT,
    quad_tol: float = QUAD_TOL,
    monotone_tol: float = MONOTONE_TOL,
    d0: float | None = None,
) -> DisjointnessCertificate:
    """Scan the radial gap on [0, t_max] and assemble a certificate.

    Fails (raises CertificationFailure) if any scanned gap is <= 0 or
    the gap increases beyond `monotone_tol` somewhere on t > 0.  The
    certified infimum combines the scanned minimum with the asymptotic
    bound when the latter is positive; the observed minimum region gets
    one 10x grid refinement.
    """
    _require_d1(d1)
    if not d1 < d2:
        raise PreconditionError(f"need d1 < d2, got {d1} >= {d2}")
    if not 0.0 < t_max < math.inf:
        raise PreconditionError(f"t_max must be positive and finite, got {t_max}")

    ts = height_grid(0.0, t_max, grid_step)
    # one table per member, read by the coarse scan and the refinement
    h1 = HeightTable(CmcParams(H, d1), quad_tol)
    h2 = HeightTable(CmcParams(H, d2), quad_tol)
    gaps = [h2.radius(t) - h1.radius(t) for t in ts]

    for t, g in zip(ts, gaps):
        if not g > 0.0:
            raise CertificationFailure(
                f"gap non-positive at t = {t}", t=t, values={"gap": g}
            )
    for (ta, ga), (tb, gb) in zip(zip(ts, gaps), zip(ts[1:], gaps[1:])):
        if gb - ga > monotone_tol:
            raise CertificationFailure(
                f"gap increased between t = {ta} and t = {tb}",
                t=tb,
                values={"gap_before": ga, "gap_after": gb},
            )

    i_min = min(range(len(gaps)), key=gaps.__getitem__)
    # refine 10x around the observed minimum
    lo = max(ts[i_min] - grid_step, 0.0)
    hi = min(ts[i_min] + grid_step, t_max)
    fine_ts = height_grid(lo, hi, grid_step / 10.0)
    fine_gaps = [h2.radius(t) - h1.radius(t) for t in fine_ts]
    j_min = min(range(len(fine_gaps)), key=fine_gaps.__getitem__)
    if fine_gaps[j_min] < gaps[i_min]:
        min_gap, min_t = fine_gaps[j_min], fine_ts[j_min]
    else:
        min_gap, min_t = gaps[i_min], ts[i_min]
    if not min_gap > 0.0:
        raise CertificationFailure(
            f"gap non-positive at t = {min_t}", t=min_t, values={"gap": min_gap}
        )

    asym = separation_lower_bound(H, d1, d2)
    delta0 = min(min_gap, asym) if asym > 0.0 else min_gap
    threshold = d0 if d0 is not None else solve_d0(H, d1)

    return DisjointnessCertificate(
        H=H,
        d1=d1,
        d2=d2,
        delta0=delta0,
        sup_gap=gaps[0],
        t_max=t_max,
        grid_step=grid_step,
        min_gap_observed=min_gap,
        min_gap_t=min_t,
        asymptotic_bound=asym,
        monotone_decreasing=True,
        beyond_lemma=d2 < threshold,
        d0=d0,
        quad_tol=quad_tol,
        monotone_tol=monotone_tol,
    )
