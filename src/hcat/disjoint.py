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
from .core import CmcParams, HeightTable, ROOT_TOL, curvature_q, remainder_bound
from .errors import CertificationFailure, PreconditionError

#: tolerance for the monotone-decrease finite-difference check
MONOTONE_TOL = 1e-9
#: default scan resolution in t
GRID_STEP_DEFAULT = 0.05
#: the most steps a height grid may take: 1 000 times a default grid's
MAX_GRID_STEPS = 1_000_000


def _require_d1(d1: float) -> None:
    if not 2.0 < d1 < math.inf:
        raise PreconditionError(f"d1 must be finite and exceed 2, got {d1}")


def _require_pair(d1: float, d2: float) -> None:
    _require_d1(d1)
    if not d1 < d2:
        raise PreconditionError(f"need d1 < d2, got {d1} >= {d2}")


def _bound_terms(H: float, d1: float, d2: float) -> tuple[float, float, float]:
    """The separation bound's terms: (1/2 ln(s2/s1), 2 pi sqrt(1-2H),
    sqrt(q)), s = sqrt(d^2 + q) formed without squaring d."""
    _require_d1(d1)
    root_q = math.sqrt(curvature_q(H))
    ratio_log = math.log(math.hypot(d2, root_q) / math.hypot(d1, root_q))
    return 0.5 * ratio_log, remainder_bound(H), root_q


def separation_lower_bound(H: float, d1: float, d2: float) -> float:
    """Asymptotic (large t) lower bound for the radial gap.

    (sqrt(1-4H^2)/(2H)) * (1/2 * ln sqrt((d2^2+1-4H^2)/(d1^2+1-4H^2))
                           - 2 pi sqrt(1-2H)).
    May be negative, in which case it certifies nothing by itself.  The
    threshold d0 for a given d1 > 2 is the unique d2 where it equals 1.
    Finite for every finite d2: no d is squared.
    """
    half_log, two_pi_root, root_q = _bound_terms(H, d1, d2)
    return root_q / (2.0 * H) * (half_log - two_pi_root)


def solve_d0(H: float, d1: float) -> float:
    """Unique d0 > d1 with separation_lower_bound(H, d1, d0) = 1.

    In closed form, d0 = sqrt((d1^2 + q) e^{2k} - q) with q = 1 - 4H^2 and
    k = 4H/sqrt(q) + 4 pi sqrt(1-2H), written as s sqrt(1 - q/s^2) with
    s = sqrt(d1^2 + q) e^k so that nothing overflows before d0 does.
    Within 2(k+1) eps relative of the exact root: rounding k alone moves
    e^k by about k eps/2.

    The root is checked on the bound's bracket, 1/2 ln(s2/s1) - 2 pi
    sqrt(1-2H) = 2H/sqrt(q), to within 8 times the sum of its three terms'
    ulps: d0's rounding moves the log term, about k/2, by up to (k+1) eps,
    at most 4 of its ulps (measured: within half the summed ulps over
    200 000 draws of H in (0, 1/2) and d1 up to 1e150).  The bound itself
    multiplies the bracket's rounding by sqrt(q)/(2H): its residual is
    1.4e-10 at H = 1e-6 and NaN at H = 5e-324.
    """
    _require_d1(d1)
    q = curvature_q(H)
    k = 4.0 * H / math.sqrt(q) + 2.0 * remainder_bound(H)
    try:
        s = math.hypot(d1, math.sqrt(q)) * math.exp(k)
    except OverflowError:
        s = math.inf
    if s == math.inf:
        raise PreconditionError(f"the threshold d0 for d1 = {d1} overflows the float range")
    d0 = s * math.sqrt(1.0 - q / (s * s))
    half_log, two_pi_root, root_q = _bound_terms(H, d1, d0)
    target = 2.0 * H / root_q
    residual = half_log - two_pi_root - target
    # written so that a NaN residual fails
    if not abs(residual) <= 8.0 * (math.ulp(half_log) + math.ulp(two_pi_root)
                                   + math.ulp(target)):
        raise CertificationFailure("threshold equation residual above tolerance")
    return d0


@dataclass(frozen=True)
class DisjointnessCertificate:
    """Full numeric record certifying a positive radial gap for one pair.

    `min_gap_t` is the height of `min_gap_observed`, the least scanned gap.
    Where the gap is flat to round-off it is noise.  Past both members'
    t_far (9.378 and 9.403 on the headline pair) the gap is a difference of
    closed forms (see `core.HeightTable`).  On the headline pair it still
    falls there, by 8.4e-12 over t in [15, 50], and is flat to 2.8e-14 over
    [20, 50], where the least gap lies (t = 31.45).  Between the two t_far
    one radius is the far field's and the other the table's, each within
    ROOT_TOL in u of the exact one up to the rounding of t (see
    `core.HeightTable`), and the gap falls smoothly through them.
    """

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
    root_tol: float = ROOT_TOL
    monotone_tol: float = MONOTONE_TOL
    version: str = __version__

    def to_json_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_dict(data: dict) -> "DisjointnessCertificate":
        """The certificate that `data` records.  A missing field is a
        KeyError.  A number field that holds anything but an int or a float
        (a bool, a string, null), or a pair that `certify` refuses, is a
        PreconditionError naming the rule."""
        fields = {k: data[k] for k in (
            "H", "d1", "d2", "delta0", "sup_gap", "t_max", "grid_step",
            "min_gap_observed", "min_gap_t", "asymptotic_bound",
            "monotone_decreasing", "beyond_lemma",
        )}
        # keys not named here, such as the quadrature tolerance that older
        # certificates recorded, are ignored
        for opt in ("d0", "root_tol", "monotone_tol", "version"):
            if opt in data and data[opt] is not None:
                fields[opt] = data[opt]
        flags = ("monotone_decreasing", "beyond_lemma", "version")
        for name, value in fields.items():
            if type(value) not in (int, float) and name not in flags:
                raise PreconditionError(f"{name} must be a number, got {value!r}")
        curvature_q(fields["H"])
        _require_pair(fields["d1"], fields["d2"])
        return DisjointnessCertificate(**fields)


def height_grid(lo: float, hi: float, step: float) -> list[float]:
    """Heights lo, lo + step, ... on [lo, hi], the last one exactly hi.

    The number of steps is rounded to the nearest whole number: a last
    stepped height past hi is clamped to hi, one short of it is followed
    by hi.  A range with lo < 0 <= hi is stepped outward from t = 0 both
    ways: its negative half is the exact mirror of the grid on [0, -lo],
    so t and -t share one |t| wherever both are on the grid.  A range of
    more than MAX_GRID_STEPS steps is refused before any height is made.
    """
    if not (lo <= hi and math.isfinite(hi - lo)):
        raise PreconditionError(f"need a finite height range with lo <= hi, got [{lo}, {hi}]")
    if not step > 0.0:
        raise PreconditionError(f"step must be positive, got {step}")
    if not (hi - lo) / step <= MAX_GRID_STEPS:
        raise PreconditionError(f"the height grid on [{lo}, {hi}] at step {step} takes more "
                                f"than MAX_GRID_STEPS = {MAX_GRID_STEPS} steps")
    if lo < 0.0 <= hi:
        # 0.0 comes from the upper half: the mirror would make it -0.0
        below = height_grid(0.0, -lo, step)
        return [-t for t in reversed(below[1:])] + height_grid(0.0, hi, step)
    n = int(math.floor((hi - lo) / step + 0.5))
    ts = [min(lo + i * step, hi) for i in range(n + 1)]
    if ts[-1] < hi:
        ts.append(hi)
    return ts


def _positive_gaps(h1: HeightTable, h2: HeightTable, ts: list[float]) -> list[float]:
    """The gaps b_{d2}(t) - b_{d1}(t) at the heights ts, all positive.

    The first gap that is not positive is a crossing, a CertificationFailure,
    unless it lies within the float spacing of the radii, ulp(max(r1, r2)):
    then both radii round to one float, or to neighbours, and the scan can
    neither certify nor refute the pair there, which is a PreconditionError.
    """
    r1s, r2s = h1.radii(ts), h2.radii(ts)
    gaps = [r2 - r1 for r1, r2 in zip(r1s, r2s)]
    for t, g, r1, r2 in zip(ts, gaps, r1s, r2s):
        if g > 0.0:
            continue
        if -g <= math.ulp(max(r1, r2)):
            raise PreconditionError(f"the radii at t = {t} are not resolved in floating "
                                    f"point: b_d1 = {r1!r} and b_d2 = {r2!r} are within "
                                    "one float spacing")
        raise CertificationFailure(f"gap non-positive at t = {t}", t=t, values={"gap": g})
    return gaps


def certify(
    H: float,
    d1: float,
    d2: float,
    t_max: float,
    grid_step: float = GRID_STEP_DEFAULT,
    d0: float | None = None,
) -> DisjointnessCertificate:
    """Scan the radial gap on [0, t_max] and assemble a certificate.

    Fails (raises CertificationFailure) if any scanned gap is <= 0 or
    the gap increases beyond MONOTONE_TOL somewhere on t > 0; a gap that
    the radii's float spacing cannot resolve is a PreconditionError.  The
    certified infimum combines the scanned minimum with the asymptotic
    bound when the latter is positive; the observed minimum region gets
    one 10x grid refinement.
    """
    _require_pair(d1, d2)
    if not 0.0 < t_max < math.inf:
        raise PreconditionError(f"t_max must be positive and finite, got {t_max}")

    ts = height_grid(0.0, t_max, grid_step)
    # one table per member, read by the coarse scan and the refinement
    h1 = HeightTable(CmcParams(H, d1))
    h2 = HeightTable(CmcParams(H, d2))
    gaps = _positive_gaps(h1, h2, ts)
    for (ta, ga), (tb, gb) in zip(zip(ts, gaps), zip(ts[1:], gaps[1:])):
        if gb - ga > MONOTONE_TOL:
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
    fine_gaps = _positive_gaps(h1, h2, fine_ts)
    j_min = min(range(len(fine_gaps)), key=fine_gaps.__getitem__)
    if fine_gaps[j_min] < gaps[i_min]:
        min_gap, min_t = fine_gaps[j_min], fine_ts[j_min]
    else:
        min_gap, min_t = gaps[i_min], ts[i_min]

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
        monotone_tol=MONOTONE_TOL,
    )
