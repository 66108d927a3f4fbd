"""Profile curves of the rotational constant-mean-curvature family in H^2 x R.

For mean curvature H in (0, 1/2) and family parameter d >= -2H the
generating curve is the height function

    height(rho) = integral from neck to rho of
                  (d + 2H cosh r) / sqrt(sinh^2 r - (d + 2H cosh r)^2) dr,

with the neck radius given in closed form.  The radicand factors as
(1 - 4H^2)(cosh r - alpha)(cosh r - beta) where alpha = cosh(neck) and
beta < 0, which is what every evaluator here uses: it removes the
catastrophic cancellation of the naive form near the neck.

The inverse-square-root endpoint singularity at the neck is removed by
the substitution r = neck + u^2; in the u variable the integrand is
smooth.  Every height (and every remainder integral of the height
decomposition) is read from a `HeightTable`: pieces in u that double in
width, each with a 24-point Chebyshev series of the cumulative integral
across it (`quad`, the package's one quadrature rule).  Forward reads
evaluate that series; profile inversion runs Brent on it across one
piece, in v = u^2 = rho - neck, where the height is nearly linear, and
in u on the piece from the neck, where the height grows like u.  That
Brent is `brentq` here, a kernel for one piece: the iteration of
`hcat.numerics.brentq` with the series summed inline, returning the same
root after the same number of evaluations.

A piece asked for many heights also gets an inverse series, u as a
Chebyshev series in t (Chebfun's `inv`: Driscoll, Hale and Trefethen,
*Chebfun Guide*, 2014).  A read from it is kept only when its residual
on the forward series certifies it within ROOT_TOL in u; any other
height is solved by Brent (see `HeightTable`).
"""

from __future__ import annotations

import io
import math
import sys
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from operator import mul

from .errors import ConvergenceError, DomainError, PreconditionError
from .numerics import _MAXITER, RootResult

#: root-finding tolerance in the substituted variable u = sqrt(rho - neck);
#: Brent solves in v = u^2 = rho - neck, to within 2u ROOT_TOL there, and
#: in u on the piece from the neck; an inverse-series read is certified
#: within it
ROOT_TOL = 1e-12
# width of the height table's first pieces, in u = sqrt(rho - neck)
_PANEL_U = 0.25
# Chebyshev points sampled on each piece
_CHEB_N = 24
# the height table's accuracy rule: a piece is kept when its tail (the last
# two Chebyshev coefficients of the integrand times the piece's half-width)
# is at most this times max(1, |piece total|).  It is relative, so it holds
# where heights grow large (3.5e4 at H = .4999, rho = 700); round-off alone
# leaves ~1e-15 of the total there once the integrand grows like u
_TAIL_TOL = 1e-13
# halvings of a piece before its series is given up
_MAX_DEPTH = 40
# Brent's relative tolerance: 4 ulp(1)
_RTOL = 4.0 * math.ulp(1.0)
# a piece's inverse series (see HeightTable) is built once the piece has
# been asked for more than _INVERSE_AFTER distinct heights, at the cost of
# _CHEB_N Brent solves.  Demand per piece: over 200 drawn pairs of the
# benchmark's pair scan (`disjoint --t-max 20 --step .5`) no piece was asked
# for more than 45 heights, so none builds there; the headline `disjoint`
# asks its three outer pieces 139, 555 and 228 heights per member on its
# coarse grid, and `strips` 69, 278 and 114
_INVERSE_AFTER = 64
# an inverse series is kept where its tail (the last two coefficients) is at
# most ROOT_TOL in u, else halved in t, at most this many times; a part that
# still fails is read by Brent
_INVERSE_MAX_DEPTH = 3
# rounding slack of a read's residual, in ulp(t)
_RESIDUAL_ULPS = 4.0

# the first-kind points cos(pi (j + 1/2) / N) and the DCT-II rows that take
# samples there to Chebyshev coefficients (the first one doubled)
_CHEB_X = tuple(math.cos(math.pi * (j + 0.5) / _CHEB_N) for j in range(_CHEB_N))
_CHEB_DCT = tuple(
    tuple(2.0 / _CHEB_N * math.cos(math.pi * k * (j + 0.5) / _CHEB_N) for j in range(_CHEB_N))
    for k in range(_CHEB_N)
)

# above this r the direct cosh/sinh evaluation is traded for an
# exp(-r)-based form; well below double overflow (~710)
_LARGE_R = 350.0


@dataclass(frozen=True)
class CmcParams:
    """One member of the rotational family: mean curvature H and parameter d.

    The member's derived constants are computed once, on construction:
    q = 1 - 4H^2, s = sqrt(d^2 + q), the roots alpha > 0 > beta of
    c^2 - 1 - (d + 2Hc)^2 in c = cosh r, and the neck radius eta.
    """

    H: float
    d: float
    q: float = field(init=False, repr=False, compare=False)
    s: float = field(init=False, repr=False, compare=False)
    alpha: float = field(init=False, repr=False, compare=False)
    beta: float = field(init=False, repr=False, compare=False)
    eta: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        H, d = self.H, self.d
        if not (0.0 < H < 0.5):
            raise PreconditionError(f"H must lie in (0, 1/2), got {H}")
        if d + 2.0 * H < 0.0:
            raise PreconditionError(f"d must be >= -2H = {-2.0 * H}, got {d}")
        # 1 - 4H^2 as a product: the difference cancels as H -> 1/2
        q = (1.0 - 2.0 * H) * (1.0 + 2.0 * H)
        s = math.sqrt(q + d * d)
        # cosh(eta) = alpha = 1 + y with y = (d + 2H)^2 / (s + q - 2dH), and
        # beta = (2dH - s) / q.  For d >= 0, s - 2dH = q (1 + d^2) / (s + 2dH)
        # is formed without the difference, which cancels as H -> 1/2
        w = d + 2.0 * H
        if d >= 0.0:
            g = (1.0 + d * d) / (s + 2.0 * d * H)
            y = w * w / (q * (1.0 + g))
            beta = -g
        else:
            y = w * w / (s + q - 2.0 * d * H)
            beta = (2.0 * d * H - s) / q
        eta = _stable_acosh1p(y)
        if not math.isfinite(eta):
            # d is NaN, infinite, or so large (~1e154) that d^2 overflows
            raise PreconditionError(f"d must be finite with a finite neck radius, got {d}")
        for name, value in (
            ("q", q),
            ("s", s),
            ("alpha", 1.0 + y),
            ("beta", beta),
            ("eta", eta),
        ):
            object.__setattr__(self, name, value)

    @property
    def is_entire_graph(self) -> bool:
        return self.d + 2.0 * self.H == 0.0


def _stable_acosh1p(y: float) -> float:
    """acosh(1 + y) for y >= 0 without forming 1 + y."""
    if y < 0.0:
        raise DomainError(f"acosh argument below 1 by {-y}")
    return math.log1p(y + math.sqrt(y * (y + 2.0)))


def necksize(params: CmcParams) -> float:
    """Neck radius: the minimal rho of the profile, 0 exactly at d = -2H."""
    return params.eta


def _numerator_profile(params: CmcParams, r: float) -> float:
    # d + 2H cosh r, grouped so it vanishes cleanly as r -> 0 at d = -2H
    H, d = params.H, params.d
    return (d + 2.0 * H) + 4.0 * H * math.sinh(0.5 * r) ** 2


def _numerator_remainder(params: CmcParams, r: float) -> float:
    # d + 2H e^{-r}
    H, d = params.H, params.d
    return (d + 2.0 * H) + 2.0 * H * math.expm1(-r)


def _integrand_large_r(params: CmcParams, r: float, remainder: bool) -> float:
    """Height (or remainder) integrand at r >= _LARGE_R.

    Numerator and radicand are divided by c = cosh r, and z = e^{-r}
    avoids overflow.
    """
    H, d = params.H, params.d
    z = math.exp(-r)
    inv_c = 2.0 * z / (1.0 + z * z)
    if remainder:
        num_over_c = (d + 2.0 * H * z) * inv_c
    else:
        num_over_c = 2.0 * H + 2.0 * d * z / (1.0 + z * z)
    a1 = 1.0 - params.alpha * inv_c
    a2 = 1.0 - params.beta * inv_c
    return num_over_c / math.sqrt(params.q * a1 * a2)


def integrand(params: CmcParams, r: float) -> float:
    """Derivative of the height function at radius r.

    Requires r strictly above the neck (strictly above 0 for the entire
    graph), where the radicand is positive.
    """
    eta = params.eta
    if r <= eta:
        raise DomainError(f"integrand needs r > neck = {eta}, got {r}")
    if r >= _LARGE_R:
        return _integrand_large_r(params, r, False)
    # cosh r - alpha = 2 sinh((r + eta)/2) sinh((r - eta)/2), exact identity
    c_minus_alpha = 2.0 * math.sinh(0.5 * (r + eta)) * math.sinh(0.5 * (r - eta))
    c_minus_beta = math.cosh(r) - params.beta
    radicand = params.q * c_minus_alpha * c_minus_beta
    if radicand <= 0.0:
        raise DomainError(f"radicand non-positive at r = {r}")
    return _numerator_profile(params, r) / math.sqrt(radicand)


def _sinhc_half_sq(u: float) -> float:
    """sinh(u^2/2) / (u^2/2), continued by 1 at u = 0."""
    x = 0.5 * u * u
    if x < 1e-8:
        return 1.0 + x * x / 6.0
    return math.sinh(x) / x


def _substituted(params: CmcParams, u: float, remainder: bool) -> float:
    """Integrand after r = neck + u^2, i.e. 2u * integrand(neck + u^2).

    Written so the 1/sqrt(r - neck) singularity cancels algebraically;
    smooth in u down to u = 0.
    """
    eta = params.eta
    r = eta + u * u
    if r >= _LARGE_R:
        return 2.0 * u * _integrand_large_r(params, r, remainder)
    num = _numerator_remainder(params, r) if remainder else _numerator_profile(params, r)
    q, beta = params.q, params.beta
    if u == 0.0:
        sh = math.sinh(eta)
        if sh == 0.0:
            # entire graph: the whole expression vanishes like u^3
            return 0.0
        return 2.0 * num / math.sqrt(q * sh * (math.cosh(eta) - beta))
    denom = q * math.sinh(eta + 0.5 * u * u) * _sinhc_half_sq(u) * (math.cosh(r) - beta)
    return 2.0 * num / math.sqrt(denom)


def quad(f, a: float, b: float, full_output: bool = False):
    """The running integral of f across the finite interval [a, b], a < b:
    (series, tail).

    f is sampled at the _CHEB_N first-kind Chebyshev points of [a, b] and
    its series integrated term by term from a.  `series` is (mid,
    half-width, C_0, (C_N, ..., C_1)), which `_series_at` reads anywhere
    in [a, b]; `tail`, the last two coefficients of f times the
    half-width, estimates its error (Trefethen, ATAP, Thms 8.1 and 19.3).
    With `full_output` it returns (series, tail, {"neval": _CHEB_N}).
    """
    if not -math.inf < a < b < math.inf:
        raise PreconditionError(f"quad needs a finite interval a < b, got [{a}, {b}]")
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    fx = [f(mid + half * x) for x in _CHEB_X]
    ak = [sum(map(mul, row, fx)) for row in _CHEB_DCT] + [0.0, 0.0]
    # integral of sum' a_k T_k: C_k = (a_{k-1} - a_{k+1}) / 2k, C_0 from C(-1) = 0
    c = [half * (ak[k - 1] - ak[k + 1]) / (2 * k) for k in range(1, _CHEB_N + 1)]
    c0 = sum(ck if k % 2 else -ck for k, ck in enumerate(c, 1))
    tail = (abs(ak[_CHEB_N - 1]) + abs(ak[_CHEB_N - 2])) * half
    series = (mid, half, c0, tuple(reversed(c)))
    return (series, tail, {"neval": _CHEB_N}) if full_output else (series, tail)


def _series_at(series: tuple, u: float) -> float:
    # Clenshaw's recurrence for sum C_k T_k(x) at x = (u - mid) / half
    mid, half, c0, rev = series
    x = (u - mid) / half
    x2 = x + x
    b1 = b2 = 0.0
    for ck in rev:
        b1, b2 = ck + x2 * b1 - b2, b1
    return c0 + x * b1 - b2


def brentq(series: tuple, start: float, t: float, a: float, b: float, fa: float,
           fb: float, xtol: float, rtol: float, in_v: bool = True,
           full_output: bool = False):
    """Root x in [a, b] of start + _series_at(series, u) - t: the height of
    one table piece, from its start height, less t.  The variable x is
    v = u^2 = rho - neck with `in_v`, else u itself.

    fa and fb are that excess at a and b, of opposite signs, and are read
    wherever an iterate lands on a or b.  This is `hcat.numerics.brentq` on
    that excess operation for operation, the series summed inline, so it
    returns the same root after the same number of evaluations (a and b
    counted).  Returns the root, or (root, RootResult) with `full_output`.
    """
    mid, half, c0, rev = series
    calls = 2

    def done(x: float):
        return (x, RootResult(calls)) if full_output else x

    if fa == 0.0:
        return done(a)
    if fb == 0.0:
        return done(b)
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return done(xcur)
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # an infinite or NaN step in IEEE arithmetic: never taken
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        calls += 1
        # the excess at xcur: a tabulated end, or the series summed by Clenshaw
        if xcur == a:
            fcur = fa
        elif xcur == b:
            fcur = fb
        else:
            x = ((math.sqrt(xcur) if in_v else xcur) - mid) / half
            x2 = x + x
            b1 = b2 = 0.0
            for ck in rev:
                b1, b2 = ck + x2 * b1 - b2, b1
            fcur = start + (c0 + x * b1 - b2) - t
            if fcur != fcur:
                raise DomainError(f"the series is NaN at {'v' if in_v else 'u'} = {xcur!r}")
    raise ConvergenceError(f"brentq did not converge in {_MAXITER} iterations; last "
                           f"{'v' if in_v else 'u'} = {xcur!r}")


def _table_read(params: CmcParams, rho: float, table, remainder: bool) -> float:
    if table is None:
        table = HeightTable(params, remainder)
    elif (table.params, table.remainder) != (params, remainder):
        raise PreconditionError("the table belongs to another member or integrand")
    return table.integral(rho)


def lambda_height(params: CmcParams, rho: float, table: HeightTable | None = None) -> float:
    """Height of the generating curve at radius rho (0 at the neck).

    Read from `table`, a HeightTable(params) that the caller keeps across
    reads.  Without one, a table is built for this read alone: one `quad`
    of _CHEB_N samples for each piece below rho, whose widths double in u
    (10 pieces and about 0.7 ms at rho = 1e4, against about 2 us for a
    read from a kept table).
    """
    return _table_read(params, rho, table, remainder=False)


def f_closed(params: CmcParams, rho: float) -> float:
    """Closed-form part of the height decomposition.

    (2H / sqrt(1-4H^2)) * acosh(((1-4H^2) cosh rho - 2dH) / sqrt(d^2+1-4H^2)),
    with the acosh argument reaching exactly 1 at the neck.  Requires
    d > -2H.
    """
    if params.is_entire_graph:
        raise PreconditionError("closed-form decomposition needs d > -2H")
    eta, q, s = params.eta, params.q, params.s
    scale = 2.0 * params.H / math.sqrt(q)
    if rho >= _LARGE_R:
        # acosh(x) = log(2x) up to O(x^-2); x ~ q e^rho / (2 s)
        z = math.exp(-rho)
        corr = math.log1p(z * z - 4.0 * params.d * params.H * z / q)
        return scale * (rho + math.log(q / s) + corr)
    # arg - 1 = q (cosh rho - cosh eta) / s, via the cosh-difference identity
    y = q * 2.0 * math.sinh(0.5 * (rho + eta)) * math.sinh(0.5 * (rho - eta)) / s
    if y < -1e-12:
        raise DomainError(f"acosh argument below 1 at rho = {rho}")
    return scale * _stable_acosh1p(max(y, 0.0))


def f_asymptote(params: CmcParams, rho: float) -> float:
    """Linear large-rho asymptote of the closed-form part."""
    q = params.q
    return 2.0 * params.H / math.sqrt(q) * (rho + math.log(q / params.s))


def g_residual(params: CmcParams, rho: float) -> float:
    """Closed-form part minus its linear asymptote; decays to 0 at infinity."""
    return f_closed(params, rho) - f_asymptote(params, rho)


def j_remainder(params: CmcParams, rho: float, table: HeightTable | None = None) -> float:
    """Remainder integral of the height decomposition (numerator d + 2H e^{-r}).

    Read from `table`, a HeightTable(params, remainder=True), or from one
    built for this read alone, at the cost given in `lambda_height`.
    """
    return _table_read(params, rho, table, remainder=True)


@dataclass(frozen=True)
class JBoundWitness:
    """Quantities witnessing the uniform bound on the remainder integral for d > 2."""

    alpha: float
    beta: float
    omega: float
    bound: float


def j_bound_witness(params: CmcParams) -> JBoundWitness:
    """Roots and margin data behind the d > 2 remainder bound 2*pi*sqrt(1-2H)."""
    if not params.d > 2.0:
        raise PreconditionError(f"bound witness requires d > 2, got d = {params.d}")
    alpha = params.alpha
    witness = JBoundWitness(
        alpha=alpha,
        beta=params.beta,
        omega=alpha - 1.0,
        bound=2.0 * math.pi * math.sqrt(1.0 - 2.0 * params.H),
    )
    cosh_eta = math.cosh(params.eta)
    if abs(alpha - cosh_eta) > 1e-10 * max(1.0, alpha):
        raise ConvergenceError("root alpha does not match cosh(necksize)")
    return witness


def verify_appendix(
    H_values: list[float],
    d_values: list[float],
    grid_points: int = 50,
) -> dict:
    """The appendix checks for every (H, d), as a {"passed", "checks"} report.

    On `grid_points` radii from the neck to 10 beyond it: height = f + J
    (scaled residual <= 1e-8), f' = 2H sinh(rho) / sqrt(radicand) by
    central differences (relative error <= 1e-6), sup J < 2 pi sqrt(1-2H)
    for d > 2 with its root witness, and |g_residual| decaying from 1
    beyond the neck.
    """
    if grid_points < 2:
        raise PreconditionError(f"grid_points must be >= 2, got {grid_points}")
    checks = []
    passed = True
    for H in H_values:
        for d in d_values:
            params = CmcParams(H, d)
            eta = params.eta
            heights = HeightTable(params)
            remainders = HeightTable(params, remainder=True)
            max_decomp = 0.0
            max_deriv = 0.0
            sup_j = 0.0
            prev_g = None
            g_decays = True
            for i in range(grid_points):
                rho = eta + 1e-6 + (10.0 - 1e-6) * i / (grid_points - 1)
                lam = lambda_height(params, rho, heights)
                fc = f_closed(params, rho)
                jr = j_remainder(params, rho, remainders)
                max_decomp = max(max_decomp, abs(lam - (fc + jr)) / max(1.0, lam))
                sup_j = max(sup_j, jr)
                if rho - eta >= 0.05:
                    h = min(1e-4, 0.25 * (rho - eta))
                    fd = (f_closed(params, rho + h) - f_closed(params, rho - h)) / (2 * h)
                    target = (
                        integrand(params, rho) * 2.0 * H * math.sinh(rho)
                        / _numerator_profile(params, rho)
                    )
                    max_deriv = max(max_deriv, abs(fd - target) / abs(target))
                if rho - eta >= 1.0:
                    g = abs(g_residual(params, rho))
                    if prev_g is not None and g > prev_g + 1e-12:
                        g_decays = False
                    prev_g = g
            bound = 2.0 * math.pi * math.sqrt(1.0 - 2.0 * H)
            entry = {
                "H": H,
                "d": d,
                "decomposition_max_scaled_residual": max_decomp,
                "decomposition_ok": max_decomp <= 1e-8,
                "derivative_max_rel_err": max_deriv,
                "derivative_ok": max_deriv <= 1e-6,
                "j_sup": sup_j,
                "j_bound": bound,
                "j_bound_margin": bound - sup_j,
                "j_bound_ok": (sup_j < bound) if d > 2.0 else None,
                "stated_pi_bound_held": sup_j < math.pi * math.sqrt(1.0 - 2.0 * H),
                "g_residual_decays": g_decays,
            }
            if d > 2.0:
                entry["witness"] = asdict(j_bound_witness(params))
            checks.append(entry)
            passed = passed and entry["decomposition_ok"] and entry["derivative_ok"] \
                and (entry["j_bound_ok"] is not False) and g_decays
    return {"passed": passed, "checks": checks}


class HeightTable:
    """Cumulative integral of one member's height (or remainder) integrand.

    The piece starting at u_lo in u = sqrt(rho - neck) spans
    [u_lo, u_lo + max(_PANEL_U, u_lo)]: [0, 1/4], [1/4, 1/2], [1/2, 1],
    [1, 2], [2, 4] and so on.  The integrand's complex singularities lie
    about u away from the real axis, so one series resolves a piece as
    wide as its start (Trefethen, ATAP, Thm 8.1).  Each piece gets one
    `quad`: a Chebyshev series of the cumulative integral across it, and
    the series' tail.  A piece is kept whole when its tail is at most
    _TAIL_TOL * max(1, |piece total|), on no other test; otherwise it is
    halved, and each half tested the same way, down to _MAX_DEPTH
    halvings.  Near the family floor d = -2H this splits piece 0 toward
    u = 0, where the integrand turns on a scale of (d + 2H)^(1/4).

    `breaks` are the pieces' ends in u, and `pieces[i]` is the series of
    the piece holding [breaks[i], breaks[i + 1]].  Every height the table
    holds reads "start + series", the start being `heights[i]`, the
    height at breaks[i]: `heights[i + 1]` at the piece's end,
    `integral(rho)` inside it, and `radius(t)` runs Brent on it across
    the piece whose end heights bracket t, in v = u^2 = rho - neck.  The
    height is nearly linear in v over a piece, where in u it bends like
    u^2.  On the piece from the neck it grows like u instead, so Brent
    runs in u there, to within ROOT_TOL; in v, with a tolerance relative
    to v = 0, its steps could creep past the iteration limit.  The table
    grows lazily to the largest radius (`integral`) or height (`radius`)
    asked for, at one piece per doubling of u; a piece whose total
    overflows is halved too.  A forward read whose height overflows, and
    a height that no finite radius reaches, are DomainErrors.

    Inverse reads.  On a member with d >= 0, a piece away from the neck
    (u_lo = breaks[i] > 0) that has been asked for more than
    _INVERSE_AFTER = 64 distinct heights gets an inverse series: u as a
    _CHEB_N-point Chebyshev series in t across [heights[i],
    heights[i + 1]], from Brent solves at the Chebyshev points in t, kept
    when its tail is at most ROOT_TOL and halved in t otherwise (see
    `_INVERSE_AFTER` for the demand that sized it: the benchmark's pair
    scan builds none).  A read sums that series at t to u~ and is kept
    only when its residual certifies it.  The residual is r = heights[i] +
    series_i(u~) - t.  For d >= 0, lambda' = N / sqrt(sinh^2 r - N^2) with
    N = d + 2H cosh r falls with r, since sinh r / N rises (its slope is
    (d cosh r + 2H) / N^2), toward 2H/sqrt(q).  So dt/du = 2u lambda' is at
    least 2 u_lo lambda'(rho_hi) across the piece, rho_hi being its end
    radius, and |u~ - u*| <= (|r| + 4 ulp(t)) / (2 u_lo lambda'(rho_hi)),
    the ulps covering the rounding of r; u* is the root of the forward
    series, the one Brent solves for.  The read is kept when that bound is
    at most ROOT_TOL.  Every other height, and every height on the neck
    piece or on a member with d < 0, is solved by Brent.

    Every solved radius is kept in `radii`, keyed by |t|, so asking again
    returns the stored bits; a radius depends only on the heights the
    table was asked before it.  The table lives as long as its caller
    keeps it; nothing outlives one call of a command.
    """

    def __init__(self, params: CmcParams, remainder: bool = False):
        if remainder and params.is_entire_graph:
            raise PreconditionError("remainder decomposition needs d > -2H")
        self.params = params
        self.remainder = remainder
        self.invertible = not (remainder or params.is_entire_graph)
        self.breaks = [0.0]
        self.heights = [0.0]
        self.pieces: list[tuple] = []
        self.radii: dict[float, float] = {}
        # per piece: the distinct heights solved on it, and its inverse
        # series once built; () where none will be (the piece from the neck,
        # a member with d < 0, or a piece where no read could be certified)
        self.asked: list[int] = []
        self.inverses: list[tuple | None] = []

    def _add_panel(self) -> None:
        u_lo = self.breaks[-1]
        self._add_piece(u_lo, u_lo + max(_PANEL_U, u_lo), 0)

    def _add_piece(self, u_lo: float, u_hi: float, depth: int) -> None:
        params, remainder = self.params, self.remainder
        series, tail = quad(lambda u: _substituted(params, u, remainder), u_lo, u_hi)
        total = _series_at(series, u_hi)
        if tail <= _TAIL_TOL * max(1.0, abs(total)) < math.inf:
            self.breaks.append(u_hi)
            self.heights.append(self.heights[-1] + total)
            self.pieces.append(series)
            self.asked.append(0)
            self.inverses.append(None if u_lo > 0.0 and params.d >= 0.0 else ())
            return
        if depth == _MAX_DEPTH:
            raise ConvergenceError(
                f"no Chebyshev series resolves u in [{u_lo}, {u_hi}] at H = "
                f"{params.H}, d = {params.d}"
            )
        u_mid = 0.5 * (u_lo + u_hi)
        self._add_piece(u_lo, u_mid, depth + 1)
        self._add_piece(u_mid, u_hi, depth + 1)

    def integral(self, rho: float) -> float:
        """The table's integral from the neck to radius rho."""
        eta = self.params.eta
        if not eta <= rho < math.inf:
            raise DomainError(f"rho must be finite and at least the neck radius {eta}, got {rho}")
        u = math.sqrt(rho - eta)
        while self.breaks[-1] < u:
            self._add_panel()
        i = bisect_right(self.breaks, u) - 1
        h = self.heights[i]
        if self.breaks[i] != u:
            h += _series_at(self.pieces[i], u)
        if not h < math.inf:
            raise DomainError(f"the height at rho = {rho} overflows the float range")
        return h

    def radius(self, t: float) -> float:
        """Radius of the profile at height t (even in t)."""
        t = abs(t)
        rho = self.radii.get(t)
        if rho is None:
            if not self.invertible:
                raise PreconditionError("profile inversion needs a height table with d > -2H")
            rho = self.radii[t] = self._solve(t)
        return rho

    def _solve(self, t: float) -> float:
        if not math.isfinite(t):
            raise DomainError(f"height must be finite, got {t}")
        eta = self.params.eta
        if t == 0.0:
            return eta
        heights, breaks = self.heights, self.breaks
        # grow past t, so that the piece holding t has an end above it
        while heights[-1] <= t:
            if breaks[-1] * breaks[-1] == math.inf:
                raise DomainError(f"no finite radius reaches height t = {t}")
            self._add_panel()
        i = bisect_right(heights, t) - 1
        lo = breaks[i]
        if heights[i] == t:
            return eta + lo * lo
        if lo == 0.0:
            # from the neck the height grows like u, so Brent runs in u: in v
            # it grows like sqrt(v), where Brent's steps crept past its
            # iteration limit
            u = brentq(self.pieces[i], heights[i], t, 0.0, breaks[i + 1], heights[i] - t,
                       heights[i + 1] - t, xtol=ROOT_TOL, rtol=_RTOL, in_v=False)
            return eta + u * u
        inverse = self.inverses[i]
        if inverse is None:
            asked = self.asked[i] = self.asked[i] + 1
            if asked > _INVERSE_AFTER:
                inverse = self.inverses[i] = self._invert(i)
        if inverse:
            u = self._read_inverse(i, inverse, t)
            if u is not None:
                return eta + u * u
        hi = breaks[i + 1]
        v_lo, v_hi = lo * lo, hi * hi
        start, series = heights[i], self.pieces[i]
        # the bracket's ends are tabulated heights, so its signs hold exactly
        f_lo, f_hi = start - t, heights[i + 1] - t
        if v_hi == math.inf:
            # the largest finite radius closes the bracket where hi^2 overflows
            v_hi = sys.float_info.max
            f_hi = start + _series_at(series, math.sqrt(v_hi)) - t
        while f_hi == math.inf:
            # the height overflows inside the piece, and Brent's steps need
            # a finite end: bisect to one
            v = v_lo + 0.5 * (v_hi - v_lo)
            if v in (v_lo, v_hi):
                break
            f = start + _series_at(series, math.sqrt(v)) - t
            if f < 0.0:
                v_lo, f_lo = v, f
            else:
                v_hi, f_hi = v, f
        if not 0.0 <= f_hi < math.inf:
            raise DomainError(f"no finite radius reaches height t = {t}")
        # dv = 2u du, so xtol keeps u within ROOT_TOL
        v = brentq(series, start, t, v_lo, v_hi, f_lo, f_hi,
                   xtol=2.0 * ROOT_TOL * max(lo, ROOT_TOL), rtol=_RTOL, in_v=True)
        return eta + v

    def _invert(self, i: int) -> tuple:
        """Piece i's inverse series: (t_breaks, series, du_dt), u as a
        Chebyshev series in t on each [t_breaks[j], t_breaks[j + 1]] (None
        where halving gave up) and the largest du/dt across the piece; ()
        when no read could be certified."""
        # no inverse while the piece is fitted: _solve answers its sample
        # heights by Brent
        self.inverses[i] = ()
        params = self.params
        t_lo, t_hi = self.heights[i], self.heights[i + 1]
        # dt/du = 2u lambda'(rho) is least at the piece's ends: u at its start,
        # lambda' at its end, since lambda' falls with rho for d >= 0
        u_lo, u_hi = self.breaks[i], self.breaks[i + 1]
        du_dt = 1.0 / (2.0 * u_lo * integrand(params, params.eta + u_hi * u_hi))
        if _RESIDUAL_ULPS * math.ulp(t_hi) * du_dt > 0.5 * ROOT_TOL:
            # the rounding slack alone would take half of every read's budget
            return ()
        t_breaks, series = [t_lo], []
        self._fit_inverse(i, t_lo, t_hi, 0, t_breaks, series)
        return t_breaks, series, du_dt

    def _fit_inverse(self, i: int, a: float, b: float, depth: int, t_breaks: list,
                     series: list) -> None:
        """Append to t_breaks and series the fit of u(t) on [a, b], inside
        piece i: one series from Brent at its _CHEB_N Chebyshev points,
        halved where its tail exceeds ROOT_TOL."""
        mid, half, eta = 0.5 * (a + b), 0.5 * (b - a), self.params.eta
        us = [math.sqrt(self._solve(mid + half * x) - eta) for x in _CHEB_X]
        ak = [sum(map(mul, row, us)) for row in _CHEB_DCT]
        tail = abs(ak[-1]) + abs(ak[-2])
        if tail <= ROOT_TOL or depth == _INVERSE_MAX_DEPTH:
            t_breaks.append(b)
            series.append((mid, half, 0.5 * ak[0], tuple(reversed(ak[1:])))
                          if tail <= ROOT_TOL else None)
            return
        self._fit_inverse(i, a, mid, depth + 1, t_breaks, series)
        self._fit_inverse(i, mid, b, depth + 1, t_breaks, series)

    def _read_inverse(self, i: int, inverse: tuple, t: float) -> float | None:
        """u at height t from piece i's inverse series, or None when the
        read's certified bound exceeds ROOT_TOL."""
        t_breaks, series, du_dt = inverse
        fit = series[bisect_right(t_breaks, t) - 1]
        if fit is None:
            return None
        u = _series_at(fit, t)
        if not self.breaks[i] <= u <= self.breaks[i + 1]:
            return None
        r = self.heights[i] + _series_at(self.pieces[i], u) - t
        if (abs(r) + _RESIDUAL_ULPS * math.ulp(t)) * du_dt > ROOT_TOL:
            return None
        return u


def b_inverse(params: CmcParams, t: float) -> float:
    """Radius of the profile at height t (even in t), from a one-off HeightTable."""
    return HeightTable(params).radius(t)


@dataclass(frozen=True)
class ProfileSample:
    rho: float
    t: float


@dataclass(frozen=True)
class ProfileCurve:
    """Sampled generating curve with strictly increasing rho and t."""

    params: CmcParams
    samples: tuple[ProfileSample, ...]

    def __post_init__(self):
        if len(self.samples) < 2:
            raise PreconditionError("a profile needs at least 2 samples")
        rhos = [s.rho for s in self.samples]
        ts = [s.t for s in self.samples]
        if any(b <= a for a, b in zip(rhos, rhos[1:])):
            raise PreconditionError("profile rho values must be strictly increasing")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise PreconditionError("profile heights must be strictly increasing")

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("rho,t\n")
        for s in self.samples:
            buf.write(f"{s.rho:.17g},{s.t:.17g}\n")
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "params": {"H": self.params.H, "d": self.params.d},
            "samples": [{"rho": s.rho, "t": s.t} for s in self.samples],
        }


def _graded_rhos(eta: float, rho_max: float, n: int) -> list[float]:
    # uniform in sqrt(rho - eta): matches the singularity-removing substitution
    span = math.sqrt(rho_max - eta)
    return [eta + (span * i / (n - 1)) ** 2 for i in range(n)]


def profile(params: CmcParams, rho_max: float, n: int) -> ProfileCurve:
    """Sample the generating curve on a neck-graded grid up to rho_max."""
    eta = params.eta
    if not eta < rho_max < math.inf:
        raise PreconditionError(f"rho_max must be finite and exceed the neck radius {eta}")
    if n < 2:
        raise PreconditionError("n must be >= 2")
    table = HeightTable(params)
    samples = [ProfileSample(eta, 0.0)]
    for rho in _graded_rhos(eta, rho_max, n)[1:]:
        samples.append(ProfileSample(rho, lambda_height(params, rho, table)))
    return ProfileCurve(params=params, samples=tuple(samples))


def entire_graph_profile(H: float, rho_max: float, n: int) -> ProfileCurve:
    """Profile of the d = -2H member, a graph over the whole plane from rho = 0."""
    return profile(CmcParams(H, -2.0 * H), rho_max, n)
