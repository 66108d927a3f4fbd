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
Brent is `brentq` here, a kernel for one piece: the iteration of SciPy's
`brentq` with the series summed inline, returning the same root after the
same number of evaluations.

A caller that knows its grid of heights asks for it whole
(`HeightTable.radii`); a piece that such a grid asks for many heights
first gets an inverse series, u as a Chebyshev series in t (Chebfun's
`inv`: Driscoll, Hale and Trefethen, *Chebfun Guide*, 2014).  A read
from it is kept only when its residual on the forward series certifies
it within ROOT_TOL in u; any other height is solved by Brent (see
`HeightTable`).  Such bounds are on u against the root for the float
height t: t's own rounding moves the exact radius by up to
ulp(t) / (2 u kappa) in u more, kappa = 2H / sqrt(q), which exceeds
ROOT_TOL below H of about 1e-5 (at t_far on d = 3: 1.3 ROOT_TOL at
H = 1e-5, 12.5 ROOT_TOL at H = 1e-6).

Far out no table is needed.  The height is f(rho) + J(rho), f in closed
form (`f_closed`) and J the remainder (`j_remainder`).  For d >= 0 the
remainder's tail J(inf) - J(rho) is A e^{-rho} + R(rho), A = 2d / sqrt(q),
and |R| has a closed-form bound tau_2 (`_tail_rest_bound`) that falls like
e^{-2 rho}.  Once tau_2 is small enough that it moves u by at most
ROOT_TOL / 4, from a height t_far on, a radius solves f(rho) - A e^{-rho}
= t - J(inf): one acosh, iterated on the small term, with J(inf) read
from the table once (`FarField`).
"""

from __future__ import annotations

import io
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from operator import mul

from .errors import ConvergenceError, DomainError, PreconditionError
from .report import Table

#: root-finding tolerance in the substituted variable u = sqrt(rho - neck);
#: Brent solves in v = u^2 = rho - neck, to within 2u ROOT_TOL there, and
#: in u on the piece from the neck; an inverse-series read is certified
#: within it
ROOT_TOL = 1e-12
# width of the height table's first piece, in u = sqrt(rho - neck): one
# series spans [0, 1] (24 points pass the _TAIL_TOL rule there at H = .25
# for every d >= -0.2 tried, and at (1e-4, 3), (.4999, 3) and (.49999,
# 2.0001)); near the floor d = -2H that rule halves it
_PANEL_U = 1.0
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
# Brent's iterations before it gives up: SciPy's default maxiter
_MAXITER = 100
# a piece's inverse series (see HeightTable.radii) is fitted before any
# Brent solve on it when one call asks the piece for more than this many
# distinct unsolved heights.  Measured on the six pieces that the headline
# pair fitted before the far field, when each table grew to u = 16 (one
# core of a shared Intel Xeon host, Python 3.11): a fit takes 0.33-0.89 ms,
# on average as long as 44 Brent solves (it makes 40: 24 per whole series,
# 72 where the series is halved; no read was refused there), and a read
# saves about 8 us against a solve (4.4 against 12.5 us, weighted by the
# heights asked), so a fit pays for itself past about 69 reads.  The
# headline pipeline now fits two pieces, u in [2, 4] of each member, which
# the certificate's grid asks 109 heights below t_far
_INVERSE_AFTER = 68
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


def curvature_q(H: float) -> float:
    """q = 1 - 4H^2 for a mean curvature H in (0, 1/2), formed as the
    product (1 - 2H)(1 + 2H): the difference cancels as H -> 1/2."""
    if not 0.0 < H < 0.5:
        raise PreconditionError(f"H must lie in (0, 1/2), got {H}")
    return (1.0 - 2.0 * H) * (1.0 + 2.0 * H)


def remainder_bound(H: float) -> float:
    """2 pi sqrt(1 - 2H), the paper's bound on the remainder integral J of
    every member with d > 2, for H in (0, 1/2)."""
    return 2.0 * math.pi * math.sqrt(1.0 - 2.0 * H)


@dataclass(frozen=True)
class CmcParams:
    """One member of the rotational family: mean curvature H and parameter d.

    The member's derived constants are computed once, on construction:
    q = 1 - 4H^2, s = sqrt(d^2 + q), the roots alpha > 0 > beta of
    c^2 - 1 - (d + 2Hc)^2 in c = cosh r, the neck radius eta, and
    kappa = 2H / sqrt(q), the slope that the height approaches far out.
    """

    H: float
    d: float
    q: float = field(init=False, repr=False, compare=False)
    s: float = field(init=False, repr=False, compare=False)
    alpha: float = field(init=False, repr=False, compare=False)
    beta: float = field(init=False, repr=False, compare=False)
    eta: float = field(init=False, repr=False, compare=False)
    kappa: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        H, d = self.H, self.d
        q = curvature_q(H)
        if d + 2.0 * H < 0.0:
            raise PreconditionError(f"d must be >= -2H = {-2.0 * H}, got {d}")
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
            ("kappa", 2.0 * H / math.sqrt(q)),
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


@dataclass(frozen=True)
class RootResult:
    """How `brentq` found its root."""

    function_calls: int


def brentq(series: tuple, start: float, t: float, a: float, b: float, fa: float,
           fb: float, xtol: float, rtol: float, in_v: bool = True,
           full_output: bool = False):
    """Root x in [a, b] of start + _series_at(series, u) - t: the height of
    one table piece, from its start height, less t.  The variable x is
    v = u^2 = rho - neck with `in_v`, else u itself.

    fa and fb are that excess at a and b, of opposite signs, and are read
    wherever an iterate lands on a or b.  This is SciPy's `brentq` (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, in the form of
    SciPy's `brentq.c`) on that excess operation for operation, the series
    summed inline, so it returns the same root after the same number of
    evaluations (a and b counted).  Returns the root, or (root, RootResult)
    with `full_output`.  Raises DomainError where the series is NaN, and
    ConvergenceError after 100 iterations, SciPy's default maxiter.
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
    (8 pieces and about 0.7 ms at rho = 1e4, against a few us for a read
    from a kept table).
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
    eta, q, s, scale = params.eta, params.q, params.s, params.kappa
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
    return params.kappa * (rho + math.log(params.q / params.s))


def j_remainder(params: CmcParams, rho: float, table: HeightTable | None = None) -> float:
    """Remainder integral of the height decomposition (numerator d + 2H e^{-r}).

    Read from `table`, a HeightTable(params, remainder=True), or from one
    built for this read alone, at the cost given in `lambda_height`.
    """
    return _table_read(params, rho, table, remainder=True)


def _tail_rest_bound(params: CmcParams, rho: float) -> float:
    """tau_2(rho), for d >= 0 a bound on |R(rho)|, R = tau - A e^{-rho} the
    remainder integral's tail tau(rho) = J(inf) - J(rho) less its leading
    term, A = 2d / sqrt(q); inf where 2 alpha e^{-rho} exceeds a_max = 1/2.

    The remainder integrand is g(r) = (d + 2H z) / (sqrt(q) c sqrt((1 -
    alpha / c)(1 + |beta| / c))), z = e^{-r}, c = cosh r.  For r >= rho,
    1/c <= 2z and alpha / c <= 2 alpha z <= a_max.  (1 - x)^{-1/2} is convex,
    so on [0, a_max] it is at most the chord 1 + k x, k = (sqrt 2 - 1) /
    a_max; (1 + y)^{-1/2} >= 1 - y/2 and 1/c >= 2z - 2z^3.  Then g - A z is
    at most 4 (d alpha k + H (1 + a_max k)) z^2 / sqrt(q), and A z - g at
    most 2d (e^{-rho} + |beta|) z^2 / sqrt(q): |g - A z| <= D z^2, D the
    larger of the two, and |R(rho)| <= D e^{-2 rho} / 2.  Formed as
    products of d z, alpha z and |beta| z, none of which overflows.
    """
    a_max = 0.5
    z = math.exp(-rho)
    alpha_z = params.alpha * z
    if not 2.0 * alpha_z <= a_max:
        return math.inf
    k = (math.sqrt(2.0) - 1.0) / a_max
    H, dz = params.H, params.d * z
    above = 2.0 * (k * dz * alpha_z + H * (1.0 + a_max * k) * z * z)
    below = dz * z * (z - params.beta)
    return max(above, below) / math.sqrt(params.q)


@dataclass(frozen=True)
class FarField:
    """Where a table's integral is a closed form plus a constant, to within
    ROOT_TOL / 2 in u: the height f(rho) + J(inf) - A e^{-rho}, or the
    remainder J(inf) - A e^{-rho}, with A = 2d / sqrt(q), `lead`.

    `limit` estimates J(inf) from the end rho_e of the first panel whose
    end passes the tail test (see HeightTable): the table's integral there,
    less f there on a height table, plus A e^{-rho_e}.  It lies within
    `error` = tau_2(rho_e) of J(inf), so `limit + error` bounds the
    remainder from above for d >= 0.  The far field starts inside that
    panel at `rho`, rho_far, where the closed form takes the value `t`
    (t_far on a height table).
    """

    rho: float
    t: float
    limit: float
    error: float
    lead: float


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
        bound=remainder_bound(params.H),
    )
    cosh_eta = math.cosh(params.eta)
    if abs(alpha - cosh_eta) > 1e-10 * max(1.0, alpha):
        raise ConvergenceError("root alpha does not match cosh(necksize)")
    return witness


def verify_appendix(H_values: list[float], d_values: list[float]) -> dict:
    """The appendix checks for every (H, d), as a {"passed", "checks"} report.

    height = f + J: |lambda - f - J| / max(1, lambda) <= 1e-8 at every
    Chebyshev node and end of every piece of both tables, which run to the
    far panel's end rho_e for d >= 0 and past rho - neck = 10 for d < 0.
    Past rho_e, lambda >= lambda(rho_e) and lambda - f - J is limit_height -
    limit_remainder within the two `FarField.error`s, which join the maximum:
    the check covers [neck, inf), the report's rho range ending in None.

    sup J < 2 pi sqrt(1-2H) for d > 2, with its root witness.  d + 2H e^{-r}
    is positive for d >= 0, so sup J = J(inf) <= `j_sup`, J + A e^{-rho} +
    tau_2 at rho_e; for d < 0 it changes sign at r* = log(2H / |d|), so
    sup J = J(max(neck, r*)).

    |f - f_asymptote| falls from neck + 1 on (`g_residual_decays`).  With X =
    (q cosh rho - 2dH) / s, f - f_asymptote = kappa log(s (X + sqrt(X^2 - 1))
    / (q e^rho)), whose slope has the sign of (q sinh rho)^2 - s^2 (X^2 - 1)
    = q (4dH cosh rho + d^2 + 4H^2).  For d >= 0 that is positive: f -
    f_asymptote rises to its limit 0, and |.| falls everywhere.  For d < 0 it
    falls with rho: if 4|d|H cosh(neck + 1) >= d^2 + 4H^2, f - f_asymptote
    falls to 0 from neck + 1 on; else it rises, while positive, before its peak.
    """
    checks = []
    passed = True
    for H in H_values:
        for d in d_values:
            params = CmcParams(H, d)
            eta = params.eta
            heights = HeightTable(params)
            remainders = HeightTable(params, remainder=True)
            if d >= 0.0:
                far_h, far_r = heights.far_field(), remainders.far_field()
            else:
                heights.integral(eta + 10.0)
                remainders.integral(eta + 10.0)
            # both tables end at u_top: read it where u does not pass it, or they grow
            u_top = heights.breaks[-1]
            rho_top = eta + u_top * u_top
            while math.sqrt(rho_top - eta) > u_top:
                rho_top = math.nextafter(rho_top, 0.0)
            nodes = {mid + half * x for t in (heights, remainders) for mid, half, _, _ in t.pieces
                     for x in _CHEB_X}
            nodes = sorted(nodes.union(heights.breaks[1:], remainders.breaks[1:]))
            max_decomp = 0.0
            for u in nodes:
                rho = min(eta + u * u, rho_top)
                lam = lambda_height(params, rho, heights)
                jr = j_remainder(params, rho, remainders)
                max_decomp = max(max_decomp, abs(lam - (f_closed(params, rho) + jr)) / max(1.0, lam))
            if d >= 0.0:
                tail = abs(far_h.limit - far_r.limit) + far_h.error + far_r.error
                max_decomp = max(max_decomp, tail / max(1.0, heights.heights[-1]))
                sup_j = far_r.limit + far_r.error
            else:
                sup_j = j_remainder(params, max(eta, math.log(-2.0 * H / d)), remainders)
            g_decays = d >= 0.0 or -4.0 * d * H * math.cosh(eta + 1.0) >= d * d + 4.0 * H * H
            bound = remainder_bound(H)
            entry = {
                "H": H, "d": d,
                "decomposition_max_scaled_residual": max_decomp,
                "decomposition_ok": max_decomp <= 1e-8,
                "decomposition_nodes": len(nodes),
                "decomposition_rho_range": [eta, None if d >= 0.0 else rho_top],
                "j_sup": sup_j,
                "j_bound": bound,
                "j_bound_margin": bound - sup_j,
                "j_bound_ok": (sup_j < bound) if d > 2.0 else None,
                "stated_pi_bound_held": sup_j < 0.5 * bound,
                "g_residual_decays": g_decays,
            }
            if d > 2.0:
                entry["witness"] = asdict(j_bound_witness(params))
            checks.append(entry)
            passed &= entry["decomposition_ok"] and g_decays and entry["j_bound_ok"] is not False
    return {"passed": passed, "checks": checks}


class HeightTable:
    """Cumulative integral of one member's height (or remainder) integrand.

    The piece starting at u_lo in u = sqrt(rho - neck) spans
    [u_lo, u_lo + max(_PANEL_U, u_lo)]: [0, 1], [1, 2], [2, 4] and so on.
    The integrand's complex singularities lie about u away from the real
    axis, so one series resolves a piece as wide as its start (Trefethen,
    ATAP, Thm 8.1), and near the neck one series resolves [0, 1].  Each
    piece gets one
    `quad`: a Chebyshev series of the cumulative integral across it, and
    the series' tail.  A piece is kept whole when its tail is at most
    _TAIL_TOL * max(1, |piece total|), on no other test; otherwise it is
    halved, and each half tested the same way, down to _MAX_DEPTH
    halvings.  Near the family floor d = -2H this splits piece 0 toward
    u = 0, where the integrand turns on a scale of (d + 2H)^(1/4) (from
    about d = -0.3 at H = .25).

    `breaks` are the pieces' ends in u, and `pieces[i]` is the series of
    the piece holding [breaks[i], breaks[i + 1]].  Every height the table
    holds reads "start + series", the start being `heights[i]`, the
    height at breaks[i]: `heights[i + 1]` at the piece's end,
    `integral(rho)` inside it, and `radius(t)` and `radii(ts)` run Brent
    on it across the piece whose end heights bracket t, in v = u^2 =
    rho - neck.  The height is nearly linear in v over a piece, where in
    u it bends like u^2.  On the piece from the neck it grows like u
    instead, so Brent runs in u there, to within ROOT_TOL; in v, with a
    tolerance relative to v = 0, its steps could creep past the iteration
    limit.  The table grows lazily to the largest radius (`integral`) or
    height (`radius`, `radii`) asked for, at one piece per doubling of u;
    a piece whose total overflows is halved too.  A forward read whose height overflows, and
    a height that no finite radius reaches, are DomainErrors.

    Inverse reads.  `radii(ts)` takes a caller's whole grid and counts,
    per piece, the distinct |t| it asks that the table has not solved.  On
    a member with d >= 0, a piece away from the neck (u_lo = breaks[i] > 0)
    asked for more than _INVERSE_AFTER of them gets an inverse series
    before any Brent solve on it: u as a _CHEB_N-point Chebyshev series in
    t across [heights[i], heights[i + 1]], from Brent solves at the
    Chebyshev points in t, kept where its tail is at most ROOT_TOL and
    halved in t otherwise.  A read sums that series at t to u~.  Its
    residual on the forward series is r = heights[i] + series_i(u~) - t.
    For d >= 0, lambda' = N / sqrt(sinh^2 r - N^2) with N = d + 2H cosh r
    falls with r, since sinh r / N rises (its slope is (d cosh r + 2H) /
    N^2), toward 2H/sqrt(q).  So dt/du = 2u lambda' is at least 2 u_lo
    lambda'(rho_hi) across the piece, rho_hi being its end radius, and
    |u~ - u*| <= (|r| + 4 ulp(t)) / (2 u_lo lambda'(rho_hi)), the ulps
    covering the rounding of r; u* is the root of the forward series, the
    one Brent solves for.  The read is kept when that bound is at most
    ROOT_TOL, and solved by Brent otherwise.  That is the one rule for
    every radius the table returns, `radius(t)` being `radii` of the one
    height: a piece is fitted when one call asks it for more than
    _INVERSE_AFTER unsolved heights, and a height on a fitted piece is
    read where its bound certifies the read, Brent's otherwise.  A fitted
    series serves every later call, so heights asked one at a time never
    fit a series but do read one that an earlier call fitted.  Every
    height on the neck piece or on a member with d < 0 is Brent's.

    The far field.  For d >= 0 the remainder's tail is J(inf) - J(rho) =
    A e^{-rho} + R(rho), A = 2d / sqrt(q), and |R| <= tau_2(rho), a closed
    form that falls like e^{-2 rho} (`_tail_rest_bound`).  As the table
    grows it tests each panel's end for tau_2(rho) <= ROOT_TOL kappa u / 2,
    kappa = 2H / sqrt(q): R then moves u by at most ROOT_TOL / 4, since
    dt/du = 2u lambda' >= 2u kappa, and so does the error of J(inf), read at
    the panel's end as J + A e^{-rho} there.  The first panel that passes
    gives the table its `far` (`FarField`): J(inf), and rho_far, from which
    the test holds inside the panel, with t_far = f(rho_far) + J(inf) -
    A e^{-rho_far}.  Every member tried with H >= 1e-4 passes on u in
    [2, 4] or [4, 8], with rho_far - neck from 9.1 (H = .4999) to 17.3
    (H = 1e-4); t_far is 9.378 and 9.403 on the headline pair, d1 = 3 and
    d0.  Inversion never grows the table past that panel, and `radii`
    takes every |t| >= t_far in closed form: f(rho) - A e^{-rho} =
    t - J(inf), solved by acosh iterated on the small term (`_far_radius`).
    Only the heights below t_far are fitted, read or solved as above, and
    only they count toward a piece's _INVERSE_AFTER.  That holds whatever
    grew the table: a forward read may grow it past its far panel, but
    every piece past it lies above t_far and no inversion reads it.

    Every bound above is on u against the root for the float t.  The
    rounding of t alone moves the exact radius by up to ulp(t) / (2 u
    kappa) in u, which exceeds ROOT_TOL below H of about 1e-5: at t_far on
    d = 3 it is 1.3 ROOT_TOL at H = 1e-5 and 12.5 ROOT_TOL at H = 1e-6.

    Every radius is kept in `memo`, keyed by |t|, so asking again returns
    the stored bits.  A radius depends only on the pieces fitted before it
    was first asked, and `radii(ts)` on a fresh table only on the set of
    |t| in ts.  The table lives as long as its caller keeps it; nothing
    outlives one call of a command.
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
        self.memo: dict[float, float] = {}
        # per piece: its inverse series once fitted; () where none will be
        # (the piece from the neck, a member with d < 0, or a piece where no
        # read could be certified)
        self.inverses: list[tuple | None] = []
        # the far field, once a panel reaches it (members with d >= 0)
        self.far: FarField | None = None

    def _add_panel(self) -> None:
        u_lo = self.breaks[-1]
        u_hi = u_lo + max(_PANEL_U, u_lo)
        self._add_piece(u_lo, u_hi, 0)
        if self.far is None and self.params.d >= 0.0:
            self.far = self._far_at(u_lo, u_hi)

    def _far_at(self, u_lo: float, u_hi: float) -> FarField | None:
        """The far field, if the panel [u_lo, u_hi] just added is the first
        whose end passes the tail test tau_2(rho) <= ROOT_TOL kappa u / 2
        and lies where `_far_radius` settles.

        The closed form's height is off by at most |R(rho)| + |R(rho_e)|: the
        tail's rest at the radius, and in the estimate of J(inf), rho_e being
        the panel's end.  Each gets half of ROOT_TOL kappa u, which moves u
        by ROOT_TOL / 4 since dt/du = 2u lambda' >= 2u kappa; tau_2 falls
        with rho, so the test at rho <= rho_e covers both.  Inside the panel,
        u >= u_lo and tau_2(rho) <= tau_2(rho_lo) e^{2 (rho_lo - rho)}, so the
        test holds from rho_lo + log(tau_2(rho_lo) / (ROOT_TOL kappa u_lo /
        2)) / 2 on, rho_lo being the panel's start; where that bound is
        infinite or the budget 0, from the panel's end.  `_far_radius`'s
        iteration contracts by at most A e^{-rho} / kappa = d e^{-rho} / H,
        at most 1/4 from log(4d / H) on.  That binds only where H is below
        about 1e-11: at d = 3 the contraction at rho_far is 1.5e-6 at H =
        .25, 1.5e-4 at H = 1e-4 and 0.048 at H = 1e-9.  rho_far is the
        larger radius, or the panel's end if that is less."""
        params = self.params
        eta, d, H = params.eta, params.d, params.H
        budget = 0.5 * ROOT_TOL * params.kappa
        rho_hi = eta + u_hi * u_hi
        tail_hi = _tail_rest_bound(params, rho_hi)
        settled = math.log(4.0 * d) - math.log(H) if d > 0.0 else -math.inf
        if not (tail_hi <= budget * u_hi and settled <= rho_hi):
            return None
        rho_lo = eta + u_lo * u_lo
        bound_lo = budget * u_lo
        ratio = _tail_rest_bound(params, rho_lo) / bound_lo if bound_lo > 0.0 else math.inf
        rho = min(max(rho_lo + 0.5 * math.log(max(ratio, 1.0)), settled), rho_hi)
        lead = 2.0 * d / math.sqrt(params.q)
        limit = self.heights[-1] + lead * math.exp(-rho_hi)
        if not self.remainder:
            limit -= f_closed(params, rho_hi)
        t = limit - lead * math.exp(-rho)
        if not self.remainder:
            # at most the panel's end height, so the table holds every
            # height below t_far (the closed form meets it at rho_hi)
            t = min(t + f_closed(params, rho), self.heights[-1])
        return FarField(rho, t, limit, tail_hi, lead)

    def far_field(self) -> FarField:
        """The table's far field, growing the table to the panel that holds
        rho_far; for a member with d >= 0."""
        if self.params.d < 0.0:
            raise PreconditionError("the far field needs d >= 0")
        while self.far is None:
            self._add_panel()
        return self.far

    def _add_piece(self, u_lo: float, u_hi: float, depth: int) -> None:
        params, remainder = self.params, self.remainder
        series, tail = quad(lambda u: _substituted(params, u, remainder), u_lo, u_hi)
        total = _series_at(series, u_hi)
        if tail <= _TAIL_TOL * max(1.0, abs(total)) < math.inf:
            self.breaks.append(u_hi)
            self.heights.append(self.heights[-1] + total)
            self.pieces.append(series)
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
        """Radius of the profile at height t (even in t): `radii` of the one
        height, so the stored radius of |t|, the far field's from t_far on,
        a certified read where its piece has an inverse series, or Brent's.
        One height never fits a series."""
        return self.radii((t,))[0]

    def radii(self, ts: list[float]) -> list[float]:
        """Radii of the profile at the heights ts, in any order, with any
        sign and with repeats: the table's one inversion path.  Every |t|
        from t_far on is the far field's closed form.  Below it, a piece
        asked for more than _INVERSE_AFTER distinct unsolved |t| is fitted
        first; a height on a fitted piece is read where its read is
        certified, and every other height is Brent's.  The table grows
        once, past the largest |t| or to the panel that holds rho_far."""
        if not self.invertible:
            raise PreconditionError("profile inversion needs a height table with d > -2H")
        memo, eta = self.memo, self.params.eta
        todo = {abs(t) for t in ts}.difference(memo)
        if not all(map(math.isfinite, todo)):
            bad = next(t for t in ts if not math.isfinite(t))
            raise DomainError(f"height must be finite, got {bad}")
        todo = sorted(todo)
        if todo and todo[0] == 0.0:
            memo[todo.pop(0)] = eta
        if todo:
            self._grow_past(todo[-1])
        # heights from t_far on are the far field's, in closed form
        k = bisect_left(todo, self._far_start())
        for t in todo[k:]:
            memo[t] = self._far_radius(t)
        del todo[k:]
        heights, inverses = self.heights, self.inverses
        j = 0
        while j < len(todo):
            # todo[j:k] are the heights on piece i, the ones it is asked for
            i = self._piece(todo[j])
            k = bisect_left(todo, heights[i + 1], j)
            if inverses[i] is None and k - j > _INVERSE_AFTER:
                inverses[i] = self._invert(i)
            inverse = inverses[i]
            for t in todo[j:k]:
                u = self._read_inverse(i, inverse, t) if inverse else None
                memo[t] = self._brent(i, t) if u is None else eta + u * u
            j = k
        return [memo[abs(t)] for t in ts]

    def _grow_past(self, t: float) -> None:
        # grow past t, so that the piece holding t has an end above it, as
        # far as the float range allows, or until t lies in the far field
        heights, breaks = self.heights, self.breaks
        while heights[-1] <= t < self._far_start() and breaks[-1] * breaks[-1] < math.inf:
            self._add_panel()

    def _far_start(self) -> float:
        """t_far, from which every height is the far field's; inf where
        there is none (a member with d < 0, or a table not yet grown to its
        far panel)."""
        far = self.far
        return far.t if far is not None else math.inf

    def _far_radius(self, t: float) -> float:
        """The radius at a height t >= t_far, where t = f(rho) + J(inf) -
        A e^{-rho} to within ROOT_TOL / 2 in u.  f inverts in closed form:
        rho = acosh((s cosh x + 2dH) / q) with x = y / kappa, and x + log(s /
        q) from x = _LARGE_R on, where cosh x would soon overflow and the two
        agree to rounding.  Starting from y = t - J(inf), each step takes
        y = t - J(inf) + A e^{-rho} at the last rho, rho taken no nearer
        than rho_far, since the root lies past it.  There the map falls with
        rho and contracts by at most A e^{-rho} / kappa (1.5e-6 at rho_far
        on the headline pair, and at most 1/4; see `_far_at`), so its
        iterates close in on the root from both sides; they stop as soon as
        a y repeats, which is as soon as a radius does."""
        params, far = self.params, self.far
        s, q, dh, kappa = params.s, params.q, 2.0 * params.d * params.H, params.kappa
        base = t - far.limit
        y = older = base
        for _ in range(_MAXITER):
            x = y / kappa
            rho = x + math.log(s / q) if x >= _LARGE_R else math.acosh((s * math.cosh(x) + dh) / q)
            if not rho < math.inf:
                raise DomainError(f"no finite radius reaches height t = {t}")
            # the root lies past rho_far, where the map contracts
            rho = max(rho, far.rho)
            y_next = base + far.lead * math.exp(-rho)
            if y_next == y or y_next == older:
                return rho
            older, y = y, y_next
        raise ConvergenceError(f"the far field's radius at height t = {t} did not settle in "
                               f"{_MAXITER} steps")

    def _piece(self, t: float) -> int:
        """The piece holding height t, in a table grown past t."""
        i = bisect_right(self.heights, t) - 1
        if i == len(self.pieces):
            raise DomainError(f"no finite radius reaches height t = {t}")
        return i

    def _brent(self, i: int, t: float) -> float:
        """Brent's radius at height t > 0 on piece i, the piece holding t."""
        heights, breaks, eta = self.heights, self.breaks, self.params.eta
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
        us = [math.sqrt(self._brent(i, mid + half * x) - eta) for x in _CHEB_X]
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
            "samples": Table({"rho": [s.rho for s in self.samples],
                              "t": [s.t for s in self.samples]}),
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
