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
decomposition) is read from a `HeightTable`: fixed panels in u, each
with one adaptive Gauss-Kronrod total and a Chebyshev series of the
cumulative integral across it.  Forward reads evaluate that series;
profile inversion runs Brent on it.  The quadrature (QUADPACK's QAGS)
and Brent's root finder are the package's own, in `hcat.numerics`.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from operator import mul

from .errors import ConvergenceError, DomainError, PreconditionError
from .numerics import brentq, quad

#: default absolute quadrature tolerance
QUAD_TOL = 1e-10
#: root-finding tolerance (in the substituted variable u = sqrt(rho - neck))
ROOT_TOL = 1e-12
#: cap on the radius reached by profile inversion
RHO_MAX_DEFAULT = 1e4
# panel width of the height table, in u = sqrt(rho - neck)
_PANEL_U = 0.25
# relative tolerance of every quad call
_QUAD_REL = 1e-12
# Chebyshev points sampled on each piece of a panel
_CHEB_N = 24
# a piece is kept when its last two Chebyshev coefficients times its
# half-width are at most this, times max(1, |piece total|): round-off alone
# leaves ~1e-15 of the total there once the integrand grows like u
_TAIL_TOL = 1e-13
# halvings of a panel before its series is given up
_MAX_DEPTH = 40

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


def _integrate_substituted(
    params: CmcParams, u_lo: float, u_hi: float, remainder: bool, tol: float
) -> float:
    val, _ = quad(
        lambda u: _substituted(params, u, remainder),
        u_lo,
        u_hi,
        epsabs=tol,
        epsrel=_QUAD_REL,
        limit=200,
    )
    return val


def _chebyshev_piece(
    params: CmcParams, u_lo: float, u_hi: float, remainder: bool
) -> tuple[float, float, tuple]:
    """(series total, tail, series) of the integral across [u_lo, u_hi].

    The substituted integrand is sampled at _CHEB_N Chebyshev points and
    its series integrated term by term from u_lo; the series is
    (mid, half-width, C_0, (C_N, ..., C_1)) for `_series_at`.  The tail
    is the last two coefficients of the integrand times the half-width.
    """
    mid, half = 0.5 * (u_lo + u_hi), 0.5 * (u_hi - u_lo)
    f = [_substituted(params, mid + half * x, remainder) for x in _CHEB_X]
    a = [sum(map(mul, row, f)) for row in _CHEB_DCT] + [0.0, 0.0]
    # integral of sum' a_k T_k: C_k = (a_{k-1} - a_{k+1}) / 2k, C_0 from C(-1) = 0
    c = [half * (a[k - 1] - a[k + 1]) / (2 * k) for k in range(1, _CHEB_N + 1)]
    c0 = sum(ck if k % 2 else -ck for k, ck in enumerate(c, 1))
    tail = (abs(a[_CHEB_N - 1]) + abs(a[_CHEB_N - 2])) * half
    return c0 + sum(c), tail, (mid, half, c0, tuple(reversed(c)))


def _series_at(series: tuple, u: float) -> float:
    # Clenshaw's recurrence for sum C_k T_k(x) at x = (u - mid) / half
    mid, half, c0, rev = series
    x = (u - mid) / half
    x2 = x + x
    b1 = b2 = 0.0
    for ck in rev:
        b1, b2 = ck + x2 * b1 - b2, b1
    return c0 + x * b1 - b2


def _table_read(params: CmcParams, rho: float, tol: float, table, remainder: bool) -> float:
    if table is None:
        table = HeightTable(params, tol, remainder)
    elif (table.params, table.quad_tol, table.remainder) != (params, tol, remainder):
        raise PreconditionError("the table belongs to another member, tolerance or integrand")
    return table.integral(rho)


def lambda_height(
    params: CmcParams, rho: float, tol: float = QUAD_TOL, table: HeightTable | None = None
) -> float:
    """Height of the generating curve at radius rho (0 at the neck).

    Read from `table`, a HeightTable(params, tol) that the caller keeps
    across reads.  Without one, a table is built for this read alone: one
    `quad` and _CHEB_N samples for every panel below rho (about 20 ms at
    rho = 1e4), so a caller reading many radii should keep a table.
    """
    return _table_read(params, rho, tol, table, remainder=False)


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


def j_remainder(
    params: CmcParams, rho: float, tol: float = QUAD_TOL, table: HeightTable | None = None
) -> float:
    """Remainder integral of the height decomposition (numerator d + 2H e^{-r}).

    Read from `table`, a HeightTable(params, tol, remainder=True), or from
    one built for this read alone, at the cost given in `lambda_height`.
    """
    return _table_read(params, rho, tol, table, remainder=True)


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
    quad_tol: float = QUAD_TOL,
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
            heights = HeightTable(params, quad_tol)
            remainders = HeightTable(params, quad_tol, remainder=True)
            max_decomp = 0.0
            max_deriv = 0.0
            sup_j = 0.0
            prev_g = None
            g_decays = True
            for i in range(grid_points):
                rho = eta + 1e-6 + (10.0 - 1e-6) * i / (grid_points - 1)
                lam = lambda_height(params, rho, quad_tol, heights)
                fc = f_closed(params, rho)
                jr = j_remainder(params, rho, quad_tol, remainders)
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

    Panels in u = sqrt(rho - neck) have the fixed breakpoints
    k * _PANEL_U, where the integrand is smooth.  Each panel gets one
    `quad` total and a Chebyshev series of the cumulative integral
    across it (`_chebyshev_piece`).  A panel is kept whole when the
    series' tail is small and its total agrees with `quad`'s; otherwise
    it is halved, and each half tested the same way, down to _MAX_DEPTH
    halvings.  Near the family floor d = -2H this splits panel 0 toward
    u = 0, where the integrand turns on a scale of (d + 2H)^(1/4).

    `breaks` are the pieces' ends in u and `heights` the integral there,
    the running sum of the pieces' `quad` totals.  The table grows
    lazily to the largest radius (`integral`) or height (`radius`) asked
    for; inversion stops at RHO_MAX_DEFAULT (u_cap in u), and past u_cap
    each panel is as wide as the u it starts at, where the integrand is
    2u times a constant to round-off, so far reads cost a few panels per
    doubling of u.  Inside a piece both read its
    series: `integral(rho)` evaluates it, and `radius(t)` runs Brent on
    it within the piece whose heights bracket t.  Every solved radius is
    kept in `radii`, keyed by |t|, so asking again returns the stored
    bits.  The table lives as long as its caller keeps it; nothing
    outlives one call of a command.
    """

    def __init__(self, params: CmcParams, quad_tol: float, remainder: bool = False):
        if remainder and params.is_entire_graph:
            raise PreconditionError("remainder decomposition needs d > -2H")
        self.params = params
        self.quad_tol = quad_tol
        self.remainder = remainder
        self.u_cap = math.sqrt(max(RHO_MAX_DEFAULT - params.eta, 0.0))
        self.breaks = [0.0]
        self.heights = [0.0]
        self.pieces: list[tuple] = []
        self.radii: dict[float, float] = {}

    def _add_panel(self) -> None:
        u_lo = self.breaks[-1]
        self._add_piece(u_lo, u_lo + (_PANEL_U if u_lo < self.u_cap else u_lo), 0)

    def _add_piece(self, u_lo: float, u_hi: float, depth: int) -> None:
        params, remainder, tol = self.params, self.remainder, self.quad_tol
        total = _integrate_substituted(params, u_lo, u_hi, remainder, tol)
        series_total, tail, series = _chebyshev_piece(params, u_lo, u_hi, remainder)
        if (tail <= _TAIL_TOL * max(1.0, abs(total))
                and abs(series_total - total) <= max(tol, _QUAD_REL * abs(total))):
            self.breaks.append(u_hi)
            self.heights.append(self.heights[-1] + total)
            self.pieces.append(series)
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
        if self.breaks[i] == u:
            return self.heights[i]
        return self.heights[i] + _series_at(self.pieces[i], u)

    def radius(self, t: float) -> float:
        """Radius of the profile at height t (even in t)."""
        if self.remainder or self.params.is_entire_graph:
            raise PreconditionError("profile inversion needs a height table with d > -2H")
        t = abs(t)
        if t not in self.radii:
            self.radii[t] = self._solve(t)
        return self.radii[t]

    def _solve(self, t: float) -> float:
        if not math.isfinite(t):
            raise DomainError(f"height must be finite, got {t}")
        if t == 0.0:
            return self.params.eta
        heights = self.heights
        while heights[-1] < t:
            if self.breaks[-1] >= self.u_cap:
                raise ConvergenceError(f"no bracket below rho_max = {RHO_MAX_DEFAULT}")
            self._add_panel()
        i = bisect_right(heights, t) - 1
        lo = self.breaks[i]
        if heights[i] == t:
            u = lo
        else:
            hi, start, end, series = self.breaks[i + 1], heights[i], heights[i + 1], self.pieces[i]

            def excess(u: float) -> float:
                # the piece's ends are tabulated, so Brent's bracket holds exactly
                if u == lo:
                    return start - t
                if u == hi:
                    return end - t
                return start + _series_at(series, u) - t

            u = brentq(excess, lo, hi, xtol=ROOT_TOL, rtol=4.0 * math.ulp(1.0))
        if u > self.u_cap:
            raise ConvergenceError(f"no bracket below rho_max = {RHO_MAX_DEFAULT}")
        return self.params.eta + u * u


def b_inverse(params: CmcParams, t: float) -> float:
    """Radius of the profile at height t (even in t), from a one-off HeightTable."""
    return HeightTable(params, QUAD_TOL).radius(t)


@dataclass(frozen=True)
class ProfileSample:
    rho: float
    t: float


@dataclass(frozen=True)
class ProfileCurve:
    """Sampled generating curve with strictly increasing rho and t."""

    params: CmcParams
    samples: tuple[ProfileSample, ...]
    quad_tol: float = QUAD_TOL

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
            "quad_tol": self.quad_tol,
            "samples": [{"rho": s.rho, "t": s.t} for s in self.samples],
        }


def _graded_rhos(eta: float, rho_max: float, n: int) -> list[float]:
    # uniform in sqrt(rho - eta): matches the singularity-removing substitution
    span = math.sqrt(rho_max - eta)
    return [eta + (span * i / (n - 1)) ** 2 for i in range(n)]


def profile(
    params: CmcParams, rho_max: float, n: int, tol: float = QUAD_TOL
) -> ProfileCurve:
    """Sample the generating curve on a neck-graded grid up to rho_max."""
    eta = params.eta
    if not eta < rho_max < math.inf:
        raise PreconditionError(f"rho_max must be finite and exceed the neck radius {eta}")
    if n < 2:
        raise PreconditionError("n must be >= 2")
    table = HeightTable(params, tol)
    samples = [ProfileSample(eta, 0.0)]
    for rho in _graded_rhos(eta, rho_max, n)[1:]:
        samples.append(ProfileSample(rho, lambda_height(params, rho, tol, table)))
    return ProfileCurve(params=params, samples=tuple(samples), quad_tol=tol)


def entire_graph_profile(
    H: float, rho_max: float, n: int, tol: float = QUAD_TOL
) -> ProfileCurve:
    """Profile of the d = -2H member, a graph over the whole plane from rho = 0."""
    params = CmcParams(H, -2.0 * H)
    return profile(params, rho_max, n, tol)
