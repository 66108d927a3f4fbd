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
the substitution r = neck + u^2 before quadrature; in the u variable the
integrand is smooth, so plain adaptive Gauss-Kronrod recovers full
accuracy.
"""

from __future__ import annotations

import io
import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field

from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError, PreconditionError

#: default absolute quadrature tolerance
QUAD_TOL = 1e-10
#: default root-finding tolerance (in the substituted variable u = sqrt(rho - neck))
ROOT_TOL = 1e-12
#: default cap on the radius reached by profile inversion
RHO_MAX_DEFAULT = 1e4
# panel width of the inversion's height table, in u = sqrt(rho - neck)
_PANEL_U = 0.25

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
        q = 1.0 - 4.0 * H * H
        s = math.sqrt(q + d * d)
        # cosh(eta) = alpha, through acosh(1 + y) with the cancellation-free
        # rearrangement y = (d + 2H)^2 / (s + 1 - 4H^2 - 2dH)
        w = d + 2.0 * H
        eta = _stable_acosh1p(w * w / (s + q - 2.0 * d * H))
        if not math.isfinite(eta):
            # d is NaN, infinite, or so large (~1e154) that d^2 overflows
            raise PreconditionError(f"d must be finite with a finite neck radius, got {d}")
        for name, value in (
            ("q", q),
            ("s", s),
            ("alpha", (2.0 * d * H + s) / q),
            ("beta", (2.0 * d * H - s) / q),
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
    if u_hi == u_lo:
        return 0.0
    val, _ = quad(
        lambda u: _substituted(params, u, remainder),
        u_lo,
        u_hi,
        epsabs=tol,
        epsrel=1e-12,
        limit=200,
    )
    return val


def lambda_height(params: CmcParams, rho: float, tol: float = QUAD_TOL) -> float:
    """Height of the generating curve at radius rho (0 at the neck)."""
    eta = params.eta
    if rho < eta:
        raise DomainError(f"rho must be >= neck = {eta}, got {rho}")
    return _integrate_substituted(params, 0.0, math.sqrt(rho - eta), False, tol)


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


def j_remainder(params: CmcParams, rho: float, tol: float = QUAD_TOL) -> float:
    """Remainder integral of the height decomposition (numerator d + 2H e^{-r})."""
    if params.is_entire_graph:
        raise PreconditionError("remainder decomposition needs d > -2H")
    eta = params.eta
    if rho < eta:
        raise DomainError(f"rho must be >= neck = {eta}, got {rho}")
    return _integrate_substituted(params, 0.0, math.sqrt(rho - eta), True, tol)


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
            max_decomp = 0.0
            max_deriv = 0.0
            sup_j = 0.0
            prev_g = None
            g_decays = True
            for i in range(grid_points):
                rho = eta + 1e-6 + (10.0 - 1e-6) * i / (grid_points - 1)
                lam = lambda_height(params, rho, quad_tol)
                fc = f_closed(params, rho)
                jr = j_remainder(params, rho, quad_tol)
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
    """Cumulative profile height of one member on fixed panels in u.

    The breakpoints are u_k = k * _PANEL_U in u = sqrt(rho - neck), where
    the height integrand is smooth; heights[k] is the height at u_k, the
    sum of one `quad` per panel.  The table grows lazily to the largest
    height asked for.  A height t is inverted by locating the panel whose
    heights bracket t and running Brent inside that panel only, on
    heights[k] + integral from u_k to u.  The table lives as long as the
    caller keeps it; nothing is cached across calls.
    """

    def __init__(
        self,
        params: CmcParams,
        quad_tol: float = QUAD_TOL,
        tol: float = ROOT_TOL,
        rho_max: float = RHO_MAX_DEFAULT,
    ):
        if params.is_entire_graph:
            raise PreconditionError("profile inversion needs d > -2H")
        self.params = params
        self.quad_tol = quad_tol
        self.tol = tol
        self.rho_max = rho_max
        self.u_cap = math.sqrt(max(rho_max - params.eta, 0.0))
        self.heights = [0.0]

    def _height_from(self, k: int, u: float) -> float:
        # height at u, for u in panel k
        return self.heights[k] + _integrate_substituted(
            self.params, k * _PANEL_U, u, False, self.quad_tol
        )

    def _grow_to(self, t: float) -> None:
        heights = self.heights
        while heights[-1] < t:
            k = len(heights) - 1
            if k * _PANEL_U >= self.u_cap:
                raise ConvergenceError(f"no bracket below rho_max = {self.rho_max}")
            heights.append(self._height_from(k, (k + 1) * _PANEL_U))

    def radius(self, t: float) -> float:
        """Radius of the profile at height t (even in t)."""
        t = abs(t)
        if not math.isfinite(t):
            raise DomainError(f"height must be finite, got {t}")
        if t == 0.0:
            return self.params.eta
        self._grow_to(t)
        k = bisect_right(self.heights, t) - 1
        lo, hi = k * _PANEL_U, (k + 1) * _PANEL_U
        if self.heights[k] == t:
            u = lo
        else:
            def excess(u: float) -> float:
                # the panel's end is tabulated: integrating it again gives the same bits
                return (self.heights[k + 1] if u == hi else self._height_from(k, u)) - t

            u = brentq(excess, lo, hi, xtol=self.tol, rtol=4.0 * math.ulp(1.0))
        if u > self.u_cap:
            raise ConvergenceError(f"no bracket below rho_max = {self.rho_max}")
        return self.params.eta + u * u

    def grid(self, ts: list[float]) -> dict[float, float]:
        """Radii {|t|: b_d(t)} for every distinct |t| in `ts`, keys increasing."""
        return {t: self.radius(t) for t in sorted({abs(t) for t in ts})}


def b_inverse(
    params: CmcParams,
    t: float,
    tol: float = ROOT_TOL,
    rho_max: float = RHO_MAX_DEFAULT,
    quad_tol: float = QUAD_TOL,
) -> float:
    """Radius of the profile at height t (even in t), from a one-off HeightTable."""
    return HeightTable(params, quad_tol=quad_tol, tol=tol, rho_max=rho_max).radius(t)


def b_grid(params: CmcParams, ts: list[float], quad_tol: float) -> dict[float, float]:
    """Profile radii {|t|: b_d(t)} for every distinct |t| in `ts`, from one
    HeightTable; each radius equals b_inverse(params, t) bit for bit."""
    return HeightTable(params, quad_tol).grid(ts)


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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


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
    samples = [ProfileSample(eta, 0.0)]
    for rho in _graded_rhos(eta, rho_max, n)[1:]:
        samples.append(ProfileSample(rho, lambda_height(params, rho, tol)))
    return ProfileCurve(params=params, samples=tuple(samples), quad_tol=tol)


def entire_graph_profile(
    H: float, rho_max: float, n: int, tol: float = QUAD_TOL
) -> ProfileCurve:
    """Profile of the d = -2H member, a graph over the whole plane from rho = 0."""
    params = CmcParams(H, -2.0 * H)
    return profile(params, rho_max, n, tol)
