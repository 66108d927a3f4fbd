"""Profile-curve numerics: necksize, height quadrature, decomposition,
inversion.  Frozen constants come from 40-digit mpmath evaluations of the
closed forms; integrals are cross-checked by an independent Gauss-Jacobi
quadrature of the raw singular integrand."""

import contextlib
import math
import sys

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.special import roots_jacobi

from hcat.core import (
    _LARGE_R,
    _RTOL,
    ROOT_TOL,
    CmcParams,
    HeightTable,
    ProfileCurve,
    ProfileSample,
    b_inverse,
    entire_graph_profile,
    f_asymptote,
    f_closed,
    integrand,
    j_bound_witness,
    j_remainder,
    lambda_height,
    necksize,
    profile,
    verify_appendix,
    _series_at,
    _substituted,
    _tail_rest_bound,
)
from hcat.disjoint import solve_d0
from hcat.errors import ConvergenceError, DomainError, PreconditionError

# acosh((2dH + sqrt(1-4H^2+d^2)) / (1-4H^2)) at H = 0.25, d = 2, 40 digits
NECK_H25_D2 = 2.12332671310460198891336
# closed-form residual at the neck for the same parameters:
# -(2H/sqrt(1-4H^2)) (neck + ln((1-4H^2)/sqrt(d^2+1-4H^2)))
G_AT_NECK_H25_D2 = -0.6100123200846290089334066
# absolute bound on a table's height against the 40-digit oracles
ORACLE_TOL = 1e-10


def _mp_eta(H, d):
    mp.mp.dps = 40
    q = 1 - 4 * mp.mpf(H) ** 2
    return mp.acosh((2 * mp.mpf(d) * H + mp.sqrt(q + mp.mpf(d) ** 2)) / q)


def _mp_lambda(H, d, rho):
    """High-precision height via the singularity-removing substitution."""
    mp.mp.dps = 40
    H, d = mp.mpf(H), mp.mpf(d)
    eta = _mp_eta(H, d)

    def sub(u):
        r = eta + u * u
        num = d + 2 * H * mp.cosh(r)
        # near u = 0 the radicand can round to a tiny negative at 40
        # digits; its square root's phantom imaginary part is ~1e-20
        rad = abs(mp.sinh(r) ** 2 - num**2)
        return 2 * u * num / mp.sqrt(rad) if u > 0 else mp.mpf(0)

    return float(mp.re(mp.quad(sub, [0, mp.sqrt(mp.mpf(rho) - eta)])))


def _mp_lambda_split(H, d, rho, remainder=False):
    """High-precision height (or remainder integral, numerator d + 2H e^{-r})
    in the factored form, u-interval split in four.

    cosh r - cosh(neck) = 2 sinh((r + neck)/2) sinh(u^2/2) cancels the
    endpoint singularity exactly, so no radicand is formed by subtraction.
    """
    mp.mp.dps = 40
    H, d = mp.mpf(H), mp.mpf(d)
    q = 1 - 4 * H * H
    beta = (2 * d * H - mp.sqrt(q + d * d)) / q
    eta = _mp_eta(H, d)

    def sub(u):
        r = eta + u * u
        half = u * u / 2
        sinhc = mp.sinh(half) / half if half else mp.mpf(1)
        rad = q * mp.sinh((r + eta) / 2) * sinhc * (mp.cosh(r) - beta)
        num = d + 2 * H * (mp.exp(-r) if remainder else mp.cosh(r))
        return 2 * num / mp.sqrt(rad)

    return float(mp.quad(sub, mp.linspace(0, mp.sqrt(mp.mpf(rho) - eta), 5)))


# the threshold member d0(H, d1) (d0 ~ 71 463.5) at the radius its hinted
# scan reaches for t = 25.65: QUADPACK's QAGS accepts one 21-point
# Gauss-Kronrod panel from the neck there whose true error is 7.06e-10
DEFECT_H, DEFECT_D1 = 0.24820734518035178, 2.9255529619311083
DEFECT_RHO = 54.475816978215796


def _gauss_jacobi_lambda(H, d, rho, n=140):
    """Independent quadrature of the raw integrand: Gauss-Jacobi nodes with
    the (1+x)^(-1/2) endpoint weight absorb the inverse-sqrt singularity."""
    mp.mp.dps = 40
    Hm, dm = mp.mpf(H), mp.mpf(d)
    eta = _mp_eta(H, d)
    half = (mp.mpf(rho) - eta) / 2
    nodes, weights = roots_jacobi(n, 0.0, -0.5)
    total = mp.mpf(0)
    for x, w in zip(nodes, weights):
        r = eta + half * (1 + mp.mpf(x))
        num = dm + 2 * Hm * mp.cosh(r)
        rad = mp.sinh(r) ** 2 - num**2
        # the smooth factor left after pulling the 1/sqrt(1+x) weight out
        total += mp.mpf(w) * num * mp.sqrt(r - eta) / mp.sqrt(rad)
    return float(mp.sqrt(half) * total)


class TestParams:
    def test_h_range_enforced(self):
        for H in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(PreconditionError):
                CmcParams(H, 1.0)

    def test_d_floor_enforced(self):
        with pytest.raises(PreconditionError):
            CmcParams(0.25, -0.6)

    def test_entire_graph_flag(self):
        assert CmcParams(0.25, -0.5).is_entire_graph
        assert not CmcParams(0.25, 0.0).is_entire_graph

    def test_q(self):
        assert CmcParams(0.25, 1.0).q == pytest.approx(0.75)


class TestNecksize:
    def test_frozen_value(self):
        assert necksize(CmcParams(0.25, 2.0)) == pytest.approx(
            NECK_H25_D2, abs=1e-14
        )

    def test_exactly_zero_at_family_floor(self):
        for H in (0.1, 0.25, 0.3, 0.49, 1e-6):
            assert necksize(CmcParams(H, -2.0 * H)) == 0.0

    def test_strictly_increasing_in_d(self):
        vals = [necksize(CmcParams(0.25, -0.5 + 0.5 * k)) for k in range(30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("H", [0.499, 0.4999, 0.49999])
    @pytest.mark.parametrize("d", [-0.5, 0.0, 3.0, 1e6])
    def test_constants_near_h_one_half(self, H, d):
        # 1 - 4H^2 and s - 2dH both cancel as H -> 1/2; formed as differences
        # they were off by up to 8e-13 relative, and the neck by 4e-13
        mp.mp.dps = 40
        p = CmcParams(H, d)
        q = 1 - 4 * mp.mpf(H) ** 2
        s = mp.sqrt(q + mp.mpf(d) ** 2)
        want = {"q": q, "alpha": (2 * d * mp.mpf(H) + s) / q,
                "beta": (2 * d * mp.mpf(H) - s) / q, "eta": _mp_eta(H, d)}
        for name, value in want.items():
            assert getattr(p, name) == pytest.approx(float(value), rel=4 * 2.0**-52, abs=0.0)

    def test_against_naive_formula_where_safe(self):
        for H, d in [(0.1, 1.0), (0.25, 5.0), (0.4, 50.0)]:
            q = 1.0 - 4.0 * H * H
            naive = math.acosh((2 * d * H + math.sqrt(q + d * d)) / q)
            assert necksize(CmcParams(H, d)) == pytest.approx(naive, rel=1e-13)


class TestIntegrand:
    def test_rejects_at_or_below_neck(self):
        p = CmcParams(0.25, 2.0)
        eta = necksize(p)
        with pytest.raises(DomainError):
            integrand(p, eta)
        with pytest.raises(DomainError):
            integrand(p, 0.5 * eta)

    def test_inverse_sqrt_divergence_near_neck(self):
        p = CmcParams(0.25, 2.0)
        eta = necksize(p)
        v1 = integrand(p, eta + 1e-6)
        v2 = integrand(p, eta + 4e-6)
        # halves when the offset quadruples
        assert v1 / v2 == pytest.approx(2.0, rel=1e-3)

    def test_entire_graph_small_r_slope(self):
        # at d = -2H the derivative opens like H * r
        p = CmcParams(0.3, -0.6)
        r = 1e-4
        assert integrand(p, r) == pytest.approx(p.H * r, rel=1e-6)

    @pytest.mark.parametrize("remainder", [False, True])
    @pytest.mark.parametrize("H,d", [(0.25, 3.0), (0.1, 100.0), (0.4, 0.5)])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_substituted_across_large_r_switch(self, H, d, remainder, side):
        # both sides of _LARGE_R, for the height and the remainder numerator
        p = CmcParams(H, d)
        u = math.sqrt(_LARGE_R + side * 1e-9 - p.eta)
        r = p.eta + u * u
        assert (r >= _LARGE_R) == (side > 0)
        mp.mp.dps = 40
        rm, Hm = mp.mpf(r), mp.mpf(H)
        num = d + 2 * Hm * (mp.exp(-rm) if remainder else mp.cosh(rm))
        want = num / mp.sqrt(mp.sinh(rm) ** 2 - (d + 2 * Hm * mp.cosh(rm)) ** 2)
        got = _substituted(p, u, remainder) / (2.0 * u)
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_large_r_limit(self):
        # derivative tends to 2H / sqrt(1 - 4H^2)
        p = CmcParams(0.25, 2.0)
        lim = 2.0 * p.H / math.sqrt(p.q)
        assert integrand(p, 400.0) == pytest.approx(lim, rel=1e-12)
        assert integrand(p, 40.0) == pytest.approx(lim, rel=1e-12)


class TestHeightIntegral:
    def test_zero_at_neck(self):
        p = CmcParams(0.25, 2.0)
        assert lambda_height(p, necksize(p)) == 0.0

    def test_rejects_below_neck(self):
        p = CmcParams(0.25, 2.0)
        with pytest.raises(DomainError):
            lambda_height(p, 0.9 * necksize(p))

    def test_strictly_increasing(self):
        p = CmcParams(0.25, 2.0)
        eta = necksize(p)
        vals = [lambda_height(p, eta + 0.5 * k) for k in range(1, 8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "H,d,offset",
        [(0.25, 2.0, 1.0), (0.1, 5.0, 3.0), (0.4, 2.5, 0.3), (0.25, 100.0, 5.0)],
    )
    def test_matches_high_precision_substituted(self, H, d, offset):
        p = CmcParams(H, d)
        rho = necksize(p) + offset
        assert lambda_height(p, rho) == pytest.approx(
            _mp_lambda(H, d, rho), abs=1e-12, rel=1e-12
        )

    @pytest.mark.parametrize(
        "H,d,offset",
        [(0.25, 2.0, 1.0), (0.1, 5.0, 3.0), (0.4, 2.5, 0.3)],
    )
    def test_dual_quadrature_routes_agree(self, H, d, offset):
        # substituted Chebyshev series vs Gauss-Jacobi on the raw
        # singular integrand: two genuinely different treatments of the
        # endpoint must agree
        p = CmcParams(H, d)
        rho = necksize(p) + offset
        assert lambda_height(p, rho) == pytest.approx(
            _gauss_jacobi_lambda(H, d, rho), abs=1e-9
        )

    def test_entire_graph_small_rho_parabola(self):
        # height opens like H rho^2 / 2 at the family floor
        p = CmcParams(0.3, -0.6)
        rho = 1e-3
        assert lambda_height(p, rho) == pytest.approx(
            0.5 * p.H * rho * rho, rel=1e-5
        )


class TestDecomposition:
    def test_f_zero_at_neck(self):
        p = CmcParams(0.25, 2.0)
        assert f_closed(p, necksize(p)) == 0.0

    def test_f_matches_naive_closed_form(self):
        mp.mp.dps = 40
        for H, d, offset in [(0.25, 2.0, 1.0), (0.1, 5.0, 2.0), (0.4, 100.0, 4.0)]:
            p = CmcParams(H, d)
            rho = necksize(p) + offset
            q = 1 - 4 * mp.mpf(H) ** 2
            arg = (q * mp.cosh(rho) - 2 * d * mp.mpf(H)) / mp.sqrt(d * d + q)
            want = float(2 * mp.mpf(H) / mp.sqrt(q) * mp.acosh(arg))
            assert f_closed(p, rho) == pytest.approx(want, rel=1e-13)

    def test_f_large_rho_branch_continuous(self):
        p = CmcParams(0.25, 2.0)
        below, above = f_closed(p, 349.999), f_closed(p, 350.001)
        slope = 2.0 * p.H / math.sqrt(p.q)
        assert above - below == pytest.approx(0.002 * slope, rel=1e-6)

    def test_f_rejects_entire_graph(self):
        with pytest.raises(PreconditionError):
            f_closed(CmcParams(0.25, -0.5), 1.0)

    def test_residual_frozen_value_at_neck(self):
        p = CmcParams(0.25, 2.0)
        eta = necksize(p)
        assert f_closed(p, eta) - f_asymptote(p, eta) == pytest.approx(
            G_AT_NECK_H25_D2, abs=1e-14
        )

    def test_residual_decays_to_zero(self):
        p = CmcParams(0.25, 2.0)
        rhos = [necksize(p) + 2.0**k for k in range(6)]
        vals = [abs(f_closed(p, rho) - f_asymptote(p, rho)) for rho in rhos]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-12

    def test_asymptote_is_affine(self):
        p = CmcParams(0.25, 2.0)
        slope = 2.0 * p.H / math.sqrt(p.q)
        assert f_asymptote(p, 7.0) - f_asymptote(p, 3.0) == pytest.approx(
            4.0 * slope, rel=1e-14
        )

    def test_remainder_zero_at_neck_and_positive_after(self):
        p = CmcParams(0.25, 2.5)
        eta = necksize(p)
        assert j_remainder(p, eta) == 0.0
        assert j_remainder(p, eta + 2.0) > 0.0

    @pytest.mark.parametrize("H,d", [(0.25, 2.5), (0.1, 10.0), (0.4, 3.0)])
    def test_identity_height_equals_f_plus_j(self, H, d):
        p = CmcParams(H, d)
        eta = necksize(p)
        for offset in (1e-6, 0.5, 3.0, 9.0):
            rho = eta + offset
            lam = lambda_height(p, rho)
            assert lam - (f_closed(p, rho) + j_remainder(p, rho)) == pytest.approx(
                0.0, abs=1e-8 * max(1.0, lam)
            )

    def test_bound_witness_fields(self):
        p = CmcParams(0.25, 3.0)
        w = j_bound_witness(p)
        assert w.alpha == pytest.approx(math.cosh(necksize(p)), rel=1e-13)
        assert w.beta < 0.0
        # the root gap that drives the bound: 2(alpha - 1) > d / (1 - 2H)
        assert 2.0 * w.omega > p.d / (1.0 - 2.0 * p.H)
        assert w.bound == pytest.approx(2.0 * math.pi * math.sqrt(0.5), rel=1e-15)

    def test_bound_witness_requires_d_above_2(self):
        with pytest.raises(PreconditionError):
            j_bound_witness(CmcParams(0.25, 2.0))

    def test_remainder_below_bound_on_a_sweep(self):
        for d in (2.5, 3.0, 10.0, 100.0):
            p = CmcParams(0.25, d)
            bound = j_bound_witness(p).bound
            eta = necksize(p)
            assert all(
                j_remainder(p, eta + x) < bound for x in (0.5, 2.0, 10.0, 40.0)
            )


def _appendix_sweep(H, d, grid_points=800):
    """The appendix checks as `verify_appendix` made them on `grid_points`
    radii from the neck to 10 beyond it: (largest scaled residual of
    height = f + J, largest J, whether |f - f_asymptote| never rose by more
    than 1e-12 from one radius to the next from neck + 1 on)."""
    p = CmcParams(H, d)
    heights, remainders = HeightTable(p), HeightTable(p, remainder=True)
    residual = sup_j = 0.0
    previous, decays = None, True
    for i in range(grid_points):
        rho = p.eta + 1e-6 + (10.0 - 1e-6) * i / (grid_points - 1)
        lam, f = lambda_height(p, rho, heights), f_closed(p, rho)
        j = j_remainder(p, rho, remainders)
        residual = max(residual, abs(lam - (f + j)) / max(1.0, lam))
        sup_j = max(sup_j, j)
        if rho - p.eta >= 1.0:
            g = abs(f - f_asymptote(p, rho))
            decays = decays and (previous is None or g <= previous + 1e-12)
            previous = g
    return residual, sup_j, decays


# the default members, and members with d < 0 on both sides of the rule
# 4|d|H cosh(neck + 1) >= d^2 + 4H^2 for |f - f_asymptote| to fall
_APPENDIX_MEMBERS = [(H, d) for H in (0.1, 0.25, 0.4) for d in (2.5, 3.0, 10.0, 100.0)] + [
    (0.25, -0.01), (0.25, -0.1), (0.25, -0.3), (0.25, -0.45), (0.1, -0.05), (0.4, -0.05)]


class TestAppendix:
    @pytest.mark.parametrize("H,d", _APPENDIX_MEMBERS)
    def test_closed_forms_agree_with_the_sweep(self, H, d):
        (check,) = verify_appendix([H], [d])["checks"]
        residual, sup_j, decays = _appendix_sweep(H, d)
        assert check["decomposition_max_scaled_residual"] <= 1e-8 and residual <= 1e-8
        assert check["g_residual_decays"] is decays
        # j_sup bounds J everywhere (for d < 0 it is J at its one maximum)
        assert check["j_sup"] >= sup_j
        neck, end = check["decomposition_rho_range"]
        assert neck == necksize(CmcParams(H, d))
        assert end is None if d >= 0.0 else end >= neck + 10.0
        # the identity behind the verdict, at 40 digits: with X = (q cosh rho
        # - 2dH) / s, (q sinh rho)^2 - s^2 (X^2 - 1) = q (4dH cosh rho + d^2 +
        # 4H^2), whose sign is that of the slope of f - f_asymptote
        mp.mp.dps = 40
        Hm, dm = mp.mpf(H), mp.mpf(d)
        q = 1 - 4 * Hm * Hm
        s = mp.sqrt(dm * dm + q)
        for rho in (mp.mpf(neck) + 1, mp.mpf(neck) + 5):
            x = (q * mp.cosh(rho) - 2 * dm * Hm) / s
            lhs = (q * mp.sinh(rho)) ** 2 - s * s * (x * x - 1)
            rhs = q * (4 * dm * Hm * mp.cosh(rho) + dm * dm + 4 * Hm * Hm)
            assert abs(lhs - rhs) <= mp.mpf(10) ** -35 * (q * mp.sinh(rho)) ** 2

    @pytest.mark.parametrize("H,d", [(0.25, -0.1), (0.25, -0.45), (0.1, -0.05)])
    def test_j_sup_below_zero_against_40_digits(self, H, d):
        # the remainder numerator d + 2H e^{-r} vanishes at r* = log(2H / |d|),
        # beyond the neck on these members, so sup J = J(r*)
        mp.mp.dps = 40
        r_star = mp.log(2 * mp.mpf(H) / -mp.mpf(d))
        assert r_star > _mp_eta(H, d)
        want = _mp_lambda_split(H, d, float(r_star), remainder=True)
        assert verify_appendix([H], [d])["checks"][0]["j_sup"] == pytest.approx(
            want, abs=ORACLE_TOL)
        for side in (-0.05, 0.05):
            assert _mp_lambda_split(H, d, float(r_star + side), remainder=True) < want


class TestInversion:
    def test_neck_at_zero_height(self):
        p = CmcParams(0.25, 2.0)
        assert b_inverse(p, 0.0) == necksize(p)

    def test_even_in_t(self):
        p = CmcParams(0.25, 2.0)
        assert b_inverse(p, -1.7) == b_inverse(p, 1.7)

    @pytest.mark.parametrize("t", [1e-6, 0.01, 1.0, 7.0, 30.0])
    def test_round_trip(self, t):
        p = CmcParams(0.25, 3.0)
        rho = b_inverse(p, t)
        assert lambda_height(p, rho) == pytest.approx(t, abs=1e-9)

    def test_rejects_entire_graph(self):
        with pytest.raises(PreconditionError):
            b_inverse(CmcParams(0.25, -0.5), 1.0)

    def test_height_beyond_every_finite_radius_raises(self):
        # the height at the largest float radius is about 1.0379e308 here
        with pytest.raises(DomainError, match=r"no finite radius reaches height t = 1\.7e\+308"):
            b_inverse(CmcParams(0.25, 3.0), 1.7e308)

    def test_grid_holds_each_distinct_height_once(self):
        p = CmcParams(0.25, 3.0)
        table = HeightTable(p)
        radii = [table.radius(t) for t in (2.0, -1.0, 0.0, 1.0, -2.0)]
        assert sorted(table.memo) == [0.0, 1.0, 2.0]
        assert radii[0] == radii[4] and radii[1] == radii[3]
        for t, rho in table.memo.items():
            assert rho == pytest.approx(b_inverse(p, t), abs=1e-10)


# family members reached by the table tests: H across (0, 1/2) up to
# .4999, and d from the family floor (where panel 0 is split) through the
# paper's d1 = 3 and the threshold member d0(H, 3) to 1e6
TABLE_H = (0.01, 0.1, 0.25, 0.45, 0.4999)
TABLE_D = {
    "floor": lambda H: -2.0 * H + 1e-12,
    "small_neck": lambda H: -2.0 * H + 1e-6,
    "zero": lambda H: 0.0,
    "three": lambda H: 3.0,
    "d0": lambda H: solve_d0(H, 3.0),
    "1e6": lambda H: 1e6,
}


class TestHeightTable:
    @pytest.mark.parametrize("kind", list(TABLE_D))
    @pytest.mark.parametrize("H", TABLE_H)
    def test_radii_invert_the_height_within_quad_tol(self, H, kind):
        # a float radius b can be no closer than one spacing ulp(b) to the
        # exact root, which moves the height by integrand(b) * ulp(b); that
        # stays below ORACLE_TOL (at most 3.6e-12) for H <= .45 and reaches
        # 7e-9 at H = .4999 and t = .01, where the height is steep at the neck
        d = TABLE_D[kind](H)
        ts = [0.01, 0.3, 7.0, 25.65, 50.0]
        p = CmcParams(H, d)
        table = HeightTable(p)
        for t in ts:
            b = table.radius(t)
            resolution = integrand(p, b) * math.ulp(b)
            assert abs(_mp_lambda_split(H, d, b) - t) <= max(ORACLE_TOL, resolution)

    @given(
        H=st.floats(0.02, 0.4999),
        offset=st.floats(1e-12, 1e6),
        ts=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_one_point_inversion_equals_the_grid_bit_for_bit(self, H, offset, ts):
        # one shared table, asked for every height in turn
        p = CmcParams(H, -2.0 * H + offset)
        table = HeightTable(p)
        radii = [table.radius(t) for t in ts]
        for t, rho in zip(ts, radii):
            assert b_inverse(p, t) == rho

    def test_one_break_and_one_series_per_doubling_piece(self):
        # one series spans [0, 1] and then [u, 2u] from u = 1 on, and the
        # breaks are the pieces' ends; fixed 1/4 panels held 32 series up to
        # u = 8, and first pieces 1/4 wide [0, 1/4, 1/2, 1, 2, 4, 8]
        table = HeightTable(CmcParams(0.25, 3.0))
        table.integral(table.params.eta + 64.0)
        assert table.breaks == [0.0, 1.0, 2.0, 4.0, 8.0]
        assert len(table.pieces) == len(table.breaks) - 1
        spans = [(mid - half, mid + half) for mid, half, *_ in table.pieces]
        assert spans == list(zip(table.breaks, table.breaks[1:]))
        # one reading rule: every height the table holds, at a piece's end
        # too, is its start height plus its series
        for H, d in [(0.25, 3.0), (0.25, 71_617.9), (0.1, 2.5), (0.4999, 3.0),
                     (0.25, -0.5 + 1e-12)]:
            table = HeightTable(CmcParams(H, d))
            table.integral(1e4)
            assert len(table.pieces) == len(table.breaks) - 1
            for i, series in enumerate(table.pieces):
                assert table.heights[i] + _series_at(series, table.breaks[i + 1]) == (
                    table.heights[i + 1])

    def test_floor_member_splits_panel_zero(self):
        # the integrand turns on a scale of (d + 2H)^(1/4) in u near the
        # floor.  Panel zero is u in [0, 1] (it was [0, 1/4], with at most
        # 14 breaks); halved, it keeps the breaks it had then, and two more
        table = HeightTable(CmcParams(0.25, -0.5 + 1e-12))
        table.radius(1.0)
        panel0 = [u for u in table.breaks if 0.0 < u <= 1.0]
        assert panel0[-2:] == [0.5, 1.0]
        assert 1 < len(panel0) <= 16
        assert min(table.breaks[1:]) >= 0.25 * 2.0**-13

    def test_depth_cap_raises(self, monkeypatch):
        from hcat import core

        monkeypatch.setattr(core, "_MAX_DEPTH", 2)
        with pytest.raises(ConvergenceError):
            b_inverse(CmcParams(0.25, -0.5 + 1e-12), 1.0)

    def test_remainder_table_does_not_invert(self):
        with pytest.raises(PreconditionError):
            HeightTable(CmcParams(0.25, 3.0), remainder=True).radius(1.0)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, 1.0])
    def test_read_outside_the_table_raises(self, rho):
        # the neck of (.25, 3) is at 2.44
        with pytest.raises(DomainError):
            lambda_height(CmcParams(0.25, 3.0), rho)

    def test_inversion_stays_finite_at_the_top_of_the_float_range(self):
        # the piece [2^511, 2^512] of u holds the largest float radius, and
        # its end, where u^2 overflows, holds a height just above `top`.
        # Each of these heights lies past t_far, so its radius is the far
        # field's, however far the table grew: at `top` one ulp below the
        # largest float (Brent on the grown table's last piece found the
        # largest float itself), and its height reads back as `top`
        p = CmcParams(0.25, 3.0)
        table = HeightTable(p)
        top = lambda_height(p, sys.float_info.max, table=table)
        assert table.breaks[-1] == 2.0**512 and table.heights[-1] > top
        rho = table.radius(top)
        assert rho == 1.7976931348623155e308 == math.nextafter(sys.float_info.max, 0.0)
        assert lambda_height(p, rho, table=table) == top
        for t in (1e307, 1e308, math.nextafter(top, 0.0)):
            rho = table.radius(t)
            assert rho < math.inf
            assert lambda_height(p, rho, table=table) == pytest.approx(t, rel=1e-15)
        for t in (math.nextafter(top, math.inf), table.heights[-1]):
            with pytest.raises(DomainError, match="no finite radius reaches height"):
                table.radius(t)

    def test_forward_read_at_the_top_of_the_float_range(self):
        # forward reads go to any finite radius, bit-equal to the reads of
        # the table that kept a break every 1/4 in u
        assert lambda_height(CmcParams(0.25, 3.0), 1.79e308) == 1.0334569818494302e308

    def test_non_finite_height_rejected(self):
        with pytest.raises(DomainError):
            b_inverse(CmcParams(0.25, 3.0), math.nan)

    def test_forward_read_whose_height_overflows_raises(self):
        # at H = .4999 the height grows like 50 rho and passes the largest
        # float near rho = 3.6e306, below the largest float radius
        with pytest.raises(DomainError, match=r"rho = 1\.7976931348623157e\+308"):
            lambda_height(CmcParams(0.4999, 3.0), sys.float_info.max)

    def test_inversion_where_the_height_overflows(self):
        # at H = .4999 the height passes the largest float near rho = 3.6e306.
        # On d = 3 that height lies past t_far: the far field gives it a
        # radius, whose height reads back one ulp below it.  (A table that a
        # forward read grew past its far panel solved it on its pieces, and
        # found no finite radius)
        p = CmcParams(0.4999, 3.0)
        table = HeightTable(p)
        rho = table.radius(sys.float_info.max)
        assert rho == 3.5959256810526996e306
        assert lambda_height(p, rho, table=table) == 1.7976931348623155e308

    def test_brent_where_the_height_overflows(self):
        # d = -0.5 has no far field, so t = 1.7e308 is Brent's, on the piece
        # whose end height is infinite; its bracket is bisected down to a
        # finite end.  No float radius has a finite height at or above the
        # largest float
        p = CmcParams(0.4999, -0.5)
        table = HeightTable(p)
        rho = table.radius(1.7e308)
        assert table.heights[-1] == math.inf and rho == 3.400510097769153e306
        assert lambda_height(p, rho, table=table) == pytest.approx(1.7e308, rel=1e-15)
        with pytest.raises(DomainError,
                           match=r"no finite radius reaches height t = 1\.7976931348623157e\+308"):
            table.radius(sys.float_info.max)


def _mp_far_field(H, d):
    """40-digit J(inf) of the remainder, its tail tau(rho) = J(inf) - J(rho)
    and the closed-form part f(rho): (J(inf), tau, f).  J(inf) is the split
    oracle's J(neck + 16) plus the tail from there, which integrates the
    unsubstituted integrand, smooth and decaying like e^{-r} past the neck."""
    mp.mp.dps = 40
    Hm, dm = mp.mpf(H), mp.mpf(d)
    q = 1 - 4 * Hm * Hm
    s = mp.sqrt(q + dm * dm)
    beta = (2 * dm * Hm - s) / q
    eta = _mp_eta(H, d)
    alpha = mp.cosh(eta)

    def remainder(r):
        c = mp.cosh(r)
        return (dm + 2 * Hm * mp.exp(-r)) / mp.sqrt(q * (c - alpha) * (c - beta))

    def tail(rho):
        rho = mp.mpf(rho)
        return mp.quad(remainder, [rho, rho + 1, rho + 10, mp.inf])

    def f(rho):
        return 2 * Hm / mp.sqrt(q) * mp.acosh((q * mp.cosh(mp.mpf(rho)) - 2 * dm * Hm) / s)

    j_inf = mp.mpf(_mp_lambda_split(H, d, eta + 16, remainder=True)) + tail(eta + 16)
    return j_inf, tail, f


class TestFarField:
    # from t_far on, a radius is acosh((s cosh x + 2dH) / q), x = (t - J(inf))
    # / kappa: the table's far field, for members with d >= 0
    @pytest.mark.parametrize("H,d,ts", [
        (0.25, 3.0, (25.0, 50.0)),
        (0.25, solve_d0(0.25, 3.0), (25.0, 50.0)),
        (0.0025, 3.0, (10.0, 50.0)),
        (0.4999, 3.0, (1000.0,)),
        (0.25, 0.0, (25.0, 50.0)),
    ])
    def test_radii_and_tail_bound_against_40_digits(self, H, d, ts):
        # the tail test puts rho_far where tau_2 <= ROOT_TOL kappa u / 2, and
        # the estimate of J(inf) is within tau_2 at the far panel's end, no
        # more than that; so the closed form's height is within ROOT_TOL kappa
        # u of the 40-digit height f + J(inf) - tau at its radius: ROOT_TOL / 2
        # in u, as dt/du >= 2u kappa
        p = CmcParams(H, d)
        table = HeightTable(p)
        far = table.far_field()
        j_inf, tail, f = _mp_far_field(H, d)
        lead = 2 * mp.mpf(d) / mp.sqrt(1 - 4 * mp.mpf(H) ** 2)
        # the limit is the table's height at the far panel's end, less f,
        # plus the tail's leading term A e^{-rho} there
        assert abs(far.limit - j_inf) <= far.error + ORACLE_TOL
        for t in (far.t, *ts):
            rho = table.radius(t)
            u = math.sqrt(rho - p.eta)
            resolution = integrand(p, rho) * math.ulp(rho)
            assert abs(f(rho) + j_inf - tail(rho) - t) <= ROOT_TOL * u * p.kappa + resolution
        # the tail less its leading term is within tau_2 from rho_far on.
        # It is about e^{-rho} of the tail, which 40 digits resolve up to
        # rho ~ 60
        for rho in (far.rho, far.rho + 1.0, far.rho + 4.0):
            assert float(abs(tail(rho) - lead * mp.exp(-mp.mpf(rho)))) <= _tail_rest_bound(p, rho)
        assert _tail_rest_bound(p, far.rho) <= 0.5 * ROOT_TOL * p.kappa * math.sqrt(
            far.rho - p.eta)

    @given(
        H=st.floats(1e-4, 0.4999),
        d=st.floats(0.0, 1e12),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_closed_form_matches_brent_on_the_same_table(self, H, d, frac):
        # t in [t_far, 1e6], log-spaced; the table is grown past t by hand,
        # since inversion never grows it past the far panel, and Brent runs
        # on the piece holding t.  Brent stops within ROOT_TOL in u, or its
        # relative tolerance _RTOL in v = u^2, which is larger from u ~ 2 250
        p = CmcParams(H, d)
        table = HeightTable(p)
        far = table.far_field()
        n = len(table.pieces)
        t = far.t * (1e6 / far.t) ** frac
        rho = table.radius(t)
        assert len(table.pieces) == n
        while table.heights[-1] <= t:
            table._add_panel()
        u = math.sqrt(rho - p.eta)
        brent = math.sqrt(table._brent(table._piece(t), t) - p.eta)
        assert abs(u - brent) <= max(2.0 * ROOT_TOL, _RTOL * u)

    @pytest.mark.parametrize("H,d", [(0.4999, 3.0), (0.25, 0.0), (0.25, 3.0), (1e-4, 1e6),
                                     (1e-9, 3.0), (1e-20, 1e-3), (1e-20, 3.0), (1e-100, 3.0)])
    def test_far_radius_solves_its_equation(self, H, d):
        # f(rho) - A e^{-rho} = t - J(inf), to rounding.  The iteration
        # contracts by d e^{-rho} / H, at most 1/4 from rho_far on, which
        # moves rho_far out where H is below about 1e-11; at H = 1e-20,
        # t - J(inf) rounds to 0 at t_far, and the first iterate, f's
        # inverse there, is the neck
        p = CmcParams(H, d)
        table = HeightTable(p)
        far = table.far_field()
        assert d * math.exp(-far.rho) <= 0.25 * H * (1.0 + 1e-12)
        for t in (far.t, far.t * 1.001, far.t * 2.0, far.t * 1e3):
            rho = table.radius(t)
            residual = f_closed(p, rho) + far.limit - far.lead * math.exp(-rho) - t
            assert abs(residual) <= 4.0 * math.ulp(t)

    def test_inversion_stops_at_the_far_panel(self, inversion_counts):
        # the certificate's grid on the headline member: the table ends at
        # u = 4, the panel holding rho_far, and every height from t_far =
        # 9.378 on is the far field's.  Brent solves none of them; the
        # inverse series of the piece u in [2, 4], which holds t_far, is
        # still fitted across the whole piece.  (With tau_b, the whole tail
        # bounded, the table ended at u = 8 with t_far = 16.88, and at u = 16
        # before the far field)
        from hcat.disjoint import height_grid

        table = HeightTable(CmcParams(0.25, 3.0))
        ts = height_grid(0.0, 50.0, 0.05)
        table.radii(ts)
        p = table.params
        assert table.breaks == [0.0, 1.0, 2.0, 4.0]
        assert p.eta + 4.0 < table.far.rho < p.eta + 16.0
        assert table.far.t == pytest.approx(9.3784, abs=1e-4)
        far = [t for t in ts if t >= table.far.t]
        assert sorted(t for _, t in inversion_counts.far) == far
        assert not set(far) & {t for _, t in inversion_counts.solves}

    @pytest.mark.parametrize("d", [-0.2, -0.5 + 1e-12])
    def test_no_far_field_below_d_zero(self, d):
        p = CmcParams(0.25, d)
        table = HeightTable(p)
        table.radius(50.0)
        assert table.far is None
        with pytest.raises(PreconditionError):
            table.far_field()

    @pytest.mark.parametrize("H,d,grow_to", [
        (0.25, 3.0, 256.0),
        (0.25, 3.0, math.inf),
        (0.4999, 3.0, 256.0),
        (0.0025, 3.0, 256.0),
    ])
    def test_a_radius_does_not_depend_on_what_grew_the_table(self, H, d, grow_to):
        # a forward read to neck + 256 (u = 16), or to the largest float
        # radius, grows the table past its far panel; the pieces it adds lie
        # above t_far, and no inversion reads them.  So each radius, or its
        # DomainError, is the same on that table as on a fresh one: the far
        # field's from t_far on, and below it Brent's on the same piece.
        # (While a grown table inverted on its own pieces, (.25, 3) moved by
        # 1 ulp at t = 50, and (.4999, 3) had no radius at the largest float)
        p = CmcParams(H, d)
        grown = HeightTable(p)
        grown.integral(p.eta + grow_to if grow_to < math.inf else sys.float_info.max)
        t_far = HeightTable(p).far_field().t
        ts = [0.0, math.nextafter(t_far, 0.0), t_far, math.nextafter(t_far, math.inf)]
        ts += [10.0 ** (k / 4.0) for k in range(-8, 25)]
        ts += [1e300, 1e307, 1.7e308, sys.float_info.max]
        with contextlib.suppress(DomainError):
            top = lambda_height(p, sys.float_info.max)
            ts += [math.nextafter(top, 0.0), top, math.nextafter(top, math.inf)]

        def outcome(table, t):
            try:
                return table.radius(t)
            except DomainError as error:
                return str(error)

        assert [outcome(grown, t) for t in ts] == [outcome(HeightTable(p), t) for t in ts]


def _brent_outcome(solve, *args, **kwargs):
    """The root's bits and the function calls of a Brent solve, or the type
    of the error it raised; SciPy's RuntimeError is its ConvergenceError."""
    try:
        root, result = solve(*args, full_output=True, **kwargs)
    except (ConvergenceError, DomainError) as error:
        return type(error)
    except RuntimeError:
        return ConvergenceError
    return root.hex(), result.function_calls


class TestBrentKernel:
    @given(
        H=st.floats(0.02, 0.4999),
        d=st.floats(-1.0, 1e6),
        t=st.floats(1e-9, 1e4),
        k=st.integers(1, 12),
    )
    # the two overflowing brackets: u^2 overflows at the last piece's end, and
    # the height overflows inside it
    @example(H=0.25, d=-0.2, t=1.0, k=12)
    @example(H=0.4999, d=-0.5, t=1.0, k=12)
    @settings(max_examples=25, deadline=None)
    def test_matches_the_generic_brent_bit_for_bit(self, H, d, t, k):
        # every bracket the table hands `core.brentq`, solved again by
        # SciPy's `brentq` on the piece's excess as a closure that returns
        # the bracket's end values at its ends: the same root, bit for bit,
        # after the same number of evaluations.  Heights: t, a tabulated
        # piece end below the last piece and the floats either side of it,
        # a third of the way up the piece from the neck, and the top of what
        # Brent solves.  On a member with d < 0 that is just below the height
        # at the largest float radius (where that height overflows, H above
        # about .354, inside the piece whose end height is infinite); with
        # d >= 0 it is just below t_far, since the far field takes every
        # height from there.  On the piece from the neck the kernel solves in
        # u, elsewhere in v = u^2, and the excess follows the same variable.
        # Should Brent use up its 100 iterations, both routines must fail
        # alike; the closure raises the kernel's DomainError where the
        # series is NaN
        from hcat import core

        table = HeightTable(CmcParams(H, max(d, -2.0 * H + 1e-12)))
        kernel, brackets = core.brentq, []

        def spy(*args, **kwargs):
            brackets.append((args, kwargs))
            return kernel(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "brentq", spy)
            if table.params.d >= 0.0:
                top = math.nextafter(table.far_field().t, 0.0)
            else:
                try:
                    top = math.nextafter(table.integral(sys.float_info.max), 0.0)
                except DomainError:
                    top = 0.999 * sys.float_info.max
            end = table.heights[min(k, len(table.heights) - 2)]
            for s in (t, end, math.nextafter(end, 0.0), math.nextafter(end, math.inf), top,
                      table.heights[1] / 3.0):
                with contextlib.suppress(ConvergenceError):
                    table.radius(s)
        assert len(brackets) >= 3
        assert any(kwargs["in_v"] is False for _, kwargs in brackets)
        for (series, start, s, a, b, fa, fb), kwargs in brackets:
            in_v = kwargs.pop("in_v")

            def excess(x, series=series, start=start, s=s, a=a, b=b, fa=fa, fb=fb,
                       in_v=in_v):
                if x == a:
                    return fa
                if x == b:
                    return fb
                fx = start + _series_at(series, math.sqrt(x) if in_v else x) - s
                if fx != fx:
                    raise DomainError(f"the series is NaN at {x!r}")
                return fx

            assert _brent_outcome(kernel, series, start, s, a, b, fa, fb, in_v=in_v,
                                  **kwargs) == (
                _brent_outcome(scipy_brentq, excess, a, b, **kwargs))


# the heights at which Brent in v = rho - neck used up its 100 iterations on
# the piece from the neck (the last three rounded as they were recorded)
NECK_CASES = [
    (0.4413311421197282, 105.37577219433828, 0.008134099939098107),
    (0.43442155216435213, 1294.7333247592803, 4.29e-4),
    (0.45251562815465435, 617.5575056089523, 2.23e-3),
    (0.39854665821568797, 9.284291109492425, 1.05e-4),
]


class TestNeckPiece:
    @pytest.mark.parametrize("H,d,t", NECK_CASES)
    def test_found_cases_round_trip(self, H, d, t):
        rho = b_inverse(CmcParams(H, d), t)
        assert math.isfinite(rho)
        assert abs(_mp_lambda_split(H, d, rho) - t) <= ORACLE_TOL

    @given(H=st.floats(1e-4, 0.4999), offset=st.floats(1e-12, 1e12),
           t=st.floats(1e-12, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_radius_is_finite_or_a_domain_error_naming_t(self, H, offset, t):
        # d in (-2H, 1e12]: never a ConvergenceError
        try:
            rho = HeightTable(CmcParams(H, -2.0 * H + offset)).radius(t)
        except DomainError as error:
            assert f"t = {t}" in str(error)
        else:
            assert math.isfinite(rho)


def _series_root(table, i, t):
    """u where piece i's forward series reaches t, bisected to the float."""
    lo, hi = table.breaks[i], table.breaks[i + 1]
    start, series = table.heights[i], table.pieces[i]
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if start + _series_at(series, mid) < t:
            lo = mid
        else:
            hi = mid


def _ask_piece(table, i, n):
    """n heights spread evenly inside piece i, below t_far where the table
    has a far field, asked in one `radii` call: (heights, *_ask(table,
    heights))."""
    a, b = table.heights[i], table.heights[i + 1]
    if table.far is not None:
        b = min(b, table.far.t)
    ts = [a + (b - a) * (j + 0.5) / n for j in range(n)]
    return (ts, *_ask(table, ts))


def _ask(table, ts):
    """The radii of the heights ts, asked in one `radii` call, and the reads
    an inverse series certified: (radii, {t: (piece, u)})."""
    from hcat import core

    read, accepted = core.HeightTable._read_inverse, {}

    def spy(self, i, inverse, t):
        u = read(self, i, inverse, t)
        if u is not None:
            accepted[t] = i, u
        return u

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core.HeightTable, "_read_inverse", spy)
        radii = table.radii(ts)
    return radii, accepted


def _u_gap(params, rho1, rho2):
    return abs(math.sqrt(rho1 - params.eta) - math.sqrt(rho2 - params.eta))


class TestInverseReads:
    # a piece gets its inverse series when one `radii` call asks it for more
    # than _INVERSE_AFTER = 68 distinct unsolved heights, before any of them.
    # Below t_far the pieces away from the neck are 1 to 2 or 3: u in [1, 2]
    # up to the far panel, [2, 4] or [4, 8]
    @given(H=st.floats(0.02, 0.4999), d=st.floats(0.0, 1e6), i=st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_dense_grid_reads_within_root_tol(self, H, d, i):
        # 144 heights of piece i below t_far (up to u in [8, 16], on a table
        # grown to u = 16, while such a table inverted on its own pieces)
        p = CmcParams(H, d)
        table = HeightTable(p)
        table.far_field()
        i = min(i, len(table.pieces) - 1)
        ts, radii, accepted = _ask_piece(table, i, 144)
        assert table.inverses[i] and accepted
        for t, rho in zip(ts, radii):
            assert _u_gap(p, rho, b_inverse(p, t)) <= ROOT_TOL
        # each accepted read is within ROOT_TOL of the root it certifies
        for t, (_, u) in accepted.items():
            assert abs(u - _series_root(table, i, t)) <= ROOT_TOL

    @given(
        H=st.floats(0.02, 0.4999),
        d=st.floats(0.0, 1e6),
        t_max=st.floats(1.0, 60.0),
        n=st.integers(1, 300),
        data=st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_radii_depend_only_on_the_set_of_heights(self, H, d, t_max, n, data):
        # shuffled, with signs flipped and heights repeated, a grid reads the
        # same bits on a fresh table, each within ROOT_TOL in u of Brent's
        p = CmcParams(H, d)
        ts = [t_max * j / n for j in range(n + 1)]
        radii = HeightTable(p).radii(ts)
        by_t = dict(zip(ts, radii))
        asked = data.draw(st.permutations(ts + data.draw(
            st.lists(st.sampled_from(ts), max_size=n))))
        signs = data.draw(st.lists(st.booleans(), min_size=len(asked), max_size=len(asked)))
        asked = [-t if flip else t for t, flip in zip(asked, signs)]
        assert HeightTable(p).radii(asked) == [by_t[abs(t)] for t in asked]
        for t, rho in zip(ts, radii):
            assert _u_gap(p, rho, b_inverse(p, t)) <= ROOT_TOL

    def test_headline_reads_are_certified(self):
        # the certificate's coarse grid on the headline member: its outer
        # piece u in [2, 4] (piece 2), asked 109 heights below t_far = 9.378,
        # reads every one of them from its inverse series.  While t_far was
        # 16.88 (the whole tail bounded, and the first pieces 1/4 wide) the
        # pieces u in [2, 4] and [4, 8] (4 and 5) were asked 139 and 120
        # heights, and before the far field u in [4, 8] and [8, 16] 555 and
        # 228 up to t = 50; each read them all
        from hcat.disjoint import height_grid

        table = HeightTable(CmcParams(0.25, 3.0))
        _, accepted = _ask(table, height_grid(0.0, 50.0, 0.05))
        assert len(accepted) == 109
        assert {i for i, _ in accepted.values()} == {2}
        for t, (i, u) in accepted.items():
            assert abs(u - _series_root(table, i, t)) <= ROOT_TOL

    def test_headline_grid_fits_before_it_solves(self):
        # each of those pieces is fitted before any Brent solve on it
        from hcat import core
        from hcat.disjoint import height_grid

        events = []
        brent, invert = core.HeightTable._brent, core.HeightTable._invert

        def spy_brent(self, i, t):
            events.append(("solve", i))
            return brent(self, i, t)

        def spy_invert(self, i):
            events.append(("fit", i))
            with pytest.MonkeyPatch.context() as patch:
                # the fit's own sample solves are not the grid's
                patch.setattr(core.HeightTable, "_brent", brent)
                return invert(self, i)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core.HeightTable, "_brent", spy_brent)
            patch.setattr(core.HeightTable, "_invert", spy_invert)
            HeightTable(CmcParams(0.25, 3.0)).radii(height_grid(0.0, 50.0, 0.05))
        # the piece u in [2, 4]: u in [4, 8], fitted while t_far was 16.88
        # (as piece 5, after u in [2, 4] as piece 4), is never built
        assert [i for kind, i in events if kind == "fit"] == [2]
        # Brent solves the grid's heights on the inner pieces only
        assert {i for kind, i in events if kind == "solve"} <= {0, 1}

    def test_radius_never_fits(self):
        # one height at a time never fits a series, however many are asked,
        # so on a fresh table every radius is the memo's, Brent's or, from
        # t_far on, the far field's.  The table is grown to its far panel, u
        # in [2, 4], whose 200 heights these are (it was u in [4, 8] while the
        # whole tail was bounded and the first pieces 1/4 wide)
        p = CmcParams(0.25, 3.0)
        table = HeightTable(p)
        table.integral(p.eta + 16.0)
        i = table.breaks.index(2.0)
        assert table.far is not None and len(table.pieces) == i + 1
        a, b = table.heights[i], table.heights[i + 1]
        ts = [a + (b - a) * (j + 0.5) / 200 for j in range(200)]
        radii = [table.radius(t) for t in ts]
        assert not any(table.inverses)
        assert radii == [b_inverse(p, t) for t in ts]

    def test_radius_reads_a_fitted_piece(self):
        # a series an earlier call fitted serves one-height asks too: on two
        # tables with the piece u in [2, 4] fitted, `radius` one height at a
        # time returns the bits that `radii` reads for the same heights.
        # That piece is the far panel, and these heights lie below its t_far
        # = 9.378.  (The piece u in [4, 8], used here before the far field,
        # held t_far = 16.88, and only 22 of 100 heights across it lay below)
        p = CmcParams(0.25, 3.0)
        one, many = HeightTable(p), HeightTable(p)
        for table in (one, many):
            table.far_field()
            _ask_piece(table, table.breaks.index(2.0), 100)
        i = one.breaks.index(2.0)
        assert one.inverses[i] and many.inverses[i]
        a, b = one.heights[i], one.far.t
        ts = [a + (b - a) * (j + 1 / 3) / 50 for j in range(50)]
        radii, accepted = _ask(many, ts)
        assert len(accepted) == len(ts)
        assert [one.radius(t) for t in ts] == radii

    @pytest.mark.parametrize("give_up", ["series", "residual"])
    def test_reads_fall_back_to_brent(self, give_up, monkeypatch):
        # at (.002, 10) the radius jumps across the piece u in [2, 4]: its
        # inverse series' tail is 3.4e-6, and three halvings in t resolve it.
        # Kept whole it is given up; with the residual's slack widened after
        # the fit no read passes.  Either way every height is Brent's
        from hcat import core

        H, d = 0.002, 10.0
        p = CmcParams(H, d)
        table = HeightTable(p)
        table.integral(p.eta + 16.0)
        i = table.breaks.index(2.0)
        if give_up == "series":
            monkeypatch.setattr(core, "_INVERSE_MAX_DEPTH", 0)
        else:
            _ask_piece(table, i, core._INVERSE_AFTER + 1)
            monkeypatch.setattr(core, "_RESIDUAL_ULPS", 1e12)
        ts, radii, accepted = _ask_piece(table, i, 100)
        assert table.inverses[i] and not accepted
        assert radii == [b_inverse(p, t) for t in ts]
        for t, rho in zip(ts[::33], radii[::33]):
            assert abs(_mp_lambda_split(H, d, rho) - t) <= ORACLE_TOL

    def test_halved_inverse_resolves_the_jump(self):
        p = CmcParams(0.002, 10.0)
        table = HeightTable(p)
        table.integral(p.eta + 16.0)
        i = table.breaks.index(2.0)
        ts, radii, accepted = _ask_piece(table, i, 200)
        t_breaks, series, _ = table.inverses[i]
        assert len(series) > 1 and None not in series
        # fitted before any of them is solved, so every height is read
        assert len(accepted) == 200
        for t, rho in zip(ts, radii):
            assert _u_gap(p, rho, b_inverse(p, t)) <= ROOT_TOL

    @pytest.mark.parametrize("H,d,i", [(0.25, 3.0, 0), (0.25, -0.2, 2), (0.1, -0.2 + 1e-9, 3)])
    def test_no_inverse_on_the_neck_piece_or_below_d_zero(self, H, d, i):
        p = CmcParams(H, d)
        table = HeightTable(p)
        table.integral(p.eta + 16.0)
        ts, radii, accepted = _ask_piece(table, i, 150)
        assert table.inverses[i] == () and not any(table.inverses) and not accepted
        assert radii == [b_inverse(p, t) for t in ts]


class TestHeightAccuracyAtThresholdMember:
    def test_split_oracle_agrees_with_single_interval_route(self):
        d = solve_d0(DEFECT_H, DEFECT_D1)
        split = _mp_lambda_split(DEFECT_H, d, DEFECT_RHO)
        assert split == pytest.approx(_mp_lambda(DEFECT_H, d, DEFECT_RHO), abs=1e-12)

    def test_inversion_within_oracle_tol(self):
        # the table integrates doubling pieces, never the one wide panel
        # that QAGS accepts
        d = solve_d0(DEFECT_H, DEFECT_D1)
        rho = b_inverse(CmcParams(DEFECT_H, d), 25.65)
        assert _mp_lambda_split(DEFECT_H, d, rho) == pytest.approx(25.65, abs=ORACLE_TOL)

    def test_height_within_oracle_tol(self):
        # one adaptive QAGS from the neck accepted a panel off by 7.06e-10
        # here; the table's series read the oracle value
        d = solve_d0(DEFECT_H, DEFECT_D1)
        want = _mp_lambda_split(DEFECT_H, d, DEFECT_RHO)
        assert lambda_height(CmcParams(DEFECT_H, d), DEFECT_RHO) == pytest.approx(
            want, abs=ORACLE_TOL
        )


# both sides of the large-r branch switch _LARGE_R = 350, and far past it
FORWARD_RHO = (349.9, 350.1, 700.0)
FORWARD_MEMBERS = [(H, d) for H in (0.01, 0.25, 0.45) for d in (-2.0 * H + 1e-12, 3.0, 1e6)]


class TestForwardReads:
    @pytest.mark.parametrize("H,d", FORWARD_MEMBERS)
    def test_height_and_remainder_within_quad_tol(self, H, d):
        p = CmcParams(H, d)
        for rho in FORWARD_RHO:
            assert lambda_height(p, rho) == pytest.approx(
                _mp_lambda_split(H, d, rho), abs=ORACLE_TOL)
            assert j_remainder(p, rho) == pytest.approx(
                _mp_lambda_split(H, d, rho, remainder=True), abs=ORACLE_TOL)

    @pytest.mark.parametrize("H,d", [(0.25, -0.5 + 1e-12), (0.45, 3.0)])
    def test_profile_within_quad_tol(self, H, d):
        p = CmcParams(H, d)
        for rho_max in FORWARD_RHO:
            # samples[0] is the neck at height 0
            for sample in profile(p, rho_max, 3).samples[1:]:
                assert sample.t == pytest.approx(
                    _mp_lambda_split(H, d, sample.rho), abs=ORACLE_TOL)

    @pytest.mark.parametrize("H,d", [(0.01, 1e6), (0.25, 3.0), (0.45, -0.9 + 1e-12),
                                     (0.002, 10.0), (1e-4, 100.0), (0.4999, 3.0)])
    def test_far_reads_and_round_trips(self, H, d):
        # the pieces double in u, so 23 reach 1e12 (and up to 14 more split
        # from piece 0 on the floor member); inversion reaches them all
        p = CmcParams(H, d)
        table = HeightTable(p)
        for rho in (2e4, 1e6, 1e12):
            # each piece's tail is at most 1e-13 of max(1, |piece total|)
            t = lambda_height(p, rho, table=table)
            assert t == pytest.approx(_mp_lambda_split(H, d, rho), abs=ORACLE_TOL, rel=1e-12)
            b = table.radius(t)
            assert abs(_mp_lambda_split(H, d, b) - t) <= max(ORACLE_TOL, 1e-12 * t)
        assert len(table.pieces) <= 23 + 14
        if d > 0:
            assert j_remainder(p, 1e12) == pytest.approx(
                _mp_lambda_split(H, d, 1e12, remainder=True), abs=ORACLE_TOL)

    @given(
        H=st.floats(1e-3, 0.4999),
        kind=st.sampled_from(["small_neck", "2.5", "1e3"]),
        band=st.sampled_from([(2.0, 4.0), (4.0, 8.0), (8.0, 16.0)]),
        frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=12, deadline=None)
    def test_reads_inside_a_doubling_piece(self, H, kind, band, frac):
        # u in (2, 4), (4, 8) or (8, 16): one series spans each band
        d = {"small_neck": -2.0 * H + 1e-6, "2.5": 2.5, "1e3": 1e3}[kind]
        p = CmcParams(H, d)
        u = band[0] + frac * (band[1] - band[0])
        rho = p.eta + u * u
        t = lambda_height(p, rho)
        assert t == pytest.approx(_mp_lambda_split(H, d, rho), abs=ORACLE_TOL)
        assert j_remainder(p, rho) == pytest.approx(
            _mp_lambda_split(H, d, rho, remainder=True), abs=ORACLE_TOL)
        # Brent stops within ROOT_TOL + 4 ulp(u) in u, doubled by rho = eta + u^2
        root_tol = 2.0 * u * (ROOT_TOL + 4.0 * math.ulp(u)) + 2.0 * math.ulp(rho)
        assert HeightTable(p).radius(t) == pytest.approx(rho, abs=root_tol)

    def test_profile_past_the_inversion_cap(self):
        curve = profile(CmcParams(0.25, 3.0), 1e6, 5)
        assert curve.samples[-1].t == pytest.approx(
            _mp_lambda_split(0.25, 3.0, 1e6), abs=ORACLE_TOL, rel=1e-12)

    def test_reads_share_the_table_they_are_given(self, inversion_counts):
        p = CmcParams(0.25, 3.0)
        heights = HeightTable(p)
        remainders = HeightTable(p, remainder=True)
        for rho in (3.0, 5.0, 4.0):
            assert lambda_height(p, rho, table=heights) == heights.integral(rho)
            assert j_remainder(p, rho, table=remainders) == remainders.integral(rho)
        assert inversion_counts.builds == {(0.25, 3.0, False): 1, (0.25, 3.0, True): 1}

    @pytest.mark.parametrize("other", [
        HeightTable(CmcParams(0.25, 2.0)),
        HeightTable(CmcParams(0.3, 3.0)),
        HeightTable(CmcParams(0.25, 3.0), remainder=True),
    ])
    def test_a_table_of_another_member_is_refused(self, other):
        with pytest.raises(PreconditionError):
            lambda_height(CmcParams(0.25, 3.0), 3.0, table=other)

    def test_entire_graph_reads_the_table(self):
        # d = -2H: a height table without the remainder
        p = CmcParams(0.25, -0.5)
        assert lambda_height(p, 350.1) == pytest.approx(
            _mp_lambda_split(0.25, -0.5, 350.1), abs=ORACLE_TOL)
        with pytest.raises(PreconditionError):
            j_remainder(p, 1.0)


class TestEvaluationCounts:
    # every evaluation of the substituted integrand: 24 Chebyshev samples
    # per piece, the table's one integration rule
    def test_appendix_defaults(self, inversion_counts, tmp_path):
        # one adaptive QAGS from the neck per radius and integrand took
        # 40 614 here, and a QAGS total beside each series 5 400; two tables
        # of 5 pieces (u up to sqrt(10)) for each of 12 members took 2 880,
        # and 3 168 while `j_sup`'s far-field bound, from the whole tail,
        # added the remainder table's piece u in [4, 8].  With one piece
        # u in [0, 1] each table holds 3 (u up to 4), and the far panel,
        # u in [2, 4], is among them: 12 x 2 x 3 x 24 = 1 728
        from hcat import cli

        assert cli.run(["verify-appendix", "--out", str(tmp_path / "a.json")]) == 0
        assert inversion_counts.evaluations == 1_728

    def test_appendix_at_800_radii(self, inversion_counts, tmp_path):
        # the benchmark's forward command: 643 692 with one QAGS per radius,
        # then 1 728 while it swept 800 radii no further than the defaults
        # (3 168 while the first pieces were 1/4 wide and the far panel u in
        # [4, 8]).  --grid-points is now ignored: the same 1 728
        from hcat import cli

        assert cli.run(["verify-appendix", "--grid-points", "800",
                        "--out", str(tmp_path / "a.json")]) == 0
        assert inversion_counts.evaluations == 1_728

    def test_appendix_reads_the_far_panels_end_without_growing(self, inversion_counts):
        # at d = 3e20 the neck is 48.5 and neck + 16 rounds so that
        # sqrt(rho - neck) passes 4, the far panel's end: read there, each
        # table would add the panel u in [4, 8]
        verify_appendix([0.25], [3e20])
        assert inversion_counts.evaluations == 2 * 3 * 24

    def test_pair_of_the_cold_scan(self, inversion_counts, tmp_path):
        # one pair of the benchmark's pair scan: 2 070 on fixed 1/4 panels,
        # 540 on doubling pieces with a QAGS total beside each series, 288
        # on the series alone (12 pieces, up to u = 8), and 144 (6 pieces)
        # with one piece u in [0, 1] and each table ending at the far panel
        # u in [2, 4]
        from hcat import cli

        assert cli.run(["disjoint", "--H", ".25", "--d1", "3", "--d2", "30", "--t-max", "20",
                        "--step", ".5", "--out", str(tmp_path / "c.json")]) == 0
        assert inversion_counts.evaluations == 144
        # no piece is asked for more than _INVERSE_AFTER heights, so no
        # inverse series is fitted.  Brent solved every height, 98 solves of
        # 535 evaluations, until the heights from t_far on came in closed
        # form.  With t_far at 16.88 (d1) and 16.84 (d2), from the whole
        # tail's bound, that was 50 heights, and Brent solved 66 in 387
        # evaluations.  With the tail's leading term subtracted t_far is 9.38
        # and 9.40: per member 22 grid heights and the 18 new heights of the
        # refinement about the least gap (t = 19.5), 80 in all; Brent solves
        # the other 36, in 237 evaluations
        assert inversion_counts.inverses == {}
        assert sum(inversion_counts.far.values()) == 80
        assert sum(inversion_counts.solves.values()) == 36
        assert inversion_counts.solve_evaluations == 237

    def test_headline_pipeline(self, inversion_counts, tmp_path):
        # 6 660 on fixed 1/4 panels, 1 260 on doubling pieces with a QAGS
        # total beside each series, and 672 on the series alone (28 pieces).
        # Brent evaluates its excess 3 824 times over its 715 solves, the
        # two tabulated ends of each bracket included: the traced
        # `core.brentq.evals`.  It took 14 884 over 3 036 solves before the
        # outer pieces read inverse series, 14 822 with Brent in u on the
        # neck piece alone, 7 618 over 1 483 while a piece was fitted only
        # on its 65th distinct height, and 3 822 while d0 was solved by
        # Brent rather than in closed form, 1 ulp higher.  With the far field
        # no table grew past u = 8, so the four pieces u in [8, 16] (96) went,
        # and Brent evaluated 3 103 times over 498 solves.  With one piece
        # u in [0, 1] and t_far from the tail less its leading term, each of
        # the four tables ends at u = 4 with 3 pieces: 288, and Brent
        # evaluates 2 680 times over 392 solves
        _run_headline_pipeline(tmp_path)
        assert inversion_counts.evaluations == 288
        assert inversion_counts.solve_evaluations == 2_680

    def test_headline_solves_read_few_series_terms(self, inversion_counts, tmp_path):
        # series reads per height solved, heights at piece ends and forward
        # reads included: 4.34 on fixed 1/4 panels, 4.41 on doubling pieces
        # with a break every 1/4 in u, 5.69 with Brent in u across a whole
        # piece, 2.91 with Brent in v = rho - neck across it, 2.88 with
        # inverse series fitted on a piece's 65th height, and 2.64 with the
        # series fitted from the grid's demand: 3 038 non-zero heights,
        # 3 036 of them by Brent before, 1 483 Brent solves with the fits'
        # sample solves on the 65th height, and now 715, 480 of them the
        # sample solves of the 12 fits (72 where the piece u in [8, 16] is
        # halved in t, 24 elsewhere), and 2 reads per inverse read.  The
        # strip grid, mirrored about t = 0, holds 500 distinct non-zero |t|
        # per member; stepped from t = -50 it held 835 (3 708 solves).  The
        # certificate's 10x refinement follows the scanned minimum, whose
        # height moved 45.41 -> 31.4 with Brent in v and -> 38.6 with Brent
        # in u on the neck piece.  Brent's own reads are its evaluations
        # less the two tabulated ends of its bracket.  With the far field,
        # heights from t_far = 16.88 (d1) and 16.83 (d0) on are in closed
        # form: 2 006 of 3 036 (the refinement followed the least gap to
        # t = 16.835, where d0's radii were the far field's and d1's not
        # yet).  No piece u in [8, 16] was built or fitted, and the strip grid
        # asked u in [4, 8] for 60 and 59 heights below t_far, too few to
        # fit: 498 solves, 144 of them the sample solves of 6 fits, and 1.15
        # reads per height.  With t_far = 9.378 (d1) and 9.403 (d0), from the
        # tail less its leading term, 2 476 of 3 038 heights are in closed
        # form; the refinement follows the least gap to t = 31.45, in the
        # flat far field, and asks 19 heights per member that the coarse grid
        # does not hold (18 about t = 16.8).  Each table ends at u = 4, the
        # certificate's grid fits the piece u in [2, 4] of each member (109
        # heights below t_far on each), and the strip grid asks it for 54
        # and 55, too few to fit: 392 solves, 48 of them the sample solves of 2 fits,
        # and 0.77 reads per height
        _run_headline_pipeline(tmp_path)
        heights = sum(inversion_counts.radii.values())
        assert heights == 3_038
        assert sum(inversion_counts.far.values()) == 2_476
        assert sum(inversion_counts.solves.values()) == 392
        assert len(inversion_counts.inverses) == 2
        assert sum(inversion_counts.inverses.values()) == 2
        assert inversion_counts.series_reads <= 2.7 * heights

    def test_one_off_far_read(self, inversion_counts):
        # a table built for one read at rho = 1e4: 400 fixed 1/4 panels
        # (about 42 ms), 10 doubling pieces (about 0.7 ms), and 8 since the
        # first piece is u in [0, 1].  Each series is
        # read once for its piece's end height, and the last piece's once
        # more for the read; with a break every 1/4 in u it read 401 series
        lambda_height(CmcParams(0.25, 2.0), 1e4)
        assert sum(inversion_counts.pieces.values()) <= 12
        assert inversion_counts.series_reads <= 11

    def test_appendix_builds_two_tables_per_member(self, inversion_counts):
        H_values, d_values = [0.1, 0.4], [2.5, 100.0]
        verify_appendix(H_values, d_values)
        assert inversion_counts.builds == {
            (H, d, remainder): 1
            for H in H_values for d in d_values for remainder in (False, True)
        }


def _run_headline_pipeline(directory):
    from hcat import cli

    cert = str(directory / "cert.json")
    assert cli.run(["disjoint", "--H", ".25", "--d1", "3", "--solve-d0", "--out", cert]) == 0
    assert cli.run(["strips", "--cert", cert, "--out", str(directory / "strips.json"),
                    "--csv", str(directory / "margins.csv")]) == 0


class TestProfile:
    def test_starts_at_neck_and_is_monotone(self):
        p = CmcParams(0.25, 2.0)
        curve = profile(p, 6.0, 20)
        assert curve.samples[0] == ProfileSample(necksize(p), 0.0)
        rhos = [s.rho for s in curve.samples]
        ts = [s.t for s in curve.samples]
        assert all(b > a for a, b in zip(rhos, rhos[1:]))
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert rhos[-1] == pytest.approx(6.0, rel=1e-12)

    def test_grid_graded_toward_neck(self):
        curve = profile(CmcParams(0.25, 2.0), 6.0, 20)
        steps = [b.rho - a.rho for a, b in zip(curve.samples, curve.samples[1:])]
        assert all(b > a for a, b in zip(steps, steps[1:]))

    def test_csv_layout(self):
        curve = profile(CmcParams(0.25, 2.0), 4.0, 5)
        lines = curve.to_csv().splitlines()
        assert lines[0] == "rho,t"
        assert len(lines) == 6
        rho0, t0 = lines[1].split(",")
        assert float(rho0) == curve.samples[0].rho
        assert float(t0) == 0.0

    def test_non_monotone_samples_rejected(self):
        p = CmcParams(0.25, 2.0)
        with pytest.raises(PreconditionError):
            ProfileCurve(p, (ProfileSample(3.0, 0.0), ProfileSample(2.0, 1.0)))
        with pytest.raises(PreconditionError):
            ProfileCurve(p, (ProfileSample(2.0, 1.0), ProfileSample(3.0, 0.5)))

    def test_rho_max_must_clear_neck(self):
        with pytest.raises(PreconditionError):
            profile(CmcParams(0.25, 2.0), 1.0, 10)

    def test_entire_graph_profile_from_zero(self):
        curve = entire_graph_profile(0.3, 4.0, 16)
        assert curve.samples[0] == ProfileSample(0.0, 0.0)
        assert curve.params.is_entire_graph
        assert curve.samples[-1].t == pytest.approx(
            _mp_lambda(0.3, -0.6, 4.0), abs=1e-10
        )
