"""Profile-curve numerics: necksize, height quadrature, decomposition,
inversion.  Frozen constants come from 40-digit mpmath evaluations of the
closed forms; integrals are cross-checked by an independent Gauss-Jacobi
quadrature of the raw singular integrand."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_jacobi

from hcat.core import (
    _LARGE_R,
    QUAD_TOL,
    RHO_MAX_DEFAULT,
    CmcParams,
    HeightTable,
    ProfileCurve,
    ProfileSample,
    b_inverse,
    entire_graph_profile,
    f_asymptote,
    f_closed,
    g_residual,
    integrand,
    j_bound_witness,
    j_remainder,
    lambda_height,
    necksize,
    profile,
    verify_appendix,
    _substituted,
)
from hcat.disjoint import solve_d0
from hcat.errors import ConvergenceError, DomainError, PreconditionError

# acosh((2dH + sqrt(1-4H^2+d^2)) / (1-4H^2)) at H = 0.25, d = 2, 40 digits
NECK_H25_D2 = 2.12332671310460198891336
# closed-form residual at the neck for the same parameters:
# -(2H/sqrt(1-4H^2)) (neck + ln((1-4H^2)/sqrt(d^2+1-4H^2)))
G_AT_NECK_H25_D2 = -0.6100123200846290089334066


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
# scan reaches for t = 25.65: QUADPACK accepts one 21-point Gauss-Kronrod
# panel there whose true error is 7.06e-10
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
        # substituted adaptive Gauss-Kronrod vs Gauss-Jacobi on the raw
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
        assert g_residual(p, necksize(p)) == pytest.approx(
            G_AT_NECK_H25_D2, abs=1e-14
        )

    def test_residual_decays_to_zero(self):
        p = CmcParams(0.25, 2.0)
        vals = [abs(g_residual(p, necksize(p) + 2.0**k)) for k in range(6)]
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

    def test_unreachable_height_raises(self):
        # the height at RHO_MAX_DEFAULT is about 5 774 here
        with pytest.raises(ConvergenceError):
            b_inverse(CmcParams(0.25, 2.0), 1e4)

    def test_grid_holds_each_distinct_height_once(self):
        p = CmcParams(0.25, 3.0)
        table = HeightTable(p, QUAD_TOL)
        radii = [table.radius(t) for t in (2.0, -1.0, 0.0, 1.0, -2.0)]
        assert sorted(table.radii) == [0.0, 1.0, 2.0]
        assert radii[0] == radii[4] and radii[1] == radii[3]
        for t, rho in table.radii.items():
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


@pytest.mark.filterwarnings("error::hcat.errors.IntegrationWarning")
class TestHeightTable:
    @pytest.mark.parametrize("kind", list(TABLE_D))
    @pytest.mark.parametrize("H", TABLE_H)
    def test_radii_invert_the_height_within_quad_tol(self, H, kind):
        # a float radius b can be no closer than one spacing ulp(b) to the
        # exact root, which moves the height by integrand(b) * ulp(b); that
        # stays below QUAD_TOL (at most 3.6e-12) for H <= .45 and reaches
        # 7e-9 at H = .4999 and t = .01, where the height is steep at the neck
        d = TABLE_D[kind](H)
        ts = [0.01, 0.3, 7.0, 25.65, 50.0]
        p = CmcParams(H, d)
        table = HeightTable(p, QUAD_TOL)
        for t in ts:
            b = table.radius(t)
            resolution = integrand(p, b) * math.ulp(b)
            assert abs(_mp_lambda_split(H, d, b) - t) <= max(QUAD_TOL, resolution)

    @given(
        H=st.floats(0.02, 0.4999),
        offset=st.floats(1e-12, 1e6),
        ts=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_one_point_inversion_equals_the_grid_bit_for_bit(self, H, offset, ts):
        # one shared table, asked for every height in turn
        p = CmcParams(H, -2.0 * H + offset)
        table = HeightTable(p, QUAD_TOL)
        radii = [table.radius(t) for t in ts]
        for t, rho in zip(ts, radii):
            assert b_inverse(p, t) == rho

    def test_floor_member_splits_panel_zero(self):
        # the integrand turns on a scale of (d + 2H)^(1/4) in u near the floor
        table = HeightTable(CmcParams(0.25, -0.5 + 1e-12), QUAD_TOL)
        table.radius(1.0)
        panel0 = [u for u in table.breaks if 0.0 < u <= 0.25]
        assert panel0[-1] == 0.25
        assert 1 < len(panel0) <= 14
        assert min(table.breaks[1:]) >= 0.25 * 2.0**-13

    def test_depth_cap_raises(self, monkeypatch):
        from hcat import core

        monkeypatch.setattr(core, "_MAX_DEPTH", 2)
        with pytest.raises(ConvergenceError):
            b_inverse(CmcParams(0.25, -0.5 + 1e-12), 1.0)

    def test_remainder_table_does_not_invert(self):
        with pytest.raises(PreconditionError):
            HeightTable(CmcParams(0.25, 3.0), QUAD_TOL, remainder=True).radius(1.0)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, 1.0])
    def test_read_outside_the_table_raises(self, rho):
        # the neck of (.25, 3) is at 2.44
        with pytest.raises(DomainError):
            lambda_height(CmcParams(0.25, 3.0), rho)

    def test_radius_beyond_rho_max_raises(self):
        # RHO_MAX_DEFAULT falls inside the panel [99.75, 100] of u (u_cap =
        # 99.989), so the cap binds on the root found there, not on the
        # table's growth
        p = CmcParams(0.25, 2.0)
        t = lambda_height(p, RHO_MAX_DEFAULT)
        with pytest.raises(ConvergenceError):
            b_inverse(p, t + 1e-3)
        assert b_inverse(p, t - 1e-3) < RHO_MAX_DEFAULT

    def test_non_finite_height_rejected(self):
        with pytest.raises(DomainError):
            b_inverse(CmcParams(0.25, 3.0), math.nan)


class TestHeightAccuracyAtThresholdMember:
    def test_split_oracle_agrees_with_single_interval_route(self):
        d = solve_d0(DEFECT_H, DEFECT_D1)
        split = _mp_lambda_split(DEFECT_H, d, DEFECT_RHO)
        assert split == pytest.approx(_mp_lambda(DEFECT_H, d, DEFECT_RHO), abs=1e-12)

    def test_inversion_within_quad_tol(self):
        # the inversion integrates fixed panels, never the one wide panel
        # that QUADPACK accepts below
        d = solve_d0(DEFECT_H, DEFECT_D1)
        rho = b_inverse(CmcParams(DEFECT_H, d), 25.65)
        assert _mp_lambda_split(DEFECT_H, d, rho) == pytest.approx(25.65, abs=QUAD_TOL)

    def test_height_within_quad_tol(self):
        # one adaptive quad from the neck accepted a panel off by 7.06e-10
        # here; the table's panel sum reads the oracle value
        d = solve_d0(DEFECT_H, DEFECT_D1)
        want = _mp_lambda_split(DEFECT_H, d, DEFECT_RHO)
        assert lambda_height(CmcParams(DEFECT_H, d), DEFECT_RHO) == pytest.approx(
            want, abs=QUAD_TOL
        )


# both sides of the large-r branch switch _LARGE_R = 350, and far past it
FORWARD_RHO = (349.9, 350.1, 700.0)
FORWARD_MEMBERS = [(H, d) for H in (0.01, 0.25, 0.45) for d in (-2.0 * H + 1e-12, 3.0, 1e6)]


@pytest.mark.filterwarnings("error::hcat.errors.IntegrationWarning")
class TestForwardReads:
    @pytest.mark.parametrize("H,d", FORWARD_MEMBERS)
    def test_height_and_remainder_within_quad_tol(self, H, d):
        p = CmcParams(H, d)
        for rho in FORWARD_RHO:
            assert lambda_height(p, rho) == pytest.approx(
                _mp_lambda_split(H, d, rho), abs=QUAD_TOL)
            assert j_remainder(p, rho) == pytest.approx(
                _mp_lambda_split(H, d, rho, remainder=True), abs=QUAD_TOL)

    @pytest.mark.parametrize("H,d", [(0.25, -0.5 + 1e-12), (0.45, 3.0)])
    def test_profile_within_quad_tol(self, H, d):
        p = CmcParams(H, d)
        for rho_max in FORWARD_RHO:
            # samples[0] is the neck at height 0
            for sample in profile(p, rho_max, 3).samples[1:]:
                assert sample.t == pytest.approx(
                    _mp_lambda_split(H, d, sample.rho), abs=QUAD_TOL)

    @pytest.mark.parametrize("H,d", [(0.01, 1e6), (0.25, 3.0), (0.45, -0.9 + 1e-12)])
    def test_reads_past_the_inversion_cap(self, H, d):
        # only inversion stops at RHO_MAX_DEFAULT; past it the panels double
        # in u, so ~14 panels reach 1e12 on top of the 400 below the cap (and
        # up to 14 pieces split from panel 0 on the floor member)
        p = CmcParams(H, d)
        table = HeightTable(p, QUAD_TOL)
        for rho in (2.0 * RHO_MAX_DEFAULT, 1e6, 1e12):
            # each panel's quad meets QUAD_TOL or a relative 1e-12
            assert lambda_height(p, rho, table=table) == pytest.approx(
                _mp_lambda_split(H, d, rho), abs=QUAD_TOL, rel=1e-12)
        assert len(table.pieces) <= 4 * math.sqrt(RHO_MAX_DEFAULT) + 30
        with pytest.raises(ConvergenceError):
            table.radius(lambda_height(p, 2.0 * RHO_MAX_DEFAULT, table=table))
        if d > 0:
            assert j_remainder(p, 1e12) == pytest.approx(
                _mp_lambda_split(H, d, 1e12, remainder=True), abs=QUAD_TOL)

    def test_profile_past_the_inversion_cap(self):
        curve = profile(CmcParams(0.25, 3.0), 1e6, 5)
        assert curve.samples[-1].t == pytest.approx(
            _mp_lambda_split(0.25, 3.0, 1e6), abs=QUAD_TOL, rel=1e-12)

    def test_reads_share_the_table_they_are_given(self, inversion_counts):
        p = CmcParams(0.25, 3.0)
        heights = HeightTable(p, QUAD_TOL)
        remainders = HeightTable(p, QUAD_TOL, remainder=True)
        for rho in (3.0, 5.0, 4.0):
            assert lambda_height(p, rho, table=heights) == heights.integral(rho)
            assert j_remainder(p, rho, table=remainders) == remainders.integral(rho)
        assert inversion_counts.builds == {(0.25, 3.0, False): 1, (0.25, 3.0, True): 1}

    @pytest.mark.parametrize("other", [
        HeightTable(CmcParams(0.25, 2.0), QUAD_TOL),
        HeightTable(CmcParams(0.25, 3.0), 1e-8),
        HeightTable(CmcParams(0.25, 3.0), QUAD_TOL, remainder=True),
    ])
    def test_a_table_of_another_member_is_refused(self, other):
        with pytest.raises(PreconditionError):
            lambda_height(CmcParams(0.25, 3.0), 3.0, table=other)

    def test_entire_graph_reads_the_table(self):
        # d = -2H: a height table without the remainder
        p = CmcParams(0.25, -0.5)
        assert lambda_height(p, 350.1) == pytest.approx(
            _mp_lambda_split(0.25, -0.5, 350.1), abs=QUAD_TOL)
        with pytest.raises(PreconditionError):
            j_remainder(p, 1.0)


class TestEvaluationCounts:
    # every evaluation of the substituted integrand, Chebyshev samples and
    # quad nodes alike
    def test_appendix_defaults(self, inversion_counts, tmp_path):
        # one adaptive quad from the neck per radius and integrand took
        # 40 614 here; two tables of 13 panels per member take 14 040, a
        # floor of 13 * (21 quad nodes + 24 samples) per table
        from hcat import cli

        assert cli.run(["verify-appendix", "--out", str(tmp_path / "a.json")]) == 0
        assert 2.5 * inversion_counts.evaluations <= 40_614

    def test_appendix_at_800_radii(self, inversion_counts):
        # the benchmark's forward sweep: 643 692 with one quad per radius
        verify_appendix([0.1, 0.25, 0.4], [2.5, 3.0, 10.0, 100.0], grid_points=800)
        assert 10 * inversion_counts.evaluations <= 643_692

    def test_appendix_builds_two_tables_per_member(self, inversion_counts):
        H_values, d_values = [0.1, 0.4], [2.5, 100.0]
        verify_appendix(H_values, d_values)
        assert inversion_counts.builds == {
            (H, d, remainder): 1
            for H in H_values for d in d_values for remainder in (False, True)
        }


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
