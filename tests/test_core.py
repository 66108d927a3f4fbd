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
    CmcParams,
    ProfileCurve,
    ProfileSample,
    b_grid,
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


def _mp_lambda_split(H, d, rho):
    """High-precision height in the factored form, u-interval split in four.

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
        return 2 * (d + 2 * H * mp.cosh(r)) / mp.sqrt(rad)

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
        with pytest.raises(ConvergenceError):
            b_inverse(CmcParams(0.25, 2.0), 5.0, rho_max=3.0)

    def test_grid_holds_each_distinct_height_once(self):
        p = CmcParams(0.25, 3.0)
        grid = b_grid(p, [2.0, -1.0, 0.0, 1.0, -2.0], QUAD_TOL)
        assert list(grid) == [0.0, 1.0, 2.0]
        for t, rho in grid.items():
            assert rho == pytest.approx(b_inverse(p, t), abs=1e-10)


# family members reached by the table tests: H across (0, 1/2) away from
# its ends, and d from a tiny neck through the paper's d1 = 3 and the
# threshold member d0(H, 3) to 1e6
TABLE_H = (0.01, 0.1, 0.25, 0.45)
TABLE_D = {
    "small_neck": lambda H: -2.0 * H + 1e-6,
    "zero": lambda H: 0.0,
    "three": lambda H: 3.0,
    "d0": lambda H: solve_d0(H, 3.0),
    "1e6": lambda H: 1e6,
}


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
class TestHeightTable:
    @pytest.mark.parametrize("kind", list(TABLE_D))
    @pytest.mark.parametrize("H", TABLE_H)
    def test_radii_invert_the_height_within_quad_tol(self, H, kind):
        d = TABLE_D[kind](H)
        ts = [0.01, 0.3, 7.0, 25.65, 50.0]
        grid = b_grid(CmcParams(H, d), ts, QUAD_TOL)
        worst = max(abs(_mp_lambda_split(H, d, grid[t]) - t) for t in ts)
        assert worst <= QUAD_TOL

    @given(
        H=st.floats(0.02, 0.45),
        offset=st.floats(1e-6, 1e6),
        ts=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_one_point_inversion_equals_the_grid_bit_for_bit(self, H, offset, ts):
        p = CmcParams(H, -2.0 * H + offset)
        grid = b_grid(p, ts, QUAD_TOL)
        for t in ts:
            assert b_inverse(p, t) == grid[abs(t)]

    def test_radius_beyond_rho_max_raises(self):
        # rho_max = 3 falls inside the panel [0.75, 1] of u (u_cap = 0.94), so
        # the cap binds on the root found there, not on the table's growth
        p = CmcParams(0.25, 2.0)
        t = lambda_height(p, 3.0)
        with pytest.raises(ConvergenceError):
            b_inverse(p, t + 1e-3, rho_max=3.0)
        assert b_inverse(p, t - 1e-3, rho_max=3.0) < 3.0

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

    @pytest.mark.xfail(strict=True, reason="QUADPACK accepts a panel that is off by 7e-10")
    def test_height_within_quad_tol(self):
        d = solve_d0(DEFECT_H, DEFECT_D1)
        want = _mp_lambda_split(DEFECT_H, d, DEFECT_RHO)
        assert lambda_height(CmcParams(DEFECT_H, d), DEFECT_RHO) == pytest.approx(
            want, abs=QUAD_TOL
        )


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
