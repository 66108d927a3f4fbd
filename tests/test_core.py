"""Profile-curve numerics: necksize, height quadrature, decomposition,
inversion.  Frozen constants come from 40-digit mpmath evaluations of the
closed forms; integrals are cross-checked by an independent Gauss-Jacobi
quadrature of the raw singular integrand."""

import contextlib
import math
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_jacobi

from hcat.core import (
    _LARGE_R,
    ROOT_TOL,
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
    _series_at,
    _substituted,
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

    def test_height_beyond_every_finite_radius_raises(self):
        # the height at the largest float radius is about 1.0379e308 here
        with pytest.raises(DomainError, match=r"no finite radius reaches height t = 1\.7e\+308"):
            b_inverse(CmcParams(0.25, 3.0), 1.7e308)

    def test_grid_holds_each_distinct_height_once(self):
        p = CmcParams(0.25, 3.0)
        table = HeightTable(p)
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
        # one series spans [u, 2u] from u = 1/4 on, and the breaks are the
        # pieces' ends; fixed 1/4 panels held 32 series up to u = 8
        table = HeightTable(CmcParams(0.25, 3.0))
        table.integral(table.params.eta + 64.0)
        assert table.breaks == [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
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
        # the integrand turns on a scale of (d + 2H)^(1/4) in u near the floor
        table = HeightTable(CmcParams(0.25, -0.5 + 1e-12))
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
            HeightTable(CmcParams(0.25, 3.0), remainder=True).radius(1.0)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, 1.0])
    def test_read_outside_the_table_raises(self, rho):
        # the neck of (.25, 3) is at 2.44
        with pytest.raises(DomainError):
            lambda_height(CmcParams(0.25, 3.0), rho)

    def test_inversion_stays_finite_at_the_top_of_the_float_range(self):
        # the piece [2^511, 2^512] of u holds the largest float radius, and
        # its end, where u^2 overflows, holds a height just above `top`
        p = CmcParams(0.25, 3.0)
        table = HeightTable(p)
        top = lambda_height(p, sys.float_info.max, table=table)
        assert table.breaks[-1] == 2.0**512 and table.heights[-1] > top
        assert table.radius(top) == sys.float_info.max
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
        # t = 1.7e308 lies in the piece whose end height is infinite; Brent
        # runs on a bracket bisected down to a finite end.  No float radius
        # has a finite height at or above the largest float
        p = CmcParams(0.4999, 3.0)
        table = HeightTable(p)
        rho = table.radius(1.7e308)
        assert rho < math.inf
        assert lambda_height(p, rho, table=table) == pytest.approx(1.7e308, rel=1e-15)
        with pytest.raises(DomainError,
                           match=r"no finite radius reaches height t = 1\.7976931348623157e\+308"):
            table.radius(sys.float_info.max)


def _brent_outcome(solve, *args, **kwargs):
    """The root's bits and the RootResult of a Brent solve, or the type of
    the error it raised."""
    try:
        root, result = solve(*args, full_output=True, **kwargs)
    except (ConvergenceError, DomainError) as error:
        return type(error)
    return root.hex(), result


class TestBrentKernel:
    @given(
        H=st.floats(0.02, 0.4999),
        d=st.floats(-1.0, 1e6),
        t=st.floats(1e-9, 1e4),
        k=st.integers(1, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_the_generic_brent_bit_for_bit(self, H, d, t, k):
        # every bracket the table hands `core.brentq`, solved again by
        # `numerics.brentq` on the piece's excess as a closure that returns
        # the bracket's end values at its ends: the same root, bit for bit,
        # after the same number of evaluations.  Heights: t, a tabulated
        # piece end and the floats either side of it, and just below the
        # height at the largest float radius (where that height overflows,
        # H above about .354, inside the piece whose end height is infinite),
        # and a third of the way up the piece from the neck.  On that piece
        # the kernel solves in u, elsewhere in v = u^2, and the excess follows
        # the same variable.  Should Brent use up its 100 iterations, both
        # routines must fail alike
        from hcat import core, numerics

        table = HeightTable(CmcParams(H, max(d, -2.0 * H + 1e-12)))
        kernel, brackets = core.brentq, []

        def spy(*args, **kwargs):
            brackets.append((args, kwargs))
            return kernel(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "brentq", spy)
            try:
                top = math.nextafter(table.integral(sys.float_info.max), 0.0)
            except DomainError:
                top = 0.999 * sys.float_info.max
            end = table.heights[min(k, len(table.heights) - 1)]
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
                return start + _series_at(series, math.sqrt(x) if in_v else x) - s

            assert _brent_outcome(kernel, series, start, s, a, b, fa, fb, in_v=in_v,
                                  **kwargs) == (
                _brent_outcome(numerics.brentq, excess, a, b, **kwargs))


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
    """n heights spread evenly inside piece i, asked in turn: (heights,
    *_ask(table, heights))."""
    a, b = table.heights[i], table.heights[i + 1]
    ts = [a + (b - a) * (j + 0.5) / n for j in range(n)]
    return (ts, *_ask(table, ts))


def _ask(table, ts):
    """The radii of the heights ts, asked in turn, and the reads an inverse
    series certified: (radii, {t: (piece, u)})."""
    from hcat import core

    read, accepted = core.HeightTable._read_inverse, {}

    def spy(self, i, inverse, t):
        u = read(self, i, inverse, t)
        if u is not None:
            accepted[t] = i, u
        return u

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core.HeightTable, "_read_inverse", spy)
        radii = [table.radius(t) for t in ts]
    return radii, accepted


def _u_gap(params, rho1, rho2):
    return abs(math.sqrt(rho1 - params.eta) - math.sqrt(rho2 - params.eta))


class TestInverseReads:
    # a piece builds its inverse series on its 65th distinct height
    @given(H=st.floats(0.02, 0.4999), d=st.floats(0.0, 1e6), i=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_dense_grid_reads_within_root_tol(self, H, d, i):
        p = CmcParams(H, d)
        table = HeightTable(p)
        table.integral(p.eta + 256.0)
        ts, radii, accepted = _ask_piece(table, i, 144)
        assert table.inverses[i] and accepted
        for t, rho in zip(ts, radii):
            assert _u_gap(p, rho, b_inverse(p, t)) <= ROOT_TOL
        # each accepted read is within ROOT_TOL of the root it certifies
        for t, (_, u) in accepted.items():
            assert abs(u - _series_root(table, i, t)) <= ROOT_TOL

    def test_headline_reads_are_certified(self):
        # the certificate's coarse grid on the headline member: its three
        # outer pieces, asked 139, 555 and 228 heights, read all but their
        # first 64 from their inverse series
        from hcat.disjoint import height_grid

        table = HeightTable(CmcParams(0.25, 3.0))
        _, accepted = _ask(table, height_grid(0.0, 50.0, 0.05))
        assert len(accepted) == 139 + 555 + 228 - 3 * 64
        assert {i for i, _ in accepted.values()} == {4, 5, 6}
        for t, (i, u) in accepted.items():
            assert abs(u - _series_root(table, i, t)) <= ROOT_TOL

    @pytest.mark.parametrize("give_up", ["series", "residual"])
    def test_reads_fall_back_to_brent(self, give_up, monkeypatch):
        # at (.002, 10) the radius jumps across the piece u in [2, 4]: its
        # inverse series' tail is 3.4e-6, and three halvings in t resolve it.
        # Kept whole it is given up; with the residual's slack widened after
        # the build no read passes.  Either way every height is Brent's
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
        # the first 64 heights are Brent's, the rest read
        assert len(accepted) == 200 - 64
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
        # of 5 pieces (u up to sqrt(10)) for each of 12 members take 2 880
        from hcat import cli

        assert cli.run(["verify-appendix", "--out", str(tmp_path / "a.json")]) == 0
        assert inversion_counts.evaluations == 2_880

    def test_appendix_at_800_radii(self, inversion_counts):
        # the benchmark's forward sweep: 643 692 with one QAGS per radius;
        # the radii reach no further than at the defaults, so 2 880
        verify_appendix([0.1, 0.25, 0.4], [2.5, 3.0, 10.0, 100.0], grid_points=800)
        assert inversion_counts.evaluations == 2_880

    def test_pair_of_the_cold_scan(self, inversion_counts, tmp_path):
        # one pair of the benchmark's pair scan: 2 070 on fixed 1/4 panels,
        # 540 on doubling pieces with a QAGS total beside each series, and
        # 288 on the series alone (12 pieces)
        from hcat import cli

        assert cli.run(["disjoint", "--H", ".25", "--d1", "3", "--d2", "30", "--t-max", "20",
                        "--step", ".5", "--out", str(tmp_path / "c.json")]) == 0
        assert inversion_counts.evaluations == 288
        # no piece is asked for more than 64 heights, so no inverse series is
        # built, and Brent solves every height: 98 solves of 535 evaluations,
        # as before inverse series
        assert inversion_counts.inverses == {}
        assert sum(inversion_counts.solves.values()) == 98
        assert inversion_counts.solve_evaluations == 535

    def test_headline_pipeline(self, inversion_counts, tmp_path):
        # 6 660 on fixed 1/4 panels, 1 260 on doubling pieces with a QAGS
        # total beside each series, and 672 on the series alone (28 pieces).
        # Brent evaluates its excess 7 618 times over its 1 483 solves, the
        # two tabulated ends of each bracket included: the traced
        # `core.brentq.evals`.  It took 14 884 over 3 036 solves before the
        # outer pieces read inverse series, and 14 822 with Brent in u on
        # the neck piece alone
        _run_headline_pipeline(tmp_path)
        assert inversion_counts.evaluations == 672
        assert inversion_counts.solve_evaluations == 7_618

    def test_headline_solves_read_few_series_terms(self, inversion_counts, tmp_path):
        # series reads per height solved, heights at piece ends and forward
        # reads included: 4.34 on fixed 1/4 panels, 4.41 on doubling pieces
        # with a break every 1/4 in u, 5.69 with Brent in u across a whole
        # piece, 2.91 with Brent in v = rho - neck across it, and 2.88 with
        # inverse series on the busy pieces: 3 038 non-zero heights, 3 036
        # of them by Brent before, now 1 483 Brent solves with the 24 of each
        # inverse series' fit, and 2 reads per inverse read.  The strip grid,
        # mirrored about t = 0, holds 500 distinct non-zero |t| per member;
        # stepped from t = -50 it held 835 (3 708 solves).  The certificate's
        # 10x refinement follows the scanned minimum, whose height moved
        # 45.41 -> 31.4 with Brent in v and -> 38.6 with Brent in u on the
        # neck piece.  Brent's own reads are its evaluations less the two
        # tabulated ends of its bracket
        _run_headline_pipeline(tmp_path)
        heights = sum(inversion_counts.radii.values())
        assert heights == 3_038
        assert sum(inversion_counts.solves.values()) == 1_483
        assert inversion_counts.series_reads <= 2.9 * heights

    def test_one_off_far_read(self, inversion_counts):
        # a table built for one read at rho = 1e4: 400 fixed 1/4 panels
        # (about 42 ms), 10 doubling pieces (about 0.7 ms).  Each series is
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
