"""Threshold equation, gap scans, and certificate assembly/serialization."""

import json
import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from hcat.core import CmcParams, HeightTable, necksize
from hcat.disjoint import (
    DisjointnessCertificate,
    certify,
    height_grid,
    separation_lower_bound,
    solve_d0,
)
from hcat.errors import CertificationFailure, PreconditionError

EPS = 2.0**-52

# closed-form rearrangement of the threshold equation, 40-digit: for
# H = 0.25, d1 = 3,
# d0 = sqrt((d1^2 + 1 - 4H^2) exp(2 (4 pi sqrt(1-2H) + 4H/sqrt(1-4H^2))) - (1-4H^2))
D0_H25_D1_3 = 71617.88105161107681734899


def _k(H):
    """k = 4H/sqrt(q) + 4 pi sqrt(1-2H), q = 1 - 4H^2: d0 = sqrt((d1^2+q) e^{2k} - q)."""
    q = (1.0 - 2.0 * H) * (1.0 + 2.0 * H)
    return 4.0 * H / math.sqrt(q) + 4.0 * math.pi * math.sqrt(1.0 - 2.0 * H)


def _mp_d0(H, d1):
    """The threshold equation's closed-form root, at 40 digits."""
    with mp.workdps(40):
        H, d1 = mp.mpf(H), mp.mpf(d1)
        q = 1 - 4 * H**2
        k = 4 * H / mp.sqrt(q) + 4 * mp.pi * mp.sqrt(1 - 2 * H)
        return float(mp.sqrt((d1**2 + q) * mp.exp(2 * k) - q))


def _mp_separation(H, d1, d2):
    """`separation_lower_bound` at 40 digits."""
    with mp.workdps(40):
        H = mp.mpf(H)
        q = 1 - 4 * H**2
        ratio_log = (mp.log(mp.mpf(d2) ** 2 + q) - mp.log(mp.mpf(d1) ** 2 + q)) / 2
        return float(mp.sqrt(q) / (2 * H) * (ratio_log / 2 - 2 * mp.pi * mp.sqrt(1 - 2 * H)))


def _gap(H, d1, d2, t):
    """Radial gap b_{d2}(t) - b_{d1}(t), from one height table per member."""
    return HeightTable(CmcParams(H, d2)).radius(t) - HeightTable(CmcParams(H, d1)).radius(t)


class TestThreshold:
    def test_lhs_at_d1_is_pure_bound_term(self):
        # the log ratio vanishes at d2 = d1
        H, d1 = 0.25, 3.0
        # sqrt(q)/(2H) * 2 pi sqrt(1-2H), with 2H = 1/2
        want = -math.sqrt(0.75) * 4.0 * math.pi * math.sqrt(0.5)
        assert separation_lower_bound(H, d1, d1) == pytest.approx(want, rel=1e-14)

    def test_solver_matches_frozen_and_closed_form(self):
        d0 = solve_d0(0.25, 3.0)
        bound = 2.0 * (_k(0.25) + 1.0) * EPS
        assert d0 == pytest.approx(D0_H25_D1_3, rel=bound, abs=0.0)
        assert d0 == pytest.approx(_mp_d0(0.25, 3.0), rel=bound, abs=0.0)

    @pytest.mark.parametrize("H,d1", [(0.1, 2.5), (0.25, 10.0), (0.4, 3.0)])
    def test_solver_against_closed_form(self, H, d1):
        assert solve_d0(H, d1) == pytest.approx(_mp_d0(H, d1), rel=2.0 * (_k(H) + 1.0) * EPS,
                                                abs=0.0)

    @given(H=st.one_of(st.floats(1e-4, 0.4999),
                       st.floats(-323.0, -4.0).map(lambda e: 10.0**e)),
           log_d1=st.floats(math.log10(2.0), 150.0))
    @settings(max_examples=200, deadline=None)
    def test_solver_within_2_k_plus_1_eps_of_mpmath(self, H, log_d1):
        # rounding k alone moves e^k by about k eps / 2.  Below H = 1e-4 the
        # bound's residual, checked to 1e-10 once, grew like sqrt(q)/(2H)
        # times its rounding and refused correct roots (from H ~ 1e-6), or
        # was NaN (H = 5e-324, a denormal) and passed the check
        d1 = max(10.0**log_d1, math.nextafter(2.0, 3.0))
        assert solve_d0(H, d1) == pytest.approx(_mp_d0(H, d1), rel=2.0 * (_k(H) + 1.0) * EPS,
                                                abs=0.0)

    @pytest.mark.parametrize("H", [1e-6, 1e-8, 1e-12, 1e-300, 5e-324])
    def test_solver_at_small_h(self, H):
        assert solve_d0(H, 3.0) == pytest.approx(_mp_d0(H, 3.0), rel=2.0 * (_k(H) + 1.0) * EPS,
                                                 abs=0.0)

    def test_nan_residual_is_refused(self, monkeypatch):
        # `abs(nan - 1.0) > 1e-10` is False: a NaN residual once passed
        from hcat import disjoint

        monkeypatch.setattr(disjoint, "_bound_terms", lambda H, d1, d2: (math.nan, 1.0, 1.0))
        with pytest.raises(CertificationFailure, match="residual above tolerance"):
            solve_d0(0.25, 3.0)

    def test_solver_reaches_large_d1(self):
        # d0 = 2.29e294: bracket doubling on the bound with d squared met a NaN
        assert solve_d0(0.25, 1e290) == pytest.approx(_mp_d0(0.25, 1e290),
                                                      rel=2.0 * (_k(0.25) + 1.0) * EPS, abs=0.0)

    def test_overflowing_threshold_names_d1(self):
        with pytest.raises(PreconditionError, match=r"d1 = 1e\+305 overflows"):
            solve_d0(0.25, 1e305)

    def test_requires_d1_above_2(self):
        with pytest.raises(PreconditionError):
            solve_d0(0.25, 2.0)

    @pytest.mark.parametrize("H", [0.6, math.inf, 0.0, 0.5, math.nan])
    def test_h_outside_the_family_is_refused(self, H):
        # NaN once passed through the bound silently, and the threshold's
        # residual check with it
        with pytest.raises(PreconditionError, match=r"H must lie in \(0, 1/2\)"):
            separation_lower_bound(H, 3.0, 5.0)
        with pytest.raises(PreconditionError, match=r"H must lie in \(0, 1/2\)"):
            solve_d0(H, 3.0)

    def test_separation_bound_is_one_at_threshold(self):
        # the solver's equation is this bound at value 1
        H, d1 = 0.25, 3.0
        d0 = solve_d0(H, d1)
        assert separation_lower_bound(H, d1, d0) == pytest.approx(1.0, rel=1e-9)

    def test_separation_bound_negative_for_close_pairs(self):
        assert separation_lower_bound(0.25, 3.0, 3.5) < 0.0

    @pytest.mark.parametrize("H", [0.499, 0.4999])
    @pytest.mark.parametrize("d1, d2", [(3.0, 3.0), (3.0, 10.0), (2.5, 100.0), (3.0, 1e6)])
    def test_separation_bound_near_h_one_half(self, H, d1, d2):
        # q = 1 - 4H^2 formed as a difference is off by 2.6e-14 relative at
        # H = .4999, and the bound with it
        assert separation_lower_bound(H, d1, d2) == pytest.approx(
            _mp_separation(H, d1, d2), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("H", [0.1, 0.25, 0.4999])
    @pytest.mark.parametrize("d1, d2", [(3.0, 1e10), (3.0, 1e155), (2.5, 1e300),
                                        (1e155, 1e156), (1e150, 1e300)])
    def test_separation_bound_finite_for_large_d(self, H, d1, d2):
        # squared, d2 = 1e155 overflowed to inf, and d1 = 1e155 to NaN
        assert separation_lower_bound(H, d1, d2) == pytest.approx(
            _mp_separation(H, d1, d2), rel=1e-15, abs=0.0)

    def test_solver_near_h_one_half(self):
        # the 40-digit closed form; d0 = 2.7e14 here, and a difference-formed
        # q moved it by 1.8e-14 relative
        assert solve_d0(0.499, 3.0) == pytest.approx(_mp_d0(0.499, 3.0), rel=2e-15, abs=0.0)


class TestGap:
    def test_even_in_t(self):
        assert _gap(0.25, 3.0, 6.0, -2.0) == _gap(0.25, 3.0, 6.0, 2.0)

    def test_value_at_zero_is_necksize_difference(self):
        g0 = _gap(0.25, 3.0, 6.0, 0.0)
        want = necksize(CmcParams(0.25, 6.0)) - necksize(CmcParams(0.25, 3.0))
        assert g0 == pytest.approx(want, abs=1e-14)

    def test_rejects_unordered_pair(self):
        # the gap is scanned by `certify`, which takes d1 < d2 only
        with pytest.raises(PreconditionError, match="need d1 < d2"):
            certify(0.25, 6.0, 3.0, t_max=1.0)

    def test_decreasing_in_t(self):
        gaps = [_gap(0.25, 3.0, 6.0, t) for t in (0.0, 1.0, 3.0, 8.0)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestHeightGrid:
    def test_steps_past_the_cap_are_refused(self, monkeypatch):
        # the cap counts the steps of the whole range, both halves of a
        # mirrored grid together
        from hcat import disjoint

        monkeypatch.setattr(disjoint, "MAX_GRID_STEPS", 10)
        assert len(height_grid(0.0, 1.0, 0.1)) == len(height_grid(-0.5, 0.5, 0.1)) == 11
        for lo, hi in [(0.0, 1.2), (-0.6, 0.6)]:
            with pytest.raises(PreconditionError, match="MAX_GRID_STEPS = 10 steps"):
                height_grid(lo, hi, 0.1)


class TestCertify:
    def test_certificate_contents(self, small_cert):
        cert = small_cert
        assert cert.delta0 > 0.0
        assert cert.min_gap_observed >= cert.delta0
        assert cert.sup_gap == pytest.approx(
            necksize(CmcParams(cert.H, cert.d2)) - necksize(CmcParams(cert.H, cert.d1)),
            abs=1e-12,
        )
        assert cert.monotone_decreasing
        assert cert.min_gap_observed <= cert.sup_gap
        # d2 = 100 is far below the solved threshold ~7.2e4
        assert cert.beyond_lemma

    def test_scan_minimum_verified_pointwise(self, small_cert):
        g = _gap(small_cert.H, small_cert.d1, small_cert.d2, small_cert.min_gap_t)
        assert g == pytest.approx(small_cert.min_gap_observed, abs=1e-10)

    def test_negative_asymptotic_bound_ignored(self):
        cert = certify(0.25, 3.0, 3.2, t_max=1.0, grid_step=0.5)
        assert cert.asymptotic_bound < 0.0
        assert cert.delta0 == cert.min_gap_observed
        # a close pair certifies numerically only: it sits below the
        # threshold, outside the closed-form separation regime
        assert cert.beyond_lemma

    def test_rejects_bad_inputs(self):
        with pytest.raises(PreconditionError):
            certify(0.25, 3.0, 2.9, t_max=1.0)
        with pytest.raises(PreconditionError):
            certify(0.25, 1.5, 6.0, t_max=1.0)
        with pytest.raises(PreconditionError):
            certify(0.25, 3.0, 6.0, t_max=0.0)

    def test_scan_and_refinement_share_one_table_per_member(self, inversion_counts):
        # the refinement's heights overlap the coarse scan's; neither a
        # panel nor a height of either member is computed twice
        counts = inversion_counts
        certify(0.25, 3.0, 100.0, t_max=3.0, grid_step=0.5)
        assert counts.builds == {(0.25, 3.0, False): 1, (0.25, 100.0, False): 1}
        assert {d for d, *_ in counts.pieces} == {3.0, 100.0}
        assert max(counts.pieces.values()) == 1
        assert {d for d, _ in counts.solves} == {3.0, 100.0}
        assert max(counts.solves.values()) == 1

    def test_headline_pair_evaluates_the_integrand_5x_less(self, inversion_counts):
        # every evaluation of the substituted integrand counts: with one
        # adaptive quad per Brent step inside a panel this took 187 110, on
        # the Chebyshev panels it takes 3 330
        certify(0.25, 3.0, solve_d0(0.25, 3.0), t_max=50.0, grid_step=0.05)
        assert 5 * inversion_counts.evaluations <= 187_110

    def test_headline_least_gap_has_no_far_field_seam(self):
        # between the two members' t_far one radius is the far field's and
        # the other the table's.  While the far field left out the whole
        # tail (within ROOT_TOL / 2 in u of the radius, below it), the gap
        # dipped there: the least scanned gap read 10.012284523624452 at
        # t = 16.835, 3.9e-12 below the gap on either side.  With the tail's
        # leading term in closed form the gap is flat there too, and the
        # least gap is no lower than the flat far field's at t = 50
        d0 = solve_d0(0.25, 3.0)
        cert = certify(0.25, 3.0, d0, t_max=50.0, grid_step=0.05, d0=d0)
        assert cert.min_gap_observed >= _gap(0.25, 3.0, d0, 50.0) - 1e-13

    def test_failure_carries_location(self, monkeypatch):
        # an impossible monotone tolerance forces a certification failure
        from hcat import disjoint

        monkeypatch.setattr(disjoint, "MONOTONE_TOL", -1.0)
        with pytest.raises(CertificationFailure) as exc_info:
            certify(0.25, 3.0, 6.0, t_max=1.0, grid_step=0.5)
        assert exc_info.value.t is not None


class TestSerialization:
    def test_json_round_trip(self, small_cert):
        data = json.loads(json.dumps(small_cert.to_json_dict(), indent=2, sort_keys=True))
        assert DisjointnessCertificate.from_json_dict(data) == small_cert

    def test_missing_field_rejected(self, small_cert):
        data = small_cert.to_json_dict()
        del data["delta0"]
        with pytest.raises(KeyError):
            DisjointnessCertificate.from_json_dict(data)
