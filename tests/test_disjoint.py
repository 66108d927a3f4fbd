"""Threshold equation, gap scans, and certificate assembly/serialization."""

import json
import math

import pytest

from hcat.core import CmcParams, necksize
from hcat.disjoint import (
    DisjointnessCertificate,
    certify,
    gap,
    separation_lower_bound,
    solve_d0,
)
from hcat.errors import CertificationFailure, PreconditionError

# closed-form rearrangement of the threshold equation, 40-digit: for
# H = 0.25, d1 = 3,
# d0 = sqrt((d1^2 + 1 - 4H^2) exp(2 (4 pi sqrt(1-2H) + 4H/sqrt(1-4H^2))) - (1-4H^2))
D0_H25_D1_3 = 71617.88105161107681734899


def _d0_closed_form(H, d1):
    q = 1.0 - 4.0 * H * H
    rhs = 4.0 * math.pi * math.sqrt(1.0 - 2.0 * H) + 4.0 * H / math.sqrt(q)
    return math.sqrt((d1 * d1 + q) * math.exp(2.0 * rhs) - q)


class TestThreshold:
    def test_lhs_at_d1_is_pure_bound_term(self):
        # the log ratio vanishes at d2 = d1
        H, d1 = 0.25, 3.0
        # sqrt(q)/(2H) * 2 pi sqrt(1-2H), with 2H = 1/2
        want = -math.sqrt(0.75) * 4.0 * math.pi * math.sqrt(0.5)
        assert separation_lower_bound(H, d1, d1) == pytest.approx(want, rel=1e-14)

    def test_solver_matches_frozen_and_closed_form(self):
        d0 = solve_d0(0.25, 3.0)
        assert d0 == pytest.approx(D0_H25_D1_3, rel=1e-11)
        assert d0 == pytest.approx(_d0_closed_form(0.25, 3.0), rel=1e-11)

    @pytest.mark.parametrize("H,d1", [(0.1, 2.5), (0.25, 10.0), (0.4, 3.0)])
    def test_solver_against_closed_form(self, H, d1):
        assert solve_d0(H, d1) == pytest.approx(_d0_closed_form(H, d1), rel=1e-10)

    def test_requires_d1_above_2(self):
        with pytest.raises(PreconditionError):
            solve_d0(0.25, 2.0)

    def test_separation_bound_is_one_at_threshold(self):
        # the solver's equation is this bound at value 1
        H, d1 = 0.25, 3.0
        d0 = solve_d0(H, d1)
        assert separation_lower_bound(H, d1, d0) == pytest.approx(1.0, rel=1e-9)

    def test_separation_bound_negative_for_close_pairs(self):
        assert separation_lower_bound(0.25, 3.0, 3.5) < 0.0


class TestGap:
    def test_even_in_t(self):
        assert gap(0.25, 3.0, 6.0, -2.0) == gap(0.25, 3.0, 6.0, 2.0)

    def test_value_at_zero_is_necksize_difference(self):
        g0 = gap(0.25, 3.0, 6.0, 0.0)
        want = necksize(CmcParams(0.25, 6.0)) - necksize(CmcParams(0.25, 3.0))
        assert g0 == pytest.approx(want, abs=1e-14)

    def test_rejects_unordered_pair(self):
        with pytest.raises(PreconditionError):
            gap(0.25, 6.0, 3.0, 1.0)

    def test_decreasing_in_t(self):
        gaps = [gap(0.25, 3.0, 6.0, t) for t in (0.0, 1.0, 3.0, 8.0)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


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
        g = gap(small_cert.H, small_cert.d1, small_cert.d2, small_cert.min_gap_t)
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

    def test_failure_carries_location(self):
        # an impossible monotone tolerance forces a certification failure
        with pytest.raises(CertificationFailure) as exc_info:
            certify(0.25, 3.0, 6.0, t_max=1.0, grid_step=0.5, monotone_tol=-1.0)
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
