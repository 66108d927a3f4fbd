"""Shifted-barrier strip checks and the intermediate-parameter sweep."""

import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from hcat.core import CmcParams, necksize
from hcat.disjoint import height_grid
from hcat.errors import PreconditionError
from hcat.strips import (
    StripOffsets,
    compute_offsets,
    pair_radii,
    remark_sweep,
    verify_c3_lemma,
    verify_strip_claim,
    write_margin_csv,
)

T_GRID = [k * 0.5 - 2.0 for k in range(9)]  # [-2, 2] step 0.5


@pytest.fixture(scope="module")
def small_pair(small_cert):
    return pair_radii(small_cert, -2.0, 2.0, 0.5)


class TestOffsets:
    def test_small_neck_branch(self, small_cert):
        # neck of the inner surface is smaller than the scanned gap here
        offsets = compute_offsets(small_cert)
        eta1 = necksize(CmcParams(small_cert.H, small_cert.d1))
        assert offsets.delta == small_cert.min_gap_observed
        assert offsets.delta1 == pytest.approx(0.5 * eta1)
        assert offsets.delta2 == pytest.approx(offsets.delta - 0.5 * offsets.delta1)
        assert offsets.delta1 + offsets.delta2 > offsets.delta

    def test_small_gap_branch(self):
        from hcat.disjoint import certify

        cert = certify(0.25, 3.0, 3.2, t_max=1.0, grid_step=0.5)
        offsets = compute_offsets(cert)
        eta1 = necksize(CmcParams(0.25, 3.0))
        assert offsets.delta < eta1
        assert offsets.delta1 == pytest.approx(0.5 * offsets.delta)
        assert offsets.delta1 + offsets.delta2 > offsets.delta

    def test_rejects_nonpositive_gap(self, small_cert):
        from dataclasses import replace

        broken = replace(small_cert, min_gap_observed=0.0)
        with pytest.raises(PreconditionError):
            compute_offsets(broken)


class TestStripClaim:
    def test_all_checks_pass_with_positive_margin(self, small_cert, small_pair):
        offsets = compute_offsets(small_cert)
        report = verify_strip_claim(small_pair, offsets)
        assert report.passed
        assert report.min_margin > 0.0
        assert report.kind == "strip_claim"
        # six named checks per height
        assert len(report.records) == 6 * len(T_GRID)
        ids = {r.check_id for r in report.records}
        assert ids == {
            "center1_inside",
            "shifted1_meets_inner",
            "shifted1_clears_outer",
            "center2_inside",
            "shifted2_meets_outer",
            "shifted2_clears_inner",
        }

    def test_min_margin_is_the_actual_minimum(self, small_cert, small_pair):
        offsets = compute_offsets(small_cert)
        report = verify_strip_claim(small_pair, offsets)
        assert report.min_margin == min(r.margin for r in report.records)

    def test_absurd_offsets_fail_cleanly(self, small_cert):
        # a shift larger than the whole gap cannot clear the outer circle
        offsets = StripOffsets(delta=50.0, delta1=25.0, delta2=37.5)
        report = verify_strip_claim(pair_radii(small_cert, 0.0, 0.0, 1.0), offsets)
        assert not report.passed
        assert report.min_margin < 0.0

    def test_nonpositive_offsets_rejected(self, small_cert):
        with pytest.raises(PreconditionError):
            verify_strip_claim(
                pair_radii(small_cert, 0.0, 0.0, 1.0), StripOffsets(1.0, 0.0, 1.0)
            )


class TestC3Lemma:
    def test_all_checks_pass(self, small_pair):
        report = verify_c3_lemma(small_pair)
        assert report.passed
        assert report.min_margin > 0.0
        assert len(report.records) == 3 * len(T_GRID)

    def test_reach_margin_at_zero_height(self, small_cert):
        # at t = 0 the radii are the necks, so the reach margin is
        # exactly eta1: b1 - (eta2 - b2) = eta1
        report = verify_c3_lemma(pair_radii(small_cert, 0.0, 0.0, 1.0))
        eta1 = necksize(CmcParams(small_cert.H, small_cert.d1))
        reach = next(
            r for r in report.records if r.check_id == "shifted3_reaches_inner"
        )
        assert reach.margin == pytest.approx(eta1, abs=1e-12)


class TestRemarkSweep:
    def test_witness_found_for_each_intermediate(self, small_cert, small_pair):
        offsets = compute_offsets(small_cert)
        d_grid = [5.0, 10.0, 30.0, 60.0, 90.0]
        report = remark_sweep(small_pair, offsets, d_grid)
        assert report.passed
        assert len(report.records) == len(d_grid)
        for record in report.records:
            assert record.margin > 0.0
            assert record.witness is not None
            assert abs(record.witness) <= max(abs(t) for t in T_GRID)

    def test_refinement_reads_the_pair_tables(self, small_cert, inversion_counts):
        # barriers shifted by 1e-3 reach no intermediate member, so the
        # sweep refines; only the swept member gets a table of its own, and
        # all three members are solved once at every height asked
        counts = inversion_counts
        pair = pair_radii(small_cert, -2.0, 2.0, 0.5)
        report = remark_sweep(pair, StripOffsets(2e-3, 1e-3, 1e-3), [30.0])
        assert not report.passed
        members = (small_cert.d1, small_cert.d2, 30.0)
        assert counts.builds == {(small_cert.H, d, False): 1 for d in members}
        heights = {d: {t for e, t in counts.solves if e == d} for d in members}
        assert heights[30.0] == heights[small_cert.d1] == heights[small_cert.d2]
        # beyond the 4 non-zero coarse heights (|t| = 0 is the neck, unsolved)
        assert len(heights[30.0]) > 4
        assert max(counts.solves.values()) == 1

    def test_refinement_stays_inside_the_grid(self, small_cert):
        # no shifted barrier reaches d = 30, so the sweep refines around its
        # best coarse height, the grid's largest |t| = 2; stepping 21 fine
        # heights from there used to reach |t| = 2.5
        pair = pair_radii(small_cert, -2.0, 2.0, 0.5)
        report = remark_sweep(pair, StripOffsets(2e-3, 1e-3, 1e-3), [30.0])
        (record,) = report.records
        assert not record.passed
        assert record.t <= 2.0
        assert max(pair.h1.radii) == max(pair.h2.radii) == 2.0

    def test_rejects_d_outside_open_interval(self, small_cert, small_pair):
        offsets = compute_offsets(small_cert)
        with pytest.raises(PreconditionError):
            remark_sweep(small_pair, offsets, [small_cert.d1])
        with pytest.raises(PreconditionError):
            remark_sweep(small_pair, offsets, [small_cert.d2 + 1.0])


class TestSharedRadii:
    # |t| in {.5, 1, 1.5, 2}, |t| = 0 being the neck, unsolved; and the
    # default grid on [-50, 50] step .1, mirrored about t = 0: 500 non-zero
    # |t|, where stepping from t = -50 made 835
    GRIDS = ((["--t-min", "-2", "--t-max", "2", "--step", "0.5"], 4), ([], 500))

    def test_strips_inverts_each_pair_height_once(self, small_cert, tmp_path,
                                                  inversion_counts):
        # one height table per pair member, each of its pieces integrated
        # once, and each pair height solved once across the three checks
        from hcat import cli

        counts = inversion_counts
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(small_cert.to_json_dict(), indent=2, sort_keys=True))
        members = (small_cert.d1, small_cert.d2)
        for grid, distinct in self.GRIDS:
            for counter in (counts.builds, counts.pieces, counts.radii):
                counter.clear()
            assert cli.run(["strips", "--cert", str(cert), *grid, "--d-points", "3",
                            "--out", str(tmp_path / "strips.json")]) == 0
            assert {d: counts.builds[small_cert.H, d, False] for d in members} == {
                small_cert.d1: 1, small_cert.d2: 1}
            assert {d for d, *_ in counts.pieces} >= set(members)
            assert {k: n for k, n in counts.pieces.items() if n > 1} == {}
            pair = {k: n for k, n in counts.radii.items() if k[0] in members}
            assert len(pair) == 2 * distinct
            assert {k: n for k, n in pair.items() if n > 1} == {}


class TestMirroredGrid:
    @settings(max_examples=25, deadline=None)
    @given(t_min=st.floats(-3.0, -0.01), t_max=st.floats(0.0, 3.0),
           step=st.floats(0.05, 1.0))
    def test_heights_and_margins_mirror_about_zero(self, small_cert, t_min, t_max,
                                                   step):
        pair = pair_radii(small_cert, t_min, t_max, step)
        upper = height_grid(0.0, t_max, step)
        below = [t for t in pair.t_grid if t < 0.0]
        assert [-t for t in reversed(below)] == height_grid(0.0, -t_min, step)[1:]
        assert pair.t_grid == below + upper
        # the upper half's 0.0, never a -0.0
        assert math.copysign(1.0, upper[0]) == 1.0
        if min(-t_min, t_max) >= step:
            assert step in pair.t_grid and -step in pair.t_grid
        # t and -t read one solved radius, so each check's margin is even in t
        offsets = compute_offsets(small_cert)
        for report in (verify_strip_claim(pair, offsets), verify_c3_lemma(pair)):
            margins = {(r.t, r.check_id): r.margin for r in report.records}
            assert all(margins[-t, c] == m for (t, c), m in margins.items() if t < 0.0
                       and (-t, c) in margins)


class TestReportOutput:
    def test_margin_csv_layout(self, small_cert):
        offsets = compute_offsets(small_cert)
        report = verify_strip_claim(pair_radii(small_cert, 0.0, 1.0, 1.0), offsets)
        out = io.StringIO()
        write_margin_csv([report], out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "t,check_id,margin"
        assert len(lines) == 1 + len(report.records)
        t, check_id, margin = lines[1].split(",")
        assert float(t) == report.records[0].t
        assert check_id == report.records[0].check_id
        assert float(margin) == report.records[0].margin

    def test_json_dict_round_trips_through_json(self, small_cert):
        report = verify_c3_lemma(pair_radii(small_cert, 0.0, 0.0, 1.0))
        data = json.loads(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        assert data["passed"] is True
        assert data["min_margin"] == report.min_margin
        assert len(data["records"]) == len(report.records)
