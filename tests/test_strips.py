"""Shifted-barrier strip checks and the intermediate-parameter sweep."""

import io
import json
import math
from itertools import product
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hcat import report as report_writer, strips
from hcat.core import CmcParams, necksize
from hcat.disjoint import GRID_STEP_DEFAULT, certify, height_grid, solve_d0
from hcat.errors import PreconditionError
from hcat.geom import ORIGIN, HypPoint, hyp_distance, margin_at_distance
from hcat.report import write_json
from hcat.strips import (
    StripOffsets,
    StripReport,
    compute_offsets,
    pair_radii,
    remark_sweep,
    verify_c3_lemma,
    verify_strip_claim,
    write_margin_csv,
)

T_GRID = [k * 0.5 - 2.0 for k in range(9)]  # [-2, 2] step 0.5

_MARGINS = st.one_of(st.floats(), st.sampled_from([-1.0, 0.0, -0.0, 0.5, math.nan]))


@st.composite
def _reports(draw):
    """Reports of both layouts: each height's checks in turn, or one
    record per swept member with its own height and id; margins that tie,
    fail and are NaN; no witnesses, or some, as the sweep records."""
    n = draw(st.integers(1, 8))
    t = draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        ids = tuple(f"c{j}%" for j in range(draw(st.integers(1, 6))))
        size = n * len(ids)
    else:
        ids, size = tuple(f"remark_d={j}" for j in range(n)), n
    margins = draw(st.lists(_MARGINS, min_size=size, max_size=size))
    witnesses = draw(st.one_of(st.just([None] * size),
                               st.lists(st.one_of(st.none(), st.floats(-50.0, 50.0)),
                                        min_size=size, max_size=size)))
    return StripReport("x", t, ids, margins, witnesses)


def _records(report):
    """A report's (t, check_id, margin) records, expanded record by record."""
    if len(report.margins) == len(report.t) == len(report.check_ids):
        return list(zip(report.t, report.check_ids, report.margins))
    return [(t, c, report.margins[i * len(report.check_ids) + j])
            for i, t in enumerate(report.t) for j, c in enumerate(report.check_ids)]


@pytest.fixture(scope="module")
def small_pair(small_cert):
    return pair_radii(small_cert, -2.0, 2.0, 0.5)


@pytest.fixture(scope="module", params=[(0.25, 3.0), (0.0025, 3.0), (0.4999, 3.0),
                                        (0.1, 2.5), (0.45, 10.0)], ids=str)
def solved_pair(request):
    """`disjoint --solve-d0` on (H, d1) at its defaults, and the pair's radii
    on the default `strips` grid."""
    H, d1 = request.param
    d0 = solve_d0(H, d1)
    cert = certify(H, d1, d0, t_max=50.0, grid_step=GRID_STEP_DEFAULT, d0=d0)
    return cert, pair_radii(cert, -50.0, 50.0, 0.1)


def _c3_scan(pair):
    """The c3 lemma's three margins at every height of the pair's grid, as
    (t, check_id, margin) records, from the pair's radii r1 and r2."""
    eta2 = necksize(pair.h2.params)
    dist3 = hyp_distance(ORIGIN, HypPoint(eta2, 0.0))
    return [(t, c, m) for t, r1, r2 in zip(pair.t_grid, pair.r1, pair.r2)
            for c, m in zip(strips._C3_CHECKS, (margin_at_distance(dist3, r2, r2),
                                                r1 - (eta2 - r2), eta2 - (r2 - r1)))]


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
        assert report.t == T_GRID
        assert len(report.margins) == 6 * len(T_GRID)
        assert set(report.check_ids) == {
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
        assert report.min_margin == min(report.margins)

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
    def test_all_checks_pass(self, small_cert):
        report = verify_c3_lemma(small_cert)
        assert report.passed
        assert report.min_margin > 0.0
        assert report.t == [0.0]
        assert report.check_ids == ("shifted3_meets_outer", "shifted3_reaches_inner",
                                    "shifted3_not_swallowing_inner")

    def test_reach_margin_at_zero_height(self, small_cert):
        # at t = 0 the radii are the necks, so the reach margin is
        # exactly eta1: b1 - (eta2 - b2) = eta1
        report = verify_c3_lemma(small_cert)
        eta1 = necksize(CmcParams(small_cert.H, small_cert.d1))
        assert report.margins[report.check_ids.index("shifted3_reaches_inner")] == eta1

    def test_closed_form_bounds_a_scan(self, solved_pair):
        # the argument's oracle: on the default strips grid every scanned
        # margin is at least its value at t = 0, which the report holds
        cert, pair = solved_pair
        report = verify_c3_lemma(cert)
        least = dict(zip(report.check_ids, report.margins))
        scan = _c3_scan(pair)
        assert all(m >= least[c] for _, c, m in scan)
        assert [(c, m) for t, c, m in scan if t == 0.0] == list(least.items())
        assert report.passed and len(scan) == 3 * 1001


class TestRemarkSweep:
    def test_witness_found_for_each_intermediate(self, small_cert, small_pair):
        offsets = compute_offsets(small_cert)
        d_grid = [5.0, 10.0, 30.0, 60.0, 90.0]
        report = remark_sweep(small_pair, offsets, d_grid)
        assert report.passed
        assert len(report.margins) == len(report.check_ids) == len(d_grid)
        for margin, witness in zip(report.margins, report.witnesses):
            assert margin > 0.0
            assert witness is not None
            assert abs(witness) <= max(abs(t) for t in T_GRID)

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
        (t,) = report.t
        assert not report.passed
        assert t <= 2.0
        assert max(pair.h1.memo) == max(pair.h2.memo) == 2.0

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
        report = verify_strip_claim(pair, compute_offsets(small_cert))
        margins = dict(zip(product(report.t, report.check_ids), report.margins))
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
        assert len(lines) == 1 + len(report.margins)
        t, check_id, margin = lines[1].split(",")
        assert float(t) == report.t[0]
        assert check_id == report.check_ids[0]
        assert float(margin) == report.margins[0]

    def test_json_dict_round_trips_through_json(self, small_cert):
        report = verify_c3_lemma(small_cert)
        out = io.StringIO()
        write_json(report.to_json_dict(), out)
        data = json.loads(out.getvalue())
        assert data["passed"] is True
        assert data["min_margin"] == report.min_margin
        assert data["records"] == [
            {"t": 0.0, "check_id": c, "margin": m, "passed": True, "witness": None}
            for c, m in zip(report.check_ids, report.margins)]

    @settings(max_examples=100, deadline=None)
    @given(report=_reports(), block=st.sampled_from([1, 2, 3, report_writer._ROWS_PER_WRITE]))
    def test_margin_csv_equals_a_record_scan(self, report, block):
        # small blocks split a height's records across writes
        out = io.StringIO()
        with mock.patch.object(report_writer, "_ROWS_PER_WRITE", block):
            write_margin_csv([report, report], out)
        rows = "".join("%.17g,%s,%.17g\n" % r for r in _records(report))
        assert out.getvalue() == "t,check_id,margin\n" + rows * 2


class TestJsonRecords:
    @settings(max_examples=200, deadline=None)
    @given(report=_reports(), block=st.sampled_from([1, 2, 3, report_writer._ROWS_PER_WRITE]),
           memo=st.sampled_from([1, 2, report_writer._MEMO_SIZE]))
    def test_json_equals_dumps_of_the_records(self, report, block, memo):
        # small blocks split a height's records across writes, and a small
        # memo is emptied between blocks
        doc = report.to_json_dict()
        records = [{"t": t, "check_id": c, "margin": m, "passed": m > 0.0, "witness": w}
                   for (t, c, m), w in zip(_records(report), report.witnesses)]
        want = json.dumps({**doc, "records": records}, indent=2, sort_keys=True) + "\n"
        out = io.StringIO()
        with mock.patch.object(report_writer, "_ROWS_PER_WRITE", block), \
                mock.patch.object(report_writer, "_MEMO_SIZE", memo):
            write_json(doc, out)
        assert out.getvalue() == want


class TestLayout:
    @pytest.mark.parametrize("t, check_ids, margins, witnesses", [
        # neither each height's checks in turn nor one record per member
        ([0.0, 1.0], ("a", "b"), [1.0, 2.0, 3.0], [None] * 3),
        ([0.0, 1.0], ("a", "b", "c"), [1.0, 2.0], [None] * 2),
        # a witness too few or too many
        ([0.0, 1.0], ("a", "b"), [1.0] * 4, [None] * 3),
        ([0.0, 1.0], ("a", "b"), [1.0] * 2, [None] * 3),
        # no record
        ([], (), [], []),
        ([0.0], ("a",), [], []),
    ])
    def test_inconsistent_layout_is_refused(self, t, check_ids, margins, witnesses):
        with pytest.raises(PreconditionError, match="do not fit"):
            StripReport("x", t, check_ids, margins, witnesses)

    def test_both_layouts_are_accepted(self):
        grid = StripReport("x", [0.0, 1.0], ("a", "b"), [1.0, 2.0, 3.0, 4.0], [None] * 4)
        sweep = StripReport("x", [0.0, 1.0], ("a", "b"), [1.0, 2.0], [0.0, 1.0])
        assert (grid.min_margin_t, grid.min_margin_check) == (0.0, "a")
        assert (sweep.min_margin_t, sweep.min_margin_check) == (0.0, "a")

    def test_empty_parameter_grid_is_named(self, small_pair, small_cert):
        with pytest.raises(PreconditionError, match="parameter grid"):
            remark_sweep(small_pair, compute_offsets(small_cert), [])


class TestSummary:
    @settings(max_examples=200, deadline=None)
    @given(report=_reports())
    def test_summary_equals_a_record_scan(self, report):
        records = _records(report)
        worst = min(records, key=itemgetter(2))
        assert report.passed == all(m > 0.0 for _, _, m in records)
        # the very margin object: tells -0.0 from 0.0, and matches a NaN
        assert report.min_margin is worst[2]
        assert (report.min_margin_t, report.min_margin_check) == worst[:2]

    @pytest.mark.parametrize("margins,want", [
        # tied minima: the first in grid order wins
        ([1.0, 0.5, 2.0, 0.5], (True, 0.5, 0.0, "b")),
        ([2.0, 3.0, 0.25, 0.25], (True, 0.25, 1.0, "a")),
        ([1.0, 2.0, 3.0, 4.0], (True, 1.0, 0.0, "a")),
        # a zero, a negative or a NaN margin fails
        ([1.0, 0.0, 3.0, 4.0], (False, 0.0, 0.0, "b")),
        ([1.0, 2.0, -3.0, 4.0], (False, -3.0, 1.0, "a")),
        ([1.0, 2.0, math.nan, 4.0], (False, 1.0, 0.0, "a")),
    ])
    def test_ties_and_failures(self, margins, want):
        report = StripReport("x", [0.0, 1.0], ("a", "b"), margins, [None] * 4)
        passed, *worst = want
        assert report.passed is passed
        assert [report.min_margin, report.min_margin_t, report.min_margin_check] == worst
