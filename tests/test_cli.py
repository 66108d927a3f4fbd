"""Command-line interface: exit codes, report schemas, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcat import report
from hcat.cli import (EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, _build_parser, _emit,
                      _envelope, _UsageError, run)
from hcat.report import Pattern, Table
from hcat.strips import StripReport, write_margin_csv

from conftest import validate_against


def _disjoint_args(out, extra=()):
    return [
        "disjoint", "--H", "0.25", "--d1", "3", "--d2", "100",
        "--t-max", "2", "--step", "0.5", "--out", str(out), *extra,
    ]


@pytest.fixture(scope="module")
def cert_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "cert.json"
    assert run(_disjoint_args(out)) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def report_file(tmp_path_factory):
    # a JSON report that is not a certificate, as `strips --out` writes one
    out = tmp_path_factory.mktemp("cli") / "report.json"
    out.write_text(json.dumps({"command": "strips", "result": {"passed": True}}))
    return out


class TestExitCodes:
    def test_necksize_success(self, capsys):
        assert run(["necksize", "--H", "0.25", "--d", "2"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(2.1233267131046021, abs=1e-15)

    def test_necksize_at_family_floor_prints_zero(self, capsys):
        assert run(["necksize", "--H", "0.25", "--d", "-0.5"]) == EXIT_OK
        assert float(capsys.readouterr().out) == 0.0

    def test_domain_error_is_usage(self, capsys):
        assert run(["necksize", "--H", "0.7", "--d", "2"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_is_usage(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_missing_argument_is_usage(self, capsys):
        assert run(["necksize", "--H", "0.25"]) == EXIT_USAGE

    def test_d2_and_solve_d0_mutually_exclusive(self, capsys, tmp_path):
        args = _disjoint_args(tmp_path / "c.json", extra=["--solve-d0"])
        assert run(args) == EXIT_USAGE

    def test_d0_member_past_the_float_range_is_usage(self, capsys, tmp_path):
        # d0 = 2.3e154 is finite, but its member's neck squares it; the
        # threshold's residual check once saw the bound overflow and exited 2
        args = ["disjoint", "--H", ".25", "--d1", "1e150", "--solve-d0",
                "--out", str(tmp_path / "c.json")]
        assert run(args) == EXIT_USAGE
        assert "finite neck radius, got 2.29" in capsys.readouterr().err

    @pytest.mark.parametrize("H", [".6", "inf", "0", ".5", "nan"])
    def test_threshold_out_of_family_h_is_usage(self, capsys, tmp_path, H):
        # the threshold's closed form once raised ValueError or
        # ZeroDivisionError here, and at H = nan got as far as certify
        args = ["disjoint", "--H", H, "--d1", "3", "--solve-d0",
                "--out", str(tmp_path / "c.json")]
        assert run(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: H must lie in (0, 1/2)" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_cert_file_is_usage(self, capsys, tmp_path):
        assert run(["strips", "--cert", str(tmp_path / "missing.json")]) == EXIT_USAGE

    def test_corrupt_cert_file_is_usage(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["strips", "--cert", str(bad)]) == EXIT_USAGE

    def test_tampered_cert_fails_checks(self, capsys, tmp_path, cert_file):
        doc = json.loads(cert_file.read_text())
        doc["result"]["min_gap_observed"] = 0.0
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        args = ["strips", "--cert", str(tampered), "--t-min", "-1",
                "--t-max", "1", "--step", "0.5", "--d-points", "2",
                "--out", str(tmp_path / "r.json")]
        assert run(args) == EXIT_CHECK_FAILED

    @pytest.mark.parametrize("args", [
        ["necksize", "--H", "0.25", "--d", "nan"],
        ["necksize", "--H", "0.25", "--d", "inf"],
        ["necksize", "--H", "0.25", "--d", "1e200"],
        ["necksize", "--H", "0.25", "--d", "1e154"],
        ["disjoint", "--H", "0.25", "--d1", "3", "--d2", "100", "--step", "0"],
        ["disjoint", "--H", "0.25", "--d1", "3", "--d2", "100", "--step", "-1"],
        ["disjoint", "--H", "0.25", "--d1", "3", "--d2", "100", "--t-max", "inf"],
        ["disjoint", "--H", "0.25", "--d1", "inf", "--solve-d0"],
        ["strips", "--cert", "{cert}", "--step", "0"],
        ["strips", "--cert", "{cert}", "--d-points", "0"],
        ["strips", "--cert", "{cert}", "--t-min", "1", "--t-max", "-1"],
        ["curve", "--H", "0.25", "--d", "2", "--rho-max", "4", "--n", "1",
         "--out", "{tmp}/c.csv"],
        ["curve", "--H", "0.25", "--d", "2", "--rho-max", "inf", "--out", "{tmp}/c.csv"],
        ["verify-appendix", "--H", "0.5", "--out", "{tmp}/a.json"],
        # two outputs, or an output and the mesh's sidecar, naming one file
        ["mesh", "--H", "0.25", "--d", "2", "--rho-max", "3", "--out", "{tmp}/m.json"],
        ["curve", "--H", "0.25", "--d", "2", "--rho-max", "4", "--out", "{tmp}/p",
         "--json", "{tmp}/p"],
        ["strips", "--cert", "{cert}", "--out", "{tmp}/p", "--csv", "{tmp}/./p"],
        # an output that would replace the certificate being read, and a
        # report read as a certificate
        ["strips", "--cert", "{cert}", "--out", "{cert}"],
        ["strips", "--cert", "{report}", "--out", "{tmp}/s.json"],
        # family frames named frame_d_{d:.6g}.obj
        ["family", "--H", "0.25", "--d-list", "2.0000001", "2.0000002", "--rho-max", "3",
         "--out-dir", "{tmp}/frames"],
        ["family", "--H", "0.25", "--d-list", "2", "0", "2", "--rho-max", "3",
         "--out-dir", "{tmp}/frames"],
        # a denormal H: "no finite radius reaches height", as at H = 1e-310.
        # ROOT_TOL kappa u underflows to 0 here, and the far field's start
        # once divided by it (ZeroDivisionError)
        ["disjoint", "--H", "5e-324", "--d1", "3", "--d2", "10"],
    ])
    def test_bad_input_is_named_usage_error(self, capsys, tmp_path, cert_file, report_file,
                                            args):
        argv = [a.format(cert=cert_file, report=report_file, tmp=tmp_path) for a in args]
        assert run(argv) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        # refused before anything was written
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("doc, reason", [
        ({"command": "strips", "result": {"passed": True}}, "no 'H'"),
        ([1, 2], "not a JSON object"),
    ])
    def test_non_certificate_is_named(self, capsys, tmp_path, doc, reason):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "s.json"
        assert run(["strips", "--cert", str(path), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {path} is not a disjointness certificate: {reason}\n")

    @pytest.mark.parametrize("field, value, reason", [
        ("min_gap_observed", "abc", "min_gap_observed must be a number, got 'abc'"),
        ("H", "0.25", "H must be a number, got '0.25'"),
        ("d1", None, "d1 must be a number, got None"),
        ("d2", [1], "d2 must be a number, got [1]"),
        ("d2", True, "d2 must be a number, got True"),
        ("d0", "7", "d0 must be a number, got '7'"),
        # disjoint's own rules: H in (0, 1/2), d1 > 2 and d1 < d2
        ("H", math.nan, "H must lie in (0, 1/2), got nan"),
        ("H", 0.5, "H must lie in (0, 1/2), got 0.5"),
        ("d1", 1.5, "d1 must be finite and exceed 2, got 1.5"),
        ("d2", 2.5, "need d1 < d2, got 3.0 >= 2.5"),
    ])
    def test_malformed_certificate_is_named(self, capsys, tmp_path, cert_file, field, value,
                                            reason):
        # each once raised TypeError out of run, or went on to check a pair
        # that `disjoint` refuses
        doc = json.loads(cert_file.read_text())
        doc["result"][field] = value
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "s.json"
        assert run(["strips", "--cert", str(path), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {path} is not a disjointness certificate: {reason}\n")
        assert not out.exists()

    def test_inflated_gap_fails_margins(self, capsys, tmp_path, cert_file):
        doc = json.loads(cert_file.read_text())
        doc["result"]["min_gap_observed"] = 500.0
        tampered = tmp_path / "inflated.json"
        tampered.write_text(json.dumps(doc))
        args = ["strips", "--cert", str(tampered), "--t-min", "-1",
                "--t-max", "1", "--step", "0.5", "--d-points", "2",
                "--out", str(tmp_path / "r.json")]
        assert run(args) == EXIT_CHECK_FAILED
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["result"]["passed"] is False


class TestCurve:
    def test_csv_and_json_outputs(self, tmp_path, schema_registry):
        csv_out = tmp_path / "curve.csv"
        json_out = tmp_path / "curve.json"
        args = ["curve", "--H", "0.25", "--d", "2", "--rho-max", "5",
                "--n", "9", "--out", str(csv_out), "--json", str(json_out)]
        assert run(args) == EXIT_OK
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "rho,t"
        assert len(lines) == 10
        doc = json.loads(json_out.read_text())
        validate_against("profile.schema.json", doc, schema_registry)
        assert doc["command"] == "curve"
        assert doc["config"]["H"] == 0.25

    def test_entire_graph_starts_at_origin(self, tmp_path, schema_registry):
        csv_out = tmp_path / "graph.csv"
        json_out = tmp_path / "graph.json"
        args = ["entire-graph", "--H", "0.3", "--rho-max", "4",
                "--n", "8", "--out", str(csv_out), "--json", str(json_out)]
        assert run(args) == EXIT_OK
        first = csv_out.read_text().splitlines()[1]
        assert first == "0,0"
        doc = json.loads(json_out.read_text())
        validate_against("profile.schema.json", doc, schema_registry)

    def test_csv_deterministic(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run(["curve", "--H", "0.25", "--d", "2", "--rho-max", "5",
                 "--n", "9", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestVerifyAppendix:
    ARGS = ["verify-appendix", "--H", "0.25", "--d", "2.5", "3",
            "--grid-points", "12"]

    def test_report_passes_and_validates(self, tmp_path, schema_registry):
        out = tmp_path / "appendix.json"
        assert run(self.ARGS + ["--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        validate_against("appendix.schema.json", doc, schema_registry)
        assert doc["result"]["passed"] is True
        assert len(doc["result"]["checks"]) == 2
        for entry in doc["result"]["checks"]:
            assert entry["j_bound_margin"] > 0.0
            assert "witness" in entry
            # --grid-points is ignored: 75 nodes, and the far field for d >= 0
            assert entry["decomposition_nodes"] == 75
            assert entry["decomposition_rho_range"][1] is None

    def test_report_deterministic(self, tmp_path):
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run(self.ARGS + ["--out", str(out)])
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_too_few_grid_points_is_usage(self, tmp_path, capsys, points):
        # a sweep over fewer than two radii checks nothing and must not pass
        args = ["verify-appendix", "--grid-points", points,
                "--out", str(tmp_path / "x.json")]
        assert run(args) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


class TestDisjoint:
    def test_certificate_validates(self, cert_file, schema_registry):
        doc = json.loads(cert_file.read_text())
        validate_against("certificate.schema.json", doc, schema_registry)
        assert doc["result"]["certified"] is True
        assert doc["result"]["delta0"] > 0.0

    def test_solve_d0_mode_records_threshold(self, tmp_path, schema_registry):
        out = tmp_path / "cert.json"
        args = ["disjoint", "--H", "0.25", "--d1", "3", "--solve-d0",
                "--t-max", "1", "--step", "0.5", "--out", str(out)]
        assert run(args) == EXIT_OK
        doc = json.loads(out.read_text())
        validate_against("certificate.schema.json", doc, schema_registry)
        assert doc["result"]["d0"] == pytest.approx(71617.881, rel=1e-6)
        assert doc["result"]["d2"] == doc["result"]["d0"]
        # the solved threshold is exactly the lemma boundary
        assert doc["result"]["beyond_lemma"] is False

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(_disjoint_args(out)) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_pair_next_to_the_headline_pair_certifies(self, tmp_path):
        # the threshold member's radius at t = 25.65 once missed its height
        # by 7e-10, and the scanned gap rose above the monotone tolerance
        out = tmp_path / "cert.json"
        args = ["disjoint", "--H", "0.24820734518035178", "--d1", "2.9255529619311083",
                "--solve-d0", "--out", str(out)]
        assert run(args) == EXIT_OK
        assert json.loads(out.read_text())["result"]["certified"] is True

    @pytest.mark.parametrize("H,d1,code", [("0.002", "10", EXIT_OK),
                                           ("0.001", "3", EXIT_CHECK_FAILED),
                                           ("0.0025", "2.0001", EXIT_CHECK_FAILED)])
    def test_small_h_reaches_the_checks(self, tmp_path, H, d1, code):
        # radii pass 1e4 before t = 50 here; (.001, 3) and (.0025, 2.0001)
        # really cross, the latter by gap(1.6) = -4.3
        cert = tmp_path / "cert.json"
        assert run(["disjoint", "--H", H, "--d1", d1, "--solve-d0", "--out", str(cert)]) == code
        result = json.loads(cert.read_text())["result"]
        if code == EXIT_CHECK_FAILED:
            assert result["failure"].startswith("gap non-positive")
            return
        assert run(["strips", "--cert", str(cert), "--out", str(tmp_path / "s.json")]) == EXIT_OK

    def test_height_past_every_finite_radius_is_named(self, tmp_path, capsys):
        # the largest float radius reaches a height of about 1.04e308 on both
        # members, so the grid's 1.1e308 has no radius
        args = ["disjoint", "--H", ".25", "--d1", "3", "--d2", "10", "--t-max", "1.7e308",
                "--step", "1e307", "--out", str(tmp_path / "c.json")]
        assert run(args) == EXIT_USAGE
        assert "error: no finite radius reaches height t = 1.1e+308" in capsys.readouterr().err

    def test_radii_one_float_apart_are_not_a_crossing(self, tmp_path, capsys):
        # at t = 1e307 both radii round to 1.732050807568877e+307, so the
        # gap reads 0.0; this once exited 2 as "gap non-positive"
        out = tmp_path / "c.json"
        args = ["disjoint", "--H", ".25", "--d1", "3", "--d2", "10", "--t-max", "1e308",
                "--step", "1e307", "--out", str(out)]
        assert run(args) == EXIT_USAGE
        assert ("error: the radii at t = 1e+307 are not resolved in floating point"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["disjoint", "--H", ".25", "--d1", "3", "--d2", "10", "--step", "1e-9"],
        ["strips", "--cert", "{cert}", "--step", "1e-300", "--t-max", "1e-290"],
    ])
    def test_grid_past_the_step_cap_is_named(self, capsys, tmp_path, cert_file, monkeypatch,
                                             args):
        # 5e10 and 5e301 heights: each once ran on past 60 s.  `height_grid`
        # steps through range(), so a grid begun would raise TypeError here
        from hcat import disjoint

        monkeypatch.setattr(disjoint, "range", None, raising=False)
        argv = [a.format(cert=cert_file) for a in args]
        assert run([*argv, "--out", str(tmp_path / "r.json")]) == EXIT_USAGE
        assert "more than MAX_GRID_STEPS = 1000000 steps\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestStrips:
    def test_full_report(self, cert_file, tmp_path, schema_registry):
        out = tmp_path / "strips.json"
        csv = tmp_path / "margins.csv"
        args = ["strips", "--cert", str(cert_file), "--t-min", "-2",
                "--t-max", "2", "--step", "0.5", "--d-points", "3",
                "--out", str(out), "--csv", str(csv)]
        assert run(args) == EXIT_OK
        doc = json.loads(out.read_text())
        validate_against("strips.schema.json", doc, schema_registry)
        result = doc["result"]
        assert result["passed"] is True
        assert result["offsets"]["delta1"] + result["offsets"]["delta2"] > result["offsets"]["delta"]
        for key in ("strip_claim", "c3_lemma", "remark_sweep"):
            assert result[key]["passed"] is True
            assert result[key]["min_margin"] > 0.0
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,check_id,margin"
        n_strip = len(result["strip_claim"]["records"])
        n_c3 = len(result["c3_lemma"]["records"])
        n_remark = len(result["remark_sweep"]["records"])
        assert len(lines) == 1 + n_strip + n_c3 + n_remark

    @pytest.mark.parametrize("t_min,t_max,step", [("0", "1", "0.4"), ("-1", "1", "0.7")])
    def test_height_grid_stays_in_range(self, cert_file, tmp_path, t_min, t_max, step):
        # the last stepped height is clamped to t_max (1.2 here) or followed
        # by it (0.7 here, stepped outward from t = 0 both ways)
        out = tmp_path / "strips.json"
        args = ["strips", "--cert", str(cert_file), "--t-min", t_min, "--t-max", t_max,
                "--step", step, "--d-points", "2", "--out", str(out)]
        assert run(args) == EXIT_OK
        result = json.loads(out.read_text())["result"]
        lo, hi = float(t_min), float(t_max)
        for key in ("strip_claim", "c3_lemma", "remark_sweep"):
            assert all(lo <= r["t"] <= hi for r in result[key]["records"])
        ts = {r["t"] for r in result["strip_claim"]["records"]}
        assert min(ts) == lo and max(ts) == hi

    def test_sweep_refines_by_the_grid_step(self, tmp_path, monkeypatch,
                                            inversion_counts):
        # the grid [-1, -.7, 0, .7, 1] steps by .7, and the swept member's
        # best coarse |t| is 1, so its 10x refinement steps by .07 from
        # 1 - .7 up to 1, the grid's largest |t|: the grid's step, not the
        # spread of its distinct |t| over their count (.5 here)
        monkeypatch.chdir(tmp_path)
        _write_tampered_certificate()
        args = ["strips", "--cert", "tampered.json", "--t-min", "-1", "--t-max", "1",
                "--step", "0.7", "--d-points", "1", "--out", "r.json"]
        assert run(args) == EXIT_CHECK_FAILED
        (record,) = json.loads(Path("r.json").read_text())["result"]["remark_sweep"]["records"]
        assert record["t"] == 1.0
        (swept,) = {d for d, _ in inversion_counts.solves} - {3.0, 100.0}
        fine = sorted({t for d, t in inversion_counts.solves if d == swept} - {0.7})
        assert len(fine) == 11
        assert fine[0] == pytest.approx(0.3) and fine[-1] == 1.0
        assert all(b - a == pytest.approx(0.07) for a, b in zip(fine, fine[1:]))

    def test_gap_not_monotone_is_refused(self, capsys, tmp_path, monkeypatch):
        # the c3 lemma's margins are least at t = 0 only if the gap falls
        monkeypatch.chdir(tmp_path)
        _write_tampered_certificate(monotone_decreasing=False)
        assert run(["strips", "--cert", "tampered.json", "--out", "r.json"]) == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "certificate whose gap is monotone_decreasing, got False\n")
        assert not Path("r.json").exists()

    def test_sup_gap_off_the_necks_is_refused(self, capsys, tmp_path, monkeypatch,
                                              cert_file):
        # sup_gap is the gap at t = 0, eta2 - eta1 bit for bit as certify
        # records it; one ulp above it is refused
        monkeypatch.chdir(tmp_path)
        sup_gap = json.loads(cert_file.read_text())["result"]["sup_gap"]
        _write_tampered_certificate(sup_gap=math.nextafter(sup_gap, math.inf))
        assert run(["strips", "--cert", "tampered.json", "--out", "r.json"]) == EXIT_USAGE
        assert f"needs sup_gap = eta2 - eta1 = {sup_gap!r} of the certified pair" in (
            capsys.readouterr().err)
        assert not Path("r.json").exists()

    def test_accepts_bare_certificate_json(self, cert_file, tmp_path):
        # a bare certificate, and one as older versions wrote it, with the
        # quadrature tolerance they recorded, a key now ignored
        result = json.loads(cert_file.read_text())["result"]
        for name, doc in [("bare.json", result), ("older.json", {**result, "quad_tol": 1e-10})]:
            path = tmp_path / name
            path.write_text(json.dumps(doc))
            args = ["strips", "--cert", str(path), "--t-min", "-1",
                    "--t-max", "1", "--step", "0.5", "--d-points", "2",
                    "--out", str(tmp_path / "r.json")]
            assert run(args) == EXIT_OK


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# the headline pipeline, `disjoint --H .25 --d1 3 --solve-d0` then
# `strips --csv`, and the sha256 of its reports: 6 029 strip records, the
# strip claim's 6 006 on heights stepped outward from t = 0, the c3
# lemma's three at t = 0 and the sweep's 20, each with its margin
_HEADLINE_COMMANDS = [
    ["disjoint", "--H", ".25", "--d1", "3", "--solve-d0", "--out", "cert.json"],
    ["strips", "--cert", "cert.json", "--out", "strips.json", "--csv", "margins.csv"],
]
# re-pinned when Brent moved to u on the neck piece and the busy outer
# pieces began reading inverse series: radii moved by at most 2.2e-13 in
# u, `min_gap_observed` by 2.5e-13 (its height 31.4 -> 38.6 on a gap flat
# to round-off) and strip margins by at most 1.5e-12; `delta0` and
# `sup_gap` are bit-equal.  Re-pinned again when a grid's busy pieces were
# fitted before their first height rather than on their 65th: the strip
# grid's first 64 heights on each fitted piece are read, each certified
# within ROOT_TOL in u of Brent's root, so 380 and 382 of the members'
# 1 001 radii moved by at most 1.6e-13 in u, and 2 156 of the 9 029 strip
# margins by at most 1.8e-12 (the least strip margin's height
# -38.8 -> -38.6 on margins flat to round-off); `cert.json` is bit-equal.
# Re-pinned when d0 came from its closed form instead of Brent: it moved
# 1 ulp, 71617.88105161113 -> 71617.88105161111, toward the 40-digit
# 71617.881051611077; in `cert.json` only `d0` and `d2` moved, and 22 of
# the 9 029 strip margins by at most 3.6e-15, with the remark sweep's
# members spaced between d1 and the new d2.  Re-pinned when radii from
# t_far on (16.88 for d1, 16.83 for d0) came from the far field's closed
# form: 650 and 656 of the members' 1 001 certificate radii moved, by at
# most 3.7e-13 in u, the rest are bit-equal.  The least scanned gap moved
# to the far field's seam, t = 16.835, where d0's radius is the closed
# form's and d1's not yet: `min_gap_observed` 10.012284523627741 ->
# 10.012284523624452, `min_gap_t` 38.6 -> 16.835; `delta0`, `sup_gap`,
# `d0` and `asymptotic_bound` are bit-equal.  The strip offsets follow
# `min_gap_observed`, so 4 471 of 6 006 strip margins moved by at most
# 4.0e-12, 1 466 of 3 003 c3 margins by at most 6.9e-12 and 18 of 20
# sweep margins by at most 3.3e-12; the least strip margin's height moved
# -38.6 -> -49.9 on margins flat to round-off.  On the strip grid, the
# piece u in [4, 8] is now asked 60 and 59 heights below t_far, too few to
# fit, so 120 and 118 strip radii there are Brent's roots instead of
# certified reads, within 6.3e-14 in u of them.  Re-pinned when the far
# field took the tail's leading term A e^{-rho} in closed form (t_far
# 16.88 -> 9.378 for d1, 16.83 -> 9.403 for d0) and the table's first
# piece became u in [0, 1]: the new piece layout moves heights at
# rounding level, and 860 and 404 of the members' 1 001 certificate radii
# moved, by at most 3.8e-13 in u.  The seam's dip is gone:
# `min_gap_observed` 10.012284523624452 -> 10.012284523628026, `min_gap_t`
# 16.835 -> 31.45, in the flat far field; `delta0`, `sup_gap`, `d0` and
# `asymptotic_bound` are bit-equal.  The strip offsets `delta` and
# `delta2` follow `min_gap_observed` and moved by 3.6e-12, so 4 921 of
# 6 006 strip margins moved by at most 4.8e-12, 1 878 of 3 003 c3 margins
# by at most 6.9e-12 and 18 of 20 sweep margins by at most 3.6e-12; the
# least strip margin's height moved -49.9 -> -49.8 on margins flat to
# round-off.  Re-pinned when the c3 lemma came from its closed form at
# t = 0 instead of a scan of the strip grid: `strips.json` and
# `margins.csv` are the earlier reports without the lemma's 3 000 records
# at t != 0; its summary fields and its three records at t = 0 are
# bit-equal, as are the other checks and `cert.json`
_HEADLINE_SHA256 = {
    "cert.json": "684508854bcaa1e96b556ca949c836c8dc56998662211336564f37d539bfda12",
    "strips.json": "5b9df268fcbfc2ee3adc93d7c09e245c67ade10529e52a06464f51d29c73223b",
    "margins.csv": "b1f51b0b7c3b42d5a9dcc658f06833bfc3482dd580f6f333e42b4928bf6dd218",
}
# each check entry nests a `witness` dict: not a flat record.  Re-pinned
# when `j_sup` became the far field's bound on sup J = J(inf), J + tau_b
# at the end of the remainder table's far panel, instead of the largest J
# on rho <= neck + 10: `j_sup` rose by 1.5e-5 to 3.7e-5 on the 12 members
# and `j_bound_margin` fell by as much; every other field is bit-equal.
# Re-pinned when the far field took the tail's leading term in closed form
# and the first piece became u in [0, 1]: `j_sup` is now J + A e^{-rho} +
# tau_2 at the end of the far panel u in [2, 4] (J + tau_b at u = 8
# before), and rose by at most 3.8e-15 on the 12 members, `j_bound_margin`
# falling by as much; 9 `decomposition_max_scaled_residual` moved by at
# most 1.4e-16, heights moving at rounding level with the piece layout.
# Re-pinned when the checks came from the tables' nodes and two closed
# forms instead of 50 radii: the derivative fields went, and
# `decomposition_nodes` (75) and `decomposition_rho_range` ([neck, null])
# came; `decomposition_max_scaled_residual` is now the larger of the 75
# node residuals and the far field's bound past the far panel, and rose by
# at most 1.6e-15, to at most 2.1e-15; `j_sup`, `j_bound_margin`,
# `g_residual_decays` and the witnesses are bit-equal
_APPENDIX_COMMAND = ["verify-appendix", "--out", "appendix.json"]
_APPENDIX_SHA256 = {
    "appendix.json": "6ca0e3861083e09cda68e6159116b3433587365af407d46ccd5a350fee5e167c",
}
# `samples` is a list of flat records.  Re-pinned when the table's first
# piece became u in [0, 1]: 63 of the 64 heights moved at rounding level,
# by at most 1.8e-15 (the radii are the grid's, bit-equal)
_CURVE_COMMAND = ["curve", "--H", ".27", "--d", "2.6", "--rho-max", "6", "--n", "64",
                  "--out", "curve.csv", "--json", "curve.json"]
_CURVE_SHA256 = {
    "curve.csv": "f021ee515d07cd1c2f68cbdfea0c0bd8f162583fba21d58bf4f3585c20c0e924",
    "curve.json": "57bfb51c9acacf0322144378c6866ec632b317bc19d007e1a508b369afb18060",
}


def _written_sha256(directory):
    return {p.name: _sha256(p) for p in directory.iterdir()}


def _write_tampered_certificate(**changes):
    # the small pair's certificate with `changes` made to its fields; by
    # default its scanned gap cut to 2e-3, so the barriers shift by 1e-3 and
    # reach no intermediate member
    assert run(_disjoint_args("small.json")) == EXIT_OK
    doc = json.loads(Path("small.json").read_text())
    doc["result"].update(changes or {"min_gap_observed": 2e-3})
    Path("tampered.json").write_text(json.dumps(doc))


class TestPinnedReports:
    # sha256 of report bytes as json.dump wrote them; every writer must
    # reproduce them.  Reports are written in the working directory, since
    # `strips` echoes its --cert argument into its config.

    def test_headline_certificate_and_strips(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in _HEADLINE_COMMANDS:
            assert run(argv) == EXIT_OK
        assert _written_sha256(tmp_path) == _HEADLINE_SHA256

    def test_refined_remark_sweep(self, tmp_path, monkeypatch):
        # barriers shifted by 1e-3 reach no intermediate member, so every
        # swept member takes the 10x refinement and fails
        monkeypatch.chdir(tmp_path)
        _write_tampered_certificate()
        args = ["strips", "--cert", "tampered.json", "--t-min", "-2", "--t-max", "2",
                "--step", "0.5", "--d-points", "3", "--out", "r.json", "--csv", "r.csv"]
        assert run(args) == EXIT_CHECK_FAILED
        # re-pinned when the table's first piece became u in [0, 1]: radii
        # near the neck moved at rounding level, so 45 of the 84 margins of
        # `r.csv` moved, by at most 4.0e-14.  Re-pinned when the c3 lemma
        # came from its closed form at t = 0: both reports lost the lemma's
        # 24 records at t != 0, and are otherwise bit-equal
        assert _sha256(tmp_path / "r.json") == (
            "762f92dbd53124f37b8386b2f7564e6e2621bd1f7f7eb8a8cdc9c9cfed75f583")
        assert _sha256(tmp_path / "r.csv") == (
            "fca095ce52eb429c8244c71138a3d43546ac2268a406372f34c8fdd3a90a58e8")

    def test_verify_appendix(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(_APPENDIX_COMMAND) == EXIT_OK
        assert _written_sha256(tmp_path) == _APPENDIX_SHA256

    def test_curve_json(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(_CURVE_COMMAND) == EXIT_OK
        assert _written_sha256(tmp_path) == _CURVE_SHA256


# run in a fresh interpreter: import the CLI, list the numpy, scipy and
# mpmath modules it loaded, then block all three and run the commands given
# as a JSON list of argument lists, capturing what they print
_WITHOUT_NUMPY_OR_SCIPY = """
import contextlib, io, json, sys
import hcat.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy", "mpmath"))
sys.modules["numpy"] = sys.modules["scipy"] = sys.modules["mpmath"] = None
stdout = io.StringIO()
with contextlib.redirect_stdout(stdout):
    codes = [hcat.cli.run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"loaded": loaded, "codes": codes, "stdout": stdout.getvalue()}))
"""


def test_headline_pipeline_runs_without_scipy(tmp_path, capsys):
    # nor does any command but `mesh` and `family` need numpy, and none
    # needs mpmath, the tests' 40-digit oracle
    necksize = ["necksize", "--H", "0.25", "--d", "2"]
    commands = [*_HEADLINE_COMMANDS, _APPENDIX_COMMAND, _CURVE_COMMAND, necksize]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY_OR_SCIPY,
                           json.dumps(commands)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert run(necksize) == EXIT_OK
    assert json.loads(proc.stdout) == {"loaded": [], "codes": [EXIT_OK] * len(commands),
                                       "stdout": capsys.readouterr().out}
    assert _written_sha256(tmp_path) == {**_HEADLINE_SHA256, **_APPENDIX_SHA256,
                                         **_CURVE_SHA256}


# strings json escapes, and strings a %-template would misread
_TEXT = st.one_of(
    st.sampled_from(["", "%", "%s", "%%", "%(a)s", '"', "\\", "\n", "\u00e9", "\u2603"]),
    st.text(max_size=6),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.sampled_from([True, 1, False, 0]), st.integers(),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-300]),
    _TEXT,
    # a float subclass: json's own encoder writes it
    st.floats().map(np.float64),
)


@st.composite
def _record_lists(draw):
    """Flat records sharing one key set, now and then with one odd record."""
    keys = draw(st.lists(_TEXT, max_size=4, unique=True))
    records = draw(st.lists(st.fixed_dictionaries({k: _SCALARS for k in keys}),
                            max_size=8))
    if draw(st.booleans()):
        odd = draw(st.dictionaries(_TEXT, _SCALARS, max_size=3))
        records.insert(draw(st.integers(0, len(records))), odd)
    return records


_DOCUMENTS = st.recursive(
    st.one_of(_SCALARS, _record_lists()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
        # keys json turns into strings, after sorting them as numbers
        st.dictionaries(st.integers(), inner, max_size=3),
    ),
    max_leaves=24,
)


# columns of one scalar type, whose distinct values are formatted once,
# and of mixed types, such as the sweep's witnesses: floats and None
_COLUMNS = [
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.5, math.nan, math.inf, -math.inf]),
    st.one_of(st.none(), st.floats()),
    st.one_of(st.none(), st.sampled_from([0.0, -0.0, 2.5])),
    st.sampled_from(["center1_inside", "%s", "\u00e9"]),
    st.booleans(),
    _SCALARS,
]


@st.composite
def _tables(draw):
    """Tables of plain columns and of patterns: values repeated `each`
    times and cycled, as a report's heights, check ids and constants are."""
    keys = draw(st.lists(_TEXT, max_size=4, unique=True))
    rows = draw(st.integers(0, 9))
    columns = {}
    for k in keys:
        values = draw(st.sampled_from(_COLUMNS))
        if draw(st.booleans()):
            columns[k] = Pattern(draw(st.lists(values, min_size=1, max_size=4)), rows,
                                 draw(st.integers(1, 4)))
        else:
            columns[k] = draw(st.lists(values, min_size=rows, max_size=rows))
    return Table(columns)


def _column(column):
    """A column's values: a Pattern's expanded by its definition."""
    if type(column) is Pattern:
        return [column.values[i // column.each % len(column.values)]
                for i in range(column.size)]
    return column


def _expanded(doc):
    """`doc` with each Table replaced by the list of records it holds."""
    if type(doc) is Table:
        columns = map(_column, doc.columns.values())
        return [dict(zip(doc.columns, row)) for row in zip(*columns)]
    if type(doc) is dict:
        return {k: _expanded(v) for k, v in doc.items()}
    if type(doc) in (list, tuple):
        return [_expanded(v) for v in doc]
    return doc


class TestEmit:
    DOC = {"b": [1.5, {"z": None, "a": True}], "a": "\u00e9", "c": 1e-300}

    def test_file_bytes_equal_dumps(self, tmp_path):
        out = tmp_path / "doc.json"
        _emit(self.DOC, str(out))
        assert out.read_text() == json.dumps(self.DOC, indent=2, sort_keys=True) + "\n"

    def test_stdout_equals_dumps(self, capsys):
        _emit(self.DOC, None)
        assert capsys.readouterr().out == json.dumps(self.DOC, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(doc=_DOCUMENTS)
    def test_any_document_equals_dumps(self, tmp_path_factory, doc):
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        out = tmp_path_factory.getbasetemp() / "emit.json"
        stdout = io.StringIO()
        _emit(doc, str(out))
        with contextlib.redirect_stdout(stdout):
            _emit(doc, None)
        assert out.read_text() == want
        assert stdout.getvalue() == want

    @settings(max_examples=300, deadline=None)
    @given(table=_tables(), nested=st.booleans(),
           block=st.sampled_from([1, 2, 3, report._ROWS_PER_WRITE]),
           memo=st.sampled_from([1, 2, report._MEMO_SIZE]))
    def test_any_table_equals_dumps_of_its_rows(self, tmp_path_factory, table, nested,
                                                block, memo):
        # small blocks split a table across writes, and split a pattern's
        # period, so that it is formatted block by block; a small memo is
        # emptied between blocks.  Nested, a table is written at depths 1 and 3
        doc = {"records": table, "runs": [{"records": table}]} if nested else table
        want = json.dumps(_expanded(doc), indent=2, sort_keys=True) + "\n"
        out = tmp_path_factory.getbasetemp() / "table.json"
        with mock.patch.object(report, "_ROWS_PER_WRITE", block), \
                mock.patch.object(report, "_MEMO_SIZE", memo):
            _emit(doc, str(out))
        assert out.read_text() == want

    def test_signed_zeros_in_a_repeated_column(self, tmp_path):
        # 0.0 and -0.0 are one member of a set but two texts
        values = [0.0, -0.0, 1.5, -0.0, 0.0, 1.5, -0.0, 2.0, 0.0, -0.0]
        doc = {"records": Table({"t": values, "id": [f"c{i % 3}" for i in range(10)]})}
        out = tmp_path / "doc.json"
        _emit(doc, str(out))
        assert out.read_text() == json.dumps(_expanded(doc), indent=2, sort_keys=True) + "\n"

    def test_large_report_streams(self, tmp_path):
        # joining the 9 000 records' text in memory, as the margins CSV
        # once did, peaks at more than 1 MB
        strips = StripReport("strip_claim", [0.05 * i - 225.0 for i in range(1500)],
                             tuple(f"check_{j}" for j in range(6)),
                             [math.sin(i) for i in range(9000)], [None] * 9000)
        doc = _envelope("strips", {"step": 0.05}, {"strip_claim": strips.to_json_dict()})
        peaks = {}
        tracemalloc.start()
        try:
            _emit(doc, str(tmp_path / "strips.json"))
            peaks["json"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with open(tmp_path / "margins.csv", "w") as fh:
                write_margin_csv([strips], fh)
            peaks["csv"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks["json"] < 1e6 and peaks["csv"] < 1e6, peaks
        assert (tmp_path / "strips.json").read_text() == (
            json.dumps(_expanded(doc), indent=2, sort_keys=True) + "\n")


class TestParser:
    COMMANDS = "{necksize,curve,entire-graph,verify-appendix,disjoint,strips,mesh,family}"

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(["--help"])
        assert exc_info.value.code == 0
        assert self.COMMANDS in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["necksize", "--bogus"],
        ["necksize", "--H", "x", "--d", "1"],
        ["necksize", "--H", "0.25", "--d", "2", "extra"],
        ["disjoint", "--H", "0.25", "--d1", "3"],
        ["disjoint", "--H", "0.25", "--d1", "3", "--d2", "4", "--solve-d0"],
        ["mesh", "--H", "0.25", "--d", "2", "--rho-max", "3", "--mode", "bad",
         "--out", "x.obj"],
        ["strips", "--cert"],
        ["frobnicate"],
        [],
    ])
    def test_errors_match_the_full_parser(self, capsys, argv):
        # run builds only the named command's subparser; its messages must
        # be the ones the parser with all eight subparsers gives
        with pytest.raises(_UsageError) as full:
            _build_parser().parse_args(argv)
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {full.value}\n"


class TestMeshCommands:
    def test_mesh_obj_and_sidecar(self, tmp_path, schema_registry):
        out = tmp_path / "surf.obj"
        args = ["mesh", "--H", "0.25", "--d", "2", "--rho-max", "4",
                "--n", "5", "--m", "6", "--out", str(out)]
        assert run(args) == EXIT_OK
        lines = out.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 9 * 6
        assert sum(1 for l in lines if l.startswith("f ")) == 8 * 6
        meta = json.loads((tmp_path / "surf.json").read_text())
        validate_against("mesh_meta.schema.json", meta, schema_registry)
        assert meta["vertex_count"] == 9 * 6

    def test_family_manifest(self, tmp_path, schema_registry):
        out_dir = tmp_path / "frames"
        args = ["family", "--H", "0.25", "--d-list", "-0.5", "0", "2",
                "--rho-max", "3", "--n", "4", "--m", "4",
                "--out-dir", str(out_dir)]
        assert run(args) == EXIT_OK
        doc = json.loads((out_dir / "family.json").read_text())
        validate_against("family.schema.json", doc, schema_registry)
        frames = doc["result"]["frames"]
        assert len(frames) == 3
        for frame in frames:
            assert (out_dir / frame["file"]).exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(["--version"])
        assert exc_info.value.code == 0
        assert capsys.readouterr().out.startswith("hcat ")
