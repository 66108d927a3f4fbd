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
from hcat.strips import StripCheck, StripReport, write_margin_csv

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
        ["curve", "--H", "0.25", "--d", "2", "--rho-max", "4", "--quad-tol", "0",
         "--out", "{tmp}/c.csv"],
        ["curve", "--H", "0.25", "--d", "2", "--rho-max", "inf", "--out", "{tmp}/c.csv"],
        ["verify-appendix", "--quad-tol", "-1", "--out", "{tmp}/a.json"],
    ])
    def test_bad_input_is_named_usage_error(self, capsys, tmp_path, cert_file, args):
        argv = [a.format(cert=cert_file, tmp=tmp_path) for a in args]
        assert run(argv) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

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
        # the last stepped height (1.2 and 1.1 here) is clamped to t_max
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

    def test_accepts_bare_certificate_json(self, cert_file, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(json.loads(cert_file.read_text())["result"]))
        args = ["strips", "--cert", str(bare), "--t-min", "-1",
                "--t-max", "1", "--step", "0.5", "--d-points", "2",
                "--out", str(tmp_path / "r.json")]
        assert run(args) == EXIT_OK


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the headline pipeline's reports, `disjoint --H .25 --d1 3
# --solve-d0` then `strips --csv`: 9 029 strip records and the margins of
# all three checks
_HEADLINE_SHA256 = {
    "cert.json": "eaf1dffa8330c9100095a8ce258d62be2530ec016daf85c65cd46249981e5851",
    "strips.json": "2a015a2e5e6b1a2283c078510f7fca1a029a5d8c79be1498ede077e5cf2a92ee",
    "margins.csv": "6edf80c5856e5d2157d543345486ee0ef95c0a7e37e5d45f07f28eac541983ce",
}


class TestPinnedReports:
    # sha256 of report bytes as json.dump wrote them; every writer must
    # reproduce them.  Reports are written in the working directory, since
    # `strips` echoes its --cert argument into its config.

    def test_headline_certificate_and_strips(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["disjoint", "--H", ".25", "--d1", "3", "--solve-d0",
                    "--out", "cert.json"]) == EXIT_OK
        assert run(["strips", "--cert", "cert.json", "--out", "strips.json",
                    "--csv", "margins.csv"]) == EXIT_OK
        assert {p.name: _sha256(p) for p in tmp_path.iterdir()} == _HEADLINE_SHA256

    def test_refined_remark_sweep(self, tmp_path, monkeypatch):
        # barriers shifted by 1e-3 reach no intermediate member, so every
        # swept member takes the 10x refinement and fails
        monkeypatch.chdir(tmp_path)
        assert run(_disjoint_args("small.json")) == EXIT_OK
        doc = json.loads((tmp_path / "small.json").read_text())
        doc["result"]["min_gap_observed"] = 2e-3
        (tmp_path / "tampered.json").write_text(json.dumps(doc))
        args = ["strips", "--cert", "tampered.json", "--t-min", "-2", "--t-max", "2",
                "--step", "0.5", "--d-points", "3", "--out", "r.json", "--csv", "r.csv"]
        assert run(args) == EXIT_CHECK_FAILED
        assert _sha256(tmp_path / "r.json") == (
            "3d7cd4f1c2ed142b6c260f1fa68f1de4f23353988f9cbf6887e28c54b834f935")
        assert _sha256(tmp_path / "r.csv") == (
            "bce8d4a6f833537bed6c5cf2af9211684ecebdca9090ce8de762ce5e1f952804")

    def test_verify_appendix(self, tmp_path):
        # each check entry nests a `witness` dict: not a flat record
        out = tmp_path / "appendix.json"
        assert run(["verify-appendix", "--out", str(out)]) == EXIT_OK
        assert _sha256(out) == (
            "4bb4d965bf369f7ef80f2807e4008a843ebdfe87ae2c62c60114edc38629495c")

    def test_curve_json(self, tmp_path):
        # `samples` is a list of flat records
        out = tmp_path / "curve.json"
        args = ["curve", "--H", ".27", "--d", "2.6", "--rho-max", "6", "--n", "64",
                "--out", str(tmp_path / "curve.csv"), "--json", str(out)]
        assert run(args) == EXIT_OK
        assert _sha256(out) == (
            "ff00d99742cd04572d6167483a3e9743aceddc60369c0678b0e0e1ee057ba8bd")



# run in a fresh interpreter: import the CLI, list the scipy modules it
# loaded, then block scipy and run the headline pipeline
_WITHOUT_SCIPY = """
import json, sys
import hcat.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
sys.modules["scipy"] = None
codes = [hcat.cli.run(["disjoint", "--H", ".25", "--d1", "3", "--solve-d0",
                       "--out", "cert.json"]),
         hcat.cli.run(["strips", "--cert", "cert.json", "--out", "strips.json",
                       "--csv", "margins.csv"])]
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_headline_pipeline_runs_without_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {"loaded": [], "codes": [EXIT_OK, EXIT_OK]}
    assert {p.name: _sha256(p) for p in tmp_path.iterdir()} == _HEADLINE_SHA256


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
    @given(doc=_DOCUMENTS, block=st.sampled_from([1, 2, 3, report._RECORDS_PER_WRITE]))
    def test_any_document_equals_dumps(self, tmp_path_factory, doc, block):
        # small blocks split record lists, odd records included, across writes
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        out = tmp_path_factory.getbasetemp() / "emit.json"
        stdout = io.StringIO()
        with mock.patch.object(report, "_RECORDS_PER_WRITE", block):
            _emit(doc, str(out))
            with contextlib.redirect_stdout(stdout):
                _emit(doc, None)
        assert out.read_text() == want
        assert stdout.getvalue() == want

    def test_large_report_streams(self, tmp_path):
        # joining the 9 000 records' text in memory, as the margins CSV
        # once did, peaks at more than 1 MB
        records = tuple(
            StripCheck(0.05 * i - 225.0, f"check_{i % 6}", math.sin(i), True, None)
            for i in range(9000))
        strips = StripReport("strip_claim", True, -0.9999, 11.0, "check_1", records)
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
            json.dumps(doc, indent=2, sort_keys=True) + "\n")


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
