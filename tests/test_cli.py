"""Command-line interface: exit codes, report schemas, determinism."""

import json

import pytest

from hcat.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, _emit, run

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


class TestEmit:
    DOC = {"b": [1.5, {"z": None, "a": True}], "a": "\u00e9", "c": 1e-300}

    def test_file_bytes_equal_dumps(self, tmp_path):
        out = tmp_path / "doc.json"
        _emit(self.DOC, str(out))
        assert out.read_text() == json.dumps(self.DOC, indent=2, sort_keys=True) + "\n"

    def test_stdout_equals_dumps(self, capsys):
        _emit(self.DOC, None)
        assert capsys.readouterr().out == json.dumps(self.DOC, indent=2, sort_keys=True) + "\n"


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
