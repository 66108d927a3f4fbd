"""Command-line front end: every pipeline as a subcommand.

Exit codes: 0 success, 1 usage or domain error, 2 a mathematical
verification or certification check failed.  All JSON reports embed the
tool version, the echoed configuration, and the tolerances in effect,
and are byte-deterministic for identical configurations.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .core import (
    CmcParams,
    QUAD_TOL,
    entire_graph_profile,
    necksize,
    profile,
    verify_appendix,
)
# re-exported so that hcat.cli.b_inverse stays importable; the benchmark's
# tests check that tracing rebinds it in every layer module
from .core import b_inverse as b_inverse
from .disjoint import (
    DisjointnessCertificate,
    GRID_STEP_DEFAULT,
    certify,
    solve_d0,
)
from .errors import (
    CertificationFailure,
    ConvergenceError,
    DomainError,
    PreconditionError,
)
from .mesh import EmbeddingMode, export_csv, export_meta, export_obj, family_frames, revolve
from .strips import (compute_offsets, pair_radii, remark_sweep, verify_c3_lemma,
                     verify_strip_claim)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; keep 2 reserved for
    # failed mathematical checks instead
    def error(self, message):
        raise _UsageError(message)


def _positive_float(text: str) -> float:
    # tolerances and grid steps: zero, negative and non-finite are usage errors
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _envelope(command: str, config: dict, result: dict) -> dict:
    return {
        "tool": "hcat",
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
    }


def _emit(doc: dict, out: str | None) -> None:
    # streamed: with indent set, json.dumps would join the whole report in memory
    if out is None:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _frange(lo: float, hi: float, step: float) -> list[float]:
    if not (lo <= hi and math.isfinite(hi - lo)):
        raise _UsageError(f"need a finite range with t_min <= t_max, got [{lo}, {hi}]")
    n = int(math.floor((hi - lo) / step + 0.5))
    vals = [lo + i * step for i in range(n + 1)]
    if vals[-1] < hi - 1e-12:
        vals.append(hi)
    return vals


def _build_parser() -> _Parser:
    parser = _Parser(prog="hcat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hcat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("necksize", help="print the neck radius for (H, d)")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--d", type=float, required=True)

    p = sub.add_parser("curve", help="sample a profile curve to CSV (and JSON)")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--rho-max", type=float, required=True)
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--quad-tol", type=_positive_float, default=QUAD_TOL)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json", dest="json_out", default=None, help="JSON output path")

    p = sub.add_parser("entire-graph", help="sample the d = -2H entire-graph profile")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--rho-max", type=float, required=True)
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--quad-tol", type=_positive_float, default=QUAD_TOL)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser(
        "verify-appendix",
        help="decomposition, derivative, remainder-bound and residual-decay sweeps",
    )
    p.add_argument("--H", type=float, nargs="+", default=[0.1, 0.25, 0.4])
    p.add_argument("--d", type=float, nargs="+", default=[2.5, 3.0, 10.0, 100.0])
    p.add_argument("--grid-points", type=int, default=50)
    p.add_argument("--quad-tol", type=_positive_float, default=QUAD_TOL)
    p.add_argument("--out", default=None)

    p = sub.add_parser("disjoint", help="solve the threshold and/or certify a pair")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--d1", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--d2", type=float, default=None)
    group.add_argument(
        "--solve-d0", action="store_true", help="take d2 as the solved threshold"
    )
    p.add_argument("--t-max", type=float, default=50.0)
    p.add_argument("--step", type=_positive_float, default=GRID_STEP_DEFAULT)
    p.add_argument("--quad-tol", type=_positive_float, default=QUAD_TOL)
    p.add_argument("--out", default=None)

    p = sub.add_parser("strips", help="strip and sweep checks for a certified pair")
    p.add_argument("--cert", required=True, help="certificate JSON path")
    p.add_argument("--t-min", type=float, default=-50.0)
    p.add_argument("--t-max", type=float, default=50.0)
    p.add_argument("--step", type=_positive_float, default=0.1)
    p.add_argument("--d-points", type=int, default=20)
    p.add_argument("--quad-tol", type=_positive_float, default=QUAD_TOL)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None, help="margin table CSV path")

    p = sub.add_parser("mesh", help="export one revolved surface as OBJ")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--rho-max", type=float, required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--m", type=int, default=64)
    p.add_argument(
        "--mode",
        choices=[m.value for m in EmbeddingMode],
        default=EmbeddingMode.POINCARE_DISK.value,
    )
    p.add_argument("--no-doubled", action="store_true")
    p.add_argument("--out", required=True, help="OBJ output path")

    p = sub.add_parser("family", help="export nested family frames as OBJ files")
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--d-list", type=float, nargs="+", required=True)
    p.add_argument("--rho-max", type=float, required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--m", type=int, default=64)
    p.add_argument(
        "--mode",
        choices=[m.value for m in EmbeddingMode],
        default=EmbeddingMode.POINCARE_DISK.value,
    )
    p.add_argument("--out-dir", required=True)

    return parser


def _cmd_necksize(args) -> int:
    value = necksize(CmcParams(args.H, args.d))
    print(f"{value:.17g}")
    return EXIT_OK


def _cmd_curve(args, entire_graph: bool) -> int:
    if entire_graph:
        curve = entire_graph_profile(args.H, args.rho_max, args.n, args.quad_tol)
        config = {"H": args.H, "rho_max": args.rho_max, "n": args.n,
                  "quad_tol": args.quad_tol}
        command = "entire-graph"
    else:
        curve = profile(CmcParams(args.H, args.d), args.rho_max, args.n, args.quad_tol)
        config = {"H": args.H, "d": args.d, "rho_max": args.rho_max, "n": args.n,
                  "quad_tol": args.quad_tol}
        command = "curve"
    export_csv(curve, args.out)
    if args.json_out is not None:
        _emit(_envelope(command, config, curve.to_json_dict()), args.json_out)
    return EXIT_OK


def _cmd_verify_appendix(args) -> int:
    result = verify_appendix(args.H, args.d, args.grid_points, args.quad_tol)
    config = {"H": args.H, "d": args.d, "grid_points": args.grid_points,
              "quad_tol": args.quad_tol}
    _emit(_envelope("verify-appendix", config, result), args.out)
    return EXIT_OK if result["passed"] else EXIT_CHECK_FAILED


def _cmd_disjoint(args) -> int:
    d0 = None
    if args.solve_d0:
        d0 = solve_d0(args.H, args.d1)
        d2 = d0
    else:
        d2 = args.d2
    config = {
        "H": args.H, "d1": args.d1, "d2": d2, "solve_d0": args.solve_d0,
        "t_max": args.t_max, "step": args.step, "quad_tol": args.quad_tol,
    }
    try:
        cert = certify(
            args.H, args.d1, d2, args.t_max, args.step,
            quad_tol=args.quad_tol, d0=d0,
        )
    except CertificationFailure as exc:
        _emit(
            _envelope("disjoint", config, {
                "certified": False,
                "failure": str(exc),
                "t": exc.t,
                "values": exc.values,
            }),
            args.out,
        )
        return EXIT_CHECK_FAILED
    result = cert.to_json_dict()
    result["certified"] = True
    _emit(_envelope("disjoint", config, result), args.out)
    return EXIT_OK


def _load_certificate(path: str) -> DisjointnessCertificate:
    data = json.loads(Path(path).read_text())
    if "result" in data:
        data = data["result"]
    return DisjointnessCertificate.from_json_dict(data)


def _log_spaced(lo: float, hi: float, n: int) -> list[float]:
    # n interior points, strictly inside (lo, hi)
    if n < 1:
        raise _UsageError(f"need at least one intermediate parameter, got {n}")
    llo, lhi = math.log(lo), math.log(hi)
    return [math.exp(llo + (lhi - llo) * (i + 1) / (n + 1)) for i in range(n)]


def _cmd_strips(args) -> int:
    config = {
        "cert": args.cert, "t_min": args.t_min, "t_max": args.t_max,
        "step": args.step, "d_points": args.d_points, "quad_tol": args.quad_tol,
    }
    cert = _load_certificate(args.cert)
    try:
        offsets = compute_offsets(cert)
    except PreconditionError as exc:
        _emit(_envelope("strips", config,
                        {"passed": False, "failure": str(exc)}), args.out)
        return EXIT_CHECK_FAILED
    t_grid = _frange(args.t_min, args.t_max, args.step)
    d_grid = _log_spaced(cert.d1, cert.d2, args.d_points)
    pair = pair_radii(cert, t_grid, args.quad_tol)
    strip = verify_strip_claim(pair, offsets)
    c3 = verify_c3_lemma(pair)
    remark = remark_sweep(pair, offsets, d_grid)
    passed = strip.passed and c3.passed and remark.passed
    result = {
        "passed": passed,
        "offsets": {"delta": offsets.delta, "delta1": offsets.delta1,
                    "delta2": offsets.delta2},
        "strip_claim": strip.to_json_dict(),
        "c3_lemma": c3.to_json_dict(),
        "remark_sweep": remark.to_json_dict(),
    }
    _emit(_envelope("strips", config, result), args.out)
    if args.csv is not None:
        Path(args.csv).write_text(
            strip.to_margin_csv()
            + "".join(c3.to_margin_csv().splitlines(keepends=True)[1:])
            + "".join(remark.to_margin_csv().splitlines(keepends=True)[1:])
        )
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_mesh(args) -> int:
    params = CmcParams(args.H, args.d)
    curve = profile(params, args.rho_max, args.n)
    doubled = not args.no_doubled and not params.is_entire_graph
    mesh = revolve(curve, args.m, EmbeddingMode(args.mode), doubled=doubled)
    export_obj(mesh, args.out)
    export_meta(mesh, Path(args.out).with_suffix(".json"))
    return EXIT_OK


def _cmd_family(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meshes = family_frames(
        args.H, args.d_list, args.rho_max, args.n, args.m, EmbeddingMode(args.mode)
    )
    entries = []
    for d, mesh in zip(args.d_list, meshes):
        name = f"frame_d_{d:.6g}.obj"
        export_obj(mesh, out_dir / name)
        entries.append({"d": d, "file": name, "metadata": mesh.metadata})
    config = {
        "H": args.H, "d_list": args.d_list, "rho_max": args.rho_max,
        "n": args.n, "m": args.m, "mode": args.mode,
    }
    _emit(_envelope("family", config, {"frames": entries}),
          str(out_dir / "family.json"))
    return EXIT_OK


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "necksize":
            return _cmd_necksize(args)
        if args.command == "curve":
            return _cmd_curve(args, entire_graph=False)
        if args.command == "entire-graph":
            return _cmd_curve(args, entire_graph=True)
        if args.command == "verify-appendix":
            return _cmd_verify_appendix(args)
        if args.command == "disjoint":
            return _cmd_disjoint(args)
        if args.command == "strips":
            return _cmd_strips(args)
        if args.command == "mesh":
            return _cmd_mesh(args)
        if args.command == "family":
            return _cmd_family(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, PreconditionError, ConvergenceError, OSError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificationFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
