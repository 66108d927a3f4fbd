"""Command-line front end: every pipeline as a subcommand.

Exit codes: 0 success, 1 usage or domain error, 2 a mathematical
verification or certification check failed.  All JSON reports embed the
tool version and the echoed configuration, and are byte-deterministic
for identical configurations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .core import (
    CmcParams,
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
from .report import write_json
from .strips import (compute_offsets, pair_radii, remark_sweep, verify_c3_lemma,
                     verify_strip_claim, write_margin_csv)

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
    # grid steps: zero, negative and non-finite are usage errors
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
    if out is None:
        write_json(doc, sys.stdout)
    else:
        with open(out, "w") as fh:
            write_json(doc, fh)


def _require_distinct(*outputs: tuple[str, str | Path | None]) -> None:
    """Refuse two (name, path) outputs that name one file, before anything
    is computed or written: the later write would replace the earlier."""
    seen = {}
    for name, path in outputs:
        if path is None:
            continue
        key = os.path.realpath(path)
        if key in seen:
            raise _UsageError(f"{seen[key]} and {name} name the same file {str(path)!r}")
        seen[key] = name


def _add_mode(p: _Parser) -> None:
    # the mesh commands alone load hcat.mesh, and with it numpy
    from .mesh import EmbeddingMode

    p.add_argument(
        "--mode",
        choices=[m.value for m in EmbeddingMode],
        default=EmbeddingMode.POINCARE_DISK.value,
    )


def _args_necksize(p: _Parser) -> None:
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--d", type=float, required=True)


def _args_curve(p: _Parser) -> None:
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--rho-max", type=float, required=True)
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json", dest="json_out", default=None, help="JSON output path")


def _args_entire_graph(p: _Parser) -> None:
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--rho-max", type=float, required=True)
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json", dest="json_out", default=None)


def _args_verify_appendix(p: _Parser) -> None:
    p.add_argument("--H", type=float, nargs="+", default=[0.1, 0.25, 0.4])
    p.add_argument("--d", type=float, nargs="+", default=[2.5, 3.0, 10.0, 100.0])
    p.add_argument("--grid-points", type=int, default=50,
                   help="ignored, and must be >= 2: the checks read the height tables' "
                        "own nodes and two closed forms")
    p.add_argument("--out", default=None)


def _args_disjoint(p: _Parser) -> None:
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--d1", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--d2", type=float, default=None)
    group.add_argument(
        "--solve-d0", action="store_true", help="take d2 as the solved threshold"
    )
    p.add_argument("--t-max", type=float, default=50.0)
    p.add_argument("--step", type=_positive_float, default=GRID_STEP_DEFAULT)
    p.add_argument("--out", default=None)


def _args_strips(p: _Parser) -> None:
    p.add_argument("--cert", required=True, help="certificate JSON path")
    p.add_argument("--t-min", type=float, default=-50.0)
    p.add_argument("--t-max", type=float, default=50.0)
    p.add_argument("--step", type=_positive_float, default=0.1)
    p.add_argument("--d-points", type=int, default=20)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None, help="margin table CSV path")


def _args_mesh(p: _Parser) -> None:
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--rho-max", type=float, required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--m", type=int, default=64)
    _add_mode(p)
    p.add_argument("--no-doubled", action="store_true")
    p.add_argument("--out", required=True, help="OBJ output path")


def _args_family(p: _Parser) -> None:
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--d-list", type=float, nargs="+", required=True)
    p.add_argument("--rho-max", type=float, required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--m", type=int, default=64)
    _add_mode(p)
    p.add_argument("--out-dir", required=True)


def _cmd_necksize(args) -> int:
    value = necksize(CmcParams(args.H, args.d))
    print(f"{value:.17g}")
    return EXIT_OK


def _cmd_curve(args) -> int:
    _require_distinct(("--out", args.out), ("--json", args.json_out))
    if args.command == "entire-graph":
        curve = entire_graph_profile(args.H, args.rho_max, args.n)
        config = {"H": args.H, "rho_max": args.rho_max, "n": args.n}
        command = "entire-graph"
    else:
        curve = profile(CmcParams(args.H, args.d), args.rho_max, args.n)
        config = {"H": args.H, "d": args.d, "rho_max": args.rho_max, "n": args.n}
        command = "curve"
    Path(args.out).write_text(curve.to_csv())
    if args.json_out is not None:
        _emit(_envelope(command, config, curve.to_json_dict()), args.json_out)
    return EXIT_OK


def _cmd_verify_appendix(args) -> int:
    if args.grid_points < 2:
        raise _UsageError(f"--grid-points must be >= 2, got {args.grid_points}")
    result = verify_appendix(args.H, args.d)
    config = {"H": args.H, "d": args.d, "grid_points": args.grid_points}
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
        "t_max": args.t_max, "step": args.step,
    }
    try:
        cert = certify(args.H, args.d1, d2, args.t_max, args.step, d0=d0)
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
    if isinstance(data, dict) and "result" in data:
        data = data["result"]
    if not isinstance(data, dict):
        raise _UsageError(f"{path} is not a disjointness certificate: not a JSON object")
    try:
        return DisjointnessCertificate.from_json_dict(data)
    except KeyError as exc:
        raise _UsageError(f"{path} is not a disjointness certificate: no {exc}") from None
    except PreconditionError as exc:
        raise _UsageError(f"{path} is not a disjointness certificate: {exc}") from None


def _log_spaced(lo: float, hi: float, n: int) -> list[float]:
    # n interior points, strictly inside (lo, hi)
    if n < 1:
        raise _UsageError(f"need at least one intermediate parameter, got {n}")
    llo, lhi = math.log(lo), math.log(hi)
    return [math.exp(llo + (lhi - llo) * (i + 1) / (n + 1)) for i in range(n)]


def _cmd_strips(args) -> int:
    _require_distinct(("--cert", args.cert), ("--out", args.out), ("--csv", args.csv))
    config = {
        "cert": args.cert, "t_min": args.t_min, "t_max": args.t_max,
        "step": args.step, "d_points": args.d_points,
    }
    cert = _load_certificate(args.cert)
    c3 = verify_c3_lemma(cert)
    try:
        offsets = compute_offsets(cert)
    except PreconditionError as exc:
        _emit(_envelope("strips", config,
                        {"passed": False, "failure": str(exc)}), args.out)
        return EXIT_CHECK_FAILED
    d_grid = _log_spaced(cert.d1, cert.d2, args.d_points)
    pair = pair_radii(cert, args.t_min, args.t_max, args.step)
    strip = verify_strip_claim(pair, offsets)
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
        with open(args.csv, "w") as fh:
            write_margin_csv((strip, c3, remark), fh)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_mesh(args) -> int:
    sidecar = Path(args.out).with_suffix(".json")
    _require_distinct(("--out", args.out), ("the metadata sidecar", sidecar))
    # imported here, and its functions read from the module at each call, so
    # that no other command loads numpy and a tracer that rebinds them sees
    # these calls
    from . import mesh

    params = CmcParams(args.H, args.d)
    curve = profile(params, args.rho_max, args.n)
    doubled = not args.no_doubled and not params.is_entire_graph
    surface = mesh.revolve(curve, args.m, mesh.EmbeddingMode(args.mode), doubled=doubled)
    mesh.export_obj(surface, args.out)
    mesh.export_meta(surface, sidecar)
    return EXIT_OK


def _cmd_family(args) -> int:
    frames = {}  # file name: d
    for d in args.d_list:
        name = f"frame_d_{d:.6g}.obj"
        if name in frames:
            raise _UsageError(f"--d-list values {frames[name]!r} and {d!r} "
                              f"both name the frame {name}")
        frames[name] = d
    from . import mesh

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    surfaces = mesh.family_frames(
        args.H, args.d_list, args.rho_max, args.n, args.m, mesh.EmbeddingMode(args.mode)
    )
    entries = []
    for (name, d), surface in zip(frames.items(), surfaces):
        mesh.export_obj(surface, out_dir / name)
        entries.append({"d": d, "file": name, "metadata": surface.metadata})
    config = {
        "H": args.H, "d_list": args.d_list, "rho_max": args.rho_max,
        "n": args.n, "m": args.m, "mode": args.mode,
    }
    _emit(_envelope("family", config, {"frames": entries}),
          str(out_dir / "family.json"))
    return EXIT_OK


# name: (help, add_arguments, handler)
_COMMANDS = {
    "necksize": ("print the neck radius for (H, d)", _args_necksize, _cmd_necksize),
    "curve": ("sample a profile curve to CSV (and JSON)", _args_curve, _cmd_curve),
    "entire-graph": ("sample the d = -2H entire-graph profile", _args_entire_graph,
                     _cmd_curve),
    "verify-appendix": (
        "decomposition at the height tables' nodes; remainder bound and "
        "residual decay in closed form",
        _args_verify_appendix, _cmd_verify_appendix,
    ),
    "disjoint": ("solve the threshold and/or certify a pair", _args_disjoint,
                 _cmd_disjoint),
    "strips": ("strip and sweep checks for a certified pair", _args_strips, _cmd_strips),
    "mesh": ("export one revolved surface as OBJ", _args_mesh, _cmd_mesh),
    "family": ("export nested family frames as OBJ files", _args_family, _cmd_family),
}


def _build_parser(command: str | None = None) -> _Parser:
    """The root parser with the subparser of `command` alone, or with every
    subparser when `command` names none (--help, --version, a bad command)."""
    parser = _Parser(prog="hcat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hcat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_text, add_arguments, _ = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][2](args)
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
