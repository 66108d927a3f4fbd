"""Shared fixtures: a small certified pair, the schema registry, counters
of the height tables' work and a loader of the benchmark's modules."""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from hcat.disjoint import certify

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "src" / "hcat" / "schemas"
DATA_DIR = Path(__file__).resolve().parent / "data"
BENCH_DIR = ROOT / "perfbench"


@pytest.fixture(scope="session")
def small_cert():
    """Quickly certified pair used by the unit tests (not acceptance scale)."""
    return certify(H=0.25, d1=3.0, d2=100.0, t_max=3.0, grid_step=0.5)


@pytest.fixture
def inversion_counts(monkeypatch):
    """Count, for every HeightTable, its builds per (H, d, remainder), its
    pieces per (d, remainder, u_lo, u_hi) as `_add_piece` tries them,
    split pieces included, the non-zero heights it was asked for the first
    time per (d, |t|) (`radii`, which `radius` calls too), solved by
    Brent, read from an inverse series or taken in closed form past t_far;
    its Brent solves per (d, t) of the height solved (`solves`), an
    inverse series' sample heights included; its closed-form far-field
    radii per (d, t) (`far`); and the inverse series it fitted, per
    (d, u_lo) of their piece (`inverses`).  Also every evaluation of the
    substituted integrand; every evaluation of Brent's excess (`solve_evaluations`),
    the bracket's two ends included; and every evaluation of a piece's
    series (`series_reads`): Brent's steps, forward reads and the heights
    at the pieces' ends.  `core.brentq` sums the series inline, so its
    reads are taken from its `RootResult`: its evaluations less the two
    ends, which the table already holds."""
    from hcat import core

    counts = SimpleNamespace(builds=Counter(), pieces=Counter(), radii=Counter(),
                             solves=Counter(), far=Counter(), inverses=Counter(),
                             evaluations=0, solve_evaluations=0, series_reads=0)
    table = core.HeightTable
    init, add_piece, radii, brent, far_radius, invert = (
        table.__init__, table._add_piece, table.radii, table._brent, table._far_radius,
        table._invert)
    substituted, series_at, brentq = core._substituted, core._series_at, core.brentq
    solving = []  # d of the table whose Brent solve is in progress

    def counting_init(self, params, remainder=False):
        counts.builds[params.H, params.d, remainder] += 1
        init(self, params, remainder)

    def counting_add_piece(self, u_lo, u_hi, depth):
        counts.pieces[self.params.d, self.remainder, u_lo, u_hi] += 1
        add_piece(self, u_lo, u_hi, depth)

    def counting_substituted(*args):
        counts.evaluations += 1
        return substituted(*args)

    def counting_series_at(series, u):
        counts.series_reads += 1
        return series_at(series, u)

    def counting_radii(self, ts):
        for t in {abs(t) for t in ts}.difference(self.memo):
            if t:
                counts.radii[self.params.d, t] += 1
        return radii(self, ts)

    def counting_invert(self, i):
        counts.inverses[self.params.d, self.breaks[i]] += 1
        return invert(self, i)

    def counting_far_radius(self, t):
        counts.far[self.params.d, t] += 1
        return far_radius(self, t)

    def counting_brent(self, i, t):
        solving.append(self.params.d)
        try:
            return brent(self, i, t)
        finally:
            solving.pop()

    def counting_brentq(series, start, t, *args, full_output=False, **kwargs):
        counts.solves[solving[-1], t] += 1
        root, result = brentq(series, start, t, *args, full_output=True, **kwargs)
        counts.solve_evaluations += result.function_calls
        counts.series_reads += result.function_calls - 2
        return (root, result) if full_output else root

    for name, counting in [("__init__", counting_init), ("_add_piece", counting_add_piece),
                           ("radii", counting_radii),
                           ("_invert", counting_invert), ("_brent", counting_brent),
                           ("_far_radius", counting_far_radius)]:
        monkeypatch.setattr(table, name, counting)
    monkeypatch.setattr(core, "_substituted", counting_substituted)
    monkeypatch.setattr(core, "_series_at", counting_series_at)
    monkeypatch.setattr(core, "brentq", counting_brentq)
    return counts


@pytest.fixture
def load_bench_module(monkeypatch):
    """load(name, filename): a module of perfbench/, imported from its file
    under `name` for this test without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(name: str, filename: str):
        spec = importlib.util.spec_from_file_location(name, BENCH_DIR / filename)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    return load


@pytest.fixture(scope="session")
def schema_registry():
    from referencing import Registry, Resource

    resources = []
    for path in SCHEMA_DIR.glob("*.json"):
        schema = json.loads(path.read_text())
        resources.append((schema["$id"], Resource.from_contents(schema)))
    return Registry().with_resources(resources)


def validate_against(schema_name: str, doc: dict, registry) -> None:
    import jsonschema

    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.Draft202012Validator(schema, registry=registry).validate(doc)
