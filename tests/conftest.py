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
    `quad` integrations per (d, remainder, u_lo, u_hi), split pieces
    included, and its Brent solves per (d, |t|); and every evaluation of
    the substituted integrand, Chebyshev samples and `quad` nodes alike."""
    from hcat import core

    counts = SimpleNamespace(builds=Counter(), pieces=Counter(), solves=Counter(),
                             evaluations=0)
    init, integrate, substituted, radius, brentq = (
        core.HeightTable.__init__, core._integrate_substituted, core._substituted,
        core.HeightTable.radius, core.brentq)
    asking = []  # (d, |t|) of the radius call in progress

    def counting_init(self, params, quad_tol, remainder=False):
        counts.builds[params.H, params.d, remainder] += 1
        init(self, params, quad_tol, remainder)

    def counting_integrate(params, u_lo, u_hi, remainder, tol):
        counts.pieces[params.d, remainder, u_lo, u_hi] += 1
        return integrate(params, u_lo, u_hi, remainder, tol)

    def counting_substituted(*args):
        counts.evaluations += 1
        return substituted(*args)

    def counting_radius(self, t):
        asking.append((self.params.d, abs(t)))
        try:
            return radius(self, t)
        finally:
            asking.pop()

    def counting_brentq(*args, **kwargs):
        counts.solves[asking[-1]] += 1
        return brentq(*args, **kwargs)

    monkeypatch.setattr(core.HeightTable, "__init__", counting_init)
    monkeypatch.setattr(core, "_integrate_substituted", counting_integrate)
    monkeypatch.setattr(core, "_substituted", counting_substituted)
    monkeypatch.setattr(core.HeightTable, "radius", counting_radius)
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
