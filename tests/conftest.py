"""Shared fixtures: a small certified pair and the schema registry."""

import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from hcat.disjoint import certify

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "hcat" / "schemas"
DATA_DIR = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def small_cert():
    """Quickly certified pair used by the unit tests (not acceptance scale)."""
    return certify(H=0.25, d1=3.0, d2=100.0, t_max=3.0, grid_step=0.5)


@pytest.fixture
def inversion_counts(monkeypatch):
    """Count, for every HeightTable, its builds per member d, its full-panel
    integrations per (d, u_lo) and its Brent solves per (d, |t|)."""
    from hcat import core

    counts = SimpleNamespace(builds=Counter(), panels=Counter(), solves=Counter())
    init, integrate, radius, brentq = (core.HeightTable.__init__, core._integrate_substituted,
                                       core.HeightTable.radius, core.brentq)
    asking = []  # (d, |t|) of the radius call in progress

    def counting_init(self, params, quad_tol):
        counts.builds[params.d] += 1
        init(self, params, quad_tol)

    def counting_integrate(params, u_lo, u_hi, *args):
        if u_lo % core._PANEL_U == 0.0 and u_hi == u_lo + core._PANEL_U:
            counts.panels[params.d, u_lo] += 1
        return integrate(params, u_lo, u_hi, *args)

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
    monkeypatch.setattr(core.HeightTable, "radius", counting_radius)
    monkeypatch.setattr(core, "brentq", counting_brentq)
    return counts


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
