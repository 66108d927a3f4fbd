"""Source hygiene: no module of the package imports a name it never uses,
defines a private function, class or constant that nothing in it reads,
defines a constant that another module defines too, imports a third-party
package that pyproject.toml does not declare, or writes indented JSON
other than through the report writer."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = ROOT / "src" / "hcat"
SOURCES = sorted(SRC_DIR.glob("*.py"))
REPORT_WRITER = SRC_DIR / "report.py"


def _names_read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _unused_imports(tree: ast.Module) -> list[str]:
    """Module-level imported names that no expression of the module reads.

    `import x as x` and `from m import x as x` mark deliberate re-exports
    and are not reported.
    """
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname == alias.name:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = _names_read(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _unused_private_defs(tree: ast.Module) -> list[str]:
    """Module-level `_name` functions, classes and constants that no
    expression of the module reads."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names
                       if name.startswith("_") and not name.endswith("__"))
    used = _names_read(tree)
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name not in used)


def test_detects_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport a.b\n"
              "from m import x, y as z, w as w\nx()\n")
    assert _unused_imports(ast.parse(source)) == ["a (line 3)", "os (line 2)", "z (line 4)"]


def test_detects_unused_private_defs():
    source = ("def _used():\n    pass\n"
              "def _unused():\n    return _used()\n"
              "class _Orphan:\n    def _method(self):\n        pass\n"
              "class _Base:\n    pass\n"
              "class Public(_Base):\n    pass\n"
              "def public():\n    pass\n")
    assert _unused_private_defs(ast.parse(source)) == [
        "_Orphan (line 5)", "_unused (line 3)"]


def test_detects_unused_private_constants():
    # a constant only assigned, however often, is not read
    source = ("_USED = 1\n_UNUSED = 2\n_ANNOTATED: int = 3\n__all__ = []\nPUBLIC = 4\n"
              "_REBOUND = 5\n_REBOUND = 6\n_A = _B = 7\n"
              "def f():\n    _LOCAL = 8\n    return _USED + _B\n")
    assert _unused_private_defs(ast.parse(source)) == [
        "_A (line 8)", "_ANNOTATED (line 3)", "_REBOUND (line 7)", "_UNUSED (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_private_defs(path):
    assert _unused_private_defs(ast.parse(path.read_text())) == []


def _module_constants(tree: ast.Module) -> set[str]:
    """Upper-case names, private or public, that the module body assigns."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets
                         if isinstance(t, ast.Name) and re.fullmatch(r"_*[A-Z][A-Z0-9_]*", t.id))
    return names


def test_detects_module_constants():
    source = ("_BLOCK = 512\nLIMIT: int = 3\n_A = B_2 = 4\n__all__ = []\n_memo = {}\n"
              "x, Y = 1, 2\ndef f():\n    LOCAL = 8\n    return LOCAL\n")
    assert _module_constants(ast.parse(source)) == {"_BLOCK", "LIMIT", "_A", "B_2"}


def test_no_constant_is_defined_in_two_modules():
    # one value per name: a second copy, set apart from the first, drifts
    # from it (a block size once differed between the report writer and
    # the strips' margin CSV)
    owners = {}
    for path in SOURCES:
        for name in _module_constants(ast.parse(path.read_text())):
            owners.setdefault(name, []).append(path.name)
    assert {name: files for name, files in owners.items() if len(files) > 1} == {}


def _third_party_imports(tree: ast.Module) -> set[str]:
    """Top-level names of every absolute import anywhere in the module,
    less the standard library and the package itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"hcat"}


def _declared(requirements: list[str]) -> set[str]:
    """Import names of PEP 508 requirement strings (`numpy>=1.21` -> numpy)."""
    return {re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_")
            for req in requirements}


def test_detects_undeclared_imports():
    source = ("import math\nimport numpy as np\nfrom scipy.integrate import quad\n"
              "from . import core\nfrom hcat.errors import DomainError\n"
              "def f():\n    import mpmath\n")
    assert _third_party_imports(ast.parse(source)) == {"numpy", "scipy", "mpmath"}
    assert _declared(["scipy>=1.10", "Py-Yaml ; python_version > '3'"]) == {"scipy", "py_yaml"}


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    declared = _declared(
        tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"])
    imported = set().union(*(_third_party_imports(ast.parse(p.read_text())) for p in SOURCES))
    assert imported - declared == set()


def test_numpy_is_imported_by_the_mesh_module_alone():
    # every command but `mesh` and `family` starts without loading numpy
    assert [p.name for p in SOURCES
            if "numpy" in _third_party_imports(ast.parse(p.read_text()))] == ["mesh.py"]


def _indented_json_calls(tree: ast.Module) -> list[str]:
    """`json.dump`/`json.dumps` calls, or bare `dump`/`dumps` calls, given
    an `indent=` keyword."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords)):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            name = f"{func.value.id}.{func.attr}"
        else:
            name = getattr(func, "id", None)
        if name in ("json.dump", "json.dumps", "dump", "dumps"):
            found.append(f"{name} (line {node.lineno})")
    return found


def test_detects_indented_json_calls():
    source = ("import json\nfrom json import dumps\n"
              "json.dump(d, fh, indent=2, sort_keys=True)\njson.dumps(d)\n"
              "dumps(d, indent=None)\nprint(d, indent=1)\nyaml.dump(d, indent=2)\n")
    assert _indented_json_calls(ast.parse(source)) == [
        "json.dump (line 3)", "dumps (line 5)"]


def test_indented_json_only_in_the_report_writer():
    # one writer keeps every report byte-identical to json's indented layout
    found = {p.name: _indented_json_calls(ast.parse(p.read_text()))
             for p in SOURCES if p != REPORT_WRITER}
    assert {name: calls for name, calls in found.items() if calls} == {}
