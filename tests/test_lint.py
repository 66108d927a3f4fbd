"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parents[1] / "src" / "hcat"


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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detects_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport a.b\n"
              "from m import x, y as z, w as w\nx()\n")
    assert _unused_imports(ast.parse(source)) == ["a (line 3)", "os (line 2)", "z (line 4)"]


@pytest.mark.parametrize("path", sorted(SRC_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
