"""Every top-level import in ``src/`` and ``tests/`` is used by its module.

A name counts as used when the module reads it anywhere, in code or in a
string annotation, or when the module is a package ``__init__`` (which
imports to re-export).  ``from __future__`` imports are directives, not
names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name the module's top-level imports bind, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each top-level import the module never reads."""
    tree = ast.parse(source)
    used = read_names(tree)
    return [(line, name) for name, line in imported_names(tree).items() if name not in used]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: str(p.relative_to(ROOT))
)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Optional, Union\n\nx: 'Optional[int]' = sys.argv\n"
    assert unused_imports(source) == [(1, "os"), (3, "Union")]
