"""Every top-level import in ``src/`` and ``tests/`` is used by its module,
as is every import of a package module, in a function body too, every
top-level function and class of the package is reached, the package's
name table serves each public name from the module defining it, and every
package module is in the grammar of the oldest Python that
``pyproject.toml`` declares.

A name counts as used when the module reads it anywhere, in code or in a
string annotation, or when the module is a package ``__init__`` (which
imports to re-export).  ``from __future__`` imports are directives, not
names.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import lhvlab

ROOT = Path(__file__).parents[1]
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
PACKAGE = sorted((ROOT / "src" / "lhvlab").glob("*.py"))


def imported_names(tree: ast.Module, nested: bool = False) -> dict[str, int]:
    """Each name the module's top-level imports bind, with its line; with ``nested``, every import's."""
    names = {}
    for node in ast.walk(tree) if nested else tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, including those inside string annotations."""
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


def unused_imports(source: str, nested: bool = False) -> list[tuple[int, str]]:
    """``(line, name)`` of each top-level import, or with ``nested`` each import, the module never reads."""
    tree = ast.parse(source)
    used = read_names(tree)
    return [(line, name) for name, line in imported_names(tree, nested).items() if name not in used]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: str(p.relative_to(ROOT))
)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE if p.name != "__init__.py"], ids=lambda p: str(p.relative_to(ROOT))
)
def test_every_package_import_is_read(path):
    """A package module reads every name it imports, in a function body too."""
    assert unused_imports(path.read_text(), nested=True) == []


def declared_python() -> tuple[int, int]:
    """The oldest Python that ``pyproject.toml``'s ``requires-python`` admits."""
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    return int(floor[1]), int(floor[2])


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_package_module_is_in_the_declared_python_grammar(path):
    ast.parse(path.read_text(), feature_version=declared_python())


def test_the_grammar_check_sees_a_newer_construct():
    assert declared_python() == (3, 10)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=declared_python())


def test_the_scan_sees_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Optional, Union\n\nx: 'Optional[int]' = sys.argv\n"
    assert unused_imports(source) == [(1, "os"), (3, "Union")]
    source += "\n\ndef f():\n    import reprlib\n    from json import dumps, loads\n    return loads\n"
    assert unused_imports(source, nested=True) == [(1, "os"), (3, "Union"), (9, "reprlib"), (10, "dumps")]


def unreached_definitions(sources: dict[str, str], public: set[str]) -> list[str]:
    """``module.name`` of each top-level function or class that nothing reaches.

    A definition is reached when its name is public, or when some top-level
    statement other than the definition itself reads it, in any of the
    modules; dunders are exempt.
    """
    reads = {}  # (module, statement index) -> the names and attributes that statement reads
    defined = []
    for module, source in sources.items():
        for k, node in enumerate(ast.parse(source).body):
            attributes = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            reads[module, k] = read_names(node) | attributes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((module, k, node.name))
    return [
        f"{module}.{name}"
        for module, k, name in defined
        if name not in public and not any(name in names for key, names in reads.items() if key != (module, k))
    ]


def test_every_package_definition_is_reached():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unreached_definitions(sources, set(lhvlab.__all__)) == []


def test_the_scan_sees_an_unreached_definition():
    sources = {
        "a": "def used():\n    return 1\n\ndef recursive(n):\n    return recursive(n - 1)\n\n"
             "def public():\n    return used()\n\nclass _Dead:\n    pass\n\ndef __getattr__(name):\n    pass\n\n"
             "def helper():\n    pass\n",
        "b": "import a\n\nx: 'a.Optional' = a.helper()\n",
    }
    assert unreached_definitions(sources, {"public"}) == ["a.recursive", "a._Dead"]


# every submodule of the package is public, except the CLI entry point
SUBMODULES = {path.stem for path in PACKAGE} - {"__init__", "cli"}


@pytest.mark.parametrize("name, module", sorted(lhvlab._MODULE_OF.items()))
def test_each_table_entry_names_where_it_is_defined(name, module):
    owner = importlib.import_module(f"lhvlab.{module}")
    assert name in vars(owner)
    assert getattr(vars(owner)[name], "__module__", owner.__name__) == owner.__name__


def test_all_is_the_table_and_the_submodules():
    assert lhvlab._SUBMODULES == SUBMODULES
    assert sorted(lhvlab.__all__) == lhvlab.__all__
    assert set(lhvlab.__all__) == lhvlab._MODULE_OF.keys() | SUBMODULES
    assert len(lhvlab.__all__) == len(lhvlab._MODULE_OF) + len(SUBMODULES)
    # served names are listed before their first use, as eagerly imported ones were
    assert set(lhvlab.__all__) <= set(dir(lhvlab))


def test_star_import_binds_each_name_to_its_definition():
    names = {}
    exec("from lhvlab import *", names)
    for name, module in lhvlab._MODULE_OF.items():
        assert names[name] is getattr(importlib.import_module(f"lhvlab.{module}"), name), name
    for module in SUBMODULES:
        assert names[module] is importlib.import_module(f"lhvlab.{module}"), module
    assert set(names) - {"__builtins__"} == set(lhvlab.__all__)
