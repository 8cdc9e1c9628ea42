"""No module of the package imports a name it never uses, imports another
module's private name, or defines a private helper that nothing in it refers to.

``__init__.py`` re-exports the public names, so it is the one exception;
``from __future__`` imports are compiler directives, not names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "afkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_checker_sees_an_unused_import():
    assert unused_imports("from math import gcd, prod\nprint(prod([2]))\n") == ["line 1: gcd"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_private_definitions(source: str) -> list:
    """Module-level ``_name`` functions and classes that nothing outside their own body refers to."""
    tree = ast.parse(source)
    unused = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            inside = {id(n) for n in ast.walk(node)}
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                     if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in inside}
            if node.name not in names:
                unused.append(f"line {node.lineno}: {node.name}")
    return unused


def test_checker_sees_an_unused_private_helper():
    source = "def _dead(n):\n    return _dead(n - 1)\n\ndef _live():\n    pass\n\nclass _Box:\n    pass\n\nx = _live()\n"
    assert unused_private_definitions(source) == ["line 1: _dead", "line 7: _Box"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_helpers(path):
    assert unused_private_definitions(path.read_text()) == []


def private_imports(source: str) -> list:
    """Underscore names imported from an afkit module (relative or absolute)."""
    return sorted(f"line {node.lineno}: {alias.name}" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == "afkit")
                  for alias in node.names if alias.name.startswith("_"))


def test_checker_sees_a_private_import():
    source = "from .abelian import _eliminate, gcd\nfrom afkit.limits import _x\nfrom math import _y\n"
    assert private_imports(source) == ["line 1: _eliminate", "line 2: _x"]
    assert private_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text()) == []
