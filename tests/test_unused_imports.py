"""No module of the package imports a name it never uses, imports another
module's private name, or defines a private helper that nothing in it refers to;
and every public function, class and method has a caller in the package, a
verifier's job, or a place on the short ``KEPT`` list.

``from __future__`` imports are compiler directives, not names.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "afkit"
MODULES = sorted(PACKAGE.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text()) == []


TRACING = PACKAGE.parents[1] / "bench" / "tracing.py"

# Public names that nothing in the package calls and that stay anyway.
KEPT = (
    ("determinant", "verifier: the tests check that normal-form transforms are unimodular"),
    ("verify_certificate", "verifier: re-adds a membership certificate's generators"),
    ("verify_shen_certificate", "verifier: re-checks a Shen certificate against its system"),
    ("LimitEndomorphism.check_commuting", "verifier: the intertwining squares at every stage"),
    ("FgAbelianGroup.cyclic", "input builder for Z/n, used throughout the tests"),
    ("FreeWord.parse", "input builder for words, used throughout the tests"),
    ("chain_tree", "input builder for path trees, used throughout the tests"),
    ("PrimeLabeledGraph.relabel_vertices", "input builder for isomorphic copies of a graph"),
)


def public_definitions(tree: ast.Module):
    """(qualified name, node) of the public module-level functions and
    classes and of the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def receiver_classes(tree: ast.Module, classes: set) -> dict:
    """id of each attribute read ``r.name`` -> the class ``r`` is known to be:
    C where ``r`` is a ``self`` parameter inside C's body or a parameter
    annotated C, for C one of ``classes``."""
    known = {}

    def visit(node, env: dict, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            env = dict(env)
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                ann = arg.annotation  # C or "C"
                cls = ann.id if isinstance(ann, ast.Name) else getattr(ann, "value", None)
                cls = owner if arg.arg == "self" else cls
                env[arg.arg] = cls if cls in classes else None
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and env.get(node.value.id):
            known[id(node)] = env[node.value.id]
        for child in ast.iter_child_nodes(node):
            visit(child, env, owner)

    visit(tree, {}, None)
    return known


def uncalled_public_names(sources) -> list:
    """Public names that nothing outside their own body reads.

    A function or class is read where a name or an attribute spells it, a
    method of C where an attribute access spells it on a receiver that is C
    or of no known class (see :func:`receiver_classes`).  No class of the
    package subclasses another, so a read on a C can reach only C's methods.
    """
    trees = [ast.parse(source) for source in sources]
    classes = {n.name: n for tree in trees for n in tree.body if isinstance(n, ast.ClassDef)}
    subclasses = [c.name for c in classes.values() for base in c.bases if getattr(base, "id", None) in classes]
    assert not subclasses, f"{subclasses}: a read on the base can reach a subclass's methods"
    names: dict = {}
    attributes: dict = {}  # attribute name -> {id(node): receiver class or None}
    for tree in trees:
        typed = receiver_classes(tree, set(classes))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names.setdefault(n.id, set()).add(id(n))
            elif isinstance(n, ast.Attribute):
                attributes.setdefault(n.attr, {})[id(n)] = typed.get(id(n))
    uncalled = []
    for tree in trees:
        for qualified, node in public_definitions(tree):
            owner, _, name = qualified.rpartition(".")
            reads = attributes.get(name, {})
            if owner:  # a method: reads on a receiver that is its class or of no known class
                readers = {r for r, cls in reads.items() if cls in (None, owner)}
            else:
                readers = set(reads) | names.get(name, set())
            if not readers - {id(n) for n in ast.walk(node)}:
                uncalled.append(qualified)
    return sorted(uncalled)


def test_checker_sees_an_uncalled_public_name():
    source = ("def dead():\n    return dead()\n\ndef live():\n    pass\n\n"
              "class Box:\n    def used(self):\n        return self.inner()\n\n"
              "    def inner(self):\n        pass\n\n    def lonely(self):\n        return self.lonely()\n\n"
              "    def _private(self):\n        pass\n\n    def __len__(self):\n        return 0\n\n"
              "live().used()\n")
    assert uncalled_public_names([source]) == ["Box", "Box.lonely", "dead"]
    # b.matrix and c.matrix read B's field, which leaves A.matrix uncalled; an untyped read would call it
    source = ("class A:\n    def matrix(self):\n        pass\n\n"
              "class B:\n    matrix: int\n\n"
              "def use(b: B, c: 'B'):\n    return b.matrix, c.matrix\n\nuse(B(), B()), A()\n")
    assert uncalled_public_names([source]) == ["A.matrix"]
    assert uncalled_public_names([source + "\ndef f(c):\n    return c.matrix\n\nf(1)\n"]) == []
    assert uncalled_public_names(["def f():\n    pass\n", "from m import f\nf()\n"]) == []


def trace_targets() -> set:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr for _, attr, _ in module.TARGETS}


def test_every_public_name_has_a_caller():
    # the benchmark's tracer wraps its targets by name, so they stay while it does
    uncalled = uncalled_public_names(path.read_text() for path in MODULES)
    kept = {name for name, _ in KEPT}
    assert [name for name in uncalled if name not in kept | trace_targets()] == []
    assert sorted(kept - set(uncalled)) == []  # a kept name that gained a caller leaves KEPT
