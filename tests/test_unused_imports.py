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


def unused_private_definitions(source: str, others=()) -> list:
    """Module-level ``_name`` functions and classes that nothing outside their
    own body refers to, and ``_name`` methods (not dunders) of module-level
    classes that nothing outside their own body refers to either: a name or
    attribute in this module, or an attribute in ``others`` (the package's
    other modules)."""
    tree = ast.parse(source)
    elsewhere = {n.attr for other in others for n in ast.walk(ast.parse(other)) if isinstance(n, ast.Attribute)}
    definitions = [(node, set()) for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    definitions += [(item, elsewhere) for node in tree.body if isinstance(node, ast.ClassDef)
                    for item in node.body if isinstance(item, ast.FunctionDef)]
    unused = []
    for node, read_elsewhere in sorted(definitions, key=lambda d: d[0].lineno):
        if node.name.startswith("_") and not node.name.endswith("__"):
            inside = {id(n) for n in ast.walk(node)}
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                     if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in inside}
            if node.name not in names | read_elsewhere:
                unused.append(f"line {node.lineno}: {node.name}")
    return unused


def test_checker_sees_an_unused_private_helper():
    source = "def _dead(n):\n    return _dead(n - 1)\n\ndef _live():\n    pass\n\nclass _Box:\n    pass\n\nx = _live()\n"
    assert unused_private_definitions(source) == ["line 1: _dead", "line 7: _Box"]
    # a private method counts as read where an attribute spells it, in its module or another one
    source = ("class Box:\n    def _dead(self):\n        return self._dead()\n\n"
              "    def _live(self):\n        pass\n\n    def _remote(self):\n        pass\n\n"
              "    def __len__(self):\n        return 0\n\n    def use(self):\n        return self._live()\n")
    assert unused_private_definitions(source) == ["line 2: _dead", "line 8: _remote"]
    assert unused_private_definitions(source, ["def f(box):\n    return box._remote()\n"]) == ["line 2: _dead"]
    # a bare name elsewhere is another module's own definition, not a read of the method
    assert unused_private_definitions(source, ["def _remote():\n    pass\n\n_remote()\n"]) == [
        "line 2: _dead", "line 8: _remote"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_helpers(path):
    others = [other.read_text() for other in MODULES if other != path]
    assert unused_private_definitions(path.read_text(), others) == []


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
    ("FgAbelianGroup.cyclic", "input builder for Z/n, used throughout the tests"),
    ("FreeWord.parse", "input builder for words, used throughout the tests"),
    ("chain_tree", "input builder for path trees, used throughout the tests"),
    ("PrimeLabeledGraph.relabel_vertices", "input builder for isomorphic copies of a graph"),
    ("IntMatrix.entries", "dense view: the benchmark tracer's bit-size hook and the tests read it"),
    ("diagram_to_system", "library entry: a valid diagram's ordered system, which the tests realize"),
    ("EplagGroup.contains", "library entry: yes/no membership, the reference oracle for the record paths"),
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


def annotated_class(ann):
    """The class name an annotation spells: C, "C", Optional[C], C | None or "C | None"."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return annotated_class(ast.parse(ann.value, mode="eval").body)
    if isinstance(ann, ast.Subscript) and getattr(ann.value, "id", None) == "Optional":
        return annotated_class(ann.slice)
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        sides = [side for side in (ann.left, ann.right)
                 if not (isinstance(side, ast.Constant) and side.value is None)]
        return annotated_class(sides[0]) if len(sides) == 1 else None
    return ann.id if isinstance(ann, ast.Name) else None


def return_classes(trees, classes: set) -> dict:
    """Function or method name -> C, where every definition of that name in
    ``trees`` is annotated to return C (as :func:`annotated_class` reads it),
    for C one of ``classes``."""
    found: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                found.setdefault(node.name, set()).add(annotated_class(node.returns))
    return {name: cls for name, (cls, *others) in found.items() if not others and cls in classes}


def built_class(value, classes: set, returns: dict):
    """C for a value ``C(...)`` or ``C.method(...)``, or for ``f(...)`` or
    ``x.f(...)`` with ``returns[f]`` = C, else None."""
    func = value.func if isinstance(value, ast.Call) else None
    if isinstance(func, ast.Attribute):
        return func.value.id if getattr(func.value, "id", None) in classes else returns.get(func.attr)
    if isinstance(func, ast.Name):
        return func.id if func.id in classes else returns.get(func.id)
    return None


def receiver_classes(tree: ast.Module, classes: set, returns: dict) -> dict:
    """id of each attribute read ``r.name`` -> the class ``r`` is known to be:
    C where ``r`` is a ``self`` parameter inside C's body, a parameter
    annotated C, "C", Optional[C], C | None or "C | None", or a name last
    bound by ``r = C(...)``, ``r = C.method(...)``, ``r = f(...)`` or
    ``r = x.f(...)`` with ``returns[f]`` = C, or ``r: A = ...`` with A one of
    those annotations, for C one of ``classes``.  Any other binding of ``r``
    makes it of no known class."""
    known = {}

    def visit(node, env: dict, owner):
        if isinstance(node, ast.ClassDef):
            env, owner = dict(env), node.name
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            env = dict(env)
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                cls = owner if arg.arg == "self" else annotated_class(arg.annotation)
                env[arg.arg] = cls if cls in classes else None
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and env.get(node.value.id):
            known[id(node)] = env[node.value.id]
        # the value is read before the names are bound
        annotated = isinstance(node, ast.AnnAssign) and node.value is not None
        children = ([node.value, *node.targets] if isinstance(node, ast.Assign)
                    else [node.value, node.target] if annotated else ast.iter_child_nodes(node))
        for child in children:
            visit(child, env, owner)
        # any binding but r = C(...), r = C.method(...), r = f(...), r = x.f(...) or r: C = ...
        # leaves r of no known class
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            env[node.id] = None
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            env[node.targets[0].id] = built_class(node.value, classes, returns)
        elif annotated and isinstance(node.target, ast.Name):
            cls = annotated_class(node.annotation)
            env[node.target.id] = cls if cls in classes else None

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
    returns = return_classes(trees, set(classes))
    names: dict = {}
    attributes: dict = {}  # attribute name -> {id(node): receiver class or None}
    for tree in trees:
        typed = receiver_classes(tree, set(classes), returns)
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
    # a receiver bound by C(...), C.method(...) or r: C = ..., or annotated as an optional C, is a C
    for use in ("def f():\n    b = B()\n    return b.matrix\n",
                "def f():\n    b = B.make()\n    return b.matrix\n",
                "def f(x):\n    b: B = x\n    return b.matrix\n",
                "def f(b: Optional[B]):\n    return b.matrix\n",
                "def f(b: B | None):\n    return b.matrix\n",
                "def f(b: 'B | None'):\n    return b.matrix\n"):
        source = ("class A:\n    def matrix(self):\n        pass\n\n"
                  "class B:\n    matrix: int\n\n    @classmethod\n    def make(cls):\n        return cls()\n\n"
                  f"{use}\nf(), A(), B.make()\n")
        assert uncalled_public_names([source]) == ["A.matrix"], use
    # a name bound to anything else, annotated with a class not the package's, or rebound, is of no known class
    for use in ("def f(x):\n    b = x\n    return b.matrix\n",
                "def f(x):\n    b: int = x\n    return b.matrix\n",
                "def f(x):\n    b = B()\n    b = x\n    return b.matrix\n",
                "def f(x):\n    b, c = B(), x\n    return b.matrix\n",
                "def f(xs):\n    b = B()\n    for b in xs:\n        return b.matrix\n",
                "def f(x):\n    b = x\n    b = b.make()\n    return b.matrix\n"):
        source = ("class A:\n    def matrix(self):\n        pass\n\nclass B:\n    matrix: int\n\n"
                  f"{use}\nf(1), A(), B()\n")
        assert uncalled_public_names([source]) == [], use
    # r = f(...) and r = x.f(...) make r a B where every f of the package is annotated -> B
    head = ("class A:\n    def matrix(self):\n        pass\n\n"
            "class B:\n    matrix: int\n\n    def copy(self) -> 'B':\n        return self\n\n"
            "def build() -> Optional[B]:\n    return B()\n\n")
    for f, use in (("build", "def f(x):\n    b = build()\n    return b.matrix\n"),
                   ("copy", "def f(x):\n    b = x.copy()\n    return b.matrix\n"),
                   ("copy", "def f(x):\n    b = x.y.copy()\n    return b.matrix\n")):
        source = f"{head}{use}\nf(1), A(), build().copy()\n"
        assert uncalled_public_names([source]) == ["A.matrix"], use
        # a same-named function annotated otherwise, or not at all, leaves b of no known class
        for other in (f"def {f}() -> A:\n    pass\n\n{f}()\n", f"def {f}():\n    pass\n\n{f}()\n"):
            assert uncalled_public_names([source, other]) == [], (use, other)
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
