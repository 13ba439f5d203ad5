"""Every public function in ``src/`` has a caller outside the tests.

The library's public surface is what the command line, the ``__init__``
API, the benchmark scripts in ``bench/`` or other library code reach.  A
function or method that only the tests call belongs in the tests (as an
oracle in ``conftest.py``) or nowhere.  The check reads the sources with
``ast`` and goes by name: each public top-level function and public method
of ``src/quadfrob`` must be named in the code of ``src/`` or ``bench/``
outside its own ``def``, as an ``ast.Name``, an ``ast.Attribute``, or a
dot-separated part of a string constant (the benchmark tracer names what it
wraps as ``"omodule.tensor_power"``; ``__all__`` lists the ``__init__``
API).  Docstrings do not count.  Because it goes by name, a method that
shares its name with a called one (``AlgebraLattice.pure2`` beside
``MultiplicationLattice.pure2``) passes.

The only exceptions are ``USER_API``: names that no code calls but that a
user is pointed to.  An exception that gains a caller fails too, so the
list cannot go stale.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quadfrob"
BENCH = ROOT / "bench"

USER_API = {
    "comultiply": "README lists Delta on an element of A, comultiply(x), among the structure maps",
    "field": "the constructor of K's elements, RingContext.field(p, q)",
    "is_integral": "the predicate K -> O: whether an element of K lies in O",
    "to_dense": "the dense view that SparseMatrix's docstring points to",
}


def _trees(directory):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))]


def _docstrings(tree):
    """The constant nodes that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(body[0].value)
    return out


def public_defs(tree):
    """(name, node) of each public top-level function and public method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def references(tree):
    """(name, enclosing defs) of every name the code of ``tree`` mentions."""
    docstrings = _docstrings(tree)
    out = []

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef):
            inside = inside | {node}
        if isinstance(node, ast.Name):
            out.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, inside))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node not in docstrings:
            out.extend((part, inside) for part in node.value.split("."))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def uncalled_names():
    """Public names of ``src/`` with no mention outside their own def."""
    src = _trees(SRC)
    refs = [ref for tree in src + _trees(BENCH) for ref in references(tree)]
    uncalled = set()
    for tree in src:
        for name, node in public_defs(tree):
            if not any(ref == name and node not in inside for ref, inside in refs):
                uncalled.add(name)
    return uncalled


def test_every_public_function_has_a_caller_or_is_user_api():
    uncalled = uncalled_names()
    assert sorted(uncalled - set(USER_API)) == []
    assert sorted(set(USER_API) - uncalled) == [], "a USER_API name gained a caller or left src/"


def test_the_reader_sees_each_kind_of_mention():
    tree = ast.parse(
        '"""docs.gone"""\n'
        "def f():\n"
        "    f()\n"
        "def g():\n"
        "    return h, x.k, 'mod.s'\n"
    )
    names = {name for name, _ in references(tree)}
    assert {"f", "h", "k", "mod", "s"} <= names and not {"docs", "gone"} & names
    f_node = next(node for name, node in public_defs(tree) if name == "f")
    assert all(f_node in inside for name, inside in references(tree) if name == "f")
