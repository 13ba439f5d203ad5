"""Every public function in ``src/`` runs, or is user API.

The rule is checked by running the code.  The README's "Command line"
block runs once under ``sys.setprofile`` (``test_readme.command_block_run``).
Then each function or method that ``bench/tracing.py``'s ``install()``
wraps and that run did not enter is called once, from ``ORACLE_CALLS``.
Every public top-level function and public method of ``src/quadfrob`` must
have been entered by this traffic, or be a key of ``USER_API``, with the
reason a user is pointed to it.  A ``USER_API`` key that the traffic enters
fails too, so the list cannot go stale.  The keys of ``ORACLE_CALLS`` must
be exactly the tracer's names that the README run leaves out, so a change
to the tracer shows here.

Names are qualified: ``module.function`` for a top-level function,
``Class.method`` for a method.  A code object is matched to its ``def`` by
file and first line (Python 3.10 has no ``co_qualname``); the code of a
decorated def starts at its first decorator.
"""

import ast
import importlib.util
import types
from pathlib import Path

import quadfrob
from quadfrob import intlin, omodule
from quadfrob.frobenius import example_zsqrtm5
from test_readme import command_block_run, entered_by

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(quadfrob.__file__).resolve().parent

USER_API = {
    "corpus.braid_closure": "README documents it, for links beyond the corpus",
    "AlgebraLattice.comultiply": "README lists Delta on an element of A, comultiply(x), among the structure maps",
    "RingContext.field": "the constructor of K's elements, RingContext.field(p, q)",
    "RingElement.to_field": "K arithmetic of the exported FieldElement: O -> K",
    "FieldElement.norm": "K arithmetic of the exported FieldElement",
    "FieldElement.is_zero": "K arithmetic of the exported FieldElement",
    "FieldElement.inverse": "K arithmetic of the exported FieldElement",
    "FieldElement.is_integral": "the predicate K -> O: whether an element of K lies in O",
    "SparseMatrix.to_dense": "the dense view that SparseMatrix's docstring points to",
    "SparseMatrix.nnz": "the count its repr shows",
}

# one call to each traced function that no README command reaches
ORACLE_CALLS = {
    "intlin.kron": lambda alg: intlin.kron([[1, 2]], [[3], [4]]),
    "intlin.perm_matrix": lambda alg: intlin.perm_matrix(2, 2, [1, 0]),
    "intlin.rank_rat": lambda alg: intlin.rank_rat([[1, 2], [2, 4]]),
    "intlin.smith_normal_form": lambda alg: intlin.smith_normal_form([[2, 4], [6, 8]]),
    "omodule.tensor_over_O": lambda alg: omodule.tensor_over_O(alg.mu_z.A, alg.mu_z.A),
    "omodule.homology_pair": lambda alg: omodule.homology_pair([[2]], None, 1),
    "AlgebraLattice.tensor_power": lambda alg: alg.tensor_power(2),
    "FrobeniusAlgebra.closed_surface_invariant": lambda alg: alg.closed_surface_invariant(2),
}


def public_defs():
    """{qualified name: (file, first line of its code)} of each public
    top-level function and public method of ``src/quadfrob``."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [(path.stem, node) for node in tree.body]
        defs += [(node.name, item) for node in tree.body if isinstance(node, ast.ClassDef) for item in node.body]
        for owner, node in defs:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out[f"{owner}.{node.name}"] = (path, min([node.lineno] + [d.lineno for d in node.decorator_list]))
    return out


def entered_defs(codes):
    """The public defs whose code is among ``codes``."""
    lines = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in codes}
    return {name for name, where in public_defs().items() if where in lines}


def traced_names():
    """The qualified names of what the tracer's ``install()`` wraps, read
    off a dry install that is undone at once."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = [quadfrob, *(v for v in vars(quadfrob).values() if isinstance(v, types.ModuleType))]
    classes = [v for m in modules for v in vars(m).values() if isinstance(v, type) and v.__module__ == m.__name__]
    before = [(owner, dict(vars(owner))) for owner in modules + classes]
    try:
        tracing.install(types.SimpleNamespace(counters=[0] * len(tracing.COUNTERS)))
    finally:
        names = set()
        for owner, attrs in before:
            for attr, value in list(vars(owner).items()):
                if attrs.get(attr) is not value:
                    qualname, module = value.__wrapped__.__qualname__, value.__wrapped__.__module__
                    names.add(qualname if "." in qualname else f"{module.rsplit('.', 1)[1]}.{qualname}")
                    if attr in attrs:
                        setattr(owner, attr, attrs[attr])
                    else:  # a wrapper set on a class that inherited the method
                        delattr(owner, attr)
    return names


def test_every_public_function_has_a_caller_or_is_user_api():
    readme = entered_defs(command_block_run()[1])
    assert sorted(traced_names() - readme) == sorted(ORACLE_CALLS)
    alg = example_zsqrtm5(1, 1)  # fresh: a fixture's cached properties are not entered again
    oracles = entered_defs(entered_by(lambda: [call(alg) for call in ORACLE_CALLS.values()]))
    unentered = set(public_defs()) - readme - oracles
    assert sorted(unentered - set(USER_API)) == []
    assert sorted(set(USER_API) - unentered) == [], "a USER_API name is entered or left src/"
