"""Golden resolution cubes and chain complexes of ``linkhom``.

For each diagram, ``complex_golden.json`` holds what ``resolve`` returns:
per vertex the circles, each a sorted list of arcs, in their order, and per
cube edge its kind and the source and target circle positions.  For each
diagram over an algebra it holds what ``build_complex`` returns: the lowest
degree, the chain ranks and a SHA-256 of the sorted ``(row, col, entry)``
triples of every differential and of every sqrt(d)-action.  The inputs are
the corpus over the ``eps0``, ``worked`` and ``eps1`` algebras, and T(2,3)
to T(2,6) and two seeded braid closures of 5 and 6 crossings over ``eps0``.
Rerun ``python tests/test_complex_golden.py`` only when the output is meant
to change.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quadfrob import Ideal, RingContext, corpus  # noqa: E402
from quadfrob.frobenius import example_zsqrtm5, family_eps_x_one, family_eps_x_zero  # noqa: E402
from quadfrob.linkhom import build_complex, resolve  # noqa: E402
from quadfrob.ring import RingElement  # noqa: E402

GOLDEN_FILE = Path(__file__).with_name("complex_golden.json")


def random_braid(seed, length, strands=3):
    """A braid word of ``length`` letters on ``strands`` strands."""
    r = random.Random(seed)
    return tuple(r.choice((1, -1)) * r.randint(1, strands - 1) for _ in range(length))


BRAIDS = {f"braid{seed}": (random_braid(seed, n), 3) for seed, n in ((5, 5), (6, 6))}


def diagram(name):
    if name.startswith("T2_"):
        return corpus.braid_closure((1,) * int(name[3:]), 2)
    if name in BRAIDS:
        return corpus.braid_closure(*BRAIDS[name])
    return corpus.diagram(name)


DIAGRAMS = corpus.names() + [f"T2_{n}" for n in range(3, 7)] + sorted(BRAIDS)
COMPLEX_KEYS = [f"{a}/{name}" for a in ("eps0", "worked", "eps1") for name in corpus.names()]
COMPLEX_KEYS += [f"eps0/T2_{n}" for n in range(3, 7)] + [f"eps0/{name}" for name in sorted(BRAIDS)]


def matrix_digest(m):
    triples = sorted((i, j, e) for i, row in enumerate(m.rows) for j, e in row.items())
    return hashlib.sha256(json.dumps(triples).encode()).hexdigest()


def cube_record(name):
    cube = resolve(diagram(name))
    return {
        "circles": {"".join(map(str, v)): [sorted(c) for c in cs] for v, cs in sorted(cube.circles.items())},
        "edges": {
            f"{''.join(map(str, v))}/{j}": [kind, src, tgt] for (v, j), (kind, src, tgt) in sorted(cube.edges.items())
        },
    }


def complex_record(key, algebras):
    aname, name = key.split("/")
    cx = build_complex(diagram(name), algebras[aname])
    return {
        "min_degree": cx.min_degree,
        "ranks": cx.ranks,
        "diffs": [matrix_digest(d) for d in cx.diffs],
        "actions": [matrix_digest(a) for a in cx.actions],
    }


def build_algebras():
    """The test fixtures ``alg_eps0``, ``alg_worked`` and ``alg_eps1``."""
    ctx = RingContext(-5)
    mu = Ideal.from_generators(ctx, [ctx(2), ctx(1, 1)])
    return {
        "eps0": family_eps_x_zero(mu, ctx(2), ctx.zero, ctx.one, ctx.one),
        "worked": example_zsqrtm5(1, 1),
        "eps1": family_eps_x_one(mu, ctx(2), ctx(1, 1), ctx.one, ctx.one),
    }


@pytest.fixture(scope="module")
def algebras(alg_eps0, alg_worked, alg_eps1):
    return {"eps0": alg_eps0, "worked": alg_worked, "eps1": alg_eps1}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


def test_every_input_is_frozen(golden):
    assert golden["braids"] == {name: list(word) for name, (word, _) in BRAIDS.items()}
    assert [len(word) for word, _ in BRAIDS.values()] == [5, 6]
    assert sorted(golden["cubes"]) == sorted(DIAGRAMS)
    assert sorted(golden["complexes"]) == sorted(COMPLEX_KEYS)


@pytest.mark.parametrize("name", DIAGRAMS)
def test_cube_matches_golden(name, golden):
    assert json.loads(json.dumps(cube_record(name))) == golden["cubes"][name]


@pytest.mark.parametrize("key", COMPLEX_KEYS)
def test_complex_matches_golden(key, golden, algebras):
    assert complex_record(key, algebras) == golden["complexes"][key]


def test_complexes_never_read_a_and_b_over_K(golden, monkeypatch):
    # the edge maps come from the algebra's closed forms in O alone: once
    # the algebras are validated, no ring element enters K
    algs = build_algebras()

    def over_k(self, *args):
        raise AssertionError("build_complex computed over K")

    monkeypatch.setattr(RingElement, "to_field", over_k)
    monkeypatch.setattr(RingElement, "field_quotient", over_k)
    for key in COMPLEX_KEYS:
        assert complex_record(key, algs) == golden["complexes"][key], key


if __name__ == "__main__":
    algs = build_algebras()
    out = {
        "braids": {name: list(word) for name, (word, _) in BRAIDS.items()},
        "cubes": {name: cube_record(name) for name in DIAGRAMS},
        "complexes": {key: complex_record(key, algs) for key in COMPLEX_KEYS},
    }
    sections = []
    for section, records in sorted(out.items()):
        lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(records.items()))
        sections.append(f" {json.dumps(section)}: {{\n{lines}\n }}")
    GOLDEN_FILE.write_text("{\n" + ",\n".join(sections) + "\n}\n")  # one line per record
    print(f"wrote {GOLDEN_FILE}")
