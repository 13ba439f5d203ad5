"""Golden homology captured from the dense 4^n tensor-power route.

Each entry was computed by the route this package used before the monomial
presentation and the elimination pipeline replaced it (Smith forms of the
full differentials, ranks over Q by Fraction elimination) and is frozen
here: per degree (free Z-rank, torsion invariants), the nonzero K-dimensions,
the lowest degree and the chain ranks.  The diagrams are the corpus, T(2,3..5)
and a few mixed-sign 3-braid closures with torsion; the braid words use +i
for s_i and -i for s_i^-1.  The worked T(2,4) and T(2,5) entries, too slow
for the dense route, were captured from unit elimination followed by
``smith_normal_form`` with full transforms, before ``snf_diagonal`` took its
place.
"""

import pytest

from conftest import total_rank
from quadfrob import corpus
from quadfrob.linkhom import build_complex, homology_integral, homology_over_K, simplify

# "algebra/diagram": (homology, k_dims, min_degree, chain ranks)
GOLDEN = {
    "eps0_b1/figure8": ({-1: (0, [2, 2, 2, 2]), 0: (4, []), 2: (0, [2, 2, 2, 2])}, {0: 2}, -2, [16, 32, 36, 32, 16]),
    "eps0_b1/hopf": ({0: (4, []), 2: (4, [])}, {0: 2, 2: 2}, 0, [8, 8, 8]),
    "eps0_b1/trefoil": ({0: (4, []), 3: (0, [2, 2, 2, 2])}, {0: 2}, 0, [8, 12, 24, 16]),
    "eps0_b1/unknot0": ({0: (4, [])}, {0: 2}, 0, [4]),
    "eps0_b1/unknot_r1minus": ({0: (4, [])}, {0: 2}, -1, [4, 8]),
    "eps0_b1/unknot_r1plus": ({0: (4, [])}, {0: 2}, 0, [8, 4]),
    "eps0_b1/unknot_r2pair": ({0: (4, [])}, {0: 2}, -1, [8, 20, 8]),
    "worked/figure8": ({-1: (0, [721]), 0: (4, []), 2: (0, [721])}, {0: 2}, -2, [16, 32, 36, 32, 16]),
    "worked/hopf": ({0: (4, []), 2: (4, [])}, {0: 2, 2: 2}, 0, [8, 8, 8]),
    "worked/trefoil": ({0: (4, []), 3: (0, [721])}, {0: 2}, 0, [8, 12, 24, 16]),
    "worked/unknot0": ({0: (4, [])}, {0: 2}, 0, [4]),
    "worked/unknot_r1minus": ({0: (4, [])}, {0: 2}, -1, [4, 8]),
    "worked/unknot_r1plus": ({0: (4, [])}, {0: 2}, 0, [8, 4]),
    "worked/unknot_r2pair": ({0: (4, [])}, {0: 2}, -1, [8, 20, 8]),
    "eps_x_one/figure8": ({-1: (0, [49]), 0: (4, []), 2: (0, [49])}, {0: 2}, -2, [16, 32, 36, 32, 16]),
    "eps_x_one/hopf": ({0: (4, []), 2: (4, [])}, {0: 2, 2: 2}, 0, [8, 8, 8]),
    "eps_x_one/trefoil": ({0: (4, []), 3: (0, [49])}, {0: 2}, 0, [8, 12, 24, 16]),
    "eps_x_one/unknot0": ({0: (4, [])}, {0: 2}, 0, [4]),
    "eps_x_one/unknot_r1minus": ({0: (4, [])}, {0: 2}, -1, [4, 8]),
    "eps_x_one/unknot_r1plus": ({0: (4, [])}, {0: 2}, 0, [8, 4]),
    "eps_x_one/unknot_r2pair": ({0: (4, [])}, {0: 2}, -1, [8, 20, 8]),
    "free_sanity/figure8": ({-1: (0, [2, 2, 2, 2]), 0: (4, []), 2: (0, [2, 2, 2, 2])}, {0: 2}, -2, [16, 32, 36, 32, 16]),
    "free_sanity/hopf": ({0: (4, []), 2: (4, [])}, {0: 2, 2: 2}, 0, [8, 8, 8]),
    "free_sanity/trefoil": ({0: (4, []), 3: (0, [2, 2, 2, 2])}, {0: 2}, 0, [8, 12, 24, 16]),
    "free_sanity/unknot0": ({0: (4, [])}, {0: 2}, 0, [4]),
    "free_sanity/unknot_r1minus": ({0: (4, [])}, {0: 2}, -1, [4, 8]),
    "free_sanity/unknot_r1plus": ({0: (4, [])}, {0: 2}, 0, [8, 4]),
    "free_sanity/unknot_r2pair": ({0: (4, [])}, {0: 2}, -1, [8, 20, 8]),
    "eps0_b1/T2_3": ({0: (4, []), 3: (0, [2, 2, 2, 2])}, {0: 2}, 0, [8, 12, 24, 16]),
    "eps0_b1/T2_4": ({0: (4, []), 3: (0, [2, 2, 2, 2]), 4: (4, [])}, {0: 2, 4: 2}, 0, [8, 16, 48, 64, 32]),
    "eps0_b1/T2_5": ({0: (4, []), 3: (0, [2, 2, 2, 2]), 5: (0, [2, 2, 2, 2])}, {0: 2}, 0, [8, 20, 80, 160, 160, 64]),
    "worked/T2_4": ({0: (4, []), 3: (0, [721]), 4: (4, [])}, {0: 2, 4: 2}, 0, [8, 16, 48, 64, 32]),
    "worked/T2_5": ({0: (4, []), 3: (0, [721]), 5: (0, [721])}, {0: 2}, 0, [8, 20, 80, 160, 160, 64]),
    "worked/b-12-12": ({-1: (0, [721]), 0: (4, []), 2: (0, [721])}, {0: 2}, -2, [16, 32, 36, 32, 16]),
    "worked/b-2-211": ({-2: (4, []), 0: (8, []), 2: (4, [])}, {-2: 2, 0: 4, 2: 2}, -2, [16, 32, 48, 32, 16]),
    "worked/b-1-1-12": ({-2: (0, [721]), 0: (4, [])}, {0: 2}, -3, [32, 64, 48, 28, 8]),
    "eps_x_one/b-1-122": ({-2: (4, []), 0: (8, []), 2: (4, [])}, {-2: 2, 0: 4, 2: 2}, -2, [16, 32, 48, 32, 16]),
    "eps_x_one/b-2-112": ({0: (16, [])}, {0: 8}, -2, [4, 32, 72, 32, 4]),
    "eps_x_one/b-21-21": ({-1: (0, [49]), 0: (4, []), 2: (0, [49])}, {0: 2}, -2, [16, 32, 36, 32, 16]),
}

BRAIDS = {
    "T2_3": ((1, 1, 1), 2),
    "T2_4": ((1, 1, 1, 1), 2),
    "T2_5": ((1, 1, 1, 1, 1), 2),
    "b-12-12": ((-1, 2, -1, 2), 3),
    "b-2-211": ((-2, -2, 1, 1), 3),
    "b-1-1-12": ((-1, -1, -1, 2), 3),
    "b-1-122": ((-1, -1, 2, 2), 3),
    "b-2-112": ((-2, -1, 1, 2), 3),
    "b-21-21": ((-2, 1, -2, 1), 3),
}


def diagram(name):
    if name in BRAIDS:
        return corpus.braid_closure(*BRAIDS[name])
    return corpus.diagram(name)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_homology(key, algebra_corpus):
    aname, name = key.split("/")
    want_h, want_k, min_degree, ranks = GOLDEN[key]
    cx = build_complex(diagram(name), algebra_corpus[aname])
    assert (cx.min_degree, cx.ranks) == (min_degree, ranks)
    h = homology_integral(cx)
    assert {i: (v["z_rank"], v["torsion"]) for i, v in h.degrees.items()} == want_h
    assert homology_over_K(cx) == want_k
    assert h.total_k_dim == sum(want_k.values())
    small = simplify(cx)
    assert total_rank(small) <= total_rank(cx)
    assert {i: (v["z_rank"], v["torsion"]) for i, v in homology_integral(small).degrees.items()} == want_h
