"""Seeded property tests on random 3-braid closures.

Each case draws a 3-braid word of 3-4 letters from ``random.Random(seed)``
and checks, over one fixture algebra, Lee's count (total K-dimension
2^components, every fixture here having a nonzero discriminant), the Euler
characteristic, and agreement with the K-oracle of ``test_k_oracle``.  Then
one random move of each kind, none of which changes the link, must leave
the integral homology unchanged degree by degree: inserting s_i s_i^-1,
conjugating by s_j^(+-1), and stabilizing to 4 strands with s_3^(+-1).
"""

import pytest

from conftest import rng
from quadfrob import corpus
from quadfrob.linkhom import build_complex, homology_integral, homology_over_K
from test_k_oracle import k_homology_dims

CASES = [("alg_eps0", 0), ("alg_eps0", 1), ("alg_worked", 2), ("alg_worked", 3), ("alg_eps1", 4), ("alg_eps1", 5)]


def _letter(r, strands=3):
    return r.choice((1, -1)) * r.randint(1, strands - 1)


def _moves(word, r):
    """(name, word, strands) of one random move of each kind on ``word``."""
    g = _letter(r)
    at = r.randint(0, len(word))
    c = _letter(r)
    return [
        ("insert", word[:at] + (g, -g) + word[at:], 3),
        ("conjugate", (c, *word, -c), 3),
        ("stabilize", (*word, r.choice((3, -3))), 4),
    ]


@pytest.mark.parametrize("name, seed", CASES, ids=[f"{n[4:]}-{s}" for n, s in CASES])
def test_random_braid_closure(name, seed, request):
    alg = request.getfixturevalue(name)
    assert not alg.data.discriminant().is_zero()
    r = rng(seed)
    word = tuple(_letter(r) for _ in range(r.randint(3, 4)))
    pd = corpus.braid_closure(word, 3)
    cx = build_complex(pd, alg)
    h = homology_integral(cx)
    dims = homology_over_K(cx)
    assert h.total_k_dim == sum(dims.values()) == 2 ** pd.components(), word
    chi_chain = sum((-1) ** i * cx.rank(i) // 2 for i in cx.degrees())
    assert chi_chain == sum((-1) ** i * d for i, d in dims.items()), word
    assert dims == k_homology_dims(pd, alg), word
    for move, other, strands in _moves(word, r):
        moved = homology_integral(build_complex(corpus.braid_closure(other, strands), alg))
        assert moved.degrees == h.degrees, (word, move, other)
