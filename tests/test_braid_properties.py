"""Seeded property tests on random 3-braid closures.

Each case draws a 3-braid word of 3-4 letters from ``random.Random(seed)``
and checks, over one fixture algebra, Lee's count (total K-dimension
2^components, every fixture here having a nonzero discriminant), the Euler
characteristic, and agreement with the K-oracle of ``test_k_oracle``.  Then
one random move of each kind, none of which changes the link, must leave
the integral homology unchanged degree by degree: inserting s_i s_i^-1,
conjugating by s_j^(+-1), and stabilizing to 4 strands with s_3^(+-1).

Lee's degrees (``conftest.lee_degrees``, a theorem for every fixture here,
as each has N != 0) are asserted degree by degree on closures that no
golden file holds: 24 distinct mixed-sign braids of 3 strands and 3-6
letters or 4 strands and 3-5 letters.  Every named check is blind to some
faults that this catches, such as swapping the 0- and 1-smoothings in
``linkhom._circles_at``.
"""

import random

import pytest

from conftest import lee_degrees, rng
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


def _lee_words(count):
    """``count`` distinct braid words with both signs, from a seeded draw."""
    r = random.Random(43)
    words = []
    while len(words) < count:
        strands = r.choice((3, 4))
        length = r.randint(3, 6 if strands == 3 else 5)
        word = tuple(_letter(r, strands) for _ in range(length))
        if min(word) < 0 < max(word) and (word, strands) not in words:
            words.append((word, strands))
    return words


LEE_CASES = [(name, word, strands) for word, strands in _lee_words(24)
             for name in ("alg_eps0", "alg_worked", "alg_eps1")]


@pytest.mark.parametrize("name, word, strands", LEE_CASES,
                         ids=[f"{n[4:]}-{s}-{'.'.join(map(str, w))}" for n, w, s in LEE_CASES])
def test_lee_degrees_of_seeded_braid_closures(name, word, strands, request):
    pd = corpus.braid_closure(word, strands)
    assert homology_over_K(build_complex(pd, request.getfixturevalue(name))) == lee_degrees(pd), word
