"""Khovanov's algebra over O as an oracle that is not this code.

With mu = O, z = 1, a_bar = b_bar = 0 (so X^2 = 0), eps(1) = 0 and
eps_x_bar = 1, the package's theory is Khovanov homology tensored with O:
A = O[X]/X^2 is free of rank two over O, so Kh(L; O) = Kh(L; Z) (x)_Z O,
each free Z-rank doubles and each Z/2 becomes (Z/2)^2.  The expected groups
are Khovanov's closed form for the (2, n) torus links (Khovanov,
arXiv:math/9908171), typed in from the paper, not captured
from this code.  Shumakovitch's theorem (arXiv:math/0405474) is a second
oracle: the Khovanov homology of a non-split alternating link has only
Z/2 torsion, and has some unless the link is the unknot, the Hopf link or
a connected sum of these.

Khovanov's rational ranks come a second way from the q-graded complex of
``conftest.khovanov_ranks``, which walks the PD code itself and shares no
code with ``linkhom``.  They also pin the torsion of the other algebras, by
Lee's pairing (Lee, arXiv:math/0210213): an observed law, tested here on
small diagrams and not proved (README, "What the homology sees").
"""

import itertools
import json
import math
import random

import pytest

from conftest import LARGER_CLASS_GROUP_RINGS, khovanov_data, khovanov_k_dims, lee_degrees, search_hits
from quadfrob import build_algebra, corpus
from quadfrob.cli import main
from quadfrob.corpus import braid_closure
from quadfrob.intlin import det_int
from quadfrob.linkhom import build_complex, check_mod_p, homology_integral, simplify, smith_homology


def khovanov_t2n(n):
    """Kh(T(2,n); Z) of the positive torus link, degree -> (free rank,
    torsion): Z^2 in degree 0, Z in even and Z + Z/2 in odd degrees 2..n,
    and Z^2 in degree n when n is even."""
    out = {0: (2, [])}
    for k in range(2, n + 1):
        out[k] = (1, [2] if k % 2 else [])
    if n % 2 == 0:
        out[n] = (2, [])
    return out


def over_o(groups):
    """Groups over Z tensored with O = Z^2 as abelian groups."""
    return {k: (2 * rank, sorted(torsion * 2)) for k, (rank, torsion) in groups.items()}


def _homology(alg, n):
    h = homology_integral(build_complex(braid_closure((1,) * n, 2), alg)).to_json()
    return {int(k): (v["z_rank"], [int(t) for t in v["torsion"]]) for k, v in h["degrees"].items()}


def test_the_closed_form_of_the_trefoil():
    assert over_o(khovanov_t2n(3)) == {0: (4, []), 2: (2, []), 3: (2, [2, 2])}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_torus_links_match_khovanovs_closed_form(n, alg_khovanov):
    assert _homology(alg_khovanov, n) == over_o(khovanov_t2n(n))


def test_closed_surfaces(alg_khovanov, ctx, tmp_path, capsys):
    # the sphere is eps(1) = 0, the torus the rank 2 of A, and every higher
    # genus 0, since the handle is multiplication by 2X and X^2 = 0
    assert [str(v) for v in alg_khovanov.closed_surface_invariants(3)] == ["0", "2", "0", "0"]
    path = tmp_path / "khovanov.json"
    path.write_text(json.dumps(khovanov_data(ctx).to_json()))
    assert main(["tqft", "--alg", str(path), "--genus", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"genus_values": {"0": "0", "1": "2", "2": "0", "3": "0"}}


def test_it_is_a_valid_algebra_with_principal_mu(ctx):
    alg = build_algebra(khovanov_data(ctx))
    assert alg.report.accepted and alg.report.mu_principal
    assert alg.kernel_m_analysis().iso_to_A


@pytest.mark.parametrize("pd", [corpus.diagram(name) for name in corpus.names()]
                         + [braid_closure((1,) * n, 2) for n in range(3, 7)] + [braid_closure((1, 2) * 4, 3)],
                         ids=corpus.names() + [f"T(2,{n})" for n in range(3, 7)] + ["T(3,4)"])
def test_k_dims_are_khovanovs_rational_ranks(pd, alg_khovanov):
    # the q-graded complex of conftest shares no code with linkhom
    degrees = homology_integral(build_complex(pd, alg_khovanov)).degrees
    assert {i: v["k_dim"] for i, v in degrees.items() if v["k_dim"]} == khovanov_k_dims(pd)


def _torsion(alg, word):
    h = homology_integral(build_complex(braid_closure(word, 3), alg)).to_json()
    return [int(t) for v in h["degrees"].values() for t in v["torsion"]]


def _alternating_word(a1, b1, a2, b2):
    """sigma1^a1 sigma2^-b1 sigma1^a2 sigma2^-b2, an alternating 3-braid."""
    return (1,) * a1 + (-2,) * b1 + (1,) * a2 + (-2,) * b2


# Their closures are reduced, alternating, non-split 3-braid diagrams of at
# most 8 crossings; with both generators in two syllables, none is the
# unknot, the Hopf link or a connected sum of these.
ALTERNATING_WORDS = [
    _alternating_word(*exps)
    for exps in itertools.product(range(1, 4), repeat=4)
    if sum(exps) <= 8
]


@pytest.mark.parametrize("word", random.Random(11).sample(ALTERNATING_WORDS, 10), ids=str)
def test_alternating_closures_have_only_order_two_torsion(word, alg_khovanov):
    torsion = _torsion(alg_khovanov, word)
    assert torsion and set(torsion) == {2}


@pytest.mark.parametrize("word", [(1, -2), (1, 1, -2), (1, 1, -2, -2)], ids=["unknot", "hopf", "hopf#hopf"])
def test_the_excluded_closures_have_no_torsion(word, alg_khovanov):
    assert _torsion(alg_khovanov, word) == []


def _k_dims_and_torsion(pd, alg):
    degrees = homology_integral(build_complex(pd, alg)).degrees
    return ({i: v["k_dim"] for i, v in degrees.items()},
            {i: math.prod(v["torsion"]) for i, v in degrees.items()})


def _law_diagrams():
    diagrams = [corpus.diagram(name) for name in ("trefoil", "figure8", "hopf")]
    return diagrams + [braid_closure((1,) * n, 2) for n in (4, 5)]


def _assert_torsion_law(alg, diagrams, khovanov):
    """Lee's degrees, and the torsion law on each diagram, for one algebra."""
    n = abs(det_int(alg.handle_matrix()))
    assert n > 1, alg.data.to_json()
    for pd, k in zip(diagrams, khovanov):
        lee, torsion = _k_dims_and_torsion(pd, alg)
        assert {i: dim for i, dim in lee.items() if dim} == lee_degrees(pd), (alg.data.to_json(), pd.to_json())
        degrees = set(k) | set(lee) | set(torsion)
        p = 0
        for i in range(min(degrees) - 1, max(degrees) + 1):
            p = k.get(i, 0) - lee.get(i, 0) - p
            case = (alg.data.to_json(), pd.to_json(), i, n)
            assert p >= 0, case
            assert torsion.get(i + 1, 1) == n ** p, case
        assert p == 0, case


def _assert_no_torsion_prime_to_n(alg, diagrams):
    """The corollary on each diagram for one algebra; returns the number of
    (diagram, prime) cases."""
    n = det_int(alg.handle_matrix())
    primes = [q for q in (2, 3, 5, 7, 11, 13) if n % q]
    cases = 0
    for pd in diagrams:
        cx = build_complex(pd, alg)
        table = smith_homology(simplify(cx))
        for q in primes:
            case = (alg.data.to_json(), pd.to_json(), q, n)
            assert not any(t % q == 0 for _, torsion in table.values() for t in torsion), case
            assert check_mod_p(cx, table, {q}) == [q], case
            cases += 1
    return cases


def test_torsion_is_the_handle_determinant_to_the_lee_pairs(alg_eps0, alg_worked, alg_eps1):
    # With k_i = dim Kh^i(L; Q) from conftest's Khovanov complex and l_i
    # the algebra's K-dimension (Lee's count), p_i = k_i - l_i - p_(i-1)
    # counts the pairs that Lee's spectral sequence cancels between degrees
    # i and i+1, and each pair is one torsion summand of order |N|,
    # N = det(m o Delta)
    diagrams = _law_diagrams()
    khovanov = [khovanov_k_dims(pd) for pd in diagrams]
    for alg in [alg_eps0, alg_worked, alg_eps1] + search_hits():
        _assert_torsion_law(alg, diagrams, khovanov)


def test_no_torsion_at_a_prime_that_does_not_divide_the_handle_determinant(alg_eps0, alg_worked, alg_eps1):
    # the corollary of README's sketch ("What the homology sees"): at a
    # prime q with q not dividing N, the algebra is locally free with a
    # separable X-relation, so H has no q-torsion and the count mod q is
    # the free rank alone
    diagrams = [corpus.diagram(name) for name in corpus.names()]
    algs = [alg_eps0, alg_worked, alg_eps1] + search_hits()
    cases = sum(_assert_no_torsion_prime_to_n(alg, diagrams) for alg in algs)
    assert cases == 952


@pytest.mark.parametrize("ring", LARGER_CLASS_GROUP_RINGS, ids=lambda ring: f"{ring[0]}:{ring[1]}")
def test_the_law_and_its_corollary_beyond_class_number_two(ring):
    # the fixtures and search_hits() all live where Cl(O) = Z/2; here [mu]
    # is one class of order two among several, and N reaches 19,321
    algs = search_hits([ring])
    assert len(algs) == 6
    diagrams = _law_diagrams()
    khovanov = [khovanov_k_dims(pd) for pd in diagrams]
    for alg in algs:
        _assert_torsion_law(alg, diagrams, khovanov)
        _assert_no_torsion_prime_to_n(alg, diagrams)
