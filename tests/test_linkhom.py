import math
import random
import re

import pytest

from conftest import diff_from, discriminant, freeze_first_crossing, n_plus, search_hits, sparse_product, total_rank
from quadfrob import corpus, ring
from quadfrob.frobenius import TwistSpec, twist
from quadfrob.intlin import det_int
from quadfrob.linkhom import (
    DifferentialSquareNonzeroError,
    EquivarianceError,
    MalformedPDError,
    PDCode,
    build_complex,
    homology_integral,
    homology_over_K,
    reidemeister_compare,
    resolve,
    simplify,
)


def homology_table(h):
    return {i: (v["z_rank"], list(v["torsion"])) for i, v in sorted(h.degrees.items())}


# -- PD codes -----------------------------------------------------------------


def test_pd_validation():
    """One case per rejection of ``PDCode``, matched by its whole message."""
    cases = [
        (((1, 2, 3, 4),), (1, 1), 0, "need one sign per crossing"),
        (((1, 2, 3, 3),), (2,), 0, "signs must be +1 or -1"),
        ((), (), 0, "a diagram needs at least one circle"),
        (((1, 1, 2, 2),), (1,), -1, "a diagram needs at least one circle"),
        (((1, 1, 2),), (1,), 0, "crossing (1, 1, 2) is not a 4-tuple"),
        (((1, 1, 1, 2),), (1,), 0, "arcs [1, 2] do not occur exactly twice"),
        # the positive kink with the wrong sign is unorientable
        (((1, 1, 2, 2),), (-1,), 0, "arc 1 flows into two crossings"),
        (((1, 2, 2, 3), (1, 3, 4, 4)), (1, 1), 0, "arc 2 flows out of two crossings"),
        (((1, 2, 1, 2),), (1,), 0, "not planar: V - E + F = 0, not 2, on the component of crossing 0"),
    ]
    for crossings, signs, loops, message in cases:
        with pytest.raises(MalformedPDError, match=f"^{re.escape(message)}$"):
            PDCode(crossings=crossings, signs=signs, loops=loops)


def test_non_planar_pd_is_rejected():
    # orientable, every arc twice, resolves; but the two crossings span a
    # torus: V - E + F = 2 - 4 + 2 = 0
    with pytest.raises(MalformedPDError, match="not planar"):
        PDCode(crossings=((3, 2, 1, 4), (1, 4, 3, 2)), signs=(1, 1))


def test_non_planar_error_names_the_smallest_crossing_of_its_component():
    hopf = ((1, 3, 4, 2), (3, 1, 2, 4))
    torus = ((13, 12, 11, 14), (11, 14, 13, 12))
    with pytest.raises(MalformedPDError, match="on the component of crossing 2$"):
        PDCode(crossings=hopf + torus, signs=(1, 1, 1, 1))
    with pytest.raises(MalformedPDError, match="on the component of crossing 0$"):
        PDCode(crossings=torus + hopf, signs=(1, 1, 1, 1))


def test_components_count_the_cycles_of_the_strand_permutation():
    r = random.Random(11)
    for _ in range(300):
        strands = r.randint(2, 4)
        word = [r.choice((1, -1)) * r.randint(1, strands - 1) for _ in range(r.randint(0, 7))]
        perm = list(range(strands))
        for g in word:
            i = abs(g) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        cycles, seen = 0, set()
        for start in range(strands):
            cycles += start not in seen
            while start not in seen:
                seen.add(start)
                start = perm[start]
        assert corpus.braid_closure(word, strands).components() == cycles, (word, strands)


def test_corpus_and_braid_closures_are_planar():
    for name in corpus.names():
        corpus.diagram(name)
    words = [((1,) * n, 2) for n in range(1, 8)] + [((1, 2) * n, 3) for n in range(1, 5)]
    words += [((1, -2, 1, -2), 3), ((1, 2, -3, 2, -1, 3), 4), ((2,), 3)]
    for word, strands in words:
        pd = corpus.braid_closure(word, strands)
        assert PDCode.from_json(pd.to_json()) == pd


def test_corpus_diagrams_valid():
    expected_components = {
        "unknot0": 1,
        "unknot_r1plus": 1,
        "unknot_r1minus": 1,
        "unknot_r2pair": 1,
        "hopf": 2,
        "trefoil": 1,
        "figure8": 1,
    }
    for name in corpus.names():
        pd = corpus.diagram(name)
        assert pd.components() == expected_components[name], name


def test_an_unknown_diagram_names_the_known_ones():
    with pytest.raises(KeyError) as exc:
        corpus.diagram("bogus")
    assert exc.value.args == (
        "unknown diagram 'bogus'; known: figure8, hopf, trefoil, unknot0, unknot_r1minus,"
        " unknot_r1plus, unknot_r2pair",
    )


def test_writhe_values():
    writhes = {"unknot_r1plus": 1, "unknot_r1minus": -1, "unknot_r2pair": 0,
               "hopf": 2, "trefoil": 3, "figure8": 0, "unknot0": 0}
    for name, w in writhes.items():
        pd = corpus.diagram(name)
        assert n_plus(pd) - pd.n_minus == w


def test_pd_json_roundtrip():
    pd = corpus.diagram("figure8")
    assert PDCode.from_json(pd.to_json()) == pd
    pd0 = corpus.diagram("unknot0")
    assert PDCode.from_json(pd0.to_json()) == pd0


# -- resolutions ----------------------------------------------------------------


def test_resolve_positive_kink():
    cube = resolve(corpus.diagram("unknot_r1plus"))
    assert cube.circle_count((0,)) == 2
    assert cube.circle_count((1,)) == 1
    assert cube.edges[((0,), 0)][0] == "merge"


def test_resolve_unknot0():
    cube = resolve(corpus.diagram("unknot0"))
    assert cube.circle_count(()) == 1


def test_resolve_hopf():
    cube = resolve(corpus.diagram("hopf"))
    counts = {v: cube.circle_count(v) for v in cube.circles}
    assert counts == {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 2}


def test_resolve_r2pair():
    cube = resolve(corpus.diagram("unknot_r2pair"))
    counts = {v: cube.circle_count(v) for v in cube.circles}
    assert counts == {(0, 0): 2, (1, 0): 3, (0, 1): 1, (1, 1): 2}


def test_resolve_rejects_an_edge_that_keeps_its_circles(monkeypatch):
    freeze_first_crossing(monkeypatch)
    with pytest.raises(MalformedPDError, match=re.escape("edge (0, 0, 0)->(1, 0, 0) changes circles 2->2")):
        resolve(corpus.diagram("trefoil"))


# -- complexes ------------------------------------------------------------------


def test_positive_kink_complex_is_multiplication(alg_eps0):
    cx = build_complex(corpus.diagram("unknot_r1plus"), alg_eps0)
    assert cx.min_degree == 0
    assert cx.ranks == [8, 4]
    assert cx.diffs[0].to_dense() == alg_eps0.mult.m_matrix()


def test_negative_kink_complex_is_comultiplication(alg_eps0):
    cx = build_complex(corpus.diagram("unknot_r1minus"), alg_eps0)
    assert cx.min_degree == -1
    assert cx.ranks == [4, 8]
    assert cx.diffs[0].to_dense() == alg_eps0.delta_matrix()


def test_unknot0_complex(alg_eps0):
    cx = build_complex(corpus.diagram("unknot0"), alg_eps0)
    assert cx.min_degree == 0
    assert cx.ranks == [4]
    assert cx.diffs == []


def test_d_squared_zero_everywhere(algebra_corpus):
    for aname, alg in algebra_corpus.items():
        for name in corpus.names():
            cx = build_complex(corpus.diagram(name), alg)
            cx.check_d_squared()  # raises on failure


def test_corrupted_differential_fails_d_squared(algebra_corpus):
    """Adding 1 to one entry (row, col) of one differential d_k, at seeded
    positions on every corpus diagram with two or more differentials: row is
    a column where d_(k+1) has an entry, so d_(k+1) d_k != 0.  The check
    names the first degree whose square the full products find nonzero."""
    r = random.Random(29)
    for aname, alg in algebra_corpus.items():
        for name in corpus.names():
            for _ in range(2):
                cx = build_complex(corpus.diagram(name), alg)
                if len(cx.diffs) < 2:
                    break
                k = r.randrange(len(cx.diffs) - 1)
                d = cx.diffs[k]
                row = r.choice(sorted({j for outer in cx.diffs[k + 1].rows for j in outer}))
                col = r.randrange(d.ncols)
                entry = d.rows[row].pop(col, 0) + 1
                if entry:
                    d.rows[row][col] = entry
                squares = zip(cx.diffs[1:], cx.diffs)
                nonzero = [i for i, (outer, inner) in enumerate(squares) if any(sparse_product(outer, inner).rows)]
                assert k in nonzero and set(nonzero) <= {k - 1, k}, (aname, name, k)
                degree = cx.min_degree + nonzero[0]
                with pytest.raises(DifferentialSquareNonzeroError, match=f"^d_squared check failed: d\\^2 != 0 at degree {degree}$"):
                    cx.check_d_squared()


def test_trefoil_chain_ranks(alg_eps0):
    cx = build_complex(corpus.diagram("trefoil"), alg_eps0)
    assert cx.min_degree == 0
    assert cx.ranks == [8, 12, 24, 16]


# -- homology ---------------------------------------------------------------------


def test_unknot0_homology(alg_eps0):
    h = homology_integral(build_complex(corpus.diagram("unknot0"), alg_eps0))
    assert homology_table(h) == {0: (4, [])}


def test_positive_kink_homology_matches_kernel(alg_eps0):
    h = homology_integral(build_complex(corpus.diagram("unknot_r1plus"), alg_eps0))
    assert homology_table(h) == {0: (4, [])}
    # H^0 is ker(m): same abelian group as the kernel lattice (free of rank 4)
    rep = alg_eps0.kernel_m_analysis()
    assert len(rep.kernel_basis) == 4


def test_corpus_homology_frozen(alg_eps0, alg_worked):
    # frozen from the exact computation; cross-validated below by
    # simplification, Euler characteristics and the rational-rank route
    expected_eps0 = {
        "unknot0": {0: (4, [])},
        "unknot_r1plus": {0: (4, [])},
        "unknot_r1minus": {0: (4, [])},
        "unknot_r2pair": {0: (4, [])},
        "hopf": {0: (4, []), 2: (4, [])},
        "trefoil": {0: (4, []), 3: (0, [2, 2, 2, 2])},
        "figure8": {-1: (0, [2, 2, 2, 2]), 0: (4, []), 2: (0, [2, 2, 2, 2])},
    }
    expected_worked = {
        "unknot0": {0: (4, [])},
        "unknot_r1plus": {0: (4, [])},
        "unknot_r1minus": {0: (4, [])},
        "unknot_r2pair": {0: (4, [])},
        "hopf": {0: (4, []), 2: (4, [])},
        "trefoil": {0: (4, []), 3: (0, [721])},
        "figure8": {-1: (0, [721]), 0: (4, []), 2: (0, [721])},
    }
    for alg, table in ((alg_eps0, expected_eps0), (alg_worked, expected_worked)):
        for name, want in table.items():
            h = homology_integral(build_complex(corpus.diagram(name), alg))
            assert homology_table(h) == want, name


def test_braid_closures_reproduce_frozen_tables(alg_eps0, alg_worked):
    # the trefoil and figure-8 tables of test_corpus_homology_frozen
    tables = {
        ((1, 1, 1), 2): (
            {0: (4, []), 3: (0, [2, 2, 2, 2])},
            {0: (4, []), 3: (0, [721])},
        ),
        ((1, -2, 1, -2), 3): (
            {-1: (0, [2, 2, 2, 2]), 0: (4, []), 2: (0, [2, 2, 2, 2])},
            {-1: (0, [721]), 0: (4, []), 2: (0, [721])},
        ),
    }
    for (word, strands), wants in tables.items():
        pd = corpus.braid_closure(word, strands)
        assert pd.components() == 1
        for alg, want in zip((alg_eps0, alg_worked), wants):
            h = homology_integral(build_complex(pd, alg))
            assert homology_table(h) == want, word
    with pytest.raises(ValueError):
        corpus.braid_closure((2,), 2)
    assert corpus.braid_closure((), 3).loops == 3


def test_torus_2_7_lee_count_and_euler_characteristic(alg_eps0):
    pd = corpus.braid_closure((1,) * 7, 2)
    cx = build_complex(pd, alg_eps0)
    dims = homology_over_K(cx)
    assert sum(dims.values()) == 2 ** pd.components() == 2
    chi_chain = sum((-1) ** i * cx.rank(i) // 2 for i in cx.degrees())
    assert chi_chain == sum((-1) ** i * d for i, d in dims.items())
    assert homology_integral(cx).total_k_dim == 2


def test_trefoil_torsion_tracks_discriminant(ctx, mu):
    # across algebras the top-degree torsion group order equals |N(disc)|/4;
    # frozen for a fourth algebra as an extra cross-check
    from quadfrob.frobenius import family_eps_x_zero

    alg = family_eps_x_zero(mu, ctx(2), ctx(1, 1), ctx(-1), ctx.one)
    assert discriminant(alg.data).norm() == 164
    h = homology_integral(build_complex(corpus.diagram("trefoil"), alg))
    assert homology_table(h) == {0: (4, []), 3: (0, [41])}


def _radical_divides(t, n):
    """Whether every prime of t divides n, by stripping common factors."""
    g = math.gcd(t, n)
    while g > 1:
        t //= g
        g = math.gcd(t, n)
    return t == 1


def test_torsion_primes_divide_the_handle_determinant():
    # where N = det(m o Delta) is invertible, A is separable and carries no
    # torsion, so every torsion prime divides N
    diagrams = [corpus.diagram(name) for name in ("trefoil", "figure8", "hopf")]
    for word, strands in (((1,) * 4, 2), ((1, 1, 2, 2), 3), ((1, 1, -2, -2), 3)):
        diagrams.append(corpus.braid_closure(word, strands))
    seen = 0
    for alg in search_hits():
        n = det_int(alg.handle_matrix())
        if n == 0:
            continue
        for pd in diagrams:
            for i, v in homology_integral(build_complex(pd, alg)).degrees.items():
                for t in v["torsion"]:
                    assert _radical_divides(t, n), (alg.data.to_json(), pd.to_json(), i, t, n)
                    seen += 1
    assert seen > 0


@pytest.mark.parametrize("name", ["eps0", "worked", "eps1"])
def test_twists_leave_homology_unchanged(name, request, ctx):
    # twists 1 and 2 change the variable X, twist 3 rescales the trace by a
    # unit: none changes link homology
    alg = request.getfixturevalue(f"alg_{name}")
    diagrams = [corpus.diagram("trefoil"), corpus.diagram("figure8"),
                corpus.braid_closure((1,) * 4, 2), corpus.braid_closure((1, -2, 1, -2), 3)]
    untwisted = [homology_table(homology_integral(build_complex(pd, alg))) for pd in diagrams]
    for kind, param in ((1, ctx(-1)), (3, ctx(-1)), (2, ctx(2)), (2, ctx(1, 1)), (2, ctx(-2))):
        twisted = twist(alg, TwistSpec(kind, param))
        assert twisted.report.accepted, (kind, param)
        for pd, expected in zip(diagrams, untwisted):
            got = homology_table(homology_integral(build_complex(pd, twisted)))
            assert got == expected, (kind, param, pd.to_json())


def test_unfactored_torsion_is_named_in_notes(alg_worked, monkeypatch):
    # with trial division only up to 3, the worked trefoil's Z/721 = 7 * 103
    # keeps its whole cofactor: mod 7 and mod 103 do not run, and the
    # report says so
    monkeypatch.setattr(ring, "TRIAL_DIVISION_BOUND", 3)
    h = homology_integral(build_complex(corpus.diagram("trefoil"), alg_worked))
    assert homology_table(h)[3] == (0, [721])
    assert [c for c in h.checks if c.startswith("mod_")] == ["mod_2"]
    assert [n for n in h.notes if "721" in n] == [
        "degree 3: torsion invariant 721 has the cofactor 721, too large to factor; its primes were not checked mod p"
    ]


def test_simplify_preserves_homology(algebra_corpus):
    for aname, alg in algebra_corpus.items():
        for name in corpus.names():
            cx = build_complex(corpus.diagram(name), alg)
            small = simplify(cx)
            assert homology_table(homology_integral(cx)) == homology_table(
                homology_integral(small)
            ), (aname, name)
            assert total_rank(small) <= total_rank(cx)


def test_simplify_shrinks_and_stabilizes(alg_eps0):
    cx = build_complex(corpus.diagram("trefoil"), alg_eps0)
    small = simplify(cx)
    assert total_rank(small) < total_rank(cx)
    again = simplify(small)
    assert again.ranks == small.ranks
    kink = simplify(build_complex(corpus.diagram("unknot_r1plus"), alg_eps0))
    assert kink.ranks == [4, 0]


def test_euler_characteristic(algebra_corpus):
    for aname, alg in algebra_corpus.items():
        for name in corpus.names():
            cx = build_complex(corpus.diagram(name), alg)
            dims = homology_over_K(cx)
            chi_chain = sum((-1) ** i * cx.rank(i) // 2 for i in cx.degrees())
            chi_hom = sum((-1) ** i * d for i, d in dims.items())
            assert chi_chain == chi_hom, (aname, name)


def test_k_dims_rational_rank_oracle(alg_eps0):
    # recompute the K-dimensions by hand from rational ranks alone
    from quadfrob.intlin import rank_rat

    for name in corpus.names():
        cx = build_complex(corpus.diagram(name), alg_eps0)
        dims = homology_over_K(cx)
        for i in cx.degrees():
            d_out = diff_from(cx, i)
            d_in = diff_from(cx, i - 1)
            q_dim = cx.rank(i) - (rank_rat(d_out) if d_out else 0) - (
                rank_rat(d_in) if d_in else 0
            )
            assert dims.get(i, 0) == q_dim // 2


def test_the_lee_degrees_check_runs_where_the_discriminant_is_nonzero(algebra_corpus):
    # N = det(m o Delta) decides whether build_complex hands the complex
    # Lee's degrees; it is nonzero exactly where the discriminant is
    trefoil = corpus.diagram("trefoil")
    dets = {aname: det_int(alg.handle_matrix()) for aname, alg in algebra_corpus.items()}
    assert {k: dets[k] for k in ("eps0_b1", "worked", "eps_x_one", "khovanov")} == {
        "eps0_b1": 16, "worked": 721, "eps_x_one": 49, "khovanov": 0,
    }
    for alg in [*algebra_corpus.values(), *search_hits()]:
        n = det_int(alg.handle_matrix())
        assert (n != 0) == (not discriminant(alg.data).is_zero()), alg.data.to_json()
        assert ("lee_degrees" in homology_integral(build_complex(trefoil, alg)).checks) == (n != 0)


def test_reidemeister_compare(alg_eps0):
    u0 = corpus.diagram("unknot0")
    for other in ("unknot_r1plus", "unknot_r1minus", "unknot_r2pair"):
        rep = reidemeister_compare(u0, corpus.diagram(other), alg_eps0)
        assert rep["integral_equal"] is True, other
        assert rep["k_dims_equal"] is True, other


def test_simplified_complex_refuses_k_route(alg_eps0):
    cx = simplify(build_complex(corpus.diagram("hopf"), alg_eps0))
    with pytest.raises(ValueError):
        homology_over_K(cx)


def test_build_rejects_unclosed_algebra(ctx, mu):
    from quadfrob.frobenius import family_eps_x_zero

    relaxed = family_eps_x_zero(mu, ctx(2), ctx(1), ctx.one, ctx.one)
    with pytest.raises(ValueError):
        build_complex(corpus.diagram("unknot0"), relaxed)


# -- the sqrt(d)-equivariance check ---------------------------------------------


@pytest.mark.parametrize("name", ["trefoil", "figure8"])
def test_corrupted_differential_fails_equivariance(name, alg_eps0, alg_worked):
    """Adding 1 to one entry of one differential, at seeded positions, zero
    entries included: the 2x2 block there no longer intertwines the
    sqrt(d)-actions, whose commutant has no rank-one element, so the check
    raises and names the degree; the full products agree with it."""
    r = random.Random(17)
    for alg in (alg_eps0, alg_worked):
        clean = build_complex(corpus.diagram(name), alg)
        clean.check_equivariance()
        for _ in range(6):
            cx = build_complex(corpus.diagram(name), alg)
            k = r.choice([k for k, d in enumerate(cx.diffs) if d.nrows and d.ncols])
            d = cx.diffs[k]
            row, col = r.randrange(d.nrows), r.randrange(d.ncols)
            entry = d.rows[row].pop(col, 0) + 1
            if entry:
                d.rows[row][col] = entry
            assert sparse_product(d, cx.actions[k]) != sparse_product(cx.actions[k + 1], d)
            degree = cx.min_degree + k
            with pytest.raises(EquivarianceError, match=f"^equivariance check failed: differential from degree {degree} does not commute"):
                cx.check_equivariance()


@pytest.mark.parametrize("name", ["trefoil", "figure8"])
def test_corrupted_action_fails_equivariance(name, alg_eps0, alg_worked, alg_eps1):
    """Adding 1 to one entry inside a 2x2 diagonal block of one action, at
    seeded positions: the check raises on the first differential whose two
    products, formed in full, differ.  One does at every seeded position:
    the bump at (row, col) of A_k changes d_k A_k by column ``row`` of d_k
    and A_k d_(k-1) by row ``col`` of d_(k-1), and one of them is nonzero."""
    r = random.Random(23)
    for alg in (alg_eps0, alg_worked, alg_eps1):
        for _ in range(6):
            cx = build_complex(corpus.diagram(name), alg)
            k = r.choice([k for k, a in enumerate(cx.actions) if a.nrows])
            row = r.randrange(cx.actions[k].nrows)
            col = (row & ~1) | r.randrange(2)
            entry = cx.actions[k].rows[row].pop(col, 0) + 1
            if entry:
                cx.actions[k].rows[row][col] = entry
            differ = [
                i
                for i, d in enumerate(cx.diffs)
                if sparse_product(d, cx.actions[i]) != sparse_product(cx.actions[i + 1], d)
            ]
            assert differ
            degree = cx.min_degree + differ[0]
            with pytest.raises(EquivarianceError, match=f"^equivariance check failed: differential from degree {degree} does not commute"):
                cx.check_equivariance()


def test_action_entry_outside_its_blocks_fails_equivariance(alg_eps0):
    cx = build_complex(corpus.diagram("trefoil"), alg_eps0)
    cx.actions[1].rows[0][2] = 1
    with pytest.raises(EquivarianceError, match="action at degree 1 has an entry outside its 2x2 diagonal blocks"):
        cx.check_equivariance()
