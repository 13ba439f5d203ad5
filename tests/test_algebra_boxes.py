"""Golden results of the algebra search boxes, algebra by algebra.

``algebra_boxes_golden.json`` holds, for each box below, every algebra that
``search_solutions`` yields, in search order: its data, validation report,
dual solution, partition of z, Delta(1) in monomial coordinates, the
``ker(m)`` report at generator bound 8 and the closed-surface invariants of
genus 0..4; and the same record for its kind-3 twist by -1.  The values
were captured before the search shared one (mu, z) lattice between its
algebras; a change to the lattice, kernel or genus code that moves any
result shows here.  Rerun ``python tests/test_algebra_boxes.py`` only when
the results are meant to change.

The algebras of a box that share (a_bar, b_bar), twists included, share
one ``MultiplicationLattice``; the tests below check that its reports
match those of each algebra built on its own, that ker(m) is computed once
per pair, and that no report is shared.  The lattices hold no algebra, so
an algebra the caller drops is not kept alive by the search's lattice.
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("algebra_boxes_golden.json")

# name -> (d, generators of mu, z, coordinate bound)
BOXES = {
    "d-5": (-5, ((2, 0), (1, 1)), (2, 0), 1),
    "d-6": (-6, ((2, 0), (0, 1)), (2, 0), 1),
}
KERNEL_BOUND = 8
GENUS_MAX = 4


def _record(alg):
    us, ups = alg.mu_z.partition
    return {
        "data": alg.data.to_json(),
        "report": alg.report.to_json(),
        "duals": alg.duals.to_json(),
        "partition": [[u.to_json() for u in us], [u.to_json() for u in ups]],
        "delta_one_coords": list(alg.comultiply_one()),
        "kernel": alg.kernel_m_analysis(KERNEL_BOUND).to_json(),
        "genus": [str(alg.closed_surface_invariant(g)) for g in range(GENUS_MAX + 1)],
    }


def _search(name):
    """Every algebra the box's search yields, in search order, each with
    its kind-3 twist by -1."""
    from quadfrob import Ideal, RingContext
    from quadfrob.frobenius import TwistSpec, search_solutions, twist

    d, gens, z, bound = BOXES[name]
    ctx = RingContext(d)
    mu = Ideal.from_generators(ctx, [ctx(*g) for g in gens])
    return [(alg, twist(alg, TwistSpec(3, -ctx.one))) for alg in search_solutions(mu, ctx(*z), coord_bound=bound)]


def _box(name):
    out = []
    for alg, twisted in _search(name):
        row = _record(alg)
        row["twist"] = _record(twisted)
        out.append(row)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_box_is_frozen(golden):
    assert sorted(golden) == sorted(BOXES)


@pytest.mark.parametrize("name", sorted(BOXES))
def test_box_matches_golden(name, golden):
    got = _box(name)
    want = golden[name]
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{name}: algebra {i} ({w['data']}) differs"


# -- what the closing equation guarantees ---------------------------------------


@pytest.mark.parametrize("name", sorted(BOXES))
def test_search_accepts_every_candidate_with_the_closed_form_duals(name):
    # b_bar z eps(1)^2 = eps_x_bar^2 - a_bar eps_x_bar eps(1) - s^-1 z has its
    # right side in mu^2 = (z), so every (s, eps_x_bar, a_bar, eps(1)) of the
    # box gives an algebra, with D_bar = -s^-1 z, c = -s t_bar,
    # d = s eps_x_bar and d' = -s eps(1)
    from quadfrob import Ideal, RingContext
    from quadfrob.frobenius import search_solutions

    d, gens, z, bound = BOXES[name]
    ctx = RingContext(d)
    z = ctx(*z)
    mu = Ideal.from_generators(ctx, [ctx(*g) for g in gens])
    units = ctx.units()
    exbars = list(mu.lattice_points(bound))
    algs = list(search_solutions(mu, z, coord_bound=bound))
    n = len(exbars)
    assert len(algs) == len(units) ** 2 * n * (n + 1) == {"d-5": 80, "d-6": 24}[name]
    seen = set()
    for alg in algs:
        data, duals = alg.data, alg.duals
        t_bar = data.t_bar()
        delta_bar = data.eps_one * t_bar * z - data.eps_x_bar * data.eps_x_bar
        s = (-delta_bar).exact_div(z).unit_inverse()  # D_bar = -s^-1 z for a unit s
        seen.add((s, data.eps_x_bar, data.a_bar, data.eps_one))
        assert duals.c == -(s * t_bar)
        assert duals.d == s * data.eps_x_bar
        assert duals.d_prime == -(s * data.eps_one)
    assert seen == set(itertools.product(units, exbars, [ctx.zero, *exbars], units))


# -- the shared (a_bar, b_bar) layer -------------------------------------------

# distinct (a_bar, b_bar) among the algebras of each box; a kind-3 twist keeps both
DISTINCT_PAIRS = {"d-5": 36, "d-6": 10}


def _algebras(name):
    return [alg for pair in _search(name) for alg in pair]


@pytest.mark.parametrize("name", sorted(BOXES))
def test_shared_kernel_reports_match_algebras_on_their_own(name):
    from quadfrob.frobenius import build_algebra

    for alg in _algebras(name):
        alone = build_algebra(alg.data)
        assert alone.mu_z is not alg.mu_z
        assert alg.kernel_m_analysis(KERNEL_BOUND).to_json() == alone.kernel_m_analysis(KERNEL_BOUND).to_json()


@pytest.mark.parametrize("name", sorted(BOXES))
def test_one_kernel_analysis_per_multiplication(name, monkeypatch):
    from quadfrob import omodule

    algs = _algebras(name)
    pairs = {(alg.data.a_bar, alg.data.b_bar) for alg in algs}
    assert len(pairs) == DISTINCT_PAIRS[name]
    calls = []
    real = omodule.kernel_basis
    monkeypatch.setattr(omodule, "kernel_basis", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    for alg in algs:
        assert alg.kernel_m_analysis(KERNEL_BOUND).direct_sum_verified
    assert len(calls) == DISTINCT_PAIRS[name]
    assert len({id(alg.mult) for alg in algs}) == DISTINCT_PAIRS[name]


def test_the_orbit_of_x_hat_minus_x_u_has_index_the_norm_of_its_value():
    # [ker(m) : A (X_hat - X_u)] = |N(-b_bar + u (a_bar + u) / z)|, the
    # formula that lets the generator walk test units in O: the orbit
    # X~, J X~, (g1 X .) X~, (g2 X .) X~ of X~ = X_hat - X_u, formed as
    # lattices, lies in ker(m) with covolume |N(val)| times ker(m)'s
    from quadfrob.intlin import det_int, hnf_rows, mat_vec

    def gram_det(rows):
        return det_int([[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows])

    pairs = units = 0
    for name in sorted(BOXES):
        mults = {id(alg.mult): alg.mult for alg in _algebras(name)}.values()
        assert len(mults) == DISTINCT_PAIRS[name]
        for mult in mults:
            mult.kernel_m_analysis(2)
            mu_z = mult.mu_z
            ker_hnf, _, xhat = mult._kernel_parts()
            lmats = mult.x_first_factor_maps()
            first_unit = None
            for u in itertools.chain([mu_z.ctx.zero], mu_z.mu.lattice_points(2)):
                val = -mult.b_bar + (u * (mult.a_bar + u)).exact_div(mu_z.z)
                xtilde = [a - b for a, b in zip(xhat, mu_z.x_u(u))]
                orbit = hnf_rows([xtilde, mat_vec(mu_z.A2.action, xtilde), *(mat_vec(lmat, xtilde) for lmat in lmats)])
                case = (name, str(mult.a_bar), str(mult.b_bar), str(u))
                assert len(orbit) == 4, case
                assert hnf_rows([*ker_hnf, *orbit]) == ker_hnf, case
                assert gram_det(orbit) == val.norm() ** 2 * gram_det(ker_hnf), case
                pairs += 1
                if val.is_unit():
                    units += 1
                    first_unit = first_unit or (u, val)
            assert mult._generator(2) == first_unit
    assert (pairs, units) == (618, 92)


def test_reports_of_one_multiplication_are_independent():
    by_pair = {}
    for alg, _ in _search("d-5"):
        by_pair.setdefault((alg.data.a_bar, alg.data.b_bar), []).append(alg)
    first, other = next(algs for algs in by_pair.values() if len(algs) > 1)[:2]
    assert first.data != other.data
    assert other.mult is first.mult
    want = other.kernel_m_analysis(KERNEL_BOUND).to_json()
    mine = first.kernel_m_analysis(KERNEL_BOUND)
    mine.kernel_basis[0][0] += 1
    mine.kernel_basis.append([0] * 8)
    mine.xu_basis[1][2] += 1
    mine.xhat[0] += 1
    mine.notes.append("changed")
    assert other.kernel_m_analysis(KERNEL_BOUND).to_json() == want
    assert first.kernel_m_analysis(KERNEL_BOUND).to_json() == want


def _searched_and_dropped(name):
    """The box's shared (mu, z) lattice, weak references to the algebras of
    its search, each of which ran its ker(m) analysis, and weak references
    to their multiplications; the algebras themselves are dropped on
    return."""
    import weakref

    from quadfrob import Ideal, RingContext
    from quadfrob.frobenius import search_solutions

    d, gens, z, bound = BOXES[name]
    ctx = RingContext(d)
    mu = Ideal.from_generators(ctx, [ctx(*g) for g in gens])
    algs = list(search_solutions(mu, ctx(*z), coord_bound=bound))
    for alg in algs:
        assert alg.kernel_m_analysis(KERNEL_BOUND).direct_sum_verified
    return algs[0].mu_z, [weakref.ref(alg) for alg in algs], [weakref.ref(alg.mult) for alg in algs]


def test_shared_lattice_keeps_no_algebra_alive():
    import gc

    mu_z, refs, _ = _searched_and_dropped("d-5")
    gc.collect()
    assert len(mu_z._multiplications) == 0
    assert sum(ref() is not None for ref in refs) == 0



def test_dropped_algebras_are_freed_without_the_cycle_collector():
    # an algebra and its structure maps are one object with no reference
    # cycle, and the shared lattices hold their multiplications weakly, so
    # dropping the last reference frees the algebras, their
    # multiplications and the search's (mu, z) lattice at once
    import gc
    import weakref

    enabled = gc.isenabled()
    gc.disable()
    try:
        mu_z, refs, mult_refs = _searched_and_dropped("d-5")
        mu_z_ref = weakref.ref(mu_z)
        del mu_z
        assert len(refs) == 80
        assert sum(ref() is not None for ref in refs) == 0
        assert sum(ref() is not None for ref in mult_refs) == 0
        assert mu_z_ref() is None
    finally:
        if enabled:
            gc.enable()

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    GOLDEN.write_text(json.dumps({name: _box(name) for name in BOXES}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

