"""The algebra side's exact routes against the routes they replaced.

``analyze`` solves the closed-form duals in O, by exact division by
D_bar = z^2 delta~; the route over K that it replaced is kept here as
the oracle.  ``AlgebraLattice`` reads x (x) y and X_u in closed form, and
``MultiplicationLattice`` writes m and the maps (g_i X .) (x) id in closed
form on A (x)_O A; the oracles are the projection and section of the
Z-tensor square, the 16x16 Kronecker product of left multiplication read
off ``FrobeniusAlgebra.multiply``, and the integral lift of Delta(1) to the
Z-tensor square.  X_hat is written in closed form; the oracle is the
paper's ``pure2`` sum over a solved partition of z.  The mechanism guards count calls instead of timing them.
"""

import functools
import random

import pytest

from quadfrob import corpus, frobenius, ideals, intlin, omodule
from quadfrob.frobenius import (
    DegenerateTraceError,
    DualSolution,
    FrobeniusData,
    analyze,
    build_algebra,
    family_eps_x_zero,
    search_solutions,
    twist,
    TwistSpec,
)
from quadfrob.ideals import solve_partition_of_z
from quadfrob.intlin import identity, kron, mat_mul, mat_vec, transpose
from quadfrob.linkhom import build_complex, homology_integral
from quadfrob.omodule import DirectSumFailureError
from quadfrob.ring import ClosureError, parse_element

from conftest import (
    RINGS,
    contains_fraction,
    delta_one_lift,
    k_delta_tilde,
    k_eps_x,
    k_t,
    left_mult_matrix,
    multiply,
    outer,
    pure2,
    random_algebra_element,
    random_mu_element,
    ring_of,
    search_hits,
    to_ring,
    z_basis,
)
from test_faults import zero_x_hat

DUAL_CELLS = ("c_in_O", "d_in_mu", "c_prime_in_z_inv_mu", "d_prime_in_O")

def _dual_closed_forms(data):
    """(c, d, c', d') over K from cD = eps(X^2), dD = -eps(X), d'D = eps(1)/z
    with D = delta~: the route ``analyze`` took before it divided in O."""
    delta = k_delta_tilde(data)
    t, eps_x, zf = k_t(data), k_eps_x(data), data.z.to_field()
    c = t / delta
    d = -eps_x / delta
    return c, d, d / zf, data.eps_one.to_field() / (zf * delta)


def _k_route(data):
    """The dual cells and, when they all hold, the duals, over K."""
    c, d, c_prime, d_prime = _dual_closed_forms(data)
    mu = data.mu
    cells = {
        "c_in_O": c.is_integral(),
        "d_in_mu": d.is_integral() and mu.contains(to_ring(d)),
        "c_prime_in_z_inv_mu": contains_fraction(mu, c_prime, data.z),
        "d_prime_in_O": d_prime.is_integral(),
    }
    if not all(cells.values()):
        return cells, None
    return cells, DualSolution(to_ring(c), to_ring(d), c_prime, to_ring(d_prime))


def _seeded_data(seed=13, n=400):
    """Data that passes every cell before the dual route: a_bar and eps_x_bar
    in mu, eps(1) != 0 and delta~ != 0."""
    r = random.Random(seed)
    out = []
    while len(out) < n:
        ctx, mu, z = ring_of(*r.choice(RINGS))
        eps_one = ctx(r.randint(-1, 1), r.randint(-1, 1))
        data = FrobeniusData(
            ctx, mu, z, random_mu_element(mu, r, 2), ctx(r.randint(-2, 2), r.randint(-2, 2)),
            eps_one, random_mu_element(mu, r, 2),
        )
        if not eps_one.is_zero() and not k_delta_tilde(data).is_zero():
            out.append(data)
    return out


def _accepted_data():
    return [alg.data for alg in search_hits()]


def test_dual_route_in_O_matches_the_route_over_K(algebra_corpus):
    cases = _seeded_data() + _accepted_data() + [alg.data for alg in algebra_corpus.values()]
    accepted = 0
    failures = set()
    d_in_O_not_mu = 0
    for data in cases:
        alg, report = analyze(data)
        cells, duals = _k_route(data)
        assert {k: report.cells[k] for k in DUAL_CELLS} == cells
        assert report.values["delta_tilde"] == str(k_delta_tilde(data))
        if duals is None:
            assert alg is None
            failures.add(report.failure.cell)
            _, d, _, _ = _dual_closed_forms(data)
            d_in_O_not_mu += d.is_integral() and not cells["d_in_mu"]
        else:
            assert alg.duals == duals
            assert report.values["c_prime"] == str(duals.c_prime)
            accepted += 1
    assert accepted >= 24
    # c' = d / z: its cell is never the first to fail
    assert failures == {"c_in_O", "d_in_mu", "d_prime_in_O"}
    assert d_in_O_not_mu


@pytest.mark.parametrize("a_bar, b_bar, eps_x_bar", [("0", "0", "0"), ("0", "2", "2")])
def test_zero_d_bar_is_degenerate_on_both_routes(ctx, mu, a_bar, b_bar, eps_x_bar):
    # D_bar = eps(1) t_bar z - eps_x_bar^2 = 0, with t_bar = a_bar + b_bar here
    data = FrobeniusData(ctx, mu, ctx(2), *(parse_element(ctx, e) for e in (a_bar, b_bar, "1", eps_x_bar)))
    assert k_delta_tilde(data).is_zero()
    with pytest.raises(ZeroDivisionError):
        _dual_closed_forms(data)
    alg, report = analyze(data)
    assert alg is None
    assert isinstance(report.failure, DegenerateTraceError)
    assert report.values["delta_tilde"] == "0"
    assert not any(k in report.cells for k in DUAL_CELLS)


# -- closed-form coordinates of A (x)_O A -------------------------------------


def test_first_factor_matches_the_kronecker_product(algebra_corpus):
    r = random.Random(5)
    for alg in algebra_corpus.values():
        t2 = alg.tensor_power(2)
        basis = z_basis(alg)
        for x, l_map in zip(basis[2:], alg.mult.x_first_factor_maps()):
            proj_raw = mat_mul(t2.proj, kron(left_mult_matrix(alg, x), identity(4)))
            assert l_map == mat_mul(proj_raw, t2.section)
            assert mat_mul(l_map, t2.proj) == proj_raw  # constant on proj fibres
        lift = delta_one_lift(alg)
        for x in [*basis, *(random_algebra_element(alg, r) for _ in range(4))]:
            raw = kron(left_mult_matrix(alg, x), identity(4))
            assert list(alg.comultiply(x)) == mat_vec(t2.proj, mat_vec(raw, lift))


def _fixtures_and_search_hits(algebra_corpus):
    return list(algebra_corpus.values()) + search_hits()


def test_multiplication_table_matches_multiply(algebra_corpus):
    for alg in _fixtures_and_search_hits(algebra_corpus):
        m = alg.mult.m_matrix()
        basis = z_basis(alg)
        for ei in basis:
            for ej in basis:
                assert mat_vec(m, pure2(alg, ei, ej)) == alg.coords(multiply(alg, ei, ej))


def test_delta_matrix_matches_comultiply(algebra_corpus):
    # the oracle is Delta(e_i) = (e_i . (x) id) Delta(1) on the Z-tensor square
    for alg in _fixtures_and_search_hits(algebra_corpus):
        proj = alg.tensor_power(2).proj
        lift = delta_one_lift(alg)
        expected = [mat_vec(proj, mat_vec(kron(left_mult_matrix(alg, e), identity(4)), lift)) for e in z_basis(alg)]
        assert alg.delta_matrix() == transpose(expected)


def test_x_hat_matches_the_pure2_sum(algebra_corpus):
    # sum_j u_j X (x) u_j' X - a_bar X (x) 1 - b_bar 1 (x) 1, the paper's form
    for alg in _fixtures_and_search_hits(algebra_corpus):
        zero = alg.ctx.zero
        out = [0] * 8
        us, ups = solve_partition_of_z(alg.data.mu, alg.data.z)
        terms = [(1, alg.element(zero, u), alg.element(zero, up)) for u, up in zip(us, ups)]
        terms += [(-1, alg.element(zero, alg.data.a_bar), alg.one), (-1, alg.element(alg.data.b_bar), alg.one)]
        for sign, x, y in terms:
            out = [a + sign * b for a, b in zip(out, pure2(alg, x, y))]
        assert alg.mult.x_hat() == out


def test_closed_form_coordinates_match_the_projection(algebra_corpus):
    r = random.Random(21)
    for alg in algebra_corpus.values():
        proj = alg.tensor_power(2).proj
        one = alg.one
        for _ in range(25):
            x, y = random_algebra_element(alg, r), random_algebra_element(alg, r)
            assert pure2(alg, x, y) == mat_vec(proj, outer(alg.coords(x), alg.coords(y)))
            u = random_mu_element(alg.data.mu, r)
            ux = alg.element(alg.ctx.zero, u)
            diff = [a - b for a, b in zip(outer(alg.coords(ux), alg.coords(one)),
                                          outer(alg.coords(one), alg.coords(ux)))]
            assert alg.mu_z.x_u(u) == mat_vec(proj, diff)


# -- mechanism guards ----------------------------------------------------------


def _counted(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_search_solves_the_partition_of_z_once(ctx, mu, monkeypatch):
    calls = _counted(monkeypatch, omodule, "solve_partition_of_z")
    found = list(search_solutions(mu, ctx(2), coord_bound=1))
    assert len(found) == 80
    assert len(calls) == 0  # validation reads no partition
    partition = found[3].mu_z.partition
    assert len(calls) == 1
    twisted = twist(found[3], TwistSpec(3, -ctx.one))
    assert twisted.mu_z.partition == partition
    assert len(calls) == 1


def test_kernel_analysis_solves_no_partition_of_z(alg_worked, monkeypatch):
    alg = build_algebra(alg_worked.data)
    calls = [_counted(monkeypatch, module, "solve_partition_of_z") for module in (omodule, ideals)]
    assert alg.kernel_m_analysis(8).iso_to_A
    assert calls == [[], []]


def test_kernel_analysis_and_delta_make_no_kronecker_product(alg_worked, monkeypatch):
    alg = build_algebra(alg_worked.data)
    calls = [_counted(monkeypatch, module, "kron") for module in (omodule, intlin)]
    assert alg.kernel_m_analysis(8).iso_to_A
    alg.delta_matrix()
    assert calls == [[], []]


def test_algebra_side_maps_multiply_nothing_and_never_use_the_z_tensor_square(algebra_corpus, monkeypatch):
    # sqrt(d) on A^(x n) is laid out from the two 2x2 blocks, so no Z-tensor
    # power is built, not even A (x) A, on the algebra side or in the cube;
    # the element product is conftest's oracle, so the library has none to call
    assert not hasattr(frobenius.FrobeniusAlgebra, "multiply")
    algs = [build_algebra(alg.data) for alg in _fixtures_and_search_hits(algebra_corpus)]

    def no_tensor_power(self, n):
        raise AssertionError(f"the Z-tensor power A^(x {n}) was built")

    monkeypatch.setattr(omodule.MuZLattice, "tensor_power", no_tensor_power)
    r = random.Random(8)
    for alg in algs:
        assert alg.kernel_m_analysis(8).direct_sum_verified
        alg.delta_matrix()
        alg.handle_matrix()
        alg.comultiply(random_algebra_element(alg, r))
        alg.closed_surface_invariants(3)
    fixtures = algs[:len(algebra_corpus)]
    for alg in fixtures:
        for name in corpus.names():
            assert homology_integral(build_complex(corpus.diagram(name), alg)).checks


def _counted_property(monkeypatch, cls, name):
    calls = []
    func = getattr(cls, name).func
    prop = functools.cached_property(lambda self: calls.append(1) or func(self))
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return calls


def test_search_computes_the_mu_z_table_once(ctx, mu, monkeypatch):
    calls = [_counted_property(monkeypatch, omodule.MuZLattice, name)
             for name in ("x_quotients", "partition")]
    found = list(search_solutions(mu, ctx(2), coord_bound=1))
    assert len(found) == 80
    for alg in found:
        assert alg.kernel_m_analysis(8).iso_to_A
        alg.closed_surface_invariants(2)
    assert calls == [[1], []]  # X_hat needs no partition of z


def test_relaxed_a_bar_escapes_the_lattice_on_the_table(ctx, mu):
    message = "product (-2+w) + (-2+w)X escapes the lattice (X-part not in mu)"
    with pytest.raises(ClosureError) as exc:
        family_eps_x_zero(mu, ctx(2), ctx(1), ctx(1), ctx(1)).kernel_m_analysis()
    assert str(exc.value) == message
    with pytest.raises(ClosureError) as exc:
        family_eps_x_zero(mu, ctx(2), ctx(1), ctx(1), ctx(1)).closed_surface_invariants(2)
    assert str(exc.value) == message


def test_a_failed_check_of_a_shared_multiplication_is_not_kept(ctx, mu, monkeypatch):
    mu_z = omodule.MuZLattice(mu, ctx(2))
    # a relaxed a_bar outside mu: the X (x) X products escape the lattice
    data = family_eps_x_zero(mu, ctx(2), ctx(1), ctx(1), ctx(1)).data
    relaxed = [build_algebra(data, relax_a_bar=True, mu_z=mu_z) for _ in range(2)]
    assert relaxed[0].mult is relaxed[1].mult
    for alg in relaxed * 2:
        with pytest.raises(ClosureError, match="escapes the lattice"):
            alg.kernel_m_analysis()
    # a splitting that fails raises for every algebra of the pair, and once
    # the fault is gone the analysis runs
    data = next(search_solutions(mu, ctx(2), coord_bound=1)).data
    twins = [build_algebra(data, mu_z=mu_z), twist(build_algebra(data, mu_z=mu_z), TwistSpec(3, -ctx.one))]
    assert twins[0].mult is twins[1].mult
    zero_x_hat(monkeypatch)
    for alg in twins * 2:
        with pytest.raises(DirectSumFailureError):
            alg.kernel_m_analysis()
    monkeypatch.undo()
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        twins[0].kernel_m_analysis(-1)
    assert all(alg.kernel_m_analysis(0).direct_sum_verified for alg in twins)


def test_genus_zero_to_four_applies_the_handle_four_times(alg_eps1, monkeypatch):
    expected = [str(v) for v in alg_eps1.closed_surface_invariants(4)]
    alg = build_algebra(alg_eps1.data)
    calls = _counted(monkeypatch, frobenius, "mat_vec")
    assert [str(alg.closed_surface_invariant(g)) for g in range(5)] == expected
    assert len(calls) == 4
    assert [str(v) for v in alg.closed_surface_invariants(4)] == expected
    assert len(calls) == 4
