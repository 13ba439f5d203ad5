"""Acceptance criteria, one test per criterion, all exact.

Each test prints a single PASS line when its assertions hold; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import random

import pytest

from conftest import (
    comultiply_one_via_dual,
    counit_first_matrix,
    counit_second_matrix,
    delta_tensor_id,
    diff_from,
    eq20_memberships,
    id_tensor_delta,
    id_tensor_m,
    k_delta_tilde,
    k_eps_x,
    m_tensor_id,
    multiply,
    random_algebra_element,
    raw_system_residuals,
    trace_pairing,
)
from quadfrob import corpus
from quadfrob.frobenius import (
    FrobeniusData,
    analyze,
    build_algebra,
    example_zsqrtm5,
    family_eps_x_one,
    family_eps_x_zero,
)
from quadfrob.ideals import Ideal, NotOrderTwoError, certify_order_two
from quadfrob.intlin import mat_mul, mat_vec, rank_rat
from quadfrob.linkhom import build_complex, homology_over_K, reidemeister_compare
from quadfrob.ring import RingContext


def report(n, text):
    print(f"PASS criterion {n}: {text}")


@pytest.fixture(scope="module")
def ctx():
    return RingContext(-5)


@pytest.fixture(scope="module")
def mu(ctx):
    return Ideal.from_generators(ctx, [ctx(2), ctx(1, 1)])


@pytest.fixture(scope="module")
def z(ctx):
    return ctx(2)


def test_criterion_1_worked_example(ctx):
    """All four worked-example algebras build; b_bar matches the closed
    formula; the dual-basis equations have zero residual; pairing det is
    a unit."""
    w = ctx(0, 1)
    for s in (1, -1):
        for eps1 in (1, -1):
            alg = example_zsqrtm5(s, eps1)
            e1 = ctx(eps1)
            formula = e1 * ((w - ctx(s) - ctx(2)) * e1 - ctx(3))
            assert alg.data.b_bar == formula
            for res in raw_system_residuals(alg.data, alg.duals):
                assert res.is_zero()
            assert all(alg.report.equations.values())
            assert alg.epsilon_tilde_det in (1, -1)
    report(1, "worked example valid for all four (s, eps1); exact dual equations")


def test_criterion_2_eps_x_zero_family(ctx, mu, z):
    """20 sampled (a_bar in O, |coords| <= 5; b_bar, eps1 units): the
    family validates, duals match the closed forms, and Delta(1) computed
    through the dualized multiplication equals the partition form."""
    r = random.Random(20)
    for _ in range(20):
        a_bar = ctx(r.randint(-5, 5), r.randint(-5, 5))
        b_bar = ctx(r.choice((1, -1)))
        eps1 = ctx(r.choice((1, -1)))
        alg = family_eps_x_zero(mu, z, a_bar, b_bar, eps1)
        assert alg.report.accepted
        assert alg.duals.c == eps1.unit_inverse()
        assert alg.duals.d.is_zero()
        assert alg.duals.c_prime.is_zero()
        assert alg.duals.d_prime == b_bar.unit_inverse() * eps1.unit_inverse()
        # partition form of Delta(1): eps1^-1 (1x1 + b^-1 sum s_j X x s_j' X)
        e1_inv = eps1.unit_inverse()
        coeff = e1_inv * b_bar.unit_inverse()
        expected = alg.pure2(alg.element(e1_inv, ctx.zero), alg.one)
        for u, up in zip(*alg.mu_z.partition):
            term = alg.pure2(alg.element(ctx.zero, coeff * u), alg.element(ctx.zero, up))
            expected = [x + y for x, y in zip(expected, term)]
        assert list(comultiply_one_via_dual(alg)) == expected
        assert alg.comultiply_one() == comultiply_one_via_dual(alg)
    report(2, "zero-trace-on-X family: 20 samples validate; duals and Delta(1) exact")


def test_criterion_3_eps_x_one_family(ctx, mu, z):
    """20 sampled (a_bar in mu, units eps1, d_underbar): the constructed
    b_bar validates, b_bar eps1^2 + a_bar eps1 - z = -d_underbar^-1 and
    (z - t_bar eps1) d_underbar = 1 exactly."""
    r = random.Random(21)
    g1, g2 = mu.two_generators()
    for _ in range(20):
        a_bar = g1 * r.randint(-5, 5) + g2 * r.randint(-5, 5)
        eps1 = ctx(r.choice((1, -1)))
        dbar = ctx(r.choice((1, -1)))
        alg = family_eps_x_one(mu, z, a_bar, eps1, dbar)
        assert alg.report.accepted
        assert alg.data.b_bar * eps1 * eps1 + a_bar * eps1 - z == -dbar.unit_inverse()
        assert (z - alg.data.t_bar() * eps1) * dbar == ctx.one
        assert k_eps_x(alg.data) == ctx.field(1)
    report(3, "unit-trace-on-X family: 20 samples validate; defining equation and unit identity exact")


def test_criterion_4_nonvanishing(ctx, mu, z):
    """eps(1) = 0 is always rejected; accepted algebras have nonzero
    t_bar, c, d_prime."""
    r = random.Random(22)
    g1, g2 = mu.two_generators()
    for _ in range(10):
        a_bar = g1 * r.randint(-3, 3) + g2 * r.randint(-3, 3)
        exb = g1 * r.randint(-3, 3) + g2 * r.randint(-3, 3)
        b_bar = ctx(r.randint(-3, 3), r.randint(-3, 3))
        data = FrobeniusData(ctx, mu, z, a_bar, b_bar, ctx.zero, exb)
        alg, rep = analyze(data)
        assert alg is None
        assert rep.nonvanishing["eps_one"] is False
    accepted = [
        example_zsqrtm5(1, 1),
        example_zsqrtm5(-1, -1),
        family_eps_x_zero(mu, z, ctx.zero, ctx.one, ctx(-1)),
        family_eps_x_one(mu, z, ctx(1, 1), ctx.one, ctx.one),
    ]
    for alg in accepted:
        assert not alg.data.t_bar().is_zero()
        assert not alg.duals.c.is_zero()
        assert not alg.duals.d_prime.is_zero()
    report(4, "eps(1)=0 rejected; t_bar, c, d_prime nonzero on all accepted algebras")


def test_criterion_5_order_two_certification(ctx, mu):
    """mu = (2, 1+w) certifies as order two with mu^2 = (2); the unit ideal
    and (2) fail; backed by the norm-enumeration oracle."""
    cert = certify_order_two(mu)
    assert Ideal.principal(cert.z) == mu * mu
    assert abs(cert.z.norm()) == 4
    # oracle: no element of norm 2 exists, so mu cannot be principal
    assert [(x, y) for x in range(-3, 4) for y in range(-2, 3) if x * x + 5 * y * y == 2] == []
    with pytest.raises(NotOrderTwoError):
        certify_order_two(Ideal.principal(ctx.one))
    with pytest.raises(NotOrderTwoError):
        certify_order_two(Ideal.from_generators(ctx, [ctx(2)]))
    report(5, "order-two certificate for (2, 1+w); principal ideals rejected")


def _algebra_collection(ctx, mu, z):
    unit_ideal = Ideal.principal(ctx.one)
    return [
        family_eps_x_zero(mu, z, ctx.zero, ctx.one, ctx.one),
        family_eps_x_zero(mu, z, ctx(1, 1), ctx(-1), ctx.one),
        family_eps_x_one(mu, z, ctx(1, 1), ctx.one, ctx.one),
        family_eps_x_one(mu, z, ctx.zero, ctx(-1), ctx(-1)),
        example_zsqrtm5(1, 1),
        example_zsqrtm5(-1, 1),
        example_zsqrtm5(1, -1),
        example_zsqrtm5(-1, -1),
        build_algebra(FrobeniusData(ctx, unit_ideal, ctx.one, ctx.zero, ctx.one, ctx.one, ctx.zero)),
    ]


def test_criterion_6_kernel_structure(ctx, mu, z):
    """ker(m) = X_mu + O*Xhat as a lattice equality, and both
    multiplication-action identities hold coordinate-exactly, for every
    constructed algebra."""
    for alg in _algebra_collection(ctx, mu, z):
        rep = alg.kernel_m_analysis()
        assert rep.direct_sum_verified
        assert rep.action_formulas_verified
    report(6, "ker(m) splits as predicted with exact action identities (9 algebras)")


def test_criterion_7_kernel_generator(ctx, mu, z):
    """For the zero-trace family with unit b_bar the kernel generator is
    found at u = 0 with unit value -b_bar, and A*Xhat = ker(m)."""
    r = random.Random(23)
    g1, g2 = mu.two_generators()
    for b1 in (1, -1):
        for e1 in (1, -1):
            a_bar = g1 * r.randint(-2, 2) + g2 * r.randint(-2, 2)
            alg = family_eps_x_zero(mu, z, a_bar, ctx(b1), ctx(e1))
            rep = alg.kernel_m_analysis()
            assert rep.iso_to_A
            u, val = rep.generator
            assert u.is_zero()
            assert val == -alg.data.b_bar
            assert val.is_unit()
    report(7, "zero-trace family with unit b_bar: generator at u=0, A*Xhat = ker(m)")


def test_criterion_8_reidemeister_one(ctx, mu, z):
    """Integral homology of the positive-kink diagram equals the
    0-crossing unknot degree-wise for the b_bar = 1 family."""
    alg = family_eps_x_zero(mu, z, ctx.zero, ctx.one, ctx.one)
    rep = reidemeister_compare(
        corpus.diagram("unknot0"), corpus.diagram("unknot_r1plus"), alg
    )
    assert rep["integral_equal"]
    assert rep["k_dims_equal"]
    for deg, row in rep["per_degree"].items():
        a = (row["left"]["z_rank"], list(row["left"]["torsion"]))
        b = (row["right"]["z_rank"], list(row["right"]["torsion"]))
        assert a == b, deg
    report(8, "positive kink vs unknot: integral homology equal degree-wise")


def test_criterion_9_lee_dimensions(ctx, mu, z):
    """With nonzero discriminant, total K-dimension is 2 for all unknot
    diagrams and the trefoil, 4 for the Hopf link; Reidemeister-related
    pairs agree; the rational-rank oracle confirms the Smith-form route."""
    algs = [
        family_eps_x_zero(mu, z, ctx.zero, ctx.one, ctx.one),
        example_zsqrtm5(1, 1),
    ]
    expected = {
        "unknot0": 2, "unknot_r1plus": 2, "unknot_r1minus": 2,
        "unknot_r2pair": 2, "trefoil": 2, "hopf": 4, "figure8": 2,
    }
    for alg in algs:
        assert not alg.data.discriminant().is_zero()
        totals = {}
        for name, want in expected.items():
            cx = build_complex(corpus.diagram(name), alg)
            dims = homology_over_K(cx)  # internally checks Z-rank/2
            # independent oracle: rational ranks of the differentials
            for i in cx.degrees():
                d_out = diff_from(cx, i)
                d_in = diff_from(cx, i - 1)
                q = cx.rank(i) - (rank_rat(d_out) if d_out else 0) - (
                    rank_rat(d_in) if d_in else 0
                )
                assert dims.get(i, 0) == q // 2
            totals[name] = sum(dims.values())
            assert totals[name] == want, name
        assert totals["unknot0"] == totals["unknot_r1plus"] == totals["unknot_r1minus"] == totals["unknot_r2pair"]
    report(9, "Lee-type K-dimensions: 2 per unknot diagram and trefoil, 4 for Hopf")


def test_criterion_10_frobenius_axioms(ctx, mu, z):
    """Counit, Frobenius compatibility, associativity and trace symmetry
    on 100 randomized elements per algebra."""
    algs = {
        "eps0": family_eps_x_zero(mu, z, ctx(1, 1), ctx.one, ctx.one),
        "eps1": family_eps_x_one(mu, z, ctx(1, 1), ctx.one, ctx.one),
        "worked": example_zsqrtm5(1, 1),
    }
    for name, alg in algs.items():
        # the cube's edge maps and the lattice's m and Delta share the
        # monomial coordinates of tensor_power
        m_mat = alg.mult.m_matrix()
        d_mat = alg.delta_matrix()
        left = mat_mul(m_tensor_id(alg), id_tensor_delta(alg))
        right = mat_mul(id_tensor_m(alg), delta_tensor_id(alg))
        middle = mat_mul(d_mat, m_mat)
        assert left == middle == right, name
        eps_first = counit_first_matrix(alg)
        eps_second = counit_second_matrix(alg)
        r = random.Random(24)
        for _ in range(100):
            x = random_algebra_element(alg, r, 4)
            y = random_algebra_element(alg, r, 4)
            w = random_algebra_element(alg, r, 4)
            assert multiply(alg, multiply(alg, x, y), w) == multiply(alg, x, multiply(alg, y, w))
            assert trace_pairing(alg, x, y) == trace_pairing(alg, y, x)
            dx = list(alg.comultiply(x))
            assert mat_vec(eps_first, dx) == alg.coords(x)
            assert mat_vec(eps_second, dx) == alg.coords(x)
            # compatibility evaluated on the pair (x, y) as well
            v = alg.pure2(x, y)
            assert mat_vec(left, v) == mat_vec(middle, v) == mat_vec(right, v)
    report(10, "Frobenius axioms hold exactly on 100 random elements per algebra")


def test_criterion_11_two_route_consistency(ctx, mu, z):
    """Pairing unimodularity and dual-system solvability agree on valid
    data and on 20 random invalid perturbations; the fractional-ideal
    conditions match the dual memberships."""
    r = random.Random(25)
    g1, g2 = mu.two_generators()
    checked_valid = 0
    for alg in _algebra_collection(ctx, mu, z):
        rep = alg.report
        assert rep.route_dual_solution and rep.route_unimodular
        checked_valid += 1
    invalid = 0
    while invalid < 20:
        a_bar = g1 * r.randint(-3, 3) + g2 * r.randint(-3, 3)
        exb = g1 * r.randint(-3, 3) + g2 * r.randint(-3, 3)
        b_bar = ctx(r.randint(-4, 4), r.randint(-4, 4))
        eps1 = ctx(r.randint(-4, 4), r.randint(-4, 4))
        data = FrobeniusData(ctx, mu, z, a_bar, b_bar, eps1, exb)
        try:
            data.t_bar()
        except Exception:
            continue
        if eps1.is_zero() or k_delta_tilde(data).is_zero():
            continue
        alg, rep = analyze(data)
        assert rep.route_dual_solution == rep.route_unimodular
        mem = (
            rep.cells.get("c_in_O", False),
            rep.cells.get("d_in_mu", False),
            rep.cells.get("d_prime_in_O", False),
        )
        assert eq20_memberships(data) == mem
        if alg is None:
            invalid += 1
    report(11, f"two validation routes agree on {checked_valid} valid and 20 invalid sets")
