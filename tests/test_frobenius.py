import itertools

import pytest

from conftest import (
    comultiply_one_via_dual,
    counit_first_matrix,
    counit_second_matrix,
    eq20_memberships,
    fixture_algebras,
    k_delta_tilde,
    k_eps_x,
    multiply,
    pure2,
    random_algebra_element,
    random_mu_element,
    random_ring_element,
    raw_system_residuals,
    rng,
    scalar_matrix,
    swap_matrix,
    trace_pairing,
)
from quadfrob import frobenius
from quadfrob.frobenius import (
    DegenerateTraceError,
    FrobeniusData,
    IntegralityViolationError,
    NonvanishingError,
    NotAUnitError,
    TwistSpec,
    ValidationError,
    analyze,
    build_algebra,
    epsilon_tilde_matrix,
    example_zsqrtm5,
    family_eps_x_one,
    family_eps_x_zero,
    search_solutions,
    twist,
)
from quadfrob.ideals import Ideal
from quadfrob.intlin import mat_vec
from quadfrob.omodule import MuZLattice, NotWellDefinedError
from quadfrob.ring import ClosureError, NotDivisibleError
from test_faults import bump_m_entry


# -- the worked example over Z[sqrt(-5)] -------------------------------------

WORKED_B_BAR = {(1, 1): (-6, 1), (-1, 1): (-4, 1), (1, -1): (0, 1), (-1, -1): (2, 1)}


@pytest.mark.parametrize("s,eps1", sorted(WORKED_B_BAR))
def test_worked_example_variants(ctx, s, eps1):
    alg = example_zsqrtm5(s, eps1)
    assert alg.data.b_bar == ctx(*WORKED_B_BAR[(s, eps1)])
    assert alg.epsilon_tilde_det in (1, -1)
    assert all(alg.report.equations.values())
    for res in raw_system_residuals(alg.data, alg.duals):
        assert res.is_zero()
    # eps(X) = (1+w)/2: not integral, not zero
    assert not k_eps_x(alg.data).is_integral()
    assert not k_eps_x(alg.data).is_zero()


def test_worked_example_duals_frozen(ctx, alg_worked):
    assert alg_worked.data.t_bar() == ctx(-3, 1)
    assert alg_worked.duals.c == ctx(3, -1)
    assert alg_worked.duals.d == ctx(1, 1)
    assert alg_worked.duals.d_prime == ctx(-1)
    assert alg_worked.duals.c_prime == ctx(1, 1).to_field() / ctx.field(2)


def test_worked_example_rejects_bad_inputs():
    with pytest.raises(ValueError):
        example_zsqrtm5(2, 1)


# -- the eps(X) = 0 family ----------------------------------------------------


def test_family_eps0_example(ctx, mu, alg_eps0):
    assert alg_eps0.duals.d_prime == ctx.one
    assert alg_eps0.duals.c == ctx.one
    assert alg_eps0.duals.d.is_zero()
    assert alg_eps0.epsilon_tilde_det in (1, -1)


def test_family_eps0_negative_units(ctx, mu):
    alg = family_eps_x_zero(mu, ctx(2), ctx(0, 1), ctx(-1), ctx(-1))
    assert alg.duals.c == ctx(-1)
    assert alg.duals.d_prime == ctx.one  # (-1)^-1 * (-1)^-1
    with pytest.raises(NotAUnitError):
        family_eps_x_zero(mu, ctx(2), ctx.zero, ctx(2), ctx.one)
    with pytest.raises(NotAUnitError):
        family_eps_x_zero(mu, ctx(2), ctx.zero, ctx.one, ctx(0, 1))


def test_family_eps0_relaxed_a_bar_outside_mu(ctx, mu):
    alg = family_eps_x_zero(mu, ctx(2), ctx(1), ctx.one, ctx.one)
    assert not alg.report.cells["a_bar_in_mu"]
    assert not alg.report.closure_in_mu
    # multiplication is genuinely not closed there: (1+w)X * (1-w)X = 3X + 3
    x = alg.element(0, ctx(1, 1))
    y = alg.element(0, ctx(1, -1))
    with pytest.raises(ClosureError, match=r"product \(3\) \+ \(3\)X escapes the lattice"):
        multiply(alg, x, y)
    assert issubclass(ClosureError, ValidationError)
    # but the strict constructor rejects the same data
    with pytest.raises(IntegralityViolationError):
        build_algebra(alg.data)


def test_product_of_x_parts_outside_mu_is_not_divisible_by_z():
    # X * X needs the X-parts in mu, whose products lie in mu^2 = (z)
    alg = example_zsqrtm5(1, 1)
    x = alg.element(0, 1)
    with pytest.raises(ClosureError, match="product of X-parts not divisible by z"):
        multiply(alg, x, x)


# -- the eps(X) = 1 family ----------------------------------------------------


def test_family_eps1_example(ctx, mu, alg_eps1):
    assert alg_eps1.data.b_bar == ctx(0, -1)
    assert alg_eps1.data.t_bar() == ctx.one
    assert alg_eps1.duals.c == ctx(-1)
    assert alg_eps1.duals.d == ctx(2)
    assert alg_eps1.duals.d_prime == ctx(-1)
    # (z - t_bar eps(1)) d_underbar = 1, exactly
    assert (ctx(2) - alg_eps1.data.t_bar() * ctx.one) * ctx.one == ctx.one


def test_family_eps1_other_units(ctx, mu):
    alg = family_eps_x_one(mu, ctx(2), ctx.zero, ctx(-1), ctx(-1))
    assert alg.data.b_bar == ctx(3)
    with pytest.raises(IntegralityViolationError):
        family_eps_x_one(mu, ctx(2), ctx(1), ctx.one, ctx.one)
    with pytest.raises(NotAUnitError):
        family_eps_x_one(mu, ctx(2), ctx(1, 1), ctx(3), ctx.one)


# -- validator ----------------------------------------------------------------


def test_validator_rejects_eps_one_zero(ctx, mu):
    data = FrobeniusData(ctx, mu, ctx(2), ctx(1, 1), ctx(3), ctx.zero, ctx(1, 1))
    alg, report = analyze(data)
    assert alg is None
    assert not report.nonvanishing["eps_one"]
    with pytest.raises(NonvanishingError):
        build_algebra(data)


def test_validator_rejects_degenerate_trace(ctx, mu):
    data = FrobeniusData(ctx, mu, ctx(2), ctx.zero, ctx.zero, ctx.one, ctx.zero)
    with pytest.raises(DegenerateTraceError):
        build_algebra(data)
    rows, det = epsilon_tilde_matrix(data, data.t_bar(), MuZLattice(mu, data.z))
    assert det == 0


def test_validator_rejects_eps_x_bar_outside_mu(ctx, mu):
    data = FrobeniusData(ctx, mu, ctx(2), ctx.zero, ctx.one, ctx.one, ctx(1))
    with pytest.raises(IntegralityViolationError) as exc:
        build_algebra(data)
    assert exc.value.cell == "eps_x_bar_in_mu"


def test_pairing_matrix_rejects_eps_x_bar_outside_mu(ctx, mu):
    # z eps(1 X) = eps_x_bar = 1 is not in mu: the pairing leaves the dual lattice
    data = FrobeniusData(ctx, mu, ctx(2), ctx.zero, ctx.one, ctx.one, ctx(1))
    with pytest.raises(NotDivisibleError, match="^pairing image escapes the dual lattice$"):
        epsilon_tilde_matrix(data, data.t_bar(), MuZLattice(mu, data.z))


def test_validator_requires_mu_squared_z(ctx, mu):
    data = FrobeniusData(ctx, mu, ctx(3), ctx.zero, ctx.one, ctx.one, ctx.zero)
    with pytest.raises(IntegralityViolationError) as exc:
        build_algebra(data)
    assert exc.value.cell == "mu_squared_is_principal_z"


def test_non_unimodular_pairing_fails_a_dual_cell(ctx, mu):
    # the two validation routes agree, so a pairing of determinant 16 is
    # rejected by the first dual cell it fails, not by a separate error
    data = FrobeniusData(ctx, mu, ctx(2), ctx.zero, ctx.one, ctx(2), ctx.zero)
    alg, report = analyze(data)
    assert alg is None
    assert report.values["epsilon_tilde_det"] == "16"
    assert not report.route_unimodular and not report.route_dual_solution
    with pytest.raises(IntegralityViolationError) as exc:
        build_algebra(data)
    assert exc.value.cell == "c_in_O"


def test_validator_accepts_free_case_with_eps_one_zero(ctx):
    # over a principal mu the nonvanishing argument does not apply: the
    # standard free rank-two algebra with counitless trace is Frobenius
    unit = Ideal.principal(ctx.one)
    data = FrobeniusData(ctx, unit, ctx.one, ctx.zero, ctx.one, ctx.zero, ctx.one)
    alg = build_algebra(data)
    assert alg.report.accepted
    assert alg.epsilon_tilde_det in (1, -1)


# -- multiplication and trace --------------------------------------------------


def test_multiply_examples(ctx, alg_worked):
    two_x = alg_worked.element(0, ctx(2))
    prod = multiply(alg_worked, two_x, two_x)
    assert prod == alg_worked.element(ctx(-12, 2), ctx(2, -2))
    y = random_algebra_element(alg_worked, rng(3))
    assert multiply(alg_worked, alg_worked.one, y) == y
    opw = alg_worked.element(0, ctx(1, 1))
    sq = multiply(alg_worked, opw, opw)
    assert sq == alg_worked.element(ctx(7, -8), ctx(3, 3))


def test_trace_examples(ctx, alg_worked):
    assert alg_worked.trace(alg_worked.one) == ctx.one
    assert alg_worked.trace(alg_worked.element(0, ctx(2))) == ctx(1, 1)


def test_trace_of_x_products(ctx, alg_worked):
    r = rng(4)
    t_bar = alg_worked.data.t_bar()
    z = alg_worked.data.z
    for _ in range(50):
        u1 = random_mu_element(alg_worked.data.mu, r)
        u2 = random_mu_element(alg_worked.data.mu, r)
        lhs = alg_worked.trace(
            multiply(alg_worked, alg_worked.element(0, u1), alg_worked.element(0, u2))
        )
        assert lhs == (u1 * u2).exact_div(z) * t_bar


def test_algebra_axioms_random(algebra_corpus):
    for name, alg in algebra_corpus.items():
        r = rng(5)
        for _ in range(100):
            x = random_algebra_element(alg, r)
            y = random_algebra_element(alg, r)
            w = random_algebra_element(alg, r)
            assert multiply(alg, multiply(alg, x, y), w) == multiply(alg, x, multiply(alg, y, w))
            assert multiply(alg, x, y) == multiply(alg, y, x)
            assert trace_pairing(alg, x, y) == trace_pairing(alg, y, x)


# -- comultiplication -----------------------------------------------------------


def test_delta_one_two_routes(algebra_corpus):
    for name, alg in algebra_corpus.items():
        assert alg.comultiply_one() == comultiply_one_via_dual(alg), name


def test_delta_one_closed_form_eps0(ctx, alg_eps0):
    # eps(1)^-1 (1(x)1 + b_bar^-1 (s1 X (x) s1' X + s2 X (x) s2' X))
    us, ups = alg_eps0.mu_z.partition
    expected = pure2(alg_eps0, alg_eps0.one, alg_eps0.one)
    for u, up in zip(us, ups):
        term = pure2(alg_eps0, alg_eps0.element(0, u), alg_eps0.element(0, up))
        expected = [a + b for a, b in zip(expected, term)]
    assert list(alg_eps0.comultiply_one()) == expected


def test_delta_one_sanity_free(alg_sanity):
    one = alg_sanity.one
    x = alg_sanity.element(0, 1)
    expected = [a + b for a, b in zip(pure2(alg_sanity, one, one), pure2(alg_sanity, x, x))]
    assert list(alg_sanity.comultiply_one()) == expected


def test_comultiply_linearity_and_bimodule(algebra_corpus):
    for name, alg in algebra_corpus.items():
        assert alg.comultiply(alg.one) == alg.comultiply_one()
        r = rng(6)
        swap = swap_matrix(alg)
        for _ in range(20):
            u = random_ring_element(alg.ctx, r, 4)
            scaled = alg.comultiply(alg.element(u, alg.ctx.zero))
            base = alg.comultiply_one()
            act = scalar_matrix(alg.tensor_power(2).module, u)
            assert list(scaled) == mat_vec(act, list(base))
            x = random_algebra_element(alg, r, 3)
            dx = list(alg.comultiply(x))
            assert mat_vec(swap, dx) == dx  # cocommutativity


def test_counit(algebra_corpus):
    for name, alg in algebra_corpus.items():
        left = counit_first_matrix(alg)
        right = counit_second_matrix(alg)
        r = rng(7)
        for _ in range(100):
            x = random_algebra_element(alg, r)
            dx = list(alg.comultiply(x))
            assert mat_vec(left, dx) == alg.coords(x), name
            assert mat_vec(right, dx) == alg.coords(x), name


# -- pairing matrix -------------------------------------------------------------


def test_epsilon_tilde_examples(ctx, mu, alg_eps0):
    assert alg_eps0.epsilon_tilde_det in (1, -1)
    rows, det = epsilon_tilde_matrix(alg_eps0.data, alg_eps0.data.t_bar(), alg_eps0.mu_z)
    assert det == alg_eps0.epsilon_tilde_det
    assert len(rows) == 4 and all(len(r) == 4 for r in rows)


# -- twists ---------------------------------------------------------------------


def test_twist_rescale_trace(ctx, alg_worked):
    out = twist(alg_worked, TwistSpec(3, ctx(-1)))
    assert out.report.accepted
    x = out.element(0, ctx(2))
    assert out.trace(x) == -alg_worked.trace(x)
    assert out.trace(out.one) == -alg_worked.trace(alg_worked.one)


def test_twist_rescale_x(ctx, alg_worked):
    out = twist(alg_worked, TwistSpec(1, ctx(-1)))
    assert out.report.accepted
    assert out.data.a_bar == -alg_worked.data.a_bar
    assert out.data.b_bar == alg_worked.data.b_bar
    assert out.data.eps_x_bar == -alg_worked.data.eps_x_bar


def test_twist_shift_x(ctx, mu, alg_eps0):
    w_bar = ctx(1, 1)
    out = twist(alg_eps0, TwistSpec(2, w_bar))
    assert out.report.accepted
    # the trace of X picks up (w_bar/z) eps(1) != 0
    assert out.data.eps_x_bar == w_bar
    assert out.data.a_bar == w_bar * 2
    # b updates with the cross term: b_bar - w_bar(a_bar + w_bar)/z
    assert out.data.b_bar == alg_eps0.data.b_bar - (w_bar * (alg_eps0.data.a_bar + w_bar)).exact_div(ctx(2))
    assert any("full change of variables" in n for n in out.report.notes)


def test_twist_preconditions(ctx, alg_eps0):
    with pytest.raises(NotAUnitError):
        twist(alg_eps0, TwistSpec(1, ctx(2)))
    with pytest.raises(NotAUnitError):
        twist(alg_eps0, TwistSpec(3, ctx(0, 1)))
    with pytest.raises(IntegralityViolationError):
        twist(alg_eps0, TwistSpec(2, ctx(1)))  # 1 not in mu
    with pytest.raises(ValueError):
        twist(alg_eps0, TwistSpec(4, ctx(1)))


@pytest.mark.parametrize("kind, param", [(3, (-1, 0)), (1, (-1, 0)), (2, (2, 0))],
                         ids=["trace", "rescale_x", "shift_x"])
def test_twist_keeps_a_relaxed_algebra_relaxed(ctx, mu, kind, param):
    # a twist is an isomorphism: lambda a_bar, a_bar + 2p (p in mu) and a_bar
    # all stay outside mu, so the twist revalidates under the same relaxation
    relaxed = family_eps_x_zero(mu, ctx(2), ctx(1), ctx(1), ctx(1))
    assert not relaxed.report.closure_in_mu
    out = twist(relaxed, TwistSpec(kind, ctx(*param)))
    assert out.report.accepted
    assert not out.report.closure_in_mu
    assert out.mu_z is relaxed.mu_z


def test_twist_shift_with_a_non_integral_cross_term(ctx, mu):
    relaxed = family_eps_x_zero(mu, ctx(2), ctx(1), ctx(1), ctx(1))
    # (1+w)(a_bar + 1+w)/z = (-3+3w)/2 is not in O
    with pytest.raises(IntegralityViolationError) as exc:
        twist(relaxed, TwistSpec(2, ctx(1, 1)))
    assert exc.value.cell == "b_bar_in_O"


def test_twist_composition_roundtrip(ctx, alg_worked):
    # X -> -X twice is the identity on the data
    once = twist(alg_worked, TwistSpec(1, ctx(-1)))
    back = twist(once, TwistSpec(1, ctx(-1)))
    assert back.data == alg_worked.data


# -- closed surfaces --------------------------------------------------------------


def test_closed_surface_values(ctx, alg_eps0, alg_sanity, alg_worked):
    assert alg_eps0.closed_surface_invariant(0) == ctx.one
    assert alg_eps0.closed_surface_invariant(1) == ctx(2)
    assert alg_eps0.closed_surface_invariant(2) == ctx(4)
    assert alg_sanity.closed_surface_invariant(1) == ctx(2)
    # independent route: iterate the handle operator built from the
    # dualized-multiplication comultiplication
    h = alg_worked.handle_matrix()
    v = alg_worked.coords(alg_worked.one)
    for _ in range(2):
        v = mat_vec(h, v)
    assert alg_worked.closed_surface_invariant(2) == alg_worked.trace(alg_worked._from_coords(v))
    with pytest.raises(ValueError):
        alg_worked.closed_surface_invariant(-1)


# -- two-route validation consistency ---------------------------------------------


def _random_table_valid_data(ctx, mu, r):
    z = ctx(2)
    while True:
        a_bar = random_mu_element(mu, r, 3)
        eps_x_bar = random_mu_element(mu, r, 3)
        b_bar = random_ring_element(ctx, r, 3)
        eps_one = random_ring_element(ctx, r, 3)
        data = FrobeniusData(ctx, mu, z, a_bar, b_bar, eps_one, eps_x_bar)
        try:
            data.t_bar()
        except Exception:
            continue
        if data.eps_one.is_zero() or k_delta_tilde(data).is_zero():
            continue
        return data


def test_two_route_agreement_on_random_data(ctx, mu, algebra_corpus):
    r = rng(8)
    # valid side: re-analyze known-good data through the generic path
    for alg0 in algebra_corpus.values():
        alg, report = analyze(alg0.data)
        assert alg is not None
        assert report.route_dual_solution and report.route_unimodular
        if alg.data.eps_one.is_zero():
            continue  # Khovanov's algebra: eps(1) = 0, so c = d' = 0 (only over a principal mu)
        assert not alg.duals.c.is_zero()
        assert not alg.duals.d_prime.is_zero()
    invalid = 0
    while invalid < 20:
        data = _random_table_valid_data(ctx, mu, r)
        alg, report = analyze(data)
        assert report.route_dual_solution == report.route_unimodular
        memberships = (
            report.cells.get("c_in_O", False),
            report.cells.get("d_in_mu", False),
            report.cells.get("d_prime_in_O", False),
        )
        assert eq20_memberships(data) == memberships
        if alg is None:
            invalid += 1


def test_nonzero_eps_x_forces_nonzero_b_and_d(ctx, mu, algebra_corpus):
    found = list(itertools.islice(search_solutions(mu, ctx(2), coord_bound=1), 4))
    for alg in list(algebra_corpus.values()) + found:
        if alg.data.eps_x_bar.is_zero() or alg.data.eps_one.is_zero():
            continue  # eps(1) = 0 only over a principal mu, as in Khovanov's algebra with b_bar = 0
        assert not alg.data.b_bar.is_zero()
        assert not alg.duals.d.is_zero()


def test_d_is_z_times_c_prime(algebra_corpus):
    for name, alg in algebra_corpus.items():
        z = alg.data.z.to_field()
        assert alg.duals.c_prime * z == alg.duals.d.to_field(), name


def test_search_solutions(ctx, mu):
    found = list(itertools.islice(search_solutions(mu, ctx(2), coord_bound=2), 6))
    assert found
    for alg in found:
        assert alg.report.accepted
        assert not alg.data.eps_x_bar.is_zero()


def test_negative_search_bounds_raise(ctx, mu, alg_eps0):
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        list(search_solutions(mu, ctx(2), coord_bound=-1))
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        alg_eps0.kernel_m_analysis(-3)
    assert alg_eps0.kernel_m_analysis(0).search_bound == 0


def test_search_rejects_zero_z_before_dividing(ctx, mu):
    with pytest.raises(ValueError, match="z must be nonzero"):
        list(search_solutions(mu, ctx(0), coord_bound=1))


def test_search_rejects_mu_squared_not_z_before_the_box(ctx, mu):
    with pytest.raises(IntegralityViolationError) as exc:
        next(search_solutions(mu, ctx(3), coord_bound=1))
    assert exc.value.cell == "mu_squared_is_principal_z"
    assert str(exc.value) == "integrality table cell failed: mu_squared_is_principal_z"
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        list(search_solutions(mu, ctx(3), coord_bound=-1))


def test_the_lattice_refuses_zero_z_for_every_caller(ctx, mu):
    data = FrobeniusData(ctx, mu, ctx(0), ctx.zero, ctx.one, ctx.one, ctx.zero)
    for call in (
        lambda: MuZLattice(mu, ctx(0)),
        lambda: analyze(data),
        lambda: list(search_solutions(mu, ctx(0), coord_bound=1)),
    ):
        with pytest.raises(ValueError, match="^z must be nonzero$"):
            call()
    # no lattice has z = 0, so a shared one never matches such data
    with pytest.raises(ValueError, match=r"^the \(mu, z\) lattice belongs to another mu or z$"):
        analyze(data, mu_z=MuZLattice(mu, ctx(2)))


def test_a_rejected_search_candidate_raises(ctx, mu, monkeypatch):
    # the closing equation makes every candidate valid, so a rejection is a
    # fault of the search and is raised, not skipped
    real, calls = frobenius.analyze, []
    failure = IntegralityViolationError("c_in_O")

    def analyze_rejecting_the_third(data, **kwargs):
        calls.append(data)
        alg, report = real(data, **kwargs)
        if len(calls) == 3:
            report.failure = failure
            return None, report
        return alg, report

    monkeypatch.setattr(frobenius, "analyze", analyze_rejecting_the_third)
    with pytest.raises(IntegralityViolationError) as exc:
        list(search_solutions(mu, ctx(2), coord_bound=1))
    assert exc.value is failure
    assert len(calls) == 3


def test_generator_search_walks_lazily(ctx, mu, monkeypatch):
    found = list(search_solutions(mu, ctx(2), coord_bound=1))
    assert len(found) == 80
    real = Ideal.lattice_points
    drawn = []

    def counted(self, bound):
        for e in real(self, bound):
            drawn[-1] += 1
            yield e

    monkeypatch.setattr(Ideal, "lattice_points", counted)
    for alg in found:
        drawn.append(0)
        assert alg.kernel_m_analysis(8).iso_to_A
        assert drawn[-1] <= 5
    # the walk at bound 0 tries u = 0 alone
    away = [alg for alg in found if not alg.kernel_m_analysis(8).generator[0].is_zero()]
    assert away
    report = away[0].kernel_m_analysis(0)
    assert not report.iso_to_A and report.generator is None
    assert report.notes == ["no generator found within coordinate bound 0"]


def test_search_shares_one_mu_z_lattice(ctx, mu, alg_eps1):
    first = list(itertools.islice(search_solutions(mu, ctx(2), coord_bound=1), 3))
    second = list(itertools.islice(search_solutions(mu, ctx(2), coord_bound=1), 3))
    shared = first[0].mu_z
    assert all(alg.mu_z is shared for alg in first)
    assert all(alg.mu_z is second[0].mu_z for alg in second)
    assert second[0].mu_z is not shared
    own = [
        alg_eps1,
        build_algebra(first[0].data),
        fixture_algebras()["eps1"],
    ]
    frames = [alg.mu_z for alg in own]
    assert len({id(f) for f in frames + [shared]}) == len(own) + 1
    # a twist keeps mu and z, and with them the lattice of the algebra it twists
    assert twist(first[0], TwistSpec(3, -ctx.one)).mu_z is shared
    # analyze is the one door for an outside lattice, and it checks mu and z
    with pytest.raises(ValueError, match="another mu or z"):
        build_algebra(first[0].data, mu_z=MuZLattice(mu, ctx(-2)))


def test_fresh_search_checks_its_tensor_square(ctx, mu, monkeypatch):
    bump_m_entry(monkeypatch)
    alg = next(search_solutions(mu, ctx(2), coord_bound=1))
    for _ in range(2):
        with pytest.raises(NotWellDefinedError):
            alg.kernel_m_analysis()


def test_data_json_roundtrip(alg_worked):
    data = alg_worked.data
    back = FrobeniusData.from_json(data.to_json())
    assert back == data


def test_partition_is_deterministic(ctx, alg_eps0):
    us, ups = alg_eps0.mu_z.partition
    assert us == [ctx(2), ctx(1, 1)]
    assert ups == [ctx(-1, 1), ctx(-1, -1)]
