import pytest

from conftest import block, bump_m_entry, is_equivariant, negate_a2_action, rng, snf_diagonal
from quadfrob import omodule
from quadfrob.frobenius import build_algebra, example_zsqrtm5
from quadfrob.intlin import det_int, hnf_rows, identity, kernel_basis, kron, mat_mul, mat_vec, transpose
from quadfrob.omodule import (
    MuZLattice,
    NotWellDefinedError,
    OModule,
    TensorProduct,
    TorsionInTensorError,
    homology_pair,
    tensor_over_O,
)


def o_module(ctx):
    return OModule(ctx.d, 2, [[0, ctx.d], [1, 0]])


def test_module_of_algebra(ctx, alg_eps0):
    a = alg_eps0.mu_z.A
    assert a.rank == 4
    # sqrt(d) * (2X) = -g1 + 2 g2 and sqrt(d) * ((1+w)X) = -3 g1 + g2
    assert [row[2] for row in a.action] == [0, 0, -1, 2]
    assert [row[3] for row in a.action] == [0, 0, -3, 1]


def test_action_squares_to_d():
    with pytest.raises(ValueError):
        OModule(-5, 2, [[0, 1], [1, 0]])


def test_tensor_ranks(ctx, alg_eps0):
    assert alg_eps0.tensor_power(2).module.rank == 8
    assert alg_eps0.tensor_power(3).module.rank == 16
    o2 = tensor_over_O(o_module(ctx), o_module(ctx))
    assert o2.module.rank == 2


def test_tensor_with_unit_object_conjugate(ctx, alg_eps0):
    a = alg_eps0.mu_z.A
    t = tensor_over_O(a, o_module(ctx))
    assert t.module.rank == 4
    # x -> x (x) 1 is a change of basis intertwining the actions
    cols = []
    for i in range(4):
        vec = [0] * 4
        vec[i] = 1
        outer = [xi * yj for xi in vec for yj in [1, 0]]
        cols.append(mat_vec(t.proj, outer))
    c = transpose(cols, ncols=4)
    assert det_int(c) in (1, -1)
    assert mat_mul(c, a.action) == mat_mul(t.module.action, c)


def test_proj_section_inverse(alg_eps0):
    for n in (2, 3):
        t = alg_eps0.tensor_power(n)
        assert mat_mul(t.proj, t.section) == identity(t.module.rank)


def test_tensor_power_names_a_projection_that_is_not_onto(ctx, mu, monkeypatch):
    # every monomial coordinate doubled: the image is 2 Z^8
    mu_z = MuZLattice(mu, ctx(2))
    real = mu_z._coords_in
    monkeypatch.setattr(mu_z, "_coords_in", lambda e, par: tuple(2 * c for c in real(e, par)))
    with pytest.raises(NotWellDefinedError, match="projection onto monomial coordinates is not onto"):
        mu_z.tensor_power(2)


def test_tensor_power_names_a_layout_that_is_not_sqrt_d_on_a_factor(ctx, mu):
    # -J on the odd summands still squares to d, but it is not sqrt(d)
    mu_z = MuZLattice(mu, ctx(2))
    on_o, on_mu = mu_z.sqrt_d_blocks
    mu_z.sqrt_d_blocks = (on_o, tuple(tuple(-e for e in row) for row in on_mu))
    with pytest.raises(NotWellDefinedError, match="tensor action not well defined on monomial coordinates"):
        mu_z.tensor_power(2)


def smith_tower(lat, n):
    """A^(x n) as iterated Smith-form quotients A^(x k-1) (x)_O A of the
    Z-tensor power; coordinates depend on the pivot order."""
    t = TensorProduct(lat.mu_z.A, identity(4), identity(4))
    for _ in range(n - 1):
        step = tensor_over_O(t.module, lat.mu_z.A)
        proj = mat_mul(step.proj, kron(t.proj, identity(4)))
        section = mat_mul(kron(t.section, identity(4)), step.section)
        t = TensorProduct(step.module, proj, section)
    return t


@pytest.mark.parametrize("n", [2, 3])
def test_tensor_power_matches_smith_tower(n, algebra_corpus):
    """The closed-form monomial projection is the quotient by O-balancing:
    same kernel as the Smith tower, and a unimodular change of coordinates
    between the two that intertwines the sqrt(d)-actions."""
    for name, alg in algebra_corpus.items():
        mono, tower = alg.tensor_power(n), smith_tower(alg, n)
        assert hnf_rows(kernel_basis(mono.proj)) == hnf_rows(kernel_basis(tower.proj)), name
        change = mat_mul(mono.proj, tower.section)
        assert det_int(change) in (1, -1), name
        assert mat_mul(change, tower.module.action) == mat_mul(mono.module.action, change), name


def test_kernel_examples(ctx, alg_eps0):
    m = alg_eps0.mult.m_matrix()
    assert is_equivariant(m, alg_eps0.tensor_power(2).module.action, alg_eps0.mu_z.A.action)
    assert len(kernel_basis(m, ncols=8)) == 4


def test_kernel_m_analysis_eps0(alg_eps0, ctx):
    rep = alg_eps0.kernel_m_analysis()
    assert rep.direct_sum_verified
    assert rep.action_formulas_verified
    assert rep.iso_to_A
    u, val = rep.generator
    assert u.is_zero()
    assert val == -alg_eps0.data.b_bar
    assert val.is_unit()


def test_kernel_m_analysis_worked(alg_worked, ctx):
    rep = alg_worked.kernel_m_analysis()
    assert rep.direct_sum_verified
    assert rep.action_formulas_verified
    # -b_bar = 6-w is not a unit, but the bounded search finds one:
    # u = -1-w gives -b_bar + u(a_bar+u)/z = 1
    assert rep.iso_to_A
    u, val = rep.generator
    assert val.is_unit()
    check = -alg_worked.data.b_bar + (u * (alg_worked.data.a_bar + u)).exact_div(ctx(2))
    assert check == val
    direct = -alg_worked.data.b_bar + (ctx(-1, -1) * (alg_worked.data.a_bar + ctx(-1, -1))).exact_div(ctx(2))
    assert direct == ctx.one


def test_kernel_m_analysis_generator_not_found_within_bound(alg_worked):
    # -b_bar alone is not a unit, so a zero search box certifies nothing;
    # the split and the action identities are still verified
    rep = alg_worked.kernel_m_analysis(search_bound=0)
    assert rep.direct_sum_verified
    assert rep.action_formulas_verified
    assert rep.generator is None
    assert not rep.iso_to_A
    assert any("no generator found" in n for n in rep.notes)
    assert rep.to_json()["generator"] is None


def test_kernel_m_analysis_corpus(algebra_corpus):
    for name, alg in algebra_corpus.items():
        rep = alg.kernel_m_analysis()
        assert rep.direct_sum_verified, name
        assert rep.action_formulas_verified, name
        assert len(rep.kernel_basis) == 4, name


def test_kernel_m_analysis_rejects_a_non_o_linear_m(algebra_corpus, monkeypatch):
    # one entry of m +1 on freshly built algebras, so no kept kernel hides
    # the fault: ker(m) is no longer stable under sqrt(d)
    fresh = [build_algebra(alg.data) for alg in algebra_corpus.values()]
    bump_m_entry(monkeypatch)
    for alg in fresh:
        with pytest.raises(NotWellDefinedError, match="kernel not stable under the action"):
            alg.kernel_m_analysis()


def test_kernel_m_analysis_sanity_free(alg_sanity):
    rep = alg_sanity.kernel_m_analysis()
    assert rep.iso_to_A
    assert rep.generator[0].is_zero()


def test_kernel_saturation(algebra_corpus):
    for name, alg in algebra_corpus.items():
        rep = alg.kernel_m_analysis()
        assert all(e in (0, 1) for e in snf_diagonal(rep.kernel_basis)), name


def test_report_json(alg_eps0):
    payload = alg_eps0.kernel_m_analysis().to_json()
    assert payload["iso_to_A"] is True
    assert payload["kernel_rank"] == 4
    assert payload["generator"]["eq87"] == {"x": "-1", "y": "0"}


def test_x_u_linearity(alg_worked, ctx):
    r = rng(9)
    g1, g2 = alg_worked.mu_z.gens
    for _ in range(20):
        a, b = r.randint(-4, 4), r.randint(-4, 4)
        u = g1 * a + g2 * b
        lhs = alg_worked.mu_z.x_u(u)
        rhs = [a * p + b * q for p, q in zip(alg_worked.mu_z.x_u(g1), alg_worked.mu_z.x_u(g2))]
        assert lhs == rhs


def test_torsion_in_tensor_is_a_failed_check():
    # Z[(1+w)/2] over the non-maximal order Z[sqrt(-3)] is not projective,
    # and its tensor square has 2-torsion
    m = OModule(-3, 2, [[-1, -2], [2, 1]])
    with pytest.raises(TorsionInTensorError, match="tensor_torsion_free check failed"):
        tensor_over_O(m, m)


def test_a_wrong_section_is_not_well_defined(alg_worked, monkeypatch):
    # U^-1 negated: the section, and with it the quotient's action, change
    # sign; -J still squares to d, but no longer commutes with the projection
    real = omodule.smith_normal_form

    def negated_inverse(rel):
        diag, u, v, uinv = real(rel)
        return diag, u, v, [[-e for e in row] for row in uinv]

    a = alg_worked.mu_z.A
    monkeypatch.setattr(omodule, "smith_normal_form", negated_inverse)
    with pytest.raises(NotWellDefinedError) as exc:
        tensor_over_O(a, a)
    assert exc.value.check == "well_defined"
    assert str(exc.value) == "well_defined check failed: tensor action not well defined on the quotient"


def test_homology_pair_rejects_image_outside_kernel():
    # d_out * d_in != 0: the image e1 is not in ker(d_out) = Z e2
    with pytest.raises(NotWellDefinedError, match="well_defined check failed"):
        homology_pair([[1], [0]], [[1, 0]], 2)


def test_delta_fails_the_counit_identity_that_delta_one_passes(monkeypatch):
    negate_a2_action(monkeypatch)
    alg = example_zsqrtm5(1, 1)
    assert alg.comultiply_one()
    with pytest.raises(NotWellDefinedError, match=r"counit identity \(eps \(x\) id\) Delta = id fails"):
        alg.delta_matrix()


def test_delta_one_and_delta_are_checked_on_every_read(monkeypatch):
    alg = example_zsqrtm5(1, 1)
    alg.comultiply_one()
    alg.delta_matrix()
    delta_one = omodule.AlgebraLattice._delta_one
    monkeypatch.setattr(omodule.AlgebraLattice, "_delta_one", lambda self: [2 * e for e in delta_one(self)])
    for read in (alg.comultiply_one, alg.delta_matrix):
        with pytest.raises(NotWellDefinedError, match=r"counit identity \(eps \(x\) id\) Delta\(1\) = 1 fails"):
            read()


def test_flipped_block_moves_the_scalar_by_z(ctx, alg_worked):
    mu_z = alg_worked.mu_z
    g1 = mu_z.gens[0].to_field()
    z = mu_z.z.to_field()
    # from p = 0 to q = 1 the scalar is divided by z, from p = 1 to q = 0 multiplied
    assert mu_z.flipped_block(block(mu_z, g1, 0, 1), 0, 1) == block(mu_z, g1 / z, 1, 0)
    inverse = z / g1  # a scalar from mu to O: mu^-1 = mu / z
    assert mu_z.flipped_block(block(mu_z, inverse, 1, 0), 1, 0) == block(mu_z, inverse * z, 0, 1)
    for p in (0, 1):
        assert block(mu_z, ctx.sqrt_d.to_field(), p, p) == mu_z.sqrt_d_blocks[p]
        assert mu_z.flipped_block(block(mu_z, ctx.sqrt_d.to_field(), p, p), p, p) == mu_z.sqrt_d_blocks[1 - p]


@pytest.mark.parametrize("blk, pars, message", [
    (((1, 1), (0, 1)), (0, 0), "not multiplication by one scalar"),
    (((1, 0), (0, 0)), (1, 0), "leaves the lattice"),  # 1/g1 on g2 = 1+w is (1+w)/2, not in O
], ids=["not_scalar", "leaves_lattice"])
def test_flipped_block_names_a_block_that_is_no_scalar(blk, pars, message, alg_worked):
    with pytest.raises(NotWellDefinedError, match=message):
        alg_worked.mu_z.flipped_block(blk, *pars)
