import random
from fractions import Fraction

import pytest

from quadfrob import Ideal, RingContext
from quadfrob.frobenius import FrobeniusData, build_algebra, example_zsqrtm5, family_eps_x_one, family_eps_x_zero
from quadfrob.intlin import mat_mul, mat_vec, transpose
from quadfrob.linkhom import MonomialTensors


@pytest.fixture(scope="session")
def ctx():
    return RingContext(-5)


@pytest.fixture(scope="session")
def mu(ctx):
    return Ideal.from_generators(ctx, [ctx(2), ctx(1, 1)])


@pytest.fixture(scope="session")
def alg_eps0(ctx, mu):
    return family_eps_x_zero(mu, ctx(2), ctx.zero, ctx.one, ctx.one)


@pytest.fixture(scope="session")
def alg_worked(ctx, mu):
    return example_zsqrtm5(1, 1)


@pytest.fixture(scope="session")
def alg_eps1(ctx, mu):
    return family_eps_x_one(mu, ctx(2), ctx(1, 1), ctx.one, ctx.one)


@pytest.fixture(scope="session")
def alg_sanity(ctx):
    unit_ideal = Ideal.from_generators(ctx, [ctx.one])
    data = FrobeniusData(ctx, unit_ideal, ctx.one, ctx.zero, ctx.one, ctx.one, ctx.zero)
    return build_algebra(data)


@pytest.fixture(scope="session")
def algebra_corpus(alg_eps0, alg_worked, alg_eps1, alg_sanity):
    return {
        "eps0_b1": alg_eps0,
        "worked": alg_worked,
        "eps_x_one": alg_eps1,
        "free_sanity": alg_sanity,
    }


def rng(seed=0):
    return random.Random(seed)


def random_ring_element(ctx, r, bound=9):
    return ctx(r.randint(-bound, bound), r.randint(-bound, bound))


def random_mu_element(mu, r, bound=5):
    g1, g2 = mu.two_generators()
    return g1 * r.randint(-bound, bound) + g2 * r.randint(-bound, bound)


def random_algebra_element(alg, r, bound=5):
    return alg.element(
        random_ring_element(alg.ctx, r, bound),
        random_mu_element(alg.mu, r, bound),
    )


# -- lattice test helpers ----------------------------------------------------


def counit_first_matrix(alg):
    """(trace (x) id): A (x) A -> A on quotient coordinates."""
    lat = alg.lattice()
    cols = []
    for ei in lat._basis_elements:
        s = alg.trace(ei)
        for ej in lat._basis_elements:
            cols.append(lat.coords(ej.scale(s)))
    raw = transpose(cols, ncols=16)
    t2 = lat.tensor_power(2)
    out = mat_mul(raw, t2.section)
    assert mat_mul(out, t2.proj) == raw
    return out


def counit_second_matrix(alg):
    """(id (x) trace): A (x) A -> A on quotient coordinates."""
    lat = alg.lattice()
    cols = []
    for ei in lat._basis_elements:
        for ej in lat._basis_elements:
            s = alg.trace(ej)
            cols.append(lat.coords(ei.scale(s)))
    raw = transpose(cols, ncols=16)
    t2 = lat.tensor_power(2)
    out = mat_mul(raw, t2.section)
    assert mat_mul(out, t2.proj) == raw
    return out


# -- monomial coordinates ------------------------------------------------------
# build_complex presents A^(x n) as (+)_S mu^(|S| mod 2) X_S (see linkhom);
# these helpers relate that presentation to the tensor_power(n) quotient
# coordinates of the algebra's lattice, independently of MonomialTensors.


def monomial_from_z_tensor(alg, n):
    """Full Z-tensor power of A (factor basis 1, sqrt(d), g1 X, g2 X; first
    factor most significant) -> monomial coordinates:
    u_1 X^s_1 (x) ... (x) u_n X^s_n -> prod(u_i) / z^floor(|S|/2) in the
    summand of S = {i : s_i = 1}."""
    ctx = alg.ctx
    g1, g2 = alg.mu.two_generators()
    parts = [(ctx.one, 0), (ctx.sqrt_d, 0), (g1, 1), (g2, 1)]
    z = alg.data.z.to_field()
    cols = []
    for idx in range(4 ** n):
        prod = ctx.one.to_field()
        mask = 0
        for p in range(n):
            u, bit = parts[(idx // 4 ** (n - 1 - p)) % 4]
            prod = prod * u
            mask = 2 * mask + bit
        size = bin(mask).count("1")
        for _ in range(size // 2):
            prod = prod / z
        r = prod.to_ring()
        col = [0] * (2 << n)
        col[2 * mask], col[2 * mask + 1] = (r.x, r.y) if size % 2 == 0 else alg.mu.basis_coords(r)
        cols.append(col)
    return transpose(cols, ncols=4 ** n)


def to_monomial(alg, n):
    """Change of basis from tensor_power(n) quotient coordinates to
    monomial ones; the monomial map must be constant on quotient fibres."""
    tp = alg.lattice().tensor_power(n)
    phi = monomial_from_z_tensor(alg, n)
    b = mat_mul(phi, tp.section)
    assert mat_mul(b, tp.proj) == phi
    return b


def inverse_unimodular(a):
    """Exact inverse of a square integer matrix; asserts it is integral."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    assert all(x.denominator == 1 for row in m for x in row[n:])
    return [[int(x) for x in row[n:]] for row in m]


def monomial_m_matrix(alg):
    """The lattice's multiplication A (x) A -> A in monomial coordinates."""
    m = alg.lattice().m_matrix()
    return mat_mul(mat_mul(to_monomial(alg, 1), m), inverse_unimodular(to_monomial(alg, 2)))


def monomial_delta_matrix(alg):
    """The lattice's comultiplication A -> A (x) A in monomial coordinates."""
    delta = alg.lattice().delta_matrix()
    return mat_mul(mat_mul(to_monomial(alg, 2), delta), inverse_unimodular(to_monomial(alg, 1)))


def monomial_pure2(alg, x, y):
    """x (x) y in monomial coordinates."""
    return mat_vec(to_monomial(alg, 2), alg.lattice().pure2(x, y))


def _edge(alg, kind, n_src, src_pos, tgt_map):
    return MonomialTensors(alg).edge_matrix(kind, n_src, src_pos, tgt_map).to_dense()


def id_tensor_delta(alg):
    """(id (x) Delta): A(x)A -> A(x)A(x)A in monomial coordinates."""
    return _edge(alg, "split", 2, [1], [0, 1, 2])


def delta_tensor_id(alg):
    """(Delta (x) id): A(x)A -> A(x)A(x)A; the untouched factor lands last."""
    return _edge(alg, "split", 2, [0], [2, 0, 1])


def m_tensor_id(alg):
    """(m (x) id): A(x)A(x)A -> A(x)A, merging the first two factors."""
    return _edge(alg, "merge", 3, [0, 1], [1, 0])


def id_tensor_m(alg):
    """(id (x) m): A(x)A(x)A -> A(x)A, merging the last two factors."""
    return _edge(alg, "merge", 3, [1, 2], [0, 1])


def swap_matrix(alg):
    """The factor swap on A (x)_O A quotient coordinates."""
    lat = alg.lattice()
    t2 = lat.tensor_power(2)
    from quadfrob.intlin import perm_matrix

    raw = perm_matrix(2, 4, [1, 0])
    out = mat_mul(mat_mul(t2.proj, raw), t2.section)
    assert mat_mul(out, t2.proj) == mat_mul(t2.proj, raw)
    return out
