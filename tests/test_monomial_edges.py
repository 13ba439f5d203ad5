"""Monomial edge maps against the dense tensor-power route they replaced.

The oracle is the old construction of a cube edge map: on the full
Z-tensor power, perm . (id (x) m or Delta) . perm, pushed down to
tensor_power(n) as proj . raw . section.  For every fixture algebra and
every merge and split between at most three circles, the monomial map of
build_complex, read off from the blocks of the algebra's closed-form m and
Delta, must equal the oracle, which uses the Z-level multiplication and the
partition lift of Delta(1).
"""

import itertools

import pytest

from quadfrob.frobenius import AlgebraElement
from quadfrob.intlin import identity, kron, mat_mul, mat_vec, perm_matrix, transpose

from conftest import delta_one_lift, edge_matrix, left_mult_matrix, multiply, search_hits, z_basis


def _m_z_matrix(alg):
    basis = z_basis(alg)
    return transpose([alg.coords(multiply(alg, ei, ej)) for ei in basis for ej in basis], ncols=16)


def _delta_z_matrix(alg):
    lift = delta_one_lift(alg)
    cols = [mat_vec(kron(left_mult_matrix(alg, e), identity(4)), lift) for e in z_basis(alg)]
    return transpose(cols, ncols=4)


def dense_edge_matrix(alg, kind, n_src, src_pos, tgt_map):
    """The edge map on tensor_power coordinates, by dense products."""
    others = [p for p in range(n_src) if p not in src_pos]
    pre = perm_matrix(n_src, 4, others + list(src_pos))
    if kind == "merge":
        op = _m_z_matrix(alg)
        n_tgt = n_src - 1
        if n_src > 2:
            op = kron(identity(4 ** (n_src - 2)), op)
    else:
        op = _delta_z_matrix(alg)
        n_tgt = n_src + 1
        if n_src > 1:
            op = kron(identity(4 ** (n_src - 1)), op)
    order = [0] * len(tgt_map)
    for i, t in enumerate(tgt_map):
        order[t] = i
    post = perm_matrix(n_tgt, 4, order)
    raw = mat_mul(post, mat_mul(op, pre))
    p_src, p_tgt = alg.tensor_power(n_src), alg.tensor_power(n_tgt)
    out = mat_mul(mat_mul(p_tgt.proj, raw), p_src.section)
    assert mat_mul(out, p_src.proj) == mat_mul(p_tgt.proj, raw)  # constant on proj fibres
    return out


EDGES = [
    ("merge", 2, (0, 1)),
    ("merge", 3, (0, 1)),
    ("merge", 3, (0, 2)),
    ("merge", 3, (1, 2)),
    ("split", 1, (0,)),
    ("split", 2, (0,)),
    ("split", 2, (1,)),
]


@pytest.mark.parametrize("kind,n_src,src_pos", EDGES)
def test_monomial_edge_conjugate_to_dense_oracle(kind, n_src, src_pos, algebra_corpus):
    n_tgt = n_src - 1 if kind == "merge" else n_src + 1
    for aname, alg in algebra_corpus.items():
        for tgt_map in itertools.permutations(range(n_tgt)):
            mono = edge_matrix(alg, kind, n_src, list(src_pos), list(tgt_map)).to_dense()
            dense = dense_edge_matrix(alg, kind, n_src, list(src_pos), list(tgt_map))
            assert mono == dense, (aname, tgt_map)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monomial_action_conjugate_to_tensor_action(n, algebra_corpus):
    # the laid-out action is sqrt(d) on any one factor of the Z-tensor power,
    # pushed down by the projection: proj J_i = J proj, with J_i read off
    # the algebra's scaling, not off the 2x2 blocks
    size = 2 << n
    for aname, alg in [*algebra_corpus.items(), *enumerate(search_hits())]:
        layout = [[row.get(j, 0) for j in range(size)] for row in alg.mu_z.sqrt_d_rows(n)]
        sqrt_d = alg.ctx.sqrt_d
        on_a = transpose([alg.coords(AlgebraElement(e.u0 * sqrt_d, e.u1 * sqrt_d)) for e in z_basis(alg)], ncols=4)
        proj = alg.tensor_power(n).proj
        for i in range(n):
            j_i = kron(kron(identity(4 ** i), on_a), identity(4 ** (n - 1 - i)))
            assert mat_mul(proj, j_i) == mat_mul(layout, proj), (aname, i)
