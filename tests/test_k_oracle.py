"""Independent fraction-field oracle for the cube complex.

Rebuilds each resolution cube directly over K = Q(sqrt(d)) in monomial
bases {1, X}^(x n) — no lattices, no integer normal forms — and compares
the homology dimensions with the production route.  Shares only the
combinatorial cube (circles and merge/split tags, from ``resolve``) with
the implementation: each edge's placement of factors is derived here.
"""

import itertools

import pytest

from conftest import k_a, k_b, k_delta_tilde, k_eps_x, k_t
from quadfrob import corpus
from quadfrob.linkhom import build_complex, homology_over_K, resolve


def k_zero(ctx):
    return ctx.field(0)


def delta_columns(data):
    """Delta(1) and Delta(X) over K as coefficient dicts on 2-bit monomials
    (bit 1 means the factor X)."""
    e1 = data.eps_one.to_field()
    ex = k_eps_x(data)
    t = k_t(data)
    inv = k_delta_tilde(data).inverse()
    a, b = k_a(data), k_b(data)
    d1 = {(0, 0): t * inv, (0, 1): -ex * inv, (1, 0): -ex * inv, (1, 1): e1 * inv}
    # left multiplication by X: 1x1 -> Xx1, 1xX -> XxX, Xx* -> (aX+b)x*
    dX = {}

    def add(key, val):
        dX[key] = dX[key] + val if key in dX else val

    for (i, j), coeff in d1.items():
        if i == 0:
            add((1, j), coeff)
        else:
            add((1, j), coeff * a)
            add((0, j), coeff * b)
    return d1, dX


def merge_pair(data, bi, bj):
    """m on two monomial factors: dict target bit -> K coefficient."""
    one = data.ctx.field(1)
    if bi == 0 and bj == 0:
        return {0: one}
    if bi != bj:
        return {1: one}
    return {1: k_a(data), 0: k_b(data)}


def monomials(n):
    return [tuple((m >> (n - 1 - i)) & 1 for i in range(n)) for m in range(2 ** n)]


def mono_index(bits):
    idx = 0
    for b in bits:
        idx = idx * 2 + b
    return idx


def target_positions(cube, v, w, src):
    """For each intermediate factor (untouched circles of v in order, then
    the merged or split ones) its position among the circles of w: an
    untouched circle is the same arc set in w, and the merged or split
    circles are those of w that v lacks, in the order of w."""
    cv, cw = cube.circles[v], cube.circles[w]
    untouched = [cw.index(c) for i, c in enumerate(cv) if i not in src]
    return untouched + [i for i, c in enumerate(cw) if c not in cv]


def edge_matrix_k(data, kind, n_src, src_pos, tgt_map):
    """The K-matrix of one cube edge on monomial bases (dense rows)."""
    ctx = data.ctx
    n_tgt = n_src - 1 if kind == "merge" else n_src + 1
    rows = [[k_zero(ctx) for _ in range(2 ** n_src)] for _ in range(2 ** n_tgt)]
    others = [p for p in range(n_src) if p not in src_pos]
    d1, dX = delta_columns(data)
    for src_bits in monomials(n_src):
        col = mono_index(src_bits)
        if kind == "merge":
            p, q = src_pos
            pieces = merge_pair(data, src_bits[p], src_bits[q])
            inter_fixed = [src_bits[o] for o in others]
            for out_bit, coeff in pieces.items():
                inter = inter_fixed + [out_bit]
                tgt_bits = [0] * n_tgt
                for i, b in enumerate(inter):
                    tgt_bits[tgt_map[i]] = b
                rows[mono_index(tgt_bits)][col] = rows[mono_index(tgt_bits)][col] + coeff
        else:
            (p,) = src_pos
            table = d1 if src_bits[p] == 0 else dX
            inter_fixed = [src_bits[o] for o in others]
            for (b1, b2), coeff in table.items():
                inter = inter_fixed + [b1, b2]
                tgt_bits = [0] * n_tgt
                for i, b in enumerate(inter):
                    tgt_bits[tgt_map[i]] = b
                rows[mono_index(tgt_bits)][col] = rows[mono_index(tgt_bits)][col] + coeff
    return rows


def k_rank(rows):
    """Gaussian elimination over K with exact field-element arithmetic."""
    if not rows or not rows[0]:
        return 0
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        piv = next((i for i in range(rank, len(mat)) if not mat[i][col].is_zero()), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col].inverse()
        for i in range(rank + 1, len(mat)):
            if not mat[i][col].is_zero():
                f = mat[i][col] * inv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def k_homology_dims(pd, alg):
    """Cube homology over K from scratch in monomial coordinates."""
    data = alg.data
    ctx = data.ctx
    cube = resolve(pd)
    k = len(pd.crossings)
    shift = pd.n_minus
    by_degree = {}
    for v in itertools.product((0, 1), repeat=k):
        by_degree.setdefault(sum(v) - shift, []).append(v)
    degrees = sorted(by_degree)
    for vs in by_degree.values():
        vs.sort()
    offsets = {}
    dims = []
    for deg in degrees:
        off = 0
        for v in by_degree[deg]:
            offsets[v] = off
            off += 2 ** cube.circle_count(v)
        dims.append(off)
    diffs = []
    for idx, deg in enumerate(degrees[:-1]):
        d = [[k_zero(ctx) for _ in range(dims[idx])] for _ in range(dims[idx + 1])]
        for v in by_degree[deg]:
            for j in range(k):
                if v[j]:
                    continue
                w = tuple(1 if i == j else v[i] for i in range(k))
                kind, src, _ = cube.edges[(v, j)]
                tgt_map = target_positions(cube, v, w, src)
                block = edge_matrix_k(data, kind, cube.circle_count(v), src, tgt_map)
                sign = -1 if sum(v[:j]) % 2 else 1
                for r, row in enumerate(block):
                    for c, e in enumerate(row):
                        if not e.is_zero():
                            d[offsets[w] + r][offsets[v] + c] = e * sign
        diffs.append(d)
    # d^2 = 0 over K as an internal check of this oracle
    for a, b in zip(diffs, diffs[1:]):
        for col in range(len(a[0])):
            vec = [a[r][col] for r in range(len(a))]
            out = [
                sum((row[i] * vec[i] for i in range(len(vec))), k_zero(ctx))
                for row in b
            ]
            assert all(e.is_zero() for e in out)
    ranks = [k_rank(d) for d in diffs]
    out = {}
    for idx, deg in enumerate(degrees):
        r_out = ranks[idx] if idx < len(ranks) else 0
        r_in = ranks[idx - 1] if idx > 0 else 0
        h = dims[idx] - r_out - r_in
        if h:
            out[deg] = h
    return out


@pytest.mark.parametrize("diagram", ["unknot_r1plus", "unknot_r1minus", "unknot_r2pair", "hopf", "trefoil"])
def test_k_oracle_matches_production(diagram, alg_eps0, alg_worked):
    pd = corpus.diagram(diagram)
    for alg in (alg_eps0, alg_worked):
        production = homology_over_K(build_complex(pd, alg))
        oracle = k_homology_dims(pd, alg)
        assert oracle == production


def test_k_oracle_figure8(alg_eps1):
    pd = corpus.diagram("figure8")
    production = homology_over_K(build_complex(pd, alg_eps1))
    oracle = k_homology_dims(pd, alg_eps1)
    assert oracle == production


def test_k_oracle_torus_2_4(alg_worked):
    # the first diagram here with an edge that leaves two circles untouched,
    # so the order of the untouched factors is checked too
    pd = corpus.braid_closure((1,) * 4, 2)
    cube = resolve(pd)
    assert max(cube.circle_count(v) - len(src) for (v, _), (_, src, _) in cube.edges.items()) == 2
    assert k_homology_dims(pd, alg_worked) == homology_over_K(build_complex(pd, alg_worked))
