import math
import random
from itertools import combinations

import pytest

from conftest import snf_diagonal, unit_free_matrices
from quadfrob.intlin import (
    IntSolver,
    det_int,
    hnf_rows,
    hnf_rows_lower,
    identity,
    kernel_basis,
    kron,
    mat_mul,
    mat_vec,
    perm_matrix,
    rank_rat,
    smith_normal_form,
)


def random_matrix(r, rows, cols, bound=9):
    return [[r.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_hnf_lower_ideal_shape():
    # lattice generated by 2, 2w, 1+w, -5+w over Z (w^2 = -5)
    rows = hnf_rows_lower([[2, 0], [0, 2], [1, 1], [-5, 1]])
    assert rows == [[2, 0], [1, 1]]


def test_hnf_canonical_under_regeneration():
    r = random.Random(1)
    for _ in range(50):
        vecs = random_matrix(r, 4, 3, 6)
        h = hnf_rows(vecs)
        # random unimodular-ish recombination: add multiples of rows together
        mixed = [list(v) for v in vecs]
        for _ in range(6):
            i, j = r.randrange(4), r.randrange(4)
            if i != j:
                q = r.randint(-3, 3)
                mixed[i] = [a + q * b for a, b in zip(mixed[i], mixed[j])]
        assert hnf_rows(mixed) == h


def test_snf_examples():
    assert [e for e in snf_diagonal([[2, 0], [0, 3]]) if e] == [1, 6]
    assert snf_diagonal(identity(3)) == [1, 1, 1]
    assert [e for e in snf_diagonal([[0, 0], [0, 0]]) if e] == []


def test_snf_roundtrip_random():
    r = random.Random(2)
    for _ in range(40):
        m = random_matrix(r, r.randint(1, 5), r.randint(1, 5))
        diag, u, v, uinv = smith_normal_form(m)
        assert det_int(u) in (1, -1)
        assert det_int(v) in (1, -1)
        assert mat_mul(u, uinv) == identity(len(m))
        prod = mat_mul(mat_mul(u, m), v)
        for i, row in enumerate(prod):
            for j, e in enumerate(row):
                if i == j and i < len(diag):
                    assert e == diag[i]
                else:
                    assert e == 0
        nonzero = [e for e in diag if e]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def test_snf_diagonal_matches_smith_normal_form():
    r = random.Random(8)
    mats = []
    for _ in range(300):
        m = random_matrix(r, r.randint(1, 7), r.randint(1, 7), r.choice((1, 3, 9, 40)))
        for row in m:
            for j in range(len(row)):
                if r.random() < 0.4:
                    row[j] = 0
        if len(m) > 1 and r.random() < 0.2:
            m[-1] = [2 * e for e in m[0]]
        mats.append(m)
    for m in mats + unit_free_matrices(18, 150, max_dim=7):
        diag = snf_diagonal(m)
        assert len(diag) == min(len(m), len(m[0]) if m else 0)
        assert all(e >= 0 for e in diag)
        nonzero = [e for e in diag if e]
        assert diag[: len(nonzero)] == nonzero
        assert nonzero == [e for e in smith_normal_form(m)[0] if e]


def determinantal_invariants(a):
    """Smith invariants from determinantal divisors, independent of either
    Smith routine: s_k = d_k / d_(k-1), with d_k the gcd of the k x k minors
    and d_0 = 1; once some d_k is 0, every later invariant is 0."""
    m, n = len(a), len(a[0]) if a else 0
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        dk = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                dk = math.gcd(dk, det_int([[a[i][j] for j in cols] for i in rows]))
        if dk == 0:
            return out + [0] * (min(m, n) - len(out))
        out.append(dk // prev)
        prev = dk
    return out


def test_smith_forms_match_determinantal_divisors():
    r = random.Random(9)
    mats = []
    for _ in range(200):
        m = random_matrix(r, r.randint(1, 5), r.randint(1, 5), r.choice((1, 3, 9, 40)))
        for row in m:
            for j in range(len(row)):
                if r.random() < 0.3:
                    row[j] = 0
        if len(m) > 1 and r.random() < 0.2:
            m[-1] = [3 * e for e in m[0]]
        mats.append(m)
    for m in mats + unit_free_matrices(19, 100):
        expected = determinantal_invariants(m)
        assert snf_diagonal(m) == expected, m
        assert smith_normal_form(m)[0] == expected, m


def test_kernel_and_solver():
    r = random.Random(3)
    for _ in range(40):
        m = random_matrix(r, r.randint(1, 4), r.randint(1, 5))
        ker = kernel_basis(m)
        for row in ker:
            assert all(e == 0 for e in mat_vec(m, row))
        # kernel lattice is saturated: all invariant factors are 1
        if ker:
            assert all(e in (0, 1) for e in snf_diagonal(ker))
        x = [r.randint(-5, 5) for _ in range(len(m[0]))]
        b = mat_vec(m, x)
        sol = IntSolver(m).solve(b)
        assert sol is not None
        assert mat_vec(m, sol) == b


def test_kernel_basis_is_its_own_hermite_form():
    # ker(m)'s splitting check compares Hermite forms with kernel_basis's rows as returned
    r = random.Random(10)
    nonempty = 0
    for _ in range(3000):
        m = random_matrix(r, r.randint(1, 6), r.randint(1, 9), r.choice((1, 3, 9)))
        ker = kernel_basis(m)
        assert ker == hnf_rows(ker), m
        nonempty += bool(ker)
    assert nonempty > 1500


def test_solver_detects_unsolvable():
    assert IntSolver([[2, 0], [0, 2]]).solve([1, 0]) is None
    assert IntSolver([[1, 0], [0, 0]]).solve([0, 1]) is None
    assert IntSolver([[2]]).solve([4]) == [2]


def test_kernel_edge_cases():
    assert kernel_basis([], ncols=3) == identity(3)
    assert kernel_basis(identity(4)) == []
    with pytest.raises(ValueError, match="ncols required for empty matrix"):
        IntSolver([])


def test_rank_routes_agree():
    r = random.Random(4)
    for _ in range(30):
        m = random_matrix(r, r.randint(1, 5), r.randint(1, 5))
        assert rank_rat(m) == sum(1 for e in snf_diagonal(m) if e)


def test_det_int():
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int(identity(5)) == 1
    assert det_int([]) == 1
    r = random.Random(5)
    for _ in range(20):
        a = random_matrix(r, 3, 3, 5)
        b = random_matrix(r, 3, 3, 5)
        assert det_int(mat_mul(a, b)) == det_int(a) * det_int(b)


def test_kron_on_vectors():
    r = random.Random(6)
    a = random_matrix(r, 2, 3)
    b = random_matrix(r, 3, 2)
    x = [r.randint(-4, 4) for _ in range(3)]
    y = [r.randint(-4, 4) for _ in range(2)]
    xy = [xi * yj for xi in x for yj in y]
    lhs = mat_vec(kron(a, b), xy)
    ax, by = mat_vec(a, x), mat_vec(b, y)
    assert lhs == [p * q for p in ax for q in by]


def test_perm_matrix_moves_factors():
    base = 3
    order = [2, 0, 1]
    p = perm_matrix(3, base, order)
    r = random.Random(7)
    xs = [[r.randint(-3, 3) for _ in range(base)] for _ in range(3)]
    vec = [a * b * c for a in xs[0] for b in xs[1] for c in xs[2]]
    moved = mat_vec(p, vec)
    expected = [a * b * c for a in xs[order[0]] for b in xs[order[1]] for c in xs[order[2]]]
    assert moved == expected


def test_lattice_eq():
    assert hnf_rows([[1, 0], [0, 1]]) == hnf_rows([[1, 1], [0, 1]])
    assert hnf_rows([[2, 0], [0, 1]]) != hnf_rows([[1, 0], [0, 1]])


def test_int_solver_reuse():
    m = [[3, 1], [0, 2]]
    solver = IntSolver(m)
    assert solver.solve([3, 0]) == [1, 0]
    assert solver.solve([4, 2]) == [1, 1]
    assert solver.solve([1, 1]) is None
