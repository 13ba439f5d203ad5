"""Sparse ranks, unit elimination and the homology cross-checks.

Random complexes are unimodular conjugates of diagonal complexes with known
homology: d_k = U_(k+1) D_k U_k^-1, with every U a seeded product of
elementary operations, so the answer is known exactly while the matrices
look generic.
"""

import copy
import json
import random
import sys
import tracemalloc

import pytest

from conftest import (
    bump_one_action_entry,
    bump_one_edge_entry,
    bump_remainder_entry,
    dense_product,
    reduce_units_reference,
    sparse_from_dense,
    total_rank,
    unit_free_matrices,
)
from quadfrob import cli, corpus, intlin, linkhom, omodule
from quadfrob.intlin import SparseMatrix, identity, mat_mul, rank_rat, reduce_units, sparse_rank
from quadfrob.linkhom import (
    CheckFailedError,
    Complex,
    DifferentialSquareNonzeroError,
    EquivarianceError,
    ModPCheckError,
    RouteDisagreementError,
    build_complex,
    check_mod_p,
    homology_integral,
    homology_over_K,
    simplify,
    smith_homology,
)
from quadfrob.omodule import homology_pair

# a divisibility chain, so sorted absolute values are the Smith invariants
DIAGONAL = (1, 1, 1, -1, 2, -2, 4, 12)


def random_unimodular(r, n):
    """(U, U^-1) for a seeded product of row additions and negations."""
    u, uinv = identity(n), identity(n)
    for _ in range(4 * n):
        i = r.randrange(n)
        if n > 1 and r.random() < 0.8:
            j = r.choice([x for x in range(n) if x != i])
            q = r.choice((-2, -1, 1, 2))
            u[i] = [a + q * b for a, b in zip(u[i], u[j])]
            for row in uinv:
                row[j] -= q * row[i]
        else:
            u[i] = [-a for a in u[i]]
            for row in uinv:
                row[i] = -row[i]
    return u, uinv


def random_complex(seed):
    """(dense differentials, ranks, expected {degree: (free, torsion)})."""
    r = random.Random(seed)
    length = r.randint(1, 4)
    image = [0] + [r.randint(0, 4) for _ in range(length)]
    free = [r.randint(0, 3) for _ in range(length + 1)]
    ranks = [image[k] + free[k] + (image[k + 1] if k < length else 0) for k in range(length + 1)]
    entries = [[r.choice(DIAGONAL) for _ in range(image[k + 1])] for k in range(length)]
    bases = [random_unimodular(r, n) for n in ranks]
    diffs = []
    for k in range(length):
        d = [[0] * ranks[k] for _ in range(ranks[k + 1])]
        for t, e in enumerate(entries[k]):
            d[t][image[k] + free[k] + t] = e
        u_next, _ = bases[k + 1]
        _, uinv = bases[k]
        diffs.append(dense_product(mat_mul(u_next, d), uinv, ranks[k]) if ranks[k + 1] else [])
    expected = {0: (free[0], [])}
    for k in range(1, length + 1):
        expected[k] = (free[k], sorted(abs(e) for e in entries[k - 1] if abs(e) != 1))
    return diffs, ranks, expected


def sparse_complex(diffs, ranks):
    mats = [sparse_from_dense(d, ncols=ranks[k]) for k, d in enumerate(diffs)]
    return Complex(0, list(ranks), mats)


@pytest.mark.parametrize("seed", range(25))
def test_elimination_and_smith_match_known_and_homology_pair(seed):
    diffs, ranks, expected = random_complex(seed)
    cx = sparse_complex(diffs, ranks)
    cx.check_d_squared()
    h = homology_integral(cx)
    got = {i: (v["z_rank"], v["torsion"]) for i, v in h.degrees.items()}
    assert got == {i: e for i, e in expected.items() if e[0] or e[1]}
    for k in range(len(ranks)):
        d_in = cx.diffs[k - 1].to_dense() if k > 0 and ranks[k - 1] else None
        d_out = cx.diffs[k].to_dense() if k < len(diffs) and ranks[k + 1] else None
        if ranks[k]:
            free, torsion = homology_pair(d_in, d_out, ranks[k])
            assert (free, torsion) == expected[k]
    small = simplify(cx)
    assert total_rank(small) <= total_rank(cx)
    assert all(e not in (1, -1) for d in small.diffs for row in d.rows for e in row.values())


def rank_mod_p(a, p):
    """Rank over F_p by dense Gaussian elimination: the oracle for sparse_rank."""
    rows = [[e % p for e in row] for row in a]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = pow(prow[col], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


ORACLE_PRIMES = (2, 3, 7, 103)


def random_sparse(r):
    """A seeded sparse matrix with negative, even and zero entries, often with
    empty rows and columns, sometimes with no rows or no columns."""
    m, n = r.randint(0, 12), r.randint(0, 12)
    entries = (0,) * 6 + (1, -1, 2, -2, 4, 7, -14, 103, 206, -309, 3 * 7 * 103)
    dead_rows = set(r.sample(range(m), r.randint(0, m // 3)))
    dead_cols = set(r.sample(range(n), r.randint(0, n // 3)))
    return [[0 if i in dead_rows or j in dead_cols else r.choice(entries) for j in range(n)] for i in range(m)]


def dependent_rows(r):
    """A seeded matrix of independent rows with entries up to 10^6, rows
    that are integer combinations of them times a common factor, and zero
    rows, shuffled.  Over Q its eliminations mostly take the non-divisible
    step and leave rows with a content to divide out."""
    n = r.randint(1, 9)
    free = [[r.choice((0, r.randint(-10**6, 10**6))) for _ in range(n)] for _ in range(r.randint(1, 5))]
    rows = [list(f) for f in free]
    for _ in range(r.randint(1, 4)):
        coeffs = [r.randint(-2, 2) for _ in free]
        k = r.choice((1, 2, 3, 7, 103))
        rows.append([k * sum(c * f[j] for c, f in zip(coeffs, free)) for j in range(n)])
    rows += [[0] * n for _ in range(r.randint(0, 2))]
    r.shuffle(rows)
    return rows


@pytest.mark.parametrize("seed", range(25))
def test_sparse_rank_matches_rank_rat(seed):
    r = random.Random(100 + seed)
    diffs, ranks, _ = random_complex(seed)
    mats = [d for d in diffs if d and d[0]]
    # plus a sparse low-rank product with zero rows and columns
    m, k, n = r.randint(1, 9), r.randint(0, 4), r.randint(1, 9)
    a = [[r.choice((0, 0, 0, 1, -1, 3)) for _ in range(k)] for _ in range(m)]
    b = [[r.choice((0, 0, 2, -1, 5)) for _ in range(n)] for _ in range(k)]
    mats.append(dense_product(a, b, n))
    # plus large entries with dependent and zero rows
    mats += [dependent_rows(r) for _ in range(3)]
    # plus matrices on which every pivot over Q is a Euclid step
    for d in mats + unit_free_matrices(200 + seed, 12, max_dim=9):
        sm = sparse_from_dense(d)
        assert sparse_rank(sm) == rank_rat(d)
        for p in (2, 3):
            mod = [[e % p for e in row] for row in d]
            assert sparse_rank(sm, p) == sparse_rank(sparse_from_dense(mod), p)
        for p in ORACLE_PRIMES:
            assert sparse_rank(sm, p) == rank_mod_p(d, p)
        assert sparse_rank(sm, 2) <= sparse_rank(sm)


@pytest.mark.parametrize("seed", range(40))
def test_sparse_rank_mod_p_matches_dense_oracle(seed):
    r = random.Random(500 + seed)
    mats = [random_sparse(r) for _ in range(5)]
    # a low-rank product, so that elimination has to find dependent rows
    m, k, n = r.randint(1, 10), r.randint(0, 4), r.randint(1, 10)
    a = [[r.choice((0, 0, 1, -1, 2, 7)) for _ in range(k)] for _ in range(m)]
    b = [[r.choice((0, 0, -2, 3, 103)) for _ in range(n)] for _ in range(k)]
    mats.append(dense_product(a, b, n))
    mats += [dependent_rows(r) for _ in range(3)]
    for d in mats:
        sm = sparse_from_dense(d, ncols=len(d[0]) if d else r.randint(0, 5))
        for p in ORACLE_PRIMES:
            assert sparse_rank(sm, p) == rank_mod_p(d, p)
    assert sparse_rank(SparseMatrix(0, 5), 2) == sparse_rank(SparseMatrix(5, 0), 7) == 0


@pytest.mark.parametrize(
    "aname, braid", [("alg_worked", (1,) * 5), ("alg_eps0", (1,) * 6)], ids=["worked-T2_5", "eps0-T2_6"]
)
def test_sparse_rank_mod_p_of_link_differentials(aname, braid, request):
    cx = build_complex(corpus.braid_closure(braid, 2), request.getfixturevalue(aname))
    for d in cx.diffs:
        dense = d.to_dense()
        for p in ORACLE_PRIMES:
            assert sparse_rank(d, p) == rank_mod_p(dense, p)


def test_sparse_rank_mod_p_of_diagonal_conjugates():
    r = random.Random(7)
    for _ in range(10):
        entries = [r.choice(DIAGONAL) for _ in range(5)]
        u, _ = random_unimodular(r, 5)
        _, vinv = random_unimodular(r, 5)
        d = [[entries[i] if i == j else 0 for j in range(5)] for i in range(5)]
        sm = sparse_from_dense(mat_mul(mat_mul(u, d), vinv))
        for p in (2, 3, 5):
            assert sparse_rank(sm, p) == sum(1 for e in entries if e % p)


def test_reduce_units_keeps_homotopy_type(alg_worked):
    cx = build_complex(corpus.diagram("figure8"), alg_worked)
    kept, reduced = reduce_units(cx.diffs, cx.ranks)
    assert [len(k) for k in kept] == [d.ncols for d in reduced] + [reduced[-1].nrows]
    small = Complex(cx.min_degree, [len(k) for k in kept], reduced)
    small.check_d_squared()
    # Euler characteristic is a homotopy invariant
    euler = sum((-1) ** i * r for i, r in enumerate(cx.ranks))
    assert euler == sum((-1) ** i * r for i, r in enumerate(small.ranks))


def test_reduce_units_pops_as_the_tuple_heap_did(algebra_corpus):
    """The packed int heap, dict columns and drop marks give the same
    (kept, reduced) as ``reduce_units`` first written with a heap of
    (cost, k, i, j) tuples, set columns and sets of survivors: on T(2,7)
    and one seeded 3-braid closure of each length 4..7, over every fixture."""
    r = random.Random(31)
    pds = [corpus.braid_closure((1,) * 7, 2)]
    for n in range(4, 8):
        pds.append(corpus.braid_closure([r.choice((1, -1)) * r.choice((1, 2)) for _ in range(n)], 3))
    for aname, alg in algebra_corpus.items():
        for pd in pds:
            cx = build_complex(pd, alg)
            assert reduce_units(cx.diffs, cx.ranks) == reduce_units_reference(cx.diffs, cx.ranks), (aname, pd)


def test_checks_and_elimination_hold_no_second_complex(alg_eps0):
    """Traced memory on eps0 T(2,7), built a second time so that the edge
    caches are warm.  ``build_complex`` peaks at most 0.25 of the size of
    the complex it returns above it.  The homology pipeline peaks at most
    1.35 sizes above it: its checks test d^2 row by row and equivariance one
    block row at a time, and its unit elimination copies the rows.  A whole
    product or block table per check, or a tuple per pending pivot beside
    set columns, breaks these bounds."""
    pd = corpus.braid_closure((1,) * 7, 2)
    build_complex(pd, alg_eps0)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        cx = build_complex(pd, alg_eps0)
        built, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        homology_integral(cx)
        homology_peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    size = built - base
    assert build_peak - built <= 0.25 * size, (build_peak - built, size)
    assert homology_peak - built <= 1.35 * size, (homology_peak - built, size)


def _codes_called(f):
    """Calls f(); returns the code objects of the Python functions it ran."""
    codes = set()
    old = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: codes.add(frame.f_code) if event == "call" else None)
    try:
        f()
    finally:
        sys.setprofile(old)
    return codes


def test_rank_checks_need_no_z_eliminator(alg_worked, monkeypatch):
    cx = build_complex(corpus.braid_closure((1,) * 5, 2), alg_worked)
    trefoil = build_complex(corpus.diagram("trefoil"), alg_worked)
    table = smith_homology(simplify(trefoil))

    def no_eliminator(*args, **kwargs):
        raise AssertionError("a rank check built the Z route's _Eliminator")

    monkeypatch.setattr(intlin, "_Eliminator", no_eliminator)
    # T(2,5) over worked: Z/721 = Z/(7 * 103) in degrees 3 and 5
    assert [sparse_rank(d) for d in cx.diffs] == [4, 16, 64, 96, 64]
    assert [sparse_rank(d, 2) for d in cx.diffs] == [4, 16, 64, 96, 64]
    assert [sparse_rank(d, 7) for d in cx.diffs] == [4, 16, 63, 96, 63]
    assert check_mod_p(trefoil, table) == [2, 7, 103]


def test_z_route_needs_no_rank_routine(alg_worked, monkeypatch):
    cx = build_complex(corpus.diagram("trefoil"), alg_worked)
    rank_code = _codes_called(lambda: [sparse_rank(d, p) for d in cx.diffs for p in (None, 2, 7)])

    def no_rank(*args, **kwargs):
        raise AssertionError("the Z route called sparse_rank")

    monkeypatch.setattr(intlin, "sparse_rank", no_rank)
    monkeypatch.setattr(linkhom, "sparse_rank", no_rank)
    table = {}

    def z_route():
        kept, reduced = reduce_units(cx.diffs, cx.ranks)
        table.update(linkhom.smith_homology(Complex(cx.min_degree, [len(k) for k in kept], reduced)))

    z_code = _codes_called(z_route)
    assert {i: h for i, h in table.items() if h != (0, [])} == {0: (4, []), 3: (0, [721])}
    # the checks share no Python function with the route they check
    assert not rank_code & z_code


def _counted(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_homology_makes_no_matrix_dense(algebra_corpus, monkeypatch):
    calls = [_counted(monkeypatch, intlin.SparseMatrix, "to_dense")]
    calls += [_counted(monkeypatch, module, "smith_normal_form") for module in (intlin, omodule)]
    pds = [corpus.diagram(name) for name in corpus.names()] + [corpus.braid_closure((1, 2) * 4, 3)]
    for alg in algebra_corpus.values():
        for pd in pds:
            homology_integral(build_complex(pd, alg))
    assert calls == [[], [], []]


def _copy(cx):
    diffs = [SparseMatrix(d.nrows, d.ncols, [dict(row) for row in d.rows]) for d in cx.diffs]
    return Complex(cx.min_degree, list(cx.ranks), diffs)


@pytest.mark.parametrize("name", ["trefoil", "figure8"])
def test_mod_p_check_catches_a_corrupt_reduced_complex(name, alg_worked):
    cx = build_complex(corpus.diagram(name), alg_worked)
    small = simplify(cx)
    table = smith_homology(small)
    assert check_mod_p(cx, table) == [2, 7, 103]  # 721 = 7 * 103
    for k, d in enumerate(small.diffs):
        for i, row in enumerate(d.rows):
            for j, e in row.items():
                bad = _copy(small)
                bad.diffs[k].rows[i][j] = e + 1
                with pytest.raises(ModPCheckError) as exc:
                    check_mod_p(cx, smith_homology(bad))
                assert exc.value.check == "mod_p"
                assert "mod_p check failed" in str(exc.value)


def test_mod_p_check_catches_a_corrupt_torsion_invariant(alg_worked, alg_eps0):
    cx = build_complex(corpus.diagram("trefoil"), alg_worked)
    table = smith_homology(simplify(cx))
    assert table[3] == (0, [721])
    for wrong in ([722], [3 * 721], [721, 721], [7, 721]):
        with pytest.raises(ModPCheckError):
            check_mod_p(cx, {**table, 3: (0, wrong)})
    cx = build_complex(corpus.diagram("trefoil"), alg_eps0)
    table = smith_homology(simplify(cx))
    assert table[3] == (0, [2, 2, 2, 2])
    for wrong in ([2, 2, 2], [2, 2, 2, 6], [2, 2, 2, 2, 2]):
        with pytest.raises(ModPCheckError):
            check_mod_p(cx, {**table, 3: (0, wrong)})


def test_remainder_primes_catch_a_dropped_torsion_summand(alg_worked, monkeypatch):
    cx = build_complex(corpus.diagram("trefoil"), alg_worked)
    small = simplify(cx)
    dropped = {**smith_homology(small), 3: (0, [])}  # Z/721 gone, 721 = 7 * 103
    assert check_mod_p(cx, dropped) == [2]  # the primes of the torsion reported miss it
    with pytest.raises(ModPCheckError):
        check_mod_p(small, dropped, linkhom.REMAINDER_PRIMES)
    real = linkhom.smith_homology
    monkeypatch.setattr(linkhom, "smith_homology", lambda c: {**real(c), 3: (0, [])})
    with pytest.raises(ModPCheckError):
        homology_integral(build_complex(corpus.diagram("trefoil"), alg_worked))


def test_odd_dimension_over_q_is_a_route_disagreement():
    # rank 1 over Z cannot carry a sqrt(d)-action; the check needs only that
    # the complex claims one
    cx = Complex(0, [1], [], actions=[SparseMatrix(1, 1)])
    with pytest.raises(RouteDisagreementError, match="odd dimension 1"):
        homology_integral(cx)
    assert homology_integral(Complex(0, [1], [])).degrees == {0: {"z_rank": 1, "torsion": [], "k_dim": 0}}


def test_cli_names_the_failed_check(tmp_path, monkeypatch, capsys):
    pd = tmp_path / "trefoil.json"
    pd.write_text(json.dumps(corpus.diagram("trefoil").to_json()))
    real = linkhom.smith_homology

    def wrong_torsion(cx):
        return {i: (free, [3 * t for t in torsion]) for i, (free, torsion) in real(cx).items()}

    def wrong_free_rank(cx):
        return {i: (free + 1, torsion) for i, (free, torsion) in real(cx).items()}

    for fake, check in ((wrong_torsion, "mod_p"), (wrong_free_rank, "k_rank_vs_z_rank")):
        monkeypatch.setattr(linkhom, "smith_homology", fake)
        rc = cli.main(["link", "homology", "--pd", str(pd)])
        assert rc == cli.EXIT_CHECK
        assert f"{check} check failed" in capsys.readouterr().err
    monkeypatch.setattr(linkhom, "smith_homology", real)
    assert cli.main(["link", "homology", "--pd", str(pd), "--format", "json"]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["homology"]["checks"] == [
        "d_squared", "equivariance", "remainder_d_squared", "k_rank_vs_z_rank", "lee_degrees", "mod_2",
    ] + [f"remainder_mod_{p}" for p in (3, 5, 7, 11, 13)]
    assert issubclass(ModPCheckError, CheckFailedError)
    # every internal check, in every module, fails under its own name
    family, todo = [], [CheckFailedError]
    while todo:
        subs = todo.pop().__subclasses__()
        family += subs
        todo += subs
    assert {cls.__module__ for cls in family} >= {"quadfrob.frobenius", "quadfrob.omodule", "quadfrob.linkhom"}
    names = [cls.check for cls in family]
    assert CheckFailedError.check not in names
    assert len(set(names)) == len(names)


def test_check_equivariance_needs_the_unsimplified_complex(alg_eps0):
    cx = build_complex(corpus.diagram("trefoil"), alg_eps0)
    cx.check_equivariance()
    small = simplify(cx)
    assert small.actions is None
    with pytest.raises(ValueError, match="needs the unsimplified, equivariant complex"):
        small.check_equivariance()


def test_the_remainder_is_checked_once_per_complex(alg_worked, tmp_path, monkeypatch, capsys):
    """d^2 = 0 runs once on each remainder, where ``_homology`` makes it,
    whichever command or function reads the homology."""
    checked = []
    real = Complex.check_d_squared

    def counting(self):
        if self.actions is None:  # a remainder; build_complex's complex has its sqrt(d)-action
            checked.append(self)
        real(self)

    monkeypatch.setattr(Complex, "check_d_squared", counting)
    pds = {}
    for name in ("trefoil", "figure8"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(corpus.diagram(name).to_json()))
        pds[name] = str(path)
    for argv, complexes in (
        (["homology", "--pd", pds["trefoil"]], 1),
        (["compare", "--pd1", pds["trefoil"], "--pd2", pds["figure8"]], 2),
    ):
        checked.clear()
        assert cli.main(["link", *argv]) == cli.EXIT_OK
        assert len(checked) == len({id(c) for c in checked}) == complexes, argv
    capsys.readouterr()
    checked.clear()
    cx = build_complex(corpus.diagram("trefoil"), alg_worked)
    for _ in range(2):
        homology_integral(cx)
        homology_over_K(cx)
        remainder = simplify(cx)
        assert remainder == checked[0] and remainder is not checked[0]
    assert len(checked) == 1


def test_a_remainder_with_nonzero_d_squared_fails_every_reader(alg_worked, monkeypatch):
    # its Smith table and every rank count agree, so no other check sees it
    bump_remainder_entry(monkeypatch)
    for read in (homology_integral, homology_over_K, simplify):
        cx = build_complex(corpus.braid_closure((1,) * 5, 2), alg_worked)
        with pytest.raises(DifferentialSquareNonzeroError, match="d\\^2 != 0 at degree 2"):
            read(cx)


@pytest.mark.parametrize("bump, error, message", [
    (bump_one_edge_entry, DifferentialSquareNonzeroError, "^d_squared check failed: d\\^2 != 0 at degree {}$"),
    (bump_one_action_entry, EquivarianceError,
     "^equivariance check failed: differential from degree {} does not commute with sqrt\\(d\\)$"),
], ids=["edge", "action"])
@pytest.mark.parametrize("name, degree", [("trefoil", 0), ("figure8", -2)])
def test_a_faulty_cube_builds_and_fails_every_reader(bump, error, message, name, degree, alg_eps0, alg_worked,
                                                    monkeypatch):
    """``build_complex`` runs no check: a cube with one bumped edge entry or
    action entry is returned as built.  Each reader of its homology then
    raises, naming the degree ``build_complex`` named when it ran the
    checks itself, and caches nothing, so the next read raises again."""
    for alg in (alg_eps0, alg_worked):
        for read in (homology_integral, homology_over_K, simplify):
            bump(monkeypatch)
            cx = build_complex(corpus.diagram(name), alg)
            assert not hasattr(cx, "checks")
            for _ in range(2):
                with pytest.raises(error, match=message.format(degree)):
                    read(cx)


def test_each_homology_report_is_a_fresh_copy(alg_worked):
    cx = build_complex(corpus.diagram("trefoil"), alg_worked)
    first = homology_integral(cx)
    before = first.to_json()
    first.degrees[3]["torsion"].append(5)
    first.checks.clear()
    first.notes.append("changed")
    assert homology_integral(cx).to_json() == before


def test_each_remainder_is_a_fresh_copy(alg_worked):
    cx = build_complex(corpus.diagram("trefoil"), alg_worked)
    first = simplify(cx)
    before = copy.deepcopy(first)
    row = next(row for diff in first.diffs for row in diff.rows if row)
    row[next(iter(row))] += 5
    first.ranks.append(1)
    first.notes.append("changed")
    assert simplify(cx) == before
