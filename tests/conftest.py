import heapq
import random

import pytest

from quadfrob import Ideal, RingContext, linkhom
from quadfrob.frobenius import (
    AlgebraElement,
    FrobeniusData,
    build_algebra,
    example_zsqrtm5,
    family_eps_x_one,
    family_eps_x_zero,
    search_solutions,
)
from quadfrob.intlin import (
    SparseMatrix,
    identity,
    invariant_factors,
    mat_add,
    mat_mul,
    mat_scale,
    sparse_rank,
    transpose,
)
from quadfrob.omodule import AlgebraLattice, MultiplicationLattice, MuZLattice, OModule
from quadfrob.ring import ClosureError, NotDivisibleError, RingElement, parse_element


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


def khovanov_data(ctx):
    """Khovanov's algebra over O: mu = O, z = 1, a_bar = b_bar = 0 (so
    X^2 = 0), eps(1) = 0 and eps_x_bar = 1."""
    unit_ideal = Ideal.from_generators(ctx, [ctx.one])
    return FrobeniusData(ctx, unit_ideal, ctx.one, ctx.zero, ctx.zero, ctx.zero, ctx.one)


@pytest.fixture(scope="session")
def alg_khovanov(ctx):
    return build_algebra(khovanov_data(ctx))


@pytest.fixture(scope="session")
def algebra_corpus(alg_eps0, alg_worked, alg_eps1, alg_sanity, alg_khovanov):
    return {
        "eps0_b1": alg_eps0,
        "worked": alg_worked,
        "eps_x_one": alg_eps1,
        "free_sanity": alg_sanity,
        "khovanov": alg_khovanov,
    }


def rng(seed=0):
    return random.Random(seed)


# d, generators of mu, z with mu^2 = (z)
RINGS = (
    (-5, "2,1+w", "2"),
    (-6, "2,w", "2"),
    (-10, "2,w", "2"),
    (-13, "2,1+w", "2"),
    (-5, "1", "1"),
    (-1, "1+w", "2w"),
)


def ring_of(d, gens, z):
    ctx = RingContext(d)
    mu = Ideal.from_generators(ctx, [parse_element(ctx, g) for g in gens.split(",")])
    return ctx, mu, parse_element(ctx, z)


# Beyond class number two, (d, generators of mu, z) with z from
# ``certify_order_two``: Cl(Z[sqrt(-21)]) = (Z/2)^2, where (2,1+w) and (3,w)
# lie in different classes and (7,w) in the class of (3,w);
# Cl(Z[sqrt(-14)]) = Z/4, whose one class of order two, that of (2,w), is a
# square; Cl(Z[sqrt(-30)]) = (Z/2)^2, with (2,w) and (3,w) in different
# classes
LARGER_CLASS_GROUP_RINGS = (
    (-21, "2,1+w", "2"),
    (-21, "3,w", "3"),
    (-21, "7,w", "7"),
    (-14, "2,w", "2"),
    (-30, "2,w", "2"),
    (-30, "3,w", "3"),
)


def search_hits(rings=RINGS[:4]):
    """The first six algebras ``search_solutions`` finds with coordinate
    bound 1 over each of ``rings`` (by default the first four RINGS, all
    of class number two), in search order."""
    out = []
    for ring in rings:
        _, mu, z = ring_of(*ring)
        out.extend(search_solutions(mu, z, coord_bound=1, limit=6))
    return out


# nonzero entries with no unit among them
NON_UNITS = (2, -2, 3, -3, 6, -10, 35)


def unit_free_matrices(seed, count, max_dim=5):
    """Seeded integer matrices whose nonzero entries are all non-units, so
    every pivot of an elimination over Z is a Euclid step.  The first seven
    are the edge cases: no rows, all-zero rows and columns, 1x1 with a
    negative and a positive entry, and one row and one column."""
    r = random.Random(seed)
    out = [[], [[0, 0, 0]], [[0], [0]], [[-6]], [[35]], [[-2, 3]], [[-10], [6]]]
    while len(out) < count:
        m, n, density = r.randint(1, max_dim), r.randint(1, max_dim), r.random()
        out.append([[r.choice(NON_UNITS) if r.random() < density else 0 for _ in range(n)] for _ in range(m)])
    return out


def random_ring_element(ctx, r, bound=9):
    return ctx(r.randint(-bound, bound), r.randint(-bound, bound))


def random_mu_element(mu, r, bound=5):
    g1, g2 = mu.two_generators()
    return g1 * r.randint(-bound, bound) + g2 * r.randint(-bound, bound)


def random_algebra_element(alg, r, bound=5):
    return alg.element(
        random_ring_element(alg.ctx, r, bound),
        random_mu_element(alg.data.mu, r, bound),
    )


# -- sparse complexes and diagrams -------------------------------------------


def dense_product(a, b, ncols):
    """a*b with ncols columns, also when the inner dimension is empty."""
    return mat_mul(a, b) if b else [[0] * ncols for _ in a]


def sparse_from_dense(a, ncols=None):
    """A SparseMatrix with the nonzero entries of the dense rows ``a``;
    ``ncols`` gives the width when ``a`` has no rows."""
    n = len(a[0]) if a else (ncols or 0)
    return SparseMatrix(len(a), n, [{j: e for j, e in enumerate(row) if e} for row in a])


def diff_from(cx, i):
    """The differential of ``cx`` leaving degree i, or None outside it."""
    idx = i - cx.min_degree
    if 0 <= idx < len(cx.diffs):
        return cx.diffs[idx]
    return None


def total_rank(cx):
    return sum(cx.ranks)


def expected_checks(report, built=True):
    """The checks a homology report lists, in run order, from its torsion
    alone: ``report`` as ``HomologyReport.to_json`` writes it (invariants
    as strings or ints), ``built`` for the complex ``build_complex``
    assembled rather than a remainder.  A built complex first passes
    ``d_squared`` and ``equivariance``; every complex then passes
    ``remainder_d_squared`` and ``k_rank_vs_z_rank``, ``mod_p`` for p = 2
    and each prime of a torsion invariant in ascending order, and last
    ``remainder_mod_p`` for p = 3, 5, 7, 11 and 13.  The primes come from
    trial division by every integer, so an invariant must be small enough
    to factor that way."""
    primes = {2}
    for degree in report["degrees"].values():
        for t in degree["torsion"]:
            n, p = int(t), 2
            while p * p <= n:
                while n % p == 0:
                    primes.add(p)
                    n //= p
                p += 1
            if n > 1:
                primes.add(n)
    checks = ["d_squared", "equivariance"] if built else []
    checks += ["remainder_d_squared", "k_rank_vs_z_rank"]
    checks += [f"mod_{p}" for p in sorted(primes)]
    return checks + [f"remainder_mod_{p}" for p in (3, 5, 7, 11, 13)]


def n_plus(pd):
    """The number of positive crossings of a PD code."""
    return sum(1 for s in pd.signs if s > 0)


def sparse_product(a, b):
    """The SparseMatrix a * b, every row formed in full: the reference for
    the checks of ``Complex``, which test the product row by row."""
    out = []
    for row in a.rows:
        acc = {}
        for k, x in row.items():
            for j, y in b.rows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: e for j, e in acc.items() if e})
    return SparseMatrix(a.nrows, b.ncols, out)


# -- Khovanov's q-graded complex over Z, sharing no code with linkhom --------


def smoothing_circles(pd, vertex):
    """Circles of the resolution ``vertex`` of ``pd``, each the frozenset of
    its arcs, by walking the diagram: from a slot (crossing, position),
    cross the smoothing to the slot it is joined to, then follow that
    slot's arc to its other end.  The 0-smoothing joins positions (1, 2)
    and (3, 4), the 1-smoothing (1, 4) and (2, 3)."""
    ends = {}
    for j, crossing in enumerate(pd.crossings):
        for t, arc in enumerate(crossing):
            ends.setdefault(arc, []).append((j, t))
    along = {}
    for x, y in ends.values():
        along[x], along[y] = y, x
    joined = {}
    for j, choice in enumerate(vertex):
        for s, t in ((0, 1), (2, 3)) if choice == 0 else ((0, 3), (1, 2)):
            joined[j, s], joined[j, t] = (j, t), (j, s)
    circles, seen = [], set()
    for slot in along:
        arcs = set()
        while slot not in seen:
            other = joined[slot]
            seen.update((slot, other))
            arcs.update(pd.crossings[j][t] for j, t in (slot, other))
            slot = along[other]
        if arcs:
            circles.append(frozenset(arcs))
    return circles + [frozenset([("loop", i)]) for i in range(pd.loops)]


def khovanov_ranks(pd):
    """{(i, q): dim Kh^(i,q)(L; Q)}, the ranks over Q of Khovanov's complex
    over Z (Khovanov, arXiv:math/9908171): V = Z<1, x> with deg 1 = 1 and
    deg x = -1, merge 1.1 = 1, 1.x = x, x.x = 0, split 1 -> 1(x)x + x(x)1,
    x -> x(x)x, and the edge at crossing j signed by the 1s of v before j.
    A generator at the vertex v is a bitmask over v's circles, bit t set
    when circle t carries x; it lies in degree (|v| - n_minus, #1 - #x +
    |v| + n_plus - 2 n_minus).  The differential keeps q, so each (i, q)
    block is ranked on its own by ``intlin.sparse_rank``."""
    k = len(pd.crossings)
    n_minus = sum(1 for s in pd.signs if s < 0)
    vertices = [tuple((n >> j) & 1 for j in range(k)) for n in range(1 << k)]
    circles = {v: smoothing_circles(pd, v) for v in vertices}

    def grading(v, mask):
        ones = sum(v)
        return ones - n_minus, len(circles[v]) - 2 * bin(mask).count("1") + ones + k - 3 * n_minus

    index = {}  # (i, q) -> {(v, mask): position}
    for v, cv in circles.items():
        for mask in range(1 << len(cv)):
            block = index.setdefault(grading(v, mask), {})
            block[v, mask] = len(block)
    rows = {key: [{} for _ in block] for key, block in index.items()}  # d from (i - 1, q) into (i, q)
    for v, cv in circles.items():
        for j in range(k):
            if v[j]:
                continue
            w = v[:j] + (1,) + v[j + 1:]
            at_w = {c: t for t, c in enumerate(circles[w])}
            touched = set(pd.crossings[j])
            src = [t for t, c in enumerate(cv) if c & touched]
            tgt = [at_w[c] for c in circles[w] if c & touched]
            kept = [(t, at_w[c]) for t, c in enumerate(cv) if not c & touched]
            sign = -1 if sum(v[:j]) % 2 else 1
            for mask in range(1 << len(cv)):
                base = sum(1 << u for t, u in kept if mask >> t & 1)
                xs = [mask >> t & 1 for t in src]
                if len(src) == 2:  # merge
                    images = [] if all(xs) else [base | (1 << tgt[0] if any(xs) else 0)]
                elif xs[0]:  # split of x
                    images = [base | 1 << tgt[0] | 1 << tgt[1]]
                else:  # split of 1
                    images = [base | 1 << tgt[0], base | 1 << tgt[1]]
                i, q = grading(v, mask)
                col = index[i, q][v, mask]
                for image in images:
                    rows[i + 1, q][index[i + 1, q][w, image]][col] = sign
    rank = {}
    for (i, q), block in index.items():
        if (i - 1, q) in index:
            rank[i - 1, q] = sparse_rank(SparseMatrix(len(block), len(index[i - 1, q]), rows[i, q]))
    dims = {(i, q): len(block) - rank.get((i, q), 0) - rank.get((i - 1, q), 0) for (i, q), block in index.items()}
    return {key: dim for key, dim in dims.items() if dim}


def khovanov_k_dims(pd):
    """{i: dim Kh^i(L; Q)}: ``khovanov_ranks`` summed over q."""
    out = {}
    for (i, _), dim in khovanov_ranks(pd).items():
        out[i] = out.get(i, 0) + dim
    return out


def lee_degrees(pd):
    """{i: dim} of Lee's homology in closed form (Lee, arXiv:math/0210213):
    one generator for each set E of components, in degree s(E), the sum of
    the signs of the crossings whose under-strand (slot 1) and over-strand
    (slot 2) lie on opposite sides of E.  Components are the orbits of
    ``PDCode._successor``, plus the loops, which cross nothing."""
    succ = pd._successor()
    component = {arc: n for n, arcs in enumerate(linkhom._classes(succ, succ.items())) for arc in arcs}
    count = len(set(component.values())) + pd.loops
    out = {}
    for e in range(1 << count):
        i = sum(s for (a, b, _, _), s in zip(pd.crossings, pd.signs) if (e >> component[a] ^ e >> component[b]) & 1)
        out[i] = out.get(i, 0) + 1
    return out


# -- unit elimination as first written ----------------------------------------


class SetEliminator:
    """``intlin._Eliminator`` with a set of rows per column, as first
    written; the pivot-order oracle below runs on it."""

    def __init__(self, rows):
        self.rows = {}
        self.cols = cols = {}
        for i, row in enumerate(rows):
            if row:
                self.rows[i] = dict(row)
                for j in row:
                    col = cols.get(j)
                    if col is None:
                        cols[j] = {i}
                    else:
                        col.add(i)

    def drop_row(self, r):
        self._unlink(r, self.rows.pop(r, ()))

    def drop_col(self, c):
        rows = self.rows
        for i in self.cols.pop(c, ()):
            row = rows[i]
            del row[c]
            if not row:
                del rows[i]

    def pivot(self, r, c):
        """Reduces column c by the entry (r, c); returns the rows it changed."""
        rows, cols = self.rows, self.cols
        prow = rows[r]
        pv = prow[c]
        rest = [(j, e) for j, e in prow.items() if j != c]
        touched = [i for i in cols[c] if i != r]
        cols[c] = col = {r}
        for i in touched:
            row = rows[i]
            q, x = divmod(row[c], pv)
            if x:
                row[c] = x
                col.add(i)
            else:
                del row[c]
            self._sub(i, row, q, rest)
            if not row:
                del rows[i]
        return touched

    def _unlink(self, i, js):
        cols = self.cols
        for j in js:
            col = cols[j]
            col.discard(i)
            if not col:
                del cols[j]

    def _sub(self, i, row, factor, rest):
        """row i -= factor * rest."""
        cols = self.cols
        for j, e in rest:
            v = row.get(j)
            if v is None:
                row[j] = -factor * e
                col = cols.get(j)
                if col is None:
                    cols[j] = {i}
                else:
                    col.add(i)
            else:
                v -= factor * e
                if v:
                    row[j] = v
                else:
                    del row[j]
                    col = cols[j]
                    col.discard(i)
                    if not col:
                        del cols[j]


def reduce_units_reference(diffs, ranks):
    """``intlin.reduce_units`` as first written: a heap of (cost, k, i, j)
    tuples, set columns and a set of surviving indices per degree.  The
    production routine packs each tuple into one int and must pop the same
    sequence, so it returns the same (kept, reduced)."""
    elims = [SetEliminator(d.rows) for d in diffs]
    alive = [set(range(r)) for r in ranks]
    # the pops depend only on the (cost, k, i, j) tuples, not on push order
    heap = [
        ((len(row) - 1) * (len(e.cols[j]) - 1), k, i, j)
        for k, e in enumerate(elims)
        for i, row in e.rows.items()
        for j, v in row.items()
        if v == 1 or v == -1
    ]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    while heap:
        cost, k, i, j = heappop(heap)
        e = elims[k]
        rows, cols = e.rows, e.cols
        row = rows.get(i)
        if row is None or row.get(j) not in (1, -1):
            continue
        now = (len(row) - 1) * (len(cols[j]) - 1)
        if now > cost:
            heappush(heap, (now, k, i, j))
            continue
        changed = [c for c in row if c != j]
        touched = e.pivot(i, j)
        e.drop_row(i)
        for t in touched:
            trow = rows.get(t)
            if trow:
                for c in changed:
                    v = trow.get(c)
                    if v == 1 or v == -1:
                        heappush(heap, ((len(trow) - 1) * (len(cols[c]) - 1), k, t, c))
        alive[k].discard(j)
        alive[k + 1].discard(i)
        if k > 0:
            elims[k - 1].drop_row(j)
        if k + 1 < len(elims):
            elims[k + 1].drop_col(i)
    kept = [sorted(s) for s in alive]
    reduced = []
    for k, e in enumerate(elims):
        col_at = {j: n for n, j in enumerate(kept[k])}
        rows = [{col_at[j]: v for j, v in e.rows.get(i, {}).items()} for i in kept[k + 1]]
        reduced.append(SparseMatrix(len(kept[k + 1]), len(kept[k]), rows))
    return kept, reduced


# -- lattice test helpers ----------------------------------------------------


def snf_diagonal(a):
    """The diagonal of ``smith_normal_form(a)`` without its transforms:
    min(m, n) nonnegative entries, each dividing the next nonzero one, zeros
    last.  ``invariant_factors`` on the rows of ``a``, padded with zeros."""
    m = len(a)
    n = len(a[0]) if a else 0
    diag = invariant_factors([{j: e for j, e in enumerate(row) if e} for row in a])
    return diag + [0] * (min(m, n) - len(diag))


def summand_coords(mu, c, odd):
    """Z-coordinates of c in K in a summand of A^(x n): over (1, sqrt(d))
    in O for an even circle set, over (g1, g2) in mu for an odd one."""
    if not c.is_integral():
        raise ValueError(f"{c} is not in O: the algebra is not closed")
    r = to_ring(c)
    return mu.basis_coords(r) if odd else (r.x, r.y)


def block(mu_z, factor, src_par, tgt_par):
    """Matrix of c -> factor * c (factor in K) from the summand lattice of
    parity ``src_par`` (0: O, basis 1, sqrt(d); 1: mu, basis g1, g2) to that
    of ``tgt_par``, by K-scalar arithmetic."""
    ctx = mu_z.ctx
    basis = (ctx.one, ctx.sqrt_d) if src_par == 0 else mu_z.gens
    (a, c), (b, d) = (summand_coords(mu_z.mu, e.to_field() * factor, tgt_par) for e in basis)
    return ((a, b), (c, d))


def scalar_matrix(module, o):
    """Matrix of multiplication by o = x + y sqrt(d) in O on an OModule."""
    out = mat_scale(identity(module.rank), o.x)
    if o.y:
        out = mat_add(out, mat_scale(module.action, o.y))
    return out


def is_equivariant(matrix, source_action, target_action):
    """Whether ``matrix`` commutes with the sqrt(d)-actions of its source
    and target."""
    return mat_mul(matrix, source_action) == mat_mul(target_action, matrix)


def bump_m_entry(monkeypatch):
    """One entry of the closed-form m +1, on a copy.  That m is not
    O-linear: its kernel is not stable under sqrt(d), and it fails
    associativity."""
    real = MultiplicationLattice.m_matrix

    def bumped(self):
        out = [row[:] for row in real(self)]
        out[2][6] += 1
        return out

    monkeypatch.setattr(MultiplicationLattice, "m_matrix", bumped)


def negate_a2_action(monkeypatch):
    """sqrt(d) on A (x)_O A replaced by its negative, which also squares to
    d.  Delta(1) still passes the counit identity, but Delta's second
    column, sqrt(d) on Delta(1), no longer does."""

    def negated(self):
        return OModule(self.ctx.d, 8, [[-e for e in row] for row in self._module(2).action])

    monkeypatch.setattr(MuZLattice, "A2", property(negated))


def freeze_first_crossing(monkeypatch):
    """Circles read as if crossing 0 were always 0-resolved, so every cube
    edge along crossing 0 keeps its circles: a fault in ``_circles_at``
    that no planar diagram can cause."""
    real = linkhom._circles_at
    monkeypatch.setattr(linkhom, "_circles_at", lambda pd, vertex: real(pd, (0, *vertex[1:])))


def bump_one_edge_entry(monkeypatch):
    """The first edge pattern's first entry +1, on a copy, then the real
    map: one edge of the next cube built leaves d^2 != 0 at the cube's
    lowest degree."""
    real = AlgebraLattice.edge_entries

    def bump_once(self, *args):
        monkeypatch.setattr(AlgebraLattice, "edge_entries", real)
        (r, c, e), *rest = real(self, *args)
        return [(r, c, e + 1), *rest]

    monkeypatch.setattr(AlgebraLattice, "edge_entries", bump_once)


def bump_one_action_entry(monkeypatch):
    """Entry (0, 0) of the first sqrt(d)-action laid out +1, on a copy,
    then the real rows: the next cube built has one vertex whose action,
    still inside its 2x2 blocks, no longer commutes with the differential
    leaving the cube's lowest degree."""
    real = MuZLattice.sqrt_d_rows

    def bump_once(self, n):
        monkeypatch.setattr(MuZLattice, "sqrt_d_rows", real)
        rows = [dict(row) for row in real(self, n)]
        rows[0][0] = rows[0].get(0, 0) + 1
        return rows

    monkeypatch.setattr(MuZLattice, "sqrt_d_rows", bump_once)


def bump_remainder_entry(monkeypatch):
    """Entry (0, 0) of the remainder's d_3 +1 as unit elimination returns
    it.  On worked T(2,5) the remainder then has d^2 != 0, yet its Smith
    table and every rank count still agree: only ``remainder_d_squared``
    sees the fault."""
    real = linkhom.reduce_units

    def bumped(diffs, ranks):
        kept, reduced = real(diffs, ranks)
        row = reduced[3].rows[0]
        row[0] = row.get(0, 0) + 1
        return kept, reduced

    monkeypatch.setattr(linkhom, "reduce_units", bumped)


def double_x_u_off_the_generators(monkeypatch):
    """X_u doubled for every u other than mu's two HNF generators: X_g1 and
    X_g2 still span X_mu, so ker(m) still splits, but X_(b_bar g) is no
    longer linear in u and the action identities on ker(m) fail."""
    real = MuZLattice.x_u

    def doubled(self, u):
        x = real(self, u)
        return x if u in self.gens else [2 * e for e in x]

    monkeypatch.setattr(MuZLattice, "x_u", doubled)


def z_basis(alg):
    """A's Z-basis 1, sqrt(d), g1 X, g2 X as algebra elements, the factor
    basis of the Z-tensor powers."""
    ctx = alg.ctx
    g1, g2 = alg.data.mu.two_generators()
    return (alg.element(ctx.one), alg.element(ctx.sqrt_d), alg.element(ctx.zero, g1), alg.element(ctx.zero, g2))


def outer(x, y):
    """x (x) y on the Z-tensor square, first factor most significant."""
    return [xi * yj for xi in x for yj in y]


def multiply(alg, x, y):
    """(u0 + u1 X)(v0 + v1 X) with u1 v1 X^2 = (u1 v1 / z)(a_bar X + b_bar).

    u1 v1 is always divisible by z when both lie in mu; the result can
    escape mu X only for relaxed a_bar, reported as ClosureError.
    """
    try:
        q = (x.u1 * y.u1).exact_div(alg.data.z)
    except NotDivisibleError as exc:
        raise ClosureError(f"product of X-parts not divisible by z: {exc}") from exc
    u0 = x.u0 * y.u0 + q * alg.data.b_bar
    u1 = x.u0 * y.u1 + x.u1 * y.u0 + q * alg.data.a_bar
    alg.mu_z.check_closed(u0, u1)
    return AlgebraElement(u0, u1)


def left_mult_matrix(alg, x):
    """Left multiplication by x on A, read off ``multiply``."""
    return transpose([alg.coords(multiply(alg, x, e)) for e in z_basis(alg)], ncols=4)


def delta_one_lift(alg):
    """Integral lift of Delta(1) to the Z-tensor square:
    c 1(x)1 + 1(x)dX + dX(x)1 + d' sum_j u_j X (x) u_j' X."""
    zero, duals = alg.ctx.zero, alg.duals
    one = alg.coords(alg.one)
    c, d = alg.coords(alg.element(duals.c)), alg.coords(alg.element(zero, duals.d))
    lift = [a + b + e for a, b, e in zip(outer(c, one), outer(one, d), outer(d, one))]
    for uj, ujp in zip(*alg.mu_z.partition):
        left = alg.coords(alg.element(zero, duals.d_prime * uj))
        lift = [a + b for a, b in zip(lift, outer(left, alg.coords(alg.element(zero, ujp))))]
    return lift


def counit_first_matrix(alg):
    """(trace (x) id): A (x) A -> A on quotient coordinates."""
    cols = []
    for ei in z_basis(alg):
        s = alg.trace(ei)
        for ej in z_basis(alg):
            cols.append(alg.coords(AlgebraElement(ej.u0 * s, ej.u1 * s)))
    raw = transpose(cols, ncols=16)
    t2 = alg.tensor_power(2)
    out = mat_mul(raw, t2.section)
    assert mat_mul(out, t2.proj) == raw
    return out


def counit_second_matrix(alg):
    """(id (x) trace): A (x) A -> A on quotient coordinates."""
    cols = []
    for ei in z_basis(alg):
        for ej in z_basis(alg):
            s = alg.trace(ej)
            cols.append(alg.coords(AlgebraElement(ei.u0 * s, ei.u1 * s)))
    raw = transpose(cols, ncols=16)
    t2 = alg.tensor_power(2)
    out = mat_mul(raw, t2.section)
    assert mat_mul(out, t2.proj) == raw
    return out


# -- the paper's raw equations over K, as oracles of the algebra side --------


def to_ring(c):
    """The element c of K as an element of O."""
    if not c.is_integral():
        raise NotDivisibleError(f"{c} is not in O")
    return RingElement(c.ctx, int(c.p), int(c.q))


def contains_fraction(ideal, x, denominator):
    """Membership of x in K in denominator^-1 * ideal: denominator * x is in
    O and lies in the lattice."""
    if denominator.is_zero():
        raise ZeroDivisionError("denominator must be nonzero")
    scaled = denominator.to_field() * x
    if not scaled.is_integral():
        return False
    return ideal.contains(to_ring(scaled))


def k_a(data):
    """a = a_bar / z in K."""
    return data.a_bar.field_quotient(data.z)


def k_b(data):
    """b = b_bar / z in K."""
    return data.b_bar.field_quotient(data.z)


def k_eps_x(data):
    """eps(X) = eps_x_bar / z in K."""
    return data.eps_x_bar.field_quotient(data.z)


def k_t(data):
    """t = eps(X^2) = t_bar / z in K."""
    return data.t_bar().field_quotient(data.z)


def k_delta_tilde(data):
    """det of the trace pairing in the K-basis {1, X}."""
    return data.eps_one.to_field() * k_t(data) - k_eps_x(data) * k_eps_x(data)


def raw_system_residuals(data, duals):
    """Residuals of the four defining equations over K; all must be zero.

    c*eps(1) + d*eps(X) - 1,  c*eps(X) + d*t,
    c'*eps(1) + d'*eps(X),    c'*eps(X) + d'*t - 1/z.
    """
    e1 = data.eps_one.to_field()
    ex = k_eps_x(data)
    t = k_t(data)
    zinv = data.z.to_field().inverse()
    c = duals.c.to_field()
    d = duals.d.to_field()
    cp = duals.c_prime
    dp = duals.d_prime.to_field()
    return (
        c * e1 + d * ex - 1,
        c * ex + d * t,
        cp * e1 + dp * ex,
        cp * ex + dp * t - zinv,
    )


def eq20_memberships(data):
    """The three fractional-ideal conditions equivalent to dual integrality:
    eps(X^2) in D*O, eps(X) in D*mu, eps(1) in D*z*O."""
    delta = k_delta_tilde(data)
    t_over = k_t(data) / delta
    ex_over = k_eps_x(data) / delta
    e1_over = data.eps_one.to_field() / (delta * data.z.to_field())
    return (
        t_over.is_integral(),
        ex_over.is_integral() and data.mu.contains(to_ring(ex_over)),
        e1_over.is_integral(),
    )


def trace_pairing(alg, x, y):
    """eps(xy)."""
    return alg.trace(multiply(alg, x, y))


def delta_one_by_dualizing_multiplication(data):
    """Delta(1) over K by the literal composition (inv (x) inv) o m^ o pairing.

    Works in the K-bases {1, X} and {1^, X^}: pairing(1) = eps(1) 1^ +
    eps(X) X^; m^(1^) = 1^ (x) 1^ + b X^ (x) X^; m^(X^) = 1^ (x) X^ +
    X^ (x) 1^ + a X^ (x) X^; inv(1^) = (eps(X^2) 1 - eps(X) X)/D and
    inv(X^) = (-eps(X) 1 + eps(1) X)/D.  Returns coefficients of
    (1 (x) 1, 1 (x) X, X (x) 1, X (x) X).
    """
    ctx = data.ctx
    zero = ctx.field(0)
    e1 = data.eps_one.to_field()
    ex = k_eps_x(data)
    t = k_t(data)
    a = k_a(data)
    b = k_b(data)
    delta = k_delta_tilde(data)
    inv = delta.inverse()
    # images of the dual basis under the inverse pairing, as (coeff 1, coeff X)
    inv_one = (t * inv, -ex * inv)
    inv_x = (-ex * inv, e1 * inv)
    # m^(pairing(1)) as coefficients over 1^(x)1^, 1^(x)X^, X^(x)1^, X^(x)X^
    m_dual = [e1, ex, ex, e1 * b + ex * a]
    duals = (inv_one, inv_x)
    out = [zero, zero, zero, zero]
    for i, (pi0, pi1) in enumerate(duals):
        for j, (pj0, pj1) in enumerate(duals):
            w = m_dual[2 * i + j]
            if w.is_zero():
                continue
            out[0] = out[0] + w * pi0 * pj0
            out[1] = out[1] + w * pi0 * pj1
            out[2] = out[2] + w * pi1 * pj0
            out[3] = out[3] + w * pi1 * pj1
    return tuple(out)


def tensor_from_k_basis(alg, coeffs):
    """Coordinates in A (x)_O A of the element with K-coefficients over
    (1(x)1, 1(x)X, X(x)1, X(x)X); must be integral."""
    alpha, beta, gamma, delta = coeffs
    mu, one = alg.data.mu, alg.ctx.one
    if not alpha.is_integral():
        raise NotDivisibleError(f"1(x)1 coefficient {alpha} not integral")
    for name, val in (("1(x)X", beta), ("X(x)1", gamma)):
        if not contains_fraction(mu, val, one):
            raise NotDivisibleError(f"{name} coefficient {val} not in mu")
    dprime = delta / alg.data.z.to_field()
    if not dprime.is_integral():
        raise NotDivisibleError(f"X(x)X coefficient {delta} not in z*O")
    coords = []
    for c, odd in ((alpha, 0), (beta, 1), (gamma, 1), (dprime, 0)):
        coords.extend(summand_coords(mu, c, odd))
    return tuple(coords)


def comultiply_one_via_dual(alg):
    """Delta(1) recomputed through the dualized-multiplication diagram."""
    return tensor_from_k_basis(alg, delta_one_by_dualizing_multiplication(alg.data))


# -- edge maps of the cube, on the monomial coordinates of tensor_power --------


def edge_matrix(lattice, kind, n_src, src_pos, tgt_map):
    """The entries of ``AlgebraLattice.edge_entries`` as one SparseMatrix."""
    n_tgt = n_src - 1 if kind == "merge" else n_src + 1
    out = SparseMatrix(2 << n_tgt, 2 << n_src)
    for r, c, e in lattice.edge_entries(kind, n_src, src_pos, tgt_map):
        out.rows[r][c] = e
    return out


def _edge(alg, kind, n_src, src_pos, tgt_map):
    return edge_matrix(alg, kind, n_src, src_pos, tgt_map).to_dense()


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
    t2 = alg.tensor_power(2)
    from quadfrob.intlin import perm_matrix

    raw = perm_matrix(2, 4, [1, 0])
    out = mat_mul(mat_mul(t2.proj, raw), t2.section)
    assert mat_mul(out, t2.proj) == mat_mul(t2.proj, raw)
    return out
