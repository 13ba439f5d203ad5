"""Exact linear algebra over Z and Q.

Matrices are plain lists of rows of Python ints; everything is exact,
arbitrary precision, and deterministic.  Empty matrices lose their column
count, so the functions that care take an explicit ``ncols``.  Large sparse
differentials are ``SparseMatrix`` objects, one dict per row.  Unit
elimination and invariant factors share one pivot, a Euclid step; the
ranks over Q and F_p that check them are a separate row echelon.
"""

import heapq
import math
from fractions import Fraction
from itertools import compress


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(nrows, ncols):
    return [[0] * ncols for _ in range(nrows)]


def transpose(a, ncols=None):
    if not a:
        return [[] for _ in range(ncols)] if ncols else []
    return [[row[j] for row in a] for j in range(len(a[0]))]


def mat_mul(a, b):
    n = len(b[0]) if b else 0
    out = [[0] * n for _ in range(len(a))]
    for i, arow in enumerate(a):
        orow = out[i]
        for k, aik in enumerate(arow):
            if aik:
                brow = b[k]
                for j, bkj in enumerate(brow):
                    if bkj:
                        orow[j] += aik * bkj
    return out


def mat_vec(a, v):
    return [sum(aij * vj for aij, vj in zip(row, v) if aij and vj) for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    return [[s * x for x in row] for row in a]


def kron(a, b):
    """Kronecker product; vec(x (x) y)[i*nb+j] = x[i]*y[j] convention."""
    am = len(a)
    an = len(a[0]) if a else 0
    bm = len(b)
    bn = len(b[0]) if b else 0
    out = zeros(am * bm, an * bn)
    for i in range(am):
        for j in range(an):
            aij = a[i][j]
            if aij:
                for k in range(bm):
                    brow = b[k]
                    orow = out[i * bm + k]
                    for l in range(bn):
                        if brow[l]:
                            orow[j * bn + l] = aij * brow[l]
    return out


def xgcd(a, b):
    """Returns (g, s, t) with g = s*a + t*b and g >= 0."""
    s, next_s = 1, 0
    t, next_t = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        s, next_s = next_s, s - q * next_s
        t, next_t = next_t, t - q * next_t
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, s, t = -g, -s, -t
    return g, s, t


# ---------------------------------------------------------------------------
# Hermite normal form (row lattice canonical form)

def hnf_rows(vectors):
    """Canonical basis of the row lattice spanned by ``vectors``.

    Echelon with pivots on the leftmost columns, pivots positive, entries
    above each pivot reduced into [0, pivot).  Two generating sets span the
    same lattice iff their forms are identical.
    """
    rows = [list(r) for r in vectors if any(r)]
    if not rows:
        return []
    n = len(rows[0])
    basis = {}
    for vec in rows:
        v = list(vec)
        while True:
            p = next((j for j, e in enumerate(v) if e), None)
            if p is None:
                break
            if p not in basis:
                basis[p] = v
                break
            w = basis[p]
            a, b = w[p], v[p]
            if b % a == 0:
                q = b // a
                v = [vj - q * wj for vj, wj in zip(v, w)]
            else:
                g, s, t = xgcd(a, b)
                basis[p] = [s * wj + t * vj for wj, vj in zip(w, v)]
                v = [(a // g) * vj - (b // g) * wj for wj, vj in zip(w, v)]
    pivots = sorted(basis)
    for p in pivots:
        if basis[p][p] < 0:
            basis[p] = [-e for e in basis[p]]
    for i, p in enumerate(pivots):
        for p2 in pivots[i + 1:]:
            prow = basis[p2]
            q = basis[p][p2] // prow[p2]
            if q:
                basis[p] = [a - q * b for a, b in zip(basis[p], prow)]
    return [basis[p] for p in pivots]


def hnf_rows_lower(vectors):
    """Row HNF in lower-triangular orientation (rightmost pivots first).

    For a full-rank rank-2 lattice this is the ((a,0),(b,c)) shape with
    a, c > 0 and 0 <= b < a.
    """
    rev = [list(reversed(r)) for r in vectors]
    h = hnf_rows(rev)
    out = [list(reversed(r)) for r in h]
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(a):
    """Returns (diag, U, V, Uinv) with U*A*V diagonal.

    diag has min(m, n) entries, nonnegative, each dividing the next nonzero
    one, zeros last; U, V unimodular; Uinv is the exact inverse of U, read
    off the row Hermite form of [U | I].

    The loop alternates row Hermite forms of [D | U] and of [D^T | V^T]
    until D is diagonal (Kannan and Bachem, SIAM J. Comput. 8, 1979).  It
    ends: a pass can only shrink the top-left pivot, and once its row and
    column are clear the same holds for the block below.  A Hermite form
    drops zero rows and puts rows whose D part is zero last, so the nonzero
    diagonal comes first.  2x2 steps then make it a divisibility chain: with
    g = s*x + t*y, p = x/g and q = y/g,
    [s t; -q p] * diag(x, y) * [1 -tq; 1 sp] = diag(g, xy/g).
    """
    m = len(a)
    n = len(a[0]) if a else 0
    d, rows, cols = a, identity(m), identity(n)
    flipped = False
    while True:
        nd = len(d[0]) if d else 0
        h = hnf_rows([[*r, *s] for r, s in zip(d, rows)])
        d = [row[:nd] for row in h]
        rows = [row[nd:] for row in h]
        if not any(e for i, row in enumerate(d) for j, e in enumerate(row) if i != j):
            break
        d, rows, cols = transpose(d), cols, rows
        flipped = not flipped
    if flipped:
        rows, cols = cols, rows
    diag = [row[i] for i, row in enumerate(d) if any(row)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            x, y = diag[i], diag[j]
            if y % x:
                g, s, t = xgcd(x, y)
                p, q = x // g, y // g
                diag[i], diag[j] = g, x * q
                ri, rj = rows[i], rows[j]
                rows[i] = [s * e + t * f for e, f in zip(ri, rj)]
                rows[j] = [p * f - q * e for e, f in zip(ri, rj)]
                ci, cj = cols[i], cols[j]
                cols[i] = [e + f for e, f in zip(ci, cj)]
                cols[j] = [s * p * f - t * q * e for e, f in zip(ci, cj)]
    uinv = [row[m:] for row in hnf_rows([[*r, *e] for r, e in zip(rows, identity(m))])]
    return diag + [0] * (min(m, n) - len(diag)), rows, transpose(cols), uinv


class IntSolver:
    """Repeated exact solves of A x = b, plus ker(A), via one row Hermite
    form of [A^T | I]; the lattice {(Ax, x)} keeps entries reduced."""

    def __init__(self, a, ncols=None):
        self.m = len(a)
        n = len(a[0]) if a else ncols
        if n is None:
            raise ValueError("ncols required for empty matrix")
        self.n = n
        at = transpose(a, ncols=n)
        ext = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(at)]
        h = hnf_rows(ext)
        self.image_rows = []
        self.kernel_rows = []
        for row in h:
            if any(row[: self.m]):
                self.image_rows.append(row)
            else:
                self.kernel_rows.append(row[self.m:])

    def solve(self, b):
        vec = list(b) + [0] * self.n
        for row in self.image_rows:
            p = next(j for j, e in enumerate(row) if e)
            if vec[p]:
                if vec[p] % row[p]:
                    return None
                q = vec[p] // row[p]
                vec = [v - q * r for v, r in zip(vec, row)]
        if any(vec[: self.m]):
            return None
        return [-v for v in vec[self.m:]]


def kernel_basis(a, ncols=None):
    """Basis rows of {x : A x = 0} over Z, in Hermite form (as ``hnf_rows``
    gives it): the zero-image rows of the form of [A^T | I].  Always a
    saturated lattice."""
    return IntSolver(a, ncols).kernel_rows


def rank_rat(a):
    """Rank over Q by exact fraction Gaussian elimination."""
    if not a or not a[0]:
        return 0
    rows = [[Fraction(x) for x in row] for row in a]
    n = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < n:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = 1 / prow[col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        rank += 1
        col += 1
    return rank


def det_int(a):
    """Signed determinant by fraction-free Bareiss elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def perm_matrix(ndigits, base, order):
    """Permutation of tensor factors on flat (row-major) indices.

    ``order[k]`` is the source factor that lands in target slot k.  Returns
    the 0/1 matrix P with P(x_0 (x) ... ) = x_{order[0]} (x) x_{order[1]} ...
    """
    size = base ** ndigits
    out = zeros(size, size)
    for src in range(size):
        digits = []
        s = src
        for _ in range(ndigits):
            digits.append(s % base)
            s //= base
        digits.reverse()
        tgt = 0
        for k in range(ndigits):
            tgt = tgt * base + digits[order[k]]
        out[tgt][src] = 1
    return out


# ---------------------------------------------------------------------------
# Sparse matrices and elimination


class SparseMatrix:
    """Integer matrix held as one dict {column: nonzero entry} per row.

    Indexing and iteration give dense rows, so a sparse matrix also reads
    like the list-of-rows matrices of the rest of this module; it equals
    only a SparseMatrix (compare ``to_dense()`` with a dense one).
    """

    __slots__ = ("nrows", "ncols", "rows")
    __hash__ = None

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [{} for _ in range(nrows)]

    def to_dense(self):
        out = zeros(self.nrows, self.ncols)
        for orow, row in zip(out, self.rows):
            for j, e in row.items():
                orow[j] = e
        return out

    def nnz(self):
        return sum(len(row) for row in self.rows)

    def __len__(self):
        return self.nrows

    def __getitem__(self, i):
        out = [0] * self.ncols
        for j, e in self.rows[i].items():
            out[j] = e
        return out

    def __iter__(self):
        return (self[i] for i in range(self.nrows))

    def __eq__(self, other):
        if isinstance(other, SparseMatrix):
            return (self.nrows, self.ncols, self.rows) == (other.nrows, other.ncols, other.rows)
        return NotImplemented

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


class _Eliminator:
    """Rows of a sparse integer matrix plus a column index, under pivoting.

    ``pivot(r, c)`` subtracts x // pivot times row r from every other row
    of column c, a unimodular Euclid step (Havas and Majewski, J. Symbolic
    Comput. 24, 1997) that leaves x mod pivot, so a unit pivot gives the
    Gaussian update.  Row r stays; a caller drops it with ``drop_row`` once
    it is alone in its column.

    ``cols[j]`` holds the rows with an entry in column j as the keys of a
    dict (values None): insert and delete are O(1), and for the 2-8 entries
    of a cube's column a dict is smaller than a set, which jumps to four
    times its size at five entries.  Only membership and the number of
    keys are read, so the results do not depend on their order.
    """

    def __init__(self, rows):
        self.rows = {}
        self.cols = cols = {}
        for i, row in enumerate(rows):
            if row:
                self.rows[i] = dict(row)
                for j in row:
                    col = cols.get(j)
                    if col is None:
                        cols[j] = {i: None}
                    else:
                        col[i] = None

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
        cols[c] = col = {r: None}
        for i in touched:
            row = rows[i]
            q, x = divmod(row[c], pv)
            if x:
                row[c] = x
                col[i] = None
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
            del col[i]
            if not col:
                del cols[j]

    def _sub(self, i, row, factor, rest):
        """row i -= factor * rest."""
        cols = self.cols
        for j, e in rest:
            v = row.get(j)
            if v is None:  # a fill-in: j is a column of the pivot row, so cols[j] exists
                row[j] = -factor * e
                cols[j][i] = None
            else:
                v -= factor * e
                if v:
                    row[j] = v
                else:
                    del row[j]
                    col = cols[j]
                    del col[i]
                    if not col:
                        del cols[j]


def sparse_rank(a, modulus=None):
    """Rank of a SparseMatrix over Q, or over F_p for a prime ``modulus``.

    One row echelon: each row is reduced against a basis keyed by the
    highest column of its rows until its own highest column is new, and the
    rank is the size of the basis.  Over F_2 a row is one int, bit j set iff
    entry j is odd, keyed by ``bit_length`` and reduced by XOR.  Over F_p a
    basis row has leading entry 1 and v -= v_c * b mod p.  Over Q the step
    is fraction-free: v -= (v_c // b_c) * b when b_c divides v_c, else
    v = (b_c/g) * v - (v_c/g) * b with g = gcd(b_c, v_c); a row entering
    the basis has its content divided out.  The Z route's ``_Eliminator``
    is not used, so these ranks check it by other arithmetic and code.
    """
    basis = {}
    if modulus == 2:
        for row in a.rows:
            v = 0
            for j, e in row.items():
                if e & 1:
                    v |= 1 << j
            while v:
                b = basis.get(top := v.bit_length())
                if b is None:
                    basis[top] = v
                    break
                v ^= b
        return len(basis)
    p = modulus
    for row in a.rows:
        v = dict(row) if p is None else {j: x for j, e in row.items() if (x := e % p)}
        while v:
            b = basis.get(c := max(v))
            vc = v[c]
            if b is None:
                if p is None:
                    g = math.gcd(*v.values())
                    basis[c] = {j: e // g for j, e in v.items()}
                else:
                    inv = pow(vc, -1, p)
                    basis[c] = {j: e * inv % p for j, e in v.items()}
                break
            bc = b[c]
            if vc % bc:  # over Q only: mod p every b_c is 1
                g = math.gcd(bc, vc)
                s, vc = bc // g, vc // g
                v = {j: s * e for j, e in v.items()}
            else:
                vc //= bc
            # an entry of b outside v gives -vc * e, never 0: v clears only
            # where it had an entry
            for j, e in b.items():
                x = v.get(j, 0) - vc * e
                if p is not None:
                    x %= p
                if x:
                    v[j] = x
                else:
                    del v[j]
    return len(basis)


def invariant_factors(rows):
    """The nonzero Smith invariants of the integer matrix with the given
    rows (dicts {column: entry}), positive, each dividing the next.

    The entry of least |value| (ties: the shortest row) reduces its column
    by Euclid steps, and then, alone in its column, its row by column steps
    that touch no other row.  Once the row is clear, |pivot| splits off.
    Each remainder is smaller than the pivot, so the loop ends.  Pairwise
    gcd/lcm steps make the split-off values a divisibility chain.
    """
    elim = _Eliminator(rows)
    rows, cols = elim.rows, elim.cols
    diag = []
    while rows:
        _, _, r, c = min((abs(e), len(row), i, j) for i, row in rows.items() for j, e in row.items())
        elim.pivot(r, c)
        if len(cols[c]) == 1:
            row = rows[r]
            pv = row[c]
            elim._sub(r, row, 1, [(j, e - e % pv) for j, e in row.items() if j != c])
            if len(row) == 1:
                diag.append(abs(pv))
                elim.drop_row(r)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def reduce_units(diffs, ranks):
    """Gaussian elimination of unit entries in a cochain complex.

    ``diffs[k]`` is the SparseMatrix of C_k -> C_{k+1} and ``ranks[k]`` the
    rank of C_k.  A unit entry (b, a) of d_k splits off the contractible
    summand a -> b: on the rest d_k becomes
    d_k - d_k[:, a] d_k[b, a]^-1 d_k[b, :], row a of d_{k-1} and column b of
    d_{k+1} are dropped, and the complex stays homotopy equivalent
    (Bar-Natan, arXiv:math/0606318, Lemma 4.2).  Units are taken cheapest first by Markowitz cost
    (row length - 1) * (column length - 1), re-costed lazily.

    A pending unit (i, j) of d_k is one int in the heap, the digits of
    (cost, k, i, j) in mixed radix: ``len(diffs)`` for k and ``max(ranks)``
    for i and j.  Every digit after the cost is below its radix, so ints
    compare as the tuples do, and the pops depend only on the tuples, not
    on push order.  Besides the eliminators and the heap, only one byte per
    basis element is kept: 1 while it survives.

    Returns (kept, reduced): the surviving basis indices of each C_k, in
    order, and the differentials between them.
    """
    elims = [_Eliminator(d.rows) for d in diffs]
    live = [bytearray(b"\x01") * r for r in ranks]
    nk, radix = len(diffs), max(ranks, default=0)

    def key(cost, k, i, j):
        return ((cost * nk + k) * radix + i) * radix + j

    heap = [
        key((len(row) - 1) * (len(e.cols[j]) - 1), k, i, j)
        for k, e in enumerate(elims)
        for i, row in e.rows.items()
        for j, v in row.items()
        if v == 1 or v == -1
    ]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    while heap:
        rest, j = divmod(heappop(heap), radix)
        rest, i = divmod(rest, radix)
        cost, k = divmod(rest, nk)
        e = elims[k]
        rows, cols = e.rows, e.cols
        row = rows.get(i)
        if row is None or row.get(j) not in (1, -1):
            continue
        now = (len(row) - 1) * (len(cols[j]) - 1)
        if now > cost:
            heappush(heap, key(now, k, i, j))
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
                        heappush(heap, key((len(trow) - 1) * (len(cols[c]) - 1), k, t, c))
        live[k][j] = 0
        live[k + 1][i] = 0
        if k > 0:
            elims[k - 1].drop_row(j)
        if k + 1 < len(elims):
            elims[k + 1].drop_col(i)
    kept = [list(compress(range(len(m)), m)) for m in live]
    reduced = []
    for k, e in enumerate(elims):
        col_at = {j: n for n, j in enumerate(kept[k])}
        rows = [{col_at[j]: v for j, v in e.rows.get(i, {}).items()} for i in kept[k + 1]]
        reduced.append(SparseMatrix(len(kept[k + 1]), len(kept[k]), rows))
    return kept, reduced
