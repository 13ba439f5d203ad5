"""Cube-of-resolutions chain complexes for planar link diagrams.

PD convention: a crossing is a 4-tuple of arc labels read counterclockwise
from the incoming under-strand; the over-strand joins slots 2 and 4, running
slot 4 -> slot 2 for a positive crossing and slot 2 -> slot 4 for a negative
one.  Signs are supplied explicitly.  The 0-resolution joins (slot1, slot2)
and (slot3, slot4) and the 1-resolution joins (slot1, slot4) and
(slot2, slot3) at every crossing; with these conventions the one-crossing
positive-kink diagram resolves to two circles at 0 and one at 1, so its
complex is 0 -> A(x)A --m--> A -> 0 in cohomological degrees 0, 1.

Chain groups are the monomial presentation of A^(x circles) from
``omodule``, of Z-rank 2^(circles+1), on which merge and split act by the
2x2 integer blocks of the algebra's checked m and Delta
(``omodule.AlgebraLattice.edge_entries``) and sqrt(d) by
``MuZLattice.sqrt_d_rows``.  Differentials are sparse.

Homology is computed once per complex by ``_homology``, the one runner of
its checks: d^2 = 0 and sqrt(d)-equivariance, unit elimination, d^2 = 0 on
what is left and its invariant factors, on sparse rows with the one Euclid
pivot of ``intlin``.  The ranks that check it come from a separate row
echelon (``intlin.sparse_rank``): the free Z-ranks must match the ranks
over Q, and ranks mod p the universal-coefficient count of the torsion.
Over a separable algebra (handle determinant N != 0) the free Z-ranks must
also be twice Lee's degrees, which ``lee_degrees`` reads off the PD code.

Homological degree is |v| - n_minus.
"""

import copy

from .intlin import SparseMatrix, det_int, invariant_factors, reduce_units, sparse_rank
from .ring import CheckFailedError, Value, _prime_factors, _set, json_int, json_key


class MalformedPDError(ValueError):
    pass


class DifferentialSquareNonzeroError(CheckFailedError):
    check = "d_squared"


class EquivarianceError(CheckFailedError):
    check = "equivariance"


class RouteDisagreementError(CheckFailedError):
    """Ranks over Q of the differentials disagree with the free Z-ranks."""

    check = "k_rank_vs_z_rank"


class ModPCheckError(CheckFailedError):
    """Ranks mod p disagree with the universal-coefficient count."""

    check = "mod_p"


class LeeDegreesError(CheckFailedError):
    """Free Z-ranks disagree with twice Lee's degrees over a separable
    algebra."""

    check = "lee_degrees"


class PDCode(Value):
    """Planar diagram: crossings with explicit signs; ``loops`` counts
    crossing-free circles (the 0-crossing unknot is loops=1)."""

    __slots__ = ("crossings", "signs", "loops")

    def __init__(self, crossings, signs, loops=0):
        _set(self, "crossings", crossings)
        _set(self, "signs", signs)
        _set(self, "loops", loops)
        if len(crossings) != len(signs):
            raise MalformedPDError("need one sign per crossing")
        if any(s not in (1, -1) for s in signs):
            raise MalformedPDError("signs must be +1 or -1")
        if loops < 0 or (not crossings and loops < 1):
            raise MalformedPDError("a diagram needs at least one circle")
        ends = {}  # arc -> its two ends (crossing, slot)
        for j, cr in enumerate(crossings):
            if len(cr) != 4:
                raise MalformedPDError(f"crossing {cr} is not a 4-tuple")
            for t, a in enumerate(cr):
                ends.setdefault(a, []).append((j, t))
        bad = [a for a, e in ends.items() if len(e) != 2]
        if bad:
            raise MalformedPDError(f"arcs {bad} do not occur exactly twice")
        self._successor()
        self._check_planar(ends)

    def _check_planar(self, ends):
        """Euler's formula V - E + F = 2, with E = 2V, for every connected
        component of the crossings.  A face is an orbit of the darts
        (crossing, slot): follow the arc at the dart to its other end
        (crossing j, slot t), then leave by slot (t - 1) mod 4."""
        other = {}
        for x, y in ends.values():
            other[x], other[y] = y, x
        comps = _classes(range(len(self.crossings)), [(x[0], y[0]) for x, y in ends.values()])
        faces = _classes(other, [(x, (j, (t - 1) % 4)) for x, (j, t) in other.items()])
        comp_of = {j: i for i, comp in enumerate(comps) for j in comp}
        euler = [-len(comp) for comp in comps]  # V - E = -V, plus one per face
        for face in faces:
            euler[comp_of[face[0][0]]] += 1
        for comp, e in zip(comps, euler):
            if e != 2:
                raise MalformedPDError(f"not planar: V - E + F = {e}, not 2, on the component of crossing {comp[0]}")

    def _successor(self):
        """The next arc along the link after each arc: the under-strand runs
        slot1 -> slot3, the over-strand slot4 -> slot2 when positive and
        slot2 -> slot4 when negative.  Every arc must flow into exactly one
        crossing and out of exactly one."""
        succ = {}
        tails = set()
        for (a, b, c, d), s in zip(self.crossings, self.signs):
            over = (d, b) if s > 0 else (b, d)
            for arc_in, arc_out in ((a, c), over):
                if arc_in in succ:
                    raise MalformedPDError(f"arc {arc_in} flows into two crossings")
                succ[arc_in] = arc_out
            for arc in (c, over[1]):
                if arc in tails:
                    raise MalformedPDError(f"arc {arc} flows out of two crossings")
                tails.add(arc)
        return succ

    @property
    def n_minus(self):
        return sum(1 for s in self.signs if s < 0)

    def _strands(self):
        """The components that pass through crossings, each the list of its
        arcs: the orbits of ``_successor``, as ``_classes`` finds them."""
        succ = self._successor()
        return _classes(succ, succ.items())

    def components(self):
        """Number of link components: the ``_strands``, plus the loops."""
        return len(self._strands()) + self.loops

    def to_json(self):
        return {
            "crossings": [list(c) for c in self.crossings],
            "signs": list(self.signs),
            "loops": self.loops,
        }

    @classmethod
    def from_json(cls, obj):
        """Reads what ``to_json`` writes; arc labels, signs and ``loops``
        must be JSON integers."""
        if not isinstance(obj, dict):
            raise MalformedPDError(f"expected a JSON object, got {obj!r}")
        try:
            crossings, signs = json_key(obj, "crossings"), json_key(obj, "signs")
            if not isinstance(crossings, list) or not all(isinstance(c, list) for c in crossings):
                raise ValueError(f"crossings must be a list of lists, got {crossings!r}")
            if not isinstance(signs, list):
                raise ValueError(f"signs must be a list, got {signs!r}")
            crossings = tuple(tuple(json_int(a) for a in c) for c in crossings)
            signs = tuple(json_int(s) for s in signs)
            loops = json_int(obj.get("loops", 0))
        except ValueError as exc:
            raise MalformedPDError(str(exc)) from None
        return cls(crossings, signs, loops)


LOOP_ARC = "loop"


def _classes(items, pairs):
    """Classes of the equivalence relation on ``items`` that ``pairs``
    generate, by union-find: each a list in the order of ``items``, the
    classes in the order of their first members."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        parent[find(x)] = find(y)
    classes = {}
    for x in parent:
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def _circles_at(pd, vertex):
    """Circles of the resolution ``vertex``, the ``_classes`` of the arcs
    under the joins of each crossing: frozensets of arcs ordered by smallest
    arc label; loop circles come last."""
    joins = []
    for (a, b, c, d), choice in zip(pd.crossings, vertex):
        joins += ((a, b), (c, d)) if choice == 0 else ((a, d), (b, c))
    circles = [frozenset(c) for c in _classes(sorted({a for cr in pd.crossings for a in cr}), joins)]
    circles += [frozenset([(LOOP_ARC, i)]) for i in range(pd.loops)]
    return circles


class ResolutionCube:
    def __init__(self, circles, edges):
        self.circles = circles  # vertex -> list of circle frozensets
        self.edges = edges  # (vertex, crossing index) -> ("merge"/"split", data)

    def circle_count(self, vertex):
        return len(self.circles[vertex])


def _vertices(k):
    return [tuple((n >> i) & 1 for i in range(k)) for n in range(1 << k)]


def resolve(pd):
    """All 2^k resolutions with merge/split tags on the cube edges."""
    k = len(pd.crossings)
    circles = {v: _circles_at(pd, v) for v in _vertices(k)}
    edges = {}
    for v, cv in circles.items():
        for j in range(k):
            if v[j]:
                continue
            w = v[:j] + (1,) + v[j + 1 :]
            cw = circles[w]
            touched = set(pd.crossings[j])
            src = [i for i, c in enumerate(cv) if c & touched]
            tgt = [i for i, c in enumerate(cw) if c & touched]
            if len(src) == 2 and len(tgt) == 1:
                edges[(v, j)] = ("merge", src, tgt)
            elif len(src) == 1 and len(tgt) == 2:
                edges[(v, j)] = ("split", src, tgt)
            else:
                raise MalformedPDError(
                    f"edge {v}->{w} changes circles {len(src)}->{len(tgt)}"
                )
    return ResolutionCube(circles, edges)


class Complex:
    """Cochain complex of free Z-lattices; groups[i] has rank ranks[i] and
    differential diffs[i]: groups[i] -> groups[i+1], a SparseMatrix.  Its
    checks run when its homology is first read (``_homology``)."""

    def __init__(self, min_degree, ranks, diffs, actions=None, notes=None, lee=None):
        self.min_degree = min_degree
        self.ranks = ranks
        self.diffs = diffs  # len(ranks) - 1 SparseMatrix differentials
        self.actions = actions  # sqrt(d)-action per degree, None once simplified
        self.notes = [] if notes is None else notes
        self.lee = lee  # {degree: K-dimension} from lee_degrees when N != 0, else None
        self._homology = None  # cached by _homology(); not compared

    def _key(self):
        return (self.min_degree, self.ranks, self.diffs, self.actions, self.notes, self.lee)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def degrees(self):
        return range(self.min_degree, self.min_degree + len(self.ranks))

    def rank(self, i):
        idx = i - self.min_degree
        if 0 <= idx < len(self.ranks):
            return self.ranks[idx]
        return 0

    def check_d_squared(self):
        """d_(i+1) d_i = 0 for every i, row by row (``_product_rows``):
        the first nonzero row raises."""
        for i in range(len(self.diffs) - 1):
            if any(any(row.values()) for row in _product_rows(self.diffs[i + 1], self.diffs[i])):
                raise DifferentialSquareNonzeroError(f"d^2 != 0 at degree {self.min_degree + i}")

    def check_equivariance(self):
        """d_i A_i = A_(i+1) d_i for every differential, the rows of the
        two products (``_product_rows``) compared pair by pair as they
        form, by subtracting the second from the first in place.  Every
        sqrt(d)-action must first be block-diagonal with 2x2 blocks at
        even offsets, as ``MuZLattice.sqrt_d_rows`` lays it out; an entry
        outside them raises EquivarianceError."""
        if self.actions is None:
            raise ValueError("needs the unsimplified, equivariant complex")
        for i, action in enumerate(self.actions):
            if any(r >> 1 != c >> 1 for r, row in enumerate(action.rows) for c in row):
                raise EquivarianceError(
                    f"sqrt(d)-action at degree {self.min_degree + i} has an entry outside its 2x2 diagonal blocks"
                )
        for i, d in enumerate(self.diffs):
            for left, right in zip(_product_rows(d, self.actions[i]), _product_rows(self.actions[i + 1], d)):
                for j, e in right.items():
                    left[j] = left.get(j, 0) - e
                if any(left.values()):
                    raise EquivarianceError(f"differential from degree {self.min_degree + i} does not commute with sqrt(d)")


def _product_rows(a, b):
    """The rows of the SparseMatrix product a b, one {column: entry} dict
    at a time, which may hold zeros; none is kept, so no product matrix
    is held."""
    inner = b.rows
    for row in a.rows:
        acc = {}
        for k, x in row.items():
            for j, y in inner[k].items():
                acc[j] = acc.get(j, 0) + x * y
        yield acc


def build_complex(pd, alg):
    """Chain groups (+) A^(x circles) per degree |v| - n_minus, with merge
    and split edge maps signed by (-1)^(number of 1s before the flipped
    coordinate).  d^2 = 0 and sqrt(d)-equivariance are verified when the
    complex's homology is first read, before unit elimination.  When the
    algebra's handle determinant N = det(m o Delta) is nonzero, the complex
    carries ``lee_degrees(pd)`` for the ``lee_degrees`` check.

    One pass over the vertices of ``resolve``'s cube, in order, lays out
    the chain groups and their sqrt(d)-actions; one pass over its edges
    fills the differentials."""
    if not alg.report.closure_in_mu:
        raise ValueError("link homology needs a multiplicatively closed algebra")
    cube = resolve(pd)
    k = len(pd.crossings)

    offsets = {}
    ranks = [0] * (k + 1)
    action_rows = [[] for _ in ranks]
    for v in sorted(cube.circles):
        i, n = sum(v), cube.circle_count(v)
        off = offsets[v] = ranks[i]
        rows = alg.mu_z.sqrt_d_rows(n)
        action_rows[i].extend({off + j: e for j, e in row.items()} for row in rows)
        ranks[i] = off + len(rows)
    actions = [SparseMatrix(r, r, rows) for r, rows in zip(ranks, action_rows)]

    diffs = [SparseMatrix(ranks[i + 1], ranks[i]) for i in range(k)]
    for v, j in sorted(cube.edges):  # each row dict then lists its columns in vertex order
        w = v[:j] + (1,) + v[j + 1 :]
        kind, src, tgt = cube.edges[(v, j)]
        # circles are ordered by least arc, so the untouched ones keep their order
        tgt_map = [p for p in range(len(cube.circles[w])) if p not in tgt] + tgt
        sign = -1 if sum(v[:j]) % 2 else 1
        rows, row_off, col_off = diffs[sum(v)].rows, offsets[w], offsets[v]
        for r, c, e in alg.edge_entries(kind, cube.circle_count(v), src, tgt_map):
            rows[row_off + r][col_off + c] = sign * e

    notes = []
    if pd.n_minus:
        notes.append(
            "negative crossings enter through the comultiplication edge,"
            " i.e. the kink complex 0 -> A -> A(x)A -> 0 mirrored from the"
            " positive one"
        )
    lee = lee_degrees(pd) if det_int(alg.handle_matrix()) else None
    return Complex(-pd.n_minus, ranks, diffs, actions, notes, lee)


def lee_degrees(pd):
    """{i: dim H^i} over a separable rank-two Frobenius algebra over a field,
    in closed form (Lee, arXiv:math/0210213, Prop. 4.3; Mackaay, Turner and
    Vaz, arXiv:math/0509692): one generator for each set E of components,
    in degree s(E), the sum of the signs of the crossings whose
    under-strand (slot 1) and over-strand (slot 2) lie on opposite sides of
    E.  Components are the ``PDCode._strands`` plus the loops, which cross
    nothing."""
    strands = pd._strands()
    component = {arc: n for n, arcs in enumerate(strands) for arc in arcs}
    out = {}
    for e in range(1 << (len(strands) + pd.loops)):
        i = sum(s for (a, b, _, _), s in zip(pd.crossings, pd.signs) if (e >> component[a] ^ e >> component[b]) & 1)
        out[i] = out.get(i, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Homology


class HomologyReport:
    def __init__(self, degrees, total_k_dim, notes, checks):
        self.degrees = degrees  # degree -> {"z_rank", "torsion", "k_dim"}
        self.total_k_dim = total_k_dim
        self.notes = notes
        self.checks = checks  # cross-checks that ran and passed

    def to_json(self):
        return {
            "degrees": {
                str(i): {
                    "z_rank": v["z_rank"],
                    "torsion": [str(t) for t in v["torsion"]],
                    "k_dim": v["k_dim"],
                }
                for i, v in sorted(self.degrees.items())
            },
            "total_k_dim": self.total_k_dim,
            "notes": list(self.notes),
            "checks": list(self.checks),
        }


def _homology(cx):
    """The one homology computation of a complex, cached on it: (report,
    remainder); the one place its checks run and are named.  A complex with
    its sqrt(d)-action passes ``d_squared`` and ``equivariance``, and what
    unit elimination leaves ``remainder_d_squared`` before its invariant
    factors are read; the free ranks pass ``k_rank_vs_z_rank`` and, when the
    complex carries Lee's degrees, ``lee_degrees``.  The report holds the
    degrees with their ``k_dim``,
    the notes naming each torsion invariant whose primes ``check_mod_p``
    could not find, and every check that ran, in run order."""
    if cx._homology is None:
        if cx.actions is not None:
            cx.check_d_squared()
            cx.check_equivariance()
        q_ranks = [sparse_rank(d) for d in cx.diffs]
        kept, reduced = reduce_units(cx.diffs, cx.ranks)
        small = Complex(cx.min_degree, [len(s) for s in kept], reduced, notes=list(cx.notes), lee=cx.lee)
        small.check_d_squared()
        table = smith_homology(small)
        for i, q in _dims_from_ranks(cx, q_ranks).items():
            if q != table[i][0]:
                raise RouteDisagreementError(
                    f"degree {i}: ranks over Q give dimension {q}, the Smith form free rank {table[i][0]}"
                )
            if q % 2 and cx.actions is not None:
                raise RouteDisagreementError(f"degree {i}: odd dimension {q} over Q for a complex over O")
        checks = ["d_squared", "equivariance"] if cx.actions is not None else []
        checks += ["remainder_d_squared", "k_rank_vs_z_rank"]
        if cx.lee is not None:
            for i in sorted(table.keys() | cx.lee.keys()):
                free, lee = table.get(i, (0, []))[0], cx.lee.get(i, 0)
                if free != 2 * lee:
                    raise LeeDegreesError(f"degree {i}: free Z-rank {free}, but Lee's degrees give K-dimension {lee}")
            checks.append("lee_degrees")
        checks += [f"mod_{p}" for p in check_mod_p(cx, table)]
        checks += [f"remainder_mod_{p}" for p in check_mod_p(small, table, REMAINDER_PRIMES)]
        degrees, notes = {}, list(cx.notes)
        for i, (free, torsion) in sorted(table.items()):
            if free or torsion:
                degrees[i] = {"z_rank": free, "torsion": list(torsion), "k_dim": free // 2}
            for t in torsion:
                rest = _prime_factors(t)[1]
                if rest > 1:
                    notes.append(f"degree {i}: torsion invariant {t} has the cofactor {rest}, too large to factor;"
                                 " its primes were not checked mod p")
        total_k = sum(free // 2 for free, _ in table.values())
        cx._homology = (HomologyReport(degrees, total_k, notes, checks), small)
    return cx._homology


def _dims_from_ranks(cx, diff_ranks):
    """dim H^i = rank C_i - rank d_i - rank d_(i-1), per degree."""
    out = {}
    for idx, i in enumerate(cx.degrees()):
        r_out = diff_ranks[idx] if idx < len(diff_ranks) else 0
        r_in = diff_ranks[idx - 1] if idx > 0 else 0
        out[i] = cx.ranks[idx] - r_out - r_in
    return out


def smith_homology(cx):
    """Per-degree (free Z-rank, torsion invariants) from the invariant
    factors of each differential's sparse rows: H^i has torsion the non-unit
    ones of d_(i-1).  Meant for the small complex left after elimination."""
    ranks = []
    torsion = []
    for d in cx.diffs:
        nonzero = invariant_factors(d.rows)
        ranks.append(len(nonzero))
        torsion.append([e for e in nonzero if e != 1])
    free = _dims_from_ranks(cx, ranks)
    return {i: (free[i], torsion[idx - 1] if idx > 0 else []) for idx, i in enumerate(cx.degrees())}


# Primes checked on the remainder after elimination, whatever torsion the
# Smith route reports: a summand it dropped entirely adds no prime to the
# default set, but shows here when its order has one of these factors.
REMAINDER_PRIMES = (3, 5, 7, 11, 13)


def check_mod_p(cx, table, primes=None):
    """Universal coefficients over F_p, for the given primes, by default
    p = 2 and each prime dividing a torsion invariant of ``table``: the
    ranks mod p of the differentials of ``cx`` must give
    dim H^i(C (x) F_p) = free_i + t_p(i) + t_p(i+1), where t_p(i) counts the
    invariants of H^i divisible by p.  Returns the primes checked; raises
    ModPCheckError on a mismatch."""
    if primes is None:
        primes = {2}
        for _, torsion in table.values():
            for t in torsion:
                primes.update(_prime_factors(t)[0])
    for p in sorted(primes):
        dims = _dims_from_ranks(cx, [sparse_rank(d, p) for d in cx.diffs])
        for i, dim in dims.items():
            free, torsion = table.get(i, (0, []))
            t_here = sum(1 for t in torsion if t % p == 0)
            t_next = sum(1 for t in table.get(i + 1, (0, []))[1] if t % p == 0)
            if dim != free + t_here + t_next:
                raise ModPCheckError(
                    f"p={p}, degree {i}: dim H(C (x) F_p) = {dim}, but free rank {free}"
                    f" + {t_here} + {t_next} torsion invariants divisible by p"
                )
    return sorted(primes)


def homology_integral(cx):
    """Per-degree abelian-group homology: unit elimination, then the
    invariant factors of the small remainder.  Each call returns a fresh
    copy of the cached report, so no caller can change another's."""
    return copy.deepcopy(_homology(cx)[0])


def homology_over_K(cx):
    """Per-degree dimensions over K: the report's ``k_dim``s, half the free
    Z-ranks, which the ``k_rank_vs_z_rank`` check has matched with the
    dimensions over Q from the ranks of the unsimplified differentials."""
    if cx.actions is None:
        raise ValueError("needs the unsimplified, equivariant complex")
    return {i: v["k_dim"] for i, v in _homology(cx)[0].degrees.items() if v["k_dim"]}


def simplify(cx):
    """The complex left after Gaussian elimination of unit entries; it is
    homotopy equivalent, so homology is unchanged while ranks shrink.  Its
    d^2 = 0 was checked once, where ``_homology`` made it; each call returns
    a fresh copy, so no caller can change another's."""
    return copy.deepcopy(_homology(cx)[1])


# ---------------------------------------------------------------------------
# Experiments


def reidemeister_compare(pd1, pd2, alg):
    """Homology of two diagrams of the same link, degree by degree, read
    off their two homology reports.  README's "Why the reported numbers
    are link invariants" sketches why they agree (not yet reviewed); the
    report only states equality or not."""
    left, right = (homology_integral(build_complex(pd, alg)).to_json() for pd in (pd1, pd2))
    empty = {"z_rank": 0, "torsion": [], "k_dim": 0}
    per = {}
    for i in sorted(left["degrees"].keys() | right["degrees"].keys(), key=int):
        a = left["degrees"].get(i, empty)
        b = right["degrees"].get(i, empty)
        per[i] = {
            "left": a,
            "right": b,
            "integral_equal": a["z_rank"] == b["z_rank"] and a["torsion"] == b["torsion"],
            "k_equal": a["k_dim"] == b["k_dim"],
        }
    return {
        "left": left,
        "right": right,
        "integral_equal": all(v["integral_equal"] for v in per.values()),
        "k_dims_equal": all(v["k_equal"] for v in per.values()),
        "per_degree": per,
        "notes": [],
    }


def lee_check(pd, alg):
    """Total K-dimension against 2^(number of components); meaningful when
    the quadratic X-relation has distinct roots (nonzero discriminant)."""
    disc = alg.data.discriminant()
    cx = build_complex(pd, alg)
    dims = homology_over_K(cx)
    total = sum(dims.values())
    expected = 2 ** pd.components()
    return {
        "discriminant": str(disc),
        "discriminant_nonzero": not disc.is_zero(),
        "total_k_dim": total,
        "expected": expected,
        "matches": total == expected,
        "per_degree": {str(k): v for k, v in sorted(dims.items())},
    }
