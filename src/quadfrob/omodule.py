"""Finitely generated O-modules as Z-lattices with a sqrt(d)-action.

A module of Z-rank n is an integer n x n matrix J with J^2 = d*I; morphisms
are integer matrices commuting with the actions.  ``tensor_over_O`` computes
a tensor product over O generically, as the quotient of the tensor product
over Z by (sqrt(d) . ) (x) id - id (x) (sqrt(d) . ), via Smith normal form.

The tensor powers of an algebra A = O 1 + mu X need no quotient.  Since
mu*mu = (z), the factor mu (x)_O mu is O via u (x) v -> uv/z, so

    A^(x n) = (+)_{S subset of the factors} mu^(|S| mod 2) X_S,

with X on the factors in S and 1 elsewhere.  The summand of S holds
c z^floor(|S|/2) X_S for c in O (|S| even; Z-basis 1, sqrt(d)) or c in mu
(|S| odd; Z-basis the HNF generators g1, g2 of mu), so A^(x n) has Z-rank
2^(n+1) (Khovanov, arXiv:math/0411447).  Coordinate 2*S + j is the j-th
Z-basis element of the summand of S, a bit mask with factor 0 as its
highest bit.  These are the only coordinates of A^(x n), and sqrt(d) acts
on the summand of S by the 2x2 block of its parity
(``MuZLattice.sqrt_d_rows``).  The projection of the Z-tensor power onto
them checks that action on every factor; only the tests use it.  On
A (x)_O A, with summands 1(x)1, 1(x)X, X(x)1 and zX(x)X, the algebra's m,
(g_i X .) (x) id and Delta are written in closed form by ring arithmetic in
O (``MultiplicationLattice``, ``AlgebraLattice``) and checked by
associativity and the counit identity, never through the Z-tensor square.
They are the only m and Delta: the cube's edge maps on A^(x n)
(``AlgebraLattice.edge_entries``) are their 2x2 blocks, each
multiplication by one scalar in K between the summands.
"""

import functools
import itertools
import weakref

from . import intlin
from .ideals import Ideal, solve_partition_of_z
from .intlin import (
    IntSolver,
    hnf_rows,
    identity,
    invariant_factors,
    kernel_basis,
    kron,
    mat_mul,
    mat_scale,
    mat_vec,
    smith_normal_form,
    transpose,
)
from .ring import CheckFailedError, ClosureError, NotDivisibleError


class TorsionInTensorError(CheckFailedError):
    """Tensor-over-O quotient had torsion; impossible for projective inputs."""

    check = "tensor_torsion_free"


class DirectSumFailureError(CheckFailedError):
    """ker(m) failed to split as predicted; internal invariant breach."""

    check = "ker_m_splitting"


class NotWellDefinedError(CheckFailedError):
    """A map meant to descend to a quotient or a sublattice does not, a
    closed-form structure map breaks associativity or the counit identity,
    a block of the cube's edge maps is not one scalar of K, or the
    sqrt(d)-action laid out on A^(x n) does not square to d."""

    check = "well_defined"


class OModule:
    def __init__(self, d, rank, action):
        if rank and mat_mul(action, action) != mat_scale(identity(rank), d):
            raise ValueError("action matrix does not square to d * identity")
        self.d = d
        self.rank = rank
        self.action = action


def homology_pair(d_in, d_out, rank_mid):
    """ker(d_out)/im(d_in) for integer matrices d_out: mid -> next and
    d_in: prev -> mid; returns (free rank, torsion invariants)."""
    if d_out is None:
        ker = identity(rank_mid)
    else:
        ker = kernel_basis(d_out, ncols=rank_mid)
    k = len(ker)
    if k == 0:
        return 0, []
    if d_in is None or not d_in or all(not any(row) for row in d_in):
        return k, []
    solver = IntSolver(transpose(ker), ncols=k)
    cols = []
    ncols_in = len(d_in[0])
    for j in range(ncols_in):
        col = [d_in[i][j] for i in range(rank_mid)]
        sol = solver.solve(col)
        if sol is None:
            raise NotWellDefinedError("image does not lie in the kernel; d^2 != 0?")
        cols.append(sol)
    w = transpose(cols, ncols=k)
    nonzero = invariant_factors([{j: e for j, e in enumerate(row) if e} for row in w])
    torsion = [e for e in nonzero if e != 1]
    return k - len(nonzero), torsion


class TensorProduct:
    def __init__(self, module, proj, section):
        self.module = module
        self.proj = proj  # Z-tensor coords -> tensor coords over O
        self.section = section  # tensor coords over O -> Z-tensor coords (proj o section = id)


def tensor_over_O(m, n):
    """M (x)_O N as a quotient of M (x)_Z N by (J_M (x) I) - (I (x) J_N).

    The Smith form U * R * V of the relation matrix R, from the Hermite-form
    engine of ``intlin``, gives the quotient: the rows of U past the rank of
    R project onto it, and the matching columns of U^-1 are a section.  For
    projective inputs the quotient is torsion-free of Z-rank
    rank(M) * rank(N) / 2; torsion raises TorsionInTensorError.
    """
    if m.d != n.d:
        raise ValueError("mixed ground rings")
    mn = m.rank * n.rank
    rel = intlin.mat_add(
        kron(m.action, identity(n.rank)),
        mat_scale(kron(identity(m.rank), n.action), -1),
    )
    diag, u, _, uinv = smith_normal_form(rel)
    r = sum(1 for e in diag if e)
    if any(e not in (0, 1) for e in diag):
        raise TorsionInTensorError(f"invariant factors {diag}")
    proj = [u[i] for i in range(r, mn)]
    section = [[uinv[i][j] for j in range(r, mn)] for i in range(mn)]
    jm_i = kron(m.action, identity(n.rank))
    action = mat_mul(mat_mul(proj, jm_i), section)
    module = OModule(m.d, mn - r, action)
    if mat_mul(proj, jm_i) != mat_mul(action, proj):
        raise NotWellDefinedError("tensor action not well defined on the quotient")
    return TensorProduct(module, proj, section)


# ---------------------------------------------------------------------------
# The lattice bundle of a Frobenius algebra


class KernelReport:
    """The ker(m) analysis at one generator search bound.  A report exists
    only once ker(m) = X_mu + O X_hat and the two multiplication-action
    identities on it have been verified: the analysis raises
    DirectSumFailureError otherwise, so both flags are always True.  Its
    one note, if any, is read off ``generator`` and ``search_bound``."""

    direct_sum_verified = True
    action_formulas_verified = True

    def __init__(self, kernel_basis, xu_basis, xhat, generator, search_bound):
        self.kernel_basis = kernel_basis
        self.xu_basis = xu_basis
        self.xhat = xhat
        self.generator = generator  # (u, unit value) when found, else None
        self.search_bound = search_bound

    @property
    def notes(self):
        return [] if self.iso_to_A else [f"no generator found within coordinate bound {self.search_bound}"]

    @property
    def iso_to_A(self):
        """ker(m) = A as A-modules, certified by the generator found."""
        return self.generator is not None

    def to_json(self):
        gen = None
        if self.generator is not None:
            u, val = self.generator
            gen = {"u": u.to_json(), "eq87": val.to_json()}
        return {
            "kernel_rank": len(self.kernel_basis),
            "kernel_basis": [[str(e) for e in row] for row in self.kernel_basis],
            "xu_basis": [[str(e) for e in row] for row in self.xu_basis],
            "xhat": [str(e) for e in self.xhat],
            "direct_sum_verified": self.direct_sum_verified,
            "action_formulas_verified": self.action_formulas_verified,
            "generator": gen,
            "iso_to_A": self.iso_to_A,
            "search_bound": self.search_bound,
            "notes": self.notes,
        }


_IDENTITY_BLOCK = ((1, 0), (0, 1))


def _bits(mask, n):
    """The n bits of ``mask``, factor 0 (the highest bit) first."""
    return tuple((mask >> (n - 1 - i)) & 1 for i in range(n))


def _from_blocks(nrows, ncols, blocks):
    """The (2 nrows) x (2 ncols) integer matrix with the 2x2 ``blocks``,
    keyed by (block row, block column), and zeros elsewhere."""
    out = [[0] * (2 * ncols) for _ in range(2 * nrows)]
    for (r, c), block in blocks.items():
        for i in (0, 1):
            out[2 * r + i][2 * c:2 * c + 2] = block[i]
    return out


class MuZLattice:
    """The part of A = O 1 + mu X that depends only on mu and z, the first
    of the two shared layers under an algebra: the facts validation reads
    (``squares_to_z``, ``mu_principal``), the partition of z
    (``partition``, read only by the command line, since X_hat's partition
    term is zX (x) X whatever the partition), the closure test of a
    product (``check_closed``), the 2x2 blocks between the summand
    lattices O and mu (``coords_block``, ``flipped_block``), the
    sqrt(d)-action on A^(x n) (``sqrt_d_rows``) and with it A and
    A (x)_O A as Z-lattices (``A``, ``A2``), x (x) y and X_u in the
    coordinates of A (x)_O A (``pure2``, ``x_u``) and the quotients
    q_ij = g_i g_j / z (``x_quotients``).  It holds no algebra, and it is
    where z = 0 is refused, with ValueError, for every caller.

    It also keeps the second layer: one ``MultiplicationLattice`` per
    distinct (a_bar, b_bar) asked for (``multiplication``), held weakly, so
    that the algebras sharing this lattice and a multiplication share m,
    the X-maps and the ker(m) analysis, and a multiplication no algebra
    uses is freed.  What needs the counit is the algebra's own,
    through its base class ``AlgebraLattice``.

    Every algebra with the same (mu, z) has the same ones, so
    ``search_solutions`` builds one per search and validates every candidate
    against it, and ``twist`` hands its algebra's to the twisted one; any
    other algebra builds its own.  The facts are computed, and the actions
    built, on first use; the projections of the Z-tensor powers
    (``tensor_power``) are the tests' oracle and no production path builds
    them.
    """

    def __init__(self, mu, z):
        if z.is_zero():
            raise ValueError("z must be nonzero")
        ctx = mu.ctx
        self.ctx = ctx
        self.mu = mu
        self.z = z
        g1, g2 = mu.two_generators()
        self.gens = (g1, g2)
        # A's Z-basis 1, sqrt(d), g1 X, g2 X as pairs (u0, u1) for u0 + u1 X
        self.elements = ((ctx.one, ctx.zero), (ctx.sqrt_d, ctx.zero), (ctx.zero, g1), (ctx.zero, g2))
        self._ring_basis = ((ctx.one, ctx.sqrt_d), (g1, g2))  # of the summand lattices O and mu
        self.sqrt_d_blocks = tuple(
            self.coords_block([ctx.sqrt_d * e for e in basis], par) for par, basis in enumerate(self._ring_basis)
        )
        self._sqrt_d_rows = {}
        self._powers = {}
        self._multiplications = weakref.WeakValueDictionary()  # (a_bar, b_bar) -> MultiplicationLattice

    @functools.cached_property
    def squares_to_z(self):
        """mu * mu == (z), the first cell of the integrality table."""
        return (self.mu * self.mu) == Ideal.principal(self.z)

    @functools.cached_property
    def mu_principal(self):
        return self.mu.is_principal() is not None

    @functools.cached_property
    def partition(self):
        """``solve_partition_of_z(mu, z)``: ([g1, g2], [u1', u2'])."""
        return solve_partition_of_z(self.mu, self.z)

    @functools.cached_property
    def x_quotients(self):
        """q_ij = g_i g_j / z in O, so that g_i X * g_j X = q_ij (b_bar +
        a_bar X) in every algebra of this (mu, z); exact since mu^2 = (z)."""
        g1, g2 = self.gens
        return [[(u * v).exact_div(self.z) for v in (g1, g2)] for u in (g1, g2)]

    def multiplication(self, a_bar, b_bar):
        """The ``MultiplicationLattice`` of (a_bar, b_bar) over this lattice,
        made on the first request for the pair and kept while an algebra
        holds it."""
        key = (a_bar, b_bar)
        mult = self._multiplications.get(key)
        if mult is None:
            mult = self._multiplications[key] = MultiplicationLattice(self, a_bar, b_bar)
        return mult

    def check_closed(self, u0, u1):
        """ClosureError when the product u0 + u1 X escapes the lattice
        O 1 + mu X, that is when u1 is not in mu."""
        if not self.mu.contains(u1):
            raise ClosureError(f"product ({u0}) + ({u1})X escapes the lattice (X-part not in mu)")

    def _coords_in(self, e, par):
        """Z-coordinates of the ring element e in the summand lattice of
        parity ``par``: over (1, sqrt(d)) in O, or over (g1, g2) in mu."""
        return self.mu.basis_coords(e) if par else (e.x, e.y)

    def coords_block(self, images, tgt_par):
        """The 2x2 block whose columns are the coordinates of the two ring
        elements ``images`` in the summand lattice of parity ``tgt_par``:
        the matrix of a map sending the source basis (1, sqrt(d) in O, or
        g1, g2 in mu) to ``images``."""
        (a, c), (b, d) = (self._coords_in(e, tgt_par) for e in images)
        return ((a, b), (c, d))

    def flipped_block(self, blk, src_par, tgt_par):
        """The block ``blk`` between the summand lattices of parities
        ``src_par`` and ``tgt_par`` with one more factor X outside it.  It
        must be the block of c -> s c with s = v / e0 in K: v in O from its
        first column, e0 = 1 or g1 the first source basis element, so its
        second column is v e1 / e0.  One more X moves floor(|S|/2) -
        floor(|S'|/2) by src_par - tgt_par, so this is the block of
        c -> s z^(src_par - tgt_par) c from parity 1 - src_par to
        1 - tgt_par, by exact division in O.  NotWellDefinedError when it
        is no such block or leaves them."""
        (a, _), (c, _) = blk
        t0, t1 = self._ring_basis[tgt_par]
        v = t0 * a + t1 * c
        e0, e1 = self._ring_basis[src_par]
        num = v * self.z if src_par > tgt_par else v
        den = e0 * self.z if src_par < tgt_par else e0
        try:
            if self.coords_block((v, (v * e1).exact_div(e0)), tgt_par) != blk:
                raise NotWellDefinedError(f"block {blk} is not multiplication by one scalar of K")
            return self.coords_block([(num * f).exact_div(den) for f in self._ring_basis[1 - src_par]], 1 - tgt_par)
        except (ValueError, NotDivisibleError) as exc:
            raise NotWellDefinedError(f"block {blk} leaves the lattice: {exc}") from None

    def pure2(self, x, y):
        """x (x) y in the coordinates of A (x)_O A, for x = (x0, x1) standing
        for x0 + x1 X and y alike: x0 y0, x0 y1, x1 y0 and x1 y1 / z on the
        summands 1(x)1, 1(x)X, X(x)1 and zX(x)X."""
        (x0, x1), (y0, y1) = x, y
        one_one, x_x = x0 * y0, (x1 * y1).exact_div(self.z)
        basis_coords = self.mu.basis_coords
        return [one_one.x, one_one.y, *basis_coords(x0 * y1), *basis_coords(x1 * y0), x_x.x, x_x.y]

    def x_u(self, u):
        """X_u = uX (x) 1 - 1 (x) uX: u on X(x)1 less u on 1(x)X."""
        a, b = self.mu.basis_coords(u)
        return [0, 0, -a, -b, a, b, 0, 0]

    def sqrt_d_rows(self, n):
        """sqrt(d) on the monomial coordinates of A^(x n), one row dict
        {column: entry} per coordinate: ``sqrt_d_blocks[|S| mod 2]`` on the
        summand of S.  The only source of the action: ``A``, ``A2``, the
        cube's chain groups and the projections of the Z-tensor powers read
        it.  Kept per n and shared: do not mutate it."""
        if n not in self._sqrt_d_rows:
            self._sqrt_d_rows[n] = [
                {2 * mask + j: e for j, e in enumerate(brow) if e}
                for mask in range(1 << n)
                for brow in self.sqrt_d_blocks[bin(mask).count("1") & 1]
            ]
        return self._sqrt_d_rows[n]

    def _module(self, n):
        """A^(x n) as an OModule with the action of ``sqrt_d_rows(n)``.
        That action is laid out here, not given, so one that does not
        square to d raises NotWellDefinedError, not OModule's ValueError."""
        size = 2 << n
        try:
            return OModule(self.ctx.d, size, [[row.get(j, 0) for j in range(size)] for row in self.sqrt_d_rows(n)])
        except ValueError as exc:
            raise NotWellDefinedError(f"sqrt(d) laid out on A^(x {n}): {exc}") from None

    @functools.cached_property
    def A(self):
        """A as an OModule on its four coordinates."""
        return self._module(1)

    @functools.cached_property
    def A2(self):
        """A (x)_O A as an OModule on its eight monomial coordinates."""
        return self._module(2)

    def tensor_power(self, n):
        """The projection of the Z-tensor power (factor basis 1, sqrt(d),
        g1 X, g2 X, first factor most significant) onto the monomial
        coordinates of A^(x n): u_1 X^s_1 (x) ... (x) u_n X^s_n -> prod(u_i) /
        z^floor(|S|/2) in the summand of S = {i : s_i = 1}, with a section.
        It checks ``sqrt_d_rows(n)`` against sqrt(d) on every factor,
        proj J_i = J proj.  No production path needs it; the tests keep it
        as their oracle."""
        if n not in self._powers:
            ctx = self.ctx
            g1, g2 = self.gens
            z = self.z
            cols = []
            for factors in itertools.product(((ctx.one, 0), (ctx.sqrt_d, 0), (g1, 1), (g2, 1)), repeat=n):
                prod, mask = ctx.one, 0
                for u, bit in factors:
                    prod, mask = prod * u, 2 * mask + bit
                size = bin(mask).count("1")
                col = [0] * (2 << n)
                c = prod.exact_div(z ** (size // 2)) if size > 1 else prod
                col[2 * mask:2 * mask + 2] = self._coords_in(c, size % 2)
                cols.append(col)
            proj = transpose(cols)
            solver = IntSolver(proj)
            sols = [solver.solve(e) for e in identity(2 << n)]
            if None in sols:
                raise NotWellDefinedError("projection onto monomial coordinates is not onto")
            section = transpose(sols)
            # sqrt(d) on any one factor must give the laid-out action
            module = self._module(n)
            acts = [kron(kron(identity(4 ** i), self.A.action), identity(4 ** (n - 1 - i))) for i in range(n)]
            if any(mat_mul(proj, j) != mat_mul(module.action, proj) for j in acts):
                raise NotWellDefinedError("tensor action not well defined on monomial coordinates")
            self._powers[n] = TensorProduct(module, proj, section)
        return self._powers[n]


class MultiplicationLattice:
    """The part of A = O 1 + mu X that depends on (mu, z, a_bar, b_bar) but
    not on the counit, the second of the two shared layers under an algebra:
    m and the maps (g_i X .) (x) id on A (x)_O A, X_hat, and the ker(m)
    analysis: ker(m) = X_mu + O X_hat, the two action identities and, per
    search bound, the walk for a u with X_hat - X_u generating, decided in O.

    m and the X-maps are written in closed form on the monomial
    coordinates, with ring arithmetic in O and zX^2 = b_bar + a_bar X.
    m copies the coefficients of 1(x)1, 1(x)X and X(x)1 and sends
    c zX(x)X to c (b_bar + a_bar X), after ``MuZLattice.check_closed`` on
    the products q_ij (b_bar + a_bar X).
    (g_i X .) (x) id sends c 1(x)1 to c g_i on X(x)1, g_j 1(x)X to q_ij
    on zX(x)X, g_j X(x)1 to q_ij (b_bar + a_bar X) (x) 1, and c zX(x)X to
    c g_i b_bar on 1(x)X plus c g_i a_bar / z on zX(x)X.  Each X-map must
    pass associativity with first input g_i X, m L_i = (m P_i) m with
    P_i = [pure2(g_i X, e_k)], or NotWellDefinedError is raised.
    X_hat = zX(x)X - a_bar X(x)1 - b_bar 1(x)1 is closed too: the paper's
    partition term sum_j u_j X (x) u_j' X is zX(x)X, as sum_j u_j u_j' = z.

    ``MuZLattice.multiplication`` keeps one per distinct (a_bar, b_bar), so
    the algebras of a search that share the pair, and their twists, share
    it.  Each piece is built, and checked, on first use and then kept; a
    check that raises keeps nothing, so the next call raises again.  The
    matrices returned are shared: do not mutate them.  ``kernel_m_analysis``
    returns a fresh report per call.
    """

    def __init__(self, mu_z, a_bar, b_bar):
        self.mu_z = mu_z
        self.a_bar = a_bar
        self.b_bar = b_bar
        self._m = None
        self._x_maps = None
        self._kernel = None
        self._generators = {}  # search_bound -> (u, val) or None

    @functools.cached_property
    def a_quotients(self):
        """g_i a_bar / z in O for i = 1, 2; exact once a_bar lies in mu."""
        return [(g * self.a_bar).exact_div(self.mu_z.z) for g in self.mu_z.gens]

    def m_matrix(self):
        """Multiplication A (x)_O A -> A in closed form; raises ClosureError
        at the first product q_ij (b_bar + a_bar X), in table order, that
        escapes the lattice."""
        if self._m is None:
            mu_z = self.mu_z
            for row in mu_z.x_quotients:
                for q in row:
                    mu_z.check_closed(q * self.b_bar, q * self.a_bar)
            sqrt_d = mu_z.ctx.sqrt_d
            self._m = _from_blocks(2, 4, {
                (0, 0): _IDENTITY_BLOCK,
                (1, 1): _IDENTITY_BLOCK,
                (1, 2): _IDENTITY_BLOCK,
                (0, 3): mu_z.coords_block((self.b_bar, sqrt_d * self.b_bar), 0),
                (1, 3): mu_z.coords_block((self.a_bar, sqrt_d * self.a_bar), 1),
            })
        return self._m

    def _x_map(self, i):
        """(g_i X .) (x) id on A (x)_O A in closed form, unchecked."""
        mu_z = self.mu_z
        sqrt_d = mu_z.ctx.sqrt_d
        g, w, (q1, q2) = mu_z.gens[i], self.a_quotients[i], mu_z.x_quotients[i]
        gb = g * self.b_bar
        block = mu_z.coords_block
        return _from_blocks(4, 4, {
            (2, 0): block((g, sqrt_d * g), 1),
            (3, 1): block((q1, q2), 0),
            (0, 2): block((q1 * self.b_bar, q2 * self.b_bar), 0),
            (2, 2): block((q1 * self.a_bar, q2 * self.a_bar), 1),
            (1, 3): block((gb, sqrt_d * gb), 1),
            (3, 3): block((w, sqrt_d * w), 0),
        })

    def x_first_factor_maps(self):
        """(g1 X .) (x) id and (g2 X .) (x) id on A (x)_O A, each checked
        against associativity: m L_i = (m P_i) m, where m P_i is left
        multiplication by g_i X on A."""
        if self._x_maps is None:
            mu_z = self.mu_z
            m = self.m_matrix()
            maps = [self._x_map(i) for i in (0, 1)]
            for g, l_map in zip(mu_z.gens, maps):
                p = transpose([mu_z.pure2((mu_z.ctx.zero, g), e) for e in mu_z.elements], ncols=8)
                if mat_mul(m, l_map) != mat_mul(mat_mul(m, p), m):
                    raise NotWellDefinedError(f"({g} X .) (x) id is not associative with m")
            self._x_maps = maps
        return self._x_maps

    def x_hat(self):
        """zX (x) X - a_bar X (x) 1 - b_bar 1 (x) 1.  The paper's
        sum_j u_j X (x) u_j' X over a partition of z is zX (x) X whatever
        the partition, since g1 u1' + g2 u2' = z, so none is solved."""
        a, b = self.mu_z.mu.basis_coords(self.a_bar)
        return [-self.b_bar.x, -self.b_bar.y, 0, 0, -a, -b, 1, 0]

    def _kernel_parts(self):
        """What no search bound changes: ker(m), in Hermite form as
        ``kernel_basis`` returns it, which must have Z-rank 4 and be stable
        under sqrt(d); and X_g1, X_g2 and X_hat, whose span must be ker(m) =
        X_mu + O X_hat and satisfy the two action identities."""
        if self._kernel is None:
            mu_z = self.mu_z
            j2 = mu_z.A2.action
            ker_rows = kernel_basis(self.m_matrix(), ncols=8)
            if len(ker_rows) != 4:
                raise DirectSumFailureError(f"ker(m) has Z-rank {len(ker_rows)}, expected 4")
            # J on ker(m) squares to d because J on A (x)_O A does (A2)
            if hnf_rows([*ker_rows, *(mat_vec(j2, v) for v in ker_rows)]) != ker_rows:
                raise NotWellDefinedError("kernel not stable under the action")

            xus = [mu_z.x_u(g) for g in mu_z.gens]
            xhat = self.x_hat()
            jxhat = mat_vec(j2, xhat)
            span = hnf_rows([*xus, xhat, jxhat])
            # ker(m) has four rows, so equal spans make the four
            # generators independent and the sum direct
            if span != ker_rows:
                raise DirectSumFailureError("ker(m) != X_mu + O*Xhat as lattices")

            # the two multiplication-action identities on ker(m); o in O acts on
            # a vector v of A (x)_O A as o.x v + o.y J v
            for u, lmat, coeff, quotients in zip(
                mu_z.gens, self.x_first_factor_maps(), self.a_quotients, mu_z.x_quotients
            ):
                lhs = mat_vec(lmat, xhat)
                rhs = [coeff.x * a + coeff.y * b - c for a, b, c in zip(xhat, jxhat, mu_z.x_u(self.b_bar * u))]
                if lhs != rhs:
                    raise DirectSumFailureError(f"X_{u} acting on X_hat breaks its identity on ker(m)")
                for xup, q in zip(xus, quotients):
                    rhs2 = [-(q.x * a + q.y * b) for a, b in zip(xhat, jxhat)]
                    if mat_vec(lmat, xup) != rhs2:
                        raise DirectSumFailureError(f"X_{u} acting on X_mu breaks its identity on ker(m)")
            self._kernel = (ker_rows, xus, xhat)
        return self._kernel

    def _generator(self, search_bound):
        """(u, val) for the first u, over u = 0 and mu's lattice points within
        ``search_bound``, with val = -b_bar + u (a_bar + u) / z a unit, else
        None.  Once ``_kernel_parts`` has passed, [ker(m) : A (X_hat - X_u)]
        = |N(val)|: with ker(m) = {X_p + q X_hat} <-> (p, q) in mu + O, the
        checked identities send X_hat - X_u to (-u, 1) and g X times it to
        (-b_bar g, g (a_bar + u) / z), and (p, q) -> (p + u q, q) maps the
        A-span onto val mu + O, of index |N(val)| in mu + O."""
        if search_bound not in self._generators:
            mu_z = self.mu_z
            generator = None
            for u in itertools.chain([mu_z.ctx.zero], mu_z.mu.lattice_points(search_bound)):
                val = -self.b_bar + (u * (self.a_bar + u)).exact_div(mu_z.z)
                if val.is_unit():
                    generator = (u, val)
                    break
            self._generators[search_bound] = generator
        return self._generators[search_bound]

    def kernel_m_analysis(self, search_bound):
        """The ker(m) report with the generator search at ``search_bound``,
        run after ``_kernel_parts`` as ``_generator`` needs; each call
        returns a fresh KernelReport, so no caller can change another's."""
        if search_bound < 0:
            raise ValueError("bound must be nonnegative")
        ker_rows, xus, xhat = self._kernel_parts()
        return KernelReport(
            kernel_basis=[list(row) for row in ker_rows],
            xu_basis=[list(v) for v in xus],
            xhat=list(xhat),
            generator=self._generator(search_bound),
            search_bound=search_bound,
        )


class AlgebraLattice:
    """The Z-lattice side of an algebra A = O 1 + mu X: its structure maps
    as integer matrices on monomial coordinates, and the base class of
    ``frobenius.FrobeniusAlgebra``, which passes in its data, its duals
    and its ``mu_z``.

    It sits on two shared layers.  ``mu_z``, the algebra's MuZLattice
    (checked against its mu and z by ``analyze``), holds what depends only
    on (mu, z).  ``mult``, its MultiplicationLattice of (a_bar, b_bar),
    holds m, the maps (g_i X .) (x) id, X_hat and the ker(m) analysis.
    What needs the counit is here: Delta(1) and Delta, built and checked on
    each read, and eps (x) id, the handle operator and the cube's edge
    blocks, built once per algebra and kept.  O acts on vectors of
    A (x)_O A as x v + y J v.

    Delta(1) = c 1(x)1 + d (1(x)X + X(x)1) + d' zX(x)X is read off the
    duals, and Delta = [Delta(1), J Delta(1), L_1 Delta(1), L_2 Delta(1)]
    over A's basis 1, sqrt(d), g1 X, g2 X.  Both must pass the counit
    identity (eps (x) id) Delta = id, with eps read from the data, not
    from the duals, or NotWellDefinedError is raised.  The cube's edge
    maps (``edge_entries``) are the blocks of the checked m and Delta.
    """

    def __init__(self, data, duals, mu_z):
        self.data = data
        self.duals = duals
        self.mu_z = mu_z
        self.mult = mu_z.multiplication(data.a_bar, data.b_bar)
        self._handle = None
        self._edges = {}

    # -- coordinates ---------------------------------------------------------

    def coords(self, elt):
        """The coordinates of ``elt`` over A's Z-basis 1, sqrt(d), g1 X, g2 X."""
        a, b = self.mu_z.mu.basis_coords(elt.u1)
        return [elt.u0.x, elt.u0.y, a, b]

    def tensor_power(self, n):
        """The projection of the Z-tensor power onto A^(x n), kept on
        ``mu_z``."""
        return self.mu_z.tensor_power(n)

    # -- structure maps ------------------------------------------------------

    @functools.cached_property
    def _counit_first(self):
        """eps (x) id: A (x)_O A -> A, from eps(1) and eps_x_bar: c 1(x)1 ->
        c eps(1), g 1(x)X -> g eps(1) X, g X(x)1 -> g eps_x_bar / z and
        c zX(x)X -> c eps_x_bar X."""
        mu_z = self.mu_z
        data = self.data
        e1, ex = data.eps_one, data.eps_x_bar
        sqrt_d = mu_z.ctx.sqrt_d
        g1, g2 = mu_z.gens
        block = mu_z.coords_block
        return _from_blocks(2, 4, {
            (0, 0): block((e1, sqrt_d * e1), 0),
            (1, 1): block((g1 * e1, g2 * e1), 1),
            (0, 2): block(((g1 * ex).exact_div(data.z), (g2 * ex).exact_div(data.z)), 0),
            (1, 3): block((ex, sqrt_d * ex), 1),
        })

    def _delta_one(self):
        """Delta(1) = c 1(x)1 + d (1(x)X + X(x)1) + d' zX(x)X, read off the
        duals, unchecked."""
        duals = self.duals
        d = self.mu_z.mu.basis_coords(duals.d)
        return [duals.c.x, duals.c.y, *d, *d, duals.d_prime.x, duals.d_prime.y]

    def comultiply_one(self):
        """Delta(1) as a tuple of coordinates of A (x)_O A, checked by the
        counit identity (eps (x) id) Delta(1) = 1."""
        d1 = self._delta_one()
        if mat_vec(self._counit_first, d1) != [1, 0, 0, 0]:
            raise NotWellDefinedError("counit identity (eps (x) id) Delta(1) = 1 fails")
        return tuple(d1)

    def comultiply(self, x):
        """Delta(x) = Delta coords(x), a tuple of coordinates of A (x)_O A."""
        return tuple(mat_vec(self.delta_matrix(), self.coords(x)))

    def delta_matrix(self):
        """Delta on A, column i Delta(e_i) = (e_i . (x) id) Delta(1): Delta(1)
        itself, sqrt(d) on it, and the maps of ``x_first_factor_maps`` on it;
        checked by the counit identity (eps (x) id) Delta = id."""
        d1 = list(self.comultiply_one())
        cols = [d1, mat_vec(self.mu_z.A2.action, d1)]
        cols += [mat_vec(l_map, d1) for l_map in self.mult.x_first_factor_maps()]
        delta = transpose(cols, ncols=8)
        if mat_mul(self._counit_first, delta) != identity(4):
            raise NotWellDefinedError("counit identity (eps (x) id) Delta = id fails")
        return delta

    def handle_matrix(self):
        if self._handle is None:
            self._handle = mat_mul(self.mult.m_matrix(), self.delta_matrix())
        return self._handle

    # -- the cube's edge maps -------------------------------------------------

    @functools.cached_property
    def _edge_blocks(self):
        """(kind, ins, par) -> [(outs, block)]: the nonzero 2x2 blocks of a
        merge (m) or split (Delta) from X^ins to X^outs on a source summand
        of parity ``par``: at par = |ins| mod 2 those of ``m_matrix``, once
        m has passed associativity, and of ``delta_matrix``, past the counit
        identity, at rows 2 mask(outs) and columns 2 mask(ins); at the other
        parity their ``MuZLattice.flipped_block``."""
        self.mult.x_first_factor_maps()
        out = {}
        for kind, matrix, n_in, n_out in (("merge", self.mult.m_matrix(), 2, 1), ("split", self.delta_matrix(), 1, 2)):
            for col, row in itertools.product(range(1 << n_in), range(1 << n_out)):
                blk = tuple(tuple(r[2 * col:2 * col + 2]) for r in matrix[2 * row:2 * row + 2])
                if blk != ((0, 0), (0, 0)):
                    ins, outs = _bits(col, n_in), _bits(row, n_out)
                    p = sum(ins) % 2
                    flipped = self.mu_z.flipped_block(blk, p, sum(outs) % 2)
                    out.setdefault((kind, ins, p), []).append((outs, blk))
                    out.setdefault((kind, ins, 1 - p), []).append((outs, flipped))
        return out

    def edge_entries(self, kind, n_src, src_pos, tgt_map):
        """(row, column, entry) of the cube's map A^(x n_src) -> A^(x n_tgt).

        ``src_pos``: the merged or split source factors; ``tgt_map``: for
        each factor of the intermediate order (untouched factors in source
        order, then the merged/split factors), its position in the target.
        Memoized on this lattice per (kind, n_src, src_pos, tgt_map): the
        returned list is shared, so do not mutate it.
        """
        key = (kind, n_src, tuple(src_pos), tuple(tgt_map))
        if key in self._edges:
            return self._edges[key]
        entries = self._edges[key] = []
        n_tgt = n_src - 1 if kind == "merge" else n_src + 1
        others = [p for p in range(n_src) if p not in src_pos]
        tgt_bits = [1 << (n_tgt - 1 - t) for t in tgt_map]
        new_bits = tgt_bits[len(others):]
        for mask in range(1 << n_src):
            bits = _bits(mask, n_src)
            base = 0
            for o, tb in zip(others, tgt_bits):
                if bits[o]:
                    base |= tb
            ins = tuple(bits[p] for p in src_pos)
            for outs, block in self._edge_blocks.get((kind, ins, bin(mask).count("1") & 1), ()):
                tmask = base
                for bit, tb in zip(outs, new_bits):
                    if bit:
                        tmask |= tb
                for i in (0, 1):
                    for j in (0, 1):
                        if block[i][j]:
                            entries.append((2 * tmask + i, 2 * mask + j, block[i][j]))
        return entries

    # -- kernel of multiplication -------------------------------------------

    def kernel_m_analysis(self, search_bound=8):
        """The ker(m) report of ``MultiplicationLattice.kernel_m_analysis``,
        computed once per (a_bar, b_bar) and search bound on a shared
        ``mu_z``; a fresh report per call."""
        return self.mult.kernel_m_analysis(search_bound)

