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
highest bit; ``summand_coords`` reads them off c.  These are the only
coordinates of A^(x n): ``MuZLattice.tensor_power`` projects the
Z-tensor power onto them, and ``MonomialTensors`` gives the cube's edge maps
on them.
"""

import itertools

from . import intlin
from .intlin import (
    IntSolver,
    SparseMatrix,
    hnf_rows,
    identity,
    kernel_basis,
    kron,
    mat_mul,
    mat_scale,
    mat_vec,
    smith_normal_form,
    snf_diagonal,
    transpose,
)
from .ring import CheckFailedError, NotDivisibleError


class TorsionInTensorError(CheckFailedError):
    """Tensor-over-O quotient had torsion; impossible for projective inputs."""

    check = "tensor_torsion_free"


class DirectSumFailureError(CheckFailedError):
    """ker(m) failed to split as predicted; internal invariant breach."""

    check = "ker_m_splitting"


class NotWellDefinedError(CheckFailedError):
    """A map meant to descend to a quotient or a sublattice does not."""

    check = "well_defined"


class OModule:
    def __init__(self, d, rank, action):
        if rank and mat_mul(action, action) != mat_scale(identity(rank), d):
            raise ValueError("action matrix does not square to d * identity")
        self.d = d
        self.rank = rank
        self.action = action

    def scalar_matrix(self, o):
        """Matrix of multiplication by o = x + y sqrt(d) in O."""
        out = mat_scale(identity(self.rank), o.x)
        if o.y:
            out = intlin.mat_add(out, mat_scale(self.action, o.y))
        return out


class OMorphism:
    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = matrix

    def is_equivariant(self):
        return mat_mul(self.matrix, self.source.action) == mat_mul(
            self.target.action, self.matrix
        )


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
    w = transpose(cols, ncols=k) if cols else []
    diag = snf_diagonal(w) if w else []
    nonzero = [e for e in diag if e]
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


def kernel_module(f):
    """Saturated kernel lattice of an equivariant morphism, with inclusion."""
    rows = kernel_basis(f.matrix, ncols=f.source.rank)
    k = len(rows)
    incl = transpose(rows, ncols=f.source.rank) if rows else [[] for _ in range(f.source.rank)]
    if k == 0:
        return OModule(f.source.d, 0, []), incl
    solver = IntSolver(incl, ncols=k)
    cols = []
    for v in rows:
        jv = mat_vec(f.source.action, v)
        sol = solver.solve(jv)
        if sol is None:
            raise NotWellDefinedError("kernel not stable under the action")
        cols.append(sol)
    action = transpose(cols, ncols=k)
    return OModule(f.source.d, k, action), incl


# ---------------------------------------------------------------------------
# Monomial coordinates of A^(x n)


def summand_coords(mu, c, odd):
    """Z-coordinates of c in K in a summand of A^(x n): over (1, sqrt(d))
    in O for an even circle set, over (g1, g2) in mu for an odd one."""
    if not c.is_integral():
        raise ValueError(f"{c} is not in O: the algebra is not closed")
    r = c.to_ring()
    return mu.basis_coords(r) if odd else (r.x, r.y)


class MonomialTensors:
    """The cube's edge maps on monomial coordinates of A^(x n).

    A term X_S -> kappa X_S' of m or Delta over K becomes the 2x2 block of
    c -> kappa z^(floor(|S|/2) - floor(|S'|/2)) c between the summands.
    Every block, the sqrt(d)-actions ``actions`` too, is a ``MuZLattice.block``.
    """

    def __init__(self, alg):
        ctx = alg.ctx
        data = alg.data
        self.mu_z = alg.lattice().mu_z
        self.z = data.z.to_field()
        zero, one, a, b = ctx.field(0), ctx.field(1), data.a(), data.b()
        duals = alg.duals
        cd = duals.d.to_field()
        # Delta(1) = c 1(x)1 + d (1(x)X + X(x)1) + d' z X(x)X
        delta_one = {
            (0, 0): duals.c.to_field(),
            (0, 1): cd,
            (1, 0): cd,
            (1, 1): duals.d_prime.to_field() * self.z,
        }
        delta_x = {}  # (X (x) 1) Delta(1), with X*X = aX + b
        for (i, j), coeff in delta_one.items():
            for out, k in ([(1, coeff)] if i == 0 else [(1, coeff * a), (0, coeff * b)]):
                delta_x[(out, j)] = delta_x.get((out, j), zero) + k
        terms = {
            "merge": {
                (0, 0): {(0,): one},
                (0, 1): {(1,): one},
                (1, 0): {(1,): one},
                (1, 1): {(1,): a, (0,): b},
            },
            "split": {(0,): delta_one, (1,): delta_x},
        }
        self.terms = {
            kind: {ins: [(outs, k) for outs, k in t.items() if not k.is_zero()] for ins, t in table.items()}
            for kind, table in terms.items()
        }
        self._blocks = {}
        self._edges = {}
        self.actions = self.mu_z.sqrt_d_blocks

    def _block(self, kind, ins, outs, kappa, par):
        key = (kind, ins, outs, par)
        if key not in self._blocks:
            shift = sum(outs) - sum(ins)
            # floor(|S|/2) - floor(|S'|/2) depends only on par = |S| mod 2
            e = -((par + shift) // 2)
            factor = kappa * self.z if e > 0 else kappa / self.z if e < 0 else kappa
            self._blocks[key] = self.mu_z.block(factor, par, (par + shift) % 2)
        return self._blocks[key]

    def edge_entries(self, kind, n_src, src_pos, tgt_map):
        """(row, column, entry) of the map A^(x n_src) -> A^(x n_tgt).

        ``src_pos``: the merged or split source factors; ``tgt_map``: for
        each factor of the intermediate order (untouched factors in source
        order, then the merged/split factors), its position in the target.
        Memoized on this instance per (kind, n_src, src_pos, tgt_map): the
        returned list is shared, so do not mutate it.
        """
        key = (kind, n_src, tuple(src_pos), tuple(tgt_map))
        if key not in self._edges:
            self._edges[key] = list(self._edge_entries(kind, n_src, src_pos, tgt_map))
        return self._edges[key]

    def _edge_entries(self, kind, n_src, src_pos, tgt_map):
        n_tgt = n_src - 1 if kind == "merge" else n_src + 1
        others = [p for p in range(n_src) if p not in src_pos]
        tgt_bits = [1 << (n_tgt - 1 - t) for t in tgt_map]
        new_bits = tgt_bits[len(others):]
        table = self.terms[kind]
        for mask in range(1 << n_src):
            bits = [(mask >> (n_src - 1 - p)) & 1 for p in range(n_src)]
            base = 0
            for o, tb in zip(others, tgt_bits):
                if bits[o]:
                    base |= tb
            ins = tuple(bits[p] for p in src_pos)
            par = bin(mask).count("1") & 1
            for outs, kappa in table[ins]:
                tmask = base
                for bit, tb in zip(outs, new_bits):
                    if bit:
                        tmask |= tb
                block = self._block(kind, ins, outs, kappa, par)
                for i in (0, 1):
                    for j in (0, 1):
                        if block[i][j]:
                            yield 2 * tmask + i, 2 * mask + j, block[i][j]

    def edge_matrix(self, kind, n_src, src_pos, tgt_map):
        """The entries of ``edge_entries`` as one SparseMatrix."""
        n_tgt = n_src - 1 if kind == "merge" else n_src + 1
        out = SparseMatrix(2 << n_tgt, 2 << n_src)
        for r, c, e in self.edge_entries(kind, n_src, src_pos, tgt_map):
            out.rows[r][c] = e
        return out


# ---------------------------------------------------------------------------
# The lattice bundle of a Frobenius algebra


def _outer(x, y):
    out = []
    for xi in x:
        for yj in y:
            out.append(xi * yj)
    return out


class KernelReport:
    def __init__(self, kernel_basis, xu_basis, xhat, direct_sum_verified,
                 action_formulas_verified, generator, iso_to_A, search_bound, notes=None):
        self.kernel_basis = kernel_basis
        self.xu_basis = xu_basis
        self.xhat = xhat
        self.direct_sum_verified = direct_sum_verified
        self.action_formulas_verified = action_formulas_verified
        self.generator = generator  # (u, unit value) when found, else None
        self.iso_to_A = iso_to_A
        self.search_bound = search_bound
        self.notes = [] if notes is None else notes

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
            "notes": list(self.notes),
        }


class MuZLattice:
    """The part of the lattice presentation of A = O 1 + mu X that depends
    only on mu and z: the 2x2 blocks between the summand lattices O and mu
    (``block``), A as a Z-lattice with its sqrt(d)-action, and the tensor
    powers A^(x n) with their projections, sections and actions.

    Every algebra with the same (mu, z) has the same ones, so
    ``search_solutions`` builds one per search and hands it to every
    algebra it yields; any other algebra builds its own.  Tensor powers are
    built, and checked, on first use.
    """

    def __init__(self, mu, z):
        ctx = mu.ctx
        self.ctx = ctx
        self.mu = mu
        self.z = z
        g1, g2 = mu.two_generators()
        self.gens = (g1, g2)
        self._basis = ((ctx.one.to_field(), ctx.sqrt_d.to_field()), (g1.to_field(), g2.to_field()))
        self.sqrt_d_blocks = tuple(self.block(ctx.sqrt_d.to_field(), par, par) for par in (0, 1))
        on_o, on_mu = self.sqrt_d_blocks
        self.A = OModule(ctx.d, 4, [[*row, 0, 0] for row in on_o] + [[0, 0, *row] for row in on_mu])
        self._powers = {1: TensorProduct(self.A, identity(4), identity(4))}

    def block(self, factor, src_par, tgt_par):
        """Matrix of c -> factor * c (factor in K) from the summand lattice of
        parity ``src_par`` (0: O, basis 1, sqrt(d); 1: mu, basis g1, g2) to that of ``tgt_par``."""
        (a, c), (b, d) = (summand_coords(self.mu, e * factor, tgt_par) for e in self._basis[src_par])
        return ((a, b), (c, d))

    def coords(self, elt):
        a, b = self.mu.basis_coords(elt.u1)
        return [elt.u0.x, elt.u0.y, a, b]

    def tensor_power(self, n):
        """A^(x n) in monomial coordinates, projected from the Z-tensor
        power (factor basis 1, sqrt(d), g1 X, g2 X, first factor most
        significant): u_1 X^s_1 (x) ... (x) u_n X^s_n -> prod(u_i) /
        z^floor(|S|/2) in the summand of S = {i : s_i = 1}."""
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
                col[2 * mask:2 * mask + 2] = summand_coords(self.mu, c.to_field(), size % 2)
                cols.append(col)
            proj = transpose(cols)
            solver = IntSolver(proj)
            sols = [solver.solve(e) for e in identity(2 << n)]
            if None in sols:
                raise NotWellDefinedError("projection onto monomial coordinates is not onto")
            section = transpose(sols)
            # sqrt(d) on any one factor must give the same action
            acts = [kron(kron(identity(4 ** i), self.A.action), identity(4 ** (n - 1 - i))) for i in range(n)]
            action = mat_mul(mat_mul(proj, acts[0]), section)
            if any(mat_mul(proj, j) != mat_mul(action, proj) for j in acts):
                raise NotWellDefinedError("tensor action not well defined on monomial coordinates")
            self._powers[n] = TensorProduct(OModule(ctx.d, 2 << n, action), proj, section)
        return self._powers[n]


class AlgebraLattice:
    """Z-lattice presentations of A and its tensor powers, with the
    structure maps as integer matrices on monomial coordinates.

    ``mu_z`` is the MuZLattice of the algebra's mu and z, which may be
    shared with other algebras; everything here that depends on the
    algebra's structure constants is computed once per algebra.
    """

    def __init__(self, alg, mu_z):
        if mu_z.mu != alg.mu or mu_z.z != alg.data.z:
            raise ValueError("the (mu, z) lattice belongs to another mu or z")
        self.alg = alg
        self.mu_z = mu_z
        ctx = alg.ctx
        self.ctx = ctx
        self.mu = alg.mu
        self.gens = mu_z.gens
        self.A = mu_z.A
        g1, g2 = self.gens
        self._basis_elements = (
            alg.element(ctx.one, ctx.zero),
            alg.element(ctx.sqrt_d, ctx.zero),
            alg.element(ctx.zero, g1),
            alg.element(ctx.zero, g2),
        )
        self._products = [None] * 4
        self._m = None
        self._delta1_lift = None
        self._delta = None
        self._handle = None

    # -- coordinates ---------------------------------------------------------

    def coords(self, elt):
        return self.mu_z.coords(elt)

    def element(self, vec):
        g1, g2 = self.gens
        return self.alg.element(self.ctx(vec[0], vec[1]), g1 * vec[2] + g2 * vec[3])

    def tensor_power(self, n):
        """A^(x n) in monomial coordinates; see ``MuZLattice.tensor_power``."""
        return self.mu_z.tensor_power(n)

    def pure2(self, x, y):
        t2 = self.tensor_power(2)
        return mat_vec(t2.proj, _outer(self.coords(x), self.coords(y)))

    def _products_of(self, i):
        """coords(e_i * e_j) for j = 0..3, over the Z-basis e of A; each
        row of the multiplication table is computed once."""
        row = self._products[i]
        if row is None:
            ei = self._basis_elements[i]
            row = self._products[i] = [self.coords(self.alg.multiply(ei, ej)) for ej in self._basis_elements]
        return row

    def left_mult_matrix(self, x):
        """Left multiplication by x on A; columns are coords(x * e_i)."""
        if x in self._basis_elements:
            cols = self._products_of(self._basis_elements.index(x))
        else:
            cols = [self.coords(self.alg.multiply(x, e)) for e in self._basis_elements]
        return transpose(cols, ncols=4)

    def on_quotient_first_factor(self, l_matrix):
        """Descends L (x) id to A (x)_O A."""
        t2 = self.tensor_power(2)
        raw = kron(l_matrix, identity(4))
        out = mat_mul(mat_mul(t2.proj, raw), t2.section)
        if mat_mul(out, t2.proj) != mat_mul(t2.proj, raw):
            raise NotWellDefinedError("first-factor action not well defined on the quotient")
        return out

    # -- structure maps ------------------------------------------------------

    def m_matrix(self):
        """Multiplication A (x)_O A -> A, through the section."""
        if self._m is None:
            m_z = transpose([col for i in range(4) for col in self._products_of(i)], ncols=16)
            t2 = self.tensor_power(2)
            m_quot = mat_mul(m_z, t2.section)
            if mat_mul(m_quot, t2.proj) != m_z:
                raise NotWellDefinedError("multiplication not constant on quotient fibers")
            self._m = m_quot
        return self._m

    def delta_one_lift(self):
        """Integral lift of Delta(1) to the Z-tensor square:
        c 1(x)1 + 1(x)dX + dX(x)1 + d' sum_j u_j X (x) u_j' X."""
        if self._delta1_lift is None:
            alg = self.alg
            duals = alg.duals
            one = alg.one
            c_elt = alg.element(duals.c, self.ctx.zero)
            d_elt = alg.element(self.ctx.zero, duals.d)
            us, ups = alg.partition
            lift = _outer(self.coords(c_elt), self.coords(one))
            lift = [a + b for a, b in zip(lift, _outer(self.coords(one), self.coords(d_elt)))]
            lift = [a + b for a, b in zip(lift, _outer(self.coords(d_elt), self.coords(one)))]
            for uj, ujp in zip(us, ups):
                left = alg.element(self.ctx.zero, duals.d_prime * uj)
                right = alg.element(self.ctx.zero, ujp)
                lift = [a + b for a, b in zip(lift, _outer(self.coords(left), self.coords(right)))]
            self._delta1_lift = lift
        return self._delta1_lift

    def delta_one(self):
        t2 = self.tensor_power(2)
        return TensorElement(t2, mat_vec(t2.proj, self.delta_one_lift()))

    def comultiply(self, x):
        """Delta(x) = (left-mult by x (x) id) applied to Delta(1)."""
        t2 = self.tensor_power(2)
        raw = mat_vec(kron(self.left_mult_matrix(x), identity(4)), self.delta_one_lift())
        return TensorElement(t2, mat_vec(t2.proj, raw))

    def delta_matrix(self):
        if self._delta is None:
            cols = [self.comultiply(e).coords for e in self._basis_elements]
            self._delta = transpose(cols, ncols=8)
        return self._delta

    def handle_matrix(self):
        if self._handle is None:
            self._handle = mat_mul(self.m_matrix(), self.delta_matrix())
        return self._handle

    def tensor_from_k_basis(self, coeffs):
        """Element of A (x)_O A from K-coefficients over
        (1(x)1, 1(x)X, X(x)1, X(x)X); must be integral."""
        alpha, beta, gamma, delta = coeffs
        zf = self.alg.data.z.to_field()
        if not alpha.is_integral():
            raise NotDivisibleError(f"1(x)1 coefficient {alpha} not integral")
        for name, val in (("1(x)X", beta), ("X(x)1", gamma)):
            if not self.mu.contains_fraction(val, self.ctx.one):
                raise NotDivisibleError(f"{name} coefficient {val} not in mu")
        dprime = delta / zf
        if not dprime.is_integral():
            raise NotDivisibleError(f"X(x)X coefficient {delta} not in z*O")
        coords = []
        for c, odd in ((alpha, 0), (beta, 1), (gamma, 1), (dprime, 0)):
            coords.extend(summand_coords(self.mu, c, odd))
        return TensorElement(self.tensor_power(2), coords)

    # -- kernel of multiplication -------------------------------------------

    def x_u(self, u):
        """X_u = uX (x) 1 - 1 (x) uX."""
        ux = self.alg.element(self.ctx.zero, u)
        one = self.alg.one
        return [a - b for a, b in zip(self.pure2(ux, one), self.pure2(one, ux))]

    def x_hat(self):
        """sum_j u_j X (x) u_j' X - (a_bar X (x) 1 + b_bar 1 (x) 1)."""
        alg = self.alg
        us, ups = alg.partition
        out = [0] * self.tensor_power(2).module.rank
        for uj, ujp in zip(us, ups):
            l = alg.element(self.ctx.zero, uj)
            r = alg.element(self.ctx.zero, ujp)
            out = [a + b for a, b in zip(out, self.pure2(l, r))]
        ax = alg.element(self.ctx.zero, alg.data.a_bar)
        b1 = alg.element(alg.data.b_bar, self.ctx.zero)
        one = alg.one
        out = [a - b for a, b in zip(out, self.pure2(ax, one))]
        out = [a - b for a, b in zip(out, self.pure2(b1, one))]
        return out

    def kernel_m_analysis(self, search_bound=8):
        if search_bound < 0:
            raise ValueError("bound must be nonnegative")
        alg = self.alg
        t2 = self.tensor_power(2)
        j2 = t2.module.action
        m = OMorphism(t2.module, self.A, self.m_matrix())
        ker_mod, incl = kernel_module(m)
        ker_rows = transpose(incl, ncols=ker_mod.rank)
        if ker_mod.rank != 4:
            raise DirectSumFailureError(f"ker(m) has Z-rank {ker_mod.rank}, expected 4")
        ker_hnf = hnf_rows(ker_rows)

        g1, g2 = self.gens
        xg1, xg2 = self.x_u(g1), self.x_u(g2)
        xhat = self.x_hat()
        jxhat = mat_vec(j2, xhat)
        span = hnf_rows([xg1, xg2, xhat, jxhat])
        direct_sum = (
            len(span) == 4
            and span == ker_hnf
            and len(hnf_rows([xg1, xg2])) == 2
            and len(hnf_rows([xhat, jxhat])) == 2
        )
        if not direct_sum:
            raise DirectSumFailureError("ker(m) != X_mu + O*Xhat as lattices")

        # the two multiplication-action identities on ker(m)
        z = alg.data.z
        a_bar, b_bar = alg.data.a_bar, alg.data.b_bar
        formulas_ok = True
        lmats = {}
        for u in (g1, g2):
            ux = alg.element(self.ctx.zero, u)
            lmats[u] = self.on_quotient_first_factor(self.left_mult_matrix(ux))
        for u in (g1, g2):
            lhs = mat_vec(lmats[u], xhat)
            coeff = (u * a_bar).exact_div(z)
            scal = t2.module.scalar_matrix(coeff)
            neg_xbu = [-e for e in self.x_u(b_bar * u)]
            rhs = [a + b for a, b in zip(neg_xbu, mat_vec(scal, xhat))]
            formulas_ok = formulas_ok and lhs == rhs
            for up in (g1, g2):
                lhs2 = mat_vec(lmats[u], self.x_u(up))
                coeff2 = (u * up).exact_div(z)
                scal2 = t2.module.scalar_matrix(coeff2)
                rhs2 = mat_vec(scal2, [-e for e in xhat])
                formulas_ok = formulas_ok and lhs2 == rhs2

        generator = None
        iso = False
        notes = []
        for u in itertools.chain([self.ctx.zero], self.mu.lattice_points(search_bound)):
            val = -b_bar + (u * (a_bar + u)).exact_div(z)
            if not val.is_unit():
                continue
            xtilde = [a - b for a, b in zip(xhat, self.x_u(u))]
            orbit = [
                xtilde,
                mat_vec(j2, xtilde),
                mat_vec(lmats[g1], xtilde),
                mat_vec(lmats[g2], xtilde),
            ]
            if hnf_rows(orbit) == ker_hnf:
                generator = (u, val)
                iso = True
                break
            notes.append(f"unit value at u={u} but orbit is a proper sublattice")
        if generator is None:
            notes.append(f"no generator found within coordinate bound {search_bound}")

        return KernelReport(
            kernel_basis=ker_rows,
            xu_basis=[xg1, xg2],
            xhat=xhat,
            direct_sum_verified=direct_sum,
            action_formulas_verified=formulas_ok,
            generator=generator,
            iso_to_A=iso,
            search_bound=search_bound,
            notes=notes,
        )


class TensorElement:
    """Element of a tensor-over-O lattice, held as its coordinates."""

    __slots__ = ("space", "coords")

    def __init__(self, space, coords):
        self.space = space
        self.coords = tuple(coords)

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"TensorElement{self.coords}"
