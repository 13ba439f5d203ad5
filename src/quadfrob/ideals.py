"""Ideals of O = Z[sqrt(d)] as rank-2 row lattices in Hermite normal form.

The canonical basis is lower-triangular, ((a, 0), (b, c)) with a, c > 0 and
0 <= b < a, in coordinates over {1, sqrt(d)}; equality of ideals is equality
of these matrices.
"""

import itertools
import math

from . import intlin
from .ring import NotDivisibleError, Value, _set


class ZeroIdealError(ValueError):
    """All generators were zero."""


class NotOrderTwoError(ValueError):
    """Ideal is not of order exactly two in the class group."""


class Ideal(Value):
    __slots__ = ("ctx", "rows")

    def __init__(self, ctx, rows):
        _set(self, "ctx", ctx)
        _set(self, "rows", rows)  # ((a, 0), (b, c)) canonical HNF rows

    @classmethod
    def from_generators(cls, ctx, gens):
        """HNF basis of the O-module generated by ``gens``.

        The Z-span of {g, sqrt(d)*g} over all generators is already closed
        under multiplication by O.
        """
        vecs = []
        for g in gens:
            if isinstance(g, int):
                g = ctx(g)
            if g.is_zero():
                continue
            vecs.append([g.x, g.y])
            h = g * ctx.sqrt_d
            vecs.append([h.x, h.y])
        if not vecs:
            raise ZeroIdealError("ideal needs a nonzero generator")
        rows = intlin.hnf_rows_lower(vecs)
        return cls(ctx, tuple(tuple(r) for r in rows))

    @classmethod
    def principal(cls, g):
        return cls.from_generators(g.ctx, [g])

    def __mul__(self, other):
        """Pairwise products of basis vectors span the product ideal."""
        prods = []
        for ra in self.rows:
            ea = self.ctx(*ra)
            for rb in other.rows:
                prods.append(ea * self.ctx(*rb))
        return Ideal.from_generators(self.ctx, prods)

    def _coords(self, elt):
        """Integer coordinates of elt over the HNF basis, by back-substitution
        through the triangular rows, or None when elt is not a member."""
        (a, _), (b, c) = self.rows
        beta, r = divmod(elt.y, c)
        alpha, s = divmod(elt.x - beta * b, a)
        return None if r or s else (alpha, beta)

    def contains(self, elt):
        return self._coords(elt) is not None

    def norm(self):
        """Index [O : a] = |det| of the HNF basis."""
        return abs(self.rows[0][0] * self.rows[1][1])

    def two_generators(self):
        """The HNF rows as ring elements; they always generate."""
        return (self.ctx(*self.rows[0]), self.ctx(*self.rows[1]))

    def basis_coords(self, elt):
        """Integer coordinates of a member over the HNF basis."""
        coords = self._coords(elt)
        if coords is None:
            raise ValueError(f"{elt} not in ideal")
        return coords

    def is_principal(self):
        """A generator with (g) = a, or None.

        Enumerates x + y*sqrt(d) of norm equal to the ideal norm; finite,
        as d < 0, with no probabilistic shortcuts.  A candidate g in a
        generates it: (g) is inside a with the same index N(g) = N(a), so
        (g) = a.
        """
        d = self.ctx.d
        n = self.norm()
        for y in range(0, math.isqrt(n // -d) + 1):
            rem = n + d * y * y  # >= 0, as y^2 <= n // -d
            x = math.isqrt(rem)
            if x * x != rem:
                continue
            for cand in ((x, y), (x, -y)) if y else ((x, 0),):
                g = self.ctx(*cand)
                if self.contains(g):
                    return g
        return None

    def lattice_points(self, bound):
        """Members with max |coordinate| <= bound, in deterministic order of
        increasing box size; excludes zero.  ``bound=None`` walks every box,
        without end."""
        for m in range(bound + 1) if bound is not None else itertools.count():
            for x in range(-m, m + 1):
                for y in range(-m, m + 1):
                    if max(abs(x), abs(y)) != m or (x == 0 and y == 0):
                        continue
                    e = self.ctx(x, y)
                    if self.contains(e):
                        yield e

    def __str__(self):
        g1, g2 = self.two_generators()
        return f"({g1}, {g2})"

    def to_json(self):
        return {"hnf": [[str(e) for e in row] for row in self.rows]}


class ClassOrderTwoCertificate(Value):
    """Witness that mu is non-principal while mu^2 = (z)."""

    __slots__ = ("mu", "z")

    def __init__(self, mu, z):
        _set(self, "mu", mu)
        _set(self, "z", z)


def certify_order_two(mu):
    """Certificate that mu has order exactly two: mu non-principal and
    mu*mu principal with generator z."""
    if mu.is_principal() is not None:
        raise NotOrderTwoError(f"{mu} is principal")
    square = mu * mu
    z = square.is_principal()
    if z is None:
        raise NotOrderTwoError(f"{mu} squared is not principal")
    return ClassOrderTwoCertificate(mu, z)


def solve_partition_of_z(mu, z):
    """Elements u = (g1, g2) generating mu and u' in mu with
    g1*u1' + g2*u2' = z.

    Tries u1' = 0, then the lattice points of mu in increasing box order,
    solving for u2' by exact division; the first hit is returned.  The walk
    always ends: z lies in mu*mu = g1*mu + g2*mu, so z = g1*a + g2*b with a,
    b in mu, and the walk reaches u1' = a at the latest.
    """
    if not (mu * mu == Ideal.principal(z)):
        raise ValueError("need mu * mu = (z)")
    g1, g2 = mu.two_generators()
    for u1p in itertools.chain([mu.ctx.zero], mu.lattice_points(None)):
        rhs = z - g1 * u1p
        try:
            u2p = rhs.exact_div(g2)
        except NotDivisibleError:
            continue
        if mu.contains(u2p):
            return ([g1, g2], [u1p, u2p])
