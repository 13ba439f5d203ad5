"""Rank-two Frobenius algebras A = O*1 + mu*X over O = Z[sqrt(d)].

The stored parameters are the rescaled quadruple (a_bar, b_bar, eps_one,
eps_x_bar), all ring elements, with mu*mu = (z):

    X^2   = (a_bar/z) X + (b_bar/z),
    eps(1) = eps_one,   eps(X) = eps_x_bar / z.

Validity means the trace pairing eps(xy) identifies A with its dual lattice
O*1^ + (1/z)mu*X^.  Validation is double-entry: (i) the dual-basis linear
system has a solution (c, d, c', d') with the required memberships, via the
closed forms c*D = eps(X^2), d*D = -eps(X), d'*D = eps(1)/z where
D = eps(1)eps(X^2) - eps(X)^2; (ii) the 4x4 integer matrix of the pairing in
Z-bases is unimodular.  The two routes must always agree.
"""

import itertools

from . import omodule
from .ideals import Ideal, solve_partition_of_z
from .intlin import det_int, mat_vec
from .ring import (
    CheckFailedError,
    NotDivisibleError,
    RingContext,
    RingElement,
    UnsupportedRingError,
    Value,
    _set,
)


class ValidationError(Exception):
    """Input data does not define a valid Frobenius algebra."""


class IntegralityViolationError(ValidationError):
    def __init__(self, cell, message=None):
        self.cell = cell
        super().__init__(message or f"integrality table cell failed: {cell}")


class NonvanishingError(ValidationError):
    """eps(1) = 0 is impossible over a non-principal mu."""


class DegenerateTraceError(ValidationError):
    """The trace pairing determinant vanishes."""


class NotAUnitError(ValidationError):
    pass


class InconsistentRoutesError(CheckFailedError):
    """The two validation routes disagreed; internal invariant breach."""

    check = "validation_routes"


class ClosureError(ValidationError):
    """A product escaped the lattice O*1 + mu*X (possible only for algebras
    built with the relaxed a_bar precondition)."""


class FrobeniusData(Value):
    """Rescaled defining parameters; all derived values are computed views."""

    __slots__ = ("ctx", "mu", "z", "a_bar", "b_bar", "eps_one", "eps_x_bar")

    def __init__(self, ctx, mu, z, a_bar, b_bar, eps_one, eps_x_bar):
        _set(self, "ctx", ctx)
        _set(self, "mu", mu)
        _set(self, "z", z)
        _set(self, "a_bar", a_bar)
        _set(self, "b_bar", b_bar)
        _set(self, "eps_one", eps_one)
        _set(self, "eps_x_bar", eps_x_bar)

    def a(self):
        return self.a_bar.to_field() / self.z.to_field()

    def b(self):
        return self.b_bar.to_field() / self.z.to_field()

    def eps_x(self):
        return self.eps_x_bar.to_field() / self.z.to_field()

    def t_bar(self):
        """t_bar = a_bar*eps_x_bar/z + b_bar*eps(1); must land in O."""
        prod = self.a_bar * self.eps_x_bar
        return prod.exact_div(self.z) + self.b_bar * self.eps_one

    def t(self):
        return self.t_bar().to_field() / self.z.to_field()

    def delta_tilde(self):
        """det of the trace pairing in the K-basis {1, X}."""
        return self.eps_one.to_field() * self.t() - self.eps_x() * self.eps_x()

    def discriminant(self):
        """a_bar^2 + 4*z*b_bar; nonzero iff X^2 - aX - b has distinct roots."""
        return self.a_bar * self.a_bar + self.z * self.b_bar * 4

    def to_json(self):
        g1, g2 = self.mu.two_generators()
        return {
            "d": self.ctx.d,
            "mu_gens": [g1.to_json(), g2.to_json()],
            "z": self.z.to_json(),
            "a_bar": self.a_bar.to_json(),
            "b_bar": self.b_bar.to_json(),
            "eps_one": self.eps_one.to_json(),
            "eps_x_bar": self.eps_x_bar.to_json(),
        }

    @classmethod
    def from_json(cls, obj):
        ctx = RingContext.from_json(obj)
        if not isinstance(obj["mu_gens"], list):
            raise ValueError(f"mu_gens must be a list of ring elements, got {obj['mu_gens']!r}")
        gens = [RingElement.from_json(ctx, g) for g in obj["mu_gens"]]
        return cls(
            ctx=ctx,
            mu=Ideal.from_generators(ctx, gens),
            z=RingElement.from_json(ctx, obj["z"]),
            a_bar=RingElement.from_json(ctx, obj["a_bar"]),
            b_bar=RingElement.from_json(ctx, obj["b_bar"]),
            eps_one=RingElement.from_json(ctx, obj["eps_one"]),
            eps_x_bar=RingElement.from_json(ctx, obj["eps_x_bar"]),
        )


class DualSolution(Value):
    __slots__ = ("c", "d", "c_prime", "d_prime")

    def __init__(self, c, d, c_prime, d_prime):
        _set(self, "c", c)  # in O
        _set(self, "d", d)  # in mu
        _set(self, "c_prime", c_prime)  # in (1/z) mu, a FieldElement
        _set(self, "d_prime", d_prime)  # in O

    def to_json(self):
        return {
            "c": self.c.to_json(),
            "d": self.d.to_json(),
            "c_prime": self.c_prime.to_json(),
            "d_prime": self.d_prime.to_json(),
        }


class AlgebraElement(Value):
    """u0*1 + u1*X; u1 is expected in mu (membership testable, not forced)."""

    __slots__ = ("u0", "u1")

    def __init__(self, u0, u1):
        _set(self, "u0", u0)
        _set(self, "u1", u1)

    def __add__(self, other):
        return AlgebraElement(self.u0 + other.u0, self.u1 + other.u1)

    def __sub__(self, other):
        return AlgebraElement(self.u0 - other.u0, self.u1 - other.u1)

    def __neg__(self):
        return AlgebraElement(-self.u0, -self.u1)

    def scale(self, o):
        """Multiplication by o in O (the O-module structure)."""
        return AlgebraElement(self.u0 * o, self.u1 * o)

    def is_zero(self):
        return self.u0.is_zero() and self.u1.is_zero()

    def __str__(self):
        return f"({self.u0}) + ({self.u1})X"


# ---------------------------------------------------------------------------
# Validation report

class ValidationReport:
    def __init__(self, cells=None, equations=None, values=None, nonvanishing=None,
                 route_dual_solution=False, route_unimodular=False, mu_principal=False,
                 closure_in_mu=True, accepted=False, notes=None):
        self.cells = {} if cells is None else cells
        self.equations = {} if equations is None else equations
        self.values = {} if values is None else values
        self.nonvanishing = {} if nonvanishing is None else nonvanishing
        self.route_dual_solution = route_dual_solution
        self.route_unimodular = route_unimodular
        self.mu_principal = mu_principal
        self.closure_in_mu = closure_in_mu
        self.accepted = accepted
        self.notes = [] if notes is None else notes
        self.failure = None  # the ValidationError of a rejection; not serialized

    def to_json(self):
        return {
            "accepted": self.accepted,
            "cells": dict(self.cells),
            "equations": dict(self.equations),
            "values": dict(self.values),
            "nonvanishing": dict(self.nonvanishing),
            "route_dual_solution": self.route_dual_solution,
            "route_unimodular": self.route_unimodular,
            "mu_principal": self.mu_principal,
            "closure_in_mu": self.closure_in_mu,
            "notes": list(self.notes),
        }


def epsilon_tilde_matrix(data):
    """Matrix of the trace pairing A -> A^ in the Z-bases
    {1, sqrt(d), g1 X, g2 X} and {1^, sqrt(d) 1^, (g1/z) X^, (g2/z) X^}.

    Returns (rows, det); raises NotDivisibleError if the pairing does not
    even map the lattice into the dual lattice.
    """
    ctx = data.ctx
    mu = data.mu
    g1, g2 = mu.two_generators()
    t_bar = data.t_bar()
    basis = (
        (ctx.one, ctx.zero),
        (ctx.sqrt_d, ctx.zero),
        (ctx.zero, g1),
        (ctx.zero, g2),
    )
    cols = []
    for (u0, u1) in basis:
        # alpha = eps(e) in O, beta = z * eps(e X) in mu
        alpha = u0 * data.eps_one + (u1 * data.eps_x_bar).exact_div(data.z)
        beta_z = u0 * data.eps_x_bar + u1 * t_bar
        coords = mu.basis_coords(beta_z) if mu.contains(beta_z) else None
        if coords is None:
            raise NotDivisibleError("pairing image escapes the dual lattice")
        cols.append([alpha.x, alpha.y, coords[0], coords[1]])
    rows = [[cols[j][i] for j in range(4)] for i in range(4)]
    return rows, det_int(rows)


def _dual_closed_forms(data, delta):
    """(c, d, c', d') over K from cD = eps(X^2), dD = -eps(X), d'D = eps(1)/z,
    given D = ``data.delta_tilde()``."""
    t = data.t()
    eps_x = data.eps_x()
    zf = data.z.to_field()
    c = t / delta
    d = -eps_x / delta
    c_prime = d / zf
    d_prime = data.eps_one.to_field() / (zf * delta)
    return c, d, c_prime, d_prime


def raw_system_residuals(data, duals):
    """Residuals of the four defining equations over K; all must be zero.

    c*eps(1) + d*eps(X) - 1,  c*eps(X) + d*t,
    c'*eps(1) + d'*eps(X),    c'*eps(X) + d'*t - 1/z.
    """
    e1 = data.eps_one.to_field()
    ex = data.eps_x()
    t = data.t()
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


def rescaled_equations(data, duals):
    """The four rescaled dual-basis identities, keyed by their report names."""
    e1 = data.eps_one
    exb = data.eps_x_bar
    tb = data.t_bar()
    c, d, dp = duals.c, duals.d, duals.d_prime
    d_exb = d * exb
    eq42 = (d_exb.exact_div(data.z) + c * e1 == data.ctx.one) if data.z.divides(d_exb) else False
    eq43 = c * exb == -(d * tb)
    eq44 = dp * exb == -(d * e1)
    eq45 = (d_exb.exact_div(data.z) + dp * tb == data.ctx.one) if data.z.divides(d_exb) else False
    return {"eq42": eq42, "eq43": eq43, "eq44": eq44, "eq45": eq45}


def eq20_memberships(data):
    """The three fractional-ideal conditions equivalent to dual integrality:
    eps(X^2) in D*O, eps(X) in D*mu, eps(1) in D*z*O."""
    delta = data.delta_tilde()
    t_over = data.t() / delta
    ex_over = data.eps_x() / delta
    e1_over = data.eps_one.to_field() / (delta * data.z.to_field())
    return (
        t_over.is_integral(),
        ex_over.is_integral() and data.mu.contains(ex_over.to_ring()),
        e1_over.is_integral(),
    )


def analyze(data, *, relax_a_bar=False):
    """Full validation; returns (algebra_or_None, report) and never raises
    for data-dependent failures.  A rejection stores its ValidationError as
    ``report.failure``: the first failed cell of the integrality table (but
    ``a_bar_in_mu`` under relax), else eps(1) = 0, else a zero determinant."""
    report = ValidationReport()
    ctx = data.ctx
    if ctx.d > 0:
        raise UnsupportedRingError("algebra construction needs d < 0")
    if data.z.is_zero():
        raise ValueError("z must be nonzero")

    mu = data.mu
    cells = report.cells
    cells["mu_squared_is_principal_z"] = (mu * mu) == Ideal.principal(data.z)
    report.mu_principal = mu.is_principal() is not None
    cells["a_bar_in_mu"] = mu.contains(data.a_bar)
    cells["eps_x_bar_in_mu"] = mu.contains(data.eps_x_bar)
    cells["b_bar_in_O"] = True
    cells["eps_one_in_O"] = True
    report.closure_in_mu = cells["a_bar_in_mu"]
    if relax_a_bar and not cells["a_bar_in_mu"]:
        report.notes.append(
            "a_bar outside mu accepted under the relaxed zero-trace-on-X family;"
            " multiplication is not closed on the lattice"
        )

    def reject(failure=None):
        if failure is None:
            cell = next(c for c, ok in cells.items() if not ok and not (relax_a_bar and c == "a_bar_in_mu"))
            failure = IntegralityViolationError(cell)
        report.failure = failure
        return None, report

    try:
        t_bar = data.t_bar()
        cells["t_bar_in_O"] = True
    except NotDivisibleError:
        cells["t_bar_in_O"] = False
        report.notes.append("a_bar * eps_x_bar is not divisible by z")
        return reject()

    required = ["mu_squared_is_principal_z", "eps_x_bar_in_mu", "t_bar_in_O"]
    if not relax_a_bar:
        required.append("a_bar_in_mu")
    if not all(cells[k] for k in required):
        return reject()

    report.nonvanishing["eps_one"] = not data.eps_one.is_zero()
    if data.eps_one.is_zero() and not report.mu_principal:
        report.notes.append("eps(1) = 0 is impossible when mu is non-principal")
        return reject(NonvanishingError("eps(1) must be nonzero"))

    delta = data.delta_tilde()
    report.values["delta_tilde"] = str(delta)
    report.values["t_bar"] = str(t_bar)
    if delta.is_zero():
        report.notes.append("degenerate trace: pairing determinant is zero")
        # over a principal mu, eps(1) = 0 is named before the degeneracy
        if data.eps_one.is_zero():
            return reject(NonvanishingError("eps(1) must be nonzero"))
        return reject(DegenerateTraceError("pairing determinant is zero"))

    c_k, d_k, cp_k, dp_k = _dual_closed_forms(data, delta)
    cells["c_in_O"] = c_k.is_integral()
    cells["d_in_mu"] = d_k.is_integral() and mu.contains(d_k.to_ring())
    cells["c_prime_in_z_inv_mu"] = mu.contains_fraction(cp_k, data.z)
    cells["d_prime_in_O"] = dp_k.is_integral()
    route1 = all(
        cells[k] for k in ("c_in_O", "d_in_mu", "c_prime_in_z_inv_mu", "d_prime_in_O")
    )
    report.route_dual_solution = route1

    # with the required cells the pairing maps A into its dual lattice:
    # u1 eps_x_bar lies in mu^2 = (z), u0 eps_x_bar + u1 t_bar in mu
    eps_rows, eps_det = epsilon_tilde_matrix(data)
    report.values["epsilon_tilde_det"] = str(eps_det)
    route2 = report.route_unimodular = eps_det in (1, -1)

    if route1 != route2:
        raise InconsistentRoutesError(
            f"dual-solution route says {route1}, unimodularity route says {route2}"
        )
    if not route1:
        return reject()

    duals = DualSolution(
        c=c_k.to_ring(), d=d_k.to_ring(), c_prime=cp_k, d_prime=dp_k.to_ring()
    )
    report.values.update(
        c=str(duals.c), d=str(duals.d), c_prime=str(duals.c_prime), d_prime=str(duals.d_prime)
    )
    report.equations.update(rescaled_equations(data, duals))
    if not all(report.equations.values()):
        raise InconsistentRoutesError("closed-form duals fail the defining equations")

    # consequences of validity over a non-principal mu: none of these vanish
    report.nonvanishing["t_bar"] = not t_bar.is_zero()
    report.nonvanishing["c"] = not duals.c.is_zero()
    report.nonvanishing["d_prime"] = not duals.d_prime.is_zero()
    if not report.mu_principal and not all(report.nonvanishing.values()):
        raise InconsistentRoutesError("nonvanishing consequences failed on accepted data")

    cells["d_eps_one_in_eps_x_bar_O"] = _d_eps_cell(data, duals)
    if not cells["d_eps_one_in_eps_x_bar_O"]:
        raise InconsistentRoutesError("d*eps(1) escaped (eps_x_bar) on accepted data")

    partition = solve_partition_of_z(mu, data.z)
    report.accepted = True
    alg = FrobeniusAlgebra(data, duals, partition, report, eps_rows, eps_det)
    return alg, report


def _d_eps_cell(data, duals):
    prod = duals.d * data.eps_one
    if data.eps_x_bar.is_zero():
        return prod.is_zero()
    return data.eps_x_bar.divides(prod)


def build_algebra(data, *, relax_a_bar=False):
    """Validating constructor; raises the ValidationError that ``analyze``
    recorded as ``report.failure``."""
    alg, report = analyze(data, relax_a_bar=relax_a_bar)
    if alg is None:
        raise report.failure
    return alg


class FrobeniusAlgebra:
    """A validated algebra handle; immutable after construction."""

    def __init__(self, data, duals, partition, report, eps_rows, eps_det):
        self.data = data
        self.ctx = data.ctx
        self.mu = data.mu
        self.duals = duals
        self.partition = partition  # ([g1, g2], [u1', u2'])
        self.report = report
        self.epsilon_tilde = eps_rows
        self.epsilon_tilde_det = eps_det
        # the MuZLattice shared with other algebras; search_solutions sets it
        self._mu_z = None
        self._lattice = None

    # -- elements ----------------------------------------------------------

    def element(self, u0, u1=None):
        if isinstance(u0, int):
            u0 = self.ctx(u0)
        if u1 is None:
            u1 = self.ctx.zero
        elif isinstance(u1, int):
            u1 = self.ctx(u1)
        return AlgebraElement(u0, u1)

    @property
    def one(self):
        return self.element(self.ctx.one)

    # -- structure maps ----------------------------------------------------

    def multiply(self, x, y):
        """(u0 + u1 X)(v0 + v1 X) with u1 v1 X^2 = (u1 v1 / z)(a_bar X + b_bar).

        u1 v1 is always divisible by z when both lie in mu; the result can
        escape mu X only for relaxed a_bar, reported as ClosureError.
        """
        try:
            q = (x.u1 * y.u1).exact_div(self.data.z)
        except NotDivisibleError as exc:
            raise ClosureError(f"product of X-parts not divisible by z: {exc}") from exc
        u0 = x.u0 * y.u0 + q * self.data.b_bar
        u1 = x.u0 * y.u1 + x.u1 * y.u0 + q * self.data.a_bar
        out = AlgebraElement(u0, u1)
        if not self.mu.contains(u1):
            raise ClosureError(f"product {out} escapes the lattice (X-part not in mu)")
        return out

    def trace(self, x):
        """eps(u0 + u1 X) = u0 eps(1) + u1 eps_x_bar / z, always in O."""
        return x.u0 * self.data.eps_one + (x.u1 * self.data.eps_x_bar).exact_div(self.data.z)

    def trace_pairing(self, x, y):
        return self.trace(self.multiply(x, y))

    # -- lattice-backed operations ------------------------------------------

    def lattice(self):
        if self._lattice is None:
            if self._mu_z is None:
                self._mu_z = omodule.MuZLattice(self.mu, self.data.z)
            self._lattice = omodule.AlgebraLattice(self, self._mu_z)
        return self._lattice

    def comultiply_one(self):
        """Delta(1) in the A (x)_O A lattice (closed-form dual route)."""
        return self.lattice().delta_one()

    def comultiply_one_via_dual(self):
        """Delta(1) recomputed through the dualized-multiplication diagram."""
        coeffs = delta_one_by_dualizing_multiplication(self.data)
        return self.lattice().tensor_from_k_basis(coeffs)

    def comultiply(self, x):
        return self.lattice().comultiply(x)

    def _handle_powers(self):
        """Coordinates of h^g(1) for g = 0, 1, 2, ...; h is applied only
        when the next one is asked for."""
        lat = self.lattice()
        v = lat.coords(self.one)
        h = lat.handle_matrix()
        while True:
            yield v
            v = mat_vec(h, v)

    def closed_surface_invariant(self, genus):
        """eps(h^genus(1)) for the handle operator h = m o Delta."""
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        v = next(itertools.islice(self._handle_powers(), genus, None))
        return self.trace(self.lattice().element(v))

    def closed_surface_invariants(self, genus):
        """[eps(h^g(1)) for g = 0..genus], from one running product."""
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        lat = self.lattice()
        return [self.trace(lat.element(v)) for v in itertools.islice(self._handle_powers(), genus + 1)]

    def kernel_m_analysis(self, search_bound=8):
        return self.lattice().kernel_m_analysis(search_bound)

    def __str__(self):
        d = self.data
        return (
            f"A = O + mu X over Z[sqrt({self.ctx.d})], mu={d.mu}, z={d.z}, "
            f"a_bar={d.a_bar}, b_bar={d.b_bar}, eps(1)={d.eps_one}, eps_x_bar={d.eps_x_bar}"
        )


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
    ex = data.eps_x()
    t = data.t()
    a = data.a()
    b = data.b()
    delta = data.delta_tilde()
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


# ---------------------------------------------------------------------------
# Solution families


def family_eps_x_zero(mu, z, a_bar, b_bar, eps_one):
    """The zero-trace-on-X family: b_bar and eps(1) units, a_bar in O.

    Expected duals: c = eps(1)^-1, d = c' = 0, d' = b_bar^-1 eps(1)^-1.
    """
    ctx = z.ctx
    if not b_bar.is_unit():
        raise NotAUnitError(f"b_bar = {b_bar} is not a unit")
    if not eps_one.is_unit():
        raise NotAUnitError(f"eps(1) = {eps_one} is not a unit")
    data = FrobeniusData(ctx, mu, z, a_bar, b_bar, eps_one, ctx.zero)
    alg = build_algebra(data, relax_a_bar=True)
    expected_c = eps_one.unit_inverse()
    expected_dp = b_bar.unit_inverse() * expected_c
    if alg.duals.c != expected_c or not alg.duals.d.is_zero() or alg.duals.d_prime != expected_dp:
        raise InconsistentRoutesError("family duals disagree with the closed forms")
    return alg


def family_eps_x_one(mu, z, a_bar, eps_one, d_underbar):
    """The eps(X) = 1 family (eps_x_bar = z), parametrized by a_bar in mu and
    units eps(1), d_underbar:

        b_bar = eps(1)^-2 (z - a_bar eps(1) - d_underbar^-1),
        c = -d_underbar t_bar,  d = z d_underbar,  d' = -d_underbar eps(1).
    """
    ctx = z.ctx
    if not mu.contains(a_bar):
        raise IntegralityViolationError("a_bar_in_mu", f"a_bar = {a_bar} must lie in mu")
    if not eps_one.is_unit():
        raise NotAUnitError(f"eps(1) = {eps_one} is not a unit")
    if not d_underbar.is_unit():
        raise NotAUnitError(f"d_underbar = {d_underbar} is not a unit")
    e1_inv = eps_one.unit_inverse()
    b_bar = e1_inv * e1_inv * (z - a_bar * eps_one - d_underbar.unit_inverse())
    data = FrobeniusData(ctx, mu, z, a_bar, b_bar, eps_one, z)
    alg = build_algebra(data)
    t_bar = data.t_bar()
    # the scalar identity and the unit identity that define the family
    if b_bar * eps_one * eps_one + a_bar * eps_one - z != -d_underbar.unit_inverse():
        raise InconsistentRoutesError("family defining equation failed")
    if (z - t_bar * eps_one) * d_underbar != ctx.one:
        raise InconsistentRoutesError("family unit identity failed")
    if (
        alg.duals.c != -(d_underbar * t_bar)
        or alg.duals.d != z * d_underbar
        or alg.duals.d_prime != -(d_underbar * eps_one)
    ):
        raise InconsistentRoutesError("family duals disagree with the closed forms")
    return alg


def example_zsqrtm5(s=1, eps_one=1):
    """The worked family over Z[sqrt(-5)] with mu = (2, 1+sqrt(-5)), z = 2,
    a_bar = 1 - sqrt(-5), eps_x_bar = 1 + sqrt(-5), and
    b_bar = eps(1)((sqrt(-5) - s - 2) eps(1) - 3) for s, eps(1) in {+1, -1}.

    eps(X) = (1+sqrt(-5))/2 is neither zero nor a unit nor integral.
    """
    if s not in (1, -1) or eps_one not in (1, -1):
        raise ValueError("s and eps(1) must be +1 or -1")
    ctx = RingContext(-5)
    mu = Ideal.from_generators(ctx, [ctx(2), ctx(1, 1)])
    z = ctx(2)
    a_bar = ctx(1, -1)
    eps_x_bar = ctx(1, 1)
    e1 = ctx(eps_one)
    b_bar = e1 * ((ctx(0, 1) - ctx(s) - ctx(2)) * e1 - ctx(3))
    data = FrobeniusData(ctx, mu, z, a_bar, b_bar, e1, eps_x_bar)
    alg = build_algebra(data)
    t_bar = data.t_bar()
    se = ctx(s)
    if alg.duals.d != se * eps_x_bar or alg.duals.c != -(se * t_bar) or alg.duals.d_prime != -(se * e1):
        raise InconsistentRoutesError("worked example duals disagree with the closed forms")
    return alg


# ---------------------------------------------------------------------------
# Twists


class TwistSpec(Value):
    """kind 1: X -> lambda0 X (param a unit).
    kind 2: X -> X + param/z with param in mu.
    kind 3: eps -> param * eps (param a unit)."""

    __slots__ = ("kind", "param")

    def __init__(self, kind, param):
        _set(self, "kind", kind)
        _set(self, "param", param)


def twist(alg, spec):
    """Applies the change of variables and revalidates from scratch."""
    data = alg.data
    ctx = data.ctx
    p = spec.param
    if spec.kind == 1:
        if not p.is_unit():
            raise NotAUnitError(f"lambda0 = {p} is not a unit")
        new = FrobeniusData(
            ctx, data.mu, data.z,
            p * data.a_bar, p * p * data.b_bar, data.eps_one, p * data.eps_x_bar,
        )
        notes = ["twist: X rescaled by a unit"]
    elif spec.kind == 2:
        if not data.mu.contains(p):
            raise IntegralityViolationError(
                "lambda1_in_z_inv_mu", f"shift parameter {p}/z is not in (1/z)mu"
            )
        # full change of variables X -> X + p/z: beyond the two tabulated
        # updates, the constant term picks up the cross term and the trace
        # of X shifts by (p/z) eps(1)
        try:
            cross = (p * (data.a_bar + p)).exact_div(data.z)
        except NotDivisibleError as exc:
            raise IntegralityViolationError("b_bar_in_O", str(exc)) from exc
        new = FrobeniusData(
            ctx, data.mu, data.z,
            data.a_bar + p * 2,
            data.b_bar - cross,
            data.eps_one,
            data.eps_x_bar + p * data.eps_one,
        )
        notes = [
            "twist: X shifted by lambda1 = p/z; applied the full change of"
            " variables (constant-term cross term and trace shift included)"
        ]
    elif spec.kind == 3:
        if not p.is_unit():
            raise NotAUnitError(f"lambda = {p} is not a unit")
        new = FrobeniusData(
            ctx, data.mu, data.z,
            data.a_bar, data.b_bar, p * data.eps_one, p * data.eps_x_bar,
        )
        notes = ["twist: trace rescaled by a unit"]
    else:
        raise ValueError(f"unknown twist kind {spec.kind}")
    out = build_algebra(new)
    out.report.notes.extend(notes)
    return out


# ---------------------------------------------------------------------------
# Bounded enumeration of further solutions


def search_solutions(mu, z, *, coord_bound=2, limit=None):
    """Enumerates data with eps(1) a unit and d = s * eps_x_bar (s a unit) solving the single
    closing equation, subject to the integrality table; bounded box search.

    Yields validated algebras, at most ``limit`` of them (a negative limit
    or ``coord_bound`` raises ValueError).  Bounds are configuration, not
    semantics: absence within the box proves nothing.  The algebras of one
    call share one ``omodule.MuZLattice`` of (mu, z): their lattices build
    A's tensor powers, and check them, once.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    if coord_bound < 0:
        raise ValueError("bound must be nonnegative")
    if limit == 0:
        return
    ctx = z.ctx
    units = ctx.units()
    mu_z = omodule.MuZLattice(mu, z)
    found = 0
    abars = [ctx.zero] + list(mu.lattice_points(coord_bound))
    exbars = list(mu.lattice_points(coord_bound))
    for s in units:
        s_inv = s.unit_inverse().to_field()
        for eps_x_bar in exbars:
            exf = eps_x_bar.to_field()
            zf = z.to_field()
            for a_bar in abars:
                for e1 in units:
                    e1f = e1.to_field()
                    # b_bar = (eps_x_bar^2/z - a_bar eps_x_bar e1 / z - s^-1) / e1^2
                    num = exf * exf / zf - a_bar.to_field() * exf * e1f / zf - s_inv
                    b_k = num / (e1f * e1f)
                    if not b_k.is_integral():
                        continue
                    data = FrobeniusData(ctx, mu, z, a_bar, b_k.to_ring(), e1, eps_x_bar)
                    alg, report = analyze(data)
                    if alg is None:
                        continue
                    if alg.duals.d != s * eps_x_bar:
                        raise InconsistentRoutesError("search ansatz d = s eps_x_bar failed")
                    alg._mu_z = mu_z
                    yield alg
                    found += 1
                    if limit is not None and found >= limit:
                        return
