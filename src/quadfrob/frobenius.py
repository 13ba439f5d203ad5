"""Rank-two Frobenius algebras A = O*1 + mu*X over O = Z[sqrt(d)].

The stored parameters are the rescaled quadruple (a_bar, b_bar, eps_one,
eps_x_bar), all ring elements, with mu*mu = (z):

    X^2   = (a_bar/z) X + (b_bar/z),
    eps(1) = eps_one,   eps(X) = eps_x_bar / z.

Validity means the trace pairing eps(xy) identifies A with its dual lattice
O*1^ + (1/z)mu*X^.  Validation is double-entry: (i) the dual-basis linear
system has a solution (c, d, c', d') with the required memberships, via the
closed forms c*D = eps(X^2), d*D = -eps(X), d'*D = eps(1)/z where
D = eps(1)eps(X^2) - eps(X)^2, solved in O by exact division by
D_bar = z^2 D = eps(1) t_bar z - eps_x_bar^2; (ii) the 4x4 integer matrix of
the pairing in Z-bases is unimodular.  The two routes must always agree.
"""

from . import omodule
from .ideals import Ideal
from .intlin import det_int, mat_vec
from .ring import (
    CheckFailedError,
    NotDivisibleError,
    RingContext,
    RingElement,
    ValidationError,
    Value,
    _set,
    json_key,
)


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


class FrobeniusData(Value):
    """Rescaled defining parameters, all in O; t_bar is derived from them.
    Validation works in O throughout (``analyze``)."""

    __slots__ = ("ctx", "mu", "z", "a_bar", "b_bar", "eps_one", "eps_x_bar")

    def __init__(self, ctx, mu, z, a_bar, b_bar, eps_one, eps_x_bar):
        _set(self, "ctx", ctx)
        _set(self, "mu", mu)
        _set(self, "z", z)
        _set(self, "a_bar", a_bar)
        _set(self, "b_bar", b_bar)
        _set(self, "eps_one", eps_one)
        _set(self, "eps_x_bar", eps_x_bar)

    def t_bar(self):
        """t_bar = a_bar*eps_x_bar/z + b_bar*eps(1); must land in O."""
        prod = self.a_bar * self.eps_x_bar
        return prod.exact_div(self.z) + self.b_bar * self.eps_one

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
        mu_gens = json_key(obj, "mu_gens")
        if not isinstance(mu_gens, list):
            raise ValueError(f"mu_gens must be a list of ring elements, got {mu_gens!r}")
        gens = [RingElement.from_json(ctx, g) for g in mu_gens]
        return cls(
            ctx=ctx,
            mu=Ideal.from_generators(ctx, gens),
            z=RingElement.from_json(ctx, json_key(obj, "z")),
            a_bar=RingElement.from_json(ctx, json_key(obj, "a_bar")),
            b_bar=RingElement.from_json(ctx, json_key(obj, "b_bar")),
            eps_one=RingElement.from_json(ctx, json_key(obj, "eps_one")),
            eps_x_bar=RingElement.from_json(ctx, json_key(obj, "eps_x_bar")),
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


# ---------------------------------------------------------------------------
# Validation report

class ValidationReport:
    def __init__(self):
        self.cells = {}
        self.equations = {}
        self.values = {}
        self.nonvanishing = {}
        self.route_dual_solution = False
        self.route_unimodular = False
        self.mu_principal = False
        self.closure_in_mu = True
        self.accepted = False
        self.notes = []
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


def epsilon_tilde_matrix(data, t_bar, mu_z):
    """Matrix of the trace pairing A -> A^ in the Z-bases
    {1, sqrt(d), g1 X, g2 X} (``mu_z.elements``, of the data's mu and z)
    and {1^, sqrt(d) 1^, (g1/z) X^, (g2/z) X^}; ``t_bar`` is
    ``data.t_bar()``.

    Returns (rows, det); raises NotDivisibleError if the pairing does not
    even map the lattice into the dual lattice.
    """
    mu = data.mu
    cols = []
    for (u0, u1) in mu_z.elements:
        # alpha = eps(e) in O, beta = z * eps(e X) in mu
        alpha = u0 * data.eps_one + (u1 * data.eps_x_bar).exact_div(data.z)
        beta_z = u0 * data.eps_x_bar + u1 * t_bar
        try:
            coords = mu.basis_coords(beta_z)
        except ValueError:
            raise NotDivisibleError("pairing image escapes the dual lattice") from None
        cols.append([alpha.x, alpha.y, coords[0], coords[1]])
    rows = [[cols[j][i] for j in range(4)] for i in range(4)]
    return rows, det_int(rows)


def _quotient(num, den):
    """num / den in O, or None when den does not divide num."""
    try:
        return num.exact_div(den)
    except NotDivisibleError:
        return None


def rescaled_equations(data, duals, t_bar):
    """The four rescaled dual-basis identities, keyed by their report names;
    ``t_bar`` is ``data.t_bar()``."""
    e1 = data.eps_one
    exb = data.eps_x_bar
    c, d, dp = duals.c, duals.d, duals.d_prime
    d_exb = d * exb
    d_ex = _quotient(d_exb, data.z)  # d eps(X), or None outside O
    eq42 = d_ex is not None and d_ex + c * e1 == data.ctx.one
    eq43 = c * exb == -(d * t_bar)
    eq44 = dp * exb == -(d * e1)
    eq45 = d_ex is not None and d_ex + dp * t_bar == data.ctx.one
    return {"eq42": eq42, "eq43": eq43, "eq44": eq44, "eq45": eq45}


def analyze(data, *, relax_a_bar=False, mu_z=None):
    """Full validation; returns (algebra_or_None, report) and never raises
    for data-dependent failures.  A rejection stores its ValidationError as
    ``report.failure``: the first failed cell of the integrality table (but
    ``a_bar_in_mu`` under relax), else eps(1) = 0, else a zero determinant.

    ``mu_z`` is an ``omodule.MuZLattice`` of the data's mu and z, whose
    (mu, z) facts are computed once for all the algebras that share it; by
    default the algebra gets its own.  This is the one place a lattice made
    elsewhere enters an algebra, so it is checked here against mu and z."""
    report = ValidationReport()
    z = data.z
    mu = data.mu
    if mu_z is None:
        mu_z = omodule.MuZLattice(mu, z)
    elif mu_z.mu != mu or mu_z.z != z:
        raise ValueError("the (mu, z) lattice belongs to another mu or z")
    cells = report.cells
    cells["mu_squared_is_principal_z"] = mu_z.squares_to_z
    report.mu_principal = mu_z.mu_principal
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

    # the closed forms over K times z^2: c = t_bar z / D_bar, d = -eps_x_bar z
    # / D_bar, d' = eps(1) z / D_bar with D_bar = z^2 delta~, all in O or failed
    delta_bar = data.eps_one * t_bar * z - data.eps_x_bar * data.eps_x_bar
    report.values["delta_tilde"] = str(delta_bar.field_quotient(z * z))
    report.values["t_bar"] = str(t_bar)
    if delta_bar.is_zero():
        report.notes.append("degenerate trace: pairing determinant is zero")
        # over a principal mu, eps(1) = 0 is named before the degeneracy
        if data.eps_one.is_zero():
            return reject(NonvanishingError("eps(1) must be nonzero"))
        return reject(DegenerateTraceError("pairing determinant is zero"))

    c, d, d_prime = (_quotient(num * z, delta_bar) for num in (t_bar, -data.eps_x_bar, data.eps_one))
    cells["c_in_O"] = c is not None
    cells["d_in_mu"] = d is not None and mu.contains(d)
    # c' = d / z lies in (1/z) mu exactly when d lies in mu
    cells["c_prime_in_z_inv_mu"] = cells["d_in_mu"]
    cells["d_prime_in_O"] = d_prime is not None
    route1 = all(
        cells[k] for k in ("c_in_O", "d_in_mu", "c_prime_in_z_inv_mu", "d_prime_in_O")
    )
    report.route_dual_solution = route1

    # with the required cells the pairing maps A into its dual lattice:
    # u1 eps_x_bar lies in mu^2 = (z), u0 eps_x_bar + u1 t_bar in mu
    eps_rows, eps_det = epsilon_tilde_matrix(data, t_bar, mu_z)
    report.values["epsilon_tilde_det"] = str(eps_det)
    route2 = report.route_unimodular = eps_det in (1, -1)

    if route1 != route2:
        raise InconsistentRoutesError(
            f"dual-solution route says {route1}, unimodularity route says {route2}"
        )
    if not route1:
        return reject()

    duals = DualSolution(c=c, d=d, c_prime=d.field_quotient(z), d_prime=d_prime)
    report.values.update(
        c=str(duals.c), d=str(duals.d), c_prime=str(duals.c_prime), d_prime=str(duals.d_prime)
    )
    report.equations.update(rescaled_equations(data, duals, t_bar))
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

    report.accepted = True
    return FrobeniusAlgebra(data, duals, report, eps_rows, eps_det, mu_z), report


def _d_eps_cell(data, duals):
    prod = duals.d * data.eps_one
    if data.eps_x_bar.is_zero():
        return prod.is_zero()
    return data.eps_x_bar.divides(prod)


def build_algebra(data, *, relax_a_bar=False, mu_z=None):
    """Validating constructor; raises the ValidationError that ``analyze``
    recorded as ``report.failure``."""
    alg, report = analyze(data, relax_a_bar=relax_a_bar, mu_z=mu_z)
    if alg is None:
        raise report.failure
    return alg


class FrobeniusAlgebra(omodule.AlgebraLattice):
    """A validated algebra; immutable after construction.  It is its own
    ``omodule.AlgebraLattice``, so the structure maps (``comultiply_one``,
    ``comultiply``, ``delta_matrix``, ``handle_matrix``, ``edge_entries``,
    ``kernel_m_analysis``) are its methods."""

    def __init__(self, data, duals, report, eps_rows, eps_det, mu_z):
        super().__init__(data, duals, mu_z)  # mu_z: the MuZLattice of (mu, z), maybe shared
        self.ctx = data.ctx
        self.report = report
        self.epsilon_tilde = eps_rows
        self.epsilon_tilde_det = eps_det
        self._handle_powers = []  # coordinates of h^g(1) for g = 0, 1, ...

    # -- elements ----------------------------------------------------------

    def element(self, u0, u1=None):
        if isinstance(u0, int):
            u0 = self.ctx(u0)
        if u1 is None:
            u1 = self.ctx.zero
        elif isinstance(u1, int):
            u1 = self.ctx(u1)
        return AlgebraElement(u0, u1)

    def _from_coords(self, vec):
        """The element with coordinates ``vec`` over A's Z-basis 1,
        sqrt(d), g1 X, g2 X."""
        g1, g2 = self.mu_z.gens
        return AlgebraElement(self.ctx(vec[0], vec[1]), g1 * vec[2] + g2 * vec[3])

    @property
    def one(self):
        return self.element(self.ctx.one)

    # -- structure maps ----------------------------------------------------

    def trace(self, x):
        """eps(u0 + u1 X) = u0 eps(1) + u1 eps_x_bar / z, always in O."""
        return x.u0 * self.data.eps_one + (x.u1 * self.data.eps_x_bar).exact_div(self.data.z)

    # -- closed surfaces ---------------------------------------------------

    def _handle_powers_to(self, genus):
        """Coordinates of h^g(1) for g = 0..genus.  Every power found is
        kept, so h is applied once per genus over the algebra's life."""
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        powers = self._handle_powers
        if not powers:
            powers.append(self.coords(self.one))
        if len(powers) <= genus:
            h = self.handle_matrix()
            while len(powers) <= genus:
                powers.append(mat_vec(h, powers[-1]))
        return powers[:genus + 1]

    def closed_surface_invariant(self, genus):
        """eps(h^genus(1)) for the handle operator h = m o Delta."""
        return self.trace(self._from_coords(self._handle_powers_to(genus)[genus]))

    def closed_surface_invariants(self, genus):
        """[eps(h^g(1)) for g = 0..genus], from one running product."""
        return [self.trace(self._from_coords(v)) for v in self._handle_powers_to(genus)]

    def __str__(self):
        d = self.data
        return (
            f"A = O + mu X over Z[sqrt({self.ctx.d})], mu={d.mu}, z={d.z}, "
            f"a_bar={d.a_bar}, b_bar={d.b_bar}, eps(1)={d.eps_one}, eps_x_bar={d.eps_x_bar}"
        )


# ---------------------------------------------------------------------------
# Solution families


def _with_duals(alg, name, c, d, d_prime):
    """``alg`` once its duals are the closed forms (c, d, d') of the
    ``name`` it was built as; InconsistentRoutesError otherwise."""
    duals = alg.duals
    if (duals.c, duals.d, duals.d_prime) != (c, d, d_prime):
        raise InconsistentRoutesError(f"{name} duals disagree with the closed forms")
    return alg


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
    return _with_duals(alg, "family", expected_c, ctx.zero, b_bar.unit_inverse() * expected_c)


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
    return _with_duals(alg, "family", -(d_underbar * data.t_bar()), z * d_underbar, -(d_underbar * eps_one))


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
    se = ctx(s)
    return _with_duals(alg, "worked example", -(se * data.t_bar()), se * eps_x_bar, -(se * e1))


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
    out = build_algebra(new, relax_a_bar=not alg.report.closure_in_mu, mu_z=alg.mu_z)
    out.report.notes.extend(notes)
    return out


# ---------------------------------------------------------------------------
# Bounded enumeration of further solutions


def search_solutions(mu, z, *, coord_bound=2, limit=None):
    """Enumerates data with eps(1) a unit and d = s * eps_x_bar (s a unit) solving the single
    closing equation, subject to the integrality table; bounded box search.

    Yields validated algebras, at most ``limit`` of them.  Before any
    candidate, a negative limit or ``coord_bound`` raises ValueError; then
    ``limit=0`` yields nothing, before z and mu are looked at; then z = 0
    raises ValueError (from the ``omodule.MuZLattice``), and mu^2 != (z)
    raises the ``mu_squared_is_principal_z`` IntegralityViolationError.
    Bounds are configuration, not semantics: absence within the box proves
    nothing.  b_bar is solved in O by one exact division, b_bar z eps(1)^2
    = eps_x_bar^2 - a_bar eps_x_bar eps(1) - s^-1 z, whose right side lies in mu^2 = (z); then D_bar =
    -s^-1 z, c = -s t_bar, d = s eps_x_bar and d' = -s eps(1), so every
    candidate passes the integrality table, and a rejection raises its
    ValidationError.  The candidates of one call share one
    ``omodule.MuZLattice`` of (mu, z): the mu^2 = (z) cell, the partition of
    z and the (mu, z) half of the multiplication table are computed at most
    once, and m with the ker(m) analysis once per (a_bar, b_bar).
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
    if not mu_z.squares_to_z:
        raise IntegralityViolationError("mu_squared_is_principal_z")
    found = 0
    abars = [ctx.zero] + list(mu.lattice_points(coord_bound))
    exbars = list(mu.lattice_points(coord_bound))
    denominators = [(e1, z * e1 * e1) for e1 in units]
    for s in units:
        s_inv_z = s.unit_inverse() * z
        for eps_x_bar in exbars:
            rest = eps_x_bar * eps_x_bar - s_inv_z
            for a_bar in abars:
                a_ex = a_bar * eps_x_bar
                for e1, den in denominators:
                    b_bar = (rest - a_ex * e1).exact_div(den)
                    alg = build_algebra(FrobeniusData(ctx, mu, z, a_bar, b_bar, e1, eps_x_bar), mu_z=mu_z)
                    if alg.duals.d != s * eps_x_bar:
                        raise InconsistentRoutesError("search ansatz d = s eps_x_bar failed")
                    yield alg
                    found += 1
                    if limit is not None and found >= limit:
                        return
