"""Every named check fires: one table of injected faults.

A row of ``FAULTS`` names a check, injects one fault with
``patch(monkeypatch)``, and gives the trigger that must then fail that
check with the exact message ``"<check> check failed: <text>"``.  A
trigger is a command line, whose ``{name}`` fields stand for the input
files that the ``files`` fixture writes, or a library call for a raise that
no command reaches; a call whose own arguments are the fault has no patch.

Three tests read the table:
- each row's trigger raises its check's ``CheckFailedError`` with its
  message, and a command-line row, run through ``cli.main``, exits 5 with
  that message as all of stderr, nothing on stdout in text, and the error
  report, naming the input files, with ``--format json``;
- the names rule: the checks of the rows are the package's check names;
- the raise-site rule: every ``raise`` of a ``CheckFailedError`` subclass
  in ``src/quadfrob`` runs under some row's trigger.

So a new named check, or a new raise of one, fails the rules until it has
a row.
"""

import ast
import functools
import importlib
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

import quadfrob
from quadfrob import Ideal, RingContext, corpus, frobenius, linkhom, omodule
from quadfrob.cli import main, make_parser
from quadfrob.frobenius import FrobeniusData, example_zsqrtm5
from quadfrob.intlin import SparseMatrix
from quadfrob.linkhom import Complex, homology_integral
from quadfrob.omodule import (
    AlgebraLattice,
    MultiplicationLattice,
    MuZLattice,
    OModule,
    homology_pair,
    tensor_over_O,
)
from quadfrob.ring import CheckFailedError, RingElement
from test_readme import _check_names

SRC = Path(quadfrob.__file__).resolve().parent
CTX = RingContext(-5)
MU = Ideal.from_generators(CTX, [CTX(2), CTX(1, 1)])
# Z[(1+w)/2] over the non-maximal order Z[sqrt(-3)] is not projective, and
# its tensor square has 2-torsion
NOT_PROJECTIVE = OModule(-3, 2, [[-1, -2], [2, 1]])


def _lattice():
    """A fresh (mu, z) lattice of the fixture algebras."""
    return MuZLattice(MU, CTX(2))


def _tensor_square(module):
    return tensor_over_O(module, module)


def _nilpotent_data():
    """X^2 = 0 with eps(1) = eps(X) = 1 over mu = O: accepted with t_bar =
    c = 0, which only a principal mu allows."""
    unit_ideal = Ideal.from_generators(CTX, [CTX.one])
    return FrobeniusData(CTX, unit_ideal, CTX.one, CTX.zero, CTX.zero, CTX.one, CTX.one)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The input files of the command-line rows, written before any fault."""
    payloads = {
        "worked": example_zsqrtm5(1, 1).data.to_json(),
        "nilpotent": _nilpotent_data().to_json(),
        "trefoil": corpus.diagram("trefoil").to_json(),
        "t25": corpus.braid_closure((1,) * 5, 2).to_json(),
    }
    folder = tmp_path_factory.mktemp("inputs")
    for name, payload in payloads.items():
        (folder / f"{name}.json").write_text(json.dumps(payload))
    return {name: str(folder / f"{name}.json") for name in payloads}


# -- the faults: each patches one collaborator of the code it fails ---------


def false_eq42(monkeypatch):
    real = frobenius.rescaled_equations

    def one_false_identity(data, duals, t_bar):
        return {**real(data, duals, t_bar), "eq42": False}

    monkeypatch.setattr(frobenius, "rescaled_equations", one_false_identity)


def double_pairing_det(monkeypatch):
    real = frobenius.epsilon_tilde_matrix

    def doubled(*args):
        rows, det = real(*args)
        return rows, 2 * det

    monkeypatch.setattr(frobenius, "epsilon_tilde_matrix", doubled)


def mu_never_principal(monkeypatch):
    monkeypatch.setattr(MuZLattice, "mu_principal", property(lambda self: False))


def nothing_divides(monkeypatch):
    monkeypatch.setattr(RingElement, "divides", lambda self, other: False)


def negate_trace(monkeypatch):
    """build_algebra validates the data with eps negated: a valid algebra
    whose duals are the negatives of the data's own."""
    real = frobenius.build_algebra

    def negated(data, **kwargs):
        return real(FrobeniusData(data.ctx, data.mu, data.z, data.a_bar, data.b_bar,
                                  -data.eps_one, -data.eps_x_bar), **kwargs)

    monkeypatch.setattr(frobenius, "build_algebra", negated)


def zero_x_hat(monkeypatch):
    monkeypatch.setattr(MultiplicationLattice, "x_hat", lambda self: [0] * 8)


def repeat_a_kernel_row(monkeypatch):
    """One more row in the kernel basis: the same lattice, so the stability
    check passes, but of the wrong Z-rank."""
    real = omodule.kernel_basis

    def repeated(a, ncols=None):
        rows = real(a, ncols=ncols)
        return rows + rows[:1]

    monkeypatch.setattr(omodule, "kernel_basis", repeated)


def double_x_u_off_the_generators(monkeypatch):
    """X_u doubled for every u other than mu's two HNF generators: X_g1 and
    X_g2 still span X_mu, so ker(m) still splits, but X_(b_bar g) is no
    longer linear in u and the action identities on ker(m) fail."""
    real = MuZLattice.x_u

    def doubled(self, u):
        x = real(self, u)
        return x if u in self.gens else [2 * e for e in x]

    monkeypatch.setattr(MuZLattice, "x_u", doubled)


def bump_x_first_factor_map(monkeypatch):
    """X_hat is 0 in coordinates 2-3 and X_g1 is not, so a 1 added at entry
    [0][2] of (g1 X .) (x) id breaks only the identity on X_mu."""
    real = MultiplicationLattice.x_first_factor_maps

    def bumped(self):
        maps = [[list(row) for row in lmat] for lmat in real(self)]
        maps[0][0][2] += 1
        return maps

    monkeypatch.setattr(MultiplicationLattice, "x_first_factor_maps", bumped)


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


def bump_checked_m_entry(monkeypatch):
    """The entry of ``bump_m_entry``, changed once m has passed
    associativity: a block of the cube's merge that is no scalar of K."""
    real = MultiplicationLattice.x_first_factor_maps

    def bump_after(self):
        out = real(self)
        if not getattr(self, "_bumped", False):
            self._m[2][6] += 1
            self._bumped = True
        return out

    monkeypatch.setattr(MultiplicationLattice, "x_first_factor_maps", bump_after)


def drop_a_bar_from_m(monkeypatch):
    real = MultiplicationLattice.m_matrix

    def dropped(self):
        out = [row[:] for row in real(self)]
        for row in out[2:4]:
            row[6:8] = [0, 0]  # the block zX(x)X -> X, a_bar's coordinates in mu
        return out

    monkeypatch.setattr(MultiplicationLattice, "m_matrix", dropped)


def bump_x_map_entry(monkeypatch):
    real = MultiplicationLattice._x_map

    def bumped(self, i):
        out = real(self, i)
        out[0][0] += 1
        return out

    monkeypatch.setattr(MultiplicationLattice, "_x_map", bumped)


def double_delta_one(monkeypatch):
    real = AlgebraLattice._delta_one
    monkeypatch.setattr(AlgebraLattice, "_delta_one", lambda self: [2 * e for e in real(self)])


def swap_c_and_d_prime(monkeypatch):
    real = AlgebraLattice._delta_one

    def swapped(self):
        out = real(self)
        return out[6:8] + out[2:6] + out[0:2]

    monkeypatch.setattr(AlgebraLattice, "_delta_one", swapped)


def negate_a2_action(monkeypatch):
    """sqrt(d) on A (x)_O A replaced by its negative, which also squares to
    d.  Delta(1) still passes the counit identity, but Delta's second
    column, sqrt(d) on Delta(1), no longer does."""

    def negated(self):
        return OModule(self.ctx.d, 8, [[-e for e in row] for row in self._module(2).action])

    monkeypatch.setattr(MuZLattice, "A2", property(negated))


def bump_one_action_entry(monkeypatch, col=0):
    """Entry (0, col) of the first sqrt(d)-action laid out +1, on a copy,
    then the real rows: the next cube built has one vertex whose action no
    longer commutes with the differential leaving the cube's lowest degree,
    or, at col = 2, has an entry outside its 2x2 blocks."""
    real = MuZLattice.sqrt_d_rows

    def bump_once(self, n):
        monkeypatch.setattr(MuZLattice, "sqrt_d_rows", real)
        rows = [dict(row) for row in real(self, n)]
        rows[0][col] = rows[0].get(col, 0) + 1
        return rows

    monkeypatch.setattr(MuZLattice, "sqrt_d_rows", bump_once)


def bump_every_action_entry(monkeypatch):
    """Entry (0, 0) of sqrt(d) laid out on every A^(x n) +1, on a copy:
    A (x)_O A fails its J^2 = d check before the cube's checks run."""
    real = MuZLattice.sqrt_d_rows

    def bumped(self, n):
        rows = [dict(row) for row in real(self, n)]
        rows[0][0] = rows[0].get(0, 0) + 1
        return rows

    monkeypatch.setattr(MuZLattice, "sqrt_d_rows", bumped)


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


def _smith_table_changed(change):
    def patch(monkeypatch):
        real = linkhom.smith_homology
        monkeypatch.setattr(linkhom, "smith_homology", lambda cx: {
            i: change(free, torsion) for i, (free, torsion) in real(cx).items()
        })

    return patch


wrong_torsion = _smith_table_changed(lambda free, torsion: (free, [3 * t for t in torsion]))
wrong_free_rank = _smith_table_changed(lambda free, torsion: (free + 1, torsion))


def swap_smoothings(monkeypatch):
    """The 0- and 1-smoothings swapped: every other named check passes the
    trefoil over the default algebra, which then reports H^3 = Z^4 and
    H^1 = (Z/2)^4, while Lee's degrees put the free part in degree 0."""
    real = linkhom._circles_at
    monkeypatch.setattr(linkhom, "_circles_at", lambda pd, vertex: real(pd, tuple(1 - c for c in vertex)))


def negate_the_section(monkeypatch):
    """U^-1 negated: the section, and with it the quotient's action, change
    sign; -J still squares to d, but no longer commutes with the projection."""
    real = omodule.smith_normal_form

    def negated_inverse(rel):
        diag, u, v, uinv = real(rel)
        return diag, u, v, [[-e for e in row] for row in uinv]

    monkeypatch.setattr(omodule, "smith_normal_form", negated_inverse)


def double_the_coordinates(monkeypatch):
    """Every monomial coordinate doubled: the image is 2 Z^8."""
    real = MuZLattice._coords_in
    monkeypatch.setattr(MuZLattice, "_coords_in", lambda self, e, par: tuple(2 * c for c in real(self, e, par)))


def negate_sqrt_d_on_mu(monkeypatch):
    """-J on the odd summands still squares to d, but it is not sqrt(d)."""
    real = MuZLattice.__init__

    def negated(self, mu, z):
        real(self, mu, z)
        on_o, on_mu = self.sqrt_d_blocks
        self.sqrt_d_blocks = (on_o, tuple(tuple(-e for e in row) for row in on_mu))

    monkeypatch.setattr(MuZLattice, "__init__", negated)


# -- the table ---------------------------------------------------------------


class Fault(NamedTuple):
    id: str
    check: str
    patch: Optional[Callable]
    trigger: object  # a command line, or a call
    message: str


WORKED_TREFOIL = ("link", "homology", "--pd", "{trefoil}", "--alg", "{worked}")
TREFOIL = ("link", "homology", "--pd", "{trefoil}")
COUNIT = "well_defined check failed: counit identity (eps (x) id) Delta(1) = 1 fails"
ASSOCIATIVITY = "well_defined check failed: (2 X .) (x) id is not associative with m"

FAULTS = (
    Fault("routes", "validation_routes", double_pairing_det, ("algebra", "validate", "--alg", "{worked}"),
          "validation_routes check failed: dual-solution route says True, unimodularity route says False"),
    Fault("eq42", "validation_routes", false_eq42, ("algebra", "example-zsqrtm5"),
          "validation_routes check failed: closed-form duals fail the defining equations"),
    Fault("nonvanishing", "validation_routes", mu_never_principal, ("algebra", "validate", "--alg", "{nilpotent}"),
          "validation_routes check failed: nonvanishing consequences failed on accepted data"),
    Fault("d_eps_one", "validation_routes", nothing_divides, ("algebra", "validate", "--alg", "{worked}"),
          "validation_routes check failed: d*eps(1) escaped (eps_x_bar) on accepted data"),
    Fault("family_eps0", "validation_routes", negate_trace,
          ("algebra", "family-eps0", "--abar", "0", "--bbar", "1", "--eps1", "1"),
          "validation_routes check failed: family duals disagree with the closed forms"),
    Fault("family_eps1", "validation_routes", negate_trace,
          ("algebra", "family-eps1", "--abar", "1+w", "--eps1", "1", "--dbar", "1"),
          "validation_routes check failed: family duals disagree with the closed forms"),
    Fault("worked", "validation_routes", negate_trace, ("algebra", "example-zsqrtm5"),
          "validation_routes check failed: worked example duals disagree with the closed forms"),
    Fault("search", "validation_routes", negate_trace, ("algebra", "search", "--bound", "1"),
          "validation_routes check failed: search ansatz d = s eps_x_bar failed"),
    Fault("x_hat", "ker_m_splitting", zero_x_hat, ("kernel",),
          "ker_m_splitting check failed: ker(m) != X_mu + O*Xhat as lattices"),
    Fault("ker_m_rank", "ker_m_splitting", repeat_a_kernel_row, ("kernel", "--alg", "{worked}"),
          "ker_m_splitting check failed: ker(m) has Z-rank 5, expected 4"),
    Fault("x_hat_identity", "ker_m_splitting", double_x_u_off_the_generators, ("kernel", "--alg", "{worked}"),
          "ker_m_splitting check failed: X_2 acting on X_hat breaks its identity on ker(m)"),
    Fault("x_mu_identity", "ker_m_splitting", bump_x_first_factor_map, ("kernel", "--alg", "{worked}"),
          "ker_m_splitting check failed: X_2 acting on X_mu breaks its identity on ker(m)"),
    Fault("m_entry-kernel", "well_defined", bump_m_entry, ("kernel",),
          "well_defined check failed: kernel not stable under the action"),
    # the cube's edge maps are the blocks of the checked m and Delta, so a
    # fault in either fails a check before any homology is computed
    Fault("m_entry", "well_defined", bump_m_entry, WORKED_TREFOIL, ASSOCIATIVITY),
    Fault("a_bar_dropped", "well_defined", drop_a_bar_from_m, WORKED_TREFOIL, ASSOCIATIVITY),
    Fault("x_map", "well_defined", bump_x_map_entry, WORKED_TREFOIL, ASSOCIATIVITY),
    Fault("x_map-kernel", "well_defined", bump_x_map_entry, ("kernel",), ASSOCIATIVITY),
    Fault("x_map-tqft", "well_defined", bump_x_map_entry, ("tqft",), ASSOCIATIVITY),
    Fault("checked_m_entry", "well_defined", bump_checked_m_entry, WORKED_TREFOIL,
          "well_defined check failed: block ((2, 2), (-1, 1)) is not multiplication by one scalar of K"),
    Fault("delta_one", "well_defined", double_delta_one, WORKED_TREFOIL, COUNIT),
    Fault("delta_one-tqft", "well_defined", double_delta_one, ("tqft",), COUNIT),
    Fault("delta_one-algebra", "well_defined", double_delta_one, ("algebra", "example-zsqrtm5"), COUNIT),
    Fault("c_d_prime_swapped", "well_defined", swap_c_and_d_prime, WORKED_TREFOIL, COUNIT),
    Fault("a2_negated", "well_defined", negate_a2_action, WORKED_TREFOIL,
          "well_defined check failed: counit identity (eps (x) id) Delta = id fails"),
    Fault("sqrt_d_layout", "well_defined", bump_every_action_entry, TREFOIL,
          "well_defined check failed: sqrt(d) laid out on A^(x 2): action matrix does not square to d * identity"),
    Fault("section_negated", "well_defined", negate_the_section,
          lambda: _tensor_square(_lattice().A),
          "well_defined check failed: tensor action not well defined on the quotient"),
    # d_out d_in != 0: the image e1 is not in ker(d_out) = Z e2
    Fault("image_outside_kernel", "well_defined", None, lambda: homology_pair([[1], [0]], [[1, 0]], 2),
          "well_defined check failed: image does not lie in the kernel; d^2 != 0?"),
    Fault("projection_not_onto", "well_defined", double_the_coordinates, lambda: _lattice().tensor_power(2),
          "well_defined check failed: projection onto monomial coordinates is not onto"),
    Fault("layout_not_on_a_factor", "well_defined", negate_sqrt_d_on_mu, lambda: _lattice().tensor_power(2),
          "well_defined check failed: tensor action not well defined on monomial coordinates"),
    # 1/g1 on g2 = 1+w is (1+w)/2, not in O
    Fault("block_leaves_the_lattice", "well_defined", None,
          lambda: _lattice().flipped_block(((1, 0), (0, 0)), 1, 0),
          "well_defined check failed: block ((1, 0), (0, 0)) leaves the lattice: 2 does not divide 1+w"),
    Fault("torsion", "tensor_torsion_free", None, lambda: _tensor_square(NOT_PROJECTIVE),
          "tensor_torsion_free check failed: invariant factors [2, 2, 0, 0]"),
    Fault("edge", "d_squared", bump_one_edge_entry, TREFOIL, "d_squared check failed: d^2 != 0 at degree 0"),
    Fault("remainder", "d_squared", bump_remainder_entry, ("link", "homology", "--alg", "{worked}", "--pd", "{t25}"),
          "d_squared check failed: d^2 != 0 at degree 2"),
    Fault("remainder-compare", "d_squared", bump_remainder_entry,
          ("link", "compare", "--alg", "{worked}", "--pd1", "{t25}", "--pd2", "{t25}"),
          "d_squared check failed: d^2 != 0 at degree 2"),
    Fault("action", "equivariance", bump_one_action_entry, TREFOIL,
          "equivariance check failed: differential from degree 0 does not commute with sqrt(d)"),
    Fault("action_off_its_block", "equivariance", functools.partial(bump_one_action_entry, col=2), TREFOIL,
          "equivariance check failed: sqrt(d)-action at degree 0 has an entry outside its 2x2 diagonal blocks"),
    Fault("free_rank", "k_rank_vs_z_rank", wrong_free_rank, TREFOIL,
          "k_rank_vs_z_rank check failed: degree 0: ranks over Q give dimension 4, the Smith form free rank 5"),
    # rank 1 over Z cannot carry a sqrt(d)-action
    Fault("odd_dimension", "k_rank_vs_z_rank", None,
          lambda: homology_integral(Complex(0, [1], [], actions=[SparseMatrix(1, 1)])),
          "k_rank_vs_z_rank check failed: degree 0: odd dimension 1 over Q for a complex over O"),
    Fault("smoothings_swapped", "lee_degrees", swap_smoothings, TREFOIL,
          "lee_degrees check failed: degree 0: free Z-rank 0, but Lee's degrees give K-dimension 2"),
    Fault("torsion_tripled", "mod_p", wrong_torsion, TREFOIL,
          "mod_p check failed: p=3, degree 2: dim H(C (x) F_p) = 0, but free rank 0 + 0 + 4 torsion invariants"
          " divisible by p"),
)


def _argv(row, files):
    return [arg.format(**files) for arg in row.trigger]


def _fire(row, files, monkeypatch):
    """The CheckFailedError that the row's trigger raises under its fault."""
    if row.patch is not None:
        row.patch(monkeypatch)
    try:
        if callable(row.trigger):
            row.trigger()
        else:
            argv = _argv(row, files)
            args = make_parser(argv).parse_args(argv)
            args.func(args)
    except CheckFailedError as exc:
        return exc
    finally:
        monkeypatch.undo()
    pytest.fail(f"{row.id}: no check failed")


@pytest.mark.parametrize("row", FAULTS, ids=[row.id for row in FAULTS])
def test_each_row_fails_its_check(row, files, monkeypatch, capsys):
    exc = _fire(row, files, monkeypatch)
    assert (exc.check, str(exc)) == (row.check, row.message)
    if callable(row.trigger):
        return
    argv = _argv(row, files)
    inputs = {opt[2:]: path for opt, path in zip(argv, argv[1:]) if opt in ("--alg", "--pd", "--pd1", "--pd2")}
    error = {"check": row.check, "message": row.message, "inputs": inputs}
    capsys.readouterr()
    for fmt, report in (("text", ""), ("json", {"error": error})):
        if row.patch is not None:
            row.patch(monkeypatch)
        code = main([*argv, "--format", fmt])
        monkeypatch.undo()
        out, err = capsys.readouterr()
        assert (code, err) == (5, row.message + "\n"), fmt
        assert (json.loads(out) if fmt == "json" else out) == report


def test_every_check_has_a_row():
    names = _check_names()
    assert CheckFailedError.check not in names
    assert len(set(names)) == len(names)
    assert {row.check for row in FAULTS} == set(names)


def _raise_sites():
    """(file, line) of each ``raise`` of a CheckFailedError subclass, by
    name, in the package."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module(f"quadfrob.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name):
                cls = getattr(module, node.exc.func.id, None)
                if isinstance(cls, type) and issubclass(cls, CheckFailedError):
                    sites.add((module.__file__, node.lineno))
    return sites


def test_every_raise_site_runs_under_a_row(files, monkeypatch):
    sites = _raise_sites()
    traced = {file for file, _ in sites}
    assert {Path(file).name for file in traced} >= {"frobenius.py", "linkhom.py", "omodule.py"}
    ran = set()

    def trace_lines(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in traced else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        for row in FAULTS:
            _fire(row, files, monkeypatch)
    finally:
        sys.settrace(previous)
    assert {f"{Path(file).name}:{line}" for file, line in sites - ran} == set()
