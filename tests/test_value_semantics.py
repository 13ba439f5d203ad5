"""Value semantics of the package's record classes.

Immutable values (ring elements, ideals, algebra data, PD codes): fields
in a fixed order, positional and keyword construction, field-wise ``==``
and ``hash`` between objects of the same class only, a field-wise
``repr``, no assignment or deletion of fields, and ``copy``/``pickle``
round trips.  Mutable records (reports, complexes, modules): the same
constructor, a fresh list or dict per default, and round trips that keep
every field.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from quadfrob import corpus
from quadfrob.frobenius import (
    AlgebraElement,
    DualSolution,
    FrobeniusData,
    TwistSpec,
    ValidationReport,
    example_zsqrtm5,
)
from quadfrob.ideals import ClassOrderTwoCertificate, Ideal, certify_order_two
from quadfrob.intlin import SparseMatrix
from quadfrob.linkhom import (
    Complex,
    HomologyReport,
    MalformedPDError,
    PDCode,
    ResolutionCube,
    build_complex,
    homology_integral,
    resolve,
)
from quadfrob.omodule import KernelReport, OModule, TensorProduct
from quadfrob.ring import FieldElement, RingContext, RingElement


def _ctx():
    return RingContext(-5)


def _mu():
    ctx = _ctx()
    return Ideal.from_generators(ctx, [ctx(2), ctx(1, 1)])


# class -> (fields in order, maker of a fresh instance, maker of an unequal one)
VALUES = {
    RingContext: (("d",), _ctx, lambda: RingContext(-6)),
    RingElement: (("ctx", "x", "y"), lambda: _ctx()(1, 2), lambda: _ctx()(1, 3)),
    FieldElement: (("ctx", "p", "q"), lambda: _ctx().field(Fraction(1, 2), 3), lambda: _ctx().field(1, 3)),
    Ideal: (("ctx", "rows"), _mu, lambda: Ideal.principal(_ctx().one)),
    ClassOrderTwoCertificate: (
        ("mu", "z"),
        lambda: certify_order_two(_mu()),
        lambda: ClassOrderTwoCertificate(_mu(), _ctx()(-2)),
    ),
    FrobeniusData: (
        ("ctx", "mu", "z", "a_bar", "b_bar", "eps_one", "eps_x_bar"),
        lambda: example_zsqrtm5(1, 1).data,
        lambda: example_zsqrtm5(-1, 1).data,
    ),
    DualSolution: (
        ("c", "d", "c_prime", "d_prime"),
        lambda: example_zsqrtm5(1, 1).duals,
        lambda: example_zsqrtm5(-1, 1).duals,
    ),
    AlgebraElement: (("u0", "u1"), lambda: AlgebraElement(_ctx()(1), _ctx()(2)), lambda: AlgebraElement(_ctx()(1), _ctx()(0))),
    TwistSpec: (("kind", "param"), lambda: TwistSpec(3, _ctx()(-1)), lambda: TwistSpec(1, _ctx()(-1))),
    PDCode: (("crossings", "signs", "loops"), lambda: corpus.diagram("trefoil"), lambda: corpus.diagram("hopf")),
}


def _cx():
    return build_complex(corpus.diagram("hopf"), example_zsqrtm5(1, 1))


# class -> (constructor fields in order, maker)
RECORDS = {
    ValidationReport: (
        ("cells", "equations", "values", "nonvanishing", "route_dual_solution", "route_unimodular",
         "mu_principal", "closure_in_mu", "accepted", "notes"),
        lambda: example_zsqrtm5(1, 1).report,
    ),
    KernelReport: (
        ("kernel_basis", "xu_basis", "xhat", "generator", "search_bound"),
        lambda: example_zsqrtm5(1, 1).kernel_m_analysis(),
    ),
    HomologyReport: (("degrees", "total_k_dim", "notes", "checks"), lambda: homology_integral(_cx())),
    OModule: (("d", "rank", "action"), lambda: example_zsqrtm5(1, 1).mu_z.A),
    TensorProduct: (("module", "proj", "section"), lambda: example_zsqrtm5(1, 1).tensor_power(2)),
    ResolutionCube: (("circles", "edges"), lambda: resolve(corpus.diagram("hopf"))),
    Complex: (("min_degree", "ranks", "diffs", "actions", "notes"), _cx),
}


def _state(x):
    """Structure of a record, field by field, down through nested records."""
    if type(x) in RECORDS:
        return type(x), {k: _state(v) for k, v in vars(x).items()}
    if isinstance(x, (list, tuple)):
        return type(x), [_state(v) for v in x]
    if isinstance(x, dict):
        return {k: _state(v) for k, v in x.items()}
    return x


def _same(a, b):
    return _state(a) == _state(b)


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_value_equality_and_hash(cls):
    fields, make, other = VALUES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other() and not a == other()
    assert len({a, b, other()}) == 2


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_value_constructor_and_repr(cls):
    fields, make, _ = VALUES[cls]
    a = make()
    values = [getattr(a, f) for f in fields]
    assert cls(*values) == a
    assert cls(**dict(zip(fields, values))) == a
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_value_fields_are_read_only(cls):
    fields, make, _ = VALUES[cls]
    a = make()
    before = [getattr(a, f) for f in fields]
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert [getattr(a, f) for f in fields] == before


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)
def test_value_copy_and_pickle(cls):
    _, make, _ = VALUES[cls]
    a = make()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a and hash(b) == hash(a)


def test_equality_is_within_one_class():
    ctx = _ctx()
    assert ctx(1) != ctx.field(1)
    assert ctx.field(1) != ctx(1)
    assert ctx(1) != 1
    assert ctx(1, 2) != ctx(1, 2).coords()
    assert RingContext(-5) != {"d": -5}


def test_value_defaults():
    pd = PDCode(((1, 1, 2, 2),), (1,))
    assert pd.loops == 0
    assert PDCode(crossings=(), signs=(), loops=1).loops == 1


def test_value_constructors_validate():
    with pytest.raises(ValueError):
        RingContext(0)
    with pytest.raises(ValueError):
        RingContext(5)
    with pytest.raises(MalformedPDError):
        PDCode(((1, 2, 3, 4),), ())
    with pytest.raises(MalformedPDError):
        PDCode((), (), loops=0)
    with pytest.raises(MalformedPDError):
        PDCode(((1, 1, 2, 2),), (2,))
    with pytest.raises(ValueError):
        OModule(-5, 2, [[0, 1], [1, 0]])
    assert OModule(-5, 0, []).rank == 0


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_record_constructor_and_round_trips(cls):
    fields, make = RECORDS[cls]
    a = make()
    assert type(a) is cls
    if cls is not ValidationReport:  # built empty; analyze fills it in
        values = [getattr(a, f) for f in fields]
        for b in (cls(*values), cls(**dict(zip(fields, values)))):
            assert _same(b, a)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert _same(b, a)


def test_record_defaults_are_fresh():
    a, b = ValidationReport(), ValidationReport()
    assert vars(a) == {
        "cells": {}, "equations": {}, "values": {}, "nonvanishing": {},
        "route_dual_solution": False, "route_unimodular": False, "mu_principal": False,
        "closure_in_mu": True, "accepted": False, "notes": [], "failure": None,
    }
    for f in ("cells", "equations", "values", "nonvanishing", "notes"):
        assert getattr(a, f) is not getattr(b, f)
    a.notes.append("x")
    assert b.notes == []

    x1, x2 = Complex(0, [1], []), Complex(0, [1], [])
    assert x1.actions is None and x1._homology is None
    assert x1.notes == [] and x1.notes is not x2.notes


def test_complex_equality_ignores_cached_homology():
    a, b = Complex(0, [2], []), Complex(0, [2], [])
    homology_integral(a)
    assert a._homology is not None and b._homology is None
    assert a == b
    assert a != Complex(0, [4], [])
    assert a != Complex(0, [2], [], notes=["n"])
    assert Complex(0, [1, 1], [SparseMatrix(1, 1, [{0: 1}])]) != Complex(0, [1, 1], [SparseMatrix(1, 1, [{0: 2}])])
    cx = _cx()
    homology_integral(cx)
    assert cx == _cx()
