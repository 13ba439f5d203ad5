import random
from fractions import Fraction

import pytest

from quadfrob.ring import (
    FieldElement,
    NotDivisibleError,
    RingContext,
    RingElement,
    UnsupportedRingError,
    _prime_factors,
    parse_element,
)

from conftest import to_ring


def test_context_validation():
    for bad in (0, 1, 5, -3, 12, 8):
        with pytest.raises(ValueError):
            RingContext(bad)
    for good in (-5, -2, -1, -13):
        RingContext(good)


def test_real_quadratic_d_is_refused_after_the_malformed_checks():
    for real in (2, 3, 6):
        with pytest.raises(UnsupportedRingError, match=f"^real quadratic d = {real}: "):
            RingContext(real)
    # positive and malformed: the malformed-d message, as a plain ValueError
    for d, message in ((5, r"d = 1 \(mod 4\)"), (8, "squarefree"), (12, "squarefree")):
        with pytest.raises(ValueError, match=message) as exc:
            RingContext(d)
        assert type(exc.value) is ValueError, d


def test_large_d_is_rejected_before_the_squarefree_test():
    with pytest.raises(ValueError, match=r"\|d\| must be below 2\*\*32"):
        RingContext(-(2**32 + 2))
    assert RingContext(-(2**32 - 2)).d == -(2**32 - 2)  # 2 * (2**31 - 1), squarefree


def test_squarefreeness_reads_the_primes_of_d():
    # |d| below 2**32 factors fully by trial division, so a square factor
    # shows as a product of the primes found that falls short of |d|, up to
    # the largest prime square below 2**32
    for square in (-(65521**2), -(2 * 46337**2), -(6 * 7 * 7)):
        with pytest.raises(ValueError, match="^d must be squarefree$"):
            RingContext(square)
    assert RingContext(-65521).d == -65521
    assert RingContext(-(2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23)).d == -223092870


def test_a_cofactor_below_the_square_of_the_last_divisor_is_prime():
    # trial division stops at 65537, and 65537^2 > 2^32 + 15, so that
    # remainder is proven prime; 65537 * 65539 is not below 65537^2
    assert _prime_factors(4294967311) == ({4294967311}, 1)
    assert _prime_factors(3 * 4294967311) == ({3, 4294967311}, 1)
    assert _prime_factors(65537 * 65539) == (set(), 4295229443)


def test_norm_examples(ctx):
    assert ctx(1, 1).norm() == 6
    assert ctx(1).norm() == 1
    assert ctx(2).norm() == 4


def test_is_unit(ctx):
    assert ctx(-1).is_unit()
    assert ctx(1).is_unit()
    assert not ctx(1, 1).is_unit()
    assert not ctx(0).is_unit()
    with pytest.raises(NotDivisibleError, match=r"^1\+w is not a unit$"):
        ctx(1, 1).unit_inverse()


def test_units_enumeration(ctx):
    assert {str(u) for u in ctx.units()} == {"1", "-1"}
    gauss = RingContext(-1)
    assert len(gauss.units()) == 4
    for u in gauss.units():
        assert u.is_unit()
        assert u * u.unit_inverse() == gauss.one


def test_divide_exact(ctx):
    assert ctx(-4, 2).exact_div(ctx(1, 1)) == ctx(1, 1)
    assert ctx(6).exact_div(ctx(2)) == ctx(3)
    with pytest.raises(NotDivisibleError):
        ctx(1, 1).exact_div(ctx(2))
    with pytest.raises(ZeroDivisionError):
        ctx(1).exact_div(ctx(0))
    with pytest.raises(ZeroDivisionError, match="division by zero in K"):
        ctx(1).field_quotient(ctx(0))
    assert ctx(2).divides(ctx(6))
    assert not ctx(2).divides(ctx(3))


def test_field_inverse(ctx):
    half = ctx.field(2).inverse()
    assert (half.p, half.q) == (Fraction(1, 2), Fraction(0))
    inv = ctx(1, 1).to_field().inverse()
    assert (inv.p, inv.q) == (Fraction(1, 6), Fraction(-1, 6))
    inv_w = ctx.sqrt_d.to_field().inverse()
    assert (inv_w.p, inv_w.q) == (Fraction(0), Fraction(-1, 5))
    with pytest.raises(ZeroDivisionError):
        ctx.field(0).inverse()


def test_ring_axioms_random(ctx):
    r = random.Random(0)
    for _ in range(200):
        a = ctx(r.randint(-9, 9), r.randint(-9, 9))
        b = ctx(r.randint(-9, 9), r.randint(-9, 9))
        c = ctx(r.randint(-9, 9), r.randint(-9, 9))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        assert a + 3 == 3 + a == a + ctx(3)
        assert a - 3 == a - ctx(3)
        assert (a * b).norm() == a.norm() * b.norm()
        if not b.is_zero():
            assert (a * b).exact_div(b) == a


def test_field_matches_ring_on_integers(ctx):
    r = random.Random(1)
    for _ in range(100):
        a = ctx(r.randint(-9, 9), r.randint(-9, 9))
        b = ctx(r.randint(-9, 9), r.randint(-9, 9))
        for ring_val, field_val in (
            (a + b, a.to_field() + b.to_field()),
            (a * b, a.to_field() * b.to_field()),
            (a - b, a.to_field() - b.to_field()),
            (a + b, a.to_field() + b),  # a RingElement operand is taken into K
            (a + 3, a.to_field() + 3),
            (a * 2, a.to_field() * 4 / 2),
        ):
            assert field_val.is_integral()
            assert to_ring(field_val) == ring_val


def test_field_inverse_roundtrip(ctx):
    r = random.Random(2)
    one = ctx.field(1)
    for _ in range(50):
        k = FieldElement(ctx, Fraction(r.randint(-9, 9), r.randint(1, 9)),
                         Fraction(r.randint(-9, 9), r.randint(1, 9)))
        if k.is_zero():
            continue
        assert k * k.inverse() == one


def test_mixed_context_rejected(ctx):
    other = RingContext(-2)
    with pytest.raises(ValueError):
        ctx(1) + other(1)
    with pytest.raises(ValueError, match="mixed ring contexts"):
        ctx.field(1) + other.field(1)
    with pytest.raises(TypeError, match="expected RingElement, got float"):
        ctx(1) + 1.5
    with pytest.raises(TypeError, match="expected FieldElement, got str"):
        ctx.field(1) + "x"


def test_powers(ctx):
    a = ctx(1, 1)
    assert a ** 0 == ctx.one
    assert a ** 3 == a * a * a
    with pytest.raises(ValueError, match="only nonnegative integer powers"):
        a ** -1


def test_parse_element(ctx):
    assert parse_element(ctx, "2") == ctx(2)
    assert parse_element(ctx, "-3") == ctx(-3)
    assert parse_element(ctx, "w") == ctx(0, 1)
    assert parse_element(ctx, "-w") == ctx(0, -1)
    assert parse_element(ctx, "1+w") == ctx(1, 1)
    assert parse_element(ctx, "3-2w") == ctx(3, -2)
    assert parse_element(ctx, " -4 + 2w ") == ctx(-4, 2)
    assert parse_element(ctx, "2w-1") == ctx(-1, 2)
    for bad in ("", "x", "1++2", "w2", "1 2", "1 2w", "\u0663", "1+\u0663w"):
        with pytest.raises(ValueError):
            parse_element(ctx, bad)


def test_ring_element_from_json_reads_only_ascii_decimals(ctx):
    # what to_json writes, -?[0-9]+, and nothing else that int() would take
    assert RingElement.from_json(ctx, {"x": "-12", "y": "007"}) == ctx(-12, 7)
    for bad in ("1_0", " 12 ", "+5", "\u0663", "1.0", ""):
        with pytest.raises(ValueError, match="expected an integer"):
            RingElement.from_json(ctx, {"x": bad, "y": "0"})


def test_a_missing_key_is_named(ctx):
    with pytest.raises(ValueError, match="missing key 'd'"):
        RingContext.from_json({})
    with pytest.raises(ValueError, match="missing key 'y'"):
        RingElement.from_json(ctx, {"x": "1"})


def test_json_roundtrip(ctx):
    e = ctx(-4, 2)
    assert RingElement.from_json(ctx, e.to_json()) == e
    assert RingContext.from_json({"d": -5}) == ctx


def test_str_forms(ctx):
    assert str(ctx(1, 1)) == "1+w"
    assert str(ctx(-6, 1)) == "-6+w"
    assert str(ctx(0, -1)) == "-w"
    assert str(ctx(3)) == "3"
    assert str(ctx(0, 2)) == "2w"
