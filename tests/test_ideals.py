import random

import pytest

from conftest import LARGER_CLASS_GROUP_RINGS, contains_fraction, ring_of
from quadfrob.ideals import (
    ClassOrderTwoCertificate,
    Ideal,
    NotOrderTwoError,
    ZeroIdealError,
    certify_order_two,
    solve_partition_of_z,
)
from quadfrob.ring import RingContext, UnsupportedRingError


def test_from_generators_examples(ctx, mu):
    assert mu.rows == ((2, 0), (1, 1))
    assert Ideal.from_generators(ctx, [2, ctx(1, 1)]) == mu  # an int generator
    assert Ideal.from_generators(ctx, [ctx(1)]).rows == ((1, 0), (0, 1))
    assert Ideal.from_generators(ctx, [ctx(2)]).rows == ((2, 0), (0, 2))
    with pytest.raises(ZeroIdealError):
        Ideal.from_generators(ctx, [ctx(0)])


def test_product_examples(ctx, mu):
    unit = Ideal.principal(ctx.one)
    assert (mu * mu).rows == ((2, 0), (0, 2))
    assert mu * unit == mu
    two = Ideal.from_generators(ctx, [ctx(2)])
    three = Ideal.from_generators(ctx, [ctx(3)])
    assert two * three == Ideal.from_generators(ctx, [ctx(6)])


def test_contains(ctx, mu):
    assert mu.contains(ctx(2))
    assert mu.contains(ctx(1, 1))
    assert not mu.contains(ctx(1))
    # eps(X) = (1+w)/2 lies in mu scaled by denominator 2
    eps_x = ctx(1, 1).to_field() / ctx.field(2)
    assert contains_fraction(mu, eps_x, ctx(2))
    assert not contains_fraction(mu, ctx(1).to_field(), ctx(1))
    assert contains_fraction(Ideal.principal(ctx.one), ctx(7, -3).to_field(), ctx(1))


def test_norm(ctx, mu):
    assert mu.norm() == 2
    assert Ideal.principal(ctx.one).norm() == 1
    assert Ideal.from_generators(ctx, [ctx(2)]).norm() == 4


def test_is_principal(ctx, mu):
    assert mu.is_principal() is None
    g = Ideal.from_generators(ctx, [ctx(2)]).is_principal()
    assert g is not None and Ideal.principal(g) == Ideal.from_generators(ctx, [ctx(2)])
    sq = mu * mu
    z = sq.is_principal()
    assert z is not None and abs(z.norm()) == 4


def test_no_norm_two_element_oracle(ctx):
    # brute-force: no x + y*w with x^2 + 5y^2 = 2, so mu cannot be principal
    hits = [(x, y) for x in range(-4, 5) for y in range(-4, 5) if x * x + 5 * y * y == 2]
    assert hits == []


def test_certify_order_two(ctx, mu):
    cert = certify_order_two(mu)
    assert isinstance(cert, ClassOrderTwoCertificate)
    assert cert.z == ctx(2) or cert.z == ctx(-2)
    with pytest.raises(NotOrderTwoError):
        certify_order_two(Ideal.principal(ctx.one))
    with pytest.raises(NotOrderTwoError):
        certify_order_two(Ideal.from_generators(ctx, [ctx(2)]))


def test_certify_order_two_mu3(ctx):
    mu3 = Ideal.from_generators(ctx, [ctx(3), ctx(1, 1)])
    cert = certify_order_two(mu3)
    # mu3^2 = (2 - w): check the certificate generates the square
    assert Ideal.principal(cert.z) == mu3 * mu3
    assert abs(cert.z.norm()) == 9


def test_two_generators(ctx, mu):
    g1, g2 = mu.two_generators()
    assert (g1, g2) == (ctx(2), ctx(1, 1))
    assert Ideal.from_generators(ctx, [g1, g2]) == mu


def test_two_generators_regenerate_random(ctx):
    r = random.Random(0)
    for _ in range(30):
        gens = [ctx(r.randint(-9, 9), r.randint(-9, 9)) for _ in range(3)]
        if all(g.is_zero() for g in gens):
            continue
        ideal = Ideal.from_generators(ctx, gens)
        assert Ideal.from_generators(ctx, list(ideal.two_generators())) == ideal


def test_product_properties_random(ctx):
    r = random.Random(1)
    ideals = []
    while len(ideals) < 6:
        g = ctx(r.randint(-9, 9), r.randint(-9, 9))
        if not g.is_zero():
            ideals.append(Ideal.from_generators(ctx, [g, ctx(r.randint(-9, 9), r.randint(-9, 9))]))
    for a in ideals:
        for b in ideals:
            assert a * b == b * a
            assert (a * b).norm() == a.norm() * b.norm()
            for c in ideals[:3]:
                assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("ring", LARGER_CLASS_GROUP_RINGS, ids=lambda ring: f"{ring[0]}:{ring[1]}")
def test_order_two_beyond_class_number_two(ring):
    _, mu, z = ring_of(*ring)
    assert certify_order_two(mu).z == z


def test_classes_of_order_two_beyond_class_number_two():
    # two classes of order two lie apart exactly when their product is not
    # principal
    def product_is_principal(d, gens1, gens2):
        (_, mu1, _), (_, mu2, _) = ring_of(d, gens1, "1"), ring_of(d, gens2, "1")
        return (mu1 * mu2).is_principal() is not None

    assert not product_is_principal(-21, "2,1+w", "3,w")
    assert product_is_principal(-21, "3,w", "7,w")
    assert not product_is_principal(-30, "2,w", "3,w")


def test_partition_of_z(ctx, mu):
    us, ups = solve_partition_of_z(mu, ctx(2))
    assert us == [ctx(2), ctx(1, 1)]
    assert ups == [ctx(-1, 1), ctx(-1, -1)]
    total = ctx.zero
    for u, up in zip(us, ups):
        assert mu.contains(u) and mu.contains(up)
        total = total + u * up
    assert total == ctx(2)
    assert Ideal.from_generators(ctx, us) == mu


def test_partition_of_z_unit_and_principal(ctx):
    unit = Ideal.principal(ctx.one)
    us, ups = solve_partition_of_z(unit, ctx(1))
    assert sum((u * up for u, up in zip(us, ups)), ctx.zero) == ctx(1)
    two = Ideal.from_generators(ctx, [ctx(2)])
    us, ups = solve_partition_of_z(two, ctx(4))
    assert sum((u * up for u, up in zip(us, ups)), ctx.zero) == ctx(4)
    for u, up in zip(us, ups):
        assert two.contains(u) and two.contains(up)


def test_partition_requires_square(ctx, mu):
    with pytest.raises(ValueError):
        solve_partition_of_z(mu, ctx(3))


def test_partition_of_z_far_from_the_origin(ctx):
    # 70*(2, 1+w) has no nonzero member with both coordinates below 70 in
    # size, so the witness lies on the box of size 70
    mu70 = Ideal.from_generators(ctx, [ctx(140), ctx(70, 70)])
    us, ups = solve_partition_of_z(mu70, ctx(9800))
    assert ups == [ctx(-70, 70), ctx(-70, -70)]
    assert us[0] * ups[0] + us[1] * ups[1] == ctx(9800)
    assert all(mu70.contains(e) for e in us + ups)
    assert Ideal.from_generators(ctx, us) == mu70


def test_unsupported_positive_d():
    # no ideal of Z[sqrt(2)] can be built, so none reaches the principality search
    with pytest.raises(UnsupportedRingError):
        RingContext(2)
