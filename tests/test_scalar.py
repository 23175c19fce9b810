"""Field arithmetic in Q(sqrt2)."""

from fractions import Fraction
from math import lcm

import pytest

from gdirac.rng import SplitMix64
from gdirac.scalar import HALF, HALF_SQRT2, ONE, SQRT2, ZERO, Scalar, _from_numerators, _numerators
from gdirac.serialize import scalar_from_json


def test_product_expansion():
    x = Scalar.of(1, 1)
    assert x * x == Scalar.of(3, 2)


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == Scalar.of(2)


def test_division_by_conjugate():
    # (3 + 2 sqrt2) / (1 + sqrt2) = 1 + sqrt2, checked by re-multiplying
    num, den = Scalar.of(3, 2), Scalar.of(1, 1)
    q = num / den
    assert q == Scalar.of(1, 1)
    assert q * den == num


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def _random_scalar(stream):
    return Scalar.of(
        Fraction(stream.coefficient(), 1 + stream.pick(4)),
        Fraction(stream.coefficient(), 1 + stream.pick(4)),
    )


def test_field_laws_randomized():
    stream = SplitMix64(2024)
    for _ in range(1000):
        x, y, z = (_random_scalar(stream) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) + z == x + (y + z)
        if x:
            assert x * x.inverse() == ONE
            assert (y / x) * x == y


def test_sign_and_abs():
    assert Scalar.of(1, -1).sign() == -1  # 1 - sqrt2 < 0
    assert Scalar.of(-1, 1).sign() == 1  # sqrt2 - 1 > 0
    assert Scalar.of(3, -2).sign() == 1  # 3 - 2 sqrt2 > 0
    assert ZERO.sign() == 0
    assert abs(Scalar.of(1, -1)) == Scalar.of(-1, 1)
    assert Scalar.of(1, -1) < ZERO < SQRT2


def test_str_forms():
    assert str(Scalar.of(Fraction(3, 2))) == "3/2"
    assert str(Scalar.of(1, 1)) == "1+1√2"
    assert str(Scalar.of(0, Fraction(-1, 2))) == "0-1/2√2"
    assert str(Scalar.of(0, Fraction(1, 2))) == "0+1/2√2"


def test_integral_fields_stored_as_int():
    for x, want in [
        (Scalar.of(Fraction(4, 2)), (2, 0)),
        (HALF + HALF, (1, 0)),
        (HALF_SQRT2 * SQRT2, (1, 0)),
        (Scalar.of(Fraction(1, 2)).inverse(), (2, 0)),
        (scalar_from_json({"a": "3/1", "b": "0/1"}), (3, 0)),
    ]:
        assert (x.a, x.b) == want
        assert type(x.a) is int and type(x.b) is int


def test_integer_division_stays_exact():
    q = Scalar.of(1) / 3
    assert q == Scalar.of(Fraction(1, 3))
    assert type(q.a) is Fraction and type(q.b) is int
    assert hash(q) == hash(Scalar.of(Fraction(1, 3)))


def _canonical(x: Scalar) -> bool:
    """Each field an int, or a Fraction that is not an integer."""
    return all(type(f) is int or (type(f) is Fraction and f.denominator > 1) for f in (x.a, x.b))


def _round_trip(cs: list[Scalar]) -> list[Scalar]:
    den, nums = _numerators(cs)
    assert den == lcm(*(f.denominator for c in cs for f in (c.a, c.b)))
    for c, (a, b) in zip(cs, nums):
        assert type(a) is int and type(b) is int
        assert (a, b) == (c.a * den, c.b * den)
    back = [_from_numerators(a, b, den) for a, b in nums]
    assert all(_canonical(x) for x in back)
    return back


def test_numerators_round_trip_randomized():
    stream = SplitMix64(15)
    for _ in range(300):
        cs = [_random_scalar(stream) for _ in range(1 + stream.pick(5))]
        back = _round_trip(cs)
        assert back == cs
        assert [(x.a, x.b) for x in back] == [(c.a, c.b) for c in cs]


def test_numerators_round_trip_edge_elements():
    cases = [
        [ZERO],
        [ZERO, HALF_SQRT2],
        [SQRT2, Scalar.of(0, Fraction(-5, 6))],
        [Scalar.of(Fraction(1, 3), Fraction(-3, 4)), Scalar.of(-2, Fraction(7, 2)), Scalar.of(3, -1)],
        [Scalar.of(Fraction(-9, 4), 2), HALF, ONE],
    ]
    for cs in cases:
        assert _round_trip(cs) == cs
    # every field an int: no common denominator, the fields themselves
    assert _numerators([Scalar.of(2, -3), ZERO]) == (1, [(2, -3), (0, 0)])
    assert _numerators([ZERO]) == (1, [(0, 0)])


def test_from_numerators_reduces_to_the_canonical_form():
    for (a, b, den), want in [
        ((6, 0, 3), (2, 0)),
        ((4, -6, 8), (Fraction(1, 2), Fraction(-3, 4))),
        ((0, -10, 4), (0, Fraction(-5, 2))),
        ((-7, 14, 7), (-1, 2)),
        ((0, 0, 12), (0, 0)),
    ]:
        x = _from_numerators(a, b, den)
        assert (x.a, x.b) == want and _canonical(x)
        assert x == Scalar.of(Fraction(a, den), Fraction(b, den))
        assert hash(x) == hash(Scalar.of(*want))
