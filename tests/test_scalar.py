"""Field arithmetic in Q(sqrt2)."""

from fractions import Fraction

import pytest

from gdirac.rng import SplitMix64
from gdirac.scalar import HALF, HALF_SQRT2, ONE, SQRT2, ZERO, Scalar
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
