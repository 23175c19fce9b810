"""Exact arithmetic in the real quadratic field Q(sqrt2).

Every amplitude produced by the operators in this package lies in
Q(sqrt2): the Clifford generators carry a factor sqrt(2) and the Dirac
operator carries 1/2, and nothing else ever enters.  Working in this
field turns every identity check in the test suite into an exact
equality with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

RatLike = int | Fraction


def _rat(x) -> RatLike:
    """Canonical rational: a plain ``int`` when integral, else a ``Fraction``.

    Most coefficients are small integers, and ``int`` arithmetic is an
    order of magnitude cheaper than ``Fraction`` arithmetic.
    """
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _numerators(cs) -> tuple[int, list[tuple[int, int]]]:
    """The scalars ``cs`` over one common denominator: ``(den, nums)``
    with ``c = (a + b*sqrt2) / den`` for each c and its ``(a, b)`` in
    ``nums``, in order.  ``den`` is the least common denominator of all
    the fields, 1 when every field is an ``int``.
    """
    cs = list(cs)
    den = 1
    for c in cs:
        den = lcm(den, c.a.denominator, c.b.denominator)
    return den, [(c.a.numerator * (den // c.a.denominator), c.b.numerator * (den // c.b.denominator)) for c in cs]


def _from_numerators(a: int, b: int, den: int) -> "Scalar":
    """The canonical ``Scalar`` (a + b*sqrt2) / den, for integers a, b
    and den > 0: a field is an ``int`` when den divides its numerator,
    otherwise one reduced ``Fraction``."""
    return _make(a // den if not a % den else Fraction(a, den), b // den if not b % den else Fraction(b, den))


def _sign(a: RatLike, b: RatLike) -> int:
    """Sign of the real number a + b*sqrt(2), computed exactly."""
    if not a and not b:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    # Mixed signs: compare a^2 with 2 b^2 (equality impossible for
    # nonzero rationals since sqrt(2) is irrational).
    if a > 0:
        return 1 if a * a > 2 * b * b else -1
    return -1 if a * a > 2 * b * b else 1


@dataclass(frozen=True, slots=True, init=False)
class Scalar:
    """The element ``a + b*sqrt(2)`` with rational ``a``, ``b``.

    Each field is an ``int`` when integral and otherwise a reduced
    ``Fraction`` with positive denominator (never one with denominator
    1), so equality is structural.  Every construction and operation
    normalises its fields through ``_rat``.
    """

    a: RatLike
    b: RatLike

    def __new__(cls, a: RatLike = 0, b: RatLike = 0) -> "Scalar":
        return _make(_rat(a), _rat(b))

    @staticmethod
    def of(a: RatLike = 0, b: RatLike = 0) -> "Scalar":
        return Scalar(a, b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scalar):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __add__(self, other: "Scalar") -> "Scalar":
        other = _coerce(other)
        return _make(_rat(self.a + other.a), _rat(self.b + other.b))

    __radd__ = __add__

    def __sub__(self, other: "Scalar") -> "Scalar":
        other = _coerce(other)
        return _make(_rat(self.a - other.a), _rat(self.b - other.b))

    def __rsub__(self, other: "Scalar") -> "Scalar":
        return _coerce(other) - self

    def __neg__(self) -> "Scalar":
        # Negation keeps a canonical field canonical.
        return _make(-self.a, -self.b)

    def __mul__(self, other: "Scalar | RatLike") -> "Scalar":
        other = _coerce(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        # (a + b r)(c + d r) = (ac + 2bd) + (ad + bc) r,  r = sqrt(2)
        return _make(_rat(a * c + 2 * b * d), _rat(a * d + b * c))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        norm = self.a * self.a - 2 * self.b * self.b
        if not norm:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return _make(_rat(Fraction(self.a, norm)), _rat(Fraction(-self.b, norm)))

    def __truediv__(self, other: "Scalar | RatLike") -> "Scalar":
        return self * _coerce(other).inverse()

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(2), computed exactly."""
        return _sign(self.a, self.b)

    def __abs__(self) -> "Scalar":
        return -self if self.sign() < 0 else self

    def __lt__(self, other: "Scalar | RatLike") -> bool:
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other: "Scalar | RatLike") -> bool:
        return (self - _coerce(other)).sign() <= 0

    def __str__(self) -> str:
        if not self.b:
            return str(self.a)
        sep = "-" if self.b < 0 else "+"
        return f"{self.a}{sep}{abs(self.b)}√2"

    def __repr__(self) -> str:
        return f"Scalar({self.a!r}, {self.b!r})"


_new = object.__new__
_set_a = Scalar.a.__set__
_set_b = Scalar.b.__set__


def _make(a: RatLike, b: RatLike) -> Scalar:
    """Build from fields already in canonical form, skipping the frozen guard."""
    x = _new(Scalar)
    _set_a(x, a)
    _set_b(x, b)
    return x


def _coerce(x: "Scalar | RatLike") -> Scalar:
    if isinstance(x, Scalar):
        return x
    return _make(_rat(x), 0)


ZERO = Scalar.of(0)
ONE = Scalar.of(1)
HALF = Scalar.of(Fraction(1, 2))
SQRT2 = Scalar.of(0, 1)
HALF_SQRT2 = Scalar.of(0, Fraction(1, 2))

