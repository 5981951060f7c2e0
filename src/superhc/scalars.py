"""Exact scalars: rationals, and rationals extended by one square root.

Every number in this package is either a ``fractions.Fraction`` or a
``Quad`` element ``a + b*sqrt(c)`` of a real quadratic extension.  There is
no floating point anywhere; arithmetic is exact by construction.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

Q = Fraction

ScalarLike = Union[int, Fraction, "Quad"]


def int_if_integral(x):
    """x as an int when it is an integral Fraction, else x unchanged."""
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


class ContextMismatch(ValueError):
    """Two quadratic scalars with different discriminants were combined."""


def rational_sqrt(x: Fraction):
    """Return sqrt(x) as a Fraction if x is a perfect square, else None."""
    if x < 0:
        return None
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Q(rn, rd)
    return None


class Quad:
    """An element a + b*sqrt(c) with a, b rational and c a fixed non-square.

    Instances normalise themselves: a Quad with b == 0 never escapes the
    constructor helper :func:`quad`, so plain rationals stay plain.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = Q(a)
        self.b = Q(b)
        self.c = c

    # -- helpers -----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Quad):
            if other.c != self.c:
                raise ContextMismatch(
                    f"cannot mix sqrt({self.c}) with sqrt({other.c})")
            return other
        if isinstance(other, (int, Fraction)):
            return Quad(other, 0, self.c)
        return None

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quad(self.a + o.a, self.b + o.b, self.c)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.c)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quad(self.a - o.a, self.b - o.b, self.c)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quad(self.a * o.a + self.b * o.b * self.c,
                    self.a * o.b + self.b * o.a, self.c)

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a - self.b * self.b * self.c
        if n == 0:
            raise ZeroDivisionError("quadratic scalar has no inverse")
        return quad(self.a / n, -self.b / n, self.c)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out: ScalarLike = Q(1)
        base: ScalarLike = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / hashing ---------------------------------------------
    def __eq__(self, other):
        if isinstance(other, Quad):
            return self.c == other.c and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.c))

    def __repr__(self):
        return scalar_to_string(self)


def quad(a, b, c) -> ScalarLike:
    """Build a + b*sqrt(c), collapsing to a Fraction when b vanishes."""
    b = Q(b)
    if b == 0:
        return Q(a)
    root = rational_sqrt(Q(c))
    if root is not None:
        return Q(a) + b * root
    return Quad(a, b, c)


# -- canonical string form -------------------------------------------------

def _frac_to_string(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def scalar_to_string(x: ScalarLike) -> str:
    """Canonical serialisation: "p/q" or "p/q+r/s*sqrt(c)" (reduced, q,s>0).

    An int or a Fraction prints directly; anything else rational (a bool
    included) goes through Fraction first, so True prints as 1.
    """
    if type(x) is int:
        return str(x)
    if type(x) is Fraction:
        return _frac_to_string(x)
    if isinstance(x, Quad):
        head = _frac_to_string(x.a)
        if x.b < 0:
            return f"{head}-{_frac_to_string(-x.b)}*sqrt({x.c})"
        return f"{head}+{_frac_to_string(x.b)}*sqrt({x.c})"
    return _frac_to_string(Q(x))


def scalar_from_string(s: str) -> ScalarLike:
    """Parse the canonical form produced by :func:`scalar_to_string`; raise
    ValueError on anything else, a non-string or zero denominator included."""
    if not isinstance(s, str):
        raise ValueError(f"scalar must be a string, got {s!r}")
    try:
        return _parse_scalar(s.strip().replace(" ", ""))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {s!r}") from None


_RATIONAL = "[+-]?[0-9]+(?:/[0-9]+)?"
# p/q, or p/q+r/s*sqrt(c): the sign in front of r/s is part of that rational
_SCALAR = re.compile(
    rf"({_RATIONAL})(?:((?=[+-]){_RATIONAL})\*sqrt\(([+-]?[0-9]+)\))?")


def _parse_scalar(s: str) -> ScalarLike:
    m = _SCALAR.fullmatch(s)
    if m is None:
        raise ValueError(f"bad scalar string {s!r}")
    head, tail, c = m.groups()
    if tail is None:
        return Q(head)
    return quad(Q(head), Q(tail), int(c))
