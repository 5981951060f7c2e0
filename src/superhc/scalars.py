"""Exact scalars: rationals, with canonical strings.

Every number in this package is an ``int`` or a ``fractions.Fraction``.
There is no floating point anywhere; arithmetic is exact by construction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

Q = Fraction

ScalarLike = Union[int, Fraction]


def int_if_integral(x):
    """x as an int when it is an integral Fraction, else x unchanged."""
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


# -- canonical string form -------------------------------------------------

def vector_to_string(v) -> str:
    """A coordinate tuple as "(x, y, ...)", each entry by scalar_to_string;
    for messages."""
    return "(" + ", ".join(map(scalar_to_string, v)) + ")"


def _frac_to_string(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def scalar_to_string(x: ScalarLike) -> str:
    """Canonical serialisation: "p" or "p/q" (reduced, q > 1).

    An int or a Fraction prints directly; anything else rational (a bool
    included) goes through Fraction first, so True prints as 1.
    """
    if type(x) is int:
        return str(x)
    if type(x) is Fraction:
        return _frac_to_string(x)
    return _frac_to_string(Q(x))


_SCALAR = re.compile("[+-]?[0-9]+(?:/[0-9]+)?")


def scalar_from_string(s: str) -> ScalarLike:
    """Parse an optional sign, digits and an optional "/digits", with
    whitespace allowed around but not inside; raise ValueError on anything
    else, a non-string or zero denominator included."""
    if not isinstance(s, str):
        raise ValueError(f"scalar must be a string, got {s!r}")
    text = s.strip()
    if _SCALAR.fullmatch(text) is None:
        raise ValueError(f"bad scalar string {text!r}")
    try:
        return Q(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {s!r}") from None
