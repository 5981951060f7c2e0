from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from superhc.scalars import (ContextMismatch, Quad, quad, rational_sqrt,
                             scalar_from_string, scalar_to_string)
from support import sqrt_scalar

rationals = st.fractions(
    min_value=Q(-10**6), max_value=Q(10**6), max_denominator=10**4)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals, rationals)
def test_field_axioms_rational(a, b, c):
    assert (a + b) - b == a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=100, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_field_axioms_quadratic(a1, b1, a2, b2):
    x = quad(a1, b1, 5)
    y = quad(a2, b2, 5)
    assert (x + y) - y == x
    assert x * y == y * x
    if y != 0:
        assert (x / y) * y == x


def test_quad_collapses_to_rational():
    assert quad(3, 0, 5) == Q(3)
    assert not isinstance(quad(3, 0, 5), Quad)
    # perfect-square discriminants collapse too
    assert quad(1, 1, 9) == Q(4)


def test_quad_arithmetic():
    r5 = quad(0, 1, 5)
    assert r5 * r5 == Q(5)
    x = quad(Q(1, 2), Q(-3, 4), 5)
    assert x * x.inverse() == Q(1)


def test_context_mixing_is_an_error():
    with pytest.raises(ContextMismatch):
        quad(0, 1, 5) + quad(0, 1, 7)


def test_sqrt_scalar():
    assert sqrt_scalar(Q(9, 4)) == Q(3, 2)
    assert sqrt_scalar(Q(5), context_c=5) == quad(0, 1, 5)
    assert sqrt_scalar(Q(20), context_c=5) == quad(0, 2, 5)
    with pytest.raises(ValueError):
        sqrt_scalar(Q(7))


def test_rational_sqrt():
    assert rational_sqrt(Q(49, 16)) == Q(7, 4)
    assert rational_sqrt(Q(2)) is None
    assert rational_sqrt(Q(-4)) is None


@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
def test_string_roundtrip(a, b):
    for x in (Q(a), quad(a, b, 7)):
        assert scalar_from_string(scalar_to_string(x)) == x


def test_canonical_strings():
    assert scalar_to_string(Q(-3, 6)) == "-1/2"
    assert scalar_to_string(Q(4)) == "4"
    assert scalar_to_string(quad(Q(1, 2), Q(-3, 4), 5)) == "1/2-3/4*sqrt(5)"
    assert scalar_from_string("1/2+1/3*sqrt(7)") == quad(Q(1, 2), Q(1, 3), 7)


@settings(max_examples=200, deadline=None)
@given(rationals, st.integers(-10**30, 10**30))
def test_ints_fractions_and_quads_print_as_their_rational(a, n):
    # the int and Fraction shortcuts print what the Fraction of the same
    # value prints: "p" or "p/q", reduced, sign on p
    assert scalar_to_string(n) == scalar_to_string(Q(n)) == str(n)
    want = f"{a.numerator}/{a.denominator}" if a.denominator != 1 \
        else str(a.numerator)
    assert scalar_to_string(a) == want
    if a.denominator == 1:
        assert scalar_to_string(a.numerator) == want
    if a:
        assert scalar_to_string(quad(n, a, 7)) == \
            f"{n}{'' if a < 0 else '+'}{want}*sqrt(7)"


def test_bools_print_as_numbers():
    assert scalar_to_string(True) == "1"
    assert scalar_to_string(False) == "0"
    assert scalar_to_string(-7) == "-7" and scalar_to_string(0) == "0"


@pytest.mark.parametrize("text", [1, None, ["1"], "1/0", "1/0+1*sqrt(2)",
                                  "1+1/0*sqrt(2)", "x", "", "1e2", "1E2",
                                  "1.5", "1_000", "1e3000000",
                                  "1/2+1.5*sqrt(2)", "1+1*sqrt(1_0)"])
def test_scalar_from_string_rejects_with_value_error(text):
    with pytest.raises(ValueError):
        scalar_from_string(text)
