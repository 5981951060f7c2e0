from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from superhc.scalars import scalar_from_string, scalar_to_string

rationals = st.fractions(
    min_value=Q(-10**6), max_value=Q(10**6), max_denominator=10**4)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals, rationals)
def test_field_axioms_rational(a, b, c):
    assert (a + b) - b == a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=200, deadline=None)
@given(rationals)
def test_string_roundtrip(a):
    assert scalar_from_string(scalar_to_string(a)) == a


def test_canonical_strings():
    assert scalar_to_string(Q(-3, 6)) == "-1/2"
    assert scalar_to_string(Q(4)) == "4"
    assert scalar_from_string(" -3/6 ") == Q(-1, 2)
    assert scalar_from_string("+4") == 4


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


def test_bools_print_as_numbers():
    assert scalar_to_string(True) == "1"
    assert scalar_to_string(False) == "0"
    assert scalar_to_string(-7) == "-7" and scalar_to_string(0) == "0"


@pytest.mark.parametrize("text", [1, None, ["1"], "1/0", "1/0+1*sqrt(2)",
                                  "1+1/0*sqrt(2)", "x", "", "1e2", "1E2",
                                  "1.5", "1_000", "1e3000000",
                                  "1/2+1.5*sqrt(2)", "1+1*sqrt(1_0)",
                                  "1+1*sqrt(2)", "1 2", "1/ 2", "- 1"])
def test_scalar_from_string_rejects_with_value_error(text):
    with pytest.raises(ValueError):
        scalar_from_string(text)
