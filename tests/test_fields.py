import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from modfact.fields import RationalField

Q = RationalField()

# either form may reach the field: canonical ints and Fractions, and
# integral Fractions such as Fraction(2) from callers that build their own
rationals = st.one_of(st.integers(-40, 40),
                      st.fractions(min_value=-20, max_value=20, max_denominator=12))


def assert_canonical(c, expected):
    assert c == expected
    if Fraction(expected).denominator == 1:
        assert type(c) is int
    else:
        assert type(c) is Fraction


@given(rationals, rationals)
@settings(max_examples=300, deadline=None)
def test_rational_ops_match_fraction_and_are_canonical(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert_canonical(Q.add(a, b), fa + fb)
    assert_canonical(Q.sub(a, b), fa - fb)
    assert_canonical(Q.mul(a, b), fa * fb)
    assert_canonical(Q.neg(a), -fa)
    assert_canonical(Q.coerce(a), fa)
    assert_canonical(Q.elem_from_json(str(fa)), fa)
    assert Q.is_zero(a) == (fa == 0)
    if fa:
        assert_canonical(Q.inv(a), 1 / fa)
    else:
        with pytest.raises(ZeroDivisionError):
            Q.inv(a)


@given(rationals)
@settings(max_examples=200, deadline=None)
def test_rational_json_is_the_fraction_string(a):
    assert Q.elem_to_json(a) == str(Fraction(a))
    assert Q.elem_from_json(Q.elem_to_json(a)) == a


def test_rational_canonical_form_edges():
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            Q.inv(zero)
    # the inverse of an int is never a float
    assert_canonical(Q.inv(1), 1)
    assert_canonical(Q.inv(-1), -1)
    assert_canonical(Q.inv(-4), Fraction(-1, 4))
    assert_canonical(Q.inv(Fraction(-1, 3)), -3)
    assert_canonical(Q.elem_from_json("-6/3"), -2)
    assert_canonical(Q.elem_from_json("5/10"), Fraction(1, 2))
    assert Q.elem_to_json(3) == "3" and Q.elem_to_json(Fraction(-1, 2)) == "-1/2"
    assert Q.elem_to_json(Fraction(4)) == "4"
    with pytest.raises(TypeError):
        Q.coerce(0.5)
    with pytest.raises(ValueError):
        Q.elem_from_json(2)
    for c in (Q.zero, Q.one, Q.from_int(-7)):
        assert type(c) is int
    assert (Q.zero, Q.one) == (0, 1)
    # random keeps its draw: one randint(-3, 3) per element
    draws = [Q.random(random.Random(s)) for s in range(20)]
    assert draws == [random.Random(s).randint(-3, 3) for s in range(20)]
    assert all(type(c) is int for c in draws)


def test_rational_json_refuses_exponents_and_zero_denominators():
    # Fraction would build 10^n for "1en" and raise ZeroDivisionError for
    # "1/0"; both are malformed input, a ValueError
    for bad in ("1e5", "2E-3", "1.5e2", "1/0", "-3/0", " 0/0 "):
        with pytest.raises(ValueError):
            Q.elem_from_json(bad)
    assert_canonical(Q.elem_from_json("0.5"), Fraction(1, 2))
    assert_canonical(Q.elem_from_json("-1.25"), Fraction(-5, 4))
    assert_canonical(Q.elem_from_json(" 4/2 "), 2)
