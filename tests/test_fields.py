import pickle
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from modfact.fields import (RationalField, ExtensionField, MAX_CARD,
                            _canonical, field_from_json, shown)

Q = RationalField()

# either form may reach the field: canonical ints and Fractions, and
# integral Fractions such as Fraction(2) from callers that build their own
rationals = st.one_of(st.integers(-40, 40),
                      st.fractions(min_value=-20, max_value=20, max_denominator=12))


def assert_canonical(c, expected):
    assert c == expected
    if Fraction(expected).denominator == 1:
        assert type(c) is int
        return
    assert type(c) is Fraction
    # built on its slots, so it must be in lowest terms with a positive
    # denominator, and indistinguishable from the Fraction Fraction builds
    n, d = c._numerator, c._denominator
    assert gcd(n, d) == 1 and d > 0
    want = Fraction(expected)
    assert (hash(c), str(c), repr(c)) == (hash(want), str(want), repr(want))
    back = pickle.loads(pickle.dumps(c))
    assert type(back) is Fraction and back == want and hash(back) == hash(want)
    third = Fraction(1, 3)
    assert c + third == want + third and third - c == third - want
    assert c * third == want * third and c / third == want / third
    assert 3 * c == 3 * want and c ** 2 == want ** 2 and -c == -want
    assert c < want + third and c > want - third and abs(c) == abs(want)


def test_fraction_keeps_the_two_slots_rationals_are_built_on():
    # RationalField builds reduced Fractions by setting these two slots
    # on object.__new__(Fraction); a Fraction laid out otherwise must fail
    # here, not corrupt arithmetic
    assert Fraction.__slots__ == ("_numerator", "_denominator")


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


def fraction_parse(data):
    """elem_from_json as it read every string before its fast path:
    Fraction's own parser, with the same refusals and messages."""
    if not isinstance(data, str) or "e" in data or "E" in data:
        raise ValueError("rational elements encode as strings with no "
                         "exponent: %s" % shown(data))
    try:
        return _canonical(Fraction(data))
    except ZeroDivisionError:
        raise ValueError("zero denominator: %s" % shown(data)) from None
    except ValueError:
        raise ValueError("not a rational: %s" % shown(data)) from None


def outcome(decode, data):
    try:
        value = decode(data)
    except ValueError as exc:
        return "error", str(exc)
    return "value", type(value), value


def assert_parses_as_fraction_does(data):
    assert outcome(Q.elem_from_json, data) == outcome(fraction_parse, data), data


# digits of other scripts: "\u0663" is Arabic-Indic 3, which Fraction and
# int() both read; "\u00b3" is superscript 3, which neither does
RATIONAL_CORPUS = [
    "0", "-0", "00", "007", "-12", "0/5", "-0/5", "2/4", "-3/1", "1/1", "0/1",
    "3/4", "-3/4", "3/0", "-3/0", "+3", "+3/4", " 3", "3 ", "3/ 4", "3 /4",
    "3/-4", "-3/-4", "--3", "1_000", "1_000/3", "1.5", "-.5", "1e5", "-",
    "", "/", "3/", "/4", "1/2/3", "\u0663", "-\u0663/4", "\u00b3", "3\u00b3",
    "1" * 5000, "-" + "1" * 5000, "1/" + "3" * 5000, "3" * 5000 + "/7",
    "-" + "1" * 4300, "1" * 4300 + "/7", "1/" + "7" * 4301,
]


def test_rational_fast_path_matches_fractions_parser_on_a_corpus():
    for data in RATIONAL_CORPUS:
        assert_parses_as_fraction_does(data)


rational_text = st.one_of(
    st.text(alphabet="0123456789-+/ _.eE\u0663\u00b3", max_size=10),
    st.integers().map(str),
    st.builds("{}/{}".format, st.integers(-10 ** 30, 10 ** 30),
              st.integers(-5, 10 ** 30)))


@given(rational_text)
@settings(max_examples=500, deadline=None)
def test_rational_fast_path_matches_fractions_parser(data):
    assert_parses_as_fraction_does(data)


# -- F_{p^e} --------------------------------------------------------------

def schoolbook_mul(a, b, modulus, p):
    """a * b in F_p[u]/(modulus) by long multiplication, then reduction
    with u^e = -(modulus[0] + ... + modulus[e-1] u^(e-1))."""
    e = len(modulus) - 1
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, e - 1, -1):
        c, prod[k] = prod[k], 0
        for i in range(e):
            prod[k - e + i] -= c * modulus[i]
    return tuple(c % p for c in prod[:e])


# F_16 mod x^4+x^3+x^2+x+1 is irreducible but u has order 5, so the table
# build must find its primitive element elsewhere
EXT_FIELDS = [(2, 2, None), (2, 3, None), (3, 2, None), (5, 2, None),
              (3, 3, None), (2, 4, [1, 1, 1, 1, 1])]


def assert_element(F, a):
    assert type(a) is tuple and len(a) == F.e
    assert all(type(c) is int and 0 <= c < F.p for c in a)


@pytest.mark.parametrize("p,e,modulus", EXT_FIELDS)
def test_extension_tables_match_schoolbook_arithmetic(p, e, modulus):
    F = ExtensionField(p, e, modulus)
    mod = F.modulus
    elems = list(F.elements())
    assert len(set(elems)) == F.card == p ** e
    if modulus is not None:
        # u^5 = 1: u is not primitive in F_16 under this modulus
        x = F.one
        for _ in range(5):
            x = schoolbook_mul(x, F.gen, mod, p)
        assert x == F.one
    assert F.zero == (0,) * e and F.one == (1,) + (0,) * (e - 1)
    for a in elems:
        assert F.is_zero(a) == (a == F.zero)
        assert_element(F, F.neg(a))
        assert F.neg(a) == tuple((-c) % p for c in a)
        # frobenius x -> x^(p^k) by repeated multiplication, for k up to
        # the period e and for k shifted by the period either way
        power = a
        for k in range(e + 1):
            for shift in (k, k - e, k + e):
                got = F.frob(a, shift)
                assert_element(F, got)
                assert got == power, (a, shift)
            step = F.one
            for _ in range(p):
                step = schoolbook_mul(step, power, mod, p)
            power = step
        if a == F.zero:
            with pytest.raises(ZeroDivisionError):
                F.inv(a)
        else:
            inv = F.inv(a)
            assert_element(F, inv)
            assert schoolbook_mul(a, inv, mod, p) == F.one
        for b in elems:
            for got, want in ((F.add(a, b), tuple((x + y) % p for x, y in zip(a, b))),
                              (F.sub(a, b), tuple((x - y) % p for x, y in zip(a, b))),
                              (F.mul(a, b), schoolbook_mul(a, b, mod, p))):
                assert_element(F, got)
                assert got == want, (a, b)


def test_largest_field_builds_and_multiplies():
    rng = random.Random(0)
    F = ExtensionField(2, 12)
    assert F.card == MAX_CARD == 4096
    for _ in range(200):
        a, b = F.random(rng), F.random(rng)
        assert F.mul(a, b) == schoolbook_mul(a, b, F.modulus, 2)
        assert F.add(a, b) == tuple(x ^ y for x, y in zip(a, b))


@pytest.mark.parametrize("spec", [
    {"kind": "finite", "p": 2, "e": 13},
    {"kind": "finite", "p": 2, "e": 32},
    {"kind": "finite", "p": 2, "e": 64},
    {"kind": "finite", "p": 2, "e": 10 ** 18},
    {"kind": "finite", "p": 4099, "e": 2},
    {"kind": "finite", "p": 1000003, "e": 2},
    {"kind": "finite", "p": 10007, "e": 4},
    {"kind": "finite", "p": 2, "e": 32, "modulus": [1] + [0] * 31 + [1]},
])
def test_oversized_fields_are_refused_at_once(spec):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="field size cap"):
        field_from_json(spec)
    assert time.perf_counter() - start < 1
