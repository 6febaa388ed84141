from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from modfact.fields import (RationalField, PrimeField, ExtensionField, field_from_json,
                            is_prime, MR_LIMIT)
from modfact.rings import BaseRing, NotNormalError, ring_from_json
from modfact.randomgen import default_instances

from common import R5x3, RQ2, RS, RS1, RS9


def coeffs(ring):
    if isinstance(ring.field, RationalField):
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.sampled_from(list(ring.field.elements()))


def polys(ring, max_len=5):
    return st.lists(coeffs(ring), max_size=max_len).map(
        lambda cs: ring.trim(list(cs)))


RINGS = [R5x3, RQ2, RS, RS1]
ring_polys = st.sampled_from(RINGS).flatmap(
    lambda r: st.tuples(st.just(r), polys(r), polys(r), polys(r)))


@given(ring_polys)
@settings(max_examples=120, deadline=None)
def test_addition_laws(data):
    ring, f, g, h = data
    # (f + g) + h = f + (g + h)
    assert ring.add(ring.add(f, g), h) == ring.add(f, ring.add(g, h))
    # f + g = g + f
    assert ring.add(f, g) == ring.add(g, f)
    # f + (-f) = 0
    assert ring.add(f, ring.neg(f)) == []


@given(ring_polys)
@settings(max_examples=120, deadline=None)
def test_multiplication_laws(data):
    ring, f, g, h = data
    # (f g) h = f (g h)
    assert ring.mul(ring.mul(f, g), h) == ring.mul(f, ring.mul(g, h))
    # f (g + h) = f g + f h
    assert ring.mul(f, ring.add(g, h)) == ring.add(ring.mul(f, g), ring.mul(f, h))
    # (f + g) h = f h + g h
    assert ring.mul(ring.add(f, g), h) == ring.add(ring.mul(f, h), ring.mul(g, h))
    # 1 f = f 1 = f
    assert ring.mul(ring.one, f) == f and ring.mul(f, ring.one) == f


@given(ring_polys)
@settings(max_examples=120, deadline=None)
def test_omega_is_normal(data):
    ring, f, g, h = data
    # omega f = sigma_omega(f) omega
    assert ring.mul(ring.omega, f) == ring.mul(ring.apply_sigma(f), ring.omega)


@given(ring_polys)
@settings(max_examples=120, deadline=None)
def test_sigma_is_a_ring_map(data):
    ring, f, g, h = data
    assert ring.apply_sigma(ring.mul(f, g)) == ring.mul(ring.apply_sigma(f),
                                                        ring.apply_sigma(g))
    assert ring.apply_sigma(ring.add(f, g)) == ring.add(ring.apply_sigma(f),
                                                        ring.apply_sigma(g))
    # sigma^-1 sigma = id
    assert ring.apply_sigma(ring.apply_sigma(f, 1), -1) == f


@given(ring_polys)
@settings(max_examples=120, deadline=None)
def test_division_identities(data):
    ring, f, g, h = data
    if not g:
        return
    q, r = ring.right_quo_rem(f, g)
    # f = q g + r with deg r < deg g
    assert ring.add(ring.mul(q, g), r) == f
    assert len(r) < len(g)
    q, r = ring.left_quo_rem(f, g)
    # f = g q + r
    assert ring.add(ring.mul(g, q), r) == f
    assert len(r) < len(g)


@given(st.sampled_from([RS, RS1, RS9]).flatmap(
    lambda r: st.tuples(st.just(r), polys(r, max_len=7))))
@settings(max_examples=60, deadline=None)
def test_skew_residue_mod_omega_is_truncation(data):
    # on a skew ring omega = c x^m, so the residue is the part below x^m;
    # homotopy._solve takes residues this way
    ring, f = data
    m = ring.omega_deg
    assert ring.right_quo_rem(f, ring.omega)[1] == ring.trim(f[:m])


# every ring the homotopy engine solves on: the stock rings, an F_8 ring
# where the twist has order 3 and one over F_9 with omega = 2 x^2
F8 = ExtensionField(2, 3)
ENGINE_RINGS = default_instances() + [BaseRing(F8, 1, [F8.zero, F8.zero, F8.one]),
                                      BaseRing(F8, 2, [F8.zero, F8.one]), RS9]


def sparse_polys(ring, max_len=6):
    # trimmed polynomials with many zero coefficients, at x^0 and in the
    # middle as often as not, in canonical form
    fld = ring.field
    return st.lists(st.one_of(st.just(fld.zero), coeffs(ring)), max_size=max_len).map(
        lambda cs: ring.trim([fld.coerce(c) for c in cs]))


def schoolbook_mul(ring, f, g):
    # every product f_i frob^{s i}(g_j) added into x^{i+j}, then trimmed
    fld = ring.field
    out = [fld.zero] * max(0, len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = fld.add(out[i + j], fld.mul(a, fld.frob(b, ring.sigma_power * i)))
    return ring.trim(out)


@given(st.sampled_from(ENGINE_RINGS).flatmap(
    lambda r: st.tuples(st.just(r), sparse_polys(r), sparse_polys(r))))
@settings(max_examples=400, deadline=None)
def test_mul_is_the_schoolbook_product(data):
    # mul adds no product into a coefficient no row has written and
    # trims nothing; it must still give the full schoolbook sum, trimmed,
    # with every coefficient in canonical form
    ring, f, g = data
    got, want = ring.mul(f, g), schoolbook_mul(ring, f, g)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]
    assert [type(ring.field.coerce(c)) for c in got] == [type(c) for c in got]
    assert len(got) == (len(f) + len(g) - 1 if f and g else 0)


def test_commutative_ring_has_trivial_sigma():
    assert R5x3.commutative and R5x3.apply_sigma([2, 3]) == [2, 3]
    assert RQ2.commutative


def test_pretty_prints_f4_coefficients_in_u():
    # an element of F_4 = F_2[u] is its coordinates in 1, u; a sum is
    # parenthesized before a power of x
    poly = [(1, 1), (1, 1), (0, 1), (1, 0)]
    assert RS.pretty(poly) == "1 + u + (1 + u)*x + u*x^2 + x^3"


def test_skew_ring_requires_monomial_omega():
    F4 = ExtensionField(2, 2)
    with pytest.raises(NotNormalError):
        # 1 + x^2 is central, as x^2 commutes with F_4, but skew rings are
        # restricted to monomials omega = c x^m
        BaseRing(F4, 1, [F4.one, F4.zero, F4.one])
    with pytest.raises(NotNormalError):
        BaseRing(F4, 1, [])
    # sigma-fixed leading coefficients are fine: c = 1 in F_4
    BaseRing(F4, 1, [F4.zero, F4.one])
    # a non-fixed leading coefficient is rejected
    gen = (0, 1)
    assert F4.frob(gen, 1) != gen
    with pytest.raises(NotNormalError):
        BaseRing(F4, 1, [F4.zero, gen])


def test_a_unit_omega_is_refused():
    # a nonzero constant would give Lambda = A/(omega) = 0 and no residues
    F4 = ExtensionField(2, 2)
    for field, sigma, omega in ((RationalField(), 0, [Fraction(2)]),
                                (PrimeField(5), 0, [3]), (F4, 1, [F4.one])):
        with pytest.raises(ValueError, match="positive degree"):
            BaseRing(field, sigma, omega)
    with pytest.raises(ValueError, match="positive degree"):
        ring_from_json({"field": {"kind": "rationals"}, "omega": ["2"]})


def test_rational_ring_rejects_frobenius():
    with pytest.raises(ValueError):
        BaseRing(RationalField(), 1, [Fraction(0), Fraction(1)])


def test_ring_json_roundtrip():
    for ring in RINGS:
        data = ring.to_json()
        back = BaseRing(field_from_json(data["field"]), data["sigma_power"],
                        [ring.field.elem_from_json(c) for c in data["omega"]])
        assert back == ring


def test_rational_rings_are_equal_and_hash_alike_whatever_their_input():
    from_fractions = BaseRing(RationalField(), 0, [Fraction(0), Fraction(-1), Fraction(1)])
    from_ints = BaseRing(RationalField(), 0, [0, -1, 1])
    from_json = ring_from_json({"field": {"kind": "rationals"}, "omega": ["0", "-2/2", "1"]})
    rings = [from_fractions, from_ints, from_json]
    for ring in rings:
        assert ring == from_ints and hash(ring) == hash(from_ints)
        assert all(type(c) is int for c in ring.omega)
    assert len(set(rings)) == 1


def test_skew_auto_power_matches_omega_degree():
    # omega = x^2 over F_4 with sigma = Frob composes to Frob^2 = id on F_4
    assert RS.auto_power == 0
    assert RS1.auto_power == 1


def test_is_prime_matches_trial_division_and_rejects_pseudoprimes():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(-3, 5000) if is_prime(n)] == \
        [n for n in range(-3, 5000) if trial(n)]
    # Carmichael numbers and strong pseudoprimes to the first 4, 9 and 12
    # prime bases
    for n in (561, 1105, 3215031751, 3825123056546413051,
              318665857834031151167461, 1000000007 * 2147483647):
        assert not is_prime(n)
    for n in (2 ** 31 - 1, 1000000007, 999999999999999989, 2 ** 61 - 1):
        assert is_prime(n)
    with pytest.raises(ValueError):
        is_prime(MR_LIMIT)


def test_ring_specs_take_only_json_integers():
    good = RS.to_json()
    assert ring_from_json(good) == RS
    bad = [
        {"field": {"kind": "prime", "p": 5.5}, "omega": [0, 0, 1]},
        {"field": {"kind": "prime", "p": "5"}, "omega": [0, 0, 1]},
        {"field": {"kind": "prime", "p": True}, "omega": [0, 1]},
        dict(good, sigma_power=True),
        dict(good, sigma_power=1.0),
        dict(good, field=dict(good["field"], e=2.0)),
        dict(good, field=dict(good["field"], modulus=[1, 1.5, 1])),
        dict(good, field=dict(good["field"], modulus=[1, 1, True])),
        dict(good, omega=[[0, 0], [0, 0], [1.0, 0]]),
        dict(good, omega=[[0, 0], [0, 0], ["1", 0]]),
    ]
    for data in bad:
        with pytest.raises(ValueError):
            ring_from_json(data)
