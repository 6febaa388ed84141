import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from modfact.fields import ExtensionField
from modfact.matrices import TwistedMatrix
from modfact.rings import BaseRing
from modfact.factorizations import (Factorization, Morphism, theta,
                                    theta_morphism, omega_morphism, shift,
                                    shift_inverse, shift_power,
                                    shift_power_morphism, shift_morphism,
                                    shift_inverse_morphism,
                                    face, face_morphism, degeneracy,
                                    degeneracy_morphism, direct_sum,
                                    direct_sum_morphism, summand_inclusion,
                                    summand_projection, face0_transport,
                                    face0_transport_back, top_transport,
                                    top_transport_back, reindex,
                                    reindex_morphism, compose_plans,
                                    arc_morphism)
from modfact import randomgen as rg
from modfact.laws import Scenario, run_suites
from modfact.recollement import recollement, face0_pair, top_pair

from common import R5x2, R5x3, RQ2, RS, RS1, X2, X2b, X3b, XS, mk, x_, one

# sigma is not the identity on RS1, F_4[x; Frob] with omega = x, and has
# order 3 on RS8, F_8[x; Frob] with omega = x^2, where sigma and its
# inverse differ
F8 = ExtensionField(2, 3)
RS8 = BaseRing(F8, 1, [F8.zero, F8.zero, F8.one])
RINGS = [R5x3, RQ2, RS, RS1, RS8]
seeds = st.integers(0, 10 ** 6)
folds = st.integers(1, 4)


def robj(ring, seed, n):
    return rg.random_object(ring, random.Random(seed), n, max_rank=2, max_deg=2)


def rmor(x, y, seed):
    return rg.random_morphism(random.Random(seed), x, y, max_deg=1)


def test_fold_one_objects_are_omega_identities():
    t1 = theta(R5x3, 1, 0, 2)
    assert t1.maps[0] == TwistedMatrix.omega_identity(R5x3, 2)
    bad = TwistedMatrix(R5x3, [[R5x3.omega, one], [[], R5x3.omega]], 1)
    with pytest.raises(ValueError):
        Factorization(R5x3, [2], [bad]).assert_valid()


def test_rotation_defects_catch_corruption():
    assert not X3b.rotation_defects()
    broken = [TwistedMatrix(R5x3, m.m, m.twist) for m in X3b.maps]
    broken[1].m[0][1] = R5x3.add(list(broken[1].m[0][1]), one)
    y = Factorization(R5x3, X3b.ranks, broken)
    assert y.rotation_defects()


def test_theta_objects_validate():
    for n in (1, 2, 3, 4):
        for i in range(n):
            theta(R5x3, n, i, 2).assert_valid()
            theta(RS, n, i, 1).assert_valid()


@given(st.sampled_from(RINGS), seeds, folds)
@settings(max_examples=60, deadline=None)
def test_shift_inverts(ring, seed, n):
    x = robj(ring, seed, n)
    assert shift_inverse(shift(x)) == x
    assert shift(shift_inverse(x)) == x
    # n applications of the shift twist the identity (one at a time,
    # against sigma_twist, which is built apart from the shift)
    full = x
    for _ in range(x.n):
        full = shift(full)
    assert full == x.sigma_twist(-1)


def _fold(x, i, j):
    out = TwistedMatrix.identity(x.ring, x.ranks[i % x.n], 0)
    for k in range(i, j + 1):
        out = out.then(x.maps[k % x.n])
    return out


def test_compose_range_is_the_fold_of_the_maps_around_the_cycle():
    # every range, those that run past slot n-1 through the twisted last
    # map included, against a left fold of maps[k % n] (the identity for
    # an empty range); a fresh copy asks for the ranges in reverse, so the
    # memo cannot lean on the order of the calls
    rng = random.Random(21)
    for ring in rg.default_instances():
        for n in range(1, 5):
            x = rg.random_object(ring, rng, n, max_rank=2)
            fresh = Factorization(ring, x.ranks, x.maps)
            pairs = [(i, j) for i in range(n + 1) for j in range(i - 1, i + n)]
            for i, j in pairs:
                assert x.compose_range(i, j) == _fold(x, i, j), (i, j)
            for i, j in reversed(pairs):
                assert fresh.compose_range(i, j) == _fold(x, i, j), (i, j)
            for i in range(n + 1):
                with pytest.raises(ValueError):
                    x.compose_range(i, i + n)
                with pytest.raises(ValueError):
                    x.compose_range(i, i - 2)
            with pytest.raises(ValueError):
                x.compose_range(n + 1, n + 1)
            # an arc walks forward from slot a until it reaches slot b
            for a in range(n):
                for b in range(n):
                    want = TwistedMatrix.identity(ring, x.ranks[a], 0)
                    k = a
                    while k % n != b:
                        want = want.then(x.maps[k % n])
                        k += 1
                    assert x.arc(a, b) == want, (a, b)


def test_arcs_into_a_slot_are_the_arcs_and_fill_the_memo():
    # arcs_into(b) extends to the left; its arcs, those through the
    # twisted last map included, are compose_range's arc(a, b), its arc of
    # length 1 is the map itself, and afterwards compose_range reads equal
    # matrices from the memo it filled
    rng = random.Random(24)
    for ring in rg.default_instances():
        for n in range(1, 6):
            x = rg.random_object(ring, rng, n, max_rank=2)
            fresh = Factorization(ring, x.ranks, x.maps)
            for b in range(n):
                into = fresh.arcs_into(b)
                assert sorted(into) == list(range(n))
                for a in range(n):
                    assert into[a] == x.arc(a, b), (a, b)
                if n > 1:
                    assert into[(b - 1) % n] is fresh.maps[(b - 1) % n]
            for i in range(n + 1):
                for j in range(i - 1, i + n):
                    assert fresh.compose_range(i, j) == _fold(x, i, j), (i, j)


def test_shift_power_reduces_by_the_period():
    # shift^(n e) is the identity, e the degree of the field over its prime
    # field; shift_power takes the laps of a huge exponent as one power of
    # sigma, so it costs no more than a small one
    rng = random.Random(22)
    for ring in rg.default_instances():
        e = getattr(ring.field, "e", 1)
        for n in range(1, 5):
            x = rg.random_object(ring, rng, n, max_rank=2)
            f = rg.random_morphism(rng, x, x, max_deg=1)
            y, g = x, f
            for _ in range(n * e):
                y, g = shift(y), shift_morphism(g)
            assert y == x and g == f
            for a in range(-5, 9):
                y, g = x, f
                for _ in range(a % (n * e)):
                    y, g = shift(y), shift_morphism(g)
                for big in (a + 10 ** 12 * n * e, a - 10 ** 12 * n * e):
                    assert shift_power(x, big) == y, (n, a)
                    assert shift_power_morphism(f, big) == g, (n, a)


@given(st.sampled_from(RINGS), seeds, folds, seeds, seeds)
@example(RS1, 5, 3, 7, 11)
@example(RS8, 5, 3, 7, 11)
@settings(max_examples=60, deadline=None)
def test_shift_powers_add_their_laps(ring, seed, n, ra, rb):
    # shift_power(x, a) reads a as laps around the cycle plus a start slot;
    # powers of either sign add on objects and morphisms, for a and b in
    # [-3 n e, 3 n e], and every face and degeneracy of a morphism is one
    p = 3 * n * getattr(ring.field, "e", 1)
    a, b = ra % (2 * p + 1) - p, rb % (2 * p + 1) - p
    x = robj(ring, seed, n)
    f = rmor(x, robj(ring, seed + 1, n), seed + 2)
    assert shift_power(shift_power(x, a), b) == shift_power(x, a + b)
    g = shift_power_morphism(shift_power_morphism(f, a), b)
    assert g == shift_power_morphism(f, a + b)
    assert g.is_valid()
    images = [face_morphism(f, i) for i in range(n + 1)]
    images += [degeneracy_morphism(f, i) for i in range(n if n >= 2 else 0)]
    for h in images:
        assert h.is_valid() and h.source.is_valid() and h.target.is_valid()


def _plan(draw, n):
    # a plan on fold n: nondecreasing, laps either way, none past plan[0] + n
    a0 = draw(st.integers(-2 * n, 2 * n))
    rest = draw(st.lists(st.integers(a0, a0 + n), min_size=0, max_size=4))
    return [a0] + sorted(rest)


@given(st.sampled_from([R5x3, RQ2, RS1, RS8]), seeds, folds, st.data())
@settings(max_examples=80, deadline=None)
def test_composed_plans_reindex_in_one_pass(ring, seed, n, data):
    # reindexing by p and then by q is reindexing by compose_plans(p, q, n),
    # on objects and on morphisms
    p = _plan(data.draw, n)
    q = _plan(data.draw, len(p))
    x = robj(ring, seed, n)
    f = rmor(x, robj(ring, seed + 1, n), seed + 2)
    pq = compose_plans(p, q, n)
    assert reindex(reindex(x, p), q) == reindex(x, pq)
    assert reindex_morphism(reindex_morphism(f, p), q) == reindex_morphism(f, pq)


def test_arc_morphism_needs_plans_within_one_lap():
    for a, b in (([0, 1, 2], [0, 0, 2]), ([0, 0, 0], [1, 3, 4])):
        with pytest.raises(ValueError, match="no arc from unrolled slot"):
            arc_morphism(X3b, a, b)
    with pytest.raises(ValueError, match="share ring and fold count"):
        arc_morphism(X3b, [0, 1], [0, 1, 2])
    # both ends of the bound: the identity, and omega around a whole lap
    for x in (X3b, XS, robj(RS8, 3, 3)):
        ident, one_lap = list(range(x.n)), list(range(x.n, 2 * x.n))
        assert arc_morphism(x, ident, ident) == Morphism.identity(x)
        assert arc_morphism(x, ident, one_lap) == omega_morphism(x)
        assert arc_morphism(x, [-1] * x.n, ident).is_valid()


@given(st.sampled_from(RINGS), seeds, folds)
@settings(max_examples=60, deadline=None)
def test_face_degeneracy_identities(ring, seed, n):
    x = robj(ring, seed, n)
    # degeneracy . face = id in every slot, including the wraparound one
    for i in range(x.n + 1):
        y = face(x, i)
        y.assert_valid()
        assert y.n == x.n + 1
        assert degeneracy(y, i) == x
    # the top face is the rotated bottom face
    assert face(x, x.n) == shift(face(x, 0))


@given(st.sampled_from(RINGS), seeds, st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_shift_face_exchange(ring, seed, n):
    x = robj(ring, seed, n)
    for i in range(x.n):
        assert shift(face(x, i + 1)) == face(shift(x), i)
    y = face(x, 0)
    for i in range(1, y.n - 1):
        assert degeneracy(shift(y), i) == shift(degeneracy(y, i + 1))


def test_shifted_theta_drops_the_index():
    for n in (2, 3, 4):
        for i in range(n - 1):
            assert shift(theta(R5x3, n, i + 1, 2)) == theta(R5x3, n, i, 2)


@given(st.sampled_from(RINGS), seeds, st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_morphism_algebra(ring, seed, n):
    x = robj(ring, seed, n)
    y = robj(ring, seed + 1, n)
    f = rmor(x, y, seed + 2)
    g = rmor(y, y, seed + 3)
    f.assert_valid()
    assert Morphism.identity(x).then(f) == f
    assert f.then(Morphism.identity(y)) == f
    assert f.add(f.neg()).is_zero()
    assert f.then(g).components[0].rows == x.ranks[0]
    # functoriality of the shift on composites
    assert shift_morphism(f.then(g)) == shift_morphism(f).then(shift_morphism(g))
    for i in range(x.n):
        assert face_morphism(f.then(g), i) == \
            face_morphism(f, i).then(face_morphism(g, i))


def test_theta_morphism_components():
    g = TwistedMatrix(R5x3, [[x_, one], [[], x_]], 0)
    for i in range(3):
        tm = theta_morphism(R5x3, 3, i, g)
        tm.assert_valid()
        for j in range(3):
            want = g.sigma_entries(1) if j < i else g
            assert tm.components[j] == want


@given(st.sampled_from(RINGS), seeds, st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_adjunction_transports_are_mutually_inverse(ring, seed, n):
    x = robj(ring, seed, n)
    y = robj(ring, seed + 1, n + 1)
    g = rmor(face(x, 0), y, seed + 2)
    back = face0_transport_back(face0_transport(g), y)
    assert back.components == g.components
    f = rmor(x, degeneracy(y, 0), seed + 3)
    assert face0_transport(face0_transport_back(f, y)).components == f.components
    h = rmor(degeneracy(y, y.n - 2), x, seed + 4)
    assert top_transport_back(top_transport(h, y), x).components == h.components
    hh = rmor(y, face(x, x.n), seed + 5)
    assert top_transport(top_transport_back(hh, x), y).components == hh.components


def test_direct_sum_and_summand_maps():
    parts = [X2, X2b]
    s = direct_sum(parts)
    s.assert_valid()
    assert s.ranks == [3, 3]
    for t in range(2):
        inc = summand_inclusion(parts, t)
        prj = summand_projection(parts, t)
        inc.assert_valid()
        prj.assert_valid()
        assert inc.then(prj) == Morphism.identity(parts[t])
    f = direct_sum_morphism([Morphism.identity(X2), omega_morphism(X2b)])
    f.assert_valid()


def test_factorization_json_roundtrip():
    for x in (X3b, XS, theta(RQ2, 3, 1, 2)):
        assert Factorization.from_json(x.ring, x.to_json()) == x
        f = omega_morphism(x) if x.ring.commutative else Morphism.identity(x)
        back = Morphism.from_json(x, x, f.to_json())
        assert back == f


def _functor_blobs(ring, rng, n):
    # the JSON of every shift, face and degeneracy of one object and of one
    # morphism with its endpoints, shift powers for |a| <= 2 n e + 1
    e = getattr(ring.field, "e", 1)
    x = rg.random_object(ring, rng, n, max_rank=2)
    y = rg.random_object(ring, rng, n, max_rank=2)
    f = rg.random_morphism(rng, x, y, max_deg=1)

    def mor(g):
        return [g.source.to_json(), g.target.to_json(), g.to_json()]

    out = [shift(x).to_json(), shift_inverse(x).to_json(), mor(shift_morphism(f)),
           mor(shift_inverse_morphism(f))]
    for a in range(-2 * n * e - 1, 2 * n * e + 2):
        out += [shift_power(x, a).to_json(), mor(shift_power_morphism(f, a))]
    for i in range(n + 1):
        out += [face(x, i).to_json(), mor(face_morphism(f, i))]
    for i in range(n if n >= 2 else 0):
        out += [degeneracy(x, i).to_json(), mor(degeneracy_morphism(f, i))]
    return [json.dumps(b, sort_keys=True) for b in out]


def test_functors_and_their_laws_keep_their_bytes():
    # one sha256 over every functor output on the 10 stock rings at folds
    # 1-4 and the seed-0 functor-laws, adjunction and recollement reports;
    # recorded while each functor still had its own hand-written body
    rng = random.Random(71)
    blobs = []
    for ring in rg.default_instances():
        for n in (1, 2, 3, 4):
            blobs += _functor_blobs(ring, rng, n)
        rep = run_suites(Scenario(ring, seed=0, cases=6),
                         names=["functor-laws", "adjunction", "recollement"])
        assert rep["passed"]
        # the adjunction suite has since gained two cases per draw, the
        # top pair's unit and counit against its transports; all else is
        # as recorded
        for suite in rep["suites"]:
            if suite["name"] == "adjunction":
                suite["cases"] -= 2 * 6
        blobs.append(json.dumps(rep, sort_keys=True))
    assert len(blobs) == 1830
    assert hashlib.sha256("\n".join(blobs).encode()).hexdigest() == (
        "d99c4325f7cd67728f92f71e9b10479ef28454f574a44e683f506eaee4fa8e6f")


def _functor_answers(x, y, f, g, h, k, m):
    # every functor, transport, unit and counit on inputs of fold n (x, f)
    # and n + 1 (y), g: face_0 x -> y, h: x -> degeneracy_0 y,
    # k: degeneracy_top y -> x, m: y -> face_top x; and one recollement
    # functor, the right section F_n -> F_{n+1}
    n = x.n
    out = [shift(x), shift_inverse(x), shift_morphism(f), shift_inverse_morphism(f)]
    for a in (-2 * n - 1, 0, 2 * n + 1):
        out += [shift_power(x, a), shift_power_morphism(f, a)]
    out += [face(x, i) for i in range(n + 1)] + [face_morphism(f, i) for i in range(n + 1)]
    out += [degeneracy(y, i) for i in range(n + 1)]
    out += [degeneracy_morphism(g, i) for i in range(n + 1)]
    out += [theta_morphism(x.ring, n, i, f.components[0]) for i in range(n)]
    out += [direct_sum([x, x]), direct_sum_morphism([f, f]), summand_inclusion([x, x], 1),
            summand_projection([x, x], 0)]
    out += [face0_pair(n).unit(x), face0_pair(n).counit(y), face0_transport(g),
            face0_transport_back(h, y), top_pair(n).unit(y), top_pair(n).counit(x),
            top_transport(k, y), top_transport_back(m, x)]
    rec = recollement(n + 1, n)
    out += [rec.section_right.obj(x), rec.section_right.mor(f)]
    return out


def _from_json(v):
    # a copy of an object or a morphism and its endpoints that shares nothing
    if isinstance(v, Morphism):
        return Morphism.from_json(_from_json(v.source), _from_json(v.target), v.to_json())
    return Factorization.from_json(v.ring, v.to_json())


def test_functors_neither_change_nor_copy_their_inputs():
    # the functors share the maps and arcs of their inputs, and the
    # transports, units and counits their components, since no matrix is
    # ever mutated; none may change an input, each answer is what fresh
    # copies of the inputs give, and using the answers changes nothing
    rng = random.Random(73)
    for ring in rg.default_instances():
        for n in (1, 2, 3):
            x = rg.random_object(ring, rng, n, max_rank=2)
            y = rg.random_object(ring, rng, n + 1, max_rank=2)
            inputs = [
                x, y,
                rg.random_morphism(rng, x, rg.random_object(ring, rng, n, max_rank=2), 1),
                rg.random_morphism(rng, face(x, 0), y, 1),
                rg.random_morphism(rng, x, degeneracy(y, 0), 1),
                rg.random_morphism(rng, degeneracy(y, n - 1), x, 1),
                rg.random_morphism(rng, y, face(x, n), 1)]
            before = [v.to_json() for v in inputs]
            answers = _functor_answers(*inputs)
            assert [v.to_json() for v in inputs] == before
            after = [a.to_json() for a in answers]
            for a in answers:
                if isinstance(a, Morphism):
                    assert a.is_valid()
                    a.then(Morphism.identity(a.target)).add(a).neg()
                    a = a.source
                assert a.is_valid()
                shift(a)
                face(a, 0)
            assert [v.to_json() for v in inputs] == before
            assert [a.to_json() for a in answers] == after
            fresh = [_from_json(v) for v in inputs]
            assert [a.to_json() for a in _functor_answers(*fresh)] == after
