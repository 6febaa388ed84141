import random

from hypothesis import given, settings
import hypothesis.strategies as st

from modfact.matrices import (TwistedMatrix, mat_mul, mat_identity,
                              hermite_form, solve_right, smith_form,
                              invariant_factors)

from common import R5x2, R5x3, RQ2, RS, RS1, x_, one

RINGS = [R5x3, RQ2, RS, RS1]
COMMUTATIVE = [R5x3, RQ2]


def rand_mat(ring, rng, rows, cols, max_deg=2):
    return [[ring.random_poly(rng, max_deg) for _ in range(cols)]
            for _ in range(rows)]


seeds = st.integers(0, 10 ** 6)
shapes = st.tuples(st.integers(1, 3), st.integers(1, 3))


@given(st.sampled_from(RINGS), seeds, shapes)
@settings(max_examples=80, deadline=None)
def test_mat_mul_is_associative(ring, seed, shape):
    rng = random.Random(seed)
    r, c = shape
    a = rand_mat(ring, rng, r, c)
    b = rand_mat(ring, rng, c, 2)
    c3 = rand_mat(ring, rng, 2, r)
    # (a b) c = a (b c)
    assert mat_mul(ring, mat_mul(ring, a, b), c3) == \
        mat_mul(ring, a, mat_mul(ring, b, c3))
    assert mat_mul(ring, mat_identity(ring, r), a) == a


@given(st.sampled_from(RINGS), seeds, shapes)
@settings(max_examples=80, deadline=None)
def test_twisted_composition_matches_row_vector_action(ring, seed, shape):
    rng = random.Random(seed)
    r, c = shape
    a = TwistedMatrix(ring, rand_mat(ring, rng, r, c), rng.randint(0, 1),
                      rows=r, cols=c)
    b = TwistedMatrix(ring, rand_mat(ring, rng, c, 2), rng.randint(0, 1),
                      rows=c, cols=2)
    vec = [ring.random_poly(rng, 2) for _ in range(r)]
    # acting by a then b equals acting by the composite
    assert b.apply(a.apply(vec)) == a.then(b).apply(vec)
    # twists add under composition
    assert a.then(b).twist == a.twist + b.twist


@given(st.sampled_from(RINGS), seeds)
@settings(max_examples=60, deadline=None)
def test_twisted_matrix_additive_laws(ring, seed):
    rng = random.Random(seed)
    t = rng.randint(0, 1)
    a = TwistedMatrix(ring, rand_mat(ring, rng, 2, 2), t, rows=2, cols=2)
    b = TwistedMatrix(ring, rand_mat(ring, rng, 2, 2), t, rows=2, cols=2)
    c = TwistedMatrix(ring, rand_mat(ring, rng, 2, 3), rng.randint(0, 1),
                      rows=2, cols=3)
    # (a + b) c = a c + b c
    assert a.add(b).then(c) == a.then(c).add(b.then(c))
    assert a.sub(a).is_zero()
    assert a.neg().neg() == a
    # sigma acts entrywise and composes
    assert a.sigma_entries(1).sigma_entries(-1) == a


@given(st.sampled_from(RINGS), seeds, shapes)
@settings(max_examples=80, deadline=None)
def test_hermite_form_contract(ring, seed, shape):
    rng = random.Random(seed)
    r, c = shape
    m = rand_mat(ring, rng, r, c)
    h, u, pivots = hermite_form(ring, m)
    # u m = h
    assert mat_mul(ring, u, m) == h
    assert len(pivots) <= min(r, c)


@given(st.sampled_from(RINGS), seeds, shapes)
@settings(max_examples=80, deadline=None)
def test_solve_right_on_constructed_systems(ring, seed, shape):
    rng = random.Random(seed)
    r, c = shape
    m = rand_mat(ring, rng, r, c, max_deg=1)
    x = rand_mat(ring, rng, 2, r, max_deg=1)
    rhs = mat_mul(ring, x, m)
    sol = solve_right(ring, m, rhs)
    assert sol is not None
    assert mat_mul(ring, sol, m) == rhs


def test_solve_right_empty_rhs():
    assert solve_right(R5x3, [[x_]], []) == []


@given(st.sampled_from(COMMUTATIVE), seeds, shapes)
@settings(max_examples=60, deadline=None)
def test_smith_form_contract(ring, seed, shape):
    rng = random.Random(seed)
    r, c = shape
    m = rand_mat(ring, rng, r, c, max_deg=2)
    d, u, v, v_inv = smith_form(ring, m)
    assert mat_mul(ring, mat_mul(ring, u, m), v) == d
    assert mat_mul(ring, v, v_inv) == mat_identity(ring, c)
    # diagonal with ascending divisibility
    diag = [d[i][i] for i in range(min(r, c))]
    for i in range(r):
        for j in range(c):
            if i != j:
                assert d[i][j] == []
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert ring.right_quo_rem(b, a)[1] == []
        else:
            assert not b or a  # zeros sink to the end


def test_invariant_factors_of_known_matrices():
    # diag(x, x^2) has factors x, x^2
    m = [[x_, []], [[], [0, 0, 1]]]
    assert invariant_factors(R5x3, m) == [x_, [0, 0, 1]]
    # a unit row contributes nothing
    assert invariant_factors(R5x3, [[one]]) == []
    # rank-deficient directions report as free
    fs = invariant_factors(R5x3, [[x_, x_]])
    assert fs == [x_, []]


def test_twisted_matrix_json_roundtrip():
    rng = random.Random(3)
    for ring in RINGS:
        m = TwistedMatrix(ring, rand_mat(ring, rng, 2, 3), 1, rows=2, cols=3)
        assert TwistedMatrix.from_json(ring, m.to_json()) == m
