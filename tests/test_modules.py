import random
from fractions import Fraction

import pytest

from modfact.modules import (ModulePresentation, NotQuotientModule,
                             kmat_mul, kmat_identity, kmat_rank, kmat_solve,
                             kmat_nullspace, kmat_inv)
from modfact.fields import PrimeField, ExtensionField, RationalField

from common import R5x2, R5x3, RS, x_, one

xx = [0, 0, 1]


def test_cyclic_quotient_dimensions():
    m = ModulePresentation(R5x3, 1, [[x_]])
    lin = m.linearization()
    assert lin.dim == 1
    m2 = ModulePresentation(R5x3, 1, [[xx]])
    assert m2.linearization().dim == 2
    assert m.check_abar() and m2.check_abar()


def test_normal_form_is_a_coset_representative():
    m = ModulePresentation(R5x2, 2, [[x_, one], [[], x_]])
    lin = m.linearization()
    # x * e0 + e1 is a relation, so its normal form vanishes
    assert lin.normal_form([x_, one]) == [[], []]
    nf = lin.normal_form([xx, []])
    assert lin.encode([xx, []]) == lin.encode(nf)
    assert lin.decode(lin.encode(nf)) == nf


def test_free_directions_are_rejected():
    free = ModulePresentation(R5x2, 1, [])
    with pytest.raises(NotQuotientModule):
        free.linearization()
    # relation x^3 does not absorb omega = x^2 acting on the generator
    loose = ModulePresentation(R5x2, 1, [[[0, 0, 0, 1]]])
    assert not loose.check_abar()


def test_x_matrix_represents_multiplication():
    m = ModulePresentation(R5x2, 1, [[xx]])
    lin = m.linearization()
    xm = lin.x_matrix()
    v = [one]
    # coords(x * v) = coords(v) * X in the commutative case
    lhs = lin.encode([R5x2.mul(x_, p) for p in v])
    rhs = kmat_mul(R5x2.field, [lin.encode(v)], xm, lin.dim)[0]
    assert lhs == rhs


def test_presentation_json_roundtrip():
    xs = [RS.field.zero, RS.field.one]
    m = ModulePresentation(RS, 2, [[xs, [RS.field.one]], [[], xs]])
    back = ModulePresentation.from_json(RS, m.to_json())
    assert back == m


def test_field_matrix_helpers():
    fld = PrimeField(5)
    m = [[1, 2], [3, 4]]
    assert kmat_rank(fld, m) == 2
    inv = kmat_inv(fld, m)
    assert kmat_mul(fld, m, inv, 2) == kmat_identity(fld, 2)
    sing = [[1, 2], [2, 4]]
    assert kmat_rank(fld, sing) == 1
    ns = kmat_nullspace(fld, sing)
    assert len(ns) == 1
    assert kmat_mul(fld, ns, sing, 2) == [[0, 0]]
    sol = kmat_solve(fld, m, [[1, 0]])
    assert sol is not None and kmat_mul(fld, sol, m, 2) == [[1, 0]]
    # an (a x 0)(0 x c) product keeps its width
    assert kmat_mul(fld, [[], []], [], 3) == [[0, 0, 0], [0, 0, 0]]
    assert kmat_mul(fld, [], [[1, 2]], 2) == []


# -- properties of the k-matrix helpers on random matrices --

KFIELDS = [PrimeField(5), ExtensionField(2, 2), RationalField()]


def _entry(fld, rng):
    if fld == RationalField():
        return fld.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return fld.random(rng)


def _product(fld, a, b, cols):
    """a * b with b's width given, so that b may have no rows."""
    out = []
    for arow in a:
        acc = [fld.zero] * cols
        for c, brow in zip(arow, b):
            acc = [fld.add(s, fld.mul(c, e)) for s, e in zip(acc, brow)]
        out.append(acc)
    return out


def _random_kmat(fld, rng, rows, cols):
    """A product of random rows x k and k x cols factors, so the rank is
    at most k and often below min(rows, cols), with a row and a column
    zeroed now and then."""
    k = rng.randint(0, min(rows, cols))
    a = [[_entry(fld, rng) for _ in range(k)] for _ in range(rows)]
    b = [[_entry(fld, rng) for _ in range(cols)] for _ in range(k)]
    m = _product(fld, a, b, cols)
    if rows and rng.random() < 0.3:
        m[rng.randrange(rows)] = [fld.zero] * cols
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in m:
            row[j] = fld.zero
    return m


def _kmat_cases(fld, seed, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        yield rng, cols, _random_kmat(fld, rng, rows, cols)


def _same(fld, a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(fld.is_zero(fld.sub(x, y)) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


@pytest.mark.parametrize("fld", KFIELDS, ids=lambda f: f.kind)
def test_kmat_rank_nullity_and_kernel(fld):
    for _, cols, m in _kmat_cases(fld, 31):
        before = [list(r) for r in m]
        rank = kmat_rank(fld, m)
        ns = kmat_nullspace(fld, m)
        assert m == before  # neither helper changes its input
        assert rank <= min(len(m), cols)
        assert rank + len(ns) == len(m)
        assert all(len(v) == len(m) for v in ns)
        assert kmat_rank(fld, ns) == len(ns)
        assert _same(fld, _product(fld, ns, m, cols), [[fld.zero] * cols for _ in ns])


@pytest.mark.parametrize("fld", KFIELDS, ids=lambda f: f.kind)
def test_kmat_solve_inside_and_outside_the_row_space(fld):
    outside = 0
    for rng, cols, m in _kmat_cases(fld, 37):
        rows = len(m)
        coeffs = [[_entry(fld, rng) for _ in range(rows)] for _ in range(3)]
        rhs = _product(fld, coeffs, m, cols)
        x = kmat_solve(fld, m, rhs)
        assert x is not None and all(len(r) == rows for r in x)
        assert _same(fld, _product(fld, x, m, cols), rhs)
        rank = kmat_rank(fld, m)
        for _ in range(3):
            v = [_entry(fld, rng) for _ in range(cols)]
            if kmat_rank(fld, m + [v]) > rank:
                outside += 1
                assert kmat_solve(fld, m, [v]) is None
                assert kmat_solve(fld, m, rhs + [v]) is None
    assert outside > 10


@pytest.mark.parametrize("fld", KFIELDS, ids=lambda f: f.kind)
def test_kmat_inv_inverts_exactly_the_full_rank_squares(fld):
    singular = 0
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(0, 4)
        if rng.random() < 0.5:
            m = [[_entry(fld, rng) for _ in range(n)] for _ in range(n)]
        else:
            m = _random_kmat(fld, rng, n, n)
        inv = kmat_inv(fld, m)
        if kmat_rank(fld, m) < n:
            singular += 1
            assert inv is None
        else:
            assert inv is not None
            assert _same(fld, _product(fld, m, inv, n), kmat_identity(fld, n))
            assert _same(fld, _product(fld, inv, m, n), kmat_identity(fld, n))
    assert singular > 5


def _dependent_rows(fld, m):
    """Rows i of m with rank(m[:i+1]) == rank(m[:i])."""
    ranks = [kmat_rank(fld, m[:i]) for i in range(len(m) + 1)]
    return [i for i in range(len(m)) if ranks[i + 1] == ranks[i]]


@pytest.mark.parametrize("fld", [PrimeField(2), PrimeField(5), RationalField()],
                         ids=["f2", "f5", "q"])
def test_kmat_answers_are_the_reduced_ones(fld):
    # X * m = rhs and v * m = 0 are read off the reduced echelon form of
    # m^T: a dependent row of m is a pivotless unknown, 0 in the solution,
    # and the null-space vector of a dependent row is 1 there and 0 at
    # every other dependent row
    rng = random.Random(43)
    deficient = 0
    for _ in range(300):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = _random_kmat(fld, rng, rows, cols)
        dep = _dependent_rows(fld, m)
        deficient += bool(dep)
        coeffs = [[_entry(fld, rng) for _ in range(rows)] for _ in range(2)]
        x = kmat_solve(fld, m, _product(fld, coeffs, m, cols))
        assert all(fld.is_zero(row[i]) for row in x for i in dep)
        ns = kmat_nullspace(fld, m)
        assert len(ns) == len(dep)
        for v, i in zip(ns, dep):
            want = [[fld.one if j == i else fld.zero for j in dep]]
            assert _same(fld, [[v[j] for j in dep]], want)
    assert deficient > 150
