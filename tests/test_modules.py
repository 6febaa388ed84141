import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from modfact import homotopy, modules
from modfact.modules import (ModulePresentation, NotQuotientModule,
                             residues, times_x, kmat_mul, kmat_identity,
                             kmat_rank, kmat_solve, kmat_nullspace, kmat_inv,
                             _kmat_eliminate)
from modfact.fields import PrimeField, ExtensionField, RationalField
from modfact.rings import BaseRing
from modfact.matrices import TwistedMatrix
from modfact.chains import ChainModule, cok0, cok0_morphism
from modfact.factorizations import Morphism
from modfact.randomgen import default_instances, random_object, random_morphism

from common import R5x2, R5x3, RS, RS9, x_, one

xx = [0, 0, 1]


def test_cyclic_quotient_dimensions():
    m = ModulePresentation(R5x3, 1, TwistedMatrix(R5x3, [[x_]]))
    lin = m.linearization()
    assert lin.dim == 1
    m2 = ModulePresentation(R5x3, 1, TwistedMatrix(R5x3, [[xx]]))
    assert m2.linearization().dim == 2
    assert m.check_abar() and m2.check_abar()


def test_normal_form_is_a_coset_representative():
    m = ModulePresentation(R5x2, 2, TwistedMatrix(R5x2, [[x_, one], [[], x_]]))
    lin = m.linearization()
    # x * e0 + e1 is a relation, so it encodes to zeros
    assert lin.encode([x_, one]) == [0] * lin.dim
    # x^2 e0 and x^2 e0 plus that relation are one coset
    assert lin.encode([xx, []]) == lin.encode([[0, 1, 1], one])


def test_free_directions_are_rejected():
    free = ModulePresentation(R5x2, 1, TwistedMatrix.zero(R5x2, 0, 1))
    with pytest.raises(NotQuotientModule):
        free.linearization()
    # relation x^3 does not absorb omega = x^2 acting on the generator
    loose = ModulePresentation(R5x2, 1, TwistedMatrix(R5x2, [[[0, 0, 0, 1]]]))
    assert not loose.check_abar()
    # residues would read it as A/(x^2), so it has no linearization
    with pytest.raises(NotQuotientModule):
        loose.linearization()


def test_x_matrix_represents_multiplication():
    m = ModulePresentation(R5x2, 1, TwistedMatrix(R5x2, [[xx]]))
    lin = m.linearization()
    xm = lin.x_matrix()
    v = [one]
    # coords(x * v) = coords(v) * X in the commutative case
    lhs = lin.encode([R5x2.mul(x_, p) for p in v])
    rhs = kmat_mul(R5x2.field, [lin.encode(v)], xm, lin.dim)[0]
    assert lhs == rhs


F8 = ExtensionField(2, 3)
RS8 = BaseRing(F8, 1, [F8.zero, F8.zero, F8.one])  # sigma of order 3


def _linearization_answers(ring, rng):
    """Basis, dim, x_matrix and encode of every module of cok0 chains at
    folds 2-4, their kmaps, dims and defects, the same modules under
    random maps (ill defined or, over a commutative ring, x times the
    chain's own, which may not be injective), and the kmats of a random
    morphism's chain map; field elements as JSON."""
    fld = ring.field

    def k(m):
        return [[fld.elem_to_json(e) for e in row] for row in m]

    out = []
    for n in (2, 3, 4):
        for _ in range(3):
            x = random_object(ring, rng, n, max_rank=3)
            y = random_object(ring, rng, n, max_rank=3)
            c = cok0(x)
            for mod in c.modules:
                lin = mod.linearization()
                vecs = [[ring.random_poly(rng, 5) for _ in range(mod.gens)]
                        for _ in range(3)]
                out.append([lin.basis, lin.dim, k(lin.x_matrix()),
                            k([lin.encode(v) for v in vecs])])
            out.append([k(m) for m in c.kmaps()] + [c.dims(), c.defects()])
            for ruin in ("random", "times x"):
                if ruin == "random":
                    maps = [TwistedMatrix(ring, [[ring.random_poly(rng, 2)
                                                  for _ in range(b.gens)]
                                                 for _ in range(a.gens)],
                                          0, a.gens, b.gens)
                            for a, b in zip(c.modules, c.modules[1:])]
                elif ring.commutative:
                    maps = [m.scale_left(ring.x) for m in c.maps]
                else:
                    continue
                out.append(ChainModule(ring, c.modules, maps).defects())
            out.append([k(m) for m in cok0_morphism(random_morphism(rng, x, y)).kmats()])
    return out


def test_linearization_answers_keep_their_bytes():
    # one sha256 over the linearization answers on the 10 stock rings,
    # F_8 with omega = x^2 and F_9 with omega = 2 x^2, recorded while
    # Linearization reduced by a Hermite form over A
    rng = random.Random(97)
    blobs = [json.dumps(_linearization_answers(ring, rng), sort_keys=True)
             for ring in default_instances() + [RS8, RS9]]
    assert hashlib.sha256("\n".join(blobs).encode()).hexdigest() == (
        "5f0fd28f8e7731b788aa2e48d52a51a59752490f72024a933badfd37319043a5")


@given(st.sampled_from([RS, RS9, RS8]), st.data())
@settings(max_examples=200, deadline=None)
def test_times_x_is_x_times_modulo_omega(ring, data):
    # x c = frob^s(c) x, so on a skew ring times_x twists what it shifts
    fld = ring.field
    coords = st.lists(st.integers(0, fld.p - 1), min_size=fld.e, max_size=fld.e)
    p = ring.trim([fld.coerce(c) for c in data.draw(st.lists(coords, max_size=7))])
    assert times_x(ring, residues(ring, [p])) == residues(ring, [ring.mul(ring.x, p)])


def test_presentation_json_roundtrip():
    xs = [RS.field.zero, RS.field.one]
    m = ModulePresentation(RS, 2, TwistedMatrix(RS, [[xs, [RS.field.one]], [[], xs]]))
    back = ModulePresentation.from_json(RS, m.to_json())
    assert back == m


def test_negative_sizes_are_rejected():
    # a 0 x -1 relation matrix and -1 generators once read as an empty chain
    with pytest.raises(ValueError, match="cannot have -1 generators"):
        ModulePresentation(R5x2, -1, TwistedMatrix(R5x2, [], 0, 0, -1))
    neg = {"generators": -1,
           "relations": {"rows": 0, "cols": -1, "twist": 0, "entries": []}}
    with pytest.raises(ValueError, match="cannot be 0x-1"):
        ModulePresentation.from_json(R5x2, neg)


def test_relations_over_another_ring_are_refused():
    q = BaseRing(RationalField(), 0, [0, 0, 1])
    with pytest.raises(ValueError, match="relations live over a different ring"):
        ModulePresentation(R5x2, 1, TwistedMatrix(q, [[[7, 1]]]))


def test_non_canonical_coefficients_are_reduced_as_they_enter():
    # the kernels compare entries with the field's zero, so an F_p
    # coefficient is reduced mod p as it enters a TwistedMatrix: 5 over F_5
    # is the zero and 6 is 1, and a presentation built from them is the
    # one built from their canonical forms
    raw = TwistedMatrix(R5x2, [[[5, 0, 6]], [[10]]], rows=2, cols=1)
    assert raw.m == [[[0, 0, 1]], [[]]]
    pres = ModulePresentation(R5x2, 1, raw)
    canon = ModulePresentation(R5x2, 1, TwistedMatrix(R5x2, [[[0, 0, 1]], [[]]]))
    assert pres == canon and pres.check_abar()
    assert pres.linearization().dim == canon.linearization().dim == 2
    assert ModulePresentation(R5x2, 1, TwistedMatrix(R5x2, [[[5, 0, 1]]])).check_abar()
    assert ModulePresentation(R5x2, 1, TwistedMatrix(R5x2, [[[5, 6]]])).linearization().dim == 1


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


def _reference_eliminate(fld, m, cols):
    """Gauss-Jordan by the field's is_zero, mul, sub and inv alone: each
    pivot row is scaled to 1 at its pivot and cleared from every other row
    across the whole width. Same pivot choice as _kmat_eliminate: the
    first row from the top with a nonzero entry in the column."""
    rows, pivots, top = len(m), [], 0
    for col in range(cols):
        sel = next((i for i in range(top, rows) if not fld.is_zero(m[i][col])), None)
        if sel is None:
            continue
        m[top], m[sel] = m[sel], m[top]
        inv = fld.inv(m[top][col])
        m[top] = [fld.mul(inv, a) for a in m[top]]
        for i in range(rows):
            if i != top:
                c = m[i][col]
                m[i] = [fld.sub(a, fld.mul(c, b)) for a, b in zip(m[i], m[top])]
        pivots.append(col)
        top += 1
    return pivots


def _elimination_cases(fld, rng):
    """Random matrices and, as the homotopy deciders build them, the
    augmented [m^T | rhs^T] of an 8 x 4 system m of rank at most 2 with
    one rhs row, eliminated on its 8 unknown columns."""
    for _ in range(60):
        rows, width = rng.randint(0, 6), rng.randint(0, 9)
        yield _random_kmat(fld, rng, rows, width), rng.randint(0, width)
    for _ in range(30):
        a = [[_entry(fld, rng) for _ in range(2)] for _ in range(8)]
        b = [[_entry(fld, rng) for _ in range(4)] for _ in range(2)]
        m = _product(fld, a, b, 4)
        rhs = [_entry(fld, rng) for _ in range(4)]
        yield [list(col) + [r] for col, r in zip(zip(*m), rhs)], 8


@pytest.mark.parametrize("fld", [PrimeField(2), PrimeField(3), PrimeField(5),
                                 RationalField(), ExtensionField(2, 2)],
                         ids=["f2", "f3", "f5", "q", "f4"])
def test_elimination_matches_the_method_reference(fld):
    # _kmat_eliminate compares entries with the field's zero and updates
    # F_p rows inline; it must give the pivots and, outside the pivot
    # columns, the entries of the elimination by field methods
    rng = random.Random(59)
    ranks = set()
    for m, cols in _elimination_cases(fld, rng):
        got, want = [list(r) for r in m], [list(r) for r in m]
        pivots = _kmat_eliminate(fld, got, cols)
        assert pivots == _reference_eliminate(fld, want, cols)
        ranks.add(len(pivots))
        for g, w in zip(got, want):
            assert ([a for j, a in enumerate(g) if j not in pivots]
                    == [a for j, a in enumerate(w) if j not in pivots])
    assert {0, 1, 2, 3} <= ranks


def _is_canonical(fld, a):
    """a is an element of fld in canonical form: an int in range(p) on
    F_p, an int or a reduced Fraction with denominator above 1 on Q, one
    of the field's own tuples on F_q."""
    if fld.kind == "prime":
        return type(a) is int and 0 <= a < fld.p
    if fld.kind == "rationals":
        return type(a) is int or (type(a) is Fraction and a.denominator > 1
                                  and gcd(a.numerator, a.denominator) == 1)
    return a in set(fld.elements())


def test_kernel_inputs_are_canonical(monkeypatch):
    # the kernels compare an entry with the field's zero, which is right
    # on canonical elements alone: those the layer hands over, on
    # every stock ring and on F_8 and F_9, through the deciders, hom spaces
    # and linearizations, each checked before a kernel sees it; at fold 4
    # and rank 3 the skew rows add coordinates past p
    seen = []

    def spy(fn, field_and_rows):
        def wrapped(ring, *args):
            out = fn(ring, *args)
            fld, rows = field_and_rows(ring, out)
            assert all(_is_canonical(fld, a) for row in rows for a in row), ring
            seen.append((ring, fld.kind))
            return out
        return wrapped

    monkeypatch.setattr(modules, "residue_rows", spy(
        modules.residue_rows, lambda ring, rows: (ring.field, rows)))
    monkeypatch.setattr(homotopy, "coordinates", spy(
        modules.coordinates, lambda ring, vec: (ring.coordinate_field, [vec])))
    monkeypatch.setattr(homotopy, "linear_system", spy(
        modules.linear_system, lambda ring, out: out))
    rng = random.Random(61)
    rings = default_instances() + [RS8, RS9]
    for ring in rings:
        for n in (2, 3, 4):
            x, y = random_object(ring, rng, n, 3, 2), random_object(ring, rng, n, 3, 2)
            for f in (Morphism.identity(x), random_morphism(rng, x, y)):
                homotopy.is_p_null_homotopic(f)
                homotopy.factors_through_trivials(f)
            if ring.commutative:
                homotopy.HomSpace(x, y)
            cok0(x).dims()
    assert {ring for ring, _ in seen} == set(rings)
    assert {kind for _, kind in seen} == {"prime", "rationals", "finite"}
