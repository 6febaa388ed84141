import hashlib
import json
import random

import pytest

from modfact import randomgen as rg
from modfact.matrices import TwistedMatrix
from modfact.factorizations import Factorization, Morphism, theta, face, shift_power
from modfact.recollement import (AdjointPair, recollement, face0_pair, top_pair,
                                 pr0_pair, shift_functor, face_functor)

from common import (R5x2, R5x3, RQ2, RS, RS1, ring5, ring_q, X2, X2b, X3, X3b, XS,
                    mk, x_, one)

R5x4 = ring5([0, 0, 0, 0, 1])
xx = [0, 0, 1]
X4 = mk(R5x4, [1, 1, 1, 1], [[[x_]], [[x_]], [[x_]], [[x_]]])

rings = {2: R5x2, 3: R5x3, 4: R5x4}
CASES = [(2, 1), (3, 1), (3, 2), (4, 2)]


def f1_object(ring, m):
    return Factorization(ring, [m], [TwistedMatrix.scalar(ring, m, ring.omega, 1)])


def objs_for(n):
    ring = rings[n]
    if n == 2:
        return ring, [X2, X2b, theta(ring, 2, 0, 1), theta(ring, 2, 1, 2)]
    if n == 3:
        return ring, [X3, X3b, theta(ring, 3, 1, 1), theta(ring, 3, 2, 2)]
    return ring, [X4, theta(ring, 4, 2, 1), theta(ring, 4, 3, 1)]


def sources_for(n, k):
    ring = rings[n]
    if k == 1:
        return [f1_object(ring, 1), f1_object(ring, 2)]
    _, ks = objs_for(k)
    picked = [x for x in ks if x.ring == ring]
    return picked or [theta(ring, k, 0, 1), theta(ring, k, 1, 2)]


def test_base_pair_triangles():
    for m, X in ((2, X2), (2, X2b), (3, X3b)):
        p = face0_pair(m)
        assert p.triangle_left(X)
        assert p.triangle_right(face(X, 0))
        t = top_pair(m)
        assert t.triangle_right(X)
        assert t.triangle_left(face(X, m))
        q = pr0_pair(m + 1)
        assert q.triangle_right(X)
        assert q.triangle_left(face(X, 0))


def test_skew_base_pair_triangles():
    ps = face0_pair(2)
    assert ps.triangle_left(XS)
    assert ps.triangle_right(face(XS, 0))
    ts = pr0_pair(3)
    assert ts.triangle_right(XS)
    assert ts.triangle_left(face(XS, 0))


@pytest.mark.parametrize("n,k", CASES)
def test_sections_and_triangles(n, k):
    rec = recollement(n, k)
    ring = rings[n]
    sources = sources_for(n, k)
    _, tops = objs_for(n)
    for x in sources:
        assert rec.section_identities(x), (n, k, x.ranks)
        for y in tops:
            assert rec.triangles(x, y), (n, k, x.ranks, y.ranks)
        f = Morphism.identity(x).scale_central(ring.omega)
        assert rec.section_identities_morphism(f)


@pytest.mark.parametrize("n,k", CASES)
def test_right_section_normal_form(n, k):
    # section_right = S^(n-1) . face_0^(n-k) . S^-(k-1)
    rec = recollement(n, k)
    sec2 = shift_functor(-(k - 1))
    for _ in range(n - k):
        sec2 = sec2.then(face_functor(0))
    sec2 = sec2.then(shift_functor(n - 1))
    for x in sources_for(n, k):
        assert sec2.obj(x) == rec.section_right.obj(x)


@pytest.mark.parametrize("n,k", CASES)
def test_kernel_objects_are_stably_zero(n, k):
    rec = recollement(n, k)
    ring = rings[n]
    m = n - k + 1
    if m == 2:
        zs = [X2, X2b] if ring == R5x2 else [mk(ring, [1, 1], [[[x_]], [[xx]]])]
    elif m == 3:
        zs = [X3] if ring == R5x3 else \
             [mk(ring, [1, 1, 1], [[[x_]], [[x_]], [[xx]]])]
    else:
        zs = [shift_power(X4, 1), X4]
    for z in zs:
        assert z.n == m
        assert rec.kernel_stably_zero(z), (n, k, z.ranks)
    # an object outside F_{n-k+1} is refused, not pushed through
    for other in (m - 1, m + 1):
        with pytest.raises(ValueError, match="takes fold n - k \\+ 1 = %d, "
                           "not fold %d$" % (m, other)):
            rec.kernel_stably_zero(theta(ring, other, 0))


@pytest.mark.parametrize("n,k", CASES)
def test_checks_name_every_identity_in_order(n, k):
    rec = recollement(n, k)
    ring = rings[n]
    _, tops = objs_for(n)
    x = sources_for(n, k)[0]
    f = Morphism.identity(x).scale_central(ring.omega)
    z = rg.random_object(ring, random.Random(10 * n + k), n - k + 1, 2, 1)
    out = rec.checks(x, tops[0], f, z)
    assert [name for name, _ in out] == list(rec.CHECKS) == [
        "section_identities", "section_identities_morphism", "triangles",
        "inclusion_valid", "kernel_stably_zero"]
    assert all(ok for _, ok in out), out
    with pytest.raises(ValueError, match="takes fold n - k \\+ 1"):
        rec.checks(x, tops[0], f, theta(ring, n - k + 2, 0))


@pytest.mark.parametrize("n,k", CASES)
def test_inc_composites_land_in_kernel_fold(n, k):
    rec = recollement(n, k)
    _, tops = objs_for(n)
    for y in tops:
        zl = rec.inc_left.obj(y)
        zr = rec.inc_right.obj(y)
        assert zl.n == n - k + 1 and zr.n == n - k + 1
        zl.assert_valid()
        zr.assert_valid()


@pytest.mark.parametrize("ring", [RQ2, R5x3, RS1, RS], ids=["Q2", "F5x3", "RS1", "RS"])
def test_base_pair_units_are_the_written_matrices(ring):
    # face_0 -| pr_0: unit the identity, counit (I, d^0, I, ..., I);
    # pr_top -| face_top: unit (I, ..., I, sigma^-1(d^top)), counit the identity
    rng = random.Random(83)
    for n in (1, 2, 3):
        x = rg.random_object(ring, rng, n, max_rank=2)
        y = rg.random_object(ring, rng, n + 1, max_rank=2)
        ident = [TwistedMatrix.identity(ring, r, 0) for r in y.ranks]
        assert face0_pair(n).unit(x) == Morphism.identity(x)
        assert face0_pair(n).counit(y).components == [ident[0], y.maps[0]] + ident[2:]
        last = y.maps[n].sigma_entries(-1).with_twist(0)
        assert top_pair(n).unit(y).components == ident[:n] + [last]
        assert top_pair(n).counit(x) == Morphism.identity(x)


def _unit_pairs():
    # (pair, fold of the left adjoint's source, fold of its target)
    for m in (1, 2, 3, 4):
        yield face0_pair(m), m, m + 1
        yield top_pair(m), m + 1, m
        yield pr0_pair(m + 1), m + 1, m
        for i in range(1, m + 2):
            yield face0_pair(m).conjugate(-i), m, m + 1
    for n in range(2, 6):
        for k in range(1, n):
            rec = recollement(n, k)
            yield rec.adj_left, k, n
            yield rec.adj_right, n, k


def test_units_and_counits_keep_their_bytes():
    # one sha256 over every unit and counit, with their endpoints, on the
    # 10 stock rings; recorded while each base pair had hand-written units
    # and composites and conjugates built theirs from those
    rng = random.Random(79)
    blobs = []
    for ring in rg.default_instances():
        for pair, a, b in _unit_pairs():
            x = rg.random_object(ring, rng, a, max_rank=2)
            y = rg.random_object(ring, rng, b, max_rank=2)
            for u in (pair.unit(x), pair.counit(y)):
                blobs.append(json.dumps([u.source.to_json(), u.to_json(),
                                         u.target.to_json()], sort_keys=True))
    assert len(blobs) == 920
    assert hashlib.sha256("\n".join(blobs).encode()).hexdigest() == (
        "4d361c5b454013774a9d0caecbed430c79d249e3bcd8036063a1bd134d964537")


INC_RINGS = [RQ2, ring_q([0, 0, 0, 1]), ring_q([0, 0, 0, 0, 1]), RS1, RS]


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 2)])
def test_inc_is_adjoint_to_its_declared_adjoints(n, k):
    # inc_left -| inc -| inc_right, with arc-morphism units and counits
    rec = recollement(n, k)
    m = n - k + 1
    rng = random.Random(89)
    for ring in INC_RINGS:
        for pair, a, b in ((AdjointPair(rec.inc_left, rec.inc), n, m),
                           (AdjointPair(rec.inc, rec.inc_right), m, n)):
            x = rg.random_object(ring, rng, a, max_rank=2)
            y = rg.random_object(ring, rng, b, max_rank=2)
            assert pair.triangle_left(x), (n, k, ring)
            assert pair.triangle_right(y), (n, k, ring)
