"""Desk-scale acceptance runs.

Every check here is exact: polynomial and matrix equalities are bit-for-bit,
no tolerances anywhere. Each test prints a one-line tally; the pass/fail
line per criterion is pytest's own -v output. Seeds are fixed so reruns
see the same instances.
"""

import random

import pytest

from modfact.fields import RationalField
from modfact.factorizations import Morphism, theta, Factorization
from modfact.matrices import TwistedMatrix
import modfact.homotopy as ho
import modfact.matrixring as mr
from modfact.chains import cok0, lift, chain_iso, faithfulness_report
from modfact.laws import Scenario, run_suites
from modfact import randomgen as rg

INST = rg.default_instances()
COMM = [r for r in INST if r.commutative]
SKEW = [r for r in INST if not r.commutative]
QRINGS = [r for r in COMM if isinstance(r.field, RationalField)]


def run_suite_block(ring, names, cases, seed=101, folds=(1, 2, 3, 4)):
    sc = Scenario(ring, seed=seed, folds=folds, max_rank=2, max_deg=2,
                  cases=cases)
    rep = run_suites(sc, names=names)
    checks = 0
    for s in rep["suites"]:
        assert not s["failures"], (ring.pretty(ring.omega), s["name"],
                                   s["failures"][:3])
        assert s.get("skipped") or s["cases"] > 0, (ring.pretty(ring.omega),
                                                s["name"])
        checks += s["cases"]
    assert rep["passed"]
    return checks


def test_functor_identities_hold_bit_exactly():
    # shift/face/degeneracy/theta/projection identities on randomized
    # objects and morphisms over every stock ring, at least 1000 checks
    total = 0
    for ring in INST:
        total += run_suite_block(ring, ["functor-laws"], cases=8)
    assert total >= 1000
    print("functor identity checks: %d" % total)


def test_adjunction_bijections_are_inverse_and_natural():
    total = 0
    for ring in INST:
        total += run_suite_block(ring, ["adjunction"], cases=5)
    assert total >= 500
    print("adjunction checks: %d" % total)


def test_homotopy_oracle_verdicts_and_witnesses():
    rng = random.Random(202)
    pos = neg = mixed = 0
    for ring in COMM:
        for _ in range(40):
            n = rng.choice((2, 3))
            x = rg.random_object(ring, rng, n, max_rank=2, max_deg=2)
            y = rg.random_object(ring, rng, n, max_rank=2, max_deg=2)
            f, _ = rg.random_null_morphism(rng, x, y)
            v = ho.is_p_null_homotopic(f)
            assert v.null, (ring.pretty(ring.omega), x.ranks)
            # the returned witness rebuilds the morphism exactly
            assert ho.reconstruct_from_witness(x, y, v.witness) == f
            pos += 1
        for _ in range(40):
            n = rng.choice((2, 3))
            z = rg.random_nonzero_object(ring, rng, n, max_rank=2, max_deg=2)
            v = ho.is_p_null_homotopic(Morphism.identity(z))
            assert not v.null and not v.bounded, (ring.pretty(ring.omega),
                                                  z.ranks)
            neg += 1
        pool = [rg.random_object(ring, rng, rng.choice((2, 3)), max_rank=2,
                                 max_deg=2) for _ in range(5)]
        for i in range(50):
            x = rng.choice(pool)
            y = rng.choice(pool)
            if x.n == y.n:
                f = rg.random_morphism(rng, x, y)
            else:
                f, _ = rg.random_null_morphism(rng, x, x)
                y = x
            v = ho.is_p_null_homotopic(f)
            if v.null:
                assert ho.reconstruct_from_witness(x, y, v.witness) == f
            if i % 5 == 0:
                # the factorization route agrees with the witness route
                r = ho.factors_through_trivials(f)
                assert bool(r) == bool(v.null)
            mixed += 1
    total = pos + neg + mixed
    assert pos >= 300 and neg >= 300 and total >= 1000
    print("homotopy oracle: %d morphisms (%d null, %d certified nonnull)"
          % (total, pos, neg))


def test_matrix_grid_correspondence_roundtrips():
    rng = random.Random(303)
    objects = 0
    corruptions = 0
    for ring in INST:
        for _ in range(20):
            n = rng.choice((1, 2, 3, 4))
            x = rg.random_object(ring, rng, n, max_rank=2, max_deg=2)
            gm = mr.phi(x)
            assert not mr.validate_gamma(gm)
            assert mr.psi(gm) == x
            assert mr.phi(mr.psi(gm)) == gm
            objects += 1
        for _ in range(10):
            n = rng.choice((2, 3))
            x = rg.random_object(ring, rng, n, max_rank=2, max_deg=2)
            bad = rg.corrupt_gamma(mr.phi(x), rng)
            assert mr.validate_gamma(bad), ring.pretty(ring.omega)
            corruptions += 1
    assert objects == 20 * len(INST) and corruptions == 10 * len(INST)
    print("grid correspondence: %d roundtrips, %d corruptions rejected"
          % (objects, corruptions))


def test_module_chain_correspondence_and_faithfulness():
    rng = random.Random(404)
    chains = 0
    reports = 0
    for ring in COMM:
        deg = 1 if isinstance(ring.field, RationalField) else 2
        for _ in range(25):
            n = rng.choice((2, 3))
            c = rg.random_chain(ring, rng, n, max_rank=2, max_deg=deg)
            lx = lift(c)
            assert lx.is_valid()
            res = chain_iso(cok0(lx), c)
            assert res.found, (ring.pretty(ring.omega), res.reason)
            chains += 1
        pool = [rg.random_object(ring, rng, rng.choice((2, 3)), max_rank=2,
                                 max_deg=deg) for _ in range(4)]
        for _ in range(25):
            x = rng.choice(pool)
            y = rng.choice(pool)
            if x.n != y.n:
                y = x
            f = rg.random_morphism(rng, x, y, max_deg=deg)
            rep = faithfulness_report(f)
            assert rep["zero_agree"], ring.pretty(ring.omega)
            assert rep["null_agree"], ring.pretty(ring.omega)
            reports += 1
    assert chains >= 200 and reports >= 200
    print("chain correspondence: %d lift roundtrips, %d faithful reports"
          % (chains, reports))


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def test_classical_composition_tables():
    checked = 0
    for ring in QRINGS:
        d = ring.omega_deg
        if list(ring.omega) != ring.x_power(d) or d > 4:
            continue
        for n in range(1, 5):
            for comp in compositions(d, n):
                maps = []
                for i, a in enumerate(comp):
                    tw = 1 if i == n - 1 else 0
                    maps.append(TwistedMatrix.scalar(ring, 1, ring.x_power(a),
                                                     tw))
                x = Factorization(ring, [1] * n, maps).assert_valid()
                c = cok0(x)
                want = []
                s = 0
                for i in range(n - 1):
                    s += comp[i]
                    want.append([] if s == 0 else [ring.x_power(s)])
                assert c.slot_invariants() == want, (d, comp)
                checked += 1
    assert checked == 20 + 35 + 56  # d = 2, 3, 4
    # stable endomorphisms of (x, x) at omega = x^2 form one copy of k
    q2 = QRINGS[0]
    assert q2.omega_deg == 2
    xq = q2.x_power(1)
    x2 = Factorization(q2, [1, 1], [TwistedMatrix(q2, [[xq]], 0),
                                    TwistedMatrix(q2, [[xq]], 1)])
    sh = ho.stable_hom(x2, x2)
    assert sh.k_dimension == 1 and sh.omega_torsion
    assert sh.factor_names() == ["x"]
    print("classical tables: %d compositions + stable End rank" % checked)


def test_recollement_sections_triangles_and_kernels():
    total = 0
    for ring in [COMM[5], COMM[0], COMM[3]]:  # F_5 x^3, Q x^2, Q x^2(x-1)
        total += run_suite_block(ring, ["recollement"], cases=16, seed=505)
    assert total >= 200
    print("recollement checks: %d" % total)


def test_skew_rings_are_sound():
    rng = random.Random(606)
    for ring in SKEW:
        for _ in range(15):
            x = rg.random_object(ring, rng, rng.choice((1, 2, 3)), max_rank=2)
            assert x.is_valid()
    total = 0
    for ring in SKEW:
        total += run_suite_block(
            ring, ["ring-laws", "functor-laws", "adjunction",
                   "matrix-module-grid", "omega-division", "recollement",
                   "skew-soundness"], cases=5, seed=707)
    assert total > 0
    print("skew soundness checks: %d" % total)
