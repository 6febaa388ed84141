import random

import pytest

from modfact.rings import UnsupportedRingError
from modfact.matrices import mat_mul
from modfact.factorizations import Morphism, theta, omega_morphism
from modfact.modules import ModulePresentation
import modfact.homotopy as ho
from modfact import randomgen as rg
from modfact.chains import (ChainModule, ChainMorphism, zero_chain,
                            staircase_chain, cok0, cok0_morphism,
                            chain_is_mono, lift, chain_iso,
                            chain_factors_projective, faithfulness_report)

from common import R5x2, R5x3, RS, X2, X3, X2Q, X2b, X3b, XSneg, mk, x_, one

rng = random.Random(11)
xx = [0, 0, 1]

X3diag = mk(R5x3, [2, 2, 2], [
    [[x_, []], [[], x_]],
    [[x_, []], [[], xx]],
    [[x_, []], [[], one]],
])


def test_cok0_of_rank_one_pairs():
    c2 = cok0(X2)
    assert c2.n == 2 and len(c2.modules) == 1
    assert c2.dims() == [1]
    assert c2.slot_invariants() == [[x_]]
    c3 = cok0(X3)
    assert c3.dims() == [1, 2]
    assert c3.slot_invariants() == [[x_], [xx]]
    assert chain_is_mono(c3) == (True, None)
    assert c3.check_torsion()


def test_theta_chains_are_staircases():
    for n, ring in ((2, R5x2), (3, R5x3)):
        for j in range(n):
            th = theta(ring, n, j, 2)
            cth = cok0(th)
            st = staircase_chain(ring, n, j, 2)
            assert cth.check_torsion()
            if j == 0:
                assert cth.is_zero() and st.is_zero()
            else:
                assert chain_iso(cth, st).found, (n, j)


def test_chain_json_roundtrip():
    c3 = cok0(X3)
    back = ChainModule.from_json(R5x3, c3.to_json())
    assert back == c3
    g = cok0_morphism(Morphism.identity(X3))
    assert g.is_valid()
    gback = ChainMorphism.from_json(c3, c3, g.to_json())
    assert gback.components == g.components


def test_lift_roundtrips():
    c2 = cok0(X2)
    L2 = lift(c2)
    assert L2.ranks == [1, 1]
    assert chain_iso(cok0(L2), c2).found
    cb = cok0(X2b)  # stably zero object: single invariant factor x^2
    assert cb.slot_invariants() == [[xx]]
    Lb = lift(cb)
    assert Lb.ranks == [1, 1]  # minimal model has rank 1
    assert chain_iso(cok0(Lb), cb).found
    for X in (X3, X3b, X3diag):
        c = cok0(X)
        L = lift(c)
        assert L.is_valid()
        assert chain_iso(cok0(L), c).found, X.ranks


def test_conjugated_object_gives_isomorphic_chain():
    P = [[[], one], [one, []]]
    Xp = mk(R5x3, [2, 2, 2], [
        mat_mul(R5x3, mat_mul(R5x3, P, X3diag.maps[i].m), P) for i in range(3)
    ])
    assert chain_iso(cok0(X3diag), cok0(Xp)).found


def test_chain_iso_definitive_negatives():
    Xsq = mk(R5x2, [1, 1], [[[xx]], [[one]]])
    res = chain_iso(cok0(X2), cok0(Xsq))
    assert not res.found and res.definitive
    res = chain_iso(cok0(X2), zero_chain(R5x2, 2))
    assert not res.found and res.definitive


def test_lift_rejects_bad_chains():
    bad = ChainModule(R5x2, [
        ModulePresentation(R5x2, 1, [[xx]]),
        ModulePresentation(R5x2, 1, [[xx]]),
    ], [[[xx]]], n=3)
    ok, slot = chain_is_mono(bad)
    assert not ok and slot == 1
    with pytest.raises(ValueError):
        lift(bad)
    free = ChainModule(R5x2, [ModulePresentation(R5x2, 1, [])], [], n=2)
    with pytest.raises(ValueError):
        lift(free)


def test_faithfulness_on_known_morphisms():
    rep = faithfulness_report(Morphism.identity(X2))
    assert rep["zero_agree"] and rep["null_agree"]
    assert not rep["zero_chain"] and not rep["null_homotopic"]

    rep = faithfulness_report(omega_morphism(X2))
    assert rep["zero_agree"] and rep["null_agree"]
    assert rep["zero_chain"] and rep["null_homotopic"]

    # multiplication by x also dies in every cokernel here
    rep = faithfulness_report(Morphism.identity(X2).scale_central(x_))
    assert rep["zero_agree"] and rep["null_agree"]
    assert rep["zero_chain"] and rep["null_homotopic"]


def test_faithfulness_on_constructed_nulls():
    for X in (X3, X2b, X3b, X2Q):
        for _ in range(5):
            w = ho.random_witness(rng, X, X, max_deg=1)
            f = ho.reconstruct_from_witness(X, X, w)
            rep = faithfulness_report(f)
            assert rep["null_homotopic"] and rep["null_agree"], X.ranks
            assert rep["zero_agree"], X.ranks


def test_projective_factoring_agrees_with_null_homotopy():
    # both verdicts on random morphisms, and on identities of certified
    # stably nonzero objects, so that negatives are covered too
    rng2 = random.Random(14)
    verdicts = set()
    for ring in [r for r in rg.default_instances() if r.commutative]:
        for n in [1, 2, 2, 3, 3, 3, 4, 4, 4]:
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            fs = [rg.random_morphism(rng2, x, y), rg.random_morphism(rng2, x, x)]
            if n >= 2:
                z = rg.random_nonzero_object(ring, rng2, n, max_rank=2)
                fs.append(Morphism.identity(z))
            for f in fs:
                null = ho.is_p_null_homotopic(f).null
                assert chain_factors_projective(f) == null, (ring.omega, n)
                verdicts.add(null)
    assert verdicts == {True, False}


def test_skew_rings_are_guarded():
    cS = cok0(XSneg)
    assert cS.dims() == [1]  # one F_4 basis vector below the pivot x
    with pytest.raises(UnsupportedRingError):
        lift(cS)
    with pytest.raises(UnsupportedRingError):
        chain_factors_projective(Morphism.identity(XSneg))
    rep = faithfulness_report(Morphism.identity(XSneg))
    assert rep["zero_agree"] and "null_agree" not in rep
