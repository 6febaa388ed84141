import hashlib
import json
import random

import pytest

from modfact.fields import RationalField
from modfact.rings import BaseRing, UnsupportedRingError
from modfact import matrices
from modfact.matrices import TwistedMatrix, mat_mul
from modfact.factorizations import Morphism, theta, omega_morphism
from modfact.modules import ModulePresentation
import modfact.homotopy as ho
import modfact.chains as ch
from modfact import randomgen as rg
from modfact.chains import (ChainModule, ChainMorphism, zero_chain,
                            staircase_chain, cok0, cok0_morphism,
                            chain_is_mono, lift, chain_iso,
                            chain_factors_projective, faithfulness_report,
                            _chain_map_space, _cover_composites)
from modfact.modules import (kmat_identity, kmat_mul, kmat_rank, kmat_solve,
                             kmat_nullspace)

from common import (R5x2, R5x3, RS, X2, X3, X2Q, X2b, X3b, XSneg, mk, x_, one,
                    equal_invariant_pair)

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


def test_chain_json_keeps_its_bytes():
    # the JSON of cok0 chains, their presentations, induced morphisms and
    # composites, lift outputs, and zero and staircase chains at m = 0, 1,
    # 2, with JSON round trips, on the 10 stock rings at folds 1-5; the
    # digest was recorded while the chain side kept bare entry lists
    rng2 = random.Random(37)
    blobs = []
    for ring in rg.default_instances():
        for n in range(1, 6):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            c, d = cok0(x), cok0(y)
            g = cok0_morphism(rg.random_morphism(rng2, x, y))
            h = cok0_morphism(rg.random_morphism(rng2, y, x))
            out = [c.to_json(), [m.to_json() for m in d.modules], g.to_json(),
                   g.then(h).to_json(), [g.is_valid(), g.is_zero_map()]]
            if ring.commutative:
                out.append(lift(c).to_json())
            out.append(zero_chain(ring, n).to_json())
            out += [staircase_chain(ring, n, j, m).to_json()
                    for j in range(n) for m in (0, 1, 2)]
            back = ChainModule.from_json(ring, c.to_json())
            gback = ChainMorphism.from_json(c, d, g.to_json())
            out.append([back == c, back.to_json() == c.to_json(),
                        gback.to_json() == g.to_json()])
            blobs.append(json.dumps(out, sort_keys=True))
    assert hashlib.sha256("\n".join(blobs).encode()).hexdigest() == (
        "8ea86c8f7714a5c2b72c830d7480df209461ab684788ec70864f930ef2dc6d1c")


def test_cok0_shares_what_it_is_given():
    # the relations of slot i are the arc d^0 ... d^{i-1}, the chain maps
    # are the maps d^1 ... d^{n-2} and the components of the induced
    # morphism are f^1 ... f^{n-1}, each the factorization's own matrix
    rng2 = random.Random(41)
    for ring in rg.default_instances():
        for n in range(1, 6):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            f = rg.random_morphism(rng2, x, x)
            c = cok0(x)
            assert all(mod.relations is x.compose_range(0, i - 1)
                       for i, mod in enumerate(c.modules, 1))
            assert all(m is x.maps[i] for i, m in enumerate(c.maps, 1))
            assert len(c.maps) == max(n - 2, 0)
            g = cok0_morphism(f)
            assert all(a is b for a, b in zip(g.components, f.components[1:]))
            assert len(g.components) == n - 1


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
    # random chains: the lift has one slot per nonunit invariant factor of
    # the top module, and d^0 ... d^{n-2} is the diagonal of those factors
    rng2 = random.Random(23)
    for ring in [r for r in rg.default_instances() if r.commutative]:
        for n in range(2, 6):
            for _ in range(3):
                c = rg.random_chain(ring, rng2, n, max_rank=3)
                L = lift(c)
                assert L.is_valid()
                factors = matrices.invariant_factors(ring, c.modules[-1].relations.m)
                r = len(factors)
                assert L.ranks == [r] * n
                assert chain_iso(cok0(L), c).found, (ring, n)
                diag = [[f if a == b else [] for b in range(r)]
                        for a, f in enumerate(factors)]
                assert L.compose_range(0, n - 2).m == diag, (ring, n)
    # a fold-1 chain carries no modules: its lift is the rank-0 object
    c1 = zero_chain(R5x2, 1)
    L1 = lift(c1)
    assert (L1.n, L1.ranks) == (1, [0]) and L1.is_valid()
    assert cok0(L1) == c1


def test_lift_uses_one_smith_form_and_two_hermite_forms_per_inner_slot(
        monkeypatch):
    # the cover reads the top module's Smith form alone, and each slot
    # below the top costs one Hermite form and one solve; the chain's own
    # linearizations (modules' binding of hermite_form) are made first
    assert not hasattr(ch, "left_kernel")
    calls = {"hermite": 0, "smith": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    hermite = counting("hermite", matrices.hermite_form)
    smith = counting("smith", matrices.smith_form)
    for mod in (matrices, ch):
        monkeypatch.setattr(mod, "hermite_form", hermite)
        monkeypatch.setattr(mod, "smith_form", smith)
    rng2 = random.Random(29)
    for ring in [r for r in rg.default_instances() if r.commutative]:
        for n in range(2, 6):
            c = rg.random_chain(ring, rng2, n, max_rank=3)
            for mod in c.modules:
                mod.linearization()
            calls.update(hermite=0, smith=0)
            lift(c)
            assert calls == {"hermite": 2 * (n - 2), "smith": 1}, (ring, n)


def test_conjugated_object_gives_isomorphic_chain():
    P = [[[], one], [one, []]]
    Xp = mk(R5x3, [2, 2, 2], [
        mat_mul(R5x3, mat_mul(R5x3, P, X3diag.maps[i].m), P) for i in range(3)
    ])
    assert chain_iso(cok0(X3diag), cok0(Xp)).found


def test_chain_map_space_is_the_chain_maps(monkeypatch):
    # every basis element is the top component H of a chain map: it
    # commutes with x, and S_s H lies in the row space of T_s for each
    # lower slot s (is 0 when D_s = 0, where T_s has no rows), S_s and
    # T_s the chain maps composed up to the top; the basis is independent,
    # an endomorphism space holds the identity, and the one system solved
    # has a row per unknown, dim C_top x dim D_top of them
    systems = []

    def nullspace(fld, m):
        systems.append(len(m))
        return kmat_nullspace(fld, m)

    monkeypatch.setattr(ch, "kmat_nullspace", nullspace)
    rng2 = random.Random(15)
    for ring in [r for r in rg.default_instances() if r.commutative]:
        fld = ring.field
        for n in range(2, 5):
            x = rg.random_object(ring, rng2, n, max_rank=3)
            y = rg.random_object(ring, rng2, n, max_rank=3)
            for c, d in ((cok0(x), cok0(x)), (cok0(x), cok0(y))):
                systems.clear()
                basis, (a, b) = _chain_map_space(c, d)
                lc = [m.linearization() for m in c.modules]
                ld = [m.linearization() for m in d.modules]
                assert (a, b) == (lc[-1].dim, ld[-1].dim)
                assert systems[-1] == a * b
                for vec in basis:
                    h = [vec[i * b:(i + 1) * b] for i in range(a)]
                    assert (kmat_mul(fld, lc[-1].x_matrix(), h, b)
                            == kmat_mul(fld, h, ld[-1].x_matrix(), b))
                    sc, td = kmat_identity(fld, a), kmat_identity(fld, b)
                    for s in reversed(range(len(c.maps))):
                        sc = kmat_mul(fld, lc[s].map_matrix(lc[s + 1], c.maps[s]), sc, a)
                        td = kmat_mul(fld, ld[s].map_matrix(ld[s + 1], d.maps[s]), td, b)
                        assert kmat_solve(fld, td, kmat_mul(fld, sc, h, b)) is not None
                assert kmat_rank(fld, basis) == len(basis)
                if c == d and basis:
                    eye = [e for row in kmat_identity(fld, a) for e in row]
                    assert kmat_rank(fld, basis + [eye]) == len(basis)


def test_chain_answers_keep_their_bytes():
    # chain-map space dimensions, chain_iso answers, projective factoring,
    # faithfulness reports and cover ranks on the 8 commutative stock
    # rings at folds 1-5, zero chains included; the digest was recorded
    # while _chain_map_space still solved for a matrix at every slot
    rng2 = random.Random(73)
    blobs = []
    for ring in [r for r in rg.default_instances() if r.commutative]:
        for n in range(1, 6):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            c, d, z = cok0(x), cok0(y), zero_chain(ring, n)
            e = cok0(rg.random_conjugate(x, rng2))
            blobs.append(json.dumps([len(_chain_map_space(a, b)[0]) for a, b in
                                     ((c, d), (c, c), (d, c), (c, z), (z, c), (c, e))]))
            for a, b in ((c, d), (c, e), (c, z), (cok0(lift(c)), c)):
                blobs.append(json.dumps(chain_iso(a, b).to_json(), sort_keys=True))
            null, _ = rg.random_null_morphism(rng2, x, y)
            for f in (null, rg.random_morphism(rng2, x, y), Morphism.identity(x)):
                blobs.append(json.dumps([chain_factors_projective(f),
                                         faithfulness_report(f)], sort_keys=True))
            cover = _cover_composites(c, d, y)
            blobs.append(str(kmat_rank(ring.field, cover) if cover else 0))
    assert sum('"isomorphic": true' in b for b in blobs) == 98
    assert sum('"projective_chain": true' in b for b in blobs) == 82
    assert hashlib.sha256("\n".join(blobs).encode()).hexdigest() == (
        "29060b6f0b70b827b5561b3e0014787ebbafe3a22224a14bbe7159cbc2c64495")


def test_chain_iso_definitive_negatives():
    Xsq = mk(R5x2, [1, 1], [[[xx]], [[one]]])
    res = chain_iso(cok0(X2), cok0(Xsq))
    assert not res.found and res.definitive
    res = chain_iso(cok0(X2), zero_chain(R5x2, 2))
    assert not res.found and res.definitive
    res = chain_iso(cok0(X2), zero_chain(R5x2, 3))
    assert not res.found and res.definitive and res.reason == "different lengths"
    with pytest.raises(ValueError, match="chains live over different rings"):
        chain_iso(cok0(X2), cok0(X2Q))
    # equal slot invariants, no invertible chain map among the tries: the
    # chain-map dimensions differ, which rules an isomorphism out
    for seed, dims in ((19, (8, 8, 8, 9)), (219, (4, 4, 4, 5))):
        c, d = equal_invariant_pair(seed)
        assert c.slot_invariants() == d.slot_invariants()
        res = chain_iso(c, d)
        assert not res.found and res.definitive
        assert res.reason == ("chain-map dimensions differ: Hom(C,C) %d, "
                              "Hom(C,D) %d, Hom(D,C) %d, Hom(D,D) %d" % dims)


def test_lift_rejects_bad_chains():
    bad = ChainModule(R5x2, [
        ModulePresentation(R5x2, 1, TwistedMatrix(R5x2, [[xx]])),
        ModulePresentation(R5x2, 1, TwistedMatrix(R5x2, [[xx]])),
    ], [TwistedMatrix(R5x2, [[xx]])], n=3)
    ok, slot = chain_is_mono(bad)
    assert not ok and slot == 1
    assert bad.defects() == ["chain map into slot 2 is not injective"]
    with pytest.raises(ValueError, match="into slot 2 is not injective"):
        lift(bad)
    # A/(x) -> A/(x^2), e |-> e sends the relation x e to x e != 0
    ill = ChainModule(R5x2, [
        ModulePresentation(R5x2, 1, TwistedMatrix(R5x2, [[x_]])),
        ModulePresentation(R5x2, 1, TwistedMatrix(R5x2, [[xx]])),
    ], [TwistedMatrix(R5x2, [[one]])], n=3)
    assert chain_is_mono(ill) == (True, None)
    assert ill.defects() == ["chain map into slot 2 is not well defined"]
    with pytest.raises(ValueError, match="into slot 2 is not well defined"):
        lift(ill)
    # chain_iso refuses a defective chain on either side; its k-linear
    # search alone would find ill isomorphic to itself
    good = ChainModule(R5x2, [
        ModulePresentation(R5x2, 1, TwistedMatrix(R5x2, [[x_]])),
        ModulePresentation(R5x2, 1, TwistedMatrix(R5x2, [[xx]])),
    ], [TwistedMatrix(R5x2, [[x_]])], n=3)
    assert good.defects() == []
    for c, d, defect in ((bad, bad, "not injective"), (ill, ill, "not well defined"),
                         (good, ill, "not well defined"), (ill, good, "not well defined")):
        with pytest.raises(ValueError, match="into slot 2 is %s" % defect):
            chain_iso(c, d)
    free = ChainModule(R5x2, [ModulePresentation(R5x2, 1, TwistedMatrix.zero(R5x2, 0, 1))],
                       [], n=2)
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
            x = rg.random_object(ring, rng2, n, max_rank=3)
            y = rg.random_object(ring, rng2, n, max_rank=3)
            fs = [rg.random_morphism(rng2, x, y), rg.random_morphism(rng2, x, x)]
            if n >= 2:
                z = rg.random_nonzero_object(ring, rng2, n, max_rank=3)
                fs.append(Morphism.identity(z))
            for f in fs:
                null = ho.is_p_null_homotopic(f).null
                assert chain_factors_projective(f) == null, (ring.omega, n)
                verdicts.add(null)
    assert verdicts == {True, False}


def test_staircase_cover_is_onto():
    # the staircases on A^{r_j(y)}, j = 1..n-1, map to cok0(y) by the arcs
    # d_Y^{j -> s}; each map is a chain map, and stacked over j they are
    # onto in every slot
    rng2 = random.Random(23)
    for ring in [r for r in rg.default_instances() if r.commutative]:
        fld = ring.field
        for n in (2, 3, 4):
            y = rg.random_object(ring, rng2, n, max_rank=3)
            d = cok0(y)
            stacked = [[] for _ in d.modules]
            for j in range(1, n):
                stair = staircase_chain(ring, n, j, y.ranks[j])
                comps = [y.compose_range(j, s - 1) if s >= j
                         else TwistedMatrix.zero(ring, 0, y.ranks[s])
                         for s in range(1, n)]
                p = ChainMorphism(stair, d, comps)
                assert p.is_valid(), (ring.omega, n, j)
                for s, (st, dm, m) in enumerate(zip(stair.modules, d.modules,
                                                    comps)):
                    stacked[s] += st.linearization().map_matrix(
                        dm.linearization(), m)
            for s, dm in enumerate(d.modules):
                assert kmat_rank(fld, stacked[s]) == dm.linearization().dim


# A/(x) -> A/(x^2), e -> x e, and the staircase with slot dimensions [0, 2]
C_X = ChainModule(R5x2, [ModulePresentation(R5x2, 1, TwistedMatrix(R5x2, [[x_]])),
                         ModulePresentation(R5x2, 1, TwistedMatrix(R5x2, [[xx]]))],
                  [TwistedMatrix(R5x2, [[x_]])], n=3)
D_STAIR = staircase_chain(R5x2, 3, 2, 1)


def test_square_out_of_a_zero_slot_keeps_its_width():
    # zero in slot 1 and the identity in slot 2: S_C G_2 = [[0, 1]], while
    # G_1 S_D is the 1 x 2 zero matrix through a slot of dimension 0
    assert not C_X.defects() and D_STAIR.dims() == [0, 2]
    g = ChainMorphism(C_X, D_STAIR, [TwistedMatrix(R5x2, [[]]),
                                     TwistedMatrix(R5x2, [[one]])])
    assert g.well_defined()
    assert g.square_defects() == [[[0, 1]]]
    assert not g.is_valid()


def test_composition_through_a_slot_without_generators():
    # the zero map C -> D, then the staircase cover D -> cok0(y)
    y = mk(R5x2, [1, 1, 1], [[[x_]], [[x_]], [[one]]])
    zero = ChainMorphism(C_X, D_STAIR, [TwistedMatrix(R5x2, [[]]),
                                        TwistedMatrix.zero(R5x2, 1, 1)])
    cover = ChainMorphism(D_STAIR, cok0(y),
                          [TwistedMatrix.zero(R5x2, 0, 1), y.compose_range(2, 1)])
    assert zero.is_valid() and cover.is_valid()
    h = zero.then(cover)
    assert h.components == [TwistedMatrix.zero(R5x2, 1, 1)] * 2
    assert h.is_valid() and h.is_zero_map()


def test_a_relation_of_width_zero_maps_into_a_nonzero_slot():
    # the zero module, presented by one relation row of width 0, into A/(x)
    c = ChainModule(R5x2, [ModulePresentation(R5x2, 0, TwistedMatrix(R5x2, [[]])),
                           ModulePresentation(R5x2, 1, TwistedMatrix(R5x2, [[x_]]))],
                    [TwistedMatrix.zero(R5x2, 0, 1)], n=3)
    assert c.defects() == []
    assert chain_iso(cok0(lift(c)), c).found


def test_projective_factoring_solves_no_system_over_a(monkeypatch):
    # the chain-side test is one kmat_solve; the only Hermite forms it
    # meets are the linearizations' own
    def refuse(*args):
        raise AssertionError("projective factoring reached a solve over A")

    rng2 = random.Random(29)
    for ring in [r for r in rg.default_instances() if r.commutative]:
        for n in (1, 2, 3, 4):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            null, _ = rg.random_null_morphism(rng2, x, y)
            fs = (null, rg.random_morphism(rng2, x, y), Morphism.identity(x))
            with monkeypatch.context() as mp:
                for where, name in ((matrices, "solve_right"), (ch, "solve_right"),
                                    (ch, "hermite_form")):
                    mp.setattr(where, name, refuse)
                verdicts = [chain_factors_projective(f) for f in fs]
            assert verdicts[0]
            assert verdicts == [ho.is_p_null_homotopic(f).null for f in fs]


def test_skew_rings_are_guarded():
    cS = cok0(XSneg)
    assert cS.dims() == [1]  # one F_4 basis vector below the pivot x
    with pytest.raises(UnsupportedRingError):
        lift(cS)
    with pytest.raises(UnsupportedRingError):
        chain_factors_projective(Morphism.identity(XSneg))
    rep = faithfulness_report(Morphism.identity(XSneg))
    assert rep["zero_agree"] and "null_agree" not in rep


def test_chain_maps_and_components_over_another_ring_are_refused():
    # as Factorization refuses its maps: a grid over another ring would
    # fail only later, deep in the field arithmetic of the linearization
    q = BaseRing(RationalField(), 0, [0, 0, 1])
    c = cok0(X2b)
    mod = ModulePresentation(R5x2, 1, TwistedMatrix(R5x2, [[x_]]))
    with pytest.raises(ValueError, match="chain map 0 lives over a different ring"):
        ChainModule(R5x2, [mod, mod], [TwistedMatrix(q, [[[1]]])])
    with pytest.raises(ValueError, match="component 0 lives over a different ring"):
        ChainMorphism(c, c, [TwistedMatrix.identity(q, 2)])
    assert ChainMorphism(c, c, [TwistedMatrix.identity(R5x2, 2)]).is_valid()


def test_non_canonical_components_are_reduced_as_they_enter():
    # 6 and -4 are 1 over F_5, 5 and 10 are its zero: the component is the
    # identity, and the kernels, which compare entries with the field's
    # zero, see it so
    c = cok0(X2b)
    raw = ChainMorphism(c, c, [TwistedMatrix(R5x2, [[[6], [5, 10]], [[10], [-4]]])])
    ident = ChainMorphism(c, c, [TwistedMatrix.identity(R5x2, 2)])
    assert raw.components == ident.components
    assert raw.well_defined() and raw.is_valid() and not raw.is_zero_map()
    zero = ChainMorphism(c, c, [TwistedMatrix(R5x2, [[[5], [0, 10]], [[-5], [15]]])])
    assert zero.is_valid() and zero.is_zero_map()
