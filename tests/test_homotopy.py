import hashlib
import json
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from modfact import matrices
from modfact import chains as ch
from modfact.matrices import TwistedMatrix, mat_mul
from modfact import modules
from modfact.modules import kmat_rank, kmat_solve, residues, times_x, residue_rows
from modfact import randomgen as rg
from modfact.factorizations import (Factorization, Morphism, theta, omega_morphism,
                                    shift, shift_morphism, face, face_morphism,
                                    degeneracy, degeneracy_morphism, direct_sum,
                                    direct_sum_morphism)
import modfact.homotopy as ho
from modfact.fields import ExtensionField, PrimeField
from modfact.rings import BaseRing

from common import (R5x2, R5x3, RQ2, RS, RS1, RS9, X2, X3, X2Q, X2b, XS, XSneg,
                    mk, one, ring_q, ring5)

rng = random.Random(7)


def test_reconstructed_morphisms_are_valid():
    for X, Y in [(X2, X2), (X3, X3), (X2b, X2b), (X2, X2b), (XS, XS)]:
        for _ in range(20):
            w = ho.random_witness(rng, X, Y, 2)
            f = ho.reconstruct_from_witness(X, Y, w)
            f.assert_valid()


def _walk(x, a, b):
    # the arc from slot a forward to slot b, one map at a time
    out = TwistedMatrix.identity(x.ring, x.ranks[a % x.n], 0)
    while a % x.n != b % x.n:
        out = out.then(x.maps[a % x.n])
        a += 1
    return out


def _term_by_term(x, y, w):
    # the reconstruction formula as written, f^i = sum_j d_X^{i -> j} h^j
    # d_Y^{j+1 -> i}, with arcs walked here rather than read from a memo
    comps = []
    for i in range(x.n):
        acc = TwistedMatrix.zero(x.ring, x.ranks[i], y.ranks[i], 0)
        for j, h in enumerate(w):
            acc = acc.add(_walk(x, i, j).then(h).then(_walk(y, j + 1, i)))
        comps.append(acc)
    return Morphism(x, y, comps)


def test_nested_rebuild_equals_the_term_by_term_sum():
    # every stock ring (F_4 x has sigma != id, so the twists matter),
    # folds 1-6, ranks <= 2: a full random witness, one with about half
    # its components zero, and one with a single nonzero component
    rng2 = random.Random(51)
    for ring in rg.default_instances():
        for n in range(1, 7):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            keep = rng2.randrange(n)
            for zero in (lambda j: False, lambda j: rng2.random() < 0.5,
                         lambda j: j != keep):
                w = ho.random_witness(rng2, x, y, 2)
                w = [TwistedMatrix.zero(ring, h.rows, h.cols, h.twist) if zero(j) else h
                     for j, h in enumerate(w)]
                f = ho.reconstruct_from_witness(x, y, w)
                want = _term_by_term(x, y, w)
                assert f == want, (ring, n)
                assert f.to_json() == want.to_json()


def test_two_fold_closed_form():
    # f^0 = sigma(H^0) N^1 + M^0 H^1,  f^1 = H^1 N^0 + sigma^-1(M^1) H^0
    for X, Y in [(X2b, X2b), (XS, XS)]:
        ring = X.ring
        w = ho.random_witness(rng, X, Y, 2)
        f = ho.reconstruct_from_witness(X, Y, w)
        M0, M1 = X.maps[0].m, X.maps[1].m
        N0, N1 = Y.maps[0].m, Y.maps[1].m
        H0, H1 = w[0].m, w[1].m
        sH0 = [[ring.apply_sigma(p, 1) for p in row] for row in H0]
        f0 = [[ring.add(a, b) for a, b in zip(r1, r2)]
              for r1, r2 in zip(mat_mul(ring, sH0, N1), mat_mul(ring, M0, H1))]
        sM1 = [[ring.apply_sigma(p, -1) for p in row] for row in M1]
        f1 = [[ring.add(a, b) for a, b in zip(r1, r2)]
              for r1, r2 in zip(mat_mul(ring, H1, N0), mat_mul(ring, sM1, H0))]
        assert f.components[0].m == f0
        assert f.components[1].m == f1


def test_identity_of_nontrivial_object_is_not_null():
    v = ho.is_p_null_homotopic(Morphism.identity(X2))
    assert not v.null and not v.bounded
    assert not ho.is_p_null_homotopic(Morphism.identity(X2Q)).null


def test_identity_of_theta_is_null():
    th = theta(R5x2, 2, 0, 1)
    assert ho.is_p_null_homotopic(Morphism.identity(th)).null


def test_omega_scaled_identity_is_null():
    assert ho.is_p_null_homotopic(omega_morphism(X2)).null


def test_constructed_null_morphisms_are_detected():
    for X, Y in [(X2, X2b), (X3, X3), (X2Q, X2Q)]:
        for _ in range(10):
            w = ho.random_witness(rng, X, Y, 2)
            f = ho.reconstruct_from_witness(X, Y, w)
            assert ho.is_p_null_homotopic(f).null


def test_trivial_homs_and_counits_are_valid():
    for X in [X2, X2b, X3, XS]:
        ring = X.ring
        for i in range(X.n):
            r = X.ranks[(i - 1) % X.n]
            lam = TwistedMatrix(ring, [[ring.random_poly(rng, 2) for _ in range(2)]
                                       for _ in range(r)], 0, rows=r, cols=2)
            ho.trivial_hom(X, i, lam).assert_valid()
            ho.trivial_counit(X, i).assert_valid()
        for indices in (range(X.n), [0]):
            t, eps = ho.trivial_sum_counit(X, indices)
            eps.assert_valid()


def test_witness_decomposes_as_sum_of_counit_composites():
    for X, Y in [(X2, X2b), (X3, X3), (XS, XS), (X2b, X2b)]:
        for _ in range(10):
            w = ho.random_witness(rng, X, Y, 2)
            f = ho.reconstruct_from_witness(X, Y, w)
            acc = Morphism.zero(X, Y)
            for i in range(X.n):
                lam = w[(i - 1) % X.n].with_twist(0)
                gi = ho.trivial_hom(X, i, lam)
                acc = acc.add(gi.then(ho.trivial_counit(Y, i)))
            assert acc == f


def test_null_and_trivial_factoring_agree():
    for X, Y in [(X2, X2b), (X3, X3)]:
        for _ in range(10):
            w = ho.random_witness(rng, X, Y, 2)
            f = ho.reconstruct_from_witness(X, Y, w)
            assert ho.factors_through_trivials(f).factors
    assert not ho.factors_through_trivials(Morphism.identity(X2)).factors
    assert not ho.factors_through_theta0(Morphism.identity(X2)).factors


def test_counit_composite_factors_through_theta0():
    pos = ho.trivial_hom(X2, 0, TwistedMatrix(R5x2, [[one]], 0))
    pos = pos.then(ho.trivial_counit(X2, 0))
    assert ho.factors_through_theta0(pos).factors


def test_hom_module_of_theta_pair():
    th = theta(R5x2, 2, 0, 1)
    assert ho.HomSpace(th, th).rank == 1
    sh = ho.stable_hom(th, th)
    assert sh.is_zero() and sh.k_dimension == 0


def test_hom_spaces_refuse_objects_over_different_rings():
    # equal ranks and fold counts, Q and F_5 with omega = x^2
    with pytest.raises(ValueError, match="live over different rings"):
        ho.stable_hom(theta(RQ2, 2, 1), theta(R5x2, 2, 1))
    with pytest.raises(ValueError, match="live over different rings"):
        ho.HomSpace(theta(R5x2, 2, 1), theta(RQ2, 2, 1))


def test_a_top_component_that_does_not_extend_is_refused():
    # theta^0 -> theta^1 with top 1 needs g * omega = 1 at slot 0
    hom = ho.HomSpace(theta(R5x2, 2, 0), theta(R5x2, 2, 1))
    with pytest.raises(ValueError, match="does not extend to a morphism"):
        hom.morphism([[one]])


def test_stable_end_of_x_x_is_one_dimensional():
    sh = ho.stable_hom(X2, X2)
    assert sh.k_dimension == 1 and sh.omega_torsion
    shq = ho.stable_hom(X2Q, X2Q)
    assert shq.k_dimension == 1 and shq.omega_torsion


def test_theta0_ideal_is_coarser():
    sh0 = ho.stable_hom(X2, X2, ideal="theta0")
    assert sh0.k_dimension is not None and sh0.k_dimension >= 1


def test_zero_witness_reconstructs_zero():
    # the all-zero witness bounds the zero morphism, and every zero
    # morphism is null on every stock ring with a witness that rebuilds it
    for X, Y in [(X2, X2), (X3, X3), (X2b, X2b), (X2, X2b), (XS, XS)]:
        w = [TwistedMatrix.zero(X.ring, r, c, t)
             for r, c, t in ho.witness_shapes(X, Y)]
        assert ho.reconstruct_from_witness(X, Y, w).is_zero()
    rng2 = random.Random(23)
    for ring in rg.default_instances():
        for n in (1, 2, 3):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            v = ho.is_p_null_homotopic(Morphism.zero(x, y))
            assert v.null
            assert ho.reconstruct_from_witness(x, y, v.witness).is_zero()
            assert ho.factors_through_trivials(Morphism.zero(x, y)).factors


def test_witness_transports():
    # null homotopy is a two-sided ideal stable under shift and direct
    # sums: with f null, u f, f v, shift(f) and f + u f are null on every
    # stock ring, each with a witness that rebuilds it
    rng2 = random.Random(29)
    for ring in rg.default_instances():
        for n in (1, 2, 3):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            f, _ = rg.random_null_morphism(rng2, x, y)
            u = rg.random_morphism(rng2, x, x)
            v = rg.random_morphism(rng2, y, y)
            for g in (u.then(f), f.then(v), shift_morphism(f),
                      direct_sum_morphism([f, u.then(f)])):
                verdict = ho.is_p_null_homotopic(g)
                assert verdict.null
                assert ho.reconstruct_from_witness(
                    g.source, g.target, verdict.witness) == g
                assert ho.factors_through_trivials(g).factors


def test_identity_pair_is_stable_iso():
    assert ho.is_stable_iso_pair(Morphism.identity(X2), Morphism.identity(X2)) is True
    assert ho.is_stable_iso_pair(Morphism.zero(X2, X2), Morphism.zero(X2, X2)) is False


def test_skew_bounded_decider_finds_constructed_witnesses():
    for _ in range(6):
        w = ho.random_witness(rng, XS, XS, 1)
        f = ho.reconstruct_from_witness(XS, XS, w)
        assert ho.is_p_null_homotopic(f).null
        assert ho.factors_through_trivials(f).factors


def test_unit_off_diagonal_objects_are_stably_trivial():
    # XS has unit off-diagonal entries, so its cokernel is free over A/omega
    assert ho.is_p_null_homotopic(Morphism.identity(XS)).null
    assert ho.is_stably_zero(X2b).null  # same phenomenon commutatively


def test_skew_negative_is_definitive():
    vneg = ho.is_p_null_homotopic(Morphism.identity(XSneg))
    assert not vneg.null and not vneg.bounded
    assert vneg.to_json() == {"null_homotopic": False, "bounded": False}
    rneg = ho.factors_through_trivials(Morphism.identity(XSneg))
    assert not rneg.factors and not rneg.bounded
    assert not ho.factors_through_theta0(Morphism.identity(XSneg)).factors


def test_skew_theta_objects_are_stably_zero():
    assert ho.is_stably_zero(theta(RS, 2, 1, 2)).null
    assert ho.is_stably_zero(theta(RS1, 1, 0, 1)).null


def test_rank_two_endomorphisms_are_decided_by_both_deciders():
    rng2 = random.Random(13)
    for _ in range(6):
        w = ho.random_witness(rng2, X2b, X2b, 2)
        f = ho.reconstruct_from_witness(X2b, X2b, w)
        assert ho.is_p_null_homotopic(f).null
        assert ho.factors_through_trivials(f).factors


def _top_entries(f):
    # the slot n-1 component of f, row by row: what the engine reads
    return [p for row in f.components[-1].m for p in row]


def test_witness_image_matches_reconstruction():
    # one polynomial in one witness slot, assembled directly, against the
    # slot n-1 component of the morphism reconstruct_from_witness bounds
    # with that one-entry witness
    rng2 = random.Random(11)
    for ring in rg.default_instances():
        for n in range(1, 5):
            for _ in range(2):
                x = rg.random_object(ring, rng2, n, max_rank=2)
                y = rg.random_object(ring, rng2, n, max_rank=2)
                slots = ho._witness_slots(x, y)
                image = ho._witness_image(x, y, slots)
                for _ in range(3):
                    u = rng2.randrange(len(slots))
                    p = ring.random_poly(rng2, 3)
                    coeffs = [[] for _ in slots]
                    coeffs[u] = p
                    w = ho._witness_from_coeffs(x, y, slots, coeffs)
                    f = ho.reconstruct_from_witness(x, y, w)
                    assert image(u, p) == _top_entries(f)


def test_trivial_sum_image_matches_its_construction():
    # one polynomial in one parameter slot, assembled from the term table,
    # against the slot n-1 component of the morphism its trivial_homs
    # make, followed by the counit
    rng2 = random.Random(12)
    for ring in rg.default_instances():
        for n in range(1, 5):
            for _ in range(2):
                x = rg.random_object(ring, rng2, n, max_rank=2)
                y = rg.random_object(ring, rng2, n, max_rank=2)
                for indices in (range(n), [0]):
                    t, eps = ho.trivial_sum_counit(y, indices)
                    slots = ho._lambda_slots(x, y, indices)
                    image = ho._lambda_image(x, y, indices, slots)
                    for _ in range(3 if slots else 0):
                        u = rng2.randrange(len(slots))
                        p = ring.random_poly(rng2, 3)
                        coeffs = [[] for _ in slots]
                        coeffs[u] = p
                        g = ho._lambda_morphism(x, y, t, indices, slots, coeffs)
                        assert image(u, p) == _top_entries(g.then(eps))


def _top_residues(f):
    ring = f.ring
    return [c for row in f.components[-1].m for c in residues(ring, row)]


def test_hom_space_basis_completes_and_spans_morphisms():
    # every basis vector extends to a morphism, and the top residues of
    # identities, null morphisms and omega times the identity lie in the span
    rng2 = random.Random(13)
    for ring in [r for r in rg.default_instances() if r.commutative]:
        fld = ring.field
        for n in range(1, 5):
            for _ in range(2):
                x = rg.random_object(ring, rng2, n, max_rank=2)
                y = rg.random_object(ring, rng2, n, max_rank=2)
                hom = ho.HomSpace(x, y)
                assert hom.rank == x.ranks[-1] * y.ranks[-1]
                for vec in hom.basis:
                    g = hom.morphism(hom.lift(vec))
                    assert g.is_valid() and _top_residues(g) == vec
                null, _ = rg.random_null_morphism(rng2, x, y)
                assert kmat_solve(fld, hom.basis, [_top_residues(null)]) is not None
                end = ho.HomSpace(x, x)
                for f in (Morphism.identity(x), omega_morphism(x)):
                    assert kmat_solve(fld, end.basis, [_top_residues(f)]) is not None


def test_stable_hom_dimension_matches_the_chain_side():
    # cok0 is full and faithful onto chains modulo projectives, and kills
    # exactly the maps through theta^0 sums: so stHom(x, y) is
    # Hom(cok0 x, cok0 y) modulo the maps through the staircase cover, and
    # the theta0 quotient is all of Hom(cok0 x, cok0 y)
    rng2 = random.Random(29)
    seen = 0
    for ring in [r for r in rg.default_instances() if r.commutative]:
        fld = ring.field
        for n in (2, 3, 4):
            for k in range(3):
                x = rg.random_object(ring, rng2, n, max_rank=2)
                if k:
                    y = rg.random_object(ring, rng2, n, max_rank=2)
                else:
                    try:
                        y = rg.random_nonzero_object(ring, rng2, n, max_rank=2)
                    except ValueError:
                        y = x
                c, d = ch.cok0(x), ch.cok0(y)
                hom = len(ch._chain_map_space(c, d)[0])
                cover = ch._cover_composites(c, d, y)
                proj = kmat_rank(fld, cover) if cover else 0
                assert ho.stable_hom(x, y).k_dimension == hom - proj
                assert ho.stable_hom(x, y, "theta0").k_dimension == hom
                seen += hom - proj > 0
    assert seen >= 10


def _ideal_residues(x, y, ideal):
    if ideal == "all":
        slots = ho._witness_slots(x, y)
        image = ho._witness_image(x, y, slots)
    else:
        slots = ho._lambda_slots(x, y, [0])
        image = ho._lambda_image(x, y, [0], slots)
    return residue_rows(x.ring, len(slots), image)


def test_stable_hom_representatives_are_morphisms():
    # each representative is a morphism outside the ideal that its own
    # invariant factor d sends into it, and the x^i multiples, i < deg d,
    # of all of them span the quotient: it is the sum of the A/(d)
    rng2 = random.Random(5)
    rq = ring_q([0, 0, 0, 1])
    pairs = [(X2, X2), (X2Q, X2Q), (X3, X3), (X2b, X2b), (X2, X2b)]
    pairs += [(rg.random_object(rq, rng2, 2, max_rank=1),
               rg.random_object(rq, rng2, 2, max_rank=1)) for _ in range(4)]
    pairs += [(rg.random_object(ring, rng2, 3, max_rank=2),
               rg.random_nonzero_object(ring, rng2, 3, max_rank=2))
              for ring in (rq, R5x3, ring5([0, 0, 4, 1]))]
    # a Smith form whose v^{-1} has entries of positive degree
    z = rg.random_nonzero_object(rq, random.Random(7), 4, max_rank=2)
    pairs.append((z, z))
    seen = 0
    for X, Y in pairs:
        for ideal, within in (("all", lambda f: ho.is_p_null_homotopic(f).null),
                              ("theta0", lambda f: ho.factors_through_theta0(f).factors)):
            sh = ho.stable_hom(X, Y, ideal)
            assert len(sh.representatives) == len(sh.invariant_factors)
            for f, d in zip(sh.representatives, sh.invariant_factors):
                assert f.is_valid()
                assert not within(f)
                assert within(f.scale_central(d))
                seen += 1
            ring = X.ring
            null = _ideal_residues(X, Y, ideal)
            gens = [_top_residues(f.scale_central(ring.x_power(i)))
                    for f, d in zip(sh.representatives, sh.invariant_factors)
                    for i in range(ring.deg(d))]
            assert (kmat_rank(ring.field, null + gens)
                    == kmat_rank(ring.field, null) + sh.k_dimension)
    assert seen >= 20


def _skew_instances():
    # the stock F_4 rings, whose induced automorphism is an involution or
    # the identity, an F_8 ring where it has order 3, and an F_9 ring whose
    # omega = 2 x^2 is not monic
    f8 = ExtensionField(2, 3)
    return [r for r in rg.default_instances() if not r.commutative] + [
        BaseRing(f8, 1, [f8.zero, f8.zero, f8.one]), RS9]


def _engine_instances():
    # every ring the one mod-omega engine solves on: the stock commutative
    # rings, then the skew ones
    return [r for r in rg.default_instances() if r.commutative] + _skew_instances()


def test_skew_decisions_divide_only_to_complete(monkeypatch):
    # a residue modulo omega = c x^m is a truncation, so the only division
    # in a decision over such an omega, skew or commutative, is the
    # completion's quotient by omega of each entry of the
    # r_{n-1}(x) x r_{n-1}(y) top block
    calls = []
    real = BaseRing.right_quo_rem

    def counting(self, f, g):
        calls.append(g)
        return real(self, f, g)

    rng2 = random.Random(31)
    for ring in [r for r in _engine_instances() if r.omega_monomial]:
        for n in (1, 2, 3):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            null, _ = rg.random_null_morphism(rng2, x, y)
            for f in (null, rg.random_morphism(rng2, x, y), Morphism.identity(x)):
                top = f.source.ranks[-1] * f.target.ranks[-1]
                for decide in (ho.is_p_null_homotopic, ho.factors_through_trivials,
                               ho.factors_through_theta0):
                    del calls[:]
                    with monkeypatch.context() as mp:
                        mp.setattr(BaseRing, "right_quo_rem", counting)
                        verdict = bool(decide(f))
                    assert len(calls) == (top if verdict else 0)
                    assert all(g == ring.omega for g in calls)


def test_residues_never_divide(monkeypatch):
    # over an omega that is not a monomial, a residue reduces by Horner's
    # rule on times_x and never divides, while entries of degree deg omega
    # or more do reach it; the completion divides each entry of the top
    # block of a positive once, and a negative not at all. The engine
    # reads residues through the layer in modules alone
    calls = []
    inside = []
    long_residues = []
    real_quo_rem, real_residue = BaseRing.right_quo_rem, residues

    def counting(self, f, g):
        calls.append(bool(inside))
        return real_quo_rem(self, f, g)

    def residue(ring, vec):
        long_residues.append(any(len(p) > ring.omega_deg for p in vec))
        inside.append(vec)
        try:
            return real_residue(ring, vec)
        finally:
            inside.pop()

    rng2 = random.Random(43)
    for ring in (ring_q([0, 0, -1, 1]), ring5([0, 0, 4, 1])):
        assert not ring.omega_monomial
        for n in (1, 2, 3):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            null, _ = rg.random_null_morphism(rng2, x, y)
            for f in (null, rg.random_morphism(rng2, x, y), Morphism.identity(x)):
                top = f.source.ranks[-1] * f.target.ranks[-1]
                for decide in (ho.is_p_null_homotopic, ho.factors_through_trivials,
                               ho.factors_through_theta0):
                    del calls[:]
                    with monkeypatch.context() as mp:
                        mp.setattr(BaseRing, "right_quo_rem", counting)
                        mp.setattr(modules, "residues", residue)
                        verdict = bool(decide(f))
                    assert not any(calls)
                    assert len(calls) == (top if verdict else 0)
    assert any(long_residues)


def _answers(x, y, f):
    # the JSON of every decider's and functor's answer on x, y and f
    out = [ho.is_p_null_homotopic(f).to_json(), ho.factors_through_trivials(f).to_json(),
           ho.factors_through_theta0(f).to_json()]
    if x.ring.commutative:
        out += [ho.stable_hom(x, y).to_json(), ho.stable_hom(x, y, "theta0").to_json()]
    for z in (x, y):
        out += [shift(z).to_json(), z.sigma_twist(1).to_json(), z.sigma_twist(-1).to_json()]
        out += [face(z, i).to_json() for i in range(z.n + 1)]
        out += [degeneracy(z, i).to_json() for i in range(z.n) if z.n >= 2]
    out.append(shift_morphism(f).to_json())
    out += [face_morphism(f, i).to_json() for i in range(f.n + 1)]
    out += [degeneracy_morphism(f, i).to_json() for i in range(f.n) if f.n >= 2]
    return out


def _use_positives(x, y, f):
    # the answers whose matrices share grids with their inputs' arcs or
    # were taken over without a copy: the positive trivial factorization's
    # g and counit, and the stable_hom representatives; each is used as a
    # morphism (composed, checked, shifted), which must change none of them
    used = []
    t = ho.factors_through_trivials(f)
    if t:
        assert t.g.is_valid() and t.counit.is_valid() and t.g.then(t.counit) == f
        used += [t.g, t.counit]
    trivials = len(used)
    if x.ring.commutative:
        for ideal in ("all", "theta0"):
            for rep in ho.stable_hom(x, y, ideal).representatives:
                assert rep.is_valid()
                used.append(rep)
    before = [g.to_json() for g in used]
    for g in used:
        g.then(Morphism.identity(g.target)).add(g)
        Morphism.identity(g.source).then(g).sub(g)
        shift_morphism(g)
        face_morphism(g, 0)
    assert [g.to_json() for g in used] == before
    return trivials, len(used) - trivials


def test_answers_neither_change_nor_share_their_inputs():
    # matrices and their entry lists are shared, never copied, wherever
    # that is safe (TwistedMatrix): no decider or functor may change its
    # inputs, each answer must be what fresh copies of them give, and
    # using a shared answer must change neither it nor the inputs
    rng2 = random.Random(47)
    positives = [0, 0]
    for ring in rg.default_instances():
        for n in (1, 2, 3, 4):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            null, _ = rg.random_null_morphism(rng2, x, y)
            for f in (null, rg.random_morphism(rng2, x, y), Morphism.identity(x)):
                y = f.target
                before = [x.to_json(), y.to_json(), f.to_json()]
                answers = _answers(x, y, f)
                assert [x.to_json(), y.to_json(), f.to_json()] == before
                positives = [a + b for a, b in zip(positives, _use_positives(x, y, f))]
                assert [x.to_json(), y.to_json(), f.to_json()] == before
                assert _answers(x, y, f) == answers
                fx = Factorization.from_json(ring, before[0])
                fy = Factorization.from_json(ring, before[1])
                assert _answers(fx, fy, Morphism.from_json(fx, fy, before[2])) == answers
    # (g and counit of 93 trivial factorizations, 253 representatives)
    assert positives[0] > 100 and positives[1] > 100


def test_sigma_entries_is_the_matrix_itself_exactly_when_sigma_is_trivial():
    for ring in _engine_instances():
        fld = ring.field
        elems = list(fld.elements()) if fld.card else [fld.from_int(k) for k in range(-2, 3)]
        m = TwistedMatrix(ring, [[[c], [fld.zero, c]] for c in elems], 1)
        for power in range(-3, 4):
            trivial = all(ring.apply_sigma(p, power) == p for row in m.m for p in row)
            twisted = m.sigma_entries(power)
            assert (twisted is m) == trivial
            assert twisted.m == [[ring.apply_sigma(e, power) for e in row] for row in m.m]
            assert twisted.twist == m.twist


def test_skew_deciders_complete_multiples_of_omega():
    # witnesses and theta^0 parameters of degree >= deg omega leave the
    # engine a nonzero remainder omega g on every ring; each positive must
    # rebuild
    rng2 = random.Random(17)
    completed = 0
    for ring in _engine_instances():
        for n in (1, 2, 3):
            for _ in range(3):
                x = rg.random_object(ring, rng2, n, max_rank=2)
                y = rg.random_object(ring, rng2, n, max_rank=2)
                w = ho.random_witness(rng2, x, y, max_deg=ring.omega_deg + 2)
                f = ho.reconstruct_from_witness(x, y, w)
                v = ho.is_p_null_homotopic(f)
                assert v.null and ho.reconstruct_from_witness(x, y, v.witness) == f
                completed += any(ring.deg(p) >= ring.omega_deg
                                 for row in v.witness[-1].m for p in row)
                t = ho.factors_through_trivials(f)
                assert t.factors and t.g.then(t.counit) == f
                lam = TwistedMatrix(ring, [[ring.random_poly(rng2, ring.omega_deg + 2)
                                            for _ in range(y.ranks[0])]
                                           for _ in range(x.ranks[-1])], 0)
                g = ho.trivial_hom(x, 0, lam).then(ho.trivial_counit(y, 0))
                t0 = ho.factors_through_theta0(g)
                assert t0.factors and t0.g.then(t0.counit) == g
                om = omega_morphism(x)
                assert om.is_valid()
                v = ho.is_p_null_homotopic(om)
                assert v.null and ho.reconstruct_from_witness(x, om.target, v.witness) == om
                for decide in (ho.factors_through_trivials, ho.factors_through_theta0):
                    t = decide(om)
                    assert t.factors and t.g.then(t.counit) == om
    assert completed > 0


def test_skew_engine_solves_one_system(monkeypatch):
    # one system per decision on every ring, deg omega * e' unknowns per
    # slot and as many equations per entry of the slot n-1 component:
    # over the ring's own field (e' = 1) when it is commutative, over F_p
    # with the e coordinates of F_{p^e} (e' = e) when it is skew
    shapes = []
    real = ho.kmat_solve

    def recording(fld, m, rhs):
        shapes.append((fld, len(m), len(rhs[0])))
        return real(fld, m, rhs)

    monkeypatch.setattr(ho, "kmat_solve", recording)
    rng2 = random.Random(19)
    for ring in _engine_instances():
        if ring.commutative:
            fld, per_entry = ring.field, ring.omega_deg
        else:
            fld, per_entry = PrimeField(ring.field.p), ring.omega_deg * ring.field.e
        for n in (1, 2, 3):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            f, _ = rg.random_null_morphism(rng2, x, x)
            entries = x.ranks[-1] * x.ranks[-1]
            lambdas = len(ho._lambda_slots(x, x, range(n)))
            assert lambdas == sum(x.ranks[i - 1] * x.ranks[i] for i in range(n))
            for decide, slots in (
                    (ho.is_p_null_homotopic, len(ho._witness_slots(x, x))),
                    (ho.factors_through_trivials, lambdas),
                    (ho.factors_through_theta0, x.ranks[-1] * x.ranks[0])):
                for g in (f, Morphism.identity(x)):
                    del shapes[:]
                    decide(g)
                    assert shapes == [(fld, slots * per_entry, entries * per_entry)]


def _reference_skew_rows(ring, image):
    # the skew rows by their definition, as the engine built them before
    # modules.linear_system wrote them from the term table: the F_p
    # coordinates of the residues of image(u, unit x^d), over u, then d,
    # then unit
    fld, e = ring.field, ring.field.e
    units = [tuple(int(i == k) for i in range(e)) for k in range(e)]
    return [[a for c in residues(ring, image(u, [fld.zero] * d + [unit])) for a in c]
            for u in range(len(image.slots)) for d in range(ring.omega_deg)
            for unit in units]


_F4, _F8 = ExtensionField(2, 2), ExtensionField(2, 3)
# every skew ring of _skew_instances (sigma of order 2 on F_4 x^2, order 3
# on F_8 x^2), and omega = x^3 over F_4 and F_8, where a product reaches
# x^2 through the twists of three coefficients
_ROW_RINGS = _skew_instances() + [BaseRing(f, 1, [f.zero] * 3 + [f.one]) for f in (_F4, _F8)]


@given(st.sampled_from(_ROW_RINGS), st.integers(1, 4),
       st.sampled_from(("witness", "trivials", "theta0")), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_skew_rows_are_the_coordinates_of_the_images(ring, n, which, seed):
    # the rows linear_system writes on a skew ring equal, row for row and
    # entry for entry, the flattened residues of the images, for the
    # witness map, the trivial-sum map and the theta^0 map
    rng2 = random.Random(seed)
    x = rg.random_object(ring, rng2, n, max_rank=2)
    y = rg.random_object(ring, rng2, n, max_rank=2)
    if which == "witness":
        image = ho._witness_image(x, y, ho._witness_slots(x, y))
    else:
        indices = range(n) if which == "trivials" else [0]
        image = ho._lambda_image(x, y, indices, ho._lambda_slots(x, y, indices))
    fld, rows = modules.linear_system(ring, image)
    assert fld is ring.coordinate_field and fld == PrimeField(ring.field.p)
    assert rows == _reference_skew_rows(ring, image)


def test_skew_answers_keep_their_bytes():
    # every decider's answer, witnesses, factorizations and counits
    # included, on skew rings beyond the stock ones: sigma of order 3 (F_8
    # x^2), a non-monic omega (F_9 2 x^2) and omega = x^3 (F_4), at folds
    # 1-4; the digest was recorded while the skew rows were still the
    # flattened residues of full images
    f9 = ExtensionField(3, 2)
    rings = [BaseRing(_F8, 1, [_F8.zero, _F8.zero, _F8.one]),
             BaseRing(f9, 1, [f9.zero, f9.zero, f9.from_int(2)]),
             BaseRing(_F4, 1, [_F4.zero] * 3 + [_F4.one])]
    rng2 = random.Random(71)
    blobs = []
    for ring in rings:
        for n in (1, 2, 3, 4):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            null, _ = rg.random_null_morphism(rng2, x, y)
            for f in (null, rg.random_morphism(rng2, x, y), Morphism.identity(x)):
                for decide in _DECIDERS:
                    blobs.append(json.dumps(decide(f).to_json(), sort_keys=True))
    assert sum('"witness"' in b for b in blobs) == 29
    assert sum('"counit"' in b for b in blobs) == 51
    assert hashlib.sha256("\n".join(blobs).encode()).hexdigest() == (
        "c3a07c57f988829177f26da11e6dacff67f5bc456fca8ce2041376b2ddf79e12")


def test_skew_negative_builds_no_prime_field_and_no_product(monkeypatch):
    # work counted, not timed: deciding the skew (x, x) identity, and that
    # of its double, no decider builds a PrimeField (the ring holds F_2)
    # or multiplies two polynomials, as its rows come from the term table
    # and a negative is not completed
    counts = []
    real_mul, real_init = BaseRing.mul, PrimeField.__init__

    def mul(self, f, g):
        counts.append("mul")
        return real_mul(self, f, g)

    def init(self, p):
        counts.append("prime")
        real_init(self, p)

    monkeypatch.setattr(BaseRing, "mul", mul)
    monkeypatch.setattr(PrimeField, "__init__", init)
    for z in (XSneg, direct_sum([XSneg] * 2)):
        for decide in _DECIDERS:
            x = Factorization(z.ring, z.ranks, z.maps)
            del counts[:]
            assert not decide(Morphism.identity(x))
            assert counts == []


def test_theta0_factorization_is_the_one_block_trivial_sum():
    # factors_through_theta0 is the trivial-sum decider on the index list
    # [0]: it must factor through theta^0 itself by the plain counit, with
    # the i = 0 slots first and row-major as in the full sum
    rng2 = random.Random(23)
    for ring in rg.default_instances():
        for n in (1, 2, 3):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            r, c = x.ranks[-1], y.ranks[0]
            assert ho._lambda_slots(x, y, [0]) == [(0, a, b) for a in range(r)
                                                   for b in range(c)]
            assert ho._lambda_slots(x, y, range(n))[:r * c] == ho._lambda_slots(x, y, [0])
            lam = TwistedMatrix(ring, [[ring.random_poly(rng2, 2) for _ in range(c)]
                                       for _ in range(r)], 0, rows=r, cols=c)
            g = ho.trivial_hom(x, 0, lam).then(ho.trivial_counit(y, 0))
            for f in (g, Morphism.zero(x, y)):
                t = ho.factors_through_theta0(f)
                assert t.factors and t.g.then(t.counit) == f
                assert t.through == theta(ring, n, 0, y.ranks[0])
                assert t.counit == ho.trivial_counit(y, 0)


def test_trivial_sum_is_built_only_for_positives(monkeypatch):
    # a negative is decided before any trivial sum or counit is built
    def refuse(*args):
        raise AssertionError("a negative built the trivial sum")

    rng2 = random.Random(53)
    negatives = [Morphism.identity(XSneg)]
    for ring in [r for r in rg.default_instances() if r.commutative]:
        for n in (2, 3):
            try:
                negatives.append(Morphism.identity(
                    rg.random_nonzero_object(ring, rng2, n, max_rank=2)))
            except ValueError:
                pass  # squarefree omega: no stably nonzero object
    assert len(negatives) > 10
    with monkeypatch.context() as mp:
        mp.setattr(ho, "trivial_sum_counit", refuse)
        for f in negatives:
            assert not ho.factors_through_trivials(f)
            assert not ho.factors_through_theta0(f)
    # positives keep their bytes (g, counit and trivial ranks); the digest
    # was recorded when the trivial sum was still built before the solve
    rng2 = random.Random(59)
    blobs = []
    for ring in rg.default_instances():
        for n in (1, 2, 3, 4):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            null, _ = rg.random_null_morphism(rng2, x, y)
            for decide in (ho.factors_through_trivials, ho.factors_through_theta0):
                blobs.append(json.dumps(decide(null).to_json(), sort_keys=True))
    assert sum('"into_trivial_sum"' in b for b in blobs) == 61
    assert hashlib.sha256("\n".join(blobs).encode()).hexdigest() == (
        "ac75006f67466849f96da4745baad088d3b9b7507f8b13f61e0f4f58cd9d19d3")


def test_verdicts_and_stable_homs_keep_their_bytes():
    # is_p_null_homotopic verdicts with their witnesses, and stable_hom
    # reports under both ideals, on the 10 stock rings at folds 1-4; the
    # digest was recorded while Q still built every Fraction through
    # Fraction(n, d) and BaseRing.mul still added every product into a
    # zeroed list and trimmed
    rng2 = random.Random(67)
    blobs = []
    for ring in rg.default_instances():
        for n in (1, 2, 3, 4):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            null, _ = rg.random_null_morphism(rng2, x, y)
            for f in (null, rg.random_morphism(rng2, x, y), Morphism.identity(x)):
                blobs.append(json.dumps(ho.is_p_null_homotopic(f).to_json(), sort_keys=True))
            if ring.commutative:
                for ideal in ("all", "theta0"):
                    blobs.append(json.dumps(ho.stable_hom(x, null.target, ideal).to_json(),
                                            sort_keys=True))
    assert sum('"witness"' in b for b in blobs) == 92
    # answers with a rational that is not an integer
    assert sum("/" in b for b in blobs) == 28
    assert hashlib.sha256("\n".join(blobs).encode()).hexdigest() == (
        "f015eea6d7354318261a266f738e2916e50aa63fb3351e81edeea28c3340cc43")


def test_rebuild_and_witness_image_build_few_arcs():
    # work counted, not timed, on a fresh fold-6 pair: the rebuild builds
    # no arc of either object, and the witness map reads its arcs out of
    # and into slot n-1 as one chain each, n memo entries per object where
    # an arc built from each start adds n (n - 1) / 2 + 1 to y's memo
    rng2 = random.Random(61)
    n = 6
    for ring in rg.default_instances():
        x, y = (rg.random_object(ring, rng2, n, max_rank=2) for _ in range(2))
        x = Factorization(ring, x.ranks, x.maps)
        y = Factorization(ring, y.ranks, y.maps)
        ho.reconstruct_from_witness(x, y, ho.random_witness(rng2, x, y, 2))
        assert not x._ranges and not y._ranges
        ho._witness_image(x, y, ho._witness_slots(x, y))
        assert 0 < len(x._ranges) <= 2 * (n - 1)
        assert 0 < len(y._ranges) <= 2 * (n - 1)


def test_non_morphism_is_not_null_on_every_engine():
    for x in (X2, XS):
        ring = x.ring
        comps = [TwistedMatrix.scalar(ring, r, ring.omega) for r in x.ranks]
        comps[0] = TwistedMatrix.zero(ring, x.ranks[0], x.ranks[0])
        f = Morphism(x, x, comps)
        assert not f.is_valid()
        assert not ho.is_p_null_homotopic(f).null
        assert not ho.factors_through_trivials(f).factors


def _bump(ring, m, a, b):
    # m with one added to entry (a, b)
    out = [list(row) for row in m]
    out[a][b] = ring.add(out[a][b], ring.one)
    return out


_DECIDERS = (ho.is_p_null_homotopic, ho.factors_through_trivials,
             ho.factors_through_theta0)


def test_a_change_below_the_top_slot_is_not_null():
    # the engine solves the slot n-1 component alone; a null morphism
    # changed at a lower slot keeps its top, so it solves, fails to
    # rebuild, and must be refused, not asserted on
    rng2 = random.Random(41)
    for ring in rg.default_instances():
        for n in (2, 3, 4):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            null, _ = rg.random_null_morphism(rng2, x, y)
            s = rng2.randrange(n - 1)
            comps = list(null.components)
            c = comps[s]
            comps[s] = TwistedMatrix(ring, _bump(ring, c.m, 0, 0), c.twist,
                                     rows=c.rows, cols=c.cols)
            f = Morphism(x, y, comps)
            assert not f.is_valid()
            for decide in _DECIDERS:
                assert not decide(f)


def test_identity_of_a_non_factorization_is_decided_without_asserting():
    # the one-slot argument needs omega I rotations: on an object whose
    # rotation identity fails a solved answer may not rebuild, which is a
    # negative there, not an internal error; a positive still rebuilds.
    # A factorization through trivials is built from trivial_hom
    # components, a morphism only out of a valid source: so both trivial
    # deciders answer no on every such source
    rng2 = random.Random(43)
    for ring in rg.default_instances():
        for n in (1, 2, 3, 4):
            for _ in range(3):
                x = rg.random_object(ring, rng2, n, max_rank=2)
                d = x.maps[0]
                maps = [TwistedMatrix(ring, _bump(ring, d.m, rng2.randrange(d.rows),
                                                  rng2.randrange(d.cols)),
                                      d.twist, rows=d.rows, cols=d.cols)] + x.maps[1:]
                bad = Factorization(ring, x.ranks, maps)
                assert not bad.is_valid()
                f = Morphism.identity(bad)
                v = ho.is_p_null_homotopic(f)
                if v.null:
                    assert ho.reconstruct_from_witness(bad, bad, v.witness) == f
                for decide in (ho.factors_through_trivials, ho.factors_through_theta0):
                    assert not decide(f)


def test_deciders_agree_on_rank_zero_sources_and_targets():
    # a matrix without rows must keep its width through composites, or
    # the factorizations through trivial objects fail to validate
    rng2 = random.Random(17)
    for ring in rg.default_instances():
        for n in (1, 2, 3):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            z = theta(ring, n, rng2.randrange(n), 0)
            for f in (Morphism.zero(z, x), Morphism.zero(x, z)):
                assert ho.is_p_null_homotopic(f).null
                assert ho.factors_through_trivials(f).factors
                assert ho.factors_through_theta0(f).factors


def test_deciders_need_no_hermite_form(monkeypatch):
    # the mod-omega engine decides on every stock ring: no decider reaches
    # the Hermite solve over A, which only HomSpace.morphism keeps, to
    # complete a top component
    def refuse(*args):
        raise AssertionError("a decider reached the Hermite solve")

    rng2 = random.Random(37)
    for ring in rg.default_instances():
        for n in (1, 2, 3):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            y = rg.random_object(ring, rng2, n, max_rank=2)
            null, _ = rg.random_null_morphism(rng2, x, y)
            fs = (null, rg.random_morphism(rng2, x, y), Morphism.identity(x))
            with monkeypatch.context() as mp:
                for where, name in ((matrices, "solve_right"), (matrices, "hermite_form"),
                                    (ho, "solve_right")):
                    mp.setattr(where, name, refuse)
                for f in fs:
                    assert ho.is_p_null_homotopic(f).null == ho.factors_through_trivials(f).factors
                    ho.factors_through_theta0(f)


# omega = x^2 (x - 1), the stock omega that is not a monomial
QX2X1 = ring_q([0, 0, -1, 1])
F5X2X1 = ring5([0, 0, 4, 1])


@given(st.sampled_from([QX2X1, F5X2X1]),
       st.lists(st.integers(-9, 9), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_companion_step_multiplies_residues_by_x(ring, coeffs):
    r = [ring.field.coerce(c) for c in coeffs]
    want = ring.right_quo_rem(ring.mul(ring.x, ring.trim(list(r))), ring.omega)[1]
    assert ring.trim(times_x(ring, r)) == want


@given(st.sampled_from([QX2X1, F5X2X1]),
       st.lists(st.integers(-9, 9), max_size=9))
@settings(max_examples=200, deadline=None)
def test_residue_is_the_remainder_by_omega(ring, coeffs):
    p = ring.trim([ring.field.coerce(c) for c in coeffs])
    rem = ring.right_quo_rem(p, ring.omega)[1]
    assert residues(ring, [p]) == rem + [ring.field.zero] * (ring.omega_deg - len(rem))
