import random

import pytest

from modfact.matrices import TwistedMatrix, mat_mul
from modfact import randomgen as rg
from modfact.factorizations import (Morphism, theta, omega_morphism, shift,
                                    shift_morphism, direct_sum_morphism)
import modfact.homotopy as ho
from modfact.fields import ExtensionField
from modfact.rings import BaseRing

from common import (R5x2, R5x3, RQ2, RS, RS1, X2, X3, X2Q, X2b, XS, XSneg,
                    mk, one, ring_q)

rng = random.Random(7)


def test_zero_witness_reconstructs_zero():
    for X, Y in [(X2, X2), (X3, X3), (X2b, X2b), (X2, X2b), (XS, XS)]:
        z = ho.reconstruct_from_witness(X, Y, ho.zero_witness(X, Y))
        assert z.is_zero()


def test_reconstructed_morphisms_are_valid():
    for X, Y in [(X2, X2), (X3, X3), (X2b, X2b), (X2, X2b), (XS, XS)]:
        for _ in range(20):
            w = ho.random_witness(rng, X, Y, 2)
            f = ho.reconstruct_from_witness(X, Y, w)
            f.assert_valid()


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


def test_stable_end_of_x_x_is_one_dimensional():
    sh = ho.stable_hom(X2, X2)
    assert sh.k_dimension == 1 and sh.omega_torsion
    shq = ho.stable_hom(X2Q, X2Q)
    assert shq.k_dimension == 1 and shq.omega_torsion


def test_theta0_ideal_is_coarser():
    sh0 = ho.stable_hom(X2, X2, ideal="theta0")
    assert sh0.k_dimension is not None and sh0.k_dimension >= 1


def test_witness_transports():
    for X, Y in [(X2b, X2b), (X3, X3), (XS, XS)]:
        for _ in range(6):
            w = ho.random_witness(rng, X, Y, 2)
            f = ho.reconstruct_from_witness(X, Y, w)
            wu = ho.random_witness(rng, X, X, 1)
            u = ho.reconstruct_from_witness(X, X, wu)
            wv = ho.random_witness(rng, Y, Y, 1)
            vmor = ho.reconstruct_from_witness(Y, Y, wv)
            wpre = ho.witness_precompose(u, w)
            assert ho.reconstruct_from_witness(X, Y, wpre) == u.then(f)
            wpost = ho.witness_postcompose(w, vmor)
            assert ho.reconstruct_from_witness(X, Y, wpost) == f.then(vmor)
            wsh = ho.witness_shift(X, Y, w)
            assert ho.reconstruct_from_witness(shift(X), shift(Y), wsh) == shift_morphism(f)
            wds = ho.witness_direct_sum([w, wpre])
            fds = direct_sum_morphism([f, u.then(f)])
            assert ho.reconstruct_from_witness(fds.source, fds.target, wds) == fds


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


def test_witness_image_matches_reconstruction():
    # one polynomial in one witness slot, assembled directly, against the
    # morphism reconstruct_from_witness bounds with that one-entry witness
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
                    assert image(u, p) == ho._flatten_polys(f)


def test_trivial_sum_image_matches_its_construction():
    # one polynomial in one parameter slot, assembled from the term table,
    # against the morphism its trivial_homs make, followed by the counit
    rng2 = random.Random(12)
    for ring in rg.default_instances():
        for n in range(1, 5):
            for _ in range(2):
                x = rg.random_object(ring, rng2, n, max_rank=2)
                y = rg.random_object(ring, rng2, n, max_rank=2)
                for indices in (range(n), [0]):
                    t, eps = ho.trivial_sum_counit(y, indices)
                    slots = ho._lambda_slots(x, y, indices)
                    image = ho._lambda_image(x, eps, indices, slots)
                    for _ in range(3 if slots else 0):
                        u = rng2.randrange(len(slots))
                        p = ring.random_poly(rng2, 3)
                        coeffs = [[] for _ in slots]
                        coeffs[u] = p
                        g = ho._lambda_morphism(x, y, t, indices, slots, coeffs)
                        assert image(u, p) == ho._flatten_polys(g.then(eps))


def test_hom_space_constraints_are_the_square_defects():
    # row u is the defect d_X^i H^{i+1} - H^i d_Y^i, square by square, of
    # the components with a single 1 at slot u
    rng2 = random.Random(13)
    for ring in [r for r in rg.default_instances() if r.commutative]:
        for n in range(1, 5):
            for _ in range(2):
                x = rg.random_object(ring, rng2, n, max_rank=2)
                y = rg.random_object(ring, rng2, n, max_rank=2)
                hom = ho.HomSpace(x, y)
                assert len(hom.constraints) == len(hom.slots)
                for u, row in enumerate(hom.constraints):
                    coords = [[] for _ in hom.slots]
                    coords[u] = ring.from_int(1)
                    g = hom.from_coords(coords)
                    want = []
                    for i in range(n):
                        lhs = x.maps[i].then(g.components[(i + 1) % n])
                        rhs = g.components[i].then(y.maps[i])
                        want += [p for r in lhs.sub(rhs).m for p in r]
                    assert row == want


def test_stable_hom_representatives_are_morphisms():
    rng2 = random.Random(5)
    rq = ring_q([0, 0, 0, 1])
    pairs = [(X2, X2), (X2Q, X2Q), (X3, X3), (X2b, X2b), (X2, X2b)]
    pairs += [(rg.random_object(rq, rng2, 2, max_rank=1),
               rg.random_object(rq, rng2, 2, max_rank=1)) for _ in range(4)]
    seen = 0
    for X, Y in pairs:
        for ideal in ("all", "theta0"):
            sh = ho.stable_hom(X, Y, ideal)
            assert len(sh.representatives) == len(sh.invariant_factors)
            for f in sh.representatives:
                assert f.is_valid()
                seen += 1
                if ideal == "all":
                    # each one generates a nonzero summand of the stable hom
                    assert not ho.is_p_null_homotopic(f).null
    assert seen >= 10


def _skew_instances():
    # the stock F_4 rings, whose induced automorphism is an involution or
    # the identity, and an F_8 ring where it has order 3
    f8 = ExtensionField(2, 3)
    return [r for r in rg.default_instances() if not r.commutative] + [
        BaseRing(f8, 1, [f8.zero, f8.zero, f8.one])]


def test_skew_deciders_complete_multiples_of_omega():
    # witnesses and theta^0 parameters of degree >= deg omega leave the
    # engine a nonzero remainder omega g; each positive must rebuild
    rng2 = random.Random(17)
    completed = 0
    for ring in _skew_instances():
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
    # one prime-field system per decision, deg omega * e unknowns per slot
    # and as many equations per morphism entry: no escalation rounds
    shapes = []
    real = ho.kmat_solve

    def recording(fld, m, rhs):
        shapes.append((len(m), len(rhs[0])))
        return real(fld, m, rhs)

    monkeypatch.setattr(ho, "kmat_solve", recording)
    rng2 = random.Random(19)
    for ring in _skew_instances():
        per_entry = ring.omega_deg * ring.field.e
        for n in (1, 2, 3):
            x = rg.random_object(ring, rng2, n, max_rank=2)
            f, _ = rg.random_null_morphism(rng2, x, x)
            entries = sum(r * r for r in x.ranks)
            lambdas = len(ho._lambda_slots(x, x, range(n)))
            assert lambdas == sum(x.ranks[i - 1] * x.ranks[i] for i in range(n))
            for decide, slots in (
                    (ho.is_p_null_homotopic, len(ho._witness_slots(x, x))),
                    (ho.factors_through_trivials, lambdas),
                    (ho.factors_through_theta0, x.ranks[-1] * x.ranks[0])):
                for g in (f, Morphism.identity(x)):
                    del shapes[:]
                    decide(g)
                    assert shapes == [(slots * per_entry, entries * per_entry)]


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


def test_non_morphism_is_not_null_on_every_engine():
    for x in (X2, XS):
        ring = x.ring
        comps = [TwistedMatrix.scalar(ring, r, ring.omega) for r in x.ranks]
        comps[0] = TwistedMatrix.zero(ring, x.ranks[0], x.ranks[0])
        f = Morphism(x, x, comps)
        assert not f.is_valid()
        assert not ho.is_p_null_homotopic(f).null
        assert not ho.factors_through_trivials(f).factors


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
