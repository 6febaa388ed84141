import random

from modfact.fields import RationalField
from modfact.matrices import TwistedMatrix
from modfact.factorizations import Factorization, Morphism
from modfact.homotopy import (is_p_null_homotopic, factors_through_trivials,
                              reconstruct_from_witness, check_witness)
from modfact.matrixring import phi, validate_gamma
from modfact import randomgen as rg

rng = random.Random(7)
RINGS = rg.default_instances()


def poly(ring, ints):
    return [ring.field.from_int(c) for c in ints]


def test_default_instances_shape():
    assert len(RINGS) == 10
    assert sum(1 for r in RINGS if r.sigma_power) == 2


def test_random_objects_validate_on_every_instance():
    for ring in RINGS:
        for n in (1, 2, 3, 4):
            for _ in range(4):
                x = rg.random_object(ring, rng, n, max_rank=3, max_deg=2)
                assert x.is_valid()


def test_generation_is_seed_deterministic():
    ring = RINGS[1]
    a = rg.random_object(ring, random.Random(123), 3)
    b = rg.random_object(ring, random.Random(123), 3)
    assert a.ranks == b.ranks and a.maps == b.maps


def test_random_invertible_pairs_are_inverse():
    # on the F_4 rings p c != c p, so a unit scaling that lands on the
    # wrong side of U's column or U_inverse's row shows here
    draws = random.Random(5)
    for ring in RINGS:
        for r in (1, 2, 3, 4):
            for _ in range(8):
                u, uinv = rg.random_invertible(ring, draws, r, max_deg=2)
                eye = TwistedMatrix.identity(ring, r)
                assert u.then(uinv) == eye and uinv.then(u) == eye


def test_certified_nonzero_agrees_with_decider():
    for ring in [r for r in RINGS if not r.sigma_power]:
        for n in (2, 3):
            for _ in range(2):
                x = rg.random_nonzero_object(ring, rng, n, max_rank=2)
                assert rg.certified_nonzero(x)
                ident = Morphism.identity(x)
                assert not is_p_null_homotopic(ident).null, (n, x.ranks)
                assert not factors_through_trivials(ident), n


def test_coprime_split_is_stably_zero():
    # (x-1, x^2) at omega = x^2(x-1): the slot cokernels have coprime
    # cofactors, so the object is stably trivial despite proper factors
    ring = RINGS[3]
    assert ring.field == RationalField() and len(ring.omega) == 4
    d0 = TwistedMatrix(ring, [[poly(ring, [-1, 1])]], 0)
    d1 = TwistedMatrix(ring, [[poly(ring, [0, 0, 1])]], 1)
    xz = Factorization(ring, [1, 1], [d0, d1]).assert_valid()
    assert not rg.certified_nonzero(xz)
    assert is_p_null_homotopic(Morphism.identity(xz)).null


def test_null_positives_reconstruct_exactly():
    for ring in RINGS:
        x = rg.random_object(ring, rng, 3, max_rank=2)
        y = rg.random_object(ring, rng, 3, max_rank=2)
        f, w = rg.random_null_morphism(rng, x, y)
        f.assert_valid()
        assert check_witness(x, y, w)
        v = is_p_null_homotopic(f)
        assert v.null
        assert reconstruct_from_witness(x, y, v.witness) == f


def test_mixed_morphisms_hit_both_verdicts():
    pos = neg = 0
    ring = [r for r in RINGS if not r.sigma_power and r.field != RationalField()
            and r.omega_deg == 3][0]
    objs = [rg.random_object(ring, rng, 2, max_rank=2) for _ in range(4)]
    objs += [rg.random_nonzero_object(ring, rng, 2, max_rank=2) for _ in range(2)]
    for _ in range(60):
        x = rng.choice(objs)
        y = rng.choice(objs)
        f = rg.random_morphism(rng, x, y)
        f.assert_valid()
        if is_p_null_homotopic(f).null:
            pos += 1
        else:
            neg += 1
    assert pos and neg


def test_corrupt_gamma_is_rejected():
    for ring in (RINGS[0], RINGS[8]):
        x = rg.random_object(ring, rng, 3, max_rank=2)
        gm = phi(x)
        assert not validate_gamma(gm)
        bad = rg.corrupt_gamma(gm, rng)
        assert validate_gamma(bad)
