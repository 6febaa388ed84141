"""Base change as an oracle: every answer survives extension of the
coefficient field.

Ranks of linear systems over a field do not change under extension, so
for k inside K, and sigma on K restricting to sigma on k, every verdict
over k[x; sigma] equals the verdict for the same object over K[x; sigma],
and on a commutative ring stable Hom keeps its k-dimension. The rings
here reach two settings no stock ring has: a commutative ring over F_q
(F_5 -> F_25), and a sigma of order 4 (F_4[x; Frob] -> F_16[x; Frob]).
Reduction from Q to F_p is no such oracle, since ranks can drop mod p.
"""

import random

import pytest

from modfact.fields import PrimeField, ExtensionField
from modfact.rings import BaseRing
from modfact.factorizations import Morphism
from modfact.homotopy import (is_p_null_homotopic, factors_through_trivials,
                              factors_through_theta0, stable_hom)
from modfact.randomgen import random_object, random_morphism

from common import base_change_ring, base_change, base_change_morphism

F5, F25 = PrimeField(5), ExtensionField(5, 2)
F4, F16 = ExtensionField(2, 2), ExtensionField(2, 4)
z4 = F4.zero
RINGS = {
    "F5 x^3": (BaseRing(F5, 0, [0, 0, 0, 1]), F25),
    "F5 x^2(x-1)": (BaseRing(F5, 0, [0, 0, -1, 1]), F25),
    "F4 x": (BaseRing(F4, 1, [z4, F4.one]), F16),
    "F4 x^2": (BaseRing(F4, 1, [z4, z4, F4.one]), F16),
    "F4 x^3": (BaseRing(F4, 1, [z4, z4, z4, F4.one]), F16),
}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_embeddings_are_field_maps_that_commute_with_sigma(name):
    ring, big = RINGS[name]
    _, embed = base_change_ring(ring, big)
    k, s = ring.field, ring.sigma_power
    elems = list(k.elements())
    assert len({embed(a) for a in elems}) == len(elems)
    for a in elems:
        assert embed(k.frob(a, s)) == big.frob(embed(a), s)
        for b in elems:
            assert embed(k.add(a, b)) == big.add(embed(a), embed(b))
            assert embed(k.mul(a, b)) == big.mul(embed(a), embed(b))


def verdicts(f):
    return (bool(is_p_null_homotopic(f)), bool(factors_through_trivials(f)),
            bool(factors_through_theta0(f)))


@pytest.mark.parametrize("name", sorted(RINGS))
def test_verdicts_survive_base_change(name):
    ring, big = RINGS[name]
    big_ring, embed = base_change_ring(ring, big)
    assert big_ring.sigma_power == ring.sigma_power
    rng = random.Random(24)
    seen = set()
    for k in range(30):
        n = 2 + k % 3
        x = random_object(ring, rng, n, 2, 1)
        y = x if k % 2 else random_object(ring, rng, n, 2, 1)
        bx, by = base_change(big_ring, embed, x), base_change(big_ring, embed, y)
        for f, ends in ((Morphism.identity(x), (bx, bx)),
                        (random_morphism(rng, x, y, 2), (bx, by))):
            want = verdicts(f)
            seen.add(want[0])
            bf = base_change_morphism(big_ring, embed, f, *ends)
            assert verdicts(bf) == want, (name, x.ranks, y.ranks)
        if ring.commutative:
            for ideal in ("all", "theta0"):
                small, large = stable_hom(x, y, ideal), stable_hom(bx, by, ideal)
                assert large.k_dimension == small.k_dimension, (name, ideal)
                assert len(large.invariant_factors) == len(small.invariant_factors)
    # F_4 x has only null morphisms: omega = x is squarefree
    assert seen == ({True} if name == "F4 x" else {True, False}), seen
