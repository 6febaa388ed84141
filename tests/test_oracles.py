"""Engine-free oracles: every homotopy verdict on a small field checked by
enumeration.

Modulo omega the null morphisms x -> y are the additive closure of the
images, under reconstruct_from_witness, of the one-entry witnesses u x^d
(d < deg omega, u in an F_p-basis of F_q) placed in each witness entry:
the witness map is additive, and a witness entry omega h, or h omega,
maps into omega times a morphism, which is null since omega I is. The
morphisms that factor through theta^0 are those whose witness is h^{n-1}
alone, so their closure takes the entries of h^{n-1} only. A morphism f
lies in either ideal exactly when f modulo omega, in every component,
lies in that closure.

The closure is enumerated element by element, with F_p-vectors packed
into ints. Nothing here solves a linear system: the tests use no
elimination, import nothing from modules, and call nothing in homotopy
but reconstruct_from_witness, besides the deciders they check.
"""

import random

import pytest

from modfact.fields import PrimeField, ExtensionField
from modfact.rings import BaseRing
from modfact.matrices import TwistedMatrix
from modfact.factorizations import Morphism
from modfact.homotopy import (reconstruct_from_witness, is_p_null_homotopic,
                              factors_through_trivials, factors_through_theta0)
from modfact.randomgen import random_object, random_morphism

# the most elements a closure may reach
SPAN_CAP = 2 ** 16

F2, F3 = PrimeField(2), PrimeField(3)
# each ring with the largest rank its objects take: on F_8 x^2 (sigma of
# order 3) a rank 2 object's closure passes the cap
RINGS = {
    "F2 x^2": (BaseRing(F2, 0, [0, 0, 1]), 2),
    "F2 x^3": (BaseRing(F2, 0, [0, 0, 0, 1]), 2),
    "F3 x^2": (BaseRing(F3, 0, [0, 0, 1]), 2),
    "F2 x^2(x-1)": (BaseRing(F2, 0, [0, 0, -1, 1]), 2),
    "F4 x^2": (BaseRing(ExtensionField(2, 2), 1, [(0, 0), (0, 0), (1, 0)]), 2),
    "F8 x^2": (BaseRing(ExtensionField(2, 3), 1, [(0, 0, 0), (0, 0, 0), (1, 0, 0)]), 1),
}


class Packed:
    """F_p-vectors as ints, `bits` bits a coordinate: a sum is one integer
    addition, then each coordinate >= p loses p, found by one mask."""

    def __init__(self, p, length):
        self.p = p
        self.bits = p.bit_length() + 1
        half = 1 << (self.bits - 1)     # half >= p
        self.ones = sum(1 << (self.bits * k) for k in range(length))
        self.lift = (half - p) * self.ones

    def pack(self, digits):
        out = 0
        for k, d in enumerate(digits):
            out |= d << (self.bits * k)
        return out

    def add(self, a, b):
        s = a + b
        over = ((s + self.lift) >> (self.bits - 1)) & self.ones
        return s - self.p * over


def closure(packed, gens):
    """Every sum of multiples of gens, as a set."""
    span = {0}
    for g in gens:
        if g in span:
            continue
        layer, grown = span, set(span)
        for _ in range(packed.p - 1):
            layer = {packed.add(s, g) for s in layer}
            grown |= layer
        span = grown
        assert len(span) <= SPAN_CAP, "the closure passed %d elements" % SPAN_CAP
    return span


def units(ring):
    """An F_p-basis of the coefficient field."""
    fld = ring.field
    if fld.kind == "prime":
        return [1]
    return [tuple(int(k == j) for k in range(fld.e)) for j in range(fld.e)]


def residue_digits(ring, poly):
    """The F_p-coordinates of poly modulo omega, low degree first."""
    m = ring.omega_deg
    rest = poly[:m] if ring.omega_monomial else ring.right_quo_rem(poly, ring.omega)[1]
    rest = list(rest) + [ring.field.zero] * (m - len(rest))
    if ring.field.kind == "prime":
        return list(rest)
    return [c for coeff in rest for c in coeff]


def morphism_digits(f):
    ring = f.ring
    return [d for g in f.components for row in g.m for e in row
            for d in residue_digits(ring, e)]


def witness_shapes(x, y):
    n = x.n
    return ([(x.ranks[j], y.ranks[j + 1], -1) for j in range(n - 1)]
            + [(x.ranks[n - 1], y.ranks[0], 0)])


def one_entry_witness(x, y, j, a, b, poly):
    ring = x.ring
    w = []
    for k, (r, c, t) in enumerate(witness_shapes(x, y)):
        m = [[poly if (k, p, q) == (j, a, b) else [] for q in range(c)]
             for p in range(r)]
        w.append(TwistedMatrix(ring, m, t, r, c))
    return w


class Ideal:
    """The closure of the null morphisms x -> y modulo omega, or with
    theta0 of the theta^0 ideal."""

    def __init__(self, x, y, theta0=False):
        ring = x.ring
        self.x, self.y = x, y
        length = ring.omega_deg * ring.field.e * sum(
            a * b for a, b in zip(x.ranks, y.ranks))
        self.packed = Packed(ring.field.p, length)
        zero = [ring.field.zero] * ring.omega_deg
        gens = []
        for j, (r, c, _) in enumerate(witness_shapes(x, y)):
            if theta0 and j < x.n - 1:
                continue
            for a in range(r):
                for b in range(c):
                    for d in range(ring.omega_deg):
                        for u in units(ring):
                            poly = zero[:d] + [u]
                            f = reconstruct_from_witness(
                                x, y, one_entry_witness(x, y, j, a, b, poly))
                            gens.append(self.packed.pack(morphism_digits(f)))
        self.span = closure(self.packed, gens)

    def __contains__(self, f):
        assert (f.source, f.target) == (self.x, self.y)
        return self.packed.pack(morphism_digits(f)) in self.span


def random_witness(rng, x, y, top_only=False):
    ring = x.ring
    w = []
    for j, (r, c, t) in enumerate(witness_shapes(x, y)):
        live = not top_only or j == x.n - 1
        m = [[ring.random_poly(rng, 2) if live else [] for _ in range(c)]
             for _ in range(r)]
        w.append(TwistedMatrix(ring, m, t, r, c))
    return w


def cases(ring, max_rank, seed, count):
    """(x, y, f) triples: identities, constructed null and theta^0
    morphisms, and random_morphism output, on fold 2 and 3 objects."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = 2 + k % 2
        x = random_object(ring, rng, n, max_rank, 1)
        y = x if k % 3 else random_object(ring, rng, n, max_rank, 1)
        out.append((x, x, Morphism.identity(x)))
        out.append((x, y, reconstruct_from_witness(x, y, random_witness(rng, x, y))))
        out.append((x, y, reconstruct_from_witness(
            x, y, random_witness(rng, x, y, top_only=True))))
        out.append((x, y, random_morphism(rng, x, y, 2)))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_packed_sums_are_sums_mod_p(p):
    rng = random.Random(p)
    packed = Packed(p, 12)
    for _ in range(200):
        a = [rng.randrange(p) for _ in range(12)]
        b = [rng.randrange(p) for _ in range(12)]
        assert packed.add(packed.pack(a), packed.pack(b)) == packed.pack(
            [(s + t) % p for s, t in zip(a, b)])
    assert len(closure(packed, [packed.pack([1] + [0] * 11),
                                packed.pack([0, 1] + [0] * 10)])) == p * p


@pytest.mark.parametrize("name", sorted(RINGS))
def test_deciders_agree_with_enumeration(name):
    ring, max_rank = RINGS[name]
    ideals = {}
    seen = set()
    for x, y, f in cases(ring, max_rank, 7, 10):
        key = (id(x), id(y))
        if key not in ideals:
            ideals[key] = Ideal(x, y), Ideal(x, y, theta0=True)
        null, theta0 = ideals[key]
        want = f in null, f in theta0
        seen.add(want)
        where = (name, x.ranks, y.ranks)
        assert bool(is_p_null_homotopic(f)) == want[0], where
        assert bool(factors_through_trivials(f)) == want[0], where
        assert bool(factors_through_theta0(f)) == want[1], where
    # both verdicts of both ideals were checked, negatives included
    assert seen == {(True, True), (True, False), (False, False)}, seen
