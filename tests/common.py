"""Shared builders for the test suite.

Everything here is deterministic; tests that want randomness seed their own
random.Random instances so failures reproduce.
"""

import random
from fractions import Fraction

from modfact.fields import RationalField, PrimeField, ExtensionField
from modfact.rings import BaseRing
from modfact.matrices import TwistedMatrix
from modfact.factorizations import Factorization, Morphism
from modfact.chains import cok0
from modfact.randomgen import random_object


def ring_q(omega):
    return BaseRing(RationalField(), 0, [Fraction(c) for c in omega])


def ring5(omega):
    return BaseRing(PrimeField(5), 0, omega)


def mk(ring, ranks, raw):
    """Build a factorization from raw entry lists; last map gets the twist."""
    maps = []
    n = len(ranks)
    for i, mat in enumerate(raw):
        tw = 1 if i == n - 1 else 0
        maps.append(TwistedMatrix(ring, mat, tw, rows=ranks[i], cols=ranks[(i + 1) % n]))
    return Factorization(ring, ranks, maps).assert_valid()


x_ = [0, 1]
one = [1]

R5x2 = ring5([0, 0, 1])
R5x3 = ring5([0, 0, 0, 1])
RQ2 = ring_q([0, 0, 1])
xq = [Fraction(0), Fraction(1)]

# rank-1 staples
X2 = mk(R5x2, [1, 1], [[[x_]], [[x_]]])
X3 = mk(R5x3, [1, 1, 1], [[[x_]], [[x_]], [[x_]]])
X2Q = mk(RQ2, [1, 1], [[[xq]], [[xq]]])

# rank-2 upper triangular over F_5, omega = x^2
X2b = mk(R5x2, [2, 2], [
    [[x_, one], [[], x_]],
    [[x_, [-1 % 5]], [[], x_]],
])

# rank-2 triple over F_5, omega = x^3 (off-diagonal entries sum to 0 mod 5)
X3b = mk(R5x3, [2, 2, 2], [
    [[x_, one], [[], x_]],
    [[x_, one], [[], x_]],
    [[x_, [3]], [[], x_]],
])

F4 = ExtensionField(2, 2)
u4 = (0, 1)
u4sq = (1, 1)
RS = BaseRing(F4, 1, [(0, 0), (0, 0), (1, 0)])  # F_4[x; Frob], omega = x^2
RS1 = BaseRing(F4, 1, [(0, 0), (1, 0)])         # omega = x
F9 = ExtensionField(3, 2)
RS9 = BaseRing(F9, 1, [F9.zero, F9.zero, F9.from_int(2)])  # F_9[x; Frob], omega = 2 x^2
xs = [F4.zero, F4.one]

# skew rank-2 with unit off-diagonals: stably trivial
XS = mk(RS, [2, 2], [
    [[xs, [u4]], [[], xs]],
    [[xs, [u4sq]], [[], xs]],
])
# skew (x, x): not stably trivial; the mod-omega deciders say so definitively
XSneg = mk(RS, [1, 1], [[[xs]], [[xs]]])


def equal_invariant_pair(seed):
    """Two random fold-3 cok0 chains over F_2 with omega = x^2 whose slot
    invariants agree; for seeds 19 and 219 they are not isomorphic."""
    ring = BaseRing(PrimeField(2), 0, [0, 0, 1])
    rng = random.Random(seed)
    return (cok0(random_object(ring, rng, 3, 3, 2)),
            cok0(random_object(ring, rng, 3, 3, 2)))


# -- base change k -> K along a field embedding --

def field_embedding(k, big):
    """A map k -> big that respects + and *: the identity on F_p, and for
    k = F_p[u]/(g) the map sending u to the first root of g in big."""
    if k.kind == "prime":
        return big.from_int
    root = None
    for w in big.elements():
        acc = big.zero
        for c in reversed(k.modulus):       # Horner: g(w)
            acc = big.add(big.mul(acc, w), big.from_int(c))
        if big.is_zero(acc):
            root = w
            break
    powers = [big.one]
    for _ in range(k.e - 1):
        powers.append(big.mul(powers[-1], root))

    def embed(c):
        out = big.zero
        for a, wk in zip(c, powers):
            out = big.add(out, big.mul(big.from_int(a), wk))
        return out
    return embed


def base_change_ring(ring, big):
    """ring = k[x; sigma] with its omega, over big instead of k."""
    embed = field_embedding(ring.field, big)
    return BaseRing(big, ring.sigma_power, [embed(c) for c in ring.omega]), embed


def base_change(big_ring, embed, x):
    """The factorization x with every coefficient sent through embed."""
    return Factorization(big_ring, x.ranks, [_changed(big_ring, embed, d) for d in x.maps])


def base_change_morphism(big_ring, embed, f, source, target):
    """f over big_ring, between the base-changed source and target."""
    return Morphism(source, target, [_changed(big_ring, embed, g) for g in f.components])


def _changed(big_ring, embed, mat):
    entries = [[[embed(c) for c in e] for e in row] for row in mat.m]
    return TwistedMatrix(big_ring, entries, mat.twist, mat.rows, mat.cols)
