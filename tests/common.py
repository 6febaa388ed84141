"""Shared builders for the test suite.

Everything here is deterministic; tests that want randomness seed their own
random.Random instances so failures reproduce.
"""

import random
from fractions import Fraction

from modfact.fields import RationalField, PrimeField, ExtensionField
from modfact.rings import BaseRing
from modfact.matrices import TwistedMatrix
from modfact.factorizations import Factorization
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
