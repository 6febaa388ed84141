"""A first factorization: the pair (x, x) over F_5 with omega = x^2.

Objects are tuples of matrices over a polynomial ring whose cyclic
products all equal omega times the identity. The last matrix in the
tuple carries the twist marker; over a commutative ring the twist is
invisible, but it keeps the same code correct over skew rings.
"""

from modfact.fields import PrimeField
from modfact.rings import BaseRing
from modfact.matrices import TwistedMatrix
from modfact.factorizations import Factorization

# 1. the base ring F_5[x] with omega = x^2
ring = BaseRing(PrimeField(5), 0, [0, 0, 1])
print("ring:", "F_5[x],", "omega =", ring.pretty(ring.omega))

# 2. the factorization x * x = omega
x = ring.x_power(1)
d0 = TwistedMatrix(ring, [[x]], 0)
d1 = TwistedMatrix(ring, [[x]], 1)
X = Factorization(ring, [1, 1], [d0, d1])
print("rotation defects:", X.rotation_defects())
X.assert_valid()

# 3. a rank-2 object: upper triangular with the same diagonal
one = [1]
d0 = TwistedMatrix(ring, [[x, one], [[], x]], 0)
d1 = TwistedMatrix(ring, [[x, [4]], [[], x]], 1)
Y = Factorization(ring, [2, 2], [d0, d1]).assert_valid()
print("rank-2 object ranks:", Y.ranks)

# 4. corrupting one entry breaks a rotation
bad = [TwistedMatrix(ring, m.m, m.twist) for m in Y.maps]
bad[0].m[0][1] = ring.add(list(bad[0].m[0][1]), one)
broken = Factorization(ring, Y.ranks, bad)
print("defects after corruption:", len(broken.rotation_defects()))

# 5. objects serialize to JSON and back bit-exactly
data = Y.to_json()
again = Factorization.from_json(ring, data)
print("json roundtrip exact:", again == Y)
