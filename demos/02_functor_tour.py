"""The functor calculus on factorizations.

The shift rotates the tuple (twisting the wrapped-around map), faces
insert a slot, degeneracies fuse two adjacent slots, and the theta
family interpolates between the free object and the identity-padded
one. All the simplicial-style identities hold on the nose, not up to
homotopy, and this script checks a few of them bit-exactly.
"""

import random

from modfact.fields import PrimeField
from modfact.rings import BaseRing
from modfact.factorizations import theta, shift, shift_inverse, face, degeneracy
from modfact.randomgen import random_object

ring = BaseRing(PrimeField(5), 0, [0, 0, 0, 1])  # omega = x^3
rng = random.Random(1)

# 1. a random valid 3-fold object of rank at most 3
x = random_object(ring, rng, 3, max_rank=3, max_deg=2)
print("object ranks:", x.ranks)

# 2. the shift is invertible and n-periodic up to a twist
assert shift_inverse(shift(x)) == x
assert shift(shift(shift(x))) == x.sigma_twist(-1)
print("shift inverts; n-fold shift is the twist")

# 3. every face is split by the matching degeneracy
for i in range(x.n + 1):
    y = face(x, i)
    assert y.n == x.n + 1 and y.is_valid()
    assert degeneracy(y, i) == x
print("faces and degeneracies cancel in all", x.n + 1, "slots")

# 4. the top face is the rotated bottom face
assert face(x, x.n) == shift(face(x, 0))
print("wraparound face identity holds")

# 5. shifting a theta object lowers its index
for i in range(2):
    assert shift(theta(ring, 3, i + 1, 2)) == theta(ring, 3, i, 2)
print("shifted theta drops its index")

# 6. theta^0 is the free object: its identity splits through trivials,
#    so every slot cokernel vanishes
from modfact.chains import cok0
print("theta^0 chain is zero:", cok0(theta(ring, 3, 0, 2)).is_zero())
