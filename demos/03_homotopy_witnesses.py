"""Null homotopies as exact certificates.

A morphism between factorizations is null homotopic exactly when it is
built from a tuple of witness matrices; the decider finds such a tuple
or proves none exists, over commutative and skew rings alike. Positive
answers come with bit-exact certificates that this script re-verifies.
"""

import random
from fractions import Fraction

from modfact.fields import RationalField
from modfact.rings import BaseRing
from modfact.matrices import TwistedMatrix
from modfact.factorizations import Factorization, Morphism
import modfact.homotopy as ho
from modfact.randomgen import random_object, random_null_morphism, \
    random_nonzero_object

ring = BaseRing(RationalField(), 0, [Fraction(0), Fraction(0), Fraction(1)])
rng = random.Random(2)

# 1. construct a null morphism from a random witness, then rediscover it
x = random_object(ring, rng, 2, max_rank=2)
y = random_object(ring, rng, 2, max_rank=2)
f, w = random_null_morphism(rng, x, y)
v = ho.is_p_null_homotopic(f)
print("constructed null detected:", v.null)
print("witness reconstructs f exactly:",
      ho.reconstruct_from_witness(x, y, v.witness) == f)

# 2. identities of certified-nonzero objects are never null
z = random_nonzero_object(ring, rng, 2, max_rank=2)
v = ho.is_p_null_homotopic(Morphism.identity(z))
print("identity of a nonzero object null?", v.null)

# 3. the stable endomorphisms of (x, x) at omega = x^2 form one copy of Q
xq = ring.x_power(1)
x2 = Factorization(ring, [1, 1], [TwistedMatrix(ring, [[xq]], 0),
                                  TwistedMatrix(ring, [[xq]], 1)])
sh = ho.stable_hom(x2, x2)
print("stable End(x,x): k-dimension", sh.k_dimension,
      "invariant factors", sh.factor_names())

# 4. a coprime splitting is stably trivial even though both entries are
#    proper factors: (x-1, x^2) at omega = x^2 (x-1)
ring2 = BaseRing(RationalField(), 0,
                 [Fraction(0), Fraction(0), Fraction(-1), Fraction(1)])
d0 = TwistedMatrix(ring2, [[[Fraction(-1), Fraction(1)]]], 0)
d1 = TwistedMatrix(ring2, [[[Fraction(0), Fraction(0), Fraction(1)]]], 1)
split = Factorization(ring2, [1, 1], [d0, d1]).assert_valid()
print("coprime split identity is null:",
      ho.is_p_null_homotopic(Morphism.identity(split)).null)

# 5. over a skew ring the verdict is just as definitive: one prime-field
#    system modulo omega decides, and a positive is completed to an exact
#    witness
from modfact.fields import ExtensionField
f4 = ExtensionField(2, 2)
rs = BaseRing(f4, 1, [(0, 0), (0, 0), (1, 0)])
xs = [f4.zero, f4.one]
zs = Factorization(rs, [1, 1], [TwistedMatrix(rs, [[xs]], 0),
                                TwistedMatrix(rs, [[xs]], 1)])
v = ho.is_p_null_homotopic(Morphism.identity(zs))
print("skew (x, x) identity null?", v.null)
w = ho.random_witness(rng, zs, zs, max_deg=3)
f = ho.reconstruct_from_witness(zs, zs, w)
v = ho.is_p_null_homotopic(f)
print("skew null morphism detected, witness exact:", v.null,
      ho.reconstruct_from_witness(zs, zs, v.witness) == f)
