"""Exact toolkit for n-fold factorizations of a normal ring element.

Layers, bottom up: coefficient fields (fields), the skew polynomial base
ring with its chosen normal element (rings), twist-tagged matrices and
echelon algebra (matrices), finitely presented modules (modules), the
factorization category with its simplicial functors (factorizations),
homotopy and stable homs (homotopy), the matrix-ring bridge (matrixring),
cokernel chains (chains), recollement assembly (recollement), JSON I/O
(jsonio), randomized generators (randomgen), law suites (laws), CLI (cli).
"""

from .fields import RationalField, PrimeField, ExtensionField, field_from_json
from .rings import BaseRing, NotNormalError, ring_from_json
from .matrices import TwistedMatrix

__all__ = [
    "RationalField", "PrimeField", "ExtensionField", "field_from_json",
    "BaseRing", "NotNormalError", "ring_from_json",
    "TwistedMatrix",
]
