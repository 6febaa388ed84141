"""The matrix-ring picture of a factorization.

A factorization is the same data as a module over the subring of M_n(A)
with omega-divisibility below the diagonal. We store that module as the
transpose tuple of components (X^{n-1}, ..., X^0) plus one structure map
per off-diagonal position, all as raw twist-0 matrices:

    f_{ij} = d_X^{n-j, n-i-1}       for i < j,
    f_{ij} = d_X^{n-j, 2n-i-1}      for j < i,

with 1-based i, j and d_X^{a, b} = x.compose_range(a, b), the composite
of the maps a..b with indices mod n; both are the arc from slot n-j to
slot n-i. For j < i the range runs past slot n-1, so it stores the
matrix of the omega-twisted action, and the corner f_{n,1} is exactly
the matrix of the last map. The functor phi fills the grid from a
factorization, psi reads the factorization back off the superdiagonal
and the corner, and validation is the round trip: rebuild from the
read-off object and compare every entry, so any corrupted structure map
is caught. A grid makes that round trip once (GammaModule.read_back), and
validate_gamma, psi and psi_morphism all read its result.
"""

from .fields import json_int
from .matrices import TwistedMatrix, mat_mul
from .factorizations import Factorization, Morphism


class GammaModule:
    """Transpose component tuple plus the off-diagonal structure maps."""

    def __init__(self, ring, ranks, maps):
        self.ring = ring
        self.n = len(ranks)
        if self.n == 0:
            raise ValueError("at least one component required")
        self.ranks = list(ranks)
        self.maps = dict(maps)
        for (i, j), mat in self.maps.items():
            if not (1 <= i <= self.n and 1 <= j <= self.n) or i == j:
                raise ValueError("structure maps sit at off-diagonal 1-based spots")
            if mat.twist != 0:
                raise ValueError("structure maps are stored at twist 0")
            if (mat.rows, mat.cols) != (self.ranks[j - 1], self.ranks[i - 1]):
                raise ValueError(
                    "map (%d,%d) must be %dx%d, got %dx%d"
                    % (i, j, self.ranks[j - 1], self.ranks[i - 1], mat.rows, mat.cols))
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                if i != j and (i, j) not in self.maps:
                    raise ValueError("missing structure map (%d,%d)" % (i, j))
        self._read = None

    def __eq__(self, other):
        return (isinstance(other, GammaModule) and self.ring == other.ring
                and self.ranks == other.ranks and self.maps == other.maps)

    def __repr__(self):
        return "<gamma module ranks=%s>" % self.ranks

    def read_back(self):
        """(x, defects), computed once: x read off the superdiagonal and the
        corner (None for a wrong shape), defects empty when this is x's grid."""
        if self._read is None:
            try:
                x = psi_unchecked(self)
            except ValueError as exc:
                self._read = None, ["shape: %s" % exc]
                return self._read
            bad = ["rotation identity fails at slot %d" % i for i in x.rotation_defects()]
            if not bad:
                again = phi(x).maps
                bad = ["structure map %s disagrees with the factorization" % (key,)
                       for key in sorted(self.maps) if self.maps[key] != again[key]]
            self._read = x, bad
        return self._read

    def to_json(self):
        return {
            "n": self.n,
            "ranks": list(self.ranks),
            "maps": [{"row": i, "col": j, "matrix": self.maps[(i, j)].to_json()}
                     for i in range(1, self.n + 1) for j in range(1, self.n + 1)
                     if i != j],
        }

    @staticmethod
    def from_json(ring, data):
        for key in ("n", "ranks", "maps"):
            if key not in data:
                raise ValueError("gamma module object is missing '%s'" % key)
        maps = {}
        for item in data["maps"]:
            mat = TwistedMatrix.from_json(ring, item["matrix"])
            maps[(json_int(item["row"], "row"), json_int(item["col"], "col"))] = mat
        return GammaModule(ring, [json_int(r, "a rank") for r in data["ranks"]],
                           maps)


class GammaMorphism:
    """One component map per slot of the transpose tuple."""

    def __init__(self, source, target, components):
        if source.ring != target.ring or source.n != target.n:
            raise ValueError("gamma morphism endpoints must match")
        self.source = source
        self.target = target
        self.n = source.n
        self.components = list(components)
        if len(self.components) != self.n:
            raise ValueError("expected %d components" % self.n)
        for t, g in enumerate(self.components):
            if g.twist != 0 or (g.rows, g.cols) != (source.ranks[t], target.ranks[t]):
                raise ValueError("component %d has the wrong shape" % (t + 1))

    def defects(self):
        """Off-diagonal spots whose structure square fails; below the
        diagonal the component acts through sigma (the omega twist)."""
        ring = self.source.ring
        bad = []
        for (i, j), fm in self.source.maps.items():
            fn = self.target.maps[(i, j)]
            gi = self.components[i - 1]
            gj = self.components[j - 1]
            lhs = mat_mul(ring, fm.m, gi.m)
            left = gj.sigma_entries(1).m if j < i else gj.m
            rhs = mat_mul(ring, left, fn.m)
            if lhs != rhs:
                bad.append((i, j))
        return sorted(bad)


def phi(x):
    """Structure-map grid of a factorization."""
    ring = x.ring
    n = x.n
    ranks = [x.ranks[n - i] for i in range(1, n + 1)]
    maps = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                maps[(i, j)] = TwistedMatrix(ring, x.arc(n - j, n - i).m, 0,
                                             rows=ranks[j - 1], cols=ranks[i - 1])
    return GammaModule(ring, ranks, maps)


def phi_morphism(f):
    """Component tuple of a morphism, in transpose order."""
    n = f.n
    gm = GammaMorphism(phi(f.source), phi(f.target),
                       [f.components[n - i] for i in range(1, n + 1)])
    return gm


def psi_unchecked(gm):
    """Read the factorization off the superdiagonal and the corner without
    validating rotation identities (the validator wants the raw object)."""
    ring = gm.ring
    n = gm.n
    ranks = [gm.ranks[n - 1 - t] for t in range(n)]
    maps = []
    for t in range(n - 1):
        sup = gm.maps[(n - t - 1, n - t)]
        maps.append(TwistedMatrix(ring, sup.m, 0, rows=ranks[t], cols=ranks[t + 1]))
    if n == 1:
        # a 1-component module has no off-diagonal spots; the lone map is
        # forced to be omega itself
        maps.append(TwistedMatrix.omega_identity(ring, ranks[0]))
    else:
        corner = gm.maps[(n, 1)]
        maps.append(TwistedMatrix(ring, corner.m, 1, rows=ranks[n - 1], cols=ranks[0]))
    return Factorization(ring, ranks, maps)


def validate_gamma(gm):
    """Defect report; empty means gm is the grid of a valid factorization."""
    return gm.read_back()[1]


def psi(gm):
    """Factorization determined by the grid; raises if the grid is corrupt."""
    x, bad = gm.read_back()
    if bad:
        raise ValueError("invalid gamma module: " + "; ".join(bad))
    return x


def psi_morphism(gm):
    """Morphism determined by a component tuple between valid grids."""
    x = psi(gm.source)
    y = psi(gm.target)
    f = Morphism(x, y, gm.components[::-1])
    bad = f.square_defects()
    if bad:
        raise ValueError("component tuple fails the squares at slots %s" % bad)
    return f
