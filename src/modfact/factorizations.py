"""n-fold factorizations of omega and the simplicial functors between them.

An object is a cycle of n free modules A^{r_0}, ..., A^{r_{n-1}} with maps
d^i: slot i -> slot i+1 (twist 0) and a last map d^{n-1} into the twisted
first module (twist 1), such that every rotated n-fold composite equals
omega * I. Morphisms are twist-0 component tuples making all squares
commute, the last one up to the induced automorphism.

The functors here: shift (both directions), the trivial objects theta^i,
face insertions, degeneracy fusions, and direct sums, each with its
morphism action, plus the transports of the two base adjunctions.

Shift, face and degeneracy are one reindexing rule on an n-fold x. A
plan is a nondecreasing list of unrolled slots a, none past plan[0] + n;
new slot j is slot a mod n of x, w = a // n laps past slot 0. With b the
next entry of the plan (plan[0] + n after the last), the new map j is
the arc d^{a mod n} ... d^{a mod n + b - a - 1} of x (the identity when
b = a), hit entrywise by sigma^{t' - t - w}, with t the arc's twist and
t' the new map's: 1 at the last slot, 0 elsewhere. Component j of a
morphism is sigma^{-w}(f^{a mod n}). The plans:

    shift_power(x, a)    [a, a+1, ..., a+n-1]
    face(x, i)           [0, ..., i, i, i+1, ..., n-1]    ([0, ..., n] at i = n)
    degeneracy(x, i)     [0, ..., n-1] without i+1        ([-1, 1, ..., n-2] at i = n-1)

Plans compose: reindexing by p and then by q is reindexing by
compose_plans(p, q, n), so a composite of these functors is one plan.
Between two plans a <= b <= a + n (entrywise) of the same length there
is the arc morphism from x reindexed by a to x reindexed by b, whose
component j is the arc from unrolled slot a[j] to b[j]; every unit and
counit of an adjunction between composites is one (see recollement).

The new maps share the maps and memoized arcs of x (see TwistedMatrix).
"""

from .fields import json_int
from .matrices import TwistedMatrix


class Factorization:
    def __init__(self, ring, ranks, maps):
        self.ring = ring
        self.n = len(ranks)
        if self.n == 0:
            raise ValueError("a factorization needs at least one slot")
        if len(maps) != self.n:
            raise ValueError("expected %d maps, got %d" % (self.n, len(maps)))
        self.ranks = list(ranks)
        self.maps = list(maps)
        for i, d in enumerate(self.maps):
            want_twist = 1 if i == self.n - 1 else 0
            tgt = self.ranks[(i + 1) % self.n]
            if d.rows != self.ranks[i] or d.cols != tgt or d.twist != want_twist:
                raise ValueError(
                    "map %d must be %dx%d at twist %d, got %dx%d at twist %d"
                    % (i, self.ranks[i], tgt, want_twist, d.rows, d.cols, d.twist))
            if d.ring != ring:
                raise ValueError("map %d lives over a different ring" % i)
        self._ranges = {}

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Factorization) and self.ring == other.ring
                and self.ranks == other.ranks and self.maps == other.maps)

    def __repr__(self):
        return "<%d-fold ranks=%s>" % (self.n, self.ranks)

    def compose_range(self, i, j):
        """Composite of d^i ... d^j, indices taken mod n, for 0 <= i <= n
        and i - 1 <= j <= i + n - 1: a range past slot n-1 runs on
        through the twisted last map, so every arc of the cycle is one
        range, and i..i+n-1 is the rotated composite through slot i. An
        empty range gives the identity of slot i mod n.

        The memo fills from both ends. A range built here extends to the
        right, (d^i ... d^{j-1}) d^j, so the ranges from one start are one
        chain; arcs_into extends to the left, d^i (d^{i+1} ... d^j), so
        the arcs into one end are one chain too, and it stores them under
        the same keys. Composites are associative, so either way gives
        the same matrix."""
        n = self.n
        if not (0 <= i <= n and i - 1 <= j < i + n):
            raise ValueError("range (%d, %d) out of bounds" % (i, j))
        # maps are never mutated after construction, so memoizing is safe
        cached = self._ranges.get((i, j))
        if cached is not None:
            return cached
        if j < i:
            out = TwistedMatrix.identity(self.ring, self.ranks[i % n], 0)
        elif j == i:
            out = self.maps[i % n]
        else:
            out = self.compose_range(i, j - 1).then(self.maps[j % n])
        self._ranges[(i, j)] = out
        return out

    def arc(self, a, b):
        """The composite of the maps from slot a forward to slot b (mod n),
        through the twisted last map when the arc passes it; the identity
        when a = b. It is compose_range's memo entry, so the arcs out of
        one slot extend each other to the right; arcs_into gives those
        into one slot by extension to the left."""
        a %= self.n
        return self.compose_range(a, a + (b - a) % self.n - 1)

    def arcs_into(self, b):
        """{a: arc(a, b)} for every slot a, built as one chain by left
        extension, arc(a, b) = d^a arc(a + 1, b): n - 2 products where
        an arc built from each start costs O(n^2). An arc of length 1 is
        the map d^{b-1} itself. Every arc goes into compose_range's memo
        under its own key."""
        n = self.n
        b %= n
        out = {b: self.arc(b, b)}
        prev = None
        for length in range(1, n):
            a = (b - length) % n
            key = (a, a + length - 1)
            cur = self._ranges.get(key)
            if cur is None:
                cur = self.maps[a] if prev is None else self.maps[a].then(prev)
                self._ranges[key] = cur
            out[a] = prev = cur
        return out

    def rotation_defects(self):
        """Indices i where the rotated composite through slot i is not omega*I."""
        return [i for i in range(self.n)
                if self.compose_range(i, i + self.n - 1)
                != TwistedMatrix.omega_identity(self.ring, self.ranks[i])]

    def is_valid(self):
        return not self.rotation_defects()

    def assert_valid(self):
        bad = self.rotation_defects()
        if bad:
            raise ValueError("rotation identity fails at slots %s" % bad)
        return self

    def sigma_twist(self, power=1):
        """The twisted object: every map hit entrywise by sigma^power."""
        return Factorization(self.ring, self.ranks,
                             [d.sigma_entries(power) for d in self.maps])

    def to_json(self):
        return {"n": self.n, "ranks": list(self.ranks),
                "maps": [d.to_json() for d in self.maps]}

    @staticmethod
    def from_json(ring, data):
        for key in ("n", "ranks", "maps"):
            if key not in data:
                raise ValueError("factorization object is missing %r" % key)
        ranks = [json_int(r, "a rank") for r in data["ranks"]]
        if json_int(data["n"], "n") != len(ranks):
            raise ValueError("declared fold count does not match the rank list")
        maps = [TwistedMatrix.from_json(ring, d) for d in data["maps"]]
        return Factorization(ring, ranks, maps)


class Morphism:
    def __init__(self, source, target, components):
        if source.ring != target.ring or source.n != target.n:
            raise ValueError("morphism endpoints must share ring and fold count")
        self.source = source
        self.target = target
        self.ring = source.ring
        self.n = source.n
        self.components = list(components)
        if len(self.components) != self.n:
            raise ValueError("expected %d components" % self.n)
        for i, f in enumerate(self.components):
            if (f.rows, f.cols, f.twist) != (source.ranks[i], target.ranks[i], 0):
                raise ValueError(
                    "component %d must be %dx%d at twist 0, got %dx%d at twist %d"
                    % (i, source.ranks[i], target.ranks[i], f.rows, f.cols, f.twist))

    def __eq__(self, other):
        return (isinstance(other, Morphism) and self.source == other.source
                and self.target == other.target and self.components == other.components)

    def square_defects(self):
        bad = []
        for i in range(self.n):
            lhs = self.source.maps[i].then(self.components[(i + 1) % self.n])
            rhs = self.components[i].then(self.target.maps[i])
            if lhs != rhs:
                bad.append(i)
        return bad

    def is_valid(self):
        return not self.square_defects()

    def assert_valid(self):
        bad = self.square_defects()
        if bad:
            raise ValueError("morphism squares fail at slots %s" % bad)
        return self

    def then(self, other):
        if self.target != other.source:
            raise ValueError("composite endpoints do not match")
        comps = [f.then(g) for f, g in zip(self.components, other.components)]
        return Morphism(self.source, other.target, comps)

    def add(self, other):
        if self.source != other.source or self.target != other.target:
            raise ValueError("sum endpoints do not match")
        return Morphism(self.source, self.target,
                        [f.add(g) for f, g in zip(self.components, other.components)])

    def sub(self, other):
        if self.source != other.source or self.target != other.target:
            raise ValueError("difference endpoints do not match")
        return Morphism(self.source, self.target,
                        [f.sub(g) for f, g in zip(self.components, other.components)])

    def neg(self):
        return Morphism(self.source, self.target, [f.neg() for f in self.components])

    def is_zero(self):
        return all(f.is_zero() for f in self.components)

    @staticmethod
    def identity(x):
        return Morphism(x, x, [TwistedMatrix.identity(x.ring, r, 0) for r in x.ranks])

    @staticmethod
    def zero(x, y):
        return Morphism(x, y, [TwistedMatrix.zero(x.ring, a, b, 0)
                               for a, b in zip(x.ranks, y.ranks)])

    def scale_central(self, poly):
        """poly * f, valid as a morphism only when poly is central (commutative case)."""
        if not self.ring.commutative:
            raise ValueError("scalar scaling needs a central scalar")
        return Morphism(self.source, self.target,
                        [f.scale_left(poly) for f in self.components])

    def to_json(self):
        return {"components": [f.to_json() for f in self.components]}

    @staticmethod
    def from_json(source, target, data):
        if "components" not in data:
            raise ValueError("morphism object is missing 'components'")
        comps = [TwistedMatrix.from_json(source.ring, d) for d in data["components"]]
        return Morphism(source, target, comps)


def omega_morphism(x):
    """omega * identity as a morphism x -> x.sigma_twist(-1), because
    d omega = omega sigma^{-1}(d); the target is x itself when the induced
    automorphism is trivial, as over every commutative base."""
    ring = x.ring
    y = x.sigma_twist(-1) if ring.auto_power else x
    return Morphism(x, y, [TwistedMatrix.scalar(ring, r, ring.omega)
                           for r in x.ranks])


# -- trivial objects --

def theta(ring, n, i, m=1):
    """The trivial factorization with omega concentrated before slot i.

    theta^0(A^m) = (I, ..., I, omega*I @1); for i >= 1 the omega sits at
    slot i-1 and the wrap-around map is the identity.
    """
    if not (0 <= i <= n - 1):
        raise ValueError("theta index %d out of range for fold %d" % (i, n))
    maps = []
    for j in range(n - 1):
        if i >= 1 and j == i - 1:
            maps.append(TwistedMatrix.scalar(ring, m, ring.omega, 0))
        else:
            maps.append(TwistedMatrix.identity(ring, m, 0))
    if i == 0:
        maps.append(TwistedMatrix.omega_identity(ring, m))
    else:
        maps.append(TwistedMatrix.identity(ring, m, 1))
    return Factorization(ring, [m] * n, maps)


def theta_morphism(ring, n, i, g):
    """Component action of theta^i on a module map g (twist-0 matrix)."""
    if g.twist != 0:
        raise ValueError("theta acts on twist-0 module maps")
    src = theta(ring, n, i, g.rows)
    tgt = theta(ring, n, i, g.cols)
    comps = [g.sigma_entries(1)] * i + [g] * (n - i)
    return Morphism(src, tgt, comps)


# -- shift, face and degeneracy: one reindexing rule --

def reindex(x, plan):
    """The object whose slot j is the unrolled slot plan[j] of x (see the
    module docstring)."""
    n = x.n
    last = len(plan) - 1
    maps = []
    for j, a in enumerate(plan):
        b = plan[j + 1] if j < last else plan[0] + n
        laps, s = divmod(a, n)
        arc = x.compose_range(s, s + b - a - 1)
        twist = 1 if j == last else 0
        maps.append(arc.sigma_entries(twist - arc.twist - laps).with_twist(twist))
    return Factorization(x.ring, [x.ranks[a % n] for a in plan], maps)


def reindex_morphism(f, plan):
    n = f.n
    comps = [f.components[a % n].sigma_entries(-(a // n)) for a in plan]
    return Morphism(reindex(f.source, plan), reindex(f.target, plan), comps)


def face_plan(n, i):
    if not (0 <= i <= n):
        raise ValueError("face index %d out of range for fold %d" % (i, n))
    return list(range(i + 1)) + list(range(i, n))


def degeneracy_plan(n, i):
    if n < 2:
        raise ValueError("degeneracy needs fold count at least 2")
    if not (0 <= i <= n - 1):
        raise ValueError("degeneracy index %d out of range for fold %d" % (i, n))
    if i == n - 1:
        return [-1] + list(range(1, n - 1))
    return [a for a in range(n) if a != i + 1]


def compose_plans(p, q, n):
    """The plan on fold n of reindexing by p, a plan on fold n, and then
    by q, a plan on fold m = len(p): unrolled slot b of the first result
    is slot b mod m of it, b // m laps on, which is unrolled slot
    p[b mod m] + n (b // m) of x."""
    m = len(p)
    return [p[b % m] + n * (b // m) for b in q]


def arc_morphism(x, a, b):
    """The morphism from x reindexed by a to x reindexed by b, for plans
    of one length with a[j] <= b[j] <= a[j] + n. Component j is the arc
    of x from unrolled slot a[j] to b[j], hit by sigma^{-t-w} at twist 0,
    with t the arc's twist and w = a[j] // n, as reindex treats its
    maps; each square is then the arc from a[j] to b[j+1]."""
    n = x.n
    comps = []
    for s, t in zip(a, b):
        if not s <= t <= s + n:
            raise ValueError("no arc from unrolled slot %d to %d at fold %d"
                             % (s, t, n))
        laps, i = divmod(s, n)
        arc = x.compose_range(i, i + t - s - 1)
        comps.append(arc.sigma_entries(-arc.twist - laps).with_twist(0))
    return Morphism(reindex(x, a), reindex(x, b), comps)


def shift_power(x, a):
    return reindex(x, list(range(a, a + x.n)))


def shift_power_morphism(f, a):
    return reindex_morphism(f, list(range(a, a + f.n)))


def shift(x):
    return shift_power(x, 1)


def shift_morphism(f):
    return shift_power_morphism(f, 1)


def shift_inverse(y):
    return shift_power(y, -1)


def shift_inverse_morphism(f):
    return shift_power_morphism(f, -1)


def face(x, i):
    """Insert a slot at position i (0 <= i <= n), raising the fold count by one."""
    return reindex(x, face_plan(x.n, i))


def face_morphism(f, i):
    return reindex_morphism(f, face_plan(f.n, i))


def degeneracy(x, i):
    """Fuse slots i and i+1 (indices mod the fold count), lowering the fold by one."""
    return reindex(x, degeneracy_plan(x.n, i))


def degeneracy_morphism(f, i):
    return reindex_morphism(f, degeneracy_plan(f.n, i))


# -- direct sums --

def direct_sum(parts):
    if not parts:
        raise ValueError("empty direct sum")
    ring = parts[0].ring
    n = parts[0].n
    for p in parts:
        if p.ring != ring or p.n != n:
            raise ValueError("direct sum needs matching ring and fold count")
    ranks = [sum(p.ranks[i] for p in parts) for i in range(n)]
    maps = [TwistedMatrix.direct_sum(ring, [p.maps[i] for p in parts])
            for i in range(n)]
    return Factorization(ring, ranks, maps)


def direct_sum_morphism(fs):
    src = direct_sum([f.source for f in fs])
    tgt = direct_sum([f.target for f in fs])
    n = src.n
    ring = src.ring
    comps = [TwistedMatrix.direct_sum(ring, [f.components[i] for f in fs])
             for i in range(n)]
    return Morphism(src, tgt, comps)


def _summand_map(parts, t, onto):
    """The inclusion of parts[t] into their direct sum, or with onto the
    projection of the sum onto it: at each slot the identity of parts[t]
    placed at its offset."""
    total = direct_sum(parts)
    ring = total.ring
    comps = []
    for i in range(total.n):
        rows, cols = parts[t].ranks[i], total.ranks[i]
        shift = sum(p.ranks[i] for p in parts[:t])
        if onto:
            rows, cols, shift = cols, rows, -shift
        m = [[list(ring.one) if b - a == shift else [] for b in range(cols)]
             for a in range(rows)]
        comps.append(TwistedMatrix._wrap(ring, m, 0, rows, cols))
    if onto:
        return Morphism(total, parts[t], comps)
    return Morphism(parts[t], total, comps)


def summand_inclusion(parts, t):
    """The inclusion of parts[t] into the direct sum."""
    return _summand_map(parts, t, False)


def summand_projection(parts, t):
    """The projection of the direct sum onto parts[t]."""
    return _summand_map(parts, t, True)


# -- the transports of the two base adjunctions --
#
# (face at 0) left adjoint to (degeneracy at 0):
#   Hom(face_0 X, Y) = Hom(X, degeneracy_0 Y).
# (degeneracy at top) left adjoint to (face at top):
#   Hom(degeneracy_{n-1} Y, X) = Hom(Y, face_n X).
# Their units and counits are arc morphisms (recollement.AdjointPair).
# The transports are written out apart from those, so the adjunction law
# can check the face pair's unit and counit against them.

def face0_transport(g):
    """Adjunct of g: face_0 X -> Y across (face_0, degeneracy_0)."""
    return degeneracy_morphism(g, 0)


def face0_transport_back(f, y):
    """Adjunct of f: X -> degeneracy_0 Y as a morphism face_0 X -> Y."""
    comps = [f.components[0], f.components[0].then(y.maps[0])] + f.components[1:]
    return Morphism(face(f.source, 0), y, comps)


def top_transport(f, y):
    """Adjunct of f: degeneracy_top Y -> X as a morphism Y -> face_top X."""
    x = f.target
    n = x.n
    last = y.maps[n].with_twist(0).then(f.components[0]).sigma_entries(-1)
    return Morphism(y, face(x, n), f.components + [last])


def top_transport_back(g, x):
    """Adjunct of g: Y -> face_top X by dropping the last component."""
    n = g.n - 1
    if face(x, n) != g.target:
        raise ValueError("target is not the top face of the given object")
    h = degeneracy_morphism(g, n - 1)
    return Morphism(h.source, x, h.components)
