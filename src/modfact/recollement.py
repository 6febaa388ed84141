"""Recollement functors between fold levels.

For 1 <= k <= n-1 the stable n-fold category is glued from the (n-k+1)-fold
category (through inc) and the k-fold one (through the slot-0 projection
tower).  Every functor here is a reindexing plan (factorizations.reindex):
a composite of shifts, faces and degeneracies is one composed plan, applied
in one pass.  The unit and counit of an adjunction L -| R are the arc
morphisms from the identity plan to the plan of R after L, and from the
plan of L after R to the identity, so the triangle identities can be
checked bit-exact on concrete objects.

The composites are normalized so every fold count lines up:

    quotient      = deg_0 applied n-k times            F_n -> F_k
    section_left  = face_0 applied n-k times           F_k -> F_n
    section_right = S^{n-1} face_0^{n-k} S^{-(k-1)}    F_k -> F_n
    inc           = S^{-1} face_{n-2} ... face_{n-k}   F_{n-k+1} -> F_n

section_left is left adjoint and section_right right adjoint to the
quotient; inc_left and inc_right are the declared adjoint composites of
inc, built by conjugating the two base adjunctions with shift powers.
"""

from .factorizations import (Morphism, reindex, reindex_morphism, compose_plans,
                             arc_morphism, face_plan, degeneracy_plan)
from .homotopy import is_stably_zero


class Functor:
    """A named reindexing plan, plan(n) on fold n, composed left to right."""

    def __init__(self, name, plan):
        self.name = name
        self.plan = plan

    def obj(self, x):
        return reindex(x, self.plan(x.n))

    def mor(self, f):
        return reindex_morphism(f, self.plan(f.n))

    def then(self, other):
        def plan(n):
            p = self.plan(n)
            return compose_plans(p, other.plan(len(p)), n)
        return Functor("%s %s" % (other.name, self.name), plan)

    def __repr__(self):
        return "Functor(%s)" % self.name


def shift_functor(a):
    return Functor("S^%d" % a, lambda n: list(range(a, a + n)))


def face_functor(i):
    return Functor("face_%d" % i, lambda n: face_plan(n, i))


def degeneracy_functor(i):
    return Functor("pr_%d" % i, lambda n: degeneracy_plan(n, i))


class AdjointPair:
    """(left adjoint, right adjoint), with the arc morphisms as
    unit(x): x -> R(L(x)) for x in the source of left and
    counit(y): L(R(y)) -> y for y in the target of left.
    """

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def unit(self, x):
        n = x.n
        return arc_morphism(x, list(range(n)), self.left.then(self.right).plan(n))

    def counit(self, y):
        n = y.n
        return arc_morphism(y, self.right.then(self.left).plan(n), list(range(n)))

    def compose(self, other):
        """Glue with a pair one level up: left legs compose source-first."""
        return AdjointPair(self.left.then(other.left),
                           other.right.then(self.right))

    def conjugate(self, a):
        """Transport the pair along S^a on both sides."""
        pre, post = shift_functor(-a), shift_functor(a)
        return AdjointPair(pre.then(self.left).then(post),
                           pre.then(self.right).then(post))

    def triangle_left(self, x):
        """(counit at L x) after L(unit at x) must be the identity of L x."""
        lx = self.left.obj(x)
        t = self.left.mor(self.unit(x)).then(self.counit(lx))
        return t == Morphism.identity(lx)

    def triangle_right(self, y):
        """R(counit at y) after (unit at R y) must be the identity of R y."""
        ry = self.right.obj(y)
        t = self.unit(ry).then(self.right.mor(self.counit(y)))
        return t == Morphism.identity(ry)


def face0_pair(m):
    """face_0 : F_m -> F_{m+1} left adjoint to the slot-0 projection."""
    return AdjointPair(face_functor(0), degeneracy_functor(0))


def top_pair(m):
    """Top projection F_{m+1} -> F_m left adjoint to the top face."""
    return AdjointPair(degeneracy_functor(m - 1), face_functor(m))


def pr0_pair(m):
    """Slot-0 projection F_m -> F_{m-1} with its right adjoint.

    Conjugating the top pair with S^{m-2} turns the top projection into the
    slot-0 one on the nose; the right adjoint comes out as the shifted face
    composite.
    """
    if m < 2:
        raise ValueError("projection pair needs fold at least 2")
    return top_pair(m - 1).conjugate(m - 2)


class Recollement:
    def __init__(self, n, k):
        if not (1 <= k <= n - 1):
            raise ValueError("recollement needs 1 <= k <= n-1")
        self.n = n
        self.k = k

        adj = face0_pair(k)
        for m in range(k + 1, n):
            adj = adj.compose(face0_pair(m))
        self.adj_left = adj

        adj = pr0_pair(n)
        for m in range(n - 1, k, -1):
            adj = adj.compose(pr0_pair(m))
        self.adj_right = adj

        self.section_left = self.adj_left.left
        self.quotient = self.adj_left.right
        self.section_right = self.adj_right.right

        inc = shift_functor(0)
        for i in range(n - k, n - 1):
            inc = inc.then(face_functor(i))
        self.inc = inc.then(shift_functor(-1))

        # declared adjoints of inc: peel the faces with the matching
        # conjugated projections, absorbing the outer shift first
        left = shift_functor(1)
        right = shift_functor(1)
        for i in range(n - 2, n - k - 1, -1):
            m = i + 1                # the face acts F_m -> F_{m+1}
            left = left.then(shift_functor(i + 1)).then(
                degeneracy_functor(m - 1)).then(shift_functor(-i))
            right = right.then(shift_functor(i)).then(
                degeneracy_functor(0)).then(shift_functor(-i))
        self.inc_left = left
        self.inc_right = right

    # -- the checks the laws and acceptance suites run --

    def section_identities(self, x):
        """Both sections composed with the quotient return x bit-exact."""
        return (self.quotient.obj(self.section_left.obj(x)) == x
                and self.quotient.obj(self.section_right.obj(x)) == x)

    def section_identities_morphism(self, f):
        qf = self.quotient.mor(self.section_left.mor(f))
        qg = self.quotient.mor(self.section_right.mor(f))
        return qf == f and qg == f

    def triangles(self, x, y):
        """All four triangle identities, x in F_k and y in F_n."""
        return (self.adj_left.triangle_left(x)
                and self.adj_left.triangle_right(y)
                and self.adj_right.triangle_left(y)
                and self.adj_right.triangle_right(x))

    def kernel_stably_zero(self, z):
        """Objects included from F_{n-k+1} die under the quotient."""
        if z.n != self.n - self.k + 1:
            raise ValueError("the inclusion takes fold n - k + 1 = %d, not "
                             "fold %d" % (self.n - self.k + 1, z.n))
        w = self.inc.obj(z)
        q = self.quotient.obj(w)
        return is_stably_zero(q)


def recollement(n, k):
    return Recollement(n, k)
