"""Recollement functors between fold levels.

For 1 <= k <= n-1 the stable n-fold category is glued from the (n-k+1)-fold
category (through inc) and the k-fold one (through the slot-0 projection
tower).  This module assembles the six functors as composites of the shift,
face and degeneracy primitives, together with strict unit/counit data for
the two adjunctions on the quotient side, so the triangle identities can be
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

from .factorizations import (Morphism, shift_power, shift_power_morphism,
                             face, face_morphism, degeneracy, degeneracy_morphism,
                             face0_unit, face0_counit, top_unit, top_counit)
from .homotopy import is_stably_zero


class Functor:
    """A named pair of object and morphism maps, composed left to right."""

    def __init__(self, name, on_obj, on_mor):
        self.name = name
        self._obj = on_obj
        self._mor = on_mor

    def obj(self, x):
        return self._obj(x)

    def mor(self, f):
        return self._mor(f)

    def then(self, other):
        return Functor("%s %s" % (other.name, self.name),
                       lambda x: other._obj(self._obj(x)),
                       lambda f: other._mor(self._mor(f)))

    def __repr__(self):
        return "Functor(%s)" % self.name


def identity_functor():
    return Functor("1", lambda x: x, lambda f: f)


def shift_functor(a):
    if a == 0:
        return identity_functor()
    return Functor("S^%d" % a,
                   lambda x: shift_power(x, a),
                   lambda f: shift_power_morphism(f, a))


def face_functor(i):
    return Functor("face_%d" % i,
                   lambda x: face(x, i),
                   lambda f: face_morphism(f, i))


def degeneracy_functor(i):
    return Functor("pr_%d" % i,
                   lambda x: degeneracy(x, i),
                   lambda f: degeneracy_morphism(f, i))


def _rebase(f, src, tgt):
    # endpoints must already be bit-equal; this only retags them
    if f.source != src or f.target != tgt:
        raise ValueError("functor composite endpoints drifted")
    return Morphism(src, tgt, f.components)


class AdjointPair:
    """(left adjoint, right adjoint) with strict unit and counit.

    unit(x): x -> R(L(x)) for x in the source of left;
    counit(y): L(R(y)) -> y for y in the target of left.
    """

    def __init__(self, left, right, unit, counit):
        self.left = left
        self.right = right
        self._unit = unit
        self._counit = counit

    def unit(self, x):
        return self._unit(x)

    def counit(self, y):
        return self._counit(y)

    def compose(self, other):
        """Glue with a pair one level up: left legs compose source-first."""
        L = self.left.then(other.left)
        R = other.right.then(self.right)

        def unit(x):
            u1 = self._unit(x)
            u2 = other._unit(self.left.obj(x))
            return u1.then(self.right.mor(u2))

        def counit(y):
            c2 = other._counit(y)
            c1 = self._counit(other.right.obj(y))
            return other.left.mor(c1).then(c2)

        return AdjointPair(L, R, unit, counit)

    def conjugate(self, a):
        """Transport the pair along S^a on both sides."""
        if a == 0:
            return self
        pre = shift_functor(-a)
        post = shift_functor(a)
        L = pre.then(self.left).then(post)
        R = pre.then(self.right).then(post)

        def unit(x):
            u = shift_power_morphism(self._unit(shift_power(x, -a)), a)
            return _rebase(u, x, R.obj(L.obj(x)))

        def counit(y):
            c = shift_power_morphism(self._counit(shift_power(y, -a)), a)
            return _rebase(c, L.obj(R.obj(y)), y)

        return AdjointPair(L, R, unit, counit)

    def triangle_left(self, x):
        """(counit at L x) after L(unit at x) must be the identity of L x."""
        lx = self.left.obj(x)
        t = self.left.mor(self._unit(x)).then(self._counit(lx))
        return t == Morphism.identity(lx)

    def triangle_right(self, y):
        """R(counit at y) after (unit at R y) must be the identity of R y."""
        ry = self.right.obj(y)
        t = self._unit(ry).then(self.right.mor(self._counit(y)))
        return t == Morphism.identity(ry)


def face0_pair(m):
    """face_0 : F_m -> F_{m+1} left adjoint to the slot-0 projection."""
    return AdjointPair(face_functor(0), degeneracy_functor(0),
                       face0_unit, face0_counit)


def top_pair(m):
    """Top projection F_{m+1} -> F_m left adjoint to the top face."""
    return AdjointPair(degeneracy_functor(m - 1), face_functor(m),
                       top_unit, top_counit)


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
