"""Cokernel chains and the bridge back to factorizations.

An n-fold factorization X determines quotient modules C_i = A^r / (rows of
d^0 ... d^{i-1}) for i = 1..n-1, each killed by omega, and the maps d^i
descend to a chain C_1 -> C_2 -> ... -> C_{n-1} of injections.  This module
computes that chain (`cok0`), transports morphisms along it, rebuilds a
factorization from any abstract chain of omega-torsion module injections
(`lift`), and decides chain isomorphism at the k-linear level (`chain_iso`).
The presentations' relations, the chain maps and the morphism components
are twist-0 TwistedMatrix objects, shared and never copied: cok0 hands
over the factorization's own arcs and maps.

The witness-level checks at the bottom tie the chain picture to the homotopy
one: a morphism induces zero on chains exactly when it factors through sums
of theta^0 objects, and it induces a map factoring through a projective
chain exactly when it is null-homotopic.  Both directions are computed
independently and compared, nothing is inferred from one side alone.

A chain map is fixed by its top component, the k-matrix at slot n-1: the
chain maps are injective, so each lower component is its restriction. The
chain-map spaces solve for that one k-matrix, reading ChainModule.kmaps()
once per chain, each product given its width.

lift needs one Smith normal form, the top module's, chain_iso needs the
Smith forms of every slot, and chain_factors_projective needs k-linear
chain maps, which are Frobenius-semilinear over a skew ring: all three
raise UnsupportedRingError over a skew base ring.  cok0 itself, morphism
transport and the chain checks read residues modulo omega
(modules.Linearization) and work over every supported ring.
"""

import random

from .fields import json_int
from .rings import UnsupportedRingError
from .matrices import (TwistedMatrix, mat_mul, mat_identity, hermite_form,
                       solve_right, smith_form, invariant_factors, block_slots,
                       TermImage)
from .modules import (ModulePresentation, kmat_identity, kmat_mul, kmat_sub,
                      kmat_is_zero, kmat_nullspace, kmat_inv, kmat_rank,
                      kmat_solve)
from .factorizations import Factorization
from . import homotopy


def _check_map_count(modules, maps):
    want = max(len(modules) - 1, 0)
    if len(maps) != want:
        raise ValueError("a chain of %d modules needs %d %s, not %d"
                         % (len(modules), want, "map" if want == 1 else "maps",
                            len(maps)))


class ChainModule:
    """A chain M^1 -> M^2 -> ... -> M^{n-1} of omega-torsion modules.

    modules[i] presents M^{i+1}; maps[i] is the twist-0 TwistedMatrix of
    generator images of M^{i+1} -> M^{i+2} (row j = image of generator j),
    kept as given, as the presentations keep their relations.  A chain of
    length zero (n = 1) is allowed and carries no data beyond n itself.
    """

    def __init__(self, ring, modules, maps, n=None):
        self.ring = ring
        self.modules = list(modules)
        self.maps = list(maps)
        self.n = n if n is not None else len(self.modules) + 1
        if self.n != len(self.modules) + 1:
            raise ValueError("n = %d does not match %d modules"
                             % (self.n, len(self.modules)))
        _check_map_count(self.modules, self.maps)
        for mod in self.modules:
            if mod.ring != ring:
                raise ValueError("chain modules live over one ring")
        for i, m in enumerate(self.maps):
            if m.twist != 0:
                raise ValueError("chain maps carry twist 0")
            if (m.rows, m.cols) != (self.modules[i].gens, self.modules[i + 1].gens):
                raise ValueError("chain map %d shape mismatch" % i)
            if m.ring != ring:
                raise ValueError("chain map %d lives over a different ring" % i)
        self._kmaps = None

    def __eq__(self, other):
        return (isinstance(other, ChainModule) and self.ring == other.ring
                and self.n == other.n and self.modules == other.modules
                and self.maps == other.maps)

    def __repr__(self):
        return "ChainModule(n=%d, gens=%s)" % (
            self.n, [m.gens for m in self.modules])

    def check_torsion(self):
        """Every module must be killed by omega."""
        return all(m.check_abar() for m in self.modules)

    def defects(self):
        """Why this is not a chain of omega-torsion injections: a module
        omega does not kill (alone: no other check has coordinates then),
        else the maps that do not send relations to relations, else the
        first map that is not injective (by target slot)."""
        if not self.check_torsion():
            return ["a module is not killed by omega"]
        lins = [m.linearization() for m in self.modules]
        ill = ["chain map into slot %d is not well defined" % (i + 2)
               for i, m in enumerate(self.maps)
               if not lins[i].map_well_defined(lins[i + 1], m)]
        if ill:
            return ill
        mono, slot = chain_is_mono(self)
        return [] if mono else ["chain map into slot %d is not injective" % (slot + 1)]

    def kmaps(self):
        """k-matrices of the chain maps, computed once (chains never change)."""
        if self._kmaps is None:
            lins = [m.linearization() for m in self.modules]
            self._kmaps = [lins[i].map_matrix(lins[i + 1], m)
                           for i, m in enumerate(self.maps)]
        return self._kmaps

    def dims(self):
        return [m.linearization().dim for m in self.modules]

    def is_zero(self):
        return all(d == 0 for d in self.dims())

    def slot_invariants(self):
        """Per-slot monic invariant factors of the modules."""
        return [invariant_factors(self.ring, m.relations.m) for m in self.modules]

    def to_json(self):
        return {"n": self.n,
                "modules": [m.to_json() for m in self.modules],
                "maps": [m.to_json() for m in self.maps]}

    @staticmethod
    def from_json(ring, data):
        if "modules" not in data or "maps" not in data:
            raise ValueError("chain needs 'modules' and 'maps'")
        mods = [ModulePresentation.from_json(ring, m)
                for m in data["modules"]]
        n = json_int(data.get("n", len(mods) + 1), "n")
        _check_map_count(mods, data["maps"])
        maps = [TwistedMatrix.from_json(ring, m) for m in data["maps"]]
        return ChainModule(ring, mods, maps, n=n)


class ChainMorphism:
    """Slotwise module maps commuting with the chain maps.

    components[i] is the twist-0 TwistedMatrix of generator images
    M^{i+1}(source) -> M^{i+1}(target), kept as given.  Validity means
    every component is well defined on the relations and every square with
    the chain maps commutes, both checked through the linearizations, the
    squares on kmats() and kmaps().
    """

    def __init__(self, source, target, components):
        if source.ring != target.ring or source.n != target.n:
            raise ValueError("chain morphism endpoints do not match")
        self.source = source
        self.target = target
        self.ring = source.ring
        self.components = list(components)
        if len(self.components) != len(source.modules):
            raise ValueError("one component per chain slot required")
        for i, m in enumerate(self.components):
            if m.twist != 0:
                raise ValueError("chain morphism components carry twist 0")
            if m.rows != source.modules[i].gens:
                raise ValueError("component %d has %d rows for %d generators"
                                 % (i, m.rows, source.modules[i].gens))
            if m.cols != target.modules[i].gens:
                raise ValueError("component %d has %d columns for %d generators"
                                 % (i, m.cols, target.modules[i].gens))
            if m.ring != self.ring:
                raise ValueError("component %d lives over a different ring" % i)

    def well_defined(self):
        return all(p.linearization().map_well_defined(q.linearization(), m)
                   for p, q, m in zip(self.source.modules, self.target.modules,
                                      self.components))

    def kmats(self):
        """The k-matrices of the components, source.dims()[i] x target.dims()[i]."""
        return [p.linearization().map_matrix(q.linearization(), m)
                for p, q, m in zip(self.source.modules, self.target.modules,
                                   self.components)]

    def square_defects(self):
        """k-matrix of (source map ; component) - (component ; target map) per square."""
        fld = self.ring.field
        g = self.kmats()
        dims = self.target.dims()
        return [kmat_sub(fld, kmat_mul(fld, s, g[i + 1], dims[i + 1]),
                         kmat_mul(fld, g[i], t, dims[i + 1]))
                for i, (s, t) in enumerate(zip(self.source.kmaps(),
                                                 self.target.kmaps()))]

    def is_valid(self):
        if not self.well_defined():
            return False
        fld = self.ring.field
        return all(kmat_is_zero(fld, d) for d in self.square_defects())

    def is_zero_map(self):
        """All generator images vanish in the target quotients."""
        fld = self.ring.field
        return all(fld.is_zero(c)
                   for mod, m in zip(self.target.modules, self.components)
                   for row in m.m for c in mod.linearization().encode(row))

    def then(self, other):
        if other.source is not self.target and other.source != self.target:
            raise ValueError("chain composition endpoints do not match")
        return ChainMorphism(self.source, other.target,
                             [a.then(b) for a, b in zip(self.components,
                                                        other.components)])

    def to_json(self):
        return {"components": [m.to_json() for m in self.components]}

    @staticmethod
    def from_json(source, target, data):
        comps = [TwistedMatrix.from_json(source.ring, m)
                 for m in data["components"]]
        return ChainMorphism(source, target, comps)


def zero_chain(ring, n):
    return staircase_chain(ring, n, 0)


def staircase_chain(ring, n, j, m=1):
    """Chain of theta^j(A^m): zero below slot j, then Abar^m with identity maps.

    j = 0 gives the zero chain (theta^0 objects have full relation space in
    every slot).  j ranges over 0..n-1.
    """
    if not 0 <= j <= n - 1:
        raise ValueError("slot out of range")
    # one presentation per kind, so each is linearized once
    zero = ModulePresentation(ring, 0, TwistedMatrix.zero(ring, 0, 0))
    abar = ModulePresentation(ring, m, TwistedMatrix.scalar(ring, m, ring.omega))
    mods = [zero if j == 0 or i < j else abar for i in range(1, n)]
    # a map out of a zero slot has no generator rows
    ident = TwistedMatrix.identity(ring, m)
    maps = [TwistedMatrix.zero(ring, 0, b.gens) if a is zero else ident
            for a, b in zip(mods, mods[1:])]
    return ChainModule(ring, mods, maps, n=n)


def cok0(x):
    """The chain of quotients by the partial composites from slot 0: the
    relations and maps are x's own arcs and maps, shared."""
    n = x.n
    mods = [ModulePresentation(x.ring, x.ranks[i], x.compose_range(0, i - 1))
            for i in range(1, n)]
    return ChainModule(x.ring, mods, x.maps[1:n - 1], n=n)


def cok0_morphism(f):
    """Transport a factorization morphism to its chain of induced maps."""
    return ChainMorphism(cok0(f.source), cok0(f.target), f.components[1:])


def chain_is_mono(c):
    """(True, None) when every chain map is injective, else (False, slot).

    Injectivity is full row rank of the k-matrix; the returned slot is the
    1-based index of the first failing map.
    """
    for i, m in enumerate(c.kmaps()):
        if kmat_rank(c.ring.field, m) != len(m):
            return False, i + 1
    return True, None


# -- rebuilding a factorization from a chain --

def lift(c):
    """A factorization whose quotient chain is isomorphic to c.

    One Smith form d = u R v of the top module's relations R gives the
    cover.  Keep the r columns t whose d_t is not a unit and let
    K = diag(d_t); row i of v at those columns gives the coordinates of top
    generator i in the sum of the A/(d_t).  Composing the chain maps down
    from the top gives the coordinates of the generators of each M^j, and
    P_j, the first r rows of the Hermite form of those rows stacked on K,
    is free of rank r with P_j / K = M^j, as the chain maps are injective.
    Then d^0 solves d^0 P_1 = K, d^j solves d^j P_{j+1} = P_j, d^{n-2} is
    P_{n-2} (the top slot is A^r itself), and the last map is
    diag(omega / d_t) at twist 1, so d^0 ... d^{n-2} = K.  Requires every
    module to be omega-torsion and every chain map well defined and
    injective.  Commutative base rings only.
    """
    ring = c.ring
    if not ring.commutative:
        raise UnsupportedRingError("lift needs the commutative case")
    n = c.n
    if n == 1:
        return Factorization(ring, [0], [TwistedMatrix(ring, [], 1, 0, 0)])
    bad = c.defects()
    if bad:
        raise ValueError(bad[0])

    top = c.modules[-1]
    d, _, v, _ = smith_form(ring, top.relations.m)
    # torsion guarantees every generator column reaches the diagonal
    if len(d) < top.gens or not all(d[t][t] for t in range(top.gens)):
        raise ValueError("free direction in an omega-torsion module")
    keep = [t for t in range(top.gens) if len(d[t][t]) > 1]
    diag = [d[t][t] for t in keep]
    coords = [[row[t] for t in keep] for row in v]
    rank = len(keep)
    kdiag = [[diag[a] if a == b else [] for b in range(rank)]
             for a in range(rank)]

    last = []
    for t, e in enumerate(diag):
        q, r = ring.right_quo_rem(ring.omega, e)
        if r:
            raise ValueError("invariant factor does not divide omega")
        last.append([q if tt == t else [] for tt in range(rank)])

    # preimages P_1, ..., P_{n-2} of the slots below the top, with P_0 = K
    pre = [kdiag]
    for j in range(n - 2, 0, -1):
        coords = mat_mul(ring, c.maps[j - 1].m, coords,
                         (c.modules[j - 1].gens, c.modules[j].gens, rank))
        h, _, _ = hermite_form(ring, coords + kdiag)
        pre.insert(1, h[:rank])
    maps = [solve_right(ring, pre[j + 1], pre[j]) for j in range(n - 2)]
    maps = [TwistedMatrix(ring, m, 0, rank, rank) for m in maps + [pre[-1]]]
    maps.append(TwistedMatrix(ring, last, 1, rank, rank))
    out = Factorization(ring, [rank] * n, maps)
    out.assert_valid()
    return out


# -- chain isomorphism testing --

class ChainIsoResult:
    def __init__(self, found, definitive, reason=""):
        self.found = found
        self.definitive = definitive
        self.reason = reason

    def __bool__(self):
        return self.found

    def __repr__(self):
        if self.found:
            return "ChainIsoResult(iso)"
        tag = "no" if self.definitive else "not found"
        return "ChainIsoResult(%s: %s)" % (tag, self.reason)

    def to_json(self):
        out = {"isomorphic": self.found, "definitive": self.definitive}
        if self.reason:
            out["reason"] = self.reason
        return out


def _chain_map_space(c, d):
    """(basis, (dim_c, dim_d)): the top components H of the chain maps
    c -> d, dim_c x dim_d k-matrices between the top modules, each a flat
    row-major vector. As d's maps are injective (defects()), H extends
    exactly when x_c H = H x_d, x the top modules' x_matrix(), and, for
    each lower slot s, S_s H N_s = 0: S_s, T_s are the chains' kmaps()
    composed from slot s up to the top, and the columns of N_s span the w
    with T_s w = 0 (all of k^dim_d when D_s = 0). Both are terms of one
    table for TermImage, the k-matrices entering as constants of A.
    """
    ring, fld = c.ring, c.ring.field
    if c.n == 1:
        return [], (0, 0)
    lc, ld = c.modules[-1].linearization(), d.modules[-1].linearization()
    shape = (lc.dim, ld.dim)
    slots = block_slots([(0,) + shape])

    def const(m, sign=1):
        return [[ring.from_field(e if sign > 0 else fld.neg(e)) for e in row]
                for row in m]

    eqs = [("x",) + shape]
    terms = [("x", const(lc.x_matrix()), mat_identity(ring, ld.dim), 0),
             ("x", mat_identity(ring, lc.dim), const(ld.x_matrix(), -1), 0)]
    # S_s and T_s from the top down, each a chain map times the one above
    kc, kd = c.kmaps(), d.kmaps()
    up_c, up_d = kmat_identity(fld, lc.dim), kmat_identity(fld, ld.dim)
    for s in reversed(range(len(kc))):
        up_c = kmat_mul(fld, kc[s], up_c, lc.dim)
        up_d = kmat_mul(fld, kd[s], up_d, ld.dim)
        null = kmat_nullspace(fld, [[row[b] for row in up_d] for b in range(ld.dim)])
        if up_c and null:
            eqs.append((s, len(up_c), len(null)))
            terms.append((s, const(up_c), const(zip(*null)), 0))
    image = TermImage(ring, eqs, [terms], slots)
    rows = [[p[0] if p else fld.zero for p in image(u, ring.one)]
            for u in range(len(slots))]
    return kmat_nullspace(fld, rows), shape


# random combinations of the chain-map space that chain_iso tests
_ISO_TRIES = 64


def chain_iso(c, d, rng=None):
    """Decide isomorphism of chains by slot invariants plus a k-linear search.

    Differing invariant factors at any slot give a definitive negative.
    Otherwise random combinations of the chain-map space's top components
    are tested for invertibility: with the slot dimensions equal, an
    injective top restricts to invertible lower components, so the first
    invertible top is a definitive positive.  When the budget runs out
    without a hit, the k-dimensions of Hom(C,C), Hom(C,D), Hom(D,C) and
    Hom(D,D) are compared: an isomorphism, composed on either side, makes
    all four spaces isomorphic, so any difference is a definitive negative.  Equal
    dimensions are reported as non-definitive.  Both chains must be chains
    of omega-torsion injections: on one that is not, ValueError names its
    first defect, as lift does.
    """
    ring = c.ring
    if not ring.commutative:
        raise UnsupportedRingError("chain isomorphism needs the commutative case")
    if d.ring != ring:
        raise ValueError("chains live over different rings")
    for chain in (c, d):
        bad = chain.defects()
        if bad:
            raise ValueError(bad[0])
    if c.n != d.n:
        return ChainIsoResult(False, True, reason="different lengths")
    for i, (a, b) in enumerate(zip(c.slot_invariants(), d.slot_invariants())):
        if sorted(map(tuple, a)) != sorted(map(tuple, b)):
            return ChainIsoResult(False, True,
                                  reason="invariant factors differ in slot %d" % (i + 1))
    if c.is_zero():
        return ChainIsoResult(True, True)
    basis, (dim, _) = _chain_map_space(c, d)
    if not basis:
        return ChainIsoResult(False, True, reason="no nonzero chain maps exist")
    fld, rng = ring.field, rng or random.Random(20260814)
    for attempt in range(_ISO_TRIES):
        vec = (basis[attempt] if attempt < len(basis) else kmat_mul(
            fld, [[fld.random(rng) for _ in basis]], basis, len(basis[0]))[0])
        top = [vec[a * dim:(a + 1) * dim] for a in range(dim)]
        if kmat_inv(fld, top) is not None:
            return ChainIsoResult(True, True)
    dims = (len(_chain_map_space(c, c)[0]), len(basis),
            len(_chain_map_space(d, c)[0]), len(_chain_map_space(d, d)[0]))
    if len(set(dims)) > 1:
        return ChainIsoResult(False, True, reason="chain-map dimensions differ: "
                              "Hom(C,C) %d, Hom(C,D) %d, Hom(D,C) %d, Hom(D,D) %d"
                              % dims)
    return ChainIsoResult(False, False,
                          reason="no invertible combination in %d tries"
                          % _ISO_TRIES)


# -- faithfulness of the chain picture, both routes computed independently --

def chain_factors_projective(f):
    """Does the induced chain map factor through a projective chain?

    Projective chains are sums of the staircases.  The target D = cok0(y)
    is covered by the staircases on A^{r_j(y)}, j = 1..n-1, each mapping
    to D in slot s >= j by the arc d_Y^{j -> s}, the identity in the
    entering slot.  That cover is onto in every slot, so factoring through
    any projective is the same as factoring through it, and a chain map
    into it is a sum of maps into its summands.  So g = cok0_morphism(f)
    factors exactly when its top component is a combination of those of
    the basis maps into each staircase composed with the cover: one
    kmat_solve.  Commutative base rings only.
    """
    return _factors_through_cover(cok0_morphism(f), f.target)


def _factors_through_cover(g, y):
    """chain_factors_projective for g = cok0_morphism(f), y = f.target."""
    if g.source.n == 1:
        return True
    top = g.source.modules[-1].linearization().map_matrix(
        g.target.modules[-1].linearization(), g.components[-1])
    rows = _cover_composites(g.source, g.target, y)
    return kmat_solve(g.ring.field, rows, [[e for r in top for e in r]]) is not None


def _cover_composites(c, d, y):
    """The top components of the basis maps from c into each staircase of
    the cover of d = cok0(y), times the cover's, the k-matrix of the arc
    d_Y^{j -> n-1}: flat, they span the top components of the maps c -> d
    through a projective."""
    ring = c.ring
    if not ring.commutative:
        raise UnsupportedRingError(
            "projective chain factoring needs the commutative case")
    fld, n = ring.field, c.n
    rows = []
    for j in range(1, n):
        stair = staircase_chain(ring, n, j, y.ranks[j])
        basis, (dim, width) = _chain_map_space(c, stair)
        top = d.modules[-1].linearization()
        cover = stair.modules[-1].linearization().map_matrix(
            top, y.compose_range(j, n - 2))
        for vec in basis:
            h = [vec[a * width:(a + 1) * width] for a in range(dim)]
            rows.append([e for r in kmat_mul(fld, h, cover, top.dim) for e in r])
    return rows


def faithfulness_report(f):
    """Both chain-level criteria against their homotopy counterparts.

    zero_routes compares 'the chain map vanishes' with 'f factors through
    theta^0 sums'; null_routes compares 'the chain map factors through a
    projective chain' with 'f is null-homotopic'.  Each entry carries the
    two independent verdicts and whether they agree.
    """
    g = cok0_morphism(f)
    chain_zero = g.is_zero_map()
    theta0 = homotopy.factors_through_theta0(f)
    out = {"zero_chain": chain_zero,
           "theta0": theta0.factors,
           "zero_agree": chain_zero == theta0.factors}
    if f.source.ring.commutative:
        proj = _factors_through_cover(g, f.target)
        null = homotopy.is_p_null_homotopic(f)
        out.update({"projective_chain": proj,
                    "null_homotopic": null.null,
                    "null_agree": proj == null.null})
    return out
