"""Cokernel chains and the bridge back to factorizations.

An n-fold factorization X determines quotient modules C_i = A^r / (rows of
d^0 ... d^{i-1}) for i = 1..n-1, each killed by omega, and the maps d^i
descend to a chain C_1 -> C_2 -> ... -> C_{n-1} of injections.  This module
computes that chain (`cok0`), transports morphisms along it, rebuilds a
factorization from any abstract chain of omega-torsion module injections
(`lift`), and decides chain isomorphism at the k-linear level (`chain_iso`).

The witness-level checks at the bottom tie the chain picture to the homotopy
one: a morphism induces zero on chains exactly when it factors through sums
of theta^0 objects, and it induces a map factoring through a projective
chain exactly when it is null-homotopic.  Both directions are computed
independently and compared, nothing is inferred from one side alone.

Everything that needs Smith normal form (lift, chain_iso,
chain_factors_projective) is restricted to the commutative base rings and
raises UnsupportedRingError over a skew one.  cok0 itself, morphism
transport and the mono test only use Hermite elimination and work over
every supported ring.
"""

from .rings import UnsupportedRingError
from .matrices import (TwistedMatrix, mat_mul, mat_identity, hermite_form,
                       left_kernel, solve_right, smith_form, invariant_factors,
                       block_slots, term_image)
from .modules import (ModulePresentation, kmat_mul, kmat_sub, kmat_is_zero,
                      kmat_nullspace, kmat_inv, kmat_rank)
from .factorizations import Factorization
from . import homotopy


class ChainModule:
    """A chain M^1 -> M^2 -> ... -> M^{n-1} of omega-torsion modules.

    modules[i] presents M^{i+1}; maps[i] is the generator-image matrix of
    M^{i+1} -> M^{i+2} (row j = image of generator j, twist 0).  A chain of
    length zero (n = 1) is allowed and carries no data beyond n itself.
    """

    def __init__(self, ring, modules, maps, n=None):
        self.ring = ring
        self.modules = list(modules)
        self.maps = [[list(map(list, row)) for row in m] for m in maps]
        self.n = n if n is not None else len(self.modules) + 1
        if self.n != len(self.modules) + 1:
            raise ValueError("n = %d does not match %d modules"
                             % (self.n, len(self.modules)))
        if len(self.maps) != max(len(self.modules) - 1, 0):
            raise ValueError("a chain of %d modules carries %d maps"
                             % (len(self.modules), max(len(self.modules) - 1, 0)))
        for mod in self.modules:
            if mod.ring != ring:
                raise ValueError("chain modules live over one ring")
        for i, m in enumerate(self.maps):
            rows = len(m)
            cols = len(m[0]) if m else 0
            if rows != self.modules[i].gens:
                raise ValueError("map %d has %d rows for %d generators"
                                 % (i, rows, self.modules[i].gens))
            if rows and cols != self.modules[i + 1].gens:
                raise ValueError("map %d has %d columns for %d generators"
                                 % (i, cols, self.modules[i + 1].gens))
            self.maps[i] = [[ring.trim(e) for e in row] for row in m]

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

    def dims(self):
        return [m.linearization().dim for m in self.modules]

    def is_zero(self):
        return all(d == 0 for d in self.dims())

    def slot_invariants(self):
        """Per-slot monic invariant factors of the modules."""
        return [invariant_factors(self.ring, m.relations) for m in self.modules]

    def to_json(self):
        maps = []
        for i, m in enumerate(self.maps):
            tm = TwistedMatrix(self.ring, m, 0, self.modules[i].gens,
                               self.modules[i + 1].gens)
            maps.append(tm.to_json())
        return {"n": self.n,
                "modules": [m.to_json() for m in self.modules],
                "maps": maps}

    @staticmethod
    def from_json(ring, data):
        if "modules" not in data or "maps" not in data:
            raise ValueError("chain needs 'modules' and 'maps'")
        mods = [ModulePresentation.from_json(ring, m)
                for m in data["modules"]]
        n = int(data.get("n", len(mods) + 1))
        maps = []
        for i, m in enumerate(data["maps"]):
            tm = TwistedMatrix.from_json(ring, m)
            if tm.twist != 0:
                raise ValueError("chain maps carry twist 0")
            if tm.rows != mods[i].gens or tm.cols != mods[i + 1].gens:
                raise ValueError("chain map %d shape mismatch" % i)
            maps.append(tm.m)
        return ChainModule(ring, mods, maps, n=n)


class ChainMorphism:
    """Slotwise module maps commuting with the chain maps.

    components[i] is the generator-image matrix M^{i+1}(source) ->
    M^{i+1}(target).  Validity means every component is well defined on the
    relations and every square with the chain maps commutes, both checked
    through the linearizations.
    """

    def __init__(self, source, target, components):
        if source.ring != target.ring or source.n != target.n:
            raise ValueError("chain morphism endpoints do not match")
        self.source = source
        self.target = target
        self.ring = source.ring
        comps = []
        for i, m in enumerate(components):
            rows = len(m)
            cols = len(m[0]) if m else 0
            if rows != source.modules[i].gens:
                raise ValueError("component %d has %d rows for %d generators"
                                 % (i, rows, source.modules[i].gens))
            if rows and cols != target.modules[i].gens:
                raise ValueError("component %d has %d columns for %d generators"
                                 % (i, cols, target.modules[i].gens))
            comps.append([[self.ring.trim(list(e)) for e in row] for row in m])
        if len(comps) != len(source.modules):
            raise ValueError("one component per chain slot required")
        self.components = comps

    def well_defined(self):
        for i, m in enumerate(self.components):
            src = self.source.modules[i].linearization()
            tgt = self.target.modules[i].linearization()
            if not src.map_well_defined(tgt, m):
                return False
        return True

    def square_defects(self):
        """k-matrix of (source map ; component) - (component ; target map) per square."""
        fld = self.ring.field
        out = []
        for i in range(len(self.components) - 1):
            lin_s0 = self.source.modules[i].linearization()
            lin_s1 = self.source.modules[i + 1].linearization()
            lin_t0 = self.target.modules[i].linearization()
            lin_t1 = self.target.modules[i + 1].linearization()
            s_top = lin_s0.map_matrix(lin_s1, self.source.maps[i])
            s_bot = lin_t0.map_matrix(lin_t1, self.target.maps[i])
            g0 = lin_s0.map_matrix(lin_t0, self.components[i])
            g1 = lin_s1.map_matrix(lin_t1, self.components[i + 1])
            out.append(kmat_sub(fld, kmat_mul(fld, s_top, g1),
                               kmat_mul(fld, g0, s_bot)))
        return out

    def is_valid(self):
        if not self.well_defined():
            return False
        fld = self.ring.field
        return all(kmat_is_zero(fld, d) for d in self.square_defects())

    def is_zero_map(self):
        """All generator images vanish in the target quotients."""
        for i, m in enumerate(self.components):
            tgt = self.target.modules[i].linearization()
            for row in m:
                if any(tgt.normal_form(row)):
                    return False
        return True

    def then(self, other):
        if other.source is not self.target and other.source != self.target:
            raise ValueError("chain composition endpoints do not match")
        comps = [mat_mul(self.ring, a, b)
                 for a, b in zip(self.components, other.components)]
        return ChainMorphism(self.source, other.target, comps)

    @staticmethod
    def identity(c):
        return ChainMorphism(c, c, [mat_identity(c.ring, m.gens)
                                    for m in c.modules])

    def to_json(self):
        comps = []
        for i, m in enumerate(self.components):
            tm = TwistedMatrix(self.ring, m, 0, self.source.modules[i].gens,
                               self.target.modules[i].gens)
            comps.append(tm.to_json())
        return {"components": comps}

    @staticmethod
    def from_json(source, target, data):
        comps = [TwistedMatrix.from_json(source.ring, m).m
                 for m in data["components"]]
        return ChainMorphism(source, target, comps)


def zero_chain(ring, n):
    mods = [ModulePresentation(ring, 0, []) for _ in range(n - 1)]
    return ChainModule(ring, mods, [[] for _ in range(max(n - 2, 0))], n=n)


def staircase_chain(ring, n, j, m=1):
    """Chain of theta^j(A^m): zero below slot j, then Abar^m with identity maps.

    j = 0 gives the zero chain (theta^0 objects have full relation space in
    every slot).  j ranges over 0..n-1.
    """
    if not 0 <= j <= n - 1:
        raise ValueError("slot out of range")
    omega_rows = [[list(ring.omega) if a == b else [] for b in range(m)]
                  for a in range(m)]
    mods = []
    maps = []
    for i in range(1, n):
        if i < j or j == 0:
            mods.append(ModulePresentation(ring, 0, []))
        else:
            mods.append(ModulePresentation(ring, m, omega_rows))
    for i in range(1, n - 1):
        if i + 1 < j or j == 0:
            maps.append([])
        elif i < j:
            maps.append([])   # 0 -> Abar^m, no generator rows
        else:
            maps.append(mat_identity(ring, m))
    return ChainModule(ring, mods, maps, n=n)


def cok0(x):
    """The chain of quotients by the partial composites from slot 0."""
    ring = x.ring
    n = x.n
    mods = []
    for i in range(1, n):
        rel = x.compose_range(0, i - 1).m
        mods.append(ModulePresentation(ring, x.ranks[i], rel))
    maps = [x.maps[i].m for i in range(1, n - 1)]
    return ChainModule(ring, mods, maps, n=n)


def cok0_morphism(f):
    """Transport a factorization morphism to its chain of induced maps."""
    comps = [f.components[i].m for i in range(1, f.source.n)]
    return ChainMorphism(cok0(f.source), cok0(f.target), comps)


def chain_is_mono(c):
    """(True, None) when every chain map is injective, else (False, slot).

    Injectivity is read off the k-linearizations; the returned slot is the
    1-based index of the first failing map.
    """
    for i in range(len(c.maps)):
        src = c.modules[i].linearization()
        tgt = c.modules[i + 1].linearization()
        mm = src.map_matrix(tgt, c.maps[i])
        if kmat_rank(c.ring.field, mm) != src.dim:
            return False, i + 1
    return True, None


# -- rebuilding a factorization from a chain --

def lift(c, n=None):
    """A factorization whose quotient chain is isomorphic to c.

    The top module is covered minimally through its Smith form; preimages of
    the images of the chain maps are pulled back step by step, and the last
    map is the diagonal of complementary divisors of omega.  Requires every
    module to be omega-torsion and every chain map injective.  Commutative
    base rings only.
    """
    ring = c.ring
    if not ring.commutative:
        raise UnsupportedRingError("lift needs the commutative case")
    if n is None:
        n = c.n
    if n != c.n:
        raise ValueError("chain has %d slots, expected n = %d" % (c.n, n))
    if n == 1:
        return Factorization(ring, [0], [TwistedMatrix(ring, [], 1, 0, 0)])
    if not c.check_torsion():
        raise ValueError("chain modules must be killed by omega")
    mono, bad = chain_is_mono(c)
    if not mono:
        raise ValueError("chain map into slot %d is not injective" % (bad + 1))

    top = c.modules[-1]
    if top.gens == 0:
        rank = 0
        cover = []
        diag = []
    else:
        d, _, _, v_inv = smith_form(ring, top.relations)
        keep = []
        for t in range(min(len(d), top.gens)):
            e = d[t][t]
            if not e:
                raise ValueError("free direction in an omega-torsion module")
            if len(e) > 1:
                keep.append(t)
        # torsion guarantees every generator column reaches the diagonal
        if len(d) < top.gens:
            raise ValueError("free direction in an omega-torsion module")
        rank = len(keep)
        cover = [list(map(list, v_inv[t])) for t in keep]
        diag = [list(d[t][t]) for t in keep]

    omega = list(ring.omega)
    last = []
    for t, e in enumerate(diag):
        q, r = ring.right_quo_rem(omega, e)
        if r:
            raise ValueError("invariant factor does not divide omega")
        last.append([q if tt == t else [] for tt in range(rank)])

    composite = [[list(diag[a]) if a == b else [] for b in range(rank)]
                 for a in range(rank)]
    qmat = cover          # generator coordinates of the current cover
    mids = []             # maps d^{n-2}, ..., d^1 as they are found
    for i in range(n - 1, 1, -1):
        mod_hi = c.modules[i - 1]
        mod_lo = c.modules[i - 2]
        smap = c.maps[i - 2]
        stacked = []
        for row in qmat:
            stacked.append(list(map(list, row)))
        for row in smap:
            stacked.append([ring.neg(e) for e in row])
        for row in mod_hi.relations:
            stacked.append([ring.neg(e) for e in row])
        ker = left_kernel(ring, stacked)
        vparts = [row[:rank] for row in ker]
        h, _, pivots = hermite_form(ring, vparts) if vparts else ([], [], [])
        if len(pivots) != rank:
            raise ValueError("preimage at slot %d has rank %d, expected %d"
                             % (i - 1, len(pivots), rank))
        basis = [list(map(list, h[t])) for t in range(rank)]
        comp_new = solve_right(ring, basis, composite)
        if comp_new is None:
            raise ValueError("composite does not land in the preimage")
        if mod_lo.gens:
            span = [list(map(list, row)) for row in smap]
            span += [list(map(list, row)) for row in mod_hi.relations]
            rhs = mat_mul(ring, basis, qmat)
            sol = solve_right(ring, span, rhs)
            if sol is None:
                raise ValueError("preimage rows do not come from slot %d" % (i - 1))
            q_new = [row[:mod_lo.gens] for row in sol]
        else:
            q_new = [[] for _ in range(rank)]
        mids.append(basis)
        composite = comp_new
        qmat = q_new

    maps = [TwistedMatrix(ring, composite, 0, rank, rank)]
    for basis in reversed(mids):
        maps.append(TwistedMatrix(ring, basis, 0, rank, rank))
    maps.append(TwistedMatrix(ring, last, 1, rank, rank))
    out = Factorization(ring, [rank] * n, maps)
    out.assert_valid()
    return out


# -- chain isomorphism testing --

class ChainIsoResult:
    def __init__(self, found, definitive, forward=None, reason=""):
        self.found = found
        self.definitive = definitive
        self.forward = forward
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
    """Basis of k-linear slotwise maps commuting with x and the chain maps.

    Returns (basis, shapes) where each basis element is a flat coefficient
    vector and shapes lists the (dim_c, dim_d) per slot.
    """
    ring = c.ring
    fld = ring.field
    lins_c = [m.linearization() for m in c.modules]
    lins_d = [m.linearization() for m in d.modules]
    shapes = [(lc.dim, ld.dim) for lc, ld in zip(lins_c, lins_d)]
    offs = []
    total = 0
    for (a, b) in shapes:
        offs.append(total)
        total += a * b
    xs_c = [lc.x_matrix() for lc in lins_c]
    xs_d = [ld.x_matrix() for ld in lins_d]
    s_c = [lins_c[i].map_matrix(lins_c[i + 1], c.maps[i])
           for i in range(len(c.maps))]
    s_d = [lins_d[i].map_matrix(lins_d[i + 1], d.maps[i])
           for i in range(len(d.maps))]

    cols = []

    def empty_col():
        return [fld.zero] * total

    def idx(slot, a, b):
        return offs[slot] + a * shapes[slot][1] + b

    for slot, (dc, dd) in enumerate(shapes):
        # x * H - H * x = 0
        for a in range(dc):
            for b in range(dd):
                col = empty_col()
                for u in range(dc):
                    col[idx(slot, u, b)] = fld.add(col[idx(slot, u, b)],
                                                   xs_c[slot][a][u])
                for v in range(dd):
                    col[idx(slot, a, v)] = fld.sub(col[idx(slot, a, v)],
                                                   xs_d[slot][v][b])
                cols.append(col)
    for slot in range(len(shapes) - 1):
        dc0, dd0 = shapes[slot]
        dc1, dd1 = shapes[slot + 1]
        # s_c * H_{i+1} - H_i * s_d = 0
        for a in range(dc0):
            for b in range(dd1):
                col = empty_col()
                for u in range(dc1):
                    col[idx(slot + 1, u, b)] = fld.add(col[idx(slot + 1, u, b)],
                                                       s_c[slot][a][u])
                for v in range(dd0):
                    col[idx(slot, a, v)] = fld.sub(col[idx(slot, a, v)],
                                                   s_d[slot][v][b])
                cols.append(col)

    if total == 0:
        return [], shapes
    if not cols:
        mat = [[fld.zero] for _ in range(total)]
    else:
        mat = [[col[t] for col in cols] for t in range(total)]
    return kmat_nullspace(fld, mat), shapes


def _reshape(fld, vec, shapes):
    out = []
    pos = 0
    for (a, b) in shapes:
        m = [[vec[pos + r * b + cc] for cc in range(b)] for r in range(a)]
        pos += a * b
        out.append(m)
    return out


# random combinations of the chain-map space that chain_iso tests
_ISO_TRIES = 64


def chain_iso(c, d, rng=None):
    """Decide isomorphism of chains by slot invariants plus a k-linear search.

    Differing invariant factors at any slot give a definitive negative.
    Otherwise random combinations of the chain-map space are tested for
    slotwise invertibility; success returns the forward components as
    k-matrices over the common basis.  Exhausting the budget without a hit
    is reported as non-definitive.
    """
    import random as _random
    ring = c.ring
    if not ring.commutative:
        raise UnsupportedRingError("chain isomorphism needs the commutative case")
    if d.ring != ring:
        raise ValueError("chains live over different rings")
    if c.n != d.n:
        return ChainIsoResult(False, True, reason="different lengths")
    inv_c = c.slot_invariants()
    inv_d = d.slot_invariants()
    for i, (a, b) in enumerate(zip(inv_c, inv_d)):
        if sorted(map(tuple, a)) != sorted(map(tuple, b)):
            return ChainIsoResult(False, True,
                                  reason="invariant factors differ in slot %d" % (i + 1))
    if c.is_zero():
        shapes = [(0, 0) for _ in c.modules]
        return ChainIsoResult(True, True,
                              forward=_reshape(ring.field, [], shapes))
    basis, shapes = _chain_map_space(c, d)
    if not basis:
        return ChainIsoResult(False, True, reason="no nonzero chain maps exist")
    fld = ring.field
    if rng is None:
        rng = _random.Random(20260814)
    for attempt in range(_ISO_TRIES):
        if attempt < len(basis):
            vec = list(basis[attempt])
        else:
            vec = [fld.zero] * len(basis[0])
            for row in basis:
                coeff = fld.random(rng)
                for t, e in enumerate(row):
                    vec[t] = fld.add(vec[t], fld.mul(coeff, e))
        mats = _reshape(fld, vec, shapes)
        if all(kmat_inv(fld, m) is not None for m in mats):
            return ChainIsoResult(True, True, forward=mats)
    return ChainIsoResult(False, False,
                          reason="no invertible combination in %d tries"
                          % _ISO_TRIES)


# -- faithfulness of the chain picture, both routes computed independently --

def chain_factors_projective(f):
    """Does the induced chain map factor through a projective chain?

    Projective chains are sums of the staircases; mapping onto the target
    chain by the identity in the entering slot makes the canonical staircase
    cover an epimorphism in every slot, so factoring through any projective
    is the same as factoring through that cover.  Chain maps out of the
    source into a staircase entering at slot j are freely determined by
    their top component, which turns the question into one exact linear
    solve over A, assembled by term_image from the blocks' terms.
    Commutative base rings only.
    """
    ring = f.source.ring
    if not ring.commutative:
        raise UnsupportedRingError(
            "projective chain factoring needs the commutative case")
    x, y = f.source, f.target
    n = x.n
    if n == 1:
        return True
    cx, cy = x.compose_range, y.compose_range

    # Unknown blocks U_j (j = 1..n-1), A_j (j = 1..n-1), B_j (j = 2..n-1)
    # and V_i (i = 1..n-1). Equation ("A", j) reads d_X^{0..n-2} U_j +
    # omega A_j = 0, ("B", j) reads d_X^{j-1..n-2} U_j + omega B_j = 0, and
    # ("f", i) reads sum_{j <= i} d_X^{i..n-2} U_j d_Y^{j..i-1} +
    # V_i d_Y^{0..i-1} = f^i.
    eqs_ab = ([(("A", j), x.ranks[0], y.ranks[j]) for j in range(1, n)]
              + [(("B", j), x.ranks[j - 1], y.ranks[j]) for j in range(2, n)])
    eqs_f = [(("f", i), x.ranks[i], y.ranks[i]) for i in range(1, n)]
    blocks = ([(("U", j), x.ranks[n - 1], y.ranks[j]) for j in range(1, n)]
              + eqs_ab + [(("V", i), x.ranks[i], y.ranks[0]) for i in range(1, n)])
    terms = {key: [(key, TwistedMatrix.scalar(ring, r, ring.omega).m,
                    mat_identity(ring, c), 0)] for key, r, c in eqs_ab}
    for j in range(1, n):
        eye = mat_identity(ring, y.ranks[j])
        terms[("U", j)] = [(("A", j), cx(0, n - 2).m, eye, 0)]
        if j >= 2:
            terms[("U", j)].append((("B", j), cx(j - 1, n - 2).m, eye, 0))
        terms[("U", j)] += [(("f", i), cx(i, n - 2).m, cy(j, i - 1).m, 0)
                            for i in range(j, n)]
        terms[("V", j)] = [(("f", j), mat_identity(ring, x.ranks[j]),
                            cy(0, j - 1).m, 0)]
    slots = block_slots(blocks)

    target = [[] for _, r, c in eqs_ab for _ in range(r * c)]
    target += [list(p) for i in range(1, n) for row in f.components[i].m
               for p in row]
    if not slots:
        return all(not e for e in target)
    image = term_image(ring, eqs_ab + eqs_f, terms, slots)
    one = ring.from_int(1)
    return solve_right(ring, [image(u, one) for u in range(len(slots))],
                       [target]) is not None


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
        proj = chain_factors_projective(f)
        null = homotopy.is_p_null_homotopic(f)
        out.update({"projective_chain": proj,
                    "null_homotopic": null.null,
                    "null_agree": proj == null.null})
    return out
