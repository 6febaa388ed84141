"""Randomized law suites behind the `laws` command and the acceptance run.

Each suite draws its cases from its own generator seeded by the scenario
seed and the suite name, checks bit-exact identities, and reports the
case count plus any failures, so a report is fully determined by the
scenario.  Every suite runs on every ring.  On a skew ring a suite that
reaches commutative-only machinery (Smith forms, lift, projective chain
factoring) raises UnsupportedRingError, and the run reports it skipped
with a reason and without its partial cases; on a commutative ring that
error is a bug and propagates.  A suite that runs zero cases fails the
whole run.
"""

import random

from .matrices import (TwistedMatrix, hermite_form, smith_form, solve_right,
                       mat_mul, mat_identity, invariant_factors)
from .factorizations import (Factorization, Morphism, theta, theta_morphism,
                             shift, shift_morphism, shift_inverse,
                             shift_inverse_morphism, shift_power,
                             shift_power_morphism, face, face_morphism,
                             degeneracy, degeneracy_morphism,
                             face0_transport, face0_transport_back,
                             top_transport, top_transport_back,
                             omega_morphism)
from .homotopy import (is_p_null_homotopic, factors_through_trivials,
                       reconstruct_from_witness, stable_hom)
from .matrixring import phi, phi_morphism, psi, psi_morphism, validate_gamma
from .chains import (cok0, cok0_morphism, chain_is_mono, lift, chain_iso,
                     faithfulness_report)
from .recollement import face0_pair, top_pair, pr0_pair, recollement
from .rings import UnsupportedRingError
from . import randomgen as rg


class Scenario:
    """Ring, seed, and size bounds; determines every generated case."""

    def __init__(self, ring, seed=0, folds=(1, 2, 3, 4), max_rank=3,
                 max_deg=2, cases=24):
        self.ring = ring
        self.seed = seed
        self.folds = tuple(n for n in folds if n >= 1) or (2,)
        for name, value, low in (("max_rank", max_rank, 1), ("max_deg", max_deg, 0),
                                 ("cases", cases, 1)):
            if value < low:
                raise ValueError("%s must be >= %d, not %d" % (name, low, value))
        self.max_rank = max_rank
        self.max_deg = max_deg
        self.cases = cases

    def to_json(self):
        return {"ring": self.ring.to_json(), "seed": self.seed,
                "folds": list(self.folds), "max_rank": self.max_rank,
                "max_deg": self.max_deg, "cases": self.cases}


class SuiteReport:
    def __init__(self, name):
        self.name = name
        self.cases = 0
        self.failures = []
        self.skipped = None

    def case(self, ok, detail=""):
        self.cases += 1
        if not ok and len(self.failures) < 20:
            self.failures.append(detail)

    @property
    def passed(self):
        if self.skipped is not None:
            return True
        return self.cases > 0 and not self.failures

    def to_json(self):
        out = {"name": self.name, "cases": self.cases,
               "failures": list(self.failures), "passed": self.passed}
        if self.skipped is not None:
            out["skipped"] = self.skipped
        return out


_REGISTRY = []


def _suite(name):
    def deco(fn):
        _REGISTRY.append((name, fn))
        return fn
    return deco


def suite_names():
    return sorted(name for name, _ in _REGISTRY)


def _folds(sc, low=1):
    out = [n for n in sc.folds if n >= low]
    return out or [low]


def _obj(sc, rng, n):
    return rg.random_object(sc.ring, rng, n, sc.max_rank, sc.max_deg)


def _mor(sc, rng, x, y):
    return rg.random_morphism(rng, x, y, sc.max_deg)


def _gmat(sc, rng, rows, cols):
    ring = sc.ring
    ent = [[ring.random_poly(rng, sc.max_deg) for _ in range(cols)]
           for _ in range(rows)]
    return TwistedMatrix(ring, ent, 0, rows, cols)


def _pr_tower(x):
    # slot-0 fusions down to fold 1
    out = x
    while out.n > 1:
        out = degeneracy(out, 0)
    return out


def _pr_tower_morphism(f):
    out = f
    while out.n > 1:
        out = degeneracy_morphism(out, 0)
    return out


# ---------------------------------------------------------------------------

@_suite("ring-laws")
def _ring_laws(sc, rng, rep):
    ring = sc.ring
    d = sc.max_deg + 2
    for _ in range(sc.cases):
        f = ring.random_poly(rng, d)
        g = ring.random_poly(rng, d)
        h = ring.random_poly(rng, d)
        rep.case(ring.mul(ring.mul(f, g), h) == ring.mul(f, ring.mul(g, h)),
                 "multiplication associativity")
        rep.case(ring.mul(f, ring.add(g, h))
                 == ring.add(ring.mul(f, g), ring.mul(f, h)),
                 "left distributivity")
        rep.case(ring.mul(ring.add(f, g), h)
                 == ring.add(ring.mul(f, h), ring.mul(g, h)),
                 "right distributivity")
        rep.case(ring.apply_sigma(ring.mul(f, g))
                 == ring.mul(ring.apply_sigma(f), ring.apply_sigma(g)),
                 "sigma is multiplicative")
        rep.case(ring.mul(ring.omega, f)
                 == ring.mul(ring.apply_sigma(f, ring.auto_power), ring.omega),
                 "omega normality")
        rep.case(ring.apply_sigma(ring.omega, 1) == ring.omega,
                 "omega sigma-fixed")
        if g:
            q, r = ring.right_quo_rem(f, g)
            rep.case(ring.add(ring.mul(q, g), r) == f
                     and (not r or ring.deg(r) < ring.deg(g)),
                     "right division")
            q, r = ring.left_quo_rem(f, g)
            rep.case(ring.add(ring.mul(g, q), r) == f
                     and (not r or ring.deg(r) < ring.deg(g)),
                     "left division")
        rows = rng.randint(1, sc.max_rank)
        cols = rng.randint(1, sc.max_rank)
        m = [[ring.random_poly(rng, sc.max_deg) for _ in range(cols)]
             for _ in range(rows)]
        hm, u, _ = hermite_form(ring, m)
        rep.case(mat_mul(ring, u, m) == hm, "hermite transform")
        lift_rows = rng.randint(1, sc.max_rank)
        xm = [[ring.random_poly(rng, sc.max_deg) for _ in range(rows)]
              for _ in range(lift_rows)]
        rhs = mat_mul(ring, xm, m)
        sol = solve_right(ring, m, rhs)
        rep.case(sol is not None and mat_mul(ring, sol, m) == rhs,
                 "solve against constructed system")
        if ring.commutative:
            dd, su, sv, svi = smith_form(ring, m)
            rep.case(mat_mul(ring, mat_mul(ring, su, m), sv) == dd,
                     "smith transform")
            rep.case(mat_mul(ring, sv, svi) == mat_identity(ring, cols),
                     "smith column inverse")
            diag = [dd[t][t] for t in range(min(len(dd), cols))]
            chain_ok = True
            for a, b in zip(diag, diag[1:]):
                if not a and b:
                    chain_ok = False
                if a and b and ring.right_quo_rem(b, a)[1]:
                    chain_ok = False
            rep.case(chain_ok, "smith divisibility chain")


# ---------------------------------------------------------------------------

@_suite("functor-laws")
def _functor_laws(sc, rng, rep):
    ring = sc.ring
    for _ in range(sc.cases):
        n = rng.choice(_folds(sc))
        m = rng.randint(1, sc.max_rank)
        g = _gmat(sc, rng, m, rng.randint(1, sc.max_rank))

        # trivial objects under the shift
        for i in range(n - 1):
            rep.case(shift(theta(ring, n, i + 1, m)) == theta(ring, n, i, m),
                     "shift of trivial drops the slot (n=%d i=%d)" % (n, i))
            lhs = shift_morphism(theta_morphism(ring, n, i + 1, g))
            rhs = theta_morphism(ring, n, i, g)
            rep.case(lhs.components == rhs.components,
                     "shift of trivial on maps (n=%d i=%d)" % (n, i))
        # slot projections read the module map straight off
        for i in range(n):
            tm = theta_morphism(ring, n, i, g)
            rep.case(all(tm.components[j] == g for j in range(i, n)),
                     "projection of trivial is the module map (i=%d)" % i)
        # trivial at slot 0 is the tower of slot-0 faces
        t0 = theta(ring, 1, 0, m)
        t0m = theta_morphism(ring, 1, 0, g)
        for _ in range(n - 1):
            t0 = face(t0, 0)
            t0m = face_morphism(t0m, 0)
        rep.case(t0 == theta(ring, n, 0, m), "slot-0 trivial as face tower")
        rep.case(t0m.components == theta_morphism(ring, n, 0, g).components,
                 "slot-0 trivial as face tower on maps")

        x = _obj(sc, rng, n)
        y = _obj(sc, rng, n)
        f = _mor(sc, rng, x, y)

        # shift is an automorphism with period n up to the twist
        rep.case(shift_inverse(shift(x)) == x, "shift left inverse")
        rep.case(shift(shift_inverse(x)) == x, "shift right inverse")
        rep.case(shift_inverse_morphism(shift_morphism(f)).components
                 == f.components, "shift inverse on maps")
        # n single shifts, against sigma_twist, which is built apart from them
        full = x
        for _ in range(n):
            full = shift(full)
        rep.case(full == x.sigma_twist(-1), "full shift is the inverse-twist")

        # the slot-i projection is the slot-0 projection after i shifts
        for i in range(n):
            pi = _pr_tower(shift_power(x, i))
            rep.case(pi.ranks == [x.ranks[i]]
                     and pi.maps[0] == TwistedMatrix.omega_identity(ring, x.ranks[i]),
                     "projection tower picks slot %d" % i)
            pim = _pr_tower_morphism(shift_power_morphism(f, i))
            rep.case(pim.components[0] == f.components[i],
                     "projection tower on maps at slot %d" % i)

        # face and degeneracy identities
        for i in range(n + 1):
            rep.case(degeneracy(face(x, i), i) == x,
                     "degeneracy splits its face (i=%d)" % i)
            rep.case(degeneracy_morphism(face_morphism(f, i), i).components
                     == f.components, "degeneracy splits its face on maps")
        for i in range(n):
            rep.case(shift(face(x, i + 1)) == face(shift(x), i),
                     "shift against face (i=%d)" % i)
            rep.case(shift_morphism(face_morphism(f, i + 1)).components
                     == face_morphism(shift_morphism(f), i).components,
                     "shift against face on maps")
        yy = face(x, rng.randint(0, n))  # a fold n+1 object
        ff = face_morphism(f, rng.randint(0, n))
        for i in range(yy.n - 1):
            rep.case(degeneracy(shift(yy), i) == shift(degeneracy(yy, i + 1)),
                     "shift against degeneracy (i=%d)" % i)
            rep.case(degeneracy_morphism(shift_morphism(ff), i).components
                     == shift_morphism(degeneracy_morphism(ff, i + 1)).components,
                     "shift against degeneracy on maps")
        rep.case(face(x, n) == shift(face(x, 0)),
                 "top face is the shifted slot-0 face")

        # functoriality on a composable pair
        h = _mor(sc, rng, y, _obj(sc, rng, n))
        comp = f.then(h)
        i = rng.randint(0, n)
        rep.case(face_morphism(comp, i).components
                 == face_morphism(f, i).then(face_morphism(h, i)).components,
                 "face respects composition")
        j = rng.randint(0, n - 1) if n >= 2 else None
        if j is not None:
            rep.case(degeneracy_morphism(comp, j).components
                     == degeneracy_morphism(f, j).then(
                         degeneracy_morphism(h, j)).components,
                     "degeneracy respects composition")
        rep.case(face_morphism(Morphism.identity(x), i).components
                 == Morphism.identity(face(x, i)).components,
                 "face preserves identities")


# ---------------------------------------------------------------------------

@_suite("adjunction")
def _adjunction(sc, rng, rep):
    ring = sc.ring
    for _ in range(sc.cases):
        n = rng.choice(_folds(sc))
        x = _obj(sc, rng, n)
        y = _obj(sc, rng, n + 1)

        # explicit bijection for (slot-0 face, slot-0 projection)
        f = _mor(sc, rng, x, degeneracy(y, 0))
        g = face0_transport_back(f, y)
        rep.case(g.is_valid(), "transported morphism is valid")
        rep.case(face0_transport(g).components == f.components,
                 "bijection round trip from below")
        gg = _mor(sc, rng, face(x, 0), y)
        rep.case(face0_transport_back(face0_transport(gg), y).components
                 == gg.components, "bijection round trip from above")

        # naturality of the explicit bijection in both arguments
        u = _mor(sc, rng, _obj(sc, rng, n), x)
        v = _mor(sc, rng, y, _obj(sc, rng, n + 1))
        lhs = face0_transport(face_morphism(u, 0).then(gg).then(v))
        rhs = u.then(face0_transport(gg)).then(degeneracy_morphism(v, 0))
        rep.case(lhs.components == rhs.components, "bijection naturality")

        # unit and counit recover the same bijection
        pair = face0_pair(n)
        rep.case(pair.unit(x).then(degeneracy_morphism(gg, 0)).components
                 == face0_transport(gg).components,
                 "unit form of the bijection")
        rep.case(face_morphism(f, 0).then(pair.counit(y)).components
                 == face0_transport_back(f, y).components,
                 "counit form of the bijection")
        rep.case(pair.triangle_left(x), "face pair triangle at the source")
        rep.case(pair.triangle_right(y), "face pair triangle at the target")

        # explicit bijection for (top projection, shifted slot-0 face)
        h = _mor(sc, rng, degeneracy(y, y.n - 2), x)
        ht = top_transport(h, y)
        rep.case(ht.is_valid(), "top transported morphism is valid")
        rep.case(top_transport_back(ht, x).components == h.components,
                 "top bijection round trip from below")
        hh = _mor(sc, rng, y, face(x, x.n))
        rep.case(top_transport(top_transport_back(hh, x), y).components
                 == hh.components, "top bijection round trip from above")
        tpair = top_pair(n)
        rep.case(tpair.unit(y).then(face_morphism(h, n)).components
                 == ht.components, "unit form of the top bijection")
        rep.case(degeneracy_morphism(hh, n - 1).then(tpair.counit(x)).components
                 == top_transport_back(hh, x).components,
                 "counit form of the top bijection")
        rep.case(tpair.triangle_left(y), "top pair triangle at the source")
        rep.case(tpair.triangle_right(x), "top pair triangle at the target")

        # the slot-i pairs come from conjugating the slot-0 pair
        for i in range(1, n):
            ipair = face0_pair(n).conjugate(-i)
            rep.case(ipair.left.obj(x) == face(x, i),
                     "conjugated left adjoint is the slot-%d face" % i)
            rep.case(ipair.right.obj(y) == degeneracy(y, i),
                     "conjugated right adjoint is the slot-%d projection" % i)
            rep.case(ipair.triangle_left(x),
                     "slot-%d pair triangle at the source" % i)
            rep.case(ipair.triangle_right(y),
                     "slot-%d pair triangle at the target" % i)

        # the projection pair with the shift-conjugated face section
        ppair = pr0_pair(n + 1)
        rep.case(ppair.left.obj(y) == degeneracy(y, 0),
                 "projection pair projects slot 0")
        rep.case(ppair.right.obj(x)
                 == shift_power(face(shift_power(x, -(n - 1)), 0), n),
                 "projection pair section normal form")
        rep.case(ppair.triangle_left(y),
                 "projection pair triangle at the source")
        rep.case(ppair.triangle_right(x),
                 "projection pair triangle at the target")


# ---------------------------------------------------------------------------

@_suite("homotopy-oracle")
def _homotopy_oracle(sc, rng, rep):
    budget = sc.cases
    pos = max(1, budget // 3)
    neg = max(1, budget // 3)
    mixed = max(1, budget - pos - neg)
    for _ in range(pos):
        n = rng.choice(_folds(sc))
        x = _obj(sc, rng, n)
        y = _obj(sc, rng, n)
        f, w = rg.random_null_morphism(rng, x, y, sc.max_deg)
        v = is_p_null_homotopic(f)
        ok = bool(v.null)
        if ok:
            ok = reconstruct_from_witness(x, y, v.witness) == f
        rep.case(ok, "constructed null morphism with exact witness")
        rep.case(bool(factors_through_trivials(f)),
                 "constructed null morphism factors through trivials")
    for _ in range(neg):
        n = rng.choice(_folds(sc, low=2))
        try:
            x = rg.random_nonzero_object(sc.ring, rng, n, sc.max_rank,
                                         sc.max_deg)
        except ValueError:  # squarefree omega, or a skew ring
            rep.case(True, "no certified objects on this ring")
            continue
        ident = Morphism.identity(x)
        rep.case(not is_p_null_homotopic(ident).null,
                 "certified identity is not null")
        rep.case(not factors_through_trivials(ident),
                 "certified identity avoids trivials")
    for _ in range(mixed):
        n = rng.choice(_folds(sc))
        x = _obj(sc, rng, n)
        y = x if rng.random() < 0.5 else _obj(sc, rng, n)
        f = _mor(sc, rng, x, y)
        v = is_p_null_homotopic(f)
        t = factors_through_trivials(f)
        rep.case(bool(v.null) == bool(t), "oracle and factoring agree")
        if v.null:
            rep.case(reconstruct_from_witness(x, y, v.witness) == f,
                     "returned witness reconstructs the morphism")


# ---------------------------------------------------------------------------

@_suite("matrix-module-grid")
def _matrix_module_grid(sc, rng, rep):
    ring = sc.ring
    for _ in range(sc.cases):
        n = rng.choice(_folds(sc))
        x = _obj(sc, rng, n)
        gm = phi(x)
        rep.case(not validate_gamma(gm), "grid of a valid object validates")
        rep.case(psi(gm) == x, "grid reads back to the object")
        y = _obj(sc, rng, n)
        f = _mor(sc, rng, x, y)
        fm = phi_morphism(f)
        rep.case(not fm.defects(), "grid morphism satisfies the squares")
        rep.case(psi_morphism(fm).components == f.components,
                 "grid morphism reads back")
        try:
            bad = rg.corrupt_gamma(gm, rng)
            rep.case(bool(validate_gamma(bad)), "corrupted grid is rejected")
        except ValueError:
            rep.case(True, "nothing to corrupt at fold one")
    # the slot-0 trivial object has identity composites above the diagonal
    m = rng.randint(1, sc.max_rank)
    n = rng.choice(_folds(sc, low=2))
    gm = phi(theta(ring, n, 0, m))
    ident = TwistedMatrix.identity(ring, m)
    rep.case(all(gm.maps[(i, j)] == ident
                 for i in range(1, n + 1) for j in range(1, n + 1) if i < j),
             "trivial object grid is all identities above the diagonal")


# ---------------------------------------------------------------------------

@_suite("omega-division")
def _omega_division(sc, rng, rep):
    ring = sc.ring
    for _ in range(sc.cases):
        n = rng.choice(_folds(sc, low=2))
        x = _obj(sc, rng, n)
        tail = x.compose_range(1, n - 1)
        # d^0 is the unique left factor of omega through the tail
        sol = solve_right(ring, tail.m,
                          TwistedMatrix.scalar(ring, x.ranks[0],
                                               ring.omega, 0).m)
        ok = sol is not None
        if ok:
            recovered = TwistedMatrix(ring, sol, 0).sigma_entries(-1)
            ok = recovered.m == x.maps[0].m
        rep.case(ok, "omega division recovers the first map")
        rep.case(len(hermite_form(ring, tail.m)[2]) == tail.rows,
                 "division is unique")


# ---------------------------------------------------------------------------

@_suite("cokernel-chain")
def _cokernel_chain(sc, rng, rep):
    ring = sc.ring
    for _ in range(sc.cases):
        n = rng.choice(_folds(sc, low=2))
        x = _obj(sc, rng, n)
        c = cok0(x)
        rep.case(c.check_torsion(), "cokernels are omega-torsion")
        mono, bad = chain_is_mono(c)
        rep.case(mono, "chain maps are injective (failed at %s)" % bad)
        rep.case(cok0(theta(ring, n, 0, rng.randint(1, sc.max_rank))).is_zero(),
                 "slot-0 trivials have zero chains")
        y = _obj(sc, rng, n)
        z = _obj(sc, rng, n)
        f = _mor(sc, rng, x, y)
        g = _mor(sc, rng, y, z)
        lhs = cok0_morphism(f.then(g))
        rhs = cok0_morphism(f).then(cok0_morphism(g))
        rep.case(lhs.components == rhs.components,
                 "zeroth cokernel respects composition")
        rep.case(cok0_morphism(omega_morphism(x)).is_zero_map(),
                 "omega scaling dies in the cokernels")


# ---------------------------------------------------------------------------

@_suite("chain-lift")
def _chain_lift(sc, rng, rep):
    ring = sc.ring
    for _ in range(sc.cases):
        n = rng.choice(_folds(sc, low=2))
        c = rg.random_chain(ring, rng, n, sc.max_rank, sc.max_deg)
        x = lift(c)
        rep.case(x.is_valid(), "lift output is a valid factorization")
        facs = [e for e in invariant_factors(ring, c.modules[-1].relations.m)
                if e]
        rep.case(x.ranks == [len(facs)] * n,
                 "lift rank matches the nonunit invariant factors")
        res = chain_iso(cok0(x), c)
        rep.case(bool(res.found), "cokernel of the lift is chain isomorphic")
    z = lift(cok0(theta(ring, max(_folds(sc, low=2)), 0)))
    rep.case(z.ranks[0] == 0, "zero chain lifts to the zero object")


# ---------------------------------------------------------------------------

@_suite("cokernel-faithful")
def _cokernel_faithful(sc, rng, rep):
    for _ in range(sc.cases):
        n = rng.choice(_folds(sc, low=2))
        x = _obj(sc, rng, n)
        y = x if rng.random() < 0.4 else _obj(sc, rng, n)
        f = _mor(sc, rng, x, y)
        report = faithfulness_report(f)
        rep.case(report["zero_agree"],
                 "zero cokernel matches factoring through the slot-0 trivial")
        if "null_agree" in report:
            rep.case(report["null_agree"],
                     "projective chain factoring matches the homotopy oracle")


# ---------------------------------------------------------------------------

@_suite("classical-sanity")
def _classical_sanity(sc, rng, rep):
    ring = sc.ring
    d = ring.omega_deg
    if list(ring.omega) != ring.x_power(d):
        rep.case(True, "omega is not a pure power; composition table skipped")
        return

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    folds = _folds(sc, low=2)
    reach = [n for n in folds if n <= d + 2]
    if not reach:
        rep.skipped = ("no requested fold (%s) is within deg omega + 2 = %d"
                       % (", ".join(map(str, folds)), d + 2))
        return
    for n in reach:
        for comp in compositions(d, n):
            maps = []
            for i, a in enumerate(comp):
                poly = ring.x_power(a)
                maps.append(TwistedMatrix(ring, [[poly]],
                                          1 if i == n - 1 else 0))
            x = Factorization(ring, [1] * n, maps)
            x.assert_valid()
            c = cok0(x)
            want = []
            s = 0
            for a in comp[:-1]:
                s += a
                want.append([] if s == 0 else [list(ring.x_power(s))])
            got = c.slot_invariants()
            rep.case(got == want,
                     "prefix powers disagree for composition %s" % (comp,))
    if d == 2:
        maps = [TwistedMatrix(ring, [[ring.x_power(1)]], 0),
                TwistedMatrix(ring, [[ring.x_power(1)]], 1)]
        x2 = Factorization(ring, [1, 1], maps)
        report = stable_hom(x2, x2)
        rep.case(report.k_dimension == 1,
                 "stable endomorphisms of the split square root")


# ---------------------------------------------------------------------------

@_suite("stable-face")
def _stable_face(sc, rng, rep):
    ring = sc.ring
    for _ in range(sc.cases):
        n = rng.choice(_folds(sc, low=2))
        x = _obj(sc, rng, n)
        y = _obj(sc, rng, n)
        f, _ = rg.random_null_morphism(rng, x, y, sc.max_deg)
        for i in range(n + 1):
            rep.case(is_p_null_homotopic(face_morphism(f, i)).null,
                     "faces preserve null morphisms (i=%d)" % i)
        try:
            z = rg.random_nonzero_object(ring, rng, n, sc.max_rank, sc.max_deg)
        except ValueError:  # squarefree omega, or a skew ring
            rep.case(True, "no certified objects on this ring")
            continue
        ident = Morphism.identity(z)
        rep.case(not is_p_null_homotopic(
            face_morphism(ident, n - 1)).null,
            "the top-slot face reflects stable nonzero identities")
        # fully faithful on the nose for the stable hom module
        a = stable_hom(x, y).factor_names()
        b = stable_hom(face(x, n - 1), face(y, n - 1)).factor_names()
        rep.case(a == b, "stable hom invariants agree across the face")


# ---------------------------------------------------------------------------

@_suite("recollement")
def _recollement(sc, rng, rep):
    ring = sc.ring
    for (n, k) in ((2, 1), (3, 1), (3, 2), (4, 2)):
        rec = recollement(n, k)
        for _ in range(max(1, sc.cases // 4)):
            x = _obj(sc, rng, k)
            y = _obj(sc, rng, n)
            z = _obj(sc, rng, n - k + 1)
            rep.case(rec.section_identities(x),
                     "sections split the quotient (%d,%d)" % (n, k))
            f = _mor(sc, rng, x, _obj(sc, rng, k))
            rep.case(rec.section_identities_morphism(f),
                     "sections split the quotient on maps (%d,%d)" % (n, k))
            rep.case(rec.triangles(x, y),
                     "recollement triangles (%d,%d)" % (n, k))
            w = rec.inc.obj(z)
            rep.case(w.is_valid(), "included object is valid (%d,%d)" % (n, k))
            verdict = rec.kernel_stably_zero(z)
            rep.case(bool(verdict.null),
                     "included objects die under the quotient (%d,%d)" % (n, k))


# ---------------------------------------------------------------------------

def run_suites(sc, names=None):
    """Run the selected suites (default: all) and return the report."""
    if names:
        missing = sorted(set(names) - set(suite_names()))
        if missing:
            raise ValueError("unknown suites: %s" % ", ".join(missing))
    suites = []
    for name, fn in sorted(_REGISTRY):
        if names and name not in names:
            continue
        rep = SuiteReport(name)
        try:
            fn(sc, random.Random("%s:%s" % (sc.seed, name)), rep)
        except UnsupportedRingError:
            if sc.ring.commutative:
                raise
            rep = SuiteReport(name)
            rep.skipped = "needs a commutative base ring"
        suites.append(rep)
    return {
        "scenario": sc.to_json(),
        "suites": [r.to_json() for r in suites],
        "passed": all(r.passed for r in suites),
    }
