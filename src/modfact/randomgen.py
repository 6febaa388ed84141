"""Seeded generators for random objects, morphisms, and chains.

Everything is deterministic given the supplied random.Random instance;
the harness relies on that for byte-identical reports.

Objects come from diagonal seeds (slot entries multiplying to the normal
element down every column), densified by conjugation with base changes
made by row and column operations, padded with trivial summands, and
over commutative rings optionally rebuilt through the cokernel-chain
lift.  Conjugator entries stay at degree <= 1 so the result does not
blow past the seed degrees by much.

Stably nonzero certificates (commutative): if some cokernel of partial
composites has an invariant factor e with gcd(e, omega/e) a nonunit,
the module has a local part that is a proper quotient of a local ring,
hence is not projective over A/(omega).  An identity that factored
through trivial objects would make every such cokernel a retract of a
free A/(omega)-module, so the certificate rules that out.  Invariant
factors only gain unit or omega entries under conjugation and trivial
padding, so the certificate survives both.
"""

from .rings import UnsupportedRingError
from .matrices import TwistedMatrix, mat_identity, invariant_factors
from .factorizations import (Factorization, Morphism, theta, direct_sum,
                             shift, omega_morphism)
from .homotopy import random_witness, reconstruct_from_witness, HomSpace
from .chains import cok0, lift


# ---------------------------------------------------------------------------
# commutative polynomial helpers

def poly_gcd(ring, f, g):
    """Monic gcd by Euclid; commutative rings only."""
    if ring.sigma_power:
        raise UnsupportedRingError("gcd needs a commutative coefficient ring")
    a, b = ring.trim(list(f)), ring.trim(list(g))
    while b:
        _, r = ring.right_quo_rem(a, b)
        a, b = b, r
    return ring.monic(a)


def poly_exact_quo(ring, f, g):
    """f/g, or None when g does not divide f."""
    q, r = ring.right_quo_rem(f, g)
    return q if not r else None


def _eval(ring, f, c):
    # Horner, valid only when coefficients commute
    fld = ring.field
    acc = fld.from_int(0)
    for coeff in reversed(f):
        acc = fld.add(fld.mul(acc, c), coeff)
    return acc


def _root_candidates(ring):
    fld = ring.field
    if hasattr(fld, "elements"):
        return list(fld.elements())
    # rationals: monic factors force integer roots dividing the constant
    # term, but the heuristic below is enough for generator seeds
    return [fld.from_int(c) for c in range(-6, 7)]


def omega_atoms(ring):
    """Split omega into monic factors: x-powers, found linear factors,
    and one leftover chunk.  The product over the list is omega."""
    if getattr(ring, "_atoms", None) is not None:
        return list(ring._atoms)
    fld = ring.field
    f = ring.monic(list(ring.omega))
    atoms = []
    while len(f) > 1 and fld.is_zero(f[0]):
        atoms.append([fld.from_int(0), fld.from_int(1)])
        f = f[1:]
    if not ring.sigma_power:
        progress = True
        while len(f) > 1 and progress:
            progress = False
            for c in _root_candidates(ring):
                if fld.is_zero(_eval(ring, f, c)):
                    lin = ring.trim([fld.neg(c), fld.from_int(1)])
                    f = poly_exact_quo(ring, f, lin)
                    atoms.append(lin)
                    progress = True
                    break
    if len(f) > 1:
        atoms.append(f)
    if not atoms:
        atoms.append([ring.field.from_int(1)])
    lc = ring.lc(ring.omega)
    if not fld.is_zero(fld.sub(lc, fld.from_int(1))):
        # non-monic omega: fold the unit in (sigma-fixed in the skew case,
        # so the product is c*x^m wherever the scaled atom lands)
        atoms[0] = ring.scale(lc, atoms[0])
    ring._atoms = list(atoms)
    return atoms


def _product(ring, polys):
    out = [ring.field.from_int(1)]
    for p in polys:
        out = ring.mul(out, p)
    return out


def random_split(ring, rng, n, atoms=None):
    """n monic slot factors whose product is omega."""
    pool = list(atoms if atoms is not None else omega_atoms(ring))
    rng.shuffle(pool)
    buckets = [[] for _ in range(n)]
    for a in pool:
        buckets[rng.randrange(n)].append(a)
    return [_product(ring, b) for b in buckets]


# ---------------------------------------------------------------------------
# object generators

def _diagonal(ring, n, cols):
    """The object whose slot-i map is diagonal with entries cols[a][i]."""
    rank = len(cols)
    maps = []
    for i in range(n):
        entries = [[cols[a][i] if a == b else [] for b in range(rank)]
                   for a in range(rank)]
        maps.append(TwistedMatrix(ring, entries, 1 if i == n - 1 else 0))
    x = Factorization(ring, [rank] * n, maps)
    x.assert_valid()
    return x


def random_diagonal(ring, rng, n, rank):
    return _diagonal(ring, n, [random_split(ring, rng, n) for _ in range(rank)])


def _nonzero_unit(ring, rng):
    fld = ring.field
    while True:
        c = fld.random(rng)
        if not fld.is_zero(c):
            return c


def random_invertible(ring, rng, r, max_deg=1, ops=None):
    """(U, U_inverse) as twist-0 matrices, built from the identity by row
    and column operations: each step acts on the columns of U from the
    right and undoes itself on the rows of U_inverse from the left. A
    step adds column i times a to column j of U and takes a times row j
    from row i of U_inverse; or multiplies column i of U by a unit c on
    the right, and row i of U_inverse by c^-1 on the left; or swaps i and
    j in both."""
    u = mat_identity(ring, r)
    uinv = mat_identity(ring, r)
    if ops is None:
        ops = r + rng.randrange(r + 1)
    for _ in range(ops):
        kind = rng.randrange(3) if r > 1 else 1
        i = rng.randrange(r)
        if kind != 1:
            j = rng.randrange(r - 1)
            j += j >= i
        if kind == 0:
            a = ring.random_poly(rng, max_deg)
            if ring.is_zero(a):
                continue
            for row in u:
                row[j] = ring.add(row[j], ring.mul(row[i], a))
            uinv[i] = [ring.sub(p, ring.mul(a, q)) for p, q in zip(uinv[i], uinv[j])]
        elif kind == 1:
            c = _nonzero_unit(ring, rng)
            for row in u:
                row[i] = ring.mul(row[i], [c])
            cinv = ring.field.inv(c)
            uinv[i] = [ring.scale(cinv, p) for p in uinv[i]]
        else:
            for row in u:
                row[i], row[j] = row[j], row[i]
            uinv[i], uinv[j] = uinv[j], uinv[i]
    return (TwistedMatrix._wrap(ring, u, 0, r, r),
            TwistedMatrix._wrap(ring, uinv, 0, r, r))


def conjugate(x, units):
    """Base change by one invertible pair per slot; an isomorphic object."""
    maps = []
    for i in range(x.n):
        _, uinv = units[i]
        unext, _ = units[(i + 1) % x.n]
        maps.append(uinv.then(x.maps[i]).then(unext))
    out = Factorization(x.ring, list(x.ranks), maps)
    out.assert_valid()
    return out


def random_conjugate(x, rng, max_deg=1):
    units = [random_invertible(x.ring, rng, x.ranks[i], max_deg)
             for i in range(x.n)]
    return conjugate(x, units)


def random_object(ring, rng, n, max_rank=3, max_deg=2):
    rank = rng.randint(1, max_rank)
    x = random_diagonal(ring, rng, n, rank)
    if not ring.sigma_power and n >= 2 and rng.random() < 0.2:
        lifted = lift(cok0(x))
        if lifted.ranks[0] > 0:
            x = lifted
    if rng.random() < 0.3 and x.ranks[0] < max_rank:
        x = direct_sum([x, theta(ring, n, rng.randrange(n))])
    if rng.random() < 0.7:
        x = random_conjugate(x, rng, max_deg=min(max_deg, 1))
    if rng.random() < 0.15:
        x = shift(x)
    x.assert_valid()
    return x


# ---------------------------------------------------------------------------
# certified stably nonzero objects

def certified_nonzero(x):
    """True when some cokernel invariant factor e has gcd(e, omega/e)
    a nonunit, which no retract of a sum of trivial objects allows."""
    ring = x.ring
    if ring.sigma_power:
        raise UnsupportedRingError("certificates use commutative Smith forms")
    omega = ring.monic(list(ring.omega))
    for i in range(1, x.n):
        comp = x.compose_range(0, i - 1)
        for e in invariant_factors(ring, comp.m):
            if not e:
                continue
            q = poly_exact_quo(ring, omega, ring.monic(e))
            if q is None:
                continue
            if ring.deg(poly_gcd(ring, e, q)) >= 1:
                return True
    return False


def _certified_split(ring, rng, n):
    """Slot factors with some proper prefix product e, gcd(e, omega/e)
    a nonunit; None when omega is squarefree so no such split exists,
    or when 32 shuffles of its atoms find none."""
    atoms = omega_atoms(ring)
    omega = ring.monic(list(ring.omega))
    if len(atoms) < 2:
        return None
    for _ in range(32):
        pool = list(atoms)
        rng.shuffle(pool)
        t = rng.randint(1, len(pool) - 1)
        e = _product(ring, pool[:t])
        rest = _product(ring, pool[t:])
        if ring.deg(poly_gcd(ring, e, rest)) < 1:
            continue
        # e built from the first t atoms lands as a prefix composite:
        # spread its atoms over slots 0..p-1 and the rest after
        p = rng.randint(1, n - 1)
        head = random_split(ring, rng, p, atoms=pool[:t])
        tail = random_split(ring, rng, n - p, atoms=pool[t:])
        return head + tail
    return None


def random_nonzero_object(ring, rng, n, max_rank=3, max_deg=2):
    """Random object whose identity is certifiably not null-homotopic."""
    if ring.sigma_power:
        raise UnsupportedRingError("certificates use commutative Smith forms")
    if n < 2:
        raise ValueError("fold 1 objects are all stably zero")
    split = _certified_split(ring, rng, n)
    if split is None:
        raise ValueError("squarefree omega admits no stably nonzero objects")
    cols = [split]
    for _ in range(rng.randrange(max_rank)):
        cols.append(random_split(ring, rng, n))
    x = _diagonal(ring, n, cols)
    if rng.random() < 0.3 and len(cols) < max_rank:
        x = direct_sum([x, theta(ring, n, rng.randrange(n))])
    if rng.random() < 0.7:
        x = random_conjugate(x, rng, max_deg=min(max_deg, 1))
    x.assert_valid()
    assert certified_nonzero(x)
    return x


# ---------------------------------------------------------------------------
# morphism generators

def random_null_morphism(rng, x, y, max_deg=2):
    w = random_witness(rng, x, y, max_deg)
    return reconstruct_from_witness(x, y, w), w


def random_hom_element(rng, x, y, max_deg=2):
    """The morphism with slot n-1 component sum_i p_i b_i + omega N over the
    HomSpace basis b_i, p_i and N random of degree <= max_deg; commutative
    rings only."""
    ring = x.ring
    hom = HomSpace(x, y)
    top = [[ring.mul(ring.omega, ring.random_poly(rng, max_deg))
            for _ in range(y.ranks[-1])] for _ in range(x.ranks[-1])]
    for vec in hom.basis:
        p = ring.random_poly(rng, max_deg)
        for row, brow in zip(top, hom.lift(vec)):
            for b, e in enumerate(brow):
                row[b] = ring.add(row[b], ring.mul(p, e))
    f = hom.morphism(top)
    f.assert_valid()
    return f


def random_morphism(rng, x, y, max_deg=2):
    """Mixed-strategy morphism generator; both homotopy verdicts occur."""
    ring = x.ring
    roll = rng.random()
    if roll < 0.15:
        return Morphism.zero(x, y)
    if roll < 0.5:
        f, _ = random_null_morphism(rng, x, y, max_deg)
        return f
    if x is y or (x.ranks == y.ranks and x.maps == y.maps):
        base = Morphism.identity(x)
        if roll < 0.65:
            return base
        if roll < 0.8 and ring.commutative:
            return omega_morphism(x)
        f, _ = random_null_morphism(rng, x, y, max_deg)
        return base.add(f)
    if not ring.sigma_power:
        f = random_hom_element(rng, x, y, max_deg)
        if roll < 0.85:
            return f
        g, _ = random_null_morphism(rng, x, y, max_deg)
        return f.add(g)
    f, _ = random_null_morphism(rng, x, y, max_deg)
    return f


def random_chain(ring, rng, n, max_rank=3, max_deg=2):
    return cok0(random_object(ring, rng, n, max_rank, max_deg))


# ---------------------------------------------------------------------------
# ring instances

def _poly(ring_field, ints):
    return [ring_field.from_int(c) for c in ints]


def default_instances():
    """The stock desk-scale rings: rationals and F_5 with omega in
    {x^2, x^3, x^4, x^2(x-1)}, and F_4 with the Frobenius twist and
    omega in {x, x^2}."""
    from .fields import RationalField, PrimeField, ExtensionField
    from .rings import BaseRing
    shapes = [[0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1], [0, 0, -1, 1]]
    out = []
    for fld in (RationalField(), PrimeField(5)):
        for shape in shapes:
            out.append(BaseRing(fld, 0, _poly(fld, shape)))
    f4 = ExtensionField(2, 2)
    for shape in ([0, 1], [0, 0, 1]):
        out.append(BaseRing(f4, 1, _poly(f4, shape)))
    return out


def corrupt_gamma(gm, rng):
    """Damage one off-diagonal structure map; validation must reject."""
    from .matrixring import GammaModule
    ring = gm.ring
    spots = [s for s in sorted(gm.maps)
             if gm.maps[s].rows and gm.maps[s].cols]
    if not spots:
        raise ValueError("nothing to corrupt at this fold and rank")
    i, j = spots[rng.randrange(len(spots))]
    mat = gm.maps[(i, j)]
    a, b = rng.randrange(mat.rows), rng.randrange(mat.cols)
    bump = ring.trim(ring.random_poly(rng, 1) + [ring.field.from_int(1)])
    ent = [[list(p) for p in row] for row in mat.m]
    ent[a][b] = ring.add(ent[a][b], bump)
    maps = dict(gm.maps)
    maps[(i, j)] = TwistedMatrix(ring, ent, 0)
    return GammaModule(ring, list(gm.ranks), maps)
