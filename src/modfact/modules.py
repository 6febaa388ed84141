"""The k-coordinates of Lambda = A/(omega), and finitely presented modules.

A vector over A modulo omega is the deg omega residues of its entries
(residues), x acts on them by times_x, and residue_rows stacks the
residues of a map's images of x^d: the coordinates that the homotopy
engine and the chain modules read. A presentation is a generator count
g plus a relation matrix whose row space is the relation submodule of
A^g. Linearization takes the quotient of the residues by those of the
relations, M/omega M for the quotient M: a finite k-basis, coordinates,
and matrices for x and for maps given on generators. It exists when
omega kills M (check_abar): when dim_k M/omega M = dim_k M, the sum of
the pivot degrees of the relations' Hermite form, one pivot per generator.

The k-matrix helpers at the bottom (kmat_*) work over a coefficient field
and back the finite-dimensional searches in chains.py and the one
homotopy engine in homotopy.py, which solves modulo omega the A-linear
systems that matrices.term_image assembles: over the ring's field when it
is commutative, over the prime field when it is skew. One Gauss-Jordan
routine, _kmat_eliminate, runs once per call: on a copy of m for
kmat_rank, on m^T for kmat_nullspace and on [m^T | rhs^T] for kmat_solve
(X m = rhs is m^T X^T = rhs^T); kmat_inv is kmat_solve against the
identity. Answers are read off the reduced echelon form outside the
pivot columns (pivot positions, pivotless columns and the rhs part), so
they depend on the system alone: an unknown whose row of m depends on the
rows before it is 0 in a solution, and the null-space basis is the reduced
one. A k-matrix without rows does not show its width, so kmat_mul takes
the column count of its product, as mat_mul takes its shape.
"""

from .fields import json_int
from .matrices import TwistedMatrix, mat_mul, hermite_form


class NotQuotientModule(ValueError):
    pass


# -- residues: coordinates of A/(omega) --

def residues(ring, vec):
    """The residues of the entries of vec, run after run: the deg omega
    coefficients of each modulo omega, zeros included. For omega = c x^m
    (every skew omega is one) that is a truncation, since c x^m A has no
    term below x^m. For any other omega an entry is reduced by Horner's
    rule on times_x, with no division: from its top deg omega coefficients
    (all of a shorter entry, padded), each lower one c, top down, is added
    at x^0 to x times the run so far."""
    fld, m = ring.field, ring.omega_deg
    pad = [fld.zero] * m
    if ring.omega_monomial:
        return [c for p in vec for c in (p + pad)[:m]]
    out = []
    for p in vec:
        r = p[-m:] + pad[len(p):]
        for c in reversed(p[:-m]):
            r = times_x(ring, r)
            r[0] = fld.add(r[0], c)
        out += r
    return out


def times_x(ring, v):
    """x v modulo omega, v a run of residues of residues' form: twist each
    by frob^s, as x c = frob^s(c) x, and shift it up, then take away
    c w_t at x^t for each pair (t, w_t) of ring.omega_tail, c the
    coefficient pushed to x^m; nothing when c is zero or omega = c x^m."""
    fld, m, tail, s = ring.field, ring.omega_deg, ring.omega_tail, ring.sigma_power
    out = []
    for k in range(0, len(v), m):
        r, c = [fld.zero] + v[k:k + m - 1], v[k + m - 1]
        if s:
            r, c = [fld.frob(a, s) for a in r], fld.frob(c, s)
        if tail and not fld.is_zero(c):
            for t, w in tail:
                r[t] = fld.sub(r[t], fld.mul(c, w))
        out += r
    return out


def residue_rows(ring, unit_count, image):
    """The residues of image(u, x^d) for d < deg omega, u by u, each row
    the run of its entries' residues. As image(u, x^d) = x^d image(u, 1),
    a row is the one before it times x."""
    rows = []
    for u in range(unit_count):
        rows.append(residues(ring, image(u, ring.one)))
        for _ in range(1, ring.omega_deg):
            rows.append(times_x(ring, rows[-1]))
    return rows


class ModulePresentation:
    def __init__(self, ring, gens, relations):
        if gens < 0:
            raise ValueError("a presentation cannot have %d generators" % gens)
        self.ring = ring
        self.gens = gens
        self.relations = [[ring.trim(list(e)) for e in row] for row in relations]
        for row in self.relations:
            if len(row) != gens:
                raise ValueError("relation width %d does not match %d generators"
                                 % (len(row), gens))
        self._lin = None

    def __eq__(self, other):
        return (isinstance(other, ModulePresentation) and self.ring == other.ring
                and self.gens == other.gens and self.relations == other.relations)

    def linearization(self):
        if not self.check_abar():
            raise NotQuotientModule("a module is not killed by omega")
        return self._lin

    def check_abar(self):
        """Does omega kill the module? Exactly when its Linearization
        exists, which is built once, as is a failure (False)."""
        if self._lin is None:
            try:
                self._lin = Linearization(self)
            except NotQuotientModule:
                self._lin = False
        return self._lin is not False

    def to_json(self):
        rel = TwistedMatrix(self.ring, self.relations, 0,
                            len(self.relations), self.gens)
        return {"generators": self.gens, "relations": rel.to_json()}

    @staticmethod
    def from_json(ring, data):
        if "generators" not in data or "relations" not in data:
            raise ValueError("presentation needs 'generators' and 'relations'")
        rel = TwistedMatrix.from_json(ring, data["relations"])
        if rel.twist != 0:
            raise ValueError("relation matrices carry twist 0")
        gens = json_int(data["generators"], "generators")
        if rel.cols != gens:
            raise ValueError("relation width does not match the generator count")
        return ModulePresentation(ring, gens, rel.m)


class Linearization:
    """Finite k-basis of A^g / rowspace(relations), with transport matrices;
    NotQuotientModule unless omega kills the module (by dimension, above).

    _kmat_eliminate reduces the residue rows of the relations with the
    columns x^d e_j in order j up, then d down: position over term, so
    the pivotless columns x^t e_j (t < d_j for generator j) are the basis
    a Hermite form would give, and v's coordinate at column f is v[f]
    less v[p] times the pivot row of p at f, over the pivot columns p.
    """

    def __init__(self, pres):
        ring, rels = pres.ring, pres.relations
        fld, m = ring.field, ring.omega_deg
        self.ring, self.pres = ring, pres
        # x^d e_j is residue j m + d; order[f] is the one in column f
        order = [j * m + d for j in range(pres.gens) for d in reversed(range(m))]
        rows = [[r[c] for c in order]
                for r in residue_rows(ring, len(rels), lambda u, p: rels[u])]
        pivots = _kmat_eliminate(fld, rows, len(order))
        free = sorted(set(range(len(order))) - set(pivots), key=order.__getitem__)
        self.basis = [divmod(order[f], m) for f in free]
        self.dim = len(self.basis)
        h, _, piv = hermite_form(ring, rels)
        if len(piv) < pres.gens or sum(len(h[r][c]) - 1 for r, c in piv) != self.dim:
            raise NotQuotientModule("a module is not killed by omega")
        # per basis column: its residue, and (residue of p, row of p there)
        self._reduce = [(order[f], [(order[p], row[f]) for p, row in zip(pivots, rows)
                                    if not fld.is_zero(row[f])]) for f in free]

    def _coords(self, flat):
        """Coordinates of the vector whose entries have the residues flat."""
        fld = self.ring.field
        out = []
        for f, terms in self._reduce:
            a = flat[f]
            for p, c in terms:
                if not fld.is_zero(flat[p]):
                    a = fld.sub(a, fld.mul(flat[p], c))
            out.append(a)
        return out

    def encode(self, vec):
        if len(vec) != self.pres.gens:
            raise ValueError("vector length does not match generators")
        return self._coords(residues(self.ring, vec))

    def x_matrix(self):
        """Row b = coords of x * basis_b: coords(x*v) = frob^s(coords(v)) * X,
        with s the ring's sigma_power (0 when it is commutative)."""
        return self.map_matrix(self, TwistedMatrix.scalar(self.ring, self.pres.gens,
                                                          self.ring.x).m)

    def map_matrix(self, target_lin, gen_images):
        """k-matrix of the A-linear map sending e_j to row j of gen_images:
        row (j, t) holds the coordinates of x^t times row j, by times_x on
        residues, as t runs up from 0 for each j."""
        ring = self.ring
        if len(gen_images) != self.pres.gens:
            raise ValueError("one image row per generator required")
        rows = []
        for j, t in self.basis:
            v = times_x(ring, v) if t else residues(ring, gen_images[j])
            rows.append(target_lin._coords(v))
        return rows

    def map_well_defined(self, target_lin, gen_images):
        """Relations must map into the target relation space."""
        rels = self.pres.relations
        imgs = mat_mul(self.ring, rels, gen_images,
                       (len(rels), self.pres.gens, target_lin.pres.gens))
        return all(self.ring.field.is_zero(c)
                   for img in imgs for c in target_lin.encode(img))


# -- plain Gaussian elimination over the coefficient field --

def kmat_identity(fld, n):
    return [[fld.one if i == j else fld.zero for j in range(n)] for i in range(n)]


def kmat_mul(fld, a, b, cols):
    """a * b, which has cols columns, also when b has no rows to show them."""
    out = [[fld.zero] * cols for _ in a]
    for orow, arow in zip(out, a):
        for c, brow in zip(arow, b):
            if fld.is_zero(c):
                continue
            for j in range(cols):
                orow[j] = fld.add(orow[j], fld.mul(c, brow[j]))
    return out


def kmat_sub(fld, a, b):
    return [[fld.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def kmat_is_zero(fld, a):
    return all(fld.is_zero(e) for row in a for e in row)


def _kmat_eliminate(fld, m, cols):
    """Gauss-Jordan on the first cols columns of m, in place. The row
    operations run across whole rows, so columns beyond cols record them,
    but each touches only the columns after the pivot where the pivot row
    is nonzero: the pivot columns themselves are left as they were, since
    no caller reads them, and every other column is as in the reduced
    echelon form (pivots 1, alone in their columns). Returns the pivot
    columns; pivot t sits in row t and, outside the pivot columns, the rows
    below the last pivot vanish on the first cols columns."""
    rows = len(m)
    pivots = []
    top = 0
    for col in range(cols):
        sel = None
        for i in range(top, rows):
            if not fld.is_zero(m[i][col]):
                sel = i
                break
        if sel is None:
            continue
        m[top], m[sel] = m[sel], m[top]
        prow = m[top]
        inv = fld.inv(prow[col])
        nz = [j for j in range(col + 1, len(prow)) if not fld.is_zero(prow[j])]
        for j in nz:
            prow[j] = fld.mul(inv, prow[j])
        for i in range(rows):
            row = m[i]
            if i != top and not fld.is_zero(row[col]):
                c = row[col]
                for j in nz:
                    row[j] = fld.sub(row[j], fld.mul(c, prow[j]))
        pivots.append(col)
        top += 1
        if top == rows:
            break
    return pivots


def kmat_rank(fld, m):
    work = [list(r) for r in m]
    return len(_kmat_eliminate(fld, work, len(m[0]) if m else 0))


def kmat_solve(fld, m, rhs):
    """X with X * m = rhs over the field, or None. One output row per rhs
    row: pivot t takes row t's rhs entries, the other unknowns are 0."""
    rows = len(m)
    cols = len(m[0]) if m else (len(rhs[0]) if rhs else 0)
    if any(len(brow) != cols for brow in rhs):
        raise ValueError("rhs width mismatch")
    aug = [list(col) for col in zip(*m, *rhs)]
    pivots = _kmat_eliminate(fld, aug, rows)
    if any(not fld.is_zero(e) for row in aug[len(pivots):] for e in row[rows:]):
        return None
    out = [[fld.zero] * rows for _ in rhs]
    for row, u in zip(aug, pivots):
        for xrow, e in zip(out, row[rows:]):
            xrow[u] = e
    return out


def kmat_nullspace(fld, m):
    """Basis of rows v with v * m = 0: one per pivotless column f of the
    reduced m^T, 1 at f, -(row t at f) at pivot t, 0 elsewhere."""
    rows = len(m)
    red = [list(col) for col in zip(*m)]
    pivots = _kmat_eliminate(fld, red, rows)
    basis = []
    for f in sorted(set(range(rows)) - set(pivots)):
        v = [fld.zero] * rows
        v[f] = fld.one
        for row, u in zip(red, pivots):
            v[u] = fld.neg(row[f])
        basis.append(v)
    return basis


def kmat_inv(fld, m):
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("inverse of a non-square matrix")
    return kmat_solve(fld, m, kmat_identity(fld, n))

