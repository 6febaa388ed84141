"""Finitely presented modules over the base ring and their k-linear shadows.

A presentation is a generator count g plus a relation matrix whose row
space is the relation submodule of A^g. When the quotient is killed by
omega it can be linearized: the Hermite form of the relations yields a
canonical normal form for cosets, a finite k-basis, and matrices for the
x-action and for any A-linear map given on generators.

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
from .matrices import TwistedMatrix, hermite_form, mat_mul


class NotQuotientModule(ValueError):
    pass


class ModulePresentation:
    def __init__(self, ring, gens, relations):
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
        if self._lin is None:
            self._lin = Linearization(self)
        return self._lin

    def check_abar(self):
        """omega * e_j must lie in the relation row space for every generator."""
        lin = self.linearization()
        ring = self.ring
        for j in range(self.gens):
            v = [list(ring.omega) if jj == j else [] for jj in range(self.gens)]
            if any(lin.normal_form(v)):
                return False
        return True

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
    """Finite k-basis of A^g / rowspace(relations), with transport matrices.

    Requires every generator direction to be torsion (each column of the
    Hermite form pivotal); otherwise the quotient is not finite dimensional
    over k and NotQuotientModule is raised.
    """

    def __init__(self, pres):
        ring = pres.ring
        self.ring = ring
        self.pres = pres
        h, _, pivots = hermite_form(ring, pres.relations) if pres.relations else ([], [], [])
        if len(pivots) < pres.gens:
            raise NotQuotientModule(
                "quotient is not omega-torsion (free direction present)")
        # pivots fill all columns, so rows 0..g-1 of h are upper triangular
        self.h = [h[i] for i in range(pres.gens)]
        self.pivot_deg = [len(self.h[j][j]) - 1 for j in range(pres.gens)]
        self.basis = [(j, t) for j in range(pres.gens) for t in range(self.pivot_deg[j])]
        self.dim = len(self.basis)

    def normal_form(self, vec):
        """Canonical coset representative: degree at column j below pivot_deg[j]."""
        ring = self.ring
        v = [ring.trim(list(e)) for e in vec]
        if len(v) != self.pres.gens:
            raise ValueError("vector length does not match generators")
        for j in range(self.pres.gens):
            if len(v[j]) > self.pivot_deg[j]:
                q, _ = ring.right_quo_rem(v[j], self.h[j][j])
                for jj in range(j, self.pres.gens):
                    if self.h[j][jj]:
                        v[jj] = ring.sub(v[jj], ring.mul(q, self.h[j][jj]))
        return v

    def encode(self, vec):
        fld = self.ring.field
        nf = self.normal_form(vec)
        out = []
        for (j, t) in self.basis:
            out.append(nf[j][t] if t < len(nf[j]) else fld.zero)
        return out

    def decode(self, coords):
        fld = self.ring.field
        v = [[] for _ in range(self.pres.gens)]
        for c, (j, t) in zip(coords, self.basis):
            poly = v[j]
            while len(poly) <= t:
                poly.append(fld.zero)
            poly[t] = fld.add(poly[t], c)
        return [self.ring.trim(p) for p in v]

    def x_matrix(self):
        """Row b = coords of x * basis_b.

        Commutative: coords(x*v) = coords(v) * X. Skew: the x-action is
        frobenius-semilinear, coords(x*v) = frob^s(coords(v)) * X with s
        the ring's sigma_power.
        """
        ring = self.ring
        rows = []
        for (j, t) in self.basis:
            v = [[] for _ in range(self.pres.gens)]
            v[j] = [ring.field.zero] * (t + 1) + [ring.field.one]
            rows.append(self.encode(v))
        return rows

    def map_matrix(self, target_lin, gen_images):
        """k-matrix of the A-linear map sending e_j to row j of gen_images."""
        ring = self.ring
        if len(gen_images) != self.pres.gens:
            raise ValueError("one image row per generator required")
        rows = []
        for (j, t) in self.basis:
            img = [ring.mul(ring.x_power(t), e) if e else [] for e in gen_images[j]]
            rows.append(target_lin.encode(img))
        return rows

    def map_well_defined(self, target_lin, gen_images):
        """Relations must map into the target relation space."""
        ring = self.ring
        shape = (1, self.pres.gens, target_lin.pres.gens)
        for rel in self.pres.relations:
            img = mat_mul(ring, [rel], gen_images, shape)[0]
            if any(target_lin.normal_form(img)):
                return False
        return True


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

