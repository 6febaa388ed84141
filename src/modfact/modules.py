"""Finitely presented modules over the base ring and their k-linear shadows.

A presentation is a generator count g plus a relation matrix whose row
space is the relation submodule of A^g. When the quotient is killed by
omega it can be linearized: the Hermite form of the relations yields a
canonical normal form for cosets, a finite k-basis, and matrices for the
x-action and for any A-linear map given on generators.

The k-matrix helpers at the bottom (kmat_*) work over a coefficient field
and back the finite-dimensional searches in chains.py and the skew solver
modulo omega in homotopy.py, which solves over the prime field the A-linear
systems that matrices.term_image assembles. One Gauss-Jordan routine, _kmat_eliminate,
does all their elimination: kmat_rank runs it on a copy of the matrix,
kmat_solve and kmat_nullspace on the matrix with an identity beside it,
which records the row transform, and kmat_inv is kmat_solve against the
identity.
"""

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
        if rel.cols != int(data["generators"]):
            raise ValueError("relation width does not match the generator count")
        return ModulePresentation(ring, int(data["generators"]), rel.m)


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
        self.index = {bt: i for i, bt in enumerate(self.basis)}
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
        for rel in self.pres.relations:
            img = mat_mul(ring, [rel], gen_images)[0]
            if any(target_lin.normal_form(img)):
                return False
        return True


# -- plain Gaussian elimination over the coefficient field --

def kmat_identity(fld, n):
    return [[fld.one if i == j else fld.zero for j in range(n)] for i in range(n)]


def kmat_mul(fld, a, b):
    if not a:
        return []
    if not b:
        return [[] for _ in a]
    cb = len(b[0])
    out = [[fld.zero] * cb for _ in a]
    for i, arow in enumerate(a):
        orow = out[i]
        for k, c in enumerate(arow):
            if fld.is_zero(c):
                continue
            brow = b[k]
            for j in range(cb):
                orow[j] = fld.add(orow[j], fld.mul(c, brow[j]))
    return out


def kmat_sub(fld, a, b):
    return [[fld.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def kmat_is_zero(fld, a):
    return all(fld.is_zero(e) for row in a for e in row)


def _kmat_eliminate(fld, m, cols):
    """Gauss-Jordan on the first cols columns of m, in place: every pivot
    is 1, alone in its column, and the row operations run across whole
    rows, so columns beyond cols record them. Returns the pivot columns;
    pivot t sits in row t and the rows below the last pivot vanish on the
    first cols columns."""
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
        inv = fld.inv(m[top][col])
        m[top] = [fld.mul(inv, e) for e in m[top]]
        for i in range(rows):
            if i != top and not fld.is_zero(m[i][col]):
                c = m[i][col]
                m[i] = [fld.sub(a, fld.mul(c, b)) for a, b in zip(m[i], m[top])]
        pivots.append(col)
        top += 1
        if top == rows:
            break
    return pivots


def _with_identity(fld, m):
    """[m | I]: eliminating the m part leaves the row transform beside it."""
    rows = len(m)
    return [list(m[i]) + [fld.one if j == i else fld.zero for j in range(rows)]
            for i in range(rows)]


def kmat_rank(fld, m):
    work = [list(r) for r in m]
    return len(_kmat_eliminate(fld, work, len(m[0]) if m else 0))


def kmat_solve(fld, m, rhs):
    """X with X * m = rhs over the field, or None. One output row per rhs row."""
    rows = len(m)
    cols = len(m[0]) if m else (len(rhs[0]) if rhs else 0)
    aug = _with_identity(fld, m)
    piv_of_col = {c: r for r, c in enumerate(_kmat_eliminate(fld, aug, cols))}
    out = []
    for brow in rhs:
        if len(brow) != cols:
            raise ValueError("rhs width mismatch")
        resid = list(brow)
        y = [fld.zero] * rows
        for col in range(cols):
            if fld.is_zero(resid[col]):
                continue
            r = piv_of_col.get(col)
            if r is None:
                return None
            c = resid[col]
            y[r] = c
            resid = [fld.sub(a, fld.mul(c, b)) for a, b in zip(resid, aug[r][:cols])]
        if any(not fld.is_zero(e) for e in resid):
            return None
        # y are coordinates in the echelon rows; pull back through the transform
        xrow = [fld.zero] * rows
        for r, c in enumerate(y):
            if fld.is_zero(c):
                continue
            for j in range(rows):
                xrow[j] = fld.add(xrow[j], fld.mul(c, aug[r][cols + j]))
        out.append(xrow)
    return out


def kmat_nullspace(fld, m):
    """Basis of rows v with v * m = 0."""
    cols = len(m[0]) if m else 0
    aug = _with_identity(fld, m)
    rank = len(_kmat_eliminate(fld, aug, cols))
    return [row[cols:] for row in aug[rank:]]


def kmat_inv(fld, m):
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("inverse of a non-square matrix")
    sol = kmat_solve(fld, m, kmat_identity(fld, n))
    return sol


# -- prime-subfield flattening (for semilinear systems) --

def prime_coords(fld, a):
    """Coordinates of a field element over the prime subfield F_p."""
    if getattr(fld, "kind", None) == "finite":
        return [c % fld.p for c in a]
    if getattr(fld, "kind", None) == "prime":
        return [a % fld.p]
    raise ValueError("prime flattening needs a finite field")


def from_prime_coords(fld, coords):
    if getattr(fld, "kind", None) == "finite":
        return tuple(c % fld.p for c in coords)
    if getattr(fld, "kind", None) == "prime":
        return coords[0] % fld.p
    raise ValueError("prime flattening needs a finite field")


def prime_degree(fld):
    return getattr(fld, "e", 1)
