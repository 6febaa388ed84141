"""The coordinates of Lambda = A/(omega), and finitely presented modules.

A vector over A modulo omega is the deg omega residues of its entries
(residues), x acts on them by times_x, and residue_rows stacks the
residues of a map's images of x^d. Their coordinates are over the ring's
coordinate_field: k on a commutative ring; F_p on a skew one, where each
F_{p^e} residue splits into its e coordinates (coordinates; polys reads
polynomials back). linear_system hands the homotopy engine (homotopy.py)
the field it solves over and the rows of a matrices.TermImage map modulo
omega, on every ring: residue_rows when the ring is commutative, rows
written in F_p coordinates straight from the term table when it is skew.
A presentation is a generator count g plus a twist-0 TwistedMatrix of
relations, kept without a copy, whose row space is the relation
submodule of A^g. Linearization takes the quotient
of the residues by those of the relations, M/omega M for the quotient M:
a finite k-basis, coordinates, and matrices for x and for maps given on
generators. It exists when omega kills M (check_abar): when dim_k M/omega
M = dim_k M, the sum of the pivot degrees of the relations' Hermite form,
one pivot per generator.

The k-matrix helpers at the bottom (kmat_*) work over a coefficient field
and back the finite-dimensional searches in chains.py and the one
homotopy engine in homotopy.py, which solves the rows of linear_system.
One Gauss-Jordan routine, _kmat_eliminate, runs once per call: on a copy
of m for kmat_rank, on m^T for kmat_nullspace and on [m^T | rhs^T] for
kmat_solve (X m = rhs is m^T X^T = rhs^T); kmat_inv is kmat_solve
against the identity. Answers are read off the reduced echelon form outside the
pivot columns (pivot positions, pivotless columns and the rhs part), so
they depend on the system alone: an unknown whose row of m depends on the
rows before it is 0 in a solution, and the null-space basis is the reduced
one. A k-matrix without rows does not show its width, so kmat_mul takes
the column count of its product, as mat_mul takes its shape.

The kernels take canonical elements (fields.py), as every TwistedMatrix,
ring operation and decoder makes them: then an entry is zero exactly
when it equals fld.zero, and _kmat_eliminate and kmat_is_zero test it
so, with no is_zero call. On F_p _kmat_eliminate also updates a row by
(a - c b) % p inline, with no field method call per entry.
"""

from .fields import json_int
from .matrices import TwistedMatrix, hermite_form


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


def coordinates(ring, vec):
    """The coordinates of vec modulo omega over ring.coordinate_field: its
    residues, each split on a skew ring into the e coordinates over F_p
    of the tuple that stores it (fields.py)."""
    res = residues(ring, vec)
    return res if ring.commutative else [a for c in res for a in c]


def polys(ring, flat):
    """The trimmed polynomials of degree below deg omega whose coordinates
    are flat, one per run: the inverse of coordinates on them."""
    if not ring.commutative:
        e = ring.field.e
        flat = [tuple(flat[k:k + e]) for k in range(0, len(flat), e)]
    m = ring.omega_deg
    return [ring.trim(flat[k:k + m]) for k in range(0, len(flat), m)]


def linear_system(ring, image):
    """(field, rows): the rows of the matrices.TermImage image modulo
    omega, over ring.coordinate_field, which it is solved over. Row (u, d),
    and on a skew ring (u, d, k), holds the coordinates of image(u, x^d)
    or of image(u, c_k x^d), d < deg omega and c_k the k-th unit vector
    of F_q = F_{p^e} over F_p, in that order.

    A commutative ring gives its field and residue_rows. On a skew ring
    omega = c x^m, so a residue is the product truncated below x^m, and
    each row is written in F_p coordinates straight from the term table:
    with slots[u] = (k, a, b), a term (o, L, R, t) of block k adds, for
    each coefficient l_i x^i of an entry of L in column a and r_j x^j of
    an entry of R in row b with i + d + j < m,
    l_i frob^{s i + auto t}(c_k) frob^{s (i + d)}(r_j) at x^{i+d+j}, as
    x^i c = frob^{s i}(c) x^i and sigma^t(c x^d) = frob^{auto t}(c) x^d,
    s the ring's sigma_power and auto its auto_power. Coordinates over
    F_p add componentwise modulo p, so each product's e coordinates are
    added into the row as it is made."""
    if ring.commutative:
        return ring.coordinate_field, residue_rows(ring, len(image.slots), image)
    fld, m, s, auto = ring.field, ring.omega_deg, ring.sigma_power, ring.auto_power
    e, p, zero, one = fld.e, fld.p, fld.zero, fld.one
    twisted = fld.twisted_units
    width = image.total * m * e
    rows = []
    for kb, a, b in image.slots:
        # rows d e to d e + e - 1 are those of x^d
        block = [[0] * width for _ in range(m * e)]
        for o, left, right, t in image.terms[kb]:
            pos, cols = image.offsets[o]
            rrow = right[b]
            for lrow in left:
                for i, li in enumerate(lrow[a][:m]):
                    if li == zero:
                        continue
                    us = twisted[(s * i + auto * t) % e]
                    for v, r in enumerate(rrow, pos):
                        for j, rj in enumerate(r[:m - i]):
                            if rj == zero:
                                continue
                            at = (v * m + i + j) * e
                            for d in range(m - i - j):
                                k = s * (i + d) % e
                                c = fld.frob(rj, k) if k else rj
                                if li != one:
                                    c = fld.mul(li, c)
                                for row, w in zip(block[d * e:d * e + e], us):
                                    cw = c if w == one else fld.mul(c, w)
                                    for z, cz in enumerate(cw, at + d * e):
                                        if cz:
                                            row[z] = (row[z] + cz) % p
                pos += cols
        rows += block
    return ring.coordinate_field, rows


class ModulePresentation:
    def __init__(self, ring, gens, relations):
        if relations.twist != 0:
            raise ValueError("relation matrices carry twist 0")
        if relations.cols != gens:
            raise ValueError("relation width does not match the generator count")
        if relations.ring != ring:
            raise ValueError("relations live over a different ring")
        if gens < 0:
            raise ValueError("a presentation cannot have %d generators" % gens)
        self.ring = ring
        self.gens = gens
        self.relations = relations
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
        return {"generators": self.gens, "relations": self.relations.to_json()}

    @staticmethod
    def from_json(ring, data):
        if "generators" not in data or "relations" not in data:
            raise ValueError("presentation needs 'generators' and 'relations'")
        rel = TwistedMatrix.from_json(ring, data["relations"])
        return ModulePresentation(ring, json_int(data["generators"], "generators"), rel)


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
        ring, rels = pres.ring, pres.relations.m
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
                                                          self.ring.x))

    def map_matrix(self, target_lin, gen_images):
        """k-matrix of the A-linear map sending e_j to row j of the
        TwistedMatrix gen_images: row (j, t) holds the coordinates of x^t
        times row j, by times_x on residues, as t runs up from 0 for each j."""
        ring = self.ring
        if gen_images.rows != self.pres.gens:
            raise ValueError("one image row per generator required")
        rows = []
        for j, t in self.basis:
            v = times_x(ring, v) if t else residues(ring, gen_images.m[j])
            rows.append(target_lin._coords(v))
        return rows

    def map_well_defined(self, target_lin, gen_images):
        """Relations must map into the target relation space."""
        imgs = self.pres.relations.then(gen_images)
        return all(self.ring.field.is_zero(c)
                   for img in imgs.m for c in target_lin.encode(img))


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
    """Is every entry of the rows a (any iterable of them) zero?"""
    zero = fld.zero
    return all(e == zero for row in a for e in row)


def _kmat_eliminate(fld, m, cols):
    """Gauss-Jordan on the first cols columns of m, in place. The row
    operations run across whole rows, so columns beyond cols record them,
    but each touches only the columns after the pivot where the pivot row
    is nonzero: the pivot columns themselves are left as they were, since
    no caller reads them, and every other column is as in the reduced
    echelon form (pivots 1, alone in their columns). Returns the pivot
    columns; pivot t sits in row t and, outside the pivot columns, the rows
    below the last pivot vanish on the first cols columns.

    An entry is tested for zero by comparison with fld.zero, and on F_p a
    row update is (a - c b) % p inline; elsewhere it is the field's sub
    and mul."""
    zero = fld.zero
    p = fld.p if fld.kind == "prime" else 0
    mul, sub = fld.mul, fld.sub
    rows = len(m)
    pivots = []
    top = 0
    for col in range(cols):
        sel = None
        for i in range(top, rows):
            if m[i][col] != zero:
                sel = i
                break
        if sel is None:
            continue
        m[top], m[sel] = m[sel], m[top]
        prow = m[top]
        inv = fld.inv(prow[col])
        nz = [j for j in range(col + 1, len(prow)) if prow[j] != zero]
        for j in nz:
            prow[j] = mul(inv, prow[j])
        for i in range(rows):
            row = m[i]
            c = row[col]
            if i == top or c == zero:
                continue
            if p:
                for j in nz:
                    row[j] = (row[j] - c * prow[j]) % p
            else:
                for j in nz:
                    row[j] = sub(row[j], mul(c, prow[j]))
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
    if not kmat_is_zero(fld, (row[rows:] for row in aug[len(pivots):])):
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

