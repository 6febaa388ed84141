"""Twist-tagged matrices over the base ring and exact echelon algebra.

A TwistedMatrix (M, t) encodes the module map v |-> sigma^t(v) * M on row
vectors, i.e. a morphism A^r -> twisted^t(A^c). Composites accumulate
twists: doing (M, s) then (N, t) gives (sigma^t(M) * N, s + t). All the
factorization axioms downstream are stated through this one rule.

The raw helpers at the bottom (hermite_form, solve_right, smith_form)
work on bare coefficient-list matrices. Hermite reduction only
uses left row operations and right division of entries, so it is valid
over the skew instances as well; Smith form raises UnsupportedRingError
there.
TermImage assembles every A-linear system that the homotopy deciders,
HomSpace, stable_hom and the chain-map space of chains.py solve: each is
a sum of terms L sigma^t(X_k) R in unknown blocks X_k, built entry by
entry as outer products.
"""

from .fields import json_int
from .rings import UnsupportedRingError


class TwistedMatrix:
    """The map v |-> sigma^twist(v) * m on row vectors, m a rows x cols
    grid of polynomials.

    A TwistedMatrix and its entry lists are never mutated after
    construction, so they may be shared. The constructor copies and
    trims the entries it is given, reducing F_p coefficients mod p, so
    every coefficient it holds is canonical (fields.py); identity, zero, add, sub, then,
    sigma_entries and from_json build their grids fresh and take them
    without a copy (_wrap), with_twist shares its grid, and sigma_entries
    returns self when sigma^power is the identity. Factorization.compose_range
    memoizes on this contract, the shift, face and degeneracy functors
    share the maps and arcs they are built from, homotopy.py's counits
    share the grids and rows of the arcs they are read off, and
    chains.cok0 shares the maps and arcs of its factorization.
    """

    __slots__ = ("ring", "rows", "cols", "twist", "m")

    def __init__(self, ring, entries, twist=0, rows=None, cols=None):
        self.ring = ring
        self.twist = twist
        if rows is None:
            rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        self.rows = rows
        self.cols = cols
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("ragged entries for a %dx%d matrix" % (rows, cols))
        # an F_p coefficient enters reduced mod p: the k-linear kernels
        # (modules.py) test zero by comparison and need canonical elements
        if ring.field.kind == "prime":
            p = ring.field.p
            self.m = [[ring.trim([c % p for c in e]) for e in row] for row in entries]
        else:
            self.m = [[ring.trim(list(e)) for e in row] for row in entries]

    # -- constructors --

    @staticmethod
    def identity(ring, n, twist=0):
        return TwistedMatrix._wrap(ring, mat_identity(ring, n), twist, n, n)

    @staticmethod
    def zero(ring, rows, cols, twist=0):
        return TwistedMatrix._wrap(ring, [[[] for _ in range(cols)] for _ in range(rows)],
                                   twist, rows, cols)

    @staticmethod
    def scalar(ring, n, poly, twist=0):
        m = [[list(poly) if i == j else [] for j in range(n)] for i in range(n)]
        return TwistedMatrix(ring, m, twist, n, n)

    @staticmethod
    def omega_identity(ring, n):
        """omega * I at twist 1, the canonical endomorphism of A^n into its twist."""
        return TwistedMatrix.scalar(ring, n, ring.omega, 1)

    @staticmethod
    def _wrap(ring, entries, twist, rows, cols):
        """A matrix that takes entries as they are: fresh trimmed lists,
        as mat_mul, ring.add and ring.sub make, which need no copy."""
        out = object.__new__(TwistedMatrix)
        out.ring, out.m, out.twist, out.rows, out.cols = ring, entries, twist, rows, cols
        return out

    # -- structure --

    def with_twist(self, twist):
        """The same grid, shared, at the given twist."""
        return TwistedMatrix._wrap(self.ring, self.m, twist, self.rows, self.cols)

    def __eq__(self, other):
        return (isinstance(other, TwistedMatrix) and self.ring == other.ring
                and self.rows == other.rows and self.cols == other.cols
                and self.twist == other.twist and self.m == other.m)

    def __repr__(self):
        body = "; ".join(", ".join(self.ring.pretty(e) for e in row) for row in self.m)
        return "<%dx%d @%d [%s]>" % (self.rows, self.cols, self.twist, body)

    def is_zero(self):
        return all(not e for row in self.m for e in row)

    # -- arithmetic --

    def add(self, other):
        self._check_shape(other)
        r = self.ring
        m = [[r.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.m, other.m)]
        return TwistedMatrix._wrap(r, m, self.twist, self.rows, self.cols)

    def sub(self, other):
        self._check_shape(other)
        r = self.ring
        m = [[r.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.m, other.m)]
        return TwistedMatrix._wrap(r, m, self.twist, self.rows, self.cols)

    def neg(self):
        r = self.ring
        return TwistedMatrix(r, [[r.neg(e) for e in row] for row in self.m],
                             self.twist, self.rows, self.cols)

    def _check_shape(self, other):
        if (self.rows, self.cols, self.twist) != (other.rows, other.cols, other.twist):
            raise ValueError("shape/twist mismatch: %dx%d@%d vs %dx%d@%d"
                             % (self.rows, self.cols, self.twist,
                                other.rows, other.cols, other.twist))

    def scale_left(self, poly):
        r = self.ring
        return TwistedMatrix(r, [[r.mul(poly, e) for e in row] for row in self.m],
                             self.twist, self.rows, self.cols)

    def sigma_entries(self, power=1):
        """Entrywise application of the induced automorphism sigma^power;
        twist unchanged. When sigma^power is the identity, as on every
        commutative ring, that is self itself, not a copy."""
        r = self.ring
        if not r.auto_power * power % r.field.e:
            return self
        return TwistedMatrix._wrap(r, [[r.apply_sigma(e, power) for e in row]
                                       for row in self.m],
                                   self.twist, self.rows, self.cols)

    def then(self, other):
        """Composite: self first, then other. Twists add."""
        ring = self.ring
        if ring is not other.ring and ring != other.ring:
            raise ValueError("composite across different rings")
        if self.cols != other.rows:
            raise ValueError("composite shape mismatch: %dx%d then %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        # sigma is the identity when the ring's auto_power is 0
        twisted = other.twist and ring.auto_power
        left = self.sigma_entries(other.twist).m if twisted else self.m
        prod = mat_mul(ring, left, other.m, (self.rows, self.cols, other.cols))
        return TwistedMatrix._wrap(ring, prod, self.twist + other.twist,
                                   self.rows, other.cols)

    def apply(self, vec):
        """Image of a row vector: sigma^twist(vec) * M."""
        r = self.ring
        if len(vec) != self.rows:
            raise ValueError("vector length %d does not match %d rows" % (len(vec), self.rows))
        tv = [r.apply_sigma(v, self.twist) for v in vec]
        out = []
        for j in range(self.cols):
            acc = []
            for i in range(self.rows):
                acc = r.add(acc, r.mul(tv[i], self.m[i][j]))
            out.append(acc)
        return out

    # -- blocks --

    @staticmethod
    def direct_sum(ring, blocks, twist=None):
        if twist is None:
            twist = blocks[0].twist if blocks else 0
        for b in blocks:
            if b.twist != twist:
                raise ValueError("direct sum needs equal twists")
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        m = [[[] for _ in range(cols)] for _ in range(rows)]
        ro = co = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    m[ro + i][co + j] = b.m[i][j]
            ro += b.rows
            co += b.cols
        return TwistedMatrix(ring, m, twist, rows, cols)

    # -- JSON --

    def to_json(self):
        r = self.ring
        return {"rows": self.rows, "cols": self.cols, "twist": self.twist,
                "entries": [[r.poly_to_json(e) for e in row] for row in self.m]}

    @staticmethod
    def from_json(ring, data):
        for key in ("rows", "cols", "twist", "entries"):
            if key not in data:
                raise ValueError("matrix object is missing %r" % key)
        rows, cols = json_int(data["rows"], "rows"), json_int(data["cols"], "cols")
        if rows < 0 or cols < 0:
            raise ValueError("a matrix cannot be %dx%d" % (rows, cols))
        entries = data["entries"]
        if len(entries) != rows or any(len(row) != cols for row in entries):
            raise ValueError("entry grid does not match the declared %dx%d shape" % (rows, cols))
        # poly_from_json returns fresh trimmed lists, and the grid has the
        # shape just checked, so it needs no copy
        m = [[ring.poly_from_json(e) for e in row] for row in entries]
        return TwistedMatrix._wrap(ring, m, json_int(data["twist"], "twist"), rows, cols)


# -- raw matrices: bare lists of coefficient-list polynomials --

def mat_mul(ring, a, b, shape=None):
    """The product a*b. A matrix without rows does not show its width, so a
    caller that knows (rows of a, cols of a, cols of b) passes them as shape."""
    if shape is None:
        ra, ca = len(a), len(a[0]) if a else 0
        rb, cb = len(b), len(b[0]) if b else 0
        if ca != rb:
            raise ValueError("matrix product shape mismatch")
    else:
        ra, ca, cb = shape
    out = [[[] for _ in range(cb)] for _ in range(ra)]
    for i in range(ra):
        arow = a[i]
        for k in range(ca):
            f = arow[k]
            if not f:
                continue
            brow = b[k]
            orow = out[i]
            for j in range(cb):
                if brow[j]:
                    prod = ring.mul(f, brow[j])
                    orow[j] = ring.add(orow[j], prod) if orow[j] else prod
    return out


def block_slots(blocks):
    """The unknowns (k, a, b) of the blocks (k, rows, cols), block by block
    in the given order, each block row-major."""
    return [(k, a, b) for k, rows, cols in blocks
            for a in range(rows) for b in range(cols)]


class TermImage:
    """image(u, poly) of the map X |-> sum of L sigma^t(X_k) R over terms.

    slots[u] = (k, a, b) is entry (a, b) of the unknown block X_k, and
    terms[k] lists the (o, L, R, t) by which X_k reaches output block o.
    The output is the blocks (o, rows, cols) of outs flattened in that
    order, each row-major: block o starts at entry offsets[o][0] and has
    offsets[o][1] columns, and there are total entries. An X_k whose one
    nonzero entry is p at (a, b) adds, for each of its terms, the outer
    product of column a of L, sigma^t(p) and row b of R to block o;
    entries of L and R equal to 1, as in identity factors, multiply
    nothing. The table stays readable, for modules.linear_system.
    """

    def __init__(self, ring, outs, terms, slots):
        self.ring, self.terms, self.slots = ring, terms, slots
        self.offsets = {}
        total = 0
        for o, rows, cols in outs:
            self.offsets[o] = (total, cols)
            total += rows * cols
        self.total = total

    def __call__(self, u, poly):
        ring, offsets = self.ring, self.offsets
        one = ring.one
        twisted = ring.auto_power
        k, a, b = self.slots[u]
        vec = [[]] * self.total
        for o, left, right, t in self.terms[k]:
            pos, width = offsets[o]
            p = ring.apply_sigma(poly, t) if twisted else poly
            row = right[b]
            for lrow in left:
                if lrow[a]:
                    lp = p if lrow[a] == one else ring.mul(lrow[a], p)
                    for v, q in enumerate(row, pos):
                        if q:
                            prod = lp if q == one else ring.mul(lp, q)
                            vec[v] = ring.add(vec[v], prod) if vec[v] else prod
                pos += width
        return vec


def mat_identity(ring, n):
    return [[list(ring.one) if i == j else [] for j in range(n)] for i in range(n)]


def mat_copy(m):
    return [[list(e) for e in row] for row in m]


def _row_sub_scaled(ring, target, q, source):
    # target -= q * source, q multiplying from the left
    for j in range(len(target)):
        if source[j]:
            target[j] = ring.sub(target[j], ring.mul(q, source[j]))


def hermite_form(ring, mat):
    """Row echelon over A by left row operations.

    Returns (h, u, pivots) with u * mat = h, u invertible, pivot entries
    monic, entries above each pivot reduced below the pivot degree, zero
    rows at the bottom. pivots is the list of (row, col) pairs.
    Deterministic: candidate rows are chosen by lowest degree, then lowest
    row index. Valid over the skew instances (only right division of
    entries by entries is used).
    """
    h = mat_copy(mat)
    rows = len(h)
    cols = len(h[0]) if h else 0
    u = mat_identity(ring, rows)
    pivots = []
    top = 0
    for col in range(cols):
        while True:
            cand = [i for i in range(top, rows) if h[i][col]]
            if not cand:
                break
            best = min(cand, key=lambda i: (len(h[i][col]), i))
            others = [i for i in cand if i != best]
            if not others:
                if best != top:
                    h[top], h[best] = h[best], h[top]
                    u[top], u[best] = u[best], u[top]
                break
            for i in others:
                q, _ = ring.right_quo_rem(h[i][col], h[best][col])
                _row_sub_scaled(ring, h[i], q, h[best])
                _row_sub_scaled(ring, u[i], q, u[best])
            # degrees strictly drop somewhere each pass, so this terminates
        if top < rows and h[top][col]:
            lead = h[top][col]
            if lead != ring.one:
                c = ring.field.inv(ring.lc(lead))
                h[top] = [ring.scale(c, e) for e in h[top]]
                u[top] = [ring.scale(c, e) for e in u[top]]
            for i in range(top):
                if h[i][col] and len(h[i][col]) >= len(h[top][col]):
                    q, _ = ring.right_quo_rem(h[i][col], h[top][col])
                    _row_sub_scaled(ring, h[i], q, h[top])
                    _row_sub_scaled(ring, u[i], q, u[top])
            pivots.append((top, col))
            top += 1
            if top == rows:
                break
    return h, u, pivots


def solve_right(ring, mat, rhs):
    """X with X * mat = rhs, writing the rows of rhs as left combinations of
    the rows of mat. Returns None when no exact solution exists."""
    h, u, pivots = hermite_form(ring, mat)
    cols = len(mat[0]) if mat else 0
    piv_of_col = {c: r for (r, c) in pivots}
    xs = []
    for brow in rhs:
        if len(brow) != cols:
            raise ValueError("rhs width mismatch")
        resid = [list(e) for e in brow]
        y = [[] for _ in range(len(h))]
        for col in range(cols):
            if not resid[col]:
                continue
            r = piv_of_col.get(col)
            if r is None:
                return None
            q, rem = ring.right_quo_rem(resid[col], h[r][col])
            if rem:
                return None
            y[r] = q
            _row_sub_scaled(ring, resid, q, h[r])
        if any(resid[c] for c in range(cols)):
            return None
        xs.append(y)
    if not xs:
        return []
    # X = Y * U
    return mat_mul(ring, xs, u)


def _col_sub_scaled(ring, m, j, src, q):
    # column j -= column src * q (q on the right)
    for row in m:
        if row[src]:
            row[j] = ring.sub(row[j], ring.mul(row[src], q))


def smith_form(ring, mat):
    """Diagonalization d = u * mat * v over a commutative ring.

    Returns (d, u, v, v_inv) with monic invariant factors in ascending
    divisibility order on the diagonal. Commutative only.
    """
    if not ring.commutative:
        raise UnsupportedRingError("smith form requires the commutative case")
    d = mat_copy(mat)
    rows = len(d)
    cols = len(d[0]) if d else 0
    u = mat_identity(ring, rows)
    v = mat_identity(ring, cols)
    v_inv = mat_identity(ring, cols)

    def col_op(j, src, q):
        _col_sub_scaled(ring, d, j, src, q)
        _col_sub_scaled(ring, v, j, src, q)
        # inverse op on v_inv acts by rows: row src += q * row j
        for jj in range(cols):
            if v_inv[j][jj]:
                v_inv[src][jj] = ring.add(v_inv[src][jj], ring.mul(q, v_inv[j][jj]))

    def col_swap(a, b):
        for row in d:
            row[a], row[b] = row[b], row[a]
        for row in v:
            row[a], row[b] = row[b], row[a]
        v_inv[a], v_inv[b] = v_inv[b], v_inv[a]

    t = 0
    while t < rows and t < cols:
        # find a nonzero entry of minimal degree in the remaining block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] and (best is None or len(d[i][j]) < len(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            d[t], d[bi] = d[bi], d[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            col_swap(t, bj)
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    q, rem = ring.right_quo_rem(d[i][t], d[t][t])
                    _row_sub_scaled(ring, d[i], q, d[t])
                    _row_sub_scaled(ring, u[i], q, u[t])
                    if rem:
                        d[t], d[i] = d[i], d[t]
                        u[t], u[i] = u[i], u[t]
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j]:
                    q, rem = ring.right_quo_rem(d[t][j], d[t][t])
                    col_op(j, t, q)
                    if rem:
                        col_swap(t, j)
                        dirty = True
            if not dirty and all(not d[i][t] for i in range(t + 1, rows)) \
                    and all(not d[t][j] for j in range(t + 1, cols)):
                break
        # enforce divisibility into the remaining block
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] and ring.right_quo_rem(d[i][j], d[t][t])[1]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            # add the offending row to row t and redo this corner
            for j in range(cols):
                d[t][j] = ring.add(d[t][j], d[offender][j])
            for j in range(rows):
                u[t][j] = ring.add(u[t][j], u[offender][j])
            continue
        t += 1
    # monic normalization by unit row scalings
    for i in range(min(rows, cols)):
        f = d[i][i]
        if f and ring.lc(f) != ring.field.one:
            c = ring.field.inv(ring.lc(f))
            d[i] = [ring.scale(c, e) for e in d[i]]
            u[i] = [ring.scale(c, e) for e in u[i]]
    return d, u, v, v_inv


def invariant_factors(ring, mat):
    """Monic nonunit invariant factors of the quotient by the row space.

    Zero entries (free summands) are reported as [] at the end of the list.
    """
    d, _, _, _ = smith_form(ring, mat)
    rows = len(d)
    cols = len(d[0]) if d else 0
    out = []
    free = cols - min(rows, cols)
    for i in range(min(rows, cols)):
        f = d[i][i]
        if not f:
            free += 1
        elif len(f) > 1:
            out.append(list(f))
    return out + [[] for _ in range(free)]
