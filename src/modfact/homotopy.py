"""Null-homotopy witnesses, the trivial-factorization test, and stable hom.

A witness against f: X -> Y is a tuple h^0, ..., h^{n-1} where h^i has
twist -1 and shape r_i(X) x r_{i+1}(Y) for i < n-1, and h^{n-1} has twist
0 and shape r_{n-1}(X) x r_0(Y). reconstruct_from_witness maps a witness
to the morphism it bounds; f is p-null-homotopic when it lies in the
image of that linear map.

Every map here is stated through arcs: d^{a -> b}, the composite of the
maps of a factorization from slot a forward to slot b around the cycle,
through the twisted last map when the arc passes it. f^i sums
d_X^{i -> j} h^j d_Y^{j+1 -> i} over j; a morphism into theta^i is
sigma^{-w}(d_X^{j -> i-1} lambda) at slot j, w the arc's twist; and the
counit out of theta^i(A^{r_i Y}) is d_Y^{i -> j} at slot j. Arcs are
kept in each factorization's compose_range memo: those out of one slot
are one chain of right extensions (Factorization.arc), those into one
slot one chain of left extensions (Factorization.arcs_into), and the
deciders' maps and HomSpace read both kinds at slot n-1.
reconstruct_from_witness builds no arc: it evaluates the sum as nested
sums of products by single maps.

Two independent deciders are provided. is_p_null_homotopic solves the
reconstruction formula for the witness directly. factors_through_trivials
solves for a factorization through theta^0(A^{r_0 Y}) + ... +
theta^{n-1}(A^{r_{n-1} Y}) followed by the canonical counit; homs into a
trivial object are free on one component, which makes that system linear
too. factors_through_theta0 is the same decider on the summand theta^0
alone, the smaller ideal of the cokernel correspondence: both hand
_factors_through the list of trivial summands, range(n) or [0]. Every
decider is definitive over every base ring, by one argument: omega is
normal, so a morphism lies in the image of a decider's map exactly when
it does modulo omega. _solve decides that with one linear system over a
field (the ring's own when it is commutative, F_p when it is skew) and
completes a solution by an explicit h^{n-1}. No decider takes a Hermite
form.

Every system is that of the slot n-1 component alone, because a
morphism g is fixed by g^{n-1}: every rotated composite is omega I and
A is a domain, so g^{n-1} = 0 makes g^{n-2} d_Y^{n-2} = 0, hence
g^{n-2} omega = 0 and g^{n-2} = 0, and so on around the cycle. That
component also suffices to complete: after the mod-omega solve the
remainder's top component is K omega, the witness block K d_Y^{n-1}
hits it, and the morphism left over, zero at slot n-1, is zero.

Each decider hands the engine its linear map as image(u, poly), the
slot n-1 component of the morphism that poly placed in unknown u alone
maps to. Every such map, like the HomSpace conditions and the chain-map
space of chains.py, is a sum of terms L sigma^t(X_k) R in its unknown
blocks X_k, so one assembler (matrices.TermImage) builds each image as
outer products from a table of terms read off the arcs of x and y: the
witness map (_witness_image) without running reconstruct_from_witness,
and the trivial-factorization maps (_lambda_image) without building a
trivial_hom, counit or theta per block. The engine only solves: it reads
(field, rows) from the coordinate layer of modules.py
(modules.linear_system), on every ring, and the target's coordinates and
the solution's polynomials from the same layer. Every positive answer is
rebuilt in full from the solution and compared bit for bit with f: a
witness through reconstruct_from_witness, a factorization by composing
it with the counit, which with the trivial sum is built only then, so a
negative never builds them.

stable_hom reads stable Hom off the same component modulo omega: the
HomSpace of those of morphisms modulo the rows of the witness map
(ideal='all') or the theta^0 map (ideal='theta0'). Only
HomSpace.morphism takes Hermite forms, to complete a morphism by division.
"""

from .rings import UnsupportedRingError
from .matrices import (TwistedMatrix, mat_mul, solve_right, smith_form,
                       block_slots, TermImage)
from .modules import (kmat_solve, kmat_nullspace, kmat_mul, times_x, coordinates,
                      polys, linear_system)
from .factorizations import Morphism, theta, direct_sum


# -- witnesses --

def witness_shapes(x, y):
    """Shape/twist table (rows, cols, twist) for a witness from x to y."""
    n = x.n
    out = []
    for i in range(n - 1):
        out.append((x.ranks[i], y.ranks[i + 1], -1))
    out.append((x.ranks[n - 1], y.ranks[0], 0))
    return out


def check_witness(x, y, w):
    shapes = witness_shapes(x, y)
    if len(w) != x.n:
        raise ValueError("expected %d homotopy components" % x.n)
    for i, (h, want) in enumerate(zip(w, shapes)):
        if (h.rows, h.cols, h.twist) != want:
            raise ValueError(
                "homotopy component %d must be %dx%d at twist %d, got %dx%d at twist %d"
                % ((i,) + want + (h.rows, h.cols, h.twist)))
    return w


def random_witness(rng, x, y, max_deg=2):
    ring = x.ring
    out = []
    for r, c, t in witness_shapes(x, y):
        m = [[ring.random_poly(rng, max_deg) for _ in range(c)] for _ in range(r)]
        out.append(TwistedMatrix(ring, m, t, rows=r, cols=c))
    return out


def witness_to_json(w):
    return {"components": [h.to_json() for h in w]}


def reconstruct_from_witness(x, y, w):
    """The morphism bounded by w, every component rebuilt in full.

    f^i = sum_j d_X^{i -> j} h^j d_Y^{j+1 -> i}, where d^{a -> b} is the
    arc of maps from slot a forward to slot b (Factorization.arc, the
    identity when a = b mod n); every term balances to twist 0.

    The sum is evaluated as nested sums of products by single maps, and
    no arc of x or y is built. First, for each nonzero h^j, its tails
    h^j d_Y^{j+1} ... d_Y^{j+l}, l < n, one map at a time; the tail
    landing in slot i is h^j d_Y^{j+1 -> i}. Then, with tail_j that tail
    for the slot i at hand,
    f^i = tail_i + d_X^i (tail_{i+1} + d_X^{i+1} (... + d_X^{i+n-2} tail_{i+n-1})),
    innermost first. Composites are associative and `then` adds twists,
    so each nested sum equals the arc form term by term, and `add`
    raises if two summands disagree in twist. This is still a full
    rebuild of every component from w, not a solve or a check of one
    slot: callers compare its output with f bit for bit, and that
    comparison is what verifies a witness.
    """
    check_witness(x, y, w)
    n = x.n
    tails = []
    for j, h in enumerate(w):
        chain = None
        if not h.is_zero():
            chain = [h]
            for l in range(1, n):
                chain.append(chain[-1].then(y.maps[(j + l) % n]))
        tails.append(chain)
    comps = []
    for i in range(n):
        acc = None
        for k in range(n - 1, -1, -1):
            j = (i + k) % n
            if acc is not None:
                acc = x.maps[j].then(acc)
            if tails[j] is not None:
                tail = tails[j][n - 1 - k]
                acc = tail if acc is None else tail.add(acc)
        comps.append(TwistedMatrix.zero(x.ring, x.ranks[i], y.ranks[i], 0)
                     if acc is None else acc)
    return Morphism(x, y, comps)


# -- verdicts --

class HomotopyVerdict:
    """Outcome of a null-homotopy decision.

    null is the verdict; witness reconstructs the morphism exactly when
    null holds. Every verdict is definitive: bounded is always False and
    stays as an attribute and a JSON key for readers of older reports.
    """

    bounded = False

    def __init__(self, null, witness=None):
        self.null = null
        self.witness = witness

    def __bool__(self):
        return self.null

    def __repr__(self):
        return "<null-homotopic>" if self.null else "<not null-homotopic>"

    def to_json(self):
        out = {"null_homotopic": self.null, "bounded": self.bounded}
        if self.witness is not None:
            out["witness"] = witness_to_json(self.witness)
        return out


class TrivialFactorization:
    """Outcome of the factor-through-trivials decision; g then counit = f.
    As for HomotopyVerdict, bounded is always False."""

    bounded = False

    def __init__(self, factors, g=None, counit=None, through=None):
        self.factors = factors
        self.g = g
        self.counit = counit
        self.through = through

    def __bool__(self):
        return self.factors

    def to_json(self):
        out = {"factors_through_trivials": self.factors, "bounded": self.bounded}
        if self.g is not None:
            out["into_trivial_sum"] = self.g.to_json()
            out["counit"] = self.counit.to_json()
            out["trivial_ranks"] = list(self.through.ranks)
        return out


# -- the linear-solve engine, one for every ring --
#
# image(u, poly) returns the entries of the slot n-1 component of its
# morphism, row by row.

def _solve(f, image, top):
    """Polys c_u whose morphism, sum_u of the image of c_u in unknown u,
    is f, or None, a definitive no.

    image(u, poly) is the slot n-1 component of that morphism: it must be
    additive, homogeneous over the field solved over, and map omega*A into
    entries divisible by omega. The unknowns from top on form a row-major
    r_{n-1}(x) x r_0(y) block whose image is that of the morphism
    reconstruct_from_witness bounds with that block as h^{n-1}. For a
    morphism f of factorizations the top component decides: a morphism g
    with g^{n-1} = 0 is zero, since g^{i+1} = 0 gives g^i d_Y^i = 0 by
    the square at i, so g^i omega = 0 and g^i = 0, A being a domain.

    omega is normal, so (omega) = A omega = omega A, and writing c_u =
    c_low + omega c_high with deg c_low < deg omega = m shows that f must
    be image(c_low) modulo omega: one linear system, with an unknown per
    u and per x^d below x^m, and on a skew ring per unit of F_q = F_{p^e}
    over F_p too. modules.linear_system gives the field it is solved over
    and its rows, on every ring (the ring's field when it is commutative,
    F_p when it is skew); the target's coordinates and the polynomials of
    the solution are modules.coordinates and modules.polys.

    With a solution the remainder f - image(c_low), for a morphism f, is a
    morphism with top component K omega; as d_y^{n-1} d_y^0 ... d_y^{n-2}
    = omega I, the block K d_y^{n-1} hits that component and is added to
    the top block, and the difference, a morphism with top component 0,
    is zero. Nothing is verified here: the caller rebuilds its answer in
    full from the coefficients and compares it with f.
    """
    ring = f.ring
    target = [p for row in f.components[-1].m for p in row]
    fld, rows = linear_system(ring, image)
    sol = kmat_solve(fld, rows, [coordinates(ring, target)])
    if sol is None:
        return None
    coeffs = polys(ring, sol[0])
    rest = target
    for u, poly in enumerate(coeffs):
        if poly:
            rest = [ring.sub(a, b) for a, b in zip(rest, image(u, poly))]
    r, width = f.source.ranks[-1], f.target.ranks[-1]
    k = [[ring.right_quo_rem(p, ring.omega)[0]
          for p in rest[a * width:(a + 1) * width]] for a in range(r)]
    block = mat_mul(ring, k, f.target.maps[-1].m) if r else []
    for i, p in enumerate(p for row in block for p in row):
        coeffs[top + i] = ring.add(coeffs[top + i], p)
    return coeffs


# -- decider one: solve the reconstruction formula --

def _witness_slots(x, y):
    return block_slots((j, r, c) for j, (r, c, _) in enumerate(witness_shapes(x, y)))


def _witness_image(x, y, slots):
    """image(u, poly) of reconstruct_from_witness at slot n-1, assembled
    directly.

    f^{n-1} gets exactly one summand from h^j, the composite L h^j R of
    the arcs L = d_X^{n-1 -> j} and R = d_Y^{j+1 -> n-1}. Composites are
    associative, so with t the twist of h^j and t_R that of R the summand
    is sigma^{t+t_R}(L) sigma^{t_R}(h^j) R, one term of TermImage for
    each j.
    """
    last = x.n - 1
    into = y.arcs_into(last)
    terms = []
    for j, (_, _, t) in enumerate(witness_shapes(x, y)):
        left, right = x.arc(last, j), into[(j + 1) % x.n]
        terms.append([(last, left.sigma_entries(t + right.twist).m, right.m,
                       right.twist)])
    return TermImage(x.ring, [(last, x.ranks[last], y.ranks[last])], terms, slots)


def _witness_from_coeffs(x, y, slots, coeffs):
    shapes = witness_shapes(x, y)
    ring = x.ring
    mats = [[[[] for _ in range(c)] for _ in range(r)] for r, c, _ in shapes]
    for (j, a, b), poly in zip(slots, coeffs):
        mats[j][a][b] = poly
    # the coefficients are fresh trimmed lists, owned by the witness
    return [TwistedMatrix._wrap(ring, m, t, r, c)
            for m, (r, c, t) in zip(mats, shapes)]


def is_p_null_homotopic(f):
    """Decide whether f bounds some witness; the verdict is definitive
    over every base ring. A positive verdict's witness is checked with
    reconstruct_from_witness.
    """
    x, y = f.source, f.target
    slots = _witness_slots(x, y)
    top = len(slots) - x.ranks[-1] * y.ranks[0]
    coeffs = _solve(f, _witness_image(x, y, slots), top)
    if coeffs is None:
        return HomotopyVerdict(False)
    w = _witness_from_coeffs(x, y, slots, coeffs)
    if not _rebuilds(f, reconstruct_from_witness(x, y, w) == f, "witness"):
        return HomotopyVerdict(False)
    return HomotopyVerdict(True, witness=w)


def _rebuilds(f, same, what):
    """same, whether a solved answer rebuilds f. It may be False only for
    an f outside the theory, which the engine may solve on its top
    component but not complete: a non-morphism, or a map between objects
    whose rotation identity fails, where the one-slot argument of _solve
    breaks. Validity is checked on this failure path alone."""
    if same:
        return True
    if f.is_valid() and f.source.is_valid() and f.target.is_valid():
        raise AssertionError("solved %s does not rebuild the morphism" % what)
    return False


def is_stably_zero(x):
    """True iff the identity of x is null-homotopic (x vanishes stably)."""
    return is_p_null_homotopic(Morphism.identity(x))


def is_stable_iso_pair(f, g):
    """Whether f and g are mutually inverse in the stable category: both
    composites minus identities must be null-homotopic."""
    if f.source != g.target or f.target != g.source:
        raise ValueError("candidate pair endpoints do not match")
    v1 = is_p_null_homotopic(f.then(g).sub(Morphism.identity(f.source)))
    v2 = is_p_null_homotopic(g.then(f).sub(Morphism.identity(g.source)))
    return v1.null and v2.null


# -- decider two: factor through the trivial objects --

def trivial_hom(x, i, lam):
    """The morphism x -> theta^i(A^m) whose component at slot s = i-1 mod n
    is lam; every morphism into a trivial object arises uniquely this way.
    The squares force slot j to be sigma^{-w}(d_X^{j -> s} lam), with
    d_X^{j -> s} the arc of x's maps from slot j to slot s and w its
    twist: 1 exactly when the arc passes the last map, that is j >= i > 0.
    """
    s = (i - 1) % x.n
    if lam.twist != 0 or lam.rows != x.ranks[s]:
        raise ValueError("parameter must be %dx? at twist 0" % x.ranks[s])
    return Morphism(x, theta(x.ring, x.n, i, lam.cols), _trivial_components(x, s, lam))


def _trivial_components(x, s, lam):
    """The components of trivial_hom with lam at slot s, without theta."""
    ring = x.ring
    comps = []
    for j in range(x.n):
        arc = x.arc(j, s)
        raw = mat_mul(ring, arc.m, lam.m, (x.ranks[j], lam.rows, lam.cols))
        comps.append(TwistedMatrix._wrap(ring, raw, 0, x.ranks[j], lam.cols)
                     .sigma_entries(-arc.twist))
    return comps


def trivial_counit(y, i):
    """theta^i(A^{r_i y}) -> y: slot j carries the arc d_Y^{i -> j} of y's
    maps from slot i around to slot j (the identity at j = i). Each
    component shares the grid of its arc, which no one mutates
    (TwistedMatrix)."""
    comps = [TwistedMatrix._wrap(y.ring, y.arc(i, j).m, 0, y.ranks[i], y.ranks[j])
             for j in range(y.n)]
    return Morphism(theta(y.ring, y.n, i, y.ranks[i]), y, comps)


def trivial_sum_counit(y, indices):
    """The trivial sum T of theta^i(A^{r_i y}) over i in indices, in that
    order, and the stacked counit T -> y: slot j stacks the arcs
    d_Y^{i -> j} of trivial_counit, sharing their rows."""
    ring, n = y.ring, y.n
    t = direct_sum([theta(ring, n, i, y.ranks[i]) for i in indices])
    comps = [TwistedMatrix._wrap(ring, [row for i in indices for row in y.arc(i, j).m],
                                 0, t.ranks[j], y.ranks[j]) for j in range(n)]
    return t, Morphism(t, y, comps)


def _lambda_slots(x, y, indices):
    """Unknowns (i, a, b) of the r_{i-1}(x) x r_i(y) parameters, block by
    block in the order of indices, each block row-major."""
    return block_slots((i, x.ranks[(i - 1) % x.n], y.ranks[i]) for i in indices)


def _lambda_image(x, y, indices, slots):
    """image(u, poly) of the parameters to g then eps, eps the counit of
    trivial_sum_counit(y, indices) and g the morphism their trivial_homs
    make, at slot n-1. There block i adds L sigma^t(lambda) R, read off
    the arcs: L = sigma^{-w}(d_X^{n-1 -> i-1}) and t = -w, w the twist of
    that arc, as in trivial_hom, and R = d_Y^{i -> n-1}, as in
    trivial_counit."""
    last = x.n - 1
    into = y.arcs_into(last)
    terms = {}
    for i in indices:
        left = x.arc(last, i - 1)
        terms[i] = [(last, left.sigma_entries(-left.twist).m, into[i].m,
                     -left.twist)]
    return TermImage(x.ring, [(last, x.ranks[last], y.ranks[last])], terms, slots)


def _lambda_morphism(x, y, t, indices, slots, coeffs):
    """The morphism x -> t whose blocks are the trivial_homs of the
    parameters with entries coeffs, in slot order, side by side. coeffs
    are fresh trimmed lists, as _solve makes them, and the grids are built
    here, so every matrix takes its grid without a copy."""
    ring, n = x.ring, x.n
    mats = {i: [[[] for _ in range(y.ranks[i])] for _ in range(x.ranks[(i - 1) % n])]
            for i in indices}
    for (i, a, b), poly in zip(slots, coeffs):
        mats[i][a][b] = poly
    parts = [_trivial_components(x, (i - 1) % n, TwistedMatrix._wrap(
        ring, mats[i], 0, x.ranks[(i - 1) % n], y.ranks[i]))
        for i in indices]
    comps = [TwistedMatrix._wrap(ring, [sum((g[j].m[r] for g in parts), [])
                                        for r in range(x.ranks[j])], 0,
                                 x.ranks[j], t.ranks[j]) for j in range(n)]
    return Morphism(x, t, comps)


def _factors_through(f, indices):
    """Decide whether f factors as x -> T -> y through the trivial sum T
    of trivial_sum_counit(y, indices). indices starts at 0, so the i = 0
    parameter block, which acts as h^{n-1}, is the engine's top. g is
    built from trivial_hom components: a morphism when x is valid."""
    x, y = f.source, f.target
    slots = _lambda_slots(x, y, indices)
    coeffs = _solve(f, _lambda_image(x, y, indices, slots), 0)
    if coeffs is None:
        return TrivialFactorization(False)
    t, eps = trivial_sum_counit(y, indices)
    g = _lambda_morphism(x, y, t, indices, slots, coeffs)
    if not _rebuilds(f, x.is_valid() and g.then(eps) == f, "factorization"):
        return TrivialFactorization(False)
    return TrivialFactorization(True, g=g, counit=eps, through=t)


def factors_through_trivials(f):
    """Decide whether f factors through the sum of all trivial objects on
    y's ranks; by the homotopy correspondence this must agree with
    is_p_null_homotopic, but the linear system solved here is different:
    its unknowns are the parameters of trivial_hom, one block per summand,
    and they reach f through the arcs of trivial_hom and trivial_counit."""
    return _factors_through(f, range(f.source.n))


def factors_through_theta0(f):
    """Decide whether f factors through theta^0(A^{r_0 y}) alone (the
    smaller ideal used by the cokernel correspondence)."""
    return _factors_through(f, [0])


# -- the morphism space and its stable quotient (commutative case) --

def _pivotless(fld, basis):
    """The pivotless column f_k of each vector of a kmat_nullspace basis,
    its last nonzero entry, as a reduced echelon row is 0 before its
    pivot. A vector v of the span is sum_k v[f_k] basis[k]."""
    return [max(i for i, c in enumerate(v) if not fld.is_zero(c)) for v in basis]


class HomSpace:
    """The k-space of slot n-1 components of morphisms x -> y modulo
    omega; commutative base only. A basis vector holds the residues
    (modules.residues) of the entries of an r x r' matrix M, row-major, for
    r = r_{n-1}(x) and r' = r_{n-1}(y); rank, that of Hom(x, y), is r r'.

    A morphism g is fixed by M = g^{n-1} (see _solve). M extends to one
    exactly when d_X^{j -> n-1} M lies in Mat d_Y^{j -> n-1} for each
    j < n-1 (morphism): each square then holds times a non-zero-divisor
    arc of y. As d_Y^{j -> n-1} d_Y^{n-1 -> j} = omega I, that is when
    d_X^{j -> n-1} M d_Y^{n-1 -> j} vanishes modulo omega, a condition on
    M modulo omega: basis spans the null space of the rows
    (modules.linear_system) of that map, which TermImage assembles as the
    deciders' maps.
    """

    def __init__(self, x, y):
        ring = x.ring
        if not ring.commutative:
            raise UnsupportedRingError("hom spaces need a commutative base ring")
        if y.ring != ring:
            raise ValueError("the two objects live over different rings")
        if x.n != y.n:
            raise ValueError("fold counts differ")
        self.x = x
        self.y = y
        self.ring = ring
        last = x.n - 1
        slots = block_slots([(last, x.ranks[last], y.ranks[last])])
        into = x.arcs_into(last)
        terms = {last: [(j, into[j].m, y.arc(last, j).m, 0) for j in range(last)]}
        image = TermImage(ring, [(j, x.ranks[j], y.ranks[j]) for j in range(last)],
                          terms, slots)
        self.basis = kmat_nullspace(*linear_system(ring, image))

    @property
    def rank(self):
        return self.x.ranks[-1] * self.y.ranks[-1]

    def lift(self, vec):
        """The r x r' matrix whose entries have the residues in vec."""
        c = self.y.ranks[-1]
        entries = polys(self.ring, vec)
        return [entries[a * c:(a + 1) * c] for a in range(self.x.ranks[-1])]

    def morphism(self, top):
        """The morphism with slot n-1 component top, an r x r' matrix with
        residues in the span of basis, of fresh trimmed entries that the
        morphism takes over without a copy; the other components are
        solve_right's fresh products."""
        x, y, ring = self.x, self.y, self.ring
        last = x.n - 1
        x_into, y_into = x.arcs_into(last), y.arcs_into(last)
        comps = []
        for j in range(last):
            rhs = mat_mul(ring, x_into[j].m, top, (x.ranks[j], x.ranks[last], y.ranks[last]))
            g = solve_right(ring, y_into[j].m, rhs)
            if g is None:
                raise ValueError("the top component does not extend to a morphism")
            comps.append(g)
        return Morphism(x, y, [TwistedMatrix._wrap(ring, g, 0, x.ranks[j], y.ranks[j])
                               for j, g in enumerate(comps + [top])])


def _omega_power_divides(ring, factor):
    """True when factor divides some power of omega (checked at power deg)."""
    acc = ring.from_int(1)
    for _ in range(ring.deg(factor)):
        acc = ring.right_quo_rem(ring.mul(acc, ring.omega), factor)[1]
        if not acc:
            return True
    return not acc


class StableHomReport:
    """Stable Hom as a k[x]-module: hom's span modulo that of null, the top
    residues of the ideal's morphisms. omega kills it, so on a k-basis of
    it x acts by a matrix X, and its invariant factors are the nonunit
    ones of x I - X. Representative t completes the element that row t of
    the Smith form's v^{-1} writes in that basis."""

    def __init__(self, hom, null, ideal):
        self.hom = hom
        self.ideal = ideal
        ring = hom.ring
        fld = ring.field
        free = _pivotless(fld, hom.basis)
        # quotient coordinates of v in the span of hom.basis: v[free] z^T
        rel = [[w[f] for f in free] for w in null]
        z = kmat_nullspace(fld, [[w[k] for w in rel] for k in range(len(free))])
        lifts = [hom.basis[k] for k in _pivotless(fld, z)]
        q = len(lifts)
        # row i: x times quotient basis vector i, in quotient coordinates
        xs = [times_x(ring, v) for v in lifts]
        act = kmat_mul(fld, [[v[f] for f in free] for v in xs], [list(c) for c in zip(*z)], q)
        pres = [[ring.trim([fld.neg(act[i][j])] + [fld.one] * (i == j))
                 for j in range(q)] for i in range(q)]
        d, _, _, v_inv = smith_form(ring, pres)
        self.invariant_factors = []
        self.representatives = []
        for t in range(q):
            if ring.deg(d[t][t]) > 0:
                # sum_k v_inv[t][k](x) lifts[k], x acting by times_x
                top = [fld.zero] * len(hom.basis[0])
                for p, v in zip(v_inv[t], lifts):
                    for c in p:
                        top = [fld.add(a, fld.mul(c, b)) for a, b in zip(top, v)]
                        v = times_x(ring, v)
                self.invariant_factors.append(list(d[t][t]))
                self.representatives.append(hom.morphism(hom.lift(top)))
        self.k_dimension = q
        self.omega_torsion = all(_omega_power_divides(ring, f)
                                 for f in self.invariant_factors)

    def factor_names(self):
        return sorted(self.hom.ring.pretty(f) for f in self.invariant_factors)

    def is_zero(self):
        return not self.invariant_factors

    def to_json(self):
        ring = self.hom.ring
        return {
            "ideal": self.ideal,
            "hom_rank": self.hom.rank,
            "invariant_factors": [ring.poly_to_json(f) for f in self.invariant_factors],
            "invariant_factors_pretty": [ring.pretty(f) for f in self.invariant_factors],
            "k_dimension": self.k_dimension,
            "omega_torsion": self.omega_torsion,
            "representatives": [m.to_json() for m in self.representatives],
        }


def stable_hom(x, y, ideal="all"):
    """Present Hom(x, y) modulo null-homotopics (ideal='all') or modulo
    maps factoring through theta^0 only (ideal='theta0')."""
    if ideal not in ("all", "theta0"):
        raise ValueError("ideal must be 'all' or 'theta0'")
    hom = HomSpace(x, y)
    if ideal == "all":
        slots = _witness_slots(x, y)
        image = _witness_image(x, y, slots)
    else:
        slots = _lambda_slots(x, y, [0])
        image = _lambda_image(x, y, [0], slots)
    return StableHomReport(hom, linear_system(x.ring, image)[1], ideal)
