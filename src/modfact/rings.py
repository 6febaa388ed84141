"""The base ring A = k[x; sigma] together with a chosen normal element omega.

Polynomials are dense coefficient lists over the field, low degree first,
always trimmed. Multiplication follows the skew rule x*c = frob^s(c)*x
where s is the ring's sigma_power (0 in the commutative case).

A normal omega induces a ring automorphism via omega*a = sigma(a)*omega.
For the supported skew instances omega = c*x^m with frob^s(c) = c, and the
induced automorphism acts coefficientwise by frob^(s*m); apply_sigma
implements exactly that map (and the identity in the commutative case).

Lambda = A/(omega) has coordinates over coordinate_field: over k when the
ring is commutative, over the prime field F_p of k = F_{p^e} when it is
skew, since x c = frob^s(c) x is only F_p-linear in c. The ring builds
that field once, for every linear system solved on it.
"""

from .fields import PrimeField, field_from_json, json_int


class UnsupportedRingError(ValueError):
    """Raised when an operation is only available over a commutative base ring."""


class NotNormalError(ValueError):
    pass


class BaseRing:
    def __init__(self, field, sigma_power=0, omega=None):
        self.field = field
        if field.card is None and sigma_power != 0:
            raise ValueError("a frobenius power needs a finite coefficient field")
        self.sigma_power = sigma_power % field.e
        self.commutative = self.sigma_power == 0
        if omega is None:
            raise ValueError("omega is required")
        omega = self.trim([field.coerce(c) for c in omega])
        if not omega:
            raise NotNormalError("omega must be nonzero")
        if len(omega) == 1:
            raise ValueError("omega must have positive degree, not be a unit")
        self.omega = omega
        m = self.omega_deg = len(omega) - 1
        self.omega_monomial = all(field.is_zero(c) for c in omega[:m])
        # x^m = -sum_t w_t x^t modulo omega, over the pairs (t, w_t) of
        # omega_tail: t runs over omega's nonzero coefficients below x^m,
        # w_t = omega_t / lc(omega), and a monomial omega has none
        lc_inv = field.inv(omega[m])
        self.omega_tail = [(t, field.mul(c, lc_inv)) for t, c in enumerate(omega[:m])
                           if not field.is_zero(c)]
        if self.commutative:
            self.auto_power = 0
        else:
            # skew rings are restricted to monomials omega = c*x^m with
            # frob^s(c) = c, though other normal omega exist (1 + x^2 is
            # central over F_4[x; Frob]); the induced automorphism is then
            # coefficientwise frob^(s*m)
            if not self.omega_monomial:
                raise NotNormalError("omega must be a monomial c*x^m in the skew case")
            c = omega[m]
            if field.frob(c, self.sigma_power) != c:
                raise NotNormalError("leading coefficient of omega is not sigma-fixed")
            self.auto_power = (self.sigma_power * m) % field.e
        self.coordinate_field = field if self.commutative else PrimeField(field.p)
        if self.apply_sigma(self.omega) != self.omega:
            raise NotNormalError("omega is not fixed by its induced automorphism")
        self.zero = []
        self.one = [field.one]
        self.x = [field.zero, field.one]

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, BaseRing) and other.field == self.field
                and other.sigma_power == self.sigma_power and other.omega == self.omega)

    def __hash__(self):
        return hash((self.field, self.sigma_power, tuple(self.omega)))

    # -- basic polynomial arithmetic --

    def trim(self, f):
        while f and self.field.is_zero(f[-1]):
            f.pop()
        return f

    def deg(self, f):
        return len(f) - 1

    def lc(self, f):
        return f[-1]

    def is_zero(self, f):
        return not f

    def from_field(self, c):
        return [] if self.field.is_zero(c) else [c]

    def from_int(self, n):
        return self.from_field(self.field.from_int(n))

    def x_power(self, d):
        return [self.field.zero] * d + [self.field.one]

    def add(self, f, g):
        out = list(map(self.field.add, f, g))
        n = len(out)
        out += f[n:] if len(f) > n else g[n:]
        return self.trim(out)

    def sub(self, f, g):
        n = max(len(f), len(g))
        fld = self.field
        out = []
        for i in range(n):
            a = f[i] if i < len(f) else fld.zero
            b = g[i] if i < len(g) else fld.zero
            out.append(fld.sub(a, b))
        return self.trim(out)

    def neg(self, f):
        return [self.field.neg(c) for c in f]

    def mul(self, f, g):
        """The product f g of trimmed polynomials, with x c = frob^s(c) x.

        Schoolbook, row by row: row i, the products of f_i with g twisted
        by frob^{s i}, adds into the coefficients that earlier rows wrote
        and appends the rest, so no product is added into a coefficient
        that no row has written. A zero f_i appends a zero at x^i when no
        row has written it yet. Nothing is trimmed: A is a domain, so the
        last coefficient, lc(f) frob^{s deg f}(lc g), which the last row
        appends, is nonzero when f and g are trimmed, as every polynomial
        here is.
        """
        if not f or not g:
            return []
        fld = self.field
        s = self.sigma_power
        k = 0
        out = []
        # binding fld.add and fld.mul to locals, or twisting g by a
        # comprehension, is slower at the few coefficients polynomials
        # here have: Python 3.11 already calls fld.add without a bound method
        for i, a in enumerate(f):
            if fld.is_zero(a):
                if len(out) == i:
                    out.append(fld.zero)
                continue
            if s:
                # frob^{s i} is the identity when s i = 0 mod e
                k = s * i % fld.e
            top = len(out)
            for j, b in enumerate(g, i):
                if k:
                    b = fld.frob(b, k)
                if j < top:
                    out[j] = fld.add(out[j], fld.mul(a, b))
                else:
                    out.append(fld.mul(a, b))
        return out

    def scale(self, c, f):
        # constant on the left; degree 0 so no twist enters
        if self.field.is_zero(c):
            return []
        return self.trim([self.field.mul(c, a) for a in f])

    def apply_sigma(self, f, power=1):
        """The automorphism induced by omega, applied power times (power may
        be negative), as a new list. It is the identity when auto_power is
        0: on every commutative ring, and on a skew ring when sigma_power
        deg(omega) is a multiple of e. Callers on a hot path skip the call,
        and its copy, there: TwistedMatrix.sigma_entries and
        matrices.TermImage."""
        if not self.auto_power or not f:
            return list(f)
        k = self.auto_power * power
        fld = self.field
        return [fld.frob(c, k) for c in f]

    # -- division --

    def right_quo_rem(self, f, g):
        """q, r with f = q*g + r and deg r < deg g."""
        if not g:
            raise ZeroDivisionError("division by zero polynomial")
        fld = self.field
        s = self.sigma_power
        r = list(f)
        q = [fld.zero] * max(1, len(f) - len(g) + 1)
        gl_inv = fld.inv(self.lc(g)) if len(r) >= len(g) else None
        while len(r) >= len(g):
            d = len(r) - len(g)
            # frob is a field automorphism: 1/frob^k(lc g) = frob^k(1/lc g)
            qc = fld.mul(self.lc(r), fld.frob(gl_inv, s * d) if s else gl_inv)
            q[d] = fld.add(q[d], qc)
            # r -= (qc x^d) * g
            for j, b in enumerate(g):
                bb = fld.frob(b, s * d) if s else b
                r[d + j] = fld.sub(r[d + j], fld.mul(qc, bb))
            self.trim(r)
            if not r:
                break
        return self.trim(q), r

    def left_quo_rem(self, f, g):
        """q, r with f = g*q + r and deg r < deg g."""
        if not g:
            raise ZeroDivisionError("division by zero polynomial")
        fld = self.field
        s = self.sigma_power
        m = len(g) - 1
        gl_inv = fld.inv(self.lc(g))
        r = list(f)
        q = [fld.zero] * max(1, len(f) - len(g) + 1)
        while len(r) >= len(g):
            d = len(r) - len(g)
            qc = fld.mul(gl_inv, self.lc(r))
            if s:
                qc = fld.frob(qc, -s * m)
            q[d] = fld.add(q[d], qc)
            # r -= g * (qc x^d); (g_j x^j)(qc x^d) = g_j frob^{s j}(qc) x^{j+d}
            for j, b in enumerate(g):
                cc = fld.frob(qc, s * j) if s else qc
                r[d + j] = fld.sub(r[d + j], fld.mul(b, cc))
            self.trim(r)
            if not r:
                break
        return self.trim(q), r

    def monic(self, f):
        """Left-scale f to leading coefficient 1 (unit scaling keeps row spans)."""
        if not f:
            return []
        return self.scale(self.field.inv(self.lc(f)), f)

    # -- misc --

    def random_poly(self, rng, max_deg):
        d = rng.randint(0, max_deg)
        out = [self.field.random(rng) for _ in range(d + 1)]
        return self.trim(out)

    def pretty(self, f):
        if not f:
            return "0"
        fld = self.field
        terms = []
        for i, c in enumerate(f):
            if fld.is_zero(c):
                continue
            cs = fld.pretty(c)
            if i == 0:
                terms.append(cs)
            else:
                xs = "x" if i == 1 else "x^%d" % i
                if cs == "1":
                    terms.append(xs)
                elif "+" in cs or " " in cs:
                    terms.append("(%s)*%s" % (cs, xs))
                else:
                    terms.append("%s*%s" % (cs, xs))
        return " + ".join(terms)

    def poly_to_json(self, f):
        return [self.field.elem_to_json(c) for c in f]

    def poly_from_json(self, data):
        if not isinstance(data, list):
            raise ValueError("polynomials encode as coefficient arrays")
        return self.trim([self.field.elem_from_json(c) for c in data])

    def to_json(self):
        return {"field": self.field.to_json(), "sigma_power": self.sigma_power,
                "omega": self.poly_to_json(self.omega)}


def ring_from_json(data):
    if not isinstance(data, dict):
        raise ValueError("ring spec must be a JSON object")
    for key in ("field", "omega"):
        if key not in data:
            raise ValueError("ring spec is missing %r" % key)
    field = field_from_json(data["field"])
    sigma_power = json_int(data.get("sigma_power", 0), "sigma_power")
    omega = data["omega"]
    if not isinstance(omega, list):
        raise ValueError("omega encodes as a coefficient array")
    omega = [field.elem_from_json(c) for c in omega]
    return BaseRing(field, sigma_power, omega)
