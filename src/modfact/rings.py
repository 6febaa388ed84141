"""The base ring A = k[x; sigma] together with a chosen normal element omega.

Polynomials are dense coefficient lists over the field, low degree first,
always trimmed. Multiplication follows the skew rule x*c = frob^s(c)*x
where s is the ring's sigma_power (0 in the commutative case).

A normal omega induces a ring automorphism via omega*a = sigma(a)*omega.
For the supported skew instances omega = c*x^m with frob^s(c) = c, and the
induced automorphism acts coefficientwise by frob^(s*m); apply_sigma
implements exactly that map (and the identity in the commutative case).
"""

from .fields import RationalField, field_from_json


class UnsupportedRingError(ValueError):
    """Raised when an operation is only available over a commutative base ring."""


class NotNormalError(ValueError):
    pass


class BaseRing:
    def __init__(self, field, sigma_power=0, omega=None):
        self.field = field
        if isinstance(field, RationalField):
            if sigma_power != 0:
                raise ValueError("a frobenius power needs a finite coefficient field")
            self.sigma_power = 0
        else:
            e = getattr(field, "e", 1)
            self.sigma_power = sigma_power % e
        self.commutative = self.sigma_power == 0
        if omega is None:
            raise ValueError("omega is required")
        omega = self.trim([field.coerce(c) for c in omega])
        if not omega:
            raise NotNormalError("omega must be nonzero")
        self.omega = omega
        self.omega_deg = len(omega) - 1
        if self.commutative:
            self.auto_power = 0
        else:
            # normality forces omega = c*x^m with frob^s(c) = c; the induced
            # automorphism is then coefficientwise frob^(s*m)
            m = self.omega_deg
            if any(not field.is_zero(c) for c in omega[:m]):
                raise NotNormalError("omega must be a monomial c*x^m in the skew case")
            c = omega[m]
            if field.frob(c, self.sigma_power) != c:
                raise NotNormalError("leading coefficient of omega is not sigma-fixed")
            self.auto_power = (self.sigma_power * m) % field.e
        if self.apply_sigma(self.omega) != self.omega:
            raise NotNormalError("omega is not fixed by its induced automorphism")
        self.zero = []
        self.one = [field.one]
        self.x = [field.zero, field.one]

    def __eq__(self, other):
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
        n = max(len(f), len(g))
        fld = self.field
        out = []
        for i in range(n):
            a = f[i] if i < len(f) else fld.zero
            b = g[i] if i < len(g) else fld.zero
            out.append(fld.add(a, b))
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
        if not f or not g:
            return []
        fld = self.field
        s = self.sigma_power
        out = [fld.zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if fld.is_zero(a):
                continue
            for j, b in enumerate(g):
                bb = fld.frob(b, s * i) if s else b
                out[i + j] = fld.add(out[i + j], fld.mul(a, bb))
        return self.trim(out)

    def scale(self, c, f):
        # constant on the left; degree 0 so no twist enters
        if self.field.is_zero(c):
            return []
        return self.trim([self.field.mul(c, a) for a in f])

    def apply_sigma(self, f, power=1):
        """The automorphism induced by omega, applied power times (power may be negative)."""
        if self.commutative or not f:
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
        gl = self.lc(g)
        while len(r) >= len(g):
            d = len(r) - len(g)
            denom = fld.frob(gl, s * d) if s else gl
            qc = fld.mul(self.lc(r), fld.inv(denom))
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

    def quotient_reduce(self, f):
        """Canonical representative of f in A/(omega), degree below deg(omega)."""
        return self.right_quo_rem(f, self.omega)[1]

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
    sigma_power = int(data.get("sigma_power", 0))
    omega = [field.elem_from_json(c) for c in data["omega"]]
    return BaseRing(field, sigma_power, omega)
