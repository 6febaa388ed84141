"""Exact coefficient fields: rationals, prime fields, and finite extensions.

Every field object exposes the same small protocol (zero, one, e, card,
add, sub, neg, mul, inv, frob, from_int, is_zero, elem_to_json,
elem_from_json) so the polynomial layer in rings.py never needs to branch
on the field kind. e is the degree over the prime field: 1 for the
rationals and for F_p, so frobenius has period e everywhere. card is the
number of elements, None for the rationals. Elements are plain Python
values: for the rationals an int when integral and a reduced Fraction
otherwise, int in range(p) for a prime field, tuple of e ints in range(p)
for F_{p^e}, which is the element's own coordinate vector over F_p.
"""

from fractions import Fraction
from math import gcd


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson & Webster, Math. Comp. 86, 2017); larger p are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin; ValueError for n >= MR_LIMIT."""
    if n >= MR_LIMIT:
        raise ValueError("%d is beyond the deterministic primality range" % n)
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        y = pow(b, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


# dense polynomials over F_p as int lists, low degree first; only used to
# run the arithmetic of F_{p^e} itself

def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(out)


def _pmod(f, m, p):
    # m monic
    f = list(f)
    while len(f) >= len(m):
        c = f[-1] % p
        if c:
            shift = len(f) - len(m)
            for i, a in enumerate(m):
                f[shift + i] = (f[shift + i] - c * a) % p
        f.pop()
    return _ptrim(f)


def _psub(f, g, p):
    n = max(len(f), len(g))
    f = f + [0] * (n - len(f))
    g = g + [0] * (n - len(g))
    return _ptrim([(a - b) % p for a, b in zip(f, g)])


def _pdivmod(f, g, p):
    q = [0] * max(1, len(f) - len(g) + 1)
    r = list(f)
    inv_lead = pow(g[-1], -1, p)
    while len(r) >= len(g):
        c = (r[-1] * inv_lead) % p
        shift = len(r) - len(g)
        q[shift] = c
        for i, a in enumerate(g):
            r[shift + i] = (r[shift + i] - c * a) % p
        _ptrim(r)
        if not r:
            break
    return _ptrim(q), r


def _pxgcd(f, g, p):
    # returns (d, s, t) with s*f + t*g = d, all over F_p
    r0, r1 = _ptrim(list(f)), _ptrim(list(g))
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        t0, t1 = t1, _psub(t0, _pmul(q, t1, p), p)
    return r0, s0, t0


def _irreducible(f, p):
    """Trial division over all monic polynomials of degree <= deg(f)/2."""
    deg = len(f) - 1
    if deg < 1:
        return False
    half = deg // 2
    for d in range(1, half + 1):
        # enumerate monic degree-d candidates by counting in base p
        for code in range(p ** d):
            cand = []
            c = code
            for _ in range(d):
                cand.append(c % p)
                c //= p
            cand.append(1)
            if not _pmod(f, cand, p):
                return False
    return True


def _canonical(c):
    """The canonical form of a rational: an int when integral, else a Fraction."""
    if c.__class__ is int:
        return c
    return c.numerator if c.denominator == 1 else c


def _q_add(na, da, nb, db):
    """na/da + nb/db for reduced operands, in canonical form. This is
    Fraction's own addition without its operator dispatch, and it builds no
    Fraction for an integral sum."""
    g = gcd(da, db)
    if g == 1:
        n, d = na * db + da * nb, da * db
    else:
        s = da // g
        n = na * (db // g) + nb * s
        g2 = gcd(n, g)
        n, d = n // g2, s * (db // g2)
    return n if d == 1 else Fraction(n, d)


class RationalField:
    """Q. An integral element is an int and any other a reduced Fraction, so
    most arithmetic stays on ints; operations accept either form."""

    kind = "rationals"
    char = 0
    card = None
    e = 1
    zero = 0
    one = 1

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("field", "Q"))

    # add, sub and mul carry nearly all the calls: both operands ints is
    # the common case, and the others skip Fraction's operator dispatch

    def add(self, a, b):
        if a.__class__ is int and b.__class__ is int:
            return a + b
        return _q_add(a.numerator, a.denominator, b.numerator, b.denominator)

    def sub(self, a, b):
        if a.__class__ is int and b.__class__ is int:
            return a - b
        return _q_add(a.numerator, a.denominator, -b.numerator, b.denominator)

    def neg(self, a):
        return _canonical(-a)

    def mul(self, a, b):
        if a.__class__ is int and b.__class__ is int:
            return a * b
        na, da = a.numerator, a.denominator
        nb, db = b.numerator, b.denominator
        g1 = gcd(na, db)
        g2 = gcd(nb, da)
        n = (na // g1) * (nb // g2)
        d = (da // g2) * (db // g1)
        return n if d == 1 else Fraction(n, d)

    def inv(self, a):
        if a.__class__ is int and (a == 1 or a == -1):
            return a
        # never 1 / a: for an int that is a float; Fraction(n, 0) raises
        # ZeroDivisionError
        return _canonical(Fraction(a.denominator, a.numerator))

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return int(n)

    def coerce(self, a):
        # ints and Fractions are fine; floats would corrupt exactness
        if isinstance(a, float):
            raise TypeError("rational coefficients must be Fraction or int, not float")
        return _canonical(Fraction(a))

    def frob(self, a, power=1):
        return a

    def random(self, rng):
        return rng.randint(-3, 3)

    def pretty(self, a):
        return str(a)

    def elem_to_json(self, a):
        return str(Fraction(a))

    def elem_from_json(self, data):
        # an exponent would let a few characters ask for 10^(10^9)
        if not isinstance(data, str) or "e" in data or "E" in data:
            raise ValueError("rational elements encode as strings with no "
                             "exponent: %r" % (data,))
        try:
            return _canonical(Fraction(data))
        except ZeroDivisionError:
            raise ValueError("zero denominator: %r" % (data,)) from None

    def to_json(self):
        return {"kind": "rationals"}


class PrimeField:
    kind = "prime"
    e = 1

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError("not a prime: %r" % (p,))
        self.p = p
        self.char = p
        self.card = p
        self.zero = 0
        self.one = 1

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field", self.p))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.p)
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def from_int(self, n):
        return n % self.p

    def coerce(self, a):
        n = int(a)
        if n != a:
            raise TypeError("prime field coefficients must be integers: %r" % (a,))
        return n % self.p

    def frob(self, a, power=1):
        # x -> x^p is the identity on the prime field
        return a % self.p

    def random(self, rng):
        return rng.randrange(self.p)

    def elements(self):
        return range(self.p)

    def pretty(self, a):
        return str(a % self.p)

    def elem_to_json(self, a):
        return a % self.p

    def elem_from_json(self, data):
        return json_int(data, "a prime field element") % self.p

    def to_json(self):
        return {"kind": "prime", "p": self.p}


class ExtensionField:
    """F_{p^e} = F_p[u]/(modulus), elements stored as tuples of e ints."""

    kind = "finite"

    def __init__(self, p, e, modulus=None):
        if not is_prime(p):
            raise ValueError("not a prime: %r" % (p,))
        if e < 2:
            raise ValueError("use PrimeField for e = 1")
        if modulus is None:
            modulus = self._default_modulus(p, e)
        modulus = [c % p for c in modulus]
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree e")
        if not _irreducible(modulus, p):
            raise ValueError("modulus is reducible over F_%d" % p)
        self.p = p
        self.e = e
        self.modulus = modulus
        self.char = p
        self.card = p ** e
        self.zero = (0,) * e
        self.one = tuple([1] + [0] * (e - 1))
        self.gen = tuple([0, 1] + [0] * (e - 2))
        # frobenius x -> x^(p^k) is F_p-linear; cache images of the power basis
        self._frob_basis = self._build_frob_tables()

    @staticmethod
    def _default_modulus(p, e):
        for code in range(p ** e):
            cand = []
            c = code
            for _ in range(e):
                cand.append(c % p)
                c //= p
            cand.append(1)
            if _irreducible(cand, p):
                return cand
        raise AssertionError("unreachable: irreducibles of every degree exist")

    def _build_frob_tables(self):
        # tables[k][i] = (u^i)^(p^k); frobenius is F_p-linear in the coefficients
        basis = [tuple([0] * i + [1] + [0] * (self.e - 1 - i)) for i in range(self.e)]
        tables = [basis]
        for k in range(1, self.e):
            tables.append([self._pow_raw(b, self.p) for b in tables[k - 1]])
        return tables

    def _pow_raw(self, a, n):
        out = self.one
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.p == self.p
                and other.e == self.e and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("field", self.p, self.e, tuple(self.modulus)))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        prod = _pmul(list(a), list(b), self.p)
        red = _pmod(prod, self.modulus, self.p)
        return tuple(red + [0] * (self.e - len(red)))

    def inv(self, a):
        f = _ptrim(list(a))
        if not f:
            raise ZeroDivisionError("inverse of 0 in F_%d^%d" % (self.p, self.e))
        d, s, _ = _pxgcd(f, self.modulus, self.p)
        # d is a nonzero constant since the modulus is irreducible
        c = pow(d[0], -1, self.p)
        s = [(c * x) % self.p for x in s]
        s = _pmod(s, self.modulus, self.p)
        return tuple(s + [0] * (self.e - len(s)))

    def is_zero(self, a):
        return all(x % self.p == 0 for x in a)

    def from_int(self, n):
        return tuple([n % self.p] + [0] * (self.e - 1))

    def coerce(self, a):
        if isinstance(a, int):
            return self.from_int(a)
        if len(a) != self.e:
            raise ValueError("element needs %d coordinates, got %r" % (self.e, a))
        return tuple(int(x) % self.p for x in a)

    def frob(self, a, power=1):
        power %= self.e
        if power == 0:
            return tuple(x % self.p for x in a)
        table = self._frob_basis[power]
        out = self.zero
        for i, c in enumerate(a):
            if c % self.p:
                out = self.add(out, tuple((c * t) % self.p for t in table[i]))
        return out

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.e))

    def elements(self):
        for code in range(self.card):
            v = []
            c = code
            for _ in range(self.e):
                v.append(c % self.p)
                c //= self.p
            yield tuple(v)

    def pretty(self, a):
        terms = []
        for i, c in enumerate(a):
            c %= self.p
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c) + "*"
                terms.append(head + ("u" if i == 1 else "u^%d" % i))
        return " + ".join(terms) if terms else "0"

    def elem_to_json(self, a):
        return [x % self.p for x in a]

    def elem_from_json(self, data):
        if not isinstance(data, list) or len(data) != self.e:
            raise ValueError("F_%d^%d elements encode as length-%d int arrays"
                             % (self.p, self.e, self.e))
        return tuple(json_int(x, "a coordinate") % self.p for x in data)

    def to_json(self):
        return {"kind": "finite", "p": self.p, "e": self.e, "modulus": list(self.modulus)}


def json_int(value, name):
    """value if it is a JSON integer; a float, a string or a bool (an int
    subclass, hence the exact type test) is a ValueError, never truncated."""
    if type(value) is not int:
        raise ValueError("%s must be an integer, not %r" % (name, value))
    return value


def field_from_json(data):
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("field spec must be an object with a 'kind'")
    kind = data["kind"]
    if kind == "rationals":
        return RationalField()
    if kind == "prime":
        return PrimeField(json_int(data["p"], "p"))
    if kind == "finite":
        modulus = data.get("modulus")
        return ExtensionField(
            json_int(data["p"], "p"), json_int(data["e"], "e"),
            modulus and [json_int(c, "a modulus coefficient") for c in modulus])
    raise ValueError("unknown field kind %r" % (kind,))
