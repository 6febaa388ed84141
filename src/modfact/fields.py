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

The rationals reduce each result once, by the gcd steps of Fraction's own
arithmetic, and then build the reduced Fraction directly on its two slots
_numerator and _denominator, instead of through Fraction(n, d), which
would take the gcd and check the sign again. So they rely on Fraction's
layout being those two slots, which a test pins (RationalField).

F_{p^e} computes by log, antilog and Zech tables built when the field is
made, so each operation is a few lookups; that needs canonical tuples as
operands. The tables grow with q = p^e, so q is capped at MAX_CARD = 4096
and a larger field is a ValueError, raised before any modulus search.
The field also stores twisted_units, the F_p basis of unit vectors
twisted by frob^j for each j < e, read from the same tables once, so the
skew row writer (modules.linear_system) looks its units up instead of
twisting them on every call.
"""

from fractions import Fraction
from math import gcd


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson & Webster, Math. Comp. 86, 2017); larger p are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981

# the largest F_{p^e} whose log, antilog and Zech tables are built: F_{2^12}
# builds in well under a second, and 2^MAX_E = MAX_CARD bounds e before
# p ** e is formed
MAX_E = 12
MAX_CARD = 2 ** MAX_E


def is_prime(n):
    """Deterministic Miller-Rabin; ValueError for n >= MR_LIMIT."""
    if n >= MR_LIMIT:
        raise ValueError("%s is beyond the deterministic primality range" % shown(n))
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
# test a modulus and to build the tables of F_{p^e}

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


def _reduced(n, d):
    """n/d in canonical form, for coprime n and d > 0: the int n when d is
    1, else a Fraction built on its two slots, which skips the gcd and the
    sign check that Fraction(n, d) would run again."""
    if d == 1:
        return n
    q = object.__new__(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _q_add(na, da, nb, db):
    """na/da + nb/db for reduced operands with positive denominators, in
    canonical form: Fraction's own addition (Knuth, TAOCP vol. 2, 4.5.1)
    without its operator dispatch."""
    g = gcd(da, db)
    if g == 1:
        return _reduced(na * db + da * nb, da * db)
    s = da // g
    n = na * (db // g) + nb * s
    g2 = gcd(n, g)
    return _reduced(n // g2, s * (db // g2))


class RationalField:
    """Q. An integral element is an int and any other a reduced Fraction, so
    most arithmetic stays on ints; operations accept either form, and a
    Fraction whose denominator is 1 too.

    add, sub, mul, neg and inv read a Fraction's parts off its slots
    _numerator and _denominator and build their results by _reduced,
    which sets those two slots on object.__new__(Fraction) with no gcd.
    That relies on Fraction keeping exactly these two slots, in lowest
    terms with a positive denominator, and on nothing else: hash, str,
    repr, comparison, pickling and Fraction's own operators read only
    them, so a result built here is indistinguishable from Fraction(n, d).

    elem_from_json reads canonical text without Fraction's regex parser:
    an optional "-" and decimal digits is int(s), and n/d with decimal
    parts, d > 1 and gcd(n, d) = 1 is _reduced(n, d). Every other string
    goes to Fraction(s), so the accepted inputs, the values, their types
    and the error messages are the ones that reading every string by
    Fraction(s) gives; a test compares the two. elem_to_json writes an
    int by str alone.
    """

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
        if a.__class__ is int:
            if b.__class__ is int:
                return a + b
            na, da = a, 1
        else:
            na, da = a._numerator, a._denominator
        if b.__class__ is int:
            return _q_add(na, da, b, 1)
        return _q_add(na, da, b._numerator, b._denominator)

    def sub(self, a, b):
        if a.__class__ is int:
            if b.__class__ is int:
                return a - b
            na, da = a, 1
        else:
            na, da = a._numerator, a._denominator
        if b.__class__ is int:
            return _q_add(na, da, -b, 1)
        return _q_add(na, da, -b._numerator, b._denominator)

    def neg(self, a):
        if a.__class__ is int:
            return -a
        return _reduced(-a._numerator, a._denominator)

    def mul(self, a, b):
        if a.__class__ is int:
            if b.__class__ is int:
                return a * b
            na, da = a, 1
        else:
            na, da = a._numerator, a._denominator
        if b.__class__ is int:
            nb, db = b, 1
        else:
            nb, db = b._numerator, b._denominator
        g1 = gcd(na, db)
        g2 = gcd(nb, da)
        return _reduced((na // g1) * (nb // g2), (da // g2) * (db // g1))

    def inv(self, a):
        # never 1 / a: for an int that is a float
        if a.__class__ is int:
            n, d = a, 1
        else:
            n, d = a._numerator, a._denominator
        if n > 0:
            return _reduced(d, n)
        if n < 0:
            return _reduced(-d, -n)
        raise ZeroDivisionError("inverse of 0 in Q")

    def is_zero(self, a):
        # never Fraction.__eq__; a Fraction(0) that is not canonical is zero
        if a.__class__ is int:
            return a == 0
        return not a._numerator

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
        # str of an int is already the canonical text, with no Fraction made
        return str(a) if a.__class__ is int else str(Fraction(a))

    def elem_from_json(self, data):
        # an exponent would let a few characters ask for 10^(10^9)
        if not isinstance(data, str) or "e" in data or "E" in data:
            raise ValueError("rational elements encode as strings with no "
                             "exponent: %s" % shown(data))
        try:
            # the fast path for canonical text (see the class docstring)
            num, slash, den = data.partition("/")
            if (num[1:] if num[:1] == "-" else num).isdecimal():
                if not slash:
                    return int(num)
                if den.isdecimal():
                    n, d = int(num), int(den)
                    if d > 1 and gcd(n, d) == 1:
                        return _reduced(n, d)
            return _canonical(Fraction(data))
        except ZeroDivisionError:
            raise ValueError("zero denominator: %s" % shown(data)) from None
        except ValueError:  # Fraction's message would echo it whole
            raise ValueError("not a rational: %s" % shown(data)) from None

    def to_json(self):
        return {"kind": "rationals"}


class PrimeField:
    kind = "prime"
    e = 1

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError("not a prime: %s" % shown(p))
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
            raise TypeError("prime field coefficients must be integers: %s" % shown(a))
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
    """F_{p^e} = F_p[u]/(modulus), elements stored as tuples of e ints.

    Arithmetic is by table (Lidl & Niederreiter, Finite Fields, ch. 9): with
    g the first primitive element of elements(), exp lists g^i twice over,
    log maps each element to its exponent (zero to None) and zech[i] is
    log(1 + g^i), None where that sum is zero. Every operation is then a
    few lookups that return canonical tuples.
    """

    kind = "finite"

    def __init__(self, p, e, modulus=None):
        if not is_prime(p):
            raise ValueError("not a prime: %s" % shown(p))
        if e < 2:
            raise ValueError("use PrimeField for e = 1")
        # checked before any modulus search; e > MAX_E exceeds the cap at
        # p = 2 already, so p ** e is never formed for a huge e
        if e > MAX_E or p ** e > MAX_CARD:
            raise ValueError("F_%d^%d is larger than the field size cap q <= %d"
                             % (p, e, MAX_CARD))
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
        self._build_tables()

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

    def _build_tables(self):
        p, e, n = self.p, self.e, self.card - 1
        for g in self.elements():
            if g == self.zero:
                continue
            # the powers of g until they return to 1; g is primitive when
            # that takes all q - 1 steps
            gl = _ptrim(list(g))
            powers = [self.one]
            x = gl
            while x != [1]:
                powers.append(tuple(x + [0] * (e - len(x))))
                x = _pmod(_pmul(x, gl, p), self.modulus, p)
            if len(powers) == n:
                break
        self._exp = powers + powers
        log = {a: i for i, a in enumerate(powers)}
        log[self.zero] = None
        self._log = log
        self._zech = [log[((a[0] + 1) % p,) + a[1:]] for a in powers]
        # log(-1) is 0 at p = 2 and (q - 1) / 2 otherwise, so log(1 - g^i)
        # = zech[i + log(-1)]: the Zech table turned by log(-1)
        self._log_neg_one = h = 0 if p == 2 else n // 2
        self._zech_neg = self._zech[h:] + self._zech[:h]
        # frobenius x -> x^(p^k) multiplies the exponent by p^k
        self._frob_mult = [pow(p, k, n) for k in range(e)]
        self._order = n
        # twisted_units[j][k] = frob^j(u^k), u^k the k-th unit vector: the
        # F_p basis twisted by frob^j, j < e, which the skew row writer
        # reads (modules.linear_system)
        units = [tuple([0] * k + [1] + [0] * (e - 1 - k)) for k in range(e)]
        self.twisted_units = [[self._exp[log[c] * f % n] for c in units]
                              for f in self._frob_mult]

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.p == self.p
                and other.e == self.e and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("field", self.p, self.e, tuple(self.modulus)))

    # add, sub, neg, mul, inv and frob look up their operands' logs first,
    # so a tuple that is not a canonical element is a KeyError, never a
    # wrong answer

    def add(self, a, b):
        log = self._log
        i, j = log[a], log[b]
        if i is None:
            return b
        if j is None:
            return a
        # g^i + g^j = g^i (1 + g^(j-i)); a negative j - i indexes from the
        # end of the q - 1 entries, which is j - i modulo q - 1
        z = self._zech[j - i]
        return self.zero if z is None else self._exp[i + z]

    def sub(self, a, b):
        log = self._log
        i, j = log[a], log[b]
        if j is None:
            return a
        if i is None:
            return self._exp[j + self._log_neg_one]
        z = self._zech_neg[j - i]
        return self.zero if z is None else self._exp[i + z]

    def neg(self, a):
        i = self._log[a]
        return self.zero if i is None else self._exp[i + self._log_neg_one]

    def mul(self, a, b):
        log = self._log
        i, j = log[a], log[b]
        if i is None or j is None:
            return self.zero
        return self._exp[i + j]

    def inv(self, a):
        i = self._log[a]
        if i is None:
            raise ZeroDivisionError("inverse of 0 in F_%d^%d" % (self.p, self.e))
        return self._exp[self._order - i]

    def is_zero(self, a):
        return a == self.zero

    def from_int(self, n):
        return tuple([n % self.p] + [0] * (self.e - 1))

    def coerce(self, a):
        if isinstance(a, int):
            return self.from_int(a)
        if len(a) != self.e:
            raise ValueError("element needs %d coordinates, got %s" % (self.e, shown(a)))
        return tuple(int(x) % self.p for x in a)

    def frob(self, a, power=1):
        i = self._log[a]
        if i is None:
            return self.zero
        return self._exp[i * self._frob_mult[power % self.e] % self._order]

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


def shown(value):
    """repr(value) for an input error line, cut after 60 characters."""
    text = repr(value)
    return text if len(text) <= 60 else "%s... (%d characters)" % (text[:60], len(text))


def json_int(value, name):
    """value if it is a JSON integer; a float, a string or a bool (an int
    subclass, hence the exact type test) is a ValueError, never truncated."""
    if type(value) is not int:
        raise ValueError("%s must be an integer, not %s" % (name, shown(value)))
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
    raise ValueError("unknown field kind %s" % shown(kind))
