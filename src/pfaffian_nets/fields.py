"""Exact coefficient fields: the rationals, prime fields and small extensions.

An element is its payload, whose shape depends on the field kind:

  * QQ        -- fractions.Fraction (always in lowest terms, denominator > 0)
  * GF(p)     -- int in [0, p)
  * GF(p^k)   -- tuple of k ints in [0, p), coefficients of the residue
                 polynomial in ascending degree order

The payload is the one scalar form: `elements()` yields payloads, and
arithmetic is the field's `add`, `sub`, `mul`, `neg` and `inv` on them.
This module is the only one that knows the payload shapes: `value_of`
turns an int, a Fraction or a payload tuple into the field's payload, and
`reduce_value` moves a payload to another field.  There is no implicit
field tower, so any other pair of fields raises FieldMismatchError.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction


class FieldMismatchError(TypeError):
    """Combination of elements that live in different fields."""


def _as_digits(n, p, k):
    digits = []
    for _ in range(k):
        digits.append(n % p)
        n //= p
    return tuple(digits)


# -- dense univariate helpers mod p (ascending coefficient lists), used only
#    for the irreducible-modulus search and extension arithmetic setup.

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a, b, mod, p):
    return _poly_divmod(_poly_mul(a, b, p), mod, p)[1]


def _poly_powmod(base, e, mod, p):
    result = [1]
    base = _poly_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_divmod(a, b, p):
    """Quotient and remainder of dense coefficient lists mod p."""
    q = [0] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    for i in range(len(rem) - 1, len(b) - 2, -1):
        c = rem[i]
        if c:
            f = c * inv_lead % p
            q[i - len(b) + 1] = f
            for j in range(len(b)):
                rem[i - len(b) + 1 + j] = (rem[i - len(b) + 1 + j] - f * b[j]) % p
    return q, _poly_trim(rem[:len(b) - 1])


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_trim(prod)


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _is_irreducible(coeffs, p, k):
    """coeffs: the k low-order coefficients of a monic degree-k candidate."""
    f = list(coeffs) + [1]
    # no factor of degree j < k  <=>  gcd(f, x^(p^j) - x) = 1 for all j < k
    xp = [0, 1]
    for _ in range(k - 1):
        xp = _poly_powmod(xp, p, f, p)
        g = list(xp)
        while len(g) < 2:
            g.append(0)
        g[1] = (g[1] - 1) % p
        g = _poly_trim(g)
        if len(_poly_gcd(f, g, p)) != 1:
            return False
    return True


def _find_modulus(p, k):
    """First monic irreducible of degree k, coefficients scanned in
    lexicographic order starting from the all-zero tuple."""
    for n in range(p ** k):
        coeffs = _as_digits(n, p, k)
        if _is_irreducible(coeffs, p, k):
            return coeffs + (1,)
    raise RuntimeError("no irreducible polynomial found (impossible)")


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Common interface; concrete kinds are QQ, GF(p) and GF(p^k)."""

    kind = None

    def __eq__(self, other):
        return isinstance(other, Field) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.name


class RationalField(Field):
    kind = "QQ"
    name = "QQ"
    key = ("QQ",)
    characteristic = 0
    order = None
    zero_value = Fraction(0)
    one_value = Fraction(1)

    def value_of(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError("cannot coerce %r into QQ" % (x,))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in QQ")
        return 1 / a

    def is_zero_value(self, a):
        return a == 0

    def format_value(self, a):
        return str(a)


class PrimeField(Field):
    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError("GF(p) needs a prime, got %d" % p)
        self.p = p
        self.kind = "GF(p)"
        self.name = "GF(%d)" % p
        self.key = ("GF", p, 1)
        self.characteristic = p
        self.order = p
        self.zero_value = 0
        self.one_value = 1 % p

    def value_of(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            num, den = x.numerator, x.denominator
            if den == 1:
                return num % self.p
            den %= self.p
            if den == 0:
                raise ZeroDivisionError(
                    "denominator not invertible mod %d" % self.p)
            return num * pow(den, self.p - 2, self.p) % self.p
        raise TypeError("cannot coerce %r into %s" % (x, self))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in %s" % self)
        return pow(a, self.p - 2, self.p)

    def is_zero_value(self, a):
        return a == 0

    def format_value(self, a):
        return str(a)

    def elements(self):
        return iter(range(self.p))


class ExtensionField(Field):
    """GF(p^k) as residue polynomials modulo a fixed monic irreducible.

    The modulus is found by deterministic lexicographic search, so two
    constructions of GF(p, k) are interchangeable.
    """

    MAX_DEGREE = 8

    def __init__(self, p, k):
        if not _is_prime(p):
            raise ValueError("GF(p^k) needs a prime p, got %d" % p)
        if not 2 <= k <= self.MAX_DEGREE:
            raise ValueError("extension degree must be in [2, %d], got %d"
                             % (self.MAX_DEGREE, k))
        self.p = p
        self.k = k
        self.kind = "GF(p^k)"
        self.name = "GF(%d^%d)" % (p, k)
        self.key = ("GF", p, k)
        self.characteristic = p
        self.order = p ** k
        self.modulus = _find_modulus(p, k)
        self.zero_value = (0,) * k
        self.one_value = (1,) + (0,) * (k - 1)
        # x^(k+i) mod modulus for i in [0, k-1), used to fold products back
        self._fold = []
        xq = [0] * k + [1]
        for _ in range(k - 1):
            red = _poly_divmod(xq, list(self.modulus), p)[1]
            red = tuple(red) + (0,) * (k - len(red))
            self._fold.append(red)
            xq = [0] + list(red)

    def value_of(self, x):
        p, k = self.p, self.k
        if isinstance(x, int):
            return (x % p,) + (0,) * (k - 1)
        if isinstance(x, tuple):
            if len(x) != k:
                raise ValueError("payload length %d != %d" % (len(x), k))
            return tuple(c % p for c in x)
        raise TypeError("cannot coerce %r into %s" % (x, self))

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        out = [c % p for c in prod[:k]]
        for i in range(k - 1):
            c = prod[k + i] % p
            if c:
                fold = self._fold[i]
                for j in range(k):
                    out[j] = (out[j] + c * fold[j]) % p
        return tuple(out)

    def inv(self, a):
        """a^(q-2) by square-and-multiply, the rule of `PrimeField.inv`."""
        if all(c == 0 for c in a):
            raise ZeroDivisionError("inverse of zero in %s" % self)
        result, e = self.one_value, self.order - 2
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def is_zero_value(self, a):
        return all(c == 0 for c in a)

    def format_value(self, a):
        if all(c == 0 for c in a[1:]):
            return str(a[0])
        parts = []
        for i in range(self.k - 1, -1, -1):
            c = a[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                g = "g" if i == 1 else "g^%d" % i
                parts.append(g if c == 1 else "%d*%s" % (c, g))
        return "(" + "+".join(parts) + ")"

    def elements(self):
        return itertools.product(range(self.p), repeat=self.k)


QQ = RationalField()


def GF(p, k=1):
    """The finite field with p^k elements (p prime, k <= 8), one per (p, k)."""
    return _finite_field(p, k)


@functools.cache
def _finite_field(p, k):
    return PrimeField(p) if k == 1 else ExtensionField(p, k)


def field_from_name(name):
    """Parse "QQ", "GF(p)" or "GF(p,k)" (used by fixture files)."""
    name = name.strip()
    if name == "QQ":
        return QQ
    if name.startswith("GF(") and name.endswith(")"):
        inner = name[3:-1]
        if "," in inner:
            ps, ks = inner.split(",")
            return GF(int(ps), int(ks))
        if "^" in inner:
            ps, ks = inner.split("^")
            return GF(int(ps), int(ks))
        return GF(int(inner))
    raise ValueError("unrecognized field name %r" % name)


def reduce_value(v, source, target):
    """Move a payload of `source` into `target`: QQ -> GF(p) by reduction
    (a denominator that p divides raises ZeroDivisionError), QQ -> GF(p^k)
    through GF(p), and GF(p) -> GF(p^k) by the prime-subfield embedding.
    Any other pair of distinct fields raises FieldMismatchError."""
    if source == target:
        return v
    if source.kind == "QQ" and target.kind == "GF(p^k)":
        return target.value_of(GF(target.p).value_of(v))
    if source.kind == "QQ" or (source.kind == "GF(p)" and target.kind
                               == "GF(p^k)" and target.p == source.p):
        return target.value_of(v)
    raise FieldMismatchError("no reduction from %s to %s" % (source, target))

