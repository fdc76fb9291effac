"""Sparse multivariate polynomials over the exact fields.

Terms live in a dict from exponent tuple to nonzero payload.  The only
monomial order used anywhere is graded lexicographic (total degree first,
then exponent tuples compared left to right), which fixes leading terms,
the text rendering, and the column order of Macaulay matrices.  Degrees in
this package stay small, so no packing tricks are needed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm, prod

import numpy as np

from . import modnum
from .fields import FieldMismatchError, reduce_value


def grlex_key(exps):
    return (sum(exps), exps)


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, in descending graded-lex order."""
    if nvars == 0:
        if d == 0:
            yield ()
        return
    if nvars == 1:
        yield (d,)
        return
    for e0 in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - e0):
            yield (e0,) + rest


class MultiPoly:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError("bad exponent tuple %r" % (exps,))
                v = field.value_of(c)
                if not field.is_zero_value(v):
                    clean[exps] = v
        self.terms = clean

    @classmethod
    def _raw(cls, field, nvars, terms):
        p = object.__new__(cls)
        p.field = field
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, field, nvars):
        return cls._raw(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, c):
        v = field.value_of(c)
        if field.is_zero_value(v):
            return cls.zero(field, nvars)
        return cls._raw(field, nvars, {(0,) * nvars: v})

    @classmethod
    def variable(cls, field, nvars, i):
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls._raw(field, nvars, {exps: field.one_value})

    @classmethod
    def monomial(cls, field, nvars, exps, c=1):
        return cls(field, nvars, {tuple(exps): c})

    @classmethod
    def linear_form(cls, field, coeffs):
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            v = field.value_of(c)
            if not field.is_zero_value(v):
                terms[tuple(1 if j == i else 0 for j in range(n))] = v
        return cls._raw(field, n, terms)

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        degs = {sum(e) for e in self.terms}
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop() if degs else None

    def leading(self):
        """(exponent tuple, coefficient payload) of the graded-lex top term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]),
                      reverse=True)

    def coefficient(self, exps):
        """The payload of the term with these exponents (zero if absent)."""
        return self.terms.get(tuple(exps), self.field.zero_value)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return (self.field == other.field and self.nvars == other.nvars
                    and self.terms == other.terms)
        if isinstance(other, int) and other == 0:
            return not self.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.field.key, self.nvars,
                     tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return "MultiPoly(%s, %s)" % (self.field, self.render())

    # -- arithmetic ----------------------------------------------------------

    def _compat(self, other):
        if self.field != other.field:
            raise FieldMismatchError("mixed-field polynomial arithmetic")
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch: %d vs %d"
                             % (self.nvars, other.nvars))

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._compat(other)
        f = self.field
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = f.add(out.get(exps, f.zero_value), c)
            if f.is_zero_value(s):
                out.pop(exps, None)
            else:
                out[exps] = s
        return MultiPoly._raw(f, self.nvars, out)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        f = self.field
        return MultiPoly._raw(f, self.nvars,
                              {e: f.neg(c) for e, c in self.terms.items()})

    def scale(self, c):
        """The polynomial times c, an int, a Fraction or a payload."""
        f = self.field
        v = f.value_of(c)
        if f.is_zero_value(v):
            return MultiPoly.zero(f, self.nvars)
        return MultiPoly._raw(f, self.nvars,
                              {e: f.mul(v, x) for e, x in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._compat(other)
        f = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = f.add(out.get(e, f.zero_value), f.mul(c1, c2))
                if f.is_zero_value(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly._raw(f, self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = MultiPoly.constant(self.field, self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- calculus and evaluation ---------------------------------------------

    def partial(self, i):
        f = self.field
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = exps[:i] + (e - 1,) + exps[i + 1:]
            v = f.mul(f.value_of(e), c)
            if not f.is_zero_value(v):
                s = f.add(out.get(new, f.zero_value), v)
                if f.is_zero_value(s):
                    out.pop(new, None)
                else:
                    out[new] = s
        return MultiPoly._raw(f, self.nvars, out)

    def evaluate(self, point):
        """The payload of the value at a point whose coordinates are
        payloads or ints; test it with the field's `is_zero_value`, as a
        GF(p^k) zero payload is a nonempty tuple."""
        f = self.field
        vals = [f.value_of(x) for x in point]
        if len(vals) != self.nvars:
            raise ValueError("point has %d coordinates, expected %d"
                             % (len(vals), self.nvars))
        acc = f.zero_value
        for exps, c in self.terms.items():
            term = c
            for x, e in zip(vals, exps):
                for _ in range(e):
                    term = f.mul(term, x)
            acc = f.add(acc, term)
        return acc

    def substitute(self, subs):
        """Compose: replace variable i by subs[i] (polynomials over the same
        field, all with a common nvars)."""
        if len(subs) != self.nvars:
            raise ValueError("need one substitute per variable")
        f = self.field
        nv = subs[0].nvars
        for s in subs:
            if s.field != f:
                raise FieldMismatchError("substitution across fields")
            if s.nvars != nv:
                raise ValueError("substitutes disagree on nvars")
        out = MultiPoly.zero(f, nv)
        # horner-free: powers built per term; degrees here are tiny
        for exps, c in self.terms.items():
            term = MultiPoly.constant(f, nv, c)
            for s, e in zip(subs, exps):
                for _ in range(e):
                    term = term * s
            out = out + term
        return out

    def map_field(self, target):
        """Move coefficients into `target` via reduce_value."""
        out = {}
        for exps, c in self.terms.items():
            v = reduce_value(c, self.field, target)
            if not target.is_zero_value(v):
                out[exps] = v
        return MultiPoly._raw(target, self.nvars, out)

    def normalized(self):
        """Scale to the canonical representative of the projective class:
        leading graded-lex coefficient 1 over GF, and over QQ integer
        coefficients with content 1 and positive leading coefficient."""
        if not self.terms:
            return self
        f = self.field
        _, lead = self.leading()
        if f.kind == "QQ":
            denom_lcm = 1
            for c in self.terms.values():
                denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm,
                                                             c.denominator)
            content = 0
            for c in self.terms.values():
                content = gcd(content, int(c * denom_lcm))
            scale = Fraction(denom_lcm, content)
            if lead < 0:
                scale = -scale
            return self.scale(scale)
        return self.scale(f.inv(lead))

    # -- text form -----------------------------------------------------------

    def render(self, names=None):
        """Canonical text: terms in descending graded-lex order, every
        coefficient explicit, factors joined by '*', terms by ' + '."""
        if not self.terms:
            return "0"
        if names is None:
            names = ["x%d" % i for i in range(self.nvars)]
        fmt = self.field.format_value
        parts = []
        for exps, c in self.sorted_terms():
            factors = [fmt(c)]
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append("%s^%d" % (names[i], e))
            parts.append("*".join(factors))
        return " + ".join(parts)


class SkewPolyMatrix:
    """Even-size grid of polynomials with entry[i][j] = -entry[j][i] and a
    zero diagonal, checked on construction."""

    __slots__ = ("field", "size", "nvars", "entries")

    def __init__(self, entries):
        size = len(entries)
        if size == 0 or any(len(row) != size for row in entries):
            raise ValueError("entries must form a nonempty square grid")
        if size % 2:
            raise ValueError("skew matrix size must be even")
        field = entries[0][0].field
        nvars = entries[0][0].nvars
        for i in range(size):
            if not entries[i][i].is_zero():
                raise ValueError("nonzero diagonal entry at %d" % i)
            for j in range(size):
                e = entries[i][j]
                if e.field != field or e.nvars != nvars:
                    raise ValueError("entries disagree on field or nvars")
                if j > i and e != -entries[j][i]:
                    raise ValueError("entries are not skew-symmetric at (%d,%d)"
                                     % (i, j))
        self.field = field
        self.size = size
        self.nvars = nvars
        self.entries = [list(row) for row in entries]

    @classmethod
    def from_upper(cls, field, nvars, size, upper):
        """Build from a dict {(i, j): MultiPoly} over i < j."""
        zero = MultiPoly.zero(field, nvars)
        grid = [[zero for _ in range(size)] for _ in range(size)]
        for (i, j), p in upper.items():
            grid[i][j] = p
            grid[j][i] = -p
        return cls(grid)

    def evaluate(self, point):
        from .matrices import ExactMatrix
        return ExactMatrix(self.field,
                           [[e.evaluate(point) for e in row]
                            for row in self.entries])

    def entry_degree(self):
        """Common homogeneous degree of the nonzero entries (None if all 0)."""
        degs = set()
        for row in self.entries:
            for e in row:
                if not e.is_zero():
                    d = e.homogeneous_degree()
                    degs.add(d)
        if len(degs) > 1:
            raise ValueError("entries are homogeneous of different degrees")
        return degs.pop() if degs else None


MAX_POLY_PFAFFIAN_SIZE = 8


def pfaffian_poly(m):
    """Pfaffian of a SkewPolyMatrix (or a raw skew grid) by first-row
    expansion; entries must share one homogeneous degree d, and the result
    is homogeneous of degree (size/2)*d."""
    if not isinstance(m, SkewPolyMatrix):
        m = SkewPolyMatrix(m)
    if m.size > MAX_POLY_PFAFFIAN_SIZE:
        raise ValueError("polynomial pfaffian limited to size %d"
                         % MAX_POLY_PFAFFIAN_SIZE)
    if m.field.characteristic == 2:
        raise ValueError("pfaffians are not computed in characteristic 2")
    m.entry_degree()  # raises if mixed degrees
    entries = m.entries
    f = m.field
    nv = m.nvars

    def expand(idx):
        if not idx:
            return MultiPoly.constant(f, nv, 1)
        i0 = idx[0]
        acc = MultiPoly.zero(f, nv)
        for pos in range(1, len(idx)):
            a = entries[i0][idx[pos]]
            if a.is_zero():
                continue
            rest = idx[1:pos] + idx[pos + 1:]
            term = a * expand(rest)
            acc = acc + term if pos % 2 == 1 else acc - term
        return acc

    return expand(tuple(range(m.size)))


_INT64_SAFE = 1 << 62  # a bound on every code below this keeps int64 exact


def _monomials(nvars, lo, hi):
    """The monomials of degrees lo..hi, each degree in `monomials_of_degree`
    order, and their positions."""
    monos = [e for d in range(lo, hi + 1)
             for e in monomials_of_degree(nvars, d)]
    return monos, {e: i for i, e in enumerate(monos)}


class _MinorCodes:
    """The minor engine's exact arithmetic on arrays of field codes,
    combined elementwise by add, sub and mul and reduced after each level.

    * QQ: integers, row i of the grid scaled by the lcm of its
      denominators; a minor is divided back by its rows' scales.
    * GF(p): residues, reduced mod p.
    * GF(p^k): the `modnum.field_codes` up to order 64; above that, the
      payloads themselves through the field's own operations.

    Integer codes are int64 where a bound proves that no level overflows:
    every partial sum in a k x k minor is at most k M B, with M the largest
    1-norm of an entry's codes and B the bound of the (k-1) x (k-1) minors,
    which is p - 1 over GF(p) once reduced; so r! M^r over QQ and
    r M (p - 1) over GF(p).  Otherwise they are Python ints in object
    arrays."""

    def __init__(self, field, entries):
        self.field = field
        self.scales = [1] * len(entries)
        self.add, self.sub, self.mul = np.add, np.subtract, np.multiply
        self.modulus = None
        self.zero = 0
        self.dtype = object
        self.encode = lambda c, i: c
        self.value = lambda c, scale: c
        self.nonzero = lambda x: x != 0
        if field.kind == "QQ":
            self.scales = [lcm(*(c.denominator for e in row
                                 for c in e.terms.values()))
                           for row in entries]
            self.encode = lambda c, i: \
                c.numerator * (self.scales[i] // c.denominator)
            self.value = Fraction
        elif field.kind == "GF(p)":
            self.modulus = field.p
        elif field.order <= modnum.TABLE_ORDER:
            fc = modnum.field_codes(field)
            self.add, self.sub, self.mul = fc.add, fc.sub, fc.mul
            self.encode = lambda c, i: fc.encode(c)
            self.value = lambda c, scale: fc.decode(c)
            self.dtype = np.int64
        else:
            self.add, self.sub, self.mul = (
                np.frompyfunc(op, 2, 1)
                for op in (field.add, field.sub, field.mul))
            self.zero = field.zero_value
            is_zero = np.frompyfunc(field.is_zero_value, 1, 1)
            self.nonzero = lambda x: ~is_zero(x).astype(bool)

    def zeros(self, shape):
        out = np.empty(shape, dtype=self.dtype)
        out.fill(self.zero)
        return out

    def reduce(self, x):
        return x if self.modulus is None else x % self.modulus

    def narrow(self, grid, r):
        """The grid's codes, as int64 if the bound allows it."""
        if self.field.kind not in ("QQ", "GF(p)"):
            return grid
        norm = int(np.abs(grid).sum(axis=2).max())
        bound = factorial(r) * norm ** r if self.modulus is None \
            else r * norm * (self.modulus - 1)
        if bound >= _INT64_SAFE:
            return grid
        self.dtype = np.int64
        return grid.astype(np.int64)


def minor_polys(entries, r):
    """Every r x r minor of a grid of polynomials, in (row combination,
    column combination) lexicographic order.

    A dense first-row Laplace expansion, one level k = 1..r at a time.
    Level k holds minor(rows, cols) for every k-combination of the columns
    and every k-combination of the rows that an r x r minor expands down
    to, as one array of coefficient codes over the monomials of its
    degrees: minor(rows, cols) = sum_j +-entry(rows[0], cols[j])
    minor(rows[1:], cols without cols[j]).  Multiplying by an entry sums,
    over its monomials mu, its coefficient times the sub-minor scattered
    through the positions of mu times each monomial, which are distinct
    because multiplication by mu is injective.  The arithmetic is exact
    (`_MinorCodes`); only the r x r minors become MultiPolys."""
    if r < 1:
        raise ValueError("minor size must be positive")
    nrows, ncols = len(entries), len(entries[0])
    if r > min(nrows, ncols):
        return []
    field, nvars = entries[0][0].field, entries[0][0].nvars
    codes = _MinorCodes(field, entries)
    degrees = {sum(e) for row in entries for p in row for e in p.terms} \
        or {0}
    lo, hi = min(degrees), max(degrees)
    entry_monos, entry_index = _monomials(nvars, lo, hi)
    grid = codes.zeros((nrows, ncols, len(entry_monos)))
    for i, row in enumerate(entries):
        for j, p in enumerate(row):
            for e, c in p.terms.items():
                grid[i, j, entry_index[e]] = codes.encode(c, i)
    grid = codes.narrow(grid, r)
    used = np.nonzero(codes.nonzero(grid).any(axis=(0, 1)))[0].tolist()
    # level 1: the entries in rows r - 1, r, ..., keyed row-major
    row_sets = [(i,) for i in range(r - 1, nrows)]
    col_sets = [(c,) for c in range(ncols)]
    level = grid[r - 1:].reshape(-1, len(entry_monos))
    monos = entry_monos
    for k in range(2, r + 1):
        row_index = {s: i for i, s in enumerate(row_sets)}
        col_index = {s: i for i, s in enumerate(col_sets)}
        nsub = len(col_sets)
        row_sets = list(combinations(range(r - k, nrows), k))
        col_sets = list(combinations(range(ncols), k))
        nr, nc = len(row_sets), len(col_sets)
        first = np.repeat([s[0] for s in row_sets], nc)
        sub_rows = np.repeat([row_index[s[1:]] for s in row_sets], nc) * nsub
        cols = np.tile(np.array(col_sets), (nr, 1))
        sub_cols = np.tile(np.array(
            [[col_index[s[:j] + s[j + 1:]] for j in range(k)]
             for s in col_sets]), (nr, 1))
        sub_monos = monos
        monos, index = _monomials(nvars, k * lo, k * hi)
        shift = np.array([[index[tuple(x + y for x, y in zip(mu, nu))]
                           for nu in sub_monos] for mu in entry_monos],
                         dtype=np.int64)
        out = codes.zeros((nr * nc, len(monos)))
        for j in range(k):
            combine = codes.sub if j % 2 else codes.add
            coef = grid[first, cols[:, j]]
            sub = level[sub_rows + sub_cols[:, j]]
            for mu in used:
                at = shift[mu]
                out[:, at] = combine(out[:, at],
                                     codes.mul(coef[:, mu, None], sub))
        level = codes.reduce(out)
    nc = len(col_sets)
    scales = [prod(codes.scales[i] for i in s) for s in row_sets]
    terms = [{} for _ in range(len(row_sets) * nc)]
    keys, at = np.nonzero(codes.nonzero(level))
    for key, m, c in zip(keys.tolist(), at.tolist(),
                         level[keys, at].tolist()):
        terms[key][monos[m]] = codes.value(c, scales[key // nc])
    return [MultiPoly._raw(field, nvars, t) for t in terms]


def det_poly(entries):
    """Polynomial determinant of a square grid, sizes <= 6: the single
    maximal minor."""
    n = len(entries)
    if n > 6:
        raise ValueError("polynomial determinant limited to size 6")
    if n == 0:
        raise ValueError("empty determinant")
    return minor_polys(entries, n)[0]
