"""Sparse multivariate polynomials over the exact fields.

Terms live in a dict from exponent tuple to nonzero payload.  The only
monomial order used anywhere is graded lexicographic (total degree first,
then exponent tuples compared left to right), which fixes leading terms,
the text rendering, and the column order of Macaulay matrices.  Degrees in
this package stay small, so no packing tricks are needed.

Minors and Pfaffians of a matrix of linear forms come from one engine, not
from MultiPoly products.  The matrix is given as a stack: matrices C_l of
payloads, one per variable, standing for sum_l x_l C_l.  `minor_level` and
`pfaffian_level` expand one level at a time on dense arrays of exact codes
(`_MinorCodes`) over the exponent rows of `monomial_table`, which is built
once per process and read by the Hilbert ladder too.  The codes are scaled
integers over QQ and the `modnum.field_codes` of a finite field; a field
without codes raises ValueError.  `minor_polys`,
`pfaffian_polys`, `pfaffian_poly` and `det_poly` are the MultiPoly views of
a level, as `level_polys` makes them.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import numpy as np

from . import modnum
from .fields import FieldMismatchError, reduce_value


def grlex_key(exps):
    return (sum(exps), exps)


@functools.cache
def monomial_table(nvars, d):
    """The exponent tuples of total degree d >= 0 in descending graded-lex
    order, as a read-only (N, nvars) int64 array, built once per process
    and shared by every reader: for e0 = d..0, e0 beside the table of
    degree d - e0 in nvars - 1 variables."""
    if nvars <= 1:
        table = np.full((1 if nvars or not d else 0, nvars), d,
                        dtype=np.int64)
    else:
        parts = []
        for e0 in range(d, -1, -1):
            rest = monomial_table(nvars - 1, d - e0)
            part = np.empty((len(rest), nvars), dtype=np.int64)
            part[:, 0] = e0
            part[:, 1:] = rest
            parts.append(part)
        table = np.concatenate(parts)
    table.flags.writeable = False
    return table


def monomial_positions(nvars, d, exps):
    """The positions in `monomial_table(nvars, d)` of the degree-d exponent
    rows `exps` (any leading shape).  The table lists the rows read as
    base-(d + 1) digits in descending order, so one search finds them
    all."""
    weights = (d + 1) ** np.arange(nvars - 1, -1, -1, dtype=np.int64)
    return np.searchsorted(-(monomial_table(nvars, d) @ weights),
                           -(exps @ weights))


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


def pfaffian_poly(field, stack):
    """Pf(sum_l x_l C_l) as a MultiPoly, the top level of `pfaffian_level`."""
    return level_polys(*pfaffian_level(field, stack, len(stack[0])))[0]


def pfaffian_polys(field, stack, k):
    """Every principal k x k sub-Pfaffian of a skew stack, in
    `combinations` order of their index sets, built by `pfaffian_level`;
    only level k becomes MultiPolys."""
    return level_polys(*pfaffian_level(field, stack, k))


def level_polys(codes, level, monos, scales):
    """The MultiPolys level[i] / scales[i] of a level over `monos`."""
    field, nvars = codes.field, monos.shape[1]
    monos = [tuple(e) for e in monos.tolist()]
    terms = [{} for _ in range(len(level))]
    keys, at = np.nonzero(level != 0)
    keys = keys.tolist()
    if codes.fc is None:
        values = [Fraction(c, scales[key])
                  for key, c in zip(keys, level[keys, at].tolist())]
    else:
        values = codes.fc.decode(level[keys, at])
    for key, m, v in zip(keys, at.tolist(), values):
        terms[key][monos[m]] = v
    return [MultiPoly._raw(field, nvars, t) for t in terms]


_INT64_SAFE = 1 << 62  # a bound on every code below this keeps int64 exact


class _MinorCodes:
    """The minor and Pfaffian engine's exact arithmetic on arrays of codes,
    combined elementwise by add, sub and mul; code 0 is zero.

    * QQ: integers, row i of the stack scaled by the lcm s_i of its
      denominators (and, for a Pfaffian, column j by s_j too); a minor or
      sub-Pfaffian is divided back by the product of its rows' scales.
      They are int64 where a bound proves that no level overflows
      (`grid`), and Python ints in object arrays otherwise.
    * A finite field: its `modnum.field_codes`, int64, whose operations
      keep every level reduced.  A field without codes raises ValueError.
    """

    def __init__(self, field, stack):
        self.field = field
        self.scales = [1] * len(stack[0])
        self.fc = None
        self.add, self.sub, self.mul = np.add, np.subtract, np.multiply
        if field.kind == "QQ":
            self.scales = [lcm(*(c.denominator for C in stack for c in C[i]))
                           for i in range(len(stack[0]))]
        else:
            fc = self.fc = modnum.field_codes(field)
            self.add, self.sub, self.mul = fc.add, fc.sub, fc.mul

    def grid(self, stack, counts, skew=False):
        """The codes of a stack's entries as a (rows, cols, nvars) array:
        entry (i, j) holds the coefficient of x_l at l, its position in
        `monomial_table(nvars, 1)`.  Over QQ entry (i, j) is scaled by s_i,
        and by s_j too if `skew`, and the grid is int64 if a bound allows
        it.  `counts` lists how many products each level sums, the first
        level read straight from the grid counting 1.  With M the largest
        1-norm of an entry's codes, every partial sum of a level summing c
        products is at most c M B, B the bound of the level below: so the
        product of the c M.  For r x r minors the counts are 1..r; for
        k x k Pfaffians 1, 3, ..., k - 1."""
        if self.fc is not None:
            return self.fc.encode(stack).transpose(1, 2, 0)
        nvars, nrows, ncols = len(stack), len(stack[0]), len(stack[0][0])
        s = self.scales
        col_scales = s if skew else [1] * ncols
        grid = np.fromiter(
            (c.numerator * (s[i] // c.denominator) * col_scales[j]
             for i in range(nrows) for j in range(ncols)
             for c in (C[i][j] for C in stack)),
            dtype=object, count=nrows * ncols * nvars).reshape(
                nrows, ncols, nvars)
        norm = int(np.abs(grid).sum(axis=2).max(initial=0))
        if prod(c * norm for c in counts) < _INT64_SAFE:
            grid = grid.astype(np.int64)
        return grid

    def add_products(self, out, negate, coef, sub, shift, used):
        """out -/+= the products of the entries `coef` (one per row of
        `out`, codes over the variables) with the rows `sub` of the level
        below: each variable x_mu that occurs (`used`) scatters its
        coefficient times `sub` through the positions shift[mu] of x_mu
        times each monomial of `sub`, which are distinct because
        multiplication by x_mu is injective."""
        combine = self.sub if negate else self.add
        for mu in used:
            at = shift[mu]
            out[:, at] = combine(out[:, at], self.mul(coef[:, mu, None], sub))


def minor_polys(field, stack, r):
    """Every r x r minor of a stack, in (row combination, column
    combination) lexicographic order, built by `minor_level`; only the
    r x r minors become MultiPolys."""
    if r > min(len(stack[0]), len(stack[0][0])):
        return []
    return level_polys(*minor_level(field, stack, r))


def _shifts(nvars, k):
    """shift[l]: the positions in `monomial_table(nvars, k)` of x_l times
    each monomial of degree k - 1."""
    return monomial_positions(nvars, k, np.eye(nvars, dtype=np.int64)[:, None]
                              + monomial_table(nvars, k - 1)[None])


def minor_level(field, stack, r):
    """Every r x r minor of a stack, 1 <= r <= min(shape), as one array of
    exact codes: returns (codes, level, monos, scales), where row i of
    `level` holds the codes of minor i, in (row combination, column
    combination) lexicographic order, over the exponent rows `monos` of
    `monomial_table(nvars, r)`; `codes` is the `_MinorCodes` they are
    written in.  Over QQ minor i is level[i] / scales[i]; over a finite
    field every scale is 1 and the codes are the field's (over GF(p), the
    residues).

    A dense first-row Laplace expansion, one level k = 1..r at a time.
    Level k holds minor(rows, cols) for every k-combination of the columns
    and every k-combination of the rows that an r x r minor expands down
    to, as one array of coefficient codes over the monomials of degree k:
    minor(rows, cols) = sum_j +-entry(rows[0], cols[j])
    minor(rows[1:], cols without cols[j]), each product of an entry with
    a sub-minor scattered by `_MinorCodes.add_products`.  The arithmetic
    is exact (`_MinorCodes`)."""
    if r < 1:
        raise ValueError("minor size must be positive")
    nvars, nrows, ncols = len(stack), len(stack[0]), len(stack[0][0])
    codes = _MinorCodes(field, stack)
    grid = codes.grid(stack, range(1, r + 1))
    used = np.flatnonzero((grid != 0).any(axis=(0, 1))).tolist()
    # level 1: the entries in rows r - 1, r, ..., keyed row-major
    row_sets = [(i,) for i in range(r - 1, nrows)]
    col_sets = [(c,) for c in range(ncols)]
    level = grid[r - 1:].reshape(-1, nvars)
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
        shift = _shifts(nvars, k)
        out = np.zeros((nr * nc, len(monomial_table(nvars, k))),
                       dtype=grid.dtype)
        for j in range(k):
            codes.add_products(out, j % 2, grid[first, cols[:, j]],
                               level[sub_rows + sub_cols[:, j]], shift, used)
        level = out
    scales = [prod(codes.scales[i] for i in s) for s in row_sets
              for _ in col_sets]
    return codes, level, monomial_table(nvars, r), scales


def pfaffian_level(field, stack, k):
    """Every principal k x k sub-Pfaffian of a skew stack, k even with
    2 <= k <= size, as one array of exact codes: returns (codes, level,
    monos, scales), where row i of `level` holds the codes of the Pfaffian
    on the i-th k-subset of the indices in `combinations` order, over the
    exponent rows `monos` of `monomial_table(nvars, k/2)`; `codes` is the
    `_MinorCodes` they are written in, with scales as in `minor_level`.
    Only the entries above the diagonal are read, and Pf is an integer
    polynomial in them, so the expansion holds over every field.

    A dense first-row expansion, one level j = 2, 4, ..., k at a time, as
    in `minor_level`: Pf(S) = sum_pos (-1)^(pos+1) entry(S_0, S_pos)
    Pf(S without S_0, S_pos).  A k-subset expands into subsets that have
    lost their (k - j)/2 least indices, so level j holds every j-subset of
    (k - j)/2 .. size - 1.  Over QQ entry (i, j) is read as s_i s_j
    entry(i, j), which scales Pf(S) by the product of s_i over S."""
    nvars, size = len(stack), len(stack[0])
    if k < 2 or k % 2 or k > size:
        raise ValueError("sub-Pfaffian size must be even, from 2 to %d"
                         % size)
    codes = _MinorCodes(field, stack)
    grid = codes.grid(stack, range(1, k, 2), skew=True)
    used = np.flatnonzero((grid != 0).any(axis=(0, 1))).tolist()
    sets = list(combinations(range((k - 2) // 2, size), 2))
    pairs = np.array(sets)
    level = grid[pairs[:, 0], pairs[:, 1]]
    for j in range(4, k + 1, 2):
        index = {s: i for i, s in enumerate(sets)}
        sets = list(combinations(range((k - j) // 2, size), j))
        first = np.array([s[0] for s in sets])
        partners = np.array([s[1:] for s in sets])
        sub_sets = np.array([[index[s[1:pos] + s[pos + 1:]]
                              for pos in range(1, j)] for s in sets])
        shift = _shifts(nvars, j // 2)
        out = np.zeros((len(sets), len(monomial_table(nvars, j // 2))),
                       dtype=grid.dtype)
        for pos in range(j - 1):
            codes.add_products(out, pos % 2, grid[first, partners[:, pos]],
                               level[sub_sets[:, pos]], shift, used)
        level = out
    scales = [prod(codes.scales[i] for i in s) for s in sets]
    return codes, level, monomial_table(nvars, k // 2), scales


def det_poly(field, stack):
    """Polynomial determinant of a square stack, sizes <= 6: the single
    maximal minor."""
    n = len(stack[0])
    if n > 6:
        raise ValueError("polynomial determinant limited to size 6")
    if n == 0:
        raise ValueError("empty determinant")
    return minor_polys(field, stack, n)[0]
