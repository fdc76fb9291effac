"""Plucker geometry of Gr(2, 2m): coordinates, planes, lines, and exhaustive
enumeration over small finite fields.

Pair indexing is lexicographic on (i < j) throughout.  Projective
representatives are canonicalized by scaling the first nonzero coordinate
to 1, so equal points compare equal.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import modnum
from .matrices import ExactMatrix

_CHUNK = 2048  # points, planes or lines handled per vectorized block


@functools.cache
def pair_indices(two_m):
    pairs = [(i, j) for i in range(two_m) for j in range(i + 1, two_m)]
    return pairs, {p: k for k, p in enumerate(pairs)}


def gaussian_binomial(n, k, q):
    """Number of k-dim subspaces of an n-dim space over GF(q)."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


class PluckerPoint:
    """Projective point of P(Lambda^2 V) with canonical scaling; carries an
    optional 2-plane basis when it came from one."""

    __slots__ = ("field", "two_m", "coords", "basis")

    def __init__(self, field, two_m, coords, basis=None):
        pairs, _ = pair_indices(two_m)
        vals = [field.value_of(c) for c in coords]
        if len(vals) != len(pairs):
            raise ValueError("expected %d coordinates, got %d"
                             % (len(pairs), len(vals)))
        lead = next((v for v in vals if not field.is_zero_value(v)), None)
        if lead is None:
            raise ValueError("zero vector is not a projective point")
        inv = field.inv(lead)
        self.field = field
        self.two_m = two_m
        self.coords = tuple(field.mul(inv, v) for v in vals)
        self.basis = basis

    def __eq__(self, other):
        if not isinstance(other, PluckerPoint):
            return NotImplemented
        return (self.field == other.field and self.two_m == other.two_m
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field.key, self.two_m, self.coords))

    def __repr__(self):
        fmt = self.field.format_value
        return "PluckerPoint(%s)" % ", ".join(fmt(v) for v in self.coords)


def plucker_from_basis(b):
    """Plucker point of the row space of a rank-2 matrix (2 x 2m)."""
    if b.nrows != 2:
        raise ValueError("need exactly 2 rows")
    f = b.field
    two_m = b.ncols
    pairs, _ = pair_indices(two_m)
    r0, r1 = b.rows
    coords = [f.sub(f.mul(r0[i], r1[j]), f.mul(r0[j], r1[i]))
              for i, j in pairs]
    if all(f.is_zero_value(c) for c in coords):
        raise ValueError("rows are dependent: rank < 2")
    return PluckerPoint(f, two_m, coords, basis=b)


def echelon_pair_codes(n, field, limit=10_000_000):
    """The two rows of every 2 x n reduced echelon matrix over a finite
    field, one per 2-plane of field^n, as int64 code arrays of shape
    (B, 2, n), B <= _CHUNK, one pivot pair (c1, c2) at a time.  Row 1 has
    its 1 at c1 and row 2 at c2, and the free entries are the base-q
    digits of a running index; as a code is its element's index in
    `field.elements()`, the order is (pivot pair, free entries)
    lexicographic.  At most `limit` planes; a field without codes
    raises."""
    fc = modnum.field_codes(field)
    q = fc.q
    total = gaussian_binomial(n, 2, q)
    if total > limit:
        raise ValueError("Gr(2,%d) over GF(%d) has %d points, over the "
                         "limit %d" % (n, q, total, limit))
    for c1 in range(n - 1):
        for c2 in range(c1 + 1, n):
            free1 = [j for j in range(c1 + 1, n) if j != c2]
            free2 = list(range(c2 + 1, n))
            k = len(free1) + len(free2)
            weights = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
            for lo in range(0, q ** k, _CHUNK):
                idx = np.arange(lo, min(q ** k, lo + _CHUNK))
                digits = idx[:, None] // weights % q
                block = np.zeros((idx.size, 2, n), dtype=np.int64)
                block[:, 0, c1] = block[:, 1, c2] = fc.one
                block[:, 0, free1] = digits[:, :len(free1)]
                block[:, 1, free2] = digits[:, len(free1):]
                yield block


def enumerate_grassmannian(two_m, field, limit=10_000_000):
    """One representative per 2-plane via reduced echelon canonical forms,
    streamed in (pivot pair, free entries) lexicographic order."""
    fc = modnum.field_codes(field)
    for block in echelon_pair_codes(two_m, field, limit):
        for rows in fc.decode(block):
            yield plucker_from_basis(ExactMatrix(field, rows))


def enumerate_projective(field, dim):
    """Points of P^dim over a finite field as coordinate tuples (payloads),
    first nonzero coordinate scaled to 1."""
    if field.order is None:
        raise ValueError("enumeration needs a finite field")
    elements = list(field.elements())
    zero, one = field.zero_value, field.one_value
    n = dim + 1
    for lead in range(n):
        for tail in itertools.product(elements, repeat=n - lead - 1):
            yield (zero,) * lead + (one,) + tail


class GrassmannLine:
    """Pencil {U : v in U inside W} for a 3-dim W containing v, seen as a
    line in P(Lambda^2 V) spanned by v ^ w1 and v ^ w2."""

    __slots__ = ("field", "two_m", "v", "w1", "w2", "span")

    def __init__(self, field, two_m, v, w1, w2):
        self.field = field
        self.two_m = two_m
        self.v = tuple(v)
        self.w1 = tuple(w1)
        self.w2 = tuple(w2)
        p1 = plucker_from_basis(ExactMatrix(field, [list(v), list(w1)]))
        p2 = plucker_from_basis(ExactMatrix(field, [list(v), list(w2)]))
        if p1 == p2:
            raise ValueError("spanning points coincide; W is not 3-dim")
        self.span = (p1, p2)

    def point_at(self, s, t):
        """U(s:t) = span(v, s*w1 + t*w2); (s, t) not both zero."""
        f = self.field
        s, t = f.value_of(s), f.value_of(t)
        w = [f.add(f.mul(s, a), f.mul(t, b))
             for a, b in zip(self.w1, self.w2)]
        return plucker_from_basis(ExactMatrix(self.field,
                                              [list(self.v), w]))

    def __repr__(self):
        return "GrassmannLine(span=%r)" % (self.span,)


def pencil_line(v, w_basis):
    """Build the pencil line from a vector and a 3-dim subspace containing
    it; w_basis is a matrix whose rows span W."""
    if isinstance(w_basis, ExactMatrix):
        W = w_basis
    else:
        raise ValueError("w_basis must be an ExactMatrix of row vectors")
    f = W.field
    piv, basis = W.rref()
    if len(piv) != 3:
        raise ValueError("W must be 3-dimensional, got rank %d" % len(piv))
    vv = [f.value_of(x) for x in v]
    # coordinates of v in the reduced basis are its values at pivot columns
    alphas = [vv[c] for c in piv]
    recon = [f.zero_value] * W.ncols
    for a, row in zip(alphas, basis.rows):
        for k in range(W.ncols):
            recon[k] = f.add(recon[k], f.mul(a, row[k]))
    if recon != vv:
        raise ValueError("v does not lie in W")
    i0 = next((i for i, a in enumerate(alphas) if not f.is_zero_value(a)),
              None)
    if i0 is None:
        raise ValueError("v is zero")
    others = [basis.rows[i] for i in range(3) if i != i0]
    return GrassmannLine(f, W.ncols, vv, others[0], others[1])
