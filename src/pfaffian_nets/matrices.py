"""Dense matrices over the exact fields, with rank/kernel certificates.

Entries are field payloads (Fraction / int / coefficient tuple), read as
`m.rows[i][j]`.  Elimination is plain Gauss-Jordan over prime and extension
fields, and fraction-free (Bareiss) over QQ to keep intermediate numerators
from exploding.

Batched finite-field matrix arithmetic, and the large GF(p) eliminations
of the Hilbert ladder, run on code arrays and int64 arrays in `modnum`;
ExactMatrix keeps `@`, `transpose` and elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class ExactMatrix:
    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        value_of = field.value_of
        self.rows = [[value_of(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.ncols = widths.pop()
        else:
            self.ncols = 0 if ncols is None else ncols
        if ncols is not None and self.nrows and self.ncols != ncols:
            raise ValueError("ncols mismatch")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero_value
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def from_columns(cls, field, cols, nrows=None):
        cols = list(cols)
        if not cols:
            return cls(field, [], ncols=0) if nrows is None \
                else cls.zeros(field, nrows, 0)
        n = len(cols[0])
        return cls(field, [[cols[j][i] for j in range(len(cols))]
                           for i in range(n)])

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.field == other.field and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __repr__(self):
        fmt = self.field.format_value
        body = "; ".join(" ".join(fmt(x) for x in row) for row in self.rows)
        return "ExactMatrix(%s, %dx%d: %s)" % (
            self.field, self.nrows, self.ncols, body)

    # -- arithmetic -----------------------------------------------------------

    def __matmul__(self, other):
        if self.ncols != other.nrows or self.field != other.field:
            raise ValueError("shape or field mismatch in matmul")
        f = self.field
        ocols = list(zip(*other.rows)) if other.rows else []
        out = []
        for row in self.rows:
            new = []
            for col in ocols:
                acc = f.zero_value
                for a, b in zip(row, col):
                    if not f.is_zero_value(a) and not f.is_zero_value(b):
                        acc = f.add(acc, f.mul(a, b))
                new.append(acc)
            out.append(new)
        return ExactMatrix(f, out, ncols=other.ncols)

    def transpose(self):
        return ExactMatrix(self.field, [list(col) for col in zip(*self.rows)],
                           ncols=self.nrows)

    def is_skew_symmetric(self):
        if self.nrows != self.ncols:
            return False
        f = self.field
        for i in range(self.nrows):
            if not f.is_zero_value(self.rows[i][i]):
                return False
            for j in range(i + 1, self.ncols):
                if self.rows[i][j] != f.neg(self.rows[j][i]):
                    return False
        return True

    # -- elimination ----------------------------------------------------------

    def rref(self):
        """(pivot columns, basis matrix): unique RREF basis of the row space."""
        if self.field.kind == "QQ":
            piv, rows = _rref_rational(self.rows, self.ncols)
        else:
            piv, rows = _rref_generic(self.field, self.rows, self.ncols)
        return piv, ExactMatrix(self.field, rows, ncols=self.ncols)

    def rank_kernel(self):
        """(rank, kernel basis as columns, ncols x nullity).

        The kernel matrix is in the canonical reduced form derived from the
        RREF: one column per free column (ascending), unit entry in that
        coordinate, zeros in the other free coordinates.
        """
        piv, basis = self.rref()
        f = self.field
        pivset = set(piv)
        free = [c for c in range(self.ncols) if c not in pivset]
        cols = []
        for fc in free:
            v = [f.zero_value] * self.ncols
            v[fc] = f.one_value
            for i, pc in enumerate(piv):
                v[pc] = f.neg(basis.rows[i][fc])
            cols.append(v)
        kern = ExactMatrix.from_columns(f, cols, nrows=self.ncols) if cols \
            else ExactMatrix.zeros(f, self.ncols, 0)
        return len(piv), kern

    def rank(self):
        return len(self.rref()[0])


# -- elimination backends -----------------------------------------------------

def _rref_generic(field, rows, ncols):
    work = [list(r) for r in rows]
    pivots = []
    pr = 0
    for c in range(ncols):
        hit = None
        for r in range(pr, len(work)):
            if not field.is_zero_value(work[r][c]):
                hit = r
                break
        if hit is None:
            continue
        work[pr], work[hit] = work[hit], work[pr]
        inv = field.inv(work[pr][c])
        work[pr] = [field.mul(inv, x) for x in work[pr]]
        prow = work[pr]
        for r in range(len(work)):
            if r != pr and not field.is_zero_value(work[r][c]):
                fct = work[r][c]
                work[r] = [field.sub(x, field.mul(fct, y))
                           for x, y in zip(work[r], prow)]
        pivots.append(c)
        pr += 1
        if pr == len(work):
            break
    return pivots, work[:pr]


def _int_rows(rows):
    """Scale each rational row to integers (row scaling preserves row space)."""
    out = []
    for row in rows:
        mult = lcm(*[f.denominator for f in row]) if row else 1
        out.append([int(f * mult) for f in row])
    return out


def _bareiss_echelon(rows, ncols):
    """Fraction-free forward elimination on integer rows.

    Returns (pivot columns, pivot row indices into the permuted work list,
    work rows).  Entries stay integral: the two-step division by the previous
    pivot is always exact.
    """
    work = [r[:] for r in rows]
    n = len(work)
    pivots = []
    pr = 0
    prev = 1
    for c in range(ncols):
        hit = None
        for r in range(pr, n):
            if work[r][c]:
                hit = r
                break
        if hit is None:
            continue
        work[pr], work[hit] = work[hit], work[pr]
        piv = work[pr][c]
        prow = work[pr]
        for r in range(pr + 1, n):
            wr = work[r]
            vc = wr[c]
            for j in range(c, ncols):
                wr[j] = (piv * wr[j] - vc * prow[j]) // prev
        pivots.append(c)
        pr += 1
        prev = piv
        if pr == n:
            break
    return pivots, work[:pr]


def _rref_rational(rows, ncols):
    int_rows = _int_rows(rows)
    pivots, ech = _bareiss_echelon(int_rows, ncols)
    # normalize and back-substitute with exact rationals
    basis = [[Fraction(x) for x in row] for row in ech]
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        inv = 1 / basis[i][c]
        basis[i] = [x * inv for x in basis[i]]
        for r in range(i):
            fct = basis[r][c]
            if fct:
                basis[r] = [x - fct * y for x, y in zip(basis[r], basis[i])]
    return pivots, basis
