"""The three-way dictionary: a net of skew forms, its Pfaffian hypersurface
Y with the kernel embedding kappa, and the dual linear section X of the
Grassmannian, together with the quartic Q, the curve C, fibers, lines, and
classification of fixtures.

Everything is exact.  Over small finite fields every pointwise question
(rank tables, the points of X and Y, kernel planes, the tangent test of X,
the fibers at curve points) is answered on arrays of field codes by the
batched kernels of modnum.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import modnum
from .fields import GF, QQ, FieldMismatchError, reduce_value
from .grassmann import (_CHUNK, echelon_pair_codes, enumerate_projective,
                        pair_indices, pencil_line, plucker_from_basis,
                        projective_line)
from .ideals import (EMPTY, INCONCLUSIVE, NONEMPTY, DEFAULT_DEGREE_CAP,
                     DEFAULT_PRIME, HomogeneousIdeal, check_ideal_field,
                     is_empty_projective, minors_ideal, other_prime)
from .matrices import ExactMatrix
from .multipoly import MultiPoly, level_polys, minor_polys, pfaffian_level


class ANet:
    """n linearly independent skew 2m x 2m matrices F_1..F_n over one field;
    f(a) = sum a_i F_i is the induced pencil-of-nets map A -> Lambda^2 V*.
    Stored as a fixture stores it, per form the C(2m, 2) entries (F)_{ij},
    i < j, in `pair_indices` order: every F_i is skew by construction.

    A net is never changed after construction, so it owns what is derived
    from it: `derived` builds each object (the cubic, the quartic, the
    linear stack of each side, point sets, reductions to other fields) once
    per instance, and makes an array it keeps read-only, as every caller
    shares it.  A net that `over` made names the net it was reduced from
    as `source` (None otherwise), so that a net and its reductions share
    one expansion of the cubic."""

    def __init__(self, field, two_m, triangles):
        if not triangles:
            raise ValueError("a net needs at least one matrix")
        if two_m % 2:
            raise ValueError("V must be even-dimensional")
        npairs = len(pair_indices(two_m)[0])
        for tri in triangles:
            if len(tri) != npairs:
                raise ValueError("expected %d upper entries, got %d"
                                 % (npairs, len(tri)))
        coeff = ExactMatrix(field, triangles)
        self.field, self.n, self.two_m = field, len(triangles), two_m
        self.triangles = tuple(map(tuple, coeff.rows))
        if coeff.rank() != self.n:
            raise ValueError("net matrices are linearly dependent")
        self._derived = {}
        self.source = None

    @classmethod
    def from_upper_triangles(cls, field, two_m, triangles):
        """The same as `ANet(field, two_m, triangles)`."""
        return cls(field, two_m, triangles)

    def derived(self, key, build):
        """The value of `build()`, built once per key for this net; a build
        that raises is not remembered and raises again on the next call."""
        if key not in self._derived:
            value = self._derived[key] = build()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return self._derived[key]

    def over(self, field):
        """This net with its entries moved into `field` by `reduce_value`:
        itself when it is already over `field`, else one memoized net."""
        if field == self.field:
            return self

        def build():
            net = ANet(field, self.two_m, [[reduce_value(v, self.field, field)
                                            for v in tri]
                                           for tri in self.triangles])
            net.source = self.source or self
            return net
        return self.derived(("over", field), build)

    def reaches(self, field):
        """Whether this net reduces to `field`: `over(field)` builds, so
        the field has this net's characteristic (or the net is over QQ),
        no denominator vanishes in it, and the reduced matrices stay
        independent."""
        try:
            self.over(field)
        except (FieldMismatchError, ValueError, ZeroDivisionError):
            return False
        return True

    def __repr__(self):
        return "ANet(n=%d, 2m=%d over %s)" % (self.n, self.two_m, self.field)

    # -- evaluation ----------------------------------------------------------

    def f_at(self, a):
        """The skew matrix f(a) = sum a_i F_i at a coefficient vector a."""
        return _combination(self.field, self.stack("a"), a)

    def stack(self, side):
        """The matrices C_j of one side as one linear stack, nested tuples
        of the net's payloads: side "a" is f(a) = sum_j a_j C_j, so C_j =
        F_j; side "v" is f_v = sum_l v_l C_l (row i of f_v is v^T F_i), so
        C_l[i][k] = (F_i)_{lk}.  Built once per net."""
        if side not in ("a", "v"):
            raise ValueError("side must be 'a' or 'v'")

        def build():
            if side == "v":
                return tuple(zip(*self.stack("a")))
            f, pairs = self.field, pair_indices(self.two_m)[0]
            mats = []
            for tri in self.triangles:
                F = [[f.zero_value] * self.two_m for _ in range(self.two_m)]
                for (i, j), v in zip(pairs, tri):
                    F[i][j], F[j][i] = v, f.neg(v)
                mats.append(tuple(map(tuple, F)))
            return tuple(mats)
        return self.derived(("stack", side), build)


def _combination(f, stack, x):
    """The ExactMatrix sum_j x_j C_j of a stack (`ANet.stack`)."""
    vals = [f.value_of(c) for c in x]
    if len(vals) != len(stack):
        raise ValueError("expected %d coefficients" % len(stack))
    out = ExactMatrix.zeros(f, len(stack[0]), len(stack[0][0]))
    for c, C in zip(vals, stack):
        if not f.is_zero_value(c):
            for row, orow in zip(C, out.rows):
                for j, v in enumerate(row):
                    orow[j] = f.add(orow[j], f.mul(c, v))
    return out


# -- the point oracle ---------------------------------------------------------

_TABLE_POINTS = 100_000  # the largest space `RankOracle.ranks` tabulates

def _matmul(fc, x, y):
    """The products x[k] @ y[k] of two stacks of code matrices of the
    FieldCodes `fc`, the stack dimensions broadcast against each other.
    Over GF(p) a code is its residue and K (p-1)^2 < 2^63 for an inner
    dimension K and p <= MAX_PRIME, so one integer matmul mod p is exact;
    over GF(p^k) the products are summed in the table arithmetic."""
    if fc.prime:
        return np.matmul(x, y) % fc.q
    out = np.zeros(x.shape[:-1] + y.shape[-1:], dtype=np.int64)
    for l in range(x.shape[-1]):
        out = fc.add(out, fc.mul(x[..., :, l, None], y[..., l, None, :]))
    return out


def _combine(fc, stack, coeffs):
    """sum_j coeffs[k, j] stack[j] for each row k of coeffs."""
    return _matmul(fc, coeffs, stack.reshape(len(stack), -1)).reshape(
        (len(coeffs),) + stack.shape[1:])


def _u_sides(fc, bases):
    """U's RREF basis, its pivot columns and its complement columns (both
    ascending), for a stack of 2 x 2m bases."""
    two_m = bases.shape[2]
    _, red, piv = modnum.batch_rref_table(bases, fc)
    order = np.argsort(piv, axis=1, kind="stable")
    return red, order[:, two_m - 2:], order[:, :two_m - 2]


def _kernels(fc, stack, coeffs):
    """sum_j coeffs[k, j] stack[j] for each row k of coeffs, its rank, and
    its kernel as the rows `ExactMatrix.rank_kernel` gives: one per free
    column of the RREF, ascending, with the unit there and minus the
    reduced rows' entries in that column at the pivot columns.  Kernels
    are zero-padded to the largest nullity."""
    mats = _combine(fc, stack, coeffs)
    rank, red, piv = modnum.batch_rref_table(mats, fc)
    n, r, c = red.shape
    row_of = np.clip(np.cumsum(piv, axis=1) - 1, 0, r - 1)
    # at_pivots[k, j, col]: the entry in column j of the row pivoting at col
    at_pivots = red[np.arange(n)[:, None], row_of].transpose(0, 2, 1)
    full = np.where(piv[:, None, :], fc.sub(fc.zero, at_pivots),
                    np.eye(c, dtype=np.int64) * fc.one)
    nullity = c - rank
    width = int(nullity.max()) if n else 0
    order = np.argsort(piv, axis=1, kind="stable")[:, :width]
    rows = np.take_along_axis(full, order[:, :, None], axis=1)
    kernel = np.where(
        np.arange(width)[None, :, None] < nullity[:, None, None], rows, 0)
    return mats, rank, kernel


def _blocks(idx):
    """An index array in consecutive blocks of _CHUNK, at least one."""
    return np.array_split(idx, range(_CHUNK, len(idx), _CHUNK))


def _phi_bases(fc, stack, vs, params):
    """The basis of U that `phi_fiber` (and `GrassmannLine.point_at` on a
    line) gives for each v: the kernel rows of f_v when rank f_v = 4; when
    it is 3, (v, s w1 + t w2) with (s, t) = params[k] and w1, w2 the rows
    of the RREF of Ker f_v other than the first one at whose pivot column
    v is nonzero (`pencil_line`)."""
    _, rank, kernel = _kernels(fc, stack, vs)
    bases = kernel[:, :2].copy()
    line = np.nonzero(rank == 3)[0]
    if line.size:
        _, w, w_piv = modnum.batch_rref_table(kernel[line, :3], fc)
        pivots = np.argsort(~w_piv, axis=1, kind="stable")[:, :3]
        alphas = np.take_along_axis(vs[line], pivots, axis=1)
        others = np.array([[1, 2], [0, 2], [0, 1]])[(alphas != 0).argmax(1)]
        w1, w2 = np.moveaxis(
            np.take_along_axis(w, others[:, :, None], axis=1), 1, 0)
        s, t = params[line, :1], params[line, 1:]
        bases[line] = np.stack(
            [vs[line], fc.add(fc.mul(s, w1), fc.mul(t, w2))], axis=1)
    return bases


class RankOracle:
    """The rank of the matrix a net over a finite field assigns to each
    point of a projective space: side "a" is f(a) = sum a_i F_i on P(A),
    side "v" is f_v (row i = v^T F_i) on P(V).  Either is sum_j x_j C_j
    for the stack of code matrices C_j (`stack`), `ANet.stack(side)`
    encoded.  An oracle belongs to one net over its own field; a net over
    another field is asked through its reduction (`rank_oracle`).

    Over a field of order <= `modnum.TABLE_ORDER` the ranks of the whole
    space form one int8 table in `enumerate_projective` order.  Side "a"
    is screened by the cubic: Pf(f(a))^2 = det f(a), so rank f(a) < 2m
    exactly at the zeros of Pf, and only they are row-reduced
    (`_kernels`); the table reads 2m everywhere else.  The cubic is the
    level of the net this one was reduced from (`ANet.source`), its integer
    rows or codes brought into the field, so one expansion serves a net and
    all its reductions.  The rank and kernel rows of f(a) at each point of
    Y are kept with the table (`on_y`), and `kernels` reads them.  Side "v"
    is built by one walk over those kernels (`_walk`).  A point's index is
    the offset of the block where its leading 1 sits plus the base-q code
    of its normalized tail.  The ranks of a batch of points (`ranks`) read
    the table's copy by code (`by_code`) when the space has at most
    _TABLE_POINTS points: one int8 entry per code vector x, at
    x @ (q^(k-1), ..., q, 1), so no point is normalized.  Otherwise they
    read the table at `indices` if it is built, and are computed from the
    stack if not."""

    def __init__(self, net, side):
        fc = self.fc = modnum.field_codes(net.field)
        self.stack = fc.encode(net.stack(side))
        self.field, self.side, self._net = net.field, side, net
        q, k = fc.q, len(self.stack)
        self.size = (q ** k - 1) // (q - 1)
        self._table = None
        self._on_y = None
        self._by_code = None
        self._small = q <= modnum.TABLE_ORDER and self.size <= _TABLE_POINTS
        # coordinate j weighs q^(k-1-j); block l (leading 1 at l) has
        # q^(k-1-l) points, and its tail is the coordinates after l
        self._weights = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
        self._offsets = np.concatenate(([0], np.cumsum(self._weights)[:-1]))

    @property
    def table(self):
        """The rank at every point, in enumeration order."""
        if self._table is None:
            if self.fc.q > modnum.TABLE_ORDER:
                raise ValueError("no rank table over %s" % self.field)
            if self.side == "v":
                table = self._walk(rank_oracle(self._net, self.field, "a"))
            else:
                table = self._screened()
            self._table = table
        return self._table

    @property
    def by_code(self):
        """The rank at every code vector x, at x @ (q^(k-1), ..., q, 1)
        (0 at x = 0): block l's table entries written at s times each
        normalized tail, for every nonzero scalar s, the tails of width d
        scaled digit by digit through the mul table."""
        if self._by_code is None:
            fc, q = self.fc, self.fc.q
            table = self.table
            out = np.zeros(q * self._weights[0], dtype=np.int8)
            scalars = np.arange(1, q)[:, None]
            # tails[s - 1, t]: the code number of s times tail t of width d
            tails = np.zeros((q - 1, 1), dtype=np.int64)
            for l in range(len(self._weights) - 1, -1, -1):
                w, lo = self._weights[l], self._offsets[l]
                out[scalars * w + tails] = table[lo:lo + w]
                if l:
                    tails = (fc.mul(scalars, np.arange(q))[:, :, None] * w
                             + tails[:, None, :]).reshape(q - 1, -1)
            self._by_code = out
        return self._by_code

    @property
    def on_y(self):
        """Side "a": the indices of the points of Y, with the ranks and the
        kernels `_kernels` gives there, zero-padded to the largest nullity;
        built with the table."""
        self.table
        return self._on_y

    def _screened(self):
        """The side "a" table, and `on_y`."""
        two_m = self.stack.shape[1]
        y = self.zeros(_pfaffians(self._net.source or self._net, two_m))
        parts = [_kernels(self.fc, self.stack, self._codes_at(idx))[1:]
                 for idx in _blocks(y)]
        width = max(kernel.shape[1] for _, kernel in parts)
        rank = np.concatenate([rank for rank, _ in parts])
        kernel = np.concatenate([np.pad(k, ((0, 0), (0, width - k.shape[1]),
                                            (0, 0))) for _, k in parts])
        self._on_y = (y, rank, kernel)
        table = np.full(self.size, two_m, dtype=np.int8)
        table[y] = rank
        return table

    def zeros(self, level):
        """The indices of the points where every form of a level of
        `pfaffian_level` (of a net over any field this one reduces from)
        vanishes, its integer rows or its field's codes brought into this
        field by `reduce_value`.

        Block j of the enumeration is x_0 = ... = x_(j-1) = 0, x_j = 1, its
        tail x_(j+1), ..., x_(k-1) running over the grid F^(k-1-j) in
        base-q order.  The variables are summed out over the whole field
        from the last one on: `values` holds, per distinct exponent prefix
        over x_0, ..., x_j, its coefficient's values on the grid of the
        variables summed out, and summing out x_j merges the prefixes that
        differ only there, each times x_j^e.  Before x_j is summed out, the
        rows whose prefix is zero before x_j, added up, are block j."""
        codes, rows, monos, _ = level
        payloads = rows.tolist() if codes.fc is None \
            else codes.fc.decode(rows)
        fc = self.fc
        forms = fc.encode([[reduce_value(v, codes.field, self.field)
                            for v in row] for row in payloads])
        used = forms.any(axis=0)
        if not used.any():  # a zero form
            return np.arange(self.size)
        monos, values = monos[used], forms[:, used, None]
        powers = [np.full(fc.q, fc.one)]
        for _ in range(monos.max()):
            powers.append(fc.mul(powers[-1], np.arange(fc.q)))
        hits = []
        for j in range(monos.shape[1] - 1, -1, -1):
            block = np.zeros((len(forms), values.shape[2]), dtype=np.int64)
            for row in np.flatnonzero(~monos[:, :j].any(axis=1)):
                block = fc.add(block, values[:, row])
            hits.append(self._offsets[j] + np.flatnonzero(~block.any(axis=0)))
            if not j:
                break
            keys = monos[:, :j] @ len(powers) ** np.arange(j)
            _, first, group = np.unique(keys, return_index=True,
                                        return_inverse=True)
            merged = np.zeros((len(forms), len(first), fc.q,
                               values.shape[2]), dtype=np.int64)
            for e, power in enumerate(powers):
                at = monos[:, j] == e
                merged[:, group[at]] = fc.add(merged[:, group[at]], fc.mul(
                    power[:, None], values[:, at, None]))
            monos, values = monos[first, :j], merged.reshape(
                len(forms), len(first), -1)
        return np.concatenate(hits[::-1])

    def _walk(self, a_side):
        """The f_v ranks from the kernels of f(a) kept with the a-side
        table: a^T f_v = -(f(a) v)^T, so the a with v in Ker f(a) are the
        points of P(left kernel of f_v).  Over the a with rank f(a) < 2m,
        each v of P(Ker f(a)) is hit (q^k - 1)/(q - 1) times in all, where
        k = n - rank f_v, and a v never hit has rank n.  A count of no such
        form raises."""
        fc, n, two_m = self.fc, len(a_side.stack), len(self.stack)
        _, rank, kernel = a_side.on_y
        hits = [np.zeros(0, dtype=np.int64)]
        # not np.unique, which without return_counts imports numpy.ma
        for dim in set((two_m - rank).tolist()):
            alphas = fc.encode(list(enumerate_projective(self.field, dim - 1)))
            vs = _matmul(fc, alphas[None], kernel[two_m - rank == dim, :dim])
            hits.append(self.indices(vs.reshape(-1, two_m)))
        idx, counts = np.unique(np.concatenate(hits), return_counts=True)
        sizes = (fc.q ** np.arange(n + 1) - 1) // (fc.q - 1)
        k = np.minimum(np.searchsorted(sizes, counts), n)
        if (sizes[k] != counts).any():
            raise ValueError("a point of P(V) lies in %d kernels of f(a) over"
                             " Y, not the size of a projective space"
                             % counts[sizes[k] != counts][0])
        table = np.full(self.size, n, dtype=np.int8)
        table[idx] = n - k
        return table

    def _computed(self, codes):
        """The ranks of sum_j codes[k, j] C_j, from the stack."""
        return modnum.batch_rank_table(_combine(self.fc, self.stack, codes),
                                       self.fc)

    def _codes_at(self, idx):
        """The normalized points at the given indices, as code rows: the
        offset in a block is below the weight of its lead, so its base-q
        digits are 0 up to the lead."""
        lead = np.searchsorted(self._offsets, idx, side="right") - 1
        codes = (idx - self._offsets[lead])[:, None] // self._weights \
            % self.fc.q
        codes[np.arange(idx.size), lead] = self.fc.one
        return codes

    def indices(self, codes):
        """Table indices of an (N, k) array of nonzero code rows."""
        lead = (codes != 0).argmax(axis=1)
        scale = self.fc.inv[codes[np.arange(len(codes)), lead]]
        normal = self.fc.mul(scale[:, None], codes)
        # normal is 0 before its lead and `one` there; the tail is the rest
        return self._offsets[lead] - self.fc.one * self._weights[lead] \
            + normal @ self._weights

    def points(self, idx):
        """The points at the given indices, as payload tuples."""
        codes = self._codes_at(np.asarray(idx, dtype=np.int64))
        return [tuple(row) for row in self.fc.decode(codes)]

    def ranks(self, codes):
        """The ranks at an (N, k) array of code rows, read by code when
        the space has at most _TABLE_POINTS points, from the table if it
        is built, else computed _CHUNK points at a time.  A zero row's
        entry means nothing."""
        if self._small:
            return self.by_code[codes @ self._weights]
        if self._table is not None:
            return self.table[self.indices(codes)]
        out = np.empty(len(codes), dtype=np.int8)
        for lo in range(0, len(codes), _CHUNK):
            out[lo:lo + _CHUNK] = self._computed(codes[lo:lo + _CHUNK])
        return out

    def kernels(self, codes):
        """Side "a": rank f(a) and the kernel rows of `_kernels` at an
        (N, n) array of nonzero code rows, which scaling a point changes
        neither of.  Where `ranks` reads the table they are read from
        `on_y` (rank 2m and no kernel row off Y), else computed."""
        if self._table is None and not self._small:
            _, rank, kernel = _kernels(self.fc, self.stack, codes)
            return rank, kernel
        idx = self.indices(codes)
        y_idx, _, y_kernel = self.on_y
        rank = self.table[idx].astype(np.int64)
        on_y = rank < self.stack.shape[1]
        kernel = np.zeros((len(codes),) + y_kernel.shape[1:], dtype=np.int64)
        kernel[on_y] = y_kernel[np.searchsorted(y_idx, idx[on_y])]
        return rank, kernel

    def rank(self, x):
        """The rank at one nonzero point x, given by field payloads."""
        return int(self.ranks(self.fc.encode([x]))[0])


def rank_oracle(net, field, side):
    """The RankOracle of one side of `net.over(field)`, built once per
    reduced net, so a net and its reduction share one.  A field the net
    does not reach raises as `ANet.over` does."""
    net = net.over(field)
    return net.derived(("ranks", side), lambda: RankOracle(net, side))


# -- regularity ---------------------------------------------------------------

class RegularityResult:
    """Tri-state regularity verdict with its witness: the certifying degree
    when decided by ideal emptiness, or an explicit rank-deficient point."""

    def __init__(self, status, witness=None, detail=None):
        self.status = status
        self.witness = witness
        self.detail = detail

    @property
    def is_regular(self):
        if self.status == INCONCLUSIVE:
            raise ValueError("regularity inconclusive: %s" % self.detail)
        return self.status == EMPTY

    def __repr__(self):
        return "RegularityResult(%s, witness=%r)" % (self.status, self.witness)


def _pfaffians(net, k):
    """The `pfaffian_level` of f(a) at size k, expanded once per net; at k
    = 2m its one row is the cubic Pf(f(a)) cutting out Y."""
    return net.derived(("Pfaffians", k), lambda: pfaffian_level(
        net.field, net.stack("a"), k))


def sub_pfaffian_ideal(net):
    """Ideal of all principal (2m-2)-sub-Pfaffians of f(a), the integer
    level of `pfaffian_level`; its zero set is the rank <= 2m-4 locus in
    P(A).  The field is checked before any sub-Pfaffian is expanded."""
    check_ideal_field(net.field)
    _, level, _, scales = _pfaffians(net, net.two_m - 2)
    return HomogeneousIdeal(net.field, net.n,
                            {net.two_m // 2 - 1: (level, scales)})


def _rank_deficient_witness(net, max_rank):
    """The first point of P(A) with rank f(a) <= max_rank (even), over
    GF(3), then GF(7), for a net over QQ, and over GF(p) itself for a net
    native to GF(p), p <= 7: the first common zero of the principal
    (max_rank + 2)-sub-Pfaffians, as the rank of a skew matrix is the
    largest size of a principal sub-Pfaffian that does not vanish.
    (prime, point) or None; no rank table is built.  A field the net does
    not reduce to (a denominator p divides, or a dependent reduction) is
    skipped."""
    level = _pfaffians(net, max_rank + 2)
    f = net.field
    primes = (3, 7) if f.kind == "QQ" else \
        (f.order,) if f.kind == "GF(p)" and f.order <= 7 else ()
    for p in primes:
        fp = GF(p)
        if not net.reaches(fp):
            continue
        oracle = rank_oracle(net, fp, "a")
        hits = oracle.zeros(level)
        if hits.size:
            return p, oracle.points(hits[:1])[0]
    return None


def is_regular(net, prime=DEFAULT_PRIME, cap=DEFAULT_DEGREE_CAP):
    """Regular means rank f(a) >= 2m-2 away from a = 0, i.e. the principal
    sub-Pfaffian ideal has empty projective zero set.  Over QQ the emptiness
    certificate modulo one prime lifts (ranks only drop under reduction),
    so a ladder that is not EMPTY at `prime` climbs again at
    `other_prime(prime)`, and an EMPTY there makes the net regular; over
    GF(p) the ladder runs mod p only.  Only a net that neither prime
    certifies is searched for a rank-deficient point.  INCONCLUSIVE names
    its limit: a net native to GF(p^k), before any sub-Pfaffian is
    expanded, or a cap that no certificate reaches, with no witness.  The
    verdict is memoized on the net per (prime, cap)."""
    try:
        check_ideal_field(net.field)
    except ValueError as exc:
        return RegularityResult(INCONCLUSIVE, detail=str(exc))
    return net.derived(("regular", prime, cap),
                       lambda: _regularity(net, prime, cap))


def _emptiness(ideal, prime, cap):
    """`is_empty_projective` at `prime`.  Over QQ a verdict other than
    EMPTY may only say that the ideal mod p has zeros, which a bad prime
    makes so; it is checked again at `other_prime`, and an EMPTY there is
    kept, since EMPTY mod any prime lifts to QQ.  An ideal with no
    reduction mod the second prime keeps the first verdict."""
    res = is_empty_projective(ideal, prime=prime, cap=cap)
    if res.status == EMPTY or ideal.field.kind != "QQ":
        return res
    try:
        again = is_empty_projective(ideal, prime=other_prime(prime), cap=cap)
    except ZeroDivisionError:
        return res
    return again if again.status == EMPTY else res


def _regularity(net, prime, cap):
    res = _emptiness(sub_pfaffian_ideal(net), prime, cap)
    if res.status == EMPTY:
        return RegularityResult(EMPTY, witness=res.witness_degree)
    witness = _rank_deficient_witness(net, net.two_m - 4)
    if witness is not None:
        return RegularityResult(NONEMPTY, witness=witness)
    if res.status == NONEMPTY:
        return RegularityResult(NONEMPTY, witness=res.witness_degree,
                                detail="no small-field point located")
    return RegularityResult(INCONCLUSIVE, detail=(
        "degree cap %d is below the Macaulay bound" % cap))


# -- Y side -------------------------------------------------------------------

def pfaffian_hypersurface(net):
    """The form Pf(f(a)) cutting out Y in P(A); degree m in n variables."""
    pf = net.derived("cubic", lambda: level_polys(
        *_pfaffians(net, net.two_m))[0])
    if pf.is_zero():
        raise ValueError("Pf(f(a)) vanishes identically: degenerate net")
    return pf


def y_ideal(net):
    """The ideal of Y: the cubic's level as integer rows."""
    pfaffian_hypersurface(net)  # a degenerate net raises here
    _, level, _, scales = _pfaffians(net, net.two_m)
    return HomogeneousIdeal(net.field, net.n,
                            {net.two_m // 2: (level, scales)})


def y_points(net, field):
    """All points of Y over a small finite field, in enumeration order, as
    a read-only (N, n) code array: the a with rank f(a) < 2m, as Pf^2 =
    det, which the a-side oracle lists with its table (`on_y`)."""
    def build():
        pfaffian_hypersurface(net)  # a degenerate net raises here
        oracle = rank_oracle(net, field, "a")
        return oracle._codes_at(oracle.on_y[0])
    return net.derived(("y_points", field), build)


# -- X side -------------------------------------------------------------------

def x_points(net, field):
    """All planes of X over a small finite field, in the echelon order of
    `enumerate_grassmannian`, as a read-only (N, 2, 2m) int64 code array of
    their reduced echelon bases."""
    reduced = net.over(field)
    return reduced.derived("x_points", lambda: _x_points(reduced))


def _x_points(net):
    """U = <u1, u2> lies on X iff u1^T F_i u2 = 0 for every i.  As every
    v^T F_i v is 0, that holds iff U lies in Ker f_v (row i of f_v is
    v^T F_i) for one, and then every, v in U.  A plane has one reduced
    echelon basis (r1, r2): r1 is a normalized point of P(V), and r2 is a
    normalized point of S, the vectors of Ker f_r1 that vanish up to the
    leading column c1 of r1, with r1 zero at the leading column of r2.  S
    is spanned by the rows of the RREF of Ker f_r1 that pivot after c1.
    So the planes are read off the points of the f_v rank table (walked
    from the kernels of f(a) over Y, `RankOracle._walk`) where
    dim Ker f_v >= 2, and their bases are sorted into the order of
    `echelon_pair_codes`."""
    f = net.field
    two_m = net.two_m
    oracle = rank_oracle(net, f, "v")
    fc = oracle.fc
    candidates = np.nonzero(oracle.table <= two_m - 2)[0]
    r1 = oracle._codes_at(candidates)
    _, rank, kernel = _kernels(fc, oracle.stack, r1)
    nullity = two_m - rank
    _, basis, piv = modnum.batch_rref_table(kernel, fc)
    lead = (r1 != 0).argmax(axis=1)
    # S: the last `dims` of the `nullity` rows of the RREF of the kernel
    dims = (piv & (np.arange(two_m)[None, :] > lead[:, None])).sum(axis=1)
    firsts, seconds = [], []
    for dim in range(1, int(dims.max(initial=0)) + 1):
        sel = np.nonzero(dims == dim)[0]
        rows = (nullity[sel] - dim)[:, None] + np.arange(dim)
        span = np.take_along_axis(basis[sel], rows[:, :, None], axis=1)
        alphas = fc.encode(list(enumerate_projective(f, dim - 1)))
        r2 = _matmul(fc, alphas[None], span)
        first = np.broadcast_to(r1[sel, None], r2.shape)
        ok = np.take_along_axis(first, (r2 != 0).argmax(axis=2)[:, :, None],
                                axis=2)[:, :, 0] == 0
        firsts.append(first[ok])
        seconds.append(r2[ok])
    if not firsts:
        return np.zeros((0, 2, two_m), dtype=np.int64)
    u1, u2 = np.concatenate(firsts), np.concatenate(seconds)
    keys = np.concatenate([u2[:, ::-1], u1[:, ::-1],
                           (u2 != 0).argmax(axis=1)[:, None],
                           (u1 != 0).argmax(axis=1)[:, None]], axis=1)
    return np.stack([u1, u2], axis=1)[np.lexsort(keys.T)]


# -- Q and C ------------------------------------------------------------------

def q_quartic(net):
    """The normalized quartic image of the projection P_X(U) -> P(V): each
    maximal minor of the f_v matrix factors as Delta_i = (-1)^i Q v_i, and
    the six divisions, each lowering every term's exponent e_i, must agree."""
    return net.derived("quartic", lambda: _quartic(net))


def _quartic(net):
    if (net.n, net.two_m) != (5, 6):
        raise ValueError("the quartic construction is the n=5, 2m=6 case")
    # the column combinations come in lexicographic order, so the one that
    # leaves out column i is at position 5 - i
    f = net.field
    minors = minor_polys(f, net.stack("v"), 5)
    quotient = None
    found = 0
    for i in range(6):
        delta = minors[5 - i]
        if delta.is_zero():
            continue
        if not all(e[i] for e in delta.terms):
            raise ValueError("v_%d does not divide the maximal minor "
                             "without column %d" % (i, i))
        qi = MultiPoly._raw(f, 6, {e[:i] + (e[i] - 1,) + e[i + 1:]:
                                   f.neg(c) if i % 2 else c
                                   for e, c in delta.terms.items()})
        if quotient is None:
            quotient = qi
        elif quotient != qi:
            raise ValueError("minor quotients disagree between columns "
                             "(irregular net upstream)")
        found += 1
    if quotient is None:
        raise ValueError("all maximal minors vanish: f_v is everywhere "
                         "rank-deficient")
    if found < 6:
        # the remaining minors must vanish only together with v_i terms;
        # surface this as a degeneracy rather than guessing
        raise ValueError("only %d of 6 minors were nonzero" % found)
    return quotient.normalized()


def c_ideal(net):
    """75 quartic 4x4 minors of the f_v matrix: the rank <= 3 locus."""
    if (net.n, net.two_m) != (5, 6):
        raise ValueError("the curve construction is the n=5, 2m=6 case")
    return minors_ideal(net.field, net.stack("v"), 4)


def fv_rank_profile(net, field):
    """Counts {rank: #points} of f_v over all of P(V) for a finite field of
    order <= 64, read from the f_v rank table; also returns the lists of
    rank <= 3 and (the first 64) rank-4 points."""
    oracle = rank_oracle(net, field, "v")
    ranks = oracle.table
    profile = {int(r): int(c) for r, c in
               zip(*np.unique(ranks, return_counts=True))}
    low = np.nonzero(ranks <= net.two_m // 2)[0]
    rank4 = np.nonzero(ranks == 4)[0]
    return profile, oracle.points(low), oracle.points(rank4[:64])


# -- fibers of psi and phi ----------------------------------------------------

def phi_fiber(net, v):
    """The planes U with v in U inside (Im f_v)^perp: a single Grassmannian
    point over Q - C, the pencil line L_c over c in C."""
    f = net.field
    m = _combination(f, net.stack("v"), v)  # f_v: row i is v^T F_i
    rank, kern = m.rank_kernel()  # kernel of v^T F: the annihilator of Im f_v
    perp_dim = kern.ncols
    if perp_dim == net.two_m - net.n:
        raise ValueError("v is not on Q: Im f_v has full rank")
    vv = [f.value_of(x) for x in v]
    if perp_dim == 2:
        basis = kern.transpose()
        stacked = ExactMatrix(f, basis.rows + [vv])
        if stacked.rank() != 2:
            raise ValueError("v does not lie in (Im f_v)^perp")
        return plucker_from_basis(basis)
    if perp_dim == 3:
        return pencil_line(vv, kern.transpose())
    raise ValueError("(Im f_v)^perp has dimension %d; rank f_v = %d <= 2 "
                     "violates the minimal-rank bound" % (perp_dim, rank))


def curve_fibers(net, points):
    """Both fibers at points c of the curve C over a small field, read on
    code arrays: per point, whether the pencil L_c (phi's fiber) lies on
    X, the two rows spanning the jumping line M_c (psi's fiber), and the
    RREF of those rows, which is the form of a line `find_lines_on_y`
    returns.

    L_c is read at its planes U(1:0) and U(0:1) from `_phi_bases`, and
    lies on X when u1^T F_i u2 = 0 for every i at both.  That suffices:
    every point of L_c is decomposable, v ^ (s w1 + t w2), so the Plucker
    quadrics hold on it identically, and a linear form that vanishes at two
    points of a line vanishes on the whole line.  M_c = P(Ker f_c^T): the
    kernel rows of the transposed f_v stack from `_kernels`, which are the
    columns `ExactMatrix.rank_kernel` gives for f_c^T.  A point with
    rank f_c other than 3 is not on C and raises."""
    field = net.field
    oracle = rank_oracle(net, field, "v")
    fc, stack = oracle.fc, oracle.stack
    vs = fc.encode([[field.value_of(x) for x in c] for c in points])
    _, rank, kernel = _kernels(fc, stack.transpose(0, 2, 1), vs)
    if (rank != 3).any():
        raise ValueError("rank f_c = %d at a curve point, expected 3"
                         % rank[rank != 3][0])
    params = np.repeat([[fc.one, fc.zero], [fc.zero, fc.one]], len(vs),
                       axis=0)
    bases = _phi_bases(fc, stack, np.concatenate([vs, vs]), params)
    f_u1 = _matmul(fc, bases[:, 0], stack.reshape(len(stack), -1))
    forms = _matmul(fc, f_u1.reshape(len(bases), net.n, net.two_m),
                    bases[:, 1, :, None])
    on_x = ~forms.reshape(2, len(vs), -1).any(axis=(0, 2))
    _, keys, _ = modnum.batch_rref_table(kernel, fc)

    def decoded(pair):
        return tuple(tuple(row) for row in pair)
    return [(bool(ok), decoded(line), decoded(key)) for ok, line, key
            in zip(on_x, fc.decode(kernel), fc.decode(keys))]


# -- lines and splitting types ------------------------------------------------

def lie_on_y(net, field, pairs):
    """Whether each line of P(A), given by an (N, 2, n) code array of
    spanning pairs over `field`, lies on Y.  Pf on a line is a binary form
    of degree m, zero or with at most m zeros, so a line with more than m
    points lies on Y iff all of them do: the points (s : t) of
    `projective_line` of every line are ranked in one `ranks` call.  Over
    a prime field with fewer than m elements the points are read over its
    first extension with at least m (GF(4) for m = 3), the pairs lifted by
    one code table.  A field without codes raises."""
    modnum.field_codes(field)  # a field without codes raises here
    pfaffian_hypersurface(net)  # a degenerate net raises here
    m = net.two_m // 2
    ext = field
    if field.order < m:
        if field.kind != "GF(p)":
            raise ValueError("lines over %s need an extension with at "
                             "least %d elements" % (field, m))
        ext = GF(field.p, next(k for k in itertools.count(2)
                               if field.order ** k >= m))
        pairs = modnum.field_codes(ext).encode(
            [reduce_value(e, field, ext) for e in field.elements()]
        )[pairs]
    oracle = rank_oracle(net, ext, "a")
    points = _matmul(oracle.fc, projective_line(ext)[None], pairs)
    ranks = oracle.ranks(points.reshape(-1, net.n)).reshape(points.shape[:2])
    return (ranks < net.two_m).all(axis=1)


_PROBES = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1))
_LADDERS = {(1, 2, 4): (1, 3), (0, 2, 4): (2, 2)}  # N(0), N(1), N(2)


def splitting_types(net, lines):
    """The splitting types (d1, d2), d1 <= d2, d1 + d2 = 4, of the kernel
    bundle on lines of Y, given as spanning pairs (a1, a2) of payloads over
    the net's small field, all at once on code arrays.  The pencil
    s f(a1) + t f(a2) must have corank 2 at five probes (s:t).  Its kernel
    bundle O(-e1) + O(-e2), e1 + e2 = 2, has N(s) = dim ker mu_{s+1}
    twisted sections, mu_{s+1}: V x S^s -> V* x S^{s+1} being the block
    matrix with f(a1) on the block diagonal and f(a2) one block below it (a
    rank ignores row and column order); N(0), N(1), N(2) name the type
    (e1+1, e2+1): (1,3) on a jumping line, (2,2) on a generic one.  The
    first line that fails a check raises; a field without codes, or a pair
    that spans no line, raises before any line."""
    field, two_m = net.field, net.two_m
    oracle = rank_oracle(net, field, "a")
    fc = oracle.fc
    pairs = fc.encode(lines).reshape(-1, 2, net.n)
    if (modnum.batch_rank_table(pairs, fc) < 2).any():
        raise ValueError("a line needs two independent points")
    on_y = lie_on_y(net, field, pairs)
    probes = fc.encode([[field.value_of(x) for x in st] for st in _PROBES])
    ranks = oracle.ranks(_matmul(fc, probes[None], pairs).reshape(-1, net.n))
    f1, f2 = np.moveaxis(_matmul(fc, pairs, oracle.stack.reshape(
        net.n, -1)).reshape(-1, 2, two_m, two_m), 1, 0)
    mu = np.zeros((len(pairs), 4, two_m, 3, two_m), dtype=np.int64)
    for c in range(3):
        mu[:, c, :, c], mu[:, c + 1, :, c] = f1, f2
    # mu_s, s = 1, 2, 3, is made of the top left (s+1) x s blocks of mu_3
    mu = mu.reshape(len(pairs), 4 * two_m, 3 * two_m)
    ladders = np.stack([two_m * s - modnum.batch_rank_table(
        mu[:, :(s + 1) * two_m, :s * two_m], fc) for s in (1, 2, 3)],
        axis=1).tolist()
    for y, probe, steps in zip(on_y, ranks.reshape(-1, len(_PROBES)).tolist(),
                               ladders):
        if not y:
            raise ValueError("the pencil does not lie on the Pfaffian "
                             "hypersurface")
        for r in probe:
            if r > two_m - 2:
                raise ValueError("pencil point of full rank: line not on Y?")
            if r < two_m - 2:
                raise ValueError("pencil rank drops to %d: kernel sheaf is "
                                 "not a rank-2 bundle here" % r)
        if tuple(steps) not in _LADDERS:
            raise ValueError("section ladder %s matches no rank-2 splitting "
                             "with e1 + e2 = 2; this is a finding to surface"
                             % (steps,))
    return [_LADDERS[tuple(steps)] for steps in ladders]


def find_lines_on_y(net, field):
    """All lines of P(A) lying on Y over a small field, as spanning pairs in
    the order of `echelon_pair_codes`: every line of P(A), read by
    `lie_on_y` in batches of consecutive blocks of up to _CHUNK lines in
    all; only the lines kept are decoded."""
    fc = modnum.field_codes(field)
    out = []

    def keep(blocks):
        batch = np.concatenate(blocks)
        out.extend((tuple(a1), tuple(a2)) for a1, a2
                   in fc.decode(batch[lie_on_y(net, field, batch)]))

    pending, size = [], 0
    for block in echelon_pair_codes(net.n, field):
        if size + len(block) > _CHUNK:
            keep(pending)
            pending, size = [], 0
        pending.append(block)
        size += len(block)
    if pending:
        keep(pending)
    return out


# -- C-point search -----------------------------------------------------------

SEARCH_LADDER = ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3))


def find_c_points(net):
    """Climb SEARCH_LADDER until points of the curve C are found: rank f_v
    <= 3 among all points of P(V).  Returns (field, every such point) or
    None when the whole ladder is exhausted (the caller decides how loudly
    to complain)."""
    for p, k in SEARCH_LADDER:
        field = GF(p, k)
        if not net.reaches(field):
            continue
        profile, low, _ = fv_rank_profile(net.over(field), field)
        if min(profile) <= 2:  # the profile lists the ranks that occur
            raise ValueError("rank f_v = %d point found over %s: violates "
                             "the minimal-rank bound" % (min(profile), field))
        if low:
            return field, low
    return None


# -- classification -----------------------------------------------------------

class NetClassification:
    def __init__(self, regular, y_smooth, per_field):
        self.regular = regular
        self.y_smooth = y_smooth
        self.per_field = per_field

    @property
    def all_smooth(self):
        try:
            ok = self.regular.is_regular and self.y_smooth.is_empty
        except ValueError:
            return False
        return ok and all(d["x_smooth"] and d["sets_equal"]
                          for d in self.per_field.values())

    def __repr__(self):
        return ("NetClassification(regular=%s, y_smooth=%s, fields=%s)"
                % (self.regular.status, self.y_smooth.status,
                   sorted(self.per_field)))


def _x_masks(net, field, bases):
    """Two masks over the code bases of X's planes over a small field (as
    `x_points` gives them).  sing(X): the n x 2(2m-2) matrix of a |-> f(a)
    restricted to U x (V/U), row i the products red @ F_i on U's complement
    columns, drops below rank n.  kappa(Y): U's RREF is that of the first
    two kernel rows of f(a) at a point of Y with rank f(a) = 2m-2 (kappa is
    undefined at deeper degeneracies), kept with the rank table."""
    oracle = rank_oracle(net, field, "a")
    fc, stack = oracle.fc, oracle.stack
    red, _, comp = _u_sides(fc, bases)
    products = _matmul(fc, red[:, None], stack[None])
    tangent = np.take_along_axis(products, comp[:, None, None, :], axis=3)
    sing = modnum.batch_rank_table(
        tangent.reshape(len(bases), net.n, 2 * (net.two_m - 2)), fc) < net.n
    _, rank, kernel = oracle.on_y
    _, planes, _ = modnum.batch_rref_table(
        kernel[rank == net.two_m - 2, :2], fc)
    kappa_planes = {plane.tobytes() for plane in planes}
    return sing, np.array([plane.tobytes() in kappa_planes for plane in red],
                          dtype=bool)


def classify(net, fields=(), prime=DEFAULT_PRIME, cap=DEFAULT_DEGREE_CAP):
    """Regularity, Y-smoothness over the working prime, and per-small-field
    comparison of sing(X) with X intersect kappa(Y) by full enumeration;
    only the planes these list, the report's rows, get Plucker coordinates.

    Over QQ a Jacobian verdict other than EMPTY only says that Y mod p
    may be singular, which a bad prime makes so; it is checked again at
    `other_prime` (`_emptiness`)."""
    from .ideals import jacobian_ideal
    regular = is_regular(net, prime=prime, cap=cap)
    jacobian = jacobian_ideal(y_ideal(net))
    y_smooth = _emptiness(jacobian, prime, cap)
    per_field = {}
    for field in fields:
        bases = x_points(net, field)
        on_y = y_points(net, field)
        sing, on_kappa = _x_masks(net, field, bases)
        listed = np.nonzero(sing | on_kappa)[0]
        coords = [plucker_from_basis(ExactMatrix(field, pair)).coords
                  for pair in modnum.field_codes(field).decode(bases[listed])]
        sing_x, x_cap_kappa = (
            sorted(c for c, hit in zip(coords, mask[listed]) if hit)
            for mask in (sing, on_kappa))
        per_field[field.name] = {
            "x_smooth": not sing_x,
            "sing_x": sing_x,
            "x_cap_kappa": x_cap_kappa,
            "sets_equal": sing_x == x_cap_kappa,
            "x_count": len(bases),
            "y_count": len(on_y),
        }
    return NetClassification(regular, y_smooth, per_field)


# -- fixtures -----------------------------------------------------------------

def random_net(field, n, two_m, rng, bound=3):
    """One integer-entried candidate net (not yet checked for anything
    beyond independence, which the constructor enforces by retry); where
    none can exist, ValueError before any draw."""
    npairs = len(pair_indices(two_m)[0])
    if two_m % 2 or not 1 <= n <= npairs or bound < 1:
        raise ValueError("need even 2m, 1 <= n <= m(2m - 1) and bound >= 1;"
                         " got 2m = %d, n = %d, bound = %d" % (two_m, n, bound))
    while True:
        tris = [[rng.randint(-bound, bound) for _ in range(npairs)]
                for _ in range(n)]
        try:
            return ANet.from_upper_triangles(field, two_m, tris)
        except ValueError:
            continue


def random_regular_net(seed, bound=3, n=5, two_m=6, max_tries=400):
    """Rejection-sample integer nets over QQ until one is regular with a
    smooth Pfaffian hypersurface.  Deterministic per seed."""
    import random as _random
    rng = _random.Random(seed)
    tries = 0
    while tries < max_tries:
        tries += 1
        net = random_net(QQ, n, two_m, rng, bound=bound)
        try:
            cls = classify(net)
            ok = cls.regular.is_regular and cls.y_smooth.is_empty
        except ValueError:
            # covers inconclusive verdicts and identically-zero Pfaffians
            continue
        if ok:
            return net, tries
    raise ValueError("no regular net with smooth Y in %d tries (seed %r, "
                     "bound %d)" % (max_tries, seed, bound))


def degenerate_net(seed=0, bound=3):
    """A constructed singular fixture: U0 = <e1, e2> sits inside Ker F_1
    (rank-4 skew form supported on e3..e6) and every other F_i vanishes on
    U0 x U0, which forces U0 into both sing(X) and X intersect kappa(Y).
    Modulo 2 and 3 the net must stay a net with rank f(e1) = 4, so U0
    stays visible there.  No other point and no other prime is checked,
    so a reduction can be irregular: seed 2 has rank-2 points mod 2."""
    import random as _random
    rng = _random.Random(seed)
    while True:
        tris = []
        pairs, _ = pair_indices(6)
        # F_1: supported on indices 2..5, rank 4
        tri = []
        for (i, j) in pairs:
            tri.append(rng.randint(-bound, bound) if i >= 2 else 0)
        tris.append(tri)
        for _ in range(4):
            tri = []
            for (i, j) in pairs:
                tri.append(0 if (i, j) == (0, 1)
                           else rng.randint(-bound, bound))
            tris.append(tri)
        try:
            net = ANet.from_upper_triangles(QQ, 6, tris)
        except ValueError:
            continue
        e1 = [1, 0, 0, 0, 0]
        if net.f_at(e1).rank() != 4:
            continue
        try:
            if any(net.over(GF(p)).f_at(e1).rank() != 4
                   for p in (2, 3)):
                continue
        except ValueError:
            continue
        return net
