"""Vectorized linear algebra mod p on numpy int64 arrays.

These kernels back the exact-matrix and ideal machinery for prime fields.
All arithmetic is exact: residue products stay below 2^31 (p <= MAX_PRIME),
and `addmul_mod` sums K products plus a residue in float64, which is exact
while K*(p-1)^2 + p < 2^53, so for K < 2^22.  K is at most the panel width
inside `rref_mod`, but up to the pivot count of a graded piece when
`HilbertEngine.absorb` reduces against a whole basis (185 on the pinned net).
It runs the product in blocks of at most _ONE_THREAD_MNK = 2^18
multiply-adds (M*N*K), the size up to which OpenBLAS keeps a GEMM on the
calling thread (see `addmul_mod`).

`rref_mod` sweeps each panel of _PANEL columns once, building the transform
T of its pivot rows alongside, and one blocked float64 update applies T - I
to the columns right of the panel.  The RREF of a row space is unique, so
the result is deterministic although pivot rows are picked up
swap-compacted.  Work that cannot change a rank is skipped: zero rows are
dropped up front, a sweep visits only the panel's nonzero columns (row
operations keep a zero column zero), and the panels stop once the rows left
are zero.  The sweep reduces lazily: each step reduces the searched column
and the pivot row, and adds f times the pivot row (f and the row below p)
to the other rows without `% p`; a panel has at most _PANEL steps, so its
entries stay below _PANEL*(p-1)^2 + p < 2^38 and a pivot row times an
inverse below 2^54, and the panel is reduced once at the end.

Pointwise work over a small finite field runs on arrays of field codes.
The code of an element is its index in `field.elements()`: the residue
itself over GF(p), and over GF(p^k) the coefficient tuple read as base-p
digits, first coefficient most significant; zero is code 0.  A field has
codes when its order is at most TABLE_ORDER, or when it is a prime up to
MAX_PRIME.  `FieldCodes` holds the arithmetic on codes and converts
payloads to codes and back, and `batch_rref_table` row-reduces stacks of
small code matrices with it.
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import GF

MAX_PRIME = 46337  # (p-1)^2 must fit comfortably; see module docstring
_PANEL = 64  # columns per Gauss-Jordan panel in rref_mod
# the most M*N*K a float64 product in addmul_mod may have: OpenBLAS runs a
# GEMM up to 65536 * GEMM_MULTITHREAD_THRESHOLD (4 by default) on one thread
_ONE_THREAD_MNK = 1 << 18
TABLE_ORDER = 64  # the largest field whose codes read operation tables


@functools.cache
def inverse_table(p):
    """Array t with t[a] = a^-1 mod p (t[0] = 0): a^(p-2) for all residues at
    once, by square-and-multiply on int64 arrays (products below 2^31)."""
    a = np.arange(p, dtype=np.int64)
    t = np.ones(p, dtype=np.int64)
    for bit in bin(p - 2)[2:]:
        t = t * t % p
        if bit == "1":
            t = t * a % p
    t[0] = 0
    return t


def _check_prime(p):
    if p > MAX_PRIME:
        raise ValueError("prime %d too large for the int64/float64 kernels" % p)


def _panel_sweep(E, p):
    """Gauss-Jordan on a panel E (n x w), in place and in one sweep.
    Returns the pivots (row, col) in the order found and the transform T
    (n x len(found)): the sweep adds (T - I) @ E[pivot rows] to E as given,
    I having a 1 at (row, i) for pivot i.  When row r becomes pivot k,
    T[r, k] = 1 and each later step acts on E and T[:, :k+1] together: a
    row not yet a pivot keeps transform column e_r, which is zero in every
    earlier pivot row, so no other column of T moves.

    Only the panel's nonzero columns are searched, and a step acts on the
    columns from the searched one on, since the pivot row is zero left of
    it.  Each pivot is inverted on its own, by pow(x, -1, p): a panel
    needs at most _PANEL inverses, too few to pay for `inverse_table`.
    Reduction is lazy, as the module docstring bounds it."""
    live_cols = np.flatnonzero(E.any(axis=0))
    n, w = E.shape[0], live_cols.size
    W = np.zeros((n, w + min(n, w)), dtype=np.int64)
    W[:, :w] = E[:, live_cols]
    found = []
    avail = np.ones(n, dtype=bool)
    for c in range(w):
        col = W[:, c]
        col %= p
        hit = col != 0
        hit &= avail
        r = int(hit.argmax())
        if not hit[r]:
            continue
        avail[r] = False
        k = len(found)
        found.append((r, int(live_cols[c])))
        W[r, w + k] = 1
        live = W[:, c:w + k + 1]
        row = live[r]
        row *= pow(int(col[r]), -1, p)
        row %= p
        f = np.negative(col)
        f %= p
        f[r] = 0
        live += np.multiply.outer(f, row)
        if k + 1 == min(n, w):
            break
    W %= p
    E[:, live_cols] = W[:, :w]
    return found, W[:, w:w + len(found)]


def addmul_mod(target, delta, rows, p, col_lo=None, col_hi=None):
    """target[:, J] += delta @ rows[:, J] (mod p) for all column ranges J,
    optionally skipping [col_lo, col_hi).  Exact float64 matmul inside.

    The product runs in blocks of at most _ONE_THREAD_MNK multiply-adds
    (M*N*K for M rows, N columns and inner dimension K): a larger GEMM
    wakes an OpenBLAS worker thread, which spins on after it.  A block
    takes all M rows when that leaves it at least 32 columns, and
    otherwise as many rows as leave it 32, since narrower blocks run
    OpenBLAS's kernels well below their speed.  delta and the rows of each
    column range are converted to float64 once, and each range of target
    is reduced mod p once."""
    M, K = delta.shape
    C = target.shape[1]
    deltaf = delta.astype(np.float64)
    mstep = max(1, min(M, _ONE_THREAD_MNK // (32 * max(K, 1))))
    nstep = max(1, _ONE_THREAD_MNK // (mstep * max(K, 1)))
    spans = [(0, C)] if col_lo is None else [(0, col_lo), (col_hi, C)]
    for lo, hi in spans:
        if hi <= lo:
            continue
        rowsf = rows[:, lo:hi].astype(np.float64)
        if M * K * (hi - lo) <= _ONE_THREAD_MNK:  # one block
            prod = deltaf @ rowsf
        else:
            prod = np.empty((M, hi - lo))
            for j0 in range(0, hi - lo, nstep):
                for i0 in range(0, M, mstep):
                    np.matmul(deltaf[i0:i0 + mstep], rowsf[:, j0:j0 + nstep],
                              out=prod[i0:i0 + mstep, j0:j0 + nstep])
        target[:, lo:hi] = (target[:, lo:hi] + prod.astype(np.int64)) % p


def rref_mod(a, p):
    """Reduced row echelon form mod p.

    Returns (piv_cols, basis): pivot column indices (increasing) and a
    (rank x ncols) int64 array in RREF with unit pivots.
    """
    _check_prime(p)
    work = np.asarray(a, dtype=np.int64) % p
    if work.ndim != 2:
        raise ValueError("expected a 2d array")
    work = work[work.any(axis=1)]  # a zero row stays zero
    nfree, C = work.shape
    piv_cols = []
    basis_rows = []
    groups = []  # (first_index_into_basis_rows, count) per panel, for backfill
    for c0 in range(0, C, _PANEL):
        if nfree == 0:
            break
        c1 = min(C, c0 + _PANEL)
        seq, delta = _panel_sweep(work[:nfree, c0:c1], p)
        if not seq:
            continue
        k = len(seq)
        lrows = [r for r, _ in seq]
        diag = (lrows, np.arange(k))
        delta[diag] = (delta[diag] - 1) % p
        old_piv = work[lrows, :].copy()
        # the rows left are zero left of the panel, so only columns right
        # of it change
        addmul_mod(work[:nfree], delta, old_piv, p, col_lo=0, col_hi=c1)
        groups.append((len(basis_rows), k))
        for r, c in seq:
            piv_cols.append(c0 + c)
            basis_rows.append(work[r].copy())
        for r in sorted(lrows, reverse=True):
            nfree -= 1
            if r != nfree:
                work[r] = work[nfree]
        if not work[:nfree, c1:].any():
            break
    if not basis_rows:
        return [], np.zeros((0, C), dtype=np.int64)
    basis = np.array(basis_rows, dtype=np.int64)
    # backfill: rows found in earlier panels still carry nonzeros in the pivot
    # columns of later panels
    for start, k in groups[1:]:
        block = basis[start:start + k]
        cols = piv_cols[start:start + k]
        coef = basis[:start, cols] % p
        if np.any(coef):
            addmul_mod(basis[:start], (-coef) % p, block, p)
    return piv_cols, basis


def batch_rref_table(mats, codes):
    """Reduced row echelon forms of a stack of small matrices (N x r x c)
    whose entries are codes of the FieldCodes `codes`, by one vectorized
    pivot loop in its arithmetic.  Returns (ranks, reduced, pivots): the
    first ranks[k] rows of reduced[k] are the RREF of matrix k with unit
    pivots, the rest are zero, and pivots[k] marks its pivot columns.

    At column col the rows from rank[k] down are zero in every earlier
    column, so the swap, the scaling and the elimination act on columns
    col onwards only; when every matrix has a pivot there, they act on the
    stack in place rather than on a gathered copy."""
    m = np.array(mats, dtype=np.int64)
    if m.ndim != 3:
        raise ValueError("expected a 3d stack of matrices")
    N, r, c = m.shape
    mul, sub, inv = codes.mul, codes.sub, codes.inv
    rank = np.zeros(N, dtype=np.int64)
    pivots = np.zeros((N, c), dtype=bool)
    if N == 0 or r == 0 or c == 0:
        return rank, m, pivots
    rows_idx = np.arange(r)
    for col in range(c):
        active = (rows_idx[None, :] >= rank[:, None]) & (m[:, :, col] != 0)
        has = active.any(axis=1)
        if has.all():
            idx, w = slice(None), m[:, :, col:]
        else:
            idx = np.nonzero(has)[0]
            if idx.size == 0:
                continue
            w = m[idx, :, col:]
        pr = np.argmax(active[idx], axis=1)
        ri = rank[idx]
        at = np.arange(len(ri))
        prow = w[at, pr]
        w[at, pr] = w[at, ri]
        prow = mul(prow, inv[prow[:, 0]][:, None])
        w[at, ri] = prow
        f = w[:, :, 0].copy()
        f[at, ri] = 0
        w[...] = sub(w, mul(f[:, :, None], prow[:, None, :]))
        if not isinstance(idx, slice):
            m[idx, :, col:] = w
        pivots[idx, col] = True
        rank[idx] += 1
        if bool((rank == min(r, c)).all()):
            break
    return rank, m, pivots


def batch_rank(mats, p):
    """Ranks of a stack of small matrices (N x r x c) mod p."""
    return batch_rref_table(np.asarray(mats, dtype=np.int64) % p,
                            field_codes(GF(p)))[0]


class FieldCodes:
    """The code arithmetic of one finite field (see the module docstring):
    `q` codes, the codes `zero` and `one`, `inv` with inv[a] the inverse
    code of a (inv[0] = 0), and add, sub and mul, elementwise on arrays
    of codes.  Over a field of order <= TABLE_ORDER they read operation
    tables flattened, at a * q + b: one gather from a vector costs less
    than numpy's two-index gather.  Over a larger prime, up to MAX_PRIME,
    they compute mod p.  Any other field has no codes and raises
    ValueError."""

    def __init__(self, field):
        q = self.q = field.order
        if q is None or (q > TABLE_ORDER and (field.kind != "GF(p)"
                                              or q > MAX_PRIME)):
            raise ValueError("no code arithmetic over %s" % field)
        self.zero = 0
        self._digits = None  # the weights of a GF(p^k) payload's digits
        if field.kind == "GF(p^k)":
            self._digits = field.p ** np.arange(field.k - 1, -1, -1)
        self.one = int(self.encode(field.one_value))
        if q > TABLE_ORDER:
            self.inv = inverse_table(q)
            self.add = lambda a, b: (a + b) % q
            self.sub = lambda a, b: (a - b) % q
            self.mul = lambda a, b: a * b % q
            return
        values = list(field.elements())
        self._payloads = np.fromiter(values, dtype=object, count=q)
        tables = np.zeros((3, q, q), dtype=np.int64)
        self.inv = np.zeros(q, dtype=np.int64)
        for i, a in enumerate(values):
            for k, op in enumerate((field.add, field.sub, field.mul)):
                tables[k, i] = self.encode([op(a, b) for b in values])
            if i:
                self.inv[i] = self.encode(field.inv(a))
        add, sub, mul = tables.reshape(3, q * q)
        self.add = lambda a, b: add[a * q + b]
        self.sub = lambda a, b: sub[a * q + b]
        self.mul = lambda a, b: mul[a * q + b]

    def encode(self, rows):
        """The int64 code array of payloads nested in equal-length lists."""
        codes = np.asarray(rows, dtype=np.int64)
        if self._digits is not None and codes.size:
            codes = codes @ self._digits
        return codes

    def decode(self, codes):
        """The payloads of a code array as nested lists, or of one code."""
        if self.q > TABLE_ORDER:  # a residue is its own payload
            return np.asarray(codes).tolist()
        out = self._payloads[codes]
        return out.tolist() if isinstance(out, np.ndarray) else out


@functools.cache
def field_codes(field):
    """The FieldCodes of a finite field, built once per field."""
    return FieldCodes(field)


def batch_rank_table(mats, codes):
    """The ranks of `batch_rref_table`."""
    return batch_rref_table(mats, codes)[0]
