"""Graded linear algebra for homogeneous ideals.

Everything here reduces to ranks of graded pieces: the degree-t piece I_t of
an ideal is a subspace of the space of degree-t forms, its dimension is the
rank of a Macaulay matrix, and HF(t) = dim S_t - dim I_t.  Degree and genus
claims only ever use the eventually-polynomial behavior of HF, so no
saturation or Groebner machinery appears anywhere.

Large prime-field computations run on an incremental ladder: the reduced
basis of I_t is pushed forward to degree t+1 by multiplying with each
variable, and multiplication by the first variable is order-preserving for
graded-lex monomial columns, so the pushed basis lands already reduced and
only the remaining products need elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from . import modnum
from .fields import GF
from .matrices import ExactMatrix
from .multipoly import minor_polys, monomials_of_degree

DEFAULT_PRIME = 32003
SECOND_PRIME = 32009
DEFAULT_DEGREE_CAP = 16

EMPTY = "EMPTY"
NONEMPTY = "NONEMPTY"
INCONCLUSIVE = "INCONCLUSIVE"


def other_prime(prime):
    """The second working prime beside `prime`: SECOND_PRIME, or
    DEFAULT_PRIME when `prime` is SECOND_PRIME."""
    return SECOND_PRIME if prime != SECOND_PRIME else DEFAULT_PRIME


def ambient_dimension(nvars, t):
    """dim of the space of degree-t forms in nvars variables."""
    if t < 0:
        return 0
    return comb(t + nvars - 1, nvars - 1)


class HomogeneousIdeal:
    """A list of homogeneous generators over one field; zero generators are
    dropped at construction, inhomogeneous ones are rejected."""

    def __init__(self, field, nvars, generators):
        gens = []
        for g in generators:
            if g.field != field or g.nvars != nvars:
                raise ValueError("generator field/nvars mismatch")
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise ValueError("inhomogeneous generator %s" % g.render())
            gens.append(g)
        self.field = field
        self.nvars = nvars
        self.generators = gens

    @property
    def degrees(self):
        return sorted({g.homogeneous_degree() for g in self.generators})

    def __repr__(self):
        return "HomogeneousIdeal(%s, %d gens, degrees %s)" % (
            self.field, len(self.generators), self.degrees)


def macaulay_matrix(ideal, t):
    """Rows: coefficient vectors of m*g for each generator g and monomial m
    of degree t - deg g; columns: degree-t monomials in descending graded-lex
    order.  The rank is dim I_t."""
    if t < 0:
        raise ValueError("negative degree")
    cols = {exps: i for i, exps in
            enumerate(monomials_of_degree(ideal.nvars, t))}
    rows = []
    f = ideal.field
    for g in ideal.generators:
        d = g.homogeneous_degree()
        if d > t:
            continue
        for m in monomials_of_degree(ideal.nvars, t - d):
            row = [f.zero_value] * len(cols)
            for exps, c in g.terms.items():
                shifted = tuple(a + b for a, b in zip(exps, m))
                row[cols[shifted]] = c
            rows.append(row)
    return ExactMatrix(f, rows, ncols=len(cols))


def hilbert_function(ideal, t):
    """HF(t) = dim S_t - dim I_t, by a direct Macaulay rank."""
    return ambient_dimension(ideal.nvars, t) - macaulay_matrix(ideal, t).rank()


def _positions(monos, exps, d):
    """The positions in `monos`, all degree-d exponent rows in descending
    graded-lex order, of the degree-d exponent rows `exps` (any leading
    shape).  Read as base-(d + 1) numbers, the rows of `monos` fall
    strictly, so one search finds them all."""
    weights = (d + 1) ** np.arange(monos.shape[1] - 1, -1, -1)
    return np.searchsorted(-(monos @ weights), -(exps @ weights))


class HilbertEngine:
    """Incremental Hilbert-function evaluator over GF(p).

    The generators are read once, at construction, into int64 rows: each
    coefficient is reduced by GF(p).value_of, so a QQ ideal needs no
    reduced copy, a denominator that p divides raises ZeroDivisionError,
    and a generator that vanishes mod p is dropped.  `degrees` lists the
    degrees of the generators kept, largest first.

    The state at degree t is (t, pivot columns, basis): the RREF of I_t
    over the degree-t monomials in descending graded-lex order.  A step to
    t + 1 seeds the new basis with x0 * basis, which lands already reduced,
    then absorbs x_j * basis (j >= 1) and the new generators in blocks:
    each block is reduced against the seed and the rows found so far by
    two products, and row-reduced on the columns that are pivots of
    neither, the only ones where a new pivot can appear.  Asking for
    values out of order just ladders forward.
    """

    CHUNK = 1500

    def __init__(self, ideal, prime=DEFAULT_PRIME):
        if ideal.field.kind not in ("QQ", "GF(p)"):
            raise ValueError("HilbertEngine needs a prime field or QQ input")
        if ideal.field.kind == "GF(p)" and ideal.field.p != prime:
            raise ValueError("ideal is over GF(%d), engine prime is %d"
                             % (ideal.field.p, prime))
        modnum._check_prime(prime)
        fp = GF(prime)
        self.p = prime
        self.n = ideal.nvars
        self._gens_by_degree = {}  # degree: [(exponent rows, values)]
        for g in ideal.generators:
            vals = np.array([fp.value_of(c) for c in g.terms.values()],
                            dtype=np.int64)
            if vals.any():
                exps = list(g.terms)  # homogeneous: every term has g's degree
                self._gens_by_degree.setdefault(sum(exps[0]), []).append(
                    (np.array(exps, dtype=np.int64), vals))
        self.degrees = sorted((d for d, gens in self._gens_by_degree.items()
                               for _ in gens), reverse=True)
        self._t0 = min(self._gens_by_degree, default=None)
        self._ranks = {}
        self._mono_cache = {}
        self._state = None  # (t, piv_cols list, basis ndarray)

    def _monos(self, t):
        """The degree-t exponent rows in descending graded-lex order."""
        got = self._mono_cache.get(t)
        if got is None:
            monos = list(monomials_of_degree(self.n, t))
            got = np.array(monos, dtype=np.int64).reshape(len(monos), self.n)
            # keep the cache small: only the degrees near the frontier matter
            self._mono_cache = {k: v for k, v in self._mono_cache.items()
                                if k >= t - 2}
            self._mono_cache[t] = got
        return got

    def _gen_rows(self, t):
        """Coefficient rows (int64) of the generators of degree exactly t."""
        gens = self._gens_by_degree.get(t, [])
        monos = self._monos(t)
        rows = np.zeros((len(gens), len(monos)), dtype=np.int64)
        for i, (exps, vals) in enumerate(gens):
            rows[i, _positions(monos, exps, t)] = vals
        return rows

    def ideal_rank(self, t):
        got = self._ranks.get(t)
        if got is not None:
            return got
        t0 = self._t0
        if t0 is None or t < t0:
            self._ranks[t] = 0
            return 0
        if self._state is None or self._state[0] > t:
            piv, basis = modnum.rref_mod(self._gen_rows(t0), self.p)
            self._state = (t0, piv, basis)
            self._ranks[t0] = len(piv)
        while self._state[0] < t:
            self._step()
        return self._ranks[t]

    def _step(self):
        t, piv, basis = self._state
        p = self.p
        t1 = t + 1
        monos_t = self._monos(t)
        monos_t1 = self._monos(t1)
        D1 = len(monos_t1)
        # shift[j][i]: the position of x_j times monomial i of degree t
        shift = _positions(monos_t1, monos_t + np.eye(self.n, dtype=np.int64)
                           [:, None, :], t1)
        # multiplication by x0 preserves descending graded-lex positions, so
        # the pushed-forward basis is still reduced with the same pivot layout
        assert np.array_equal(shift[0], np.arange(len(monos_t)))
        r = basis.shape[0]
        seed = np.zeros((r, D1), dtype=np.int64)
        seed[:, :basis.shape[1]] = basis
        # every row absorbed is first cleared on the seed's pivot columns, so
        # the rows it adds live on the other columns, `rest`; they are kept
        # there, with their pivots as positions in `rest`
        rest = np.ones(D1, dtype=bool)
        rest[piv] = False
        rest = np.flatnonzero(rest)
        seed_rest = seed[:, rest]
        new_piv = []
        new_basis = np.zeros((0, rest.size), dtype=np.int64)
        free = np.ones(rest.size, dtype=bool)

        def absorb(R):
            nonlocal new_piv, new_basis
            coef = R[:, piv]
            R = R[:, rest]
            if np.any(coef):
                modnum.addmul_mod(R, (-coef) % p, seed_rest, p)
            if new_piv:
                coef = R[:, new_piv]
                if np.any(coef):
                    modnum.addmul_mod(R, (-coef) % p, new_basis, p)
            # R is now zero on every pivot column found so far
            cols = np.flatnonzero(free)
            piv_f, bas_f = modnum.rref_mod(R[:, cols], p)
            if piv_f:
                piv_c = cols[piv_f].tolist()
                bas_c = np.zeros((len(piv_c), rest.size), dtype=np.int64)
                bas_c[:, cols] = bas_f
                free[piv_c] = False
                if new_piv:
                    coef = new_basis[:, piv_c]
                    if np.any(coef):
                        modnum.addmul_mod(new_basis, (-coef) % p, bas_c, p)
                new_basis = np.concatenate([new_basis, bas_c])
                new_piv = new_piv + piv_c

        for j in range(1, self.n):
            for lo in range(0, r, self.CHUNK):
                block = basis[lo:lo + self.CHUNK]
                R = np.zeros((block.shape[0], D1), dtype=np.int64)
                R[:, shift[j]] = block
                absorb(R)
        fresh = self._gen_rows(t1)
        if fresh.size:
            absorb(fresh)
        if new_piv:
            coef = seed_rest[:, new_piv]
            if np.any(coef):
                modnum.addmul_mod(seed_rest, (-coef) % p, new_basis, p)
                seed[:, rest] = seed_rest
            found = np.zeros((len(new_piv), D1), dtype=np.int64)
            found[:, rest] = new_basis
            allpiv = list(piv) + rest[new_piv].tolist()
            order = np.argsort(np.array(allpiv, dtype=np.int64))
            merged = np.concatenate([seed, found])[order]
            piv_sorted = [allpiv[i] for i in order]
        else:
            merged = seed
            piv_sorted = list(piv)
        self._state = (t1, piv_sorted, merged)
        self._ranks[t1] = len(piv_sorted)

    def hilbert_function(self, t):
        return ambient_dimension(self.n, t) - self.ideal_rank(t)


class HilbertData:
    """Window of Hilbert-function values plus, when found, the polynomial the
    tail agrees with (coefficients ascending, exact rationals)."""

    def __init__(self, window, values, fitted=None, stable_from=None):
        self.window = window
        self.values = list(values)
        self.fitted = fitted
        self.stable_from = stable_from

    @property
    def polynomial_degree(self):
        return len(self.fitted) - 1 if self.fitted else None

    @property
    def scheme_degree(self):
        """Leading coefficient times (dim)! -- the degree of the scheme."""
        d = self.polynomial_degree
        lead = self.fitted[-1]
        out = lead
        for k in range(2, d + 1):
            out *= k
        if out.denominator != 1:
            raise ValueError("non-integral scheme degree from %s" % self.fitted)
        return int(out)

    @property
    def arithmetic_genus(self):
        """1 - P(0), meaningful for one-dimensional schemes."""
        if self.polynomial_degree != 1:
            raise ValueError("arithmetic genus only read off for curves")
        const = self.fitted[0]
        if const.denominator != 1:
            raise ValueError("non-integral constant term")
        return 1 - int(const)

    def polynomial_string(self):
        if not self.fitted:
            return "none"
        parts = []
        for e in range(len(self.fitted) - 1, -1, -1):
            c = self.fitted[e]
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append("%s*t" % c)
            else:
                parts.append("%s*t^%d" % (c, e))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "HilbertData(window=%s, fit=%s)" % (self.window,
                                                   self.polynomial_string())


def _interpolate(ts, vals):
    """Exact Lagrange interpolation; coefficients ascending in t."""
    n = len(ts)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        num = [Fraction(1)]
        den = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            # multiply num by (t - ts[j])
            num = [Fraction(0)] + num
            for k in range(len(num) - 1):
                num[k] -= ts[j] * num[k + 1]
            den *= ts[i] - ts[j]
        scale = Fraction(vals[i]) / den
        for k in range(len(num)):
            coeffs[k] += num[k] * scale
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def fit_hilbert_polynomial(ideal, expected_dim, cap=DEFAULT_DEGREE_CAP,
                           primes=(DEFAULT_PRIME, SECOND_PRIME)):
    """Walk HF(t) upward until expected_dim + 2 consecutive values lie on one
    polynomial of degree expected_dim; return the full window and the fit.

    Rational ideals are reduced modulo two primes and the windows must agree;
    a disagreement falls back to exact rational ranks (slow, but it settles
    the matter unconditionally).
    """
    if expected_dim < 0:
        raise ValueError("expected_dim must be nonnegative")

    def window_mod(p):
        return _hf_until_stable(HilbertEngine(ideal, prime=p).hilbert_function,
                                expected_dim, cap)

    if ideal.field.kind == "GF(p)":
        values, stable = window_mod(ideal.field.p)
    else:
        values, stable = window_mod(primes[0])
        if ideal.field.kind == "QQ" and len(primes) > 1:
            if (values, stable) != window_mod(primes[1]):
                values, stable = _hf_until_stable(
                    lambda t: hilbert_function(ideal, t), expected_dim, cap)
    if stable is None:
        raise ValueError(
            "Hilbert function did not stabilize to a degree-%d polynomial "
            "by t = %d" % (expected_dim, cap))
    ts = list(range(stable, stable + expected_dim + 1))
    fitted = _interpolate(ts, [values[t] for t in ts])
    return HilbertData((0, len(values) - 1), values, fitted=fitted,
                       stable_from=stable)


def _fit_window_found(values, expected_dim, need):
    """First t0 with `need` consecutive values on one poly of the right
    degree, or None."""
    top = len(values) - 1
    for t0 in range(0, top - need + 2):
        ts = list(range(t0, t0 + expected_dim + 1))
        fitted = _interpolate(ts, [values[t] for t in ts])
        if len(fitted) - 1 > expected_dim:
            continue
        ok = all(
            sum(c * Fraction(t) ** e for e, c in enumerate(fitted))
            == values[t]
            for t in range(t0, t0 + need))
        if ok:
            return t0
    return None


def _hf_until_stable(hf, expected_dim, cap):
    """HF(0), HF(1), ... from the function `hf` until `_fit_window_found`
    sees a window or t passes cap; returns (values, window start or None)."""
    need = expected_dim + 2
    values = []
    for t in range(cap + 1):
        values.append(hf(t))
        if len(values) >= need:
            t0 = _fit_window_found(values, expected_dim, need)
            if t0 is not None:
                return values, t0
    return values, None


class EmptinessResult:
    """Tri-state answer for projective emptiness, with the witness degree."""

    def __init__(self, status, witness_degree, tail):
        self.status = status
        self.witness_degree = witness_degree
        self.tail = tail

    @property
    def is_empty(self):
        if self.status == INCONCLUSIVE:
            raise ValueError("emptiness inconclusive at the degree cap")
        return self.status == EMPTY

    def __repr__(self):
        return "EmptinessResult(%s at t=%s)" % (self.status,
                                                self.witness_degree)


def is_empty_projective(ideal, prime=DEFAULT_PRIME, cap=DEFAULT_DEGREE_CAP):
    """Tri-state projective emptiness over the algebraic closure of GF(p),
    from the Hilbert function, climbing t = 0, 1, ... up to `cap`.

    HF(t) = 0 at any t certifies EMPTY: every degree-t monomial lies in the
    ideal.  For a rational ideal the certificate lifts to QQ, since ranks
    only drop under reduction mod p.

    The climb also stops at the Macaulay bound B.  Take the generators the
    engine works on (reduced mod p, so those that vanish there are gone),
    in n variables, with degrees d_1 >= d_2 >= ...  With at least n of them,
    B = d_1 + ... + d_n - n + 1, and the zero set is empty iff HF(B) = 0
    (Lazard 1983); with fewer than n the zero set is never empty, B = 0.
    So HF(t) > 0 at t = B certifies NONEMPTY over the closure of GF(p).

    Only a cap below B leaves the climb short of a certificate.  There HF
    positive and no longer strictly decreasing at the cap is reported
    NONEMPTY (evidence only); HF still strictly dropping stays
    INCONCLUSIVE, since it may yet reach zero a few degrees later.
    """
    if ideal.field.kind in ("QQ", "GF(p)"):
        engine = HilbertEngine(ideal, prime=prime) \
            if ideal.field.kind == "QQ" or ideal.field.p == prime \
            else HilbertEngine(ideal, prime=ideal.field.p)
    else:
        raise ValueError("emptiness check needs QQ or prime-field input")
    n = engine.n
    degrees = engine.degrees
    bound = sum(degrees[:n]) - n + 1 if len(degrees) >= n else 0
    tail = []
    for t in range(cap + 1):
        hf = engine.hilbert_function(t)
        tail.append(hf)
        if hf == 0:
            return EmptinessResult(EMPTY, t, tail)
        if t >= bound:
            return EmptinessResult(NONEMPTY, t, tail)
    if len(tail) >= 2 and tail[-1] >= tail[-2]:
        return EmptinessResult(NONEMPTY, cap, tail)
    return EmptinessResult(INCONCLUSIVE, cap, tail)


def jacobian_ideal(ideal, codim=None):
    """Generators plus the minors of the Jacobian sized to the expected
    codimension; for a single hypersurface this is the equation and its
    first partials."""
    gens = ideal.generators
    if not gens:
        return ideal
    n = ideal.nvars
    if len(gens) == 1:
        g = gens[0]
        extra = [g.partial(i) for i in range(n)]
        return HomogeneousIdeal(ideal.field, n, gens + extra)
    if codim is None:
        raise ValueError("codimension required for a non-hypersurface")
    jac = [[g.partial(i) for i in range(n)] for g in gens]
    return HomogeneousIdeal(ideal.field, n, gens + minor_polys(jac, codim))


def minors_ideal(entries, r):
    """All r x r minors of a grid of polynomials, as an ideal (zero minors
    dropped by the ideal constructor)."""
    if not entries or not entries[0]:
        raise ValueError("empty matrix")
    field = entries[0][0].field
    nvars = entries[0][0].nvars
    if r > min(len(entries), len(entries[0])):
        raise ValueError("minor size exceeds matrix dimensions")
    return HomogeneousIdeal(field, nvars, minor_polys(entries, r))
