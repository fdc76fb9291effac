"""Graded linear algebra for homogeneous ideals.

Everything here reduces to ranks of graded pieces: the degree-t piece I_t of
an ideal is a subspace of the space of degree-t forms, its dimension is the
rank of a Macaulay matrix, and HF(t) = dim S_t - dim I_t.  Degree and genus
claims only ever use the eventually-polynomial behavior of HF, so no
saturation or Groebner machinery appears anywhere.

An ideal is its integer rows, over QQ or GF(p) only: for each generator
degree d, one row per form over `monomial_table(nvars, d)` with a scale.
The levels of `multipoly.minor_level` and `pfaffian_level` pass straight
in, and the Jacobian and Macaulay matrices scatter rows by
`monomial_positions`, so no MultiPoly is built here.

Large prime-field computations run on an incremental ladder that pushes
the reduced basis of I_t forward to degree t+1.  Multiplication by the
first variable is order-preserving for graded-lex monomial columns, so
x0 * basis lands already reduced.  The other variables need only part of
the basis, by the multiplicative-variable idea of involutive bases
(Gerdt-Blinkov 1998).  Each basis row has a class: 0 for the rows of
x0 I_{t-1}, j for a row the step to t found while absorbing x_j's block,
n for a fresh generator and for every row at the first degree.  With
F_j = x_0 I_{t-1} + ... + x_{j-1} I_{t-1}, the rows C_j of class >= j
span I_t modulo F_j, so x_j I_t lies in x_j C_j + x_j F_j, and x_j F_j
lies in x_0 I_t + ... + x_{j-1} I_t; by induction on j,

    I_{t+1} = x0 I_t + sum_{j >= 1} x_j C_j + span(G_{t+1}),

G_{t+1} the generators of degree t+1.  The invariant carries over to t+1:
the rows found before x_j's block lie in F_j at t+1, and back-reduction
only adds rows of a higher class to a row.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

import numpy as np

from . import modnum
from .matrices import ExactMatrix
from .multipoly import minor_level, monomial_positions, monomial_table

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


def check_ideal_field(field):
    """Raise ValueError unless `field` is QQ or GF(p), the fields whose
    forms a `HomogeneousIdeal` holds as integer rows."""
    if field.kind not in ("QQ", "GF(p)"):
        raise ValueError("emptiness check needs QQ or prime-field input")


class HomogeneousIdeal:
    """Homogeneous forms over QQ or GF(p), held as integer rows: `forms`
    maps each degree d to (rows, scales), the rows an integer array (int64
    or object) over `monomial_table(nvars, d)` and the scales positive
    integers (1 over GF(p), whose rows hold residues), form i being
    rows[i] / scales[i].  Zero rows are dropped, and a row and its scale
    are divided by their gcd, so a prime divides a scale iff it divides
    some coefficient's reduced denominator."""

    def __init__(self, field, nvars, forms):
        check_ideal_field(field)
        self.field = field
        self.nvars = nvars
        self.forms = {}
        for d, (rows, scales) in forms.items():
            rows = np.asarray(rows)
            keep = np.flatnonzero(rows.any(axis=1))
            if not keep.size:
                continue
            rows = rows[keep]
            scales = [scales[i] for i in keep.tolist()]
            for i, s in enumerate(scales):
                if s != 1:
                    g = gcd(s, int(np.gcd.reduce(rows[i])))
                    rows[i] //= g
                    scales[i] = s // g
            self.forms[d] = (rows, scales)

    @property
    def degrees(self):
        return sorted(self.forms)

    def __repr__(self):
        return "HomogeneousIdeal(%s, %d gens, degrees %s)" % (
            self.field, sum(len(rows) for rows, _ in self.forms.values()),
            self.degrees)


def macaulay_matrix(ideal, t):
    """Rows: coefficient vectors of m*g for each generator g and monomial m
    of degree t - deg g; columns: degree-t monomials in descending graded-lex
    order.  The rank is dim I_t."""
    if t < 0:
        raise ValueError("negative degree")
    n, qq = ideal.nvars, ideal.field.kind == "QQ"
    ncols = len(monomial_table(n, t))
    rows = []
    for d, (gens, scales) in ideal.forms.items():
        if d > t:
            continue
        # at[k, i]: the position of monomial k of degree t - d times
        # monomial i of degree d
        at = monomial_positions(n, t, monomial_table(n, t - d)[:, None]
                                + monomial_table(n, d)[None])
        for g, s in zip(gens.tolist(), scales):
            block = np.zeros((len(at), ncols), dtype=object)
            block[np.arange(len(at))[:, None], at] = [
                Fraction(c, s) if qq else c for c in g]
            rows.extend(block.tolist())
    return ExactMatrix(ideal.field, rows, ncols=ncols)


def hilbert_function(ideal, t):
    """HF(t) = dim S_t - dim I_t, by a direct Macaulay rank."""
    return ambient_dimension(ideal.nvars, t) - macaulay_matrix(ideal, t).rank()


class HilbertEngine:
    """Incremental Hilbert-function evaluator over GF(p).

    The generators are read once, at construction, from the ideal's integer
    `forms`, reduced mod p with numpy: a row with scale s is multiplied by
    s^-1, so a QQ ideal needs no reduced copy, a scale that p divides
    raises ZeroDivisionError, and a generator that vanishes mod p is
    dropped.  `degrees` lists the degrees of the generators kept, largest
    first.

    The state at degree t is (t, pivot columns, basis, classes): the RREF
    of I_t over the degree-t monomials in descending graded-lex order, and
    each basis row's class, 0 for a row of x0 * I_{t-1}, j for a row found
    in x_j's block, n for a fresh generator and at the first degree.  The
    rows C_j of class >= j span I_t modulo x_0 I_{t-1} + ... +
    x_{j-1} I_{t-1} (module docstring), so a step to t + 1 seeds the new
    basis with x0 * basis, which lands already reduced, then absorbs
    x_j * C_j for j = 1 .. n-1 and the new generators in blocks: each block
    is reduced against the seed and the rows found so far by two products,
    and row-reduced on the columns that are pivots of neither, the only
    ones where a new pivot can appear.  Asking for values out of order just
    ladders forward.
    """

    CHUNK = 1500

    def __init__(self, ideal, prime=DEFAULT_PRIME):
        if ideal.field.kind == "GF(p)" and ideal.field.p != prime:
            raise ValueError("ideal is over GF(%d), engine prime is %d"
                             % (ideal.field.p, prime))
        modnum._check_prime(prime)
        self.p = prime
        self.n = ideal.nvars
        self._gens_by_degree = {}  # degree: int64 rows over its monomial_table
        for d, (rows, scales) in ideal.forms.items():
            rows = (rows % prime).astype(np.int64)
            if any(s != 1 for s in scales):
                if any(s % prime == 0 for s in scales):
                    raise ZeroDivisionError(
                        "denominator not invertible mod %d" % prime)
                inv = np.array([pow(s, -1, prime) for s in scales],
                               dtype=np.int64)
                rows = rows * inv[:, None] % prime
            rows = rows[rows.any(axis=1)]
            if len(rows):
                self._gens_by_degree[d] = rows
        self.degrees = sorted((d for d, rows in self._gens_by_degree.items()
                               for _ in rows), reverse=True)
        self._t0 = min(self._gens_by_degree, default=None)
        self._ranks = {}
        self._state = None  # (t, piv_cols list, basis ndarray, row classes)

    def ideal_rank(self, t):
        got = self._ranks.get(t)
        if got is not None:
            return got
        t0 = self._t0
        if t0 is None or t < t0:
            self._ranks[t] = 0
            return 0
        if self._state is None:
            piv, basis = modnum.rref_mod(self._gens_by_degree[t0], self.p)
            self._state = (t0, piv, basis,
                           np.full(len(piv), self.n, dtype=np.int64))
            self._ranks[t0] = len(piv)
        while self._state[0] < t:
            self._step()
        return self._ranks[t]

    def _step(self):
        t, piv, basis, cls = self._state
        p = self.p
        t1 = t + 1
        monos_t = monomial_table(self.n, t)
        D1 = len(monomial_table(self.n, t1))
        # shift[j][i]: the position of x_j times monomial i of degree t
        shift = monomial_positions(
            self.n, t1, monos_t + np.eye(self.n, dtype=np.int64)[:, None])
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
        new_piv, new_cls = [], []
        new_basis = np.zeros((0, rest.size), dtype=np.int64)
        free = np.ones(rest.size, dtype=bool)

        def absorb(R, c):
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
                new_cls.extend([c] * len(piv_c))

        for j in range(1, self.n):
            grown = basis[cls >= j]
            for lo in range(0, len(grown), self.CHUNK):
                block = grown[lo:lo + self.CHUNK]
                R = np.zeros((block.shape[0], D1), dtype=np.int64)
                R[:, shift[j]] = block
                absorb(R, j)
        fresh = self._gens_by_degree.get(t1)
        if fresh is not None:
            absorb(fresh, self.n)
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
            classes = np.concatenate([np.zeros(r, dtype=np.int64),
                                      new_cls])[order]
        else:
            merged = seed
            piv_sorted = list(piv)
            classes = np.zeros(r, dtype=np.int64)
        self._state = (t1, piv_sorted, merged, classes)
        self._ranks[t1] = len(piv_sorted)

    def hilbert_function(self, t):
        return ambient_dimension(self.n, t) - self.ideal_rank(t)


class HilbertData:
    """Window of Hilbert-function values plus, when found, the polynomial the
    tail agrees with (coefficients ascending, exact rationals), and the
    primes the values were computed mod."""

    def __init__(self, window, values, fitted=None, stable_from=None,
                 primes=()):
        self.window = window
        self.values = list(values)
        self.fitted = fitted
        self.stable_from = stable_from
        self.primes = list(primes)

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
    the matter unconditionally).  An ideal over GF(p) is read mod p alone.
    """
    if expected_dim < 0:
        raise ValueError("expected_dim must be nonnegative")

    def window_mod(p):
        return _hf_until_stable(HilbertEngine(ideal, prime=p).hilbert_function,
                                expected_dim, cap)

    if ideal.field.kind == "GF(p)":
        primes = (ideal.field.p,)
    values, stable = window_mod(primes[0])
    if len(primes) > 1 and (values, stable) != window_mod(primes[1]):
        values, stable = _hf_until_stable(
            lambda t: hilbert_function(ideal, t), expected_dim, cap)
    if stable is None:
        raise ValueError(
            "Hilbert function did not stabilize to a degree-%d polynomial "
            "by t = %d" % (expected_dim, cap))
    ts = list(range(stable, stable + expected_dim + 1))
    fitted = _interpolate(ts, [values[t] for t in ts])
    return HilbertData((0, len(values) - 1), values, fitted=fitted,
                       stable_from=stable, primes=primes)


def _hf_until_stable(hf, expected_dim, cap):
    """HF(0), HF(1), ... from the function `hf` until t passes cap or the
    newest d + 2 values (d = expected_dim) have (d + 1)-th difference 0, so
    lie on one polynomial of degree <= d; returns (values, window start or
    None).  Each earlier window was tested when its last value came in."""
    need = expected_dim + 2
    signs = [(-1) ** (need - 1 - i) * comb(need - 1, i) for i in range(need)]
    values = []
    for t in range(cap + 1):
        values.append(hf(t))
        if len(values) >= need and not sum(
                s * v for s, v in zip(signs, values[-need:])):
            return values, len(values) - need
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

    Only a cap below B leaves the climb short of a certificate, and the
    answer is then INCONCLUSIVE: HF may reach zero at any degree up to B,
    after a plateau or a rise, so no shape of the tail is evidence.
    """
    engine = HilbertEngine(ideal, prime=prime if ideal.field.kind == "QQ"
                           else ideal.field.p)
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
    return EmptinessResult(INCONCLUSIVE, cap, tail)


def jacobian_ideal(ideal):
    """The equation of a hypersurface and its first partials: the partial
    by x_i moves the coefficient c of x^e, times e_i, to the position of
    x^e / x_i.  Products are Python ints, as a QQ row may sit near 2^62."""
    if sum(len(rows) for rows, _ in ideal.forms.values()) > 1:
        raise ValueError("the Jacobian ideal is taken of a hypersurface")
    n, forms = ideal.nvars, dict(ideal.forms)
    for d, (rows, scales) in ideal.forms.items():
        exps = monomial_table(n, d)
        partials = np.zeros((n, len(monomial_table(n, d - 1))), dtype=object)
        for i, unit in enumerate(np.eye(n, dtype=np.int64)):
            on = exps[:, i] > 0
            partials[i, monomial_positions(n, d - 1, exps[on] - unit)] = \
                rows[0, on].astype(object) * exps[on, i]
        if ideal.field.kind == "GF(p)":
            partials %= ideal.field.p
        forms[d - 1] = (partials, scales * n)
    return HomogeneousIdeal(ideal.field, n, forms)


def minors_ideal(field, stack, r):
    """All r x r minors of a stack, the integer level of
    `multipoly.minor_level`, as an ideal (zero minors dropped).  The field
    is checked before any minor is expanded."""
    check_ideal_field(field)
    if r > min(len(stack[0]), len(stack[0][0])):
        raise ValueError("minor size exceeds matrix dimensions")
    _, level, _, scales = minor_level(field, stack, r)
    return HomogeneousIdeal(field, len(stack), {r: (level, scales)})
