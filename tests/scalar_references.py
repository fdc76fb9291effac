"""Scalar references, one point at a time on ExactMatrix and MultiPoly:
the kernel plane kappa(a) of a point of Y, which the package reads from
code arrays (`correspondence._x_masks`); for the line correspondence, the
fiber of psi, the ideal of X with its certificate on a pencil, and the
RREF key of a line, which the package reads from code arrays
(`correspondence.curve_fibers`); the splitting type of one line from
its pencil `ANet`, five `f_at` probes and three `mu_matrix` ranks, which
the package reads for all lines at once (`correspondence.splitting_types`);
and the random sampler drawing one
`random.Random.choice` and one rank lookup at a time, which the package
replays in blocks (`verify._random_pairs`); and the rank tables ranked
from the stack at every point: of P(V), which the package walks from the
kernels of f(a) over Y (`RankOracle._walk`), and of P(A), which the
package ranks only at the zeros of the cubic (`RankOracle._screened`).
The tests compare the two.

Also the symbolic restriction of a form to a line, which the package
answers by ranks at the line's points (`correspondence.lie_on_y`); the
polynomial Pfaffian by recursive first-row expansion on MultiPolys, which
the package computes for all principal sub-Pfaffians at once on code
arrays (`multipoly.pfaffian_level`); the minors of a grid by memoized
Laplace expansion on MultiPolys, which the package computes on code
arrays (`multipoly.minor_level`); the matrix f_v at a point, read from
the net's matrices; the grid of MultiPoly linear forms of a stack, which
the MultiPoly references read; the recursive monomial enumeration that
`multipoly.monomial_table` replaced; and the exact scalar references
that only the tests read: the determinant, the Pfaffian by first-row
expansion and polynomial long division.  Last, the MultiPoly view of an
ideal, which the package holds as integer rows (`ideal_of` builds a
`HomogeneousIdeal` from MultiPolys, `ideal_polys` reads its forms back),
the brute-force point count of the zero set of MultiPoly forms, and the
degree and partial derivatives of a MultiPoly, which the package reads
off its integer rows (`ideals.jacobian_ideal`).  And the Hilbert fit's
window search that interpolates every window on each new value, which
the package replaced by one finite difference per value
(`ideals._hf_until_stable`)."""

import itertools
import random
from fractions import Fraction
from math import lcm

import numpy as np

from pfaffian_nets import modnum, verify
from pfaffian_nets.cohomology import mu_matrix
from pfaffian_nets.correspondence import (ANet, _phi_bases,
                                          pfaffian_hypersurface, rank_oracle,
                                          x_points, y_points)
from pfaffian_nets.grassmann import (_CHUNK, enumerate_projective,
                                     pair_indices, plucker_from_basis)
from pfaffian_nets.ideals import HomogeneousIdeal, _interpolate
from pfaffian_nets.matrices import ExactMatrix
from pfaffian_nets.multipoly import MultiPoly, monomial_table


def psi_fiber(net, v):
    """P(Ker f_v) inside P(A): the a with f(a)(v, -) = 0.  One point when
    rank f_v = 4, the line M_c when rank f_v = 3."""
    rank, kern = fv_at(net, v).transpose().rank_kernel()
    dim = kern.ncols
    if dim == 0:
        raise ValueError("v is not on Q: f_v has full rank %d" % rank)
    cols = [[kern.rows[r][j] for r in range(net.n)] for j in range(dim)]
    if dim == 1:
        return ("point", tuple(cols[0]))
    if dim == 2:
        return ("line", (tuple(cols[0]), tuple(cols[1])))
    raise ValueError("corank %d fiber: rank f_v = %d <= 2 violates the "
                     "minimal-rank bound" % (dim, rank))


def fv_at(net, v):
    """The n x 2m matrix f_v at a point v, row i the product v^T F_i."""
    vt = ExactMatrix(net.field, [v])
    return ExactMatrix(net.field, [(vt @ ExactMatrix(net.field, F)).rows[0]
                                   for F in net.stack("a")], ncols=net.two_m)


def stack_grid(field, stack):
    """The matrix sum_l x_l C_l of a stack (`ANet.stack`) as a grid of
    MultiPoly linear forms, the input of the MultiPoly references."""
    return [[MultiPoly.linear_form(field, [C[i][k] for C in stack])
             for k in range(len(stack[0][0]))] for i in range(len(stack[0]))]


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, in descending graded-lex
    order."""
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


def x_plucker_points(net, field):
    """`x_points` decoded: the Plucker point of each code basis, in order."""
    fc = modnum.field_codes(field)
    return [plucker_from_basis(ExactMatrix(field, basis))
            for basis in fc.decode(x_points(net, field))]


def y_payloads(net, field):
    """`y_points` decoded: each point of Y as a tuple of field payloads, in
    order."""
    fc = modnum.field_codes(field)
    return [tuple(a) for a in fc.decode(y_points(net, field))]


def _ranked_table(net, field, side):
    """The rank at every point of one side's space, in enumeration order,
    computed from the oracle's stack _CHUNK points at a time."""
    oracle = rank_oracle(net, field, side)
    table = np.empty(oracle.size, dtype=np.int8)
    for lo in range(0, oracle.size, _CHUNK):
        idx = np.arange(lo, min(oracle.size, lo + _CHUNK))
        table[lo:lo + idx.size] = oracle._computed(oracle._codes_at(idx))
    return table


def fv_rank_table(net, field):
    """rank f_v at every point of P(V), ranked from the stack."""
    return _ranked_table(net, field, "v")


def a_rank_table(net, field):
    """rank f(a) at every point of P(A), ranked from the stack."""
    return _ranked_table(net, field, "a")


def kappa(net, a):
    """Kernel of f(a) as a Plucker point, for a on Y with the expected
    corank 2."""
    fa = net.f_at(a)
    if net.field.characteristic != 2:
        if pfaffian_scalar(fa):
            raise ValueError("point is not on the Pfaffian hypersurface")
    rank, kern = fa.rank_kernel()
    if rank != net.two_m - 2:
        raise ValueError("rank f(a) = %d, expected %d (irregular point)"
                         % (rank, net.two_m - 2))
    return plucker_from_basis(kern.transpose())


def line_key(field, a1, a2):
    """The RREF of the two rows spanning a line."""
    _, red = ExactMatrix(field, [list(a1), list(a2)]).rref()
    return tuple(tuple(row) for row in red.rows)


def splitting_type_on_line(net, a1, a2):
    """Splitting type (d1, d2), d1 <= d2, d1 + d2 = 4, of the restriction
    data of the kernel bundle on a line inside Y.

    The pencil P(s, t) = s f(a1) + t f(a2) of corank-2 skew forms has a
    rank-2 kernel bundle K = O(-e1) + O(-e2) with e1 + e2 = 2; the ladder
    N(s) = dim ker(V x S^s -> V* x S^{s+1}) counts its twisted sections,
    N(0) distinguishes (0,2) from (1,1), and the reported type is
    (e1+1, e2+1): the jumping value is (1,3), the generic one (2,2).
    """
    cubic = pfaffian_hypersurface(net)
    if not line_on_hypersurface(cubic, a1, a2):
        raise ValueError("the pencil does not lie on the Pfaffian "
                         "hypersurface")
    pairs, _ = pair_indices(net.two_m)
    pencil = ANet(net.field, net.two_m, [[F.rows[i][j] for i, j in pairs]
                                         for F in (net.f_at(a1),
                                                   net.f_at(a2))])
    # corank must be exactly 2 across the pencil; probe a few parameters
    probes = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)]
    for s, t in probes:
        r = pencil.f_at((s, t)).rank()
        if r > net.two_m - 2:
            raise ValueError("pencil point of full rank: line not on Y?")
        if r < net.two_m - 2:
            raise ValueError("pencil rank drops to %d: kernel sheaf is not "
                             "a rank-2 bundle here" % r)
    # N(s): the kernel of multiplication by the pencil from degree s to s+1
    ladder = [net.two_m * (s + 1) - mu_matrix(pencil, s + 1).rank()
              for s in range(3)]
    profiles = {(0, 2): [1, 2, 4], (1, 1): [0, 2, 4]}
    for (e1, e2), expect in profiles.items():
        if ladder == expect:
            return (e1 + 1, e2 + 1)
    raise ValueError("section ladder %s matches no rank-2 splitting with "
                     "e1 + e2 = 2; this is a finding to surface" % (ladder,))


def plucker_quadrics(two_m, field):
    """The C(2m, 4) three-term relations p_ij p_kl - p_ik p_jl + p_il p_jk
    over 4-subsets i < j < k < l, as quadrics in C(2m, 2) variables."""
    if two_m < 4:
        raise ValueError("need 2m >= 4")
    pairs, pos = pair_indices(two_m)
    nv = len(pairs)
    out = []
    one = field.one_value
    neg1 = field.neg(one)
    for i, j, k, l in itertools.combinations(range(two_m), 4):
        terms = {}
        for (a, b, cc, d), s in (((i, j, k, l), one), ((i, k, j, l), neg1),
                                 ((i, l, j, k), one)):
            e = [0] * nv
            e[pos[(a, b)]] += 1
            e[pos[(cc, d)]] += 1
            terms[tuple(e)] = s
        out.append(MultiPoly(field, nv, terms))
    return out


def satisfies_quadrics(point):
    """Whether a PluckerPoint satisfies every three-term relation."""
    f = point.field
    _, pos = pair_indices(point.two_m)
    c = point.coords
    for i, j, k, l in itertools.combinations(range(point.two_m), 4):
        t1 = f.mul(c[pos[(i, j)]], c[pos[(k, l)]])
        t2 = f.mul(c[pos[(i, k)]], c[pos[(j, l)]])
        t3 = f.mul(c[pos[(i, l)]], c[pos[(j, k)]])
        if not f.is_zero_value(f.add(f.sub(t1, t2), t3)):
            return False
    return True


def net_linear_forms(net):
    """The n linear forms l_i(p) = sum_{j<k} (F_i)_{jk} p_{jk} in Plucker
    variables; X = Gr(2,V) cut by all of them."""
    return [MultiPoly.linear_form(net.field, tri) for tri in net.triangles]


def x_generators(net):
    """The generators of the ideal of X in the Plucker variables: the
    Plucker quadrics and the net's linear forms."""
    return plucker_quadrics(net.two_m, net.field) + net_linear_forms(net)


def certify_line_on_x(reduced, pencil):
    """Whether every generator of the X ideal vanishes at deg+1 distinct
    parameter points of the pencil, which pins a binary form of degree
    deg to zero."""
    f = reduced.field
    params = [(f.one_value, f.zero_value)] \
        + [(e, f.one_value) for e in f.elements()]
    for gen in x_generators(reduced):
        need = gen.degree() + 1
        assert need <= len(params)
        if any(not f.is_zero_value(
                gen.evaluate(list(pencil.point_at(s, t).coords)))
               for s, t in params[:need]):
            return False
    return True


def random_pairs(net, plan):
    """The sampler of `verify._random_pairs`, one draw at a time: the code
    rows of the a, the code bases of the U, and the (s : t) picked on each
    fiber line ((0, 0) where the fiber is a point)."""
    field = plan.field
    if (net.n, net.two_m) != (5, 6):
        raise ValueError("the quartic construction is the n=5, 2m=6 case")
    pfaffian_hypersurface(net)  # a degenerate net raises here
    reduced = net.over(field)
    on_y = rank_oracle(reduced, field, "a")
    on_q = rank_oracle(reduced, field, "v")
    elements = list(field.elements())
    zero, one = field.zero_value, field.one_value
    rng = random.Random(plan.seed)
    budget = [verify._TRY_FACTOR * plan.count * max(4, len(elements))]

    def spend():
        budget[0] -= 1
        if budget[0] < 0:
            raise ValueError("rejection budget exhausted over %s"
                             % field.name)

    def random_nonzero(length):
        while True:
            v = [rng.choice(elements) for _ in range(length)]
            if any(not field.is_zero_value(x) for x in v):
                return v

    def draw_a():
        while True:
            spend()
            a = random_nonzero(5)
            if on_y.rank(a) < 6:
                return tuple(a)

    def draw_v():
        while True:
            spend()
            v = random_nonzero(6)
            rank = on_q.rank(v)
            if rank == 5:
                continue
            if rank < 3:
                raise ValueError(
                    "(Im f_v)^perp has dimension %d; rank f_v = %d <= 2 "
                    "violates the minimal-rank bound" % (6 - rank, rank))
            if rank == 4:
                return v, (zero, zero)
            return v, rng.choice([(one, x) for x in elements]
                                 + [(zero, one)])

    draws = [(draw_a(), draw_v()) for _ in range(plan.count)]
    fc = on_q.fc
    a_codes, vs, params = (
        fc.encode(rows) for rows in ([a for a, _ in draws],
                                     [v for _, (v, _) in draws],
                                     [st for _, (_, st) in draws]))
    bases = _phi_bases(fc, on_q.stack, vs, params)
    return a_codes, bases, params


def line_on_hypersurface(poly, a1, a2):
    """Whether the form vanishes on the whole pencil s*a1 + t*a2, via the
    symbolic restriction to the (s, t) parameters."""
    f = poly.field
    subs = [MultiPoly.linear_form(f, [x, y]) for x, y in zip(a1, a2)]
    return poly.substitute(subs).is_zero()


def ideal_of(field, nvars, polys):
    """The `HomogeneousIdeal` of MultiPoly forms over QQ or GF(p): one
    integer row per nonzero form over its degree's `monomial_table`, its
    scale the lcm of the form's denominators (1 for GF(p) payloads, which
    are ints).  An inhomogeneous form raises ValueError."""
    by_degree = {}
    for g in polys:
        if g.field != field or g.nvars != nvars:
            raise ValueError("generator field/nvars mismatch")
        if not g.is_zero():
            by_degree.setdefault(homogeneous_degree(g), []).append(g)
    forms = {}
    for d, gens in by_degree.items():
        index = {tuple(e): i for i, e in
                 enumerate(monomial_table(nvars, d).tolist())}
        rows = np.zeros((len(gens), len(index)), dtype=object)
        scales = []
        for row, g in zip(rows, gens):
            s = lcm(*(c.denominator for c in g.terms.values()))
            for e, c in g.terms.items():
                row[index[e]] = c.numerator * (s // c.denominator)
            scales.append(s)
        forms[d] = (rows, scales)
    return HomogeneousIdeal(field, nvars, forms)


def ideal_polys(ideal):
    """The forms of an ideal as MultiPolys, degree by degree in the order
    `forms` lists them: row / scale over the degree's `monomial_table`."""
    qq = ideal.field.kind == "QQ"
    polys = []
    for d, (rows, scales) in ideal.forms.items():
        monos = [tuple(e) for e in monomial_table(ideal.nvars, d).tolist()]
        for row, s in zip(rows.tolist(), scales):
            polys.append(MultiPoly._raw(ideal.field, ideal.nvars, {
                monos[m]: Fraction(c, s) if qq else c
                for m, c in enumerate(row) if c}))
    return polys


def count_points(forms, nvars, field, limit=200000):
    """Brute-force count of the points of P^(nvars - 1) over a finite
    field where every MultiPoly form vanishes; a form over another field
    is moved into `field` first."""
    order = field.order
    if order is None:
        raise ValueError("point counting needs a finite field")
    total = (order ** nvars - 1) // (order - 1)
    if total > limit:
        raise ValueError("P^%d over %s has %d points, limit is %d"
                         % (nvars - 1, field.name, total, limit))
    forms = [g if g.field == field else g.map_field(field) for g in forms]
    count = 0
    for pt in enumerate_projective(field, nvars - 1):
        if all(field.is_zero_value(g.evaluate(pt)) for g in forms):
            count += 1
    return count


def det(m):
    """The determinant of a square ExactMatrix, as a payload."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    if m.field.kind == "QQ":
        return _det_rational(m.rows)
    return _det_generic(m.field, m.rows)


def _det_generic(field, rows):
    work = [list(r) for r in rows]
    n = len(work)
    det = field.one_value
    for c in range(n):
        hit = None
        for r in range(c, n):
            if not field.is_zero_value(work[r][c]):
                hit = r
                break
        if hit is None:
            return field.zero_value
        if hit != c:
            work[c], work[hit] = work[hit], work[c]
            det = field.neg(det)
        piv = work[c][c]
        det = field.mul(det, piv)
        inv = field.inv(piv)
        for r in range(c + 1, n):
            if not field.is_zero_value(work[r][c]):
                fct = field.mul(work[r][c], inv)
                work[r] = [field.sub(x, field.mul(fct, y))
                           for x, y in zip(work[r], work[c])]
    return det


def _det_rational(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    int_rows = []
    for row in rows:
        mult = lcm(*[f.denominator for f in row])
        scale *= mult
        int_rows.append([int(f * mult) for f in row])
    sign = 1
    work = int_rows
    prev = 1
    for c in range(n):
        hit = None
        for r in range(c, n):
            if work[r][c]:
                hit = r
                break
        if hit is None:
            return Fraction(0)
        if hit != c:
            work[c], work[hit] = work[hit], work[c]
            sign = -sign
        piv = work[c][c]
        for r in range(c + 1, n):
            vc = work[r][c]
            for j in range(c, n):
                work[r][j] = (piv * work[r][j] - vc * work[c][j]) // prev
        prev = piv
    return Fraction(sign * work[n - 1][n - 1]) / scale


MAX_PFAFFIAN_SIZE = 12


def is_skew_symmetric(m):
    """Whether an ExactMatrix is square with zero diagonal and m^T = -m."""
    if m.nrows != m.ncols:
        return False
    f = m.field
    for i in range(m.nrows):
        if not f.is_zero_value(m.rows[i][i]):
            return False
        for j in range(i + 1, m.ncols):
            if m.rows[i][j] != f.neg(m.rows[j][i]):
                return False
    return True


def pfaffian_scalar(m):
    """Pfaffian of a skew-symmetric ExactMatrix via first-row expansion,
    as a payload.

    Sizes beyond 12 are rejected (the expansion is combinatorial), as is
    characteristic 2, where alternating and skew-symmetric part ways.
    """
    if m.nrows != m.ncols:
        raise ValueError("pfaffian of a non-square matrix")
    if m.nrows % 2 == 1:
        raise ValueError("pfaffian of an odd-size matrix")
    if m.nrows > MAX_PFAFFIAN_SIZE:
        raise ValueError("pfaffian size %d beyond the expansion guard (%d)"
                         % (m.nrows, MAX_PFAFFIAN_SIZE))
    if m.field.characteristic == 2:
        raise ValueError("pfaffians are not computed in characteristic 2")
    if not is_skew_symmetric(m):
        raise ValueError("matrix is not skew-symmetric")
    f = m.field
    rows = m.rows

    def expand(idx):
        if not idx:
            return f.one_value
        i0 = idx[0]
        acc = f.zero_value
        for pos in range(1, len(idx)):
            a = rows[i0][idx[pos]]
            if f.is_zero_value(a):
                continue
            rest = idx[1:pos] + idx[pos + 1:]
            term = f.mul(a, expand(rest))
            acc = f.add(acc, term) if pos % 2 == 1 else f.sub(acc, term)
        return acc

    return expand(tuple(range(m.nrows)))


def pfaffian_expansion(entries):
    """The Pfaffian of a skew grid of polynomials by recursive first-row
    expansion on MultiPolys: Pf(S) = sum_pos (-1)^(pos+1) e(S_0, S_pos)
    Pf(S without S_0, S_pos)."""
    f, nv = entries[0][0].field, entries[0][0].nvars

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

    return expand(tuple(range(len(entries))))


def sub_pfaffians(entries, k):
    """Every principal k x k sub-Pfaffian of a skew grid, by
    `pfaffian_expansion`, in `combinations` order of their index sets."""
    return [pfaffian_expansion([[entries[i][j] for j in keep] for i in keep])
            for keep in itertools.combinations(range(len(entries)), k)]


def laplace_minors(entries, r):
    """Every r x r minor of a grid of polynomials, in (row combination,
    column combination) lexicographic order, by the memoized first-row
    Laplace expansion on MultiPoly terms, one sub-minor per (rows, cols)
    reached, skipping zero entries and zero sub-minors."""
    memo = {}

    def minor(rows, cols):
        got = memo.get((rows, cols))
        if got is not None:
            return got
        row = entries[rows[0]]
        if len(rows) == 1:
            got = row[cols[0]]
        else:
            got = MultiPoly.zero(row[0].field, row[0].nvars)
            for j, c in enumerate(cols):
                if row[c].is_zero():
                    continue
                sub = minor(rows[1:], cols[:j] + cols[j + 1:])
                if sub.is_zero():
                    continue
                term = row[c] * sub
                got = got - term if j % 2 else got + term
        memo[(rows, cols)] = got
        return got

    return [minor(rows, cols)
            for rows in itertools.combinations(range(len(entries)), r)
            for cols in itertools.combinations(range(len(entries[0])), r)]


def exact_divide(num, den):
    """Single-divisor long division under graded-lex; the remainder must
    come out zero or a ValueError is raised."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    num._compat(den)
    f = num.field
    de, dc = den.leading()
    dc_inv = f.inv(dc)
    q_terms = {}
    rem = num
    while not rem.is_zero():
        ne, nc = rem.leading()
        step = tuple(a - b for a, b in zip(ne, de))
        if any(e < 0 for e in step):
            raise ValueError("nonzero remainder: %s does not divide %s"
                             % (den.render(), num.render()))
        c = f.mul(nc, dc_inv)
        q_terms[step] = c
        rem = rem - MultiPoly.monomial(f, num.nvars, step, c) * den
    return MultiPoly._raw(f, num.nvars, q_terms)


def is_homogeneous(poly):
    return len({sum(e) for e in poly.terms}) <= 1


def homogeneous_degree(poly):
    """The degree of a homogeneous MultiPoly, None for zero."""
    degs = {sum(e) for e in poly.terms}
    if len(degs) > 1:
        raise ValueError("polynomial is not homogeneous")
    return degs.pop() if degs else None


def partial(poly, i):
    """The MultiPoly d(poly)/dx_i."""
    f = poly.field
    out = {}
    for exps, c in poly.terms.items():
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
    return MultiPoly._raw(f, poly.nvars, out)


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


def fit_window_reference(hf, expected_dim, cap):
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
