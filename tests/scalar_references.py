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
replays in blocks (`verify._random_pairs`); and the f_v rank table ranked
from the stack at every point of P(V), which the package walks from the
kernels of f(a) over Y (`RankOracle._walk`).  The tests compare the two.

Also the symbolic restriction of a form to a line, which the package
answers by ranks at the line's points (`correspondence.lie_on_y`), and the
exact scalar references that only the tests read: the determinant, the
Pfaffian by first-row expansion and polynomial long division."""

import itertools
import random
from fractions import Fraction
from math import lcm

import numpy as np

from pfaffian_nets import modnum, verify
from pfaffian_nets.cohomology import mu_matrix
from pfaffian_nets.correspondence import (ANet, FvMatrix, _phi_bases,
                                          pfaffian_hypersurface, rank_oracle,
                                          x_points, y_points)
from pfaffian_nets.grassmann import _CHUNK, pair_indices, plucker_from_basis
from pfaffian_nets.ideals import HomogeneousIdeal
from pfaffian_nets.matrices import ExactMatrix
from pfaffian_nets.multipoly import MultiPoly


def psi_fiber(net, v):
    """P(Ker f_v) inside P(A): the a with f(a)(v, -) = 0.  One point when
    rank f_v = 4, the line M_c when rank f_v = 3."""
    m = FvMatrix(net).evaluate(v)
    rank, kern = m.transpose().rank_kernel()
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


def fv_rank_table(net, field):
    """rank f_v at every point of P(V), in enumeration order, computed from
    the oracle's stack _CHUNK points at a time."""
    oracle = rank_oracle(net, field, "v")
    table = np.empty(oracle.size, dtype=np.int8)
    for lo in range(0, oracle.size, _CHUNK):
        idx = np.arange(lo, min(oracle.size, lo + _CHUNK))
        table[lo:lo + idx.size] = oracle._computed(oracle._codes_at(idx))
    return table


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
    pencil = ANet(net.field, [net.f_at(a1), net.f_at(a2)])
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
    pairs, _ = pair_indices(net.two_m)
    return [MultiPoly.linear_form(net.field,
                                  [F.rows[i][j] for i, j in pairs])
            for F in net.matrices]


def x_ideal(net):
    gens = plucker_quadrics(net.two_m, net.field) + net_linear_forms(net)
    nvars = len(pair_indices(net.two_m)[0])
    return HomogeneousIdeal(net.field, nvars, gens)


def certify_line_on_x(reduced, pencil):
    """Whether every generator of the X ideal vanishes at deg+1 distinct
    parameter points of the pencil, which pins a binary form of degree
    deg to zero."""
    f = reduced.field
    params = [(f.one_value, f.zero_value)] \
        + [(e, f.one_value) for e in f.elements()]
    for gen in x_ideal(reduced).generators:
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
    if not m.is_skew_symmetric():
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
