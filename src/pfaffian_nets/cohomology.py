"""Cohomology dimensions that reduce to ranks of multiplication maps.

Everything lives on the ambient projective space of the net's parameter
line bundle twists: the pushforward of the rank-2 sheaf E cut out by the
net sits in

    0 -> V (x) O(-1) -> V* (x) O -> E -> 0,

so section spaces in each twist are cokernels of the multiplication maps

    mu_s : V (x) Sym^{s-1} A* -> V* (x) Sym^s A*

assembled from the net's coefficient matrices, and the top-degree groups
are kernels and cokernels on the dual side.  Convention, used throughout:
the top cohomology H^{n-1}(O(s)) is the dual of Sym^{-s-n} A, and the
connecting map at twist t is the transpose of mu_{-t-n+1}, so

    h^{n-2}(E(t)) = dim coker mu_{-t-n+1},
    h^{n-1}(E(t)) = dim ker   mu_{-t-n+1}.

All dimensions are exact integers; ranks are taken in whatever field the
net lives over (use a prime-field reduction for large twists, where the
rational path would crawl).
"""

from __future__ import annotations

from fractions import Fraction

from .correspondence import lie_on_y
from .ideals import ambient_dimension
from .matrices import ExactMatrix
from .modnum import field_codes
from .multipoly import MultiPoly, monomial_table


def _binom_poly(s, k):
    """C(s+k, k) continued as a polynomial in s (exact, can be negative)."""
    out = Fraction(1)
    for i in range(1, k + 1):
        out *= Fraction(s + i, i)
    if out.denominator != 1:
        raise AssertionError("binomial polynomial came out fractional")
    return int(out)


def mu_matrix(net, s):
    """The multiplication map V (x) S^{s-1}A* -> V* (x) S^s A* as a matrix;
    rows indexed by (V*-basis k, degree-s monomial), columns by (V-basis l,
    degree-(s-1) monomial); entry sum_i [M = x_i N] (F_i)_{kl}, F_i read
    from the net's stack of side "a"."""
    f = net.field
    n, two_m = net.n, net.two_m
    if s < 0:
        return ExactMatrix.zeros(f, 0, 0)
    src_monos = monomial_table(n, s - 1).tolist() if s >= 1 else []
    dst_monos = monomial_table(n, s).tolist()
    dst_pos = {tuple(m): idx for idx, m in enumerate(dst_monos)}
    nrows = two_m * len(dst_monos)
    ncols = two_m * len(src_monos)
    rows = [[f.zero_value] * ncols for _ in range(nrows)]
    stack = net.stack("a")
    for cn, mono in enumerate(src_monos):
        for i in range(n):
            bumped = list(mono)
            bumped[i] += 1
            rpos = dst_pos[tuple(bumped)]
            F = stack[i]
            for l in range(two_m):
                col = l * len(src_monos) + cn
                for k in range(two_m):
                    v = F[k][l]
                    if not f.is_zero_value(v):
                        row = rows[k * len(dst_monos) + rpos]
                        row[col] = f.add(row[col], v)
    return ExactMatrix(f, rows, ncols=ncols)


def _mu_rank(net, s):
    """(source dim, target dim, rank) of mu_s; raises when the map has a
    kernel, which breaks left exactness of the section sequence."""
    n, two_m = net.n, net.two_m
    src = two_m * ambient_dimension(n, s - 1)
    dst = two_m * ambient_dimension(n, s)
    if src == 0:
        return 0, dst, 0
    rank = mu_matrix(net, s).rank()
    if rank < src:
        raise ValueError("multiplication map at twist %d has a %d-dim "
                         "kernel: the net's Pfaffian form is degenerate"
                         % (s, src - rank))
    return src, dst, rank


def theta_cohomology(net, t):
    """Dimension row (h^0, ..., h^{n-1}) of the twist-t sheaf cut out by
    the net on P^{n-1}; the middle range 1 <= p <= n-3 vanishes by the
    two-term resolution.  The row has the two cells h^{n-2} and h^{n-1}
    apart only for n >= 2; n < 2 raises ValueError."""
    n = net.n
    if n < 2:
        raise ValueError("the theta sheaf's cohomology rows need n >= 2, "
                         "got n = %d" % n)
    row = [0] * n
    if t >= 0:
        src, dst, rank = _mu_rank(net, t)
        row[0] = dst - rank
    u = -t - n + 1
    if u >= 0:
        src, dst, rank = _mu_rank(net, u)
        row[n - 2] = dst - rank
        row[n - 1] = src - rank
    return tuple(row)


class CohomologyTable:
    """Grid of exact dimensions h^p(t) with per-cell expectations: an int
    demands equality, a ("<=", bound) pair demands the bound, None means
    the cell is informational."""

    def __init__(self, p_values, t_values):
        self.p_values = list(p_values)
        self.t_values = list(t_values)
        self.cells = {}
        self.euler_checks = []

    def set_cell(self, p, t, computed=None, expected=None):
        verdict = None
        if computed is not None and expected is not None:
            if isinstance(expected, tuple):
                verdict = "pass" if computed <= expected[1] else "fail"
            else:
                verdict = "pass" if computed == expected else "fail"
        self.cells[(p, t)] = {"computed": computed, "expected": expected,
                              "verdict": verdict}

    def computed(self, p, t):
        return self.cells[(p, t)]["computed"]

    def add_euler_check(self, t, expected_chi):
        chi = 0
        for p in self.p_values:
            c = self.cells[(p, t)]["computed"]
            chi += c if p % 2 == 0 else -c
        self.euler_checks.append({
            "t": t, "computed": chi, "expected": expected_chi,
            "verdict": "pass" if chi == expected_chi else "fail"})

    @property
    def all_pass(self):
        cell_ok = all(c["verdict"] in (None, "pass")
                      for c in self.cells.values())
        euler_ok = all(e["verdict"] == "pass" for e in self.euler_checks)
        return cell_ok and euler_ok

    def as_dict(self):
        cells = {}
        for (p, t) in sorted(self.cells):
            c = self.cells[(p, t)]
            exp = c["expected"]
            if isinstance(exp, tuple):
                exp = {"bound": exp[1]}
            cells["p=%d,t=%d" % (p, t)] = {
                "computed": c["computed"], "expected": exp,
                "verdict": c["verdict"]}
        return {"cells": cells, "euler_checks": list(self.euler_checks),
                "all_pass": self.all_pass}

    def __repr__(self):
        return "CohomologyTable(%d cells, all_pass=%s)" % (len(self.cells),
                                                          self.all_pass)


def chi_hypersurface(d, n, t):
    """Euler characteristic of O_Y(t) for a degree-d hypersurface in
    P^{n-1}, by the polynomial extension of the binomial formulas."""
    return _binom_poly(t, n - 1) - _binom_poly(t - d, n - 1)


def chi_cubic_instanton(k, t):
    """chi of the charge-k instanton twist on the cubic threefold:
    2 chi(O_Y(t)) - k (t+1)."""
    return 2 * chi_hypersurface(3, 5, t) - k * (t + 1)


def charge2_instanton_table(net):
    """H^p of the twists of the charge-2 instanton (the theta sheaf twisted
    down by one) for p in [0,3], t in [-3,1], checked cell-for-cell against
    expected_instanton_table(3, 2): 6 at (0,1) and (3,-3), zero elsewhere.
    Each twist read (t - 1 in [-4, 0]) gives `_mu_rank` a 0-dimensional
    source, so no `mu_matrix` is built: only n and 2m enter the table."""
    if (net.n, net.two_m) != (5, 6):
        raise ValueError("the charge-2 table is the n=5, 2m=6 case")
    table = expected_instanton_table(3, 2)
    for t in range(-3, 2):
        row = theta_cohomology(net, t - 1)
        if row[4] != 0:
            raise ValueError("h^4 = %d at twist %d: sheaf has too much "
                             "support" % (row[4], t - 1))
        for p in range(4):
            table.set_cell(p, t, computed=row[p],
                           expected=table.cells[(p, t)]["expected"])
        table.add_euler_check(t, chi_cubic_instanton(2, t))
    return table


def h1_pattern_check(net):
    """Verify the two-spike window of the theta sheaf itself: for
    t in [-(n-1), 0], everything vanishes except h^0(0) = h^{n-2}(-(n-1))
    = 2m.  Returns a CohomologyTable over the window.  Its twists read
    mu_s only at s = 0, whose source is 0-dimensional, so no `mu_matrix`
    is built: the window follows from n and 2m alone."""
    n, two_m = net.n, net.two_m
    table = CohomologyTable(range(n), range(-(n - 1), 1))
    for t in range(-(n - 1), 1):
        row = theta_cohomology(net, t)
        for p in range(n):
            if (p, t) == (0, 0) or (p, t) == (n - 2, -(n - 1)):
                expected = two_m
            else:
                expected = 0
            table.set_cell(p, t, computed=row[p], expected=expected)
    return table


def hypersurface_line_bundle_cohomology(d, n, t):
    """(h^0, ..., h^{n-2}) of O_Y(t) for a smooth degree-d hypersurface
    Y in P^{n-1}, in closed binomial form."""
    if n < 3:
        raise ValueError("ambient P^{n-1} with n >= 3 expected")
    row = [0] * (n - 1)
    row[0] = max(0, ambient_dimension(n, t) - ambient_dimension(n, t - d))
    # h^{n-1}(P^{n-1}, O(s)) = h^0(O(-s-n)) by Serre duality
    row[n - 2] += (ambient_dimension(n, d - t - n)
                   - ambient_dimension(n, -t - n))
    return tuple(row)


class PairVerdict:
    def __init__(self, checks):
        self.checks = checks

    @property
    def passed(self):
        return all(c["verdict"] == "pass" for c in self.checks)

    def as_dict(self):
        return {"checks": list(self.checks), "passed": self.passed}


def exceptional_pair_check_y(d=3, n=5):
    """The structure sheaf and its twist form an exceptional pair on the
    degree-d hypersurface: self-exts are one-dimensional in degree 0 only,
    and the backwards Hom-groups H^p(O_Y(-1)) all vanish."""
    unit = tuple([1] + [0] * (n - 2))
    zero = tuple([0] * (n - 1))
    row0 = hypersurface_line_bundle_cohomology(d, n, 0)
    row_m1 = hypersurface_line_bundle_cohomology(d, n, -1)
    checks = [
        {"name": "self_ext_structure_sheaf", "computed": list(row0),
         "expected": list(unit),
         "verdict": "pass" if row0 == unit else "fail"},
        {"name": "self_ext_twist", "computed": list(row0),
         "expected": list(unit),
         "verdict": "pass" if row0 == unit else "fail"},
        {"name": "backwards_homs", "computed": list(row_m1),
         "expected": list(zero),
         "verdict": "pass" if row_m1 == zero else "fail"},
    ]
    return PairVerdict(checks)


MEMBERSHIP_TWISTS = (0, -1)


def line_ideal_membership(net, a1, a2):
    """Vanishing of all cohomology of the ideal sheaf of a line M on the
    Pfaffian cubic, in the twists that certify membership in the right
    orthogonal of the pair (O, O(1)).

    h^0 comes from the degree-t forms vanishing on M, h^1 from the rank of
    the restriction map to binary forms on M, h^2 and h^3 from the closed
    hypersurface rows plus line cohomology.
    """
    if (net.n, net.two_m) != (5, 6):
        raise ValueError("line ideal membership is the n=5, 2m=6 case")
    f = net.field
    if not lie_on_y(net, f, field_codes(f).encode([[a1, a2]]))[0]:
        raise ValueError("the given line does not lie on the cubic")
    subs = [MultiPoly.linear_form(f, [x, y]) for x, y in zip(a1, a2)]
    checks = []
    for t in MEMBERSHIP_TWISTS:
        ambient = monomial_table(5, t).tolist() if t >= 0 else []
        # restriction: degree-t forms on P^4 -> binary degree-t forms on M
        cols = []
        for mono in ambient:
            restricted = MultiPoly.monomial(f, 5, mono).substitute(subs)
            cols.append([restricted.coefficient((t - j, j))
                         for j in range(t + 1)])
        if cols:
            m = ExactMatrix(f, [[c[j] for c in cols]
                                for j in range(t + 1)], ncols=len(cols))
            rank = m.rank()
        else:
            rank = 0
        h0_line = t + 1 if t >= 0 else 0
        y_row = hypersurface_line_bundle_cohomology(3, 5, t)
        # the middle line-bundle cohomology of the cubic threefold is zero,
        # so the ideal-sheaf sequence splits into the four formulas below
        if y_row[1] != 0 or y_row[2] != 0:
            raise AssertionError("nonzero middle cohomology on a threefold")
        dims = {
            "h0": len(ambient) - rank,
            "h1": h0_line - rank,
            "h2": 0,
            "h3": y_row[3],
        }
        verdict = "pass" if all(v == 0 for v in dims.values()) else "fail"
        checks.append({"name": "ideal_sheaf_twist_%d" % t,
                       "computed": dims,
                       "expected": {"h0": 0, "h1": 0, "h2": 0, "h3": 0},
                       "verdict": verdict})
    return PairVerdict(checks)


def expected_instanton_table(d, k):
    """The expected cohomology grid of a charge-k instanton on a degree-d
    index-2 threefold: exact zeros and the k-dependent cells, with bound
    markers where only inequalities are available.  For k = 2 every bound
    collapses and the grid is fully exact."""
    if k < 2:
        raise ValueError("no instantons of charge below 2")
    table = CohomologyTable(range(4), range(-3, 2))
    for t in range(-3, 2):
        for p in range(4):
            table.set_cell(p, t, expected=_expected_cell(d, k, p, t))
    return table


def _expected_cell(d, k, p, t):
    if p == 3:
        return (2 * d if k == 2 else ("<=", 2 * d)) if t == -3 else 0
    if p == 2:
        if t == -3:
            return 0 if k == 2 else ("<=", 2 * k - 4)
        return k - 2 if t == -2 else 0
    if p == 1:
        if t == 0:
            return k - 2
        if t == 1:
            return 0 if k == 2 else ("<=", 2 * k - 4)
        return 0
    if t == 1:
        return 2 * d if k == 2 else ("<=", 2 * d)
    return 0
