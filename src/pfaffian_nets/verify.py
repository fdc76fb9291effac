"""Pointwise verification of the fiber-square resolutions over finite fields.

The incidence locus W sits inside Y x X as the pairs (a, U) whose kernel
plane meets U.  Its resolution restricts at each closed point to a short
zig-zag of linear maps

    Ker f(a)  ->  V/U  ->  U*

whose composition vanishes identically, which is exact off W, and which
degenerates in corank exactly one on W.  These are statements about ranks
of small matrices over GF(q), so they are checked literally: full
enumeration of Y x X over GF(2) and GF(3), seeded random sampling through
the quartic hypersurface Q for larger fields.  A single failed pair is a
hard failure; larger samples only ever widen coverage.
"""

from __future__ import annotations

import random

from .correspondence import (pfaffian_hypersurface, phi_fiber, rank_oracle,
                             x_points, y_points)
from .grassmann import GrassmannLine, enumerate_projective, plane_from_plucker
from .matrices import ExactMatrix

_TRY_FACTOR = 400  # random-mode rejection budget per requested sample


def _element_values(field):
    return [e.value for e in field.elements()]


class SamplePlan:
    """How to pick verification points: `enumerate` walks all of Y x X,
    `random` draws seeded samples, `auto` enumerates when the field has at
    most three elements.  Everything downstream is deterministic given the
    seed."""

    def __init__(self, field, count=1000, seed=0, mode="auto"):
        if mode not in ("auto", "enumerate", "random"):
            raise ValueError("mode must be auto, enumerate or random")
        if field.order is None:
            raise ValueError("sampling needs a finite field")
        if mode == "auto":
            mode = "enumerate" if field.order <= 3 else "random"
        if mode == "random" and count < 1:
            raise ValueError("random mode needs a positive sample count")
        self.field = field
        self.count = count
        self.seed = seed
        self.mode = mode

    def describe(self):
        return {"field": self.field.name, "mode": self.mode,
                "count": self.count, "seed": self.seed}

    def __repr__(self):
        return "SamplePlan(%s, mode=%s, count=%d, seed=%d)" % (
            self.field.name, self.mode, self.count, self.seed)


class WMembership:
    """The fiber of one pair (a in Y, U in X), read by every check:
    `a_side` = (a, f(a), rank f(a), Ker f(a) as rows) and `u_side` = (U's
    Plucker coordinates, RREF basis `red`, pivot columns `piv`, complement
    columns `comp`), which enumeration shares between pairs; plus
    `uf = red @ f(a)`, row b the functional u_b^T f(a), and dim(Ker f(a)
    cap U).  The pair lies on the incidence locus W exactly when that
    dimension is positive, and 2 would mean U is the whole kernel plane, a
    singular point of X."""

    __slots__ = ("a", "fa", "rank", "kernel", "u_coords", "red", "piv",
                 "comp", "uf", "intersection_dim")

    def __init__(self, a_side, u_side):
        self.a, self.fa, self.rank, self.kernel = a_side
        self.u_coords, self.red, self.piv, self.comp = u_side
        stacked = ExactMatrix(self.fa.field, self.kernel.rows + self.red.rows,
                              ncols=self.red.ncols)
        self.intersection_dim = self.kernel.nrows + self.red.nrows \
            - stacked.rank()
        self.uf = self.red @ self.fa

    @property
    def on_w(self):
        return self.intersection_dim > 0

    def __repr__(self):
        return "WMembership(dim=%d)" % self.intersection_dim


class JwReport:
    """Counts plus an explicit witness list; passed means a nonempty sample
    with zero failures."""

    def __init__(self, name, plan):
        self.name = name
        self.plan = plan.describe()
        self.checked = 0
        self.on_w = 0
        self.off_w = 0
        self.failures = []

    def fail(self, a, u_coords, reason):
        self.failures.append({"a": [repr(x) for x in a],
                              "u": [repr(x) for x in u_coords],
                              "reason": reason})

    def tally(self, membership):
        self.on_w += 1 if membership.on_w else 0
        self.off_w += 0 if membership.on_w else 1

    @property
    def passed(self):
        return self.checked > 0 and not self.failures

    def as_dict(self):
        return {"name": self.name, "plan": self.plan,
                "checked": self.checked, "on_w": self.on_w,
                "off_w": self.off_w, "failures": list(self.failures),
                "passed": self.passed}

    def __repr__(self):
        return "JwReport(%s: %d checked, %d on W, passed=%s)" % (
            self.name, self.checked, self.on_w, self.passed)


def _quotient_coords(red_rows, piv, comp, vec, field):
    """Coordinates of vec + U in the complement basis picked by the RREF
    pivots of U."""
    w = list(vec)
    for j, p in enumerate(piv):
        c = w[p]
        if not field.is_zero_value(c):
            row = red_rows[j]
            for l in range(len(w)):
                w[l] = field.sub(w[l], field.mul(c, row[l]))
    return [w[c] for c in comp]


def _a_side(reduced, a):
    fa = reduced.f_at(a)
    rank, kern = fa.rank_kernel()
    return tuple(a), fa, rank, kern.transpose()


def _u_side(point):
    basis = point.basis if point.basis is not None \
        else plane_from_plucker(point)
    piv, red = basis.rref()
    comp = [c for c in range(red.ncols) if c not in piv]
    return point.coords, red, piv, comp


def w_membership(reduced, a, point):
    """The fiber record of one pair (a, U), U given by its Plucker point,
    over the net's own field."""
    return WMembership(_a_side(reduced, a), _u_side(point))


def _check_jw_pair(m, report):
    f = m.fa.field
    a, u_coords = m.a, m.u_coords
    if m.rank != m.fa.nrows - 2:
        report.fail(a, u_coords, "rank f(a) = %d on Y" % m.rank)
        return

    gram = m.uf @ m.red.transpose()
    if not gram.is_zero():
        report.fail(a, u_coords, "f(a) does not vanish on U x U")
        return

    first = ExactMatrix.from_columns(
        f, [_quotient_coords(m.red.rows, m.piv, m.comp, v, f)
            for v in m.kernel.rows])
    # row b: the functional u_b on the complement lifts
    second = m.uf.submatrix(range(m.uf.nrows), m.comp)
    if not (second @ first).is_zero():
        report.fail(a, u_coords, "composition Ker -> V/U -> U* nonzero")
        return

    r1, r2 = first.rank(), second.rank()
    dim = m.intersection_dim
    if dim == 0:
        if r1 != 2:
            report.fail(a, u_coords, "first map not injective off W "
                                     "(rank %d)" % r1)
        elif r2 != 2:
            report.fail(a, u_coords, "second map not surjective off W "
                                     "(rank %d)" % r2)
    elif dim == 1:
        if r2 != 1:
            report.fail(a, u_coords, "cokernel of V/U -> U* has dim %d on W"
                        % (2 - r2))
        elif r1 != 1:
            report.fail(a, u_coords, "first map rank %d on W" % r1)
    else:
        report.fail(a, u_coords, "Ker f(a) = U: U is a singular point of X")


def _pairs(net, plan):
    """One WMembership per pair a plan checks: all of Y x X when
    enumerating, else plan.count seeded draws.  Memoized on the
    net by the plan's value, so jw and jw1 read one stream of fibers."""
    key = ("pairs", plan.field, plan.mode, plan.count, plan.seed)
    return net.derived(key, lambda: _build_pairs(net, plan))


def _build_pairs(net, plan):
    field = plan.field
    reduced = net.over(field)
    if plan.mode == "random":
        return [w_membership(reduced, a, u)
                for a, u in _random_pairs(reduced, plan)]
    ys = y_points(net, field)
    xs = x_points(net, field)
    if not ys or not xs:
        raise ValueError("no sample points over %s: |Y| = %d, |X| = %d"
                         % (field.name, len(ys), len(xs)))
    u_sides = [_u_side(p) for p in xs]
    return [WMembership(a_side, u_side)
            for a_side in (_a_side(reduced, a) for a in ys)
            for u_side in u_sides]


def _random_nonzero(rng, elements, length, field):
    while True:
        v = [rng.choice(elements) for _ in range(length)]
        if any(not field.is_zero_value(x) for x in v):
            return v


def _random_pairs(reduced, plan):
    """plan.count random pairs (a, U), U the Plucker point (with its
    basis) that the fiber of phi returns: a by rejection against the
    cubic, U by rejection against the quartic followed by the fiber of phi
    (every plane of X through a vector v arises that way).  Both tests
    read the rank oracle: Pf(f(a)) = 0 iff rank f(a) < 6, and for v != 0,
    Q(v) = 0 iff rank f_v < 5, because f_v v = 0 makes the maximal minors
    of f_v the products +-v_i Q(v)."""
    field = plan.field
    if (reduced.n, reduced.two_m) != (5, 6):
        raise ValueError("the quartic construction is the n=5, 2m=6 case")
    pfaffian_hypersurface(reduced)  # a degenerate net raises here
    on_y = rank_oracle(reduced, field, "a")
    on_q = rank_oracle(reduced, field, "v")
    elements = _element_values(field)
    rng = random.Random(plan.seed)
    budget = [_TRY_FACTOR * plan.count * max(4, len(elements))]

    def spend():
        budget[0] -= 1
        if budget[0] < 0:
            raise ValueError("rejection budget exhausted over %s"
                             % field.name)

    def draw_a():
        while True:
            spend()
            a = _random_nonzero(rng, elements, 5, field)
            if on_y.rank(a) < 6:
                return tuple(a)

    def draw_u():
        while True:
            spend()
            v = _random_nonzero(rng, elements, 6, field)
            if on_q.rank(v) == 5:
                continue
            u = phi_fiber(reduced, v)
            if isinstance(u, GrassmannLine):
                s, t = rng.choice([(field.one_value, x) for x in elements]
                                  + [(field.zero_value, field.one_value)])
                u = u.point_at(s, t)
            return u

    return [(draw_a(), draw_u()) for _ in range(plan.count)]


def jw_pointwise(net, plan):
    """Exactness-off-W and corank-one-on-W checks at sampled pairs."""
    report = JwReport("jw_pointwise", plan)
    for m in _pairs(net, plan):
        _check_jw_pair(m, report)
        report.checked += 1
        report.tally(m)
    return report


def _check_jw1_triple(f, m, s, t, report):
    """hf(a, U, v) for v = s u1 + t u2 reads the functional f(a)(v, -) on
    the complement lifts; it must vanish exactly when v lies in Ker f(a).
    The functional is s (u1^T f(a)) + t (u2^T f(a)), and f(a) v is its
    negative because f(a) is skew."""
    row = [f.add(f.mul(s, x), f.mul(t, y)) for x, y in zip(*m.uf.rows)]
    hf_zero = all(f.is_zero_value(row[c]) for c in m.comp)
    in_kernel = all(f.is_zero_value(x) for x in row)
    if hf_zero != in_kernel:
        report.fail(m.a, m.u_coords,
                    "hf vanishing disagrees with kernel membership")
    return hf_zero


def jw1_section_check(net, plan):
    """The incidence locus inside Y x P(U-bundle) is cut out by the section
    hf; checked triple by triple, including the agreement of the two
    membership predicates.  Enumeration tries every v in U; random mode
    one seeded v per pair."""
    report = JwReport("jw1_section_check", plan)
    f = plan.field
    elements = _element_values(f)
    every_v = [(f.one_value, f.zero_value)] \
        + [(x, f.one_value) for x in elements]
    one_v = [(f.one_value, x) for x in elements] \
        + [(f.zero_value, f.one_value)]
    rng = random.Random(plan.seed + 1)
    for m in _pairs(net, plan):
        params = every_v if plan.mode == "enumerate" \
            else [rng.choice(one_v)]
        hits = 0
        for s, t in params:
            hits += 1 if _check_jw1_triple(f, m, s, t, report) else 0
            report.checked += 1
        if plan.mode == "enumerate" and (hits > 0) != m.on_w:
            report.fail(m.a, m.u_coords,
                        "section zero locus disagrees with "
                        "kernel-intersection membership")
        if hits and not m.on_w:
            report.fail(m.a, m.u_coords, "section vanishes off W")
        report.tally(m)
    return report


def count_points(ideal, field, limit=200000):
    """Brute-force projective point count of V(ideal) over a finite field."""
    order = field.order
    if order is None:
        raise ValueError("point counting needs a finite field")
    n = ideal.nvars
    total = (order ** n - 1) // (order - 1)
    if total > limit:
        raise ValueError("P^%d over %s has %d points, limit is %d"
                         % (n - 1, field.name, total, limit))
    gens = [g if g.field == field else g.map_field(field)
            for g in ideal.generators]
    count = 0
    for pt in enumerate_projective(field, n - 1):
        if all(not g.evaluate(list(pt)) for g in gens):
            count += 1
    return count
