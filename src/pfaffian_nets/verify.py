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

from .correspondence import (pfaffian_hypersurface, phi_fiber, q_quartic,
                             x_points, y_points)
from .grassmann import (GrassmannLine, enumerate_projective,
                        plane_from_plucker, plucker_from_basis)
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
    """A sampled pair (a in Y, U in X) with dim(Ker f(a) - cap - U); the
    pair lies on the incidence locus W exactly when that dimension is
    positive, and 2 would mean U is the whole kernel plane, a singular
    point of X."""

    __slots__ = ("a", "u_coords", "intersection_dim")

    def __init__(self, a, u_coords, intersection_dim):
        self.a = tuple(a)
        self.u_coords = tuple(u_coords)
        self.intersection_dim = intersection_dim

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


def _plane_basis(point):
    return point.basis if point.basis is not None \
        else plane_from_plucker(point)


def w_membership(reduced, a, u_basis):
    """Kernel-intersection membership for one pair, over the net's own
    field."""
    f = reduced.field
    _, kern = reduced.f_at(a).rank_kernel()
    stacked = ExactMatrix(f, kern.transpose().rows + u_basis.rows)
    inter = kern.ncols + u_basis.nrows - stacked.rank()
    return WMembership(a, plucker_from_basis(u_basis).coords, inter)


def _check_jw_pair(reduced, a, u_basis, report):
    f = reduced.field
    two_m = reduced.two_m
    Fa = reduced.f_at(a)
    rank_a, kern = Fa.rank_kernel()
    membership = w_membership(reduced, a, u_basis)
    u_coords = membership.u_coords
    if rank_a != two_m - 2:
        report.fail(a, u_coords, "rank f(a) = %d on Y" % rank_a)
        return membership
    piv, red = u_basis.rref()
    comp = [c for c in range(two_m) if c not in piv]

    gram = (red @ Fa) @ red.transpose()
    if any(not f.is_zero_value(x) for row in gram.rows for x in row):
        report.fail(a, u_coords, "f(a) does not vanish on U x U")
        return membership

    kernel_vecs = [[kern.rows[r][j] for r in range(two_m)]
                   for j in range(kern.ncols)]
    first_cols = [_quotient_coords(red.rows, piv, comp, v, f)
                  for v in kernel_vecs]
    first = ExactMatrix(f, [[col[c] for col in first_cols]
                            for c in range(len(comp))],
                        ncols=len(kernel_vecs))
    second = ExactMatrix(
        f, [[Fa.rows[comp[c]][l] for c in range(len(comp))]
            for l in range(two_m)], ncols=len(comp))
    second = red @ second  # row b: functional u_b on the complement lifts
    composed = second @ first
    if any(not f.is_zero_value(x) for row in composed.rows for x in row):
        report.fail(a, u_coords, "composition Ker -> V/U -> U* nonzero")
        return membership

    r1, r2 = first.rank(), second.rank()
    dim = membership.intersection_dim
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
    return membership


def _pairs(net, plan):
    """The reduced net and the (a, u_basis) pairs a plan checks: all of
    Y x X when enumerating, else plan.count seeded draws.  Memoized on the
    net by the plan's value, so jw and jw1 walk one stream of pairs."""
    key = ("pairs", plan.field, plan.mode, plan.count, plan.seed)
    return net.derived(key, lambda: _build_pairs(net, plan))


def _build_pairs(net, plan):
    field = plan.field
    reduced = net.over(field)
    if plan.mode == "random":
        return reduced, _random_pairs(reduced, plan)
    ys = y_points(net, field)
    xs = [_plane_basis(p) for p in x_points(net, field)]
    if not ys or not xs:
        raise ValueError("no sample points over %s: |Y| = %d, |X| = %d"
                         % (field.name, len(ys), len(xs)))
    return reduced, [(a, u_basis) for a in ys for u_basis in xs]


def _random_nonzero(rng, elements, length, field):
    while True:
        v = [rng.choice(elements) for _ in range(length)]
        if any(not field.is_zero_value(x) for x in v):
            return v


def _random_pairs(reduced, plan):
    """plan.count random (a, u_basis) pairs: a by rejection against the
    cubic, U by rejection against the quartic followed by the fiber of phi
    (every plane of X through a vector v arises that way)."""
    field = plan.field
    cubic = pfaffian_hypersurface(reduced)
    quartic = q_quartic(reduced)
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
            if not cubic.evaluate(a):
                return tuple(a)

    def draw_u():
        while True:
            spend()
            v = _random_nonzero(rng, elements, 6, field)
            if quartic.evaluate(v):
                continue
            u = phi_fiber(reduced, v)
            if isinstance(u, GrassmannLine):
                s, t = rng.choice([(field.one_value, x) for x in elements]
                                  + [(field.zero_value, field.one_value)])
                u = u.point_at(s, t)
            return _plane_basis(u)

    return [(draw_a(), draw_u()) for _ in range(plan.count)]


def jw_pointwise(net, plan):
    """Exactness-off-W and corank-one-on-W checks at sampled pairs."""
    report = JwReport("jw_pointwise", plan)
    reduced, pairs = _pairs(net, plan)
    for a, u_basis in pairs:
        m = _check_jw_pair(reduced, a, u_basis, report)
        report.checked += 1
        report.on_w += 1 if m.on_w else 0
        report.off_w += 0 if m.on_w else 1
    return report


def _check_jw1_triple(reduced, a, comp, v, report, u_coords):
    """hf(a, U, v) reads the functional f(a)(v, -) on the complement lifts;
    it must vanish exactly when v lies in Ker f(a)."""
    f = reduced.field
    Fa = reduced.f_at(a)
    two_m = reduced.two_m
    hf = []
    for c in comp:
        acc = f.zero_value
        for l in range(two_m):
            if not f.is_zero_value(v[l]):
                acc = f.add(acc, f.mul(v[l], Fa.rows[l][c]))
        hf.append(acc)
    hf_zero = all(f.is_zero_value(x) for x in hf)
    image = Fa.apply(v)
    in_kernel = all(not x for x in image)
    if hf_zero != in_kernel:
        report.fail(a, u_coords,
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
    reduced, pairs = _pairs(net, plan)
    for a, u_basis in pairs:
        membership = w_membership(reduced, a, u_basis)
        piv, red = u_basis.rref()
        comp = [c for c in range(reduced.two_m) if c not in piv]
        u1, u2 = red.rows
        params = every_v if plan.mode == "enumerate" \
            else [rng.choice(one_v)]
        hits = 0
        for s, t in params:
            v = [f.add(f.mul(s, x), f.mul(t, y)) for x, y in zip(u1, u2)]
            hits += 1 if _check_jw1_triple(
                reduced, a, comp, v, report, membership.u_coords) else 0
            report.checked += 1
        if plan.mode == "enumerate" and (hits > 0) != membership.on_w:
            report.fail(a, membership.u_coords,
                        "section zero locus disagrees with "
                        "kernel-intersection membership")
        if hits and not membership.on_w:
            report.fail(a, membership.u_coords, "section vanishes off W")
        report.on_w += 1 if membership.on_w else 0
        report.off_w += 0 if membership.on_w else 1
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
