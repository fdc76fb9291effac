import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from pfaffian_nets import correspondence, grassmann, modnum
from pfaffian_nets.correspondence import (SEARCH_LADDER, ANet, FvMatrix,
                                          c_ideal, classify, curve_fibers,
                                          degenerate_net, find_c_points,
                                          find_lines_on_y, fv_rank_profile,
                                          is_regular, lie_on_y,
                                          pfaffian_hypersurface, phi_fiber,
                                          q_quartic, random_net,
                                          random_regular_net, rank_oracle,
                                          splitting_types,
                                          sub_pfaffian_ideal, x_points,
                                          y_ideal, y_points)
from pfaffian_nets.fields import GF, QQ, FieldMismatchError, reduce_value
from pfaffian_nets.grassmann import (GrassmannLine, PluckerPoint,
                                     echelon_pair_codes,
                                     enumerate_grassmannian,
                                     enumerate_projective, pair_indices,
                                     pencil_line, plucker_from_basis)
from pfaffian_nets.ideals import (EMPTY, NONEMPTY, HilbertEngine,
                                  fit_hilbert_polynomial, is_empty_projective,
                                  jacobian_ideal)
from pfaffian_nets.matrices import ExactMatrix
from pfaffian_nets.multipoly import MultiPoly, det_poly

from scalar_references import (certify_line_on_x, exact_divide,
                               fv_rank_table, kappa, line_key,
                               line_on_hypersurface, net_linear_forms,
                               psi_fiber, satisfies_quadrics,
                               splitting_type_on_line, x_ideal,
                               x_plucker_points, y_payloads)

F2 = GF(2)
F3 = GF(3)
F7 = GF(7)


def rank_fv(net, v):
    return FvMatrix(net).evaluate(v).rank()


def times_variable_vector(fv):
    """The length-n polynomial vector (row_i . v) of an f_v grid."""
    out = []
    for row in fv.grid:
        acc = MultiPoly.zero(fv.field, fv.ncols)
        for k, e in enumerate(row):
            acc = acc + e * MultiPoly.variable(fv.field, fv.ncols, k)
        out.append(acc)
    return out


# a pinned net over QQ: regular, smooth Pfaffian cubic, and clean reductions
# modulo 2 and 3 (found by seeded search, frozen here for determinism)
PINNED_UPPER = [
    [2, 1, 2, 3, -3, 1, -2, -2, -2, 0, -3, 2, 0, -2, 0],
    [-2, 0, 3, 3, 1, 1, -1, 3, 1, 3, -3, 3, -3, 1, -3],
    [0, -2, 1, 2, 0, 2, 2, 2, 3, -2, 2, 2, -1, 1, 1],
    [1, 0, 2, -3, -2, -3, 2, 0, -2, -2, 2, -2, -3, 1, 3],
    [2, 2, 1, 2, -3, -2, -1, -2, -1, -2, 0, -3, -3, -3, 2],
]


@pytest.fixture(scope="module")
def pinned():
    return ANet.from_upper_triangles(QQ, 6, PINNED_UPPER)


@pytest.fixture(scope="module")
def degenerate():
    return degenerate_net(seed=2)


@pytest.fixture(scope="module")
def messy():
    # regular with smooth Y over QQ, but the mod-2 and mod-3 reductions of X
    # are singular; keeps the dirty paths honest
    rng = random.Random(11)
    return random_net(QQ, 5, 6, rng, bound=2)


def tri(entries, two_m=6):
    _, pos = pair_indices(two_m)
    t = [0] * (two_m * (two_m - 1) // 2)
    for (i, j), v in entries.items():
        t[pos[(i, j)]] = v
    return t


def block_net():
    return ANet.from_upper_triangles(QQ, 6, [
        tri({(0, 1): 1}), tri({(2, 3): 1}), tri({(4, 5): 1})])


def kernel_e5_triangles(seed):
    """Five random skew forms that all kill e_5, so every f(a) has rank at
    most 4 and the net is irregular; seed 7 is the irregular fixture of
    the command-line tests."""
    rng = random.Random(seed)
    pairs, _ = pair_indices(6)
    return [[rng.randint(-3, 3) if j < 5 else 0 for (i, j) in pairs]
            for _ in range(5)]


def tangent_test_x(net, point):
    """The scalar tangent test that `classify` batches: True when X is
    singular at the Plucker point (given with its basis), i.e. the
    n x 2(2m-2) matrix of a |-> f(a) restricted to U x (V/U) drops below
    rank n."""
    f = net.field
    piv, red = point.basis.rref()
    comp_cols = [c for c in range(net.two_m) if c not in piv]
    rows = []
    for F in net.matrices:
        row = []
        for u in red.rows:
            for c in comp_cols:
                acc = f.zero_value
                for l in range(net.two_m):
                    acc = f.add(acc, f.mul(u[l], F.rows[l][c]))
                row.append(acc)
        rows.append(row)
    m = ExactMatrix(f, rows, ncols=2 * (net.two_m - 2))
    return m.rank() < net.n


def scanning_witness(net, max_rank):
    """The rank-deficient witness search as it was written before the rank
    tables: every point of P(A) over GF(3), then GF(7), through f_at and
    batch_rank, skipping a field the net does not reduce to."""
    for p in (3, 7):
        fp = GF(p)
        try:
            reduced = net.over(fp)
        except (FieldMismatchError, ValueError):
            continue
        pts = list(enumerate_projective(fp, net.n - 1))
        mats = np.array([reduced.f_at(a).rows for a in pts], dtype=np.int64)
        hits = np.nonzero(modnum.batch_rank(mats, p) <= max_rank)[0]
        if hits.size:
            return p, pts[int(hits[0])]
    return None


class TestANet:
    def test_round_trip(self, pinned):
        assert pinned.upper_triangles() == [
            [QQ.value_of(v) for v in row] for row in PINNED_UPPER]
        again = ANet.from_upper_triangles(QQ, 6, pinned.upper_triangles())
        assert [m.rows for m in again.matrices] == \
            [m.rows for m in pinned.matrices]

    def test_rejects_dependent(self):
        a = tri({(0, 1): 1, (2, 3): 2})
        b = tri({(0, 1): 2, (2, 3): 4})
        with pytest.raises(ValueError, match="dependent"):
            ANet.from_upper_triangles(QQ, 6, [a, b])

    def test_rejects_non_skew(self):
        m = ExactMatrix(QQ, [[int(i == j) for j in range(6)]
                             for i in range(6)])
        with pytest.raises(ValueError, match="skew"):
            ANet(QQ, [m])

    def test_f_at_matches_symbolic(self, pinned):
        sym = pinned.symbolic()
        a = [1, -2, 3, 0, 5]
        direct = pinned.f_at(a)
        point = [QQ.value_of(x) for x in a]
        assert sym.evaluate(point).rows == direct.rows

    def test_map_field_reduces_entrywise(self, pinned):
        red = pinned.map_field(F7)
        assert red.matrices[0].rows[0][1] == F7.value_of(
            pinned.matrices[0].rows[0][1])

    def test_over_is_memoized(self, pinned):
        assert pinned.over(QQ) is pinned
        red = pinned.over(F7)
        assert red is pinned.over(F7)
        assert red.over(F7) is red
        assert [m.rows for m in red.matrices] == \
            [m.rows for m in pinned.map_field(F7).matrices]

    def test_failed_reduction_raises_every_time(self):
        net = ANet.from_upper_triangles(QQ, 4, [
            tri({(0, 1): 1}, 4), tri({(0, 1): 1, (2, 3): 2}, 4)])
        for _ in range(2):
            with pytest.raises(ValueError, match="dependent"):
                net.over(F2)

    @pytest.mark.parametrize("field", [F2, F3], ids=str)
    def test_memoized_points_match_a_fresh_net(self, pinned, field):
        fresh = ANet.from_upper_triangles(QQ, 6, pinned.upper_triangles())
        for _ in range(2):
            ys, xs = y_points(pinned, field), x_points(pinned, field)
            assert np.array_equal(ys, y_points(fresh, field))
            assert np.array_equal(xs, x_points(fresh, field))
            assert np.array_equal(xs, x_points(pinned.over(field), field))
            assert ys.dtype == xs.dtype == np.int64
            assert ys.shape == (len(ys), 5) and xs.shape == (len(xs), 2, 6)
            # the memo is shared, so no caller may write into it
            for codes in (ys, xs):
                assert not codes.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    codes[0] = 0


class TestPfaffianHypersurface:
    def test_block_net_cubic_is_triple_product(self):
        pf = pfaffian_hypersurface(block_net())
        a0 = MultiPoly.variable(QQ, 3, 0)
        a1 = MultiPoly.variable(QQ, 3, 1)
        a2 = MultiPoly.variable(QQ, 3, 2)
        assert pf.normalized() == (a0 * a1 * a2).normalized()

    def test_degree_m(self, pinned):
        pf = pfaffian_hypersurface(pinned)
        assert pf.homogeneous_degree() == 3

    def test_vanishes_exactly_on_corank_points(self, pinned):
        net3 = pinned.map_field(F3)
        cubic = pfaffian_hypersurface(net3)
        for a in enumerate_projective(F3, 4):
            on_y = F3.is_zero_value(cubic.evaluate(list(a)))
            assert on_y == (net3.f_at(a).rank() < 6)


class TestRegularity:
    def test_pinned_net_regular(self, pinned):
        res = is_regular(pinned)
        assert res.status == EMPTY
        assert res.is_regular

    def test_rank_two_member_is_caught(self):
        # F_1 alone has rank 2, so a = e_1 is a rank-2 point of the net
        rows = [tri({(0, 1): 1}),
                tri({(0, 2): 1, (1, 3): 1, (4, 5): 1}),
                tri({(0, 3): 1, (1, 2): -1, (4, 5): 2}),
                tri({(0, 4): 1, (2, 5): 1}),
                tri({(0, 5): 1, (3, 4): 1})]
        net = ANet.from_upper_triangles(QQ, 6, rows)
        res = is_regular(net, cap=10)
        assert res.status == NONEMPTY
        p, point = res.witness
        fp = GF(p)
        assert net.map_field(fp).f_at(point).rank() <= 2

    def test_witness_of_the_irregular_fixture(self):
        net = ANet.from_upper_triangles(QQ, 6, kernel_e5_triangles(7))
        found = correspondence._rank_deficient_witness(net, 2)
        assert found == scanning_witness(net, 2) == (3, (1, 1, 0, 0, 0))

    @pytest.mark.parametrize("seed", [8, 9, 10, 11])
    def test_witness_equals_the_scan(self, seed):
        net = ANet.from_upper_triangles(QQ, 6, kernel_e5_triangles(seed))
        found = correspondence._rank_deficient_witness(net, 2)
        assert found is not None and found == scanning_witness(net, 2)

    def test_witness_skips_a_dependent_reduction(self):
        # F_5 = F_1 + 3 G: independent over QQ, F_5 = F_1 over GF(3), where
        # a = e_1 - e_5 gives f(a) = 0, a point that does not lift
        tris = kernel_e5_triangles(7)
        extra = kernel_e5_triangles(12)[0]
        tris[4] = [x + 3 * y for x, y in zip(tris[0], extra)]
        net = ANet.from_upper_triangles(QQ, 6, tris)
        with pytest.raises(ValueError, match="dependent"):
            net.over(F3)
        found = correspondence._rank_deficient_witness(net, 2)
        assert found == scanning_witness(net, 2)
        assert found[0] == 7

    def test_classify_reuses_the_regularity_verdict(self, monkeypatch):
        net = ANet.from_upper_triangles(QQ, 6, PINNED_UPPER)
        sub_pf = sub_pfaffian_ideal(net).generators
        real = correspondence.is_empty_projective
        calls = []

        def counting(ideal, **kw):
            calls.append(ideal.generators == sub_pf)
            return real(ideal, **kw)

        monkeypatch.setattr(correspondence, "is_empty_projective", counting)
        assert is_regular(net).status == EMPTY
        assert calls == [True]
        cls = classify(net)
        assert cls.regular.status == EMPTY
        assert calls == [True, False]  # only the Jacobian ladder of Y

    def test_characteristic_two_raises_every_time(self):
        net = ANet.from_upper_triangles(F2, 6, PINNED_UPPER)
        for _ in range(2):
            with pytest.raises(ValueError, match="characteristic"):
                is_regular(net)

    def test_sub_pfaffian_ideal_sizes(self, pinned):
        ideal = sub_pfaffian_ideal(pinned)
        assert len(ideal.generators) == 15
        assert all(g.homogeneous_degree() == 2 for g in ideal.generators)


class TestFvMatrix:
    def test_contraction_identity(self, pinned):
        # row_i(v) . v = f(e_i)(v, v) = 0 identically
        assert all(p.is_zero()
                   for p in times_variable_vector(FvMatrix(pinned)))

    def test_evaluate_matches_bilinear_form(self, pinned):
        fv = FvMatrix(pinned)
        v = [1, 2, 0, -1, 3, 5]
        m = fv.evaluate(v)
        vv = [QQ.value_of(x) for x in v]
        for i, F in enumerate(pinned.matrices):
            for k in range(6):
                acc = QQ.zero_value
                for l in range(6):
                    acc = QQ.add(acc, QQ.mul(vv[l], F.rows[l][k]))
                assert m.rows[i][k] == acc


    def test_evaluate_matches_the_grid(self, pinned):
        # every point of P^5(GF(3)) and a few rational points
        net3 = pinned.over(GF(3))
        points = [(pinned, v) for v in ([1, 0, 0, 0, 0, 0],
                                        [Fraction(1, 2), -3, 0, 7, 1, 2],
                                        [2, -1, 4, Fraction(-5, 3), 0, 1])]
        points += [(net3, v) for v in enumerate_projective(GF(3), 5)]
        for net, v in points:
            fv = FvMatrix(net)
            grid = [[e.evaluate(list(v)) for e in row]
                    for row in fv.grid]
            assert fv.evaluate(v).rows == grid


def minor_quotient(net, i):
    """(-1)^i Delta_i / v_i, the maximal minor of f_v without column i
    divided by v_i, before normalization."""
    fv = FvMatrix(net)
    cols = [k for k in range(6) if k != i]
    delta = det_poly([[fv.grid[r][k] for k in cols] for r in range(5)])
    qi = exact_divide(delta, MultiPoly.variable(QQ, 6, i))
    return -qi if i % 2 else qi


class TestQuartic:
    def test_column_quotients_agree(self, pinned):
        quotients = [minor_quotient(pinned, i) for i in range(6)]
        assert all(q == quotients[0] for q in quotients[1:])
        assert q_quartic(pinned) == quotients[0].normalized()

    @staticmethod
    def _faked_minors(quartic):
        """The maximal minors of an f_v whose quotient is `quartic`, in
        minor_polys order: Delta_i = (-1)^i Q v_i at position 5 - i."""
        minors = [None] * 6
        for i in range(6):
            delta = quartic * MultiPoly.variable(QQ, 6, i)
            minors[5 - i] = -delta if i % 2 else delta
        return minors

    @pytest.mark.parametrize("change, message", [
        (lambda m, v, zero: m[:3] + [m[3] + v[0] ** 5] + m[4:],
         "v_2 does not divide the maximal minor without column 2"),
        (lambda m, v, zero: m[:1] + [m[1] + v[4] ** 5] + m[2:],
         "minor quotients disagree between columns"),
        (lambda m, v, zero: [zero] * 6,
         "all maximal minors vanish: f_v is everywhere rank-deficient"),
        (lambda m, v, zero: m[:2] + [zero] + m[3:],
         "only 5 of 6 minors were nonzero")],
        ids=["not-divisible", "disagree", "all-vanish", "five-of-six"])
    def test_error_paths(self, monkeypatch, change, message):
        net = ANet.from_upper_triangles(QQ, 6, PINNED_UPPER)
        v = [MultiPoly.variable(QQ, 6, i) for i in range(6)]
        quartic = v[0] ** 4 + v[1] * v[2] * v[3] * v[5]
        minors = change(self._faked_minors(quartic), v, MultiPoly.zero(QQ, 6))
        monkeypatch.setattr(correspondence, "minor_polys",
                            lambda grid, k: minors)
        with pytest.raises(ValueError, match=re.escape(message)):
            q_quartic(net)

    def test_faked_minors_give_their_quartic(self, monkeypatch):
        net = ANet.from_upper_triangles(QQ, 6, PINNED_UPPER)
        v = [MultiPoly.variable(QQ, 6, i) for i in range(6)]
        quartic = v[0] ** 4 - v[1] * v[2] * v[3] * v[5]
        monkeypatch.setattr(correspondence, "minor_polys",
                            lambda grid, k: self._faked_minors(quartic))
        assert q_quartic(net) == quartic.normalized()

    def test_quartic_cuts_rank_drop_locus(self, pinned):
        q3 = q_quartic(pinned).map_field(F3)
        net3 = pinned.map_field(F3)
        for v in enumerate_projective(F3, 5):
            vanishes = F3.is_zero_value(q3.evaluate(list(v)))
            assert vanishes == (rank_fv(net3, v) <= 4)

    def test_degree_and_homogeneity(self, pinned):
        q = q_quartic(pinned)
        assert q.homogeneous_degree() == 4

    def test_kernel_vector_annihilated(self, pinned):
        # M(v) . ((-1)^i Delta_i)_i = 0 is the identity behind the quotient
        fv = FvMatrix(pinned)
        deltas = []
        for i in range(6):
            cols = [k for k in range(6) if k != i]
            d = det_poly([[fv.grid[r][k] for k in cols] for r in range(5)])
            deltas.append(d if i % 2 == 0 else -d)
        for r in range(5):
            acc = MultiPoly.zero(QQ, 6)
            for i in range(6):
                acc = acc + fv.grid[r][i] * deltas[i]
            assert acc.is_zero()


class TestCurve:
    def test_minors_vanish_exactly_on_low_rank(self, pinned):
        ci = c_ideal(pinned)
        assert len(ci.generators) == 75
        net3 = pinned.map_field(F3)
        gens3 = [g.map_field(F3) for g in ci.generators]
        for v in enumerate_projective(F3, 5):
            all_zero = all(F3.is_zero_value(g.evaluate(list(v)))
                           for g in gens3)
            assert all_zero == (rank_fv(net3, v) <= 3)

    def test_hilbert_polynomial_25t_minus_25(self, pinned):
        data = fit_hilbert_polynomial(c_ideal(pinned), 1, cap=9)
        from fractions import Fraction
        assert list(data.fitted) == [Fraction(-25), Fraction(25)]
        assert data.scheme_degree == 25
        assert data.arithmetic_genus == 26

    def test_profile_matches_exact_ranks_on_extension(self, pinned):
        f9 = GF(3, 2)
        profile, low, r4 = fv_rank_profile(pinned, f9)
        assert sum(profile.values()) == (9 ** 6 - 1) // (9 - 1)
        assert set(profile) <= {3, 4, 5}
        net9 = pinned.map_field(f9)
        fv = FvMatrix(net9)
        for v in low[:3] + r4[:3]:
            assert fv.evaluate(v).rank() == (3 if v in low else 4)

    def test_find_c_points_returns_low_rank(self, pinned):
        field, pts = find_c_points(pinned)
        assert pts
        net_f = pinned.map_field(field)
        for v in pts:
            assert FvMatrix(net_f).evaluate(v).rank() == 3


class TestKappa:
    def test_image_is_decomposable_and_injective(self, pinned):
        net7 = pinned.map_field(F7)
        pts = y_payloads(pinned, F7)
        sample = pts[:40]
        images = [kappa(net7, a) for a in sample]
        for a, k in zip(sample, images):
            assert satisfies_quadrics(k)
            fa = net7.f_at(a)
            for row in k.basis.rows:
                out = [F7.zero_value] * 6
                for i in range(6):
                    for j in range(6):
                        out[i] = F7.add(out[i],
                                        F7.mul(fa.rows[i][j], row[j]))
                assert all(F7.is_zero_value(x) for x in out)
        assert len(set(images)) == len(sample)

    def test_rejects_off_hypersurface_points(self, pinned):
        net7 = pinned.map_field(F7)
        cubic = pfaffian_hypersurface(net7)
        off = next(a for a in enumerate_projective(F7, 4)
                   if not F7.is_zero_value(cubic.evaluate(list(a))))
        with pytest.raises(ValueError, match="not on the Pfaffian"):
            kappa(net7, off)


class TestFibers:
    def test_point_fiber_solves_kernel_equation(self, pinned):
        net7 = pinned.map_field(F7)
        _, _, r4 = fv_rank_profile(pinned, F7)
        v = r4[0]
        kind, a = psi_fiber(net7, v)
        assert kind == "point"
        fa = net7.f_at(a)
        out = [F7.zero_value] * 6
        for i in range(6):
            for j in range(6):
                out[i] = F7.add(out[i], F7.mul(fa.rows[i][j], v[j]))
        assert all(F7.is_zero_value(x) for x in out)

    def test_line_fiber_at_curve_point(self, pinned):
        net3 = pinned.map_field(F3)
        _, low, _ = fv_rank_profile(pinned, F3)
        assert low
        kind, (a1, a2) = psi_fiber(net3, low[0])
        assert kind == "line"
        cubic = pfaffian_hypersurface(net3)
        assert line_on_hypersurface(cubic, a1, a2)

    def test_off_quartic_raises(self, pinned):
        net7 = pinned.map_field(F7)
        q7 = q_quartic(pinned).map_field(F7)
        off = next(v for v in enumerate_projective(F7, 5)
                   if not F7.is_zero_value(q7.evaluate(list(v))))
        with pytest.raises(ValueError, match="not on Q"):
            psi_fiber(net7, off)
        with pytest.raises(ValueError, match="not on Q"):
            phi_fiber(net7, off)

    def test_plane_fiber_lies_on_x(self, pinned):
        net7 = pinned.map_field(F7)
        _, _, r4 = fv_rank_profile(pinned, F7)
        forms = net_linear_forms(net7)
        for v in r4[:10]:
            U = phi_fiber(net7, v)
            assert isinstance(U, PluckerPoint)
            assert all(F7.is_zero_value(f.evaluate(list(U.coords)))
                       for f in forms)
            # v must lie on the plane U
            stacked = ExactMatrix(F7, U.basis.rows + [list(v)])
            assert stacked.rank() == 2

    def test_pencil_fiber_at_curve_point(self, pinned):
        net3 = pinned.map_field(F3)
        _, low, _ = fv_rank_profile(pinned, F3)
        line = phi_fiber(net3, low[0])
        assert isinstance(line, GrassmannLine)
        forms = net_linear_forms(net3)
        for s, t in ((1, 0), (0, 1), (1, 1), (1, 2)):
            pt = line.point_at(s, t)
            assert all(F3.is_zero_value(f.evaluate(list(pt.coords)))
                       for f in forms)


class TestCurveFibers:
    """`curve_fibers` against the scalar references at every point of C
    over the ladder fields up to GF(9); P^5 over GF(25) or GF(27) has
    millions of points."""

    @pytest.mark.parametrize("q", SEARCH_LADDER[:4], ids=str)
    def test_matches_the_scalar_fibers(self, pinned_family, q):
        field = GF(*q)
        checked = 0
        for net in pinned_family[:3]:
            reduced = net.over(field)
            oracle = rank_oracle(reduced, field, "v")
            points = oracle.points(np.nonzero(oracle.table == 3)[0])
            for c, (on_x, line, key) in zip(points,
                                            curve_fibers(reduced, points)):
                assert on_x == certify_line_on_x(reduced,
                                                 phi_fiber(reduced, c))
                assert ("line", line) == psi_fiber(reduced, c)
                assert key == line_key(field, *line)
                checked += on_x
        assert checked

    def test_a_pencil_moved_off_x_fails(self, pinned, monkeypatch):
        """l_on_x reads u1^T F_i u2 at both planes: moving the first
        point's U(0:1) to <c, e_k>, column k of f_c nonzero, takes only
        that pencil off X."""
        net3 = pinned.over(F3)
        _, low, _ = fv_rank_profile(net3, F3)
        fc = FvMatrix(net3).evaluate(low[0])
        k = next(k for k in range(6) if any(row[k] for row in fc.rows))
        real = correspondence._phi_bases

        def moved(fc, stack, vs, params):
            bases = real(fc, stack, vs, params)
            bases[len(low), 1] = np.eye(6, dtype=np.int64)[k] * fc.one
            return bases
        monkeypatch.setattr(correspondence, "_phi_bases", moved)
        assert [on_x for on_x, _, _ in curve_fibers(net3, low)] \
            == [False] + [True] * (len(low) - 1)

    def test_rejects_a_point_off_the_curve(self, pinned):
        net7 = pinned.over(F7)
        _, low, r4 = fv_rank_profile(net7, F7)
        with pytest.raises(ValueError, match="rank f_c = 4"):
            curve_fibers(net7, low[:2] + r4[:1])


# each entry point that takes scalars, fed one GF(7^2) payload over a field
# whose payloads have another shape; it is rejected, never read as a scalar
FOREIGN_CALLS = {
    "f_at": lambda net, x: net.f_at([x, 0, 0, 0, 0]),
    "FvMatrix.evaluate": lambda net, x: FvMatrix(net.over(F3)).evaluate(
        [x, 0, 0, 0, 0, 1]),
    "phi_fiber": lambda net, x: phi_fiber(net.over(F3), [x, 0, 0, 0, 0, 0]),
    "PluckerPoint": lambda net, x: PluckerPoint(F3, 4, [x, 0, 0, 0, 0, 1]),
    "GrassmannLine.point_at": lambda net, x: GrassmannLine(
        F3, 4, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]).point_at(x, 1),
    "pencil_line": lambda net, x: pencil_line(
        [x, 0, 0, 0], ExactMatrix(F3, [[1, 0, 0, 0], [0, 1, 0, 0],
                                       [0, 0, 1, 0]])),
}


@pytest.mark.parametrize("call", sorted(FOREIGN_CALLS))
def test_foreign_element_raises(pinned, call):
    with pytest.raises(TypeError, match="cannot coerce"):
        FOREIGN_CALLS[call](pinned, (5, 0))


class TestLines:
    def test_line_enumeration_is_canonical(self, pinned):
        net3 = pinned.map_field(F3)
        lines = find_lines_on_y(net3, F3)
        assert len(lines) == len(set(lines))
        cubic = pfaffian_hypersurface(net3)
        for a1, a2 in lines:
            assert line_on_hypersurface(cubic, a1, a2)

    def test_jumping_lines_are_exactly_the_psi_lines(self, pinned):
        net3 = pinned.map_field(F3)
        lines = find_lines_on_y(net3, F3)
        jumping = {line for line, split
                   in zip(lines, splitting_types(net3, lines))
                   if split == (1, 3)}

        _, low, _ = fv_rank_profile(pinned, F3)
        psi_lines = {key for _, _, key in curve_fibers(net3, low)}
        assert jumping == psi_lines
        assert len(jumping) == len(low)

    def test_generic_line_splits_evenly(self, pinned):
        net3 = pinned.map_field(F3)
        lines = find_lines_on_y(net3, F3)
        types = set(splitting_types(net3, lines))
        assert types <= {(2, 2), (1, 3)}
        assert (2, 2) in types

    def test_rejects_line_off_y(self, pinned):
        net3 = pinned.map_field(F3)
        with pytest.raises(ValueError, match="does not lie"):
            splitting_types(net3, [((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))])


class TestSplittingTypes:
    """`splitting_types` against the per-line reference
    `scalar_references.splitting_type_on_line`: the same types on every
    line of Y, and the same message for the first line that fails."""

    OFF_Y = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))

    @pytest.mark.parametrize("field", [F3, GF(5)], ids=str)
    def test_matches_the_scalar_reference(self, pinned_family, field):
        for net in pinned_family:
            reduced = net.over(field)
            lines = find_lines_on_y(net, field)
            types = splitting_types(reduced, lines)
            assert types == [splitting_type_on_line(reduced, *line)
                             for line in lines]
            assert {(1, 3), (2, 2)} == set(types)
        assert splitting_types(pinned_family[0].over(field), []) == []

    @staticmethod
    def _messages(net, lines):
        """The ValueError messages of the batch and of the per-line loop."""
        out = []
        for run in (lambda: splitting_types(net, lines),
                    lambda: [splitting_type_on_line(net, *line)
                             for line in lines]):
            with pytest.raises(ValueError) as err:
                run()
            out.append(str(err.value))
        return out

    @staticmethod
    def _through_rank_two(pinned_family):
        """Pinned net 1 mod 7, a bad prime (rank f(a) = 2 at a0), and a
        line of Y through a0."""
        net = pinned_family[1].over(F7)
        oracle = rank_oracle(net, F7, "a")
        (a0,) = oracle.points(np.nonzero(oracle.table <= 2)[0])
        others = [tuple(b) for b in enumerate_projective(F7, 4)
                  if tuple(b) != a0]
        on_y = lie_on_y(net, F7,
                        oracle.fc.encode([(b, a0) for b in others]))
        return net, (others[int(on_y.argmax())], a0)

    def test_same_message_off_y(self, pinned):
        net3 = pinned.over(F3)
        lines = find_lines_on_y(net3, F3)
        assert self._messages(net3, lines[:3] + [self.OFF_Y]) \
            == ["the pencil does not lie on the Pfaffian hypersurface"] * 2

    def test_same_message_through_a_rank_two_point(self, pinned_family):
        net, line = self._through_rank_two(pinned_family)
        assert line_on_hypersurface(pfaffian_hypersurface(net), *line)
        assert self._messages(net, [line]) \
            == ["pencil rank drops to 2: kernel sheaf is not a rank-2 "
                "bundle here"] * 2

    def test_first_failing_line_in_input_order(self, pinned_family):
        net, line = self._through_rank_two(pinned_family)
        assert not lie_on_y(net, F7,
                            modnum.field_codes(F7).encode([self.OFF_Y]))[0]
        drop, off = self._messages(net, [line, self.OFF_Y]), \
            self._messages(net, [self.OFF_Y, line])
        assert drop[0] == drop[1] and "drops to 2" in drop[0]
        assert off[0] == off[1] and "does not lie" in off[0]

    def test_same_message_for_a_ladder_of_no_profile(self, pinned,
                                                     monkeypatch):
        """mu_2 (18 x 12 for 2m = 6) ranked one short: N(1) = 3 fits
        neither [1, 2, 4] nor [0, 2, 4]."""
        net3 = pinned.over(F3)
        lines = find_lines_on_y(net3, F3)
        out = []
        with monkeypatch.context() as patch:
            real = modnum.batch_rank_table
            patch.setattr(modnum, "batch_rank_table", lambda mats, fc: real(
                mats, fc) - (mats.shape[1] == 18))
            with pytest.raises(ValueError) as err:
                splitting_types(net3, lines)
            out.append(str(err.value))
        with monkeypatch.context() as patch:
            real_rank = ExactMatrix.rank
            patch.setattr(ExactMatrix, "rank", lambda m: real_rank(m) - (
                (m.nrows, m.ncols) == (18, 12)))
            with pytest.raises(ValueError) as err:
                [splitting_type_on_line(net3, *line) for line in lines]
            out.append(str(err.value))
        assert out[0] == out[1]
        assert re.match(r"section ladder \[[01], 3, 4\] matches no", out[0])

    def test_rejects_a_pair_spanning_no_line(self, pinned):
        # the per-line loop fails on its pencil net instead
        net3 = pinned.over(F3)
        a = tuple(int(x) for x in y_points(net3, F3)[0])
        with pytest.raises(ValueError, match="two independent points"):
            splitting_types(net3, [(a, tuple(2 * x % 3 for x in a))])

    @pytest.mark.parametrize("field, name", [
        (GF(2, 7), "GF(2^7)"), (GF(46349), "GF(46349)")], ids=str)
    def test_field_without_codes_raises(self, pinned, field, name):
        with pytest.raises(ValueError, match=re.escape(name)):
            splitting_types(pinned.over(field), [])


class TestXSide:
    def test_x_points_satisfy_everything(self, pinned):
        net2 = pinned.map_field(F2)
        pts = x_plucker_points(net2, F2)
        forms = net_linear_forms(net2)
        for p in pts:
            assert satisfies_quadrics(p)
            assert all(F2.is_zero_value(f.evaluate(list(p.coords)))
                       for f in forms)

    def test_x_ideal_generator_count(self, pinned):
        ideal = x_ideal(pinned)
        # 15 Plucker quadrics plus 5 hyperplanes
        assert len(ideal.generators) == 20


class TestRankOracle:
    """The rank tables answer every pointwise membership question exactly
    as the polynomials do."""

    @pytest.mark.parametrize("field", [F2, F3, GF(2, 2), GF(5), F7], ids=str)
    def test_table_zeros_are_the_cubic_zeros(self, pinned, field):
        cubic = pfaffian_hypersurface(pinned).map_field(field)
        oracle = rank_oracle(pinned, field, "a")
        pts = list(enumerate_projective(field, 4))
        assert len(oracle.table) == len(pts)
        for a, rank in zip(pts, oracle.table):
            assert (rank < 6) == field.is_zero_value(cubic.evaluate(a))

    @pytest.mark.parametrize("field", [F3, GF(2, 2), GF(5)], ids=str)
    def test_table_zeros_are_the_quartic_zeros(self, pinned, field):
        # the integer quotient, so that it reduces modulo 2 as well
        quotient = minor_quotient(pinned, 0)
        assert quotient.normalized() == q_quartic(pinned)
        quartic = quotient.map_field(field)
        oracle = rank_oracle(pinned, field, "v")
        pts = list(enumerate_projective(field, 5))
        assert len(oracle.table) == len(pts)
        for v, rank in zip(pts, oracle.table):
            assert (rank <= 4) == field.is_zero_value(quartic.evaluate(v))

    @pytest.mark.parametrize("field", [F3, GF(2, 2)], ids=str)
    def test_indices_follow_the_enumeration(self, pinned, field):
        oracle = rank_oracle(pinned, field, "v")
        pts = list(enumerate_projective(field, 5))
        assert oracle.points(range(len(pts))) == pts
        fv = FvMatrix(pinned.map_field(field))
        scalars = list(field.elements())[1:]
        for i, v in enumerate(pts):
            assert oracle.table[i] == fv.evaluate(v).rank()
            c = scalars[i % len(scalars)]
            scaled = [field.mul(c, x) for x in v]
            assert oracle.rank(scaled) == oracle.table[i]
        scaled = [[field.mul(scalars[i % len(scalars)], x) for x in v]
                  for i, v in enumerate(pts)]
        assert oracle.ranks(oracle.fc.encode(scaled)).tolist() \
            == oracle.table.tolist()

    @pytest.mark.parametrize("index, field", [
        (i, GF(*q)) for i in range(3)
        for q in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
        + [(0, GF(11))], ids=str)
    def test_walked_table_equals_the_ranked_one(self, pinned_family, index,
                                                field):
        net = pinned_family[index]
        assert np.array_equal(rank_oracle(net, field, "v").table,
                              fv_rank_table(net, field))

    @pytest.mark.parametrize("field", [F2, F3], ids=str)
    def test_walked_table_of_a_singular_x(self, degenerate, field):
        assert np.array_equal(rank_oracle(degenerate, field, "v").table,
                              fv_rank_table(degenerate, field))

    def test_direct_ranks_beyond_the_table(self, pinned):
        field = GF(101)
        oracle = rank_oracle(pinned, field, "a")
        net = pinned.map_field(field)
        points = [[1, 2, 3, 4, 5], [0, 0, 7, 100, 1], [0, 0, 0, 0, 9]]
        for a in points:
            assert oracle.rank(a) == net.f_at(a).rank()
        assert oracle.ranks(np.array(points)).tolist() \
            == [net.f_at(a).rank() for a in points]
        with pytest.raises(ValueError, match="no rank table"):
            oracle.table

    def test_characteristic_two_reads_the_reduced_entries(self):
        # F_5 = F_1 + 2 G: independent over QQ, dependent modulo 2
        rng = random.Random(1)
        tris = [[rng.randint(-3, 3) for _ in range(15)] for _ in range(4)]
        g = [rng.randint(-3, 3) for _ in range(15)]
        tris.append([x + 2 * y for x, y in zip(tris[0], g)])
        net = ANet.from_upper_triangles(QQ, 6, tris)
        with pytest.raises(ValueError, match="linearly dependent"):
            net.over(F2)
        cubic = pfaffian_hypersurface(net).map_field(F2)
        expected = [a for a in enumerate_projective(F2, 4)
                    if F2.is_zero_value(cubic.evaluate(a))]
        assert len(expected) == 15
        assert y_payloads(net, F2) == expected
        # f(a) = 0 at a = e_1 + e_5, so every v lies in one of the kernels
        table = rank_oracle(net, F2, "v").table
        assert np.array_equal(table, fv_rank_table(net, F2))
        assert table.max() <= 4

    _SYMBOLIC = {}

    @classmethod
    def _symbolic_on_y(cls, net, field):
        """The codes of every line of P(A) over `field`, in the order of
        `echelon_pair_codes`, and whether the symbolic restriction of the
        cubic to each line is zero; built once per net and field."""
        key = (net, field)
        if key not in cls._SYMBOLIC:
            cubic = pfaffian_hypersurface(net).map_field(field)
            codes = np.concatenate(list(echelon_pair_codes(net.n, field)))
            cls._SYMBOLIC[key] = codes, np.array(
                [line_on_hypersurface(cubic, *pair)
                 for pair in modnum.field_codes(field).decode(codes)])
        return cls._SYMBOLIC[key]

    @classmethod
    def _symbolic_lines(cls, net, field):
        codes, on_y = cls._symbolic_on_y(net, field)
        return [(tuple(r1), tuple(r2))
                for r1, r2 in modnum.field_codes(field).decode(codes[on_y])]

    @pytest.mark.parametrize("field, nets", [
        (F2, 5), (F3, 5), (GF(2, 2), 1)], ids=str)
    def test_lie_on_y_matches_the_symbolic_restriction(self, pinned_family,
                                                       field, nets):
        for net in pinned_family[:nets]:
            codes, expected = self._symbolic_on_y(net, field)
            assert expected.any() and not expected.all()
            assert np.array_equal(lie_on_y(net, field, codes), expected)

    def test_lie_on_y_needs_codes(self, pinned):
        lines = np.array([[[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]])
        with pytest.raises(ValueError, match="no code arithmetic over QQ"):
            lie_on_y(pinned, QQ, lines)

    @pytest.mark.parametrize("field, counts", [
        (F2, [14, 7, 12, 13, 6]), (F3, [18, 17, 12, 10, 32])], ids=str)
    def test_lines_match_the_symbolic_restriction(self, pinned_family,
                                                  field, counts):
        found = [find_lines_on_y(net, field) for net in pinned_family]
        assert [len(lines) for lines in found] == counts
        # each line comes as its own RREF, the key of a jumping line
        assert all(line == line_key(field, *line)
                   for lines in found for line in lines)
        assert found == [self._symbolic_lines(net, field)
                         for net in pinned_family]

    @staticmethod
    def _filtered_grassmannian(net, field):
        forms = net_linear_forms(net.over(field))
        return [pt for pt in enumerate_grassmannian(6, field)
                if all(field.is_zero_value(f.evaluate(pt.coords))
                       for f in forms)]

    @pytest.mark.parametrize("field", [F2, F3], ids=str)
    def test_x_points_are_the_filtered_grassmannian(self, pinned, field):
        assert x_plucker_points(pinned, field) \
            == self._filtered_grassmannian(pinned, field)

    @pytest.mark.parametrize("field", [F2, F3], ids=str)
    def test_x_points_of_a_singular_x(self, degenerate, field):
        # over GF(3) f_v of the degenerate net has rank 2 at one point, so
        # Ker f_v has dimension 4 there
        assert x_plucker_points(degenerate, field) \
            == self._filtered_grassmannian(degenerate, field)

    def test_x_points_over_gf4_are_cut_by_the_plucker_forms(self, pinned):
        # Plucker points for all 93,093 planes are slow to build over GF(4),
        # so the coordinates p_jk = u1_j u2_k - u1_k u2_j are formed on codes
        field = GF(2, 2)
        reduced = pinned.over(field)
        fc = modnum.field_codes(field)
        pairs, _ = pair_indices(6)
        codes = np.concatenate(list(echelon_pair_codes(6, field)))
        u1, u2 = np.moveaxis(codes, 1, 0)
        forms = np.zeros((len(codes), 5), dtype=np.int64)
        for i, j in pairs:
            p = fc.sub(fc.mul(u1[:, i], u2[:, j]), fc.mul(u1[:, j], u2[:, i]))
            coeffs = fc.encode([F.rows[i][j] for F in reduced.matrices])
            forms = fc.add(forms, fc.mul(p[:, None], coeffs[None, :]))
        expected = [plucker_from_basis(ExactMatrix(field, rows))
                    for rows in fc.decode(codes[~forms.any(axis=1)])]
        assert expected
        assert x_plucker_points(pinned, field) == expected


class TestClassification:
    def test_pinned_net_is_clean(self, pinned):
        cls = classify(pinned, fields=(F2, F3))
        assert cls.regular.status == EMPTY
        assert cls.y_smooth.status == EMPTY
        for d in cls.per_field.values():
            assert d["x_smooth"]
            assert d["sets_equal"]
            assert d["x_cap_kappa"] == []
        assert cls.all_smooth

    def test_messy_net_reports_reduction_damage(self, messy):
        cls = classify(messy, fields=(F3,))
        assert cls.regular.status == EMPTY
        assert cls.y_smooth.status == EMPTY
        d = cls.per_field["GF(3)"]
        assert not d["x_smooth"]
        assert not cls.all_smooth

    def test_degenerate_fixture(self, degenerate):
        cls = classify(degenerate, fields=(F2, F3), cap=10)
        assert cls.y_smooth.status == NONEMPTY
        u0 = tuple([QQ.one_value] + [QQ.zero_value] * 14)
        for field in (F2, F3):
            d = cls.per_field[field.name]
            assert d["sets_equal"]
            assert d["x_cap_kappa"]
            assert not d["x_smooth"]
            lead = d["x_cap_kappa"][0]
            assert lead[0] == field.one_value

    @pytest.mark.parametrize("index, prime", [(0, 5), (1, 7)])
    def test_bad_prime_singular_cubic_is_checked_at_the_second_prime(
            self, pinned_family, index, prime):
        """Y mod this prime is singular, but Y over QQ is smooth: the
        NONEMPTY Jacobian verdict gives way to EMPTY at the second prime,
        which lifts to QQ."""
        net = pinned_family[index]
        jacobian = jacobian_ideal(y_ideal(net))
        assert is_empty_projective(jacobian, prime=prime).status == NONEMPTY
        assert classify(net, prime=prime).y_smooth.status == EMPTY

    def test_singular_cubic_without_a_second_reduction_stays_nonempty(
            self, degenerate):
        # F_1 / 32009 spans the same net over QQ, which has no reduction
        # mod the second prime; the first prime's verdict stands
        tris = degenerate.upper_triangles()
        tris[0] = [Fraction(v) / 32009 for v in tris[0]]
        net = ANet.from_upper_triangles(QQ, 6, tris)
        assert classify(net).y_smooth.status == NONEMPTY

    def test_degenerate_singular_point_is_constructed_kernel(self, degenerate):
        e1 = [1, 0, 0, 0, 0]
        k = kappa(degenerate, e1)
        pairs, pos = pair_indices(6)
        expect = [QQ.zero_value] * 15
        expect[pos[(0, 1)]] = QQ.one_value
        assert list(k.coords) == expect
        assert tangent_test_x(degenerate, k)

    def test_classify_builds_no_scalar_kernels(self, monkeypatch):
        # the only scalar RREF per field is the independence check of the
        # reduced net; the planes and kernels are read on code arrays
        net = ANet.from_upper_triangles(QQ, 6, PINNED_UPPER)
        classify(net)  # regularity and Y-smoothness
        calls = {"rref": 0, "rank_kernel": 0}
        for name in calls:
            def counted(self, name=name, original=getattr(ExactMatrix, name)):
                calls[name] += 1
                return original(self)
            monkeypatch.setattr(ExactMatrix, name, counted)
        classify(net, fields=(F2, F3))
        assert calls["rank_kernel"] == 0
        assert calls["rref"] <= 2

    @pytest.mark.parametrize("name", ["pinned", "degenerate"])
    def test_plucker_points_only_for_report_rows(self, request, monkeypatch,
                                                 name):
        # the planes stay code bases: one Plucker point is made per plane
        # that sing(X) or X cap kappa(Y) lists, over test_05b's fields
        net = ANet.from_upper_triangles(
            QQ, 6, request.getfixturevalue(name).upper_triangles())
        fields = (F2, F3, GF(2, 2), GF(5), F7, GF(2, 3), GF(3, 2))
        calls = []

        def counted(basis, original=plucker_from_basis):
            calls.append(basis)
            return original(basis)
        for module in (grassmann, correspondence):
            monkeypatch.setattr(module, "plucker_from_basis", counted)
        per_field = classify(net, fields=fields, cap=10).per_field
        listed = sum(len(set(d["sing_x"]) | set(d["x_cap_kappa"]))
                     for d in per_field.values())
        assert listed >= (1 if name == "pinned" else 7)
        assert len(calls) == listed


# (#sing X, #X cap kappa(Y)); over GF(4) the degenerate net is singular at
# planes that are no kernel plane
SINGULAR_COUNTS = {
    "pinned": {"GF(2)": (0, 0), "GF(3)": (0, 0), "GF(2^2)": (0, 0),
               "GF(5)": (1, 1), "GF(7)": (0, 0)},
    "degenerate": {"GF(2)": (1, 1), "GF(3)": (1, 1), "GF(2^2)": (9, 1),
                   "GF(5)": (1, 1), "GF(7)": (1, 1)},
}


@pytest.mark.parametrize("field", [F2, F3, GF(2, 2), GF(5), F7], ids=str)
@pytest.mark.parametrize("name", sorted(SINGULAR_COUNTS))
def test_classify_matches_the_scalar_tests(request, name, field):
    """classify's sing(X) and X cap kappa(Y) against the scalar tangent test
    plane by plane and kappa point by point."""
    net = request.getfixturevalue(name)
    reduced = net.over(field)
    xs = x_plucker_points(net, field)
    sing = sorted(tuple(p.coords) for p in xs if tangent_test_x(reduced, p))
    kap = {kappa(reduced, a) for a in y_payloads(net, field)
           if reduced.f_at(a).rank() == net.two_m - 2}
    on_kappa = sorted(tuple(p.coords) for p in xs if p in kap)
    d = classify(net, fields=(field,), cap=10).per_field[field.name]
    assert (d["sing_x"], d["x_cap_kappa"]) == (sing, on_kappa)
    assert d["sets_equal"] == (sing == on_kappa)
    assert (len(sing), len(on_kappa)) == SINGULAR_COUNTS[name][field.name]


def test_classify_masks_of_an_empty_x(pinned):
    sing, on_kappa = correspondence._x_masks(
        pinned, F3, np.zeros((0, 2, 6), dtype=np.int64))
    assert sing.shape == (0,) and list(on_kappa) == []


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["pinned", "degenerate"])
def test_subfield_descent(request, name, p):
    """X, Y and sing X over F_p, moved into F_{p^2}, are the F_p-rational
    points of the same sets over F_{p^2}: those whose normalized
    coordinates all lie in F_p."""
    net = request.getfixturevalue(name)
    small, big = GF(p), GF(p, 2)
    prime = {reduce_value(e, small, big) for e in small.elements()}
    per_field = classify(net, fields=(small, big), cap=10).per_field
    sets = {field: (
        [pt.coords for pt in x_plucker_points(net, field)],
        y_payloads(net, field),
        per_field[field.name]["sing_x"]) for field in (small, big)}
    for lifted, points in zip(sets[small], sets[big]):
        assert {tuple(reduce_value(c, small, big) for c in pt)
                for pt in lifted} \
            == {tuple(pt) for pt in points if set(pt) <= prime}
    assert bool(sets[small][2]) == (name == "degenerate")


class TestFixtureGeneration:
    def test_seeded_search_is_deterministic(self):
        net_a, tries_a = random_regular_net(104, bound=3, max_tries=8)
        net_b, tries_b = random_regular_net(104, bound=3, max_tries=8)
        assert tries_a == tries_b
        assert net_a.upper_triangles() == net_b.upper_triangles()
        assert is_regular(net_a).is_regular
