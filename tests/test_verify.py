import itertools
import random

import numpy as np
import pytest

from pfaffian_nets import correspondence, modnum, verify
from pfaffian_nets.correspondence import (ANet, pfaffian_hypersurface,
                                          phi_fiber, q_quartic, rank_oracle,
                                          x_points, y_points)
from pfaffian_nets.fields import GF, QQ
from pfaffian_nets.grassmann import (GrassmannLine, enumerate_grassmannian,
                                     enumerate_projective, plucker_from_basis)
from pfaffian_nets.matrices import ExactMatrix
from pfaffian_nets.multipoly import MultiPoly
from pfaffian_nets.verify import SamplePlan, jw1_section_check, jw_pointwise

import scalar_references
from scalar_references import count_points, x_plucker_points, y_payloads
from conftest import PINNED_UPPERS
from test_cohomology import dead_coordinate_net


class TestSamplePlan:
    def test_auto_mode(self):
        assert SamplePlan(GF(2)).mode == "enumerate"
        assert SamplePlan(GF(3)).mode == "enumerate"
        assert SamplePlan(GF(7)).mode == "random"

    def test_explicit_modes(self):
        assert SamplePlan(GF(7), mode="enumerate").mode == "enumerate"
        assert SamplePlan(GF(2), mode="random").mode == "random"

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            SamplePlan(GF(3), mode="exhaustive")
        with pytest.raises(ValueError):
            SamplePlan(QQ)
        with pytest.raises(ValueError):
            SamplePlan(GF(7), count=0, mode="random")

    def test_describe(self):
        d = SamplePlan(GF(3), count=10, seed=4).describe()
        assert d == {"field": "GF(3)", "mode": "enumerate",
                     "count": 10, "seed": 4}


@pytest.fixture(scope="module", params=[2, 3])
def report(pinned_net, request):
    return jw_pointwise(pinned_net, SamplePlan(GF(request.param)))


class TestJwEnumerated:
    def test_passes_with_both_strata(self, report):
        assert report.passed
        assert report.on_w > 0
        assert report.off_w > 0
        assert report.checked == report.on_w + report.off_w

    def test_covers_the_full_grid(self, pinned_net, report):
        from pfaffian_nets.correspondence import x_points
        field = GF(2) if report.plan["field"] == "GF(2)" else GF(3)
        ys = y_points(pinned_net, field)
        xs = x_points(pinned_net, field)
        assert report.checked == len(ys) * len(xs)

    def test_frozen_counts(self, pinned_net):
        report = jw_pointwise(pinned_net, SamplePlan(GF(2)))
        assert (report.checked, report.on_w) == (361, 87)


class TestJwRandom:
    def test_gf7_sample_passes(self, pinned_net):
        report = jw_pointwise(pinned_net, SamplePlan(GF(7), count=150,
                                                     seed=11))
        assert report.passed
        assert report.checked == 150

    def test_deterministic_given_seed(self, pinned_net):
        plan = lambda: SamplePlan(GF(7), count=40, seed=3)
        a = jw_pointwise(pinned_net, plan()).as_dict()
        b = jw_pointwise(pinned_net, plan()).as_dict()
        assert a == b

    def test_budget_exhaustion_reported(self, pinned_net, monkeypatch):
        import pfaffian_nets.verify as verify
        monkeypatch.setattr(verify, "_TRY_FACTOR", 0)
        with pytest.raises(ValueError, match="budget"):
            jw_pointwise(pinned_net, SamplePlan(GF(7), count=5, seed=0))

    @pytest.mark.parametrize("k", [2, 3], ids=["GF(4)", "GF(8)"])
    def test_characteristic_two_samples_pass(self, pinned_net, k):
        # the net is over QQ, so its cubic exists although GF(2^k) has none
        plan = SamplePlan(GF(2, k), count=50, mode="random")
        report = jw_pointwise(pinned_net, plan)
        assert report.passed
        assert report.checked == 50
        assert jw1_section_check(pinned_net, plan).passed

    @pytest.mark.parametrize("q", [(7, 1), (2, 2)], ids=["GF(7)", "GF(4)"])
    def test_degenerate_net_raises(self, q):
        plan = SamplePlan(GF(*q), count=5, mode="random")
        with pytest.raises(ValueError, match="degenerate net"):
            jw_pointwise(dead_coordinate_net(), plan)


def evaluating_sampler(reduced, plan):
    """The GF(q) sampler as it was written on the polynomials: the same
    draws, with membership decided by evaluating the cubic and the
    quartic at each point."""
    field = plan.field
    cubic = pfaffian_hypersurface(reduced)
    quartic = q_quartic(reduced)
    elements = list(field.elements())
    rng = random.Random(plan.seed)

    def draw(length):
        while True:
            v = [rng.choice(elements) for _ in range(length)]
            if not all(field.is_zero_value(x) for x in v):
                return v

    def draw_a():
        while True:
            a = draw(5)
            if field.is_zero_value(cubic.evaluate(a)):
                return tuple(a)

    def draw_u():
        while True:
            v = draw(6)
            if not field.is_zero_value(quartic.evaluate(v)):
                continue
            u = phi_fiber(reduced, v)
            if isinstance(u, GrassmannLine):
                s, t = rng.choice([(field.one_value, x) for x in elements]
                                  + [(field.zero_value, field.one_value)])
                u = u.point_at(s, t)
            return u

    return [(draw_a(), draw_u()) for _ in range(plan.count)]


def decoded_pairs(field, a_codes, bases):
    """Sampled pairs as payloads: a as a tuple, U as the Plucker point of
    its basis."""
    fc = modnum.field_codes(field)
    return [(tuple(a), plucker_from_basis(ExactMatrix(field, basis)))
            for a, basis in zip(fc.decode(a_codes), fc.decode(bases))]


class TestSamplerOracle:
    @pytest.mark.parametrize("q, count, tabulated", [
        ((7, 1), 200, True), ((5, 2), 4, False), ((101, 1), 8, False)],
        ids=["GF(7)", "GF(25)", "GF(101)"])
    def test_draws_equal_the_evaluating_sampler(self, pinned_net, q, count,
                                                tabulated):
        field = GF(*q)
        net = ANet.from_upper_triangles(QQ, 6, pinned_net.triangles)
        reduced = net.over(field)
        plan = SamplePlan(field, count=count, seed=4, mode="random")
        drawn = decoded_pairs(field, *verify._random_pairs(reduced, plan))
        expected = evaluating_sampler(reduced, plan)
        assert [(a, u.basis.rows) for a, u in drawn] \
            == [(a, u.basis.rows) for a, u in expected]
        # GF(7) reads the rank tables; P^4 over GF(25) and GF(101) has
        # over 100,000 points, so there each rank is computed directly
        for side in ("a", "v"):
            oracle = rank_oracle(reduced, field, side)
            assert (oracle._table is not None) == tabulated

    def test_codes_and_stacks_are_built_once(self, monkeypatch):
        """On a fresh net, the GF(7) f_v table (walked from the kernels of
        f(a) over Y, which the f(a) table screens by the cubic in 2 chunks
        of 2048 points and keeps) and the GF(7) plan's pairs build one
        FieldCodes and encode each oracle's stack once, not once per
        chunk."""
        net = ANet.from_upper_triangles(QQ, 6, PINNED_UPPERS[0])
        modnum.field_codes.cache_clear()
        built, stacks = [], []
        init, encode = modnum.FieldCodes.__init__, modnum.FieldCodes.encode

        def counted_init(self, field):
            built.append(field)
            init(self, field)

        def counted_encode(self, rows):
            codes = encode(self, rows)
            if codes.ndim == 3:
                stacks.append(codes.shape)
            return codes
        monkeypatch.setattr(modnum.FieldCodes, "__init__", counted_init)
        monkeypatch.setattr(modnum.FieldCodes, "encode", counted_encode)
        field = GF(7)
        assert rank_oracle(net.over(field), field, "v").table.size == 19608
        assert len(verify._pairs(net, SamplePlan(field, count=100))) == 100
        assert built == [field]
        assert modnum.field_codes.cache_info().currsize == 1
        assert sorted(stacks) == [(5, 6, 6), (6, 5, 6)]

    def test_fv_tables_rank_no_point(self, monkeypatch):
        """Classification over GF(2) and GF(3), the C-point search and the
        pipeline's GF(7) plan read every rank f_v from the walk over the
        kernels of f(a): no point of P(V) is ranked from the stack."""
        net = ANet.from_upper_triangles(QQ, 6, PINNED_UPPERS[0])
        ranked = []
        computed = correspondence.RankOracle._computed

        def counted(self, codes):
            if self.side == "v":
                ranked.append(len(codes))
            return computed(self, codes)
        monkeypatch.setattr(correspondence.RankOracle, "_computed", counted)
        correspondence.classify(net, fields=[GF(2), GF(3)])
        assert correspondence.find_c_points(net)[0] == GF(3)
        plan = SamplePlan(GF(7), count=1000, seed=0, mode="random")
        assert len(verify._pairs(net, plan)) == 1000
        for field in (GF(2), GF(3), GF(7)):
            assert rank_oracle(net.over(field), field, "v")._table is not None
        assert sum(ranked) == 0

    def test_walk_checks_its_counts(self, monkeypatch):
        """Dropping from the kernels of f(a) kept with the a-side table one
        point of Y that lies on the line M_c = P(left kernel of f_c) of a
        rank-3 c leaves c in q kernels, not q + 1, and the walk raises."""
        field = GF(7)
        reduced = ANet.from_upper_triangles(
            QQ, 6, PINNED_UPPERS[0]).over(field)
        on_y = rank_oracle(reduced, field, "a")
        on_q = rank_oracle(reduced, field, "v")
        c = on_q._codes_at(np.nonzero(on_q.table == 3)[0][:1])
        _, _, left = correspondence._kernels(
            on_q.fc, on_q.stack.transpose(0, 2, 1), c)
        a = left[0, :1]
        assert on_y.ranks(a).tolist() == [4]
        y_idx, rank, kernel = on_y.on_y
        kept = y_idx != on_y.indices(a)[0]
        assert np.count_nonzero(~kept) == 1
        monkeypatch.setattr(on_y, "_on_y",
                            (y_idx[kept], rank[kept], kernel[kept]))
        monkeypatch.setattr(on_q, "_table", None)
        with pytest.raises(ValueError, match="lies in 7 kernels"):
            on_q.table


class TestSamplerReplay:
    """`_random_pairs` replays the seeded stream in blocks; the reference
    draws it one `choice` and one rank lookup at a time."""

    @pytest.mark.parametrize("q, count, seed, lines", [
        ((2, 1), 300, 0, 30), ((2, 2), 200, 4, 10), ((2, 3), 100, 1, 0),
        ((7, 1), 300, 0, 2), ((3, 2), 100, 0, 1), ((5, 2), 3, 4, 0),
        ((101, 1), 5, 1, 0)], ids=str)
    def test_draws_equal_the_one_at_a_time_loop(self, pinned_net, q, count,
                                                seed, lines):
        """GF(2) meets all-zero trials; over GF(4) and GF(8) half the words
        are redrawn; GF(7) picks on a line with one bit more than it picks
        an element; P^4 over GF(25) and GF(101) is not tabulated.  `lines`
        counts the pairs whose U was picked on a fiber line."""
        field = GF(*q)
        plan = SamplePlan(field, count=count, seed=seed, mode="random")
        a_codes, bases = verify._random_pairs(pinned_net, plan)
        ref_a, ref_bases, params = scalar_references.random_pairs(
            pinned_net, plan)
        assert a_codes.tolist() == ref_a.tolist()
        assert bases.tolist() == ref_bases.tolist()
        assert int(params.any(axis=1).sum()) == lines

    def test_choice_replay_rule(self):
        assert random.Random._randbelow \
            is random.Random._randbelow_with_getrandbits, (
                "random.Random._randbelow is no longer "
                "_randbelow_with_getrandbits: verify._random_pairs replays "
                "Random.choice by that rule, so under this interpreter its "
                "draws, and every report digest, would differ")
        for n in (2, 3, 7, 8, 9, 26, 101):
            drawn = random.Random(n)
            expected = [drawn.choice(range(n)) for _ in range(200)]
            words = verify._stream_words(random.Random(n), 800)
            picks = words >> (32 - n.bit_length())
            assert picks[picks < n][:200].tolist() == expected

    def test_refused_rank_raises_as_the_reference(self, pinned_net,
                                                  monkeypatch):
        """rank f_v <= 2 stops both samplers with the same error."""
        plan = SamplePlan(GF(7), count=20, seed=2, mode="random")
        ranks, rank = correspondence.RankOracle.ranks, \
            correspondence.RankOracle.rank
        monkeypatch.setattr(correspondence.RankOracle, "ranks",
                            lambda self, codes: np.minimum(
                                ranks(self, codes), 2))
        monkeypatch.setattr(correspondence.RankOracle, "rank",
                            lambda self, x: min(rank(self, x), 2))
        errors = []
        for sampler in (verify._random_pairs,
                        scalar_references.random_pairs):
            with pytest.raises(ValueError, match="minimal-rank") as info:
                sampler(pinned_net, plan)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @staticmethod
    def _fresh_gf7(plan):
        """A fresh pinned net with its reduction, cubic and oracles built."""
        net = ANet.from_upper_triangles(QQ, 6, PINNED_UPPERS[0])
        reduced = net.over(plan.field)
        pfaffian_hypersurface(net)
        for side in ("a", "v"):
            rank_oracle(reduced, plan.field, side)
        return net

    def test_pairs_make_no_scalar_objects(self, monkeypatch):
        """The pipeline's GF(7) plan draws, ranks and records its pairs on
        code arrays only."""
        plan = SamplePlan(GF(7), count=1000, seed=0, mode="random")
        net = self._fresh_gf7(plan)
        calls = []
        for owner, name in [(random.Random, "choice"),
                            (correspondence.RankOracle, "rank"),
                            (verify, "plucker_from_basis"),
                            (ExactMatrix, "__init__")]:
            def counted(*args, _name=name, _real=getattr(owner, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(owner, name, counted)
        assert len(verify._pairs(net, plan)) == 1000
        assert calls == []

    def test_failure_row_renders_the_payloads(self):
        """A failing pair is reported by a's payloads and the Plucker
        coordinates of U, as when the sampler returned Plucker points."""
        plan = SamplePlan(GF(7), count=50, seed=3, mode="random")
        net = self._fresh_gf7(plan)
        records = verify._pairs(net, plan)
        records.rank[17] = 5  # the a-side of pair 17 (a_idx is 0..49)
        report = jw_pointwise(net, plan)
        a, u = decoded_pairs(
            plan.field, *scalar_references.random_pairs(net, plan)[:2])[17]
        assert report.failures == [{"a": [repr(x) for x in a],
                                    "u": [repr(x) for x in u.coords],
                                    "reason": "rank f(a) = 5 on Y"}]


# -- the per-pair reference: each fiber record and each check written one
# pair at a time on ExactMatrix, as the batched arrays must reproduce them

class ReferenceMembership:
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
    piv, red = point.basis.rref()
    comp = [c for c in range(red.ncols) if c not in piv]
    return point.coords, red, piv, comp


def _check_jw_pair(m, report):
    f = m.fa.field
    a, u_coords = m.a, m.u_coords
    if m.rank != m.fa.nrows - 2:
        report.fail(a, u_coords, "rank f(a) = %d on Y" % m.rank)
        return
    if m.uf @ m.red.transpose() != ExactMatrix.zeros(f, 2, 2):
        report.fail(a, u_coords, "f(a) does not vanish on U x U")
        return
    first = ExactMatrix.from_columns(
        f, [_quotient_coords(m.red.rows, m.piv, m.comp, v, f)
            for v in m.kernel.rows], nrows=len(m.comp))
    second = ExactMatrix(f, [[row[c] for c in m.comp] for row in m.uf.rows],
                         ncols=len(m.comp))
    if second @ first != ExactMatrix.zeros(f, 2, first.ncols):
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


def _check_jw1_triple(f, m, s, t, report):
    row = [f.add(f.mul(s, x), f.mul(t, y)) for x, y in zip(*m.uf.rows)]
    hf_zero = all(f.is_zero_value(row[c]) for c in m.comp)
    in_kernel = all(f.is_zero_value(x) for x in row)
    if hf_zero != in_kernel:
        report.fail(m.a, m.u_coords,
                    "hf vanishing disagrees with kernel membership")
    return hf_zero


def reference_records(reduced, pairs):
    return [ReferenceMembership(_a_side(reduced, a), _u_side(u))
            for a, u in pairs]


def plan_pairs(net, plan):
    """The pairs (a, U) a plan checks, in order."""
    if plan.mode == "random":
        return decoded_pairs(plan.field, *verify._random_pairs(
            net.over(plan.field), plan))
    return [(a, u) for a in y_payloads(net, plan.field)
            for u in x_plucker_points(net, plan.field)]


def reference_jw(refs, plan):
    report = verify.JwReport("jw_pointwise", plan)
    for m in refs:
        _check_jw_pair(m, report)
    report.checked = len(refs)
    report.on_w = sum(m.on_w for m in refs)
    report.off_w = len(refs) - report.on_w
    return report


def reference_jw1(refs, plan):
    report = verify.JwReport("jw1_section_check", plan)
    f = plan.field
    elements = list(f.elements())
    every_v = [(f.one_value, f.zero_value)] \
        + [(x, f.one_value) for x in elements]
    one_v = [(f.one_value, x) for x in elements] \
        + [(f.zero_value, f.one_value)]
    rng = random.Random(plan.seed + 1)
    for m in refs:
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
    report.on_w = sum(m.on_w for m in refs)
    report.off_w = len(refs) - report.on_w
    return report


def _rows(refs):
    return [(m.a, m.u_coords, m.rank, m.intersection_dim, m.uf.rows, m.on_w)
            for m in refs]


def _record_rows(records):
    """The rows of `_rows` read from a FiberRecords' arrays."""
    return [(records.point_a(k), records.point_u(k).coords,
             int(records.rank[records.a_idx[k]]), int(records.dim[k]),
             records.fc.decode(records.uf[k]), bool(records.dim[k] > 0))
            for k in range(len(records))]


@pytest.fixture(scope="module", params=[
    ("pinned", (2, 1), "enumerate", 1000),
    ("pinned", (3, 1), "enumerate", 1000),
    ("pinned", (7, 1), "random", 200),
    ("pinned", (3, 2), "random", 50),
    ("pinned", (101, 1), "random", 6),
    ("degenerate", (2, 1), "enumerate", 1000)],
    ids=["pinned-GF(2)", "pinned-GF(3)", "pinned-GF(7)-random",
         "pinned-GF(9)-random", "pinned-GF(101)-random",
         "degenerate-GF(2)"])
def batched_case(request, pinned_net, degenerate_fixture):
    name, q, mode, count = request.param
    net = pinned_net if name == "pinned" else degenerate_fixture
    net = ANet.from_upper_triangles(QQ, net.two_m, net.triangles)
    plan = SamplePlan(GF(*q), count=count, seed=3, mode=mode)
    refs = reference_records(net.over(plan.field), plan_pairs(net, plan))
    return net, plan, refs


class TestBatchedRecords:
    """The batched records and checks against the per-pair reference."""

    def test_rows_equal_the_reference(self, batched_case):
        net, plan, refs = batched_case
        records = verify._pairs(net, plan)
        assert len(records) == len(refs)
        assert _record_rows(records) == _rows(refs)

    def test_jw_equals_the_reference(self, batched_case):
        net, plan, refs = batched_case
        assert jw_pointwise(net, plan).as_dict() \
            == reference_jw(refs, plan).as_dict()

    def test_jw1_equals_the_reference(self, batched_case):
        net, plan, refs = batched_case
        assert jw1_section_check(net, plan).as_dict() \
            == reference_jw1(refs, plan).as_dict()

    def test_degenerate_failures_are_covered(self, degenerate_fixture):
        reasons = [f["reason"] for f in jw_pointwise(
            degenerate_fixture, SamplePlan(GF(2))).failures]
        assert "Ker f(a) = U: U is a singular point of X" in reasons
        assert "rank f(a) = 2 on Y" in reasons

    @pytest.mark.parametrize("mode", ["enumerate", "random"])
    @pytest.mark.parametrize("q", [(2, 1), (2, 2)], ids=str)
    def test_arbitrary_pairs_equal_the_reference(self, pinned_net,
                                                 monkeypatch, q, mode):
        """Points off Y (rank f(a) = 6, no kernel) and planes off X (f(a)
        not zero on U x U) reach failures a plan on a smooth net never
        does; jw and jw1 read these records in place of the plan's."""
        field = GF(*q)
        reduced = pinned_net.over(field)
        a_points = list(enumerate_projective(field, 4))[-24:]
        u_points = list(itertools.islice(enumerate_grassmannian(6, field),
                                         30))
        pairs = [(a, u) for a in a_points for u in u_points]
        a_idx = np.repeat(np.arange(len(a_points)), len(u_points))
        u_idx = np.tile(np.arange(len(u_points)), len(a_points))
        fc = modnum.field_codes(field)
        records = verify.FiberRecords(
            reduced, fc.encode(a_points),
            fc.encode([u.basis.rows for u in u_points]), a_idx, u_idx)
        refs = reference_records(reduced, pairs)
        assert _record_rows(records) == _rows(refs)
        monkeypatch.setattr(verify, "_pairs", lambda net, plan: records)
        plan = SamplePlan(field, seed=5, mode=mode)
        expected = reference_jw(refs, plan)
        assert jw_pointwise(reduced, plan).as_dict() == expected.as_dict()
        assert {"rank f(a) = 6 on Y", "f(a) does not vanish on U x U"} \
            <= {f["reason"] for f in expected.failures}
        expected = reference_jw1(refs, plan)
        assert jw1_section_check(reduced, plan).as_dict() \
            == expected.as_dict()
        assert expected.failures


class TestPhiBases:
    @pytest.mark.parametrize("q", [(3, 1), (7, 1)], ids=str)
    def test_bases_equal_phi_fiber(self, pinned_net, q):
        """Every v of rank f_v 3 or 4 (all of Q over GF(3), the curve C and
        64 rank-4 points over GF(7)), with every (s:t) on a line."""
        field = GF(*q)
        reduced = pinned_net.over(field)
        oracle = rank_oracle(reduced, field, "v")
        ranks = oracle.table
        low = np.nonzero(ranks == 3)[0]
        high = np.nonzero(ranks == 4)[0]
        if field.order > 3:
            high = high[:64]
        elements = list(field.elements())
        params = [(field.one_value, x) for x in elements] \
            + [(field.zero_value, field.one_value)]
        vs, st, expected = [], [], []
        for v in oracle.points(high):
            vs.append(v)
            st.append((field.zero_value, field.zero_value))
            expected.append(phi_fiber(reduced, v).basis.rows)
        for v in oracle.points(low):
            line = phi_fiber(reduced, v)
            assert isinstance(line, GrassmannLine)
            for s, t in params:
                vs.append(v)
                st.append((s, t))
                expected.append(line.point_at(s, t).basis.rows)
        assert low.size and high.size
        fc = oracle.fc
        bases = correspondence._phi_bases(fc, oracle.stack, fc.encode(vs),
                                          fc.encode(st))
        assert fc.decode(bases) == expected


class TestJw1:
    def test_enumerated_gf3(self, pinned_net):
        plan = SamplePlan(GF(3))
        pair_report = jw_pointwise(pinned_net, plan)
        report = jw1_section_check(pinned_net, plan)
        assert report.passed
        # q + 1 kernel-line probes per pair
        assert report.checked == pair_report.checked * 4
        assert report.on_w == pair_report.on_w

    def test_random_gf7(self, pinned_net):
        report = jw1_section_check(pinned_net, SamplePlan(GF(7), count=150,
                                                          seed=11))
        assert report.passed

    @staticmethod
    def _count_calls(monkeypatch):
        """Count the calls that build fiber sides, with the number of
        points each builds; jw1 should make none of them, because it reads
        jw's memoized records."""
        calls = {}
        # the a-sides are read from the a-side oracle (`kernels`), which
        # keeps them for the points of Y; `_kernels` row-reduces
        targets = [(correspondence.RankOracle, "kernels", 1),
                   (correspondence, "_kernels", 2), (verify, "_u_sides", 1),
                   (correspondence, "phi_fiber", None),
                   (ANet, "f_at", None), (ExactMatrix, "rref", None)]
        for owner, name, arg in targets:
            def counted(*args, _name=name, _arg=arg,
                        _real=getattr(owner, name)):
                points = 1 if _arg is None else len(args[_arg])
                calls.setdefault(_name, []).append(points)
                return _real(*args)
            monkeypatch.setattr(owner, name, counted)
        streams = []
        pairs = verify._pairs

        def record(net, plan):
            streams.append(pairs(net, plan))
            return streams[-1]
        monkeypatch.setattr(verify, "_pairs", record)
        return calls, streams

    def test_random_mode_shares_jw_pairs(self, pinned_net, monkeypatch):
        net = ANet.from_upper_triangles(QQ, 6, pinned_net.triangles)
        # the f(a) table row-reduces the points of Y, before any pair
        assert rank_oracle(net.over(GF(7)), GF(7), "v").table.size == 19608
        calls, streams = self._count_calls(monkeypatch)
        # a fresh plan for each check: the stream is keyed on the plan's value
        plan = lambda: SamplePlan(GF(7), count=30, seed=5, mode="random")
        pointwise = jw_pointwise(net, plan())
        # one batch of 30 fibers f_v row-reduced, one of 30 a-sides f(a)
        # read from the oracle, one of 30 U-sides; no fiber is built one
        # pair at a time
        assert calls["_kernels"] == [30] and calls["kernels"] == [30]
        assert calls["_u_sides"] == [30]
        assert "phi_fiber" not in calls and "f_at" not in calls
        calls.clear()
        sections = jw1_section_check(net, plan())
        assert calls == {}
        assert len(streams) == 2 and streams[0] is streams[1]
        assert len(streams[0]) == 30
        assert (pointwise.checked, pointwise.on_w, pointwise.off_w) \
            == (sections.checked, sections.on_w, sections.off_w)

    def test_enumerate_mode_builds_each_side_once(self, pinned_net,
                                                   monkeypatch):
        net = ANet.from_upper_triangles(QQ, 6, pinned_net.triangles)
        ys, xs = y_points(net, GF(2)), x_points(net, GF(2))
        calls, streams = self._count_calls(monkeypatch)
        pointwise = jw_pointwise(net, SamplePlan(GF(2)))
        # one a-side per point of Y, read from the oracle, and one U-side
        # per point of X, shared by all pairs through it
        assert len(ys) == 19 and calls["kernels"] == [19]
        assert "_kernels" not in calls
        assert len(xs) == 19 and calls["_u_sides"] == [19]
        assert "f_at" not in calls
        calls.clear()
        sections = jw1_section_check(net, SamplePlan(GF(2)))
        assert calls == {}
        assert streams[0] is streams[1]
        assert pointwise.checked == len(streams[0]) == 361
        assert (pointwise.on_w, pointwise.off_w) \
            == (sections.on_w, sections.off_w)

    def test_report_shape(self, pinned_net):
        d = jw1_section_check(pinned_net, SamplePlan(GF(2))).as_dict()
        assert d["name"] == "jw1_section_check"
        assert d["failures"] == []
        assert d["passed"] is True


class TestSingularNetDetection:
    def test_degenerate_pair_fails_hard(self, degenerate_fixture):
        report = jw_pointwise(degenerate_fixture, SamplePlan(GF(2)))
        assert not report.passed
        reasons = {f["reason"] for f in report.failures}
        assert any("singular point of X" in r for r in reasons)

    def test_w_membership_flags_the_kernel_plane(self, degenerate_fixture):
        field = GF(3)
        fc = modnum.field_codes(field)
        reduced = degenerate_fixture.over(field)
        only = np.zeros(1, dtype=np.int64)
        records = verify.FiberRecords(
            reduced, fc.encode([[1, 0, 0, 0, 0]]),
            fc.encode([[[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]]), only, only)
        assert records.dim[0] == 2
        assert records.dim[0] > 0  # on W

    def test_off_w_membership(self, pinned_net):
        field = GF(3)
        fc = modnum.field_codes(field)
        reduced = pinned_net.over(field)
        a_points = y_payloads(pinned_net, field)[:5]
        u_points = x_plucker_points(pinned_net, field)[:5]
        records = verify.FiberRecords(
            reduced, fc.encode(a_points),
            fc.encode([u.basis.rows for u in u_points]),
            np.repeat(np.arange(5), 5), np.tile(np.arange(5), 5))
        seen = set(records.dim.tolist())
        assert 0 in seen
        assert 2 not in seen


class TestCountPoints:
    def test_hyperplane_in_p5(self):
        form = MultiPoly.linear_form(QQ, [1, 0, 0, 0, 0, 0])
        assert count_points([form], 6, GF(2)) == 31

    def test_empty_ideal_counts_everything(self):
        assert count_points([], 6, GF(2)) == 63

    def test_limit_guard(self):
        with pytest.raises(ValueError, match="limit"):
            count_points([], 6, GF(46337), limit=1000)

    def test_rational_field_rejected(self):
        with pytest.raises(ValueError):
            count_points([], 3, QQ)

    def test_cubic_count_matches_enumeration(self, pinned_net):
        cubic = pfaffian_hypersurface(pinned_net)
        ys = y_payloads(pinned_net, GF(2))
        assert count_points([cubic], 5, GF(2)) == len(ys)
        reduced = pinned_net.over(GF(2))
        for a in ys:
            assert reduced.f_at(a).rank() == 4

    @pytest.mark.parametrize("q, count", [((2, 2), 93), ((3, 2), 784)],
                             ids=["GF(4)", "GF(9)"])
    def test_cubic_count_over_an_extension_field(self, pinned_net, q, count):
        # a GF(p^k) zero payload is a nonempty tuple, so a zero value must
        # be read with is_zero_value, never by truthiness
        field = GF(*q)
        cubic = pfaffian_hypersurface(pinned_net)
        assert count_points([cubic], 5, field) == count
        assert len(y_points(pinned_net, field)) == count
