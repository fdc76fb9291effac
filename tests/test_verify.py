import random

import pytest

from pfaffian_nets import verify
from pfaffian_nets.correspondence import (ANet, pfaffian_hypersurface,
                                          phi_fiber, q_quartic, rank_oracle,
                                          y_points)
from pfaffian_nets.fields import GF, QQ
from pfaffian_nets.grassmann import GrassmannLine, plucker_from_basis
from pfaffian_nets.ideals import HomogeneousIdeal
from pfaffian_nets.matrices import ExactMatrix
from pfaffian_nets.multipoly import MultiPoly
from pfaffian_nets.verify import (
    SamplePlan,
    count_points,
    jw1_section_check,
    jw_pointwise,
    w_membership,
)


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


def evaluating_sampler(reduced, plan):
    """The GF(q) sampler as it was written on the polynomials: the same
    draws, with membership decided by evaluating the cubic and the
    quartic at each point."""
    field = plan.field
    cubic = pfaffian_hypersurface(reduced)
    quartic = q_quartic(reduced)
    elements = [e.value for e in field.elements()]
    rng = random.Random(plan.seed)

    def draw(length):
        while True:
            v = [rng.choice(elements) for _ in range(length)]
            if not all(field.is_zero_value(x) for x in v):
                return v

    def draw_a():
        while True:
            a = draw(5)
            if not cubic.evaluate(a):
                return tuple(a)

    def draw_u():
        while True:
            v = draw(6)
            if quartic.evaluate(v):
                continue
            u = phi_fiber(reduced, v)
            if isinstance(u, GrassmannLine):
                s, t = rng.choice([(field.one_value, x) for x in elements]
                                  + [(field.zero_value, field.one_value)])
                u = u.point_at(s, t)
            return u

    return [(draw_a(), draw_u()) for _ in range(plan.count)]


class TestSamplerOracle:
    @pytest.mark.parametrize("q, count, tabulated", [
        ((7, 1), 200, True), ((5, 2), 4, False), ((101, 1), 8, False)],
        ids=["GF(7)", "GF(25)", "GF(101)"])
    def test_draws_equal_the_evaluating_sampler(self, pinned_net, q, count,
                                                tabulated):
        field = GF(*q)
        net = ANet.from_upper_triangles(QQ, 6, pinned_net.upper_triangles())
        reduced = net.over(field)
        plan = SamplePlan(field, count=count, seed=4, mode="random")
        drawn = verify._random_pairs(reduced, plan)
        expected = evaluating_sampler(reduced, plan)
        assert [(a, u.basis.rows) for a, u in drawn] \
            == [(a, u.basis.rows) for a, u in expected]
        # GF(7) reads the rank tables; P^4 over GF(25) and GF(101) has
        # over 100,000 points, so there each rank is computed directly
        for side in ("a", "v"):
            oracle = rank_oracle(reduced, field, side)
            assert (oracle._table is not None) == tabulated


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
        """Count calls of the functions that build fibers; jw1 should make
        none of them, because it reads jw's memoized records."""
        calls = {}
        targets = [(verify, "w_membership"), (verify, "phi_fiber"),
                   (ANet, "f_at"), (ExactMatrix, "rref")]
        for owner, name in targets:
            def counted(*args, _name=name, _real=getattr(owner, name)):
                calls[_name] = calls.get(_name, 0) + 1
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
        net = ANet.from_upper_triangles(QQ, 6, pinned_net.upper_triangles())
        calls, streams = self._count_calls(monkeypatch)
        # a fresh plan for each check: the stream is keyed on the plan's value
        plan = lambda: SamplePlan(GF(7), count=30, seed=5, mode="random")
        pointwise = jw_pointwise(net, plan())
        assert calls["w_membership"] == 30 and calls["phi_fiber"] >= 30
        calls.clear()
        sections = jw1_section_check(net, plan())
        assert calls == {}
        assert len(streams) == 2 and streams[0] is streams[1]
        assert len(streams[0]) == 30
        assert (pointwise.checked, pointwise.on_w, pointwise.off_w) \
            == (sections.checked, sections.on_w, sections.off_w)

    def test_enumerate_mode_builds_each_side_once(self, pinned_net,
                                                   monkeypatch):
        net = ANet.from_upper_triangles(QQ, 6, pinned_net.upper_triangles())
        ys = y_points(net, GF(2))
        calls, streams = self._count_calls(monkeypatch)
        pointwise = jw_pointwise(net, SamplePlan(GF(2)))
        # one f(a) per point of Y, shared by all |X| pairs through it
        assert len(ys) == 19 and calls["f_at"] == 19
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
        reduced = degenerate_fixture.map_field(field)
        a = (1, 0, 0, 0, 0)
        u_basis = ExactMatrix(field, [[1, 0, 0, 0, 0, 0],
                                      [0, 1, 0, 0, 0, 0]])
        m = w_membership(reduced, a, plucker_from_basis(u_basis))
        assert m.intersection_dim == 2
        assert m.on_w

    def test_off_w_membership(self, pinned_net):
        from pfaffian_nets.correspondence import x_points
        field = GF(3)
        reduced = pinned_net.map_field(field)
        seen = set()
        for a in y_points(pinned_net, field)[:5]:
            for pt in x_points(pinned_net, field)[:5]:
                m = w_membership(reduced, a, pt)
                seen.add(m.intersection_dim)
        assert 0 in seen
        assert 2 not in seen


class TestCountPoints:
    def test_hyperplane_in_p5(self):
        ideal = HomogeneousIdeal(QQ, 6, [MultiPoly.linear_form(
            QQ, [1, 0, 0, 0, 0, 0])])
        assert count_points(ideal, GF(2)) == 31

    def test_empty_ideal_counts_everything(self):
        ideal = HomogeneousIdeal(QQ, 6, [])
        assert count_points(ideal, GF(2)) == 63

    def test_limit_guard(self):
        ideal = HomogeneousIdeal(QQ, 6, [])
        with pytest.raises(ValueError, match="limit"):
            count_points(ideal, GF(46337), limit=1000)

    def test_rational_field_rejected(self):
        ideal = HomogeneousIdeal(QQ, 3, [])
        with pytest.raises(ValueError):
            count_points(ideal, QQ)

    def test_cubic_count_matches_enumeration(self, pinned_net):
        cubic = pfaffian_hypersurface(pinned_net)
        ideal = HomogeneousIdeal(QQ, 5, [cubic])
        ys = y_points(pinned_net, GF(2))
        assert count_points(ideal, GF(2)) == len(ys)
        reduced = pinned_net.map_field(GF(2))
        for a in ys:
            assert reduced.f_at(a).rank() == 4
