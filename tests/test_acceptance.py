"""End-to-end acceptance suite: one test per headline claim, each with an
explicit wall-clock budget.  Every test prints a single timing line so a
verbose run reads as a checklist."""

import json
import random
import time
from fractions import Fraction

import pytest

from pfaffian_nets.cli import canonical_json, main, net_to_fixture
from pfaffian_nets.cohomology import (charge2_instanton_table,
                                      exceptional_pair_check_y,
                                      h1_pattern_check,
                                      line_ideal_membership)
from pfaffian_nets.correspondence import (SEARCH_LADDER, ANet,
                                          classify, c_ideal, curve_fibers,
                                          find_c_points,
                                          find_lines_on_y, is_regular,
                                          pfaffian_hypersurface, phi_fiber,
                                          q_quartic, random_net,
                                          fv_rank_profile,
                                          splitting_types)
from pfaffian_nets.fields import GF, QQ
from pfaffian_nets.ideals import (fit_hilbert_polynomial,
                                  is_empty_projective, minors_ideal)
from pfaffian_nets.matrices import ExactMatrix
from pfaffian_nets.multipoly import MultiPoly, det_poly
from pfaffian_nets.verify import SamplePlan, jw1_section_check, jw_pointwise

from scalar_references import (det, exact_divide, homogeneous_degree,
                               is_homogeneous, line_on_hypersurface,
                               pfaffian_scalar, x_generators)


def _budget(label, budget_s, start):
    elapsed = time.monotonic() - start
    print("%-38s %6.1fs of %4ds allowed" % (label, elapsed, budget_s))
    assert elapsed < budget_s, "%s exceeded its %ds budget (%.1fs)" \
        % (label, budget_s, elapsed)


def _random_skew(field, size, draw):
    rows = [[field.zero_value] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = draw()
            rows[i][j] = v
            rows[j][i] = field.neg(v)
    return ExactMatrix(field, rows)


@pytest.fixture(scope="module")
def found_curve_points(pinned_net):
    found = find_c_points(pinned_net)
    assert found is not None
    return found


def test_01_pfaffian_square_and_covariance():
    start = time.monotonic()
    f = GF(32003)
    rng = random.Random(0)
    for _ in range(1000):
        m = _random_skew(f, 6, lambda: rng.randrange(32003))
        pf = pfaffian_scalar(m)
        assert f.mul(pf, pf) == det(m)
    draw_q = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    for _ in range(100):
        m = _random_skew(QQ, 6, draw_q)
        pf = pfaffian_scalar(m)
        assert pf * pf == det(m)
    for _ in range(200):
        m = _random_skew(f, 6, lambda: rng.randrange(32003))
        p = ExactMatrix(f, [[rng.randrange(32003) for _ in range(6)]
                            for _ in range(6)])
        left = pfaffian_scalar(p.transpose() @ m @ p)
        right = f.mul(det(p), pfaffian_scalar(m))
        assert left == right
    _budget("pfaffian identities", 10, start)


def test_02_hypersurface_and_quartic_degrees(pinned_family):
    assert len(pinned_family) >= 5
    for net in pinned_family:
        start = time.monotonic()
        cubic = pfaffian_hypersurface(net)
        assert cubic.degree() == 3 and is_homogeneous(cubic)
        quartic = q_quartic(net)
        assert quartic.degree() == 4 and is_homogeneous(quartic)
        # all six division routes, spelled out rather than trusted
        routes = []
        for i in range(6):
            delta = det_poly(QQ, [[[e for k, e in enumerate(row) if k != i]
                                   for row in C] for C in net.stack("v")])
            qi = exact_divide(delta, MultiPoly.variable(QQ, 6, i))
            routes.append(-qi if i % 2 else qi)
        assert all(q == routes[0] for q in routes[1:])
        assert routes[0].normalized() == quartic
        _budget("quartic routes (one fixture)", 60, start)


def test_03_instanton_cohomology_tables(pinned_net):
    start = time.monotonic()
    table = charge2_instanton_table(pinned_net)
    assert table.all_pass
    for p in range(4):
        for t in range(-3, 2):
            want = 6 if (p, t) in ((0, 1), (3, -3)) else 0
            assert table.computed(p, t) == want
    nets = {5: pinned_net}
    for n in (4, 6):
        net = random_net(QQ, n, 6, random.Random(1), bound=3)
        assert is_regular(net, cap=10).is_regular
        nets[n] = net
    for n in (4, 5, 6):
        assert h1_pattern_check(nets[n]).all_pass
    _budget("instanton + twist-window tables", 60, start)


def test_04_curve_hilbert_polynomial(pinned_net):
    start = time.monotonic()
    data = fit_hilbert_polynomial(c_ideal(pinned_net), expected_dim=1,
                                  cap=12, primes=(32003, 32009))
    assert data.fitted == (Fraction(-25), Fraction(25))
    assert data.scheme_degree == 25
    assert data.arithmetic_genus == 26
    assert data.stable_from is not None
    _budget("curve Hilbert polynomial", 600, start)


def test_04b_minor_engine_budget(pinned_net):
    start = time.monotonic()
    net = ANet.from_upper_triangles(QQ, 6, pinned_net.triangles)
    assert homogeneous_degree(q_quartic(net)) == 4
    assert len(c_ideal(net).forms[4][0]) == 75
    _budget("quartic and curve minors over QQ", 1, start)


def test_05_singular_locus_enumeration(pinned_family, degenerate_fixture):
    start = time.monotonic()
    fields = (GF(2), GF(3))
    for net in pinned_family:
        cls = classify(net, fields=fields)
        for name, data in cls.per_field.items():
            assert data["sing_x"] == [], name
            assert data["x_cap_kappa"] == [], name
            assert data["sets_equal"]
    cls = classify(degenerate_fixture, fields=fields)
    for name, data in cls.per_field.items():
        assert data["sets_equal"], name
        assert data["sing_x"], name
    _budget("sing(X) vs X cap kappa(Y)", 120, start)


def test_05b_classification_over_seven_fields(pinned_net):
    start = time.monotonic()
    net = ANet.from_upper_triangles(QQ, 6, pinned_net.triangles)
    fields = (GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2))
    cls = classify(net, fields=fields)
    for name, data in cls.per_field.items():
        # X mod 5 is singular at one plane, which is a kernel plane
        assert len(data["sing_x"]) == (name == "GF(5)"), name
        assert data["sets_equal"], name
        assert data["x_count"] == data["y_count"], name
    assert len(cls.per_field) == len(fields)
    _budget("classification over seven fields", 3, start)


def test_06_minimal_rank_bound(pinned_net):
    start = time.monotonic()
    profile, _, _ = fv_rank_profile(pinned_net, GF(7))
    assert sum(profile.values()) == 19608
    assert min(profile) >= 3
    low_rank = minors_ideal(QQ, pinned_net.stack("v"), 3)
    assert len(low_rank.forms[3][0]) == 200
    assert is_empty_projective(low_rank).is_empty
    _budget("rank >= 3 everywhere", 120, start)


def test_07_line_correspondences(pinned_net, found_curve_points):
    start = time.monotonic()
    # the search ladder stops far below the point where a genus-26
    # degree-25 curve must have rational points (q > 52^2), so an empty
    # result would be a finding, not bad luck
    assert all(p ** k <= 2704 for p, k in SEARCH_LADDER)
    field, points = found_curve_points
    assert points
    reduced = pinned_net.over(field)
    cubic = pfaffian_hypersurface(reduced)
    elements = list(field.elements())
    params = [(field.one_value, field.zero_value)] \
        + [(x, field.one_value) for x in elements]
    generators = x_generators(reduced)
    m_keys = set()
    for c, (on_x, (a1, a2), key) in zip(points,
                                         curve_fibers(reduced, points)):
        assert on_x
        # and, independently, the X ideal on every point of the pencil
        pencil = phi_fiber(reduced, c)
        for gen in generators:
            assert len(params) >= gen.degree() + 1
            for s, t in params:
                pt = pencil.point_at(s, t)
                assert field.is_zero_value(gen.evaluate(pt.coords))
        assert line_on_hypersurface(cubic, a1, a2)
        assert splitting_types(reduced, [(a1, a2)]) == [(1, 3)]
        m_keys.add(key)
    assert field.name == "GF(3)"
    enumerated = find_lines_on_y(pinned_net, field)
    seen_jumping = set()
    for (a1, a2), split in zip(enumerated,
                               splitting_types(reduced, enumerated)):
        if (a1, a2) in m_keys:
            assert split == (1, 3)
            seen_jumping.add((a1, a2))
        else:
            assert split == (2, 2)
    assert seen_jumping == m_keys
    _budget("jumping and generic lines", 300, start)


def test_08_pair_and_ideal_membership(pinned_net, found_curve_points):
    start = time.monotonic()
    assert exceptional_pair_check_y().passed
    field, points = found_curve_points
    reduced = pinned_net.over(field)
    for _, (a1, a2), _ in curve_fibers(reduced, points):
        verdict = line_ideal_membership(reduced, a1, a2)
        assert verdict.passed
        assert {c["name"] for c in verdict.checks} \
            == {"ideal_sheaf_twist_0", "ideal_sheaf_twist_-1"}
    assert charge2_instanton_table(pinned_net).all_pass
    _budget("exceptional pair + membership", 60, start)


def test_09_resolution_fiber_checks(pinned_net):
    start = time.monotonic()
    plans = [SamplePlan(GF(3)),
             SamplePlan(GF(7), count=1000, seed=0, mode="random")]
    for plan in plans:
        pointwise = jw_pointwise(pinned_net, plan)
        sections = jw1_section_check(pinned_net, plan)
        assert pointwise.passed, pointwise.failures
        assert sections.passed, sections.failures
        if plan.mode == "enumerate":
            assert pointwise.on_w > 0
            assert pointwise.checked == 2116
    _budget("fiber exactness on and off W", 120, start)


def test_09b_exhaustive_fiber_checks_over_gf7(pinned_net):
    # all of Y x X over F_7, where the pipeline samples 1,000 pairs; a
    # fresh net, so the 183,184 records are not kept for the session
    start = time.monotonic()
    net = ANet.from_upper_triangles(QQ, 6, pinned_net.triangles)
    plan = SamplePlan(GF(7), mode="enumerate")
    pointwise = jw_pointwise(net, plan)
    sections = jw1_section_check(net, plan)
    assert pointwise.passed, pointwise.failures[:5]
    assert sections.passed, sections.failures[:5]
    assert pointwise.checked == 428 * 428 == 183184
    assert sections.checked == 8 * pointwise.checked
    assert sections.on_w == pointwise.on_w > 0
    _budget("exhaustive fiber checks over GF(7)", 10, start)


def test_10_report_determinism(pinned_net, tmp_path):
    start = time.monotonic()
    fixture = tmp_path / "fixture.json"
    fixture.write_text(canonical_json(net_to_fixture(pinned_net)))
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["pipeline", str(fixture), "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])
    _budget("byte-identical reports", 120, start)
