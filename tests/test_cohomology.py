import random

import pytest

from pfaffian_nets.cohomology import (
    CohomologyTable,
    charge2_instanton_table,
    chi_cubic_instanton,
    chi_hypersurface,
    exceptional_pair_check_y,
    expected_instanton_table,
    h1_pattern_check,
    hypersurface_line_bundle_cohomology,
    line_ideal_membership,
    mu_matrix,
    theta_cohomology,
)
from pfaffian_nets.correspondence import (
    ANet,
    find_c_points,
    is_regular,
    pfaffian_hypersurface,
    random_net,
)
from pfaffian_nets.fields import GF, QQ
from pfaffian_nets.grassmann import pair_indices

from scalar_references import line_on_hypersurface, psi_fiber


# (name, cell a, cell b, offset(d, k)): each relation reads a - b = offset
INSTANTON_RELATIONS = (
    ("h3(-3) = h0(1)", (3, -3), (0, 1), lambda d, k: 0),
    ("h2(-3) = h1(1)", (2, -3), (1, 1), lambda d, k: 0),
    ("h0(1) - h1(1) = 2d - 2k + 4", (0, 1), (1, 1),
     lambda d, k: 2 * d - 2 * k + 4),
)


def check_instanton_relations(table, d, k):
    """The three cross-cell equalities tying the corners of the grid, as
    the reference the charge-2 table is read against."""
    out = []
    for name, cell_a, cell_b, offset in INSTANTON_RELATIONS:
        a = table.computed(*cell_a)
        b = table.computed(*cell_b)
        out.append({"name": name, "lhs": a, "rhs": b,
                    "verdict": "pass" if a - b == offset(d, k) else "fail"})
    return out


@pytest.fixture(scope="module")
def small_regular_nets():
    """Regular nets of shapes (4,6) and (6,6); seed 1 happens to succeed
    on the first draw for both."""
    out = {}
    for n in (4, 6):
        net = random_net(QQ, n, 6, random.Random(1), bound=3)
        assert is_regular(net, cap=10).is_regular
        out[n] = net
    return out


def dead_coordinate_net():
    """Five independent skew forms that all kill e5, so the symbolic matrix
    has an identically zero column and the Pfaffian form vanishes."""
    rng = random.Random(7)
    pairs, _ = pair_indices(6)
    tris = [[rng.randint(-3, 3) if j < 5 else 0 for (i, j) in pairs]
            for _ in range(5)]
    return ANet.from_upper_triangles(QQ, 6, tris)


class TestMuMatrix:
    def test_shapes(self, pinned_net):
        assert mu_matrix(pinned_net, -1).nrows == 0
        m0 = mu_matrix(pinned_net, 0)
        assert (m0.nrows, m0.ncols) == (6, 0)
        m1 = mu_matrix(pinned_net, 1)
        assert (m1.nrows, m1.ncols) == (30, 6)
        m2 = mu_matrix(pinned_net, 2)
        assert (m2.nrows, m2.ncols) == (90, 30)

    def test_mu1_is_the_stacked_net(self, pinned_net):
        # mu_1 sends v to (F_1 v, ..., F_n v); check on the basis.
        m1 = mu_matrix(pinned_net, 1)
        for l in range(6):
            col = [m1.rows[r][l] for r in range(30)]
            for i in range(5):
                expected = [pinned_net.stack("a")[i][k][l]
                            for k in range(6)]
                got = [col[k * 5 + i] for k in range(6)]
                assert got == expected

    def test_mu1_injective_on_pinned(self, pinned_net):
        assert mu_matrix(pinned_net, 1).rank() == 6


class TestTheta:
    def test_window_and_spikes(self, pinned_net):
        assert theta_cohomology(pinned_net, 0) == (6, 0, 0, 0, 0)
        assert theta_cohomology(pinned_net, 1) == (24, 0, 0, 0, 0)
        for t in (-1, -2, -3):
            assert theta_cohomology(pinned_net, t) == (0, 0, 0, 0, 0)
        assert theta_cohomology(pinned_net, -4) == (0, 0, 0, 6, 0)
        assert theta_cohomology(pinned_net, -5) == (0, 0, 0, 24, 0)

    def test_section_growth_matches_binomial_differences(self, pinned_net):
        # once mu_t is injective, h^0(t) = 6 (C(t+4,4) - C(t+3,4))
        reduced = pinned_net.over(GF(32003))
        assert theta_cohomology(reduced, 2)[0] == 60
        assert theta_cohomology(reduced, 3)[0] == 120
        assert theta_cohomology(reduced, -6)[3] == 60

    def test_two_prime_agreement(self, pinned_net):
        rows = []
        for p in (32003, 32009):
            reduced = pinned_net.over(GF(p))
            rows.append([theta_cohomology(reduced, t)
                         for t in (3, 2, 1, 0, -4, -5, -6)])
        assert rows[0] == rows[1]

    def test_top_degree_always_vanishes(self, pinned_net):
        reduced = pinned_net.over(GF(32003))
        for t in range(-6, 3):
            assert theta_cohomology(reduced, t)[4] == 0

    def test_degenerate_coordinate_net_is_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            theta_cohomology(dead_coordinate_net(), 1)

    def test_one_form_is_refused(self):
        # at n = 1 the cells h^{n-2} and h^{n-1} of the row would be one
        pairs, _ = pair_indices(6)
        net = ANet.from_upper_triangles(QQ, 6, [[
            int(p in ((0, 1), (2, 3), (4, 5))) for p in pairs]])
        with pytest.raises(ValueError, match="need n >= 2, got n = 1"):
            theta_cohomology(net, 0)

    def test_window_is_formal_for_singular_nets(self, degenerate_fixture):
        # the vanishing window only needs an injective sheaf map, so even
        # nets with singular X keep the formal spike h^0 = 6
        assert theta_cohomology(degenerate_fixture, 0) == (6, 0, 0, 0, 0)


class TestCharge2:
    def test_pinned_family_tables_pass(self, pinned_family):
        for net in pinned_family:
            table = charge2_instanton_table(net)
            assert table.all_pass
            assert table.computed(0, 1) == 6
            assert table.computed(3, -3) == 6

    def test_euler_characteristics(self, pinned_net):
        table = charge2_instanton_table(pinned_net)
        expected = {e["t"]: e["expected"] for e in table.euler_checks}
        assert expected == {-3: -6, -2: 0, -1: 0, 0: 0, 1: 6}
        assert all(e["verdict"] == "pass" for e in table.euler_checks)

    def test_matches_expected_grid(self, pinned_net):
        computed = charge2_instanton_table(pinned_net)
        expected = expected_instanton_table(3, 2)
        for key, cell in expected.cells.items():
            assert computed.cells[key]["computed"] == cell["expected"]

    def test_relations(self, pinned_net):
        table = charge2_instanton_table(pinned_net)
        checks = check_instanton_relations(table, 3, 2)
        assert [c["verdict"] for c in checks] == ["pass"] * 3

    def test_wrong_shape_rejected(self, small_regular_nets):
        with pytest.raises(ValueError, match="n=5"):
            charge2_instanton_table(small_regular_nets[4])


class TestH1Pattern:
    def test_main_case(self, pinned_net):
        table = h1_pattern_check(pinned_net)
        assert table.all_pass
        assert table.computed(0, 0) == 6
        assert table.computed(3, -4) == 6

    @pytest.mark.parametrize("n", [4, 6])
    def test_other_shapes(self, small_regular_nets, n):
        table = h1_pattern_check(small_regular_nets[n])
        assert table.all_pass
        assert len(table.cells) == n * n
        assert table.computed(0, 0) == 6
        assert table.computed(n - 2, -(n - 1)) == 6


class TestHypersurfaceRows:
    def test_cubic_threefold_rows(self):
        assert hypersurface_line_bundle_cohomology(3, 5, 0) == (1, 0, 0, 0)
        assert hypersurface_line_bundle_cohomology(3, 5, -1) == (0, 0, 0, 0)
        assert hypersurface_line_bundle_cohomology(3, 5, 1) == (5, 0, 0, 0)
        assert hypersurface_line_bundle_cohomology(3, 5, -2) == (0, 0, 0, 1)
        assert hypersurface_line_bundle_cohomology(3, 5, 3) == (34, 0, 0, 0)

    def test_serre_symmetry(self):
        # K_Y = O(-2) on the cubic threefold
        for t in range(0, 5):
            row = hypersurface_line_bundle_cohomology(3, 5, t)
            dual = hypersurface_line_bundle_cohomology(3, 5, -2 - t)
            assert row[0] == dual[3] and row[3] == dual[0]

    def test_quadric_surface(self):
        assert hypersurface_line_bundle_cohomology(2, 4, 0) == (1, 0, 0)
        assert hypersurface_line_bundle_cohomology(2, 4, -2) == (0, 0, 1)

    def test_small_ambient_rejected(self):
        with pytest.raises(ValueError):
            hypersurface_line_bundle_cohomology(3, 2, 0)


class TestEulerHelpers:
    def test_chi_hypersurface(self):
        values = {t: chi_hypersurface(3, 5, t) for t in range(-3, 4)}
        assert values == {-3: -5, -2: -1, -1: 0, 0: 1, 1: 5, 2: 15, 3: 34}

    def test_chi_matches_rows(self):
        for t in range(-2, 4):
            row = hypersurface_line_bundle_cohomology(3, 5, t)
            chi = row[0] - row[1] + row[2] - row[3]
            assert chi == chi_hypersurface(3, 5, t)

    def test_chi_instanton(self):
        assert chi_cubic_instanton(2, 1) == 6
        assert chi_cubic_instanton(2, -3) == -6
        assert chi_cubic_instanton(2, 0) == 0
        assert chi_cubic_instanton(3, 0) == -1


class TestExpectedTable:
    def test_charge_two_is_exact(self):
        table = expected_instanton_table(3, 2)
        for (p, t), cell in table.cells.items():
            expected = 6 if (p, t) in ((0, 1), (3, -3)) else 0
            assert cell["expected"] == expected

    def test_higher_charge_keeps_bounds(self):
        table = expected_instanton_table(3, 3)
        assert table.cells[(2, -2)]["expected"] == 1
        assert table.cells[(1, 0)]["expected"] == 1
        assert table.cells[(2, -3)]["expected"] == ("<=", 2)
        assert table.cells[(1, 1)]["expected"] == ("<=", 2)
        assert table.cells[(0, 1)]["expected"] == ("<=", 6)
        assert table.cells[(3, -3)]["expected"] == ("<=", 6)

    def test_charge_below_two_rejected(self):
        with pytest.raises(ValueError):
            expected_instanton_table(3, 1)

    def test_bound_cells_judge_with_inequality(self):
        table = CohomologyTable([0], [0])
        table.set_cell(0, 0, computed=5, expected=("<=", 6))
        assert table.all_pass
        table.set_cell(0, 0, computed=7, expected=("<=", 6))
        assert not table.all_pass


class TestExceptionalPair:
    def test_passes(self):
        verdict = exceptional_pair_check_y()
        assert verdict.passed
        names = [c["name"] for c in verdict.checks]
        assert names == ["self_ext_structure_sheaf", "self_ext_twist",
                         "backwards_homs"]

    def test_as_dict(self):
        d = exceptional_pair_check_y().as_dict()
        assert d["passed"] is True
        assert len(d["checks"]) == 3


@pytest.fixture(scope="module")
def jumping_lines(pinned_net):
    field, points = find_c_points(pinned_net)
    reduced = pinned_net.over(field)
    lines = []
    for c in points:
        kind, line = psi_fiber(reduced, c)
        assert kind == "line"
        lines.append(line)
    return reduced, lines


class TestLineIdealMembership:
    def test_all_found_lines_pass(self, jumping_lines):
        reduced, lines = jumping_lines
        assert lines
        for a1, a2 in lines:
            verdict = line_ideal_membership(reduced, a1, a2)
            assert verdict.passed
            for check in verdict.checks:
                assert check["computed"] == {"h0": 0, "h1": 0,
                                             "h2": 0, "h3": 0}

    def test_off_cubic_line_rejected(self, jumping_lines):
        reduced, _ = jumping_lines
        cubic = pfaffian_hypersurface(reduced)
        e0 = (1, 0, 0, 0, 0)
        e1 = (0, 1, 0, 0, 0)
        assert not line_on_hypersurface(cubic, e0, e1)
        with pytest.raises(ValueError, match="does not lie"):
            line_ideal_membership(reduced, e0, e1)

    def test_needs_a_field_with_codes(self, pinned_net):
        # over QQ no rank table answers whether the line lies on the cubic
        with pytest.raises(ValueError, match="no code arithmetic over QQ"):
            line_ideal_membership(pinned_net, (1, 0, 0, 0, 0),
                                  (0, 1, 0, 0, 0))
