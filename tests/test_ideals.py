import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from pfaffian_nets import modnum
from pfaffian_nets.cli import net_from_fixture
from pfaffian_nets.correspondence import FvMatrix, c_ideal, sub_pfaffian_ideal
from pfaffian_nets.fields import QQ, GF
from pfaffian_nets.ideals import (EMPTY, INCONCLUSIVE, NONEMPTY,
                                  HilbertEngine, HomogeneousIdeal,
                                  ambient_dimension, fit_hilbert_polynomial,
                                  hilbert_function, is_empty_projective,
                                  jacobian_ideal, macaulay_matrix,
                                  minors_ideal, _interpolate)
from pfaffian_nets.matrices import ExactMatrix
from pfaffian_nets.multipoly import (MultiPoly, minor_polys,
                                     monomials_of_degree)

from conftest import random_value
from scalar_references import det
from test_cli import dead_fixture_text


def x(field, nvars, i):
    return MultiPoly.variable(field, nvars, i)


def variables(field, nvars):
    return [x(field, nvars, i) for i in range(nvars)]


def twisted_cubic_ideal(field):
    """2x2 minors of [[x0,x1,x2],[x1,x2,x3]]: the standard degree-3 curve."""
    x0, x1, x2, x3 = variables(field, 4)
    return minors_ideal([[x0, x1, x2], [x1, x2, x3]], 2)


def random_ideal(field, nvars, rng, ngens=3):
    gens = []
    for _ in range(ngens):
        d = rng.randrange(1, 4)
        monos = list(monomials_of_degree(nvars, d))
        terms = {rng.choice(monos): random_value(field, rng) for _ in range(4)}
        g = MultiPoly(field, nvars, terms)
        if not g.is_zero():
            gens.append(g)
    return HomogeneousIdeal(field, nvars, gens)


# -- macaulay matrices and plain hilbert values ------------------------------

def test_macaulay_principal_ideal():
    ideal = HomogeneousIdeal(QQ, 2, [x(QQ, 2, 0)])
    m = macaulay_matrix(ideal, 2)
    assert (m.nrows, m.ncols) == (2, 3)
    assert m.rank() == 2


def test_macaulay_zero_ideal():
    ideal = HomogeneousIdeal(QQ, 3, [])
    assert macaulay_matrix(ideal, 2).nrows == 0
    assert hilbert_function(ideal, 3) == ambient_dimension(3, 3) == 10


def test_hilbert_zero_ideal_six_vars():
    ideal = HomogeneousIdeal(GF(7), 6, [])
    assert hilbert_function(ideal, 3) == comb(8, 5) == 56


def test_hilbert_irrelevant_ideal():
    ideal = HomogeneousIdeal(GF(7), 6, variables(GF(7), 6))
    for t in (1, 2, 5):
        assert hilbert_function(ideal, t) == 0


def test_inhomogeneous_generator_rejected():
    bad = x(QQ, 2, 0) + MultiPoly.constant(QQ, 2, 1)
    with pytest.raises(ValueError):
        HomogeneousIdeal(QQ, 2, [bad])


def test_zero_generators_dropped():
    ideal = HomogeneousIdeal(QQ, 2, [MultiPoly.zero(QQ, 2), x(QQ, 2, 1)])
    assert len(ideal.generators) == 1


# -- the incremental engine against direct ranks -----------------------------

@pytest.mark.parametrize("prime", [7, 32003])
def test_engine_matches_direct_macaulay(prime):
    rng = random.Random(prime)
    field = GF(prime)
    for trial in range(3):
        ideal = random_ideal(field, 4, rng)
        engine = HilbertEngine(ideal, prime=prime)
        # degree 6 in 4 vars has 84 monomials: crosses the 64-column panel
        for t in range(7):
            assert engine.hilbert_function(t) == hilbert_function(ideal, t), \
                (trial, t)


def test_engine_deterministic_and_order_insensitive():
    field = GF(32003)
    ideal = twisted_cubic_ideal(field)
    a = HilbertEngine(ideal, prime=32003)
    b = HilbertEngine(ideal, prime=32003)
    vals_fwd = [a.hilbert_function(t) for t in range(8)]
    vals_rev = [b.hilbert_function(t) for t in (7, 3, 5, 0, 1, 2, 4, 6)]
    assert vals_fwd == [vals_rev[i] for i in (3, 4, 5, 1, 6, 2, 7, 0)]


def test_engine_rejects_wrong_field():
    ideal = HomogeneousIdeal(GF(7), 2, [x(GF(7), 2, 0)])
    with pytest.raises(ValueError):
        HilbertEngine(ideal, prime=32003)


def reduced_ideal(ideal, p):
    """The GF(p) reduction of a QQ ideal, generator by generator."""
    return HomogeneousIdeal(GF(p), ideal.nvars,
                            [g.map_field(GF(p)) for g in ideal.generators])


@pytest.mark.parametrize("prime", [7, 32003])
def test_engine_over_qq_matches_engine_over_its_reduction(prime):
    """Rows read straight from QQ give the engine of the reduced ideal: the
    same ranks and the same RREF state at every degree, with a generator
    that vanishes mod p dropped."""
    rng = random.Random(prime + 1)
    for trial in range(3):
        gens = []
        for _ in range(4):
            monos = list(monomials_of_degree(4, rng.randrange(1, 4)))
            gens.append(MultiPoly(QQ, 4, {
                rng.choice(monos): Fraction(rng.randint(-9, 9),
                                            rng.randint(1, 6))
                for _ in range(5)}))
        gens.append(prime * x(QQ, 4, 1) ** 2)
        ideal = HomogeneousIdeal(QQ, 4, gens)
        over_qq = HilbertEngine(ideal, prime=prime)
        over_fp = HilbertEngine(reduced_ideal(ideal, prime), prime=prime)
        assert over_qq.degrees == over_fp.degrees
        for t in range(7):
            assert over_qq.ideal_rank(t) == over_fp.ideal_rank(t), (trial, t)
            if over_fp._state is None:
                assert over_qq._state is None
                continue
            (t_q, piv_q, basis_q), (t_f, piv_f, basis_f) = (
                over_qq._state, over_fp._state)
            assert (t_q, list(piv_q)) == (t_f, list(piv_f))
            assert np.array_equal(basis_q, basis_f)


def test_engine_rejects_a_denominator_the_prime_divides():
    ideal = HomogeneousIdeal(QQ, 2, [x(QQ, 2, 0) * Fraction(1, 7)
                                     + x(QQ, 2, 1)])
    with pytest.raises(ZeroDivisionError,
                       match="denominator not invertible mod 7"):
        HilbertEngine(ideal, prime=7)
    assert HilbertEngine(ideal, prime=11).hilbert_function(1) == 1


def test_macaulay_bound_drops_a_generator_that_vanishes_mod_p():
    """7 x0^5 vanishes mod 7, so the bound there reads the two linear forms
    alone: fewer than 3 of them, B = 0.  At 32003 it counts, B = 5."""
    x0, x1, _ = variables(QQ, 3)
    ideal = HomogeneousIdeal(QQ, 3, [7 * x0 ** 5, x0, x1])
    assert HilbertEngine(ideal, prime=7).degrees == [1, 1]
    assert HilbertEngine(ideal, prime=32003).degrees == [5, 1, 1]
    res = is_empty_projective(ideal, prime=7)
    assert (res.status, res.witness_degree, res.tail) == (NONEMPTY, 0, [1])
    res = is_empty_projective(ideal, prime=32003)
    assert (res.status, res.witness_degree, res.tail) == (NONEMPTY, 5,
                                                          [1] * 6)


def test_ladder_state_of_the_curve_matches_macaulay_rref(pinned_net):
    """The pinned curve C mod 32003 climbs from its quartics: at t = 4, 5
    and 6 the engine's pivots and basis are the RREF of the Macaulay
    matrix."""
    p = 32003
    ideal = c_ideal(pinned_net)
    engine = HilbertEngine(ideal, prime=p)
    reduced = reduced_ideal(ideal, p)
    for t in (4, 5, 6):
        engine.ideal_rank(t)
        state_t, piv, basis = engine._state
        want_piv, want_basis = modnum.rref_mod(
            np.array(macaulay_matrix(reduced, t).rows, dtype=np.int64), p)
        assert state_t == t
        assert list(piv) == list(want_piv)
        assert np.array_equal(basis, want_basis)


def test_graded_piece_monotonicity_and_growth():
    rng = random.Random(5)
    field = GF(32003)
    ideal = random_ideal(field, 3, rng)
    engine = HilbertEngine(ideal, prime=32003)
    prev_rank = None
    for t in range(7):
        rank = engine.ideal_rank(t)
        hf = engine.hilbert_function(t)
        if prev_rank is not None:
            assert rank >= prev_rank
            assert hf <= prev_hf * ideal.nvars
        prev_rank, prev_hf = rank, hf


def test_variable_multiples_stay_inside():
    # span(x_j * I_t) inside I_{t+1}: stacking the shifted rows adds no rank
    field = GF(101)
    ideal = twisted_cubic_ideal(field)
    t = 3
    from pfaffian_nets.matrices import ExactMatrix
    m_t1 = macaulay_matrix(ideal, t + 1)
    shifted_rows = []
    for g in ideal.generators:
        for j in range(4):
            prod = g * x(field, 4, j)
            cols = {e: i for i, e in enumerate(monomials_of_degree(4, t + 1))}
            # t + 1 = deg g + 2, so multiply by every degree-1 monomial too
            for m in monomials_of_degree(4, t + 1 - prod.homogeneous_degree()):
                row = [field.zero_value] * len(cols)
                for exps, c in prod.terms.items():
                    shifted = tuple(a + b for a, b in zip(exps, m))
                    row[cols[shifted]] = c
                shifted_rows.append(row)
    stacked = ExactMatrix(field, m_t1.rows + shifted_rows, ncols=m_t1.ncols)
    assert stacked.rank() == m_t1.rank()


# -- fitting -----------------------------------------------------------------

def test_interpolate_recovers_polynomial():
    coeffs = _interpolate([2, 3, 4], [4 * t * t - t + 1 for t in (2, 3, 4)])
    assert coeffs == (Fraction(1), Fraction(-1), Fraction(4))


def test_fit_line_in_six_vars():
    field = GF(32003)
    rng = random.Random(2)
    xs = variables(field, 6)
    gens = []
    for _ in range(4):
        form = MultiPoly.zero(field, 6)
        for xi in xs:
            form = form + xi.scale(rng.randrange(1, 32003))
        gens.append(form)
    data = fit_hilbert_polynomial(HomogeneousIdeal(field, 6, gens), 1)
    assert data.fitted == (Fraction(1), Fraction(1))  # t + 1
    assert data.scheme_degree == 1
    assert data.arithmetic_genus == 0


@pytest.mark.parametrize("field", [GF(32003), QQ])
def test_fit_twisted_cubic(field):
    data = fit_hilbert_polynomial(twisted_cubic_ideal(field), 1, cap=8)
    assert data.fitted == (Fraction(1), Fraction(3))  # 3t + 1
    assert data.scheme_degree == 3
    assert data.arithmetic_genus == 0
    assert data.stable_from == 0  # saturated ideal: on the polynomial from t=0
    assert data.values[2] == 7


def test_fit_single_quartic_binomial_identity():
    # chi of a hypersurface of degree 4 in P^5: C(t+5,5) - C(t+1,5)
    field = GF(32003)
    rng = random.Random(3)
    monos = list(monomials_of_degree(6, 4))
    q = MultiPoly(field, 6, {m: rng.randrange(1, 32003)
                             for m in rng.sample(monos, 12)})
    ideal = HomogeneousIdeal(field, 6, [q])
    engine = HilbertEngine(ideal, prime=32003)
    for t in range(4, 9):
        assert engine.hilbert_function(t) == comb(t + 5, 5) - comb(t + 1, 5)


def test_fit_falls_back_to_exact_ranks_when_primes_disagree(monkeypatch):
    # 32009 divides the second generator: mod 32003 HF is 1, 1, ... and
    # stabilizes at once, mod 32009 only x0 survives and HF(t) = t + 1 never
    # settles on a constant; the exact QQ ranks decide
    import pfaffian_nets.ideals as ideals
    exact = []

    def counted(ideal, t):
        exact.append(t)
        return hilbert_function(ideal, t)
    monkeypatch.setattr(ideals, "hilbert_function", counted)
    x0, x1, _ = variables(QQ, 3)
    ideal = HomogeneousIdeal(QQ, 3, [x0, x1.scale(32009)])
    data = fit_hilbert_polynomial(ideal, 0)
    assert data.fitted == (1,)
    assert data.values == [1, 1]
    assert exact == [0, 1]


def test_fit_failure_reports_cap():
    ideal = HomogeneousIdeal(GF(7), 3, [])
    with pytest.raises(ValueError, match="did not stabilize"):
        fit_hilbert_polynomial(ideal, 0, cap=6)


# -- projective emptiness ----------------------------------------------------

def test_empty_irrelevant():
    ideal = HomogeneousIdeal(GF(32003), 6, variables(GF(32003), 6))
    res = is_empty_projective(ideal)
    assert res.status == EMPTY and res.witness_degree == 1
    assert res.is_empty


def test_nonempty_zero_ideal_and_point():
    res = is_empty_projective(HomogeneousIdeal(GF(7), 3, []), cap=6)
    assert res.status == NONEMPTY and not res.is_empty
    point = HomogeneousIdeal(GF(7), 6, variables(GF(7), 6)[:5])
    res2 = is_empty_projective(point, cap=5)
    assert res2.status == NONEMPTY and res2.tail[-1] == 1


def test_inconclusive_surfaced_not_coerced():
    # (x0^3, x1^3) in 2 vars is empty with HF hitting 0 only at t = 5; a cap
    # of 4 sees 1, 2, 3, 2, 1 still strictly dropping
    field = GF(7)
    x0, x1 = variables(field, 2)
    ideal = HomogeneousIdeal(field, 2, [x0 ** 3, x1 ** 3])
    res = is_empty_projective(ideal, cap=4)
    assert res.status == INCONCLUSIVE
    assert res.tail == [1, 2, 3, 2, 1]
    with pytest.raises(ValueError):
        res.is_empty
    assert is_empty_projective(ideal, cap=6).status == EMPTY


def test_curve_judged_nonempty_at_cap():
    # 3 quadrics in 4 variables: fewer forms than variables, so the Macaulay
    # bound is 0 and HF(0) = 1 already certifies a nonempty zero set
    res = is_empty_projective(twisted_cubic_ideal(GF(7)), cap=5)
    assert res.status == NONEMPTY and res.witness_degree == 0
    assert res.tail == [1]


def test_irregular_net_certified_nonempty_at_the_bound():
    # 15 quadric sub-Pfaffians in 5 variables: bound 2*5 - 5 + 1 = 6, and
    # HF never reaches 0, so the climb stops at 6 instead of the cap
    net = net_from_fixture(json.loads(dead_fixture_text()))
    res = is_empty_projective(sub_pfaffian_ideal(net), cap=16)
    assert res.status == NONEMPTY and res.witness_degree == 6
    assert len(res.tail) == 7 and all(v > 0 for v in res.tail)


def test_constant_generator_empty_at_zero():
    field = GF(7)
    one = MultiPoly.constant(field, 3, 1)
    res = is_empty_projective(HomogeneousIdeal(field, 3, [one]))
    assert res.status == EMPTY and res.witness_degree == 0
    assert res.tail == [0]


@pytest.mark.parametrize("seed", range(20))
def test_stopping_at_the_bound_matches_a_longer_climb(seed):
    rng = random.Random(seed)
    field = GF(7)
    nvars = rng.choice((3, 4))
    gens = [_random_form(field, nvars, rng.randint(1, 3), rng)
            for _ in range(rng.randint(nvars - 1, nvars + 2))]
    if seed % 3 == 0:
        # a shared factor puts a hypersurface inside the zero set
        factor = _random_form(field, nvars, 1, rng)
        gens = [factor * g for g in gens[:-1]]
    ideal = HomogeneousIdeal(field, nvars, gens)
    degrees = sorted((g.homogeneous_degree() for g in ideal.generators),
                     reverse=True)
    bound = (sum(degrees[:nvars]) - nvars + 1
             if len(degrees) >= nvars else 0)
    engine = HilbertEngine(ideal, prime=7)
    climb = [engine.hilbert_function(t) for t in range(bound + 5)]
    expected = EMPTY if 0 in climb else NONEMPTY
    res = is_empty_projective(ideal, prime=7, cap=bound)
    assert res.status == expected
    assert res.tail == climb[:len(res.tail)]


def test_emptiness_stable_under_redundant_generators():
    field = GF(101)
    base = twisted_cubic_ideal(field)
    padded = HomogeneousIdeal(field, 4, base.generators +
                              [g * x(field, 4, j) for g in base.generators
                               for j in (0, 2)])
    a = is_empty_projective(base, cap=8)
    b = is_empty_projective(padded, cap=8)
    assert a.status == b.status == NONEMPTY


# -- jacobian and minors -----------------------------------------------------

def test_jacobian_smooth_conic():
    x0, x1, x2 = variables(QQ, 3)
    conic = x0 * x2 - x1 * x1
    jac = jacobian_ideal(HomogeneousIdeal(QQ, 3, [conic]))
    assert len(jac.generators) == 4
    assert is_empty_projective(jac).status == EMPTY


def test_jacobian_cone_singular_at_a_point():
    x0, x1, x2 = variables(QQ, 3)
    jac = jacobian_ideal(HomogeneousIdeal(QQ, 3, [x0 * x1]))
    res = is_empty_projective(jac)
    assert res.status == NONEMPTY
    engine = HilbertEngine(jac)
    assert [engine.hilbert_function(t) for t in (2, 3, 4)] == [1, 1, 1]


def test_jacobian_codim_required_for_multiple_generators():
    x0, x1, x2 = variables(QQ, 3)
    ideal = HomogeneousIdeal(QQ, 3, [x0 * x1, x0 * x2])
    with pytest.raises(ValueError):
        jacobian_ideal(ideal)
    jac = jacobian_ideal(ideal, codim=2)
    assert len(jac.generators) > 2


def test_minors_two_by_two():
    x0, x1, x2, x3 = variables(QQ, 4)
    ideal = minors_ideal([[x0, x1], [x2, x3]], 2)
    assert len(ideal.generators) == 1
    assert ideal.generators[0] == x0 * x3 - x1 * x2


def test_minors_size_one_gives_entries():
    x0, x1, x2, x3 = variables(QQ, 4)
    ideal = minors_ideal([[x0, x1], [x2, x3]], 1)
    assert len(ideal.generators) == 4


def test_minors_of_rank_deficient_grid():
    x0, x1 = variables(QQ, 2)[:2]
    # rank-1 grid: all 2x2 minors vanish identically
    grid = [[x0, x1], [x0, x1]]
    ideal = minors_ideal(grid, 2)
    assert ideal.generators == []


def _random_form(field, nvars, degree, rng):
    return MultiPoly(field, nvars,
                     {e: random_value(field, rng, 3)
                      for e in monomials_of_degree(nvars, degree)})


def _minor_test_grid(kind, field, pinned_net, rng):
    if kind == "fv":
        net = pinned_net if field == QQ else pinned_net.map_field(field)
        return FvMatrix(net).grid
    if kind == "quadrics":
        return [[_random_form(field, 4, 2, rng) for _ in range(4)]
                for _ in range(3)]
    # zero entries in a pattern, plus a whole zero row
    zero = MultiPoly.zero(field, 3)
    return [[zero if i == 2 or (i + j) % 3 == 0
             else _random_form(field, 3, 1, rng) for j in range(5)]
            for i in range(4)]


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2, 2)], ids=str)
@pytest.mark.parametrize("kind", ["fv", "quadrics", "zeros"])
def test_minor_polys_match_evaluated_determinants(kind, field, pinned_net):
    rng = random.Random(11)
    grid = _minor_test_grid(kind, field, pinned_net, rng)
    nrows, ncols = len(grid), len(grid[0])
    nvars = grid[0][0].nvars
    points = [[random_value(field, rng) for _ in range(nvars)]
              for _ in range(3)]
    values = [[[e.evaluate(pt) for e in row] for row in grid]
              for pt in points]
    for r in range(1, min(nrows, ncols) + 1):
        minors = minor_polys(grid, r)
        subsets = [(rows, cols) for rows in combinations(range(nrows), r)
                   for cols in combinations(range(ncols), r)]
        assert len(minors) == len(subsets)
        for minor, (rows, cols) in zip(minors, subsets):
            for pt, vals in zip(points, values):
                sub = ExactMatrix(field, [[vals[i][j] for j in cols]
                                          for i in rows])
                assert minor.evaluate(pt) == det(sub)
        assert minors_ideal(grid, r).generators == [
            m for m in minors if not m.is_zero()]


# -- the sparse reference: the memoized first-row Laplace expansion on
# MultiPoly terms that the dense engine replaced, one sub-minor per
# (rows, cols) reached, skipping zero entries and zero sub-minors

def sparse_minor_polys(entries, r):
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
            for rows in combinations(range(len(entries)), r)
            for cols in combinations(range(len(entries[0])), r)]


def _reference_grid(kind, pinned_net):
    rng = random.Random(5)
    if kind.startswith("fv-"):
        field = {"QQ": QQ, "GF(7)": GF(7), "GF(4)": GF(2, 2),
                 "GF(81)": GF(3, 4)}[kind[3:]]
        net = pinned_net if field == QQ else pinned_net.map_field(field)
        return FvMatrix(net).grid
    if kind == "fractions":
        # one denominator set per row, so each row has its own lcm
        dens = [[1], [2, 3], [5, 7], [4, 9]]
        return [[MultiPoly(QQ, 3, {e: Fraction(rng.randint(-5, 5),
                                                rng.choice(row_dens))
                                   for e in monomials_of_degree(3, 1)})
                 for _ in range(4)] for row_dens in dens]
    if kind == "jacobian":
        # the grid jacobian_ideal(..., codim=2) takes minors of: rows of
        # degrees 1 and 2
        x0, x1, x2, x3 = variables(QQ, 4)
        quadric = x0 * x1 - x2 * x3 + x0 * x0
        cubic = x0 * x1 * x2 + x3 ** 3 - x1 * x1 * x2
        return [[g.partial(i) for i in range(4)] for g in (quadric, cubic)]
    return _minor_test_grid("zeros", QQ, pinned_net, rng)


def _exact_terms(poly):
    return [(e, type(c), c) for e, c in poly.sorted_terms()]


@pytest.mark.parametrize("kind", ["fv-QQ", "fv-GF(7)", "fv-GF(4)",
                                  "fv-GF(81)", "fractions", "jacobian",
                                  "zeros"])
def test_minor_polys_equal_the_sparse_reference(kind, pinned_net):
    grid = _reference_grid(kind, pinned_net)
    for r in range(1, min(len(grid), len(grid[0])) + 1):
        dense = minor_polys(grid, r)
        sparse = sparse_minor_polys(grid, r)
        assert len(dense) == len(sparse)
        for got, want in zip(dense, sparse):
            assert (got.field, got.nvars) == (want.field, want.nvars)
            assert _exact_terms(got) == _exact_terms(want)


def test_minor_polys_of_the_pinned_grid_multiply_no_polynomials(
        pinned_net, monkeypatch):
    grid = FvMatrix(pinned_net).grid
    calls = []
    mul = MultiPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    assert len(minor_polys(grid, 4)) == 75
    assert len(minor_polys(grid, 5)) == 6
    assert calls == []
