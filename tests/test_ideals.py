import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pfaffian_nets import ideals, modnum
from pfaffian_nets.cli import HILBERT_CAP, net_from_fixture
from pfaffian_nets.correspondence import c_ideal, sub_pfaffian_ideal
from pfaffian_nets.fields import QQ, GF
from pfaffian_nets.ideals import (EMPTY, INCONCLUSIVE, NONEMPTY,
                                  HilbertEngine, HomogeneousIdeal,
                                  ambient_dimension, fit_hilbert_polynomial,
                                  hilbert_function, is_empty_projective,
                                  jacobian_ideal, macaulay_matrix,
                                  minors_ideal, _hf_until_stable,
                                  _interpolate)
from pfaffian_nets.matrices import ExactMatrix
from pfaffian_nets.multipoly import (MultiPoly, minor_level, minor_polys,
                                     monomial_positions, monomial_table)

from conftest import random_value
from scalar_references import (det, fit_window_reference, homogeneous_degree,
                               ideal_of, ideal_polys, laplace_minors,
                               monomials_of_degree, partial, stack_grid)
from test_cli import dead_fixture_text


def x(field, nvars, i):
    return MultiPoly.variable(field, nvars, i)


def variables(field, nvars):
    return [x(field, nvars, i) for i in range(nvars)]


def index_stack(field, nvars, index):
    """The stack of the matrix whose entry (i, k) is the variable
    x_{index[i][k]}."""
    return [[[field.value_of(int(e == l)) for e in row] for row in index]
            for l in range(nvars)]


def twisted_cubic_ideal(field):
    """2x2 minors of [[x0,x1,x2],[x1,x2,x3]]: the standard degree-3 curve."""
    return minors_ideal(field, index_stack(field, 4, [[0, 1, 2], [1, 2, 3]]),
                        2)


def random_ideal(field, nvars, rng, ngens=3):
    gens = []
    for _ in range(ngens):
        d = rng.randrange(1, 4)
        monos = list(monomials_of_degree(nvars, d))
        terms = {rng.choice(monos): random_value(field, rng) for _ in range(4)}
        g = MultiPoly(field, nvars, terms)
        if not g.is_zero():
            gens.append(g)
    return ideal_of(field, nvars, gens)


# -- macaulay matrices and plain hilbert values ------------------------------

def test_macaulay_principal_ideal():
    ideal = ideal_of(QQ, 2, [x(QQ, 2, 0)])
    m = macaulay_matrix(ideal, 2)
    assert (m.nrows, m.ncols) == (2, 3)
    assert m.rank() == 2


def test_macaulay_zero_ideal():
    ideal = ideal_of(QQ, 3, [])
    assert macaulay_matrix(ideal, 2).nrows == 0
    assert hilbert_function(ideal, 3) == ambient_dimension(3, 3) == 10


def test_hilbert_zero_ideal_six_vars():
    ideal = ideal_of(GF(7), 6, [])
    assert hilbert_function(ideal, 3) == comb(8, 5) == 56


def test_hilbert_irrelevant_ideal():
    ideal = ideal_of(GF(7), 6, variables(GF(7), 6))
    for t in (1, 2, 5):
        assert hilbert_function(ideal, t) == 0


def test_zero_generators_dropped():
    """Zero rows go, and a row and its scale are divided by their gcd."""
    ideal = HomogeneousIdeal(QQ, 2, {1: (np.array([[0, 0], [4, 6]]),
                                         [1, 10]), 2: (np.zeros((2, 3)),
                                                       [1, 1])})
    rows, scales = ideal.forms[1]
    assert rows.tolist() == [[2, 3]] and scales == [5]
    assert ideal.degrees == [1]
    assert ideal_polys(ideal) == [x(QQ, 2, 0) * Fraction(2, 5)
                                  + x(QQ, 2, 1) * Fraction(3, 5)]


@pytest.mark.parametrize("field", [GF(3, 2), GF(2, 2)], ids=str)
def test_an_extension_field_ideal_raises(field):
    with pytest.raises(ValueError, match="needs QQ or prime-field input"):
        HomogeneousIdeal(field, 2, {})


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
    ideal = ideal_of(GF(7), 2, [x(GF(7), 2, 0)])
    with pytest.raises(ValueError):
        HilbertEngine(ideal, prime=32003)


def reduced_ideal(ideal, p):
    """The GF(p) reduction of a QQ ideal, generator by generator."""
    return ideal_of(GF(p), ideal.nvars,
                    [g.map_field(GF(p)) for g in ideal_polys(ideal)])


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
        ideal = ideal_of(QQ, 4, gens)
        over_qq = HilbertEngine(ideal, prime=prime)
        over_fp = HilbertEngine(reduced_ideal(ideal, prime), prime=prime)
        assert over_qq.degrees == over_fp.degrees
        for t in range(7):
            assert over_qq.ideal_rank(t) == over_fp.ideal_rank(t), (trial, t)
            if over_fp._state is None:
                assert over_qq._state is None
                continue
            (t_q, piv_q, basis_q, new_q), (t_f, piv_f, basis_f, new_f) = (
                over_qq._state, over_fp._state)
            assert (t_q, list(piv_q)) == (t_f, list(piv_f))
            assert np.array_equal(basis_q, basis_f)
            assert np.array_equal(new_q, new_f)


def test_engine_rejects_a_denominator_the_prime_divides():
    ideal = ideal_of(QQ, 2, [x(QQ, 2, 0) * Fraction(1, 7) + x(QQ, 2, 1)])
    with pytest.raises(ZeroDivisionError,
                       match="denominator not invertible mod 7"):
        HilbertEngine(ideal, prime=7)
    assert HilbertEngine(ideal, prime=11).hilbert_function(1) == 1


def test_macaulay_bound_drops_a_generator_that_vanishes_mod_p():
    """7 x0^5 vanishes mod 7, so the bound there reads the two linear forms
    alone: fewer than 3 of them, B = 0.  At 32003 it counts, B = 5."""
    x0, x1, _ = variables(QQ, 3)
    ideal = ideal_of(QQ, 3, [7 * x0 ** 5, x0, x1])
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
        state_t, piv, basis, _ = engine._state
        want_piv, want_basis = modnum.rref_mod(
            np.array(macaulay_matrix(reduced, t).rows, dtype=np.int64), p)
        assert state_t == t
        assert list(piv) == list(want_piv)
        assert np.array_equal(basis, want_basis)


def _staggered_ideal(field, p, rng, t0=2, nvars=4):
    """Sparse generators entering at t0, t0 + 1 and t0 + 2; over QQ with
    denominators prime to p, plus p * x0 x1^t0, which vanishes mod p."""
    def value():
        if field.kind == "QQ":
            return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))
        return rng.randrange(1, p)

    gens = []
    for d in (t0, t0, t0 + 1, t0 + 2):
        monos = list(monomials_of_degree(nvars, d))
        gens.append(MultiPoly(field, nvars, {rng.choice(monos): value()
                                             for _ in range(4)}))
    if field.kind == "QQ":
        gens.append(p * x(QQ, nvars, 0) * x(QQ, nvars, 1) ** t0)
    return ideal_of(field, nvars, gens)


@pytest.mark.parametrize("prime", [7, 32003])
@pytest.mark.parametrize("kind", ["QQ", "GF(p)"])
def test_ladder_state_matches_macaulay_rref_at_every_degree(kind, prime):
    """At every degree the engine's rank, pivots and basis are the RREF of
    the Macaulay matrix, and its rows of class > 0 are those whose pivots
    x0 * I_{t-1} does not have."""
    rng = random.Random(prime + len(kind))
    field = QQ if kind == "QQ" else GF(prime)
    for trial in range(3):
        ideal = _staggered_ideal(field, prime, rng)
        reduced = reduced_ideal(ideal, prime) if kind == "QQ" else ideal
        engine = HilbertEngine(ideal, prime=prime)
        prev_piv = None
        for t in range(8):
            rank = engine.ideal_rank(t)
            want_piv, want_basis = modnum.rref_mod(
                np.array(macaulay_matrix(reduced, t).rows,
                         dtype=np.int64).reshape(-1, comb(t + 3, 3)), prime)
            assert rank == len(want_piv), (trial, t)
            if t < 2:
                assert engine._state is None
                continue
            state_t, piv, basis, cls = engine._state
            assert state_t == t
            assert list(piv) == list(want_piv), (trial, t)
            assert np.array_equal(basis, want_basis), (trial, t)
            grown = [c not in prev_piv for c in piv] if prev_piv is not None \
                else [True] * len(piv)
            assert (cls > 0).tolist() == grown, (trial, t)
            prev_piv = set(piv)


@pytest.mark.parametrize("prime", [7, 32003])
@pytest.mark.parametrize("kind", ["QQ", "GF(p)"])
def test_rows_of_class_at_least_j_span_the_ideal_modulo_x_below_j(kind,
                                                                  prime):
    """The ladder's invariant, against Macaulay matrices: at every degree t
    and for j = 0, ..., n, the rows of class >= j stacked with the rows of
    x_0 I_{t-1}, ..., x_{j-1} I_{t-1} have rank dim I_t."""
    rng = random.Random(3 * prime + len(kind))
    field = QQ if kind == "QQ" else GF(prime)
    for trial in range(3):
        ideal = _staggered_ideal(field, prime, rng)
        reduced = reduced_ideal(ideal, prime) if kind == "QQ" else ideal
        engine = HilbertEngine(ideal, prime=prime)
        n = ideal.nvars
        for t in range(2, 8):
            rank = engine.ideal_rank(t)
            _, _, basis, cls = engine._state
            assert cls.min() >= 0 and cls.max() <= n
            monos = monomial_table(n, t - 1)
            below = np.array(macaulay_matrix(reduced, t - 1).rows,
                             dtype=np.int64).reshape(-1, len(monos))
            # shift[i][k]: the position of x_i times monomial k of degree t-1
            shift = monomial_positions(
                n, t, monos + np.eye(n, dtype=np.int64)[:, None])
            for j in range(n + 1):
                lifted = np.zeros((j * len(below), basis.shape[1]),
                                  dtype=np.int64)
                for i in range(j):
                    lifted[i * len(below):(i + 1) * len(below),
                           shift[i]] = below
                stacked = np.concatenate([basis[cls >= j], lifted])
                got = len(modnum.rref_mod(stacked, prime)[0])
                assert got == rank, (trial, t, j)


def test_each_step_absorbs_only_the_new_rows(pinned_net, monkeypatch):
    """A step to t + 1 row-reduces, for each j >= 1, x_j times the rows of
    class >= j, and |G_{t+1}| rows, in blocks of at most CHUNK: on random
    staggered ideals, with a small CHUNK, and on the pinned curve, where
    the step 5 -> 6 takes 186 rows for its 185 new pivots, not the
    5 * 101 of x_j N_t, N_t the 101 rows of class > 0, nor the 5 * 152 of
    the whole basis."""
    absorbed = []
    rref = modnum.rref_mod

    def counted(matrix, p):
        absorbed.append(matrix.shape[0])
        return rref(matrix, p)

    monkeypatch.setattr(modnum, "rref_mod", counted)

    def climb(engine, top):
        """Step to `top`, checking each step; the (|basis|, |N_t|, rows
        absorbed) met."""
        sizes = {}
        engine.ideal_rank(engine._t0)
        while engine._state[0] < top:
            t, _, basis, cls = engine._state
            fresh = engine._gens_by_degree.get(t + 1)
            fresh = 0 if fresh is None else len(fresh)
            del absorbed[:]
            engine._step()
            want = sum(int((cls >= j).sum()) for j in range(1, engine.n))
            assert sum(absorbed) == want + fresh
            assert max(absorbed, default=0) <= max(engine.CHUNK, fresh)
            sizes[t] = (len(basis), int((cls > 0).sum()), sum(absorbed))
        return sizes

    rng = random.Random(4)
    for _ in range(3):
        engine = HilbertEngine(_staggered_ideal(QQ, 7, rng), prime=7)
        engine.CHUNK = 5
        climb(engine, 7)
    sizes = climb(HilbertEngine(c_ideal(pinned_net), prime=32003), 6)
    assert sizes[5] == (152, 101, 186)


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
    for g in ideal_polys(ideal):
        for j in range(4):
            prod = g * x(field, 4, j)
            cols = {e: i for i, e in enumerate(monomials_of_degree(4, t + 1))}
            # t + 1 = deg g + 2, so multiply by every degree-1 monomial too
            for m in monomials_of_degree(4, t + 1 - homogeneous_degree(prod)):
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


@st.composite
def hf_sequences(draw):
    """(d, cap, values): values[t] for t = 0..cap, either noise from a
    small range (so that some windows fit by chance) or a noisy prefix
    followed by a polynomial tail of degree up to d + 1."""
    d = draw(st.integers(0, 3))
    cap = draw(st.integers(0, 16))
    small = st.integers(-3, 3)
    if draw(st.booleans()):
        return d, cap, draw(st.lists(small, min_size=cap + 1,
                                     max_size=cap + 1))
    prefix = draw(st.lists(small, max_size=cap + 1))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=d + 2))
    tail = [sum(c * t ** e for e, c in enumerate(coeffs))
            for t in range(len(prefix), cap + 1)]
    return d, cap, prefix + tail


@given(hf_sequences())
def test_window_test_matches_the_interpolating_search(case):
    """One finite difference per new value finds the window that
    interpolating every window on each value finds, or neither does."""
    d, cap, values = case
    assert _hf_until_stable(values.__getitem__, d, cap) \
        == fit_window_reference(values.__getitem__, d, cap)


def test_pinned_curve_fit_interpolates_once(pinned_net, monkeypatch):
    """The hilbert-C fit of the pinned net, mod both primes, interpolates
    only the polynomial it reports."""
    calls = []

    def counted(ts, vals, _real=ideals._interpolate):
        calls.append(ts)
        return _real(ts, vals)
    monkeypatch.setattr(ideals, "_interpolate", counted)
    data = fit_hilbert_polynomial(c_ideal(pinned_net), expected_dim=1,
                                  cap=HILBERT_CAP, primes=(32003, 32009))
    assert data.fitted == (Fraction(-25), Fraction(25))
    assert calls == [[data.stable_from, data.stable_from + 1]]


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
    data = fit_hilbert_polynomial(ideal_of(field, 6, gens), 1)
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
    ideal = ideal_of(field, 6, [q])
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
    ideal = ideal_of(QQ, 3, [x0, x1.scale(32009)])
    data = fit_hilbert_polynomial(ideal, 0)
    assert data.fitted == (1,)
    assert data.values == [1, 1]
    assert exact == [0, 1]


def test_fit_falls_back_to_exact_ranks_on_integer_rows(monkeypatch):
    """The same disagreement on the integer rows of a minors ideal: the
    exact fallback reads its Macaulay matrices from the rows."""
    import pfaffian_nets.ideals as ideals
    exact = []

    def counted(ideal, t):
        exact.append(t)
        return hilbert_function(ideal, t)
    monkeypatch.setattr(ideals, "hilbert_function", counted)
    x0, x1, _ = variables(QQ, 3)
    ideal = minors_ideal(QQ, [[[1, 0]], [[0, 32009]], [[0, 0]]], 1)
    assert ideal.degrees == [1]
    data = fit_hilbert_polynomial(ideal, 0)
    assert data.fitted == (1,)
    assert data.values == [1, 1]
    assert exact == [0, 1]
    assert ideal_polys(ideal) == [x0, x1.scale(32009)]


def test_repr_of_a_row_ideal_builds_no_generators(pinned_net):
    """repr counts the rows of an ideal."""
    assert repr(c_ideal(pinned_net)) \
        == "HomogeneousIdeal(QQ, 75 gens, degrees [4])"
    assert repr(HomogeneousIdeal(QQ, 75, {})) \
        == "HomogeneousIdeal(QQ, 0 gens, degrees [])"


def _engine_or_error(ideal, prime):
    try:
        return HilbertEngine(ideal, prime=prime)
    except ZeroDivisionError as err:
        return str(err)


@pytest.mark.parametrize("prime", [2, 3, 5, 7, 11])
def test_integer_rows_reduce_like_their_coefficients(pinned_net, prime):
    """Minors of a grid whose rows carry denominators, read one at a time
    from the integer level and from the MultiPoly minor: the same
    ZeroDivisionError exactly when p divides a reduced denominator, else
    the same rows; and the whole minors ideal climbs like its MultiPolys."""
    stack = _reference_stack("fractions", pinned_net)
    for r in (2, 3):
        _, level, _, scales = minor_level(QQ, stack, r)
        for i, minor in enumerate(minor_polys(QQ, stack, r)):
            got = _engine_or_error(HomogeneousIdeal(
                QQ, 3, {r: (level[i:i + 1], scales[i:i + 1])}), prime)
            want = _engine_or_error(ideal_of(QQ, 3, [minor]), prime)
            if isinstance(want, str):
                assert got == want == \
                    "denominator not invertible mod %d" % prime
            else:
                assert got.degrees == want.degrees
                assert np.array_equal(got._gens_by_degree.get(r, []),
                                      want._gens_by_degree.get(r, []))
        a, b = (_engine_or_error(ideal, prime) for ideal in (
            minors_ideal(QQ, stack, r),
            ideal_of(QQ, 3, minor_polys(QQ, stack, r))))
        if isinstance(b, str):
            assert a == b
            continue
        assert a.degrees == b.degrees
        for t in range(r, r + 4):
            assert a.ideal_rank(t) == b.ideal_rank(t)
            assert all(np.array_equal(u, v)
                       for u, v in zip(a._state, b._state))


def test_fit_failure_reports_cap():
    ideal = ideal_of(GF(7), 3, [])
    with pytest.raises(ValueError, match="did not stabilize"):
        fit_hilbert_polynomial(ideal, 0, cap=6)


# -- projective emptiness ----------------------------------------------------

def test_empty_irrelevant():
    ideal = ideal_of(GF(32003), 6, variables(GF(32003), 6))
    res = is_empty_projective(ideal)
    assert res.status == EMPTY and res.witness_degree == 1
    assert res.is_empty


def test_nonempty_zero_ideal_and_point():
    res = is_empty_projective(ideal_of(GF(7), 3, []), cap=6)
    assert res.status == NONEMPTY and not res.is_empty
    point = ideal_of(GF(7), 6, variables(GF(7), 6)[:5])
    res2 = is_empty_projective(point, cap=5)
    assert res2.status == NONEMPTY and res2.tail[-1] == 1


def test_inconclusive_surfaced_not_coerced():
    # (x0^3, x1^3) in 2 vars is empty with HF hitting 0 only at t = 5; a cap
    # of 4 sees 1, 2, 3, 2, 1 still strictly dropping
    field = GF(7)
    x0, x1 = variables(field, 2)
    ideal = ideal_of(field, 2, [x0 ** 3, x1 ** 3])
    res = is_empty_projective(ideal, cap=4)
    assert res.status == INCONCLUSIVE
    assert res.tail == [1, 2, 3, 2, 1]
    with pytest.raises(ValueError):
        res.is_empty
    assert is_empty_projective(ideal, cap=6).status == EMPTY
    # HF rising at a cap below the bound B = 5 is no evidence either
    res = is_empty_projective(ideal, cap=2)
    assert (res.status, res.tail) == (INCONCLUSIVE, [1, 2, 3])


def test_curve_judged_nonempty_at_cap():
    # 3 quadrics in 4 variables: fewer forms than variables, so the Macaulay
    # bound is 0 and HF(0) = 1 already certifies a nonempty zero set
    res = is_empty_projective(twisted_cubic_ideal(GF(7)), cap=5)
    assert res.status == NONEMPTY and res.witness_degree == 0
    assert res.tail == [1]


def test_irregular_net_certified_nonempty_at_the_bound():
    # 5 nonzero quadric sub-Pfaffians in 5 variables: the Macaulay bound is
    # 2*5 - 5 + 1 = 6, but HF 1, 5, 10, 15 already exceeds a complete
    # intersection's 1, 5, 10, 10 at t = 3, so the climb stops there
    net = net_from_fixture(json.loads(dead_fixture_text()))
    for prime in (ideals.DEFAULT_PRIME, ideals.SECOND_PRIME):
        res = is_empty_projective(sub_pfaffian_ideal(net), prime=prime,
                                  cap=16)
        assert res.status == NONEMPTY and res.witness_degree == 3
        assert res.tail == [1, 5, 10, 15]


def test_constant_generator_empty_at_zero():
    field = GF(7)
    one = MultiPoly.constant(field, 3, 1)
    res = is_empty_projective(ideal_of(field, 3, [one]))
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
    ideal = ideal_of(field, nvars, gens)
    degrees = sorted((homogeneous_degree(g) for g in ideal_polys(ideal)),
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
    gens = ideal_polys(base)
    padded = ideal_of(field, 4, gens + [g * x(field, 4, j) for g in gens
                                        for j in (0, 2)])
    a = is_empty_projective(base, cap=8)
    assert a.status == NONEMPTY
    # the padding raises the Macaulay bound to 3 * 4 - 4 + 1 = 9, but HF
    # 3t + 1 exceeds the cubic complete intersection's 1, 4, 10, 16, 19,
    # 16, 10 first at t = 6 (19 > 10); a cap of 5 reaches no certificate
    res = is_empty_projective(padded, cap=5)
    assert (res.status, res.tail) == (INCONCLUSIVE, [1, 4, 7, 10, 13, 16])
    for cap in (8, 9):
        b = is_empty_projective(padded, cap=cap)
        assert (b.status, b.witness_degree) == (NONEMPTY, 6)
        assert b.tail[-1] == 19


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_complete_intersection_hf_is_the_power_ideal(nvars, degree):
    # x_0^d, ..., x_{n-1}^d is a complete intersection: HF equals HF_CI in
    # every degree, and reaches 0 at n(d - 1) + 1, so equality never fires
    field = GF(101)
    ideal = ideal_of(field, nvars, [g ** degree
                                    for g in variables(field, nvars)])
    engine = HilbertEngine(ideal, prime=101)
    top = nvars * (degree - 1) + 1
    assert [engine.hilbert_function(t) for t in range(top + 3)] == [
        ideals.complete_intersection_hf(nvars, degree, t)
        for t in range(top + 3)]
    res = is_empty_projective(ideal, prime=101)
    assert (res.status, res.witness_degree) == (EMPTY, top)


def test_complete_intersection_certificate_is_sound():
    # 150 seeded ideals over GF(7), GF(101) and GF(32003), n = 2..4, n to
    # n + 2 forms of degrees 1 and 2: generic (mostly empty), vanishing at
    # e_0, or with a common linear factor.  Wherever HF exceeds HF_CI the
    # climb to the Macaulay bound says NONEMPTY, and the verdict with the
    # early exit is the climb's
    fired = early = empty = 0
    for seed in range(150):
        rng = random.Random(seed)
        field = GF((7, 101, 32003)[seed % 3])
        nvars = rng.randint(2, 4)
        mode = seed // 3 % 3
        degrees = [rng.choice((1, 2, 2)) if seed % 2 else 2
                   for _ in range(rng.randint(nvars, nvars + 2))]
        if mode == 2:
            factor = _random_form(field, nvars, 1, rng)
            gens = [factor * _random_form(field, nvars, 1, rng)
                    for _ in degrees]
        else:
            gens = [_random_form(field, nvars, d, rng,
                                 avoid=0 if mode == 1 else None)
                    for d in degrees]
        ideal = ideal_of(field, nvars, gens)
        engine = HilbertEngine(ideal, prime=field.p)
        kept = engine.degrees
        bound = sum(kept[:nvars]) - nvars + 1
        climb = [engine.hilbert_function(t) for t in range(bound + 1)]
        expected = EMPTY if 0 in climb else NONEMPTY
        over = [t for t, v in enumerate(climb)
                if v > ideals.complete_intersection_hf(nvars, kept[0], t)]
        if over:
            assert expected == NONEMPTY, seed
            fired += 1
            early += over[0] < bound
        empty += expected == EMPTY
        res = is_empty_projective(ideal, prime=field.p, cap=bound)
        assert res.status == expected, seed
        assert res.tail == climb[:len(res.tail)]
        assert res.witness_degree == min(over + [bound]) or expected == EMPTY
    # the sweep exercises the certificate, below the bound too, and EMPTY
    assert fired >= 50 and early >= 20 and empty >= 30


# -- jacobian and minors -----------------------------------------------------

def test_jacobian_smooth_conic():
    x0, x1, x2 = variables(QQ, 3)
    conic = x0 * x2 - x1 * x1
    jac = jacobian_ideal(ideal_of(QQ, 3, [conic]))
    assert len(ideal_polys(jac)) == 4
    assert is_empty_projective(jac).status == EMPTY


def test_jacobian_cone_singular_at_a_point():
    x0, x1, x2 = variables(QQ, 3)
    jac = jacobian_ideal(ideal_of(QQ, 3, [x0 * x1]))
    res = is_empty_projective(jac)
    assert res.status == NONEMPTY
    engine = HilbertEngine(jac)
    assert [engine.hilbert_function(t) for t in (2, 3, 4)] == [1, 1, 1]


def test_jacobian_codim_required_for_multiple_generators():
    # there is no codimension to size the Jacobian minors to: only a
    # hypersurface has a Jacobian ideal
    x0, x1, x2 = variables(QQ, 3)
    ideal = ideal_of(QQ, 3, [x0 * x1, x0 * x2])
    with pytest.raises(ValueError, match="hypersurface"):
        jacobian_ideal(ideal)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_jacobian_equals_the_multipoly_partials(field):
    """On random cubics in 4 variables, over QQ with denominators and over
    GF(7), the row Jacobian holds the cubic and its nonzero partials."""
    rng = random.Random(8)
    for _ in range(5):
        cubic = MultiPoly(field, 4, {
            e: random_value(field, rng, 9)
            for e in rng.sample(list(monomials_of_degree(4, 3)), 8)})
        want = [cubic] + [partial(cubic, i) for i in range(4)]
        assert ideal_polys(jacobian_ideal(ideal_of(field, 4, [cubic]))) \
            == [g for g in want if not g.is_zero()]


def test_jacobian_drops_partials_that_vanish_mod_p():
    # every partial of x0^3 + x1^3 + x2^3 is 3 x_i^2, zero over GF(3)
    x0, x1, x2 = variables(GF(3), 3)
    cubic = x0 ** 3 + x1 ** 3 + x2 ** 3
    jac = jacobian_ideal(ideal_of(GF(3), 3, [cubic]))
    assert jac.degrees == [3]
    assert ideal_polys(jac) == [cubic]


def test_jacobian_partials_of_large_coefficients_stay_exact():
    # 3 * (2^62 - 1) overflows int64: the partial is taken on Python ints
    big = (1 << 62) - 1
    ideal = HomogeneousIdeal(QQ, 2, {3: (np.array([[big, 0, 0, 1]]), [1])})
    rows, _ = jacobian_ideal(ideal).forms[2]
    assert rows.tolist() == [[3 * big, 0, 0], [0, 0, 3]]


@pytest.mark.parametrize("r", [0, -1])
def test_minor_size_must_be_positive(r):
    stack = index_stack(QQ, 2, [[0, 1], [1, 0]])
    for build in (minor_level, minors_ideal, minor_polys):
        with pytest.raises(ValueError, match="minor size must be positive"):
            build(QQ, stack, r)


def test_minors_two_by_two():
    x0, x1, x2, x3 = variables(QQ, 4)
    ideal = minors_ideal(QQ, index_stack(QQ, 4, [[0, 1], [2, 3]]), 2)
    assert len(ideal_polys(ideal)) == 1
    assert ideal_polys(ideal)[0] == x0 * x3 - x1 * x2


def test_minors_size_one_gives_entries():
    ideal = minors_ideal(QQ, index_stack(QQ, 4, [[0, 1], [2, 3]]), 1)
    assert len(ideal_polys(ideal)) == 4


def test_minors_of_rank_deficient_grid():
    # rank-1 grid [[x0, x1], [x0, x1]]: all 2x2 minors vanish identically
    ideal = minors_ideal(QQ, index_stack(QQ, 2, [[0, 1], [0, 1]]), 2)
    assert ideal_polys(ideal) == []


def _random_form(field, nvars, degree, rng, avoid=None):
    """A random form; with `avoid`, its x_avoid^degree term is dropped, so
    it vanishes at that coordinate point."""
    terms = {e: random_value(field, rng, 3)
             for e in monomials_of_degree(nvars, degree)}
    if avoid is not None:
        terms.pop(tuple(degree * (i == avoid) for i in range(nvars)), None)
    return MultiPoly(field, nvars, terms)


def _minor_test_stack(kind, field, pinned_net, rng):
    if kind == "fv":
        return pinned_net.over(field).stack("v")
    # zero entries in a pattern, plus a whole zero row
    return [[[field.zero_value if i == 2 or (i + j) % 3 == 0
              else random_value(field, rng, 3) for j in range(5)]
             for i in range(4)] for _ in range(3)]


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2, 2)], ids=str)
@pytest.mark.parametrize("kind", ["fv", "zeros"])
def test_minor_polys_match_evaluated_determinants(kind, field, pinned_net):
    rng = random.Random(11)
    stack = _minor_test_stack(kind, field, pinned_net, rng)
    grid = stack_grid(field, stack)
    nrows, ncols = len(grid), len(grid[0])
    points = [[random_value(field, rng) for _ in range(len(stack))]
              for _ in range(3)]
    values = [[[e.evaluate(pt) for e in row] for row in grid]
              for pt in points]
    for r in range(1, min(nrows, ncols) + 1):
        minors = minor_polys(field, stack, r)
        subsets = [(rows, cols) for rows in combinations(range(nrows), r)
                   for cols in combinations(range(ncols), r)]
        assert len(minors) == len(subsets)
        for minor, (rows, cols) in zip(minors, subsets):
            for pt, vals in zip(points, values):
                sub = ExactMatrix(field, [[vals[i][j] for j in cols]
                                          for i in rows])
                assert minor.evaluate(pt) == det(sub)
        if field.kind == "GF(p^k)":
            with pytest.raises(ValueError, match="prime-field input"):
                minors_ideal(field, stack, r)
        else:
            assert ideal_polys(minors_ideal(field, stack, r)) == [
                m for m in minors if not m.is_zero()]


REFERENCE_FIELDS = {"QQ": QQ, "GF(7)": GF(7), "GF(101)": GF(101),
                    "GF(4)": GF(2, 2), "GF(81)": GF(3, 4)}


def _reference_stack(kind, pinned_net):
    rng = random.Random(5)
    if kind.startswith("fv-"):
        return pinned_net.over(REFERENCE_FIELDS[kind[3:]]).stack("v")
    if kind == "fractions":
        # one denominator set per row, so each row has its own lcm
        dens = [[1], [2, 3], [5, 7], [4, 9]]
        return [[[Fraction(rng.randint(-5, 5), rng.choice(row_dens))
                  for _ in range(4)] for row_dens in dens]
                for _ in range(3)]
    return _minor_test_stack("zeros", QQ, pinned_net, rng)


def _exact_terms(poly):
    return [(e, type(c), c) for e, c in poly.sorted_terms()]


@pytest.mark.parametrize("kind", ["fv-QQ", "fv-GF(7)", "fv-GF(101)",
                                  "fv-GF(4)", "fv-GF(81)", "fractions",
                                  "zeros"])
def test_minor_polys_equal_the_sparse_reference(kind, pinned_net):
    """Each level equals the sparse Laplace reference; a finite field's
    level is int64 codes, and GF(81), which has no code arithmetic, is
    refused by name."""
    stack = _reference_stack(kind, pinned_net)
    field = REFERENCE_FIELDS[kind[3:]] if kind.startswith("fv-") else QQ
    sizes = range(1, min(len(stack[0]), len(stack[0][0])) + 1)
    if kind == "fv-GF(81)":
        for r in sizes:
            with pytest.raises(ValueError, match=r"^no code arithmetic "
                                                 r"over GF\(3\^4\)$"):
                minor_level(field, stack, r)
        return
    grid = stack_grid(field, stack)
    for r in sizes:
        if field.kind != "QQ":
            assert minor_level(field, stack, r)[1].dtype == np.int64
        dense = minor_polys(field, stack, r)
        sparse = laplace_minors(grid, r)
        assert len(dense) == len(sparse)
        for got, want in zip(dense, sparse):
            assert (got.field, got.nvars) == (want.field, want.nvars)
            assert _exact_terms(got) == _exact_terms(want)


def test_minor_polys_of_the_pinned_grid_multiply_no_polynomials(
        pinned_net, monkeypatch):
    stack = pinned_net.stack("v")
    calls = []
    mul = MultiPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    assert len(minor_polys(QQ, stack, 4)) == 75
    assert len(minor_polys(QQ, stack, 5)) == 6
    assert calls == []
