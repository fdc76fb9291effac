import random
from fractions import Fraction

import numpy as np
import pytest

from pfaffian_nets.fields import QQ, GF, FieldMismatchError
from pfaffian_nets.matrices import ExactMatrix
from pfaffian_nets.multipoly import (MultiPoly, det_poly, minor_polys,
                                     monomial_positions, monomial_table,
                                     pfaffian_level, pfaffian_poly,
                                     pfaffian_polys)

from conftest import random_value
from scalar_references import (exact_divide, homogeneous_degree,
                               is_homogeneous, monomials_of_degree, partial,
                               pfaffian_expansion, pfaffian_scalar,
                               stack_grid, sub_pfaffians)


def x(field, nvars, i):
    return MultiPoly.variable(field, nvars, i)


def random_poly(field, nvars, degree, rng, nterms=6):
    monos = list(monomials_of_degree(nvars, degree))
    terms = {}
    for _ in range(nterms):
        terms[rng.choice(monos)] = random_value(field, rng)
    return MultiPoly(field, nvars, terms)


def parse(field, nvars, text, names=None):
    """The inverse of MultiPoly.render, as the reference the round trip
    reads (terms with the coefficient 1 left implicit are accepted too)."""
    text = text.strip()
    if text == "0":
        return MultiPoly.zero(field, nvars)
    if names is None:
        names = ["x%d" % i for i in range(nvars)]
    index = {nm: i for i, nm in enumerate(names)}
    terms = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if chunk.startswith("("):
            close = chunk.index(")")
            coeff_txt = chunk[:close + 1]
            rest = chunk[close + 1:].lstrip("*")
        else:
            head, _, tail = chunk.partition("*")
            if head in index or head.split("^")[0] in index:
                coeff_txt, rest = "1", chunk
            else:
                coeff_txt, rest = head, tail
        exps = [0] * nvars
        if rest:
            for factor in rest.split("*"):
                nm, _, e = factor.partition("^")
                if nm not in index:
                    raise ValueError("unknown variable %r" % nm)
                exps[index[nm]] += int(e) if e else 1
        c = _parse_coeff(field, coeff_txt)
        exps = tuple(exps)
        prev = terms.get(exps, field.zero_value)
        terms[exps] = field.add(prev, c)
    return MultiPoly(field, nvars, terms)


def _parse_coeff(field, text):
    text = text.strip()
    if field.kind == "QQ":
        return Fraction(text)
    if field.kind == "GF(p)":
        return int(text) % field.p
    # extension field: "(c*g^i+...)" or a bare integer
    if not text.startswith("("):
        return field.value_of(int(text))
    body = text[1:-1]
    acc = field.zero_value
    for part in body.split("+"):
        part = part.strip()
        c_txt, _, g_txt = part.partition("*")
        if not g_txt and c_txt.startswith("g"):
            g_txt, c_txt = c_txt, "1"
        if g_txt:
            _, _, e = g_txt.partition("^")
            deg = int(e) if e else 1
            mono = [0] * field.k
            mono[deg] = int(c_txt) % field.p
            acc = field.add(acc, tuple(mono))
        else:
            acc = field.add(acc, field.value_of(int(c_txt)))
    return acc


def test_difference_of_squares():
    x0, x1 = x(QQ, 2, 0), x(QQ, 2, 1)
    assert (x0 + x1) * (x0 - x1) == x0 * x0 - x1 * x1


def test_partial_derivative():
    x0 = x(QQ, 1, 0)
    assert partial(x0 ** 3, 0) == (x0 * x0).scale(3)
    # char divides the exponent: derivative term drops
    y = x(GF(3), 1, 0)
    assert partial(y ** 3, 0).is_zero()


def test_no_zero_terms_stored():
    p = MultiPoly(GF(5), 2, {(1, 0): 5, (0, 1): 2})
    assert list(p.terms) == [(0, 1)]
    q = x(GF(5), 2, 0) - x(GF(5), 2, 0)
    assert q.is_zero() and q.degree() is None


def test_evaluate_order_independence():
    rng = random.Random(2)
    field = GF(7)
    monos = list(monomials_of_degree(6, 4))
    pairs = [(rng.choice(monos), rng.randrange(1, 7)) for _ in range(12)]
    p1 = MultiPoly(field, 6, dict(pairs))
    p2 = MultiPoly(field, 6, dict(reversed(pairs)))
    for _ in range(20):
        pt = [rng.randrange(7) for _ in range(6)]
        assert p1.evaluate(pt) == p2.evaluate(pt)


def test_homogeneity_bookkeeping():
    f = QQ
    a = random_poly(f, 3, 2, random.Random(1))
    b = random_poly(f, 3, 2, random.Random(2))
    assert is_homogeneous(a + b)
    assert homogeneous_degree(a * b) == 4
    assert partial(a, 0).is_zero() or homogeneous_degree(partial(a, 0)) == 1
    mixed = a + MultiPoly.constant(f, 3, 1)
    assert not is_homogeneous(mixed)
    with pytest.raises(ValueError):
        homogeneous_degree(mixed)


def test_nvars_and_field_mismatch():
    with pytest.raises(ValueError):
        x(QQ, 2, 0) + x(QQ, 3, 0)
    with pytest.raises(FieldMismatchError):
        x(QQ, 2, 0) * x(GF(5), 2, 0)


def test_grlex_leading_and_sorted_terms():
    x0, x1 = x(QQ, 2, 0), x(QQ, 2, 1)
    p = x1 * x1 * x1 + x0 * x0  # degree 3 term beats degree 2
    exps, c = p.leading()
    assert exps == (0, 3)
    p2 = x0 * x1 + x1 * x1
    assert p2.leading()[0] == (1, 1)  # same degree: lex on exponents
    rendered = p2.render()
    assert rendered == "1*x0*x1 + 1*x1^2"


def test_monomials_of_degree_order_and_count():
    monos = list(monomials_of_degree(3, 2))
    assert monos == [(2, 0, 0), (1, 1, 0), (1, 0, 1),
                     (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert len(list(monomials_of_degree(5, 4))) == 70  # C(8,4)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003), GF(3, 2)])
def test_render_parse_round_trip(field):
    rng = random.Random(11)
    for deg in (1, 3):
        p = random_poly(field, 4, deg, rng)
        q = parse(field, 4, p.render())
        assert q == p
    assert parse(field, 4, "0").is_zero()


def test_parse_implicit_unit_coefficient():
    p = parse(QQ, 3, "x0^2 + -2*x1*x2")
    assert p.coefficient((2, 0, 0)) == 1
    assert p.coefficient((0, 1, 1)) == -2


def test_parse_custom_names():
    p = parse(QQ, 2, "3*u*v", names=["u", "v"])
    assert p.render(names=["u", "v"]) == "3*u*v"
    with pytest.raises(ValueError):
        parse(QQ, 2, "3*w")


def test_exact_divide_basics():
    x0, x1, x2 = (x(QQ, 3, i) for i in range(3))
    assert exact_divide(x0 * x0 - x1 * x1, x0 - x1) == x0 + x1
    with pytest.raises(ValueError):
        exact_divide(x0 * x1, x2)


@pytest.mark.parametrize("field", [QQ, GF(32003)])
def test_multiply_then_divide_round_trip(field):
    rng = random.Random(31)
    for _ in range(5):
        a = random_poly(field, 4, rng.randrange(1, 4), rng)
        b = random_poly(field, 4, rng.randrange(1, 3), rng)
        if a.is_zero() or b.is_zero():
            continue
        assert exact_divide(a * b, b) == a


def test_divide_by_variable():
    rng = random.Random(5)
    q = random_poly(QQ, 4, 4, rng)
    x3 = x(QQ, 4, 3)
    assert exact_divide(q * x3, x3) == q


def test_substitute_restricts_to_a_pencil():
    # p(x0, x1, x2) pulled back along (s, t) -> s*u + t*v
    field = GF(101)
    rng = random.Random(9)
    p = random_poly(field, 3, 3, rng)
    u = [rng.randrange(101) for _ in range(3)]
    v = [rng.randrange(101) for _ in range(3)]
    subs = [MultiPoly.linear_form(field, [u[i], v[i]]) for i in range(3)]
    restricted = p.substitute(subs)
    assert restricted.nvars == 2
    for _ in range(10):
        s, t = rng.randrange(101), rng.randrange(101)
        pt = [(u[i] * s + v[i] * t) % 101 for i in range(3)]
        assert restricted.evaluate([s, t]) == p.evaluate(pt)


def test_map_field_reduces_coefficients():
    p = MultiPoly(QQ, 2, {(1, 0): Fraction(1, 2), (0, 1): 3})
    q = p.map_field(GF(7))
    assert q.coefficient((1, 0)) == 4  # 1/2 = 4 mod 7
    assert q.coefficient((0, 1)) == 3


def test_normalized_forms():
    p = MultiPoly(GF(7), 2, {(2, 0): 3, (0, 2): 5})
    n = p.normalized()
    assert n.leading()[1] == 1
    q = MultiPoly(QQ, 2, {(2, 0): Fraction(-2, 3), (0, 2): Fraction(4, 5)})
    nq = q.normalized()
    lead_exps, lead_c = nq.leading()
    assert lead_exps == (2, 0) and lead_c == 5  # -2/3, 4/5 -> 5, -6 made positive
    assert nq.coefficient((0, 2)) == -6


# -- pfaffians of skew stacks ------------------------------------------------

def three_block_stack(field):
    """a0 (e0^e1) + a1 (e2^e3) + a2 (e4^e5) as a stack of three 6 x 6
    matrices."""
    stack = [[[field.zero_value] * 6 for _ in range(6)] for _ in range(3)]
    for l in range(3):
        stack[l][2 * l][2 * l + 1] = field.one_value
        stack[l][2 * l + 1][2 * l] = field.neg(field.one_value)
    return stack


def random_skew_stack(field, nvars, size, rng, value=None):
    """A skew stack of random payloads, about a fifth of the entries above
    the diagonal zero in every matrix.  Over QQ entry (i, j), i < j, has
    the denominator i + 2, so every row carries a different denominator
    (and a row-only scale fails).  `value(rng)`, when given, draws the
    entries instead."""
    def draw(i):
        if value is not None:
            return field.value_of(value(rng))
        if field.kind == "QQ":
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), i + 2)
        return random_value(field, rng)
    stack = [[[field.zero_value] * size for _ in range(size)]
             for _ in range(nvars)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.2:
                continue
            for C in stack:
                C[i][j] = draw(i)
                C[j][i] = field.neg(C[i][j])
    return stack


def at_point(field, stack, pt):
    """sum_l pt_l C_l as an ExactMatrix."""
    return ExactMatrix(field, [[e.evaluate(pt) for e in row]
                               for row in stack_grid(field, stack)])


def test_pfaffian_three_block():
    pf = pfaffian_poly(QQ, three_block_stack(QQ))
    x0, x1, x2 = (x(QQ, 3, i) for i in range(3))
    assert pf == x0 * x1 * x2


def test_pfaffian_zero_matrix():
    assert pfaffian_poly(QQ, [[[0, 0], [0, 0]]] * 2).is_zero()


def test_pfaffian_degree_and_homogeneity():
    rng = random.Random(13)
    pf = pfaffian_poly(GF(32003), random_skew_stack(GF(32003), 5, 6, rng))
    assert homogeneous_degree(pf) == 3


def test_pfaffian_evaluation_commutes():
    rng = random.Random(3)
    field = GF(32003)
    stack = random_skew_stack(field, 5, 6, rng)
    pf = pfaffian_poly(field, stack)
    for _ in range(100):
        pt = [rng.randrange(32003) for _ in range(5)]
        assert pf.evaluate(pt) == pfaffian_scalar(at_point(field, stack, pt))


@pytest.mark.parametrize("size", [4, 6])
def test_pfaffian_squared_is_det(size):
    rng = random.Random(size)
    stack = random_skew_stack(GF(101), 3, size, rng)
    pf = pfaffian_poly(GF(101), stack)
    assert pf * pf == det_poly(GF(101), stack)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_pfaffian_squared_is_det_on_small_integer_stacks(field):
    """Pf^2 = det across the two engines, for random skew stacks of small
    integers in 1 to 4 variables and of sizes 2, 4 and 6."""
    rng = random.Random(7)
    for _ in range(12):
        size, nvars = rng.choice([2, 4, 6]), rng.randint(1, 4)
        stack = random_skew_stack(field, nvars, size, rng,
                                  value=lambda rng: rng.randint(-2, 2))
        pf = pfaffian_poly(field, stack)
        assert pf * pf == det_poly(field, stack)


def test_pfaffian_grid_size_guards():
    """No size is refused: a 10 x 10 Pfaffian squares to its determinant,
    the one 10 x 10 minor.  An odd size is refused."""
    stack = random_skew_stack(QQ, 2, 10, random.Random(10),
                              value=lambda rng: rng.randint(-2, 2))
    pf = pfaffian_poly(QQ, stack)
    assert pf.degree() == 5
    assert pf * pf == minor_polys(QQ, stack, 10)[0]
    with pytest.raises(ValueError, match="even"):
        pfaffian_poly(QQ, [[[0] * 3 for _ in range(3)]])


# QQ, primes on the operation tables and above them, an extension on its
# tables, and GF(81), which has no code arithmetic
PFAFFIAN_FIELDS = [QQ, GF(7), GF(101), GF(32003), GF(3, 2), GF(3, 4)]
NO_CODES_GF81 = r"^no code arithmetic over GF\(3\^4\)$"


@pytest.mark.parametrize("field", PFAFFIAN_FIELDS, ids=str)
@pytest.mark.parametrize("size", [2, 4, 6, 8])
def test_pfaffian_level_equals_the_expansion_reference(field, size):
    """Each level equals the recursive expansion; a finite field's level is
    int64 codes, and a field without codes is refused by name."""
    rng = random.Random(size)
    stack = random_skew_stack(field, 3, size, rng)
    if field == GF(3, 4):
        for k in range(2, size + 1, 2):
            with pytest.raises(ValueError, match=NO_CODES_GF81):
                pfaffian_level(field, stack, k)
        return
    grid = stack_grid(field, stack)
    for k in range(2, size + 1, 2):
        if field.kind != "QQ":
            assert pfaffian_level(field, stack, k)[1].dtype == np.int64
        got = pfaffian_polys(field, stack, k)
        want = sub_pfaffians(grid, k)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.field, g.nvars) == (w.field, w.nvars)
            assert g.terms == w.terms
            assert all(type(c) is type(w.terms[e])
                       for e, c in g.terms.items())
    assert pfaffian_poly(field, stack) == pfaffian_expansion(grid)


def test_pfaffian_level_rows_and_scales_over_qq():
    """Row i of the level over QQ is scales[i] times sub-Pfaffian i, with
    the scale the product of the row lcms of the subset."""
    stack = random_skew_stack(QQ, 3, 6, random.Random(1))
    _, level, monos, scales = pfaffian_level(QQ, stack, 4)
    assert np.array_equal(monos, monomial_table(3, 2))
    for row, scale, want in zip(level.tolist(), scales,
                                sub_pfaffians(stack_grid(QQ, stack), 4)):
        assert {tuple(e): Fraction(c, scale)
                for e, c in zip(monos.tolist(), row) if c} == want.terms


def test_pfaffian_level_with_large_entries_uses_object_arrays():
    """A QQ stack whose entries bound the cubic's codes above 2^62 keeps
    Python ints; small entries run on int64."""
    rng = random.Random(4)
    big = random_skew_stack(QQ, 3, 6, rng, value=lambda rng:
                            rng.randint(10 ** 8, 10 ** 9))
    _, level, _, _ = pfaffian_level(QQ, big, 6)
    assert level.dtype == object
    assert pfaffian_poly(QQ, big) == pfaffian_expansion(stack_grid(QQ, big))
    small = random_skew_stack(QQ, 3, 6, rng)
    assert pfaffian_level(QQ, small, 6)[1].dtype == np.int64


def test_pfaffian_level_guards():
    stack = random_skew_stack(GF(7), 2, 4, random.Random(2))
    for k in (0, 3, 6):
        with pytest.raises(ValueError, match="even"):
            pfaffian_level(GF(7), stack, k)
    # characteristic 2 is no exception: Pf is an integer polynomial in the
    # entries above the diagonal
    for field in (GF(2), GF(2, 2)):
        rng = random.Random(2)
        pfs = []
        for _ in range(4):
            stack2 = random_skew_stack(field, 2, 4, rng)
            pfs.append(pfaffian_poly(field, stack2))
            assert pfs[-1] * pfs[-1] == minor_polys(field, stack2, 4)[0]
        assert not all(pf.is_zero() for pf in pfs)


def test_monomial_tables_are_shared_and_read_only():
    for nvars in range(7):
        for d in range(9):
            table = monomial_table(nvars, d)
            assert table.dtype == np.int64 and table.shape[1] == nvars
            assert list(map(tuple, table.tolist())) \
                == list(monomials_of_degree(nvars, d))
            assert monomial_table(nvars, d) is table
            assert not table.flags.writeable
    with pytest.raises(ValueError):
        monomial_table(5, 3)[0, 0] = 1


def test_monomial_positions_round_trip():
    table = monomial_table(4, 3)
    rng = np.random.default_rng(0)
    at = rng.integers(0, len(table), size=(7, 5))
    assert np.array_equal(monomial_positions(4, 3, table[at]), at)
