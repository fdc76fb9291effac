import random
from fractions import Fraction

import pytest

from pfaffian_nets.fields import QQ, GF, FieldMismatchError
from pfaffian_nets.matrices import ExactMatrix
from pfaffian_nets.multipoly import (MultiPoly, SkewPolyMatrix, det_poly,
                                     monomials_of_degree, pfaffian_poly)

from conftest import random_value
from scalar_references import exact_divide, pfaffian_scalar


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
    assert (x0 ** 3).partial(0) == (x0 * x0).scale(3)
    # char divides the exponent: derivative term drops
    y = x(GF(3), 1, 0)
    assert (y ** 3).partial(0).is_zero()


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
    assert (a + b).is_homogeneous()
    assert (a * b).homogeneous_degree() == 4
    assert a.partial(0).is_zero() or a.partial(0).homogeneous_degree() == 1
    mixed = a + MultiPoly.constant(f, 3, 1)
    assert not mixed.is_homogeneous()
    with pytest.raises(ValueError):
        mixed.homogeneous_degree()


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


# -- skew polynomial matrices and pfaffians ----------------------------------

def three_block_matrix(field):
    """a0 (e0^e1) + a1 (e2^e3) + a2 (e4^e5) as a 6x6 grid over 3 variables."""
    upper = {(0, 1): x(field, 3, 0),
             (2, 3): x(field, 3, 1),
             (4, 5): x(field, 3, 2)}
    return SkewPolyMatrix.from_upper(field, 3, 6, upper)


def random_skew_linear(field, nvars, size, rng):
    upper = {}
    for i in range(size):
        for j in range(i + 1, size):
            coeffs = [random_value(field, rng) for _ in range(nvars)]
            upper[(i, j)] = MultiPoly.linear_form(field, coeffs)
    return SkewPolyMatrix.from_upper(field, nvars, size, upper)


def test_skew_matrix_validation():
    bad = [[x(QQ, 1, 0), x(QQ, 1, 0)], [x(QQ, 1, 0), MultiPoly.zero(QQ, 1)]]
    with pytest.raises(ValueError):
        SkewPolyMatrix(bad)


def test_pfaffian_three_block():
    m = three_block_matrix(QQ)
    pf = pfaffian_poly(m)
    x0, x1, x2 = (x(QQ, 3, i) for i in range(3))
    assert pf == x0 * x1 * x2


def test_pfaffian_zero_matrix():
    z = MultiPoly.zero(QQ, 2)
    m = [[z, z], [z, z]]
    assert pfaffian_poly(m).is_zero()


def test_pfaffian_degree_and_homogeneity():
    rng = random.Random(13)
    m = random_skew_linear(GF(32003), 5, 6, rng)
    pf = pfaffian_poly(m)
    assert pf.homogeneous_degree() == 3


def test_pfaffian_evaluation_commutes():
    rng = random.Random(3)
    field = GF(32003)
    m = random_skew_linear(field, 5, 6, rng)
    pf = pfaffian_poly(m)
    for _ in range(100):
        pt = [rng.randrange(32003) for _ in range(5)]
        scalar = pfaffian_scalar(m.evaluate(pt))
        assert pf.evaluate(pt) == scalar


@pytest.mark.parametrize("size", [4, 6])
def test_pfaffian_squared_is_det(size):
    rng = random.Random(size)
    m = random_skew_linear(GF(101), 3, size, rng)
    pf = pfaffian_poly(m)
    assert pf * pf == det_poly(m.entries)


def test_pfaffian_grid_size_guards():
    z = MultiPoly.zero(QQ, 1)
    with pytest.raises(ValueError):
        pfaffian_poly([[z] * 10 for _ in range(10)])
    mixed = {(0, 1): x(QQ, 2, 0) * x(QQ, 2, 0), (2, 3): x(QQ, 2, 1)}
    with pytest.raises(ValueError):
        pfaffian_poly(SkewPolyMatrix.from_upper(QQ, 2, 4, mixed))
