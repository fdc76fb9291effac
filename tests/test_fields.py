import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pfaffian_nets.correspondence import ANet
from pfaffian_nets.fields import (
    QQ, GF, FieldMismatchError, field_from_name, reduce_value,
)
from pfaffian_nets.multipoly import MultiPoly

from conftest import random_value

FIELDS = [QQ, GF(2), GF(3), GF(7), GF(32003), GF(2, 2), GF(3, 2), GF(5, 3), GF(2, 4)]


def random_values(field, rng, count):
    return [random_value(field, rng) for _ in range(count)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_field_axioms_random_triples(field):
    rng = random.Random(20240901)
    add, mul = field.add, field.mul
    for _ in range(1000):
        a, b, c = random_values(field, rng, 3)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert add(a, field.zero_value) == a
        assert mul(a, field.one_value) == a
        assert field.sub(a, a) == field.zero_value
        assert add(a, field.neg(a)) == field.zero_value
        if not field.is_zero_value(a):
            assert mul(a, field.inv(a)) == field.one_value


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_sub_div_consistency(field):
    rng = random.Random(7)
    for _ in range(200):
        a, b = random_values(field, rng, 2)
        assert field.add(field.sub(a, b), b) == a
        if not field.is_zero_value(b):
            assert field.mul(field.mul(a, field.inv(b)), b) == a


def test_cross_field_ops_rejected():
    # a payload carries no field, so the mismatch is caught where two
    # fields meet: moving a payload, polynomial arithmetic, a net
    with pytest.raises(FieldMismatchError):
        reduce_value(3, GF(7), GF(11))
    with pytest.raises(FieldMismatchError):
        reduce_value(3, GF(7), QQ)
    with pytest.raises(FieldMismatchError):
        MultiPoly.constant(GF(7), 1, 3) + MultiPoly.constant(GF(11), 1, 3)
    with pytest.raises(FieldMismatchError):
        ANet(GF(7), 2, [[1]]).over(GF(11))


def test_prime_field_canonical_residues():
    f = GF(7)
    assert f.value_of(-1) == 6
    assert f.value_of(7) == 0
    assert f.value_of(Fraction(1, 2)) == 4  # 1/2 = 4 mod 7
    with pytest.raises(ZeroDivisionError):
        f.value_of(Fraction(1, 7))


def test_qq_lowest_terms():
    x = QQ.value_of(Fraction(2, 4))
    assert x == Fraction(1, 2)
    assert x.denominator == 2
    y = QQ.value_of(Fraction(3, -6))
    assert y.denominator > 0


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(4)  # must be written GF(2, 2)


def test_extension_degree_bounds():
    with pytest.raises(ValueError):
        GF(3, 1 + 8)
    assert GF(3, 1) is GF(3)  # degree-1 extension collapses to the prime field


def test_known_moduli():
    # first irreducibles in lexicographic coefficient order
    assert GF(2, 2).modulus == (1, 1, 1)          # x^2 + x + 1
    assert GF(3, 2).modulus == (1, 0, 1)          # x^2 + 1
    assert GF(2, 4).modulus == (1, 1, 0, 0, 1)    # x^4 + x + 1
    # the moduli fix the order of extension-field codes, so a change to
    # the irreducibility test must not pick a different first modulus
    assert GF(2, 3).modulus == (1, 1, 0, 1)
    assert GF(2, 5).modulus == (1, 0, 1, 0, 0, 1)
    assert GF(2, 6).modulus == (1, 1, 0, 0, 0, 0, 1)
    assert GF(3, 3).modulus == (1, 2, 0, 1)
    assert GF(3, 4).modulus == (2, 1, 0, 0, 1)
    assert GF(5, 2).modulus == (2, 0, 1)
    assert GF(7, 2).modulus == (1, 0, 1)
    assert GF(2, 8).modulus == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    # construction is deterministic
    assert GF(5, 3).modulus == GF(5, 3).modulus


# every extension field of order at most 64, and GF(2^8) and GF(3^5)
@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (3, 3), (5, 2),
                                 (2, 8), (2, 3), (2, 5), (7, 2), (2, 6),
                                 (3, 5)])
def test_extension_element_count_and_inverses(p, k):
    field = GF(p, k)
    seen = set()
    for x in field.elements():
        seen.add(x)
        if not field.is_zero_value(x):
            inv = field.inv(x)
            assert field.mul(x, inv) == field.one_value
            assert field.mul(inv, x) == field.one_value
    assert len(seen) == p ** k
    with pytest.raises(ZeroDivisionError):
        field.inv(field.zero_value)


def test_extension_frobenius_order():
    # x -> x^p generates Gal(GF(p^k)/GF(p)); x^(p^k) == x for all x
    field = GF(3, 3)
    rng = random.Random(1)
    for _ in range(50):
        x = random_value(field, rng)
        power = field.one_value
        for _ in range(3 ** 3):
            power = field.mul(power, x)
        assert power == x


def test_embed_prime_subfield():
    f9 = GF(3, 2)
    lifted = reduce_value(2, GF(3), f9)
    assert lifted == f9.value_of(2)
    assert reduce_value(2, GF(3), f9) == lifted
    assert reduce_value(Fraction(1, 2), QQ, GF(7)) == 4
    # QQ -> GF(p^k) goes through GF(p); 1/2 = 2 in GF(3)
    assert reduce_value(Fraction(1, 2), QQ, f9) == (2, 0)
    assert reduce_value(Fraction(-3, 5), QQ, GF(2, 3)) == (1, 0, 0)
    assert reduce_value((1, 2), f9, f9) == (1, 2)
    with pytest.raises(FieldMismatchError):
        reduce_value(1, GF(5), f9)
    with pytest.raises(FieldMismatchError):
        reduce_value((1, 0), f9, GF(3))
    with pytest.raises(ZeroDivisionError):
        reduce_value(Fraction(1, 3), QQ, GF(3))


def test_field_from_name_roundtrip():
    assert field_from_name("QQ") is QQ
    assert field_from_name("GF(7)") == GF(7)
    assert field_from_name("GF(3,2)") == GF(3, 2)
    assert field_from_name("GF(3^2)") == GF(3, 2)
    with pytest.raises(ValueError):
        field_from_name("R")


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_prime_field_matches_int_arithmetic(a, b):
    f = GF(32003)
    assert f.add(f.value_of(a), f.value_of(b)) == (a + b) % 32003
    assert f.mul(f.value_of(a), f.value_of(b)) == (a * b) % 32003


@given(st.fractions(max_denominator=1000), st.fractions(max_denominator=1000))
def test_qq_matches_fraction_arithmetic(a, b):
    assert QQ.add(QQ.value_of(a), QQ.value_of(b)) == a + b
    assert QQ.mul(QQ.value_of(a), QQ.value_of(b)) == a * b
