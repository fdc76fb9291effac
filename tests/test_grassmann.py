import itertools
import random

import numpy as np
import pytest

from pfaffian_nets import modnum
from pfaffian_nets.fields import QQ, GF
from pfaffian_nets.grassmann import (GrassmannLine, PluckerPoint,
                                     echelon_pair_codes,
                                     enumerate_grassmannian,
                                     enumerate_projective, gaussian_binomial,
                                     pair_indices, pencil_line,
                                     plucker_from_basis, projective_line)
from pfaffian_nets.matrices import ExactMatrix

from conftest import random_value
from scalar_references import (homogeneous_degree, plucker_quadrics,
                               satisfies_quadrics)


def random_rank2(field, two_m, rng):
    while True:
        b = ExactMatrix(field, [[random_value(field, rng)
                                 for _ in range(two_m)] for _ in range(2)])
        if b.rank() == 2:
            return b


def test_pair_indices_lexicographic():
    pairs, pos = pair_indices(4)
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert pos[(1, 3)] == 4


def test_basis_e1_e2():
    b = ExactMatrix(QQ, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])
    p = plucker_from_basis(b)
    _, pos = pair_indices(6)
    assert p.coords[pos[(0, 1)]] == 1
    assert all(not p.coords[pos[ij]] for ij in [(0, 2), (2, 3), (4, 5)])


def test_row_operation_invariance():
    b1 = ExactMatrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b2 = ExactMatrix(QQ, [[1, 1, 0, 0], [0, 1, 0, 0]])
    assert plucker_from_basis(b1) == plucker_from_basis(b2)
    rng = random.Random(0)
    field = GF(7)
    b = random_rank2(field, 6, rng)
    g = ExactMatrix(field, [[2, 3], [1, 5]])  # det = 7 = 0? no: 10-3=7=0 mod 7
    g = ExactMatrix(field, [[2, 3], [1, 6]])  # det 12-3 = 9 = 2, invertible
    assert plucker_from_basis(g @ b) == plucker_from_basis(b)


def test_rank_deficient_rejected():
    b = ExactMatrix(QQ, [[1, 2, 3, 4], [2, 4, 6, 8]])
    with pytest.raises(ValueError):
        plucker_from_basis(b)


@pytest.mark.parametrize("field", [GF(7), QQ, GF(3, 2)])
def test_random_basis_satisfies_quadrics(field):
    rng = random.Random(13)
    for _ in range(5):
        p = plucker_from_basis(random_rank2(field, 6, rng))
        assert satisfies_quadrics(p)


def test_quadrics_counts_and_klein():
    qs4 = plucker_quadrics(4, QQ)
    assert len(qs4) == 1
    assert qs4[0].render() == "1*x0*x5 + -1*x1*x4 + 1*x2*x3"
    qs6 = plucker_quadrics(6, GF(7))
    assert len(qs6) == 15
    assert all(homogeneous_degree(q) == 2 for q in qs6)


def test_quadrics_vanish_on_points_and_detect_impostors():
    field = GF(7)
    rng = random.Random(4)
    qs = plucker_quadrics(6, field)
    p = plucker_from_basis(random_rank2(field, 6, rng))
    for q in qs:
        assert field.is_zero_value(q.evaluate(p.coords))
    # e0^e1 + e2^e3 is not decomposable: the (0,1,2,3) relation is 1, not 0
    _, pos = pair_indices(6)
    coords = [0] * 15
    coords[pos[(0, 1)]] = 1
    coords[pos[(2, 3)]] = 1
    impostor = PluckerPoint(field, 6, coords)
    assert not satisfies_quadrics(impostor)
    assert not all(field.is_zero_value(q.evaluate(impostor.coords))
                   for q in qs)


def test_enumeration_counts():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(6, 2, 2) == 651
    assert gaussian_binomial(6, 2, 3) == 11011
    pts = list(enumerate_grassmannian(4, GF(2)))
    assert len(pts) == 35
    assert len(set(pts)) == 35


def test_enumeration_gr26_gf2_complete_and_on_quadrics():
    pts = list(enumerate_grassmannian(6, GF(2)))
    assert len(pts) == len(set(pts)) == 651
    assert all(satisfies_quadrics(p) for p in pts)


def test_enumeration_gr26_gf3_count():
    count = sum(1 for _ in enumerate_grassmannian(6, GF(3)))
    assert count == 11011


def test_enumeration_limit_guard():
    with pytest.raises(ValueError):
        list(enumerate_grassmannian(6, GF(32003), limit=10 ** 6))


@pytest.mark.parametrize("n, field", [
    (n, f) for n in (4, 5) for f in (GF(2), GF(3), GF(2, 2), GF(5))]
    + [(6, GF(2)), (6, GF(3))], ids=str)
def test_echelon_pair_codes(n, field):
    """Every 2-plane of field^n once, as its reduced echelon pair, in
    blocks of at most 2,048 that share one pivot pair, in increasing
    (pivots, free entries) order."""
    fc = modnum.field_codes(field)
    blocks = list(echelon_pair_codes(n, field))
    assert all(0 < len(b) <= 2048 for b in blocks)
    pairs = np.concatenate(blocks)
    assert len(pairs) == gaussian_binomial(n, 2, field.order)
    rank, red, _ = modnum.batch_rref_table(pairs, fc)
    assert (rank == 2).all() and np.array_equal(red, pairs)
    for block in blocks:
        pivots = (block != 0).argmax(axis=2)
        assert (pivots == pivots[0]).all()
    # a plane has one reduced echelon basis, so distinct pairs are distinct
    # row spaces
    assert len({pair.tobytes() for pair in pairs}) == len(pairs)
    # for fixed pivots the other entries of a pair are zero, so its rows
    # order the free entries
    keys = [tuple(lead + row) for lead, row
            in zip((pairs != 0).argmax(axis=2).tolist(),
                   pairs.reshape(len(pairs), -1).tolist())]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_echelon_pair_codes_guards():
    with pytest.raises(ValueError, match="over the limit 1000000"):
        next(echelon_pair_codes(6, GF(32003), limit=10 ** 6))
    with pytest.raises(ValueError, match=r"no code arithmetic over GF\(3\^5\)"):
        next(echelon_pair_codes(4, GF(3, 5)))


def test_projective_enumeration():
    pts = list(enumerate_projective(GF(3), 2))
    assert len(pts) == gaussian_binomial(3, 1, 3) == 13
    assert len(set(pts)) == 13
    for p in pts:
        lead = next(v for v in p if v)
        assert lead == 1
    assert len(list(enumerate_projective(GF(2), 4))) == 31


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(2, 2), GF(3, 2),
                                   GF(101)], ids=str)
def test_projective_line_is_the_enumeration(field):
    """(1 : x) for each code x, then (0 : 1): the order of
    `enumerate_projective(field, 1)`."""
    fc = modnum.field_codes(field)
    line = projective_line(field)
    assert line.shape == (field.order + 1, 2) and line.dtype == np.int64
    assert [tuple(p) for p in fc.decode(line)] \
        == list(enumerate_projective(field, 1))


def test_pencil_line_coordinate_case():
    field = QQ
    W = ExactMatrix(field, [[1, 0, 0, 0, 0, 0],
                            [0, 1, 0, 0, 0, 0],
                            [0, 0, 1, 0, 0, 0]])
    v = [1, 0, 0, 0, 0, 0]
    line = pencil_line(v, W)
    _, pos = pair_indices(6)
    spans = {tuple(1 if k == pos[(0, 1)] else 0 for k in range(15)),
             tuple(1 if k == pos[(0, 2)] else 0 for k in range(15))}
    got = {line.span[0].coords, line.span[1].coords}
    got = {tuple(int(c) for c in cs) for cs in got}
    assert got == spans


def test_pencil_points_decomposable_and_contain_v():
    field = GF(5)
    rng = random.Random(1)
    while True:
        W = ExactMatrix(field, [[random_value(field, rng) for _ in range(6)]
                                for _ in range(3)])
        if W.rank() == 3:
            break
    v = W.rows[1][:]
    line = pencil_line(v, W)
    for s in range(5):
        for t in range(5):
            if s == 0 and t == 0:
                continue
            p = line.point_at(s, t)
            assert satisfies_quadrics(p)
            # v lies in the plane: stacking v onto the basis keeps rank 2
            b = p.basis
            stacked = ExactMatrix(field, b.rows + [v])
            assert stacked.rank() == 2


def test_pencil_rejects_outside_vector():
    field = QQ
    W = ExactMatrix(field, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(ValueError):
        pencil_line([0, 0, 0, 1], W)
    with pytest.raises(ValueError):
        pencil_line([1, 0, 0, 0], ExactMatrix(field, [[1, 0, 0, 0],
                                                      [2, 0, 0, 0],
                                                      [0, 1, 0, 0]]))


def test_line_parameter_points_are_collinear_with_span():
    field = GF(7)
    rng = random.Random(3)
    while True:
        W = ExactMatrix(field, [[random_value(field, rng) for _ in range(6)]
                                for _ in range(3)])
        if W.rank() == 3:
            break
    line = pencil_line(W.rows[0][:], W)
    p1, p2 = line.span
    seen = set()
    for s, t in ((1, 0), (0, 1), (1, 1), (1, 3), (1, 5)):
        target = line.point_at(s, t)
        seen.add(target)
        stacked = ExactMatrix(field, [list(p1.coords), list(p2.coords),
                                      list(target.coords)])
        assert stacked.rank() == 2
    assert len(seen) == 5  # distinct parameters give distinct plane points
