import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from pfaffian_nets import modnum
from pfaffian_nets.fields import QQ, GF, FieldMismatchError
from pfaffian_nets.matrices import ExactMatrix

from conftest import random_value
from scalar_references import det, is_skew_symmetric, pfaffian_scalar

FIELDS = [QQ, GF(2), GF(3), GF(7), GF(32003), GF(3, 2)]


def random_mat(field, rng, nrows, ncols):
    return ExactMatrix(field, [[random_value(field, rng) for _ in range(ncols)]
                               for _ in range(nrows)])


def naive_rank(m):
    """Row-reduce with plain field division, counting pivots."""
    f = m.field
    rows = [row[:] for row in m.rows]
    rank = 0
    for c in range(m.ncols):
        hit = next((r for r in range(rank, len(rows))
                    if not f.is_zero_value(rows[r][c])), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        inv = f.inv(rows[rank][c])
        rows[rank] = [f.mul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not f.is_zero_value(rows[r][c]):
                fc = rows[r][c]
                rows[r] = [f.sub(x, f.mul(fc, y))
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def permutation_det(m):
    """Leibniz determinant as a payload, usable as an oracle up to 6x6."""
    f = m.field
    n = m.nrows
    total = f.zero_value
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = f.one_value
        for i in range(n):
            term = f.mul(term, m.rows[i][perm[i]])
        total = f.add(total, term) if sign > 0 else f.sub(total, term)
    return total


def matching_pfaffian(m):
    """Perfect-matching expansion, as a payload: Pf(A) = sum over matchings
    of the sign times the product of a[i][j] over pairs.  Independent of
    the recursive first-row expansion used by the implementation."""
    f = m.field
    n = m.nrows

    def walk(remaining):
        if not remaining:
            return [(1, [])]
        i = remaining[0]
        out = []
        for t, j in enumerate(remaining[1:]):
            rest = remaining[1:t + 1] + remaining[t + 2:]
            for sign, pairs in walk(rest):
                out.append((sign * (-1) ** t, pairs + [(i, j)]))
        return out

    total = f.zero_value
    for sign, pairs in walk(list(range(n))):
        term = f.one_value
        for i, j in pairs:
            term = f.mul(term, m.rows[i][j])
        total = f.add(total, term) if sign > 0 else f.sub(total, term)
    return total


def random_skew(field, rng, n):
    m = ExactMatrix.zeros(field, n, n)
    for i in range(n):
        for j in range(i + 1, n):
            v = random_value(field, rng)
            m.rows[i][j] = v
            m.rows[j][i] = field.neg(v)
    return m


# -- arithmetic and shape plumbing -------------------------------------------

def test_constructor_and_entry_access():
    m = ExactMatrix(QQ, [[1, Fraction(1, 2)], [0, 3]])
    assert m.nrows == 2 and m.ncols == 2
    assert m.rows[0][1] == Fraction(1, 2)
    assert m.transpose().rows[1][0] == Fraction(1, 2)
    with pytest.raises(ValueError):
        ExactMatrix(QQ, [[1, 2], [3]])


def test_field_mismatch_rejected():
    a = ExactMatrix(GF(5), [[1]])
    b = ExactMatrix(GF(7), [[1]])
    with pytest.raises(FieldMismatchError, match="field mismatch"):
        a @ b
    with pytest.raises(ValueError, match="shape mismatch"):
        a @ ExactMatrix(GF(5), [[1], [1]])
    # a GF(5^2) payload is not an entry GF(5) can take
    with pytest.raises(TypeError):
        ExactMatrix(GF(5), [[(1, 0)]])


@pytest.mark.parametrize("field", FIELDS)
def test_matmul_against_entry_sums(field):
    rng = random.Random(3)
    a = random_mat(field, rng, 3, 4)
    b = random_mat(field, rng, 4, 2)
    c = a @ b
    for i in range(3):
        for j in range(2):
            acc = field.zero_value
            for k in range(4):
                acc = field.add(acc, field.mul(a.rows[i][k], b.rows[k][j]))
            assert c.rows[i][j] == acc


# -- rank / kernel / rref ----------------------------------------------------

@pytest.mark.parametrize("field", FIELDS)
def test_rank_kernel_random(field):
    rng = random.Random(17)
    for trial in range(8):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        m = random_mat(field, rng, nrows, ncols)
        rank, kern = m.rank_kernel()
        assert rank == naive_rank(m)
        assert kern.nrows == ncols and kern.ncols == ncols - rank
        if kern.ncols:
            assert m @ kern == ExactMatrix.zeros(m.field, m.nrows, kern.ncols)


def test_low_rank_product_structure():
    field = QQ
    rng = random.Random(23)
    left = random_mat(field, rng, 6, 2)
    right = random_mat(field, rng, 2, 5)
    m = left @ right
    rank, kern = m.rank_kernel()
    assert rank <= 2
    assert m @ kern == ExactMatrix.zeros(m.field, m.nrows, kern.ncols)


def test_rref_is_canonical_under_row_scrambling():
    field = GF(13)
    rng = random.Random(9)
    m = random_mat(field, rng, 5, 8)
    piv, basis = m.rref()
    for _ in range(4):
        perm = list(range(5))
        rng.shuffle(perm)
        scr_rows = [m.rows[i][:] for i in perm]
        # also mix a random multiple of another row in
        k = rng.randrange(5)
        scr_rows[k] = [field.add(x, field.mul(2, y))
                       for x, y in zip(scr_rows[k], scr_rows[(k + 1) % 5])]
        piv2, basis2 = ExactMatrix(field, scr_rows).rref()
        assert piv2 == piv and basis2 == basis


def test_numpy_path_agrees_with_generic():
    # 40x40 over GF(32003): Gauss-Jordan against the blocked modnum kernel
    field = GF(32003)
    rng = random.Random(31)
    left = random_mat(field, rng, 40, 11)
    right = random_mat(field, rng, 11, 40)
    m = left @ right
    rank, kern = m.rank_kernel()
    assert rank == naive_rank(m) == 11
    assert m @ kern == ExactMatrix.zeros(m.field, m.nrows, kern.ncols)
    piv, basis = m.rref()
    piv_n, rows_n = modnum.rref_mod(np.array(m.rows, dtype=np.int64), 32003)
    assert piv == list(piv_n)
    assert basis.rows == rows_n.tolist()


def test_rational_rref_no_denominator_blowup():
    rng = random.Random(4)
    rows = [[Fraction(rng.randint(-50, 50), rng.randint(1, 30))
             for _ in range(9)] for _ in range(9)]
    m = ExactMatrix(QQ, rows)
    piv, basis = m.rref()
    assert len(piv) == naive_rank(m)
    # unit pivots, zeros elsewhere in pivot columns
    for i, c in enumerate(piv):
        col = [basis.rows[r][c] for r in range(basis.nrows)]
        assert col[i] == 1
        assert all(not col[r] for r in range(len(piv)) if r != i)


# -- determinants ------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS)
def test_det_against_permutation_expansion(field):
    rng = random.Random(77)
    for n in (1, 2, 3, 4):
        m = random_mat(field, rng, n, n)
        assert det(m) == permutation_det(m)


def test_det_rational_exact():
    m = ExactMatrix(QQ, [[Fraction(1, 2), Fraction(1, 3)],
                         [Fraction(1, 4), Fraction(1, 5)]])
    assert det(m) == Fraction(1, 10) - Fraction(1, 12)


def test_det_singular_and_identity():
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    assert det(ExactMatrix(GF(7), identity)) == 1
    m = ExactMatrix(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert det(m) == 0


# -- pfaffians ---------------------------------------------------------------

def test_pfaffian_symplectic_normalization():
    for field in (QQ, GF(7)):
        j2 = ExactMatrix(field, [[0, 1], [-1, 0]])
        assert pfaffian_scalar(j2) == 1
        blocks = ExactMatrix.zeros(field, 6, 6)
        for i in range(3):
            blocks.rows[2 * i][2 * i + 1] = field.one_value
            blocks.rows[2 * i + 1][2 * i] = field.neg(field.one_value)
        assert pfaffian_scalar(blocks) == 1


def test_pfaffian_empty_matrix_is_one():
    assert pfaffian_scalar(ExactMatrix(QQ, [], ncols=0)) == 1


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7), GF(32003), GF(3, 2)])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_pfaffian_matches_matching_expansion(field, n):
    rng = random.Random(n * 1000 + 1)
    for _ in range(3):
        m = random_skew(field, rng, n)
        assert pfaffian_scalar(m) == matching_pfaffian(m)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)])
def test_pfaffian_squared_is_det(field):
    rng = random.Random(55)
    for n in (2, 4, 6):
        m = random_skew(field, rng, n)
        pf = pfaffian_scalar(m)
        assert field.mul(pf, pf) == det(m)


def test_pfaffian_congruence_covariance():
    # Pf(B A B^T) = det(B) Pf(A)
    field = GF(32003)
    rng = random.Random(21)
    a = random_skew(field, rng, 6)
    b = random_mat(field, rng, 6, 6)
    lhs = pfaffian_scalar(b @ a @ b.transpose())
    assert lhs == field.mul(det(b), pfaffian_scalar(a))


def test_pfaffian_guards():
    with pytest.raises(ValueError):
        pfaffian_scalar(ExactMatrix(QQ, [[0, 1], [1, 0]]))  # not skew
    with pytest.raises(ValueError):
        pfaffian_scalar(ExactMatrix(QQ, [[0]]))  # odd size
    with pytest.raises(ValueError):
        pfaffian_scalar(ExactMatrix.zeros(GF(2), 4, 4))  # char 2
    big = ExactMatrix.zeros(QQ, 14, 14)
    with pytest.raises(ValueError):
        pfaffian_scalar(big)


def test_is_skew_symmetric_diagonal_check():
    m = ExactMatrix(GF(3), [[1, 1], [2, 0]])
    assert not is_skew_symmetric(m)
    assert is_skew_symmetric(random_skew(GF(3), random.Random(1), 4))
