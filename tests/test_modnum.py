import random

import numpy as np
import pytest

from pfaffian_nets import modnum
from pfaffian_nets.fields import GF

from conftest import random_value


def naive_rref(a, p):
    """Textbook Gauss-Jordan oracle, returns (pivots, basis rows)."""
    work = [[int(x) % p for x in row] for row in a]
    ncols = len(work[0]) if work else 0
    pivots = []
    pr = 0
    for c in range(ncols):
        hit = next((r for r in range(pr, len(work)) if work[r][c]), None)
        if hit is None:
            continue
        work[pr], work[hit] = work[hit], work[pr]
        inv = pow(work[pr][c], p - 2, p)
        work[pr] = [x * inv % p for x in work[pr]]
        for r in range(len(work)):
            if r != pr and work[r][c]:
                f = work[r][c]
                work[r] = [(x - f * y) % p for x, y in zip(work[r], work[pr])]
        pivots.append(c)
        pr += 1
    return pivots, work[:pr]


def kernel_from_rref(piv_cols, basis, ncols, p):
    """Kernel basis (ncols x nullity) from an RREF basis of the row space.
    Column j corresponds to the j-th free column: unit there, minus the RREF
    column at the pivot rows."""
    pivset = set(piv_cols)
    free = [c for c in range(ncols) if c not in pivset]
    K = np.zeros((ncols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        K[fc, j] = 1
        if piv_cols:
            K[piv_cols, j] = (-basis[:, fc]) % p
    return K


def random_matrix(rng, nrows, ncols, p, rank_cap=None):
    if rank_cap is None:
        return [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    # product of thin factors to force low rank
    left = [[rng.randrange(p) for _ in range(rank_cap)] for _ in range(nrows)]
    right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rank_cap)]
    return [[sum(left[i][k] * right[k][j] for k in range(rank_cap)) % p
             for j in range(ncols)] for i in range(nrows)]


@pytest.mark.parametrize("p", [2, 3, 7, 32003])
def test_rref_matches_naive_oracle(p):
    rng = random.Random(100 + p)
    shapes = [(1, 1), (3, 5), (5, 3), (8, 8), (10, 70), (70, 10), (40, 130)]
    for nrows, ncols in shapes:
        for cap in (None, 1, min(nrows, ncols) // 2 or 1):
            a = random_matrix(rng, nrows, ncols, p, rank_cap=cap)
            piv_o, basis_o = naive_rref(a, p)
            piv, basis = modnum.rref_mod(np.array(a, dtype=np.int64), p)
            assert list(piv) == piv_o
            assert basis.tolist() == basis_o


def test_rref_multi_panel_boundaries():
    # widths straddling the 64-column panel size exercise the backfill pass
    p = 101
    rng = random.Random(7)
    for ncols in (63, 64, 65, 128, 129, 200):
        a = random_matrix(rng, 30, ncols, p, rank_cap=17)
        piv_o, basis_o = naive_rref(a, p)
        piv, basis = modnum.rref_mod(np.array(a, dtype=np.int64), p)
        assert list(piv) == piv_o
        assert basis.tolist() == basis_o


def staircase_matrix(rng, nrows, ncols, rank, p):
    """A random (nrows x ncols) matrix of the given rank whose pivot columns
    are spread over the whole width, like the graded pieces of a Hilbert
    ladder: random combinations of echelon rows with random pivot columns."""
    pivots = sorted(rng.sample(range(ncols), rank))
    echelon = np.zeros((rank, ncols), dtype=np.int64)
    for i, c in enumerate(pivots):
        echelon[i, c] = 1
        echelon[i, c + 1:] = [rng.randrange(p) for _ in range(ncols - c - 1)]
    left = np.array([[rng.randrange(p) for _ in range(rank)]
                     for _ in range(nrows)], dtype=np.int64)
    return left @ echelon % p, pivots


@pytest.mark.parametrize("p", [32003, modnum.MAX_PRIME])
@pytest.mark.parametrize("shape", [(120, 200, 40), (5, 200, 5), (5, 200, 3)],
                         ids=str)
def test_rref_matches_naive_oracle_on_ladder_shapes(p, shape):
    """Tall, rank-deficient matrices with pivots in several panels, and
    fewer rows than the panel width, against the textbook oracle."""
    nrows, ncols, rank = shape
    rng = random.Random(p + nrows + rank)
    a, pivots = staircase_matrix(rng, nrows, ncols, rank, p)
    piv_o, basis_o = naive_rref(a.tolist(), p)
    assert piv_o == pivots
    piv, basis = modnum.rref_mod(a, p)
    assert list(piv) == piv_o
    assert basis.tolist() == basis_o
    dense = np.array(random_matrix(rng, nrows, ncols, p), dtype=np.int64)
    piv, basis = modnum.rref_mod(dense, p)
    assert (list(piv), basis.tolist()) == naive_rref(dense.tolist(), p)


@pytest.mark.parametrize("p", [7, 32003])
def test_rref_matches_naive_oracle_with_dead_columns(p):
    """All-zero columns, scattered inside panels and filling a whole panel,
    which the sweep skips, against the textbook oracle."""
    rng = random.Random(31 + p)
    for nrows, rank in ((30, 12), (80, 70)):
        a = np.array(random_matrix(rng, nrows, 230, p, rank_cap=rank),
                     dtype=np.int64)
        dead = list(range(64, 128)) + rng.sample(range(230), 40)
        a[:, dead] = 0
        piv, basis = modnum.rref_mod(a, p)
        assert (list(piv), basis.tolist()) == naive_rref(a.tolist(), p)
        assert not set(piv) & set(dead)
    # the rows left after the first panel are zero but in column 64
    a = np.zeros((3, 130), dtype=np.int64)
    a[:, 0] = 1
    a[1, 64] = 1
    assert modnum.rref_mod(a, p)[0] == [0, 64]


@pytest.mark.parametrize("shape", [(64, 64), (100, 64), (70, 150)], ids=str)
def test_rref_lazy_sweep_worst_case(shape):
    """Dense panels of p - 1 entries at MAX_PRIME: every elimination step
    adds close to (p - 1)^2 to each unreduced entry, for 64 steps."""
    p = modnum.MAX_PRIME
    nrows, ncols = shape
    a = np.full(shape, p - 1, dtype=np.int64)
    a[np.triu_indices(nrows, 1, ncols)] = 0  # p - 1 on and below the diagonal
    rng = random.Random(ncols)
    for i, j in rng.sample([(i, j) for i in range(nrows)
                            for j in range(ncols)], 50):
        a[i, j] = rng.randrange(p)
    for m in (a, np.full(shape, p - 1, dtype=np.int64)):
        piv, basis = modnum.rref_mod(m, p)
        assert (list(piv), basis.tolist()) == naive_rref(m.tolist(), p)


@pytest.mark.parametrize("p", [2, 3, 7, 32003, 32009, modnum.MAX_PRIME])
def test_inverse_table_inverts_every_residue(p):
    t = modnum.inverse_table(p)
    assert t.shape == (p,) and t[0] == 0
    a = np.arange(1, p, dtype=np.int64)
    assert np.all(a * t[1:] % p == 1)


def test_rref_properties_and_kernel():
    p = 32003
    rng = random.Random(42)
    for trial in range(6):
        nrows, ncols = rng.randrange(5, 40), rng.randrange(5, 160)
        a = np.array(random_matrix(rng, nrows, ncols, p,
                                   rank_cap=rng.randrange(1, 12)),
                     dtype=np.int64)
        piv, basis = modnum.rref_mod(a, p)
        rank = len(piv)
        assert sorted(piv) == list(piv)
        for i, c in enumerate(piv):
            col = basis[:, c]
            assert col[i] == 1 and np.count_nonzero(col) == 1
        K = kernel_from_rref(piv, basis, ncols, p)
        assert K.shape == (ncols, ncols - rank)
        assert not np.any(a @ K % p)
        assert not np.any(basis @ K % p)
        # row spaces agree: stacking changes no ranks
        assert len(modnum.rref_mod(np.vstack([a, basis]), p)[0]) == rank


def test_rref_empty_and_zero():
    piv, basis = modnum.rref_mod(np.zeros((4, 9), dtype=np.int64), 7)
    assert piv == [] and basis.shape == (0, 9)
    piv, basis = modnum.rref_mod(np.zeros((0, 5), dtype=np.int64), 7)
    assert piv == [] and basis.shape == (0, 5)


def test_prime_bound_rejected():
    with pytest.raises(ValueError):
        modnum.rref_mod(np.eye(2, dtype=np.int64), 65537)


def test_batch_rank_matches_per_matrix():
    p = 3
    rng = random.Random(11)
    mats = []
    for _ in range(200):
        cap = rng.choice([None, 1, 2, 3])
        mats.append(random_matrix(rng, 5, 6, p, rank_cap=cap))
    stack = np.array(mats, dtype=np.int64)
    ranks = modnum.batch_rank(stack, p)
    for i in range(len(mats)):
        assert ranks[i] == len(modnum.rref_mod(stack[i], p)[0])
    assert modnum.batch_rank(np.zeros((0, 5, 6), dtype=np.int64), p).size == 0


def test_batch_rank_table_matches_exact():
    from pfaffian_nets.fields import GF
    from pfaffian_nets.matrices import ExactMatrix
    for field in (GF(5), GF(3, 2), GF(2, 3)):
        fc = modnum.field_codes(field)
        rng = random.Random(7)
        mats, exact = [], []
        for _ in range(60):
            em = ExactMatrix(field, [[random_value(field, rng)
                                      for _ in range(6)] for _ in range(5)])
            if rng.random() < 0.5:
                a = ExactMatrix(field, [[random_value(field, rng)
                                         for _ in range(2)] for _ in range(5)])
                b = ExactMatrix(field, [[random_value(field, rng)
                                         for _ in range(6)] for _ in range(2)])
                em = a @ b
            exact.append(em.rank())
            mats.append(em.rows)
        got = modnum.batch_rank_table(fc.encode(mats), fc)
        assert got.tolist() == exact


@pytest.mark.parametrize("q", [(3, 1), (2, 2), (101, 1)], ids=str)
def test_batch_rref_table_matches_exact_rref(q):
    """Ranks, reduced rows and pivot masks against ExactMatrix.rref, with
    code tables over GF(3) and GF(4) and residues mod 101."""
    from pfaffian_nets.fields import GF
    from pfaffian_nets.matrices import ExactMatrix
    field = GF(*q)
    fc = modnum.field_codes(field)
    rng = random.Random(13)
    shapes = [(5, 6), (6, 6), (2, 6), (8, 6), (3, 2)]
    for nrows, ncols in shapes:
        mats = []
        for _ in range(40):
            cap = rng.choice([None, 1, 2])
            rows = [[random_value(field, rng) for _ in range(ncols)]
                    for _ in range(nrows)]
            if cap is not None:
                a = ExactMatrix(field, [[random_value(field, rng)
                                         for _ in range(cap)]
                                        for _ in range(nrows)])
                b = ExactMatrix(field, [[random_value(field, rng)
                                         for _ in range(ncols)]
                                        for _ in range(cap)])
                rows = (a @ b).rows
            mats.append(ExactMatrix(field, rows))
        codes = fc.encode([m.rows for m in mats])
        ranks, reduced, pivots = modnum.batch_rref_table(codes, fc)
        assert ranks.tolist() == modnum.batch_rank_table(codes, fc).tolist()
        for m, rank, red, mask in zip(mats, ranks, reduced, pivots):
            piv, basis = m.rref()
            assert rank == len(piv)
            assert np.nonzero(mask)[0].tolist() == piv
            assert fc.decode(red[:rank]) == basis.rows
            assert not red[rank:].any()


@pytest.mark.parametrize("p", [2, 7])
@pytest.mark.parametrize("shape", [(5, 6), (6, 6), (8, 6), (2, 6), (3, 1)],
                         ids=str)
def test_batch_rref_matches_naive_oracle(p, shape):
    """Stacks mixing zero columns, all-zero matrices and full rank, so that
    a column finds a pivot in some matrices and not in others; and a
    full-rank stack, where every column up to the rank pivots in all."""
    rng = random.Random(31 * p + shape[0])
    nrows, ncols = shape
    mats = [[[0] * ncols for _ in range(nrows)]]
    for _ in range(60):
        mat = random_matrix(rng, nrows, ncols, p,
                            rank_cap=rng.choice([None, 1, 2]))
        for col in range(ncols):
            if rng.random() < 0.2:
                for row in mat:
                    row[col] = 0
        mats.append(mat)
    full = np.eye(nrows, ncols, dtype=np.int64)
    eyes = [(full + np.triu(rng.randrange(p) * np.ones_like(full), 1)) % p
            for _ in range(8)]
    for stack in (np.array(mats, dtype=np.int64), np.array(eyes)):
        ranks, reduced, pivots = modnum._batch_rref(
            stack, modnum.field_codes(GF(p)))
        for mat, rank, red, mask in zip(stack, ranks, reduced, pivots):
            piv, basis = naive_rref(mat.tolist(), p)
            assert rank == len(piv)
            assert np.nonzero(mask)[0].tolist() == piv
            assert red[:rank].tolist() == basis
            assert not red[rank:].any()
    assert (ranks == min(nrows, ncols)).all()


@pytest.mark.parametrize("q", [(2, 1), (2, 2), (7, 1), (2, 3), (3, 2),
                               (2, 6), (101, 1), (32003, 1)], ids=str)
def test_field_codes_match_the_field(q):
    """add, sub and mul against the field's own operations on sampled
    pairs, with inv, zero, one and the encode/decode round trip; tables up
    to order 64, residues above."""
    field = GF(*q)
    fc = modnum.field_codes(field)
    assert fc.q == field.order and modnum.field_codes(field) is fc
    rng = random.Random(q[0] * 10 + q[1])
    values = [random_value(field, rng) for _ in range(120)]
    values += [field.zero_value, field.one_value]
    codes = fc.encode(values)
    assert fc.decode(codes) == values
    assert [fc.decode(int(c)) for c in codes[-4:]] == values[-4:]
    assert (fc.decode(fc.zero), fc.decode(fc.one)) \
        == (field.zero_value, field.one_value)
    a, b = codes[:, None], codes[None, :]
    for op, exact in ((fc.add, field.add), (fc.sub, field.sub),
                      (fc.mul, field.mul)):
        assert fc.decode(op(a, b)) == [[exact(x, y) for y in values]
                                       for x in values]
    nonzero = [(c, x) for c, x in zip(codes.tolist(), values)
               if not field.is_zero_value(x)]
    assert [fc.decode(int(fc.inv[c])) for c, _ in nonzero] \
        == [field.inv(x) for _, x in nonzero]
    assert fc.inv[fc.zero] == 0
    # a stack round-trips with its shape, payload tuples of GF(p^k) included
    stack = [[values[:6], values[6:12]], [values[12:18], values[18:24]]]
    assert fc.encode(stack).shape == (2, 2, 6)
    assert fc.decode(fc.encode(stack)) == stack


@pytest.mark.parametrize("q", [(3, 4), (11, 2), (46349, 1)], ids=str)
def test_field_codes_refuse_fields_without_codes(q):
    """GF(81) and GF(121) are past the tables and not prime; 46349 is past
    MAX_PRIME."""
    with pytest.raises(ValueError):
        modnum.field_codes(GF(*q))


def monomial_values(points, exps, p):
    """Evaluate monomials at many points mod p.

    points: (N, n) int array; exps: (M, n) exponent array.
    Returns (N, M) with entry [i, j] = prod_k points[i, k] ** exps[j, k].
    """
    pts = np.asarray(points, dtype=np.int64) % p
    exps = np.asarray(exps)
    N, n = pts.shape
    M = exps.shape[0]
    out = np.ones((N, M), dtype=np.int64)
    maxe = int(exps.max()) if M else 0
    for k in range(n):
        if not np.any(exps[:, k]):
            continue
        powers = np.empty((maxe + 1, N), dtype=np.int64)
        powers[0] = 1
        for e in range(1, maxe + 1):
            powers[e] = powers[e - 1] * pts[:, k] % p
        out = out * powers[exps[:, k]].T % p
    return out


def test_monomial_values_against_pow():
    p = 32003
    rng = random.Random(5)
    pts = np.array([[rng.randrange(p) for _ in range(4)] for _ in range(50)],
                   dtype=np.int64)
    exps = np.array([[rng.randrange(5) for _ in range(4)] for _ in range(30)])
    vals = monomial_values(pts, exps, p)
    for i in (0, 13, 49):
        for j in (0, 7, 29):
            expected = 1
            for k in range(4):
                expected = expected * pow(int(pts[i, k]), int(exps[j, k]), p) % p
            assert vals[i, j] == expected


def test_addmul_mod_exactness_near_bound():
    # worst-case magnitudes: all entries p-1 with a 64-row inner dimension
    p = modnum.MAX_PRIME
    delta = np.full((3, 64), p - 1, dtype=np.int64)
    rows = np.full((64, 10), p - 1, dtype=np.int64)
    target = np.zeros((3, 10), dtype=np.int64)
    modnum.addmul_mod(target, delta, rows, p)
    expected = 64 * (p - 1) * (p - 1) % p
    assert np.all(target == expected)
