from __future__ import annotations

import random

import pytest

from posetcode.field import gf
from posetcode.matrix import Matrix, matrix_times_col, row_times_matrix


def random_matrix(rng, field, nrows, ncols):
    return Matrix(field, [[rng.randrange(field.q) for _ in range(ncols)] for _ in range(nrows)])


def test_echelon_fixture():
    M = Matrix(gf(2), [(1, 1, 0), (0, 1, 1)])
    R, pivots = M.echelon()
    assert R.rows == ((1, 0, 1), (0, 1, 1))
    assert pivots == (0, 1)


def test_echelon_is_idempotent_and_cached():
    rng = random.Random(0)
    for _ in range(30):
        F = gf(rng.choice([2, 3, 4, 5]))
        M = random_matrix(rng, F, rng.randint(1, 5), rng.randint(1, 6))
        R, pivots = M.echelon()
        R2, pivots2 = R.echelon()
        assert R2 is R and pivots2 == pivots
        # pivot columns hold unit vectors
        for i, c in enumerate(pivots):
            col = [row[c] for row in R.rows]
            assert col[i] == 1 and all(x == 0 for j, x in enumerate(col) if j != i)


def test_null_space_fixture():
    N = Matrix(gf(2), [(1, 1, 1, 1)]).null_space_basis()
    assert N.rows == ((1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1))


def test_null_space_annihilates_and_fills_nullity():
    rng = random.Random(1)
    for _ in range(40):
        F = gf(rng.choice([2, 3, 4, 5, 9]))
        M = random_matrix(rng, F, rng.randint(1, 4), rng.randint(1, 6))
        N = M.null_space_basis()
        assert N.nrows == M.ncols - M.rank()
        assert all(not any(matrix_times_col(M, v)) for v in N.rows)
        assert N.rank() == N.nrows


def test_zero_row_and_zero_column_matrices():
    F = gf(3)
    Z = Matrix(F, (), ncols=4)
    assert Z.rank() == 0
    assert Z.null_space_basis().rows == Matrix.identity(F, 4).rows
    # zero rows with no declared column count is ambiguous
    with pytest.raises(ValueError):
        Matrix(F, ())


def test_column_submatrix():
    F = gf(2)
    M = Matrix(F, [(1, 0, 1, 1), (0, 1, 1, 0)])
    S = M.column_submatrix(0b1010)
    assert S.rows == ((0, 1), (1, 0))
    assert M.column_submatrix(0).ncols == 0
    assert M.column_submatrix(0).rank() == 0
    with pytest.raises(ValueError):
        M.column_submatrix(1 << 4)


def test_column_rank_monotone_and_submodular():
    rng = random.Random(2)
    for _ in range(12):
        F = gf(rng.choice([2, 3, 4]))
        M = random_matrix(rng, F, rng.randint(1, 4), 5)
        ranks = [M.column_submatrix(mask).rank() for mask in range(1 << 5)]
        for a in range(1 << 5):
            assert 0 <= ranks[a] <= bin(a).count("1")
            for b in range(1 << 5):
                assert ranks[a | b] >= ranks[a]
                assert ranks[a | b] + ranks[a & b] <= ranks[a] + ranks[b]


def test_products():
    F = gf(4)
    rng = random.Random(3)
    M = random_matrix(rng, F, 3, 4)
    for e, row in zip(Matrix.identity(F, 3).rows, M.rows):
        assert row_times_matrix(e, M) == row
    v = [rng.randrange(4) for _ in range(3)]
    expect = [0, 0, 0, 0]
    for a, row in zip(v, M.rows):
        expect = [F.add(x, F.mul(a, y)) for x, y in zip(expect, row)]
    assert row_times_matrix(v, M) == tuple(expect)
    w = [rng.randrange(4) for _ in range(4)]
    expect_col = []
    for row in M.rows:
        acc = 0
        for a, b in zip(row, w):
            acc = F.add(acc, F.mul(a, b))
        expect_col.append(acc)
    assert matrix_times_col(M, w) == tuple(expect_col)


def test_shape_and_field_errors():
    F2 = gf(2)
    with pytest.raises(ValueError):
        Matrix(F2, [(1, 0), (1,)])
    with pytest.raises(ValueError):
        Matrix(F2, [(0, 2)])
    A = Matrix(F2, [(1, 0)])
    # vector entries are checked once on entry, wherever they would land
    with pytest.raises(ValueError):
        row_times_matrix((2,), A)
    with pytest.raises(ValueError):
        matrix_times_col(A, (0, 2))
    with pytest.raises(ValueError):
        row_times_matrix((1, 0, 1), A)
    with pytest.raises(ValueError):
        matrix_times_col(A, (1,))


class _Index:
    """Usable as an index, but not an int, so not a field element."""

    def __index__(self) -> int:
        return 1


@pytest.mark.parametrize("q", [3, 256])
def test_rows_are_checked_at_once_and_the_first_bad_entry_named(q):
    F = gf(q)
    for bad in (1.0, -1, q, 256, "1", _Index()):
        message = f"{bad!r} is not an element of GF({q})"
        # rows before it pass; in its own row it comes before another bad entry
        for rows in ([(1, 2, 0), (0, bad, 2)], [(0, 1, 2), (2, bad, q + 7)]):
            with pytest.raises(ValueError) as err:
                Matrix(F, rows)
            assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            row_times_matrix((1, bad), Matrix(F, [(1, 0), (0, 1)]))
        assert str(err.value) == message


def test_bools_are_elements():
    M = Matrix(gf(3), [(True, 0, 2), (False, True, 1)])
    assert M.rows == ((1, 0, 2), (0, 1, 1))
    assert Matrix(gf(2), [(True, False)]).rank() == 1
