from __future__ import annotations

import random
from itertools import product

import pytest

from posetcode.code import (
    LinearCode,
    format_code,
    load_code,
    parse_code,
    poset_weight,
    support_mask,
)
from posetcode.field import gf
from posetcode.matrix import Matrix, matrix_times_col, row_times_matrix
from posetcode.poset import Poset


def naive_codewords(code):
    """Oracle: multiply out every message tuple explicitly."""
    q, k = code.field.q, code.k
    out = []
    for msg in product(range(q), repeat=k):
        # message digit i is msg[i]; ascending encoding means the first
        # coordinate is the fastest-moving digit
        out.append(row_times_matrix(msg, code.generator))
    return out


def stream_order_key(q, k):
    """Message tuples in the ascending base-q order the stream promises."""
    return sorted(product(range(q), repeat=k), key=lambda t: sum(c * q**i for i, c in enumerate(t)))


def test_support_and_weights():
    assert support_mask((0, 1, 1, 0)) == 0b0110
    assert support_mask((0, 0)) == 0
    chain = Poset.chain(4)
    assert poset_weight(chain, (0, 1, 1, 0)) == 3
    assert poset_weight(chain, (0, 0, 0, 0)) == 0
    assert poset_weight(Poset.antichain(4), (0, 1, 1, 0)) == 2
    with pytest.raises(ValueError, match="word length"):
        poset_weight(chain, (1, 0))


def test_codeword_stream_fixture():
    code = LinearCode.from_generator(gf(2), [(1, 1, 0, 0), (0, 0, 1, 1)])
    words = list(code.codewords())
    assert words == [
        (0, 0, 0, 0),
        (1, 1, 0, 0),
        (0, 0, 1, 1),
        (1, 1, 1, 1),
    ]


def test_codeword_stream_matches_naive_oracle():
    rng = random.Random(20)
    for _ in range(25):
        q = rng.choice([2, 3, 4, 5])
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if Matrix(gf(q), rows).rank() < k:
            continue
        code = LinearCode.from_generator(gf(q), rows)
        got = list(code.codewords())
        expect = [row_times_matrix(m, code.generator) for m in stream_order_key(q, k)]
        assert got == expect
        assert len(set(got)) == code.codeword_count


def test_codeword_stream_over_extension_field():
    code = LinearCode.from_generator(gf(4), [(1, 2, 0), (0, 1, 3)])
    words = list(code.codewords())
    assert len(words) == 16 and len(set(words)) == 16
    assert all(code.contains(w) for w in words)
    naive = set(naive_codewords(code))
    assert set(words) == naive


def test_contains_matches_enumeration():
    rng = random.Random(21)
    for _ in range(10):
        q = rng.choice([2, 3])
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if Matrix(gf(q), rows).rank() < k:
            continue
        code = LinearCode.from_generator(gf(q), rows)
        members = set(code.codewords())
        for word in product(range(q), repeat=n):
            assert code.contains(word) == (word in members)


def test_contains_rejects_non_elements_in_full_space():
    # the full space has a parity matrix with no rows, so the word's entries
    # are never multiplied; they must still be checked
    code = LinearCode.from_generator(gf(2), Matrix.identity(gf(2), 3).rows)
    assert code.parity.nrows == 0
    assert code.contains((1, 0, 1))
    with pytest.raises(ValueError, match="not an element"):
        code.contains((7, 9, -3))


def test_codeword_encodes_single_message():
    code = LinearCode.from_generator(gf(3), [(1, 0, 2), (0, 1, 1)])
    # last coordinate: 1*2 + 2*1 = 4 = 1 mod 3
    assert code.codeword((1, 2)) == (1, 2, 1)
    assert code.codeword((0, 0)) == (0, 0, 0)


def test_enumeration_cap():
    code = LinearCode.from_generator(gf(2), Matrix.identity(gf(2), 21).rows)
    with pytest.raises(ValueError, match="enumeration cap"):
        next(code.codewords())


def test_shorten_fixtures():
    code = LinearCode.from_generator(gf(2), [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert code.shorten(0) == (0, ())
    dim, basis = code.shorten(0b1111)
    assert dim == 2 and set(basis) == {(1, 1, 0, 0), (0, 0, 1, 1)}
    dim, basis = code.shorten(0b0011)
    assert dim == 1 and basis == ((1, 1, 0, 0),)
    dim, basis = code.shorten(0b0111)
    assert dim == 1 and basis == ((1, 1, 0, 0),)
    with pytest.raises(ValueError, match="out of range"):
        code.shorten(1 << 4)


def test_shorten_matches_enumeration():
    rng = random.Random(22)
    for _ in range(15):
        q = rng.choice([2, 3, 4])
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if Matrix(gf(q), rows).rank() < k:
            continue
        code = LinearCode.from_generator(gf(q), rows)
        words = list(code.codewords())
        for mask in range(1 << n):
            dim, basis = code.shorten(mask)
            inside = [w for w in words if support_mask(w) & ~mask == 0]
            assert len(inside) == q**dim
            assert all(support_mask(b) & ~mask == 0 for b in basis)
            assert Matrix(gf(q), basis, n).rank() == dim if basis else dim == 0


def test_dualize():
    rng = random.Random(23)
    for _ in range(15):
        q = rng.choice([2, 3, 5])
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if Matrix(gf(q), rows).rank() < k:
            continue
        code = LinearCode.from_generator(gf(q), rows)
        dual = code.dualize()
        assert dual.k == n - k and dual.n == n
        # G H^T = 0: every dual generator row is orthogonal to every row of G
        assert all(not any(matrix_times_col(code.generator, h)) for h in dual.generator.rows)
        # dual of dual is the original row space
        back = dual.dualize()
        assert back.generator.echelon()[0].rows[: back.k] == code.generator.echelon()[0].rows[: code.k]


def test_dualize_full_space_error():
    code = LinearCode.from_generator(gf(2), Matrix.identity(gf(2), 3).rows)
    with pytest.raises(ValueError, match="zero code"):
        code.dualize()


def test_dependent_rows_warn_and_reduce():
    with pytest.warns(UserWarning, match="dimension reduced to k=1"):
        code = LinearCode.from_generator(gf(2), [(1, 1, 0), (1, 1, 0)])
    assert code.k == 1
    with pytest.raises(ValueError, match="zero word"):
        LinearCode.from_generator(gf(2), [(0, 0, 0)])
    with pytest.raises(ValueError, match="at least one generator row"):
        LinearCode.from_generator(gf(2), [])


def test_parse_format_round_trip():
    rng = random.Random(24)
    for _ in range(20):
        q = rng.choice([2, 3, 4, 5, 8])
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if Matrix(gf(q), rows).rank() < k:
            continue
        code = LinearCode.from_generator(gf(q), rows)
        again = parse_code(format_code(code))
        assert again.field.q == q and again.generator.rows == code.generator.rows


def test_parse_code_accepts_comments():
    code = parse_code("# a tiny code\nq 2 n 4 k 2\n1 1 0 0  # row 1\n0 0 1 1\n")
    assert code.n == 4 and code.k == 2


def test_parse_code_errors():
    with pytest.raises(ValueError, match="line 1: expected header"):
        parse_code("2 4 2\n")
    with pytest.raises(ValueError, match="non-integer header"):
        parse_code("q two n 4 k 2\n")
    with pytest.raises(ValueError, match="line 2: matrix entry"):
        parse_code("q 2 n 2 k 1\n1 x\n")
    with pytest.raises(ValueError, match="missing header"):
        parse_code("# empty\n")
    with pytest.raises(ValueError, match="expected 2x3 = 6 matrix entries, got 5"):
        parse_code("q 2 n 3 k 2\n1 0 0\n0 1\n")
    with pytest.raises(ValueError, match="dimension 3 outside 1..2"):
        parse_code("q 2 n 2 k 3\n1 0\n0 1\n1 1\n")
    with pytest.raises(ValueError, match="length 0"):
        parse_code("q 2 n 0 k 0\n")
    with pytest.raises(ValueError):
        parse_code("q 6 n 2 k 1\n1 0\n")  # 6 is not a prime power


def test_load_code(tmp_path):
    f = tmp_path / "c.code"
    f.write_text("q 3 n 3 k 2\n1 0 2\n0 1 1\n")
    code = load_code(f)
    assert code.field.q == 3 and code.k == 2
    with pytest.raises(ValueError, match="cannot read"):
        load_code(tmp_path / "absent.code")
    bad = tmp_path / "bad.code"
    bad.write_text("q 2 n 2 k 1\n9 9\n")
    with pytest.raises(ValueError, match="bad.code"):
        load_code(bad)
