from __future__ import annotations

import random
from collections import Counter
from itertools import product

import pytest

from posetcode.bitset import bits_of
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


PACKING_FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 243, 251, 256)


def random_full_rank(rng, q, n, k):
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if Matrix(gf(q), rows).rank() == k:
            return LinearCode.from_generator(gf(q), rows)


def random_poset(rng, n):
    return Poset.from_cover_relations(n, [(i, j) for j in range(2, n + 1) for i in range(1, j) if rng.random() < 2 / n])


def test_support_batches_match_codeword_supports():
    # k = 1 leaves the high half empty; odd k splits unevenly; n = 24 needs
    # all three closure bytes; the other lengths are not multiples of 8
    rng = random.Random(25)
    for q in PACKING_FIELDS:
        k_max = max(k for k in range(1, 9) if q**k <= 5000)
        shapes = [(24, 1), (24, min(3, k_max)), (rng.randint(2, 7), min(2, k_max)), (rng.choice([9, 13, 17]), k_max)]
        for n, k in shapes:
            code = random_full_rank(rng, q, n, k)
            batches = list(code.support_batches())
            assert len(batches) == q ** (k // 2)
            assert all(len(batch) == q ** ((k + 1) // 2) for batch in batches)
            flat = [s for batch in batches for s in batch]
            assert flat == [support_mask(w) for w in code.codewords()], (q, n, k)
            # given a poset, the stream yields the closures, batch for batch
            poset = random_poset(rng, n)
            closures = list(code.support_batches(poset))
            assert closures == [poset._ideal_closures(batch) for batch in batches], (q, n, k)
            assert [s for batch in closures for s in batch] == [
                poset.ideal_closure(support_mask(w)) for w in code.codewords()
            ], (q, n, k)


def test_line_stream_holds_one_word_per_line():
    # the zero word once and q - 1 copies of every other support must give
    # back the supports of all q^k codewords; k = 1 leaves the high half
    # empty, odd k splits unevenly, and for q = 2 the lines are all words
    rng = random.Random(28)
    for q in PACKING_FIELDS:
        k_max = max(k for k in range(1, 9) if q**k <= 5000)
        odd = k_max - 1 + k_max % 2
        shapes = [(24, 1), (rng.choice([9, 13, 17]), min(2, k_max)), (rng.choice([11, 24]), odd)]
        for n, k in shapes:
            code = random_full_rank(rng, q, n, k)
            for poset in (None, random_poset(rng, n)):
                close = (lambda s: s) if poset is None else poset.ideal_closure
                lines = list(code.support_batches(poset, lines=True))
                flat = [s for batch in lines for s in batch]
                assert len(flat) == 1 + (q**k - 1) // (q - 1), (q, n, k)
                assert flat[0] == 0 and 0 not in flat[1:], (q, n, k)
                expected = Counter(close(support_mask(w)) for w in code.codewords())
                multiples = Counter({s: (q - 1) * c for s, c in Counter(flat[1:]).items()})
                assert multiples + Counter({0: 1}) == expected, (q, n, k)
                if q == 2:
                    assert lines == list(code.support_batches(poset)), (n, k)


def key_bits(layout):
    """Width of the compact keys from their definition: byte o of a mask meets
    each chain in a part, which takes len(part).bit_length() bits."""
    return sum(sum(e // 8 == o for e in chain).bit_length() for o in range(3) for chain in layout.chains)


def key_test_posets(rng):
    """Chains, antichains, NRT shapes, chain unions with shuffled labels and
    posets that are no union of chains; key widths of one to three bytes."""
    from test_poset import chain_union

    posets = [Poset.antichain(n) for n in (1, 5, 9)] + [Poset.chain(n) for n in (1, 7, 8, 24)]
    posets += [chain_union(rng, [5] * 4, False), chain_union(rng, [2] * 12, False), chain_union(rng, [6] * 4)]
    posets += [chain_union(rng, [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]) for _ in range(8)]
    return posets + [random_poset(rng, rng.randint(2, 10)) for _ in range(8)]


def test_compact_keys_are_injective_on_the_grid():
    from test_poset import chain_union

    rng = random.Random(29)
    for poset in key_test_posets(rng):
        layout = poset.chain_layout()
        bits, weights = layout.key_weights()
        assert bits == key_bits(layout), poset
        keys = layout.grid_keys()
        assert len(keys) == layout.size and len(set(keys)) == layout.size, poset
        assert max(keys) < 1 << bits
        for at in rng.sample(range(layout.size), min(layout.size, 300)):
            assert keys[at] == sum(weights[e] for e in bits_of(layout.ideal(at))), (poset, at)
    # NRT 4 x 5 in blocks: byte parts of 5 and 3, of 2, 5 and 1, and of 4 elements
    assert chain_union(rng, [5] * 4, False).chain_layout().key_weights()[0] == 3 + 2 + 2 + 3 + 1 + 3
    assert Poset.antichain(9).chain_layout().key_weights() == (9, [1 << e for e in range(9)])


def test_key_stream_sums_the_weights_of_each_closure():
    # every packing field; keys of one, two and three bytes, in records of 2 and 4
    rng = random.Random(30)
    posets = key_test_posets(rng)
    for q in PACKING_FIELDS:
        k_max = max(k for k in range(1, 9) if q**k <= 5000)
        for poset in posets[5:10] + rng.sample(posets, 3):
            code = random_full_rank(rng, q, poset.n, rng.randint(1, min(k_max, poset.n)))
            layout = poset.chain_layout()
            weights = layout.key_weights()[1]
            closures = [s for batch in code.support_batches(poset, lines=True) for s in batch]
            keys = [key for batch in code._support_batches(poset.below, True, layout.key_tables()) for key in batch]
            assert keys == [sum(weights[e] for e in bits_of(s)) for s in closures], (q, poset)


def spied_tally(monkeypatch, code, poset):
    """(closure_tally's census, whether the dense tally served), told by the keys
    it hands the stream: the dense tally passes layout.key_tables(), the Counter none."""
    honest, passed = LinearCode._support_batches, []

    def spy(self, images, lines, keys=None):
        passed.append(keys)
        return honest(self, images, lines, keys)

    with monkeypatch.context() as patch:
        patch.setattr(LinearCode, "_support_batches", spy)
        census = code.closure_tally(poset)
    assert len(passed) == 1 and passed[0] in (None, poset.chain_layout().key_tables())
    return census, passed[0] is not None


def test_dense_tally_serves_exactly_where_the_keys_are_no_more_than_the_lines(monkeypatch):
    rng = random.Random(31)
    # at the switch: 8 keys of a 7-chain against 2^3 binary lines, and 32 keys
    # of the 5-antichain against 1 + (5^3 - 1)/4 = 32 lines over GF(5)
    pinned = [(Poset.chain(7), 2, 2, False), (Poset.chain(7), 2, 3, True), (Poset.chain(7), 2, 4, True)]
    pinned += [(Poset.antichain(5), 5, 2, False), (Poset.antichain(5), 5, 3, True), (Poset.antichain(6), 5, 3, False)]
    for poset, q, k, dense in pinned:
        assert spied_tally(monkeypatch, random_full_rank(rng, q, poset.n, k), poset)[1] == dense, (poset, q, k)
    served = set()
    for poset in key_test_posets(rng):
        for q in (2, 3, 4, 5, 7):
            k = rng.randint(1, min(poset.n, max(k for k in range(1, 13) if q**k <= 5000)))
            dense = 1 << key_bits(poset.chain_layout()) <= 1 + (q**k - 1) // (q - 1)
            assert spied_tally(monkeypatch, random_full_rank(rng, q, poset.n, k), poset)[1] == dense, (poset, q, k)
            served.add(dense)
    assert served == {False, True}


def test_a_grid_larger_than_the_lines_takes_the_counter(monkeypatch):
    # under NRT 12 x 2, 3^12 grid points against 2^6 lines, and the 24-antichain,
    # the Counter counts, and its census is the codewords' closures by grid index
    from test_poset import chain_union

    rng = random.Random(33)
    for poset in (chain_union(rng, [2] * 12), Poset.antichain(24)):
        code, layout = random_full_rank(rng, 2, 24, 6), poset.chain_layout()
        census, dense = spied_tally(monkeypatch, code, poset)
        assert not dense
        assert census == Counter(layout.index(poset.ideal_closure(support_mask(w))) for w in code.codewords())


def test_support_batches_refuse_a_poset_of_another_length():
    code = LinearCode.from_generator(gf(3), [(1, 2, 0, 1)])
    with pytest.raises(ValueError, match="poset size 5 != code length 4"):
        code.support_batches(Poset.chain(5))


def test_support_batches_beyond_three_chunks():
    # codes are not bound by the poset size limit: n = 25 and 33 need a
    # fourth and a fifth closure byte, and n = 65 and 70 closures longer
    # than one 8-byte record limb
    rng = random.Random(27)
    for q in (2, 3, 4, 9):
        for n in (25, 33, 65, 70):
            code = random_full_rank(rng, q, n, 2)
            flat = [s for batch in code.support_batches() for s in batch]
            assert flat == [support_mask(w) for w in code.codewords()], (q, n)


def test_packed_span_adds_in_every_field():
    # a span of two rows makes the packed sum of two nonzero words, which
    # the stream only needs for k >= 3, out of reach of the cap for q > 101
    from posetcode.code import _PackedWords

    rng = random.Random(26)
    for q in PACKING_FIELDS:
        field = gf(q)
        n = rng.randint(1, 9)
        rows = Matrix(field, [[rng.randrange(q) for _ in range(n)] for _ in range(2)])
        packed = _PackedWords(field, n)
        combos = [row_times_matrix((c0, c1), rows) for c1 in range(q) for c0 in range(q)]
        assert packed.span(rows.rows) == [packed.pack(w) for w in combos], q


def test_packed_sum_is_digitwise_mod_p_for_every_prime():
    # the SWAR add of span and the rank walk, on every digit pair: the
    # narrowest fields with p <= 2**(w-1), none carrying into the next
    from posetcode.code import _PackedWords

    for p in (p for p in range(2, 256) if all(p % d for d in range(2, p))):
        packed = _PackedWords(gf(p), p)
        shift = packed.width - 1
        assert p <= 1 << shift < 2 * p, p
        digits = list(range(p))
        x = packed.pack(digits)
        for r in range(p):
            other = digits[r:] + digits[:r]
            s = x + packed.pack(other)
            got = s - (((s + packed.carry) & packed.top) >> shift) * p
            assert got == packed.pack([(a + b) % p for a, b in zip(digits, other)]), (p, r)


def test_support_batches_refuse_before_packing(monkeypatch):
    def refuse(field, n):
        raise AssertionError("packed words before checking the cap")

    monkeypatch.setattr("posetcode.code._PackedWords", refuse)
    code = LinearCode.from_generator(gf(2), Matrix.identity(gf(2), 21).rows)
    with pytest.raises(ValueError, match="enumeration cap"):
        code.support_batches()


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


def subcode_sizes(code):
    """|C^J| for every subset J: the codewords() supports, summed over subsets."""
    counts = [0] * (1 << code.n)
    for word in code.codewords():
        counts[support_mask(word)] += 1
    for e in range(code.n):
        for mask in range(1 << code.n):
            if mask >> e & 1:
                counts[mask] += counts[mask ^ (1 << e)]
    return counts


# (n, k) per field: k = 1, k = n with q^n <= 4096, n = 12, and one mixed shape
SOLVER_SHAPES = {
    2: [(1, 1), (12, 1), (12, 12), (12, 5), (9, 4)],
    3: [(1, 1), (12, 1), (7, 7), (12, 4), (9, 5)],
    4: [(1, 1), (12, 1), (6, 6), (12, 3), (9, 4)],
    5: [(1, 1), (12, 1), (5, 5), (12, 3), (9, 2)],
    8: [(1, 1), (12, 1), (4, 4), (12, 2), (9, 3)],
}


@pytest.mark.parametrize("q", sorted(SOLVER_SHAPES))
def test_shorten_dims_match_shorten_and_subcode_sizes(q):
    rng = random.Random(60 + q)
    for n, k in SOLVER_SHAPES[q]:
        code = random_full_rank(rng, q, n, k)
        dims = code.shorten_dims()
        assert isinstance(dims, bytes) and len(dims) == 1 << n
        sizes = subcode_sizes(code)
        for mask in range(1 << n):
            assert dims[mask] == code.shorten(mask)[0], (q, n, k, mask)
            assert q ** dims[mask] == sizes[mask], (q, n, k, mask)


def test_shorten_is_the_null_space_basis():
    # byte for byte the (dim, basis) of the column null space of G outside J,
    # for every subset, k = 1 and k = n among the shapes
    rng = random.Random(66)
    for q in sorted(SOLVER_SHAPES):
        for n, k in [(1, 1), (4, 4), (5, 1), (6, 3), (7, rng.randint(1, 7))]:
            code = random_full_rank(rng, q, n, k)
            full = (1 << n) - 1
            for mask in range(1 << n):
                outside = code.generator.column_submatrix(full ^ mask)
                messages = Matrix(code.field, zip(*outside.rows), ncols=outside.nrows).null_space_basis()
                expected = (messages.nrows, tuple(row_times_matrix(m, code.generator) for m in messages.rows))
                got = code.shorten(mask)
                assert got == expected, (q, n, k, mask)
                assert all(type(word) is tuple for word in got[1])


def test_shorten_dims_refuse_above_table_limit():
    code = LinearCode.from_generator(gf(2), [tuple(1 for _ in range(17))])
    with pytest.raises(ValueError, match="n <= 16"):
        code.shorten_dims()


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


def test_parse_code_names_the_first_token_int_refuses_with_its_line():
    # int() takes "1_0", so the first refused token is "x"
    with pytest.raises(ValueError) as err:
        parse_code("q 3 n 3 k 1\n1 1_0 x\n")
    assert str(err.value) == "line 2: matrix entry 'x' is not an integer"
    with pytest.raises(ValueError) as err:
        parse_code("q 2 n 3 k 3\n1 0 0\n\n# a comment\n0 1 0  # x\n0 0.5 z\n")
    assert str(err.value) == "line 6: matrix entry '0.5' is not an integer"


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
