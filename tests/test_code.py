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


def element_strides(layout):
    """Each element's stride from the definition: chain c's elements weigh the
    product of s_b + 1 over the chains b before it."""
    strides, stride = {}, 1
    for chain in layout.chains:
        strides.update((e, stride) for e in chain)
        stride *= len(chain) + 1
    return strides


def index_test_posets(rng):
    """Index widths of one, two and three bytes (a 7-chain, NRT 4 x 5 in blocks,
    V + 14 with its 98 304 grid points), the antichain, where the index is the
    mask, shuffled chain unions and posets that are no union of chains."""
    from test_poset import chain_union

    posets = [Poset.chain(7), chain_union(rng, [5] * 4, False), Poset.from_cover_relations(17, [(1, 3), (2, 3)])]
    posets += [Poset.antichain(9), Poset.chain(1), chain_union(rng, [2] * 12, False), chain_union(rng, [6] * 4)]
    posets += [chain_union(rng, [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]) for _ in range(6)]
    return posets + [random_poset(rng, rng.randint(2, 10)) for _ in range(6)]


def test_index_stream_sums_the_strides_of_each_closure():
    # every packing field; indexes of one, two and three bytes, in records of 2 and 4
    rng = random.Random(30)
    posets = index_test_posets(rng)
    assert [poset.chain_layout().index_tables()[0] for poset in posets[:3]] == [1, 2, 3]
    assert posets[2].chain_layout().size == 98304 and posets[2].chain_layout().flags
    for q in PACKING_FIELDS:
        k_max = max(k for k in range(1, 9) if q**k <= 5000)
        for poset in posets[:4] + rng.sample(posets[4:], 3):
            code = random_full_rank(rng, q, poset.n, rng.randint(1, min(k_max, poset.n)))
            layout, strides = poset.chain_layout(), element_strides(poset.chain_layout())
            closures = [s for batch in code.support_batches(poset, lines=True) for s in batch]
            supports = [s for batch in code.support_batches(lines=True) for s in batch]
            indexes = [at for batch in code._support_batches(poset.below, True, layout.index_tables()) for at in batch]
            assert indexes == [sum(strides[e] for e in bits_of(s)) for s in closures], (q, poset)
            assert indexes == [layout.index(poset.ideal_closure(s)) for s in supports], (q, poset)


def spied_tally(monkeypatch, code, poset):
    """(closure_tally's census, whether the list tally served), told by a spy
    on posetcode.code's Counter, which only the other tally builds.  The census
    makes one stream call, handing it the index tables off the antichain."""
    import posetcode.code

    honest, streams, counters = LinearCode._support_batches, [], []

    def stream(self, images, lines, index=None):
        streams.append(index)
        return honest(self, images, lines, index)

    class Spy(Counter):
        def __init__(self, *args):
            counters.append(self)
            super().__init__(*args)

    layout = poset.chain_layout()
    with monkeypatch.context() as patch:
        patch.setattr(LinearCode, "_support_batches", stream)
        patch.setattr(posetcode.code, "Counter", Spy)
        census = code.closure_tally(poset)
    assert streams == [None if layout.size == 1 << poset.n else layout.index_tables()] and len(counters) <= 1
    return census, not counters


def test_dense_tally_serves_exactly_where_the_grid_is_no_larger_than_the_lines(monkeypatch):
    rng = random.Random(31)
    # at the switch: the 8 grid points of a 7-chain against 2^3 binary lines, and
    # the 32 of the 5-antichain against 1 + (5^3 - 1)/4 = 32 lines over GF(5);
    # one line fewer or one point more takes the Counter
    pinned = [(Poset.chain(7), 2, 2, False), (Poset.chain(7), 2, 3, True), (Poset.chain(8), 2, 3, False), (Poset.chain(7), 2, 4, True)]
    pinned += [(Poset.antichain(5), 5, 2, False), (Poset.antichain(5), 5, 3, True), (Poset.antichain(6), 5, 3, False)]
    for poset, q, k, dense in pinned:
        assert spied_tally(monkeypatch, random_full_rank(rng, q, poset.n, k), poset)[1] == dense, (poset, q, k)
    served = set()
    for poset in index_test_posets(rng):
        for q in (2, 3, 4, 5, 7):
            k = rng.randint(1, min(poset.n, max(k for k in range(1, 13) if q**k <= 5000)))
            dense = poset.chain_layout().size <= 1 + (q**k - 1) // (q - 1)
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


def monic(code):
    """Whether each message, in order, is the zero word or monic: its last nonzero
    digit (the leading one) is 1, as support_batches(lines=True) keeps them."""
    q, out = code.field.q, []
    for m in range(code.codeword_count):
        while m >= q:
            m //= q
        out.append(m < 2)
    return out


def spied_stream(monkeypatch, code, images, lines, index=None):
    """(batches, values per lane of every _lane_pieces call): the call list is empty
    where the stream XORed the low span per high word."""
    import posetcode.code

    honest, calls = posetcode.code._lane_pieces, []

    def spy(lane, values, reached):
        calls.append(values)
        return honest(lane, values, reached)

    with monkeypatch.context() as patch:
        patch.setattr(posetcode.code, "_lane_pieces", spy)
        batches = [list(batch) for batch in code._support_batches(images, lines, index)]
    return batches, calls


def stream_test_codes(rng):
    """(code, path) over every packing field, on both sides of the per-value rule:
    True where it must translate per value, False per word, None either way."""
    codes = []
    for q in PACKING_FIELDS:
        k_max = max(k for k in range(1, 13) if q**k <= 4096)
        codes += [(random_full_rank(rng, q, rng.choice([9, 13, 20]), k_max), None), (random_full_rank(rng, q, rng.randint(2, 9), 1), None)]
    # a ternary [20,10] code takes at most 27 values a byte against 121 monic high words (243
    # in all); GF(256) and GF(243) take a full high span for k = 2, one monic word
    codes += [(random_full_rank(rng, 3, 20, 10), True), (random_full_rank(rng, 256, 2, 2), None), (random_full_rank(rng, 243, 2, 2), None)]

    def full_rank_with(n, prefixes):
        while True:
            rows = [prefix + [rng.randrange(2) for _ in range(n - len(prefix))] for prefix in prefixes]
            if Matrix(gf(2), rows).rank() == len(rows):
                return LinearCode.from_generator(gf(2), rows)

    # a slot byte holds 4 binary coordinates: high rows holding e_1 .. e_4 on the first byte
    # give it all 16 values, against 32 high words for k = 10 and 64, a quarter, for k = 12
    units = [[int(i == j) for j in range(4)] for i in range(4)]
    codes.append((full_rank_with(16, [[]] * 5 + units + [[]]), False))
    codes.append((full_rank_with(20, [[]] * 6 + units + [[]] * 2), False))
    # 128 high words vanish on the first 8 coordinates: one value in two bytes, at most 16 in the others
    codes.append((full_rank_with(16, [[]] * 7 + [[0] * 8] * 7), True))
    return codes


def test_both_stream_paths_match_the_tuple_stream(monkeypatch):
    # masks, closures and grid indexes, with and without lines, against the supports of
    # codewords(); a spy on _lane_pieces tells the paths apart.  k = 1 leaves no high word or one
    rng = random.Random(37)
    posets = index_test_posets(rng)
    paths, single = set(), False
    for code, path in stream_test_codes(rng):
        n, poset = code.n, rng.choice([p for p in posets if p.n == code.n] or [random_poset(rng, code.n)])
        layout, keep = poset.chain_layout(), monic(code)
        supports = [support_mask(w) for w in code.codewords()]
        closures = list(map(poset.ideal_closure, supports))
        for images, expected in (([1 << i for i in range(n)], supports), (poset.below, closures)):
            for lines in (False, True):
                batches, calls = spied_stream(monkeypatch, code, images, lines)
                assert [s for batch in batches for s in batch] == [s for s, kept in zip(expected, keep) if kept or not lines], (code, lines)
                paths.add(bool(calls))
                single |= any(len(values) == 1 for values in calls)
                assert path is None or bool(calls) == path, (code, lines)
        batches, calls = spied_stream(monkeypatch, code, poset.below, True, layout.index_tables())
        assert [at for batch in batches for at in batch] == [layout.index(s) for s, kept in zip(closures, keep) if kept], (code, poset)
        assert path is None or bool(calls) == path, code
    assert paths == {False, True} and single


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
