from __future__ import annotations

import json
import random
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from posetcode.code import LinearCode, poset_weight, support_mask
from posetcode.distribution import (
    MDS_LABEL,
    NMDS_LABEL,
    OTHER_LABEL,
    _closed_form_counts,
    _ideal_term,
    _minimal_outside,
    classify,
    distribution,
    distribution_report,
    hamming_nmds_distribution,
    mds_distribution,
    nmds_distribution,
    support_census,
)
from posetcode.field import gf
from posetcode.hierarchy import duality_partition
from posetcode.matrix import Matrix
from posetcode.poset import Poset, load_poset
from conftest import at_ideals
from test_code import PACKING_FIELDS, random_full_rank, spied_tally

DATA = Path(__file__).parent / "data"

# fixture codes used throughout
PAIR = LinearCode.from_generator(gf(2), [(1, 1, 0, 0), (0, 0, 1, 1)])  # NMDS under antichain
PARITY3 = LinearCode.from_generator(gf(2), [(1, 0, 1), (0, 1, 1)])  # MDS under antichain
FULL2 = LinearCode.from_generator(gf(2), [(1, 0), (0, 1)])  # MDS under chain
REP3 = LinearCode.from_generator(gf(2), [(1, 1, 1)])  # MDS under chain


def random_code(rng, n_max=6, k_max=4, length=None):
    while True:
        q = rng.choice([2, 3, 4, 5])
        n = rng.randint(2, n_max) if length is None else length
        k = rng.randint(1, min(k_max, n))
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if Matrix(gf(q), rows).rank() == k:
            return LinearCode.from_generator(gf(q), rows)


def random_poset(rng, n):
    relations = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 1 / 3:
                relations.append((i, j))
    return Poset.from_cover_relations(n, relations)


def test_support_census_methods_agree():
    rng = random.Random(51)
    nrt = Poset.from_cover_relations(6, [(1, 2), (2, 3), (4, 5), (5, 6)])  # two chains of three
    for trial in range(20):
        code = random_code(rng, length=6 if trial % 4 == 0 else None)
        p = random_poset(rng, code.n)
        posets = [p, p.dual(), Poset.chain(code.n), Poset.antichain(code.n)]
        if code.n == 6:
            posets.append(nrt)
        for poset in posets:
            census = support_census(code, poset, "moebius")
            assert census == support_census(code, poset, "enumerate")
            assert all(poset.is_ideal(ideal) and count > 0 for ideal, count in census.items())
    with pytest.raises(ValueError, match="unknown method"):
        support_census(PAIR, Poset.chain(4), "guess")


def test_enumerate_census_never_lists_ideals(monkeypatch):
    # 2**24 ideals would not fit; the enumerate path must stay within q**k
    def refuse(self, size=None):
        raise AssertionError("enumerate census listed the ideals")

    def refuse_closures(self, masks):
        raise AssertionError("enumerate census closed the supports after the stream")

    monkeypatch.setattr(Poset, "ideals", refuse)
    monkeypatch.setattr(Poset, "_ideal_closures", refuse_closures)
    code = LinearCode.from_generator(gf(2), [(1,) * 12 + (0,) * 12, (0,) * 12 + (1,) * 12])
    anti = Poset.antichain(24)
    assert support_census(code, anti, "enumerate") == {0: 1, 0xFFF: 1, 0xFFF000: 1, 0xFFFFFF: 1}
    assert distribution(code, anti)[12] == 2


def test_moebius_census_never_streams_the_code_itself(monkeypatch):
    rng = random.Random(44)
    anti = Poset.antichain(8)
    codes = []
    while len(codes) < 6:
        code = random_code(rng, n_max=8, k_max=8, length=8)
        if code.field.q ** (code.n - code.k) <= 1 << code.n:  # C-perp's zeta fill serves this antichain
            codes.append(code)
    expected = [support_census(code, anti, "enumerate") for code in codes]
    chain = Poset.chain(8)
    on_chain = [support_census(code, chain, "enumerate") for code in codes]
    other = Poset.from_cover_relations(8, [(1, 2), (2, 5), (3, 5), (6, 8)])
    on_other = [support_census(code, other, "enumerate") for code in codes]
    own = {code.generator for code in codes}
    honest = LinearCode._support_batches
    streamed = []

    def guarded(self, *args):
        if self.generator in own:
            raise AssertionError("streamed the code's own words")
        streamed.append(self.generator)
        return honest(self, *args)

    monkeypatch.setattr(LinearCode, "_support_batches", guarded)
    for code, census, chain_census, other_census in zip(codes, expected, on_chain, on_other):
        assert support_census(code, anti, "moebius") == census
        assert streamed[-1] == code.parity  # the census read C-perp's stream
        # a chain, and a poset that is no union of chains: the census reads C-perp's fill or the walk
        assert support_census(code, chain, "moebius") == chain_census
        assert support_census(code, other, "moebius") == other_census
    # the antichain scan itself does stream C where C's stream is not the longer one
    tie = next(code for code in codes if code.k <= code.n - code.k)
    with pytest.raises(AssertionError, match="own words"):
        classify(tie, anti)


def dict_moebius(dims, poset, q, k):
    """The census by the Moebius dict loop over a table read at the ideals (at_ideals)."""
    census = {ideal: q**d for ideal, d in dims.items()}
    for e in reversed(poset.chain_layout().linear_extension()):
        bit = 1 << e
        for ideal in census:
            if ideal & bit and ideal ^ bit in census:
                census[ideal] -= census[ideal ^ bit]
    return {ideal: count for ideal, count in census.items() if count}


@pytest.mark.parametrize(
    ("q", "n", "k", "width"),
    [
        (2, 9, 5, 1),
        (3, 8, 4, 1),
        (5, 8, 3, 1),  # C-perp's 5^5 words exceed 2^8: the walk serves
        (7, 3, 2, 1),
        (2, 10, 8, 2),
        (3, 9, 5, 2),
        (4, 8, 5, 2),
        (5, 6, 4, 2),
        (7, 6, 4, 2),
        (8, 6, 4, 2),
        (9, 7, 3, 2),
        (4, 9, 8, 3),
        (9, 10, 8, 4),  # 9^8 words: over the enumeration cap
        (256, 10, 8, 9),  # 2^64 words: over 2^63
    ],
)
def test_packed_census_matches_enumeration_from_both_sources(q, n, k, width):
    from posetcode.distribution import _moebius

    rng = random.Random(60 + q + n + k)
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if Matrix(gf(q), rows).rank() == k:
            code = LinearCode.from_generator(gf(q), rows)
            break
    assert (q**k).bit_length() // 8 + 1 == width
    anti = Poset.antichain(n)
    walked = code.matroid.walked_dims(anti)
    if q**k <= 1 << 20:
        expected = support_census(code, anti, "enumerate")
    else:
        expected = dict_moebius(at_ideals(anti, walked), anti, q, k)
    assert sum(expected.values()) == q**k
    assert _moebius(anti, walked, k, q) == expected
    dims = code.matroid.census_dims(anti)
    if q ** (n - k) <= 1 << n:
        assert at_ideals(anti, dims) == at_ideals(anti, walked) and dims is code.matroid._dual_fill(anti)
    assert support_census(code, anti, "moebius") == expected


def test_packed_census_refuses_a_borrow_or_a_dim_above_k(monkeypatch):
    from posetcode.distribution import _moebius
    from posetcode.errors import SelfCheckError
    from posetcode.matroid import RankProfile

    code = LinearCode.from_generator(gf(3), [(1, 0, 1, 2, 0, 1), (0, 1, 1, 1, 2, 0), (0, 0, 0, 1, 1, 1)])
    anti = Poset.antichain(6)
    dims = bytearray(code.matroid.walked_dims(anti))
    assert _moebius(anti, bytes(dims), 3, 3) == support_census(code, anti, "enumerate")
    # the full set then holds fewer words than a subset of it
    borrow = dims.copy()
    borrow[-1] = 0
    with pytest.raises(SelfCheckError, match="negative count"):
        _moebius(anti, bytes(borrow), 3, 3)
    # a dim above k is refused once, where the census reads the table
    above = dims.copy()
    above[5] = 4
    monkeypatch.setattr(RankProfile, "census_dims", lambda self, poset: bytes(above))
    with pytest.raises(SelfCheckError, match="dimension 4 > k = 3 at subset 0x5"):
        support_census(code, Poset.antichain(6), "moebius")


def grid_census_posets(rng):
    """Random posets, most of them no union of chains, the v3 file and the
    posets whose grid is far larger than J(P)."""
    posets = [random_poset(rng, rng.randint(2, 8)) for _ in range(12)]
    posets.append(load_poset(DATA / "v3.poset"))
    posets.append(Poset.from_cover_relations(6, [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)]))  # K3,3
    posets.append(Poset.from_cover_relations(6, [(1, 2), (1, 3), (4, 5), (4, 6)]))  # two forks
    return posets


def by_mask(layout, census):
    """A census by grid index as a census by ideal mask."""
    return {layout.ideal(at): count for at, count in census.items()}


@pytest.mark.parametrize("q", PACKING_FIELDS)
def test_grid_census_matches_the_dict_loop_and_enumeration(q):
    # tables from C-perp's fill and from the walk, on posets off the chain unions
    from posetcode.distribution import _moebius

    rng = random.Random(300 + q)
    for poset in grid_census_posets(rng):
        n, layout = poset.n, poset.chain_layout()
        for k in sorted({1, rng.randint(1, n - 1), n - 1, n}):
            if q**k > 1 << 12:
                continue
            code = random_full_rank(rng, q, n, k)
            expected = support_census(code, poset, "enumerate")
            walked = code.matroid.walked_dims(poset)
            assert dict_moebius(at_ideals(poset, walked), poset, q, k) == expected
            assert by_mask(layout, _moebius(poset, walked, k, q)) == expected, (poset, q, k)
            if q ** (n - k) <= layout.size:
                filled = code.matroid._dual_fill(poset)
                assert at_ideals(poset, filled) == at_ideals(poset, walked)
                assert by_mask(layout, _moebius(poset, filled, k, q)) == expected, (poset, q, k)
            assert support_census(code, poset, "moebius") == expected


def test_grid_census_reads_the_ideals_only(monkeypatch):
    # a borrow or a dim above k at an ideal is refused, named by the ideal's
    # mask; a garbage byte where the grid point is no ideal is read by nothing
    from posetcode.distribution import _moebius
    from posetcode.errors import SelfCheckError
    from posetcode.matroid import RankProfile

    rng = random.Random(301)
    for poset in grid_census_posets(rng)[-3:]:
        layout = poset.chain_layout()
        code = random_full_rank(rng, 3, poset.n, 3)
        expected = support_census(code, poset, "enumerate")
        dims = code.matroid.census_dims(poset)
        ideals = [i for i in range(layout.size) if layout.flags[i]]
        garbage = bytearray(dims)
        for i in range(layout.size):
            if not layout.flags[i]:
                garbage[i] = 0 if i % 2 else 200
        monkeypatch.setattr(RankProfile, "census_dims", lambda self, p: bytes(garbage))
        assert support_census(code, poset, "moebius") == expected
        assert distribution_report(code, poset, "moebius").counts == distribution(code, poset, "enumerate")
        borrow = bytearray(garbage)
        borrow[-1] = 0  # the full set then holds fewer words than the ideals below it
        with pytest.raises(SelfCheckError, match=f"negative count at subset {(1 << poset.n) - 1:#x}$"):
            _moebius(poset, bytes(borrow), 3, 3)
        above = bytearray(garbage)
        above[ideals[1]] = 4
        monkeypatch.setattr(RankProfile, "census_dims", lambda self, p: bytes(above))
        with pytest.raises(SelfCheckError, match=f"dimension 4 > k = 3 at subset {layout.ideal(ideals[1]):#x}$"):
            support_census(code, poset, "moebius")
        monkeypatch.undo()


@pytest.mark.parametrize("poset_name", ["nrt7", "antichain"])
def test_census_and_window_refuse_a_poisoned_table(monkeypatch, poset_name):
    # the dict inversion (nrt7) and the packed one (antichain) refuse the same tables
    from posetcode.code import load_code
    from posetcode.errors import SelfCheckError
    from posetcode.matroid import RankProfile

    code = load_code(DATA / "hamming7.code")
    poset = load_poset(DATA / "nrt7.poset") if poset_name == "nrt7" else Poset.antichain(7)
    dims = code.matroid.census_dims(poset)
    assert distribution(code, poset, "moebius") == distribution(code, poset, "enumerate")

    def poison(index, value):
        table = bytearray(dims)
        table[index] = value
        monkeypatch.setattr(RankProfile, "census_dims", lambda self, p: bytes(table))

    # dim 0 at the full set leaves it fewer words than the ideals below it
    poison(-1, 0)
    with pytest.raises(SelfCheckError, match="Moebius census: negative count at subset"):
        distribution(code, poset, "moebius")
    poison(3, 5)
    above = f"Moebius census: shortened dimension 5 > k = 4 at subset {poset.chain_layout().ideal(3):#x}$"
    for read in (lambda: support_census(code, poset, "moebius"), lambda: _closed_form_counts(code, poset, 1)):
        with pytest.raises(SelfCheckError, match=above):
            read()


def test_enumerate_report_refuses_over_cap_before_classifying(monkeypatch):
    from posetcode.matroid import RankProfile

    def refuse(self, poset):
        raise AssertionError("classified before checking the enumeration cap")

    monkeypatch.setattr(RankProfile, "shortened_dims", refuse)
    code = LinearCode.from_generator(gf(2), Matrix.identity(gf(2), 21).rows)
    with pytest.raises(ValueError, match="enumeration cap"):
        distribution_report(code, Poset.antichain(21), "enumerate")


def test_enumerate_census_matches_closures_of_all_codewords():
    # the oracle closes the support of each of the q^k tuple words one at a
    # time, through none of the packed code; k = 1 leaves the stream's high
    # half empty, odd k splits it unevenly, n = 24 fills all three closure
    # tables and the other lengths are not multiples of 8
    rng = random.Random(57)
    for q in PACKING_FIELDS:
        k_max = max(k for k in range(1, 9) if q**k <= 5000)
        shapes = [(24, 1), (rng.choice([5, 10, 13]), min(2, k_max)), (rng.choice([11, 24]), k_max - 1 + k_max % 2)]
        for n, k in shapes:
            code = random_full_rank(rng, q, n, k)
            for poset in (random_poset(rng, n), Poset.chain(n), Poset.antichain(n)):
                expected = Counter(poset.ideal_closure(support_mask(w)) for w in code.codewords())
                assert support_census(code, poset, "enumerate") == expected, (q, n, k)


def counter_census(code, poset):
    """The enumerate census by grid index, by a Counter on the closures of the line stream."""
    q, layout = code.field.q, poset.chain_layout()
    flat = [layout.index(s) for batch in code.support_batches(poset, lines=True) for s in batch]
    census = Counter({at: (q - 1) * count for at, count in Counter(flat[1:]).items()})
    census[flat[0]] += 1
    return dict(census)


def dense_census(code, poset):
    """The enumerate census by grid index, by a list over the grid on the index stream."""
    q, layout = code.field.q, poset.chain_layout()
    flat = [at for batch in code._support_batches(poset.below, True, layout.index_tables()) for at in batch]
    counts = [0] * layout.size
    for at in flat[1:]:
        counts[at] += q - 1
    counts[flat[0]] += 1
    return {at: count for at, count in enumerate(counts) if count}


@pytest.mark.parametrize("q", PACKING_FIELDS)
def test_dense_and_counter_tallies_agree_with_moebius(monkeypatch, q):
    # NRT shapes, chain unions with shuffled labels and posets that are no
    # union of chains, with code sizes on both sides of the rule
    from test_poset import chain_union

    rng = random.Random(91)
    posets = [load_poset(DATA / "nrt4.poset"), load_poset(DATA / "nrt7.poset"), chain_union(rng, [5, 5], False)]
    posets += [chain_union(rng, [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]) for _ in range(3)]
    posets += [poset for poset in (random_poset(rng, rng.randint(4, 10)) for _ in range(6)) if poset.chain_layout().flags]
    served = set()
    for poset in posets:
        ks = [k for k in range(1, poset.n + 1) if q**k <= max(4096, q * q)]  # k = 2 above GF(64)
        for k in sorted({ks[0], ks[len(ks) // 2], ks[-1]}):
            code = random_full_rank(rng, q, poset.n, k)
            census, dense = spied_tally(monkeypatch, code, poset)
            served.add(dense)
            assert census == counter_census(code, poset) == dense_census(code, poset), (poset, k)
            assert by_mask(poset.chain_layout(), census) == support_census(fresh(code), poset, "moebius"), (poset, k)
            report = distribution_report(code, poset, "enumerate")
            assert report.counts == distribution(fresh(code), poset, "moebius"), (poset, k)
            assert report.classification == classify(fresh(code), poset), (poset, k)
    assert served == {False, True}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_closure_tally_is_the_census_by_grid_index(monkeypatch, q):
    # the antichain, NRT shapes, chain unions with shuffled labels and posets
    # that are no union of chains, with code sizes on both sides of the rule;
    # the oracle closes each tuple word and indexes its closure on the grid
    from test_poset import chain_union

    rng = random.Random(93 + q)
    posets = [Poset.antichain(rng.randint(4, 8)), load_poset(DATA / "nrt4.poset"), load_poset(DATA / "nrt7.poset")]
    posets += [chain_union(rng, [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]) for _ in range(2)]
    posets += [poset for poset in (random_poset(rng, rng.randint(4, 9)) for _ in range(6)) if poset.chain_layout().flags]
    served = set()
    for poset in posets:
        layout = poset.chain_layout()
        ks = [k for k in range(1, poset.n + 1) if q**k <= 4096]
        for k in sorted({ks[0], ks[len(ks) // 2], ks[-1]}):
            code = random_full_rank(rng, q, poset.n, k)
            census, dense = spied_tally(monkeypatch, code, poset)
            served.add(dense)
            expected = Counter(layout.index(poset.ideal_closure(support_mask(w))) for w in code.codewords())
            assert census == expected, (poset, q, k)
            for method in ("enumerate", "moebius"):
                assert distribution(fresh(code), poset, method) == distribution_report(fresh(code), poset, method).counts, (poset, q, k, method)
    assert served == {False, True}


def test_dense_census_refuses_a_corrupted_record(monkeypatch):
    from posetcode.errors import SelfCheckError
    from posetcode.matroid import zeta_dims

    rng = random.Random(92)
    honest = LinearCode._support_batches
    nrt4, nrt7 = load_poset(DATA / "nrt4.poset"), load_poset(DATA / "nrt7.poset")
    codes = [(random_full_rank(rng, q, 7, 5), nrt7) for q in (2, 3, 4)] + [(random_full_rank(rng, 3, 4, 4), nrt4)]
    assert all(spied_tally(monkeypatch, code, poset)[1] for code, poset in codes)

    full = {poset.below: poset.chain_layout().size - 1 for _, poset in codes}

    def moved(self, images, lines, index=None):
        # the zero word's closure reported as the full set: no word inside the empty set
        batches = [list(batch) for batch in honest(self, images, lines, index)]
        batches[0][0] = full[images]
        return iter(batches)

    monkeypatch.setattr(LinearCode, "_support_batches", moved)
    for code, poset in codes:
        with pytest.raises(SelfCheckError, match="subset 0x0 are not a power of q"):
            zeta_dims(code, poset)
        with pytest.raises(SelfCheckError, match="not a power of q"):
            distribution_report(code, poset, "enumerate")

    # index 9 of nrt4 lies past its 3 x 3 grid
    def off(self, images, lines, index=None):
        batches = [list(batch) for batch in honest(self, images, lines, index)]
        batches[-1][-1] = 9
        return iter(batches)

    monkeypatch.setattr(LinearCode, "_support_batches", off)
    with pytest.raises(SelfCheckError, match="index 9 off the grid of 9 points"):
        support_census(codes[-1][0], nrt4, "enumerate")


def test_counter_census_refuses_an_index_off_the_grid(monkeypatch):
    # a binary [7,2] code streams 4 lines against the 8 grid points of a 7-chain, so the
    # Counter counts; an index moved past the grid keeps the sum at q^k, yet is refused
    from posetcode.errors import SelfCheckError

    code, poset = random_full_rank(random.Random(94), 2, 7, 2), Poset.chain(7)
    assert not spied_tally(monkeypatch, code, poset)[1]
    honest = LinearCode._support_batches

    def off(self, images, lines, index=None):
        batches = [list(batch) for batch in honest(self, images, lines, index)]
        batches[-1][-1] = 8
        return iter(batches)

    monkeypatch.setattr(LinearCode, "_support_batches", off)
    with pytest.raises(SelfCheckError, match="index 8 off the grid of 8 points"):
        code.closure_tally(poset)
    with pytest.raises(SelfCheckError, match="index 8 off the grid of 8 points"):
        support_census(code, poset, "enumerate")


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("fault", ["drop-first", "drop-last", "repeat"])
def test_enumerate_census_refuses_a_stream_short_or_long_by_a_batch(monkeypatch, q, fault):
    from posetcode.errors import SelfCheckError

    code = random_full_rank(random.Random(58), q, 7, 3)
    honest = LinearCode._support_batches

    def faulty(self, *args):
        batches = list(honest(self, *args))
        if fault == "repeat":
            return iter(batches + batches[-1:])
        return iter(batches[1:] if fault == "drop-first" else batches[:-1])

    # both tallies read this stream: the chain's 8 grid points take the dense one, the antichain's 128 the Counter
    monkeypatch.setattr(LinearCode, "_support_batches", faulty)
    for poset in (Poset.chain(7), Poset.antichain(7)):
        with pytest.raises(SelfCheckError, match=f"not q\\^k = {q**3}"):
            support_census(code, poset, "enumerate")


def test_distribution_fixtures():
    anti4 = Poset.antichain(4)
    assert distribution(PAIR, anti4) == (1, 0, 2, 0, 1)
    assert distribution(PAIR, anti4, "moebius") == (1, 0, 2, 0, 1)
    assert distribution(PARITY3, Poset.antichain(3)) == (1, 0, 3, 0)
    assert distribution(FULL2, Poset.chain(2)) == (1, 1, 2)
    assert distribution(REP3, Poset.chain(3)) == (1, 0, 0, 1)
    with pytest.raises(ValueError, match="unknown method"):
        distribution(PAIR, anti4, "guess")
    with pytest.raises(ValueError, match="poset size"):
        distribution(PAIR, Poset.chain(3))


def test_distribution_methods_agree_and_sum():
    rng = random.Random(52)
    for _ in range(20):
        code = random_code(rng)
        for poset in (random_poset(rng, code.n), Poset.antichain(code.n), Poset.chain(code.n)):
            a = distribution(code, poset, "enumerate")
            b = distribution(code, poset, "moebius")
            assert a == b
            assert sum(a) == code.codeword_count
            assert a[0] == 1


def test_distribution_sums_by_size_off_the_table_and_by_bit_count():
    # the antichain sizes its census by int.bit_count, every other poset off the
    # grid's digit_sums table; either way each codeword's poset weight decides
    rng = random.Random(53)
    for poset in grid_census_posets(rng) + [Poset.antichain(7), Poset.chain(7)]:
        code = random_full_rank(rng, rng.choice([2, 3, 4]), poset.n, rng.randint(1, min(poset.n, 5)))
        expected = [0] * (poset.n + 1)
        for word in code.codewords():
            expected[poset_weight(poset, word)] += 1
        assert distribution(code, poset, "enumerate") == tuple(expected), poset


def test_sparse_census_builds_no_grid_table(monkeypatch):
    # the Golay code's 4 096 words on the 2**24 points of the antichain
    from importlib import import_module

    dist = import_module("posetcode.distribution")

    g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    rows = [[0] * i + g + [0] * (11 - i) for i in range(12)]
    golay = LinearCode.from_generator(gf(2), [row + [sum(row) % 2] for row in rows])

    def refuse(lengths):
        raise AssertionError("built the grid's digit sums")

    monkeypatch.setattr(dist, "digit_sums", refuse)
    expected = [0] * 25
    for weight, count in ((0, 1), (8, 759), (12, 2576), (16, 759), (24, 1)):
        expected[weight] = count
    assert distribution(golay, Poset.antichain(24), "enumerate") == tuple(expected)


def test_classification_fixtures():
    c = classify(PARITY3, Poset.antichain(3))
    assert c.label == MDS_LABEL and c.d1 == 2 and c.d2 == 3
    assert c.dimension_profile_ok is True
    assert c.dual_rank_profile_ok is None and c.column_conditions_ok is None

    c = classify(PAIR, Poset.antichain(4))
    assert c.label == NMDS_LABEL and (c.d1, c.d2) == (2, 4)
    assert c.dimension_profile_ok is True
    assert c.dual_rank_profile_ok is True
    assert c.column_conditions_ok is True
    assert c.d1_witness == (1, 2)

    c = classify(FULL2, Poset.chain(2))
    assert c.label == MDS_LABEL and (c.d1, c.d2) == (1, 2)

    c = classify(REP3, Poset.chain(3))
    assert c.label == MDS_LABEL and c.d1 == 3 and c.d2 is None
    assert c.d1_witness == (1, 2, 3)

    # [3,1] code 110 under the antichain: d1 = 2, neither n-k+1 = 3 nor n-k = 2 with a d2 check
    c = classify(LinearCode.from_generator(gf(2), [(1, 1, 0)]), Poset.antichain(3))
    assert c.label == OTHER_LABEL and c.d1 == 2 and c.d2 is None
    assert c.dimension_profile_ok is None

    d = c.as_dict()
    assert d["label"] == "other" and d["d2"] is None and d["d2_witness"] is None


def per_subset_column_conditions(code):
    """The Hamming NMDS test by one elimination per column subset of H: every
    n-k-1 columns independent, some n-k dependent, every n-k+1 of rank n-k."""
    n, k = code.n, code.k

    def ranks(size):
        for chosen in combinations(range(n), size):
            yield code.parity.column_submatrix(sum(1 << c for c in chosen)).rank()

    return (
        all(r == n - k - 1 for r in ranks(n - k - 1))
        and any(r < n - k for r in ranks(n - k))
        and all(r == n - k for r in ranks(n - k + 1))
    )


def test_column_conditions_match_the_per_subset_eliminations():
    from posetcode.selftest import random_instance

    seen = Counter()
    for seed in range(400):
        code, poset = random_instance(random.Random(seed))
        for p in (poset, Poset.antichain(code.n)):
            c = classify(fresh(code), p)
            if c.label != NMDS_LABEL:
                assert c.column_conditions_ok is None
                continue
            assert c.column_conditions_ok is per_subset_column_conditions(code), (seed, p)
            seen[c.column_conditions_ok] += 1
    assert seen[True] and seen[False], seen


def test_classify_runs_no_elimination(monkeypatch):
    from posetcode.code import load_code

    def refuse(self):
        raise AssertionError("Matrix.rank called")

    fixtures = [(PAIR, "nrt4.poset"), (load_code(DATA / "hamming7.code"), "nrt7.poset"), (load_code(DATA / "simplex7.code"), "nrt7.poset")]
    monkeypatch.setattr(Matrix, "rank", refuse)
    labels = Counter()
    for code, nrt in fixtures:
        for poset in (Poset.antichain(code.n), Poset.chain(code.n), load_poset(DATA / nrt)):
            c = classify(fresh(code), poset)
            assert (c.column_conditions_ok is None) == (c.label != NMDS_LABEL)
            labels[c.label] += 1
    assert labels[NMDS_LABEL] == 8


def test_result_dicts_hold_every_field_in_declaration_order():
    # a field added later cannot drop out of the JSON
    for result in (duality_partition(PAIR, Poset.antichain(4)), classify(PAIR, Poset.antichain(4)), classify(REP3, Poset.chain(3))):
        d = result.as_dict()
        assert list(d) == list(result._fields)
        # immutable, hashable and equal by value
        copy = type(result)(*result)
        assert copy == result and hash(copy) == hash(result)
        with pytest.raises(AttributeError):
            setattr(result, result._fields[0], None)
        for name, value in d.items():
            field = getattr(result, name)
            assert value == (list(field) if isinstance(field, tuple) else field) and not isinstance(value, tuple)
        assert json.loads(json.dumps(d)) == d


def test_mds_distribution_fixtures():
    assert mds_distribution(PARITY3, Poset.antichain(3)) == (1, 0, 3, 0)
    assert mds_distribution(FULL2, Poset.chain(2)) == (1, 1, 2)
    assert mds_distribution(REP3, Poset.chain(3)) == (1, 0, 0, 1)


def test_nmds_distribution_fixture():
    assert nmds_distribution(PAIR, Poset.antichain(4)) == (1, 0, 2, 0, 1)
    assert hamming_nmds_distribution(PAIR) == (1, 0, 2, 0, 1)


def test_closed_form_rejects_wrong_label():
    with pytest.raises(ValueError, match="not MDS.*d1=2.*needed n-k\\+1=3"):
        mds_distribution(PAIR, Poset.antichain(4))
    with pytest.raises(ValueError, match="not NMDS"):
        nmds_distribution(PARITY3, Poset.antichain(3))
    with pytest.raises(ValueError, match="not NMDS under the antichain"):
        hamming_nmds_distribution(PARITY3)


def test_closed_forms_match_enumeration_on_randoms():
    rng = random.Random(53)
    seen_mds = seen_nmds = 0
    for _ in range(120):
        code = random_code(rng)
        for poset in (random_poset(rng, code.n), Poset.antichain(code.n)):
            c = classify(code, poset)
            reference = distribution(code, poset, "enumerate")
            if c.label == MDS_LABEL:
                seen_mds += 1
                assert mds_distribution(code, poset, c) == reference
            elif c.label == NMDS_LABEL:
                seen_nmds += 1
                assert nmds_distribution(code, poset, c) == reference
    assert seen_mds >= 5 and seen_nmds >= 5


def per_ideal_counts(code, poset):
    """[A_0, ..., A_n] by the Moebius inversion of q^(dim C^I) taken ideal by
    ideal: the sum over the sets A of maximal elements of I of
    (-1)^|A| q^(dim C^(I - A)), read off the census table."""
    q = code.field.q
    dim = at_ideals(poset, code.matroid.census_dims(poset))
    counts = [0] * (poset.n + 1)
    for ideal in poset.ideals():
        top = poset.maximal_elements(ideal)
        sub = top
        while True:
            counts[ideal.bit_count()] += (-1) ** sub.bit_count() * q ** dim[ideal ^ sub]
            if not sub:
                break
            sub = (sub - 1) & top
    return counts


def census_test_posets():
    rng = random.Random(56)
    posets = [random_poset(rng, rng.randint(1, 10)) for _ in range(30)]
    posets += [Poset.antichain(n) for n in (1, 5, 10)] + [Poset.chain(n) for n in (1, 6, 12)]
    return posets + [load_poset(path) for path in sorted(DATA.glob("nrt*.poset"))]


def test_closed_form_counts_match_the_per_ideal_loop():
    # every code, not only MDS and NMDS ones: with d1 <= n - k the window holds
    # every ideal whose dim is off D(|J|), of any size
    rng = random.Random(55)
    windows = set()
    for poset in census_test_posets():
        n = poset.n
        for q in (2, 5):
            for k in {1, n, rng.randint(1, n)}:
                code = random_full_rank(rng, q, n, k)
                d1 = classify(code, poset).d1
                dims = at_ideals(poset, code.matroid.census_dims(poset))
                windows.add(sum(dim != max(0, ideal.bit_count() - (n - k)) for ideal, dim in dims.items()))
                assert _closed_form_counts(code, poset, d1) == per_ideal_counts(code, poset), (poset, q, k)
    assert 0 in windows and max(windows) >= 20


def test_ideal_term_is_the_old_alternating_sum():
    # sum_{s=0}^{r-d} (-1)^s C(m, s) (q^(r-d+1-s) - 1), the MDS ideal term with d = n - k + 1
    for q in (2, 3, 7):
        for redundancy in range(5):
            for r in range(1, 9):
                for m in range(1, r + 1):
                    old = sum((-1) ** s * comb(m, s) * (q ** (r - redundancy - s) - 1) for s in range(r - redundancy))
                    assert _ideal_term(r, m, redundancy, q) == old, (q, redundancy, r, m)
    assert _ideal_term(0, 0, 3, 5) == 1


def test_minimal_outside_is_the_dual_posets_maximal_elements():
    for poset in census_test_posets():
        dual, full = poset.dual(), (1 << poset.n) - 1
        for ideal in poset.ideals():
            assert _minimal_outside(poset, ideal) == dual.maximal_elements(full ^ ideal), (poset, ideal)


def test_closed_forms_read_no_ideal_list_maximal_elements_or_dual(monkeypatch):
    rng = random.Random(57)
    nrt7 = load_poset(DATA / "nrt7.poset")
    cases = []
    while sum(label == MDS_LABEL for *_, label in cases) < 8 or sum(label == NMDS_LABEL for *_, label in cases) < 8:
        code = random_code(rng, n_max=7, length=7 if len(cases) % 3 == 0 else None)
        for poset in (random_poset(rng, code.n), Poset.antichain(code.n), nrt7):
            if poset.n == code.n and (label := classify(code, poset).label) != OTHER_LABEL:
                cases.append((code, poset, distribution(code, poset, "enumerate"), label))

    def refuse(*args):
        raise AssertionError("a closed form read the ideal list, the maximal elements or the dual poset")

    for name in ("ideals", "maximal_elements", "dual"):
        monkeypatch.setattr(Poset, name, refuse)
    for code, poset, reference, label in cases:
        closed = mds_distribution if label == MDS_LABEL else nmds_distribution
        assert closed(code, poset) == reference, (code, poset)


def test_nmds_reads_no_census_and_mds_no_table(monkeypatch):
    from importlib import import_module

    from posetcode.matroid import RankProfile

    # the package re-exports the function distribution under the module's name
    distribution_module = import_module("posetcode.distribution")

    rng = random.Random(59)
    nrt7 = load_poset(DATA / "nrt7.poset")
    cases = {MDS_LABEL: [], NMDS_LABEL: []}
    while min(map(len, cases.values())) < 6:
        code = random_code(rng, n_max=7, length=7 if rng.random() < 0.3 else None)
        for poset in (random_poset(rng, code.n), Poset.antichain(code.n), nrt7):
            if poset.n == code.n and (c := classify(code, poset)).label != OTHER_LABEL:
                cases[c.label].append((code, poset, c, distribution(code, poset, "enumerate")))

    def refuse(*args):
        raise AssertionError("a closed form read more than it needs")

    monkeypatch.setattr(distribution_module, "support_census", refuse)
    for code, poset, c, reference in cases[NMDS_LABEL]:
        assert nmds_distribution(code, poset) == reference
    monkeypatch.setattr(RankProfile, "census_dims", refuse)
    for code, poset, c, reference in cases[MDS_LABEL]:
        assert mds_distribution(code, poset, c) == reference


def test_antichain_binomial_form_matches_general_form():
    rng = random.Random(54)
    seen = 0
    for _ in range(150):
        code = random_code(rng)
        poset = Poset.antichain(code.n)
        c = classify(code, poset)
        if c.label != NMDS_LABEL:
            continue
        seen += 1
        general = nmds_distribution(code, poset, c)
        binomial = hamming_nmds_distribution(code)
        reference = distribution(code, poset, "enumerate")
        assert general == binomial == reference
    assert seen >= 5


def test_distribution_report():
    rep = distribution_report(PAIR, Poset.antichain(4), "closed-form")
    assert rep.counts == (1, 0, 2, 0, 1)
    assert rep.as_dict() == {
        "counts": [1, 0, 2, 0, 1],
        "method": "closed-form",
        "classification": "NMDS",
        "d1": 2,
        "d2": 4,
    }
    rep2 = distribution_report(PARITY3, Poset.antichain(3), "closed-form")
    assert rep2.counts == (1, 0, 3, 0) and rep2.classification.label == MDS_LABEL
    rep3 = distribution_report(PAIR, Poset.antichain(4), "moebius")
    assert rep3.counts == (1, 0, 2, 0, 1) and rep3.method == "moebius"
    with pytest.raises(ValueError, match="closed-form needs an MDS or NMDS code"):
        distribution_report(LinearCode.from_generator(gf(2), [(1, 1, 0)]), Poset.antichain(3), "closed-form")
    with pytest.raises(ValueError, match="unknown method"):
        distribution_report(PAIR, Poset.antichain(4), "guess")


def test_mds_under_chain_every_code_is_mds():
    # any code is MDS for some linear order: sort coordinates so pivots sit high
    # (not true in general, but full-space and repetition fixtures above are;
    # here simply check classify agrees with the hierarchy on random chains)
    rng = random.Random(55)
    for _ in range(10):
        code = random_code(rng)
        chain = Poset.chain(code.n)
        c = classify(code, chain)
        from posetcode.hierarchy import weight_hierarchy

        h = weight_hierarchy(code, chain)
        assert c.d1 == h.weights[0]
        if code.k >= 2:
            assert c.d2 == h.weights[1]
        is_mds = c.d1 == code.n - code.k + 1
        assert (c.label == MDS_LABEL) == is_mds


def fresh(code):
    """The same code with no rank tables built yet."""
    return LinearCode.from_generator(code.field, code.generator.rows)


def test_report_classifies_off_its_own_table_as_classify_does():
    from test_poset import chain_union

    rng = random.Random(77)
    posets = [chain_union(rng, [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]) for _ in range(8)]
    posets += [load_poset(DATA / "nrt7.poset"), load_poset(DATA / "v3.poset")]
    for poset in posets:
        n = poset.n
        for q in (2, 3, 5):
            for k in {1, n, rng.randint(1, n)}:
                code = random_full_rank(rng, q, n, k)
                expected = classify(fresh(code), poset)
                for method in ("enumerate", "moebius"):
                    report = distribution_report(fresh(code), poset, method)
                    assert report.classification == expected, (poset, q, k, method)
                    assert report.counts == distribution(fresh(code), poset, method)


def test_enumerate_report_under_a_chain_union_walks_nothing_and_streams_once(monkeypatch):
    import posetcode.matroid as matroid

    def refuse(*args):
        raise AssertionError("walked the ideals")

    honest = LinearCode._support_batches
    streams = []

    def counting(self, *args):
        streams.append(self.generator)
        return honest(self, *args)

    rng = random.Random(78)
    nrt = load_poset(DATA / "nrt7.poset")
    codes = [random_full_rank(rng, 3, 7, k) for k in (2, 4, 6)]  # C's own stream is longer than J(P) for k >= 4
    expected = [classify(fresh(code), nrt) for code in codes]
    monkeypatch.setattr(matroid, "grid_ranks", refuse)
    monkeypatch.setattr(LinearCode, "_support_batches", counting)
    for code, cls_ in zip(codes, expected):
        streams.clear()
        assert distribution_report(code, nrt, "enumerate").classification == cls_
        assert streams == [code.generator]


def test_moebius_report_fills_one_table_on_a_tie(monkeypatch):
    import posetcode.matroid as matroid

    honest = matroid.zeta_dims
    calls = []

    def counting(code, poset):
        calls.append(code.generator)
        return honest(code, poset)

    monkeypatch.setattr(matroid, "zeta_dims", counting)
    rng = random.Random(79)
    for poset in (Poset.antichain(8), load_poset(DATA / "nrt4.poset")):
        n = poset.n
        code = random_full_rank(rng, 2, n, n // 2)  # q^k = q^(n-k): a tie
        calls.clear()
        report = distribution_report(code, poset, "moebius")
        assert calls == [code.parity]  # C-perp's fill, read by the census and the classification
        assert report.classification == classify(fresh(code), poset)
        assert report.counts == distribution(fresh(code), poset, "enumerate")


def test_ideal_profile_product_matches_the_walk():
    from posetcode.distribution import _ideal_profile
    from test_poset import chain_union

    rng = random.Random(80)
    posets = [chain_union(rng, [rng.randint(1, 5) for _ in range(rng.randint(1, 5))], i % 2 == 0) for i in range(20)]
    posets += [Poset.antichain(9), Poset.chain(9)] + census_test_posets()
    for poset in posets:
        walked = Counter((ideal.bit_count(), poset.maximal_elements(ideal).bit_count()) for ideal in poset.ideals())
        assert _ideal_profile(poset) == walked, poset
