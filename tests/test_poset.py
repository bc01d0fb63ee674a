from __future__ import annotations

import hashlib
import random
import sys
from functools import cache
from itertools import combinations
from math import prod
from pathlib import Path
from types import GeneratorType

import pytest

import posetcode.poset as poset_module
from posetcode.bitset import bits_of, digit_sums, from_elements, to_elements
from posetcode.errors import SelfCheckError
from posetcode.poset import Poset, _grid_sums, digit_masks, format_poset, load_poset, parse_poset


def random_poset(rng, n):
    """Random partial order: transitive closure of relations on a shuffled order."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    relations = []
    for a, b in combinations(range(n), 2):
        if rng.random() < 0.4:
            relations.append((perm[a], perm[b]))
    return Poset.from_cover_relations(n, relations)


def ideals_by_filter(p):
    """Independent oracle: test downward closure of every subset directly."""
    out = []
    for mask in range(1 << p.n):
        ok = True
        for j in range(p.n):
            if mask >> j & 1 and p.below[j] & ~mask:
                ok = False
                break
        if ok:
            out.append(mask)
    return tuple(out)


def test_v_shape_fixture():
    # 1 < 3 and 2 < 3
    p = Poset.from_cover_relations(3, [(1, 3), (2, 3)])
    assert p.ideals() == (0b000, 0b001, 0b010, 0b011, 0b111)
    assert p.ideal_closure(0b100) == 0b111
    assert p.maximal_elements(0b111) == 0b100
    assert p.maximal_elements(0b011) == 0b011
    assert p.cover_relations() == ((1, 3), (2, 3))


def test_chain_and_antichain():
    c = Poset.chain(4)
    assert c.ideals() == (0b0000, 0b0001, 0b0011, 0b0111, 0b1111)
    assert c.ideal_closure(0b1000) == 0b1111
    assert c.maximal_elements(0b0111) == 0b0100
    a = Poset.antichain(3)
    assert a.ideals() == tuple(range(8))
    assert all(a.is_ideal(m) for m in range(8))
    assert a.maximal_elements(0b101) == 0b101


def test_ideal_walk_matches_filter_oracle():
    rng = random.Random(7)
    for _ in range(40):
        p = random_poset(rng, rng.randint(1, 6))
        assert p.ideals() == ideals_by_filter(p)


def test_closure_properties():
    rng = random.Random(8)
    for _ in range(20):
        p = random_poset(rng, 6)
        for mask in range(1 << 6):
            c = p.ideal_closure(mask)
            assert c & mask == mask
            assert p.is_ideal(c)
            assert p.ideal_closure(c) == c
            # minimality: no ideal between mask and c other than c
            for j in p.ideals():
                if j & mask == mask:
                    assert j & c == c


def naive_closure(p, mask):
    out = 0
    for j in range(p.n):
        if mask >> j & 1:
            out |= p.below[j]
    return out


def test_closure_tables_match_downset_union():
    rng = random.Random(9)
    for _ in range(30):
        p = random_poset(rng, rng.randint(1, 10))
        assert all(p.ideal_closure(m) == naive_closure(p, m) for m in range(1 << p.n))
    for _ in range(3):
        p = random_poset(rng, 24)
        for _ in range(2000):
            m = rng.getrandbits(24)
            assert p.ideal_closure(m) == naive_closure(p, m)
    with pytest.raises(ValueError, match="out of range"):
        p.ideal_closure(1 << 24)
    with pytest.raises(ValueError, match="out of range"):
        p.ideal_closure(-1)


def test_maximal_elements_requires_ideal():
    p = Poset.chain(3)
    with pytest.raises(ValueError):
        p.maximal_elements(0b100)


def test_dual_is_involution_and_reverses():
    rng = random.Random(10)
    for _ in range(20):
        p = random_poset(rng, 5)
        d = p.dual()
        assert d.dual() == p
        for i in range(5):
            for j in range(5):
                assert (p.below[j] >> i & 1) == (d.below[i] >> j & 1)


def test_dual_swaps_chain_direction():
    assert Poset.chain(3).dual().ideals() == (0b000, 0b100, 0b110, 0b111)
    assert Poset.antichain(4).dual() == Poset.antichain(4)


def test_from_cover_relations_accepts_redundant_pairs():
    # 1<2<3 plus the implied 1<3, and repeated pairs
    p = Poset.from_cover_relations(3, [(1, 2), (2, 3), (1, 3)])
    assert p == Poset.chain(3)
    assert p.cover_relations() == ((1, 2), (2, 3))
    assert Poset.from_cover_relations(3, [(1, 2), (2, 3), (1, 2), (1, 3), (2, 3), (1, 2)]) == p
    with pytest.raises(ValueError, match="cycle"):
        Poset.from_cover_relations(3, [(1, 2), (1, 2), (2, 3), (3, 1)])
    rng = random.Random(75)
    for _ in range(150):
        poset = random_poset(rng, rng.randint(1, 10))
        covers = list(poset.cover_relations())
        relations = covers + rng.choices(covers, k=4) if covers else []
        rng.shuffle(relations)
        assert Poset.from_cover_relations(poset.n, relations) == poset, relations


def naive_covers(p):
    """Covering pairs by definition: i < j and no g with i < g < j."""

    def below(a, b):
        return a != b and p.below[b] >> a & 1

    return tuple(
        (i + 1, j + 1)
        for i in range(p.n)
        for j in range(p.n)
        if below(i, j) and not any(below(i, g) and below(g, j) for g in range(p.n))
    )


def test_cover_relations_match_the_definition():
    rng = random.Random(74)
    for _ in range(120):
        poset = random_poset(rng, rng.randint(1, 12))
        assert poset.cover_relations() == naive_covers(poset), poset.below
        assert Poset.from_cover_relations(poset.n, poset.cover_relations()) == poset


def test_from_cover_relations_errors():
    with pytest.raises(ValueError, match="cycle"):
        Poset.from_cover_relations(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError, match="reflexive"):
        Poset.from_cover_relations(2, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Poset.from_cover_relations(2, [(1, 3)])
    with pytest.raises(ValueError, match="outside"):
        Poset.from_cover_relations(25, [])
    with pytest.raises(ValueError, match="outside"):
        Poset.antichain(0)


def test_constructor_validates_masks():
    with pytest.raises(ValueError, match="own downset"):
        Poset(2, (0b01, 0b01))
    with pytest.raises(ValueError, match="transitive"):
        # 1 below 2, 2 below 3, but 1 missing from 3's downset
        Poset(3, (0b001, 0b011, 0b110))
    with pytest.raises(ValueError, match="antisymmetry"):
        Poset(2, (0b11, 0b11))
    with pytest.raises(ValueError, match="2 downset masks for 3"):
        Poset(3, (0b001, 0b010))


def test_parse_format_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        p = random_poset(rng, rng.randint(1, 7))
        assert parse_poset(format_poset(p)) == p


def test_parse_accepts_comments_and_blanks():
    p = parse_poset("# relations below\nn 3\n\n1 < 3  # left leg\n2 < 3\n")
    assert p == Poset.from_cover_relations(3, [(1, 3), (2, 3)])


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1: expected header"):
        parse_poset("3\n1 < 2\n")
    with pytest.raises(ValueError, match="line 2: expected '<i> < <j>'"):
        parse_poset("n 3\n1 2\n")
    with pytest.raises(ValueError, match="line 3: relation endpoints"):
        parse_poset("n 3\n1 < 2\ntwo < 3\n")
    with pytest.raises(ValueError, match="not an integer"):
        parse_poset("n three\n")
    with pytest.raises(ValueError, match="missing header"):
        parse_poset("# nothing here\n")


def test_load_poset(tmp_path):
    f = tmp_path / "p.poset"
    f.write_text(format_poset(Poset.chain(4)))
    assert load_poset(f) == Poset.chain(4)
    with pytest.raises(ValueError, match="cannot read"):
        load_poset(tmp_path / "absent.poset")
    bad = tmp_path / "bad.poset"
    bad.write_text("n 2\n1 < 1\n")
    with pytest.raises(ValueError, match="bad.poset"):
        load_poset(bad)


def test_digest_stable_and_distinguishes():
    a = Poset.chain(3).digest()
    assert a == Poset.chain(3).digest()
    assert len(a) == 12
    assert a != Poset.antichain(3).digest()


@pytest.mark.parametrize("blocked", [(), ("_sha2",), ("_sha2", "_sha256")])
def test_digest_is_the_sha256_of_the_poset_text_along_every_import(monkeypatch, blocked):
    # a None in sys.modules refuses the import: the first pass takes the built-in
    # module (_sha2 from 3.12, _sha256 before), the last hashlib; a fresh cache
    # for the test imports again
    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setattr(poset_module, "_sha256", cache(poset_module._sha256.__wrapped__))
    honest, calls = hashlib.sha256, []
    monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(data) or honest(data))
    rng = random.Random(31)
    presets = [make(n) for make in (Poset.chain, Poset.antichain) for n in (1, 4, 24)]
    for p in presets + [random_poset(rng, rng.randint(1, 16)) for _ in range(20)]:
        digest = p.digest()
        assert digest == honest(format_poset(p).encode()).hexdigest()[:12], format_poset(p)
        assert p.digest() is digest
    if "_sha256" in blocked:
        assert len(calls) == len(presets) + 20


def test_bitset_element_round_trip():
    mask = from_elements([1, 3, 4], 4)
    assert mask == 0b1101 and to_elements(mask) == (1, 3, 4)


def chain_union(rng, lengths, shuffle=True):
    """Disjoint union of chains of the given lengths, labels shuffled or in blocks."""
    n = sum(lengths)
    labels = list(range(1, n + 1))
    if shuffle:
        rng.shuffle(labels)
    relations, at = [], 0
    for s in lengths:
        chain = labels[at : at + s]
        relations += zip(chain, chain[1:])
        at += s
    return Poset.from_cover_relations(n, relations)


def test_chain_layout_indexes_every_ideal_once():
    rng = random.Random(71)
    for trial in range(40):
        lengths = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        poset = chain_union(rng, lengths, shuffle=trial % 2 == 0)
        layout = poset.chain_layout()
        assert sorted(layout.lengths) == sorted(lengths) and sum(layout.lengths) == poset.n
        # each chain bottom up, the chains by least element
        assert [min(chain) for chain in layout.chains] == sorted(min(chain) for chain in layout.chains)
        for chain in layout.chains:
            assert all(poset.below[b] & ~poset.below[a] == 1 << b for a, b in zip(chain, chain[1:]))
        ideals = ideals_by_filter(poset)
        assert poset.ideals() == ideals and layout.size == len(ideals)
        assert sorted(map(layout.index, ideals)) == list(range(layout.size))
        assert all(layout.ideal(layout.index(ideal)) == ideal for ideal in ideals)
        assert digit_sums(layout.lengths) == bytes(layout.ideal(i).bit_count() for i in range(layout.size))
        # index order is mask order where the chains run 0..n-1 upwards, as they do unshuffled
        assert layout.mask_ordered or trial % 2 == 0
        assert not layout.mask_ordered or sorted(ideals, key=layout.index) == list(ideals)
        assert layout.opposite() == poset.dual()
        # complementing an ideal reverses its index: the complement is an ideal of the opposite poset
        full, opposite = (1 << poset.n) - 1, layout.opposite().chain_layout()
        assert all(opposite.index(full ^ ideal) == layout.size - 1 - layout.index(ideal) for ideal in ideals)


def test_chain_layout_of_presets_and_of_posets_that_are_no_union_of_chains():
    # chain unions keep their own chains; every other poset gets a grid with the ideals flagged
    anti = Poset.antichain(10).chain_layout()
    assert anti.lengths == (1,) * 10 and anti.size == 1 << 10 and anti.flags is None
    assert all(anti.index(mask) == mask for mask in range(1 << 10))
    assert Poset.chain(6).chain_layout().lengths == (6,)
    data = Path(__file__).parent / "data"
    assert load_poset(data / "nrt4.poset").chain_layout().chains == ((0, 1), (2, 3))
    assert load_poset(data / "nrt7.poset").chain_layout().chains == ((0, 1, 2), (3, 4, 5), (6,))
    for poset in (
        parse_poset("n 3\n1 < 3\n2 < 3\n"),  # v3: two elements below one
        parse_poset("n 3\n1 < 2\n1 < 3\n"),  # one element below two
        parse_poset("n 4\n1 < 2\n2 < 3\n4 < 3\n"),
    ):
        layout = poset.chain_layout()
        assert layout.lengths in ((2, 1), (1, 2), (3, 1), (1, 3)) and layout.flags.count(0) > 0
    rng = random.Random(72)
    for _ in range(60):
        n = rng.randint(2, 9)
        relations = [(i, j) for j in range(2, n + 1) for i in range(1, j) if rng.random() < 0.3]
        poset = Poset.from_cover_relations(n, relations)
        # a disjoint union of chains: every element covers at most one and is covered by at most one
        covers = poset.cover_relations()
        is_union = all(
            sum(i == e for i, _ in covers) <= 1 and sum(j == e for _, j in covers) <= 1 for e in range(1, n + 1)
        )
        assert (poset.chain_layout().flags is None) == is_union, poset


def width(poset):
    """Largest antichain, by brute force over every subset."""
    below = poset.below
    return max(
        mask.bit_count()
        for mask in range(1 << poset.n)
        if all(below[b] & mask == 1 << b for b in range(poset.n) if mask >> b & 1)
    )


def test_chain_layout_of_random_posets_flags_exactly_the_ideals():
    rng = random.Random(73)
    for trial in range(80):
        poset = random_poset(rng, rng.randint(1, 9))
        layout, n = poset.chain_layout(), poset.n
        # a minimum chain partition (Dilworth), each chain bottom up
        assert len(layout.chains) == width(poset)
        assert sorted(e for chain in layout.chains for e in chain) == list(range(n))
        for chain in layout.chains:
            assert all(poset.below[b] >> a & 1 for a, b in zip(chain, chain[1:]))
        ideals = ideals_by_filter(poset)
        assert poset.ideals() == ideals
        flags = layout.flags if layout.flags is not None else b"\1" * layout.size
        assert flags.count(1) == len(ideals) and all(flags[layout.index(ideal)] for ideal in ideals)
        assert all(layout.ideal(layout.index(ideal)) == ideal for ideal in ideals)
        assert not layout.mask_ordered or sorted(ideals, key=layout.index) == list(ideals)
        opposite = layout.opposite()
        assert opposite == poset.dual()
        assert opposite.chain_layout().chains == tuple(chain[::-1] for chain in layout.chains)
        assert opposite.chain_layout().flags == (None if layout.flags is None else layout.flags[::-1])
        # complementing an ideal reverses its index: the complement is an ideal of the opposite poset
        full = (1 << n) - 1
        assert all(opposite.chain_layout().index(full ^ ideal) == layout.size - 1 - layout.index(ideal) for ideal in ideals)


def grid_points(lengths):
    """The digits x of every grid point, by index: chain 0's digit runs fastest."""
    points = [()]
    for s in lengths:
        points = [x + (d,) for d in range(s + 1) for x in points]
    return points


def prefix_set(layout, x):
    """S_x by definition: the first x_c elements of each chain c."""
    return sum(1 << e for chain, d in zip(layout.chains, x) for e in chain[:d])


def fields(mask, width, size):
    """The width-bit fields of a packed mask, none past the grid."""
    assert mask >> width * size == 0
    return [mask >> width * i & (1 << width) - 1 for i in range(size)]


def strides_of(lengths):
    return [prod(s + 1 for s in lengths[:c]) for c in range(len(lengths))]


def dict_digit_masks(lengths, value):
    """digit_masks by a dict loop: chains from the last, digits t = 1..s_c up,
    value at every point whose digit c is t - 1."""
    points, strides = grid_points(lengths), strides_of(lengths)
    return [
        (strides[c], [value if x[c] == t - 1 else 0 for x in points])
        for c in reversed(range(len(lengths)))
        for t in range(1, lengths[c] + 1)
    ]


def dict_ideal_steps(layout, value, down):
    """ideal_steps by a dict loop: for e the t-th of chain c, value at every x
    with x_c = t - 1 whose S_x holds everything below e.  On a chain union
    the chains from the last, each up (down when down); elsewhere along
    linear_extension(), reversed when down."""
    if layout.flags is None:
        order = [e for chain in reversed(layout.chains) for e in (chain[::-1] if down else chain)]
    else:
        order = layout.linear_extension()[:: -1 if down else 1]
    points, strides = grid_points(layout.lengths), strides_of(layout.lengths)
    where = {e: (c, chain.index(e)) for c, chain in enumerate(layout.chains) for e in chain}
    steps = []
    for e in order:
        c, t = where[e]
        strict = layout.below[e] ^ 1 << e
        steps.append((strides[c], [value if x[c] == t and not strict & ~prefix_set(layout, x) else 0 for x in points]))
    return steps


def step_posets():
    """Chain unions (antichain, one chain, NRT shapes, shuffled unions), then
    posets that are none (v3, K3,3, two forks, random posets)."""
    rng, data = random.Random(76), Path(__file__).parent / "data"
    unions = [Poset.antichain(6), Poset.chain(5), load_poset(data / "nrt4.poset"), load_poset(data / "nrt7.poset")]
    unions += [chain_union(rng, [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]) for _ in range(6)]
    others = [
        load_poset(data / "v3.poset"),
        Poset.from_cover_relations(6, [(i, j) for i in range(1, 4) for j in range(4, 7)]),
        parse_poset("n 6\n1 < 2\n1 < 3\n4 < 5\n4 < 6\n"),
    ]
    others += [random_poset(rng, rng.randint(4, 8)) for _ in range(12)]
    return unions, others


def test_digit_masks_and_ideal_steps_match_the_dict_loop():
    unions, others = step_posets()
    assert all(p.chain_layout().flags is None for p in unions)
    assert sum(p.chain_layout().flags is not None for p in others) >= 10
    for poset in unions + others:
        layout = poset.chain_layout()
        for width, value in ((8, 1), (16, 0x7FFF)):
            expected = dict_digit_masks(layout.lengths, value)
            got = [(stride, fields(mask, width, layout.size)) for stride, mask in digit_masks(layout.lengths, width, value)]
            assert got == expected, layout.lengths
            for down in (False, True):
                steps = layout.ideal_steps(width, value, down=down)
                got = [(stride, fields(mask, width, layout.size)) for stride, mask in steps]
                assert got == dict_ideal_steps(layout, value, down), (poset, down)


def pass_posets():
    """The antichain, a chain, NRT 3x4 and a shuffled 3 + 2 + 1 union, then
    step_posets' posets that are no union of chains (V, K3,3, two forks,
    random posets)."""
    rng = random.Random(78)
    unions = [Poset.antichain(6), Poset.chain(5), chain_union(rng, [4, 4, 4], shuffle=False), chain_union(rng, [3, 2, 1])]
    return unions, step_posets()[1]


def dict_zeta(lengths, census):
    """The prefix sum of a census by index over the grid, by a dict loop: at
    x, the counts at every y <= x, digit by digit."""
    points = grid_points(lengths)
    return [sum(count for at, count in census.items() if all(a <= b for a, b in zip(points[at], x))) for x in points]


def pass_censuses(seed, ideals_only):
    """(layout, wb, census) on pass_posets(), fields of 1-3 bytes: counts at
    up to 12 grid points, or ideals, none of whose sums reaches the top bit
    of a field, the guard of moebius."""
    rng = random.Random(seed)
    unions, others = pass_posets()
    assert all(p.chain_layout().flags is None for p in unions)
    assert sum(p.chain_layout().flags is not None for p in others) >= 10
    for poset in unions + others:
        layout = poset.chain_layout()
        points = list(map(layout.index, poset.ideals())) if ideals_only else range(layout.size)
        for wb in (1, 2, 3):
            top = ((1 << 8 * wb - 1) - 1) // 12
            yield layout, wb, {at: rng.randint(1, top) for at in rng.sample(points, min(len(points), 12))}


def test_zeta_matches_the_dict_loop():
    for layout, wb, census in pass_censuses(79, ideals_only=False):
        data = layout.zeta(census, wb)
        assert [int.from_bytes(data[i * wb : (i + 1) * wb], "little") for i in range(layout.size)] == dict_zeta(layout.lengths, census)


def test_moebius_undoes_the_dict_zeta():
    # field x starts at values[x]: the zeta of a census at the ideals, under the guard bit
    for layout, wb, census in pass_censuses(80, ideals_only=True):
        size, guard = layout.size, 1 << 8 * wb - 1
        assert size <= 256
        values = [total | guard for total in dict_zeta(layout.lengths, census)]
        assert layout.moebius(bytes(range(size)), values, wb) == census, (layout.chains, wb)
        values[size - 1] = guard  # the full set holds no word, fewer than the ideals below it
        with pytest.raises(SelfCheckError, match="negative count"):
            layout.moebius(bytes(range(size)), values, wb)


def test_maximal_counts_match_the_maximal_elements():
    for posets in pass_posets():
        for poset in posets:
            layout, ideals = poset.chain_layout(), poset.ideals()
            counts = layout.maximal_counts()
            assert len(counts) == layout.size
            assert [counts[layout.index(i)] for i in ideals] == [poset.maximal_elements(i).bit_count() for i in ideals], poset


def test_linear_extension_puts_each_element_after_everything_below_it():
    unions, others = step_posets()
    rng = random.Random(77)
    for poset in unions + others + [random_poset(rng, rng.randint(1, 12)) for _ in range(60)]:
        layout = poset.chain_layout()
        order = layout.linear_extension()
        assert sorted(order) == list(range(poset.n))
        position = {e: j for j, e in enumerate(order)}
        assert all(position[i] < position[e] for e in order for i in bits_of(poset.below[e] ^ 1 << e)), poset
        if layout.flags is None:
            # the chains one after another, each bottom up
            assert order == [e for chain in layout.chains for e in chain]


def test_grid_sums_are_the_sets_and_their_indexes():
    from test_code import element_strides

    unions, others = step_posets()
    for poset in unions + others:
        layout = poset.chain_layout()
        sets = [prefix_set(layout, x) for x in grid_points(layout.lengths)]
        assert _grid_sums(layout.chains, [1 << e for e in range(poset.n)]) == sets
        assert [layout.ideal(i) for i in range(layout.size)] == sets
        strides = element_strides(layout)
        assert _grid_sums(layout.chains, [strides[e] for e in range(poset.n)]) == list(range(layout.size))
        assert [layout.index(s) for s in sets] == list(range(layout.size))


def test_index_refuses_a_set_that_is_no_prefix_set():
    # element 3 of the 3-chain without 1 and 2; a bit past the 3-antichain; under
    # V (1 < 3, 2 < 3, chains 1 < 3 and 2) the set {1, 3} is an S_x, {3} none
    with pytest.raises(ValueError, match="subset 0x4 is no S_x"):
        Poset.chain(3).chain_layout().index(0b100)
    with pytest.raises(ValueError, match="subset 0x20 is no S_x"):
        Poset.antichain(3).chain_layout().index(1 << 5)
    with pytest.raises(ValueError, match="subset -0x1 is no S_x"):
        Poset.antichain(3).chain_layout().index(-1)
    v = Poset.from_cover_relations(3, [(1, 3), (2, 3)]).chain_layout()
    assert v.chains == ((0, 2), (1,)) and v.index(0b101) == 2
    for mask in (0b100, 0b110):
        with pytest.raises(ValueError, match=f"subset {mask:#x} is no S_x"):
            v.index(mask)


def frames_of(gen):
    """The frames of a suspended generator and of every generator it holds."""
    frames, todo = [], [gen]
    while todo:
        g = todo.pop()
        if g is not None and g.gi_frame is not None:
            frames.append(g.gi_frame)
            todo += [v for v in g.gi_frame.f_locals.values() if isinstance(v, GeneratorType)]
            todo.append(g.gi_yieldfrom if isinstance(g.gi_yieldfrom, GeneratorType) else None)
    return frames


@pytest.mark.parametrize("down", [False, True])
def test_suspended_ideal_steps_hold_no_buffer_past_one_field(down):
    # a step's join buffers are as long as the grid: the generator drops them before it yields
    unions, others = step_posets()
    for poset in unions + others:
        gen = poset.chain_layout().ideal_steps(16, 0x7FFF, down=down)
        for _ in gen:
            held = [len(v) for frame in frames_of(gen) for v in frame.f_locals.values() if isinstance(v, (bytes, bytearray))]
            assert max(held, default=0) <= 2, (poset, held)
