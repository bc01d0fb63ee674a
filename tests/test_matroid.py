from __future__ import annotations

import random
from pathlib import Path

import pytest

from posetcode.bitset import bits_of
from posetcode.code import LinearCode, load_code
from posetcode.distribution import classify
from posetcode.errors import SelfCheckError
from posetcode.field import gf
from posetcode.hierarchy import duality_partition, weight_hierarchy
from posetcode.matrix import Matrix
from posetcode.poset import Poset, load_poset
from posetcode.matroid import (
    AxiomReport,
    AxiomViolation,
    IdentityReport,
    RankProfile,
    _columns,
    _reducer,
    check_complement_rank_identity,
    check_rank_axioms,
    grid_ranks,
    zeta_dims,
)

from conftest import at_ideals
from test_code import PACKING_FIELDS
from test_poset import ideals_by_filter


def random_code(rng, n_max=6, length=None):
    while True:
        q = rng.choice([2, 3, 4, 5])
        n = rng.randint(1, n_max) if length is None else length
        k = rng.randint(1, n)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if Matrix(gf(q), rows).rank() == k:
            return LinearCode.from_generator(gf(q), rows)


def violates(t, v) -> bool:
    """Whether the table t really breaks axiom v.axiom at the witnesses of v."""
    a, b = v.set_a, v.set_b
    if v.axiom == "R1":
        return not 0 <= t[a] <= a.bit_count()
    if v.axiom == "R2":
        return a & ~b == 0 and t[a] > t[b]
    return t[a | b] + t[a & b] > t[a] + t[b]


def definitional_violation(t) -> bool:
    """R1 on every A, R2 on every A <= B, R3 on every pair (A, B)."""
    size = len(t)
    if any(not 0 <= t[a] <= a.bit_count() for a in range(size)):
        return True
    for a in range(size):
        for b in range(size):
            if a & ~b == 0 and t[a] > t[b]:
                return True
            if t[a | b] + t[a & b] > t[a] + t[b]:
                return True
    return False


def test_rank_matches_direct_elimination():
    rng = random.Random(30)
    nrt = Poset.from_cover_relations(6, [(1, 2), (2, 3), (4, 5), (5, 6)])  # two chains of three
    for trial in range(20):
        code = random_code(rng, length=6 if trial % 2 == 0 else None)
        profile = RankProfile(code)
        for mask in range(1 << code.n):
            assert profile.rank(mask) == code.generator.column_submatrix(mask).rank()
            assert profile.dual_rank(mask) == code.parity.column_submatrix(mask).rank()
        # the per-poset table: dim C^I = |I| - rank of the parity columns on every ideal
        relations = [
            (i, j)
            for i in range(1, code.n + 1)
            for j in range(i + 1, code.n + 1)
            if rng.random() < 1 / 3
        ]
        posets = [
            Poset.from_cover_relations(code.n, relations),
            Poset.chain(code.n),
            Poset.antichain(code.n),
        ]
        if code.n == 6:
            posets.append(nrt)
        for poset in posets:
            for ideal, dim in at_ideals(poset, profile.shortened_dims(poset)).items():
                assert dim == ideal.bit_count() - code.parity.column_submatrix(ideal).rank()


def unpruned_ranks(poset, field, columns):
    """{ideal: rank of the columns it indexes} on every ideal, by a walk
    that never stops at full rank: along the layout's linear extension, each
    ideal is its parent plus one element, reduced in by one kernel call."""
    extend, order = _reducer(field, columns), poset.chain_layout().linear_extension()
    need = [poset.below[e] ^ 1 << e for e in order]
    ranks, stack = {}, [(0, 0, ())]
    while stack:
        first, ideal, basis = stack.pop()
        assert ideal not in ranks
        ranks[ideal] = len(basis)
        for j in range(first, poset.n):
            if not need[j] & ~ideal:
                stack.append((j + 1, ideal | 1 << order[j], extend(basis, order[j])))
    return ranks


@pytest.mark.parametrize("q", PACKING_FIELDS)
def test_packed_walk_matches_column_rank(q):
    # at every ideal the walk's rank, and the unpruned walk's, are those of a
    # direct elimination on the columns it indexes, under random posets, the
    # antichain and the NRT files; k = n leaves H no rows and n - k = 1 one
    rng = random.Random(q)
    data = Path(__file__).parent / "data"
    for poset in (
        load_poset(data / "nrt4.poset"),
        load_poset(data / "nrt7.poset"),
        Poset.antichain(6),
        Poset.from_cover_relations(7, [(i, j) for j in range(2, 8) for i in range(1, j) if rng.random() < 0.3]),
    ):
        n, layout = poset.n, poset.chain_layout()
        for k in sorted({n, n - 1, rng.randint(1, n - 1)}):
            code = full_rank_code(rng, q, n, k)
            for mat in (code.parity, code.generator):
                grid = grid_ranks(layout, code.field, _columns(mat))
                walk = unpruned_ranks(poset, code.field, _columns(mat))
                assert sorted(walk) == list(ideals_by_filter(poset))
                for ideal, rank in walk.items():
                    assert rank == grid[layout.index(ideal)] == mat.column_submatrix(ideal).rank(), (q, n, k, ideal)


def nrt(chains, length):
    pairs = [(c * length + i, c * length + i + 1) for c in range(chains) for i in range(1, length)]
    return Poset.from_cover_relations(chains * length, pairs)


@pytest.mark.parametrize("q", PACKING_FIELDS)
def test_grid_walk_matches_the_unpruned_walk_and_column_rank(q):
    # the pruned grid table, by layout index, against unpruned_ranks, which
    # reaches every ideal, and a direct elimination; k = n leaves H no rows,
    # so every ideal is full rank, and n - k = 1 gives H one
    from test_poset import chain_union

    rng = random.Random(90 + q)
    data = Path(__file__).parent / "data"
    posets = (
        load_poset(data / "nrt4.poset"),
        load_poset(data / "nrt7.poset"),
        chain_union(rng, [2, 3, 1]),
        chain_union(rng, [1, 2, 2, 1]),
        Poset.chain(6),
        Poset.antichain(6),
    )
    for poset in posets:
        n, layout = poset.n, poset.chain_layout()
        for k in sorted({1, n, n - 1, rng.randint(1, n)}):
            code = full_rank_code(rng, q, n, k)
            for mat in (code.generator, code.parity):
                grid = grid_ranks(layout, code.field, _columns(mat))
                walked = unpruned_ranks(poset, code.field, _columns(mat))
                assert len(grid) == len(walked) == layout.size
                for index, rank in enumerate(grid):
                    ideal = layout.ideal(index)
                    assert rank == walked[ideal] == mat.column_submatrix(ideal).rank(), (poset, q, k, ideal)
            # walked_dims reads the grid on H: |I| - rank_H(I) at every ideal
            dims = at_ideals(poset, code.matroid.walked_dims(poset))
            assert dims == {ideal: ideal.bit_count() - walked[ideal] for ideal in poset.ideals()}


def counting_reducer(monkeypatch):
    """Wrap the reduction kernel: every call is counted, and none may reduce
    a column against a basis that is already full."""
    import posetcode.matroid as matroid

    honest, calls = matroid._reducer, []

    def counting(field, columns):
        extend, full = honest(field, columns), len(columns[0])

        def counted(basis, e):
            assert len(basis) < full, "reduced a column against a full basis"
            calls.append(e)
            return extend(basis, e)

        return counted

    monkeypatch.setattr(matroid, "_reducer", counting)
    return calls


def walk_parent(layout, index):
    """The index of the ideal the grid walk extends to reach a nonempty one:
    one element less on the last chain it meets."""
    strides = [1]
    for s in layout.lengths:
        strides.append(strides[-1] * (s + 1))
    c = max(c for c, s in enumerate(layout.lengths) if index // strides[c] % (s + 1))
    return index - strides[c]


def test_grid_walk_stops_at_full_rank(monkeypatch):
    # the walk reduces a column exactly where the ideal it extends is below
    # full rank: fewer reductions than the |J(P)| - 1 of a walk over every ideal
    rng = random.Random(91)
    cases = [(nrt(4, 5), full_rank_code(rng, 3, 20, 10))]  # 592 of its 1 296 ideals have full rank
    cases += [(Poset.antichain(8), full_rank_code(rng, q, 8, k)) for q, k in ((2, 4), (5, 2), (4, 7), (3, 8))]
    cases += [(nrt(3, 4), full_rank_code(rng, 9, 12, 6)), (Poset.chain(7), full_rank_code(rng, 2, 7, 3))]
    expected = [unpruned_ranks(poset, code.field, _columns(code.parity)) for poset, code in cases]
    calls = counting_reducer(monkeypatch)
    for (poset, code), ranks in zip(cases, expected):
        layout, full = poset.chain_layout(), code.n - code.k
        by_index = [ranks[layout.ideal(index)] for index in range(layout.size)]
        calls.clear()
        assert list(grid_ranks(layout, code.field, _columns(code.parity))) == by_index
        assert len(calls) == sum(by_index[walk_parent(layout, i)] < full for i in range(1, layout.size))
        assert len(calls) < layout.size - 1, (poset, code.k)


def walk_order(poset):
    """The walk's order: among the elements whose strict downsets are
    placed, the first in chain order (each chain bottom up, the chains as
    the layout orders them)."""
    chains, order, placed = [list(chain) for chain in poset.chain_layout().chains], [], 0
    while len(order) < poset.n:
        chain = next(chain for chain in chains if chain and poset.below[chain[0]] & ~placed == 1 << chain[0])
        order.append(chain.pop(0))
        placed |= 1 << order[-1]
    return order


def test_walk_off_the_chain_unions_stops_at_full_rank(monkeypatch):
    # forks, V plus isolated points and random posets that are no disjoint
    # union of chains: walked_dims reduces a column exactly where the ideal
    # it extends, the ideal less its last element in the walk's order, is
    # below full rank, fewer than the |J(P)| - 1 reductions of a walk over
    # every ideal, and never against a full basis; the table holds
    # |I| - rank_H(I) at every ideal
    rng = random.Random(94)
    forks5 = Poset.from_cover_relations(15, [(3 * i + 1, 3 * i + b) for i in range(5) for b in (2, 3)])
    cases = [(forks5, full_rank_code(rng, 2, 15, 10)), (forks5, full_rank_code(rng, 4, 15, 12))]
    cases.append((Poset.from_cover_relations(12, [(1, 3), (2, 3)]), full_rank_code(rng, 3, 12, 8)))
    while len(cases) < 12:
        n = rng.randint(5, 10)
        poset = Poset.from_cover_relations(n, [(i, j) for j in range(2, n + 1) for i in range(1, j) if rng.random() < 0.3])
        if poset.chain_layout().flags is not None:
            cases.append((poset, full_rank_code(rng, PACKING_FIELDS[len(cases) % len(PACKING_FIELDS)], n, rng.randint(n // 2, n - 1))))
    expected = [unpruned_ranks(poset, code.field, _columns(code.parity)) for poset, code in cases]
    calls = counting_reducer(monkeypatch)
    for (poset, code), ranks in zip(cases, expected):
        assert sorted(ranks) == list(ideals_by_filter(poset))
        position = {e: j for j, e in enumerate(walk_order(poset))}
        parents = [ideal ^ 1 << max(bits_of(ideal), key=position.get) for ideal in ranks if ideal]
        calls.clear()
        dims = at_ideals(poset, RankProfile(code).walked_dims(poset))
        assert dims == {ideal: ideal.bit_count() - rank for ideal, rank in ranks.items()}
        assert len(calls) == sum(ranks[parent] < code.n - code.k for parent in parents), poset
        assert len(calls) < len(ranks) - 1, (poset, code.k)


def test_reducer_returns_a_full_basis_at_once():
    # as many rows as the columns have coordinates: no row is read
    import posetcode.matroid as matroid

    code = full_rank_code(random.Random(93), 3, 6, 3)
    extend = matroid._reducer(code.field, _columns(code.parity))
    full = (None,) * 3
    assert all(extend(full, e) is full for e in range(6))


def test_a_skipped_ideal_keeps_the_full_rank_which_the_checks_refuse(monkeypatch):
    # the grid walk prefills the full rank: an ideal it skipped with fewer
    # elements than the columns have rows then has rank above its size
    import posetcode.matroid as matroid

    honest = matroid.grid_ranks

    def skipping(skipped):
        def walk(layout, field, columns):
            ranks = honest(layout, field, columns)
            assert skipped.bit_count() < len(columns[0]) and ranks[layout.index(skipped)] < len(columns[0])
            ranks[layout.index(skipped)] = len(columns[0])
            return ranks

        return walk

    rng = random.Random(92)
    data = Path(__file__).parent / "data"
    for poset, k, skipped in ((Poset.antichain(6), 3, 0b000011), (load_poset(data / "nrt4.poset"), 2, 0b0001)):
        code = full_rank_code(rng, 5, poset.n, k)  # 5^k and 5^(n-k) exceed |J(P)|: the hierarchy walks
        assert weight_hierarchy(LinearCode.from_generator(code.field, code.generator.rows), poset).weights
        monkeypatch.setattr(matroid, "grid_ranks", skipping(skipped))
        with pytest.raises(SelfCheckError, match=f"dimension 255 at ideal {skipped:#x} is not a pair"):
            weight_hierarchy(code, poset)
        if poset == Poset.antichain(6):
            report = check_rank_axioms(RankProfile(code))
            assert report == AxiomReport(6, False, AxiomViolation("rank", "R1", skipped, None))
        monkeypatch.undo()


def full_rank_code(rng, q, n, k):
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if Matrix(gf(q), rows).rank() == k:
            return LinearCode.from_generator(gf(q), rows)


def assert_zeta_matches_walk(code):
    anti = Poset.antichain(code.n)
    assert at_ideals(anti, zeta_dims(code, anti)) == at_ideals(anti, code.matroid.walked_dims(anti))


def test_zeta_fill_matches_walk_on_every_ideal():
    rng = random.Random(37)
    for trial in range(60):
        q = (2, 3, 4, 5, 7, 8, 9)[trial % 7]
        n = rng.randint(1, 8)
        k = rng.randint(1, n)
        if q**k > 1 << 16:
            k = 1
        assert_zeta_matches_walk(full_rank_code(rng, q, n, k))


@pytest.mark.parametrize(
    ("q", "n", "k"),
    [
        (2, 1, 1),  # n = 1
        (9, 6, 1),  # k = 1
        (2, 7, 7),  # q^k = 2^n, the largest the zeta fill serves
        (2, 12, 7),  # 128 < 2^8: one-byte fields
        (3, 10, 6),  # 729: two-byte fields
        (4, 10, 8),  # 2^16: three-byte fields
    ],
)
def test_zeta_fill_boundaries_and_field_widths(q, n, k):
    code = full_rank_code(random.Random(38 + n + k), q, n, k)
    assert_zeta_matches_walk(code)
    if k == n:
        assert zeta_dims(code, Poset.antichain(n)) == bytes(mask.bit_count() for mask in range(1 << n))


def test_shortened_dims_takes_zeta_fill_only_where_it_serves(monkeypatch):
    import posetcode.matroid as matroid

    calls = []

    def counting(code, poset):
        calls.append(code.generator)
        return zeta_dims(code, poset)

    monkeypatch.setattr(matroid, "zeta_dims", counting)
    rng = random.Random(39)
    anti = Poset.antichain(6)
    at_bound = full_rank_code(rng, 4, 6, 3)  # q^k = q^(n-k) = 2^n: a tie keeps C's own stream
    assert at_bound.matroid.shortened_dims(anti) == at_bound.matroid.walked_dims(anti)
    assert calls == [at_bound.generator]
    shorter_dual = full_rank_code(rng, 3, 6, 5)  # 243 > 2^6 words, but C-perp has 3
    assert shorter_dual.matroid.shortened_dims(anti) == shorter_dual.matroid.walked_dims(anti)
    assert calls == [at_bound.generator, shorter_dual.parity]
    above = full_rank_code(rng, 5, 6, 3)  # 125 > 2^6 words either way
    above.matroid.shortened_dims(anti)
    above.matroid.shortened_dims(Poset.chain(6))
    assert len(calls) == 2


def test_a_fill_only_call_builds_no_columns():
    data, anti = Path(__file__).parent / "data", Poset.antichain(14)
    for call in (duality_partition, classify):
        code = load_code(data / "rand14.code")
        call(code, anti)
        # C's own zeta fill serves a binary [14,7] code under the antichain
        assert (code.n, code.k, code.field.q) == (14, 7, 2) and code.matroid._fills
        assert "_gen_cols" not in vars(code.matroid) and "_par_cols" not in vars(code.matroid)
    code = load_code(data / "rand14.code")
    code.matroid.walked_dims(anti)
    assert "_par_cols" in vars(code.matroid) and "_gen_cols" not in vars(code.matroid)


def test_dual_zeta_fill_matches_walk_on_every_ideal():
    rng = random.Random(41)
    for trial in range(40):
        q = (2, 3, 4, 5)[trial % 4]
        n = rng.randint(2, 9)
        k = rng.randint(n // 2 + 1, n)  # k > n - k: C-perp is the shorter stream
        if q ** (n - k) > 1 << n:
            k = n
        code = full_rank_code(rng, q, n, k)
        anti = Poset.antichain(n)
        assert code.matroid.shortened_dims(anti) is code.matroid._dual_fill(anti)
        assert at_ideals(anti, code.matroid._dual_fill(anti)) == at_ideals(anti, code.matroid.walked_dims(anti))
        assert code.matroid.census_dims(anti) is code.matroid.shortened_dims(anti)


def test_zeta_fill_rejects_corrupted_counts(monkeypatch):
    # under the antichain the census stream hands out closure masks, which are the grid indexes
    code = full_rank_code(random.Random(40), 3, 5, 2)
    honest = LinearCode._support_batches

    def moved(self, *args):
        # the zero word's support reported as the full set: no word inside the empty set
        batches = [list(batch) for batch in honest(self, *args)]
        batches[0][0] = (1 << self.n) - 1
        return iter(batches)

    monkeypatch.setattr(LinearCode, "_support_batches", moved)
    with pytest.raises(SelfCheckError, match="not a power of q"):
        zeta_dims(code, Poset.antichain(code.n))

    def extra(self, *args):
        yield from honest(self, *args)
        yield [0]

    monkeypatch.setattr(LinearCode, "_support_batches", extra)
    with pytest.raises(SelfCheckError, match="not q\\^k"):
        zeta_dims(code, Poset.antichain(code.n))

    # a full-weight word moved off one coordinate: only the field of the
    # full set minus that coordinate changes, 3^6 or 3^7 plus one, whose
    # top byte still names a power of 3 while its low byte does not
    wide = full_rank_code(random.Random(42), 3, 12, 7)
    full = (1 << 12) - 1

    def shifted(self, *args):
        batches = [list(batch) for batch in honest(self, *args)]
        b, i = next((b, i) for b, batch in enumerate(batches) for i, s in enumerate(batch) if s == full)
        batches[b][i] = full ^ 1
        return iter(batches)

    monkeypatch.setattr(LinearCode, "_support_batches", shifted)
    with pytest.raises(SelfCheckError, match="subset 0xffe are not a power of q"):
        zeta_dims(wide, Poset.antichain(12))


def test_memoization_survives_query_order():
    code = LinearCode.from_generator(gf(3), [(1, 0, 2, 1), (0, 1, 1, 1)])
    a = RankProfile(code)
    b = RankProfile(code)
    masks = list(range(1 << 4))
    random.Random(31).shuffle(masks)
    got_a = [a.rank(m) for m in masks]
    for m in range(1 << 4):  # another first query
        b.dual_rank(m)
    got_b = [b.rank(m) for m in masks]
    assert got_a == got_b


def test_fill_respects_table_limit():
    code = LinearCode.from_generator(gf(2), [tuple(1 for _ in range(17))])
    with pytest.raises(ValueError, match="n <= 16"):
        code.matroid.rank(1)
    with pytest.raises(ValueError, match="n <= 16"):
        code.matroid.dual_rank(0)
    # the per-poset table has no such cap
    chain = Poset.chain(17)
    assert at_ideals(chain, code.matroid.shortened_dims(chain))[(1 << 17) - 1] == 1


def test_shortened_dim_three_ways_agree():
    rng = random.Random(32)
    for _ in range(20):
        code = random_code(rng)
        profile = code.matroid
        for mask in range(1 << code.n):
            a, b, c = profile.shortened_dim_three_ways(mask)
            assert a == b == c


def test_mask_range_validation():
    code = LinearCode.from_generator(gf(2), [(1, 1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        code.matroid.rank(1 << 3)
    with pytest.raises(ValueError, match="out of range"):
        code.matroid.dual_rank(-1)


def test_axioms_pass_on_random_codes():
    rng = random.Random(33)
    for _ in range(15):
        code = random_code(rng)
        report = check_rank_axioms(code.matroid)
        assert report.passed and report.violation is None
        ident = check_complement_rank_identity(code.matroid)
        assert ident.passed and ident.witness is None


def test_exhaustive_rejected_above_limit():
    code = LinearCode.from_generator(gf(2), [tuple(1 for _ in range(17))])
    with pytest.raises(ValueError, match="n <= 16"):
        check_rank_axioms(code.matroid)
    with pytest.raises(ValueError, match="n <= 16"):
        check_complement_rank_identity(code.matroid)
    # above the old exhaustive limit of n = 12 the check is still exhaustive
    code = random_code(random.Random(34), length=13)
    assert check_rank_axioms(code.matroid).passed
    assert check_complement_rank_identity(code.matroid).passed


def test_corrupted_memo_is_caught_with_witness():
    code = LinearCode.from_generator(gf(2), [(1, 1, 0, 0), (0, 0, 1, 1)])
    profile = code.matroid
    profile._rank_table[0b0001] = 2  # rank of one column can never be 2
    report = check_rank_axioms(profile)
    assert not report.passed
    v = report.violation
    assert v is not None and v.function == "rank" and v.axiom == "R1" and v.set_a == 0b0001
    assert "rank violates R1 at A=0x1" in v.describe()
    ident = check_complement_rank_identity(profile)
    assert not ident.passed and ident.witness == 0b1110  # the complement of the poisoned mask
    fresh = RankProfile(code)
    fresh._dual_table[0b1111] -= 1  # the last mask is swept too
    assert check_complement_rank_identity(fresh).witness == 0b1111


def test_corrupted_monotonicity_is_caught():
    code = LinearCode.from_generator(gf(2), [(1, 1, 0), (0, 1, 1)])
    profile = code.matroid
    profile._rank_table[0b111] = 1  # below rank({1,2}) = 2
    report = check_rank_axioms(profile)
    assert not report.passed and report.violation.axiom in ("R2", "R3")
    assert violates(profile._rank_table, report.violation)


def test_dual_rank_is_dual_matroid_rank():
    # dual_rank computed from the dual code's generator agrees
    rng = random.Random(35)
    for _ in range(10):
        code = random_code(rng)
        if code.k == code.n:
            continue
        dual = code.dualize()
        for mask in range(1 << code.n):
            assert code.matroid.dual_rank(mask) == dual.matroid.rank(mask)


def test_local_sweep_matches_definition_on_corrupted_tables():
    rng = random.Random(36)
    verdicts = set()
    for trial in range(300):
        code = random_code(rng)
        profile = RankProfile(code)
        table = profile._rank_table
        for _ in range(rng.randint(0, 2 if trial % 2 else 6)):
            mask = rng.randrange(len(table))
            if trial % 2:
                table[mask] = max(-1, min(code.n + 1, table[mask] + rng.choice([-2, -1, 1, 2])))
            else:
                # keep R1 and R2, so that only submodularity can break
                neighbours = [mask ^ (1 << e) for e in range(code.n)]
                low = max([0] + [table[m] for m in neighbours if m < mask])
                high = min([mask.bit_count()] + [table[m] for m in neighbours if m > mask])
                table[mask] = rng.randint(low, high)
        report = check_rank_axioms(profile)
        broken = definitional_violation(table)
        assert report.passed == (not broken)
        if broken:
            v = report.violation
            assert v.function == "rank" and violates(table, v)
        verdicts.add((broken, None if report.passed else report.violation.axiom))
    # every kind of verdict occurs, so the comparison above is not vacuous
    assert verdicts == {(False, None), (True, "R1"), (True, "R2"), (True, "R3")}


def local_sweep(name, t, n):
    """The scalar local sweep: the first violation in the order R1 by A,
    R2 by (A, e), R3 by (A, e, g), one comparison at a time."""
    for a, value in enumerate(t):
        if not 0 <= value <= a.bit_count():
            return AxiomViolation(name, "R1", a, None)
    bits = [1 << e for e in range(n)]
    for a, value in enumerate(t):
        for e in bits:
            if not a & e and t[a | e] < value:
                return AxiomViolation(name, "R2", a, a | e)
    for a, value in enumerate(t):
        outside = [e for e in bits if not a & e]
        for i, e in enumerate(outside):
            for g in outside[i + 1 :]:
                if t[a | e | g] + value > t[a | e] + t[a | g]:
                    return AxiomViolation(name, "R3", a | e, a | g)
    return None


def identity_witness(rank, dual, n, k):
    """The smallest mask failing dual(A) = |A| - k + rank(complement A), one mask at a time."""
    full = (1 << n) - 1
    return next((a for a in range(full + 1) if dual[a] != a.bit_count() - k + rank[full ^ a]), None)


def corrupt_keeping_r1(rng, t, n, kind):
    """Move one entry by one within 0..|A|: the full set down (top), a
    singleton of rank 1 down to 0 (bottom), or any of the lowest or highest
    2n + 1 masks (edge)."""
    size = len(t)
    if kind == "top":
        candidates = [size - 1]
    elif kind == "bottom":
        candidates = [1 << e for e in range(n) if t[1 << e] == 1]
    else:
        candidates = list(range(1, 2 * n + 2)) + list(range(size - 2 * n - 1, size))
    for mask in rng.sample(candidates, len(candidates)):
        for step in rng.sample((-1, 1), 2) if kind == "edge" else (-1,):
            if 0 <= t[mask] + step <= mask.bit_count():
                t[mask] += step
                return mask
    return None


@pytest.mark.parametrize(("q", "n", "k"), [(2, 12, 6), (3, 12, 4), (2, 13, 5), (4, 14, 7), (2, 16, 8)])
def test_packed_sweep_matches_scalar_sweep_on_edge_corruptions(q, n, k):
    # entries near the bottom and the top of both tables changed so that R1
    # still holds: the report, and the identity witness, are the scalar ones
    rng = random.Random(70 + n + q)
    code = full_rank_code(rng, q, n, k)
    honest = code.matroid
    assert check_rank_axioms(honest) == AxiomReport(n, True, None)
    rounds = [("rank", "top"), ("dual_rank", "bottom")]
    if n < 16:
        rounds += [(table, kind) for table in ("rank", "dual_rank") for kind in ("top", "bottom", "edge", "edge")]
    verdicts = set()
    for name, kind in rounds:
        profile = RankProfile(code)
        profile._rank_table = list(honest._rank_table)
        profile._dual_table = list(honest._dual_table)
        table = profile._rank_table if name == "rank" else profile._dual_table
        for _ in range(1 if kind != "edge" else rng.randint(1, 3)):
            assert corrupt_keeping_r1(rng, table, n, kind) is not None
        expected = local_sweep("rank", profile._rank_table, n) or local_sweep("dual_rank", profile._dual_table, n)
        report = check_rank_axioms(profile)
        assert report == AxiomReport(n, expected is None, expected), (name, kind)
        if expected is not None:
            assert expected.function == name and violates(table, expected)
            verdicts.add(expected.axiom)
        witness = identity_witness(profile._rank_table, profile._dual_table, n, k)
        assert check_complement_rank_identity(profile) == IdentityReport(n, witness is None, witness)
    assert verdicts == {"R2", "R3"}


def test_packed_sweep_refuses_out_of_range_values_at_the_first_mask():
    # values outside 0..n cannot be packed; R1 is then swept one mask at a time
    code = full_rank_code(random.Random(71), 3, 12, 6)
    full = (1 << 12) - 1
    for edits in ({full: 13}, {full: -1, 5: 3}, {1: 2, 7: -3}, {0: 1, full - 1: 99}):
        profile = RankProfile(code)
        profile._dual_table = list(code.matroid._dual_table)
        for mask, value in edits.items():
            profile._dual_table[mask] = value
        expected = local_sweep("dual_rank", profile._dual_table, 12)
        assert expected.axiom == "R1" and expected.set_a == min(edits)
        assert check_rank_axioms(profile) == AxiomReport(12, False, expected)
        witness = identity_witness(profile._rank_table, profile._dual_table, 12, 6)
        assert check_complement_rank_identity(profile).witness == witness == min(edits)


def test_layout_zeta_of_the_census_matches_walk_on_chain_unions():
    # C's fill and C-perp's fill against the walk at every ideal: shuffled
    # labels put index order off mask order
    from test_poset import chain_union

    rng = random.Random(73)
    data = Path(__file__).parent / "data"
    posets = [chain_union(rng, [rng.randint(1, 4) for _ in range(rng.randint(1, 4))], i % 3 != 0) for i in range(24)]
    posets += [Poset.antichain(7), Poset.chain(7), load_poset(data / "nrt4.poset"), load_poset(data / "nrt7.poset")]
    for i, poset in enumerate(posets):
        n = poset.n
        q = PACKING_FIELDS[i % len(PACKING_FIELDS)]
        for k in sorted({1, n, rng.randint(1, n)}):
            if q ** min(k, n - k) > 1 << 12:
                continue
            code = full_rank_code(rng, q, n, k)
            walked = at_ideals(poset, code.matroid.walked_dims(poset))
            if q**k <= 1 << 12:
                assert at_ideals(poset, zeta_dims(code, poset)) == walked, (poset, q, k)
            if q ** (n - k) <= 1 << 12:
                assert at_ideals(poset, code.matroid._dual_fill(poset)) == walked, (poset, q, k)


@pytest.mark.parametrize("q", PACKING_FIELDS)
def test_layout_zeta_over_every_packing_field(q):
    # k = 1, k = n and the largest k with q^k small, under a chain union with shuffled labels and an NRT file
    from test_poset import chain_union

    rng = random.Random(74 + q)
    for poset in (chain_union(rng, [2, 3, 1]), load_poset(Path(__file__).parent / "data" / "nrt7.poset")):
        n = poset.n
        for k in sorted({1, n, max(k for k in range(1, n + 1) if q**k <= 1 << 12)}):
            code = full_rank_code(rng, q, n, k)
            walked = at_ideals(poset, code.matroid.walked_dims(poset))
            if q**k <= 1 << 12:
                assert at_ideals(poset, zeta_dims(code, poset)) == walked, (q, k)
            if q ** (n - k) <= 1 << 12:
                # k = n leaves C-perp no rows
                assert at_ideals(poset, code.matroid._dual_fill(poset)) == walked, (q, k)


def test_posets_off_the_chain_unions_fill_on_their_grid():
    # v3 and random posets that are no disjoint union of chains: C's zeta fill
    # and C-perp's, read at the ideals, equal the walk, which visits the ideals only
    rng = random.Random(75)
    posets = [load_poset(Path(__file__).parent / "data" / "v3.poset")]
    while len(posets) < 11:
        n = rng.randint(3, 8)
        relations = [(i, j) for j in range(2, n + 1) for i in range(1, j) if rng.random() < 0.4]
        if (poset := Poset.from_cover_relations(n, relations)).chain_layout().flags is not None:
            posets.append(poset)
    for i, poset in enumerate(posets):
        n = poset.n
        q = PACKING_FIELDS[i % len(PACKING_FIELDS)]
        for k in sorted({1, rng.randint(1, n), n}):
            if q ** min(k, n - k) > 1 << 12:
                continue
            code = full_rank_code(rng, q, n, k)
            walked = at_ideals(poset, code.matroid.walked_dims(poset))
            if q**k <= 1 << 12:
                assert at_ideals(poset, zeta_dims(code, poset)) == walked, (poset, q, k)
            if q ** (n - k) <= 1 << 12:
                assert at_ideals(poset, code.matroid._dual_fill(poset)) == walked, (poset, q, k)
            assert at_ideals(poset, code.matroid.shortened_dims(poset)) == walked


def test_layout_zeta_rejects_a_corrupted_census(monkeypatch):
    # under a chain union whose index order is not mask order, the failing
    # field is named by its ideal's mask
    poset = Poset.from_cover_relations(5, [(3, 1), (1, 5), (4, 2)])
    code = full_rank_code(random.Random(76), 3, 5, 2)
    honest, layout = LinearCode._support_batches, poset.chain_layout()
    full = (1 << 5) - 1

    def moved(self, *args):
        # a full-weight line reported one element short: the ideal {1, 2, 3, 4} gains 2 words
        batches = [list(batch) for batch in honest(self, *args)]
        b, i = next((b, i) for b, batch in enumerate(batches) for i, at in enumerate(batch) if at == layout.index(full))
        batches[b][i] = layout.index(full ^ 1 << 4)
        return iter(batches)

    monkeypatch.setattr(LinearCode, "_support_batches", moved)
    with pytest.raises(SelfCheckError, match="subset 0xf are not a power of q"):
        zeta_dims(code, poset)
