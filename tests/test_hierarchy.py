from __future__ import annotations

import random
from itertools import product

import pytest

from posetcode.code import LinearCode, support_mask
from posetcode.errors import SelfCheckError
from posetcode.field import gf
from posetcode.hierarchy import (
    METHOD_BRUTEFORCE,
    METHOD_IDEAL_SCAN,
    WeightHierarchy,
    duality_partition,
    gaussian_binomial,
    min_weight_bruteforce,
    min_weight_ideal_scan,
    reduced_echelon_rows,
    weight_hierarchy,
)
from posetcode.matrix import Matrix
from posetcode.poset import Poset


def random_code(rng, q_choices=(2, 3, 4, 5), n_max=7, k_max=4):
    while True:
        q = rng.choice(list(q_choices))
        n = rng.randint(2, n_max)
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


def test_gaussian_binomial_fixtures():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 2, 5) == 20306
    assert gaussian_binomial(3, 0, 7) == 1
    assert gaussian_binomial(3, 4, 2) == 0
    assert gaussian_binomial(3, -1, 2) == 0


def test_reduced_echelon_rows_counts_and_uniqueness():
    for k, r, q in [(2, 1, 2), (3, 2, 2), (3, 1, 3), (4, 2, 3), (3, 3, 4), (5, 2, 5)]:
        mats = list(reduced_echelon_rows(k, r, q))
        assert len(mats) == gaussian_binomial(k, r, q)
        assert len(set(mats)) == len(mats)
        F = gf(q)
        for rows in mats[:50]:
            M = Matrix(F, rows)
            assert M.rank() == r
            reduced, _ = M.echelon()
            assert reduced.rows == rows


def test_reduced_echelon_rows_span_distinct_subspaces():
    # over GF(2), k=3, r=2: the 7 matrices give 7 distinct row spaces
    spans = set()
    for rows in reduced_echelon_rows(3, 2, 2):
        words = set()
        for a, b in product(range(2), repeat=2):
            w = tuple((a * x + b * y) % 2 for x, y in zip(rows[0], rows[1]))
            words.add(w)
        spans.add(frozenset(words))
    assert len(spans) == 7


CHAIN_CODE = LinearCode.from_generator(gf(2), [(1, 0), (0, 1)])
PAIR_CODE = LinearCode.from_generator(gf(2), [(1, 1, 0, 0), (0, 0, 1, 1)])


def test_hierarchy_fixtures():
    # the full GF(2)^2 space under the chain 1 < 2
    h = weight_hierarchy(CHAIN_CODE, Poset.chain(2))
    assert h.weights == (1, 2)
    assert h.witnesses == ((1,), (1, 2))
    # same code, antichain: identical weights here
    assert weight_hierarchy(CHAIN_CODE, Poset.antichain(2)).weights == (1, 2)
    # the [4,2] pair-repetition code under the antichain
    h2 = weight_hierarchy(PAIR_CODE, Poset.antichain(4))
    assert h2.weights == (2, 4)
    assert h2.witnesses == ((1, 2), (1, 2, 3, 4))
    # and under the chain: supports {1,2} and {3,4} close to sizes 2 and 4
    h3 = weight_hierarchy(PAIR_CODE, Poset.chain(4))
    assert h3.weights == (2, 4)


def test_bruteforce_matches_fixture_witnesses():
    w, basis = min_weight_bruteforce(PAIR_CODE, Poset.antichain(4), 1)
    assert w == 2
    assert all(PAIR_CODE.contains(b) for b in basis)
    union = support_mask(basis[0])
    assert Poset.antichain(4).ideal_closure(union).bit_count() == 2
    h = weight_hierarchy(PAIR_CODE, Poset.antichain(4), METHOD_BRUTEFORCE)
    assert h.weights == (2, 4)
    assert h.method == METHOD_BRUTEFORCE


def test_scan_agrees_with_bruteforce_on_random_instances():
    rng = random.Random(40)
    for _ in range(30):
        code = random_code(rng)
        for poset in (random_poset(rng, code.n), Poset.antichain(code.n), Poset.chain(code.n)):
            fast = weight_hierarchy(code, poset, METHOD_IDEAL_SCAN)
            slow = weight_hierarchy(code, poset, METHOD_BRUTEFORCE)
            assert fast.weights == slow.weights
            # exact-slack variant returns the same minima
            for r in range(1, code.k + 1):
                w_exact, mask = min_weight_ideal_scan(code, poset, r, require_exact=True)
                assert w_exact == fast.weights[r - 1]
                assert poset.is_ideal(mask)


def test_scan_witness_is_minimal_ideal():
    rng = random.Random(41)
    for _ in range(10):
        code = random_code(rng)
        poset = random_poset(rng, code.n)
        profile = code.matroid
        for r in range(1, code.k + 1):
            w, mask = min_weight_ideal_scan(code, poset, r)
            assert mask.bit_count() == w
            assert mask.bit_count() - profile.dual_rank(mask) >= r
            # nothing smaller (or equal-size with smaller mask) qualifies
            for other in poset.ideals():
                if (other.bit_count(), other) < (mask.bit_count(), mask):
                    assert other.bit_count() - profile.dual_rank(other) < r


def test_bruteforce_witness_is_valid_basis():
    rng = random.Random(42)
    for _ in range(10):
        code = random_code(rng, n_max=5, k_max=3)
        poset = random_poset(rng, code.n)
        for r in range(1, code.k + 1):
            w, basis = min_weight_bruteforce(code, poset, r)
            assert len(basis) == r
            assert Matrix(code.field, basis, code.n).rank() == r
            assert all(code.contains(b) for b in basis)
            union = 0
            for b in basis:
                union |= support_mask(b)
            assert poset.ideal_closure(union).bit_count() == w


def test_hierarchy_struct_and_dict():
    h = weight_hierarchy(PAIR_CODE, Poset.antichain(4))
    assert isinstance(h, WeightHierarchy)
    d = h.as_dict()
    assert d["n"] == 4 and d["k"] == 2 and d["q"] == 2
    assert d["weights"] == [2, 4]
    assert d["witnesses"] == [[1, 2], [1, 2, 3, 4]]
    assert d["method"] == METHOD_IDEAL_SCAN
    assert d["poset"] == Poset.antichain(4).digest()
    hb = weight_hierarchy(PAIR_CODE, Poset.antichain(4), METHOD_BRUTEFORCE)
    db = hb.as_dict()
    assert db["witnesses"][0] == [[1, 1, 0, 0]]


def test_window_bounds_hold_on_randoms():
    rng = random.Random(43)
    for _ in range(25):
        code = random_code(rng)
        poset = random_poset(rng, code.n)
        h = weight_hierarchy(code, poset)
        for r, w in enumerate(h.weights, start=1):
            assert r <= w <= code.n - code.k + r
        assert all(a < b for a, b in zip(h.weights, h.weights[1:]))


def test_duality_fixtures():
    d = duality_partition(PAIR_CODE, Poset.antichain(4))
    assert d.weights == (2, 4)
    assert d.first == (2, 4)
    assert d.second == (1, 3)
    assert sorted(d.first + d.second) == [1, 2, 3, 4]
    dd = d.as_dict()
    assert dd["first"] == [2, 4] and dd["second"] == [1, 3]


def test_duality_on_random_instances():
    rng = random.Random(44)
    for _ in range(25):
        code = random_code(rng)
        if code.k == code.n:
            continue
        poset = random_poset(rng, code.n)
        d = duality_partition(code, poset)
        assert d.dual_weights == weight_hierarchy(code.dualize(), poset.dual()).weights
        assert len(d.first) == code.k
        assert len(d.second) == code.n - code.k
        assert sorted(d.first + d.second) == list(range(1, code.n + 1))


def test_duality_rejects_full_space():
    with pytest.raises(ValueError, match="proper subspace"):
        duality_partition(CHAIN_CODE, Poset.chain(2))


def test_argument_validation():
    with pytest.raises(ValueError, match="poset size 3 != code length 4"):
        weight_hierarchy(PAIR_CODE, Poset.chain(3))
    with pytest.raises(ValueError, match="outside 1..2"):
        min_weight_ideal_scan(PAIR_CODE, Poset.chain(4), 3)
    with pytest.raises(ValueError, match="outside 1..2"):
        min_weight_bruteforce(PAIR_CODE, Poset.chain(4), 0)
    with pytest.raises(ValueError, match="unknown method"):
        weight_hierarchy(PAIR_CODE, Poset.chain(4), "fast")


def test_bruteforce_caps():
    big = LinearCode.from_generator(gf(2), Matrix.identity(gf(2), 17).rows)
    with pytest.raises(ValueError, match="q\\^k"):
        min_weight_bruteforce(big, Poset.antichain(17), 1)
    # 2^16 words is allowed but gaussian_binomial(16, 8, 2) blows the subspace cap
    mid = LinearCode.from_generator(gf(2), Matrix.identity(gf(2), 16).rows)
    with pytest.raises(ValueError, match="subspaces"):
        min_weight_bruteforce(mid, Poset.antichain(16), 8)


def test_chain_weights_are_support_maxima():
    # under a chain, the weight of a word is its highest nonzero position
    rng = random.Random(45)
    for _ in range(10):
        code = random_code(rng, n_max=5, k_max=3)
        chain = Poset.chain(code.n)
        h = weight_hierarchy(code, chain)
        best = min(
            max((support_mask(w)).bit_length() for w in (code.codeword(m),) if any(w))
            for m in _nonzero_messages(code)
        )
        assert h.weights[0] == best


def _nonzero_messages(code):
    from itertools import product as _product

    for msg in _product(range(code.field.q), repeat=code.k):
        if any(msg):
            yield msg
