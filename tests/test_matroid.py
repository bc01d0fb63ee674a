from __future__ import annotations

import random

import pytest

from posetcode.code import LinearCode
from posetcode.errors import SelfCheckError
from posetcode.field import gf
from posetcode.matrix import Matrix
from posetcode.matroid import (
    RankProfile,
    check_complement_rank_identity,
    check_rank_axioms,
    require_passed,
)


def random_code(rng, n_max=6):
    while True:
        q = rng.choice([2, 3, 4, 5])
        n = rng.randint(1, n_max)
        k = rng.randint(1, n)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if Matrix(gf(q), rows).rank() == k:
            return LinearCode.from_generator(gf(q), rows)


def test_rank_matches_direct_elimination():
    rng = random.Random(30)
    for _ in range(20):
        code = random_code(rng)
        profile = RankProfile(code)
        for mask in range(1 << code.n):
            assert profile.rank(mask) == code.generator.column_submatrix(mask).rank()
            assert profile.dual_rank(mask) == code.parity.column_submatrix(mask).rank()


def test_memoization_survives_query_order():
    code = LinearCode.from_generator(gf(3), [(1, 0, 2, 1), (0, 1, 1, 1)])
    a = RankProfile(code)
    b = RankProfile(code)
    masks = list(range(1 << 4))
    random.Random(31).shuffle(masks)
    got_a = [a.rank(m) for m in masks]
    b.fill()
    got_b = [b.rank(m) for m in masks]
    assert got_a == got_b


def test_fill_respects_table_limit():
    code = LinearCode.from_generator(gf(2), [tuple(1 for _ in range(17))])
    with pytest.raises(ValueError, match="n <= 16"):
        code.matroid.fill()


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
        assert report.passed and report.exhaustive and report.violation is None
        ident = check_complement_rank_identity(code.matroid)
        assert ident.passed and ident.witness is None
        require_passed(report, "axioms")
        require_passed(ident, "identity")


def test_sampled_mode_passes():
    code = random_code(random.Random(34))
    report = check_rank_axioms(code.matroid, exhaustive=False, rng=random.Random(0), samples=500)
    assert report.passed and not report.exhaustive
    ident = check_complement_rank_identity(code.matroid, exhaustive=False, rng=random.Random(0), samples=500)
    assert ident.passed and not ident.exhaustive


def test_exhaustive_rejected_above_limit():
    code = LinearCode.from_generator(gf(2), [tuple(1 for _ in range(13))])
    with pytest.raises(ValueError, match="n <= 12"):
        check_rank_axioms(code.matroid, exhaustive=True)


def test_corrupted_memo_is_caught_with_witness():
    code = LinearCode.from_generator(gf(2), [(1, 1, 0, 0), (0, 0, 1, 1)])
    profile = code.matroid
    profile.fill()
    profile._rank_memo[0b0001] = 2  # rank of one column can never be 2
    report = check_rank_axioms(profile)
    assert not report.passed
    v = report.violation
    assert v is not None and v.function == "rank" and v.axiom == "R1" and v.set_a == 0b0001
    assert "rank violates R1 at A=0x1" in v.describe()
    with pytest.raises(SelfCheckError, match="R1 at A=0x1"):
        require_passed(report, "axioms")
    ident = check_complement_rank_identity(profile)
    assert not ident.passed and ident.witness is not None
    with pytest.raises(SelfCheckError, match="identity fails"):
        require_passed(ident, "identity")


def test_corrupted_monotonicity_is_caught():
    code = LinearCode.from_generator(gf(2), [(1, 1, 0), (0, 1, 1)])
    profile = code.matroid
    profile.fill()
    profile._rank_memo[0b111] = 1  # below rank({1,2}) = 2
    report = check_rank_axioms(profile)
    assert not report.passed and report.violation.axiom in ("R2", "R3")
    # sampled mode finds it too, given enough draws
    sampled = check_rank_axioms(profile, exhaustive=False, rng=random.Random(1), samples=2000)
    assert not sampled.passed


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
