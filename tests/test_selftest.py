from __future__ import annotations

import random

import pytest

from posetcode.code import parse_code
from posetcode.matroid import check_rank_axioms
from posetcode.poset import parse_poset
from posetcode.selftest import SelfTestReport, random_instance, run_selftest

CORE_CHECKS = {
    "hierarchy-scan-vs-oracle",
    "hierarchy-exact-slack",
    "duality-partition",
    "rank-axioms",
    "complement-identity",
    "shortened-dim-triple",
    "support-count-moebius",
    "distribution-methods",
    "distribution-normalized",
    "antichain-hamming-weight",
}


def test_random_instance_stays_in_bounds():
    rng = random.Random(60)
    for _ in range(100):
        code, poset = random_instance(rng)
        assert code.field.q in (2, 3, 4, 5)
        assert 2 <= code.n <= 10
        assert 1 <= code.k <= min(5, code.n - 1)
        assert code.generator.rank() == code.k
        assert poset.n == code.n


def test_selftest_passes_and_sees_both_labels():
    report = run_selftest(seed=1, trials=25)
    assert report.passed
    assert report.failures == []
    assert CORE_CHECKS <= set(report.counts)
    # every instance contributes each core check once
    for name in CORE_CHECKS:
        assert report.counts[name] == 25
    assert report.mds_seen >= 1
    assert report.nmds_seen >= 1
    assert report.elapsed > 0


def test_selftest_counts_closed_form_checks():
    report = run_selftest(seed=2, trials=30)
    assert report.passed
    assert report.counts.get("mds-closed-form", 0) >= 1
    assert report.counts.get("nmds-closed-form", 0) >= 1
    assert report.counts.get("nmds-binomial-form", 0) >= 1


def test_selftest_as_dict_is_deterministic():
    a = run_selftest(seed=9, trials=8)
    b = run_selftest(seed=9, trials=8)
    assert a.as_dict() == b.as_dict()
    d = a.as_dict()
    assert set(d) == {"seed", "trials", "passed", "mds", "nmds", "checks", "failures"}
    assert "elapsed" not in d
    assert list(d["checks"]) == sorted(d["checks"])


def test_selftest_rejects_nonpositive_trials():
    with pytest.raises(ValueError, match="trials must be positive"):
        run_selftest(seed=0, trials=0)
    assert SelfTestReport(seed=0, trials=0).passed is False


def test_corrupt_rank_produces_r1_failure_with_reproducer():
    report = run_selftest(seed=1, trials=2, corrupt_rank=True)
    assert not report.passed
    rank_failures = [f for f in report.failures if f.check == "rank-axioms"]
    assert report.failures[0] is rank_failures[0]
    assert "rank violates R1 at A=0x1" in rank_failures[0].detail
    # the poisoned table also breaks the identity and the triple; the
    # hierarchy, census and classification read the shortened-dimension
    # table and stay clean
    failed_checks = {f.check for f in report.failures}
    assert failed_checks == {"rank-axioms", "complement-identity", "shortened-dim-triple"}

    # the reproducer replays from the text formats and is itself healthy:
    # the corruption lives in the poisoned table, not in the instance
    text = rank_failures[0].reproducer
    split = text.index("n ", text.index("\n"))
    code = parse_code(text[:split])
    poset = parse_poset(text[split:])
    assert code.n == poset.n
    assert check_rank_axioms(code.matroid).passed


def test_corrupt_rank_leaves_later_instances_clean():
    clean = run_selftest(seed=5, trials=3)
    poisoned = run_selftest(seed=5, trials=3, corrupt_rank=True)
    assert clean.passed and not poisoned.passed
    # second and third instances contribute passing checks as usual
    assert poisoned.counts["hierarchy-scan-vs-oracle"] == 3
