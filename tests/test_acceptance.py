"""Acceptance gate: ten numbered criteria, one PASS/FAIL line each.

Every criterion runs against the same session-wide pool of 200 seeded
random instances (q in {2,3,4,5}, 2 <= n <= 10, 1 <= k <= min(5, n-1),
random posets) plus the fixed fixture codes.  The verdict lines are
collected in conftest.ACCEPTANCE_LINES and printed in the terminal
summary.  Each criterion asserts, so a FAIL line comes with a failing
test.
"""

from __future__ import annotations

import time
from functools import cached_property
from random import Random

import pytest

import conftest
from posetcode.code import LinearCode, poset_weight, support_mask
from posetcode.distribution import (
    MDS_LABEL,
    NMDS_LABEL,
    classify,
    distribution,
    hamming_nmds_distribution,
    mds_distribution,
    nmds_distribution,
    support_census,
)
from posetcode.field import gf
from posetcode.hierarchy import (
    METHOD_BRUTEFORCE,
    duality_partition,
    reduced_echelon_rows,
    weight_hierarchy,
)
from posetcode.matroid import check_complement_rank_identity, check_rank_axioms
from posetcode.poset import Poset
from posetcode.selftest import random_instance, run_selftest

ACCEPTANCE_SEED = 20260819
INSTANCE_COUNT = 200

# fixture codes with known distributions
PARITY3 = LinearCode.from_generator(gf(2), [(1, 0, 1), (0, 1, 1)])
REP3 = LinearCode.from_generator(gf(2), [(1, 1, 1)])
FULL2 = LinearCode.from_generator(gf(2), [(1, 0), (0, 1)])
PAIR = LinearCode.from_generator(gf(2), [(1, 1, 0, 0), (0, 0, 1, 1)])


class Workspace:
    def __init__(self) -> None:
        rng = Random(ACCEPTANCE_SEED)
        self.instances = [random_instance(rng) for _ in range(INSTANCE_COUNT)]

    @cached_property
    def scan_hierarchies(self):
        return [weight_hierarchy(code, poset) for code, poset in self.instances]

    @cached_property
    def oracle_hierarchies(self):
        return [
            weight_hierarchy(code, poset, METHOD_BRUTEFORCE)
            for code, poset in self.instances
        ]

    @cached_property
    def dual_hierarchies(self):
        """Hierarchies of the dualized codes under the dual posets."""
        return [weight_hierarchy(code.dualize(), poset.dual()) for code, poset in self.instances]

    @cached_property
    def duality_results(self):
        return [duality_partition(code, poset) for code, poset in self.instances]

    @cached_property
    def classifications(self):
        """Labels under both the instance poset and the antichain."""
        out = []
        for code, poset in self.instances:
            for p in (poset, Poset.antichain(code.n)):
                out.append((code, p, classify(code, p)))
        return out


@pytest.fixture(scope="session")
def workspace():
    return Workspace()


def _record(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    conftest.ACCEPTANCE_LINES.append(f"{verdict} criterion-{number}: {detail}")
    assert passed, f"criterion-{number}: {detail}"


def test_criterion_1_scan_equals_oracle_under_time_budget(workspace):
    start = time.perf_counter()
    mismatches = [
        (i, fast.weights, slow.weights)
        for i, (fast, slow) in enumerate(
            zip(workspace.scan_hierarchies, workspace.oracle_hierarchies)
        )
        if fast.weights != slow.weights
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60.0
    _record(
        1,
        ok,
        f"ideal-scan weights equal the subspace-enumeration oracle on "
        f"{INSTANCE_COUNT - len(mismatches)}/{INSTANCE_COUNT} instances, "
        f"every r, in {elapsed:.2f}s (budget 60s)",
    )


def test_criterion_2_monotonicity_and_window(workspace):
    checked = 0
    violations = []
    hierarchies = (
        workspace.scan_hierarchies
        + workspace.oracle_hierarchies
        + workspace.dual_hierarchies
    )
    for h in hierarchies:
        checked += 1
        for r, w in enumerate(h.weights, start=1):
            if not r <= w <= h.n - h.k + r:
                violations.append((h.n, h.k, r, w))
        if any(a >= b for a, b in zip(h.weights, h.weights[1:])):
            violations.append((h.n, h.k, h.weights))
    _record(
        2,
        not violations,
        f"all {checked} hierarchies (primal, oracle, dual) strictly increase "
        f"inside the window r <= d_r <= n-k+r; violations: {len(violations)}",
    )


def test_criterion_3_duality_partition(workspace):
    bad = 0
    for (code, poset), d, dual in zip(
        workspace.instances, workspace.duality_results, workspace.dual_hierarchies
    ):
        n, k = code.n, code.k
        if d.dual_weights != dual.weights:
            bad += 1
        elif len(d.first) != k or len(d.second) != n - k:
            bad += 1
        elif sorted(set(d.first) | set(d.second)) != list(range(1, n + 1)):
            bad += 1
        elif set(d.first) & set(d.second):
            bad += 1
    _record(
        3,
        bad == 0,
        f"primal and reversed-dual hierarchies partition 1..n with |first|=k, "
        f"|second|=n-k, and the dual weights equal the hierarchy of the dualized "
        f"code, on {INSTANCE_COUNT - bad}/{INSTANCE_COUNT} instances",
    )


def test_criterion_4_complement_identity_all_subsets(workspace):
    subsets = 0
    bad = []
    for code, _ in workspace.instances:
        profile = code.matroid
        full = (1 << code.n) - 1
        for mask in range(full + 1):
            subsets += 1
            a, b, c = profile.shortened_dim_three_ways(mask)
            identity = (
                profile.dual_rank(mask)
                == mask.bit_count() - code.k + profile.rank(full ^ mask)
            )
            if not (a == b == c and identity):
                bad.append((code, mask))
        report = check_complement_rank_identity(profile)
        if not report.passed:
            bad.append((code, report.witness))
    _record(
        4,
        not bad,
        f"dual_rank(J) = |J| - k + rank(complement) and the three-way shortened "
        f"dimension agree on all {subsets} subsets across {INSTANCE_COUNT} instances",
    )


def test_criterion_5_support_counts_match_enumeration(workspace):
    ideals_checked = 0
    bad = 0
    assert all(code.codeword_count <= 4096 for code, _ in workspace.instances)
    for code, poset in workspace.instances:
        moebius = support_census(code, poset, "moebius")
        enumerated = support_census(code, poset, "enumerate")
        ideals = poset.ideals()
        ideals_checked += len(ideals)
        bad += sum(moebius.get(ideal, 0) != enumerated.get(ideal, 0) for ideal in ideals)
    _record(
        5,
        bad == 0,
        f"moebius support census equals the enumerated census on all "
        f"{ideals_checked} ideals across {INSTANCE_COUNT} instances (q^k <= 4096 everywhere)",
    )


def test_criterion_6_distribution_methods_and_normalization(workspace):
    bad = 0
    for code, poset in workspace.instances:
        for p in (poset, Poset.antichain(code.n)):
            enum = distribution(code, p, "enumerate")
            moeb = distribution(code, p, "moebius")
            if enum != moeb or sum(enum) != code.codeword_count or enum[0] != 1:
                bad += 1
    _record(
        6,
        bad == 0,
        f"enumerate and moebius distributions agree componentwise with "
        f"sum q^k and A_0 = 1 on {2 * INSTANCE_COUNT} (code, poset) pairs",
    )


def test_criterion_7_mds_closed_form(workspace):
    fixtures = [
        (PARITY3, Poset.antichain(3), (1, 0, 3, 0)),
        (REP3, Poset.chain(3), (1, 0, 0, 1)),
        (FULL2, Poset.chain(2), (1, 1, 2)),
    ]
    bad = 0
    for code, poset, expected in fixtures:
        cls_ = classify(code, poset)
        closed = mds_distribution(code, poset, cls_)
        if cls_.label != MDS_LABEL or closed != expected or closed != distribution(code, poset):
            bad += 1
    mds_hits = 0
    for code, p, cls_ in workspace.classifications:
        if cls_.label != MDS_LABEL:
            continue
        mds_hits += 1
        if mds_distribution(code, p, cls_) != distribution(code, p, "enumerate"):
            bad += 1
    _record(
        7,
        bad == 0 and mds_hits > 0,
        f"MDS closed-form distribution equals enumeration on {mds_hits} "
        f"MDS-classified (code, poset) pairs and on 3 fixed fixtures",
    )


def test_criterion_8_nmds_closed_forms(workspace):
    bad = 0
    cls_fix = classify(PAIR, Poset.antichain(4))
    fixture_ok = (
        cls_fix.label == NMDS_LABEL
        and nmds_distribution(PAIR, Poset.antichain(4), cls_fix) == (1, 0, 2, 0, 1)
        and hamming_nmds_distribution(PAIR) == (1, 0, 2, 0, 1)
        and distribution(PAIR, Poset.antichain(4)) == (1, 0, 2, 0, 1)
        and distribution(PAIR, Poset.antichain(4))[cls_fix.d1] == 2
    )
    if not fixture_ok:
        bad += 1
    nmds_hits = 0
    distinct = set()
    for code, p, cls_ in workspace.classifications:
        if cls_.label != NMDS_LABEL:
            continue
        nmds_hits += 1
        distinct.add((code.field.q, code.generator.rows, p.below))
        reference = distribution(code, p, "enumerate")
        if nmds_distribution(code, p, cls_) != reference:
            bad += 1
        if all(p.below[j] == 1 << j for j in range(p.n)):
            if hamming_nmds_distribution(code) != reference:
                bad += 1
    selftest_seen = run_selftest(seed=1, trials=50).nmds_seen
    ok = bad == 0 and len(distinct) >= 5 and selftest_seen >= 5
    _record(
        8,
        ok,
        f"NMDS closed forms (general and antichain-binomial) equal enumeration on "
        f"{nmds_hits} NMDS-classified pairs ({len(distinct)} distinct instances, need >= 5; "
        f"selftest run surfaced {selftest_seen}) and on the length-4 fixture",
    )


def test_criterion_9_rank_axioms_exhaustive(workspace):
    bad = []
    for code, _ in workspace.instances:
        report = check_rank_axioms(code.matroid, exhaustive=True)
        if not report.passed:
            bad.append(report.violation.describe())
    _record(
        9,
        not bad,
        f"rank and dual rank satisfy R1-R3 exhaustively (all subset pairs) on "
        f"{INSTANCE_COUNT - len(bad)}/{INSTANCE_COUNT} instances",
    )


def _hamming_oracle_weights(code):
    """Minimum support size per subcode dimension, straight from the definition."""
    q = code.field.q
    supports = [support_mask(w) for w in code.codewords()]
    powers = [q**i for i in range(code.k)]
    out = []
    for r in range(1, code.k + 1):
        best = code.n + 1
        for rows in reduced_echelon_rows(code.k, r, q):
            union = 0
            for row in rows:
                union |= supports[sum(c * v for c, v in zip(row, powers))]
            size = union.bit_count()
            if size < best:
                best = size
        out.append(best)
    return tuple(out)


def test_criterion_10_hamming_specialization(workspace):
    bad = 0
    for code, _ in workspace.instances:
        antichain = Poset.antichain(code.n)
        scan = weight_hierarchy(code, antichain)
        if scan.weights != _hamming_oracle_weights(code):
            bad += 1
            continue
        if any(
            poset_weight(antichain, w) != support_mask(w).bit_count()
            for w in code.codewords()
        ):
            bad += 1
    _record(
        10,
        bad == 0,
        f"antichain hierarchy equals the minimum-support oracle and poset weight "
        f"equals Hamming weight for all codewords on {INSTANCE_COUNT - bad}/{INSTANCE_COUNT} instances",
    )
