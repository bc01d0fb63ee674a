"""Randomized cross-validation of every computation path in the package.

run_selftest draws seeded random (code, poset) instances and checks, on
each one, that independent implementations of the same quantity agree:
the ideal scan against the definitional brute force, the Moebius support
census against enumeration, closed-form distributions against both, the
rank axioms, the complement identity and the shortened dimension three
ways (two rank tables and the null-space solver) on all subsets, each a
pass over whole tables, and the duality partition, whose dual weights
(read off the primal table) must also equal the hierarchy of the
dualized code under the dual poset.  Any failure is recorded together
with a reproducer (the code and poset in their text formats) so it can
be replayed from files.  No option plants a fault: the failure path is
tested by patching random_instance to hand out a poisoned instance.

Instance space: q in {2, 3, 4, 5}, 2 <= n <= 10, 1 <= k <= min(5, n - 1),
generator matrices resampled until full rank, and posets built from a
random linear order with each compatible pair related with probability
1/3.  Every instance is also examined under the antichain, where poset
weight must collapse to Hamming weight.
"""

from __future__ import annotations

import time
from itertools import compress, islice
from random import Random
from typing import NamedTuple

from .bitset import digit_sums
from .code import LinearCode, format_code, support_mask
from .distribution import (
    MDS_LABEL,
    NMDS_LABEL,
    classify,
    distribution,
    hamming_nmds_distribution,
    mds_distribution,
    nmds_distribution,
    support_census,
)
from .errors import SelfCheckError
from .field import gf
from .hierarchy import METHOD_BRUTEFORCE, duality_partition, weight_hierarchy
from .matrix import Matrix
from .matroid import check_complement_rank_identity, check_rank_axioms
from .poset import Poset, format_poset


class Failure(NamedTuple):
    check: str
    detail: str
    reproducer: str


class SelfTestReport:
    def __init__(self, seed: int, trials: int) -> None:
        self.seed = seed
        self.trials = trials
        self.counts: dict[str, int] = {}
        self.failures: list[Failure] = []
        self.mds_seen = 0
        self.nmds_seen = 0
        self.elapsed = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures and self.trials > 0

    def as_dict(self) -> dict:
        # elapsed stays off the wire so equal seeds give byte-identical output
        return {
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "mds": self.mds_seen,
            "nmds": self.nmds_seen,
            "checks": dict(sorted(self.counts.items())),
            "failures": [f._asdict() for f in self.failures],
        }


def random_instance(rng: Random) -> tuple[LinearCode, Poset]:
    """One seeded random instance; see the module docstring for the space."""
    q = rng.choice((2, 3, 4, 5))
    n = rng.randint(2, 10)
    k = rng.randint(1, min(5, n - 1))
    fld = gf(q)
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if Matrix(fld, rows).rank() == k:
            break
    code = LinearCode.from_generator(fld, rows)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    relations = [
        (order[a], order[b])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < 1 / 3
    ]
    return code, Poset.from_cover_relations(n, relations)


class _Session:
    def __init__(self, report: SelfTestReport) -> None:
        self.report = report
        self.reproducer = ""

    def set_instance(self, code: LinearCode, poset: Poset) -> None:
        self.reproducer = format_code(code) + format_poset(poset)

    def ok(self, check: str) -> None:
        self.report.counts[check] = self.report.counts.get(check, 0) + 1

    def fail(self, check: str, detail: str) -> None:
        self.report.failures.append(Failure(check, detail, self.reproducer))

    def expect(self, check: str, condition: bool, detail: str) -> None:
        if condition:
            self.ok(check)
        else:
            self.fail(check, detail)


def _check_hierarchy(s: _Session, code: LinearCode, poset: Poset) -> None:
    try:
        scan = weight_hierarchy(code, poset)
        brute = weight_hierarchy(code, poset, METHOD_BRUTEFORCE)
    except SelfCheckError as exc:
        s.fail("hierarchy-invariants", str(exc))
        return
    s.expect(
        "hierarchy-scan-vs-oracle",
        scan.weights == brute.weights,
        f"scan {scan.weights} != oracle {brute.weights}",
    )
    # the scan reads dim C^I = r exactly; the definition asks for dim C^I >= r, on the ideals
    layout = poset.chain_layout()
    on = layout.flags or b"\1" * layout.size
    sizes, dims = bytes(compress(digit_sums(layout.lengths), on)), bytes(compress(code.matroid.shortened_dims(poset), on))
    slack = tuple(min(compress(sizes, dims.translate(bytes(r) + b"\1" * (256 - r)))) for r in range(1, code.k + 1))
    s.expect(
        "hierarchy-exact-slack",
        slack == scan.weights,
        f"definitional minimum {slack} over the table != scan {scan.weights}",
    )
    try:
        part = duality_partition(code, poset)
        oracle = weight_hierarchy(code.dualize(), poset.dual()).weights
    except SelfCheckError as exc:
        s.fail("duality-partition", str(exc))
        return
    s.expect(
        "duality-partition",
        part.dual_weights == oracle,
        f"dual weights {part.dual_weights} != hierarchy of the dual code {oracle}",
    )


def _check_rank_structure(s: _Session, code: LinearCode) -> None:
    profile = code.matroid
    axioms = check_rank_axioms(profile)
    s.expect(
        "rank-axioms",
        axioms.passed,
        axioms.violation.describe() if axioms.violation else "axiom check failed",
    )
    identity = check_complement_rank_identity(profile)
    s.expect(
        "complement-identity",
        identity.passed,
        f"identity fails at mask {identity.witness:#x}" if identity.witness is not None else "identity check failed",
    )
    via_dual, via_complement, via_solver = profile.shortened_dim_tables()
    if via_dual == via_complement == list(via_solver):
        s.ok("shortened-dim-triple")
    else:
        triples = enumerate(zip(via_dual, via_complement, via_solver))
        mask, (a, b, c) = next((mask, t) for mask, t in triples if not t[0] == t[1] == t[2])
        s.fail("shortened-dim-triple", f"triple ({a}, {b}, {c}) at mask {mask:#x}")


def _check_counts(s: _Session, code: LinearCode, poset: Poset) -> None:
    moebius = support_census(code, poset, "moebius")
    enumerated = support_census(code, poset, "enumerate")
    ideals = sorted(moebius.keys() | enumerated.keys())
    mismatch = next((ideal for ideal in ideals if moebius.get(ideal, 0) != enumerated.get(ideal, 0)), None)
    s.expect(
        "support-count-moebius",
        mismatch is None,
        f"moebius count disagrees with enumeration at ideal {mismatch:#x}" if mismatch is not None else "",
    )
    enum = distribution(code, poset, "enumerate")
    moeb = distribution(code, poset, "moebius")
    s.expect("distribution-methods", enum == moeb, f"enumerate {enum} != moebius {moeb}")
    s.expect(
        "distribution-normalized",
        sum(enum) == code.codeword_count and enum[0] == 1,
        f"counts {enum} do not sum to q^k = {code.codeword_count} with A_0 = 1",
    )


def _check_classification(s: _Session, code: LinearCode, poset: Poset, is_antichain: bool) -> str:
    cls_ = classify(code, poset)
    enum = distribution(code, poset, "enumerate")
    if cls_.label == MDS_LABEL:
        closed = mds_distribution(code, poset, cls_)
        s.expect("mds-closed-form", closed == enum, f"closed {closed} != enumerated {enum}")
        s.expect(
            "mds-dimension-profile",
            cls_.dimension_profile_ok is True,
            "MDS shortened-dimension profile does not match",
        )
    elif cls_.label == NMDS_LABEL:
        closed = nmds_distribution(code, poset, cls_)
        s.expect("nmds-closed-form", closed == enum, f"closed {closed} != enumerated {enum}")
        s.expect(
            "nmds-profiles",
            cls_.dimension_profile_ok is True and cls_.dual_rank_profile_ok is True,
            "NMDS rank profiles do not match",
        )
        if is_antichain:
            binom = hamming_nmds_distribution(code)
            s.expect(
                "nmds-binomial-form",
                binom == enum,
                f"binomial closed form {binom} != enumerated {enum}",
            )
    return cls_.label


def _check_antichain_weights(s: _Session, code: LinearCode, poset: Poset) -> None:
    # the tuple stream, not the packed one, so the check stays independent of it
    supports = [support_mask(w) for w in code.codewords()]
    closures = poset._ideal_closures(supports)
    weights = zip(map(int.bit_count, supports), map(int.bit_count, closures))
    at = next((i for i, (hamming, weight) in enumerate(weights) if hamming != weight), None)
    bad = None if at is None else next(islice(code.codewords(), at, None))
    s.expect(
        "antichain-hamming-weight",
        bad is None,
        f"poset weight != Hamming weight at word {bad}",
    )


def run_selftest(seed: int, trials: int) -> SelfTestReport:
    """Run all randomized cross-checks; see the module docstring."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    started = time.perf_counter()
    rng = Random(seed)
    report = SelfTestReport(seed=seed, trials=trials)
    s = _Session(report)
    seen_labels: set[tuple] = set()
    for _ in range(trials):
        code, poset = random_instance(rng)
        s.set_instance(code, poset)
        _check_hierarchy(s, code, poset)
        _check_rank_structure(s, code)
        _check_counts(s, code, poset)
        antichain = Poset.antichain(code.n)
        for p, anti in ((poset, False), (antichain, True)):
            label = _check_classification(s, code, p, anti)
            if label in (MDS_LABEL, NMDS_LABEL):
                key = (code.field.q, code.generator.rows, p.below, label)
                if key not in seen_labels:
                    seen_labels.add(key)
                    if label == MDS_LABEL:
                        report.mds_seen += 1
                    else:
                        report.nmds_seen += 1
        _check_antichain_weights(s, code, antichain)
    report.elapsed = time.perf_counter() - started
    return report
