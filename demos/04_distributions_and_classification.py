"""
Weight distributions, extremal codes, and the self-test
=======================================================

The distribution (A_0, ..., A_n) counts codewords by poset weight.
Three routes must land on the same vector: direct enumeration, a
Moebius transform of shortened dimensions over the ideal lattice, and,
for extremal codes, a closed form that never looks at individual
codewords.  A code is MDS for the poset when d_1 = n - k + 1 and
near-MDS when d_1 = n - k with d_2 = n - k + 2.
"""

from posetcode import (
    LinearCode,
    Poset,
    classify,
    distribution,
    gf,
    hamming_nmds_distribution,
    mds_distribution,
    nmds_distribution,
    run_selftest,
)

anti3 = Poset.antichain(3)
parity = LinearCode.from_generator(gf(2), [(1, 0, 1), (0, 1, 1)])

# classification reads d_1 (and d_2) off the ideal scan
verdict = classify(parity, anti3)
print(f"[3,2] parity code under the antichain: {verdict.label}, d1={verdict.d1}, d2={verdict.d2}")

# three routes to one distribution
print(f"  enumerate:   {distribution(parity, anti3, 'enumerate')}")
print(f"  moebius:     {distribution(parity, anti3, 'moebius')}")
print(f"  closed form: {mds_distribution(parity, anti3, verdict)}")

# a near-MDS example: two disjoint repeated pairs
pair = LinearCode.from_generator(gf(2), [(1, 1, 0, 0), (0, 0, 1, 1)])
anti4 = Poset.antichain(4)
verdict = classify(pair, anti4)
print(f"\n[4,2] pair code under the antichain: {verdict.label}, d1={verdict.d1}, d2={verdict.d2}")
print(f"  enumerate:     {distribution(pair, anti4)}")
print(f"  closed form:   {nmds_distribution(pair, anti4, verdict)}")
print(f"  binomial form: {hamming_nmds_distribution(pair)}")
print(f"  structural flags: dimension profile {verdict.dimension_profile_ok}, "
      f"dual-rank profile {verdict.dual_rank_profile_ok}, "
      f"column conditions {verdict.column_conditions_ok}")

# the self-test draws random instances and cross-checks every path;
# the same engine backs the `posetcode selftest` CLI subcommand
report = run_selftest(seed=0, trials=20)
print(f"\nselftest: {'PASS' if report.passed else 'FAIL'} "
      f"({report.trials} trials, {report.mds_seen} MDS and {report.nmds_seen} NMDS instances seen)")
for name, count in sorted(report.counts.items()):
    print(f"  {name}: {count} ok")
