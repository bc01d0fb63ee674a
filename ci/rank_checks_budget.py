"""Exhaustive rank checks at the n = 16 table limit, checked and timed.

    PYTHONPATH=src timeout 120 python ci/rank_checks_budget.py

For a seeded random full-rank binary [16,8] code and GF(4) [14,7] code it
fills the rank and dual-rank tables, runs check_rank_axioms and
check_complement_rank_identity on every subset, times the null-space
solver's table (LinearCode.shorten_dims) on its own, and compares the
three ways of RankProfile.shortened_dim_three_ways on every mask.  Then
it runs run_selftest(0, 200).  It prints the time of each step and exits
1 if any check fails; the time budget is the timeout around it.

It uses only the public API, so pointing PYTHONPATH at another checkout's
src/ times that checkout's checks on the same codes.
"""

from __future__ import annotations

import random
import sys
import time

from posetcode import LinearCode, Matrix, check_complement_rank_identity, check_rank_axioms, gf, run_selftest

SHAPES = ((2, 16, 8), (4, 14, 7))  # q, n, k
SELFTEST = (0, 200)  # seed, trials


def full_rank_code(rng: random.Random, q: int, n: int, k: int) -> LinearCode:
    field = gf(q)
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if Matrix(field, rows).rank() == k:
            return LinearCode.from_generator(field, rows)


def timed(label: str, step):
    started = time.perf_counter()
    result = step()
    print(f"{label}: {time.perf_counter() - started:.2f} s")
    return result


def main() -> int:
    rng = random.Random(16)
    failed = []
    for q, n, k in SHAPES:
        code = full_rank_code(rng, q, n, k)
        profile = code.matroid
        name = f"GF({q}) [{n},{k}]"
        timed(f"{name} rank and dual-rank tables", lambda: (profile.rank(0), profile.dual_rank(0)))
        axioms = timed(f"{name} rank axioms", lambda: check_rank_axioms(profile))
        if not axioms.passed:
            failed.append(f"{name}: {axioms.violation.describe()}")
        identity = timed(f"{name} complement identity", lambda: check_complement_rank_identity(profile))
        if not identity.passed:
            failed.append(f"{name}: identity fails at mask {identity.witness:#x}")
        timed(f"{name} null-space solver table", code.shorten_dims)
        triples = timed(
            f"{name} shortened-dimension triple",
            lambda: [profile.shortened_dim_three_ways(mask) for mask in range(1 << n)],
        )
        bad = next((mask for mask, (a, b, c) in enumerate(triples) if not a == b == c), None)
        if bad is not None:
            failed.append(f"{name}: triple {triples[bad]} at mask {bad:#x}")
    report = timed(f"run_selftest{SELFTEST}", lambda: run_selftest(*SELFTEST))
    failed += [f"selftest {f.check}: {f.detail}" for f in report.failures]
    for line in failed:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
