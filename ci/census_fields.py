"""Enumerate census over the packing fields, checked and timed.

    PYTHONPATH=src python ci/census_fields.py

For each q below it draws a random full-rank [20, k] code over GF(q),
k the largest value <= 10 with q^k <= 2^17, and takes its support census
under the NRT poset of 4 chains of 5 twice: by enumeration (the line
stream) and by the Moebius inversion of the rank walk's table.  The two
must agree, else the script exits 1.  The last three fields pack a
coordinate into bits that straddle (243, 251) or span (256) bytes of the
stream's slots.  It prints, per field, k, the best
of five enumerate census times in ms and the best of their ratios to a
fixed pure-Python loop timed right before and after each census (/ref),
as ci/walk_fields.py does.

It calls only support_census, so pointing PYTHONPATH at another
checkout's src/ times that checkout's census on the same codes.
"""

from __future__ import annotations

import random
import sys
import time

from posetcode.code import LinearCode
from posetcode.distribution import support_census
from posetcode.field import gf
from walk_fields import full_rank, nrt_poset, reference

FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 243, 251, 256)
CHAINS, LENGTH = 4, 5
N = CHAINS * LENGTH
REPEATS = 5


def main() -> int:
    rng = random.Random(2011)
    poset = nrt_poset(CHAINS, LENGTH)
    failures = 0
    print(f"{'q':>4}{'k':>4}{'census ms':>12}{'/ref':>8}")
    for q in FIELDS:
        k = max(k for k in range(1, 11) if q**k <= 1 << 17)
        code = LinearCode.from_generator(gf(q), full_rank(rng, q, k, N).rows)
        best = relative = float("inf")
        for _ in range(REPEATS):
            before = reference()
            start = time.perf_counter()
            census = support_census(code, poset, "enumerate")
            seconds = time.perf_counter() - start
            best, relative = min(best, seconds), min(relative, 2 * seconds / (before + reference()))
        if census != support_census(code, poset, "moebius"):
            print(f"q={q} [{N},{k}]: enumerate and moebius censuses differ", file=sys.stderr)
            failures += 1
        print(f"{q:>4}{k:>4}{1000 * best:12.2f}{relative:8.2f}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
