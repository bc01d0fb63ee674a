"""Enumerate census over the packing fields, checked and timed.

    PYTHONPATH=src python ci/census_fields.py

For each q below it draws a random full-rank [20, k] code over GF(q),
k the largest value <= 10 with q^k <= 2^17, and takes its support census
under the NRT poset of 4 chains of 5 twice: by enumeration (the line
stream) and by the Moebius inversion of the rank walk's table.  The two
must agree, else the script exits 1.  The last three fields pack a
coordinate into bits that straddle (243, 251) or span (256) bytes of the
stream's slots.  It prints, per field, k, which tally served the
enumerate census and the best of five enumerate census times in ms and
the best of their ratios to a fixed pure-Python loop timed right before
and after each census (/ref), as ci/walk_fields.py does.

The tally is dense (a list by compact key) where the 2^14 keys of this
poset are no more than the 1 + (q^k - 1)/(q - 1) lines, else a Counter on
the closure masks: dense for q = 3, 4, 5 and 7.  A field served by the
other tally makes the script exit 1 as well.  The keys give each byte of
a closure mask a field per chain part in it, len(part).bit_length() bits
wide: parts of 5 and 3 elements, of 2, 5 and 1, and of 4, 14 bits.

It times only support_census; the tally column tells the tallies apart
by the keys LinearCode.closure_tally hands the stream: the dense tally
passes the layout's key tables, the Counter none.
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
KEY_BITS = 3 + 2 + 2 + 3 + 1 + 3
REPEATS = 5


def served_tally(code: LinearCode, poset) -> str:
    """Which tally takes the census, seen by the keys it hands LinearCode._support_batches."""
    honest, passed = LinearCode._support_batches, []

    def spy(self, images, lines, keys=None):
        passed.append(keys)
        return honest(self, images, lines, keys)

    LinearCode._support_batches = spy
    try:
        code.closure_tally(poset)
    finally:
        LinearCode._support_batches = honest
    return "counter" if passed == [None] else "dense"


def main() -> int:
    rng = random.Random(2011)
    poset = nrt_poset(CHAINS, LENGTH)
    failures = 0
    print(f"{'q':>4}{'k':>4}{'tally':>8}{'census ms':>12}{'/ref':>8}")
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
        tally = served_tally(code, poset)
        if tally != ("dense" if 1 << KEY_BITS <= 1 + (q**k - 1) // (q - 1) else "counter"):
            print(f"q={q} [{N},{k}]: the {tally} tally served against the rule", file=sys.stderr)
            failures += 1
        print(f"{q:>4}{k:>4}{tally:>8}{1000 * best:12.2f}{relative:8.2f}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
