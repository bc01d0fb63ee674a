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

The tally is dense (a list over the grid) where the 6^4 = 1 296 grid
points of this poset are no more than the 1 + (q^k - 1)/(q - 1) lines,
else a Counter on the grid indexes: dense for q = 3, 4, 5, 7, 8, 9 and
16.  A field served by the other tally makes the script exit 1 as well.

The stream column names the stream path: per value, where every slot
byte of the monic high words (the negated codewords of the monic messages
with no low digit, packed as the stream packs them) takes fewer than a
quarter as many values as there are such words, else per word: per value
for q = 3 and 4 on these codes.  A field whose stream takes the other
path, or q = 3 off the per-value path, makes the script exit 1 as well.

It times only support_census; the tally column tells the tallies apart
by a spy on the Counter of posetcode.code, which only the Counter tally
builds (both hand the stream the layout's index tables), and the stream
column the paths by a spy on posetcode.code._lane_pieces, which only the
per-value path calls.
"""

from __future__ import annotations

import random
import sys
import time
from itertools import product

import posetcode.code
from posetcode.code import LinearCode, _PackedWords
from posetcode.distribution import support_census
from posetcode.field import gf
from walk_fields import full_rank, nrt_poset, reference

FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 243, 251, 256)
CHAINS, LENGTH = 4, 5
N = CHAINS * LENGTH
GRID = (LENGTH + 1) ** CHAINS
REPEATS = 5


def served(code: LinearCode, poset) -> tuple[str, str]:
    """Which tally and which stream path take the census, seen by whether it
    builds a Counter and whether it cuts per-value pieces."""
    honest, pieces = (posetcode.code.Counter, posetcode.code._lane_pieces), ([], [])

    def spy(record, call):
        def spied(*args):
            record.append(args)
            return call(*args)

        return spied

    posetcode.code.Counter, posetcode.code._lane_pieces = map(spy, pieces, honest)
    try:
        code.closure_tally(poset)
    finally:
        posetcode.code.Counter, posetcode.code._lane_pieces = honest
    return "counter" if pieces[0] else "dense", "value" if pieces[1] else "word"


def rule_path(code: LinearCode) -> str:
    """The stream path the rule picks, from the monic high words' slot bytes."""
    F, k, half = code.field, code.k, (code.k + 1) // 2
    packed = _PackedWords(F, N)
    slot = (N * packed.stride + 7) // 8
    high = []
    for i in range(k - half):
        for rest in product(range(F.q), repeat=i):
            word = code.codeword((0,) * half + rest + (1,) + (0,) * (k - half - i - 1))
            high.append(packed.pack([F.neg(a) for a in word]).to_bytes(slot, "little"))
    values = max(len({word[j] for word in high}) for j in range(slot))
    return "value" if high and 4 * values < len(high) else "word"


def main() -> int:
    rng = random.Random(2011)
    poset = nrt_poset(CHAINS, LENGTH)
    failures = 0
    print(f"{'q':>4}{'k':>4}{'tally':>8}{'stream':>8}{'census ms':>12}{'/ref':>8}")
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
        tally, stream = served(code, poset)
        if tally != ("dense" if GRID <= 1 + (q**k - 1) // (q - 1) else "counter"):
            print(f"q={q} [{N},{k}]: the {tally} tally served against the rule", file=sys.stderr)
            failures += 1
        if stream != rule_path(code) or (q == 3 and stream != "value"):
            print(f"q={q} [{N},{k}]: the per-{stream} stream served against the rule", file=sys.stderr)
            failures += 1
        print(f"{q:>4}{k:>4}{tally:>8}{stream:>8}{1000 * best:12.2f}{relative:8.2f}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
