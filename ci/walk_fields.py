"""Rank walks over every packing field, checked and timed.

    PYTHONPATH=src python ci/walk_fields.py

For each q below it draws a full-rank parity-check matrix H over GF(q)
for each of three posets and runs RankProfile.walked_dims of the code H
checks, the one rank walk, on both sides of the flags test:

* NRT 4x5, four chains of 5 (1 296 ideals), H 10 x 20;
* NRT 3x4, three chains of 4 (125 ideals), H 6 x 12;
* forks5, five disjoint V's a < b, a < c on 15 elements (3 125 ideals on
  a grid of 7 776 points), H 7 x 15: no disjoint union of chains.

The oracle shares nothing with the walk: one elimination (Matrix.rank)
of the columns of H an ideal indexes, done separately for each ideal,
on every ideal of NRT 3x4 and forks5 and on a fixed sample of 64 of
NRT 4x5.
walked_dims, a table by grid index, must hold |I| - rank_H(I) at the
index of each of them (ChainLayout.index), and the poset must have as
many ideals as it should, else the script exits 1.  It prints, per field
and poset, the best of nine times in ms of the walk and the best of its
ratios to a fixed pure-Python loop timed right before and after it
(/ref): a shared host can run the same process at half speed for
seconds at a time, and the ratio moves far less than the milliseconds
do between runs.

It calls only walked_dims of the walk machinery, so pointing PYTHONPATH
at another checkout's src/ times that checkout's walk on the same
matrices (one whose walked_dims returns bytes by grid index).
"""

from __future__ import annotations

import random
import sys
import time

from posetcode.code import LinearCode
from posetcode.field import gf
from posetcode.matrix import Matrix
from posetcode.matroid import RankProfile
from posetcode.poset import Poset

FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 251, 256)
SAMPLE = 64
REPEATS = 9


def nrt_poset(chains: int, length: int) -> Poset:
    pairs = [(c * length + i, c * length + i + 1) for c in range(chains) for i in range(1, length)]
    return Poset.from_cover_relations(chains * length, pairs)


def forks_poset(forks: int) -> Poset:
    return Poset.from_cover_relations(3 * forks, [(3 * i + 1, 3 * i + b) for i in range(forks) for b in (2, 3)])


# name, poset, rows of H, ideals, whether every ideal is checked
SHAPES = (
    ("NRT 4x5", nrt_poset(4, 5), 10, 6**4, False),
    ("NRT 3x4", nrt_poset(3, 4), 6, 5**3, True),
    ("forks5", forks_poset(5), 7, 5**5, True),
)


def reference() -> float:
    """Seconds one run of a fixed pure-Python loop takes now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) & 0xFFFFF
        table[acc & 1023] = i
    return time.perf_counter() - start


def full_rank(rng: random.Random, q: int, rows: int, n: int) -> Matrix:
    while True:
        mat = Matrix(gf(q), [[rng.randrange(q) for _ in range(n)] for _ in range(rows)])
        if mat.rank() == rows:
            return mat


def timed(walk) -> tuple[object, float, float]:
    """walk()'s result, and the best of REPEATS runs in seconds and relative to reference()."""
    best = relative = float("inf")
    for _ in range(REPEATS):
        before = reference()
        start = time.perf_counter()
        result = walk()
        seconds = time.perf_counter() - start
        best, relative = min(best, seconds), min(relative, 2 * seconds / (before + reference()))
    return result, best, relative


def main() -> int:
    rng = random.Random(2011)
    failures = 0
    print(f"{'q':>4}" + "".join(f"{f'{name} ms':>13}{'/ref':>7}" for name, *_ in SHAPES))
    for q in FIELDS:
        cells = []
        for name, poset, rows, count, every in SHAPES:
            mat = full_rank(rng, q, rows, poset.n)
            # the code whose parity-check rows span those of H; a fresh profile per run
            code = LinearCode.from_generator(gf(q), mat.rows).dualize()
            profiles = iter([RankProfile(code) for _ in range(REPEATS)])
            dims, best, relative = timed(lambda: next(profiles).walked_dims(poset))
            layout, ideals, where = poset.chain_layout(), poset.ideals(), f"q={q} {name}"
            if len(ideals) != count or len(dims) != layout.size:
                print(f"{where}: {len(ideals)} ideals, a table of {len(dims)} on a grid of {layout.size}", file=sys.stderr)
                failures += 1
            for ideal in ideals if every else rng.sample(ideals, min(SAMPLE, len(ideals))):
                expected = ideal.bit_count() - mat.column_submatrix(ideal).rank()
                if dims[layout.index(ideal)] != expected:
                    print(f"{where}: dim {dims[layout.index(ideal)]} != {expected} at {ideal:#x}", file=sys.stderr)
                    failures += 1
            cells.append(f"{1000 * best:13.2f}{relative:7.3f}")
        print(f"{q:>4}" + "".join(cells), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
