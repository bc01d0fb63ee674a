"""Rank walks over every packing field, checked and timed.

    PYTHONPATH=src python ci/walk_fields.py

For each q below it draws a full-rank 10 x 20 and a 6 x 12 matrix H over
GF(q) (the parity-check matrices of a [20,10] and a [12,6] code) and
walks the NRT posets of 4 chains of 5 (1 296 ideals) and 3 chains of 4
(125 ideals) twice: with ideal_ranks on the columns of H, which yields
every ideal, and with RankProfile.walked_dims of the code H checks,
which runs the grid walk that stops going up a chain at full rank.
Every ideal must come once from ideal_ranks, the rank of a fixed sample
of ideals must equal Matrix.rank of the columns it indexes, and
walked_dims, a table by grid index, must hold |I| - rank_H(I) from
ideal_ranks at the index of every ideal (ChainLayout.index), else the
script exits 1.  It prints, per field and poset, the best of
nine times in ms of each walk (ideal_ranks, then walked_dims) and the
best of their ratios to a fixed pure-Python loop timed right before and
after each walk (/ref): a shared host can run the same process at half
speed for seconds at a time, and the ratio moves far less than the
milliseconds do between runs.

It calls only ideal_ranks and walked_dims of the walk machinery, so
pointing PYTHONPATH at another checkout's src/ times that checkout's
walks on the same matrices (one whose walked_dims returns bytes by grid
index).
"""

from __future__ import annotations

import random
import sys
import time

from posetcode.code import LinearCode
from posetcode.field import gf
from posetcode.matrix import Matrix
from posetcode.matroid import RankProfile, ideal_ranks
from posetcode.poset import Poset

FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 251, 256)
SHAPES = ((4, 5, 10), (3, 4, 6))  # chains, chain length, rows of H
SAMPLE = 64
REPEATS = 9


def reference() -> float:
    """Seconds one run of a fixed pure-Python loop takes now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) & 0xFFFFF
        table[acc & 1023] = i
    return time.perf_counter() - start


def nrt_poset(chains: int, length: int) -> Poset:
    pairs = [(c * length + i, c * length + i + 1) for c in range(chains) for i in range(1, length)]
    return Poset.from_cover_relations(chains * length, pairs)


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
    header = "".join(f"{f'NRT {c}x{s} ms':>13}{'/ref':>6}{'grid ms':>9}{'/ref':>6}" for c, s, _ in SHAPES)
    print(f"{'q':>4}" + header)
    for q in FIELDS:
        cells = []
        for chains, length, rows in SHAPES:
            poset = nrt_poset(chains, length)
            mat = full_rank(rng, q, rows, chains * length)
            columns = [tuple(row[c] for row in mat.rows) for c in range(mat.ncols)]
            ranks, best, relative = timed(lambda: dict(ideal_ranks(poset, gf(q), columns)))
            # the code whose parity-check rows span those of H; a fresh profile per run
            code = LinearCode.from_generator(gf(q), mat.rows).dualize()
            profiles = iter([RankProfile(code) for _ in range(REPEATS)])
            dims, grid_best, grid_relative = timed(lambda: next(profiles).walked_dims(poset))
            layout = poset.chain_layout()
            where = f"q={q} NRT {chains}x{length}"
            if len(ranks) != (length + 1) ** chains:
                print(f"{where}: {len(ranks)} ideals walked", file=sys.stderr)
                failures += 1
            for ideal in rng.sample(sorted(ranks), min(SAMPLE, len(ranks))):
                expected = mat.column_submatrix(ideal).rank()
                if ranks[ideal] != expected:
                    print(f"{where}: rank {ranks[ideal]} != {expected} at {ideal:#x}", file=sys.stderr)
                    failures += 1
            if len(dims) != layout.size or any(dims[layout.index(ideal)] != ideal.bit_count() - rank for ideal, rank in ranks.items()):
                print(f"{where}: walked_dims differs from ideal_ranks", file=sys.stderr)
                failures += 1
            cells.append(f"{1000 * best:13.2f}{relative:6.2f}{1000 * grid_best:9.2f}{grid_relative:6.2f}")
        print(f"{q:>4}" + "".join(cells), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
