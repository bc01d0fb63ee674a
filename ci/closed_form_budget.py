"""Time and memory budget of the MDS and NMDS closed forms at n = 22.

Runs `posetcode distribution --method closed-form --poset antichain:22
--json` in a child process on two [22,18] codes over GF(23), checks the
counts against answers computed here without the package, and prints the
wall time and peak RSS of each child.

* MDS: the Reed-Solomon code [22,18,5] (generator rows x^i for
  x = 1..22, i = 0..17), against the textbook MDS weight distribution
  (MacWilliams and Sloane, The Theory of Error-Correcting Codes, ch. 11)

      A_w = C(n, w) (q - 1) sum_{j=0}^{w-d} (-1)^j C(w - 1, j) q^(w-d-j),   w >= d.

* NMDS: the elliptic-curve code [22,18,4] on y^2 = x^3 + x + 1: the
  first 22 affine points in (x, y) order, and as rows the first 18
  monomials x^i y^j, j <= 1, by pole order 2i + 3j.  A_4 is q - 1 times
  the number of 4-column subsets of a parity-check matrix H with zero
  determinant (rank below 4 by elimination mod q, as H itself is solved
  here); every other weight comes from the NMDS formula of Dodunekov
  and Landjev ("On near-MDS codes", J. Geometry 54, 1995), for
  s = 1..k:

      A_{n-k+s} = C(n, k-s) sum_{j=0}^{s-1} (-1)^j C(n-k+s, j) (q^(s-j) - 1)
                + (-1)^s C(k, s) A_{n-k}.

Exits 1 on a wrong count, a failed run or a peak RSS above 128 MiB in
either case; the time budget is the timeout around it.  Run from the
repository root:

    PYTHONPATH=src timeout 60 python ci/closed_form_budget.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from itertools import combinations
from math import comb
from pathlib import Path

Q, N, K = 23, 22, 18
PEAK_MIB = 128


def code_text(rows: list[list[int]]) -> str:
    lines = [f"q {Q} n {N} k {K}"] + [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def reed_solomon_rows() -> list[list[int]]:
    return [[pow(x, i, Q) for x in range(1, N + 1)] for i in range(K)]


def elliptic_rows() -> list[list[int]]:
    points = [(x, y) for x in range(Q) for y in range(Q) if (y * y - x**3 - x - 1) % Q == 0][:N]
    monomials = sorted(((i, j) for i in range(K) for j in (0, 1)), key=lambda m: 2 * m[0] + 3 * m[1])[:K]
    return [[pow(x, i, Q) * pow(y, j, Q) % Q for x, y in points] for i, j in monomials]


def mds_weights(n: int, k: int, q: int) -> list[int]:
    d = n - k + 1
    tail = [
        comb(n, w) * (q - 1) * sum((-1) ** j * comb(w - 1, j) * q ** (w - d - j) for j in range(w - d + 1))
        for w in range(d, n + 1)
    ]
    return [1] + [0] * (d - 1) + tail


def reduced_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod Q and its pivot columns."""
    rows, pivots = [list(row) for row in rows], []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], Q - 2, Q)
        rows[r] = [v * inv % Q for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % Q for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def parity_check(rows: list[list[int]]) -> list[list[int]]:
    """A basis of the vectors orthogonal to every row."""
    echelon, pivots = reduced_echelon(rows)
    basis = []
    for f in (c for c in range(N) if c not in pivots):
        v = [0] * N
        v[f] = 1
        for row, c in zip(echelon, pivots):
            v[c] = -row[f] % Q
        basis.append(v)
    return basis


def nmds_weights(rows: list[list[int]]) -> list[int]:
    h = parity_check(rows)
    assert len(h) == N - K
    columns = list(zip(*h))
    singular = sum(
        len(reduced_echelon([list(columns[c]) for c in chosen])[1]) < N - K
        for chosen in combinations(range(N), N - K)
    )
    counts = [1] + [0] * N
    counts[N - K] = (Q - 1) * singular
    for s in range(1, K + 1):
        main = sum((-1) ** j * comb(N - K + s, j) * (Q ** (s - j) - 1) for j in range(s))
        counts[N - K + s] = comb(N, K - s) * main + (-1) ** s * comb(K, s) * counts[N - K]
    return counts


def run_case(name: str, rows: list[list[int]], want: list[int], tmp: Path) -> bool:
    path = tmp / f"{name}.code"
    path.write_text(code_text(rows))
    out, err = tmp / f"{name}.out", tmp / f"{name}.err"
    argv = ["distribution", "--method", "closed-form", "--code", str(path), "--poset", f"antichain:{N}", "--json"]
    started = time.perf_counter()
    with out.open("w") as stdout, err.open("w") as stderr:
        child = subprocess.Popen([sys.executable, "-m", "posetcode.cli", *argv], stdout=stdout, stderr=stderr)
        # wait4 gives this child's own peak RSS, not the largest over every child so far
        _, status, usage = os.wait4(child.pid, 0)
    elapsed = time.perf_counter() - started
    peak_mib = usage.ru_maxrss / 1024
    print(f"{name} closed form: {elapsed:.1f} s, peak RSS {peak_mib:.0f} MiB")
    if os.waitstatus_to_exitcode(status) != 0:
        print(err.read_text(), file=sys.stderr)
        return False
    counts = json.loads(out.read_text())["counts"]
    if counts != want:
        print(f"{name}: counts {counts} != weight distribution {want}", file=sys.stderr)
        return False
    if peak_mib > PEAK_MIB:
        print(f"{name}: peak RSS {peak_mib:.0f} MiB is above the {PEAK_MIB} MiB budget", file=sys.stderr)
        return False
    return True


def main() -> int:
    elliptic = elliptic_rows()
    cases = [("MDS", reed_solomon_rows(), mds_weights(N, K, Q)), ("NMDS", elliptic, nmds_weights(elliptic))]
    with tempfile.TemporaryDirectory() as tmp:
        passed = [run_case(name, rows, want, Path(tmp)) for name, rows, want in cases]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
