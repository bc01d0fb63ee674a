"""Time and memory budget of the MDS and NMDS closed forms at n = 22.

Runs `posetcode distribution --method closed-form --poset antichain:22
--json` in a child process on two [22,18] codes over GF(23), checks the
counts against answers computed here without the package, and prints the
wall time and peak RSS of each child.  Then runs `posetcode classify
--json` on the NMDS code under antichain:22 and under NRT 11 x 2 (eleven
chains 2j - 1 < 2j, a poset file written here), where it must read label
NMDS and column_conditions_ok true: the Hamming NMDS test, which off the
antichain reads the antichain's own table.

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

Exits 1 on a wrong count or verdict, a failed run or a peak RSS above
128 MiB in any case; the time budget is the timeout around it.  Run from the
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


def nrt_text() -> str:
    """NRT 11 x 2 in the poset file format: chains 2j - 1 < 2j."""
    return f"n {N}\n" + "".join(f"{j} < {j + 1}\n" for j in range(1, N, 2))


def run(name: str, argv: list[str]) -> dict | None:
    """One posetcode call in a child process: its JSON output, or None after
    a failed run or a peak RSS above budget.  Prints its time and peak RSS."""
    started = time.perf_counter()
    with tempfile.TemporaryFile("w+") as stdout, tempfile.TemporaryFile("w+") as stderr:
        child = subprocess.Popen([sys.executable, "-m", "posetcode.cli", *argv], stdout=stdout, stderr=stderr)
        # wait4 gives this child's own peak RSS, not the largest over every child so far
        _, status, usage = os.wait4(child.pid, 0)
        elapsed = time.perf_counter() - started
        stdout.seek(0)
        stderr.seek(0)
        output, errors = stdout.read(), stderr.read()
    peak_mib = usage.ru_maxrss / 1024
    print(f"{name}: {elapsed:.1f} s, peak RSS {peak_mib:.0f} MiB")
    if os.waitstatus_to_exitcode(status) != 0:
        print(errors, file=sys.stderr)
        return None
    if peak_mib > PEAK_MIB:
        print(f"{name}: peak RSS {peak_mib:.0f} MiB is above the {PEAK_MIB} MiB budget", file=sys.stderr)
        return None
    return json.loads(output)


def closed_form_ok(name: str, code: Path, want: list[int]) -> bool:
    argv = ["distribution", "--method", "closed-form", "--code", str(code), "--poset", f"antichain:{N}", "--json"]
    if (result := run(f"{name} closed form", argv)) is None:
        return False
    if result["counts"] != want:
        print(f"{name}: counts {result['counts']} != weight distribution {want}", file=sys.stderr)
        return False
    return True


def classify_ok(name: str, code: Path, poset: str) -> bool:
    if (result := run(f"NMDS classify under {name}", ["classify", "--code", str(code), "--poset", poset, "--json"])) is None:
        return False
    verdict = result["label"], result["column_conditions_ok"]
    if verdict != ("NMDS", True):
        print(f"{name}: label and column_conditions_ok {verdict} != ('NMDS', True)", file=sys.stderr)
        return False
    return True


def main() -> int:
    elliptic = elliptic_rows()
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        mds, nmds, nrt = tmp / "MDS.code", tmp / "NMDS.code", tmp / "nrt.poset"
        mds.write_text(code_text(reed_solomon_rows()))
        nmds.write_text(code_text(elliptic))
        nrt.write_text(nrt_text())
        passed = [
            closed_form_ok("MDS", mds, mds_weights(N, K, Q)),
            closed_form_ok("NMDS", nmds, nmds_weights(elliptic)),
            classify_ok(f"antichain:{N}", nmds, f"antichain:{N}"),
            classify_ok("NRT 11x2", nmds, str(nrt)),
        ]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
