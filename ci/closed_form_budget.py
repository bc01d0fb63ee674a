"""Time and memory budget of the MDS closed form at n = 22.

Runs `posetcode distribution --method closed-form --poset antichain:22
--json` on the Reed-Solomon code [22,18,5] over GF(23) (generator rows
x^i for x = 1..22, i = 0..17) in a child process, checks its counts
against the textbook MDS weight distribution (MacWilliams and Sloane,
The Theory of Error-Correcting Codes, ch. 11)

    A_w = C(n, w) (q - 1) sum_{j=0}^{w-d} (-1)^j C(w - 1, j) q^(w-d-j),   w >= d,

and prints the wall time and the child's peak RSS.  Exits 1 on a wrong
count, a failed run or a peak RSS above 128 MiB; the time budget is the
timeout around it.  Run from the repository root:

    PYTHONPATH=src timeout 60 python ci/closed_form_budget.py
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import tempfile
import time
from math import comb
from pathlib import Path

Q, N, K = 23, 22, 18
PEAK_MIB = 128


def reed_solomon_text() -> str:
    rows = [[pow(x, i, Q) for x in range(1, N + 1)] for i in range(K)]
    lines = [f"q {Q} n {N} k {K}"] + [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def mds_weights(n: int, k: int, q: int) -> list[int]:
    d = n - k + 1
    tail = [
        comb(n, w) * (q - 1) * sum((-1) ** j * comb(w - 1, j) * q ** (w - d - j) for j in range(w - d + 1))
        for w in range(d, n + 1)
    ]
    return [1] + [0] * (d - 1) + tail


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rs22.code"
        path.write_text(reed_solomon_text())
        argv = ["distribution", "--method", "closed-form", "--code", str(path), "--poset", f"antichain:{N}", "--json"]
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "posetcode.cli", *argv], capture_output=True, text=True)
        elapsed = time.perf_counter() - started
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"closed form: {elapsed:.1f} s, peak RSS {peak_mib:.0f} MiB")
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return 1
    counts = json.loads(proc.stdout)["counts"]
    want = mds_weights(N, K, Q)
    if counts != want:
        print(f"counts {counts} != MDS weight distribution {want}", file=sys.stderr)
        return 1
    if peak_mib > PEAK_MIB:
        print(f"peak RSS {peak_mib:.0f} MiB is above the {PEAK_MIB} MiB budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
