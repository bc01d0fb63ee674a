"""Time and memory budget of the Moebius census at n = 24.

Runs `posetcode distribution --method moebius --poset antichain:24 --json`
on the extended binary Golay code [24,12,8] in a child process, checks
its counts against the Golay enumerator

    1 + 759 z^8 + 2576 z^12 + 759 z^16 + z^24,

and prints the wall time and the child's peak RSS.  Exits 1 on a wrong
count, a failed run, or a peak above PEAK_BUDGET_MIB = 256 MiB.  The
census peaks at about 243 MiB under Python 3.11 and 240 MiB under 3.10
(2-CPU box, 5.5-7.5 s): its 2-byte fields over the 2**24 grid points are
32 MiB an int, and the bound leaves less than half of one more such
buffer, so a grid-sized table kept across the passes (a cached sizes
table, or a step buffer that outlives its pass) fails it.  The wall
time is bounded by the caller's timeout.  Run from the repository root:

    PYTHONPATH=src timeout 120 python ci/golay_census_budget.py
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

EXPECTED = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
PEAK_BUDGET_MIB = 256


def golay_code_text() -> str:
    # the [23,12] cyclic Golay code from g(x) = x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1,
    # extended by a parity bit
    g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    rows = [[0] * i + g + [0] * (11 - i) for i in range(12)]
    lines = ["q 2 n 24 k 12"] + [" ".join(map(str, row + [sum(row) % 2])) for row in rows]
    return "\n".join(lines) + "\n"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "golay24.code"
        path.write_text(golay_code_text())
        argv = ["distribution", "--method", "moebius", "--code", str(path), "--poset", "antichain:24", "--json"]
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "posetcode.cli", *argv], capture_output=True, text=True)
        elapsed = time.perf_counter() - started
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"golay census: {elapsed:.1f} s, peak RSS {peak_mib:.0f} MiB")
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return 1
    counts = json.loads(proc.stdout)["counts"]
    want = [EXPECTED.get(r, 0) for r in range(25)]
    if counts != want:
        print(f"counts {counts} != Golay enumerator {want}", file=sys.stderr)
        return 1
    if peak_mib > PEAK_BUDGET_MIB:
        print(f"peak RSS {peak_mib:.0f} MiB > budget {PEAK_BUDGET_MIB} MiB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
