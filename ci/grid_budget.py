"""Time and memory budget of the grid fill and the grid Moebius census off the chain unions.

Writes four posets on 24 elements that are no disjoint union of chains,
each laid out on a minimum chain partition (Poset.chain_layout), and the
extended binary Golay code [24,12,8] as a code file:

* forks8: eight disjoint V's, a < b and a < c (390 625 ideals on a grid
  of 1 679 616 points);
* zigzag: i < i+1 for odd i <= 23, and i < i+3 for odd i <= 19
  (139 104 ideals);
* K12,12: every element of 1..12 below every element of 13..24, the
  ordinal sum of two 12-antichains (8 191 ideals on a grid of 531 441);
* V + 21: 1 < 3, 2 < 3 and 21 isolated points (10 485 760 ideals on a
  grid of 12 582 912, three quarters of the antichain's 2**24).

For each it runs `duality --json` and `distribution --method moebius
--json` through the CLI, each in a child process, whose peak RSS comes
from os.wait4.  The duality weights must equal those of a scan of the
rank walk's table (RankProfile.walked_dims), taken here in-process; the
Moebius counts must equal enumeration, and its classification that of
the walk's table.  Under forks8 the Moebius census must finish within
4 s.  Under V + 21, duality must take at most 1.2 times the same
command under `antichain:24`, run here too, at most 256 MiB, and the
Moebius census at most 272 MiB: it peaks near 240 MiB, and near 288 MiB
when a packed step's grid-sized buffers outlive the step.  Exits 1 on a
mismatch, a failed run or a run over budget; the time budget of the
whole script is the timeout around it.  Run from the repository root:

    PYTHONPATH=src timeout 120 python ci/grid_budget.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from posetcode import Poset, distribution, format_poset, parse_code
from posetcode.distribution import _classify
from posetcode.hierarchy import _dual_minima, _key_table, _primal_minima

FORKS8_MOEBIUS_S = 4.0
V21_DUALITY_RATIO, V21_DUALITY_MIB, V21_MOEBIUS_MIB = 1.2, 256, 272

POSETS = {
    "forks8": [(3 * i + 1, 3 * i + 2) for i in range(8)] + [(3 * i + 1, 3 * i + 3) for i in range(8)],
    "zigzag": [(i, i + 1) for i in range(1, 24, 2)] + [(i, i + 3) for i in range(1, 20, 2)],
    "K12,12": [(i, j) for i in range(1, 13) for j in range(13, 25)],
    "V + 21": [(1, 3), (2, 3)],
}


def golay_code_text() -> str:
    # the [23,12] cyclic Golay code from g(x) = x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1,
    # extended by a parity bit
    g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    rows = [[0] * i + g + [0] * (11 - i) for i in range(12)]
    lines = ["q 2 n 24 k 12"] + [" ".join(map(str, row + [sum(row) % 2])) for row in rows]
    return "\n".join(lines) + "\n"


def cli(*argv: str) -> tuple[dict, float, float]:
    """The JSON output, seconds and peak RSS in MiB of one CLI call in a child process."""
    started = time.perf_counter()
    command = [sys.executable, "-m", "posetcode.cli", *argv, "--json"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as child:
        out, err = child.stdout.read(), child.stderr.read()
        # reaped here, so that its rusage is this child's alone
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter() - started
    if child.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {child.returncode}: {err}")
    return json.loads(out), elapsed, usage.ru_maxrss / 1024


def main() -> int:
    text = golay_code_text()
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        code_path = Path(tmp) / "golay24.code"
        code_path.write_text(text)
        _, antichain_s, _ = cli("duality", "--code", str(code_path), "--poset", "antichain:24")
        print(f"Golay under antichain:24: duality {antichain_s:.2f} s")
        for name, relations in POSETS.items():
            poset = Poset.from_cover_relations(24, relations)
            poset_path = Path(tmp) / f"{name}.poset"
            poset_path.write_text(format_poset(poset))
            files = ("--code", str(code_path), "--poset", str(poset_path))
            duality, duality_s, duality_mib = cli("duality", *files)
            moebius, moebius_s, moebius_mib = cli("distribution", "--method", "moebius", *files)
            print(
                f"Golay under {name}: duality {duality_s:.2f} s at {duality_mib:.0f} MiB, "
                f"distribution moebius {moebius_s:.2f} s at {moebius_mib:.0f} MiB"
            )

            # the oracles: enumeration, and the same scans over the table of the rank walk
            code, layout = parse_code(text), poset.chain_layout()
            walked = code.matroid.walked_dims(poset)
            key = _key_table(code, layout, walked)
            weights = [d for d, _ in _primal_minima(layout, key, code.n, code.k)]
            dual_weights = [d for d, _ in _dual_minima(layout, key, code.n, code.k)]
            label = _classify(code, layout, walked)
            if (duality["weights"], duality["dual_weights"]) != (weights, dual_weights):
                problems.append(f"{name}: duality {duality} != walk {weights} / {dual_weights}")
            if moebius["counts"] != list(distribution(code, poset, "enumerate")):
                problems.append(f"{name}: moebius counts {moebius['counts']} != enumeration")
            if (moebius["classification"], moebius["d1"], moebius["d2"]) != (label.label, label.d1, label.d2):
                problems.append(f"{name}: moebius {moebius} classified other than the walk: {label}")
            if name == "forks8" and moebius_s > FORKS8_MOEBIUS_S:
                problems.append(f"forks8: distribution --method moebius took {moebius_s:.2f} s, above {FORKS8_MOEBIUS_S} s")
            if name == "V + 21":
                if duality_s > V21_DUALITY_RATIO * antichain_s or duality_mib > V21_DUALITY_MIB:
                    problems.append(
                        f"V + 21: duality took {duality_s:.2f} s at {duality_mib:.0f} MiB, above "
                        f"{V21_DUALITY_RATIO} x {antichain_s:.2f} s under antichain:24 or {V21_DUALITY_MIB} MiB"
                    )
                if moebius_mib > V21_MOEBIUS_MIB:
                    problems.append(f"V + 21: distribution --method moebius peaked at {moebius_mib:.0f} MiB, above {V21_MOEBIUS_MIB} MiB")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
