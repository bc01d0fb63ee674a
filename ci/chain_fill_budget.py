"""Time budget of the zeta fill over a disjoint union of chains at n = 24.

Writes the NRT poset of 12 chains of 2 (3^12 = 531 441 ideals) as a poset
file and a seeded random binary [24,12] code as a code file, then runs
the CLI on them, each command in a child process:

* `duality --json` must finish within 1.5 s, and its weights and dual
  weights must equal those of a scan of the rank walk's table
  (RankProfile.walked_dims), taken here in-process;
* `hierarchy --json` must give the walk scan's weights and witnesses;
* `distribution --method moebius --json` must finish within 1.5 s;
  `--method enumerate --json` and it must give the same counts, and the
  classification of the walk's table.

q^k = q^(n-k) = 4 096 words: both fills serve, and the tie takes C's own
stream for the scan and C-perp's for the census.  Exits 1 on a mismatch, a
failed run or a duality or Moebius census over budget; the time budget of the whole script
is the timeout around it.  Run from the repository root:

    PYTHONPATH=src timeout 60 python ci/chain_fill_budget.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from random import Random

from posetcode import LinearCode, Matrix, Poset, format_code, format_poset, gf
from posetcode.bitset import to_elements
from posetcode.distribution import _classify
from posetcode.hierarchy import _dual_minima, _key_table, _primal_minima

CHAINS, LENGTH, K = 12, 2, 12
DUALITY_S = MOEBIUS_S = 1.5


def nrt_poset() -> Poset:
    pairs = [(c * LENGTH + i, c * LENGTH + i + 1) for c in range(CHAINS) for i in range(1, LENGTH)]
    return Poset.from_cover_relations(CHAINS * LENGTH, pairs)


def random_code(rng: Random, n: int, k: int) -> LinearCode:
    while True:
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(k)]
        if Matrix(gf(2), rows).rank() == k:
            return LinearCode.from_generator(gf(2), rows)


def cli(*argv: str) -> tuple[dict, float]:
    started = time.perf_counter()
    child = subprocess.run([sys.executable, "-m", "posetcode.cli", *argv, "--json"], capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    if child.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {child.returncode}: {child.stderr}")
    return json.loads(child.stdout), elapsed


def main() -> int:
    poset = nrt_poset()
    code = random_code(Random(24), poset.n, K)
    with tempfile.TemporaryDirectory() as tmp:
        code_path, poset_path = Path(tmp) / "c.code", Path(tmp) / "nrt.poset"
        code_path.write_text(format_code(code))
        poset_path.write_text(format_poset(poset))
        files = ("--code", str(code_path), "--poset", str(poset_path))
        duality, duality_s = cli("duality", *files)
        hierarchy, hierarchy_s = cli("hierarchy", *files)
        enumerate_, enumerate_s = cli("distribution", "--method", "enumerate", *files)
        moebius, moebius_s = cli("distribution", "--method", "moebius", *files)
    print(f"NRT {CHAINS}x{LENGTH} binary [{poset.n},{K}] duality: {duality_s:.2f} s (budget {DUALITY_S} s)")
    print(f"distribution moebius: {moebius_s:.2f} s (budget {MOEBIUS_S} s)")
    print(f"hierarchy {hierarchy_s:.2f} s, distribution enumerate {enumerate_s:.2f} s")

    # the oracle: the same scans over the table of the rank walk
    started = time.perf_counter()
    layout, walked = poset.chain_layout(), code.matroid.walked_dims(poset)
    key = _key_table(code, layout, walked)
    primal, dual = _primal_minima(layout, key, poset.n, K), _dual_minima(layout, key, poset.n, K)
    label = _classify(code, layout, walked)
    print(f"walk and scan in-process: {time.perf_counter() - started:.2f} s")

    problems = []
    if duality_s > DUALITY_S:
        problems.append(f"duality took {duality_s:.2f} s, above the {DUALITY_S} s budget")
    if moebius_s > MOEBIUS_S:
        problems.append(f"distribution --method moebius took {moebius_s:.2f} s, above the {MOEBIUS_S} s budget")
    weights, witnesses = [d for d, _ in primal], [list(to_elements(mask)) for _, mask in primal]
    if (duality["weights"], duality["dual_weights"]) != (weights, [d for d, _ in dual]):
        problems.append(f"duality {duality['weights']} / {duality['dual_weights']} != walk {weights} / {dual}")
    if (hierarchy["weights"], hierarchy["witnesses"]) != (weights, witnesses):
        problems.append(f"hierarchy {hierarchy} != walk {weights} at {witnesses}")
    if enumerate_ != {**moebius, "method": "enumerate"}:
        problems.append(f"enumerate {enumerate_} != moebius {moebius}")
    if (moebius["classification"], moebius["d1"], moebius["d2"]) != (label.label, label.d1, label.d2):
        problems.append(f"moebius {moebius} classified other than the walk: {label}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
