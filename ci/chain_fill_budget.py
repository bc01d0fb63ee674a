"""Time budget of the zeta fill over a disjoint union of chains at n = 24.

Writes the NRT poset of 12 chains of 2 (3^12 = 531 441 ideals) as a poset
file and a seeded random binary [24,12] code as a code file, then runs
the CLI on them, each command in a child process:

* `duality --json` must finish within 1.5 s, and its weights and dual
  weights must equal those of a scan of the rank walk's table
  (RankProfile.walked_dims), taken here in-process;
* `hierarchy --json` must give the walk scan's weights and witnesses;
* `distribution --method enumerate --json` and `--method moebius --json`
  must give the same counts and classification.

q^k = q^(n-k) = 4 096 words: both fills serve, and the tie takes C's own
stream for the scan and C-perp's for the census.  Exits 1 on a mismatch, a
failed run or a duality over budget; the time budget of the whole script
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

from posetcode import LinearCode, Matrix, Poset, duality_partition, format_code, format_poset, gf, weight_hierarchy

CHAINS, LENGTH, K = 12, 2, 12
DUALITY_S = 1.5


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
    print(f"hierarchy {hierarchy_s:.2f} s, distribution enumerate {enumerate_s:.2f} s, moebius {moebius_s:.2f} s")

    # the oracle: the same scans over the table of the rank walk
    started = time.perf_counter()
    profile = code.matroid
    profile.keep(poset, profile.walked_dims(poset))
    walked = weight_hierarchy(code, poset)
    partition = duality_partition(code, poset)
    print(f"walk and scan in-process: {time.perf_counter() - started:.2f} s")

    problems = []
    if duality_s > DUALITY_S:
        problems.append(f"duality took {duality_s:.2f} s, above the {DUALITY_S} s budget")
    if (duality["weights"], duality["dual_weights"]) != (list(partition.weights), list(partition.dual_weights)):
        problems.append(f"duality {duality['weights']} / {duality['dual_weights']} != walk {partition.as_dict()}")
    if (hierarchy["weights"], hierarchy["witnesses"]) != (list(walked.weights), [list(w) for w in walked.witnesses]):
        problems.append(f"hierarchy {hierarchy} != walk {walked.as_dict()}")
    if enumerate_ != {**moebius, "method": "enumerate"}:
        problems.append(f"enumerate {enumerate_} != moebius {moebius}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
