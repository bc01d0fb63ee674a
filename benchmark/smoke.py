"""Smoke test of the benchmark at toy input sizes.

    python3 benchmark/smoke.py

For every workload it checks that

  * an untraced run is correct and prints every end_to_end metric of
    BENCHMARK.json, with its unit;
  * a traced run is correct and prints every per_layer metric, with its
    unit;
  * a second traced run with the same seed repeats every count exactly
    (all per-layer metrics but the times and the tracing overhead);
  * each layer's self time, recomputed from the written span records as
    busy time minus the busy and overhead time of their child records,
    equals the one the tracer reported.

Exits 0 when all of these hold.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3


def run(workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--toy"]
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *argv], cwd=ROOT, capture_output=True, text=True, timeout=180
    )
    if done.returncode != 0:
        raise AssertionError(f"run.py {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], label: str) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: not correct: {result['attempted']} attempted, {result['failed']} failed")
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{label}: metric {metric['name']} [{metric['unit']}] printed as {got}")
    return problems


def is_count(name: str, unit: str) -> bool:
    return unit != "s/query" and name != "trace.overhead" and name != "trace.query_s"


def self_times_from_spans(path: Path) -> dict[str, float]:
    spans = np.load(path)
    covered = np.zeros_like(spans["busy"])
    has_parent = spans["parent"] >= 0
    np.add.at(covered, spans["parent"][has_parent], (spans["busy"] + spans["overhead"])[has_parent])
    own = spans["busy"] - covered
    queries = len(np.unique(spans["query"]))
    layer_of_span = spans["layers"][spans["name"]]
    return {layer: own[layer_of_span == layer].sum() / queries for layer in np.unique(spans["layers"])}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        problems += check_metrics(run(workload, 0), spec["end_to_end"], f"{workload} untraced")
        first, second = run(workload, 1), run(workload, 1)
        problems += check_metrics(first, spec["per_layer"], f"{workload} traced")
        for metric in spec["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            a, b = first["metrics"].get(name), second["metrics"].get(name)
            if is_count(name, unit) and a != b:
                problems.append(f"{workload}: count {name} differs between equal seeds: {a} vs {b}")
        recomputed = self_times_from_spans(BENCH / ".work" / f"spans-{workload}.npz")
        for layer, seconds in recomputed.items():
            reported = second["metrics"].get(f"{layer}.self_s")
            if reported is not None and abs(reported["value"] - seconds) > 1e-9 + 1e-6 * seconds:
                problems.append(f"{workload}: {layer}.self_s {reported['value']} but spans give {seconds}")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
