"""posetcode benchmark: four CLI workloads, each loading a different layer.

    python3 benchmark/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from
src/ of that checkout, never from an installed copy.  Every step runs in
a child process of its own (see worker.py): fixture generation, nine
set-ups, the timed closed loop, and the correctness check.  So the
peak RSS and set-up time reported belong to the workload alone, and
the oracles never run in the timed process.

--trace 0 measures for T seconds and prints the end-to-end metrics.
Their times are corrected for the host's speed against a reference loop
timed beside them (see worker.py); the raw wall times are on the line
before the result.
--trace 1 runs a fixed, seed-determined number of queries with the
tracer installed, prints the per-layer metrics, and runs the same
queries untraced in a fresh process to report the tracing overhead.
The spans of the traced run are written to
benchmark/.work/spans-<workload>.npz.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Workloads and the reasons for them are
in benchmark/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    # set-up is timed as an installed package pays it: from cached bytecode
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    # one thread: numpy's BLAS pool would otherwise start a thread per core
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(mode: str, *args: str) -> None:
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode, *args],
        cwd=ROOT,
        env=_child_env(),
        stdout=sys.stderr,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


def _check(work: Path, queries: Path, *results: Path) -> dict:
    out = work / "check.json"
    _child("check", "--queries", str(queries), "--results", *map(str, results), "--result", str(out))
    return _read(out)


def measure(args, work: Path) -> tuple[dict, str]:
    gen = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    _child("gen", *gen, "--out", str(work), *(["--toy"] if args.toy else []))
    queries = work / "queries.json"
    if args.trace:
        return _measure_traced(work, queries, _read(queries)["trace_queries"], args.workload)
    return _measure_plain(work, queries, args.seconds)


def _measure_plain(work: Path, queries: Path, seconds: float) -> tuple[dict, str]:
    setups = []
    for i in range(SETUP_SAMPLES):
        out = work / f"setup{i}.json"
        _child("setup", "--queries", str(queries), "--result", str(out))
        setups.append(_read(out))
    run_file = work / "run.json"
    _child("run", "--queries", str(queries), "--seconds", str(seconds), "--result", str(run_file))
    run = _read(run_file)
    check = _check(work, queries, run_file)
    latencies = [r["scaled_s"] for r in run["records"]]
    completed = len(latencies)
    if completed == 0:
        raise SystemExit("no query completed")
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "queries_per_s": (completed / run["scaled_s"], "1/s"),
        "query_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
        "success_ratio": ((check["attempted"] - len(check["failures"])) / check["attempted"], "ratio"),
    }
    wall = [r["latency_s"] for r in run["records"]]
    note = (
        f"{completed} queries in {run['elapsed_s']:.2f} s; p50 over {completed} samples; "
        f"setup median of {SETUP_SAMPLES} processes; times at reference host speed, "
        f"raw wall: {completed / sum(wall):.4g} queries/s, p50 {statistics.median(wall):.4g} s, "
        f"setup {statistics.median(s['wall_s'] for s in setups):.4g} s"
        + ("; query pool exhausted before the deadline" if run["pool_exhausted"] else "")
    )
    return _result(check, metrics), note


def _measure_traced(work: Path, queries: Path, count: int, workload: str) -> tuple[dict, str]:
    spans = WORK / f"spans-{workload}.npz"
    traced_file, plain_file = work / "traced.json", work / "plain.json"
    _child("run", "--queries", str(queries), "--limit", str(count), "--spans", str(spans), "--result", str(traced_file))
    _child("run", "--queries", str(queries), "--limit", str(count), "--result", str(plain_file))
    traced, plain = _read(traced_file), _read(plain_file)
    check = _check(work, queries, traced_file, plain_file)
    metrics = {name: tuple(pair) for name, pair in traced["layers"].items()}
    traced_s, plain_s = (sum(r["latency_s"] for r in run["records"]) for run in (traced, plain))
    metrics["trace.query_s"] = (traced_s / count, "s/query")
    metrics["trace.overhead"] = (traced_s / plain_s - 1, "ratio")
    note = f"{count} traced queries in {traced_s:.2f} s, untraced {plain_s:.2f} s; spans in {spans.relative_to(ROOT)}"
    return _result(check, metrics), note


def _result(check: dict, metrics: dict) -> dict:
    for failure in check["failures"]:
        print(f"FAILED query {failure['id']} {failure['argv']}: {failure['reason']}", file=sys.stderr)
    return {
        "correct": not check["failures"],
        "attempted": check["attempted"],
        "failed": len(check["failures"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # toy input sizes, for benchmark/smoke.py
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "posetcode" / "__init__.py").is_file():
        print(f"error: no posetcode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        result, note = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
