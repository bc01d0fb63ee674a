"""Child processes of the benchmark; run.py starts one per step.

    worker.py gen   --workload W --seed S --seconds T [--toy] --out DIR
    worker.py setup --queries DIR/queries.json --result FILE
    worker.py run   --queries DIR/queries.json (--seconds T | --limit N)
                    [--spans FILE] --result FILE
    worker.py check --queries DIR/queries.json --results FILE... --result FILE

gen writes the query pool.  setup times `import posetcode` in a fresh
process plus building the workload's fields, as one CLI process pays it.  run is the
timed closed loop: one caller, one thread, each query starting after the
previous one returned, every query through posetcode.cli.main(argv) with
stdout captured and --json output.  With --spans the tracer wraps the
package first.  check computes the oracles of the attempted queries,
writes them beside the pool, and lists the queries that failed.

Times are corrected for the host's speed.  The sizing machine, a 2-vCPU
virtual machine shared with other tenants, runs the same code up to 40 %
slower or faster from one 15 s stretch to the next, and its CPU time
tracks its wall time (no steal shows), so raw seconds measure the host
as much as the program.  So setup and run time a fixed pure-Python loop,
reference(), right before and after each timed stretch, in the same
process, and scale the stretch by REFERENCE_S / (mean of the two loop
times): a time in seconds as if the host ran the loop in REFERENCE_S.
The raw wall times are kept in the result files as well.

Only the standard library is imported at the top, so that setup times
the whole package import.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

clock = time.perf_counter

# the query pool holds this many times the queries the seed commit
# completes in the run, so a much faster program still meets fresh codes
POOL_HEADROOM = 20
# tracing slows the seed commit by 1.6x (selftest-small) to 2.7x
# (census-antichain-q2); this sizes the fixed number of traced queries
# to take about the run time
TRACE_SLOWDOWN = 2.5
# the reference loop: REFERENCE_ITERATIONS steps take about REFERENCE_S
# on the sizing machine when it is quiet; a scale, not a measurement
REFERENCE_ITERATIONS = 160_000
REFERENCE_S = 0.02
# queries between two reference loops span at least this long, so the
# loops cost a few percent of the run even when queries are short
BLOCK_S = 0.3


def reference() -> float:
    """Seconds one run of the fixed reference loop takes now."""
    start = clock()
    table: dict[int, int] = {}
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFF
        table[acc & 1023] = i
    sorted(table.values())
    return clock() - start


def host_scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference-speed seconds for a stretch
    bracketed by two reference loops."""
    return REFERENCE_S / ((before + after) / 2)


def cmd_gen(args) -> None:
    from random import Random

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    count = math.ceil(POOL_HEADROOM * args.seconds / workload.nominal_s) + 10
    queries = workload.queries(Random(args.seed), out, count, args.toy)
    pool = {
        "workload": workload.name,
        "fields": list(workload.fields),
        "trace_queries": max(2, round(args.seconds / (workload.nominal_s * TRACE_SLOWDOWN))),
        "queries": queries,
    }
    (out / "queries.json").write_text(json.dumps(pool))


def cmd_setup(args) -> None:
    fields = json.loads(Path(args.queries).read_text())["fields"]
    reference()  # the first run of the loop in a fresh process warms it up
    before = reference()
    start = clock()
    import posetcode

    for q in fields:
        posetcode.gf(q)
    seconds = clock() - start
    scale = host_scale(before, reference())
    Path(args.result).write_text(json.dumps({"setup_s": seconds * scale, "wall_s": seconds}))


def _run_query(cli, query: dict) -> dict:
    outputs: list[str] = []
    error = None
    started = clock()
    for argv in query["argv"]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                status = cli.main(argv)
        except Exception:
            error = traceback.format_exc()
            break
        if status != 0:
            error = f"exit code {status}: {err.getvalue()}"
            break
        outputs.append(out.getvalue())
    latency = clock() - started
    return {"id": query["id"], "latency_s": latency, "outputs": outputs, "error": error}


def cmd_run(args) -> None:
    pool = json.loads(Path(args.queries).read_text())
    import posetcode
    from posetcode import cli

    for q in pool["fields"]:
        posetcode.gf(q)
    tracer = None
    if args.spans:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.calibrate()
        tracer.install(posetcode)
    queries = pool["queries"] if args.limit is None else pool["queries"][: args.limit]
    records: list[dict] = []
    reference()  # warm-up, as in setup
    start = clock()
    deadline = start + args.seconds if args.limit is None else math.inf
    before = reference()
    block_start, block = clock(), 0
    for query in queries:
        if clock() >= deadline:
            break
        if tracer is not None:
            tracer.begin_query(query["id"])
        records.append(_run_query(cli, query))
        if clock() - block_start >= BLOCK_S or len(records) == len(queries) or clock() >= deadline:
            after = reference()
            scale = host_scale(before, after)
            for record in records[block:]:
                record["scaled_s"] = record["latency_s"] * scale
            before, block_start, block = after, clock(), len(records)
    elapsed = clock() - start
    result = {
        "elapsed_s": elapsed,
        "scaled_s": sum(record["scaled_s"] for record in records),
        "pool_exhausted": args.limit is None and len(records) == len(queries),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": records,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, len(records))
        tracer.write_spans(args.spans)
    Path(args.result).write_text(json.dumps(result))


def cmd_check(args) -> None:
    from workloads import WORKLOADS

    pool = json.loads(Path(args.queries).read_text())
    workload = WORKLOADS[pool["workload"]]
    by_id = {query["id"]: query for query in pool["queries"]}
    oracles: dict[int, dict] = {}
    failures = []
    attempted = 0
    for path in args.results:
        for record in json.loads(Path(path).read_text())["records"]:
            attempted += 1
            query = by_id[record["id"]]
            reason = record["error"]
            if reason is None:
                try:
                    if query["id"] not in oracles:
                        oracles[query["id"]] = workload.oracle(query)
                    reason = workload.check(query, oracles[query["id"]], record["outputs"])
                except Exception:
                    reason = traceback.format_exc()
            if reason is not None:
                failures.append({"id": query["id"], "argv": query["argv"], "reason": reason})
    (Path(args.queries).parent / "oracle.json").write_text(json.dumps(oracles))
    Path(args.result).write_text(json.dumps({"attempted": attempted, "failures": failures}))


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("gen")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_gen)
    p = sub.add_parser("setup")
    p.add_argument("--queries", required=True)
    p.add_argument("--result", required=True)
    p.set_defaults(handler=cmd_setup)
    p = sub.add_parser("run")
    p.add_argument("--queries", required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--limit", type=int)
    p.add_argument("--spans")
    p.add_argument("--result", required=True)
    p.set_defaults(handler=cmd_run)
    p = sub.add_parser("check")
    p.add_argument("--queries", required=True)
    p.add_argument("--results", nargs="+", required=True)
    p.add_argument("--result", required=True)
    p.set_defaults(handler=cmd_check)
    args = parser.parse_args(argv)
    if args.mode == "run" and (args.seconds is None) == (args.limit is None):
        parser.error("run takes exactly one of --seconds and --limit")
    args.handler(args)


if __name__ == "__main__":
    main()
