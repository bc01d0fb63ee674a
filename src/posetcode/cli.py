"""Command line front end.

Subcommands: hierarchy, duality, distribution, classify, rank, selftest.
Codes come from files in the format of code.parse_code; posets from files
in the format of poset.parse_poset or from the presets chain:<n> and
antichain:<n>.  Exit codes: 0 success, 1 input or usage error, 2 an
internal self-check failed.  A self-check failure prints, on stderr, a
reproducer: the code and the poset in their text formats.  Output for
fixed inputs and seeds is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .bitset import from_elements
from .code import LinearCode, format_code, load_code
from .distribution import classify, distribution_report
from .errors import SelfCheckError
from .hierarchy import (
    METHOD_BRUTEFORCE,
    METHOD_IDEAL_SCAN,
    duality_partition,
    weight_hierarchy,
)
from .poset import Poset, format_poset, load_poset
from .selftest import run_selftest


def _poset_from_arg(arg: str) -> Poset:
    for prefix, builder in (("chain:", Poset.chain), ("antichain:", Poset.antichain)):
        if arg.startswith(prefix):
            raw = arg[len(prefix) :]
            try:
                n = int(raw)
            except ValueError:
                raise ValueError(f"poset preset {arg!r}: {raw!r} is not an integer") from None
            return builder(n)
    return load_poset(arg)


def _on_instance(run):
    """Handler that loads --code and --poset and calls run(args, code, poset);
    a SelfCheckError leaves it carrying the instance as its reproducer."""

    def handler(args: argparse.Namespace) -> int:
        code = load_code(args.code)
        poset = _poset_from_arg(args.poset)
        try:
            return run(args, code, poset)
        except SelfCheckError as exc:
            exc.reproducer = format_code(code) + format_poset(poset)
            raise

    return handler


def _print_json(obj: dict) -> None:
    print(json.dumps(obj))


def _format_word(word: tuple[int, ...]) -> str:
    return " ".join(str(a) for a in word)


def _format_elements(elems) -> str:
    return "{" + ",".join(str(e) for e in elems) + "}"


def cmd_hierarchy(args: argparse.Namespace, code: LinearCode, poset: Poset) -> int:
    result = weight_hierarchy(code, poset, args.method)
    if args.json:
        _print_json(result.as_dict())
        return 0
    print(f"n={result.n} k={result.k} q={result.q} method={result.method} poset={result.poset_digest}")
    for r, (w, witness) in enumerate(zip(result.weights, result.witnesses), start=1):
        if result.method == METHOD_BRUTEFORCE:
            shown = "basis [" + " | ".join(_format_word(b) for b in witness) + "]"
        else:
            shown = "ideal " + _format_elements(witness)
        print(f"r={r} d={w} {shown}")
    return 0


def cmd_duality(args: argparse.Namespace, code: LinearCode, poset: Poset) -> int:
    result = duality_partition(code, poset)
    if args.json:
        _print_json(result.as_dict())
        return 0
    print(f"n={result.n} k={result.k}")
    print(f"weights      {' '.join(map(str, result.weights))}")
    print(f"dual weights {' '.join(map(str, result.dual_weights))}")
    print(f"first  {_format_elements(result.first)}")
    print(f"second {_format_elements(result.second)}")
    print(f"partition of 1..{result.n}: ok")
    return 0


def cmd_distribution(args: argparse.Namespace, code: LinearCode, poset: Poset) -> int:
    report = distribution_report(code, poset, args.method)
    if args.json:
        _print_json(report.as_dict())
        return 0
    cls_ = report.classification
    tail = "" if cls_.d2 is None else f" d2={cls_.d2}"
    print(f"classification: {cls_.label} d1={cls_.d1}{tail}")
    print(f"method: {report.method}")
    for r, count in enumerate(report.counts):
        print(f"A_{r} = {count}")
    return 0


def cmd_classify(args: argparse.Namespace, code: LinearCode, poset: Poset) -> int:
    cls_ = classify(code, poset)
    if args.json:
        _print_json(cls_.as_dict())
        return 0
    tail = "" if cls_.d2 is None else f" d2={cls_.d2}"
    print(f"{cls_.label} d1={cls_.d1}{tail}")
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    code = load_code(args.code)
    try:
        elements = [int(tok) for tok in args.set.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"--set must be comma-separated integers, got {args.set!r}") from None
    mask = from_elements(elements, code.n)
    # one subset at any n: direct eliminations, not the all-subsets tables
    rank = code.generator.column_submatrix(mask).rank()
    dual_rank = code.parity.column_submatrix(mask).rank()
    complement_rank = code.generator.column_submatrix(((1 << code.n) - 1) ^ mask).rank()
    triple = [mask.bit_count() - dual_rank, code.k - complement_rank, code.shorten(mask)[0]]
    _print_json(
        {
            "n": code.n,
            "k": code.k,
            "set": sorted(elements),
            "rank": rank,
            "dual_rank": dual_rank,
            "shortened_dim_three_ways": triple,
        }
    )
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    report = run_selftest(args.seed, args.trials)
    if args.json:
        _print_json(report.as_dict())
    else:
        print(f"seed={report.seed} trials={report.trials}")
        for name, count in sorted(report.counts.items()):
            print(f"{name}: {count} ok")
        print(f"mds={report.mds_seen} nmds={report.nmds_seen}")
        print("PASS" if report.passed else "FAIL")
    if not report.passed:
        for failure in report.failures:
            print(f"FAIL {failure.check}: {failure.detail}", file=sys.stderr)
            print("reproducer:", file=sys.stderr)
            print(failure.reproducer, file=sys.stderr)
        return 2
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call of the process and reused."""
    parser = argparse.ArgumentParser(
        prog="posetcode",
        description="Weight hierarchies, duality, and weight distributions of linear codes under poset metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the instance subcommands: name, help, handler and --method choices, the first the default
    for name, about, run, methods in (
        ("hierarchy", "generalized minimum poset weights d_1..d_k", cmd_hierarchy, [METHOD_IDEAL_SCAN, METHOD_BRUTEFORCE]),
        ("duality", "hierarchy of the code and its dual; partition check", cmd_duality, []),
        ("distribution", "poset weight distribution A_0..A_n", cmd_distribution, ["enumerate", "moebius", "closed-form"]),
        ("classify", "MDS / NMDS / other with d_1 and d_2", cmd_classify, []),
    ):
        p = sub.add_parser(name, help=about)
        p.add_argument("--code", required=True, help="code file (q/n/k header plus generator rows)")
        p.add_argument("--poset", required=True, help="poset file, or preset chain:<n> / antichain:<n>")
        if methods:
            p.add_argument("--method", choices=methods, default=methods[0])
        p.add_argument("--json", action="store_true")
        p.set_defaults(handler=_on_instance(run))

    p = sub.add_parser("rank", help="rank, dual rank, and shortened dimension of a coordinate set")
    p.add_argument("--code", required=True, help="code file")
    p.add_argument("--set", required=True, help="comma-separated 1-based coordinates, e.g. 1,3,5")
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("selftest", help="randomized cross-validation of all computation paths")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; anything else is a usage error
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        if exc.reproducer is not None:
            print("reproducer:", file=sys.stderr)
            print(exc.reproducer, file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
