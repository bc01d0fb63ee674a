"""Golden CLI outputs: the recorded calls, and the recorder.

Each case is one `posetcode` call on the fixture files in tests/data.
tests/data/golden/<case>.out holds its stdout byte for byte, and
tests/data/golden/exit_codes.json its exit code; test_golden.py replays
every case against them.  After an intended change of output, re-record
with

    PYTHONPATH=src python tests/golden_cases.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

# code fixture -> posets it is read under: presets plus one poset file
CODES = {
    "hamming7": ("antichain:7", "chain:7", "nrt7.poset"),
    "simplex7": ("antichain:7", "chain:7", "nrt7.poset"),
    "pair": ("antichain:4", "chain:4", "nrt4.poset"),
    "parity3": ("antichain:3", "chain:3", "v3.poset"),
}
COMMANDS = (
    ("hierarchy",),
    ("duality",),
    ("classify",),
    ("distribution", "--method", "enumerate"),
    ("distribution", "--method", "moebius"),
    ("distribution", "--method", "closed-form"),
)
# the table scan at the size of the scan-antichain-q2 benchmark: a seeded
# binary [14,7] code under antichain:14, whose shortened dimensions come
# from the zeta fill; the expected files were recorded from the rank walk
SCAN_CASES = (
    ("rand14-antichain-duality", ["duality", "--json"]),
    ("rand14-antichain-classify", ["classify", "--json"]),
    ("rand14-antichain-duality-text", ["duality"]),
)
# the codeword stream at the size of the enumerate-nrt-q3 benchmark: a seeded
# ternary [20,10] code under the NRT 4 x 5 poset file, 1 + (3^10 - 1)/2 lines
ENUMERATE_CASES = (
    ("rand20q3-nrt4x5-distribution", ["distribution", "--json"]),
    ("rand20q3-nrt4x5-hierarchy", ["hierarchy", "--json"]),
)


def cases() -> list[tuple[str, list[str]]]:
    """(case name, CLI argv) for every golden call."""
    out = [("selftest-seed0-trials50", ["selftest", "--seed", "0", "--trials", "50", "--json"])]
    for code, posets in CODES.items():
        for poset in posets:
            poset_arg = str(DATA / poset) if poset.endswith(".poset") else poset
            poset_tag = poset.split(":")[0].removesuffix(".poset")
            for command in COMMANDS:
                name = "-".join((code, poset_tag, command[0], *command[2:]))
                argv = [command[0], "--code", str(DATA / f"{code}.code"), "--poset", poset_arg]
                out.append((name, argv + list(command[1:]) + ["--json"]))
    for name, (command, *flags) in SCAN_CASES:
        out.append((name, [command, "--code", str(DATA / "rand14.code"), "--poset", "antichain:14", *flags]))
    for name, (command, *flags) in ENUMERATE_CASES:
        out.append((name, [command, "--code", str(DATA / "rand20q3.code"), "--poset", str(DATA / "nrt4x5.poset"), *flags]))
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call; stderr is dropped."""
    from posetcode.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    return status, stdout.getvalue()


def record() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    exit_codes = {}
    for name, argv in cases():
        status, out = run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
        exit_codes[name] = status
    EXIT_CODES.write_text(json.dumps(exit_codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
    sys.exit(0)
