"""CLI stdout and exit codes against the recorded golden outputs.

The cases and the recorder live in golden_cases.py; see its docstring for
how to re-record after an intended change of output.
"""

from __future__ import annotations

import json

import pytest

from golden_cases import EXIT_CODES, GOLDEN, cases, run

EXPECTED_EXIT = json.loads(EXIT_CODES.read_text())


def test_every_case_has_a_golden_file():
    names = [name for name, _ in cases()]
    assert sorted(names) == sorted(EXPECTED_EXIT)
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(names)


@pytest.mark.parametrize(("name", "argv"), cases(), ids=[name for name, _ in cases()])
def test_cli_output_matches_golden(name, argv):
    status, out = run(argv)
    assert status == EXPECTED_EXIT[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
