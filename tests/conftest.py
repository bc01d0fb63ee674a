"""Shared pytest configuration.

The acceptance tests append one PASS/FAIL line per criterion to
ACCEPTANCE_LINES; the terminal-summary hook prints them in a dedicated
section so the verdicts are visible even when stdout capture is on.

The poison_first_instance fixture plants a fault for the tests of the
self-check failure path.
"""

from __future__ import annotations

import pytest

from posetcode import selftest

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def poison_first_instance(monkeypatch):
    """A call after which the next instance run_selftest draws carries
    rank({1}) = 2, an R1 violation; later draws are clean."""

    def poison():
        original = selftest.random_instance

        def draw(rng):
            code, poset = original(rng)
            code.matroid._rank_table[1] = 2
            monkeypatch.setattr(selftest, "random_instance", original)
            return code, poset

        monkeypatch.setattr(selftest, "random_instance", draw)

    return poison


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
