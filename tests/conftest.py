"""Shared pytest configuration.

The acceptance tests append one PASS/FAIL line per criterion to
ACCEPTANCE_LINES; the terminal-summary hook prints them in a dedicated
section so the verdicts are visible even when stdout capture is on.

The poison_first_instance fixture plants a fault for the tests of the
self-check failure path, and at_ideals reads a table by grid index where
it means something.
"""

from __future__ import annotations

import pytest

from posetcode import selftest

ACCEPTANCE_LINES: list[str] = []


def at_ideals(poset, table: bytes) -> dict[int, int]:
    """A table by grid index (RankProfile.shortened_dims, walked_dims,
    census_dims, zeta_dims) at the ideals only, {ideal mask: entry} in
    ascending mask order: its entries off the ideals mean nothing."""
    layout = poset.chain_layout()
    assert len(table) == layout.size
    return {ideal: table[layout.index(ideal)] for ideal in poset.ideals()}


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
