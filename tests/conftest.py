"""Shared fixtures, the ``deep`` hypothesis profile and the acceptance-line reporter.

The acceptance tests each register one pass/fail line; the terminal
summary hook replays them after the run so the verdict for every
criterion is visible even when pytest captures test output.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import settings

from labelgames.analysis import Environment

# ``pytest --hypothesis-profile=deep`` runs the kernel's differential test
# (test_game.py, ``test_matches_a_sequential_replay_of_every_run``), the
# whole-run spec (test_experiment.py,
# ``test_run_experiment_equals_the_spec_run_by_run``), the input-contract
# property (test_inputs.py,
# ``test_each_value_is_stored_plain_or_refused_naming_its_field``) and the
# Monte Carlo loops' differential test (test_estimators.py,
# ``test_loops_match_the_reference``) at 3,000 examples; by default each
# runs 300.
settings.register_profile("deep", max_examples=3000)

_ACCEPTANCE_LINES: list[str] = []


def report_criterion(index: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {index:2d} {'PASS' if passed else 'FAIL'}: {detail}"
    _ACCEPTANCE_LINES.append(line)
    print(line, file=sys.stderr, flush=True)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def env_a() -> Environment:
    """First dimension unconstrained, second on the lower half."""
    return Environment(((0.0, 1.0), (0.0, 0.5)))


@pytest.fixture(scope="session")
def env_b() -> Environment:
    """Both dimensions constrained: a box with upward-pull share one quarter."""
    return Environment(((0.25, 0.75), (0.0, 0.5)))
