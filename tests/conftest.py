import sys
from pathlib import Path

import pytest

from scaleopt import optimizer

sys.path.insert(0, str(Path(__file__).parent))

# One line per acceptance criterion, filled in by tests/test_acceptance.py
# and echoed after the test report so the verdicts survive output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_interned_grid():
    """Each test starts with ``CandidateGrid.for_region``'s memo empty, so a
    test that counts factorizations does not depend on the tests before it."""
    optimizer._last_grid.cache_clear()
