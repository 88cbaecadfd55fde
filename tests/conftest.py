"""Echo the acceptance-criterion verdict lines after the run, and the
``chunk_routes`` fixture of the reader tests.

Regular output capture swallows per-test prints; the one-line PASS/FAIL
verdicts from tests/test_acceptance.py are repeated here so they always
appear in the terminal summary.
"""

import sys

import pytest


@pytest.fixture
def chunk_routes(monkeypatch):
    """A list that records, chunk by chunk of each read, whether the chunk
    took the fast route (True) or ``np.loadtxt`` (False)."""
    from rank_extremes import textio

    taken = []
    exact = textio._exact

    def spy(*args):
        rows = exact(*args)
        taken.append(rows is not None)
        return rows

    monkeypatch.setattr(textio, "_exact", spy)
    return taken


def pytest_terminal_summary(terminalreporter):
    for name in ("tests.test_acceptance", "test_acceptance"):
        module = sys.modules.get(name)
        if module is not None:
            break
    else:
        return
    lines = getattr(module, "CRITERION_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
