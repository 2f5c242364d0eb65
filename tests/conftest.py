import os
import sys
import weakref

import pytest

from toriclab import fan
from toriclab.catalog import bundled_fans

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _no_shared_fans(monkeypatch):
    """Each test starts with no live fans for Fan.from_data to share, so
    fans an earlier test left in a cache do not warm its cold counts."""
    monkeypatch.setattr(fan, "_ALIVE", weakref.WeakValueDictionary())


@pytest.fixture
def catalogue():
    """The bundled fans, built again under this test's live table, as a
    process that loads the catalogue first holds them: Fan.from_data then
    shares them with every equal fan the test reads."""
    bundled_fans.cache_clear()
    return bundled_fans()


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance scorecard (one line per criterion) after the
    run, whatever capture mode is active."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(RESULTS):
            terminalreporter.write_line(line)
