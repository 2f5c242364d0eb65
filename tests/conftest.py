import gc
import os
import sys
import tracemalloc
import weakref
from functools import cached_property
from typing import NamedTuple

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


# ------------------------------------------------------------ count guards


class Call(NamedTuple):
    """One call through a counted binding: the object the binding sits on,
    the call's arguments, and the names of the functions on the stack
    above it, innermost first."""

    owner: object
    args: tuple
    kwargs: dict
    callers: tuple


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name, owner, ...) rebinds `name` on each owner (a module,
    a class or an instance) to a wrapper that logs a Call and then runs the
    original, until the test ends or undoes its monkeypatch; it returns the
    one log of all those bindings.  A cached property is rebuilt around its
    wrapped function, so it still caches, and the log holds only the calls
    that compute a value."""

    def wrap(owner, original, log):
        def counted(*args, **kwargs):
            names, frame = [], sys._getframe(1)  # the callers' names, as inspect.stack()[1:] without reading source
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            log.append(Call(owner, args, kwargs, tuple(names)))
            return original(*args, **kwargs)

        return counted

    def _count_calls(name, *owners):
        log = []
        for owner in owners:
            bound = vars(owner).get(name) if isinstance(owner, type) else None
            if isinstance(bound, cached_property):
                counted = cached_property(wrap(owner, bound.func, log))
                counted.__set_name__(owner, name)
            else:
                counted = wrap(owner, getattr(owner, name), log)
            monkeypatch.setattr(owner, name, counted)
        return log

    return _count_calls


# ------------------------------------------------------------ memory plateaus


@pytest.fixture
def assert_plateau(request):
    """assert_plateau(run, entries, inputs, bound, noise) calls `run` on
    every input of `inputs` (warm-up, first half, second half) under
    tracemalloc, and asserts that the first half leaves at most `bound`
    entries, the second half no more than the first, and at most `noise`
    traced bytes more.  Bytes allocated in the calling test module or in
    this harness are not counted: they hold the inputs and the loop, not
    what the library keeps."""
    unowned = [tracemalloc.Filter(False, request.module.__file__), tracemalloc.Filter(False, __file__)]

    def retained(run, entries, batch):
        for item in batch:
            run(item)
        gc.collect()
        traces = tracemalloc.take_snapshot().filter_traces(unowned).traces
        return entries(), sum(trace.size for trace in traces)

    def _assert_plateau(run, entries, inputs, bound, noise):
        warm_up, first, second = inputs
        tracemalloc.start()
        try:
            retained(run, entries, warm_up)
            (keys, size), (more_keys, more_size) = retained(run, entries, first), retained(run, entries, second)
        finally:
            tracemalloc.stop()
        assert keys <= bound and more_keys <= keys and more_size <= size + noise, (keys, more_keys, size, more_size)

    return _assert_plateau


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
