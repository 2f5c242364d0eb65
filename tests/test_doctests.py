"""Run the examples in every toriclab module's docstrings; pytest collects
only tests/, so nothing else runs them."""

import doctest
import importlib
import inspect
import pkgutil
from functools import cached_property

import pytest

import toriclab

MODULES = sorted(m.name for m in pkgutil.iter_modules(toriclab.__path__))


def _doctests(module):
    """The module's doctests, with those in cached_property docstrings:
    DocTestFinder takes such a property for a functools object and skips
    it, so each one's function is searched on its own."""
    finder = doctest.DocTestFinder()
    tests = finder.find(module)
    for cls in vars(module).values():
        if inspect.isclass(cls) and cls.__module__ == module.__name__:
            for attr, val in vars(cls).items():
                if isinstance(val, cached_property):
                    name = f"{module.__name__}.{cls.__name__}.{attr}"
                    tests += finder.find(val.func, name, module=module, globs=vars(module))
    return tests


@pytest.mark.parametrize("name", MODULES)
def test_module_examples_run(name):
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    for test in _doctests(importlib.import_module(f"toriclab.{name}")):
        runner.run(test)
    assert runner.failures == 0, name


def test_the_shared_routines_have_examples():
    finder = doctest.DocTestFinder()
    for module, routines in (("lattice", {"echelon", "smith_normal_form"}), ("fan", {"double_description"})):
        found = finder.find(importlib.import_module(f"toriclab.{module}"))
        named = {t.name.rsplit(".", 1)[-1] for t in found if t.examples}
        assert routines <= named, module


def test_cached_property_examples_are_found():
    fan = importlib.import_module("toriclab.fan")
    named = {t.name for t in _doctests(fan) if t.examples}
    assert {"toriclab.fan.Cone.triangulation", "toriclab.fan.Fan.from_data"} <= named
