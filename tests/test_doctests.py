"""Run the examples in every toriclab module's docstrings; pytest collects
only tests/, so nothing else runs them."""

import doctest
import importlib
import pkgutil

import pytest

import toriclab

MODULES = sorted(m.name for m in pkgutil.iter_modules(toriclab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_examples_run(name):
    module = importlib.import_module(f"toriclab.{name}")
    result = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
    assert result.failed == 0, name


def test_the_shared_routines_have_examples():
    finder = doctest.DocTestFinder()
    lattice = importlib.import_module("toriclab.lattice")
    named = {t.name.rsplit(".", 1)[-1] for t in finder.find(lattice) if t.examples}
    assert {"echelon", "smith_normal_form"} <= named
