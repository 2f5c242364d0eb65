"""Tests of the mutant runner on a planted tree: a package of one function
and one test of it.

    python -m pytest mutants/tests -q
"""

import importlib.util
import io
import pathlib

import pytest


def _load(name, path):
    """The module at path, under a name of its own: bench/ has a run.py
    too, and one pytest run may collect both directories."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = pathlib.Path(__file__).resolve().parents[1]
run = _load("mutants_run", MUTANTS / "run.py")
ROWS = _load("mutants_table", MUTANTS / "table.py").ROWS


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "src" / "demo").mkdir(parents=True)
    (tmp_path / "src" / "demo" / "__init__.py").write_text("def double(x):\n    return 2 * x\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_demo.py").write_text("from demo import double\n\n\ndef test_double():\n    assert double(3) == 6\n")
    return tmp_path


def _row(name, old, new):
    return {"name": name, "file": "src/demo/__init__.py", "old": old, "new": new, "tests": ["tests/test_demo.py::test_double"]}


KILLED = _row("triple", "2 * x", "3 * x")
SURVIVES = _row("commuted", "2 * x", "x * 2")
STALE = _row("stale", "4 * x", "5 * x")


def _run(rows, tree):
    out = io.StringIO()
    return run.run(rows, root=tree, out=out), out.getvalue()


def test_a_caught_change_is_killed(tree):
    assert _run([KILLED], tree) == (0, "triple: killed\n")


def test_a_survivor_fails_the_run(tree):
    assert _run([KILLED, SURVIVES], tree) == (1, "triple: killed\ncommuted: survived\n")


def test_stale_old_text_fails_the_run(tree):
    assert _run([STALE], tree) == (1, "stale: stale: old text found 0 times in src/demo/__init__.py\n")


def test_tests_failing_unchanged_fail_the_run(tree):
    demo = tree / "tests" / "test_demo.py"
    demo.write_text(demo.read_text() + "\n\ndef test_broken():\n    assert False\n")
    status, out = _run([_row("any", "2 * x", "3 * x") | {"tests": ["tests/test_demo.py::test_broken"]}, KILLED], tree)
    assert (status, out) == (1, "any: its tests fail on the unchanged tree (pytest exit 1)\ntriple: killed\n")


def test_the_table_is_well_formed():
    # a stale row shows here, not only in the full run: its old text must
    # occur once in its file, and each test it names must be defined
    names = [row["name"] for row in ROWS]
    assert len(set(names)) == len(names)
    root = MUTANTS.parent
    for row in ROWS:
        assert set(row) == {"name", "file", "old", "new", "tests"}
        assert row["file"].startswith("src/") and row["old"] != row["new"] and row["tests"]
        assert (root / row["file"]).read_text().count(row["old"]) == 1, row["name"]
        for test in row["tests"]:
            path, _, function = test.partition("::")
            assert (root / path).is_file(), (row["name"], test)
            if function:
                assert f"def {function.split('[')[0]}(" in (root / path).read_text(), (row["name"], test)
