"""Run the table of mutants (mutants/table.py): each row changes one exact
text in one file under src/ and names the tests that must then fail.

    python mutants/run.py [name ...]

The named rows, or all of them, run one at a time.  The repository,
without .git and caches, is copied to a temporary directory once.  Each
row's tests must pass there unchanged, run exactly as they will run on
the mutant, so that a failing test means the change was caught: a test
that passes in one selection of tests and fails in another (a memory
plateau, say) is judged in the row's own selection.  Each row then gets a
fresh copy of that tree, with its old text, which must occur exactly once
in its file, replaced by its new text, and its tests run there in one
pytest subprocess with PYTHONPATH at the copy's src/.  The row is killed
when pytest reports a failed test (exit status 1) and survives when they
all pass.

Prints one line per row.  Exits 0 when every row is killed, 1 when a row
survives, its old text is not found exactly once, its tests fail on the
unchanged tree or its pytest run ends in any other way, and 2 on an
unknown row name.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_run", ".bench_out")


def _pytest(tree: Path, tests) -> int:
    """pytest's exit status on the tests, run in the tree with its src/
    first on the path and no bytecode written."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=tree, env=env, capture_output=True).returncode


def run(rows, root: Path = ROOT, out=sys.stdout) -> int:
    """Run each row on a copy of the tree at root; the exit status."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        shutil.copytree(root, base, ignore=IGNORED)
        status = 0
        for row in rows:
            tree = Path(tmp) / "mutant"
            shutil.copytree(base, tree)
            path = tree / row["file"]
            text = path.read_text()
            found = text.count(row["old"])
            if found != 1:
                verdict = f"stale: old text found {found} times in {row['file']}"
            elif code := _pytest(tree, row["tests"]):
                verdict = f"its tests fail on the unchanged tree (pytest exit {code})"
            else:
                path.write_text(text.replace(row["old"], row["new"]))
                code = _pytest(tree, row["tests"])
                verdict = {0: "survived", 1: "killed"}.get(code, f"error: pytest exit {code}")
            shutil.rmtree(tree)
            status |= verdict != "killed"
            print(f"{row['name']}: {verdict}", file=out, flush=True)
        return status


def main(argv=None) -> int:
    from table import ROWS

    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {row["name"] for row in ROWS}
    if unknown:
        print(f"unknown rows: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    return run([row for row in ROWS if not names or row["name"] in names])


if __name__ == "__main__":
    sys.exit(main())
