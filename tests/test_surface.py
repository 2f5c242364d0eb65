"""The library's surface: every top-level function and class in
src/toriclab, and every method of such a class but the dunders, is
referenced somewhere in src/ outside its own definition.  A public one
with no such reference may instead be kept in KEEP, for a reason checked
here against real text; a private one may not.

References are read by name from the syntax trees: a function or class is
referenced by a name, an import or an attribute, a method only by an
attribute.  Matching by name errs towards keeping a name, never towards
flagging a used one.

The same trees hold no `assert` statement: `python -O` strips them, so the
library's invariants raise real exceptions.  Nor do they import anything
but `__future__`, toriclab and the standard library: the library stays
standard-library only.  Only `_value.py` calls `object.__new__`, and no
value class defines `__init__`: a value is built checked by the shared
`Value.__init__` or unchecked by `Value._trusted`, nothing else.

The oracles the tests check the library against (tests/oracles.py) read
the library as data only: they import nothing from it but value classes
and `Vec`, call none of the routines whose answers they check, and read
none of a cone's cached facts; `piece` alone reads the psi record.
"""

import ast
import collections
import importlib
import pathlib
import re
import sys

import toriclab
from toriclab._value import Value

PACKAGE = pathlib.Path(toriclab.__file__).parent
ROOT = PACKAGE.parent.parent
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
ORACLES = ROOT / "tests" / "oracles.py"
PINNED = ROOT / "tests" / "test_pair_digest.py"
BENCH = ROOT / "bench"

# The deciders of the north star's facts that nothing in src/ calls: the
# class-group, Cartier and smoothness tests that state them.
NORTH_STAR = frozenset({"class_group", "divisor_class_q", "is_cartier", "is_qcartier", "is_smooth"})

# Names kept with no caller in src/, each with its reason:
# - "acceptance": the acceptance criteria (tests/test_acceptance.py) use it;
# - "bench": a file under bench/ uses it;
# - "north star": it is in NORTH_STAR;
# - "pinned": the sha256-pinned answers of tests/test_pair_digest.py read it.
KEEP = {
    "casebook.IncidenceArrangement.drop_incidence": "acceptance",
    "catalog.cone_over_square_fan": "pinned",
    "complexity.assert_bmsz": "acceptance",
    "complexity.complexity_transport": "acceptance",
    "fan.Cone.from_generators": "acceptance",
    "fan.is_smooth": "north star",
    "fan.linear_feasible": "bench",
    "lattice.solve_integer": "bench",
    "lattice.solve_rational": "bench",
    "markov.enumerate_markov": "acceptance",
    "markov.hkw_surface": "acceptance",
    "pairs.standard_pair": "acceptance",
    "polytope.facet_functionals": "bench",
    "toric.class_group": "north star",
    "toric.divisor_class_q": "north star",
    "toric.is_cartier": "north star",
    "toric.is_qcartier": "north star",
}


def _references(node):
    """(names, attributes) used inside the node, with multiplicities."""
    names, attrs = collections.Counter(), collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            attrs[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name.rsplit(".", 1)[-1]] += 1
    return names, attrs


def _surface():
    """{qualified name: referenced in src/ outside its own definition} for
    every top-level function and class and every method but the dunders."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    names, attrs = collections.Counter(), collections.Counter()
    for tree in trees.values():
        n, a = _references(tree)
        names.update(n)
        attrs.update(a)
    out = {}
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(f"{module}.{node.name}", node, False)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{s.name}", s, True) for s in node.body if isinstance(s, ast.FunctionDef)]
            for qualname, d, method in defs:
                if d.name.startswith("__") and d.name.endswith("__"):
                    continue
                own_names, own_attrs = _references(d)
                used = attrs[d.name] - own_attrs[d.name]
                if not method:
                    used += names[d.name] - own_names[d.name]
                out[qualname] = used > 0
    return out


def _mentions(path, name):
    return re.search(rf"\b{re.escape(name)}\b", path.read_text(encoding="utf-8")) is not None


def _reason_holds(qualname, reason):
    name = qualname.rsplit(".", 1)[-1]
    if reason == "acceptance":
        return _mentions(ACCEPTANCE, name)
    if reason == "pinned":
        return _mentions(PINNED, name)
    if reason == "bench":
        return any(_mentions(path, name) for path in BENCH.rglob("*.py"))
    if reason == "north star":
        return name in NORTH_STAR
    return False


def _private(qualname):
    return qualname.rsplit(".", 1)[-1].startswith("_")


def test_every_public_name_is_called_or_kept():
    surface = _surface()
    unkept = sorted(q for q, used in surface.items() if not used and not _private(q) and q not in KEEP)
    assert not unkept, f"public names nothing in src/ calls, not in KEEP: {unkept}"


def test_every_private_name_is_called():
    unused = sorted(q for q, used in _surface().items() if not used and _private(q))
    assert not unused, f"private names nothing in src/ calls: {unused}"


def test_keep_lists_only_unreferenced_names():
    surface = _surface()
    stale = sorted(q for q in KEEP if surface.get(q, True))
    assert not stale, f"KEEP entries that are gone or that src/ references: {stale}"


def test_every_keep_reason_holds():
    wrong = sorted(f"{q}: {r}" for q, r in KEEP.items() if not _reason_holds(q, r))
    assert not wrong, wrong


def test_library_has_no_bare_assert():
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    )
    assert not found, f"assert statements in src/toriclab: {found}"



def _imports(tree):
    """(line, top-level module) for every import; a relative one is
    toriclab's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, "toriclab" if node.level else node.module.split(".")[0]


def test_library_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"__future__", "toriclab"}
    found = sorted(
        f"{path.name}:{line} {module}"
        for path in PACKAGE.glob("*.py")
        for line, module in _imports(ast.parse(path.read_text(encoding="utf-8")))
        if module not in allowed
    )
    assert not found, f"imports from outside the standard library in src/toriclab: {found}"


def _value_classes():
    modules = [importlib.import_module(f"toriclab.{path.stem}") for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    return {c for m in modules for c in vars(m).values() if isinstance(c, type) and issubclass(c, Value)}


def _calls_object_new(tree):
    return any(
        isinstance(n, ast.Attribute) and n.attr == "__new__" and isinstance(n.value, ast.Name) and n.value.id == "object"
        for n in ast.walk(tree)
    )


def test_values_are_built_by_value_alone():
    found = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "_value.py" and _calls_object_new(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert not found, f"object.__new__ outside _value.py: {found}"
    classes = _value_classes()
    assert len(classes) == 20
    own = sorted(c.__qualname__ for c in classes if c is not Value and "__init__" in vars(c))
    assert not own, f"value classes with their own __init__: {own}"


# The library routines whose answers the oracles check, or that those
# answers rest on: tests/oracles.py calls none of them ...
ORACLE_UNCALLED = frozenset({
    "_psi", "SolveChart", "smith_normal_form", "solve_rational", "solve_integer", "rank", "det",
    "_meet_in_common_face", "walls", "is_complete", "is_simplicial", "local_functionals",
    "divisor_class", "divisor_class_q", "unimodular_normal_form",
})
# ... and reads none of a cone's cached facts or point location
ORACLE_UNREAD = frozenset({
    "solve_chart", "_echelon", "facet_data", "contains", "relint_contains",
    "is_strongly_convex", "generators_extremal", "cone_index_of",
})


def test_oracles_read_the_library_as_data_only():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    allowed = {c.__name__ for c in _value_classes()} | {"Vec"}
    piece = next(d for d in tree.body if isinstance(d, ast.FunctionDef) and d.name == "piece")
    in_piece = set(map(id, ast.walk(piece)))  # piece alone reads the psi record's `scaled`
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name.split(".")[0] == "toriclab"]
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "toriclab":
            found += [f"{node.lineno}: imports {a.name}" for a in node.names if a.name not in allowed]
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in ORACLE_UNCALLED:
                found.append(f"{node.lineno}: calls {name}")
        elif isinstance(node, ast.Attribute) and (
            node.attr in ORACLE_UNREAD or node.attr == "scaled" and id(node) not in in_piece
        ):
            found.append(f"{node.lineno}: reads .{node.attr}")
    assert not found, f"tests/oracles.py reads the library beyond its data: {found}"
