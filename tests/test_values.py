"""The value classes' contract, one sample of each of the 19 classes.

The reprs below were taken from the same samples when the classes were
frozen dataclasses; the package now builds them from the shared methods
of toriclab._value and must keep every repr byte for byte.  Each row also
checks: == only within one class, over the compared fields; hash as the
hash of their tuple; the fields left out of the repr and of ==/hash; no
field set or deleted; positional, keyword and defaulted construction, and
TypeError on wrong arguments.  Value._trusted binds every field as given,
on each class that src/ builds with it.  A cached fact
(toriclab._value.cached_property, on every cached property of Cone and
Fan) is computed once per instance into its __dict__, and nothing is
stored when the computation raises.  MarkovTriple keeps its order, and
`import toriclab.cli` loads neither dataclasses nor inspect.
"""

import functools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import toriclab
from toriclab import casebook, complexity, fan, lattice, markov, pairs, polytope, toric
from toriclab._value import Value, cached_property

P2 = (((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)), 2)
P2_REPR = "Fan(rays=((-1, -1), (0, 1), (1, 0)), max_cones=((0, 1), (0, 2), (1, 2)), rank=2)"
LINE = ("p2:log-cy", "pass", "True")
LINE_REPR = "SuiteLine(name='p2:log-cy', status='pass', witness='True')"
TRIPLE = (1, 2, 5)

# (class, its init fields, which are also its compared fields, a function
# giving its positional arguments, the repr, the fields outside repr and
# ==/hash); only Diagnostics has defaults (test_defaults_fill_...)
ROWS = [
    (
        lattice.AbelianGroupStructure,
        ("free_rank", "torsion_invariants"),
        lambda: (1, (2, 4)),
        "AbelianGroupStructure(free_rank=1, torsion_invariants=(2, 4))",
        (),
    ),
    (
        lattice.SolveChart,
        ("U", "d", "L", "V", "Z"),
        lambda: (((1, 0), (0, 1)), (1, 2), 2, ((1, 0), (0, 1)), ()),
        "SolveChart(U=((1, 0), (0, 1)), d=(1, 2), L=2, V=((1, 0), (0, 1)), Z=())",
        (),
    ),
    (
        fan.Cone,
        ("generators", "rank"),
        lambda: (((0, 2), (1, 0)), 2),
        "Cone(generators=((0, 1), (1, 0)), rank=2)",
        (),
    ),
    (fan.Fan, ("rays", "max_cones", "rank"), lambda: P2, P2_REPR, ()),
    (
        fan.Diagnostics,
        ("valid", "problem", "witness"),
        lambda: (False, "maximal cone is not strongly convex", ((0, 1),)),
        "Diagnostics(valid=False, problem='maximal cone is not strongly convex', witness=((0, 1),))",
        (),
    ),
    (toric.ToricVariety, ("fan",), lambda: (fan.Fan(*P2),), f"ToricVariety(fan={P2_REPR})", ()),
    (
        toric.DivisorClass,
        ("free", "torsion", "invariants"),
        lambda: ((1,), (0,), (2,)),
        "DivisorClass(free=(1,), torsion=(0,), invariants=(2,))",
        (),
    ),
    (
        pairs.ToricPair,
        ("variety", "boundary"),
        lambda: (toric.ToricVariety(fan.Fan(*P2)), (Fraction(1, 2), 1, Fraction(2, 3))),
        f"ToricPair(variety=ToricVariety(fan={P2_REPR}), boundary=(Fraction(1, 2), Fraction(1, 1), Fraction(2, 3)))",
        ("A", "alpha"),
    ),
    (
        pairs.PlaceClassification,
        ("discrepancy", "log_canonical", "canonical", "non_canonical", "terminal", "non_terminal"),
        lambda: (Fraction(1, 2), False, False, True, False, True),
        "PlaceClassification(discrepancy=Fraction(1, 2), log_canonical=False, canonical=False, "
        "non_canonical=True, terminal=False, non_terminal=True)",
        (),
    ),
    (
        complexity.Decomposition,
        ("parts",),
        lambda: (((1, frozenset({0, 2})), (Fraction(1, 2), frozenset({1}))),),
        "Decomposition(parts=((Fraction(1, 1), frozenset({0, 2})), (Fraction(1, 2), frozenset({1}))))",
        (),
    ),
    (
        complexity.ComplexityReport,
        ("rho", "norm", "dim", "c"),
        lambda: (1, Fraction(3), 2, Fraction(0)),
        "ComplexityReport(rho=1, norm=Fraction(3, 1), dim=2, c=Fraction(0, 1))",
        (),
    ),
    (
        complexity.BmszReport,
        ("c", "floor_two_c"),
        lambda: (Fraction(1, 3), 0),
        "BmszReport(c=Fraction(1, 3), floor_two_c=0)",
        (),
    ),
    (
        polytope.Polytope,
        ("vertices", "rank"),
        lambda: (((1, 0), (0, 1), (-1, -1), (0, 0)), 2),
        "Polytope(vertices=((-1, -1), (1, 0), (0, 1)), rank=2)",
        ("dim", "_facets"),
    ),
    (markov.MarkovTriple, ("a", "b", "c"), lambda: TRIPLE, "MarkovTriple(a=1, b=2, c=5)", ()),
    (
        markov.HkwSurfaceData,
        ("triple", "weights", "degree", "amplitude", "wellformed", "quasismooth", "fano"),
        lambda: (markov.MarkovTriple(*TRIPLE), (1, 4, 1, 5), 5, 6, True, True, True),
        "HkwSurfaceData(triple=MarkovTriple(a=1, b=2, c=5), weights=(1, 4, 1, 5), degree=5, amplitude=6, "
        "wellformed=True, quasismooth=True, fano=True)",
        (),
    ),
    (
        casebook.IncidenceArrangement,
        ("points", "hyperplanes", "incidence"),
        lambda: (("p", "q"), ("H1", "H2"), (("p", frozenset({"H1"})), ("q", frozenset({"H2"})))),
        "IncidenceArrangement(points=('p', 'q'), hyperplanes=('H1', 'H2'), "
        "incidence=(('p', frozenset({'H1'})), ('q', frozenset({'H2'}))))",
        (),
    ),
    (
        casebook.CrepantCertificate,
        ("coefficients", "contracted_line_count", "effective"),
        lambda: ((("p", Fraction(0)),), 1, True),
        "CrepantCertificate(coefficients=(('p', Fraction(0, 1)),), contracted_line_count=1, effective=True)",
        (),
    ),
    (casebook.SuiteLine, ("name", "status", "witness"), lambda: LINE, LINE_REPR, ()),
    (casebook.SuiteReport, ("lines",), lambda: ((casebook.SuiteLine(*LINE),),), f"SuiteReport(lines=({LINE_REPR},))", ()),
]
IDS = [row[0].__name__ for row in ROWS]


def _fields(row):
    """The row's fields in order: its init fields, then those left out."""
    return row[1] + row[4]


def _compared(value, row):
    return tuple(getattr(value, name) for name in row[1])


def _copy(value, cls=None, **changes):
    """A copy of the value's fields (cached properties too) in an instance
    of cls, bound as __post_init__ binds them, with some fields changed."""
    out = object.__new__(cls or type(value))
    for name, x in {**vars(value), **changes}.items():
        object.__setattr__(out, name, x)
    return out


def test_the_table_holds_every_value_class():
    modules = (lattice, fan, toric, pairs, complexity, polytope, markov, casebook)
    classes = {
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and issubclass(cls, Value)
    }
    assert classes == {row[0] for row in ROWS} and len(ROWS) == 19


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_repr_is_the_one_the_dataclass_printed(row):
    cls, _, args, text, _ = row
    assert repr(cls(*args())) == text


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_equal_only_within_one_class_over_the_compared_fields(row):
    cls, names, args, _, _ = row
    value, again = cls(*args()), cls(*args())
    assert value is not again and value == again and not value != again
    twin = _copy(value, type(f"{cls.__name__}Twin", (cls,), {}))
    assert not value == twin and not twin == value and value != twin
    for name in names:
        other = _copy(value, **{name: object()})
        assert value != other and other != value, name


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_hash_is_the_hash_of_the_compared_fields(row):
    value = row[0](*row[2]())
    assert hash(value) == hash(_compared(value, row))


@pytest.mark.parametrize("row", [row for row in ROWS if row[4]], ids=[row[0].__name__ for row in ROWS if row[4]])
def test_fields_left_out_of_repr_and_comparison(row):
    cls, _, args, text, left_out = row
    value = cls(*args())
    assert set(left_out) <= set(vars(value))
    other = _copy(value, **{name: object() for name in left_out})
    assert other == value and hash(other) == hash(value) and repr(other) == text


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_no_field_can_be_set_or_deleted(row):
    value = row[0](*row[2]())
    before = dict(vars(value))
    for name in (*_fields(row), "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert vars(value) == before


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_positional_keyword_and_wrong_construction(row):
    cls, names, args, _, _ = row
    value, args = cls(*args()), args()
    assert cls(**dict(zip(names, args))) == value
    assert cls(*args[:1], **dict(zip(names[1:], args[1:]))) == value
    with pytest.raises(TypeError):
        cls(*args, args[0])
    with pytest.raises(TypeError):
        cls()
    if cls is not fan.Diagnostics:
        with pytest.raises(TypeError):
            cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls(**dict(zip(names, args)), extra=None)
    with pytest.raises(TypeError):
        cls(**dict(zip(names[:-1], args)), extra=None)


def test_defaults_fill_what_a_call_leaves_out():
    assert fan.Diagnostics(True) == fan.Diagnostics(True, None, None) == fan.Diagnostics(valid=True)
    assert fan.Diagnostics(False, problem="p") == fan.Diagnostics(False, "p", None)
    assert repr(fan.Diagnostics(True)) == "Diagnostics(valid=True, problem=None, witness=None)"
    with pytest.raises(TypeError):
        fan.Diagnostics()
    with pytest.raises(TypeError):
        fan.Diagnostics(problem="p")


def test_a_required_field_after_a_defaulted_one_is_refused_at_class_creation():
    with pytest.raises(TypeError, match="^Late: a field without a default follows one with a default$"):

        class Late(Value):
            early: int = 0
            late: int


def test_markov_triples_keep_their_order():
    triples = markov.enumerate_markov(10**6)
    shuffled = random.Random(3838).sample(triples, len(triples))
    assert sorted(shuffled) == sorted(triples, key=markov.MarkovTriple.as_tuple)
    a, b = markov.MarkovTriple(1, 5, 13), markov.MarkovTriple(2, 5, 29)
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (a < a or a > a or b < a or b <= a or a > b or a >= b)
    with pytest.raises(TypeError):
        a < (1, 5, 13)
    with pytest.raises(TypeError):
        a >= casebook.SuiteLine(*LINE)


# (a checked instance of each class that src/ builds with _trusted, fields
# that are not in the form __post_init__ leaves: _trusted keeps them as given)
TRUSTED = [
    (lambda: fan.Cone(((0, 2), (1, 0)), 2), (((1, 0), (0, 2)), 2)),
    (lambda: fan.Fan(*P2), P2),
    (lambda: markov.MarkovTriple(*TRIPLE), (5, 2, 1)),
    (lambda: polytope.Polytope(((1, 0), (0, 1), (-1, -1), (0, 0)), 2), (((0, 0), (1, 0)), 2, 0, ())),
]


@pytest.mark.parametrize("checked, raw", TRUSTED, ids=["Cone", "Fan", "MarkovTriple", "Polytope"])
def test_trusted_binds_every_field_as_given(checked, raw):
    value = checked()
    cls = type(value)
    again = cls._trusted(*(getattr(value, name) for name in cls._fields))
    assert again == value and repr(again) == repr(value) and hash(again) == hash(value)
    assert vars(again) == vars(value)  # the derived fields too
    unchecked = cls._trusted(*raw)
    assert tuple(getattr(unchecked, name) for name in cls._fields) == raw


def test_cached_properties_write_the_instance_dict():
    cone = fan.Cone(((1, 0), (0, 1)), 2)
    assert "dim" not in vars(cone) and cone.dim == 2 and vars(cone)["dim"] == 2


class Counted(Value):
    """A value with two cached facts that log each computation in CALLS;
    `checked` first raises the exceptions left in FAILS, one per read."""

    x: int

    @cached_property
    def double(self):
        CALLS.append(self)
        return [2 * self.x]

    @cached_property
    def checked(self):
        CALLS.append(self)
        if FAILS:
            raise FAILS.pop()
        return self.x


CALLS, FAILS = [], []


def test_cached_facts_compute_once_per_instance_into_vars():
    CALLS.clear()
    a, b = Counted(1), Counted(1)
    assert vars(a) == {"x": 1}
    first = a.double
    assert first == [2] and vars(a) == {"x": 1, "double": [2]} and vars(a)["double"] is first
    assert a.double is first and CALLS == [a]
    assert b.double == [2] and b.double is not first and len(CALLS) == 2 and CALLS[1] is b
    assert Counted.double is vars(Counted)["double"] and Counted.double.attrname == "double"
    assert isinstance(Counted.double, functools.cached_property)


def test_the_facts_of_cones_and_fans_take_no_lock():
    facts = [attr for cls in (fan.Cone, fan.Fan) for attr in vars(cls).values() if isinstance(attr, functools.cached_property)]
    assert len(facts) == 9 and all(type(attr) is cached_property for attr in facts)


def test_a_fact_whose_computation_raises_caches_nothing():
    CALLS.clear()
    FAILS.append(ArithmeticError("first read"))
    value = Counted(3)
    with pytest.raises(ArithmeticError, match="first read"):
        value.checked
    assert vars(value) == {"x": 3}
    assert value.checked == 3 and vars(value) == {"x": 3, "checked": 3} and len(CALLS) == 2


def test_the_console_script_imports_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(toriclab.__file__))
    probe = (
        "import sys; bare = set(sys.modules); import toriclab.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare))))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
