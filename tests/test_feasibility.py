"""The feasibility kernel (homogenised rows, one double-description run,
Gordan and Motzkin on its facets), checked against Fourier-Motzkin
elimination and the two-phase simplex it replaced (both kept in
oracles.py), the simplex's certificates checked exactly, and the
geometric predicates that used to blow up under elimination."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toriclab.fan import Cone, linear_feasible, validate_fan
from toriclab.polytope import Polytope, face_fan, is_reflexive

from oracles import feasibility_certificate_simplex, linear_feasible_fm, linear_feasible_simplex

COEFFS = (0, 0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3))
RHS = (0, 0, 1, -1, 2, Fraction(-1, 3))

# cones over lattice 11- and 12-gons at height one (as in bench/gen.py)
KGON_11 = [(1, 4), (-1, 3), (-2, 2), (-3, 0), (-2, -3), (-1, -3), (1, -2), (2, -1), (3, 1), (3, 2), (2, 4)]
KGON_12 = [(-2, -3), (-1, -3), (1, -2), (2, -1), (3, 1), (3, 2), (2, 3), (1, 3), (-1, 2), (-2, 1), (-3, -1), (-3, -2)]
CUBOCTAHEDRON = [p for p in itertools.product((-1, 0, 1), repeat=3) if sum(x * x for x in p) == 2]


def _dot(a, x):
    return sum(Fraction(c) * v for c, v in zip(a, x))


def check_certificate(nvars, eqs, gte, gt, feasible, cert):
    """Verify a certificate exactly: a point meeting every constraint, or
    a Motzkin multiplier vector proving infeasibility."""
    if feasible:
        assert len(cert) == nvars
        assert all(_dot(a, cert) == b for a, b in eqs)
        assert all(_dot(a, cert) >= b for a, b in gte)
        assert all(_dot(a, cert) > b for a, b in gt)
        return
    rows = [*eqs, *gte, *gt]
    assert len(cert) == len(rows)
    assert all(y >= 0 for y in cert[len(eqs) :])
    for j in range(nvars):
        assert sum(y * Fraction(a[j]) for y, (a, _) in zip(cert, rows)) == 0
    yb = sum(y * Fraction(b) for y, (_, b) in zip(cert, rows))
    assert yb > 0 or (yb == 0 and any(y > 0 for y in cert[len(eqs) + len(gte) :]))


def check_against_fm(nvars, eqs=(), gte=(), gt=()):
    expected = linear_feasible_fm(nvars, eqs, gte, gt)
    assert linear_feasible(nvars, eqs, gte, gt) == expected
    assert linear_feasible_simplex(nvars, eqs, gte, gt) == expected
    check_certificate(nvars, eqs, gte, gt, *feasibility_certificate_simplex(nvars, eqs, gte, gt))
    return expected


def _random_system(rng):
    """0-4 variables, 0-6 mixed constraints, some of them sign bounds; a
    third of the systems bound every variable, which takes the oracle
    simplex down its primal route instead of the Farkas dual."""
    n = rng.randint(0, 4)
    eqs, gte, gt = [], [], []
    for _ in range(rng.randint(0, 6)):
        if n and rng.random() < 0.25:
            a = [0] * n
            a[rng.randrange(n)] = rng.randint(1, 2)
            row = (a, 0)
        else:
            row = ([rng.choice(COEFFS) for _ in range(n)], rng.choice(RHS))
        rng.choice((eqs, gte, gt)).append(row)
    if n and rng.random() < 0.35:
        for j in range(n):
            rng.choice((gte, gt)).append(([int(i == j) for i in range(n)], 0))
    return n, eqs, gte, gt


def test_kernel_matches_fourier_motzkin_seeded():
    rng = random.Random(20261018)
    verdicts = set()
    for _ in range(1500):
        verdicts.add(check_against_fm(*_random_system(rng)))
    assert verdicts == {True, False}


@st.composite
def systems(draw):
    n = draw(st.integers(0, 4))
    row = st.tuples(st.lists(st.sampled_from(COEFFS), min_size=n, max_size=n), st.sampled_from(RHS))
    parts = [draw(st.lists(row, max_size=m)) for m in (2, 2, 2)]
    if n and draw(st.booleans()):
        bounds = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        for j, strict in enumerate(bounds):
            parts[2 if strict else 1].append(([int(i == j) for i in range(n)], 0))
    return (n, *parts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(systems())
def test_kernel_matches_fourier_motzkin_property(system):
    check_against_fm(*system)


# zero rows: the double-description run puts them on every facet, the only
# zero-row rule on the way from linear_feasible; name -> (kind, rhs,
# feasible), kind 0 for =, 1 for >= and 2 for >
ZERO_ROWS = {
    "0 = 0": (0, 0, True),
    "0 >= 0": (1, 0, True),
    "0 > 0": (2, 0, False),
    "0 = 1": (0, 1, False),
    "0 >= 1": (1, 1, False),
}
# name -> (kind, row in two variables), each feasible alone
REAL_ROWS = {"x + y = 1": (0, ([1, 1], 1)), "x - y >= 1": (1, ([1, -1], 1)), "x > 2": (2, ([1, 0], 2))}


def _system(nvars, rows):
    """(nvars, eqs, gte, gt) from (kind, (a, b)) rows, kind 0, 1 or 2."""
    parts = ([], [], [])
    for kind, row in rows:
        parts[kind].append(row)
    return (nvars, *parts)


def _zero_row_systems():
    """Each zero row alone and beside each real row, and systems of zero
    rows only, as (system, feasible) params."""
    out = []
    for nvars in (0, 1, 2):
        zeros = {name: (kind, ([0] * nvars, rhs)) for name, (kind, rhs, _) in ZERO_ROWS.items()}
        for name, (_, _, feasible) in ZERO_ROWS.items():
            out.append(pytest.param(_system(nvars, [zeros[name]]), feasible, id=f"{name}, nvars={nvars}"))
        out.append(pytest.param(_system(nvars, zeros.values()), False, id=f"every zero row, nvars={nvars}"))
        feasible = [zeros["0 = 0"], zeros["0 >= 0"]]
        out.append(pytest.param(_system(nvars, feasible), True, id=f"0 = 0 and 0 >= 0, nvars={nvars}"))
    for name, (kind, rhs, feasible) in ZERO_ROWS.items():
        for real, row in REAL_ROWS.items():
            out.append(pytest.param(_system(2, [(kind, ([0, 0], rhs)), row]), feasible, id=f"{name} beside {real}"))
    return out


@pytest.mark.parametrize(
    "system, feasible",
    [
        ((0, [], [], []), True),  # empty system
        ((3, [], [], []), True),  # no constraints
        ((0, [([], 0)], [([], 0)], [([], -1)]), True),  # 0 = 0, 0 >= 0, 0 > -1
        ((0, [], [], [([], 0)]), False),  # 0 > 0
        ((2, [([0, 0], 1)], [], []), False),  # zero row, nonzero rhs
        ((2, [([0, 0], 0)], [([1, 1], 1)], []), True),  # zero row, zero rhs
        ((2, [([1, 1], 2), ([2, 2], 4), ([Fraction(1, 2), Fraction(1, 2)], 1)], [], []), True),  # redundant
        ((2, [([1, 1], 2), ([2, 2], 3)], [], []), False),  # inconsistent equalities
        ((2, [([1, 1], 2), ([1, -1], 0)], [([1, 0], 0), ([0, 1], 0)], []), True),  # redundant with bounds
        ((2, [([1, 1], 2), ([2, 2], 5)], [([1, 0], 0), ([0, 1], 0)], []), False),
        ((2, [], [], [([1, 0], 0), ([-1, 0], 0)]), False),  # strict only, infeasible
        ((2, [], [], [([1, 0], 0), ([0, 1], 0), ([-1, -1], -1)]), True),  # strict only, feasible
        ((2, [], [], [([1, 0], 0), ([0, 1], 0), ([-1, -1], 0)]), False),
        ((2, [([1, 1], 0)], [], [([1, 0], 0), ([0, 1], 0)]), False),  # bounded, strict, on a line
        ((3, [([1, 1, 1], 1)], [], [([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0)]), True),
        ((1, [], [([1], 0), ([-1], 0)], [([1], 0)]), False),  # x >= 0, -x >= 0, x > 0
        ((1, [], [([2], 0)], [([1], 0)]), True),  # x >= 0 and x > 0 on one variable
        *_zero_row_systems(),
    ],
)
def test_kernel_edge_cases(system, feasible):
    assert check_against_fm(*system) is feasible


def test_kernel_rejects_rows_of_the_wrong_length():
    with pytest.raises(ValueError):
        linear_feasible(2, equalities=[((1,), 0)])


def test_dual_farkas_vector_for_a_line():
    # the cone over +-e1 and e2 contains a line: no functional is >= 1 on
    # all three generators, and y = (1, 1, 0) proves it
    gens = [(1, 0), (-1, 0), (0, 1)]
    feasible, y = feasibility_certificate_simplex(2, gte=[(g, 1) for g in gens])
    assert not feasible
    assert all(v >= 0 for v in y) and sum(y) > 0
    assert [sum(v * g[d] for v, g in zip(y, gens)) for d in range(2)] == [0, 0]


# ------------------------------------------------- inputs that blew up


@pytest.mark.parametrize("polygon", [KGON_11, KGON_12], ids=["11-gon", "12-gon"])
def test_generators_extremal_on_large_kgon_cones(polygon):
    gens = [(x, y, 1) for x, y in polygon]
    assert Cone.from_generators(gens).generators_extremal()
    assert not Cone.from_generators(gens + [(0, 0, 1)]).generators_extremal()
    assert Cone.from_generators(gens).is_strongly_convex()


def test_cuboctahedron_predicates():
    P = Polytope.hull(CUBOCTAHEDRON)
    assert len(P.vertices) == 12
    assert P.contains_origin_interior()
    assert not is_reflexive(P)
    fan = face_fan(P)
    assert len(fan.max_cones) == 14
    assert validate_fan(fan)


# ------------------------------------------------ shortcuts against FM


def _strongly_convex_fm(gens, rank):
    return linear_feasible_fm(rank, gte=[(g, 1) for g in gens])


def _in_cone_fm(x, gens, rank):
    k = len(gens)
    eqs = [(tuple(g[d] for g in gens), x[d]) for d in range(rank)]
    return linear_feasible_fm(k, eqs, [(tuple(int(i == j) for j in range(k)), 0) for i in range(k)])


def _origin_interior_fm(vertices):
    k = len(vertices)
    eqs = [(tuple(v[d] for v in vertices), 0) for d in range(2)] + [((1,) * k, 1)]
    return linear_feasible_fm(k, eqs, gt=[(tuple(int(i == j) for j in range(k)), 0) for i in range(k)])


def test_cone_predicates_agree_with_fm():
    # independent generators take the shortcut, dependent ones the kernel
    rng = random.Random(4)
    seen = set()
    for _ in range(150):
        rank = rng.choice((2, 3))
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(1, rank + 2))]
        if any(all(x == 0 for x in g) for g in gens):
            continue
        cone = Cone.from_generators(gens, rank)
        gens = cone.generators
        convex = _strongly_convex_fm(gens, rank)
        extremal = len(gens) == 1 or not any(_in_cone_fm(g, gens[:i] + gens[i + 1 :], rank) for i, g in enumerate(gens))
        assert cone.is_strongly_convex() == convex, gens
        assert cone.generators_extremal() == extremal, gens
        seen.add((len(gens) == cone.dim, convex, extremal))
    assert {(True, True, True), (False, True, True), (False, False, True), (False, True, False)} <= seen


def test_rank2_origin_test_agrees_with_fm():
    rng = random.Random(5)
    polygons = [
        [(0, 0), (1, 0), (0, 1)],  # origin at a vertex
        [(-1, 0), (1, 0), (0, 1)],  # origin on an edge
        [(-1, -1), (1, -1), (1, 0), (-1, 0)],  # origin on an edge
        [(1, 0), (0, 1), (-1, -1)],
    ]
    polygons += [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 6))] for _ in range(80)]
    seen = set()
    for pts in polygons:
        P = Polytope.hull(pts)
        got = P.contains_origin_interior()
        seen.add(got)
        assert got == (P.dim == 2 and _origin_interior_fm(P.vertices)), pts
    assert not Polytope.hull(polygons[0]).contains_origin_interior()
    assert not Polytope.hull(polygons[1]).contains_origin_interior()
    assert seen == {True, False}


# ------------------------------------------------------- point length


def test_membership_rejects_points_of_the_wrong_length():
    cone = Cone.from_generators([(1, 0), (0, 1)])
    for method in (cone.contains, cone.relint_contains, cone.contains):
        with pytest.raises(ValueError):
            method((1, 1, 5))
        with pytest.raises(ValueError):
            method((1,))
    assert cone.contains((1, 0)) and not cone.relint_contains((1, 0))
