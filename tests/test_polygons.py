"""The integer-only polygon path: exact coordinate types, degenerate hulls,
the rank-2 closed forms against their scans, the pinned enumeration and
the descent behind it, and how many polytopes the normal form builds and
how many normal forms the enumeration takes."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toriclab import polytope
from toriclab.catalog import bundled_fans
from toriclab.fileformats import emit_polytope
from toriclab.polytope import (
    Polytope,
    enumerate_reflexive_polygons,
    face_fan,
    facet_functionals,
    is_reflexive,
    unimodular_normal_form,
)

import oracles
from oracles import dual_polygon_halfplane_oracle, facet_functionals_scan, is_reflexive_scan, scaled_dual_scan
from oracles import _apply, minor_gcds, normal_form_search, row_echelon
from oracles import _fan_triangle_clean, _interior_points, reflexive_polygon_scan
from oracles import reflexive_polygons_boundary_walk

# enumerate_reflexive_polygons(), in its order: reflexive-01 ... reflexive-16
REFLEXIVE_ORDER = (
    ((-2, -1), (0, -1), (1, 2)),
    ((-2, -1), (1, -1), (1, 2)),
    ((-2, -1), (2, -1), (0, 1)),
    ((-1, -1), (1, 0), (-1, 1)),
    ((-1, -1), (1, 0), (0, 1)),
    ((-2, -1), (-1, -1), (1, 0), (1, 2)),
    ((-2, -1), (0, -1), (1, 0), (1, 2)),
    ((-1, -1), (0, -1), (1, 1), (-1, 0)),
    ((-1, -1), (1, -1), (0, 1), (-1, 0)),
    ((-1, -1), (1, -1), (1, 1), (-1, 0)),
    ((-1, -1), (1, -1), (1, 1), (-1, 1)),
    ((-1, -1), (1, 0), (1, 1), (-1, 0)),
    ((-1, -1), (0, -1), (1, 0), (0, 1), (-1, 0)),
    ((-1, -1), (1, -1), (1, 0), (0, 1), (-1, 0)),
    ((-1, -1), (1, -1), (1, 1), (0, 1), (-1, 0)),
    ((-1, -1), (0, -1), (1, 0), (1, 1), (0, 1), (-1, 0)),
)


# ------------------------------------------------------------ degenerate


def test_collinear_hulls_keep_the_endpoints():
    for pts in ([(0, 0), (1, 1), (2, 2)], [(2, 2), (0, 0), (1, 1), (2, 2), (0, 0)]):
        P = Polytope.hull(pts)
        assert P.vertices == ((0, 0), (2, 2))
        assert P.dim == 1
    assert Polytope.hull([(0, 3), (0, -1), (0, 0), (0, 1)]).vertices == ((0, -1), (0, 3))
    Q = Polytope.hull([(0, 0, 0), (1, 1, 1), (2, 2, 2), (1, 1, 1)])
    assert Q.vertices == ((0, 0, 0), (2, 2, 2))
    assert Q.dim == 1
    segment = Polytope.hull([(1, 2), (0, 0), (1, 2)])
    assert segment.vertices == ((0, 0), (1, 2))
    assert segment.dim == 1
    assert not segment.contains_origin_interior()
    with pytest.raises(ValueError, match="full-dimensional"):
        facet_functionals(segment)
    with pytest.raises(ValueError, match="two-dimensional"):
        unimodular_normal_form(Polytope.hull([(-1, -1), (0, 0), (1, 1)]))


def test_single_point_hulls():
    for rank in (2, 3):
        p = tuple(range(3, 3 + rank))
        P = Polytope.hull([p, p, p])
        assert P.vertices == (p,)
        assert P.dim == 0


# ------------------------------------------------------------ coordinate types


def test_integral_coordinates_are_ints():
    P = Polytope.hull([(2, 0), (0, 1), (-1, -1)])
    assert P.vertices == ((-1, -1), (2, 0), (0, 1))
    assert all(type(x) is int for v in P.vertices for x in v)
    assert emit_polytope(P) == "dim 2\nvertex -1 -1\nvertex 2 0\nvertex 0 1\n"


def test_dual_vertices_are_the_facet_functionals():
    D = {a for _, a in facet_functionals(Polytope.hull([(1, 0), (0, 1), (-1, -3)]))}
    assert D == {(-1, -1), (4, -1), (-1, Fraction(2, 3))}
    cube = Polytope.hull([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    L, dual = scaled_dual_scan(cube)
    assert L == 1 and is_reflexive(cube)
    assert emit_polytope(Polytope.hull(dual)) == (
        "dim 3\nvertex -1 0 0\nvertex 0 -1 0\nvertex 0 0 -1\nvertex 0 0 1\nvertex 0 1 0\nvertex 1 0 0\n"
    )


# ------------------------------------------------------------ closed forms


def _check_against_oracles(pts):
    P = Polytope.hull(pts, rank=2)
    v0 = pts[0]
    assert P.dim == len(row_echelon([[a - b for a, b in zip(p, v0)] for p in pts], 2)[1])
    if P.dim == 2:
        assert facet_functionals(P) == facet_functionals_scan(P)
    else:
        with pytest.raises(ValueError):
            facet_functionals(P)
    if P.contains_origin_interior():
        assert {a for _, a in facet_functionals(P)} == dual_polygon_halfplane_oracle(P.vertices)
    assert is_reflexive(P) == is_reflexive_scan(P)
    return P


def test_rank2_facets_with_the_origin_outside_on_an_edge_and_at_a_vertex():
    outside = _check_against_oracles([(1, 0), (3, 0), (2, 2)])
    on_edge = _check_against_oracles([(-1, 0), (1, 0), (0, 2), (2, 1)])
    at_vertex = _check_against_oracles([(0, 0), (2, 0), (1, 3)])
    for P in (outside, on_edge, at_vertex):
        assert P.dim == 2 and not P.contains_origin_interior()
    assert (0, 0) in at_vertex.vertices
    # the edge through the origin is no facet, the other two are
    assert len(facet_functionals(on_edge)) == 3
    assert len(facet_functionals(at_vertex)) == 1
    assert len(facet_functionals(outside)) == 1


def test_rank2_closed_forms_match_oracles_seeded():
    rng = random.Random(505)
    interior = 0
    for _ in range(400):
        pts = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(1, 9))]
        interior += _check_against_oracles(pts).contains_origin_interior()
    assert interior > 50
    for P in enumerate_reflexive_polygons():
        _check_against_oracles(list(P.vertices))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=9))
def test_rank2_closed_forms_match_oracles_hypothesis(pts):
    _check_against_oracles(pts)


def test_pick_triangle_test_matches_lattice_point_scan():
    prim = [
        (x, y) for x in range(-5, 6) for y in range(-5, 6) if (x, y) != (0, 0) and math.gcd(x, y) == 1
    ]
    clean = 0
    for a in prim:
        for b in prim:
            want = a[0] * b[1] - a[1] * b[0] > 0 and _interior_points([(0, 0), a, b]) == []
            assert _fan_triangle_clean(a, b) == want, (a, b)
            clean += want
    assert clean > 100


# ------------------------------------------------------------ pinned answers


def test_enumeration_order_and_catalog_names_are_pinned():
    assert tuple(P.vertices for P in enumerate_reflexive_polygons()) == REFLEXIVE_ORDER
    named = {name: fan for name, fan in bundled_fans() if name.startswith("reflexive-")}
    assert sorted(named) == [f"reflexive-{i:02d}" for i in range(1, 17)]
    for i, verts in enumerate(REFLEXIVE_ORDER, start=1):
        assert named[f"reflexive-{i:02d}"] == face_fan(Polytope.hull(verts))


def _gl2z(rng, bound):
    """A seeded unimodular matrix with entries up to bound in absolute value."""
    while True:
        a, c = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if abs(c) >= 2 and math.gcd(a, c) == 1:
            break
    d = pow(a, -1, abs(c))
    b = (a * d - 1) // c
    sign = rng.choice((1, -1))
    return ((a, sign * b), (c, sign * d))


def _big_gl2z(rng):
    """A seeded unimodular matrix with entries up to 1000 in absolute value."""
    return _gl2z(rng, 1000)


def test_normal_form_of_large_gl2z_images():
    rng = random.Random(1000)
    for verts in REFLEXIVE_ORDER:
        for _ in range(3):
            U = _big_gl2z(rng)
            assert max(abs(x) for row in U for x in row) <= 1000
            assert abs(U[0][0] * U[1][1] - U[0][1] * U[1][0]) == 1
            image = Polytope.hull(_apply(U, verts))
            assert unimodular_normal_form(image).vertices == verts


# ------------------------------------------------------------ construction counts and the descent


def test_normal_form_builds_one_polytope(count_calls):
    # the shear ((1, 7), (0, 1)) applied to the triangle of P2
    sheared = Polytope.hull([(1, 0), (7, 1), (-8, -1)])
    constructions = count_calls("__post_init__", Polytope)
    assert unimodular_normal_form(sheared).vertices == ((-1, -1), (1, 0), (0, 1))
    assert len(constructions) == 1


@pytest.fixture
def cold_enumeration():
    """Clears the enumeration cache before and after the test, so the test
    sees a cold run and leaves no result of a patched run behind."""
    polytope._enumerate_reflexive_cached.cache_clear()
    yield
    polytope._enumerate_reflexive_cached.cache_clear()


@pytest.fixture
def descended(cold_enumeration, count_calls):
    """The polygons a cold enumeration hands to the normal form: its three
    roots and every hull the descent pushes."""
    seen = count_calls("unimodular_normal_form", polytope)
    polys = enumerate_reflexive_polygons()
    assert tuple(P.vertices for P in polys) == REFLEXIVE_ORDER
    return [call.args[0] for call in seen]


def test_descent_takes_at_most_64_normal_forms(descended):
    assert len(descended) <= 64


def test_descent_matches_the_scan_and_the_boundary_walk():
    produced = [P.vertices for P in enumerate_reflexive_polygons()]
    assert [P.vertices for P in reflexive_polygon_scan(4)] == produced
    assert reflexive_polygons_boundary_walk(4) == set(produced)


def test_descent_pushes_only_one_interior_point_polygons(descended):
    assert len(descended) > 16
    for P in descended:
        assert _interior_points(P.vertices) == [(0, 0)], P.vertices


def test_descent_pushes_polygons_whose_large_images_normalise_into_the_order(descended):
    rng = random.Random(1015)
    for P in descended:
        image = Polytope.hull(_apply(_big_gl2z(rng), P.vertices))
        assert unimodular_normal_form(image).vertices in REFLEXIVE_ORDER, P.vertices


def test_descent_from_a_non_reflexive_root_raises(cold_enumeration, monkeypatch):
    # the origin is interior, but the edge x + y = 2 lies at lattice distance 2
    monkeypatch.setattr(polytope, "_MAXIMAL_REFLEXIVE", (((-1, -1), (3, -1), (-1, 3)),))
    with pytest.raises(RuntimeError, match="non-reflexive"):
        enumerate_reflexive_polygons()


def test_descent_checks_hold_under_python_O():
    # python -O strips asserts: the RuntimeError of the descent is a real
    # exception, and every descent test passes without asserts in src/
    here = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.path.join(here, "..", "src"))
    argv = [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", "-k", "descent and not python_O"]
    run = subprocess.run([*argv, os.path.join(here, "test_polygons.py")], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "5 passed" in run.stdout, run.stdout


# ------------------------------------------------------------ normal form by norm reduction


def _random_polygon(rng, lo=-6, hi=6, ylo=None, yhi=None):
    """A seeded two-dimensional lattice polygon with vertices in the box."""
    ylo, yhi = (lo, hi) if ylo is None else (ylo, yhi)
    while True:
        pts = [(rng.randint(lo, hi), rng.randint(ylo, yhi)) for _ in range(rng.randint(3, 9))]
        P = Polytope.hull(pts)
        if P.dim == 2:
            return P


def test_normal_form_matches_search_seeded():
    rng = random.Random(606)
    for _ in range(150):
        P = _random_polygon(rng)
        assert unimodular_normal_form(P) == normal_form_search(P), P.vertices


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=9))
def test_normal_form_matches_search_hypothesis(pts):
    P = Polytope.hull(pts)
    if P.dim == 2:
        assert unimodular_normal_form(P) == normal_form_search(P)


def _has_whole_line(P):
    """Does a vertex on the line <b1, v> = 0 of the reduced basis reach
    |<b2, v>| = lambda2, so that a whole line of rows qualifies?"""
    beta, gamma = polytope._reduced_basis(P.vertices)
    lam2 = max(map(abs, gamma))
    return any(b == 0 and abs(g) == lam2 for b, g in zip(beta, gamma))


def test_thin_polygons_match_search():
    rng = random.Random(607)
    whole_lines = 0
    for _ in range(60):
        P = _random_polygon(rng, -7, 7, -1, 1)
        U = _gl2z(rng, 3)
        for Q in (P, Polytope.hull(_apply(U, P.vertices))):
            assert unimodular_normal_form(Q) == normal_form_search(P), Q.vertices
            whole_lines += _has_whole_line(Q)
    assert whole_lines > 40


def test_normal_form_with_the_origin_as_least_vertex():
    rng = random.Random(608)
    for verts in ([(0, 0), (1, 0), (0, 1)], [(0, 0), (2, 1), (1, 3)]):
        P = Polytope.hull(verts)
        assert P.vertices[0] == (0, 0)
        form = unimodular_normal_form(P)
        assert form == normal_form_search(P)
        for _ in range(10):
            image = Polytope.hull(_apply(_gl2z(rng, 50), verts))
            assert unimodular_normal_form(image) == form


def test_normal_form_of_gl2z_images_up_to_1e12():
    rng = random.Random(609)
    polygons = [Polytope.hull(v) for v in REFLEXIVE_ORDER]
    polygons += [_random_polygon(rng) for _ in range(20)]
    for P in polygons:
        form = unimodular_normal_form(P)
        for _ in range(15):
            U = _gl2z(rng, 10**12)
            image = Polytope.hull(_apply(U, P.vertices))
            assert unimodular_normal_form(image) == form


def test_reduction_steps_on_the_entry_ladder(count_calls):
    calls = count_calls("_nearest_multiple", polytope)
    p2 = ((-1, -1), (1, 0), (0, 1))
    steps = {}
    for e in range(3, 10):
        a = 10**e
        U = ((1, a), (a + 1, a * a + a + 1))  # shear by a, then by a + 1
        assert U[0][0] * U[1][1] - U[0][1] * U[1][0] == 1
        calls.clear()
        assert unimodular_normal_form(Polytope.hull(_apply(U, p2))).vertices == p2
        steps[e] = len(calls)
    # at most linear in log a
    assert all(steps[e] <= steps[3] * e / 3 for e in steps), steps


def test_bases_examined_on_the_thin_ladder(count_calls):
    calls = count_calls("_shear_key", polytope)
    bases = {}
    for L in (1, 2, 3, 4, 5, 6, 10, 10**2, 10**3, 10**4, 10**5, 10**6):
        P = Polytope.hull([(L, 0), (-L, 0), (0, 1), (0, -1)])
        calls.clear()
        form = unimodular_normal_form(P)
        bases[L] = len(calls)
        assert form == Polytope.hull([(-L, -L), (-L, 1 - L), (L, L - 1), (L, L)])
        if L <= 6:
            assert form == normal_form_search(P)
    # at most linear in L; in fact the same at every L from 10 on
    assert all(bases[L] <= bases[1] * L for L in bases), bases
    assert len({bases[L] for L in bases if L >= 10}) == 1, bases


# ------------------------------------------------------------ smooth Fano and the scan oracle


def test_smooth_fano_needs_no_smith_form(count_calls):
    from toriclab import lattice

    smith = count_calls("smith_normal_form", lattice)
    cube = Polytope.hull([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    octahedron = Polytope.hull(scaled_dual_scan(cube)[1])
    rng = random.Random(610)
    polytopes = [cube, octahedron, Polytope.hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])]
    for verts in REFLEXIVE_ORDER:
        polytopes += [Polytope.hull(verts), Polytope.hull(_apply(_gl2z(rng, 100), verts))]
    smooth = 0
    for P in polytopes:
        # unimodular facets: the gcd of the maximal minors is 1 (Smith form 1, ..., 1)
        want = all(
            len(members) == P.rank
            and minor_gcds([P.vertices[i] for i in sorted(members)])[-1] == 1
            for members, _ in facet_functionals(P)
        )
        assert polytope.is_smooth_fano_polytope(P) == want, P.vertices
        smooth += want
    assert smooth == 2 * 5 + 2
    assert smith == []


def test_gap_check_matches_the_full_interior_scan(monkeypatch):
    checked = [0, 0]
    gap = oracles._gap_has_points

    def compared(chain):
        got = gap(chain)
        assert got == any(q != (0, 0) for q in _interior_points(chain)), chain
        checked[0] += 1
        checked[1] += got
        return got

    monkeypatch.setattr(oracles, "_gap_has_points", compared)
    assert tuple(P.vertices for P in reflexive_polygon_scan(4)) == REFLEXIVE_ORDER
    assert checked[0] > 1000 and checked[1] > 100
