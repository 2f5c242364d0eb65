"""The integer-only polygon path: exact coordinate types, degenerate hulls,
the rank-2 closed forms against their scans, the pinned enumeration and
the descent behind it, and how many polytopes the normal form builds and
how many normal forms the enumeration takes."""

import itertools
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
from oracles import _apply, is_smooth_fano_det, minor_gcds, normal_form_search, row_echelon
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
    hulls = count_calls("_polygon", polytope)
    assert unimodular_normal_form(sheared).vertices == ((-1, -1), (1, 0), (0, 1))
    assert len(hulls) == 1 and constructions == []


def _assert_built_as_its_hull(form):
    """The trusted normal form has the vertices, rank, dimension and facets
    of the hull of its vertices (dim and _facets take no part in ==)."""
    rebuilt = Polytope.hull(form.vertices, rank=2)
    assert form.vertices == rebuilt.vertices
    assert form.rank == rebuilt.rank == 2
    assert form.dim == rebuilt.dim == 2
    assert form._facets == rebuilt._facets


def test_normal_form_is_built_as_its_hull_seeded():
    rng = random.Random(611)
    for _ in range(200):
        P = _random_polygon(rng, -9, 9)
        _assert_built_as_its_hull(unimodular_normal_form(P))
        _assert_built_as_its_hull(unimodular_normal_form(Polytope.hull(_apply(_gl2z(rng, 10**6), P.vertices))))
    for verts in REFLEXIVE_ORDER:
        _assert_built_as_its_hull(unimodular_normal_form(Polytope.hull(verts)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=3, max_size=10))
def test_normal_form_is_built_as_its_hull_hypothesis(pts):
    P = Polytope.hull(pts)
    if P.dim == 2:
        _assert_built_as_its_hull(unimodular_normal_form(P))


def test_polygon_queries_run_no_elimination(count_calls):
    from toriclab import fan, lattice

    eliminations = count_calls("echelon", lattice, fan)
    rng = random.Random(612)
    smooth = 0
    for verts in REFLEXIVE_ORDER:
        for U in (((1, 0), (0, 1)), _gl2z(rng, 10**6)):
            P = Polytope.hull(_apply(U, verts), rank=2)
            assert unimodular_normal_form(P).vertices == verts
            assert is_reflexive(P)
            smooth += polytope.is_smooth_fano_polytope(P)
    assert smooth == 2 * 5
    assert eliminations == []


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


# lambda1 = lambda2 = 46, and the least basis takes a row on a line
# |c| = 2 of the reduced basis
_C2_HEPTAGON = ((-24, -13), (-23, -19), (-22, -23), (-21, -25), (-20, -25), (46, 0), (0, 46))


def _least_image_over_box_rows(verts):
    """The least sorted image of verts over the bases whose rows lie in
    {-1, 0, 1}^2, with no library call.  For the heptagon this is its
    normal form: its vertices (46, 0) and (0, 46) force every row u with
    max_v |<u, v>| <= 46 into that box, and every row there reaches 46."""
    rows = [u for u in itertools.product((-1, 0, 1), repeat=2) if any(u)]
    assert len(rows) == 8
    assert {max(abs(u[0] * x + u[1] * y) for x, y in verts) for u in rows} == {46}
    return min(
        sorted((r[0] * x + r[1] * y, s[0] * x + s[1] * y) for x, y in verts)
        for r in rows
        for s in rows
        if abs(r[0] * s[1] - r[1] * s[0]) == 1
    )


def test_normal_form_on_the_lines_c_2(count_calls):
    partners = count_calls("_partner", polytope)
    P = Polytope.hull(_C2_HEPTAGON)
    assert P.vertices == _C2_HEPTAGON
    form = unimodular_normal_form(P)
    assert sorted(form.vertices) == _least_image_over_box_rows(_C2_HEPTAGON)
    assert set(form.vertices) == {(-46, -46), (-46, 0), (37, 13), (42, 19), (45, 23), (45, 25), (46, 25)}
    assert any(abs(call.args[1]) == 2 for call in partners)
    rng = random.Random(4646)
    for _ in range(10):
        image = Polytope.hull(_apply(_gl2z(rng, rng.choice((10, 10**6))), _C2_HEPTAGON))
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
    # every step of either pass rounds once: _nearest_euclidean in the
    # Euclidean pass, _nearest_multiple in the max-norm fallback
    euclidean = count_calls("_nearest_euclidean", polytope)
    max_norm = count_calls("_nearest_multiple", polytope)
    p2 = ((-1, -1), (1, 0), (0, 1))
    steps = {}
    for e in range(3, 13):
        a = 10**e
        U = ((1, a), (a + 1, a * a + a + 1))  # shear by a, then by a + 1
        assert U[0][0] * U[1][1] - U[0][1] * U[1][0] == 1
        euclidean.clear()
        max_norm.clear()
        assert unimodular_normal_form(Polytope.hull(_apply(U, p2))).vertices == p2
        # the Euclidean form of P2's value vectors is hexagonal, and its
        # reduced bases are reduced for N too: the fallback never runs
        assert max_norm == [], e
        steps[e] = len(euclidean)
    assert all(steps[e] >= 1 for e in steps), steps
    # at most linear in log a
    assert all(steps[e] <= steps[3] * e / 3 for e in steps), steps


_FALLBACK = (
    ((-5, -1), (1, -3), (0, 2), (-5, 3)),
    ((-6, -6), (-3, -4), (-3, 6)),
    ((-6, 1), (-3, -5), (6, -3), (-6, 5)),
)


def _assert_reduced(Q, lam2):
    """_reduced_basis(Q) gives N(b1) <= N(b2) <= N(b2 +- b1), with N(b2) the
    least max |coordinate| over the orbit, lambda2."""
    beta, gamma = polytope._reduced_basis(Q.vertices)
    n1, n2 = max(map(abs, beta)), max(map(abs, gamma))
    minus = max(abs(g - b) for b, g in zip(beta, gamma))
    plus = max(abs(g + b) for b, g in zip(beta, gamma))
    assert n1 <= n2 <= min(minus, plus), Q.vertices
    assert n2 == lam2, Q.vertices


def _lambda2(P):
    return max(abs(x) for v in normal_form_search(P).vertices for x in v)


def _check_reduced(P, rng, images=3):
    """P and `images` GL(2,Z) images of it, entries up to 10^3, 10^6 or
    10^12, get reduced bases."""
    lam2 = _lambda2(P)
    _assert_reduced(P, lam2)
    for _ in range(images):
        _assert_reduced(Polytope.hull(_apply(_gl2z(rng, rng.choice((10**3, 10**6, 10**12))), P.vertices)), lam2)


@pytest.mark.parametrize("verts", _FALLBACK)
def test_polygons_that_need_the_max_norm_fallback_are_reduced(verts, count_calls):
    max_norm = count_calls("_nearest_multiple", polytope)
    P = Polytope.hull(verts)
    _assert_reduced(P, _lambda2(P))
    assert max_norm, verts  # the Euclidean pass alone leaves it unreduced
    assert unimodular_normal_form(P) == normal_form_search(P)


def test_reduced_basis_is_reduced_seeded():
    rng = random.Random(614)
    for _ in range(100):
        _check_reduced(_random_polygon(rng, -7, 7), rng)
    for verts in REFLEXIVE_ORDER:
        _check_reduced(Polytope.hull(verts), rng)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=9), st.randoms(use_true_random=False))
def test_reduced_basis_is_reduced_hypothesis(pts, rng):
    P = Polytope.hull(pts)
    if P.dim == 2:
        _check_reduced(P, rng, images=1)


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


def _smooth_by_minors(P):
    """Unimodular facets, read off the scanned facets: each has n vertices
    and the gcd of their maximal minors is 1 (Smith form 1, ..., 1)."""
    return all(
        len(members) == P.rank and minor_gcds([P.vertices[i] for i in sorted(members)])[-1] == 1
        for members, _ in facet_functionals_scan(P)
    )


def _check_smoothness(P):
    """is_smooth_fano_polytope against the determinant loop it replaced on
    polygons and against the minor gcds; returns the answer."""
    got = polytope.is_smooth_fano_polytope(P)
    assert got == is_smooth_fano_det(P) == _smooth_by_minors(P), P.vertices
    return got


def _origin_inside_not_reflexive(rng):
    """A seeded polygon with the origin strictly inside that is not reflexive."""
    while True:
        P = _random_polygon(rng, -5, 5)
        if P.contains_origin_interior() and not is_reflexive(P):
            return P


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
        want = _smooth_by_minors(P)
        assert polytope.is_smooth_fano_polytope(P) == want, P.vertices
        smooth += want
    assert smooth == 2 * 5 + 2
    assert smith == []


def test_smooth_fano_polygons_match_the_determinant_loop():
    reflexive = [Polytope.hull(verts) for verts in REFLEXIVE_ORDER]
    assert sum(_check_smoothness(P) for P in reflexive) == 5
    rng = random.Random(613)
    others = [_origin_inside_not_reflexive(rng) for _ in range(60)]
    # h0 = 1 on every edge makes every h / h0 integral: smooth implies reflexive
    assert not any(_check_smoothness(P) for P in others)
    for P in reflexive + others[:20]:
        want = _check_smoothness(P)
        for _ in range(5):
            image = Polytope.hull(_apply(_gl2z(rng, 10**12), P.vertices))
            assert _check_smoothness(image) == want


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=9))
def test_smooth_fano_polygons_match_the_determinant_loop_hypothesis(pts):
    P = Polytope.hull(pts)
    if P.contains_origin_interior() and not is_reflexive(P):
        _check_smoothness(P)


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
