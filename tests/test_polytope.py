import random
from fractions import Fraction

import pytest

from toriclab.fan import is_complete, is_smooth, validate_fan
from toriclab.polytope import (
    Polytope,
    dual_polytope,
    enumerate_reflexive_polygons,
    face_fan,
    is_reflexive,
    is_smooth_fano_polytope,
    unimodular_normal_form,
)
from toriclab.toric import ToricVariety, is_fano, projective_space_fan

from oracles import dual_polygon_halfplane_oracle, reflexive_polygons_boundary_walk

P2_TRIANGLE = Polytope.hull([(1, 0), (0, 1), (-1, -1)])
SQUARE = Polytope.hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
CROSS = Polytope.hull([(1, 0), (0, 1), (-1, 0), (0, -1)])


# ------------------------------------------------------------------ hulls


def test_hull_drops_interior_and_collinear_points():
    P = Polytope.hull([(1, 0), (0, 1), (-1, -1), (0, 0)])
    assert P.vertices == P2_TRIANGLE.vertices
    Q = Polytope.hull([(2, 0), (-2, 0), (0, 1), (0, -1), (1, 0)])
    assert (1, 0) not in Q.vertices


def test_hull_canonical_order_is_ccw_from_lex_min():
    assert P2_TRIANGLE.vertices[0] == (-1, -1)
    v = P2_TRIANGLE.vertices
    area2 = sum(v[i][0] * v[(i + 1) % 3][1] - v[(i + 1) % 3][0] * v[i][1] for i in range(3))
    assert area2 > 0


# ------------------------------------------------------------------ duals


def test_dual_square_is_cross():
    assert dual_polytope(SQUARE).vertices == CROSS.vertices


def test_dual_p2_triangle():
    D = dual_polytope(P2_TRIANGLE)
    assert set(D.vertices) == {(2, -1), (-1, 2), (-1, -1)}


def test_dual_with_rational_vertices():
    # two interior lattice points, so not reflexive: the dual picks up a
    # vertex with denominator 3
    P = Polytope.hull([(1, 0), (0, 1), (-1, -3)])
    D = dual_polytope(P)
    assert not D.is_lattice
    assert any(
        any(isinstance(x, Fraction) and x.denominator > 1 for x in v) for v in D.vertices
    )


def test_dual_requires_interior_origin():
    shifted = Polytope.hull([(1, 0), (2, 0), (1, 1)])
    with pytest.raises(ValueError, match="origin"):
        dual_polytope(shifted)


def test_dual_matches_halfplane_oracle():
    rng = random.Random(4)
    polys = [P2_TRIANGLE, SQUARE, CROSS, Polytope.hull([(1, 0), (0, 1), (-1, -2)])]
    for P in polys + [unimodular_normal_form(P) for P in polys]:
        got = set(dual_polytope(P).vertices)
        want = dual_polygon_halfplane_oracle(P.vertices)
        assert got == {tuple(Fraction(x) for x in v) for v in got} == want


def test_dual_involution_on_reflexive():
    for P in enumerate_reflexive_polygons():
        assert dual_polytope(dual_polytope(P)).vertices == P.vertices


# ------------------------------------------------------------- reflexive


def test_reflexive_examples():
    assert is_reflexive(P2_TRIANGLE)
    assert is_reflexive(SQUARE)
    assert is_reflexive(Polytope.hull([(1, 0), (0, 1), (-1, -2)]))
    # exact duality decides the borderline cases: one interior point for
    # the first (reflexive), two for the second (not)
    assert is_reflexive(Polytope.hull([(1, 0), (0, 1), (-2, -3)]))
    assert not is_reflexive(Polytope.hull([(1, 0), (0, 1), (-1, -3)]))


def test_reflexive_is_false_without_the_origin_interior():
    not_interior = [
        Polytope.hull([(1, 0), (0, 1), (1, 1)]),  # origin outside
        Polytope.hull([(-1, 0), (1, 0), (0, 1)]),  # origin on an edge
        Polytope.hull([(0, 0), (2, 0), (1, 3)]),  # origin a vertex
        Polytope.hull([(-1, 0), (1, 0)]),  # a segment through the origin
        Polytope.hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]),  # origin a vertex
        Polytope.hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)]),  # origin on a facet
        Polytope.hull([(x, y, 0) for x in (-1, 1) for y in (-1, 1)]),  # a square through the origin
    ]
    for P in not_interior:
        assert not P.contains_origin_interior(), P.vertices
        assert is_reflexive(P) is False, P.vertices
        with pytest.raises(ValueError, match="origin"):
            dual_polytope(P)
        with pytest.raises(ValueError, match="origin interior"):
            is_smooth_fano_polytope(P)


def test_smooth_fano_examples():
    assert is_smooth_fano_polytope(P2_TRIANGLE)
    assert is_smooth_fano_polytope(CROSS)
    assert not is_smooth_fano_polytope(Polytope.hull([(1, 0), (0, 1), (-1, -2)]))


# -------------------------------------------------------------- face fan


def test_face_fan_p2():
    fan = face_fan(P2_TRIANGLE)
    assert fan == projective_space_fan(2)


def test_face_fan_cross_is_p1xp1():
    from toriclab.catalog import p1xp1_fan

    assert face_fan(CROSS) == p1xp1_fan()


def test_face_fans_of_reflexive_polygons_complete_and_fano():
    for P in enumerate_reflexive_polygons():
        fan = face_fan(P)
        assert validate_fan(fan).valid
        assert is_complete(fan)
        assert is_fano(ToricVariety(fan))
        assert is_smooth_fano_polytope(P) == (is_smooth(fan) and is_fano(ToricVariety(fan)))


# ------------------------------------------------------------ normal form


def _random_gl2z(rng, length):
    gens = [((1, 1), (0, 1)), ((1, -1), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (0, -1))]
    U = ((1, 0), (0, 1))
    for _ in range(length):
        G = rng.choice(gens)
        U = (
            (G[0][0] * U[0][0] + G[0][1] * U[1][0], G[0][0] * U[0][1] + G[0][1] * U[1][1]),
            (G[1][0] * U[0][0] + G[1][1] * U[1][0], G[1][0] * U[0][1] + G[1][1] * U[1][1]),
        )
    return U


def _transform(U, P):
    return Polytope.hull(
        [(U[0][0] * v[0] + U[0][1] * v[1], U[1][0] * v[0] + U[1][1] * v[1]) for v in P.vertices]
    )


def test_normal_form_shear_invariance():
    shear = ((1, 1), (0, 1))
    assert unimodular_normal_form(P2_TRIANGLE) == unimodular_normal_form(_transform(shear, P2_TRIANGLE))


def test_normal_form_distinguishes_triangle_from_square():
    assert unimodular_normal_form(P2_TRIANGLE) != unimodular_normal_form(SQUARE)
    assert len(unimodular_normal_form(P2_TRIANGLE).vertices) == 3
    assert len(unimodular_normal_form(SQUARE).vertices) == 4


def test_normal_form_orbit_invariance_randomized():
    rng = random.Random(2024)
    polys = list(enumerate_reflexive_polygons())
    checked = 0
    while checked < 200:
        P = rng.choice(polys)
        U = _random_gl2z(rng, rng.randrange(1, 7))
        Q = _transform(U, P)
        assert unimodular_normal_form(Q) == unimodular_normal_form(P)
        checked += 1


def test_normal_form_rejects_unsupported():
    with pytest.raises(ValueError, match="polygons"):
        unimodular_normal_form(Polytope.hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]))


# ------------------------------------------------------------ enumeration


def test_enumeration_counts():
    polys = enumerate_reflexive_polygons()
    assert len(polys) == 16
    assert sum(1 for P in polys if is_smooth_fano_polytope(P)) == 5
    assert all(is_reflexive(P) for P in polys)
    # vertex count distribution of the classification
    sizes = sorted(len(P.vertices) for P in polys)
    assert sizes == [3] * 5 + [4] * 7 + [5] * 3 + [6]


def test_enumeration_is_normal_form_deduplicated():
    polys = enumerate_reflexive_polygons()
    forms = {unimodular_normal_form(P).vertices for P in polys}
    assert len(forms) == 16
    assert {P.vertices for P in polys} == forms


def test_enumeration_matches_boundary_walk_oracle():
    walk = reflexive_polygons_boundary_walk(box=4)
    produced = {P.vertices for P in enumerate_reflexive_polygons()}
    assert produced == walk


def test_rank3_membership_examples():
    simplex = Polytope.hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    assert is_reflexive(simplex)
    assert is_smooth_fano_polytope(simplex)
    cube = Polytope.hull([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    assert is_reflexive(cube)
    assert not is_smooth_fano_polytope(cube)  # facets have four vertices
    fan = face_fan(simplex)
    assert fan == projective_space_fan(3)
