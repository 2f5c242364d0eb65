import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toriclab.fan import is_complete, is_smooth, validate_fan
from toriclab.polytope import (
    Polytope,
    enumerate_reflexive_polygons,
    face_fan,
    facet_functionals,
    is_reflexive,
    is_smooth_fano_polytope,
    unimodular_normal_form,
)
from toriclab.toric import ToricVariety, is_fano, projective_space_fan

from oracles import dual_polygon_halfplane_oracle, is_reflexive_scan, reflexive_polygons_boundary_walk, scaled_dual_scan

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


def _dual_vertices(P):
    return {a for _, a in facet_functionals(P)}


def test_dual_square_is_cross():
    assert _dual_vertices(SQUARE) == set(CROSS.vertices)


def test_dual_p2_triangle():
    assert _dual_vertices(P2_TRIANGLE) == {(2, -1), (-1, 2), (-1, -1)}


def test_dual_with_rational_vertices():
    # two interior lattice points, so not reflexive: the dual picks up a
    # vertex with denominator 3
    P = Polytope.hull([(1, 0), (0, 1), (-1, -3)])
    assert any(x.denominator == 3 for a in _dual_vertices(P) for x in a)
    assert not is_reflexive(P)


def test_dual_matches_halfplane_oracle():
    polys = [P2_TRIANGLE, SQUARE, CROSS, Polytope.hull([(1, 0), (0, 1), (-1, -2)])]
    for P in polys + [unimodular_normal_form(P) for P in polys]:
        assert _dual_vertices(P) == dual_polygon_halfplane_oracle(P.vertices)


def test_dual_involution_on_reflexive():
    for P in enumerate_reflexive_polygons():
        L, dual = scaled_dual_scan(P)
        assert L == 1
        assert _dual_vertices(Polytope.hull(dual, rank=2)) == set(P.vertices)


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


# --------------------------------------------------- integer vertices only


def test_non_integer_coordinates_are_rejected():
    for x in (Fraction(1, 2), Fraction(4, 2), 0.5):
        with pytest.raises(ValueError, match="polytope vertices must be integers"):
            Polytope.hull([(x, 0), (0, 1), (-1, -1)])
        with pytest.raises(ValueError, match="polytope vertices must be integers"):
            Polytope(((1, 0, 0), (0, x, 1)), 3)


def test_is_reflexive_builds_no_polytope_and_no_fraction(monkeypatch, count_calls):
    polys = list(enumerate_reflexive_polygons()) + [
        Polytope.hull([(1, 0), (0, 1), (-1, -3)]),
        Polytope.hull([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 2)]),
        Polytope.hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)]),
    ]
    built = count_calls("__post_init__", Polytope)
    made = count_calls("__new__", Fraction)
    answers = [is_reflexive(P) for P in polys]
    monkeypatch.undo()
    assert answers == [True] * 16 + [False] * 3
    assert built == [] and made == []


def _reflexive_cases(rng, rank, count):
    """Seeded point sets in rank 1-4: ones around the simplex of P^n, whose
    hulls have the origin inside, ones with the origin a vertex and ones
    with it on the facet x_0 = 0, and small random ones."""
    units = [tuple(s * int(i == j) for j in range(rank)) for i in range(rank) for s in (1, -1)]
    for _ in range(count):
        box = rng.choice((1, 1, 2, 3))
        extra = [tuple(rng.randint(-box, box) for _ in range(rank)) for _ in range(rng.randint(0, 3))]
        yield units[::2] + [(-1,) * rank] + rng.sample(units, rng.randint(0, 2 * rank)) + extra
        yield [(0,) * rank] + [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rank + 1)]
        yield [u for u in units if u[0] == 0] + [(rng.randint(1, 2), *u[1:]) for u in units]
        yield [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(1, rank + 3))]


def test_is_reflexive_matches_the_facet_scan_seeded():
    rng = random.Random(1818)
    for rank, count in ((1, 40), (2, 60), (3, 30), (4, 20)):
        reflexive = boundary = 0
        for pts in _reflexive_cases(rng, rank, count):
            P = Polytope.hull(pts, rank=rank)
            want = is_reflexive_scan(P)
            assert is_reflexive(P) == want, pts
            reflexive += want
            boundary += P.dim == rank and min(h0 for _, _, h0 in P._facets) == 0
        assert reflexive >= 5 and boundary >= count // 2, (rank, reflexive, boundary)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.lists(st.tuples(*[st.integers(-2, 2)] * r), min_size=1, max_size=3 + r)
    )
)
def test_is_reflexive_matches_the_facet_scan_hypothesis(pts):
    P = Polytope.hull(pts)
    assert is_reflexive(P) == is_reflexive_scan(P)
