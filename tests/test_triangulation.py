"""The pulling triangulation of a cone (Cone.triangulation) and the least
log discrepancy read off it (pairs._least_exceptional_psi), against the
search over every independent subset of generators it replaced
(oracles.least_psi_all_subsets) and the box scan; its simplices against
the shoelace area and the refinement test; count guards on Smith forms."""

import doctest
import inspect
import itertools
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toriclab import lattice, pairs
from toriclab.cli import main
from toriclab.fan import Cone, Fan, is_complete, is_refinement, validate_fan
from toriclab.fileformats import emit_fan
from toriclab.pairs import ToricPair, _least_exceptional_psi, crepant_pullback, singularity_type
from toriclab.polytope import Polytope
from toriclab.toric import projective_space_fan

from oracles import is_refinement_scan, least_psi_all_subsets, minor_gcds, singularity_type_scan
from test_double_description import _kgon

# ------------------------------------------------ the triangulation itself


def test_docstring_example_runs():
    # doctest.testmod does not look inside a cached_property
    test = doctest.DocTestParser().get_doctest(inspect.getdoc(Cone.triangulation), {"Cone": Cone}, "triangulation", None, 0)
    assert doctest.DocTestRunner().run(test) == (0, 2)


def _shoelace2(points):
    """Twice the area of the polygon through the points in order."""
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0, _), (x1, y1, _) in zip(points, points[1:] + points[:1])))


@pytest.mark.parametrize("k", range(4, 33))
def test_kgon_cone_has_k_minus_2_simplices_filling_its_area(k):
    points = _kgon(k)
    cone = Cone.from_generators(points)
    assert len(cone.facet_data) == k  # the rounded k-gon keeps every vertex
    simplices = cone.triangulation
    assert len(simplices) == k - 2
    for indices, simplex in simplices:
        assert len(simplex.generators) == simplex.dim == simplex.rank
        assert simplex.generators == tuple(cone.generators[i] for i in indices)
        assert set(simplex.generators) <= set(cone.generators)
    assert sum(abs(simplex.seeds[0]) for _, simplex in simplices) == _shoelace2(points)
    gens = cone.generators
    fine = Fan.from_data(gens, [indices for indices, _ in simplices])
    assert is_refinement(fine, Fan.from_data(gens, [tuple(range(k))]))


def test_cube_cone_has_six_simplices_of_total_determinant_48():
    cube = Cone.from_generators([(x, y, z, 1) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    simplices = cube.triangulation
    assert len(simplices) == 6
    assert sum(abs(simplex.seeds[0]) for _, simplex in simplices) == 48


def test_simplicial_cones_are_their_own_triangulation():
    for gens in ([(1, 0, 0), (1, 2, 0), (0, 0, 1)], [(1, 0, 1), (0, 1, 1)], [(2, 3)]):
        cone = Cone.from_generators(gens)
        assert cone.triangulation == ((tuple(range(len(gens))), cone),)


# ------------------------------------ the least psi against the subset search


def _point_set(rng, rank):
    """k distinct points of Z^(rank-1) x {1}: sampled from a box, so often
    not in convex position, or the vertices of their hull, or vertices of
    a sheared unit cube, which are the only lattice points of their hull,
    so that the pair can be terminal."""
    box = 2 if rank == 3 else 1
    grid = list(itertools.product(range(-box, box + 1), repeat=rank - 1))
    k = rng.randint(4, 8) if rank == 3 else rng.randint(5, 9)
    points = rng.sample(grid, k)
    shape = rng.random()
    if shape < 0.4:
        hull = Polytope.hull(points, rank=rank - 1)
        points = [tuple(map(int, v)) for v in hull.vertices]
    elif shape < 0.55:
        shear = [rng.randint(-1, 1) for _ in range(rank - 2)]
        corners = rng.sample(list(itertools.product((0, 1), repeat=rank - 1)), min(k, 2 ** (rank - 1)))
        points = [(c[0] + sum(s * x for s, x in zip(shear, c[1:])), *c[1:]) for c in corners]
    return [(*p, 1) for p in points]


def _functional_pair(rng, points):
    """A pair on the one-cone fan over the points whose boundary comes
    from a functional, so K+B is Q-Cartier: psi = m.u / D with m.u >= 1
    on every point and D >= max m.u, so 0 <= b < 1."""
    m = [rng.randint(-1, 1) for _ in points[0][:-1]]
    values = [sum(a * x for a, x in zip(m, p)) for p in points]
    shift = 1 - min(values) + rng.randint(0, 2)
    values = [v + shift for v in values]
    D = max(values) + rng.randint(0, 2)
    fan = Fan.from_data(points, [tuple(range(len(points)))])
    by_ray = dict(zip(points, values))
    return ToricPair.from_fan(fan, [Fraction(D - by_ray[u], D) for u in fan.rays])


def _check_cone(rng, rank):
    """Triangulation and subset search agree on the cone; on a valid fan
    singularity_type also agrees with the box scan.  Returns (sign, valid,
    convex, simplicial) for the coverage checks."""
    points = _point_set(rng, rank)
    pair = _functional_pair(rng, points)
    cone = pair.fan.cones[0]
    alpha, A = pair.alpha, pair.A
    sign = _least_exceptional_psi(cone, alpha, A)
    assert sign == least_psi_all_subsets(cone, alpha, A), (points, pair.boundary)
    valid = bool(validate_fan(pair.fan))
    if valid:
        assert singularity_type(pair) == singularity_type_scan(pair), (points, pair.boundary)
    convex = cone.generators_extremal()
    return sign, valid, convex, len(cone.generators) == cone.dim


def test_seeded_point_set_cones_match_the_subset_search():
    rng = random.Random(20261018)
    seen = set()
    for rank, count in ((3, 150), (4, 60)):
        for _ in range(count):
            sign, valid, convex, simplicial = _check_cone(rng, rank)
            seen.add((rank, sign, valid, convex, simplicial))
    for rank in (3, 4):
        assert {s for r, s, *_ in seen if r == rank} >= {-1, 0, 1}, rank
        assert {(v, c) for r, _, v, c, _ in seen if r == rank} >= {(True, True), (False, False)}, rank
        assert any(r == rank and v and not simplicial for r, _, v, _, simplicial in seen), rank


def _unimodular(rng, n):
    """A seeded n x n integer matrix of determinant 1: a product of
    elementary row operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


def _simplex_with_invariants(rng, invariants):
    """A seeded simplicial full-dimensional cone whose generator matrix has
    the Smith invariants (1, *invariants), read off the gcds of its minors
    (oracles.minor_gcds): the rows of U.diag(1, *invariants).V for seeded
    unimodular U and V, drawn again until they are primitive and
    distinct."""
    n = len(invariants) + 1
    d = (1, *invariants)
    while True:
        U, V = _unimodular(rng, n), _unimodular(rng, n)
        rows = [tuple(sum(U[i][k] * d[k] * V[k][j] for k in range(n)) for j in range(n)) for i in range(n)]
        if all(math.gcd(*row) == 1 for row in rows) and len(set(rows)) == n:
            break
    gcds = minor_gcds(rows)
    assert [b // a for a, b in zip([1, *gcds], gcds)] == list(d)
    return Cone.from_generators(rows)


@pytest.mark.parametrize("invariants", [(2, 2), (2, 6), (3, 3), (2, 2, 2), (3, 3, 3), (2, 2, 4)])
def test_simplices_with_several_invariants_walk_the_whole_box(invariants):
    # the box is walked one invariant at a time: with two or more above 1
    # every partial sum must still be combined with every later multiple
    rng = random.Random(f"box {invariants}")
    signs = set()
    for _ in range(25):
        cone = _simplex_with_invariants(rng, invariants)
        assert [d for d in cone.solve_chart.d if d > 1] == list(invariants)
        for _ in range(4):
            A = rng.randint(1, 12)
            alpha = [rng.randint(1, 2 * A) for _ in cone.generators]
            sign = _least_exceptional_psi(cone, alpha, A)
            assert sign == least_psi_all_subsets(Cone(cone.generators, cone.rank), alpha, A), (cone.generators, alpha, A)
            signs.add(sign)
    assert signs == {-1, 0, 1}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.sampled_from((3, 4)))
def test_hypothesis_point_set_cones_match_the_subset_search(rnd, rank):
    _check_cone(rnd, rank)


# ------------------------------------------------------------ count guards


def test_hexagon_pairs_take_one_smith_form_per_simplex(count_calls):
    fan = Fan.from_data([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 1), (-1, -1, 1)], [tuple(range(6))])
    pair_list = []
    for m, extra in [((0, 0, 1), 0), ((0, 0, 1), 1), ((0, 0, 1), 2), ((1, 0, 2), 0), ((1, 1, 3), 1), ((1, -1, 2), 0)]:
        values = [sum(a * x for a, x in zip(m, u)) for u in fan.rays]
        D = max(values) + extra
        pair_list.append(ToricPair.from_fan(fan, [Fraction(D - v, D) for v in values]))
    smith = count_calls("smith_normal_form", lattice)
    pairs._psi.cache_clear()
    found = [singularity_type(pair) for pair in pair_list]
    assert len(fan.cones[0].triangulation) == 4
    assert len(smith) <= 5  # 4 simplices and the cone's own chart; 121 by the subset search
    smith.clear()
    assert [singularity_type(pair) for pair in pair_list] == found
    assert smith == []
    assert found == [singularity_type_scan(pair) for pair in pair_list]


def test_cold_24gon_cone_takes_one_smith_form_per_simplex(count_calls):
    fan = Fan.from_data([(i, i * i, 1) for i in range(24)], [tuple(range(24))])
    pair = ToricPair.from_fan(fan, [Fraction(1, 2)] * 24)
    smith = count_calls("smith_normal_form", lattice)
    pairs._psi.cache_clear()
    assert singularity_type(pair) in ("klt", "canonical", "terminal")
    assert len(smith) <= 23  # 22 simplices and the cone's own chart


# ------------------------------------- refinements that are not valid fans


def test_hanging_vertex_across_a_coarse_wall_is_not_a_fan(tmp_path, capsys):
    # P^3 with the ray (-1, 0, -1) hanging on the wall {(-1, -1, -1), e_2}
    # of the cone {0, 3, 4}: every cone of P^3 is covered once, but the
    # cones {0, 1, 2} and {0, 3, 4} do not meet in a common face
    fine = Fan.from_data(
        [(-1, -1, -1), (-1, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0)],
        [(0, 1, 2), (0, 2, 4), (0, 3, 4), (1, 2, 3), (2, 3, 4)],
    )
    diagnostics = validate_fan(fine)
    assert not diagnostics and diagnostics.witness == ((0, 1, 2), (0, 3, 4))
    assert "must be a valid fan" in " ".join(crepant_pullback.__doc__.split())
    p3 = projective_space_fan(3)
    assert not is_refinement(fine, p3)
    with pytest.raises(ValueError, match="fan is not a refinement of the pair's fan"):
        crepant_pullback(ToricPair.reduced(p3), fine)
    path = tmp_path / "hanging.fan"
    path.write_text(emit_fan(fine))
    pair = pathlib.Path(__file__).parents[1] / "samples" / "p3_boundary.pair"
    assert main(["pair", "pullback", str(pair), "--refinement", str(path)]) == 2
    assert "invalid fan: cones do not intersect in a common face" in capsys.readouterr().err


def _one_sided_wall_subdivisions(rng):
    """P^3 with one wall subdivided, at a seeded primitive point of its
    relative interior, inside only one of the two cones holding it: the
    new ray hangs on the other cone's facet.  Six walls, two sides each."""
    p3 = projective_space_fan(3)
    new = len(p3.rays)
    for cone in p3.max_cones:
        for wall in itertools.combinations(cone, 2):
            p, q = rng.randint(1, 9), rng.randint(1, 9)
            v = lattice.primitive(tuple(p * x + q * y for x, y in zip(*(p3.rays[i] for i in wall))))
            halves = [tuple(sorted((set(cone) - {i}) | {new})) for i in wall]
            yield Fan.from_data(p3.rays + (v,), [c for c in p3.max_cones if c != cone] + halves)


def test_one_sided_wall_subdivisions_of_p3_are_not_refinements():
    # the per-cone scan accepts these, so the reference is validate_fan
    # and is_complete
    p3 = projective_space_fan(3)
    fans = list(_one_sided_wall_subdivisions(random.Random(33)))
    assert len(fans) == 12
    for fine in fans:
        assert not validate_fan(fine) and not is_complete(fine), fine
        assert is_refinement_scan(fine, p3), fine
        assert not is_refinement(fine, p3), fine
        with pytest.raises(ValueError, match="fan is not a refinement of the pair's fan"):
            crepant_pullback(ToricPair.reduced(p3), fine)
