"""A full-dimensional simplicial cone's dual basis (its seeds, Cone.seeds,
when len(generators) == dim == rank: one adjugate) against what it
replaced: the double description for facets, a Gauss-Jordan solve over
Fractions for membership, each cone's Smith chart for the linear pieces
(oracles.local_functionals_smith) and the unimodular test, and the Smith
and Fraction readings of the Cartier and Fano tests."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toriclab import fan as fan_module
from toriclab.catalog import bundled_fans, cone_over_square_fan
from toriclab.fan import Cone, Fan, double_description, star_subdivision
from toriclab.lattice import det, primitive, rank, vdot
from toriclab.toric import (
    ToricVariety,
    is_cartier,
    is_fano,
    local_functionals,
    projective_space_fan,
    weighted_projective_fan,
)

from oracles import (
    is_cartier_solve,
    is_fano_functionals,
    is_unimodular_smith,
    local_functionals_smith,
    random_complete_2d_fan,
    row_echelon,
)


def _random_basis(rng, n, size):
    """n independent primitive integer vectors with entries up to `size`,
    in a seeded order."""
    while True:
        rows = [tuple(rng.randint(-size, size) for _ in range(n)) for _ in range(n)]
        if det(rows) != 0:
            return [primitive(r) for r in rows]


def _facets_by_double_description(gens):
    """facet_data's reading of one double-description run on the given
    generator list, members named by generator."""
    _, facets, _ = double_description(gens)
    return {frozenset(gens[i] for i in members): h for h, members in facets}


def _named_facets(cone):
    return {frozenset(cone.generators[i] for i in members): h for members, h in cone.facet_data}


def _adjugate(cone):
    """(last, (h_0, ..., h_{n-1})) off the seeds of a cone of n = rank
    independent generators, every one a seed in generator order; None for
    any other cone."""
    if not (len(cone.generators) == cone.dim == cone.rank):
        return None
    last, seeds = cone.seeds
    assert [s for s, _ in seeds] == list(range(cone.rank))
    return last, tuple(h for _, h in seeds)


# ------------------------------------------------------------ dual basis


def test_dual_basis_is_the_adjugate_of_the_generators():
    rng = random.Random(4711)
    negative = 0
    for trial in range(300):
        n = 1 + trial % 5
        gens = _random_basis(rng, n, (3, 50, 10**6)[trial % 3])
        cone = Cone.from_generators(gens)
        last, h = _adjugate(cone)
        G = cone.generators
        assert [[vdot(hs, g) for g in G] for hs in h] == [[last * (s == j) for j in range(n)] for s in range(n)]
        assert abs(last) == abs(det(G))
        assert cone.dim == n
        negative += last < 0
    assert negative > 50


def test_cones_without_a_dual_basis():
    shapes = [
        [(1, 0, 0), (0, 1, 0)],  # lower-dimensional
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],  # not simplicial
        [(1, 2, 3), (2, 3, 4), (3, 4, 5)],  # three dependent generators in R^3
        [(1,), (-1,)],  # a line
    ]
    for gens in shapes:
        cone = Cone.from_generators(gens)
        assert _adjugate(cone) is None, gens
        assert cone.dim == rank(cone.generators), gens
    assert _adjugate(Cone((), 2)) is None


def test_membership_reads_the_dual_basis(count_calls):
    # x = sum c_j g_j, c from a Gauss-Jordan solve over Fractions: x is in
    # the cone iff every c_j >= 0, in its relative interior iff every c_j > 0;
    # the signs are read on facets off the seeds, with no double description
    runs = count_calls("_double_description", fan_module)
    rng = random.Random(1515)
    boundary = outside = 0
    for trial in range(200):
        n = 1 + trial % 4
        cone = Cone.from_generators(_random_basis(rng, n, (5, 1000)[trial % 2]))
        G = cone.generators
        for _ in range(6):
            c = [Fraction(rng.randint(-1, 2), rng.randint(1, 3)) for _ in range(n)]
            x = tuple(sum(cj * g[i] for cj, g in zip(c, G)) for i in range(n))
            solved, _ = row_echelon([[g[i] for g in G] + [x[i]] for i in range(n)], n)
            assert [row[n] for row in solved] == c
            assert cone.contains(x) == all(cj >= 0 for cj in c), (G, x)
            assert cone.relint_contains(x) == all(cj > 0 for cj in c), (G, x)
            boundary += min(c) == 0
            outside += min(c) < 0
    assert runs == []
    assert boundary > 100 and outside > 100


def test_simplicial_facet_data_is_the_double_description():
    # the double description called directly on the generators, in the
    # given order and permuted: same members, normals and order
    rng = random.Random(808)
    negative = 0
    for trial in range(300):
        n = 1 + trial % 4
        gens = _random_basis(rng, n, (5, 1000, 10**6)[trial % 3])
        cone = Cone.from_generators(gens)
        _, facets, _ = double_description(cone.generators)
        direct = tuple(sorted(((members, h) for h, members in facets), key=lambda kv: sorted(kv[0])))
        assert cone.facet_data == direct, gens
        for perm in itertools.islice(itertools.permutations(gens), 4):
            assert _named_facets(Cone.from_generators(perm)) == _facets_by_double_description(list(perm))
        negative += _adjugate(cone)[0] < 0
    assert negative > 50


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.tuples(*[st.integers(-10**6, 10**6)] * n), min_size=n, max_size=n)))
def test_hypothesis_simplicial_facet_data_is_the_double_description(rows):
    if det(rows) == 0:
        return
    cone = Cone.from_generators(rows)
    assert _named_facets(cone) == _facets_by_double_description([primitive(r) for r in rows])
    for members, h in cone.facet_data:
        assert all((vdot(h, g) == 0) == (i in members) for i, g in enumerate(cone.generators))
        assert all(vdot(h, g) >= 0 for g in cone.generators) and math.gcd(*h) == 1


# ------------------------------------------------------ linear pieces

PLANE_FAN_PLUS_RAY = Fan.from_data([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)], [(0, 1), (1, 2), (0, 2), (3,)])
FANS = [
    *bundled_fans(),
    ("P(1,1,2)", weighted_projective_fan((1, 1, 2))),
    ("P(2,3,5)", weighted_projective_fan((2, 3, 5))),
    ("P(1,4,1,5)", weighted_projective_fan((1, 4, 1, 5))),
    ("P(1,1,2,3)", weighted_projective_fan((1, 1, 2, 3))),
    ("cone over the square", cone_over_square_fan()),
    ("plane fan plus a ray", PLANE_FAN_PLUS_RAY),
    ("mixed 3D cones", Fan.from_data([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (-1, 0, 2)], [(0, 1, 2), (3, 4), (0, 4)])),
    *((f"P{n}", projective_space_fan(n)) for n in range(2, 6)),
]


def _values(rng, fan, kind):
    """Seeded values on the rays: arbitrary rationals (often no piece on a
    non-simplicial cone), values of one global functional, or halves."""
    if kind == 0:
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in fan.rays]
    if kind == 1:
        m = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(fan.rank)]
        return [vdot(m, u) for u in fan.rays]
    return [Fraction(rng.randint(-4, 4), 2) for _ in fan.rays]


@pytest.mark.parametrize("name,fan", FANS, ids=[n for n, _ in FANS])
def test_local_functionals_match_the_smith_charts(name, fan):
    rng = random.Random(name)
    for trial in range(30):
        values = _values(rng, fan, trial % 3)
        assert local_functionals(fan, values) == local_functionals_smith(Fan(fan.rays, fan.max_cones, fan.rank), values)


def test_local_functionals_report_the_missing_pieces():
    square = cone_over_square_fan()
    assert local_functionals(square, [1, 2, 1, 1]) == local_functionals_smith(square, [1, 2, 1, 1]) == [None]
    mixed = dict(FANS)["mixed 3D cones"]
    assert local_functionals(mixed, [1, 2, 3, 4, 5])[1:] == local_functionals_smith(mixed, [1, 2, 3, 4, 5])[1:]


def _random_simplicial_fans(rng):
    for _ in range(25):
        yield random_complete_2d_fan(rng, max_rays=10, coord=30)
    for _ in range(15):
        fan = projective_space_fan(3)
        for _ in range(rng.randint(1, 6)):
            c = rng.choice(fan.max_cones)
            fan = star_subdivision(fan, rng.sample(c, rng.randint(2, 3)))
        yield fan
    for _ in range(15):
        yield weighted_projective_fan([rng.randint(1, 9) for _ in range(rng.randint(2, 3))] + [1])


def test_local_functionals_match_the_smith_charts_on_seeded_fans():
    rng = random.Random(31337)
    negative = 0
    for fan in _random_simplicial_fans(rng):
        negative += sum(_adjugate(cone)[0] < 0 for cone in fan.cones)
        for trial in range(6):
            values = _values(rng, fan, trial % 3)
            assert local_functionals(fan, values) == local_functionals_smith(Fan(fan.rays, fan.max_cones, fan.rank), values)
    assert negative > 20


# ---------------------------------------- unimodular, Cartier and Fano


@pytest.mark.parametrize("name,fan", FANS, ids=[n for n, _ in FANS])
def test_unimodular_cartier_and_fano_are_unchanged(name, fan):
    rng = random.Random(f"{name} cartier")
    for cone in fan.cones:
        assert cone.is_unimodular() == is_unimodular_smith(Cone(cone.generators, cone.rank))
    X = ToricVariety(fan)
    for _ in range(25):
        D = [rng.randint(-4, 4) for _ in fan.rays]
        assert is_cartier(X, D) == is_cartier_solve(X, D)
    simplicial = all(len(c) == fan.rank for c in fan.max_cones)
    if simplicial and name not in ("P1",):
        assert is_fano(X) == is_fano_functionals(ToricVariety(Fan(fan.rays, fan.max_cones, fan.rank)))


def test_named_answers():
    # P(1,1,2) has one singular point, 1/2(1,1); weighted projective
    # spaces are Fano; the cone over the square is not simplicial
    named = dict(FANS)
    assert [cone.is_unimodular() for cone in named["P(1,1,2)"].cones].count(False) == 1
    assert all(is_fano(ToricVariety(named[n])) for n in ("P(1,1,2)", "P(2,3,5)", "P(1,4,1,5)"))
    assert not named["cone over the square"].cones[0].is_unimodular()
    assert all(cone.is_unimodular() for cone in projective_space_fan(5).cones)


def test_fano_and_unimodular_on_seeded_fans_with_negative_determinants():
    rng = random.Random(99)
    fano = 0
    for fan in _random_simplicial_fans(rng):
        X = ToricVariety(fan)
        answer = is_fano(X)
        assert answer == is_fano_functionals(ToricVariety(Fan(fan.rays, fan.max_cones, fan.rank)))
        fano += answer
        for cone in fan.cones:
            assert cone.is_unimodular() == is_unimodular_smith(Cone(cone.generators, cone.rank))
    assert 0 < fano < 55
