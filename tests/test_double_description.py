"""The double-description kernel against the subset scans and LPs it
replaced (tests/oracles.py): cone facets, membership, faces, 3D and 4D
hulls, and a count-based guard on its growth."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toriclab.catalog import cone_over_square_fan, hirzebruch_fan
from toriclab.fan import (
    Cone,
    Fan,
    _is_face,
    double_description,
    is_complete,
    is_refinement,
    star_subdivision,
    validate_fan,
)
from toriclab.lattice import vdot
from toriclab.polytope import Polytope, facet_functionals, is_reflexive
from toriclab.toric import projective_space_fan

from oracles import (
    cone_contains_lp,
    facet_data_scan,
    facet_functionals_scan,
    hull_vertices_lp,
    is_face_lp,
    is_refinement_scan,
    is_reflexive_scan,
    origin_interior_lp,
    random_complete_2d_fan,
    row_echelon,
    scaled_dual_scan,
)
from test_invariance import _glnz


def _units(rank):
    return [tuple(int(i == j) for j in range(rank)) for i in range(rank)]


def _kgon(k, radius=100):
    return [
        (round(radius * math.cos(2 * math.pi * i / k)), round(radius * math.sin(2 * math.pi * i / k)), 1)
        for i in range(k)
    ]


def _ball(R):
    r = range(-R, R + 1)
    return [p for p in itertools.product(r, repeat=3) if sum(x * x for x in p) <= R * R + R]


CUBE = list(itertools.product((-1, 1), repeat=3))
OCTAHEDRON = [tuple(s * u for u in e) for e in _units(3) for s in (1, -1)]
CUBOCTAHEDRON = [p for p in itertools.product((-1, 0, 1), repeat=3) if sum(x * x for x in p) == 2]

# (name, generators, rank): every shape the kernel must treat apart
NAMED_CONES = [
    ("simplicial 2", [(1, 0), (1, 3)], 2),
    ("simplicial 3", [(1, 0, 0), (0, 1, 0), (1, 2, 5)], 3),
    ("simplicial 4", _units(4), 4),
    ("square", [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3),
    ("12-gon", _kgon(12, 3), 3),
    ("32-gon", _kgon(32), 3),
    ("cube", [(*p, 1) for p in CUBE], 4),
    ("octahedron", [(*p, 1) for p in OCTAHEDRON], 4),
    ("cuboctahedron", [(*p, 1) for p in CUBOCTAHEDRON], 4),
    ("non-extremal generator", [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1)], 3),
    ("ray in rank 3", [(1, 2, 3)], 3),
    ("plane cone in rank 3", [(1, 0, 0), (1, 1, 0), (0, 1, 0)], 3),
    ("3-dim cone in rank 4", [(1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1)], 4),
    ("tilted plane cone in rank 4", [(1, 1, 0, 0), (0, 1, 1, 0), (1, 2, 1, 0)], 4),
    ("half-plane", [(1, 0), (-1, 0), (0, 1)], 2),
    ("line times quadrant", [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
    ("plane times ray", [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 1, 1)], 4),
    ("half-space", [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 1)], 3),
    ("whole plane", [(1, 0), (0, 1), (-1, -1)], 2),
    ("whole space 3", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], 3),
    ("whole space 4", [tuple(s * u for u in e) for e in _units(4) for s in (1, -1)], 4),
    ("line in a plane", [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], 3),
    ("line", [(1, 2, 0), (-1, -2, 0)], 3),
    # rays sharing d - 2 zero rows that are not adjacent: the count filter
    # alone would join them (found by a seeded search)
    (
        "rank 4 with lineality where the count filter is not enough",
        [(-3, -2, -3, -3), (-3, 1, -2, 3), (-2, -3, -3, 3), (-1, 0, -1, 0), (0, -3, -2, -1), (3, -1, 2, -3), (3, 0, 0, 2)],
        4,
    ),
    (
        "rank 5 where the count filter is not enough",
        [
            (-2, 0, -3, 0, -2), (-2, 1, -3, 2, -2), (-2, 2, 1, 2, 2), (-2, 3, -3, -2, -2),
            (-1, -1, 3, 2, -2), (0, 3, 0, -2, 0), (3, 0, 2, 0, -2), (3, 3, 0, -1, 1),
        ],
        5,
    ),
    # every dual ray vanishes on the line's two rows, so every pair passes
    # the d - 2 filter with d = 4 and only the combinatorial test decides
    (
        "pentagon times a line",
        [(0, 0, 0, 1), (0, 0, 0, -1)] + [(x, y, 1, 0) for x, y in ((2, 0), (1, 2), (-1, 2), (-2, 0), (0, -2))],
        4,
    ),
    (
        "hexagon times a line",
        [(0, 0, 0, 1), (0, 0, 0, -1)] + [(x, y, 1, 0) for x, y in ((2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2))],
        4,
    ),
]


def _proportional(u, v):
    """u = c * v for some c > 0 (both nonzero)."""
    i = next(i for i, x in enumerate(v) if x)
    c = Fraction(u[i]) / v[i]
    return c > 0 and all(a == c * b for a, b in zip(u, v))


def _probe_points(cone, rng, count):
    gens = list(cone.generators)
    rank = cone.rank
    pts = [tuple(0 for _ in range(rank))] + gens + [tuple(-x for x in g) for g in gens]
    pts += [tuple(map(sum, zip(*gens)))]
    for _ in range(count):
        a, b = rng.choice(gens), rng.choice(gens)
        pts.append(tuple(x + y for x, y in zip(a, b)))
        pts.append(tuple(Fraction(x, 2) - Fraction(y, 3) for x, y in zip(a, b)))
        pts.append(tuple(rng.randint(-3, 3) for _ in range(rank)))
    return pts


def _check_cone(cone, rng, count=4):
    """Member sets and their order as the scan, normals positively
    proportional to the scan's on every generator, and membership as the
    LP."""
    want, got = facet_data_scan(cone), cone.facet_data
    assert [m for m, _ in got] == [m for m, _ in want], cone.generators
    for (_, h), (_, h_old) in zip(got, want):
        assert _proportional([vdot(h, g) for g in cone.generators], [vdot(h_old, g) for g in cone.generators])
        assert all(type(x) is int for x in h) and math.gcd(*h) == 1
    for x in _probe_points(cone, rng, count):
        assert cone.contains(x) == cone_contains_lp(cone, x, False), (cone.generators, x)
        assert cone.relint_contains(x) == cone_contains_lp(cone, x, True), (cone.generators, x)


@pytest.mark.parametrize("name, gens, rank", NAMED_CONES, ids=[c[0].replace(" ", "-") for c in NAMED_CONES])
def test_named_cones_match_scan_and_lp(name, gens, rank):
    _check_cone(Cone.from_generators(gens, rank), random.Random(name))


def test_cone_without_generators():
    cone = Cone((), 3)
    assert cone.facet_data == facet_data_scan(cone) == ()
    assert cone.contains((0, 0, 0)) and cone.relint_contains((0, 0, 0))
    assert not cone.contains((0, 1, 0))


def _random_gens(rng, rank, k, coord=3):
    gens = []
    while len(gens) < k:
        g = tuple(rng.randint(-coord, coord) for _ in range(rank))
        if any(g):
            gens.append(g)
    return gens


def test_seeded_cones_match_scan_and_lp():
    rng = random.Random(2026)
    seen = set()
    for _ in range(150):
        rank = rng.choice((2, 3, 4))
        gens = _random_gens(rng, rank, rng.randint(1, rank + 5))
        if rng.random() < 0.3:  # drop to a lower-dimensional span
            gens = [g[:-1] + (0,) for g in gens if any(g[:-1])] or [(1,) + (0,) * (rank - 1)]
        cone = Cone.from_generators(gens, rank)
        _check_cone(cone, rng, 2)
        seen.add((len(cone.generators) == cone.dim, cone.dim == rank, cone.is_strongly_convex()))
    assert seen == set(itertools.product((True, False), repeat=3)) - {(True, True, False), (True, False, False)}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4).flatmap(lambda r: st.lists(st.tuples(*[st.integers(-3, 3)] * r), min_size=1, max_size=r + 5)))
def test_hypothesis_cones_match_scan_and_lp(gens):
    gens = [g for g in gens if any(g)] or [(1,) + (0,) * (len(gens[0]) - 1)]
    _check_cone(Cone.from_generators(gens), random.Random(str(gens)), 1)


# ------------------------------------------------------------------ faces


def _faces_checked(host, rng, extra):
    """_is_face against the LP on every nonempty subset of the host's
    generators (a sample when there are many) and on subsets with a
    foreign generator."""
    gens = host.generators
    subsets = [s for r in range(1, len(gens) + 1) for s in itertools.combinations(gens, r)]
    if len(subsets) > 40:
        subsets = rng.sample(subsets, 40)
    subsets += [(extra,) + s[:1] for s in subsets[:3]]
    faces = 0
    for sub in subsets:
        sub_cone = Cone(tuple(sub), host.rank)
        want = is_face_lp(sub_cone, host)
        assert _is_face(sub_cone, host) == want, (gens, sub)
        faces += want
    return faces, len(subsets) - faces


def test_face_test_matches_lp():
    rng = random.Random(77)
    p3 = projective_space_fan(3)
    fans = [p3, cone_over_square_fan()]
    fan = p3
    for _ in range(4):
        c = rng.choice(fan.max_cones)
        fan = star_subdivision(fan, rng.sample(c, rng.randint(1, len(c))))
        fans.append(fan)
    hosts = [cone for f in fans for cone in f.cones]
    hosts += [Cone.from_generators(g, r) for name, g, r in NAMED_CONES if name != "line" and len(g) <= 12]
    faces = non_faces = 0
    for host in hosts:
        f, n = _faces_checked(host, rng, (1,) * (host.rank - 1) + (7,))
        faces, non_faces = faces + f, non_faces + n
    assert faces > 100 and non_faces > 50


# ------------------------------------------------------------ polytopes


def _polytope_cases():
    rng = random.Random(31)
    sets = [CUBE, OCTAHEDRON, CUBOCTAHEDRON, CUBE + [(0, 0, 0), (1, 0, 0), (0, 1, 1)], _ball(1), _ball(2)]
    sets += [_units(4) + [(-1, -1, -1, -1), (0, 0, 0, 0), (1, 1, 0, 0)]]
    sets += [list(itertools.product((-1, 1), repeat=4)) + [(0, 0, 0, 0), (1, 0, 0, 0)]]
    sets += [[(0, 0, 0), (1, 1, 0), (2, 2, 0), (1, 0, 0)], [(1, 1, 1), (2, 2, 2), (0, 0, 0)], [(1, 2, 3)]]
    for _ in range(25):  # 4D sets stay small: the scan over their duals' facets is slow
        rank = rng.choice((3, 3, 4))
        sets.append([tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(4, 15 - 2 * rank))])
    for _ in range(10):  # points with denominators up to 4, scaled by 12 to lattice points
        rank = rng.choice((3, 4))
        sets.append([tuple(12 * rng.randint(-6, 6) // rng.randint(1, 4) for _ in range(rank)) for _ in range(rng.randint(4, 9))])
    return sets


def _check_polytope(P, pts):
    """Check P against the scan and the LPs; return its scanned facets
    when the origin is interior (the scan runs once), else None."""
    rank = P.rank
    assert P.vertices == hull_vertices_lp(pts, rank)
    v0 = P.vertices[0]
    dim = len(row_echelon([[a - b for a, b in zip(v, v0)] for v in P.vertices], rank)[1])
    assert P.dim == dim
    interior = dim == rank and origin_interior_lp(P.vertices, rank)
    assert P.contains_origin_interior() == interior
    facets = None
    if dim == rank:
        facets = facet_functionals_scan(P)
        assert facet_functionals(P) == facets
    else:
        with pytest.raises(ValueError, match="full-dimensional"):
            facet_functionals(P)
    assert is_reflexive(P) == is_reflexive_scan(P, facets)
    return facets if interior else None


def test_polytopes_match_scan_and_lp():
    duals = 0
    for pts in _polytope_cases():
        P = Polytope.hull(pts)
        facets = _check_polytope(P, pts)
        if facets is not None:
            # L times the dual is a lattice polytope, and its facet
            # functionals are the vertices of P over L
            L, dual = scaled_dual_scan(P, facets)
            D = Polytope.hull(dual)
            _check_polytope(D, dual)
            assert {a for _, a in facet_functionals(D)} == {tuple(Fraction(x, L) for x in v) for v in P.vertices}
            duals += 1
    assert duals >= 8


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 4).flatmap(lambda r: st.lists(st.tuples(*[st.integers(-3, 3)] * r), min_size=1, max_size=10)))
def test_hypothesis_polytopes_match_scan_and_lp(pts):
    _check_polytope(Polytope.hull(pts), pts)


# ------------------------------------------------------------- symmetry


def _signed_permutation(rng, rank):
    perm = list(range(rank))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(rank)]
    return lambda v: tuple(signs[i] * v[perm[i]] for i in range(rank))


def _facet_vectors(rows, members_list):
    return {frozenset(rows[i] for i in m) for m in members_list}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 4).flatmap(lambda r: st.lists(st.tuples(*[st.integers(-3, 3)] * r), min_size=1, max_size=r + 3)),
    st.integers(0, 10**6),
)
def test_facets_and_membership_follow_permutations(gens, seed):
    rng = random.Random(seed)
    rank = len(gens[0])
    gens = sorted({g for g in gens if any(g)}) or [(1,) + (0,) * (rank - 1)]
    _, facets, _ = double_description(gens)
    shuffled = rng.sample(gens, len(gens))
    _, again, _ = double_description(shuffled)
    assert _facet_vectors(shuffled, [m for _, m in again]) == _facet_vectors(gens, [m for _, m in facets])

    t = _signed_permutation(rng, rank)
    cone, moved = Cone.from_generators(gens, rank), Cone.from_generators([t(g) for g in gens], rank)
    want = {frozenset(t(cone.generators[i]) for i in m) for m, _ in cone.facet_data}
    assert want == _facet_vectors(moved.generators, [m for m, _ in moved.facet_data])
    for x in _probe_points(cone, rng, 2):
        assert cone.contains(x) == moved.contains(t(x))
        assert cone.relint_contains(x) == moved.relint_contains(t(x))


def _moved_fan(fan, rng):
    """The fan under a seeded signed coordinate permutation, with its rays
    and cones listed in a shuffled order."""
    t = _signed_permutation(rng, fan.rank)
    order = rng.sample(range(len(fan.rays)), len(fan.rays))
    where = {old: new for new, old in enumerate(order)}
    rays = [t(fan.rays[i]) for i in order]
    cones = [tuple(rng.sample([where[i] for i in c], len(c))) for c in fan.max_cones]
    return Fan.from_data(rays, rng.sample(cones, len(cones)), rank=fan.rank), t


def _fan_answers(fan, coarse):
    # is_refinement, in both directions, against the per-cone scan it replaced
    refines = is_refinement(fan, coarse), is_refinement(coarse, fan)
    assert refines == (is_refinement_scan(fan, coarse), is_refinement_scan(coarse, fan))
    return (validate_fan(fan).valid, is_complete(fan)) + refines


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 10**6))
def test_fan_predicates_follow_permutations(seed):
    rng = random.Random(seed)
    p3 = projective_space_fan(3)
    fine = p3
    for _ in range(rng.randint(0, 2)):
        c = rng.choice(fine.max_cones)
        fine = star_subdivision(fine, rng.sample(c, rng.randint(1, len(c))))
    overlapping = Fan.from_data([(1, 0), (0, 1), (1, 1), (-1, 1)], [(0, 1), (2, 3)])
    two_d = random_complete_2d_fan(rng)
    cases = [(fine, p3), (two_d, hirzebruch_fan(rng.randint(0, 3))), (overlapping, projective_space_fan(2))]
    for fan, coarse in cases:
        moved, t = _moved_fan(fan, rng)
        moved_coarse = Fan.from_data([t(r) for r in coarse.rays], coarse.max_cones, rank=coarse.rank)
        assert _fan_answers(moved, moved_coarse) == _fan_answers(fan, coarse)


# ------------------------------------------- rank <= 3 runs and the pivots


def _embedded(rng, gens, rank):
    """gens padded with zeros to the given rank and moved by a seeded
    g in GL(rank, Z): the same cone in another lattice basis, so its
    pivots are other coordinates, often out of order."""
    g = _glnz(rng, rank, factors=2 * rank, size=3)
    return [tuple(vdot(row, (*v, *(0,) * (rank - len(v)))) for row in g) for v in gens]


# (name, generators) of dimension <= 3: planar cones, cones whose facets
# hold more than two generators, lines and planes
LOW_DIMENSIONAL = [
    ("ray", [(1, 2)]),
    ("quadrant", [(1, 0), (0, 1)]),
    ("wedge with an inner generator", [(1, 0), (1, 3), (1, 1)]),
    ("half-plane", [(1, 0), (-1, 0), (0, 1)]),
    ("plane", [(1, 0), (0, 1), (-1, -1)]),
    ("line", [(1, 2, 3), (-1, -2, -3)]),
    ("line times quadrant", [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ("half-space", [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 1)]),
    ("whole space", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]),
    ("square", [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
    ("square with edge midpoints", [(x, y, 2) for x in (-2, 0, 2) for y in (-2, 0, 2) if (x, y) != (0, 0)]),
    ("triangle with a point on each edge", [(0, 0, 1), (2, 0, 1), (0, 2, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]),
    ("hexagon with its centre", [(2, 0, 1), (1, 2, 1), (-1, 2, 1), (-2, 0, 1), (-1, -2, 1), (1, -2, 1), (0, 0, 1)]),
    ("12-gon", _kgon(12, 3)),
]


def _check_low_dimensional(gens, rank, rng):
    """facet_data as the scan (tests/oracles.py) and as the public
    double_description on the generators; normals zero off the pivots.
    Returns (dimension, pivots in order, some coordinate off the pivots)."""
    cone = Cone.from_generators(gens, rank)
    _check_cone(cone, rng, 2)
    pivots, facets, _ = double_description(cone.generators)
    assert cone.facet_data == tuple(sorted(((m, h) for h, m in facets), key=lambda kv: sorted(kv[0])))
    assert all(h[c] == 0 for h, _ in facets for c in range(rank) if c not in pivots)
    return len(pivots), list(pivots) == sorted(pivots), len(pivots) < rank


def test_low_dimensional_cones_in_other_bases_match_the_scan():
    # each shape in its own rank and every rank up to 4, in seeded bases
    rng = random.Random(4207)
    seen = set()
    for _, gens in LOW_DIMENSIONAL:
        for rank in range(len(gens[0]), 5):
            for _ in range(3):
                seen.add(_check_low_dimensional(_embedded(rng, gens, rank), rank, rng))
    # d < rank leaves coordinates off the pivots, in and out of pivot
    # order; d == rank in rank 2 and 3 takes the cofactor seeds, whose
    # pivots are always in order
    off = {(d, ordered, True) for d in (2, 3) for ordered in (True, False)} | {(1, True, True)}
    assert seen == off | {(2, True, False), (3, True, False)}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 3).flatmap(lambda r: st.lists(st.tuples(*[st.integers(-3, 3)] * r), min_size=1, max_size=r + 5)),
    st.integers(0, 4),
    st.integers(0, 10**6),
)
def test_hypothesis_low_dimensional_cones_in_other_bases(gens, extra, seed):
    # a cone of rank 2 or 3 in its own rank or a larger one, up to 4
    rng = random.Random(seed)
    gens = [g for g in gens if any(g)] or [(1,) + (0,) * (len(gens[0]) - 1)]
    rank = min(4, len(gens[0]) + extra)
    _check_low_dimensional(_embedded(rng, gens, rank), rank, rng)


def test_zero_rows_lie_on_every_facet_and_bound_nothing():
    # a zero row that counted as a shared zero row would pass every pair
    # of a rank <= 3 run as adjacent and add rays that are not extreme
    rng = random.Random(61)
    for _, gens in LOW_DIMENSIONAL + [("cube", [(*p, 1) for p in CUBE])]:
        want_pivots, want, want_tests = double_description(gens)
        rows = list(gens)
        for _ in range(2):
            rows.insert(rng.randint(0, len(rows)), (0,) * len(gens[0]))
        old = [i for i, r in enumerate(rows) if any(r)]
        zero = frozenset(i for i, r in enumerate(rows) if not any(r))
        pivots, facets, tests = double_description(rows)
        assert (pivots, tests) == (want_pivots, want_tests)
        assert facets == [(h, frozenset(old[i] for i in members) | zero) for h, members in want], gens


def test_rank_4_hulls_with_pivots_out_of_order():
    # full-dimensional runs in rank 4 whose pivots come out of order: the
    # normals must come back in their own coordinates, not in pivot order
    rng = random.Random(19)
    out_of_order = 0
    for pts in (CUBE, OCTAHEDRON, CUBOCTAHEDRON):
        for _ in range(4):
            rows = _embedded(rng, [(*p, 1) for p in pts], 4)
            pivots, _, _ = double_description(rows)
            out_of_order += list(pivots) != sorted(pivots)
            _check_cone(Cone.from_generators(rows, 4), rng, 1)
    assert out_of_order >= 3


# -------------------------------------------------------- scaling guard


def test_adjacency_tests_grow_at_most_quadratically():
    # counts, not timings: a ladder rung may cost at most (size ratio)^2
    # times the adjacency tests of the rung below it
    ladders = [
        [(k, [g for g in sorted(set(_kgon(k)))]) for k in (8, 16, 24, 32)],
        [(len(_ball(R)), sorted((*p, 1) for p in _ball(R))) for R in (1, 2, 3)],
    ]
    for ladder in ladders:
        counts = [(size, double_description(rows)[2]) for size, rows in ladder]
        assert all(c > 0 for _, c in counts), counts
        for (s1, c1), (s2, c2) in zip(counts, counts[1:]):
            assert c2 <= c1 * (s2 / s1) ** 2, counts
