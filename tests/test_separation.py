"""The separation predicates read off double-description facets (strong
convexity, extremal generators, the common-face test of validate_fan),
against the simplex LPs they replaced (tests/oracles.py), on cones with
lineality, and a count guard: one elimination and one double-description
run per cone."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from toriclab import fan as fan_module
from toriclab.fan import Cone, Fan, _meet_in_common_face

from oracles import generators_extremal_lp, meet_in_common_face_lp, strongly_convex_lp
from test_double_description import _kgon, _units


def _pm(vectors):
    return [tuple(s * x for x in v) for v in vectors for s in (1, -1)]


# (name, generators, rank): cones whose lineality space is not zero, or
# whose generators are not all extremal
NAMED_CONES = [
    ("line", [(1, 2), (-1, -2)], 2),
    ("line in rank 3", [(1, 2, 0), (-1, -2, 0)], 3),
    ("line in rank 4", [(0, 1, 0, 3), (0, -1, 0, -3)], 4),
    ("half-plane", [(1, 0), (-1, 0), (0, 1)], 2),
    ("half-plane with a redundant generator", [(1, 0), (-1, 0), (0, 1), (1, 1)], 2),
    ("whole plane", [(1, 0), (0, 1), (-1, -1)], 2),
    ("whole plane, redundant generator", [(1, 0), (0, 1), (-1, -1), (-1, 0)], 2),
    ("plane in rank 3", _pm(_units(3)[:2]), 3),
    ("half-space", [*_pm(_units(3)[:2]), (1, 1, 1)], 3),
    ("line times quadrant", [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
    ("line times quadrant, inner generator", [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)], 3),
    ("whole space 3", [*_units(3), (-1, -1, -1)], 3),
    ("whole space 4", _pm(_units(4)), 4),
    ("plane times ray", [*_pm(_units(4)[:2]), (0, 0, 1, 1)], 4),
    ("plane times quadrant", [*_pm(_units(4)[:2]), (0, 0, 1, 0), (0, 0, 0, 1)], 4),
    ("repeated +- rows", [(1, 1, 0), (-1, -1, 0), (2, 2, 0), (-3, -3, 0), (0, 0, 1)], 3),
    ("square with its centre", [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1)], 3),
    ("square with an edge midpoint", [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 2)], 3),
    ("cube with a facet centre", [(*p, 1) for p in [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]]
     + [(-1, *q, 1) for q in [(1, 1), (1, -1), (-1, 1), (-1, -1)]] + [(1, 0, 0, 1)], 4),
    ("pointed, every generator extremal", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3),
]


def _check(cone):
    assert cone.is_strongly_convex() == strongly_convex_lp(cone), cone.generators
    assert cone.generators_extremal() == generators_extremal_lp(cone), cone.generators


@pytest.mark.parametrize("name, gens, rank", NAMED_CONES, ids=[c[0] for c in NAMED_CONES])
def test_named_cones_match_the_simplex(name, gens, rank):
    _check(Cone.from_generators(gens, rank))


def _random_cone(rng):
    """Rank 2-4; about half the cones get +-pairs, so a line or more."""
    rank = rng.randint(2, 4)
    gens = []
    while len(gens) < rng.randint(1, rank + 3):
        g = tuple(rng.randint(-2, 2) for _ in range(rank))
        if any(g):
            gens.append(g)
    if rng.random() < 0.5:
        gens.append(tuple(-x for x in rng.choice(gens)))
    return Cone.from_generators(gens, rank)


def test_seeded_cones_match_the_simplex():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(400):
        cone = _random_cone(rng)
        _check(cone)
        seen.add((cone.is_strongly_convex(), cone.generators_extremal()))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@st.composite
def cones(draw):
    rank = draw(st.integers(2, 4))
    vec = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank).filter(any).map(tuple)
    gens = draw(st.lists(vec, min_size=1, max_size=rank + 3))
    lines = draw(st.lists(st.sampled_from(gens), max_size=2))
    return Cone.from_generators(gens + [tuple(-x for x in g) for g in lines], rank)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cones())
def test_hypothesis_cones_match_the_simplex(cone):
    _check(cone)


def test_meet_in_common_face_matches_the_simplex():
    rng = random.Random(20261020)
    seen = set()
    for _ in range(300):
        rank = rng.randint(2, 4)
        rays = set()
        while len(rays) < rng.randint(rank + 1, rank + 4):
            r = tuple(rng.randint(-2, 2) for _ in range(rank))
            if any(r):
                rays.add(tuple(x // math.gcd(*r) for x in r))
        rays = sorted(rays)
        ca = tuple(sorted(rng.sample(range(len(rays)), rng.randint(1, rank))))
        cb = tuple(sorted(rng.sample(range(len(rays)), rng.randint(1, rank))))
        if set(ca) <= set(cb) or set(cb) <= set(ca):
            continue
        fan = Fan.from_data(rays, [ca, cb], rank)
        ca, cb = fan.max_cones
        got = _meet_in_common_face(fan, ca, cb)
        assert got == meet_in_common_face_lp(fan, ca, cb), (rays, ca, cb)
        seen.add((got, bool(set(ca) & set(cb))))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("k", range(4, 13))
def test_one_double_description_run_per_kgon_cone(k, count_calls):
    # the run starts from the cone's cached echelon, so the cone takes
    # one elimination in all
    echelons = count_calls("_seed_echelon", fan_module)
    runs = count_calls("_double_description", fan_module)
    cone = Cone.from_generators(_kgon(k))
    assert cone.is_strongly_convex()
    assert cone.generators_extremal()
    assert ([len(c.args[0]) for c in echelons], [len(c.args[0]) for c in runs]) == ([k], [k])
