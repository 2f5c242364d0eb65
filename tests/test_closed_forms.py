"""The closed forms for the singularity type and the index, checked against
the searches they replaced (the box scan and the m-scan, kept in
oracles.py) and against the whole-support brute force."""

import itertools
import math
import random
import time
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import assume, given, settings, strategies as st

from toriclab import fan as fan_module
from toriclab.fan import Cone, Fan
from toriclab.pairs import ToricPair, _psi, index, is_log_cy, singularity_type
from toriclab.polytope import Polytope
from toriclab.toric import ToricVariety, _presentation, is_fano, projective_space_fan, weighted_projective_fan

from oracles import classify_pair_brute, index_scan, random_complete_2d_fan, singularity_type_scan
from test_primitives import _count_calls

SMALL_B = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
DET11_CONE = [(1, 0, 0), (0, 1, 0), (3, 5, 11)]


def _simplicial_cone(gens):
    """The affine fan of one simplicial cone, or None if the generators are
    dependent."""
    if any(all(x == 0 for x in g) for g in gens):
        return None
    gens = [tuple(x // math.gcd(*g) for x in g) for g in gens]
    if len(set(gens)) != len(gens) or Cone.from_generators(gens).dim != len(gens):
        return None
    return Fan.from_data(gens, [tuple(range(len(gens)))])


def _check(fan, coeffs, brute=True):
    pair = ToricPair.from_fan(fan, coeffs)
    got = singularity_type(pair)
    assert got == singularity_type_scan(pair), (fan.rays, coeffs)
    if brute:
        assert got == classify_pair_brute(fan, coeffs), (fan.rays, coeffs)
    assert index(pair) == index_scan(pair), (fan.rays, coeffs)
    return got


def _functional_boundary(rng, fan, denominators=(2, 3, 4, 6)):
    """A boundary with K+B Q-Cartier: b_i = 1 - <m, u_i> for a seeded
    rational m with 0 < <m, u_i> <= 1 on every ray."""
    while True:
        q = rng.choice(denominators)
        m = [Fraction(rng.randint(-q, q), q) for _ in range(fan.rank)]
        values = [sum(x * y for x, y in zip(m, u)) for u in fan.rays]
        if all(0 < v <= 1 for v in values):
            return [1 - v for v in values]


def test_random_simplicial_cones_seeded():
    rng = random.Random(31)
    seen = {"terminal": 0, "canonical": 0, "klt": 0}
    done = 0
    while done < 120:
        n = rng.choice((2, 3))
        fan = _simplicial_cone([tuple(rng.randint(-2, 3) for _ in range(n)) for _ in range(n)])
        if fan is None:
            continue
        coeffs = [rng.choice(SMALL_B) if rng.random() < 0.5 else Fraction(0) for _ in fan.rays]
        seen[_check(fan, coeffs, brute=n == 2 or done % 4 == 0)] += 1
        done += 1
    assert all(seen.values()), seen


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    gens=st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=2
    ),
    coeffs=st.lists(st.sampled_from(SMALL_B), min_size=2, max_size=2),
)
def test_simplicial_2d_cones_property(gens, coeffs):
    fan = _simplicial_cone(gens)
    assume(fan is not None)
    _check(fan, coeffs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    gens=st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)), min_size=3, max_size=3
    ),
    coeffs=st.lists(st.sampled_from(SMALL_B[:3]), min_size=3, max_size=3),
)
def test_simplicial_3d_cones_property(gens, coeffs):
    fan = _simplicial_cone(gens)
    assume(fan is not None)
    _check(fan, coeffs, brute=False)


def test_complete_2d_fans_seeded():
    rng = random.Random(5)
    for _ in range(25):
        fan = random_complete_2d_fan(rng, max_rays=6, coord=3)
        _check(fan, [rng.choice(SMALL_B) for _ in fan.rays], brute=False)


def test_cones_over_square_and_pentagon():
    square = Fan.from_data([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 1, 2, 3)])
    pentagon = Fan.from_data([(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 1, 2, 3, 4)])
    rng = random.Random(8)
    for fan in (square, pentagon):
        seen = set()
        for _ in range(12):
            seen.add(_check(fan, _functional_boundary(rng, fan), brute=False))
        assert _check(fan, [0] * len(fan.rays)) == "canonical"
        assert len(seen) >= 2, seen


def test_cones_over_random_polygons():
    # non-simplicial cones with up to a handful of rays, boundary from a functional
    rng = random.Random(19)
    done = 0
    while done < 15:
        points = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(6)]
        hull = Polytope.hull(points, rank=2)
        if len(hull.vertices) < 4:
            continue
        rays = [(int(x), int(y), 1) for x, y in hull.vertices]
        fan = Fan.from_data(rays, [tuple(range(len(rays)))])
        _check(fan, _functional_boundary(rng, fan), brute=False)
        done += 1


def test_weighted_projective_1415_roadmap_boundary():
    fan = weighted_projective_fan((1, 4, 1, 5))
    pair = ToricPair.from_fan(fan, [Fraction(1, 7), Fraction(2, 9), Fraction(3, 11), Fraction(1, 13)])
    assert index(pair) == 180180
    assert index_scan(pair) == 180180
    assert singularity_type(pair) == singularity_type_scan(pair)


def test_det11_cone_b_ladder():
    # the box scan grows like k^3 here; the closed form reads 10 box points
    fan = Fan.from_data(DET11_CONE, [(0, 1, 2)])
    for k in (1, 2, 3, 4):
        pair = ToricPair.from_fan(fan, [1 - Fraction(1, k)] * 3)
        assert singularity_type(pair) == singularity_type_scan(pair) == "klt"
        assert index(pair) == index_scan(pair)
    start = time.perf_counter()
    for e in range(1, 7):
        k = 10**e
        pair = ToricPair.from_fan(fan, [1 - Fraction(1, k)] * 3)
        assert singularity_type(pair) == "klt"
        assert index(pair) == 11 * k
        one_ray = ToricPair.from_fan(fan, [0, 0, 1 - Fraction(1, k)])
        assert singularity_type(one_ray) == "klt"
    assert time.perf_counter() - start < 5


def test_index_rejects_non_qcartier_pair():
    square = Fan.from_data([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 1, 2, 3)])
    pair = ToricPair.from_fan(square, [Fraction(1, 2), 0, 0, 0])
    with pytest.raises(ValueError, match="Q-Cartier"):
        index(pair)
    with pytest.raises(ValueError, match="Q-Cartier"):
        is_log_cy(pair)


def test_classification_computes_no_facet_data(monkeypatch):
    pair = ToricPair.from_fan(projective_space_fan(3), [Fraction(1, 2), 0, Fraction(1, 3), 0])
    singularity_type(pair)
    is_log_cy(pair)
    index(pair)
    assert not any("facet_data" in vars(cone) for cone in pair.fan.cones)
    # a point lookup reads the signs on each cone's facets, read off its
    # seeds (every cone full-dimensional simplicial): no double description
    runs = []
    _count_calls(monkeypatch, fan_module, "_double_description", runs)
    psi = _psi(pair)
    for v in itertools.product(range(-2, 3), repeat=3):
        if any(v):
            psi(v)
    assert all(len(cone.generators) == cone.dim == cone.rank for cone in pair.fan.cones)
    assert runs == []
    # a cone that is not simplicial (the cone over the square) asks its facets
    square = ToricPair.reduced(Fan.from_data([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 1, 2, 3)]))
    assert _psi(square)((0, 0, 1)) == 0
    assert "facet_data" in vars(square.fan.cones[0])


# ------------------------------------------------------------ caches


def test_whole_pair_caches_stay_bounded():
    for cache in (_psi, _presentation):
        assert cache.cache_parameters()["maxsize"] is not None
    for k in range(1, 301):
        fan = Fan.from_data([(1, 0), (0, 1), (-1, -k)], [(0, 1), (1, 2), (0, 2)])
        is_log_cy(ToricPair.from_fan(fan, [0, Fraction(1, k + 1), 0]))
    for cache in (_psi, _presentation):
        info = cache.cache_info()
        assert info.currsize <= info.maxsize, info


# ------------------------------------------------- one Cone per fan


def test_fan_builds_each_maximal_cone_once():
    fan = projective_space_fan(2)
    assert fan.cones[0] is fan.cones[0]
    assert fan.cones == tuple(fan.cone(c) for c in fan.max_cones)


def test_is_fano_computes_each_facet_set_once(monkeypatch):
    computed = []
    original = Cone.__dict__["facet_data"].func

    def counting(cone):
        computed.append(cone.generators)
        return original(cone)

    patched = cached_property(counting)
    patched.__set_name__(Cone, "facet_data")
    monkeypatch.setattr(Cone, "facet_data", patched)
    assert is_fano(ToricVariety(projective_space_fan(3)))
    assert len(computed) == 4
