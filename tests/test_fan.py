import math
import random

import pytest

from toriclab.catalog import cone_over_square_fan, hirzebruch_fan, p1xp1_fan
from toriclab.fan import (
    Cone,
    Fan,
    is_complete,
    is_refinement,
    is_simplicial,
    is_smooth,
    resolve_cone_2d,
    star_subdivision,
    validate_fan,
)
from toriclab.lattice import primitive
from toriclab.pairs import ToricPair, crepant_pullback
from toriclab.toric import projective_space_fan, weighted_projective_fan

from oracles import (
    complete_2d_oracle,
    det2,
    expected_2d_insertions,
    is_refinement_scan,
    random_complete_2d_fan,
    validate_fan_pairwise,
)

P2 = projective_space_fan(2)


# ------------------------------------------------------------ validation


def test_p2_fan_valid():
    assert validate_fan(P2).valid


def test_overlapping_cones_detected():
    fan = Fan.from_data([(1, 0), (0, 1), (1, 1), (-1, 1)], [(0, 1), (2, 3)])
    diag = validate_fan(fan)
    assert not diag.valid
    assert diag.problem == "cones do not intersect in a common face"
    assert diag.witness is not None


def test_empty_fan_valid():
    fan = Fan.from_data([], [], rank=2)
    assert validate_fan(fan).valid


def test_unused_ray_detected():
    fan = Fan.from_data([(1, 0), (0, 1), (-1, -1)], [(0, 1)])
    diag = validate_fan(fan)
    assert not diag.valid
    assert diag.problem == "ray not contained in any maximal cone"


def test_non_strongly_convex_detected():
    fan = Fan.from_data([(1, 0), (-1, 0), (0, 1)], [(0, 1, 2)])
    diag = validate_fan(fan)
    assert not diag.valid
    assert diag.problem == "maximal cone is not strongly convex"


def test_non_extremal_generator_detected():
    fan = Fan.from_data([(1, 0), (1, 1), (0, 1)], [(0, 1, 2)])
    diag = validate_fan(fan)
    assert not diag.valid
    assert diag.problem == "non-extremal generator in maximal cone"


def test_nested_cones_detected():
    fan = Fan.from_data([(1, 0), (0, 1)], [(0,), (0, 1)])
    diag = validate_fan(fan)
    assert not diag.valid
    assert diag.problem == "maximal cone contained in another"


def test_fan_constructor_rejects_bad_data():
    with pytest.raises(ValueError):
        Fan.from_data([(0, 0)], [(0,)])
    with pytest.raises(ValueError):
        Fan.from_data([(1, 0), (2, 0)], [(0, 1)])  # duplicate after primitivization
    with pytest.raises(ValueError):
        Fan.from_data([(1, 0)], [(0, 1)])  # index out of range


def test_canonical_ray_order():
    a = Fan.from_data([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    b = Fan.from_data([(-1, -1), (0, 1), (1, 0)], [(1, 2), (0, 1), (0, 2)])
    assert a == b
    assert a.rays == ((-1, -1), (0, 1), (1, 0))


# ---------------------------------------------------------- predicates


def test_simplicial():
    assert is_simplicial(p1xp1_fan())
    assert not is_simplicial(cone_over_square_fan())
    assert is_simplicial(P2)


def test_smooth():
    assert is_smooth(P2)
    fan = Fan.from_data([(1, 0), (1, 2)], [(0, 1)])
    assert not is_smooth(fan)
    assert not is_smooth(weighted_projective_fan((1, 1, 2)))


def test_complete():
    assert is_complete(P2)
    assert not is_complete(Fan.from_data([(1, 0), (0, 1)], [(0, 1)]))
    assert is_complete(hirzebruch_fan(2))
    assert is_complete(projective_space_fan(3))
    assert not is_complete(cone_over_square_fan())


def test_complete_rejects_low_dimensional_max_cone():
    fan = Fan.from_data([(1, 0), (0, 1), (-1, -1)], [(0,), (1,), (2,)])
    with pytest.raises(ValueError, match="completeness undefined"):
        is_complete(fan)


def test_complete_agrees_with_2d_angle_criterion():
    rng = random.Random(42)
    for _ in range(30):
        fan = random_complete_2d_fan(rng)
        assert validate_fan(fan).valid
        assert complete_2d_oracle(fan)
        assert is_complete(fan)
        # drop one cone: both criteria must flip
        broken = Fan.from_data(fan.rays, fan.max_cones[1:])
        with_all_rays = all(
            any(i in c for c in broken.max_cones) for i in range(len(broken.rays))
        )
        if with_all_rays:
            assert not complete_2d_oracle(broken)
            assert not is_complete(broken)


def _winding_fan(rng, w):
    """A seeded 2D fan on k rays in angular order, each joined by a cone to
    the ray w places on: with k and w coprime and every cone under a half
    turn, its cones wind w times round the origin."""
    while True:
        k = rng.randint(2 * w + 1, 2 * w + 6)
        if math.gcd(k, w) != 1:
            continue
        angles = sorted(2 * math.pi * (j + rng.uniform(-0.3, 0.3)) / k for j in range(k))
        rays = [primitive((round(40 * math.cos(a)), round(40 * math.sin(a)))) for a in angles]
        steps = [det2(rays[j], rays[(j + s) % k]) for j in range(k) for s in (1, w)]
        if len(set(rays)) == k and all(d > 0 for d in steps):
            return Fan.from_data(rays, [(j, (j + w) % k) for j in range(k)])


def test_complete_agrees_with_2d_angle_criterion_on_winding_fans():
    # complete_2d_oracle reads the rays' cyclic order, never a wall map;
    # every wall of a winding fan lies in two cones on opposite sides, so
    # only the covering degree tells w = 1 from w = 2 and 3
    rng = random.Random(2121)
    for w in (1, 2, 3):
        for _ in range(12):
            fan = _winding_fan(rng, w)
            assert all(len(ks) == 2 for ks in fan.wall_map.values())
            assert is_complete(fan) == complete_2d_oracle(fan) == (w == 1), (w, fan)


# ------------------------------------------------------ star subdivision


def blowup_p2():
    tau = [i for i, r in enumerate(P2.rays) if r in ((1, 0), (0, 1))]
    return star_subdivision(P2, tau)


def test_star_subdivision_blowup_point():
    fine = blowup_p2()
    assert (1, 1) in fine.rays
    assert len(fine.max_cones) == 4
    assert validate_fan(fine).valid
    assert is_refinement(fine, P2)


def test_star_subdivision_custom_ray():
    tau = [i for i, r in enumerate(P2.rays) if r in ((1, 0), (0, 1))]
    fine = star_subdivision(P2, tau, (2, 1))
    assert (2, 1) in fine.rays
    assert len(fine.max_cones) == 4
    assert validate_fan(fine).valid
    assert is_refinement(fine, P2)


def test_star_subdivision_at_single_ray_is_identity():
    for i in range(3):
        assert star_subdivision(P2, [i]) == P2


def test_star_subdivision_rejects_bad_input():
    with pytest.raises(ValueError, match="not a cone"):
        star_subdivision(P2, [0, 1, 2])  # all three rays span no cone
    tau = [i for i, r in enumerate(P2.rays) if r in ((1, 0), (0, 1))]
    with pytest.raises(ValueError, match="relative interior"):
        star_subdivision(P2, tau, (1, 0))
    with pytest.raises(ValueError, match="relative interior"):
        star_subdivision(P2, tau, (-1, 2))
    # a diagonal ray pair of the square cone spans no face
    square = cone_over_square_fan()
    i = square.rays.index((1, 0, 1))
    j = square.rays.index((-1, 0, 1))
    with pytest.raises(ValueError, match="not a cone"):
        star_subdivision(square, [i, j])
    with pytest.raises(ValueError, match="stratum must contain at least one ray"):
        star_subdivision(P2, [])
    for bad in ([0, 3], [-1]):
        with pytest.raises(ValueError, match="stratum ray index out of range"):
            star_subdivision(P2, bad)
    # the checks run in order: the indices are integers, the stratum is
    # not empty, its indices are in range, it is a cone, then the ray
    with pytest.raises(ValueError, match="not an integer"):
        star_subdivision(P2, [0.5])
    with pytest.raises(ValueError, match="not an integer"):
        star_subdivision(P2, [0, 3.5])
    with pytest.raises(ValueError, match="not a cone"):
        star_subdivision(P2, [0, 1, 2], (0.5, 1))
    with pytest.raises(ValueError, match="not a cone"):
        star_subdivision(P2, [0, 1, 2], (1, 0))


def test_star_subdivision_preserves_completeness_and_simpliciality():
    rng = random.Random(5)
    for fan in [P2, p1xp1_fan(), projective_space_fan(3)]:
        current = fan
        for _ in range(3):
            cone = rng.choice(current.max_cones)
            size = rng.randrange(1, len(cone) + 1)
            tau = rng.sample(cone, size)
            current = star_subdivision(current, tau)
            assert validate_fan(current).valid
            assert is_complete(current)
            assert is_simplicial(current)
            assert is_refinement(current, fan)


def test_star_subdivision_non_simplicial_cone():
    fan = cone_over_square_fan()
    full = star_subdivision(fan, [0, 1, 2, 3])
    assert validate_fan(full).valid
    assert is_simplicial(full)
    assert is_refinement(full, fan)
    assert primitive((0, 0, 4)) in full.rays


def test_refinement_chain():
    fine = blowup_p2()
    tau = [i for i, r in enumerate(fine.rays) if r in ((1, 1), (0, 1))]
    finer = star_subdivision(fine, tau)
    assert is_refinement(finer, fine)
    assert is_refinement(finer, P2)
    assert not is_refinement(P2, finer)


def test_refinement_rejects_overlapping_fine_cones():
    quadrant = Fan.from_data([(1, 0), (0, 1)], [(0, 1)])
    # three cones folded inside the quadrant, missing (0, 1): every wall
    # lies in two cones, but on one side of each
    folded = Fan.from_data([(1, 0), (1, 2), (2, 1)], [(0, 1), (1, 2), (2, 0)])
    # the quadrant itself plus a piece of it
    overlap = Fan.from_data([(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])
    for fine in (folded, overlap):
        assert not validate_fan_pairwise(fine)
        assert not is_refinement(fine, quadrant)
        assert is_refinement_scan(fine, quadrant)  # the unoriented cover accepts both
        with pytest.raises(ValueError, match="fan is not a refinement of the pair's fan"):
            crepant_pullback(ToricPair.reduced(quadrant), fine)


def test_refinement_rejects_different_combinatorics():
    assert not is_refinement(P2, p1xp1_fan())
    assert not is_refinement(p1xp1_fan(), P2)


def _refinement_fans():
    """The fans the refinement tests above and below build: P2 with its
    blow-ups, seeded star subdivisions of P2, P1xP1 and P3, the cone over
    the square with its full subdivision, and 2D cones with their
    resolutions."""
    fine = blowup_p2()
    tau = [i for i, r in enumerate(fine.rays) if r in ((1, 1), (0, 1))]
    fans = [P2, p1xp1_fan(), fine, star_subdivision(fine, tau)]
    tau = [i for i, r in enumerate(P2.rays) if r in ((1, 0), (0, 1))]
    fans.append(star_subdivision(P2, tau, (2, 1)))
    rng = random.Random(5)
    for fan in [P2, p1xp1_fan(), projective_space_fan(3)]:
        fans.append(fan)
        for _ in range(3):
            cone = rng.choice(fans[-1].max_cones)
            fans.append(star_subdivision(fans[-1], rng.sample(cone, rng.randrange(1, len(cone) + 1))))
    square = cone_over_square_fan()
    fans += [square, star_subdivision(square, [0, 1, 2, 3])]
    for a, b in ((1, 2), (2, 5), (3, 7)):
        cone = Cone.from_generators([(1, 0), (a, b)])
        rays = [cone.generators[0]] + resolve_cone_2d(cone) + [cone.generators[1]]
        fans.append(Fan.from_data(rays, [(i, i + 1) for i in range(len(rays) - 1)]))
        fans.append(Fan.from_data(cone.generators, [(0, 1)]))
    return fans


def test_refinement_matches_per_cone_scan():
    fans = _refinement_fans()
    verdicts = set()
    for fine in fans:
        for coarse in fans:
            want = is_refinement_scan(fine, coarse)
            assert is_refinement(fine, coarse) == want, (fine, coarse)
            verdicts.add(want)
    assert verdicts == {True, False}


# -------------------------------------------------------- 2D resolution


def test_resolve_a1():
    cone = Cone.from_generators([(1, 0), (1, 2)])
    assert resolve_cone_2d(cone) == [(1, 1)]


def test_resolve_an_chain():
    for n in range(2, 9):
        cone = Cone.from_generators([(1, 0), (1, n)])
        assert resolve_cone_2d(cone) == [(1, k) for k in range(1, n)]


def test_resolve_smooth_cone_empty():
    assert resolve_cone_2d(Cone.from_generators([(1, 0), (0, 1)])) == []


def test_resolve_requires_2d():
    with pytest.raises(ValueError):
        resolve_cone_2d(Cone.from_generators([(1, 0, 0), (0, 1, 0)]))
    with pytest.raises(ValueError):
        resolve_cone_2d(Cone.from_generators([(1, 0)]))


def test_resolve_matches_hilbert_basis_oracle():
    for a in range(1, 13):
        for b in range(a + 1, 13):
            cone = Cone.from_generators([(1, 0), (a, b)])
            got = resolve_cone_2d(cone)
            assert got == expected_2d_insertions((1, 0), (a, b)), (a, b)
            # inserted chain is unimodular step by step
            walk = [cone.generators[0]] + got + [cone.generators[1]]
            if det2(walk[0], walk[-1]) < 0:
                walk = [cone.generators[1]] + got + [cone.generators[0]]
            for p, q in zip(walk, walk[1:]):
                assert abs(det2(p, q)) == 1
            # assembling the chain into a fan gives a valid smooth
            # refinement of the original cone
            rays = walk
            fan = Fan.from_data(rays, [(i, i + 1) for i in range(len(rays) - 1)])
            assert validate_fan(fan).valid, (a, b)
            assert is_smooth(fan), (a, b)
            single = Fan.from_data(cone.generators, [(0, 1)])
            assert is_refinement(fan, single), (a, b)


def _general_2d_cones(rng):
    """Cones whose generators are both general: named ones, then seeded
    ones with 1 < |det| <= 300."""
    yield from [
        ((-1, 0), (3, -7)),  # u = (-1, 0)
        ((0, 1), (-5, 3)),  # u = (0, 1)
        ((5, 1), (-2, 7)),  # u = (5, 1)
        ((2, 3), (4, 9)),  # u = (2, 3), D = 6: neither coordinate invertible mod D
        ((-4, -3), (2, 3)),  # the same u and D, the other orientation
    ]
    count = 0
    while count < 60:
        u, w = [(rng.randint(-25, 25), rng.randint(-25, 25)) for _ in range(2)]
        if math.gcd(*u) == math.gcd(*w) == 1 and 1 < abs(det2(u, w)) <= 300:
            count += 1
            yield u, w


def test_resolve_general_generators_match_hilbert_basis_oracle():
    seen = set()
    for gens in _general_2d_cones(random.Random(2026)):
        cone = Cone.from_generators(gens)
        assert resolve_cone_2d(cone) == expected_2d_insertions(*gens), gens
        u, w = cone.generators
        d = det2(u, w)
        if d < 0:
            u, w, d = w, u, -d
        seen.add("counterclockwise" if cone.generators[0] == u else "clockwise")
        if 0 in u + w:
            seen.add("zero coordinate")
        if abs(u[1]) == 1:
            seen.add("|u_2| = 1")
        if math.gcd(u[0], d) > 1 and math.gcd(u[1], d) > 1:
            seen.add("u not invertible")
        if d > 200:
            seen.add("D > 200")
    assert seen == {"counterclockwise", "clockwise", "zero coordinate", "|u_2| = 1", "u not invertible", "D > 200"}
