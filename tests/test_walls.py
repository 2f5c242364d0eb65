"""validate_fan's wall criterion against the pairwise scan it skips
(oracles.validate_fan_pairwise): the same Diagnostics (valid, problem and
witness) on named, seeded and hypothesis fans of rank 1 to 4 and on
seeded face fans of 3D lattice polytopes, and the criterion accepting
exactly the valid complete fans of full-dimensional cones, simplicial or
not.  The count guards (no double-description run or separation where it
accepts) are in test_primitives."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from toriclab.catalog import bundled_fans, cone_over_square_fan
from toriclab.fan import Fan, _covers_once, _covers_space, is_complete, is_refinement, validate_fan
from toriclab.lattice import primitive
from toriclab.polytope import Polytope, face_fan
from toriclab.toric import ToricVariety, is_fano, projective_space_fan, weighted_projective_fan

from oracles import _connected, is_refinement_scan, random_complete_2d_fan, validate_fan_pairwise


def _copy(fan):
    """The same fan as a new object, so no cached cone data is shared."""
    return Fan(fan.rays, fan.max_cones, fan.rank)


def _both(fan):
    return validate_fan(_copy(fan)), validate_fan_pairwise(_copy(fan))


def _accepts_exactly_the_valid_complete_fans(fan, pairwise):
    """Where every ray is used and every maximal cone is strongly convex
    with extremal generators, validate_fan's wall test behind its guard
    (_covers_space) holds iff the fan is valid, complete, and made of
    full-dimensional cones.  Completeness is read without _covers_once: a
    valid fan of full-dimensional cones is complete iff every wall lies in
    two cones and the cones are linked across their walls.  The per-cone
    checks come first in validate_fan too: without them the wall test
    passes, say, a 2D cone whose middle ray is not extremal.  `pairwise` is
    the fan's validate_fan_pairwise."""
    if set(range(len(fan.rays))) != set(itertools.chain.from_iterable(fan.max_cones)):
        return
    fan = _copy(fan)
    if not all(cone.is_strongly_convex() and cone.generators_extremal() for cone in fan.cones):
        return
    expected = (
        bool(fan.max_cones)
        and all(cone.dim == fan.rank for cone in fan.cones)
        and bool(pairwise)
        and all(len(ks) == 2 for ks in fan.wall_map.values())
        and _connected(len(fan.cones), {w: [k for k, _ in ks] for w, ks in fan.wall_map.items()})
    )
    assert _covers_space(_copy(fan)) == expected, fan


# --------------------------------------------------------------- fans


def _star(rays, cones, tau):
    """Star subdivision of the cones holding every ray of tau, inserting
    the primitive sum of tau's rays."""
    v = primitive(tuple(map(sum, zip(*(rays[i] for i in tau)))))
    if v in rays:
        return rays, cones
    rays = rays + [v]
    new = len(rays) - 1
    out = []
    for c in cones:
        if set(tau) <= set(c):
            out += [tuple(sorted((set(c) - {i}) | {new})) for i in tau]
        else:
            out.append(tuple(c))
    return rays, out


def _projective(n):
    fan = projective_space_fan(n)
    return list(fan.rays), list(fan.max_cones)


# rays in angular order, each about 72 degrees past the last, so that steps
# of two go round the origin twice in cones of 144 degrees
PENTAGON = [(1, 0), (1, 3), (-4, 3), (-4, -3), (1, -3)]
DOUBLE_COVER_2D = Fan.from_data(PENTAGON, [(i, (i + 2) % 5) for i in range(5)])
# its suspension: every wall matched and crossed, covering degree 2
DOUBLE_COVER_3D = Fan.from_data(
    [(x, y, 0) for x, y in PENTAGON] + [(0, 0, 1), (0, 0, -1)],
    [(i, (i + 2) % 5, pole) for i in range(5) for pole in (5, 6)],
)
# rays at about 0, 100, 50 and 200 degrees: every wall lies in two cones,
# but both cones at the ray (-1, 6) lie on the same side of it
FOLDED_2D = Fan.from_data([(1, 0), (-1, 6), (5, 6), (-3, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])

# a cycle of five 2D cones cone(r_i, r_i+1) in rank 3, every ray in two of
# them: the wall test alone passes it, but cone(r0, r1) and cone(r3, r4) do
# not meet in a common face
CROSSING_CYCLE = Fan.from_data(
    [(-1, -1, 0), (0, 1, 1), (1, -1, -1), (-1, 1, 0), (1, 0, 1)], [(i, (i + 1) % 5) for i in range(5)]
)


def _hanging_vertex(n, host=0, edge=(0, 1)):
    """P^n with one of the cones at a 2-face subdivided along it and the
    others not: the new ray hangs in a facet of the cones left whole."""
    rays, cones = _projective(n)
    c = cones[host]
    tau = (c[edge[0]], c[edge[1]])
    v = primitive(tuple(map(sum, zip(*(rays[i] for i in tau)))))
    rays = rays + [v]
    new = len(rays) - 1
    cones = cones[:host] + [tuple(sorted((set(c) - {i}) | {new})) for i in tau] + cones[host + 1 :]
    return Fan.from_data(rays, cones)


CUBE = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
CUBE_FACE_FAN = Fan.from_data(
    CUBE, [tuple(i for i, v in enumerate(CUBE) if v[axis] == s) for axis in range(3) for s in (-1, 1)]
)
CUBOCTAHEDRON_FACE_FAN = face_fan(
    Polytope.hull([p for p in itertools.product((-1, 0, 1), repeat=3) if sum(x * x for x in p) == 2])
)
HEXAGONAL_PRISM_FACE_FAN = face_fan(
    Polytope.hull([(x, y, z) for x, y in ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)) for z in (-1, 1)])
)
# the cube's top cone cut in two at the ray (1, 0, 1) on its edge x = z = 1,
# a triangle and a quadrilateral; the side cone x = 1 keeps that edge whole
CUBE_SPLIT_ON_ONE_SIDE = Fan.from_data(
    CUBE + [(1, 0, 1)],
    [c for c in CUBE_FACE_FAN.max_cones if c != (1, 3, 5, 7)] + [(8, 7, 3), (8, 3, 1, 5)],
)


def _random_face_fan(rng):
    """The face fan of a seeded 3D lattice polytope (6 to 12 points in
    [-2, 2]^3) with the origin inside and a facet that is not a triangle."""
    while True:
        P = Polytope.hull([tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.randint(6, 12))])
        if P.dim == 3 and P.contains_origin_interior() and any(len(m) > 3 for m, _, _ in P._facets):
            return face_fan(P)


NAMED = [
    ("P1", Fan.from_data([(1,), (-1,)], [(0,), (1,)])),
    ("half-line", Fan.from_data([(1,)], [(0,)])),
    ("line as one cone", Fan.from_data([(1,), (-1,)], [(0, 1)])),
    ("empty fan of rank 2", Fan((), (), 2)),
    *((f"P{n}", projective_space_fan(n)) for n in range(2, 5)),
    ("P(2,3,5)", weighted_projective_fan((2, 3, 5))),
    ("P(1,4,1,5)", weighted_projective_fan((1, 4, 1, 5))),
    *bundled_fans(),
    ("2D double cover", DOUBLE_COVER_2D),
    ("3D double cover", DOUBLE_COVER_3D),
    ("2D fold", FOLDED_2D),
    ("hanging vertex in P3", _hanging_vertex(3)),
    ("hanging vertex in P3, other cone", _hanging_vertex(3, host=2, edge=(1, 2))),
    ("hanging vertex in P4", _hanging_vertex(4, host=1)),
    ("P2 with an unused ray", Fan.from_data([(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (0, 2)])),
    ("P2 without a cone", Fan.from_data(projective_space_fan(2).rays, projective_space_fan(2).max_cones[1:])),
    ("P3 without a cone", Fan.from_data(projective_space_fan(3).rays, projective_space_fan(3).max_cones[:-1])),
    ("one quadrant", Fan.from_data([(1, 0), (0, 1)], [(0, 1)])),
    ("cone over the square", cone_over_square_fan()),
    ("face fan of the cube", CUBE_FACE_FAN),
    ("face fan of the cuboctahedron", CUBOCTAHEDRON_FACE_FAN),
    ("face fan of a hexagonal prism", HEXAGONAL_PRISM_FACE_FAN),
    ("face fan of the cube, one facet split on one side only", CUBE_SPLIT_ON_ONE_SIDE),
    ("overlapping quadrants", Fan.from_data([(1, 0), (0, 1), (1, 1), (-1, 1)], [(0, 1), (2, 3)])),
    ("five crossing 2D cones in rank 3", CROSSING_CYCLE),
    ("plane fan plus a ray", Fan.from_data([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)], [(0, 1), (1, 2), (0, 2), (3,)])),
]


@pytest.mark.parametrize("name,fan", NAMED, ids=[n for n, _ in NAMED])
def test_named_fans_get_the_pairwise_diagnostics(name, fan):
    fast, pairwise = _both(fan)
    assert fast == pairwise
    _accepts_exactly_the_valid_complete_fans(fan, pairwise)


def test_the_named_failures_are_the_ones_meant():
    named = dict(NAMED)
    for name in ("2D double cover", "3D double cover", "2D fold", "hanging vertex in P3", "hanging vertex in P4"):
        diag = validate_fan(_copy(named[name]))
        assert diag.problem == "cones do not intersect in a common face", name
    # every wall of the covers and the fold is matched; the hanging vertex's
    # is not; none of them covers the space exactly once
    for name in ("2D double cover", "3D double cover", "2D fold"):
        assert all(len(ks) == 2 for ks in _copy(named[name]).wall_map.values()), name
        assert not is_complete(_copy(named[name])), name
    assert any(len(ks) == 1 for ks in _copy(named["hanging vertex in P3"]).wall_map.values())
    for name in ("P1", "P3", "P(2,3,5)", "P3 without a cone", "face fan of the cube"):
        assert validate_fan(_copy(named[name])), name
    # the guard keeps lower-dimensional cones from the wall test, which
    # would pass the crossing cycle
    crossing = _copy(named["five crossing 2D cones in rank 3"])
    assert _covers_once(crossing.cones, crossing.wall_map) and not _covers_space(crossing)
    assert validate_fan(crossing).problem == "cones do not intersect in a common face"
    # rank 1: the walls accept P1, which covers the line once, but not the
    # half-line
    assert _covers_space(_copy(named["P1"]))
    assert not _covers_space(_copy(named["half-line"]))


def test_is_fano_needs_a_fan_covering_the_space_once():
    with pytest.raises(ValueError, match="must be complete"):
        is_fano(ToricVariety(_copy(DOUBLE_COVER_2D)))


# ------------------------------------------------------ random fans


def _random_fan(rng):
    """A seeded complete fan of rank 1 to 4 (P^n and its star
    subdivisions, random complete 2D fans, weighted projective fans, the
    cube's face fan), then up to two of (_perturbed): drop a cone, move a
    ray, hang a vertex in one cone, merge two cones into one, add a cone on
    random rays."""
    kind = rng.randrange(6)
    if kind == 0:
        n = rng.randint(1, 4)
        rays, cones = _projective(n)
    elif kind in (1, 2):
        rays, cones = _projective(rng.randint(2, 4))
        for _ in range(rng.randint(1, 8)):
            host = rng.choice(cones)
            rays, cones = _star(rays, cones, rng.sample(host, rng.randint(2, len(host))))
    elif kind == 3:
        fan = random_complete_2d_fan(rng)
        rays, cones = list(fan.rays), list(fan.max_cones)
    elif kind == 4:
        fan = weighted_projective_fan([rng.randint(1, 5) for _ in range(rng.randint(3, 4))] + [1])
        rays, cones = list(fan.rays), list(fan.max_cones)
    else:
        rays, cones = list(CUBE_FACE_FAN.rays), list(CUBE_FACE_FAN.max_cones)
    return _perturbed(rng, rays, cones)


def _perturbed(rng, rays, cones):
    """The fan on rays and cones after up to two of _random_fan's moves;
    None when two rays coincide."""
    n = len(rays[0])
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        move = rng.randrange(5)
        if move == 0 and len(cones) > 1:
            cones.pop(rng.randrange(len(cones)))
        elif move == 1:
            i = rng.randrange(len(rays))
            moved = tuple(x + rng.randint(-2, 2) for x in rays[i])
            if any(moved):
                rays[i] = primitive(moved)
        elif move == 2 and n >= 2:
            k = rng.randrange(len(cones))
            c = cones[k]
            tau = rng.sample(c, 2)
            v = tuple(map(sum, zip(*(rays[i] for i in tau))))
            if any(v) and primitive(v) not in rays:  # two opposite rays sum to zero
                rays.append(primitive(v))
                cones[k : k + 1] = [tuple(sorted((set(c) - {i}) | {len(rays) - 1})) for i in tau]
        elif move == 3 and len(cones) > 1:
            a, b = rng.sample(range(len(cones)), 2)
            merged = tuple(sorted(set(cones[a]) | set(cones[b])))
            cones = [c for k, c in enumerate(cones) if k not in (a, b)] + [merged]
        elif move == 4:
            cones.append(tuple(rng.sample(range(len(rays)), min(n, len(rays)))))
    if len(set(rays)) != len(rays):
        return None
    return Fan.from_data(rays, cones, rank=n)


def _verdict(fan, pairwise):
    """How validate_fan decides the fan: invalid, accepted by its walls
    (asked only of a valid fan, as validate_fan asks after the per-cone
    checks), or valid by the pairwise scan alone."""
    if not pairwise:
        return "invalid"
    return "accepted" if _covers_space(_copy(fan)) else "valid by pairs"


def test_seeded_fans_get_the_pairwise_diagnostics():
    rng = random.Random(13013)
    verdicts = {"accepted": 0, "valid by pairs": 0, "invalid": 0}
    ranks = set()
    for _ in range(400):
        fan = _random_fan(rng)
        if fan is None:
            continue
        ranks.add(fan.rank)
        fast, pairwise = _both(fan)
        assert fast == pairwise, fan
        _accepts_exactly_the_valid_complete_fans(fan, pairwise)
        verdicts[_verdict(fan, pairwise)] += 1
    assert ranks == {1, 2, 3, 4}
    assert all(v >= 30 for v in verdicts.values()), verdicts


def test_random_fans_skip_a_vertex_between_opposite_rays():
    # these seeds draw a hanging vertex on two opposite rays, whose sum
    # has no primitive representative
    for seed, draws in ((13014, 38), (13027, 114)):
        rng = random.Random(seed)
        for _ in range(draws):
            _random_fan(rng)


def test_seeded_face_fans_get_the_pairwise_diagnostics():
    """Face fans of seeded 3D lattice polytopes, each with a facet that is
    not a triangle, as they are and after _random_fan's moves: the walls
    accept the valid complete ones, with the pairwise Diagnostics."""
    rng = random.Random(35035)
    verdicts = {"accepted": 0, "valid by pairs": 0, "invalid": 0}
    for _ in range(150):
        base = _random_face_fan(rng)
        fan = _perturbed(rng, list(base.rays), list(base.max_cones))
        if fan is None:
            continue
        fast, pairwise = _both(fan)
        assert fast == pairwise, fan
        _accepts_exactly_the_valid_complete_fans(fan, pairwise)
        verdicts[_verdict(fan, pairwise)] += 1
    assert verdicts["accepted"] >= 50 and verdicts["invalid"] >= 30 and verdicts["valid by pairs"] >= 5, verdicts


def test_seeded_refinements_of_projective_space_match_the_scan():
    """is_refinement onto P^n equals the per-cone scan on every fine fan
    valid by pairs.  On any fan it implies the scan: cones covering a coarse
    cone once are linked across their walls.  An invalid fan can still
    cover each coarse cone once, when its cones miss each other's faces
    only across a coarse wall (a hanging vertex there)."""
    rng = random.Random(21021)
    verdicts = {}
    for _ in range(200):
        fan = _random_fan(rng)
        if fan is None:
            continue
        coarse = projective_space_fan(fan.rank)
        got, scan = is_refinement(_copy(fan), coarse), is_refinement_scan(_copy(fan), coarse)
        assert scan or not got, fan
        valid = bool(validate_fan_pairwise(_copy(fan)))
        if valid:
            assert got == scan, fan
        verdicts[got, valid] = verdicts.get((got, valid), 0) + 1
    assert all(verdicts.get(k, 0) >= 10 for k in ((True, True), (False, True), (False, False))), verdicts


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_hypothesis_fans_get_the_pairwise_diagnostics(rnd):
    fan = _random_fan(rnd)
    if fan is None:
        return
    fast, pairwise = _both(fan)
    assert fast == pairwise, fan
    _accepts_exactly_the_valid_complete_fans(fan, pairwise)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 3).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(-3, 3)] * n).filter(any), min_size=n, max_size=6, unique=True)
    ),
    st.randoms(use_true_random=False),
)
def test_hypothesis_arbitrary_simplicial_cones(rays, rnd):
    # cones on random rank-sized subsets of random rays: mostly invalid,
    # overlapping or non-complete, sometimes a fan
    rays = list(dict.fromkeys(primitive(r) for r in rays))
    n = len(rays[0])
    if len(rays) < n:
        return
    subsets = list(itertools.combinations(range(len(rays)), n))
    cones = rnd.sample(subsets, rnd.randint(1, min(len(subsets), 8)))
    fan = Fan.from_data(rays, cones, rank=n)
    fast, pairwise = _both(fan)
    assert fast == pairwise, fan
    _accepts_exactly_the_valid_complete_fans(fan, pairwise)
