"""Fan answers do not depend on the lattice basis: every ray of both sides
moved by one seeded g in GL(3, Z), a product of elementary matrices with
entries up to 10^6 times a signed permutation, leaves validate_fan,
is_complete and is_refinement as they were.  The moved side is built by
Fan(...), so the two sides share no object and no cached cone data; its
coordinates reach about 10^24, far past any brute-force oracle."""

import random

from toriclab.fan import Fan, is_complete, is_refinement, star_subdivision, validate_fan
from toriclab.toric import projective_space_fan

from test_walls import (
    CUBE_FACE_FAN,
    CUBE_SPLIT_ON_ONE_SIDE,
    CUBOCTAHEDRON_FACE_FAN,
    HEXAGONAL_PRISM_FACE_FAN,
    _perturbed,
    _random_face_fan,
)


def _gl3z(rng, factors=4, size=10**6):
    """A seeded g in GL(3, Z): `factors` elementary matrices, each adding
    c times one row to another with |c| <= size, then a signed permutation
    of the rows."""
    g = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(factors):
        i, j = rng.sample(range(3), 2)
        c = rng.randint(-size, size)
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    order, signs = rng.sample(range(3), 3), [rng.choice((1, -1)) for _ in range(3)]
    return [[sign * x for x in g[k]] for k, sign in zip(order, signs)]


def _moved(fan, g):
    """The fan with every ray moved by g, as a new object."""
    return Fan([tuple(sum(a * b for a, b in zip(row, r)) for row in g) for r in fan.rays], fan.max_cones, fan.rank)


def _answers(fan):
    try:
        complete = is_complete(fan)
    except ValueError:  # a maximal cone that is not full-dimensional
        complete = None
    return validate_fan(fan).valid, complete


def test_validity_and_completeness_follow_gl3z():
    # the named non-simplicial fans, 20 seeded non-simplicial face fans,
    # and each of those after _random_fan's moves, mostly invalid
    rng = random.Random(11035)
    fans = [CUBE_FACE_FAN, CUBOCTAHEDRON_FACE_FAN, HEXAGONAL_PRISM_FACE_FAN, CUBE_SPLIT_ON_ONE_SIDE]
    fans += [_random_face_fan(rng) for _ in range(20)]
    fans += [_perturbed(rng, list(fan.rays), list(fan.max_cones)) for fan in fans]
    seen = set()
    for fan in filter(None, fans):
        g = _gl3z(rng)
        moved = _moved(fan, g)
        assert max(abs(x) for r in moved.rays for x in r) > 10**6
        answers = _answers(Fan(fan.rays, fan.max_cones, fan.rank))
        assert _answers(moved) == answers, (fan, g)
        seen.add(answers)
    assert {(True, True), (False, False), (True, False)} <= seen, seen


def test_refinements_of_p3_follow_gl3z():
    rng = random.Random(31035)
    p3 = projective_space_fan(3)
    for _ in range(3):
        fine = p3
        for _ in range(rng.randint(2, 5)):
            c = rng.choice(fine.max_cones)
            fine = star_subdivision(fine, rng.sample(c, rng.randint(1, len(c))))
        g = _gl3z(rng)
        moved_fine, moved_p3 = _moved(fine, g), _moved(p3, g)
        assert is_refinement(moved_fine, moved_p3) and is_refinement(fine, p3)
        assert not is_refinement(moved_p3, moved_fine) and not is_refinement(p3, fine)
