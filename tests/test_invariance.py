"""Answers do not depend on the lattice basis: every ray of both sides
moved by one seeded g in GL(n, Z), a product of elementary matrices with
entries up to 10^6 times a signed permutation, leaves validate_fan,
is_complete and is_refinement as they were, and on pairs the singularity
type, the index, the log CY test, the complexity of the decomposition by
primes and psi, read at v on one side and at g.v on the other.  The moved
side is built by Fan(...), so the two sides share no object and no cached
cone data, and pairs._psi is cleared between the sides; its coordinates
reach about 10^24, far past any brute-force oracle.  The seeded g take
both signs of det(g), so the seeds' determinant (Cone._echelon) changes sign
on some moves."""

import os
import random
from fractions import Fraction

from toriclab import pairs
from toriclab.catalog import bundled_fans
from toriclab.complexity import complexity, decomposition_by_primes
from toriclab.fan import Fan, is_complete, is_refinement, star_subdivision, validate_fan
from toriclab.fileformats import parse_pair
from toriclab.lattice import primitive
from toriclab.pairs import ToricPair, index, is_log_cy, log_discrepancy, singularity_type
from toriclab.toric import projective_space_fan

from oracles import det_bareiss
from test_walls import (
    CUBE_FACE_FAN,
    CUBE_SPLIT_ON_ONE_SIDE,
    CUBOCTAHEDRON_FACE_FAN,
    HEXAGONAL_PRISM_FACE_FAN,
    _perturbed,
    _random_face_fan,
)

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")


def _glnz(rng, n, factors=4, size=10**6):
    """A seeded g in GL(n, Z): `factors` elementary matrices, each adding
    c times one row to another with |c| <= size (none when n = 1), then a
    signed permutation of the rows."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(factors if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-size, size)
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    order, signs = rng.sample(range(n), n), [rng.choice((1, -1)) for _ in range(n)]
    return [[sign * x for x in g[k]] for k, sign in zip(order, signs)]


def _apply(g, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in g)


def _moved(fan, g):
    """The fan with every ray moved by g, as a new object."""
    return Fan([_apply(g, r) for r in fan.rays], fan.max_cones, fan.rank)


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
        g = _glnz(rng, 3)
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
        g = _glnz(rng, 3)
        moved_fine, moved_p3 = _moved(fine, g), _moved(p3, g)
        assert is_refinement(moved_fine, moved_p3) and is_refinement(fine, p3)
        assert not is_refinement(moved_p3, moved_fine) and not is_refinement(p3, fine)


# ------------------------------------------------------------------ pairs


def _moved_pair(pair, g):
    """The pair with every ray moved by g, on a new Fan(...): each
    coefficient follows its ray into the moved fan's sorted order."""
    fan = _moved(pair.fan, g)
    at = {r: i for i, r in enumerate(fan.rays)}
    boundary = [Fraction(0)] * len(fan.rays)
    for r, b in zip(pair.fan.rays, pair.boundary):
        boundary[at[_apply(g, r)]] = b
    return ToricPair.from_fan(fan, boundary)


def _points(rng, fan, k=4):
    """The rays, and k primitive points, each a positive combination of
    one maximal cone's rays: all in the support."""
    points = list(fan.rays)
    for _ in range(k):
        weighted = [[rng.randint(1, 5) * x for x in fan.rays[i]] for i in rng.choice(fan.max_cones)]
        points.append(primitive(tuple(map(sum, zip(*weighted)))))
    return points


def _pair_answers(pair, points):
    """singularity_type, index, is_log_cy, the complexity of the
    decomposition by primes and psi at the points, each an answer or the
    ValueError it raises, after clearing the psi cache."""
    pairs._psi.cache_clear()
    out = []
    for ask in (
        singularity_type,
        index,
        is_log_cy,
        lambda p: complexity(p, decomposition_by_primes(p)),
        *(lambda p, v=v: log_discrepancy(p, v) for v in points),
    ):
        try:
            out.append(ask(pair))
        except ValueError as e:
            out.append(("ValueError", str(e)))
    return out


def _check_moves(rng, pair, moves=1):
    """The pair's answers, each equal on `moves` seeded moves of it; the
    signs of det(g) seen."""
    pair = ToricPair.from_fan(Fan(pair.fan.rays, pair.fan.max_cones, pair.fan.rank), pair.boundary)
    points = _points(rng, pair.fan)
    answers = _pair_answers(pair, points)
    signs = set()
    for _ in range(moves):
        g = _glnz(rng, pair.fan.rank)
        signs.add(det_bareiss(g))
        assert _pair_answers(_moved_pair(pair, g), [_apply(g, v) for v in points]) == answers, (pair, g)
    return answers, signs


def test_sample_pairs_follow_glnz():
    rng = random.Random(11036)
    names = sorted(name for name in os.listdir(SAMPLES) if name.endswith(".pair"))
    assert len(names) == 4
    seen, signs = set(), set()
    for name in names:
        with open(os.path.join(SAMPLES, name), encoding="utf-8") as fh:
            pair = parse_pair(fh.read(), SAMPLES)
        answers, more = _check_moves(rng, pair, moves=3)
        seen.add(answers[0])
        signs |= more
    assert signs == {1, -1} and seen == {"lc"}, (signs, seen)


def test_catalogue_fans_with_their_reduced_boundary_follow_glnz():
    rng = random.Random(21036)
    signs = set()
    for _, fan in bundled_fans():
        answers, more = _check_moves(rng, ToricPair.reduced(fan))
        assert answers[:3] == ["lc", 1, True], (fan, answers)
        signs |= more
    assert signs == {1, -1}


def _seeded_qcartier_pair(rng):
    """A pair of rank 2 or 3 with K+B Q-Cartier: a catalogue fan of that
    rank, star subdivided up to twice, or the affine fan of one of its
    maximal cones, with coefficients in [0, 1] and now and then one of
    them above 1.  Every such fan is simplicial, so every boundary on it
    is Q-Cartier, and on an affine fan every boundary with coefficients
    at most 1 is log CY."""
    rank = rng.choice((2, 3))
    fan = rng.choice([fan for _, fan in bundled_fans() if fan.rank == rank])
    for _ in range(rng.randint(0, 2)):
        c = rng.choice(fan.max_cones)
        fan = star_subdivision(fan, rng.sample(c, rng.randint(1, len(c))))
    if rng.random() < 0.3:
        fan = Fan([fan.rays[i] for i in rng.choice(fan.max_cones)], [tuple(range(fan.rank))], fan.rank)
    boundary = [Fraction(rng.randint(0, 6), 6) for _ in fan.rays]
    if rng.random() < 0.1:
        boundary[rng.randrange(len(boundary))] = Fraction(7, 6)
    return ToricPair.from_fan(fan, boundary)


def test_seeded_qcartier_pairs_follow_glnz():
    rng = random.Random(31036)
    seen, signs = set(), set()
    for _ in range(60):
        pair = _seeded_qcartier_pair(rng)
        answers, more = _check_moves(rng, pair)
        seen.add((pair.fan.rank, answers[0], answers[2]))
        signs |= more
    assert signs == {1, -1}
    for rank in (2, 3):
        assert {(rank, "klt", False), (rank, "klt", True), (rank, "lc", False), (rank, "not-lc", False)} <= seen, seen
    assert {(2, "terminal", True), (3, "terminal", False), (3, "canonical", True), (3, "lc", True)} <= seen, seen
