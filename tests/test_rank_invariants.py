"""Complexity and the log Calabi-Yau test read off ranks of the ray matrix,
against the class-group formulas they replaced (tests/oracles.py); and the
class group, read off the cached presentation, against the cokernel of the
ray matrix and against gcds of its minors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toriclab import complexity as complexity_module, fan as fan_module, pairs as pairs_module
from toriclab.catalog import bundled_fans, cone_over_square_fan
from toriclab.complexity import Decomposition, complexity, decomposition_by_primes
from toriclab.fan import Fan
from toriclab.lattice import vdot
from toriclab.pairs import ToricPair, is_log_cy
from toriclab.toric import ToricVariety, class_group, weighted_projective_fan

from oracles import (
    coefficient_vector,
    cokernel_structure,
    complexity_rho_class_group,
    is_log_cy_class_group,
    primitive_distinct,
    random_complete_2d_fan,
)

FANS = [
    ("two rays in Z^3", Fan.from_data([(1, 0, 0), (0, 1, 0)], [(0, 1)])),
    ("one ray in Z^2", Fan.from_data([(1, 2)], [(0,)])),
    ("cone over the square", cone_over_square_fan()),
    ("P(1,4,1,5)", weighted_projective_fan((1, 4, 1, 5))),
    ("P(1,1,2)", weighted_projective_fan((1, 1, 2))),
    ("P(2,3,5)", weighted_projective_fan((2, 3, 5))),
    ("P2/mu3", Fan.from_data([(2, -1), (-1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)])),
    (
        "plane fan plus a ray",
        Fan.from_data([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)], [(0, 1), (1, 2), (0, 2), (3,)]),
    ),
    *bundled_fans(),
]


def _decomposition(rng, n):
    """Up to three parts with random supports and weights, none at all
    sometimes; the pair is then built from its coefficient vector."""
    parts = []
    for _ in range(rng.randrange(4)):
        support = rng.sample(range(n), rng.randint(1, n))
        parts.append((Fraction(rng.randint(0, 4), rng.randint(1, 4)), support))
    return Decomposition.of(parts)


def _boundaries(rng, fan):
    """Reduced and zero boundaries, then Q-Cartier ones b_i = 1 - <m, u_i>
    (log CY exactly when every b_i <= 1), random ones at most 1 (which a
    non-simplicial cone may reject as not Q-Cartier) and random ones."""
    n = len(fan.rays)
    yield [1] * n
    yield [0] * n
    for _ in range(6):
        m = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(fan.rank)]
        vals = [vdot(m, u) for u in fan.rays]
        top = max(max(vals), 1)
        yield [1 - v / top for v in vals]
        yield [Fraction(rng.randint(0, 4), 4) for _ in range(n)]
        yield [Fraction(rng.randint(0, 6), rng.randint(1, 5)) for _ in range(n)]


def _check_complexity(pair, decomposition):
    report = complexity(pair, decomposition)
    assert report.rho == complexity_rho_class_group(pair, decomposition), (pair.fan.rays, decomposition)
    return report.rho


def _check_log_cy(pair):
    """The verdict both formulas give, or "raises" when both raise the
    same ValueError (K+B not Q-Cartier)."""
    try:
        want = is_log_cy_class_group(pair)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            is_log_cy(pair)
        assert str(got.value) == str(e)
        return "raises"
    assert is_log_cy(pair) == want, (pair.fan.rays, pair.boundary)
    return want


def _check_fan(fan, rng):
    seen = set()
    n = len(fan.rays)
    for _ in range(6):
        dec = _decomposition(rng, n)
        _check_complexity(ToricPair.from_fan(fan, coefficient_vector(dec, n)), dec)
    for boundary in _boundaries(rng, fan):
        pair = ToricPair.from_fan(fan, boundary)
        _check_complexity(pair, decomposition_by_primes(pair))
        seen.add(_check_log_cy(pair))
    return seen


@pytest.mark.parametrize("name,fan", FANS, ids=[n for n, _ in FANS])
def test_named_fans_match_the_class_group_formulas(name, fan):
    _check_fan(fan, random.Random(name))


def test_seeded_fans_reach_every_verdict():
    rng = random.Random(20261018)
    seen = set()
    for name, fan in FANS:
        seen |= _check_fan(fan, rng)
    for _ in range(40):
        seen |= _check_fan(random_complete_2d_fan(rng), rng)
    assert seen == {True, False, "raises"}


def test_edge_cases():
    two_rays = ToricPair.reduced(FANS[0][1])  # two rays in Z^3: Cl tensor Q = 0
    assert _check_complexity(two_rays, decomposition_by_primes(two_rays)) == 0
    assert _check_log_cy(two_rays) is True  # K+B = 0
    assert _check_log_cy(ToricPair.from_fan(two_rays.fan, [0, 0])) is True  # K = div(chi^(-1, -1, 0))
    empty = ToricPair.from_fan(weighted_projective_fan((1, 1, 2)), [0, 0, 0])
    for dec in (decomposition_by_primes(empty), Decomposition.of([])):
        assert dec.parts == ()
        assert _check_complexity(empty, dec) == 0
    assert _check_log_cy(empty) is False
    square = ToricPair.from_fan(cone_over_square_fan(), [0, 1, 0, 0])
    assert _check_log_cy(square) == "raises"
    with pytest.raises(ValueError, match="Q-Cartier"):
        is_log_cy(square)
    assert _check_log_cy(ToricPair.reduced(cone_over_square_fan())) is True


def test_rank_of_the_ray_matrix_is_taken_once_per_fan(monkeypatch, count_calls):
    # where some maximal cone has a dual basis, rank R is the ambient rank
    # and the log CY test reads the psi record, and complexity deletes the
    # columns of singleton parts: on P(1,2,3) a pair that is positive on
    # every ray takes no elimination at all, and one with b = 0 on a ray
    # one, on that ray's column.  With no full-dimensional maximal cone R
    # is still ranked once per fan, and [R | A(1 - b)] once per pair.
    p123 = Fan.from_data([(1, 0), (0, 1), (-2, -3)], [(0, 1), (1, 2), (0, 2)])
    flat = Fan.from_data([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)], [(0, 1), (1, 2), (0, 2), (3,)])
    cases = [
        (ToricPair.reduced(p123), []),
        (ToricPair.from_fan(p123, [Fraction(1, 2), 1, Fraction(1, 3)]), []),
        (ToricPair.from_fan(p123, [Fraction(1, 2), 1, 0]), ["complexity"]),
        (ToricPair.reduced(flat), ["fan", "pairs"]),
        (ToricPair.from_fan(flat, [Fraction(1, 2), Fraction(1, 3), 1, Fraction(2, 5)]), ["pairs"]),
        (ToricPair.from_fan(flat, [0, Fraction(1, 3), 1, 1]), ["complexity", "pairs"]),
    ]
    calls = count_calls("matrix_rank", fan_module, complexity_module, pairs_module)
    for pair, want in cases:
        calls.clear()
        report = complexity(pair, decomposition_by_primes(pair))
        verdict = is_log_cy(pair)
        assert sorted(call.owner.__name__.rsplit(".", 1)[1] for call in calls) == want, (pair.fan.rays, pair.boundary)
        assert report.rho == complexity_rho_class_group(pair, decomposition_by_primes(pair))
        assert verdict == is_log_cy_class_group(pair)
    monkeypatch.undo()
    assert p123.ray_rank == 2 and flat.ray_rank == 3 and Fan.from_data([], [], rank=3).ray_rank == 0


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.integers(2, 4))
def test_hypothesis_pairs_match_the_class_group_formulas(rnd, rank):
    if rnd.random() < 0.3:
        fan = random_complete_2d_fan(rnd)
    else:
        gens = primitive_distinct(
            [tuple(rnd.randint(-3, 3) for _ in range(rank)) for _ in range(rnd.randint(1, rank + 2))]
        )
        if not gens:
            return
        # one cone on all the generators, or one cone per generator
        cones = [tuple(range(len(gens)))] if rnd.random() < 0.7 else [(i,) for i in range(len(gens))]
        fan = Fan.from_data(gens, cones)
    _check_fan(fan, rnd)


def test_class_group_matches_the_cokernel_on_seeded_ray_matrices():
    rng = random.Random(11)
    for _ in range(150):
        rank = rng.randint(1, 4)
        rays = primitive_distinct([tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(rng.randint(1, 6))])
        if not rays:
            continue
        fan = Fan.from_data(rays, [(i,) for i in range(len(rays))])
        want = cokernel_structure(fan.rays, rank)
        assert class_group(ToricVariety(fan)) == want, rays
    for name, fan in FANS:
        assert class_group(ToricVariety(fan)) == cokernel_structure(fan.rays, fan.rank), name
