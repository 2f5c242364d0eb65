"""The pair's integers from construction (ToricPair.A and alpha = A(1 - b))
against the Fraction tests they replace, the maximal cones Fan.cones
builds without re-normalising them, and count guards on both and on the
psi pieces a pair command solves."""

import contextlib
import io
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toriclab import pairs as pairs_module
from toriclab.catalog import bundled_fans, cone_over_square_fan
from toriclab.cli import main
from toriclab.complexity import Decomposition, complexity, decomposition_by_primes
from toriclab.fan import Cone, Diagnostics, Fan
from toriclab.pairs import (
    ToricPair,
    _psi,
    index,
    is_log_cy,
    log_discrepancy,
    singularity_type,
    standard_pair,
    validate_pair,
)
from toriclab.polytope import Polytope
from toriclab.toric import local_functionals, projective_space_fan, weighted_projective_fan

from oracles import coefficient_vector, primitive_distinct, random_complete_2d_fan

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")

NAMED = [
    cone_over_square_fan(),
    weighted_projective_fan((2, 3, 5)),
    Fan.from_data([(2, -1), (-1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
    Fan.from_data([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)], [(0, 1), (1, 2), (0, 2), (3,)]),
    Fan.from_data([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 0)], [(0, 1, 2, 3), (0, 1, 4)]),
    Fan.from_data([(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2)]),
    *(fan for _, fan in bundled_fans()),
]


def _seeded_fans(rng, count):
    for _ in range(count):
        yield random_complete_2d_fan(rng, max_rays=7, coord=4)
        gens = primitive_distinct([tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(3, 5))])
        if gens:
            yield Fan.from_data(gens, [tuple(range(len(gens)))])
        hull = Polytope.hull([(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(5)], rank=2)
        if len(hull.vertices) >= 3:
            yield Fan.from_data([(int(x), int(y), 1) for x, y in hull.vertices], [tuple(range(len(hull.vertices)))])


# ------------------------------------------------------------ trusted cones


def _assert_cones_normal(fan):
    for c, cone in zip(fan.max_cones, fan.cones, strict=True):
        built = Cone(tuple(fan.rays[i] for i in c), fan.rank)
        assert cone == built and hash(cone) == hash(built)
        assert cone.generators == built.generators and cone.rank == built.rank
        assert cone == fan.cone(c) == Cone.from_generators([fan.rays[i] for i in reversed(c)], fan.rank)


def test_trusted_cones_equal_constructed_cones():
    for fan in NAMED:
        _assert_cones_normal(fan)
    for fan in _seeded_fans(random.Random(20261018), 20):
        _assert_cones_normal(fan)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.integers(2, 4))
def test_hypothesis_trusted_cones_equal_constructed_cones(rnd, rank):
    gens = primitive_distinct([tuple(rnd.randint(-3, 3) for _ in range(rank)) for _ in range(rnd.randint(1, 7))])
    if not gens:
        return
    # unsorted, non-primitive input: the fan sorts its rays and remaps the cones
    rays = [tuple(rnd.randint(1, 3) * x for x in g) for g in gens]
    cones = {tuple(rnd.sample(range(len(rays)), rnd.randint(1, len(rays)))) for _ in range(rnd.randint(1, 4))}
    _assert_cones_normal(Fan.from_data(rays, sorted(cones)))


def test_fan_cones_run_no_cone_post_init(count_calls):
    calls = count_calls("__post_init__", Cone)
    fans = [Fan.from_data(f.rays, f.max_cones, f.rank) for f in NAMED]  # fresh fans, nothing cached
    for fan in fans:
        assert len(fan.cones) == len(fan.max_cones)
    assert calls == []
    fans[0].cone(fans[0].max_cones[0])
    assert len(calls) == 1  # the guard sees a constructor that does run


def test_fan_from_data_converts_entries_once():
    fan = Fan.from_data([("2", 0), (0, True), [-1, -1]], [("0", 1), (1, 2), [0, 2.0]])
    assert fan == Fan.from_data([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    assert all(type(x) is int for r in fan.rays for x in r)
    assert all(type(i) is int for c in fan.max_cones for i in c)
    with pytest.raises(ValueError, match="^zero ray$"):
        Fan.from_data([("0", 0)], [(0,)])


# ------------------------------------------------------- the pair's integers

COEFFICIENTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2)]),
    st.fractions(min_value=0, max_value=3, max_denominator=12),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(COEFFICIENTS, min_size=2, max_size=5))
def test_alpha_signs_match_the_fraction_comparisons(boundary):
    pair = ToricPair.from_fan(projective_space_fan(len(boundary) - 1), boundary)
    assert pair.boundary == tuple(boundary)
    assert pair.A == math.lcm(*(b.denominator for b in boundary))
    assert pair.alpha == tuple(pair.A * (1 - b) for b in boundary)
    for b, a in zip(boundary, pair.alpha):
        assert (a < 0) == (b > 1) and (a == 0) == (b == 1) and (b > 0) == bool(b)
    # the readers of alpha: not lc / not log CY exactly when some b > 1
    assert (singularity_type(pair) == "not-lc") == any(b > 1 for b in boundary)
    if any(b > 1 for b in boundary):
        assert is_log_cy(pair) is False
    elif singularity_type(pair) != "lc":
        assert all(b < 1 for b in boundary)
    assert decomposition_by_primes(pair).parts == tuple((b, frozenset({i})) for i, b in enumerate(boundary) if b > 0)
    report = complexity(pair, decomposition_by_primes(pair))
    assert report.norm == sum(boundary) and report.c == pair.dim + report.rho - sum(boundary)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(COEFFICIENTS, min_size=3, max_size=3), st.lists(COEFFICIENTS, min_size=1, max_size=4), st.randoms())
def test_complexity_mismatch_matches_the_fraction_sums(boundary, weights, rnd):
    pair = ToricPair.from_fan(projective_space_fan(2), boundary)
    parts = [(w, rnd.sample(range(3), rnd.randint(1, 3))) for w in weights]
    dec = Decomposition.of(parts)
    sums = coefficient_vector(dec, 3)
    wrong = [i for i in range(3) if sums[i] != boundary[i]]
    if wrong:
        i = wrong[0]
        message = f"decomposition mismatch at ray {pair.fan.rays[i]}: sums to {sums[i]}, boundary has {boundary[i]}"
        with pytest.raises(ValueError) as err:
            complexity(pair, dec)
        assert str(err.value) == message
    else:
        assert complexity(pair, dec).norm == sum(w for w, _ in parts)


def test_effectivity_is_read_off_the_numerators():
    with pytest.raises(ValueError, match="^boundary must be effective$"):
        ToricPair.from_fan(projective_space_fan(2), [1, Fraction(-1, 3), 0])
    pair = ToricPair.from_fan(projective_space_fan(2), ["0", 0.5, Fraction(4, 3)])
    assert (pair.A, pair.alpha) == (6, (6, 3, -2))
    assert pair.boundary == (0, Fraction(1, 2), Fraction(4, 3))
    assert all(type(b) is Fraction for b in pair.boundary)


def test_negative_ray_indices_are_rejected():
    pair = standard_pair(2)
    for bad in (-1, -3, 3):
        dec = Decomposition.of([(1, (0,)), (1, (1,)), (1, (bad,))])
        with pytest.raises(ValueError, match="^part mentions a ray index outside the fan$"):
            complexity(pair, dec)
        with pytest.raises(ValueError, match="^part mentions a ray index outside the fan$"):
            coefficient_vector(dec, 3)
    assert complexity(pair, Decomposition.of([(1, (0,)), (1, (1,)), (1, (2,))])).c == 0


def _validate_pair_pieces(pair):
    """validate_pair as it read the Fraction pieces of toric.local_functionals."""
    pieces = local_functionals(pair.fan, [1 - b for b in pair.boundary])
    for c, m in zip(pair.fan.max_cones, pieces):
        if m is None:
            return Diagnostics(False, "K+B is not Q-Cartier on a maximal cone", (c,))
    return Diagnostics(True)


def test_validate_pair_matches_the_fraction_pieces():
    rng = random.Random(20261019)
    seen = set()
    for fan in [*NAMED, *_seeded_fans(rng, 10)]:
        for _ in range(4):
            boundary = [rng.choice((0, 1, Fraction(1, 2), Fraction(2, 3), Fraction(5, 2))) for _ in fan.rays]
            pair = ToricPair.from_fan(fan, boundary)
            got, want = validate_pair(pair), _validate_pair_pieces(pair)
            assert (got.valid, got.problem, got.witness) == (want.valid, want.problem, want.witness)
            seen.add(got.valid)
    assert seen == {True, False}


# ----------------------------------------------------------- count guards


def test_pair_queries_build_few_fractions(monkeypatch, count_calls):
    """Library Fraction constructions per pair query (the five readers of
    one fresh pair) stay below 5; the pairs are built from Fractions
    before counting starts."""
    rng = random.Random(20261020)
    queries = []
    for fan in [*NAMED[:8], *_seeded_fans(rng, 10)]:
        for _ in range(3):
            boundary = [Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in fan.rays]
            point = tuple(rng.randint(-2, 2) for _ in range(fan.rank))
            queries.append((ToricPair.from_fan(fan, boundary), point if math.gcd(*point) == 1 else None))
    _psi.cache_clear()
    made = count_calls("__new__", Fraction)
    for pair, point in queries:
        for f in (singularity_type, is_log_cy, index, lambda p: complexity(p, decomposition_by_primes(p))):
            try:
                f(pair)
            except ValueError:
                pass
        if point is not None:
            try:
                log_discrepancy(pair, point)
            except ValueError:
                pass
    monkeypatch.undo()
    assert len(made) < 5 * len(queries)


def test_pair_classify_solves_each_maximal_cone_once(count_calls):
    """A cold `pair classify` on a sample pair solves one psi piece per
    maximal cone: validating the file builds the psi record that the
    queries then read."""
    calls = count_calls("_scaled_piece", pairs_module)
    solved = {}
    for name in sorted(n for n in os.listdir(SAMPLES) if n.endswith(".pair")):
        _psi.cache_clear()
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["pair", "classify", os.path.join(SAMPLES, name)]) == 0
        solved[name] = len(calls)
    assert solved == {"p1xp1_boundary.pair": 4, "p2_boundary.pair": 3, "p3_boundary.pair": 4, "wp112_boundary.pair": 3}
