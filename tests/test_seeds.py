"""A cone's seeds (Cone.seeds, from the one echelon the double description
seeds from) and the readers they serve: the dimension, the dual basis and
the linear piece on every full-dimensional cone, strongly convex or not
(toric._scaled_piece), against the Smith chart that read the pieces before
(oracles.scaled_piece_smith) and the solves of tests/oracles.py.  Pieces
are compared as Fractions, never by their scale L.  Also count guards on
Smith forms and ranks, and the triangulation of a cone with a line."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toriclab import fan as fan_module, lattice, pairs
from toriclab.catalog import cone_over_square_fan
from toriclab.fan import Cone, Fan
from toriclab.lattice import vdot
from toriclab.pairs import ToricPair, index, is_log_cy, singularity_type, validate_pair
from toriclab.toric import ToricVariety, _scaled_piece, is_cartier, is_qcartier, local_functionals

from oracles import is_log_cy_rank, local_functionals_solve, primitive_distinct, row_echelon, scaled_piece_smith
from test_solve_chart import _affine, _boundary, _check_cartier, _check_index, _check_pieces, _values
from test_triangulation import _point_set

HEXAGON = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 1), (-1, -1, 1)]
SQUARE = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]

# full-dimensional cones that are not strongly convex: no triangulation
WITH_A_LINE = [
    ("half-plane", [(1, 0), (0, 1), (-1, 0)]),
    ("whole plane", [(1, 0), (-1, 0), (0, 1), (0, -1)]),
    ("3D cone with a line", [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)]),
]
FULL = [("cone over the square", SQUARE), ("cone over the hexagon", HEXAGON), *WITH_A_LINE]


def _fractions(L, lm):
    return None if lm is None else tuple(Fraction(x, L) for x in lm)


def _check_seeds(cone):
    """The seeds are dim independent generators in pivot order, each h_s
    worth last on its own seed and 0 on the others."""
    last, seeds = cone.seeds
    gens = cone.generators
    assert len(seeds) == cone.dim == len(row_echelon(gens, cone.rank)[1])
    assert [s for s, _ in seeds] == sorted({s for s, _ in seeds})
    for s, h in seeds:
        assert all(vdot(h, gens[t]) == (last if t == s else 0) for t, _ in seeds), (gens, s)
    if len(gens) == cone.dim == cone.rank:  # the dual basis: every generator a seed
        assert [s for s, _ in seeds] == list(range(len(gens)))


def _check_cone(gens, rng):
    """The seeds, the piece of a full-dimensional cone against the Smith
    chart, and every answer read from it on the cone's affine fan against
    the solves."""
    fan = _affine(gens)
    cone = fan.cones[0]
    _check_seeds(cone)
    for _ in range(4):
        values = _values(rng, fan)
        scale = math.lcm(*(v.denominator for v in values))
        a = [int(v * scale) for v in values]
        fresh = Cone(cone.generators, cone.rank)  # so the oracle's chart warms no cone under test
        got = _fractions(*_scaled_piece(cone, a))
        assert got == _fractions(*scaled_piece_smith(fresh, a)), (gens, a)
        _check_pieces(fan, values, rng)
        X = ToricVariety(fan)
        D = [rng.randint(-3, 3) for _ in fan.rays]
        assert is_qcartier(X, D) == all(m is not None for m in local_functionals_solve(fan, [-d for d in D]))
        _check_cartier(fan, rng)
        boundary = _boundary(rng, fan)
        _check_index(fan, boundary)
        pair = ToricPair.from_fan(fan, boundary)
        try:
            want = is_log_cy_rank(pair)
        except ValueError:
            with pytest.raises(ValueError, match="Q-Cartier"):
                is_log_cy(pair)
        else:
            assert is_log_cy(pair) == want, (gens, boundary)
    return cone


# ------------------------------------------------------------- the seeds


def test_a_cone_with_no_generators_has_no_seeds():
    cone = Cone((), 0)
    assert cone.seeds == (1, ()) and cone.dim == 0 and cone.facet_data == ()


@pytest.mark.parametrize(
    "gens",
    [[(1, 2, 3)], [(1, 0, 0), (1, 2, 0)], [(1, 0), (-1, 0)], [(1, 0, 0), (0, 1, 0), (3, 5, 11)], SQUARE, HEXAGON]
    + [g for _, g in WITH_A_LINE],
)
def test_seeds_are_independent_generators_with_their_dual_functionals(gens):
    _check_seeds(Cone.from_generators(gens))


def test_dim_takes_no_rank(count_calls):
    ranks = count_calls("matrix_rank", fan_module), count_calls("rank", lattice)
    shapes = [[(1, 2, 3)], [(1, 0, 0), (1, 2, 0)], [(1, 0), (-1, 0)], [(1, 0, 0), (0, 1, 0), (3, 5, 11)], SQUARE]
    dims = [Cone.from_generators(gens).dim for gens in shapes + [g for _, g in WITH_A_LINE]]
    assert dims == [1, 2, 1, 3, 3, 2, 2, 3] and Cone((), 0).dim == 0
    assert ranks == ([], [])


# ------------------------------------- pieces and answers against the oracles


@pytest.mark.parametrize("name,gens", FULL, ids=[n for n, _ in FULL])
def test_named_full_dimensional_cones_match_the_smith_chart(name, gens):
    rng = random.Random(name)
    for _ in range(10):
        assert _check_cone(gens, rng).dim == len(gens[0])


def test_seeded_point_set_cones_match_the_smith_chart():
    rng = random.Random(20261019)
    for rank, count in ((3, 60), (4, 30)):
        for _ in range(count):
            _check_cone(_point_set(rng, rank), rng)


def test_seeded_cones_with_a_line_match_the_smith_chart():
    rng = random.Random(24)
    with_line = 0
    for _ in range(80):
        n = rng.randint(2, 3)
        gens = primitive_distinct([tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 3))])
        gens = primitive_distinct(gens + [tuple(-x for x in gens[0])])
        cone = _check_cone(gens, rng)
        with_line += cone.dim == n
        if cone.dim == n:
            with pytest.raises(ValueError, match="strongly convex"):
                cone.triangulation
    assert with_line >= 40


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.sampled_from((3, 4)))
def test_hypothesis_point_set_cones_match_the_smith_chart(rnd, rank):
    _check_cone(_point_set(rnd, rank), rnd)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 3).flatmap(lambda n: st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=n, max_size=n + 3)),
    st.integers(0, 10**6),
)
def test_hypothesis_cones_with_a_line_match_the_smith_chart(gens, seed):
    gens = primitive_distinct(gens)
    if gens:
        _check_cone(primitive_distinct(gens + [tuple(-x for x in gens[0])]), random.Random(seed))


# ------------------------------------------------------------ count guards


def _hexagon_fan():
    return Fan.from_data(HEXAGON, [tuple(range(6))])


def _cold_pair(fan):
    """A pair with b = 1/2 on a fresh one-cone fan over points at height 1
    (so K+B is Q-Cartier and klt), with the psi cache cleared."""
    pairs._psi.cache_clear()
    return ToricPair.from_fan(Fan(fan.rays, fan.max_cones, fan.rank), [Fraction(1, 2)] * len(fan.rays))


QUERIES = {
    "validate_pair": validate_pair,
    "is_log_cy": is_log_cy,
    "index": index,
    "is_cartier": lambda pair: is_cartier(pair.variety, [1] * len(pair.fan.rays)),
}
FANS = {"square": cone_over_square_fan, "hexagon": _hexagon_fan}


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("fan", FANS)
def test_cold_queries_on_a_full_dimensional_cone_take_no_smith_form(count_calls, query, fan):
    pair = _cold_pair(FANS[fan]())
    smith = count_calls("smith_normal_form", lattice)
    assert QUERIES[query](pair)
    assert smith == []


@pytest.mark.parametrize("fan,simplices", [("square", 2), ("hexagon", 4)])
def test_cold_singularity_type_takes_one_smith_form_per_simplex(count_calls, fan, simplices):
    pair = _cold_pair(FANS[fan]())
    smith = count_calls("smith_normal_form", lattice)
    assert singularity_type(pair) == "klt"
    assert len(smith) == simplices == len(pair.fan.cones[0].triangulation)
    assert all("_least_exceptional_psi" in call.callers for call in smith)


def test_is_log_cy_on_a_cone_with_a_line_takes_no_smith_form(count_calls):
    smith = count_calls("smith_normal_form", lattice)
    for _, gens in WITH_A_LINE:
        pairs._psi.cache_clear()
        fan = _affine(gens)
        assert is_log_cy(ToricPair.reduced(fan)) and local_functionals(fan, [0] * len(gens)) == [(0,) * len(gens[0])]
    assert smith == []


# ------------------------------------------- triangulation needs convexity


@pytest.mark.parametrize("gens", [[(1, 0), (-1, 0)]] + [g for _, g in WITH_A_LINE])
def test_triangulation_of_a_cone_with_a_line_raises(gens):
    cone = Cone.from_generators(gens)
    with pytest.raises(ValueError, match="not strongly convex"):
        cone.triangulation
