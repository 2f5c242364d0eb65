"""The integer psi record of a pair (pairs.LogDiscrepancyFunction) against
the readings it replaced: Fraction pieces and facet membership for the
log discrepancy, ranks of the ray matrix for the log Calabi-Yau test and
the complexity (tests/oracles.py), and the index scan and box-scan
oracles; plus the hash contract of ToricPair."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toriclab.catalog import bundled_fans, cone_over_square_fan
from toriclab.complexity import Decomposition, complexity, decomposition_by_primes
from toriclab.fan import Fan
from toriclab.lattice import vdot
from toriclab.pairs import ToricPair, _psi, index, is_log_cy, log_discrepancy, singularity_type
from toriclab.polytope import Polytope
from toriclab.toric import ToricVariety, projective_space_fan, weighted_projective_fan

from oracles import (
    LogDiscrepancyFunctionPieces,
    complexity_rho_rank,
    index_scan,
    is_log_cy_rank,
    piece,
    primitive_distinct,
    random_complete_2d_fan,
    singularity_type_scan,
)

FANS = [
    ("cone over the square", cone_over_square_fan()),
    ("P(1,4,1,5)", weighted_projective_fan((1, 4, 1, 5))),
    ("P(1,1,2)", weighted_projective_fan((1, 1, 2))),
    ("P(2,3,5)", weighted_projective_fan((2, 3, 5))),
    ("P2/mu3", Fan.from_data([(2, -1), (-1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)])),
    (
        "plane fan plus a ray",
        Fan.from_data([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)], [(0, 1), (1, 2), (0, 2), (3,)]),
    ),
    ("two cones of different dimension", Fan.from_data([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)], [(0, 1, 2), (3,)])),
    ("a ray in no maximal cone", Fan.from_data([(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2)])),
    ("square cone and a simplicial one", Fan.from_data(
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 0)], [(0, 1, 2, 3), (0, 1, 4)]
    )),
    ("one ray in Z^2", Fan.from_data([(1, 2)], [(0,)])),
    *bundled_fans(),
]


def _same(got, want):
    """Call both; equal answers, or the same ValueError with the same
    message.  Returns the answer or "raises"."""
    try:
        expected = want()
    except ValueError as e:
        with pytest.raises(ValueError) as err:
            got()
        assert str(err.value) == str(e)
        return "raises"
    answer = got()
    assert answer == expected
    return answer


def _boundaries(rng, fan):
    """Reduced and zero boundaries, Q-Cartier ones from a functional with
    b = 0 on some rays, and random ones (which a non-simplicial cone may
    reject as not Q-Cartier, and which may exceed 1)."""
    n = len(fan.rays)
    yield [1] * n
    yield [0] * n
    for _ in range(4):
        m = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(fan.rank)]
        vals = [vdot(m, u) for u in fan.rays]
        top = max(max(vals), 1)
        yield [1 - v / top for v in vals]
        yield [rng.choice((0, 0, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), 1)) for _ in range(n)]
        yield [Fraction(rng.randint(0, 6), rng.randint(1, 5)) for _ in range(n)]


def _decompositions(rng, pair):
    """The prime decomposition, then decompositions of the boundary with
    multi-ray parts and repeated singleton parts."""
    yield decomposition_by_primes(pair)
    n = len(pair.boundary)
    for _ in range(3):
        parts = []
        rest = list(pair.boundary)
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(range(n), rng.randint(2, n)) if n >= 2 else [0]
            w = min(rest[i] for i in support) * Fraction(rng.randint(0, 2), 2)
            parts.append((w, support))
            for i in support:
                rest[i] -= w
        for i, b in enumerate(rest):
            if b > 0 and rng.random() < 0.5:  # a repeated singleton
                parts += [(b / 2, [i]), (b / 2, [i])]
            elif b > 0:
                parts.append((b, [i]))
        yield Decomposition.of(parts)


def _points(fan):
    """Every nonzero point of a box, plus points of the wrong length."""
    box = 2 if fan.rank <= 2 else 1
    for v in itertools.product(range(-box, box + 1), repeat=fan.rank):
        if any(v):
            yield v
    yield (1,) * (fan.rank + 1)
    yield (1,) * max(fan.rank - 1, 1)


def _check_pair(pair, rng, scan=False):
    verdict = _same(lambda: is_log_cy(pair), lambda: is_log_cy_rank(pair))
    try:
        ix = index_scan(pair)
    except ValueError:
        with pytest.raises(ValueError, match="Q-Cartier"):
            index(pair)
    else:
        assert index(pair) == ix
    if scan and all(b <= Fraction(2, 3) or b == 1 for b in pair.boundary):
        _same(lambda: singularity_type(pair), lambda: singularity_type_scan(pair))
    for dec in _decompositions(rng, pair):
        assert complexity(pair, dec).rho == complexity_rho_rank(pair, dec), dec
    try:
        oracle = LogDiscrepancyFunctionPieces(pair)
    except ValueError as e:
        with pytest.raises(ValueError) as err:
            _psi(pair)
        assert str(err.value) == str(e)
        return verdict
    psi = _psi(pair)
    for k, cone in enumerate(pair.fan.cones):
        got, want = piece(psi, k), oracle.piece(k)
        if cone.dim == pair.fan.rank:  # the piece of a full-dimensional cone is unique
            assert got == want
        else:  # the same values on the cone's span
            assert [vdot(got, g) for g in cone.generators] == [vdot(want, g) for g in cone.generators]
    for v in _points(pair.fan):
        _same(lambda: psi.cone_index_of(v), lambda: oracle.cone_index_of(v))
        _same(lambda: psi(v), lambda: oracle(v))
    return verdict


def _check_fan(fan, rng, scan=False):
    return {_check_pair(ToricPair.from_fan(fan, b), rng, scan) for b in _boundaries(rng, fan)}


@pytest.mark.parametrize("name,fan", FANS, ids=[n for n, _ in FANS])
def test_named_fans_match_the_oracles(name, fan):
    _check_fan(fan, random.Random(name), scan=fan.rank <= 2 or len(fan.rays) <= 5)


def test_seeded_fans_reach_every_verdict():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(30):
        seen |= _check_fan(random_complete_2d_fan(rng, max_rays=7, coord=4), rng, scan=True)
    for n in (2, 3, 4):
        seen |= _check_fan(projective_space_fan(n), rng)
    done = 0
    while done < 8:  # cones over lattice polygons: non-simplicial, full-dimensional
        hull = Polytope.hull([(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(6)], rank=2)
        if len(hull.vertices) >= 4:
            rays = [(int(x), int(y), 1) for x, y in hull.vertices]
            seen |= _check_fan(Fan.from_data(rays, [tuple(range(len(rays)))]), rng)
            done += 1
    assert seen == {True, False, "raises"}


def test_points_on_walls_report_the_first_cone():
    # (1, 0) and (0, 1) are rays of two cones each, (1, 1) lies on the
    # wall of cones 0 and 1 of the subdivided square fan
    fan = Fan.from_data([(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 3), (1, 3), (1, 2), (0, 2)])
    pair = ToricPair.from_fan(fan, [Fraction(1, 2), Fraction(1, 3), 0, Fraction(1, 5)])
    psi, oracle = _psi(pair), LogDiscrepancyFunctionPieces(pair)
    for v in [(1, 0), (0, 1), (1, 1), (-1, -1), (2, 1)]:
        holding = [k for k, cone in enumerate(fan.cones) if cone.contains(v)]
        assert len(holding) >= 1 and psi.cone_index_of(v) == holding[0] == oracle.cone_index_of(v)
    assert [len([c for c in fan.cones if c.contains(v)]) for v in [(1, 0), (1, 1)]] == [2, 2]


def test_errors_keep_their_messages():
    square = ToricPair.from_fan(cone_over_square_fan(), [1, 0, 0, 0])
    for f in (index, is_log_cy, singularity_type, lambda p: log_discrepancy(p, (0, 0, 1))):
        with pytest.raises(ValueError, match="^K\\+B is not Q-Cartier; no log discrepancy function$"):
            f(square)
    p2 = ToricPair.reduced(projective_space_fan(2))
    with pytest.raises(ValueError, match="^point length differs from ambient rank$"):
        log_discrepancy(p2, (1, 1, 1))
    with pytest.raises(ValueError, match="^point length differs from ambient rank$"):
        LogDiscrepancyFunctionPieces(p2)((1, 1, 1))
    coneless = ToricPair.from_fan(Fan.from_data([(1, 0)], []), [0])
    for psi in (_psi(coneless), LogDiscrepancyFunctionPieces(coneless)):
        with pytest.raises(ValueError, match="^valuation not visible"):
            psi((1, 0, 0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False), st.integers(2, 3))
def test_hypothesis_pairs_match_the_oracles(rnd, rank):
    if rnd.random() < 0.4:
        fan = random_complete_2d_fan(rnd, max_rays=6, coord=4)
    else:
        gens = primitive_distinct(
            [tuple(rnd.randint(-3, 3) for _ in range(rank)) for _ in range(rnd.randint(1, rank + 2))]
        )
        if not gens:
            return
        # one cone on all the generators, one per rank-sized window, or one per generator
        shape = rnd.random()
        if shape < 0.5:
            cones = [tuple(range(len(gens)))]
        elif shape < 0.8:
            cones = [tuple(range(i, min(i + rank, len(gens)))) for i in range(0, len(gens), rank)]
        else:
            cones = [(i,) for i in range(len(gens))]
        fan = Fan.from_data(gens, cones)
    _check_fan(fan, rnd, scan=fan.rank == 2)


# ---------------------------------------------------------- hash contract


def test_equal_pairs_hash_equal_and_share_one_psi():
    fan = weighted_projective_fan((1, 1, 2))
    forms = [["1/2", 1, "0"], [Fraction(1, 2), Fraction(1), Fraction(0)], [0.5, 1, 0]]
    built = [ToricPair.from_fan(fan, c) for c in forms]
    built.append(ToricPair(ToricVariety(Fan.from_data(list(fan.rays), fan.max_cones)), tuple(forms[0])))
    first = built[0]
    for pair in built[1:]:
        assert pair == first and pair is not first
        assert hash(pair) == hash(first) == hash((pair.variety, pair.boundary))
    assert ToricPair.from_fan(fan, ["1/3", 1, 0]) != first
    _psi.cache_clear()
    psi = _psi(first)
    for pair in built[1:]:
        assert _psi(pair) is psi
    info = _psi.cache_info()
    assert (info.hits, info.misses) == (len(built) - 1, 1)


def test_a_boundary_is_bound_as_a_tuple_of_fractions():
    fan = weighted_projective_fan((1, 1, 2))
    given = (Fraction(1, 2), Fraction(1), Fraction(0))
    pair = ToricPair.from_fan(fan, given)
    for other in (given, [Fraction(1, 2), Fraction(1), Fraction(0)], (Fraction(1, 2), 1, Fraction(0)), ("1/2", True, 0.0)):
        converted = ToricPair.from_fan(fan, other)
        assert converted == pair and converted.boundary == given
        assert type(converted.boundary) is tuple and all(type(b) is Fraction for b in converted.boundary)
        assert (converted.A, converted.alpha) == (pair.A, pair.alpha) == (2, (1, 0, 2))
        assert hash(converted) == hash(pair) == hash((pair.variety, given))
