"""Fan.from_data shares one live object per fan, whatever data it comes
from (rays reordered or not primitive, cones listed otherwise), with its
caches and its validation; Fan(...) always builds a new one; a fan nobody
holds drops out of the table with both of its keys, and no other data
reaching a live fan add a key; and coordinates, indices or query points
that are not integers raise instead of being truncated."""

import glob
import os
import random
from fractions import Fraction

import pytest

from toriclab import fan as fan_module
from toriclab.fan import Cone, Diagnostics, Fan, is_complete, star_subdivision, validate_fan
from toriclab.fileformats import parse_fan, parse_pair
from toriclab.pairs import (
    ToricPair,
    classify_extracted_place,
    index,
    is_log_cy,
    log_discrepancy,
    singularity_type,
)
from toriclab.toric import projective_space_fan, weighted_projective_fan

from oracles import random_complete_2d_fan, validate_fan_pairwise
from test_primitives import _star_subdivided_p3
from test_walls import NAMED

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")
P2 = ([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def test_equal_data_gives_the_same_live_fan():
    first = Fan.from_data(*P2)
    assert Fan.from_data([list(r) for r in P2[0]], [list(c) for c in P2[1]], rank=2) is first
    assert Fan.from_data([(1.0, 0), (0, 1), (-1, -1)], P2[1]) is first  # 1.0 == 1 builds the same fan
    assert Fan.from_data(*P2, rank=2.0) is first and type(first.rank) is int
    assert validate_fan(first)
    assert "cones" in vars(Fan.from_data(*P2))  # the second caller sees the first one's cones


def _live():
    """(live fans, keys) in the live table, which each test starts empty
    (conftest)."""
    return len({id(fan) for fan in fan_module._ALIVE.values()}), len(fan_module._ALIVE)


def test_other_data_of_an_equal_fan_gives_the_same_object():
    first = Fan.from_data(*P2)
    assert _live() == (1, 2)  # the data as given and the normal form
    for rays, cones in [
        ([(0, 1), (-1, -1), (1, 0)], [(2, 0), (0, 1), (2, 1)]),  # rays reordered, cones remapped
        (P2[0], [(2, 0), (1, 0), (2, 1)]),  # the cone list and each cone permuted
        ([(3, 0), (0, 2), (-5, -5)], P2[1]),  # rays that are not primitive
        ([(0.0, 1.0), (1.0, 0), (-1.0, -1.0)], [(1, 0), (0, 2), (1, 2)]),  # integral floats, reordered
        ([(Fraction(2), 0), ("0", "1"), (-1, -1)], P2[1]),
        (first.rays, first.max_cones),  # the normal form itself
    ]:
        assert Fan.from_data(rays, cones) is first, (rays, cones)
    assert _live()[0] == 1


def test_the_constructor_always_builds_a_new_fan():
    first = Fan.from_data(*P2)
    copy = Fan(first.rays, first.max_cones, first.rank)
    assert copy == first and copy is not first
    assert Fan(first.rays, first.max_cones, first.rank) is not copy
    assert star_subdivision(first, [0, 1]) is not star_subdivision(first, [0, 1])


def test_a_fan_nobody_holds_is_dropped():
    held = Fan.from_data(*P2)
    assert validate_fan(held)
    live, keys = _live()
    assert live == 1 and keys <= 2
    del held
    assert _live() == (0, 0)  # both keys go with the fan


def test_a_long_loop_of_distinct_fans_keeps_the_table_small():
    for k in range(2000):
        fan = Fan.from_data([(1, 0), (k, 1), (-1 - k, -1)], [(0, 1), (1, 2), (0, 2)])
        assert validate_fan(fan)
        live, keys = _live()
        assert live == 1 and keys <= 2
    del fan
    assert _live() == (0, 0)


def test_rejected_data_is_not_kept():
    before = len(fan_module._ALIVE)
    with pytest.raises(ValueError):
        Fan.from_data([(1, 0), (1, 0)], [(0, 1)])
    assert len(fan_module._ALIVE) == before


def test_a_pair_keeps_its_fan_shared():
    pair = ToricPair.from_fan(Fan.from_data(*P2), [Fraction(1, 2)] * 3)
    assert Fan.from_data(*P2) is pair.fan


def _permuted(rng, fan):
    """The fan's data with the rays, the cone list and each cone shuffled."""
    order = list(range(len(fan.rays)))
    rng.shuffle(order)
    at = {old: new for new, old in enumerate(order)}
    cones = [rng.sample([at[i] for i in c], len(c)) for c in fan.max_cones]
    rng.shuffle(cones)
    return [fan.rays[i] for i in order], cones


def test_pairs_on_a_shared_fan_answer_as_on_a_new_one():
    """Seeded complete 2D fans and star subdivisions of P3: every permuted
    copy of the data gives the one shared fan, which validate_fan,
    is_complete and the pair queries answer as a new Fan(...) does."""
    rng = random.Random(2323)
    fans = [random_complete_2d_fan(rng) for _ in range(40)]
    fans += [_star_subdivided_p3(cones, seed) for cones, seed in ((8, 3), (12, 77), (16, 1234))]
    for built in fans:
        shared = Fan.from_data(built.rays, built.max_cones, built.rank)
        fresh = Fan(built.rays, built.max_cones, built.rank)
        for _ in range(6):
            assert Fan.from_data(*_permuted(rng, built), built.rank) is shared
        assert validate_fan(shared) == validate_fan(fresh) == Diagnostics(True)
        assert is_complete(shared) and is_complete(fresh)
        for _ in range(3):
            coeffs = [Fraction(rng.randrange(d), d) for d in (rng.randrange(1, 6) for _ in built.rays)]
            pairs = [ToricPair.from_fan(f, coeffs) for f in (Fan.from_data(*_permuted(rng, built), built.rank), fresh)]
            assert pairs[0].fan is shared
            answers = [(singularity_type(p), is_log_cy(p), index(p)) for p in pairs]
            assert answers[0] == answers[1], (built, coeffs)


@pytest.mark.parametrize("name,fan", NAMED, ids=[n for n, _ in NAMED])
def test_cached_diagnostics_match_the_pairwise_scan(name, fan):
    """Valid or not (the double covers, the fold, the hanging vertices),
    a shared fan answers validate_fan twice with the scan's Diagnostics,
    whatever data it is reached from."""
    expected = validate_fan_pairwise(Fan(fan.rays, fan.max_cones, fan.rank))
    shared = Fan.from_data(fan.rays, fan.max_cones, fan.rank)
    assert validate_fan(shared) == expected
    assert validate_fan(shared) is validate_fan(shared) == expected
    if fan.rays:
        again = Fan.from_data(*_permuted(random.Random(name), fan), fan.rank)
        assert again is shared and validate_fan(again) == expected


def test_presentations_of_a_live_fan_keep_the_table_flat(catalogue, assert_plateau):
    """10^4 seeded presentations of a catalogue fan (rays reordered and
    scaled, cones listed otherwise) after a warm-up all reach the one live
    fan, and register no key: the table keeps the catalogue's keys, and
    the second half leaves not one traced byte more than the first outside
    this file and the conftest harness."""
    fan = dict(catalogue)["P2"]
    rng = random.Random(1616)

    def presentation():
        rays, cones = _permuted(rng, fan)
        return [tuple(k * x for x in r) for r, k in zip(rays, (rng.randint(1, 9) for _ in rays))], cones

    def run(data):
        assert Fan.from_data(*data, fan.rank) is fan

    inputs = [[presentation() for _ in range(n)] for n in (200, 5000, 5000)]
    assert_plateau(run, lambda: len(fan_module._ALIVE), inputs, len(fan_module._ALIVE), 0)


def test_sample_files_resolve_to_the_live_catalogue_fans(catalogue):
    ids = {id(fan) for _, fan in catalogue}
    for path in sorted(glob.glob(os.path.join(SAMPLES, "*.fan"))):
        fan = parse_fan(open(path).read())
        assert (id(fan) in ids) == (os.path.basename(path) != "cone_over_square.fan"), path
        assert "_diagnostics" in vars(fan)  # validated once, then read back
    for path in sorted(glob.glob(os.path.join(SAMPLES, "*.pair"))):
        assert id(parse_pair(open(path).read(), SAMPLES).fan) in ids, path


def test_a_shared_wall_map_cannot_be_changed():
    fan = Fan.from_data(*P2)
    assert all(type(sides) is tuple for sides in fan.wall_map.values())
    assert all(type(side) is tuple for sides in fan.wall_map.values() for side in sides)
    wall = next(iter(fan.wall_map))
    with pytest.raises(TypeError):
        fan.wall_map[wall] = ()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Fan.from_data([(1.5, 0), (0, 1), (-1, -1)], P2[1]),
        lambda: Fan([(1, 0), (0, Fraction(1, 2)), (-1, -1)], P2[1], 2),
        lambda: Fan.from_data(P2[0], [(0, 1.5), (1, 2), (0, 2)]),
        lambda: Fan.from_data(*P2, rank=2.5),
        lambda: Cone.from_generators([(1.7, 0), (0, 1)]),
        lambda: star_subdivision(Fan.from_data(*P2), [0, 1], ray=(1, 0.5)),
        lambda: star_subdivision(Fan.from_data(*P2), [0, 1.5]),
        lambda: Cone(((1.5, 0), (0, 1)), 2),
        lambda: weighted_projective_fan((1.5, 2)),
        lambda: projective_space_fan(2.5),
    ],
    ids=[
        "fan ray",
        "fan ray fraction",
        "cone index",
        "fan rank",
        "cone generator",
        "subdivision ray",
        "stratum index",
        "cone constructor",
        "weighted projective weight",
        "projective space dimension",
    ],
)
def test_values_that_are_not_integers_raise(build):
    with pytest.raises(ValueError, match="not an integer"):
        build()


def test_integral_values_of_other_types_are_taken():
    assert Cone.from_generators([(1.0, 0), (0, Fraction(2))]).generators == ((0, 1), (1, 0))
    assert Cone(((1.0, 0), (0, Fraction(2))), 2) == Cone(((1, 0), (0, 1)), 2)
    assert weighted_projective_fan((1.0, 2)) == weighted_projective_fan((1, 2))
    assert projective_space_fan(2.0) == projective_space_fan(2)
    assert Cone.from_generators([("3", 0), (0, "-1")]).generators == ((0, -1), (1, 0))
    with pytest.raises(ValueError):
        Cone.from_generators([("1.5", 0), (0, 1)])
    assert Fan.from_data([(Fraction(1), 0.0), (0, 1), (-1, -1)], P2[1]) == Fan.from_data(*P2)


@pytest.mark.parametrize("query", [log_discrepancy, classify_extracted_place])
def test_point_queries_take_integers_only(query):
    pair = ToricPair.from_fan(Fan.from_data(*P2), [Fraction(1, 2)] * 3)
    with pytest.raises(ValueError, match="not an integer: 1.5"):
        query(pair, (1.5, 1))
    assert query(pair, ("1", "1")) == query(pair, (1, 1))
    assert log_discrepancy(pair, ("1", "1")) == 1
