"""Fan.from_data shares a live equal fan built from the same data, with its
caches; Fan(...) always builds a new one; a fan nobody holds drops out of
the table; and coordinates or indices that are not integers raise instead
of being truncated."""

import random
from fractions import Fraction

import pytest

from toriclab import fan as fan_module
from toriclab.fan import Cone, Fan, star_subdivision, validate_fan
from toriclab.pairs import ToricPair, index, is_log_cy, singularity_type

from oracles import random_complete_2d_fan

P2 = ([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def test_equal_data_gives_the_same_live_fan():
    first = Fan.from_data(*P2)
    assert Fan.from_data([list(r) for r in P2[0]], [list(c) for c in P2[1]], rank=2) is first
    assert Fan.from_data([(1.0, 0), (0, 1), (-1, -1)], P2[1]) is first  # 1.0 == 1 builds the same fan
    assert Fan.from_data(*P2, rank=2.0) is first and type(first.rank) is int
    assert validate_fan(first)
    assert "cones" in vars(Fan.from_data(*P2))  # the second caller sees the first one's cones


def test_other_data_gives_another_fan_even_when_equal():
    first = Fan.from_data(*P2)
    reordered = Fan.from_data([(0, 1), (1, 0), (-1, -1)], [(1, 0), (0, 2), (1, 2)])
    assert reordered == first and reordered is not first


def test_the_constructor_always_builds_a_new_fan():
    first = Fan.from_data(*P2)
    copy = Fan(first.rays, first.max_cones, first.rank)
    assert copy == first and copy is not first
    assert Fan(first.rays, first.max_cones, first.rank) is not copy
    assert star_subdivision(first, [0, 1]) is not star_subdivision(first, [0, 1])


def test_a_fan_nobody_holds_is_dropped():
    before = len(fan_module._ALIVE)
    held = Fan.from_data(*P2)
    assert validate_fan(held) and len(fan_module._ALIVE) == before + 1
    del held
    assert len(fan_module._ALIVE) == before


def test_a_long_loop_of_distinct_fans_keeps_the_table_small():
    before = len(fan_module._ALIVE)
    for k in range(2000):
        fan = Fan.from_data([(1, 0), (k, 1), (-1 - k, -1)], [(0, 1), (1, 2), (0, 2)])
        assert validate_fan(fan)
    assert len(fan_module._ALIVE) <= before + 1


def test_rejected_data_is_not_kept():
    before = len(fan_module._ALIVE)
    with pytest.raises(ValueError):
        Fan.from_data([(1, 0), (1, 0)], [(0, 1)])
    assert len(fan_module._ALIVE) == before


def test_a_pair_keeps_its_fan_shared():
    pair = ToricPair.from_fan(Fan.from_data(*P2), [Fraction(1, 2)] * 3)
    assert Fan.from_data(*P2) is pair.fan


def test_pairs_on_a_shared_fan_answer_as_on_a_new_one():
    rng = random.Random(2323)
    for _ in range(40):
        built = random_complete_2d_fan(rng)
        data = (built.rays, built.max_cones)
        for _ in range(3):
            coeffs = [Fraction(rng.randrange(d), d) for d in (rng.randrange(1, 6) for _ in built.rays)]
            shared = ToricPair.from_fan(Fan.from_data(*data), coeffs)
            fresh = ToricPair.from_fan(Fan(*data, built.rank), coeffs)
            assert shared.fan is Fan.from_data(*data) and fresh.fan is not shared.fan
            answers = [(singularity_type(p), is_log_cy(p), index(p)) for p in (shared, fresh)]
            assert answers[0] == answers[1], (data, coeffs)


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
    ],
    ids=["fan ray", "fan ray fraction", "cone index", "fan rank", "cone generator", "subdivision ray", "stratum index"],
)
def test_values_that_are_not_integers_raise(build):
    with pytest.raises(ValueError, match="not an integer"):
        build()


def test_integral_values_of_other_types_are_taken():
    assert Cone.from_generators([(1.0, 0), (0, Fraction(2))]).generators == ((0, 1), (1, 0))
    assert Cone.from_generators([("3", 0), (0, "-1")]).generators == ((0, -1), (1, 0))
    with pytest.raises(ValueError):
        Cone.from_generators([("1.5", 0), (0, 1)])
    assert Fan.from_data([(Fraction(1), 0.0), (0, 1), (-1, -1)], P2[1]) == Fan.from_data(*P2)
