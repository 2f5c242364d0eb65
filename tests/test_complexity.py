import random
import re
from fractions import Fraction

import pytest

from toriclab.catalog import bundled_fans, p1xp1_fan
from toriclab.complexity import (
    BmszReport,
    ComplexityReport,
    Decomposition,
    assert_bmsz,
    complexity,
    complexity_transport,
    decomposition_by_primes,
)
from toriclab.fan import star_subdivision
from toriclab.pairs import ToricPair, standard_pair
from toriclab.toric import projective_space_fan

from oracles import random_complete_2d_fan, random_decomposition


def test_prime_decomposition_shapes():
    pair = standard_pair(2)
    dec = decomposition_by_primes(pair)
    assert len(dec.parts) == 3
    assert all(alpha == 1 and len(rays) == 1 for alpha, rays in dec.parts)

    empty = ToricPair.from_fan(projective_space_fan(2), [0, 0, 0])
    assert decomposition_by_primes(empty).parts == ()

    fractional = ToricPair.from_fan(p1xp1_fan(), [Fraction(3, 4)] * 4)
    dec = decomposition_by_primes(fractional)
    assert all(alpha == Fraction(3, 4) for alpha, _ in dec.parts)


def test_prime_decomposition_is_the_checked_one():
    # decomposition_by_primes binds its parts unchecked: they must be what
    # the checked constructor makes of the pair's nonzero coefficients
    rng = random.Random(41)
    for _ in range(40):
        fan = random_complete_2d_fan(rng)
        values = (0, 0, Fraction(1, 2), Fraction(2, 3), 1, Fraction(5, 3))
        pair = ToricPair.from_fan(fan, [rng.choice(values) for _ in fan.rays])
        got = decomposition_by_primes(pair)
        want = Decomposition.of((b, (i,)) for i, b in enumerate(pair.boundary) if b)
        assert got == want and repr(got) == repr(want)
        assert all(type(w) is Fraction and w > 0 and type(part) is frozenset for w, part in got.parts)


def test_complexity_standard_pairs():
    for n in range(1, 7):
        pair = standard_pair(n)
        report = complexity(pair, decomposition_by_primes(pair))
        assert report.dim == n
        assert report.rho == 1
        assert report.norm == n + 1
        assert report.c == 0


def test_complexity_p1xp1():
    pair = ToricPair.reduced(p1xp1_fan())
    report = complexity(pair, decomposition_by_primes(pair))
    assert (report.dim, report.rho, report.norm, report.c) == (2, 2, 4, 0)


def test_complexity_coarse_decomposition():
    pair = standard_pair(2)
    coarse = Decomposition.of([(1, (0, 1, 2))])
    report = complexity(pair, coarse)
    assert (report.rho, report.norm, report.c) == (1, 1, 2)


def test_complexity_mismatch_rejected():
    pair = standard_pair(2)
    with pytest.raises(ValueError, match="mismatch"):
        complexity(pair, Decomposition.of([(1, (0, 1))]))
    with pytest.raises(ValueError, match="mismatch"):
        complexity(pair, Decomposition.of([(Fraction(1, 2), (0, 1, 2))]))


def test_complexity_report_consistency_enforced():
    with pytest.raises(ValueError):
        ComplexityReport(rho=1, norm=Fraction(1), dim=2, c=Fraction(0))


def test_reduced_prime_complexity_zero_on_all_bundled_fans():
    for name, fan in bundled_fans():
        pair = ToricPair.reduced(fan)
        report = complexity(pair, decomposition_by_primes(pair))
        assert report.c == 0, name


def test_prime_decomposition_minimizes_over_mergers():
    # merging singleton parts can only increase c: exhaustive over all set
    # partitions of the rays, for every bundled fan with at most 5 rays
    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1 :]
            yield [[first]] + part

    for name, fan in bundled_fans():
        if len(fan.rays) > 5:
            continue
        pair = ToricPair.reduced(fan)
        base = complexity(pair, decomposition_by_primes(pair)).c
        for grouping in partitions(list(range(len(fan.rays)))):
            dec = Decomposition.of([(1, g) for g in grouping])
            assert complexity(pair, dec).c >= base, (name, grouping)


def test_bmsz_standard():
    pair = standard_pair(2)
    report = assert_bmsz(pair, decomposition_by_primes(pair))
    assert report == BmszReport(c=Fraction(0), floor_two_c=0)


def test_bmsz_p1xp1():
    pair = ToricPair.reduced(p1xp1_fan())
    assert assert_bmsz(pair, decomposition_by_primes(pair)).c == 0


def test_bmsz_reports_floor():
    pair = standard_pair(2)
    dec = Decomposition.of([(Fraction(1, 2), (0, 1, 2)), (Fraction(1, 2), (0, 1, 2))])
    report = assert_bmsz(pair, dec)
    assert report.c == 2  # dim 2 + rho 1 - norm 1; at least 1, so no floor
    assert report.floor_two_c is None
    # a decomposition with c strictly between 0 and 1 does not exist for
    # P2, but the prime one reports its floor
    assert assert_bmsz(pair, decomposition_by_primes(pair)).floor_two_c == 0


def test_bmsz_randomized_nonnegative():
    rng = random.Random(20250206)
    for _ in range(200):
        fan = random_complete_2d_fan(rng)
        pair = ToricPair.reduced(fan)
        dec = random_decomposition(rng, pair)
        report = assert_bmsz(pair, dec)
        assert report.c >= 0


def test_transport_single_subdivision():
    pair = standard_pair(2)
    tau = [i for i, r in enumerate(pair.fan.rays) if r in ((1, 0), (0, 1))]
    fine = star_subdivision(pair.fan, tau)
    before, after = complexity_transport(pair, fine, decomposition_by_primes(pair))
    assert before.c == after.c == 0
    assert after.rho == before.rho + 1
    assert after.norm == before.norm + 1


def test_transport_two_subdivisions():
    pair = standard_pair(2)
    fan = pair.fan
    fan = star_subdivision(fan, fan.max_cones[0])
    fan = star_subdivision(fan, fan.max_cones[0])
    before, after = complexity_transport(pair, fan, decomposition_by_primes(pair))
    assert before.c == after.c == 0
    assert after.rho == before.rho + 2


def test_transport_3d_stratum():
    pair = standard_pair(3)
    cone = pair.fan.max_cones[0]
    fine = star_subdivision(pair.fan, cone[:2])  # blow up a 2D stratum
    before, after = complexity_transport(pair, fine, decomposition_by_primes(pair))
    assert before.c == after.c == 0


@pytest.mark.parametrize("rays", [(), frozenset(), iter(())], ids=["tuple", "frozenset", "iterator"])
def test_an_empty_part_is_rejected_however_it_is_given(rays):
    with pytest.raises(ValueError, match="empty part"):
        Decomposition(((1, rays),))


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: Decomposition(((1, (1.5,)),)), "1.5"),
        (lambda: Decomposition.of([(1, [2.7, 0])]), "2.7"),
        (lambda: Decomposition.of([(1, (0,)), (Fraction(1, 2), iter([1, Fraction(5, 2)]))]), "Fraction(5, 2)"),
    ],
    ids=["float index", "float index through of", "fraction index from an iterator"],
)
def test_ray_indices_that_are_not_integers_raise(build, bad):
    with pytest.raises(ValueError, match=f"^not an integer: {re.escape(bad)}$"):
        build()


def test_of_takes_each_part_as_given():
    parts = [(1, iter([2, 0])), [Fraction(1, 2), ("1", 1.0)], (Fraction(1, 2), frozenset({1}))]
    dec = Decomposition.of(parts)
    assert dec.parts == ((1, frozenset({0, 2})), (Fraction(1, 2), frozenset({1})), (Fraction(1, 2), frozenset({1})))
    assert all(type(i) is int for _, rays in dec.parts for i in rays)
    assert dec == Decomposition.of(part for part in [(1, (0, 2)), (Fraction(1, 2), (1,)), (Fraction(1, 2), (1,))])
