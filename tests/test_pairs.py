import random
from fractions import Fraction

import pytest

from toriclab.catalog import bundled_fans, cone_over_square_fan, p1xp1_fan
from toriclab.fan import Fan, star_subdivision
from toriclab.pairs import (
    EffectivityError,
    LogDiscrepancyFunction,
    ToricPair,
    blowup_point_log_discrepancy,
    classify_extracted_place,
    crepant_pullback,
    index,
    is_log_cy,
    log_discrepancy,
    singularity_type,
    standard_pair,
    validate_pair,
)
from toriclab.toric import projective_space_fan, weighted_projective_fan

from oracles import classify_cone_brute, classify_pair_brute, piece, restrict_boundary

P2_PAIR = standard_pair(2)


def pair_with(fan, coeffs):
    return ToricPair.from_fan(fan, coeffs)


# ------------------------------------------------------------ construction


def test_standard_pair():
    for n in (1, 2, 3):
        pair = standard_pair(n)
        assert len(pair.fan.rays) == n + 1
        assert all(b == 1 for b in pair.boundary)


def test_effectivity_enforced():
    with pytest.raises(ValueError, match="effective"):
        pair_with(projective_space_fan(2), [1, 1, -1])


def test_validate_pair():
    assert validate_pair(P2_PAIR).valid
    smooth = pair_with(projective_space_fan(2), [Fraction(1, 2), Fraction(1, 3), 1])
    assert validate_pair(smooth).valid
    # one facet of the cone over the square with coefficient 1: K+B is not
    # Q-Cartier there
    bad = pair_with(cone_over_square_fan(), [1, 0, 0, 0])
    diag = validate_pair(bad)
    assert not diag.valid
    assert diag.problem == "K+B is not Q-Cartier on a maximal cone"


def test_reduced_boundary_always_valid_on_any_fan():
    for name, fan in bundled_fans():
        assert validate_pair(ToricPair.reduced(fan)).valid, name
    assert validate_pair(ToricPair.reduced(cone_over_square_fan())).valid


# -------------------------------------------------------- log discrepancy


def test_log_discrepancy_reduced():
    assert log_discrepancy(P2_PAIR, (1, 1)) == 0


def test_log_discrepancy_half():
    half = pair_with(projective_space_fan(2), [Fraction(1, 2)] * 3)
    assert log_discrepancy(half, (1, 1)) == 1


def test_log_discrepancy_empty_boundary():
    zero = pair_with(projective_space_fan(2), [0, 0, 0])
    assert log_discrepancy(zero, (1, 1)) == 2
    assert log_discrepancy(zero, (1, 1)) == blowup_point_log_discrepancy(2, 0)


def test_log_discrepancy_on_rays():
    pair = pair_with(projective_space_fan(2), [Fraction(1, 3), Fraction(2, 3), 1])
    for i, ray in enumerate(pair.fan.rays):
        assert log_discrepancy(pair, ray) == 1 - pair.boundary[i]


def test_log_discrepancy_outside_support():
    cone_fan = Fan.from_data([(1, 0), (0, 1)], [(0, 1)])
    pair = pair_with(cone_fan, [0, 0])
    with pytest.raises(ValueError, match="not visible"):
        log_discrepancy(pair, (-1, 0))


def test_log_discrepancy_requires_primitive():
    with pytest.raises(ValueError, match="primitive"):
        log_discrepancy(P2_PAIR, (2, 2))


def test_log_discrepancy_vanishes_everywhere_for_reduced_boundary():
    import itertools
    import math

    for pair in (P2_PAIR, ToricPair.reduced(p1xp1_fan())):
        for v in itertools.product(range(-6, 7), repeat=2):
            if v == (0, 0) or math.gcd(*v) != 1:
                continue
            assert log_discrepancy(pair, v) == 0


def test_singularity_type_needs_qcartier():
    bad = pair_with(cone_over_square_fan(), [1, 0, 0, 0])
    with pytest.raises(ValueError, match="Q-Cartier"):
        singularity_type(bad)


def test_psi_agrees_on_shared_faces():
    # well-definedness: the linear pieces of two neighboring cones agree on
    # every generator of the shared face, for assorted pairs
    rng = random.Random(12)
    for name, fan in bundled_fans()[:11]:
        pair = ToricPair.reduced(fan)
        psi = LogDiscrepancyFunction(pair)
        for a in range(len(fan.max_cones)):
            for b in range(a + 1, len(fan.max_cones)):
                common = set(fan.max_cones[a]) & set(fan.max_cones[b])
                for i in common:
                    ray = fan.rays[i]
                    va = sum(c * x for c, x in zip(piece(psi, a), ray))
                    vb = sum(c * x for c, x in zip(piece(psi, b), ray))
                    assert va == vb == 1 - pair.boundary[i]


# ------------------------------------------------------ singularity type


def test_singularity_smooth_terminal():
    assert singularity_type(pair_with(projective_space_fan(2), [0, 0, 0])) == "terminal"


def test_singularity_a1_canonical():
    fan = Fan.from_data([(1, 0), (1, 2)], [(0, 1)])
    assert singularity_type(pair_with(fan, [0, 0])) == "canonical"


def test_singularity_reduced_lc():
    assert singularity_type(P2_PAIR) == "lc"
    assert singularity_type(standard_pair(3)) == "lc"


def test_singularity_not_lc():
    pair = pair_with(projective_space_fan(2), [Fraction(3, 2), 0, 0])
    assert singularity_type(pair) == "not-lc"


def test_singularity_klt_fractional():
    pair = pair_with(projective_space_fan(2), [Fraction(1, 2), Fraction(1, 2), Fraction(2, 3)])
    assert singularity_type(pair) == "klt"


def test_singularity_non_canonical_quotient():
    # 1/5(1,2) is klt but not canonical
    fan = Fan.from_data([(1, 0), (2, 5)], [(0, 1)])
    assert singularity_type(pair_with(fan, [0, 0])) == "klt"


def test_singularity_matches_bruteforce_small_cones():
    for a in range(1, 7):
        for b in range(a + 1, 7):
            import math

            if math.gcd(a, b) != 1:
                continue
            fan = Fan.from_data([(1, 0), (a, b)], [(0, 1)])
            got = singularity_type(pair_with(fan, [0, 0]))
            want = classify_cone_brute([(1, 0), (a, b)])
            assert got == want, (a, b)


def test_singularity_matches_bruteforce_with_boundary():
    cases = [
        (projective_space_fan(2), [0, 0, 0]),
        (projective_space_fan(2), [Fraction(1, 2), 0, 0]),
        (projective_space_fan(2), [Fraction(1, 2)] * 3),
        (projective_space_fan(2), [Fraction(3, 4), Fraction(1, 4), 0]),
        (p1xp1_fan(), [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), 0]),
        (weighted_projective_fan((1, 1, 2)), [0, 0, 0]),
        (weighted_projective_fan((1, 1, 2)), [Fraction(1, 3), 0, Fraction(1, 2)]),
    ]
    for fan, coeffs in cases:
        got = singularity_type(pair_with(fan, coeffs))
        want = classify_pair_brute(fan, coeffs)
        assert got == want, (fan.rays, coeffs)


# ------------------------------------------------------------- log CY


def test_log_cy_examples():
    assert is_log_cy(standard_pair(1))
    assert is_log_cy(standard_pair(2))
    assert is_log_cy(standard_pair(4))
    assert is_log_cy(ToricPair.reduced(p1xp1_fan()))
    half = pair_with(projective_space_fan(2), [Fraction(1, 2)] * 3)
    assert not is_log_cy(half)


def test_not_lc_is_not_log_cy():
    pair = pair_with(projective_space_fan(2), [2, 1, 0])
    # K+B has trivial class here, but the pair is not lc
    assert singularity_type(pair) == "not-lc"
    assert not is_log_cy(pair)


# -------------------------------------------------------------- index


def test_index_examples():
    assert index(standard_pair(2)) == 1
    assert index(standard_pair(3)) == 1
    third = pair_with(projective_space_fan(2), [Fraction(1, 3)] * 3)
    assert index(third) == 3
    assert index(ToricPair.reduced(weighted_projective_fan((1, 1, 2)))) == 1


def test_index_quotient_singularity():
    # the A1 cone is Gorenstein, the 1/5(1,2) cone has index 5
    a1 = Fan.from_data([(1, 0), (1, 2)], [(0, 1)])
    assert index(pair_with(a1, [0, 0])) == 1
    fan = Fan.from_data([(1, 0), (2, 5)], [(0, 1)])
    assert index(pair_with(fan, [0, 0])) == 5
    assert index(ToricPair.reduced(fan)) == 1


# ----------------------------------------------------- crepant pullback


def blowup_fan():
    tau = [i for i, r in enumerate(projective_space_fan(2).rays) if r in ((1, 0), (0, 1))]
    return star_subdivision(projective_space_fan(2), tau)


def test_crepant_pullback_reduced():
    fine = blowup_fan()
    pulled = crepant_pullback(P2_PAIR, fine)
    assert pulled.boundary[fine.rays.index((1, 1))] == 1
    assert all(b == 1 for b in pulled.boundary)
    assert is_log_cy(pulled)


def test_crepant_pullback_negative_coefficient():
    fine = blowup_fan()
    zero = pair_with(projective_space_fan(2), [0, 0, 0])
    with pytest.raises(EffectivityError) as err:
        crepant_pullback(zero, fine)
    assert err.value.ray == (1, 1)
    assert err.value.coefficient == -1


def test_crepant_pullback_half():
    fine = blowup_fan()
    half = pair_with(projective_space_fan(2), [Fraction(1, 2)] * 3)
    pulled = crepant_pullback(half, fine)
    assert pulled.boundary[fine.rays.index((1, 1))] == 0


def test_crepant_pullback_requires_refinement():
    with pytest.raises(ValueError, match="refinement"):
        crepant_pullback(P2_PAIR, p1xp1_fan())


def test_pullback_invariants_on_every_bundled_fan():
    rng = random.Random(404)
    for name, fan in bundled_fans():
        pair = ToricPair.reduced(fan)
        cone = rng.choice(fan.max_cones)
        fine = star_subdivision(fan, cone)
        pulled = crepant_pullback(pair, fine)
        assert is_log_cy(pulled), name
        assert index(pulled) == 1, name
        assert restrict_boundary(pulled, fan) == pair, name


def test_pullback_roundtrip_and_invariants_randomized():
    rng = random.Random(77)
    bases = [projective_space_fan(2), projective_space_fan(3), p1xp1_fan()]
    for _ in range(100):
        base = rng.choice(bases)
        pair = ToricPair.reduced(base)
        fine = base
        for _ in range(rng.randrange(1, 3)):
            cone = rng.choice(fine.max_cones)
            size = rng.randrange(1, len(cone) + 1)
            fine = star_subdivision(fine, rng.sample(cone, size))
        pulled = crepant_pullback(pair, fine)
        # crepancy preserves log CY and the index
        assert is_log_cy(pulled)
        assert index(pulled) == index(pair) == 1
        # pushing forward returns the original boundary exactly
        assert restrict_boundary(pulled, base) == pair


def test_star_subdivision_extracts_lc_places_on_reduced_pairs():
    rng = random.Random(13)
    for _ in range(25):
        base = rng.choice([projective_space_fan(2), projective_space_fan(3)])
        pair = ToricPair.reduced(base)
        cone = rng.choice(base.max_cones)
        size = rng.randrange(2, len(cone) + 1)
        tau = rng.sample(cone, size)
        fine = star_subdivision(base, tau)
        new_rays = [r for r in fine.rays if r not in base.rays]
        for v in new_rays:
            assert log_discrepancy(pair, v) == 0
            place = classify_extracted_place(pair, v)
            assert place.log_canonical and place.non_canonical and place.non_terminal


# ------------------------------------------------------ place labels


def test_classify_extracted_place():
    place = classify_extracted_place(P2_PAIR, (1, 1))
    assert place.log_canonical and not place.canonical and place.non_terminal

    zero = pair_with(projective_space_fan(2), [0, 0, 0])
    place = classify_extracted_place(zero, (1, 1))
    assert place.terminal and not place.non_terminal and not place.log_canonical

    half = pair_with(projective_space_fan(2), [Fraction(1, 2)] * 3)
    place = classify_extracted_place(half, (1, 1))
    assert place.canonical and place.non_terminal and not place.terminal
    assert set(place.labels()) == {"canonical place", "non-terminal place"}


def test_classify_rejects_rays():
    with pytest.raises(ValueError, match="not exceptional"):
        classify_extracted_place(P2_PAIR, (1, 0))


# -------------------------------------------------- blow-up arithmetic


def test_blowup_point_log_discrepancy():
    assert blowup_point_log_discrepancy(3, 2) == 1
    assert blowup_point_log_discrepancy(2, 0) == 2
    assert blowup_point_log_discrepancy(3, 3) == 0
    assert blowup_point_log_discrepancy(3, Fraction(1, 2)) == Fraction(5, 2)
    with pytest.raises(ValueError):
        blowup_point_log_discrepancy(1, 0)
