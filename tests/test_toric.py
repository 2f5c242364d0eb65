import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toriclab.catalog import bundled_fans, cone_over_square_fan, hirzebruch_fan, p1xp1_fan
from toriclab.fan import Fan, is_complete, star_subdivision, validate_fan
from toriclab.lattice import AbelianGroupStructure, rank as matrix_rank
from toriclab.polytope import Polytope, face_fan, is_smooth_fano_polytope, unimodular_normal_form
from toriclab.toric import (
    ToricVariety,
    class_group,
    divisor_class,
    divisor_class_q,
    is_cartier,
    is_fano,
    is_qcartier,
    local_functionals,
    projective_space_fan,
    weighted_projective_fan,
)

from oracles import canonical_divisor, is_cartier_solve, principal_divisor


def variety(fan):
    return ToricVariety(fan)


# ----------------------------------------------------------- class group


def test_class_group_projective_spaces():
    for n in range(1, 5):
        assert class_group(variety(projective_space_fan(n))) == AbelianGroupStructure(1, ())


def test_class_group_p1xp1():
    assert class_group(variety(p1xp1_fan())) == AbelianGroupStructure(2, ())


def test_class_group_weighted_112():
    assert class_group(variety(weighted_projective_fan((1, 1, 2)))) == AbelianGroupStructure(1, ())


def test_class_group_rank_formula():
    # rank Cl_Q = #rays - rank, on every bundled complete fan
    for name, fan in bundled_fans():
        structure = class_group(variety(fan))
        assert structure.free_rank == len(fan.rays) - fan.rank, name


def _same_class_oracle(X, d1, d2):
    """Independent check: d1 - d2 is principal iff <m, u_i> = d1_i - d2_i
    is solvable for a character m."""
    from toriclab.lattice import solve_integer

    return solve_integer(X.fan.rays, X.fan.rank, [a - b for a, b in zip(d1, d2)]) is not None


def test_divisor_class_p2_lines_agree():
    X = variety(projective_space_fan(2))
    lines = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    classes = [divisor_class(X, d) for d in lines]
    assert classes[0] == classes[1] == classes[2]
    assert not classes[0].is_zero()
    for a, b in itertools.combinations(range(3), 2):
        assert _same_class_oracle(X, lines[a], lines[b])
    # the canonical class is -3 times the line class
    k = divisor_class(X, canonical_divisor(X))
    assert k.free == tuple(-3 * x for x in classes[0].free)


def test_divisor_class_p1xp1_pairs():
    X = variety(p1xp1_fan())
    rays = X.fan.rays
    classes = {}
    for i, r in enumerate(rays):
        d = [0] * 4
        d[i] = 1
        classes[r] = divisor_class(X, d)
    # opposite rays are linearly equivalent, adjacent ones are not
    assert classes[(1, 0)] == classes[(-1, 0)]
    assert classes[(0, 1)] == classes[(0, -1)]
    assert classes[(1, 0)] != classes[(0, 1)]
    rows = [classes[(1, 0)].free, classes[(0, 1)].free]
    assert matrix_rank(rows) == 2


def test_principal_divisors_are_zero_exhaustive():
    for fan in (projective_space_fan(2), p1xp1_fan(), weighted_projective_fan((1, 1, 2))):
        X = variety(fan)
        for m in itertools.product(range(-3, 4), repeat=fan.rank):
            d = principal_divisor(X, m)
            assert divisor_class(X, [int(c) for c in d]).is_zero()
            assert all(x == 0 for x in divisor_class_q(X, d))


def test_divisor_class_requires_integral():
    X = variety(projective_space_fan(2))
    with pytest.raises(ValueError, match="integral"):
        divisor_class(X, [Fraction(1, 2), 0, 0])
    assert divisor_class_q(X, [Fraction(1, 2), 0, 0]) != ()


# ---------------------------------------------------------- cartier tests


def test_smooth_fan_everything_cartier():
    X = variety(projective_space_fan(2))
    rng = random.Random(2)
    for _ in range(20):
        d = [rng.randrange(-5, 6) for _ in range(3)]
        assert is_cartier(X, d)
        assert is_qcartier(X, d)


def test_weighted_112_single_ray_divisor():
    X = variety(weighted_projective_fan((1, 1, 2)))
    i = X.fan.rays.index((-1, -2))
    d = [0] * 3
    d[i] = 1
    assert is_qcartier(X, d)
    assert not is_cartier(X, d)
    assert is_cartier(X, [2 * x for x in d])


def test_cone_over_square_not_qfactorial():
    X = variety(cone_over_square_fan())
    d = [1, 0, 0, 0]
    assert not is_qcartier(X, d)
    assert not is_cartier(X, d)
    # K itself is Cartier here (the cone is Gorenstein)
    assert is_cartier(X, canonical_divisor(X))


@pytest.mark.parametrize("coefficients", [[1, 0], [1, 0, 0, 5]], ids=["short", "long"])
def test_cartier_tests_need_one_coefficient_per_ray(coefficients):
    X = variety(projective_space_fan(2))
    for test in (is_cartier, is_qcartier):
        with pytest.raises(ValueError, match="one coefficient per ray"):
            test(X, coefficients)
    with pytest.raises(ValueError, match="one coefficient per ray"):
        local_functionals(X.fan, coefficients)
    # a half-integral divisor of the wrong length is rejected, not just non-Cartier
    with pytest.raises(ValueError, match="one coefficient per ray"):
        is_cartier(X, [Fraction(1, 2)] * len(coefficients))


PLANE_FAN_PLUS_RAY = Fan.from_data([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)], [(0, 1), (1, 2), (0, 2), (3,)])
CARTIER_FANS = [
    ("cone over the square", cone_over_square_fan()),
    ("P(1,1,2)", weighted_projective_fan((1, 1, 2))),
    ("P(2,3,5)", weighted_projective_fan((2, 3, 5))),
    ("plane fan plus a ray", PLANE_FAN_PLUS_RAY),
    ("two cones in Z^3", Fan.from_data([(1, 0, 0), (0, 1, 0), (1, 1, 2), (-1, 0, 0)], [(0, 1, 2), (1, 3)])),
]


def _divisor(rng, fan):
    """Integral, principal (minus div of an integral functional, so
    Cartier), or half-integral in one coefficient."""
    kind = rng.randrange(3)
    if kind == 1:
        m = [rng.randint(-3, 3) for _ in range(fan.rank)]
        return [-sum(a * b for a, b in zip(m, u)) for u in fan.rays]
    d = [rng.randint(-4, 4) for _ in fan.rays]
    if kind == 2:
        d[rng.randrange(len(d))] += Fraction(1, 2)
    return d


@pytest.mark.parametrize("name,fan", CARTIER_FANS, ids=[n for n, _ in CARTIER_FANS])
def test_cartier_test_matches_the_integer_solves(name, fan):
    rng = random.Random(name)
    X = variety(fan)
    seen = set()
    for _ in range(60):
        d = _divisor(rng, fan)
        seen.add(is_cartier(X, d))
        assert is_cartier(X, d) == is_cartier_solve(X, d), (name, d)
    assert seen == {True, False}
    assert not is_cartier(X, [Fraction(1, 2)] + [0] * (len(fan.rays) - 1))
    with pytest.raises(ValueError, match="one coefficient per ray"):
        is_cartier(X, [0] * (len(fan.rays) + 1))


def test_cartier_test_on_a_lower_dimensional_cone():
    # every maximal cone is lower-dimensional: a piece is fixed only on
    # its cone's span, and the chart's choice is integral iff one is
    X = variety(PLANE_FAN_PLUS_RAY)
    assert is_cartier(X, [1, 1, 1, 5]) and is_cartier(X, [0, 0, 0, 1])
    assert not is_cartier(X, [0, 0, 0, Fraction(5, 2)])
    two = variety(CARTIER_FANS[-1][1])
    assert is_cartier(two, [0, 0, 0, 0]) == is_cartier_solve(two, [0, 0, 0, 0]) is True
    # a ray in no maximal cone: no piece sees it, yet a fractional
    # coefficient there still makes D non-Cartier
    loose = variety(Fan.from_data([(1, 0), (0, 1), (-1, -1)], [(0, 1)]))
    for c in (1, Fraction(1, 2)):
        d = [c if u == (-1, -1) else 0 for u in loose.fan.rays]
        assert is_cartier(loose, d) == is_cartier_solve(loose, d) == (c == 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(CARTIER_FANS + list(bundled_fans()[:6])), st.data())
def test_hypothesis_cartier_test_matches_the_integer_solves(named, data):
    _, fan = named
    d = data.draw(
        st.lists(st.fractions(-4, 4, max_denominator=2), min_size=len(fan.rays), max_size=len(fan.rays))
    )
    X = variety(fan)
    assert is_cartier(X, d) == is_cartier_solve(X, d), d


def test_cartier_implies_qcartier_randomized():
    rng = random.Random(8)
    fans = [f for _, f in bundled_fans()[:11]]
    for _ in range(60):
        fan = rng.choice(fans)
        d = [rng.randrange(-3, 4) for _ in fan.rays]
        if is_cartier(variety(fan), d):
            assert is_qcartier(variety(fan), d)


# ------------------------------------------------------------- canonical


def test_canonical_divisor_classes():
    X2 = variety(projective_space_fan(2))
    assert divisor_class(X2, canonical_divisor(X2)).free in ((-3,), (3,))
    Xq = variety(p1xp1_fan())
    kq = divisor_class(Xq, canonical_divisor(Xq))
    assert sorted(abs(x) for x in kq.free) == [2, 2]


def test_canonical_divisor_coefficients():
    X = variety(projective_space_fan(3))
    assert canonical_divisor(X) == tuple(Fraction(-1) for _ in range(4))
    torus = variety(Fan.from_data([], [], rank=2))
    assert canonical_divisor(torus) == ()


def test_canonical_class_is_minus_n_plus_one_hyperplanes():
    for n in range(1, 5):
        X = variety(projective_space_fan(n))
        line = [1] + [0] * n
        k = divisor_class(X, canonical_divisor(X))
        h = divisor_class(X, line)
        assert k.free == tuple(-(n + 1) * x for x in h.free)


# ------------------------------------------------- weighted projective


def test_wp_fan_p2():
    assert weighted_projective_fan((1, 1, 1)) == projective_space_fan(2)


def test_wp_fan_112():
    fan = weighted_projective_fan((1, 1, 2))
    assert set(fan.rays) == {(1, 0), (0, 1), (-1, -2)}
    # defining relation: sum of weight * ray = 0
    weights = {(1, 0): 1, (0, 1): 2, (-1, -2): 1}
    total = [sum(weights[r] * r[d] for r in fan.rays) for d in range(2)]
    assert total == [0, 0]


def test_wp_fan_1415():
    fan = weighted_projective_fan((1, 4, 1, 5))
    assert validate_fan(fan).valid
    assert is_complete(fan)
    from toriclab.fan import is_simplicial

    assert is_simplicial(fan)


def test_wp_fan_first_weight_not_one():
    # same variety as P(1,1,2) up to reordering the weights
    fan = weighted_projective_fan((2, 1, 1))
    assert validate_fan(fan).valid
    assert is_complete(fan)
    assert class_group(variety(fan)) == AbelianGroupStructure(1, ())


def test_wp_fan_rejects_non_coprime():
    with pytest.raises(ValueError, match="coprime"):
        weighted_projective_fan((2, 2, 4))


# ------------------------------------------------------------------ fano


def test_fano_examples():
    assert is_fano(variety(projective_space_fan(2)))
    assert is_fano(variety(weighted_projective_fan((1, 1, 2))))
    assert not is_fano(variety(hirzebruch_fan(2)))
    assert is_fano(variety(hirzebruch_fan(1)))
    assert not is_fano(variety(hirzebruch_fan(3)))


def test_fano_rejects_unsupported_fans():
    with pytest.raises(ValueError, match="ampleness"):
        is_fano(variety(Fan.from_data([(1, 0), (0, 1)], [(0, 1)])))
    with pytest.raises(ValueError, match="ampleness"):
        is_fano(variety(cone_over_square_fan()))


def _fano_2d_polytope_oracle(fan: Fan, smooth_forms) -> bool:
    """Independent route: a smooth complete 2D fan is Fano iff it is the
    face fan of one of the five smooth Fano polygons."""
    hull = Polytope.hull(fan.rays, rank=2)
    if set(hull.vertices) != set(fan.rays):
        return False
    if face_fan(hull) != fan:
        return False
    return unimodular_normal_form(hull).vertices in smooth_forms


def test_fano_agrees_with_polytope_classification_2d():
    from toriclab.polytope import enumerate_reflexive_polygons

    smooth_forms = {
        unimodular_normal_form(p).vertices
        for p in enumerate_reflexive_polygons()
        if is_smooth_fano_polytope(p)
    }
    assert len(smooth_forms) == 5
    rng = random.Random(31)
    samples = [projective_space_fan(2), p1xp1_fan()] + [hirzebruch_fan(k) for k in range(4)]
    # a few random smooth blow-up chains
    for _ in range(8):
        fan = rng.choice(samples[:2])
        for _ in range(rng.randrange(1, 3)):
            cone = rng.choice(fan.max_cones)
            fan = star_subdivision(fan, cone)
        samples.append(fan)
    from toriclab.fan import is_smooth

    for fan in samples:
        if not is_smooth(fan):
            continue
        assert is_fano(variety(fan)) == _fano_2d_polytope_oracle(fan, smooth_forms)
