"""A cone's Smith chart (lattice.SolveChart) against the solves it replaced
(tests/oracles.py): linear pieces, the index, the Cartier test and the
Fano test; and span membership, which reads the cone's echelon instead,
against the LP.  Also the fraction-free rank, the Smith identities, and
ray-order invariance of the pairs answers."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toriclab.catalog import bundled_fans, cone_over_square_fan
from toriclab.fan import Cone, Fan, SolveChart
from toriclab.lattice import det, rank, smith_normal_form, vdot
from toriclab.pairs import ToricPair, index, is_log_cy, log_discrepancy, singularity_type
from toriclab.toric import (
    ToricVariety,
    divisor_class,
    divisor_class_q,
    is_cartier,
    is_fano,
    local_functionals,
    projective_space_fan,
    weighted_projective_fan,
)

from oracles import (
    cone_contains_lp,
    index_scan,
    is_cartier_solve,
    is_fano_functionals,
    local_functionals_solve,
    matmul,
    primitive_distinct,
    random_complete_2d_fan,
    row_echelon,
)
from test_lattice import _is_diagonal

# (name, generators): one affine fan each, every shape the chart must treat
NAMED_CONES = [
    ("quadrant", [(1, 0), (0, 1)]),
    ("det-5 plane cone", [(1, 0), (2, 5)]),
    ("ray in 3D", [(1, 2, 3)]),
    ("plane cone in 3D", [(1, 0, 0), (1, 2, 0)]),
    ("det-11 cone", [(1, 0, 0), (0, 1, 0), (3, 5, 11)]),
    ("cone over the square", [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
    ("cone over the square in 4D", [(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0)]),
    ("cone over a hexagon", [(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)]),
    ("4D simplicial", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 7)]),
    ("4D, three rays", [(1, 0, 2, 0), (0, 1, 0, 3), (1, 1, 1, 1)]),
]

# fans with several maximal cones, some of them lower-dimensional
PLANE_FAN_PLUS_RAY = Fan.from_data(
    [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)], [(0, 1), (1, 2), (0, 2), (3,)]
)
NAMED_FANS = [
    ("P2", projective_space_fan(2)),
    ("P3", projective_space_fan(3)),
    ("P(1,2,3)", weighted_projective_fan((1, 2, 3))),
    ("P(2,3,5)", weighted_projective_fan((2, 3, 5))),
    ("P(1,1,2,3)", weighted_projective_fan((1, 1, 2, 3))),
    ("cone over the square", cone_over_square_fan()),
    ("plane fan plus a ray", PLANE_FAN_PLUS_RAY),
    *bundled_fans(),
]


def _affine(gens):
    """The fan of one cone on the given (primitive, distinct) generators."""
    return Fan.from_data(gens, [tuple(range(len(gens)))])


def _rational(rng, box=6):
    return Fraction(rng.randint(-box, box), rng.randint(1, box))


def _values(rng, fan):
    """Half the time the values of one rational functional (so every cone
    has a piece), otherwise independent random rationals."""
    if rng.random() < 0.5:
        m = [_rational(rng) for _ in range(fan.rank)]
        return [vdot(m, u) for u in fan.rays]
    return [_rational(rng) for _ in fan.rays]


def _check_pieces(fan, values, rng):
    got = local_functionals(fan, values)
    want = local_functionals_solve(fan, values)
    for c, cone, g, w in zip(fan.max_cones, fan.cones, got, want, strict=True):
        assert (g is None) == (w is None), (fan.rays, c, values)
        if g is None:
            continue
        assert all(vdot(g, fan.rays[i]) == values[i] for i in c), (fan.rays, c, values)
        for _ in range(4):  # same values on the cone's span
            lam = [rng.randint(-3, 3) for _ in cone.generators]
            x = [sum(t * u[k] for t, u in zip(lam, cone.generators)) for k in range(fan.rank)]
            assert vdot(g, x) == vdot(w, x), (fan.rays, c, values, x)
        if cone.dim == fan.rank:  # the piece of a full-dimensional cone is unique
            assert g == w, (fan.rays, c, values)


def _boundary(rng, fan):
    """A nonnegative boundary; Q-Cartier half the time (b_i = 1 - <m, u_i>
    for a rational m with <m, u_i> <= 1), otherwise random."""
    if rng.random() < 0.5:
        m = [_rational(rng, 4) for _ in range(fan.rank)]
        vals = [vdot(m, u) for u in fan.rays]
        top = max(vals)
        if top > 1:
            vals = [v / top for v in vals]
        return [1 - v for v in vals]
    return [Fraction(rng.randint(0, 8), rng.randint(1, 7)) for _ in fan.rays]


def _check_index(fan, boundary):
    pair = ToricPair.from_fan(fan, boundary)
    try:
        want = index_scan(pair)
    except ValueError:
        with pytest.raises(ValueError, match="Q-Cartier"):
            index(pair)
        return None
    assert index(pair) == want, (fan.rays, boundary)
    return want


def _check_cartier(fan, rng):
    X = ToricVariety(fan)
    D = [rng.randint(-4, 4) for _ in fan.rays]
    assert is_cartier(X, D) == is_cartier_solve(X, D), (fan.rays, D)
    m = [rng.randint(-3, 3) for _ in range(fan.rank)]
    principal = [-vdot(m, u) for u in fan.rays]  # -div of an integral functional
    assert is_cartier(X, principal) and is_cartier_solve(X, principal)
    half = [Fraction(x, 2) for x in D]
    assert is_cartier(X, half) == is_cartier_solve(X, half), (fan.rays, half)


# ------------------------------------------------- pieces, index, Cartier


@pytest.mark.parametrize("name,gens", NAMED_CONES, ids=[n for n, _ in NAMED_CONES])
def test_named_cones_match_the_solves(name, gens):
    rng = random.Random(name)
    fan = _affine(gens)
    for _ in range(40):
        _check_pieces(fan, _values(rng, fan), rng)
        _check_index(fan, _boundary(rng, fan))
        _check_cartier(fan, rng)


@pytest.mark.parametrize("name,fan", NAMED_FANS, ids=[n for n, _ in NAMED_FANS])
def test_named_fans_match_the_solves(name, fan):
    rng = random.Random(name)
    for _ in range(25):
        _check_pieces(fan, _values(rng, fan), rng)
        _check_index(fan, _boundary(rng, fan))
        _check_cartier(fan, rng)


def test_seeded_cones_of_rank_2_to_4_match_the_solves():
    rng = random.Random(20261018)
    shapes = {"simplicial": 0, "non-simplicial": 0, "lower-dimensional": 0, "q-cartier": 0, "not q-cartier": 0}
    for _ in range(300):
        n = rng.randint(2, 4)
        gens = primitive_distinct([tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n + 2))])
        if not gens:
            continue
        fan = _affine(gens)
        cone = fan.cones[0]
        shapes["simplicial" if len(cone.generators) == cone.dim else "non-simplicial"] += 1
        shapes["lower-dimensional"] += cone.dim < n
        _check_pieces(fan, _values(rng, fan), rng)
        shapes["q-cartier" if _check_index(fan, _boundary(rng, fan)) else "not q-cartier"] += 1
        _check_cartier(fan, rng)
    assert all(shapes.values()), shapes


def test_seeded_complete_2d_fans_match_the_solves():
    rng = random.Random(8)
    for _ in range(60):
        fan = random_complete_2d_fan(rng)
        _check_pieces(fan, _values(rng, fan), rng)
        _check_index(fan, _boundary(rng, fan))
        _check_cartier(fan, rng)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 4).flatmap(lambda n: st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=n + 2)),
    st.integers(0, 10**6),
)
def test_hypothesis_cones_match_the_solves(gens, seed):
    gens = primitive_distinct(gens)
    if not gens:
        return
    rng = random.Random(seed)
    fan = _affine(gens)
    _check_pieces(fan, _values(rng, fan), rng)
    _check_index(fan, _boundary(rng, fan))
    _check_cartier(fan, rng)


# ------------------------------------------------------ the chart itself


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=5)), st.integers(1, 5))
def test_hypothesis_smith_identities(rows, width):
    if rows:
        width = len(rows[0])
    U, D, V = smith_normal_form(rows, width)
    assert matmul(matmul(U, rows), V) == D
    assert abs(det(U)) == 1 and abs(det(V)) == 1
    assert _is_diagonal(D)
    d = tuple(row[i] for i, row in enumerate(D[:width]))
    r = sum(1 for x in d if x != 0)
    assert all(x > 0 for x in d[:r]) and all(x == 0 for x in d[r:]), d
    assert all(b % a == 0 for a, b in zip(d[:r], d[1:r])), d
    assert r == rank(rows)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=1, max_size=5)))
def test_hypothesis_chart_is_a_scaled_generalised_inverse(rows):
    # Z.G = 0 and G.solve(G.e_q) = L.G.e_q for every unit vector e_q,
    # which is column q of G.M.G = L.G for the linear map M that solve
    # applies: solve / L solves every consistent system
    G = tuple(rows)
    n = len(G[0])
    chart = SolveChart.of(G, n)
    for q in range(n):
        column = tuple(row[q] for row in G)
        assert tuple(vdot(row, chart.solve(column)) for row in G) == tuple(chart.L * x for x in column)
    assert all(vdot(z, col) == 0 for z in chart.Z for col in zip(*G))
    assert len(chart.d) + len(chart.Z) == len(G) and len(chart.d) == rank(G)


def test_chart_reads_the_cone_in_fan_order():
    # the chart's rows are the cone's generators, which must follow the
    # fan's ray order within each maximal cone
    for _, fan in NAMED_FANS:
        for c, cone in zip(fan.max_cones, fan.cones):
            assert cone.generators == tuple(fan.rays[i] for i in c)


def test_unimodular_cones_read_the_chart():
    assert Fan.from_data([(1, 0), (1, 1)], [(0, 1)]).cones[0].is_unimodular()
    assert not Fan.from_data([(1, 0), (1, 2)], [(0, 1)]).cones[0].is_unimodular()
    assert not cone_over_square_fan().cones[0].is_unimodular()
    assert Fan.from_data([(1, 0, 0), (0, 1, 0)], [(0, 1)]).cones[0].is_unimodular()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrices_with_no_rows_keep_their_width(n):
    # the cone on no generators and a fan with no rays reach Smith forms
    # of no rows, read at their ncols: V is the ncols x ncols identity
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    chart = SolveChart.of((), n)
    assert (chart.U, chart.d, chart.L, chart.V, chart.Z) == ((), (), 1, identity, ())
    assert chart.solve(()) == (0,) * n
    cone = Cone((), n)
    assert (cone.dim, cone.seeds, cone.facet_data) == (0, (1, ()), ())
    assert cone.contains((0,) * n) and cone.relint_contains((0,) * n) and cone.is_unimodular()
    assert not any(cone.contains(e) or cone.contains(tuple(-x for x in e)) for e in identity)
    _check_span_membership(cone, random.Random(n))
    assert Fan((), (), n).ray_rank == 0


# ------------------------------------------------------------------ rank


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), max_size=6)),
    st.integers(-2, 2),
)
def test_hypothesis_rank_matches_row_echelon(rows, k):
    if len(rows) >= 3:  # force a dependent row
        rows = rows[:-1] + [[k * x + y for x, y in zip(rows[0], rows[1])]]
    width = len(rows[0]) if rows else 3
    assert rank(rows) == len(row_echelon(rows, width)[1])


def _leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i, j in itertools.combinations(range(n), 2) if perm[i] > perm[j])
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5)), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_hypothesis_det_matches_the_leibniz_sum(rows):
    assert det(rows) == _leibniz_det(rows)
    assert (det(rows) != 0) == (rank(rows) == len(rows))


# ------------------------------------------------------- class group rows

TORSION_FANS = [
    ("P2/mu3", Fan.from_data([(2, -1), (-1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)])),
    ("P(1,1,2)", weighted_projective_fan((1, 1, 2))),
    ("cone over the square", cone_over_square_fan()),
    ("P3", projective_space_fan(3)),
]


@pytest.mark.parametrize("name,fan", TORSION_FANS, ids=[n for n, _ in TORSION_FANS])
def test_divisor_classes_are_linear_and_ignore_principal_divisors(name, fan):
    rng = random.Random(name)
    X = ToricVariety(fan)
    for _ in range(40):
        D1 = [rng.randint(-5, 5) for _ in fan.rays]
        D2 = [rng.randint(-5, 5) for _ in fan.rays]
        m = [rng.randint(-4, 4) for _ in range(fan.rank)]
        c1, c2 = divisor_class(X, D1), divisor_class(X, D2)
        assert all(0 <= t < n for t, n in zip(c1.torsion, c1.invariants))
        moved = [x + vdot(m, u) for x, u in zip(D1, fan.rays)]
        assert divisor_class(X, moved) == c1
        total = divisor_class(X, [x + y for x, y in zip(D1, D2)])
        assert total.free == tuple(x + y for x, y in zip(c1.free, c2.free))
        assert total.torsion == tuple((x + y) % n for x, y, n in zip(c1.torsion, c2.torsion, c1.invariants))
        assert divisor_class_q(X, D1) == c1.free
        assert divisor_class_q(X, [Fraction(x, 3) for x in D1]) == tuple(Fraction(x, 3) for x in c1.free)
    if name == "P2/mu3":
        assert c1.invariants == (3,)


# -------------------------------------------------- ray-order invariance


def _pair_answers(pair, points):
    answers = [singularity_type(pair), is_log_cy(pair), index(pair)]
    return answers + [log_discrepancy(pair, p) for p in points]


def _cone_points(fan):
    """A primitive point inside each maximal cone: the primitive sum of its
    rays."""
    out = []
    for c in fan.max_cones:
        s = [sum(fan.rays[i][k] for i in c) for k in range(fan.rank)]
        if any(s):
            out.append(tuple(x // math.gcd(*s) for x in s))
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(range(len(NAMED_FANS))), st.randoms(use_true_random=False))
def test_hypothesis_pairs_answers_ignore_the_ray_order(k, rnd):
    fan = NAMED_FANS[k][1]
    # a Q-Cartier boundary b_i = 1 - <m, u_i>, scaled so that b >= 0
    m = [Fraction(rnd.randint(-3, 3), rnd.randint(2, 5)) for _ in range(fan.rank)]
    vals = [vdot(m, u) for u in fan.rays]
    if max(vals) > 1:
        vals = [v / max(vals) for v in vals]
    coeff = {u: 1 - v for u, v in zip(fan.rays, vals)}
    perm = list(range(len(fan.rays)))
    rnd.shuffle(perm)
    rays = [fan.rays[i] for i in perm]
    where = {old: new for new, old in enumerate(perm)}
    cones = [tuple(reversed([where[i] for i in c])) for c in fan.max_cones]
    moved = Fan.from_data(rays, cones)
    first = ToricPair.from_fan(fan, [coeff[u] for u in fan.rays])
    second = ToricPair.from_fan(moved, [coeff[u] for u in moved.rays])
    points = _cone_points(fan)
    assert _pair_answers(first, points) == _pair_answers(second, points)
    for c, cone in zip(moved.max_cones, moved.cones):
        assert cone.generators == tuple(moved.rays[i] for i in c)


# ------------------------------------------------------ span membership


def _check_span_membership(cone, rng):
    """contains and relint_contains, whose span test reads the cone's
    echelon, against the LP oracle, on points in and out of the span."""
    gens = cone.generators
    points = list(gens) + [tuple(-x for x in g) for g in gens]
    for _ in range(12):
        coeffs = [rng.randint(-2, 3) for _ in gens]
        points.append(tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(cone.rank)))
        points.append(tuple(rng.randint(-3, 3) for _ in range(cone.rank)))
        points.append(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cone.rank)))
    for x in points:
        for strict, test in ((False, cone.contains), (True, cone.relint_contains)):
            assert test(x) == cone_contains_lp(cone, x, strict), (gens, x, strict)


@pytest.mark.parametrize("name,gens", NAMED_CONES, ids=[n for n, _ in NAMED_CONES])
def test_named_span_equations_match_the_lp(name, gens):
    _check_span_membership(Cone.from_generators(gens), random.Random(name))


def test_seeded_span_equations_of_rank_2_to_5_match_the_lp():
    rng = random.Random(5150)
    full = 0
    for n in range(2, 6):
        for trial in range(40):
            # generators inside a random sublattice of rank s: of full rank
            # on even trials, lower on odd ones
            s = n if trial % 2 == 0 else rng.randint(1, n - 1)
            basis = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(s)]
            gens = []
            for _ in range(rng.randint(s, n + 2)):
                c = [rng.randint(0, 2) for _ in range(s)]
                gens.append(tuple(sum(ci * b[i] for ci, b in zip(c, basis)) for i in range(n)))
            gens = primitive_distinct(gens)
            if not gens:
                continue
            cone = Cone.from_generators(gens)
            full += cone.dim == n
            _check_span_membership(cone, rng)
    assert 40 < full <= 80


def test_full_dimensional_cones_have_no_span_equations():
    # membership, the span test included, takes no Smith chart
    for gens in ([(1, 0, 0), (0, 1, 0), (3, 5, 11)], [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]):
        cone = Cone.from_generators(gens)
        _check_span_membership(cone, random.Random(str(gens)))
        assert "solve_chart" not in cone.__dict__
    empty = Cone((), 3)
    assert empty.contains((0, 0, 0)) and not any(empty.contains(e) for e in [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert "solve_chart" not in empty.__dict__


# ------------------------------------------------------------ is_fano


# a Fano fan whose piece on the det-3 cone <(1,0), (-1,3)> is m = (1, 2/3):
# across the wall at (-1,3), m.(-1,2) = 1/3, so (L.m).g = 1 < L = 3; and its
# mirror image, as is_fano looks at each wall from one side only
FANO_FANS = [
    *bundled_fans(),
    *((f"P{n}", projective_space_fan(n)) for n in range(2, 7)),
    *(
        (f"m.g = 1/L, x -> {s}x", Fan.from_data([(s, 0), (-s, 3), (-s, 2), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]))
        for s in (1, -1)
    ),
]


@pytest.mark.parametrize("name,fan", FANO_FANS, ids=[n for n, _ in FANO_FANS])
def test_is_fano_matches_the_fraction_test_on_named_fans(name, fan):
    X = ToricVariety(fan)
    assert is_fano(X) == is_fano_functionals(X)


def test_is_fano_matches_the_fraction_test_on_random_2d_fans():
    rng = random.Random(1018)
    answers = []
    for _ in range(60):
        X = ToricVariety(random_complete_2d_fan(rng))
        answers.append(is_fano(X))
        assert answers[-1] == is_fano_functionals(X)
    assert 0 < sum(answers) < 60
