import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toriclab.lattice import (
    AbelianGroupStructure,
    det,
    primitive,
    smith_normal_form,
    solve_integer,
    solve_rational,
    vdot,
)

from oracles import cokernel_structure, matmul, minor_gcds, smith_normal_form_three_matrices


def _is_diagonal(M):
    return all(x == 0 for i, row in enumerate(M) for j, x in enumerate(row) if i != j)


def _diagonal(D):
    return tuple(row[i] for i, row in enumerate(D) if i < len(row))


def snf_checks(M):
    U, D, V = smith_normal_form(M, len(M[0]))
    assert matmul(matmul(U, M), V) == D
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    assert _is_diagonal(D)
    diag = [d for d in _diagonal(D) if d != 0]
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    return D


def test_snf_identity():
    M = ((1, 0), (0, 1))
    U, D, V = smith_normal_form(M, 2)
    assert D == M
    assert U == M
    assert V == M


def test_snf_diag23():
    # invariant factors by the gcd-of-minors rule: d1 = 1, d1*d2 = 6
    M = ((2, 0), (0, 3))
    D = snf_checks(M)
    assert _diagonal(D) == (1, 6)


def test_snf_zero_matrix():
    M = ((0, 0, 0), (0, 0, 0))
    D = snf_checks(M)
    assert all(d == 0 for d in _diagonal(D))


def test_snf_invariant_factors_match_minor_gcds_randomized():
    rng = random.Random(20240811)
    for _ in range(200):
        rows = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)]
        D = snf_checks(rows)
        gcds = minor_gcds(rows)
        prod = 1
        for k, d in enumerate(_diagonal(D)):
            prod *= d
            assert prod == gcds[k]


def _entry_bound(rows, ncols):
    """The largest |entry| drawn for a rows x ncols matrix: 30, or 3 above
    16 entries, where the Smith form's coefficients can blow up (README,
    Scope and limitations) and a dense 6 x 6 matrix with entries up to 5
    may not finish."""
    return 30 if rows * ncols <= 16 else 3


def _seeded_matrices(count, seed):
    """`count` seeded (rows, ncols): 0-6 rows, 1-6 columns, dense or
    sparse, some with a zero row or a row that is a multiple of another."""
    rng = random.Random(seed)
    for _ in range(count):
        r, c = rng.randint(0, 6), rng.randint(1, 6)
        bound, zero = _entry_bound(r, c), rng.choice((0, 0.4, 0.8))
        rows = [[0 if rng.random() < zero else rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]
        if r >= 2 and rng.random() < 0.2:
            i, j = rng.sample(range(r), 2)
            k = rng.choice((-2, -1, 1, 2)) if bound > 3 else rng.choice((-1, 1))
            rows[j] = [k * x for x in rows[i]]
        if r and rng.random() < 0.1:
            rows[rng.randrange(r)] = [0] * c
        yield rows, c


NAMED_MATRICES = [
    *(([[0] * c] * r, c) for r in range(7) for c in range(1, 7)),  # zero matrices, no rows at all
    ([[2, 0], [0, 3]], 2),  # the divisibility fix: diag(1, 6)
    ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], 3),
    ([[-2]], 1),  # negative pivots
    ([[-1, 0], [0, -3]], 2),
    ([[0, -4], [-6, 0]], 2),
    ([[0, 1], [1, 0]], 2),  # a tie: the first position in row order
    ([[1, 2, 3], [2, 4, 6], [-1, -2, -3]], 3),  # dependent rows
    ([[0, 0, 0], [3, 0, -3], [0, 0, 0]], 3),  # zero rows
]


def test_smith_form_matches_the_three_matrix_form_on_seeded_matrices():
    for rows, c in [*NAMED_MATRICES, *_seeded_matrices(10_000, 4242)]:
        assert smith_normal_form(rows, c) == smith_normal_form_three_matrices(rows, c), (rows, c)


@st.composite
def _matrices(draw):
    r, c = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    bound = _entry_bound(r, c)
    entries = st.integers(-bound, bound) | st.sampled_from((0, 0, 1, -1))
    return draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)), c


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_matrices())
def test_smith_form_matches_the_three_matrix_form_on_hypothesis_matrices(matrix):
    rows, c = matrix
    assert smith_normal_form(rows, c) == smith_normal_form_three_matrices(rows, c)


def test_primitive():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((1, 0, 0)) == (1, 0, 0)
    assert primitive((-3, -6, 9)) == (-1, -2, 3)


def test_primitive_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        primitive((0, 0))


def test_primitive_idempotent_and_scale_invariant():
    rng = random.Random(3)
    for _ in range(100):
        v = tuple(rng.randrange(-9, 10) for _ in range(3))
        if all(x == 0 for x in v):
            continue
        p = primitive(v)
        assert primitive(p) == p
        k = rng.randrange(1, 5)
        assert primitive(tuple(k * x for x in v)) == p
        assert primitive(tuple(-k * x for x in v)) == tuple(-x for x in p)


def test_cokernel_p2_rays():
    M = ((1, 0), (0, 1), (-1, -1))
    assert cokernel_structure(M, 2) == AbelianGroupStructure(1, ())


def test_cokernel_identity():
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    assert cokernel_structure(identity, 4) == AbelianGroupStructure(0, ())


def test_cokernel_z2():
    assert cokernel_structure([[2]], 1) == AbelianGroupStructure(0, (2,))


def test_cokernel_invariant_under_unimodular_changes():
    rng = random.Random(99)
    base = [[2, 0], [0, 6], [4, 2]]
    reference = cokernel_structure(base, 2)
    elementary = [
        [[1, 0, 0], [1, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[1, 0, 0], [0, 1, 0], [0, -1, 1]],
    ]
    col_elementary = [
        [[1, 1], [0, 1]],
        [[0, 1], [1, 0]],
        [[1, 0], [-1, 1]],
    ]
    for _ in range(50):
        M = base
        for _ in range(rng.randrange(1, 5)):
            M = matmul(rng.choice(elementary), M)
            M = matmul(M, rng.choice(col_elementary))
        assert cokernel_structure(M, 2) == reference


def test_group_structure_rejects_bad_chain():
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (4, 6))
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (1,))


def test_solvers():
    A = ((1, 0), (1, 2))
    # (1, 2): forces x = (1, 1/2), rational but not integral
    assert solve_rational(A, 2, [1, 2]) is not None
    assert solve_integer(A, 2, [1, 2]) is None
    sol = solve_integer(A, 2, [1, 3])
    assert sol is not None and tuple(vdot(row, sol) for row in A) == (1, 3)
    # inconsistent system
    B = ((1, 0), (2, 0))
    assert solve_rational(B, 2, [1, 3]) is None
    assert solve_integer(B, 2, [1, 3]) is None


def test_solve_integer_consistency_randomized():
    rng = random.Random(11)
    for _ in range(100):
        rows = [[rng.randrange(-5, 6) for _ in range(3)] for _ in range(2)]
        x = tuple(rng.randrange(-4, 5) for _ in range(3))
        b = tuple(vdot(row, x) for row in rows)
        sol = solve_integer(rows, 3, b)
        assert sol is not None
        assert tuple(vdot(row, sol) for row in rows) == b


def test_matrix_shapes_are_checked():
    with pytest.raises(ValueError, match="^determinant of non-square matrix$"):
        det([[1, 2]])
    with pytest.raises(ValueError, match="^row width differs from ncols$"):
        smith_normal_form([[1, 2], [3, 4]], 3)


def test_vdot_checks_lengths_and_takes_fractions():
    assert vdot((1, -2, 3), (4, 5, 6)) == 12
    assert vdot((), ()) == 0
    for a, b in (((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ((), (1,))):
        with pytest.raises(ValueError, match="^dot product of vectors of different lengths$"):
            vdot(a, b)
    got = vdot((Fraction(1, 2), Fraction(-2, 3)), (3, Fraction(3, 4)))
    assert got == 1 and type(got) is Fraction
    assert vdot([Fraction(1, 3)] * 3, [1, 1, 1]) == 1


def _divided_by_gcd(v):
    """Every entry of v divided by the gcd of all, as a tuple."""
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def test_primitive_divides_by_the_gcd_into_a_tuple_of_ints():
    rng = random.Random(4040)
    vectors = [(True, 0), (0, False, True), (1,), (-1,), (7,), (-6, 4), [3, 5], [1, 0, 0]]
    for _ in range(300):
        v = [rng.randint(-9, 9) * rng.choice((1, 1, 2, 3, -4)) for _ in range(rng.randint(1, 5))]
        if any(v):
            vectors += [tuple(v), v]
    for v in vectors:
        got = primitive(v)
        assert got == _divided_by_gcd(v) and type(got) is tuple, v
        assert all(type(x) is int for x in got), v
