"""The one elimination over Q (lattice.echelon) against the eliminations it
replaced (tests/oracles.py: swapping Gauss-Jordan over Fractions,
forward-only Bareiss, the gcd-reduced seeding loop of the double
description), the Leibniz sum and gcds of minors; its readers rank,
det, solve_rational and double_description; and the cofactor seeds of
rows spanning Q^2 or Q^3 against the elimination they stand in for."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toriclab import fan as fan_module, lattice
from toriclab.fan import double_description
from toriclab.lattice import det, echelon, rank, solve_integer, solve_rational, vdot

from oracles import det_bareiss, double_description_seeds, minor_gcds, row_echelon


def _leibniz(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        flips = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** flips * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def _check_echelon(rows, ncols):
    """echelon against row_echelon: same pivot columns, every pivot row is
    `last` times the reduced row on the first ncols columns, the rest
    vanish there, and `last` is the minor on the pivot rows and columns."""
    a, pivots, last = echelon(rows, ncols)
    ref, ref_pivots = row_echelon(rows, ncols)
    assert tuple(c for _, c in pivots) == ref_pivots, rows
    assert len({r for r, _ in pivots}) == len(pivots)
    for (r, _), want in zip(pivots, ref):
        assert a[r][:ncols] == [last * x for x in want[:ncols]], rows
    for i in set(range(len(rows))) - {r for r, _ in pivots}:
        assert not any(a[i][:ncols]), rows
    minor = [[rows[r][c] for _, c in pivots] for r, _ in pivots]
    assert last == det_bareiss(minor), rows
    if len(rows) == ncols:
        assert det(rows) == det_bareiss(rows)
    return a, pivots, last


def _random_rows(rng, big=False):
    m, n = rng.randint(0, 5), rng.randint(1, 5)
    top = 10**30 if big else 4
    rows = [[rng.choice((0, 0, rng.randint(-top, top))) for _ in range(n)] for _ in range(m)]
    if m >= 3 and rng.random() < 0.4:  # a dependent row
        k = rng.randint(-3, 3)
        rows[-1] = [k * x + y for x, y in zip(rows[0], rows[1])]
    return rows, n


def _solve_row_echelon(rows, b, cols):
    """solve_rational as it read the Fraction Gauss-Jordan rows."""
    a, pivots = row_echelon([list(row) + [x] for row, x in zip(rows, b)], cols)
    if any(row[cols] != 0 for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for i, col in enumerate(pivots):
        x[col] = a[i][cols]
    return tuple(x)


# ------------------------------------------------------------- the routine


def test_named_shapes():
    assert echelon([], 3) == ([], (), 1)
    assert det(()) == 1
    assert rank(()) == 0
    assert rank([[0, 0, 0], [0, 0, 0]]) == 0
    # a pivot-free column between two pivots
    a, pivots, last = _check_echelon([[1, 2, 0], [2, 4, 3]], 3)
    assert pivots == ((0, 0), (1, 2)) and last == 3
    assert a == [[3, 6, 0], [0, 0, 3]]
    # dependent rows: the second pivot sits in the third row
    _, pivots, _ = _check_echelon([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 3)
    assert pivots == ((0, 0), (2, 1))
    assert det([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 0
    # a zero leading column and rows out of order: det reads the row order
    assert det([[0, 2], [3, 1]]) == -6
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    # extra columns ride along
    a, _, last = echelon([[2, 0, 7], [0, 3, 5]], 2)
    assert (a, last) == ([[6, 0, 21], [0, 6, 10]], 6)


def test_seeded_matrices_match_the_oracles():
    rng = random.Random(20261018)
    for trial in range(400):
        rows, n = _random_rows(rng, big=trial % 4 == 0)
        _, pivots, _ = _check_echelon(rows, n)
        if rows and trial % 4:
            assert len(pivots) == sum(1 for g in minor_gcds(rows) if g), rows
        k = min(len(rows), n)
        square = [row[:k] for row in rows[:k]]
        assert det(square) == _leibniz(square), square


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(-(10**30), 10**30) | st.sampled_from((0, 0, 1, -1)), min_size=n, max_size=n),
                max_size=6,
            ),
        )
    )
)
def test_hypothesis_matrices_match_the_oracles(shape):
    n, rows = shape
    _, pivots, _ = _check_echelon(rows, n)
    assert rank(rows) == len(pivots)
    k = min(len(rows), n)
    square = [row[:k] for row in rows[:k]]
    assert det(square) == _leibniz(square)


# ---------------------------------------------------------- rational solve


def test_solve_rational_matches_the_row_echelon_solve():
    rng = random.Random(77)
    seen = set()
    for trial in range(400):
        rows, n = _random_rows(rng, big=trial % 5 == 0)
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in rows]
        if rows and rng.random() < 0.5:  # consistent on purpose
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            b = [vdot(row, x) for row in rows]
        got = solve_rational(rows, n, b)
        assert got == _solve_row_echelon(rows, b, n), (rows, b)
        if got is not None:
            assert [vdot(row, got) for row in rows] == b
        seen.add(got is None)
    assert seen == {True, False}


@pytest.mark.parametrize("b", [[1, 2, 3], [1]], ids=["long", "short"])
def test_solves_reject_a_right_hand_side_of_the_wrong_length(b):
    A = [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_rational(A, 2, b)
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_integer(A, 2, b)
    assert solve_rational(A, 2, [1, 2]) == (1, 2)
    assert solve_integer(A, 2, [1, 2]) == (1, 2)


# ------------------------------------------------------ double description


def _check_seeds(rows):
    """The double description's pivot set, and its facets on the seed rows
    alone, equal the gcd-reduced seeding loop's pivot set and functionals
    (the pivots' order is the seeding's own: cofactor seeds take (0, 1[,
    2]))."""
    pivots, seeds, rays = double_description_seeds(rows)
    got_pivots, _, _ = double_description(rows)
    assert sorted(got_pivots) == sorted(pivots), rows
    sub_pivots, facets, _ = double_description([rows[s] for s in seeds])
    assert sorted(sub_pivots) == sorted(pivots), rows
    want = []
    for h, mask in rays:
        padded = [0] * len(rows[0])
        for c, x in zip(pivots, h):
            padded[c] = x
        want.append((tuple(padded), frozenset(j for j, s in enumerate(seeds) if mask >> s & 1)))
    assert facets == want, rows
    for j, ((h, members), s) in enumerate(zip(facets, seeds)):  # each positive on its own seed
        assert vdot(h, rows[s]) > 0 and j not in members


def test_negative_last_pivot_orients_the_seed_functionals():
    rows = [(-1, 0), (0, 1)]
    _, _, last = echelon([[g[c] for g in rows] + [int(c == j) for j in range(2)] for c in range(2)], 2)
    assert last < 0
    _check_seeds(rows)
    assert double_description(rows)[1] == [((-1, 0), frozenset({1})), ((0, 1), frozenset({0}))]


def test_seeded_rows_match_the_seeding_loop():
    rng = random.Random(4242)
    for trial in range(300):
        n = rng.randint(1, 4)
        top = 10**30 if trial % 5 == 0 else 5
        rows = [tuple(rng.randint(-top, top) for _ in range(n)) for _ in range(rng.randint(1, 7))]
        rows = [r for r in rows if any(r)]
        if rows:
            _check_seeds(rows)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n).filter(any).map(tuple), min_size=1, max_size=7
        )
    )
)
def test_hypothesis_rows_match_the_seeding_loop(rows):
    _check_seeds(rows)


def test_each_reader_runs_the_routine_once(count_calls):
    calls = count_calls("echelon", lattice, fan_module)
    M = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    for run in (
        lambda: rank(M),
        lambda: det(M),
        lambda: solve_rational(M, 3, [1, 2, 3]),
        lambda: double_description([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1), (0, 0, 1, 0), (0, 0, 0, 1)]),
    ):
        calls.clear()
        run()
        assert len(calls) == 1
    # rows spanning Q^3 read the elimination's output off cofactors
    calls.clear()
    double_description([(1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)])
    assert calls == []


# ------------------------------------------------------ cofactor seeds


def _elimination_seeds(rows, n):
    """_seed_echelon as the elimination of [G^T | I] gives it."""
    k = len(rows)
    T, pivots, last = echelon([[g[c] for g in rows] + [int(c == j) for j in range(n)] for c in range(n)], k)
    return tuple(tuple(row[k:]) for row in T), pivots, last


def _check_seed_echelon(rows, n, eliminations):
    """_seed_echelon(rows, n) seeds from the elimination's pivot columns,
    runs one elimination exactly when the rows do not span Q^2 or Q^3,
    and its pivot rows H[c] take `last` on their own seed and 0 on the
    others; returns the facts the callers count."""
    eliminations.clear()
    got = H, pivots, last = fan_module._seed_echelon(rows, n)
    assert len(eliminations) == (0 if 2 <= n <= 3 and len(pivots) == n else 1), (rows, n)
    want = _elimination_seeds(rows, n)
    assert [s for _, s in pivots] == [s for _, s in want[1]], (rows, n)
    if rows:  # the same facets as the elimination's seeds give
        assert fan_module._double_description(rows, got)[1] == fan_module._double_description(rows, want)[1], rows
    spans = len(pivots) == n
    for c, s in pivots:
        assert [vdot(H[c], rows[t]) for _, t in pivots] == [last * (t == s) for _, t in pivots], (rows, n)
    assert last == det_bareiss([[rows[s][c] for _, s in pivots] for c, _ in pivots])
    if spans:
        assert abs(last) == abs(det_bareiss([rows[s] for _, s in pivots]))
    facts = {
        "spanning": spans,
        "deficient": not spans,
        "rows out of order": [c for c, _ in pivots] != sorted(c for c, _ in pivots),
        "dependent leading rows": spans and [s for _, s in pivots] != list(range(n)),
        "big": any(abs(x) > 10**20 for g in rows for x in g),
        "last < 0": spans and last < 0,
        "last > 0": spans and last > 0,
        "no rows": not rows,
        f"n = {n}": True,
    }
    return {fact for fact, holds in facts.items() if holds}


def _seeded_seed_rows(rng):
    n = rng.choice((1, 2, 2, 3, 3, 3, 4))
    top = 10**30 if rng.random() < 0.2 else rng.choice((1, 3, 9))
    rows = [tuple(rng.choice((0, rng.randint(-top, top))) for _ in range(n)) for _ in range(rng.randint(0, 7))]
    shape = rng.random()
    if len(rows) >= 2 and shape < 0.3:  # a dependent leading row
        k = rng.choice((-2, -1, 1, 3))
        rows[1] = tuple(k * x for x in rows[0])
    elif rows and shape < 0.45:  # every row in one hyperplane or line
        basis = [tuple(rng.randint(-top, top) for _ in range(n)) for _ in range(max(1, n - 1))]
        rows = [tuple(sum(rng.randint(-2, 2) * b[c] for b in basis) for c in range(n)) for _ in rows]
    return [g for g in rows if any(g) or rng.random() < 0.1], n


def test_seeded_rows_seed_from_cofactors_as_the_elimination_does(count_calls):
    eliminations = count_calls("echelon", fan_module)
    rng = random.Random(20261019)
    seen = set()
    for _ in range(10_000):
        seen |= _check_seed_echelon(*_seeded_seed_rows(rng), eliminations)
    for n in (1, 4):
        seen |= _check_seed_echelon([], n, eliminations)
    assert seen == {
        "spanning",
        "deficient",
        "rows out of order",
        "dependent leading rows",
        "big",
        "last < 0",
        "last > 0",
        "no rows",
        "n = 1",
        "n = 2",
        "n = 3",
        "n = 4",
    }


def test_hypothesis_rows_seed_from_cofactors_as_the_elimination_does(count_calls):
    eliminations = count_calls("echelon", fan_module)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-(10**30), 10**30) | st.integers(-3, 3), min_size=n, max_size=n).map(tuple),
                    max_size=7,
                ),
                st.just(n),
            )
        )
    )
    def check(shape):
        _check_seed_echelon(*shape, eliminations)

    check()
