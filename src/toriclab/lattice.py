"""Exact linear algebra: one fraction-free elimination, and Smith normal
forms read through one chart.

All matrices and vectors carry plain Python integers (arbitrary precision),
and every routine here is a pure function on immutable values.  Lattice
vectors are ordinary tuples of ints; their length is the ambient rank.  A
matrix is its integer rows, one format throughout: taken as any sequence
of rows, returned as a tuple of tuples.  A routine whose matrix may have
no rows also takes its column count `ncols`.
The split is by the question asked.  Rational questions read `echelon`,
a fraction-free Gauss-Jordan routine on integer rows and the only
elimination over Q in the package: `rank`, `det` and `solve_rational`
here, and a cone's dimension, seeds, span and double description
(fan.Cone, one cached echelon per cone).  Lattice questions read a
`SolveChart`, through which every Smith form is read: integer solves,
class groups and left kernels, and a cone's unimodularity, the pieces of
a lower-dimensional cone and the parallelepiped of a simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

Vec = tuple[int, ...]


def vdot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b, strict=True))


def is_zero(a: Sequence) -> bool:
    return all(x == 0 for x in a)


def primitive(v: Vec) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries.

    The direction is preserved: ``primitive(k*v) == primitive(v)`` for
    ``k > 0`` and ``== -primitive(v)`` for ``k < 0``.
    """
    g = math.gcd(*v) if v else 0
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def echelon(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[list[int]], tuple[tuple[int, int], ...], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss
    1968; Nakos, Turner and Williams 1997): the one elimination over Q.

    Pivots are taken in the first `ncols` columns, left to right, each in
    the first row not yet holding one; rows stay in place and later
    columns ride along.  Pivot p in row x maps every other row y to
    (p.y - f.x) / prev, f = y's entry in the pivot column, prev the last
    pivot (first 1), exactly: every entry stays a minor (Sylvester).
    Returns (rows, pivots, last), pivots as (row, column): every pivot row
    ends with `last`, the minor on the pivot rows (in pivot order) and
    columns, in its pivot column and 0 in the others; the other rows
    vanish on the first `ncols` columns.

    >>> echelon([[2, 4, 2], [1, 3, 2]], 2)
    ([[2, 0, -2], [0, 2, 2]], ((0, 0), (1, 1)), 2)
    """
    a = [list(row) for row in rows]
    pivots, free, prev = [], list(range(len(a))), 1
    for col in range(ncols):
        for r in free:
            if a[r][col]:
                break
        else:
            continue
        x = a[r]
        p = x[col]
        for i, y in enumerate(a):
            if i == r:
                continue
            f = y[col]
            if f:
                a[i] = [(p * u - f * v) // prev for u, v in zip(y, x)]
            elif p != prev:
                a[i] = [p * u // prev for u in y]
        free.remove(r)
        pivots.append((r, col))
        prev = p
        if not free:
            break
    return a, tuple(pivots), prev


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of square integer rows: `echelon`'s last pivot,
    signed by its row order."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of non-square matrix")
    _, pivots, last = echelon(rows, n)
    order = [r for r, _ in pivots]
    flips = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
    return 0 if len(order) < n else (-1) ** flips * last


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of integer rows: the number of pivots of `echelon`, on
    the rows or on their transpose, whichever has fewer rows to update at
    each pivot."""
    width = len(rows[0]) if rows else 0
    if len(rows) > width:
        rows, width = tuple(zip(*rows)), len(rows)
    return len(echelon(rows, width)[1])


@dataclass(frozen=True)
class AbelianGroupStructure:
    """A finitely generated abelian group Z^free_rank + sum Z/d_i.

    The torsion invariants satisfy d_i >= 2 and d_i | d_{i+1}.
    """

    free_rank: int
    torsion_invariants: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for d in self.torsion_invariants:
            if d < 2:
                raise ValueError("torsion invariant below 2")
        for a, b in zip(self.torsion_invariants, self.torsion_invariants[1:]):
            if b % a != 0:
                raise ValueError("torsion invariants violate divisibility chain")


def _pick_pivot(a, t, rows, cols):
    """Smallest nonzero |entry| in the trailing block; ties by (row, col)."""
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            x = a[i][j]
            if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(M: Sequence[Sequence[int]], ncols: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...], tuple[Vec, ...]]:
    """Smith normal form of the integer rows M, `ncols` wide: returns
    (U, D, V), each a tuple of rows, with D = U * M * V.

    U and V are unimodular, D is diagonal with non-negative entries
    satisfying d_i | d_{i+1}.  Pivoting always picks the smallest nonzero
    entry in absolute value (ties broken by position), so the transforms
    are reproducible.  With no rows, V is the ncols x ncols identity.

    >>> smith_normal_form([[2, 0], [0, 3]], 2)[1]
    ((1, 0), (0, 6))
    """
    rows, cols = len(M), ncols
    if any(len(r) != cols for r in M):
        raise ValueError("row width differs from ncols")
    a = [list(r) for r in M]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, k):
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, k):
        for r in a:
            r[dst] += k * r[src]
        for r in v:
            r[dst] += k * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while True:
        pos = _pick_pivot(a, t, rows, cols)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # clear column t then row t; a new pivot may surface, so loop
            done = True
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:  # remainder strictly smaller: re-pivot
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        # force divisibility of the whole trailing block by the pivot
        bad = next(
            (
                (i, j)
                for i in range(t + 1, rows)
                for j in range(t + 1, cols)
                if a[i][j] % a[t][t] != 0
            ),
            None,
        )
        if bad is not None:
            add_row(t, bad[0], 1)
            continue  # redo this slot; pivot magnitude strictly drops
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return tuple(map(tuple, u)), tuple(map(tuple, a)), tuple(map(tuple, v))


@dataclass(frozen=True)
class SolveChart:
    """One Smith form U.G.V = diag(d) of an integer matrix G (its rows,
    `ncols` wide), read as an integer solver for G m = a; the only reader
    of `smith_normal_form`.  U is kept as a tuple of integer rows, and V
    only through M.
    It answers lattice questions only: integer solves and class groups,
    the unimodularity of a cone that is not full-dimensional simplicial
    and the pieces of a lower-dimensional one (fan.Cone.solve_chart), and
    the parallelepiped of the least log discrepancy on each simplex of
    Cone.triangulation.
    Rational questions (ranks, spans, facets, the pieces of a
    full-dimensional cone off its seeds) read `echelon`.

    d holds the r nonzero invariants and L = d[r-1] is the largest (1 when
    r = 0).  M = sum over i < r of (L / d_i) V[:, i] (x) U[i] and Z = U[r:]:
    G m = a has a rational solution iff Z.a = 0, and then m = M.a / L is
    the one whose free Smith coordinates (V^-1 m)_i, i >= r, vanish.  As V
    is unimodular, an integral solution exists iff that m is integral, i.e.
    iff L divides M.a.  The rows of Z span the left kernel of G, and
    Z^rows / column image of G is Z^(rows - r) + sum Z/d_i.
    """

    U: tuple[Vec, ...]
    d: tuple[int, ...]
    L: int
    M: tuple[Vec, ...]
    Z: tuple[Vec, ...]

    @classmethod
    def of(cls, G: Sequence[Sequence[int]], ncols: int) -> "SolveChart":
        U, D, V = smith_normal_form(G, ncols)
        d = tuple(row[i] for i, row in enumerate(D[:ncols]) if row[i])
        r = len(d)
        L = d[-1] if d else 1
        scaled = [[L // di * x for x in row] for di, row in zip(d, U)]
        M = tuple(tuple(sum(vrow[i] * scaled[i][q] for i in range(r)) for q in range(len(G))) for vrow in V)
        return cls(U, d, L, M, U[r:])

    def solve(self, a: Sequence[int]) -> Optional[Vec]:
        """L.m for the chart's solution m of G m = a (a integral), or None
        when G m = a has no rational solution."""
        if any(vdot(z, a) for z in self.Z):
            return None
        return tuple(vdot(row, a) for row in self.M)


def solve_rational(A: Sequence[Sequence[int]], ncols: int, b: Sequence) -> Optional[tuple[Fraction, ...]]:
    """One exact solution x of A x = b over Q (A integer rows, `ncols`
    wide), or None if inconsistent: `echelon` on [A | B.b], B the lcm of
    the denominators of b, gives None when B.b takes a pivot and else the
    x that is 0 off the pivots."""
    if len(b) != len(A):
        raise ValueError("shape mismatch")
    b = [Fraction(x) for x in b]
    B = math.lcm(*(x.denominator for x in b))
    a, pivots, last = echelon([(*row, int(x * B)) for row, x in zip(A, b)], ncols + 1)
    if pivots and pivots[-1][1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for r, col in pivots:
        x[col] = Fraction(a[r][-1], last * B)
    return tuple(x)


def solve_integer(A: Sequence[Sequence[int]], ncols: int, b: Sequence[int]) -> Optional[Vec]:
    """One integer solution x of A x = b (A integer rows, `ncols` wide),
    or None if none exists."""
    if len(b) != len(A):
        raise ValueError("shape mismatch")
    chart = SolveChart.of(A, ncols)
    lm = chart.solve(tuple(int(x) for x in b))
    if lm is None or any(x % chart.L for x in lm):
        return None
    return tuple(x // chart.L for x in lm)
