"""Exact linear algebra: one fraction-free elimination, and Smith normal
forms read through one chart.

All matrices and vectors carry plain Python integers (arbitrary precision),
and every routine here is a pure function on immutable values.  Lattice
vectors are ordinary tuples of ints; their length is the ambient rank.  A
matrix is its integer rows, one format throughout: taken as any sequence
of rows, returned as a tuple of tuples.  A routine whose matrix may have
no rows also takes its column count `ncols`.  Rational data become
integers in one reader, the only such code in the package: `_over_lcm`,
the lcm A of the denominators and each value times A.
The split is by the question asked.  Rational questions read `echelon`,
a fraction-free Gauss-Jordan routine on integer rows and the only
elimination over Q in the package: `rank`, `det` and `solve_rational`
here, and a cone's dimension, seeds, span and double description
(fan.Cone._echelon, one cached echelon per cone; a full-dimensional cone
in rank 2 or 3 seeds from cofactors instead, with no run).  Lattice
questions read a `SolveChart`, through which every Smith form is read:
integer solves, class groups and left kernels, and a cone's
unimodularity, the pieces of a lower-dimensional cone and the
parallelepiped of a simplex.  A chart keeps U, d and V of U.G.V =
diag(d) and solves G m = a as L.m = V.y, y_i = (L / d_i) U[i].a.
`smith_normal_form` works on one augmented matrix, as `echelon` carries
its transform in extra columns: M's rows followed by U's, with V's rows
below, so each row or column operation is written once and moves its
transform along.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from toriclab._value import Value

Vec = tuple[int, ...]


def vdot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise ValueError("dot product of vectors of different lengths")
    return sum(map(operator.mul, a, b))


def primitive(v: Vec) -> Vec:
    """Divide a nonzero integer vector by the gcd of its entries.

    The direction is preserved: ``primitive(k*v) == primitive(v)`` for
    ``k > 0`` and ``== -primitive(v)`` for ``k < 0``.
    """
    g = math.gcd(*v) if v else 0
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple([x // g for x in v])


def _over_lcm(values: Iterable) -> tuple[int, list[int]]:
    """(A, [A.v for v in values]), A the lcm of the values' denominators
    (1 for no values), each value read by as_integer_ratio: an int or
    Fraction as it stands, anything else (a float, a Decimal, a string
    such as '1/2') after Fraction(v), which raises on what it rejects.

    >>> _over_lcm([Fraction(1, 2), -2, '2/3'])
    (6, [3, -12, 4])
    """
    ratios = [(v if isinstance(v, (int, Fraction)) else Fraction(v)).as_integer_ratio() for v in values]
    A = math.lcm(*[d for _, d in ratios])
    return A, [n * (A // d) for n, d in ratios]


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


class AbelianGroupStructure(Value):
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
    # one augmented matrix: row i < rows is M's row i then U's, and the
    # cols rows below hold V, so a row operation moves U along with M and
    # an operation on the first cols columns of every row moves V
    w = [[*r, *[0] * i, 1, *[0] * (rows - 1 - i)] for i, r in enumerate(M)]
    w += [[0] * i + [1] + [0] * (cols - 1 - i) for i in range(cols)]
    t = 0
    while block := [(abs(w[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if w[i][j]]:
        _, i, j = min(block)  # the least |entry|, ties to the first in row order
        w[t], w[i] = w[i], w[t]
        for r in w:
            r[t], r[j] = r[j], r[t]
        done = False
        while not done:
            # clear column t then row t; a smaller remainder becomes the
            # pivot, so loop until neither leaves one
            done = True
            for i in range(t + 1, rows):
                if w[i][t]:
                    q = w[i][t] // w[t][t]
                    w[i] = [x - q * y for x, y in zip(w[i], w[t])]
                    if w[i][t]:
                        w[t], w[i] = w[i], w[t]
                        done = False
            for j in range(t + 1, cols):
                if w[t][j]:
                    q = w[t][j] // w[t][t]
                    for r in w:
                        r[j] -= q * r[t]
                    if w[t][j]:
                        for r in w:
                            r[t], r[j] = r[j], r[t]
                        done = False
        # force divisibility of the whole trailing block by the pivot
        bad = next((i for i in range(t + 1, rows) for j in range(t + 1, cols) if w[i][j] % w[t][t]), None)
        if bad is not None:
            w[t] = [x + y for x, y in zip(w[t], w[bad])]
            continue  # redo this slot; pivot magnitude strictly drops
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
        t += 1
    return tuple([tuple(r[cols:]) for r in w[:rows]]), tuple([tuple(r[:cols]) for r in w[:rows]]), tuple(map(tuple, w[rows:]))


class SolveChart(Value):
    """One Smith form U.G.V = diag(d) of an integer matrix G (its rows,
    `ncols` wide), read as an integer solver for G m = a; the only reader
    of `smith_normal_form`.  U and V are kept as tuples of integer rows.
    It answers lattice questions only: integer solves and class groups,
    the unimodularity of a cone that is not full-dimensional simplicial
    and the pieces of a lower-dimensional one (fan.Cone.solve_chart), and
    the parallelepiped of the least log discrepancy on each simplex of
    Cone.triangulation.
    Rational questions (ranks, spans, facets, the pieces of a
    full-dimensional cone off its seeds) read `echelon`, or in rank 2 and
    3 the cofactor seeds that stand in for it (fan._seed_echelon).

    d holds the r nonzero invariants and L = d[r-1] is the largest (1 when
    r = 0), and Z = U[r:]: G m = a has a rational solution iff Z.a = 0,
    and then m = V.y / L, with y_i = (L / d_i) U[i].a for i < r, is the
    one whose free Smith coordinates (V^-1 m)_i, i >= r, vanish.  As V is
    unimodular, an integral solution exists iff that m is integral, i.e.
    iff L divides V.y.  The rows of Z span the left kernel of G, and
    Z^rows / column image of G is Z^(rows - r) + sum Z/d_i.
    """

    U: tuple[Vec, ...]
    d: tuple[int, ...]
    L: int
    V: tuple[Vec, ...]
    Z: tuple[Vec, ...]

    @classmethod
    def of(cls, G: Sequence[Sequence[int]], ncols: int) -> "SolveChart":
        U, D, V = smith_normal_form(G, ncols)
        d = tuple(row[i] for i, row in enumerate(D[:ncols]) if row[i])
        return cls(U, d, d[-1] if d else 1, V, U[len(d) :])

    def solve(self, a: Sequence[int]) -> Optional[Vec]:
        """L.m for the chart's solution m of G m = a (a integral), or None
        when G m = a has no rational solution."""
        if any(vdot(z, a) for z in self.Z):
            return None
        y = [self.L // di * vdot(u, a) for di, u in zip(self.d, self.U)]
        # y has r entries, so each row of V is read on its first r columns
        return tuple(sum(map(operator.mul, row, y)) for row in self.V)


def solve_rational(A: Sequence[Sequence[int]], ncols: int, b: Sequence) -> Optional[tuple[Fraction, ...]]:
    """One exact solution x of A x = b over Q (A integer rows, `ncols`
    wide), or None if inconsistent: `echelon` on [A | B.b], B the lcm of
    the denominators of b (_over_lcm), gives None when B.b takes a pivot
    and else the x that is 0 off the pivots."""
    if len(b) != len(A):
        raise ValueError("shape mismatch")
    B, scaled = _over_lcm(b)
    a, pivots, last = echelon([(*row, x) for row, x in zip(A, scaled)], ncols + 1)
    if pivots and pivots[-1][1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for r, col in pivots:
        x[col] = Fraction(a[r][-1], last * B)
    return tuple(x)


def solve_integer(A: Sequence[Sequence[int]], ncols: int, b: Sequence) -> Optional[Vec]:
    """One integer solution x of A x = b (A integer rows, `ncols` wide),
    or None if none exists, as when some entry of b is not an integer."""
    if len(b) != len(A):
        raise ValueError("shape mismatch")
    chart = SolveChart.of(A, ncols)
    B, scaled = _over_lcm(b)
    lm = chart.solve(scaled) if B == 1 else None
    if lm is None or any(x % chart.L for x in lm):
        return None
    return tuple(x // chart.L for x in lm)
