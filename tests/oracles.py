"""Brute-force oracles used by the tests.

Each oracle recomputes expected values by a route different from the
library's own: gcds of minors instead of elimination, Gauss-Jordan
over Fractions and forward Bareiss elimination (both with row swaps) and a
gcd-reduced seeding loop instead of the one fraction-free echelon, exhaustive
lattice scans instead of region arithmetic, angular walks instead of wall
counting, angular scans and walks instead of the reflexive-polygon
descent, Fourier-Motzkin elimination and simplex pivots instead of the
double description's lineality test, subset scans and simplex LPs
instead of its facets, Gauss-Jordan solves instead of a cone's dual
basis and Smith chart, determinantal divisors instead of integer solves
and the closed form of the index, a Fraction nullspace and scanned facet
normals instead of a cone's span equations and facets for point
location, the pairwise scan with a separating functional by the simplex
instead of the wall criterion, the determinant of each scanned facet's
vertex matrix instead of a polygon's cached edge determinants for
smoothness, a per-cone LP scan and an unoriented cover of scanned walls
with connectivity instead of rays located once and the oriented wall
test for refinements, every independent subset of a cone's generators,
its box read off the adjugate of a minor, instead of its triangulation
for the least log discrepancy, ranks by Gauss-Jordan pivots and Fraction
pieces of psi instead of its integer record, the GL(2,Z) search instead
of the norm-reduced polygon normal form, a Vieta-jump search with a seen
set instead of the Markov tree walk, gcds of the weights instead of the
closed forms of the Markov hypersurfaces, and `markov table` rows
formatted from those hypersurfaces' data.  numpy is used only here, with
integer dtypes, to keep the scans fast; the library itself stays pure.

No oracle calls a library routine on the way to its answer, so none
agrees with the library only where that routine is right.  Library
objects are read as data only:
- the value fields of the classes imported here, such as
  Cone.generators and rank, Fan.rays, max_cones and rank,
  ToricPair.boundary, Polytope.vertices, rank and dim, and Fan.cones,
  the maximal cones as Cone values;
- Polytope.hull, to build a polygon that is an answer;
- `piece(psi, k)`, the tests' one reader of the library's own psi record.
tests/test_surface.py holds the file to that rule.

`smith_normal_form_three_matrices` is the library's Smith form as it was
before it worked on one augmented matrix: the same operations in the
same order, so it checks that rewrite exactly, not the mathematics.

It also holds the few helpers the library dropped because nothing in it
calls them: the cokernel structure of an integer matrix (read as rows
beside their column count, the one matrix format of lattice; computed
from determinantal divisors, not a Smith form), the principal and canonical
divisors, the restriction of a boundary to a coarser fan, the Fraction
pieces of psi and the boundary a decomposition sums to.  Tests build
their inputs and references from them, and multiply integer rows with
`matmul`.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import Optional, Sequence

import numpy as np

from toriclab.fan import Cone, Diagnostics, Fan
from toriclab.lattice import AbelianGroupStructure, Vec
from toriclab.markov import HkwSurfaceData, MarkovTriple


def _dot(a, b):  # of equal lengths, which every caller here ensures
    return sum(map(operator.mul, a, b))


# ---------------------------------------------------------------- lattice

# The two eliminations lattice.echelon replaced, kept as references:
# Gauss-Jordan over Fraction rows with row swaps, and forward-only Bareiss
# elimination with row swaps.  Neither shares code with echelon.


def row_echelon(rows: Sequence[Sequence], ncols: int) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row echelon form over Q, by exact Gauss-Jordan elimination.

    Pivots are taken in the first `ncols` columns only, so columns past
    them (a right-hand side, say) ride along.  Returns (rows, pivots): the
    first len(pivots) rows carry a 1 in their pivot column and 0 in every
    other pivot column; the remaining rows vanish on the first `ncols`
    columns.

    >>> row_echelon([[2, 4, 2], [1, 3, 2]], 2)[1]
    (0, 1)
    """
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        lead = a[r][col]
        if lead != 1:
            a[r] = [x / lead for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, tuple(pivots)


def _bareiss(rows: Sequence[Sequence[int]], ncols: int) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) elimination of integer rows, skipping
    columns without a pivot.  Returns (rank, sign of the row swaps, last
    pivot); every division is exact, since each entry stays a minor of
    the input (Sylvester's identity)."""
    a = [list(row) for row in rows]
    n = len(a)
    r, sign, prev = 0, 1, 1
    for col in range(ncols):
        if r == n:
            break
        if a[r][col] == 0:
            piv = next((i for i in range(r + 1, n) if a[i][col] != 0), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[col]
        for row in a[r + 1 :]:  # column col is never read again
            f = row[col]
            for j in range(col + 1, ncols):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
        r += 1
    return r, sign, prev


def det_bareiss(rows) -> int:
    """The determinant of a square integer matrix from `_bareiss`."""
    r, sign, last = _bareiss(rows, len(rows))
    return sign * last if r == len(rows) else 0


# lattice.smith_normal_form as it was before it worked on one augmented
# matrix, kept as its reference: three matrices (a, U, V) and one closure
# per elementary operation, each applied to two of them.  The pivots, operations and their order are the
# library's, so (U, D, V) must agree exactly.


def _pick_pivot(a, t, rows, cols):
    """Smallest nonzero |entry| in the trailing block; ties by (row, col)."""
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            x = a[i][j]
            if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form_three_matrices(M: Sequence[Sequence[int]], ncols: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...], tuple[Vec, ...]]:
    """Smith normal form of the integer rows M, `ncols` wide: returns
    (U, D, V), each a tuple of rows, with D = U * M * V.

    U and V are unimodular, D is diagonal with non-negative entries
    satisfying d_i | d_{i+1}.  Pivoting always picks the smallest nonzero
    entry in absolute value (ties broken by position), so the transforms
    are reproducible.  With no rows, V is the ncols x ncols identity.

    >>> smith_normal_form_three_matrices([[2, 0], [0, 3]], 2)[1]
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


def double_description_seeds(rows):
    """The seeds of a double-description run by Gauss-Jordan elimination
    of the transposed rows beside an identity, each new row divided by the
    gcd of its entries: (pivot coordinates, seed rows, [(functional,
    bitmask of the seeds it vanishes on)]), one primitive functional per
    seed, zero off the pivots and positive on its own seed."""
    k, n = len(rows), len(rows[0])
    # row c of T: (values on every row, coefficients) of one functional
    T = [[g[c] for g in rows] + [int(c == j) for j in range(n)] for c in range(n)]
    seeds, pivots = [], []
    for s in range(k):
        c = next((c for c in range(n) if T[c][s] and c not in pivots), None)
        if c is None:
            continue
        p = T[c]
        for i, row in enumerate(T):
            f = row[s]
            if f and i != c:
                row = [p[s] * x - f * y for x, y in zip(row, p)]
                q = math.gcd(*row)
                T[i] = [x // q for x in row]
        seeds.append(s)
        pivots.append(c)
    full = sum(1 << s for s in seeds)
    rays = []
    for c, s in zip(pivots, seeds):
        h = [T[c][k + j] for j in pivots]
        q = math.gcd(*h) if T[c][s] > 0 else -math.gcd(*h)
        rays.append((tuple(x // q for x in h), full & ~(1 << s)))
    return tuple(pivots), tuple(seeds), rays


def nullspace(rows: Sequence[Sequence], width: int) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of { h : h.row = 0 for all rows } over Q, one vector per free
    column of the echelon form (1 there, 0 on the other free columns)."""
    a, pivots = row_echelon(rows, width)
    basis = []
    for fc in range(width):
        if fc in pivots:
            continue
        h = [Fraction(0)] * width
        h[fc] = Fraction(1)
        for row, col in enumerate(pivots):
            h[col] = -a[row][fc]
        basis.append(tuple(h))
    return tuple(basis)


def _rank(rows) -> int:
    """The rank of an integer matrix given as rows, by `_bareiss`."""
    return _bareiss(rows, len(rows[0]))[0] if rows else 0


def minor_gcds(rows, kmax=None):
    """gcd of all k x k minors, for k = 1..kmax; 0 entries mean no nonzero
    minor of that size."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if kmax is None:
        kmax = min(m, n)
    out = []
    for k in range(1, kmax + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, _det_int(sub))
                if g == 1:
                    break  # no further minor changes it
            if g == 1:
                break
        out.append(g)
    return out


def _det_int(a):
    a = [row[:] for row in a]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def cokernel_structure(rows, ncols: int) -> AbelianGroupStructure:
    """Structure of Z^rows modulo the column image of the integer rows,
    `ncols` wide, from determinantal divisors: with D_k the gcd of the k x k
    minors and r the rank, the free rank is rows - r and the invariant
    factors are d_k = D_k / D_(k-1), ones dropped."""
    gcds = [g for g in minor_gcds(rows, min(len(rows), ncols)) if g != 0]
    invariants = [g // prev for prev, g in zip([1] + gcds, gcds)]
    return AbelianGroupStructure(len(rows) - len(gcds), tuple(d for d in invariants if d >= 2))


def matmul(A, B) -> tuple[tuple[int, ...], ...]:
    """The product of two matrices given as rows (B has at least one row)."""
    if any(len(row) != len(B) for row in A):
        raise ValueError("shape mismatch")
    columns = tuple(zip(*B))
    return tuple(tuple(_dot(row, col) for col in columns) for row in A)


# ------------------------------------------------------ linear feasibility

# Fourier-Motzkin elimination decides the same systems as
# fan.linear_feasible without any pivoting: a constraint is (coeffs, rhs,
# kind) and reads  coeffs . x  <kind>  rhs  with kind one of "eq", "ge" (>=)
# or "gt" (>).  Doubly exponential in the worst case, so only for the small
# systems the tests generate.


def _normalize(con):
    # scale so the first nonzero coefficient is +-1; cheap dedupe aid
    coeffs, rhs, kind = con
    lead = next((c for c in coeffs if c != 0), None)
    if lead is None:
        return con
    s = abs(lead)
    return (tuple(c / s for c in coeffs), rhs / s, kind)


def linear_feasible_fm(
    nvars: int,
    equalities: Sequence[tuple[Sequence, object]] = (),
    gte: Sequence[tuple[Sequence, object]] = (),
    gt: Sequence[tuple[Sequence, object]] = (),
) -> bool:
    """Decide whether the mixed system { a.x = b, c.x >= d, e.x > f } has
    a rational solution.  Exact; intended for the small systems cone
    geometry produces."""
    cons = [(tuple(Fraction(c) for c in a), Fraction(b), "eq") for a, b in equalities]
    cons += [(tuple(Fraction(c) for c in a), Fraction(b), "ge") for a, b in gte]
    cons += [(tuple(Fraction(c) for c in a), Fraction(b), "gt") for a, b in gt]

    # eliminate equalities by substitution
    live = list(range(nvars))
    while True:
        eq = next((c for c in cons if c[2] == "eq" and any(x != 0 for x in c[0])), None)
        if eq is None:
            break
        cons.remove(eq)
        coeffs, rhs, _ = eq
        j = next(i for i, x in enumerate(coeffs) if x != 0)
        pivot = coeffs[j]
        new_cons = []
        for c2, r2, k2 in cons:
            f = c2[j] / pivot
            if f != 0:
                c2 = tuple(x - f * y for x, y in zip(c2, coeffs))
                r2 = r2 - f * rhs
            new_cons.append((c2, r2, k2))
        cons = new_cons
        if j in live:
            live.remove(j)

    # Fourier-Motzkin on the remaining inequalities
    for j in live:
        lowers, uppers, rest = [], [], []
        for coeffs, rhs, kind in cons:
            if kind == "eq":
                rest.append((coeffs, rhs, kind))
            elif coeffs[j] > 0:
                lowers.append((coeffs, rhs, kind))
            elif coeffs[j] < 0:
                uppers.append((coeffs, rhs, kind))
            else:
                rest.append((coeffs, rhs, kind))
        new = rest
        for (cl, rl, kl), (cu, ru, ku) in itertools.product(lowers, uppers):
            a, b = cl[j], -cu[j]
            comb = tuple(b * x + a * y for x, y in zip(cl, cu))
            rhs = b * rl + a * ru
            kind = "gt" if "gt" in (kl, ku) else "ge"
            new.append((comb, rhs, kind))
        cons = list({_normalize(c) for c in new})

    for coeffs, rhs, kind in cons:
        if any(x != 0 for x in coeffs):
            raise RuntimeError("Fourier-Motzkin invariant broken: a variable survived elimination")
        if kind == "eq" and rhs != 0:
            return False
        if kind == "ge" and rhs > 0:
            return False
        if kind == "gt" and rhs >= 0:
            return False
    return True


# ------------------------------------- linear feasibility by the simplex

# The two-phase simplex the double description replaced in fan.py, moved
# here unchanged: the oracle for fan.linear_feasible, and the LP behind the
# cone and polytope oracles below.

# A system is three lists of (coeffs, rhs) pairs: equalities a.x = b,
# inequalities a.x >= b and strict inequalities a.x > b.  Each constraint is
# scaled once by the lcm of its denominators, so every tableau below holds
# integers only.

_EQ, _GE, _GT = 0, 1, 2


def linear_feasible_simplex(
    nvars: int,
    equalities: Sequence[tuple[Sequence, object]] = (),
    gte: Sequence[tuple[Sequence, object]] = (),
    gt: Sequence[tuple[Sequence, object]] = (),
) -> bool:
    """Decide whether the mixed system { a.x = b, c.x >= d, e.x > f } has
    a rational solution.  Exact: one simplex run, on the system itself
    when every variable carries a sign bound (x_j >= 0 or x_j > 0 among
    the inequalities), on its Farkas dual otherwise."""
    return _solve(nvars, equalities, gte, gt)[0]


def feasibility_certificate_simplex(
    nvars: int,
    equalities: Sequence[tuple[Sequence, object]] = (),
    gte: Sequence[tuple[Sequence, object]] = (),
    gt: Sequence[tuple[Sequence, object]] = (),
) -> tuple[bool, tuple[Fraction, ...]]:
    """The verdict of `linear_feasible_simplex` with a certificate that a
    separate checker can verify exactly.

    (True, x): x satisfies every constraint.  (False, y): one multiplier
    per constraint, equalities first, then gte, then gt, with y >= 0 on
    the inequalities and sum y_i a_i = 0, and either y.b > 0, or y.b = 0
    and y > 0 on some strict inequality (Motzkin's transposition theorem).
    """
    feasible, certify = _solve(nvars, equalities, gte, gt)
    return feasible, certify()


def _solve(nvars, equalities, gte, gt):
    """(verdict, function computing its certificate)."""
    cons = [
        (*_integral(a, b, nvars), kind)
        for kind, rows in ((_EQ, equalities), (_GE, gte), (_GT, gt))
        for a, b in rows
    ]
    # sign bounds: variable -> the constraint x_j >= 0 or x_j > 0 (strict wins)
    bound = {}
    for i, (a, b, _, kind) in enumerate(cons):
        if kind != _EQ and b == 0:
            nonzero = [j for j, x in enumerate(a) if x]
            if len(nonzero) == 1 and a[nonzero[0]] > 0 and (nonzero[0] not in bound or kind == _GT):
                bound[nonzero[0]] = i
    if len(bound) == nvars:
        return _primal(nvars, cons, bound)
    return _dual(nvars, cons)


def _integral(coeffs, rhs, nvars):
    """(integer coeffs, integer rhs, scale): the constraint times the lcm
    of its denominators, which has the same solutions."""
    if len(coeffs) != nvars:
        raise ValueError("constraint length differs from the number of variables")
    if type(rhs) is int and all(type(x) is int for x in coeffs):
        return list(coeffs), rhs, 1
    vals = [Fraction(x) for x in (*coeffs, rhs)]
    scale = math.lcm(*(x.denominator for x in vals))
    ints = [x.numerator * (scale // x.denominator) for x in vals]
    return ints[:-1], ints[-1], scale


def _primal(n, cons, bound):
    """Every variable is sign-bounded, so it is a nonnegative column: x_j
    itself, or mu_j with x_j = mu_j + t for a strict bound.  Every other
    constraint is a row; an inequality gets a slack column s, a.x - s = b
    (a.x - s - t = b when strict).  With anything strict, t + u = 1 is one
    more row and phase 2 maximises t, stopping once t > 0."""
    strict_vars = {j for j, i in bound.items() if cons[i][3] == _GT}
    bound_rows = set(bound.values())
    row_cons = [i for i in range(len(cons)) if i not in bound_rows]
    strict = bool(strict_vars) or any(cons[i][3] == _GT for i in row_cons)
    t = n + sum(cons[i][3] != _EQ for i in row_cons)
    ncols = t + 2 if strict else t
    rows, rhs = [], []
    slack = n
    for i in row_cons:
        a, b, _, kind = cons[i]
        row = a + [0] * (ncols - n)
        if kind != _EQ:
            row[slack] = -1
            slack += 1
        if strict:
            row[t] = sum(a[j] for j in strict_vars) - (kind == _GT)
        rows.append(row)
        rhs.append(b)
    if strict:
        rows.append([0] * t + [1, 1])
        rhs.append(1)
    tab = _Tableau(rows, rhs, ncols)
    feasible = tab.phase_one() and (not strict or tab.raise_column(t))

    def certify():
        if feasible:
            v = tab.solution()
            lift = v[t] if strict else 0
            return tuple(v[j] + lift if j in strict_vars else v[j] for j in range(n))
        pi = tab.multipliers()
        y = [Fraction(0)] * len(cons)
        for r, i in enumerate(row_cons):
            y[i] = -pi[r]
        for j, i in bound.items():  # the bound reads c x_j >= 0 for some c > 0
            y[i] = sum(p * row[j] for p, row in zip(pi, rows)) / cons[i][0][j]
        return tuple(x * c[2] for x, c in zip(y, cons))

    return feasible, certify


def _dual(n, cons):
    """Some variable is free.  Homogenised by tau > 0, the system is
    infeasible iff some y, free on equalities and >= 0 elsewhere, has
    sum y_i a_i = 0 and sum y_i (b_i + [i strict]) = 1 with y.b >= 0
    (Motzkin); without strict constraints y.b = 1 already.  That is one
    column per constraint (two per equality) and n + 1 rows, plus the row
    y.b - y_tau = 0 when something is strict."""
    strict = any(c[3] == _GT for c in cons)
    cols = [(i, s) for i, c in enumerate(cons) for s in ((1, -1) if c[3] == _EQ else (1,))]
    rows = [[s * cons[i][0][r] for i, s in cols] for r in range(n)]
    rows.append([s * (cons[i][1] + (cons[i][3] == _GT)) for i, s in cols])
    rhs = [0] * n + [1]
    if strict:
        rows = [row + [0] for row in rows]
        rows.append([s * cons[i][1] for i, s in cols] + [-1])
        rhs.append(0)
    tab = _Tableau(rows, rhs, len(cols) + strict)
    feasible = not tab.phase_one()

    def certify():
        if not feasible:
            y = [Fraction(0)] * len(cons)
            for (i, s), v in zip(cols, tab.solution()):
                y[i] += s * v
            return tuple(x * c[2] for x, c in zip(y, cons))
        # pi.M >= 0 and pi.c < 0: x = pi[:n] / sigma meets every constraint
        pi = tab.multipliers()
        sigma = -sum(pi[n:])
        return tuple(p / sigma for p in pi[:n])

    return feasible, certify


class _Tableau:
    """Simplex tableau for { v >= 0 : M v = c }, M and c integer.

    Rows are kept fraction-free: for the current basis B they hold
    det(B) * B^-1 [M | c], integers by Cramer's rule, so a pivot on p sets
    x <- (p*x - f*y) // det exactly (Bareiss), and det stays positive.
    Rows with c_i < 0 are negated first.  A row starts on a unit column of
    M if it has one, on an implicit artificial column (index ncols + i)
    otherwise; artificials never re-enter, so their columns are not
    stored.  Bland's rule (least entering column, ties in the ratio test
    to the least basic index) rules out cycling.  The objective is the
    last row, holding det times the negated reduced costs and the value.
    """

    def __init__(self, rows, rhs, ncols):
        self.ncols = ncols
        self.m = len(rows)
        self.sign = [-1 if c < 0 else 1 for c in rhs]
        self.rows = [[s * x for x in (*row, c)] for s, row, c in zip(self.sign, rows, rhs)]
        self.det = 1
        self.basis = [ncols + i for i in range(self.m)]
        for j in range(ncols):
            hits = [i for i, row in enumerate(self.rows) if row[j]]
            if len(hits) == 1 and self.rows[hits[0]][j] == 1 and self.basis[hits[0]] >= ncols:
                self.basis[hits[0]] = j
        self.T = list(self.rows)
        self.cost = None

    def phase_one(self) -> bool:
        """Maximise minus the sum of the artificials; True iff it reaches
        zero, i.e. iff M v = c has a solution v >= 0."""
        n, m = self.ncols, self.m
        art = [row for row, j in zip(self.rows, self.basis) if j >= n]
        self.T.append([-sum(col) for col in zip(*art)] if art else [0] * (n + 1))
        self.cost = lambda j: -(j >= n)
        self._run(lambda: self.T[m][n] == 0)
        value = self.T[m][n]
        if value > 0:
            raise RuntimeError("simplex invariant broken: positive phase-1 value")
        return value == 0

    def raise_column(self, t: int) -> bool:
        """Phase 2: maximise v_t, stopping once it is positive; True iff it
        can be.  Artificials left basic at zero are pivoted out first where
        their row has a nonzero entry (a row without one is redundant and
        stays zero)."""
        n, m = self.ncols, self.m
        for i in range(m):
            if self.basis[i] >= n:
                j = next((j for j in range(n) if self.T[i][j]), None)
                if j is not None:
                    self._pivot(i, j)
        obj = [0] * (n + 1)
        obj[t] = -self.det
        if t in self.basis:
            obj = [x + y for x, y in zip(obj, self.T[self.basis.index(t)])]
        self.T[m] = obj
        self.cost = lambda j: int(j == t)

        def positive():
            return t in self.basis and self.T[self.basis.index(t)][n] > 0

        self._run(positive)
        return positive()

    def _run(self, done):
        n, m, basis = self.ncols, self.m, self.basis
        while not done():
            T = self.T
            obj = T[m]
            c = next((j for j in range(n) if obj[j] < 0), None)
            if c is None:
                return
            r = None
            for i in range(m):
                a = T[i][c]
                if a > 0:
                    if r is not None:
                        lhs, rhs = T[i][n] * den, num * a
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[r]):
                            continue
                    r, num, den = i, T[i][n], a
            if r is None:
                raise RuntimeError("simplex invariant broken: unbounded objective")
            self._pivot(r, c)

    def _pivot(self, r, c):
        T, det = self.T, self.det
        pr = T[r]
        p = pr[c]
        for i, row in enumerate(T):
            if i != r:
                f = row[c]
                T[i] = [(p * x - f * y) // det for x, y in zip(row, pr)]
        if p < 0:
            self.T = [[-x for x in row] for row in T]
            p = -p
        self.det = p
        self.basis[r] = c

    def solution(self) -> list[Fraction]:
        """The current basic solution, one value per column of M."""
        n = self.ncols
        v = [Fraction(0)] * n
        for row, j in zip(self.T, self.basis):
            if j < n:
                v[j] = Fraction(row[n], self.det)
        return v

    def multipliers(self) -> list[Fraction]:
        """Simplex multipliers of the current basis B and objective: pi
        with pi.B = the costs of the basic columns, for the rows as given
        (before any negation).  At an optimum pi.M_j >= cost_j on every
        column."""
        n, m = self.ncols, self.m
        eqs = [
            ([row[j] for row in self.rows] if j < n else [int(i == j - n) for i in range(m)]) + [self.cost(j)]
            for j in self.basis
        ]
        reduced, pivots = row_echelon(eqs, m)
        if len(pivots) != m:
            raise RuntimeError("simplex invariant broken: singular basis")
        return [s * row[m] for s, row in zip(self.sign, reduced)]


# -------------------------------------------------------- 2D cone lattice


def det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def parallelogram_lattice_points(u, w):
    """Lattice points s*u + t*w with s, t in [0, 1]."""
    corners = [(0, 0), u, w, (u[0] + w[0], u[1] + w[1])]
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    d = det2(u, w)
    pts = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            s_num = x * w[1] - y * w[0]
            t_num = -x * u[1] + y * u[0]
            s, t = Fraction(s_num, d), Fraction(t_num, d)
            if 0 <= s <= 1 and 0 <= t <= 1:
                pts.append((x, y))
    return pts


def _primitive2(v):
    g = math.gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


def hilbert_basis_2d(u, w):
    """Hilbert basis of the 2D cone spanned by u, w, by direct minimality
    testing inside the fundamental parallelogram."""
    u, w = _primitive2(u), _primitive2(w)
    if det2(u, w) < 0:
        u, w = w, u
    pts = [p for p in parallelogram_lattice_points(u, w) if p != (0, 0)]
    pts_set = set(pts)
    basis = []
    for p in pts:
        decomposable = any(
            (p[0] - q[0], p[1] - q[1]) in pts_set
            for q in pts
            if q != p and q != (0, 0) and (p[0] - q[0], p[1] - q[1]) != (0, 0)
        )
        if not decomposable:
            basis.append(p)
    return sorted(basis)


def expected_2d_insertions(u, w):
    """Hilbert basis members that are not generators, in boundary order
    (walking counterclockwise from the lex-smaller generator)."""
    u, w = sorted((_primitive2(u), _primitive2(w)))
    if det2(u, w) < 0:
        u, w = w, u
    inserted = [p for p in hilbert_basis_2d(u, w) if p not in (u, w)]

    def cmp(p, q):
        d = det2(p, q)
        return -1 if d > 0 else (1 if d < 0 else 0)

    return sorted(inserted, key=cmp_to_key(cmp))


# -------------------------------------------- singularity brute force


def classify_cone_brute(gens, box_factor=4):
    """Classify the affine toric variety of a simplicial cone (no
    boundary) by scanning every primitive lattice point with coordinates
    up to box_factor times the largest generator coordinate.

    Returns 'terminal', 'canonical' or 'klt' according to the minimum of
    the discrepancy function over the exceptional points found.
    """
    G = np.array(gens, dtype=np.int64)  # rows are generators
    n = G.shape[1]
    assert G.shape[0] == n, "oracle needs a simplicial full-dimensional cone"
    det = _det_int([list(map(int, row)) for row in G])
    assert det != 0
    adj = np.array(_adjugate_int(G.T), dtype=np.int64)  # G.T @ adj/det = identity
    L = box_factor * int(np.max(np.abs(G)))
    axes = [np.arange(-L, L + 1, dtype=np.int64) for _ in range(n)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    pts = pts[np.any(pts != 0, axis=1)]
    lam = pts @ adj.T  # det * barycentric coordinates
    sign = 1 if det > 0 else -1
    inside = np.all(sign * lam >= 0, axis=1)
    pts = pts[inside]
    lam = lam[inside]
    prim = np.gcd.reduce(np.abs(pts), axis=1) == 1
    pts = pts[prim]
    lam = lam[prim]
    gen_set = {tuple(map(int, g)) for g in G}
    keep = np.array([tuple(map(int, p)) not in gen_set for p in pts])
    pts = pts[keep]
    lam = lam[keep]
    if len(pts) == 0:
        return "terminal"
    # discrepancy of v is sum(lam)/|det|; compare with 1 in integers
    sums = sign * np.sum(lam, axis=1)
    absdet = abs(det)
    if np.any(sums < absdet):
        return "klt"
    if np.any(sums == absdet):
        return "canonical"
    return "terminal"


def _adjugate_int(M):
    """The adjugate of a square integer matrix: M adj(M) = det(M) I."""
    M = [[int(x) for x in row] for row in M]
    n = len(M)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [M[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * _det_int(minor)
    return adj


def classify_pair_brute(fan: Fan, boundary, box_factor=4):
    """Pure-python version for small pairs with rational coefficients;
    scans primitive points of the support, computing psi cone by cone."""
    from toriclab.pairs import ToricPair

    pair = ToricPair.from_fan(fan, boundary)
    if any(b > 1 for b in pair.boundary):
        return "not-lc"
    psi = LogDiscrepancyFunctionPieces(pair)
    L = box_factor * max(abs(x) for r in fan.rays for x in r)
    values = []
    rays = set(fan.rays)
    for pt in itertools.product(range(-L, L + 1), repeat=fan.rank):
        if all(x == 0 for x in pt) or math.gcd(*pt) != 1 or pt in rays:
            continue
        k = psi.locate(pt)
        if k is None:
            continue
        values.append(Fraction(_dot(psi.piece(k), pt)))
    if any(b == 1 for b in pair.boundary):
        return "lc"
    if not values:
        return "terminal"
    worst = min(values)
    if worst < 1:
        return "klt"
    return "canonical" if worst == 1 else "terminal"


def singularity_type_scan(pair):
    """The box scan the closed form replaced: per maximal cone, every
    primitive point of the box spanned by the rays scaled by 1/(1 - b_i),
    tested for membership and evaluated on the cone's linear piece, both
    read off LogDiscrepancyFunctionPieces.  The box volume grows like
    (1/(1 - b))^n, so keep b away from 1."""
    if any(b > 1 for b in pair.boundary):
        return "not-lc"
    psi = LogDiscrepancyFunctionPieces(pair)
    if any(b == 1 for b in pair.boundary):
        return "lc"
    fan = pair.fan
    rays = set(fan.rays)
    worst = None
    for k, c in enumerate(fan.max_cones):
        lo, hi = [0] * fan.rank, [0] * fan.rank
        for i in c:
            scale = 1 / (1 - pair.boundary[i])
            for d in range(fan.rank):
                x = Fraction(fan.rays[i][d]) * scale
                lo[d] = min(lo[d], math.floor(x))
                hi[d] = max(hi[d], math.ceil(x))
        for pt in itertools.product(*(range(lo[d], hi[d] + 1) for d in range(fan.rank))):
            if all(x == 0 for x in pt) or math.gcd(*pt) != 1 or pt in rays or not psi.in_cone(k, pt):
                continue
            value = Fraction(_dot(psi.piece(k), pt))
            if value <= 1:
                worst = value if worst is None else min(worst, value)
    if worst is None or worst > 1:
        return "terminal"
    return "canonical" if worst == 1 else "klt"


def least_psi_all_subsets(cone: Cone, alpha: Sequence[int], A: int) -> Optional[int]:
    """The Caratheodory search Cone.triangulation replaced in
    pairs._least_exceptional_psi: the sign of (least psi) - 1 over the
    candidates of every linearly independent dim-subset of the generators
    (its nonzero parallelepiped points and the sums a_i + a_j), on every
    call.

    A subset's parallelepiped is read off a nonsingular k x k minor B of
    its rows, k = dim: a lattice point x of the span is sum lambda_i g_i
    with lambda = x_J adj(B) / det B for the minor's columns J, so modulo 1
    the lambda are t / N, N = |det B|, for t in the group of the N residues
    the rows of sign(det B).adj(B) generate modulo N; the residues whose
    lift sum t_i g_i / N is integral are the box points."""
    rays, dim = cone.generators, _rank(cone.generators)
    best = None
    for sub in itertools.combinations(range(len(rays)), dim):
        gens = [rays[i] for i in sub]
        for cols in itertools.combinations(range(cone.rank), dim):
            B = [[g[j] for j in cols] for g in gens]
            D = _det_int(B)
            if D:
                break
        else:
            continue  # linearly dependent subset
        N = abs(D)
        steps = [[(x if D > 0 else -x) % N for x in row] for row in _adjugate_int(B)]
        residues, todo = {(0,) * dim}, [(0,) * dim]
        while todo:
            t = todo.pop()
            for step in steps:
                u = tuple((x + y) % N for x, y in zip(t, step))
                if u not in residues:
                    residues.add(u)
                    todo.append(u)
        # integers throughout: psi = value / (N * A)
        a = [alpha[i] for i in sub]
        pairs_sums = (N * (x + y) for x, y in itertools.combinations(a, 2))
        box_points = (
            _dot(a, t)
            for t in residues
            if any(t) and all(_dot(t, column) % N == 0 for column in zip(*gens))
        )
        low = min(itertools.chain(pairs_sums, box_points), default=None)
        if low is not None:
            sign = (low > N * A) - (low < N * A)
            best = sign if best is None else min(best, sign)
    return best


# Divisors and boundaries the tests build their inputs from; the library
# holds none of them, as nothing in it calls them.


def principal_divisor(X, character) -> tuple:
    """div(chi^m): coefficient <m, u_i> on the ray u_i."""
    return tuple(Fraction(_dot(character, u)) for u in X.fan.rays)


def canonical_divisor(X) -> tuple:
    """K_X = minus the sum of the torus-invariant prime divisors."""
    return tuple(Fraction(-1) for _ in X.fan.rays)


def restrict_boundary(pair, coarse: Fan):
    """Push the boundary forward to a coarser fan by dropping the rays that
    are not rays of that fan."""
    from toriclab.pairs import ToricPair

    lookup = {ray: pair.boundary[i] for i, ray in enumerate(pair.fan.rays)}
    try:
        coeffs = tuple(lookup[ray] for ray in coarse.rays)
    except KeyError as e:
        raise ValueError(f"ray {e.args[0]} missing from the finer fan") from e
    return ToricPair.from_fan(coarse, coeffs)


def local_functionals_solve(fan: Fan, values: Sequence) -> list[Optional[tuple[Fraction, ...]]]:
    """For each maximal cone, some m with <m, u_i> = values[i] on the
    cone's rays u_i, or None where no such m exists: row_echelon of
    [G | values] for the cone's ray rows G, with 0 on the free columns."""
    out = []
    for c in fan.max_cones:
        reduced, pivots = row_echelon([(*fan.rays[i], values[i]) for i in c], fan.rank)
        if any(row[fan.rank] for row in reduced[len(pivots) :]):
            out.append(None)
            continue
        m = [Fraction(0)] * fan.rank
        for row, col in zip(reduced, pivots):
            m[col] = row[fan.rank]
        if any(_dot(m, fan.rays[i]) != values[i] for i in c):
            raise RuntimeError("linear solve broken: local functional misses a prescribed value on a ray")
        out.append(tuple(m))
    return out


def is_cartier_solve(X, D: Sequence) -> bool:
    """Like is_qcartier but the functional must be integral.  On each
    maximal cone, with G its ray rows and b = -D on them, G m = b has a
    solution over Z iff G and [G | b] have the same rank r and the same gcd
    of r x r minors (minor_gcds)."""
    coeffs = [Fraction(c) for c in D]
    if any(c.denominator != 1 for c in coeffs):
        return False
    fan = X.fan
    for c in fan.max_cones:
        G = [fan.rays[i] for i in c]
        augmented = [(*g, -int(coeffs[i])) for g, i in zip(G, c)]
        r = _rank(G)
        if _rank(augmented) != r or (r and minor_gcds(augmented, r)[-1] != minor_gcds(G, r)[-1]):
            return False
    return True


def index_scan(pair):
    """The m-scan the closed form replaced: least m with every coefficient
    of m(K+B) integral and is_cartier_solve.  Those m are the multiples of
    the index, and the coefficient lcm times the lcm of the cones' lattice
    indices, read off minor gcds, is one of them when K+B is Q-Cartier; so
    only its divisors are tried, in increasing order.  Raises if none is
    Cartier, as K+B is then not Q-Cartier."""
    fan = pair.fan
    kb = tuple(b - 1 for b in pair.boundary)
    cone_lcm = 1
    for c in fan.max_cones:
        # minor gcds are nonzero exactly up to the rank; the last is d_1...d_r
        nonzero = [g for g in minor_gcds([list(fan.rays[i]) for i in c]) if g != 0]
        cone_lcm = math.lcm(cone_lcm, nonzero[-1])
    bound = math.lcm(*(c.denominator for c in kb)) * cone_lcm
    small = [m for m in range(1, math.isqrt(bound) + 1) if bound % m == 0]
    for m in sorted({*small, *(bound // m for m in small)}):
        scaled = [m * x for x in kb]
        if all(x.denominator == 1 for x in scaled) and is_cartier_solve(pair.variety, scaled):
            return m
    raise ValueError("no divisor of the bound makes K+B Cartier: not Q-Cartier")


# The Fraction and rank readings of the pair invariants that the integer
# psi record replaced, every rank by `_rank`.


class LogDiscrepancyFunctionPieces:
    """The PL function psi with psi(u_i) = 1 - b_i, one linear piece per
    maximal cone from local_functionals_solve.  A point is located in the
    first maximal cone, in order, whose span equations (nullspace) vanish
    on it and whose facet normals (facet_data_scan) are >= 0 on it.  Exists
    exactly when K+B is Q-Cartier."""

    def __init__(self, pair):
        self.pair = pair
        self._pieces = local_functionals_solve(pair.fan, [1 - b for b in pair.boundary])
        if any(m is None for m in self._pieces):
            raise ValueError("K+B is not Q-Cartier; no log discrepancy function")
        self._cone_halfspaces = None  # _halfspaces of each maximal cone, on first need

    def piece(self, cone_index: int) -> tuple[Fraction, ...]:
        return self._pieces[cone_index]

    def in_cone(self, cone_index: int, v: Sequence) -> bool:
        fan = self.pair.fan
        if len(v) != fan.rank:
            raise ValueError("point length differs from ambient rank")
        if self._cone_halfspaces is None:
            self._cone_halfspaces = [_halfspaces(cone) for cone in fan.cones]
        equations, normals = self._cone_halfspaces[cone_index]
        return not any(_dot(e, v) for e in equations) and all(_dot(h, v) >= 0 for h in normals)

    def locate(self, v: Sequence) -> Optional[int]:
        return next((k for k in range(len(self._pieces)) if self.in_cone(k, v)), None)

    cone_index_of = locate  # the name pairs.LogDiscrepancyFunction gives it

    def __call__(self, v: Sequence) -> Fraction:
        k = self.locate(v)
        if k is None:
            raise ValueError("valuation not visible in this fan: point outside the support")
        return Fraction(_dot(self._pieces[k], v))


@lru_cache(maxsize=1024)
def _halfspaces(cone):
    """(span equations, facet normals) of a cone, each scaled to integers:
    the nullspace of its generators and the normals of facet_data_scan.  A
    line has no facets, as it is its own span."""
    def integral(v):
        scale = math.lcm(*(x.denominator for x in v))
        return tuple(int(x * scale) for x in v)

    try:
        normals = tuple(integral(h) for _, h in facet_data_scan(cone))
    except ValueError:  # a line
        normals = ()
    return tuple(map(integral, nullspace(cone.generators, cone.rank))), normals


def piece(psi, cone_index: int) -> tuple[Fraction, ...]:
    """The linear piece of psi (pairs.LogDiscrepancyFunction) on a maximal
    cone, as Fractions: L.A.m over L.A."""
    LA, lm = psi.scaled[cone_index]
    return tuple(Fraction(x, LA) for x in lm)


def coefficient_vector(decomposition, ray_count: int) -> tuple[Fraction, ...]:
    """The boundary a decomposition sums to, one coefficient per ray."""
    coeffs = [Fraction(0)] * ray_count
    for alpha, rays in decomposition.parts:
        for i in rays:
            if not 0 <= i < ray_count:
                raise ValueError("part mentions a ray index outside the fan")
            coeffs[i] += alpha
    return tuple(coeffs)


def is_log_cy_rank(pair) -> bool:
    """Log Calabi-Yau as the rank test: lc, K+B Q-Cartier (else
    ValueError), and rank[R | A(1 - b)] = rank R."""
    if any(b > 1 for b in pair.boundary):
        return False
    LogDiscrepancyFunctionPieces(pair)  # raises if K+B is not Q-Cartier
    A = math.lcm(*(b.denominator for b in pair.boundary))
    extended = [(*u, int(A * (1 - b))) for u, b in zip(pair.fan.rays, pair.boundary)]
    return _rank(extended) == _rank(pair.fan.rays)


def complexity_rho_rank(pair, decomposition) -> int:
    """rho = rank[P; R^T] - rank R, P the parts' indicator rows, in one
    elimination over every column."""
    n = len(pair.fan.rays)
    parts = [tuple(int(i in part) for i in range(n)) for _, part in decomposition.parts]
    columns = list(zip(*pair.fan.rays))  # the rows of R^T
    return _rank(parts + columns) - _rank(pair.fan.rays)


def is_fano_functionals(X) -> bool:
    """The Fraction ampleness test that the chart's integer test replaced:
    a piece m with m.u = 1 on every maximal cone's rays, here from
    local_functionals_solve, and m.g < 1 across every wall.  The fan must
    be simplicial with full-dimensional cones, by ranks, and complete: each
    wall of facet_data_scan lies in two cones."""
    fan = X.fan
    cones = fan.cones
    full = bool(cones) and all(len(c.generators) == _rank(c.generators) == fan.rank for c in cones)
    wall_map = _walls_scan(cones) if full else {}
    if not full or any(len(ks) != 2 for ks in wall_map.values()):
        raise ValueError("ampleness test unsupported: fan must be complete and simplicial")
    functionals = local_functionals_solve(fan, [Fraction(1)] * len(fan.rays))
    if any(m is None for m in functionals):
        return False
    for key, (a, b) in wall_map.items():
        for g in set(cones[b].generators) - key:
            if _dot(functionals[a], g) >= 1:
                return False
        for g in set(cones[a].generators) - key:
            if _dot(functionals[b], g) >= 1:
                return False
    return True


# ------------------------------------------------------- 2D completeness


def _angle_cmp(a, b):
    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    ha, hb = half(a), half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    c = det2(a, b)
    return -1 if c > 0 else (1 if c < 0 else 0)


def complete_2d_oracle(fan: Fan) -> bool:
    """Elementary criterion: rays in cyclic order, every consecutive pair
    spans a maximal cone, every gap less than a half turn."""
    if fan.rank != 2 or not fan.max_cones:
        raise ValueError("oracle needs a 2D fan with cones")
    order = sorted(range(len(fan.rays)), key=cmp_to_key(lambda i, j: _angle_cmp(fan.rays[i], fan.rays[j])))
    k = len(order)
    cones = {tuple(sorted(c)) for c in fan.max_cones}
    if len(cones) != k:
        return False
    for t in range(k):
        i, j = order[t], order[(t + 1) % k]
        if det2(fan.rays[i], fan.rays[j]) <= 0:
            return False
        if tuple(sorted((i, j))) not in cones:
            return False
    return True


# ------------------------------------------------------------- polygons


def dual_polygon_halfplane_oracle(vertices):
    """Vertices of { y : <v, y> >= -1 } for a polygon with vertices listed
    counterclockwise and the origin interior: consecutive constraint lines
    intersect in the dual's vertices."""
    k = len(vertices)
    out = set()
    for i in range(k):
        a = vertices[i]
        b = vertices[(i + 1) % k]
        d = det2(a, b)
        assert d != 0
        y = (Fraction(-b[1] + a[1], d), Fraction(b[0] - a[0], d))
        assert a[0] * y[0] + a[1] * y[1] == -1
        assert b[0] * y[0] + b[1] * y[1] == -1
        out.add(y)
    return out


def is_smooth_fano_det(P) -> bool:
    """The smooth Fano test as the library ran it on polygons before it read
    the edges' cached determinants: each facet (facet_functionals_scan)
    has n vertices, and their n x n matrix has determinant +-1."""
    if P.dim != P.rank or not origin_interior_lp(P.vertices, P.rank):
        raise ValueError("smooth Fano test needs the origin interior")
    for members, _ in facet_functionals_scan(P):
        if len(members) != P.rank:
            return False
        if abs(_det_int([list(P.vertices[i]) for i in sorted(members)])) != 1:
            return False
    return True


def facet_functionals_scan(P):
    """Facets of a full-dimensional polytope with the origin interior, as
    (vertex-index set, functional a) with <a, x> = -1 on the facet and
    <a, x> > -1 on the rest of the polytope, by solving <a, v> = -1 on every
    n-subset of vertices and keeping the supporting ones."""
    n = P.rank
    if P.dim != n:
        raise ValueError("facet scan needs a full-dimensional polytope")
    verts = P.vertices
    found = {}
    for sub in itertools.combinations(range(len(verts)), n):
        a = _solve_affine([verts[i] for i in sub], n)
        if a is None:
            continue
        vals = [_dot(a, v) for v in verts]
        if all(v >= -1 for v in vals):
            members = frozenset(i for i, v in enumerate(vals) if v == -1)
            if len(members) >= n:
                found.setdefault(members, tuple(a))
    return tuple(sorted(found.items(), key=lambda kv: sorted(kv[0])))


def is_reflexive_scan(P, facets=None):
    """Reflexivity from the scan: the polytope is full-dimensional, the
    origin is strictly inside it (by the LP), and every facet functional
    is integral, so that the polar dual is a lattice polytope.  `facets`
    is P's facet_functionals_scan, when the caller already has it."""
    if P.dim != P.rank or not origin_interior_lp(P.vertices, P.rank):
        return False
    return all(x.denominator == 1 for _, a in facets or facet_functionals_scan(P) for x in a)


def scaled_dual_scan(P, facets=None):
    """(L, vertices of L * P*) for a polytope with the origin strictly
    inside: P* = { y : <y, x> >= -1 on P } is the polar dual, whose
    vertices are the scanned facet functionals (`facets`, when the caller
    already has them), and L is the least positive integer that makes
    L * P* a lattice polytope."""
    duals = [a for _, a in facets or facet_functionals_scan(P)]
    L = math.lcm(*(x.denominator for a in duals for x in a))
    return L, [tuple(int(x * L) for x in a) for a in duals]


def _solve_affine(rows, n):
    """Solve <a, row> = -1 for all rows (n rows, n unknowns), None if the
    rows are linearly dependent, so that no unique solution exists."""
    a, pivots = row_echelon([(*row, -1) for row in rows], n)
    if len(pivots) != n:
        return None
    return [row[n] for row in a[:n]]


# The GL(2,Z) normal form by greedy shrinking and a complete search over
# images of a vertex pair inside the bounding box, as the library computed
# it before the norm reduction.  The only change: v1 is the first nonzero
# vertex, where it was the first vertex (a polygon whose least vertex is the
# origin had no v2 then).

_GL2_STEPS = (
    ((0, -1), (1, 0)),   # rotate
    ((0, 1), (-1, 0)),   # rotate back
    ((1, 1), (0, 1)),    # shear
    ((1, -1), (0, 1)),   # unshear
    ((1, 0), (1, 1)),    # transposed shear
    ((1, 0), (-1, 1)),   # transposed unshear
    ((1, 0), (0, -1)),   # reflect
)


def _apply(U, verts):
    """The image of a vertex list under U; a unimodular image of a convex
    polygon's vertices is the image polygon's vertex set."""
    (a, b), (c, d) = U
    return [(a * x + b * y, c * x + d * y) for x, y in verts]


_det = det2  # the library's name for it


def _size(verts):
    return (
        max(abs(x) for v in verts for x in v),
        sum(x * x for v in verts for x in v),
    )


def normal_form_search(P):
    """Canonical representative of the GL(2,Z)-orbit of a lattice polygon.

    First greedily shrinks coordinates with elementary transforms, then
    does a complete search: the optimum has max-coordinate at most that of
    the current representative, so every unimodular image of a fixed
    independent vertex pair inside that box is tried.  The key minimized
    is (max |coordinate|, sorted vertex tuple), so the result does not
    depend on the starting representative.  Both steps transform integer
    vertex lists, which are already the vertex sets of the images; the
    only hull built is the returned one.
    """
    from toriclab.polytope import Polytope

    if P.rank != 2:
        raise ValueError("normal form implemented for polygons only")
    if P.dim != 2:
        raise ValueError("normal form needs a two-dimensional polygon")
    current = list(P.vertices)
    current_size = _size(current)
    while True:
        best = None
        for U in _GL2_STEPS:
            cand = _apply(U, current)
            s = _size(cand)
            if s < current_size:
                best, current_size = cand, s
        if best is None:
            break
        current = best

    v1 = next(v for v in current if v != (0, 0))
    v2 = next(v for v in current[1:] if _det(v1, v) != 0)
    d0 = _det(v1, v2)
    box = current_size[0]
    rng = range(-box, box + 1)
    best_key = None
    for w1 in itertools.product(rng, rng):
        for w2 in itertools.product(rng, rng):
            dw = _det(w1, w2)
            if dw != d0 and dw != -d0:
                continue
            # U [v1 v2] = [w1 w2]  =>  U = [w1 w2] adj([v1 v2]) / det
            u00 = w1[0] * v2[1] - w2[0] * v1[1]
            u01 = -w1[0] * v2[0] + w2[0] * v1[0]
            u10 = w1[1] * v2[1] - w2[1] * v1[1]
            u11 = -w1[1] * v2[0] + w2[1] * v1[0]
            if any(x % d0 for x in (u00, u01, u10, u11)):
                continue
            # det U = dw / d0 = +-1, so U is unimodular
            pts = _apply(((u00 // d0, u01 // d0), (u10 // d0, u11 // d0)), current)
            m = max(abs(x) for p in pts for x in p)
            if m > box:
                continue
            key = (m, sorted(pts))
            if best_key is None or key < best_key:
                best_key = key
    if best_key is None:
        raise RuntimeError("normal-form search missed the identity transform")
    return Polytope.hull(best_key[1], rank=2)


def reflexive_polygons_boundary_walk(box=4):
    """Enumerate one-interior-point polygons as cycles of primitive points
    with consecutive determinant one (the empty-fan-triangle property),
    reduced by normal_form_search only at the very end.

    Returns the set of normal-form vertex tuples.
    """
    from toriclab.polytope import Polytope

    pts = [
        (x, y)
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1
    ]
    pts.sort(key=cmp_to_key(_angle_cmp))
    npts = len(pts)
    succ = [[j for j in range(npts) if det2(pts[i], pts[j]) == 1] for i in range(npts)]
    found = set()

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def close_and_record(chain):
        b = [pts[i] for i in chain]
        verts = []
        k = len(b)
        for i in range(k):
            if cross(b[(i - 1) % k], b[i], b[(i + 1) % k]) != 0:
                verts.append(b[i])
        if len(verts) < 3:
            return
        poly = Polytope.hull(verts, rank=2)
        found.add(normal_form_search(poly).vertices)

    def dfs(start, chain):
        last = chain[-1]
        for j in succ[last]:
            if j == start and len(chain) >= 3:
                # boundary turns must never bend outward
                b = [pts[i] for i in chain]
                k = len(b)
                if all(cross(b[(i - 1) % k], b[i], b[(i + 1) % k]) >= 0 for i in range(k)):
                    close_and_record(chain)
                continue
            if j <= start or j <= last:
                continue  # keep the walk strictly increasing in angle
            if len(chain) >= 2 and cross(pts[chain[-2]], pts[last], pts[j]) < 0:
                continue
            dfs(start, chain + [j])

    for s in range(npts):
        dfs(s, [s])
    return found


# The angular scan polytope.enumerate_reflexive_polygons ran before the
# descent from the three maximal polygons replaced it, kept as a reference.


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _interior_points(vertices: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Lattice points strictly inside a convex polygon given in
    counterclockwise vertex order."""
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    out = []
    k = len(vertices)
    for x in range(min(xs) + 1, max(xs)):
        for y in range(min(ys) + 1, max(ys)):
            p = (x, y)
            if all(
                _cross(vertices[i], vertices[(i + 1) % k], p) > 0 for i in range(k)
            ):
                out.append(p)
    return out


def _fan_triangle_clean(a, b) -> bool:
    """No lattice point strictly inside the counterclockwise triangle
    (0, a, b), for primitive a and b.  By Pick's theorem twice the number
    of interior points is det(a, b) - gcd(b - a)."""
    d = _det(a, b)
    return d > 0 and d == math.gcd(b[0] - a[0], b[1] - a[1])


def _gap_has_points(chain: Sequence[tuple[int, int]]) -> bool:
    """Does a lattice point other than the origin lie strictly left of
    every edge of the closed cycle through a chain of the scan?

    The chain's primitive vertices v_0, ..., v_j increase in angle, it
    turns left at every inner vertex, and Pick's test has found each fan
    triangle (0, v_i, v_i+1) free of interior lattice points.  A point
    strictly left of the edge (v_i, v_i+1) and inside the angle from v_i to
    v_i+1 lies in that triangle off the edge, so it is the origin.  The
    rest is the gap from v_j back to v_0:
    - under a half turn, det(v_j, v_0) > 0, a point of the gap strictly
      left of the closing edge lies inside the triangle (0, v_j, v_0);
    - from a half turn up, the chain spans at most a half turn, so the
      cycle is a convex polygon inside the union of the fan triangles with
      the origin outside or on its boundary, and no lattice point is inside.
    """
    first, last = chain[0], chain[-1]
    if _det(last, first) <= 0:
        return False
    k = len(chain)
    return any(
        all(_cross(chain[i - 1], chain[i], q) > 0 for i in range(k))
        for q in _interior_points([(0, 0), last, first])
    )


def _accept_cycle(seq: list[tuple[int, int]], found: dict) -> None:
    """Record the normal form of a closed vertex cycle of the scan.

    The scan closes a cycle only with a left turn at every vertex and a
    clean fan triangle (0, v, w) on every edge, where Pick's test reads
    det(v, w) = gcd(w - v): each edge lies at lattice distance 1 from the
    origin, so its facet functional is integral and the polygon, whose
    vertices are all of seq, is reflexive."""
    from toriclab.polytope import Polytope

    nf = normal_form_search(Polytope.hull(seq, rank=2))
    found.setdefault(nf.vertices, nf)


def _reflexive_polygon_scan_in_box(box: int) -> list:
    """All reflexive polygons whose vertices fit in [-box, box]^2, up to
    unimodular equivalence.

    Depth-first search over vertex cycles in strictly increasing angular
    order around the origin.  Reflexive polygons have primitive vertices
    and a lattice-point-free triangle between the origin and every pair of
    cyclically consecutive vertices, so both facts prune the search
    without losing any candidate.
    """
    pts = [
        (x, y)
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1
    ]
    pts.sort(key=cmp_to_key(_angle_cmp))
    npts = len(pts)
    found: dict = {}

    def dfs(start: int, seq: list, last: int):
        for nxt in range(last + 1, npts):
            p = pts[nxt]
            if not _fan_triangle_clean(pts[seq[-1]], p):
                continue
            if len(seq) >= 2 and _cross(pts[seq[-2]], pts[seq[-1]], p) <= 0:
                continue
            new_seq = seq + [nxt]
            verts = [pts[i] for i in new_seq]
            if len(new_seq) >= 3:
                if _gap_has_points(verts):
                    continue
                # try to close the cycle
                if (
                    _fan_triangle_clean(p, pts[start])
                    and _cross(pts[seq[-1]], p, pts[start]) > 0
                    and _cross(p, pts[start], pts[new_seq[1]]) > 0
                ):
                    _accept_cycle(verts, found)
            dfs(start, new_seq, nxt)

    for s in range(npts):
        dfs(s, [s], s)
    return sorted(found.values(), key=lambda P: (len(P.vertices), P.vertices))


def reflexive_polygon_scan(box: int = 4) -> list:
    """The reflexive polygons up to unimodular equivalence, as normal forms
    ordered by (number of vertices, vertices), by the angular scan.

    Scans inside [-box, box]^2 and self-checks the box: if some normal form
    touches its boundary the box is enlarged and the scan repeated.  This
    never proves completeness, since a class whose normal form lies outside
    the box is never seen."""
    while True:
        polys = _reflexive_polygon_scan_in_box(box)
        if not any(max(abs(x) for v in P.vertices for x in v) >= box for P in polys):
            return polys
        box += 1


# ------------------------------------------------------------- markov


def markov_scan_small(bound):
    """All Markov triples with c <= bound by a full triple loop."""
    out = set()
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            for c in range(b, bound + 1):
                if a * a + b * b + c * c == 3 * a * b * c:
                    out.add((a, b, c))
    return out


def markov_scan_quadratic(bound):
    """All Markov triples with c <= bound: for each (a, b) solve the
    quadratic in c exactly."""
    out = set()
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            disc = 9 * a * a * b * b - 4 * (a * a + b * b)
            if disc < 0:
                continue
            root = math.isqrt(disc)
            if root * root != disc:
                continue
            for c2 in ((3 * a * b + root), (3 * a * b - root)):
                if c2 % 2 == 0 and b <= c2 // 2 <= bound:
                    out.add((a, b, c2 // 2))
    return out


def enumerate_markov_dfs(bound: int) -> list[MarkovTriple]:
    """All Markov triples with largest entry at most `bound`, found by
    Vieta jumping from (1,1,1)."""
    if bound < 1:
        raise ValueError("bound must be positive")
    seen: set[tuple[int, int, int]] = set()
    stack = [(1, 1, 1)]
    while stack:
        t = stack.pop()
        if t in seen or t[2] > bound:
            continue
        seen.add(t)
        a, b, c = t
        for jumped in (
            (3 * b * c - a, b, c),
            (a, 3 * a * c - b, c),
            (a, b, 3 * a * b - c),
        ):
            stack.append(tuple(sorted(jumped)))
    return [MarkovTriple(*t) for t in sorted(seen, key=lambda t: (t[2], t[1], t[0]))]


# The gcd test markov.hkw_surface replaced by its closed forms, kept as
# the reference: well-formedness from the gcd of every three weights, the
# amplitude from the weights and the degree.


def hkw_surface_gcd(t: MarkovTriple) -> HkwSurfaceData:
    """Weighted-hypersurface data for the triple and its adjacent one."""
    a, b, c = t.as_tuple()
    d = 3 * a * b - c
    weights = (a * a, b * b, d, c)
    degree = c * d
    # c*d = a^2 + b^2 is forced by the Markov equation; keep it checked
    if degree != a * a + b * b:
        raise RuntimeError("Markov equation broken: c*d differs from a^2 + b^2")
    amplitude = sum(weights) - degree
    wellformed = all(math.gcd(*weights[:i], *weights[i + 1 :]) == 1 for i in range(4))
    # Jacobian criterion for the trinomial x1 x2 + x3^c + x4^d: the partials
    # are (x2, x1, c x3^{c-1}, d x4^{d-1}).  If c == 1 or d == 1 one partial
    # is a nonzero constant, so there is no common zero at all; otherwise
    # the common zero locus is x1 = x2 = x3 = x4 = 0, which the weighted
    # projective space excludes.  Either way the affine cone is smooth away
    # from the origin.
    quasismooth = True
    fano = amplitude > 0
    return HkwSurfaceData(
        triple=t,
        weights=weights,
        degree=degree,
        amplitude=amplitude,
        wellformed=wellformed,
        quasismooth=quasismooth,
        fano=fano,
    )


# The row formatters `markov table` used before it wrote its rows from
# the closed forms directly, kept as the reference: one row per
# HkwSurfaceData, in either output format.

_LOWER = {True: "true", False: "false"}


def _markov_json(s: HkwSurfaceData) -> str:
    """The bytes _ENCODER.encode prints for the row's record: keys sorted,
    ints by repr, bools as true/false."""
    t = s.triple
    w0, w1, w2, w3 = s.weights
    return (
        f'{{"amplitude": {s.amplitude}, "degree": {s.degree}, "fano": {_LOWER[s.fano]}, '
        f'"quasismooth": {_LOWER[s.quasismooth]}, "triple": [{t.a}, {t.b}, {t.c}], '
        f'"weights": [{w0}, {w1}, {w2}, {w3}], "wellformed": {_LOWER[s.wellformed]}}}'
    )


def _markov_text(s: HkwSurfaceData) -> str:
    return (
        f"{str(s.triple.as_tuple()):<14}{str(s.weights):<18}{s.degree:<8}{s.amplitude:<11}"
        f"{_LOWER[s.wellformed]:<12}{_LOWER[s.quasismooth]:<13}{_LOWER[s.fano]}"
    )


# ------------------------------------------- cones and polytopes by LP

# The subset scans and LPs the double description replaced, moved here
# unchanged: facets from the nullspace of every (d - 1)-subset of
# generators, membership and hull vertices as simplex feasibility, and the
# face test as an exposing functional.


def facet_data_scan(cone):
    """Facets as (generator-index set, inward ambient normal).

    The normal h satisfies h.g = 0 on the facet's generators and
    h.g > 0 on every other generator; together with the nullspace of the
    generators it yields an H-description of the cone.
    """
    d = _rank(cone.generators)
    if d == 0:
        return ()
    if d == 1:
        # facet is the origin; exposing functional positive on the gens
        return ((frozenset(), _positive_functional(cone.generators, cone.rank)),)
    span_ann = row_echelon(nullspace(cone.generators, cone.rank), cone.rank)
    found = {}
    idx = range(len(cone.generators))
    for sub in itertools.combinations(idx, d - 1):
        rows = [cone.generators[i] for i in sub]
        kernel = _nullspace_within(rows, cone.generators, span_ann)
        if kernel is None:
            continue
        vals = [_dot(kernel, g) for g in cone.generators]
        if all(v >= 0 for v in vals):
            h = kernel
        elif all(v <= 0 for v in vals):
            h = tuple(-x for x in kernel)
            vals = [-v for v in vals]
        else:
            continue
        members = frozenset(i for i in idx if vals[i] == 0)
        rows = [cone.generators[i] for i in members]
        if rows and _rank(rows) == d - 1:
            found.setdefault(members, h)
    return tuple(sorted(found.items(), key=lambda kv: sorted(kv[0])))


def _nullspace_within(rows, gens, span_ann):
    """A functional vanishing on `rows` but not on all of `gens`, unique up
    to scale modulo the span-annihilator; None if no such functional.

    `span_ann` is the reduced echelon form (rows, pivots) of the
    functionals killing all of `gens`; the candidate is made canonical by
    clearing its pivot columns."""
    for h in nullspace(rows, len(gens[0])):
        if any(_dot(h, g) != 0 for g in gens):
            break
    else:
        return None
    ann_rows, ann_pivots = span_ann
    for row, col in zip(ann_rows, ann_pivots):
        if h[col] != 0:
            f = h[col]
            h = tuple(x - f * y for x, y in zip(h, row))
    if all(x == 0 for x in h):
        return None
    return h


def _positive_functional(gens, rank):
    """Some rational h with h.g > 0 for every generator of a 1-dimensional
    cone.  Its primitive generators are {g} or {g, -g}: the generator sum
    works for the first, and no such functional exists for the second."""
    total = tuple(sum(g[i] for g in gens) for i in range(rank))
    if not all(_dot(total, g) > 0 for g in gens):
        raise ValueError("no positive functional: cone is not strongly convex")
    return tuple(Fraction(x) for x in total)


def cone_contains_lp(cone, x, strict):
    """Is x a combination of the cone's generators with all coefficients
    >= 0 (> 0 when strict)?"""
    if len(x) != cone.rank:
        raise ValueError("point length differs from ambient rank")
    k = len(cone.generators)
    if k == 0:
        return all(c == 0 for c in x)
    eqs = [(tuple(g[d] for g in cone.generators), x[d]) for d in range(cone.rank)]
    bounds = [(tuple(1 if i == j else 0 for j in range(k)), 0) for i in range(k)]
    if strict:
        return linear_feasible_simplex(k, equalities=eqs, gt=bounds)
    return linear_feasible_simplex(k, equalities=eqs, gte=bounds)


def strongly_convex_lp(cone) -> bool:
    """Some functional is >= 1 on every generator."""
    return linear_feasible_simplex(cone.rank, gte=[(g, 1) for g in cone.generators])


def generators_extremal_lp(cone) -> bool:
    """No generator is a nonnegative combination of the others."""
    gens = cone.generators
    for i, g in enumerate(gens):
        others = gens[:i] + gens[i + 1 :]
        if others and cone_contains_lp(type(cone)(others, cone.rank), g, strict=False):
            return False
    return True


def meet_in_common_face_lp(fan, ca, cb) -> bool:
    """Some functional is zero on the rays ca and cb share, >= 1 on the
    rest of ca and <= -1 on the rest of cb."""
    common = set(ca) & set(cb)
    eqs = [(fan.rays[i], 0) for i in common]
    gte = [(fan.rays[i], 1) for i in ca if i not in common]
    gte += [(tuple(-x for x in fan.rays[i]), 1) for i in cb if i not in common]
    return linear_feasible_simplex(fan.rank, equalities=eqs, gte=gte)


def is_face_lp(sub, cone):
    """Exposed-face test: some functional vanishes exactly on sub's
    generators and is >= 1 on the remaining generators of `cone`."""
    sub_set = set(sub.generators)
    if not sub_set <= set(cone.generators):
        return False
    eqs = [(g, 0) for g in sub.generators]
    gte = [(g, 1) for g in cone.generators if g not in sub_set]
    return linear_feasible_simplex(cone.rank, equalities=eqs, gte=gte)


def hull_vertices_lp(pts, rank):
    """Sorted vertices of conv(pts): a point is a vertex iff it is not in
    the hull of the rest."""
    pts = sorted(set(pts))
    verts = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if not others or not _in_hull(p, others, rank):
            verts.append(p)
    return tuple(sorted(verts))


def _in_hull(p, pts, rank) -> bool:
    k = len(pts)
    eqs = [(tuple(q[d] for q in pts), p[d]) for d in range(rank)]
    eqs.append((tuple(1 for _ in range(k)), 1))
    nonneg = [(tuple(1 if i == j else 0 for j in range(k)), 0) for i in range(k)]
    return linear_feasible_simplex(k, equalities=eqs, gte=nonneg)


def origin_interior_lp(vertices, rank):
    """Is the origin a convex combination of the vertices with every
    coefficient > 0 (for a full-dimensional polytope: strictly inside)?"""
    k = len(vertices)
    eqs = [(tuple(v[d] for v in vertices), 0) for d in range(rank)]
    eqs.append((tuple(1 for _ in range(k)), 1))
    pos = [(tuple(1 if i == j else 0 for j in range(k)), 0) for i in range(k)]
    return linear_feasible_simplex(k, equalities=eqs, gt=pos)


# ------------------------------------------------------- fan validation

# What the wall criterion replaced, with this file's LPs and facet scan in
# place of the library's: validate_fan's pairwise scan (one separating
# functional per pair of maximal cones), and is_refinement's per-cone scan
# (every fine cone's rays against every coarse cone).


def validate_fan_pairwise(fan: Fan) -> Diagnostics:
    """Check the fan axioms; reports the first violation with a witness.

    Checks, in order: every ray used, strong convexity and extremality of
    each maximal cone, no cone contained in another, and the pairwise
    intersection-is-a-common-face condition (via an exact separating
    functional).
    """
    used = set(itertools.chain.from_iterable(fan.max_cones))
    for i in range(len(fan.rays)):
        if i not in used:
            return Diagnostics(False, "ray not contained in any maximal cone", (fan.rays[i],))
    cones = fan.cones
    for idx, cone in zip(fan.max_cones, cones):
        if not strongly_convex_lp(cone):
            return Diagnostics(False, "maximal cone is not strongly convex", (idx,))
        if not generators_extremal_lp(cone):
            return Diagnostics(False, "non-extremal generator in maximal cone", (idx,))
    for a, b in itertools.combinations(range(len(cones)), 2):
        ia, ib = set(fan.max_cones[a]), set(fan.max_cones[b])
        if ia <= ib or ib <= ia:
            return Diagnostics(False, "maximal cone contained in another", (fan.max_cones[a], fan.max_cones[b]))
        if not meet_in_common_face_lp(fan, fan.max_cones[a], fan.max_cones[b]):
            return Diagnostics(
                False,
                "cones do not intersect in a common face",
                (fan.max_cones[a], fan.max_cones[b]),
            )
    return Diagnostics(True)


def is_refinement_scan(fine: Fan, coarse: Fan) -> bool:
    """True iff every maximal cone of `fine` sits inside a cone of
    `coarse` and the two fans have the same support."""
    if fine.rank != coarse.rank:
        return False
    coarse_cones = coarse.cones
    assignment: dict[int, list[int]] = {k: [] for k in range(len(coarse_cones))}
    for i, c in enumerate(fine.max_cones):
        gens = [fine.rays[j] for j in c]
        hosts = [
            k
            for k, cc in enumerate(coarse_cones)
            if all(cone_contains_lp(cc, g, False) for g in gens)
        ]
        if not hosts:
            return False
        for k in hosts:
            assignment[k].append(i)
    for k, cc in enumerate(coarse_cones):
        if not _covers(fine, assignment[k], cc):
            return False
    return True


# The coverage test is_refinement used before the one oriented wall test
# (fan._covers_once): walls in one or two cones, boundary walls on coarse
# facets, and the cones connected across walls, every facet from
# facet_data_scan and every dimension a rank.  It never checks that two
# cones across a wall lie on opposite sides, so on an invalid fine fan it
# can accept an overlap; is_refinement_scan is a reference only where the
# fine fan is valid.


def _covers(fine: Fan, fine_indices: list[int], coarse_cone: Cone) -> bool:
    """Do the listed fine cones cover `coarse_cone`?  Wall criterion
    relative to the coarse cone: interior walls are shared by exactly two
    fine cones, boundary walls lie on coarse facets."""
    if not fine_indices:
        return False
    cones = [fine.cones[i] for i in fine_indices]
    if any(set(c.generators) == set(coarse_cone.generators) for c in cones):
        return True  # the coarse cone itself appears
    d = _rank(coarse_cone.generators)
    if any(_rank(c.generators) != d for c in cones):
        return False
    # the fine generators lie in the coarse cone, so one is on a coarse
    # facet iff that facet's normal vanishes on it
    normals = [h for _, h in facet_data_scan(coarse_cone)]
    wall_map = _walls_scan(cones)
    for key, ks in wall_map.items():
        if len(ks) == 2:
            continue
        if len(ks) != 1:
            return False
        if not any(all(_dot(h, g) == 0 for g in key) for h in normals):
            return False
    return _connected(len(cones), wall_map)


def _walls_scan(cones) -> dict[frozenset[Vec], list[int]]:
    """The facets of facet_data_scan of the given cones, each named by its
    generators, mapped to the indices of the cones that have it."""
    out: dict[frozenset[Vec], list[int]] = {}
    for k, cone in enumerate(cones):
        for members, _ in facet_data_scan(cone):
            out.setdefault(frozenset(cone.generators[i] for i in members), []).append(k)
    return out


def _connected(n: int, wall_map: dict[frozenset[Vec], list[int]]) -> bool:
    """Are the cones 0..n-1 linked into one piece by shared walls?"""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ks in wall_map.values():
        for k in ks[1:]:
            parent[find(k)] = find(ks[0])
    return len({find(i) for i in range(n)}) == 1


# ------------------------------------------------------ random instances


def random_complete_2d_fan(rng, max_rays=8, coord=5) -> Fan:
    """Seeded random complete 2D fan: random primitive rays (axes added so
    every angular gap stays below a half turn), consecutive pairs as
    cones."""
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    target = rng.randrange(4, max_rays + 1)
    while len(rays) < target:
        x = rng.randrange(-coord, coord + 1)
        y = rng.randrange(-coord, coord + 1)
        if (x, y) != (0, 0):
            g = math.gcd(x, y)
            rays.add((x // g, y // g))
    order = sorted(rays, key=cmp_to_key(_angle_cmp))
    k = len(order)
    return Fan.from_data(order, [(i, (i + 1) % k) for i in range(k)])


def primitive_distinct(gens):
    """The primitive vectors of the nonzero gens, first occurrences in order."""
    out = []
    for g in gens:
        if any(g):
            p = tuple(x // math.gcd(*g) for x in g)
            if p not in out:
                out.append(p)
    return out


def random_decomposition(rng, pair):
    """Random decomposition of a reduced boundary: shuffle the rays into
    groups, then sometimes split one group's unit coefficient into two
    fractional parts."""
    from toriclab.complexity import Decomposition

    nrays = len(pair.fan.rays)
    indices = list(range(nrays))
    rng.shuffle(indices)
    groups = []
    while indices:
        size = rng.randrange(1, len(indices) + 1)
        groups.append(frozenset(indices[:size]))
        indices = indices[size:]
    parts = [(Fraction(1), g) for g in groups]
    if rng.random() < 0.5:
        alpha = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 3)])
        victim = rng.randrange(len(parts))
        _, g = parts[victim]
        parts[victim] = (alpha, g)
        parts.append((1 - alpha, g))
    return Decomposition.of(parts)
