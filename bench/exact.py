"""Exact integer and rational helpers for the benchmark's reference checks.

Nothing in this module imports toriclab: the references it feeds must not
be produced by the code under test.  Matrices are lists of rows.
"""

from __future__ import annotations

import math
from fractions import Fraction


def primitive(v):
    g = math.gcd(*v)
    if g == 0:
        raise ValueError("zero vector")
    return tuple(x // g for x in v)


def lcm(*xs):
    out = 1
    for x in xs:
        out = out * x // math.gcd(out, x)
    return out


def det(m):
    """Determinant by cofactor expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
    return total


def adjugate(m):
    """adj(m) with m * adj(m) = det(m) * identity."""
    n = len(m)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for k, row in enumerate(m) if k != i]
            adj[j][i] = (-1) ** (i + j) * det(minor)
    return adj


def solve_square(m, b):
    """x with m x = b for a nonsingular integer matrix, by the adjugate."""
    d = det(m)
    adj = adjugate(m)
    return [Fraction(sum(a * y for a, y in zip(row, b))) / d for row in adj]


def rank(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    width = len(a[0]) if a else 0
    for col in range(width):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            if a[i][col] != 0:
                f = a[i][col] / a[r][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_2d(points):
    """Vertices of the convex hull, counterclockwise, collinear points dropped."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def xgcd(a, b):
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
