"""Lattice polytopes: duality, reflexivity, normal forms, enumeration.

Vertices are stored exactly: a coordinate is an `int` when it is an
integer and a `Fraction` only when it is not (duals), so lattice polygons
run on integer arithmetic throughout.  A polygon's facets are read off its
counterclockwise edge cycle; in higher rank facet enumeration is a
brute-force supporting-hyperplane scan, which is entirely adequate at the
handful-of-vertices scale this package works at.  Every predicate is exact.

The polygon normal form is a true GL(2,Z)-orbit invariant: it minimizes
(max |coordinate|, sorted vertex list) over the whole orbit, by a complete
search over images of a fixed independent vertex pair inside the bounding
box that the minimum provably inhabits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import Iterable, Optional, Sequence

from toriclab.fan import Fan, linear_feasible
from toriclab.lattice import IntMatrix, primitive, row_echelon, vdot


@dataclass(frozen=True)
class Polytope:
    """Convex polytope given by its vertices (exact coordinates).

    The constructor keeps only the actual vertices of the convex hull of
    the supplied points and orders them canonically: counterclockwise from
    the lexicographically smallest vertex in rank 2, lexicographically
    sorted otherwise.
    """

    vertices: tuple[tuple, ...]
    rank: int

    def __post_init__(self):
        pts = [tuple(_exact(x) for x in v) for v in self.vertices]
        if not pts:
            raise ValueError("polytope needs at least one point")
        if any(len(p) != self.rank for p in pts):
            raise ValueError("point length differs from ambient rank")
        pts = sorted(set(pts))
        object.__setattr__(self, "vertices", _hull_vertices(pts, self.rank))

    @classmethod
    def hull(cls, points: Iterable[Sequence], rank: Optional[int] = None) -> "Polytope":
        pts = [tuple(p) for p in points]
        if rank is None:
            if not pts:
                raise ValueError("cannot infer rank")
            rank = len(pts[0])
        return cls(tuple(pts), rank)

    @property
    def is_lattice(self) -> bool:
        return not any(isinstance(x, Fraction) for v in self.vertices for x in v)

    @property
    def dim(self) -> int:
        if len(self.vertices) == 1:
            return 0
        if self.rank == 2:  # the hull of non-collinear points has >= 3 vertices
            return min(len(self.vertices) - 1, 2)
        v0 = self.vertices[0]
        rows = [[a - b for a, b in zip(v, v0)] for v in self.vertices[1:]]
        return len(row_echelon(rows, self.rank)[1])

    def contains_origin_interior(self) -> bool:
        """Is the origin strictly inside (the polytope being full-dim)?

        A polygon's vertices run counterclockwise, so the origin is inside
        iff it lies strictly left of every edge (v, w): det(v, w) > 0."""
        if self.dim != self.rank:
            return False
        k = len(self.vertices)
        if self.rank == 2:
            return all(_det(self.vertices[i - 1], self.vertices[i]) > 0 for i in range(k))
        eqs = [
            (tuple(v[d] for v in self.vertices), 0) for d in range(self.rank)
        ]
        eqs.append((tuple(1 for _ in range(k)), 1))
        pos = [(tuple(1 if i == j else 0 for j in range(k)), 0) for i in range(k)]
        return linear_feasible(k, equalities=eqs, gt=pos)


def _exact(x):
    """x as an int when it is an integer, else as a Fraction."""
    if type(x) is int:
        return x
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


def _hull_vertices(pts: list[tuple], rank: int) -> tuple[tuple, ...]:
    if rank == 2:
        return _hull_2d(pts)
    # general rank: a point is a vertex iff it is not in the hull of the rest
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
    return linear_feasible(k, equalities=eqs, gte=nonneg)


def _det(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(pts: list[tuple]) -> tuple[tuple, ...]:
    """Monotone chain over sorted distinct points; returns vertices
    counterclockwise from the lexicographically smallest, dropping
    collinear points (just the two endpoints of a segment)."""
    if len(pts) <= 2:
        return tuple(pts)
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    cycle = lower[:-1] + upper[:-1]
    if len(cycle) < 3:  # degenerate: all points collinear
        return (pts[0], pts[-1])
    return tuple(cycle)


def facet_functionals(P: Polytope) -> tuple[tuple[frozenset[int], tuple[Fraction, ...]], ...]:
    """Facets of a full-dimensional polytope with the origin interior, as
    (vertex-index set, functional a) with <a, x> = -1 on the facet and
    <a, x> > -1 on the rest of the polytope.

    In rank 2 these are the counterclockwise edges (v, w) with
    det(v, w) > 0, a = (v2 - w2, w1 - v1) / det(v, w): then
    <a, x> + 1 = cross(v, w, x) / det(v, w), which vanishes on the edge and
    is positive inside.  Higher rank scans the n-subsets of vertices."""
    n = P.rank
    if P.dim != n:
        raise ValueError("facet scan needs a full-dimensional polytope")
    verts = P.vertices
    if n == 2:
        k = len(verts)
        edges = []
        for i in range(k):
            j = (i + 1) % k
            v, w = verts[i], verts[j]
            d = _det(v, w)
            if d > 0:
                a = (Fraction(v[1] - w[1], d), Fraction(w[0] - v[0], d))
                edges.append((frozenset((i, j)), a))
        return tuple(sorted(edges, key=lambda kv: sorted(kv[0])))
    found = {}
    for sub in itertools.combinations(range(len(verts)), n):
        a = _solve_affine([verts[i] for i in sub], n)
        if a is None:
            continue
        vals = [vdot(a, v) for v in verts]
        if all(v >= -1 for v in vals):
            members = frozenset(i for i, v in enumerate(vals) if v == -1)
            if len(members) >= n:
                found.setdefault(members, tuple(a))
    return tuple(sorted(found.items(), key=lambda kv: sorted(kv[0])))


def _solve_affine(rows, n) -> Optional[list[Fraction]]:
    """Solve <a, row> = -1 for all rows (n rows, n unknowns), None if the
    rows are linearly dependent, so that no unique solution exists."""
    a, pivots = row_echelon([(*row, -1) for row in rows], n)
    if len(pivots) != n:
        return None
    return [row[n] for row in a[:n]]


def dual_polytope(P: Polytope) -> Polytope:
    """Polar dual { y : <y, x> >= -1 on P }, exact rational vertices.

    Requires the origin strictly inside; the dual's vertices are the facet
    functionals of P.
    """
    if not P.contains_origin_interior():
        raise ValueError("dual undefined: origin is not interior to the polytope")
    facets = facet_functionals(P)
    return Polytope.hull([a for _, a in facets], rank=P.rank)


def is_reflexive(P: Polytope) -> bool:
    """Lattice polytope with the origin interior whose dual is again a
    lattice polytope."""
    if not P.is_lattice:
        return False
    return dual_polytope(P).is_lattice


def is_smooth_fano_polytope(P: Polytope) -> bool:
    """The vertex set of every facet is a basis of the lattice."""
    if not P.is_lattice:
        raise ValueError("smooth Fano test needs a lattice polytope")
    if not P.contains_origin_interior():
        raise ValueError("smooth Fano test needs the origin interior")
    from toriclab.lattice import smith_normal_form

    for members, _ in facet_functionals(P):
        if len(members) != P.rank:
            return False
        M = IntMatrix.from_rows([[int(x) for x in P.vertices[i]] for i in sorted(members)], cols=P.rank)
        _, D, _ = smith_normal_form(M)
        if any(d != 1 for d in D.diagonal()):
            return False
    return True


def face_fan(P: Polytope) -> Fan:
    """Fan whose maximal cones are the cones over the facets."""
    if not P.is_lattice:
        raise ValueError("face fan needs a lattice polytope")
    if not P.contains_origin_interior():
        raise ValueError("face fan needs the origin interior")
    rays = [primitive(tuple(int(x) for x in v)) for v in P.vertices]
    if len(set(rays)) != len(rays):
        raise ValueError("two vertices span the same ray")
    cones = [tuple(sorted(members)) for members, _ in facet_functionals(P)]
    return Fan.from_data(rays, cones, rank=P.rank)


# ---------------------------------------------------------------------------
# GL(2,Z) normal form for polygons
# ---------------------------------------------------------------------------

_GL2_STEPS = (
    ((0, -1), (1, 0)),   # rotate
    ((0, 1), (-1, 0)),   # rotate back
    ((1, 1), (0, 1)),    # shear
    ((1, -1), (0, 1)),   # unshear
    ((1, 0), (1, 1)),    # transposed shear
    ((1, 0), (-1, 1)),   # transposed unshear
    ((1, 0), (0, -1)),   # reflect
)


def _apply(U, verts: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The image of a vertex list under U; a unimodular image of a convex
    polygon's vertices is the image polygon's vertex set."""
    (a, b), (c, d) = U
    return [(a * x + b * y, c * x + d * y) for x, y in verts]


def _size(verts: Sequence[tuple[int, int]]) -> tuple[int, int]:
    return (
        max(abs(x) for v in verts for x in v),
        sum(x * x for v in verts for x in v),
    )


def unimodular_normal_form(P: Polytope) -> Polytope:
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
    if P.rank != 2:
        raise ValueError("normal form implemented for polygons only")
    if not P.is_lattice:
        raise ValueError("normal form needs a lattice polygon")
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

    v1 = current[0]
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


# ---------------------------------------------------------------------------
# enumeration of reflexive polygons
# ---------------------------------------------------------------------------


def _angle_cmp(a, b) -> int:
    """Exact counterclockwise angular comparison of nonzero lattice
    vectors, starting from the positive x-axis."""

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    ha, hb = half(a), half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    cross = _det(a, b)
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


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


def _accept_cycle(seq: list[tuple[int, int]], found: dict) -> None:
    """Record the normal form of a closed vertex cycle of the scan if it
    is a reflexive polygon."""
    poly = Polytope.hull(seq, rank=2)
    if len(poly.vertices) != len(seq):
        return
    if _interior_points(seq) != [(0, 0)]:
        return
    if not is_reflexive(poly):
        return
    nf = unimodular_normal_form(poly)
    found.setdefault(nf.vertices, nf)


def _reflexive_polygon_scan(box: int) -> list[Polytope]:
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
    found: dict[tuple, Polytope] = {}

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
                inside = _interior_points(verts)
                if any(q != (0, 0) for q in inside):
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


def enumerate_reflexive_polygons() -> list[Polytope]:
    """The reflexive polygons up to unimodular equivalence (there are 16).

    Enumerates inside a coordinate box and then self-checks the box: if
    some normal form touched the boundary the box is enlarged and the scan
    repeated, so the bound is verified rather than assumed.
    """
    return list(_enumerate_reflexive_cached())


@lru_cache(maxsize=1)
def _enumerate_reflexive_cached() -> tuple[Polytope, ...]:
    box = 4
    while True:
        polys = _reflexive_polygon_scan(box)
        touched = any(
            max(abs(int(x)) for v in P.vertices for x in v) >= box for P in polys
        )
        if not touched:
            return tuple(polys)
        box += 1
