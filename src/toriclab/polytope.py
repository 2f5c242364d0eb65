"""Lattice polytopes: reflexivity, face fans, normal forms, enumeration.

Vertices are integer points, so every predicate runs on integer
arithmetic.  A polygon's facets are read off its counterclockwise edge
cycle, and each edge (v, w) keeps det(v, w) as its h0: a polygon with
the origin inside is smooth Fano iff every h0 is 1, with no elimination
run.  In higher rank a polytope P is the cone over P x {1}, and one
double-description run on that cone gives both its vertices and its
facets.  Each polytope finds its facets at construction, and every
predicate reads them from there.  Every predicate is exact.  The polar
dual is never built: its vertices are `facet_functionals(P)`, and
reflexivity is read off the facets.

The polygon normal form is a true GL(2,Z)-orbit invariant: it minimizes
(max |coordinate|, sorted vertex list) over the whole orbit.  Its least
max |coordinate|, lambda2, is the norm of the second row of a basis
reduced for N(u) = max_v |<u, v>|.  A Lagrange-Gauss reduction in the
Euclidean norm of the values on the vertices usually yields one, a
two-point check confirms it (N(b2 - t*b1) is convex in t), and where it
fails a generalised Gauss reduction for N finishes; both take a number of
steps logarithmic in the entries.  The bases whose rows have norm at most
lambda2 are then listed line by line in the reduced basis and compared
in closed form, so the cost grows with the bit length of the
coordinates, not with their size.  The least image is already a sorted
list of distinct vertices in convex position, so the polygon returned is
built by one monotone-chain pass that orders its edge cycle, without the
constructor's type check, sort and deduplication.

The 16 reflexive polygons are found by descent from the three maximal
ones, inside one of which every reflexive polygon lies up to GL(2,Z):
drop one vertex at a time and keep the hull of the remaining lattice
points while the origin stays strictly inside.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from toriclab._value import Value, derived
from toriclab.fan import Fan, _double_description
from toriclab.lattice import det, primitive


class Polytope(Value):
    """Convex lattice polytope given by its vertices (integer coordinates).

    The constructor keeps only the actual vertices of the convex hull of
    the supplied points and orders them canonically: counterclockwise from
    the lexicographically smallest vertex in rank 2, lexicographically
    sorted otherwise.
    """

    vertices: tuple[tuple, ...]
    rank: int
    # dimension of the affine hull, and the facets of a full-dimensional
    # polytope as (vertex-index set, h, h0): <h, x> + h0 >= 0 on the
    # polytope, = 0 exactly on the facet; both set with the vertices
    dim: int = derived()
    _facets: tuple = derived()

    def __post_init__(self):
        pts = [tuple(v) for v in self.vertices]
        if any(type(x) is not int for p in pts for x in p):
            raise ValueError("polytope vertices must be integers")
        if not pts:
            raise ValueError("polytope needs at least one point")
        if any(len(p) != self.rank for p in pts):
            raise ValueError("point length differs from ambient rank")
        pts = sorted(set(pts))
        vertices, dim, facets = _polygon(pts) if self.rank == 2 else _hull(pts)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_facets", facets)

    @classmethod
    def hull(cls, points: Iterable[Sequence], rank: Optional[int] = None) -> "Polytope":
        pts = [tuple(p) for p in points]
        if rank is None:
            if not pts:
                raise ValueError("cannot infer rank")
            rank = len(pts[0])
        return cls(tuple(pts), rank)

    def contains_origin_interior(self) -> bool:
        """Is the origin strictly inside (the polytope being full-dim)?
        That is, is h0 > 0 on every facet, or for a polygon, whose vertices
        run counterclockwise, is det(v, w) > 0 on every edge (v, w)?"""
        return self.dim == self.rank and all(h0 > 0 for _, _, h0 in self._facets)


def _polygon(pts: list[tuple]) -> tuple[tuple, int, tuple]:
    """Vertices, dimension and facets of conv(pts) in rank 2.

    A counterclockwise edge (v, w) has h = (v2 - w2, w1 - v1) and
    h0 = det(v, w): then <h, x> + h0 = cross(v, w, x), which is positive
    inside."""
    verts = _hull_2d(pts)
    k = len(verts)
    facets = tuple(
        (frozenset((i, (i + 1) % k)), (v1 - w1, w0 - v0), v0 * w1 - v1 * w0)
        for i, ((v0, v1), (w0, w1)) in enumerate(zip(verts, verts[1:] + verts[:1]))
    )
    return verts, min(k - 1, 2), facets  # >= 3 vertices iff not collinear


def _hull(pts: list[tuple]) -> tuple[tuple, int, tuple]:
    """Vertices (sorted), dimension and facets of conv(pts), from one
    double-description run on the cone over pts x {1}.

    A point is a vertex iff the facets through it meet in it alone,
    i.e. iff no other point lies on all of them.  Facets of the cone are
    (h, h0) with <h, x> + h0 >= 0 on the polytope."""
    pivots, facets, _ = _double_description([(*p, 1) for p in pts])  # members as masks of points
    keep = []
    for i in range(len(pts)):
        meet = (1 << len(pts)) - 1
        for _, m in facets:
            if m >> i & 1:
                meet &= m
        if meet == 1 << i:
            keep.append(i)
    facets = tuple((frozenset(r for r, i in enumerate(keep) if m >> i & 1), h[:-1], h[-1]) for h, m in facets)
    return tuple(pts[i] for i in keep), len(pivots) - 1, facets


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
    """Facets of a full-dimensional polytope that the origin lies strictly
    inside of, as (vertex-index set, functional a) with <a, x> = -1 on the
    facet and <a, x> > -1 on the rest of the polytope: a = h / h0 for each
    cached facet (h, h0) with h0 > 0."""
    if P.dim != P.rank:
        raise ValueError("facets need a full-dimensional polytope")
    facets = ((members, tuple(Fraction(x, h0) for x in h)) for members, h, h0 in P._facets if h0 > 0)
    return tuple(sorted(facets, key=lambda kv: sorted(kv[0])))


def is_reflexive(P: Polytope) -> bool:
    """The origin is interior and the polar dual is a lattice polytope.

    The dual's vertices are the facet functionals h / h0, so it is a
    lattice polytope iff h0 divides every entry of h on every facet."""
    return P.contains_origin_interior() and all(x % h0 == 0 for _, h, h0 in P._facets for x in h)


def is_smooth_fano_polytope(P: Polytope) -> bool:
    """The vertex set of every facet is a basis of the lattice: each facet
    has n vertices, and their n x n matrix has determinant +-1.

    A polygon's edges (v, w) run counterclockwise, and each keeps
    h0 = det(v, w), which is positive with the origin inside: the polygon
    is smooth iff every h0 is 1.  In higher rank h is primitive and h0 is
    no determinant, so each facet's vertex matrix is reduced."""
    if not P.contains_origin_interior():
        raise ValueError("smooth Fano test needs the origin interior")
    if P.rank == 2:
        return all(h0 == 1 for _, _, h0 in P._facets)
    for members, _, _ in P._facets:
        if len(members) != P.rank:
            return False
        if abs(det([P.vertices[i] for i in sorted(members)])) != 1:
            return False
    return True


def face_fan(P: Polytope) -> Fan:
    """Fan whose maximal cones are the cones over the facets."""
    if not P.contains_origin_interior():
        raise ValueError("face fan needs the origin interior")
    rays = [primitive(v) for v in P.vertices]
    cones = [tuple(sorted(members)) for members, _, _ in P._facets]
    return Fan.from_data(rays, cones, rank=P.rank)


# ---------------------------------------------------------------------------
# GL(2,Z) normal form for polygons
# ---------------------------------------------------------------------------
#
# U in GL(2,Z) with rows r1, r2 sends a vertex v to (<r1, v>, <r2, v>), so
# the image's largest |coordinate| is max(N(r1), N(r2)) for the norm
# N(u) = max_v |<u, v>| on Z^2 (a norm: the vertices span the plane).  Its
# least value over all bases is the second successive minimum lambda2 of N,
# and the normal form is the least (sorted image vertices) over the bases
# whose two rows both have norm at most lambda2.
#
# A row is held by its coefficients (a, c) in a reduced basis (b1, b2), and
# a vertex w by beta_w = <b1, w> and gamma_w = <b2, w>: the row a*b1 + c*b2
# then maps w to a*beta_w + c*gamma_w.


def _window(slopes: Sequence[int], offsets: Sequence[int], bound: int) -> Optional[tuple[int, int]]:
    """The integers t with |offset + t*slope| <= bound for every pair, as
    (lo, hi), or None when there are none.  Some slope must be nonzero.

    A pair with s > 0 confines t to [ceil((-bound - o)/s), floor((bound - o)/s)];
    dividing by s < 0 swaps the ends, to [ceil((bound - o)/s),
    floor((-bound - o)/s)]."""
    lo = hi = None
    for s, o in zip(slopes, offsets):
        if s > 0:
            t_lo, t_hi = -((bound + o) // s), (bound - o) // s
        elif s < 0:
            t_lo, t_hi = -((o - bound) // s), (-bound - o) // s
        elif abs(o) > bound:
            return None
        else:
            continue
        if lo is None or t_lo > lo:
            lo = t_lo
        if hi is None or t_hi < hi:
            hi = t_hi
    return (lo, hi) if lo <= hi else None


def _nearest_euclidean(beta: Sequence[int], gamma: Sequence[int]) -> int:
    """The integer nearest <b1, b2> / <b1, b1> in the Euclidean inner product
    of the value vectors: mu minimising sum_w (gamma_w - mu*beta_w)^2."""
    d, n = sum(map(operator.mul, beta, gamma)), sum(map(operator.mul, beta, beta))
    return (2 * d + n) // (2 * n)


def _nearest_multiple(beta: Sequence[int], gamma: Sequence[int]) -> int:
    """An integer mu minimising f(mu) = N(b2 - mu*b1) = max_w |gamma_w - mu*beta_w|.

    f is convex and piecewise linear.  Round at the vertex w* where
    |beta_w| = N(b1) is largest; if that is no local minimum, bisect on the
    sign of f(t + 1) - f(t).  Since f(t) >= |beta_w*| * |t - gamma_w*/beta_w*|,
    every minimiser lies within f(mu)/N(b1) + 1 of the rounded mu."""

    pairs = list(zip(beta, gamma))

    def f(t):
        return max([abs(g - t * b) for b, g in pairs])

    b, g = max(pairs, key=lambda bg: abs(bg[0]))
    if b < 0:
        b, g = -b, -g
    mu = (2 * g + b) // (2 * b)
    fm = f(mu)
    if f(mu - 1) >= fm <= f(mu + 1):
        return mu
    lo, hi = mu - fm // b - 1, mu + fm // b + 1
    while lo < hi:
        t = (lo + hi) // 2
        if f(t + 1) < f(t):
            lo = t + 1
        else:
            hi = t
    return lo


def _norm(values: Sequence[int]) -> int:
    """N(u) = max_w |<u, w>| from the values of u on the vertices."""
    return max(map(abs, values))


def _squared_length(values: Sequence[int]) -> int:
    """The squared Euclidean length of a value vector."""
    return sum(map(operator.mul, values, values))


def _gauss(beta: list[int], gamma: list[int], nearest, norm) -> tuple[list[int], list[int]]:
    """Gauss reduction of (b1, b2) for `norm`: order the rows by it, then
    replace b2 by b2 - mu*b1 with mu = nearest(beta, gamma) and swap while
    that is shorter than b1.  Each swap lowers the integer norm(b1), so it
    stops, after a number of steps logarithmic in the entries."""
    n1, n2 = norm(beta), norm(gamma)
    if n2 < n1:
        beta, gamma, n1 = gamma, beta, n2
    while True:
        mu = nearest(beta, gamma)
        gamma = [g - mu * b for b, g in zip(beta, gamma)]
        n2 = norm(gamma)
        if n2 >= n1:
            return beta, gamma
        beta, gamma, n1 = gamma, beta, n2


def _reduced_basis(verts: Sequence[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """(beta, gamma) of a basis (b1, b2) of Z^2 reduced for N: N(b1) <= N(b2)
    and N(b2) <= N(b2 + mu*b1) for every integer mu.  Such a basis realises
    the successive minima: N(b1) = lambda1, N(b2) = lambda2.

    First the Lagrange-Gauss reduction in the Euclidean norm of the value
    vectors, two integer sums a step, brings the basis near the reduced
    one; its rows are then ordered by N.  f(t) = N(b2 - t*b1) is convex, so
    when N(b2 - b1) >= N(b2) <= N(b2 + b1), t = 0 is a local and hence a
    global minimum over the integers, and the basis is reduced.  Only where
    that check fails does the generalised Gauss reduction for N (Kaib and
    Schnorr, J. Algorithms 21, 1996) run, each step moving b2 to its
    N-closest lattice point on b2 + Z*b1; it finishes every reduction on
    its own, so the answer never rests on the Euclidean pass.
    """
    beta = [x for x, _ in verts]  # b1 = (1, 0)
    gamma = [y for _, y in verts]  # b2 = (0, 1)
    beta, gamma = _gauss(beta, gamma, _nearest_euclidean, _squared_length)
    n1, n2 = _norm(beta), _norm(gamma)
    if n2 < n1:
        beta, gamma, n2 = gamma, beta, n1
    if max([abs(g - b) for b, g in zip(beta, gamma)]) >= n2 <= max([abs(g + b) for b, g in zip(beta, gamma)]):
        return beta, gamma
    return _gauss(beta, gamma, _nearest_multiple, _norm)


def _line_rows(beta, gamma, c: int, lam2: int) -> Iterable[int]:
    """The a for which the primitive row a*b1 + c*b2 may have norm at most
    lambda2, send a vertex to -lambda2 and start a least basis.

    These are the roots of a*beta_w + c*gamma_w = -lambda2, at most one per
    vertex, unless a vertex v* with beta = 0 goes to -lambda2 on the whole
    line, as on thin polygons, where the line is 2*lambda2/lambda1 long.
    Its rows of norm at most lambda2 then form a stretch [lo, hi], and for
    c = +-1 only lo and hi can start a least basis.  Another vertex's first
    coordinate is linear in a and at least -lambda2 on the stretch, so it
    reaches -lambda2 only at an end.  Inside, v* alone goes there, and a
    least basis sends it to (-lambda2, -lambda2): its second row is
    a'*b1 + c*b2, and r1 +- b1 is one for every a.  Along those bases a
    step in a moves the image of a vertex w by beta_w * (1, 1): images
    with beta = 0 stay put, and the least first coordinate M(a) of the
    others decides the comparison.  M is a minimum of nonconstant linear
    functions, so it is concave with no flat piece and least only at lo or
    hi.  Lines |c| = 2 exist only when lambda1 = lambda2 and hold at most
    three rows."""
    if c == 0:
        return (1, -1)
    if any(b == 0 and c * g == -lam2 for b, g in zip(beta, gamma)):
        w = _window(beta, [c * g for g in gamma], lam2)
        if w is None:
            return ()
        rows = w if abs(c) == 1 else range(w[0], w[1] + 1)
    else:
        rows = {(-lam2 - c * g) // b for b, g in zip(beta, gamma) if b and (-lam2 - c * g) % b == 0}
    return [a for a in rows if math.gcd(a, c) == 1]


def _partner(a: int, c: int) -> tuple[int, int]:
    """(a', c') with a*c' - c*a' = 1, for a primitive (a, c) with |c| <= 2."""
    if c == 0:
        return 0, a
    if abs(c) == 1:
        return -c, 0
    return (a - 1) // c, 1


def _shear_key(xs: Sequence[int], ys: Sequence[int], lam2: int) -> Optional[list[tuple[int, int]]]:
    """The least sorted image over the second rows r2 + k*r1 of norm at most
    lambda2, or None when there is none, for a first row whose images xs have
    minimum -lambda2 and a second row whose images are ys.

    The k-shear moves image w to (x_w, y_w + k*x_w): images with equal first
    coordinates move alike, so the sorted order never changes, and the first
    image, with x = -lambda2 < 0, falls as k grows.  So k is the largest
    that keeps the second row's norm at most lambda2."""
    w = _window(xs, ys, lam2)
    if w is None:
        return None
    k = w[1]
    return sorted([(x, y + k * x) for x, y in zip(xs, ys)])


def unimodular_normal_form(P: Polytope) -> Polytope:
    """Canonical representative of the GL(2,Z)-orbit of a lattice polygon.

    The representative minimises the key (max |coordinate|, sorted vertex
    tuple) over the whole orbit.  The first entry is lambda2, the second
    successive minimum of the norm N(u) = max_v |<u, v>|: N(b2) for the
    basis `_reduced_basis` reduces for N, by a Euclidean Lagrange-Gauss
    pass checked at b2 +- b1, with the generalised Gauss reduction for N as
    fallback where the check fails.  The key is a minimum over the whole
    orbit, so every reduced basis gives the same form.  The rows of norm
    at most lambda2 are a*b1 + c*b2 with |c| <= 2 in the reduced basis;
    every least image has a vertex with first coordinate -lambda2, which
    leaves a few rows per line (the two ends of a whole line of rows, on
    thin polygons).  For each first row the second rows form two shear
    families, each resolved in closed form.  The only hull built is the
    returned one: the least image is a sorted list of distinct vertices in
    convex position, so it goes straight to the edge-cycle pass `_polygon`,
    whose vertices, dimension and facets, those of `Polytope.hull` on it,
    are bound unchecked (`Polytope._trusted`).
    """
    if P.rank != 2:
        raise ValueError("normal form implemented for polygons only")
    if P.dim != 2:
        raise ValueError("normal form needs a two-dimensional polygon")
    beta, gamma = _reduced_basis(P.vertices)
    lam2 = _norm(gamma)
    pairs = list(zip(beta, gamma))
    # Bound on |c|: a row u = a*b1 + c*b2 with c != 0 is c*(b2 + (a/c)*b1).
    # With mu the integer nearest a/c, the triangle inequality and
    # reducedness give N(b2 + (a/c)*b1) >= N(b2 + mu*b1) - N(b1)/2
    # >= lambda2 - lambda1/2 >= lambda2/2.  So N(u) <= lambda2 needs
    # |c| <= 2, and |c| = 2 only if lambda1 = lambda2.
    # The least image has a vertex at first coordinate -lambda2: no row of
    # norm at most lambda2 sends a vertex lower, and b2 or -b2, with b1 as
    # second row, sends one there.
    best = None
    for c in (0, 1, -1, 2, -2) if _norm(beta) == lam2 else (0, 1, -1):
        for a in _line_rows(beta, gamma, c, lam2):
            xs = [a * b + c * g for b, g in pairs]
            if min(xs) != -lam2 or max(xs) > lam2:
                continue
            pa, pc = _partner(a, c)
            ys = [pa * b + pc * g for b, g in pairs]
            for second in (ys, [-y for y in ys]):
                key = _shear_key(xs, second, lam2)
                if key is not None and (best is None or key < best):
                    best = key
    vertices, dim, facets = _polygon(best)
    return Polytope._trusted(vertices, 2, dim, facets)


# ---------------------------------------------------------------------------
# enumeration of reflexive polygons
# ---------------------------------------------------------------------------

# reflexive-02, -03 and -11, the triangles with 9 and 8 boundary points and
# the square [-1, 1]^2: every reflexive polygon lies inside one of these up to
# GL(2,Z) (Rabinowitz, Ars Combin. 28, 1989; Poonen and Rodriguez-Villegas,
# Amer. Math. Monthly 107, 2000)
_MAXIMAL_REFLEXIVE = (
    ((-2, -1), (1, -1), (1, 2)),
    ((-2, -1), (2, -1), (0, 1)),
    ((-1, -1), (1, -1), (1, 1), (-1, 1)),
)


def _lattice_points(P: Polytope) -> list[tuple[int, int]]:
    """The lattice points of a lattice polygon, read off its cached facets."""
    (x0, x1), (y0, y1) = ((min(c), max(c)) for c in zip(*P.vertices))
    return [
        (x, y)
        for x in range(x0, x1 + 1)
        for y in range(y0, y1 + 1)
        if all(h[0] * x + h[1] * y + h0 >= 0 for _, h, h0 in P._facets)
    ]


def enumerate_reflexive_polygons() -> list[Polytope]:
    """The reflexive polygons up to unimodular equivalence (there are 16),
    as normal forms ordered by (number of vertices, vertices).

    A descent from the three maximal reflexive polygons: each new normal
    form drops one vertex v at a time, keeping the hull of its other
    lattice points when the origin stays strictly inside.  Such a hull has
    the origin as its only interior lattice point, so it is reflexive.  And
    every reflexive P inside a reflexive Q != P is reached: some vertex v
    of Q is not in P, and the hull of the lattice points of Q other than v
    still holds P and has fewer lattice points than Q.
    """
    return list(_enumerate_reflexive_cached())


@lru_cache(maxsize=1)
def _enumerate_reflexive_cached() -> tuple[Polytope, ...]:
    found: dict[tuple, Polytope] = {}
    stack = [Polytope.hull(v, rank=2) for v in _MAXIMAL_REFLEXIVE]
    while stack:
        P = unimodular_normal_form(stack.pop())
        if P.vertices in found:
            continue
        if not is_reflexive(P):
            raise RuntimeError(f"descent reached a non-reflexive polygon {P.vertices}")
        found[P.vertices] = P
        points = _lattice_points(P)
        for v in P.vertices:
            Q = Polytope.hull([p for p in points if p != v], rank=2)
            if Q.contains_origin_interior():
                stack.append(Q)
    return tuple(sorted(found.values(), key=lambda P: (len(P.vertices), P.vertices)))
