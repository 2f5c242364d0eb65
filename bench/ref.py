"""Independent reference verdicts for every benchmark query.

Each function takes the same plain data the library receives and returns
the verdict the library must produce, as JSON-compatible lists, strings,
numbers and booleans.  The routes differ from the library's on purpose:

- index and log discrepancies come from adjugate/determinant arithmetic on
  each simplicial cone instead of Smith forms and a linear scan;
- singularity classes come from a box scan of each cone's fundamental
  parallelepiped instead of the region {psi <= 1};
- polygon classes come from a complete GL(2,Z) normal form anchored at a
  vertex, reflexivity from edge lattice distances;
- fan-geometry answers are known by construction.

Nothing here imports toriclab.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from exact import adjugate, cross, det, hull_2d, lcm, primitive, rank, solve_square, xgcd

# ------------------------------------------------------------------ pairs


def _cone_coordinates(rays, cone, v):
    """lambda with v = sum lambda_i u_i over the rays of a simplicial cone."""
    A = [list(rays[i]) for i in cone]
    D = det(A)
    adj = adjugate(A)  # A adj(A) = D, so lambda = adj(A)^T v / D
    n = len(v)
    return [Fraction(sum(adj[k][j] * v[k] for k in range(n)), D) for j in range(n)]


def _parallelepiped_min(rays, cone, a):
    """Smallest psi over the nonzero lattice points of the half-open
    fundamental parallelepiped of a simplicial cone, or None."""
    n = len(rays[0])
    gens = [rays[i] for i in cone]
    lo = [sum(min(0, g[d]) for g in gens) for d in range(n)]
    hi = [sum(max(0, g[d]) for g in gens) for d in range(n)]
    A = [list(g) for g in gens]
    D = det(A)
    adj = adjugate(A)
    best = None
    for p in itertools.product(*(range(lo[d], hi[d] + 1) for d in range(n))):
        if not any(p):
            continue
        nums = [sum(adj[k][j] * p[k] for k in range(n)) for j in range(n)]
        if D < 0:
            nums = [-x for x in nums]
        if all(0 <= x < abs(D) for x in nums):
            value = sum(Fraction(x, abs(D)) * a[i] for x, i in zip(nums, cone))
            best = value if best is None else min(best, value)
    return best


def _singularity_type(rays, cones, b):
    if any(x > 1 for x in b):
        return "not-lc"
    if any(x == 1 for x in b):
        return "lc"
    a = [1 - x for x in b]
    worst = None
    for cone in cones:
        # min psi over non-ray primitive points: a parallelepiped point, or
        # a sum of two distinct rays of the cone
        cands = [a[i] + a[j] for i, j in itertools.combinations(cone, 2)]
        inner = _parallelepiped_min(rays, cone, a)
        if inner is not None:
            cands.append(inner)
        m = min(cands)
        worst = m if worst is None else min(worst, m)
    if worst < 1:
        return "klt"
    return "canonical" if worst == 1 else "terminal"


def pair_verdict(q):
    rays = [tuple(r) for r in q["rays"]]
    cones = q["cones"]
    b = [Fraction(c) for c in q["coeffs"]]
    n = len(rays[0])
    a = [1 - x for x in b]
    pieces = [solve_square([list(rays[i]) for i in c], [a[i] for i in c]) for c in cones]
    stype = _singularity_type(rays, cones, b)
    log_cy = stype != "not-lc" and all(p == pieces[0] for p in pieces)
    kb = [x - 1 for x in b]
    dens = [x.denominator for x in kb]
    for c in cones:
        sol = solve_square([list(rays[i]) for i in c], [kb[i] for i in c])
        dens += [x.denominator for x in sol]
    support = [i for i, x in enumerate(b) if x > 0]
    aug = [list(r) + [1 if i == s else 0 for s in support] for i, r in enumerate(rays)]
    rho = rank(aug) - rank([list(r) for r in rays])
    c = n + rho - sum((b[i] for i in support), Fraction(0))
    out = [stype, log_cy, lcm(*dens), str(c)]
    if q.get("point") is not None:
        v = tuple(q["point"])
        for cone in cones:
            lam = _cone_coordinates(rays, cone, v)
            if all(x >= 0 for x in lam):
                value = sum((x * a[i] for x, i in zip(lam, cone)), Fraction(0))
                break
        else:
            raise ValueError("point outside the support")
        out += [str(value), [value == 0, value == 1, value < 1, value > 1, value <= 1]]
    return out


# --------------------------------------------------------------- polygons


def polygon_normal_form(points):
    """Complete GL(2,Z) normal form of a lattice polygon with the origin
    strictly inside: anchor one vertex on the positive x-axis, reduce the
    next vertex's x-coordinate modulo the edge determinant, and take the
    least vertex sequence over every anchor and both orientations."""
    vs = hull_2d(points)
    best = None
    for flipped in (False, True):
        ws = [(x, -y) for x, y in reversed(vs)] if flipped else list(vs)
        for i in range(len(ws)):
            seq = ws[i:] + ws[:i]
            a, b = seq[0]
            g, p, q = xgcd(a, b)
            rows = ((p, q), (-b // g, a // g))
            x, y = _mul(rows, seq[1])
            t = -(x // y)
            rows = ((rows[0][0] + t * rows[1][0], rows[0][1] + t * rows[1][1]), rows[1])
            key = tuple(_mul(rows, v) for v in seq)
            if best is None or key < best:
                best = key
    return [list(v) for v in best]


def _mul(rows, v):
    return (rows[0][0] * v[0] + rows[0][1] * v[1], rows[1][0] * v[0] + rows[1][1] * v[1])


def origin_interior(points):
    vs = hull_2d(points)
    return len(vs) >= 3 and all(cross(vs[i], vs[(i + 1) % len(vs)], (0, 0)) > 0 for i in range(len(vs)))


def is_reflexive_polygon(points):
    """Origin inside, and every edge at lattice distance one from it."""
    vs = hull_2d(points)
    if not origin_interior(vs):
        return False
    for u, w in zip(vs, vs[1:] + vs[:1]):
        if u[0] * w[1] - u[1] * w[0] != math.gcd(w[0] - u[0], w[1] - u[1]):
            return False
    return True


def is_smooth_polygon(points):
    vs = hull_2d(points)
    return origin_interior(vs) and all(u[0] * w[1] - u[1] * w[0] == 1 for u, w in zip(vs, vs[1:] + vs[:1]))


MAXIMAL_REFLEXIVE = (
    ((-1, -1), (2, -1), (-1, 2)),
    ((-1, -1), (1, -1), (1, 1), (-1, 1)),
    ((-1, -1), (3, -1), (-1, 1)),
)


def reflexive_classes():
    """The 16 reflexive polygons, each as its normal form, found among the
    convex hulls of boundary-point subsets of the three maximal ones."""
    found = {}
    for big in MAXIMAL_REFLEXIVE:
        xs = range(min(v[0] for v in big), max(v[0] for v in big) + 1)
        ys = range(min(v[1] for v in big), max(v[1] for v in big) + 1)
        hull = hull_2d(big)
        boundary = [
            (x, y)
            for x in xs
            for y in ys
            if (x, y) != (0, 0)
            and all(cross(hull[i], hull[(i + 1) % len(hull)], (x, y)) >= 0 for i in range(len(hull)))
        ]
        for k in range(3, len(boundary) + 1):
            for sub in itertools.combinations(boundary, k):
                if is_reflexive_polygon(sub):
                    nf = polygon_normal_form(sub)
                    found.setdefault(tuple(map(tuple, nf)), nf)
    return [found[key] for key in sorted(found, key=lambda key: (len(key), key))]


def polygon_label(points, classes):
    """'R01'..'R16' by position in reflexive_classes(), else 'not reflexive'."""
    if not is_reflexive_polygon(points):
        return "not reflexive"
    nf = polygon_normal_form(points)
    return f"R{classes.index(nf) + 1:02d}"


def polygon_verdict(q, classes):
    pts = [tuple(p) for p in q["points"]]
    return [polygon_label(pts, classes), is_smooth_polygon(pts)]


# ---------------------------------------------------------- fan geometry


def fan_geometry_verdict(q):
    kind = q["kind"]
    if kind in ("cone.is_strongly_convex", "cone.generators_extremal"):
        return True
    if kind == "cone.facet_data":
        # cone over a convex polygon at height one: the facets are the cones
        # over its edges, indexed by the library's sorted generator order
        gens = sorted(set(primitive(tuple(g)) for g in q["gens"]))
        ring = [primitive(tuple(g)) for g in q["gens"]]
        pairs = [sorted((gens.index(u), gens.index(w))) for u, w in zip(ring, ring[1:] + ring[:1])]
        return sorted(pairs)
    if kind in ("fan.validate_fan", "fan.is_complete", "fan.is_refinement"):
        return True
    if kind == "fan.crepant_pullback":
        return sorted([list(r), "1"] for r in q["rays"])
    if kind == "polytope.hull":
        return sorted(q["vertices"])
    if kind == "polytope.contains_origin_interior":
        return True
    if kind == "polytope.is_reflexive":
        return q["reflexive"]
    if kind == "polytope.face_fan":
        return [len(q["vertices"]), q["facets"]]
    raise ValueError(f"unknown query kind {kind}")
