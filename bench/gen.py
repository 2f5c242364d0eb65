"""Seeded inputs for the four workloads, as plain JSON-compatible data.

A workload is a list of rounds; a round is a list of queries covering every
rung of the workload's ladders once, in seeded order.  The timed loop runs
whole rounds, so every run sees the same mix of query classes and only the
seeded instances differ.  Nothing here imports toriclab.
"""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction

from exact import primitive
from ref import is_reflexive_polygon, origin_interior, reflexive_classes

# ------------------------------------------------------------ shared data


def signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return lambda v: tuple(signs[i] * v[perm[i]] for i in range(n))


def projective_space(n):
    rays = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    return rays, [list(c) for c in itertools.combinations(range(n + 1), n)]


def weighted_projective(weights):
    """Rays of P(1, w1, .., wn): the standard basis and -(w1, .., wn)."""
    n = len(weights) - 1
    rays = [tuple(-w for w in weights[1:])]
    rays += [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    return rays, [list(c) for c in itertools.combinations(range(n + 1), n)]


def star_subdivide(rays, cones, tau):
    """Star subdivision of a smooth simplicial fan at the cone `tau` (ray
    indices), inserting the sum of its rays."""
    v = primitive(tuple(sum(rays[i][d] for i in tau) for d in range(len(rays[0]))))
    rays = rays + [v]
    new = len(rays) - 1
    out = []
    for c in cones:
        if set(tau) <= set(c):
            out += [sorted((set(c) - {i}) | {new}) for i in tau]
        else:
            out.append(list(c))
    return rays, out


def subdivided_p3(rng, depth):
    rays, cones = projective_space(3)
    for _ in range(depth):
        host = rng.choice(cones)
        tau = rng.sample(host, rng.choice((2, 3)))
        rays, cones = star_subdivide(rays, cones, tau)
    return rays, cones


def _pair_key(rays, cones, coeffs):
    return (
        frozenset(zip(rays, coeffs)),
        frozenset(frozenset(rays[i] for i in c) for c in cones),
    )


# ------------------------------------------------------------ pair-stream

DET11_CONE = [(1, 0, 0), (0, 1, 0), (3, 5, 11)]
P1415 = (1, 4, 1, 5)
# coefficients on the sorted rays of P(1,4,1,5); index answers 35, 630,
# 2772, 20020 and 180180
P1415_LADDER = (
    ("1/7", "0", "0", "0"),
    ("1/7", "2/9", "0", "0"),
    ("1/7", "2/9", "3/11", "0"),
    ("1/7", "0", "3/11", "1/13"),
    ("1/7", "2/9", "3/11", "1/13"),
)
LC_VALUES = ("0", "1/3", "1/2", "2/3", "1")


def _face_fan(poly):
    rays = [tuple(v) for v in poly]
    return rays, [[i, (i + 1) % len(rays)] for i in range(len(rays))]


def _p3_subdivision(*taus):
    rays, cones = projective_space(3)
    for tau in taus:
        rays, cones = star_subdivide(rays, cones, list(tau))
    return rays, cones


# Every pair rung has a fixed fan; the seed varies coefficients (and the
# orientation where no scan depends on it), so each query is a new pair
# while the cost of a rung stays the same from seed to seed.
REFLEXIVE_FANS = [_face_fan(nf) for nf in reflexive_classes()]
LADDER_FANS_2D = [REFLEXIVE_FANS[i] for i in (9, 10, 13, 15)]
P3_SUBDIVISIONS = [
    _p3_subdivision((0, 1)),
    _p3_subdivision((0, 1, 2)),
    _p3_subdivision((0, 1), (1, 2)),
    _p3_subdivision((0, 1, 2), (0, 1, 4)),
]
LADDER_WPS = [weighted_projective(w) for w in ((1, 1, 2, 3), (1, 2, 3, 3))]
LC_WPS = [weighted_projective(w) for w in ((1, 1, 1, 2), (1, 1, 2, 3), (1, 2, 2, 3))]


def _first_cone(rays, cones):
    """The maximal cone toriclab scans first: it sorts rays and cones, so
    this is the least cone in sorted ray indices."""
    order = sorted(range(len(rays)), key=lambda i: rays[i])
    pos = {old: new for new, old in enumerate(order)}
    return min(cones, key=lambda c: sorted(pos[i] for i in c))


def _ladder_coeffs(rng, rays, cones, k):
    """b = 1 - 1/k on the first scanned cone, where a point below psi = 1
    ends the scan; seeded b = 1 - j/m, m <= 4k, on the other rays."""
    first = set(_first_cone(rays, cones))
    out = []
    for i in range(len(rays)):
        m = k * rng.randint(1, 4)
        out.append(f"{k - 1}/{k}" if i in first else str(1 - Fraction(rng.randint(1, m - 1), m)))
    return out


def _lc_coeffs(rng, rays):
    """Coefficient 1 on the first ray (so no scan runs), seeded others."""
    return ["1"] + [rng.choice(LC_VALUES) for _ in rays[1:]]


def _point(rng, rays, cones):
    """A primitive non-ray point inside a seeded maximal cone."""
    while True:
        cone = rng.choice(cones)
        lam = [rng.randint(0, 2) for _ in cone]
        if sum(lam) < 2:
            continue
        v = primitive(tuple(sum(l * rays[i][d] for l, i in zip(lam, cone)) for d in range(len(rays[0]))))
        if v not in rays:
            return list(v)


def _det11(rng, k):
    # b = 1 - 1/k on (3,5,11) fixes the scan box; the unit rays get
    # b = 1 - j/m with m <= 3k and j1 + j2 < m, which keeps the box and
    # keeps e1 + e2 the first point found below psi = 1
    m = k * rng.randint(1, 3)
    j1 = rng.randint(1, m - 2)
    j2 = rng.randint(1, m - 1 - j1)
    return DET11_CONE, [[0, 1, 2]], [str(1 - Fraction(j1, m)), str(1 - Fraction(j2, m)), f"{k - 1}/{k}"]


def _p1415(rng, coeffs):
    # the index scan does not depend on orientation, so it is seeded
    rays, cones = weighted_projective(P1415)
    t = signed_permutation(rng, 3)
    return [t(r) for r in sorted(rays)], cones, list(coeffs)


def _ladder(fan, k):
    return lambda rng: (fan[0], fan[1], _ladder_coeffs(rng, fan[0], fan[1], k))


def _lc(fan):
    return lambda rng: (fan[0], fan[1], _lc_coeffs(rng, fan[0]))


def _denominator(d):
    rays, cones = REFLEXIVE_FANS[15]
    return lambda rng: (rays, cones, ["1"] + [f"{rng.randint(0, d - 1)}/{d}" for _ in rays[1:]])


def pair_rungs():
    """(family, instance maker, with a point?) for every rung of a round."""
    # five det-11 instances at k = 10 put the p90 rank in the middle of one
    # rung, so p90 is a median of like queries rather than one of them
    rungs = [("det11", lambda rng, k=k: _det11(rng, k), False) for k in (5, 10, 10, 10, 10, 10, 20, 50)]
    rungs += [("p1415", lambda rng, c=c: _p1415(rng, c), False) for c in P1415_LADDER]
    rungs += [("ladder-2d", _ladder(f, k), False) for f in LADDER_FANS_2D for k in (3, 5, 10)]
    rungs += [("ladder-3d", _ladder(f, k), False) for f in P3_SUBDIVISIONS[:2] for k in (3, 5)]
    rungs += [("ladder-wps", _ladder(f, 5), False) for f in LADDER_WPS]
    rungs += [("lc-2d", _lc(f), True) for f in REFLEXIVE_FANS]
    rungs += [("lc-3d", _lc(f), True) for f in P3_SUBDIVISIONS + LC_WPS]
    # the denominator rungs cost the same from d = 2 to 20, and there are
    # enough of them that the median rank falls among them
    rungs += [("denominator", _denominator(d), True) for d in range(2, 21)]
    return rungs


def pair_round(rng, seen):
    """Every rung once, each instance a pair never seen before."""
    queries = []
    for family, make, with_point in pair_rungs():
        for _ in range(1000):
            rays, cones, coeffs = make(rng)
            key = _pair_key(rays, cones, coeffs)
            if key not in seen:
                break
        else:
            raise RuntimeError(f"no fresh {family} pair left")
        seen.add(key)
        q = {"kind": "pair", "family": family, "rays": [list(r) for r in rays], "cones": cones, "coeffs": coeffs}
        q["point"] = _point(rng, rays, cones) if with_point else None
        queries.append(q)
    rng.shuffle(queries)
    return queries


# ----------------------------------------------------------- fan-geometry

# cones over lattice k-gons at height one, vertices in counterclockwise order
KGONS = {
    4: [(1, 0), (0, 1), (-1, 0), (0, -1)],
    5: [(1, 0), (1, 1), (-1, 1), (-1, 0), (0, -1)],
    6: [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    7: [(-1, -1), (0, -1), (1, 0), (1, 1), (0, 2), (-1, 2), (-2, 0)],
    8: [(0, -2), (1, -2), (2, -1), (2, 0), (1, 1), (0, 1), (-1, 0), (-1, -1)],
    9: [(2, 3), (0, 2), (-1, 1), (-2, -2), (-1, -2), (1, -1), (2, 0), (3, 2), (3, 3)],
    10: [(2, 3), (0, 2), (-1, 1), (-2, -1), (-2, -2), (-1, -2), (1, -1), (2, 0), (3, 2), (3, 3)],
    11: [(1, 4), (-1, 3), (-2, 2), (-3, 0), (-2, -3), (-1, -3), (1, -2), (2, -1), (3, 1), (3, 2), (2, 4)],
    12: [(-2, -3), (-1, -3), (1, -2), (2, -1), (3, 1), (3, 2), (2, 3), (1, 3), (-1, 2), (-2, 1), (-3, -1), (-3, -2)],
}
# generators_extremal on the 11-gon finishes only after tens of seconds; it
# is left out so the 12-gon is the one query that runs into the time cap
EXTREMAL_KS = (4, 5, 6, 7, 8, 9, 10, 12)

CUBE = [list(p) for p in itertools.product((-1, 1), repeat=3)]
OCTAHEDRON = [[s * (i == d) for d in range(3)] for i in range(3) for s in (1, -1)]
BIPYRAMID = [[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]]
CUBOCTAHEDRON = [list(p) for p in itertools.product((-1, 0, 1), repeat=3) if sum(x * x for x in p) == 2]
# (points, vertices, reflexive, facet count or None for hull only)
HULLS = [
    (OCTAHEDRON, OCTAHEDRON, True, 8),
    (OCTAHEDRON + [[0, 0, 0]], OCTAHEDRON, True, 8),
    ([[2 * x for x in p] for p in OCTAHEDRON], [[2 * x for x in p] for p in OCTAHEDRON], False, 8),
    (BIPYRAMID, BIPYRAMID, True, 8),
    (CUBE, CUBE, True, 6),
    (CUBE + [[0, 0, 0], [1, 0, 0]], CUBE, True, 6),
    (CUBOCTAHEDRON, CUBOCTAHEDRON, None, None),
]


# fixed refinements of P3 at depths 1, 1, 2, 2, 3, 3: the seed moves each
# one, with P3 itself, by a signed permutation of coordinates, so every
# round holds new fans while their cost stays the same from seed to seed
P3_REFINEMENTS = [subdivided_p3(random.Random(i), depth) for i, depth in enumerate((1, 1, 2, 2, 3, 3))]


def fan_geometry_round(rng):
    queries = []
    for k, poly in KGONS.items():
        gens = [[x, y, 1] for x, y in poly]
        queries.append({"kind": "cone.is_strongly_convex", "k": k, "gens": gens})
        queries.append({"kind": "cone.facet_data", "k": k, "gens": gens})
        if k in EXTREMAL_KS:
            queries.append({"kind": "cone.generators_extremal", "k": k, "gens": gens})
    for n in range(2, 7):
        rays, cones = projective_space(n)
        for kind in ("fan.validate_fan", "fan.is_complete"):
            queries.append({"kind": kind, "rays": [list(r) for r in rays], "cones": cones})
    coarse_rays, coarse_cones = projective_space(3)
    for rays, cones in P3_REFINEMENTS:
        t = signed_permutation(rng, 3)
        fan = {"rays": [list(t(r)) for r in rays], "cones": cones}
        for kind in ("fan.validate_fan", "fan.is_complete"):
            queries.append({"kind": kind, **fan})
        coarse = {"coarse_rays": [list(t(r)) for r in coarse_rays], "coarse_cones": coarse_cones}
        for kind in ("fan.is_refinement", "fan.crepant_pullback"):
            queries.append({"kind": kind, **fan, **coarse})
    for points, vertices, reflexive, facets in HULLS:
        queries.append({"kind": "polytope.hull", "points": points, "vertices": vertices})
        if facets is None:
            continue
        for kind in ("polytope.contains_origin_interior", "polytope.is_reflexive", "polytope.face_fan"):
            queries.append(
                {"kind": kind, "points": points, "vertices": vertices, "reflexive": reflexive, "facets": facets}
            )
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------- polygon-forms

# entry-size ladder of the seeded GL(2,Z) images: coordinates grow with it
GL2_SIZES = (1, 10, 100, 1000)
SHEARS = (((1, 1), (0, 1)), ((1, 0), (1, 1)))


def random_gl2(rng, size):
    """A product of positive shears with entries reaching `size`, times a
    seeded signed permutation."""
    m = ((1, 0), (0, 1))
    while max(abs(x) for row in m for x in row) < size:
        m = _matmul(rng.choice(SHEARS), m)
    sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
    flip = ((0, sx), (sy, 0)) if rng.random() < 0.5 else ((sx, 0), (0, sy))
    return _matmul(flip, m)


def _matmul(g, h):
    return tuple(tuple(sum(g[i][k] * h[k][j] for k in range(2)) for j in range(2)) for i in range(2))


def _image(m, points):
    return [[m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y] for x, y in points]


def non_reflexive_polygon(rng):
    """Lattice polygon with the origin strictly inside that is not
    reflexive."""
    while True:
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 6))]
        if origin_interior(pts) and not is_reflexive_polygon(pts):
            return pts


def polygon_round(rng, classes):
    queries = []
    for nf in classes:
        for size in GL2_SIZES:
            pts = _image(random_gl2(rng, size), nf)
            queries.append({"kind": "polygon", "points": pts, "size": size})
    for _ in range(12):
        pts = _image(random_gl2(rng, rng.choice(GL2_SIZES[:2])), non_reflexive_polygon(rng))
        queries.append({"kind": "polygon", "points": pts, "size": -1})
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------- samples-repeat

MARKOV_MAX = 10**40


def samples_commands(samples_dir, run_dir):
    """argv lists for every subcommand over the files in samples/.  Fan
    refinements for `pair pullback` are written into run_dir."""
    names = sorted(os.listdir(samples_dir))
    path = lambda name: os.path.join(samples_dir, name)  # noqa: E731
    fans = [n for n in names if n.endswith(".fan")]
    pairs = [n for n in names if n.endswith(".pair")]
    polys = [n for n in names if n.endswith(".poly")]
    cmds = []
    for n in fans:
        cmds.append(["--json-lines", "fan", "check", path(n)])
    for n in ("p2.fan", "f0.fan", "f1.fan", "f2.fan", "f3.fan", "p1xp1.fan", "wp112.fan"):
        for cone in range(3 if n in ("p2.fan", "wp112.fan") else 4):
            cmds.append(["--json-lines", "fan", "resolve2d", path(n), "--cone", str(cone)])
    cmds.append(["fan", "subdivide", path("p2.fan"), "--stratum", "0,1"])
    cmds.append(["fan", "subdivide", path("p3.fan"), "--stratum", "1,2"])
    cmds.append(["fan", "subdivide", path("p3.fan"), "--stratum", "0,1,2"])
    for n in pairs:
        cmds.append(["--json-lines", "pair", "classify", path(n)])
        cmds.append(["--json-lines", "pair", "complexity", path(n)])
    points = {"p2_boundary.pair": "1,1", "p3_boundary.pair": "1,1,1", "p1xp1_boundary.pair": "1,1", "wp112_boundary.pair": "1,1"}
    for n, point in points.items():
        cmds.append(["--json-lines", "pair", "discrepancy", path(n), f"--point={point}"])
    for n, fan_name, stratum in (("p2_boundary.pair", "p2.fan", (0, 1)), ("p3_boundary.pair", "p3.fan", (0, 1, 2))):
        refinement = os.path.join(run_dir, f"refine-{fan_name}")
        _write_subdivision(path(fan_name), stratum, refinement)
        cmds.append(["pair", "pullback", path(n), "--refinement", refinement])
    for n in polys:
        cmds.append(["--json-lines", "polytope", "check", path(n)])
    cmds.append(["--json-lines", "polytope", "enumerate-reflexive", "--dim", "2", "--count-only"])
    cmds.append(["--json-lines", "polytope", "enumerate-reflexive", "--dim", "2"])
    cmds.append(["--json-lines", "markov", "table", "--max", str(MARKOV_MAX)])
    cmds.append(["markov", "table", "--max", "1000"])
    for triple in ("1,1,1", "1,2,5", "2,5,29", "5,13,194"):
        cmds.append(["--json-lines", "markov", "adjacent", "--triple", triple])
    cmds.append(["--json-lines", "casebook", "segre"])
    cmds.append(["--json-lines", "casebook", "suite"])
    return [{"kind": "cli", "argv": argv} for argv in cmds]


def read_fan_file(path):
    rays, cones = [], []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            words = raw.split("#", 1)[0].split()
            if words and words[0] == "ray":
                rays.append(tuple(int(x) for x in words[1:]))
            elif words and words[0] == "cone":
                cones.append([int(x) for x in words[1:]])
    return rays, cones


def _write_subdivision(fan_path, stratum, out_path):
    rays, cones = read_fan_file(fan_path)
    rays, cones = star_subdivide(rays, cones, list(stratum))
    lines = [f"dim {len(rays[0])}"]
    lines += ["ray " + " ".join(map(str, r)) for r in rays]
    lines += ["cone " + " ".join(map(str, c)) for c in cones]
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ------------------------------------------------------------------ entry


def rounds(workload, seed, count, samples_dir=None, run_dir=None, classes=None):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "pair-stream":
        seen = set()
        return [pair_round(rng, seen) for _ in range(count)]
    if workload == "fan-geometry":
        return [fan_geometry_round(rng) for _ in range(count)]
    if workload == "polygon-forms":
        return [polygon_round(rng, classes) for _ in range(count)]
    if workload == "samples-repeat":
        commands = samples_commands(samples_dir, run_dir)
        return [rng.sample(commands, len(commands)) for _ in range(count)]
    raise ValueError(f"unknown workload {workload}")
