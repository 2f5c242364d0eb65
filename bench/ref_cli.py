"""Independent checks of `toriclab` command output on the samples/ files.

`cli_ok(argv, code, out)` decides whether one captured command run is
right.  Expected records are rebuilt from the sample files with the
benchmark's own arithmetic (ref.py, exact.py); nothing here imports
toriclab.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import ref
from gen import read_fan_file, star_subdivide

# bundled fans whose anticanonical class is not ample (F2, F3); every other
# bundled fan is Fano, weighted projective spaces and reflexive face fans
# included
NOT_FANO = {"F2", "F3"}
BUNDLED = (
    ["P1", "P2", "P3", "P4", "P1xP1", "F0", "F1", "F2", "F3", "P(1,1,2)", "P(1,4,1,5)"]
    + [f"reflexive-{i:02d}" for i in range(1, 17)]
)


def read_pair_file(path):
    rays, cones = read_fan_file(path)
    coeffs = [Fraction(0)] * len(rays)
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            words = raw.split("#", 1)[0].split()
            if words and words[0] == "coeff":
                coeffs[int(words[1])] += Fraction(words[2])
    return rays, cones, coeffs


def read_polytope_file(path):
    with open(path, encoding="utf-8") as fh:
        return [
            tuple(int(x) for x in words[1:])
            for words in (raw.split("#", 1)[0].split() for raw in fh)
            if words and words[0] == "vertex"
        ]


def canonical_fan_text(rays, cones):
    """The fan file toriclab emits: rays sorted, cones remapped and sorted."""
    order = sorted(range(len(rays)), key=lambda i: rays[i])
    relabel = {old: new for new, old in enumerate(order)}
    new_cones = sorted({tuple(sorted(relabel[i] for i in c)) for c in cones})
    lines = [f"dim {len(rays[0])}"]
    lines += ["ray " + " ".join(str(x) for x in rays[i]) for i in order]
    lines += ["cone " + " ".join(str(i) for i in c) for c in new_cones]
    return "\n".join(lines) + "\n", [rays[i] for i in order]


def hilbert_insertions_2d(u, w):
    """Lattice points of the 2D cone (u, w) that are irreducible (not a sum
    of two nonzero lattice points of the cone), minus u and w."""
    d = u[0] * w[1] - u[1] * w[0]
    if d < 0:
        u, w, d = w, u, -d
    xs = range(min(0, u[0], w[0], u[0] + w[0]), max(0, u[0], w[0], u[0] + w[0]) + 1)
    ys = range(min(0, u[1], w[1], u[1] + w[1]), max(0, u[1], w[1], u[1] + w[1]) + 1)

    def in_cone(p):
        s = p[0] * w[1] - p[1] * w[0]
        t = u[0] * p[1] - u[1] * p[0]
        return s >= 0 and t >= 0

    box = [(x, y) for x in xs for y in ys if (x, y) != (0, 0) and in_cone((x, y))]
    box = [p for p in box if (p[0] * w[1] - p[1] * w[0]) <= d and (u[0] * p[1] - u[1] * p[0]) <= d]
    irreducible = [
        v
        for v in box
        if not any(p != v and in_cone((v[0] - p[0], v[1] - p[1])) and (v[0] - p[0], v[1] - p[1]) != (0, 0) for p in box)
    ]
    return sorted(set(irreducible) - {tuple(u), tuple(w)})


def markov_triples(bound):
    seen, stack = set(), [(1, 1, 1)]
    while stack:
        t = stack.pop()
        if t in seen or t[2] > bound:
            continue
        seen.add(t)
        a, b, c = t
        stack += [tuple(sorted(x)) for x in ((3 * b * c - a, b, c), (a, 3 * a * c - b, c), (a, b, 3 * a * b - c))]
    return sorted(seen, key=lambda t: (t[2], t[1], t[0]))


def markov_row(t):
    a, b, c = t
    d = 3 * a * b - c
    weights = (a * a, b * b, d, c)
    degree = c * d
    wellformed = all(math.gcd(*(w for j, w in enumerate(weights) if j != i)) == 1 for i in range(4))
    return {
        "triple": list(t),
        "weights": list(weights),
        "degree": degree,
        "amplitude": sum(weights) - degree,
        "wellformed": wellformed,
        "quasismooth": True,
        "fano": sum(weights) - degree > 0,
    }


def _labels(a):
    names = ("log canonical place", "canonical place", "non-canonical place", "terminal place", "non-terminal place")
    return [n for n, flag in zip(names, (a == 0, a == 1, a < 1, a > 1, a <= 1)) if flag]


def _psi(rays, cones, coeffs, v):
    q = {"rays": rays, "cones": cones, "coeffs": [str(c) for c in coeffs], "point": list(v)}
    return Fraction(ref.pair_verdict(q)[4])


def expected(argv):
    """(exit code, expected stdout records or text) for one command."""
    json_lines = argv[0] == "--json-lines"
    words = argv[1:] if json_lines else argv
    group, sub, rest = words[0], words[1], words[2:]
    if (group, sub) == ("fan", "check"):
        return 0, [{"check": "fan", "valid": True}]
    if (group, sub) == ("fan", "resolve2d"):
        rays, cones = read_fan_file(rest[0])
        u, w = (rays[i] for i in cones[int(rest[2])])
        ins = hilbert_insertions_2d(u, w)
        return 0, ("resolve2d", ins)
    if (group, sub) == ("fan", "subdivide"):
        rays, cones = read_fan_file(rest[0])
        stratum = [int(x) for x in rest[2].split(",")]
        return 0, canonical_fan_text(*star_subdivide(rays, cones, stratum))[0]
    if group == "pair":
        rays, cones, coeffs = read_pair_file(rest[0])
        q = {"rays": rays, "cones": cones, "coeffs": [str(c) for c in coeffs], "point": None}
        stype, lcy, index, c = ref.pair_verdict(q)
        if sub == "classify":
            return 0, [{"type": stype, "log_cy": lcy, "index": index, "complexity": c}]
        if sub == "complexity":
            support = [i for i, b in enumerate(coeffs) if b > 0]
            norm = sum((coeffs[i] for i in support), Fraction(0))
            rho = Fraction(c) - len(rays[0]) + norm
            return 0, [{"dim": len(rays[0]), "rho": int(rho), "norm": str(norm), "c": c}]
        if sub == "discrepancy":
            point = tuple(int(x) for x in rest[1].split("=", 1)[1].split(","))
            a = _psi(rays, cones, coeffs, point)
            return 0, [{"point": list(point), "log_discrepancy": str(a), "labels": _labels(a)}]
        if sub == "pullback":
            fine_rays, fine_cones = read_fan_file(rest[2])
            text, ordered = canonical_fan_text(fine_rays, fine_cones)
            old = dict(zip(rays, coeffs))
            for i, r in enumerate(ordered):
                b = old[r] if r in old else 1 - _psi(rays, cones, coeffs, r)
                if b != 0:
                    text += f"coeff {i} {b}\n"
            return 0, text
    if (group, sub) == ("polytope", "check"):
        pts = read_polytope_file(rest[0])
        return 0, [
            {"origin-interior": ref.origin_interior(pts)},
            {"reflexive": ref.is_reflexive_polygon(pts)},
            {"smooth-fano": ref.is_smooth_polygon(pts)},
        ]
    if (group, sub) == ("polytope", "enumerate-reflexive"):
        if "--count-only" in rest:
            return 0, [{"count": 16}]
        return 0, ("reflexive-list", 16)
    if (group, sub) == ("markov", "table"):
        rows = [markov_row(t) for t in markov_triples(int(rest[1]))]
        if json_lines:
            return 0, rows
        header = f"{'triple':<14}{'weights':<18}{'degree':<8}{'amplitude':<11}{'wellformed':<12}{'quasismooth':<13}fano"
        lines = [header] + [
            f"{str(tuple(r['triple'])):<14}{str(tuple(r['weights'])):<18}{r['degree']:<8}{r['amplitude']:<11}"
            f"{str(r['wellformed']).lower():<12}{str(r['quasismooth']).lower():<13}{str(r['fano']).lower()}"
            for r in rows
        ]
        return 0, "\n".join(lines) + "\n"
    if (group, sub) == ("markov", "adjacent"):
        a, b, c = sorted(int(x) for x in rest[1].split(","))
        return 0, [{"triple": [a, b, c], "adjacent": sorted((a, b, 3 * a * b - c))}]
    if (group, sub) == ("casebook", "segre"):
        recs = [{"point": p, "coefficient": "0"} for p in "pqrst"]
        return 0, recs + [{"contracted-lines": 10}, {"effective": True}]
    if (group, sub) == ("casebook", "suite"):
        return 0, ("suite", BUNDLED)
    raise ValueError(f"no reference for {argv}")


def cli_ok(argv, code, out):
    want_code, want = expected(argv)
    if code != want_code:
        return False
    if isinstance(want, str):
        return out == want
    records = [json.loads(line) for line in out.splitlines()]
    if isinstance(want, list):
        return records == want
    tag = want[0]
    if tag == "resolve2d":
        inserted = sorted(tuple(r["inserted"]) for r in records[:-1])
        return inserted == want[1] and records[-1] == {"count": len(want[1])}
    if tag == "reflexive-list":
        polys = [r["vertices"] for r in records]
        forms = {tuple(map(tuple, ref.polygon_normal_form(p))) for p in polys}
        return len(polys) == want[1] == len(forms) and all(ref.is_reflexive_polygon(p) for p in polys)
    if tag == "suite":
        checks = ("kb-class-zero", "log-cy", "index-one", "lc", "complexity-zero")
        expect = []
        for name in want[1]:
            expect += [(f"{name}:{c}", "pass") for c in checks]
            expect.append((f"{name}:fano", "info", str(name not in NOT_FANO)))
        got = [
            (r["name"], r["status"]) if r["status"] != "info" else (r["name"], r["status"], r["witness"])
            for r in records
        ]
        return got == expect
    raise ValueError(tag)

