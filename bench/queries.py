"""Run one benchmark query against toriclab and return its verdict.

Library functions are reached through their modules (``pairs.index``, not
a bound name) so the tracer's rebinding also covers the benchmark's own
calls.  Verdicts are JSON-compatible, in the shape ref.py produces.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction

from toriclab import catalog, cli, fan, pairs, polytope
from toriclab import complexity as cx


def _fan(rays, cones):
    rays = [tuple(r) for r in rays]
    return fan.Fan.from_data(rays, cones, rank=len(rays[0]))


def pair_query(q):
    f = _fan(q["rays"], q["cones"])
    given = dict(zip((tuple(r) for r in q["rays"]), q["coeffs"]))
    pair = pairs.ToricPair.from_fan(f, [Fraction(given[r]) for r in f.rays])
    report = cx.complexity(pair, cx.decomposition_by_primes(pair))
    out = [pairs.singularity_type(pair), pairs.is_log_cy(pair), pairs.index(pair), str(report.c)]
    if q["point"] is not None:
        a = pairs.log_discrepancy(pair, q["point"])
        place = pairs.classify_extracted_place(pair, q["point"])
        out += [str(a), [place.log_canonical, place.canonical, place.non_canonical, place.terminal, place.non_terminal]]
    return out


def fan_geometry_query(q):
    kind = q["kind"]
    if kind.startswith("cone."):
        cone = fan.Cone.from_generators(q["gens"])
        if kind == "cone.facet_data":
            return sorted(sorted(members) for members, _ in cone.facet_data)
        return getattr(cone, kind.split(".", 1)[1])()
    if kind.startswith("fan."):
        f = _fan(q["rays"], q["cones"])
        if kind == "fan.validate_fan":
            return fan.validate_fan(f).valid
        if kind == "fan.is_complete":
            return fan.is_complete(f)
        coarse = _fan(q["coarse_rays"], q["coarse_cones"])
        if kind == "fan.is_refinement":
            return fan.is_refinement(f, coarse)
        pulled = pairs.crepant_pullback(pairs.ToricPair.reduced(coarse), f)
        return sorted([list(r), str(b)] for r, b in zip(pulled.fan.rays, pulled.boundary))
    P = polytope.Polytope.hull(q["points"])
    if kind == "polytope.hull":
        return sorted(list(v) for v in P.vertices)
    if kind == "polytope.contains_origin_interior":
        return P.contains_origin_interior()
    if kind == "polytope.is_reflexive":
        return polytope.is_reflexive(P)
    if kind == "polytope.face_fan":
        ff = polytope.face_fan(P)
        return [len(ff.rays), len(ff.max_cones)]
    raise ValueError(f"unknown query kind {kind}")


class PolygonClassifier:
    """Classifies polygons against the reflexive catalog loaded at set-up."""

    def __init__(self):
        catalog.bundled_fans()  # the cold reflexive-polygon enumeration
        self.polygons = polytope.enumerate_reflexive_polygons()
        self.index = {P.vertices: i for i, P in enumerate(self.polygons)}

    def __call__(self, q):
        P = polytope.Polytope.hull(q["points"], rank=2)
        nf = polytope.unimodular_normal_form(P)
        reflexive = polytope.is_reflexive(P)
        smooth = polytope.is_smooth_fano_polytope(P)
        return [self.index.get(nf.vertices) if reflexive else "not reflexive", smooth]

    def catalog_vertices(self):
        return [[[int(x) for x in v] for v in P.vertices] for P in self.polygons]


def cli_query(q):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(q["argv"])
    return [code, out.getvalue()]


def make_executor(workload):
    """(set-up object or None, function running one query)."""
    if workload == "pair-stream":
        return None, pair_query
    if workload == "fan-geometry":
        return None, fan_geometry_query
    if workload == "polygon-forms":
        classifier = PolygonClassifier()
        return classifier, classifier
    if workload == "samples-repeat":
        catalog.bundled_fans()  # the cold reflexive-polygon enumeration
        return None, cli_query
    raise ValueError(f"unknown workload {workload}")
