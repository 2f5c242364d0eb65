"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line on the real stdout so a plain
`pytest tests/test_acceptance.py` run shows the scorecard.  All tolerances
are exact equalities; the only numeric bounds are the stated wall-clock
budgets.
"""

import functools
import math
import os
import random
import time

from toriclab.catalog import bundled_fans
from toriclab.complexity import (
    assert_bmsz,
    complexity,
    complexity_transport,
    decomposition_by_primes,
)
from toriclab.fan import Cone, Fan, resolve_cone_2d, star_subdivision
from toriclab.markov import adjacent_triple, enumerate_markov, hkw_surface
from toriclab.pairs import ToricPair, index, is_log_cy, singularity_type, standard_pair
from toriclab.polytope import (
    Polytope,
    enumerate_reflexive_polygons,
    is_reflexive,
    is_smooth_fano_polytope,
)
from toriclab.toric import ToricVariety, divisor_class, projective_space_fan

from oracles import (
    classify_cone_brute,
    expected_2d_insertions,
    is_smooth_fano_det,
    markov_scan_quadratic,
    random_complete_2d_fan,
    random_decomposition,
    reflexive_polygons_boundary_walk,
)


RESULTS: list[str] = []  # rendered by the terminal-summary hook in conftest


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append(f"criterion {num:2d} FAIL  {title}")
                raise
            RESULTS.append(f"criterion {num:2d} PASS  {title}")

        return wrapper

    return deco


def _random_3d_refinement(rng, base, steps):
    fan = base
    for _ in range(steps):
        cone = rng.choice(fan.max_cones)
        size = rng.randrange(1, len(cone) + 1)
        fan = star_subdivision(fan, rng.sample(cone, size))
    return fan


@criterion(1, "toric boundary law on every bundled fan")
def test_criterion_1_boundary_law():
    start = time.monotonic()
    fans = bundled_fans()
    assert len(fans) >= 25
    for name, fan in fans:
        pair = ToricPair.reduced(fan)
        X = ToricVariety(fan)
        kb = [int(b - 1) for b in pair.boundary]
        assert divisor_class(X, kb).is_zero(), name
        assert index(pair) == 1, name
        assert singularity_type(pair) == "lc", name
        assert is_log_cy(pair), name
    assert time.monotonic() - start < 10.0


@criterion(2, "complexity zero for standard and reflexive boundary pairs")
def test_criterion_2_complexity_zero():
    for n in range(1, 7):
        pair = standard_pair(n)
        assert complexity(pair, decomposition_by_primes(pair)).c == 0
    from toriclab.polytope import face_fan

    polys = enumerate_reflexive_polygons()
    assert len(polys) == 16
    for P in polys:
        pair = ToricPair.reduced(face_fan(P))
        assert complexity(pair, decomposition_by_primes(pair)).c == 0


@criterion(3, "complexity is non-negative on 500 randomized log CY pairs")
def test_criterion_3_bmsz_nonnegative():
    rng = random.Random(34342)
    bases_3d = [projective_space_fan(3), dict(bundled_fans())["P(1,4,1,5)"]]
    count = 0
    while count < 500:
        if count % 5 < 3:
            fan = random_complete_2d_fan(rng)
        else:
            fan = _random_3d_refinement(rng, rng.choice(bases_3d), rng.randrange(0, 3))
        pair = ToricPair.reduced(fan)
        assert is_log_cy(pair)
        report = assert_bmsz(pair, random_decomposition(rng, pair))
        assert report.c >= 0
        count += 1


@criterion(4, "crepant pullback preserves log CY, index and complexity (200 chains)")
def test_criterion_4_crepant_transport():
    rng = random.Random(991)
    bases = [
        projective_space_fan(2),
        projective_space_fan(3),
        dict(bundled_fans())["P1xP1"],
        dict(bundled_fans())["P(1,1,2)"],
        dict(bundled_fans())["P(1,4,1,5)"],
    ]
    from toriclab.pairs import crepant_pullback

    for _ in range(200):
        base = rng.choice(bases)
        pair = ToricPair.reduced(base)
        fine = _random_3d_refinement(rng, base, rng.randrange(1, 4))
        pulled = crepant_pullback(pair, fine)
        assert all(b == 1 for b in pulled.boundary)
        assert is_log_cy(pulled)
        assert index(pulled) == 1
        before, after = complexity_transport(pair, fine, decomposition_by_primes(pair))
        assert before.c == after.c == 0


@criterion(5, "singularity classifier agrees with the brute-force scan")
def test_criterion_5_singularity_oracle():
    start = time.monotonic()
    for a in range(1, 13):
        for b in range(a + 1, 13):
            g = math.gcd(a, b)
            fan = Fan.from_data([(1, 0), (a // g, b // g)], [(0, 1)])
            got = singularity_type(ToricPair.from_fan(fan, [0, 0]))
            want = classify_cone_brute([(1, 0), (a // g, b // g)])
            assert got == want, (a, b)
    rng = random.Random(64)
    produced = 0
    while produced < 50:
        gens = []
        while len(gens) < 3:
            v = tuple(rng.randrange(-5, 6) for _ in range(3))
            if all(x == 0 for x in v):
                continue
            g = math.gcd(*v)
            v = tuple(x // g for x in v)
            if v not in gens and tuple(-x for x in v) not in gens:
                gens.append(v)
        from oracles import _det_int

        if _det_int([list(g) for g in gens]) == 0:
            continue
        fan = Fan.from_data(gens, [(0, 1, 2)])
        got = singularity_type(ToricPair.from_fan(fan, [0, 0, 0]))
        want = classify_cone_brute(gens)
        assert got == want, gens
        produced += 1
    assert time.monotonic() - start < 30.0


@criterion(6, "2D resolutions match the Hilbert-basis oracle")
def test_criterion_6_resolution():
    for a in range(1, 13):
        for b in range(a + 1, 13):
            cone = Cone.from_generators([(1, 0), (a, b)])
            got = resolve_cone_2d(cone)
            assert got == expected_2d_insertions((1, 0), (a, b)), (a, b)
            walk = list(cone.generators)
            walk = [walk[0]] + got + [walk[1]]
            if walk[0][0] * walk[-1][1] - walk[0][1] * walk[-1][0] < 0:
                walk = [cone.generators[1]] + got + [cone.generators[0]]
            for p, q in zip(walk, walk[1:]):
                assert abs(p[0] * q[1] - p[1] * q[0]) == 1, (a, b)
    for n in range(2, 13):
        cone = Cone.from_generators([(1, 0), (1, n)])
        assert resolve_cone_2d(cone) == [(1, k) for k in range(1, n)]


@criterion(7, "16 reflexive polygons, 5 smooth, confirmed by the boundary-walk oracle")
def test_criterion_7_enumeration():
    start = time.monotonic()
    polys = enumerate_reflexive_polygons()
    assert len(polys) == 16
    assert all(is_reflexive(P) for P in polys)
    assert sum(1 for P in polys if is_smooth_fano_polytope(P)) == 5
    oracle_forms = reflexive_polygons_boundary_walk(box=4)
    assert {P.vertices for P in polys} == oracle_forms
    assert sum(1 for v in oracle_forms if is_smooth_fano_det(Polytope.hull(v))) == 5
    assert time.monotonic() - start < 60.0


@criterion(8, "Markov enumeration, adjacency and hypersurface identities")
def test_criterion_8_markov():
    tree = {t.as_tuple() for t in enumerate_markov(2000)}
    assert tree == markov_scan_quadratic(2000)
    for t in enumerate_markov(1000):
        a, b, c = t.as_tuple()
        d = 3 * a * b - c
        assert adjacent_triple(t).as_tuple() == tuple(sorted((a, b, d)))
        s = hkw_surface(t)
        assert s.degree == c * d == a * a + b * b
        assert s.amplitude > 0 and s.fano


@criterion(9, "cubic threefold certificate: zero coefficients, ten lines, mutation flips")
def test_criterion_9_segre():
    from toriclab.casebook import segre_arrangement, segre_certificate

    cert = segre_certificate()
    assert [c for _, c in cert.coefficients] == [0, 0, 0, 0, 0]
    assert cert.effective
    assert cert.contracted_line_count == 10
    mutated = segre_certificate(segre_arrangement().drop_incidence("p", "H2"))
    assert not mutated.effective
    assert dict(mutated.coefficients)["p"] == -1


@criterion(10, "family-level constructibility is documented as out of scope")
def test_criterion_10_scope_documented():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    text = open(readme, encoding="utf-8").read()
    assert "## Scope and limitations" in text
    # the notes must name what is NOT computed here
    lowered = text.lower()
    for phrase in ("famil", "not", "minimal model"):
        assert phrase in lowered
