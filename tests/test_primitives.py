"""The shared primitives: the echelon routine over Q, the wall map of a set
of cones, and the per-cone functional solve.  Randomized checks run against
the minor-gcd oracle, which never eliminates.  AST guards keep the library
free of asserts and unbounded caches, and keep every Smith form in
lattice.  Count guards keep complete simplicial fans off the double
description, a cone to one elimination over Q (none in rank 2 and 3,
where its seeds are cofactors), span membership off Smith forms, and pair
queries off Smith forms outside the least-psi scan."""

import ast
import importlib
import itertools
import math
import pathlib
import random
from fractions import Fraction

import pytest

import toriclab
from toriclab import fan as fan_module, lattice, pairs, toric
from toriclab.catalog import bundled_fans
from toriclab.complexity import complexity, decomposition_by_primes
from toriclab.fan import (
    Cone,
    Diagnostics,
    Fan,
    is_complete,
    is_refinement,
    is_simplicial,
    star_subdivision,
    validate_fan,
    walls,
)
from toriclab.lattice import rank, solve_rational, vdot
from toriclab.pairs import ToricPair, crepant_pullback, index, is_log_cy, singularity_type, validate_pair
from toriclab.polytope import enumerate_reflexive_polygons, face_fan
from toriclab.toric import local_functionals, projective_space_fan, weighted_projective_fan

from oracles import minor_gcds, nullspace, row_echelon
from test_double_description import _kgon
from test_walls import (
    CUBE_FACE_FAN,
    CUBE_SPLIT_ON_ONE_SIDE,
    CUBOCTAHEDRON_FACE_FAN,
    HEXAGONAL_PRISM_FACE_FAN,
    _random_face_fan,
)


def _random_matrix(rng):
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    out = [[rng.choice((0, 0, -1, 1, -2, 2, 3)) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and rng.random() < 0.4:  # force a dependent row
        k = rng.randint(-2, 2)
        out[-1] = [k * x + y for x, y in zip(out[0], out[1])]
    return out, cols


def test_rank_and_nullspace_against_minor_gcds():
    rng = random.Random(20240903)
    for _ in range(300):
        rows, width = _random_matrix(rng)
        r = sum(1 for g in minor_gcds(rows) if g != 0)
        assert rank(rows) == r, rows
        basis = nullspace(rows, width)
        assert len(basis) == width - r, rows
        for h in basis:
            assert all(vdot(h, row) == 0 for row in rows), (rows, h)
        if basis:  # the basis vectors are independent
            scaled = []
            for h in basis:
                denom = math.lcm(*(x.denominator for x in h))
                scaled.append([int(x * denom) for x in h])
            assert sum(1 for g in minor_gcds(scaled) if g != 0) == len(basis), rows


def test_row_echelon_is_reduced_and_keeps_extra_columns():
    rng = random.Random(7)
    for _ in range(200):
        rows, width = _random_matrix(rng)
        rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in rows]
        a, pivots = row_echelon([row + [b] for row, b in zip(rows, rhs)], width)
        assert list(pivots) == sorted(set(pivots))
        for i, col in enumerate(pivots):
            assert [a[k][col] for k in range(len(a))] == [int(k == i) for k in range(len(a))]
        for row in a[len(pivots):]:
            assert all(x == 0 for x in row[:width])
        x = solve_rational(rows, width, rhs)
        consistent = all(row[width] == 0 for row in a[len(pivots):])
        assert (x is not None) == consistent
        if x is not None:
            assert [vdot(row, x) for row in rows] == rhs


def test_row_echelon_takes_fraction_rows():
    a, pivots = row_echelon([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]], 2)
    assert pivots == (0,)
    assert a[0] == [1, Fraction(2, 3)]
    assert a[1] == [0, 0]


def test_line_has_no_facet_data():
    assert Cone.from_generators([(1, 0, 0), (-1, 0, 0)]).facet_data == ()


def test_walls_of_projective_plane_are_shared_twice():
    fan = projective_space_fan(2)
    wall_map = walls([fan.cone(c) for c in fan.max_cones])
    assert sorted(wall_map) == sorted(frozenset([r]) for r in fan.rays)
    assert all(len(ks) == 2 for ks in wall_map.values())
    # each wall maps to its (cone index, inward normal) pairs
    single = walls([Cone.from_generators([(1, 0), (0, 1)])])
    assert sorted(single.values()) == [((0, (0, 1)),), ((0, (1, 0)),)]


def test_local_functionals_match_values_or_report_none():
    fan = projective_space_fan(2)
    values = [Fraction(1), Fraction(2, 3), Fraction(-1)]
    for c, m in zip(fan.max_cones, local_functionals(fan, values)):
        assert m is not None
        assert all(vdot(m, fan.rays[i]) == values[i] for i in c)
    square = Fan.from_data([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 1, 2, 3)])
    assert local_functionals(square, [1, 1, 1, 1])[0] == (0, 0, 1)
    assert local_functionals(square, [1, 2, 1, 1]) == [None]


def test_one_diagnostics_class():
    assert isinstance(validate_fan(projective_space_fan(2)), Diagnostics)
    bad = ToricPair.from_fan(
        Fan.from_data([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 1, 2, 3)]), [0, 1, 0, 0]
    )
    diag = validate_pair(bad)
    assert isinstance(diag, Diagnostics) and not diag


def test_library_has_no_assert_statements():
    # python -O strips asserts, so invariants must raise real exceptions
    package = pathlib.Path(toriclab.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not offenders, offenders


def test_library_has_no_unbounded_caches():
    # whole-pair and whole-fan cache keys grow without limit in long loops
    package = pathlib.Path(toriclab.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name == "cache":  # functools.cache is lru_cache(maxsize=None)
                offenders.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "lru_cache":
                sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_only_lattice_reads_smith_forms():
    # every other module reads U, d and Z off a lattice.SolveChart
    package = pathlib.Path(toriclab.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "lattice.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            names.append(node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None))
            if "smith_normal_form" in names:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_pair_invariants_import_no_class_group_code():
    package = pathlib.Path(toriclab.__file__).parent
    for name, banned in (("complexity", {"toriclab.toric"}), ("pairs", {"divisor_class", "divisor_class_q"})):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported |= {node.module} | {a.name for a in node.names}
        assert not imported & banned, (name, imported & banned)


def test_pair_invariants_take_no_class_group_presentation():
    fan = Fan.from_data([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, -3, -7)], list(itertools.combinations(range(4), 3)))
    pair = ToricPair.from_fan(fan, [Fraction(1, 2), 1, Fraction(2, 3), 0])
    before = toric._presentation.cache_info()
    complexity(pair, decomposition_by_primes(pair))
    is_log_cy(pair)
    is_log_cy(ToricPair.reduced(fan))
    assert toric._presentation.cache_info() == before

def test_traced_names_resolve():
    # the bench tracer wraps (module, attribute) pairs by name; read its
    # TRACED tuple without importing the bench, so a rename fails here
    tracer = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert traced
    missing = []
    for module_name, attr in traced:
        owner = importlib.import_module(f"toriclab.{module_name}")
        for part in attr.split("."):
            owner = vars(owner).get(part) if isinstance(owner, type) else getattr(owner, part, None)
            if owner is None:
                missing.append(f"{module_name}.{attr}")
                break
    assert not missing, missing


# ------------------------------------------------------------ count guards


def _star_subdivided_p3(cones, seed):
    """P3 star-subdivided at seeded maximal cones and 2-faces until it has
    the given number of maximal cones (each step adds two)."""
    rng = random.Random(seed)
    fan = projective_space_fan(3)
    while len(fan.max_cones) < cones:
        host = rng.choice(fan.max_cones)
        fan = star_subdivision(fan, rng.sample(host, 2) if len(fan.max_cones) + 4 <= cones and rng.random() < 0.3 else host)
    return Fan(fan.rays, fan.max_cones, fan.rank)


def test_complete_simplicial_fans_take_no_double_description(count_calls):
    fans = [projective_space_fan(n) for n in range(2, 7)] + [_star_subdivided_p3(256, 1234)]
    assert len(fans[-1].max_cones) == 256
    fans += [Fan(fan.rays, fan.max_cones, fan.rank) for _, fan in bundled_fans() if fan.rank >= 2]
    runs = count_calls("_double_description", fan_module)
    separations = count_calls("_separating", fan_module)
    for fan in fans:
        assert validate_fan(fan) and is_complete(fan)
    assert (len(runs), len(separations)) == (0, 0)


def test_complete_non_simplicial_fans_take_no_separation(count_calls):
    # fresh copies: the face fans of the cube, the cuboctahedron, a
    # hexagonal prism and 20 seeded 3D lattice polytopes, each with a facet
    # that is not a triangle, are accepted by their walls alone
    rng = random.Random(35)
    fans = [CUBE_FACE_FAN, CUBOCTAHEDRON_FACE_FAN, HEXAGONAL_PRISM_FACE_FAN]
    fans += [_random_face_fan(rng) for _ in range(20)]
    separations = count_calls("_separating", fan_module)
    for fan in fans:
        fan = Fan(fan.rays, fan.max_cones, fan.rank)
        assert validate_fan(fan) and is_complete(fan) and not is_simplicial(fan)
    assert separations == []
    # the one-sided split is rejected by its walls, and the pairwise scan
    # finds its first violation
    fan = Fan(CUBE_SPLIT_ON_ONE_SIDE.rays, CUBE_SPLIT_ON_ONE_SIDE.max_cones, 3)
    assert validate_fan(fan).problem == "cones do not intersect in a common face"
    assert separations


def test_a_cone_takes_one_elimination_for_its_dimension_and_facets(count_calls):
    echelons = count_calls("_seed_echelon", fan_module)
    cone = Cone.from_generators(_kgon(12))
    assert (cone.dim, len(cone.facet_data)) == (3, 12)
    assert len(echelons) == 1


def test_a_cold_kgon_pair_takes_one_elimination_per_cone_and_simplex(count_calls):
    # the cone over the 12-gon and the 10 simplices of its triangulation
    echelons = count_calls("_seed_echelon", fan_module)
    pairs._psi.cache_clear()
    pair = ToricPair.from_fan(Fan.from_data(_kgon(12), [range(12)]), [Fraction(1, 2)] * 12)
    assert singularity_type(pair) == "klt"
    assert len(echelons) == 11


def test_fans_in_rank_2_and_3_take_no_elimination(count_calls):
    # fresh fans, so every cone seeds once, from cofactors
    p2, p3 = projective_space_fan(2), projective_space_fan(3)
    cases = [(p2, p2)] + [(face_fan(P), face_fan(P)) for P in enumerate_reflexive_polygons()]
    cases += [(_star_subdivided_p3(cones, seed), p3) for cones, seed in ((8, 3), (12, 77), (16, 1234), (40, 5))]
    assert len(cases) == 21
    echelons = count_calls("echelon", fan_module)
    seeds = count_calls("_seed_echelon", fan_module)
    for fine, coarse in cases:
        fine, coarse = (Fan(f.rays, f.max_cones, f.rank) for f in (fine, coarse))
        seeds.clear()
        pairs._psi.cache_clear()
        assert validate_fan(fine) and is_complete(fine) and is_refinement(fine, coarse)
        crepant_pullback(ToricPair.reduced(coarse), fine)
        assert (len(echelons), len(seeds)) == (0, len(fine.max_cones) + len(coarse.max_cones))
    # rank 4 keeps the elimination, one per cone
    seeds.clear()
    p4 = projective_space_fan(4)
    p4 = Fan(p4.rays, p4.max_cones, p4.rank)
    assert validate_fan(p4) and is_complete(p4)
    assert len(echelons) == len(seeds) == 5


def test_span_membership_takes_no_smith_form(count_calls):
    smith = count_calls("smith_normal_form", lattice)
    cone = Cone.from_generators([(1, 0, 0), (1, 2, 0)])
    assert cone.contains((2, 2, 0)) and cone.relint_contains((2, 2, 0))
    assert not cone.contains((0, 0, 1)) and not cone.relint_contains((1, 0, 0))
    assert not cone.contains((Fraction(1, 2), 0, Fraction(1, 3)))
    assert smith == []


def test_one_wall_map_per_fan_and_no_smith_form_for_fano(count_calls):
    built = count_calls("walls", fan_module)
    smith = count_calls("smith_normal_form", lattice)
    fans = [projective_space_fan(n) for n in range(2, 5)] + [_star_subdivided_p3(40, 5)]
    for k, fan in enumerate(fans, 1):
        assert validate_fan(fan) and is_complete(fan) and toric.is_fano(toric.ToricVariety(fan)) == (k < 4)
        assert len(built) == k
    assert smith == []


def _classify(pair):
    """What `pair classify` asks of a pair read from a file."""
    validate_fan(Fan(pair.fan.rays, pair.fan.max_cones, pair.fan.rank))
    return singularity_type(pair), is_log_cy(pair), index(pair), complexity(pair, decomposition_by_primes(pair)).c


def test_pair_queries_take_smith_forms_only_for_the_least_psi(count_calls):
    fans = [
        projective_space_fan(3),
        weighted_projective_fan((1, 4, 1, 5)),
        weighted_projective_fan((2, 3, 5)),
        Fan.from_data([(1, 0, 0), (0, 1, 0), (3, 5, 11), (-4, -6, -11)], list(itertools.combinations(range(4), 3))),
        _star_subdivided_p3(12, 77),
    ]
    smith = count_calls("smith_normal_form", lattice)
    pairs._psi.cache_clear()
    for fan in fans:
        lc = ToricPair.from_fan(fan, [1] + [Fraction(1, 2)] * (len(fan.rays) - 1))
        assert _classify(lc)[0] == "lc"
    assert smith == []
    below_lc = 0
    for fan in fans:
        for b in (Fraction(1, 3), Fraction(5, 6), 0):
            pair = ToricPair.from_fan(fan, [b] * len(fan.rays))
            below_lc += _classify(pair)[0] in ("klt", "canonical", "terminal")
    assert below_lc == 15 and smith
    assert all("_least_exceptional_psi" in call.callers for call in smith)
