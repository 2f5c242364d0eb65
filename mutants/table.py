"""The table of mutants that mutants/run.py runs.

Each row names one change to the library and the tests that must fail
under it: `file` is a path under src/, `old` text that occurs there
exactly once, `new` its replacement, and `tests` pytest node ids.  A row
whose old text no longer occurs exactly once fails the run, so a change
that moves the code must update its rows.
"""

FAN = "src/toriclab/fan.py"
SEEDED_COFACTORS = "tests/test_echelon.py::test_seeded_rows_seed_from_cofactors_as_the_elimination_does"

ROWS = [
    # _covers_once and its guard (_covers_space).  Check (2) with > 0 in
    # place of >= 0 has no row: it is an equivalent mutant, since a wall in
    # two cones is a facet of both, so the second cone's generators off it
    # are never 0 on the first cone's normal for it
    {
        "name": "walls-check-2-dropped",
        "file": FAN,
        "old": "if any(vdot(h, g) >= 0 for g in cones[b].generators if g not in wall):",
        "new": "if False:",
        "tests": ["tests/test_walls.py::test_the_named_failures_are_the_ones_meant"],
    },
    {
        "name": "walls-check-4-dropped",
        "file": FAN,
        "old": "return not any(all(vdot(h, inside) >= 0 for _, h in cone.facet_data) for cone in cones[1:])",
        "new": "return True",
        "tests": ["tests/test_walls.py::test_the_named_failures_are_the_ones_meant"],
    },
    {
        "name": "walls-guard-admits-lower-dimensional-cones",
        "file": FAN,
        "old": "return bool(cones) and all(cone.dim == fan.rank for cone in cones) and _covers_once(cones, fan.wall_map)",
        "new": "return bool(cones) and _covers_once(cones, fan.wall_map)",
        "tests": ["tests/test_walls.py::test_named_fans_get_the_pairwise_diagnostics"],
    },
    {
        "name": "walls-guard-simplicial-only",
        "file": FAN,
        "old": "return bool(cones) and all(cone.dim == fan.rank for cone in cones) and _covers_once(cones, fan.wall_map)",
        "new": "return bool(cones) and all(len(cone.generators) == cone.dim == cone.rank for cone in cones) and _covers_once(cones, fan.wall_map)",
        "tests": ["tests/test_primitives.py::test_complete_non_simplicial_fans_take_no_separation"],
    },
    # _cofactor_echelon: each must differ from the elimination somewhere
    {
        "name": "cofactors-sign-rule-flipped",
        "file": FAN,
        "old": "if r[1] == (r0 + 2) % 3:",
        "new": "if r[1] != (r0 + 2) % 3:",
        "tests": [SEEDED_COFACTORS],
    },
    {
        "name": "cofactors-r1-always-the-lower-candidate",
        "file": FAN,
        "old": "r = (r0, lo, hi) if ab[hi] else (r0, hi, lo)",
        "new": "r = (r0, lo, hi)",
        "tests": [SEEDED_COFACTORS],
    },
    {
        "name": "cofactors-2d-sign-dropped-when-first-coordinate-is-zero",
        "file": FAN,
        "old": "return ((a[1], -a[0]), (-b[1], b[0])), ((1, s0), (0, s1)), -d",
        "new": "return ((a[1], -a[0]), (-b[1], b[0])), ((1, s0), (0, s1)), d",
        "tests": [SEEDED_COFACTORS],
    },
    {
        "name": "cofactors-r0-never-2",
        "file": FAN,
        "old": "r0 = 0 if a[0] else 1 if a[1] else 2",
        "new": "r0 = 0 if a[0] else 1",
        "tests": [SEEDED_COFACTORS],
    },
    {
        "name": "cofactors-independence-on-one-minor",
        "file": FAN,
        "old": "if any(ab):",
        "new": "if ab[2]:",
        "tests": [SEEDED_COFACTORS],
    },
]
