"""The table of mutants that mutants/run.py runs.

Each row names one change to the library and the tests that must fail
under it: `file` is a path under src/, `old` text that occurs there
exactly once, `new` its replacement, and `tests` pytest node ids.  A row
whose old text no longer occurs exactly once fails the run, so a change
that moves the code must update its rows.
"""

FAN = "src/toriclab/fan.py"
CLI = "src/toriclab/cli.py"
MARKOV = "src/toriclab/markov.py"
VALUE = "src/toriclab/_value.py"
VALUES = "tests/test_values.py"
PAIRS = "src/toriclab/pairs.py"
TORIC = "src/toriclab/toric.py"
COMPLEXITY = "src/toriclab/complexity.py"
LATTICE = "src/toriclab/lattice.py"
POLYTOPE = "src/toriclab/polytope.py"
FILEFORMATS = "src/toriclab/fileformats.py"
SMITH_AGREES = "tests/test_lattice.py::test_smith_form_matches_the_three_matrix_form_on_seeded_matrices"
SEEDED_COFACTORS = "tests/test_echelon.py::test_seeded_rows_seed_from_cofactors_as_the_elimination_does"

ROWS = [
    # _covers_once and its guard (_covers_space).  Check (2) with > 0 in
    # place of >= 0 has no row: it is an equivalent mutant, since a wall in
    # two cones is a facet of both, so the second cone's generators off it
    # are never 0 on the first cone's normal for it
    {
        "name": "walls-check-2-dropped",
        "file": FAN,
        "old": "if g not in wall and vdot(h, g) >= 0:",
        "new": "if False:",
        "tests": ["tests/test_walls.py::test_the_named_failures_are_the_ones_meant"],
    },
    {
        "name": "walls-check-4-dropped",
        "file": FAN,
        "old": "return not any(cone.contains(inside) for cone in cones[1:])",
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
    # _cofactor_echelon: each breaks the seeds' identity H[i].g_sj = last
    # when i = j and 0 otherwise, or takes other seeds than the elimination
    {
        "name": "cofactors-independence-on-one-minor",
        "file": FAN,
        "old": "if any(ab):",
        "new": "if ab[2]:",
        "tests": [SEEDED_COFACTORS],
    },
    {
        "name": "cofactors-rank-3-rows-rotated",
        "file": FAN,
        "old": "return (_cross(b, c), _cross(c, a), ab), ((0, s0), (1, s1), (2, s2)), d",
        "new": "return (_cross(c, a), ab, _cross(b, c)), ((0, s0), (1, s1), (2, s2)), d",
        "tests": [SEEDED_COFACTORS],
    },
    {
        "name": "cofactors-2d-det-negated",
        "file": FAN,
        "old": "return ((b[1], -b[0]), (-a[1], a[0])), ((0, s0), (1, s1)), d",
        "new": "return ((b[1], -b[0]), (-a[1], a[0])), ((0, s0), (1, s1)), -d",
        "tests": [SEEDED_COFACTORS],
    },
    # Cone._echelon: one elimination per cone, counted
    {
        "name": "seed-echelon-run-twice-per-cone",
        "file": FAN,
        "old": "        return _seed_echelon(self.generators, self.rank)\n",
        "new": "        _seed_echelon(self.generators, self.rank)\n        return _seed_echelon(self.generators, self.rank)\n",
        "tests": ["tests/test_primitives.py::test_a_cone_takes_one_elimination_for_its_dimension_and_facets"],
    },
    # resolve_cone_2d: u = (-1, 0) needs x = -1 in x u1 + y u2 = 1
    {
        "name": "resolve-2d-x-one-on-the-axis",
        "file": FAN,
        "old": "x = pow(u[0], -1, abs(u[1])) if u[1] else u[0]",
        "new": "x = pow(u[0], -1, abs(u[1])) if u[1] else 1",
        "tests": ["tests/test_fan.py::test_resolve_general_generators_match_hilbert_basis_oracle"],
    },
    # star_subdivision: a facet of a host that holds the stratum spans a
    # flat cone with the new ray, and must be dropped
    {
        "name": "star-keeps-the-facets-holding-the-stratum",
        "file": FAN,
        "old": "            if not tau <= facet:\n",
        "new": "            if True:\n",
        "tests": [
            "tests/test_fan.py::test_star_subdivision_at_single_ray_is_identity",
            "tests/test_fan.py::test_star_subdivision_preserves_completeness_and_simpliciality",
        ],
    },
    # Cone._closure: without its guard every closure is the lineality
    # space, so no generator is redundant and no stratum is a face
    {
        "name": "closure-guard-dropped",
        "file": FAN,
        "old": "if idx <= members:",
        "new": "if True:",
        "tests": ["tests/test_double_description.py::test_face_test_matches_lp"],
    },
    # the bounded caches and the live-fan table
    {
        "name": "psi-cache-unbounded",
        "file": PAIRS,
        "old": "@lru_cache(maxsize=256)\ndef _psi(",
        "new": "@lru_cache(maxsize=None)\ndef _psi(",
        "tests": ["tests/test_cache_plateaus.py::test_distinct_pairs_keep_the_psi_cache_flat"],
    },
    {
        "name": "presentation-cache-unbounded",
        "file": TORIC,
        "old": "@lru_cache(maxsize=256)\ndef _presentation(",
        "new": "@lru_cache(maxsize=None)\ndef _presentation(",
        "tests": ["tests/test_cache_plateaus.py::test_distinct_fans_keep_the_presentation_cache_flat"],
    },
    {
        "name": "psi-records-kept-on-the-fan",
        "file": PAIRS,
        "old": "    return LogDiscrepancyFunction(pair)\n",
        "new": "    record = LogDiscrepancyFunction(pair)\n    pair.fan.__dict__.setdefault(\"records\", []).append(record)\n    return record\n",
        "tests": ["tests/test_cache_plateaus.py::test_one_shared_fan_keeps_its_cached_properties_flat"],
    },
    {
        "name": "data-key-registered-on-every-call",
        "file": FAN,
        "old": "                fan = _ALIVE[normal] = _ALIVE[key] = cls._trusted(*normal[1:])\n",
        "new": "                fan = _ALIVE[normal] = cls._trusted(*normal[1:])\n            _ALIVE[key] = fan\n",
        "tests": ["tests/test_shared_fans.py::test_presentations_of_a_live_fan_keep_the_table_flat"],
    },
    # the console script
    {
        "name": "leaf-parser-accepts-leftover-arguments",
        "file": CLI,
        "old": "        if not extras:\n",
        "new": "        if True:\n",
        "tests": ["tests/test_hardening.py::test_malformed_input_exits_2_without_traceback[casebook segre extra]"],
    },
    {
        "name": "one-write-drops-the-last-newline",
        "file": CLI,
        "old": '    lines.append("")\n',
        "new": "",
        "tests": ["tests/test_cli_parser.py::test_sample_corpus_prints_the_pinned_bytes"],
    },
    {
        "name": "emit-prints-the-text-under-json-lines",
        "file": CLI,
        "old": "        print(_ENCODER.encode(record))\n",
        "new": "        print(text)\n",
        "tests": ["tests/test_cli_parser.py::test_sample_corpus_prints_the_pinned_bytes"],
    },
    # markov table: rows from the walk's int triples, each checked by
    # _numerics, in columns of fixed width
    {
        "name": "table-rows-built-through-hkw-surface",
        "file": CLI,
        "old": "        d, degree = markov._numerics(a, b, c)\n",
        "new": "        s = markov.hkw_surface(markov.MarkovTriple._trusted(a, b, c))\n        d, degree = s.weights[2], s.degree\n",
        "tests": ["tests/test_markov.py::test_table_builds_no_surface_per_row"],
    },
    {
        "name": "numerics-check-dropped",
        "file": MARKOV,
        "old": "if degree != a * a + b * b:",
        "new": "if False:",
        "tests": [
            "tests/test_markov.py::test_a_broken_row_raises_before_anything_is_printed[False]",
            "tests/test_markov.py::test_a_broken_row_raises_before_anything_is_printed[True]",
        ],
    },
    {
        "name": "table-degree-column-one-narrower",
        "file": CLI,
        "old": "{degree:<8}",
        "new": "{degree:<7}",
        "tests": [
            "tests/test_markov.py::test_table_rows_are_the_oracle_rows[1000-False]",
            "tests/test_markov.py::test_markov_table_output_is_pinned[False-1000]",
        ],
    },
    {
        "name": "walk-keeps-seeds-beyond-the-bound",
        "file": MARKOV,
        "old": "found = [t for t in ((1, 1, 1), (1, 1, 2)) if t[2] <= bound]",
        "new": "found = [(1, 1, 1), (1, 1, 2)]",
        "tests": [
            "tests/test_markov.py::test_table_rows_are_the_oracle_rows[1-False]",
            "tests/test_markov.py::test_table_rows_are_the_oracle_rows[1-True]",
        ],
    },
    # the value classes' shared methods (toriclab._value), each caught by
    # the contract table of tests/test_values.py
    {
        "name": "value-eq-ignores-the-class",
        "file": VALUE,
        "old": "    def __eq__(self, other):\n        if other.__class__ is not self.__class__:\n            return NotImplemented\n",
        "new": "    def __eq__(self, other):\n",
        "tests": [f"{VALUES}::test_equal_only_within_one_class_over_the_compared_fields"],
    },
    {
        "name": "value-hash-over-every-field",
        "file": VALUE,
        "old": "        return hash(self._key(self))\n",
        "new": "        return hash(tuple(getattr(self, name) for name in self._fields))\n",
        "tests": [f"{VALUES}::test_hash_is_the_hash_of_the_compared_fields"],
    },
    {
        "name": "value-repr-shows-every-field",
        "file": VALUE,
        "old": "for name in self._init_fields)",
        "new": "for name in self._fields)",
        "tests": [f"{VALUES}::test_repr_is_the_one_the_dataclass_printed"],
    },
    {
        "name": "value-setattr-lets-assignment-through",
        "file": VALUE,
        "old": "        raise FrozenInstanceError(f\"cannot assign to field {name!r}\")\n",
        "new": "        object.__setattr__(self, name, value)\n",
        "tests": [f"{VALUES}::test_no_field_can_be_set_or_deleted"],
    },
    # one unchecked constructor (Value._trusted) and the checks that moved
    # back to __post_init__
    {
        "name": "trusted-runs-post-init",
        "file": VALUE,
        "old": "            object.__setattr__(out, name, value)\n        return out\n",
        "new": "            object.__setattr__(out, name, value)\n        out.__post_init__()\n        return out\n",
        "tests": ["tests/test_pair_integers.py::test_fan_cones_run_no_cone_post_init"],
    },
    {
        "name": "trusted-drops-the-derived-fields",
        "file": VALUE,
        "old": "zip(cls._fields, values)",
        "new": "zip(cls._init_fields, values)",
        "tests": ["tests/test_polygons.py::test_normal_form_is_built_as_its_hull_seeded"],
    },
    {
        "name": "value-init-positional-binds-one-field-too-few",
        "file": VALUE,
        "old": "not kwargs:\n            for name, value in zip(names, args):",
        "new": "not kwargs:\n            for name, value in zip(names[:-1], args):",
        "tests": [f"{VALUES}::test_repr_is_the_one_the_dataclass_printed"],
    },
    # Value._bind, the one route of every call but a full positional one:
    # here it reads each keyword of a field from its place in sorted order
    {
        "name": "bind-reads-keywords-in-sorted-order",
        "file": VALUE,
        "old": "for name in names[len(args) :]:\n            value = kwargs.pop(name, self._fields[name])",
        "new": "for name, key in zip(names[len(args) :], sorted(names[len(args) :])):\n            value = kwargs.pop(key, self._fields[key])",
        "tests": [f"{VALUES}::test_positional_keyword_and_wrong_construction"],
    },
    # cached facts without the lock (toriclab._value.cached_property)
    {
        "name": "cached-property-stores-nothing",
        "file": VALUE,
        "old": "        value = instance.__dict__[self.attrname] = self.func(instance)\n",
        "new": "        value = self.func(instance)\n",
        "tests": [f"{VALUES}::test_cached_properties_write_the_instance_dict"],
    },
    {
        "name": "cone-generators-not-read-as-integers",
        "file": FAN,
        "old": "            g = _integers(g)\n",
        "new": "",
        "tests": ["tests/test_shared_fans.py::test_values_that_are_not_integers_raise[cone constructor]"],
    },
    {
        "name": "decomposition-indices-truncated",
        "file": COMPLEXITY,
        "old": "rays = frozenset(_integers(rays))",
        "new": "rays = frozenset(map(int, rays))",
        "tests": ["tests/test_complexity.py::test_ray_indices_that_are_not_integers_raise"],
    },
    {
        "name": "pair-boundary-not-rebound",
        "file": PAIRS,
        "old": "        object.__setattr__(self, \"boundary\", coeffs)\n",
        "new": "",
        "tests": [
            f"{VALUES}::test_repr_is_the_one_the_dataclass_printed[ToricPair]",
            "tests/test_psi_record.py::test_a_boundary_is_bound_as_a_tuple_of_fractions",
        ],
    },
    # a new pair's integer paths: the piece checked in one comparison, the
    # box walked one invariant at a time, the prime parts bound unchecked
    {
        "name": "scaled-piece-check-always-falls-back",
        "file": TORIC,
        "old": "    if got == want:\n",
        "new": "    if False:\n",
        "tests": ["tests/test_seeds.py::test_a_missed_generator_is_named_from_the_compared_values"],
    },
    {
        "name": "scaled-piece-sign-not-folded",
        "file": TORIC,
        "old": "else [-a[s] for s in at]",
        "new": "else [a[s] for s in at]",
        "tests": ["tests/test_seeds.py::test_seeded_cones_with_a_negative_last_match_the_solves"],
    },
    {
        "name": "box-walk-skips-the-last-invariant",
        "file": PAIRS,
        "old": "for dj, row in zip(d, U) if dj > 1]",
        "new": "for dj, row in zip(d[:-1], U) if dj > 1]",
        "tests": ["tests/test_triangulation.py::test_simplices_with_several_invariants_walk_the_whole_box"],
    },
    {
        "name": "box-walk-skips-the-first-held-invariant",
        "file": PAIRS,
        "old": "            for dj, step in steps[:-1]:\n",
        "new": "            for dj, step in steps[1:-1]:\n",
        "tests": ["tests/test_triangulation.py::test_simplices_with_several_invariants_walk_the_whole_box"],
    },
    {
        "name": "prime-decomposition-keeps-a-zero-weight",
        "file": COMPLEXITY,
        "old": "    positive = map(pair.A.__gt__, pair.alpha)\n",
        "new": "    positive = map(pair.A.__ge__, pair.alpha)\n",
        "tests": ["tests/test_complexity.py::test_prime_decomposition_is_the_checked_one"],
    },
    # the Smith form on one augmented matrix: its pivot rule and final sign
    # against the three-matrix form it replaced
    {
        "name": "smith-pivot-ties-by-column-first",
        "file": LATTICE,
        "old": "_, i, j = min(block)",
        "new": "_, j, i = min((x, j, i) for x, i, j in block)",
        "tests": [SMITH_AGREES],
    },
    {
        "name": "smith-negative-pivot-kept",
        "file": LATTICE,
        "old": "        if w[t][t] < 0:\n            w[t] = [-x for x in w[t]]\n",
        "new": "",
        "tests": [SMITH_AGREES],
    },
    # the chart's solve, V.y with y_i = (L / d_i) U[i].a
    {
        "name": "solve-drops-the-invariant-scale",
        "file": LATTICE,
        "old": "        y = [self.L // di * vdot(u, a) for di, u in zip(self.d, self.U)]\n",
        "new": "        y = [vdot(u, a) for di, u in zip(self.d, self.U)]\n",
        "tests": ["tests/test_solve_chart.py::test_hypothesis_chart_is_a_scaled_generalised_inverse"],
    },
    # the library routines tests/oracles.py read before each of its oracles
    # took a route of its own: every row is killed by an oracle comparison
    {
        "name": "common-face-always-true",
        "file": FAN,
        "old": "    return _separating([fan.rays[i] for i in common], (), strict) is not None\n",
        "new": "    return True\n",
        "tests": [
            "tests/test_walls.py::test_named_fans_get_the_pairwise_diagnostics[overlapping quadrants]",
            "tests/test_walls.py::test_named_fans_get_the_pairwise_diagnostics[five crossing 2D cones in rank 3]",
            "tests/test_shared_fans.py::test_cached_diagnostics_match_the_pairwise_scan[2D double cover]",
        ],
    },
    {
        "name": "strongly-convex-always-true",
        "file": FAN,
        "old": "        return not self._closure(frozenset())\n",
        "new": "        return True\n",
        "tests": [
            "tests/test_walls.py::test_seeded_face_fans_get_the_pairwise_diagnostics",
            "tests/test_walls.py::test_hypothesis_arbitrary_simplicial_cones",
        ],
    },
    {
        "name": "line-facets-raise-again",
        "file": FAN,
        "old": "        _, facets, _ = double_description(self.generators, self._echelon)\n",
        "new": (
            "        _, facets, _ = double_description(self.generators, self._echelon)\n"
            "        if self.dim == 1 and not facets:\n"
            "            raise ValueError('no positive functional: cone is not strongly convex')\n"
        ),
        "tests": [
            "tests/test_primitives.py::test_line_has_no_facet_data",
            "tests/test_double_description.py::test_named_cones_match_scan_and_lp[line]",
        ],
    },
    {
        "name": "generators-always-extremal",
        "file": FAN,
        "old": "        return not any(flat and Cone(tuple(gens[j] for j in flat), self.rank).contains(g) for g, flat in zip(gens, flats))\n",
        "new": "        return True\n",
        "tests": [
            "tests/test_walls.py::test_seeded_face_fans_get_the_pairwise_diagnostics",
            "tests/test_walls.py::test_hypothesis_arbitrary_simplicial_cones",
        ],
    },
    {
        "name": "cone-chart-reads-the-generators-reversed",
        "file": FAN,
        "old": "        return SolveChart.of(self.generators, self.rank)\n",
        "new": "        return SolveChart.of(self.generators[::-1], self.rank)\n",
        "tests": [
            "tests/test_triangulation.py::test_simplices_with_several_invariants_walk_the_whole_box",
        ],
    },
    {
        "name": "membership-skips-the-span-test",
        "file": FAN,
        "old": "        if self.dim < self.rank:\n            H, pivots, _ = self._echelon\n",
        "new": "        if False:\n            H, pivots, _ = self._echelon\n",
        "tests": [
            "tests/test_psi_record.py::test_named_fans_match_the_oracles[plane fan plus a ray]",
        ],
    },
    {
        "name": "rank-of-a-tall-matrix-reads-too-few-columns",
        "file": LATTICE,
        "old": "        rows, width = tuple(zip(*rows)), len(rows)\n",
        "new": "        rows = tuple(zip(*rows))\n",
        "tests": [
            "tests/test_psi_record.py::test_named_fans_match_the_oracles[cone over the square]",
        ],
    },
    {
        "name": "local-functionals-drop-the-value-scale",
        "file": TORIC,
        "old": "        out.append(None if lm is None else tuple(Fraction(x, L * A) for x in lm))\n",
        "new": "        out.append(None if lm is None else tuple(Fraction(x, L) for x in lm))\n",
        "tests": [
            "tests/test_solve_chart.py::test_named_cones_match_the_solves[det-11 cone]",
        ],
    },
    {
        "name": "normal-form-without-reflections",
        "file": POLYTOPE,
        "old": "            for second in (ys, [-y for y in ys]):\n",
        "new": "            for second in (ys,):\n",
        "tests": [
            "tests/test_polygons.py::test_descent_matches_the_scan_and_the_boundary_walk",
            "tests/test_polytope.py::test_enumeration_matches_boundary_walk_oracle",
        ],
    },
    # _reduced_basis and _window: the basis the Euclidean pass leaves taken
    # as reduced, a window that misreads a falling slope, and a Euclidean
    # pass that steps by one where it should round (it stops early, and the
    # max-norm fallback does the work)
    {
        "name": "reduced-basis-trusts-the-euclidean-pass",
        "file": POLYTOPE,
        "old": "    if max([abs(g - b) for b, g in zip(beta, gamma)]) >= n2 <= max([abs(g + b) for b, g in zip(beta, gamma)]):\n",
        "new": "    if True:\n",
        "tests": [
            "tests/test_polygons.py::test_polygons_that_need_the_max_norm_fallback_are_reduced",
            "tests/test_polygons.py::test_normal_form_matches_search_seeded",
        ],
    },
    {
        "name": "window-misreads-a-negative-slope",
        "file": POLYTOPE,
        "old": "            t_lo, t_hi = -((o - bound) // s), (-bound - o) // s\n",
        "new": "            t_lo, t_hi = -((o + bound) // s), (bound - o) // s\n",
        "tests": [
            "tests/test_polygons.py::test_normal_form_matches_search_seeded",
        ],
    },
    {
        "name": "euclidean-pass-steps-by-one",
        "file": POLYTOPE,
        "old": "    return (2 * d + n) // (2 * n)\n",
        "new": "    return (d > 0) - (d < 0)\n",
        "tests": [
            "tests/test_polygons.py::test_reduction_steps_on_the_entry_ladder",
        ],
    },
    {
        "name": "simplicial-facet-normals-keep-the-seed-sign",
        "file": FAN,
        "old": "primitive(hs if last > 0 else tuple(-x for x in hs))",
        "new": "primitive(hs)",
        "tests": [
            "tests/test_psi_record.py::test_named_fans_match_the_oracles[P(2,3,5)]",
        ],
    },
    # _double_description decides adjacency by the d - 2 filter alone only
    # for d <= 3, where no zero row may count as shared.  The cones over
    # the cube and the cuboctahedron do not tell d = 4 apart: two facets of
    # a pointed cone sharing two generators that are not proportional meet
    # in a 2-face, so they are adjacent; a cone with a line makes the
    # difference
    {
        "name": "adjacency-by-the-filter-alone-in-rank-4",
        "file": FAN,
        "old": "    scan = d > 3",
        "new": "    scan = d > 4",
        "tests": [
            "tests/test_double_description.py::test_named_cones_match_scan_and_lp[pentagon-times-a-line]",
            "tests/test_double_description.py::test_named_cones_match_scan_and_lp[hexagon-times-a-line]",
        ],
    },
    {
        "name": "zero-rows-cut-in",
        "file": FAN,
        "old": "    for j in sorted(set(range(k)).difference([s for _, s in seeded], zero)):\n",
        "new": "    for j in sorted(set(range(k)).difference([s for _, s in seeded])):\n",
        "tests": ["tests/test_double_description.py::test_zero_rows_lie_on_every_facet_and_bound_nothing"],
    },
    # the closing mask is the one zero-row rule under linear_feasible:
    # without it no facet holds a zero equality row
    {
        "name": "zero-rows-left-off-the-facets",
        "file": FAN,
        "old": "    if zero:\n        mask = sum(1 << j for j in zero)\n        rays = [(h, z | mask) for h, z in rays]\n",
        "new": "",
        "tests": ["tests/test_feasibility.py::test_kernel_edge_cases[0 = 0, nvars=1]"],
    },
    {
        "name": "walls-keyed-by-generator-indices",
        "file": FAN,
        "old": "            out.setdefault(frozenset(map(generator, members)), []).append((k, h))\n",
        "new": "            out.setdefault(frozenset(members), []).append((k, h))\n",
        "tests": [
            "tests/test_walls.py::test_named_fans_get_the_pairwise_diagnostics[P2 without a cone]",
            "tests/test_walls.py::test_seeded_refinements_of_projective_space_match_the_scan",
        ],
    },
    {
        "name": "psi-record-drops-the-coefficient-scale",
        "file": PAIRS,
        "old": "            self.scaled.append((L * A, lm))\n",
        "new": "            self.scaled.append((L, lm))\n",
        "tests": [
            "tests/test_psi_record.py::test_named_fans_match_the_oracles[P2]",
            "tests/test_solve_chart.py::test_named_cones_match_the_solves[4D simplicial]",
        ],
    },
    {
        "name": "zero-ray-cites-line-1",
        "file": FILEFORMATS,
        "old": 'raise ParseError(lineno, "zero ray")',
        "new": 'raise ParseError(1, "zero ray")',
        "tests": ["tests/test_hardening.py::test_each_file_error_cites_its_own_line[zero-ray.fan]"],
    },
    {
        "name": "fan-path-conflict-cites-the-fan-line",
        "file": FILEFORMATS,
        "old": "raise ParseError(max(fan_line, inline[0][0]),",
        "new": "raise ParseError(fan_line,",
        "tests": ["tests/test_hardening.py::test_each_file_error_cites_its_own_line[late-path-and-inline.pair]"],
    },
    {
        "name": "unreadable-fan-file-cites-line-1",
        "file": FILEFORMATS,
        "old": 'raise ParseError(fan_line, f"cannot read fan file',
        "new": 'raise ParseError(1, f"cannot read fan file',
        "tests": ["tests/test_hardening.py::test_each_file_error_cites_its_own_line[late-missing-fan.pair]"],
    },
]
