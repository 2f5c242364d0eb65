"""Pinned answers of the pair path.

Two sha256 digests: one of the answers to a seeded stream of pair queries
(singularity type, log CY, index, complexity of several decompositions,
log discrepancies and place labels, crepant pullbacks), one of every
`pair` CLI command on samples/ with its stdout, stderr and exit code.
Errors count as answers: their type and message are part of the text.
A rewrite of the pair arithmetic must leave both digests unchanged.
"""

import contextlib
import hashlib
import io
import itertools
import math
import os
import random
from fractions import Fraction

from toriclab.catalog import bundled_fans, cone_over_square_fan
from toriclab.cli import main
from toriclab.complexity import Decomposition, complexity, decomposition_by_primes
from toriclab.fan import Fan, star_subdivision
from toriclab.lattice import det, vdot
from toriclab.pairs import (
    ToricPair,
    classify_extracted_place,
    crepant_pullback,
    index,
    is_log_cy,
    log_discrepancy,
    singularity_type,
)
from toriclab.polytope import Polytope
from toriclab.toric import weighted_projective_fan

from oracles import primitive_distinct, random_complete_2d_fan

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")

QUERY_DIGEST = (19040, "b0a84f7f9508081f8ec0931c78c0daddc8a3b5c24cd07fefd9f921f9a6cfe579")
CLI_DIGEST = (310, "e56245e4e4b518757e16c9eb18da6f35f9ae3b804d28f1b5cec5c546d296c7ca")


def _answer(f):
    try:
        return repr(f())
    except (ValueError, RuntimeError) as e:
        return f"{type(e).__name__}: {e}"


def _fans(rng):
    yield from (fan for _, fan in bundled_fans())
    yield cone_over_square_fan()
    yield weighted_projective_fan((2, 3, 5))
    yield Fan.from_data([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)], [(0, 1), (1, 2), (0, 2), (3,)])
    yield Fan.from_data([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 0)], [(0, 1, 2, 3), (0, 1, 4)])
    for _ in range(40):
        yield random_complete_2d_fan(rng, max_rays=7, coord=4)
    for _ in range(12):  # single cones in Z^3: simplicial, and over lattice polygons
        gens = primitive_distinct([tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)])
        if len(gens) == 3 and det(gens) != 0:
            yield Fan.from_data(gens, [(0, 1, 2)])
        hull = Polytope.hull([(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(5)], rank=2)
        if len(hull.vertices) >= 4:
            yield Fan.from_data([(int(x), int(y), 1) for x, y in hull.vertices], [tuple(range(len(hull.vertices)))])


def _boundaries(rng, fan):
    """Reduced and zero boundaries, Q-Cartier ones from a functional, and
    random ones with b = 0, b = 1 and b > 1."""
    n = len(fan.rays)
    yield [Fraction(1)] * n
    yield [Fraction(0)] * n
    for _ in range(2):
        m = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(fan.rank)]
        vals = [vdot(m, u) for u in fan.rays]
        top = max(max(vals), 1)
        yield [1 - v / top for v in vals]
        yield [rng.choice((0, 1, Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(3, 2))) for _ in range(n)]
        yield [Fraction(rng.randint(0, 7), rng.randint(1, 6)) for _ in range(n)]


def _decompositions(rng, pair):
    """Primes, a decomposition with multi-ray parts, and one that misses
    the boundary on one ray."""
    primes = decomposition_by_primes(pair)
    yield primes
    n = len(pair.boundary)
    rest = list(pair.boundary)
    parts = []
    if n >= 2:
        support = rng.sample(range(n), rng.randint(2, n))
        w = min(rest[i] for i in support) / 2
        parts.append((w, support))
        for i in support:
            rest[i] -= w
    parts += [(b, [i]) for i, b in enumerate(rest) if b]
    yield Decomposition.of(parts)
    yield Decomposition.of([*primes.parts, (Fraction(1, 7), frozenset({rng.randrange(n)}))])


def _points(rng, fan):
    """Eight primitive points of a box and one that is not primitive."""
    box = 2 if fan.rank <= 2 else 1
    every = [v for v in itertools.product(range(-box, box + 1), repeat=fan.rank) if math.gcd(*v) == 1]
    picked = rng.sample(every, min(8, len(every)))
    return picked + [tuple(2 * x for x in picked[0])]


def _query_lines():
    rng = random.Random(20261018)
    for fan in _fans(rng):
        refinement = star_subdivision(fan, fan.max_cones[0]) if fan.max_cones else fan
        for boundary in _boundaries(rng, fan):
            try:
                pair = ToricPair.from_fan(fan, boundary)
            except ValueError as e:
                yield f"{fan.rays} {boundary}: {e}"
                continue
            yield repr((fan.rays, fan.max_cones, pair.boundary))
            yield _answer(lambda: singularity_type(pair))
            yield _answer(lambda: is_log_cy(pair))
            yield _answer(lambda: index(pair))
            for dec in _decompositions(rng, pair):
                yield _answer(lambda: complexity(pair, dec))
            for v in _points(rng, fan):
                yield _answer(lambda: log_discrepancy(pair, v))
                yield _answer(lambda: classify_extracted_place(pair, v))
            yield _answer(lambda: crepant_pullback(pair, refinement).boundary)


def _digest(lines):
    lines = list(lines)
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_pair_query_answers_are_pinned():
    assert _digest(_query_lines()) == QUERY_DIGEST


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_lines(tmp_path):
    names = sorted(n for n in os.listdir(SAMPLES) if n.endswith(".pair"))
    fans = sorted(n for n in os.listdir(SAMPLES) if n.endswith(".fan"))
    for name in names:
        path = os.path.join(SAMPLES, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        fan_text = "".join(line for line in text.splitlines(True) if line.split()[:1] in (["dim"], ["ray"], ["cone"]))
        dim = int(fan_text.split()[1])
        cones = [line.split()[1:] for line in fan_text.splitlines() if line.startswith("cone")]
        commands = []
        for flags in ([], ["--json-lines"]):
            commands += [[*flags, "pair", "classify", path], [*flags, "pair", "complexity", path]]
            box = 2 if dim <= 2 else 1
            for v in itertools.product(range(-box, box + 1), repeat=dim):
                commands.append([*flags, "pair", "discrepancy", path, "--point=" + ",".join(map(str, v))])
            commands.append([*flags, "pair", "discrepancy", path, "--point=" + ",".join(["1"] * (dim + 1))])
        fan_path = tmp_path / f"{name}.fan"
        fan_path.write_text(fan_text, encoding="utf-8")
        strata = sorted({s for cone in cones for k in range(1, len(cone) + 1) for s in itertools.combinations(cone, k)})
        for k, stratum in enumerate(strata):
            code, out, err = _run(["fan", "subdivide", str(fan_path), "--stratum", ",".join(stratum)])
            assert (code, err) == (0, ""), (name, stratum)
            refinement = tmp_path / f"{name}-{k}.fan"
            refinement.write_text(out, encoding="utf-8")
            commands.append(["pair", "pullback", path, "--refinement", str(refinement)])
        for other in fans:
            commands.append(["pair", "pullback", path, "--refinement", os.path.join(SAMPLES, other)])
        for argv in commands:
            code, out, err = _run(argv)
            shown = [os.path.basename(a) if os.sep in a else a for a in argv]
            yield f"{shown} -> {code}\n{out}\n{err}"


def test_pair_cli_outputs_are_pinned(tmp_path):
    assert _digest(_cli_lines(tmp_path)) == CLI_DIGEST
