"""Command line front-end.

Exit codes: 0 success (or a check that came out true), 1 for a check that
came out false (an invalid fan under `fan check`, an --expect mismatch, a
failing suite, a non-effective pullback), 2 for unusable input (syntax or
semantic errors, unknown flags).  Every usage error a subcommand finds is a
ValueError, which `main` alone prints as `error: ...` with exit 2, as it
does a file's errors.

Reports go to stdout, one line per `_emit(args, record, text)`: the text,
or under `--json-lines` the record as JSON.  Subcommands whose output IS a
fan or pair (subdivide, pullback) always print the file format, so their
output can be piped back in.

The argparse tree is built once per process, on the first call to `main`,
and reused by every later call.  A command line that names its group and
subcommand outright is parsed by that subcommand's parser alone; any other
goes through the whole tree.  Nothing else is kept between calls: files
are read, and `casebook suite` is recomputed, on every call.

`markov table` and `casebook suite`, the two commands with the most
lines, build every line first and write them with one call; the table
formats its rows from the walk's int triples (`markov._walk`), with no
triple or surface object per row.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence

from toriclab import casebook, fileformats, markov
from toriclab.complexity import complexity, decomposition_by_primes
from toriclab.fan import resolve_cone_2d, star_subdivision, validate_fan
from toriclab.pairs import (
    EffectivityError,
    ToricPair,
    classify_extracted_place,
    crepant_pullback,
    index,
    is_log_cy,
    log_discrepancy,
    singularity_type,
)
from toriclab.polytope import (
    enumerate_reflexive_polygons,
    is_reflexive,
    is_smooth_fano_polytope,
)


# json.dumps(record, sort_keys=True) would build a new encoder per record
_ENCODER = json.JSONEncoder(sort_keys=True)


def _emit(args, record: dict, text: str) -> None:
    if args.json_lines:
        print(_ENCODER.encode(record))
    else:
        print(text)


def _write_lines(lines: list[str]) -> None:
    """Write the lines, each ending in a newline, with one call.  The final
    newline comes from an empty line appended to `lines`: adding it to the
    joined text would copy all of it once more."""
    lines.append("")
    sys.stdout.write("\n".join(lines))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _parse_ints(raw: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers") from None


def _load_pair(path: str) -> ToricPair:
    return fileformats.parse_pair(_read(path), base_dir=os.path.dirname(path) or ".")


# --------------------------------------------------------------------- fan


def _cmd_fan_check(args) -> int:
    fan = fileformats.parse_fan(_read(args.file), validate=False)
    diag = validate_fan(fan)
    if diag.valid:
        _emit(args, {"check": "fan", "valid": True}, "valid")
    else:
        _emit(
            args,
            {"check": "fan", "valid": False, "problem": diag.problem, "witness": repr(diag.witness)},
            f"invalid: {diag.problem} (witness {diag.witness})",
        )
    if args.expect is not None:
        return 0 if (args.expect == "valid") == diag.valid else 1
    return 0 if diag.valid else 1


def _cmd_fan_resolve2d(args) -> int:
    fan, _, cones = fileformats.parse_fan_file(_read(args.file))
    if args.cone < 0 or args.cone >= len(cones):
        raise ValueError(f"fan file has no cone line {args.cone}")
    inserted = resolve_cone_2d(fan.cones[fan.max_cones.index(cones[args.cone])])  # cached by validation
    for v in inserted:
        _emit(args, {"inserted": list(v)}, "inserted " + " ".join(str(x) for x in v))
    _emit(args, {"count": len(inserted)}, f"count {len(inserted)}")
    return 0


def _cmd_fan_subdivide(args) -> int:
    fan, ray_index, _ = fileformats.parse_fan_file(_read(args.file))
    stratum_file = _parse_ints(args.stratum, "--stratum")
    for i in stratum_file:
        if i < 0 or i >= len(ray_index):
            raise ValueError(f"--stratum names ray index {i}, but the file has {len(ray_index)} rays")
    if len(set(stratum_file)) != len(stratum_file):
        raise ValueError(f"--stratum repeats a ray index ({args.stratum})")
    stratum = [ray_index[i] for i in stratum_file]
    ray = _parse_ints(args.ray, "--ray") if args.ray else None
    result = star_subdivision(fan, stratum, ray)
    sys.stdout.write(fileformats.emit_fan(result))
    return 0


# -------------------------------------------------------------------- pair


def _cmd_pair_classify(args) -> int:
    pair = _load_pair(args.file)
    stype = singularity_type(pair)
    lcy = is_log_cy(pair)
    m = index(pair)
    c = complexity(pair, decomposition_by_primes(pair)).c
    _emit(
        args,
        {"type": stype, "log_cy": lcy, "index": m, "complexity": str(c)},
        f"{stype}; {'log CY' if lcy else 'not log CY'}; index {m}; complexity {c}",
    )
    return 0


def _cmd_pair_discrepancy(args) -> int:
    pair = _load_pair(args.file)
    point = _parse_ints(args.point, "--point")
    if tuple(point) in pair.fan.rays:
        a = log_discrepancy(pair, point)
        _emit(args, {"point": list(point), "log_discrepancy": str(a)}, str(a))
    else:
        place = classify_extracted_place(pair, point)
        a, labels = place.discrepancy, place.labels()
        _emit(
            args,
            {"point": list(point), "log_discrepancy": str(a), "labels": list(labels)},
            f"{a}  ({'; '.join(labels)})",
        )
    return 0


def _cmd_pair_pullback(args) -> int:
    pair = _load_pair(args.file)
    fine = fileformats.parse_fan(_read(args.refinement))
    try:
        pulled = crepant_pullback(pair, fine)
    except EffectivityError as e:
        print(f"not effective: coefficient {e.coefficient} on ray {e.ray}", file=sys.stderr)
        return 1
    sys.stdout.write(fileformats.emit_pair(pulled))
    return 0


def _cmd_pair_complexity(args) -> int:
    pair = _load_pair(args.file)
    report = complexity(pair, decomposition_by_primes(pair))
    _emit(
        args,
        {"dim": report.dim, "rho": report.rho, "norm": str(report.norm), "c": str(report.c)},
        f"c = {report.c} (dim {report.dim}, rho {report.rho}, norm {report.norm})",
    )
    return 0


# ---------------------------------------------------------------- polytope


def _cmd_polytope_check(args) -> int:
    poly = fileformats.parse_polytope(_read(args.file))
    interior = poly.contains_origin_interior()
    _emit(args, {"origin-interior": interior}, f"origin-interior {str(interior).lower()}")
    if not interior:
        return 1
    refl = is_reflexive(poly)
    smooth = is_smooth_fano_polytope(poly)
    _emit(args, {"reflexive": refl}, f"reflexive {str(refl).lower()}")
    _emit(args, {"smooth-fano": smooth}, f"smooth-fano {str(smooth).lower()}")
    return 0


def _cmd_polytope_enumerate(args) -> int:
    """Each polygon in the file format through _emit, whose print ends it;
    a blank line comes before each but the first."""
    if args.dim != 2:
        raise ValueError("enumeration is implemented for dimension 2 only")
    polys = enumerate_reflexive_polygons()
    if args.count_only:
        _emit(args, {"count": len(polys)}, str(len(polys)))
        return 0
    for i, poly in enumerate(polys):
        text = fileformats.emit_polytope(poly)[:-1]
        _emit(args, {"index": i, "vertices": [list(v) for v in poly.vertices]}, "\n" + text if i else text)
    return 0


# ------------------------------------------------------------------ markov


_MARKOV_HEADER = f"{'triple':<14}{'weights':<18}{'degree':<8}{'amplitude':<11}{'wellformed':<12}{'quasismooth':<13}fano"
_TRUE_COLUMNS = f"{'true':<12}{'true':<13}true"  # every surface is well-formed, quasismooth and Fano


def _cmd_markov_table(args) -> int:
    """One row per (a, b, c) of the walk `markov._walk`, with no triple or
    surface object built, in the closed forms `markov.hkw_surface` proves:
    `_numerics` gives d and the degree and checks the Markov equation.  A
    JSON row is the bytes _ENCODER.encode prints for the row's record: keys
    sorted, ints by repr.  Every row is built before any is printed."""
    rows = [] if args.json_lines else [_MARKOV_HEADER]
    for a, b, c in markov._walk(args.max):
        d, degree = markov._numerics(a, b, c)
        if args.json_lines:
            rows.append(
                f'{{"amplitude": {c + d}, "degree": {degree}, "fano": true, "quasismooth": true, '
                f'"triple": [{a}, {b}, {c}], "weights": [{a * a}, {b * b}, {d}, {c}], "wellformed": true}}'
            )
        else:
            rows.append(f"{f'({a}, {b}, {c})':<14}{f'({a * a}, {b * b}, {d}, {c})':<18}{degree:<8}{c + d:<11}{_TRUE_COLUMNS}")
    _write_lines(rows)
    return 0


def _cmd_markov_adjacent(args) -> int:
    entries = _parse_ints(args.triple, "--triple")
    if len(entries) != 3:
        raise ValueError("--triple needs three entries")
    t = markov.MarkovTriple(*sorted(entries))
    adj = markov.adjacent_triple(t)
    _emit(args, {"triple": list(t.as_tuple()), "adjacent": list(adj.as_tuple())}, str(adj.as_tuple()))
    return 0


# ---------------------------------------------------------------- casebook


def _cmd_casebook_segre(args) -> int:
    cert = casebook.segre_certificate()
    for point, coeff in cert.coefficients:
        _emit(args, {"point": point, "coefficient": str(coeff)}, f"coefficient {point} {coeff}")
    _emit(args, {"contracted-lines": cert.contracted_line_count}, f"contracted-lines {cert.contracted_line_count}")
    _emit(args, {"effective": cert.effective}, f"effective {str(cert.effective).lower()}")
    return 0 if cert.effective else 1


def _cmd_casebook_suite(args) -> int:
    """One line per check, every line built before the one write, as in
    `markov table`."""
    report = casebook.toric_boundary_suite()
    if args.json_lines:
        lines = [_ENCODER.encode({"name": x.name, "status": x.status, "witness": x.witness}) for x in report.lines]
    else:
        lines = [x.render() for x in report.lines]
    _write_lines(lines)
    return 0 if report.passed else 1


# -------------------------------------------------------------------- main


@functools.lru_cache(maxsize=1)
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The command tree and its subcommand parsers by (group, subcommand),
    built on the first call and shared afterwards: parse_args returns a
    fresh Namespace each time, and help and errors look up sys.stderr and
    the terminal width only when they print."""
    parser = argparse.ArgumentParser(
        prog="toriclab",
        description="exact-arithmetic toolkit for toric log Calabi-Yau geometry",
    )
    parser.add_argument("--json-lines", action="store_true", help="one JSON record per report line")
    sub = parser.add_subparsers(dest="group", required=True)

    fan = sub.add_parser("fan", help="fan files: validation and surgeries").add_subparsers(
        dest="sub", required=True
    )
    p = fan.add_parser("check", help="validate a fan file")
    p.add_argument("file")
    p.add_argument("--expect", choices=["valid", "invalid"])
    p.set_defaults(func=_cmd_fan_check)
    p = fan.add_parser("resolve2d", help="insert the rays resolving a 2D cone")
    p.add_argument("file")
    p.add_argument("--cone", type=int, default=0, help="cone line in the file, 0-based (default 0)")
    p.set_defaults(func=_cmd_fan_resolve2d)
    p = fan.add_parser("subdivide", help="star subdivision at a stratum")
    p.add_argument("file")
    p.add_argument("--stratum", required=True, help="comma-separated ray indices, file order")
    p.add_argument("--ray", help="subdivision ray; write --ray=-1,2 for negatives")
    p.set_defaults(func=_cmd_fan_subdivide)

    pair = sub.add_parser("pair", help="toric pairs: classification and pullbacks").add_subparsers(
        dest="sub", required=True
    )
    p = pair.add_parser("classify", help="singularity type, log CY, index, complexity")
    p.add_argument("file")
    p.set_defaults(func=_cmd_pair_classify)
    p = pair.add_parser("discrepancy", help="log discrepancy at a primitive point")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="coordinates; write --point=-1,2 for negatives")
    p.set_defaults(func=_cmd_pair_discrepancy)
    p = pair.add_parser("pullback", help="crepant pullback along a refinement")
    p.add_argument("file")
    p.add_argument("--refinement", required=True, help="fan file refining the pair's fan")
    p.set_defaults(func=_cmd_pair_pullback)
    p = pair.add_parser("complexity", help="complexity of the prime decomposition")
    p.add_argument("file")
    p.set_defaults(func=_cmd_pair_complexity)

    poly = sub.add_parser("polytope", help="lattice polytopes").add_subparsers(dest="sub", required=True)
    p = poly.add_parser("check", help="reflexivity and smooth-Fano tests")
    p.add_argument("file")
    p.set_defaults(func=_cmd_polytope_check)
    p = poly.add_parser("enumerate-reflexive", help="list the reflexive polygons")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_polytope_enumerate)

    mk = sub.add_parser("markov", help="Markov triples").add_subparsers(dest="sub", required=True)
    p = mk.add_parser("table", help="triples with their hypersurface numerics")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=_cmd_markov_table)
    p = mk.add_parser("adjacent", help="the adjacent triple")
    p.add_argument("--triple", required=True)
    p.set_defaults(func=_cmd_markov_adjacent)

    cb = sub.add_parser("casebook", help="worked examples and the regression suite").add_subparsers(
        dest="sub", required=True
    )
    p = cb.add_parser("segre", help="crepancy certificate for the cubic threefold boundary")
    p.set_defaults(func=_cmd_casebook_segre)
    p = cb.add_parser("suite", help="toric boundary laws over every bundled fan")
    p.set_defaults(func=_cmd_casebook_suite)

    groups = {"fan": fan, "pair": pair, "polytope": poly, "markov": mk, "casebook": cb}
    return parser, {(g, name): p for g, action in groups.items() for name, p in action.choices.items()}


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """What the whole tree's parse_args returns, for less.  When argv
    starts with `[--json-lines] group subcommand`, the tree would hand the
    rest to that subcommand's parser untouched, and only it can print or
    exit; so that parser runs alone, and the tree runs only on the
    arguments it leaves over, to print the usage error it would print."""
    parser, leaves = _build_parser()
    json_lines = argv[:1] == ["--json-lines"]
    names = tuple(argv[json_lines : json_lines + 2])
    leaf = leaves.get(names)
    if leaf is not None:
        args, extras = leaf.parse_known_args(argv[json_lines + 2 :])
        if not extras:
            args.json_lines, (args.group, args.sub) = json_lines, names
            return args
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
