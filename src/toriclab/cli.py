"""Command line front-end.

Exit codes: 0 success (or a check that came out true), 1 for a check that
came out false (an invalid fan under `fan check`, an --expect mismatch, a
failing suite, a non-effective pullback), 2 for unusable input (syntax or
semantic errors, unknown flags).

Reports go to stdout; `--json-lines` switches them to one JSON record per
line.  Subcommands whose output IS a fan or pair (subdivide, pullback)
always print the file format, so their output can be piped back in.

The argparse tree is built once per process, on the first call to `main`,
and reused by every later call.  A command line that names its group and
subcommand outright is parsed by that subcommand's parser alone; any other
goes through the whole tree.  Nothing else is kept between calls: files
are read, and `casebook suite` is recomputed, on every call.
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


class _Reporter:
    def __init__(self, json_lines: bool):
        self.json_lines = json_lines

    def emit(self, record: dict, text: str) -> None:
        if self.json_lines:
            print(_ENCODER.encode(record))
        else:
            print(text)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _parse_ints(raw: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise fileformats.ParseError(0, f"{what} must be comma-separated integers") from None


def _load_pair(path: str) -> ToricPair:
    return fileformats.parse_pair(_read(path), base_dir=os.path.dirname(path) or ".")


# --------------------------------------------------------------------- fan


def _cmd_fan_check(args, rep: _Reporter) -> int:
    fan = fileformats.parse_fan(_read(args.file), validate=False)
    diag = validate_fan(fan)
    if diag.valid:
        rep.emit({"check": "fan", "valid": True}, "valid")
    else:
        rep.emit(
            {"check": "fan", "valid": False, "problem": diag.problem, "witness": repr(diag.witness)},
            f"invalid: {diag.problem} (witness {diag.witness})",
        )
    if args.expect is not None:
        return 0 if (args.expect == "valid") == diag.valid else 1
    return 0 if diag.valid else 1


def _cmd_fan_resolve2d(args, rep: _Reporter) -> int:
    fan, _, cones = fileformats.parse_fan_file(_read(args.file))
    if args.cone < 0 or args.cone >= len(cones):
        print(f"error: fan file has no cone line {args.cone}", file=sys.stderr)
        return 2
    inserted = resolve_cone_2d(fan.cones[fan.max_cones.index(cones[args.cone])])  # cached by validation
    for v in inserted:
        rep.emit({"inserted": list(v)}, "inserted " + " ".join(str(x) for x in v))
    rep.emit({"count": len(inserted)}, f"count {len(inserted)}")
    return 0


def _cmd_fan_subdivide(args, rep: _Reporter) -> int:
    fan, ray_index, _ = fileformats.parse_fan_file(_read(args.file))
    stratum_file = _parse_ints(args.stratum, "--stratum")
    for i in stratum_file:
        if i < 0 or i >= len(ray_index):
            print(f"error: --stratum names ray index {i}, but the file has {len(ray_index)} rays", file=sys.stderr)
            return 2
    if len(set(stratum_file)) != len(stratum_file):
        print(f"error: --stratum repeats a ray index ({args.stratum})", file=sys.stderr)
        return 2
    stratum = [ray_index[i] for i in stratum_file]
    ray = _parse_ints(args.ray, "--ray") if args.ray else None
    result = star_subdivision(fan, stratum, ray)
    sys.stdout.write(fileformats.emit_fan(result))
    return 0


# -------------------------------------------------------------------- pair


def _cmd_pair_classify(args, rep: _Reporter) -> int:
    pair = _load_pair(args.file)
    stype = singularity_type(pair)
    lcy = is_log_cy(pair)
    m = index(pair)
    c = complexity(pair, decomposition_by_primes(pair)).c
    rep.emit(
        {"type": stype, "log_cy": lcy, "index": m, "complexity": str(c)},
        f"{stype}; {'log CY' if lcy else 'not log CY'}; index {m}; complexity {c}",
    )
    return 0


def _cmd_pair_discrepancy(args, rep: _Reporter) -> int:
    pair = _load_pair(args.file)
    point = _parse_ints(args.point, "--point")
    if tuple(point) in pair.fan.rays:
        a = log_discrepancy(pair, point)
        rep.emit({"point": list(point), "log_discrepancy": str(a)}, str(a))
    else:
        place = classify_extracted_place(pair, point)
        a, labels = place.discrepancy, place.labels()
        rep.emit(
            {"point": list(point), "log_discrepancy": str(a), "labels": list(labels)},
            f"{a}  ({'; '.join(labels)})",
        )
    return 0


def _cmd_pair_pullback(args, rep: _Reporter) -> int:
    pair = _load_pair(args.file)
    fine = fileformats.parse_fan(_read(args.refinement))
    try:
        pulled = crepant_pullback(pair, fine)
    except EffectivityError as e:
        print(f"not effective: coefficient {e.coefficient} on ray {e.ray}", file=sys.stderr)
        return 1
    sys.stdout.write(fileformats.emit_pair(pulled))
    return 0


def _cmd_pair_complexity(args, rep: _Reporter) -> int:
    pair = _load_pair(args.file)
    report = complexity(pair, decomposition_by_primes(pair))
    rep.emit(
        {"dim": report.dim, "rho": report.rho, "norm": str(report.norm), "c": str(report.c)},
        f"c = {report.c} (dim {report.dim}, rho {report.rho}, norm {report.norm})",
    )
    return 0


# ---------------------------------------------------------------- polytope


def _cmd_polytope_check(args, rep: _Reporter) -> int:
    poly = fileformats.parse_polytope(_read(args.file))
    interior = poly.contains_origin_interior()
    rep.emit({"origin-interior": interior}, f"origin-interior {str(interior).lower()}")
    if not interior:
        return 1
    refl = is_reflexive(poly)
    smooth = is_smooth_fano_polytope(poly)
    rep.emit({"reflexive": refl}, f"reflexive {str(refl).lower()}")
    rep.emit({"smooth-fano": smooth}, f"smooth-fano {str(smooth).lower()}")
    return 0


def _cmd_polytope_enumerate(args, rep: _Reporter) -> int:
    if args.dim != 2:
        print("error: enumeration is implemented for dimension 2 only", file=sys.stderr)
        return 2
    polys = enumerate_reflexive_polygons()
    if args.count_only:
        rep.emit({"count": len(polys)}, str(len(polys)))
        return 0
    for i, poly in enumerate(polys):
        if rep.json_lines:
            rep.emit({"index": i, "vertices": [list(v) for v in poly.vertices]}, "")
        else:
            if i:
                print()
            sys.stdout.write(fileformats.emit_polytope(poly))
    return 0


# ------------------------------------------------------------------ markov


_MARKOV_HEADER = f"{'triple':<14}{'weights':<18}{'degree':<8}{'amplitude':<11}{'wellformed':<12}{'quasismooth':<13}fano"
_LOWER = {True: "true", False: "false"}


def _markov_json(s: markov.HkwSurfaceData) -> str:
    """The bytes _ENCODER.encode prints for the row's record: keys sorted,
    ints by repr, bools as true/false."""
    t = s.triple
    w0, w1, w2, w3 = s.weights
    return (
        f'{{"amplitude": {s.amplitude}, "degree": {s.degree}, "fano": {_LOWER[s.fano]}, '
        f'"quasismooth": {_LOWER[s.quasismooth]}, "triple": [{t.a}, {t.b}, {t.c}], '
        f'"weights": [{w0}, {w1}, {w2}, {w3}], "wellformed": {_LOWER[s.wellformed]}}}'
    )


def _markov_text(s: markov.HkwSurfaceData) -> str:
    return (
        f"{str(s.triple.as_tuple()):<14}{str(s.weights):<18}{s.degree:<8}{s.amplitude:<11}"
        f"{_LOWER[s.wellformed]:<12}{_LOWER[s.quasismooth]:<13}{_LOWER[s.fano]}"
    )


def _cmd_markov_table(args, rep: _Reporter) -> int:
    row = _markov_json if rep.json_lines else _markov_text
    rows = [row(markov.hkw_surface(t)) for t in markov.enumerate_markov(args.max)]
    if not rep.json_lines:
        rows.insert(0, _MARKOV_HEADER)
    sys.stdout.write("\n".join(rows) + "\n")
    return 0


def _cmd_markov_adjacent(args, rep: _Reporter) -> int:
    entries = _parse_ints(args.triple, "--triple")
    if len(entries) != 3:
        print("error: --triple needs three entries", file=sys.stderr)
        return 2
    t = markov.MarkovTriple(*sorted(entries))
    adj = markov.adjacent_triple(t)
    rep.emit({"triple": list(t.as_tuple()), "adjacent": list(adj.as_tuple())}, str(adj.as_tuple()))
    return 0


# ---------------------------------------------------------------- casebook


def _cmd_casebook_segre(args, rep: _Reporter) -> int:
    cert = casebook.segre_certificate()
    for point, coeff in cert.coefficients:
        rep.emit({"point": point, "coefficient": str(coeff)}, f"coefficient {point} {coeff}")
    rep.emit(
        {"contracted-lines": cert.contracted_line_count},
        f"contracted-lines {cert.contracted_line_count}",
    )
    rep.emit({"effective": cert.effective}, f"effective {str(cert.effective).lower()}")
    return 0 if cert.effective else 1


def _cmd_casebook_suite(args, rep: _Reporter) -> int:
    report = casebook.toric_boundary_suite()
    for line in report.lines:
        rep.emit(
            {"name": line.name, "status": line.status, "witness": line.witness},
            line.render(),
        )
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
    rep = _Reporter(args.json_lines)
    try:
        return args.func(args, rep)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
