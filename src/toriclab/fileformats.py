"""Line-oriented text formats for fans, pairs and polytopes.

The formats are deliberately flat and hand-writable:

    fan file:       dim <n>            pair file:   fan <path>   (or an
                    ray <c1> ... <cn>               inline dim/ray/cone
                    cone <i> <j> ...                block), then
                                                    coeff <ray-index> <p>/<q>
    polytope file:  dim <n>
                    vertex <c1> ... <cn>

'#' starts a comment, blank lines are ignored, and cone/coeff indices refer
to the ray lines in file order.  A file has at most one dim line, and a
pair file at most one fan line and one coeff line per ray index.  A
coefficient is an integer, p/q or a decimal, without an exponent.  An
error cites the line it is on; one of the file as a whole cites line 1.
Emitters write the canonical ray order, so emit(parse(file)) is
byte-identical exactly on canonical-form files.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from toriclab.fan import Fan, validate_fan
from toriclab.lattice import primitive
from toriclab.pairs import ToricPair, validate_pair
from toriclab.polytope import Polytope


# an integer, p/q or a decimal; an exponent would let a few bytes ask
# Fraction for a power of ten of any size
_COEFF = re.compile(r"[+-]?(\d+(/\d+)?|\d*\.\d+)")


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _dim(lineno: int, args: list[str], dim: Optional[int]) -> int:
    """The n of a `dim <n>` line, given the dim read so far (None)."""
    if dim is not None:
        raise ParseError(lineno, "duplicate dim line")
    if len(args) != 1 or not args[0].isdecimal():
        raise ParseError(lineno, "expected: dim <n>")
    return int(args[0])


def _point(lineno: int, key: str, args: list[str], dim: Optional[int]) -> tuple[int, ...]:
    """The integer coordinates of a `<key> <c1> ... <cn>` line (a ray or
    a vertex), n the dim read so far."""
    if dim is None:
        raise ParseError(lineno, f"{key} before dim")
    try:
        point = tuple(int(x) for x in args)
    except ValueError:
        raise ParseError(lineno, f"{key} coordinates must be integers") from None
    if len(point) != dim:
        raise ParseError(lineno, f"expected {dim} coordinates")
    return point


class FanFile(NamedTuple):
    """A parsed fan file: the fan, and in the order written the canonical
    index of each ray line and the sorted canonical ray indices of each
    cone line, which translate the file's indices into the fan's."""

    fan: Fan
    rays: list[int]
    cones: list[tuple[int, ...]]


def parse_fan(text: str, validate: bool = True) -> Fan:
    """Parse a fan file.  With validate=True (the default) the fan axioms
    are checked too and a violation is a semantic ParseError; pass
    validate=False to obtain the raw fan and run diagnostics yourself."""
    return parse_fan_file(text, validate).fan


def parse_fan_file(text: str, validate: bool = True) -> FanFile:
    """Parse a fan file as parse_fan does, keeping the file's ray and cone
    order (FanFile)."""
    return _read_fan(_logical_lines(text), validate)


def _read_fan(entries, validate: bool = True) -> FanFile:
    """The fan of the dim/ray/cone lines given as (lineno, words) entries,
    which cite their own line numbers in errors."""
    dim: Optional[int] = None
    rays: list[tuple[int, ...]] = []
    cones: list[tuple[int, ...]] = []
    ray_lines: dict[tuple[int, ...], int] = {}  # each ray made primitive, in file order -> its line
    for lineno, words in entries:
        key, args = words[0], words[1:]
        if key == "dim":
            dim = _dim(lineno, args, dim)
        elif key == "ray":
            ray = _point(lineno, key, args, dim)
            if not any(ray):
                raise ParseError(lineno, "zero ray")
            direction = primitive(ray)
            if direction in ray_lines:
                raise ParseError(lineno, f"duplicate ray (first seen on line {ray_lines[direction]})")
            ray_lines[direction] = lineno
            rays.append(ray)
        elif key == "cone":
            if dim is None:
                raise ParseError(lineno, "cone before dim")
            try:
                cone = tuple(int(x) for x in args)
            except ValueError:
                raise ParseError(lineno, "cone entries must be ray indices") from None
            if not cone:
                raise ParseError(lineno, "empty cone")
            for i in cone:
                if i < 0 or i >= len(rays):
                    raise ParseError(lineno, f"ray index {i} out of range")
            if len(set(cone)) != len(cone):
                raise ParseError(lineno, "repeated ray index in cone")
            cones.append(cone)
        else:
            raise ParseError(lineno, f"unknown directive {key!r}")
    if dim is None:
        raise ParseError(1, "missing dim line")
    fan = Fan.from_data(rays, cones, rank=dim)
    if validate:
        diag = validate_fan(fan)
        if not diag.valid:
            raise ParseError(1, f"invalid fan: {diag.problem} (witness {diag.witness})")
    index = {ray: k for k, ray in enumerate(fan.rays)}
    ray_index = [index[direction] for direction in ray_lines]
    return FanFile(fan, ray_index, [tuple(sorted(ray_index[i] for i in cone)) for cone in cones])


def parse_pair(text: str, base_dir: str = ".") -> ToricPair:
    """Parse a pair file; `fan <path>` loads the fan from a file relative
    to base_dir, or the fan block may appear inline."""
    fan_path: Optional[str] = None
    fan_line = 0
    inline: list[tuple[int, list[str]]] = []
    coeff_lines: list[tuple[int, int, Fraction]] = []
    for lineno, words in _logical_lines(text):
        key, args = words[0], words[1:]
        if key == "fan":
            if len(args) != 1:
                raise ParseError(lineno, "expected: fan <path>")
            if fan_path is not None:
                raise ParseError(lineno, "duplicate fan line")
            fan_path, fan_line = args[0], lineno
        elif key in ("dim", "ray", "cone"):
            inline.append((lineno, words))
        elif key == "coeff":
            if len(args) != 2:
                raise ParseError(lineno, "expected: coeff <ray-index> <p>/<q>")
            try:
                idx = int(args[0])
                if not _COEFF.fullmatch(args[1]):
                    raise ValueError
                value = Fraction(args[1])
            except (ValueError, ZeroDivisionError):
                raise ParseError(lineno, "bad coefficient") from None
            coeff_lines.append((lineno, idx, value))
        else:
            raise ParseError(lineno, f"unknown directive {key!r}")
    if fan_path is not None and inline:
        # cite the line where the second form of the fan begins
        raise ParseError(max(fan_line, inline[0][0]), "give the fan either by path or inline, not both")
    if fan_path is not None:
        path = os.path.join(base_dir, fan_path)
        try:
            with open(path, encoding="utf-8") as fh:
                entries = _logical_lines(fh.read())
        except OSError as e:
            raise ParseError(fan_line, f"cannot read fan file {path}: {e}") from None
    elif inline:
        entries = inline
    else:
        raise ParseError(1, "pair file has no fan")
    # coeff indices refer to the ray order of the fan as written; map onto
    # the canonical order of the constructed fan
    fan, ray_index, _ = _read_fan(entries)
    coeffs = [Fraction(0)] * len(fan.rays)
    coeff_line: dict[int, int] = {}
    for lineno, idx, value in coeff_lines:
        if idx < 0 or idx >= len(ray_index):
            raise ParseError(lineno, f"coeff names ray index {idx}, but only {len(ray_index)} rays exist")
        if idx in coeff_line:
            raise ParseError(lineno, f"duplicate coeff for ray index {idx} (first seen on line {coeff_line[idx]})")
        if value < 0:
            raise ParseError(lineno, "boundary must be effective")
        coeff_line[idx] = lineno
        coeffs[ray_index[idx]] = value
    pair = ToricPair.from_fan(fan, coeffs)
    diag = validate_pair(pair)
    if not diag.valid:
        raise ParseError(1, f"invalid pair: {diag.problem} (witness {diag.witness})")
    return pair


def parse_polytope(text: str) -> Polytope:
    dim: Optional[int] = None
    vertices: list[tuple[int, ...]] = []
    for lineno, words in _logical_lines(text):
        key, args = words[0], words[1:]
        if key == "dim":
            dim = _dim(lineno, args, dim)
        elif key == "vertex":
            vertices.append(_point(lineno, key, args, dim))
        else:
            raise ParseError(lineno, f"unknown directive {key!r}")
    if dim is None:
        raise ParseError(1, "missing dim line")
    if not vertices:
        raise ParseError(1, "polytope file has no vertices")
    return Polytope.hull(vertices, rank=dim)


def emit_fan(fan: Fan) -> str:
    lines = [f"dim {fan.rank}"]
    lines += ["ray " + " ".join(str(x) for x in ray) for ray in fan.rays]
    lines += ["cone " + " ".join(str(i) for i in cone) for cone in fan.max_cones]
    return "\n".join(lines) + "\n"


def emit_pair(pair: ToricPair) -> str:
    out = emit_fan(pair.fan)
    for i, b in enumerate(pair.boundary):
        if b != 0:
            out += f"coeff {i} {b}\n"
    return out


def emit_polytope(P: Polytope) -> str:
    lines = [f"dim {P.rank}"]
    lines += ["vertex " + " ".join(str(x) for x in v) for v in P.vertices]
    return "\n".join(lines) + "\n"
