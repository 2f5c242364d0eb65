"""Malformed input: every subcommand exits with 2 and an error message,
never a traceback, and the file parsers either parse a text or raise
ParseError, whatever the text."""

import contextlib
import io
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from toriclab.cli import main
from toriclab.fileformats import ParseError, parse_fan, parse_pair, parse_polytope

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")
P2 = os.path.join(SAMPLES, "p2.fan")
P2_PAIR = os.path.join(SAMPLES, "p2_boundary.pair")

# files written into the test's tmp_path: name -> content
FILES = {
    "empty": b"",
    "wrong-dim.fan": b"dim 2\nray 1 0 0\ncone 0\n",
    "wrong-dim.poly": b"dim 3\nvertex 1 0\n",
    "garbage": b"\xff\x00 not UTF-8",
    "no-vertices.poly": b"dim 2\n",
    "bad-int.fan": b"dim 2\nray 1 x\n",
    "bad-dim.fan": "dim ²\n".encode(),
    "exponent.pair": b"dim 1\nray 1\nray -1\ncone 0\ncone 1\ncoeff 0 1e3\n",
    "p1.fan": b"dim 1\nray 1\nray -1\ncone 0\ncone 1\n",
    "two-fans.pair": b"fan p1.fan\nfan p1.fan\ncoeff 0 1\n",
    "two-coeffs.pair": b"fan p1.fan\ncoeff 0 1/2\ncoeff 0 1/2\n",
}

# {name} is replaced by the path of FILES[name]; "{missing}" never exists
MALFORMED = [
    ["fan", "check", "{empty}"],
    ["fan", "check", "{missing}"],
    ["fan", "check", "{wrong-dim.fan}"],
    ["fan", "check", "{garbage}"],
    ["fan", "check", "{bad-int.fan}"],
    ["fan", "check", "{bad-dim.fan}"],
    ["fan", "check", P2, "--expect", "maybe"],
    ["fan", "resolve2d", "{empty}"],
    ["fan", "resolve2d", P2, "--cone", "x"],
    ["fan", "resolve2d", P2, "--cone", "9"],
    ["fan", "resolve2d", os.path.join(SAMPLES, "p3.fan")],
    ["fan", "subdivide", "{wrong-dim.fan}", "--stratum", "0"],
    ["fan", "subdivide", P2, "--stratum", "a"],
    ["fan", "subdivide", P2, "--stratum", "1,,2"],
    ["fan", "subdivide", P2, "--stratum", ""],
    ["fan", "subdivide", P2, "--stratum", "0,9"],
    ["fan", "subdivide", P2, "--stratum", "-1"],
    ["fan", "subdivide", P2, "--stratum", "0,0"],
    ["fan", "subdivide", P2, "--stratum", "0,1", "--ray=x"],
    ["fan", "subdivide", P2, "--stratum", "0,1", "--ray=0,0"],
    ["fan", "subdivide", P2, "--stratum", "0,1", "--ray=1,2,3"],
    ["fan", "subdivide", P2],
    ["pair", "classify", "{empty}"],
    ["pair", "classify", "{wrong-dim.fan}"],
    ["pair", "classify", "{exponent.pair}"],
    ["pair", "classify", "{missing}"],
    ["pair", "classify", "{two-fans.pair}"],
    ["pair", "classify", "{two-coeffs.pair}"],
    ["pair", "discrepancy", P2_PAIR, "--point", "x"],
    ["pair", "discrepancy", P2_PAIR, "--point", "1,,1"],
    ["pair", "discrepancy", P2_PAIR, "--point", "1,2,3"],
    ["pair", "discrepancy", P2_PAIR, "--point", "0,0"],
    ["pair", "discrepancy", "{empty}", "--point", "1,1"],
    ["pair", "pullback", P2_PAIR, "--refinement", "{missing}"],
    ["pair", "pullback", P2_PAIR, "--refinement", "{empty}"],
    ["pair", "pullback", P2_PAIR, "--refinement", os.path.join(SAMPLES, "p3.fan")],
    ["pair", "pullback", P2_PAIR, "--refinement", os.path.join(SAMPLES, "f1.fan")],
    ["pair", "pullback", "{wrong-dim.fan}", "--refinement", P2],
    ["pair", "complexity", "{empty}"],
    ["pair", "complexity", "{garbage}"],
    ["polytope", "check", "{empty}"],
    ["polytope", "check", "{wrong-dim.poly}"],
    ["polytope", "check", "{no-vertices.poly}"],
    ["polytope", "check", "{missing}"],
    ["polytope", "enumerate-reflexive", "--dim", "x"],
    ["polytope", "enumerate-reflexive", "--dim", "3"],
    ["polytope", "enumerate-reflexive"],
    ["markov", "table", "--max", "x"],
    ["markov", "table", "--max", "0"],
    ["markov", "table", "--max", "-1"],
    ["markov", "adjacent", "--triple", "1,2"],
    ["markov", "adjacent", "--triple", "a,b,c"],
    ["markov", "adjacent", "--triple", "1,2,3"],
    ["markov", "adjacent", "--triple=0,0,0"],
    ["markov", "adjacent", "--triple", "1,1,1,1"],
    ["casebook", "segre", "extra"],
    ["casebook", "suite", "--frobnicate"],
    ["casebook"],
    [],
]


def _materialise(argv, tmp_path):
    paths = {"{missing}": str(tmp_path / "missing.fan")}
    for name, content in FILES.items():
        path = tmp_path / name
        path.write_bytes(content)
        paths["{" + name + "}"] = str(path)
    return [paths.get(a, a) for a in argv]


@pytest.mark.parametrize("argv", MALFORMED, ids=[" ".join(a) for a in MALFORMED])
def test_malformed_input_exits_2_without_traceback(argv, tmp_path):
    argv = _materialise(argv, tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code == 2
    assert err.getvalue().strip()
    assert "Traceback" not in err.getvalue()
    assert out.getvalue() == ""


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["pair", "discrepancy", P2_PAIR, "--point="], "--point"),
        (["fan", "subdivide", P2, "--stratum", "0,,1"], "--stratum"),
        (["fan", "subdivide", P2, "--stratum", "0,1", "--ray=a"], "--ray"),
        (["markov", "adjacent", "--triple", "1,1,1,"], "--triple"),
    ],
    ids=["--point=", "--stratum 0,,1", "--ray=a", "--triple 1,1,1,"],
)
def test_argument_errors_cite_the_flag_and_no_file_line(argv, flag):
    # a malformed integer list on the command line is not a line of a file
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv) == 2
    assert err.getvalue() == f"error: {flag} must be comma-separated integers\n"


def test_a_second_fan_line_is_an_error(tmp_path):
    (tmp_path / "p1.fan").write_bytes(FILES["p1.fan"])
    assert parse_pair("fan p1.fan\ncoeff 0 1\n", str(tmp_path)).boundary == (0, 1)
    with pytest.raises(ParseError, match="duplicate fan line") as caught:
        parse_pair("fan p1.fan\n# the same fan again\nfan p1.fan\n", str(tmp_path))
    assert caught.value.line == 3


def test_a_second_coeff_for_one_ray_is_an_error(tmp_path):
    # refused, not summed into b_0 = 1
    (tmp_path / "p1.fan").write_bytes(FILES["p1.fan"])
    assert parse_pair("fan p1.fan\ncoeff 0 1/2\ncoeff 1 1/2\n", str(tmp_path)).boundary == (Fraction(1, 2),) * 2
    with pytest.raises(ParseError) as caught:
        parse_pair("fan p1.fan\ncoeff 0 1/2\n# the same ray again\ncoeff 0 1/2\n", str(tmp_path))
    assert str(caught.value) == "line 4: duplicate coeff for ray index 0 (first seen on line 2)"
    assert caught.value.line == 4


def test_every_subcommand_is_covered():
    covered = {tuple(a[:2]) for a in MALFORMED if len(a) >= 2}
    assert covered >= {
        ("fan", "check"), ("fan", "resolve2d"), ("fan", "subdivide"),
        ("pair", "classify"), ("pair", "discrepancy"), ("pair", "pullback"), ("pair", "complexity"),
        ("polytope", "check"), ("polytope", "enumerate-reflexive"),
        ("markov", "table"), ("markov", "adjacent"),
        ("casebook", "segre"), ("casebook", "suite"),
    }


# ------------------------------------------------------------- fuzzing

# the format's own words mixed with numbers, fractions, non-ASCII digits,
# exponents and separators, so that texts get past the first line
TOKENS = [
    "dim", "ray", "cone", "coeff", "vertex", "fan", "#", "\n", "\n", "\n", " ",
    "0", "1", "2", "3", "-1", "-2", "10", "1/2", "-1/3", "1/0", "0.5", "1e3", "x", "/",
    "²", "٣", "1_0",
]
TEXTS = st.one_of(st.text(max_size=120), st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join))


@pytest.mark.parametrize("parse", [parse_fan, parse_pair, parse_polytope], ids=lambda f: f.__name__)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=TEXTS)
@example(text="dim ²\nray 1\n")  # isdigit but not int()
def test_parsers_parse_or_raise_parse_error(parse, text):
    try:
        parse(text)
    except ParseError as e:
        assert e.line >= 1
