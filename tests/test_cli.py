import json
import os
import shlex
import subprocess
import sys
import weakref

import pytest

from toriclab import fan as fan_module
from toriclab import fileformats
from toriclab.cli import main
from toriclab.fileformats import (
    ParseError,
    emit_fan,
    emit_pair,
    emit_polytope,
    parse_fan,
    parse_fan_file,
    parse_pair,
    parse_polytope,
)

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")


def sample(name):
    return os.path.join(SAMPLES, name)


# ------------------------------------------------------------- parsing


def test_parse_p2_fan():
    fan = parse_fan(open(sample("p2.fan")).read())
    assert set(fan.rays) == {(1, 0), (0, 1), (-1, -1)}
    assert len(fan.max_cones) == 3


def test_parse_rejects_duplicate_ray():
    text = "dim 2\nray 1 0\nray 1 0\ncone 0 1\n"
    with pytest.raises(ParseError) as err:
        parse_fan(text)
    assert err.value.line == 3


def test_parse_rejects_unknown_directive():
    with pytest.raises(ParseError, match="unknown directive"):
        parse_fan("dim 2\nvertex 1 0\n")


def test_parse_rejects_bad_cone_index():
    with pytest.raises(ParseError, match="out of range"):
        parse_fan("dim 2\nray 1 0\ncone 0 5\n")


def test_parse_pair_with_bad_coeff_index():
    text = "dim 2\nray 1 0\nray 0 1\nray -1 -1\ncone 0 1\ncone 1 2\ncone 0 2\ncoeff 7 1\n"
    with pytest.raises(ParseError, match="coeff names ray index 7"):
        parse_pair(text)


def test_parse_pair_inline_fan_errors_cite_the_pair_file_lines():
    # comments, a blank line and a coeff line come before the bad ray, so
    # the fan block alone would put it on line 3
    text = "# a pair\n\ncoeff 0 1\ndim 2\nray 1 0\n# the next ray is bad\nray x 1\nray -1 -1\n"
    with pytest.raises(ParseError, match="^line 7: ray coordinates must be integers$") as err:
        parse_pair(text)
    assert err.value.line == 7
    with pytest.raises(ParseError, match="^line 5: ray before dim$"):
        parse_pair("coeff 0 1\n\n\n\nray 1 0\ndim 2\n")


DIM_AND_POINT_ERRORS = [
    ("dim 2\ndim 2\n", "line 2: duplicate dim line"),
    ("dim x\n", "line 1: expected: dim <n>"),
    ("{key} 1 0\ndim 2\n", "line 1: {key} before dim"),
    ("dim 2\n{key} 1 x\n", "line 2: {key} coordinates must be integers"),
    ("dim 2\n{key} 1 0 0\n", "line 2: expected 2 coordinates"),
    ("# no dim\n", "line 1: missing dim line"),
]


@pytest.mark.parametrize("parse,key", [(parse_fan, "ray"), (parse_polytope, "vertex")], ids=["fan", "polytope"])
@pytest.mark.parametrize("text,message", DIM_AND_POINT_ERRORS, ids=[m for _, m in DIM_AND_POINT_ERRORS])
def test_fan_and_polytope_files_read_dim_and_points_alike(parse, key, text, message):
    with pytest.raises(ParseError) as err:
        parse(text.format(key=key))
    assert str(err.value) == message.format(key=key)


def test_parse_validates_semantics():
    overlapping = "dim 2\nray 1 0\nray 0 1\nray 1 1\nray -1 1\ncone 0 1\ncone 2 3\n"
    with pytest.raises(ParseError, match="invalid fan"):
        parse_fan(overlapping)
    # same text parses raw when validation is deferred
    assert parse_fan(overlapping, validate=False) is not None
    # a pair whose K+B is not Q-Cartier is rejected at the file boundary
    square = open(sample("cone_over_square.fan")).read()
    with pytest.raises(ParseError, match="invalid pair"):
        parse_pair(square + "coeff 0 1\n")


def test_parse_pair_coefficients_follow_file_ray_order():
    # the file lists rays in a non-canonical order; coeff 0 must attach to
    # the first ray AS WRITTEN
    text = "dim 2\nray 1 0\nray 0 1\nray -1 -1\ncone 0 1\ncone 1 2\ncone 0 2\ncoeff 0 1/2\n"
    pair = parse_pair(text)
    assert pair.boundary[pair.fan.rays.index((1, 0))] == 0.5
    assert sum(pair.boundary) == 0.5


def test_parse_pair_fan_by_path():
    text = "fan p2.fan\ncoeff 0 1\ncoeff 1 1\ncoeff 2 1\n"
    pair = parse_pair(text, base_dir=SAMPLES)
    assert all(b == 1 for b in pair.boundary)


def test_comments_and_blank_lines_ignored():
    text = "# a fan\ndim 2\n\nray 1 0  # first\nray 0 1\nray -1 -1\ncone 0 1\ncone 1 2\ncone 0 2\n"
    assert parse_fan(text) == parse_fan(open(sample("p2.fan")).read())


# ------------------------------------------------------------ round trip


def test_roundtrip_fan_samples_byte_identical():
    for name in os.listdir(SAMPLES):
        if name.endswith(".fan"):
            text = open(sample(name)).read()
            assert emit_fan(parse_fan(text)) == text, name


def test_roundtrip_pair_samples_byte_identical():
    for name in os.listdir(SAMPLES):
        if name.endswith(".pair"):
            text = open(sample(name)).read()
            assert emit_pair(parse_pair(text, base_dir=SAMPLES)) == text, name


def test_roundtrip_polytope_samples_byte_identical():
    for name in os.listdir(SAMPLES):
        if name.endswith(".poly"):
            text = open(sample(name)).read()
            assert emit_polytope(parse_polytope(text)) == text, name


def test_samples_cover_the_promised_corpus():
    names = set(os.listdir(SAMPLES))
    assert {"p1.fan", "p2.fan", "p3.fan", "p4.fan"} <= names
    assert {"f0.fan", "f1.fan", "f2.fan", "f3.fan"} <= names
    assert {"wp112.fan", "wp1415.fan"} <= names
    assert sum(1 for n in names if n.startswith("reflexive_")) == 16


def test_shipped_polygons_match_enumeration():
    from toriclab.polytope import enumerate_reflexive_polygons

    shipped = sorted(
        parse_polytope(open(sample(n)).read()).vertices
        for n in os.listdir(SAMPLES)
        if n.endswith(".poly")
    )
    produced = sorted(P.vertices for P in enumerate_reflexive_polygons())
    assert shipped == produced


# ------------------------------------------------------------------ cli


def test_cli_pair_classify(capsys):
    code = main(["pair", "classify", sample("p2_boundary.pair")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "lc; log CY; index 1; complexity 0"


def test_cli_pair_classify_json(capsys):
    code = main(["--json-lines", "pair", "classify", sample("p2_boundary.pair")])
    assert code == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record == {"type": "lc", "log_cy": True, "index": 1, "complexity": "0"}


def test_cli_fan_check_valid(capsys):
    assert main(["fan", "check", sample("p2.fan")]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_cli_fan_check_expect_mismatch(capsys):
    assert main(["fan", "check", sample("p2.fan"), "--expect", "invalid"]) == 1


def test_cli_fan_check_invalid_fan(tmp_path, capsys):
    bad = tmp_path / "bad.fan"
    bad.write_text("dim 2\nray 1 0\nray 0 1\nray 1 1\nray -1 1\ncone 0 1\ncone 2 3\n")
    assert main(["fan", "check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "invalid" in out
    assert main(["fan", "check", str(bad), "--expect", "invalid"]) == 0


def test_cli_syntax_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.fan"
    bad.write_text("dim 2\nray 1 0\nray 1 0\ncone 0 1\n")
    assert main(["fan", "check", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_cli_missing_file_exit_2(capsys):
    assert main(["fan", "check", "no-such-file.fan"]) == 2


def test_cli_unknown_flag_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["fan", "check", "--frobnicate"])
    assert exc.value.code == 2


def test_cli_resolve2d(tmp_path, capsys):
    fan = tmp_path / "a1.fan"
    fan.write_text("dim 2\nray 1 0\nray 1 2\ncone 0 1\n")
    assert main(["fan", "resolve2d", str(fan)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["inserted 1 1", "count 1"]


def test_cli_subdivide_roundtrips(capsys):
    assert main(["fan", "subdivide", sample("p2.fan"), "--stratum", "1,2"]) == 0
    emitted = capsys.readouterr().out
    fan = parse_fan(emitted)
    assert len(fan.rays) == 4
    assert emit_fan(fan) == emitted


def test_cli_indices_follow_file_order(tmp_path, capsys):
    # rays written in a scrambled order: --stratum 0,1 must mean the first
    # two ray LINES, whatever the canonical order is
    scrambled = tmp_path / "scrambled.fan"
    scrambled.write_text("dim 2\nray 1 0\nray 0 1\nray -1 -1\ncone 0 1\ncone 1 2\ncone 0 2\n")
    assert main(["fan", "subdivide", str(scrambled), "--stratum", "0,1"]) == 0
    fan = parse_fan(capsys.readouterr().out)
    assert (1, 1) in fan.rays  # blow-up of the cone spanned by (1,0),(0,1)

    cone_file = tmp_path / "cones.fan"
    cone_file.write_text("dim 2\nray 1 0\nray 0 1\nray 1 2\ncone 0 2\ncone 1 2\n")
    assert main(["fan", "resolve2d", str(cone_file), "--cone", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["inserted 1 1", "count 1"]  # the <(1,0),(1,2)> cone


def test_fan_file_keeps_the_written_order():
    # rays written out of canonical order, one of them not primitive
    read = parse_fan_file("dim 2\nray 0 1\nray 2 0\nray -1 -1\ncone 1 0\ncone 2 1\ncone 0 2\n")
    assert read.fan.rays == ((-1, -1), (0, 1), (1, 0))
    assert read.rays == [1, 2, 0]
    assert read.cones == [(1, 2), (0, 2), (0, 1)]
    assert read.fan == parse_fan("dim 2\nray 0 1\nray 2 0\nray -1 -1\ncone 1 0\ncone 2 1\ncone 0 2\n")


def test_each_fan_text_is_read_once(tmp_path, monkeypatch, count_calls, capsys):
    """Each fan is normalised once: Fan.from_data builds a fan missing from
    the live table from its normal form, with no second normalisation, so
    the builds are counted through fan._normal_form, which Fan(...) (the
    subdivision) also calls."""
    lines = count_calls("_logical_lines", fileformats)
    fans = count_calls("_normal_form", fan_module)
    cone_file = tmp_path / "cones.fan"
    cone_file.write_text("dim 2\nray 1 0\nray 0 1\nray 1 2\ncone 0 2\ncone 1 2\n")
    inline = tmp_path / "inline.pair"
    inline.write_text(open(sample("p2.fan")).read() + "coeff 0 1/2\n")
    (tmp_path / "p2.fan").write_text(open(sample("p2.fan")).read())
    by_path = tmp_path / "by_path.pair"
    by_path.write_text("fan p2.fan\ncoeff 0 1/2\n")
    runs = [
        (["fan", "resolve2d", str(cone_file), "--cone", "0"], 1, 1),
        (["fan", "subdivide", sample("p2.fan"), "--stratum", "0,1"], 1, 2),  # the fan and its subdivision
        (["pair", "classify", str(by_path)], 2, 1),  # the pair file and its fan file
        (["pair", "classify", sample("p2_boundary.pair")], 1, 1),  # an inline fan block, read in place
        (["pair", "classify", str(inline)], 1, 1),
    ]
    for argv, texts, built in runs:
        lines.clear()
        fans.clear()
        monkeypatch.setattr(fan_module, "_ALIVE", weakref.WeakValueDictionary())  # run 3's cached pair holds the p2 fan
        assert main(argv) == 0, argv
        assert (len(lines), len(fans)) == (texts, built), argv
    capsys.readouterr()


def test_a_second_run_on_a_catalogue_fan_takes_no_geometry(count_calls, capsys, catalogue):
    """With the catalogue alive, p3.fan and f2.fan are the catalogue's P3
    and F2: the first run validates each once, and a second run reads the
    cached Diagnostics and the cone's cached dimension, with no echelon
    and no wall test."""
    runs = [["fan", "check", sample("p3.fan")], ["fan", "resolve2d", sample("f2.fan"), "--cone", "1"]]
    for argv in runs:
        assert main(argv) == 0, argv
    echelons = count_calls("_seed_echelon", fan_module)
    covers = count_calls("_covers_once", fan_module)
    for argv in runs:
        assert main(argv) == 0, argv
    assert (echelons, covers) == ([], [])
    capsys.readouterr()


def test_cli_pair_pullback_and_failure(tmp_path, capsys):
    assert main(["fan", "subdivide", sample("p2.fan"), "--stratum", "1,2"]) == 0
    fine = tmp_path / "fine.fan"
    fine.write_text(capsys.readouterr().out)
    assert main(["pair", "pullback", sample("p2_boundary.pair"), "--refinement", str(fine)]) == 0
    pulled = parse_pair(capsys.readouterr().out)
    assert all(b == 1 for b in pulled.boundary)

    bare = tmp_path / "bare.pair"
    bare.write_text(open(sample("p2.fan")).read())  # boundary zero
    assert main(["pair", "pullback", str(bare), "--refinement", str(fine)]) == 1
    assert "not effective" in capsys.readouterr().err


def test_cli_pair_discrepancy(capsys):
    assert main(["pair", "discrepancy", sample("p2_boundary.pair"), "--point", "1,1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("0")
    assert "log canonical place" in out  # exceptional points carry labels
    assert main(["pair", "discrepancy", sample("p2_boundary.pair"), "--point", "1,0"]) == 0
    assert capsys.readouterr().out.strip() == "0"  # a ray: bare value only
    # with no boundary, the blow-up of a torus fixed point of P^2 is terminal
    assert main(["pair", "discrepancy", sample("p2.fan"), "--point", "1,1"]) == 0
    assert capsys.readouterr().out == "2  (terminal place)\n"
    assert main(["--json-lines", "pair", "discrepancy", sample("p2.fan"), "--point", "1,1"]) == 0
    assert json.loads(capsys.readouterr().out)["labels"] == ["terminal place"]


def test_cli_pair_complexity(capsys):
    assert main(["pair", "complexity", sample("p2_boundary.pair")]) == 0
    assert capsys.readouterr().out.strip() == "c = 0 (dim 2, rho 1, norm 3)"


def test_cli_polytope_check(tmp_path, capsys):
    assert main(["polytope", "check", sample("reflexive_01.poly")]) == 0
    out = capsys.readouterr().out
    assert "reflexive true" in out
    triangle = tmp_path / "triangle.poly"
    triangle.write_text("dim 2\nvertex 1 0\nvertex 0 1\nvertex 1 1\n")
    assert main(["polytope", "check", str(triangle)]) == 1
    assert capsys.readouterr().out == "origin-interior false\n"


def test_cli_polytope_enumerate_count(capsys):
    assert main(["polytope", "enumerate-reflexive", "--dim", "2", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "16"
    # the text form is the shipped polygon files, one blank line apart
    assert main(["polytope", "enumerate-reflexive", "--dim", "2"]) == 0
    shipped = [open(sample(f"reflexive_{k:02d}.poly")).read() for k in range(1, 17)]
    assert capsys.readouterr().out == "\n".join(shipped)


def test_cli_polytope_enumerate_dim3_unsupported(capsys):
    assert main(["polytope", "enumerate-reflexive", "--dim", "3"]) == 2


def test_cli_markov_table(capsys):
    assert main(["markov", "table", "--max", "30"]) == 0
    out = capsys.readouterr().out
    for triple in ("(1, 1, 1)", "(1, 1, 2)", "(1, 2, 5)", "(1, 5, 13)", "(2, 5, 29)"):
        assert triple in out
    assert "degree" in out and "amplitude" in out


def test_cli_markov_adjacent(capsys):
    assert main(["markov", "adjacent", "--triple", "1,2,5"]) == 0
    assert capsys.readouterr().out.strip() == "(1, 1, 2)"
    assert main(["markov", "adjacent", "--triple", "1,2,4"]) == 2


def test_cli_casebook_segre(capsys):
    assert main(["casebook", "segre"]) == 0
    out = capsys.readouterr().out
    assert "contracted-lines 10" in out
    assert "effective true" in out


def test_cli_casebook_suite(capsys):
    assert main(["casebook", "suite"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert all(" pass " in line or " info " in line for line in out)
    assert len(out) >= 25 * 5


def _readme_command_lines():
    """The `toriclab ...` lines of README's "Command line" block, each as
    (argv, the text after `#`), that name no file outside samples/."""
    readme = open(os.path.join(SAMPLES, "..", "README.md"), encoding="utf-8").read()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        if all(arg.startswith("samples/") for arg in argv if "/" in arg or "." in arg):
            yield argv, comment.strip()


def test_readme_command_lines_run(monkeypatch, capsys):
    monkeypatch.chdir(os.path.join(SAMPLES, ".."))
    lines = list(_readme_command_lines())
    assert len(lines) == 11
    for argv, comment in lines:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[:2] == ["pair", "classify"]:
            assert out == comment + "\n"


def test_cli_json_lines_are_json(capsys):
    assert main(["--json-lines", "casebook", "suite"]) == 0
    for line in capsys.readouterr().out.splitlines():
        json.loads(line)


def test_cli_reports_deterministic(capsys):
    main(["casebook", "suite"])
    first = capsys.readouterr().out
    main(["casebook", "suite"])
    assert capsys.readouterr().out == first


def test_pair_answers_are_the_same_under_python_O():
    # python -O strips asserts: every check the pair commands rely on must
    # be a real exception, so both interpreters print the same bytes
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    names = sorted(n for n in os.listdir(SAMPLES) if n.endswith(".pair"))
    assert len(names) >= 4
    for name in names:
        for command in ("classify", "complexity"):
            argv = ["-m", "toriclab.cli", "--json-lines", "pair", command, sample(name)]
            plain = subprocess.run([sys.executable, *argv], env=env, capture_output=True)
            optimised = subprocess.run([sys.executable, "-O", *argv], env=env, capture_output=True)
            assert plain.returncode == 0 and plain.stdout, (name, command, plain.stderr)
            assert (optimised.returncode, optimised.stdout, optimised.stderr) == (
                plain.returncode,
                plain.stdout,
                plain.stderr,
            ), (name, command)
