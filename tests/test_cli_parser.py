"""The command tree is built once per process and a well-formed command is
parsed by its subcommand's parser alone: every command on samples/, run
twice and interleaved with failing calls, prints and exits exactly as with
a freshly built parser, and the subcommand parsers answer every command
line, good or bad, as the whole tree does."""

import contextlib
import hashlib
import io
import itertools
import os
import subprocess
import sys

import toriclab
from toriclab import cli
from toriclab.fan import star_subdivision
from toriclab.fileformats import emit_fan, parse_fan

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")

FAILING = [
    ["fan", "check", "--frobnicate"],  # unknown flag: SystemExit 2
    ["fan", "check", os.path.join(SAMPLES, "no-such-file.fan")],  # 2
    ["markov", "adjacent", "--triple", "1,2"],  # 2
]


def _commands(tmp_path):
    """Every subcommand over the files in samples/, as a replay of the
    sample corpus runs them."""
    names = sorted(os.listdir(SAMPLES))
    path = lambda name: os.path.join(SAMPLES, name)  # noqa: E731
    cmds = [["--json-lines", "fan", "check", path(n)] for n in names if n.endswith(".fan")]
    for n in ("p2.fan", "f0.fan", "f1.fan", "f2.fan", "f3.fan", "p1xp1.fan", "wp112.fan"):
        for cone in range(3 if n in ("p2.fan", "wp112.fan") else 4):
            cmds.append(["--json-lines", "fan", "resolve2d", path(n), "--cone", str(cone)])
    cmds.append(["fan", "subdivide", path("p2.fan"), "--stratum", "0,1"])
    cmds.append(["fan", "subdivide", path("p3.fan"), "--stratum", "1,2"])
    cmds.append(["fan", "subdivide", path("p3.fan"), "--stratum", "0,1,2"])
    for n in names:
        if n.endswith(".pair"):
            cmds.append(["--json-lines", "pair", "classify", path(n)])
            cmds.append(["--json-lines", "pair", "complexity", path(n)])
    points = {"p2_boundary.pair": "1,1", "p3_boundary.pair": "1,1,1", "p1xp1_boundary.pair": "1,1", "wp112_boundary.pair": "1,1"}
    for n, point in points.items():
        cmds.append(["--json-lines", "pair", "discrepancy", path(n), f"--point={point}"])
    for n, fan_name, stratum in (("p2_boundary.pair", "p2.fan", (0, 1)), ("p3_boundary.pair", "p3.fan", (0, 1, 2))):
        refinement = tmp_path / f"refine-{fan_name}"
        fan = parse_fan(open(path(fan_name)).read())
        refinement.write_text(emit_fan(star_subdivision(fan, list(stratum))))
        cmds.append(["pair", "pullback", path(n), "--refinement", str(refinement)])
    cmds += [["--json-lines", "polytope", "check", path(n)] for n in names if n.endswith(".poly")]
    cmds.append(["--json-lines", "polytope", "enumerate-reflexive", "--dim", "2", "--count-only"])
    cmds.append(["--json-lines", "polytope", "enumerate-reflexive", "--dim", "2"])
    cmds.append(["--json-lines", "markov", "table", "--max", str(10**40)])
    cmds.append(["markov", "table", "--max", "1000"])
    for triple in ("1,1,1", "1,2,5", "2,5,29", "5,13,194"):
        cmds.append(["--json-lines", "markov", "adjacent", "--triple", triple])
    cmds.append(["--json-lines", "casebook", "segre"])
    cmds.append(["--json-lines", "casebook", "suite"])
    return cmds


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = ("SystemExit", e.code)
    return code, out.getvalue(), err.getvalue()


def _sequence(tmp_path):
    """The commands twice over, a failing call after every fifth."""
    seq = []
    for i, argv in enumerate(_commands(tmp_path) * 2):
        seq.append(argv)
        if i % 5 == 4:
            seq.append(FAILING[i // 5 % len(FAILING)])
    return seq


def test_cached_parser_answers_like_a_fresh_one(tmp_path, monkeypatch):
    seq = _sequence(tmp_path)
    assert len(seq) > 190 and all(f in seq for f in FAILING)
    cli._build_parser.cache_clear()
    cached = [_run(argv) for argv in seq]
    assert cli._build_parser.cache_info().misses == 1
    assert cli._build_parser.cache_info().hits == len(seq) - 1

    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [_run(argv) for argv in seq]
    assert cached == fresh
    codes = {str(code) for code, _, _ in cached}
    assert codes == {"0", "2", str(("SystemExit", 2))}
    for argv, (code, _, err) in zip(seq, cached):
        if argv in FAILING:
            assert code in (2, ("SystemExit", 2)) and err and "Traceback" not in err


# sha256 over the sample corpus, taken before `markov table` read the walk's
# int triples and `casebook suite` wrote its lines at once: every command's
# argv (paths relative), exit code, stdout and stderr, which must not change
CORPUS_DIGEST = "c7fc38a01159498614ae78884a443534483373788bad1ca5573b80a1b81511db"


def test_sample_corpus_prints_the_pinned_bytes(tmp_path):
    digest = hashlib.sha256()
    commands = _commands(tmp_path)
    for argv in commands:
        code, out, err = _run(argv)
        for prefix in (SAMPLES, str(tmp_path)):
            assert prefix not in out + err, argv
        rel = [a.replace(SAMPLES, "samples").replace(str(tmp_path), "tmp") for a in argv]
        digest.update(repr((rel, code, out, err)).encode())
    assert len(commands) == 81
    assert digest.hexdigest() == CORPUS_DIGEST


def test_importing_the_cli_builds_no_parser():
    src = os.path.dirname(os.path.dirname(toriclab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import toriclab.cli as c; print(c._build_parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


HEADS = [[], ["--json-lines"], ["--json"], ["--json-lines", "--json-lines"], ["-h"], ["--"]]
TAILS = [
    [], ["x"], ["x", "y"], ["-h"], ["--he"], ["--"], ["--", "x"], ["x", "--"], ["x", "--json-lines"], ["x", "fan", "check"],
    ["x", "--exp", "inv"], ["x", "--expect=valid"], ["x", "--expect", "bogus"], ["x", "--co", "2"], ["x", "--cone", "-1"],
    ["x", "--cone", "a"], ["x", "--stratum=0,1", "--ray=-1,2"], ["x", "--ray", "-1,2"], ["--point=1,1", "x"],
    ["--refinement", "r", "x"], ["--dim", "2", "--count"], ["--max=0"], ["--max", "-5"], ["--tr", "1,1,1"],
    ["x", "--frobnicate"], ["-1"], ["x", "-"],
]


def _parsed(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = sorted((k, repr(v)) for k, v in vars(parse(list(argv))).items())
        except SystemExit as e:
            got = ("SystemExit", e.code)
    return got, out.getvalue(), err.getvalue()


def test_subcommand_parsers_answer_like_the_whole_tree():
    tree, leaves = cli._build_parser()
    commands = [list(names) for names in leaves] + [["fan"], ["fan", "chec"], ["fan", "--", "check"]]
    assert len(leaves) == 13
    for head, command, tail in itertools.product(HEADS, commands, TAILS):
        argv = head + command + tail
        assert _parsed(cli._parse_args, argv) == _parsed(tree.parse_args, argv), argv


def test_well_formed_commands_skip_the_tree(tmp_path, count_calls):
    tree, _ = cli._build_parser()
    calls = count_calls("parse_args", tree)
    assert all(_run(argv)[0] == 0 for argv in _commands(tmp_path))
    assert calls == []
    argv = ["fan", "check", "x.fan", "--frobnicate"]
    code, _, err = _run(argv)
    assert code == ("SystemExit", 2) and "unrecognized arguments: --frobnicate" in err and [c.args for c in calls] == [(argv,)]


def test_main_without_argv_reads_sys_argv(monkeypatch):
    for triple in ("1,2,5", "2,5,29"):
        argv = ["--json-lines", "markov", "adjacent", "--triple", triple]
        monkeypatch.setattr(sys, "argv", ["toriclab"] + argv)
        got = _run(None)
        assert got == _run(argv) and triple.replace(",", ", ") in got[1]
