"""Tests of the benchmark itself: tracer coverage, verdict checking, the
time cap, seeding, failure without sources, the compare mode and the
machine-speed scaling.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys
import time

import pytest

import calib
import compare
import gen
import queries
import ref
import run
from tracer import TRACED, Tracer, metric_name
from toriclab import catalog, pairs, polytope, toric

BENCH = run.BENCH
SAMPLES = os.path.join(run.ROOT, "samples")


def _small_inputs(run_dir):
    """One fixed small input per workload: (workload, queries)."""
    pair_round = gen.rounds("pair-stream", 0, 1)[0]
    pair = [q for q in pair_round if q["family"] in ("lc-2d", "lc-3d", "ladder-2d", "denominator")][:12]
    pair += [q for q in pair_round if q["family"] == "p1415" and q["coeffs"] == list(gen.P1415_LADDER[0])]
    geometry = [
        q
        for q in gen.rounds("fan-geometry", 0, 1)[0]
        if q.get("k", 0) <= 8 and len(q.get("points", ())) <= 8 and len(q.get("rays", ())) <= 6
    ]
    polygons = gen.rounds("polygon-forms", 0, 1, classes=ref.reflexive_classes())[0][:10]
    wanted = {
        ("fan", "check", "p2.fan"),
        ("fan", "resolve2d", "wp112.fan"),
        ("fan", "subdivide", "p3.fan"),
        ("pair", "classify", "p3_boundary.pair"),
        ("pair", "discrepancy", "wp112_boundary.pair"),
        ("pair", "pullback", "p2_boundary.pair"),
        ("polytope", "check", "reflexive_05.poly"),
        ("markov", "table", None),
        ("markov", "adjacent", None),
        ("casebook", "segre", None),
        ("casebook", "suite", None),
    }
    cli = []
    for q in gen.samples_commands(SAMPLES, run_dir):
        words = [w for w in q["argv"] if w != "--json-lines"]
        name = os.path.basename(words[2]) if len(words) > 2 and os.sep in words[2] else None
        key = (words[0], words[1], name)
        if key in wanted:
            wanted.discard(key)
            cli.append(q)
    return [("pair-stream", pair), ("fan-geometry", geometry), ("polygon-forms", polygons), ("samples-repeat", cli)]


def _workload_call(workload, qs):
    def call():
        if workload == "polygon-forms":
            classify = queries.PolygonClassifier()
        else:
            classify = queries.make_executor(workload)[1]
        return [classify(q) for q in qs]

    return call


def _reset_caches():
    pairs._psi.cache_clear()
    toric._presentation.cache_clear()
    catalog.bundled_fans.cache_clear()


def _original_codes():
    codes = {}
    for module, attr in TRACED:
        mod = sys.modules[f"toriclab.{module}"]
        if "." in attr:
            cls_name, member = attr.split(".")
            obj = getattr(mod, cls_name).__dict__[member]
            fn = obj.__func__ if isinstance(obj, classmethod) else obj.func
        else:
            fn = getattr(mod, attr)
            fn = getattr(fn, "__wrapped__", fn)
        codes[metric_name(module, attr)] = fn.__code__
    return codes


@pytest.fixture(scope="module")
def warm_enumeration():
    polytope.enumerate_reflexive_polygons()  # untraced cache both sides share


def test_tracer_counts_match_cprofile(tmp_path, warm_enumeration):
    codes = _original_codes()
    for workload, qs in _small_inputs(str(tmp_path)):
        call = _workload_call(workload, qs)

        _reset_caches()
        prof = cProfile.Profile()
        prof.runcall(call)
        by_code = {key: entry[1] for key, entry in pstats.Stats(prof).stats.items()}
        profiled = {name: by_code.get((c.co_filename, c.co_firstlineno, c.co_name), 0) for name, c in codes.items()}

        _reset_caches()
        tracer = Tracer()
        tracer.install()
        try:
            call()
        finally:
            tracer.uninstall()
        stats, _ = tracer.aggregate()
        traced = {name: stats.get(name, {}).get("calls", 0) for name in codes}

        assert traced == profiled, workload
        assert sum(traced.values()) > 0, workload


def test_small_inputs_agree_with_references(tmp_path, warm_enumeration):
    classes = ref.reflexive_classes()
    for workload, qs in _small_inputs(str(tmp_path)):
        verdicts = json.loads(json.dumps(_workload_call(workload, qs)()))
        results = {"catalog": queries.PolygonClassifier().catalog_vertices()}
        check = run._verdict_checker(workload, results, classes)
        assert all(check(q, v) for q, v in zip(qs, verdicts)), workload


def test_wrong_verdict_fails_the_run(monkeypatch, capsys, tmp_path):
    real = ref.fan_geometry_verdict
    seen = []

    def corrupted(q):
        out = real(q)
        if q["kind"] == "fan.is_complete" and not seen:
            seen.append(q)
            return not out
        return out

    monkeypatch.setattr(ref, "fan_geometry_verdict", corrupted)
    monkeypatch.setitem(run.WORKLOADS["fan-geometry"], "probes", 0)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    code = run.main(["--workload", "fan-geometry", "--seed", "7", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert seen
    assert code == 1
    assert result["correct"] is False


def test_12gon_cone_times_out_within_the_cap():
    cap = run.WORKLOADS["fan-geometry"]["cap"]
    script = f"""
import json, resource, signal, sys, time
sys.path[:0] = [{BENCH!r}, {run.SRC!r}]
import calib, gen, queries, worker
signal.signal(signal.SIGALRM, worker._alarm)
sampler = calib.Sampler()
sampler.start()
deadline = time.process_time() + 0.3
while time.process_time() < deadline:
    pass
out = []
for k in (10, 12):
    q = {{"kind": "cone.generators_extremal", "gens": [[x, y, 1] for x, y in gen.KGONS[k]]}}
    wall_cap = {cap} * sampler.slowdown()
    status, _, ms, _ = worker.run_query(queries.fan_geometry_query, q, wall_cap)
    out.append([status, ms, wall_cap * 1000])
sampler.stop()
print(json.dumps([out, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    (ten, twelve), rss_mb = json.loads(proc.stdout)
    assert ten[0] == "ok" and ten[1] < ten[2] / 3  # the slowest finishing rung sits well clear
    assert twelve[0] == "timeout" and twelve[2] <= twelve[1] < twelve[2] + 1000
    assert rss_mb < 200


def test_inputs_follow_the_seed():
    for workload in ("pair-stream", "fan-geometry"):
        assert gen.rounds(workload, 5, 2) == gen.rounds(workload, 5, 2)
        assert gen.rounds(workload, 5, 2) != gen.rounds(workload, 6, 2)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "pair-stream", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_marks_worse_and_unresolved(tmp_path):
    def write(name, p50s):
        path = tmp_path / name
        with open(path, "w", encoding="utf-8") as fh:
            for v in p50s:
                fh.write(json.dumps({"workload": "w", "trace": 0, "metrics": {"query_p50_ms": {"value": v}}}) + "\n")
        return compare.load(path)["w"]["query_p50_ms"]

    metric = {"name": "query_p50_ms", "better": "lower", "bound": 0.15}
    base = write("a.jsonl", [10.0, 10.1, 9.9, 10.0])
    assert compare.verdict(metric, base, write("b.jsonl", [10.2, 10.1, 10.0, 10.3])) == "agree"
    assert compare.verdict(metric, base, write("c.jsonl", [13.0, 13.1, 12.9, 13.0])) == "worse"
    assert compare.verdict(metric, base, write("d.jsonl", [5.0, 15.0, 10.0, 30.0])) == "unresolved"


def test_scaling_takes_out_kernel_time_and_machine_speed():
    ref_ms = calib.REF_KERNEL_MS
    # a slow phase (kernel at twice the reference time), then a fast one
    samples = [[t / 100, 2 * ref_ms] for t in range(100)] + [[10 + t / 100, ref_ms] for t in range(100)]
    slow, fast, lonely = calib.scale_spans([(0.505, 100.0), (10.505, 50.0), (100.0, 10.0)], samples)
    inside = 10 * 2 * ref_ms  # ten samples fall inside the first span
    assert slow == pytest.approx((100.0 - inside) / 2)
    assert fast == pytest.approx(50.0 - 5 * ref_ms)
    # no sample near: the mean of all samples sets the speed
    assert lonely == pytest.approx(10.0 / 1.5)
    records = [[0, 0, "ok", 100.0, 0, 0.505], [0, 1, "ok", 50.0, 1, 10.505]]
    assert run.scaled_ms(records, samples) == [pytest.approx(slow), pytest.approx(fast)]


def test_sampler_times_the_kernel_during_cpu_work():
    sampler = calib.Sampler()
    sampler.start()
    try:
        deadline = time.process_time() + 0.3
        while time.process_time() < deadline:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 5
    assert all(k > 0 for _, k in sampler.samples)
    assert [t for t, _ in sampler.samples] == sorted(t for t, _ in sampler.samples)
