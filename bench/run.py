"""toriclab benchmark: seeded closed-loop workloads with checked verdicts.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, times fresh-interpreter
set-up, runs the queries in one worker process (bench/worker.py) and checks
every verdict against bench/ref.py, which never imports toriclab.  Prints
the metrics by name and unit, then one JSON object as the last line:
end-to-end metrics with --trace 0, their timings brought to a reference
machine speed (bench/calib.py), or per-layer metrics with --trace 1.
Each result is also appended to .bench_out/results.jsonl for
bench/compare.py.  Exits 1 when a verdict is wrong, 2 when the run cannot
be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calib
import gen
import ref
import ref_cli

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
LAYERS = ("lattice", "fan", "toric", "pairs", "complexity", "polytope", "markov", "casebook", "catalog", "fileformats", "cli")

# cap: per-query time cap in seconds at the reference speed (calib.py);
# probes: extra set-up-only processes (the worker's own set-up is one more
# sample); rounds: rounds generated, more than a run uses; warmup: replay
# one round untimed before the loop; min_queries: the loop runs at least
# this many, so that p90 has ten or more beyond it; on fan-geometry p90
# falls among many query classes of about the same cost, and three rounds
# (255 queries) average them
WORKLOADS = {
    "pair-stream": {"cap": 12.0, "probes": 10, "rounds": 20, "warmup": False, "min_queries": 100},
    "fan-geometry": {"cap": 2.5, "probes": 10, "rounds": 12, "warmup": False, "min_queries": 250},
    "polygon-forms": {"cap": 6.0, "probes": 1, "rounds": 40, "warmup": False, "min_queries": 100},
    "samples-repeat": {"cap": 6.0, "probes": 1, "rounds": 40, "warmup": True, "min_queries": 100},
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "ok_frac": "ratio",
    "completed_frac": "ratio",
    "peak_rss_mb": "MB",
}
WORKER_DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def _spawn(run_dir, workload, trace, probe):
    """Start a worker and return its set-up time, process start to READY,
    and the calibration samples it took meanwhile."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), run_dir, workload, str(trace)]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            proc.wait(timeout=WORKER_DEADLINE_S)
            raise BenchError(f"worker for {workload} did not start (exit code {proc.returncode})")
        samples = json.loads(proc.stdout.readline())
        proc.stdout.read()
        code = proc.wait(timeout=WORKER_DEADLINE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker for {workload} exited with code {code}")
    return setup_s, samples


def _verdict_checker(workload, results, classes):
    """check(query, verdict) -> bool against the independent references,
    memoized over repeated (query, verdict) pairs."""
    if workload == "polygon-forms":
        labels = [ref.polygon_label([tuple(p) for p in P], classes) for P in results["catalog"]]
        if sorted(labels) != [f"R{i:02d}" for i in range(1, 17)]:
            return lambda q, v: False  # the catalog itself is wrong
    reference = ref.pair_verdict if workload == "pair-stream" else ref.fan_geometry_verdict

    def raw(q, v):
        if workload == "samples-repeat":
            return ref_cli.cli_ok(q["argv"], v[0], v[1])
        if workload == "polygon-forms":
            label = v[0] if v[0] in ("not reflexive", None) else labels[v[0]]
            return [label, v[1]] == ref.polygon_verdict(q, classes)
        return v == json.loads(json.dumps(reference(q)))

    memo = {}

    def check(q, v):
        key = json.dumps([q, v], sort_keys=True)
        if key not in memo:
            memo[key] = raw(q, v)
        return memo[key]

    return check


def evaluate(workload, rounds, results, classes):
    """Wrong, error and timeout counts of the timed loop, whether every pass
    (warm-up, loop, untraced replay) was right, and the first wrong verdict."""
    check = _verdict_checker(workload, results, classes)
    counts = {"wrong": 0, "error": 0, "timeout": 0}
    all_right, first_wrong = True, None
    for key in ("warmup", "records", "replay"):
        for r, i, status, _ms, v, _start in results.get(key, ()):
            q, verdict = rounds[r][i], results["verdicts"][v]
            if status == "timeout":
                counts["timeout"] += key == "records"
                continue
            if status == "ok" and check(q, verdict):
                continue
            all_right = False
            first_wrong = first_wrong or (q, verdict)
            if key == "records":
                counts["wrong" if status == "ok" else "error"] += 1
    return counts, all_right, first_wrong


def scaled_ms(records, samples):
    """Query latencies brought to the reference machine speed (calib.py)."""
    return calib.scale_spans([(rec[5], rec[3]) for rec in records], samples)


def scaled_setup_s(setups, loop_samples):
    """Median set-up time, each brought to the reference speed by the
    samples taken during it, or by the timed loop's if it took none (a
    set-up shorter than calib.INTERVAL_S of CPU time)."""
    out = []
    for s, samples in setups:
        kernels = [k for _, k in samples or loop_samples]
        out.append(calib.scale(s * 1000, [k for _, k in samples], kernels) / 1000)
    return statistics.median(out)


def timings(ms, setup_s, completed):
    """The timed end-to-end metrics."""
    return {
        "setup_s": setup_s,
        "query_p50_ms": statistics.median(ms),
        "query_p90_ms": statistics.quantiles(ms, n=10)[8],
        "queries_per_s": completed / (sum(ms) / 1000),
    }


def end_to_end(results, counts, setups, cap):
    """Scaled end-to-end metrics, and the same timings as measured."""
    records = results["records"]
    attempted = len(records)
    completed = sum(1 for rec in records if rec[2] == "ok")
    failed = counts["wrong"] + counts["error"] + counts["timeout"]
    if not results["kernel"]:
        raise BenchError("no calibration samples were taken")
    # a timeout counts as the cap, which is set in reference seconds
    ms = [cap * 1000 if rec[2] == "timeout" else m for rec, m in zip(records, scaled_ms(records, results["kernel"]))]
    out = timings(ms, scaled_setup_s(setups, results["kernel"]), completed)
    out.update(
        {
            "ok_frac": 1 - failed / attempted,
            "completed_frac": 1 - counts["timeout"] / attempted,
            "peak_rss_mb": results["peak_rss_mb"],
        }
    )
    raw = timings([rec[3] for rec in records], statistics.median(s for s, _ in setups), completed)
    raw["kernel_ms"] = statistics.median(k for _, k in results["kernel"])
    return out, raw


def per_layer(results):
    out = dict(results["layers"])
    scaled = {key: scaled_ms(results[key], results["kernel"]) for key in ("records", "replay")}
    traced = {(rec[0], rec[1]): ms for rec, ms in zip(results["records"], scaled["records"]) if rec[2] == "ok"}
    plain = {(rec[0], rec[1]): ms for rec, ms in zip(results["replay"], scaled["replay"]) if rec[2] == "ok"}
    both = traced.keys() & plain.keys()
    out["trace.overhead_frac"] = sum(traced[k] for k in both) / max(sum(plain[k] for k in both), 1e-9) - 1
    out.update({f"{m}.src_lines": n for m, n in src_lines().items()})
    return out


def src_lines():
    out = {}
    for m in LAYERS:
        with open(os.path.join(SRC, "toriclab", f"{m}.py"), encoding="utf-8") as fh:
            out[m] = sum(1 for _ in fh)
    return out


def meta(seed):
    digest = hashlib.sha256()
    for m in sorted(os.listdir(os.path.join(SRC, "toriclab"))):
        if m.endswith(".py"):
            with open(os.path.join(SRC, "toriclab", m), "rb") as fh:
                digest.update(m.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "src_lines": src_lines(),
    }


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("src_lines"):
        return "lines"
    if name.endswith(("_frac", "_per_call", "_per_normal_form")):
        return "ratio"
    return "count"


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "toriclab", "__init__.py")):
        raise BenchError(f"no toriclab sources under {SRC}")
    cfg = WORKLOADS[workload]
    run_dir = os.path.join(ROOT, ".bench_run", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        classes = ref.reflexive_classes() if workload == "polygon-forms" else None
        rounds = gen.rounds(workload, seed, cfg["rounds"], os.path.join(ROOT, "samples"), run_dir, classes)
        warmup = rounds[0] if cfg["warmup"] else None
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json")
        spec = {
            "rounds": rounds,
            "seconds": seconds,
            "cap": cfg["cap"],
            "warmup": warmup,
            "min_queries": cfg["min_queries"],
            "spans_path": spans_path,
        }
        with open(os.path.join(run_dir, "inputs.json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        setups = []
        if not trace:
            setups = [_spawn(run_dir, workload, 0, probe=True) for _ in range(cfg["probes"])]
        setups.append(_spawn(run_dir, workload, int(trace), probe=False))
        with open(os.path.join(run_dir, "results.json"), encoding="utf-8") as fh:
            results = json.load(fh)
        counts, all_right, first_wrong = evaluate(workload, rounds, results, classes)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    records = results["records"]
    raw = None
    if trace:
        metrics = per_layer(results)
    else:
        metrics, raw = end_to_end(results, counts, setups, cfg["cap"])
    rounds_run = len({rec[0] for rec in records})
    result = {
        "correct": all_right,
        "attempted": len(records),
        "failed": counts["wrong"] + counts["error"] + counts["timeout"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    info = {
        "rounds": rounds_run,
        "samples": {"setup_s": len(setups), "query": len(records)},
        "cap_s": cfg["cap"],
        "fail_frac": result["failed"] / len(records),
        "timeout_frac": counts["timeout"] / len(records),
        "counts": counts,
        "first_wrong": first_wrong,
        "unscaled": raw,
    }
    return result, info


def report(workload, seed, trace, result, info):
    print(f"workload {workload}  seed {seed}  trace {trace}  rounds {info['rounds']}  cap {info['cap_s']} s")
    print(f"  queries attempted {result['attempted']}  failed {result['failed']}  {info['counts']}")
    if not trace:
        n = info["samples"]
        print(f"  setup_s over {n['setup_s']} fresh interpreters; query timings over {n['query']} queries")
        for name in ("fail_frac", "timeout_frac"):
            print(f"  {name:<40} {info[name]:>14.6g} ratio")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if info["unscaled"] is not None:
        print(f"  unscaled (times as measured; scaled above to a {calib.REF_KERNEL_MS} ms calibration kernel):")
        for name, v in info["unscaled"].items():
            print(f"    {name:<38} {v:>14.6g} {unit_of(name)}")
    if info["first_wrong"] is not None:
        print(f"  first wrong verdict: {json.dumps(info['first_wrong'])[:400]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, info = run(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, args.trace, result, info)
    record = {"workload": args.workload, "trace": args.trace, **result, "meta": meta(args.seed), "info": info}
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
