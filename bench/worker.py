"""The workload process: one client, one thread, closed loop.

    python3 bench/worker.py RUN_DIR WORKLOAD TRACE [--probe]

Imports toriclab and loads what the workload needs, prints READY (the
parent times fresh interpreter to this line as set-up) and the
calibration samples taken so far (bench/calib.py) as one JSON line, then
reads RUN_DIR/inputs.json and runs whole rounds of queries, each under a
per-query time cap set with signal.setitimer, until the run time is used.
The calibration sampler runs throughout, traced or not, so the cap and
the scaling act alike in both.
Verdicts, latencies, peak RSS, calibration samples and, with TRACE=1,
per-layer metrics go to RUN_DIR/results.json.  With --probe it exits
right after set-up.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time

from calib import Sampler
from tracer import TRACED, Tracer, metric_name


class QueryTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise QueryTimeout()


def run_query(execute, q, cap):
    """(status, start time, elapsed ms, verdict) for one query under the
    time cap."""
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            verdict = execute(q)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok"
    except QueryTimeout:
        status, verdict = "timeout", None
    except Exception as e:  # a library exception is a failed query, not a crash
        status, verdict = "error", f"{type(e).__name__}: {e}"
    return status, start, (time.perf_counter() - start) * 1000, verdict


def run_rounds(execute, rounds, seconds, cap, verdicts, sampler, tracer=None, limit=None, min_queries=0):
    """Run whole rounds until `seconds` have passed and `min_queries` are
    done, or until `limit` queries, and return their records.
    `cap` is in seconds at the reference speed, so a query that times out
    has done the same work however fast the machine runs.  A record is
    [round, query, status, ms, verdict, start]: the verdict as its index in
    `verdicts` (JSON text -> index), so repeated answers are kept once and
    memory stays flat over a long run; the start as time.perf_counter()."""
    records = []
    start = time.perf_counter()
    for r, queries in enumerate(rounds):
        for i, q in enumerate(queries):
            if limit is not None and len(records) >= limit:
                return records
            if tracer is not None:
                tracer.query = len(records)
            status, t, ms, verdict = run_query(execute, q, cap * sampler.slowdown())
            records.append([r, i, status, ms, verdicts.setdefault(json.dumps(verdict), len(verdicts)), t])
        if limit is None and time.perf_counter() - start >= seconds and len(records) >= min_queries:
            break
    return records


def _clear_caches():
    from toriclab import pairs, toric

    pairs._psi.cache_clear()
    toric._presentation.cache_clear()


def _cache_counts():
    from toriclab import pairs, toric

    out = {}
    for name, fn in (("toric.presentation_cache", toric._presentation), ("pairs.psi_cache", pairs._psi)):
        info = fn.cache_info()
        out[name] = (info.hits, info.misses, info.currsize)
    return out


def layer_metrics(tracer, before, after, cold_ms):
    stats, under = tracer.aggregate()
    out = {}
    for module, attr in TRACED:
        name = metric_name(module, attr)
        s = stats.get(name, {"calls": 0, "self_ms": 0.0, "max_ms": 0.0})
        if name == "catalog.bundled_fans":
            continue  # reported as its cold set-up call below
        out[f"{name}.calls"] = s["calls"]
        if name != "polytope.hull":
            out[f"{name}.self_ms"] = s["self_ms"]
            out[f"{name}.max_ms"] = s["max_ms"]
    for name in before:
        out[f"{name}.hits"] = after[name][0] - before[name][0]
        out[f"{name}.misses"] = after[name][1] - before[name][1]
        out[f"{name}.size"] = after[name][2]
    index_calls = stats.get("pairs.index", {}).get("calls", 0)
    nf_calls = stats.get("polytope.unimodular_normal_form", {}).get("calls", 0)
    out["pairs.index.cartier_calls_per_call"] = under.get(("pairs.index", "toric.is_cartier"), 0) / max(index_calls, 1)
    out["polytope.hull_per_normal_form"] = under.get(("polytope.unimodular_normal_form", "polytope.hull"), 0) / max(
        nf_calls, 1
    )
    out["catalog.bundled_fans.cold_ms"] = cold_ms
    return out


def main(argv):
    run_dir, workload, trace = argv[0], argv[1], argv[2] == "1"
    sampler = Sampler()
    sampler.start()
    import queries

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    setup, execute = queries.make_executor(workload)
    print("READY", flush=True)
    print(json.dumps(sampler.samples), flush=True)  # the set-up's samples
    if "--probe" in argv:
        sampler.stop()
        return 0
    with open(os.path.join(run_dir, "inputs.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    signal.signal(signal.SIGALRM, _alarm)
    rounds, seconds, cap = spec["rounds"], spec["seconds"], spec["cap"]
    out = {}
    verdicts = {}
    if setup is not None:
        out["catalog"] = setup.catalog_vertices()
    cold_ms = 0.0
    if tracer is not None:
        stats, _ = tracer.aggregate()
        cold_ms = stats.get("catalog.bundled_fans", {}).get("first_ms") or 0.0
    _clear_caches()
    if spec["warmup"]:
        out["warmup"] = run_rounds(execute, [spec["warmup"]], 0, cap, verdicts, sampler)
    if tracer is not None:
        tracer.reset()
    before = _cache_counts()
    out["records"] = run_rounds(
        execute, rounds, seconds, cap, verdicts, sampler, tracer, min_queries=spec["min_queries"]
    )
    if tracer is not None:
        after = _cache_counts()
        out["layers"] = layer_metrics(tracer, before, after, cold_ms)
        tracer.uninstall()
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        # the same queries untraced, from the same cache state, give the
        # tracing overhead
        _clear_caches()
        if spec["warmup"]:
            run_rounds(execute, [spec["warmup"]], 0, cap, verdicts, sampler)
        out["replay"] = run_rounds(execute, rounds, seconds, cap, verdicts, sampler, limit=len(out["records"]))
    sampler.stop()
    out["kernel"] = sampler.samples
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["verdicts"] = [json.loads(v) for v in verdicts]
    with open(os.path.join(run_dir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
