"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

    python3 bench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds result records as bench/run.py appends them to
.bench_out/results.jsonl (untraced runs only are read).  Per workload and
end-to-end metric it prints each side's median over its runs and the
spread, the distance between the first and third quartile as a share of
the median.  With two sets it also prints a verdict:

- unresolved: a side's spread exceeds the metric's bound;
- worse / better: the change's median moved past the bound;
- agree: the medians are within the bound.

With one set it prints the medians and spreads only.  Exits 1 when any
metric is worse.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            for name, m in rec["metrics"].items():
                runs.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
    return runs


def summary(values):
    """(median, spread); spread is 0 for fewer than two values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(metric, base, change):
    (mb, sb), (mc, sc) = summary(base), summary(change)
    bound = metric["bound"]
    if max(sb, sc) > bound:
        return "unresolved"
    worse = (mc - mb) if metric["better"] == "lower" else (mb - mc)
    if worse > bound * abs(mb):
        return "worse"
    if -worse > bound * abs(mb):
        return "better"
    return "agree"


def main(argv):
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    sets = [load(p) for p in argv]
    any_worse = False
    for workload in sorted(set.intersection(*(set(s) for s in sets))):
        print(workload)
        for metric in metrics:
            name = metric["name"]
            cols = []
            for s in sets:
                values = s[workload].get(name, [])
                med, spread = summary(values)
                cols.append(f"median {med:>12.6g}  spread {spread:7.2%} (n={len(values)})")
            line = f"  {name:<16} bound {metric['bound']:5.0%}  " + "  |  ".join(cols)
            if len(sets) == 2:
                v = verdict(metric, sets[0][workload][name], sets[1][workload][name])
                any_worse |= v == "worse"
                line += f"  -> {v}"
            print(line)
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
