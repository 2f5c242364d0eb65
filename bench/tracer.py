"""Per-layer spans recorded from outside the library.

`Tracer.install()` wraps each traced toriclab function and rebinds the
wrapper under every name any loaded toriclab module holds for the
original, so `from toriclab.lattice import rank` bindings and imports made
inside a function body both reach the wrapper; no file under src/ changes.
A span is (name, start, end, parent span, query id); spans stay in memory
and are aggregated, or written out, once the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) of every traced function; "Class.attr" reaches a
# classmethod or cached_property on a class of that module
TRACED = (
    ("lattice", "smith_normal_form"),
    ("lattice", "solve_rational"),
    ("lattice", "solve_integer"),
    ("lattice", "rank"),
    ("fan", "linear_feasible"),
    ("fan", "Cone.facet_data"),
    ("fan", "validate_fan"),
    ("fan", "is_refinement"),
    ("toric", "is_cartier"),
    ("pairs", "singularity_type"),
    ("pairs", "index"),
    ("complexity", "complexity"),
    ("polytope", "Polytope.hull"),
    ("polytope", "unimodular_normal_form"),
    ("polytope", "is_reflexive"),
    ("polytope", "facet_functionals"),
    ("markov", "enumerate_markov"),
    ("casebook", "toric_boundary_suite"),
    ("catalog", "bundled_fans"),
    ("fileformats", "parse_fan"),
    ("fileformats", "parse_pair"),
    ("fileformats", "parse_polytope"),
    ("cli", "main"),
)


def metric_name(module, attr):
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, query id]
        self.stack = []
        self.query = -1
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.query])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "toriclab" or key.startswith("toriclab.")]
        for module_name, attr in TRACED:
            module = sys.modules[f"toriclab.{module_name}"]
            name = metric_name(module_name, attr)
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[member]
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrap(name, orig.__func__))
                else:  # cached_property: trace the computations it caches
                    new = functools.cached_property(self._wrap(name, orig.func))
                    new.__set_name__(cls, member)
                setattr(cls, member, new)
                self._undo.append((cls, member, orig))
                continue
            orig = getattr(module, attr)
            if hasattr(orig, "cache_info"):  # lru_cache: trace the misses
                new = functools.lru_cache(maxsize=orig.cache_parameters()["maxsize"])(self._wrap(name, orig.__wrapped__))
            else:
                new = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, new)
                        self._undo.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def reset(self):
        self.spans.clear()
        self.stack.clear()

    def aggregate(self):
        """name -> {calls, self_ms, max_ms}; plus parent-name counts."""
        stats = {}
        child_time = [0.0] * len(self.spans)
        under = {}
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                key = (self.spans[parent][0], name)
                under[key] = under.get(key, 0) + 1
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "self_ms": 0.0, "max_ms": 0.0, "first_ms": None})
            dur = (end - start) * 1000
            s["calls"] += 1
            s["self_ms"] += dur - child_time[i] * 1000
            s["max_ms"] = max(s["max_ms"], dur)
            if s["first_ms"] is None:
                s["first_ms"] = dur
        return stats, under
