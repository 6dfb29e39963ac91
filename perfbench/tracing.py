"""Spans around the calls into each chebquad module, recorded from outside.

Every public function (no leading underscore) defined in a package module
is replaced by a timing wrapper under every name it is bound to in the
package.  Modules bind ``from .x import y`` names at import time, so
wrapping only ``x.y`` would miss the calls that other modules make
through their own copy of the name.  Spans stay in memory and are written out when the
pass ends.

A layer is a module.  A span's self time is its duration minus the
durations of its direct children, so a layer's self time excludes the
time spent in the layers it calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("special", "chebcore", "errors", "moments", "rules", "aliasing",
           "analysis", "cli")

# (metric prefix, module, lru_cache attribute)
CACHES = (
    ("moments", "moments", "_jacobi_values"),
    ("moments", "moments", "_log_values"),
    ("rules.weighted", "rules", "_weighted_rule_cached"),
    ("rules.gauss", "rules", "_gauss_legendre_cached"),
    ("analysis.oracle", "analysis", "_oracle"),
)


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1); None while the span is open
        self.spans: list = []
        self._stack: list[int] = []
        self.banded_tables = 0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def _count_banded(self, fn):
        # moments._forward_unstable runs once per table built, on either
        # route; a true result means the table takes the banded solve.
        @functools.wraps(fn)
        def counted(alpha, beta):
            unstable = fn(alpha, beta)
            self.banded_tables += bool(unstable)
            return unstable

        return counted

    def install(self, package: str) -> None:
        modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for module in modules + [importlib.import_module(package)]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        moments = importlib.import_module(f"{package}.moments")
        moments._forward_unstable = self._count_banded(moments._forward_unstable)
        self._caches = [(prefix, getattr(importlib.import_module(f"{package}.{m}"), attr))
                        for prefix, m, attr in CACHES]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")

    def report(self) -> dict:
        """Per-layer metrics of everything recorded since install()."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)   # by span name
        calls = defaultdict(int)      # by span name
        entries = defaultdict(int)    # by layer, calls from another layer
        layer_self = defaultdict(float)
        for (name, start, end, parent), inner in zip(self.spans, child_time):
            layer = name.split(".", 1)[0]
            own = end - start - inner
            self_s[name] += own
            calls[name] += 1
            layer_self[layer] += own
            if parent < 0 or self.spans[parent][0].split(".", 1)[0] != layer:
                entries[layer] += 1

        hits, lookups = defaultdict(int), defaultdict(int)
        for prefix, cache in self._caches:
            info = cache.cache_info()
            hits[prefix] += info.hits
            lookups[prefix] += info.hits + info.misses

        def ratio(prefix):
            return hits[prefix] / lookups[prefix] if lookups[prefix] else 0.0

        metrics = {
            "rules.gauss_s": (self_s["rules.gauss_legendre"], "s"),
            "rules.gauss_builds": (lookups["rules.gauss"] - hits["rules.gauss"], "count"),
            "rules.gauss_lookups": (lookups["rules.gauss"], "count"),
            "rules.gauss_hit_ratio": (ratio("rules.gauss"), "ratio"),
            "rules.weighted_s": (self_s["rules.build_weighted_rule"], "s"),
            "rules.weighted_builds": (lookups["rules.weighted"] - hits["rules.weighted"], "count"),
            "rules.weighted_lookups": (lookups["rules.weighted"], "count"),
            "rules.weighted_hit_ratio": (ratio("rules.weighted"), "ratio"),
            "rules.apply_s": (self_s["rules.apply"], "s"),
            "rules.apply_calls": (calls["rules.apply"], "count"),
            "chebcore.self_s": (layer_self["chebcore"], "s"),
            "moments.self_s": (layer_self["moments"], "s"),
            "moments.tables": (lookups["moments"] - hits["moments"], "count"),
            "moments.banded_tables": (self.banded_tables, "count"),
            "moments.lookups": (lookups["moments"], "count"),
            "moments.hit_ratio": (ratio("moments"), "ratio"),
            "special.self_s": (layer_self["special"], "s"),
            "special.calls": (entries["special"], "count"),
            "analysis.oracle_s": (self_s["analysis.oracle_integral"]
                                  + self_s["analysis.reference_integral"], "s"),
            "analysis.oracle_calls": (calls["analysis.oracle_integral"], "count"),
            "analysis.oracle_hit_ratio": (ratio("analysis.oracle"), "ratio"),
            "analysis.fit_s": (self_s["analysis.fit_slope"]
                               + self_s["analysis.envelope_slope"], "s"),
            "analysis.study_self_s": (sum(self_s[f"analysis.{name}"] for name in (
                "convergence_study", "weight_sum_study", "gauss_open_problem_study",
                "moment_decay_exponent")), "s"),
            "aliasing.self_s": (layer_self["aliasing"], "s"),
            "aliasing.records": (calls["aliasing.alias_error"]
                                 + calls["aliasing.gauss_alias_error"], "count"),
            "cli.self_s": (layer_self["cli"], "s"),
            "trace.self_total_s": (sum(layer_self.values()), "s"),
            "trace.spans": (len(self.spans), "count"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
