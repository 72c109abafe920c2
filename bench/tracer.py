"""Spans and counters recorded around the public functions of each layer.

The wrappers are installed from outside the library, on freshly imported
modules, and only for traced iterations; untraced iterations run the
library untouched. A span records its name, start, end, parent span and
job; self time is a span's duration minus the time its child spans cover.
Functions called millions of times (element arithmetic, word carriers)
only count calls, because timing them would cost more than they do.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path, kind). A "span" is timed and
# counted; a "count" is only counted. Module-level functions are replaced
# in every quadalg module that imported them by name.
LAYER_TARGETS = (
    ("abelian.solve_integer", "abelian", "solve_integer", "span"),
    ("abelian.smith", "abelian", "smith", "span"),
    ("abelian.homology_at", "abelian", "homology_at", "span"),
    ("abelian.quotient_presentation", "abelian", "quotient_presentation", "span"),
    ("abelian.matmul", "abelian", "matmul", "span"),
    ("abelian.AbMap.is_zero_map", "abelian", "AbMap.is_zero_map", "span"),
    ("abelian.FgAbGroup.reduce", "abelian", "FgAbGroup.reduce", "count"),
    ("abelian.FgAbGroup.add", "abelian", "FgAbGroup.add", "count"),
    ("abelian.FgAbGroup.sample", "abelian", "FgAbGroup.sample", "count"),
    ("bwcoh.composable_tuples", "bwcoh", "FinCat.composable_tuples", "span"),
    ("bwcoh.map_for", "bwcoh", "NatSystem.map_for", "span"),
    ("bwcoh.cohomology", "bwcoh", "cohomology", "span"),
    ("bwcoh.class_of", "bwcoh", "CohomologyResult.class_of", "span"),
    ("bwcoh.coboundary", "bwcoh", "coboundary", "span"),
    ("bwcoh.bar_cohomology", "bwcoh", "bar_cohomology", "span"),
    ("nil2.FreeNil2Carrier.make", "nil2", "FreeNil2Carrier.make", "count"),
    ("nil2.FreeNil2Carrier.add", "nil2", "FreeNil2Carrier.add", "count"),
    ("nil2.FreePairsCarrier.make", "nil2", "FreePairsCarrier.make", "count"),
    ("sqring.verify_ring", "sqring", "verify_ring", "span"),
    ("crossed.verify_crossed", "crossed", "verify_crossed", "span"),
    ("crossed.ztilde_construction", "crossed", "ztilde_construction", "span"),
    ("modq.modq_compose", "modq", "modq_compose", "span"),
    ("modq.composition_report", "modq", "composition_report", "span"),
    ("modq.obstruction_cocycle", "modq", "obstruction_cocycle", "span"),
    ("modq.ModQTrackExtension.first_track", "modq", "ModQTrackExtension.first_track", "span"),
    ("modq.ModQTrackExtension.vcomp", "modq", "ModQTrackExtension.vcomp", "span"),
    ("modq.ModQTrackExtension.left_whisker", "modq", "ModQTrackExtension.left_whisker", "span"),
    ("modq.ModQTrackExtension.right_whisker", "modq", "ModQTrackExtension.right_whisker", "span"),
    ("modq.ModQTrackExtension.value", "modq", "ModQTrackExtension.value", "span"),
)

# Exact sizes taken from a call's arguments or result: metric -> (stat,
# function of (args, result)). A stat named max_* keeps the maximum, any
# other stat the sum.
SIZE_STATS = {
    "abelian.smith": ("max_dim", lambda a, r: max(len(a[0]), len(a[0][0]) if a[0] else 0)),
    "abelian.quotient_presentation": ("max_n", lambda a, r: a[0]),
    "bwcoh.composable_tuples": ("chains", lambda a, r: len(r)),
    "modq.obstruction_cocycle": ("nonzero", lambda a, r: len(r)),
}


def _compose_mode(args, kwargs) -> str:
    return kwargs.get("mode", args[2] if len(args) > 2 else "closed")


# Spans whose metric name depends on an argument.
SPLIT_BY = {"modq.modq_compose": _compose_mode}


def span_names() -> list[str]:
    """Every span name the tracer can report, split names included."""
    names = []
    for metric, _module, _attr, kind in LAYER_TARGETS:
        if kind != "span":
            continue
        if metric in SPLIT_BY:
            names += [f"{metric}.closed", f"{metric}.oracle"]
        else:
            names.append(metric)
    return names


def layer_metric_names() -> list[str]:
    """Per-layer metrics derived from wrappers, without job and size metrics."""
    names = []
    for metric in span_names():
        names += [f"{metric}.calls", f"{metric}.s"]
    for metric, _module, _attr, kind in LAYER_TARGETS:
        if kind == "count":
            names.append(f"{metric}.calls")
    for metric, (stat, _fn) in SIZE_STATS.items():
        names.append(f"{metric}.{stat}")
    return names


class Tracer:
    """Spans kept in memory for one iteration, written out at exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, int] = defaultdict(int)
        self.job_calls: dict[tuple, int] = defaultdict(int)
        self.job: str | None = None
        self._stack: list[list] = []
        self._next_id = 0

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((sid, parent, name, self.job, start, end))
        self.calls[name] += 1
        self.job_calls[(self.job, name)] += 1
        self.self_s[name] += duration - child

    def reset(self) -> None:
        """Forget earlier iterations. Only the last traced iteration's spans
        are written out: a modq iteration alone records about 100,000."""
        self.spans.clear()
        self.calls.clear()
        self.job_calls.clear()
        self.self_s.clear()
        self.sizes.clear()

    def install(self, q) -> None:
        """Wrap the layer targets in the modules of namespace ``q``."""
        modules = [m for n, m in sys.modules.items() if n == "quadalg" or n.startswith("quadalg.")]
        for metric, module, attr, kind in LAYER_TARGETS:
            owner = getattr(q, module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            wrapper = self._span(metric, original) if kind == "span" else self._count(metric, original)
            if path:
                setattr(owner, name, wrapper)
                continue
            for mod in modules:
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)

    def _count(self, metric: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, metric: str, fn):
        split = SPLIT_BY.get(metric)
        size = SIZE_STATS.get(metric)
        sizes = self.sizes

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self.begin(f"{metric}.{split(args, kwargs)}" if split else metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if size:
                stat, measure = size
                key, value = f"{metric}.{stat}", measure(args, result)
                sizes[key] = max(sizes[key], value) if stat.startswith("max_") else sizes[key] + value
            return result

        return spanned

    def layer_values(self) -> dict[str, float]:
        """Aggregates since the last reset, under the per-layer metric names."""
        out = {}
        for name in layer_metric_names():
            base, stat = name.rsplit(".", 1)
            if stat == "calls":
                out[name] = self.calls.get(base, 0)
            elif stat == "s":
                out[name] = self.self_s.get(base, 0.0)
            else:
                out[name] = self.sizes.get(name, 0)
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, name, job, start, end in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name, "job": job, "start": start, "end": end},
                    separators=(",", ":"),
                ) + "\n")
