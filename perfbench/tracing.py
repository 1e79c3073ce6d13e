"""Span tracing of curveclust from outside the package.

Each traced callee is replaced, for the duration of a traced repetition, by a
wrapper bound to the *caller's* module namespace (``pipeline.update_all``,
``similarity.optimize_warping``, ``warping.minimize``, ...).  The package code
is not modified; the originals are put back when the ``Tracer`` is closed.

A span records its name, layer, start, end and parent.  A layer's self time is
the time its spans cover minus the time covered by their child spans.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

# The layers whose self time is reported as a share of the traced total.
SHARE_LAYERS = ("warping", "similarity", "updating", "combining", "indices", "pipeline")

# Per-layer metrics that are counts: they must repeat exactly between two
# traced repetitions of the same inputs.
COUNT_METRICS = (
    "warping.optimize_calls",
    "warping.nm_runs",
    "warping.nm_evals",
    "warping.rescore_calls",
    "similarity.matrix_calls",
    "similarity.pairs_requested",
    "similarity.pairs_optimized",
    "updating.update_all_calls",
    "updating.update_curve_calls",
    "updating.unchanged_ratio",
    "combining.groups_combined",
    "indices.index_calls",
    "pipeline.iterations",
    "pipeline.idle_iteration_ratio",
    "pipeline.candidates",
)


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "info")

    def __init__(self, name, layer, parent, start):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = start
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _pairs_requested(args, kwargs, result):
    n = len(args[0])
    return n * (n - 1) // 2


def _nfev(args, kwargs, result):
    return int(result.nfev)


def _unchanged(args, kwargs, result):
    return result is args[0].target


def _run_logs(args, kwargs, result):
    logs = [entry for log in result.logs.values() for entry in log]
    return {
        "iterations": len(logs),
        "idle": sum(1 for entry in logs if entry.combinations == 0),
        "candidates": len(result.candidates),
    }


# (caller module, callee name, layer, span name, info recorder)
TARGETS = (
    ("pipeline", "similarity_matrix", "similarity", "similarity.matrix", _pairs_requested),
    ("pipeline", "update_all", "updating", "updating.update_all", None),
    ("pipeline", "assign_groups", "combining", "combining.assign", None),
    ("pipeline", "candidate_partition", "combining", "combining.candidate", None),
    ("pipeline", "combine_group", "combining", "combining.combine", None),
    ("pipeline", "distances_from_similarity", "indices", "indices.distances", None),
    ("pipeline", "index_function", None, None, None),  # wraps what it returns
    ("similarity", "optimize_warping", "warping", "warping.optimize", None),
    ("warping", "minimize", "warping", "warping.nm", _nfev),
    ("warping", "make_warping", "warping", "warping.make_warping", None),
    ("warping", "rho_parts", "warping", "warping.rho_parts", None),
    ("updating", "update_curve", "updating", "updating.update_curve", _unchanged),
    ("cli", "run", "pipeline", "pipeline.run", _run_logs),
    ("cli", "read_curves_csv", "io", "io.read", None),
    ("cli", "prepare_curves", "curves", "curves.prepare", None),
    ("cli", "result_json", "io", "io.write", None),
)


class Tracer:
    """Records spans in memory while installed; ``close()`` restores the
    package.  ``wrap()`` also makes the benchmark's own root spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        for module_name, attr, layer, name, info in TARGETS:
            # curveclust/__init__.py re-exports the function `similarity`, so
            # the module must come from importlib, not attribute access
            module = importlib.import_module(f"curveclust.{module_name}")
            original = getattr(module, attr)
            if attr == "index_function":
                wrapped = self._wrap_factory(original)
            else:
                wrapped = self.wrap(name, layer, original, info)
            self._restore.append((module, attr, original))
            setattr(module, attr, wrapped)

    def close(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _open(self, name, layer):
        span = Span(name, layer, self._stack[-1] if self._stack else None, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _shut(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, layer, fn, info=None):
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._shut(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def _wrap_factory(self, factory):
        def traced_factory(*args, **kwargs):
            return self.wrap("indices.index", "indices", factory(*args, **kwargs))

        return traced_factory


def layer_metrics(spans) -> dict:
    """Per-layer metrics (see BENCHMARK.json ``per_layer``) from one traced
    repetition's spans."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[id(span.parent)] += span.duration
    by_name = defaultdict(list)
    self_by_layer = defaultdict(float)
    total = 0.0
    for span in spans:
        by_name[span.name].append(span)
        self_by_layer[span.layer] += span.duration - child_time[id(span)]
        if span.parent is None:
            total += span.duration

    def count(name):
        return len(by_name[name])

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def self_time(name):
        return sum(s.duration - child_time[id(s)] for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    nm_evals = sum(s.info for s in by_name["warping.nm"])
    # a matrix build requests all its pairs; a direct similarity() op, one
    pairs_requested = sum(s.info for s in by_name["similarity.matrix"]) + count(
        "similarity.similarity"
    )
    pairs_optimized = count("warping.optimize")
    updates = by_name["updating.update_curve"]
    runs = [s.info for s in by_name["pipeline.run"]]
    iterations = sum(r["iterations"] for r in runs)

    metrics = {
        "warping.optimize_calls": count("warping.optimize"),
        "warping.nm_runs": count("warping.nm"),
        "warping.nm_evals": nm_evals,
        "warping.nm_s": busy("warping.nm"),
        "warping.eval_us": 1e6 * ratio(busy("warping.nm"), nm_evals),
        "warping.rescore_calls": count("warping.rho_parts"),
        "warping.rescore_s": busy("warping.rho_parts") + busy("warping.make_warping"),
        "warping.optimize_self_s": self_time("warping.optimize"),
        "similarity.matrix_calls": count("similarity.matrix"),
        "similarity.pairs_requested": pairs_requested,
        "similarity.pairs_optimized": pairs_optimized,
        "similarity.cache_hit_ratio": ratio(pairs_requested - pairs_optimized, pairs_requested),
        "similarity.matrix_self_s": self_time("similarity.matrix"),
        "updating.update_all_calls": count("updating.update_all"),
        "updating.update_all_s": busy("updating.update_all"),
        "updating.update_curve_calls": len(updates),
        "updating.update_curve_s_p50": (
            statistics.median(s.duration for s in updates) if updates else 0.0
        ),
        "updating.unchanged_ratio": ratio(sum(1 for s in updates if s.info), len(updates)),
        "combining.assign_s": busy("combining.assign"),
        "combining.candidate_s": busy("combining.candidate"),
        "combining.combine_s": busy("combining.combine"),
        "combining.groups_combined": count("combining.combine"),
        "indices.index_calls": count("indices.index"),
        "indices.index_s": busy("indices.index"),
        "indices.distances_s": busy("indices.distances"),
        "pipeline.iterations": iterations,
        "pipeline.idle_iteration_ratio": ratio(sum(r["idle"] for r in runs), iterations),
        "pipeline.candidates": sum(r["candidates"] for r in runs),
        "pipeline.run_self_s": self_time("pipeline.run"),
        "curves.prepare_s": busy("curves.prepare"),
        "io.read_s": busy("io.read"),
        "io.write_s": busy("io.write"),
        "trace.spans": len(spans),
        "trace.traced_s": total,
    }
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = ratio(self_by_layer[layer], total)
    return metrics
