"""Span recorder for the traced benchmark run, applied from outside the package.

``SpanRecorder`` replaces each public function listed in ``TARGETS`` by a
timing wrapper, at every module attribute where callers look it up (for
example ``classifiers.adaptive_predict``, ``simulation.adaptive_predict`` and
``io_cli.adaptive_predict`` all refer to one function and all get the same
wrapper). Methods and ``SampleSet.__post_init__`` are wrapped on their class.
Spans (op id, name, start, end, parent, count) stay in memory until the run
ends; ``restore`` puts every original attribute back.

``layer_metrics`` turns the spans into the per-layer metrics: self time
(a span's duration minus the time its child spans cover), calls and rows
per op, and the ratios named in ``PER_LAYER``.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from collections import defaultdict


def _bound_arg(fn, name):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        return bound.arguments[name]

    return get


def _rows_of_dataset(ds) -> int:
    if hasattr(ds, "sources"):
        return len(ds.q_data) + sum(len(s) for s in ds.sources)
    if hasattr(ds, "p_data"):
        return len(ds.p_data) + len(ds.q_data)
    return len(ds)


def _adaptive_info(_get, args, kwargs, result):
    _, trace = result
    chosen = int(trace.chosen_step)
    return [trace.stop_step is not None, chosen, len(trace.snr), int(trace.k_p[chosen - 1])]


# (module, attribute, span name, count) where count(get_arg, args, kwargs,
# result) returns the span's count, and get_arg reads the argument named by
# the fifth field. A dotted attribute is a class attribute.
TARGETS = [
    ("core", "SampleSet.__post_init__", "core.SampleSet", None, None),
    ("core", "pooled_sample_set", "core.pooled_sample_set", None, None),
    ("core", "RandomSource.generator", "core.RandomSource.generator", None, None),
    ("neighbors", "merged_order", "neighbors.merged_order",
     lambda _g, _a, _k, r: len(r), None),
    ("neighbors", "NeighborIndex.sorted_order", "neighbors.NeighborIndex.sorted_order",
     None, None),
    ("neighbors", "NeighborIndex.query", "neighbors.NeighborIndex.query", None, None),
    ("neighbors", "NeighborIndex.query_batch", "neighbors.NeighborIndex.query_batch",
     lambda g, a, k, _r: len(g(a, k)), "xs"),
    ("classifiers", "adaptive_predict", "classifiers.adaptive_predict", _adaptive_info, None),
    ("classifiers", "lepski_predict", "classifiers.lepski_predict", None, None),
    ("classifiers", "weighted_knn_predict", "classifiers.weighted_knn_predict", None, None),
    ("simulation", "sample_dataset", "simulation.sample_dataset", None, None),
    ("simulation", "sample_test_points", "simulation.sample_test_points", None, None),
    ("simulation", "excess_risk_mc", "simulation.excess_risk_mc",
     lambda g, a, k, _r: int(g(a, k)), "n_mc"),
    ("simulation", "FittedMethod.predict_batch", "simulation.FittedMethod.predict_batch",
     lambda g, a, k, _r: len(g(a, k)), "pts"),
    ("simulation", "run_accuracy_experiment", "simulation.run_accuracy_experiment",
     None, None),
    ("simulation", "rate_exponent_check", "simulation.rate_exponent_check", None, None),
    ("io_cli", "read_labeled_csv", "io_cli.read_labeled_csv",
     lambda _g, _a, _k, r: _rows_of_dataset(r), None),
    ("io_cli", "read_points_csv", "io_cli.read_points_csv", None, None),
    ("io_cli", "write_aggregate_csv", "io_cli.write_aggregate_csv", None, None),
    ("io_cli", "write_records_csv", "io_cli.write_records_csv", None, None),
    ("io_cli", "write_manifest", "io_cli.write_manifest", None, None),
    ("io_cli", "run_cli", "io_cli.run_cli", None, None),
]

_LAYER_MODULES = ("core", "neighbors", "classifiers", "simulation", "io_cli")


class SpanRecorder:
    """Wraps the TARGETS of a loaded driftknn package and records spans.

    Use as a context manager. Every span with no parent (one op's
    ``io_cli.run_cli``) starts a new op id; its child spans share that id.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count, get):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            if not stack:
                self.op_id += 1
            rec = [self.op_id, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                rec[2] = t0
                stack.pop()
            if count is not None:
                rec[5] = count(get, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "SpanRecorder":
        modules = [self.package] + [getattr(self.package, m) for m in _LAYER_MODULES]
        for mod_name, attr, name, count, arg in TARGETS:
            owner = getattr(self.package, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                get = _bound_arg(orig, arg) if arg else None
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, count, get))
                continue
            orig = getattr(owner, attr)
            get = _bound_arg(orig, arg) if arg else None
            wrapper = self._wrap(orig, name, count, get)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        return self

    def restore(self) -> None:
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def write(self, path) -> None:
        """Write the spans as JSON lines: op, name, start, end, parent, count."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# Per-layer metrics reported by the traced run, with units. Times and
# counts are per op of the traced pass.
PER_LAYER = [
    ("core.SampleSet.self_ms", "ms/op"),
    ("core.SampleSet.calls", "calls/op"),
    ("core.pooled_sample_set.self_ms", "ms/op"),
    ("core.RandomSource.generator.self_ms", "ms/op"),
    ("core.RandomSource.generator.calls", "calls/op"),
    ("simulation.sample_dataset.self_ms", "ms/op"),
    ("simulation.sample_test_points.self_ms", "ms/op"),
    ("simulation.excess_risk_mc.self_ms", "ms/op"),
    ("simulation.excess_risk_mc.live_frac", "ratio"),
    ("simulation.FittedMethod.predict_batch.self_ms", "ms/op"),
    ("simulation.run_accuracy_experiment.self_ms", "ms/op"),
    ("simulation.rate_exponent_check.self_ms", "ms/op"),
    ("neighbors.merged_order.self_ms", "ms/op"),
    ("neighbors.merged_order.calls", "calls/op"),
    ("neighbors.merged_order.rows", "rows/op"),
    ("neighbors.NeighborIndex.sorted_order.self_ms", "ms/op"),
    ("neighbors.NeighborIndex.sorted_order.calls", "calls/op"),
    ("neighbors.NeighborIndex.query.self_ms", "ms/op"),
    ("neighbors.NeighborIndex.query.calls", "calls/op"),
    ("neighbors.NeighborIndex.query_batch.self_ms", "ms/op"),
    ("neighbors.NeighborIndex.query_batch.rows", "rows/op"),
    ("neighbors.query_batch.reroute_frac", "ratio"),
    ("classifiers.adaptive_predict.self_ms", "ms/op"),
    ("classifiers.adaptive_predict.calls", "calls/op"),
    ("classifiers.adaptive.stop_frac", "ratio"),
    ("classifiers.adaptive.chosen_k_frac", "ratio"),
    ("classifiers.adaptive.source_share", "ratio"),
    ("classifiers.lepski_predict.self_ms", "ms/op"),
    ("classifiers.lepski_predict.calls", "calls/op"),
    ("classifiers.weighted_knn_predict.self_ms", "ms/op"),
    ("classifiers.weighted_knn_predict.calls", "calls/op"),
    ("io_cli.read_labeled_csv.self_ms", "ms/op"),
    ("io_cli.read_labeled_csv.rows", "rows/op"),
    ("io_cli.read_points_csv.self_ms", "ms/op"),
    ("io_cli.write_aggregate_csv.self_ms", "ms/op"),
    ("io_cli.write_records_csv.self_ms", "ms/op"),
    ("io_cli.write_manifest.self_ms", "ms/op"),
    ("io_cli.run_cli.self_ms", "ms/op"),
    ("trace_overhead_frac", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer values (all of PER_LAYER except trace_overhead_frac)."""
    child_s = [0.0] * len(spans)
    for _op, _name, t0, t1, parent, _info in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    reroutes = live_rows = 0
    adaptive = []
    for i, (_op, name, t0, t1, parent, info) in enumerate(spans):
        self_s[name] += t1 - t0 - child_s[i]
        calls[name] += 1
        parent_name = spans[parent][1] if parent >= 0 else None
        if name == "classifiers.adaptive_predict":
            if info is not None:
                adaptive.append(info)
        elif isinstance(info, int):
            counts[name] += info
        if name == "neighbors.NeighborIndex.query" and \
                parent_name == "neighbors.NeighborIndex.query_batch":
            reroutes += 1
        if name == "simulation.FittedMethod.predict_batch" and \
                parent_name == "simulation.excess_risk_mc":
            live_rows += info or 0
    n_ops = max(n_ops, 1)
    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if field == "self_ms":
            out[metric] = self_s.get(span, 0.0) * 1e3 / n_ops
        elif field == "calls":
            out[metric] = calls.get(span, 0) / n_ops
        elif field == "rows":
            out[metric] = counts.get(span, 0) / n_ops
    out["simulation.excess_risk_mc.live_frac"] = _ratio(
        live_rows, counts.get("simulation.excess_risk_mc", 0))
    out["neighbors.query_batch.reroute_frac"] = _ratio(
        reroutes, counts.get("neighbors.NeighborIndex.query_batch", 0))
    if adaptive:
        out["classifiers.adaptive.stop_frac"] = sum(a[0] for a in adaptive) / len(adaptive)
        out["classifiers.adaptive.chosen_k_frac"] = statistics.median(
            a[1] / a[2] for a in adaptive)
        out["classifiers.adaptive.source_share"] = statistics.median(
            a[3] / a[1] for a in adaptive)
    else:
        out["classifiers.adaptive.stop_frac"] = 0.0
        out["classifiers.adaptive.chosen_k_frac"] = 0.0
        out["classifiers.adaptive.source_share"] = 0.0
    return out
