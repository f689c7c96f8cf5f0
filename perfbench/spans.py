"""Span tracing of demcorrect's public functions, installed from outside.

``install()`` wraps each function in ``TARGETS`` and rebinds every name
that refers to it in the loaded ``demcorrect`` modules. Rebinding every
importing module matters: ``cli`` binds ``fit_gbdt``, ``save_grid`` and
the rest by name, ``synth`` binds ``terrain.slope``, and the growers and
``build_feature_stack`` call through their own module globals.

Each call records a span ``[name, start, end, parent]``; spans stay in
memory and are summarised when the worker ends. A span's self time is
its duration minus that of its direct child spans. Workers run with one
thread, so one stack of open spans suffices.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from collections import Counter

# (module, attribute) -> span name; a callable name is given the call's
# (args, kwargs) and returns the name.
TARGETS = {
    ("demcorrect.cli", "main"): "cli.main",
    ("demcorrect.gbdt", "best_split"): "gbdt.best_split",
    ("demcorrect.gbdt", "fit_gbdt"): lambda a, k: "gbdt.fit_gbdt." + _arg(a, k, 1, "params").growth,
    ("demcorrect.gbdt", "GbdtModel.predict_rows"): "gbdt.predict_rows",
    ("demcorrect.gbdt", "serialize_model"): "gbdt.serialize_model",
    ("demcorrect.grid", "write_ascii_grid"): "grid.write_ascii_grid",
    ("demcorrect.grid", "read_ascii_grid"): "grid.read_ascii_grid",
    ("demcorrect.grid", "save_grid"): "grid.save_grid",
    ("demcorrect.grid", "load_grid"): "grid.load_grid",
    ("demcorrect.terrain", "build_feature_stack"): "terrain.build_feature_stack",
    ("demcorrect.terrain", "slope"): "terrain.slope",
    ("demcorrect.terrain", "aspect"): "terrain.aspect",
    ("demcorrect.terrain", "roughness"): "terrain.roughness",
    ("demcorrect.terrain", "tpi"): "terrain.tpi",
    ("demcorrect.terrain", "tri"): "terrain.tri",
    ("demcorrect.terrain", "texture"): "terrain.texture",
    ("demcorrect.terrain", "vrm"): "terrain.vrm",
    ("demcorrect.terrain", "focal_fraction"): "terrain.focal_fraction",
    ("demcorrect.linstats", "flag_collinear"): "linstats.flag_collinear",
    ("demcorrect.linstats", "vif"): "linstats.vif",
    ("demcorrect.linstats", "pearson_matrix"): "linstats.pearson_matrix",
    ("demcorrect.linstats", "fit_ols"): "linstats.fit_ols",
    ("demcorrect.sampling", "extract_samples"): "sampling.extract_samples",
    ("demcorrect.sampling", "split_table"): "sampling.split_table",
    ("demcorrect.sampling", "SampleTable.to_csv"): "sampling.to_csv",
    ("demcorrect.synth", "fractal_dem"): "synth.fractal_dem",
    ("demcorrect.synth", "synth_landcover"): "synth.synth_landcover",
    ("demcorrect.synth", "inject_error"): "synth.inject_error",
    ("demcorrect.evaluate", "predict_error_grid"): "evaluate.predict_error_grid",
    ("demcorrect.evaluate", "build_report"): "evaluate.build_report",
    ("demcorrect.evaluate", "apply_correction"): "evaluate.apply_correction",
    ("demcorrect.evaluate", "abs_error_grid"): "evaluate.abs_error_grid",
}

# Functions whose tracemalloc peak is recorded when the tracer traces
# allocations. Only the first call of each span name is measured, because
# tracemalloc slows allocation-heavy code such as split search severalfold.
ALLOC_TRACED = {"build_feature_stack", "fit_gbdt", "predict_error_grid", "write_ascii_grid"}


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_best_split(counts, args, kwargs, result):
    features, node_rows = args[0], _arg(args, kwargs, 2, "node_rows")
    counts["gbdt.best_split.row_features"] += len(node_rows) * features.shape[1]
    counts["gbdt.best_split.accepted"] += result is not None


def _count_fit(counts, args, kwargs, model):
    counts["gbdt.trees"] += len(model.trees)
    counts["gbdt.nodes"] += sum(tree.n_nodes for tree in model.trees)


def _count_predict(counts, args, kwargs, result):
    model, X = args[0], args[1]
    counts["gbdt.predict_rows.row_trees"] += len(X) * len(model.trees)


def _count_load(counts, args, kwargs, result):
    counts["grid.bytes_read"] += os.path.getsize(args[0])


def _count_save(counts, args, kwargs, result):
    counts["grid.bytes_written"] += os.path.getsize(args[1])


def _count_samples(counts, args, kwargs, table):
    counts["sampling.rows"] += len(table)


COUNTERS = {
    "best_split": _count_best_split,
    "fit_gbdt": _count_fit,
    "GbdtModel.predict_rows": _count_predict,
    "load_grid": _count_load,
    "save_grid": _count_save,
    "extract_samples": _count_samples,
}


class Tracer:
    """Records spans, work counters and, optionally, allocation peaks of wrapped calls."""

    def __init__(self, trace_alloc: bool = False):
        self.trace_alloc = trace_alloc
        self.spans: list[list] = []
        self.open: list[int] = []
        self.counts: Counter = Counter()
        self.peak_bytes: dict[str, int] = {}

    def wrap(self, fn, name, count=None, alloc=False):
        spans, open_, counts, peaks = self.spans, self.open, self.counts, self.peak_bytes
        clock = time.perf_counter
        alloc = alloc and self.trace_alloc

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            rec = [span_name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            mem = alloc and span_name not in peaks and not tracemalloc.is_tracing()
            if mem:
                tracemalloc.start()
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
                if mem:
                    peaks[span_name] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return {"spans": out, "counts": dict(self.counts), "peak_alloc_bytes": self.peak_bytes}


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind each name that refers to it."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "demcorrect" or n.startswith("demcorrect."))]
    for (modname, attr), name in TARGETS.items():
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(fn, name, COUNTERS.get(attr), meth in ALLOC_TRACED))
            continue
        fn = getattr(owner, attr)
        wrapped = tracer.wrap(fn, name, COUNTERS.get(attr), attr in ALLOC_TRACED)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
