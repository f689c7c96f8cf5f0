"""The benchmark's work counters repeat exactly, and its metric names match BENCHMARK.json.

Each workload runs once, traced, on a 65x65 landscape with 5 trees so the
test stays quick. A traced run makes two traced pipeline runs in separate
processes (spans only, then spans with tracemalloc); their work counters
must be identical.
"""

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

import run as bench  # noqa: E402

SPEC = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(bench.WORKLOADS))
def traced_run(request):
    name = request.param
    small = dataclasses.replace(bench.WORKLOADS[name], size_exponent=6, rate=0.5, n_trees=5)
    work = bench.WORK / f"test-{name}"
    shutil.rmtree(bench.ROOT / work, ignore_errors=True)
    (bench.ROOT / work).mkdir(parents=True)
    saved = bench.WORKLOADS[name]
    bench.WORKLOADS[name] = small
    try:
        iterations = bench.run(name, seed=3, seconds=0, trace=True, work=work)
    finally:
        bench.WORKLOADS[name] = saved
        bench.remove_work(work)
    assert all(it["completed"] for it in iterations), [it["problems"] for it in iterations]
    return name, iterations


def test_work_counters_repeat_across_traced_runs(traced_run):
    name, iterations = traced_run
    first, second = (bench.work_counters(it) for it in iterations if it["mode"] != bench.UNTRACED)
    assert first == second
    assert first["sampling.rows"] > 0
    assert first["terrain.slope.calls"] > 0
    if name == "steps-rw":
        assert first["gbdt.best_split.calls"] == 0 and first["gbdt.trees"] == 0
        assert first["grid.read_ascii_grid.calls"] > 0
    else:
        assert first["gbdt.best_split.calls"] > 0 and first["gbdt.trees"] > 0
        assert first["grid.read_ascii_grid.calls"] == 0


def test_outputs_repeat_across_iterations(traced_run):
    _, iterations = traced_run
    digests = [it["digests"] for it in iterations]
    assert digests[0] and all(d == digests[0] for d in digests)


def test_metric_names_match_benchmark_json(traced_run):
    _, iterations = traced_run
    by_mode = {it["mode"]: it for it in iterations}
    layers = bench.per_layer(by_mode)
    e2e = bench.end_to_end([by_mode[bench.UNTRACED]], 1, 1)
    assert [(k, m["unit"]) for k, m in layers.items()] == \
        [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert [(k, m["unit"]) for k, m in e2e.items()] == \
        [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)
