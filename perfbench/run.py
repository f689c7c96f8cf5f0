"""demcorrect benchmark: two workloads run end to end through the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-m --seed 1 --seconds 50 --trace 0

One parent process runs a closed loop with one client: it starts one
worker process at a time (``perfbench/worker.py``), each pinned to one
thread, and starts the next only after the previous one ended. Every
iteration repeats the same inputs, made from ``--seed``, in the same
output directory, so outputs must repeat byte for byte. Every
iteration's outputs are checked (``perfbench/checks.py``); a failed
check counts as a failed run.

With ``--trace 0`` iterations repeat until ``--seconds`` are used up (at
least two) and the last stdout line reports the end-to-end metrics as medians over
them. With ``--trace 1`` the run makes three iterations: untraced, with
the spans of ``perfbench/spans.py``, and with spans plus tracemalloc
peaks; the last line reports per-layer metrics. The line before the last
is a JSON record of samples, pins, versions, accuracy per model and
output digests.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# Relative to ROOT, the workers' working directory. Output paths enter the
# resolved configuration and so every output's provenance digest: they
# must not change between iterations, runs or checkouts.
WORK = Path(".perfbench_work")
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

MODELS = ("mlr", "gbdt-depthwise", "gbdt-leafwise")
STEPS = ("features", "diagnose", "train", "correct", "evaluate")
# Every worker gets these: one thread for demcorrect and for BLAS.
PINS = {
    "DEMCORRECT_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# A run must end within 180 s; no worker may outlive this.
RUN_LIMIT_S = 170.0
UNTRACED, SPANS, SPANS_ALLOC = 0, 1, 2

# Acceptance scenario A: nonlinear error field, noise at 10% of its std.
SCENARIO_A = {
    "linear_terms": {"slope": 1.2, "pct_forest": 0.8},
    "nonlinear_terms": [
        {"feature": "elevation", "kind": "sine", "amplitude": 2.5, "scale": 2.2},
        {"feature": "urban", "kind": "step", "amplitude": 1.5, "scale": 0.0},
    ],
    "noise_std": 0.0,
}


@dataclass(frozen=True)
class Workload:
    size_exponent: int
    rate: float
    models: tuple
    steps: bool = False
    n_trees: int = 100
    accuracy: Callable = checks.all_positive


WORKLOADS = {
    # GBDT split search dominates, so a faster split search shows here.
    "train-m": Workload(size_exponent=8, rate=0.25, models=MODELS,
                        accuracy=checks.gbdt_beats_mlr),
    # The five step commands, one process each: the only workload that
    # reads grids, and GBDT never runs.
    "steps-rw": Workload(size_exponent=9, rate=0.01, models=("mlr",), steps=True),
}


def bench_config(wl: Workload, seed: int) -> dict:
    """The bench configuration for ``seed``.

    The seed picks the error field's noise. Terrain, land cover and the
    sampled cells keep the program's default seeds: a new landscape or a
    new 1% sample per seed moves the RMSE reduction by several points
    between seeds, wider than any accuracy bound.
    """
    return {
        "models": list(wl.models),
        "gbdt": {"n_trees": wl.n_trees},
        "sampling": {"rate": wl.rate},
        "bench": {
            "size_exponent": wl.size_exponent,
            "noise_fraction": 0.1,
            "error_spec": {**SCENARIO_A, "seed": random.Random(seed).randrange(1 << 30)},
        },
    }


def steps_config(wl: Workload, inputs: Path) -> dict:
    """The step commands' configuration over the grids a set-up bench wrote."""
    names = {"dem": "original", "reference": "reference", "bare": "mask_bare",
             "urban": "mask_urban", "forest": "mask_forest", "strata": "strata"}
    return {
        "models": list(wl.models),
        "sampling": {"rate": wl.rate},
        "paths": {key: str(inputs / f"{stem}.asc") for key, stem in names.items()},
    }


def spawn(cli_args, logs: Path, tag: str, mode: int, deadline: float) -> dict:
    """Run one CLI call in a worker; returns its result document."""
    result = ROOT / logs / f"{tag}.result.json"
    with open(ROOT / logs / f"{tag}.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(result), repr(spawned), str(mode), "--", *cli_args],
            stdout=log, stderr=subprocess.STDOUT, env={**os.environ, **PINS}, cwd=str(ROOT))
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return {"rc": None, "error": f"{tag} killed at the run's time limit"}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not result.is_file():
        return {"rc": None, "error": f"{tag} worker exited {proc.returncode}: "
                                     f"{(ROOT / logs / f'{tag}.log').read_text()[-500:]}"}
    return json.loads(result.read_text())


def run_iteration(wl: Workload, cfg_path: Path, work: Path, mode: int, deadline: float) -> dict:
    """One pipeline run into ``work/out``: ``bench``, or the five step commands in turn."""
    out, logs = work / "out", work / "logs"
    for d in (out, logs):
        shutil.rmtree(ROOT / d, ignore_errors=True)
        (ROOT / d).mkdir(parents=True)
    base = ["--config", str(cfg_path), "--out", str(out)]
    calls = [(s, [s, *base]) for s in STEPS] if wl.steps else [("bench", ["bench", *base])]
    procs, problems = [], []
    for tag, args in calls:
        doc = spawn(args, logs, tag, mode, deadline)
        if doc["rc"] != 0:
            problems.append(doc.get("error") or f"{tag} exited {doc['rc']}")
            break
        procs.append(doc)
    it = {"mode": mode, "completed": not problems, "problems": problems,
          "reductions": {}, "digests": {}}
    if problems:
        return it
    found, it["reductions"], it["digests"] = checks.check_outputs(
        ROOT / out, wl.models, "report" if wl.steps else "report_test", wl.accuracy)
    problems += found
    it.update(
        run_s=sum(p["run_s"] for p in procs),
        setup_s=sum(p["setup_s"] for p in procs),
        cpu_s=sum(p["cpu_s"] for p in procs),
        peak_rss_mb=max(p["maxrss_mb"] for p in procs),
        versions=procs[0]["versions"],
    )
    if mode != UNTRACED:
        it["trace"] = merge_traces([p["trace"] for p in procs])
    return it


def merge_traces(traces) -> dict:
    """Sum the span summaries of one iteration's processes."""
    spans, counts, peaks = {}, {}, {}
    for t in traces:
        for name, (calls, incl, self_s) in t["spans"].items():
            row = spans.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += incl
            row[2] += self_s
        for key, value in t["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in t["peak_alloc_bytes"].items():
            peaks[key] = max(peaks.get(key, 0), value)
    return {"spans": spans, "counts": counts, "peak_alloc_bytes": peaks}


def layer_metrics(it: dict) -> dict:
    """Per-layer metrics of one traced iteration: name -> (value, unit).

    Times are self times, except ``gbdt.fit_gbdt_s.*``, which cover the
    whole fit.
    """
    spans, counts = it["trace"]["spans"], it["trace"]["counts"]

    def calls(span):
        return spans.get(span, [0, 0.0, 0.0])[0]

    def incl(span):
        return spans.get(span, [0, 0.0, 0.0])[1]

    def self_s(span):
        return spans.get(span, [0, 0.0, 0.0])[2]

    def rate(nbytes, seconds):
        return nbytes / 1e6 / seconds if seconds > 0 else 0.0

    split_calls = calls("gbdt.best_split")
    written, read = counts.get("grid.bytes_written", 0), counts.get("grid.bytes_read", 0)
    m = {
        "gbdt.best_split_s": (self_s("gbdt.best_split"), "s"),
        "gbdt.best_split.calls": (split_calls, "count"),
        "gbdt.best_split.row_features": (counts.get("gbdt.best_split.row_features", 0), "count"),
        "gbdt.best_split.accepted_frac": (
            counts.get("gbdt.best_split.accepted", 0) / split_calls if split_calls else 0.0, "frac"),
        "gbdt.fit_gbdt_s.depthwise": (incl("gbdt.fit_gbdt.depthwise"), "s"),
        "gbdt.fit_gbdt_s.leafwise": (incl("gbdt.fit_gbdt.leafwise"), "s"),
        "gbdt.fit_self_s": (self_s("gbdt.fit_gbdt.depthwise") + self_s("gbdt.fit_gbdt.leafwise"), "s"),
        "gbdt.predict_rows_s": (self_s("gbdt.predict_rows"), "s"),
        "gbdt.predict_rows.row_trees": (counts.get("gbdt.predict_rows.row_trees", 0), "count"),
        "gbdt.trees": (counts.get("gbdt.trees", 0), "count"),
        "gbdt.nodes": (counts.get("gbdt.nodes", 0), "count"),
        "gbdt.serialize_model_s": (self_s("gbdt.serialize_model"), "s"),
        "grid.write_ascii_grid_s": (self_s("grid.write_ascii_grid"), "s"),
        "grid.write_ascii_grid.calls": (calls("grid.write_ascii_grid"), "count"),
        "grid.bytes_written": (written, "bytes"),
        "grid.write_MBps": (rate(written, self_s("grid.write_ascii_grid") + self_s("grid.save_grid")), "MB/s"),
        "grid.read_ascii_grid_s": (self_s("grid.read_ascii_grid"), "s"),
        "grid.read_ascii_grid.calls": (calls("grid.read_ascii_grid"), "count"),
        "grid.bytes_read": (read, "bytes"),
        "grid.read_MBps": (rate(read, self_s("grid.read_ascii_grid") + self_s("grid.load_grid")), "MB/s"),
        "grid.save_grid_s": (self_s("grid.save_grid"), "s"),
        "grid.load_grid_s": (self_s("grid.load_grid"), "s"),
        "terrain.build_feature_stack_s": (self_s("terrain.build_feature_stack"), "s"),
    }
    for fn in ("slope", "aspect", "roughness", "tpi", "tri", "texture", "vrm", "focal_fraction"):
        m[f"terrain.{fn}_s"] = (self_s(f"terrain.{fn}"), "s")
    m.update({
        "terrain.slope.calls": (calls("terrain.slope"), "count"),
        "terrain.aspect.calls": (calls("terrain.aspect"), "count"),
        "linstats.flag_collinear_s": (self_s("linstats.flag_collinear"), "s"),
        "linstats.vif_s": (self_s("linstats.vif"), "s"),
        "linstats.vif.calls": (calls("linstats.vif"), "count"),
        "linstats.pearson_matrix_s": (self_s("linstats.pearson_matrix"), "s"),
        "linstats.fit_ols_s": (self_s("linstats.fit_ols"), "s"),
        "sampling.extract_samples_s": (self_s("sampling.extract_samples"), "s"),
        "sampling.split_table_s": (self_s("sampling.split_table"), "s"),
        "sampling.to_csv_s": (self_s("sampling.to_csv"), "s"),
        "sampling.rows": (counts.get("sampling.rows", 0), "count"),
        "synth.fractal_dem_s": (self_s("synth.fractal_dem"), "s"),
        "synth.synth_landcover_s": (self_s("synth.synth_landcover"), "s"),
        "synth.inject_error_s": (self_s("synth.inject_error"), "s"),
        "evaluate.predict_error_grid_self_s": (self_s("evaluate.predict_error_grid"), "s"),
        "evaluate.build_report_s": (self_s("evaluate.build_report"), "s"),
        "evaluate.apply_correction_s": (self_s("evaluate.apply_correction"), "s"),
        "evaluate.abs_error_grid_s": (self_s("evaluate.abs_error_grid"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "process.import_s": (it["setup_s"], "s"),
        "process.cpu_s": (it["cpu_s"], "s"),
    })
    return m


# Peak of Python-tracked allocations inside the first call of each span.
ALLOC_METRICS = {
    "terrain.peak_alloc_mb": ("terrain.build_feature_stack",),
    "gbdt.peak_alloc_mb": ("gbdt.fit_gbdt.depthwise", "gbdt.fit_gbdt.leafwise"),
    "evaluate.peak_alloc_mb": ("evaluate.predict_error_grid",),
    "grid.peak_alloc_mb": ("grid.write_ascii_grid",),
}

# Work counters: they must repeat exactly for the same inputs.
COUNTERS = (
    "gbdt.best_split.calls", "gbdt.best_split.row_features", "gbdt.best_split.accepted_frac",
    "gbdt.trees", "gbdt.nodes", "gbdt.predict_rows.row_trees",
    "grid.write_ascii_grid.calls", "grid.bytes_written",
    "grid.read_ascii_grid.calls", "grid.bytes_read",
    "terrain.slope.calls", "terrain.aspect.calls", "linstats.vif.calls", "sampling.rows",
)


def work_counters(it: dict) -> dict:
    m = layer_metrics(it)
    return {key: m[key][0] for key in COUNTERS}


def end_to_end(timed: list, n_ok: int, attempted: int) -> dict:
    reductions = timed[0]["reductions"]

    def median(key, unit):
        return {"value": statistics.median(it[key] for it in timed), "unit": unit}

    return {
        "run_s": median("run_s", "s"),
        "setup_s": median("setup_s", "s"),
        "peak_rss_mb": median("peak_rss_mb", "MB"),
        "ok_frac": {"value": n_ok / attempted, "unit": "frac"},
        "rmse_reduction_pct.mlr": {"value": reductions["mlr"], "unit": "%"},
        "rmse_reduction_pct.mean": {"value": statistics.fmean(reductions.values()), "unit": "%"},
    }


def per_layer(by_mode: dict) -> dict:
    out = {key: {"value": value, "unit": unit}
           for key, (value, unit) in layer_metrics(by_mode[SPANS]).items()}
    peaks = by_mode[SPANS_ALLOC]["trace"]["peak_alloc_bytes"]
    for key, span_names in ALLOC_METRICS.items():
        out[key] = {"value": max(peaks.get(s, 0) for s in span_names) / 2**20, "unit": "MB"}
    out["trace.run_s"] = {"value": by_mode[SPANS]["run_s"], "unit": "s"}
    out["trace.overhead_s"] = {"value": by_mode[SPANS]["run_s"] - by_mode[UNTRACED]["run_s"],
                               "unit": "s"}
    return out


def why_shares(layers: dict) -> dict:
    """The shares of traced run time that each workload exists to show."""
    v = {key: m["value"] for key, m in layers.items()}
    run = v["trace.run_s"]
    write = v["grid.write_ascii_grid_s"] + v["grid.save_grid_s"]
    read = v["grid.read_ascii_grid_s"] + v["grid.load_grid_s"]
    return {
        "best_split/run": v["gbdt.best_split_s"] / run,
        "grid_read_write/run": (read + write) / run,
    }


def setup_inputs(wl: Workload, seed: int, work: Path, deadline: float) -> Path:
    """Write the run's configuration (and, for the step commands, their input grids)."""
    # Warm-up, untimed: the first import in a fresh checkout compiles the
    # sources, which would otherwise land in the first iteration's setup_s.
    if spawn(["--help"], work, "warmup", UNTRACED, deadline)["rc"] != 0:
        raise RuntimeError("warm-up worker failed")
    cfg_path = work / "config.json"
    cfg = bench_config(wl, seed)
    if wl.steps:
        inputs = work / "inputs"
        (ROOT / work / "inputs.json").write_text(json.dumps(cfg))
        doc = spawn(["bench", "--config", str(work / "inputs.json"), "--out", str(inputs)],
                    work, "inputs", UNTRACED, deadline)
        if doc["rc"] != 0:
            raise RuntimeError(f"set-up bench failed: {doc.get('error') or doc['rc']}")
        cfg = steps_config(wl, inputs)
    (ROOT / cfg_path).write_text(json.dumps(cfg, indent=2))
    return cfg_path


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> list:
    deadline = time.monotonic() + RUN_LIMIT_S
    wl = WORKLOADS[name]
    cfg_path = setup_inputs(wl, seed, work, deadline)
    if trace:
        return [run_iteration(wl, cfg_path, work, mode, deadline)
                for mode in (UNTRACED, SPANS, SPANS_ALLOC)]
    iterations, longest, t0 = [], 0.0, time.monotonic()
    # At least two iterations, so that one slow spell of the host does not
    # make the run's median; more while one as long as the longest so far fits.
    while len(iterations) < 2 or (time.monotonic() - t0 + longest <= seconds
                                  and time.monotonic() + longest < deadline):
        t = time.monotonic()
        iterations.append(run_iteration(wl, cfg_path, work, UNTRACED, deadline))
        longest = max(longest, time.monotonic() - t)
    return iterations


def remove_work(work: Path) -> None:
    """Delete a run's work directory, and its parent once that is empty."""
    shutil.rmtree(ROOT / work, ignore_errors=True)
    if (ROOT / WORK).is_dir() and not any((ROOT / WORK).iterdir()):
        (ROOT / WORK).rmdir()


def check_repeats(iterations: list) -> None:
    """Output bytes, and traced work counters, must repeat across iterations."""
    done = [it for it in iterations if it["completed"]]
    for i, it in enumerate(done[1:], 1):
        if it["digests"] != done[0]["digests"]:
            it["problems"].append(f"iteration {i}: output digests differ from the first")
    traced = [it for it in done if it["mode"] != UNTRACED]
    for it in traced[1:]:
        if work_counters(it) != work_counters(traced[0]):
            it["problems"].append("work counters differ between traced iterations")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "demcorrect" / "cli.py").is_file():
        print(f"error: no demcorrect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-s{args.seed}"
    shutil.rmtree(ROOT / work, ignore_errors=True)
    (ROOT / work).mkdir(parents=True)
    try:
        iterations = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
        config = json.loads((ROOT / work / "config.json").read_text())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_work(work)

    check_repeats(iterations)
    attempted = len(iterations)
    ok = [it for it in iterations if not it["problems"]]
    completed = [it for it in iterations if it["completed"]]
    if not completed or (args.trace and len(completed) < attempted):
        for it in iterations:
            print("; ".join(it["problems"]), file=sys.stderr)
        print("error: no measurement completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer({it["mode"]: it for it in iterations})
    else:
        metrics = end_to_end(ok or completed, len(ok), attempted)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "config": config,
        "iterations": attempted,
        "failed_frac": (attempted - len(ok)) / attempted,
        "problems": [p for it in iterations for p in it["problems"]],
        "samples": {key: [it[key] for it in completed]
                    for key in ("run_s", "setup_s", "peak_rss_mb", "cpu_s")},
        "reductions_pct": completed[0]["reductions"],
        "digests": completed[0]["digests"],
        "env": {**PINS, "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)), **completed[0]["versions"]},
    }
    if args.trace:
        detail["shares"] = why_shares(metrics)
        detail["work_counters"] = work_counters(completed[1])
    shown = dict(metrics)
    if not args.trace:
        # every model's accuracy and the failure share, for the reader
        shown.update({f"rmse_reduction_pct.{model}": {"value": value, "unit": "%"}
                      for model, value in detail["reductions_pct"].items()})
        shown["failed_frac"] = {"value": detail["failed_frac"], "unit": "frac"}
    for key, m in shown.items():
        print(f"{args.workload:9s} {key:38s} {m['value']:>16.6f} {m['unit']:5s} n={attempted}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not detail["problems"], "attempted": attempted,
                      "failed": attempted - len(ok), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
