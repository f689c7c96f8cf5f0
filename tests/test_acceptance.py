"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with the
numbers it checked (visible under ``pytest -rA``). The two end-to-end
scenarios run the real CLI benchmark on a 257x257 synthetic landscape:

  A: nonlinear error field (linear slope/forest terms, a sine of elevation,
     a step on urban, noise at 10% of the error std) — the boosted-tree
     models must reach a 60% overall test-RMSE reduction and beat the
     linear model, inside a 60 s single-thread budget.
  B: purely linear error field at 2% noise — the linear model must reach a
     90% reduction and stay within 2 points of the best boosted model.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from demcorrect import (
    GbdtParams,
    SampleTable,
    apply_correction,
    aspect,
    build_report,
    difference,
    fit_gbdt,
    fit_ols,
    fractal_dem,
    roughness,
    slope,
    synth_landcover,
    texture,
    tpi,
    tri,
    vrm,
    WindowSpec,
)
from demcorrect.cli import main
from conftest import make_grid, plane_grid

SCENARIO_A_SPEC = {
    "linear_terms": {"slope": 1.2, "pct_forest": 0.8},
    "nonlinear_terms": [
        {"feature": "elevation", "kind": "sine", "amplitude": 2.5, "scale": 2.2},
        {"feature": "urban", "kind": "step", "amplitude": 1.5, "scale": 0.0},
    ],
    "noise_std": 0.0,
    "seed": 23,
}

SCENARIO_B_SPEC = {
    "linear_terms": {"elevation": 1.5, "pct_forest": 1.0, "urban": 0.8},
    "nonlinear_terms": [],
    "noise_std": 0.0,
    "seed": 29,
}


def _bench(out_dir, sets):
    args = ["bench", "--out", str(out_dir)]
    for s in sets:
        args += ["--set", s]
    t0 = time.perf_counter()
    rc = main(args)
    return rc, time.perf_counter() - t0


def _overall_reductions(out_dir, stem="report_test"):
    doc = json.loads((out_dir / f"{stem}.json").read_text())
    return doc["overall"]["pct_rmse_reduction"]


@pytest.fixture(scope="session")
def scenario_a(tmp_path_factory):
    os.environ.pop("DEMCORRECT_THREADS", None)  # single-threaded budget
    out = tmp_path_factory.mktemp("scenario_a")
    rc, wall = _bench(out, [
        "bench.size_exponent=8",
        "sampling.rate=0.25",
        "bench.noise_fraction=0.1",
        "bench.error_spec=" + json.dumps(SCENARIO_A_SPEC),
    ])
    assert rc == 0
    return out, wall


@pytest.fixture(scope="session")
def scenario_b(tmp_path_factory):
    os.environ.pop("DEMCORRECT_THREADS", None)
    out = tmp_path_factory.mktemp("scenario_b")
    rc, wall = _bench(out, [
        "bench.size_exponent=8",
        "sampling.rate=0.25",
        "bench.noise_fraction=0.02",
        "bench.error_spec=" + json.dumps(SCENARIO_B_SPEC),
    ])
    assert rc == 0
    return out, wall


def test_criterion_1_scenario_a_nonlinear(scenario_a):
    out, wall = scenario_a
    red = _overall_reductions(out)
    for name in ("gbdt-depthwise", "gbdt-leafwise"):
        assert red[name] >= 60.0, f"{name} overall test reduction {red[name]:.1f} < 60"
        assert red[name] >= red["mlr"], f"{name} did not beat mlr"
    assert wall < 60.0, f"bench took {wall:.1f} s"
    print(f"ACCEPTANCE 1: PASS — scenario A reductions "
          f"depthwise {red['gbdt-depthwise']:.1f}%, leafwise {red['gbdt-leafwise']:.1f}%, "
          f"mlr {red['mlr']:.1f}%; wall {wall:.1f} s < 60 s")


def test_criterion_2_scenario_b_linear(scenario_b):
    out, _ = scenario_b
    red = _overall_reductions(out)
    best_gbdt = max(red["gbdt-depthwise"], red["gbdt-leafwise"])
    assert red["mlr"] >= 90.0, f"mlr overall reduction {red['mlr']:.1f} < 90"
    assert red["mlr"] >= best_gbdt - 2.0, \
        f"mlr {red['mlr']:.1f} more than 2 points behind best gbdt {best_gbdt:.1f}"
    print(f"ACCEPTANCE 2: PASS — scenario B mlr {red['mlr']:.1f}% vs best gbdt "
          f"{best_gbdt:.1f}% (within 2 points or better)")


def test_criterion_3_collinearity_fixture(scenario_a):
    out, _ = scenario_a
    doc = json.loads((out / "collinearity.json").read_text())
    names = doc["variable_names"]
    p = np.array(doc["pearson"])
    r = p[names.index("roughness"), names.index("tri")]
    assert abs(r) >= 0.9, f"|r(roughness, tri)| = {abs(r):.3f} < 0.9"

    flagged = doc["flagged"]
    assert set(flagged) & {"roughness", "tri"}, f"neither roughness nor tri in {flagged}"
    threshold = doc["thresholds"]["vif"]
    for entry in doc["removal_history"]:
        v = math.inf if entry["vif"] == "Infinity" else entry["vif"]
        assert v >= threshold, f"{entry['variable']} removed below threshold"

    mlr = json.loads((out / "model_mlr.json").read_text())
    assert len(mlr["feature_names"]) < 11
    print(f"ACCEPTANCE 3: PASS — r(roughness, tri) = {r:.3f}; flagged {flagged}; "
          f"mlr kept {len(mlr['feature_names'])} features")


def test_criterion_4_ols_oracle_equivalence():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50) + X @ rng.normal(size=4)
        cells = np.column_stack([np.arange(50), np.zeros(50, dtype=int)])
        table = SampleTable(("a", "b", "c", "d"), cells, X, y)
        m = fit_ols(table)
        A = np.column_stack([np.ones(50), X])
        oracle = np.linalg.solve(A.T @ A, A.T @ y)  # raw normal equations
        got = np.concatenate([[m.intercept], m.coefficients])
        worst = max(worst, float(np.max(np.abs(got - oracle))))
    assert worst < 1e-8, f"max coefficient deviation {worst:.2e}"
    print(f"ACCEPTANCE 4: PASS — 20 random tables, max |coef - oracle| = {worst:.2e} < 1e-8")


def test_criterion_5_gbdt_exact_fit_and_monotonicity(scenario_a, scenario_b):
    rng = np.random.default_rng(77)
    X = rng.uniform(size=(64, 3))
    y = rng.normal(size=64)
    cells = np.column_stack([np.arange(64), np.zeros(64, dtype=int)])
    table = SampleTable(("a", "b", "c"), cells, X, y)
    params = GbdtParams(n_trees=1, learning_rate=1.0, reg_lambda=0.0,
                        max_depth=None, min_samples_leaf=1)
    exact = fit_gbdt(table, params).train_rmse[-1]
    assert exact < 1e-10, f"exact-fit training RMSE {exact:.2e}"

    checked = 0
    for out, _ in (scenario_a, scenario_b):
        for name in ("gbdt-depthwise", "gbdt-leafwise"):
            doc = json.loads((out / f"model_{name}.json").read_text())
            curve = np.array(doc["train_rmse"])
            assert len(curve) > 1
            assert np.all(np.diff(curve) <= 1e-12), f"{name} loss increased"
            checked += 1
    print(f"ACCEPTANCE 5: PASS — exact-fit RMSE {exact:.1e} < 1e-10; "
          f"{checked} training curves non-increasing")


def test_criterion_6_terrain_derivative_oracles():
    tol = 1e-9

    g45 = plane_grid(7, fx=1.0)
    s = slope(g45).values[3, 3]
    assert abs(s - 45.0) < tol

    a = aspect(g45).values[3, 3]
    assert abs(a - 270.0) < tol

    g345 = plane_grid(7, fx=3.0, fy=-4.0)
    expected = math.degrees(math.atan(5.0))
    s5 = slope(g345).values[3, 3]
    assert abs(s5 - expected) < tol

    const = make_grid(np.full((11, 11), 321.5))
    w = WindowSpec(1)
    zeros = {
        "tpi": tpi(const, w),
        "tri": tri(const),
        "roughness": roughness(const, w),
        "texture": texture(const, 0.5, WindowSpec(2)),
        "vrm": vrm(const, WindowSpec(2)),
    }
    for name, grid in zeros.items():
        v = grid.valid_mask()
        assert v.any()
        assert np.max(np.abs(grid.values[v])) < tol, name

    spike = np.full((3, 3), 2.0)
    spike[1, 1] = 1.0
    t8 = tri(make_grid(spike)).values[1, 1]
    assert abs(t8 - math.sqrt(8)) < tol

    print(f"ACCEPTANCE 6: PASS — slope 45deg/atan(5), aspect 270deg, "
          f"constant-grid zeros, TRI sqrt(8); all within 1e-9")


def test_criterion_7_correction_algebra():
    ref = fractal_dem(6, seed=13, roughness_decay=0.5)
    land = synth_landcover(ref, seed=14)
    rng = np.random.default_rng(15)
    dem = ref.with_values(ref.values + rng.normal(1.0, 2.0, ref.values.shape))

    oracle_dh = dem.with_values(difference(dem, ref).rows(0, dem.nrows))
    corrected = apply_correction(dem, oracle_dh)
    both = dem.valid_mask() & ref.valid_mask()
    assert np.array_equal(corrected.values[both], ref.values[both])

    report = build_report(ref, dem, {"oracle": corrected}, land.strata,
                          stratum_names=land.stratum_names)
    assert len(report.strata) == 5
    for name, res in report.strata.items():
        assert res.reduction["oracle"] == 100.0, name
    assert report.overall.reduction["oracle"] == 100.0
    print("ACCEPTANCE 7: PASS — oracle correction reproduces the reference "
          "bit-exactly; 100% reduction in all 5 strata")


def test_criterion_8_bench_determinism(tmp_path):
    out = tmp_path / "bench"
    sets = [
        "bench.size_exponent=6",
        "gbdt.n_trees=20",
        "sampling.rate=0.5",
    ]
    rc, _ = _bench(out, sets)
    assert rc == 0
    watched = [
        "report.json", "report.txt", "report_test.json", "report_test.txt",
        "model_mlr.json", "model_gbdt-depthwise.json", "model_gbdt-leafwise.json",
        "collinearity.json",
    ]
    snapshot = {f: (out / f).read_bytes() for f in watched}
    rc, _ = _bench(out, sets)
    assert rc == 0
    for f in watched:
        assert (out / f).read_bytes() == snapshot[f], f"{f} differs between runs"
    print(f"ACCEPTANCE 8: PASS — two identical bench runs, {len(watched)} "
          f"reports/model documents byte-identical")


def test_criterion_9_report_shape(scenario_a):
    out, _ = scenario_a
    text = (out / "report.txt").read_text()
    lines = [l for l in text.splitlines() if l.strip()]
    assert "RMSE reduction" in lines[0]

    header = lines[1].split()
    assert header[0] == "stratum"
    assert set(header[1:]) == {"mlr", "gbdt-depthwise", "gbdt-leafwise"}

    body = lines[2:]
    row_names = [l.split()[0] for l in body]
    assert row_names == ["urban_industrial", "agricultural", "mountain",
                         "peninsula", "grassland_shrubland", "overall"]
    for line in body:
        cells = line.split()
        assert len(cells) == 1 + len(header) - 1
        for value in cells[1:]:
            float(value)  # every model column holds a number
    print("ACCEPTANCE 9: PASS — text table is 5 landscape rows (+overall) x "
          "3 model columns of percent reductions")
