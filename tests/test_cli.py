import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import demcorrect.cli as cli
from demcorrect import (
    FeatureStack,
    GbdtParams,
    fractal_dem,
    load_grid,
    save_grid,
    synth_landcover,
)
from demcorrect.cli import ConfigError, main, resolve_config, worker_count
from conftest import NODATA, make_grid


@pytest.fixture
def workspace(tmp_path):
    """Small synthetic inputs on disk plus a config tuned to their size."""
    dem = fractal_dem(5, seed=3, roughness_decay=0.45)   # 33x33
    land = synth_landcover(dem, seed=5)
    reference = dem
    degraded = dem.with_values(dem.values + 2.0)  # constant 2 m bias
    paths = {}
    for name, grid in (("reference", reference), ("dem", degraded),
                       ("bare", land.bare), ("urban", land.urban),
                       ("forest", land.forest), ("strata", land.strata)):
        p = tmp_path / f"{name}.asc"
        save_grid(grid, p)
        paths[name] = str(p)
    paths["out_dir"] = str(tmp_path / "out")
    config = {
        "paths": paths,
        "windows": {"texture_radius": 3, "texture_threshold": 0.5,
                    "vrm_radius": 2, "landcover_radius": 2},
        "gbdt": {"n_trees": 8},
        "sampling": {"rate": 1.0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path, tmp_path


def run_cli(*args):
    return main([str(a) for a in args])


class TestConfig:
    def test_defaults_plus_file_plus_flags(self, workspace):
        cfg_path, tmp = workspace

        class Args:
            config = str(cfg_path)
            set = ["sampling.rate=0.5"]
            model = ["mlr"]
            seed = 99
            out = str(tmp / "elsewhere")

        cfg = resolve_config(Args())
        assert cfg["sampling"]["rate"] == 0.5
        assert cfg["models"] == ["mlr"]
        assert cfg["sampling"]["seed"] == 99
        assert cfg["paths"]["out_dir"].endswith("elsewhere")
        assert cfg["gbdt"]["n_trees"] == 8  # from file

    def test_unknown_key_rejected(self):
        class Args:
            config = None
            set = ["nonsense.key=1"]
            model = None
            seed = None
            out = None

        with pytest.raises(ConfigError, match="nonsense"):
            resolve_config(Args())

    def test_unknown_model_rejected(self):
        class Args:
            config = None
            set = ['models=["xgboost"]']
            model = None
            seed = None
            out = None

        with pytest.raises(ConfigError, match="xgboost"):
            resolve_config(Args())

    def test_set_walks_into_error_spec(self):
        class Args:
            config = None
            set = ["bench.error_spec.linear_terms.slope=5", "bench.error_spec.linear_terms.tpi=2"]
            model = None
            seed = None
            out = None

        spec = resolve_config(Args())["bench"]["error_spec"]
        assert spec["linear_terms"] == {"slope": 5, "pct_forest": 0.8, "tpi": 2}
        assert "slope" not in spec and "tpi" not in spec

    def test_missing_config_file_exit_2(self, tmp_path):
        assert run_cli("features", "--config", tmp_path / "nope.json") == 2

    def test_config_directory_named_as_such(self, tmp_path, capsys):
        assert run_cli("features", "--config", tmp_path) == 2
        assert f"config file '{tmp_path}' is a directory" in capsys.readouterr().err

    def test_integral_float_accepted(self):
        class Args:
            config = None
            set = ["gbdt.n_trees=3.0"]
            model = None
            seed = None
            out = None

        cfg = resolve_config(Args())
        assert cli._gbdt_params(cfg, "depthwise").n_trees == 3

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.delenv("DEMCORRECT_THREADS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("DEMCORRECT_THREADS", "4")
        assert worker_count() == 4
        monkeypatch.setenv("DEMCORRECT_THREADS", "zero")
        with pytest.raises(ConfigError):
            worker_count()


class TestFeatures:
    def test_writes_layers_and_manifest(self, workspace):
        cfg_path, tmp = workspace
        assert run_cli("features", "--config", cfg_path) == 0
        out = tmp / "out"
        manifest = json.loads((out / "features_manifest.json").read_text())
        assert len(manifest["layers"]) == 11
        for entry in manifest["layers"]:
            assert (out / entry["file"]).is_file()

    def test_missing_mask_path_exit_2_names_path(self, workspace, capsys):
        cfg_path, tmp = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg["paths"]["bare"] = str(tmp / "missing_mask.asc")
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("features", "--config", cfg_path) == 2
        assert "missing_mask.asc" in capsys.readouterr().err

    def test_rerun_identical_checksums(self, workspace):
        cfg_path, tmp = workspace
        run_cli("features", "--config", cfg_path)
        m1 = (tmp / "out" / "features_manifest.json").read_text()
        stack1 = (tmp / "out" / "features_stack.npy").read_bytes()
        run_cli("features", "--config", cfg_path)
        m2 = (tmp / "out" / "features_manifest.json").read_text()
        assert m1 == m2
        assert json.loads(m1)["stack"] == {
            "file": "features_stack.npy",
            "sha256": hashlib.sha256(stack1).hexdigest(),
        }
        assert (tmp / "out" / "features_stack.npy").read_bytes() == stack1

    def test_flat_dem_zero_slope_layer(self, workspace):
        cfg_path, tmp = workspace
        cfg = json.loads(cfg_path.read_text())
        flat = fractal_dem(5, relief_amplitude=0.0)
        save_grid(flat, tmp / "flat.asc")
        cfg["paths"]["dem"] = str(tmp / "flat.asc")
        cfg["paths"]["out_dir"] = str(tmp / "flatout")
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("features", "--config", cfg_path) == 0
        s = load_grid(tmp / "flatout" / "feature_slope.asc")
        assert np.all(s.values[s.valid_mask()] == 0.0)


class TestFeatureStackFile:
    """``features_stack.npy`` spares later steps the ASCII parse, never changing a bit."""

    OUTPUTS = ("collinearity.json", "model_mlr.json", "model_gbdt-depthwise.json",
               "model_gbdt-leafwise.json", "corrected_mlr.asc",
               "corrected_gbdt-depthwise.asc", "predicted_error_mlr.asc",
               "abs_error_gbdt-leafwise.asc")

    def run_steps(self, cfg_path, out):
        for cmd in ("diagnose", "train", "correct"):
            assert run_cli(cmd, "--config", cfg_path) == 0, cmd
        return {f: (out / f).read_bytes() for f in self.OUTPUTS}

    @pytest.fixture
    def parsed(self, monkeypatch):
        """Names of the feature layers parsed from ASCII by the CLI."""
        names = []
        real = cli.load_grid

        def counting(path):
            if path.name.startswith("feature_"):
                names.append(path.name)
            return real(path)

        monkeypatch.setattr(cli, "load_grid", counting)
        return names

    @pytest.fixture
    def parsed_outputs(self, workspace):
        """Step outputs with every feature layer parsed from ASCII."""
        cfg_path, tmp = workspace
        out = tmp / "out"
        run_cli("features", "--config", cfg_path)
        (out / "features_stack.npy").unlink()
        return self.run_steps(cfg_path, out)

    def test_steps_skip_the_parse_with_the_same_outputs(self, workspace, parsed_outputs,
                                                        parsed):
        cfg_path, tmp = workspace
        run_cli("features", "--config", cfg_path)
        assert self.run_steps(cfg_path, tmp / "out") == parsed_outputs
        assert parsed == []

    @pytest.mark.parametrize("damage", ["truncated", "stale"])
    def test_bad_stack_file_falls_back_to_parsing(self, workspace, parsed_outputs,
                                                  parsed, damage):
        cfg_path, tmp = workspace
        out = tmp / "out"
        run_cli("features", "--config", cfg_path)
        path = out / "features_stack.npy"
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-8])
        else:
            np.save(path, np.zeros_like(np.load(path)))
        assert self.run_steps(cfg_path, out) == parsed_outputs
        assert len(parsed) == 3 * 11

    def test_manifest_without_stack_record_loads(self, workspace, parsed_outputs, parsed):
        cfg_path, tmp = workspace
        out = tmp / "out"
        run_cli("features", "--config", cfg_path)
        manifest = json.loads((out / "features_manifest.json").read_text())
        del manifest["stack"]
        (out / "features_manifest.json").write_text(json.dumps(manifest))
        assert self.run_steps(cfg_path, out) == parsed_outputs
        assert len(parsed) == 3 * 11

    def test_loaded_layers_bit_identical_to_parsed(self, tmp_path, parsed):
        vals = np.array([[-0.0, NODATA, 1e16, 9999999999999998.0],
                         [5e-324, 1e22, 1e-05, -1.5]])
        stack = FeatureStack(("a", "b"), (make_grid(vals, cellsize=30.0, xll=-7.5),
                                          make_grid(-vals[::-1], cellsize=30.0, xll=-7.5)))
        cli._write_stack(stack, cli.DEFAULT_CONFIG, tmp_path)
        loaded = cli._load_stack(tmp_path)
        assert parsed == []
        for name, grid in zip(loaded.names, loaded.layers):
            ref = load_grid(tmp_path / f"feature_{name}.asc")
            assert grid.values.tobytes() == ref.values.tobytes()
            assert (grid.geometry, grid.nodata) == (ref.geometry, ref.nodata)


class TestPipeline:
    def test_full_chain(self, workspace, capsys):
        cfg_path, tmp = workspace
        out = tmp / "out"
        for cmd in ("features", "diagnose", "train", "correct", "evaluate"):
            assert run_cli(cmd, "--config", cfg_path) == 0, cmd

        coll = json.loads((out / "collinearity.json").read_text())
        assert coll["variable_names"][0] == "elevation"

        mlr = json.loads((out / "model_mlr.json").read_text())
        assert set(mlr["feature_names"]) | set(mlr["excluded_features"]) == set(
            coll["variable_names"])

        for name in ("mlr", "gbdt-depthwise", "gbdt-leafwise"):
            assert (out / f"model_{name}.json").is_file()
            assert (out / f"corrected_{name}.asc").is_file()
            abs_err = load_grid(out / f"abs_error_{name}.asc")
            v = abs_err.valid_mask()
            assert np.all(abs_err.values[v] >= 0.0)

        report = json.loads((out / "report.json").read_text())
        assert report["model_names"] == ["gbdt-depthwise", "gbdt-leafwise", "mlr"]
        # constant 2 m bias: every model nails it almost exactly
        assert report["overall"]["pct_rmse_reduction"]["mlr"] > 99.0

    def test_corrected_roundtrips_with_matching_geometry(self, workspace):
        cfg_path, tmp = workspace
        for cmd in ("features", "train", "correct"):
            run_cli(cmd, "--config", cfg_path, "--model", "mlr")
        dem = load_grid(tmp / "dem.asc")
        corrected = load_grid(tmp / "out" / "corrected_mlr.asc")
        assert corrected.geometry.matches(dem.geometry)

    def test_gbdt_uses_all_eleven_features(self, workspace):
        cfg_path, tmp = workspace
        run_cli("features", "--config", cfg_path)
        run_cli("train", "--config", cfg_path, "--model", "gbdt-depthwise")
        doc = json.loads((tmp / "out" / "model_gbdt-depthwise.json").read_text())
        assert len(doc["feature_names"]) == 11

    def test_train_without_features_exit_2(self, workspace):
        cfg_path, tmp = workspace
        assert run_cli("train", "--config", cfg_path) == 2

    def test_correct_with_explicit_model_doc(self, workspace):
        cfg_path, tmp = workspace
        run_cli("features", "--config", cfg_path)
        run_cli("train", "--config", cfg_path, "--model", "mlr")
        rc = run_cli("correct", "--config", cfg_path,
                     "--model-doc", tmp / "out" / "model_mlr.json")
        assert rc == 0
        assert (tmp / "out" / "corrected_mlr.asc").is_file()


class TestBench:
    def bench_args(self, out):
        return ("bench", "--out", out,
                "--set", "bench.size_exponent=5",
                "--set", "gbdt.n_trees=6",
                "--set", "windows.texture_radius=3",
                "--set", "sampling.rate=0.8")

    def test_bench_produces_reports(self, tmp_path):
        out = tmp_path / "bench"
        assert run_cli(*self.bench_args(out)) == 0
        for f in ("report.json", "report.txt", "report_test.json", "report_test.txt",
                  "collinearity.json", "reference.asc", "original.asc",
                  "true_error.asc", "samples_train.csv", "samples_test.csv"):
            assert (out / f).is_file(), f

    def test_bench_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "bench"
        run_cli(*self.bench_args(out))
        watched = ["report.json", "report.txt", "report_test.json",
                   "model_mlr.json", "model_gbdt-depthwise.json",
                   "model_gbdt-leafwise.json", "collinearity.json"]
        first = {f: (out / f).read_bytes() for f in watched}
        run_cli(*self.bench_args(out))
        for f in watched:
            assert (out / f).read_bytes() == first[f], f

    def test_report_text_has_five_strata_rows(self, tmp_path):
        out = tmp_path / "bench"
        run_cli(*self.bench_args(out))
        lines = [l for l in (out / "report.txt").read_text().splitlines() if l]
        stems = [l.split()[0] for l in lines[1:]]
        assert stems[0] == "stratum"
        assert stems[1:] == ["urban_industrial", "agricultural", "mountain",
                             "peninsula", "grassland_shrubland", "overall"]


class TestOnePipeline:
    """``bench`` runs the step functions: the step commands over its grids agree."""

    INPUTS = {"dem": "original", "reference": "reference", "bare": "mask_bare",
              "urban": "mask_urban", "forest": "mask_forest", "strata": "strata"}

    @staticmethod
    def without_provenance(path):
        doc = json.loads(path.read_text())
        doc.pop("provenance", None)
        return doc

    def test_steps_over_bench_grids_match_bench(self, tmp_path):
        bench, steps = tmp_path / "bench", tmp_path / "steps"
        sets = ("--set", "sampling.rate=0.5", "--set", "gbdt.n_trees=6")
        assert run_cli("bench", "--out", bench, "--set", "bench.size_exponent=6", *sets) == 0
        paths = {key: str(bench / f"{stem}.asc") for key, stem in self.INPUTS.items()}
        cfg_path = tmp_path / "steps.json"
        cfg_path.write_text(json.dumps({"paths": paths}))
        for cmd in ("features", "diagnose", "train", "correct", "evaluate"):
            assert run_cli(cmd, "--config", cfg_path, "--out", steps, *sets) == 0, cmd

        written = sorted(p.name for p in steps.iterdir())
        # manifest, stack, 11 layers, collinearity, 3 x (model + 3 rasters), report
        assert len(written) == 1 + 1 + 11 + 1 + 3 * 4 + 2
        for name in written:
            if name.endswith(".json"):
                assert self.without_provenance(steps / name) == \
                    self.without_provenance(bench / name), name
            else:
                assert (steps / name).read_bytes() == (bench / name).read_bytes(), name
        for out in (bench, steps):
            screen = json.loads((out / "collinearity.json").read_text())
            mlr = json.loads((out / "model_mlr.json").read_text())
            assert screen["flagged"] == mlr["excluded_features"]


class TestImportPath:
    """scipy is needed only to fit the MLR, so no other step imports it."""

    SRC = str(Path(cli.__file__).resolve().parents[1])
    #: a step command run with the import of scipy blocked
    BLOCKED = ("import sys; sys.modules['scipy'] = None; "
               "from demcorrect.cli import main; sys.exit(main(sys.argv[1:]))")

    def python(self, code, *args):
        env = {**os.environ, "PYTHONPATH": self.SRC}
        return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_cli_import_loads_no_scipy(self):
        proc = self.python("import sys, demcorrect.cli; "
                           "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_steps_without_scipy_write_the_same_bytes(self, workspace):
        cfg_path, tmp = workspace
        out = tmp / "out"
        steps = ("features", "diagnose", "train", "correct", "evaluate")
        for step in steps:
            assert run_cli(step, "--config", cfg_path) == 0, step
        want = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        for step in steps:
            if step == "train":  # the MLR fit needs scipy.linalg
                assert run_cli(step, "--config", cfg_path) == 0
                continue
            proc = self.python(self.BLOCKED, step, "--config", cfg_path)
            assert proc.returncode == 0, (step, proc.stderr)
        got = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name] == want[name], name


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()


class TestInputErrors:
    """User-input faults exit 2 with a one-line ``error:`` message."""

    def assert_input_error(self, rc, capsys, needle):
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    def test_geometry_mismatch(self, workspace, capsys):
        cfg_path, tmp = workspace
        cfg = json.loads(cfg_path.read_text())
        other = synth_landcover(fractal_dem(4, seed=3), seed=5).urban  # 17x17
        save_grid(other, tmp / "urban_small.asc")
        cfg["paths"]["urban"] = str(tmp / "urban_small.asc")
        cfg_path.write_text(json.dumps(cfg))
        self.assert_input_error(run_cli("features", "--config", cfg_path), capsys,
                                "geometry")

    def test_model_format_error(self, workspace, capsys):
        cfg_path, tmp = workspace
        run_cli("features", "--config", cfg_path)
        doc = tmp / "no_params.json"
        doc.write_text(json.dumps({"format": "gbdt-model", "version": 1}))
        capsys.readouterr()
        rc = run_cli("correct", "--config", cfg_path, "--model-doc", doc)
        self.assert_input_error(rc, capsys, "malformed model document")

    def test_non_json_model_doc(self, workspace, capsys):
        cfg_path, tmp = workspace
        run_cli("features", "--config", cfg_path)
        doc = tmp / "garbage.json"
        doc.write_text("not json {")
        capsys.readouterr()
        rc = run_cli("correct", "--config", cfg_path, "--model-doc", doc)
        self.assert_input_error(rc, capsys, "garbage.json' is not valid JSON")

    def test_singular_design(self, workspace, capsys):
        cfg_path, tmp = workspace
        run_cli("features", "--config", cfg_path)
        out = tmp / "out"
        (out / "feature_tri.asc").write_bytes((out / "feature_tpi.asc").read_bytes())
        capsys.readouterr()
        rc = run_cli("train", "--config", cfg_path, "--model", "mlr",
                     "--set", "collinearity.vif=Infinity")
        self.assert_input_error(rc, capsys, "rank deficient")

    def test_zero_variance(self, workspace, capsys):
        cfg_path, tmp = workspace
        cfg = json.loads(cfg_path.read_text())
        save_grid(fractal_dem(5, relief_amplitude=0.0), tmp / "flat.asc")
        cfg["paths"]["dem"] = str(tmp / "flat.asc")
        cfg_path.write_text(json.dumps(cfg))
        run_cli("features", "--config", cfg_path)
        capsys.readouterr()
        self.assert_input_error(run_cli("diagnose", "--config", cfg_path), capsys,
                                "zero variance")

    def test_empty_table(self, workspace, capsys):
        cfg_path, tmp = workspace
        cfg = json.loads(cfg_path.read_text())
        ref = load_grid(cfg["paths"]["reference"])
        save_grid(ref.with_values(np.full_like(ref.values, ref.nodata)), tmp / "void.asc")
        cfg["paths"]["reference"] = str(tmp / "void.asc")
        cfg_path.write_text(json.dumps(cfg))
        run_cli("features", "--config", cfg_path)
        capsys.readouterr()
        self.assert_input_error(run_cli("train", "--config", cfg_path), capsys,
                                "no cell has all features")

    @pytest.mark.parametrize("doc, needle", [
        ({"format": "linear-model", "version": 2}, "version=2"),
        ({"format": "linear-model", "version": 1}, "lacks 'feature_names'"),
        ({"format": "linear-model", "version": 1, "feature_names": ["slope"],
          "intercept": "q", "coefficients": [1.0], "r_squared": 0.5,
          "residual_std": 1.0}, "could not convert string to float: 'q'"),
        ({"format": "linear-model", "version": 1, "feature_names": ["slope"],
          "intercept": float("nan"), "coefficients": [1.0], "r_squared": 0.5,
          "residual_std": 1.0}, "intercept and coefficients must be finite"),
    ], ids=["linear-version", "linear-missing-key", "linear-field-text", "linear-intercept-nan"])
    def test_malformed_linear_model_doc(self, workspace, capsys, doc, needle):
        self.assert_bad_model_doc(workspace, capsys, doc, needle)

    @pytest.mark.parametrize("trees, needle", [
        ([{"nodes": [{"feature": "a", "threshold": 0.0, "left": 1, "right": 2},
                     {"value": 1.0}, {"value": 2.0}]}], "node 0 field is not a number"),
        ([{"nodes": [{"value": "z"}]}], "node 0 field is not a number"),
        ([[1, 2]], "tree 0: not an object"),
        ([{"nodes": [{"value": float("inf")}]}], "node 0 field is not a number: "
                                                 "value must be finite, got inf"),
    ], ids=["gbdt-feature-text", "gbdt-value-text", "gbdt-tree-list", "gbdt-leaf-infinity"])
    def test_malformed_gbdt_doc(self, workspace, capsys, trees, needle):
        doc = {"format": "gbdt-model", "version": 1, "params": GbdtParams(n_trees=1).to_doc(),
               "base_score": 0.0, "feature_names": ["elevation"], "trees": trees}
        self.assert_bad_model_doc(workspace, capsys, doc, needle)

    def test_gbdt_doc_train_rmse_text(self, workspace, capsys):
        doc = {"format": "gbdt-model", "version": 1, "params": GbdtParams(n_trees=1).to_doc(),
               "base_score": 0.0, "feature_names": ["elevation"],
               "trees": [{"nodes": [{"value": 1.0}]}], "train_rmse": ["x"]}
        self.assert_bad_model_doc(workspace, capsys, doc,
                                  "malformed model document: could not convert string to float")

    def test_manifest_without_layers(self, workspace, capsys):
        cfg_path, tmp = workspace
        run_cli("features", "--config", cfg_path)
        path = tmp / "out" / "features_manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["layers"]
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        self.assert_input_error(run_cli("train", "--config", cfg_path), capsys,
                                "features_manifest.json': 'layers' is missing or not an array")

    def test_model_names_missing_layer(self, workspace, capsys):
        doc = {"format": "linear-model", "version": 1, "feature_names": ["nosuch"],
               "intercept": 0.0, "coefficients": [1.0], "r_squared": 0.5,
               "residual_std": 1.0}
        self.assert_bad_model_doc(workspace, capsys, doc,
                                  "bad_model.json' names feature layer 'nosuch'")

    def assert_bad_model_doc(self, workspace, capsys, doc, needle):
        cfg_path, tmp = workspace
        run_cli("features", "--config", cfg_path)
        path = tmp / "bad_model.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = run_cli("correct", "--config", cfg_path, "--model-doc", path)
        self.assert_input_error(rc, capsys, needle)

    def test_non_finite_nodata_header(self, workspace, capsys):
        cfg_path, tmp = workspace
        dem = tmp / "dem.asc"
        lines = dem.read_text().splitlines(keepends=True)
        lines[5] = "NODATA_value nan\n"
        dem.write_text("".join(lines))
        self.assert_input_error(run_cli("features", "--config", cfg_path), capsys,
                                "line 6: NODATA_value must be finite, got nan")

    @pytest.mark.parametrize("setting", [
        "gbdt.n_trees=0", "gbdt.learning_rate=2", "sampling.rate=0",
        "sampling.train_fraction=1.5", "sampling.seed=-1", "windows.tpi_radius=0",
        "bench.size_exponent=0", "bench.cellsize=-1", "bench.noise_fraction=-1",
        "bench.terrain_seed=-1", "collinearity.vif=abc", "collinearity.r_abs=x",
        'bench.error_spec={"linear_terms": {"nosuch": 1}}',
        'bench.error_spec={"nonlinear_terms": [{"feature": "slope", "kind": "cube", '
        '"amplitude": 1}]}',
        "gbdt.lambda=NaN", "gbdt.min_gain=NaN", "bench.base_height=NaN",
        "bench.base_height=Infinity", "bench.relief_amplitude=Infinity",
        "bench.cellsize=Infinity", "bench.noise_fraction=Infinity",
        "windows.texture_threshold=NaN", "collinearity.vif=NaN",
        'bench.error_spec={"noise_std": NaN}',
        'bench.error_spec={"linear_terms": {"slope": NaN}}',
        'bench.error_spec={"nonlinear_terms": [{"feature": "slope", "kind": "sine", '
        '"amplitude": Infinity}]}',
        # integer keys refuse a fraction or a bool rather than truncate it
        "gbdt.n_trees=2.5", "gbdt.max_depth=true", "gbdt.max_leaves=7.5",
        "gbdt.min_samples_leaf=false", "gbdt.seed=0.5", "sampling.seed=true",
        "windows.roughness_radius=1.5", "windows.roughness_radius=true",
        "windows.tpi_radius=1.25", "windows.vrm_radius=true", "windows.landcover_radius=2.5",
        "windows.texture_radius=10.5", "bench.size_exponent=5.5", "bench.terrain_seed=true",
        "bench.landcover_seed=1.5",
    ])
    def test_out_of_range_value(self, tmp_path, capsys, setting):
        rc = run_cli("bench", "--out", tmp_path, "--set", setting)
        self.assert_input_error(rc, capsys, f"configuration key '{setting.split('=')[0]}': ")

    @pytest.mark.parametrize("setting, needle", [
        ("bench.error_spec.slope=5",
         "configuration key 'bench.error_spec': unknown error spec key 'slope'"),
        ("bench.error_spec.linear_terms.slope.x=5",
         "unknown configuration key 'bench.error_spec.linear_terms.slope'"),
        ('bench.error_spec.nonlinear_terms=[{"feature": "slope", "kind": "sine", '
         '"amplitude": 1, "phase": 2}]', "unknown nonlinear term key 'phase'"),
    ], ids=["spec-stray-key", "spec-path-through-number", "spec-term-stray-key"])
    def test_error_spec_path(self, tmp_path, capsys, setting, needle):
        rc = run_cli("bench", "--out", tmp_path, "--set", setting)
        self.assert_input_error(rc, capsys, needle)

    @pytest.mark.parametrize("settings, needle", [
        (["sampling.rate=0.01"], "pearson_matrix requires at least 2 rows; have 1"),
        (["sampling.rate=0.6", "sampling.train_fraction=0.99"], "no cell is valid in every grid"),
    ], ids=["one-training-row", "empty-test-split"])
    def test_too_few_sampled_rows(self, tmp_path, capsys, settings, needle):
        overrides = [arg for s in settings for arg in ("--set", s)]
        rc = run_cli("bench", "--out", tmp_path, "--model", "mlr",
                     "--set", "bench.size_exponent=5", *overrides)
        self.assert_input_error(rc, capsys, needle)

    def test_non_integer_strata_label(self, workspace, capsys):
        cfg_path, tmp = workspace
        strata = load_grid(tmp / "strata.asc")
        labels = strata.values.copy()
        labels[0] = 1.5
        save_grid(strata.with_values(labels), tmp / "strata.asc")
        run_cli("features", "--config", cfg_path)
        capsys.readouterr()
        self.assert_input_error(run_cli("diagnose", "--config", cfg_path), capsys,
                                "strata grid must hold integer labels; cell (0, 0) holds 1.5")
