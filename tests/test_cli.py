import contextlib
import copy
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demcorrect.cli as cli
import demcorrect.grid as grid_module
import demcorrect.store as store
from demcorrect import (
    CANONICAL_FEATURES,
    STRATUM_NAMES,
    FeatureStack,
    GbdtParams,
    GeometryMismatch,
    Grid,
    LinearModel,
    SampleTable,
    build_feature_stack,
    build_report,
    difference,
    extract_samples,
    fit_gbdt,
    flag_collinear,
    fractal_dem,
    load_grid,
    save_grid,
    serialize_model,
    synth_landcover,
    write_ascii_grid,
)
from demcorrect.cli import ConfigError, main, resolve_config, worker_count
import demcorrect.terrain as terrain
from conftest import NODATA, make_grid, write_stack


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


def files_under(out: Path) -> dict:
    """The bytes of every file under ``out``, by its path relative to ``out``."""
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}


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
            set = ["gbdt.n_trees=3.0", "bench.error_spec.seed=2.0"]
            model = None
            seed = None
            out = None

        cfg = resolve_config(Args())
        assert cli._gbdt_params(cfg, "depthwise").n_trees == 3
        assert cli._bench_args(cfg)[3].seed == 2

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
        """A rerun writes the same manifest, which records no binary copy,
        and the same copy of each layer and of each input, named by its
        file's sha256."""
        cfg_path, tmp = workspace
        out = tmp / "out"
        run_cli("features", "--config", cfg_path)
        m1 = (out / "features_manifest.json").read_text()
        copies = {p.name: p.read_bytes() for p in out.glob("grids/v1/*")}
        run_cli("features", "--config", cfg_path)
        assert (out / "features_manifest.json").read_text() == m1
        manifest = json.loads(m1)
        assert "stack" not in manifest
        digests = {layer["sha256"] for layer in manifest["layers"]} | {
            store.sha256_file(tmp / f"{key}.asc") for key in ("dem", "bare", "urban", "forest")}
        assert set(copies) == {digest + suffix for digest in digests
                               for suffix in (".npy", ".sha256")}
        assert {p.name: p.read_bytes() for p in out.glob("grids/v1/*")} == copies

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

    def test_refused_build_leaves_the_earlier_files(self, workspace, monkeypatch, capsys):
        """A mask fault in the grid's last row refuses the build after three
        row blocks were written: no new file stays, and the files of the
        earlier run keep their bytes."""
        cfg_path, tmp = workspace
        out = tmp / "out"
        assert run_cli("features", "--config", cfg_path) == 0
        before = files_under(out)
        dem = load_grid(tmp / "dem.asc")
        save_grid(dem.with_values(np.where(dem.valid_mask(), dem.values + 1.0, dem.nodata)),
                  tmp / "dem.asc")
        bare = load_grid(tmp / "bare.asc")
        values = bare.values.copy()
        values[-1, 3] = 2.0
        save_grid(bare.with_values(values), tmp / "bare.asc")
        monkeypatch.setattr(terrain, "BLOCK_ROWS", 8)
        capsys.readouterr()
        assert run_cli("features", "--config", cfg_path) == 2
        err = capsys.readouterr().err
        assert "bare mask must hold only 0, 1 or nodata; found 2.0 at cell (32, 3)" in err, err
        assert files_under(out) == before

    @pytest.mark.parametrize("mask", ["bare", "urban", "forest"])
    def test_mask_fault_names_the_mask(self, workspace, capsys, mask):
        """The message names the faulty mask, its key and file, and prints
        the value as a float."""
        cfg_path, tmp = workspace
        grid = load_grid(tmp / f"{mask}.asc")
        values = grid.values.copy()
        values[5, 7] = 0.5
        save_grid(grid.with_values(values), tmp / f"{mask}.asc")
        assert run_cli("features", "--config", cfg_path) == 2
        err = capsys.readouterr().err
        assert err == (f"error: paths.{mask} '{tmp / mask}.asc': {mask} mask must hold only "
                       "0, 1 or nodata; found 0.5 at cell (5, 7)\n"), err


class TestStreamedWriter:
    """The ``features`` step writes each row block as it is built, through
    one ``store.GridWriter`` per layer: its files equal those of the
    assembled stack written whole, however it is cut."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block_rows", [1, 5, 64])
    def test_streamed_files_equal_the_assembled_stack(self, tmp_path, monkeypatch, block_rows,
                                                      workers):
        dem = fractal_dem(5, seed=3)
        land = synth_landcover(dem, seed=5)
        # a mask whose corner differs within the geometry tolerance keeps its own header
        bare = Grid(dem.ncols, dem.nrows, dem.xll + 1e-10, dem.yll, dem.cellsize, -1.0,
                    land.bare.values)
        grids = (dem, bare, land.urban, land.forest)
        cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
        cfg["windows"].update(texture_radius=3, vrm_radius=2)
        streamed, whole = tmp_path / "streamed", tmp_path / "whole"
        streamed.mkdir()
        whole.mkdir()
        with monkeypatch.context() as patch:
            patch.setattr(terrain, "BLOCK_ROWS", block_rows)
            patch.setenv("DEMCORRECT_THREADS", str(workers))
            cli._features_step(cfg, *grids, streamed)
        write_stack(build_feature_stack(*grids, cli._feature_config(cfg)), cfg, whole)
        files = files_under(whole)
        assert len([name for name in files if "grids" not in name.parts]) == 12
        assert len(files) > 12 and files_under(streamed) == files
        assert (whole / "feature_pct_bare.asc").read_text().splitlines()[2] == "xllcorner 1e-10"


#: JSON values that the encoder spells in ways of its own: signed zero,
#: exponents, NaN and infinities, integers past 2**64 and non-ASCII text
_json_docs = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text()
    | st.sampled_from([-0.0, 1e-05, 1e16, -1e16, float("nan"), float("inf"), float("-inf")]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=24)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(max_size=6), _json_docs, max_size=5))
def test_write_json_writes_what_dumps_returns(doc):
    """``_write_json`` encodes into the file: the bytes are those of the
    document encoded whole."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        cli._write_json(path, doc)
        assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


class TestFeatureStackFile:
    """The binary copy of each feature layer (``grids/v1``) spares later
    steps the layer's ASCII parse, never changing a bit."""

    OUTPUTS = ("collinearity.json", "model_mlr.json", "model_gbdt-depthwise.json",
               "model_gbdt-leafwise.json", "corrected_mlr.asc",
               "corrected_gbdt-depthwise.asc", "predicted_error_mlr.asc",
               "abs_error_gbdt-leafwise.asc")
    LAYERS = sorted(f"feature_{name}.asc" for name in CANONICAL_FEATURES)

    def run_steps(self, cfg_path, out):
        for cmd in ("diagnose", "train", "correct"):
            assert run_cli(cmd, "--config", cfg_path) == 0, cmd
        return {f: (out / f).read_bytes() for f in self.OUTPUTS}

    @staticmethod
    def layer_copies(out):
        """The binary copy of each feature layer, by the layer's file name."""
        return {path.name: out / "grids" / "v1" / f"{store.sha256_file(path)}.npy"
                for path in out.glob("feature_*.asc")}

    @pytest.fixture
    def parsed(self, monkeypatch):
        """The name of the file of each ASCII parse: one entry for each block
        of rows parsed (a grid of at most ``grid._SINK_ROWS`` rows is one)."""
        names = []
        real = grid_module._parse_rows

        def counting(lines, *args, **kwargs):
            names.append(Path(lines.name).name)
            return real(lines, *args, **kwargs)

        monkeypatch.setattr(grid_module, "_parse_rows", counting)
        return names

    @pytest.fixture
    def parsed_outputs(self, workspace):
        """Step outputs from a directory without the layers' copies, whose
        layers ``diagnose`` parses from ASCII into copies."""
        cfg_path, tmp = workspace
        out = tmp / "out"
        run_cli("features", "--config", cfg_path)
        shutil.rmtree(out / "grids")
        return self.run_steps(cfg_path, out)

    def test_steps_skip_the_parse_with_the_same_outputs(self, workspace, parsed_outputs,
                                                        parsed):
        cfg_path, tmp = workspace
        run_cli("features", "--config", cfg_path)
        parsed.clear()
        assert self.run_steps(cfg_path, tmp / "out") == parsed_outputs
        assert not [name for name in parsed if name.startswith("feature_")], parsed

    @pytest.mark.parametrize("damage", ["truncated", "stale"])
    def test_bad_stack_file_falls_back_to_parsing(self, workspace, parsed_outputs,
                                                  parsed, damage):
        """A truncated layer copy, or one whose values no longer match its
        record, is parsed past: each layer is parsed from its ``.asc``."""
        cfg_path, tmp = workspace
        out = tmp / "out"
        run_cli("features", "--config", cfg_path)
        for path in self.layer_copies(out).values():
            if damage == "truncated":
                path.write_bytes(path.read_bytes()[:-8])
            else:
                np.save(path, np.zeros_like(np.load(path)))
        parsed.clear()
        assert self.run_steps(cfg_path, out) == parsed_outputs
        assert sorted({name for name in parsed if name.startswith("feature_")}) == self.LAYERS

    def test_manifest_with_a_stack_record_loads(self, workspace, parsed_outputs, parsed):
        """The ``stack`` record that earlier versions wrote into the
        manifest is not read."""
        cfg_path, tmp = workspace
        out = tmp / "out"
        run_cli("features", "--config", cfg_path)
        manifest = json.loads((out / "features_manifest.json").read_text())
        manifest["stack"] = {"file": "features_stack.npy", "sha256": "0" * 64}
        (out / "features_manifest.json").write_text(json.dumps(manifest))
        parsed.clear()
        assert self.run_steps(cfg_path, out) == parsed_outputs
        assert not [name for name in parsed if name.startswith("feature_")], parsed

    def test_loaded_layers_bit_identical_to_parsed(self, tmp_path, parsed):
        vals = np.array([[-0.0, NODATA, 1e16, 9999999999999998.0],
                         [5e-324, 1e22, 1e-05, -1.5]])
        stack = FeatureStack(("a", "b"), (make_grid(vals, cellsize=30.0, xll=-7.5),
                                          make_grid(-vals[::-1], cellsize=30.0, xll=-7.5)))
        write_stack(stack, cli.DEFAULT_CONFIG, tmp_path)
        loaded = cli._load_stack(tmp_path)
        assert parsed == []
        assert all(isinstance(layer, store.Slab) for layer in loaded.layers)
        for name, values, nodata in zip(loaded.names, loaded.rows(0, 2), loaded.nodata):
            ref = load_grid(tmp_path / f"feature_{name}.asc")
            assert values.tobytes() == ref.values.tobytes()
            assert (loaded.geometry, nodata) == (ref.geometry, ref.nodata)

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "parsed"])
    def test_layer_off_the_stack_geometry_refused(self, tmp_path, binary):
        """A layer whose header is off the first layer's geometry is refused,
        with or without the layers' copies, naming its file and both
        geometries; without them, before any layer is parsed into a copy."""
        a = make_grid(np.ones((2, 3)), cellsize=30.0)
        b = make_grid(np.ones((2, 3)), cellsize=30.0, xll=15.0)
        # not a FeatureStack, which refuses layers off one geometry
        write_stack(SimpleNamespace(names=("a", "b"), layers=(a, b)), cli.DEFAULT_CONFIG,
                    tmp_path)
        if not binary:
            shutil.rmtree(tmp_path / "grids")
        message = (f"feature layer '{tmp_path / 'feature_b.asc'}' (3 x 2, xll 15.0, yll 0.0, "
                   "cellsize 30.0) is not on the feature stack's geometry (3 x 2, xll 0.0, "
                   "yll 0.0, cellsize 30.0)")
        with pytest.raises(GeometryMismatch, match=f"^{re.escape(message)}$"):
            cli._load_stack(tmp_path)
        assert (tmp_path / "grids").exists() == binary

    def test_layers_with_equal_bytes_share_one_copy(self, workspace):
        """All-zero bare and forest masks make equal percentage layers: one
        copy serves both layers, and one both masks; no temporary file
        stays."""
        cfg_path, tmp = workspace
        for mask in ("bare", "forest"):
            grid = load_grid(tmp / f"{mask}.asc")
            save_grid(grid.with_values(np.where(grid.valid_mask(), 0.0, grid.nodata)),
                      tmp / f"{mask}.asc")
        assert run_cli("features", "--config", cfg_path) == 0
        out = tmp / "out"
        copies = self.layer_copies(out)
        assert (out / "feature_pct_bare.asc").read_bytes() == \
            (out / "feature_pct_forest.asc").read_bytes()
        assert copies["feature_pct_bare.asc"] == copies["feature_pct_forest.asc"]
        masks = {out / "grids" / "v1" / f"{store.sha256_file(tmp / f'{mask}.asc')}.npy"
                 for mask in ("bare", "forest")}
        assert len(masks) == 1
        assert sorted(out.glob("grids/v1/*.npy")) == sorted(set(copies.values()) | masks)
        assert len(set(copies.values())) == 10
        assert len(list(out.glob("grids/v1/*.sha256"))) == 10 + 1
        assert not list(out.rglob("*.partial"))
        for name, npy in copies.items():
            assert np.load(npy).tobytes() == load_grid(out / name).values.tobytes(), name

    @staticmethod
    def bench_grids(tmp_path) -> Path:
        """A configuration of the step commands over a small ``bench``'s grids."""
        bench = tmp_path / "bench"
        assert run_cli("bench", "--out", bench, "--set", "bench.size_exponent=5",
                       "--set", "windows.texture_radius=3", "--model", "mlr") == 0
        cfg_path = tmp_path / "steps.json"
        cfg_path.write_text(json.dumps({"paths": {
            key: str(bench / f"{stem}.asc") for key, stem in TestOnePipeline.INPUTS.items()}}))
        return cfg_path

    def test_diagnose_reads_the_dem_from_the_elevation_copy(self, tmp_path, parsed):
        """On the grids that ``bench`` writes, the elevation layer has the
        DEM's bytes, so ``diagnose`` reads the DEM from the layer's copy
        and parses only the reference and the strata."""
        cfg_path, bench = self.bench_grids(tmp_path), tmp_path / "bench"
        steps = tmp_path / "steps"
        assert run_cli("features", "--config", cfg_path, "--out", steps) == 0
        assert (steps / "feature_elevation.asc").read_bytes() == \
            (bench / "original.asc").read_bytes()
        parsed.clear()
        assert run_cli("diagnose", "--config", cfg_path, "--out", steps) == 0
        assert parsed == ["reference.asc", "strata.asc"]


    def assert_steps_parse(self, cfg_path, steps, parsed, dem: str) -> None:
        """The five steps, into ``steps``: ``features`` parses its four
        inputs into copies, ``diagnose`` the reference and the strata;
        ``train``, ``correct`` and ``evaluate`` nothing, ``evaluate`` reading
        the copy of the corrected DEM that ``correct`` wrote."""
        want = {"features": {dem, "mask_bare.asc", "mask_urban.asc", "mask_forest.asc"},
                "diagnose": {"reference.asc", "strata.asc"}, "train": set(), "correct": set(),
                "evaluate": set()}
        for step, names in want.items():
            parsed.clear()
            assert run_cli(step, "--config", cfg_path, "--out", steps, "--model", "mlr") == 0
            assert set(parsed) == names, step

    def test_each_step_parses_what_it_finds_no_copy_of(self, tmp_path, parsed):
        """Over a ``bench``'s grids, the DEM has the elevation layer's bytes
        and the urban mask the urban layer's, so each shares its copy:
        ``grids/v1`` ends with the 11 layers' copies and those of the bare
        and forest masks, the reference, the strata and the corrected DEM."""
        cfg_path, steps = self.bench_grids(tmp_path), tmp_path / "steps"
        self.assert_steps_parse(cfg_path, steps, parsed, "original.asc")
        assert len(list(steps.glob("grids/v1/*.npy"))) == 11 + 5
        assert len(list(steps.glob("grids/v1/*.sha256"))) == 11 + 5

    def test_no_step_after_features_parses_the_dem(self, tmp_path, parsed):
        """A DEM with the values of a ``bench``'s but other bytes (its lines
        end in CRLF) has a copy of its own, which ``features`` writes and
        every later step reads."""
        cfg_path, steps = self.bench_grids(tmp_path), tmp_path / "steps"
        dem = tmp_path / "dem.asc"
        dem.write_bytes((tmp_path / "bench" / "original.asc").read_bytes()
                        .replace(b"\n", b"\r\n"))
        cfg = json.loads(cfg_path.read_text())
        cfg["paths"]["dem"] = str(dem)
        cfg_path.write_text(json.dumps(cfg))
        self.assert_steps_parse(cfg_path, steps, parsed, "dem.asc")
        assert len(list(steps.glob("grids/v1/*.npy"))) == 11 + 6
        assert (steps / "grids" / "v1" / f"{store.sha256_file(dem)}.npy").is_file()


    def test_step_outputs_do_not_depend_on_the_grid_copies(self, tmp_path):
        """The five steps over a small ``bench``'s grids; then each step
        again, in turn, with ``grids/`` deleted before it. Every file
        outside ``grids/`` keeps its bytes, and the steps rebuild the same
        copies, with the same bytes."""
        cfg_path, steps = self.bench_grids(tmp_path), tmp_path / "steps"
        for step in self.STEPS:
            assert run_cli(step, "--config", cfg_path, "--out", steps, "--model", "mlr") == 0
        first = files_under(steps)
        rebuilt = {}
        for step in self.STEPS:
            shutil.rmtree(steps / "grids")
            assert run_cli(step, "--config", cfg_path, "--out", steps, "--model", "mlr") == 0
            files = files_under(steps)
            rebuilt.update((path, data) for path, data in files.items() if path.parts[0] == "grids")
            assert {path: data for path, data in files.items() if path.parts[0] != "grids"} == \
                {path: data for path, data in first.items() if path.parts[0] != "grids"}, step
        assert rebuilt == {path: data for path, data in first.items() if path.parts[0] == "grids"}
        assert len(rebuilt) == 2 * (11 + 5)

    STEPS = ("features", "diagnose", "train", "correct", "evaluate")


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
                  "true_error.asc"):
            assert (out / f).is_file(), f
        assert not list(out.glob("samples_*.csv"))

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

    def test_gbdt_documents_record_hist(self, tmp_path):
        """The pipeline fits its GBDTs on histograms."""
        out = tmp_path / "bench"
        assert run_cli(*self.bench_args(out), "--model", "gbdt-depthwise",
                       "--model", "gbdt-leafwise") == 0
        for name in ("gbdt-depthwise", "gbdt-leafwise"):
            doc = json.loads((out / f"model_{name}.json").read_text())
            assert doc["params"]["split"] == "hist"

    def test_bench_screens_once(self, tmp_path, monkeypatch):
        """The MLR is fit on the screen that diagnose wrote, not on a second one."""
        screens = []
        monkeypatch.setattr(cli, "flag_collinear",
                            lambda *a, **k: screens.append(1) or flag_collinear(*a, **k))
        assert run_cli(*self.bench_args(tmp_path / "bench"), "--model", "mlr") == 0
        assert len(screens) == 1

    def test_closed_stdout_exits_141_silently(self, tmp_path):
        """A reader that leaves before bench prints (``bench | head -n 1``):
        exit 141, nothing on stderr, every file written, none ``.partial``."""
        args = [str(a) for a in self.bench_args(tmp_path / "bench")] + ["--model", "mlr"]
        assert run_cli(*args[:2], tmp_path / "whole", *args[3:]) == 0
        proc = subprocess.Popen([sys.executable, "-m", "demcorrect", *args],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": TestImportPath.SRC})
        proc.stdout.close()  # the read end: bench's first write fails
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert stderr == b""
        names = sorted(p.name for p in (tmp_path / "bench").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "whole").iterdir())
        assert not [n for n in names if n.endswith(".partial")]

    def test_documents_are_strict_json(self, tmp_path):
        """An infinite threshold is written as the string "Infinity" in every
        document, the resolved configuration included."""
        def refuse(name):
            raise AssertionError(f"{path.name} holds {name}, which strict JSON has not")

        out = tmp_path / "bench"
        assert run_cli(*self.bench_args(out), "--set", "collinearity.vif=Infinity") == 0
        docs = sorted(out.glob("*.json"))
        assert "resolved_config.json" in {path.name for path in docs}
        for path in docs:
            doc = json.loads(path.read_text(), parse_constant=refuse)
            if path.name == "resolved_config.json":
                assert doc["collinearity"]["vif"] == "Infinity"
                cfg = resolve_config(SimpleNamespace(set=["collinearity.vif=Infinity",
                                                          *self.bench_args(out)[4::2]],
                                                     out=str(out)))
                assert doc["provenance"]["config_digest"] == cli.config_digest(cfg)

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

        written = sorted(p.name for p in steps.iterdir() if p.is_file())
        # manifest, 11 layers, collinearity, 3 x (model + 3 rasters), report
        assert len(written) == 1 + 11 + 1 + 3 * 4 + 2
        # and a copy and its digest record of each layer, and of each grid
        # read: the DEM and the urban mask, which have the elevation and
        # urban layers' bytes and so their copies, the bare and forest masks,
        # the reference, the strata and the three corrected DEMs
        assert sorted(p.suffix for p in steps.glob("grids/v1/*")) == \
            [".npy"] * (11 + 7) + [".sha256"] * (11 + 7)
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


class TestStepMemory:
    """Tracemalloc peaks of the steps against the bounds the README's
    "Memory" section states, each grid file read as the steps read it: a
    ``store.Slab`` of its binary copy, a block of rows at a time. h and w
    are the grid's rows and columns, B = ``terrain.BLOCK_ROWS`` the rows of
    a block read and C = ``grid._SINK_ROWS`` those of a chunk parsed into a
    copy, H = 11 the feature build's halo, F the stack's layers and m a
    model's features; k of n eligible cells are sampled.

    - sampling: 8*B*w*(F + 5) + k*(9*F + 32) bytes, plus 8*n where numpy
      draws by a tail shuffle (k > n/50, n > 10,000);
    - ``diagnose`` and ``train``, their reads and sampling:
      8*B*w*(F + 10) + 2*k*(9*F + 32); parsing a file into its copy, C
      rows at a time, takes about 20*C*w bytes and the 1 MiB buffer of its
      sha256, less than either at these sizes;
    - correcting with one model: 8*B*w*(2*m + 9); the ``correct`` step,
      with the DEM's and the reference's blocks: 8*B*w*(2*m + 11);
    - building the features: 8*w*(35*B + 40*H) + 32*w*(3*B + 4*H), of
      which the four inputs' slab buffers take 32*w*(B + 2*H);
    - evaluating M corrected grids, n cells valid in every grid and s in
      the largest stratum: 8*n*(M + 3) + 8*s*(M + 2) + 16*B*w*(M + 3).

    The inputs, and the copies of every grid file, are made once per
    module; a ``Slab`` is made before tracing, its buffer is not. The
    whole-grid code held every layer: 88 bytes per cell before either.
    """

    MODELS = ("mlr", "gbdt-depthwise")  # of the corrected DEMs that evaluate scores

    @pytest.fixture(scope="module", params=[9, 10], ids=["513", "1025"])
    def inputs(self, request, tmp_path_factory):
        """The feature layers written into a new directory through the
        ``features`` writer, with their copies, and the DEM, a reference
        and the strata."""
        tmp = tmp_path_factory.mktemp(f"memory{request.param}")
        dem = fractal_dem(request.param, seed=7)
        land = synth_landcover(dem, seed=11)
        write_stack(build_feature_stack(dem, land.bare, land.urban, land.forest),
                    cli.DEFAULT_CONFIG, tmp)
        rng = np.random.default_rng(5)
        reference = dem.with_values(np.where(dem.valid_mask(), dem.values - rng.normal(
            size=dem.values.shape), dem.nodata))
        return dem, reference, land.strata, tmp

    @pytest.fixture(scope="module")
    def grid_files(self, inputs):
        """The ASCII files the steps read, with their copies: the DEM, its
        masks, reference and strata, and, as ``evaluate`` finds them in its
        own output directory, two corrected DEMs with holes of their own."""
        dem, reference, strata, tmp = inputs
        land = synth_landcover(dem, seed=11)
        rng = np.random.default_rng(3)
        grids = {"dem": dem, "bare": land.bare, "urban": land.urban, "forest": land.forest,
                 "reference": reference, "strata": strata}
        for name in self.MODELS:
            keep = dem.valid_mask() & (rng.random(dem.values.shape) > 0.05)
            grids[name] = dem.with_values(np.where(
                keep, dem.values - rng.normal(size=dem.values.shape), dem.nodata))
        paths = {name: tmp / f"{name}.asc" for name in grids}
        (tmp / "evaluate").mkdir()
        paths.update({name: tmp / "evaluate" / f"corrected_{name}.asc" for name in self.MODELS})
        for name, grid in grids.items():
            save_grid(grid, paths[name])
            store.read_grid(paths[name], paths[name].parent)
        for key in ("reference", "dem", "strata"):
            store.read_grid(paths[key], tmp / "evaluate")
        return paths

    @staticmethod
    def traced(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def config(grid_files, out, keys, **settings):
        cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
        cfg["paths"].update({key: str(grid_files[key]) for key in keys}, out_dir=str(out))
        cfg.update(settings)
        return cfg

    @pytest.mark.parametrize("step", ["diagnose", "train", "correct"])
    def test_step_reads_within_the_stated_bound(self, inputs, grid_files, step):
        """``_load_train_split`` (``diagnose`` parsing the reference and
        the strata into copies, ``train`` reading those) and ``cmd_correct``
        (reading the DEM and reference from their copies), over the stack
        read from the layers' copies: each input a block at a time."""
        dem, _, _, out = inputs
        cfg = self.config(grid_files, out, ("dem", "reference", "strata"), models=["mlr"])
        cfg["sampling"]["rate"] = 0.01
        for key in ("dem", "reference", "strata"):
            npy = out / store.COPIES / f"{store.sha256_file(grid_files[key])}.npy"
            if step == "diagnose" and key != "dem":  # the DEM has the elevation layer's copy
                npy.unlink(missing_ok=True)
            else:
                store.read_grid(grid_files[key], out)
        F, w, B = len(CANONICAL_FEATURES), dem.ncols, terrain.BLOCK_ROWS
        if step == "correct":
            names = CANONICAL_FEATURES[:10]
            model = LinearModel(names, 0.5, np.linspace(-1, 1, len(names)), 0.0, 0.0)
            (out / "model_mlr.json").write_text(json.dumps(model.to_doc()))
            _, peak = self.traced(cli.cmd_correct, cfg)
            # the correct step's bound, and a block of the DEM and of the reference
            bound = 8 * B * w * (2 * len(names) + 11)
        else:
            (_, train), peak = self.traced(cli._load_train_split, cfg)
            k = round(len(train) / 0.8)  # the sampled rows, before the split
            # sampling's bound, with the DEM's, reference's and strata's blocks
            # and the target's, and the table again for its two sides
            bound = 8 * B * w * (F + 10) + 2 * k * (9 * F + 32)
        assert 0.5 * bound <= peak <= bound, (peak, bound)

    def traced_sampling(self, inputs, rate):
        """The traced peak of sampling the stack of ``inputs`` as
        ``_load_stack`` serves it, and its bound."""
        dem, reference, strata, out = inputs
        target = dem.with_values(difference(dem, reference).rows(0, dem.nrows))
        stack = cli._load_stack(out)
        assert all(isinstance(layer, store.Slab) for layer in stack.layers)
        table, peak = self.traced(extract_samples, stack, target, strata, rate=rate, seed=42)
        n, k = round(len(table) / rate), len(table)
        F, w = len(stack.names), dem.ncols
        bound = 8 * terrain.BLOCK_ROWS * w * (F + 5) + k * (9 * F + 32) + 8 * n * (k > n / 50)
        return peak, bound

    @pytest.mark.parametrize("rate", [0.01, 0.25])
    def test_sampling_within_the_stated_bound(self, inputs, rate):
        peak, bound = self.traced_sampling(inputs, rate)
        # the claim is the upper bound; the floor shows the blocks were traced
        assert 0.5 * bound <= peak <= bound, (peak, bound)

    def test_correct_within_the_stated_bound(self, inputs):
        dem, reference, _, out = inputs
        stack = cli._load_stack(out)
        names = stack.names[:10]
        model = LinearModel(names, 0.5, np.linspace(-1, 1, len(names)), 0.0, 0.0)
        _, peak = self.traced(cli._correct_step, {"mlr": (model, out / "model_mlr.json")},
                              stack, dem, reference, out)
        bound = 8 * terrain.BLOCK_ROWS * dem.ncols * (2 * len(names) + 9)
        assert 0.5 * bound <= peak <= bound, (peak, bound)

    def test_features_within_the_stated_bound(self, inputs, grid_files):
        slabs = [store.read_grid(grid_files[key], inputs[3])
                 for key in ("dem", "bare", "urban", "forest")]
        _, peak = self.traced(build_feature_stack, *slabs, sink=lambda first, rows: None)
        w = slabs[0].ncols
        B, H = terrain.BLOCK_ROWS, 11
        bound = 8 * w * (35 * B + 40 * H) + 32 * w * (3 * B + 4 * H)
        assert 0.5 * bound <= peak <= bound, (peak, bound)

    def evaluate_bound(self, report: dict, w: int) -> int:
        """The bound of scoring the models' corrected DEMs, from the
        document of their report."""
        n, M = report["overall"]["before"]["n"], len(self.MODELS)
        s = max(stratum["before"]["n"] for stratum in report["strata"].values())
        return 8 * n * (M + 3) + 8 * s * (M + 2) + 16 * terrain.BLOCK_ROWS * w * (M + 3)

    def test_evaluate_within_the_stated_bound(self, inputs, grid_files):
        """The whole ``evaluate`` step, which reads every grid from its copy:
        the corrected DEMs too, as ``correct`` writes them."""
        out = inputs[3] / "evaluate"
        cfg = self.config(grid_files, out, ("reference", "dem", "strata"),
                          models=list(self.MODELS))
        _, peak = self.traced(cli.cmd_evaluate, cfg)
        bound = self.evaluate_bound(json.loads((out / "report.json").read_text()),
                                    inputs[0].ncols)
        assert 0.5 * bound <= peak <= bound, (peak, bound)

    def test_evaluate_from_copies_within_the_stated_bound(self, inputs, grid_files):
        """``build_report`` alone, over the slabs of the five grids' copies."""
        out = inputs[3] / "evaluate"
        ref, dem, strata, *corrected = (store.read_grid(grid_files[key], out)
                                        for key in ("reference", "dem", "strata", *self.MODELS))
        report, peak = self.traced(build_report, ref, dem, dict(zip(self.MODELS, corrected)),
                                   strata, stratum_names=STRATUM_NAMES)
        bound = self.evaluate_bound(report.to_doc(), ref.ncols)
        assert 0.5 * bound <= peak <= bound, (peak, bound)


class TestBenchInputs:
    """``bench`` keeps only the clean terrain's layers that its error spec
    names, and injects the error that the whole stack gives."""

    SPECS = {
        "linear": {"linear_terms": {"tpi": 1.5, "roughness": -0.7}},
        "sine": {"nonlinear_terms": [{"feature": "aspect", "kind": "sine", "amplitude": 2.0,
                                      "scale": 1.3}]},
        "step": {"linear_terms": {"elevation": 0.5},
                 "nonlinear_terms": [{"feature": "pct_bare", "kind": "step", "amplitude": 1.5,
                                      "scale": 0.2}]},
        "interaction": {"nonlinear_terms": [{"feature": "vrm", "kind": "product",
                                             "amplitude": 1.0, "feature2": "urban"}]},
    }

    @staticmethod
    def config(size_exponent, spec=None):
        cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
        cfg["bench"]["size_exponent"] = size_exponent
        if spec is not None:
            cfg["bench"]["error_spec"] = {**spec, "seed": 5}
            cfg["windows"]["texture_radius"] = 3
        return cfg

    @pytest.mark.parametrize("kind", SPECS)
    def test_inputs_equal_those_of_the_whole_stack(self, tmp_path, monkeypatch, kind):
        cfg = self.config(6, self.SPECS[kind])
        names = []
        inject = cli.inject_error

        def recording(dem, stack, spec, noise_fraction):
            names.append(stack.names)
            return inject(dem, stack, spec, noise_fraction)

        monkeypatch.setattr(cli, "inject_error", recording)
        cli._bench_inputs(cfg, tmp_path)
        terrain_args, landcover_seed, fraction, spec = cli._bench_args(cfg)
        assert set(names) == {tuple(spec.referenced_features())}
        reference = fractal_dem(**terrain_args)
        land = synth_landcover(reference, seed=landcover_seed)
        whole = build_feature_stack(reference, land.bare, land.urban, land.forest,
                                    cli._feature_config(cfg))
        injected = inject(reference, whole, spec, fraction)
        for name, grid in (("original.asc", injected.degraded),
                           ("true_error.asc", injected.true_dh)):
            assert (tmp_path / name).read_text() == write_ascii_grid(grid), name

    @pytest.mark.parametrize("size_exponent", [8, 9])
    def test_generation_within_the_stated_bound(self, tmp_path, size_exponent):
        """For a spec that names s layers, the traced peak of making the
        inputs is at most 8*h*w*(2*s + 13) bytes: the five generated grids,
        the s kept layers and their s standardized copies, seven grids of
        the injection's own (the error field, its noise, and the degraded
        DEM and the true error, each also while it is copied into a grid),
        and one for masks and smaller objects. Holding every clean layer
        took 25.4 grids at the default spec (s = 4)."""
        cli._bench_inputs(self.config(5), tmp_path)  # imports what it needs, untraced
        cfg = self.config(size_exponent)
        _, peak = TestStepMemory.traced(cli._bench_inputs, cfg, tmp_path)
        s = len(cli._bench_args(cfg)[3].referenced_features())
        h = w = 2 ** size_exponent + 1
        bound = 8 * h * w * (2 * s + 13)
        assert 0.5 * bound <= peak <= bound, (peak, bound)


class TestBenchMemory:
    """``bench`` holds no whole derived layer it does not need, and writes its
    JSON documents without building each as one string, as the README's
    "Memory" section states; so does ``SampleTable.to_csv`` a table."""

    @pytest.fixture(scope="class", params=[0.25, 1.0], ids=["0.25", "1.0"])
    def traced_bench(self, request, tmp_path_factory):
        """``bench`` at 129² with the MLR alone, at sampling rate
        ``request.param``, run traced: (its output directory, what it
        printed, {step: traced live bytes when bench entered it}) for
        ``_train_step`` and ``_evaluate_step``."""
        tmp = tmp_path_factory.mktemp("bench")
        # an untraced run first imports what bench needs
        with contextlib.redirect_stdout(io.StringIO()):
            run_cli("bench", "--out", tmp / "warm", "--set", "bench.size_exponent=5",
                    "--set", "windows.texture_radius=3", "--model", "mlr")
        live, printed = {}, io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            for step in ("_train_step", "_evaluate_step"):
                def entered(*args, _step=step, _real=getattr(cli, step)):
                    live.setdefault(_step, tracemalloc.get_traced_memory()[0])
                    return _real(*args)

                patch.setattr(cli, step, entered)
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(printed):
                    rc = run_cli("bench", "--out", tmp / "bench", "--set",
                                 "bench.size_exponent=7", "--set",
                                 f"sampling.rate={request.param}", "--model", "mlr")
            finally:
                tracemalloc.stop()
        assert rc == 0
        return tmp / "bench", printed.getvalue(), live

    def test_one_stack_when_training(self, traced_bench):
        """At 129², the traced live memory when ``bench`` enters
        ``_train_step`` is at most 7 grids of 8*h*w bytes (the reference,
        the DEM, three masks, the strata and one for smaller objects), the
        stack's block buffers of 8*F*B*w bytes and the k sampled rows,
        k*(8*F + 32) bytes. When it enters ``_evaluate_step`` the block
        buffers are gone and no corrected DEM is held. Holding the assembled
        stack, and then the corrected DEMs, took 17.8 and 18.9 grids at rate
        0.25 against 14.3 and 9.0 now."""
        _, printed, live = traced_bench
        rows, = re.findall(r"^train/test rows: (\d+)/(\d+)$", printed, re.M)
        k = sum(map(int, rows))
        h = w = 129
        F = len(CANONICAL_FEATURES)
        held = 7 * 8 * h * w + k * (8 * F + 32)
        for step, bound in (("_train_step", held + 8 * F * terrain.BLOCK_ROWS * w),
                            ("_evaluate_step", held)):
            assert 0.5 * bound <= live[step] <= bound, (step, live[step], bound)

    def test_written_rasters_equal_their_per_value_rendering(self, traced_bench):
        """The ASCII writer finds each value's digits with numpy arithmetic
        and leaves to ``repr`` only the cells it cannot decide: each of the
        21 rasters that this ``bench`` wrote (its seven inputs, the eleven
        layers and the MLR's three) holds the bytes that formatting each
        value by itself with ``_fmt`` gives, on each host."""
        out, _, _ = traced_bench
        paths = sorted(out.glob("*.asc"))
        assert len(paths) == 21
        for path in paths:
            grid = load_grid(path)
            text = grid_module.ascii_header(grid.geometry, grid.nodata) + "".join(
                " ".join(map(grid_module._fmt, row)) + "\n" for row in grid.values.tolist())
            assert path.read_bytes() == text.encode(), path.name

    @staticmethod
    def gbdt_table(n=2000, k=11):
        rng = np.random.default_rng(0)
        return SampleTable(tuple(f"f{i}" for i in range(k)),
                           np.column_stack([np.arange(n), np.zeros(n, dtype=int)]),
                           rng.normal(size=(n, k)), rng.normal(size=n))

    def test_model_document_streams(self, tmp_path):
        """A 100-tree GBDT document is written from the fitted model as
        ``_train_step`` writes it, holding one tree's dict at a time: the
        whole document as one dict peaked at 2.3 times the bytes written."""
        model = fit_gbdt(self.gbdt_table(), GbdtParams(n_trees=100), name="gbdt-depthwise")
        path = tmp_path / "model.json"
        _, peak = TestStepMemory.traced(lambda: cli._write_json(path, cli._gbdt_doc(model)))
        assert peak < 0.25 * path.stat().st_size, (peak, path.stat().st_size)

    @pytest.mark.parametrize("growth", ["depthwise", "leafwise"])
    def test_gbdt_document_is_its_whole_encoding(self, tmp_path, growth):
        """The file ``_train_step`` writes holds ``serialize_model(model)``
        plus its provenance, in the bytes of the document encoded whole."""
        cfg = resolve_config(SimpleNamespace(set=["gbdt.n_trees=12"], model=[f"gbdt-{growth}"]))
        (model, path), = cli._train_step(cfg, self.gbdt_table(300), tmp_path).values()
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert json.loads(text) == {**serialize_model(model),
                                    "provenance": cli._provenance(cfg)}

    def test_write_json_refuses_other_objects(self, tmp_path):
        """Only a deferred tree is encoded through the ``default`` hook."""
        for value in (object(), np.int64(1), {1, 2}):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                cli._write_json(tmp_path / "doc.json", {"a": value})

    def test_sample_table_streams(self, tmp_path):
        rng = np.random.default_rng(1)
        n, k = 10_000, 11
        table = SampleTable(tuple(f"f{i}" for i in range(k)),
                            np.column_stack([np.arange(n), np.zeros(n, dtype=int)]),
                            rng.normal(size=(n, k)), rng.normal(size=n), np.arange(n) % 5)
        path = tmp_path / "samples.csv"
        with open(path, "w") as fh:
            _, peak = TestStepMemory.traced(table.to_csv, fh)
        assert peak < 0.25 * path.stat().st_size, (peak, path.stat().st_size)


class TestImportPath:
    """No command needs scipy, which only the tests use as an oracle.

    Nor does a step need ``numpy.ma``, which ``np.unique`` imports under
    numpy 2.
    """

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
        want = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        shutil.rmtree(out)
        for step in steps:
            proc = self.python(self.BLOCKED, step, "--config", cfg_path)
            assert proc.returncode == 0, (step, proc.stderr)
        got = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name] == want[name], name
        proc = self.python(self.BLOCKED, "bench", "--out", tmp / "bench",
                           "--set", "bench.size_exponent=5", "--set", "gbdt.n_trees=3")
        assert proc.returncode == 0, proc.stderr

    def test_bench_loads_no_numpy_ma(self, tmp_path):
        proc = self.python("import sys; from demcorrect.cli import main; "
                           "rc = main(sys.argv[1:]); print(rc, 'numpy.ma' in sys.modules)",
                           "bench", "--out", tmp_path / "bench", "--set", "bench.size_exponent=5",
                           "--set", "gbdt.n_trees=3")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_evaluate_loads_no_numpy_ma(self, workspace):
        cfg_path, _ = workspace
        for step in ("features", "diagnose", "train", "correct"):
            assert run_cli(step, "--config", cfg_path) == 0, step
        proc = self.python("import sys; from demcorrect.cli import main; "
                           "rc = main(sys.argv[1:]); print(rc, 'numpy.ma' in sys.modules)",
                           "evaluate", "--config", cfg_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"


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
        """A tri layer equal to tpi, or to the sum of tpi and slope; the
        message names a column of the dependent set."""
        cfg_path, tmp = workspace
        out = tmp / "out"
        for dependent in (("tpi", "tri"), ("tpi", "slope", "tri")):
            run_cli("features", "--config", cfg_path)
            tpi, slope = load_grid(out / "feature_tpi.asc"), load_grid(out / "feature_slope.asc")
            tri = tpi.values
            if "slope" in dependent:
                both = tpi.valid_mask() & slope.valid_mask()
                tri = np.where(both, tpi.values + slope.values, tpi.nodata)
            save_grid(tpi.with_values(tri), out / "feature_tri.asc")
            capsys.readouterr()
            rc = run_cli("train", "--config", cfg_path, "--model", "mlr",
                         "--set", "collinearity.vif=Infinity")
            err = capsys.readouterr().err
            assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
            assert "rank deficient" in err
            assert any(f"column '{name}'" in err for name in dependent), err

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

    def test_gbdt_doc_unknown_split(self, workspace, capsys):
        params = {**GbdtParams(n_trees=1).to_doc(), "split": "approx"}
        doc = {"format": "gbdt-model", "version": 1, "params": params,
               "base_score": 0.0, "feature_names": ["elevation"],
               "trees": [{"nodes": [{"value": 1.0}]}]}
        self.assert_bad_model_doc(workspace, capsys, doc,
                                  "malformed model document: split must be 'exact' or 'hist'")

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

    @pytest.mark.parametrize("name, needle", [
        ({"a": 1}, 'model_name must be a non-empty string, got {"a": 1}'),
        ("", 'model_name must be a non-empty string, got ""'),
        ("sub/x", "model_name 'sub/x' holds a path separator"),
    ], ids=["object", "empty", "separator"])
    def test_bad_model_name(self, workspace, capsys, name, needle):
        cfg_path, tmp = workspace
        for step in ("features", "train"):
            run_cli(step, "--config", cfg_path, "--model", "mlr")
        doc = json.loads((tmp / "out" / "model_mlr.json").read_text())
        path = tmp / "named.json"
        path.write_text(json.dumps({**doc, "model_name": name}))
        capsys.readouterr()
        rc = run_cli("correct", "--config", cfg_path, "--model-doc", path)
        self.assert_input_error(rc, capsys, f"named.json': {needle}")

    def test_repeated_model_name(self, workspace, capsys):
        cfg_path, tmp = workspace
        for step in ("features", "train"):
            run_cli(step, "--config", cfg_path, "--model", "mlr")
        first = tmp / "out" / "model_mlr.json"
        second = tmp / "again.json"
        shutil.copy(first, second)
        capsys.readouterr()
        rc = run_cli("correct", "--config", cfg_path, "--model-doc", first, "--model-doc", second)
        self.assert_input_error(rc, capsys, f"again.json': model_name 'mlr' is also that of "
                                            f"'{first}'")
        assert not list((tmp / "out").glob("corrected_*"))

    def test_refused_correct_writes_no_raster(self, workspace, capsys):
        """A reference one column narrower is refused before any raster opens."""
        cfg_path, tmp = workspace
        for step in ("features", "train"):
            run_cli(step, "--config", cfg_path, "--model", "mlr")
        ref = load_grid(tmp / "reference.asc")
        save_grid(Grid(ref.ncols - 1, ref.nrows, ref.xll, ref.yll, ref.cellsize, ref.nodata,
                       ref.values[:, :-1]), tmp / "reference.asc")
        capsys.readouterr()
        rc = run_cli("correct", "--config", cfg_path, "--model", "mlr")
        self.assert_input_error(rc, capsys, f"paths.reference '{tmp / 'reference.asc'}' "
                                            "(32 x 33, xll 0.0, yll 0.0, cellsize 30.0) is not "
                                            "on the DEM's geometry (33 x 33, xll 0.0, yll 0.0, "
                                            "cellsize 30.0)")
        written = sorted(p.name for p in (tmp / "out").iterdir())
        assert not [name for name in written if name.endswith(".asc")
                    and not name.startswith("feature_")], written

    def test_refused_reference_leaves_no_new_copy(self, workspace, capsys):
        """With the DEM edited to new bytes and the reference moved by half a
        cell, ``diagnose``, ``train`` and ``correct`` each refuse the
        reference before they parse any grid: no copy is added to
        ``grids/v1``."""
        cfg_path, tmp = workspace
        for step in ("features", "train"):
            assert run_cli(step, "--config", cfg_path, "--model", "mlr") == 0, step
        edit = load_grid(tmp / "dem.asc")
        save_grid(edit.with_values(edit.values + 1.0), tmp / "dem.asc")
        ref = load_grid(tmp / "reference.asc")
        save_grid(Grid(ref.ncols, ref.nrows, ref.xll + 15.0, ref.yll, ref.cellsize, ref.nodata,
                       ref.values), tmp / "reference.asc")
        copies = sorted((tmp / "out" / store.COPIES).iterdir())
        for step in ("diagnose", "train", "correct"):
            capsys.readouterr()
            rc = run_cli(step, "--config", cfg_path, "--model", "mlr")
            self.assert_input_error(rc, capsys, f"error: paths.reference '{tmp / 'reference.asc'}' "
                                                "(33 x 33, xll 15.0, yll 0.0, cellsize 30.0) is "
                                                "not on the DEM's geometry (33 x 33, xll 0.0, "
                                                "yll 0.0, cellsize 30.0)\n")
            assert sorted((tmp / "out" / store.COPIES).iterdir()) == copies, step

    def test_correct_dem_off_the_stack(self, workspace, capsys):
        """A DEM moved by half a cell after ``features`` is refused, naming its
        file and both geometries."""
        cfg_path, tmp = workspace
        for step in ("features", "train"):
            run_cli(step, "--config", cfg_path, "--model", "mlr")
        dem = load_grid(tmp / "dem.asc")
        save_grid(Grid(dem.ncols, dem.nrows, dem.xll + 15.0, dem.yll, dem.cellsize, dem.nodata,
                       dem.values), tmp / "dem.asc")
        capsys.readouterr()
        rc = run_cli("correct", "--config", cfg_path, "--model", "mlr")
        self.assert_input_error(rc, capsys, f"error: paths.dem '{tmp / 'dem.asc'}' (33 x 33, "
                                            "xll 15.0, yll 0.0, cellsize 30.0) is not on the "
                                            "feature stack's geometry (33 x 33, xll 0.0, "
                                            "yll 0.0, cellsize 30.0)\n")
        assert not list((tmp / "out").glob("corrected_*"))

    @staticmethod
    def overflowing_mlr(workspace):
        """The trained MLR document with every coefficient 1e308, beside
        the rasters of a first ``correct``; returns its path."""
        cfg_path, tmp = workspace
        for step in ("features", "train", "correct"):
            run_cli(step, "--config", cfg_path)
        doc = json.loads((tmp / "out" / "model_mlr.json").read_text())
        doc["coefficients"] = [1e308] * len(doc["coefficients"])
        path = tmp / "overflow.json"
        path.write_text(json.dumps(doc))
        return path

    def test_overflowing_model_names_its_document(self, workspace, capsys):
        """A document whose predictions overflow passes validation; ``correct``
        refuses it, naming the document and the first cell."""
        cfg_path, _ = workspace
        path = self.overflowing_mlr(workspace)
        capsys.readouterr()
        rc = run_cli("correct", "--config", cfg_path, "--model-doc", path)
        self.assert_input_error(rc, capsys, f"error: '{path}': the model's correction "
                                            "overflows: non-finite value at cell (4, 4) is not "
                                            "the nodata sentinel\n")

    def test_refused_model_keeps_the_earlier_rasters(self, workspace, capsys):
        """Each model's rasters take their names once they are complete: the
        model before the refused one writes its rasters, and the refused
        one's earlier rasters stay as they were."""
        cfg_path, tmp = workspace
        path = self.overflowing_mlr(workspace)
        out = tmp / "out"
        earlier = {p.name: p.read_bytes() for p in out.glob("*_mlr.asc")}
        assert len(earlier) == 3
        gbdt = {p.name: p.read_bytes() for p in out.glob("*_gbdt-leafwise.asc")}
        for name in gbdt:
            (out / name).unlink()
        capsys.readouterr()
        rc = run_cli("correct", "--config", cfg_path,
                     "--model-doc", out / "model_gbdt-leafwise.json", "--model-doc", path)
        self.assert_input_error(rc, capsys, f"'{path}'")
        assert {p.name: p.read_bytes() for p in out.glob("*_mlr.asc")} == earlier
        assert {p.name: p.read_bytes() for p in out.glob("*_gbdt-leafwise.asc")} == gbdt
        assert not list(out.glob("*.partial"))

    def test_manifest_repeats_a_layer(self, workspace, capsys):
        cfg_path, tmp = workspace
        run_cli("features", "--config", cfg_path)
        path = tmp / "out" / "features_manifest.json"
        manifest = json.loads(path.read_text())
        manifest["layers"][3]["name"] = manifest["layers"][1]["name"]
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        self.assert_input_error(run_cli("train", "--config", cfg_path), capsys,
                                "features_manifest.json': layers[3] repeats the layer name "
                                "'slope'")

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

    @pytest.mark.parametrize("key", ["bare", "dem"])
    def test_undecodable_grid(self, workspace, capsys, key):
        """A byte that is not ASCII, read in a row block or in the whole-DEM
        parse, is an input error that names the file."""
        cfg_path, tmp = workspace
        path = tmp / f"{key}.asc"
        data = bytearray(path.read_bytes())
        data[-3] = 0xE9
        path.write_bytes(bytes(data))
        self.assert_input_error(run_cli("features", "--config", cfg_path), capsys,
                                f"'{path}': not ASCII text (byte 0xe9)")

    def test_undecodable_config(self, workspace, capsys):
        cfg_path, _ = workspace
        cfg_path.write_bytes(cfg_path.read_bytes().replace(b'"gbdt"', b'"gbdt\xe9"'))
        self.assert_input_error(run_cli("features", "--config", cfg_path), capsys,
                                f"config file '{cfg_path}' is not UTF-8 text: byte 0xe9")

    def test_undecodable_manifest(self, workspace, capsys):
        cfg_path, tmp = workspace
        run_cli("features", "--config", cfg_path)
        path = tmp / "out" / "features_manifest.json"
        path.write_bytes(path.read_bytes().replace(b'"layers"', b'"layers\xff"'))
        capsys.readouterr()
        self.assert_input_error(run_cli("train", "--config", cfg_path), capsys,
                                f"'{path}' is not UTF-8 text: byte 0xff")

    def test_out_names_a_file(self, workspace, capsys):
        cfg_path, tmp = workspace
        taken = tmp / "taken"
        taken.write_text("not a directory\n")
        self.assert_input_error(run_cli("features", "--config", cfg_path, "--out", taken),
                                capsys, f"output directory '{taken}': File exists")
        self.assert_input_error(run_cli("evaluate", "--config", cfg_path, "--out", taken / "x"),
                                capsys, f"output directory '{taken / 'x'}': Not a directory")

    @pytest.mark.parametrize("name", ["collinearity.json", "feature_slope.asc"])
    def test_output_file_is_a_directory(self, tmp_path, capsys, name):
        """A JSON document or a raster that cannot be written; the
        raster's own temporary file does not stay."""
        out = tmp_path / "bench"
        (out / name).mkdir(parents=True)
        rc = run_cli("bench", "--out", out, "--set", "bench.size_exponent=5",
                     "--set", "windows.texture_radius=3", "--model", "mlr")
        self.assert_input_error(rc, capsys, f"{out / name}': Is a directory")
        assert not list(out.glob("*.partial"))

    def test_grid_parse_error_names_the_file(self, workspace, capsys):
        cfg_path, tmp = workspace
        (tmp / "urban.asc").write_text("")
        self.assert_input_error(run_cli("features", "--config", cfg_path), capsys,
                                f"error: '{tmp / 'urban.asc'}': line 1: missing header line "
                                "(expected 'ncols <value>')")

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
        # a number key refuses a bool, a bool key the string "False", and
        # models a bare name rather than read it as a list of letters
        "collinearity.vif=true", "sampling.stratified=False", "models=mlr",
        # an integer too large for a float
        "bench.base_height=1" + "0" * 400,
    ])
    def test_out_of_range_value(self, tmp_path, capsys, setting):
        rc = run_cli("bench", "--out", tmp_path, "--set", setting)
        self.assert_input_error(rc, capsys, f"configuration key '{setting.split('=')[0]}': ")

    @pytest.mark.parametrize("setting, needle", [
        ("bench.error_spec.linear_terms.slope=true", "linear term 'slope' must be a number"),
        ('bench.error_spec.nonlinear_terms=[{"feature": "slope", "kind": "sine", '
         '"amplitude": true}]', "amplitude must be a number"),
        ('bench.error_spec.nonlinear_terms=[{"feature": "slope", "kind": "sine", '
         '"amplitude": 1, "scale": false}]', "scale must be a number"),
        ("bench.error_spec.noise_std=true", "noise_std must be a number"),
        ("bench.error_spec.seed=false", "seed must be a number"),
    ], ids=["coefficient", "amplitude", "scale", "noise_std", "seed"])
    def test_error_spec_refuses_a_bool(self, tmp_path, capsys, setting, needle):
        """JSON true and false are no numbers, though float() takes them."""
        rc = run_cli("bench", "--out", tmp_path, "--set", setting)
        self.assert_input_error(rc, capsys, f"configuration key 'bench.error_spec': {needle}, "
                                            "got ")

    @pytest.mark.parametrize("setting, needle", [
        ("bench.error_spec.seed=2.5", "seed must be an integer, got 2.5"),
        ("bench.error_spec.seed=NaN", "seed must be an integer, got NaN"),
        ('bench.error_spec.seed="2"', 'seed must be a number, got "2"'),
        ('bench.error_spec.linear_terms.slope="5"',
         'linear term \'slope\' must be a number, got "5"'),
        ('bench.error_spec.noise_std="0"', 'noise_std must be a number, got "0"'),
        ('bench.error_spec.nonlinear_terms=[{"feature": "slope", "kind": "sine", '
         '"amplitude": "1"}]', 'amplitude must be a number, got "1"'),
        ('bench.error_spec.nonlinear_terms=[{"feature": "slope", "kind": "sine", '
         '"amplitude": 1, "scale": [2]}]', "scale must be a number, got [2]"),
    ], ids=["seed-fraction", "seed-nan", "seed-string", "coefficient-string",
            "noise_std-string", "amplitude-string", "scale-array"])
    def test_error_spec_refuses_what_config_numbers_refuse(self, tmp_path, capsys, setting,
                                                           needle):
        """The spec's numbers refuse a string, and its seed a fraction, as
        the other configuration keys do, rather than convert or truncate."""
        rc = run_cli("bench", "--out", tmp_path, "--set", setting)
        self.assert_input_error(rc, capsys, f"configuration key 'bench.error_spec': {needle}")

    @pytest.mark.parametrize("key, raw", [
        (key, raw) for key in sorted(cli.DEFAULT_CONFIG["paths"])
        for raw in ("5", "2.5", "true", "NaN", '["a.asc"]', '{"file": "a.asc"}')
    ] + [("out_dir", "null")])
    def test_paths_refuse_what_is_no_string(self, tmp_path, monkeypatch, capsys, key, raw):
        """Each ``paths.*`` value is null or a string, the output directory
        a string; anything else is named before any file is opened."""
        monkeypatch.chdir(tmp_path)
        rc = run_cli("features", "--set", f"paths.{key}={raw}")
        kind = "a string" if key == "out_dir" else "null or a string"
        self.assert_input_error(rc, capsys, f"configuration key 'paths.{key}': must be {kind}, "
                                            f"got {json.dumps(json.loads(raw))}")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("setting, needle", [
        ("bench.error_spec=5", "error spec must be an object, got 5"),
        ("bench.error_spec.linear_terms=5", "linear_terms must be an object, got 5"),
        ("bench.error_spec.linear_terms=[1]", "linear_terms must be an object, got [1]"),
        ("bench.error_spec.nonlinear_terms=5", "nonlinear_terms must be an array, got 5"),
        ("bench.error_spec.nonlinear_terms=[5]", "nonlinear term must be an object, got 5"),
        ('bench.error_spec.nonlinear_terms=[{"feature": "slope", "amplitude": 1}]',
         "kind must be a string, got null"),
        ('bench.error_spec.nonlinear_terms=[{"kind": "sine", "amplitude": 1}]',
         "feature must be a string, got null"),
        ('bench.error_spec.nonlinear_terms=[{"feature": 5, "kind": "sine", "amplitude": 1}]',
         "feature must be a string, got 5"),
        ('bench.error_spec.nonlinear_terms=[{"feature": "slope", "kind": ["sine"], '
         '"amplitude": 1}]', 'kind must be a string, got ["sine"]'),
        ('bench.error_spec.nonlinear_terms=[{"feature": "slope", "kind": "product", '
         '"amplitude": 1, "feature2": 3}]', "feature2 must be a string, got 3"),
    ], ids=["spec-number", "linear-number", "linear-array", "nonlinear-number",
            "term-number", "term-no-kind", "term-no-feature", "feature-number",
            "kind-array", "feature2-number"])
    def test_error_spec_field_types(self, tmp_path, capsys, setting, needle):
        """Each field of the error spec holds its JSON type, or the refusal
        names the field."""
        rc = run_cli("bench", "--out", tmp_path, "--set", setting)
        self.assert_input_error(rc, capsys, f"configuration key 'bench.error_spec': {needle}\n")

    @pytest.mark.parametrize("settings, needle", [
        (None, "feature layer 'tpi' is not finite at cell (1, 1)"),
        (["bench.base_height=1e308"], "the terrain's slope is not finite at cell (1, 1)"),
        (["bench.cellsize=1e-320"], "feature layer 'vrm' is not finite at cell (4, 4)"),
        (["bench.relief_amplitude=1e308"], "configuration key 'bench.relief_amplitude': "
         "relief_amplitude must be >= 0 and at most half the largest float"),
        (["bench.relief_amplitude=5e307", "bench.roughness_decay=0.9"],
         "the synthetic terrain is not finite at cell (0, 9)"),
        (['bench.error_spec.linear_terms={"slope": 1e308, "tpi": 1e308}'],
         "the injected error is not finite at cell "),
        (['bench.error_spec.linear_terms={"slope": 1e300}'],
         "the injected error's noise std is not finite"),
    ], ids=["features-dem", "base_height", "cellsize", "relief_amplitude",
            "relief-and-decay", "linear-terms", "noise-std"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_input_made_overflow(self, workspace, monkeypatch, capsys, settings, needle,
                                 workers):
        """A value that overflows where the inputs make it exits 2, naming
        the derived layer and cell, or the key, with no numpy warning, at
        one feature-build worker or two."""
        cfg_path, tmp = workspace
        monkeypatch.setenv("DEMCORRECT_THREADS", workers)
        if settings is None:  # features over a DEM scaled by 1e305
            dem = load_grid(tmp / "dem.asc")
            save_grid(dem.with_values(np.where(dem.valid_mask(), dem.values * 1e305,
                                               dem.nodata)), tmp / "dem.asc")
            args = ["features", "--config", cfg_path]
        else:
            args = ["bench", "--out", tmp / "bench", "--model", "mlr",
                    "--set", "bench.size_exponent=4"]
            args += [arg for setting in settings for arg in ("--set", setting)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(*args)
        self.assert_input_error(rc, capsys, needle)

    def test_zero_variance_feature(self, tmp_path, capsys):
        """Heights so large that every slope rounds to 0 leave the error
        spec's slope term nothing to standardize: the refusal names the
        feature and the key."""
        rc = run_cli("bench", "--out", tmp_path, "--model", "mlr", "--set",
                     "bench.size_exponent=4", "--set", "bench.base_height=1e200")
        self.assert_input_error(rc, capsys, "configuration key 'bench.base_height' (1e+200), "
                                "with 'bench.relief_amplitude' (120.0): on the terrain they "
                                "give, feature 'slope' has zero variance")

    @pytest.mark.parametrize("setting, needle", [
        ("windows=5", "configuration key 'windows' must be an object"),
        ("gbdt=null", "configuration key 'gbdt' must be an object"),
        ("paths=5", "configuration key 'paths' must be an object"),
        ('windows={"bogus": 2}', "unknown configuration key 'windows.bogus'"),
        ('windows={"tpi_radius": 2}', None),
    ], ids=["number", "null", "paths", "unknown-key", "merged"])
    @pytest.mark.parametrize("out", [None, "elsewhere"], ids=["no-out", "out"])
    def test_set_of_a_section(self, tmp_path, monkeypatch, capsys, setting, needle, out):
        """``--set`` of a whole section follows the config file's rule: the
        section must be an object, which merges key by key, and an unknown
        key is refused. The flag and the file give the same outcome, and a
        refusal exits 2 before any file is written."""
        monkeypatch.chdir(tmp_path)
        key, raw = setting.split("=", 1)
        Path("config.json").write_text(json.dumps({key: json.loads(raw)}))
        outcomes = []
        for args in (SimpleNamespace(set=[setting], out=out),
                     SimpleNamespace(config="config.json", out=out)):
            try:
                outcomes.append(resolve_config(args))
            except ConfigError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if needle is None:
            assert outcomes[0]["windows"] == {**cli.DEFAULT_CONFIG["windows"], "tpi_radius": 2}
            return
        assert outcomes[0] == needle
        rc = run_cli("features", "--set", setting, *(("--out", out) if out else ()))
        self.assert_input_error(rc, capsys, needle)
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("settings, needle", [
        (["sampling.rate=0.01"], "'{out}/features_manifest.json', '{out}/original.asc', "
         "'{out}/reference.asc' and configuration key 'sampling.rate' (0.01): "
         "pearson_matrix requires at least 2 rows; have 1"),
        (["sampling.rate=0.6", "sampling.train_fraction=0.99"], "the held-out cells of "
         "configuration key 'sampling.rate' (0.6) and configuration key "
         "'sampling.train_fraction' (0.99): no cell is valid in every grid"),
    ], ids=["one-training-row", "empty-test-split"])
    def test_too_few_sampled_rows(self, tmp_path, capsys, settings, needle):
        """``bench`` names its own inputs and the keys that left too few
        training rows for the screen, or no held-out cell to report on."""
        overrides = [arg for s in settings for arg in ("--set", s)]
        rc = run_cli("bench", "--out", tmp_path, "--model", "mlr",
                     "--set", "bench.size_exponent=5", *overrides)
        self.assert_input_error(rc, capsys, f"error: {needle.format(out=tmp_path)}\n")

    @pytest.mark.parametrize("key, step, against", [
        pytest.param(key, step, against, id=f"{key}-{step}")
        for key, steps, against in (
            ("bare", ("features",), "the DEM's"),
            ("urban", ("features",), "the DEM's"),
            ("forest", ("features",), "the DEM's"),
            ("dem", ("diagnose", "train"), "the feature stack's"),
            ("reference", ("diagnose", "train"), "the DEM's"),
            ("strata", ("diagnose", "train"), "the feature stack's"),
            ("dem", ("evaluate",), "the reference's"),
            ("strata", ("evaluate",), "the reference's"),
            ("corrected", ("evaluate",), "the reference's"))
        for step in steps])
    def test_split_input_off_geometry(self, workspace, capsys, key, step, against):
        """An input moved by half a cell (after the step before, if any) is
        refused before any feature build, differencing, sampling or
        scoring, naming its key (or, for a corrected DEM, its file), its
        file and both geometries."""
        cfg_path, tmp = workspace
        if step != "features":
            run_cli("features", "--config", cfg_path)
        if step == "evaluate":
            for before in ("train", "correct"):
                run_cli(before, "--config", cfg_path, "--model", "mlr")
        if key == "corrected":
            path = tmp / "out" / "corrected_mlr.asc"
            source = f"'{path}'"
        else:
            path = tmp / f"{key}.asc"
            source = f"paths.{key} '{path}'"
        grid = load_grid(path)
        save_grid(Grid(grid.ncols, grid.nrows, grid.xll, grid.yll + 15.0, grid.cellsize,
                       grid.nodata, grid.values), path)
        capsys.readouterr()
        self.assert_input_error(run_cli(step, "--config", cfg_path, "--model", "mlr"), capsys,
                                f"error: {source} (33 x 33, xll 0.0, "
                                f"yll 15.0, cellsize 30.0) is not on {against} geometry "
                                "(33 x 33, xll 0.0, yll 0.0, cellsize 30.0)\n")

    @pytest.mark.parametrize("key, step", [
        ("bare", "features"), ("urban", "features"), ("forest", "features"),
        ("strata", "diagnose"), ("strata", "train"), ("strata", "evaluate")])
    def test_label_faults_name_their_source(self, workspace, capsys, key, step):
        """A mask cell of 2, or a strata label of 2.5, written after the
        steps before ``step``, is refused naming its key and file."""
        cfg_path, tmp = workspace
        earlier = {"features": (), "diagnose": ("features",), "train": ("features",),
                   "evaluate": ("features", "train", "correct")}[step]
        for before in earlier:
            assert run_cli(before, "--config", cfg_path, "--model", "mlr") == 0, before
        path = tmp / f"{key}.asc"
        grid = load_grid(path)
        values = grid.values.copy()
        values[4, 6] = 2.5 if key == "strata" else 2.0
        save_grid(grid.with_values(values), path)
        capsys.readouterr()
        if key == "strata":
            fault = "strata grid must hold integer labels; cell (4, 6) holds 2.5"
        else:
            fault = f"{key} mask must hold only 0, 1 or nodata; found 2.0 at cell (4, 6)"
        self.assert_input_error(run_cli(step, "--config", cfg_path, "--model", "mlr"), capsys,
                                f"error: paths.{key} '{path}': {fault}\n")

    @pytest.mark.parametrize("fault", ["empty-table", "zero-variance", "one-training-row"])
    @pytest.mark.parametrize("step", ["diagnose", "train"])
    def test_sample_faults_name_their_source(self, workspace, capsys, fault, step):
        """A sample table left empty (a reference of nodata only) is refused
        naming the manifest and the DEM's and reference's keys and files; a
        feature constant over the training rows (a flat DEM), naming its
        layer's file; too few training rows for the screen (a rate that
        samples one cell), naming the manifest, the keys and files of the
        DEM and reference, and the rate's key."""
        cfg_path, tmp = workspace
        out = tmp / "out"
        if fault == "one-training-row":
            cfg = json.loads(cfg_path.read_text())
            cfg["sampling"]["rate"] = 1e-9
            cfg_path.write_text(json.dumps(cfg))
            message = (f"'{out / 'features_manifest.json'}', paths.dem '{tmp / 'dem.asc'}', "
                       f"paths.reference '{tmp / 'reference.asc'}' and configuration key "
                       "'sampling.rate' (1e-09): pearson_matrix requires at least 2 rows; have 1")
        elif fault == "empty-table":
            ref = load_grid(tmp / "reference.asc")
            save_grid(ref.with_values(np.full_like(ref.values, ref.nodata)), tmp / "reference.asc")
            message = (f"'{out / 'features_manifest.json'}', paths.dem '{tmp / 'dem.asc'}' and "
                       f"paths.reference '{tmp / 'reference.asc'}': no cell has all features "
                       "and the target valid")
        else:
            save_grid(fractal_dem(5, relief_amplitude=0.0), tmp / "dem.asc")
            message = f"'{out / 'feature_elevation.asc'}': feature 'elevation' has zero variance"
        assert run_cli("features", "--config", cfg_path) == 0
        capsys.readouterr()
        self.assert_input_error(run_cli(step, "--config", cfg_path, "--model", "mlr"), capsys,
                                f"error: {message}\n")

    def test_empty_report_names_its_grids(self, workspace, capsys):
        """A reference of nodata only, written after ``correct``, leaves
        ``evaluate`` no cell to score: it names the reference, the DEM and
        each corrected DEM."""
        cfg_path, tmp = workspace
        for before in ("features", "train", "correct"):
            assert run_cli(before, "--config", cfg_path, "--model", "mlr",
                           "--model", "gbdt-depthwise") == 0, before
        ref = load_grid(tmp / "reference.asc")
        save_grid(ref.with_values(np.full_like(ref.values, ref.nodata)), tmp / "reference.asc")
        capsys.readouterr()
        out = tmp / "out"
        self.assert_input_error(
            run_cli("evaluate", "--config", cfg_path, "--model", "mlr", "--model",
                    "gbdt-depthwise"), capsys,
            f"error: paths.reference '{tmp / 'reference.asc'}', paths.dem '{tmp / 'dem.asc'}', "
            f"'{out / 'corrected_mlr.asc'}' and '{out / 'corrected_gbdt-depthwise.asc'}': "
            "no cell is valid in every grid\n")

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
