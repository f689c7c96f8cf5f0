"""Command-line pipeline.

Subcommands wire the library into the correction workflow:

    features  -> the eleven predictor rasters, a checksummed manifest and
                 a binary copy of the layers that later steps read
    diagnose  -> Pearson/VIF collinearity report
    train     -> model documents (MLR on the post-exclusion features,
                 GBDTs on all eleven)
    correct   -> corrected DEM and absolute-error rasters per model
    evaluate  -> stratified before/after report (JSON + text table)
    bench     -> full synthetic run: generate, degrade, train, correct,
                 evaluate (full grid and held-out test cells)

Configuration comes from one JSON document plus flag overrides (flags
win). Every output embeds a provenance block with the resolved config
digest, and reruns with identical configuration are byte-identical.

Exit codes: 0 success, 1 internal error, 2 configuration/input error.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import itertools
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .evaluate import abs_error_grid, apply_correction, build_report, predict_error_grid
from .gbdt import GbdtParams, ModelFormatError, deserialize_model, fit_gbdt, serialize_model
from .grid import (
    Grid,
    GeometryMismatch,
    GridParseError,
    difference,
    load_grid,
    parse_ascii_header,
    save_grid,
)
from .linstats import (
    LinearModel,
    SingularDesignError,
    ZeroVarianceError,
    fit_ols,
    flag_collinear,
)
from .sampling import EmptyTableError, SampleTable, extract_samples, split_table
from .synth import STRATUM_NAMES, ErrorSpec, fractal_dem, inject_error, synth_landcover
from .terrain import FeatureConfig, FeatureStack, WindowSpec, build_feature_stack

__all__ = ["main", "run", "ConfigError", "DEFAULT_CONFIG"]

MODEL_CHOICES = ("mlr", "gbdt-depthwise", "gbdt-leafwise")

DEFAULT_CONFIG: dict = {
    "paths": {
        "dem": None,
        "reference": None,
        "bare": None,
        "urban": None,
        "forest": None,
        "strata": None,
        "out_dir": "out",
    },
    "windows": {
        "roughness_radius": 1,
        "tpi_radius": 1,
        "vrm_radius": 3,
        "landcover_radius": 3,
        "texture_radius": 10,
        "texture_threshold": 0.5,
        "min_valid_fraction": 1.0,
    },
    "collinearity": {"r_abs": 0.9, "vif": 10.0},
    "models": list(MODEL_CHOICES),
    "gbdt": {
        "n_trees": 100,
        "learning_rate": 0.1,
        "max_depth": 6,
        "max_leaves": 31,
        "min_samples_leaf": 1,
        "min_gain": 0.0,
        "lambda": 1.0,
        "seed": 0,
    },
    "sampling": {"rate": 1.0, "train_fraction": 0.8, "seed": 42, "stratified": False},
    "bench": {
        "size_exponent": 8,
        "base_height": 300.0,
        "relief_amplitude": 120.0,
        "roughness_decay": 0.45,
        "cellsize": 30.0,
        "terrain_seed": 7,
        "landcover_seed": 11,
        "noise_fraction": 0.1,
        "error_spec": {
            "linear_terms": {"slope": 1.2, "pct_forest": 0.8},
            "nonlinear_terms": [
                {"feature": "elevation", "kind": "sine", "amplitude": 2.5, "scale": 2.2},
                {"feature": "urban", "kind": "step", "amplitude": 1.5, "scale": 0.0},
            ],
            "noise_std": 0.0,
            "seed": 23,
        },
    },
}

#: config subtrees whose keys are free-form rather than schema-checked
_OPAQUE_KEYS = {"bench.error_spec"}


class ConfigError(ValueError):
    """Bad configuration or missing input; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def _merge(base: dict, override: dict, path: str = "") -> None:
    for key, value in override.items():
        here = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown configuration key '{here}'")
        if isinstance(base[key], dict) and here not in _OPAQUE_KEYS:
            if not isinstance(value, dict):
                raise ConfigError(f"configuration key '{here}' must be an object")
            _merge(base[key], value, here + ".")
        else:
            base[key] = value


def _apply_override(cfg: dict, dotted: str, raw: str) -> None:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = dotted.split(".")
    node = cfg
    walked = []
    for key in keys[:-1]:
        walked.append(key)
        if not isinstance(node.get(key), dict):
            raise ConfigError(f"unknown configuration key '{'.'.join(walked)}'")
        node = node[key]
        if ".".join(walked) in _OPAQUE_KEYS:
            break
    leaf = keys[-1]
    if ".".join(walked) not in _OPAQUE_KEYS and leaf not in node:
        raise ConfigError(f"unknown configuration key '{dotted}'")
    node[leaf] = value


def resolve_config(args) -> dict:
    """Defaults <- config file <- command-line flags, validated."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file '{path}' does not exist")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file '{path}' is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file '{path}' must hold a JSON object")
        _merge(cfg, loaded)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got '{item}'")
        dotted, raw = item.split("=", 1)
        _apply_override(cfg, dotted, raw)
    if getattr(args, "model", None):
        cfg["models"] = list(args.model)
    if getattr(args, "seed", None) is not None:
        cfg["sampling"]["seed"] = args.seed
        cfg["gbdt"]["seed"] = args.seed
    if getattr(args, "out", None):
        cfg["paths"]["out_dir"] = args.out

    for name in cfg["models"]:
        if name not in MODEL_CHOICES:
            raise ConfigError(
                f"unknown model '{name}' (choices: {', '.join(MODEL_CHOICES)})"
            )
    if not cfg["models"]:
        raise ConfigError("at least one model must be selected")
    return cfg


def config_digest(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _provenance(cfg: dict) -> dict:
    return {"config_digest": config_digest(cfg), "package_version": __version__}


def worker_count() -> int:
    """Worker cap from DEMCORRECT_THREADS; defaults to 1 (sequential)."""
    raw = os.environ.get("DEMCORRECT_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"DEMCORRECT_THREADS must be an integer, got '{raw}'") from None
    if n < 1:
        raise ConfigError("DEMCORRECT_THREADS must be >= 1")
    return n


def _feature_config(cfg: dict) -> FeatureConfig:
    w = cfg["windows"]
    mvf = float(w["min_valid_fraction"])
    return FeatureConfig(
        roughness_window=WindowSpec(int(w["roughness_radius"]), mvf),
        tpi_window=WindowSpec(int(w["tpi_radius"]), mvf),
        vrm_window=WindowSpec(int(w["vrm_radius"]), mvf),
        landcover_window=WindowSpec(int(w["landcover_radius"]), mvf),
        texture_window=WindowSpec(int(w["texture_radius"]), mvf),
        texture_threshold=float(w["texture_threshold"]),
    )


def _gbdt_params(cfg: dict, growth: str) -> GbdtParams:
    g = cfg["gbdt"]
    return GbdtParams(
        n_trees=int(g["n_trees"]),
        learning_rate=float(g["learning_rate"]),
        growth=growth,
        max_depth=None if g["max_depth"] is None else int(g["max_depth"]),
        max_leaves=int(g["max_leaves"]),
        min_samples_leaf=int(g["min_samples_leaf"]),
        min_gain=float(g["min_gain"]),
        reg_lambda=float(g["lambda"]),
        seed=int(g["seed"]),
    )


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------


def _require_path(cfg: dict, key: str) -> Path:
    value = cfg["paths"].get(key)
    if not value:
        raise ConfigError(f"configuration lacks paths.{key}")
    path = Path(value)
    if not path.is_file():
        raise ConfigError(f"paths.{key}: '{path}' does not exist")
    return path


def _optional_grid(cfg: dict, key: str) -> Grid | None:
    value = cfg["paths"].get(key)
    if not value:
        return None
    path = Path(value)
    if not path.is_file():
        raise ConfigError(f"paths.{key}: '{path}' does not exist")
    return load_grid(path)


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["paths"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path) -> dict:
    if not path.is_file():
        raise ConfigError(f"'{path}' does not exist (run the earlier pipeline step first)")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"'{path}' is not valid JSON: {exc}") from None


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


#: binary copy of the feature layers: a little-endian float64 (layers, nrows,
#: ncols) .npy array in manifest order, which only spares later steps the
#: ASCII parse
_STACK_FILE = "features_stack.npy"


def _write_stack(stack: FeatureStack, cfg: dict, out: Path) -> dict:
    layers = []
    geo = stack.geometry
    with open(out / _STACK_FILE, "wb") as binary:
        np.lib.format.write_array_header_1_0(binary, {
            "descr": "<f8", "fortran_order": False,
            "shape": (len(stack.names), geo.nrows, geo.ncols)})
        for name, grid in zip(stack.names, stack.layers):
            fname = f"feature_{name}.asc"
            save_grid(grid, out / fname)
            layers.append({"name": name, "file": fname, "sha256": _sha256_file(out / fname)})
            # + 0.0 turns -0.0 into the 0.0 that parsing the written "0" gives
            np.asarray(grid.values + 0.0, dtype="<f8").tofile(binary)
    manifest = {
        "format": "feature-manifest",
        "version": 1,
        "layers": layers,
        "stack": {"file": _STACK_FILE, "sha256": _sha256_file(out / _STACK_FILE)},
        "windows": dict(cfg["windows"]),
        "provenance": _provenance(cfg),
    }
    _write_json(out / "features_manifest.json", manifest)
    return manifest


def _load_stack(out: Path) -> FeatureStack:
    """The manifest's layers, each bit-identical to parsing its ``.asc`` file.

    A layer is read from the binary copy when that copy and the layer's
    ``.asc`` file both still have the sha256 the manifest records;
    otherwise (no record, a stale or truncated copy, an edited layer) the
    ``.asc`` file is parsed, so the ASCII rasters stay authoritative.
    """
    manifest = _read_json(out / "features_manifest.json")
    entries = manifest["layers"]
    record = manifest.get("stack")
    binary_path = out / record["file"] if record else None
    fresh = (binary_path is not None and binary_path.is_file()
             and _sha256_file(binary_path) == record["sha256"])
    names, grids = [], []
    with open(binary_path, "rb") if fresh else contextlib.nullcontext() as binary:
        if fresh:
            np.lib.format.read_magic(binary)
            shape, _, _ = np.lib.format.read_array_header_1_0(binary)
            start = binary.tell()
            fresh = shape[0] == len(entries)
        for i, entry in enumerate(entries):
            fpath = out / entry["file"]
            if not fpath.is_file():
                raise ConfigError(f"feature layer '{fpath}' named by the manifest does not exist")
            names.append(entry["name"])
            grid = None
            if fresh and _sha256_file(fpath) == entry["sha256"]:
                with open(fpath, encoding="ascii") as fh:
                    geo, nodata = parse_ascii_header(list(itertools.islice(fh, 6)))
                if shape[1:] == (geo.nrows, geo.ncols):
                    binary.seek(start + i * geo.nrows * geo.ncols * 8)
                    values = np.fromfile(binary, dtype="<f8", count=geo.nrows * geo.ncols)
                    grid = Grid(geo.ncols, geo.nrows, geo.xll, geo.yll, geo.cellsize,
                                nodata, values)
            grids.append(load_grid(fpath) if grid is None else grid)
    return FeatureStack(tuple(names), tuple(grids))


def _model_doc_path(out: Path, name: str) -> Path:
    return out / f"model_{name}.json"


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------


def _build_samples(cfg: dict, stack: FeatureStack, dem: Grid, reference: Grid,
                   strata: Grid | None) -> SampleTable:
    target = difference(dem, reference)
    s = cfg["sampling"]
    return extract_samples(stack, target, strata,
                           rate=float(s["rate"]), seed=int(s["seed"]))


def _train_all(cfg: dict, train: SampleTable):
    """Fit every selected model; returns {name: (model, document)}."""
    results = {}
    for name in cfg["models"]:
        if name == "mlr":
            report = flag_collinear(train,
                                    r_abs_threshold=float(cfg["collinearity"]["r_abs"]),
                                    vif_threshold=float(cfg["collinearity"]["vif"]))
            fitted = fit_ols(train, report.kept)
            model = replace(fitted, name="mlr")
            doc = model.to_doc()
            doc["excluded_features"] = list(report.flagged)
        else:
            growth = "depthwise" if name == "gbdt-depthwise" else "leafwise"
            model = fit_gbdt(train, _gbdt_params(cfg, growth), name=name)
            doc = serialize_model(model)
        doc["provenance"] = _provenance(cfg)
        results[name] = (model, doc)
    return results


def _load_model(path: Path):
    doc = _read_json(path)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt == "linear-model":
        return LinearModel.from_doc(doc), doc
    if fmt == "gbdt-model":
        return deserialize_model(doc), doc
    raise ConfigError(f"'{path}' is not a recognized model document (format={fmt!r})")


def _correct_one(name: str, model, stack: FeatureStack, dem: Grid,
                 reference: Grid | None, out: Path) -> Grid:
    dh = predict_error_grid(model, stack)
    corrected = apply_correction(dem, dh)
    save_grid(dh, out / f"predicted_error_{name}.asc")
    save_grid(corrected, out / f"corrected_{name}.asc")
    if reference is not None:
        save_grid(abs_error_grid(corrected, reference), out / f"abs_error_{name}.asc")
    return corrected


def _report_files(cfg: dict, report, out: Path, stem: str) -> None:
    doc = report.to_doc()
    doc["provenance"].update(_provenance(cfg))
    _write_json(out / f"{stem}.json", doc)
    (out / f"{stem}.txt").write_text(report.render_text())


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_features(cfg: dict) -> int:
    dem = load_grid(_require_path(cfg, "dem"))
    bare = load_grid(_require_path(cfg, "bare"))
    urban = load_grid(_require_path(cfg, "urban"))
    forest = load_grid(_require_path(cfg, "forest"))
    out = _out_dir(cfg)
    stack = build_feature_stack(dem, bare, urban, forest, _feature_config(cfg),
                                max_workers=worker_count())
    manifest = _write_stack(stack, cfg, out)
    print(f"wrote {len(manifest['layers'])} feature layers to {out}")
    return 0


def cmd_diagnose(cfg: dict) -> int:
    out = _out_dir(cfg)
    stack = _load_stack(out)
    dem = load_grid(_require_path(cfg, "dem"))
    reference = load_grid(_require_path(cfg, "reference"))
    strata = _optional_grid(cfg, "strata")
    table = _build_samples(cfg, stack, dem, reference, strata)
    report = flag_collinear(table,
                            r_abs_threshold=float(cfg["collinearity"]["r_abs"]),
                            vif_threshold=float(cfg["collinearity"]["vif"]))
    doc = report.to_doc()
    doc["provenance"] = _provenance(cfg)
    _write_json(out / "collinearity.json", doc)
    flagged = ", ".join(report.flagged) if report.flagged else "none"
    print(f"collinearity screen over {len(table)} samples; excluded: {flagged}")
    return 0


def cmd_train(cfg: dict) -> int:
    out = _out_dir(cfg)
    stack = _load_stack(out)
    dem = load_grid(_require_path(cfg, "dem"))
    reference = load_grid(_require_path(cfg, "reference"))
    strata = _optional_grid(cfg, "strata")
    table = _build_samples(cfg, stack, dem, reference, strata)
    s = cfg["sampling"]
    train, _ = split_table(table, train_fraction=float(s["train_fraction"]),
                           seed=int(s["seed"]), stratified=bool(s["stratified"]))
    for name, (_, doc) in _train_all(cfg, train).items():
        _write_json(_model_doc_path(out, name), doc)
        print(f"trained {name} on {len(train)} rows "
              f"({len(doc['feature_names'])} features)")
    return 0


def cmd_correct(cfg: dict, model_docs: list[str] | None = None) -> int:
    out = _out_dir(cfg)
    stack = _load_stack(out)
    dem = load_grid(_require_path(cfg, "dem"))
    reference = _optional_grid(cfg, "reference")
    paths = [Path(p) for p in model_docs] if model_docs else \
        [_model_doc_path(out, name) for name in cfg["models"]]
    for path in paths:
        model, doc = _load_model(path)
        name = doc.get("model_name", path.stem)
        _correct_one(name, model, stack, dem, reference, out)
        print(f"corrected DEM with {name}")
    return 0


def cmd_evaluate(cfg: dict) -> int:
    out = _out_dir(cfg)
    dem = load_grid(_require_path(cfg, "dem"))
    reference = load_grid(_require_path(cfg, "reference"))
    strata = _optional_grid(cfg, "strata")
    corrected = {}
    digests = {}
    for name in cfg["models"]:
        cpath = out / f"corrected_{name}.asc"
        if not cpath.is_file():
            raise ConfigError(f"'{cpath}' does not exist (run 'correct' first)")
        corrected[name] = load_grid(cpath)
        mpath = _model_doc_path(out, name)
        if mpath.is_file():
            digests[name] = _sha256_file(mpath)
    names = {int(k): v for k, v in STRATUM_NAMES.items()} if strata is not None else None
    report = build_report(reference, dem, corrected, strata,
                          stratum_names=names, model_digests=digests or None)
    _report_files(cfg, report, out, "report")
    print((out / "report.txt").read_text())
    return 0


def _resolve_noise(spec: ErrorSpec, fraction, dem, stack) -> ErrorSpec:
    """Set noise_std to fraction * std of the deterministic error field."""
    if fraction is None:
        return spec
    quiet = ErrorSpec(spec.linear_terms, spec.nonlinear_terms, 0.0, spec.seed)
    probe = inject_error(dem, stack, quiet)
    vals = probe.true_dh.values[probe.true_dh.valid_mask()]
    return ErrorSpec(spec.linear_terms, spec.nonlinear_terms,
                     float(fraction) * float(vals.std()), spec.seed)


def cmd_bench(cfg: dict) -> int:
    out = _out_dir(cfg)
    b = cfg["bench"]
    t0 = time.perf_counter()

    reference = fractal_dem(
        int(b["size_exponent"]), float(b["base_height"]),
        float(b["relief_amplitude"]), float(b["roughness_decay"]),
        seed=int(b["terrain_seed"]), cellsize=float(b["cellsize"]),
    )
    land = synth_landcover(reference, seed=int(b["landcover_seed"]))
    fcfg = _feature_config(cfg)
    workers = worker_count()
    clean_stack = build_feature_stack(reference, land.bare, land.urban, land.forest,
                                      fcfg, max_workers=workers)

    spec = _resolve_noise(ErrorSpec.from_doc(b["error_spec"]), b["noise_fraction"],
                          reference, clean_stack)
    injected = inject_error(reference, clean_stack, spec)
    original = injected.degraded

    save_grid(reference, out / "reference.asc")
    save_grid(original, out / "original.asc")
    save_grid(injected.true_dh, out / "true_error.asc")
    save_grid(land.bare, out / "mask_bare.asc")
    save_grid(land.urban, out / "mask_urban.asc")
    save_grid(land.forest, out / "mask_forest.asc")
    save_grid(land.strata, out / "strata.asc")
    _write_json(out / "error_spec.json",
                {**spec.to_doc(), "noise_fraction": b["noise_fraction"]})
    t_gen = time.perf_counter()

    stack = build_feature_stack(original, land.bare, land.urban, land.forest,
                                fcfg, max_workers=workers)
    _write_stack(stack, cfg, out)
    t_feat = time.perf_counter()

    table = _build_samples(cfg, stack, original, reference, land.strata)
    s = cfg["sampling"]
    train, test = split_table(table, train_fraction=float(s["train_fraction"]),
                              seed=int(s["seed"]), stratified=bool(s["stratified"]))
    (out / "samples_train.csv").write_text(train.to_csv())
    (out / "samples_test.csv").write_text(test.to_csv())

    diag = flag_collinear(table,
                          r_abs_threshold=float(cfg["collinearity"]["r_abs"]),
                          vif_threshold=float(cfg["collinearity"]["vif"]))
    diag_doc = diag.to_doc()
    diag_doc["provenance"] = _provenance(cfg)
    _write_json(out / "collinearity.json", diag_doc)

    trained = _train_all(cfg, train)
    digests = {}
    for name, (_, doc) in trained.items():
        path = _model_doc_path(out, name)
        _write_json(path, doc)
        digests[name] = _sha256_file(path)
    t_train = time.perf_counter()

    corrected = {}
    for name, (model, _) in trained.items():
        corrected[name] = _correct_one(name, model, stack, original, reference, out)
    t_correct = time.perf_counter()

    names = {int(k): v for k, v in land.stratum_names.items()}
    report = build_report(reference, original, corrected, land.strata,
                          stratum_names=names, model_digests=digests)
    _report_files(cfg, report, out, "report")

    test_mask = np.zeros((reference.nrows, reference.ncols), dtype=bool)
    test_mask[test.cells[:, 0], test.cells[:, 1]] = True
    ref_test = reference.with_values(
        np.where(test_mask, reference.values, reference.nodata))
    report_test = build_report(ref_test, original, corrected, land.strata,
                               stratum_names=names, model_digests=digests)
    _report_files(cfg, report_test, out, "report_test")

    _write_json(out / "resolved_config.json", {**cfg, "provenance": _provenance(cfg)})
    t_end = time.perf_counter()

    print(f"bench complete in {t_end - t0:.1f} s "
          f"(generate {t_gen - t0:.1f}, features {t_feat - t_gen:.1f}, "
          f"train {t_train - t_feat:.1f}, correct {t_correct - t_train:.1f}, "
          f"evaluate {t_end - t_correct:.1f})")
    print(f"train/test rows: {len(train)}/{len(test)}")
    print((out / "report_test.txt").read_text())
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demcorrect",
        description="Correct the vertical error of a DEM from terrain and "
                    "land-cover predictors.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--model", action="append", choices=MODEL_CHOICES,
                       help="model to use (repeatable; overrides the config list)")
        p.add_argument("--seed", type=int, help="override sampling and training seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any configuration value by dotted path")

    for name, doc in (
        ("features", "compute the eleven predictor rasters and a manifest"),
        ("diagnose", "write the Pearson/VIF collinearity report"),
        ("train", "fit the selected models and write their documents"),
        ("correct", "apply model corrections to the DEM"),
        ("evaluate", "score corrected DEMs against the reference"),
        ("bench", "run the full synthetic end-to-end benchmark"),
    ):
        p = sub.add_parser(name, help=doc)
        common(p)
        if name == "correct":
            p.add_argument("--model-doc", action="append",
                           help="model document to apply (repeatable; defaults "
                                "to the trained documents of the selected models)")
    return parser


#: exceptions caused by bad configuration or input data; they exit 2
_INPUT_ERRORS = (
    ConfigError,
    GridParseError,
    GeometryMismatch,
    ModelFormatError,
    SingularDesignError,
    ZeroVarianceError,
    EmptyTableError,
    FileNotFoundError,
)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage; keep that code
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        if args.command == "features":
            return cmd_features(cfg)
        if args.command == "diagnose":
            return cmd_diagnose(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "correct":
            return cmd_correct(cfg, args.model_doc)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        if args.command == "bench":
            return cmd_bench(cfg)
        raise ConfigError(f"unknown command '{args.command}'")
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
