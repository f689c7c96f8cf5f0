"""Command-line pipeline.

Subcommands wire the library into the correction workflow:

    features  -> the eleven predictor rasters, a checksummed manifest and
                 a binary copy of the layers that later steps read
    diagnose  -> Pearson/VIF collinearity report on the training split
    train     -> model documents (MLR on the features that survive that
                 same screen, GBDTs on all eleven)
    correct   -> corrected DEM and absolute-error rasters per model
    evaluate  -> stratified before/after report (JSON + text table)
    bench     -> synthetic inputs (terrain, land cover, injected error),
                 then the five steps above on them in memory, plus a
                 report over the held-out test cells

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
import math
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
    CollinearityReport,
    LinearModel,
    SingularDesignError,
    ZeroVarianceError,
    fit_ols,
    flag_collinear,
)
from .sampling import (
    EmptyTableError,
    SampleTable,
    StrataLabelError,
    extract_samples,
    split_table,
)
from .synth import (
    STRATUM_NAMES,
    ErrorSpec,
    check_fractal_args,
    fractal_dem,
    inject_error,
    synth_landcover,
)
from .terrain import (
    CANONICAL_FEATURES,
    FeatureConfig,
    FeatureStack,
    WindowSpec,
    build_feature_stack,
)

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
    *parents, leaf = dotted.split(".")
    node = cfg
    opaque = False  # below an opaque key the leaf may be new; its parents may not
    for depth, key in enumerate(parents, 1):
        if not isinstance(node.get(key), dict):
            raise ConfigError(f"unknown configuration key '{'.'.join(parents[:depth])}'")
        node = node[key]
        opaque = opaque or ".".join(parents[:depth]) in _OPAQUE_KEYS
    if not opaque and leaf not in node:
        raise ConfigError(f"unknown configuration key '{dotted}'")
    node[leaf] = value


def resolve_config(args) -> dict:
    """Defaults <- config file <- command-line flags, validated."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        path = Path(args.config)
        if path.is_dir():
            raise ConfigError(f"config file '{path}' is a directory")
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
    _check_values(cfg)
    return cfg


def _check_values(cfg: dict) -> None:
    """Build what each key of a checked section configures, one key at a time.

    Raises:
        ConfigError: a value the library refuses; names its dotted key.
    """
    builders = {
        "windows": _feature_config,
        "gbdt": lambda c: [_gbdt_params(c, growth) for growth in ("depthwise", "leafwise")],
        "sampling": _sampling_args,
        "collinearity": _screen_args,
        "bench": _bench_args,
    }
    for section, build in builders.items():
        for key, value in cfg[section].items():
            probe = copy.deepcopy(DEFAULT_CONFIG)
            probe[section][key] = value
            try:
                build(probe)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"configuration key '{section}.{key}': {exc}") from None


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


def _integral(value) -> int:
    """An integer config value; 2.0 passes, but a bool or 2.5 is refused
    rather than truncated (``_check_values`` names the key)."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"must be an integer, got {json.dumps(value)}")
    return int(value)


def _feature_config(cfg: dict) -> FeatureConfig:
    w = cfg["windows"]
    mvf = float(w["min_valid_fraction"])
    return FeatureConfig(
        roughness_window=WindowSpec(_integral(w["roughness_radius"]), mvf),
        tpi_window=WindowSpec(_integral(w["tpi_radius"]), mvf),
        vrm_window=WindowSpec(_integral(w["vrm_radius"]), mvf),
        landcover_window=WindowSpec(_integral(w["landcover_radius"]), mvf),
        texture_window=WindowSpec(_integral(w["texture_radius"]), mvf),
        texture_threshold=float(w["texture_threshold"]),
    )


def _sampling_args(cfg: dict) -> tuple[float, float, int, bool]:
    """(rate, train_fraction, seed, stratified), in the ranges the sampling functions take."""
    s = cfg["sampling"]
    rate, train_fraction = float(s["rate"]), float(s["train_fraction"])
    if not 0 < rate <= 1:
        raise ValueError("rate must be in (0, 1]")
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    seed = _integral(s["seed"])
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return rate, train_fraction, seed, bool(s["stratified"])


def _screen_args(cfg: dict) -> tuple[float, float]:
    """(r_abs, vif) thresholds of the collinearity screen."""
    c = cfg["collinearity"]
    r_abs, vif = float(c["r_abs"]), float(c["vif"])
    if math.isnan(r_abs) or math.isnan(vif):
        raise ValueError("threshold must be a number, got NaN")
    return r_abs, vif


def _bench_args(cfg: dict) -> tuple[dict, int, float | None, ErrorSpec]:
    """(fractal_dem keywords, landcover seed, noise fraction, error spec).

    Checked as far as they can be without generating terrain.
    """
    b = cfg["bench"]
    terrain = {
        "size_exponent": _integral(b["size_exponent"]),
        "base_height": float(b["base_height"]),
        "relief_amplitude": float(b["relief_amplitude"]),
        "roughness_decay": float(b["roughness_decay"]),
        "seed": _integral(b["terrain_seed"]),
        "cellsize": float(b["cellsize"]),
    }
    check_fractal_args(terrain["size_exponent"], terrain["base_height"],
                       terrain["relief_amplitude"], terrain["roughness_decay"],
                       terrain["cellsize"])
    landcover_seed = _integral(b["landcover_seed"])
    fraction = b["noise_fraction"]
    if fraction is not None:
        fraction = float(fraction)
        if not (0 <= fraction < math.inf):
            raise ValueError("noise_fraction must be null, or finite and >= 0")
    try:
        spec = ErrorSpec.from_doc(b["error_spec"])
    except (AttributeError, KeyError) as exc:
        raise ValueError(f"malformed error spec: {type(exc).__name__}: {exc}") from None
    for name in spec.referenced_features():
        if name not in CANONICAL_FEATURES:
            raise ValueError(f"unknown feature '{name}' in error spec "
                             f"(features: {', '.join(CANONICAL_FEATURES)})")
    if min(terrain["seed"], landcover_seed, spec.seed) < 0:
        raise ValueError("seeds must be >= 0")
    return terrain, landcover_seed, fraction, spec


def _gbdt_params(cfg: dict, growth: str) -> GbdtParams:
    g = cfg["gbdt"]
    return GbdtParams(
        n_trees=_integral(g["n_trees"]),
        learning_rate=float(g["learning_rate"]),
        growth=growth,
        max_depth=None if g["max_depth"] is None else _integral(g["max_depth"]),
        max_leaves=_integral(g["max_leaves"]),
        min_samples_leaf=_integral(g["min_samples_leaf"]),
        min_gain=float(g["min_gain"]),
        reg_lambda=float(g["lambda"]),
        seed=_integral(g["seed"]),
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
_MANIFEST_FILE = "features_manifest.json"


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
    _write_json(out / _MANIFEST_FILE, manifest)
    return manifest


def _read_manifest(path: Path) -> tuple[list[dict], dict | None]:
    """The manifest's layer records and its stack record (None if absent).

    Raises:
        ConfigError: a key :func:`_load_stack` reads is missing or holds the
            wrong type; names the manifest.
    """
    kinds = {list: "an array", dict: "an object", str: "a string"}

    def field(doc, key, kind, where):
        value = doc.get(key) if isinstance(doc, dict) else None
        if not isinstance(value, kind):
            raise ConfigError(f"'{path}': {where}'{key}' is missing or not {kinds[kind]}")
        return value

    manifest = _read_json(path)
    entries = field(manifest, "layers", list, "")
    for i, entry in enumerate(entries):
        for key in ("name", "file", "sha256"):
            field(entry, key, str, f"layers[{i}].")
    record = manifest.get("stack")
    if record is not None:
        for key in ("file", "sha256"):
            field(record, key, str, "stack.")
    return entries, record


def _load_stack(out: Path) -> FeatureStack:
    """The manifest's layers, each bit-identical to parsing its ``.asc`` file.

    A layer is read from the binary copy when that copy and the layer's
    ``.asc`` file both still have the sha256 the manifest records;
    otherwise (no record, a stale or truncated copy, an edited layer) the
    ``.asc`` file is parsed, so the ASCII rasters stay authoritative.
    """
    entries, record = _read_manifest(out / _MANIFEST_FILE)
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


def _corrected_path(out: Path, name: str) -> Path:
    return out / f"corrected_{name}.asc"


def _load_model(path: Path):
    doc = _read_json(path)
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt == "linear-model":
        return LinearModel.from_doc(doc), doc
    if fmt == "gbdt-model":
        return deserialize_model(doc), doc
    raise ConfigError(f"'{path}' is not a recognized model document (format={fmt!r})")


# ---------------------------------------------------------------------------
# pipeline steps: each computes from in-memory inputs and writes its outputs;
# the step commands load those inputs from disk, bench makes them
# ---------------------------------------------------------------------------


def _features_step(cfg: dict, dem: Grid, bare: Grid, urban: Grid, forest: Grid,
                   out: Path) -> FeatureStack:
    stack = build_feature_stack(dem, bare, urban, forest, _feature_config(cfg),
                                max_workers=worker_count())
    _write_stack(stack, cfg, out)
    return stack


def _split_step(cfg: dict, stack: FeatureStack, dem: Grid, reference: Grid,
                strata: Grid | None) -> tuple[SampleTable, SampleTable]:
    """The (train, test) split of the sampled cells, target = dem - reference."""
    rate, train_fraction, seed, stratified = _sampling_args(cfg)
    table = extract_samples(stack, difference(dem, reference), strata, rate=rate, seed=seed)
    return split_table(table, train_fraction=train_fraction, seed=seed, stratified=stratified)


def _screen(cfg: dict, train: SampleTable) -> CollinearityReport:
    """The Pearson/VIF screen whose survivors the MLR is fit on."""
    r_abs, vif = _screen_args(cfg)
    return flag_collinear(train, r_abs_threshold=r_abs, vif_threshold=vif)


def _diagnose_step(cfg: dict, train: SampleTable, out: Path) -> CollinearityReport:
    report = _screen(cfg, train)
    doc = report.to_doc()
    doc["provenance"] = _provenance(cfg)
    _write_json(out / "collinearity.json", doc)
    return report


def _train_step(cfg: dict, train: SampleTable, out: Path) -> dict:
    """Fit and write every selected model; returns {name: (model, document path)}."""
    results = {}
    for name in cfg["models"]:
        if name == "mlr":
            screen = _screen(cfg, train)
            model = replace(fit_ols(train, screen.kept), name="mlr")
            doc = model.to_doc()
            doc["excluded_features"] = list(screen.flagged)
        else:
            growth = "depthwise" if name == "gbdt-depthwise" else "leafwise"
            model = fit_gbdt(train, _gbdt_params(cfg, growth), name=name)
            doc = serialize_model(model)
        doc["provenance"] = _provenance(cfg)
        path = _model_doc_path(out, name)
        _write_json(path, doc)
        results[name] = (model, path)
    return results


def _correct_step(models: dict, stack: FeatureStack, dem: Grid, reference: Grid | None,
                  out: Path) -> dict[str, Grid]:
    """Corrected DEM per {name: (model, document path)}, with its rasters written.

    Raises:
        ModelFormatError: a document names a feature layer the stack lacks.
    """
    corrected = {}
    for name, (model, path) in models.items():
        for feature in model.feature_names:
            if feature not in stack.names:
                raise ModelFormatError(
                    f"'{path}' names feature layer '{feature}', which the feature "
                    f"stack lacks (layers: {', '.join(stack.names)})")
        dh = predict_error_grid(model, stack)
        corrected[name] = apply_correction(dem, dh)
        save_grid(dh, out / f"predicted_error_{name}.asc")
        save_grid(corrected[name], _corrected_path(out, name))
        if reference is not None:
            save_grid(abs_error_grid(corrected[name], reference), out / f"abs_error_{name}.asc")
    return corrected


def _evaluate_step(cfg: dict, reference: Grid, dem: Grid, corrected: dict,
                   strata: Grid | None, out: Path, stem: str = "report"):
    """Write ``<stem>.json`` and ``<stem>.txt``; model digests come from the documents."""
    digests = {name: _sha256_file(path) for name in corrected
               if (path := _model_doc_path(out, name)).is_file()}
    report = build_report(reference, dem, corrected, strata,
                          stratum_names=STRATUM_NAMES if strata is not None else None,
                          model_digests=digests or None)
    doc = report.to_doc()
    doc["provenance"].update(_provenance(cfg))
    _write_json(out / f"{stem}.json", doc)
    (out / f"{stem}.txt").write_text(report.render_text())
    return report


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_features(cfg: dict) -> int:
    dem = load_grid(_require_path(cfg, "dem"))
    bare = load_grid(_require_path(cfg, "bare"))
    urban = load_grid(_require_path(cfg, "urban"))
    forest = load_grid(_require_path(cfg, "forest"))
    out = _out_dir(cfg)
    stack = _features_step(cfg, dem, bare, urban, forest, out)
    print(f"wrote {len(stack.names)} feature layers to {out}")
    return 0


def _load_train_split(cfg: dict) -> tuple[Path, SampleTable]:
    out = _out_dir(cfg)
    stack = _load_stack(out)
    dem = load_grid(_require_path(cfg, "dem"))
    reference = load_grid(_require_path(cfg, "reference"))
    train, _ = _split_step(cfg, stack, dem, reference, _optional_grid(cfg, "strata"))
    return out, train


def cmd_diagnose(cfg: dict) -> int:
    out, train = _load_train_split(cfg)
    report = _diagnose_step(cfg, train, out)
    flagged = ", ".join(report.flagged) or "none"
    print(f"collinearity screen over {len(train)} training samples; excluded: {flagged}")
    return 0


def cmd_train(cfg: dict) -> int:
    out, train = _load_train_split(cfg)
    for name, (model, _) in _train_step(cfg, train, out).items():
        print(f"trained {name} on {len(train)} rows "
              f"({len(model.feature_names)} features)")
    return 0


def cmd_correct(cfg: dict, model_docs: list[str] | None = None) -> int:
    out = _out_dir(cfg)
    stack = _load_stack(out)
    dem = load_grid(_require_path(cfg, "dem"))
    reference = _optional_grid(cfg, "reference")
    paths = [Path(p) for p in model_docs] if model_docs else \
        [_model_doc_path(out, name) for name in cfg["models"]]
    models = {}
    for path in paths:
        model, doc = _load_model(path)
        models[doc.get("model_name", path.stem)] = (model, path)
    for name in _correct_step(models, stack, dem, reference, out):
        print(f"corrected DEM with {name}")
    return 0


def cmd_evaluate(cfg: dict) -> int:
    out = _out_dir(cfg)
    dem = load_grid(_require_path(cfg, "dem"))
    reference = load_grid(_require_path(cfg, "reference"))
    strata = _optional_grid(cfg, "strata")
    corrected = {}
    for name in cfg["models"]:
        cpath = _corrected_path(out, name)
        if not cpath.is_file():
            raise ConfigError(f"'{cpath}' does not exist (run 'correct' first)")
        corrected[name] = load_grid(cpath)
    print(_evaluate_step(cfg, reference, dem, corrected, strata, out).render_text())
    return 0


def _resolve_noise(spec: ErrorSpec, fraction: float | None, dem, stack) -> ErrorSpec:
    """Set noise_std to fraction * std of the deterministic error field."""
    if fraction is None:
        return spec
    quiet = ErrorSpec(spec.linear_terms, spec.nonlinear_terms, 0.0, spec.seed)
    probe = inject_error(dem, stack, quiet)
    vals = probe.true_dh.values[probe.true_dh.valid_mask()]
    return ErrorSpec(spec.linear_terms, spec.nonlinear_terms,
                     fraction * float(vals.std()), spec.seed)


def cmd_bench(cfg: dict) -> int:
    """Generate synthetic inputs, then run the pipeline steps on them in memory."""
    out = _out_dir(cfg)
    terrain, landcover_seed, noise_fraction, spec = _bench_args(cfg)
    t0 = time.perf_counter()

    reference = fractal_dem(**terrain)
    land = synth_landcover(reference, seed=landcover_seed)
    clean_stack = build_feature_stack(reference, land.bare, land.urban, land.forest,
                                      _feature_config(cfg), max_workers=worker_count())

    spec = _resolve_noise(spec, noise_fraction, reference, clean_stack)
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
                {**spec.to_doc(), "noise_fraction": noise_fraction})
    t_gen = time.perf_counter()

    stack = _features_step(cfg, original, land.bare, land.urban, land.forest, out)
    t_feat = time.perf_counter()

    train, test = _split_step(cfg, stack, original, reference, land.strata)
    (out / "samples_train.csv").write_text(train.to_csv())
    (out / "samples_test.csv").write_text(test.to_csv())
    _diagnose_step(cfg, train, out)
    models = _train_step(cfg, train, out)
    t_train = time.perf_counter()

    corrected = _correct_step(models, stack, original, reference, out)
    t_correct = time.perf_counter()

    _evaluate_step(cfg, reference, original, corrected, land.strata, out)
    test_mask = np.zeros((reference.nrows, reference.ncols), dtype=bool)
    test_mask[test.cells[:, 0], test.cells[:, 1]] = True
    ref_test = reference.with_values(
        np.where(test_mask, reference.values, reference.nodata))
    report_test = _evaluate_step(cfg, ref_test, original, corrected, land.strata, out,
                                 "report_test")

    _write_json(out / "resolved_config.json", {**cfg, "provenance": _provenance(cfg)})
    t_end = time.perf_counter()

    print(f"bench complete in {t_end - t0:.1f} s "
          f"(generate {t_gen - t0:.1f}, features {t_feat - t_gen:.1f}, "
          f"train {t_train - t_feat:.1f}, correct {t_correct - t_train:.1f}, "
          f"evaluate {t_end - t_correct:.1f})")
    print(f"train/test rows: {len(train)}/{len(test)}")
    print(report_test.render_text())
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
    StrataLabelError,
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
