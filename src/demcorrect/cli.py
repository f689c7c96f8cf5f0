"""Command-line pipeline.

Subcommands wire the library into the correction workflow:

    features  -> the eleven predictor rasters, a checksummed manifest and
                 a binary copy of each layer that later steps read
    diagnose  -> Pearson/VIF collinearity report on the training split
    train     -> model documents (MLR on the features that survive that
                 same screen, GBDTs on all eleven)
    correct   -> corrected DEM and absolute-error rasters per model
    evaluate  -> stratified before/after report (JSON + text table)
    bench     -> synthetic inputs (terrain, land cover, injected error),
                 then the five steps above, run as the step commands
                 run them, plus a report over the held-out test cells

Configuration comes from one JSON document plus flag overrides (flags
win). Every output embeds a provenance block with the resolved config
digest, and reruns with identical configuration are byte-identical.

Exit codes: 0 success, 1 internal error, 2 configuration/input error,
141 (128 + SIGPIPE, as a shell reports a process that SIGPIPE ended) when
the reader of stdout has gone, as in ``demcorrect bench | head -n 1``; the
command's files are complete by then, and nothing goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .evaluate import abs_error_values, build_report, corrected_values, predict_error_grid
from .gbdt import (
    GbdtModel,
    GbdtParams,
    ModelFormatError,
    RegressionTree,
    deserialize_model,
    fit_gbdt,
    serialize_model,
    serialize_tree,
)
from .grid import (
    Grid,
    GeometryMismatch,
    GridGeometry,
    GridParseError,
    GridRows,
    InputOverflowError,
    NonFiniteError,
    check_values,
    difference,
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
from .store import GridWriter, PartialFiles, read_grid, read_header, sha256_file
from .synth import (
    STRATUM_NAMES,
    ErrorSpec,
    LandcoverSet,
    check_fractal_args,
    fractal_dem,
    inject_error,
    json_number,
    synth_landcover,
)
from .terrain import (
    CANONICAL_FEATURES,
    FeatureConfig,
    FeatureStack,
    MaskValueError,
    WindowSpec,
    build_feature_stack,
    layer_templates,
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
    """``--set a.b=value`` merges as a config file holding ``{"a": {"b":
    value}}`` would (:func:`_merge`). Below an opaque key it sets one leaf
    instead and keeps the rest: the leaf may be new, its parents may not."""
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = dotted.split(".")
    if not any(".".join(keys[:depth]) in _OPAQUE_KEYS for depth in range(1, len(keys))):
        for key in reversed(keys):
            value = {key: value}
        _merge(cfg, value)
        return
    node = cfg
    for depth, key in enumerate(keys[:-1], 1):
        if not isinstance(node.get(key), dict):
            raise ConfigError(f"unknown configuration key '{'.'.join(keys[:depth])}'")
        node = node[key]
    node[keys[-1]] = value


def resolve_config(args) -> dict:
    """Defaults <- config file <- command-line flags, validated."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        path = Path(args.config)
        if path.is_dir():
            raise ConfigError(f"config file '{path}' is a directory")
        if not path.is_file():
            raise ConfigError(f"config file '{path}' does not exist")
        loaded = _read_json(path, "config file ")
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

    if not isinstance(cfg["models"], list):
        raise ConfigError(f"configuration key 'models': must be an array of model names, "
                          f"got {json.dumps(cfg['models'])}")
    for name in cfg["models"]:
        if name not in MODEL_CHOICES:
            raise ConfigError(
                f"unknown model '{name}' (choices: {', '.join(MODEL_CHOICES)})"
            )
    if not cfg["models"]:
        raise ConfigError("at least one model must be selected")
    # null leaves an input unset; the output directory must be named
    for key, value in cfg["paths"].items():
        if not (isinstance(value, str) or value is None and key != "out_dir"):
            kind = "a string" if key == "out_dir" else "null or a string"
            raise ConfigError(f"configuration key 'paths.{key}': must be {kind}, "
                              f"got {json.dumps(value)}")
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
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"configuration key '{section}.{key}': {exc}") from None


def config_digest(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _provenance(cfg: dict) -> dict:
    return {"config_digest": config_digest(cfg), "package_version": __version__}


def _strict(value):
    """``value`` with each non-finite float written as the string
    ``collinearity.json`` gives it ("Infinity", "-Infinity"; "NaN"), so
    that its document is strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("-Infinity" if value < 0 else "Infinity")
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict(item) for item in value]
    return value


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
    mvf = json_number(w["min_valid_fraction"])
    return FeatureConfig(
        roughness_window=WindowSpec(json_number(w["roughness_radius"], cast=int), mvf),
        tpi_window=WindowSpec(json_number(w["tpi_radius"], cast=int), mvf),
        vrm_window=WindowSpec(json_number(w["vrm_radius"], cast=int), mvf),
        landcover_window=WindowSpec(json_number(w["landcover_radius"], cast=int), mvf),
        texture_window=WindowSpec(json_number(w["texture_radius"], cast=int), mvf),
        texture_threshold=json_number(w["texture_threshold"]),
    )


def _sampling_args(cfg: dict) -> tuple[float, float, int, bool]:
    """(rate, train_fraction, seed, stratified), in the ranges the sampling functions take."""
    s = cfg["sampling"]
    rate, train_fraction = json_number(s["rate"]), json_number(s["train_fraction"])
    if not 0 < rate <= 1:
        raise ValueError("rate must be in (0, 1]")
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    seed = json_number(s["seed"], cast=int)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if not isinstance(s["stratified"], bool):
        raise ValueError(f"must be true or false, got {json.dumps(s['stratified'])}")
    return rate, train_fraction, seed, s["stratified"]


def _screen_args(cfg: dict) -> tuple[float, float]:
    """(r_abs, vif) thresholds of the collinearity screen."""
    c = cfg["collinearity"]
    r_abs, vif = json_number(c["r_abs"]), json_number(c["vif"])
    if math.isnan(r_abs) or math.isnan(vif):
        raise ValueError("threshold must be a number, got NaN")
    return r_abs, vif


def _bench_args(cfg: dict) -> tuple[dict, int, float | None, ErrorSpec]:
    """(fractal_dem keywords, landcover seed, noise fraction, error spec).

    Checked as far as they can be without generating terrain.
    """
    b = cfg["bench"]
    terrain = {
        "size_exponent": json_number(b["size_exponent"], cast=int),
        "base_height": json_number(b["base_height"]),
        "relief_amplitude": json_number(b["relief_amplitude"]),
        "roughness_decay": json_number(b["roughness_decay"]),
        "seed": json_number(b["terrain_seed"], cast=int),
        "cellsize": json_number(b["cellsize"]),
    }
    check_fractal_args(terrain["size_exponent"], terrain["base_height"],
                       terrain["relief_amplitude"], terrain["roughness_decay"],
                       terrain["cellsize"])
    landcover_seed = json_number(b["landcover_seed"], cast=int)
    fraction = b["noise_fraction"]
    if fraction is not None:
        fraction = json_number(fraction)
        if not (0 <= fraction < math.inf):
            raise ValueError("noise_fraction must be null, or finite and >= 0")
    spec = ErrorSpec.from_doc(b["error_spec"])
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
        n_trees=json_number(g["n_trees"], cast=int),
        learning_rate=json_number(g["learning_rate"]),
        growth=growth,
        max_depth=None if g["max_depth"] is None else json_number(g["max_depth"], cast=int),
        max_leaves=json_number(g["max_leaves"], cast=int),
        min_samples_leaf=json_number(g["min_samples_leaf"], cast=int),
        min_gain=json_number(g["min_gain"]),
        reg_lambda=json_number(g["lambda"]),
        seed=json_number(g["seed"], cast=int),
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


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["paths"]["out_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"output directory '{out}': {exc.strerror}") from None
    return out


class _DeferredTree:
    """A GBDT document's entry for ``tree``, which :func:`_write_json` builds
    only when the encoder reaches it."""

    __slots__ = ("tree",)

    def __init__(self, tree: RegressionTree):
        self.tree = tree


def _encode_deferred(value):
    """``json.dump``'s ``default``: the dict of a deferred tree; any other
    value is refused as the encoder refuses it without a ``default``."""
    if isinstance(value, _DeferredTree):
        return serialize_tree(value.tree)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _gbdt_doc(model: GbdtModel) -> dict:
    """``serialize_model(model)`` with each ``trees`` entry deferred, so that
    :func:`_write_json` holds one tree's dict at a time."""
    doc = serialize_model(replace(model, trees=()))
    doc["trees"] = [_DeferredTree(tree) for tree in model.trees]
    return doc


def _write_json(path: Path, doc: dict) -> None:
    """Write ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` to ``path``,
    encoding into the file as it goes: the same pure-Python encoder, without
    joining the whole document into one string first. A deferred tree
    (:func:`_gbdt_doc`) is built when the encoder reaches it and dropped
    once it is written."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_encode_deferred)
        fh.write("\n")


def _read_json(path: Path, what: str = "") -> dict:
    """The JSON document at ``path``; ``what`` is how errors introduce it."""
    if not path.is_file():
        raise ConfigError(f"{what}'{path}' does not exist (run the earlier pipeline step first)")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what}'{path}' is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                          f"at offset {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what}'{path}' is not valid JSON: {exc}") from None


_MANIFEST_FILE = "features_manifest.json"


def _write_manifest(cfg: dict, out: Path, digests: dict) -> None:
    """Write ``features_manifest.json``: each layer's file and its sha256,
    from {name: sha256} ``digests``."""
    _write_json(out / _MANIFEST_FILE, {
        "format": "feature-manifest",
        "version": 1,
        "layers": [{"name": name, "file": f"feature_{name}.asc", "sha256": digest}
                   for name, digest in digests.items()],
        "windows": dict(cfg["windows"]),
        "provenance": _provenance(cfg),
    })


def _read_manifest(path: Path) -> list[dict]:
    """The manifest's layer records. A ``stack`` record, which earlier
    versions wrote, is not read.

    Raises:
        ConfigError: a key :func:`_load_stack` reads is missing or holds the
            wrong type; names the manifest.
    """
    kinds = {list: "an array", str: "a string"}

    def field(doc, key, kind, where):
        value = doc.get(key) if isinstance(doc, dict) else None
        if not isinstance(value, kind):
            raise ConfigError(f"'{path}': {where}'{key}' is missing or not {kinds[kind]}")
        return value

    entries = field(_read_json(path), "layers", list, "")
    names = set()
    for i, entry in enumerate(entries):
        for key in ("name", "file", "sha256"):
            field(entry, key, str, f"layers[{i}].")
        if entry["name"] in names:
            raise ConfigError(f"'{path}': layers[{i}] repeats the layer name '{entry['name']}'")
        names.add(entry["name"])
    return entries


def _stack_files(out: Path) -> tuple[list[str], list[Path], GridGeometry]:
    """The manifest's layer names and files, and the stack's geometry,
    once every layer's header is checked.

    Raises:
        GeometryMismatch: a layer is not on the first layer's geometry.
    """
    entries = _read_manifest(out / _MANIFEST_FILE)
    paths, geometries = [out / entry["file"] for entry in entries], []
    for path in paths:
        if not path.is_file():
            raise ConfigError(f"feature layer '{path}' named by the manifest does not exist")
        geometries.append(read_header(path)[0])
        _require_on(f"feature layer '{path}'", geometries[-1], geometries[0],
                    "the feature stack's")
    return [entry["name"] for entry in entries], paths, geometries[0]


def _load_stack(out: Path, layers: tuple | None = None) -> FeatureStack:
    """The ``layers`` of :func:`_stack_files`, each read a block of rows at
    a time from its copy (:func:`read_grid`)."""
    names, paths, _ = layers or _stack_files(out)
    return FeatureStack(names, [read_grid(path, out) for path in paths])


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
# pipeline steps: each writes its outputs from the inputs it is handed; the
# step commands open those from disk, bench makes some and reads the rest back
# ---------------------------------------------------------------------------


def _features_step(cfg: dict, dem: GridRows, bare: GridRows, urban: GridRows, forest: GridRows,
                   out: Path) -> None:
    """Build the feature stack and write each layer's ``feature_<name>.asc``
    and binary copy through a :class:`GridWriter` a row block at a time, as
    it is built, so that no whole derived layer is held, and a build
    refused at any block leaves no new file; then the manifest."""
    templates = layer_templates(dem, bare, urban, forest)
    with PartialFiles() as files:
        writers = [GridWriter(files, out / f"feature_{name}.asc", template.geometry,
                              template.nodata, copy=True)
                   for name, template in zip(CANONICAL_FEATURES, templates)]

        def write(first, rows):
            for writer, values in zip(writers, rows):
                writer.write(values)

        build_feature_stack(dem, bare, urban, forest, _feature_config(cfg),
                            max_workers=worker_count(), sink=write)
    _write_manifest(cfg, out, {name: writer.sha256
                               for name, writer in zip(CANONICAL_FEATURES, writers)})


def _split_step(cfg: dict, stack: FeatureStack, target: GridRows,
                strata: GridRows | None) -> tuple[SampleTable, SampleTable]:
    """The (train, test) split of the sampled cells; the target is dem - reference."""
    rate, train_fraction, seed, stratified = _sampling_args(cfg)
    table = extract_samples(stack, target, strata, rate=rate, seed=seed)
    return split_table(table, train_fraction=train_fraction, seed=seed, stratified=stratified)


def _screen(cfg: dict, train: SampleTable, out: Path) -> CollinearityReport:
    """The Pearson/VIF screen whose survivors the MLR is fit on; a feature
    constant over ``train`` is refused naming its layer's file in ``out``."""
    r_abs, vif = _screen_args(cfg)
    try:
        return flag_collinear(train, r_abs_threshold=r_abs, vif_threshold=vif)
    except ZeroVarianceError as exc:
        raise ZeroVarianceError(f"'{out / f'feature_{exc.feature}.asc'}': {exc}",
                                exc.feature) from None


def _diagnose_step(cfg: dict, train: SampleTable, out: Path) -> CollinearityReport:
    report = _screen(cfg, train, out)
    doc = report.to_doc()
    doc["provenance"] = _provenance(cfg)
    _write_json(out / "collinearity.json", doc)
    return report


def _train_step(cfg: dict, train: SampleTable, out: Path,
                screen: CollinearityReport | None = None) -> dict:
    """Fit and write every selected model; returns {name: (model, document path)}.

    The MLR is fit on the features that survive ``screen``, the report
    :func:`_diagnose_step` returned for ``train``; without it, ``train`` is
    screened here.
    """
    results = {}
    for name in cfg["models"]:
        if name == "mlr":
            if screen is None:
                screen = _screen(cfg, train, out)
            model = replace(fit_ols(train, screen.kept), name="mlr")
            doc = model.to_doc()
            doc["excluded_features"] = list(screen.flagged)
        else:
            growth = "depthwise" if name == "gbdt-depthwise" else "leafwise"
            model = fit_gbdt(train, _gbdt_params(cfg, growth), name=name)
            doc = _gbdt_doc(model)
        doc["provenance"] = _provenance(cfg)
        path = _model_doc_path(out, name)
        _write_json(path, doc)
        results[name] = (model, path)
    return results


def _geometry_text(geo) -> str:
    return (f"{geo.ncols} x {geo.nrows}, xll {float(geo.xll)!r}, yll {float(geo.yll)!r}, "
            f"cellsize {float(geo.cellsize)!r}")


def _require_on(source: str, geometry, against, what: str) -> None:
    """Refuse the grid ``source`` unless its ``geometry`` matches
    ``against``, the geometry that ``what`` names.

    Raises:
        GeometryMismatch: names the source and shows both geometries.
    """
    if not geometry.matches(against):
        raise GeometryMismatch(f"{source} ({_geometry_text(geometry)}) is not on "
                               f"{what} geometry ({_geometry_text(against)})")


def _header_on(source: str, path: Path, against, what: str) -> Path:
    """``path``, once the geometry in its header passes :func:`_require_on`."""
    _require_on(source, read_header(path)[0], against, what)
    return path


def _source(cfg: dict, key: str) -> str:
    """How a refusal names the input ``paths.<key>``: its key and its file."""
    return f"paths.{key} '{cfg['paths'][key]}'"


def _read_inputs(cfg: dict, out: Path, keys: tuple, optional: tuple = ()):
    """The feature stack and {key: grid} of ``paths.<key>`` for ``keys``
    and the ``optional`` keys that are set, read once every header is
    checked (the DEM's and strata's against the stack's, the reference's
    against the DEM's), so that a refused input leaves no new copy."""
    layers = _stack_files(out)
    paths, geometry = {}, layers[2]
    for key in keys + tuple(key for key in optional if cfg["paths"].get(key)):
        against, what = (read_header(paths["dem"])[0], "the DEM's") if key == "reference" \
            else (geometry, "the feature stack's")
        paths[key] = _header_on(_source(cfg, key), _require_path(cfg, key), against, what)
    return _load_stack(out, layers), {key: read_grid(path, out) for key, path in paths.items()}


def _correct_step(models: dict, stack: FeatureStack, dem: GridRows, reference: GridRows | None,
                  out: Path) -> None:
    """Write each model's predicted error, corrected DEM and, given a
    reference, absolute error, for {name: (model, document path)}, a block
    of rows at a time, as the predictions arrive, each through a
    :class:`GridWriter`; only the corrected DEM's writes a binary copy,
    which ``evaluate`` reads. A model's files take their names once they
    are complete. Every document is checked before the first file opens.
    The DEM must be on the stack's geometry and the reference on the
    DEM's, as :func:`_read_inputs` checks.

    Raises:
        ModelFormatError: a document names a feature layer the stack lacks,
            or gives a value that is not finite (names the cell).
    """
    for name, (model, path) in models.items():
        for feature in model.feature_names:
            if feature not in stack.names:
                raise ModelFormatError(
                    f"'{path}' names feature layer '{feature}', which the feature "
                    f"stack lacks (layers: {', '.join(stack.names)})")
    for name, (model, path) in models.items():
        # a value that overflows is refused by its check, not warned of
        with PartialFiles() as files, np.errstate(over="ignore", invalid="ignore"):
            writers = [GridWriter(files, out / f"predicted_error_{name}.asc", stack.geometry,
                                  stack.nodata[0]),
                       GridWriter(files, _corrected_path(out, name), dem.geometry, dem.nodata,
                                  copy=True)]
            if reference is not None:
                writers.append(GridWriter(files, out / f"abs_error_{name}.asc", dem.geometry,
                                          dem.nodata))

            def write(first, error):
                last = first + len(error)
                blocks = [error, corrected_values(dem.rows(first, last), dem.nodata, error,
                                                  stack.nodata[0])]
                if reference is not None:
                    blocks.append(abs_error_values(blocks[1], dem.nodata,
                                                   reference.rows(first, last),
                                                   reference.nodata))
                for block in blocks[1:]:
                    check_values(block, dem.nodata, first)
                for writer, block in zip(writers, blocks):
                    writer.write(block)

            try:
                predict_error_grid(model, stack, sink=write)
            except NonFiniteError as exc:
                raise ModelFormatError(f"'{path}': the model's correction overflows: "
                                       f"{exc}") from None


def _evaluate_step(cfg: dict, reference: GridRows, dem: GridRows, corrected: dict,
                   strata: GridRows | None, out: Path, stem: str = "report"):
    """Write ``<stem>.json`` and ``<stem>.txt``; model digests come from the documents."""
    digests = {name: sha256_file(path) for name in corrected
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
    keys = ("dem", "bare", "urban", "forest")
    paths, geometries = [], []
    for key in keys:
        paths.append(_require_path(cfg, key))
        geometries.append(read_header(paths[-1])[0])
    # every header is read before any geometry is compared
    for key, geometry in zip(keys[1:], geometries[1:]):
        _require_on(_source(cfg, key), geometry, geometries[0], "the DEM's")
    out = _out_dir(cfg)
    # the inputs' copies stay only if the layers are written
    with PartialFiles() as copies:
        dem, *masks = [read_grid(path, out, copies) for path in paths]
        try:
            _features_step(cfg, dem, *masks, out)
        except MaskValueError as exc:  # what the feature build calls "<key> mask"
            key = exc.what.removesuffix(" mask")
            raise MaskValueError(f"{_source(cfg, key)}: {exc}", exc.what) from None
    print(f"wrote {len(CANONICAL_FEATURES)} feature layers to {out}")
    return 0


@contextlib.contextmanager
def _named(kind: type, *sources: str):
    """Name the ``sources`` (files, configuration keys) in a ``kind`` error raised inside."""
    try:
        yield
    except kind as exc:
        listed = " and ".join([", ".join(sources[:-1]), sources[-1]] if sources[1:] else sources)
        raise kind(f"{listed}: {exc}") from None


def _key(cfg: dict, section: str, key: str) -> str:
    return f"configuration key '{section}.{key}' ({float(cfg[section][key])!r})"


def _sample_sources(cfg: dict, out: Path) -> tuple[str, str, str]:
    """Where the sampled cells come from: the layers, and DEM - reference."""
    return f"'{out / _MANIFEST_FILE}'", _source(cfg, "dem"), _source(cfg, "reference")


def _load_train_split(cfg: dict) -> tuple[Path, SampleTable]:
    out = _out_dir(cfg)
    stack, grids = _read_inputs(cfg, out, ("dem", "reference"), ("strata",))
    with _named(StrataLabelError, _source(cfg, "strata")), \
            _named(EmptyTableError, *_sample_sources(cfg, out)):
        train, _ = _split_step(cfg, stack, difference(grids["dem"], grids["reference"]),
                               grids.get("strata"))
    return out, train


def cmd_diagnose(cfg: dict) -> int:
    out, train = _load_train_split(cfg)
    with _named(EmptyTableError, *_sample_sources(cfg, out), _key(cfg, "sampling", "rate")):
        report = _diagnose_step(cfg, train, out)
    flagged = ", ".join(report.flagged) or "none"
    print(f"collinearity screen over {len(train)} training samples; excluded: {flagged}")
    return 0


def cmd_train(cfg: dict) -> int:
    out, train = _load_train_split(cfg)
    with _named(EmptyTableError, *_sample_sources(cfg, out), _key(cfg, "sampling", "rate")):
        models = _train_step(cfg, train, out)
    for name, (model, _) in models.items():
        print(f"trained {name} on {len(train)} rows "
              f"({len(model.feature_names)} features)")
    return 0


def cmd_correct(cfg: dict, model_docs: list[str] | None = None) -> int:
    out = _out_dir(cfg)
    stack, grids = _read_inputs(cfg, out, ("dem",), ("reference",))
    paths = [Path(p) for p in model_docs] if model_docs else \
        [_model_doc_path(out, name) for name in cfg["models"]]
    models = {}
    for path in paths:
        model, doc = _load_model(path)
        name = doc.get("model_name", path.stem)
        # the name becomes part of three file names
        if not isinstance(name, str) or not name:
            raise ModelFormatError(f"'{path}': model_name must be a non-empty string, "
                                   f"got {json.dumps(name)}")
        if any(sep in name for sep in (os.sep, os.altsep) if sep):
            raise ModelFormatError(f"'{path}': model_name '{name}' holds a path separator")
        if name in models:
            raise ModelFormatError(f"'{path}': model_name '{name}' is also that of "
                                   f"'{models[name][1]}'")
        models[name] = (model, path)
    _correct_step(models, stack, grids["dem"], grids.get("reference"), out)
    for name in models:
        print(f"corrected DEM with {name}")
    return 0


def cmd_evaluate(cfg: dict) -> int:
    out = _out_dir(cfg)
    _require_path(cfg, "dem")  # a missing DEM is named before any read
    against = read_header(ref_path := _require_path(cfg, "reference"))[0]
    keys = ("dem", "strata") if cfg["paths"].get("strata") else ("dem",)
    paths = {key: _header_on(_source(cfg, key), _require_path(cfg, key), against,
                             "the reference's") for key in keys}
    corrected = {}
    for name in cfg["models"]:
        cpath = _corrected_path(out, name)
        if not cpath.is_file():
            raise ConfigError(f"'{cpath}' does not exist (run 'correct' first)")
        corrected[name] = _header_on(f"'{cpath}'", cpath, against, "the reference's")
    # every header is checked before any grid is read
    reference, dem = read_grid(ref_path, out), read_grid(paths["dem"], out)
    strata = read_grid(paths["strata"], out) if "strata" in paths else None
    corrected = {name: read_grid(path, out) for name, path in corrected.items()}
    with _named(StrataLabelError, _source(cfg, "strata")), _named(
            EmptyTableError, _source(cfg, "reference"), _source(cfg, "dem"),
            *(f"'{_corrected_path(out, name)}'" for name in corrected)):
        report = _evaluate_step(cfg, reference, dem, corrected, strata, out)
    print(report.render_text())
    return 0


def _bench_inputs(cfg: dict, out: Path) -> tuple[Grid, Grid, LandcoverSet]:
    """Generate and write the synthetic inputs; returns the reference, the
    degraded DEM and the land cover.

    Of the clean terrain's feature layers, only those the error spec names
    are kept as they are built, and they are dropped on return.
    """
    terrain, landcover_seed, noise_fraction, spec = _bench_args(cfg)
    reference = fractal_dem(**terrain)
    land = synth_landcover(reference, seed=landcover_seed)
    masks = (land.bare, land.urban, land.forest)
    kept = {name: np.empty(reference.values.shape) for name in spec.referenced_features()}

    def keep(first, rows):
        for name, block in zip(CANONICAL_FEATURES, rows):
            if name in kept:
                kept[name][first:first + len(block)] = block

    build_feature_stack(reference, *masks, _feature_config(cfg), max_workers=worker_count(),
                        sink=keep)
    templates = dict(zip(CANONICAL_FEATURES, layer_templates(reference, *masks)))
    clean_stack = FeatureStack(tuple(kept), tuple(templates[name].with_values(kept.pop(name))
                                                  for name in tuple(kept)))
    try:
        injected = inject_error(reference, clean_stack, spec, noise_fraction)
    except ZeroVarianceError as exc:
        raise ConfigError(
            f"configuration key 'bench.base_height' ({terrain['base_height']!r}), with "
            f"'bench.relief_amplitude' ({terrain['relief_amplitude']!r}): on the terrain "
            f"they give, {exc}") from None

    save_grid(reference, out / "reference.asc")
    save_grid(injected.degraded, out / "original.asc")
    save_grid(injected.true_dh, out / "true_error.asc")
    save_grid(land.bare, out / "mask_bare.asc")
    save_grid(land.urban, out / "mask_urban.asc")
    save_grid(land.forest, out / "mask_forest.asc")
    save_grid(land.strata, out / "strata.asc")
    _write_json(out / "error_spec.json",
                {**injected.spec.to_doc(), "noise_fraction": noise_fraction})
    return reference, injected.degraded, land


def cmd_bench(cfg: dict) -> int:
    """Generate synthetic inputs, then run the pipeline steps on them as the step commands do."""
    out = _out_dir(cfg)
    t0 = time.perf_counter()
    reference, original, land = _bench_inputs(cfg, out)
    t_gen = time.perf_counter()

    _features_step(cfg, original, land.bare, land.urban, land.forest, out)
    stack = _load_stack(out)
    t_feat = time.perf_counter()

    train, test = _split_step(cfg, stack, difference(original, reference), land.strata)
    t_sample = time.perf_counter()

    with _named(EmptyTableError, f"'{out / _MANIFEST_FILE}'", f"'{out / 'original.asc'}'",
                f"'{out / 'reference.asc'}'", _key(cfg, "sampling", "rate")):
        models = _train_step(cfg, train, out, _diagnose_step(cfg, train, out))
    t_train = time.perf_counter()

    _correct_step(models, stack, original, reference, out)
    del stack  # and its block buffers, before the reports
    t_correct = time.perf_counter()

    corrected = {name: read_grid(_corrected_path(out, name), out) for name in models}
    _evaluate_step(cfg, reference, original, corrected, land.strata, out)
    test_mask = np.zeros((reference.nrows, reference.ncols), dtype=bool)
    test_mask[test.cells[:, 0], test.cells[:, 1]] = True
    ref_test = reference.with_values(np.where(test_mask, reference.values, reference.nodata))
    with _named(EmptyTableError, "the held-out cells of " + _key(cfg, "sampling", "rate"),
                _key(cfg, "sampling", "train_fraction")):
        report_test = _evaluate_step(cfg, ref_test, original, corrected, land.strata, out,
                                     "report_test")

    _write_json(out / "resolved_config.json", _strict({**cfg, "provenance": _provenance(cfg)}))
    t_end = time.perf_counter()

    print(f"bench complete in {t_end - t0:.1f} s "
          f"(generate {t_gen - t0:.1f}, features {t_feat - t_gen:.1f}, "
          f"sample {t_sample - t_feat:.1f}, train {t_train - t_sample:.1f}, "
          f"correct {t_correct - t_train:.1f}, evaluate {t_end - t_correct:.1f})")
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


#: exceptions caused by bad configuration or input data; they exit 2, as
#: does an ``OSError`` that names a file (missing, a directory, no permission)
_INPUT_ERRORS = (
    ConfigError,
    GridParseError,
    GeometryMismatch,
    InputOverflowError,
    MaskValueError,
    ModelFormatError,
    SingularDesignError,
    ZeroVarianceError,
    EmptyTableError,
    StrataLabelError,
)


def _run_command(args) -> int:
    cfg = resolve_config(args)
    if args.command == "correct":
        return cmd_correct(cfg, args.model_doc)
    return {"features": cmd_features, "diagnose": cmd_diagnose, "train": cmd_train,
            "evaluate": cmd_evaluate, "bench": cmd_bench}[args.command](cfg)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage; keep that code
        return int(exc.code or 0)
    try:
        code = _run_command(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone (``demcorrect bench | head -n 1``): exit
        # as a shell reports a process that SIGPIPE ended (128 + 13),
        # silently, with stdout on devnull so that the flush at exit does
        # not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            names = "' -> '".join(str(n) for n in (exc.filename, exc.filename2) if n is not None)
            print(f"error: '{names}': {exc.strerror}", file=sys.stderr)
            return 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
