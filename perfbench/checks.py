"""Output checks for one benchmark iteration, independent of demcorrect.

Parses what the pipeline wrote with the standard library only, so a bug
in demcorrect's own readers cannot hide a bad output.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_grid(path: Path) -> str | None:
    tokens = path.read_text(encoding="ascii").split()
    keys = [t.lower() for t in tokens[0:12:2]]
    if keys != ["ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value"]:
        return f"{path.name}: bad ESRI ASCII header"
    ncols, nrows, nodata = int(tokens[1]), int(tokens[3]), float(tokens[11])
    values = tokens[12:]
    if len(values) != ncols * nrows:
        return f"{path.name}: {len(values)} values for a {nrows}x{ncols} grid"
    if not all(math.isfinite(v) or v == nodata for v in map(float, values)):
        return f"{path.name}: non-finite value"
    return None


def _check_manifest(out: Path) -> list[str]:
    manifest = json.loads((out / "features_manifest.json").read_text())
    problems = []
    if len(manifest["layers"]) != 11:
        problems.append(f"manifest lists {len(manifest['layers'])} layers, not 11")
    for layer in manifest["layers"]:
        path = out / layer["file"]
        if not path.is_file() or sha256(path) != layer["sha256"]:
            problems.append(f"manifest sha256 of {layer['file']} does not match the file")
    return problems


def check_outputs(out: Path, models, report_stem: str, accuracy):
    """Check one iteration's output directory.

    Returns ``(problems, reductions, digests)``: a list of failed checks,
    the overall percent RMSE reduction per model from ``report_stem``, and
    the sha256 of every model document, report and corrected DEM.
    """
    problems: list[str] = []
    reductions: dict[str, float] = {}
    digests: dict[str, str] = {}
    try:
        problems += _check_manifest(out)
        for name in models:
            doc = json.loads((out / f"model_{name}.json").read_text())
            if doc.get("format") not in ("linear-model", "gbdt-model"):
                problems.append(f"model_{name}.json: unknown format {doc.get('format')!r}")
            problem = _check_grid(out / f"corrected_{name}.asc")
            if problem:
                problems.append(problem)
        overall = json.loads((out / f"{report_stem}.json").read_text())["overall"]
        for name in models:
            value = float(overall["pct_rmse_reduction"][name])
            if not math.isfinite(value):
                problems.append(f"{report_stem}.json: {name} reduction is {value}")
            reductions[name] = value
        problems += accuracy(reductions)
        for pattern in ("model_*.json", "report*.json", "corrected_*.asc"):
            for path in sorted(out.glob(pattern)):
                digests[path.name] = sha256(path)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems, reductions, digests


def gbdt_beats_mlr(reductions) -> list[str]:
    """Acceptance criterion 1: each GBDT removes >= 60% and at least what MLR does."""
    return [f"{name} reduction {reductions[name]:.2f}% is below 60% or below mlr"
            for name in ("gbdt-depthwise", "gbdt-leafwise")
            if not (reductions[name] >= 60.0 and reductions[name] >= reductions["mlr"])]


def all_positive(reductions) -> list[str]:
    return [f"{name} reduction {value:.2f}% is not positive"
            for name, value in reductions.items() if not value > 0.0]
