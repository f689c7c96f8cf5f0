"""Apply predicted-error corrections and score them per landscape stratum.

Errors are defined as (DEM - reference), so a positive predicted error
means the DEM sits too high and the correction subtracts it:
corrected = original - predicted_error. Accuracy is summarized as mean
error, MAE, RMSE, and error standard deviation, before and after
correction, overall and per stratum, with the headline number being the
percent reduction in RMSE.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .grid import GeometryMismatch, Grid, GridRows, check_values, distinct_values
from .sampling import NO_STRATUM, EmptyTableError, check_labels, label_faults, label_values
from .terrain import FeatureStack, row_blocks

__all__ = [
    "Metrics",
    "StratumResult",
    "EvaluationReport",
    "predict_error_grid",
    "apply_correction",
    "abs_error_grid",
    "compute_metrics",
    "pct_rmse_reduction",
    "build_report",
]


@dataclass(frozen=True)
class Metrics:
    """Standard error statistics; std uses the n-1 denominator."""

    n: int
    me: float
    mae: float
    rmse: float
    std: float

    def to_doc(self) -> dict:
        return {"n": self.n, "me": self.me, "mae": self.mae,
                "rmse": self.rmse, "std": self.std}


def compute_metrics(errors) -> Metrics:
    """Summarize an error sample with exact (fsum) accumulation.

    Summation runs in the order given, so results are bit-reproducible for
    a fixed input ordering.
    """
    e = np.asarray(errors, dtype=np.float64).ravel()
    n = len(e)
    if n == 0:
        raise ValueError("cannot compute metrics of an empty error sample")

    def fsum(values: np.ndarray) -> float:
        # a memoryview yields Python floats, far cheaper to make than the
        # numpy scalars iterating the array gives; fsum is exact either way
        return math.fsum(memoryview(values))

    me = fsum(e) / n
    mae = fsum(np.abs(e)) / n
    rmse = math.sqrt(fsum(e * e) / n)
    dev = e - me
    dev *= dev  # (e - me) ** 2 without a second temporary
    var = fsum(dev) / (n - 1) if n > 1 else 0.0
    return Metrics(n, me, mae, rmse, math.sqrt(var))


def pct_rmse_reduction(before: float, after: float) -> float:
    """100 * (before - after) / before; negative when accuracy worsened."""
    if not (before > 0):
        raise ValueError("before-RMSE must be positive to compute a reduction")
    return 100.0 * (before - after) / before


def predict_error_grid(model, stack: FeatureStack,
                       sink: Callable[[int, np.ndarray], None] | None = None) -> Grid | None:
    """Per-cell predicted elevation error from any model with predict_rows.

    Cells where any feature the model uses is nodata become nodata; the
    grid takes the geometry and nodata sentinel of the stack's first layer.

    The stack is read a block of ``terrain.BLOCK_ROWS`` rows at a time, and
    the valid cells of each block are predicted in one ``predict_rows``
    call. Both model kinds predict each row from that row alone, so the
    bits do not depend on the block height. With ``sink``, each block's
    predicted rows go to ``sink(first_row, rows)``, top to bottom, and None
    is returned; without, the grid is assembled and returned.

    Raises:
        KeyError: the stack lacks a feature layer the model names.
        ValueError: a prediction is neither finite nor the nodata sentinel.
    """
    names = tuple(model.feature_names)
    layer_nodata = [stack.layer(name).nodata for name in names]
    geo = stack.geometry
    nodata = stack.nodata[0]
    assembled = None
    if sink is None:
        assembled = np.empty((geo.nrows, geo.ncols))

        def sink(first, rows):
            assembled[first:first + len(rows)] = rows

    for r0, r1 in row_blocks(geo.nrows):
        layers = stack.rows(r0, r1, names)
        valid = np.ones((r1 - r0, geo.ncols), dtype=bool)
        for values, layer_nd in zip(layers, layer_nodata):
            valid &= values != layer_nd
        rows = np.full(valid.shape, nodata)
        if valid.any():
            # column-major: each model reads the matrix a column at a time
            x = np.empty((np.count_nonzero(valid), len(names)), order="F")
            for j, values in enumerate(layers):
                x[:, j] = values[valid]
            rows[valid] = model.predict_rows(x)
            del x  # before the sink formats the block
        check_values(rows, nodata, r0)
        sink(r0, rows)
    if assembled is None:
        return None
    return Grid(geo.ncols, geo.nrows, geo.xll, geo.yll, geo.cellsize, nodata, assembled)


def corrected_values(dem: np.ndarray, dem_nodata: float, error: np.ndarray,
                     error_nodata: float) -> np.ndarray:
    """dem - error where both hold data, else ``dem_nodata``."""
    both = (dem != dem_nodata) & (error != error_nodata)
    return np.where(both, dem - error, dem_nodata)


def abs_error_values(corrected: np.ndarray, corrected_nodata: float, reference: np.ndarray,
                     reference_nodata: float) -> np.ndarray:
    """|corrected - reference| where both hold data, else ``corrected_nodata``."""
    both = (corrected != corrected_nodata) & (reference != reference_nodata)
    return np.where(both, np.abs(corrected - reference), corrected_nodata)


def apply_correction(dem: Grid, predicted_error: Grid) -> Grid:
    """corrected = dem - predicted error, nodata propagating."""
    if not dem.geometry.matches(predicted_error.geometry):
        raise GeometryMismatch("prediction grid is not on the DEM geometry")
    return dem.with_values(corrected_values(dem.values, dem.nodata, predicted_error.values,
                                            predicted_error.nodata))


def abs_error_grid(corrected: Grid, reference: Grid) -> Grid:
    """Per-cell |corrected - reference|, nodata propagating."""
    if not corrected.geometry.matches(reference.geometry):
        raise GeometryMismatch("reference grid is not on the corrected geometry")
    return corrected.with_values(abs_error_values(corrected.values, corrected.nodata,
                                                  reference.values, reference.nodata))


@dataclass(frozen=True)
class StratumResult:
    """Before/after metrics and percent RMSE reduction for one stratum."""

    before: Metrics
    after: dict[str, Metrics]
    reduction: dict[str, float | None]

    def to_doc(self) -> dict:
        return {
            "before": self.before.to_doc(),
            "after": {m: v.to_doc() for m, v in self.after.items()},
            "pct_rmse_reduction": dict(self.reduction),
        }


@dataclass(frozen=True)
class EvaluationReport:
    """Stratified before/after accuracy of one or more corrections."""

    model_names: tuple[str, ...]
    overall: StratumResult
    strata: dict[str, StratumResult]
    warnings: tuple[str, ...] = ()
    provenance: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "format": "evaluation-report",
            "version": 1,
            "model_names": list(self.model_names),
            "overall": self.overall.to_doc(),
            "strata": {name: res.to_doc() for name, res in self.strata.items()},
            "warnings": list(self.warnings),
            "provenance": dict(self.provenance),
        }

    def render_text(self) -> str:
        """Aligned table: one stratum per row, one model column each."""
        title = "Percent RMSE reduction after correction"
        rows = list(self.strata.items()) + [("overall", self.overall)]
        name_width = max(len("stratum"), *(len(n) for n, _ in rows))
        col_width = max(14, *(len(m) for m in self.model_names)) if self.model_names else 14

        def fmt(v: float | None) -> str:
            return "n/a" if v is None else f"{v:.1f}"

        lines = [title, ""]
        header = "stratum".ljust(name_width)
        for m in self.model_names:
            header += "  " + m.rjust(col_width)
        lines.append(header)
        for name, res in rows:
            line = name.ljust(name_width)
            for m in self.model_names:
                line += "  " + fmt(res.reduction.get(m)).rjust(col_width)
            lines.append(line)
        return "\n".join(lines) + "\n"


def _stratum_result(errs_before: np.ndarray, errs_after: dict[str, np.ndarray],
                    warnings: list[str], label: str) -> StratumResult:
    before = compute_metrics(errs_before)
    after = {m: compute_metrics(e) for m, e in errs_after.items()}
    reduction: dict[str, float | None] = {}
    for m, metrics in after.items():
        if before.rmse > 0:
            reduction[m] = pct_rmse_reduction(before.rmse, metrics.rmse)
        else:
            reduction[m] = None
            warnings.append(f"{label}: before-RMSE is zero; reduction undefined for '{m}'")
    return StratumResult(before, after, reduction)


def build_report(
    reference: GridRows,
    original: GridRows,
    corrected_by_model: Mapping[str, GridRows],
    strata: GridRows | None = None,
    stratum_names: Mapping[int, str] | None = None,
    model_digests: Mapping[str, str] | None = None,
) -> EvaluationReport:
    """Score each corrected grid against the reference, per stratum.

    Metrics run over the cells valid in the reference, the original, and
    every corrected grid simultaneously, enumerated row-major. Cells whose
    stratum label is nodata count toward "overall" only. Strata with no
    valid cells are omitted with a warning.

    The grids are read a block of ``terrain.BLOCK_ROWS`` rows at a time.
    What is kept of each valid cell is all the exact sums of
    :func:`compute_metrics` need: its error before correction, its error
    after each model's, and its stratum label.

    Raises:
        GeometryMismatch: an input grid is not on the reference geometry.
        EmptyTableError: no cell is valid in every grid.
        StrataLabelError: a strata cell is not an integer label.
    """
    geo = reference.geometry
    if not original.geometry.matches(geo):
        raise GeometryMismatch("original grid is not on the reference geometry")
    if strata is not None and not strata.geometry.matches(geo):
        raise GeometryMismatch("strata grid is not on the reference geometry")
    models = sorted(corrected_by_model)
    if not models:
        raise ValueError("at least one corrected grid is required")
    for m in models:
        if not corrected_by_model[m].geometry.matches(geo):
            raise GeometryMismatch(f"corrected grid '{m}' is not on the reference geometry")

    before_parts: list[np.ndarray] = []
    after_parts: dict[str, list[np.ndarray]] = {m: [] for m in models}
    strata_parts: list[np.ndarray] = []
    faults = None
    for r0, r1 in row_blocks(geo.nrows):
        ref = reference.rows(r0, r1)
        orig = original.rows(r0, r1)
        valid = (ref != reference.nodata) & (orig != original.nodata)
        fixed = {}
        for m in models:
            g = corrected_by_model[m]
            fixed[m] = g.rows(r0, r1)
            valid &= fixed[m] != g.nodata
        before_parts.append((orig - ref)[valid])
        for m in models:
            after_parts[m].append((fixed[m] - ref)[valid])
        if strata is not None:
            values = strata.rows(r0, r1)
            faults = label_faults(values, strata.nodata, r0, faults)
            strata_parts.append(values[valid])
    if not sum(len(part) for part in before_parts):
        raise EmptyTableError("no cell is valid in every grid")
    present = set()
    if strata is not None:
        check_labels(faults)
        # each part turned into labels in turn, once all are checked
        for i, part in enumerate(strata_parts):
            strata_parts[i] = part = label_values(part, strata.nodata)
            present.update(distinct_values(part[part != NO_STRATUM]).tolist())
        labels = np.concatenate(strata_parts)
        del strata_parts

    before_all = np.concatenate(before_parts)
    del before_parts
    after_all = {m: np.concatenate(after_parts.pop(m)) for m in models}

    warnings: list[str] = []
    overall = _stratum_result(before_all, after_all, warnings, "overall")

    strata_results: dict[str, StratumResult] = {}
    if strata is not None:
        declared = sorted(stratum_names) if stratum_names else []
        for lab in sorted(set(declared) | present):
            name = stratum_names.get(lab, str(lab)) if stratum_names else str(lab)
            # a nodata label is NO_STRATUM, which no stratum takes
            mask = (labels == lab) & (lab != NO_STRATUM)
            if not mask.any():
                warnings.append(f"stratum '{name}' omitted: no valid cells")
                continue
            after = {m: after_all[m][mask] for m in models}
            strata_results[name] = _stratum_result(before_all[mask], after, warnings, name)

    provenance = {"model_digests": dict(model_digests)} if model_digests else {}
    return EvaluationReport(tuple(models), overall, strata_results,
                            tuple(warnings), provenance)
