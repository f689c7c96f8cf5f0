"""Collinearity diagnostics and ordinary least squares.

Pearson correlations and variance inflation factors screen the predictor
set; variables are dropped highest-VIF-first until every survivor sits
below the threshold. Every VIF is a diagonal entry of the inverse of the
one Pearson matrix (or of its survivors' block), with no auxiliary
regressions. The linear error model itself is fit by numpy's
SVD-based least squares, never by the raw normal equations, and predicts
one column at a time, so each row's prediction depends on that row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gbdt import ModelFormatError
from .sampling import EmptyTableError, SampleTable

__all__ = [
    "ZeroVarianceError",
    "SingularDesignError",
    "CollinearityReport",
    "LinearModel",
    "pearson_matrix",
    "vif",
    "flag_collinear",
    "fit_ols",
]

#: R^2_k at or above this (a VIF of 1e12 or more) reports an infinite VIF.
_VIF_R2_CEILING = 1.0 - 1e-12


class ZeroVarianceError(ValueError):
    """A feature column is constant; names the feature (``feature``)."""

    def __init__(self, message: str, feature: str):
        super().__init__(message)
        self.feature = feature


class SingularDesignError(ValueError):
    """The design matrix is rank deficient; names a dependent column."""


@dataclass(frozen=True, eq=False)
class CollinearityReport:
    """Outcome of the multicollinearity screen.

    ``vif`` holds the factors computed on the full variable set (inf where
    a variable is an exact linear combination of the others; the document
    writes each infinity, thresholds too, as a signed string); ``flagged``
    lists excluded variables in removal order; ``removal_history`` records
    the VIF each had when it was dropped; ``high_corr_pairs`` notes
    surviving pairs whose |r| still meets the correlation threshold.
    """

    variable_names: tuple[str, ...]
    pearson: np.ndarray
    vif: np.ndarray
    flagged: tuple[str, ...]
    removal_history: tuple[tuple[str, float], ...]
    high_corr_pairs: tuple[tuple[str, str, float], ...]
    r_abs_threshold: float
    vif_threshold: float

    @property
    def kept(self) -> tuple[str, ...]:
        return tuple(n for n in self.variable_names if n not in self.flagged)

    def to_doc(self) -> dict:
        def real(x: float):
            return ("-Infinity" if x < 0 else "Infinity") if math.isinf(x) else float(x)

        return {
            "format": "collinearity-report",
            "version": 1,
            "variable_names": list(self.variable_names),
            "pearson": [[float(v) for v in row] for row in self.pearson],
            "vif": [real(v) for v in self.vif],
            "flagged": list(self.flagged),
            "removal_history": [{"variable": n, "vif": real(v)} for n, v in self.removal_history],
            "high_corr_pairs": [
                {"a": a, "b": b, "r": float(r)} for a, b, r in self.high_corr_pairs
            ],
            "thresholds": {"r_abs": real(self.r_abs_threshold), "vif": real(self.vif_threshold)},
        }


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Intercept plus one coefficient per feature."""

    feature_names: tuple[str, ...]
    intercept: float
    coefficients: np.ndarray
    r_squared: float
    residual_std: float
    name: str = "mlr"

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        coef = np.asarray(self.coefficients, dtype=np.float64).ravel()
        if len(coef) != len(self.feature_names):
            raise ValueError("one coefficient per feature required")
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    def predict_rows(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected (n, {len(self.feature_names)}) features, got {x.shape}"
            )
        # column by column rather than ``x @ coefficients``, whose BLAS
        # rounding depends on how many rows share a call and on its threads
        out = np.full(len(x), self.intercept)
        for k, c in enumerate(self.coefficients):
            out += x[:, k] * c
        return out

    def to_doc(self) -> dict:
        return {
            "format": "linear-model",
            "version": 1,
            "model_name": self.name,
            "feature_names": list(self.feature_names),
            "intercept": float(self.intercept),
            "coefficients": [float(c) for c in self.coefficients],
            "r_squared": float(self.r_squared),
            "residual_std": float(self.residual_std),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "LinearModel":
        """Inverse of :meth:`to_doc`.

        Raises:
            ModelFormatError: not a version-1 linear-model document, or a
                field is missing or malformed, or the intercept or a
                coefficient is not finite.
        """
        if doc.get("format") != "linear-model" or doc.get("version") != 1:
            raise ModelFormatError(
                f"not a version-1 linear-model document (version={doc.get('version')!r})")
        try:
            model = cls(
                tuple(doc["feature_names"]),
                float(doc["intercept"]),
                np.array(doc["coefficients"], dtype=np.float64),
                float(doc["r_squared"]),
                float(doc["residual_std"]),
                doc.get("model_name", "mlr"),
            )
        except KeyError as missing:
            raise ModelFormatError(f"malformed linear-model document: lacks {missing}") from None
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed linear-model document: {exc}") from None
        if not (math.isfinite(model.intercept) and np.isfinite(model.coefficients).all()):
            raise ModelFormatError(
                "malformed linear-model document: intercept and coefficients must be finite")
        return model


def pearson_matrix(table: SampleTable) -> np.ndarray:
    """Sample Pearson correlations between all feature pairs.

    The matrix is exactly symmetric (averaged with its transpose), clipped
    to [-1, 1] and has a unit diagonal.

    Raises:
        EmptyTableError: fewer than 2 rows.
        ZeroVarianceError: a feature column is constant.
    """
    X = table.features
    if len(table) < 2:
        raise EmptyTableError(f"pearson_matrix requires at least 2 rows; have {len(table)}")
    for k, name in enumerate(table.feature_names):
        if np.all(X[:, k] == X[0, k]):
            raise ZeroVarianceError(f"feature '{name}' has zero variance", name)
    centered = X - X.mean(axis=0)
    norms = np.sqrt((centered * centered).sum(axis=0))
    corr = centered.T @ centered / np.outer(norms, norms)
    out = np.clip((corr + corr.T) / 2, -1.0, 1.0)
    np.fill_diagonal(out, 1.0)
    return out


def _check_rows(table: SampleTable) -> None:
    p = table.features.shape[1]
    if len(table) < p + 1:
        raise EmptyTableError(f"vif requires more rows than features ({p}); have {len(table)}")


def _inflation(R: np.ndarray) -> np.ndarray:
    """VIFs as the diagonal of R^-1, R a correlation matrix. Eigenvalues
    are floored at ``len(R) * eps``, so an exactly singular R gives the
    variables in its dependence the +inf sentinel and the others finite."""
    w, V = np.linalg.eigh(R)
    d = (V * V) @ (1.0 / np.maximum(w, len(R) * np.finfo(np.float64).eps))
    return np.where(d >= 1.0 / (1.0 - _VIF_R2_CEILING), math.inf, np.maximum(1.0, d))


def vif(table: SampleTable) -> np.ndarray:
    """Variance inflation factor per feature, 1/(1 - R^2_k).

    R^2_k is that of regressing feature k on all other features with an
    intercept; the factor is computed as the k-th diagonal entry of the
    inverse Pearson matrix. Exact collinearity reports the +inf sentinel.

    Raises:
        EmptyTableError: no more rows than features.
        ZeroVarianceError: a feature column is constant.
    """
    _check_rows(table)
    return _inflation(pearson_matrix(table))


def flag_collinear(
    table: SampleTable,
    r_abs_threshold: float = 0.9,
    vif_threshold: float = 10.0,
) -> CollinearityReport:
    """Iteratively drop the highest-VIF variable until all pass the threshold.

    Each round's VIFs come from the survivors' block of the one Pearson
    matrix. Ties go to the variable later in the table's feature order.
    Surviving pairs with |r| at or above ``r_abs_threshold`` are recorded
    but not removed. Deterministic for a fixed table and thresholds.
    """
    names = table.feature_names
    pearson = pearson_matrix(table)
    _check_rows(table)
    initial_vif = vals = _inflation(pearson)

    active = list(range(len(names)))
    history: list[tuple[str, float]] = []
    # an infinite threshold disables removal entirely (even for exact
    # collinearity, whose VIF sentinel is also infinite)
    while len(active) >= 2 and not math.isinf(vif_threshold):
        worst = float(np.max(vals))
        if not (worst >= vif_threshold):
            break
        # ties resolve to the later variable in the current (canonical) order
        at = max(i for i, v in enumerate(vals) if v == worst)
        history.append((names[active[at]], worst))
        del active[at]
        vals = _inflation(pearson[np.ix_(active, active)])

    pairs = [(names[i], names[j], float(pearson[i, j]))
             for a, i in enumerate(active) for j in active[a + 1:]
             if abs(pearson[i, j]) >= r_abs_threshold]

    return CollinearityReport(
        variable_names=names,
        pearson=pearson,
        vif=initial_vif,
        flagged=tuple(n for n, _ in history),
        removal_history=tuple(history),
        high_corr_pairs=tuple(pairs),
        r_abs_threshold=r_abs_threshold,
        vif_threshold=vif_threshold,
    )


def fit_ols(train: SampleTable, features=None) -> LinearModel:
    """Least-squares fit of the target on the named features plus intercept.

    Solved by numpy's SVD-based ``lstsq`` rather than the normal equations.

    Raises:
        EmptyTableError: no more rows than features plus one.
        SingularDesignError: rank-deficient design; names the column that
            weighs most in the design's null direction.
    """
    names = tuple(features) if features is not None else train.feature_names
    sub = train.select_features(names) if features is not None else train
    X = sub.features
    y = sub.targets
    n, p = X.shape
    if n <= p + 1:
        raise EmptyTableError(f"need more than {p + 1} rows to fit {p} features; have {n}")

    design = np.column_stack([np.ones(n), X])
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < p + 1:
        null = np.linalg.svd(design, full_matrices=False)[2][-1]
        col = int(np.argmax(np.abs(null)))
        label = "intercept" if col == 0 else names[col - 1]
        raise SingularDesignError(
            f"design matrix is rank deficient; column '{label}' is linearly "
            f"dependent on the others"
        )
    resid = y - design @ beta
    sse, sst = float((resid * resid).sum()), float(((y - y.mean()) ** 2).sum())
    r_squared = 0.0 if sst == 0 else min(1.0, max(0.0, 1.0 - sse / sst))
    return LinearModel(names, float(beta[0]), beta[1:], r_squared, math.sqrt(sse / (n - p - 1)))
