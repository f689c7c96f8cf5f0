"""Synthetic DEMs, land cover, and known elevation-error fields.

Stands in for proprietary survey data: a diamond-square fractal surface is
the trusted reference, land-cover masks and five landscape strata are
carved from it, and a configurable error field degrades it so the pipeline
can be scored against a ground truth it is guaranteed to possess.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import Grid, InputOverflowError, check_values, distinct_values, overflow_named
from .linstats import ZeroVarianceError
from .terrain import FeatureStack, slope

__all__ = [
    "STRATUM_NAMES",
    "ErrorSpec",
    "NonlinearTerm",
    "LandcoverSet",
    "InjectResult",
    "check_fractal_args",
    "fractal_dem",
    "synth_landcover",
    "inject_error",
]

#: Landscape labels used by the synthetic harness, in report row order.
STRATUM_NAMES = {
    1: "urban_industrial",
    2: "agricultural",
    3: "mountain",
    4: "peninsula",
    5: "grassland_shrubland",
}


def check_fractal_args(size_exponent: int, base_height: float, relief_amplitude: float,
                       roughness_decay: float, cellsize: float) -> None:
    """Raise ValueError for arguments :func:`fractal_dem` refuses."""
    if size_exponent < 2:
        raise ValueError("size_exponent must be >= 2")
    if not math.isfinite(base_height):
        raise ValueError("base_height must be finite")
    if not (0 <= 2 * relief_amplitude < math.inf):  # the range of the corners' draws
        raise ValueError("relief_amplitude must be >= 0 and at most half the largest float")
    if not (0 <= roughness_decay < 1):
        raise ValueError("roughness_decay must be in [0, 1)")
    if not (0 < cellsize < math.inf):
        raise ValueError("cellsize must be finite and strictly positive")


@overflow_named("the synthetic terrain")
def fractal_dem(
    size_exponent: int,
    base_height: float = 300.0,
    relief_amplitude: float = 100.0,
    roughness_decay: float = 0.55,
    seed: int = 0,
    cellsize: float = 30.0,
    xll: float = 0.0,
    yll: float = 0.0,
    nodata: float = -9999.0,
) -> Grid:
    """Diamond-square terrain on a (2^k + 1)-square grid, deterministic per seed.

    Random displacements start at ``relief_amplitude`` and shrink by
    ``roughness_decay`` per subdivision level, so the total excursion from
    ``base_height`` is bounded by amplitude / (1 - decay) for decay < 1.
    """
    check_fractal_args(size_exponent, base_height, relief_amplitude, roughness_decay, cellsize)

    n = 2 ** size_exponent + 1
    rng = np.random.default_rng(seed)
    z = np.zeros((n, n))
    amp = float(relief_amplitude)
    z[0, 0], z[0, -1], z[-1, 0], z[-1, -1] = rng.uniform(-amp, amp, 4)

    step = n - 1
    scale = amp
    while step > 1:
        half = step // 2

        # diamond: window centers from their four corners
        tl = z[0:-1:step, 0:-1:step]
        tr = z[0:-1:step, step::step]
        bl = z[step::step, 0:-1:step]
        br = z[step::step, step::step]
        centers = (tl + tr + bl + br) / 4.0
        noise = rng.uniform(-scale, scale, centers.shape)
        z[half::step, half::step] = centers + noise

        # square: edge midpoints from their (3 or 4) orthogonal neighbors
        padded = np.pad(z, half, mode="constant", constant_values=np.nan)
        for rows0, cols0 in (((0, step), (half, step)), ((half, step), (0, step))):
            ri = np.arange(rows0[0], n, rows0[1])
            ci = np.arange(cols0[0], n, cols0[1])
            rr, cc = np.meshgrid(ri, ci, indexing="ij")
            neighbors = np.stack([
                padded[rr, cc + half],            # north  (r - half, c)
                padded[rr + 2 * half, cc + half], # south  (r + half, c)
                padded[rr + half, cc],            # west   (r, c - half)
                padded[rr + half, cc + 2 * half], # east   (r, c + half)
            ])
            counts = np.sum(~np.isnan(neighbors), axis=0)
            sums = np.nansum(neighbors, axis=0)
            z[rr, cc] = sums / counts + rng.uniform(-scale, scale, rr.shape)

        step = half
        scale *= roughness_decay

    return Grid(n, n, xll, yll, cellsize, nodata, z + base_height)


@dataclass(frozen=True, eq=False)
class LandcoverSet:
    """Binary masks plus the five-label landscape raster."""

    bare: Grid
    urban: Grid
    forest: Grid
    strata: Grid
    stratum_names: dict[int, str] = field(default_factory=lambda: dict(STRATUM_NAMES))


def _disk_mask(shape, centers, radii) -> np.ndarray:
    out = np.zeros(shape, dtype=bool)
    rr, cc = np.mgrid[0:shape[0], 0:shape[1]]
    for (ci, cj), rad in zip(centers, radii):
        out |= (rr - ci) ** 2 + (cc - cj) ** 2 <= rad ** 2
    return out


def _quantile(values: np.ndarray, q):
    """``np.quantile(values, q)`` (method ``linear``) bit for bit, signed
    zeros included, for finite ``values`` and float ``q`` in [0, 1].

    It takes numpy's steps: partition a flat copy at the same indices (0,
    n-1, and each q's floor and ceiling index, both clamped to n-1 from
    n-1 on), then interpolate with numpy's lerp. The indices are made
    distinct by :func:`grid.distinct_values`, since ``np.unique``, which
    numpy uses, imports ``numpy.ma`` under numpy 2.
    """
    arr = np.asarray(values).flatten()
    virtual = (len(arr) - 1) * np.asarray(q, dtype=np.float64)
    last = virtual >= len(arr) - 1
    below = np.where(last, -1, np.floor(virtual)).astype(np.intp)
    above = np.where(last, -1, np.floor(virtual) + 1).astype(np.intp)
    arr.partition(distinct_values(np.concatenate(([0, -1], below.ravel(), above.ravel()))))
    a, b, t = arr[below], arr[above], virtual - below
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)[()]


def synth_landcover(dem: Grid, seed: int = 0) -> LandcoverSet:
    """Derive masks and strata from elevation bands plus seeded patches.

    The five strata partition every cell: peninsula on the lowest band,
    agricultural and grassland on the middle bands, mountain on the top
    band, and urban as seeded patches punched into the middle bands.
    Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    z = dem.values
    n_rows, n_cols = z.shape
    q15, q45, q75 = _quantile(z, [0.15, 0.45, 0.75])

    strata = np.full(z.shape, 5.0)           # grassland/shrubland
    strata[z >= q75] = 3.0                   # mountain
    strata[z < q45] = 2.0                    # agricultural
    strata[z < q15] = 4.0                    # peninsula

    mid = (strata == 2.0) | (strata == 5.0)
    scale = min(n_rows, n_cols)
    k_urban = 8
    centers = np.column_stack([
        rng.integers(int(0.1 * n_rows), int(0.9 * n_rows), k_urban),
        rng.integers(int(0.1 * n_cols), int(0.9 * n_cols), k_urban),
    ])
    radii = rng.uniform(0.03 * scale, 0.08 * scale, k_urban)
    urban_cells = _disk_mask(z.shape, centers, radii) & mid
    if not urban_cells.any():
        flat = np.flatnonzero(mid.ravel())[: max(scale, 16)]
        urban_cells = np.zeros(z.shape, dtype=bool)
        urban_cells.ravel()[flat] = True
    strata[urban_cells] = 1.0                # urban/industrial

    with overflow_named("the terrain's slope"):
        s = slope(dem)
    s_valid = s.valid_mask()
    steep = np.zeros(z.shape, dtype=bool)
    if s_valid.any():
        steep = s_valid & (s.values >= _quantile(s.values[s_valid], 0.7))

    bare = steep & ((strata == 3.0) | (strata == 5.0))
    k_bare = 4
    bare |= _disk_mask(z.shape, np.column_stack([
        rng.integers(0, n_rows, k_bare), rng.integers(0, n_cols, k_bare),
    ]), rng.uniform(0.02 * scale, 0.05 * scale, k_bare)) & (strata == 3.0)
    if not bare.any():
        bare = strata == 3.0

    k_forest = 10
    forest = _disk_mask(z.shape, np.column_stack([
        rng.integers(0, n_rows, k_forest), rng.integers(0, n_cols, k_forest),
    ]), rng.uniform(0.04 * scale, 0.1 * scale, k_forest))
    forest &= (strata == 2.0) | (strata == 5.0) | (strata == 4.0)
    if not forest.any():
        forest = strata == 4.0

    def as_grid(mask_or_values) -> Grid:
        return dem.with_values(np.asarray(mask_or_values, dtype=np.float64))

    return LandcoverSet(
        bare=as_grid(bare),
        urban=as_grid(urban_cells),
        forest=as_grid(forest),
        strata=as_grid(strata),
    )


def json_number(value, what: str = "", cast=float):
    """``cast(value)`` of a JSON number, for the error spec and the
    configuration's numbers alike. A bool or a string is refused, as is a
    fraction where ``cast`` is int (2.0 passes), rather than converted or
    truncated; ``what`` opens the message."""
    must = f"{what} must" if what else "must"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{must} be a number, got {json.dumps(value)}")
    if cast is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{must} be an integer, got {json.dumps(value)}")
    return cast(value)


def _typed(value, kind: type, what: str):
    """``value``, refused unless a JSON object, array or string as ``kind``
    (dict, list or str) asks; ``what`` opens the message."""
    if not isinstance(value, kind):
        name = {dict: "an object", list: "an array", str: "a string"}[kind]
        raise ValueError(f"{what} must be {name}, got {json.dumps(value)}")
    return value


def _reject_unknown_keys(doc, known: tuple[str, ...], what: str) -> None:
    unknown = [key for key in _typed(doc, dict, what) if key not in known]
    if unknown:
        raise ValueError(f"unknown {what} key '{unknown[0]}' (keys: {', '.join(known)})")


@dataclass(frozen=True)
class NonlinearTerm:
    """One nonlinear contribution to the error field.

    Kinds (z denotes the standardized feature):
      * sine:    amplitude * sin(scale * z)
      * step:    amplitude where z >= scale, else 0
      * product: amplitude * z * z2 (requires ``feature2``; scale unused)
    """

    feature: str
    kind: str
    amplitude: float
    scale: float = 1.0
    feature2: str | None = None

    def __post_init__(self):
        if self.kind not in ("sine", "step", "product"):
            raise ValueError(f"unknown nonlinear term kind '{self.kind}'")
        if self.kind == "product" and not self.feature2:
            raise ValueError("product terms need feature2")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.scale)):
            raise ValueError("amplitude and scale must be finite")

    def to_doc(self) -> dict:
        doc = {"feature": self.feature, "kind": self.kind,
               "amplitude": self.amplitude, "scale": self.scale}
        if self.feature2:
            doc["feature2"] = self.feature2
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "NonlinearTerm":
        _reject_unknown_keys(doc, ("feature", "kind", "amplitude", "scale", "feature2"),
                             "nonlinear term")
        feature2 = doc.get("feature2")
        return cls(_typed(doc.get("feature"), str, "feature"),
                   _typed(doc.get("kind"), str, "kind"),
                   json_number(doc.get("amplitude"), "amplitude"),
                   json_number(doc.get("scale", 1.0), "scale"),
                   None if feature2 is None else _typed(feature2, str, "feature2"))


@dataclass(frozen=True)
class ErrorSpec:
    """Generative model of the elevation error to inject.

    Features are standardized (zero mean, unit variance over the valid
    cells) before any term applies, so coefficients are scale-free.
    """

    linear_terms: dict[str, float] = field(default_factory=dict)
    nonlinear_terms: tuple[NonlinearTerm, ...] = ()
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.noise_std < math.inf):
            raise ValueError("noise_std must be finite and >= 0")
        if not all(math.isfinite(c) for c in self.linear_terms.values()):
            raise ValueError("linear term coefficients must be finite")
        object.__setattr__(self, "nonlinear_terms", tuple(self.nonlinear_terms))

    def referenced_features(self) -> list[str]:
        seen: list[str] = []
        for name in self.linear_terms:
            if name not in seen:
                seen.append(name)
        for term in self.nonlinear_terms:
            for name in (term.feature, term.feature2):
                if name and name not in seen:
                    seen.append(name)
        return seen

    def to_doc(self) -> dict:
        return {
            "linear_terms": dict(self.linear_terms),
            "nonlinear_terms": [t.to_doc() for t in self.nonlinear_terms],
            "noise_std": self.noise_std,
            "seed": self.seed,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ErrorSpec":
        _reject_unknown_keys(doc, ("linear_terms", "nonlinear_terms", "noise_std", "seed"),
                             "error spec")
        return cls(
            {str(k): json_number(v, f"linear term '{k}'")
             for k, v in _typed(doc.get("linear_terms", {}), dict, "linear_terms").items()},
            tuple(NonlinearTerm.from_doc(t)
                  for t in _typed(doc.get("nonlinear_terms", []), list, "nonlinear_terms")),
            json_number(doc.get("noise_std", 0.0), "noise_std"),
            json_number(doc.get("seed", 0), "seed", int),
        )


@dataclass(frozen=True, eq=False)
class InjectResult:
    degraded: Grid
    true_dh: Grid
    #: the spec applied, with the noise std that was used
    spec: ErrorSpec


@overflow_named("the injected error")
def inject_error(dem: Grid, stack: FeatureStack, spec: ErrorSpec,
                 noise_fraction: float | None = None) -> InjectResult:
    """Add a feature-driven error field to the DEM.

    ``degraded = dem + dh`` where dh sums the spec's terms over standardized
    feature layers plus seeded Gaussian noise. ``true_dh`` is stored as
    ``degraded - dem`` so that differencing the outputs recovers it
    bit-exactly. Cells where the DEM or any referenced feature is nodata
    come back nodata in both outputs.

    With ``noise_fraction``, the noise std is that fraction of the std of
    the true error the terms alone give, in place of ``spec.noise_std``.
    The layers the spec references must be :class:`Grid` s.

    Raises:
        KeyError: the spec references a feature the stack does not hold.
        ZeroVarianceError: a referenced feature is constant where it and
            the DEM are valid; names the feature.
        InputOverflowError: the error, its noise std, the degraded DEM or
            the true error is not finite; names the cell where there is one.
    """
    refs = spec.referenced_features()
    layers = {name: stack.layer(name) for name in refs}

    valid = dem.valid_mask()
    for layer in layers.values():
        valid &= layer.valid_mask()
    if not valid.any():
        raise ValueError("no cell has the DEM and every referenced feature valid")

    standardized: dict[str, np.ndarray] = {}
    for name, layer in layers.items():
        vals = layer.values[valid]
        mean = vals.mean()
        std = vals.std()
        if std == 0:
            raise ZeroVarianceError(f"feature '{name}' has zero variance; the error spec "
                                    "cannot standardize it", name)
        standardized[name] = (layer.values - mean) / std

    dh = np.zeros(dem.values.shape)
    for name, coef in spec.linear_terms.items():
        dh += coef * standardized[name]
    for term in spec.nonlinear_terms:
        z = standardized[term.feature]
        if term.kind == "sine":
            dh += term.amplitude * np.sin(term.scale * z)
        elif term.kind == "step":
            dh += term.amplitude * (z >= term.scale)
        else:
            dh += term.amplitude * z * standardized[term.feature2]
    check_values(np.where(valid, dh, 0.0), 0.0)

    if noise_fraction is not None:
        std = noise_fraction * float(((dem.values + dh) - dem.values)[valid].std())
        if not math.isfinite(std):
            raise InputOverflowError("the injected error's noise std is not finite: "
                                     "the input values overflow it")
        spec = replace(spec, noise_std=std)
    if spec.noise_std > 0:
        rng = np.random.default_rng(spec.seed)
        noise = np.zeros(dem.values.shape)
        noise[valid] = rng.normal(0.0, spec.noise_std, int(valid.sum()))
        dh = dh + noise

    degraded_vals = np.where(valid, dem.values + dh, dem.nodata)
    degraded = dem.with_values(degraded_vals)
    true_vals = np.where(valid, degraded.values - dem.values, dem.nodata)
    return InjectResult(degraded, dem.with_values(true_vals), spec)
