"""Terrain and land-cover predictor rasters derived from a DEM.

Eleven predictors are produced: elevation, slope, aspect, surface roughness,
topographic position index, terrain ruggedness index, surface texture,
vector ruggedness measure, percent bare ground, urban footprint, and percent
forest cover. All focal operators share one border/nodata policy: a window
whose valid fraction falls below ``WindowSpec.min_valid_fraction`` (counting
out-of-bounds cells as invalid), or whose center cell is invalid, yields
nodata. Data is never invented at borders.

Every operator, roughness's focal max and min included, needs numpy only.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .grid import GeometryMismatch, Grid

__all__ = [
    "CANONICAL_FEATURES",
    "FLAT_ASPECT",
    "WindowSpec",
    "FeatureConfig",
    "FeatureStack",
    "slope",
    "aspect",
    "roughness",
    "tpi",
    "tri",
    "texture",
    "vrm",
    "focal_fraction",
    "build_feature_stack",
]

#: Feature order every full stack and every sample table follows.
CANONICAL_FEATURES = (
    "elevation", "slope", "aspect", "roughness", "tpi", "tri",
    "texture", "vrm", "pct_bare", "urban", "pct_forest",
)

#: Aspect value for cells with zero gradient.
FLAT_ASPECT = -1.0


@dataclass(frozen=True)
class WindowSpec:
    """Square focal window of ``(2*radius+1)**2`` cells."""

    radius: int
    min_valid_fraction: float = 1.0

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("window radius must be a positive integer")
        if not (0 < self.min_valid_fraction <= 1):
            raise ValueError("min_valid_fraction must be in (0, 1]")

    @property
    def size(self) -> int:
        return (2 * self.radius + 1) ** 2


@dataclass(frozen=True)
class FeatureConfig:
    """Window radii and thresholds for the derivative layers.

    The defaults are conventional rather than mandated: 3x3 windows for
    roughness and TPI, radius 3 for VRM and the land-cover fractions, and a
    radius-10 window with a 0.5 m pit/peak threshold for texture.
    """

    roughness_window: WindowSpec = field(default_factory=lambda: WindowSpec(1))
    tpi_window: WindowSpec = field(default_factory=lambda: WindowSpec(1))
    vrm_window: WindowSpec = field(default_factory=lambda: WindowSpec(3))
    landcover_window: WindowSpec = field(default_factory=lambda: WindowSpec(3))
    texture_window: WindowSpec = field(default_factory=lambda: WindowSpec(10))
    texture_threshold: float = 0.5

    def __post_init__(self):
        if not (self.texture_threshold >= 0):
            raise ValueError("texture_threshold must be >= 0")


@dataclass(frozen=True, eq=False)
class FeatureStack:
    """Named, geometry-aligned predictor layers."""

    names: tuple[str, ...]
    layers: tuple[Grid, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.names) != len(self.layers):
            raise ValueError("one layer per name required")
        if len(set(self.names)) != len(self.names):
            raise ValueError("feature names must be unique")
        if self.layers:
            geo = self.layers[0].geometry
            for name, layer in zip(self.names, self.layers):
                if not layer.geometry.matches(geo):
                    raise GeometryMismatch(f"layer '{name}' is not on the stack geometry")

    @property
    def geometry(self):
        return self.layers[0].geometry

    def layer(self, name: str) -> Grid:
        try:
            return self.layers[self.names.index(name)]
        except ValueError:
            raise KeyError(f"no feature layer named '{name}'") from None


# ---------------------------------------------------------------------------
# focal plumbing
# ---------------------------------------------------------------------------


_NEIGHBOR_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def _neighbors(dem: Grid) -> tuple[list[np.ndarray], np.ndarray]:
    """The eight 3x3 neighbours of every cell, in ``_NEIGHBOR_OFFSETS`` order
    and 0 beyond the border, as views of one padded copy; and the mask of
    cells whose whole 3x3 window is valid."""
    h, w = dem.values.shape

    def views(arr):
        padded = np.pad(arr, 1)
        return [padded[1 + di:1 + di + h, 1 + dj:1 + dj + w] for di, dj in _NEIGHBOR_OFFSETS]

    valid = dem.valid_mask()
    return views(dem.values), valid & np.logical_and.reduce(views(valid))


def _box_sum(arr: np.ndarray, radius: int) -> np.ndarray:
    """Sum over the (2r+1)^2 window, out-of-bounds cells contributing zero."""
    h, w = arr.shape
    c = np.zeros((h + 1, w + 1))
    c[1:, 1:] = arr.cumsum(axis=0).cumsum(axis=1)
    # padded row k + radius holds table row clip(k, 0, h), and columns alike:
    # window corners beyond the grid read the table's first or last row, so
    # a radius past the grid reads the same entries as one of max(h, w)
    radius = min(radius, max(h, w))
    c = np.pad(c, radius, mode="edge")
    k = 2 * radius + 1
    return c[k:k + h, k:k + w] - c[:h, k:k + w] - c[k:k + h, :w] + c[:h, :w]


def _running(a: np.ndarray, k: int, op, axis: int) -> np.ndarray:
    """``op`` over every k consecutive entries along ``axis``, which shrinks by k - 1.

    After the doubling step for span s, entry i holds ``op`` over entries
    i .. i+s-1; a run of k is then two overlapping spans of the largest
    s <= k, so there are about log2(k) passes, not k - 1.
    """
    def shifted(x, d):
        n = x.shape[axis] - d
        return (x[:n], x[d:]) if axis == 0 else (x[:, :n], x[:, d:])

    s = 1
    while 2 * s <= k:
        a = op(*shifted(a, s))
        s *= 2
    return op(*shifted(a, k - s))


def _focal_extreme(z: np.ndarray, valid: np.ndarray, radius: int, op,
                   fill: float) -> np.ndarray:
    """``op`` (np.maximum or np.minimum) of the valid cells of each (2r+1)^2
    window, ``fill`` where there are none: a row pass, then a column pass,
    over one padded copy.

    Max and min pick one of their inputs, so the grouping does not change
    the result. Only a tie of 0.0 and -0.0 could go either way, so -0.0
    is read as 0.0: every zero in the result is 0.0.
    """
    h, w = z.shape
    # past max(h, w) a larger radius adds only fill to every window
    radius = min(radius, max(h, w))
    k = 2 * radius + 1
    padded = np.pad(np.where(valid, z, fill), radius, constant_values=fill)
    padded += 0.0  # -0.0 + 0.0 is 0.0
    return _running(_running(padded, k, op, axis=1), k, op, axis=0)


def _window_gate(valid: np.ndarray, w: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """(valid-cell count per window, keep mask per the window policy)."""
    count = _box_sum(valid.astype(np.float64), w.radius)
    keep = valid & (count / w.size >= w.min_valid_fraction) & (count >= 1)
    return count, keep


def _horn_gradients(dem: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Horn 3x3 weighted gradients (east, north) and the full-window mask."""
    (nw, n, ne, w, e, sw, s, se), full = _neighbors(dem)
    denom = 8.0 * dem.cellsize
    p = ((ne + 2 * e + se) - (nw + 2 * w + sw)) / denom
    q = ((nw + 2 * n + ne) - (sw + 2 * s + se)) / denom
    return p, q, full


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def slope(dem: Grid) -> Grid:
    """Slope in degrees from Horn's third-order finite difference.

    slope = atan(sqrt(p^2 + q^2)) with p, q the weighted central differences
    over the 3x3 window divided by 8*cellsize. Any window touching the
    border or nodata yields nodata.
    """
    p, q, full = _horn_gradients(dem)
    deg = np.degrees(np.arctan(np.hypot(p, q)))
    return dem.with_values(np.where(full, deg, dem.nodata))


def aspect(dem: Grid) -> Grid:
    """Compass direction of steepest descent, degrees clockwise from north.

    Range [0, 360); cells with zero gradient take the flat sentinel -1.
    """
    p, q, full = _horn_gradients(dem)
    az = np.degrees(np.arctan2(-p, -q))
    az = np.where(az < 0, az + 360.0, az)
    az = np.where(az >= 360.0, 0.0, az)
    az = np.where((p == 0) & (q == 0), FLAT_ASPECT, az)
    return dem.with_values(np.where(full, az, dem.nodata))


def roughness(dem: Grid, w: WindowSpec) -> Grid:
    """Focal elevation range (max - min of valid cells in the window)."""
    v = dem.valid_mask()
    zmax = _focal_extreme(dem.values, v, w.radius, np.maximum, -np.inf)
    zmin = _focal_extreme(dem.values, v, w.radius, np.minimum, np.inf)
    _, keep = _window_gate(v, w)
    return dem.with_values(np.where(keep, zmax - zmin, dem.nodata))


def tpi(dem: Grid, w: WindowSpec) -> Grid:
    """Topographic position index: center minus mean of its neighbors.

    The center cell is excluded from the mean. Elevations are centered on
    the grid mean first, which leaves the result unchanged but keeps the
    focal sums well conditioned.
    """
    v = dem.valid_mask()
    z = np.where(v, dem.values, 0.0)
    z = np.where(v, z - (z.sum() / max(v.sum(), 1)), 0.0)
    total = _box_sum(z, w.radius)
    count, keep = _window_gate(v, w)
    neighbors = count - 1
    keep &= neighbors >= 1
    mean = np.divide(total - z, neighbors, out=np.zeros_like(z), where=neighbors >= 1)
    return dem.with_values(np.where(keep, z - mean, dem.nodata))


def tri(dem: Grid) -> Grid:
    """Terrain ruggedness index: root of the summed squared differences
    between a cell and its eight neighbors (Riley form)."""
    z = dem.values
    nb, full = _neighbors(dem)
    acc = np.zeros_like(z)
    for n in nb:
        acc += (n - z) ** 2
    return dem.with_values(np.where(full, np.sqrt(acc), dem.nodata))


def _pit_peak_flags(dem: Grid, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Cells deviating from their eight-neighbor median by more than
    ``threshold``; second array marks where the flag is defined."""
    nb, defined = _neighbors(dem)
    # np.median stacks the views into a new (8, H, W) array, so partitioning
    # it in place leaves the DEM untouched
    med = np.median(nb, axis=0, overwrite_input=True)
    flags = defined & (np.abs(dem.values - med) > threshold)
    return flags, defined


def texture(dem: Grid, pit_peak_threshold: float, w: WindowSpec) -> Grid:
    """Surface texture: percent of pit/peak cells within the window.

    A cell is a pit or peak when it deviates from the median of its eight
    neighbors by more than ``pit_peak_threshold``. Values are in [0, 100].
    """
    if not (pit_peak_threshold >= 0):
        raise ValueError("pit_peak_threshold must be >= 0")
    flags, defined = _pit_peak_flags(dem, pit_peak_threshold)
    hits = _box_sum(flags.astype(np.float64), w.radius)
    count, keep = _window_gate(defined, w)
    pct = np.divide(100.0 * hits, count, out=np.zeros_like(hits), where=count >= 1)
    return dem.with_values(np.where(keep, pct, dem.nodata))


def vrm(dem: Grid, w: WindowSpec) -> Grid:
    """Vector ruggedness measure over the window, in [0, 1].

    Unit surface normals (sin S sin A, sin S cos A, cos S) are built from
    slope S and aspect A per cell; flat cells contribute (0, 0, 1). The
    measure is one minus the length of the resultant divided by the number
    of contributing normals.
    """
    s = slope(dem)
    a = aspect(dem)
    v = s.valid_mask()
    srad = np.radians(np.where(v, s.values, 0.0))
    arad = np.radians(np.where(v & (a.values != FLAT_ASPECT), a.values, 0.0))
    sin_s = np.sin(srad)
    nx = np.where(v, sin_s * np.sin(arad), 0.0)
    ny = np.where(v, sin_s * np.cos(arad), 0.0)
    nz = np.where(v, np.cos(srad), 0.0)
    sx = _box_sum(nx, w.radius)
    sy = _box_sum(ny, w.radius)
    sz = _box_sum(nz, w.radius)
    count, keep = _window_gate(v, w)
    resultant = np.sqrt(sx * sx + sy * sy + sz * sz)
    out = np.divide(resultant, count, out=np.ones_like(resultant), where=count >= 1)
    out = np.maximum(1.0 - out, 0.0)
    return dem.with_values(np.where(keep, out, dem.nodata))


def _require_binary(mask: Grid, what: str) -> None:
    bad = ~((mask.values == 0) | (mask.values == 1) | (mask.values == mask.nodata))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"{what} must hold only 0, 1 or nodata; found {mask.values[i, j]!r} at cell ({i}, {j})"
        )


def focal_fraction(mask: Grid, w: WindowSpec) -> Grid:
    """Percent of valid window cells equal to 1, for a binary {0,1} mask."""
    _require_binary(mask, "focal_fraction input")
    v = mask.valid_mask()
    ones = _box_sum(np.where(v & (mask.values == 1), 1.0, 0.0), w.radius)
    count, keep = _window_gate(v, w)
    pct = np.divide(100.0 * ones, count, out=np.zeros_like(ones), where=count >= 1)
    return mask.with_values(np.where(keep, pct, mask.nodata))


def build_feature_stack(
    dem: Grid,
    bare: Grid,
    urban: Grid,
    forest: Grid,
    cfg: FeatureConfig | None = None,
    max_workers: int = 1,
) -> FeatureStack:
    """Assemble the eleven predictor layers in canonical order.

    ``elevation`` is the DEM itself and ``urban`` the binary mask passed
    through; ``pct_bare``/``pct_forest`` are focal fractions of their masks;
    the rest are the derivatives above. ``max_workers`` > 1 computes the
    derivative layers concurrently (the result does not depend on it).
    """
    cfg = cfg or FeatureConfig()
    geo = dem.geometry
    for name, g in (("bare", bare), ("urban", urban), ("forest", forest)):
        if not g.geometry.matches(geo):
            raise GeometryMismatch(f"{name} mask is not on the DEM geometry")
    _require_binary(urban, "urban mask")

    jobs = {
        "slope": lambda: slope(dem),
        "aspect": lambda: aspect(dem),
        "roughness": lambda: roughness(dem, cfg.roughness_window),
        "tpi": lambda: tpi(dem, cfg.tpi_window),
        "tri": lambda: tri(dem),
        "texture": lambda: texture(dem, cfg.texture_threshold, cfg.texture_window),
        "vrm": lambda: vrm(dem, cfg.vrm_window),
        "pct_bare": lambda: focal_fraction(bare, cfg.landcover_window),
        "pct_forest": lambda: focal_fraction(forest, cfg.landcover_window),
    }
    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = {name: pool.submit(fn) for name, fn in jobs.items()}
            computed = {name: fut.result() for name, fut in futures.items()}
    else:
        computed = {name: fn() for name, fn in jobs.items()}
    computed["elevation"] = dem
    computed["urban"] = urban

    return FeatureStack(CANONICAL_FEATURES,
                        tuple(computed[name] for name in CANONICAL_FEATURES))
