"""Terrain and land-cover predictor rasters derived from a DEM.

Eleven predictors are produced: elevation, slope, aspect, surface roughness,
topographic position index, terrain ruggedness index, surface texture,
vector ruggedness measure, percent bare ground, urban footprint, and percent
forest cover. All focal operators share one border/nodata policy: a window
whose valid fraction falls below ``WindowSpec.min_valid_fraction`` (counting
out-of-bounds cells as invalid), or whose center cell is invalid, yields
nodata. Data is never invented at borders.

Every operator, roughness's focal max and min included, needs numpy only.

``build_feature_stack`` computes the layers in row blocks, each from a
sub-grid holding the block's rows and a halo of the largest window radius
plus 1 rows on either side, and every block's rows are bit-identical to
those of the whole grid. Slope, aspect and TRI read their 3x3 windows
directly. Every other window is reduced by one helper, ``_box_sum``: a
row pass, then a column pass, each joining spans of 1, 2, 4, ... cells in
a fixed order. A cell's window sum, or its focal max or min, is thus the
same expression of its own window wherever its sub-grid starts. No sum
runs past the window, and nothing is carried from one block to the next.

The inputs are read through :class:`~demcorrect.grid.GridRows`: a
:class:`~demcorrect.grid.Grid` held in memory, or a
:class:`~demcorrect.store.Slab` that reads a block of rows of an ASCII
file's binary copy at a time.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .grid import GeometryMismatch, Grid, GridGeometry, GridRows, overflow_named

__all__ = [
    "CANONICAL_FEATURES",
    "FLAT_ASPECT",
    "WindowSpec",
    "FeatureConfig",
    "FeatureStack",
    "MaskValueError",
    "row_blocks",
    "slope",
    "aspect",
    "roughness",
    "tpi",
    "tri",
    "texture",
    "vrm",
    "focal_fraction",
    "layer_templates",
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
    """Named predictor layers on one geometry, each a :class:`GridRows`,
    read a block of rows at a time (:meth:`rows`): a :class:`Grid` held in
    memory, or a :class:`~demcorrect.store.Slab` of the binary copy of the
    layer's file."""

    names: tuple[str, ...]
    layers: tuple[GridRows, ...]

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
    def geometry(self) -> GridGeometry:
        return self.layers[0].geometry

    @property
    def nodata(self) -> tuple[float, ...]:
        return tuple(layer.nodata for layer in self.layers)

    def layer(self, name: str) -> GridRows:
        try:
            return self.layers[self.names.index(name)]
        except ValueError:
            raise KeyError(f"no feature layer named '{name}'") from None

    def rows(self, start: int, stop: int,
             names: Sequence[str] | None = None) -> tuple[np.ndarray, ...]:
        """Rows ``start:stop`` of the named layers (every layer when None),
        in that order, each from its layer's ``rows``: ``(stop - start,
        ncols)`` arrays that the caller must not write, and that the next
        call may overwrite."""
        layers = self.layers if names is None else [self.layer(name) for name in names]
        return tuple(layer.rows(start, stop) for layer in layers)


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


def _running(a: np.ndarray, k: int, op, axis: int) -> np.ndarray:
    """``op`` over every k consecutive entries along ``axis``, which shrinks by k - 1.

    Spans of 1, 2, 4, ... entries are built by doubling, and a run of k
    joins the spans of k's binary digits, lowest first: 21 entries are
    ``(span1 + span4) + span16``. An entry's result is thus the same
    expression of its own k entries wherever the array starts: a tree of
    operations at most floor(log2 k) + popcount(k) - 1 deep.
    """
    def span(x, first, n):
        return x[first:first + n] if axis == 0 else x[:, first:first + n]

    n = a.shape[axis] - k + 1
    out, done, s = None, 0, 1
    while True:
        if k & s:
            out = span(a, done, n) if out is None else op(out, span(a, done, n))
            done += s
        if 2 * s > k:
            return out
        m = a.shape[axis] - s
        a = op(span(a, 0, m), span(a, s, m))
        s *= 2


def _box_sum(arr: np.ndarray, radius: int, op=np.add, fill: float = 0.0) -> np.ndarray:
    """Sum (or ``op``) over each (2r+1)^2 window, cells past the border
    reading 0 (``fill``): a row pass, then a column pass.

    Past max(h, w) a larger radius adds only ``fill`` to every window, so the
    radius is clamped there.
    """
    h, w = arr.shape
    radius = min(radius, max(h, w))
    k = 2 * radius + 1
    rows = _running(np.pad(arr, ((0, 0), (radius, radius)), constant_values=fill),
                    k, op, axis=1)
    return _running(np.pad(rows, ((radius, radius), (0, 0)), constant_values=fill),
                    k, op, axis=0)


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
    # max and min pick one of their inputs, so the grouping does not change
    # the result; only a tie of 0.0 and -0.0 could go either way, so -0.0
    # is read as 0.0 (-0.0 + 0.0 is 0.0)
    z = dem.values + 0.0
    zmax = _box_sum(np.where(v, z, -np.inf), w.radius, np.maximum, -np.inf)
    zmin = _box_sum(np.where(v, z, np.inf), w.radius, np.minimum, np.inf)
    _, keep = _window_gate(v, w)
    return dem.with_values(np.where(keep, zmax - zmin, dem.nodata))


def tpi(dem: Grid, w: WindowSpec) -> Grid:
    """Topographic position index: center minus mean of its neighbors.

    The center cell is excluded from the mean. The neighbors' sum is the
    window sum less the center, each window summed in a fixed order of its
    own cells (see the module docstring).
    """
    v = dem.valid_mask()
    z = np.where(v, dem.values, 0.0)
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
    # the median as np.median(nb, axis=0, overwrite_input=True) takes it, to
    # the sign of a zero: partition one stacked copy in place at the middle
    # ranks and the last, then average the middle two
    stack = np.array(nb)
    stack.partition((3, 4, 7), axis=0)
    med = np.mean(stack[3:5], axis=0)
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

    Each cell whose 3x3 window is whole contributes the unit normal of its
    surface, ``(-p, -q, 1) / sqrt(1 + p^2 + q^2)`` for its Horn gradients
    p and q: (sin S sin A, sin S cos A, cos S) for its slope S and aspect
    A, and (0, 0, 1) on flat cells. The measure is one minus the length of
    the resultant divided by the number of contributing normals, each
    component summed over the window in a fixed order of its own cells
    (see the module docstring).
    """
    p, q, v = _horn_gradients(dem)
    nz = np.where(v, 1.0 / np.sqrt(1.0 + p * p + q * q), 0.0)
    sx, sy, sz = (_box_sum(n, w.radius) for n in (-p * nz, -q * nz, nz))
    count, keep = _window_gate(v, w)
    resultant = np.sqrt(sx * sx + sy * sy + sz * sz)
    out = np.divide(resultant, count, out=np.ones_like(resultant), where=count >= 1)
    out = np.maximum(1.0 - out, 0.0)
    return dem.with_values(np.where(keep, out, dem.nodata))


class MaskValueError(ValueError):
    """A land-cover mask holds a value other than 0, 1 or nodata; names the
    cell, and ``what`` names the mask."""

    def __init__(self, message: str, what: str | None = None):
        super().__init__(message)
        self.what = what


def _require_binary(values: np.ndarray, nodata: float, what: str, first_row: int = 0) -> None:
    """Check that ``values``, rows ``first_row`` onward of a mask, hold only
    0, 1 or ``nodata``; the error names ``what`` and the first cell that
    does not."""
    bad = ~((values == 0) | (values == 1) | (values == nodata))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise MaskValueError(
            f"{what} must hold only 0, 1 or nodata; found {float(values[i, j])!r} at cell "
            f"({first_row + i}, {j})", what)


def focal_fraction(mask: Grid, w: WindowSpec) -> Grid:
    """Percent of valid window cells equal to 1, for a binary {0,1} mask."""
    _require_binary(mask.values, mask.nodata, "focal_fraction input")
    v = mask.valid_mask()
    ones = _box_sum(np.where(v & (mask.values == 1), 1.0, 0.0), w.radius)
    count, keep = _window_gate(v, w)
    pct = np.divide(100.0 * ones, count, out=np.zeros_like(ones), where=count >= 1)
    return mask.with_values(np.where(keep, pct, mask.nodata))


#: Rows per worker in a block of :func:`build_feature_stack`, and rows per
#: block where sampling and prediction read a stack. Smaller blocks
#: recompute more halo rows, and leave threads less work to overlap.
BLOCK_ROWS = 64


def row_blocks(nrows: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of each block of ``BLOCK_ROWS`` rows, top to bottom."""
    return [(r0, min(r0 + BLOCK_ROWS, nrows)) for r0 in range(0, nrows, BLOCK_ROWS)]


def layer_templates(dem: GridRows, bare: GridRows, urban: GridRows,
                    forest: GridRows) -> tuple[GridRows, ...]:
    """The grid whose geometry and nodata sentinel each stack layer takes,
    in canonical order: each mask for its own layer, the DEM for the rest."""
    own = {"pct_bare": bare, "urban": urban, "pct_forest": forest}
    return tuple(own.get(name, dem) for name in CANONICAL_FEATURES)


def build_feature_stack(
    dem: GridRows,
    bare: GridRows,
    urban: GridRows,
    forest: GridRows,
    cfg: FeatureConfig | None = None,
    max_workers: int = 1,
    sink: Callable[[int, tuple[np.ndarray, ...]], None] | None = None,
) -> FeatureStack | None:
    """Assemble the eleven predictor layers in canonical order.

    ``elevation`` is the DEM itself and ``urban`` the binary mask passed
    through; ``pct_bare``/``pct_forest`` are focal fractions of their masks;
    the rest are the derivatives above.

    The layers are computed in blocks of ``BLOCK_ROWS * max_workers`` rows,
    each from a sub-grid that adds a halo of the largest window radius plus
    1 rows above and below. The result depends neither on the block size
    nor on ``max_workers`` (see the module docstring). With one worker, a
    block peaks near ``8 * ncols * (35 * BLOCK_ROWS + 40 * halo)`` bytes.
    Each input is read once, a sub-grid at a time, top to bottom; each
    mask's rows are checked as they are first read, so that the error
    names the first faulty cell of the first block that holds one, urban
    mask first, then bare, then forest. A derived layer whose value
    overflows is refused with an :class:`~demcorrect.grid.InputOverflowError`
    that names the layer and the cell.

    With ``sink``, each block goes to ``sink(first_row, rows)`` as it
    finishes, ``rows`` holding its rows of every layer in canonical order,
    and None is returned: no whole derived layer is held. Without, the
    blocks are assembled into the returned stack, whose ``elevation`` and
    ``urban`` layers are the DEM and the urban mask, which must then be
    :class:`Grid` s. ``max_workers`` > 1 computes a block's derivative
    layers concurrently.
    """
    cfg = cfg or FeatureConfig()
    geo = dem.geometry
    for name, g in (("bare", bare), ("urban", urban), ("forest", forest)):
        if not g.geometry.matches(geo):
            raise GeometryMismatch(f"{name} mask is not on the DEM geometry")

    windows = (cfg.roughness_window, cfg.tpi_window, cfg.vrm_window,
               cfg.landcover_window, cfg.texture_window)
    halo = 1 + max(w.radius for w in windows)
    block_rows = BLOCK_ROWS * max_workers
    jobs = {
        "slope": lambda d, b, f: slope(d),
        "aspect": lambda d, b, f: aspect(d),
        "roughness": lambda d, b, f: roughness(d, cfg.roughness_window),
        "tpi": lambda d, b, f: tpi(d, cfg.tpi_window),
        "tri": lambda d, b, f: tri(d),
        "texture": lambda d, b, f: texture(d, cfg.texture_threshold, cfg.texture_window),
        "vrm": lambda d, b, f: vrm(d, cfg.vrm_window),
        "pct_bare": lambda d, b, f: focal_fraction(b, cfg.landcover_window),
        "pct_forest": lambda d, b, f: focal_fraction(f, cfg.landcover_window),
    }
    assembled = None
    if sink is None:
        assembled = {name: np.empty((dem.nrows, dem.ncols)) for name in jobs}

        def sink(first, rows):
            for name, block in zip(CANONICAL_FEATURES, rows):
                if name in assembled:
                    assembled[name][first:first + len(block)] = block

    h = dem.nrows
    checked = 0  # the mask rows checked so far
    with ThreadPoolExecutor(max_workers) if max_workers > 1 else contextlib.nullcontext() as pool:
        for r0 in range(0, h, block_rows):
            r1 = min(r0 + block_rows, h)
            s0, s1 = max(r0 - halo, 0), min(r1 + halo, h)
            dem_rows, bare_rows, urban_rows, forest_rows = (
                g.rows(s0, s1) for g in (dem, bare, urban, forest))
            for what, g, values in (("urban mask", urban, urban_rows),
                                    ("bare mask", bare, bare_rows),
                                    ("forest mask", forest, forest_rows)):
                _require_binary(values[checked - s0:], g.nodata, what, checked)
            checked = s1
            # each input's sub-grid of rows s0:s1
            args = [Grid(g.ncols, s1 - s0, g.xll, g.yll + (g.nrows - s1) * g.cellsize,
                         g.cellsize, g.nodata, values)
                    for g, values in ((dem, dem_rows), (bare, bare_rows), (forest, forest_rows))]

            def layer(name):
                # a copy of the block's rows lets the layer's sub-grid go at once
                with overflow_named(f"feature layer '{name}'", s0):
                    return jobs[name](*args).values[r0 - s0:r1 - s0].copy()

            if pool is None:
                rows = {name: layer(name) for name in jobs}
            else:
                futures = {name: pool.submit(layer, name) for name in jobs}
                rows = {name: fut.result() for name, fut in futures.items()}
            rows["elevation"] = dem_rows[r0 - s0:r1 - s0]
            rows["urban"] = urban_rows[r0 - s0:r1 - s0]
            sink(r0, tuple(rows[name] for name in CANONICAL_FEATURES))

    if assembled is None:
        return None
    return FeatureStack(CANONICAL_FEATURES, tuple(
        template.with_values(assembled.pop(name)) if name in assembled else template
        for name, template in zip(CANONICAL_FEATURES, layer_templates(dem, bare, urban, forest))))
