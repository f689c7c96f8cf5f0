"""Single-band raster grids: ESRI ASCII I/O, alignment, and differencing.

Conventions used throughout the package:

* values are stored row-major with the first row at the northern edge,
  matching the ASCII format's line order;
* a cell's sampling point is its center,
  ``(xll + (col + 0.5) * cellsize, yll + (nrows - row - 0.5) * cellsize)``;
* invalid cells hold the ``nodata`` sentinel exactly and never take part
  in any statistic or derivative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

__all__ = [
    "Grid",
    "GridGeometry",
    "GridParseError",
    "GeometryMismatch",
    "parse_ascii_header",
    "read_ascii_grid",
    "ascii_header",
    "ascii_rows",
    "write_ascii_grid",
    "load_grid",
    "save_grid",
    "align_to",
    "difference",
]


class GridParseError(ValueError):
    """ASCII grid stream could not be parsed; message names the line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GeometryMismatch(ValueError):
    """Operation requires matching grid geometries."""


@dataclass(frozen=True)
class GridGeometry:
    """The five numbers that pin a grid to the ground."""

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float

    def matches(self, other: "GridGeometry", rel_tol: float = 1e-9) -> bool:
        """True when all five fields agree, reals within relative tolerance."""
        return (
            self.ncols == other.ncols
            and self.nrows == other.nrows
            and math.isclose(self.xll, other.xll, rel_tol=rel_tol, abs_tol=rel_tol)
            and math.isclose(self.yll, other.yll, rel_tol=rel_tol, abs_tol=rel_tol)
            and math.isclose(self.cellsize, other.cellsize, rel_tol=rel_tol, abs_tol=rel_tol)
        )


@dataclass(frozen=True, eq=False)
class Grid:
    """A single-band georeferenced raster.

    ``values`` is a read-only float64 array of shape ``(nrows, ncols)``,
    row 0 northernmost. Cells are either finite or hold ``nodata`` exactly.
    """

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float
    nodata: float
    values: np.ndarray

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise ValueError("grid must have positive ncols and nrows")
        if not (self.cellsize > 0):
            raise ValueError("cellsize must be strictly positive")
        if not math.isfinite(self.nodata):
            raise ValueError("nodata sentinel must be finite")
        arr = np.array(self.values, dtype=np.float64)
        if arr.size != self.ncols * self.nrows:
            raise ValueError(
                f"values length {arr.size} does not equal ncols*nrows = {self.ncols * self.nrows}"
            )
        arr = arr.reshape(self.nrows, self.ncols)
        check_values(arr, self.nodata)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def geometry(self) -> GridGeometry:
        return GridGeometry(self.ncols, self.nrows, self.xll, self.yll, self.cellsize)

    def valid_mask(self) -> np.ndarray:
        """Boolean array, True where the cell holds data."""
        return self.values != self.nodata

    def with_values(self, values: np.ndarray) -> "Grid":
        """New grid on this geometry (and nodata sentinel) holding ``values``."""
        return Grid(self.ncols, self.nrows, self.xll, self.yll, self.cellsize,
                    self.nodata, values)


def check_values(values: np.ndarray, nodata: float, first_row: int = 0) -> None:
    """Check that every cell of ``values``, rows ``first_row`` onward of a
    grid, is finite or ``nodata``, as a :class:`Grid` requires.

    Raises:
        ValueError: names the first cell that is neither.
    """
    bad = ~(np.isfinite(values) | (values == nodata))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"non-finite value at cell ({first_row + i}, {j}) "
                         "is not the nodata sentinel")


_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def _fmt(v: float) -> str:
    """Shortest decimal that reparses to the same float; integral floats bare."""
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def parse_ascii_header(lines) -> tuple[GridGeometry, float]:
    """Parse the six header lines of an ESRI ASCII grid.

    ``lines`` holds at least the first six lines of the text (ncols, nrows,
    xllcorner, yllcorner, cellsize, NODATA_value; keywords
    case-insensitive, in that order). Returns the geometry and the nodata
    sentinel.

    Raises:
        GridParseError: a missing or malformed header line, or a
            non-finite nodata sentinel; the message names the line.
    """
    header: dict[str, float] = {}
    for idx, key in enumerate(_HEADER_KEYS):
        lineno = idx + 1
        if idx >= len(lines):
            raise GridParseError(lineno, f"missing header line (expected '{key} <value>')")
        tokens = lines[idx].split()
        if len(tokens) != 2:
            raise GridParseError(lineno, f"expected '<keyword> <value>', got {lines[idx]!r}")
        if tokens[0].lower() != key:
            raise GridParseError(lineno, f"expected header keyword '{key}', got '{tokens[0]}'")
        try:
            header[key] = float(tokens[1])
        except ValueError:
            raise GridParseError(lineno, f"non-numeric value for '{key}': '{tokens[1]}'") from None

    for key in ("ncols", "nrows"):
        if header[key] != int(header[key]) or header[key] < 1:
            raise GridParseError(_HEADER_KEYS.index(key) + 1, f"'{key}' must be a positive integer")
    if header["cellsize"] <= 0:
        raise GridParseError(5, "cellsize must be strictly positive")
    if not math.isfinite(header["nodata_value"]):
        raise GridParseError(6, f"NODATA_value must be finite, got {header['nodata_value']!r}")

    geometry = GridGeometry(int(header["ncols"]), int(header["nrows"]), header["xllcorner"],
                            header["yllcorner"], header["cellsize"])
    return geometry, header["nodata_value"]


def read_ascii_grid(source: str | TextIO) -> Grid:
    """Parse an ESRI ASCII grid from a string or text stream.

    The six header lines (see :func:`parse_ascii_header`) are followed by
    ncols*nrows whitespace-separated values in row-major north-first order.
    A seekable stream is parsed as it is read, so its text is never held
    whole; should that parse fail, the stream is rewound and parsed as
    text, which names the faulty line.

    Raises:
        GridParseError: malformed header, non-numeric token, or value-count
            mismatch; the message names the offending line.
    """
    if hasattr(source, "read"):
        if source.seekable():
            start = source.tell()
            grid = _read_stream(source)
            if grid is not None:
                return grid
            source.seek(start)
        source = source.read()
    lines = source.splitlines()
    del source  # the lines hold a second copy of the text; free the first before parsing
    geo, nodata = parse_ascii_header(lines[:6])
    expected = geo.ncols * geo.nrows
    body = lines[6:]
    flat = _bulk_parse(body, expected, nodata)
    if flat is None:
        flat = _parse_tokens(body, expected, nodata)
    return Grid(geo.ncols, geo.nrows, geo.xll, geo.yll, geo.cellsize, nodata, flat)


def _read_stream(stream: TextIO) -> Grid | None:
    """The grid of a stream read line by line, or None where the text parse
    must decide: a missing or malformed header line, one that
    ``str.splitlines`` would cut elsewhere (at a form feed, say), or a body
    :func:`_bulk_parse` refuses."""
    header = []
    for _ in range(6):
        line = stream.readline()
        if line.splitlines() != [line.rstrip("\n")]:
            return None
        header.append(line)
    try:
        geo, nodata = parse_ascii_header(header)
    except GridParseError:
        return None
    flat = _bulk_parse(stream, geo.ncols * geo.nrows, nodata)
    if flat is None:
        return None
    return Grid(geo.ncols, geo.nrows, geo.xll, geo.yll, geo.cellsize, nodata, flat)


def _bulk_parse(body, expected: int, nodata: float) -> np.ndarray | None:
    """The values of ``body`` (body lines, or a stream at the body) from
    numpy's C reader, or None unless they are ``expected`` values, each
    finite or ``nodata``.

    The C reader parses each token with the routine float() uses, so the
    values are bit-identical; it rejects ragged wrapping and a few
    spellings float() takes (1_0, non-ASCII digits), which, like every
    other refusal, are left to the token loop. So is a body without data,
    as loadtxt would warn on it.
    """
    lines = iter(body)
    first = next((line for line in lines if line and not line.isspace()), None)
    if first is None:
        return None
    try:
        flat = np.loadtxt(itertools.chain([first], lines), dtype=np.float64, comments=None,
                          ndmin=1).ravel()
    except ValueError:
        return None
    if flat.size != expected or not (np.isfinite(flat) | (flat == nodata)).all():
        return None
    return flat


def _parse_tokens(body: list[str], expected: int, nodata: float) -> np.ndarray:
    """The ``expected`` values of the body lines, one ``float()`` per token.

    The reference parse, and the one that names the line of a fault.

    Raises:
        GridParseError: non-numeric token, a non-finite value other than
            ``nodata``, or a value-count mismatch.
    """
    flat = np.empty(expected, dtype=np.float64)
    count = 0
    lineno = 6
    for offset, line in enumerate(body):
        lineno = 7 + offset
        tokens = line.split()
        if count + len(tokens) > expected:
            raise GridParseError(lineno, f"too many values (expected {expected})")
        for tok in tokens:
            try:
                v = float(tok)
            except ValueError:
                raise GridParseError(lineno, f"non-numeric token '{tok}'") from None
            if not math.isfinite(v) and v != nodata:
                raise GridParseError(lineno, f"non-finite value '{tok}'")
            flat[count] = v
            count += 1
    if count != expected:
        raise GridParseError(lineno, f"expected {expected} values, found {count}")
    return flat


def ascii_header(geometry: GridGeometry, nodata: float) -> str:
    """The six header lines of an ESRI ASCII grid, each ending in a newline."""
    return (f"ncols {geometry.ncols}\nnrows {geometry.nrows}\n"
            f"xllcorner {_fmt(geometry.xll)}\nyllcorner {_fmt(geometry.yll)}\n"
            f"cellsize {_fmt(geometry.cellsize)}\nNODATA_value {_fmt(nodata)}\n")


def ascii_rows(values: np.ndarray) -> str:
    """Body lines of an ESRI ASCII grid, one per row of ``values``, each
    ending in a newline; reals carry full roundtrip precision."""
    # the cells _fmt prints bare, for all rows at once
    integral = (values == np.trunc(values)) & (np.abs(values) < 1e16)
    out = []
    for row, bare in zip(values, integral):
        cells = row.tolist()
        text = list(map(repr, cells))
        for j in np.flatnonzero(bare).tolist():
            text[j] = str(int(cells[j]))
        out.append(" ".join(text))
    out.append("")
    return "\n".join(out)


def write_ascii_grid(grid: Grid) -> str:
    """Render a grid as ESRI ASCII text; reals carry full roundtrip precision."""
    return ascii_header(grid.geometry, grid.nodata) + ascii_rows(grid.values)


def load_grid(path) -> Grid:
    with open(path, "r", encoding="ascii") as fh:
        return read_ascii_grid(fh)


def save_grid(grid: Grid, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(write_ascii_grid(grid))


def difference(a: Grid, b: Grid) -> Grid:
    """Per-cell ``a - b``; nodata in either input propagates.

    Raises:
        GeometryMismatch: the two grids are not on the same geometry.
    """
    if not a.geometry.matches(b.geometry):
        raise GeometryMismatch(f"cannot difference grids on {a.geometry} vs {b.geometry}")
    both = a.valid_mask() & b.valid_mask()
    out = np.where(both, a.values - b.values, a.nodata)
    return a.with_values(out)


def align_to(reference: Grid, g: Grid, method: str = "nearest") -> Grid:
    """Resample ``g`` onto the geometry of ``reference``.

    Every output cell is sampled from ``g`` at the output cell center.
    ``nearest`` takes the closest source cell; ``bilinear`` interpolates the
    four surrounding cell centers and refuses to interpolate across nodata
    (the result is nodata). Cells outside ``g`` become nodata.

    Raises:
        ValueError: unknown method, or the two extents do not overlap.
    """
    if method not in ("nearest", "bilinear"):
        raise ValueError(f"unknown resampling method '{method}'")

    gx0, gx1 = g.xll, g.xll + g.ncols * g.cellsize
    gy0, gy1 = g.yll, g.yll + g.nrows * g.cellsize
    rx0, rx1 = reference.xll, reference.xll + reference.ncols * reference.cellsize
    ry0, ry1 = reference.yll, reference.yll + reference.nrows * reference.cellsize
    if min(gx1, rx1) <= max(gx0, rx0) or min(gy1, ry1) <= max(gy0, ry0):
        raise ValueError("grids do not overlap; cannot align")

    x = reference.xll + (np.arange(reference.ncols) + 0.5) * reference.cellsize
    y = reference.yll + (reference.nrows - np.arange(reference.nrows) - 0.5) * reference.cellsize
    xx, yy = np.meshgrid(x, y)

    # fractional column/row position of each sample point in g, measured
    # in cell-center coordinates (0 = first center)
    fc = (xx - g.xll) / g.cellsize - 0.5
    fr = (gy1 - yy) / g.cellsize - 0.5
    src = g.values
    valid = g.valid_mask()
    out = np.full(xx.shape, g.nodata)

    if method == "nearest":
        inside = (xx >= gx0) & (xx <= gx1) & (yy >= gy0) & (yy <= gy1)
        j = np.clip(np.rint(fc).astype(np.int64), 0, g.ncols - 1)
        i = np.clip(np.rint(fr).astype(np.int64), 0, g.nrows - 1)
        picked = src[i, j]
        ok = inside & (picked != g.nodata)
        out[ok] = picked[ok]
    else:
        inside = (fr >= 0) & (fr <= g.nrows - 1) & (fc >= 0) & (fc <= g.ncols - 1)
        r0 = np.clip(np.floor(fr).astype(np.int64), 0, g.nrows - 1)
        c0 = np.clip(np.floor(fc).astype(np.int64), 0, g.ncols - 1)
        wr = fr - r0
        wc = fc - c0
        r1 = np.where(wr > 0, np.minimum(r0 + 1, g.nrows - 1), r0)
        c1 = np.where(wc > 0, np.minimum(c0 + 1, g.ncols - 1), c0)
        ok = inside & valid[r0, c0] & valid[r0, c1] & valid[r1, c0] & valid[r1, c1]
        interp = (
            src[r0, c0] * (1 - wr) * (1 - wc)
            + src[r0, c1] * (1 - wr) * wc
            + src[r1, c0] * wr * (1 - wc)
            + src[r1, c1] * wr * wc
        )
        out[ok] = interp[ok]

    return Grid(reference.ncols, reference.nrows, reference.xll, reference.yll,
                reference.cellsize, g.nodata, out)
