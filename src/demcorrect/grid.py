"""Single-band raster grids: ESRI ASCII I/O and differencing.

Conventions used throughout the package:

* values are stored row-major with the first row at the northern edge,
  matching the ASCII format's line order;
* invalid cells hold the ``nodata`` sentinel exactly and never take part
  in any statistic or derivative.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
from dataclasses import dataclass
from typing import Protocol, TextIO

import numpy as np

__all__ = [
    "Grid",
    "GridGeometry",
    "GridParseError",
    "GeometryMismatch",
    "NonFiniteError",
    "InputOverflowError",
    "GridRows",
    "GridReader",
    "parse_ascii_header",
    "read_ascii_grid",
    "ascii_header",
    "ascii_rows",
    "write_ascii_grid",
    "load_grid",
    "save_grid",
    "difference",
    "distinct_values",
]


class GridParseError(ValueError):
    """ASCII grid stream could not be parsed.

    The message names the line (``line``; None for a fault of the whole
    text) and, for a grid read from a file, the file (``path``).
    """

    def __init__(self, line: int | None, message: str, path=None):
        text = message if line is None else f"line {line}: {message}"
        super().__init__(text if path is None else f"'{path}': {text}")
        self.line, self.reason, self.path = line, message, path


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

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` of the values (see :class:`GridRows`)."""
        return self.values[start:stop]


class GridRows(Protocol):
    """What :func:`~demcorrect.terrain.build_feature_stack`,
    :func:`~demcorrect.evaluate.build_report` and each layer of a
    :class:`~demcorrect.terrain.FeatureStack` read of a grid: its header,
    and its values a block of rows at a time.

    ``rows(start, stop)`` returns rows ``start:stop`` as a
    ``(stop - start, ncols)`` array that the caller must not write. A
    :class:`Grid` slices the values it holds; a :class:`GridReader` reads
    the rows from its file, fastest when each call starts at or after the
    previous call's start and ends at or after its stop.
    """

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float
    nodata: float

    @property
    def geometry(self) -> GridGeometry: ...

    def rows(self, start: int, stop: int) -> np.ndarray: ...


class NonFiniteError(ValueError):
    """A grid cell (``row``, ``col``) is neither finite nor the nodata sentinel."""

    def __init__(self, row: int, col: int):
        super().__init__(f"non-finite value at cell ({row}, {col}) is not the nodata sentinel")
        self.row, self.col = row, col


class InputOverflowError(ValueError):
    """A value derived from finite inputs overflows; names it and the cell."""


@contextlib.contextmanager
def overflow_named(what: str, first_row: int = 0):
    """Raise a :class:`NonFiniteError` from inside (a ``with`` block or a
    decorated function) as an :class:`InputOverflowError` naming ``what``
    and the cell, its row counted from ``first_row``; numpy warns of no overflow."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except NonFiniteError as exc:
        raise InputOverflowError(f"{what} is not finite at cell ({first_row + exc.row}, "
                                 f"{exc.col}): the input values overflow it") from None


def check_values(values: np.ndarray, nodata: float, first_row: int = 0) -> None:
    """Check that every cell of ``values``, rows ``first_row`` onward of a
    grid, is finite or ``nodata``, as a :class:`Grid` requires.

    Raises:
        NonFiniteError: names the first cell that is neither.
    """
    bad = ~(np.isfinite(values) | (values == nodata))
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        raise NonFiniteError(first_row + i, j)


_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def distinct_values(values: np.ndarray) -> np.ndarray:
    """The distinct values of ``values``, ascending.

    ``np.unique`` gives the same, but under numpy 2 it imports ``numpy.ma``.
    """
    ordered = np.sort(values, axis=None)
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


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
    ncols*nrows whitespace-separated values in row-major north-first order,
    wrapped over lines in any way. A stream that can seek is read by its
    own lines; a string, or a stream that cannot, as a file in text mode
    is, its lines ending at ``\\n``, ``\\r\\n`` or ``\\r``. A body whose
    lines hold one grid row each is parsed by numpy's C reader
    (:func:`_parse_rows`); any other body, reread from its first line, by
    the token loop, which names the line of a fault.

    Raises:
        GridParseError: malformed header, non-numeric token, or value-count
            mismatch; the message names the offending line.
    """
    if isinstance(source, str) or not source.seekable():
        # read as a file in text mode is, from UTF-8: a StringIO holds 4 bytes per character
        data = (source if isinstance(source, str) else source.read()).encode(errors="surrogatepass")
        source = io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogatepass", newline=None)
    geo, nodata = _read_header(source)
    body = source.tell()
    values = _parse_rows(source, geo.nrows, geo.ncols, nodata, last=True)
    if values is None:
        source.seek(body)
        values = _parse_tokens(source, geo.ncols * geo.nrows, nodata)
    return Grid(geo.ncols, geo.nrows, geo.xll, geo.yll, geo.cellsize, nodata, values)


def _read_header(stream: TextIO) -> tuple[GridGeometry, float]:
    """:func:`parse_ascii_header` of the next six lines of ``stream``."""
    lines = itertools.islice(iter(stream.readline, ""), 6)
    return parse_ascii_header([line.rstrip("\r\n") for line in lines])


def _parse_rows(lines, count: int, ncols: int, nodata: float,
                last: bool) -> np.ndarray | None:
    """The next ``count`` rows of ``lines`` (an iterator of body lines, or a
    stream) from numpy's C reader, or None unless each of the ``count``
    lines holds one grid row, every value finite or ``nodata``, and, with
    ``last``, only whitespace follows.

    The C reader splits a line where ``str.split`` does and parses each
    token with the routine float() uses, so the values are those of
    :func:`_parse_tokens`, which is left whatever is refused here: blank
    lines, wrapped rows, a spelling only float() takes (1_0).
    """
    if count == 0:
        return np.empty((0, ncols))
    rows = itertools.islice(lines, count)
    first = next(rows, "")
    if not first.strip():  # loadtxt skips blank lines, and warns on no data
        return None
    try:
        block = np.loadtxt(itertools.chain([first], rows), dtype=np.float64, comments=None,
                           ndmin=2)
    except ValueError:
        return None
    if block.shape != (count, ncols) or not (np.isfinite(block) | (block == nodata)).all():
        return None
    if last and any(line.strip() for line in lines):
        return None
    return block


def _parse_tokens(body, expected: int, nodata: float) -> np.ndarray:
    """The ``expected`` values of the body lines, any iterable, one ``float()`` per token.

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


def _texts(values: np.ndarray) -> list[str]:
    """:func:`_fmt` of each value of the 1-D ``values``."""
    bare = (values == np.trunc(values)) & (np.abs(values) < 1e16)
    cells = values.tolist()
    text = list(map(repr, cells))
    for j in np.flatnonzero(bare).tolist():
        text[j] = str(int(cells[j]))
    return text


def ascii_rows(values: np.ndarray) -> str:
    """Body lines of an ESRI ASCII grid, one per row of ``values``, each
    ending in a newline; reals carry full roundtrip precision.

    A block with at most one distinct value per 16 cells, such as a mask
    or a land-cover fraction, formats each distinct value once and looks
    up every cell's text; the bytes are the same either way.
    """
    distinct = distinct_values(values)
    if 16 * len(distinct) <= values.size:
        table = np.array(_texts(distinct), dtype=object)
        lines = [" ".join(table.take(np.searchsorted(distinct, row)).tolist())
                 for row in values]
    else:
        del distinct  # nearly a copy of the block: not held while its rows are formatted
        lines = [" ".join(_texts(row)) for row in values]
    lines.append("")
    return "\n".join(lines)


def write_ascii_grid(grid: Grid) -> str:
    """Render a grid as ESRI ASCII text; reals carry full roundtrip precision."""
    return ascii_header(grid.geometry, grid.nodata) + ascii_rows(grid.values)


@contextlib.contextmanager
def _naming(path):
    """Name ``path`` in the parse errors raised inside, and raise text that
    is not ASCII as one."""
    try:
        yield
    except GridParseError as exc:
        if exc.path is not None:
            raise
        raise GridParseError(exc.line, exc.reason, path) from None
    except UnicodeDecodeError as exc:
        raise GridParseError(None, f"not ASCII text (byte {exc.object[exc.start]:#04x})",
                             path) from None


def load_grid(path) -> Grid:
    """The grid of an ESRI ASCII file, read whole.

    Raises:
        GridParseError: as :func:`read_ascii_grid`, or the file is not
            ASCII text; the message names the file.
    """
    with _naming(path), open(path, "r", encoding="ascii") as fh:
        return read_ascii_grid(fh)


class GridReader:
    """The rows of an ESRI ASCII grid file, parsed a block at a time (a
    :class:`GridRows`); values and errors are those of :func:`load_grid`.

    The header is parsed when the reader is made, so that a geometry can
    be refused before any body line is read. ``rows`` then parses the lines
    it has not read yet by the rule of :func:`read_ascii_grid`
    (:func:`_parse_rows`) and holds the rows it returns: a call that starts
    at or after the previous call's start, and stops at or after its stop,
    reuses the rows the two share and reads on from there. Any other call
    rereads the body from its first line. Where the rule refuses a block,
    the reader parses the whole file with :func:`load_grid`, which raises
    its error, naming the line, or returns the grid whose rows the reader
    serves from then on; only then is a whole grid held.
    """

    def __init__(self, path):
        self.path = path
        self._grid: Grid | None = None
        with contextlib.ExitStack() as closing, _naming(path):
            self._fh = closing.enter_context(open(path, "r", encoding="ascii"))
            geo, nodata = _read_header(self._fh)
            closing.pop_all()  # the header parsed: the file stays open for the rows
        self._body = self._fh.tell()
        self.ncols, self.nrows = geo.ncols, geo.nrows
        self.xll, self.yll, self.cellsize = geo.xll, geo.yll, geo.cellsize
        self.nodata = nodata
        # rows _first:_next, those of the last call; the file is at row _next
        self._held = np.empty((0, self.ncols))
        self._first = self._next = 0

    @property
    def geometry(self) -> GridGeometry:
        return GridGeometry(self.ncols, self.nrows, self.xll, self.yll, self.cellsize)

    def __enter__(self) -> "GridReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._fh.close()

    def rows(self, start: int, stop: int) -> np.ndarray:
        if self._grid is None:
            if start < self._first or stop < self._next:
                self._fh.seek(self._body)
                self._held = np.empty((0, self.ncols))
                self._first = self._next = 0
            with _naming(self.path):
                new = _parse_rows(self._fh, stop - self._next, self.ncols, self.nodata,
                                  last=stop == self.nrows)
            if new is not None:
                kept = self._held[start - self._first:]
                new = new[max(start - self._next, 0):]
                self._held = np.concatenate([kept, new]) if len(kept) else new
                self._first, self._next = start, stop
                return self._held
            self.close()
            self._held = None
            self._grid = load_grid(self.path)
        return self._grid.values[start:stop]


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
