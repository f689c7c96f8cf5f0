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
from typing import Callable, Protocol, TextIO

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
    """What every step reads of a grid: its header, and its values a block
    of rows at a time. ``rows(start, stop)`` returns rows ``start:stop`` as a
    ``(stop - start, ncols)`` array that the caller must not write. A
    :class:`Grid` slices the values it holds, a :class:`GridReader` parses
    them from its file, fastest when each call starts and stops at or after
    the previous call's, a :class:`difference` computes them, and a
    :class:`~demcorrect.store.Slab` reads them from a binary copy."""

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
#: rows that :func:`read_ascii_grid` hands a sink at a time
_SINK_ROWS = 64


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
    if abs(v) < 1e16 and v == int(v):
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


def read_ascii_grid(source: str | TextIO,
                    sink: Callable[[int, np.ndarray], None] | None = None) -> Grid | None:
    """Parse an ESRI ASCII grid from a string or text stream.

    The six header lines (see :func:`parse_ascii_header`) are followed by
    ncols*nrows whitespace-separated values in row-major north-first order,
    wrapped over lines in any way. A stream that can seek is read by its
    own lines; a string, or a stream that cannot, as a file in text mode
    is, its lines ending at ``\\n``, ``\\r\\n`` or ``\\r``. A body whose
    lines hold one grid row each is parsed by numpy's C reader
    (:func:`_parse_rows`); any other body, reread from its first line, by
    the token loop, which names the line of a fault.

    With ``sink``, the rows go to ``sink(first_row, rows)`` as they are
    parsed, ``_SINK_ROWS`` at a time (the rest at once from the token loop).

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
    step = geo.nrows if sink is None else _SINK_ROWS
    for first in range(0, geo.nrows, step):
        stop = min(first + step, geo.nrows)
        values = _parse_rows(source, stop - first, geo.ncols, nodata, last=stop == geo.nrows)
        if values is None:
            source.seek(body)
            values = _parse_tokens(source, geo.ncols * geo.nrows, nodata)
            values = values.reshape(geo.nrows, geo.ncols)[first:]
        if sink is None:
            return Grid(geo.ncols, geo.nrows, geo.xll, geo.yll, geo.cellsize, nodata, values)
        sink(first, values)
        if len(values) > step:  # the token loop's rows, to the last
            break


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


def _split(x):
    """Dekker's split of ``x`` into a high and a low part of at most 26
    significant bits each, whose products are exact."""
    hi = x * 134217729.0 - (x * 134217729.0 - x)
    return hi, x - hi


#: 10**k as exact floats (k <= 22) and their halves, and as int64 (k <= 18),
#: built by Python arithmetic: a numpy loop first run at import maps its code
#: into every process that imports this module
_P10 = np.array([float(10 ** k) for k in range(23)])
_P10_HI, _P10_LO = np.array([_split(x) for x in _P10.tolist()]).T.copy()
_P10I = np.array([10 ** k for k in range(19)], dtype=np.int64)
_FRACTION = np.int64((1 << 52) - 1)
_EXPONENT = np.int64(0x7FF << 52)
_HALF_ULP = np.int64(53 << 52)
#: the four ASCII digits of 0..9999, each as one uint32 in memory order
_DIGITS2 = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS2 = np.stack([_DIGITS2.repeat(10), np.tile(_DIGITS2, 10)], axis=1)  # "00".."99"
_DIGITS4 = np.concatenate([_DIGITS2.repeat(100, axis=0), np.tile(_DIGITS2, (100, 1))],
                          axis=1).view(np.uint32).ravel()
#: _KEEP[d] keeps the first d of the 17 digits in bytes 3..19 of a rendering
_KEEP = np.frombuffer(b"".join(b"\xff" * (3 + d) + bytes(17 - d) for d in range(18)),
                      np.uint32).reshape(18, 5)
#: cells formatted together: a constant bound on the kernel's temporaries
_CHUNK = 4096
#: a cell's layout group is its kind plus its decimal exponent + 6: integral,
#: positional real, scientific real with a point, one scientific digit
_INTEGRAL, _POSITIONAL, _SCIENTIFIC, _ONE_DIGIT, _FALLBACK = 0, 32, 64, 96, 127


def _shortest(mag: np.ndarray, exp10: np.ndarray):
    """repr's digits of each non-integral ``mag`` > 0 whose decimal exponent
    is ``exp10`` (a hint, -6 to 15): an int64 of 17 digits, the first
    ``digits`` of them repr's and the rest zeros; ``digits``; and where the
    arithmetic cannot decide.

    X = mag * 10**(16 - exp10) is held exactly as the int64 D nearest to it
    plus a float remainder, by Dekker's two-product (10**k is an exact
    float up to k = 22). A candidate of 17 - k digits is X rounded to a
    multiple of 10**k. It reads back as ``mag`` iff it is nearer to X than h,
    half an ulp of ``mag`` scaled as X is; the nearer of the two multiples
    is the one to try, and the shortest candidate within h is repr's.
    Undecided: a hint that is off (D outside 10**16..10**17), a power of two
    (its interval is not symmetric), a distance that rounds to h, two
    candidates as near, and a rounding up to 10**17.
    """
    scale = 16 - exp10
    s = _P10[scale]
    p = mag * s
    hi, lo = _split(mag)
    s_hi, s_lo = _P10_HI[scale], _P10_LO[scale]
    e = ((hi * s_hi - p) + hi * s_lo + lo * s_hi) + lo * s_lo  # p + e == mag * s exactly
    whole_e = np.rint(e)
    r = e - whole_e
    d17 = p.astype(np.int64)
    d17 += whole_e.astype(np.int64)
    bits = mag.view(np.int64)
    h = ((bits & _EXPONENT) - _HALF_ULP).view(np.float64)  # 2**(exponent - 53)
    h *= s
    undecided = (d17 < _P10I[16]) | (d17 >= _P10I[17]) | ((bits & _FRACTION) == 0)
    n, digits = d17.copy(), np.full(len(mag), 17, np.int64)
    d, rk, hk, rows = d17, r, h, slice(None)
    for k in range(1, 17):  # on the cells that took every shorter candidate
        q = d // _P10I[k]
        rem = d - q * _P10I[k]
        below = rem.astype(np.float64)
        below += rk  # X above the multiple below it, rounded once
        above = (_P10I[k] - rem).astype(np.float64)
        above -= rk
        near = np.minimum(below, above)
        ok = near < hk  # exactly: a distance that rounds to h is undecided
        edge = near == hk
        if k == 1:  # only a step of 10 can hold two candidates within h
            edge |= ok & (below == above)
        undecided[rows] |= edge
        q += (above < below).astype(np.int64)
        rows = np.flatnonzero(ok) if k == 1 else rows[ok]
        n[rows] = q[ok] * _P10I[k]
        digits[rows] = 17 - k
        if not rows.size:
            break
        d, rk, hk = d17[rows], r[rows], h[rows]
    undecided |= (digits == 17) & (np.abs(r) == 0.5)
    undecided |= n >= _P10I[17]
    return n, digits, undecided


def _frames(values: np.ndarray) -> np.ndarray:
    """The text of each value of the 1-D ``values`` as a row of a uint8
    matrix, padded with zero bytes, and a last column left free.

    Each text is :func:`_fmt`'s. An integral value below 1e16 is its
    integer. A real gets repr's shortest digits from :func:`_shortest`,
    laid out positionally from 1e-4 up and in scientific notation below,
    down to 1e-6. The cells are sorted by layout group (kind and decimal
    exponent), so that each group's digits are copied into place by slices.
    The cells the arithmetic cannot decide, and those outside its range,
    are formatted by :func:`_fmt`.
    """
    count = len(values)
    with np.errstate(all="ignore"):  # log10(0), and casts of cells out of range
        mag = np.abs(values)
        exp10 = np.log10(mag)
        exp10 = np.floor(exp10, out=exp10).astype(np.int64)
        whole = (values == np.trunc(values)) & (mag < 1e16)
        n = np.zeros(count, np.int64)
        digits = np.zeros(count, np.int64)
        fallback = np.zeros(count, bool)
        at = np.flatnonzero(whole)
        if at.size:
            ints = mag[at].astype(np.int64)
            e = np.minimum(np.maximum(exp10[at], 0), 15)  # the hint may be one off
            e += ints >= _P10I[e + 1]
            e -= (ints < _P10I[e]) & (e > 0)
            exp10[at], n[at], digits[at] = e, ints * _P10I[16 - e], e + 1
        reals = slice(None) if not at.size else np.flatnonzero(~whole)
        e = exp10[reals]
        if e.size:
            outside = (e < -6) | (e > 15)
            e = np.minimum(np.maximum(e, -6, out=e), 15, out=e)
            n[reals], digits[reals], undecided = _shortest(mag[reals], e)
            exp10[reals], fallback[reals] = e, undecided | outside
    key = exp10.astype(np.int8)  # the layout group, from the kinds' differences
    key += _POSITIONAL + 6
    key -= whole.view(np.int8) * np.int8(_POSITIONAL - _INTEGRAL)
    scientific = key < _POSITIONAL + 2
    scientific &= ~whole
    key += scientific.view(np.int8) * np.int8(_SCIENTIFIC - _POSITIONAL)
    scientific &= digits == 1
    key += scientific.view(np.int8) * np.int8(_ONE_DIGIT - _SCIENTIFIC)
    key[fallback] = _FALLBACK
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key.take(order), np.arange(_FALLBACK + 1))
    present = np.flatnonzero(bounds[1:] > bounds[:-1])

    # the digits of n, in sorted order: one, then four groups of four
    n = n.take(order)
    g0 = n // _P10I[16]
    n -= g0 * _P10I[16]
    top = n // _P10I[8]
    n -= top * _P10I[8]
    rendered = np.empty((count, 5), np.uint32)
    rendered[:, 0] = _DIGITS4.take(g0, mode="clip")
    for col, part in ((1, top), (3, n)):
        high = part // 10000
        rendered[:, col] = _DIGITS4.take(high, mode="clip")
        rendered[:, col + 1] = _DIGITS4.take(part - high * 10000, mode="clip")
    rendered &= _KEEP.take(digits.take(order), axis=0, mode="clip")
    rendered = rendered.view(np.uint8)[:, 3:]

    # one frame for all cells: sign, integer digits (units in column iw),
    # point and fraction digits, exponent, free column
    kinds, exps = present & ~31, (present & 31) - 6
    iw = max(1, int((exps + 1)[kinds < _SCIENTIFIC].max(initial=0)))
    fw = int(np.where(kinds == _POSITIONAL, 16 - exps,
                      np.where(kinds == _SCIENTIFIC, 16, 0)).max(initial=0))
    width = 1 + iw + (1 + fw if fw else 0) + 4 * bool((kinds >= _SCIENTIFIC).any())
    spilled = np.flatnonzero(fallback)
    texts = [_fmt(v).encode() for v in values[spilled].tolist()]
    width = max([width] + [len(text) for text in texts])
    out = np.zeros((count, width + 1), np.uint8)
    np.multiply(values.take(order) < 0, np.uint8(ord("-")), out=out[:, 0])
    for group in present.tolist():
        rows = slice(bounds[group], bounds[group + 1])
        kind, e = group & ~31, (group & 31) - 6
        frame, digit = out[rows], rendered[rows]
        if kind >= _SCIENTIFIC:
            frame[:, iw] = digit[:, 0]
            if kind == _SCIENTIFIC:
                frame[:, iw + 1] = ord(".")
                frame[:, iw + 2:iw + 18] = digit[:, 1:]
            frame[:, width - 4:width] = np.frombuffer(b"e-0%d" % -e, np.uint8)
        elif e >= 0:
            frame[:, iw - e:iw + 1] = digit[:, :e + 1]
            if kind == _POSITIONAL:
                frame[:, iw + 1] = ord(".")
                frame[:, iw + 2:iw + 18 - e] = digit[:, e + 1:]
        else:
            frame[:, iw:iw + 1 - e] = np.frombuffer(b"0." + b"0" * (-e - 1), np.uint8)
            frame[:, iw + 1 - e:iw + 18 - e] = digit
    inverse = np.empty(count, np.intp)
    inverse[order] = np.arange(count)
    out = out.view(f"V{width + 1}").ravel().take(inverse).view(np.uint8)
    out = out.reshape(count, width + 1)
    for row, text in zip(spilled.tolist(), texts):
        out[row] = 0
        out[row, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def _few_values(values: np.ndarray) -> np.ndarray | None:
    """The distinct values of ``values``, ascending, if there is at most one
    per 16 cells. Every 8th cell is looked at first: if they hold more
    than that many distinct values, so does the block, which is then not
    sorted whole."""
    if 16 * len(distinct_values(values.reshape(-1)[::8])) > values.size:
        return None
    distinct = distinct_values(values)
    return distinct if 16 * len(distinct) <= values.size else None


#: odd multipliers of the hash by which :func:`_indexer` looks cells up,
#: tried in turn
_MULTIPLIERS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
                         0xD6E8FEB86659FD93], dtype=np.uint64)


def _indexer(distinct: np.ndarray):
    """A function that gives each cell it is passed, each one a value of
    ``distinct`` (ascending, each value once), its index in ``distinct``.

    It looks a cell up in a table by a multiply-shift hash of its bits
    (-0.0 taken as 0.0), with the first multiplier that puts no two
    distinct values in one of the table's 4 * len(distinct)**2 or more
    slots: about 5 ns a cell, where a binary search of a few dozen values
    takes about 40. Where no multiplier does, or the table would pass
    2**16 slots, it searches ``distinct``.
    """
    bits = (4 * len(distinct) ** 2 - 1).bit_length()
    if bits <= 16:
        keys = (distinct + 0.0).view(np.uint64)
        shift = np.uint64(64 - bits)
        for m in _MULTIPLIERS:
            slots = (keys * m) >> shift
            if len(distinct_values(slots)) == len(slots):
                table = np.zeros(1 << bits, np.int16)
                table[slots] = np.arange(len(slots))
                return lambda cells: table.take(((cells + 0.0).view(np.uint64) * m) >> shift)
    return lambda cells: np.searchsorted(distinct, cells)


def ascii_rows(values: np.ndarray) -> bytes:
    """Body lines of an ESRI ASCII grid, one per row of ``values``, each
    ending in a newline, as ASCII bytes; reals carry full roundtrip
    precision. Each cell reads as :func:`_fmt` formats it.

    The cells are formatted by :func:`_frames` a whole number of rows and
    about :data:`_CHUNK` cells at a time, so the working set beyond the
    text is a constant. A block with at most one distinct value per 16
    cells, such as a mask or a land-cover fraction, formats each distinct
    value once and gathers every cell's frame from their texts
    (:func:`_indexer`), each left-aligned in a frame one byte wider than
    the longest; where all texts are as long, no padding is left to drop.
    """
    distinct = _few_values(values)
    padded = True
    if distinct is not None:
        texts = [row.tobytes().translate(None, b"\0") for row in _frames(distinct)]
        width = max(map(len, texts)) + 1
        padded = min(map(len, texts)) + 1 < width
        table = np.frombuffer(b"".join(text.ljust(width, b"\0") for text in texts), f"V{width}")
        index = _indexer(distinct)
    ncols = values.shape[1]
    step = max(1, _CHUNK // ncols) * ncols
    ends = np.full(step, ord(" "), np.uint8)
    ends[ncols - 1::ncols] = ord("\n")
    flat = values.reshape(-1)
    parts = []
    for start in range(0, flat.size, step):
        cells = flat[start:start + step]
        if distinct is None:
            frames = _frames(cells)
        else:
            frames = table.take(index(cells)).view(np.uint8)
            frames = frames.reshape(len(cells), -1)
        frames[:, -1] = ends[:len(cells)]
        text = frames.tobytes()
        parts.append(text.translate(None, b"\0") if padded else text)
    return b"".join(parts)


def write_ascii_grid(grid: Grid) -> str:
    """Render a grid as ESRI ASCII text; reals carry full roundtrip precision."""
    return ascii_header(grid.geometry, grid.nodata) + ascii_rows(grid.values).decode("ascii")


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


def load_grid(path, sink: Callable[[int, np.ndarray], None] | None = None) -> Grid | None:
    """The grid of an ESRI ASCII file, read whole, or given ``sink``, its
    rows handed to ``sink`` a block at a time (:func:`read_ascii_grid`).

    Raises:
        GridParseError: as :func:`read_ascii_grid`, or the file is not
            ASCII text; the message names the file.
    """
    with _naming(path), open(path, "r", encoding="ascii") as fh:
        return read_ascii_grid(fh, sink)


class GridReader(contextlib.AbstractContextManager):
    """The rows of an ESRI ASCII grid file, parsed a block at a time (a
    :class:`GridRows`); values and errors are those of :func:`load_grid`.

    The header is parsed when the reader is made, so that a geometry can
    be refused before any body line is read. ``rows`` parses the lines it
    has not read yet by the rule of :func:`read_ascii_grid` and holds the
    rows it returns: a call that starts and stops at or after the previous
    call's reuses the rows the two share; rows it skips are parsed, so that
    their faults are found, ``stop - start`` at a time, and dropped. Any
    other call rereads the body from its first line. Where the rule refuses
    a block, the whole file is parsed by :func:`load_grid`, which raises
    its error or gives the grid whose rows the reader then serves.
    """

    def __init__(self, path):
        self.path = path
        self._grid: Grid | None = None
        with contextlib.ExitStack() as closing, _naming(path):
            self._fh = closing.enter_context(open(path, "r", encoding="ascii"))
            geo, nodata = _read_header(self._fh)
            closing.pop_all()  # the header parsed: the file stays open for the rows
        self._body = self._fh.tell()
        self.geometry, self.nodata = geo, nodata
        self.ncols, self.nrows, self.xll, self.yll, self.cellsize = \
            geo.ncols, geo.nrows, geo.xll, geo.yll, geo.cellsize
        # rows _first:_next, those of the last call; the file is at row _next
        self._held = np.empty((0, self.ncols))
        self._first = self._next = 0

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._fh.close()

    def rows(self, start: int, stop: int) -> np.ndarray:
        if self._grid is None and (start < self._first or stop < self._next):
            self._fh.seek(self._body)
            self._held = np.empty((0, self.ncols))
            self._first = self._next = 0
        while self._grid is None and self._next < start:
            self.rows(self._next, self._next + max(stop - start, 1))
        if self._grid is None:
            with _naming(self.path):
                new = _parse_rows(self._fh, stop - self._next, self.ncols, self.nodata,
                                  last=stop == self.nrows)
            if new is not None:
                kept = self._held[start - self._first:]
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


class difference:
    """Per-cell ``a - b`` of two :class:`GridRows`, a ``GridRows`` on ``a``'s
    header; nodata in either input propagates. Each ``rows`` call
    differences those rows into a new array: no whole grid is held.

    Raises:
        GeometryMismatch: the two grids are not on the same geometry.
    """

    def __init__(self, a: GridRows, b: GridRows):
        if not a.geometry.matches(b.geometry):
            raise GeometryMismatch(f"cannot difference grids on {a.geometry} vs {b.geometry}")
        self._a, self._b, self.geometry, self.nodata = a, b, a.geometry, a.nodata
        self.ncols, self.nrows, self.xll, self.yll, self.cellsize = \
            a.ncols, a.nrows, a.xll, a.yll, a.cellsize

    def rows(self, start: int, stop: int) -> np.ndarray:
        a, b = self._a.rows(start, stop), self._b.rows(start, stop)
        block = np.where((a != self.nodata) & (b != self._b.nodata), a - b, self.nodata)
        check_values(block, self.nodata, start)
        return block
