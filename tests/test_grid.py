import hashlib
import io
import math
import struct
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from demcorrect import (
    GeometryMismatch,
    Grid,
    GridGeometry,
    GridParseError,
    GridReader,
    difference,
    read_ascii_grid,
    write_ascii_grid,
)
import demcorrect.cli as cli
import demcorrect.grid as grid_module
from demcorrect.grid import _fmt, _parse_tokens, ascii_rows, parse_ascii_header
from demcorrect.synth import ErrorSpec, fractal_dem, inject_error, synth_landcover
from demcorrect.terrain import build_feature_stack
from conftest import NODATA, make_grid

SIMPLE = "\n".join([
    "ncols 2",
    "nrows 2",
    "xllcorner 0",
    "yllcorner 0",
    "cellsize 1",
    "NODATA_value -9999",
    "1 2",
    "3 4",
]) + "\n"


class TestParse:
    def test_hand_written_fixture(self):
        g = read_ascii_grid(SIMPLE)
        assert (g.ncols, g.nrows) == (2, 2)
        assert (g.xll, g.yll, g.cellsize, g.nodata) == (0.0, 0.0, 1.0, -9999.0)
        assert np.array_equal(g.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_case_insensitive_keywords_and_wrapped_body(self):
        text = SIMPLE.replace("ncols", "NCOLS").replace("NODATA_value", "nodata_VALUE")
        text = text.replace("1 2\n3 4\n", "1\n2 3\n4\n")
        g = read_ascii_grid(text)
        assert np.array_equal(g.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_value_count_mismatch_names_line(self):
        with pytest.raises(GridParseError, match="line 8"):
            read_ascii_grid(SIMPLE.replace("3 4", "3"))

    def test_too_many_values(self):
        with pytest.raises(GridParseError, match="too many"):
            read_ascii_grid(SIMPLE.replace("3 4", "3 4 5"))

    def test_bad_keyword_names_line(self):
        with pytest.raises(GridParseError, match="line 3.*xllcorner"):
            read_ascii_grid(SIMPLE.replace("xllcorner", "xllcenter"))

    def test_non_numeric_token_names_line(self):
        with pytest.raises(GridParseError, match="line 7.*'x'"):
            read_ascii_grid(SIMPLE.replace("1 2", "x 2"))

    def test_non_numeric_header_value(self):
        with pytest.raises(GridParseError, match="line 5"):
            read_ascii_grid(SIMPLE.replace("cellsize 1", "cellsize one"))

    def test_missing_header_line(self):
        with pytest.raises(GridParseError, match="line 4"):
            read_ascii_grid("ncols 1\nnrows 1\nxllcorner 0\n")

    def test_nan_body_token_rejected(self):
        with pytest.raises(GridParseError, match="line 7"):
            read_ascii_grid(SIMPLE.replace("1 2", "nan 2"))

    def test_reads_from_stream(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(SIMPLE)
        with open(p) as fh:
            g = read_ascii_grid(fh)
        assert g.values[1, 1] == 4.0


class TestWrite:
    def test_layout(self):
        g = make_grid([[1, 2], [3, 4]])
        text = write_ascii_grid(g)
        lines = text.splitlines()
        assert len(lines) == 8
        assert lines[6] == "1 2"
        assert lines[7] == "3 4"

    def test_nodata_cells_render_sentinel(self):
        g = make_grid([[1, NODATA]])
        assert "-9999" in write_ascii_grid(g).splitlines()[6]

    def test_roundtrip_simple(self):
        g1 = read_ascii_grid(SIMPLE)
        g2 = read_ascii_grid(write_ascii_grid(g1))
        assert np.array_equal(g1.values, g2.values)
        assert g1.geometry.matches(g2.geometry)

    def test_roundtrip_random_floats_bit_exact(self, rng):
        vals = rng.normal(scale=123.456, size=(9, 7))
        vals[rng.random((9, 7)) < 0.2] = NODATA
        g1 = make_grid(vals, cellsize=30.0, xll=-1.25, yll=7.875)
        g2 = read_ascii_grid(write_ascii_grid(g1))
        assert np.array_equal(g1.values, g2.values)
        assert (g2.xll, g2.yll, g2.cellsize) == (g1.xll, g1.yll, g1.cellsize)


class TestGridInvariants:
    def test_value_count_enforced(self):
        with pytest.raises(ValueError, match="ncols\\*nrows"):
            Grid(2, 2, 0, 0, 1.0, NODATA, [1, 2, 3])

    def test_cellsize_positive(self):
        with pytest.raises(ValueError, match="cellsize"):
            Grid(1, 1, 0, 0, 0.0, NODATA, [1])

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Grid(1, 1, 0, 0, 1.0, NODATA, [np.nan])

    def test_nodata_must_be_finite(self):
        with pytest.raises(ValueError, match="sentinel"):
            Grid(1, 1, 0, 0, 1.0, np.inf, [1])

    def test_values_read_only(self):
        g = make_grid([[1.0]])
        with pytest.raises(ValueError):
            g.values[0, 0] = 2.0

    def test_geometry_tolerance(self):
        a = GridGeometry(2, 2, 100.0, 50.0, 30.0)
        assert a.matches(GridGeometry(2, 2, 100.0 * (1 + 1e-12), 50.0, 30.0))
        assert not a.matches(GridGeometry(2, 2, 100.1, 50.0, 30.0))
        assert not a.matches(GridGeometry(3, 2, 100.0, 50.0, 30.0))


class TestDifference:
    def test_self_difference_zero(self):
        g = make_grid([[5, 7], [1, 2]])
        assert np.array_equal(difference(g, g).rows(0, 2), np.zeros((2, 2)))

    def test_arithmetic(self):
        a = make_grid([[105.0]])
        b = make_grid([[100.0]])
        assert difference(a, b).rows(0, 1)[0, 0] == 5.0

    def test_nodata_propagates(self):
        a = make_grid([[NODATA, 3]])
        b = make_grid([[1, NODATA]])
        d = difference(a, b).rows(0, 1)
        assert d[0, 0] == NODATA and d[0, 1] == NODATA

    def test_geometry_mismatch(self):
        a = make_grid([[1]])
        b = make_grid([[1]], xll=10.0)
        with pytest.raises(GeometryMismatch):
            difference(a, b)

    def test_difference_plus_b_reconstructs_a(self, rng):
        # same-scale surfaces (a within 2x of b), where the subtraction is
        # exact and reconstruction is bit-for-bit
        bv = 300.0 + rng.normal(size=(6, 6)) * 20
        av = bv + rng.normal(size=(6, 6)) * 5
        a, b = make_grid(av), make_grid(bv)
        d = difference(a, b).rows(0, 6)
        assert np.array_equal(d + b.values, a.values)


class TestRoundtripProperty:
    def test_write_read_identity_many_seeds(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            shape = rng.integers(1, 9, 2)
            vals = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=shape)
            g = make_grid(vals, cellsize=float(rng.uniform(0.1, 100)))
            g2 = read_ascii_grid(write_ascii_grid(g))
            assert np.array_equal(g.values, g2.values)
            assert g.geometry.matches(g2.geometry)


#: cells where the ASCII formatting changes branch: the sentinel, signed
#: zeros, the 1e16 cut-off for bare integers and its neighbour below,
#: subnormals, the smallest normal, and reals printed in e-notation
SPECIALS = [-9999.0, -0.0, 0.0, 1e16, -1e16, 9999999999999998.0, -9999999999999998.0,
            5e-324, -5e-324, 2.2250738585072014e-308, 1e22, 1e-05, 0.1, 3.0, -42.0,
            123456789.0, 1.5]


def golden_grid() -> Grid:
    rng = np.random.default_rng(2024)
    vals = rng.normal(scale=250.0, size=(23, 19))
    vals[:, 3] = np.round(vals[:, 3])
    vals[rng.random(vals.shape) < 0.1] = NODATA
    flat = vals.reshape(-1)
    flat[:len(SPECIALS)] = SPECIALS
    flat[-len(SPECIALS):] = SPECIALS[::-1]
    vals[5] = np.round(vals[5])          # an all-integral row
    vals[5, :3] = (-0.0, NODATA, 9999999999999998.0)
    return Grid(19, 23, -1234.5, 0.125, 30.0, NODATA, vals)


class TestWriterGolden:
    def test_golden_digest(self):
        # pinned from the per-cell formatter that preceded the row-wise writer
        text = write_ascii_grid(golden_grid())
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == \
            "4554cc11514d2cba6de88608ed2085f8c51edc41836eaf019997b6175c48c7b1"

    def test_branch_cells_render(self):
        row = write_ascii_grid(golden_grid()).splitlines()[6].split()
        assert row[:11] == ["-9999", "0", "0", "1e+16", "-1e+16", "9999999999999998",
                            "-9999999999999998", "5e-324", "-5e-324",
                            "2.2250738585072014e-308", "1e+22"]


#: cells the writer spells in ways of its own: nodata, signed zeros,
#: integral values on both sides of 1e16, and reals
_CELLS = (st.sampled_from([NODATA, 0.0, -0.0, 1.0, -3.0, 1e16, -1e16, 9999999999999998.0,
                           0.5, -2.25, 5e-324, 1e22])
          | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def low_cardinality_blocks(draw):
    """A row block whose cells take a few values, in one row, one column or
    a rectangle; with at most one distinct value per 16 cells the writer
    formats each value once."""
    shape = draw(st.tuples(st.just(1), st.integers(1, 120))
                 | st.tuples(st.integers(1, 120), st.just(1))
                 | st.tuples(st.integers(1, 24), st.integers(1, 24)))
    pool = draw(st.lists(_CELLS, min_size=1, max_size=6))
    return draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(pool)))


def _each_cell_alone(values: np.ndarray) -> bytes:
    """The oracle of ``ascii_rows``: each cell formatted by ``_fmt`` alone,
    the cells of a row joined by spaces, each row ended by a newline."""
    return "".join(" ".join(_fmt(v) for v in row) + "\n" for row in values.tolist()).encode()


@settings(max_examples=300, deadline=None)
@given(low_cardinality_blocks())
def test_rows_are_each_cell_formatted_alone(values):
    """``ascii_rows`` writes what formatting each cell by itself gives."""
    assert ascii_rows(values) == _each_cell_alone(values)


@pytest.mark.parametrize("multipliers", ["hash", "search"])
@settings(max_examples=150, deadline=None)
@given(st.lists(_CELLS, min_size=1, max_size=200), st.data())
def test_indexer_finds_each_cell(multipliers, pool, data):
    """``_indexer`` gives each cell its index in the distinct values, as a
    binary search does (-0.0 and 0.0 alike): by its hash table when one of
    the multipliers separates the values, else by the search, which a zero
    multiplier forces."""
    distinct = grid_module.distinct_values(np.array(pool))
    cells = data.draw(hnp.arrays(np.float64, st.integers(1, 300), elements=st.sampled_from(pool)))
    zero = np.zeros(1, np.uint64)
    with mock.patch.object(grid_module, "_MULTIPLIERS",
                           zero if multipliers == "search" else grid_module._MULTIPLIERS):
        index = grid_module._indexer(distinct)
    assert index(cells).tolist() == np.searchsorted(distinct, cells).tolist()


def _finite(bits: int) -> float:
    """The float64 of a 64-bit pattern, made finite by clearing the top
    exponent bit of an infinity or a NaN."""
    if (bits >> 52) & 0x7FF == 0x7FF:
        bits ^= 1 << 62
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: cells of every kind for the kernel: any finite bit pattern (most lie
#: outside its range), one with a binary exponent in or near that range
#: (2**-24 to 2**54), and a short decimal of 1 to 18 digits
_KERNEL_CELLS = st.one_of(
    st.integers(0, 2**64 - 1).map(_finite),
    st.builds(lambda sign, exponent, fraction: _finite(sign << 63 | exponent << 52 | fraction),
              st.integers(0, 1), st.integers(1023 - 24, 1023 + 54), st.integers(0, 2**52 - 1)),
    st.builds(lambda digits, shift: digits / 10**shift,
              st.integers(-10**18, 10**18), st.integers(0, 24)),
    _CELLS,
)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 40)),
                  elements=_KERNEL_CELLS, unique=True))
def test_kernel_cells_are_each_formatted_alone(values):
    """A block of distinct cells goes through the arithmetic kernel, which
    must write what formatting each cell by itself gives, in any layout of
    rows."""
    assert ascii_rows(values) == _each_cell_alone(values)


def _around(x: float, ulps: int = 2) -> list[float]:
    """``x`` and its ``ulps`` nearest floats on either side."""
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(ulps):
            y = float(np.nextafter(y, toward))
            out.append(y)
    return out


#: cells at the edges of the kernel's arithmetic: powers of two (their
#: rounding interval is lopsided), 2**53 and its neighbours, both sides of
#: the ranges' ends (1e-6, 1e-4, 1e16) and of the powers of ten between,
#: decimals that round up to the next power of ten, 16-digit decimals
#: beyond 2**53, values of 1 to 17 digits, signed zeros, subnormals and
#: the sentinels of ``grids``
_KERNEL_EDGES = sorted({
    *(2.0**k for k in range(-26, 60)),
    float(2**53 - 1), float(2**53), float(2**53 + 2), 2.0**53 + 0.5, 2.0**52 + 0.5,
    *(x for power in range(-7, 18) for x in _around(10.0**power)),
    *_around(1e-4, 8), *_around(1e-6, 8), *_around(1e16, 8),
    9.9999999999999995, 9.999999999999998, 0.99999999999999995, 0.9999999999999999,
    99.99999999999999, 999999999999999.9, 9.999999999999999e-05, 9.99999999999999e-07,
    0.9750356939584321, 0.1 + 0.2, 1 / 3, 2 / 3, 0.3, 5e-05, 1.5e-06,
    *(float("1.2345678901234567"[:2 + digits]) for digits in range(17)),
    *(float(f"0.{'0' * zeros}12345678901234567") for zeros in range(6)),
    0.0, 5e-324, 1e-320, 2.2250738585072014e-308, float(np.nextafter(2.2250738585072014e-308, 0)),
    -9999.0, -3.4028234663852886e+38, 1e16, 123456789012.5, 0.5, 0.25, 0.125,
})


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_kernel_edges_are_each_formatted_alone(sign):
    """Each edge cell, in a row of them and alone, reads as ``_fmt`` gives it."""
    row = sign * np.array([_KERNEL_EDGES])
    assert ascii_rows(row) == _each_cell_alone(row)
    for cell in row.reshape(-1, 1, 1):
        assert ascii_rows(cell) == _each_cell_alone(cell), cell


def test_fallback_is_rare(monkeypatch):
    """Of the eleven feature layers of a 129² fractal DEM, and of the
    degraded DEM and true error its default error spec injects, at most 1%
    of the cells are left to ``_fmt``, the fallback for the cells the
    kernel's arithmetic cannot decide."""
    dem = fractal_dem(7, seed=7)
    land = synth_landcover(dem, seed=11)
    stack = build_feature_stack(dem, land.bare, land.urban, land.forest)
    spec = ErrorSpec.from_doc(cli.DEFAULT_CONFIG["bench"]["error_spec"])
    injected = inject_error(dem, stack, spec, cli.DEFAULT_CONFIG["bench"]["noise_fraction"])
    spilled = []
    monkeypatch.setattr(grid_module, "_fmt", lambda v: spilled.append(v) or _fmt(v))
    for grid in (*stack.layers, injected.degraded, injected.true_dh):
        spilled.clear()
        assert ascii_rows(grid.values) == _each_cell_alone(grid.values)
        assert len(spilled) <= 0.01 * grid.values.size, len(spilled)


class TestHeader:
    def test_parse_header_lines(self):
        geo, nodata = parse_ascii_header(SIMPLE.splitlines(keepends=True)[:6])
        assert geo == GridGeometry(2, 2, 0.0, 0.0, 1.0)
        assert nodata == -9999.0

    def test_short_header_names_line(self):
        with pytest.raises(GridParseError, match="line 3"):
            parse_ascii_header(SIMPLE.splitlines()[:2])

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_nodata_names_line_6(self, token):
        lines = SIMPLE.replace("-9999", token).splitlines()[:6]
        with pytest.raises(GridParseError, match="line 6: NODATA_value must be finite"):
            parse_ascii_header(lines)


_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIALS + [np.nextafter(1e16, 0.0), np.nextafter(1e16, 2e16),
                                np.nextafter(-1e16, 0.0)]),
    st.integers(-10**17, 10**17).map(float),
)


@st.composite
def grids(draw):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    nodata = draw(st.sampled_from([NODATA, -3.4028234663852886e+38, 0.0, 1e16]))
    cells = draw(st.lists(st.one_of(_CELLS, st.just(nodata)),
                          min_size=nrows * ncols, max_size=nrows * ncols))
    reals = st.floats(-1e7, 1e7, allow_nan=False)
    cellsize = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return Grid(ncols, nrows, draw(reals), draw(reals), cellsize, nodata,
                np.array(cells).reshape(nrows, ncols))


class TestRoundtripHypothesis:
    @settings(max_examples=200, deadline=None)
    @given(grids())
    def test_write_read_bit_identical(self, g):
        back = read_ascii_grid(write_ascii_grid(g))
        # -0.0 prints as "0", so the parse gives +0.0; every other cell keeps its bits
        assert back.values.tobytes() == (g.values + 0.0).tobytes()
        assert (back.ncols, back.nrows, back.nodata) == (g.ncols, g.nrows, g.nodata)
        assert (back.xll, back.yll, back.cellsize) == (g.xll, g.yll, g.cellsize)
        assert write_ascii_grid(back) == write_ascii_grid(g)


#: body tokens where float() and numpy's reader might part ways: signs,
#: bare leading/trailing points, overflow, the non-finite spellings, and
#: spellings only float() accepts or neither does
_TOKENS = st.one_of(
    st.sampled_from(["1", "-2", "+3", ".5", "5.", "-.5", "+5.", "0", "-0", "1e400", "-1e400",
                     "nan", "inf", "-inf", "NaN", "Infinity", "1_0", "#", "1#2", "１",
                     "x", "1e", "0x10"]),
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
)


@st.composite
def ascii_bodies(draw):
    """(text, expected, nodata) for a header plus a body of random layout."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    expected = nrows * ncols
    nodata = draw(st.sampled_from([NODATA, 0.0, 1e16]))
    nodata_token = st.sampled_from([repr(nodata), str(int(nodata))])
    count = draw(st.sampled_from([expected, expected, expected - 1, expected + 1, 0]))
    tokens = draw(st.lists(st.one_of(_TOKENS, nodata_token), min_size=count, max_size=count))
    if draw(st.booleans()):      # equal-width wrapping
        width = draw(st.integers(1, max(count, 1)))
        cuts = list(range(width, count, width))
    else:                        # ragged wrapping
        cuts = sorted(draw(st.sets(st.integers(1, max(count - 1, 1)), max_size=count)))
    lines = [tokens[a:b] for a, b in zip([0] + cuts, cuts + [count])]
    # breaks that end no line of a file, ASCII ones and, in text only, others
    seps = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]
                           + draw(st.sampled_from([[], ["\x85", "\u2028", "\u2029"]])))
    body = []
    for line in lines:
        if draw(st.booleans()):
            body.append(draw(st.sampled_from(["", "  ", "\t"])))
        text = ""
        for tok in line:
            text += tok + draw(seps)
        body.append(draw(st.sampled_from(["", " "])) + text)
    header = (f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
              f"NODATA_value {nodata!r}\n")
    return header + "\n".join(body), expected, nodata


def _outcome(parse):
    """Bytes of the parsed values, or the parse error's message."""
    try:
        return parse().tobytes()
    except GridParseError as exc:
        return str(exc)


def _read_by_blocks(path, height: int, halo: int) -> np.ndarray:
    """Every row of the file at ``path`` through a :class:`GridReader`, in
    blocks of ``height`` rows, each asked for with ``halo`` rows above and
    below, as the feature build asks for its sub-grids."""
    with GridReader(path) as reader:
        h = reader.nrows
        blocks = []
        for r0 in range(0, h, height):
            r1 = min(r0 + height, h)
            s0 = max(r0 - halo, 0)
            rows = reader.rows(s0, min(r1 + halo, h))
            blocks.append(rows[r0 - s0:r1 - s0].copy())
        return np.concatenate(blocks)


class TestBulkReader:
    @settings(max_examples=400, deadline=None)
    @given(ascii_bodies(), st.integers(1, 4), st.integers(0, 2))
    def test_matches_token_reference(self, case, height, halo):
        """The text parse, and the row-block reader over the text in a file,
        against the token loop: the same values, or the same error."""
        text, expected, nodata = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(lambda: read_ascii_grid(text).values)
        lines = io.StringIO(text, newline=None).readlines()[6:]
        assert got == _outcome(lambda: _parse_tokens(lines, expected, nodata))
        if not text.isascii():
            return
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            path = Path(tmp) / "g.asc"
            path.write_text(text, encoding="ascii", newline="")
            blocks = _outcome(lambda: _read_by_blocks(path, height, halo))
        assert blocks == (got if isinstance(got, bytes) else f"'{path}': {got}")

    @pytest.mark.parametrize("body", ["", "\n\n  \n"], ids=["empty", "blank-lines"])
    def test_body_without_values(self, body):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridParseError, match="expected 4 values, found 0"):
                read_ascii_grid(SIMPLE.replace("1 2\n3 4\n", body))

    @pytest.mark.parametrize("token, value", [("1_0", 10.0), ("１", 1.0)],
                             ids=["underscore", "full-width"])
    def test_spellings_only_float_takes(self, token, value):
        g = read_ascii_grid(SIMPLE.replace("1 2", f"{token} 2"))
        assert g.values.ravel().tolist() == [value, 2.0, 3.0, 4.0]

    def test_hash_is_not_a_comment(self):
        with pytest.raises(GridParseError, match="line 8: too many values"):
            read_ascii_grid(SIMPLE.replace("3 4", "3 4 # note"))

    @settings(max_examples=300, deadline=None)
    @given(ascii_bodies())
    def test_stream_matches_text(self, case):
        text = case[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(lambda: read_ascii_grid(io.StringIO(text)).values)
        assert got == _outcome(lambda: read_ascii_grid(text).values)

    @pytest.mark.parametrize("text", [
        SIMPLE.replace("cellsize 1", "cellsize\x0c1"),
        SIMPLE.replace("nrows 2\n", "nrows 2\x0b\n"),
        SIMPLE.replace("\n", "\r\n"),
        SIMPLE.replace("xllcorner 0\n", "\n"),
        "ncols 1\nnrows 1\nxllcorner 0\n",
        SIMPLE.replace("3 4", "3 x"),
        SIMPLE.replace("3 4", "3 4 5"),
        SIMPLE,
    ], ids=["form-feed", "vertical-tab", "crlf", "blank-header-line", "short-header",
            "bad-token", "extra-value", "plain"])
    def test_stream_edge_cases_match_text(self, text):
        """Header lines with a break inside, and bad bodies, read from a
        stream, seekable or not, as from the text, errors and all."""
        class Pipe(io.StringIO):
            def seekable(self):
                return False

        want = _outcome(lambda: read_ascii_grid(text).values)
        for stream in (io.StringIO(text, newline=""), Pipe(text, newline="")):
            assert _outcome(lambda: read_ascii_grid(stream).values) == want

    def test_stream_is_read_by_line(self, tmp_path):
        """No read() of the whole text; a bad line found late still gets its number."""
        class LinesOnly(io.StringIO):
            def read(self, *args):
                raise AssertionError("stream read whole")

        assert read_ascii_grid(LinesOnly(SIMPLE)).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        p = tmp_path / "late.asc"
        p.write_text(SIMPLE + "5 6\n" * 1000 + "7 y\n")
        with pytest.raises(GridParseError, match="line 9: too many values"):
            grid_module.load_grid(p)
        p.write_text(SIMPLE.replace("ncols 2\nnrows 2", "ncols 2\nnrows 1002")
                     + "5 6\n" * 999 + "7 y\n")
        with pytest.raises(GridParseError, match="line 1008: non-numeric token 'y'"):
            grid_module.load_grid(p)

    def test_reader_rereads_for_an_earlier_row(self, tmp_path):
        """The whole grid, then blocks from the top: the reader drops the
        rows it holds and reads the body again, a block at a time."""
        g = make_grid(np.arange(35.0).reshape(7, 5))
        path = tmp_path / "g.asc"
        grid_module.save_grid(g, path)
        with GridReader(path) as reader:
            assert (reader.geometry, reader.nodata) == (g.geometry, g.nodata)
            assert reader.rows(0, 7).tobytes() == g.values.tobytes()
            for start, stop in ((0, 3), (1, 5), (5, 7), (2, 4), (4, 4), (6, 7)):
                assert reader.rows(start, stop).tobytes() == g.values[start:stop].tobytes()
            assert reader._grid is None  # never parsed whole by load_grid

    def test_reader_parses_skipped_rows_a_block_at_a_time(self, tmp_path, monkeypatch):
        """Rows between two calls are parsed, no more of them at once than
        the later call asks for, and not held; a fault among them is
        refused, naming its line."""
        g = make_grid(np.arange(60.0).reshape(12, 5))
        path = tmp_path / "g.asc"
        grid_module.save_grid(g, path)
        counts = []
        real = grid_module._parse_rows
        monkeypatch.setattr(grid_module, "_parse_rows", lambda lines, count, *args, **kwargs:
                            counts.append(count) or real(lines, count, *args, **kwargs))
        with GridReader(path) as reader:
            for start, stop in ((0, 2), (7, 9), (11, 12)):
                assert reader.rows(start, stop).tobytes() == g.values[start:stop].tobytes()
                assert len(reader._held) == stop - start
        assert max(counts) == 2 and sum(counts) == 12
        lines = path.read_text().splitlines(keepends=True)
        lines[10] = lines[10].replace(" ", " x ", 1)  # body row 4
        path.write_text("".join(lines))
        with GridReader(path) as reader, \
                pytest.raises(GridParseError, match="line 11: non-numeric token 'x'"):
            reader.rows(0, 2)
            reader.rows(7, 9)

    @pytest.mark.parametrize("body, message", [
        ("1 2\n3 4\n", None),
        ("1 2 3\n4\n", None),
        ("1 2\n\n3 4\n", None),
        ("1 2\n3 4\n\n \n", None),
        ("1 2\n3 x\n", "line 8: non-numeric token 'x'"),
        ("1 2\n3\n", "line 8: expected 4 values, found 3"),
        ("1 2\n3 4\n5\n", "line 9: too many values (expected 4)"),
        ("1 2\n3 nan\n", "line 8: non-finite value 'nan'"),
    ], ids=["rows", "wrapped", "blank-line", "blank-tail", "bad-token", "short", "long",
            "nan"])
    def test_reader_fallback(self, tmp_path, monkeypatch, body, message):
        """Lines that are not one grid row each leave the file to load_grid,
        which returns the grid or raises its error, naming the file."""
        path = tmp_path / "g.asc"
        path.write_text(SIMPLE.replace("1 2\n3 4\n", body))
        whole = []
        real = grid_module.load_grid
        monkeypatch.setattr(grid_module, "load_grid", lambda p: whole.append(p) or real(p))
        if message is None:
            assert _read_by_blocks(path, 1, 0).tolist() == [[1.0, 2.0], [3.0, 4.0]]
            # only lines that are not one row each leave the file to load_grid
            assert whole == ([path] if body in ("1 2 3\n4\n", "1 2\n\n3 4\n") else [])
        else:
            with pytest.raises(GridParseError) as err:
                _read_by_blocks(path, 1, 0)
            assert str(err.value) == f"'{path}': {message}"

    def test_reader_refuses_a_header_before_the_body(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(SIMPLE.replace("cellsize 1", "cellsize -1") + "x" * 100 + "\n")
        with pytest.raises(GridParseError, match=f"^'{path}': line 5: cellsize must be"):
            GridReader(path)

    def test_not_ascii_names_the_file(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_bytes(SIMPLE.replace("3 4", "3 \xe9").encode("latin-1"))
        for read in (grid_module.load_grid, lambda p: _read_by_blocks(p, 1, 0)):
            with pytest.raises(GridParseError) as err:
                read(path)
            assert str(err.value) == f"'{path}': not ASCII text (byte 0xe9)"

    def test_writer_output_takes_the_bulk_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("token loop used on writer output")

        monkeypatch.setattr(grid_module, "_parse_tokens", refuse)
        g = golden_grid()
        back = read_ascii_grid(write_ascii_grid(g))
        assert back.values.tobytes() == (g.values + 0.0).tobytes()
        one = make_grid([[2.5]])
        assert read_ascii_grid(write_ascii_grid(one)).values.tolist() == [[2.5]]


def _takes_token_loop(text: str, height: int = 1, halo: int = 0) -> tuple[bool, bool]:
    """Whether ``read_ascii_grid(text)`` reaches ``_parse_tokens``, and
    whether the row-block reader over the text in a file falls back to
    ``load_grid``; either may end in a parse error."""
    tokens, whole = [], []
    parse_tokens, load_grid = grid_module._parse_tokens, grid_module.load_grid
    with mock.patch.object(grid_module, "_parse_tokens",
                           lambda *args: tokens.append(1) or parse_tokens(*args)):
        _outcome(lambda: read_ascii_grid(text).values)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(grid_module, "load_grid", lambda p: whole.append(p) or load_grid(p)):
        path = Path(tmp) / "g.asc"
        path.write_text(text, encoding="ascii", newline="")
        _outcome(lambda: _read_by_blocks(path, height, halo))
    return bool(tokens), bool(whole)


class TestOneParseRule:
    """Whole grids and row blocks take numpy's C reader for the same bodies."""

    @settings(max_examples=400, deadline=None)
    @given(ascii_bodies().filter(lambda case: case[0].isascii()), st.integers(1, 4),
           st.integers(0, 2))
    def test_text_and_blocks_agree(self, case, height, halo):
        text_loop, block_loop = _takes_token_loop(case[0], height, halo)
        assert text_loop == block_loop

    @settings(max_examples=300, deadline=None)
    @given(ascii_bodies(), st.integers(1, 4))
    def test_sink_gets_the_rows_of_the_whole_parse(self, case, height):
        """Handed to a sink ``height`` rows at a time, top to bottom, a
        file's rows are those of its whole parse, or its refusal."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.asc"
            path.write_bytes(case[0].encode(errors="surrogatepass"))
            blocks = []

            def sink(first, rows):
                assert first == sum(map(len, blocks)) and 0 < len(rows)
                blocks.append(rows.copy())

            with mock.patch.object(grid_module, "_SINK_ROWS", height):
                got = _outcome(lambda: grid_module.load_grid(path, sink)
                               or np.concatenate(blocks))
            assert got == _outcome(lambda: grid_module.load_grid(path).values)

    def test_sink_gets_the_rest_from_the_token_loop(self, tmp_path, monkeypatch):
        """Blocks that the C reader takes go to the sink as they are parsed;
        from the first it refuses (a wrapped row), the rest go at once."""
        path = tmp_path / "g.asc"
        path.write_text(SIMPLE.replace("nrows 2", "nrows 4")
                        .replace("1 2\n3 4\n", "1 2\n3 4\n5\n6\n7 8\n"))
        got = []
        monkeypatch.setattr(grid_module, "_SINK_ROWS", 1)
        grid_module.load_grid(path, lambda first, rows: got.append((first, rows.tolist())))
        assert got == [(0, [[1, 2]]), (1, [[3, 4]]), (2, [[5, 6], [7, 8]])]

    @pytest.mark.parametrize("body, loop", [
        ("1 2 3 4\n5 6 7 8\n", False),
        ("1 2\n3 4\n5 6\n7 8\n", True),
        ("1 2 3\n4 5 6\n7 8\n", True),
        ("1 2 3 4\n5 6\x0c7 8\n", False),
    ], ids=["rows", "uniform-wrap", "ragged-wrap", "form-feed"])
    def test_wrapped_bodies(self, body, loop):
        text = SIMPLE.replace("ncols 2", "ncols 4").replace("1 2\n3 4\n", body)
        assert read_ascii_grid(text).values.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]]
        assert _takes_token_loop(text) == (loop, loop)


#: texts where a file's lines and ``str.splitlines`` part ways: a fault
#: after a break inside a line gets the file's line number, a header line
#: may hold such a break, and header lines that only such a break
#: separates are one line; None for the grid of SIMPLE
_BREAKS = {
    "body-line-number": (SIMPLE.replace("1 2\n3 4", "1 2\x0b3 x"),
                         "line 7: non-numeric token 'x'"),
    "header-value": (SIMPLE.replace("cellsize 1", "cellsize\x0c1"), None),
    "header-line-end": (SIMPLE.replace("ncols 2\nnrows 2", "ncols 2\x0cnrows 2"),
                        "line 1: expected '<keyword> <value>', got 'ncols 2\\x0cnrows 2'"),
}


@pytest.mark.parametrize("case", list(_BREAKS))
@pytest.mark.parametrize("how", ["text", "stream", "load_grid", "GridReader"])
def test_lines_end_only_at_line_ends(tmp_path, how, case):
    """Every path ends lines at \\n, \\r\\n and \\r only, as a file read in
    text mode does; other breaks inside a line separate values."""
    text, message = _BREAKS[case]
    path = tmp_path / "g.asc"
    path.write_text(text, encoding="ascii", newline="")
    read = {
        "text": lambda: read_ascii_grid(text).values,
        "stream": lambda: read_ascii_grid(io.StringIO(text)).values,
        "load_grid": lambda: grid_module.load_grid(path).values,
        "GridReader": lambda: _read_by_blocks(path, 1, 0),
    }[how]
    if message is None:
        want = read_ascii_grid(SIMPLE).values.tobytes()
    else:
        want = message if how in ("text", "stream") else f"'{path}': {message}"
    assert _outcome(read) == want
