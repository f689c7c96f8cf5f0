"""The binary copies of the feature layers and of the step commands' input
grids (``out/grids/v1``).

A grid read through ``store.read_grid`` must have the bits of a parse of
its ASCII file, whether its copy is missing, present, damaged or stale,
and every step output must be what a run without copies writes.
"""

import json
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demcorrect.cli as cli
import demcorrect.store as store
from demcorrect import (
    FeatureStack,
    Grid,
    GridParseError,
    fractal_dem,
    load_grid,
    save_grid,
    synth_landcover,
    write_ascii_grid,
)
from demcorrect.linstats import LinearModel
from conftest import NODATA, make_grid, random_stacks
from test_grid import ascii_bodies, grids

STEPS = ("features", "diagnose", "train", "correct", "evaluate")


def by_blocks(rows, height: int, halo: int) -> np.ndarray:
    """Every row of ``rows`` (a ``GridRows``), in blocks of ``height`` rows,
    each asked for with ``halo`` rows above and below, as the feature build
    asks for its sub-grids."""
    h = rows.nrows
    blocks = []
    for r0 in range(0, h, height):
        r1 = min(r0 + height, h)
        s0 = max(r0 - halo, 0)
        blocks.append(rows.rows(s0, min(r1 + halo, h))[r0 - s0:r1 - s0].copy())
    return np.concatenate(blocks)


def outcome(read):
    """(header, bits of the values) of what ``read`` returns, or the parse
    error's message."""
    try:
        grid, values = read()
    except GridParseError as exc:
        return str(exc)
    return (grid.geometry, grid.nodata), values.tobytes()


def kept(path, out, height, halo):
    """The blocks of a step's read of ``path``, from the copy that it finds
    or keeps."""
    rows = store.read_grid(path, out)
    assert isinstance(rows, store.Slab)
    return rows, by_blocks(rows, height, halo)


@settings(max_examples=300, deadline=None)
@given(st.one_of(grids().map(write_ascii_grid), ascii_bodies().map(lambda case: case[0])),
       st.integers(1, 4), st.integers(0, 2))
def test_copies_give_the_bits_of_the_parse(text, height, halo):
    """In blocks, a read that parses a file into a copy, and a read of the
    copy that it wrote, which parses nothing, give what ``load_grid``
    gives: the same header and bits (-0.0 included), or the same refusal.
    A refused file gets no copy."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "grid.asc", Path(tmp) / "out"
        path.write_bytes(text.encode(errors="surrogatepass"))
        want = outcome(lambda: (g := load_grid(path), g.values))
        assert outcome(lambda: kept(path, out, height, halo)) == want
        copies = sorted(p.suffix for p in out.glob("grids/v1/*"))
        if isinstance(want, str):
            assert copies == []
            return
        assert copies == [".npy", ".sha256"]
        with mock.patch.object(store, "load_grid", side_effect=AssertionError("parsed again")):
            assert outcome(lambda: kept(path, out, height, halo)) == want


def test_file_changed_while_parsed_into_a_copy_is_refused(tmp_path, monkeypatch):
    """A file whose bytes change while the read that keeps a copy parses
    it is refused, naming it, and gets no copy; read again, it is parsed
    into a copy of its new bytes."""
    path, out = tmp_path / "grid.asc", tmp_path / "out"
    save_grid(fractal_dem(4, seed=1), path)
    real = store.load_grid

    def edited_meanwhile(where, sink):
        real(where, sink)
        path.write_bytes(path.read_bytes() + b"\n")

    monkeypatch.setattr(store, "load_grid", edited_meanwhile)
    with pytest.raises(GridParseError, match=f"^'{path}': changed while it was read$"):
        store.read_grid(path, out)
    assert not list(out.rglob("*.*"))
    monkeypatch.setattr(store, "load_grid", real)
    rows = store.read_grid(path, out)
    assert rows.rows(0, 17).tobytes() == load_grid(path).values.tobytes()
    assert sorted(p.name for p in out.rglob("*.*")) == \
        [f"{store.sha256_file(path)}.npy", f"{store.sha256_file(path)}.sha256"]


@st.composite
def written_grids(draw):
    """A grid as a step writes one: a layer of ``random_stacks`` (rounded
    values, -0.0 where they round to zero, holes) or a grid of any finite
    cells, -0.0 among them, under a sentinel of -9999, 0, -0.0 or 7 (a
    -0.0 sentinel is written as 0)."""
    grid = draw(st.one_of(random_stacks().map(lambda case: case[0].layers[0]), grids()))
    nodata = draw(st.sampled_from([NODATA, 0.0, -0.0, 7.0]))
    values = np.where(grid.values == grid.nodata, nodata, grid.values)
    return Grid(grid.ncols, grid.nrows, grid.xll, grid.yll, grid.cellsize, nodata, values)


class Refused(Exception):
    pass


@settings(max_examples=300, deadline=None)
@given(written_grids(), st.data())
def test_grid_writer_writes_what_save_grid_writes(grid, data):
    """A ``store.GridWriter`` fed a grid in blocks of any heights writes the
    bytes of ``save_grid`` of the whole grid, and gives their sha256. With
    ``copy``, the copy named by that sha256 holds the bits of ``load_grid``
    of the file (-0.0 read as 0.0), passes the store's checks, and its
    record holds its own sha256: so it may serve any file with those
    bytes, such as the DEM. An exception after any number of blocks, the
    last one's included, leaves no file at all."""
    cuts = sorted(data.draw(st.sets(st.integers(1, grid.nrows - 1)), "cuts")) \
        if grid.nrows > 1 else []
    bounds = list(zip([0] + cuts, cuts + [grid.nrows]))
    copy = data.draw(st.booleans(), "copy")
    refused_after = data.draw(st.none() | st.integers(0, len(bounds)), "refused after")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        path = out / "grid.asc"
        try:
            with store.PartialFiles() as files:
                writer = store.GridWriter(files, path, grid.geometry, grid.nodata, copy=copy)
                for k, (start, stop) in enumerate(bounds):
                    if k == refused_after:
                        raise Refused
                    writer.write(grid.values[start:stop])
                if refused_after == len(bounds):
                    raise Refused
        except Refused:
            assert not [p for p in out.rglob("*") if p.is_file()]
            return
        save_grid(grid, out / "whole.asc")
        assert path.read_bytes() == (out / "whole.asc").read_bytes()
        assert writer.sha256 == store.sha256_file(path)
        npy = out / store.COPIES / f"{writer.sha256}.npy"
        copies = [npy, npy.with_suffix(".sha256")] if copy else []
        assert sorted(p for p in out.rglob("*") if p.is_file()) == \
            sorted([path, out / "whole.asc", *copies])
        if copy:
            assert np.load(npy).tobytes() == load_grid(path).values.tobytes()
            assert store._npy_start(npy, (grid.nrows, grid.ncols)) is not None
            assert npy.with_suffix(".sha256").read_text() == store.sha256_file(npy) + "\n"


@pytest.mark.parametrize("nodata", [-9999.0, -0.0])
def test_corrected_dem_copy_holds_the_parse_of_its_file(tmp_path, nodata):
    """The copy that ``correct`` writes of a corrected DEM holds the bits of
    ``load_grid`` of that file, under a record of its own sha256: where the
    DEM holds -0.0, or a -0.0 sentinel, and the predicted error is 0.0, the
    corrected value -0.0 is written as 0, which parses to 0.0."""
    rng = np.random.default_rng(4)
    values = np.round(rng.normal(size=(9, 7)), 2)
    values[rng.random(values.shape) < 0.3] = -0.0
    dem = make_grid(np.where(rng.random(values.shape) < 0.2, nodata, values), nodata=nodata)
    assert (np.signbit(dem.values) & (dem.values == 0)).any()
    layer = make_grid(np.where(rng.random(values.shape) < 0.2, NODATA, values))
    model = LinearModel(("f0",), 0.0, [0.0], 0.0, 0.0)
    cli._correct_step({"mlr": (model, tmp_path / "model_mlr.json")},
                      FeatureStack(("f0",), (layer,)), dem, None, tmp_path)
    path = tmp_path / "corrected_mlr.asc"
    npy = tmp_path / store.COPIES / f"{store.sha256_file(path)}.npy"
    assert np.load(npy).tobytes() == load_grid(path).values.tobytes()
    assert npy.with_suffix(".sha256").read_text() == store.sha256_file(npy) + "\n"
    assert sorted(p.name for p in tmp_path.rglob("*.*")) == sorted(
        [f"{kind}_mlr.asc" for kind in ("corrected", "predicted_error")]
        + [npy.name, npy.with_suffix(".sha256").name])


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """Small inputs of the five steps, named by paths relative to the
    working directory so that two runs in two directories write the same
    provenance. Returns a function that makes them in a directory."""
    dem = fractal_dem(5, seed=3, roughness_decay=0.45)  # 33x33
    land = synth_landcover(dem, seed=5)
    rng = np.random.default_rng(8)
    rasters = {"reference": dem, "dem": dem.with_values(dem.values + rng.normal(size=(33, 33))),
               "bare": land.bare, "urban": land.urban, "forest": land.forest,
               "strata": land.strata}
    config = {"paths": {key: f"{key}.asc" for key in rasters},
              "windows": {"texture_radius": 3, "vrm_radius": 2, "landcover_radius": 2},
              "gbdt": {"n_trees": 3}}

    def make(name):
        where = tmp_path / name
        where.mkdir()
        for key, grid in rasters.items():
            save_grid(grid, where / f"{key}.asc")
        (where / "config.json").write_text(json.dumps(config))
        monkeypatch.chdir(where)
        return where

    return make


def run_step(step):
    assert cli.main([step, "--config", "config.json", "--out", "out"]) == 0, step


def outputs(where: Path) -> dict:
    """Every file the steps wrote, but the copies."""
    out = where / "out"
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
            if p.is_file() and "grids" not in p.relative_to(out).parts}


def rewrite(npy: Path, values: np.ndarray, descr: str = "<f8") -> None:
    """Replace the copy ``npy`` by ``values`` under the header of ``descr``,
    with a digest record that matches it."""
    data = np.ascontiguousarray(values, dtype=descr)
    with open(npy, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": descr, "fortran_order": False, "shape": data.shape})
        fh.write(data.tobytes())
    npy.with_suffix(".sha256").write_text(store.sha256_file(npy) + "\n")


def intact(npy: Path) -> bool:
    """Whether the copy ``npy`` of a 33x33 grid passes its checks."""
    return store._npy_start(npy, (33, 33)) is not None


def damage(npy: Path, how: str) -> None:
    data = npy.read_bytes()
    if how == "truncated":
        npy.write_bytes(data[:-8])
    elif how == "flipped":
        npy.write_bytes(data[:-1] + bytes([data[-1] ^ 0x40]))
    elif how == "shape":  # the same bytes, under another shape
        rewrite(npy, np.load(npy).reshape(1, -1))
    elif how == "dtype":  # the same bytes, under another dtype
        rewrite(npy, np.load(npy).view("<i8"), "<i8")
    elif how == "no-record":
        npy.with_suffix(".sha256").unlink()


def edit_dem() -> None:
    """Move one DEM cell by 1 m, so that the file's bytes and its values change."""
    grid = load_grid("dem.asc")
    values = grid.values.copy()
    values[10, 10] += 1.0
    save_grid(grid.with_values(values), "dem.asc")


@pytest.mark.parametrize("how", ["truncated", "flipped", "shape", "dtype", "no-record",
                                 "edited"])
def test_damaged_copies_are_parsed_past(inputs, how):
    """Before each of ``train``, ``correct`` and ``evaluate``, every intact
    copy is damaged: before ``train``, those of the eleven layers and of
    the bare and forest masks that ``features`` writes (the elevation
    layer has the DEM's bytes, and the urban layer the urban mask's), and
    those of the reference and strata that ``diagnose`` writes; then those
    of the layers, reference and strata that ``train`` writes again; then
    those of the layers and reference that ``correct`` writes again and of
    the three corrected DEMs. (For ``edited``, the DEM file is edited
    instead, once, after ``diagnose`` read it.) The steps must write what
    they write when each step finds no copy at all."""
    want = inputs("copyless")
    for step in STEPS:
        if step == "train" and how == "edited":
            edit_dem()
        shutil.rmtree("out/grids", ignore_errors=True)
        run_step(step)
    got = inputs("copies")
    for step in STEPS:
        if step == "train" and how == "edited":
            edit_dem()
        elif step in ("train", "correct", "evaluate") and how != "edited":
            copies = [npy for npy in Path("out/grids/v1").glob("*.npy") if intact(npy)]
            assert len(copies) == {"train": 11 + 2 + 2, "correct": 11 + 2,
                                   "evaluate": 11 + 1 + 3}[step]
            for npy in copies:
                damage(npy, how)
                assert not intact(npy)
        run_step(step)
        if step in ("train", "correct") and how != "edited":
            # each grid read was parsed, and its copy written anew
            assert sum(intact(npy) for npy in copies) == (11 + 2 if step == "train" else 11 + 1)
    assert outputs(got) == outputs(want)
    assert not list(got.rglob("*.partial"))


@pytest.mark.parametrize("step", ["train", "correct", "evaluate"])
def test_faulty_body_refused_beside_a_copy_of_its_earlier_bytes(inputs, capsys, step):
    """A DEM edited to hold a faulty body is refused, naming the line, by a
    step that finds the copy of the DEM's earlier bytes."""
    inputs("faulty")
    for earlier in ("features", "diagnose", "train", "correct"):
        run_step(earlier)
    # the layers', the DEM's and urban mask's among them, the bare and forest
    # masks', the reference's and strata's, and the three corrected DEMs'
    assert len(list(Path("out/grids/v1").glob("*.npy"))) == 11 + 2 + 2 + 3
    lines = Path("dem.asc").read_text().splitlines(keepends=True)
    lines[9] = lines[9].replace(" ", " x ", 1)
    Path("dem.asc").write_text("".join(lines))
    capsys.readouterr()
    assert cli.main([step, "--config", "config.json", "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err == "error: 'dem.asc': line 10: non-numeric token 'x'\n", err
