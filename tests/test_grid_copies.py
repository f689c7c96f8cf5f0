"""The binary copies of the feature layers and of the step commands' input
grids (``out/grids/v1``).

A grid read through ``store.read_grid`` must have the bits of a parse of
its ASCII file, whether its copy is missing, present, damaged or stale,
and every step output must be what a run without copies writes.
"""

import contextlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demcorrect.cli as cli
import demcorrect.store as store
from demcorrect import (
    GridParseError,
    GridReader,
    fractal_dem,
    load_grid,
    save_grid,
    synth_landcover,
    write_ascii_grid,
)
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
    """The blocks of the read that keeps a copy, which it serves."""
    rows = store.read_grid(path, out)
    assert isinstance(rows, store.Slab)
    return rows, by_blocks(rows, height, halo)


def blocks(path, out, height, halo, kind):
    with contextlib.ExitStack() as files:
        rows = store.read_grid(path, out, files)
        assert isinstance(rows, kind)
        return rows, by_blocks(rows, height, halo)


def parsed_blocks(path, height, halo):
    with GridReader(path) as reader:
        return reader, by_blocks(reader, height, halo)


@settings(max_examples=300, deadline=None)
@given(st.one_of(grids().map(write_ascii_grid), ascii_bodies().map(lambda case: case[0])),
       st.integers(1, 4), st.integers(0, 2))
def test_copies_give_the_bits_of_the_parse(text, height, halo):
    """In blocks, a read that parses, a read that keeps a copy, and reads
    from the copy that it wrote give what ``load_grid`` and ``GridReader``
    give: the same header and bits (-0.0 included), or the same refusal.
    A refused file gets no copy."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "grid.asc", Path(tmp) / "out"
        path.write_bytes(text.encode(errors="surrogatepass"))
        want = outcome(lambda: (g := load_grid(path), g.values))
        want_blocks = outcome(lambda: parsed_blocks(path, height, halo))
        assert want_blocks == want
        assert outcome(lambda: blocks(path, out, height, halo, GridReader)) == want
        assert outcome(lambda: kept(path, out, height, halo)) == want
        copies = sorted(p.suffix for p in out.glob("grids/v1/*"))
        if isinstance(want, str):
            assert copies == []
            return
        assert copies == [".npy", ".sha256"]
        assert outcome(lambda: kept(path, out, height, halo)) == want
        assert outcome(lambda: blocks(path, out, height, halo, store.Slab)) == want


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
    copy is damaged: before ``train``, those of the eleven layers that
    ``features`` writes, the DEM's among them (the elevation layer has the
    DEM's bytes), and those of the reference and strata that ``diagnose``
    writes; then those of the DEM, reference and strata that ``train``
    writes again, and those of the DEM and reference that ``correct``
    writes again. (For ``edited``, the DEM file is edited instead, once,
    after ``diagnose`` read it.) The steps must write what they write when
    each step finds no copy at all."""
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
            assert len(copies) == {"train": 11 + 2, "correct": 3, "evaluate": 2}[step]
            for npy in copies:
                damage(npy, how)
                assert not intact(npy)
        run_step(step)
        if step in ("train", "correct") and how != "edited":
            # each grid read with a copy kept was parsed, and its copy written anew
            assert sum(intact(npy) for npy in copies) == (3 if step == "train" else 2)
    assert outputs(got) == outputs(want)
    assert not list(got.rglob("*.partial"))


@pytest.mark.parametrize("step", ["train", "correct", "evaluate"])
def test_faulty_body_refused_beside_a_copy_of_its_earlier_bytes(inputs, capsys, step):
    """A DEM edited to hold a faulty body is refused, naming the line, by a
    step that finds the copy of the DEM's earlier bytes."""
    inputs("faulty")
    for earlier in ("features", "diagnose", "train", "correct"):
        run_step(earlier)
    # the layers', the DEM's among them, and the reference's and strata's
    assert len(list(Path("out/grids/v1").glob("*.npy"))) == 11 + 2
    lines = Path("dem.asc").read_text().splitlines(keepends=True)
    lines[9] = lines[9].replace(" ", " x ", 1)
    Path("dem.asc").write_text("".join(lines))
    capsys.readouterr()
    assert cli.main([step, "--config", "config.json", "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert err == "error: 'dem.asc': line 10: non-numeric token 'x'\n", err
