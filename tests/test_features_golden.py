"""Golden digests of the ``features`` step's layers.

A seeded DEM and three 0/1 masks, with holes, values rounded to
centimetres, run through the ``features`` command. The grid is taller
than one row block at the default windows, so the pins cover the blocked
build across a block boundary. The nine pinned layers use no ``arctan``
or ``arctan2``, whose bits depend on the host's SIMD support; slope and
aspect are checked against window oracles within tolerances in
``tests/test_terrain.py`` instead.

The output directory is relative, as it enters the provenance digests of
the manifest (which is not pinned here).

The pins were taken while window sums still read a summed-area table.
tpi's alone was taken again when each window came to be summed in a
fixed order of its own cells, which moved it by at most 4.5e-13 m.
vrm's was taken once it came to take its normals from the Horn gradients
alone, with no ``arctan``.
"""

import hashlib
import json

import numpy as np

from demcorrect import save_grid
from demcorrect.cli import main
from conftest import make_grid

NROWS, NCOLS = 150, 40

PINS = {
    "elevation": "03047e830e796538d93d3591c08155dd423efea0b933e35dd7841ab2ea5e3112",
    "roughness": "9fc545408cfabe349b5b4b402c611ca7878f800d0ccde825c6a2ece3be1b4fc6",
    "tpi": "49abf6aea851f7f13656f370b5c04c05097ffda6bb763ae4d3f91d694ac6f0f1",
    "tri": "55684c72b3a2b95e8f33342b74b7a881fd515b76fc6eddcdebec3ac85cf8ff48",
    "texture": "a0d1813ad125787a5c4e1fe074206ba7203c953e73e3d8b0b03e1c767edfe2fb",
    "vrm": "2f559cf1c486f715a485c94596521cfe0d849d0972d1e13a430b18d76e6498f7",
    "pct_bare": "8bec4e0ff3cb42a6163a66917a1440b80c05fb6640a999c796a9cee820e25c82",
    "urban": "f5762a6b6a417673499de5fb974f51abfa017b0e13222961ed40d8e18a09b8e8",
    "pct_forest": "c04c5f49327ea2afe157fa3fe87bf13b3bd8bf31fae311e85c1b0f744d83893b",
}


def golden_inputs():
    """DEM, bare, urban and forest grids drawn from one seeded rng."""
    rng = np.random.default_rng(20261019)
    shape = (NROWS, NCOLS)
    # a random walk in both directions for relief, plus noise of about the
    # texture threshold so that some cells are pits or peaks and some not
    z = 1200.0 + np.cumsum(np.cumsum(rng.normal(scale=0.2, size=shape), axis=0), axis=1)
    z = np.round(z + rng.normal(scale=0.3, size=shape), 2)
    # a few holes, so that most windows, even texture's 21x21, stay whole
    z[rng.random(shape) < 0.001] = -9999.0
    z[20:24, 5:9] = -9999.0
    dem = make_grid(z, cellsize=30.0, xll=500000.0, yll=4100000.0)

    def mask(p):
        m = (rng.random(shape) < p) * 1.0
        m[rng.random(shape) < 0.002] = -9999.0
        return dem.with_values(m)

    return dem, mask(0.3), mask(0.1), mask(0.5)


def test_feature_layers_match_pins(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    paths = {}
    for key, grid in zip(("dem", "bare", "urban", "forest"), golden_inputs()):
        paths[key] = f"{key}.asc"
        save_grid(grid, tmp_path / paths[key])
    (tmp_path / "config.json").write_text(json.dumps({"paths": paths}))
    assert main(["features", "--config", "config.json", "--out", "out"]) == 0
    got = {name: hashlib.sha256((tmp_path / "out" / f"feature_{name}.asc").read_bytes())
           .hexdigest() for name in PINS}
    assert got == PINS
