"""Golden digests of what ``diagnose``, ``train``, ``correct`` and
``evaluate`` write, the binary copies of the grids they read included.

A seeded stack of eleven random layers is written through the
``features`` writer, with its manifest and the layers' binary copies,
beside a seeded DEM, reference and strata grid. The four step commands
then run on it with all three models and 5 trees, and every file they
write is pinned, those under ``grids/`` too: each copy is named by its
ASCII file's sha256. The stack is made without ``terrain``, so a change
to how the layers are derived cannot move these pins. The grid is taller
than one row block, so the pins cover sampling and prediction across a
block boundary.

The output directory and the input paths are relative, as they enter
the provenance digests.
"""

import hashlib
import json

import numpy as np

from demcorrect import CANONICAL_FEATURES, FeatureStack, save_grid
from demcorrect.cli import DEFAULT_CONFIG, main
from conftest import NODATA, make_grid, write_stack

NROWS, NCOLS = 70, 30

PINS = {
    "abs_error_gbdt-depthwise.asc": "5e99ad9b7920945c63110cff102d437913f05e2545e2fdefa31bd99b748eb0ba",
    "abs_error_gbdt-leafwise.asc": "fab47320fcbceabedd052de9927064b13adf7d4c7f7f5c84139e1065a64a4932",
    "abs_error_mlr.asc": "4c23e7b286757b115fc4616cd0f0f4602a2967d8b1cbdf0cfc08ca5ade422fc1",
    "collinearity.json": "a3c8ce3675f00f2c187082402f90891a6e5da2887f02dd65d785f2f570818c8e",
    "corrected_gbdt-depthwise.asc": "1cd1ae8d1d43f709db2479693670be7c65923333706356f140fc259300454a20",
    "corrected_gbdt-leafwise.asc": "1ba75dfc96add65a2bc9e43490f3c26a59d4773020e79051e2cfc81dfada3e89",
    "corrected_mlr.asc": "3517561c27d169b1d35adcc3c90c57689abaeab7c012199b762d3629e0337a13",
    "model_gbdt-depthwise.json": "3d4e0ff10c84a4cb430b92ee3c5e69a53343d525eea0c49b3f1c357552d6fca7",
    "model_gbdt-leafwise.json": "ee4ed51af8c6fbf3ac053f36cfb37c2ad15e0c6ec1c553860fe9590b6d43cb52",
    "model_mlr.json": "1dce609f8091d3c79fb988a4e384155a9ef5e8ed51656ede4fac55059a2bb270",
    "predicted_error_gbdt-depthwise.asc": "bc339d945c49541a977ad7d9e9aee9e3e2ba134115955af5a747c1b574ca2473",
    "predicted_error_gbdt-leafwise.asc": "a22d87f2078713a2d5dbc6e2b95590a66332b1bc2c05f7d01d0cd871b0e01fca",
    "predicted_error_mlr.asc": "15bf6157ec3377e189051c429a10803257aa97f5fef1259c7687280e58b0ca17",
    "report.json": "8fee8e74602476e05bd810e23c74131ad45224d2ae4ed8e6c4531f6914ca609a",
    "report.txt": "794723b81fff9906ef838651d8249438caed21985aa402d90127bbcc376273e4",
    # the binary copies of the strata, DEM and reference grids, each named by
    # its ASCII file's sha256, and their digest records
    "grids/v1/0e026cbf639e6af419829732dcbcb12682269c02ac97fe0b8d89888688b3de66.npy":
        "a45b8379bc1fc8b2c7b02fbe7340d477119dd5b21d3da9fccd1c4ef1088c934a",
    "grids/v1/0e026cbf639e6af419829732dcbcb12682269c02ac97fe0b8d89888688b3de66.sha256":
        "a3b0751d2cd5793f1d790588f04ffe84c41359ed0b502f638414015ffecb77d1",
    "grids/v1/32c297064286a653793bfaa6bad42fd06b1700724c427362d599a2ef89084a33.npy":
        "f58cd7f67df7e3ecd5c4440e338c8e0dcad5851bace02edacdb527446e54c86b",
    "grids/v1/32c297064286a653793bfaa6bad42fd06b1700724c427362d599a2ef89084a33.sha256":
        "d3b7bf42e6939b83a4056962c511be5989af709e22424721191dd92a97e5c113",
    "grids/v1/9fc4d34c6de4049decc5b59fa8d3ea919e461de7d7b5c4574023a27dbf506ada.npy":
        "e32ac0cfe93f7d7ef418d9953b327e7a4fc6d98e28320eb03603728b18be5010",
    "grids/v1/9fc4d34c6de4049decc5b59fa8d3ea919e461de7d7b5c4574023a27dbf506ada.sha256":
        "a4ac3a4393a8c63c7beb7659b17108ce6adb6208aed55cd1d31b8f023a1f6c35",
    # the binary copies that ``correct`` writes of the corrected DEMs
    # (gbdt-leafwise, gbdt-depthwise, mlr), each named as above
    "grids/v1/1ba75dfc96add65a2bc9e43490f3c26a59d4773020e79051e2cfc81dfada3e89.npy":
        "4e3c5e474ac6add5e1977cc401f3852c18ce638ea70af8380ce52d7fd4be1400",
    "grids/v1/1ba75dfc96add65a2bc9e43490f3c26a59d4773020e79051e2cfc81dfada3e89.sha256":
        "15d9165bb5572838f4d286ff5f8c7f4c6febb88466edee96f5c40e22c17e442d",
    "grids/v1/1cd1ae8d1d43f709db2479693670be7c65923333706356f140fc259300454a20.npy":
        "8ce144d7ff837bf77e155f16202308264cf609e086521725db7b6c9e173cc909",
    "grids/v1/1cd1ae8d1d43f709db2479693670be7c65923333706356f140fc259300454a20.sha256":
        "0541aabcd80f64baf2ff81f49730b41f5eb2140112bb55e556ec1107287480df",
    "grids/v1/3517561c27d169b1d35adcc3c90c57689abaeab7c012199b762d3629e0337a13.npy":
        "e42cc07da109d9403c77a628a9aaaf6a220d652d2b954c959a93828ff3908de5",
    "grids/v1/3517561c27d169b1d35adcc3c90c57689abaeab7c012199b762d3629e0337a13.sha256":
        "7c3f9cace1710277d9a7c035228dbb8afc4e23c8eb94cfd4da5f237d0c54f52f",
}


def golden_inputs():
    """The stack, DEM, reference and strata grids drawn from one seeded rng.

    The DEM's error is a sum of terms in four of the layers plus noise, so
    that every model finds something to fit.
    """
    rng = np.random.default_rng(20261020)
    shape = (NROWS, NCOLS)

    def grid(values):
        return make_grid(values, cellsize=30.0, xll=400000.0, yll=3200000.0)

    layers = []
    for _ in CANONICAL_FEATURES:
        values = np.round(rng.normal(scale=10.0, size=shape), 3)
        values[rng.random(shape) < 0.01] = NODATA
        layers.append(grid(values))
    stack = FeatureStack(CANONICAL_FEATURES, tuple(layers))
    reference = np.round(500.0 + np.cumsum(rng.normal(size=shape), axis=0), 2)
    x = [np.where(layer.values == NODATA, 0.0, layer.values) for layer in layers]
    dh = 0.1 * x[1] - 0.05 * x[4] + 0.2 * np.sin(0.3 * x[7]) + 0.02 * x[0] * (x[9] > 0)
    dem = np.round(reference + dh + rng.normal(scale=0.1, size=shape), 2)
    dem[rng.random(shape) < 0.01] = NODATA
    strata = rng.integers(1, 6, size=shape).astype(np.float64)
    strata[rng.random(shape) < 0.01] = NODATA
    return stack, grid(dem), grid(reference), grid(strata)


def test_step_outputs_match_pins(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stack, dem, reference, strata = golden_inputs()
    paths = {"dem": dem, "reference": reference, "strata": strata}
    for key, grid in paths.items():
        save_grid(grid, tmp_path / f"{key}.asc")
    config = {"paths": {key: f"{key}.asc" for key in paths}, "gbdt": {"n_trees": 5}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    out.mkdir()
    write_stack(stack, DEFAULT_CONFIG, out)
    inputs = set(out.rglob("*"))
    for step in ("diagnose", "train", "correct", "evaluate"):
        assert main([step, "--config", "config.json", "--out", "out"]) == 0, step
    got = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(out.rglob("*")) if path.is_file() and path not in inputs}
    assert got == PINS
