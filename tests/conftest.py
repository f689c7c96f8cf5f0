import contextlib

import numpy as np
import pytest
from hypothesis import strategies as st

import demcorrect.cli as cli
import demcorrect.store as store
from demcorrect import FeatureStack, Grid, load_grid

NODATA = -9999.0


def make_grid(values, cellsize=1.0, xll=0.0, yll=0.0, nodata=NODATA) -> Grid:
    arr = np.asarray(values, dtype=np.float64)
    return Grid(arr.shape[1], arr.shape[0], xll, yll, cellsize, nodata, arr)


def plane_grid(n, fx=0.0, fy=0.0, base=0.0, cellsize=1.0) -> Grid:
    """z = base + fx*col + fy*row with row 0 northernmost."""
    cols = np.arange(n, dtype=np.float64)
    rows = np.arange(n, dtype=np.float64)
    z = base + fx * cols[None, :] + fy * rows[:, None]
    return make_grid(z, cellsize=cellsize)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def write_stack(stack, cfg, out):
    """Write a stack held in memory as the ``features`` step writes one,
    each layer as one block through a ``store.GridWriter`` with its copy,
    then the manifest: the assembled-stack oracle of the streamed files."""
    with store.PartialFiles() as files:
        writers = [store.GridWriter(files, out / f"feature_{name}.asc", layer.geometry,
                                    layer.nodata, copy=True)
                   for name, layer in zip(stack.names, stack.layers)]
        for writer, layer in zip(writers, stack.layers):
            writer.write(layer.values)
    cli._write_manifest(cfg, out, {name: writer.sha256
                                   for name, writer in zip(stack.names, writers)})


@contextlib.contextmanager
def stack_backings(stack, tmp):
    """``stack`` as each backing of a :class:`FeatureStack` serves it, paired
    with the in-memory stack an oracle should read.

    ``memory`` is the stack itself; ``binary`` reads each layer from the
    digest-checked binary copy that the ``features`` writer made of it
    (``grids/v1``), a block at a time, as ``cli._load_stack`` reads a stack.
    It serves what was written, in which -0.0 has become 0.0.
    """
    write_stack(stack, cli.DEFAULT_CONFIG, tmp)
    written = FeatureStack(stack.names, tuple(load_grid(tmp / f"feature_{name}.asc")
                                              for name in stack.names))
    binary = cli._load_stack(tmp)
    assert all(isinstance(layer, store.Slab) for layer in binary.layers)
    yield {"memory": (stack, stack), "binary": (written, binary)}


@st.composite
def random_stacks(draw, max_rows=12, max_cols=9):
    """A stack of 1-4 layers named f0.., each with its own nodata sentinel
    and holes, and a target grid on the same geometry.

    Holes cover none, some or all of a grid; values are integral or carry
    3 or 12 decimals, and include -0.0 where they round to zero. A layer's
    sentinel may be -0.0, which its ``.asc`` file writes as 0.
    """
    h, w = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hole = draw(st.sampled_from([0.0, 0.0, 0.1, 0.4, 1.0]))

    def holed(values, nodata):
        return make_grid(np.where(rng.random((h, w)) < hole, nodata, values), nodata=nodata,
                         cellsize=30.0, xll=-15.0)

    layers = []
    for _ in range(draw(st.integers(1, 4))):
        values = np.round(rng.normal(size=(h, w)) * 10, draw(st.sampled_from([0, 3, 12])))
        layers.append(holed(values, draw(st.sampled_from([NODATA, 0.0, -0.0, 7.0]))))
    stack = FeatureStack(tuple(f"f{i}" for i in range(len(layers))), tuple(layers))
    return stack, holed(rng.normal(size=(h, w)), NODATA)
