import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from demcorrect import (
    EmptyTableError,
    FeatureConfig,
    SampleTable,
    StrataLabelError,
    WindowSpec,
    build_feature_stack,
    difference,
    extract_samples,
    split_table,
)
import demcorrect.terrain as terrain
from demcorrect.grid import GeometryMismatch, distinct_values
from demcorrect.sampling import NO_STRATUM, check_labels, label_faults, label_values
from conftest import NODATA, make_grid, random_stacks, stack_backings


def small_stack(n=11, seed=0):
    rng = np.random.default_rng(seed)
    dem = make_grid(150 + rng.normal(size=(n, n)) * 8)
    zeros = make_grid(np.zeros((n, n)))
    ones = make_grid((rng.random((n, n)) < 0.4).astype(float))
    cfg = FeatureConfig(texture_window=WindowSpec(2), vrm_window=WindowSpec(2),
                        landcover_window=WindowSpec(2))
    return build_feature_stack(dem, zeros, ones, zeros, cfg), dem


def toy_table(n=20, k=3, seed=0, strata=None):
    rng = np.random.default_rng(seed)
    return SampleTable(
        tuple(f"f{i}" for i in range(k)),
        np.column_stack([np.arange(n), np.zeros(n, dtype=int)]),
        rng.normal(size=(n, k)),
        rng.normal(size=n),
        strata,
    )


class TestExtract:
    def test_full_rate_keeps_all_jointly_valid_cells(self):
        stack, dem = small_stack()
        target = difference(dem, dem)
        table = extract_samples(stack, target, rate=1.0)
        # the widest-reach layer (texture: median ring + radius 2) trims 3 cells
        assert len(table) == (11 - 6) ** 2
        assert np.isfinite(table.features).all()

    def test_cells_with_any_nodata_feature_never_emitted(self):
        stack, dem = small_stack()
        target = difference(dem, dem)
        table = extract_samples(stack, target, rate=1.0)
        slope_layer = stack.layer("slope")
        for r, c in table.cells:
            assert slope_layer.values[r, c] != slope_layer.nodata

    def test_seeded_count_and_determinism(self):
        stack, dem = small_stack(n=41)
        target = difference(dem, dem)
        full = extract_samples(stack, target, rate=1.0)
        half1 = extract_samples(stack, target, rate=0.5, seed=7)
        half2 = extract_samples(stack, target, rate=0.5, seed=7)
        other = extract_samples(stack, target, rate=0.5, seed=8)
        assert len(half1) == int(np.floor(0.5 * len(full) + 0.5))
        assert np.array_equal(half1.cells, half2.cells)
        assert not np.array_equal(half1.cells, other.cells)

    def test_rows_in_row_major_order(self):
        stack, dem = small_stack(n=21)
        table = extract_samples(stack, difference(dem, dem), rate=0.5, seed=3)
        flat = table.cells[:, 0] * 21 + table.cells[:, 1]
        assert np.all(np.diff(flat) > 0)

    def test_strata_labels_copied(self):
        stack, dem = small_stack()
        labels = make_grid(np.full((11, 11), 4.0))
        table = extract_samples(stack, difference(dem, dem), strata=labels)
        assert np.all(table.strata == 4)

    def test_non_integer_strata_label_rejected(self):
        stack, dem = small_stack()
        labels = np.full((11, 11), 4.0)
        labels[3, 5] = 2.5
        with pytest.raises(StrataLabelError, match=r"cell \(3, 5\) holds 2.5"):
            extract_samples(stack, difference(dem, dem), strata=make_grid(labels))

    def test_negative_strata_label_rejected(self):
        # -1 is NO_STRATUM: the cell would be sampled with no stratum
        stack, dem = small_stack()
        labels = np.full((11, 11), 4.0)
        labels[2, 7] = -1.0
        with pytest.raises(StrataLabelError, match=r"non-negative labels; cell \(2, 7\) holds -1.0"):
            extract_samples(stack, difference(dem, dem), strata=make_grid(labels))

    def test_geometry_mismatch(self):
        stack, dem = small_stack()
        bad = make_grid(np.zeros((11, 11)), xll=99.0)
        with pytest.raises(GeometryMismatch):
            extract_samples(stack, bad)

    def test_empty_error(self):
        stack, dem = small_stack()
        all_nodata = dem.with_values(np.full((11, 11), NODATA))
        with pytest.raises(EmptyTableError):
            extract_samples(stack, all_nodata)


def stratum_labels(strata):
    """The whole strata grid's labels, checked first."""
    check_labels(label_faults(strata.values, strata.nodata, 0))
    return label_values(strata.values, strata.nodata)


def extract_samples_oracle(stack, target, strata=None, rate=1.0, seed=0):
    """``extract_samples`` over whole layers, as it was before it read the
    stack in row blocks: the oracle of the blocked one."""
    geo = stack.geometry
    if not target.geometry.matches(geo):
        raise GeometryMismatch("target grid is not on the stack geometry")
    if strata is not None and not strata.geometry.matches(geo):
        raise GeometryMismatch("strata grid is not on the stack geometry")
    valid = target.valid_mask()
    for layer in stack.layers:
        valid &= layer.valid_mask()
    flat = np.flatnonzero(valid.ravel())
    if flat.size == 0:
        raise EmptyTableError("no cell has all features and the target valid")
    count = max(1, int(np.floor(rate * flat.size + 0.5)))
    if count < flat.size:
        rng = np.random.default_rng(seed)
        flat = np.sort(rng.choice(flat, size=count, replace=False))
    rows, cols = np.unravel_index(flat, valid.shape)
    features = np.empty((flat.size, len(stack.layers)))
    for j, layer in enumerate(stack.layers):
        features[:, j] = layer.values[rows, cols]
    targets = target.values[rows, cols]
    labels = None if strata is None else stratum_labels(strata)[rows, cols]
    return SampleTable(stack.names, np.column_stack([rows, cols]), features, targets, labels)


def outcome(fn, *args):
    """A table's names and the bytes of its arrays, or the error raised."""
    try:
        t = fn(*args)
    except Exception as exc:  # the blocked code must raise what the oracle raises
        return type(exc), str(exc)
    return (t.feature_names, t.cells.tobytes(), t.features.tobytes(), t.targets.tobytes(),
            None if t.strata is None else t.strata.tobytes())


@st.composite
def sampling_cases(draw):
    """A stack and target, and no strata, or labels 0-4 with holes and
    perhaps some fractional or negative labels."""
    stack, target = draw(random_stacks())
    geo = stack.geometry
    strata = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        labels = rng.integers(0, 5, size=(geo.nrows, geo.ncols)).astype(float)
        labels[rng.random(labels.shape) < 0.2] = NODATA
        for fault in draw(st.lists(st.sampled_from([2.5, -1.0]), max_size=4)):
            labels[rng.integers(geo.nrows), rng.integers(geo.ncols)] = fault
        strata = make_grid(labels, cellsize=30.0, xll=-15.0)
    return stack, target, strata


class TestBlockedExtract:
    """Sampling a block of rows at a time draws the cells, and builds the
    table, of the whole-grid oracle, from each backing of the stack."""

    @settings(max_examples=120, deadline=None)
    @given(sampling_cases(), st.integers(1, 14), st.sampled_from([1.0, 0.5, 0.2, 0.01]),
           st.integers(0, 3))
    def test_equals_the_whole_grid_oracle(self, case, block_rows, rate, seed):
        stack, target, strata = case
        with tempfile.TemporaryDirectory() as tmp, stack_backings(stack, Path(tmp)) as backings:
            for backing, (plain, read) in backings.items():
                want = outcome(extract_samples_oracle, plain, target, strata, rate, seed)
                with mock.patch.object(terrain, "BLOCK_ROWS", block_rows):
                    got = outcome(extract_samples, read, target, strata, rate, seed)
                assert got == want, backing

    def test_fractional_label_named_before_an_earlier_negative_one(self):
        stack, dem = small_stack()
        labels = np.full((11, 11), 4.0)
        labels[1, 2], labels[9, 3] = -1.0, 2.5
        for blocks in (1, 64):
            with mock.patch.object(terrain, "BLOCK_ROWS", blocks):
                with pytest.raises(StrataLabelError, match=r"integer labels; cell \(9, 3\)"):
                    extract_samples(stack, difference(dem, dem), strata=make_grid(labels))


class TestSplit:
    def test_counts_10_rows(self):
        train, test = split_table(toy_table(10), train_fraction=0.8, seed=1)
        assert (len(train), len(test)) == (8, 2)

    def test_deterministic(self):
        t = toy_table(50)
        a = split_table(t, seed=9)
        b = split_table(t, seed=9)
        assert np.array_equal(a[0].cells, b[0].cells)
        assert np.array_equal(a[1].cells, b[1].cells)

    def test_partition_union_and_disjoint(self):
        t = toy_table(37)
        train, test = split_table(t, train_fraction=0.7, seed=2)
        ids = lambda tab: set(map(tuple, tab.cells))
        assert ids(train) | ids(test) == ids(t)
        assert not (ids(train) & ids(test))

    def test_stratified_50_50(self):
        strata = np.repeat([1, 2], 50)
        t = toy_table(100, strata=strata)
        train, test = split_table(t, train_fraction=0.8, seed=4, stratified=True)
        assert (train.strata == 1).sum() == 40
        assert (train.strata == 2).sum() == 40
        assert (test.strata == 1).sum() == 10
        assert (test.strata == 2).sum() == 10

    def test_stratified_proportions_within_one_row(self):
        rng = np.random.default_rng(0)
        strata = rng.integers(1, 6, size=203)
        t = toy_table(203, strata=strata)
        train, _ = split_table(t, train_fraction=0.75, seed=5, stratified=True)
        for lab in range(1, 6):
            n_lab = (strata == lab).sum()
            got = (train.strata == lab).sum()
            assert abs(got - n_lab * 0.75) <= 1.0

    def test_singleton_stratum_goes_to_train_with_warning(self):
        strata = np.array([1] * 19 + [2])
        t = toy_table(20, strata=strata)
        with pytest.warns(UserWarning, match="fewer than 2"):
            train, test = split_table(t, train_fraction=0.5, seed=6, stratified=True)
        assert (train.strata == 2).sum() == 1
        assert (test.strata == 2).sum() == 0

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split_table(toy_table(5), train_fraction=1.0)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0),
                  elements=st.integers(-1, 2**62)))
def test_distinct_labels_equal_unique(labels):
    got, want = distinct_values(labels), np.unique(labels)
    assert got.dtype == want.dtype and np.array_equal(got, want)


class TestCsv:
    @staticmethod
    def assert_rows_hold(table, text):
        """Read back with the stdlib ``csv`` reader, each row holds the
        table's cell, its stratum (empty for ``NO_STRATUM`` and for a table
        without strata) and values whose ``float()`` has the table's bits."""
        header, *rows = csv.reader(io.StringIO(text))
        assert header == ["row", "col", "stratum", *table.feature_names, "target"]
        assert len(rows) == len(table)
        for i, (row, col, stratum, *values) in enumerate(rows):
            assert (int(row), int(col)) == tuple(table.cells[i])
            label = NO_STRATUM if table.strata is None else table.strata[i]
            assert stratum == ("" if label == NO_STRATUM else str(label))
            want = np.append(table.features[i], table.targets[i])
            assert np.array([float(v) for v in values]).tobytes() == want.tobytes()

    def test_roundtrip(self):
        labels = np.where(np.arange(15) % 4 == 0, NO_STRATUM, np.arange(15) % 3)
        t = toy_table(15, strata=labels)
        self.assert_rows_hold(t, t.to_csv())

    def test_header_shape(self):
        t = toy_table(3)
        first = t.to_csv().splitlines()[0]
        assert first == "row,col,stratum,f0,f1,f2,target"

    def test_no_strata_roundtrip(self):
        t = toy_table(4)
        self.assert_rows_hold(t, t.to_csv())

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_stream_gets_the_returned_text(self, data):
        """Written into a stream, the CSV is the text ``to_csv()`` returns,
        and holds the table, with or without strata, unlabelled rows and
        subnormal values."""
        n, k = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 4))
        values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
            [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308])
        strata = data.draw(st.none() | hnp.arrays(
            np.int64, n, elements=st.integers(NO_STRATUM, 4) | st.just(NO_STRATUM)))
        table = SampleTable(tuple(f"f{i}" for i in range(k)),
                            data.draw(hnp.arrays(np.int64, (n, 2), elements=st.integers(0, 9))),
                            data.draw(hnp.arrays(np.float64, (n, k), elements=values)),
                            data.draw(hnp.arrays(np.float64, n, elements=values)), strata)
        out = io.StringIO()
        assert table.to_csv(out) is None
        assert out.getvalue() == table.to_csv()
        self.assert_rows_hold(table, out.getvalue())


class TestValidation:
    def test_nonfinite_feature_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SampleTable(("a",), [(0, 0)], [[np.inf]], [1.0])

    def test_select_features_order(self):
        t = toy_table(6)
        sub = t.select_features(("f2", "f0"))
        assert sub.feature_names == ("f2", "f0")
        assert np.array_equal(sub.features[:, 0], t.features[:, 2])
