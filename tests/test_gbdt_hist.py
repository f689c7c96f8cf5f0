"""Property tests: histogram split search against exact search (``exact_oracle``).

On a table whose features each hold at most 255 distinct values, every
value has its own bin, so hist search scores the same cuts as exact search
and puts each threshold at the same midpoint. Only the order in which the
residuals are summed differs, so the two may choose differently only where
the best gain is tied with another cut, or with no split, within rounding.
The histogram of a node taken by subtraction must equal the one built from
its rows, in every tree of a fit, and the partition must send each row
where the tree routes it.
"""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import demcorrect.gbdt as gbdt
from demcorrect import GbdtParams, SampleTable, fit_gbdt, serialize_model
from demcorrect.gbdt import MAX_BINS, _bin_table, _BinnedPartition, _grow, _TreeBuilder
from exact_oracle import ExactPartition, best_split

FLOATS = st.floats(-1e3, 1e3, allow_nan=False, width=64)
# ties within this share of the node's sum of squared residuals, which
# bounds every term of the gain, count as ties
TIE = 1e-9
# hist search under lambda 0 divides by 0 in cuts it rules out; fit_gbdt
# ignores that, and so do the tests that search without it
QUIET = {"divide": "ignore", "invalid": "ignore"}


@st.composite
def few_valued_tables(draw, max_rows=400):
    """Tables whose columns each draw from at most 255 distinct values.

    Rows and residuals come from a seeded generator: hypothesis fills most
    of a long array with one value, which leaves few cuts to compare.
    """
    n = draw(st.integers(2, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        pool = np.array(draw(st.lists(st.integers(-10**6, 10**6), min_size=1,
                                      max_size=MAX_BINS, unique=True))) / 1000
        columns.append(pool[rng.integers(0, len(pool), n)])
    res = rng.normal(size=n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):  # residuals with ties
        res = np.round(res, 1)
    params = GbdtParams(reg_lambda=draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 10)),
                        min_samples_leaf=draw(st.integers(1, 4)))
    return np.column_stack(columns), res, params


def candidate_gains(X, res, params):
    """Every valid cut's ``(gain, feature, threshold)``, summed with ``math.fsum``."""
    m, lam = len(res), params.reg_lambda
    total = math.fsum(res)
    out = []
    for f, column in enumerate(X.T):
        values = np.unique(column)
        for lo, hi in zip(values[:-1], values[1:]):
            left = column <= lo
            n_left = int(left.sum())
            if not params.min_samples_leaf <= n_left <= m - params.min_samples_leaf:
                continue
            g_left = math.fsum(res[left])
            gain = (g_left ** 2 / (n_left + lam) + (total - g_left) ** 2 / (m - n_left + lam)
                    - total ** 2 / (m + lam))
            out.append((gain, f, float((lo + hi) / 2)))
    return out


@settings(max_examples=250, deadline=None)
@given(few_valued_tables())
def test_root_split_equals_exact_unless_tied(table):
    X, res, params = table
    n = len(res)
    exact = best_split(X, res, np.arange(n), params)
    with np.errstate(**QUIET):
        hist = _BinnedPartition(X).reset().search(res, 0, n, params)
    tol = TIE * math.fsum(res * res)
    gains = sorted((c for c in candidate_gains(X, res, params)), reverse=True)
    if not gains or gains[0][0] <= tol:
        # no cut, or the best one is tied with not splitting
        assert exact is None or exact.gain <= 2 * tol
        assert hist is None or hist.gain <= 2 * tol
        return
    if len(gains) > 1 and gains[0][0] - gains[1][0] <= tol:
        return  # tied cuts: either may win
    assert exact is not None and hist is not None
    assert (hist.feature, hist.threshold) == (exact.feature, exact.threshold)
    assert abs(hist.gain - exact.gain) <= tol


def test_tied_cuts_break_to_the_lower_feature_then_bin():
    """Two copies of one column, and a target that two cuts split alike."""
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    res = np.array([-1.0, 1.0, 0.0, 0.0, -1.0, 1.0])
    X = np.column_stack([x, x])
    params = GbdtParams(reg_lambda=0.0)
    with np.errstate(**QUIET):
        split = _BinnedPartition(X).reset().search(res, 0, len(x), params)
    assert split[:3] == best_split(X, res, np.arange(len(x)), params)[:3]
    assert (split.feature, split.threshold, split.last_bin) == (0, 0.5, 0)


def test_more_than_256_features():
    """Histogram keys f*256 + b of feature 256 and up must not wrap onto
    feature 0's; only the last of 257 columns carries the signal."""
    rng = np.random.default_rng(11)
    X = rng.integers(0, 4, size=(200, 257)).astype(float)
    res = np.where(X[:, -1] > 1, 1.0, -1.0) + rng.normal(size=200) * 0.01
    params = GbdtParams()
    split = _BinnedPartition(X).reset().search(res, 0, len(res), params)
    exact = best_split(X, res, np.arange(len(res)), params)
    assert (split.feature, split.threshold) == (exact.feature, exact.threshold) == (256, 1.5)


class CheckedPartition(_BinnedPartition):
    """Checks every histogram it hands to split search against a direct build."""

    def __init__(self, features):
        super().__init__(features)
        self.built = self.checked = 0

    def build_histogram(self, residuals, rows):
        self.built += 1
        return super().build_histogram(residuals, rows)

    def _node_histogram(self, residuals, lo, hi, min_rows):
        hist = super()._node_histogram(residuals, lo, hi, min_rows)
        if hist is not None:
            self.checked += 1
            keys = self.codes[self.ids[lo:hi]] + self.key_base
            counts = np.bincount(keys.ravel(), minlength=hist[1].size).reshape(hist[1].shape)
            sums = np.bincount(keys.ravel(), np.repeat(residuals[self.ids[lo:hi]], keys.shape[1]),
                               minlength=hist[0].size).reshape(hist[0].shape)
            assert np.array_equal(hist[1], counts)
            np.testing.assert_allclose(hist[0], sums, rtol=0,
                                       atol=1e-9 * (1 + np.abs(residuals).sum()))
        return hist


@st.composite
def grown(draw):
    X, res, params = draw(few_valued_tables(max_rows=600))
    if draw(st.booleans()):  # some columns with more than 255 distinct values
        n = len(res)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        X = np.column_stack([X, rng.normal(size=n) * 100])
    growth = draw(st.sampled_from(["depthwise", "leafwise"]))
    params = GbdtParams(growth=growth, max_depth=draw(st.none() | st.integers(1, 5)),
                        max_leaves=draw(st.integers(2, 16)),
                        min_samples_leaf=params.min_samples_leaf, reg_lambda=params.reg_lambda)
    return X, res, params


@settings(max_examples=200, deadline=None)
@given(grown())
def test_grown_tree_histograms_and_routing(case):
    X, res, params = case
    part = CheckedPartition(X)
    with np.errstate(**QUIET):
        tree, leaf_of_row = _grow(part.reset(), res, params)
    # the smaller child of each split is built, the larger one subtracted
    assert part.built <= 1 + (tree.n_nodes - 1) // 2
    assert part.checked >= part.built
    # rows sit in the leaf the tree routes them to, in ascending order
    assert np.array_equal(tree.predict_rows(X), tree.value[leaf_of_row])
    assert np.array_equal(np.sort(part.ids), np.arange(len(res)))
    if tree.n_nodes > 1:
        leaf_rows = np.bincount(leaf_of_row, minlength=tree.n_nodes)[tree.feature < 0]
        assert leaf_rows.min() >= params.min_samples_leaf


def test_children_at_max_depth_get_no_histogram():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(300, 3))
    res = rng.normal(size=300)
    part = CheckedPartition(X)
    tree, _ = _grow(part.reset(), res, GbdtParams(max_depth=1))
    assert tree.n_nodes == 3 and part.built == part.checked == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 1200).flatmap(
    lambda n: hnp.arrays(np.float64, (n, 2), elements=FLOATS | st.sampled_from([0.0, 1.5]))))
def test_bins_bracket_the_table(X):
    codes, low, high = _bin_table(X)
    assert codes.dtype == np.uint8 and codes.shape == X.shape
    for f, column in enumerate(X.T):
        values = np.unique(column)
        n_bins = int(codes[:, f].max()) + 1
        assert n_bins <= MAX_BINS
        if len(values) <= MAX_BINS:
            assert n_bins == len(values)
        # bins are non-empty, ordered and bounded by table values
        assert np.array_equal(np.unique(codes[:, f]), np.arange(n_bins))
        assert np.all(low[f, codes[:, f]] <= column) and np.all(column <= high[f, codes[:, f]])
        assert np.all(high[f, :n_bins - 1] < low[f, 1:n_bins])
        assert np.isin(low[f, :n_bins], values).all() and np.isin(high[f, :n_bins], values).all()
        assert high[f, n_bins - 1] == values[-1]


@pytest.mark.parametrize("growth", ["depthwise", "leafwise"])
@pytest.mark.parametrize("seed", range(3))
def test_histograms_hold_in_every_tree_of_a_fit(monkeypatch, growth, seed):
    """Every tree's root holds every row, so the fit counts its rows once;
    its counts must come out of every tree unchanged, or the next tree's
    root and the larger children under it would be counted wrong."""
    rng = np.random.default_rng(seed)
    n = 500
    X = np.column_stack([rng.integers(0, 12, n), rng.normal(size=n) * 10,
                         np.round(rng.normal(size=n), 1)])
    y = np.sin(X[:, 0]) + X[:, 1] / 10 + rng.normal(size=n) * 0.1
    table = SampleTable(("a", "b", "c"), np.zeros((n, 2)), X, y)
    params = GbdtParams(n_trees=4, learning_rate=0.5, growth=growth, max_depth=4,
                        max_leaves=9)
    want = serialize_model(fit_gbdt(table, params))
    parts = []

    def checked(features):
        parts.append(CheckedPartition(features))
        return parts[-1]

    monkeypatch.setattr(gbdt, "_BinnedPartition", checked)
    model = fit_gbdt(table, params)
    assert len(model.trees) == 4 and serialize_model(model) == want
    # each tree built its root, whose counts are the fit's, and subtracted
    assert len(parts) == 1 and parts[0].checked > parts[0].built >= 4


def grow_searching_every_child(part, residuals, params):
    """Leafwise growth that also searches the children of the split that
    reaches ``max_leaves``, which the grower skips."""
    tb = _TreeBuilder()
    leaves, heap = {}, []

    def open_leaf(lo, hi):
        node = tb.add()
        tb.value[node] = float(residuals[part.rows(lo, hi)].sum() / (hi - lo + params.reg_lambda))
        leaves[node] = (lo, hi)
        split = part.search(residuals, lo, hi, params)
        if split is not None:
            heapq.heappush(heap, (-split.gain, node, split))
        return node

    open_leaf(0, len(residuals))
    while heap and len(leaves) < params.max_leaves:
        _, node, split = heapq.heappop(heap)
        lo, hi = leaves.pop(node)
        mid = part.split(lo, hi, split)
        tb.feature[node], tb.threshold[node] = split.feature, split.threshold
        tb.left[node] = open_leaf(lo, mid)
        tb.right[node] = open_leaf(mid, hi)
    return tb.finish()


class CountedPartition:
    """Counts a partition's split searches."""

    def __init__(self, part):
        self.part, self.searches = part, 0

    def search(self, *args):
        self.searches += 1
        return self.part.search(*args)

    def __getattr__(self, name):
        return getattr(self.part, name)


@pytest.mark.parametrize("split", ["exact", "hist"])
def test_leafwise_skips_only_searches_it_never_reads(split):
    rng = np.random.default_rng(8)
    X = np.column_stack([rng.normal(size=400), rng.integers(0, 30, 400)])
    res = np.sin(X[:, 0] * 2) + np.cos(X[:, 1] / 3) + rng.normal(size=400) * 0.1
    partition = ExactPartition if split == "exact" else _BinnedPartition
    for max_leaves in range(2, 17):
        params = GbdtParams(growth="leafwise", max_leaves=max_leaves)
        every = CountedPartition(partition(X).reset())
        want = grow_searching_every_child(every, res, params)
        part = CountedPartition(partition(X).reset())
        tree, _ = _grow(part, res, params)
        assert tree.n_leaves == max_leaves
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(tree, name).tobytes() == getattr(want, name).tobytes(), name
        assert part.searches == every.searches - 2
