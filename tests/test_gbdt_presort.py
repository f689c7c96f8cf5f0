"""Property tests: split search over the fit's presorted buffer.

``best_split`` without ``order`` sorts the node's rows itself and is the
reference. Given the fit-wide presort restricted to a node's rows it must
return exactly the same split, and partitioning a slice must leave each
child's block equal to that restriction. A partition compares sorted values
only in the features that have ties in the whole table, so its searches are
also checked on tables that mix columns with and without ties.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from demcorrect import GbdtParams, best_split
from demcorrect.gbdt import Split, _Partition, _presort

# a handful of shared values makes ties common; the rest are arbitrary
VALUES = st.one_of(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0]),
                   st.floats(-1e3, 1e3, allow_nan=False, width=64))
RESIDUALS = st.floats(-1e3, 1e3, allow_nan=False, width=64)


@st.composite
def tables(draw):
    n = draw(st.integers(2, 48))
    n_features = draw(st.integers(1, 5))
    X = draw(hnp.arrays(np.float64, (n, n_features), elements=VALUES))
    res = draw(hnp.arrays(np.float64, n, elements=RESIDUALS))
    params = GbdtParams(reg_lambda=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 10)),
                        min_samples_leaf=draw(st.integers(1, 4)))
    return X, res, params


@st.composite
def mixed_tables(draw):
    """Tables whose columns each either repeat values or never do."""
    n = draw(st.integers(2, 48))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            columns.append(draw(hnp.arrays(np.float64, n, elements=VALUES)))
        else:  # distinct under ==, so 0.0 and -0.0 are not both drawn
            columns.append(draw(hnp.arrays(np.float64, n, unique=True,
                                           elements=st.floats(-1e3, 1e3, width=64))))
    res = draw(hnp.arrays(np.float64, n, elements=RESIDUALS))
    params = GbdtParams(reg_lambda=draw(st.sampled_from([0.0, 1.0])),
                        min_samples_leaf=draw(st.integers(1, 3)))
    return np.column_stack(columns), res, params


def restricted(presorted: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each buffer row filtered to ``rows``, keeping its order."""
    return presorted[np.isin(presorted, rows)].reshape(len(presorted), len(rows))


@settings(max_examples=300, deadline=None)
@given(tables(), st.data())
def test_presorted_split_equals_reference(table, data):
    X, res, params = table
    keep = data.draw(hnp.arrays(np.bool_, len(res)))
    rows = np.flatnonzero(keep)
    order = restricted(_presort(X)[:-1], rows)
    got = best_split(X, res, rows, params, order)
    want = best_split(X, res, rows, params)
    assert got == want  # feature, threshold and gain, each compared with ==


@settings(max_examples=200, deadline=None)
@given(tables())
def test_partitioned_children_stay_presorted(table):
    X, res, params = table
    part = _Partition(X).reset()
    n = len(res)
    split = part.search(res, 0, n, params)
    if split is None:
        return
    assert_children_presorted(part, X, split)


@settings(max_examples=200, deadline=None)
@given(tables(), st.data())
def test_split_at_a_table_value_sends_that_value_left(table, data):
    X, res, _ = table
    f = data.draw(st.integers(0, X.shape[1] - 1))
    threshold = X[data.draw(st.integers(0, len(X) - 1)), f]
    assert_children_presorted(_Partition(X).reset(), X, Split(f, threshold, 0.0))


def assert_children_presorted(part, X, split):
    """Split the root slice; each child's block is the presort restricted to its rows."""
    n = len(X)
    mid = part.split(0, n, split)
    go_left = X[:, split.feature] <= split.threshold
    assert mid == np.count_nonzero(go_left)
    for lo, hi, rows in ((0, mid, np.flatnonzero(go_left)), (mid, n, np.flatnonzero(~go_left))):
        assert np.array_equal(part.buf[:, lo:hi], restricted(part.presorted, rows))


@settings(max_examples=300, deadline=None)
@given(mixed_tables())
def test_partition_search_equals_reference_on_mixed_tables(table):
    X, res, params = table
    part = _Partition(np.asfortranarray(X)).reset()
    assert part.tied == [f for f, col in enumerate(X.T)
                         if len(set(col.tolist())) < len(col)]
    n = len(res)
    split = part.search(res, 0, n, params)
    assert split == best_split(X, res, np.arange(n), params)
    if split is None:
        return
    mid = part.split(0, n, split)
    for lo, hi in ((0, mid), (mid, n)):
        want = best_split(X, res, part.rows(lo, hi), params)
        assert part.search(res, lo, hi, params) == want
