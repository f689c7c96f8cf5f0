"""Property tests: split search over the fit's presorted buffer.

``best_split`` without ``order`` sorts the node's rows itself and is the
reference. Given the fit-wide presort restricted to a node's rows it must
return exactly the same split, and partitioning a slice must leave each
child's block equal to that restriction.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from demcorrect import GbdtParams, best_split
from demcorrect.gbdt import _Partition, _presort

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
    mid = part.split(0, n, split)
    go_left = X[:, split.feature] <= split.threshold
    for lo, hi, rows in ((0, mid, np.flatnonzero(go_left)), (mid, n, np.flatnonzero(~go_left))):
        assert np.array_equal(part.buf[:, lo:hi], restricted(part.presorted, rows))
