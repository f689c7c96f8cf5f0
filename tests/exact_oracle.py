"""Exact greedy split search, the reference for the library's histogram search.

:func:`best_split` sorts a node's rows per feature and scores every
midpoint between distinct values with ``gbdt._gains``. :class:`ExactPartition`
has the interface of ``gbdt._BinnedPartition`` and searches with it, so
swapping it in for that class makes ``fit_gbdt`` grow exact trees
(:func:`fit_exact`). The pins of ``tests/test_gbdt_golden.py``, taken while
exact search was the library's, hold it to that search's bits.
"""

from unittest import mock

import numpy as np

from demcorrect import gbdt


def best_split(features, residuals, node_rows, params, total=None):
    """The best split of ``node_rows`` over every gap between distinct values."""
    rows = np.asarray(node_rows)
    m = len(rows)
    if m < 2 * params.min_samples_leaf:
        return None
    if total is None:  # in node_rows order: sorted order moves gains by an ulp
        total = float(residuals[rows].sum())
    order = rows[np.argsort(features[rows], axis=0, kind="stable")].T  # ties by position
    prefix = np.cumsum(residuals[order], axis=1)
    gains = gbdt._gains(prefix[:, :-1], np.arange(1, m), total, m, params.reg_lambda)
    # no cut between equal values, nor one leaving fewer than min_samples_leaf rows
    xs = features[order, np.arange(features.shape[1])[:, None]]
    np.putmask(gains, ~(xs[:, 1:] > xs[:, :-1]), -np.inf)
    gains[:, :params.min_samples_leaf - 1] = -np.inf
    gains[:, m - params.min_samples_leaf:] = -np.inf
    at = np.argmax(gains, axis=1)  # first max per feature = lowest threshold
    feature_gain = gains[np.arange(len(at)), at]
    f = int(np.argmax(feature_gain))  # first max = lowest feature index
    gain = float(feature_gain[f])
    if not (gain > params.min_gain):  # also None when no candidate was valid
        return None
    return gbdt.Split(f, gbdt._threshold(xs[f, at[f]], xs[f, at[f] + 1]), gain, -1)


class ExactPartition:
    """One array of row ids, ascending within each node's slice ``[lo, hi)``."""

    def __init__(self, features):
        self.features = features
        self.ids = np.arange(len(features))

    def reset(self):
        self.ids[:] = np.arange(len(self.ids))
        return self

    def rows(self, lo, hi):
        return self.ids[lo:hi]

    def search(self, residuals, lo, hi, params, total=None):
        return best_split(self.features, residuals, self.ids[lo:hi], params, total)

    def split(self, lo, hi, split):
        """Stably move the rows of ``[lo, hi)`` with ``x <= threshold`` first."""
        rows = self.ids[lo:hi]
        go_left = self.features[rows, split.feature] <= split.threshold
        left, right = rows[go_left], rows[~go_left]
        rows[:len(left)] = left
        rows[len(left):] = right
        return lo + len(left)


def fit_exact(table, params, name="gbdt"):
    """``fit_gbdt`` with exact search in place of the histogram search."""
    with mock.patch.object(gbdt, "_BinnedPartition", ExactPartition):
        return gbdt.fit_gbdt(table, params, name)
