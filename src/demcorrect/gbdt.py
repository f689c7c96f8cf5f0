"""Gradient-boosted regression trees for squared-error loss.

One best-first grower serves both growth strategies. It keeps a heap of
open leaves that have a split; the two strategies differ only in the heap
key and the cap. Depthwise keys every leaf alike, so leaves are split in
creation order, which is level order, and leaves at ``max_depth`` are not
searched. Leafwise keys a leaf by its negated gain, so the largest-gain
leaf is split first, until the tree has ``max_leaves`` leaves (the growth
policies of XGBoost; leafwise is LightGBM's default); the children of the
split that brings it there are not searched, since none of them is split.
A node's residuals are summed once, for its value and its search's G.
Split search scores a cut with the regularized gain

    G_L^2/(n_L + lambda) + G_R^2/(n_R + lambda) - G^2/(n + lambda)

where G sums the current residuals. Squared loss makes every row's hessian
constant, so leaf values are sum(residuals) / (n_leaf + lambda) and the
ensemble prediction is base_score + learning_rate * sum of leaf values.
Training is deterministic for a fixed table, parameter set, and row order.
Ties between cuts break to the lower feature index, then the lower cut.

Split search runs over at most 255 bins per feature, as XGBoost ``hist``
and LightGBM train by default. Each feature is binned once per fit: one
bin per distinct value when there are at most 255, otherwise quantile bins
whose upper edges are table values. The codes are an ``(n, F)`` ``uint8``
array. A node's histogram holds the residual sum and the row count of
every (feature, bin); a cut after bin b is scored from the prefix sums
over bins. Every tree's root holds every row, so its counts are taken once
per fit and only its residual sums once per tree, one column at a time.
Only the smaller child of a split has its histogram built from its rows;
the larger one's is its parent's minus the smaller's, and a child that
will not be searched gets none. The threshold of a cut is the midpoint of
the largest table value in bin b and the smallest one in the node's next
non-empty bin, so when every distinct value has its own bin the thresholds
are those of exact greedy search over every gap between distinct values.
Each tree holds one array of row ids in which each node owns a slice, in
ascending order; a split moves that one array.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import distinct_values
from .sampling import EmptyTableError, SampleTable

__all__ = [
    "GbdtParams",
    "RegressionTree",
    "GbdtModel",
    "ModelFormatError",
    "Split",
    "best_split",
    "fit_gbdt",
    "serialize_model",
    "serialize_tree",
    "deserialize_model",
]

MODEL_FORMAT = "gbdt-model"
MODEL_VERSION = 1
MAX_BINS = 255  # per feature, so that a bin code fits a uint8


class ModelFormatError(ValueError):
    """Model document is malformed or from an unsupported version."""


@dataclass(frozen=True)
class GbdtParams:
    """Training knobs; defaults mirror common library defaults.

    ``growth`` picks the order in which the grower splits open leaves:
    "depthwise" is level order, capped by ``max_depth`` (None = unbounded);
    "leafwise" is largest gain first, capped by ``max_leaves``. Each cap
    applies to its own growth only. ``seed`` is recorded in the model
    document but unused: training has no random step. Documents record
    ``"split": "hist"``, the one split search (see the module doc); one
    that records "exact", or no split as earlier versions wrote, still
    loads, since prediction does not depend on how the trees were found.
    """

    n_trees: int = 100
    learning_rate: float = 0.1
    growth: str = "depthwise"
    max_depth: int | None = 6
    max_leaves: int = 31
    min_samples_leaf: int = 1
    min_gain: float = 0.0
    reg_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be a positive integer")
        if not (0 < self.learning_rate <= 1):
            raise ValueError("learning_rate must be in (0, 1]")
        if self.growth not in ("depthwise", "leafwise"):
            raise ValueError("growth must be 'depthwise' or 'leafwise'")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be None or >= 1")
        if self.max_leaves < 2:
            raise ValueError("max_leaves must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if not (self.min_gain >= 0):
            raise ValueError("min_gain must be >= 0")
        if not (self.reg_lambda >= 0):
            raise ValueError("lambda must be >= 0")

    def to_doc(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "learning_rate": self.learning_rate,
            "growth": self.growth,
            "max_depth": self.max_depth,
            "max_leaves": self.max_leaves,
            "min_samples_leaf": self.min_samples_leaf,
            "min_gain": self.min_gain,
            "lambda": self.reg_lambda,
            "seed": self.seed,
            "split": "hist",
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "GbdtParams":
        if doc.get("split", "hist") not in ("exact", "hist"):
            raise ValueError("split must be 'exact' or 'hist'")
        return cls(
            n_trees=int(doc["n_trees"]),
            learning_rate=float(doc["learning_rate"]),
            growth=str(doc["growth"]),
            max_depth=None if doc["max_depth"] is None else int(doc["max_depth"]),
            max_leaves=int(doc["max_leaves"]),
            min_samples_leaf=int(doc["min_samples_leaf"]),
            min_gain=float(doc["min_gain"]),
            reg_lambda=float(doc["lambda"]),
            seed=int(doc["seed"]),
        )


class Split(NamedTuple):
    """A node's best cut; ``last_bin`` is the last bin of the fit's binning sent left."""

    feature: int
    threshold: float
    gain: float
    last_bin: int


class _Histogram(NamedTuple):
    """A node's residual sums and row counts per (feature, bin), ``(F, 256)``,
    and the smallest and largest table value of each bin."""

    sums: np.ndarray
    counts: np.ndarray
    low: np.ndarray
    high: np.ndarray


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """Flat-array binary tree; routing rule x[feature] <= threshold -> left.

    Leaves have feature == -1 and carry ``value``; internal nodes carry the
    split and child indices. Node 0 is the root.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    def depth(self) -> int:
        """Edges on the longest root-to-leaf path, walked from the root."""
        best = 0
        stack = [(0, 0)] if self.n_nodes else []
        while stack:
            node, depth = stack.pop()
            if self.feature[node] >= 0:
                stack.append((self.left[node], depth + 1))
                stack.append((self.right[node], depth + 1))
            else:
                best = max(best, depth)
        return best

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        """Leaf values of the rows of ``X``, routed down the tree by partition.

        Each internal node compares one column of its rows with its
        threshold and hands the two sides on as row-index arrays, so every
        gather reads a single contiguous column (``take``); a leaf writes its
        value to its rows. A matrix that is not column-major is copied once.
        """
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right, value = self.left.tolist(), self.right.tolist(), self.value.tolist()
        columns = list(np.asfortranarray(X).T)
        out = np.empty(len(X))
        stack = [(0, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            f = feature[node]
            if f < 0:
                out[rows] = value[node]
            elif len(rows):
                go_left = columns[f].take(rows) <= threshold[node]
                stack.append((right[node], rows.compress(~go_left)))
                stack.append((left[node], rows.compress(go_left)))
        return out


@dataclass(frozen=True, eq=False)
class GbdtModel:
    """Additive ensemble: base_score + learning_rate * sum of tree outputs."""

    base_score: float
    trees: tuple[RegressionTree, ...]
    params: GbdtParams
    feature_names: tuple[str, ...]
    train_rmse: tuple[float, ...] = ()
    name: str = "gbdt"

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        """The ensemble's predictions; ``X`` is read column-major (see
        :meth:`RegressionTree.predict_rows`), so a matrix in any other
        layout is copied once."""
        X = np.asfortranarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected (n, {len(self.feature_names)}) features, got {X.shape}"
            )
        out = np.full(len(X), self.base_score)
        for tree in self.trees:
            out += self.params.learning_rate * tree.predict_rows(X)
        return out


def best_split(
    features: np.ndarray,
    residuals: np.ndarray,
    node_rows: np.ndarray,
    params: GbdtParams,
    histogram: _Histogram,
    total: float | None = None,
) -> Split | None:
    """The best cut between the non-empty bins of a node's ``histogram``.

    ``features`` is the fit's table, which the histogram bins, and
    ``node_rows`` the node's rows in it: of both, the search reads only the
    number of rows. ``total`` is the sum of the node's residuals in
    ``node_rows`` order; when None it is summed from ``residuals``. With
    ``reg_lambda`` 0, a cut before the first or after the last non-empty
    bin divides by 0 and is then ruled out: the caller ignores those
    warnings, as :func:`fit_gbdt` does once per fit.

    Returns None when the best gain does not exceed ``min_gain`` or every
    cut would violate ``min_samples_leaf``. Ties break to the lower feature
    index, then the lower bin.
    """
    m = len(node_rows)
    if total is None:
        total = float(residuals[node_rows].sum())
    sums, counts, low, high = histogram
    min_leaf = params.min_samples_leaf
    n_left = np.cumsum(counts, axis=1)
    gains = _gains(np.cumsum(sums, axis=1), n_left, total, m, params.reg_lambda)
    # a cut after bin b needs rows in b and min_samples_leaf on each side
    np.putmask(gains, (counts == 0) | (n_left < min_leaf) | (n_left > m - min_leaf), -np.inf)
    f, b = divmod(int(np.argmax(gains)), 256)  # first max: lowest feature, then bin
    gain = float(gains[f, b])
    if not (gain > params.min_gain):  # also None when no cut was valid
        return None
    upper = b + 1 + int(np.argmax(counts[f, b + 1:] > 0))  # the next non-empty bin
    return Split(f, _threshold(high[f, b], low[f, upper]), gain, b)


def _gains(left: np.ndarray, n_left, total: float, m: int, lam: float) -> np.ndarray:
    """The gain of each cut from its left sum and row count, in place of ``left``.

    The operation order is that of
    left^2 / (n_left + lam) + (total - left)^2 / (m - n_left + lam) - parent.
    """
    parent = total * total / (m + lam)
    right = total - left
    right *= right
    right /= m - n_left + lam
    gains = np.multiply(left, left, out=left)
    gains /= n_left + lam
    gains += right
    gains -= parent
    return gains


def _threshold(lo: np.float64, hi: np.float64) -> float:
    """The cut between the values ``lo < hi``: their midpoint, or ``lo``."""
    threshold = float((lo + hi) / 2)
    if not lo <= threshold < hi:
        # the midpoint of adjacent floats can round onto hi (of -5e-324 and
        # 0.0 it is -0.0), and of huge ones overflow; either would send every
        # row to one side, so split at lo itself
        threshold = float(lo)
    return threshold


class _TreeBuilder:
    """Accumulates nodes in creation order; children follow their parent.

    It holds the tree only: a node's rows are its slice of the fit's
    :class:`_BinnedPartition`, which the grower tracks next to the node id.
    """

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def add(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def finish(self) -> RegressionTree:
        return RegressionTree(
            np.array(self.feature, dtype=np.int64),
            np.array(self.threshold, dtype=np.float64),
            np.array(self.left, dtype=np.int64),
            np.array(self.right, dtype=np.int64),
            np.array(self.value, dtype=np.float64),
        )


def _bin_table(features: np.ndarray):
    """Bin codes of a table, and the smallest and largest value of each bin.

    Returns ``codes`` (``(n, F)`` ``uint8``) and ``low`` and ``high``
    (``(F, 256)``): bin b of feature f holds the table values in
    ``[low[f, b], high[f, b]]``. A feature with at most ``MAX_BINS``
    distinct values has one bin per value; otherwise the bins' upper edges
    are the sorted values at ``k*n // MAX_BINS - 1``, k = 1 .. MAX_BINS,
    without repeats, so the last one is the maximum.
    """
    n, n_features = features.shape
    codes = np.empty((n, n_features), dtype=np.uint8)
    low = np.zeros((n_features, 256))
    high = np.zeros((n_features, 256))
    quantiles = np.arange(1, MAX_BINS + 1) * n // MAX_BINS - 1
    for f in range(n_features):
        ordered = np.sort(features[:, f])
        values = distinct_values(ordered)
        edges = values if len(values) <= MAX_BINS else distinct_values(ordered[quantiles])
        codes[:, f] = np.searchsorted(edges, features[:, f])
        high[f, :len(edges)] = edges
        # each bin starts at the value after the previous bin's upper edge
        low[f, 0] = values[0]
        low[f, 1:len(edges)] = values[np.searchsorted(values, edges[:-1], side="right")]
    return codes, low, high


class _BinnedPartition:
    """The fit's bin codes, and the row ids that each tree splits.

    Each node owns a slice ``[lo, hi)`` of ``ids``, its rows in ascending
    order. ``open`` keeps the histogram of each open leaf that has a split
    until the grower splits it; the grower searches both children of a
    split right after it, or neither. Every tree's root holds every row, so
    its row counts are counted once per fit, into a read-only array.
    """

    def __init__(self, features: np.ndarray):
        n, n_features = features.shape
        self.features = features
        self.codes, self.low, self.high = _bin_table(features)
        # histogram key of (feature f, bin b): f*256 + b, as bincount takes it
        self.key_base = np.arange(0, 256 * n_features, 256, dtype=np.intp)
        self.root_counts = np.array([np.bincount(codes, minlength=256)
                                     for codes in self.codes.T])
        self.root_counts.flags.writeable = False
        self.ids = np.empty(n, dtype=np.intp)
        self.open: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.parent = None  # (lo, mid, hi, sums, counts) of the last split
        self.sibling = None  # (lo, (sums, counts)) of the child searched next

    def reset(self) -> "_BinnedPartition":
        """Start a tree: one slice ``[0, n)`` holding the whole table."""
        self.ids[:] = np.arange(len(self.ids))
        self.open.clear()
        self.parent = self.sibling = None
        return self

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return self.ids[lo:hi]

    def build_histogram(self, residuals, rows: np.ndarray):
        """Residual sums and row counts of ``rows`` per (feature, bin), ``(F, 256)``."""
        if len(rows) == len(self.ids):
            # the root: every row in ascending order, so a bincount per
            # column sums each bin's rows in the order the keys below would,
            # without building n*F keys; its counts are the fit's
            sums = np.array([np.bincount(codes, residuals, 256) for codes in self.codes.T])
            return sums, self.root_counts
        keys = (self.codes.take(rows, axis=0) + self.key_base).ravel()
        size = 256 * len(self.key_base)
        sums = np.bincount(keys, np.repeat(residuals[rows], len(self.key_base)), size)
        counts = np.bincount(keys, minlength=size).reshape(-1, 256)
        return sums.reshape(-1, 256), counts

    def _node_histogram(self, residuals, lo: int, hi: int, min_rows: int):
        """The histogram of ``[lo, hi)``, or None for a node with too few rows.

        For a child of the last split, the smaller child's histogram is
        built and the larger one's is the parent's minus it: the sums in
        place, the counts not, since the root's are the fit's. The other
        child's is kept for its search, which comes next.
        """
        sibling, self.sibling = self.sibling, None
        if hi - lo < min_rows:
            return None
        if sibling is not None and sibling[0] == lo:
            return sibling[1]
        parent, self.parent = self.parent, None
        if parent is None or not parent[0] <= lo < hi <= parent[2]:
            return self.build_histogram(residuals, self.ids[lo:hi])
        p_lo, mid, p_hi, sums, counts = parent
        small = (p_lo, mid) if mid - p_lo <= p_hi - mid else (mid, p_hi)
        large = (mid, p_hi) if small[0] == p_lo else (p_lo, mid)
        hists = {small: self.build_histogram(residuals, self.ids[small[0]:small[1]])}
        sums -= hists[small][0]
        hists[large] = sums, counts - hists[small][1]
        other = large if lo == small[0] else small
        if other[1] - other[0] >= min_rows:
            self.sibling = (other[0], hists[other])
        return hists[lo, hi]

    def search(self, residuals, lo: int, hi: int, params: GbdtParams,
               total: float | None = None) -> Split | None:
        hist = self._node_histogram(residuals, lo, hi, 2 * params.min_samples_leaf)
        if hist is None:
            return None
        # through the module global, positionally: tracing wraps best_split
        split = best_split(self.features, residuals, self.ids[lo:hi], params,
                           _Histogram(*hist, self.low, self.high), total)
        if split is not None:
            self.open[lo] = hist
        return split

    def split(self, lo: int, hi: int, split: Split) -> int:
        """Stably move the rows of ``[lo, hi)`` in the cut's lower bins first."""
        hist = self.open.pop(lo)
        rows = self.ids[lo:hi]
        go_left = self.codes[rows, split.feature] <= split.last_bin
        left, right = rows.compress(go_left), rows.compress(~go_left)
        mid = lo + len(left)
        rows[:len(left)] = left
        rows[len(left):] = right
        self.parent = (lo, mid, hi, *hist)
        return mid


def _grow(part: _BinnedPartition, residuals, params) -> tuple[RegressionTree, np.ndarray]:
    """Best-first growth over a heap of open leaves (see the module doc)."""
    depthwise = params.growth == "depthwise"
    max_depth = params.max_depth if depthwise else None
    max_leaves = float("inf") if depthwise else params.max_leaves
    tb = _TreeBuilder()
    leaves: dict[int, tuple[int, int]] = {}  # open leaf -> its slice
    heap: list[tuple[float, int, int, Split]] = []

    def open_leaf(lo: int, hi: int, depth: int, search: bool = True) -> int:
        node = tb.add()
        total = residuals[part.rows(lo, hi)].sum()  # the leaf value's and the search's G
        tb.value[node] = float(total / (hi - lo + params.reg_lambda))
        leaves[node] = (lo, hi)
        if search and (max_depth is None or depth < max_depth):
            split = part.search(residuals, lo, hi, params, float(total))
            if split is not None:
                key = 0.0 if depthwise else -split.gain
                heapq.heappush(heap, (key, node, depth, split))
        return node

    open_leaf(0, len(residuals), 0)
    while heap and len(leaves) < max_leaves:
        _, node, depth, split = heapq.heappop(heap)
        lo, hi = leaves.pop(node)
        mid = part.split(lo, hi, split)
        tb.feature[node] = split.feature
        tb.threshold[node] = split.threshold
        # the children of the split that reaches max_leaves are never split
        search = len(leaves) + 2 < max_leaves
        tb.left[node] = open_leaf(lo, mid, depth + 1, search)
        tb.right[node] = open_leaf(mid, hi, depth + 1, search)
    leaf_of_row = np.empty(len(residuals), dtype=np.int64)
    for node, (lo, hi) in leaves.items():
        leaf_of_row[part.rows(lo, hi)] = node
    return tb.finish(), leaf_of_row


def fit_gbdt(train: SampleTable, params: GbdtParams | None = None,
             name: str = "gbdt") -> GbdtModel:
    """Boost regression trees against the squared-error residuals.

    The base score is the mean target; each tree fits the current residuals
    and shifts predictions by learning_rate times its leaf values. Training
    stops early once a tree finds no split and adds nothing. The table is
    binned once per fit.
    """
    params = params or GbdtParams()
    if len(train) == 0:
        raise EmptyTableError("cannot fit on an empty table")
    X = np.ascontiguousarray(train.features)
    y = train.targets

    base = float(y.mean())
    pred = np.full(len(y), base)
    part = _BinnedPartition(X)

    trees: list[RegressionTree] = []
    rmse = [float(np.sqrt(np.mean((y - pred) ** 2)))]
    # best_split's division by 0 under lambda 0 (see there), once per fit
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(params.n_trees):
            residuals = y - pred
            tree, leaf_of_row = _grow(part.reset(), residuals, params)
            if tree.n_nodes == 1 and tree.value[0] == 0.0:
                break  # converged: no split and a zero root value changes nothing
            trees.append(tree)
            pred = pred + params.learning_rate * tree.value[leaf_of_row]
            rmse.append(float(np.sqrt(np.mean((y - pred) ** 2))))

    return GbdtModel(base, tuple(trees), params, train.feature_names,
                     tuple(rmse), name)


def serialize_tree(tree: RegressionTree) -> dict:
    """One entry of the ``trees`` array of :func:`serialize_model`."""
    nodes = [
        {"value": v} if f < 0 else {"feature": f, "threshold": t, "left": lo, "right": hi}
        for f, t, lo, hi, v in zip(tree.feature.tolist(), tree.threshold.tolist(),
                                   tree.left.tolist(), tree.right.tolist(), tree.value.tolist())
    ]
    return {"root": 0, "nodes": nodes}


def serialize_model(model: GbdtModel) -> dict:
    """Versioned JSON-ready document; roundtrips losslessly."""
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "model_name": model.name,
        "params": model.params.to_doc(),
        "base_score": model.base_score,
        "feature_names": list(model.feature_names),
        "train_rmse": list(model.train_rmse),
        "trees": [serialize_tree(tree) for tree in model.trees],
    }


def _finite(value, what: str) -> float:
    """``float(value)``, refusing NaN and the infinities."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")
    return x


def _tree_from_doc(doc: dict, n_features: int, tree_index: int) -> RegressionTree:
    if not isinstance(doc, dict):
        raise ModelFormatError(f"tree {tree_index}: not an object")
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise ModelFormatError(f"tree {tree_index}: missing node array")
    n = len(nodes)
    tb = _TreeBuilder()
    for _ in range(n):
        tb.add()
    for i, node in enumerate(nodes):
        if not isinstance(node, dict):
            raise ModelFormatError(f"tree {tree_index}: node {i} is not an object")
        try:
            if "value" in node:
                tb.value[i] = _finite(node["value"], "value")
                continue
            f = int(node["feature"])
            tb.feature[i] = f
            tb.threshold[i] = _finite(node["threshold"], "threshold")
            tb.left[i] = int(node["left"])
            tb.right[i] = int(node["right"])
        except KeyError as missing:
            raise ModelFormatError(
                f"tree {tree_index}: node {i} lacks {missing} and has no value"
            ) from None
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(
                f"tree {tree_index}: node {i} field is not a number: {exc}"
            ) from None
        if not (0 <= f < n_features):
            raise ModelFormatError(f"tree {tree_index}: node {i} splits unknown feature {f}")
    if doc.get("root", 0) != 0:
        raise ModelFormatError(f"tree {tree_index}: root must be node 0")

    # the stored graph must be a proper binary tree over all nodes
    seen = set()
    stack = [0]
    while stack:
        i = stack.pop()
        if not (0 <= i < n):
            raise ModelFormatError(f"tree {tree_index}: node index {i} out of range")
        if i in seen:
            raise ModelFormatError(f"tree {tree_index}: node {i} reached twice (cycle or merge)")
        seen.add(i)
        if tb.feature[i] >= 0:
            stack.append(tb.right[i])
            stack.append(tb.left[i])
    if len(seen) != n:
        raise ModelFormatError(f"tree {tree_index}: {n - len(seen)} unreachable node(s)")
    return tb.finish()


def deserialize_model(doc: dict) -> GbdtModel:
    """Inverse of :func:`serialize_model`; validates the node graph.

    Every number a prediction reads (base score, thresholds, leaf values)
    must be finite, and ``train_rmse`` an array of numbers.
    """
    if doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a gbdt model document")
    if doc.get("version") != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {doc.get('version')!r}")
    try:
        params = GbdtParams.from_doc(doc["params"])
        names = tuple(doc["feature_names"])
        base = _finite(doc["base_score"], "base_score")
        tree_docs = doc["trees"]
        rmse = doc.get("train_rmse", [])
        if not isinstance(rmse, list):
            raise TypeError("'train_rmse' is not an array")
        train_rmse = tuple(float(v) for v in rmse)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from None
    if not isinstance(tree_docs, list):
        raise ModelFormatError("malformed model document: 'trees' is not an array")
    trees = tuple(
        _tree_from_doc(td, len(names), i) for i, td in enumerate(tree_docs)
    )
    if len(trees) > params.n_trees:
        raise ModelFormatError("document holds more trees than params.n_trees")
    return GbdtModel(base, trees, params, names, train_rmse, doc.get("model_name", "gbdt"))
