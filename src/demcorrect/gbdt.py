"""Gradient-boosted regression trees for squared-error loss.

One best-first grower serves both growth strategies. It keeps a heap of
open leaves that have a split; the two strategies differ only in the heap
key and the cap. Depthwise keys every leaf alike, so leaves are split in
creation order, which is level order, and leaves at ``max_depth`` are not
searched. Leafwise keys a leaf by its negated gain, so the largest-gain
leaf is split first, until the tree has ``max_leaves`` leaves (the growth
policies of XGBoost; leafwise is LightGBM's default). Split search is exact
greedy over sorted feature values (no histogram binning), with the
regularized gain

    G_L^2/(n_L + lambda) + G_R^2/(n_R + lambda) - G^2/(n + lambda)

where G sums the current residuals. Squared loss makes every row's hessian
constant, so leaf values are sum(residuals) / (n_leaf + lambda) and the
ensemble prediction is base_score + learning_rate * sum of leaf values.
Training is deterministic for a fixed table, parameter set, and row order.

Each feature column is sorted once per fit, as in the exact greedy
algorithm over presorted column blocks (Chen & Guestrin, KDD 2016, 4.1).
The result is an ``(F+1, n)`` index buffer in a data-partition layout
(LightGBM, Ke et al., NeurIPS 2017): row f lists the row ids in ascending
order of feature f, ties by row id, and the last row is ``arange(n)``.
Every tree works on a copy of it in which each node owns a column slice
``[lo, hi)``. Splitting a node stably moves its left rows to the front of
its slice in every buffer row, so each node's block stays sorted per
feature, its last row lists its rows in ascending order, and split search
scans a node without sorting anything.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    "deserialize_model",
]

MODEL_FORMAT = "gbdt-model"
MODEL_VERSION = 1


class ModelFormatError(ValueError):
    """Model document is malformed or from an unsupported version."""


@dataclass(frozen=True)
class GbdtParams:
    """Training knobs; defaults mirror common library defaults.

    ``growth`` picks the order in which the grower splits open leaves:
    "depthwise" is level order, capped by ``max_depth`` (None = unbounded);
    "leafwise" is largest gain first, capped by ``max_leaves``. Each cap
    applies to its own growth only. ``seed`` is recorded in the model
    document but unused: training has no random step.
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
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "GbdtParams":
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
    feature: int
    threshold: float
    gain: float


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
        idx = np.zeros(len(X), dtype=np.int64)
        while True:
            feat = self.feature[idx]
            active = feat >= 0
            if not active.any():
                break
            rows = np.flatnonzero(active)
            node = idx[rows]
            go_left = X[rows, self.feature[node]] <= self.threshold[node]
            idx[rows] = np.where(go_left, self.left[node], self.right[node])
        return self.value[idx]


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
        X = np.asarray(X, dtype=np.float64)
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
    order: np.ndarray | None = None,
) -> Split | None:
    """Exact greedy search over all features and distinct-value midpoints.

    ``order`` is an optional ``(F, m)`` block whose row f lists the node's
    rows in ascending order of feature f, ties by row id; without it the
    rows are sorted here (stably, ties by position in ``node_rows``).
    Returns None when the best gain does not exceed ``min_gain`` or every
    candidate would violate ``min_samples_leaf``. Ties break to the lower
    feature index, then the lower threshold.
    """
    rows = np.asarray(node_rows)
    m = len(rows)
    if m < 2 * params.min_samples_leaf:
        return None
    lam = params.reg_lambda
    # G in node_rows order: summing in sorted order moves gains by an ulp
    total = float(residuals[rows].sum())
    parent = total * total / (m + lam)

    if order is None:
        order = rows[np.argsort(features[rows], axis=0, kind="stable")].T
    n_features = features.shape[1]
    xs = features[order, np.arange(n_features)[:, None]]
    ok = xs[:, 1:] > xs[:, :-1]
    del xs  # (F, m) temporaries dominate the fit's memory; hold few at once
    n_left = np.arange(1, m)
    if params.min_samples_leaf > 1:
        ok &= (n_left >= params.min_samples_leaf) & (m - n_left >= params.min_samples_leaf)
    prefix = residuals[order]
    np.cumsum(prefix, axis=1, out=prefix)
    prefix = prefix[:, :-1]
    # the gain formula in place, in the operation order of
    # prefix^2 / (n_left + lam) + right^2 / (m - n_left + lam) - parent
    right = total - prefix
    right *= right
    right /= m - n_left + lam
    gains = np.multiply(prefix, prefix, out=prefix)
    gains /= n_left + lam
    gains += right
    gains -= parent
    np.putmask(gains, ~ok, -np.inf)
    at = np.argmax(gains, axis=1)  # first max per feature = lowest threshold
    feature_gain = gains[np.arange(n_features), at]
    f = int(np.argmax(feature_gain))  # first max = lowest feature index
    gain = float(feature_gain[f])
    if not (gain > params.min_gain):  # also None when no candidate was valid
        return None
    lo, hi = features[order[f, at[f]], f], features[order[f, at[f] + 1], f]
    threshold = float((lo + hi) / 2)
    if not lo <= threshold < hi:
        # the midpoint of adjacent floats can round onto hi (of -5e-324 and
        # 0.0 it is -0.0), and of huge ones overflow; either would send every
        # row to one side, so split at lo itself
        threshold = float(lo)
    return Split(f, threshold, gain)


class _TreeBuilder:
    """Accumulates nodes in creation order; children follow their parent.

    It holds the tree only: a node's rows are its slice of the fit's
    :class:`_Partition`, which the grower tracks next to the node id.
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


def _presort(features: np.ndarray) -> np.ndarray:
    """The ``(F+1, n)`` partition buffer of a whole table (see module doc)."""
    n, n_features = features.shape
    buf = np.empty((n_features + 1, n), dtype=np.intp)
    for f in range(n_features):
        buf[f] = np.argsort(features[:, f], kind="stable")
    buf[n_features] = np.arange(n)
    return buf


class _Partition:
    """The fit's presorted buffer and the work copy that each tree splits."""

    def __init__(self, features: np.ndarray):
        self.features = features
        self.presorted = _presort(features)
        self.buf = np.empty_like(self.presorted)
        self.go_left = np.empty(len(features), dtype=bool)  # indexed by row id

    def reset(self) -> "_Partition":
        """Start a tree: one slice ``[0, n)`` holding the whole table."""
        np.copyto(self.buf, self.presorted)
        return self

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return self.buf[-1, lo:hi]

    def search(self, residuals, lo: int, hi: int, params: GbdtParams) -> Split | None:
        # through the module global, positionally: tracing wraps best_split
        return best_split(self.features, residuals, self.buf[-1, lo:hi], params,
                          self.buf[:-1, lo:hi])

    def split(self, lo: int, hi: int, split: Split) -> int:
        """Stably reorder ``[lo, hi)`` left rows first; returns the boundary."""
        rows = self.buf[-1, lo:hi]
        self.go_left[rows] = self.features[rows, split.feature] <= split.threshold
        n_left = int(np.count_nonzero(self.go_left[rows]))
        block = self.buf[:, lo:hi]
        go_left = self.go_left[block].ravel()
        # compress, not boolean indexing: several times faster on int arrays
        flat = block.ravel()
        left = flat.compress(go_left)
        right = flat.compress(~go_left)
        block[:, :n_left] = left.reshape(len(block), n_left)
        block[:, n_left:] = right.reshape(len(block), -1)
        return lo + n_left


def _leaf_value(residuals: np.ndarray, rows: np.ndarray, lam: float) -> float:
    return float(residuals[rows].sum() / (len(rows) + lam))


def _grow(part: _Partition, residuals, params) -> tuple[RegressionTree, np.ndarray]:
    """Best-first growth over a heap of open leaves (see the module doc)."""
    depthwise = params.growth == "depthwise"
    max_depth = params.max_depth if depthwise else None
    max_leaves = float("inf") if depthwise else params.max_leaves
    tb = _TreeBuilder()
    leaves: dict[int, tuple[int, int]] = {}  # open leaf -> its slice
    heap: list[tuple[float, int, int, Split]] = []

    def open_leaf(lo: int, hi: int, depth: int) -> int:
        node = tb.add()
        tb.value[node] = _leaf_value(residuals, part.rows(lo, hi), params.reg_lambda)
        leaves[node] = (lo, hi)
        if max_depth is None or depth < max_depth:
            split = part.search(residuals, lo, hi, params)
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
        tb.left[node] = open_leaf(lo, mid, depth + 1)
        tb.right[node] = open_leaf(mid, hi, depth + 1)
    leaf_of_row = np.empty(len(residuals), dtype=np.int64)
    for node, (lo, hi) in leaves.items():
        leaf_of_row[part.rows(lo, hi)] = node
    return tb.finish(), leaf_of_row


def fit_gbdt(train: SampleTable, params: GbdtParams | None = None,
             name: str = "gbdt") -> GbdtModel:
    """Boost regression trees against the squared-error residuals.

    The base score is the mean target; each tree fits the current residuals
    and shifts predictions by learning_rate times its leaf values. Training
    stops early once a tree finds no split and adds nothing.
    """
    params = params or GbdtParams()
    if len(train) == 0:
        raise EmptyTableError("cannot fit on an empty table")
    X = np.ascontiguousarray(train.features)
    y = train.targets

    base = float(y.mean())
    pred = np.full(len(y), base)
    part = _Partition(X)

    trees: list[RegressionTree] = []
    rmse = [float(np.sqrt(np.mean((y - pred) ** 2)))]
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


def serialize_model(model: GbdtModel) -> dict:
    """Versioned JSON-ready document; roundtrips losslessly."""
    trees = []
    for tree in model.trees:
        nodes = []
        for i in range(tree.n_nodes):
            if tree.feature[i] < 0:
                nodes.append({"value": float(tree.value[i])})
            else:
                nodes.append({
                    "feature": int(tree.feature[i]),
                    "threshold": float(tree.threshold[i]),
                    "left": int(tree.left[i]),
                    "right": int(tree.right[i]),
                })
        trees.append({"root": 0, "nodes": nodes})
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "model_name": model.name,
        "params": model.params.to_doc(),
        "base_score": model.base_score,
        "feature_names": list(model.feature_names),
        "train_rmse": list(model.train_rmse),
        "trees": trees,
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
