import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from demcorrect import (
    GbdtModel,
    GbdtParams,
    ModelFormatError,
    RegressionTree,
    SampleTable,
    best_split,
    deserialize_model,
    fit_gbdt,
    fit_ols,
    serialize_model,
    split_table,
)
from demcorrect.gbdt import _BinnedPartition, _Histogram


def table_from(X, y, names=None):
    X = np.asarray(X, dtype=np.float64).reshape(len(y), -1)
    names = tuple(names) if names else tuple(f"f{i}" for i in range(X.shape[1]))
    cells = np.column_stack([np.arange(len(y)), np.zeros(len(y), dtype=int)])
    return SampleTable(names, cells, X, np.asarray(y, dtype=np.float64))


def split_oracle(X, res, rows, params):
    """Exhaustive pure-Python split enumeration with the same gain formula."""
    lam = params.reg_lambda
    best = None
    total = res[rows].sum()
    m = len(rows)
    parent = total ** 2 / (m + lam)
    for f in range(X.shape[1]):
        pairs = sorted((X[r, f], res[r]) for r in rows)
        xs = [p[0] for p in pairs]
        for i in range(m - 1):
            if xs[i + 1] <= xs[i]:
                continue
            n_l = i + 1
            if n_l < params.min_samples_leaf or m - n_l < params.min_samples_leaf:
                continue
            g_l = sum(p[1] for p in pairs[: i + 1])
            g_r = total - g_l
            gain = g_l ** 2 / (n_l + lam) + g_r ** 2 / (m - n_l + lam) - parent
            thr = (xs[i] + xs[i + 1]) / 2
            if best is None or gain > best[2] + 1e-15:
                best = (f, thr, gain)
    if best is None or best[2] <= params.min_gain:
        return None
    return best


def hist_split(X, res, rows, params):
    """``best_split`` on the histogram of ``rows``, as the grower calls it."""
    part = _BinnedPartition(X)
    rows = np.asarray(rows)
    hist = _Histogram(*part.build_histogram(res, rows), part.low, part.high)
    with np.errstate(divide="ignore", invalid="ignore"):  # as fit_gbdt under lambda 0
        return best_split(X, res, rows, params, hist)


class TestBestSplit:
    def test_pure_node_no_split(self):
        X = np.array([[1.0], [2.0], [3.0]])
        res = np.array([2.0, 2.0, 2.0])
        assert hist_split(X, res, np.arange(3), GbdtParams(reg_lambda=0.0)) is None

    def test_hand_enumerated_step(self):
        # oracle: 3 candidates; t=2.5 gives 4/2 + 4/2 - 0 = 4
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        res = np.array([-1.0, -1.0, 1.0, 1.0])
        s = hist_split(X, res, np.arange(4), GbdtParams(reg_lambda=0.0))
        assert s.feature == 0
        assert s.threshold == pytest.approx(2.5)
        assert s.gain == pytest.approx(4.0)

    def test_identical_features_tie_lower_index(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([x, x])
        res = np.array([-1.0, -1.0, 1.0, 1.0])
        s = hist_split(X, res, np.arange(4), GbdtParams(reg_lambda=0.0))
        assert s.feature == 0

    def test_min_samples_leaf_respected(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        res = np.array([-9.0, 1.0, 1.0, 1.0])
        s = hist_split(X, res, np.arange(4), GbdtParams(reg_lambda=0.0, min_samples_leaf=2))
        assert s.threshold == pytest.approx(2.5)  # 1.5 and 3.5 are ruled out

    def test_min_gain_gate(self):
        X = np.array([[1.0], [2.0]])
        res = np.array([0.0, 1.0])
        p0 = GbdtParams(reg_lambda=0.0, min_gain=0.0)
        assert hist_split(X, res, np.arange(2), p0) is not None
        p_high = GbdtParams(reg_lambda=0.0, min_gain=10.0)
        assert hist_split(X, res, np.arange(2), p_high) is None

    def test_matches_exhaustive_oracle(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(25, 3))
            res = rng.normal(size=25)
            rows = np.sort(rng.choice(25, size=18, replace=False))
            params = GbdtParams(reg_lambda=float(rng.uniform(0, 2)))
            got = hist_split(X, res, rows, params)
            want = split_oracle(X, res, rows, params)
            assert (got is None) == (want is None)
            if got:
                assert got.feature == want[0]
                assert got.threshold == pytest.approx(want[1], rel=1e-12)
                assert got.gain == pytest.approx(want[2], rel=1e-9)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("lo, hi", [(-5e-324, 0.0), (1.0 + 2**-52, 1.0 + 2**-51),
                                        (1.5e308, 1.7e308), (-1.7e308, -1.5e308)])
    def test_threshold_separates_adjacent_values(self, lo, hi):
        """A midpoint that rounds onto the upper value, or overflows, would
        leave one child empty (its value 0/0 under lambda 0)."""
        X = np.array([[lo], [lo], [hi], [hi]])
        res = np.array([-1.0, -1.0, 1.0, 1.0])
        s = hist_split(X, res, np.arange(4), GbdtParams(reg_lambda=0.0))
        assert lo <= s.threshold < hi
        model = fit_gbdt(table_from(X, res),
                         GbdtParams(n_trees=1, learning_rate=1.0, reg_lambda=0.0))
        assert np.array_equal(model.predict_rows(X), res)

    def test_subset_rows_only(self):
        X = np.array([[1.0], [2.0], [100.0], [200.0]])
        res = np.array([0.0, 0.0, -5.0, 5.0])
        s = hist_split(X, res, np.array([2, 3]), GbdtParams(reg_lambda=0.0))
        assert s.threshold == pytest.approx(150.0)


class TestFit:
    def test_lambda_0_fit_warns_of_nothing(self, rng):
        """Under lambda 0 every search divides by 0 in cuts it rules out;
        the fit must not let numpy warn of it."""
        t = table_from(rng.normal(size=(50, 2)), rng.normal(size=50))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_gbdt(t, GbdtParams(n_trees=3, growth="leafwise", reg_lambda=0.0))
        assert len(model.trees) == 3

    def test_constant_target_exact(self, rng):
        X = rng.normal(size=(20, 2))
        m = fit_gbdt(table_from(X, np.full(20, 7.0)), GbdtParams(n_trees=5))
        assert np.array_equal(m.predict_rows(X), np.full(20, 7.0))
        assert len(m.trees) == 0  # converged immediately

    def test_step_target_geometric_decay(self):
        # (1 - 0.3)^50 * 5 ~ 9e-8, comfortably below 1e-3
        x = np.linspace(-1, 1, 40)
        y = np.where(x < 0, 0.0, 10.0)
        params = GbdtParams(n_trees=50, learning_rate=0.3, reg_lambda=0.0)
        m = fit_gbdt(table_from(x, y), params)
        assert m.train_rmse[-1] < 1e-3

    def test_monotone_training_loss(self, rng):
        X = rng.normal(size=(120, 4))
        y = X @ [1.0, -2.0, 0.5, 0.0] + np.sin(3 * X[:, 3]) + rng.normal(size=120) * 0.1
        for growth in ("depthwise", "leafwise"):
            m = fit_gbdt(table_from(X, y), GbdtParams(n_trees=30, growth=growth))
            curve = np.array(m.train_rmse)
            assert np.all(np.diff(curve) <= 1e-12)

    def test_exact_fit_single_tree(self, rng):
        X = rng.uniform(size=(60, 3))
        y = rng.normal(size=60)
        params = GbdtParams(n_trees=1, learning_rate=1.0, reg_lambda=0.0,
                            max_depth=None, min_samples_leaf=1)
        m = fit_gbdt(table_from(X, y), params)
        assert m.train_rmse[-1] < 1e-10

    def test_depthwise_depth_cap(self, rng):
        X = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        m = fit_gbdt(table_from(X, y), GbdtParams(n_trees=3, max_depth=4))
        for tree in m.trees:
            assert tree.depth() <= 4

    def test_leafwise_leaf_cap(self, rng):
        X = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        m = fit_gbdt(table_from(X, y), GbdtParams(n_trees=3, growth="leafwise", max_leaves=8))
        for tree in m.trees:
            assert tree.n_leaves <= 8

    def test_deterministic_documents(self, rng):
        X = rng.normal(size=(80, 3))
        y = rng.normal(size=80)
        t = table_from(X, y)
        d1 = json.dumps(serialize_model(fit_gbdt(t, GbdtParams(n_trees=10))), sort_keys=True)
        d2 = json.dumps(serialize_model(fit_gbdt(t, GbdtParams(n_trees=10))), sort_keys=True)
        assert d1 == d2

    def test_empty_table_rejected(self):
        t = SampleTable(("x",), np.zeros((0, 2)), np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError, match="empty"):
            fit_gbdt(t)

    def test_linear_target_ols_wins_on_test(self, rng):
        X = rng.normal(size=(400, 3))
        y = 1.5 + X @ [2.0, -1.0, 0.5]
        table = table_from(X, y)
        train, test = split_table(table, train_fraction=0.8, seed=3)
        gb = fit_gbdt(train, GbdtParams(n_trees=60))
        ols = fit_ols(train)
        rmse = lambda m: float(np.sqrt(np.mean((m.predict_rows(test.features) - test.targets) ** 2)))
        assert rmse(gb) >= rmse(ols)


def predict_one(model, x):
    """``predict_rows`` on a 1-row array."""
    return model.predict_rows(np.array([x], dtype=np.float64))[0]


class TestPredict:
    def leaf_pair_model(self, lr=1.0):
        doc = {
            "format": "gbdt-model", "version": 1, "model_name": "gbdt",
            "params": GbdtParams(n_trees=1, learning_rate=lr, reg_lambda=0.0).to_doc(),
            "base_score": 0.0,
            "feature_names": ["x"],
            "train_rmse": [],
            "trees": [{"root": 0, "nodes": [
                {"feature": 0, "threshold": 2.5, "left": 1, "right": 2},
                {"value": -1.0},
                {"value": 1.0},
            ]}],
        }
        return deserialize_model(doc)

    def test_zero_trees_base_score(self):
        m = GbdtModel(3.25, (), GbdtParams(), ("x",))
        assert predict_one(m, [0.0]) == 3.25

    def test_manual_tree_walk(self):
        m = self.leaf_pair_model()
        assert predict_one(m, [2.0]) == -1.0
        assert predict_one(m, [3.0]) == 1.0
        assert predict_one(m, [2.5]) == -1.0  # <= goes left

    def test_learning_rate_scales_leaves(self):
        m = self.leaf_pair_model(lr=0.5)
        assert predict_one(m, [10.0]) == 0.5

    def test_piecewise_constant_routing(self, rng):
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        m = fit_gbdt(table_from(X, y), GbdtParams(n_trees=5, max_depth=2))
        a = predict_one(m, [0.31, 0.7])
        b = predict_one(m, [0.31 + 1e-12, 0.7])  # same leaves
        assert a == b

    def test_one_row_matches_batch(self, rng):
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        m = fit_gbdt(table_from(X, y), GbdtParams(n_trees=8))
        batch = m.predict_rows(X)
        for i in range(0, 30, 7):
            assert batch[i] == predict_one(m, X[i])

    def test_length_mismatch(self):
        m = GbdtModel(0.0, (), GbdtParams(), ("a", "b"))
        with pytest.raises(ValueError, match=r"\(n, 2\) features"):
            predict_one(m, [1.0])


def level_walk(tree, X):
    """The oracle: every row steps one level per pass, all rows at once.

    Trees predicted this way before rows were routed by partition.
    """
    idx = np.zeros(len(X), dtype=np.int64)
    while True:
        feat = tree.feature[idx]
        active = feat >= 0
        if not active.any():
            break
        rows = np.flatnonzero(active)
        node = idx[rows]
        go_left = X[rows, tree.feature[node]] <= tree.threshold[node]
        idx[rows] = np.where(go_left, tree.left[node], tree.right[node])
    return tree.value[idx]


# a few shared values give ties and rows that land on thresholds
VALUES = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-10, 10, width=64)


@st.composite
def fitted_models(draw):
    n = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 4))
    X = draw(hnp.arrays(np.float64, (n, n_features), elements=VALUES))
    y = draw(hnp.arrays(np.float64, n, elements=st.floats(-10, 10, width=64)))
    growth = draw(st.sampled_from(["depthwise", "leafwise"]))
    params = GbdtParams(n_trees=draw(st.integers(1, 3)), growth=growth,
                        max_depth=draw(st.none() | st.integers(1, 5)),
                        max_leaves=draw(st.integers(2, 12)),
                        min_samples_leaf=draw(st.integers(1, 3)))
    return fit_gbdt(table_from(X, y), params), X


@settings(max_examples=200, deadline=None)
@given(fitted_models(), st.data())
def test_routed_prediction_equals_level_walk(fitted, data):
    model, X = fitted
    n_features = X.shape[1]
    drawn = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(0, 20)), n_features),
                                 elements=VALUES | st.just(np.nan)))
    queries = [drawn, drawn[:0], X]
    for tree in model.trees:  # one row on each split's threshold
        splits = np.flatnonzero(tree.feature >= 0)
        at = np.zeros((len(splits), n_features))
        at[np.arange(len(splits)), tree.feature[splits]] = tree.threshold[splits]
        queries.append(at)
    leaf = RegressionTree(np.array([-1]), np.array([0.0]), np.array([-1]), np.array([-1]),
                          np.array([data.draw(st.floats(-10, 10, width=64))]))
    for Q in queries:
        for tree in (*model.trees, leaf):
            assert tree.predict_rows(Q).tobytes() == level_walk(tree, Q).tobytes()
        want = np.full(len(Q), model.base_score)
        for tree in model.trees:
            want += model.params.learning_rate * level_walk(tree, Q)
        assert model.predict_rows(Q).tobytes() == want.tobytes()


class TestSerialization:
    def test_roundtrip_bit_exact_predictions(self, rng):
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        m = fit_gbdt(table_from(X, y), GbdtParams(n_trees=12, growth="leafwise"))
        doc = json.loads(json.dumps(serialize_model(m)))
        back = deserialize_model(doc)
        assert np.array_equal(back.predict_rows(X), m.predict_rows(X))
        assert back.params == m.params
        assert back.train_rmse == m.train_rmse

    def test_hand_written_single_leaf(self):
        doc = {
            "format": "gbdt-model", "version": 1,
            "params": GbdtParams(n_trees=1).to_doc(),
            "base_score": 2.0,
            "feature_names": ["x"],
            "trees": [{"root": 0, "nodes": [{"value": 30.0}]}],
        }
        m = deserialize_model(doc)
        assert predict_one(m, [123.0]) == 2.0 + 0.1 * 30.0

    def test_cycle_rejected(self):
        doc = {
            "format": "gbdt-model", "version": 1,
            "params": GbdtParams().to_doc(),
            "base_score": 0.0,
            "feature_names": ["x"],
            "trees": [{"root": 0, "nodes": [
                {"feature": 0, "threshold": 0.0, "left": 1, "right": 1},
                {"feature": 0, "threshold": 0.0, "left": 0, "right": 0},
            ]}],
        }
        with pytest.raises(ModelFormatError, match="twice|cycle"):
            deserialize_model(doc)

    def test_unreachable_node_rejected(self):
        doc = {
            "format": "gbdt-model", "version": 1,
            "params": GbdtParams().to_doc(),
            "base_score": 0.0,
            "feature_names": ["x"],
            "trees": [{"root": 0, "nodes": [{"value": 1.0}, {"value": 2.0}]}],
        }
        with pytest.raises(ModelFormatError, match="unreachable"):
            deserialize_model(doc)

    def test_depth_walks_from_root_in_any_storage_order(self):
        # node 3 is internal and stored after its internal child node 2
        doc = {
            "format": "gbdt-model", "version": 1,
            "params": GbdtParams(n_trees=1).to_doc(),
            "base_score": 0.0,
            "feature_names": ["x"],
            "trees": [{"root": 0, "nodes": [
                {"feature": 0, "threshold": 0.0, "left": 1, "right": 3},
                {"value": -1.0},
                {"feature": 0, "threshold": 2.0, "left": 5, "right": 6},
                {"feature": 0, "threshold": 4.0, "left": 2, "right": 4},
                {"value": 4.0},
                {"value": 1.0},
                {"value": 3.0},
            ]}],
        }
        tree = deserialize_model(doc).trees[0]
        assert tree.depth() == 3
        assert tree.predict_rows(np.array([[-1.0], [1.0], [3.0], [5.0]])).tolist() \
            == [-1.0, 1.0, 3.0, 4.0]

    def test_version_mismatch(self):
        with pytest.raises(ModelFormatError, match="version"):
            deserialize_model({"format": "gbdt-model", "version": 99})

    def test_out_of_range_child(self):
        doc = {
            "format": "gbdt-model", "version": 1,
            "params": GbdtParams().to_doc(),
            "base_score": 0.0,
            "feature_names": ["x"],
            "trees": [{"root": 0, "nodes": [
                {"feature": 0, "threshold": 0.0, "left": 1, "right": 5},
                {"value": 0.0},
            ]}],
        }
        with pytest.raises(ModelFormatError, match="out of range"):
            deserialize_model(doc)


class TestParams:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            GbdtParams(n_trees=0)
        with pytest.raises(ValueError):
            GbdtParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            GbdtParams(growth="bestfirst")
        with pytest.raises(ValueError):
            GbdtParams(reg_lambda=-1.0)

    def test_doc_roundtrip_with_unlimited_depth(self):
        p = GbdtParams(max_depth=None, growth="leafwise", max_leaves=63)
        assert GbdtParams.from_doc(json.loads(json.dumps(p.to_doc()))) == p

    def test_split_written_only_for_hist(self):
        """Every document records the one split search, hist; those of exact
        search, with "exact" or without the key, read back alike."""
        p = GbdtParams()
        doc = json.loads(json.dumps(p.to_doc()))
        assert doc["split"] == "hist"
        legacy = {k: v for k, v in doc.items() if k != "split"}
        for d in (doc, legacy, {**legacy, "split": "exact"}):
            assert GbdtParams.from_doc(d) == p

    @pytest.mark.parametrize("split", ["approx", None, 1])
    def test_unknown_split_refused(self, rng, split):
        t = table_from(rng.normal(size=(20, 2)), rng.normal(size=20))
        doc = serialize_model(fit_gbdt(t, GbdtParams(n_trees=2)))
        doc["params"]["split"] = split
        with pytest.raises(ModelFormatError, match="split must be 'exact' or 'hist'"):
            deserialize_model(doc)
