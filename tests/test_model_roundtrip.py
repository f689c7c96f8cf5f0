"""Property tests: a model read back from its JSON document predicts the same bits.

Each model is written the way the CLI writes it (``json.dumps`` with
``indent=2`` and sorted keys), parsed back, and rebuilt from the parsed
document. The rebuilt model's ``predict_rows`` must equal the fitted
model's bit for bit, on the training rows, on fresh rows and on rows
at and next to every split threshold, and rebuilding must not change
the document. A GBDT document of exact split search, which the library
no longer runs, still loads and predicts the bits of its model.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from demcorrect import (
    GbdtParams,
    LinearModel,
    SampleTable,
    deserialize_model,
    fit_gbdt,
    serialize_model,
)
from exact_oracle import fit_exact

# a handful of shared values makes ties, and so midpoint thresholds, common
VALUES = st.one_of(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0]),
                   st.floats(-1e3, 1e3, allow_nan=False, width=64))
FLOATS = st.floats(-1e6, 1e6, allow_nan=False, width=64)


def through_json(doc: dict) -> dict:
    return json.loads(json.dumps(doc, indent=2, sort_keys=True))


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype == np.float64
    assert a.tobytes() == b.tobytes()


def boundary_rows(model, n_features: int) -> np.ndarray:
    """Rows holding each threshold, and its neighbours, in every feature."""
    ts = np.concatenate([tree.threshold[tree.feature >= 0] for tree in model.trees]
                        + [np.zeros(0)])
    probes = np.concatenate([ts, np.nextafter(ts, -np.inf), np.nextafter(ts, np.inf)])
    return np.repeat(probes[:, None], n_features, axis=1)


@st.composite
def fits(draw):
    n = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 4))
    X = draw(hnp.arrays(np.float64, (n, n_features), elements=VALUES))
    y = draw(hnp.arrays(np.float64, n, elements=FLOATS))
    params = GbdtParams(
        n_trees=draw(st.integers(1, 5)),
        learning_rate=draw(st.sampled_from([0.1, 0.5, 1.0])),
        growth=draw(st.sampled_from(["depthwise", "leafwise"])),
        max_depth=draw(st.none() | st.integers(1, 4)),
        max_leaves=draw(st.integers(2, 8)),
        min_samples_leaf=draw(st.integers(1, 3)),
        reg_lambda=draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 10)),
    )
    names = tuple(f"f{i}" for i in range(n_features))
    cells = np.column_stack([np.arange(n), np.zeros(n, dtype=int)])
    query = draw(hnp.arrays(np.float64, (draw(st.integers(1, 20)), n_features),
                            elements=VALUES))
    return SampleTable(names, cells, X, y), params, np.vstack([X, query])


def assert_roundtrip(case):
    table, params, X = case
    model = fit_gbdt(table, params, name=f"gbdt-{params.growth}")
    doc = serialize_model(model)
    back = deserialize_model(through_json(doc))
    assert back.params == params
    X = np.vstack([X, boundary_rows(model, X.shape[1])])
    assert_same_bits(back.predict_rows(X), model.predict_rows(X))
    assert serialize_model(back) == doc


@settings(max_examples=200, deadline=None)
@given(fits())
def test_gbdt_document_roundtrip_predicts_same_bits(case):
    assert_roundtrip(case)


@settings(max_examples=100, deadline=None)
@given(fits())
def test_hist_gbdt_document_roundtrip_predicts_same_bits(case):
    """A fitted document records the histogram search it was grown by."""
    table, params, _ = case
    assert serialize_model(fit_gbdt(table, params))["params"]["split"] == "hist"
    assert_roundtrip(case)


@pytest.mark.parametrize("split", [None, "exact"], ids=["split-absent", "split-exact"])
@settings(max_examples=50, deadline=None)
@given(fits())
def test_exact_gbdt_document_predicts_same_bits(split, case):
    """Documents of exact search, as earlier versions wrote them: without
    ``params.split``, or with "exact". Written again, they record "hist"."""
    table, params, X = case
    model = fit_exact(table, params)
    doc = serialize_model(model)
    del doc["params"]["split"]
    if split:
        doc["params"]["split"] = split
    back = deserialize_model(through_json(doc))
    X = np.vstack([X, boundary_rows(model, X.shape[1])])
    assert_same_bits(back.predict_rows(X), model.predict_rows(X))
    assert serialize_model(back)["params"]["split"] == "hist"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_linear_document_roundtrip_predicts_same_bits(data):
    n_features = data.draw(st.integers(1, 6))
    model = LinearModel(
        tuple(f"f{i}" for i in range(n_features)),
        data.draw(FLOATS),
        data.draw(hnp.arrays(np.float64, n_features, elements=FLOATS)),
        data.draw(st.floats(0, 1)),
        data.draw(st.floats(0, 1e3)),
    )
    X = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 20)), n_features),
                             elements=VALUES))
    doc = model.to_doc()
    back = LinearModel.from_doc(through_json(doc))
    assert_same_bits(back.predict_rows(X), model.predict_rows(X))
    assert back.to_doc() == doc


def layouts(X: np.ndarray) -> list[np.ndarray]:
    """The values of ``X`` C-ordered, F-ordered, and as two strided views."""
    wide = np.zeros((2 * len(X), 2 * X.shape[1] + 1))
    wide[::2, 1::2] = X
    reversed_rows = np.asfortranarray(X[::-1])[::-1]
    out = [np.ascontiguousarray(X), np.asfortranarray(X), wide[::2, 1::2], reversed_rows]
    assert [a.flags.c_contiguous for a in out] == [True, X.shape[1] == 1 or len(X) == 1,
                                                   False, False]
    assert out[1].flags.f_contiguous
    return out


@settings(max_examples=100, deadline=None)
@given(fits(), st.data())
def test_predictions_do_not_depend_on_the_matrix_layout(case, data):
    table, params, X = case
    n_features = X.shape[1]
    linear = LinearModel(table.feature_names, data.draw(FLOATS),
                         data.draw(hnp.arrays(np.float64, n_features, elements=FLOATS)), 0.5, 1.0)
    for model in (fit_gbdt(table, params), linear):
        want = model.predict_rows(X)
        for view in layouts(X):
            assert_same_bits(model.predict_rows(view), want)
