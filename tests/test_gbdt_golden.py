"""Golden digests of fitted GBDT documents.

Each case fits ``fit_gbdt`` on a seeded table of about 2,000 rows by 11
features whose values are rounded so that ties are common, then pins the
sha256 of the canonical JSON of ``serialize_model``. Any change to split
search, partitioning or leaf arithmetic that moves a single bit of a
threshold, a leaf value or the training RMSE trace changes the digest.

The first six pins were taken with the per-node sorting split search that
preceded the presorted engine, so they also witness that the two produce
byte-identical models. The last two were taken when each growth still had
its own grower loop, before both moved onto one best-first grower.
"""

import hashlib
import json

import numpy as np
import pytest

from demcorrect import GbdtParams, SampleTable, fit_gbdt, serialize_model

N_ROWS = 2000
N_FEATURES = 11


def golden_table(seed: int) -> SampleTable:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(N_ROWS, N_FEATURES))
    # coarse rounding: a few dozen distinct values per column, so ties abound
    X[:, :6] = np.round(X[:, :6], 1)
    X[:, 6:9] = np.round(X[:, 6:9] * 4) / 4
    X[:, 9] = rng.integers(0, 5, N_ROWS)   # categorical-like column
    X[:, 10] = X[:, 0]                       # exact duplicate of feature 0
    y = (np.sin(2 * X[:, 0]) + 0.5 * X[:, 1] * X[:, 2] + np.abs(X[:, 3])
         + 0.3 * X[:, 9] + 0.1 * rng.normal(size=N_ROWS))
    y = np.round(y, 2)
    names = tuple(f"f{i}" for i in range(N_FEATURES))
    cells = np.column_stack([np.arange(N_ROWS), np.zeros(N_ROWS, dtype=int)])
    return SampleTable(names, cells, X, y)


def model_digest(model) -> str:
    canon = json.dumps(serialize_model(model), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


CASES = {
    "depthwise": (
        GbdtParams(n_trees=20, growth="depthwise", max_depth=6),
        "357f6dd69e17dad360e22f79c6c1a283599cea1c774ca4d26729918ef44a8fe2",
    ),
    "leafwise": (
        GbdtParams(n_trees=20, growth="leafwise", max_leaves=31),
        "55c774c9e032485f982f812be3dd7dbf90da270e3aaf6e1c688f99ca90977363",
    ),
    "depthwise-min-leaf-3": (
        GbdtParams(n_trees=20, growth="depthwise", max_depth=5, min_samples_leaf=3),
        "7358102ef29d954b0ff8c5a916d5d340bdbd63bf352d70b5c4f7b7dead36a766",
    ),
    "leafwise-min-leaf-3": (
        GbdtParams(n_trees=20, growth="leafwise", max_leaves=24, min_samples_leaf=3),
        "85cf2ea4afc05f95b14ddad91e86bb0c630c57e181a3ac002c6715942cc82deb",
    ),
    "depthwise-lambda-0": (
        GbdtParams(n_trees=20, growth="depthwise", max_depth=6, reg_lambda=0.0),
        "23651dcf0d92edce4ffb6d7b15186f28d1150cd067245348fc87bab9605e80c0",
    ),
    "leafwise-lambda-0": (
        GbdtParams(n_trees=10, growth="leafwise", max_leaves=48, reg_lambda=0.0,
                   learning_rate=0.3),
        "9ac75cc6bfa8ab56fb75e6bc4740d9b778bd9d4d7383459ae080ef4f5c952662",
    ),
    # no depth cap: every leaf is searched until no split gains
    "depthwise-unbounded": (
        GbdtParams(n_trees=5, growth="depthwise", max_depth=None),
        "458ddd8993e67da26d564d18cc74be8bc8e75f67b5c36f9eb92b2a1b4b828e46",
    ),
    # the leaf cap stops growth while splittable leaves remain open
    "leafwise-2-leaves": (
        GbdtParams(n_trees=20, growth="leafwise", max_leaves=2),
        "0064d9aa811bb44d12df469eab931be14a98298e09a4084d5e312dc831b402e0",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_model_document_digest(case):
    params, pinned = CASES[case]
    model = fit_gbdt(golden_table(seed=20240617), params)
    assert model_digest(model) == pinned
