"""Golden digests of GBDT documents fitted with exact split search.

Each case fits ``exact_oracle.fit_exact`` on a seeded table of about 2,000
rows by 11 features whose values are rounded so that ties are common, then
pins the sha256 of the canonical JSON of ``serialize_model``. Any change to
the exact reference, or to the grower, leaf arithmetic or document layout
it shares with the library's histogram search (``test_gbdt_hist_golden.py``),
that moves a single bit of a threshold, a leaf value or the training RMSE
trace changes the digest. Exact search was the library's own when these
pins were taken, and its documents recorded no ``params.split``, so they
are digested without it.

The first six pins were taken with a per-node sorting search like the
oracle's, before the library presorted each fit's table, so they witness
that the two produce byte-identical models. The last two were taken when
each growth still had its own grower loop, before both moved onto one
best-first grower.

Every column of that table has ties. ``TIE_FREE_CASES`` fit tables whose
columns are continuous, all of them or some, and ``PREDICTION_PINS`` pin
the bytes each golden model predicts for a held-out matrix. Both were taken
while split search still compared sorted values in every feature and trees
still predicted with a level-synchronous walk.
"""

import functools
import hashlib
import json

import numpy as np
import pytest

from demcorrect import GbdtParams, SampleTable, serialize_model
from exact_oracle import fit_exact

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


def continuous_table(seed: int, tied_columns=()) -> SampleTable:
    """Normal features without ties, except ``tied_columns`` rounded to 0.5."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(N_ROWS, N_FEATURES))
    for c in tied_columns:
        X[:, c] = np.round(X[:, c] * 2) / 2
    y = (np.sin(2 * X[:, 0]) + 0.5 * X[:, 1] * X[:, 2] + np.abs(X[:, 3])
         + 0.3 * X[:, 9] + 0.1 * rng.normal(size=N_ROWS))
    names = tuple(f"f{i}" for i in range(N_FEATURES))
    cells = np.column_stack([np.arange(N_ROWS), np.zeros(N_ROWS, dtype=int)])
    return SampleTable(names, cells, X, y)


TABLES = {
    "tied": lambda: golden_table(seed=20240617),
    "tie-free": lambda: continuous_table(seed=20261018),
    "mixed": lambda: continuous_table(seed=20261019, tied_columns=(1, 4, 7, 10)),
}


def has_ties(column: np.ndarray) -> bool:
    s = np.sort(column)
    return bool((s[1:] <= s[:-1]).any())


def model_digest(model) -> str:
    return document_digest(serialize_model(model))


def document_digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def exact_digest(model) -> str:
    """The digest of the document as exact search wrote it, without ``split``."""
    doc = serialize_model(model)
    del doc["params"]["split"]
    return document_digest(doc)


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


TIE_FREE_CASES = {
    "tie-free-depthwise": (
        "tie-free", GbdtParams(n_trees=20, growth="depthwise", max_depth=6),
        "73c569594b0434ab0d510c7c12be72e869aa0f2356538f68571b4a5c0dfed2f4",
    ),
    "tie-free-leafwise": (
        "tie-free", GbdtParams(n_trees=20, growth="leafwise", max_leaves=31),
        "8fa38d8b8f24775e5014e4ce889b2c4d07f465ee86e3cd6fb9dfc69da023b845",
    ),
    "tie-free-leafwise-min-leaf-3": (
        "tie-free", GbdtParams(n_trees=10, growth="leafwise", max_leaves=24,
                               min_samples_leaf=3, reg_lambda=0.0),
        "09f5a9ea17cfc7966ad54f7806dbe15f91c1c7c8dbd33d7c85fab7cc756f2db9",
    ),
    "mixed-depthwise": (
        "mixed", GbdtParams(n_trees=20, growth="depthwise", max_depth=6),
        "cc1f9ef0a2b7c3ad82a52cbee69750f913bee03be6d68ef661edf8a54c8a447c",
    ),
    "mixed-leafwise": (
        "mixed", GbdtParams(n_trees=20, growth="leafwise", max_leaves=31),
        "846af7e3d231a2a8da56eb58b782b74790d500b2811fb30b72de46018efee9f9",
    ),
}


@functools.lru_cache(maxsize=None)
def fitted(case: str):
    if case in CASES:
        table, (params, _) = "tied", CASES[case]
    else:
        table, params, _ = TIE_FREE_CASES[case]
    return fit_exact(TABLES[table](), params)


def held_out(model) -> np.ndarray:
    """Fresh rows, one row per split at its threshold, and non-finite rows.

    A value equal to a threshold must go left; NaN fails every ``<=`` and
    so goes right at every node.
    """
    rng = np.random.default_rng(7)
    fresh = rng.normal(size=(400, N_FEATURES))
    fresh[:200] = np.round(fresh[:200], 1)
    at_threshold = []
    for tree in model.trees:
        for node in np.flatnonzero(tree.feature >= 0):
            row = fresh[len(at_threshold) % len(fresh)].copy()
            row[tree.feature[node]] = tree.threshold[node]
            at_threshold.append(row)
    special = np.array([[np.nan] * N_FEATURES, [np.inf] * N_FEATURES,
                        [-np.inf] * N_FEATURES, [0.0] * N_FEATURES])
    return np.vstack([fresh, np.array(at_threshold).reshape(-1, N_FEATURES), special])


PREDICTION_PINS = {
    "depthwise": "f2e080dc4df99aaa069c9a290508ec131f1425dc76a3868d2580a90d6dbf693b",
    "leafwise": "2a469b71e24c3209b5bd08bee3eb801318d01344b1b8521462481efad68bfc09",
    "depthwise-min-leaf-3": "03a12035b2f404dbb39c738b62111983220f8bf137818dd05ffbdcea1ef24799",
    "leafwise-min-leaf-3": "b2e6775349a892c3c32ee19a2f66f788973ce21ee34d0139269661c600f184d6",
    "depthwise-lambda-0": "69389c33889ef5ba8eff4cfd130ea3a0288a7795cc6e016b6d2339abe5a8d656",
    "leafwise-lambda-0": "cfda35ebd64d82a6c73780552263df3297c409d83ba7e28064517fa9b31117cc",
    "depthwise-unbounded": "a60d043126c755136de33bdf0b564029dc23a687a7243a475d0df7e2950255fc",
    "leafwise-2-leaves": "c46b8f76ea92fe85cc1961f87d47a03d0dea323021eea898ae98e8c17533782a",
    "tie-free-depthwise": "e3040c85c6ffe7368bcf50b39fb54943db2b43d76adb02f6ebc8fc7cc6ba4c3f",
    "tie-free-leafwise": "fb677da48a99bd94d836a34c4e932313ff0d0d933f53790bc25ac413e6ea7db9",
    "tie-free-leafwise-min-leaf-3": "b693086d710a6abfc297e15fc087ecad89e4a68c02cafb359cccb5987f1cf029",
    "mixed-depthwise": "0f94873941f000f09e0495560e86413d4ec38168a2d714d30cdea539deeb6cd6",
    "mixed-leafwise": "38c3d81d0bb6805c1a63d6cd0de539c6fc5376ed7aef144343dd2c377a70f2d6",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_model_document_digest(case):
    params, pinned = CASES[case]
    model = fit_exact(golden_table(seed=20240617), params)
    assert exact_digest(model) == pinned


def test_tables_tie_as_named():
    tied = [[has_ties(col) for col in TABLES[t]().features.T] for t in TABLES]
    assert tied == [[True] * N_FEATURES,
                    [False] * N_FEATURES,
                    [c in (1, 4, 7, 10) for c in range(N_FEATURES)]]


@pytest.mark.parametrize("case", sorted(TIE_FREE_CASES))
def test_tie_free_model_document_digest(case):
    assert exact_digest(fitted(case)) == TIE_FREE_CASES[case][2]


@pytest.mark.parametrize("case", sorted(PREDICTION_PINS))
def test_prediction_digest(case):
    model = fitted(case)
    pred = model.predict_rows(held_out(model))
    assert hashlib.sha256(pred.tobytes()).hexdigest() == PREDICTION_PINS[case]


@pytest.mark.parametrize("case", ["depthwise", "tie-free-leafwise"])
def test_no_rows_predict_nothing(case):
    pred = fitted(case).predict_rows(np.empty((0, N_FEATURES)))
    assert pred.dtype == np.float64 and pred.shape == (0,)
