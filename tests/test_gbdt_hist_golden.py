"""Golden digests of GBDT documents fitted with histogram split search.

The tables are those of ``test_gbdt_golden.py``: every column tied (each
with at most 255 distinct values, so one bin per value), no column tied
(255 quantile bins per column), and a mix of both. Any change to binning,
histogram building or subtraction, cut scoring or thresholds that moves a
single bit of a document changes its digest. The pins were taken when the
hist mode was added beside exact search, which was then the default.
"""

import pytest

from demcorrect import GbdtParams, fit_gbdt, serialize_model
from test_gbdt_golden import TABLES, model_digest

GROWTHS = {
    "depthwise": GbdtParams(n_trees=20, growth="depthwise", max_depth=6),
    "leafwise": GbdtParams(n_trees=20, growth="leafwise", max_leaves=31),
}

PINS = {
    ("tied", "depthwise"): "e1239d2b6389e99c6336d165dbef53642b7a71f31a092088c2b0e0ac687047d0",
    ("tied", "leafwise"): "ab1d52ceef0e8523eda40e7059d039153ed8f914e36598a6505d1808755581d3",
    ("tie-free", "depthwise"): "c5ced1cf8a1bc0952cdc9cc918fccc1eabfda854e851679f91ec5e6f3bae5abb",
    ("tie-free", "leafwise"): "e99664fa5f03405978cbf193dce6d2101db311bcd56ebe6e77491d7437915bc5",
    ("mixed", "depthwise"): "f0255a3aeb647a8dc0f126332926c87aceee1e8cf7cc93e9d914135bc162dd97",
    ("mixed", "leafwise"): "f18b09c9a2389f9b494a412c2e54bddf36a8cd89395e106797055ec143e5ef6e",
}


@pytest.mark.parametrize("table, growth", sorted(PINS), ids=[f"{t}-{g}" for t, g in sorted(PINS)])
def test_hist_model_document_digest(table, growth):
    model = fit_gbdt(TABLES[table](), GROWTHS[growth])
    assert serialize_model(model)["params"]["split"] == "hist"
    assert model_digest(model) == PINS[table, growth]
