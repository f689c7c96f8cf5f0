import contextlib
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demcorrect import (
    EmptyTableError,
    EvaluationReport,
    FeatureStack,
    GbdtParams,
    GridReader,
    LinearModel,
    SampleTable,
    StrataLabelError,
    abs_error_grid,
    apply_correction,
    build_report,
    compute_metrics,
    difference,
    fit_gbdt,
    pct_rmse_reduction,
    predict_error_grid,
    save_grid,
)
import demcorrect.terrain as terrain
from demcorrect.evaluate import _stratum_result
from demcorrect.grid import GeometryMismatch, distinct_values
from demcorrect.sampling import check_labels, label_faults, label_values
from conftest import NODATA, make_grid, random_stacks, stack_backings


def metrics_oracle(e):
    """Plain numpy reference formulas."""
    e = np.asarray(e, dtype=np.float64)
    me = e.mean()
    return (len(e), me, np.abs(e).mean(), math.sqrt((e ** 2).mean()),
            math.sqrt(((e - me) ** 2).sum() / (len(e) - 1)) if len(e) > 1 else 0.0)


class TestMetrics:
    def test_zero_errors(self):
        m = compute_metrics([0.0, 0.0, 0.0])
        assert (m.me, m.mae, m.rmse, m.std) == (0.0, 0.0, 0.0, 0.0)

    def test_plus_minus_one(self):
        m = compute_metrics([1.0, -1.0])
        assert m.me == 0.0
        assert m.mae == 1.0
        assert m.rmse == 1.0
        assert m.std == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_three_four(self):
        m = compute_metrics([3.0, 4.0])
        assert m.me == pytest.approx(3.5)
        assert m.rmse == pytest.approx(math.sqrt(12.5), abs=1e-15)

    def test_matches_oracle_and_identity(self, rng):
        for _ in range(10):
            e = rng.normal(size=rng.integers(2, 400)) * rng.uniform(0.1, 50)
            m = compute_metrics(e)
            n, me, mae, rmse, std = metrics_oracle(e)
            assert m.me == pytest.approx(me, rel=1e-12)
            assert m.mae == pytest.approx(mae, rel=1e-12)
            assert m.rmse == pytest.approx(rmse, rel=1e-12)
            assert m.std == pytest.approx(std, rel=1e-12)
            # rmse^2 = me^2 + std^2 (n-1)/n
            assert m.rmse ** 2 == pytest.approx(m.me ** 2 + m.std ** 2 * (n - 1) / n,
                                                rel=1e-9)
            assert m.mae <= m.rmse + 1e-15

    def test_single_value(self):
        m = compute_metrics([2.5])
        assert (m.me, m.rmse, m.std) == (2.5, 2.5, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compute_metrics([])


class TestPctReduction:
    def test_no_change(self):
        assert pct_rmse_reduction(10.0, 10.0) == 0.0

    def test_perfect(self):
        assert pct_rmse_reduction(10.0, 0.0) == 100.0

    def test_half(self):
        assert pct_rmse_reduction(10.0, 5.0) == 50.0

    def test_worsening_negative(self):
        assert pct_rmse_reduction(10.0, 12.0) == pytest.approx(-20.0)

    def test_zero_before_rejected(self):
        with pytest.raises(ValueError):
            pct_rmse_reduction(0.0, 1.0)


class TestCorrectionOps:
    def test_apply_correction_arithmetic(self):
        dem = make_grid([[100.0]])
        dh = make_grid([[2.0]])
        assert apply_correction(dem, dh).values[0, 0] == 98.0

    def test_zero_prediction_identity(self, rng):
        dem = make_grid(rng.normal(size=(4, 4)) + 300)
        zero = dem.with_values(np.zeros((4, 4)))
        assert np.array_equal(apply_correction(dem, zero).values, dem.values)

    def test_oracle_cancellation_bit_exact(self, rng):
        ref = make_grid(300 + rng.normal(size=(6, 6)) * 15)
        dem = make_grid(ref.values + rng.normal(size=(6, 6)) * 4)
        corrected = apply_correction(dem, dem.with_values(difference(dem, ref).rows(0, 6)))
        assert np.array_equal(corrected.values, ref.values)

    def test_nodata_propagates(self):
        dem = make_grid([[100.0, NODATA]])
        dh = make_grid([[NODATA, 1.0]])
        out = apply_correction(dem, dh)
        assert np.all(out.values == NODATA)

    def test_abs_error(self):
        got = abs_error_grid(make_grid([[98.0, 103.0]]), make_grid([[100.0, 100.0]]))
        assert np.array_equal(got.values, [[2.0, 3.0]])

    def test_abs_error_identity_zero(self, rng):
        ref = make_grid(rng.normal(size=(3, 3)))
        assert np.all(abs_error_grid(ref, ref).values == 0.0)

    def test_geometry_checks(self):
        a = make_grid([[1.0]])
        b = make_grid([[1.0]], cellsize=2.0)
        for op in (apply_correction, abs_error_grid):
            with pytest.raises(GeometryMismatch):
                op(a, b)


class TestPredictErrorGrid:
    def stack_of(self, layers):
        return FeatureStack(tuple(layers), tuple(layers.values()))

    def test_constant_model_uniform(self):
        g = make_grid(np.zeros((3, 3)))
        stack = self.stack_of({"a": g})
        model = LinearModel(("a",), 5.0, [0.0], 0.0, 0.0)
        out = predict_error_grid(model, stack)
        assert np.all(out.values == 5.0)

    def test_matches_tabular_prediction(self, rng):
        a = make_grid(rng.normal(size=(4, 4)))
        b = make_grid(rng.normal(size=(4, 4)))
        stack = self.stack_of({"a": a, "b": b})
        model = LinearModel(("b", "a"), 1.0, [2.0, -0.5], 0.0, 0.0)
        out = predict_error_grid(model, stack)
        for i in (0, 3):
            for j in (1, 2):
                x = np.array([[b.values[i, j], a.values[i, j]]])
                assert out.values[i, j] == model.predict_rows(x)[0]

    def test_nodata_feature_cell_is_nodata(self):
        vals = np.ones((3, 3))
        vals[1, 1] = NODATA
        stack = self.stack_of({"a": make_grid(vals)})
        model = LinearModel(("a",), 0.0, [1.0], 0.0, 0.0)
        out = predict_error_grid(model, stack)
        assert out.values[1, 1] == NODATA
        assert out.values[0, 0] == 1.0

    def test_missing_layer_rejected(self):
        stack = self.stack_of({"a": make_grid([[1.0]])})
        model = LinearModel(("zzz",), 0.0, [1.0], 0.0, 0.0)
        with pytest.raises(KeyError, match="zzz"):
            predict_error_grid(model, stack)

    def test_works_with_gbdt(self, rng):
        a = make_grid(rng.normal(size=(5, 5)))
        stack = self.stack_of({"a": a})
        cells = np.column_stack([np.arange(10), np.zeros(10, dtype=int)])
        t = SampleTable(("a",), cells, rng.normal(size=(10, 1)), rng.normal(size=10))
        model = fit_gbdt(t, GbdtParams(n_trees=3))
        out = predict_error_grid(model, stack)
        assert out.valid_mask().all()


def predict_error_grid_oracle(model, stack):
    """``predict_error_grid`` as one ``predict_rows`` call over every valid
    cell of whole layers, as it was before it read the stack in row blocks:
    the oracle of the blocked one."""
    layers = [stack.layer(name) for name in model.feature_names]
    ref = stack.layers[0]
    valid = np.ones((ref.nrows, ref.ncols), dtype=bool)
    for layer in layers:
        valid &= layer.valid_mask()
    out = np.full(valid.shape, ref.nodata)
    if np.count_nonzero(valid):
        X = np.empty((np.count_nonzero(valid), len(layers)))
        for j, layer in enumerate(layers):
            X[:, j] = layer.values[valid]
        out[valid] = model.predict_rows(X)
    return ref.with_values(out)


@st.composite
def predict_cases(draw):
    """A stack, and an MLR or a GBDT over some of its layers in any order."""
    stack, _ = draw(random_stacks(max_rows=32, max_cols=36))
    names = draw(st.permutations(stack.names))[:draw(st.integers(1, len(stack.names)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        model = LinearModel(tuple(names), float(rng.normal()), rng.normal(size=len(names)),
                            0.0, 0.0)
    else:
        n = 40
        cells = np.column_stack([np.arange(n), np.zeros(n, dtype=int)])
        features = np.round(rng.normal(size=(n, len(names))) * 10, 1)
        table = SampleTable(tuple(names), cells, features, rng.normal(size=n))
        model = fit_gbdt(table, GbdtParams(n_trees=3, max_depth=3))
    return stack, model


class TestBlockedPredict:
    """Predicting a block of rows at a time gives the bits of one call over
    every valid cell, from each backing of the stack."""

    @settings(max_examples=100, deadline=None)
    @given(predict_cases(), st.integers(1, 32))
    def test_equals_the_whole_grid_oracle(self, case, block_rows):
        stack, model = case
        with tempfile.TemporaryDirectory() as tmp, stack_backings(stack, Path(tmp)) as backings:
            for backing, (plain, read) in backings.items():
                want = predict_error_grid_oracle(model, plain)
                got, blocks = [], []
                with mock.patch.object(terrain, "BLOCK_ROWS", block_rows):
                    grid = predict_error_grid(model, read)
                    assert predict_error_grid(model, read, sink=lambda first, rows: got.append(
                        (first, rows.copy()))) is None
                    blocks = terrain.row_blocks(want.nrows)
                assert grid.values.tobytes() == want.values.tobytes(), backing
                assert (grid.geometry, grid.nodata) == (want.geometry, want.nodata), backing
                assert [first for first, _ in got] == [r0 for r0, _ in blocks], backing
                assert np.concatenate([rows for _, rows in got]).tobytes() == \
                    want.values.tobytes(), backing

    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    @pytest.mark.parametrize("rows", [900, 129, 130, 131, 135])
    def test_mlr_in_chunks_of_64_rows(self, rng, block_rows, rows):
        """``LinearModel.predict_rows`` over calls of ``block_rows`` rows, over
        a random split, over 1-row calls, and through ``predict_error_grid``
        with blocks of that height, gives the bytes of one call. A matrix
        product would round the last rows of a call by their count."""
        for _ in range(10):
            layers = {f"f{i}": make_grid(rng.normal(size=(rows, 1)) * 10) for i in range(4)}
            stack = FeatureStack(tuple(layers), tuple(layers.values()))
            model = LinearModel(tuple(layers)[::-1], 0.5, rng.normal(size=4), 0.0, 0.0)
            X = np.column_stack([layers[name].values.ravel() for name in model.feature_names])
            want = model.predict_rows(X)
            cuts = np.arange(block_rows, rows, block_rows)
            random_cuts = np.unique(rng.integers(1, rows, size=rows // 4))
            for split in (cuts, random_cuts, np.arange(1, rows)):
                got = np.concatenate([model.predict_rows(part) for part in np.split(X, split)])
                assert got.tobytes() == want.tobytes()
            with mock.patch.object(terrain, "BLOCK_ROWS", block_rows):
                grid = predict_error_grid(model, stack)
            assert grid.values.ravel().tobytes() == want.tobytes()


class TestBuildReport:
    def grids(self, rng, n=8):
        ref = make_grid(300 + rng.normal(size=(n, n)) * 10)
        dem = make_grid(ref.values + 2 + rng.normal(size=(n, n)))
        strata = make_grid(np.where(np.arange(n)[:, None] < n // 2,
                                    np.ones((n, n)), 2 * np.ones((n, n))))
        return ref, dem, strata

    def test_noop_correction_zero_reduction(self, rng):
        ref, dem, strata = self.grids(rng)
        rep = build_report(ref, dem, {"m": dem}, strata)
        assert rep.overall.reduction["m"] == pytest.approx(0.0)
        for res in rep.strata.values():
            assert res.reduction["m"] == pytest.approx(0.0)

    def test_perfect_correction_full_reduction(self, rng):
        ref, dem, strata = self.grids(rng)
        rep = build_report(ref, dem, {"m": ref}, strata)
        assert rep.overall.reduction["m"] == 100.0
        for res in rep.strata.values():
            assert res.reduction["m"] == 100.0

    def test_two_strata_hand_arithmetic(self):
        # stratum 1 before-RMSE 2 -> after 1 (50%); stratum 2 before 4 -> after 1 (75%)
        ref = make_grid(np.zeros((2, 2)))
        dem = make_grid([[2.0, -2.0], [4.0, -4.0]])
        corrected = make_grid([[1.0, -1.0], [1.0, -1.0]])
        strata = make_grid([[1.0, 1.0], [2.0, 2.0]])
        rep = build_report(ref, dem, {"m": corrected}, strata)
        assert rep.strata["1"].reduction["m"] == pytest.approx(50.0)
        assert rep.strata["2"].reduction["m"] == pytest.approx(75.0)

    def test_grid_vs_tabular_consistency(self, rng):
        ref, dem, strata = self.grids(rng)
        corrected = make_grid(dem.values - 1.5)
        rep = build_report(ref, dem, {"m": corrected}, strata)
        valid = ref.valid_mask() & dem.valid_mask()
        before = compute_metrics((dem.values - ref.values)[valid])
        after = compute_metrics((corrected.values - ref.values)[valid])
        expected = 100 * (before.rmse - after.rmse) / before.rmse
        assert rep.overall.reduction["m"] == pytest.approx(expected, rel=1e-12)

    def test_non_integer_strata_label_rejected(self):
        # cells labelled 1.5 would otherwise fall out of every stratum
        ref = make_grid(np.zeros((2, 2)))
        dem = make_grid([[1.0, 2.0], [3.0, 4.0]])
        strata = make_grid([[1.0, 1.5], [1.5, 2.0]])
        with pytest.raises(StrataLabelError, match=r"cell \(0, 1\) holds 1.5"):
            build_report(ref, dem, {"m": dem}, strata)

    def test_negative_strata_label_rejected(self):
        # a stratum "-1" here would be "no stratum" in the sample table
        ref = make_grid(np.zeros((2, 2)))
        dem = make_grid([[1.0, 2.0], [3.0, 4.0]])
        strata = make_grid([[-1.0, -1.0], [2.0, 2.0]])
        with pytest.raises(StrataLabelError, match=r"non-negative labels; cell \(0, 0\) holds -1.0"):
            build_report(ref, dem, {"m": dem}, strata)

    def test_strata_nodata_cells_count_overall_only(self):
        ref = make_grid(np.zeros((2, 2)))
        dem = make_grid([[1.0, 2.0], [3.0, 4.0]])
        strata = make_grid([[1.0, NODATA], [NODATA, 2.0]])
        rep = build_report(ref, dem, {"m": dem}, strata)
        assert rep.overall.before.n == 4
        assert {k: v.before.n for k, v in rep.strata.items()} == {"1": 1, "2": 1}

    def test_empty_stratum_warned_and_omitted(self, rng):
        ref, dem, strata = self.grids(rng)
        rep = build_report(ref, dem, {"m": dem}, strata,
                           stratum_names={1: "one", 2: "two", 9: "ghost"})
        assert "ghost" not in rep.strata
        assert any("ghost" in w for w in rep.warnings)

    def test_stratum_names_applied_in_label_order(self, rng):
        ref, dem, strata = self.grids(rng)
        rep = build_report(ref, dem, {"m": dem}, strata,
                           stratum_names={1: "north", 2: "south"})
        assert list(rep.strata) == ["north", "south"]

    def test_model_digests_in_provenance(self, rng):
        ref, dem, _ = self.grids(rng)
        rep = build_report(ref, dem, {"m": dem}, None, model_digests={"m": "abc123"})
        assert rep.provenance["model_digests"]["m"] == "abc123"

    def test_render_text_shape(self, rng):
        ref, dem, strata = self.grids(rng)
        rep = build_report(ref, dem, {"m1": dem, "m2": ref}, strata,
                           stratum_names={1: "one", 2: "two"})
        text = rep.render_text()
        lines = [l for l in text.splitlines() if l]
        header = lines[1].split()
        assert header == ["stratum", "m1", "m2"]
        body = [l.split()[0] for l in lines[2:]]
        assert body == ["one", "two", "overall"]

    def test_report_doc_is_json(self, rng):
        ref, dem, strata = self.grids(rng)
        doc = build_report(ref, dem, {"m": dem}, strata).to_doc()
        parsed = json.loads(json.dumps(doc, sort_keys=True))
        assert parsed["overall"]["pct_rmse_reduction"]["m"] == pytest.approx(0.0)


def build_report_oracle(reference, original, corrected_by_model, strata=None,
                        stratum_names=None) -> EvaluationReport:
    """``build_report`` over whole grids, as it was before it read row
    blocks: the oracle of the blocked one."""
    models = sorted(corrected_by_model)
    valid = reference.valid_mask() & original.valid_mask()
    for m in models:
        valid &= corrected_by_model[m].valid_mask()
    if not valid.any():
        raise EmptyTableError("no cell is valid in every grid")
    before_all = (original.values - reference.values)[valid]
    after_all = {m: (corrected_by_model[m].values - reference.values)[valid] for m in models}
    warnings = []
    overall = _stratum_result(before_all, after_all, warnings, "overall")
    strata_results = {}
    if strata is not None:
        check_labels(label_faults(strata.values, strata.nodata, 0))
        labels_grid = label_values(strata.values, strata.nodata)
        label_valid = valid & strata.valid_mask()
        present = distinct_values(labels_grid[label_valid])
        declared = sorted(stratum_names) if stratum_names else []
        for lab in sorted(set(declared) | set(int(v) for v in present)):
            name = stratum_names.get(lab, str(lab)) if stratum_names else str(lab)
            mask = label_valid & (labels_grid == lab)
            if not mask.any():
                warnings.append(f"stratum '{name}' omitted: no valid cells")
                continue
            before = (original.values - reference.values)[mask]
            after = {m: (corrected_by_model[m].values - reference.values)[mask] for m in models}
            strata_results[name] = _stratum_result(before, after, warnings, name)
    return EvaluationReport(tuple(models), overall, strata_results, tuple(warnings), {})


class TestReportFromFiles:
    """``build_report`` reads its grids a block of rows at a time, from
    in-memory grids or from files through :class:`GridReader`: either way
    its report is the whole-grid oracle's, byte for byte, and so are its
    errors."""

    NAMES = {1: "one", 2: "two", 9: "ghost"}

    @staticmethod
    def grids(seed, h=23, w=9):
        """Reference, DEM, two corrections and strata, each with nodata
        holes and its own sentinel."""
        rng = np.random.default_rng(seed)

        def holed(values, nodata, share):
            return make_grid(np.where(rng.random((h, w)) < share, nodata, values), nodata=nodata)

        ref = holed(300 + rng.normal(size=(h, w)) * 10, NODATA, 0.1)
        dem = holed(ref.values + 2 + rng.normal(size=(h, w)), -1.0, 0.1)
        corrected = {m: holed(dem.values - shift + rng.normal(size=(h, w)) * 0.5, 0.0, 0.05)
                     for m, shift in (("b", 1.5), ("a", 2.5))}
        strata = holed(rng.integers(1, 4, size=(h, w)).astype(float), NODATA, 0.2)
        return ref, dem, corrected, strata

    @staticmethod
    def outcome(report_fn):
        try:
            report = report_fn()
        except (EmptyTableError, StrataLabelError) as exc:
            return type(exc).__name__, str(exc)
        return json.dumps(report.to_doc(), sort_keys=True), report.render_text()

    def assert_same_reports(self, tmp_path, ref, dem, corrected, strata):
        grids = {"ref": ref, "dem": dem, "strata": strata, **corrected}
        for name, grid in grids.items():
            save_grid(grid, tmp_path / f"{name}.asc")
        want = self.outcome(lambda: build_report_oracle(ref, dem, corrected, strata, self.NAMES))
        assert self.outcome(lambda: build_report(ref, dem, corrected, strata,
                                                 stratum_names=self.NAMES)) == want
        with contextlib.ExitStack() as files:
            read = {name: files.enter_context(GridReader(tmp_path / f"{name}.asc"))
                    for name in grids}
            got = self.outcome(lambda: build_report(
                read["ref"], read["dem"], {m: read[m] for m in corrected}, read["strata"],
                stratum_names=self.NAMES))
        assert got == want
        return want

    @pytest.mark.parametrize("block_rows", [3, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_files_and_memory_match_the_oracle(self, tmp_path, monkeypatch, block_rows, seed):
        monkeypatch.setattr(terrain, "BLOCK_ROWS", block_rows)
        want = self.assert_same_reports(tmp_path, *self.grids(seed))
        assert "stratum 'ghost' omitted" in want[0]

    @pytest.mark.parametrize("empty", [False, True], ids=["label-fault", "empty-first"])
    def test_errors_match_the_oracle(self, tmp_path, monkeypatch, empty):
        """A label fault in the last block; with no valid cell, the empty
        table is reported first."""
        monkeypatch.setattr(terrain, "BLOCK_ROWS", 4)
        ref, dem, corrected, strata = self.grids(3)
        labels = strata.values.copy()
        labels[5, 0], labels[22, 2] = -1.0, 1.5
        if empty:
            ref = ref.with_values(np.full_like(ref.values, ref.nodata))
        want = self.assert_same_reports(tmp_path, ref, dem, corrected, strata.with_values(labels))
        assert want == (("EmptyTableError", "no cell is valid in every grid") if empty else
                        ("StrataLabelError", "strata grid must hold integer labels; "
                                             "cell (22, 2) holds 1.5"))
