from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from demcorrect import (
    ErrorSpec,
    FeatureConfig,
    NonlinearTerm,
    STRATUM_NAMES,
    WindowSpec,
    build_feature_stack,
    difference,
    fractal_dem,
    inject_error,
    synth_landcover,
)
from demcorrect.synth import _quantile


def bench_stack(dem, land):
    cfg = FeatureConfig(texture_window=WindowSpec(3), texture_threshold=0.5)
    return build_feature_stack(dem, land.bare, land.urban, land.forest, cfg)


class TestFractal:
    def test_deterministic_per_seed(self):
        a = fractal_dem(5, seed=42)
        b = fractal_dem(5, seed=42)
        c = fractal_dem(5, seed=43)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_zero_relief_constant(self):
        g = fractal_dem(4, base_height=250.0, relief_amplitude=0.0)
        assert np.all(g.values == 250.0)

    def test_size_formula(self):
        for k in (2, 5, 8):
            g = fractal_dem(k, seed=1)
            assert (g.ncols, g.nrows) == (2 ** k + 1, 2 ** k + 1)

    def test_no_nodata_and_bounded(self):
        amp, decay = 80.0, 0.5
        g = fractal_dem(6, base_height=100.0, relief_amplitude=amp,
                        roughness_decay=decay, seed=9)
        assert g.valid_mask().all()
        bound = amp / (1 - decay) + amp  # corners plus geometric series
        assert np.all(np.abs(g.values - 100.0) <= bound)

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            fractal_dem(1)


class TestLandcover:
    def test_masks_binary(self):
        dem = fractal_dem(6, seed=3)
        land = synth_landcover(dem, seed=5)
        for mask in (land.bare, land.urban, land.forest):
            assert set(np.unique(mask.values)) <= {0.0, 1.0}

    def test_strata_partition_all_cells_five_labels(self):
        dem = fractal_dem(7, seed=3)
        land = synth_landcover(dem, seed=5)
        labels = np.unique(land.strata.values)
        assert set(labels) == {1.0, 2.0, 3.0, 4.0, 5.0}
        assert land.strata.valid_mask().all()

    def test_deterministic(self):
        dem = fractal_dem(6, seed=3)
        a = synth_landcover(dem, seed=5)
        b = synth_landcover(dem, seed=5)
        for x, y in ((a.bare, b.bare), (a.urban, b.urban), (a.strata, b.strata)):
            assert np.array_equal(x.values, y.values)

    def test_names_cover_labels(self):
        assert set(STRATUM_NAMES) == {1, 2, 3, 4, 5}


class TestInjectError:
    def setup_method(self):
        self.dem = fractal_dem(6, seed=3, roughness_decay=0.45)
        self.land = synth_landcover(self.dem, seed=5)
        self.stack = bench_stack(self.dem, self.land)

    def test_empty_spec_identity(self):
        out = inject_error(self.dem, self.stack, ErrorSpec())
        assert np.array_equal(out.degraded.values, self.dem.values)
        assert np.all(out.true_dh.values[out.true_dh.valid_mask()] == 0.0)

    def test_single_linear_term_is_standardized_layer(self):
        out = inject_error(self.dem, self.stack, ErrorSpec({"slope": 1.0}))
        sl = self.stack.layer("slope")
        v = out.true_dh.valid_mask()
        vals = sl.values[v]
        expected = (vals - vals.mean()) / vals.std()
        got = out.true_dh.values[v]
        assert np.allclose(got, expected, atol=1e-9)
        assert abs(got.mean()) < 1e-9
        assert got.std() == pytest.approx(1.0, rel=1e-9)

    def test_difference_recovers_true_dh_bit_exact(self):
        spec = ErrorSpec({"slope": 1.0, "elevation": -0.5},
                         (NonlinearTerm("elevation", "sine", 2.0, 1.5),),
                         noise_std=0.4, seed=11)
        out = inject_error(self.dem, self.stack, spec)
        rec = difference(out.degraded, self.dem)
        assert np.array_equal(rec.rows(0, rec.nrows), out.true_dh.values)

    def test_nonlinear_kinds(self):
        v = None
        for term, fn in (
            (NonlinearTerm("elevation", "sine", 2.0, 3.0),
             lambda z: 2.0 * np.sin(3.0 * z)),
            (NonlinearTerm("urban", "step", 1.5, 0.0),
             lambda z: 1.5 * (z >= 0.0)),
            (NonlinearTerm("elevation", "product", 0.5, feature2="slope"),
             None),
        ):
            out = inject_error(self.dem, self.stack, ErrorSpec(nonlinear_terms=(term,)))
            v = out.true_dh.valid_mask()
            layer = self.stack.layer(term.feature)
            vals = layer.values[v]
            z = (vals - vals.mean()) / vals.std()
            if fn is not None:
                assert np.allclose(out.true_dh.values[v], fn(z), atol=1e-9)
            else:
                l2 = self.stack.layer("slope")
                v2 = l2.values[v]
                z2 = (v2 - v2.mean()) / v2.std()
                assert np.allclose(out.true_dh.values[v], 0.5 * z * z2, atol=1e-9)

    def test_noise_deterministic_per_seed(self):
        spec = ErrorSpec({"slope": 1.0}, noise_std=1.0, seed=3)
        a = inject_error(self.dem, self.stack, spec)
        b = inject_error(self.dem, self.stack, spec)
        c = inject_error(self.dem, self.stack,
                         ErrorSpec({"slope": 1.0}, noise_std=1.0, seed=4))
        assert np.array_equal(a.degraded.values, b.degraded.values)
        assert not np.array_equal(a.degraded.values, c.degraded.values)

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 2.5])
    def test_noise_fraction_of_the_quiet_error_std(self, fraction):
        """A noise fraction gives the noise std, in the spec it reports,
        that fraction of the std of the error the terms alone give, and the
        outputs that the spec with that std gives."""
        spec = ErrorSpec({"slope": 1.0}, (NonlinearTerm("elevation", "sine", 2.0, 1.5),),
                         noise_std=7.0, seed=11)
        quiet = inject_error(self.dem, self.stack, replace(spec, noise_std=0.0)).true_dh
        std = fraction * float(quiet.values[quiet.valid_mask()].std())
        out = inject_error(self.dem, self.stack, spec, fraction)
        assert out.spec == replace(spec, noise_std=std)
        assert inject_error(self.dem, self.stack, spec).spec == spec
        expected = inject_error(self.dem, self.stack, out.spec)
        for got, want in ((out.degraded, expected.degraded), (out.true_dh, expected.true_dh)):
            assert np.array_equal(got.values, want.values)

    def test_unknown_feature_rejected(self):
        with pytest.raises(KeyError, match="curvature"):
            inject_error(self.dem, self.stack, ErrorSpec({"curvature": 1.0}))

    def test_product_requires_feature2(self):
        with pytest.raises(ValueError, match="feature2"):
            NonlinearTerm("slope", "product", 1.0)

    def test_spec_doc_roundtrip(self):
        spec = ErrorSpec({"slope": 1.2}, (NonlinearTerm("urban", "step", 1.0, 0.0),),
                         noise_std=0.3, seed=8)
        back = ErrorSpec.from_doc(spec.to_doc())
        assert back == spec

    def test_nodata_cells_stay_nodata(self):
        out = inject_error(self.dem, self.stack, ErrorSpec({"slope": 1.0}))
        border_invalid = ~self.stack.layer("slope").valid_mask()
        assert np.all(out.degraded.values[border_invalid] == self.dem.nodata)
        assert np.all(out.true_dh.values[border_invalid] == self.dem.nodata)


#: quantile levels, the ends included
_LEVELS = st.sampled_from([0.0, 1.0, 0.15, 0.5]) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=9),
                         elements=st.sampled_from([-0.0, 0.0, 1.0, -2.5, 5e-324])
                         | st.floats(-1e300, 1e300)),
       q=_LEVELS | st.lists(_LEVELS, min_size=1, max_size=4))
@example(values=np.array([-0.0]), q=0.5)
@example(values=np.array([[-0.0]]), q=[0.0, 1.0])
def test_quantile_is_np_quantile_bit_for_bit(values, q):
    """``synth._quantile`` stands in for ``np.quantile``, whose ``np.unique``
    imports ``numpy.ma``: the same type and bits, signed zeros included."""
    got, want = _quantile(values, q), np.quantile(values, q)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (got, want)
