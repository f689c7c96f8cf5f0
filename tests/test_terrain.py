import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demcorrect import (
    CANONICAL_FEATURES,
    FLAT_ASPECT,
    FeatureConfig,
    FeatureStack,
    WindowSpec,
    aspect,
    build_feature_stack,
    focal_fraction,
    roughness,
    slope,
    texture,
    tpi,
    tri,
    vrm,
)
from demcorrect.grid import GeometryMismatch
from demcorrect.terrain import _NEIGHBOR_OFFSETS, _box_sum, _pit_peak_flags, _window_gate
from conftest import NODATA, make_grid, plane_grid


def interior(grid, margin=1):
    return grid.values[margin:-margin, margin:-margin]


class TestSlope:
    def test_flat_plane_zero(self):
        g = make_grid(np.full((7, 7), 42.0))
        assert np.allclose(interior(slope(g)), 0.0, atol=1e-12)

    def test_unit_plane_45_degrees(self):
        # analytic oracle: z = x, cellsize 1 -> p = 1, q = 0 -> atan(1)
        g = plane_grid(7, fx=1.0)
        assert np.allclose(interior(slope(g)), 45.0, atol=1e-9)

    def test_3x_4y_plane(self):
        # z = 3*col - 4*row; row runs south so dz/dnorth = +4 -> gradient norm 5
        g = plane_grid(7, fx=3.0, fy=-4.0)
        expected = math.degrees(math.atan(5.0))
        assert np.allclose(interior(slope(g)), expected, atol=1e-9)

    def test_cellsize_scales_gradient(self):
        g = plane_grid(7, fx=1.0, cellsize=2.0)
        expected = math.degrees(math.atan(0.5))
        assert np.allclose(interior(slope(g)), expected, atol=1e-9)

    def test_border_and_nodata_window(self):
        vals = np.full((5, 5), 1.0)
        vals[2, 2] = NODATA
        s = slope(make_grid(vals))
        assert np.all(s.values[0, :] == NODATA)
        assert s.values[1, 1] == NODATA  # window touches the nodata cell
        assert s.values[2, 2] == NODATA


class TestAspect:
    def test_flat_sentinel(self):
        g = make_grid(np.full((5, 5), 3.0))
        assert np.all(interior(aspect(g)) == FLAT_ASPECT)

    def test_east_rising_descends_west(self):
        g = plane_grid(7, fx=1.0)
        assert np.allclose(interior(aspect(g)), 270.0, atol=1e-9)

    def test_north_rising_descends_south(self):
        # z = -row: rises northward, so steepest descent points south
        g = plane_grid(7, fy=-1.0)
        assert np.allclose(interior(aspect(g)), 180.0, atol=1e-9)

    def test_west_rising_descends_east(self):
        g = plane_grid(7, fx=-1.0)
        assert np.allclose(interior(aspect(g)), 90.0, atol=1e-9)

    def test_range_and_shift_invariance(self, rng):
        vals = rng.normal(size=(9, 9)) * 5
        a1 = aspect(make_grid(vals))
        a2 = aspect(make_grid(vals + 1234.5))
        v = a1.valid_mask()
        inside = a1.values[v]
        assert np.all((inside == FLAT_ASPECT) | ((inside >= 0) & (inside < 360)))
        assert np.allclose(a1.values[v], a2.values[v], atol=1e-6)


@st.composite
def signed_zero_grids(draw):
    """Grids of 0.0, -0.0 and +-1, or of normals rounded to 0.1 (so -0.0
    occurs), with nodata holes and, optionally, a nodata border."""
    h, w = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        z = rng.choice([0.0, -0.0, 1.0, -1.0], size=(h, w))
    else:
        z = np.round(rng.normal(size=(h, w)) * 0.3, 1)
    z[rng.random((h, w)) < draw(st.sampled_from([0.0, 0.1, 0.4]))] = NODATA
    if draw(st.booleans()):
        z[[0, -1], :] = NODATA
        z[:, [0, -1]] = NODATA
    return make_grid(z)


class TestRoughness:
    def test_constant_zero(self):
        g = make_grid(np.full((5, 5), 9.0))
        assert np.all(interior(roughness(g, WindowSpec(1))) == 0.0)

    def test_range_of_1_to_9(self):
        g = make_grid(np.arange(1.0, 10.0).reshape(3, 3))
        assert roughness(g, WindowSpec(1)).values[1, 1] == 8.0

    def test_hand_window(self):
        vals = np.array([[2.0, 7.0, 3.0], [4.0, 5.0, 6.0], [3.0, 4.0, 5.0]])
        assert roughness(make_grid(vals), WindowSpec(1)).values[1, 1] == 5.0

    def test_min_valid_fraction_gate(self):
        vals = np.full((3, 3), 2.0)
        vals[0, 0] = NODATA
        g = make_grid(vals)
        assert roughness(g, WindowSpec(1, 1.0)).values[1, 1] == NODATA
        assert roughness(g, WindowSpec(1, 0.5)).values[1, 1] == 0.0

    @settings(max_examples=300, deadline=None)
    @given(signed_zero_grids(), st.one_of(st.integers(1, 3), st.integers(10, 40)),
           st.sampled_from([1.0, 0.5, 0.05]))
    def test_bits_equal_ndimage_formula(self, g, radius, min_valid_fraction):
        """The separate max and min planes may differ from ndimage's in the
        sign of a zero; the layer may not."""
        w = WindowSpec(radius, min_valid_fraction)
        assert roughness(g, w).values.tobytes() == ndimage_roughness(g, w).tobytes()

    def test_radius_past_the_grid(self):
        """A radius of 10**6 is padded as one of max(h, w); the window gate
        still divides by the true (2r+1)^2 cells."""
        vals = np.arange(20.0).reshape(4, 5)
        vals[1, 2] = NODATA
        g = make_grid(vals)
        whole = np.where(g.valid_mask(), 19.0, NODATA)
        assert np.array_equal(roughness(g, WindowSpec(10**6, 1e-12)).values, whole)
        assert np.all(roughness(g, WindowSpec(10**6, 0.05)).values == NODATA)


def ndimage_roughness(g, w):
    """roughness as it was computed with scipy.ndimage's max and min filters."""
    from scipy import ndimage

    v = g.valid_mask()
    size = 2 * w.radius + 1
    zmax = ndimage.maximum_filter(np.where(v, g.values, -np.inf), size=size,
                                  mode="constant", cval=-np.inf)
    zmin = ndimage.minimum_filter(np.where(v, g.values, np.inf), size=size,
                                  mode="constant", cval=np.inf)
    _, keep = _window_gate(v, w)
    return np.where(keep, zmax - zmin, g.nodata)


class TestTpi:
    def test_constant_zero(self):
        g = make_grid(np.full((5, 5), 7.25))
        assert np.all(interior(tpi(g, WindowSpec(1))) == 0.0)

    def test_center_above_neighbors(self):
        vals = np.full((3, 3), 1.0)
        vals[1, 1] = 5.0
        assert tpi(make_grid(vals), WindowSpec(1)).values[1, 1] == pytest.approx(4.0)

    def test_center_below_mean(self):
        vals = np.full((3, 3), 2.0)
        vals[1, 1] = 0.0
        assert tpi(make_grid(vals), WindowSpec(1)).values[1, 1] == pytest.approx(-2.0)

    def test_oracle_random_window(self, rng):
        vals = 300 + rng.normal(size=(9, 9)) * 10
        out = tpi(make_grid(vals), WindowSpec(2))
        # brute-force oracle at (4, 4)
        win = vals[2:7, 2:7]
        expected = vals[4, 4] - (win.sum() - vals[4, 4]) / 24
        assert out.values[4, 4] == pytest.approx(expected, rel=1e-10)


class TestTri:
    def test_constant_zero(self):
        g = make_grid(np.full((5, 5), 4.0))
        assert np.all(interior(tri(g)) == 0.0)

    def test_sqrt8_neighbors_plus_one(self):
        vals = np.full((3, 3), 2.0)
        vals[1, 1] = 1.0
        assert tri(make_grid(vals)).values[1, 1] == pytest.approx(math.sqrt(8), abs=1e-12)

    def test_sign_insensitive(self):
        vals = np.array([[1.0, -1.0, 1.0], [-1.0, 0.0, -1.0], [1.0, -1.0, 1.0]])
        assert tri(make_grid(vals)).values[1, 1] == pytest.approx(math.sqrt(8), abs=1e-12)

    def test_oracle_random_window(self, rng):
        vals = rng.normal(size=(5, 5)) * 3
        out = tri(make_grid(vals))
        win = vals[1:4, 1:4]
        expected = math.sqrt(((win - win[1, 1]) ** 2).sum())
        assert out.values[2, 2] == pytest.approx(expected, rel=1e-12)


class TestTexture:
    def test_constant_zero(self):
        g = make_grid(np.full((9, 9), 5.0))
        out = texture(g, 0.5, WindowSpec(1))
        assert np.all(interior(out, 2) == 0.0)

    def test_single_spike_counts_once(self):
        vals = np.full((9, 9), 10.0)
        vals[4, 4] = 20.0
        out = texture(make_grid(vals), 0.5, WindowSpec(2))
        assert out.values[4, 4] == pytest.approx(4.0)  # 1 of 25 cells flagged

    def test_checkerboard_fully_flagged(self):
        ii, jj = np.mgrid[0:9, 0:9]
        vals = np.where((ii + jj) % 2 == 0, 1.0, -1.0)
        out = texture(make_grid(vals), 0.5, WindowSpec(1))
        assert np.all(interior(out, 2) == pytest.approx(100.0))

    def test_bounded_0_100(self, rng):
        vals = rng.normal(size=(15, 15)) * 2
        out = texture(make_grid(vals), 0.1, WindowSpec(2))
        v = out.valid_mask()
        assert np.all((out.values[v] >= 0) & (out.values[v] <= 100))


class TestVrm:
    def test_flat_plane_zero(self):
        g = make_grid(np.full((9, 9), 3.0))
        out = vrm(g, WindowSpec(2))
        assert np.all(interior(out, 3) == 0.0)

    def test_tilted_plane_zero(self):
        g = plane_grid(11, fx=2.0, fy=1.0)
        out = vrm(g, WindowSpec(2))
        assert np.allclose(interior(out, 3), 0.0, atol=1e-9)

    def test_two_normal_resultant(self):
        # vector oracle: normals (0,0,1) and (1,0,0) -> 1 - sqrt(2)/2
        sx, sy, sz, n = 1.0, 0.0, 1.0, 2
        value = 1.0 - math.sqrt(sx * sx + sy * sy + sz * sz) / n
        assert value == pytest.approx(1 - math.sqrt(2) / 2, abs=1e-12)

    def test_bounded_0_1(self, rng):
        vals = rng.normal(size=(15, 15)) * 8
        out = vrm(make_grid(vals), WindowSpec(2))
        v = out.valid_mask()
        assert np.all((out.values[v] >= 0) & (out.values[v] <= 1))
        assert out.values[v].max() > 0  # rough surface is not degenerate


class TestFocalFraction:
    def test_all_ones_100(self):
        g = make_grid(np.ones((5, 5)))
        assert np.all(interior(focal_fraction(g, WindowSpec(1))) == 100.0)

    def test_all_zero(self):
        g = make_grid(np.zeros((5, 5)))
        assert np.all(interior(focal_fraction(g, WindowSpec(1))) == 0.0)

    def test_three_of_nine(self):
        vals = np.zeros((3, 3))
        vals[0, :] = 1.0
        out = focal_fraction(make_grid(vals), WindowSpec(1))
        assert out.values[1, 1] == pytest.approx(100 * 3 / 9)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0, 1 or nodata"):
            focal_fraction(make_grid([[0.5]]), WindowSpec(1))

    def test_nodata_cells_excluded_from_denominator(self):
        vals = np.ones((3, 3))
        vals[0, 0] = NODATA
        out = focal_fraction(make_grid(vals), WindowSpec(1, min_valid_fraction=0.5))
        assert out.values[1, 1] == pytest.approx(100.0)


class TestInvariances:
    def test_vertical_shift_invariance(self, rng):
        vals = 100 + rng.normal(size=(13, 13)) * 6
        a = make_grid(vals)
        b = make_grid(vals + 500.0)
        w = WindowSpec(1)
        for op in (lambda g: slope(g), lambda g: roughness(g, w), lambda g: tri(g),
                   lambda g: texture(g, 0.5, w), lambda g: vrm(g, WindowSpec(2)),
                   lambda g: tpi(g, w)):
            ga, gb = op(a), op(b)
            v = ga.valid_mask()
            assert np.allclose(ga.values[v], gb.values[v], atol=1e-7)

    def test_translation_invariance(self, rng):
        vals = rng.normal(size=(9, 9)) * 4
        a = make_grid(vals)
        b = make_grid(vals, xll=12345.0, yll=-999.0)
        for op in (slope, aspect):
            ga, gb = op(a), op(b)
            assert np.array_equal(ga.values, gb.values)

    def test_nonnegativity(self, rng):
        vals = rng.normal(size=(11, 11)) * 5
        g = make_grid(vals)
        w = WindowSpec(1)
        for out in (roughness(g, w), tri(g), texture(g, 0.3, w), vrm(g, WindowSpec(2))):
            v = out.valid_mask()
            assert np.all(out.values[v] >= 0)

    def test_window_isolation_oracle(self, rng):
        """A derivative at a cell depends only on its window contents."""
        vals = 250 + rng.normal(size=(21, 21)) * 7
        g = make_grid(vals)
        cases = [
            (lambda d: slope(d), 1),
            (lambda d: tri(d), 1),
            (lambda d: roughness(d, WindowSpec(2)), 2),
            (lambda d: tpi(d, WindowSpec(2)), 2),
            (lambda d: vrm(d, WindowSpec(2)), 3),       # slope adds one ring
            (lambda d: texture(d, 0.5, WindowSpec(2)), 3),  # median adds one ring
        ]
        i = j = 10
        for op, reach in cases:
            full = op(g).values[i, j]
            sub = make_grid(vals[i - reach:i + reach + 1, j - reach:j + reach + 1])
            isolated = op(sub).values[reach, reach]
            assert isolated == pytest.approx(full, rel=1e-9, abs=1e-12)


class TestStack:
    def make_inputs(self, n=9, seed=0):
        rng = np.random.default_rng(seed)
        dem = make_grid(200 + rng.normal(size=(n, n)) * 10)
        zeros = make_grid(np.zeros((n, n)))
        ones = make_grid((rng.random((n, n)) < 0.3).astype(float))
        return dem, zeros, ones

    def test_canonical_names_and_geometry(self):
        dem, zeros, ones = self.make_inputs()
        stack = build_feature_stack(dem, zeros, ones, zeros, FeatureConfig(
            texture_window=WindowSpec(2), vrm_window=WindowSpec(2),
            landcover_window=WindowSpec(2)))
        assert stack.names == CANONICAL_FEATURES
        for layer in stack.layers:
            assert layer.geometry.matches(dem.geometry)

    def test_flat_dem_zero_derivatives(self):
        n = 9
        dem = make_grid(np.full((n, n), 100.0))
        zeros = make_grid(np.zeros((n, n)))
        cfg = FeatureConfig(texture_window=WindowSpec(2), vrm_window=WindowSpec(2),
                            landcover_window=WindowSpec(2))
        stack = build_feature_stack(dem, zeros, zeros, zeros, cfg)
        for name in ("slope", "tpi", "tri", "roughness", "texture", "vrm"):
            layer = stack.layer(name)
            v = layer.valid_mask()
            assert v.any()
            assert np.all(layer.values[v] == 0.0), name
        av = stack.layer("aspect")
        assert np.all(av.values[av.valid_mask()] == FLAT_ASPECT)

    def test_elevation_and_urban_passthrough(self):
        dem, zeros, ones = self.make_inputs()
        cfg = FeatureConfig(texture_window=WindowSpec(2), vrm_window=WindowSpec(2),
                            landcover_window=WindowSpec(2))
        stack = build_feature_stack(dem, zeros, ones, zeros, cfg)
        assert np.array_equal(stack.layer("elevation").values, dem.values)
        assert np.array_equal(stack.layer("urban").values, ones.values)

    def test_geometry_mismatch_rejected(self):
        dem, zeros, ones = self.make_inputs()
        shifted = make_grid(np.zeros((9, 9)), xll=5.0)
        with pytest.raises(GeometryMismatch):
            build_feature_stack(dem, shifted, ones, zeros)

    def test_non_binary_urban_rejected(self):
        dem, zeros, _ = self.make_inputs()
        bad = make_grid(np.full((9, 9), 2.0))
        with pytest.raises(ValueError, match="urban"):
            build_feature_stack(dem, zeros, bad, zeros)

    def test_parallel_matches_sequential(self):
        dem, zeros, ones = self.make_inputs(n=17)
        cfg = FeatureConfig(texture_window=WindowSpec(2), vrm_window=WindowSpec(2))
        seq = build_feature_stack(dem, zeros, ones, zeros, cfg, max_workers=1)
        par = build_feature_stack(dem, zeros, ones, zeros, cfg, max_workers=4)
        for a, b in zip(seq.layers, par.layers):
            assert np.array_equal(a.values, b.values)

    def test_stack_unique_names_enforced(self):
        dem, _, _ = self.make_inputs()
        with pytest.raises(ValueError, match="unique"):
            FeatureStack(("a", "a"), (dem, dem))


# ---------------------------------------------------------------------------
# brute-force window oracles: each operator recomputed cell by cell from the
# cells of its window, with out-of-bounds cells counted as invalid
# ---------------------------------------------------------------------------

#: slope and aspect go through numpy's vectorised atan/atan2 here and libm's
#: in the oracle (degrees); tpi and vrm sum their windows through a summed-area
#: table here and exactly (math.fsum) in the oracle (metres, unitless). Over
#: 1500 examples the largest deviations were 1.4e-14, 5.7e-14, 1.4e-14 and
#: 1.6e-15, so each bound leaves a margin of more than 15.
ANGLE_TOL = 1e-12
TPI_TOL = 1e-12
VRM_TOL = 1e-13


def _window(arr, i, j, r):
    return arr[max(i - r, 0):i + r + 1, max(j - r, 0):j + r + 1]


def _keep(valid, i, j, w):
    """The shared gate: valid center, valid fraction of the full window."""
    count = int(_window(valid, i, j, w.radius).sum())
    return bool(valid[i, j]) and count / w.size >= w.min_valid_fraction, count


def _neighbor_values(z, valid, i, j):
    """The eight neighbours in offset order, or None unless all nine cells are valid."""
    h, w = z.shape
    if not (1 <= i < h - 1 and 1 <= j < w - 1 and valid[i - 1:i + 2, j - 1:j + 2].all()):
        return None
    return {o: z[i + o[0], j + o[1]] for o in _NEIGHBOR_OFFSETS}


def _horn_oracle(g, i, j):
    nb = _neighbor_values(g.values, g.valid_mask(), i, j)
    if nb is None:
        return None
    denom = 8.0 * g.cellsize
    p = ((nb[(-1, 1)] + 2 * nb[(0, 1)] + nb[(1, 1)])
         - (nb[(-1, -1)] + 2 * nb[(0, -1)] + nb[(1, -1)])) / denom
    q = ((nb[(-1, -1)] + 2 * nb[(-1, 0)] + nb[(-1, 1)])
         - (nb[(1, -1)] + 2 * nb[(1, 0)] + nb[(1, 1)])) / denom
    return p, q


def _oracle_grid(g, cell):
    """Apply ``cell(i, j)`` (a value, or None for nodata) to every cell.

    Nodata comes back as NaN: under the 0 sentinel a defined result can
    equal the sentinel.
    """
    out = np.full(g.values.shape, np.nan)
    for i in range(g.nrows):
        for j in range(g.ncols):
            value = cell(i, j)
            if value is not None:
                out[i, j] = value
    return out


def slope_oracle(g):
    def cell(i, j):
        pq = _horn_oracle(g, i, j)
        return None if pq is None else math.degrees(math.atan(math.hypot(*pq)))
    return _oracle_grid(g, cell)


def aspect_oracle(g):
    def cell(i, j):
        pq = _horn_oracle(g, i, j)
        if pq is None:
            return None
        p, q = pq
        if p == 0 and q == 0:
            return FLAT_ASPECT
        return math.degrees(math.atan2(-p, -q)) % 360.0
    return _oracle_grid(g, cell)


def roughness_oracle(g, w):
    z, valid = g.values, g.valid_mask()

    def cell(i, j):
        keep, _ = _keep(valid, i, j, w)
        vals = _window(z, i, j, w.radius)[_window(valid, i, j, w.radius)]
        return float(vals.max() - vals.min()) if keep else None
    return _oracle_grid(g, cell)


def tpi_oracle(g, w):
    z, valid = g.values, g.valid_mask()

    def cell(i, j):
        keep, count = _keep(valid, i, j, w)
        if not keep or count < 2:
            return None
        others = math.fsum(_window(z, i, j, w.radius)[_window(valid, i, j, w.radius)]) - z[i, j]
        return z[i, j] - others / (count - 1)
    return _oracle_grid(g, cell)


def tri_oracle(g):
    z, valid = g.values, g.valid_mask()

    def cell(i, j):
        nb = _neighbor_values(z, valid, i, j)
        if nb is None:
            return None
        acc = 0.0
        for o in _NEIGHBOR_OFFSETS:
            acc += (nb[o] - z[i, j]) * (nb[o] - z[i, j])
        return math.sqrt(acc)
    return _oracle_grid(g, cell)


def pit_peak_oracle(g, threshold):
    z, valid = g.values, g.valid_mask()
    flags = np.zeros(z.shape, dtype=bool)
    defined = np.zeros(z.shape, dtype=bool)
    for i in range(g.nrows):
        for j in range(g.ncols):
            nb = _neighbor_values(z, valid, i, j)
            if nb is not None:
                s = sorted(nb.values())
                defined[i, j] = True
                flags[i, j] = abs(z[i, j] - (s[3] + s[4]) / 2) > threshold
    return flags, defined


def texture_oracle(g, threshold, w):
    flags, defined = pit_peak_oracle(g, threshold)

    def cell(i, j):
        keep, count = _keep(defined, i, j, w)
        return 100.0 * int(_window(flags, i, j, w.radius).sum()) / count if keep else None
    return _oracle_grid(g, cell)


def vrm_oracle(g, w):
    s, a = slope_oracle(g), aspect_oracle(g)
    # vrm takes its mask from the slope raster, where a 0 slope under the
    # 0 sentinel reads as nodata
    valid = ~np.isnan(s) & (s != g.nodata)
    normals = np.zeros(g.values.shape + (3,))
    for i, j in zip(*np.nonzero(valid)):
        srad = math.radians(s[i, j])
        arad = 0.0 if a[i, j] == FLAT_ASPECT else math.radians(a[i, j])
        normals[i, j] = (math.sin(srad) * math.sin(arad), math.sin(srad) * math.cos(arad),
                         math.cos(srad))

    def cell(i, j):
        keep, count = _keep(valid, i, j, w)
        if not keep:
            return None
        win = _window(normals, i, j, w.radius)[_window(valid, i, j, w.radius)]
        resultant = math.sqrt(sum(math.fsum(win[:, k]) ** 2 for k in range(3)))
        return max(1.0 - resultant / count, 0.0)
    return _oracle_grid(g, cell)


def focal_fraction_oracle(m, w):
    valid = m.valid_mask()

    def cell(i, j):
        keep, count = _keep(valid, i, j, w)
        ones = int((_window(m.values, i, j, w.radius)[_window(valid, i, j, w.radius)] == 1).sum())
        return 100.0 * ones / count if keep else None
    return _oracle_grid(m, cell)


@st.composite
def focal_inputs(draw):
    """A small DEM and a binary mask with random nodata, plus a window.

    Elevations are rounded to 0.1 so that flat windows, tied medians and,
    under the 0 sentinel, nodata cells holding the value 0 all occur.
    """
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    nodata = draw(st.sampled_from([-9999.0, 0.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    holes = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.1, 0.4]))
    z = np.round(rng.normal(size=(h, w)) * draw(st.sampled_from([0.3, 20.0])), 1)
    dem = make_grid(np.where(holes, nodata, z), cellsize=draw(st.sampled_from([1.0, 30.0])),
                    nodata=nodata)
    mask_holes = rng.random((h, w)) < 0.2
    mask = make_grid(np.where(mask_holes, nodata, (rng.random((h, w)) < 0.4) * 1.0),
                     nodata=nodata)
    radius = draw(st.one_of(st.integers(1, 3), st.integers(12, 20)))
    window = WindowSpec(radius, draw(st.sampled_from([1.0, 0.5, 0.05])))
    return dem, mask, window, draw(st.sampled_from([0.0, 0.05, 0.5]))


def filled(expected, nodata):
    return np.where(np.isnan(expected), nodata, expected)


def assert_close_or_nodata(out, expected, nodata, tol, circular=False):
    missing = np.isnan(expected)
    assert np.all(out[missing] == nodata)
    diff = np.abs(out[~missing] - expected[~missing])
    if circular:
        diff = np.minimum(diff, 360.0 - diff)
    assert np.all(diff <= tol), diff.max()


class TestWindowOracles:
    """Every focal operator against its per-cell brute-force oracle.

    Exact: the nodata masks of all operators, and tri, roughness, texture,
    focal_fraction and the pit/peak flags (the same arithmetic in the same
    order, or integer window counts). Within ANGLE_TOL, TPI_TOL and VRM_TOL:
    slope, aspect (on the circle), tpi and vrm.
    """

    @settings(max_examples=150, deadline=None)
    @given(focal_inputs())
    def test_operators_match_window_oracles(self, case):
        dem, mask, w, threshold = case
        nodata = dem.nodata
        assert np.array_equal(tri(dem).values, filled(tri_oracle(dem), nodata))
        assert np.array_equal(roughness(dem, w).values, filled(roughness_oracle(dem, w), nodata))
        assert np.array_equal(focal_fraction(mask, w).values,
                              filled(focal_fraction_oracle(mask, w), nodata))
        flags, defined = _pit_peak_flags(dem, threshold)
        want_flags, want_defined = pit_peak_oracle(dem, threshold)
        assert np.array_equal(flags, want_flags) and np.array_equal(defined, want_defined)
        assert np.array_equal(texture(dem, threshold, w).values,
                              filled(texture_oracle(dem, threshold, w), nodata))
        assert_close_or_nodata(slope(dem).values, slope_oracle(dem), nodata, ANGLE_TOL)
        assert_close_or_nodata(aspect(dem).values, aspect_oracle(dem), nodata, ANGLE_TOL,
                               circular=True)
        assert_close_or_nodata(tpi(dem, w).values, tpi_oracle(dem, w), nodata, TPI_TOL)
        assert_close_or_nodata(vrm(dem, w).values, vrm_oracle(dem, w), nodata, VRM_TOL)


class TestBoxSumError:
    def test_sat_error_bound_at_large_offset(self):
        """Window sums of an 8000 m surface with centimetre relief.

        Each summed-area table entry is a recursive sum of at most h + w
        partial sums, each bounded by S = sum(|x|) over the grid, so its
        error is at most (h + w) * u * S (u = 2**-53, first order); a window
        sum combines four entries with three more roundings, giving
        |box - exact| <= (4 * (h + w) + 3) * u * S. Here that is 6.1e-7 m,
        under a ten-thousandth of the 1 cm relief; the largest error seen is
        5.6e-9 m.
        """
        rng = np.random.default_rng(8000)
        h, w = 48, 40
        z = 8000.0 + 0.01 * rng.normal(size=(h, w))
        bound = (4 * (h + w) + 3) * 2.0**-53 * math.fsum(np.abs(z).ravel())
        assert bound < 0.01 * 1e-4
        for r in (1, 3, 10, 60):
            box = _box_sum(z, r)
            exact = np.array([[math.fsum(_window(z, i, j, r).ravel()) for j in range(w)]
                              for i in range(h)])
            assert np.max(np.abs(box - exact)) <= bound, r

    def test_radius_past_the_grid_reads_the_same_entries(self):
        """Corners past the grid read the table's edge rows and columns, so
        any radius of max(h, w) or more gives the same bits, and the pad
        stays that size."""
        z = np.random.default_rng(5).normal(size=(5, 7))
        for r in (8, 50, 300, 10**6):
            assert _box_sum(z, r).tobytes() == _box_sum(z, 7).tobytes(), r
