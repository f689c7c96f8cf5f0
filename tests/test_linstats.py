import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from demcorrect import (
    LinearModel,
    SampleTable,
    SingularDesignError,
    ZeroVarianceError,
    fit_ols,
    flag_collinear,
    pearson_matrix,
    vif,
)


def table_from(X, y=None, names=None):
    X = np.asarray(X, dtype=np.float64)
    n, k = X.shape
    names = tuple(names) if names else tuple(f"f{i}" for i in range(k))
    y = np.zeros(n) if y is None else np.asarray(y, dtype=np.float64)
    cells = np.column_stack([np.arange(n), np.zeros(n, dtype=int)])
    return SampleTable(names, cells, X, y)


def pearson_oracle(x, y):
    """Direct textbook formula, independent of the implementation."""
    xm, ym = x - x.mean(), y - y.mean()
    return float((xm * ym).sum() / math.sqrt((xm * xm).sum() * (ym * ym).sum()))


def ols_oracle(X, y):
    """Normal equations (X^T X)^-1 X^T y with an intercept column."""
    A = np.column_stack([np.ones(len(y)), X])
    return np.linalg.solve(A.T @ A, A.T @ y)


def qr_oracle(X, y):
    """Intercept and coefficients by scipy's QR with column pivoting and a
    triangular solve, as ``fit_ols`` solved them before it used ``lstsq``."""
    from scipy import linalg

    A = np.column_stack([np.ones(len(y)), X])
    q, r, piv = linalg.qr(A, mode="economic", pivoting=True)
    beta = np.empty(A.shape[1])
    beta[piv] = linalg.solve_triangular(r, q.T @ y)
    return beta


def r2_oracle(X, y):
    beta = ols_oracle(X, y)
    resid = y - np.column_stack([np.ones(len(y)), X]) @ beta
    return 1 - (resid @ resid) / (((y - y.mean()) ** 2).sum())


def aux_vif_oracle(X):
    """VIFs by one auxiliary regression per column: column k on the others
    plus an intercept by ``lstsq``, then 1/(1 - R^2_k), inf from R^2_k at
    1 - 1e-12, as the screen computed them before it read them off the
    Pearson matrix."""
    out = np.empty(X.shape[1])
    for k in range(X.shape[1]):
        A = np.column_stack([np.ones(len(X)), np.delete(X, k, axis=1)])
        y = X[:, k]
        resid = y - A @ np.linalg.lstsq(A, y, rcond=None)[0]
        r2 = min(1.0, max(0.0, 1 - (resid @ resid) / ((y - y.mean()) ** 2).sum()))
        out[k] = math.inf if r2 >= 1 - 1e-12 else max(1.0, 1 / (1 - r2))
    return out


def assert_vifs_close(got, want):
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert got[finite] == pytest.approx(want[finite], rel=1e-9)


def assert_screen_matches_oracle(table, vif_threshold=10.0):
    """The screen's initial VIFs, ``vif`` over each round's survivors, the
    VIF of each removal and the removal order equal those of the auxiliary
    regressions, repeated on the survivors' columns each round.

    VIFs within the tolerance of the largest count as tied: two columns
    with equal VIFs in exact arithmetic can differ in the oracle's last
    bits. Of tied columns the oracle removes the later one, the screen's
    documented rule."""
    rep = flag_collinear(table, vif_threshold=vif_threshold)
    X, names = table.features, table.feature_names
    assert_vifs_close(rep.vif, aux_vif_oracle(X))
    active, flagged = list(range(len(names))), []
    while len(active) >= 2:
        want = aux_vif_oracle(X[:, active])
        assert_vifs_close(vif(table.select_features([names[k] for k in active])), want)
        if not want.max() >= vif_threshold:
            break
        at = max(i for i, v in enumerate(want) if v == pytest.approx(want.max(), rel=1e-9))
        flagged.append((names[active.pop(at)], want[at]))
    assert rep.flagged == tuple(n for n, _ in flagged)
    assert_vifs_close(np.array([v for _, v in rep.removal_history]),
                      np.array([v for _, v in flagged]))


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        m = pearson_matrix(table_from(np.column_stack([x, 2 * x])))
        assert m[0, 1] == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        m = pearson_matrix(table_from(np.column_stack([x, -x])))
        assert m[0, 1] == pytest.approx(-1.0)

    def test_hand_fixture(self):
        # oracle value for x=(1,2,3,4), y=(1,2,2,4) computed independently
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 2.0, 2.0, 4.0])
        expected = pearson_oracle(x, y)
        assert expected == pytest.approx(0.9233805168766388, abs=1e-12)
        m = pearson_matrix(table_from(np.column_stack([x, y])))
        assert m[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_exact_symmetry_and_unit_diagonal(self, rng):
        X = rng.normal(size=(40, 6))
        m = pearson_matrix(table_from(X))
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 1.0)
        assert np.all(np.abs(m) <= 1.0)

    def test_zero_variance_names_feature(self):
        X = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
        with pytest.raises(ZeroVarianceError, match="f1"):
            pearson_matrix(table_from(X))


class TestVif:
    def test_orthogonal_features_unit_vif(self):
        n = 32
        t = np.arange(n)
        X = np.column_stack([np.cos(2 * np.pi * t / n), np.sin(2 * np.pi * t / n),
                             np.cos(4 * np.pi * t / n)])
        out = vif(table_from(X))
        assert np.allclose(out, 1.0, atol=1e-9)

    def test_duplicate_feature_infinite(self):
        x = np.arange(12.0)
        out = vif(table_from(np.column_stack([x, x, np.cos(x)])))
        assert math.isinf(out[0]) and math.isinf(out[1])
        assert math.isfinite(out[2])

    def test_oracle_near_duplicate(self, rng):
        x1 = rng.normal(size=200)
        x2 = x1 + rng.normal(size=200) * 0.1
        x3 = rng.normal(size=200)
        X = np.column_stack([x1, x2, x3])
        out = vif(table_from(X))
        for k in range(3):
            r2 = r2_oracle(np.delete(X, k, axis=1), X[:, k])
            assert out[k] == pytest.approx(1 / (1 - r2), rel=1e-6)
        assert out[0] > 50  # noise 0.1 vs unit signal puts VIF near 100

    def test_vif_at_least_one_and_permutation_stable(self, rng):
        X = rng.normal(size=(60, 5))
        X[:, 1] = X[:, 0] * 0.5 + rng.normal(size=60) * 0.2
        base = vif(table_from(X))
        assert np.all(base >= 1.0)
        perm = [3, 0, 4, 1, 2]
        out = vif(table_from(X[:, perm]))
        assert np.allclose(out, base[perm], rtol=1e-9)


def collinear_table(seed, exact):
    """600 rows of nine features: near-duplicates, a near-sum, a column on
    another scale, and with ``exact`` one column the sum of two others."""
    rng = np.random.default_rng(seed)
    n = 600
    X = rng.normal(size=(n, 9))
    X[:, 1] = 2 * X[:, 0] + rng.normal(size=n) * 0.05
    X[:, 2] = X[:, 0] - X[:, 3] + rng.normal(size=n) * 0.2
    X[:, 5] = np.round(X[:, 5], 1) * 300 + 1000
    X[:, 6] = X[:, 4] * 0.7 + X[:, 7] * 0.7 + rng.normal(size=n) * 0.1
    if exact:
        X[:, 8] = X[:, 3] + X[:, 7]
    return table_from(X, rng.normal(size=n))


class TestScreenPins:
    """sha256 of the canonical JSON of ``flag_collinear(...).to_doc()``.
    A change to the VIF arithmetic that moves one bit of a factor changes
    the digest. Re-pinned when the factors came to be read off the inverse
    Pearson matrix instead of one ``lstsq`` auxiliary regression each: the
    VIFs moved by at most 3.7e-12 relative (the auxiliary regressions are
    kept as ``aux_vif_oracle``), the removal order stayed the same."""

    PINS = {
        (20261018, False): "e03365620aa5f6d40ca835c0054c5c333d624f35b1883795f6c24aa0c48a046b",
        (20261019, True): "3048797a1db5a565ec6d30da536039be1d463710f04941f41d210788aec6315f",
    }

    @pytest.mark.parametrize("seed, exact", sorted(PINS))
    def test_report_digest(self, seed, exact):
        doc = flag_collinear(collinear_table(seed, exact)).to_doc()
        assert len(doc["flagged"]) == 3 + exact
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == self.PINS[seed, exact]


@pytest.mark.parametrize("seed, exact", sorted(TestScreenPins.PINS))
def test_screen_equals_auxiliary_regressions(seed, exact):
    assert_screen_matches_oracle(collinear_table(seed, exact))


def correlated_table(p, seed):
    """Between 2p + 5 and 199 rows of p correlated columns on scales from
    0.01 to 1000."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2 * p + 5, 200))
    mix = np.eye(p) + rng.uniform(-0.6, 0.6, size=(p, p))
    X = rng.normal(size=(n, p)) @ mix * rng.uniform(0.01, 1000, size=p) \
        + rng.normal(size=p) * 100
    return table_from(X)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_vif_equals_auxiliary_regressions_on_random_tables(p, seed):
    """Correlated but well-conditioned tables, screened at a threshold low
    enough for several rounds. About 1% of draws have cond(R) above 1e5
    (up to 1e10); there the ``lstsq`` oracle itself can miss R^-1 by more
    than the tolerance, so they are skipped here and checked against the
    exact inverse below."""
    table = correlated_table(p, seed)
    assume(np.linalg.cond(pearson_matrix(table)) <= 1e5)
    assert_screen_matches_oracle(table, vif_threshold=2.0)


def exact_inverse_diagonal(R):
    """The diagonal of R^-1, each float of R taken exactly, by Gauss-Jordan
    elimination over fractions."""
    p = len(R)
    rows = [[Fraction(v) for v in row] + [Fraction(i == j) for j in range(p)]
            for i, row in enumerate(R.tolist())]
    for c in range(p):
        pivot = next(r for r in range(c, p) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(p):
            if r != c and rows[r][c] != 0:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    return [rows[k][p + k] for k in range(p)]


#: (p, seed) of ``correlated_table`` draws with cond(R) from 1.1e5 to 7.8e9.
#: Over all 257 draws with cond(R) > 1e5 among seeds 0-2999 and p 2-9, the
#: VIFs missed the exact diagonal of R^-1 by at most 1.88 cond(R) eps
#: relative. The first five cases are the draws with the largest misses,
#: the other seven span the condition numbers.
ILL_CONDITIONED = [(5, 1746), (8, 1822), (9, 1277), (5, 870), (7, 669), (9, 67),
                   (9, 706), (9, 1325), (8, 2336), (7, 1286), (8, 2773), (7, 670)]


@pytest.mark.parametrize("p, seed", ILL_CONDITIONED)
def test_vif_on_ill_conditioned_tables_within_cond_eps(p, seed):
    """Each VIF, the diagonal of R^-1 from R's eigendecomposition, is within
    4 cond(R) eps relative of the exact one: about twice the largest error
    measured."""
    table = correlated_table(p, seed)
    R = pearson_matrix(table)
    cond = np.linalg.cond(R)
    assert cond > 1e5
    bound = 4 * cond * np.finfo(np.float64).eps
    for got, want in zip(vif(table).tolist(), exact_inverse_diagonal(R)):
        assert abs(Fraction(got) - want) <= Fraction(bound) * want, (got, float(want))


class TestFlagCollinear:
    def test_independent_features_nothing_flagged(self, rng):
        X = rng.normal(size=(100, 4))
        rep = flag_collinear(table_from(X))
        assert rep.flagged == ()
        assert rep.kept == rep.variable_names

    def test_near_duplicate_pair_one_removed(self, rng):
        x = rng.normal(size=300)
        rough = 2 * x + rng.normal(size=300) * 0.05
        tri_like = 2 * x + rng.normal(size=300) * 0.06
        other = rng.normal(size=300)
        t = table_from(np.column_stack([other, rough, tri_like]),
                       names=("other", "roughness", "tri"))
        rep = flag_collinear(t)
        assert len(rep.flagged) >= 1
        assert set(rep.flagged) <= {"roughness", "tri"}
        survivor_vif = vif(t.select_features(rep.kept))
        assert np.all(survivor_vif < 10.0)

    def test_degenerate_thresholds_flag_nothing(self, rng):
        x = rng.normal(size=50)
        t = table_from(np.column_stack([x, x + rng.normal(size=50) * 1e-6]))
        rep = flag_collinear(t, r_abs_threshold=math.inf, vif_threshold=math.inf)
        assert rep.flagged == ()

    def test_tie_removes_later_variable(self):
        x = np.arange(20.0)
        y = np.cos(x)
        t = table_from(np.column_stack([x, y, x]), names=("a", "b", "a2"))
        rep = flag_collinear(t)
        assert rep.flagged[0] == "a2"  # a and a2 tie at +inf; later one goes

    def test_finite_tie_removes_later_variable(self, rng):
        # with two features both VIFs are 1/(1 - r^2): equal, and finite
        x = rng.normal(size=50)
        t = table_from(np.column_stack([x, x + rng.normal(size=50) * 0.3]))
        rep = flag_collinear(t)
        assert rep.vif[0] == rep.vif[1] and 10 <= rep.vif[0] < math.inf
        assert rep.flagged == ("f1",)

    def test_deterministic(self, rng):
        X = rng.normal(size=(80, 5))
        X[:, 4] = X[:, 2] + rng.normal(size=80) * 0.01
        t = table_from(X)
        a = flag_collinear(t)
        b = flag_collinear(t)
        assert a.flagged == b.flagged
        assert np.array_equal(a.pearson, b.pearson)

    def test_high_corr_pairs_recorded(self, rng):
        x = rng.normal(size=100)
        # r ~ 0.95 but VIF < 10 would need r^2 < 0.9; pick noise for r ~ 0.93
        y = x + rng.normal(size=100) * 0.42
        t = table_from(np.column_stack([x, y]), names=("a", "b"))
        rep = flag_collinear(t, r_abs_threshold=0.9, vif_threshold=50.0)
        if abs(rep.pearson[0, 1]) >= 0.9:
            assert rep.high_corr_pairs
            assert rep.high_corr_pairs[0][:2] == ("a", "b")

    def test_report_doc_serializes_infinity(self):
        x = np.arange(15.0)
        t = table_from(np.column_stack([x, x]), names=("a", "b"))
        doc = flag_collinear(t).to_doc()
        assert "Infinity" in doc["vif"]
        json.dumps(doc, allow_nan=False)  # must be valid strict JSON input
        # thresholds take the same sentinels, with their sign
        doc = flag_collinear(t, r_abs_threshold=-math.inf, vif_threshold=math.inf).to_doc()
        assert doc["thresholds"] == {"r_abs": "-Infinity", "vif": "Infinity"}
        json.dumps(doc, allow_nan=False)


class TestFitOls:
    def test_noiseless_generative(self, rng):
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        y = 2 + 3 * a - b
        m = fit_ols(table_from(np.column_stack([a, b]), y, names=("a", "b")))
        assert m.intercept == pytest.approx(2.0, abs=1e-9)
        assert m.coefficients[0] == pytest.approx(3.0, abs=1e-9)
        assert m.coefficients[1] == pytest.approx(-1.0, abs=1e-9)
        assert m.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_constant_target(self, rng):
        X = rng.normal(size=(30, 3))
        m = fit_ols(table_from(X, np.full(30, 5.5)))
        assert m.intercept == pytest.approx(5.5, abs=1e-9)
        assert np.allclose(m.coefficients, 0.0, atol=1e-9)
        assert m.r_squared == 0.0

    def test_matches_normal_equations_oracle(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(50, 4))
            y = rng.normal(size=50)
            m = fit_ols(table_from(X, y))
            expected = ols_oracle(X, y)
            got = np.concatenate([[m.intercept], m.coefficients])
            assert np.max(np.abs(got - expected)) < 1e-8

    def test_residuals_orthogonal_and_zero_mean(self, rng):
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        t = table_from(X, y)
        m = fit_ols(t)
        resid = y - m.predict_rows(X)
        assert abs(resid.sum()) < 1e-8
        for k in range(3):
            assert abs(resid @ X[:, k]) < 1e-8

    @pytest.mark.parametrize("seed", [*range(8), "ill-conditioned"])
    def test_matches_pivoted_qr_oracle(self, seed):
        """Random designs of 1-11 features on scales from 0.01 to 1000, and
        one with a near-duplicate column, condition number near 1e6."""
        if seed == "ill-conditioned":
            rng, n = np.random.default_rng(12345), 500
            X = rng.normal(size=(n, 5))
            X[:, 1] = X[:, 0] + rng.normal(size=n) * 7e-3
            X[:, 4] = X[:, 4] * 1e3 + 5e3
            assert 5e5 < np.linalg.cond(np.column_stack([np.ones(n), X])) < 2e6
        else:
            rng = np.random.default_rng(seed)
            n, p = rng.integers(20, 400), rng.integers(1, 12)
            X = rng.normal(size=(n, p)) * rng.uniform(0.01, 1000, size=p) \
                + rng.normal(size=p) * 100
        y = X @ rng.normal(size=X.shape[1]) + rng.normal(size=n)
        m = fit_ols(table_from(X, y))
        got = np.concatenate([[m.intercept], m.coefficients])
        want = qr_oracle(X, y)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-9

    def test_rank_deficiency_names_column(self, rng):
        """The named column is one of the dependent set."""
        x = rng.normal(size=25)
        X = np.column_stack([x, 2 * x, rng.normal(size=25)])
        with pytest.raises(SingularDesignError, match="'f0'|'f1'"):
            fit_ols(table_from(X))
        for level in (0.1, 1.0, 7.0):  # a constant feature
            X = np.column_stack([rng.normal(size=30), np.full(30, level),
                                 rng.normal(size=30)])
            with pytest.raises(SingularDesignError, match="'intercept'|'f1'"):
                fit_ols(table_from(X, rng.normal(size=30)))
        X = rng.normal(size=(40, 4))
        X[:, 3] = X[:, 0] + X[:, 2]
        with pytest.raises(SingularDesignError, match="'f0'|'f2'|'f3'"):
            fit_ols(table_from(X, rng.normal(size=40)))

    def test_too_few_rows(self, rng):
        X = rng.normal(size=(4, 3))
        with pytest.raises(ValueError, match="rows"):
            fit_ols(table_from(X, np.zeros(4)))


class TestPredictLinear:
    def test_constant_model(self):
        m = LinearModel(("a", "b"), 5.0, [0.0, 0.0], 0.0, 0.0)
        assert m.predict_rows(np.array([[99.0, -3.0]]))[0] == 5.0

    def test_hand_arithmetic(self):
        m = LinearModel(("a", "b"), 2.0, [3.0, -1.0], 1.0, 0.0)
        assert m.predict_rows(np.array([[1.0, 1.0]]))[0] == 4.0

    def test_length_mismatch(self):
        m = LinearModel(("a",), 0.0, [1.0], 1.0, 0.0)
        with pytest.raises(ValueError, match=r"\(n, 1\) features"):
            m.predict_rows(np.array([[1.0, 2.0]]))

    def test_fitted_values_residual_mean_zero(self, rng):
        X = rng.normal(size=(45, 2))
        y = 1 + X @ [0.5, -2.0] + rng.normal(size=45)
        t = table_from(X, y)
        m = fit_ols(t)
        resid = y - m.predict_rows(X)
        assert abs(resid.mean()) < 1e-10

    def test_doc_roundtrip(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        m = fit_ols(table_from(X, y))
        back = LinearModel.from_doc(json.loads(json.dumps(m.to_doc())))
        assert np.array_equal(back.coefficients, m.coefficients)
        assert back.intercept == m.intercept
        assert back.feature_names == m.feature_names
