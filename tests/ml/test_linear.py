"""Tests for LinearRegression, Ridge and ElasticNet."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.linear import ElasticNet, LinearRegression, Ridge, _soft_threshold
from repro.ml.metrics import r2_score


class TestLinearRegression:
    def test_recovers_exact_coefficients(self, linear_data):
        X, y, coef, intercept = linear_data
        model = LinearRegression().fit(X, y)
        np.testing.assert_allclose(model.coef_, coef, atol=1e-8)
        assert model.intercept_ == pytest.approx(intercept, abs=1e-8)

    def test_prediction_matches_formula(self, linear_data):
        X, y, _, _ = linear_data
        model = LinearRegression().fit(X, y)
        np.testing.assert_allclose(model.predict(X), X @ model.coef_ + model.intercept_)

    def test_without_intercept(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = 2.0 * X[:, 0]
        model = LinearRegression(fit_intercept=False).fit(X, y)
        assert model.intercept_ == 0.0
        assert model.coef_[0] == pytest.approx(2.0)

    def test_feature_count_mismatch_raises(self, linear_data):
        X, y, _, _ = linear_data
        model = LinearRegression().fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(X[:, :2])

    def test_handles_rank_deficiency(self):
        # Duplicate column: lstsq should still return a finite solution.
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        y = np.array([2.0, 4.0, 6.0, 8.0])
        model = LinearRegression().fit(X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-8)

    def test_subnormal_column_fits_finite(self):
        # One subnormal value among zeros: its singular value passes lstsq's
        # relative cut-off, and 1 / 2.2e-308 fitted a coefficient of 1.8e308.
        X = np.zeros((10, 1))
        X[0, 0] = 2.2250738585072014e-308
        y = np.arange(10.0)
        model = LinearRegression().fit(X, y)
        assert np.all(np.isfinite(model.coef_))
        assert np.all(np.isfinite(model.predict(X)))
        assert model.intercept_ == pytest.approx(y.mean())

    def test_subnormal_direction_dropped_beside_an_ordinary_one(self):
        X = np.zeros((10, 2))
        X[0, 0] = 2.2250738585072014e-308
        X[:, 1] = np.arange(10.0)
        y = 2.0 * X[:, 1] + 1.0
        model = LinearRegression().fit(X, y)
        assert np.all(np.isfinite(model.coef_))
        np.testing.assert_allclose(model.predict(X), y, atol=1e-8)


class TestRidge:
    def test_zero_alpha_matches_ols(self, linear_data):
        X, y, _, _ = linear_data
        ols = LinearRegression().fit(X, y)
        ridge = Ridge(alpha=0.0).fit(X, y)
        np.testing.assert_allclose(ridge.coef_, ols.coef_, atol=1e-8)

    def test_shrinkage_increases_with_alpha(self, linear_data):
        X, y, _, _ = linear_data
        small = Ridge(alpha=0.1).fit(X, y)
        large = Ridge(alpha=1000.0).fit(X, y)
        assert np.linalg.norm(large.coef_) < np.linalg.norm(small.coef_)

    def test_negative_alpha_rejected(self, linear_data):
        X, y, _, _ = linear_data
        with pytest.raises(ValueError, match="non-negative"):
            Ridge(alpha=-1.0).fit(X, y)

    def test_reasonable_fit_quality(self, regression_data):
        X, y = regression_data
        model = Ridge(alpha=1.0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.3


class TestElasticNet:
    def test_recovers_sparse_signal(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 10))
        true_coef = np.zeros(10)
        true_coef[[0, 3]] = [2.0, -1.5]
        y = X @ true_coef + rng.normal(0, 0.01, size=200)
        model = ElasticNet(alpha=0.05, l1_ratio=0.9, max_iter=2000).fit(X, y)
        # The two active coefficients dominate, the rest are (near) zero.
        assert abs(model.coef_[0]) > 1.0
        assert abs(model.coef_[3]) > 0.7
        inactive = np.delete(np.abs(model.coef_), [0, 3])
        assert np.all(inactive < 0.2)

    def test_high_alpha_zeroes_everything(self, regression_data):
        X, y = regression_data
        model = ElasticNet(alpha=1e6, l1_ratio=1.0).fit(X, y)
        np.testing.assert_allclose(model.coef_, 0.0, atol=1e-10)
        assert model.intercept_ == pytest.approx(float(np.mean(y)), rel=1e-6)

    def test_zero_alpha_approaches_ols(self, linear_data):
        X, y, coef, _ = linear_data
        model = ElasticNet(alpha=1e-8, l1_ratio=0.5, max_iter=5000, tol=1e-10).fit(X, y)
        np.testing.assert_allclose(model.coef_, coef, atol=1e-3)

    def test_invalid_l1_ratio(self, linear_data):
        X, y, _, _ = linear_data
        with pytest.raises(ValueError, match="l1_ratio"):
            ElasticNet(l1_ratio=1.5).fit(X, y)

    def test_convergence_reported(self, linear_data):
        X, y, _, _ = linear_data
        model = ElasticNet(alpha=0.01, max_iter=500).fit(X, y)
        assert 1 <= model.n_iter_ <= 500

    def test_constant_feature_ignored(self):
        X = np.column_stack([np.ones(50), np.linspace(0, 1, 50)])
        y = 3.0 * X[:, 1] + 1.0
        model = ElasticNet(alpha=0.001, max_iter=2000).fit(X, y)
        assert model.coef_[0] == pytest.approx(0.0, abs=1e-8)
        assert model.coef_[1] == pytest.approx(3.0, abs=0.2)


def _residual_form_elastic_net(X, y, alpha, l1_ratio, max_iter, tol, fit_intercept):
    """Coordinate descent over the residual vector: the O(n_samples)-per-update
    formulation ``ElasticNet`` used before its Gram form, kept as the oracle."""
    n_samples, n_features = X.shape
    if fit_intercept:
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()
    else:
        Xc, yc = X.copy(), y.copy()
    l1_penalty = alpha * l1_ratio * n_samples
    l2_penalty = alpha * (1.0 - l1_ratio) * n_samples
    coef = np.zeros(n_features)
    column_norms = (Xc ** 2).sum(axis=0)
    residual = yc - Xc @ coef
    n_iterations = 0
    for n_iterations in range(1, max_iter + 1):
        max_update = 0.0
        for j in range(n_features):
            if column_norms[j] == 0.0:
                continue
            old = coef[j]
            rho = Xc[:, j] @ residual + column_norms[j] * old
            new = _soft_threshold(rho, l1_penalty) / (column_norms[j] + l2_penalty)
            if new != old:
                residual += Xc[:, j] * (old - new)
                coef[j] = new
                max_update = max(max_update, abs(new - old))
        if max_update <= tol:
            break
    return coef, n_iterations


class TestElasticNetGramForm:
    """The Gram-form sweep is the residual-form sweep reassociated: same
    coordinate order, same stopping rule, coefficients equal to rounding."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_samples=st.integers(12, 160),
        n_features=st.integers(1, 12),
        alpha=st.sampled_from([0.001, 0.01, 0.1]),
        l1_ratio=st.sampled_from([0.2, 0.5, 0.8]),
        fit_intercept=st.booleans(),
        constant_column=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_residual_form(
        self, seed, n_samples, n_features, alpha, l1_ratio, fit_intercept, constant_column
    ):
        rng = np.random.default_rng(seed)
        # Correlated standardised features and an O(1) log-runtime-like target.
        mixing = np.eye(n_features) + 0.5 * rng.normal(size=(n_features, n_features))
        X = rng.normal(size=(n_samples, n_features)) @ mixing
        X = (X - X.mean(axis=0)) / np.maximum(X.std(axis=0), 1e-12)
        if constant_column:
            X[:, 0] = 1.0
        y = X @ rng.normal(size=n_features) - 7.0 + rng.normal(0.0, 0.1, n_samples)

        model = ElasticNet(
            alpha=alpha, l1_ratio=l1_ratio, max_iter=500, fit_intercept=fit_intercept
        ).fit(X, y)
        coef, n_iter = _residual_form_elastic_net(
            X, y, alpha, l1_ratio, 500, model.tol, fit_intercept
        )
        assert model.n_iter_ == n_iter
        np.testing.assert_allclose(model.coef_, coef, rtol=0, atol=1e-12)
