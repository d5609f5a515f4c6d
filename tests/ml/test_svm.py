"""Tests for support vector regression."""

import pickle

import numpy as np
import pytest

from repro.ml.metrics import r2_score
from repro.ml.svm import SVR, _kernel_matrix


class TestKernels:
    def test_rbf_kernel_diagonal_is_one(self):
        X = np.random.default_rng(0).normal(size=(5, 3))
        K = _kernel_matrix(X, X, gamma=0.5)
        np.testing.assert_allclose(np.diag(K), 1.0)

    def test_rbf_kernel_bounded(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        K = _kernel_matrix(X, X, gamma=0.5)
        assert np.all(K <= 1.0 + 1e-12)
        assert np.all(K > 0.0)


class TestSVR:
    def test_fits_linear_trend(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(80, 2))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 1]
        model = SVR(C=10.0, epsilon=0.01, max_iter=1000).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.9

    def test_rbf_fits_nonlinear_function(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 2, size=(120, 1))
        y = np.sin(2.0 * X[:, 0])
        model = SVR(C=50.0, epsilon=0.01, gamma=2.0, max_iter=2000).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.8

    def test_dual_coefficients_respect_box_constraint(self, regression_data):
        X, y = regression_data
        model = SVR(C=2.0, max_iter=200).fit(X, y)
        assert np.all(np.abs(model.dual_coef_) <= 2.0 + 1e-9)

    def test_support_vectors_subset_of_training(self, regression_data):
        X, y = regression_data
        model = SVR(C=1.0, max_iter=200).fit(X, y)
        assert model.support_.size <= X.shape[0]

    def test_wide_epsilon_gives_flat_model(self, regression_data):
        X, y = regression_data
        model = SVR(epsilon=1e6, C=1.0, max_iter=200).fit(X, y)
        # With everything inside the tube the dual solution is all zeros.
        np.testing.assert_allclose(model.dual_coef_, 0.0, atol=1e-9)
        np.testing.assert_allclose(model.predict(X), model.intercept_)

    def test_gamma_scale_and_auto(self, regression_data):
        X, y = regression_data
        for gamma in ("scale", "auto"):
            model = SVR(gamma=gamma, max_iter=50).fit(X, y)
            assert model._gamma_ > 0

    def test_invalid_parameters(self, regression_data):
        X, y = regression_data
        with pytest.raises(ValueError, match="C must be positive"):
            SVR(C=0.0).fit(X, y)
        with pytest.raises(ValueError, match="epsilon"):
            SVR(epsilon=-1.0).fit(X, y)
        for gamma in (-2.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="gamma"):
                SVR(gamma=gamma).fit(X, y)

    def test_pickle_with_the_old_kernel_parameters_predicts_the_same(self, regression_data):
        # SVR once took kernel, degree and coef0; a model pickled then
        # carries them as attributes and must still load and predict.
        X, y = regression_data
        model = SVR(C=2.0, max_iter=50).fit(X, y)
        old = SVR.__new__(SVR)
        old.__dict__.update(model.__dict__, kernel="rbf", degree=3, coef0=0.0)
        loaded = pickle.loads(pickle.dumps(old))
        assert loaded.kernel == "rbf"
        assert loaded.predict(X).tobytes() == model.predict(X).tobytes()
