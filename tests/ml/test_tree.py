"""Tests for the CART regression tree."""

import numpy as np
import pytest

from repro.ml.metrics import r2_score
from repro.ml.tree import DecisionTreeRegressor


def step_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 2))
    y = np.where(X[:, 0] > 0.5, 10.0, -10.0) + np.where(X[:, 1] > 0.3, 2.0, 0.0)
    return X, y


class TestFitting:
    def test_learns_piecewise_constant_function(self):
        X, y = step_data()
        model = DecisionTreeRegressor(max_depth=4).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.99

    def test_single_leaf_predicts_mean(self):
        X, y = step_data()
        model = DecisionTreeRegressor(max_depth=0).fit(X, y)
        np.testing.assert_allclose(model.predict(X), np.mean(y))
        assert model.n_leaves_ == 1

    def test_depth_limit_respected(self):
        X, y = step_data()
        model = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert model.depth_ <= 3

    def test_min_samples_leaf_respected(self):
        X, y = step_data(n=100)
        model = DecisionTreeRegressor(min_samples_leaf=20).fit(X, y)
        assert model.n_leaves_ > 1
        # Leaf values are distinct here, so they identify the leaves.
        _, leaf_sizes = np.unique(model.predict(X), return_counts=True)
        assert leaf_sizes.size == model.n_leaves_
        assert leaf_sizes.min() >= 20

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        y = np.full(50, 7.0)
        model = DecisionTreeRegressor().fit(X, y)
        assert model.n_leaves_ == 1
        np.testing.assert_allclose(model.predict(X), 7.0)

    def test_overfits_training_data_when_unconstrained(self, regression_data):
        X, y = regression_data
        model = DecisionTreeRegressor(max_depth=None, min_samples_leaf=1).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.95

    def test_sample_weight_changes_fit(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        # Heavily weight the left half: the root value reflects the weights.
        weights = np.array([100.0, 100.0, 1.0, 1.0])
        model = DecisionTreeRegressor(max_depth=0)
        model.fit(X, y, sample_weight=weights)
        assert model.flat_tree_.value[0] == pytest.approx(
            np.average(y, weights=weights)
        )

    def test_negative_sample_weight_rejected(self):
        X, y = step_data(n=20)
        with pytest.raises(ValueError, match="non-negative"):
            DecisionTreeRegressor().fit(X, y, sample_weight=-np.ones(20))


class TestValidation:
    def test_invalid_min_samples_split(self):
        X, y = step_data(n=20)
        with pytest.raises(ValueError, match="min_samples_split"):
            DecisionTreeRegressor(min_samples_split=1).fit(X, y)

    def test_invalid_min_samples_leaf(self):
        X, y = step_data(n=20)
        with pytest.raises(ValueError, match="min_samples_leaf"):
            DecisionTreeRegressor(min_samples_leaf=0).fit(X, y)

    def test_invalid_max_features_string(self):
        X, y = step_data(n=20)
        with pytest.raises(ValueError, match="max_features"):
            DecisionTreeRegressor(max_features="bogus").fit(X, y)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            DecisionTreeRegressor().predict([[0.0, 0.0]])

    def test_feature_mismatch_raises(self):
        X, y = step_data()
        model = DecisionTreeRegressor(max_depth=2).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(X[:, :1])


class TestMaxFeatures:
    @pytest.mark.parametrize(
        "max_features,expected",
        [(None, 6), ("sqrt", 2), ("log2", 2), (3, 3), (0.5, 3)],
    )
    def test_resolution(self, max_features, expected):
        model = DecisionTreeRegressor(max_features=max_features)
        assert model._resolve_max_features(6) == expected

    def test_subsampled_tree_still_fits(self):
        X, y = step_data()
        model = DecisionTreeRegressor(max_features=1, random_state=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.5


class TestIntrospection:
    def test_feature_importances_sum_to_one(self):
        X, y = step_data()
        model = DecisionTreeRegressor(max_depth=5).fit(X, y)
        importances = model.feature_importances()
        assert importances.shape == (2,)
        assert importances.sum() == pytest.approx(1.0)

    def test_dominant_feature_has_higher_importance(self):
        X, y = step_data()
        model = DecisionTreeRegressor(max_depth=5).fit(X, y)
        importances = model.feature_importances()
        assert importances[0] > importances[1]

    def test_determinism_with_seed(self):
        X, y = step_data()
        a = DecisionTreeRegressor(max_features=1, random_state=3).fit(X, y)
        b = DecisionTreeRegressor(max_features=1, random_state=3).fit(X, y)
        np.testing.assert_allclose(a.predict(X), b.predict(X))
