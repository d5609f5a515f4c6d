"""Tests for the k-nearest-neighbour regressor."""

import numpy as np
import pytest

from repro.ml.metrics import r2_score
from repro.ml.neighbors import KNeighborsRegressor


def distance_weighted_row_loop(model, X):
    """The one-query-row-at-a-time form of ``weights="distance"`` (the oracle).

    Same neighbours as ``predict``; each row's weighted mean is accumulated
    neighbour by neighbour, and a row with exact matches averages them.
    """
    X = np.asarray(X, dtype=float)
    cross = X @ model.X_train_.T
    sq_train = np.einsum("ij,ij->i", model.X_train_, model.X_train_)
    sq_query = np.einsum("ij,ij->i", X, X)
    distances_sq = np.maximum(sq_query[:, None] - 2.0 * cross + sq_train[None, :], 0.0)
    k = model.n_neighbors
    neighbor_idx = np.argpartition(distances_sq, k - 1, axis=1)[:, :k]
    neighbor_dist = np.sqrt(np.take_along_axis(distances_sq, neighbor_idx, axis=1))
    predictions = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        targets = model.y_train_[neighbor_idx[i]]
        exact = neighbor_dist[i] <= 1e-12
        if np.any(exact):
            total = 0.0
            for target in targets[exact]:
                total += target
            predictions[i] = total / np.count_nonzero(exact)
        else:
            weighted = 0.0
            weight = 0.0
            for dist, target in zip(neighbor_dist[i], targets):
                weighted += (1.0 / dist) * target
                weight += 1.0 / dist
            predictions[i] = weighted / weight
    return predictions


class TestKNN:
    def test_one_neighbor_memorises_training_data(self, regression_data):
        X, y = regression_data
        model = KNeighborsRegressor(n_neighbors=1).fit(X, y)
        np.testing.assert_allclose(model.predict(X), y)

    def test_uniform_average_of_neighbors(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0]])
        y = np.array([0.0, 1.0, 2.0, 100.0])
        model = KNeighborsRegressor(n_neighbors=3, weights="uniform").fit(X, y)
        # Query at 1.0: neighbours are 0, 1, 2 -> mean 1.0.
        assert model.predict([[1.0]])[0] == pytest.approx(1.0)

    def test_distance_weighting_prefers_closer_points(self):
        X = np.array([[0.0], [1.0], [4.0]])
        y = np.array([0.0, 10.0, 100.0])
        uniform = KNeighborsRegressor(n_neighbors=3, weights="uniform").fit(X, y)
        weighted = KNeighborsRegressor(n_neighbors=3, weights="distance").fit(X, y)
        query = [[0.9]]
        # The distance-weighted estimate should sit closer to the y of the
        # nearest training point (10.0) than the unweighted mean does.
        assert abs(weighted.predict(query)[0] - 10.0) < abs(uniform.predict(query)[0] - 10.0)

    def test_exact_match_with_distance_weights(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([5.0, 7.0, 9.0])
        model = KNeighborsRegressor(n_neighbors=3, weights="distance").fit(X, y)
        assert model.predict([[1.0]])[0] == pytest.approx(7.0)

    @pytest.mark.parametrize("k", [1, 3, 5, 9])
    def test_distance_weights_equal_the_row_loop_bitwise(self, regression_data, k):
        X, y = regression_data
        model = KNeighborsRegressor(n_neighbors=k, weights="distance").fit(X[:150], y[:150])
        # Held-out rows, training rows (one exact match each) and a training
        # set with duplicated points (several exact matches per row).
        queries = np.vstack([X[150:], X[:40]])
        np.testing.assert_array_equal(
            model.predict(queries), distance_weighted_row_loop(model, queries)
        )
        doubled = KNeighborsRegressor(n_neighbors=k, weights="distance").fit(
            np.vstack([X[:30], X[:30]]), np.concatenate([y[:30], y[30:60]])
        )
        np.testing.assert_array_equal(
            doubled.predict(X[:60]), distance_weighted_row_loop(doubled, X[:60])
        )

    def test_generalises_smooth_function(self, regression_data):
        X, y = regression_data
        split = 200
        model = KNeighborsRegressor(n_neighbors=5, weights="distance").fit(X[:split], y[:split])
        assert r2_score(y[split:], model.predict(X[split:])) > 0.5

    def test_k_larger_than_dataset_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            KNeighborsRegressor(n_neighbors=10).fit(np.zeros((5, 2)), np.zeros(5))

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            KNeighborsRegressor(weights="gaussian").fit(np.zeros((5, 2)), np.zeros(5))

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError, match="n_neighbors"):
            KNeighborsRegressor(n_neighbors=0).fit(np.zeros((5, 2)), np.zeros(5))

    def test_feature_mismatch_raises(self, regression_data):
        X, y = regression_data
        model = KNeighborsRegressor().fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(X[:, :2])
