"""The in-place kNN and RBF distance builds equal the expressions they replace.

``squared_distances`` finishes ``max(|x|² − 2·x·y + |y|², 0)`` (and the RBF
kernel its ``exp(−γ·d²)``) inside the ``X @ Y.T`` buffer.  The reference
functions below keep those expressions written out, as the models computed
them before; every output is compared with ``np.array_equal``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.neighbors import KNeighborsRegressor
from repro.ml.svm import SVR, _kernel_matrix

values = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def reference_rbf(X, Y, gamma):
    sq_x = np.einsum("ij,ij->i", X, X)
    sq_y = np.einsum("ij,ij->i", Y, Y)
    distances = np.maximum(sq_x[:, None] - 2.0 * (X @ Y.T) + sq_y[None, :], 0.0)
    return np.exp(-gamma * distances)


def reference_knn_predict(model, X):
    cross = X @ model.X_train_.T
    sq_train = np.einsum("ij,ij->i", model.X_train_, model.X_train_)
    sq_query = np.einsum("ij,ij->i", X, X)
    distances_sq = np.maximum(sq_query[:, None] - 2.0 * cross + sq_train[None, :], 0.0)
    k = model.n_neighbors
    neighbor_idx = np.argpartition(distances_sq, k - 1, axis=1)[:, :k]
    neighbor_targets = model.y_train_[neighbor_idx]
    if model.weights == "uniform":
        return neighbor_targets.mean(axis=1)
    neighbor_dist = np.sqrt(np.take_along_axis(distances_sq, neighbor_idx, axis=1))
    exact = neighbor_dist <= 1e-12
    has_exact = exact.any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / neighbor_dist
        predictions = (
            (inv * neighbor_targets).cumsum(axis=1)[:, -1] / inv.cumsum(axis=1)[:, -1]
        )
    hits = exact[has_exact]
    predictions[has_exact] = (
        np.where(hits, neighbor_targets[has_exact], 0.0).cumsum(axis=1)[:, -1]
        / hits.sum(axis=1)
    )
    return predictions


@st.composite
def problems(draw):
    """Training rows with duplicates; queries with exact matches among them."""
    n_cols = draw(st.integers(1, 5))
    distinct = draw(hnp.arrays(np.float64, (draw(st.integers(1, 12)), n_cols), elements=values))
    rows = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=16))
    X_train = distinct[rows]
    y = draw(hnp.arrays(np.float64, (len(X_train),), elements=values))
    fresh = draw(hnp.arrays(np.float64, (draw(st.integers(0, 8)), n_cols), elements=values))
    copies = draw(st.lists(st.integers(0, len(X_train) - 1), max_size=6))
    X = np.vstack([fresh, X_train[copies]])
    if not len(X):
        X = X_train[:1].copy()
    return X_train, y, X


class TestKNeighbors:
    @given(problems(), st.sampled_from(["uniform", "distance"]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_predict_equals_reference(self, problem, weights, data):
        X_train, y, X = problem
        k = data.draw(st.integers(1, len(X_train)))
        model = KNeighborsRegressor(n_neighbors=k, weights=weights).fit(X_train, y)
        expected = reference_knn_predict(model, X)
        assert np.array_equal(model.predict(X), expected, equal_nan=True)

    @given(problems(), st.sampled_from(["uniform", "distance"]))
    @settings(max_examples=50, deadline=None)
    def test_all_training_rows_as_neighbours(self, problem, weights):
        X_train, y, X = problem
        model = KNeighborsRegressor(n_neighbors=len(X_train), weights=weights)
        model.fit(X_train, y)
        expected = reference_knn_predict(model, X)
        assert np.array_equal(model.predict(X), expected, equal_nan=True)


class TestRbfKernel:
    @given(problems(), st.floats(1e-4, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_fit_and_predict_matrices_equal_reference(self, problem, gamma):
        X_train, _, X = problem
        fit = _kernel_matrix(X_train, X_train, gamma)
        assert np.array_equal(fit, reference_rbf(X_train, X_train, gamma))
        predict = _kernel_matrix(X, X_train, gamma)
        assert np.array_equal(predict, reference_rbf(X, X_train, gamma))

    @given(problems())
    @settings(max_examples=30, deadline=None)
    def test_svr_predict_equals_reference(self, problem):
        X_train, y, X = problem
        model = SVR(max_iter=20).fit(X_train, y)
        K = reference_rbf(X, model.X_train_, model._gamma_)
        assert np.array_equal(model.predict(X), K @ model.dual_coef_ + model.intercept_)
