"""k-nearest-neighbour regression.

kNN is included in the paper's candidate pool (Table II) and, tellingly, is
one of the most *accurate* models on several routines but is eliminated by
the estimated-speedup criterion because its evaluation time (a full distance
computation against the training set) is orders of magnitude larger than the
linear models' — exactly the accuracy/latency trade-off the paper's model
selection is designed to capture.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseRegressor, check_X, check_X_y

__all__ = ["KNeighborsRegressor", "squared_distances"]


def squared_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances via the expansion trick, clamped at 0.

    ``max(|x|² − 2·x·y + |y|², 0)`` for every row pair, computed inside the
    ``X @ Y.T`` buffer: the same ufuncs in the same order as the
    expression written out, so bit-identical to it, without its three
    full-size temporaries.
    """
    distances = X @ Y.T
    np.multiply(distances, 2.0, out=distances)
    np.subtract(np.einsum("ij,ij->i", X, X)[:, None], distances, out=distances)
    np.add(distances, np.einsum("ij,ij->i", Y, Y), out=distances)
    return np.maximum(distances, 0.0, out=distances)


class KNeighborsRegressor(BaseRegressor):
    """k-nearest-neighbour regressor with uniform or distance weighting.

    Parameters
    ----------
    n_neighbors:
        Number of neighbours to average.
    weights:
        ``"uniform"`` (plain average) or ``"distance"`` (inverse-distance
        weighted average; exact matches short-circuit to the stored target).
    """

    def __init__(self, n_neighbors: int = 5, weights: str = "uniform"):
        self.n_neighbors = n_neighbors
        self.weights = weights

    def fit(self, X, y) -> "KNeighborsRegressor":
        if self.n_neighbors < 1:
            raise ValueError("n_neighbors must be at least 1")
        if self.weights not in ("uniform", "distance"):
            raise ValueError(f"Unknown weights {self.weights!r}")
        X, y = check_X_y(X, y)
        if self.n_neighbors > X.shape[0]:
            raise ValueError(
                f"n_neighbors={self.n_neighbors} exceeds the number of "
                f"training samples ({X.shape[0]})"
            )
        self.X_train_ = X
        self.y_train_ = y
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("X_train_")
        X = check_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features but model was fitted with "
                f"{self.n_features_in_}"
            )
        distances_sq = squared_distances(X, self.X_train_)

        k = self.n_neighbors
        neighbor_idx = np.argpartition(distances_sq, k - 1, axis=1)[:, :k]
        neighbor_targets = self.y_train_[neighbor_idx]

        if self.weights == "uniform":
            return neighbor_targets.mean(axis=1)

        neighbor_dist = np.sqrt(
            np.take_along_axis(distances_sq, neighbor_idx, axis=1)
        )
        # Inverse-distance weights, as sequential prefix sums along the
        # neighbour axis (the row loop in tests/ml/test_neighbors.py is the
        # oracle); rows holding an exact match average those matches instead.
        exact = neighbor_dist <= 1e-12
        has_exact = exact.any(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / neighbor_dist
            predictions = (
                (inv * neighbor_targets).cumsum(axis=1)[:, -1]
                / inv.cumsum(axis=1)[:, -1]
            )
        hits = exact[has_exact]
        predictions[has_exact] = (
            np.where(hits, neighbor_targets[has_exact], 0.0).cumsum(axis=1)[:, -1]
            / hits.sum(axis=1)
        )
        return predictions
