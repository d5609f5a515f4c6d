"""Support vector regression (epsilon-insensitive, RBF/linear/poly kernels).

The dual problem is solved with a projected-gradient ascent on the box
constraints, which is robust and dependency-free; the datasets the ADSALA
pipeline produces are small (~10^3 rows), so the O(n^2) kernel matrix is
cheap to form.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseRegressor, check_X, check_X_y
from repro.ml.neighbors import squared_distances

__all__ = ["SVR"]


def _kernel_matrix(
    X: np.ndarray, Y: np.ndarray, kernel: str, gamma: float, degree: int, coef0: float
) -> np.ndarray:
    if kernel == "linear":
        return X @ Y.T
    if kernel == "poly":
        return (gamma * (X @ Y.T) + coef0) ** degree
    if kernel == "rbf":
        # exp(-gamma * d²), finished inside the distance buffer.
        K = squared_distances(X, Y)
        np.multiply(K, -gamma, out=K)
        return np.exp(K, out=K)
    raise ValueError(f"Unknown kernel {kernel!r}")


class SVR(BaseRegressor):
    """Epsilon-insensitive support vector regression.

    Parameters
    ----------
    C:
        Regularisation strength (box constraint on the dual variables).
    epsilon:
        Width of the insensitive tube.
    kernel:
        ``"rbf"``, ``"linear"`` or ``"poly"``.
    gamma:
        Kernel coefficient; ``"scale"`` uses ``1 / (n_features * X.var())``.
    degree, coef0:
        Polynomial-kernel parameters.
    max_iter, tol:
        Projected-gradient iteration budget and convergence tolerance.
    """

    def __init__(
        self,
        C: float = 1.0,
        epsilon: float = 0.1,
        kernel: str = "rbf",
        gamma="scale",
        degree: int = 3,
        coef0: float = 0.0,
        max_iter: int = 500,
        tol: float = 1e-5,
    ):
        self.C = C
        self.epsilon = epsilon
        self.kernel = kernel
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0
        self.max_iter = max_iter
        self.tol = tol

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            variance = float(X.var())
            return 1.0 / (X.shape[1] * variance) if variance > 0 else 1.0
        if self.gamma == "auto":
            return 1.0 / X.shape[1]
        value = float(self.gamma)
        if value <= 0:
            raise ValueError("gamma must be positive")
        return value

    def fit(self, X, y) -> "SVR":
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        X, y = check_X_y(X, y)
        n_samples = X.shape[0]
        gamma = self._resolve_gamma(X)

        K = _kernel_matrix(X, X, self.kernel, gamma, self.degree, self.coef0)

        # Dual variables: beta_i = alpha_i - alpha_i^* in [-C, C].
        # Maximise  -0.5 beta^T K beta + beta^T y - epsilon * ||beta||_1
        # subject to the box constraint (the equality constraint is absorbed
        # by fitting an explicit intercept afterwards).
        beta = np.zeros(n_samples)
        # Lipschitz constant of the gradient.
        lipschitz = float(np.linalg.eigvalsh(K)[-1]) if n_samples > 1 else float(K[0, 0])
        step = 1.0 / max(lipschitz, 1e-12)

        for _ in range(self.max_iter):
            gradient = y - K @ beta
            # Subgradient of -epsilon*||beta||_1 handled via proximal step.
            candidate = beta + step * gradient
            # Soft-threshold for the L1 term, then clip to the box.
            candidate = np.sign(candidate) * np.maximum(
                np.abs(candidate) - step * self.epsilon, 0.0
            )
            candidate = np.clip(candidate, -self.C, self.C)
            if np.max(np.abs(candidate - beta)) < self.tol:
                beta = candidate
                break
            beta = candidate

        self.dual_coef_ = beta
        self.X_train_ = X
        self._gamma_ = gamma
        support = np.abs(beta) > 1e-10
        self.support_ = np.flatnonzero(support)
        # Intercept: median residual over the training set (robust choice).
        decision = K @ beta
        self.intercept_ = float(np.median(y - decision))
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("dual_coef_")
        X = check_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features but model was fitted with "
                f"{self.n_features_in_}"
            )
        K = _kernel_matrix(
            X, self.X_train_, self.kernel, self._gamma_, self.degree, self.coef0
        )
        return K @ self.dual_coef_ + self.intercept_
