"""Support vector regression (epsilon-insensitive, RBF kernel).

The dual problem is solved with accelerated proximal gradient (FISTA,
Beck & Teboulle 2009) restarted whenever the momentum points uphill
(O'Donoghue & Candès 2015); its step comes from a short power iteration on
the kernel matrix.  The datasets the ADSALA pipeline produces are small
(~10^3 rows), so the O(n^2) kernel matrix is cheap to form.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseRegressor, check_X, check_X_y
from repro.ml.neighbors import squared_distances

__all__ = ["SVR"]


def _kernel_matrix(X: np.ndarray, Y: np.ndarray, gamma: float) -> np.ndarray:
    """The RBF kernel ``exp(-gamma * d²)``, finished inside the distance buffer."""
    K = squared_distances(X, Y)
    np.multiply(K, -gamma, out=K)
    return np.exp(K, out=K)


def _lipschitz_bound(K: np.ndarray) -> float:
    """An upper bound on the largest eigenvalue of the non-negative ``K``.

    For a positive ``v``, ``max_i (K v)_i / v_i`` never falls below it
    (Collatz-Wielandt); 20 power steps from the ones vector bring it close,
    and 1 % covers rounding.  Zero rows (a huge gamma) stay zero in ``v``.
    """
    v = np.ones(K.shape[0])
    for _ in range(20):
        v = K @ v
        v /= max(v.max(), 1e-300)
    rows = v > 0
    return max(1.01 * float(np.max((K @ v)[rows] / v[rows], initial=0.0)), 1e-12)


class SVR(BaseRegressor):
    """Epsilon-insensitive support vector regression with an RBF kernel.

    Parameters
    ----------
    C:
        Regularisation strength (box constraint on the dual variables).
    epsilon:
        Width of the insensitive tube.
    gamma:
        Kernel coefficient; ``"scale"`` uses ``1 / (n_features * X.var())``.
    max_iter, tol:
        Iteration budget of the dual solver, and its convergence tolerance
        on the largest change of a dual variable.
    """

    def __init__(
        self,
        C: float = 1.0,
        epsilon: float = 0.1,
        gamma="scale",
        max_iter: int = 500,
        tol: float = 1e-5,
    ):
        self.C = C
        self.epsilon = epsilon
        self.gamma = gamma
        self.max_iter = max_iter
        self.tol = tol

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            # A spread whose inverse overflows counts as none.
            spread = X.shape[1] * float(X.var())
            return 1.0 / spread if spread > 1.0 / np.finfo(np.float64).max else 1.0
        if self.gamma == "auto":
            return 1.0 / X.shape[1]
        value = float(self.gamma)
        if not 0.0 < value < np.inf:  # NaN fails too
            raise ValueError("gamma must be positive and finite")
        return value

    def fit(self, X, y) -> "SVR":
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        X, y = check_X_y(X, y)
        gamma = self._resolve_gamma(X)
        K = _kernel_matrix(X, X, gamma)

        # Dual variables: beta_i = alpha_i - alpha_i^* in [-C, C].
        # Minimise  0.5 beta^T K beta - beta^T y + epsilon * ||beta||_1
        # subject to the box constraint (the equality constraint is absorbed
        # by fitting an explicit intercept afterwards).  Each step is a
        # gradient step from the extrapolated point z, then the prox:
        # soft-threshold for the L1 term, then clip to the box.
        step = 1.0 / _lipschitz_bound(K)
        threshold = step * self.epsilon
        beta = z = np.zeros(X.shape[0])
        momentum = 1.0
        for _ in range(self.max_iter):
            previous, beta = beta, z + step * (y - K @ z)
            beta = np.sign(beta) * np.maximum(np.abs(beta) - threshold, 0.0)
            beta = np.clip(beta, -self.C, self.C)
            change = beta - previous
            if np.max(np.abs(change)) < self.tol:
                break
            if (z - beta) @ change > 0:  # the momentum points uphill: restart
                momentum, z = 1.0, beta
            else:
                following = (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum)) / 2.0
                z = beta + ((momentum - 1.0) / following) * change
                momentum = following

        self.dual_coef_ = beta
        self.X_train_ = X
        self._gamma_ = gamma
        self.support_ = np.flatnonzero(np.abs(beta) > 1e-10)
        # Intercept: median residual over the training set (robust choice).
        self.intercept_ = float(np.median(y - K @ beta))
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
        K = _kernel_matrix(X, self.X_train_, self._gamma_)
        return K @ self.dual_coef_ + self.intercept_
