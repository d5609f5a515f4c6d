"""Linear regression family: ordinary least squares, Ridge and ElasticNet.

These are the "linear models" group of the paper's Table II.  ElasticNet is
fitted by cyclic coordinate descent with soft-thresholding, the standard
algorithm used by scikit-learn and glmnet, in its Gram (covariance) form.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseRegressor, check_X, check_X_y

__all__ = ["LinearRegression", "Ridge", "ElasticNet"]

#: Singular values of the centred design below this are treated as zero,
#: however large the others are: a direction that thin holds nothing a
#: float64 fit can use, and dividing by it overflows (one subnormal feature
#: value among zeros fitted a coefficient of 1.8e308 and NaN predictions).
_SINGULAR_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))


class LinearRegression(BaseRegressor):
    """Ordinary least-squares linear regression.

    Parameters
    ----------
    fit_intercept:
        Whether to fit an intercept term.  When ``False`` the data is assumed
        to be centred already.
    """

    def __init__(self, fit_intercept: bool = True):
        self.fit_intercept = fit_intercept

    def fit(self, X, y) -> "LinearRegression":
        X, y = check_X_y(X, y)
        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = float(y.mean())
            Xc = X - x_mean
            yc = y - y_mean
        else:
            x_mean = np.zeros(X.shape[1])
            y_mean = 0.0
            Xc, yc = X, y
        coef, _, _, singular = np.linalg.lstsq(Xc, yc, rcond=None)
        # lstsq's own cut-off is relative to the largest singular value; a
        # value that passed it but lies below the absolute floor goes too.
        relative_cut = np.finfo(np.float64).eps * max(Xc.shape) * singular[0]
        if np.any((singular > relative_cut) & (singular < _SINGULAR_FLOOR)):
            if singular[0] < _SINGULAR_FLOOR:
                coef = np.zeros(Xc.shape[1])
            else:
                coef = np.linalg.lstsq(Xc, yc, rcond=_SINGULAR_FLOOR / singular[0])[0]
        self.coef_ = coef
        self.intercept_ = y_mean - float(x_mean @ coef)
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("coef_")
        X = check_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features but model was fitted with "
                f"{self.n_features_in_}"
            )
        return X @ self.coef_ + self.intercept_


class Ridge(BaseRegressor):
    """L2-regularised linear regression solved in closed form.

    Parameters
    ----------
    alpha:
        Regularisation strength; must be non-negative.
    fit_intercept:
        Whether to fit an intercept (the intercept is never penalised).
    """

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True):
        self.alpha = alpha
        self.fit_intercept = fit_intercept

    def fit(self, X, y) -> "Ridge":
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        X, y = check_X_y(X, y)
        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = float(y.mean())
            Xc = X - x_mean
            yc = y - y_mean
        else:
            x_mean = np.zeros(X.shape[1])
            y_mean = 0.0
            Xc, yc = X, y
        n_features = Xc.shape[1]
        gram = Xc.T @ Xc + self.alpha * np.eye(n_features)
        self.coef_ = np.linalg.solve(gram, Xc.T @ yc)
        self.intercept_ = y_mean - float(x_mean @ self.coef_)
        self.n_features_in_ = n_features
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("coef_")
        X = check_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features but model was fitted with "
                f"{self.n_features_in_}"
            )
        return X @ self.coef_ + self.intercept_


def _soft_threshold(value: float, threshold: float) -> float:
    """Soft-thresholding operator used by coordinate descent."""
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


class ElasticNet(BaseRegressor):
    """ElasticNet regression fitted by cyclic coordinate descent.

    Minimises ``1/(2n) ||y - Xw||^2 + alpha * l1_ratio * ||w||_1
    + 0.5 * alpha * (1 - l1_ratio) * ||w||^2``.

    Parameters
    ----------
    alpha:
        Overall regularisation strength.
    l1_ratio:
        Mix between L1 (1.0 → Lasso) and L2 (0.0 → Ridge) penalties.
    max_iter:
        Maximum number of full coordinate-descent sweeps.
    tol:
        Convergence tolerance on the maximum coefficient update.
    fit_intercept:
        Whether to fit an (unpenalised) intercept.
    """

    def __init__(
        self,
        alpha: float = 1.0,
        l1_ratio: float = 0.5,
        max_iter: int = 1000,
        tol: float = 1e-6,
        fit_intercept: bool = True,
    ):
        self.alpha = alpha
        self.l1_ratio = l1_ratio
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept

    def fit(self, X, y) -> "ElasticNet":
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not 0.0 <= self.l1_ratio <= 1.0:
            raise ValueError("l1_ratio must be in [0, 1]")
        X, y = check_X_y(X, y)
        n_samples, n_features = X.shape

        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = float(y.mean())
            Xc = X - x_mean
            yc = y - y_mean
        else:
            x_mean = np.zeros(n_features)
            y_mean = 0.0
            Xc, yc = X, y

        l1_penalty = self.alpha * self.l1_ratio * n_samples
        l2_penalty = self.alpha * (1.0 - self.l1_ratio) * n_samples

        # Gram form: with G = Xc'Xc and c = Xc'(yc - Xc w) kept current, a
        # coordinate update reads c[j] and, when w[j] moves, shifts c by a
        # row of G -- O(n_features) plain-float work instead of an
        # O(n_samples) dot and axpy over the residual.
        column_norms = (Xc ** 2).sum(axis=0).tolist()
        gram = (Xc.T @ Xc).tolist()
        correlation = (Xc.T @ yc).tolist()
        coef = [0.0] * n_features
        features = range(n_features)

        n_iterations = 0
        for n_iterations in range(1, self.max_iter + 1):
            max_update = 0.0
            for j in features:
                norm = column_norms[j]
                if norm == 0.0:
                    continue
                old = coef[j]
                # Partial residual correlation excluding feature j's contribution.
                rho = correlation[j] + norm * old
                new = _soft_threshold(rho, l1_penalty) / (norm + l2_penalty)
                if new != old:
                    step = old - new
                    row = gram[j]
                    for k in features:
                        correlation[k] += row[k] * step
                    coef[j] = new
                    max_update = max(max_update, abs(new - old))
            if max_update <= self.tol:
                break

        coef = np.asarray(coef)
        self.coef_ = coef
        self.intercept_ = y_mean - float(x_mean @ coef)
        self.n_iter_ = n_iterations
        self.n_features_in_ = n_features
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("coef_")
        X = check_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features but model was fitted with "
                f"{self.n_features_in_}"
            )
        return X @ self.coef_ + self.intercept_
