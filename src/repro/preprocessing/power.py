"""Yeo-Johnson power transformation with maximum-likelihood λ estimation.

The Yeo-Johnson transform (paper Section II-C) generalises Box-Cox to
non-positive values and is fitted per feature by maximising the Gaussian
log-likelihood of the transformed values over λ.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "yeo_johnson_transform",
    "yeo_johnson_transform_matrix",
    "yeo_johnson_inverse",
    "YeoJohnsonTransformer",
]


def yeo_johnson_transform(x: np.ndarray, lmbda: float) -> np.ndarray:
    """Apply the Yeo-Johnson transform with parameter ``lmbda`` elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    positive = x >= 0

    if abs(lmbda) > 1e-12:
        out[positive] = ((x[positive] + 1.0) ** lmbda - 1.0) / lmbda
    else:
        out[positive] = np.log1p(x[positive])

    if abs(lmbda - 2.0) > 1e-12:
        out[~positive] = -(((-x[~positive] + 1.0) ** (2.0 - lmbda)) - 1.0) / (2.0 - lmbda)
    else:
        out[~positive] = -np.log1p(-x[~positive])
    return out


def yeo_johnson_transform_matrix(X: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Apply per-column Yeo-Johnson transforms to a whole matrix at once.

    Vectorised equivalent of calling :func:`yeo_johnson_transform` column by
    column with ``lambdas[j]``: every element goes through the exact same
    scalar operations, so the result is bit-identical to the column loop.
    This is the transform used by the compiled prediction hot path
    (:mod:`repro.core.compiled`), where the per-column Python loop would
    dominate the µs-scale latency budget.
    """
    X = np.asarray(X, dtype=np.float64)
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != lambdas.shape[0]:
        raise ValueError(
            f"X must have shape (n, {lambdas.shape[0]}), got {X.shape}"
        )
    lam_row = lambdas[None, :]
    nonzero = np.abs(lambdas) > 1e-12
    not_two = np.abs(lambdas - 2.0) > 1e-12
    positive = X >= 0

    # Positive branch, evaluated on inputs clipped to the branch's domain so
    # the unused lane never produces invalid intermediates.
    Xp = np.where(positive, X, 0.0)
    lam_safe = np.where(nonzero, lam_row, 1.0)
    pos_out = np.where(
        nonzero[None, :],
        ((Xp + 1.0) ** lam_safe - 1.0) / lam_safe,
        np.log1p(Xp),
    )
    if bool(positive.all()):
        out = pos_out
    else:
        Xn = np.where(positive, 0.0, X)
        two_safe = np.where(not_two, 2.0 - lam_row, 1.0)
        neg_out = np.where(
            not_two[None, :],
            -(((-Xn + 1.0) ** two_safe) - 1.0) / two_safe,
            -np.log1p(-Xn),
        )
        out = np.where(positive, pos_out, neg_out)

    # NumPy's ``**`` takes exact fast paths for *scalar* exponents in
    # {-1, 0.5, 1, 2} (reciprocal/sqrt/copy/square) that the array-exponent
    # ufunc above does not, so those columns — λ itself, or 2-λ on the
    # negative branch — could drift by one ULP from the scalar column loop.
    # They are rare (MLE lambdas are continuous; constant columns pin λ=1),
    # so recompute just those columns through the scalar reference.
    special = (
        (lambdas == -1.0)
        | (lambdas == 0.5)
        | (lambdas == 1.0)
        | (lambdas == 2.0)
        | (lambdas == 0.0)
        | (lambdas == 1.5)
        | (lambdas == 3.0)
    )
    if special.any():
        for j in np.flatnonzero(special):
            out[:, j] = yeo_johnson_transform(X[:, j], lambdas[j])
    return out


def yeo_johnson_inverse(y: np.ndarray, lmbda: float) -> np.ndarray:
    """Inverse of :func:`yeo_johnson_transform`."""
    y = np.asarray(y, dtype=np.float64)
    out = np.empty_like(y)
    positive = y >= 0

    if abs(lmbda) > 1e-12:
        out[positive] = (y[positive] * lmbda + 1.0) ** (1.0 / lmbda) - 1.0
    else:
        out[positive] = np.expm1(y[positive])

    if abs(lmbda - 2.0) > 1e-12:
        out[~positive] = 1.0 - (1.0 - (2.0 - lmbda) * y[~positive]) ** (1.0 / (2.0 - lmbda))
    else:
        out[~positive] = -np.expm1(-y[~positive])
    return out


def _negative_log_likelihood(lmbda: float, x: np.ndarray) -> float:
    """Negative Gaussian log-likelihood of the transformed data."""
    transformed = yeo_johnson_transform(x, lmbda)
    n = x.shape[0]
    variance = transformed.var()
    if variance <= 0:
        return np.inf
    loglike = -0.5 * n * np.log(variance)
    # Jacobian term of the transform.
    loglike += (lmbda - 1.0) * np.sum(np.sign(x) * np.log1p(np.abs(x)))
    return -loglike


def estimate_lambda(x: np.ndarray, bracket: tuple[float, float] = (-3.0, 5.0)) -> float:
    """MLE estimate of λ for one feature (bounded scalar minimisation).

    ``scipy.optimize`` is imported here, not at module level: only a fit
    needs it, and loading it costs a fresh process about half a second
    that planning and serving never use.
    """
    from scipy import optimize

    x = np.asarray(x, dtype=np.float64)
    if np.allclose(x, x[0]):
        return 1.0
    result = optimize.minimize_scalar(
        _negative_log_likelihood,
        bounds=bracket,
        args=(x,),
        method="bounded",
        options={"xatol": 1e-5},
    )
    return float(result.x)


class YeoJohnsonTransformer:
    """Per-feature Yeo-Johnson transform fitted by maximum likelihood.

    Parameters
    ----------
    standardize:
        When true (default, as in the paper), the transformed features are
        additionally centred and scaled to unit variance.
    """

    def __init__(self, standardize: bool = True):
        self.standardize = standardize

    def fit(self, X: np.ndarray) -> "YeoJohnsonTransformer":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if X.shape[0] < 2:
            raise ValueError("Need at least two samples to fit the transformer")
        self.lambdas_ = np.array(
            [estimate_lambda(X[:, j]) for j in range(X.shape[1])]
        )
        transformed = self._apply(X)
        if self.standardize:
            self.mean_ = transformed.mean(axis=0)
            self.scale_ = transformed.std(axis=0)
            self.scale_[self.scale_ == 0] = 1.0
        else:
            self.mean_ = np.zeros(X.shape[1])
            self.scale_ = np.ones(X.shape[1])
        self.n_features_in_ = X.shape[1]
        return self

    def _apply(self, X: np.ndarray) -> np.ndarray:
        transformed = np.empty_like(X, dtype=np.float64)
        for j, lmbda in enumerate(self.lambdas_):
            transformed[:, j] = yeo_johnson_transform(X[:, j], lmbda)
        return transformed

    def transform(self, X: np.ndarray) -> np.ndarray:
        if not hasattr(self, "lambdas_"):
            raise RuntimeError("YeoJohnsonTransformer is not fitted yet")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X must have shape (n, {self.n_features_in_}), got {X.shape}"
            )
        return (self._apply(X) - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        """Invert standardisation and the power transform."""
        if not hasattr(self, "lambdas_"):
            raise RuntimeError("YeoJohnsonTransformer is not fitted yet")
        X = np.asarray(X, dtype=np.float64) * self.scale_ + self.mean_
        out = np.empty_like(X)
        for j, lmbda in enumerate(self.lambdas_):
            out[:, j] = yeo_johnson_inverse(X[:, j], lmbda)
        return out

    def flat_state(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fitted state as flat arrays ``(lambdas, shift, scale)``.

        The transform is then the two vectorised expressions
        ``(yeo_johnson_transform_matrix(X, lambdas) - shift) / scale`` —
        no per-column Python loop.  Used by the compiled prediction path.
        """
        if not hasattr(self, "lambdas_"):
            raise RuntimeError("YeoJohnsonTransformer is not fitted yet")
        return self.lambdas_, self.mean_, self.scale_

    # -- serialisation -------------------------------------------------------
    def to_config(self) -> dict:
        """Serialisable fitted state (used by the runtime config file)."""
        return {
            "standardize": self.standardize,
            "lambdas": self.lambdas_.tolist(),
            "mean": self.mean_.tolist(),
            "scale": self.scale_.tolist(),
        }

    @classmethod
    def from_config(cls, config: dict) -> "YeoJohnsonTransformer":
        transformer = cls(standardize=config["standardize"])
        transformer.lambdas_ = np.asarray(config["lambdas"], dtype=float)
        transformer.mean_ = np.asarray(config["mean"], dtype=float)
        transformer.scale_ = np.asarray(config["scale"], dtype=float)
        transformer.n_features_in_ = transformer.lambdas_.shape[0]
        return transformer
