"""Cross-validation, data splitting and grid search.

The ADSALA installation workflow (paper Section IV) performs stratified
train/test splitting (15 % test), K-fold hyper-parameter tuning and a grid
search per candidate model; this module provides those pieces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Sequence

import numpy as np

from repro.ml.base import BaseRegressor, check_X_y, clone
from repro.ml.metrics import root_mean_squared_error

__all__ = [
    "KFold",
    "train_test_split",
    "stratified_train_test_split",
    "ParameterGrid",
    "GridSearchCV",
    "cross_val_score",
]


class KFold:
    """K-fold cross-validation splitter.

    Parameters
    ----------
    n_splits:
        Number of folds (at least 2).
    shuffle:
        Whether to shuffle indices before splitting.
    random_state:
        Seed used when ``shuffle`` is true.
    """

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state: int | None = None):
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n_samples = np.asarray(X).shape[0]
        if n_samples < self.n_splits:
            raise ValueError(
                f"Cannot split {n_samples} samples into {self.n_splits} folds"
            )
        indices = np.arange(n_samples)
        if self.shuffle:
            rng = np.random.default_rng(self.random_state)
            rng.shuffle(indices)
        fold_sizes = np.full(self.n_splits, n_samples // self.n_splits)
        fold_sizes[: n_samples % self.n_splits] += 1
        start = 0
        for size in fold_sizes:
            test_idx = indices[start : start + size]
            train_idx = np.concatenate([indices[:start], indices[start + size :]])
            yield train_idx, test_idx
            start += size


def train_test_split(
    X, y, test_size: float = 0.15, random_state: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Random train/test split of a feature matrix and target vector."""
    X, y = check_X_y(X, y)
    if not 0.0 < test_size < 1.0:
        raise ValueError("test_size must be in (0, 1)")
    n_samples = X.shape[0]
    n_test = max(1, int(round(test_size * n_samples)))
    if n_test >= n_samples:
        raise ValueError("test_size leaves no training samples")
    rng = np.random.default_rng(random_state)
    permutation = rng.permutation(n_samples)
    test_idx = permutation[:n_test]
    train_idx = permutation[n_test:]
    return X[train_idx], X[test_idx], y[train_idx], y[test_idx]


def stratified_train_test_split(
    X,
    y,
    test_size: float = 0.15,
    n_bins: int = 10,
    random_state: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Train/test split stratified over quantile bins of a continuous target.

    The paper stratifies its 15 % test split so that the (heavily skewed)
    runtime distribution is represented in both partitions.  Continuous
    targets are stratified by binning into ``n_bins`` quantile buckets and
    sampling ``test_size`` of every bucket.
    """
    X, y = check_X_y(X, y)
    if not 0.0 < test_size < 1.0:
        raise ValueError("test_size must be in (0, 1)")
    n_samples = X.shape[0]
    n_bins = max(1, min(n_bins, n_samples // 2))
    quantiles = np.quantile(y, np.linspace(0, 1, n_bins + 1)[1:-1])
    bins = np.searchsorted(quantiles, y, side="left")

    rng = np.random.default_rng(random_state)
    test_indices: List[int] = []
    for bin_id in np.unique(bins):
        members = np.flatnonzero(bins == bin_id)
        rng.shuffle(members)
        n_test = int(round(test_size * members.size))
        test_indices.extend(members[:n_test].tolist())

    # Guarantee at least one test sample overall.
    if not test_indices:
        test_indices = [int(rng.integers(0, n_samples))]
    test_mask = np.zeros(n_samples, dtype=bool)
    test_mask[np.asarray(test_indices)] = True
    if test_mask.all():
        test_mask[int(rng.integers(0, n_samples))] = False
    return X[~test_mask], X[test_mask], y[~test_mask], y[test_mask]


class ParameterGrid:
    """Iterate over the cartesian product of a hyper-parameter grid."""

    def __init__(self, grid: Dict[str, Sequence[Any]]):
        if not isinstance(grid, dict):
            raise TypeError("grid must be a dict of parameter lists")
        self.grid = {k: list(v) for k, v in grid.items()}
        for name, values in self.grid.items():
            if len(values) == 0:
                raise ValueError(f"Parameter {name!r} has an empty value list")

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        if not self.grid:
            yield {}
            return
        keys = sorted(self.grid)
        for combination in itertools.product(*(self.grid[k] for k in keys)):
            yield dict(zip(keys, combination))

    def __len__(self) -> int:
        length = 1
        for values in self.grid.values():
            length *= len(values)
        return length


def _fit_and_score_fold(estimator, X, y, train_idx, test_idx, scoring: str) -> float:
    """Fit a clone on one fold and score it."""
    model = clone(estimator)
    model.fit(X[train_idx], y[train_idx])
    prediction = model.predict(X[test_idx])
    if scoring == "neg_rmse":
        return -root_mean_squared_error(y[test_idx], prediction)
    if scoring == "r2":
        from repro.ml.metrics import r2_score

        return r2_score(y[test_idx], prediction)
    raise ValueError(f"Unknown scoring {scoring!r}")


def cross_val_score(
    estimator: BaseRegressor,
    X,
    y,
    cv: KFold | int = 5,
    scoring: str = "neg_rmse",
) -> np.ndarray:
    """Cross-validated scores (higher is better)."""
    X, y = check_X_y(X, y)
    if isinstance(cv, int):
        cv = KFold(n_splits=cv, shuffle=True, random_state=0)
    return np.asarray(
        [
            _fit_and_score_fold(estimator, X, y, train_idx, test_idx, scoring)
            for train_idx, test_idx in cv.split(X)
        ]
    )


@dataclass
class GridSearchCV:
    """Exhaustive hyper-parameter search with K-fold cross-validation.

    The fold splits are materialised once and shared by every parameter
    combination.

    Attributes populated by :meth:`fit`:

    * ``best_params_`` — the winning hyper-parameter combination,
    * ``best_score_`` — its mean CV score (higher is better),
    * ``best_estimator_`` — a fresh estimator refitted on all data,
    * ``results_`` — list of ``(params, mean_score)`` pairs.
    """

    estimator: BaseRegressor
    param_grid: Dict[str, Sequence[Any]]
    cv: int = 3
    scoring: str = "neg_rmse"
    results_: List[tuple[Dict[str, Any], float]] = field(default_factory=list, init=False)

    def fit(self, X, y) -> "GridSearchCV":
        X, y = check_X_y(X, y)
        splitter = KFold(n_splits=self.cv, shuffle=True, random_state=0)
        splits = list(splitter.split(X))
        combos = list(ParameterGrid(self.param_grid))
        mean_scores = [self._mean_score(params, X, y, splits) for params in combos]
        best_score = -np.inf
        best_params: Dict[str, Any] = {}
        self.results_ = []
        for params, mean_score in zip(combos, mean_scores):
            self.results_.append((params, mean_score))
            if mean_score > best_score:
                best_score = mean_score
                best_params = params
        self.best_score_ = best_score
        self.best_params_ = best_params
        self.best_estimator_ = clone(self.estimator).set_params(**best_params)
        self.best_estimator_.fit(X, y)
        return self

    def _mean_score(self, params: Dict[str, Any], X, y, splits) -> float:
        """Mean CV score of one parameter combination."""
        candidate = clone(self.estimator).set_params(**params)
        scores = [
            _fit_and_score_fold(candidate, X, y, train_idx, test_idx, self.scoring)
            for train_idx, test_idx in splits
        ]
        return float(np.mean(scores))

    def predict(self, X) -> np.ndarray:
        if not hasattr(self, "best_estimator_"):
            raise RuntimeError("GridSearchCV is not fitted yet")
        return self.best_estimator_.predict(X)
