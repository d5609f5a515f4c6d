"""Random-forest regressor built on :class:`repro.ml.tree.DecisionTreeRegressor`."""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseRegressor, check_X, check_X_y
from repro.ml.tree import DecisionTreeRegressor, StackedTrees, active_impl

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor(BaseRegressor):
    """Bagged ensemble of CART regression trees.

    ``fit`` draws every tree's seed and bootstrap set, then grows the trees
    through one grower bound to ``X`` (see
    :meth:`repro.ml.tree.DecisionTreeRegressor._grower`): one C call per
    tree, over columns sorted once per bootstrap set.  The trees share ``X``
    and ``y``; a bootstrap set is a row-index multiset, not a copy.
    Per-split feature subsets come from each tree's own generator,
    one ``random((open_nodes, n_features))`` block per level (see
    :func:`repro.ml.tree._draw_feature_subsets`), so forests fitted before
    that definition differ from today's for the same ``random_state`` — an
    equally valid stream, not a different model family.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf:
        Passed through to each tree.
    max_features:
        Feature subsampling per split; defaults to one third of the features,
        the usual choice for regression forests.
    bootstrap:
        Whether to draw bootstrap samples for each tree.
    random_state:
        Seed controlling bootstrap draws and per-tree feature subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="onethird",
        bootstrap: bool = True,
        random_state: int | None = None,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestRegressor":
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        X, y = check_X_y(X, y)
        n_samples, n_features = X.shape
        rng = np.random.default_rng(self.random_state)

        if self.max_features == "onethird":
            tree_max_features = max(1, n_features // 3)
        else:
            tree_max_features = self.max_features

        # Same draw order as a per-tree loop: tree seed, then bootstrap set.
        trees, roots, rngs = [], [], []
        for _ in range(self.n_estimators):
            trees.append(
                DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_split=self.min_samples_split,
                    min_samples_leaf=self.min_samples_leaf,
                    max_features=tree_max_features,
                    random_state=int(rng.integers(0, 2 ** 31 - 1)),
                )
            )
            rngs.append(np.random.default_rng(trees[-1].random_state))
            if self.bootstrap:
                roots.append(rng.integers(0, n_samples, size=n_samples))
            else:
                roots.append(np.arange(n_samples))
        grown = trees[0]._grower(X)(y, np.ones(n_samples), roots, rngs)
        self.estimators_ = [
            tree._adopt(result, n_features) for tree, result in zip(trees, grown)
        ]
        self.n_features_in_ = n_features
        self._stacked_cache = None

        self.oob_score_ = None
        if self.bootstrap:
            # Out-of-bag predictions from one stacked descent of all rows.
            out_of_bag = np.ones((self.n_estimators, n_samples), dtype=bool)
            out_of_bag[np.arange(self.n_estimators)[:, None], np.stack(roots)] = False
            covered = out_of_bag.any(axis=0)
            if covered.any():
                per_tree = self.stacked()._descend(X)
                oob_pred = (
                    np.where(out_of_bag, per_tree, 0.0).sum(axis=0)[covered]
                    / out_of_bag.sum(axis=0)[covered]
                )
                residual = y[covered] - oob_pred
                self.oob_score_ = 1.0 - float(
                    np.sum(residual ** 2)
                    / max(np.sum((y[covered] - y[covered].mean()) ** 2), 1e-300)
                )
        return self

    def stacked(self) -> StackedTrees:
        """All fitted trees concatenated into one :class:`StackedTrees`.

        Built lazily on first use and cached (the cache is dropped from
        pickles); row ``t`` of its ``predict_per_tree`` equals
        ``estimators_[t].flat_tree_.predict``.
        """
        self._check_fitted("estimators_")
        stacked = getattr(self, "_stacked_cache", None)
        if stacked is None:
            stacked = StackedTrees(tree.flat_tree_ for tree in self.estimators_)
            self._stacked_cache = stacked
        return stacked

    def _predict_stacked(self, X: np.ndarray) -> np.ndarray:
        """Ensemble mean over one whole-forest stacked descent (no checks)."""
        return self.stacked()._descend(X).mean(axis=0)

    def predict(self, X) -> np.ndarray:
        self._check_fitted("estimators_")
        X = check_X(X)
        if active_impl() == "reference":
            return np.stack(
                [tree.predict(X) for tree in self.estimators_]
            ).mean(axis=0)
        # The whole forest descends as one struct-of-arrays: a single
        # iterative pass moves an (n_trees, n_samples) frontier level by
        # level, and the ensemble mean is one reduction over that block.
        return self._predict_stacked(X)

    def feature_importances(self) -> np.ndarray:
        """Mean impurity-decrease importance across trees."""
        self._check_fitted("estimators_")
        importances = np.zeros(self.n_features_in_)
        for tree in self.estimators_:
            importances += tree.feature_importances()
        return importances / len(self.estimators_)
