"""Boosted tree ensembles: AdaBoost.R2, XGBoost-style and LightGBM-style.

The paper's candidate pool includes AdaBoost, XGBoost and LightGBM.  The two
gradient-boosting variants are reproduced here with their defining
algorithmic features:

* :class:`GradientBoostingRegressor` — second-order (Newton) boosting on the
  squared loss with L1/L2 leaf regularisation and shrinkage, i.e. the core of
  XGBoost with exact greedy splits.
* :class:`HistGradientBoostingRegressor` — histogram-binned split finding
  (LightGBM's key trick), which bins each feature into at most
  ``max_bins`` quantile buckets before growing depth-limited trees.

**Growing.**  The histogram trees grow level-wise
(:meth:`_HistTree._grow_levels`): a histogram is additive over rows, so all
nodes of a level share one weighted ``bincount`` (and one unweighted one),
and the gain, leaf-minimum mask and first-max ``argmax`` run once over a
``(nodes, features, bins)`` block.  The per-node recursive
:meth:`_HistTree._build` is its oracle under
:func:`~repro.ml.tree.reference_mode`; the two agree bit for bit on every
node array (``tests/ml/test_property_grower.py``), and nothing but that
context chooses between them.

The exact-split :class:`_NewtonTree` grows in C, one whole tree per call
of the ``grow_newton`` kernel of :mod:`repro.ml._native`: a booster binds
its ``X`` once (columns and dense value ranks), and each round passes its
gradient and its rows — all of them, or the round's subsample.  The kernel
sorts each column once per tree and partitions the sorted lists stably at
every split, takes node totals as NumPy's pairwise ``sum`` and
``grad_total ** 2`` as Python's libm ``pow``, and numbers nodes in
pre-order, so it reproduces the recursive oracle :meth:`_NewtonTree._build`
bit for bit; that oracle grows under ``reference_mode`` and wherever the
kernel is missing.  AdaBoost's rounds are
:class:`~repro.ml.tree.DecisionTreeRegressor` fits, which grow through the
C CART grower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.ml.base import BaseRegressor, check_X, check_X_y
from repro.ml.tree import (
    DecisionTreeRegressor,
    FlatTree,
    StackedTrees,
    active_impl,
    native_grower,
)

__all__ = [
    "AdaBoostRegressor",
    "GradientBoostingRegressor",
    "HistGradientBoostingRegressor",
    "weighted_median",
]


def weighted_median(all_predictions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """AdaBoost.R2 weighted median over an ``(n_samples, n_trees)`` block.

    Module-level so the compiled predictor's model kernel can aggregate a
    stacked descent with the exact arithmetic of the fitted model (see
    :meth:`AdaBoostRegressor._weighted_median`).
    """
    order = np.argsort(all_predictions, axis=1)
    sorted_weights = weights[order]
    cumulative = np.cumsum(sorted_weights, axis=1)
    threshold = 0.5 * cumulative[:, -1][:, None]
    median_idx = np.argmax(cumulative >= threshold, axis=1)
    # One element per row: the median's tree, not the whole sorted matrix.
    rows = np.arange(all_predictions.shape[0])
    return all_predictions[rows, order[rows, median_idx]]


def _check_n_features(model, X: np.ndarray) -> None:
    """A stacked descent indexes columns unchecked: reject a wrong width."""
    if X.shape[1] != model.n_features_in_:
        raise ValueError(
            f"X has {X.shape[1]} features but model was fitted with "
            f"{model.n_features_in_}"
        )


# ---------------------------------------------------------------------------
# AdaBoost.R2 (Drucker, 1997)
# ---------------------------------------------------------------------------
class AdaBoostRegressor(BaseRegressor):
    """AdaBoost.R2 with decision-tree base learners.

    Parameters
    ----------
    n_estimators:
        Maximum number of boosting rounds (may stop earlier if a learner
        achieves zero loss or worse-than-random loss).
    learning_rate:
        Shrinks the contribution of each regressor via the beta exponent.
    max_depth:
        Depth of each base tree (AdaBoost traditionally uses shallow trees).
    loss:
        "linear", "square" or "exponential" loss for the per-sample error.
    random_state:
        Seed for weighted bootstrap resampling.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 1.0,
        max_depth: int = 3,
        loss: str = "linear",
        random_state: int | None = None,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.loss = loss
        self.random_state = random_state

    def fit(self, X, y) -> "AdaBoostRegressor":
        if self.loss not in ("linear", "square", "exponential"):
            raise ValueError(f"Unknown loss {self.loss!r}")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        X, y = check_X_y(X, y)
        n_samples = X.shape[0]
        rng = np.random.default_rng(self.random_state)

        sample_weight = np.full(n_samples, 1.0 / n_samples)
        self.estimators_: List[DecisionTreeRegressor] = []
        self.estimator_weights_: List[float] = []
        # Every round's tree grows over X through one binding; a round's
        # resample is its root, the tree fit(X[indices], y[indices]) grows.
        grow = DecisionTreeRegressor(max_depth=self.max_depth)._grower(X)
        unit_weight = np.ones(n_samples)

        for _ in range(self.n_estimators):
            # Weighted bootstrap: resample the training set according to the
            # current weights, as in the original AdaBoost.R2 formulation.
            indices = rng.choice(n_samples, size=n_samples, p=sample_weight)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                random_state=int(rng.integers(0, 2 ** 31 - 1)),
            )
            grown = grow(y, unit_weight, [indices], [np.random.default_rng(tree.random_state)])
            tree._adopt(grown[0], X.shape[1])
            predictions = tree.predict(X)

            abs_error = np.abs(predictions - y)
            max_error = abs_error.max()
            if max_error <= 1e-300:
                # Perfect learner — give it full confidence and stop.
                self.estimators_.append(tree)
                self.estimator_weights_.append(1.0)
                break
            normalised = abs_error / max_error
            if self.loss == "square":
                normalised = normalised ** 2
            elif self.loss == "exponential":
                normalised = 1.0 - np.exp(-normalised)

            average_loss = float(np.dot(sample_weight, normalised))
            if average_loss >= 0.5:
                # Worse than random: discard and stop unless it is the first.
                if not self.estimators_:
                    self.estimators_.append(tree)
                    self.estimator_weights_.append(1.0)
                break

            beta = average_loss / (1.0 - average_loss)
            self.estimators_.append(tree)
            self.estimator_weights_.append(
                self.learning_rate * float(np.log(1.0 / max(beta, 1e-300)))
            )
            sample_weight *= beta ** (self.learning_rate * (1.0 - normalised))
            total = sample_weight.sum()
            if total <= 0:
                break
            sample_weight /= total

        if not self.estimators_:
            raise RuntimeError("AdaBoost failed to fit any estimator")
        self.n_features_in_ = X.shape[1]
        self._stacked_cache = None
        return self

    def stacked(self) -> StackedTrees:
        """All base trees concatenated into one :class:`StackedTrees` (cached)."""
        self._check_fitted("estimators_")
        stacked = getattr(self, "_stacked_cache", None)
        if stacked is None:
            stacked = StackedTrees(tree.flat_tree_ for tree in self.estimators_)
            self._stacked_cache = stacked
        return stacked

    def _predict_stacked(self, X: np.ndarray) -> np.ndarray:
        """Weighted-median aggregation over one stacked descent (no checks)."""
        return self._weighted_median(self.stacked()._descend(X).T)

    def _weighted_median(self, all_predictions: np.ndarray) -> np.ndarray:
        """AdaBoost.R2 weighted median over an ``(n_samples, n_trees)`` block."""
        return weighted_median(
            all_predictions, np.asarray(self.estimator_weights_)
        )

    def predict(self, X) -> np.ndarray:
        """Weighted-median prediction over the boosted ensemble."""
        self._check_fitted("estimators_")
        X = check_X(X)
        _check_n_features(self, X)
        if active_impl() == "reference":
            per_tree = [tree.predict(X) for tree in self.estimators_]
            return self._weighted_median(np.column_stack(per_tree))
        return self._predict_stacked(X)


# ---------------------------------------------------------------------------
# XGBoost-style exact gradient boosting
# ---------------------------------------------------------------------------
@dataclass
class _BoostNode:
    value: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_BoostNode"] = None
    right: Optional["_BoostNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class _NewtonTree:
    """Regression tree on (gradient, hessian) statistics with XGBoost gains.

    Grown in one call of the C ``grow_newton`` kernel when it loaded
    (:meth:`bind` + :meth:`grow`); otherwise, and under
    :func:`~repro.ml.tree.reference_mode`, by the recursive oracle
    :meth:`_build` (:meth:`fit_reference`).  Both number the nodes in
    pre-order, as :meth:`FlatTree.from_node` does, and agree bit for bit.
    """

    def __init__(
        self,
        max_depth: int,
        min_child_weight: float,
        reg_lambda: float,
        gamma: float,
        min_samples_leaf: int,
    ):
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_samples_leaf = min_samples_leaf

    def bind(self, grower, X):
        """``grower`` (``load_kernels().grow_newton``) bound to ``X`` under
        these hyper-parameters; a booster binds once for all its rounds."""
        return grower.bind(
            X,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
        )

    def grow(self, bound, rows, grad, hess) -> "_NewtonTree":
        """Grow natively on the rows ``rows`` lists of the bound ``X``
        (``grad`` and ``hess`` hold a value per row of ``X``) — the tree
        :meth:`fit_reference` grows on ``X[rows]``."""
        feature, threshold, left, right, value, _, _, depth = bound.grow(rows, grad, hess)
        self.flat_ = FlatTree(feature, threshold, left, right, value, depth)
        return self

    def fit_reference(self, X, grad, hess) -> "_NewtonTree":
        """Grow through the node-at-a-time oracle."""
        self.flat_ = FlatTree.from_node(
            self._build(X, grad, hess, np.arange(X.shape[0]), depth=0)
        )
        return self

    def _leaf_value(self, grad_sum: float, hess_sum: float) -> float:
        return -grad_sum / (hess_sum + self.reg_lambda)

    def _score(self, grad_sum: float, hess_sum: float) -> float:
        return grad_sum ** 2 / (hess_sum + self.reg_lambda)

    def _best_split_reference(self, X, grad, hess, grad_total, hess_total, parent_score):
        """Per-feature-loop split search on the node's row subset (reference)."""
        n_samples = X.shape[0]
        best_gain = 0.0
        best = None
        for feature in range(X.shape[1]):
            order = np.argsort(X[:, feature], kind="mergesort")
            col = X[order, feature]
            g = grad[order]
            h = hess[order]
            g_cum = np.cumsum(g)[:-1]
            h_cum = np.cumsum(h)[:-1]
            g_right = grad_total - g_cum
            h_right = hess_total - h_cum

            idx = np.arange(n_samples - 1)
            valid = col[:-1] < col[1:]
            valid &= idx + 1 >= self.min_samples_leaf
            valid &= n_samples - (idx + 1) >= self.min_samples_leaf
            valid &= h_cum >= self.min_child_weight
            valid &= h_right >= self.min_child_weight
            if not np.any(valid):
                continue

            gain = (
                0.5
                * (
                    g_cum ** 2 / (h_cum + self.reg_lambda)
                    + g_right ** 2 / (h_right + self.reg_lambda)
                    - parent_score
                )
                - self.gamma
            )
            gain[~valid] = -np.inf
            best_idx = int(np.argmax(gain))
            if gain[best_idx] > best_gain + 1e-12:
                best_gain = float(gain[best_idx])
                best = (feature, 0.5 * (col[best_idx] + col[best_idx + 1]))
        return best

    def _build(self, X, grad, hess, indices, depth: int) -> _BoostNode:
        g_node = grad[indices]
        h_node = hess[indices]
        grad_total = float(g_node.sum())
        hess_total = float(h_node.sum())
        node = _BoostNode(value=self._leaf_value(grad_total, hess_total))
        n_samples = indices.size
        if depth >= self.max_depth or n_samples < 2 * self.min_samples_leaf:
            return node

        parent_score = self._score(grad_total, hess_total)
        best = self._best_split_reference(
            X[indices], g_node, h_node, grad_total, hess_total, parent_score
        )

        if best is None:
            return node

        feature, threshold = best
        mask = X[indices, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X, grad, hess, indices[mask], depth + 1)
        node.right = self._build(X, grad, hess, indices[~mask], depth + 1)
        return node

    def predict(self, X) -> np.ndarray:
        if active_impl() == "reference":
            return self.predict_reference(X)
        return self.flat_.predict(X)

    def predict_reference(self, X) -> np.ndarray:
        """Recursive node-walk prediction (the oracle for the flat descent)."""
        return self.flat_.predict_reference(X)


class GradientBoostingRegressor(BaseRegressor):
    """XGBoost-style second-order gradient boosting on squared loss.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth:
        Depth of the individual Newton trees.
    min_child_weight:
        Minimum hessian sum per leaf (with squared loss this equals the
        minimum number of samples per leaf).
    reg_lambda:
        L2 regularisation on leaf values.
    gamma:
        Minimum loss reduction required for a split.
    subsample:
        Row subsampling fraction per round (stochastic gradient boosting).
    random_state:
        Seed for row subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_child_weight: float = 1.0,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        subsample: float = 1.0,
        min_samples_leaf: int = 1,
        random_state: int | None = None,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.random_state = random_state

    def fit(self, X, y) -> "GradientBoostingRegressor":
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        X, y = check_X_y(X, y)
        n_samples = X.shape[0]
        rng = np.random.default_rng(self.random_state)

        self.base_prediction_ = float(y.mean())
        current = np.full(n_samples, self.base_prediction_)
        self.estimators_: List[_NewtonTree] = []
        hess = np.ones(n_samples)  # second derivative of squared loss
        every_row = np.arange(n_samples)
        grower = native_grower("grow_newton")
        bound = None

        for _ in range(self.n_estimators):
            grad = current - y  # d/dF 0.5*(F-y)^2
            if self.subsample < 1.0:
                n_sub = max(2, int(round(self.subsample * n_samples)))
                subset = rng.choice(n_samples, size=n_sub, replace=False)
            else:
                subset = every_row
            tree = _NewtonTree(
                max_depth=self.max_depth,
                min_child_weight=self.min_child_weight,
                reg_lambda=self.reg_lambda,
                gamma=self.gamma,
                min_samples_leaf=self.min_samples_leaf,
            )
            if grower is None:
                tree.fit_reference(X[subset], grad[subset], hess[subset])
            else:
                if bound is None:
                    bound = tree.bind(grower, X)  # X's columns and ranks, once per fit
                tree.grow(bound, subset, grad, hess)
            update = tree.predict(X)
            current += self.learning_rate * update
            self.estimators_.append(tree)

        self.n_features_in_ = X.shape[1]
        self._stacked_cache = None
        return self

    def stacked(self) -> StackedTrees:
        """All Newton trees concatenated into one :class:`StackedTrees` (cached)."""
        self._check_fitted("estimators_")
        stacked = getattr(self, "_stacked_cache", None)
        if stacked is None:
            stacked = StackedTrees(tree.flat_ for tree in self.estimators_)
            self._stacked_cache = stacked
        return stacked

    def _predict_stacked(self, X: np.ndarray) -> np.ndarray:
        """Boosted sum over one stacked descent (no checks).

        The per-tree contributions fold in boosting order with the exact
        accumulation the sequential loop performs (see
        :meth:`~repro.ml.tree.StackedTrees.fold`), so the result stays
        bit-identical to it — a single vectorised sum would reassociate
        the floating-point adds.
        """
        return self.stacked().fold(X, self.base_prediction_, self.learning_rate)

    def predict(self, X) -> np.ndarray:
        self._check_fitted("estimators_")
        X = check_X(X)
        _check_n_features(self, X)
        if active_impl() != "reference":
            return self._predict_stacked(X)
        prediction = np.full(X.shape[0], self.base_prediction_)
        for tree in self.estimators_:
            prediction += self.learning_rate * tree.predict(X)
        return prediction


# ---------------------------------------------------------------------------
# LightGBM-style histogram gradient boosting
# ---------------------------------------------------------------------------
def _unbinned_flat_tree(flat: FlatTree, bin_edges) -> FlatTree:
    """Rewrite a histogram tree's bin-index thresholds into raw-value space.

    A histogram split "``bin <= s``" with ``bin = searchsorted(edges, x,
    side="left")`` holds exactly when ``x <= edges[s]`` (edges are strictly
    increasing, so ``#{edges < x} <= s ⟺ not edges[s] < x``).  Replacing
    each interior threshold ``s`` by ``edges[feature][s]`` therefore routes
    raw feature rows identically to the binned descent — which lets the
    stacked predictor skip the per-feature ``searchsorted`` pass entirely.
    """
    threshold = flat.threshold.copy()
    for i in np.flatnonzero(flat.feature >= 0):
        threshold[i] = bin_edges[flat.feature[i]][int(flat.threshold[i])]
    return FlatTree(
        flat.feature, threshold, flat.left, flat.right, flat.value, flat.depth
    )


class _HistTree:
    """Depth-limited tree over pre-binned features using histogram gains.

    Squared loss has unit hessians, so a node's hessian sum is its row
    count.  :meth:`fit` grows level-wise (:meth:`_grow_levels`); under
    :func:`~repro.ml.tree.reference_mode` it grows node by node
    (:meth:`_build`).  The two produce the same ``flat_`` bit for bit.
    """

    def __init__(self, max_depth, min_samples_leaf, reg_lambda, max_bins):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.max_bins = max_bins

    def fit(self, binned: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Grow on the binned training rows; returns each row's leaf value."""
        if active_impl() == "reference":
            n_rows = binned.shape[0]
            root = self._build(binned, grad, np.ones(n_rows), np.arange(n_rows), 0)
            self.flat_ = FlatTree.from_node(root)
            return self.predict_reference(binned)
        # With reg_lambda = 0 a cut off an empty side divides by zero; it is
        # masked by the leaf minimum.
        with np.errstate(divide="ignore", invalid="ignore"):
            self.flat_, leaf_values = self._grow_levels(binned, grad)
        return leaf_values

    def _leaf_value(self, g: float, h: float) -> float:
        return -g / (h + self.reg_lambda)

    def _grow_levels(self, binned, grad):
        """Level-wise grower: every node of a level shares one histogram pass.

        ``rows`` holds the level's nodes back to back, each node's rows
        ascending, so every histogram cell accumulates in the order
        :meth:`_build` adds it up; node totals are taken with
        :meth:`_build`'s own per-node ``sum`` and Python-float arithmetic.
        Rows of nodes that stay leaves drop out of ``rows``; a node too small
        to split needs no case of its own, because none of its cuts passes
        the leaf minimum.

        Returns the tree, numbered in pre-order as ``FlatTree.from_node``
        numbers the oracle's, and the leaf value of every training row.
        """
        n_features = binned.shape[1]
        cell = binned + np.arange(n_features) * self.max_bins
        binned_flat = binned.ravel()

        rows = np.arange(binned.shape[0])
        size = np.array([rows.size])
        node_of_row = np.zeros(rows.size, dtype=np.intp)
        first_id = 0
        levels = []
        while True:
            n_nodes = size.size
            may_split = len(levels) < self.max_depth
            g = grad[rows]
            grad_total = np.empty(n_nodes)
            value = np.empty(n_nodes)
            parent_score = np.zeros(n_nodes)
            start = 0
            for k, stop in enumerate(np.cumsum(size).tolist()):
                total = float(g[start:stop].sum())
                hess_total = float(stop - start)
                grad_total[k] = total
                value[k] = self._leaf_value(total, hess_total)
                if may_split and stop - start >= 2 * self.min_samples_leaf:
                    parent_score[k] = total ** 2 / (hess_total + self.reg_lambda)
                start = stop

            if not may_split:
                leaf = np.full(n_nodes, -1, dtype=np.intp)
                levels.append((leaf, np.zeros(n_nodes), leaf, value))
                break

            row_node = np.repeat(np.arange(n_nodes), size)
            feature, split_bin, left_size = self._best_splits(
                cell.take(rows, axis=0), row_node, g, size, grad_total, parent_score
            )
            found = feature >= 0
            # Children are numbered pairwise, in node order, on the next level.
            child_slot = 2 * (found.cumsum() - 1)
            first_id += n_nodes
            levels.append(
                (
                    feature,
                    np.where(found, split_bin, 0.0),
                    np.where(found, first_id + child_slot, -1),
                    value,
                )
            )
            if not found.any():
                break

            # Partition: a stable sort on the child slot keeps rows ascending.
            if not found.all():
                moving = found[row_node]
                rows = rows[moving]
                row_node = row_node[moving]
            go_right = (
                binned_flat.take(rows * n_features + feature[row_node])
                > split_bin[row_node]
            )
            slot = child_slot[row_node] + go_right
            order = slot.argsort(kind="stable")
            rows = rows[order]
            node_of_row[rows] = first_id + slot[order]
            size = np.column_stack((left_size, size - left_size))[found].ravel()

        feature, threshold, left, value = (
            np.concatenate(field) for field in zip(*levels)
        )
        leaf_values = value[node_of_row]
        # Level order -> pre-order.
        children = left.tolist()
        order = []
        stack = [0]
        while stack:
            node = stack.pop()
            order.append(node)
            if children[node] >= 0:
                stack.append(children[node] + 1)
                stack.append(children[node])
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        feature = feature[order]
        left = left[order]
        flat = FlatTree(
            feature,
            threshold[order],
            np.where(feature >= 0, rank[left], -1),
            np.where(feature >= 0, rank[left + 1], -1),
            value[order],
            len(levels) - 1,
        )
        return flat, leaf_values

    def _best_splits(self, cell_rows, row_node, g, size, grad_total, parent_score):
        """Best cut of every node of one level: :meth:`_build`'s split search
        as one pass over a ``(nodes, features, bins)`` block.

        A histogram is additive over rows, so one weighted ``bincount`` over
        the combined index ``(node * F + feature) * B + bin`` fills every
        node's gradient histogram, and one unweighted ``bincount`` the count
        histogram — which, as floats, is the unit-hessian histogram.

        Returns ``(feature, bin, left size)`` per node; ``feature`` is ``-1``
        where no cut clears the gain floor.
        """
        min_leaf = self.min_samples_leaf
        reg = self.reg_lambda
        n_nodes = size.size
        n_features = cell_rows.shape[1]
        shape = (n_nodes, n_features, self.max_bins)
        cells = n_features * self.max_bins
        index = (cell_rows + (row_node * cells)[:, None]).ravel()
        grad_hist = np.bincount(
            index, weights=np.repeat(g, n_features), minlength=n_nodes * cells
        )
        count_hist = np.bincount(index, minlength=n_nodes * cells)
        g_cum = grad_hist.reshape(shape).cumsum(axis=2)[:, :, :-1]
        c_cum = count_hist.reshape(shape).cumsum(axis=2)[:, :, :-1]
        h_cum = c_cum.astype(np.float64)
        g_right = grad_total[:, None, None] - g_cum
        h_right = size.astype(np.float64)[:, None, None] - h_cum
        c_right = size[:, None, None] - c_cum
        valid = (c_cum >= min_leaf) & (c_right >= min_leaf)
        gain = 0.5 * (
            g_cum ** 2 / (h_cum + reg)
            + g_right ** 2 / (h_right + reg)
            - parent_score[:, None, None]
        )
        gain = np.where(valid, gain, -np.inf)

        # First maximum per feature, then the first maximum among the
        # features that clear the floor: a later feature wins only by more.
        best_bin = gain.argmax(axis=2)
        feature_gain = gain.max(axis=2)
        feature_gain = np.where(feature_gain > 1e-12, feature_gain, -np.inf)
        feature = feature_gain.argmax(axis=1)
        nodes = np.arange(n_nodes)
        found = feature_gain[nodes, feature] > -np.inf
        split_bin = best_bin[nodes, feature]
        return (
            np.where(found, feature, -1),
            split_bin,
            c_cum[nodes, feature, split_bin],
        )

    def _build(self, binned, grad, hess, indices, depth) -> _BoostNode:
        """Node-at-a-time recursive builder: the oracle for :meth:`_grow_levels`."""
        grad_total = float(grad[indices].sum())
        hess_total = float(hess[indices].sum())
        node = _BoostNode(value=self._leaf_value(grad_total, hess_total))
        if depth >= self.max_depth or indices.size < 2 * self.min_samples_leaf:
            return node

        parent_score = grad_total ** 2 / (hess_total + self.reg_lambda)
        best_gain = 1e-12
        best = None
        sub_binned = binned[indices]
        sub_grad = grad[indices]
        sub_hess = hess[indices]

        for feature in range(binned.shape[1]):
            bins = sub_binned[:, feature]
            grad_hist = np.bincount(bins, weights=sub_grad, minlength=self.max_bins)
            hess_hist = np.bincount(bins, weights=sub_hess, minlength=self.max_bins)
            count_hist = np.bincount(bins, minlength=self.max_bins)

            g_cum = np.cumsum(grad_hist)[:-1]
            h_cum = np.cumsum(hess_hist)[:-1]
            c_cum = np.cumsum(count_hist)[:-1]
            g_right = grad_total - g_cum
            h_right = hess_total - h_cum
            c_right = indices.size - c_cum

            valid = (c_cum >= self.min_samples_leaf) & (c_right >= self.min_samples_leaf)
            if not np.any(valid):
                continue
            gain = 0.5 * (
                g_cum ** 2 / (h_cum + self.reg_lambda)
                + g_right ** 2 / (h_right + self.reg_lambda)
                - parent_score
            )
            gain[~valid] = -np.inf
            best_bin = int(np.argmax(gain))
            if gain[best_bin] > best_gain:
                best_gain = float(gain[best_bin])
                best = (feature, best_bin)

        if best is None:
            return node

        feature, split_bin = best
        mask = sub_binned[:, feature] <= split_bin
        node.feature = feature
        node.threshold = float(split_bin)
        node.left = self._build(binned, grad, hess, indices[mask], depth + 1)
        node.right = self._build(binned, grad, hess, indices[~mask], depth + 1)
        return node

    def predict_reference(self, binned: np.ndarray) -> np.ndarray:
        """Recursive node-walk prediction (the oracle for the stacked descent)."""
        return self.flat_.predict_reference(binned)


class HistGradientBoostingRegressor(BaseRegressor):
    """LightGBM-style gradient boosting with histogram split finding.

    Features are quantile-binned into at most ``max_bins`` buckets once,
    before boosting; every split search then scans bin histograms instead of
    sorted raw values, which is the optimisation that makes LightGBM fast.

    Parameters
    ----------
    n_estimators, learning_rate, max_depth, min_samples_leaf, reg_lambda:
        Usual boosting hyper-parameters.
    max_bins:
        Maximum number of histogram bins per feature (2..256).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 6,
        min_samples_leaf: int = 5,
        reg_lambda: float = 1.0,
        max_bins: int = 64,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.max_bins = max_bins

    # -- binning ------------------------------------------------------------
    def _fit_bins(self, X: np.ndarray) -> None:
        self.bin_edges_ = []
        for feature in range(X.shape[1]):
            quantiles = np.quantile(
                X[:, feature], np.linspace(0, 1, self.max_bins + 1)[1:-1]
            )
            self.bin_edges_.append(np.unique(quantiles))

    def _transform_bins(self, X: np.ndarray) -> np.ndarray:
        binned = np.empty(X.shape, dtype=np.int64)
        for feature, edges in enumerate(self.bin_edges_):
            binned[:, feature] = np.searchsorted(edges, X[:, feature], side="left")
        return binned

    # -- fitting ------------------------------------------------------------
    def fit(self, X, y) -> "HistGradientBoostingRegressor":
        if not 2 <= self.max_bins <= 256:
            raise ValueError("max_bins must be in [2, 256]")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        X, y = check_X_y(X, y)
        n_samples = X.shape[0]

        self._fit_bins(X)
        binned = self._transform_bins(X)

        self.base_prediction_ = float(y.mean())
        current = np.full(n_samples, self.base_prediction_)
        self.estimators_: List[_HistTree] = []

        for _ in range(self.n_estimators):
            tree = _HistTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                reg_lambda=self.reg_lambda,
                max_bins=self.max_bins,
            )
            current += self.learning_rate * tree.fit(binned, current - y)
            self.estimators_.append(tree)

        self.n_features_in_ = X.shape[1]
        self._stacked_cache = None
        return self

    def stacked(self) -> StackedTrees:
        """All histogram trees stacked, with thresholds remapped to raw space.

        The stack descends the *unbinned* feature matrix directly (see
        :func:`_unbinned_flat_tree`), so a prediction is one iterative
        descent with no per-feature binning pass.  Built lazily and cached.
        """
        self._check_fitted("estimators_")
        stacked = getattr(self, "_stacked_cache", None)
        if stacked is None:
            stacked = StackedTrees(
                _unbinned_flat_tree(tree.flat_, self.bin_edges_)
                for tree in self.estimators_
            )
            self._stacked_cache = stacked
        return stacked

    def _predict_stacked(self, X: np.ndarray) -> np.ndarray:
        """Boosted sum over one raw-space stacked descent (no checks).

        Contributions fold in boosting order (see
        :meth:`~repro.ml.tree.StackedTrees.fold`) so the accumulation is
        bit-identical to the sequential per-tree loop over binned features.
        """
        return self.stacked().fold(X, self.base_prediction_, self.learning_rate)

    def predict(self, X) -> np.ndarray:
        self._check_fitted("estimators_")
        X = check_X(X)
        _check_n_features(self, X)
        if active_impl() != "reference":
            return self._predict_stacked(X)
        binned = self._transform_bins(X)
        prediction = np.full(X.shape[0], self.base_prediction_)
        for tree in self.estimators_:
            prediction += self.learning_rate * tree.predict_reference(binned)
        return prediction
