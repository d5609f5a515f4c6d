"""Equivalence tests: flattened tree inference vs the recursive reference.

Every tree-based model holds its fitted trees as struct-of-arrays
:class:`~repro.ml.tree.FlatTree`; predictions through the iterative
vectorised descent must match the recursive node walk exactly, and fitting
through the production builders must produce exactly the same trees as the
node-at-a-time reference builders.
"""

import numpy as np
import pytest

from repro.ml.boosting import (
    AdaBoostRegressor,
    GradientBoostingRegressor,
    HistGradientBoostingRegressor,
)
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import (
    DecisionTreeRegressor,
    FlatTree,
    _Node,
    active_impl,
    reference_mode,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(123)
    X = rng.normal(size=(400, 9))
    y = (
        X @ rng.normal(size=9)
        + 0.5 * np.sin(3 * X[:, 0])
        + rng.normal(0, 0.05, size=400)
    )
    X_query = rng.normal(size=(250, 9))
    return X, y, X_query


MODELS = [
    (DecisionTreeRegressor, dict(max_depth=10, random_state=0)),
    (DecisionTreeRegressor, dict(min_samples_leaf=5, max_features="sqrt", random_state=1)),
    (RandomForestRegressor, dict(n_estimators=8, max_depth=8, random_state=0)),
    (AdaBoostRegressor, dict(n_estimators=8, max_depth=3, random_state=0)),
    (GradientBoostingRegressor, dict(n_estimators=12, max_depth=4, random_state=0)),
    (GradientBoostingRegressor, dict(n_estimators=6, subsample=0.7, random_state=0)),
    (HistGradientBoostingRegressor, dict(n_estimators=12, max_depth=5)),
]


class TestFitEquivalence:
    @pytest.mark.parametrize("cls,kwargs", MODELS)
    def test_vectorised_fit_equals_reference_fit(self, data, cls, kwargs):
        X, y, X_query = data
        vectorised = cls(**kwargs).fit(X, y)
        with reference_mode():
            assert active_impl() == "reference"
            reference = cls(**kwargs).fit(X, y)
            reference_pred = reference.predict(X_query)
        np.testing.assert_array_equal(vectorised.predict(X_query), reference_pred)
        assert active_impl() == "vectorized"

    def test_weighted_fit_equals_reference_fit(self, data):
        X, y, X_query = data
        weights = np.random.default_rng(5).uniform(0.0, 2.0, size=X.shape[0])
        vectorised = DecisionTreeRegressor(max_depth=8, random_state=0).fit(
            X, y, sample_weight=weights
        )
        with reference_mode():
            reference = DecisionTreeRegressor(max_depth=8, random_state=0).fit(
                X, y, sample_weight=weights
            )
            reference_pred = reference.predict(X_query)
        np.testing.assert_array_equal(vectorised.predict(X_query), reference_pred)


class TestPredictEquivalence:
    def test_flat_predict_equals_recursive_reference(self, data):
        X, y, X_query = data
        model = DecisionTreeRegressor(max_depth=12, random_state=0).fit(X, y)
        np.testing.assert_array_equal(
            model.predict(X_query), model.predict_reference(X_query)
        )

    def test_single_row_and_empty_batches(self, data):
        X, y, _ = data
        model = DecisionTreeRegressor(max_depth=6, random_state=0).fit(X, y)
        np.testing.assert_array_equal(
            model.predict(X[:1]), model.predict_reference(X[:1])
        )
        assert model.flat_tree_.predict(np.empty((0, X.shape[1]))).shape == (0,)

    def test_stump_tree(self):
        X = np.zeros((5, 3))
        y = np.full(5, 2.5)
        model = DecisionTreeRegressor().fit(X, y)
        assert model.flat_tree_.depth == 0
        np.testing.assert_array_equal(model.predict(X), np.full(5, 2.5))

    def test_ensemble_predicts_match_recursive(self, data):
        X, y, X_query = data
        for cls, kwargs in MODELS[2:]:
            model = cls(**kwargs).fit(X, y)
            flat = model.predict(X_query)
            with reference_mode():
                recursive = model.predict(X_query)
            np.testing.assert_array_equal(flat, recursive)


class TestFlatTreeStructure:
    def test_flat_arrays_describe_the_fitted_tree(self, data):
        X, y, _ = data
        model = DecisionTreeRegressor(max_depth=7, random_state=0).fit(X, y)
        flat = model.flat_tree_
        assert isinstance(flat, FlatTree)
        assert flat.n_leaves == model.n_leaves_
        assert flat.depth == model.depth_
        assert flat.n_nodes == 2 * model.n_leaves_ - 1
        interior = flat.feature >= 0
        assert np.all(flat.left[interior] >= 0)
        assert np.all(flat.right[interior] >= 0)
        assert np.all(flat.left[~interior] == -1)

    def test_flat_tree_survives_pickle(self, data):
        import pickle

        X, y, X_query = data
        model = RandomForestRegressor(n_estimators=4, max_depth=6, random_state=0).fit(X, y)
        clone = pickle.loads(pickle.dumps(model))
        np.testing.assert_array_equal(clone.predict(X_query), model.predict(X_query))

    def test_estimator_pickled_before_the_frontier_grower_still_predicts(self, data):
        # Estimators saved by earlier versions carry a linked `tree_` node
        # graph beside `flat_tree_` and no `importances_`.
        import pickle

        X, y, X_query = data
        forest = RandomForestRegressor(n_estimators=3, max_depth=5, random_state=0).fit(X, y)
        expected = forest.predict(X_query)
        size_now = len(pickle.dumps(forest))

        def graph(flat, node=0):
            if flat.feature[node] < 0:
                return _Node(value=float(flat.value[node]))
            return _Node(
                value=float(flat.value[node]),
                feature=int(flat.feature[node]),
                threshold=float(flat.threshold[node]),
                left=graph(flat, flat.left[node]),
                right=graph(flat, flat.right[node]),
            )

        for tree in forest.estimators_:
            tree.tree_ = graph(tree.flat_tree_)
            del tree.importances_
        legacy = pickle.dumps(forest)
        assert len(legacy) > size_now  # the graph is what no longer gets pickled
        loaded = pickle.loads(legacy)
        np.testing.assert_array_equal(loaded.predict(X_query), expected)
        np.testing.assert_array_equal(
            loaded.estimators_[0].predict(X_query), forest.estimators_[0].predict(X_query)
        )
        with pytest.raises(RuntimeError, match="refit"):
            loaded.estimators_[0].feature_importances()

    def test_nan_features_route_like_the_recursive_walk(self, data):
        # The public predict() rejects NaN (check_X), but the compiled
        # FlatTree is also used on raw arrays (e.g. binned boosting data):
        # its descent must route NaN exactly like the recursive walk
        # (NaN <= threshold is false -> right child).
        X, y, _ = data
        model = DecisionTreeRegressor(max_depth=8, random_state=0).fit(X, y)
        X_query = np.array(X[:20])
        X_query[::3, 0] = np.nan
        X_query[::4, 5] = np.nan
        np.testing.assert_array_equal(
            model.flat_tree_.predict(X_query), model.flat_tree_.predict_reference(X_query)
        )
