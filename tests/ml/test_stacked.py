"""Tests for the whole-ensemble StackedTrees compilation (and native kernel)."""

import pickle

import numpy as np
import pytest

from repro.ml import _native
from repro.ml import tree as tree_mod
from repro.ml.boosting import (
    AdaBoostRegressor,
    GradientBoostingRegressor,
    HistGradientBoostingRegressor,
)
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor, StackedTrees


@pytest.fixture()
def data():
    rng = np.random.default_rng(5)
    X = rng.uniform(-2.0, 2.0, size=(260, 6))
    y = X @ rng.normal(size=6) + np.sin(X[:, 0] * 3) + 0.05 * rng.normal(size=260)
    Xq = rng.uniform(-2.5, 2.5, size=(53, 6))
    return X, y, Xq


ENSEMBLES = [
    lambda: RandomForestRegressor(n_estimators=15, max_depth=7, random_state=0),
    lambda: AdaBoostRegressor(n_estimators=12, max_depth=3, random_state=0),
    lambda: GradientBoostingRegressor(n_estimators=20, max_depth=4),
    lambda: HistGradientBoostingRegressor(n_estimators=20, max_depth=4, max_bins=24),
]


@pytest.mark.parametrize("factory", ENSEMBLES)
class TestEnsembleEquivalence:
    def test_stacked_equals_unstacked_and_recursive(self, factory, data):
        """One stacked descent == the oracle's tree-by-tree recursive walk."""
        X, y, Xq = data
        model = factory().fit(X, y)
        stacked = model.predict(Xq)
        with tree_mod.reference_mode():
            recursive = model.predict(Xq)
        assert np.array_equal(stacked, recursive)

    def test_native_equals_numpy_descent(self, factory, data):
        X, y, Xq = data
        model = factory().fit(X, y)
        native = model.predict(Xq).copy()
        stack = model.stacked()
        saved = stack._native
        try:
            stack._native = None
            numpy_path = model.predict(Xq)
        finally:
            stack._native = saved
        assert np.array_equal(native, numpy_path)

    def test_stack_cache_not_pickled(self, factory, data):
        X, y, Xq = data
        model = factory().fit(X, y)
        before = model.predict(Xq)
        assert getattr(model, "_stacked_cache", None) is not None
        clone = pickle.loads(pickle.dumps(model))
        assert getattr(clone, "_stacked_cache", None) is None
        assert np.array_equal(clone.predict(Xq), before)


class TestStackedTrees:
    def test_rows_match_individual_flat_trees(self, data):
        X, y, Xq = data
        forest = RandomForestRegressor(
            n_estimators=9, max_depth=6, random_state=1
        ).fit(X, y)
        stacked = StackedTrees(t.flat_tree_ for t in forest.estimators_)
        per_tree = stacked.predict_per_tree(Xq)
        assert per_tree.shape == (9, Xq.shape[0])
        for row, tree in zip(per_tree, forest.estimators_):
            assert np.array_equal(row, tree.flat_tree_.predict(Xq))

    def test_fold_matches_sequential_accumulation(self, data):
        X, y, Xq = data
        booster = GradientBoostingRegressor(n_estimators=18, max_depth=3).fit(X, y)
        stacked = booster.stacked()
        expected = np.full(Xq.shape[0], booster.base_prediction_)
        for update in stacked.predict_per_tree(Xq):
            expected += booster.learning_rate * update
        assert np.array_equal(
            stacked.fold(Xq, booster.base_prediction_, booster.learning_rate),
            expected,
        )

    def test_single_tree_stack(self, data):
        X, y, Xq = data
        tree = DecisionTreeRegressor(max_depth=5).fit(X, y)
        stacked = StackedTrees([tree.flat_tree_])
        assert np.array_equal(
            stacked.predict_per_tree(Xq)[0], tree.flat_tree_.predict(Xq)
        )

    def test_empty_stack_raises(self):
        with pytest.raises(ValueError):
            StackedTrees([])

    def test_odd_sample_counts_hit_native_tail_path(self, data):
        """Row counts around the 8-lane native block boundary."""
        X, y, _ = data
        forest = RandomForestRegressor(
            n_estimators=7, max_depth=6, random_state=2
        ).fit(X, y)
        rng = np.random.default_rng(3)
        stack = forest.stacked()
        for n in (1, 2, 7, 8, 9, 16, 17):
            Xq = rng.uniform(-2.0, 2.0, size=(n, X.shape[1]))
            native = stack.predict_per_tree(Xq).copy()
            saved = stack._native
            try:
                stack._native = None
                numpy_path = stack.predict_per_tree(Xq)
            finally:
                stack._native = saved
            assert np.array_equal(native, numpy_path), n


class TestHistThresholdRemap:
    def test_unbinned_descent_matches_binned(self, data):
        """Raw-space thresholds route exactly like the binned descent."""
        X, y, Xq = data
        model = HistGradientBoostingRegressor(
            n_estimators=25, max_depth=5, max_bins=16
        ).fit(X, y)
        binned = model._transform_bins(Xq)
        expected = np.full(Xq.shape[0], model.base_prediction_)
        for tree in model.estimators_:
            expected += model.learning_rate * tree.flat_.predict(binned)
        assert np.array_equal(model._predict_stacked(Xq), expected)

    def test_exact_edge_values_route_identically(self, data):
        """Queries sitting exactly on bin edges are the remap's hard case."""
        X, y, _ = data
        model = HistGradientBoostingRegressor(
            n_estimators=10, max_depth=4, max_bins=8
        ).fit(X, y)
        # Build queries whose column j walks feature j's fitted edges, so
        # many comparisons hit the exact x == edges[s] tie case.
        n_rows = max(len(edges) for edges in model.bin_edges_)
        Xq = np.empty((n_rows, X.shape[1]))
        for j, edges in enumerate(model.bin_edges_):
            Xq[:, j] = np.resize(edges, n_rows)
        binned = model._transform_bins(Xq)
        expected = np.full(Xq.shape[0], model.base_prediction_)
        for tree in model.estimators_:
            expected += model.learning_rate * tree.flat_.predict(binned)
        assert np.array_equal(model._predict_stacked(Xq), expected)


class TestNativeKernelModule:
    def test_kernel_memoised(self, data):
        """Every stack binds the bundle's one descent callable (or none)."""
        X, y, _ = data
        flat = DecisionTreeRegressor(max_depth=3).fit(X, y).flat_tree_
        bundle = _native.load_kernels()
        expected = bundle.descent if bundle is not None else None
        assert StackedTrees([flat])._native is expected
        assert StackedTrees([flat, flat])._native is expected

    def test_kernel_bundle_memoised(self):
        assert _native.load_kernels() is _native.load_kernels()

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("ADSALA_NATIVE", "0")
        assert not _native.native_enabled()
        monkeypatch.delenv("ADSALA_NATIVE")
        assert _native.native_enabled()
