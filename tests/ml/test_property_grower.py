"""The frontier grower against its node-at-a-time oracle, on generated inputs.

``repro.ml.tree._grow_frontier`` (production) and ``_grow_reference`` (the
``reference_mode()`` oracle) must produce the same node arrays bit for bit:
structure, thresholds, values, sample counts and impurities.  The guards the
grower's correctness rests on are mutation-checked: each is edited out of the
module's source and the mutant grower must disagree with the oracle.
"""

import inspect
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import tree as tree_mod
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor, reference_mode

NODE_ARRAYS = ("feature", "threshold", "left", "right", "value", "n_samples", "impurity")


def assert_same_trees(grown, expected):
    assert len(grown) == len(expected)
    for tree, oracle in zip(grown, expected):
        assert tree.depth == oracle.depth
        for name in NODE_ARRAYS:
            ours, theirs = getattr(tree, name), getattr(oracle, name)
            assert ours.dtype == theirs.dtype, name
            # Bitwise: tobytes distinguishes -0.0 from 0.0 and NaN payloads.
            assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes(), name


def grow_both(problem, grower=None):
    X, y, w, roots, seeds, params = problem
    grower = grower or tree_mod._grow_frontier
    grown = grower(X, y, w, roots, [np.random.default_rng(s) for s in seeds], **params)
    oracle = tree_mod._grow_reference(
        X, y, w, roots, [np.random.default_rng(s) for s in seeds], **params
    )
    return grown, oracle


@st.composite
def forest_problem(draw):
    n_rows = draw(st.integers(2, 48))
    n_features = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    # Few distinct values per column, so duplicated feature values and tied
    # gains are the common case rather than the exception.
    levels = draw(st.integers(1, 12))
    X = rng.integers(0, levels, size=(n_rows, n_features)).astype(float)
    X *= rng.choice([0.1, 1.0, 3.7], size=n_features)
    for column in range(n_features):
        if draw(st.booleans()) and draw(st.booleans()):
            X[:, column] = X[0, column]  # constant column
    y = np.round(rng.normal(size=n_rows), draw(st.integers(0, 3)))
    weights = draw(st.sampled_from(["unit", "positive", "zeros"]))
    if weights == "unit":
        w = np.ones(n_rows)
    else:
        w = rng.uniform(0.1, 2.0, size=n_rows)
        if weights == "zeros":
            w[rng.random(n_rows) < 0.3] = 0.0
    n_trees = draw(st.sampled_from([1, 2, 7]))
    roots = []
    for _ in range(n_trees):
        root = (
            rng.integers(0, n_rows, size=n_rows)
            if draw(st.booleans())
            else np.arange(n_rows)
        )
        if not w[root].sum() > 0:
            # fit() rejects a weightless root; keep one weighted row in it.
            w[root[0]] = 1.0
        roots.append(root)
    params = dict(
        max_depth=draw(st.sampled_from([None, 0, 1, 2, 5])),
        min_samples_split=draw(st.integers(2, 6)),
        min_samples_leaf=draw(st.integers(1, 4)),
        n_split_features=draw(st.integers(1, n_features)),
    )
    seeds = [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=n_trees)]
    return X, y, w, roots, seeds, params


class TestGrowerEqualsOracle:
    @given(forest_problem())
    @settings(max_examples=150, deadline=None)
    def test_node_arrays_are_bitwise_equal(self, problem):
        assert_same_trees(*grow_both(problem))

    @given(forest_problem())
    @settings(max_examples=60, deadline=None)
    def test_one_forest_call_equals_one_call_per_tree(self, problem):
        X, y, w, roots, seeds, params = problem
        together = tree_mod._grow_frontier(
            X, y, w, roots, [np.random.default_rng(s) for s in seeds], **params
        )
        alone = [
            tree_mod._grow_frontier(X, y, w, [root], [np.random.default_rng(s)], **params)[0]
            for root, s in zip(roots, seeds)
        ]
        assert_same_trees(together, alone)

    def test_realistic_forest(self, regression_data):
        # Continuous features, bootstrap roots, the benchmark's forest shape.
        X, y = regression_data
        rng = np.random.default_rng(3)
        roots = [rng.integers(0, X.shape[0], size=X.shape[0]) for _ in range(7)]
        params = dict(max_depth=12, min_samples_split=2, min_samples_leaf=2, n_split_features=1)
        problem = (X, y, np.ones(X.shape[0]), roots, list(range(7)), params)
        grown, oracle = grow_both(problem)
        assert_same_trees(grown, oracle)
        assert max(tree.depth for tree in grown) >= 6

    def test_estimators_agree_under_reference_mode(self, regression_data):
        X, y = regression_data
        forest = RandomForestRegressor(n_estimators=5, max_depth=7, random_state=4).fit(X, y)
        with reference_mode():
            oracle = RandomForestRegressor(n_estimators=5, max_depth=7, random_state=4).fit(X, y)
        assert forest.oob_score_ == oracle.oob_score_
        np.testing.assert_array_equal(
            forest.feature_importances(), oracle.feature_importances()
        )
        for ours, theirs in zip(forest.estimators_, oracle.estimators_):
            assert (ours.n_leaves_, ours.depth_) == (theirs.n_leaves_, theirs.depth_)
            for name in ("feature", "threshold", "left", "right", "value"):
                np.testing.assert_array_equal(
                    getattr(ours.flat_tree_, name), getattr(theirs.flat_tree_, name)
                )


def mutant_grower(original: str, replacement: str):
    """``_grow_frontier`` from ``repro.ml.tree`` recompiled with one source
    fragment replaced (the fragment must occur exactly once in the module)."""
    source = inspect.getsource(tree_mod)
    assert source.count(original) == 1, f"guard not found exactly once: {original!r}"
    mutant = types.ModuleType("repro.ml.tree_mutant")
    sys.modules[mutant.__name__] = mutant  # dataclasses resolve annotations through it
    try:
        exec(
            compile(source.replace(original, replacement), tree_mod.__file__, "exec"),
            mutant.__dict__,
        )
    finally:
        del sys.modules[mutant.__name__]
    return mutant._grow_frontier


def single_tree_problem(X, y, **params):
    X = np.asarray(X, dtype=float)
    params = {
        "max_depth": None,
        "min_samples_split": 2,
        "min_samples_leaf": 1,
        "n_split_features": X.shape[1],
        **params,
    }
    n_rows = X.shape[0]
    return X, np.asarray(y, dtype=float), np.ones(n_rows), [np.arange(n_rows)], [0], params


def disagrees(problem, grower) -> bool:
    """Whether ``grower`` fails to reproduce the oracle (a crash counts)."""
    try:
        assert_same_trees(*grow_both(problem, grower))
    except (AssertionError, IndexError, ValueError):
        return True
    return False


class TestGuardsAreLoadBearing:
    """Remove one guard at a time: the mutant must stop matching the oracle."""

    def test_unmutated_source_round_trips(self):
        problem = single_tree_problem([[0.0], [0.0], [1.0], [2.0]], [0.0, 9.0, 9.0, 1.0])
        assert not disagrees(problem, mutant_grower("columns[:, n_rows] = np.inf", "columns[:, n_rows] = np.inf"))

    def test_distinct_neighbour_mask(self):
        # The best cut by gain alone separates two rows with equal x.
        problem = single_tree_problem([[0.0], [0.0], [0.0], [1.0]], [0.0, 9.0, 9.0, 9.0])
        mutant = mutant_grower(
            "valid = col_sorted[:, :, :-1] < col_sorted[:, :, 1:]",
            "valid = np.ones(gain.shape, dtype=bool)",
        )
        assert disagrees(problem, mutant)

    def test_leaf_minimum(self):
        # One outlier: the best cut isolates it, which min_samples_leaf=2 forbids.
        problem = single_tree_problem(
            [[0.0], [1.0], [2.0], [3.0], [4.0]], [50.0, 1.0, 2.0, 1.0, 2.0], min_samples_leaf=2
        )
        mutant = mutant_grower(
            "(left_count >= min_samples_leaf)", "(left_count >= 1)"
        )
        assert disagrees(problem, mutant)

    def test_leaf_minimum_also_bounds_the_padding(self):
        # Five rows sit in an eight-wide block; without the right-hand bound
        # a cut between the last row and the +inf padding is admissible.
        problem = single_tree_problem(
            [[0.0], [1.0], [2.0], [3.0], [4.0]], [1.0, 1.0, 1.0, 1.0, 9.0], max_depth=1
        )
        mutant = mutant_grower(
            "& (last[:, None] + 1 - left_count >= min_samples_leaf)",
            "& (last[:, None] + 1 - left_count >= -width)",
        )
        grown, oracle = grow_both(problem, mutant)
        assert oracle[0].threshold[0] == 3.5
        assert disagrees(problem, mutant)

    def test_tie_break_prefers_the_earlier_feature(self):
        # Two identical columns: equal gains, feature 0 must win.
        column = [0.0, 1.0, 2.0, 3.0]
        problem = single_tree_problem(
            np.column_stack([column, column]), [0.0, 0.0, 5.0, 5.0], max_depth=1
        )
        mutant = mutant_grower(
            "better = feature_gain[:, j] > best_gain + 1e-12",
            "better = feature_gain[:, j] >= best_gain",
        )
        grown, oracle = grow_both(problem, mutant)
        assert oracle[0].feature[0] == 0 and grown[0].feature[0] == 1

    def test_tie_break_tolerance(self):
        # Column 1 is column 0 negated: the same partitions summed in the
        # opposite order, so gains differ by rounding only and feature 0
        # keeps the split unless the 1e-12 margin is dropped.
        mutant = mutant_grower(
            "better = feature_gain[:, j] > best_gain + 1e-12",
            "better = feature_gain[:, j] > best_gain",
        )
        flipped = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            column = rng.normal(size=24)
            problem = single_tree_problem(
                np.column_stack([column, -column]), rng.normal(size=24), max_depth=1
            )
            grown, oracle = grow_both(problem, mutant)
            assert oracle[0].feature[0] == 0
            flipped += grown[0].feature[0] == 1
        assert flipped > 0

    def test_children_keep_positive_weight(self):
        # Without the guard the weightless last row becomes a leaf of its
        # own, whose value is 0/0.
        X, y, _, roots, seeds, params = single_tree_problem(
            [[0.0], [1.0], [2.0], [3.0]], [1.0, 1.0, 2.0, 50.0]
        )
        problem = (X, y, np.array([0.3, 0.3, 0.3, 0.0]), roots, seeds, params)
        mutant = mutant_grower(
            "valid &= (weighted[:, :, :-1] > 0) & (", "valid |= (weighted[:, :, :-1] < 0) & ("
        )
        grown, oracle = grow_both(problem, mutant)
        assert np.all(np.isfinite(oracle[0].value))
        assert disagrees(problem, mutant)

    @pytest.mark.parametrize("sentinel", ["0.0", "-np.inf"])
    def test_padding_sentinel_sorts_last(self, sentinel):
        # Five rows in an eight-wide block: padding that does not sort
        # behind every real value lands among them.
        problem = single_tree_problem(
            [[-2.0], [-1.0], [1.0], [2.0], [3.0]], [0.0, 0.0, 4.0, 4.0, 8.0]
        )
        mutant = mutant_grower(
            "columns[:, n_rows] = np.inf", f"columns[:, n_rows] = {sentinel}"
        )
        assert disagrees(problem, mutant)


class TestAdjacentFloats:
    def test_midpoint_that_rounds_up_still_separates(self):
        # 0.5 * (a + b) == b for these neighbours; a cut at b would send
        # every row left and grow the same node again for ever.
        a = 1.0
        b = np.nextafter(a, 2.0)
        c = np.nextafter(b, 2.0)
        assert 0.5 * (b + c) == c
        problem = single_tree_problem([[a], [b], [c], [c]], [0.0, 1.0, 5.0, 5.0])
        grown, oracle = grow_both(problem)
        assert_same_trees(grown, oracle)
        assert sorted(grown[0].n_samples[grown[0].feature < 0]) == [1, 1, 2]


class TestFitValidation:
    def test_all_zero_weights_rejected(self):
        X = np.arange(6.0).reshape(-1, 1)
        with pytest.raises(ValueError, match="positive total"):
            DecisionTreeRegressor().fit(X, np.arange(6.0), sample_weight=np.zeros(6))

    def test_zero_weight_rows_among_positive_ones(self):
        X = np.arange(8.0).reshape(-1, 1)
        # Weightless rows inside and at the end of the feature's order.
        y = np.array([0.0, 0.0, 77.0, 0.0, 5.0, 88.0, 5.0, 99.0])
        weights = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
        model = DecisionTreeRegressor().fit(X, y, sample_weight=weights)
        predictions = model.predict(X)
        assert np.all(np.isfinite(model.flat_tree_.value))
        np.testing.assert_array_equal(predictions[weights > 0], y[weights > 0])
        with reference_mode():
            oracle = DecisionTreeRegressor().fit(X, y, sample_weight=weights)
            np.testing.assert_array_equal(oracle.predict(X), predictions)
