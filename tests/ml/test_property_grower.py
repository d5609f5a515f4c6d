"""The level-wise growers against their node-at-a-time oracles, on generated inputs.

``repro.ml.tree._grow_frontier`` (production) and ``_grow_reference`` (the
``reference_mode()`` oracle) must produce the same node arrays bit for bit:
structure, thresholds, values, sample counts and impurities.  So must the
histogram booster's ``_HistTree._grow_levels`` and its recursive
``_HistTree._build``.  The guards each grower's correctness rests on are
mutation-checked: each is edited out of the module's source and the mutant
grower must disagree with the oracle.
"""

import inspect
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import boosting as boosting_mod
from repro.ml import tree as tree_mod
from repro.ml.boosting import HistGradientBoostingRegressor
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


def mutant_module(module, original: str, replacement: str):
    """``module`` recompiled with one source fragment replaced (the fragment
    must occur exactly once in it)."""
    source = inspect.getsource(module)
    assert source.count(original) == 1, f"guard not found exactly once: {original!r}"
    mutant = types.ModuleType(module.__name__ + "_mutant")
    sys.modules[mutant.__name__] = mutant  # dataclasses resolve annotations through it
    try:
        exec(
            compile(source.replace(original, replacement), module.__file__, "exec"),
            mutant.__dict__,
        )
    finally:
        del sys.modules[mutant.__name__]
    return mutant


def mutant_grower(original: str, replacement: str):
    """``_grow_frontier`` from a one-fragment mutant of ``repro.ml.tree``."""
    return mutant_module(tree_mod, original, replacement)._grow_frontier


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


# ---------------------------------------------------------------------------
# The histogram booster's level-wise grower against its per-node oracle
# ---------------------------------------------------------------------------
FLAT_ARRAYS = ("feature", "threshold", "left", "right", "value")


def assert_same_flat(ours, theirs):
    assert ours.depth == theirs.depth
    for name in FLAT_ARRAYS:
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def grow_hist_both(problem, tree_cls=boosting_mod._HistTree):
    """``(flat tree, training-row leaf values)`` from ``tree_cls``'s level-wise
    grower and from the per-node oracle."""
    binned, grad, params = problem
    grown = tree_cls(**params)
    values = grown.fit(binned, grad)
    oracle = boosting_mod._HistTree(**params)
    # reg_lambda = 0: the oracle divides by zero at cuts it then masks.
    with reference_mode(), np.errstate(divide="ignore", invalid="ignore"):
        oracle_values = oracle.fit(binned, grad)
    return (grown.flat_, values), (oracle.flat_, oracle_values)


def assert_hist_agrees(problem, tree_cls=boosting_mod._HistTree):
    (flat, values), (oracle_flat, oracle_values) = grow_hist_both(problem, tree_cls)
    assert_same_flat(flat, oracle_flat)
    assert values.tobytes() == oracle_values.tobytes()


def hist_disagrees(problem, tree_cls) -> bool:
    try:
        assert_hist_agrees(problem, tree_cls)
    except (AssertionError, IndexError, ValueError):
        return True
    return False


def hist_problem_from(binned, grad, **params):
    params = {
        "max_depth": 6, "min_samples_leaf": 1, "reg_lambda": 1.0, "max_bins": 8, **params
    }
    binned = np.asarray(binned, dtype=np.int64)
    if binned.ndim == 1:
        binned = binned[:, None]
    return binned, np.asarray(grad, dtype=float), params


@st.composite
def hist_problem(draw):
    n_rows = draw(st.integers(1, 48))
    n_features = draw(st.integers(1, 5))
    max_bins = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # Few occupied bins, so duplicated values and tied gains are common.
    occupied = draw(st.integers(1, max_bins))
    binned = rng.integers(0, occupied, size=(n_rows, n_features))
    for column in range(n_features):
        if draw(st.booleans()) and draw(st.booleans()):
            binned[:, column] = binned[0, column]  # constant column
    grad = np.round(rng.normal(size=n_rows), draw(st.integers(0, 3)))
    params = dict(
        max_depth=draw(st.sampled_from([0, 1, 2, 3, 6])),
        # Up to past n_rows / 2: roots with n < 2 * min_samples_leaf.
        min_samples_leaf=draw(st.integers(1, 8)),
        reg_lambda=draw(st.sampled_from([0.0, 0.5, 1.0])),
        max_bins=max_bins,
    )
    return binned, grad, params


class TestHistGrowerEqualsOracle:
    @given(hist_problem())
    @settings(max_examples=150, deadline=None)
    def test_flat_arrays_and_leaf_values_are_bitwise_equal(self, problem):
        assert_hist_agrees(problem)

    @given(
        st.integers(0, 2 ** 32 - 1),
        st.integers(2, 64),
        st.sampled_from([1, 3, 5]),
        st.sampled_from([1, 2, 5]),
    )
    @settings(max_examples=25, deadline=None)
    def test_fit_agrees_under_reference_mode(self, seed, max_bins, max_depth, min_samples_leaf):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(40, 3)), 1)  # duplicated raw values
        y = X[:, 0] * X[:, 1] + rng.normal(size=40)
        queries = rng.normal(size=(9, 3))
        params = dict(
            n_estimators=4, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
            max_bins=max_bins,
        )
        model = HistGradientBoostingRegressor(**params).fit(X, y)
        with reference_mode():
            oracle = HistGradientBoostingRegressor(**params).fit(X, y)
            oracle_prediction = oracle.predict(queries)
        for ours, theirs in zip(model.estimators_, oracle.estimators_):
            assert_same_flat(ours.flat_, theirs.flat_)
        assert model.predict(queries).tobytes() == oracle_prediction.tobytes()

    def test_level_where_no_node_splits(self):
        # The root separates the two gradient values; both children are then
        # pure, so depth 1 searches and finds nothing with depth to spare.
        problem = hist_problem_from([0, 0, 0, 1, 1, 1], [1.0, 1.0, 1.0, -2.0, -2.0, -2.0])
        (flat, _), _ = grow_hist_both(problem)
        assert flat.depth == 1 and flat.n_nodes == 3
        assert_hist_agrees(problem)

    def test_root_smaller_than_two_leaves(self):
        problem = hist_problem_from([0, 1, 2], [1.0, -1.0, 5.0], min_samples_leaf=2)
        (flat, values), _ = grow_hist_both(problem)
        assert flat.n_nodes == 1 and np.all(values == flat.value[0])
        assert_hist_agrees(problem)

    def test_one_fit_makes_two_bincounts_per_level(self, regression_data, monkeypatch):
        # A count, not a timing: the per-node builder makes 18 per *node*.
        X, y = regression_data
        calls = []
        bincount = np.bincount
        monkeypatch.setattr(
            np, "bincount", lambda *args, **kwargs: calls.append(1) or bincount(*args, **kwargs)
        )
        model = HistGradientBoostingRegressor(n_estimators=5, max_depth=4).fit(X, y)
        assert 0 < len(calls) <= 2 * model.n_estimators * (model.max_depth + 1)
        assert max(tree.flat_.depth for tree in model.estimators_) == 4


def mutant_hist_tree(original: str, replacement: str):
    """``_HistTree`` from a one-fragment mutant of ``repro.ml.boosting``."""
    return mutant_module(boosting_mod, original, replacement)._HistTree


class TestHistGuardsAreLoadBearing:
    """Remove one guard of ``_best_splits`` at a time: the mutant must stop
    matching the oracle."""

    # One outlier at either end: the best cut isolates it.
    OUTLIER_LEFT = ([0, 1, 2, 3, 4], [50.0, 1.0, 2.0, 1.0, 2.0])
    OUTLIER_RIGHT = ([0, 1, 2, 3, 4], [1.0, 2.0, 1.0, 2.0, 50.0])

    def test_unmutated_source_round_trips(self):
        same = mutant_hist_tree("(c_cum >= min_leaf)", "(c_cum >= min_leaf)")
        for binned, grad in (self.OUTLIER_LEFT, self.OUTLIER_RIGHT):
            assert not hist_disagrees(
                hist_problem_from(binned, grad, min_samples_leaf=2), same
            )

    def test_leaf_minimum_on_the_left(self):
        mutant = mutant_hist_tree("(c_cum >= min_leaf)", "(c_cum >= 1)")
        problem = hist_problem_from(*self.OUTLIER_LEFT, min_samples_leaf=2)
        assert hist_disagrees(problem, mutant)

    def test_leaf_minimum_on_the_right(self):
        mutant = mutant_hist_tree("(c_right >= min_leaf)", "(c_right >= 1)")
        problem = hist_problem_from(*self.OUTLIER_RIGHT, min_samples_leaf=2)
        assert hist_disagrees(problem, mutant)

    def test_tie_break_prefers_the_earlier_feature(self):
        # Two identical columns: equal gains, feature 0 must win.
        column = [0, 1, 2, 3]
        problem = hist_problem_from(
            np.column_stack([column, column]), [0.0, 0.0, 5.0, 5.0], max_depth=1
        )
        mutant = mutant_hist_tree(
            "feature = feature_gain.argmax(axis=1)",
            "feature = n_features - 1 - feature_gain[:, ::-1].argmax(axis=1)",
        )
        (flat, _), (oracle_flat, _) = grow_hist_both(problem, mutant)
        assert oracle_flat.feature[0] == 0 and flat.feature[0] == 1

    def test_gain_floor(self):
        # Equal gradients: every cut's gain is zero up to rounding, which
        # the 1e-12 floor must not mistake for an improvement.
        mutant = mutant_hist_tree("feature_gain > 1e-12", "feature_gain > 0.0")
        split = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            problem = hist_problem_from(
                rng.integers(0, 8, size=(24, 2)),
                np.full(24, rng.normal()),
                reg_lambda=0.0,
                max_depth=1,
            )
            (flat, _), (oracle_flat, _) = grow_hist_both(problem, mutant)
            assert oracle_flat.n_nodes == 1
            split += flat.n_nodes > 1
        assert split > 0
