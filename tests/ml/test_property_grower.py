"""The production tree growers against their node-at-a-time oracles, on generated inputs.

The C CART grower (``load_kernels().grow_cart``, driven by
``repro.ml.tree._grow_native``) and ``_grow_reference`` (the
``reference_mode()`` oracle and the fallback without a compiler) must produce
the same node arrays bit for bit: structure, thresholds, values, sample
counts and impurities.  So must the C Newton grower (``grow_newton``) and
XGBoost's recursive ``_NewtonTree._build``, and the C histogram grower
(``grow_hist``) and LightGBM's recursive ``_HistTree._build``, which must
also agree on every training row's leaf value.  The guards each grower's
correctness rests on are mutation-checked: each is edited out of
``_GROWER_SOURCE``, recompiled, and the mutant must disagree with the
oracle.

The native suites skip without a C compiler — except under
``ADSALA_NATIVE_REQUIRE=1`` (a CI step), where they fail instead.
"""

import ctypes
import os
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import _native
from repro.ml import boosting as boosting_mod
from repro.ml import tree as tree_mod
from repro.ml.boosting import GradientBoostingRegressor, HistGradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor, reference_mode

kernels = _native.load_kernels()
NATIVE = kernels is not None and kernels.grow_cart is not None
REQUIRED = os.environ.get("ADSALA_NATIVE_REQUIRE") == "1"

needs_native = pytest.mark.skipif(
    not NATIVE and not REQUIRED, reason="native tree growers unavailable"
)

NODE_ARRAYS = ("feature", "threshold", "left", "right", "value", "n_samples", "impurity")


def test_required_native_growers_are_loaded():
    """Under ``ADSALA_NATIVE_REQUIRE=1`` nothing below may run on the oracle alone."""
    assert NATIVE or not REQUIRED, kernels and kernels.growers_reason


def assert_same_trees(grown, expected):
    assert len(grown) == len(expected)
    for tree, oracle in zip(grown, expected):
        assert tree.depth == oracle.depth
        for name in NODE_ARRAYS:
            ours, theirs = getattr(tree, name), getattr(oracle, name)
            assert ours.dtype == theirs.dtype, name
            # Bitwise: tobytes distinguishes -0.0 from 0.0 and NaN payloads.
            assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes(), name


def rngs(seeds):
    return [np.random.default_rng(seed) for seed in seeds]


def grow_native(problem, grower=None):
    X, y, w, roots, seeds, params = problem
    bound = (grower or kernels.grow_cart).bind(X, **params)
    return tree_mod._grow_native(bound, y, w, roots, rngs(seeds))


def grow_both(problem, grower=None):
    X, y, w, roots, seeds, params = problem
    oracle = tree_mod._grow_reference(X, y, w, roots, rngs(seeds), **params)
    return grow_native(problem, grower), oracle


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


@needs_native
class TestGrowerEqualsOracle:
    @given(forest_problem())
    @settings(max_examples=150, deadline=None)
    def test_node_arrays_are_bitwise_equal(self, problem):
        assert_same_trees(*grow_both(problem))

    @given(forest_problem())
    @settings(max_examples=60, deadline=None)
    def test_one_forest_call_equals_one_call_per_tree(self, problem):
        # A binding carries nothing from one tree to the next.
        X, y, w, roots, seeds, params = problem
        together = grow_native(problem)
        alone = [
            grow_native((X, y, w, [root], [seed], params))[0]
            for root, seed in zip(roots, seeds)
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

    def test_any_memory_layout_of_X(self, regression_data):
        # The binding copies X into columns itself: a Fortran-ordered or
        # strided X grows the same trees as a C-ordered one.
        X, y = regression_data
        for model in (
            RandomForestRegressor(n_estimators=3, max_depth=5, random_state=2),
            GradientBoostingRegressor(n_estimators=3, subsample=0.7, random_state=2),
        ):
            expected = model.fit(X, y).predict(X)
            for layout in (np.asfortranarray(X), np.repeat(X, 2, axis=1)[:, ::2]):
                assert model.fit(layout, y).predict(X).tobytes() == expected.tobytes()

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


@pytest.fixture(scope="module")
def mutant_growers(tmp_path_factory):
    """``build(original, replacement) -> {"grow_cart": ..., "grow_newton": ...,
    "grow_hist": ...}``: the C growers compiled from ``_GROWER_SOURCE`` with
    one fragment (found exactly once) replaced, into a cache of this module's
    own."""
    cache = tmp_path_factory.mktemp("grower-mutants")

    def build(original: str, replacement: str):
        source = _native._GROWER_SOURCE
        assert source.count(original) == 1, f"guard not found exactly once: {original!r}"
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("ADSALA_NATIVE_CACHE", str(cache))
            library = _native._build_library(source.replace(original, replacement))
        assert library is not None, "the mutant did not compile"
        lib = ctypes.CDLL(str(library))
        _native._declare_grower_signatures(lib)
        return dict(zip(("grow_cart", "grow_newton", "grow_hist"), _native._bind_growers(lib)))

    return build


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


#: The CART scan's admissibility test, as it stands in ``_GROWER_SOURCE``.
CART_GUARD = (
    "if (xf[s] < xf[seg[i + 1]] && i + 1 >= min_leaf &&\n"
    "                count - (i + 1) >= min_leaf && lpos > 0 && lpos < positive) {"
)
#: The CART scan's feature tie-break.
CART_TIE_BREAK = "m.top > best_gain + 1e-12) {\n            const double below"


@needs_native
class TestGuardsAreLoadBearing:
    """Remove one guard of the C CART grower at a time: the mutant must stop
    matching the oracle."""

    def cart_mutant(self, mutant_growers, original, replacement):
        return mutant_growers(original, replacement)["grow_cart"]

    def test_unmutated_source_round_trips(self, mutant_growers):
        grower = self.cart_mutant(mutant_growers, CART_GUARD, CART_GUARD)
        for X, y in (([[0.0], [0.0], [1.0], [2.0]], [0.0, 9.0, 9.0, 1.0]),
                     ([[0.0], [1.0], [2.0], [3.0], [4.0]], [50.0, 1.0, 2.0, 1.0, 2.0])):
            assert not disagrees(single_tree_problem(X, y, min_samples_leaf=2), grower)

    def test_distinct_neighbour_mask(self, mutant_growers):
        # The best cut by gain alone separates two rows with equal x.
        problem = single_tree_problem([[0.0], [0.0], [0.0], [1.0]], [0.0, 9.0, 9.0, 9.0])
        mutant = self.cart_mutant(
            mutant_growers, CART_GUARD, CART_GUARD.replace("xf[s] < xf[seg[i + 1]]", "1")
        )
        assert disagrees(problem, mutant)

    def test_leaf_minimum(self, mutant_growers):
        # One outlier: the best cut isolates it, which min_samples_leaf=2 forbids.
        problem = single_tree_problem(
            [[0.0], [1.0], [2.0], [3.0], [4.0]], [50.0, 1.0, 2.0, 1.0, 2.0], min_samples_leaf=2
        )
        mutant = self.cart_mutant(
            mutant_growers, CART_GUARD, CART_GUARD.replace("i + 1 >= min_leaf", "i + 1 >= 1")
        )
        assert disagrees(problem, mutant)

    def test_leaf_minimum_on_the_right(self, mutant_growers):
        # The outlier at the other end: the right-hand bound forbids its cut.
        problem = single_tree_problem(
            [[0.0], [1.0], [2.0], [3.0], [4.0]], [1.0, 2.0, 1.0, 2.0, 50.0], min_samples_leaf=2
        )
        mutant = self.cart_mutant(
            mutant_growers,
            CART_GUARD,
            CART_GUARD.replace("count - (i + 1) >= min_leaf", "count - (i + 1) >= 1"),
        )
        grown, oracle = grow_both(problem, mutant)
        assert oracle[0].threshold[0] != 3.5 and grown[0].threshold[0] == 3.5

    def test_tie_break_prefers_the_earlier_feature(self, mutant_growers):
        # Two identical columns: equal gains, feature 0 must win.
        column = [0.0, 1.0, 2.0, 3.0]
        problem = single_tree_problem(
            np.column_stack([column, column]), [0.0, 0.0, 5.0, 5.0], max_depth=1
        )
        mutant = self.cart_mutant(
            mutant_growers, CART_TIE_BREAK, CART_TIE_BREAK.replace("> best_gain + 1e-12", ">= best_gain")
        )
        grown, oracle = grow_both(problem, mutant)
        assert oracle[0].feature[0] == 0 and grown[0].feature[0] == 1

    def test_tie_break_tolerance(self, mutant_growers):
        # Column 1 is column 0 negated: the same partitions summed in the
        # opposite order, so gains differ by rounding only and feature 0
        # keeps the split unless the 1e-12 margin is dropped.
        mutant = self.cart_mutant(
            mutant_growers, CART_TIE_BREAK, CART_TIE_BREAK.replace(" + 1e-12", "")
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

    def test_children_keep_positive_weight(self, mutant_growers):
        # Without the guard the weightless last row becomes a leaf of its
        # own, whose value is 0/0.
        X, y, _, roots, seeds, params = single_tree_problem(
            [[0.0], [1.0], [2.0], [3.0]], [1.0, 1.0, 2.0, 50.0]
        )
        problem = (X, y, np.array([0.3, 0.3, 0.3, 0.0]), roots, seeds, params)
        mutant = self.cart_mutant(
            mutant_growers, CART_GUARD, CART_GUARD.replace("lpos > 0 && lpos < positive", "1")
        )
        grown, oracle = grow_both(problem, mutant)
        assert np.all(np.isfinite(oracle[0].value))
        assert disagrees(problem, mutant)

    def test_subset_keys_run_on_across_levels(self, mutant_growers):
        # A key row feeds one open node: a mutant that restarts the rows at
        # every level hands the second level the root's subset again.
        mutant = self.cart_mutant(
            mutant_growers,
            "key_order(a->keys + key_row++ * nf, nf, examined);",
            "key_order(a->keys + (key_row++, i) * nf, nf, examined);",
        )
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 6))
        problem = (
            X, X @ rng.normal(size=6), np.ones(40), [np.arange(40)], [7],
            dict(max_depth=4, min_samples_split=2, min_samples_leaf=1, n_split_features=2),
        )  # fmt: skip
        assert not disagrees(problem, None)
        assert disagrees(problem, mutant)


@needs_native
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
# XGBoost's exact Newton grower against its recursive oracle
# ---------------------------------------------------------------------------
FLAT_ARRAYS = ("feature", "threshold", "left", "right", "value")


def assert_same_flat(ours, theirs):
    assert ours.depth == theirs.depth
    for name in FLAT_ARRAYS:
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def grow_newton_both(problem, grower=None):
    """``(native flat tree, oracle flat tree)``; the native tree grows on the
    listed rows of the bound ``X``, the oracle on ``X[rows]``."""
    X, grad, hess, rows, params = problem
    native = boosting_mod._NewtonTree(**params)
    native.grow(native.bind(grower or kernels.grow_newton, X), rows, grad, hess)
    oracle = boosting_mod._NewtonTree(**params)
    # reg_lambda = 0: the oracle divides by zero at cuts it then masks.
    with np.errstate(divide="ignore", invalid="ignore"):
        oracle.fit_reference(X[rows], grad[rows], hess[rows])
    return native.flat_, oracle.flat_


def newton_disagrees(problem, grower) -> bool:
    try:
        assert_same_flat(*grow_newton_both(problem, grower))
    except (AssertionError, IndexError, ValueError):
        return True
    return False


def newton_problem_from(X, grad, **params):
    X = np.asarray(X, dtype=float)
    params = {
        "max_depth": 4, "min_child_weight": 1.0, "reg_lambda": 1.0, "gamma": 0.0,
        "min_samples_leaf": 1, **params,
    }  # fmt: skip
    n_rows = X.shape[0]
    return X, np.asarray(grad, dtype=float), np.ones(n_rows), np.arange(n_rows), params


@st.composite
def newton_problem(draw):
    n_rows = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # Few distinct values per column: tied values are the common case.
    levels = draw(st.integers(1, 10))
    X = rng.integers(0, levels, size=(n_rows, n_features)).astype(float)
    X *= rng.choice([0.1, 1.0, 3.7], size=n_features)
    if draw(st.booleans()):
        X[n_rows // 2:] = X[: n_rows - n_rows // 2]  # duplicate rows
    grad = np.round(rng.normal(size=n_rows), draw(st.integers(0, 3)))
    if draw(st.booleans()):
        hess = np.ones(n_rows)  # squared loss, as GradientBoostingRegressor
    else:
        hess = np.round(rng.uniform(0.1, 2.0, size=n_rows), 1)
    subsample = draw(st.sampled_from([1.0, 0.8, 0.5]))
    if subsample < 1.0:
        rows = rng.choice(n_rows, size=max(1, int(round(subsample * n_rows))), replace=False)
    else:
        rows = np.arange(n_rows)
    params = dict(
        max_depth=draw(st.sampled_from([0, 1, 2, 4, 6])),
        min_child_weight=draw(st.sampled_from([0.0, 1.0, 2.5])),
        reg_lambda=draw(st.sampled_from([0.0, 0.5, 1.0])),
        gamma=draw(st.sampled_from([0.0, 0.1, 2.0])),
        min_samples_leaf=draw(st.integers(1, 4)),
    )
    return X, grad, hess, rows, params


@needs_native
class TestNewtonGrowerEqualsOracle:
    @given(newton_problem())
    @settings(max_examples=150, deadline=None)
    def test_flat_arrays_are_bitwise_equal(self, problem):
        assert_same_flat(*grow_newton_both(problem))

    @given(
        st.integers(0, 2 ** 32 - 1),
        st.sampled_from([1.0, 0.6]),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([0.0, 0.5]),
    )
    @settings(max_examples=20, deadline=None)
    def test_fit_agrees_under_reference_mode(self, seed, subsample, reg_lambda, gamma):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(40, 3)), 1)  # duplicated raw values
        y = X[:, 0] * X[:, 1] + rng.normal(size=40)
        queries = rng.normal(size=(9, 3))
        params = dict(
            n_estimators=4, max_depth=3, min_child_weight=2.0, reg_lambda=reg_lambda,
            gamma=gamma, subsample=subsample, random_state=seed % 1000,
        )  # fmt: skip
        model = GradientBoostingRegressor(**params).fit(X, y)
        with reference_mode(), np.errstate(divide="ignore", invalid="ignore"):
            oracle = GradientBoostingRegressor(**params).fit(X, y)
            oracle_prediction = oracle.predict(queries)
        for ours, theirs in zip(model.estimators_, oracle.estimators_):
            assert_same_flat(ours.flat_, theirs.flat_)
        assert model.predict(queries).tobytes() == oracle_prediction.tobytes()

    def test_midpoint_that_rounds_up_leaves_an_empty_child(self):
        # 0.5 * (b + c) == c: the cut sends both rows left, the right child
        # is empty (value -0.0 / lambda), and the left one repeats the
        # parent down to max_depth — in both growers.
        b = np.nextafter(1.0, 2.0)
        c = np.nextafter(b, 2.0)
        problem = newton_problem_from([[b], [c]], [1.0, -1.0], max_depth=2, min_child_weight=0.0)
        native, oracle = grow_newton_both(problem)
        assert_same_flat(native, oracle)
        assert native.n_nodes == 5 and native.threshold[0] == c
        assert str(native.value[native.right[0]]) == "-0.0"
        # Without regularisation the empty child's value is 0.0 / 0.0: the
        # oracle's Python division raises, and so does the native grower.
        X, grad, hess, rows, params = newton_problem_from(
            [[b], [c]], [1.0, -1.0], max_depth=2, min_child_weight=0.0, reg_lambda=0.0
        )
        tree = boosting_mod._NewtonTree(**params)
        with pytest.raises(ZeroDivisionError):
            tree.grow(tree.bind(kernels.grow_newton, X), rows, grad, hess)
        with pytest.raises(ZeroDivisionError):
            tree.fit_reference(X, grad, hess)


@needs_native
@pytest.mark.parametrize(
    "n", [0, 1, 7, 8, 9, 15, 16, 17, 120, 127, 128, 129, 135, 136, 255, 256, 257, 263, 1000]
)
def test_pairwise_sum_is_numpys_sum(n):
    # Node totals of the Newton grower: below 8 a plain loop, up to 128
    # eight accumulators, beyond that halves cut at a multiple of 8.
    rng = np.random.default_rng(n)
    cases = [
        rng.normal(size=n) * 10.0 ** rng.integers(-3, 9, size=n),
        np.round(rng.normal(size=n), 1),
        np.where(rng.random(n) < 0.5, -0.0, rng.normal(size=n)),
        np.full(n, -0.0),
    ]
    for a in cases:
        assert np.float64(kernels.pairwise_sum(a)).tobytes() == a.sum().tobytes()


#: The Newton scan's admissibility test, as it stands in ``_GROWER_SOURCE``.
NEWTON_GUARD = (
    "count - (i + 1) >= min_leaf && hl >= a->min_child_weight &&\n"
    "                hr >= a->min_child_weight)"
)


@needs_native
class TestNewtonGuardsAreLoadBearing:
    # One outlier at either end: the best cut isolates it.
    OUTLIER_LEFT = ([[0.0], [1.0], [2.0], [3.0], [4.0]], [50.0, 1.0, 2.0, 1.0, 2.0])
    OUTLIER_RIGHT = ([[0.0], [1.0], [2.0], [3.0], [4.0]], [1.0, 2.0, 1.0, 2.0, 50.0])

    def newton_mutant(self, mutant_growers, original, replacement):
        return mutant_growers(original, replacement)["grow_newton"]

    def test_min_child_weight_on_the_left(self, mutant_growers):
        mutant = self.newton_mutant(
            mutant_growers, NEWTON_GUARD, NEWTON_GUARD.replace("hl >= a->min_child_weight", "1")
        )
        problem = newton_problem_from(*self.OUTLIER_LEFT, min_child_weight=2.0, max_depth=1)
        assert not newton_disagrees(problem, None)
        assert newton_disagrees(problem, mutant)

    def test_min_child_weight_on_the_right(self, mutant_growers):
        mutant = self.newton_mutant(
            mutant_growers, NEWTON_GUARD, NEWTON_GUARD.replace("hr >= a->min_child_weight", "1")
        )
        problem = newton_problem_from(*self.OUTLIER_RIGHT, min_child_weight=2.0, max_depth=1)
        assert not newton_disagrees(problem, None)
        assert newton_disagrees(problem, mutant)

    def test_gamma_prices_every_split(self, mutant_growers):
        mutant = self.newton_mutant(
            mutant_growers, "parent_score) -\n                       a->gamma;", "parent_score);"
        )
        problem = newton_problem_from(*self.OUTLIER_LEFT, gamma=1e4)
        native, _ = grow_newton_both(problem)
        assert native.n_nodes == 1
        assert newton_disagrees(problem, mutant)


@needs_native
class TestLoadTimeProbe:
    """``load_kernels`` grows a small forest and two boosters through the C
    growers and through the oracles; a mismatch drops the growers alone."""

    @pytest.fixture(autouse=True)
    def _restore_kernel_cache(self):
        yield
        _native._reset_kernel_cache()
        assert _native.load_kernels().grow_cart is not None

    def test_probe_names_the_grower_that_differs(self, mutant_growers):
        real = _native.load_kernels()
        assert _native._verify_growers(real) == ""
        cart = mutant_growers(CART_GUARD, CART_GUARD.replace("xf[s] < xf[seg[i + 1]]", "1"))
        newton = mutant_growers(NEWTON_GUARD, NEWTON_GUARD.replace("hl >= a->min_child_weight", "1"))
        hist = mutant_growers(HIST_LEFT_GUARD, HIST_LEFT_GUARD.replace("min_leaf", "1"))
        growers = {name: getattr(real, name) for name in ("grow_cart", "grow_newton", "grow_hist")}
        for name, mutants in (("grow_cart", cart), ("grow_newton", newton), ("grow_hist", hist)):
            broken = types.SimpleNamespace(**{**growers, name: mutants[name]})
            assert _native._verify_growers(broken).startswith(f"{name}: ")

    def test_probe_runs_at_the_first_grower_use_not_at_load(self, monkeypatch):
        real = _native._verify_growers
        probed = []
        monkeypatch.setattr(_native, "_verify_growers", lambda k: probed.append(k) or real(k))
        _native._reset_kernel_cache()
        loaded = _native.load_kernels()
        assert probed == [] and "growers_reason" not in vars(loaded)
        assert loaded.fused_evaluate is not None or not loaded.transform_verified
        assert loaded.grow_newton is not None and len(probed) == 1
        assert loaded.verify_growers() == loaded.growers_reason == ""
        assert loaded.grow_cart is not None and loaded.grow_hist is not None and len(probed) == 1

    def test_failed_probe_drops_only_the_growers(self, monkeypatch, regression_data):
        monkeypatch.setattr(_native, "_verify_growers", lambda kernels: "grow_cart: tree 0 value differs")
        _native._reset_kernel_cache()
        loaded = _native.load_kernels()
        assert loaded.grow_cart is None and loaded.grow_newton is None and loaded.grow_hist is None
        assert loaded.growers_reason == "grow_cart: tree 0 value differs"
        assert loaded.descent is not None and loaded.pairwise_sum is not None
        assert (loaded.fused_evaluate is not None) == loaded.transform_verified
        # Trees now grow through the oracle, which grows what the C grower grew.
        X, y = regression_data
        boosters = (
            lambda: GradientBoostingRegressor(n_estimators=3, subsample=0.8, random_state=1),
            lambda: HistGradientBoostingRegressor(n_estimators=3, max_depth=4),
        )
        fallback = [booster().fit(X, y) for booster in boosters]
        monkeypatch.undo()
        _native._reset_kernel_cache()
        native = [booster().fit(X, y) for booster in boosters]
        for model, oracle in zip(native, fallback):
            for ours, theirs in zip(model.estimators_, oracle.estimators_):
                assert_same_flat(ours.flat_, theirs.flat_)



# ---------------------------------------------------------------------------
# The histogram booster's C grower against its per-node oracle
# ---------------------------------------------------------------------------
def grow_hist_both(problem, grower=None):
    """``(flat tree, training-row leaf values)`` from the C histogram grower
    and from the per-node oracle."""
    binned, grad, params = problem
    native = boosting_mod._HistTree(**params)
    values = native.grow(native.bind(grower or kernels.grow_hist, binned), grad)
    oracle = boosting_mod._HistTree(**params)
    # reg_lambda = 0: the oracle divides by zero at cuts it then masks.
    with np.errstate(divide="ignore", invalid="ignore"):
        oracle_values = oracle.fit_reference(binned, grad)
    return (native.flat_, values), (oracle.flat_, oracle_values)


def assert_hist_agrees(problem, grower=None):
    (flat, values), (oracle_flat, oracle_values) = grow_hist_both(problem, grower)
    assert_same_flat(flat, oracle_flat)
    assert values.tobytes() == oracle_values.tobytes()


def hist_disagrees(problem, grower) -> bool:
    try:
        assert_hist_agrees(problem, grower)
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


@needs_native
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

    def test_bins_outside_the_histogram_are_rejected(self):
        tree = boosting_mod._HistTree(max_depth=2, min_samples_leaf=1, reg_lambda=1.0, max_bins=4)
        for binned in ([[0], [4]], [[-1], [2]]):
            with pytest.raises(ValueError, match="outside"):
                tree.bind(kernels.grow_hist, np.asarray(binned))

    def test_one_fit_is_one_foreign_call_per_tree(self, regression_data, monkeypatch):
        # A count, not a timing: no histogram is taken in NumPy, and the
        # booster binds its bins once and calls the C grower once a round.
        X, y = regression_data
        calls = []
        loaded = _native.load_kernels()
        fn = loaded.grow_hist.ctypes_fn
        counting = _native.NativeGrower(
            lambda address: calls.append(1) or fn(address),
            _native._newton_capacity,
            _native.BoundHistGrower,
        )
        monkeypatch.setattr(loaded, "grow_hist", counting)
        monkeypatch.setattr(np, "bincount", lambda *args, **kwargs: pytest.fail("np.bincount"))
        model = HistGradientBoostingRegressor(n_estimators=5, max_depth=4).fit(X, y)
        assert len(calls) == model.n_estimators == len(model.estimators_)
        assert max(tree.flat_.depth for tree in model.estimators_) == 4


#: The histogram scan's leaf minimum on either side, as it stands in
#: ``_GROWER_SOURCE``.
HIST_LEFT_GUARD = "if (c_cum >= min_leaf) {"
HIST_RIGHT_GUARD = "if (count - c_cum < min_leaf)"
#: The histogram scan's feature test: strictly above the best gain so far.
HIST_TIE_BREAK = "if (m.at >= 0 && m.top > best_gain) {"
#: The histogram scan's gain floor.
HIST_FLOOR = "double best_gain = 1e-12;"


@needs_native
class TestHistGuardsAreLoadBearing:
    """Remove one guard of the C histogram grower at a time: the mutant must
    stop matching the oracle."""

    # One outlier at either end: the best cut isolates it.
    OUTLIER_LEFT = ([0, 1, 2, 3, 4], [50.0, 1.0, 2.0, 1.0, 2.0])
    OUTLIER_RIGHT = ([0, 1, 2, 3, 4], [1.0, 2.0, 1.0, 2.0, 50.0])

    def hist_mutant(self, mutant_growers, original, replacement):
        return mutant_growers(original, replacement)["grow_hist"]

    def test_unmutated_source_round_trips(self, mutant_growers):
        same = self.hist_mutant(mutant_growers, HIST_LEFT_GUARD, HIST_LEFT_GUARD)
        for binned, grad in (self.OUTLIER_LEFT, self.OUTLIER_RIGHT):
            assert not hist_disagrees(hist_problem_from(binned, grad, min_samples_leaf=2), same)

    def test_leaf_minimum_on_the_left(self, mutant_growers):
        mutant = self.hist_mutant(
            mutant_growers, HIST_LEFT_GUARD, HIST_LEFT_GUARD.replace("min_leaf", "1")
        )
        assert hist_disagrees(hist_problem_from(*self.OUTLIER_LEFT, min_samples_leaf=2), mutant)

    def test_leaf_minimum_on_the_right(self, mutant_growers):
        mutant = self.hist_mutant(
            mutant_growers, HIST_RIGHT_GUARD, HIST_RIGHT_GUARD.replace("min_leaf", "1")
        )
        assert hist_disagrees(hist_problem_from(*self.OUTLIER_RIGHT, min_samples_leaf=2), mutant)

    def test_tie_break_prefers_the_earlier_feature(self, mutant_growers):
        # Two identical columns: equal gains, feature 0 must win.
        column = [0, 1, 2, 3]
        problem = hist_problem_from(
            np.column_stack([column, column]), [0.0, 0.0, 5.0, 5.0], max_depth=1
        )
        mutant = self.hist_mutant(
            mutant_growers, HIST_TIE_BREAK, HIST_TIE_BREAK.replace("m.top >", "m.top >=")
        )
        (flat, _), (oracle_flat, _) = grow_hist_both(problem, mutant)
        assert oracle_flat.feature[0] == 0 and flat.feature[0] == 1

    def test_gain_floor(self, mutant_growers):
        # Equal gradients: every cut's gain is zero up to rounding, which
        # the 1e-12 floor must not mistake for an improvement.
        mutant = self.hist_mutant(mutant_growers, HIST_FLOOR, HIST_FLOOR.replace("1e-12", "0.0"))
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
