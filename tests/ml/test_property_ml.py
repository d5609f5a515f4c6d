"""Property-based tests (hypothesis) for the ML substrate invariants."""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.linear import LinearRegression, Ridge
from repro.ml.metrics import mean_squared_error, r2_score, root_mean_squared_error
from repro.ml.model_selection import KFold
from repro.ml.tree import DecisionTreeRegressor

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def regression_problem(draw, min_rows=8, max_rows=40, min_cols=1, max_cols=4):
    n_rows = draw(st.integers(min_rows, max_rows))
    n_cols = draw(st.integers(min_cols, max_cols))
    X = draw(
        hnp.arrays(
            np.float64,
            (n_rows, n_cols),
            elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        )
    )
    y = draw(
        hnp.arrays(
            np.float64,
            (n_rows,),
            elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        )
    )
    return X, y


class TestMetricProperties:
    @given(
        hnp.arrays(np.float64, st.integers(1, 30), elements=finite_floats)
    )
    @settings(max_examples=50, deadline=None)
    def test_perfect_prediction_has_zero_error(self, y):
        assert mean_squared_error(y, y) == 0.0
        assert root_mean_squared_error(y, y) == 0.0

    @given(regression_problem())
    @settings(max_examples=30, deadline=None)
    def test_rmse_nonnegative_and_r2_at_most_one(self, problem):
        _, y = problem
        rng = np.random.default_rng(0)
        y_pred = y + rng.normal(size=y.shape)
        assert root_mean_squared_error(y, y_pred) >= 0
        assert r2_score(y, y_pred) <= 1.0

    @given(
        hnp.arrays(np.float64, st.integers(2, 20), elements=finite_floats),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_mse_shift_invariance(self, y, shift):
        rng = np.random.default_rng(1)
        y_pred = y + rng.normal(size=y.shape)
        original = mean_squared_error(y, y_pred)
        shifted = mean_squared_error(y + shift, y_pred + shift)
        assert np.isclose(original, shifted, rtol=1e-9, atol=1e-9)


#: A drawn case that once fitted an OLS coefficient of 1.8e308 (NaN
#: predictions): ten rows, one subnormal value and zeros.
_SUBNORMAL_COLUMN = np.zeros((10, 1))
_SUBNORMAL_COLUMN[0, 0] = 2.2250738585072014e-308


class TestLinearModelProperties:
    @given(regression_problem(min_rows=10))
    @settings(max_examples=25, deadline=None)
    def test_ols_residuals_orthogonal_to_features(self, problem):
        X, y = problem
        model = LinearRegression().fit(X, y)
        residual = y - model.predict(X)
        centred = X - X.mean(axis=0)
        # Normal equations: X_c^T r = 0 for the least-squares solution.
        dot = centred.T @ residual
        scale = max(1.0, np.abs(centred).max() * max(1.0, np.abs(residual).max()))
        assert np.all(np.abs(dot) / scale < 1e-5)

    @given(regression_problem(min_rows=10), st.floats(0.01, 100.0, allow_nan=False))
    @example(problem=(_SUBNORMAL_COLUMN, np.arange(10.0)), alpha=1.0)
    @settings(max_examples=25, deadline=None)
    def test_ridge_never_beats_ols_on_training_sse(self, problem, alpha):
        X, y = problem
        ols_error = mean_squared_error(y, LinearRegression().fit(X, y).predict(X))
        ridge_error = mean_squared_error(y, Ridge(alpha=alpha).fit(X, y).predict(X))
        assert ridge_error >= ols_error - 1e-8 * max(1.0, abs(ols_error))


class TestTreeProperties:
    @given(regression_problem(min_rows=10))
    @settings(max_examples=25, deadline=None)
    def test_tree_predictions_within_target_range(self, problem):
        X, y = problem
        model = DecisionTreeRegressor(max_depth=4).fit(X, y)
        predictions = model.predict(X)
        assert predictions.min() >= y.min() - 1e-9
        assert predictions.max() <= y.max() + 1e-9

    @given(regression_problem(min_rows=12))
    @settings(max_examples=20, deadline=None)
    def test_deeper_trees_never_increase_training_error(self, problem):
        X, y = problem
        shallow = DecisionTreeRegressor(max_depth=1).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=6).fit(X, y)
        shallow_error = mean_squared_error(y, shallow.predict(X))
        deep_error = mean_squared_error(y, deep.predict(X))
        assert deep_error <= shallow_error + 1e-9 * max(1.0, shallow_error)


class TestKFoldProperties:
    @given(st.integers(6, 60), st.integers(2, 5), st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_folds_partition_indices(self, n_samples, n_splits, seed):
        X = np.zeros((n_samples, 2))
        splitter = KFold(n_splits=min(n_splits, n_samples), shuffle=True, random_state=seed)
        all_test = []
        for train_idx, test_idx in splitter.split(X):
            assert set(train_idx).isdisjoint(set(test_idx))
            all_test.extend(test_idx.tolist())
        assert sorted(all_test) == list(range(n_samples))
