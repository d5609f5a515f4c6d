"""Tests for AdaBoost.R2, XGBoost-style and LightGBM-style boosting."""

import numpy as np
import pytest

from repro.ml.boosting import (
    AdaBoostRegressor,
    GradientBoostingRegressor,
    HistGradientBoostingRegressor,
    weighted_median,
)
from repro.ml.metrics import r2_score


class TestAdaBoost:
    def test_fits_nonlinear_data(self, regression_data):
        X, y = regression_data
        model = AdaBoostRegressor(n_estimators=15, max_depth=4, random_state=0).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.7

    def test_stops_early_on_perfect_fit(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]] * 5)
        y = np.where(X[:, 0] > 1.5, 1.0, 0.0)
        model = AdaBoostRegressor(n_estimators=50, max_depth=2, random_state=0).fit(X, y)
        assert len(model.estimators_) < 50

    def test_weights_match_estimators(self, regression_data):
        X, y = regression_data
        model = AdaBoostRegressor(n_estimators=10, random_state=0).fit(X, y)
        assert len(model.estimator_weights_) == len(model.estimators_)

    def test_invalid_loss_rejected(self, regression_data):
        X, y = regression_data
        with pytest.raises(ValueError, match="loss"):
            AdaBoostRegressor(loss="hinge").fit(X, y)

    @pytest.mark.parametrize("loss", ["linear", "square", "exponential"])
    def test_all_losses_produce_finite_predictions(self, regression_data, loss):
        X, y = regression_data
        model = AdaBoostRegressor(n_estimators=5, loss=loss, random_state=0).fit(X, y)
        assert np.all(np.isfinite(model.predict(X[:20])))

    def test_weighted_median_within_prediction_range(self, regression_data):
        X, y = regression_data
        model = AdaBoostRegressor(n_estimators=8, random_state=0).fit(X, y)
        per_tree = np.column_stack([t.predict(X[:5]) for t in model.estimators_])
        combined = model.predict(X[:5])
        assert np.all(combined >= per_tree.min(axis=1) - 1e-9)
        assert np.all(combined <= per_tree.max(axis=1) + 1e-9)

    @pytest.mark.parametrize("ties", [False, True], ids=["random", "tie-heavy"])
    def test_weighted_median_equals_the_sorted_matrix_gather(self, ties):
        """Reading one element per row picks the same element, bit for bit,
        as gathering the whole sorted matrix and indexing it."""

        def sorted_matrix_gather(all_predictions, weights):
            order = np.argsort(all_predictions, axis=1)
            sorted_predictions = np.take_along_axis(all_predictions, order, axis=1)
            cumulative = np.cumsum(weights[order], axis=1)
            threshold = 0.5 * cumulative[:, -1][:, None]
            median_idx = np.argmax(cumulative >= threshold, axis=1)
            return sorted_predictions[np.arange(all_predictions.shape[0]), median_idx]

        rng = np.random.default_rng(11)
        for n_rows, n_trees in [(1, 1), (7, 2), (96, 30), (300, 13)]:
            block = rng.normal(size=(n_rows, n_trees))
            if ties:
                block = np.round(block)  # a handful of distinct values per row
            weights = rng.random(n_trees) + 0.01
            # The compiled predictor passes a transposed (Fortran-order) view.
            for predictions in (block, np.asfortranarray(block)):
                got = weighted_median(predictions, weights)
                expected = sorted_matrix_gather(predictions, weights)
                assert got.tobytes() == expected.tobytes()


class TestGradientBoosting:
    def test_fits_nonlinear_data(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=60, max_depth=3).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.9

    def test_more_rounds_reduce_training_error(self, regression_data):
        X, y = regression_data
        few = GradientBoostingRegressor(n_estimators=5, max_depth=3).fit(X, y)
        many = GradientBoostingRegressor(n_estimators=80, max_depth=3).fit(X, y)
        assert r2_score(y, many.predict(X)) > r2_score(y, few.predict(X))

    def test_base_prediction_is_mean(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=1).fit(X, y)
        assert model.base_prediction_ == pytest.approx(float(np.mean(y)))

    def test_learning_rate_shrinks_steps(self, regression_data):
        X, y = regression_data
        slow = GradientBoostingRegressor(n_estimators=5, learning_rate=0.01).fit(X, y)
        fast = GradientBoostingRegressor(n_estimators=5, learning_rate=0.5).fit(X, y)
        # With few rounds, the tiny learning rate barely moves off the mean.
        slow_spread = np.ptp(slow.predict(X))
        fast_spread = np.ptp(fast.predict(X))
        assert slow_spread < fast_spread

    def test_subsampling_still_fits(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(
            n_estimators=40, subsample=0.6, random_state=0
        ).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.7

    def test_invalid_subsample(self, regression_data):
        X, y = regression_data
        with pytest.raises(ValueError, match="subsample"):
            GradientBoostingRegressor(subsample=0.0).fit(X, y)

    def test_gamma_prunes_splits(self, regression_data):
        X, y = regression_data
        pruned = GradientBoostingRegressor(n_estimators=10, gamma=1e9).fit(X, y)
        # With an enormous split penalty, every tree is a stump predicting ~0,
        # so the ensemble output stays at the base prediction.
        np.testing.assert_allclose(
            pruned.predict(X), pruned.base_prediction_, rtol=0, atol=1e-6
        )

    def test_reg_lambda_shrinks_leaf_values(self, regression_data):
        X, y = regression_data
        light = GradientBoostingRegressor(n_estimators=10, reg_lambda=0.0).fit(X, y)
        heavy = GradientBoostingRegressor(n_estimators=10, reg_lambda=1e4).fit(X, y)
        light_spread = np.ptp(light.predict(X))
        heavy_spread = np.ptp(heavy.predict(X))
        assert heavy_spread < light_spread


class TestHistGradientBoosting:
    def test_fits_nonlinear_data(self, regression_data):
        X, y = regression_data
        model = HistGradientBoostingRegressor(n_estimators=60, max_depth=4).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.85

    def test_binning_respects_max_bins(self, regression_data):
        X, y = regression_data
        model = HistGradientBoostingRegressor(max_bins=8, n_estimators=5).fit(X, y)
        binned = model._transform_bins(X)
        assert binned.max() < 8

    def test_invalid_max_bins(self, regression_data):
        X, y = regression_data
        with pytest.raises(ValueError, match="max_bins"):
            HistGradientBoostingRegressor(max_bins=1).fit(X, y)

    def test_predictions_close_to_exact_boosting(self, regression_data):
        X, y = regression_data
        exact = GradientBoostingRegressor(n_estimators=40, max_depth=4).fit(X, y)
        hist = HistGradientBoostingRegressor(n_estimators=40, max_depth=4, max_bins=64).fit(X, y)
        exact_r2 = r2_score(y, exact.predict(X))
        hist_r2 = r2_score(y, hist.predict(X))
        assert abs(exact_r2 - hist_r2) < 0.15

    def test_feature_mismatch_raises(self, regression_data):
        X, y = regression_data
        model = HistGradientBoostingRegressor(n_estimators=3).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(X[:, :2])

    def test_handles_constant_feature(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(100), rng.normal(size=100)])
        y = 2.0 * X[:, 1]
        model = HistGradientBoostingRegressor(n_estimators=20).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.8


BOOSTERS = [
    lambda: AdaBoostRegressor(n_estimators=6, max_depth=3, random_state=0),
    lambda: GradientBoostingRegressor(n_estimators=6, max_depth=3),
    lambda: HistGradientBoostingRegressor(n_estimators=6, max_depth=3),
]
BOOSTER_IDS = ["AdaBoost", "XGBoost", "LightGBM"]


@pytest.mark.parametrize("make", BOOSTERS, ids=BOOSTER_IDS)
class TestEveryBooster:
    def test_refit_predicts_from_the_new_trees(self, make, regression_data):
        # predict() caches the stacked trees; a second fit must drop them.
        X, y = regression_data
        y_other = -3.0 * y + X[:, 0]
        model = make().fit(X, y)
        model.predict(X)
        refit = model.fit(X, y_other).predict(X)
        fresh = make().fit(X, y_other).predict(X)
        assert refit.tobytes() == fresh.tobytes()

    def test_wrong_feature_count_raises(self, make, regression_data):
        # The stacked descent indexes columns unchecked: with too few it
        # reads past each row, and extra ones it silently ignores.
        X, y = regression_data
        model = make().fit(X, y)
        for wrong in (X[:3, :2], np.column_stack([X[:3], X[:3, :2]])):
            with pytest.raises(ValueError, match=f"X has {wrong.shape[1]} features"):
                model.predict(wrong)
