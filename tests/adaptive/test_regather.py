"""Tests for the budgeted, traffic-seeded re-gather + retrain campaign."""

import numpy as np
import pytest

from repro.adaptive.config import AdaptationConfig
from repro.adaptive.regather import (
    plan_regather_shapes,
    retrain_drifting_routines,
    sampler_settings_from_bundle,
)
from repro.core.sampling import DomainSampler
from repro.serving.telemetry import ShapeHistogram


def make_histogram(shapes, counts=None):
    histogram = ShapeHistogram()
    for i, dims in enumerate(shapes):
        repeats = counts[i] if counts else 1
        for _ in range(repeats):
            histogram.record(tuple(sorted(dims.items())))
    return histogram


class TestSamplerSettings:
    def test_extracts_and_renames_bundle_keys(self):
        settings = {
            "memory_cap_bytes": 1e8,
            "min_dim": 16,
            "max_dim": 2048,
            "sampling_scale": "log",
            "scrambled_sampling": False,
            "n_samples": 80,  # not a sampler knob
            "seed": 3,
        }
        assert sampler_settings_from_bundle(settings) == {
            "memory_cap_bytes": 1e8,
            "min_dim": 16,
            "max_dim": 2048,
            "scale": "log",
            "scrambled": False,
        }

    def test_none_values_skipped(self):
        assert sampler_settings_from_bundle({"max_dim": None}) == {}


class TestPlanRegatherShapes:
    def setup_method(self):
        self.sampler = DomainSampler("dgemm", seed=0)

    def test_budget_always_spent_in_full(self):
        histogram = make_histogram([{"m": 100, "k": 100, "n": 100}])
        rng = np.random.default_rng(0)
        shapes, n_traffic, n_fresh = plan_regather_shapes(
            self.sampler, histogram, 12, 0.5, 0.1, rng
        )
        assert len(shapes) == 12
        assert n_traffic + n_fresh == 12
        assert n_traffic == 6

    def test_empty_histogram_falls_back_to_fresh(self):
        rng = np.random.default_rng(0)
        shapes, n_traffic, n_fresh = plan_regather_shapes(
            self.sampler, ShapeHistogram(), 8, 0.75, 0.1, rng
        )
        assert (n_traffic, n_fresh) == (0, 8)
        assert len(shapes) == 8

    def test_traffic_seeded_shapes_stay_near_observed(self):
        observed = {"m": 300, "k": 400, "n": 500}
        histogram = make_histogram([observed])
        rng = np.random.default_rng(1)
        shapes, n_traffic, _ = plan_regather_shapes(
            self.sampler, histogram, 10, 1.0, 0.1, rng
        )
        assert n_traffic == 10
        for dims in shapes:
            for name, value in observed.items():
                assert 0.85 * value <= dims[name] <= 1.15 * value

    def test_zero_jitter_reproduces_observed_shapes(self):
        observed = {"m": 300, "k": 400, "n": 500}
        histogram = make_histogram([observed])
        rng = np.random.default_rng(1)
        shapes, _, _ = plan_regather_shapes(
            self.sampler, histogram, 4, 1.0, 0.0, rng
        )
        assert all(dims == observed for dims in shapes)

    def test_deterministic_given_rng_seed(self):
        histogram = make_histogram(
            [{"m": 300, "k": 400, "n": 500}, {"m": 64, "k": 64, "n": 64}],
            counts=[3, 1],
        )
        runs = []
        for _ in range(2):
            sampler = DomainSampler("dgemm", seed=0)
            rng = np.random.default_rng(42)
            shapes, *_ = plan_regather_shapes(sampler, histogram, 10, 0.5, 0.1, rng)
            runs.append(shapes)
        assert runs[0] == runs[1]

    def test_oversized_jittered_shape_replaced_by_fresh_sample(self):
        # A shape at the memory cap jittered upward no longer fits; the
        # budget must still be spent (replacement counts as fresh).
        sampler = DomainSampler("dgemm", seed=0)
        edge = sampler.max_dim
        histogram = make_histogram([{"m": edge, "k": edge, "n": edge}])
        rng = np.random.default_rng(5)
        shapes, n_traffic, n_fresh = plan_regather_shapes(
            sampler, histogram, 6, 1.0, 0.1, rng
        )
        assert len(shapes) == 6
        assert n_traffic + n_fresh == 6
        assert n_fresh >= 1


class TestRetrainDriftingRoutines:
    def test_empty_routines_is_noop(self, measurement_simulator, quick_config):
        assert (
            retrain_drifting_routines(measurement_simulator, [], {}, quick_config)
            == {}
        )

    def test_retrains_with_traffic_seeds(
        self,
        bundle_dir,
        drifted_observer,
        measurement_simulator,
        quick_config,
        make_engine,
        drive_traffic,
    ):
        _, handle, engine = make_engine(bundle_dir)
        drive_traffic(engine, drifted_observer)
        histograms = {
            routine: engine.telemetry.routines[routine].shapes
            for routine in ("dgemm", "dsyrk")
        }
        results = retrain_drifting_routines(
            measurement_simulator,
            ["dgemm", "dsyrk"],
            histograms,
            quick_config,
            sampler_settings=sampler_settings_from_bundle(handle.settings),
        )
        assert set(results) == {"dgemm", "dsyrk"}
        for routine, result in results.items():
            assert result.routine == routine
            assert result.installation.routine == routine
            assert result.n_traffic_shapes + result.n_fresh_shapes == 10
            assert result.n_traffic_shapes >= 1  # histogram was populated
            assert len(result.test_shapes) == 6
            assert len(result.dataset) >= 10  # at least one row per shape
            assert result.model_name in ("LinearRegression", "DecisionTree")

    def test_ranked_installations_follow_the_selection(
        self, measurement_simulator, laptop
    ):
        config = AdaptationConfig(
            seed=11,
            regather_shapes=10,
            regather_threads_per_shape=4,
            regather_test_shapes=6,
            candidate_models=("LinearRegression", "DecisionTree", "KNN"),
        )
        result = retrain_drifting_routines(measurement_simulator, ["dgemm"], {}, config)["dgemm"]
        ranked = list(result.ranked_installations())
        selection = result.installation.selection
        assert ranked[0] is result.installation
        speedup = {e.model_name: e.estimated_mean_speedup for e in selection.evaluations}
        names = [installation.best_model_name for installation in ranked]
        assert sorted(names) == sorted(speedup)
        assert [speedup[name] for name in names] == sorted(speedup.values(), reverse=True)
        for installation in ranked[1:]:
            name = installation.best_model_name
            predictor = installation.predictor
            assert predictor.model is selection._fitted_models[name]
            assert predictor.model_name == name
            assert predictor.target == "relative"
            assert predictor.level is result.installation.predictor.level
            assert predictor.pipeline is result.installation.predictor.pipeline
            assert installation.selection.evaluations == selection.evaluations
            assert installation.dataset is result.dataset

    def test_preprocessing_policy_follows_the_bundle(
        self, measurement_simulator, quick_config
    ):
        """A bundle installed without Yeo-Johnson must be retrained without it."""
        for use_yeo_johnson in (True, False):
            results = retrain_drifting_routines(
                measurement_simulator,
                ["dgemm"],
                {},
                quick_config,
                use_yeo_johnson=use_yeo_johnson,
            )
            pipeline = results["dgemm"].installation.predictor.pipeline
            assert pipeline.use_yeo_johnson is use_yeo_johnson

    def test_bit_identical_across_runs_and_backends(
        self,
        bundle_dir,
        laptop,
        quick_config,
        calibration,
        make_engine,
        drive_traffic,
    ):
        """Same seed -> bit-identical retrained datasets and models."""
        import pickle

        from repro.adaptive.drift import DriftInjector

        snapshots = []
        for _ in range(2):
            _, handle, engine = make_engine(bundle_dir)
            observer = DriftInjector(laptop, calibration).simulator(seed=1)
            drive_traffic(engine, observer)
            results = retrain_drifting_routines(
                DriftInjector(laptop, calibration).simulator(seed=2),
                ["dgemm"],
                {"dgemm": engine.telemetry.routines["dgemm"].shapes},
                quick_config,
                sampler_settings=sampler_settings_from_bundle(handle.settings),
            )
            result = results["dgemm"]
            snapshots.append(
                (
                    result.dataset.to_dict(),
                    pickle.dumps(result.installation.predictor.model),
                    result.model_name,
                )
            )
        assert snapshots[0] == snapshots[1]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"regather_shapes": 1},
            {"regather_threads_per_shape": 0},
            {"regather_test_shapes": 0},
            {"traffic_fraction": 1.5},
            {"traffic_jitter": 1.0},
            {"eval_time_mode": "wrong"},
            {"min_error_improvement": 1.0},
            {"max_latency_regression": -0.1},
            {"shadow_min_records": 0},
            {"max_routines_per_step": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AdaptationConfig(**kwargs)

    def test_candidate_models_normalised_to_tuple(self):
        config = AdaptationConfig(candidate_models=["Ridge"])
        assert config.candidate_models == ("Ridge",)
