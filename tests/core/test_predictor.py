"""Tests for the runtime thread-count predictor and its last-call cache."""

import copy
import math
import pickle

import numpy as np
import pytest

from repro.core.compiled import middle_of_ties
from repro.core.features import feature_matrix_grid, feature_names
from repro.core.gather import DataGatherer
from repro.core.predictor import LevelHead, ThreadPredictor
from repro.ml.tree import DecisionTreeRegressor
from repro.preprocessing.pipeline import PreprocessingPipeline


@pytest.fixture(scope="module")
def trained_predictor(laptop):
    """A predictor trained on a small simulated dgemm campaign."""
    from repro.machine.simulator import TimingSimulator

    simulator = TimingSimulator(laptop, seed=0)
    dataset = DataGatherer(simulator, "dgemm", n_shapes=20, threads_per_shape=6, seed=0).gather()
    pipeline = PreprocessingPipeline(feature_names=dataset.feature_names, remove_outliers=False)
    X, y = pipeline.fit_transform(dataset.feature_matrix(), dataset.target())
    model = DecisionTreeRegressor(max_depth=10).fit(X, y)
    return ThreadPredictor(
        routine="dgemm",
        pipeline=pipeline,
        model=model,
        candidate_threads=laptop.candidate_thread_counts(),
        model_name="DecisionTree",
    )


@pytest.fixture(scope="module")
def log_predictor(laptop):
    """The same campaign fitted to log-runtime, as every install fits."""
    from repro.machine.simulator import TimingSimulator

    simulator = TimingSimulator(laptop, seed=0)
    dataset = DataGatherer(simulator, "dgemm", n_shapes=20, threads_per_shape=6, seed=0).gather()
    pipeline = PreprocessingPipeline(feature_names=dataset.feature_names, remove_outliers=False)
    X, y = pipeline.fit_transform(dataset.feature_matrix(), dataset.target())
    model = DecisionTreeRegressor(max_depth=10).fit(X, np.log(y))
    return ThreadPredictor(
        routine="dgemm",
        pipeline=pipeline,
        model=model,
        candidate_threads=laptop.candidate_thread_counts(),
        model_name="DecisionTree",
        target="log",
    )


DIMS = {"m": 200, "k": 300, "n": 150}
SHAPES = [DIMS, {"m": 64, "k": 64, "n": 64}, {"m": 2048, "k": 64, "n": 2048}]


def _raw_output(predictor, dims_list):
    """The model's output over the (shapes x threads) grid, by the object graph."""
    grid = feature_matrix_grid(
        predictor.routine, dims_list, np.asarray(predictor.candidate_threads)
    )
    return predictor.model.predict(predictor.pipeline.transform(grid)).reshape(
        len(dims_list), -1
    )


class TestPrediction:
    def test_predict_runtimes_one_per_candidate(self, trained_predictor, laptop):
        runtimes = trained_predictor.predict_runtimes(DIMS)
        assert runtimes.shape == (laptop.max_threads,)
        assert np.all(np.isfinite(runtimes))

    def test_plan_selects_the_middle_of_the_tied_minimum(self, trained_predictor):
        runtimes = trained_predictor.predict_runtimes(DIMS)
        plan = trained_predictor.plan(DIMS, use_cache=False)
        tied = np.flatnonzero(runtimes == runtimes.min())
        assert plan.threads == trained_predictor.candidate_threads[tied[(tied.size - 1) // 2]]
        assert plan.predicted_time == runtimes.min()

    def test_plan_threads_within_candidates(self, trained_predictor, laptop):
        plan = trained_predictor.plan(DIMS, use_cache=False)
        assert 1 <= plan.threads <= laptop.max_threads

    def test_predict_threads_shortcut(self, trained_predictor):
        assert trained_predictor.predict_threads(DIMS) == trained_predictor.plan(DIMS).threads


class TestLogTarget:
    """A ``target="log"`` predictor plans on the raw output and reports seconds."""

    def test_threads_are_the_middle_of_ties_of_the_raw_output(self, log_predictor):
        raw = _raw_output(log_predictor, SHAPES)
        expected = [log_predictor.candidate_threads[i] for i in middle_of_ties(raw)]
        # The tree is flat over runs of thread counts: the pick is not argmin's.
        assert expected != [log_predictor.candidate_threads[i] for i in raw.argmin(axis=1)]
        assert [log_predictor.plan(d, use_cache=False).threads for d in SHAPES] == expected
        assert list(log_predictor.predict_threads_batch(SHAPES)) == expected
        log_predictor.clear_cache()
        assert [p.threads for p in log_predictor.plan_batch(SHAPES)] == expected

    def test_scores_are_the_raw_output(self, log_predictor):
        np.testing.assert_array_equal(
            log_predictor.predict_scores_batch(SHAPES), _raw_output(log_predictor, SHAPES)
        )

    def test_runtimes_are_exp_of_the_raw_output(self, log_predictor):
        raw = _raw_output(log_predictor, SHAPES)
        np.testing.assert_array_equal(log_predictor.predict_runtimes_batch(SHAPES), np.exp(raw))
        np.testing.assert_array_equal(log_predictor.predict_runtimes(DIMS), np.exp(raw[0]))

    def test_predicted_time_is_in_seconds(self, log_predictor):
        raw = _raw_output(log_predictor, SHAPES)
        log_predictor.clear_cache()
        batch = log_predictor.plan_batch(SHAPES)
        for dims, row, planned in zip(SHAPES, raw, batch):
            plan = log_predictor.plan(dims, use_cache=False)
            assert plan.predicted_time == math.exp(row.min())
            assert planned.predicted_time == plan.predicted_time
            # Seconds: a runtime of a dgemm on the laptop, not a log of one.
            assert 1e-7 < plan.predicted_time < 10.0

    def test_seconds_predictor_reads_its_output_unconverted(self, trained_predictor):
        raw = _raw_output(trained_predictor, SHAPES)
        assert trained_predictor.target == "seconds"
        np.testing.assert_array_equal(trained_predictor.predict_runtimes_batch(SHAPES), raw)
        plan = trained_predictor.plan(DIMS, use_cache=False)
        assert plan.predicted_time == raw[0].min()

    def test_target_survives_a_pickle(self, log_predictor):
        assert pickle.loads(pickle.dumps(log_predictor)).target == "log"

    def test_unknown_target_rejected(self, trained_predictor):
        with pytest.raises(ValueError, match="target"):
            ThreadPredictor(
                routine="dgemm",
                pipeline=trained_predictor.pipeline,
                model=trained_predictor.model,
                candidate_threads=[1, 2],
                target="log10",
            )


@pytest.fixture(scope="module")
def relative_predictor(log_predictor):
    """The log predictor's model read as a speedup curve over a level head
    (the curve target's form; the plans are the same)."""
    level = LevelHead(("k", "m", "n"), (-20.0, 0.9, 1.1, 1.0))  # seconds at max threads
    return ThreadPredictor(
        "dgemm", log_predictor.pipeline, log_predictor.model, log_predictor.candidate_threads,
        target="relative", level=level,
    )  # fmt: skip


class TestRelativeTarget:
    """A ``target="relative"`` predictor plans on the raw output and reports
    ``exp(output)`` times the shape's level, in seconds."""

    def test_level_head_is_a_power_law_in_the_dims(self):
        level = LevelHead(("k", "m"), (0.5, 2.0, -1.0))
        assert level({"m": 8, "k": 4, "n": 1}) == math.exp(0.5) * 4**2.0 * 8**-1.0
        assert LevelHead.from_dict(level.to_dict()) == level
        with pytest.raises(ValueError, match="coefficient"):
            LevelHead(("k", "m"), (0.5, 2.0))

    def test_level_head_fit_recovers_a_power_law(self):
        rng = np.random.default_rng(0)
        dims_list = [dict(zip("mkn", map(int, row))) for row in rng.integers(16, 4096, (30, 3))]
        log_times = [-21.0 + math.log(d["m"] * d["k"] * d["n"]) for d in dims_list]
        level = LevelHead.fit(dims_list, log_times)
        assert level.names == ("k", "m", "n")
        np.testing.assert_allclose(level.coef, (-21.0, 1.0, 1.0, 1.0), atol=1e-9)

    def test_plans_are_the_log_predictors(self, relative_predictor, log_predictor):
        assert [p.threads for p in relative_predictor.plan_batch(SHAPES, use_cache=False)] == [
            p.threads for p in log_predictor.plan_batch(SHAPES, use_cache=False)
        ]

    def test_predicted_time_is_exp_of_level_plus_output(self, relative_predictor):
        raw = _raw_output(relative_predictor, SHAPES)
        levels = np.array([relative_predictor.level(dims) for dims in SHAPES])
        np.testing.assert_array_equal(
            relative_predictor.predict_runtimes_batch(SHAPES), np.exp(raw) * levels[:, None]
        )
        relative_predictor.clear_cache()
        batch = relative_predictor.plan_batch(SHAPES)
        for dims, level, row, planned in zip(SHAPES, levels, raw, batch):
            plan = relative_predictor.plan(dims, use_cache=False)
            assert plan.predicted_time == math.exp(row.min()) * level == planned.predicted_time

    def test_level_survives_a_pickle(self, relative_predictor):
        restored = pickle.loads(pickle.dumps(relative_predictor))
        assert (restored.target, restored.level) == ("relative", relative_predictor.level)

    def test_level_goes_with_the_relative_target_only(self, log_predictor, relative_predictor):
        args = ("dgemm", log_predictor.pipeline, log_predictor.model, [1, 2])
        with pytest.raises(ValueError, match="level"):
            ThreadPredictor(*args, target="relative")
        with pytest.raises(ValueError, match="level"):
            ThreadPredictor(*args, target="log", level=relative_predictor.level)


class TestCache:
    def test_repeated_identical_call_hits_cache(self, trained_predictor):
        trained_predictor.clear_cache()
        evaluations_before = trained_predictor.n_model_evaluations
        first = trained_predictor.plan(DIMS)
        second = trained_predictor.plan(DIMS)
        assert not first.from_cache
        assert second.from_cache
        assert second.threads == first.threads
        assert trained_predictor.n_model_evaluations == evaluations_before + 1
        assert trained_predictor.n_cache_hits >= 1

    def test_different_dims_miss_cache(self, trained_predictor):
        trained_predictor.clear_cache()
        trained_predictor.plan(DIMS)
        other = trained_predictor.plan({"m": 512, "k": 64, "n": 64})
        assert not other.from_cache

    def test_cache_can_be_bypassed(self, trained_predictor):
        trained_predictor.clear_cache()
        trained_predictor.plan(DIMS)
        plan = trained_predictor.plan(DIMS, use_cache=False)
        assert not plan.from_cache

    def test_clear_cache(self, trained_predictor):
        trained_predictor.plan(DIMS)
        trained_predictor.clear_cache()
        assert not trained_predictor.plan(DIMS).from_cache


class TestCopies:
    """The compiled kernel is working state: copies drop it and recompile."""

    @pytest.mark.parametrize(
        "clone",
        [lambda predictor: pickle.loads(pickle.dumps(predictor)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_warmed_predictor_round_trips(self, trained_predictor, clone):
        trained_predictor.clear_cache()
        trained_predictor.plan(DIMS)
        assert trained_predictor._compiled is not None
        twin = clone(trained_predictor)
        assert twin._compiled is None
        # LRU contents and counters travel.
        assert twin.cache_info() == trained_predictor.cache_info()
        assert twin.n_model_evaluations == trained_predictor.n_model_evaluations
        assert twin.plan(DIMS) == trained_predictor.plan(DIMS)
        assert twin.plan(DIMS).from_cache
        # A miss recompiles — its own kernel, its own buffers — same bits.
        other = {"m": 77, "k": 513, "n": 1290}
        assert np.array_equal(
            twin.predict_runtimes(other), trained_predictor.predict_runtimes(other)
        )
        assert twin._compiled is not None
        assert twin._compiled is not trained_predictor._compiled


class TestEvalTime:
    def test_measured_eval_time_positive(self, trained_predictor):
        t = trained_predictor.measure_eval_time(DIMS, repeats=2)
        assert 0 < t < 1.0

    def test_default_dims_used_when_missing(self, trained_predictor):
        assert trained_predictor.measure_eval_time(repeats=1) > 0

    def test_invalid_repeats(self, trained_predictor):
        with pytest.raises(ValueError):
            trained_predictor.measure_eval_time(DIMS, repeats=0)


class TestValidation:
    def test_empty_candidates_rejected(self, trained_predictor):
        with pytest.raises(ValueError, match="candidate_threads"):
            ThreadPredictor(
                routine="dgemm",
                pipeline=trained_predictor.pipeline,
                model=trained_predictor.model,
                candidate_threads=[],
            )

    def test_nonpositive_candidates_rejected(self, trained_predictor):
        with pytest.raises(ValueError, match="positive"):
            ThreadPredictor(
                routine="dgemm",
                pipeline=trained_predictor.pipeline,
                model=trained_predictor.model,
                candidate_threads=[0, 1],
            )

    def test_candidates_deduplicated_and_sorted(self, trained_predictor):
        predictor = ThreadPredictor(
            routine="dgemm",
            pipeline=trained_predictor.pipeline,
            model=trained_predictor.model,
            candidate_threads=[4, 2, 4, 1],
        )
        assert predictor.candidate_threads == [1, 2, 4]

    def test_feature_names_match_routine(self, trained_predictor):
        assert trained_predictor.feature_names == feature_names("dgemm")
