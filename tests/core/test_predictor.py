"""Tests for the runtime thread-count predictor and its last-call cache."""

import copy
import pickle

import numpy as np
import pytest

from repro.core.features import feature_names
from repro.core.gather import DataGatherer
from repro.core.predictor import ThreadPredictor
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


DIMS = {"m": 200, "k": 300, "n": 150}


class TestPrediction:
    def test_predict_runtimes_one_per_candidate(self, trained_predictor, laptop):
        runtimes = trained_predictor.predict_runtimes(DIMS)
        assert runtimes.shape == (laptop.max_threads,)
        assert np.all(np.isfinite(runtimes))

    def test_plan_selects_argmin(self, trained_predictor):
        runtimes = trained_predictor.predict_runtimes(DIMS)
        plan = trained_predictor.plan(DIMS, use_cache=False)
        assert plan.threads == trained_predictor.candidate_threads[int(np.argmin(runtimes))]
        assert plan.predicted_time == pytest.approx(runtimes.min())

    def test_plan_threads_within_candidates(self, trained_predictor, laptop):
        plan = trained_predictor.plan(DIMS, use_cache=False)
        assert 1 <= plan.threads <= laptop.max_threads

    def test_predict_threads_shortcut(self, trained_predictor):
        assert trained_predictor.predict_threads(DIMS) == trained_predictor.plan(DIMS).threads


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
