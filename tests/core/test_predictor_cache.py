"""Tests for the multi-entry LRU prediction cache of ThreadPredictor."""

import numpy as np
import pytest

from repro.core.install import install_adsala
from repro.core.predictor import ThreadPredictor


DIMS_A = {"m": 256, "k": 256, "n": 256}
DIMS_B = {"m": 512, "k": 128, "n": 640}
DIMS_C = {"m": 1024, "k": 64, "n": 96}


@pytest.fixture(scope="module")
def base_predictor(laptop):
    bundle = install_adsala(
        platform=laptop,
        routines=["dgemm"],
        n_samples=14,
        threads_per_shape=5,
        n_test_shapes=5,
        candidate_models=["LinearRegression"],
        seed=0,
    )
    return bundle.predictor("dgemm")


def _clone(base: ThreadPredictor, capacity: int) -> ThreadPredictor:
    return ThreadPredictor(
        routine=base.routine,
        pipeline=base.pipeline,
        model=base.model,
        candidate_threads=base.candidate_threads,
        model_name=base.model_name,
        cache_capacity=capacity,
    )


class TestLruCache:
    def test_capacity_must_be_positive(self, base_predictor):
        with pytest.raises(ValueError, match="cache_capacity"):
            _clone(base_predictor, 0)

    def test_multi_entry_hits(self, base_predictor):
        predictor = _clone(base_predictor, 4)
        plans = {key: predictor.plan(dims) for key, dims in
                 (("a", DIMS_A), ("b", DIMS_B), ("c", DIMS_C))}
        assert all(not plan.from_cache for plan in plans.values())
        # All three shapes fit in the cache; every revisit hits.
        for key, dims in (("a", DIMS_A), ("b", DIMS_B), ("c", DIMS_C)):
            hit = predictor.plan(dims)
            assert hit.from_cache
            assert hit.threads == plans[key].threads
        assert predictor.cache_info() == {
            "hits": 3, "misses": 3, "size": 3, "capacity": 4,
        }

    def test_hit_returns_an_equal_plan_and_evaluates_nothing(self, base_predictor):
        # The LRU keeps the (threads, score) pair; a hit builds its plan from
        # it, equal to the miss's but for the flag, with no model evaluation.
        predictor = _clone(base_predictor, 4)
        miss = predictor.plan(DIMS_A)
        evaluations = predictor.n_model_evaluations
        first_hit = predictor.plan(DIMS_A)
        second_hit = predictor.plan(dict(reversed(DIMS_A.items())))
        assert predictor.n_model_evaluations == evaluations
        assert first_hit == second_hit
        assert first_hit.from_cache and not miss.from_cache
        assert (first_hit.threads, first_hit.predicted_time, first_hit.dims) == (
            miss.threads, miss.predicted_time, miss.dims
        )
        assert first_hit.dims is not DIMS_A  # the caller's dict is copied

    def test_lru_eviction_order(self, base_predictor):
        predictor = _clone(base_predictor, 2)
        predictor.plan(DIMS_A)
        predictor.plan(DIMS_B)
        predictor.plan(DIMS_A)      # A becomes most recent
        predictor.plan(DIMS_C)      # evicts B (least recent)
        assert predictor.plan(DIMS_A).from_cache
        assert predictor.plan(DIMS_C).from_cache
        assert not predictor.plan(DIMS_B).from_cache   # was evicted

    def test_capacity_one_behaves_like_last_call_cache(self, base_predictor):
        predictor = _clone(base_predictor, 1)
        assert not predictor.plan(DIMS_A).from_cache
        assert predictor.plan(DIMS_A).from_cache
        assert not predictor.plan(DIMS_B).from_cache
        assert not predictor.plan(DIMS_A).from_cache   # evicted by B

    def test_use_cache_false_bypasses_lookup_but_stores(self, base_predictor):
        predictor = _clone(base_predictor, 4)
        plan = predictor.plan(DIMS_A, use_cache=False)
        assert not plan.from_cache
        assert predictor.plan(DIMS_A).from_cache
        again = predictor.plan(DIMS_A, use_cache=False)
        assert not again.from_cache

    def test_clear_cache(self, base_predictor):
        predictor = _clone(base_predictor, 4)
        predictor.plan(DIMS_A)
        predictor.clear_cache()
        assert predictor.cache_info()["size"] == 0
        assert not predictor.plan(DIMS_A).from_cache

    def test_cached_decision_matches_uncached(self, base_predictor):
        predictor = _clone(base_predictor, 4)
        uncached = predictor.plan(DIMS_A, use_cache=False)
        cached = predictor.plan(DIMS_A)
        assert cached.threads == uncached.threads
        assert cached.predicted_time == uncached.predicted_time


class TestBatchPrediction:
    def test_batch_matches_per_shape_predictions(self, base_predictor):
        shapes = [DIMS_A, DIMS_B, DIMS_C]
        batch_runtimes = base_predictor.predict_runtimes_batch(shapes)
        batch_threads = base_predictor.predict_threads_batch(shapes)
        for i, dims in enumerate(shapes):
            np.testing.assert_allclose(
                batch_runtimes[i], base_predictor.predict_runtimes(dims),
                rtol=1e-12,
            )
            assert batch_threads[i] == base_predictor.predict_threads(
                dims, use_cache=False
            )

    def test_batch_counts_one_model_evaluation(self, base_predictor):
        predictor = _clone(base_predictor, 4)
        before = predictor.n_model_evaluations
        predictor.predict_threads_batch([DIMS_A, DIMS_B, DIMS_C])
        assert predictor.n_model_evaluations == before + 1
