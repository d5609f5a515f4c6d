"""``plan_batch(dims, keys=...)`` against a sequential ``plan()`` loop.

``ThreadPredictor.plan_batch`` probes before it simulates: a group whose keys
are all cached is answered from the LRU without replaying the eviction
timeline.  Whichever way a group goes, the observable result must be what a
``plan()`` loop over the same shapes produces — plans, ``from_cache`` flags,
hit/miss counters, final LRU key order — and the model is evaluated once per
group that holds a miss, never for a group of hits.

The predictor is a decision tree, whose batched and single evaluations are
bit-identical (a linear model's differ by an ULP, see ROADMAP's carry-overs).
"""

import functools

from hypothesis import example, given, settings, strategies as st

from repro.core.install import install_adsala
from repro.core.predictor import ThreadPredictor
from repro.machine.platforms import get_platform

#: Five shapes, named by index in the generated streams.
POOL = [{"m": 64 * (i + 1), "k": 96, "n": 32 * (i + 2)} for i in range(5)]


@functools.cache
def _base() -> ThreadPredictor:
    bundle = install_adsala(
        platform=get_platform("laptop"),
        routines=["dgemm"],
        n_samples=12,
        threads_per_shape=4,
        n_test_shapes=4,
        candidate_models=["DecisionTree"],
        seed=3,
    )
    return bundle.predictor("dgemm")


def _clone(capacity: int) -> ThreadPredictor:
    base = _base()
    return ThreadPredictor(
        routine=base.routine,
        pipeline=base.pipeline,
        model=base.model,
        candidate_threads=base.candidate_threads,
        model_name=base.model_name,
        cache_capacity=capacity,
    )


def _replay(groups, capacity, use_cache):
    """Run ``groups`` both ways; return what each group looked like sequentially."""
    sequential, batched = _clone(capacity), _clone(capacity)
    kinds = []
    evaluating_groups = 0
    for group in groups:
        dims_list = [POOL[i] for i in group]
        evaluations = sequential.n_model_evaluations
        expected = [sequential.plan(dims, use_cache=use_cache) for dims in dims_list]
        evaluating_groups += sequential.n_model_evaluations > evaluations
        before = batched.n_model_evaluations
        actual = batched.plan_batch(
            dims_list,
            use_cache=use_cache,
            keys=[ThreadPredictor.cache_key(dims) for dims in dims_list],
        )
        assert actual == expected  # routine, dims, threads, predicted_time, from_cache
        flags = {plan.from_cache for plan in expected}
        kinds.append("hit" if flags == {True} else "miss" if flags == {False} else "mixed")
        if kinds[-1] == "hit":
            assert batched.n_model_evaluations == before
            assert all(a is batched._cache[ThreadPredictor.cache_key(a.dims)] for a in actual)
        assert list(batched._cache) == list(sequential._cache)  # after every group
    assert batched.cache_info() == sequential.cache_info()
    assert batched.n_model_evaluations == evaluating_groups
    return kinds


groups_strategy = st.lists(
    st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=6), min_size=1, max_size=6
)


@given(groups=groups_strategy, capacity=st.integers(1, 4), use_cache=st.booleans())
@example(groups=[[0, 1], [1, 0, 0], [0]], capacity=2, use_cache=True)  # all-hit groups
@example(groups=[[0, 1, 2], [3, 4]], capacity=4, use_cache=True)  # all-miss groups
@example(groups=[[0, 1], [1, 2, 0]], capacity=4, use_cache=True)  # a mixed group
@example(groups=[[0, 1, 2, 0]], capacity=2, use_cache=True)  # twin evicted in between
@example(groups=[[0, 1], [0, 1]], capacity=1, use_cache=True)  # last-call cache
@example(groups=[[0, 0], [0]], capacity=3, use_cache=False)
@settings(max_examples=120, deadline=None)
def test_plan_batch_with_keys_matches_sequential_plan(groups, capacity, use_cache):
    _replay(groups, capacity, use_cache)


def test_every_kind_of_group_is_covered():
    """The pinned examples above are what they say they are."""
    assert _replay([[0, 1], [1, 0, 0], [0]], 2, True) == ["miss", "hit", "hit"]
    assert _replay([[0, 1, 2], [3, 4]], 4, True) == ["miss", "miss"]
    assert _replay([[0, 1], [1, 2, 0]], 4, True) == ["miss", "mixed"]
    # 0 is evicted by 2 before its twin arrives: four misses, no hit.
    assert _replay([[0, 1, 2, 0]], 2, True) == ["miss"]
    assert _replay([[0, 0], [0]], 3, False) == ["miss", "miss"]


def test_keys_are_optional_and_an_all_hit_group_derives_none(monkeypatch):
    predictor = _clone(4)
    dims_list = [POOL[0], POOL[1], POOL[0]]
    cold = predictor.plan_batch(dims_list)  # no keys: derived, as before
    assert [plan.from_cache for plan in cold] == [False, False, True]
    keys = [ThreadPredictor.cache_key(dims) for dims in dims_list]
    calls = []
    monkeypatch.setattr(
        ThreadPredictor, "cache_key", staticmethod(lambda dims: calls.append(dims))
    )
    assert list(predictor._cache) == [keys[1], keys[0]]
    warm = predictor.plan_batch(dims_list[:2], keys=keys[:2])
    assert calls == [] and all(plan.from_cache for plan in warm)
    assert list(predictor._cache) == [keys[0], keys[1]]  # touched in request order
    assert predictor.cache_info() == {"hits": 3, "misses": 2, "size": 2, "capacity": 4}
