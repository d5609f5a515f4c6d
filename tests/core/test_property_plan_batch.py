"""``plan_batch(dims, keys=...)`` against a sequential ``plan()`` loop.

``ThreadPredictor.plan_batch`` probes before it replays: a group whose keys
are all cached is answered from the LRU, and any other group walks the
sequential timeline once on the LRU itself, a miss taking its slot as a
placeholder that the group's one evaluation fills.  Whichever way a group
goes, the observable result must be what a ``plan()`` loop over the same
shapes produces — plans, ``from_cache`` flags, hit/miss/evaluation counters,
LRU key order, after every group — and no placeholder may outlive the call.

A group holding a shape the evaluation rejects produces nothing: the
exception a ``plan()`` of that shape raises, no counter moved, no placeholder
left, and the group's valid shapes plan afterwards exactly as a sequential
replay from the same LRU plans them.

The predictor is a decision tree, whose batched and single evaluations are
bit-identical (a linear model's differ by an ULP, see ROADMAP's carry-overs).
"""

import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.install import install_adsala
from repro.core.predictor import ThreadPredictor
from repro.machine.platforms import get_platform

#: Seven shapes, named by index in the generated streams.
POOL = [{"m": 64 * (i + 1), "k": 96, "n": 32 * (i + 2)} for i in range(7)]
#: What ``load_dims`` rejects; index ``REJECTED`` in a generated group.
REJECTED = -1
BAD = {"m": 0, "k": 96, "n": 32}


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


def _counters(predictor):
    return predictor.n_cache_hits, predictor.n_cache_misses, predictor.n_model_evaluations


def _assert_no_placeholder(predictor):
    """Every LRU value is a ``(threads, score)`` pair: no placeholder, no plan."""
    assert all(
        type(value) is tuple
        and len(value) == 2
        and type(value[0]) is int
        and type(value[1]) is float
        for value in predictor._cache.values()
    )


def _rejected_group(sequential, batched, dims_list, use_cache):
    """A group with a rejected shape in it: nothing produced, nothing counted."""
    with pytest.raises(ValueError) as oracle:
        sequential.plan(BAD, use_cache=use_cache)
    before, keys_before = _counters(batched), list(batched._cache)
    with pytest.raises(ValueError) as raised:
        batched.plan_batch(
            dims_list, use_cache=use_cache, keys=[ThreadPredictor.cache_key(d) for d in dims_list]
        )
    assert str(raised.value) == str(oracle.value)
    assert _counters(batched) == before
    assert sequential.cache_info() == {**batched.cache_info(), "size": len(sequential._cache)}
    _assert_no_placeholder(batched)
    # Entries were touched or evicted on the way, never added.
    assert set(batched._cache) <= set(keys_before)
    # The oracle cannot fail a group; it resumes from the LRU the failure left.
    sequential._cache.clear()
    sequential._cache.update(batched._cache)


def _replay(groups, capacity, use_cache):
    """Run ``groups`` both ways; return what each group looked like sequentially."""
    sequential, batched = _clone(capacity), _clone(capacity)
    kinds = []
    for group in groups:
        if REJECTED in group:
            _rejected_group(
                sequential, batched, [BAD if i == REJECTED else POOL[i] for i in group], use_cache
            )
            kinds.append("rejected")
            group = [i for i in group if i != REJECTED]
            if not group:
                continue
        dims_list = [POOL[i] for i in group]
        expected = [sequential.plan(dims, use_cache=use_cache) for dims in dims_list]
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
            assert all(
                batched._cache[ThreadPredictor.cache_key(a.dims)][0] == a.threads for a in actual
            )
        else:  # one evaluation however many misses, where the loop made one each
            assert batched.n_model_evaluations == before + 1
        # After every group: LRU order, probe counters, and nothing half-made.
        assert list(batched._cache) == list(sequential._cache)
        assert batched.cache_info() == sequential.cache_info()
        _assert_no_placeholder(batched)
    return kinds


shape = st.integers(0, len(POOL) - 1)
groups_strategy = st.lists(
    st.one_of(
        st.lists(shape, min_size=1, max_size=9),  # up to twice the largest capacity
        # one rejected shape at a generated position of a generated group
        st.tuples(st.lists(shape, max_size=6), st.integers(0, 6)).map(
            lambda drawn: drawn[0][: drawn[1]] + [REJECTED] + drawn[0][drawn[1] :]
        ),
    ),
    min_size=1,
    max_size=6,
)


@given(groups=groups_strategy, capacity=st.integers(1, 4), use_cache=st.booleans())
@example(groups=[[0, 1], [1, 0, 0], [0]], capacity=2, use_cache=True)  # all-hit groups
@example(groups=[[0, 1, 2], [3, 4]], capacity=4, use_cache=True)  # all-miss groups
@example(groups=[[0, 1], [1, 2, 0]], capacity=4, use_cache=True)  # a mixed group
@example(groups=[[0, 1, 2, 0]], capacity=2, use_cache=True)  # twin evicted in between
@example(groups=[[0, 1], [0, 1]], capacity=1, use_cache=True)  # last-call cache
@example(groups=[[0, 0, 1, 0, 1, 1]], capacity=1, use_cache=True)  # ... inside one group
@example(groups=[[0, 1, 2, 3, 4, 5, 6, 0, 6]], capacity=3, use_cache=True)  # group > capacity
@example(groups=[[0, 0], [0]], capacity=3, use_cache=False)
@example(groups=[[0, 1, 0, 2, 1, 0]], capacity=2, use_cache=False)  # duplicates, never probed
@example(groups=[[0, 1], [1, REJECTED, 2, 0], [0, 2]], capacity=2, use_cache=True)  # all evicted
@example(groups=[[0, 1], [1, REJECTED, 2], [0, 2]], capacity=4, use_cache=True)  # hits survive
@example(groups=[[REJECTED], [0, REJECTED]], capacity=1, use_cache=False)
@settings(max_examples=150, deadline=None)
def test_plan_batch_with_keys_matches_sequential_plan(groups, capacity, use_cache):
    _replay(groups, capacity, use_cache)


def test_every_kind_of_group_is_covered():
    """The pinned examples above are what they say they are."""
    assert _replay([[0, 1], [1, 0, 0], [0]], 2, True) == ["miss", "hit", "hit"]
    assert _replay([[0, 1, 2], [3, 4]], 4, True) == ["miss", "miss"]
    assert _replay([[0, 1], [1, 2, 0]], 4, True) == ["miss", "mixed"]
    # 0 is evicted by 2 before its twin arrives: four misses, no hit.
    assert _replay([[0, 1, 2, 0]], 2, True) == ["miss"]
    assert _replay([[0, 0, 1, 0, 1, 1]], 1, True) == ["mixed"]
    assert _replay([[0, 1, 2, 3, 4, 5, 6, 0, 6]], 3, True) == ["mixed"]
    assert _replay([[0, 0], [0]], 3, False) == ["miss", "miss"]
    # The failed group's placeholders push 0 and 1 out before they are given back.
    assert _replay([[0, 1], [1, REJECTED, 2, 0], [0, 2]], 2, True) == [
        "miss", "rejected", "miss", "hit",
    ]  # fmt: skip
    assert _replay([[0, 1], [1, REJECTED, 2], [0, 2]], 4, True) == [
        "miss", "rejected", "mixed", "hit",
    ]  # fmt: skip


def test_a_rejected_shape_leaves_counters_and_cache_whole():
    """The rule, on one pinned timeline (capacity 3, LRU oldest first)."""
    predictor = _clone(3)
    key = ThreadPredictor.cache_key
    predictor.plan_batch([POOL[0], POOL[1], POOL[2]])
    assert _counters(predictor) == (0, 3, 1)
    # 1 is touched; 3 takes a slot (0 out); BAD takes one (2 out); 0 takes one
    # (1 out) — then the evaluation raises and the three slots are given back.
    with pytest.raises(ValueError, match="Dimension m must be positive, got 0"):
        predictor.plan_batch([POOL[1], POOL[3], BAD, POOL[0]])
    assert list(predictor._cache) == [] and _counters(predictor) == (0, 3, 1)
    # A hit that survives the failure is still a hit, and counted only now.
    predictor.plan_batch([POOL[4], POOL[5]])
    with pytest.raises(ValueError):
        predictor.plan_batch([POOL[5], BAD])
    assert list(predictor._cache) == [key(POOL[4]), key(POOL[5])]
    _assert_no_placeholder(predictor)
    fresh = _clone(3)
    valid = [POOL[5], POOL[1]]
    assert [(p.threads, p.predicted_time) for p in predictor.plan_batch(valid)] == [
        (p.threads, p.predicted_time) for p in (fresh.plan(dims) for dims in valid)
    ]
    assert predictor.cache_info() == {"hits": 1, "misses": 6, "size": 3, "capacity": 3}


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
