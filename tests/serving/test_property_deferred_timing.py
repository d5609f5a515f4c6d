"""Differential tests for deferred plan timings against an eager oracle.

``ServingEngine`` plans without running the timing simulator or touching
its timing memo: a plan's ``predicted_time`` / ``baseline_time`` slots hold
its planning group (:class:`repro.core.runtime.PendingTimings`), whose first
read answers the rows its plans owe from the memo or times them, one batched
pass per group.  Whatever the stream, the micro-batch split, the memo
capacity and the order plans are read in, every plan must equal what an
eager engine reported: the scalar ``simulator.time`` /
``time_at_max_threads`` of the simulator the plan was *planned under*, with
``==`` on floats.  The memo must count and order its rows as a row-at-a-time
walk of the groups, in the order they were first read, would.

Replays deterministically with ``HYPOTHESIS_PROFILE=ci``.
"""

import copy
from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.serving.engine as engine_module
from repro.core.install import InstallationBundle
from repro.core.persistence import save_bundle
from repro.core.runtime import PendingTimings
from repro.serving import ShardedFrontend
from repro.serving.engine import ServingEngine
from repro.serving.registry import BundleHandle

_SIZES = st.sampled_from([16, 48, 64, 96, 160, 256, 512])
# Installed (dgemm, dsyrk), cross-precision fallback (sgemm) and the
# max-threads heuristic (dtrsm): every resolution tier of the chain.  Few
# sizes, so streams repeat shapes and the memo is shared across batches.
REQUESTS = st.one_of(
    st.tuples(st.sampled_from(["dgemm", "sgemm"]), st.fixed_dictionaries(
        {"m": _SIZES, "k": _SIZES, "n": _SIZES}
    )),
    st.tuples(st.just("dsyrk"), st.fixed_dictionaries({"n": _SIZES, "k": _SIZES})),
    st.tuples(st.just("dtrsm"), st.fixed_dictionaries({"m": _SIZES, "n": _SIZES})),
)
#: A stream is several ``plan_many`` calls; ``max_batch_size`` splits each.
STREAMS = st.lists(st.lists(REQUESTS, min_size=1, max_size=12), min_size=1, max_size=4)
READ_ORDERS = ("none", "first", "reversed", "interleaved")


def _fresh(bundle):
    twin = copy.deepcopy(bundle)
    for installation in twin.routines.values():
        installation.predictor.clear_cache()
    return twin


def _eager_oracle(bundle, calls, max_batch_size):
    """``(threads, predicted, baseline, policy, from_cache)`` per plan.

    Thread choices and cache flags from a twin engine fed the same calls;
    both times from the scalar simulator, one row at a time.
    """
    twin = _fresh(bundle)
    engine = ServingEngine(twin, max_batch_size=max_batch_size)
    simulator = twin.simulator
    rows = []
    for call in calls:
        for plan in engine.plan_many(call):
            rows.append((
                plan.threads,
                simulator.time(plan.routine, plan.dims, plan.threads),
                simulator.time_at_max_threads(plan.routine, plan.dims),
                plan.policy,
                plan.from_cache,
            ))
    return rows


def _fields(plan):
    return (plan.threads, plan.predicted_time, plan.baseline_time, plan.policy, plan.from_cache)


def _memo_oracle(groups, capacity, max_threads):
    """``(hits, misses, rows in LRU order)`` of a memo fed ``groups`` — each
    a group's plans, in first-read order — one owed row at a time: a plan's
    own row, then its baseline row unless that is the same.  A group's rows
    the memo lacks are timed together and stored after the walk."""
    memo, hits, misses = OrderedDict(), 0, 0
    for plans in groups:
        untimed = {}
        for plan in plans:
            shape = tuple(sorted(plan.dims.items()))
            for threads in dict.fromkeys((plan.threads, max_threads)):
                row = (plan.routine, shape, threads)
                if capacity and row in memo:
                    memo.move_to_end(row)
                    hits += 1
                else:
                    untimed[row] = None
        if capacity:
            memo.update(untimed)
            misses += len(untimed)
            while len(memo) > capacity:
                memo.popitem(last=False)
    return hits, misses, list(memo)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    calls=STREAMS,
    max_batch_size=st.sampled_from([1, 3, 64]),
    capacity=st.sampled_from([0, 3, 4096]),
    read_order=st.sampled_from(READ_ORDERS),
)
def test_deferred_plans_equal_the_eager_oracle(
    serving_bundle, calls, max_batch_size, capacity, read_order
):
    engine = ServingEngine(
        _fresh(serving_bundle), max_batch_size=max_batch_size, timing_cache_capacity=capacity
    )
    first_reads = []  # each group's plans, in the order the groups are first read

    def read(plan, field):
        group = plan.__dict__["_" + field]
        if isinstance(group, PendingTimings):
            assert any(row is plan for row in group.rows)  # ``in`` would compare, and read
            first_reads.append(list(group.rows))
        return getattr(plan, field)

    plans, previous = [], []
    for call in calls:
        answered = engine.plan_many(call)
        if read_order == "first":
            read(answered[0], "predicted_time")
        elif read_order == "interleaved":  # the call before, while this one pends
            for plan in previous:
                read(plan, "baseline_time")
        previous = answered
        plans.extend(answered)
    if read_order == "reversed":
        for plan in reversed(plans):
            read(plan, "predicted_time")
    for plan in plans:
        read(plan, "predicted_time"), read(plan, "baseline_time")
    assert [_fields(plan) for plan in plans] == _eager_oracle(serving_bundle, calls, max_batch_size)

    hits, misses, rows = _memo_oracle(first_reads, capacity, engine.platform.max_threads)
    timing = engine.cache_statistics()["timing"]
    assert (timing["hits"], timing["misses"], timing["size"]) == (hits, misses, len(rows))
    assert list(engine._timing_memo.rows or ()) == rows


@pytest.mark.parametrize("capacity", [0, 3, 4096])
def test_heuristic_plans_share_one_row(serving_bundle, capacity):
    bundle = _fresh(serving_bundle)
    engine = ServingEngine(bundle, timing_cache_capacity=capacity)
    shapes = [{"m": 64, "n": 96}, {"m": 256, "n": 16}, {"m": 64, "n": 96}]
    plans = engine.plan_many([("dtrsm", dims) for dims in shapes])
    assert {plan.policy for plan in plans} == {"max-threads"}
    before = bundle.simulator.n_evaluations
    for plan in plans:
        assert plan.predicted_time == plan.baseline_time
    assert bundle.simulator.n_evaluations - before == 2  # the distinct shapes, once each


@pytest.mark.slow
def test_backends_agree_with_one_engine(serving_bundle):
    calls = [[
        ("dgemm", {"m": 64 + 16 * i, "k": 48, "n": 512 - 32 * i}) for i in range(6)
    ] + [("sgemm", {"m": 96, "k": 96, "n": 96}), ("dtrsm", {"m": 160, "n": 48})]
      + [("dsyrk", {"n": 64 + 32 * i, "k": 256}) for i in range(4)]]
    expected = [row[:4] for row in _eager_oracle(serving_bundle, calls, 64)]
    for backend in ("thread", "process"):
        with ShardedFrontend.from_bundle(_fresh(serving_bundle), 2, backend=backend) as frontend:
            plans = frontend.plan_many(calls[0])
        # from_cache depends on which shard's LRU is warm; the rest may not.
        assert [_fields(plan)[:4] for plan in plans] == expected


# -- hot reload: a plan reports the simulator it was planned under -------------------
SHAPES = [("dgemm", {"m": 96, "k": 64, "n": 160}), ("dsyrk", {"n": 256, "k": 48})]


def _reseeded(bundle):
    """The same models over a simulator drawn from another noise seed."""
    settings_ = dict(bundle.settings, seed=int(bundle.settings.get("seed", 0)) + 1)
    return InstallationBundle(
        platform=bundle.platform,
        simulator=bundle.simulator,
        routines=bundle.routines,
        candidate_names=list(bundle.candidate_names),
        settings=settings_,
    )


def _times(simulator, plan):
    return (
        simulator.time(plan.routine, plan.dims, plan.threads),
        simulator.time_at_max_threads(plan.routine, plan.dims),
    )


def _distinct_rows(plans, max_threads):
    return len({
        (plan.routine, tuple(sorted(plan.dims.items())), threads)
        for plan in plans
        for threads in (plan.threads, max_threads)
    })


def _reload_case(serving_bundle, directory, make_engine=ServingEngine):
    """Plan, hot-swap the bundle's simulator, then read: old plans, old machine.

    The old generation's memo holds a row of the first shape (read before
    the reload) and the new generation's memo every row of the new plans
    (read first after it), so an old plan finds the right answer only in
    the memo and the simulator it was planned under.
    """
    save_bundle(serving_bundle, directory, bundle_version=1)
    engine = make_engine(BundleHandle(directory))
    max_threads = engine.platform.max_threads
    old_simulator = copy.deepcopy(engine.source.simulator)
    old_plans = engine.plan_many(SHAPES)
    assert engine.cache_statistics()["timing"]["size"] == 0  # planning leaves the memo alone
    (old_read,) = engine.plan_many(SHAPES[:1])
    old_read.predicted_time
    assert engine.cache_statistics()["timing"]["size"] == _distinct_rows([old_read], max_threads)

    save_bundle(_reseeded(serving_bundle), directory, bundle_version=2)
    assert engine.reload_source(force=True)
    assert engine.cache_statistics()["timing"]["size"] == 0
    new_simulator = copy.deepcopy(engine.source.simulator)
    new_plans = engine.plan_many(SHAPES)
    for plan in new_plans:
        plan.predicted_time
    n_rows = _distinct_rows(new_plans, max_threads)
    assert engine.cache_statistics()["timing"]["size"] == n_rows  # restarted from 0

    for old, new in zip(old_plans, new_plans):
        assert old.threads == new.threads
        assert (old.predicted_time, old.baseline_time) == _times(old_simulator, old), (
            "an old plan must report the old machine"
        )
        assert (new.predicted_time, new.baseline_time) == _times(new_simulator, new)
        assert old.predicted_time != new.predicted_time
    assert (old_read.predicted_time, old_read.baseline_time) == _times(old_simulator, old_read)
    # The old plans' rows went to the old generation's memo, not the new one.
    assert engine.cache_statistics()["timing"]["size"] == n_rows


def test_old_plans_keep_the_old_simulator_across_a_reload(serving_bundle, tmp_path):
    _reload_case(serving_bundle, tmp_path / "bundle")


class _ReadTimeSimulator:
    """Whatever simulator the engine serves when the row is finally timed."""

    def __init__(self, engine):
        self.engine = engine

    def time_batch(self, *args):
        return self.engine.source.simulator.time_batch(*args)


def test_mutant_resolving_against_the_live_simulator_fails_the_reload_case(
    serving_bundle, tmp_path, monkeypatch
):
    """The guard is the pin: drop it and the reload case must notice."""

    def unpinned_engine(source):
        engine = ServingEngine(source)

        class UnpinnedTimings(PendingTimings):
            def __init__(self, routine, simulator, memo, max_threads):
                super().__init__(routine, _ReadTimeSimulator(engine), memo, max_threads)

        monkeypatch.setattr(engine_module, "PendingTimings", UnpinnedTimings)
        return engine

    with pytest.raises(AssertionError, match="old machine"):
        _reload_case(serving_bundle, tmp_path / "bundle", unpinned_engine)


def test_mutant_reading_the_live_memo_fails_the_reload_case(
    serving_bundle, tmp_path, monkeypatch
):
    """The memo is pinned with the simulator: a group that reads the rows of
    the generation current at its first read answers old plans with the new
    machine's times."""

    def live_memo_engine(source):
        engine = ServingEngine(source)

        class LiveMemoTimings(PendingTimings):
            def resolve(self):
                if self.rows is not None:
                    self.memo_rows = self.memo.rows
                super().resolve()

        monkeypatch.setattr(engine_module, "PendingTimings", LiveMemoTimings)
        return engine

    with pytest.raises(AssertionError, match="old machine"):
        _reload_case(serving_bundle, tmp_path / "bundle", live_memo_engine)
