"""Tests for the micro-batching serving engine.

The headline guarantee: a micro-batch produces *exactly* the plans a
sequential ``AdsalaRuntime.plan()`` loop would have produced on the same
bundle — same thread choices, same predicted/baseline times.
"""

import copy
import pickle
import threading

import pytest

from repro.core.runtime import AdsalaRuntime
from repro.serving.engine import ServingEngine, normalize_request
from repro.serving.fallback import default_runtime_chain
from repro.serving.telemetry import EngineTelemetry
from repro.serving.workload import generate_workload


def _scalar_reference(bundle, workload, use_cache):
    runtime = AdsalaRuntime(bundle)
    return [
        runtime.plan(request.routine, use_cache=use_cache, **request.dims)
        for request in workload
    ]


class TestEquivalenceWithScalarPlan:
    @pytest.mark.parametrize("distribution", ["uniform", "cycling", "skewed"])
    def test_thread_choices_and_times_match_uncached(
        self, clear_caches, distribution
    ):
        bundle = clear_caches
        workload = generate_workload(
            ["dgemm", "dsyrk"], 48, distribution=distribution, seed=11
        )
        scalar = _scalar_reference(bundle, workload, use_cache=False)
        engine = ServingEngine(bundle, max_batch_size=16, use_cache=False)
        batched = engine.plan_many(request.as_tuple() for request in workload)
        assert len(batched) == len(scalar)
        for scalar_plan, batched_plan in zip(scalar, batched):
            assert batched_plan.routine == scalar_plan.routine
            assert batched_plan.dims == scalar_plan.dims
            assert batched_plan.threads == scalar_plan.threads
            assert batched_plan.predicted_time == scalar_plan.predicted_time
            assert batched_plan.baseline_time == scalar_plan.baseline_time

    def test_cache_flags_match_on_cycling_workload(self, clear_caches):
        # Distinct shapes stay below the LRU capacity, so the scalar loop
        # and the batched path must agree on every from_cache flag too.
        bundle = clear_caches
        workload = generate_workload(
            ["dgemm", "dsyrk"], 40, distribution="cycling", seed=5, pool_size=6
        )
        scalar = _scalar_reference(bundle, workload, use_cache=True)
        for installation in bundle.routines.values():
            installation.predictor.clear_cache()
        engine = ServingEngine(bundle, max_batch_size=8, use_cache=True)
        batched = engine.plan_many(request.as_tuple() for request in workload)
        assert [p.from_cache for p in batched] == [p.from_cache for p in scalar]
        assert [p.threads for p in batched] == [p.threads for p in scalar]

    def test_single_plan_micro_batch_of_one(self, clear_caches):
        bundle = clear_caches
        engine = ServingEngine(bundle)
        first = engine.plan("dgemm", m=256, k=128, n=64)
        second = engine.plan("dgemm", m=256, k=128, n=64)
        assert not first.from_cache
        assert second.from_cache
        assert second.threads == first.threads


class TestTimesEqualScalarSimulatorOracle:
    """Plan times come from ``time_batch``; the scalar ``time`` is the oracle."""

    @staticmethod
    def _assert_oracle_times(bundle, plan):
        oracle = bundle.simulator
        assert plan.predicted_time == oracle.time(plan.routine, plan.dims, plan.threads)
        assert plan.baseline_time == oracle.time(
            plan.routine, plan.dims, bundle.platform.max_threads
        )

    def test_plan_micro_batch_of_one(self, clear_caches):
        engine = ServingEngine(clear_caches)
        for routine, dims in [
            ("dgemm", {"m": 311, "k": 97, "n": 1203}),
            ("dsyrk", {"n": 640, "k": 33}),
            ("sgemm", {"m": 5, "k": 4096, "n": 17}),
        ]:
            self._assert_oracle_times(clear_caches, engine.plan(routine, **dims))

    def test_mixed_routine_plan_many(self, clear_caches):
        workload = generate_workload(["dgemm", "dsyrk"], 64, distribution="uniform", seed=23)
        assert len({request.routine for request in workload}) == 2
        engine = ServingEngine(clear_caches, max_batch_size=16)
        plans = engine.plan_many(request.as_tuple() for request in workload)
        assert len(plans) == 64
        for plan in plans:
            self._assert_oracle_times(clear_caches, plan)


def _distinct_rows(plans, max_threads):
    return {
        (plan.routine, tuple(sorted(plan.dims.items())), threads)
        for plan in plans
        for threads in (plan.threads, max_threads)
    }


class TestPlanningDefersTheSimulator:
    """Planning leaves the simulator alone; the first read of a timing field
    times its whole planning group once — counts, not timings."""

    SHAPES = [("dgemm", {"m": 96 + 16 * i, "k": 64, "n": 320 - 32 * i}) for i in range(5)]

    def test_no_simulator_row_before_a_timing_field_is_read(self, clear_caches):
        bundle = clear_caches
        runtime = AdsalaRuntime(bundle)
        simulator = bundle.simulator
        before = simulator.n_evaluations
        single = runtime.plan("dsyrk", n=640, k=33)
        group = runtime.plan_many(self.SHAPES)
        later = runtime.plan_many(self.SHAPES[:2])  # memo-shared with ``group``
        assert single.threads >= 1 and all(plan.threads >= 1 for plan in group)
        assert simulator.n_evaluations == before

        group[2].predicted_time
        n_rows = len(_distinct_rows(group, bundle.platform.max_threads))
        assert simulator.n_evaluations - before == n_rows
        for plan in [group[2], *group, *later]:  # same plan, siblings, later batch
            plan.predicted_time, plan.baseline_time, plan.estimated_speedup
        assert simulator.n_evaluations - before == n_rows

        single.baseline_time
        assert simulator.n_evaluations - before == n_rows + len(
            _distinct_rows([single], bundle.platform.max_threads)
        )

    def test_planning_leaves_the_timing_memo_alone_until_a_read(self, clear_caches):
        engine = ServingEngine(clear_caches)
        engine.plan_many(self.SHAPES)  # warm: routes, predictor LRU
        for plan in engine.plan_many(self.SHAPES):
            plan.predicted_time  # warm: every row of the shapes is in the memo
        memo = engine.cache_statistics()["timing"]
        miss = engine.plan("dgemm", m=555, k=66, n=777)
        hit = engine.plan(self.SHAPES[0][0], **self.SHAPES[0][1])
        assert not miss.from_cache and hit.from_cache
        assert engine.cache_statistics()["timing"] == memo

        hit.predicted_time
        rows = len(_distinct_rows([hit], clear_caches.platform.max_threads))
        assert engine.cache_statistics()["timing"] == dict(memo, hits=memo["hits"] + rows)
        miss.baseline_time
        rows = len(_distinct_rows([miss], clear_caches.platform.max_threads))
        now = engine.cache_statistics()["timing"]
        assert (now["misses"], now["size"]) == (memo["misses"] + rows, memo["size"] + rows)

    def test_eight_concurrent_first_readers_cause_one_pass(self, clear_caches, monkeypatch):
        import sys

        bundle = clear_caches
        plans = ServingEngine(bundle).plan_many(self.SHAPES * 2)
        passes = []
        time_batch = bundle.simulator.time_batch

        def counted(*args):
            passes.append(len(args[2]))
            return time_batch(*args)

        monkeypatch.setattr(bundle.simulator, "time_batch", counted)
        start = threading.Barrier(8)
        seen = [None] * 8

        def reader(slot):
            start.wait(10)
            seen[slot] = [(plan.predicted_time, plan.baseline_time) for plan in plans[slot:]]

        threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert passes == [len(_distinct_rows(plans, bundle.platform.max_threads))]
        oracle = [(plan.predicted_time, plan.baseline_time) for plan in plans]
        assert all(seen[slot] == oracle[slot:] for slot in range(8))

    def test_a_resolved_group_holds_no_simulator_or_dims(self, clear_caches):
        import gc
        import weakref

        plan = ServingEngine(clear_caches, timing_cache_capacity=0).plan(
            "dgemm", m=77, k=78, n=79
        )
        group = plan._predicted_time  # the slot holds the planning group itself
        assert group is plan._baseline_time
        assert group.simulator is clear_caches.simulator and group.rows == [plan]
        plan.predicted_time
        assert group.simulator is None and group.rows is None
        assert type(plan._predicted_time) is float and type(plan._baseline_time) is float
        dead = weakref.ref(group)
        del group
        gc.collect()
        assert dead() is None  # the plan let go of its group

    def test_observation_on_a_never_read_plan_feeds_the_simulated_time(self, clear_caches):
        engine = ServingEngine(clear_caches)
        plan = engine.plan("dgemm", m=311, k=97, n=1203)
        engine.record_observation(plan, 1.0)
        (record,) = engine.telemetry.routines["dgemm"].traffic
        oracle = copy.deepcopy(clear_caches.simulator)
        assert record.predicted == oracle.time("dgemm", plan.dims, plan.threads)

    def test_an_untimed_plan_pickles_and_compares_as_its_timed_self(self, clear_caches):
        engine = ServingEngine(clear_caches)
        plan = engine.plan("dsyrk", n=640, k=33)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan and repr(clone) == repr(plan)
        assert (clone.predicted_time, clone.baseline_time) == (
            plan.predicted_time, plan.baseline_time
        )


class TestBatching:
    def test_submission_order_preserved(self, clear_caches):
        engine = ServingEngine(clear_caches, max_batch_size=4)
        workload = generate_workload(["dgemm", "dsyrk"], 10, seed=2)
        plans = engine.plan_many(request.as_tuple() for request in workload)
        assert len(plans) == len(workload)  # one plan per request, none dropped
        for request, plan in zip(workload, plans):
            assert plan.dims == request.dims

    def test_max_batch_size_splits_stream(self, clear_caches):
        workload = generate_workload(["dgemm"], 10, seed=3)
        streamed = ServingEngine(clear_caches, max_batch_size=4)
        streamed.plan_many(request.as_tuple() for request in workload)
        prepared = ServingEngine(clear_caches, max_batch_size=4)
        prepared.execute(
            [
                normalize_request(request.routine, request.dims, index)
                for index, request in enumerate(workload)
            ]
        )
        for engine in (streamed, prepared):
            assert engine.telemetry.n_batches == 3
            assert engine.telemetry.batch_sizes.max == 4

    def test_invalid_requests_fail_at_intake(self, clear_caches):
        engine = ServingEngine(clear_caches)
        valid = ("dgemm", {"m": 64, "k": 64, "n": 64})
        with pytest.raises(ValueError):
            engine.plan_many([valid, ("dgemm", {"m": 0, "k": 10, "n": 10})])
        with pytest.raises(ValueError):
            engine.plan_many([valid, ("dgemm", {"m": 10})])  # missing dims
        # Validation precedes the first micro-batch: the valid predecessor
        # was not planned either.
        assert engine.telemetry.n_requests == 0

    def test_plan_many_equals_a_loop_of_plan(self, serving_bundle):
        workload = generate_workload(
            ["dgemm", "dsyrk", "sgemm"], 60, distribution="cycling", seed=9, pool_size=7
        )
        streamed = ServingEngine(copy.deepcopy(serving_bundle), max_batch_size=8)
        looped = ServingEngine(copy.deepcopy(serving_bundle), max_batch_size=8)
        many = streamed.plan_many(request.as_tuple() for request in workload)
        single = [looped.plan(request.routine, **request.dims) for request in workload]
        assert many == single  # every field, from_cache flags included
        for counter in ("cache_hits", "cache_misses"):
            assert (
                streamed.cache_statistics()[counter]
                == looped.cache_statistics()[counter]
            ), counter
        assert streamed.stats()["requests"] == looped.stats()["requests"] == 60

    def test_invalid_batch_size(self, clear_caches):
        with pytest.raises(ValueError):
            ServingEngine(clear_caches, max_batch_size=0)


class TestFallbackIntegration:
    def test_cross_precision_recorded_on_plan(self, clear_caches):
        engine = ServingEngine(clear_caches)
        plan = engine.plan("sgemm", m=64, k=64, n=64)
        assert plan.routine == "dgemm"
        assert plan.fallback_from == "sgemm"
        assert plan.policy == "cross-precision"

    def test_heuristic_last_resort(self, clear_caches, laptop):
        engine = ServingEngine(clear_caches)
        plan = engine.plan("dtrsm", m=100, n=50)
        assert plan.policy == "max-threads"
        assert plan.threads == laptop.max_threads
        assert plan.predicted_time == plan.baseline_time
        assert plan.estimated_speedup == pytest.approx(1.0)

    def test_runtime_chain_rejects_unknown(self, clear_caches):
        engine = ServingEngine(clear_caches, fallback=default_runtime_chain())
        with pytest.raises(KeyError):
            engine.plan_many([("dsymm", {"m": 10, "n": 10})])

    def test_mixed_batch_with_fallbacks(self, clear_caches):
        engine = ServingEngine(clear_caches, max_batch_size=8)
        plans = engine.plan_many(
            [
                ("dgemm", {"m": 64, "k": 64, "n": 64}),
                ("sgemm", {"m": 64, "k": 64, "n": 64}),
                ("strmm", {"m": 32, "n": 32}),
            ]
        )
        assert len(plans) == 3  # every request answered
        assert [p.policy for p in plans] == [
            "installed", "cross-precision", "max-threads",
        ]


class TestTelemetryIntegration:
    def test_drift_flags_reinstall_candidate(self, clear_caches):
        engine = ServingEngine(
            clear_caches,
            telemetry=EngineTelemetry(drift_threshold=0.25, min_observations=5),
        )
        plans = engine.plan_many(
            request.as_tuple()
            for request in generate_workload(["dgemm"], 8, seed=4)
        )
        for plan in plans:
            engine.record_observation(plan, plan.predicted_time * 2.0)
        assert engine.reinstall_candidates() == ["dgemm"]

    def test_accurate_observations_do_not_flag(self, clear_caches):
        engine = ServingEngine(
            clear_caches,
            telemetry=EngineTelemetry(drift_threshold=0.25, min_observations=5),
        )
        plans = engine.plan_many(
            request.as_tuple()
            for request in generate_workload(["dgemm"], 8, seed=4)
        )
        for plan in plans:
            engine.record_observation(plan, plan.predicted_time * 1.01)
        assert engine.reinstall_candidates() == []

    def test_stats_shape(self, clear_caches):
        engine = ServingEngine(clear_caches, max_batch_size=8)
        engine.plan_many(
            request.as_tuple()
            for request in generate_workload(["dgemm", "dsyrk"], 12, seed=9)
        )
        stats = engine.stats()
        assert stats["requests"] == 12
        assert stats["batches"] == 2
        assert stats["batch_size_limit"] == 8
        assert set(stats["routines"]) <= {"dgemm", "dsyrk"}
        assert stats["cache"]["model_evaluations"] >= 1
        assert stats["fallback_chain"].startswith("installed")


class TestEngineOverRegistryHandle:
    def test_plans_match_in_memory_bundle(self, clear_caches, saved_bundle_dir):
        from repro.serving.registry import BundleHandle

        bundle = clear_caches
        workload = generate_workload(["dgemm", "dsyrk"], 24, seed=13)
        memory_engine = ServingEngine(bundle, use_cache=False)
        memory_plans = memory_engine.plan_many(r.as_tuple() for r in workload)
        handle_engine = ServingEngine(BundleHandle(saved_bundle_dir), use_cache=False)
        handle_plans = handle_engine.plan_many(r.as_tuple() for r in workload)
        for memory_plan, handle_plan in zip(memory_plans, handle_plans):
            assert handle_plan.threads == memory_plan.threads
            assert handle_plan.predicted_time == memory_plan.predicted_time


def _clone_predictor(predictor, cache_capacity):
    from repro.core.predictor import ThreadPredictor

    return ThreadPredictor(
        routine=predictor.routine,
        pipeline=predictor.pipeline,
        model=predictor.model,
        candidate_threads=predictor.candidate_threads,
        model_name=predictor.model_name,
        cache_capacity=cache_capacity,
    )


class TestPlanBatchExactEquivalence:
    """plan_batch must replay plan()'s cache timeline exactly — flags,
    counters and final cache contents — even under eviction pressure."""

    def test_eviction_pressure_matches_sequential(self, serving_bundle):
        base = serving_bundle.routines["dgemm"].predictor
        # 6 unique shapes cycling through a capacity-4 cache: repeats are
        # separated by enough distinct shapes that they land as misses.
        shapes = [{"m": 32 * (i + 1), "k": 64, "n": 48} for i in range(6)]
        workload = (shapes * 5)[:24]

        sequential = _clone_predictor(base, cache_capacity=4)
        expected = [sequential.plan(dims) for dims in workload]

        batched = _clone_predictor(base, cache_capacity=4)
        actual = batched.plan_batch(workload)

        assert [p.threads for p in actual] == [p.threads for p in expected]
        assert [p.from_cache for p in actual] == [p.from_cache for p in expected]
        assert any(not p.from_cache for p in actual[6:])  # evictions did occur
        assert batched.cache_info()["hits"] == sequential.cache_info()["hits"]
        assert batched.cache_info()["misses"] == sequential.cache_info()["misses"]
        assert list(batched._cache) == list(sequential._cache)

    def test_uncached_duplicates_not_marked_cached(self, serving_bundle):
        base = serving_bundle.routines["dgemm"].predictor
        predictor = _clone_predictor(base, cache_capacity=8)
        dims = {"m": 100, "k": 100, "n": 100}
        plans = predictor.plan_batch([dims, dims, dims], use_cache=False)
        assert [p.from_cache for p in plans] == [False, False, False]
        assert predictor.n_model_evaluations == 1  # still deduplicated

    def test_uncached_final_cache_matches_sequential(self, serving_bundle):
        base = serving_bundle.routines["dgemm"].predictor
        shapes = [{"m": 16 * (i + 1), "k": 32, "n": 32} for i in range(5)]
        workload = shapes + shapes[:2]

        sequential = _clone_predictor(base, cache_capacity=3)
        for dims in workload:
            sequential.plan(dims, use_cache=False)
        batched = _clone_predictor(base, cache_capacity=3)
        batched.plan_batch(workload, use_cache=False)
        assert list(batched._cache) == list(sequential._cache)


class TestPlanCallLocality:
    def test_use_cache_override_is_call_local(self, clear_caches):
        engine = ServingEngine(clear_caches, use_cache=True)
        engine.plan("dgemm", m=64, k=64, n=64)
        uncached = engine.plan("dgemm", use_cache=False, m=64, k=64, n=64)
        assert not uncached.from_cache  # override honoured for this call
        assert engine.use_cache is True  # engine default untouched
        cached = engine.plan("dgemm", m=64, k=64, n=64)
        assert cached.from_cache


class TestPerRoutineCacheStats:
    def test_cache_statistics_per_routine_hit_rate(self, clear_caches):
        # Predictor counters are cumulative per bundle, so measure deltas.
        before = clear_caches.predictor("dgemm").cache_info()
        engine = ServingEngine(clear_caches, max_batch_size=8)
        dims = {"m": 96, "k": 96, "n": 96}
        engine.plan("dgemm", **dims)  # miss
        engine.plan("dgemm", **dims)  # hit
        engine.plan("dgemm", **dims)  # hit
        stats = engine.cache_statistics()
        per_routine = stats["routines"]["dgemm"]
        assert per_routine["misses"] - before["misses"] == 1
        assert per_routine["hits"] - before["hits"] == 2
        probes = per_routine["hits"] + per_routine["misses"]
        assert per_routine["hit_rate"] == pytest.approx(per_routine["hits"] / probes)
        assert stats["cache_hits"] == per_routine["hits"]

    def test_evaluate_path_reported_per_routine(self, clear_caches):
        engine = ServingEngine(clear_caches, max_batch_size=8)
        engine.plan("dgemm", m=96, k=96, n=96)
        entry = engine.cache_statistics()["routines"]["dgemm"]
        assert entry["evaluate_path"] == clear_caches.predictor("dgemm").compile().path
        assert entry["evaluate_path"] in ("native", "numpy")

    def test_permuted_dims_hit_same_cache_entry(self, clear_caches):
        engine = ServingEngine(clear_caches, max_batch_size=8)
        first = engine.plan("dgemm", m=64, k=96, n=128)
        second = engine.plan("dgemm", n=128, m=64, k=96)
        assert first.from_cache is False
        assert second.from_cache is True
        assert second.threads == first.threads

    def test_stats_snapshot_reports_per_routine_hit_rate(self, clear_caches):
        engine = ServingEngine(clear_caches, max_batch_size=8)
        dims = {"m": 80, "k": 80, "n": 80}
        engine.plan("dgemm", **dims)
        engine.plan("dgemm", **dims)
        snapshot = engine.stats()
        routine_stats = snapshot["routines"]["dgemm"]
        assert routine_stats["cache_hit_rate"] == pytest.approx(0.5)
        # The predictor-side counters are cumulative for the bundle (other
        # tests share it), so only assert internal consistency there.
        cache_stats = snapshot["cache"]["routines"]["dgemm"]
        probes = cache_stats["hits"] + cache_stats["misses"]
        assert cache_stats["hit_rate"] == pytest.approx(cache_stats["hits"] / probes)


class TestConcurrency:
    """One engine driven by several threads: the coarse lock must keep every
    plan, counter and cache update exact — no lost or duplicated requests."""

    def test_concurrent_plan_calls_match_sequential(self, clear_caches):
        bundle = clear_caches
        workload = generate_workload(
            ["dgemm", "dsyrk"], 400, distribution="cycling", seed=23, pool_size=10
        )
        reference = _scalar_reference(bundle, workload, use_cache=False)
        for installation in bundle.routines.values():
            installation.predictor.clear_cache()

        engine = ServingEngine(bundle)
        results = [None] * len(workload)
        n_threads = 4

        def worker(offset):
            for slot in range(offset, len(workload), n_threads):
                request = workload[slot]
                results[slot] = engine.plan(request.routine, **request.dims)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert None not in results  # no plan lost
        assert engine.telemetry.n_requests == len(workload)  # none duplicated
        for slot, (plan, expected) in enumerate(zip(results, reference)):
            assert plan.routine == expected.routine, slot
            assert plan.dims == expected.dims, slot
            assert plan.threads == expected.threads, slot
            assert plan.predicted_time == expected.predicted_time, slot
            assert plan.baseline_time == expected.baseline_time, slot

    def test_concurrent_streams_answer_every_request_once(
        self, clear_caches
    ):
        # Two stream callers and two pre-normalised callers share one
        # engine; the lock is taken per micro-batch, so their batches
        # interleave — and every request must still be answered once.
        engine = ServingEngine(clear_caches, max_batch_size=8)
        workload = generate_workload(
            ["dgemm", "dsyrk"], 300, distribution="cycling", seed=27, pool_size=8
        )
        n_callers = 4
        collected = [None] * n_callers

        def caller(offset):
            mine = workload[offset::n_callers]
            if offset % 2:
                collected[offset] = engine.execute(
                    [
                        normalize_request(request.routine, request.dims, index)
                        for index, request in enumerate(mine)
                    ]
                )
            else:
                collected[offset] = engine.plan_many(
                    request.as_tuple() for request in mine
                )

        threads = [
            threading.Thread(target=caller, args=(index,))
            for index in range(n_callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

        assert engine.telemetry.n_requests == len(workload)  # none duplicated
        for offset, plans in enumerate(collected):
            mine = workload[offset::n_callers]
            assert len(plans) == len(mine)  # exactly one plan per request
            for request, plan in zip(mine, plans):
                assert plan.dims == request.dims  # each caller's order held


class TestCacheStatisticsAfterHotReload:
    """Regression: a routine removed by a hot reload must not crash stats."""

    def _reduced_bundle(self, serving_bundle, keep):
        from repro.core.install import InstallationBundle

        return InstallationBundle(
            platform=serving_bundle.platform,
            simulator=serving_bundle.simulator,
            routines={key: serving_bundle.routines[key] for key in keep},
            candidate_names=list(serving_bundle.candidate_names),
            settings=dict(serving_bundle.settings),
        )

    def test_reload_prunes_touched_routines(
        self, serving_bundle, saved_bundle_dir
    ):
        from repro.core.persistence import save_bundle
        from repro.serving.registry import BundleHandle

        engine = ServingEngine(BundleHandle(saved_bundle_dir))
        engine.plan("dgemm", m=64, k=64, n=64)
        engine.plan("dsyrk", n=64, k=32)
        save_bundle(
            self._reduced_bundle(serving_bundle, ["dgemm"]),
            saved_bundle_dir,
            bundle_version=2,
        )
        assert engine.reload_source()
        stats = engine.cache_statistics()  # crashed with KeyError pre-fix
        assert "dsyrk" not in stats["routines"]
        assert engine.stats()["cache"]["cache_hits"] >= 0

    def test_reload_behind_engines_back_marks_unloadable(
        self, serving_bundle, saved_bundle_dir
    ):
        # A ModelRegistry.refresh() reloads the handle directly, without
        # engine.reload_source(), so the engine's touched set goes stale:
        # the stats loop must skip-with-marker instead of raising.
        from repro.core.persistence import save_bundle
        from repro.serving.registry import BundleHandle

        handle = BundleHandle(saved_bundle_dir)
        engine = ServingEngine(handle)
        engine.plan("dsyrk", n=64, k=32)
        save_bundle(
            self._reduced_bundle(serving_bundle, ["dgemm"]),
            saved_bundle_dir,
            bundle_version=2,
        )
        assert handle.reload()
        stats = engine.cache_statistics()
        assert stats["routines"]["dsyrk"] == {"unloadable": True}
        assert stats["cache_hits"] == 0


class TestHotReloadReroutes:
    """A routine is routed once per source generation, so a reload must
    re-route it: through ``engine.reload_source()``, and through a
    ``ModelRegistry.refresh()`` that reloads the handle behind the engine."""

    def test_a_warmed_routine_is_not_routed_again(self, saved_bundle_dir, monkeypatch):
        from repro.serving.fallback import FallbackChain
        from repro.serving.registry import BundleHandle

        engine = ServingEngine(BundleHandle(saved_bundle_dir))
        routed = []
        original = FallbackChain.route

        def route(chain, key, source):
            routed.append(key)
            return original(chain, key, source)

        monkeypatch.setattr(FallbackChain, "route", route)
        for size in (64, 72, 80):
            shape = {"m": size, "k": 32, "n": 48}
            engine.plan_many([("dgemm", shape), ("sgemm", shape)])
        assert routed == ["dgemm", "sgemm"]
        assert engine.reload_source(force=True)  # a new generation, same files
        engine.plan("sgemm", m=64, k=32, n=48)
        assert routed == ["dgemm", "sgemm", "sgemm"]

    @staticmethod
    def _swap_dsyrk_for_sgemm(serving_bundle, directory):
        """Rewrite the bundle on disk: ``sgemm`` gains a model (a copy of
        dgemm's), ``dsyrk`` loses its own."""
        from repro.core.install import InstallationBundle
        from repro.core.persistence import save_bundle

        sgemm = copy.deepcopy(serving_bundle.routines["dgemm"])
        sgemm.routine = sgemm.predictor.routine = "sgemm"
        save_bundle(
            InstallationBundle(
                platform=serving_bundle.platform,
                simulator=serving_bundle.simulator,
                routines={"dgemm": serving_bundle.routines["dgemm"], "sgemm": sgemm},
                candidate_names=list(serving_bundle.candidate_names),
                settings=dict(serving_bundle.settings),
            ),
            directory,
            bundle_version=2,
        )

    @pytest.mark.parametrize("reload", ["reload_source", "registry_refresh"])
    def test_reload_reroutes_every_routine(self, serving_bundle, saved_bundle_dir, reload):
        from repro.serving.registry import ModelRegistry

        registry = ModelRegistry()
        handle = registry.register(saved_bundle_dir, name="served")
        engine = ServingEngine(handle)  # installed -> cross-precision -> max-threads
        gemm, syrk = {"m": 96, "k": 32, "n": 48}, {"n": 96, "k": 40}
        before = engine.plan("sgemm", **gemm), engine.plan("dsyrk", **syrk)
        assert [(p.routine, p.policy, p.fallback_from) for p in before] == [
            ("dgemm", "cross-precision", "sgemm"),
            ("dsyrk", "installed", None),
        ]
        self._swap_dsyrk_for_sgemm(serving_bundle, saved_bundle_dir)
        if reload == "reload_source":
            assert engine.reload_source()
        else:
            assert registry.refresh() == {"served": "reloaded"}
        after = engine.plan("sgemm", **gemm), engine.plan("dsyrk", **syrk)
        # sgemm's own model appeared; dsyrk's left, so the next policy serves it.
        assert [(p.routine, p.policy, p.fallback_from) for p in after] == [
            ("sgemm", "installed", None),
            ("dsyrk", "max-threads", None),
        ]
        assert after[0].threads == handle.predictor("sgemm").plan(gemm, use_cache=False).threads
        assert after[1].threads == serving_bundle.platform.max_threads


class TestServedBundleCopies:
    @pytest.mark.parametrize(
        "clone",
        [lambda bundle: pickle.loads(pickle.dumps(bundle)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_served_bundle_round_trips(self, clear_caches, clone):
        """A bundle that has served plans copies, recompiles, plans the same."""
        bundle = clear_caches
        workload = generate_workload(["dgemm", "dsyrk"], 24, seed=3)
        ServingEngine(bundle).plan_many(r.as_tuple() for r in workload)
        twin = clone(bundle)
        assert all(
            installation.predictor._compiled is None
            for installation in twin.routines.values()
        )
        for source in (bundle, twin):
            for installation in source.routines.values():
                installation.predictor.clear_cache()
        fresh = generate_workload(["dgemm", "dsyrk"], 24, seed=4)
        expected = ServingEngine(bundle).plan_many(r.as_tuple() for r in fresh)
        got = ServingEngine(twin).plan_many(r.as_tuple() for r in fresh)
        assert got == expected
        assert all(
            installation.predictor._compiled is not None
            for installation in twin.routines.values()
        )

    def test_a_bundle_pickled_with_plan_objects_in_its_lru_serves_from_an_empty_one(
        self, clear_caches
    ):
        """An older tree's LRU held ``PredictionPlan`` objects, and a bundle
        pickled after planning carries them (``save_bundle`` writes only the
        models); the engine reads ``(threads, score)`` pairs, so unpickling
        such a predictor starts its LRU empty."""
        from repro.core.predictor import PredictionPlan, ThreadPredictor

        dims = {"m": 311, "k": 97, "n": 1203}
        expected = ServingEngine(clear_caches).plan("dgemm", **dims)
        lru = clear_caches.predictor("dgemm")._cache
        lru[ThreadPredictor.cache_key(dims)] = PredictionPlan(
            "dgemm", dict(dims), expected.threads, expected.predicted_time, True
        )
        loaded = pickle.loads(pickle.dumps(clear_caches))
        assert loaded.predictor("dgemm").cache_info()["size"] == 0
        engine = ServingEngine(loaded)
        (plan,) = engine.plan_many([("dgemm", dims)])
        assert not plan.from_cache
        assert (plan.threads, plan.predicted_time, plan.baseline_time) == (
            expected.threads, expected.predicted_time, expected.baseline_time
        )
        assert engine.plan("dgemm", **dims).from_cache  # the LRU fills as usual
