"""Tests for the concurrent sharded serving frontend.

The headline guarantee extends PR 2/3's equivalence tradition to
concurrency: whatever the shard count and client thread count, the frontend
produces **exactly one plan per request id**, and each plan is bit-identical
(routine, dims, threads, predicted/baseline times, fallback policy) to what
a sequential single-engine replay of the same stream would have produced.
Only ``from_cache`` flags may differ, because each shard warms its own LRU.
"""

import copy
import sys
import threading
import time

import pytest

from repro.obs.collectors import collect_serving_stats
from repro.obs.metrics import MetricsRegistry
from repro.serving.engine import ServingEngine
from repro.serving.frontend import (
    DeadlineExceededError,
    PlanFuture,
    QueueFullError,
    ShardedFrontend,
    shard_index,
)
from repro.serving.workload import generate_workload


def _plan_key(plan):
    """The deterministic fields of a plan (everything but from_cache)."""
    return (
        plan.routine,
        tuple(sorted(plan.dims.items())),
        plan.threads,
        plan.predicted_time,
        plan.baseline_time,
        plan.fallback_from,
        plan.policy,
    )


def _sequential_reference(bundle, workload):
    """One fresh single engine answering the stream back to back."""
    for installation in bundle.routines.values():
        installation.predictor.clear_cache()
    engine = ServingEngine(bundle)
    plans = engine.plan_many(request.as_tuple() for request in workload)
    for installation in bundle.routines.values():
        installation.predictor.clear_cache()
    return plans


class _GatedEngine(ServingEngine):
    """An engine whose batch processing blocks until a test opens the gate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()

    def execute(self, requests):
        self.gate.wait(timeout=30)
        return super().execute(requests)


class TestRouting:
    def test_shard_index_deterministic_and_in_range(self):
        key = (("k", 128), ("m", 64), ("n", 32))
        first = shard_index("dgemm", key, 4)
        assert first == shard_index("dgemm", key, 4)
        assert 0 <= first < 4
        # Different shapes spread over shards (not all on one).
        indices = {
            shard_index("dgemm", (("k", k), ("m", 64), ("n", 32)), 4)
            for k in range(64, 64 + 64)
        }
        assert len(indices) > 1

    def test_same_shape_always_lands_on_same_shard(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(clear_caches, n_shards=3)
        with frontend:
            for _ in range(12):
                frontend.plan("dgemm", m=256, k=128, n=64)
        touched = [
            shard.engine.telemetry.n_requests for shard in frontend.shards
        ]
        assert sorted(touched) == [0, 0, 12]


class TestConcurrentStress:
    @pytest.mark.parametrize("distribution", ["cycling", "skewed"])
    def test_exactly_one_plan_per_request_id_matching_sequential(
        self, clear_caches, distribution
    ):
        """4 client threads x 1000 requests: no lost, duplicated or wrong plans."""
        bundle = clear_caches
        n_clients, per_client = 4, 1000
        workload = generate_workload(
            ["dgemm", "dsyrk"],
            n_clients * per_client,
            distribution=distribution,
            seed=29,
            pool_size=12,
        )
        reference = _sequential_reference(bundle, workload)

        frontend = ShardedFrontend.from_bundle(
            bundle, n_shards=2, max_pending=256
        )
        results = [None] * len(workload)
        ids = [None] * len(workload)

        def client(client_index):
            slots = range(client_index, len(workload), n_clients)
            pending = []
            for slot in slots:
                request = workload[slot]
                future = frontend.submit(request.routine, **request.dims)
                pending.append((slot, future))
            for slot, future in pending:
                results[slot] = future.result(timeout=60)
                ids[slot] = future.request_id

        with frontend:
            clients = [
                threading.Thread(target=client, args=(index,))
                for index in range(n_clients)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
            stats = frontend.stats()

        # Exactly one plan per request id: none lost, none duplicated.
        assert None not in results
        assert len(set(ids)) == len(workload)
        assert stats["requests"] == len(workload)
        assert stats["admission"]["shed"] == 0
        assert stats["admission"]["in_flight"] == 0
        # Bit-identical to the sequential single-engine replay, per request.
        for slot, request in enumerate(workload):
            assert _plan_key(results[slot]) == _plan_key(reference[slot]), slot

    def test_plan_many_matches_sequential_in_order(self, clear_caches):
        bundle = clear_caches
        workload = generate_workload(
            ["dgemm", "dsyrk"], 120, distribution="skewed", seed=31
        )
        reference = _sequential_reference(bundle, workload)
        frontend = ShardedFrontend.from_bundle(bundle, n_shards=3)
        plans = frontend.plan_many(request.as_tuple() for request in workload)
        assert len(plans) == len(workload)
        assert [_plan_key(p) for p in plans] == [_plan_key(p) for p in reference]

    def test_concurrent_submit_and_plan_many(self, clear_caches):
        """Futures and a stream interleave safely on the same shard inboxes."""
        bundle = clear_caches
        workload = generate_workload(
            ["dgemm", "dsyrk"], 200, distribution="cycling", seed=37, pool_size=10
        )
        reference = _sequential_reference(bundle, workload)
        frontend = ShardedFrontend.from_bundle(bundle, n_shards=2)
        with frontend:
            futures = [
                frontend.submit(request.routine, **request.dims)
                for request in workload[:100]
            ]
            bulk = frontend.plan_many(
                request.as_tuple() for request in workload[100:]
            )
            async_plans = [future.result(timeout=60) for future in futures]
        combined = async_plans + bulk
        assert [_plan_key(p) for p in combined] == [
            _plan_key(p) for p in reference
        ]


class TestAdmissionControl:
    def _gated_frontend(self, bundle, max_pending, backpressure):
        engine = _GatedEngine(bundle)
        frontend = ShardedFrontend(
            [engine], max_pending=max_pending, backpressure=backpressure
        )
        return frontend, engine

    def test_reject_mode_sheds_and_counts(self, clear_caches):
        frontend, engine = self._gated_frontend(
            clear_caches, max_pending=2, backpressure="reject"
        )
        with frontend:
            first = frontend.submit("dgemm", m=64, k=64, n=64)
            second = frontend.submit("dgemm", m=96, k=64, n=64)
            with pytest.raises(QueueFullError):
                frontend.submit("dgemm", m=128, k=64, n=64)
            assert frontend.n_shed == 1
            engine.gate.set()
            assert first.result(timeout=30).routine == "dgemm"
            assert second.result(timeout=30).routine == "dgemm"
            # Slots freed: admission accepts again.
            third = frontend.submit("dgemm", m=160, k=64, n=64)
            assert third.result(timeout=30).dims["m"] == 160
        stats = frontend.stats()
        assert stats["admission"]["shed"] == 1
        assert stats["admission"]["submitted"] == 3

    def test_block_mode_waits_for_a_slot(self, clear_caches):
        frontend, engine = self._gated_frontend(
            clear_caches, max_pending=1, backpressure="block"
        )
        with frontend:
            first = frontend.submit("dgemm", m=64, k=64, n=64)
            blocked_result = {}

            def blocked_submit():
                future = frontend.submit("dgemm", m=96, k=64, n=64)
                blocked_result["plan"] = future.result(timeout=30)

            thread = threading.Thread(target=blocked_submit)
            thread.start()
            time.sleep(0.05)
            assert thread.is_alive()  # still waiting on the admission slot
            assert "plan" not in blocked_result
            engine.gate.set()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert blocked_result["plan"].dims["m"] == 96
            assert first.result(timeout=30).dims["m"] == 64
        assert frontend.n_shed == 0

    def test_block_mode_contention_loses_no_wakeup(self, clear_caches):
        """More blocked submitters than cores on a budget of 3: every one is
        woken, and the ledger and the plans come out exact."""
        workload = generate_workload(["dgemm", "dsyrk"], 6 * 150, seed=41, pool_size=16)
        reference = _sequential_reference(clear_caches, workload)
        frontend = ShardedFrontend.from_bundle(clear_caches, n_shards=2, max_pending=3)
        results = [None] * len(workload)

        def client(first):
            for start in range(first * 150, (first + 1) * 150, 5):
                window = [
                    (slot, frontend.submit(workload[slot].routine, **workload[slot].dims))
                    for slot in range(start, start + 5)
                ]
                for slot, future in window:
                    results[slot] = future.result(timeout=60)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with frontend:
                clients = [
                    threading.Thread(target=client, args=(i,), daemon=True) for i in range(6)
                ]
                for thread in clients:
                    thread.start()
                deadline = time.monotonic() + 60
                for thread in clients:
                    thread.join(timeout=max(0.0, deadline - time.monotonic()))
                assert not any(thread.is_alive() for thread in clients)
        finally:
            sys.setswitchinterval(interval)
        admission = frontend.stats()["admission"]
        assert admission["submitted"] == admission["completed"] == len(workload)
        assert admission["in_flight"] == 0 and admission["shed"] == 0
        assert [_plan_key(plan) for plan in results] == [_plan_key(p) for p in reference]

    @pytest.mark.parametrize("backpressure", ["block", "reject"])
    def test_plan_many_longer_than_max_pending_completes(
        self, clear_caches, backpressure
    ):
        # A stream counts against max_pending like any other traffic, but
        # it always waits for its slots — even in reject mode it is never
        # shed half-way.
        workload = generate_workload(["dgemm", "dsyrk"], 40, seed=53)
        reference = _sequential_reference(clear_caches, workload)
        frontend = ShardedFrontend.from_bundle(
            clear_caches, n_shards=2, max_pending=4, backpressure=backpressure
        )
        with frontend:
            plans = frontend.plan_many(request.as_tuple() for request in workload)
            stats = frontend.stats()
        assert [_plan_key(p) for p in plans] == [_plan_key(p) for p in reference]
        assert stats["admission"]["submitted"] == 40
        assert stats["admission"]["completed"] == 40
        assert stats["admission"]["shed"] == 0
        assert stats["admission"]["in_flight"] == 0

    def test_block_mode_admission_wait_ends_at_the_deadline(self, clear_caches):
        frontend, engine = self._gated_frontend(
            clear_caches, max_pending=1, backpressure="block"
        )
        with frontend:
            first = frontend.submit("dgemm", m=64, k=64, n=64)
            with pytest.raises(DeadlineExceededError, match="admission slot"):
                frontend.submit("dgemm", timeout=0.05, m=96, k=64, n=64)
            engine.gate.set()
            assert first.result(timeout=30).dims["m"] == 64
            stats = frontend.stats()
        assert stats["admission"]["submitted"] == 1  # the second never got in
        assert stats["admission"]["in_flight"] == 0

    def test_invalid_requests_do_not_consume_slots(self, clear_caches):
        frontend, engine = self._gated_frontend(
            clear_caches, max_pending=1, backpressure="reject"
        )
        engine.gate.set()
        with frontend:
            with pytest.raises(ValueError):
                frontend.submit("dgemm", m=0, k=64, n=64)
            # The slot is still free: a valid submit succeeds immediately.
            assert frontend.submit("dgemm", m=64, k=64, n=64).result(
                timeout=30
            ).threads >= 1
        assert frontend.n_shed == 0


class TestLifecycleAndValidation:
    def test_close_answers_in_flight_then_rejects_new(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(clear_caches, n_shards=2)
        frontend.start()
        futures = [
            frontend.submit("dgemm", m=64 + 16 * i, k=64, n=64) for i in range(8)
        ]
        frontend.close()
        for future in futures:
            assert future.result(timeout=30) is not None
        with pytest.raises(RuntimeError):
            frontend.submit("dgemm", m=64, k=64, n=64)

    def test_shared_source_rejected(self, clear_caches):
        with pytest.raises(ValueError, match="own source"):
            ShardedFrontend([clear_caches, clear_caches])

    def test_bad_backpressure_and_bounds(self, clear_caches):
        with pytest.raises(ValueError):
            ShardedFrontend([clear_caches], backpressure="drop")
        with pytest.raises(ValueError):
            ShardedFrontend([clear_caches], max_pending=0)
        with pytest.raises(ValueError):
            ShardedFrontend([])
        with pytest.raises(ValueError):
            ShardedFrontend.from_bundle(clear_caches, n_shards=0)

    def test_future_carries_request_id(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(clear_caches, n_shards=1)
        with frontend:
            first = frontend.submit("dgemm", m=64, k=64, n=64)
            second = frontend.submit("dsyrk", n=64, k=32)
        assert isinstance(first, PlanFuture)
        assert second.request_id == first.request_id + 1


class TestMergedStatistics:
    def test_stats_merge_across_shards(self, clear_caches):
        bundle = clear_caches
        workload = generate_workload(
            ["dgemm", "dsyrk"], 160, distribution="skewed", seed=41
        )
        frontend = ShardedFrontend.from_bundle(bundle, n_shards=3)
        plans = frontend.plan_many(request.as_tuple() for request in workload)
        for plan in plans:
            frontend.record_observation(plan, plan.predicted_time * 1.1)
        stats = frontend.stats()
        assert stats["shards"] == 3
        assert stats["requests"] == len(workload)
        per_routine_plans = sum(
            entry["plans"] for entry in stats["routines"].values()
        )
        assert per_routine_plans == len(workload)
        observations = sum(
            entry["observations"] for entry in stats["routines"].values()
        )
        assert observations == len(workload)
        for entry in stats["routines"].values():
            assert entry["mean_abs_rel_error"] == pytest.approx(
                0.1 / 1.1, rel=1e-9
            )
        # The per-shard raw snapshots ride along and sum to the same totals:
        # a stream drains through the shard inboxes like any other traffic.
        assert sum(s["requests_drained"] for s in stats["per_shard"]) == len(workload)
        assert stats["admission"]["submitted"] == len(workload)
        assert stats["pending"] == 0
        assert stats["batches"] == sum(
            shard.engine.telemetry.n_batches for shard in frontend.shards
        )

    def test_pending_counts_requests_enqueued_and_not_yet_resolved(
        self, serving_bundle
    ):
        # Regression: ``pending`` used to read the engines' private queues,
        # which the futures route never touches — with both engines wedged
        # and 200 requests in flight it reported 0.
        engines = [_GatedEngine(copy.deepcopy(serving_bundle)) for _ in range(2)]
        frontend = ShardedFrontend(engines, max_pending=256)
        workload = generate_workload(["dgemm", "dsyrk"], 200, seed=59)
        with frontend:
            futures = [
                frontend.submit(request.routine, **request.dims)
                for request in workload
            ]
            # Wait until each drain worker is wedged inside its engine with
            # one batch in flight; everything else sits in the inboxes.
            deadline = time.monotonic() + 30
            while any(shard.stalled_for() is None for shard in frontend.shards):
                assert time.monotonic() < deadline
                time.sleep(0.005)
            stats = frontend.stats()
            assert stats["admission"]["in_flight"] == 200
            assert stats["pending"] == 200
            assert sum(entry["pending"] for entry in stats["per_shard"]) == 200
            assert all(entry["pending"] > 0 for entry in stats["per_shard"])
            registry = MetricsRegistry()
            collect_serving_stats(registry, stats)
            assert "adsala_pending 200\n" in registry.render_prometheus()
            for engine in engines:
                engine.gate.set()
            for future in futures:
                future.result(timeout=30)
            drained = frontend.stats()
        assert drained["pending"] == 0
        assert [entry["pending"] for entry in drained["per_shard"]] == [0, 0]
        assert drained["admission"]["in_flight"] == 0

    def test_merged_views_derive_from_the_shard_snapshots(self, clear_caches):
        # cache_statistics(), reinstall_candidates() and fallback_chain come
        # out of each shard's one stats() snapshot; they must equal what
        # asking every engine directly yields.
        frontend = ShardedFrontend.from_bundle(clear_caches, n_shards=3)
        workload = generate_workload(
            ["dgemm", "dsyrk", "sgemm"], 90, distribution="cycling", seed=61,
            pool_size=9,
        )
        with frontend:
            plans = frontend.plan_many(request.as_tuple() for request in workload)
            for plan in plans:
                if plan.routine == "dgemm":
                    frontend.record_observation(plan, abs(plan.predicted_time) * 10 + 1)
            engines = [shard.engine for shard in frontend.shards]
            direct = [engine.cache_statistics() for engine in engines]
            direct_flags = sorted(
                {key for engine in engines for key in engine.reinstall_candidates()}
            )
            stats = frontend.stats()
            cache = frontend.cache_statistics()
            assert cache == stats["cache"]
            for counter in ("cache_hits", "cache_misses", "model_evaluations"):
                assert cache[counter] == sum(part[counter] for part in direct)
            for counter in ("hits", "misses", "size", "capacity"):
                assert cache["timing"][counter] == sum(
                    part["timing"][counter] for part in direct
                )
            assert set(cache["routines"]) == {
                routine for part in direct for routine in part["routines"]
            }
            for routine, entry in cache["routines"].items():
                parts = [
                    part["routines"][routine]
                    for part in direct
                    if routine in part["routines"]
                ]
                assert entry["hits"] == sum(part["hits"] for part in parts)
                assert entry["misses"] == sum(part["misses"] for part in parts)
            assert frontend.reinstall_candidates() == direct_flags == ["dgemm"]
            assert stats["reinstall_candidates"] == direct_flags
            assert stats["fallback_chain"] == engines[0].fallback.describe()

    def test_cache_statistics_merge(self, clear_caches):
        bundle = clear_caches
        workload = generate_workload(
            ["dgemm", "dsyrk"], 80, distribution="cycling", seed=43, pool_size=6
        )
        frontend = ShardedFrontend.from_bundle(bundle, n_shards=2)
        frontend.plan_many(request.as_tuple() for request in workload)
        merged = frontend.cache_statistics()
        assert merged["cache_hits"] + merged["cache_misses"] > 0
        for entry in merged["routines"].values():
            probes = entry["hits"] + entry["misses"]
            assert entry["hit_rate"] == pytest.approx(
                entry["hits"] / probes if probes else 0.0
            )
            assert entry["evaluate_path"] in ("native", "numpy")
        assert merged["timing"]["capacity"] == sum(
            shard.engine.timing_cache_capacity for shard in frontend.shards
        )

    def test_fallback_observation_routed_to_planning_shard(self, clear_caches):
        # A fallback-served plan carries the *resolved* routine; its
        # observation must still land on the shard the request was routed
        # by (the requested key), i.e. the shard that planned it.
        frontend = ShardedFrontend.from_bundle(clear_caches, n_shards=3)
        with frontend:
            plan = frontend.plan("sgemm", m=64, k=64, n=64)
        assert plan.fallback_from == "sgemm"  # served by the dgemm model
        frontend.record_observation(plan, abs(plan.predicted_time) + 1.0)
        observations = [
            telemetry.n_observations
            for shard in frontend.shards
            for telemetry in [shard.engine.telemetry.routines.get("dgemm")]
            if telemetry is not None
        ]
        planned = [shard.engine.telemetry.n_requests for shard in frontend.shards]
        assert sum(observations) == 1
        assert planned[planned.index(1)] == 1  # exactly one shard planned it
        planning_shard = frontend.shards[planned.index(1)]
        assert (
            planning_shard.engine.telemetry.routines["dgemm"].n_observations == 1
        )

    def test_stats_report_backend_and_worker_identity(self, clear_caches):
        """Thread-backend stats name the backend, worker thread and pid."""
        import os

        frontend = ShardedFrontend.from_bundle(clear_caches, n_shards=2)
        with frontend:
            frontend.plan("dgemm", m=128, k=64, n=32)
            stats = frontend.stats()
        assert stats["backend"] == "thread"
        per_shard = stats["per_shard"]
        assert [entry["backend"] for entry in per_shard] == ["thread", "thread"]
        assert [entry["worker"] for entry in per_shard] == [
            "adsala-shard-0",
            "adsala-shard-1",
        ]
        # Thread shards execute in this very process.
        assert [entry["pid"] for entry in per_shard] == [os.getpid()] * 2

    def test_reinstall_candidates_union(self, clear_caches):
        bundle = clear_caches
        frontend = ShardedFrontend.from_bundle(bundle, n_shards=2)
        # Drive enough drifted observations into whichever shards serve
        # these shapes to trip the per-shard drift flags.
        workload = generate_workload(
            ["dgemm"], 120, distribution="cycling", seed=47, pool_size=4
        )
        plans = frontend.plan_many(request.as_tuple() for request in workload)
        for plan in plans:
            frontend.record_observation(plan, abs(plan.predicted_time) * 10 + 1.0)
        assert frontend.reinstall_candidates() == ["dgemm"]
