"""Tests for the process shard backend (:mod:`repro.serving.procshard`).

Promotes the PR 5 stress-equivalence suite to worker processes: whatever
the shard count and client thread count, the process backend produces
exactly one plan per request id, each bit-identical (routine, dims,
threads, predicted/baseline times, fallback policy) to a sequential
single-engine replay — only ``from_cache`` may differ, since each worker
warms its own LRU.  On top of that: both source kinds (in-memory bundle,
bundle directory) through the one engine constructor, before and after a
supervised restart; the parent's bundle staying untouched; the native
kernel built once for all workers; and worker-death behaviour (clear
errors, never hangs).
"""

import dataclasses
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.machine.simulator import TimingSimulator
from repro.machine.topology import apply_calibration
from repro.ml import _native
from repro.serving.engine import ServingEngine, normalize_request
from repro.serving.frontend import ShardedFrontend
from repro.serving.procshard import ProcessShard, export_source_spec
from repro.serving.registry import BundleHandle
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


def _kill_worker(shard: ProcessShard) -> int:
    """SIGKILL a shard's live worker and wait until it is truly gone."""
    pid = shard.worker_pid
    assert pid is not None and pid != os.getpid()
    os.kill(pid, signal.SIGKILL)
    shard._proc.join(timeout=10)
    return pid


class TestProcessStressEquivalence:
    def test_exactly_one_plan_per_request_id_matching_sequential(
        self, clear_caches
    ):
        """4 clients x 2 worker-process shards: lossless and bit-identical."""
        bundle = clear_caches
        n_clients, per_client = 4, 100
        workload = generate_workload(
            ["dgemm", "dsyrk"],
            n_clients * per_client,
            distribution="skewed",
            seed=29,
            pool_size=12,
        )
        reference = _sequential_reference(bundle, workload)

        frontend = ShardedFrontend.from_bundle(
            bundle, n_shards=2, backend="process", max_pending=256
        )
        results = [None] * len(workload)
        ids = [None] * len(workload)

        def client(client_index):
            pending = []
            for slot in range(client_index, len(workload), n_clients):
                request = workload[slot]
                future = frontend.submit(request.routine, **request.dims)
                pending.append((slot, future))
            for slot, future in pending:
                results[slot] = future.result(timeout=120)
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
        assert stats["backend"] == "process"
        assert stats["requests"] == len(workload)
        assert stats["admission"]["shed"] == 0
        assert stats["admission"]["in_flight"] == 0
        # Bit-identical to the sequential single-engine replay, per request.
        for slot in range(len(workload)):
            assert _plan_key(results[slot]) == _plan_key(reference[slot]), slot

    def test_plan_many_matches_sequential_in_order(self, clear_caches):
        bundle = clear_caches
        workload = generate_workload(
            ["dgemm", "dsyrk"], 120, distribution="cycling", seed=31, pool_size=9
        )
        reference = _sequential_reference(bundle, workload)
        frontend = ShardedFrontend.from_bundle(bundle, 2, backend="process")
        with frontend:
            plans = frontend.plan_many(
                request.as_tuple() for request in workload
            )
        assert [_plan_key(p) for p in plans] == [_plan_key(p) for p in reference]

    def test_fallback_plans_served_identically(self, clear_caches):
        """Cross-precision fallback resolves inside the worker too."""
        frontend = ShardedFrontend.from_bundle(clear_caches, 1, backend="process")
        with frontend:
            plan = frontend.plan("sgemm", m=64, k=64, n=64)
        assert plan.fallback_from == "sgemm"
        assert plan.routine == "dgemm"
        assert plan.policy == "cross-precision"


class TestSourceKindsAndRestarts:
    """Workers open the source themselves; nothing about the plans changes."""

    @pytest.mark.parametrize("kind", ["bundle", "directory"])
    def test_both_source_kinds_match_threads_and_sequential_across_a_restart(
        self, clear_caches, saved_bundle_dir, kind
    ):
        workload = generate_workload(
            ["dgemm", "dsyrk"], 160, distribution="skewed", seed=83, pool_size=10
        )
        stream = [request.as_tuple() for request in workload]
        if kind == "bundle":
            reference = _sequential_reference(clear_caches, workload)

            def make(backend):
                return ShardedFrontend.from_bundle(
                    clear_caches, n_shards=2, backend=backend
                )
        else:
            reference = ServingEngine(BundleHandle(saved_bundle_dir)).plan_many(stream)

            def make(backend):
                return ShardedFrontend.from_directory(
                    saved_bundle_dir, n_shards=2, backend=backend
                )

        expected = [_plan_key(plan) for plan in reference]
        with make("process") as frontend:
            half = len(stream) // 2
            plans = frontend.plan_many(stream[:half])
            _kill_worker(frontend.shards[0])
            plans += frontend.plan_many(stream[half:])
            # The replacement worker answers the whole stream again.
            replayed = frontend.plan_many(stream)
            supervision = frontend.stats()["supervision"]
        assert supervision["restarts"] >= 1
        assert supervision["quarantined"] == []
        assert [_plan_key(plan) for plan in plans] == expected
        assert [_plan_key(plan) for plan in replayed] == expected
        with make("thread") as frontend:
            threaded = frontend.plan_many(stream)
        assert [_plan_key(plan) for plan in threaded] == expected

    def test_parent_bundle_is_not_touched_by_process_serving(self, clear_caches):
        bundle = clear_caches

        def fingerprint():
            return (
                bundle.simulator.n_evaluations,
                {
                    key: (
                        installation.predictor.cache_info(),
                        installation.predictor.n_model_evaluations,
                    )
                    for key, installation in bundle.routines.items()
                },
            )

        before = fingerprint()
        workload = generate_workload(
            ["dgemm", "dsyrk"], 80, distribution="cycling", seed=89, pool_size=6
        )
        with ShardedFrontend.from_bundle(bundle, 2, backend="process") as frontend:
            plans = frontend.plan_many(request.as_tuple() for request in workload)
            stats = frontend.stats()
        assert len(plans) == len(workload)
        assert stats["cache"]["model_evaluations"] > 0  # the workers did the work
        assert fingerprint() == before

    def test_simulator_settings_and_calibrated_platform_cross_intact(
        self, clear_caches
    ):
        platform = apply_calibration(
            clear_caches.platform, {"clock_ghz": 0.7, "sync_cost_per_thread": 1.6}
        )
        tuned = dataclasses.replace(
            clear_caches,
            platform=platform,
            simulator=TimingSimulator(
                platform, seed=3, noise_level=0.11, patch_probability=0.2
            ),
        )
        workload = generate_workload(
            ["dgemm", "dsyrk"], 48, distribution="cycling", seed=97, pool_size=12
        )
        stock = [_plan_key(p) for p in _sequential_reference(clear_caches, workload)]
        expected = [_plan_key(p) for p in _sequential_reference(tuned, workload)]
        assert expected != stock  # the settings do reach the plans
        with ShardedFrontend.from_bundle(tuned, 2, backend="process") as frontend:
            plans = frontend.plan_many(request.as_tuple() for request in workload)
        assert [_plan_key(plan) for plan in plans] == expected

    def test_workers_reuse_the_one_native_build(
        self, clear_caches, tmp_path, monkeypatch
    ):
        """Empty cache, two workers: one compile, no race, same evaluate path."""
        parent_path = clear_caches.predictor("dgemm").compile().path
        cache = tmp_path / "native-cache"
        cache.mkdir(mode=0o700)
        monkeypatch.setenv("ADSALA_NATIVE_CACHE", str(cache))  # workers inherit it
        if _native.library_path() is None:
            pytest.skip("no C compiler (or ADSALA_NATIVE=0): nothing to build")
        workload = generate_workload(
            ["dgemm", "dsyrk"], 64, distribution="uniform", seed=101
        )
        with ShardedFrontend.from_bundle(clear_caches, 2, backend="process") as frontend:
            frontend.plan_many(request.as_tuple() for request in workload)
            per_shard = [shard.stats()["cache"] for shard in frontend.shards]
        assert [entry.name for entry in cache.iterdir()] == [
            f"kernels_{_native._source_digest()}.so"
        ]  # one library, no leftover build directory
        for snapshot in per_shard:
            assert snapshot["routines"]  # both workers served traffic
            for entry in snapshot["routines"].values():
                assert entry["evaluate_path"] == parent_path


class TestWorkerDeath:
    def _live_shard(self, bundle) -> ProcessShard:
        spec = export_source_spec(bundle, max_batch_size=16)
        shard = ProcessShard(0, spec)
        request = normalize_request("dgemm", {"m": 64, "k": 32, "n": 16}, 0)
        shard._dispatch([request])  # launches the worker
        return shard

    def test_killed_worker_surfaces_clear_error_not_hang(self, clear_caches):
        shard = self._live_shard(clear_caches)
        try:
            pid = _kill_worker(shard)
            request = normalize_request("dgemm", {"m": 80, "k": 40, "n": 20}, 1)
            start = time.perf_counter()
            with pytest.raises(RuntimeError, match=f"pid {pid}.*died"):
                shard._dispatch([request])
            assert time.perf_counter() - start < 30  # an error, not a hang
        finally:
            shard.stop()

    def test_stats_query_survives_the_worker_dying_under_it(self, clear_caches):
        # Found by the stateful frontend test: a scrape that raced a kill
        # raised WorkerDiedError out of frontend.stats().  The query now
        # answers the empty snapshot and leaves recovery to the next batch.
        shard = self._live_shard(clear_caches)
        try:
            assert shard.stats()["requests"] == 1
            _kill_worker(shard)
            snapshot = shard.stats()
            assert snapshot["requests"] == 0 and snapshot["routines"] == {}
            request = normalize_request("dgemm", {"m": 80, "k": 40, "n": 20}, 1)
            with pytest.raises(RuntimeError, match="died"):
                shard._dispatch([request])  # the failure still reaches recovery
        finally:
            shard.stop()

    def test_futures_resolve_with_error_after_kill(self, clear_caches):
        # supervise=False restores the fail-fast contract this test pins
        # down; the supervised recovery path is covered in test_supervisor.
        frontend = ShardedFrontend.from_bundle(
            clear_caches, 1, backend="process", supervise=False
        )
        with frontend:
            assert frontend.plan("dgemm", m=64, k=64, n=64).threads >= 1
            _kill_worker(frontend.shards[0])
            future = frontend.submit("dgemm", m=96, k=48, n=24)
            with pytest.raises(RuntimeError, match="died"):
                future.result(timeout=60)

    def test_close_after_dead_worker_is_idempotent(self, clear_caches):
        shard = self._live_shard(clear_caches)
        _kill_worker(shard)
        shard.stop()  # must not raise or hang on the corpse
        shard.stop()
        # Post-mortem stats answer with an empty snapshot of the live
        # engine's schema, nested cache block included.
        snapshot = shard.stats()
        assert snapshot["requests"] == 0
        assert snapshot["routines"] == {}
        assert snapshot["cache"]["cache_hits"] == 0
        assert snapshot["reinstall_candidates"] == []
        live = ServingEngine(clear_caches).stats()
        assert snapshot.keys() == live.keys()
        assert snapshot["cache"].keys() == live["cache"].keys()
        assert snapshot["cache"]["timing"].keys() == live["cache"]["timing"].keys()
        assert snapshot["fallback_chain"] == live["fallback_chain"]
        assert shard.pending == 0

    def test_observations_after_death_are_dropped_not_fatal(self, clear_caches):
        shard = self._live_shard(clear_caches)
        try:
            request = normalize_request("dgemm", {"m": 64, "k": 32, "n": 16}, 2)
            (plan,) = shard._dispatch([request])
            _kill_worker(shard)
            shard.stop()
            shard.record_observation(plan, plan.predicted_time * 1.2)  # no-op
        finally:
            shard.stop()


class TestCloseEscalation:
    def test_close_escalates_to_kill_when_worker_ignores_stop(self, clear_caches):
        """Regression for the stop() backstop: a worker that ignores both the
        STOP frame and SIGTERM must be SIGKILLed within the bounded join
        budget — close() may be slow, but it must never hang forever."""
        spec = export_source_spec(
            clear_caches,
            max_batch_size=8,
            worker_faults={"ignore_stop": True},
        )
        shard = ProcessShard(0, spec, stop_timeout=0.5)
        request = normalize_request("dgemm", {"m": 64, "k": 32, "n": 16}, 0)
        (plan,) = shard._dispatch([request])  # worker up and serving
        assert plan.threads >= 1
        start = time.perf_counter()
        shard.stop()
        elapsed = time.perf_counter() - start
        assert elapsed < 30  # 3 bounded joins, not an unbounded hang
        assert shard.stop_escalation == "kill"

    def test_clean_close_does_not_escalate(self, clear_caches):
        spec = export_source_spec(clear_caches, max_batch_size=8)
        shard = ProcessShard(0, spec)
        request = normalize_request("dgemm", {"m": 64, "k": 32, "n": 16}, 0)
        shard._dispatch([request])
        shard.stop()
        assert shard.stop_escalation is None

    def test_double_close_is_idempotent(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(clear_caches, 2, backend="process")
        with frontend:
            frontend.plan("dgemm", m=96, k=48, n=24)
        frontend.close()
        for shard in frontend.shards:
            shard.stop()  # belt and braces: still a no-op
            assert shard.worker_pid is None
        assert frontend.stats()["requests"] == 1  # final snapshot survives

    def test_restart_on_closed_shard_raises(self, clear_caches):
        spec = export_source_spec(clear_caches, max_batch_size=8)
        shard = ProcessShard(0, spec)
        shard.stop()
        with pytest.raises(RuntimeError, match="closed"):
            shard.restart()


class TestStatsAndAttribution:
    def test_per_shard_pids_are_distinct_worker_processes(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(clear_caches, 2, backend="process")
        workload = generate_workload(
            ["dgemm", "dsyrk"], 60, distribution="skewed", seed=61, pool_size=16
        )
        with frontend:
            frontend.plan_many(request.as_tuple() for request in workload)
            stats = frontend.stats()
        per_shard = stats["per_shard"]
        assert [entry["backend"] for entry in per_shard] == ["process"] * 2
        assert [entry["worker"] for entry in per_shard] == [
            "adsala-procshard-0",
            "adsala-procshard-1",
        ]
        pids = [entry["pid"] for entry in per_shard]
        assert all(isinstance(pid, int) for pid in pids)
        assert len(set(pids)) == 2  # two real workers...
        assert os.getpid() not in pids  # ...neither of them us

    def test_observations_reach_worker_telemetry(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(clear_caches, 2, backend="process")
        workload = generate_workload(
            ["dgemm", "dsyrk"], 40, distribution="cycling", seed=67, pool_size=8
        )
        with frontend:
            plans = frontend.plan_many(
                request.as_tuple() for request in workload
            )
            for plan in plans:
                frontend.record_observation(plan, plan.predicted_time * 1.1)
            stats = frontend.stats()
        observations = sum(
            entry["observations"] for entry in stats["routines"].values()
        )
        assert observations == len(workload)
        for entry in stats["routines"].values():
            assert entry["mean_abs_rel_error"] == pytest.approx(
                0.1 / 1.1, rel=1e-6
            )

    def test_drifted_workers_flag_reinstall_candidates(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(
            clear_caches, 2, backend="process", drift_threshold=0.25
        )
        workload = generate_workload(
            ["dgemm"], 120, distribution="cycling", seed=47, pool_size=4
        )
        with frontend:
            plans = frontend.plan_many(
                request.as_tuple() for request in workload
            )
            for plan in plans:
                frontend.record_observation(
                    plan, abs(plan.predicted_time) * 10 + 1.0
                )
            assert frontend.reinstall_candidates() == ["dgemm"]
        # The final pre-stop snapshot keeps answering after close.
        assert frontend.reinstall_candidates() == ["dgemm"]

    def test_stats_survive_close(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(clear_caches, 2, backend="process")
        workload = generate_workload(
            ["dgemm", "dsyrk"], 30, distribution="skewed", seed=71
        )
        with frontend:
            frontend.plan_many(request.as_tuple() for request in workload)
        stats = frontend.stats()
        assert stats["requests"] == len(workload)
        assert stats["backend"] == "process"


class TestConstructionValidation:
    def test_prebuilt_engines_rejected(self, clear_caches):
        engine = ServingEngine(clear_caches)
        with pytest.raises(ValueError, match="worker process"):
            ShardedFrontend([engine], backend="process")

    def test_unknown_backend_rejected(self, clear_caches):
        with pytest.raises(ValueError, match="backend"):
            ShardedFrontend([clear_caches], backend="greenlet")

    def test_shared_source_allowed_for_process_backend(self, clear_caches):
        # The thread backend rejects shared sources; the process backend
        # *expects* them (one spec, N workers that each open it).
        frontend = ShardedFrontend(
            [clear_caches, clear_caches], backend="process"
        )
        assert frontend.n_shards == 2
        frontend.close()

    def test_closed_shard_rejects_new_batches(self, clear_caches):
        spec = export_source_spec(clear_caches)
        shard = ProcessShard(0, spec)
        shard.stop()
        request = normalize_request("dgemm", {"m": 64, "k": 32, "n": 16}, 0)
        with pytest.raises(RuntimeError, match="closed"):
            shard._dispatch([request])


class TestWireCodec:
    def test_request_roundtrip_preserves_everything(self):
        from repro.serving.procshard import decode_requests, encode_requests
        from repro.serving.procshard import _parse_frame

        requests = [
            normalize_request("dgemm", {"m": 64, "k": 32, "n": 16}, 5),
            normalize_request("dsyrk", {"n": 48, "k": 24}, 9),
            normalize_request("strsm", {"m": 1 << 12, "n": 96}, 12),
        ]
        kind, count, payload = _parse_frame(encode_requests(requests))
        decoded = decode_requests(count, payload)
        assert [(r.request_id, r.routine, r.dims, r.dims_key) for r in decoded] == [
            (r.request_id, r.routine, r.dims, r.dims_key) for r in requests
        ]

    def test_plan_roundtrip_is_bit_exact(self):
        from repro.core.runtime import ExecutionPlan
        from repro.serving.procshard import decode_plans, encode_plans
        from repro.serving.procshard import _parse_frame

        requests = [
            normalize_request("dgemm", {"m": 64, "k": 32, "n": 16}, 0),
            normalize_request("sgemm", {"m": 8, "k": 8, "n": 8}, 1),
        ]
        plans = [
            ExecutionPlan(
                routine="dgemm",
                dims=requests[0].dims,
                threads=4,
                predicted_time=np.float64(1.2345678901234e-4),
                baseline_time=np.float64(9.8765432109876e-4),
                from_cache=True,
            ),
            ExecutionPlan(
                routine="dgemm",
                dims=requests[1].dims,
                threads=2,
                predicted_time=3.14e-5,
                baseline_time=2.71e-5,
                from_cache=False,
                fallback_from="sgemm",
                policy="cross-precision",
            ),
        ]
        _, count, payload = _parse_frame(encode_plans(plans))
        decoded = decode_plans(count, payload, requests)
        for original, clone in zip(plans, decoded):
            assert clone.routine == original.routine
            assert clone.dims == original.dims
            assert clone.threads == original.threads
            assert clone.predicted_time == original.predicted_time  # bit-exact
            assert clone.baseline_time == original.baseline_time
            assert clone.from_cache == original.from_cache
            assert clone.fallback_from == original.fallback_from
            assert clone.policy == original.policy
