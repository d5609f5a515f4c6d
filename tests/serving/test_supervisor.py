"""Tests for shard supervision: restarts, deadlines, quarantine, hangs.

The fault-tolerance contract on top of the PR 5/6 equivalence tradition:
whatever the supervisor does to keep shards alive — restart, redispatch,
reroute — every submitted request is answered **exactly once**, and every
answer is bit-identical to what a healthy sequential replay would have
produced.  Deadlines bound how long a caller can be made to wait for that
answer; quarantine bounds how long a dying shard can hog its key range.
"""

import copy
import os
import signal
import threading
import time

import pytest

from repro.serving import (
    DeadlineExceededError,
    FaultInjector,
    NoHealthyShardError,
    RestartPolicy,
    ShardedFrontend,
    ShardFailure,
    ShardSupervisor,
)
from repro.serving.engine import ServingEngine, normalize_request
from repro.serving.shard import EngineShard


def _kill_worker(shard) -> int:
    """SIGKILL a process shard's live worker and wait until it is gone."""
    pid = shard.worker_pid
    assert pid is not None and pid != os.getpid()
    os.kill(pid, signal.SIGKILL)
    shard._proc.join(timeout=10)
    return pid


def _fast_policy(**overrides):
    """A RestartPolicy tuned for test speed (tiny backoff).

    ``hang_timeout`` stays generous: it must comfortably exceed worker
    *spawn* time (~1.5s for a process shard), or the liveness monitor
    SIGKILLs replacements while they are still importing.
    """
    defaults = dict(
        backoff_base=0.005,
        backoff_cap=0.02,
        hang_timeout=30.0,
        health_interval=0.05,
    )
    defaults.update(overrides)
    return RestartPolicy(**defaults)


def _always_failing(shard, exc_text="synthetic transport failure"):
    """Monkeypatch a shard so every dispatch raises a recoverable failure."""

    def broken(requests):
        raise ShardFailure(exc_text)

    shard._execute_batch = broken


class TestRestartPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_consecutive_failures"):
            RestartPolicy(max_consecutive_failures=0)
        with pytest.raises(ValueError, match="hang_timeout"):
            RestartPolicy(hang_timeout=0)
        with pytest.raises(ValueError, match="backoff"):
            RestartPolicy(backoff_base=-0.1)

    def test_backoff_doubles_then_caps(self):
        policy = RestartPolicy(backoff_base=0.1, backoff_cap=0.35)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.35)  # capped, not 0.4
        assert policy.backoff(10) == pytest.approx(0.35)

    def test_monitor_interval_defaults_to_quarter_of_hang_timeout(self):
        assert RestartPolicy(hang_timeout=2.0).monitor_interval == pytest.approx(0.5)
        assert RestartPolicy(hang_timeout=100.0).monitor_interval == 1.0  # bounded
        assert RestartPolicy(health_interval=0.07).monitor_interval == 0.07

    def test_supervisor_needs_shards(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardSupervisor([])


class TestDeadlines:
    def test_expired_request_is_shed_with_named_error(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(clear_caches, 1)
        with frontend:
            frontend.plan("dgemm", m=64, k=64, n=64)
            future = frontend.submit("dgemm", timeout=1e-9, m=96, k=48, n=24)
            with pytest.raises(DeadlineExceededError) as excinfo:
                future.result(timeout=30)
            message = str(excinfo.value)
            assert f"request {future.request_id}" in message
            assert "shard 0" in message
            stats = frontend.stats()
        assert stats["supervision"]["deadline_expired"] == 1
        # A shed request is still *completed*: its admission slot came back.
        assert stats["admission"]["in_flight"] == 0

    def test_result_timeout_names_request_and_shard(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(clear_caches, 1)
        gate = threading.Event()
        original = frontend.shards[0]._execute_batch

        def gated(requests):
            gate.wait(timeout=30)
            return original(requests)

        frontend.shards[0]._execute_batch = gated
        with frontend:
            future = frontend.submit("dgemm", m=64, k=64, n=64)
            with pytest.raises(DeadlineExceededError) as excinfo:
                future.result(timeout=0.05)
            assert f"request {future.request_id}" in str(excinfo.value)
            assert "shard 0" in str(excinfo.value)
            gate.set()
            assert future.result(timeout=30).threads >= 1

    def test_plan_timeout_is_end_to_end(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(clear_caches, 1)
        with frontend:
            with pytest.raises(DeadlineExceededError):
                frontend.plan("dgemm", timeout=1e-9, m=64, k=64, n=64)

    def test_plan_many_deadline(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(clear_caches, 2)
        with frontend:
            with pytest.raises(DeadlineExceededError) as excinfo:
                frontend.plan_many(
                    [("dgemm", {"m": 64 + i, "k": 32, "n": 16}) for i in range(8)],
                    timeout=1e-9,
                )
            # The first request of the stream, and the shard it was routed to.
            assert "request 0 " in str(excinfo.value)
            assert "shard " in str(excinfo.value)
            # The rest of the stream is shed by the drain loops, not leaked:
            # every admission slot comes back.
            deadline = time.monotonic() + 30
            while frontend.in_flight:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            stats = frontend.stats()
            assert stats["admission"]["submitted"] == 8
            assert stats["supervision"]["deadline_expired"] >= 1
            assert stats["pending"] == 0
            # And without a timeout the same stream is fine.
            plans = frontend.plan_many(
                [("dgemm", {"m": 64 + i, "k": 32, "n": 16}) for i in range(8)]
            )
            assert len(plans) == 8

    def test_timeout_must_be_positive(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(clear_caches, 1)
        with frontend:
            with pytest.raises(ValueError, match="timeout must be positive"):
                frontend.submit("dgemm", timeout=0, m=64, k=64, n=64)
            with pytest.raises(ValueError, match="timeout must be positive"):
                frontend.plan_many([("dgemm", {"m": 64, "k": 64, "n": 64})], timeout=-1)


class TestKillRecovery:
    def test_process_shard_restarts_after_kill(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(
            clear_caches,
            1,
            backend="process",
            restart_policy=_fast_policy(),
        )
        with frontend:
            before = frontend.plan("dgemm", m=64, k=64, n=64)
            first_pid = frontend.shards[0].worker_pid
            _kill_worker(frontend.shards[0])
            # The very next submission rides through restart + redispatch.
            after = frontend.submit("dgemm", m=64, k=64, n=64).result(timeout=60)
            assert after.threads == before.threads
            assert frontend.shards[0].worker_pid != first_pid
            snapshot = frontend.supervisor.snapshot()
        assert snapshot["failures"] >= 1
        assert snapshot["restarts"] >= 1
        assert snapshot["redispatched"] >= 1
        assert snapshot["quarantined"] == []
        assert snapshot["recovery_episodes"] >= 1
        assert snapshot["recovery_max_s"] > 0.0

    def test_explicit_restart_revives_a_dead_shard(self, clear_caches):
        from repro.serving import WorkerDiedError
        from repro.serving.procshard import export_source_spec, ProcessShard

        spec = export_source_spec(clear_caches, max_batch_size=8)
        shard = ProcessShard(0, spec)
        try:
            request = normalize_request("dgemm", {"m": 64, "k": 32, "n": 16}, 0)
            (healthy,) = shard._dispatch([request])
            _kill_worker(shard)
            with pytest.raises(WorkerDiedError):
                shard._dispatch([request])
            shard.restart()
            (revived,) = shard._dispatch([request])
            assert revived.threads == healthy.threads
        finally:
            shard.stop()


class TestQuarantine:
    def test_failing_shard_quarantines_and_reroutes(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(
            clear_caches,
            2,
            restart_policy=_fast_policy(max_consecutive_failures=2),
        )
        # Which shard does dgemm 64/64/64 land on?  Break exactly that one.
        probe = normalize_request("dgemm", {"m": 64, "k": 64, "n": 64}, 0)
        from repro.serving.shard import shard_index

        victim = shard_index(probe.routine, probe.dims_key, 2)
        survivor = 1 - victim
        _always_failing(frontend.shards[victim])
        with frontend:
            with pytest.warns(RuntimeWarning, match=f"shard {victim} quarantined"):
                plan = frontend.plan("dgemm", m=64, k=64, n=64)
            assert plan.threads >= 1
            # The answer came from the survivor, not the broken shard.
            assert frontend.shards[survivor].n_requests_drained >= 1
            # Subsequent traffic for the dark key range routes straight there.
            again = frontend.submit("dgemm", m=64, k=64, n=64)
            assert again.shard == survivor
            assert again.result(timeout=30).threads == plan.threads
            snapshot = frontend.supervisor.snapshot()
        assert snapshot["quarantined"] == [victim]
        assert snapshot["healthy_shards"] == 1
        per_victim = snapshot["per_shard"][victim]
        # Every request the victim ever saw is accounted for: failures on
        # the broken dispatches, a redispatch for the stranded batch, and a
        # reroute for the follow-up submission.
        assert per_victim["failures"] > 2  # tripped the breaker
        assert per_victim["redispatched"] >= 1
        assert per_victim["rerouted"] >= 1
        assert per_victim["last_error"]

    def test_observation_follows_the_reroute(self, clear_caches):
        # The survivor planned the request, so its drift window must see
        # the observation — not the quarantined primary's — and recording
        # it is not another reroute.
        frontend = ShardedFrontend.from_bundle(
            clear_caches, 2, restart_policy=_fast_policy(max_consecutive_failures=1)
        )
        from repro.serving.shard import shard_index

        probe = normalize_request("dgemm", {"m": 64, "k": 64, "n": 64}, 0)
        victim = shard_index(probe.routine, probe.dims_key, 2)
        _always_failing(frontend.shards[victim])
        with frontend:
            with pytest.warns(RuntimeWarning, match=f"shard {victim} quarantined"):
                plan = frontend.plan("dgemm", m=64, k=64, n=64)
            rerouted = frontend.supervisor.snapshot()["per_shard"][victim]["rerouted"]
            frontend.record_observation(plan, plan.predicted_time * 2.0)
            windows = [
                shard.engine.telemetry.routines.get("dgemm") for shard in frontend.shards
            ]
            assert windows[victim] is None or windows[victim].n_observations == 0
            assert len(windows[1 - victim].errors) == 1
            assert windows[1 - victim].n_observations == 1
            snapshot = frontend.supervisor.snapshot()
        assert snapshot["per_shard"][victim]["rerouted"] == rerouted

    def test_no_healthy_shard_fails_loudly(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(
            clear_caches,
            1,
            restart_policy=_fast_policy(max_consecutive_failures=1),
        )
        _always_failing(frontend.shards[0])
        with frontend:
            with pytest.warns(RuntimeWarning, match="quarantined"):
                future = frontend.submit("dgemm", m=64, k=64, n=64)
                with pytest.raises(NoHealthyShardError) as excinfo:
                    future.result(timeout=30)
            # The original transport failure rides along as the cause.
            assert isinstance(excinfo.value.__cause__, ShardFailure)
            # With the breaker open, later submissions fail synchronously
            # (and give their admission slot back).
            with pytest.raises(NoHealthyShardError):
                frontend.submit("dgemm", m=64, k=64, n=64)
            stats = frontend.stats()
        assert stats["admission"]["in_flight"] == 0
        assert stats["supervision"]["healthy_shards"] == 0

    def test_plan_many_reroutes_around_quarantine(self, clear_caches):
        stream = [("dgemm", {"m": 64 + i, "k": 32, "n": 16}) for i in range(12)]
        reference = ServingEngine(copy.deepcopy(clear_caches)).plan_many(stream)
        frontend = ShardedFrontend.from_bundle(
            clear_caches,
            2,
            restart_policy=_fast_policy(max_consecutive_failures=1),
        )
        _always_failing(frontend.shards[0])
        with frontend:
            with pytest.warns(RuntimeWarning, match="quarantined"):
                plans = frontend.plan_many(stream)
            snapshot = frontend.supervisor.snapshot()
            stats = frontend.stats()
        # Request order and every field survive the reroute (twelve distinct
        # shapes on cold caches, so the from_cache flags agree too).
        assert plans == reference
        assert snapshot["quarantined"] == [0]
        assert snapshot["redispatched"] >= 1
        assert stats["admission"]["in_flight"] == 0

    def test_plan_many_with_no_healthy_shard_fails_loudly(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(
            clear_caches,
            2,
            restart_policy=_fast_policy(max_consecutive_failures=1),
        )
        for shard in frontend.shards:
            _always_failing(shard)
        with frontend:
            with pytest.warns(RuntimeWarning, match="quarantined"):
                with pytest.raises(NoHealthyShardError):
                    frontend.plan_many(
                        [("dgemm", {"m": 64 + i, "k": 32, "n": 16}) for i in range(12)]
                    )
            deadline = time.monotonic() + 30
            while frontend.in_flight:  # the rest of the stream fails too
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert frontend.supervisor.snapshot()["healthy_shards"] == 0

    def test_unsupervised_failure_surfaces_from_plan_many(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(clear_caches, 2, supervise=False)
        _always_failing(frontend.shards[0], "synthetic transport failure")
        with frontend:
            with pytest.raises(ShardFailure, match="synthetic transport failure"):
                frontend.plan_many(
                    [("dgemm", {"m": 64 + i, "k": 32, "n": 16}) for i in range(12)]
                )
        assert frontend.in_flight == 0  # close() drained the healthy shard


class TestHangRecovery:
    def test_hung_thread_shard_is_abandoned_and_replaced(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(
            clear_caches,
            1,
            restart_policy=_fast_policy(hang_timeout=0.3, health_interval=0.05),
        )
        shard = frontend.shards[0]
        release = threading.Event()
        hung_once = threading.Event()
        original = shard._execute_batch

        def hang_first_batch(requests):
            if not hung_once.is_set():
                hung_once.set()
                release.wait(timeout=30)  # wedge the first drain worker
            return original(requests)

        shard._execute_batch = hang_first_batch
        try:
            with frontend:
                future = frontend.submit("dgemm", m=64, k=64, n=64)
                # The monitor must declare the hang and answer the request
                # on a replacement worker while the zombie stays wedged.
                plan = future.result(timeout=30)
                assert plan.threads >= 1
                snapshot = frontend.supervisor.snapshot()
                assert snapshot["hangs"] >= 1
                assert snapshot["restarts"] >= 1
                assert snapshot["redispatched"] >= 1
                # The wedged engine was swapped out, not reused.
                release.set()
        finally:
            release.set()

    def test_monitor_thread_lifecycle(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(clear_caches, 1)
        with frontend:
            frontend.plan("dgemm", m=64, k=64, n=64)
            monitor = frontend.supervisor._monitor
            assert monitor is not None and monitor.is_alive()
        assert frontend.supervisor._monitor is None

    def test_stalled_for_tracks_oldest_inflight(self, clear_caches):
        engine = ServingEngine(clear_caches)
        shard = EngineShard(0, engine)
        assert shard.stalled_for() is None
        token = object()
        with shard._inflight_lock:
            shard._inflight[token] = (time.monotonic() - 5.0, None)
        try:
            assert shard.stalled_for() == pytest.approx(5.0, abs=0.5)
        finally:
            with shard._inflight_lock:
                shard._inflight.pop(token)


class TestObservability:
    def test_stats_supervision_block(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(
            clear_caches, 2, injector=FaultInjector("slow:1", seed=0, horizon=4)
        )
        with frontend:
            frontend.plan("dgemm", m=64, k=64, n=64)
            stats = frontend.stats()
        supervision = stats["supervision"]
        assert supervision["healthy_shards"] == 2
        assert supervision["quarantined"] == []
        assert supervision["policy"]["max_consecutive_failures"] >= 1
        assert len(supervision["per_shard"]) == 2
        for entry in supervision["per_shard"]:
            assert entry["deadline_expired"] == 0
            assert entry["duplicate_answers"] == 0
        assert supervision["injected"]["spec"] == {"slow": 1}

    def test_unsupervised_frontend_reports_none(self, clear_caches):
        frontend = ShardedFrontend.from_bundle(clear_caches, 1, supervise=False)
        with frontend:
            frontend.plan("dgemm", m=64, k=64, n=64)
            stats = frontend.stats()
        assert stats["supervision"] is None
        assert frontend.supervisor is None
