"""Tests for the seeded fault-injection harness and chaos equivalence.

The chaos extension of the PR 5/6 stress-equivalence suites: with worker
kills and frame corruption injected mid-traffic from a seeded schedule,
the supervised frontend must still answer **every request id exactly
once**, each plan **bit-identical** to a sequential single-engine replay —
zero lost, zero duplicated, zero wrong.
"""

import threading

import pytest

from repro.serving import (
    FaultInjector,
    InjectedFault,
    RestartPolicy,
    ShardedFrontend,
    parse_fault_spec,
)
from repro.serving.engine import ServingEngine
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


def _chaos_policy():
    """Fast backoff; hang_timeout still far above worker spawn time."""
    return RestartPolicy(backoff_base=0.005, backoff_cap=0.02, hang_timeout=30.0)


class TestParseFaultSpec:
    def test_counts(self):
        assert parse_fault_spec("kill:3,hang:1") == {"kill": 3, "hang": 1}

    def test_bare_kind_means_one(self):
        assert parse_fault_spec("kill") == {"kill": 1}

    def test_repeated_kind_accumulates(self):
        assert parse_fault_spec("kill:2,kill:3") == {"kill": 5}

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind 'explode'"):
            parse_fault_spec("explode:1")

    def test_removed_shm_kind_fails_naming_the_remaining_kinds(self):
        with pytest.raises(ValueError, match="unknown fault kind 'shm'") as caught:
            parse_fault_spec("shm:1")
        for kind in ("kill", "hang", "corrupt", "slow"):
            assert kind in str(caught.value)
        with pytest.raises(ValueError, match="unknown fault kind 'shm'"):
            FaultInjector({"shm": 1})

    def test_bad_count(self):
        with pytest.raises(ValueError, match="must be an integer"):
            parse_fault_spec("kill:lots")
        with pytest.raises(ValueError, match="non-negative"):
            parse_fault_spec("kill:-1")

    def test_empty_spec(self):
        with pytest.raises(ValueError, match="empty fault spec"):
            parse_fault_spec("  ,  ")


class TestSchedule:
    def test_same_seed_same_schedule(self):
        first = FaultInjector("kill:4,hang:2,slow:3", seed=13, horizon=50)
        second = FaultInjector("kill:4,hang:2,slow:3", seed=13, horizon=50)
        assert first.schedule() == second.schedule()
        assert len(first.schedule()) == 9

    def test_different_seed_different_schedule(self):
        base = FaultInjector("kill:6,slow:6", seed=1, horizon=200)
        other = FaultInjector("kill:6,slow:6", seed=2, horizon=200)
        assert base.schedule() != other.schedule()

    def test_warmup_protects_early_dispatches(self):
        injector = FaultInjector("kill:5", seed=3, horizon=20, warmup=4)
        assert min(injector.schedule()) >= 4

    def test_remaining_drains_as_faults_fire(self, clear_caches):
        injector = FaultInjector("slow:2", seed=0, horizon=2, warmup=0)
        frontend = ShardedFrontend.from_bundle(
            clear_caches, 1, injector=injector, max_batch_size=1
        )
        with frontend:
            for step in range(4):
                frontend.plan("dgemm", m=64 + step, k=32, n=16)
        assert injector.remaining == 0
        assert injector.snapshot()["injected"] == {"slow": 2}

    def test_unsupervised_thread_shard_surfaces_injected_fault(self, clear_caches):
        injector = FaultInjector("kill:1", seed=0, horizon=1, warmup=0)
        frontend = ShardedFrontend.from_bundle(
            clear_caches, 1, supervise=False, injector=injector
        )
        with frontend:
            future = frontend.submit("dgemm", m=64, k=64, n=64)
            with pytest.raises(InjectedFault, match="injected kill fault"):
                future.result(timeout=30)


class TestChaosEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_exactly_once_bit_identical_under_worker_kills(
        self, clear_caches, backend
    ):
        """4 clients, 2 shards, >=5 kills: zero lost/duplicated/wrong plans."""
        bundle = clear_caches
        n_clients, per_client = 4, 60
        workload = generate_workload(
            ["dgemm", "dsyrk"],
            n_clients * per_client,
            distribution="cycling",
            seed=37,
            pool_size=12,
        )
        reference = _sequential_reference(bundle, workload)

        injector = FaultInjector("kill:5", seed=11, horizon=25)
        frontend = ShardedFrontend.from_bundle(
            bundle,
            2,
            backend=backend,
            max_batch_size=4,  # many dispatches, so every kill fires
            injector=injector,
            restart_policy=_chaos_policy(),
        )
        results = [None] * len(workload)
        ids = [None] * len(workload)

        def client(client_index):
            slots = range(client_index, len(workload), n_clients)
            pending = []
            for slot in slots:
                request = workload[slot]
                pending.append(
                    (slot, frontend.submit(request.routine, **request.dims))
                )
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

        # Every scheduled kill actually fired mid-traffic.
        supervision = stats["supervision"]
        assert supervision["injected"]["injected"] == {"kill": 5}
        assert supervision["failures"] >= 5
        assert supervision["restarts"] >= 1
        assert supervision["quarantined"] == []
        # Exactly one plan per request id: none lost, none duplicated.
        assert None not in results
        assert len(set(ids)) == len(workload)
        assert stats["admission"]["in_flight"] == 0
        assert stats["admission"]["shed"] == 0
        # Bit-identical to the sequential single-engine replay, per request.
        for slot in range(len(workload)):
            assert _plan_key(results[slot]) == _plan_key(reference[slot]), slot

    def test_plan_many_survives_kills(self, clear_caches):
        bundle = clear_caches
        workload = generate_workload(
            ["dgemm", "dsyrk"], 96, distribution="skewed", seed=41
        )
        reference = _sequential_reference(bundle, workload)
        injector = FaultInjector("kill:3", seed=19, horizon=12)
        frontend = ShardedFrontend.from_bundle(
            bundle,
            2,
            backend="process",
            max_batch_size=4,
            injector=injector,
            restart_policy=_chaos_policy(),
        )
        with frontend:
            plans = frontend.plan_many(
                request.as_tuple() for request in workload
            )
            snapshot = frontend.supervisor.snapshot()
        assert snapshot["injected"]["injected"] == {"kill": 3}
        assert [_plan_key(p) for p in plans] == [_plan_key(p) for p in reference]


class TestCorruptFault:
    def test_corrupted_frame_recovers_transparently(self, clear_caches):
        injector = FaultInjector("corrupt:1", seed=9, horizon=4, warmup=1)
        frontend = ShardedFrontend.from_bundle(
            clear_caches,
            1,
            backend="process",
            max_batch_size=2,
            injector=injector,
            restart_policy=_chaos_policy(),
        )
        with frontend:
            for step in range(10):
                assert frontend.plan("dgemm", m=64 + step, k=32, n=16).threads >= 1
            snapshot = frontend.supervisor.snapshot()
        assert snapshot["injected"]["injected"] == {"corrupt": 1}
        assert snapshot["failures"] >= 1
        assert snapshot["restarts"] >= 1
        assert snapshot["quarantined"] == []
