"""Stateful model test of ``ShardedFrontend`` under seeded faults.

One machine interleaves the three ways a request reaches a shard inbox —
``submit``, ``plan`` and ``plan_many(timeout=…)`` — with ``kill``/``hang``
faults drawn from a seeded :class:`~repro.serving.faults.FaultInjector`,
under ``backpressure="reject"`` and an admission budget small enough to
fill.  Whatever the interleaving:

* every admitted request is answered exactly once (a plan, or a
  ``DeadlineExceededError`` for an expired stream), and a shed one is
  counted, never half-admitted;
* every plan equals a sequential single-engine replay on ``PLAN_FIELDS``;
* at the end nothing is in flight or pending and every admission slot is
  back — also after a ``plan_many`` that raised part-way;
* a duplicate answer can only come from a redispatched request.

Replays deterministically with ``HYPOTHESIS_PROFILE=ci``.
"""

import copy
import time

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.serving import (
    DeadlineExceededError,
    FaultInjector,
    QueueFullError,
    RestartPolicy,
    ShardedFrontend,
)
from repro.serving.engine import ServingEngine

#: The deterministic fields of a plan (``benchmarks/e2e/harness.py`` gates
#: on the same tuple); ``from_cache`` depends on which shard's LRU is warm.
PLAN_FIELDS = ("routine", "threads", "predicted_time", "baseline_time", "policy")

MAX_PENDING = 6

_SIZES = st.sampled_from([16, 48, 64, 96, 160, 256, 512])
# Installed (dgemm, dsyrk), cross-precision fallback (sgemm) and the
# max-threads heuristic (dtrsm): every resolution tier of the chain.
REQUESTS = st.one_of(
    st.tuples(st.sampled_from(["dgemm", "sgemm"]), st.fixed_dictionaries(
        {"m": _SIZES, "k": _SIZES, "n": _SIZES}
    )),
    st.tuples(st.just("dsyrk"), st.fixed_dictionaries({"n": _SIZES, "k": _SIZES})),
    st.tuples(st.just("dtrsm"), st.fixed_dictionaries({"m": _SIZES, "n": _SIZES})),
)


def _fields(plan):
    return tuple(getattr(plan, name) for name in PLAN_FIELDS)


class FrontendMachine(RuleBasedStateMachine):
    """Subclasses bind ``bundle``, ``backend`` and the fault timings."""

    bundle = None
    backend = "thread"
    min_kills = 0
    warmup = 0
    hang_seconds = 0.4
    hang_timeout = 0.15

    def __init__(self):
        super().__init__()
        self.frontend = None
        self.reference = ServingEngine(copy.deepcopy(self.bundle))
        self.outstanding = []
        self.n_shed = 0

    # -- helpers -------------------------------------------------------------------
    def _expected(self, routine, dims):
        return _fields(self.reference.plan(routine, **dims))

    def _submitted(self):
        return self.frontend.stats()["admission"]["submitted"]

    def _wait_idle(self):
        deadline = time.monotonic() + 60
        while self.frontend.in_flight:
            assert time.monotonic() < deadline, "requests stuck in flight"
            time.sleep(0.002)

    # -- rules ---------------------------------------------------------------------
    @initialize(
        seed=st.integers(0, 2**16),
        kills=st.integers(0, 3),
        hangs=st.integers(0, 1),
    )
    def build(self, seed, kills, hangs):
        self.injector = FaultInjector(
            {"kill": max(kills, self.min_kills), "hang": hangs},
            seed=seed,
            horizon=12,
            warmup=self.warmup,
            hang_seconds=self.hang_seconds,
        )
        source = self.bundle if self.backend == "process" else copy.deepcopy(self.bundle)
        self.frontend = ShardedFrontend.from_bundle(
            source,
            2,
            backend=self.backend,
            max_pending=MAX_PENDING,
            backpressure="reject",
            max_batch_size=4,
            injector=self.injector,
            restart_policy=RestartPolicy(
                backoff_base=0.001,
                backoff_cap=0.005,
                hang_timeout=self.hang_timeout,
                health_interval=self.hang_timeout / 4,
            ),
        )
        self.frontend.start()

    @rule(burst=st.lists(REQUESTS, min_size=1, max_size=2 * MAX_PENDING))
    def submit(self, burst):
        # Back to back, so a burst can outrun the drains and fill the budget.
        before = self._submitted()
        admitted = []
        for routine, dims in burst:
            try:
                admitted.append((self.frontend.submit(routine, **dims), routine, dims))
            except QueueFullError:
                self.n_shed += 1
        assert self._submitted() == before + len(admitted)
        for future, routine, dims in admitted:
            self.outstanding.append((future, self._expected(routine, dims)))

    @rule(request=REQUESTS)
    def plan(self, request):
        routine, dims = request
        try:
            plan = self.frontend.plan(routine, **dims)
        except QueueFullError:
            self.n_shed += 1
            return
        assert _fields(plan) == self._expected(routine, dims)

    @rule(
        stream=st.lists(REQUESTS, min_size=1, max_size=2 * MAX_PENDING),
        timeout=st.sampled_from([None, 60.0, 0.02, 1e-9]),
    )
    def plan_many(self, stream, timeout):
        # Longer than the free budget more often than not: a stream waits
        # for its slots even in reject mode, so it is never shed.
        before = self._submitted()
        try:
            plans = self.frontend.plan_many(stream, timeout=timeout)
        except DeadlineExceededError:
            assert timeout is not None and timeout < 1.0
            # The drain loops shed what the caller walked away from.
            self._wait_idle()
            assert before <= self._submitted() <= before + len(stream)
            return
        assert self._submitted() == before + len(stream)
        assert [_fields(plan) for plan in plans] == [
            self._expected(routine, dims) for routine, dims in stream
        ]

    @rule(count=st.integers(1, MAX_PENDING))
    def resolve(self, count):
        ready, self.outstanding = self.outstanding[:count], self.outstanding[count:]
        for future, expected in ready:
            assert _fields(future.result(timeout=60)) == expected

    @invariant()
    def admission_budget_holds(self):
        if self.frontend is not None:
            assert 0 <= self.frontend.in_flight <= MAX_PENDING

    def teardown(self):
        if self.frontend is None:
            return
        try:
            for future, expected in self.outstanding:
                assert _fields(future.result(timeout=60)) == expected
            self._wait_idle()
            stats = self.frontend.stats()
            admission = stats["admission"]
            assert admission["in_flight"] == 0
            assert admission["submitted"] == admission["completed"]
            assert admission["shed"] == self.n_shed
            assert stats["pending"] == 0
            supervision = stats["supervision"]
            assert supervision["quarantined"] == []
            # Only a redispatched request can be answered twice (late, by
            # the worker a hang recovery gave up on).
            assert supervision["duplicate_answers"] <= supervision["redispatched"]
            if not supervision["hangs"]:
                assert supervision["duplicate_answers"] == 0
            assert supervision["failures"] >= self.injector.injected.get("kill", 0)
        finally:
            self.frontend.close()


_COMMON = dict(deadline=None, suppress_health_check=list(HealthCheck))


def test_thread_frontend_answers_exactly_once_under_faults(serving_bundle):
    class Machine(FrontendMachine):
        bundle = serving_bundle

    run_state_machine_as_test(
        Machine, settings=settings(max_examples=12, stateful_step_count=10, **_COMMON)
    )


@pytest.mark.slow
def test_process_frontend_answers_exactly_once_under_faults(serving_bundle):
    class Machine(FrontendMachine):
        bundle = serving_bundle
        backend = "process"
        # With two examples to spend, each kills a live worker at least once.
        min_kills = 1
        warmup = 2
        # The hang timeout must outlast a worker spawn, or the monitor
        # kills replacements while they are still importing.
        hang_seconds = 6.0
        hang_timeout = 4.0

    run_state_machine_as_test(
        Machine, settings=settings(max_examples=2, stateful_step_count=8, **_COMMON)
    )
