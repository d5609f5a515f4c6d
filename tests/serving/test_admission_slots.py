"""Every way a request can be answered gives its admission slot back once.

Shards free slots through the frontend's ``on_resolved(count)`` hook: once
per answered batch, and once per future on the rare paths (deadline shed,
failed batch, no healthy shard).  Each test drives one path, closes the
frontend so every drain worker has finished its bookkeeping, and checks the
ledger: nothing in flight, every submitted request completed, and the whole
``max_pending`` budget free again.  The budget is the frontend's in-flight
ledger, and an answer counted with nothing in flight raises inside the
drain thread instead of widening the budget; the ``drain_errors`` fixture
turns that into a failure.
Process shards resolve their futures in the parent through the same
``ShardBase`` code; the paths that need no worker process run on both
backends, and one that does (shed and answered halves of a batch) too.
"""

import threading
import time

import pytest

from repro.serving import (
    DeadlineExceededError,
    FaultInjector,
    NoHealthyShardError,
    QueueFullError,
    RestartPolicy,
    ShardedFrontend,
    ShardFailure,
)

MAX_PENDING = 8
#: Seconds any wait may take: a drain worker that died must fail a test, not hang it.
WAIT = 10.0
FAST = dict(backoff_base=0.001, backoff_cap=0.005, hang_timeout=30.0)


@pytest.fixture()
def drain_errors(monkeypatch):
    """Exceptions that escaped a thread (a drain worker); any one fails the test."""
    seen = []
    monkeypatch.setattr(threading, "excepthook", lambda args: seen.append(args.exc_value))
    yield seen
    assert seen == [], "a drain worker died"


def _dims(i):
    return {"m": 64 + 8 * i, "k": 32, "n": 48}


def _gate(shard):
    """Hold ``shard``'s dispatches until the returned event is set."""
    gate = threading.Event()
    original = shard._execute_batch

    def gated(requests):
        gate.wait(WAIT)
        return original(requests)

    shard._execute_batch = gated
    return gate


def _wait_until_wedged(shard):
    """Block until ``shard``'s drain worker is inside a (gated) dispatch."""
    deadline = time.monotonic() + WAIT
    while shard.stalled_for() is None:
        assert time.monotonic() < deadline
        time.sleep(0.001)


def _until(condition):
    deadline = time.monotonic() + WAIT
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.001)


def _blocked_submitters(frontend, n, first):
    """Start ``n`` clients whose ``submit`` waits on the full budget; returns
    the threads and the list each appends the error its submit raised to."""
    sleepers = set()
    wait = frontend._room.wait

    def counted_wait(timeout=None):
        sleepers.add(threading.get_ident())
        return wait(timeout)

    frontend._room.wait = counted_wait
    raised = []

    def client(i):
        try:
            frontend.submit("dgemm", **_dims(first + i))
        except Exception as exc:
            raised.append(exc)

    clients = [threading.Thread(target=client, args=(i,), daemon=True) for i in range(n)]
    for thread in clients:
        thread.start()
    _until(lambda: len(sleepers) == n)
    return clients, raised


def _join_all(threads):
    deadline = time.monotonic() + WAIT
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    return [thread for thread in threads if thread.is_alive()]


def _assert_balanced(frontend, drain_errors, submitted):
    frontend.close()
    admission = frontend.stats()["admission"]
    assert drain_errors == []
    assert admission["submitted"] == submitted
    assert admission["completed"] == submitted
    assert admission["in_flight"] == 0


def test_answered_batches_release_their_slots(clear_caches, drain_errors):
    frontend = ShardedFrontend.from_bundle(clear_caches, 2, max_pending=MAX_PENDING)
    with frontend:
        plans = frontend.plan_many((("dgemm", _dims(i)) for i in range(40)), timeout=WAIT)
        futures = [frontend.submit("dsyrk", n=64 + i, k=32) for i in range(MAX_PENDING)]
        assert all(future.result(WAIT).threads >= 1 for future in futures)
    assert len(plans) == 40
    _assert_balanced(frontend, drain_errors, 40 + MAX_PENDING)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_failed_batch_releases_each_slot(clear_caches, drain_errors, backend):
    frontend = ShardedFrontend.from_bundle(
        clear_caches, 1, max_pending=MAX_PENDING, backend=backend
    )

    def engine_bug(requests):
        raise RuntimeError("engine bug")

    frontend.shards[0]._execute_batch = engine_bug
    with frontend:
        futures = [frontend.submit("dgemm", **_dims(i)) for i in range(5)]
        for future in futures:
            with pytest.raises(RuntimeError, match="engine bug"):
                future.result(WAIT)
    _assert_balanced(frontend, drain_errors, 5)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_shed_and_answered_halves_of_one_batch(clear_caches, drain_errors, backend):
    frontend = ShardedFrontend.from_bundle(
        clear_caches, 1, max_pending=MAX_PENDING, backend=backend
    )
    with frontend:
        frontend.plan("dgemm", **_dims(0))  # worker up
        gate = _gate(frontend.shards[0])
        held = frontend.submit("dgemm", **_dims(1))
        _wait_until_wedged(frontend.shards[0])
        expired = [frontend.submit("dgemm", timeout=1e-9, **_dims(2 + i)) for i in range(3)]
        live = [frontend.submit("dsyrk", n=64 + i, k=32) for i in range(3)]
        gate.set()  # the next batch holds all six: three shed, three answered
        for future in expired:
            with pytest.raises(DeadlineExceededError, match="before execution"):
                future.result(WAIT)
        assert all(future.result(WAIT).threads >= 1 for future in [held] + live)
    assert frontend.stats()["supervision"]["deadline_expired"] == 3
    _assert_balanced(frontend, drain_errors, 8)


def test_a_rejected_request_never_holds_a_slot(clear_caches, drain_errors):
    frontend = ShardedFrontend.from_bundle(
        clear_caches, 1, max_pending=MAX_PENDING, backpressure="reject"
    )
    with frontend:
        gate = _gate(frontend.shards[0])
        futures = [frontend.submit("dgemm", **_dims(i)) for i in range(MAX_PENDING)]
        with pytest.raises(QueueFullError):
            frontend.submit("dgemm", **_dims(MAX_PENDING))
        gate.set()
        assert all(future.result(WAIT).threads >= 1 for future in futures)
    assert frontend.stats()["admission"]["shed"] == 1
    _assert_balanced(frontend, drain_errors, MAX_PENDING)


def test_redispatched_requests_release_once(clear_caches, drain_errors):
    frontend = ShardedFrontend.from_bundle(
        clear_caches,
        2,
        max_pending=MAX_PENDING,
        max_batch_size=4,
        injector=FaultInjector("kill:2", seed=3, horizon=4, warmup=0),
        restart_policy=RestartPolicy(**FAST),
    )
    with frontend:
        plans = frontend.plan_many((("dgemm", _dims(i)) for i in range(24)), timeout=WAIT)
    supervision = frontend.stats()["supervision"]
    assert len(plans) == 24
    assert supervision["injected"]["injected"] == {"kill": 2}
    assert supervision["restarts"] >= 1 and supervision["redispatched"] >= 1
    _assert_balanced(frontend, drain_errors, 24)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_the_quarantine_dead_end_releases_each_slot(clear_caches, drain_errors, backend):
    frontend = ShardedFrontend.from_bundle(
        clear_caches,
        1,
        max_pending=MAX_PENDING,
        backend=backend,
        restart_policy=RestartPolicy(max_consecutive_failures=1, **FAST),
    )
    gate = threading.Event()

    def transport_down(requests):
        gate.wait(WAIT)
        raise ShardFailure("transport down")

    frontend.shards[0]._execute_batch = transport_down
    with frontend:
        with pytest.warns(RuntimeWarning, match="quarantined"):
            futures = [frontend.submit("dgemm", **_dims(i)) for i in range(3)]
            gate.set()  # all three were admitted before the breaker opened
            for future in futures:
                with pytest.raises(NoHealthyShardError):
                    future.result(WAIT)
        with pytest.raises(NoHealthyShardError):  # refused before it is submitted
            frontend.submit("dgemm", **_dims(3))
    _assert_balanced(frontend, drain_errors, 3)


def test_an_answer_with_nothing_in_flight_raises(clear_caches):
    frontend = ShardedFrontend.from_bundle(clear_caches, 1, max_pending=MAX_PENDING)
    with frontend:
        frontend.plan("dgemm", **_dims(0))
        deadline = time.monotonic() + WAIT
        while frontend.in_flight:  # the batch's answer lands just after result()
            assert time.monotonic() < deadline
            time.sleep(0.001)
        with pytest.raises(ValueError, match="1 requests answered, 0 in flight"):
            frontend._on_resolved(1)
    admission = frontend.stats()["admission"]
    assert (admission["submitted"], admission["completed"]) == (1, 1)


def test_close_wakes_every_blocked_submitter(clear_caches, drain_errors):
    """Twice as many submitters wait as the budget holds; close() wakes all
    of them into its closed check before the wedged batch is answered."""
    frontend = ShardedFrontend.from_bundle(clear_caches, 1, max_pending=3)
    gate = _gate(frontend.shards[0])
    frontend.start()
    futures = [frontend.submit("dgemm", **_dims(i)) for i in range(3)]
    clients, raised = _blocked_submitters(frontend, 6, first=3)
    closer = threading.Thread(target=frontend.close, daemon=True)
    closer.start()
    assert _join_all(clients) == []
    assert [str(exc) for exc in raised] == ["ShardedFrontend is closed"] * 6
    gate.set()
    assert _join_all([closer]) == []
    assert all(future.result(WAIT) is not None for future in futures)
    _assert_balanced(frontend, drain_errors, 3)


def test_a_waiter_refused_by_the_quarantine_wakes_the_next(clear_caches, drain_errors):
    """The answer to the one request in flight wakes one of two waiters; every
    shard is quarantined by then, and the refused waiter hands its wakeup on."""
    frontend = ShardedFrontend.from_bundle(
        clear_caches,
        1,
        max_pending=1,
        restart_policy=RestartPolicy(max_consecutive_failures=1, **FAST),
    )
    gate = threading.Event()

    def transport_down(requests):
        gate.wait(WAIT)
        raise ShardFailure("transport down")

    frontend.shards[0]._execute_batch = transport_down
    with frontend:
        first = frontend.submit("dgemm", **_dims(0))
        clients, raised = _blocked_submitters(frontend, 2, first=1)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            gate.set()
            with pytest.raises(NoHealthyShardError):
                first.result(WAIT)
            assert _join_all(clients) == []
    assert [type(exc) for exc in raised] == [NoHealthyShardError] * 2
    _assert_balanced(frontend, drain_errors, 1)
