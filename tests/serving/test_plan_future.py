"""The frontend's one future type: resolved once, waited on by many.

A ``PlanFuture`` is two plain locks, not a ``concurrent.futures.Future``:
the shard claims it without waiting, the waiters queue on a lock held since
construction.  These tests hold the contract the shards and the supervisor
rely on — at-most-once resolution that raises ``InvalidStateError`` on the
loser, a timeout that names the request and the shard — and the one a
client relies on: every waiter wakes with the same answer.
"""

import threading
import time
from concurrent.futures import InvalidStateError

import pytest

from repro.serving.frontend import DeadlineExceededError, PlanFuture


def _race(future, n_threads, resolve):
    """Start ``n_threads`` resolvers at one barrier; return their outcomes."""
    barrier = threading.Barrier(n_threads)
    outcomes = [None] * n_threads

    def worker(slot):
        barrier.wait(10)
        try:
            resolve(slot)
        except InvalidStateError:
            outcomes[slot] = "lost"
        else:
            outcomes[slot] = "won"

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    return outcomes


def test_two_racing_resolutions_have_exactly_one_winner():
    for request_id in range(200):
        future = PlanFuture(request_id, shard=1)
        plans = [object(), object()]
        outcomes = _race(future, 2, lambda slot: future.set_result(plans[slot]))
        assert sorted(outcomes) == ["lost", "won"]
        assert future.result(1) is plans[outcomes.index("won")]


def test_a_late_answer_of_either_kind_is_refused():
    plan, error = object(), RuntimeError("late")
    future = PlanFuture(3, shard=0)
    future.set_result(plan)
    with pytest.raises(InvalidStateError, match="request 3"):
        future.set_result(object())
    with pytest.raises(InvalidStateError, match="request 3"):
        future.set_exception(error)
    assert future.result() is plan


def test_a_pending_result_times_out_naming_request_and_shard():
    future = PlanFuture(41, shard=1)
    with pytest.raises(DeadlineExceededError) as excinfo:
        future.result(0.01)
    assert "request 41" in str(excinfo.value)
    assert "shard 1" in str(excinfo.value)
    with pytest.raises(DeadlineExceededError):  # an already-passed deadline
        future.result(-1.0)
    assert not future.done()  # timing out resolves nothing
    plan = object()
    future.set_result(plan)
    assert future.result(0.01) is plan


def test_an_error_is_raised_again_to_every_reader():
    error = ValueError("no plan for you")
    future = PlanFuture(5, shard=0)
    future.set_exception(error)
    for _ in range(2):
        with pytest.raises(ValueError) as excinfo:
            future.result(1)
        assert excinfo.value is error


def test_eight_waiters_all_wake_with_the_one_plan():
    future = PlanFuture(8, shard=0)
    plan = object()
    started = threading.Barrier(9)
    seen = []
    lock = threading.Lock()

    def waiter():
        started.wait(10)
        answer = future.result(10)
        with lock:
            seen.append(answer)

    threads = [threading.Thread(target=waiter) for _ in range(8)]
    for thread in threads:
        thread.start()
    started.wait(10)
    time.sleep(0.05)  # let the waiters block on the ready lock first
    future.set_result(plan)
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    assert len(seen) == 8 and all(answer is plan for answer in seen)


@pytest.mark.parametrize("resolve", ["set_result", "set_exception"])
def test_done_flips_exactly_once(resolve):
    future = PlanFuture(9, shard=0)
    assert [future.done() for _ in range(3)] == [False] * 3
    getattr(future, resolve)(RuntimeError("x") if resolve == "set_exception" else object())
    readings = [future.done()]
    with pytest.raises(InvalidStateError):
        future.set_result(object())
    readings.append(future.done())
    try:
        future.result(1)
    except RuntimeError:
        pass
    readings.append(future.done())
    assert readings == [True] * 3


def test_a_plan_request_cannot_be_cancelled():
    future = PlanFuture(10)
    assert not hasattr(future, "cancel")
    assert not hasattr(future, "add_done_callback")
    with pytest.raises(AttributeError):
        future.note = "no per-instance dict"  # __slots__: two locks and four fields
