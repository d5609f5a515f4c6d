"""What a hot frontend request is allowed to cost, as counts.

The frontend twin of ``test_hit_path.py`` and ``test_miss_path.py``: one
warmed request through a two-shard thread frontend, ``submit`` → ``result``,
builds no ``threading.Condition`` and no ``concurrent.futures.Future`` (a
``PlanFuture`` is two plain locks), takes one admission on the frontend's
in-flight ledger without waiting and frees it once, and makes a pinned
number of Python-level calls on the caller's thread.
"""

import sys
import threading
from concurrent.futures import Future

from repro.serving.frontend import ShardedFrontend, shard_index

#: ``call`` + ``c_call`` events on the caller's thread of one warmed
#: ``submit(...).result()``: the largest count over the shapes below, plus
#: a slack of 5.  The tree whose futures were ``concurrent.futures.Future``
#: objects read 60 here, the one admitting through a ``BoundedSemaphore`` and
#: hashing a ``repr`` 43, this one 31.
CALL_BUDGET = 31 + 5

#: Hot shapes that land on both shards of a two-shard frontend.
SHAPES = [("dgemm", {"m": 64 + 32 * i, "k": 48, "n": 40}) for i in range(4)] + [
    ("dsyrk", {"n": 96 + 32 * i, "k": 24}) for i in range(4)
]


def _warmed(bundle):
    frontend = ShardedFrontend.from_bundle(bundle, 2)
    for _ in range(3):  # workers up, LRU hot, telemetry rows and buckets made
        for routine, dims in SHAPES:
            frontend.plan(routine, **dims)
    return frontend


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _profiled(call):
    """Run ``call``; return its result and the names of the events it made."""
    events = []

    def profile(frame, event, arg):
        if event == "call":
            events.append(frame.f_code.co_qualname)
        elif event == "c_call":
            events.append(arg.__qualname__)

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, events[:-1]  # the last event is the closing sys.setprofile


def test_the_shapes_cover_both_shards():
    keys = {shard_index(r, tuple(sorted(d.items())), 2) for r, d in SHAPES}
    assert keys == {0, 1}


def test_a_hot_request_builds_no_condition_and_no_future(clear_caches, monkeypatch):
    counted = {
        "Condition": (threading.Condition, "__init__"),
        "Future": (Future, "__init__"),
        "wait": (threading.Condition, "wait"),
        "admit": (ShardedFrontend, "_enqueue"),
    }
    for routine, dims in SHAPES:
        frontend = _warmed(clear_caches)
        before = frontend.stats()["admission"]
        with monkeypatch.context() as patch:
            calls = {label: _count_calls(patch, *where) for label, where in counted.items()}
            freed = []
            for shard in frontend.shards:  # each shard holds the hook it was given
                hook = shard.on_resolved
                patch.setattr(shard, "on_resolved", lambda n, hook=hook: (freed.append(n), hook(n)))
            plan = frontend.submit(routine, **dims).result(30)
            frontend.close()  # joins the drain workers: their share is counted too
        assert plan.from_cache
        assert {label: len(seen) for label, seen in calls.items()} == {
            "Condition": 0, "Future": 0, "wait": 0, "admit": 1,
        }
        assert freed == [1]
        after = frontend.stats()["admission"]
        assert after["submitted"] - before["submitted"] == 1
        assert after["completed"] - before["completed"] == 1
        assert after["in_flight"] == 0


def test_call_budget_of_one_hot_request(clear_caches):
    reached = {}
    with _warmed(clear_caches) as frontend:
        for routine, dims in SHAPES:
            plan, events = _profiled(lambda: frontend.submit(routine, **dims).result(30))
            assert plan.from_cache
            reached[(routine, *dims.values())] = len(events)
    assert max(reached.values()) <= CALL_BUDGET, reached
