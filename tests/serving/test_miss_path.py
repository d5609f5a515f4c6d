"""What a cache miss is allowed to cost, as call and object counts.

The miss-path twin of ``test_hit_path.py``: a planning group pays for each
thing once — one ``cached_plans`` pass over the LRU itself (no key-only copy
of it), one native evaluation, one ``PendingTimings`` group — and builds one
object per plan, its ``ExecutionPlan``: the LRU keeps a ``(threads, score)``
pair per shape, so no ``PredictionPlan`` is built, and the plan's two time
slots hold its group, so it owes no row objects (the timing memo is not
consulted until a plan is read).  A warmed routine is not routed at all: the
engine routes it once per source generation.  Under ``ADSALA_NATIVE=0``
the native-call count is zero and every other count still holds; under
``ADSALA_NATIVE_REQUIRE=1`` (CI's native leg) it must be exactly one per
group, so the file cannot pass vacuously on the NumPy path.
"""

import gc
import os
import sys

import pytest

from repro.core.install import install_adsala
from repro.core.predictor import PredictionPlan, ThreadPredictor
from repro.core.runtime import AdsalaRuntime, ExecutionPlan, PendingTimings
from repro.ml._native import BoundEvaluate
from repro.serving.engine import ServingEngine, normalize_request
from repro.serving.fallback import FallbackChain

ROUTINES = ["dgemm", "dsymm", "dsyrk", "dsyr2k", "dtrmm", "dtrsm"]

#: ``call`` + ``c_call`` events of one warmed miss through
#: ``AdsalaRuntime.plan``: the largest count over the six routines of the
#: bundle below, plus a slack of 5.  The tree before the single pass read
#: 124-127 here, the one before routes were kept per source generation
#: 112-118, the one before planning stopped probing the timing memo 93-99
#: (budget 106), the one before the LRU kept ``(threads, score)`` pairs
#: 80-86 (budget 91), this one 73-81.
CALL_BUDGET = 81 + 5


@pytest.fixture(scope="module")
def six_routines(laptop):
    return install_adsala(
        platform=laptop,
        routines=ROUTINES,
        n_samples=10,
        threads_per_shape=4,
        n_test_shapes=4,
        candidate_models=["LinearRegression", "DecisionTree"],
        seed=5,
    )


@pytest.fixture()
def native(six_routines):
    """Whether misses ride the native call (all six routines agree)."""
    paths = {six_routines.predictor(key).compile().path for key in ROUTINES}
    assert len(paths) == 1, paths
    if os.environ.get("ADSALA_NATIVE_REQUIRE") == "1":
        assert paths == {"native"}
    return paths == {"native"}


def _dims(routine, size):
    names = {"dgemm": "mkn", "dsyrk": "nk", "dsyr2k": "nk"}.get(routine, "mn")
    return {name: size + 8 * offset for offset, name in enumerate(names)}


class _Counts:
    """Calls and constructions of the miss path, counted by wrapping."""

    COUNTED = {
        "route": (FallbackChain, "route"),
        "cached_plans": (ThreadPredictor, "cached_plans"),
        "plan_batch": (ThreadPredictor, "plan_batch"),
        "native": (BoundEvaluate, "__call__"),
        "PredictionPlan": (PredictionPlan, "__init__"),
        "PendingTimings": (PendingTimings, "__init__"),
        "ExecutionPlan": (ExecutionPlan, "__init__"),
    }

    def __init__(self, monkeypatch):
        self.seen = dict.fromkeys(self.COUNTED, 0)
        for label, (owner, name) in self.COUNTED.items():
            monkeypatch.setattr(owner, name, self._counted(label, getattr(owner, name)))

    def _counted(self, label, original):
        def counted(*args, **kwargs):
            self.seen[label] += 1
            return original(*args, **kwargs)

        return counted


def _profiled(call):
    """Run ``call``; return its result and the names of the events it made.

    The collector is emptied first and held off during the call: a garbage
    collection landing inside it would add the events of whatever GC
    callbacks earlier tests left installed (hypothesis installs one).
    """
    events = []

    def profile(frame, event, arg):
        if event == "call":
            events.append(frame.f_code.co_qualname)
        elif event == "c_call":
            events.append(arg.__qualname__)

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return result, events[:-1]  # the last event is the closing sys.setprofile


def _warmed_engine(bundle):
    for key in ROUTINES:
        bundle.predictor(key).clear_cache()
    engine = ServingEngine(bundle)
    engine.plan_many([(key, _dims(key, 64)) for key in ROUTINES])
    return engine


def test_one_miss_pays_for_each_thing_once(six_routines, native, monkeypatch):
    engine = _warmed_engine(six_routines)
    max_threads = six_routines.platform.max_threads
    counts = _Counts(monkeypatch)
    rows_seen = set()
    for size in range(96, 96 + 32 * 24, 32):
        for key in ("dgemm", "dtrmm"):
            counts.seen = dict.fromkeys(counts.seen, 0)
            plan, events = _profiled(lambda: engine.plan(key, **_dims(key, size)))
            assert not plan.from_cache
            rows_seen.add(1 if plan.threads == max_threads else 2)
            assert counts.seen == {
                "route": 0,  # routed when the engine was warmed
                "cached_plans": 1,
                "plan_batch": 0,  # its plans are for other callers
                "native": 1 if native else 0,
                "PredictionPlan": 0,  # the LRU keeps (threads, score); the engine reads threads
                "PendingTimings": 1,
                "ExecutionPlan": 1,
            }
            group = plan._predicted_time
            assert type(group) is PendingTimings and group is plan._baseline_time
            assert group.rows == [plan]
            assert "OrderedDict.fromkeys" not in events  # no key-only copy of the LRU
    assert rows_seen == {1, 2}  # plans owing one row and two rows were both met


def test_six_groups_pay_six_times_not_twenty_four(six_routines, native, monkeypatch):
    engine = _warmed_engine(six_routines)
    batch = [
        normalize_request(key, _dims(key, 200 + 40 * round_), 6 * round_ + slot)
        for round_ in range(4)
        for slot, key in enumerate(ROUTINES)
    ]
    evaluations = [six_routines.predictor(key).n_model_evaluations for key in ROUTINES]
    counts = _Counts(monkeypatch)
    plans, events = _profiled(lambda: engine.execute(batch))

    assert [plan.routine for plan in plans] == [request.routine for request in batch]
    assert not any(plan.from_cache for plan in plans)
    assert counts.seen == {
        "route": 0,
        "cached_plans": 6,
        "plan_batch": 0,
        "native": 6 if native else 0,
        "PredictionPlan": 0,
        "PendingTimings": 6,
        "ExecutionPlan": 24,  # one object per plan
    }
    groups = {id(plan._predicted_time): plan._predicted_time for plan in plans}
    assert len(groups) == 6
    for group in groups.values():  # each group's rows are its routine's plans, in order
        assert group.rows == [plan for plan in plans if plan.routine == group.routine]
    assert "OrderedDict.fromkeys" not in events
    assert [
        six_routines.predictor(key).n_model_evaluations for key in ROUTINES
    ] == [count + 1 for count in evaluations]


def test_a_group_that_answers_too_few_plans_is_loud(six_routines, monkeypatch):
    """The 'every slot answered' invariant: a count, and today's message."""
    engine = _warmed_engine(six_routines)
    original = ThreadPredictor.cached_plans
    monkeypatch.setattr(
        ThreadPredictor,
        "cached_plans",
        lambda *args, **kwargs: tuple(part[:-1] for part in original(*args, **kwargs)),
    )
    batch = [normalize_request("dsyrk", _dims("dsyrk", 300 + i), 40 + i) for i in range(3)]
    with pytest.raises(RuntimeError, match=r"dropped 1 of 3 requests \(ids \[42\]\)"):
        engine.execute(batch)


def test_call_budget_of_one_warmed_miss(six_routines, native):
    """Python-level calls of one ``AdsalaRuntime.plan`` miss, deterministic."""
    if not native:
        pytest.skip("the budget is the native path's; the NumPy fallback makes more calls")
    for key in ROUTINES:
        six_routines.predictor(key).clear_cache()
    runtime = AdsalaRuntime(six_routines)
    reached = {}
    for key in ROUTINES:
        for size in (64, 72, 80):  # warm: telemetry rows, histogram buckets, buffers
            runtime.plan(key, **_dims(key, size))
        _, events = _profiled(lambda: runtime.plan(key, **_dims(key, 640)))
        reached[key] = len(events)
    assert max(reached.values()) <= CALL_BUDGET, reached
