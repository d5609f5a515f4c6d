"""What a cache hit is allowed to cost, as call counts.

Intake resolves the routine and sorts the shape key once; every layer below
carries them, and the engine routes each routine once per source generation,
not once per batch.  These guards count the calls that used to repeat per
request (the pattern of ``tests/core/test_fused_native.py::TestMarshalledOnce``).
"""

import threading

import pytest

from repro.core.predictor import ThreadPredictor
from repro.routines.catalog import RoutineCatalog
from repro.serving.engine import PlanRequest, ServingEngine, normalize_request
from repro.serving.fallback import FallbackChain
from repro.serving.frontend import ShardedFrontend


def _count_calls(monkeypatch, owner, name, static=False):
    """Wrap ``owner.name``; returns the list its calls' thread ids land in."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, staticmethod(counted) if static else counted)
    return calls


def test_request_without_a_shape_key_is_a_type_error():
    """No default: a keyless request would share one LRU entry and one
    timing-memo row with every other shape of its routine."""
    with pytest.raises(TypeError, match="dims_key"):
        PlanRequest(request_id=0, routine="dgemm", dims={"m": 1, "k": 2, "n": 3})
    request = PlanRequest(7, "dgemm", {"m": 1}, (("m", 1),))
    assert (request.request_id, request.dims_key, request.deadline) == (7, (("m", 1),), None)
    with pytest.raises(AttributeError):  # still frozen
        request.routine = "sgemm"


def test_all_hit_batch_routes_each_routine_once(clear_caches, monkeypatch):
    engine = ServingEngine(clear_caches)
    shapes = {
        "dgemm": [{"m": 64 * (i + 1), "k": 32, "n": 48} for i in range(4)],
        "sgemm": [{"m": 64 * (i + 1), "k": 32, "n": 48} for i in range(4)],  # dgemm's model
        "dsyrk": [{"n": 40 * (i + 1), "k": 24} for i in range(4)],
    }
    routines = list(shapes)
    batch = [
        normalize_request(routines[i % 3], shapes[routines[i % 3]][i % 4], i)
        for i in range(32)
    ]
    # The contract the probe rests on: a request's key is the predictor's key.
    assert all(r.dims_key == ThreadPredictor.cache_key(r.dims) for r in batch)
    routed = _count_calls(monkeypatch, FallbackChain, "route")
    parsed = _count_calls(monkeypatch, FallbackChain, "resolve")
    cold = engine.execute(batch)
    assert len(routed) == 3  # one per distinct request.routine, not one per request
    predictors = [clear_caches.predictor(key) for key in ("dgemm", "dsyrk")]
    evaluations = [p.n_model_evaluations for p in predictors]
    hits = sum(p.n_cache_hits for p in predictors)

    keyed = _count_calls(monkeypatch, ThreadPredictor, "cache_key", static=True)
    warm = engine.execute(batch)

    assert len(routed) == 3  # a warmed routine is routed 0 times per batch
    assert parsed == []  # intake normalised the key: the engine never re-parses it
    assert keyed == []  # the requests' own dims_key is the LRU key
    assert [p.n_model_evaluations for p in predictors] == evaluations
    assert sum(p.n_cache_hits for p in predictors) == hits + 32
    assert all(plan.from_cache for plan in warm)
    for before, after in zip(cold, warm):
        assert (before.routine, before.dims, before.threads, before.fallback_from) == (
            after.routine, after.dims, after.threads, after.fallback_from
        )
        assert (before.predicted_time, before.baseline_time) == (
            after.predicted_time, after.baseline_time
        )
    assert {plan.fallback_from for plan in warm} == {None, "sgemm"}


def test_one_submit_resolves_the_routine_once(serving_bundle, monkeypatch):
    with ShardedFrontend.from_bundle(serving_bundle, n_shards=2) as frontend:
        frontend.plan("dgemm", m=96, k=32, n=48)  # workers up, predictor loaded
        resolved = _count_calls(monkeypatch, RoutineCatalog, "resolve")
        future = frontend.submit("dgemm", m=96, k=32, n=48)
        assert future.result(30).from_cache
        me = threading.get_ident()
        assert resolved.count(me) == 1  # intake, on the caller's thread
        assert len(resolved) == 1  # the shard's engine routed dgemm at the warm-up plan
