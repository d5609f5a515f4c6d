"""Structured unknown-routine rejection at serving intake."""

import pytest

from repro.obs.collectors import collect_serving_stats
from repro.obs.metrics import MetricsRegistry
from repro.routines.catalog import UnknownRoutineError
from repro.serving.engine import ServingEngine
from repro.serving.fallback import UnservableRoutineError, default_runtime_chain
from repro.serving.frontend import ShardedFrontend


class TestEngineRejection:
    def test_unknown_routine_raises_structured_error(self, serving_bundle):
        engine = ServingEngine(serving_bundle)
        with pytest.raises(UnknownRoutineError) as excinfo:
            engine.plan_many(
                [
                    ("dgemm", {"m": 64, "k": 64, "n": 64}),
                    ("dnotaroutine", {"m": 10, "k": 10, "n": 10}),
                ]
            )
        assert engine.stats()["requests"] == 0  # rejected at intake, nothing planned
        assert excinfo.value.routine == "dnotaroutine"
        assert "dgemm" in excinfo.value.known_keys
        assert "registered routine keys" in str(excinfo.value)

    def test_rejections_counted_in_stats(self, serving_bundle):
        engine = ServingEngine(serving_bundle)
        assert engine.stats()["rejected_unknown_routine"] == 0
        for _ in range(3):
            with pytest.raises(UnknownRoutineError):
                engine.plan("dbogus", m=10, k=10, n=10)
        assert engine.stats()["rejected_unknown_routine"] == 3
        # valid traffic does not count
        engine.plan("dgemm", m=64, k=64, n=64)
        assert engine.stats()["rejected_unknown_routine"] == 3

    def test_rejection_exported_as_metric(self, serving_bundle):
        engine = ServingEngine(serving_bundle)
        with pytest.raises(UnknownRoutineError):
            engine.plan("dbogus", m=10, k=10, n=10)
        registry = MetricsRegistry()
        collect_serving_stats(registry, engine.stats())
        rendered = registry.render_prometheus()
        assert "adsala_rejected_unknown_routine_total 1" in rendered


class TestFrontendRejection:
    def test_frontend_counts_rejections(self, serving_bundle):
        frontend = ShardedFrontend.from_bundle(serving_bundle, n_shards=2)
        with frontend:
            with pytest.raises(UnknownRoutineError):
                frontend.submit("dbogus", m=10, k=10, n=10)
            stats = frontend.stats()
            assert stats["rejected_unknown_routine"] == 1
            # the rejection never consumed an admission slot
            assert stats["admission"]["submitted"] == 0


class TestFallbackChainMessage:
    def test_unservable_error_names_catalog_keys(self, serving_bundle):
        chain = default_runtime_chain()

        class _Empty:
            routines = {}

        with pytest.raises(UnservableRoutineError) as excinfo:
            chain.resolve("dgemm", _Empty())
        message = str(excinfo.value)
        assert "registered routine keys" in message
        assert "dsyrk" in message
