"""Tests for serving telemetry: rolling stats, drift detection, counters."""

import numpy as np
import pytest

from repro.serving.telemetry import EngineTelemetry, RollingStats, RoutineTelemetry


class TestRollingStats:
    def test_empty_defaults(self):
        stats = RollingStats(window=4)
        assert stats.mean == 0.0 and stats.max == 0.0 and len(stats) == 0

    def test_mean_and_max(self):
        stats = RollingStats(window=8)
        for value in (1.0, 2.0, 3.0):
            stats.add(value)
        assert stats.mean == pytest.approx(2.0)
        assert stats.max == 3.0
        assert stats.last == 3.0

    def test_window_evicts_oldest(self):
        stats = RollingStats(window=2)
        for value in (10.0, 1.0, 3.0):
            stats.add(value)
        assert len(stats) == 2
        assert stats.mean == pytest.approx(2.0)  # (1 + 3) / 2, the 10 left
        assert stats.n_total == 3

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            RollingStats(window=0)

    def test_snapshot_keys(self):
        stats = RollingStats()
        stats.add(0.5)
        snap = stats.snapshot()
        assert snap["count"] == 1 and snap["total"] == 1
        assert snap["mean"] == pytest.approx(0.5)

    def test_long_stream_mean_matches_numpy_window_mean(self):
        # Regression: the subtract-on-evict running sum accumulated
        # rounding error without bound.  Occasional huge samples (exactly
        # what |observed-predicted|/observed produces when observed is
        # tiny) leave residuals in the sum long after they leave the
        # window; pre-fix this drifted to ~1e-8 absolute error.
        rng = np.random.default_rng(123)
        stats = RollingStats(window=64)
        for index in range(100_000):
            stats.add(1e8 if index % 1000 == 0 else rng.random())
        window = np.asarray(stats._values, dtype=float)
        assert abs(stats.mean - np.mean(window)) < 1e-12
        assert stats.n_total == 100_000

    def test_resync_preserves_window_semantics(self):
        # The periodic exact resync must not change what the window holds.
        stats = RollingStats(window=3)
        for value in range(20):
            stats.add(float(value))
        assert len(stats) == 3
        assert stats.mean == pytest.approx((17 + 18 + 19) / 3)
        assert stats.max == 19.0 and stats.last == 19.0


class TestRoutineTelemetry:
    def test_relative_error_definition(self):
        telemetry = RoutineTelemetry("dgemm")
        telemetry.record_observation(predicted=1.0, observed=2.0)
        assert telemetry.mean_abs_rel_error == pytest.approx(0.5)

    def test_invalid_observations_skipped(self):
        telemetry = RoutineTelemetry("dgemm")
        telemetry.record_observation(predicted=1.0, observed=0.0)
        telemetry.record_observation(predicted=-1.0, observed=1.0)
        assert telemetry.n_observations == 0
        assert telemetry.n_invalid_observations == 2

    def test_drift_requires_min_observations(self):
        telemetry = RoutineTelemetry("dgemm")
        for _ in range(4):
            telemetry.record_observation(predicted=1.0, observed=2.0)
        assert not telemetry.drifting(threshold=0.25, min_observations=5)
        telemetry.record_observation(predicted=1.0, observed=2.0)
        assert telemetry.drifting(threshold=0.25, min_observations=5)

    def test_accurate_routine_never_drifts(self):
        telemetry = RoutineTelemetry("dsyrk")
        for _ in range(50):
            telemetry.record_observation(predicted=1.0, observed=1.01)
        assert not telemetry.drifting(threshold=0.25, min_observations=5)

    def test_plan_counters(self):
        telemetry = RoutineTelemetry("dgemm")
        telemetry.record_plan(from_cache=True, fallback=False, heuristic=False)
        telemetry.record_plan(from_cache=False, fallback=True, heuristic=True)
        snap = telemetry.snapshot()
        assert snap["plans"] == 2
        assert snap["cache_hits"] == 1
        assert snap["fallback_plans"] == 1
        assert snap["heuristic_plans"] == 1


class TestEngineTelemetry:
    def test_batch_counters(self):
        telemetry = EngineTelemetry()
        telemetry.record_batch(8)
        telemetry.record_batch(2)
        assert telemetry.n_batches == 2
        assert telemetry.n_requests == 10
        assert telemetry.batch_sizes.mean == pytest.approx(5.0)

    def test_mean_batch_size_is_lifetime_and_max_is_the_window(self):
        # One meaning at engine and merged level: requests / batches.  The
        # rolling window keeps serving the max only.
        telemetry = EngineTelemetry(window=2)
        for size in (8, 2, 2):
            telemetry.record_batch(size)
        snap = telemetry.snapshot()
        assert snap["mean_batch_size"] == 4.0
        assert snap["max_batch_size"] == 2.0
        assert EngineTelemetry().snapshot()["mean_batch_size"] == 0.0

    def test_reinstall_candidates(self):
        telemetry = EngineTelemetry(drift_threshold=0.25, min_observations=3)
        for _ in range(3):
            telemetry.record_observation("dgemm", predicted=1.0, observed=2.0)
            telemetry.record_observation("dsyrk", predicted=1.0, observed=1.02)
        assert telemetry.reinstall_candidates() == ["dgemm"]

    def test_snapshot_serialisable(self):
        import json

        telemetry = EngineTelemetry()
        telemetry.record_batch(4)
        telemetry.record_plan("dgemm", from_cache=False, fallback=False, heuristic=False)
        telemetry.record_observation("dgemm", predicted=1.0, observed=1.1)
        snap = telemetry.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["routines"]["dgemm"]["plans"] == 1

    def test_drift_report_for_unknown_routine(self):
        assert EngineTelemetry().drift_report("dgemm") is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EngineTelemetry(drift_threshold=0.0)
        with pytest.raises(ValueError):
            EngineTelemetry(min_observations=0)


class TestCacheHitRate:
    def test_hit_rate_zero_without_plans(self):
        from repro.serving.telemetry import RoutineTelemetry

        telemetry = RoutineTelemetry("dgemm")
        assert telemetry.cache_hit_rate == 0.0
        assert telemetry.snapshot()["cache_hit_rate"] == 0.0

    def test_hit_rate_tracks_cached_plans(self):
        from repro.serving.telemetry import RoutineTelemetry

        telemetry = RoutineTelemetry("dgemm")
        for from_cache in (True, False, True, True):
            telemetry.record_plan(
                from_cache=from_cache, fallback=False, heuristic=False
            )
        assert telemetry.cache_hit_rate == 0.75
        assert telemetry.snapshot()["cache_hit_rate"] == 0.75


class TestShapeHistogram:
    def key(self, **dims):
        return tuple(sorted(dims.items()))

    def test_records_and_counts(self):
        from repro.serving.telemetry import ShapeHistogram

        histogram = ShapeHistogram()
        for _ in range(3):
            histogram.record(self.key(m=64, n=64))
        histogram.record(self.key(m=128, n=128))
        assert len(histogram) == 2
        assert histogram.n_recorded == 4
        assert histogram.top(1) == [({"m": 64, "n": 64}, 3)]
        assert {"m": 128, "n": 128} in histogram.shapes()

    def test_capacity_evicts_least_recently_seen(self):
        from repro.serving.telemetry import ShapeHistogram

        histogram = ShapeHistogram(capacity=2)
        histogram.record(self.key(m=1))
        histogram.record(self.key(m=2))
        histogram.record(self.key(m=1))  # refresh m=1 -> m=2 is the LRU
        histogram.record(self.key(m=3))
        assert histogram.n_evicted == 1
        assert {"m": 2} not in histogram.shapes()
        assert {"m": 1} in histogram.shapes()

    def test_sample_is_frequency_weighted(self):
        import numpy as np

        from repro.serving.telemetry import ShapeHistogram

        histogram = ShapeHistogram()
        for _ in range(99):
            histogram.record(self.key(m=64))
        histogram.record(self.key(m=1024))
        rng = np.random.default_rng(0)
        samples = histogram.sample(200, rng)
        hot = sum(1 for dims in samples if dims == {"m": 64})
        assert hot > 150  # ~99 % of the mass

    def test_sample_validation(self):
        import numpy as np

        from repro.serving.telemetry import ShapeHistogram

        histogram = ShapeHistogram()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="empty histogram"):
            histogram.sample(1, rng)
        histogram.record(self.key(m=1))
        with pytest.raises(ValueError, match="must be positive"):
            histogram.sample(0, rng)

    def test_snapshot_serialisable(self):
        import json

        from repro.serving.telemetry import ShapeHistogram

        histogram = ShapeHistogram()
        histogram.record(self.key(m=64, n=32))
        snap = histogram.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["distinct"] == 1
        assert snap["top"][0]["dims"] == {"m": 64, "n": 32}

    def test_capacity_validation(self):
        from repro.serving.telemetry import ShapeHistogram

        with pytest.raises(ValueError):
            ShapeHistogram(capacity=0)


class TestTrafficLog:
    def test_observations_with_context_fill_the_log(self):
        telemetry = RoutineTelemetry("dgemm", window=4)
        dims = {"m": 64, "k": 64, "n": 64}
        for i in range(6):
            telemetry.record_observation(
                predicted=1.0, observed=1.1 + i * 0.01, dims=dims, threads=4
            )
        assert len(telemetry.traffic) == 4  # bounded by the window
        record = telemetry.traffic[-1]
        assert record.dims == dims and record.threads == 4
        assert record.observed == pytest.approx(1.15)

    def test_context_free_observations_skip_the_log(self):
        telemetry = RoutineTelemetry("dgemm")
        telemetry.record_observation(predicted=1.0, observed=1.1)
        assert telemetry.n_observations == 1
        assert len(telemetry.traffic) == 0

    def test_invalid_observations_skip_the_log(self):
        telemetry = RoutineTelemetry("dgemm")
        telemetry.record_observation(
            predicted=1.0, observed=0.0, dims={"m": 1}, threads=2
        )
        assert len(telemetry.traffic) == 0

    def test_plan_with_dims_key_feeds_the_histogram(self):
        telemetry = RoutineTelemetry("dgemm")
        telemetry.record_plan(
            from_cache=False, fallback=False, heuristic=False,
            dims_key=(("m", 64), ("n", 32)),
        )
        assert telemetry.shapes.n_recorded == 1
        assert telemetry.snapshot()["shapes"]["distinct"] == 1

    def test_reset_window_clears_errors_and_traffic_only(self):
        telemetry = RoutineTelemetry("dgemm", window=8)
        telemetry.record_plan(
            from_cache=False, fallback=False, heuristic=False,
            dims_key=(("m", 64),),
        )
        for _ in range(5):
            telemetry.record_observation(
                predicted=1.0, observed=2.0, dims={"m": 64}, threads=2
            )
        telemetry.reset_window()
        assert len(telemetry.errors) == 0
        assert len(telemetry.traffic) == 0
        assert telemetry.n_observations == 5       # lifetime counters survive
        assert telemetry.shapes.n_recorded == 1    # workload shape info survives
        assert not telemetry.drifting(threshold=0.25, min_observations=1)

    def test_engine_reset_routine(self):
        telemetry = EngineTelemetry(min_observations=2)
        for _ in range(3):
            telemetry.record_observation("dgemm", predicted=1.0, observed=2.0)
        assert telemetry.reinstall_candidates() == ["dgemm"]
        assert telemetry.reset_routine("dgemm") is True
        assert telemetry.reinstall_candidates() == []
        assert telemetry.reset_routine("unknown") is False


class TestRollingQuantile:
    def test_empty_and_validation(self):
        stats = RollingStats(window=4)
        assert stats.quantile(0.5) == 0.0
        stats.add(1.0)
        with pytest.raises(ValueError):
            stats.quantile(1.5)
        with pytest.raises(ValueError):
            stats.quantile(-0.1)

    def test_matches_numpy_on_spiky_stream(self):
        # Pin against np.quantile's default (linear-interpolation) method
        # on exactly the kind of stream the error window sees: mostly
        # small relative errors with occasional huge spikes from
        # near-zero observed times.
        rng = np.random.default_rng(77)
        stats = RollingStats(window=256)
        samples = []
        for index in range(1000):
            value = 1e7 if index % 97 == 0 else float(rng.random())
            stats.add(value)
            samples.append(value)
        window = np.asarray(samples[-256:], dtype=float)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert stats.quantile(q) == float(np.quantile(window, q))

    def test_quantile_tracks_the_live_window_only(self):
        stats = RollingStats(window=2)
        for value in (100.0, 1.0, 3.0):
            stats.add(value)
        # Only (1, 3) remain: the median interpolates between them.
        assert stats.quantile(0.5) == pytest.approx(2.0)


class TestLatencyTelemetry:
    def test_snapshot_reports_error_quantiles(self):
        telemetry = RoutineTelemetry("dgemm")
        for observed in (1.0, 2.0, 4.0, 8.0):
            telemetry.record_observation(predicted=1.0, observed=observed)
        snap = telemetry.snapshot()
        errors = [abs(o - 1.0) / o for o in (1.0, 2.0, 4.0, 8.0)]
        assert snap["p50_abs_rel_error"] == pytest.approx(
            float(np.quantile(errors, 0.5))
        )
        assert snap["p99_abs_rel_error"] == pytest.approx(
            float(np.quantile(errors, 0.99))
        )

    def test_record_latency_feeds_histogram_snapshot(self):
        telemetry = EngineTelemetry()
        telemetry.record_latency("dgemm", 3e-4)
        telemetry.record_latency("dgemm", 2e-3)
        snap = telemetry.snapshot()["routines"]["dgemm"]["latency"]
        assert snap["count"] == 2
        assert snap["sum"] == pytest.approx(2.3e-3)
        assert sum(snap["counts"]) == 2

    def test_latency_survives_window_reset(self):
        telemetry = RoutineTelemetry("dgemm")
        telemetry.record_latency(1e-4)
        telemetry.reset_window()
        assert telemetry.latency.count == 1  # like shapes: survives promotion
