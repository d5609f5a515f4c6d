"""End-to-end tests for the Prometheus exposition over a live serve.

Satellite coverage for the exposition contract: scrape the endpoint while
an engine/frontend is actually serving, parse **every** line of the body,
assert the required series and labels exist, check histogram bucket
counts are cumulative-monotone, and scrape again after a hot reload.
"""

import re
import urllib.request

import pytest

from repro.adaptive.promote import ADAPTATION_LOG_FILE, AdaptationLog
from repro.obs.collectors import StatsCollector
from repro.obs.metrics import MetricsRegistry, MetricsServer
from repro.serving.engine import ServingEngine
from repro.serving.frontend import DeadlineExceededError, ShardedFrontend
from repro.serving.registry import BundleHandle
from repro.serving.workload import generate_workload

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[+-]?(?:\d+(?:\.\d+)?(?:e[+-]?\d+)?|Inf)|NaN)$"
)
_LABEL_RE = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')


def scrape(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        assert response.headers["Content-Type"] == (
            "text/plain; version=0.0.4; charset=utf-8"
        )
        return response.read().decode()


def parse_exposition(text):
    """Parse every line; returns ``{name: [(labels_dict, value), ...]}``.

    Raises (via assert) on any line that does not match the exposition
    grammar — the whole point of the test.
    """
    assert text.endswith("\n")
    samples = {}
    types = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
            continue
        if line.startswith("#"):
            assert line.startswith("# HELP "), f"unknown comment line: {line!r}"
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable exposition line: {line!r}"
        labels = {}
        if match.group("labels"):
            for part in match.group("labels").split(","):
                label_match = _LABEL_RE.match(part)
                assert label_match, f"unparseable label in line: {line!r}"
                labels[label_match.group("key")] = label_match.group("value")
        value = match.group("value")
        numeric = float("inf") if value == "+Inf" else float(value)
        samples.setdefault(match.group("name"), []).append((labels, numeric))
    return samples, types


def assert_histogram_contract(samples, name):
    """Bucket counts monotone in ``le`` and ``le="+Inf"`` equals _count."""
    buckets = samples[f"{name}_bucket"]
    counts = dict()
    for labels, value in samples[f"{name}_count"]:
        counts[tuple(sorted(labels.items()))] = value
    series = {}
    for labels, value in buckets:
        le = float("inf") if labels["le"] == "+Inf" else float(labels["le"])
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        series.setdefault(key, []).append((le, value))
    assert series, f"no {name}_bucket samples"
    for key, entries in series.items():
        entries.sort()
        values = [v for _, v in entries]
        assert all(b >= a for a, b in zip(values, values[1:])), (
            f"{name} buckets not monotone for {key}: {entries}"
        )
        assert entries[-1][0] == float("inf")
        assert entries[-1][1] == counts[key]


REQUIRED_ENGINE_SERIES = (
    "adsala_requests_total",
    "adsala_batches_total",
    "adsala_plans_total",
    "adsala_plan_latency_seconds_bucket",
    "adsala_plan_latency_seconds_count",
    "adsala_plan_latency_seconds_sum",
    "adsala_prediction_abs_rel_error",
    "adsala_predictor_cache_hits_total",
    "adsala_timing_cache_hits_total",
    "adsala_batch_size_limit",
    "adsala_stats_wall_time_seconds",
)

REQUIRED_FRONTEND_SERIES = REQUIRED_ENGINE_SERIES + (
    "adsala_shards",
    "adsala_inflight",
    "adsala_pending",
    "adsala_admission_capacity",
    "adsala_submitted_total",
    "adsala_completed_total",
    "adsala_shed_total",
    "adsala_shards_healthy",
    "adsala_shard_restarts_total",
    "adsala_shard_failures_total",
)


def _serve_some(target, n_requests=32, seed=21, observe=True):
    workload = generate_workload(["dgemm", "dsyrk"], n_requests, seed=seed)
    plans = target.plan_many(request.as_tuple() for request in workload)
    if observe:
        for plan in plans:
            target.record_observation(plan, plan.predicted_time * 1.1)
    return plans


class TestEngineScrape:
    def test_live_scrape_required_series_and_histogram_contract(self, obs_bundle):
        engine = ServingEngine(obs_bundle, max_batch_size=8)
        registry = MetricsRegistry()
        collector = StatsCollector(registry, stats_fn=engine.stats)
        with MetricsServer(registry, collector=collector) as server:
            _serve_some(engine)
            samples, types = parse_exposition(scrape(server.url))
        for name in REQUIRED_ENGINE_SERIES:
            assert name in samples, f"missing required series {name}"
        assert types["adsala_requests_total"] == "counter"
        assert types["adsala_plan_latency_seconds"] == "histogram"
        assert "adsala_pending" not in samples  # an engine holds no queue
        # Per-routine labels on the routine-level series.
        routines = {labels["routine"] for labels, _ in samples["adsala_plans_total"]}
        assert routines == {"dgemm", "dsyrk"}
        stats = {labels["stat"] for labels, _ in samples["adsala_prediction_abs_rel_error"]}
        assert {"mean", "p50", "p99", "max"} <= stats
        assert_histogram_contract(samples, "adsala_plan_latency_seconds")
        # The mirrored counters agree with the live stats().
        live = engine.stats()
        assert samples["adsala_requests_total"][0][1] == live["requests"]
        assert collector.n_failures == 0

    def test_second_scrape_consistent_after_hot_reload(self, obs_bundle_dir):
        engine = ServingEngine(BundleHandle(obs_bundle_dir), max_batch_size=8)
        registry = MetricsRegistry()
        collector = StatsCollector(
            registry, stats_fn=engine.stats, bundle_dir=obs_bundle_dir
        )
        with MetricsServer(registry, collector=collector) as server:
            _serve_some(engine, seed=1)
            first, _ = parse_exposition(scrape(server.url))
            assert engine.reload_source(force=True)
            _serve_some(engine, seed=2)
            second, types = parse_exposition(scrape(server.url))
        # Same families, counters monotone across the reload (telemetry
        # survives a reload; only source caches are invalidated).
        assert set(first) <= set(second)
        for name in ("adsala_requests_total", "adsala_batches_total"):
            assert second[name][0][1] > first[name][0][1]
        for labels, value in second["adsala_plans_total"]:
            before = [v for lb, v in first["adsala_plans_total"] if lb == labels]
            assert value >= before[0]
        assert_histogram_contract(second, "adsala_plan_latency_seconds")
        assert collector.n_failures == 0

    def test_adaptation_series_from_audit_trail(self, obs_bundle_dir):
        log = AdaptationLog(obs_bundle_dir / ADAPTATION_LOG_FILE)
        log.append("drift_detected", routine="dgemm", state="drifted")
        log.append("promoted", routine="dgemm", state="promoted")
        engine = ServingEngine(BundleHandle(obs_bundle_dir))
        registry = MetricsRegistry()
        collector = StatsCollector(
            registry, stats_fn=engine.stats, bundle_dir=obs_bundle_dir
        )
        with MetricsServer(registry, collector=collector) as server:
            samples, _ = parse_exposition(scrape(server.url))
        events = {
            labels["event"]: value
            for labels, value in samples["adsala_adaptation_events_total"]
        }
        assert events == {"drift_detected": 1, "promoted": 1}
        states = {
            (labels["routine"], labels["state"]): value
            for labels, value in samples["adsala_adaptation_state"]
        }
        # One-hot: latest state holds 1, superseded states 0.
        assert states[("dgemm", "promoted")] == 1.0
        assert states[("dgemm", "drifted")] == 0.0
        assert samples["adsala_bundle_version"][0][1] == 1.0


class TestFrontendScrape:
    @pytest.mark.parametrize("backend", ["thread"])
    def test_merged_scrape_covers_frontend_and_supervision(self, obs_bundle, backend):
        frontend = ShardedFrontend.from_bundle(
            obs_bundle, 2, max_batch_size=8, backend=backend
        )
        registry = MetricsRegistry()
        collector = StatsCollector(registry, stats_fn=frontend.stats)
        workload = generate_workload(["dgemm", "dsyrk"], 48, seed=21)
        with frontend:
            with MetricsServer(registry, collector=collector) as server:
                futures = [
                    frontend.submit(request.routine, **request.dims)
                    for request in workload
                ]
                for future in futures:
                    future.result(timeout=30)
                samples, types = parse_exposition(scrape(server.url))
        for name in REQUIRED_FRONTEND_SERIES:
            assert name in samples, f"missing required series {name}"
        assert types["adsala_pending"] == "gauge"
        assert samples["adsala_pending"][0][1] == 0.0  # every future resolved
        assert samples["adsala_shards"][0][1] == 2.0
        assert samples["adsala_shards_healthy"][0][1] == 2.0
        assert samples["adsala_submitted_total"][0][1] == 48.0
        shard_labels = {
            labels["shard"] for labels, _ in samples["adsala_shard_restarts_total"]
        }
        assert shard_labels == {"0", "1"}
        assert_histogram_contract(samples, "adsala_plan_latency_seconds")
        # Merged latency histogram counts every plan exactly once.
        total = sum(v for _, v in samples["adsala_plan_latency_seconds_count"])
        assert total == 48.0

    def test_unsupervised_frontend_exports_its_shards_deadline_sheds(self, obs_bundle):
        # Regression: the collectors read deadline_expired / duplicate_answers
        # only from the supervision block, so with supervise=False fifty shed
        # requests left no adsala_shard_deadline_expired_total series at all.
        frontend = ShardedFrontend.from_bundle(obs_bundle, 2, supervise=False)
        workload = generate_workload(["dgemm", "dsyrk"], 50, seed=9)
        with frontend:
            futures = [
                frontend.submit(request.routine, timeout=1e-9, **request.dims)
                for request in workload
            ]
            for future in futures:
                with pytest.raises(DeadlineExceededError):
                    future.result(timeout=30)
            stats = frontend.stats()
        assert stats["supervision"] is None
        registry = MetricsRegistry()
        StatsCollector(registry, stats_fn=lambda: stats)()
        samples, types = parse_exposition(registry.render_prometheus())
        assert types["adsala_shard_deadline_expired_total"] == "counter"
        shed = samples["adsala_shard_deadline_expired_total"]
        assert {labels["shard"] for labels, _ in shed} == {"0", "1"}
        assert sum(value for _, value in shed) == 50
        assert [value for _, value in samples["adsala_shard_duplicate_answers_total"]] == [0, 0]
        assert "adsala_shards_healthy" not in samples  # nothing supervises
