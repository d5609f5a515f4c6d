"""Translate serving ``stats()`` snapshots into metrics-registry series.

The serving stack already has one battle-tested observability path: every
layer (engine, thread/process shard, supervisor) answers ``stats()`` with
a JSON-serialisable snapshot, and the sharded frontend merges the
per-shard snapshots — including across the process-backend pipe.  The
collectors ride that plumbing instead of inventing a second cross-process
channel: at scrape time :func:`collect_serving_stats` walks the latest
snapshot (either a single engine's or a frontend's merged one) and
mirrors it into :class:`~repro.obs.metrics.MetricsRegistry` counters,
gauges and histograms; :func:`collect_adaptation` does the same for the
adaptation audit trail.  :class:`StatsCollector` bundles both behind the
zero-argument callable :class:`~repro.obs.metrics.MetricsServer` invokes
before each scrape.

Mirrored counters are *collected*, not incremented: each scrape sets the
series to the upstream snapshot value (a value below the previous one is
a legitimate Prometheus counter reset — e.g. a restarted shard rebuilding
its engine telemetry).  Thread-safety comes from the registry's own lock;
the collectors hold no state beyond the stats callable they wrap.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Mapping, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["StatsCollector", "collect_serving_stats", "collect_adaptation"]


def _set_counter(registry: MetricsRegistry, name: str, value, help_text: str, **labels):
    if value is not None:
        registry.set_counter(name, float(value), help_text, **labels)


def _set_gauge(registry: MetricsRegistry, name: str, value, help_text: str, **labels):
    if value is not None:
        registry.set_gauge(name, float(value), help_text, **labels)


def _collect_routines(registry: MetricsRegistry, routines: Mapping[str, Mapping]) -> None:
    for routine, entry in routines.items():
        labels = {"routine": routine}
        _set_counter(
            registry, "adsala_plans_total", entry.get("plans"),
            "Plans served, by routine", **labels,
        )
        _set_counter(
            registry, "adsala_plan_cache_hits_total", entry.get("cache_hits"),
            "Plans answered from the prediction LRU cache", **labels,
        )
        _set_counter(
            registry, "adsala_fallback_plans_total", entry.get("fallback_plans"),
            "Plans produced by a fallback policy", **labels,
        )
        _set_counter(
            registry, "adsala_heuristic_plans_total", entry.get("heuristic_plans"),
            "Plans produced by the max-threads heuristic", **labels,
        )
        _set_counter(
            registry, "adsala_observations_total", entry.get("observations"),
            "Executed-call runtimes folded into the drift window", **labels,
        )
        _set_counter(
            registry, "adsala_invalid_observations_total",
            entry.get("invalid_observations"),
            "Observations rejected as non-physical", **labels,
        )
        error_help = "Observed-vs-predicted |relative error| over the rolling window"
        for stat, key in (
            ("mean", "mean_abs_rel_error"),
            ("p50", "p50_abs_rel_error"),
            ("p99", "p99_abs_rel_error"),
            ("max", "max_abs_rel_error"),
        ):
            _set_gauge(
                registry, "adsala_prediction_abs_rel_error", entry.get(key),
                error_help, routine=routine, stat=stat,
            )
        latency = entry.get("latency")
        if isinstance(latency, Mapping) and latency.get("count"):
            family = registry.histogram(
                "adsala_plan_latency_seconds",
                "Per-plan share of the micro-batch planning pass",
                ("routine",),
                buckets=tuple(float(b) for b in latency["bounds"]),
            )
            family.labels(**labels).load_snapshot(latency)


def _collect_cache(registry: MetricsRegistry, cache: Mapping) -> None:
    _set_counter(
        registry, "adsala_predictor_cache_hits_total", cache.get("cache_hits"),
        "Prediction LRU cache hits across routines",
    )
    _set_counter(
        registry, "adsala_predictor_cache_misses_total", cache.get("cache_misses"),
        "Prediction LRU cache misses across routines",
    )
    _set_counter(
        registry, "adsala_model_evaluations_total", cache.get("model_evaluations"),
        "Predictor model evaluations (cache misses that ran the model)",
    )
    timing = cache.get("timing")
    if isinstance(timing, Mapping):
        _set_counter(
            registry, "adsala_timing_cache_hits_total", timing.get("hits"),
            "Timing-memo hits (simulated rows answered from the LRU memo)",
        )
        _set_counter(
            registry, "adsala_timing_cache_misses_total", timing.get("misses"),
            "Timing-memo misses (rows that ran the simulator)",
        )
        _set_gauge(
            registry, "adsala_timing_cache_size", timing.get("size"),
            "Rows currently held by the timing memo",
        )
        _set_gauge(
            registry, "adsala_timing_cache_capacity", timing.get("capacity"),
            "Timing-memo capacity (summed across shards when merged)",
        )


def _collect_supervision(registry: MetricsRegistry, supervision: Mapping) -> None:
    per_shard_help = {
        "failures": ("adsala_shard_failures_total", "Worker failures observed"),
        "restarts": ("adsala_shard_restarts_total", "Worker restarts performed"),
        "redispatched": (
            "adsala_shard_redispatched_total",
            "Stranded in-flight requests redispatched after a failure",
        ),
        "rerouted": (
            "adsala_shard_rerouted_total",
            "Requests rerouted away from a quarantined shard",
        ),
        "hangs": ("adsala_shard_hangs_total", "Hung-worker detections"),
        "deadline_expired": (
            "adsala_shard_deadline_expired_total",
            "Requests shed because their deadline passed",
        ),
        "duplicate_answers": (
            "adsala_shard_duplicate_answers_total",
            "Answers discarded because the request was already resolved",
        ),
    }
    for entry in supervision.get("per_shard", ()):
        shard = str(entry.get("index"))
        for key, (name, help_text) in per_shard_help.items():
            _set_counter(registry, name, entry.get(key), help_text, shard=shard)
        _set_gauge(
            registry, "adsala_shard_quarantined",
            1.0 if entry.get("quarantined") else 0.0,
            "Whether the shard is quarantined (1) or serving (0)", shard=shard,
        )
    _set_gauge(
        registry, "adsala_shards_healthy", supervision.get("healthy_shards"),
        "Shards currently serving (not quarantined)",
    )
    _set_counter(
        registry, "adsala_recovery_episodes_total",
        supervision.get("recovery_episodes"),
        "Completed failure-to-healthy recovery episodes",
    )
    _set_gauge(
        registry, "adsala_recovery_seconds_mean", supervision.get("recovery_mean_s"),
        "Mean seconds from first failure to first healthy batch",
    )
    _set_gauge(
        registry, "adsala_recovery_seconds_max", supervision.get("recovery_max_s"),
        "Worst recovery episode in the rolling window, seconds",
    )


def collect_serving_stats(registry: MetricsRegistry, stats: Mapping) -> None:
    """Mirror one ``stats()`` snapshot into the registry.

    Accepts both shapes the serving stack produces: a single
    :meth:`~repro.serving.engine.ServingEngine.stats` snapshot, or a
    :meth:`~repro.serving.frontend.ShardedFrontend.stats` merged one
    (recognised by its ``admission`` block).  Keys the snapshot does not
    carry are simply skipped, so older/partial snapshots stay collectable.
    """
    _set_counter(
        registry, "adsala_requests_total", stats.get("requests"),
        "Plan requests answered",
    )
    _set_counter(
        registry, "adsala_batches_total", stats.get("batches"),
        "Micro-batches processed",
    )
    _set_counter(
        registry, "adsala_rejected_unknown_routine_total",
        stats.get("rejected_unknown_routine"),
        "Requests rejected at intake for an unregistered routine key",
    )
    _set_gauge(
        registry, "adsala_batch_size_mean", stats.get("mean_batch_size"),
        "Mean micro-batch size over the rolling window",
    )
    _set_gauge(
        registry, "adsala_batch_size_max", stats.get("max_batch_size"),
        "Largest micro-batch in the rolling window",
    )
    _set_gauge(
        registry, "adsala_batch_size_limit", stats.get("batch_size_limit"),
        "Configured micro-batch size bound",
    )
    _set_gauge(
        registry, "adsala_pending", stats.get("pending"),
        "Requests enqueued on a shard and not yet resolved (summed across shards)",
    )
    _set_gauge(
        registry, "adsala_stats_wall_time_seconds", stats.get("wall_time"),
        "Wall-clock instant the collected snapshot was taken",
    )
    _set_gauge(
        registry, "adsala_reinstall_candidates",
        len(stats.get("reinstall_candidates", ())),
        "Routines currently flagged as drifted past threshold",
    )

    routines = stats.get("routines")
    if isinstance(routines, Mapping):
        _collect_routines(registry, routines)
    cache = stats.get("cache")
    if isinstance(cache, Mapping):
        _collect_cache(registry, cache)

    admission = stats.get("admission")
    if isinstance(admission, Mapping):
        _set_gauge(
            registry, "adsala_shards", stats.get("shards"),
            "Engine shards behind the frontend",
        )
        _set_gauge(
            registry, "adsala_inflight", admission.get("in_flight"),
            "Requests admitted and not yet answered",
        )
        _set_gauge(
            registry, "adsala_admission_capacity", admission.get("capacity"),
            "Bound on concurrently admitted requests",
        )
        _set_counter(
            registry, "adsala_submitted_total", admission.get("submitted"),
            "Requests admitted by the frontend",
        )
        _set_counter(
            registry, "adsala_completed_total", admission.get("completed"),
            "Admitted requests whose future resolved",
        )
        _set_counter(
            registry, "adsala_shed_total", admission.get("shed"),
            "Requests refused by reject-mode admission control",
        )
    supervision = stats.get("supervision")
    if isinstance(supervision, Mapping):
        _collect_supervision(registry, supervision)


def collect_adaptation(
    registry: MetricsRegistry,
    log,
    bundle_dir: Optional[str | Path] = None,
) -> None:
    """Mirror the adaptation audit trail into the registry.

    ``log`` is an :class:`~repro.adaptive.promote.AdaptationLog` or a path
    to an ``adaptation_log.jsonl``.  Emits per-event-type totals, a
    one-hot lifecycle-state gauge per routine (the latest state holds 1,
    every state that routine has ever been in holds 0), and — when
    ``bundle_dir`` is given — the live ``bundle_version`` from the
    manifest.
    """
    from repro.adaptive.promote import AdaptationLog

    if not isinstance(log, AdaptationLog):
        log = AdaptationLog(log)
    events = log.events()
    by_type: Dict[str, int] = {}
    states_seen: Dict[str, set] = {}
    latest_state: Dict[str, Optional[str]] = {}
    for row in events:
        event = row.get("event")
        if isinstance(event, str):
            by_type[event] = by_type.get(event, 0) + 1
        routine = row.get("routine")
        state = row.get("state")
        if isinstance(routine, str):
            if isinstance(state, str):
                states_seen.setdefault(routine, set()).add(state)
                latest_state[routine] = state
    for event, count in sorted(by_type.items()):
        _set_counter(
            registry, "adsala_adaptation_events_total", count,
            "Adaptation audit-trail events, by type", event=event,
        )
    for routine, states in states_seen.items():
        for state in sorted(states):
            _set_gauge(
                registry, "adsala_adaptation_state",
                1.0 if latest_state.get(routine) == state else 0.0,
                "One-hot lifecycle state per routine (latest event wins)",
                routine=routine, state=state,
            )
    if bundle_dir is not None:
        from repro.core.persistence import read_manifest

        try:
            manifest = read_manifest(bundle_dir)
        except Exception:
            return
        _set_gauge(
            registry, "adsala_bundle_version",
            int(manifest.get("bundle_version", 1)),
            "Live bundle version from the manifest",
        )


class StatsCollector:
    """Zero-argument collector for :class:`~repro.obs.metrics.MetricsServer`.

    Wraps a ``stats_fn`` returning the latest serving snapshot (an engine's
    or a frontend's merged ``stats()``) plus, optionally, the adaptation
    audit trail of the served bundle.  A ``stats_fn`` that raises is
    swallowed (scrapes must not take the serving path down mid-shutdown);
    the last collected values simply remain.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        stats_fn: Optional[Callable[[], Mapping]] = None,
        adaptation_log=None,
        bundle_dir: Optional[str | Path] = None,
    ):
        self.registry = registry
        self.stats_fn = stats_fn
        self.adaptation_log = adaptation_log
        self.bundle_dir = bundle_dir
        self.n_collections = 0
        self.n_failures = 0

    def __call__(self) -> None:
        self.n_collections += 1
        try:
            if self.stats_fn is not None:
                stats = self.stats_fn()
                if isinstance(stats, Mapping):
                    collect_serving_stats(self.registry, stats)
            log = self.adaptation_log
            if log is None and self.bundle_dir is not None:
                from repro.adaptive.promote import ADAPTATION_LOG_FILE

                candidate = Path(self.bundle_dir) / ADAPTATION_LOG_FILE
                log = candidate if candidate.exists() else None
            if log is not None:
                collect_adaptation(self.registry, log, bundle_dir=self.bundle_dir)
        except Exception:
            self.n_failures += 1
