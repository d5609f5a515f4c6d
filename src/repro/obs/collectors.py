"""Translate serving ``stats()`` snapshots into metrics-registry series.

The serving stack already has one battle-tested observability path: every
layer (engine, thread/process shard, supervisor) answers ``stats()`` with
a JSON-serialisable snapshot, and the sharded frontend merges the
per-shard snapshots — including across the process-backend pipe.  The
collectors ride that plumbing instead of inventing a second cross-process
channel: at scrape time :func:`collect_serving_stats` walks the latest
snapshot (either a single engine's or a frontend's merged one) and
mirrors it into :class:`~repro.obs.metrics.MetricsRegistry` counters,
gauges and histograms — which key becomes which series, under which name,
help text and labels, is declared once in :mod:`repro.obs.schema`, and
this module only writes what that declaration yields;
:func:`collect_adaptation` does the same for the adaptation audit trail
(its three series are its own).  :class:`StatsCollector` bundles both
behind the zero-argument callable
:class:`~repro.obs.metrics.MetricsServer` invokes before each scrape.

Mirrored counters are *collected*, not incremented: each scrape sets the
series to the upstream snapshot value (a value below the previous one is
a legitimate Prometheus counter reset — e.g. a restarted shard rebuilding
its engine telemetry).  Thread-safety comes from the registry's own lock;
the collectors hold no state beyond the stats callable they wrap.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Mapping, Optional

from repro.obs import schema
from repro.obs.metrics import MetricsRegistry

__all__ = ["StatsCollector", "collect_serving_stats", "collect_adaptation"]


def collect_serving_stats(registry: MetricsRegistry, stats: Mapping) -> None:
    """Mirror one ``stats()`` snapshot into the registry.

    Accepts both shapes the serving stack produces — a single
    :meth:`~repro.serving.engine.ServingEngine.stats` snapshot or a
    :meth:`~repro.serving.frontend.ShardedFrontend.stats` merged one — and
    writes every series :mod:`repro.obs.schema` declares for a key the
    snapshot carries.  Keys it does not carry are simply skipped, so
    older/partial snapshots stay collectable.
    """
    for stat, value, labels in schema.series(stats):
        if stat.kind == "histogram":
            if value.get("count"):
                registry.histogram(
                    stat.name, stat.help, tuple(labels),
                    buckets=tuple(float(b) for b in value["bounds"]),
                ).labels(**labels).load_snapshot(value)
        elif stat.kind == "counter":
            registry.set_counter(stat.name, float(value), stat.help, **labels)
        else:
            registry.set_gauge(stat.name, float(value), stat.help, **labels)


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
        registry.set_counter(
            "adsala_adaptation_events_total", count,
            "Adaptation audit-trail events, by type", event=event,
        )
    for routine, states in states_seen.items():
        for state in sorted(states):
            registry.set_gauge(
                "adsala_adaptation_state",
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
        registry.set_gauge(
            "adsala_bundle_version",
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
