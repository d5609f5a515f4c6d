"""Production observability: metrics export, run journals, offline analytics.

Everything the serving stack measures today dies with the process — the
``stats()`` snapshots are in-memory dicts.  This package is the evidence
layer that outlives a run:

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` with
  counter / gauge / histogram primitives, a Prometheus-text exposition
  endpoint and a JSON snapshot, served by a tiny stdlib HTTP thread
  (:class:`MetricsServer`, wired up by ``adsala serve --metrics-port``).
* :mod:`repro.obs.schema` — the format of one ``stats()`` snapshot,
  declared once: each statistic's key, how shards combine it and the
  series it is exported as; the frontend's merge and the collectors
  below both derive from it.
* :mod:`repro.obs.collectors` — translate the serving stack's existing
  ``stats()`` snapshots (single engine, sharded frontend on either
  backend, supervisor, adaptation audit trail) into registry series at
  scrape time, so per-shard metrics merge through the same plumbing the
  stats already use — no cross-process shared state.
* :mod:`repro.obs.journal` — persistent append-only JSONL run journals
  (:class:`RunJournal`) recording every served plan with bounded-size
  rotation and a crash-tolerant reader; also the canonical home of the
  ``append_jsonl`` / ``read_jsonl`` helpers the workload layer and the
  adaptation audit trail share.
* :mod:`repro.obs.analytics` — composable aggregators over journal rows
  (group-by routine / shard / version / time window) answering the
  what-if questions behind the paper's claims: realized speedup vs the
  max-threads baseline, error trends across promotions, capacity
  headroom.  Surfaced by the ``adsala analyze`` CLI subcommand.
"""

from repro.obs.analytics import (
    Count,
    Max,
    Mean,
    Min,
    Quantile,
    Ratio,
    Sum,
    aggregate,
    capacity_report,
    error_trend,
    speedup_by_routine,
    supervision_summary,
    time_window,
)
from repro.obs.collectors import StatsCollector, collect_adaptation, collect_serving_stats
from repro.obs.journal import (
    RunJournal,
    append_jsonl,
    read_journal,
    read_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    BucketHistogram,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsServer,
    merge_histogram_snapshots,
)

__all__ = [
    "BucketHistogram",
    "Count",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "Max",
    "Mean",
    "MetricsRegistry",
    "MetricsServer",
    "Min",
    "Quantile",
    "Ratio",
    "RunJournal",
    "StatsCollector",
    "Sum",
    "aggregate",
    "append_jsonl",
    "capacity_report",
    "collect_adaptation",
    "collect_serving_stats",
    "error_trend",
    "merge_histogram_snapshots",
    "read_journal",
    "read_jsonl",
    "speedup_by_routine",
    "supervision_summary",
    "time_window",
]
