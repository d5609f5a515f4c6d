"""The format of one serving ``stats()`` snapshot, declared once.

Every statistic the serving stack reports is one :class:`Stat` line below:
the key its producer writes, how per-shard values combine, and — where it
has one — the series it is exported as.  :func:`merge` (the frontend's
merged ``stats()`` and the supervisor's totals), :func:`series` (what
:func:`~repro.obs.collectors.collect_serving_stats` writes) and
:func:`metrics` (the names the README table must carry) derive from these
lines and nothing else; adding a statistic is a producer line plus one
line here.

Combination rules: ``LOCAL`` is not combined — reported where it is
produced (a shard's row, the frontend's own block) and dropped from a
merge.  ``SUM`` / ``MAX`` / ``UNION`` (sorted) are what they say; ``FIRST``
takes the first shard's value (configuration every shard shares);
``MEAN`` weights by the count at ``of`` (for a quantile an approximation:
the exact one would need the raw windows); ``RATIO`` is ``of[0]`` over the
sum of ``of[1:]`` taken from the *merged* values, so a rate merges
exactly (declare it after its operands); ``PREFER`` takes the first value
in ``of`` that any shard reports, else the first shard's; ``HISTOGRAM``
sums bucket-wise (fixed buckets make it exact).  ``BLOCK`` / ``MAP`` /
``ROWS`` nest the block at ``of``: one dict, a name → dict mapping merged
per name, and a list of per-shard rows (never merged with each other)
whose name / ``index`` becomes the metric label ``label``.  A statistic is
combined over the parts that carry it and left out when none does, so
partial snapshots merge and collect without special cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import merge_histogram_snapshots

__all__ = ["Stat", "merge", "metrics", "series"]

LOCAL, SUM, MAX, FIRST, UNION, MEAN, RATIO, PREFER, HISTOGRAM, BLOCK, MAP, ROWS = (
    "local sum max first union mean ratio prefer histogram block map rows".split()
)


@dataclass(frozen=True)
class Stat:
    """One statistic: ``key`` in its block, combination ``rule`` with operands
    ``of``; metric ``name`` / ``help`` / constant ``labels`` when exported;
    ``source`` — the dotted path of its value in each part, if not ``key``."""

    key: str
    rule: str = LOCAL
    name: Optional[str] = None
    help: str = ""
    of: object = None
    labels: Mapping[str, str] = field(default_factory=dict)
    label: Optional[str] = None
    source: Optional[str] = None

    @property
    def kind(self) -> str:
        """Prometheus type, by its naming convention: counters end ``_total``."""
        if self.rule == HISTOGRAM:
            return "histogram"
        return "counter" if self.name.endswith("_total") else "gauge"


_ERROR = (
    "adsala_prediction_abs_rel_error",
    "Observed-vs-predicted |relative error| over the rolling window",
)

#: One routine's entry under ``routines`` (``RoutineTelemetry.snapshot``).
ROUTINE = (
    Stat("routine", FIRST),
    Stat("plans", SUM, "adsala_plans_total", "Plans served, by routine"),
    Stat("cache_hits", SUM, "adsala_plan_cache_hits_total",
         "Plans answered from the prediction LRU cache"),
    Stat("cache_hit_rate", RATIO, of=("cache_hits", "plans")),
    Stat("fallback_plans", SUM, "adsala_fallback_plans_total",
         "Plans produced by a fallback policy"),
    Stat("heuristic_plans", SUM, "adsala_heuristic_plans_total",
         "Plans produced by the max-threads heuristic"),
    Stat("observations", SUM, "adsala_observations_total",
         "Executed-call runtimes folded into the drift window"),
    Stat("invalid_observations", SUM, "adsala_invalid_observations_total",
         "Observations rejected as non-physical"),
    # Weighted by observation count so shards that saw more traffic
    # dominate the merged error, like one engine would.
    Stat("mean_abs_rel_error", MEAN, *_ERROR, of="observations", labels={"stat": "mean"}),
    Stat("p50_abs_rel_error", MEAN, *_ERROR, of="observations", labels={"stat": "p50"}),
    Stat("p99_abs_rel_error", MEAN, *_ERROR, of="observations", labels={"stat": "p99"}),
    Stat("max_abs_rel_error", MAX, *_ERROR, labels={"stat": "max"}),
    Stat("latency", HISTOGRAM, "adsala_plan_latency_seconds",
         "Per-plan share of its group's planning time (model pass only: no simulator time)"),
    # Top-5 lists do not merge exactly: read them per shard.
    Stat("shapes"),
    Stat("traffic_records", SUM),
)

#: ``ServingEngine.cache_statistics``.
CACHE = (
    Stat("cache_hits", SUM, "adsala_predictor_cache_hits_total",
         "Prediction LRU cache hits across routines"),
    Stat("cache_misses", SUM, "adsala_predictor_cache_misses_total",
         "Prediction LRU cache misses across routines"),
    Stat("model_evaluations", SUM, "adsala_model_evaluations_total",
         "Predictor model evaluations (cache misses that ran the model)"),
    Stat("routines", MAP, label="routine", of=(
        Stat("hits", SUM),
        Stat("misses", SUM),
        Stat("hit_rate", RATIO, of=("hits", "hits", "misses")),
        # One shard off the native path is what an operator must see.
        Stat("evaluate_path", PREFER, of=("numpy",)),
        Stat("unloadable", MAX),
    )),
    Stat("timing", BLOCK, of=(
        Stat("hits", SUM, "adsala_timing_cache_hits_total",
             "Timing-memo hits (plan rows answered from the LRU memo when a plan is read)"),
        Stat("misses", SUM, "adsala_timing_cache_misses_total",
             "Timing-memo misses (distinct rows simulated when a plan is read)"),
        Stat("size", SUM, "adsala_timing_cache_size", "Rows currently held by the timing memo"),
        Stat("capacity", SUM, "adsala_timing_cache_capacity",
             "Timing-memo capacity (summed across shards when merged)"),
    )),
)

#: ``ServingEngine.stats``: what every shard answers and the frontend merges.
ENGINE = (
    Stat("requests", SUM, "adsala_requests_total", "Plan requests answered"),
    Stat("batches", SUM, "adsala_batches_total", "Micro-batches processed"),
    Stat("mean_batch_size", RATIO, "adsala_batch_size_mean",
         "Lifetime mean micro-batch size (requests / batches)", of=("requests", "batches")),
    Stat("max_batch_size", MAX, "adsala_batch_size_max",
         "Largest micro-batch in the rolling window"),
    Stat("drift_threshold", FIRST),
    Stat("reinstall_candidates", UNION, "adsala_reinstall_candidates",
         "Routines currently flagged as drifted past threshold"),
    Stat("routines", MAP, of=ROUTINE, label="routine"),
    Stat("batch_size_limit", FIRST, "adsala_batch_size_limit",
         "Configured micro-batch size bound"),
    Stat("fallback_chain", FIRST),
    Stat("rejected_unknown_routine", SUM, "adsala_rejected_unknown_routine_total",
         "Requests rejected at intake for an unregistered routine key"),
    Stat("cache", BLOCK, of=CACHE),
    # Stamped where a snapshot is taken; the frontend stamps its own.
    Stat("wall_time", LOCAL, "adsala_stats_wall_time_seconds",
         "Wall-clock instant the collected snapshot was taken"),
    Stat("monotonic_time"),
)

#: One shard's row under ``supervision.per_shard``: ``FaultTelemetry.snapshot``
#: plus one copy of the shard's own two counters.  The summed keys are also
#: the supervision block's totals.
SUPERVISION_ROW = (
    Stat("failures", SUM, "adsala_shard_failures_total", "Worker failures observed"),
    Stat("restarts", SUM, "adsala_shard_restarts_total", "Worker restarts performed"),
    Stat("redispatched", SUM, "adsala_shard_redispatched_total",
         "Stranded in-flight requests redispatched after a failure"),
    Stat("rerouted", SUM, "adsala_shard_rerouted_total",
         "Requests rerouted away from a quarantined shard"),
    Stat("hangs", SUM, "adsala_shard_hangs_total", "Hung-worker detections"),
    Stat("quarantined", LOCAL, "adsala_shard_quarantined",
         "Whether the shard is quarantined (1) or serving (0)"),
    Stat("deadline_expired", SUM),
    Stat("duplicate_answers", SUM),
)

#: ``ShardSupervisor.snapshot``: totals over the rows above, plus its own keys.
SUPERVISION = (
    Stat("healthy_shards", LOCAL, "adsala_shards_healthy",
         "Shards currently serving (not quarantined)"),
    Stat("recovery_episodes", SUM, "adsala_recovery_episodes_total",
         "Completed failure-to-healthy recovery episodes", source="recovery.count"),
    Stat("recovery_mean_s", MEAN, "adsala_recovery_seconds_mean",
         "Mean seconds from first failure to first healthy batch",
         of="recovery.count", source="recovery.mean"),
    Stat("recovery_max_s", MAX, "adsala_recovery_seconds_max",
         "Worst recovery episode in the rolling window, seconds", source="recovery.max"),
    Stat("per_shard", ROWS, of=SUPERVISION_ROW, label="shard"),
)

#: What the frontend reports around the merged engine block; nothing here
#: is combined (one frontend), ``per_shard`` holds each shard's ``describe()``.
FRONTEND = (
    Stat("shards", LOCAL, "adsala_shards", "Engine shards behind the frontend"),
    Stat("supervision", BLOCK, of=SUPERVISION),
    Stat("pending", LOCAL, "adsala_pending",
         "Requests enqueued on a shard and not yet resolved (summed across shards)"),
    Stat("admission", BLOCK, of=(
        Stat("capacity", LOCAL, "adsala_admission_capacity",
             "Bound on concurrently admitted requests"),
        Stat("submitted", LOCAL, "adsala_submitted_total", "Requests admitted by the frontend"),
        Stat("completed", LOCAL, "adsala_completed_total",
             "Admitted requests whose future resolved"),
        Stat("in_flight", LOCAL, "adsala_inflight", "Requests admitted and not yet answered"),
        Stat("shed", LOCAL, "adsala_shed_total",
             "Requests refused by reject-mode admission control"),
    )),
    Stat("per_shard", ROWS, label="shard", of=(
        Stat("deadline_expired", LOCAL, "adsala_shard_deadline_expired_total",
             "Requests shed because their deadline passed"),
        Stat("duplicate_answers", LOCAL, "adsala_shard_duplicate_answers_total",
             "Answers discarded because the request was already resolved"),
    )),
)

#: Every key a snapshot — one engine's or the frontend's merged one — can carry.
SNAPSHOT = ENGINE + FRONTEND

_ABSENT = object()


def _dig(part: Mapping, path: str):
    for key in path.split("."):
        if key not in part:
            return _ABSENT
        part = part[key]
    return part


def _mean(stat: Stat, values: Sequence, carriers: Sequence[Mapping]) -> float:
    weights = [_dig(part, stat.of) for part in carriers]
    total = sum(weights)
    return sum(v * w for v, w in zip(values, weights)) / total if total else 0.0


def _map(stat: Stat, values: Sequence[Mapping], carriers: Sequence[Mapping]) -> dict:
    names = dict.fromkeys(name for value in values for name in value)  # first-seen order
    return {
        name: merge(stat.of, [value[name] for value in values if name in value])
        for name in names
    }


_COMBINE = {
    SUM: lambda stat, values, _: sum(values),
    MAX: lambda stat, values, _: max(values),
    FIRST: lambda stat, values, _: values[0],
    UNION: lambda stat, values, _: sorted(set().union(*values)),
    PREFER: lambda stat, values, _: next((v for v in stat.of if v in values), values[0]),
    MEAN: _mean,
    HISTOGRAM: lambda stat, values, _: merge_histogram_snapshots(values, values[0]["bounds"]),
    BLOCK: lambda stat, values, _: merge(stat.of, values),
    MAP: _map,
}


def merge(block: Sequence[Stat], parts: Sequence[Mapping]) -> Dict[str, object]:
    """Combine per-shard ``parts`` into one dict by ``block``'s rules."""
    out: Dict[str, object] = {}
    for stat in block:
        if stat.rule == RATIO:
            numerator, *denominators = stat.of
            if numerator in out:
                total = sum(out[key] for key in denominators)
                out[stat.key] = out[numerator] / total if total else 0.0
        elif stat.rule in _COMBINE:
            path = stat.source or stat.key
            found = [
                (value, part) for part in parts if (value := _dig(part, path)) is not _ABSENT
            ]
            if found:
                values, carriers = zip(*found)
                out[stat.key] = _COMBINE[stat.rule](stat, values, carriers)
    return out


def series(
    snapshot: Mapping, block: Sequence[Stat] = SNAPSHOT, **labels: str
) -> Iterator[Tuple[Stat, object, Dict[str, str]]]:
    """``(stat, value, labels)`` for every exported statistic ``snapshot``
    carries — an engine's, a merged one or a partial one alike.  A
    list-valued statistic exports its length."""
    for stat in block:
        value = snapshot.get(stat.key)
        if value is None:
            continue
        if stat.rule == BLOCK:
            yield from series(value, stat.of, **labels)
        elif stat.rule == MAP:
            for name, entry in value.items():
                yield from series(entry, stat.of, **labels, **{stat.label: name})
        elif stat.rule == ROWS:
            for row in value:
                yield from series(row, stat.of, **labels, **{stat.label: str(row.get("index"))})
        elif stat.name is not None:
            value = len(value) if isinstance(value, list) else value
            yield stat, value, {**labels, **stat.labels}


def metrics(block: Sequence[Stat] = SNAPSHOT) -> Iterator[Stat]:
    """Every exported statistic the block (and the blocks under it) declares."""
    for stat in block:
        if stat.rule in (BLOCK, MAP, ROWS):
            yield from metrics(stat.of)
        elif stat.name is not None:
            yield stat
