"""Online serving telemetry: error tracking, drift detection, counters.

The installer fits each routine's model once, offline; under real traffic
the hardware, library versions or workload mix can move away from the
training distribution.  The serving engine therefore records, per routine,
the *observed* runtime of executed calls against the *predicted* runtime of
the plan that scheduled them.  A rolling window of absolute relative errors
yields a drift statistic, and routines whose rolling error exceeds a
threshold are flagged as re-install candidates — the online counterpart of
the paper's offline model-selection criterion.

Everything here is plain bookkeeping with no locks of its own: the engine
drives it while holding its coarse engine lock, which serialises every
batch/plan/observation update (see :class:`~repro.serving.engine.ServingEngine`).
Do not mutate these objects from outside the owning engine's lock.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import BucketHistogram

__all__ = [
    "FaultTelemetry",
    "RollingStats",
    "ShapeHistogram",
    "TrafficRecord",
    "RoutineTelemetry",
    "EngineTelemetry",
]


class RollingStats:
    """Streaming mean/extrema over a bounded window of float samples.

    The windowed sum is maintained incrementally (subtract the evicted
    sample, add the new one), which is O(1) but accumulates floating-point
    rounding error without bound over a long stream.  Every ``window``
    evictions the sum is therefore recomputed exactly from the live window
    with compensated summation (:func:`math.fsum`) — amortised O(1) per
    sample — so ``mean`` stays within a few ULPs of the true window mean
    over arbitrarily many observations.
    """

    def __init__(self, window: int = 256):
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = int(window)
        self._values: Deque[float] = deque(maxlen=self.window)
        self._sum = 0.0
        self._evictions_since_resync = 0
        self.n_total = 0

    def add(self, value: float) -> None:
        value = float(value)
        if len(self._values) == self.window:
            self._sum -= self._values[0]
            self._evictions_since_resync += 1
        self._values.append(value)
        self._sum += value
        self.n_total += 1
        if self._evictions_since_resync >= self.window:
            self._sum = math.fsum(self._values)
            self._evictions_since_resync = 0

    def __len__(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        if not self._values:
            return 0.0
        return self._sum / len(self._values)

    @property
    def max(self) -> float:
        return max(self._values) if self._values else 0.0

    @property
    def last(self) -> float:
        return self._values[-1] if self._values else 0.0

    def quantile(self, q: float) -> float:
        """Exact ``q``-quantile of the live window (0.0 when empty).

        Sorted linear interpolation, matching ``numpy.quantile``'s default
        method bit-for-bit on the same samples — the telemetry tests pin
        this.  O(n log n) per call, so callers take it at snapshot time,
        not per observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self._values:
            return 0.0
        values = sorted(self._values)
        position = q * (len(values) - 1)
        lower = int(position)
        upper = min(lower + 1, len(values) - 1)
        fraction = position - lower
        return values[lower] + (values[upper] - values[lower]) * fraction

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": len(self._values),
            "total": self.n_total,
            "mean": self.mean,
            "max": self.max,
            "last": self.last,
        }


class ShapeHistogram:
    """Bounded frequency histogram of observed problem shapes for one routine.

    The adaptive re-gather seeds its timing campaign from the shapes real
    traffic actually asked for, instead of the static Halton training grid —
    so the retrained model is most accurate exactly where the workload
    lives.  Keys are canonical ``dims_key`` tuples (sorted ``(name, value)``
    pairs, the same form :class:`~repro.serving.engine.PlanRequest` carries);
    the map is LRU-bounded so an adversarial stream of unique shapes cannot
    grow it without limit (the evicted tail is the least recently *seen*
    shape, which under skewed real traffic is also the coldest).
    """

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self._counts: "OrderedDict[tuple, int]" = OrderedDict()
        self.n_recorded = 0
        self.n_evicted = 0

    def __len__(self) -> int:
        return len(self._counts)

    def record(self, dims_key: tuple) -> None:
        count = self._counts.get(dims_key)
        if count is None:
            if len(self._counts) >= self.capacity:
                self._counts.popitem(last=False)
                self.n_evicted += 1
            self._counts[dims_key] = 1
        else:
            self._counts[dims_key] = count + 1
            self._counts.move_to_end(dims_key)
        self.n_recorded += 1

    def shapes(self) -> List[Dict[str, int]]:
        """Every tracked shape as a dims dict (insertion/recency order)."""
        return [dict(key) for key in self._counts]

    def top(self, n: int) -> List[Tuple[Dict[str, int], int]]:
        """The ``n`` most frequent shapes with their counts, hottest first."""
        ranked = sorted(self._counts.items(), key=lambda item: (-item[1], item[0]))
        return [(dict(key), count) for key, count in ranked[:n]]

    def sample(
        self, n: int, rng: np.random.Generator
    ) -> List[Dict[str, int]]:
        """Draw ``n`` shapes (with replacement) weighted by observed frequency."""
        if n < 1:
            raise ValueError("n must be positive")
        if not self._counts:
            raise ValueError("cannot sample from an empty histogram")
        keys = list(self._counts)
        weights = np.fromiter(
            (self._counts[k] for k in keys), dtype=float, count=len(keys)
        )
        weights /= weights.sum()
        picks = rng.choice(len(keys), size=n, p=weights)
        return [dict(keys[int(i)]) for i in picks]

    def snapshot(self) -> Dict[str, object]:
        return {
            "distinct": len(self._counts),
            "recorded": self.n_recorded,
            "evicted": self.n_evicted,
            "top": [
                {"dims": dims, "count": count} for dims, count in self.top(5)
            ],
        }


@dataclass(frozen=True)
class TrafficRecord:
    """One executed call: the plan that scheduled it and its measured runtime.

    The bounded per-routine traffic log is what the shadow evaluator replays
    through a candidate model: the candidate's runtime prediction *at the
    executed thread count* is compared against the observed runtime, so no
    call is ever executed twice.
    """

    dims: Dict[str, int]
    threads: int
    predicted: float
    observed: float


class RoutineTelemetry:
    """Per-routine serving statistics.

    Tracks how many plans were produced (and by which fallback path), the
    rolling observed-vs-predicted error (each observation contributes
    ``|observed - predicted| / observed`` to a bounded window), the observed
    shape distribution (:class:`ShapeHistogram`) and a bounded traffic log
    of executed calls for shadow evaluation.
    """

    def __init__(self, routine: str, window: int = 256, shape_capacity: int = 512):
        self.routine = routine
        self.window = int(window)
        self.n_plans = 0
        self.n_cache_hits = 0
        self.n_fallback_plans = 0
        self.n_heuristic_plans = 0
        self.n_observations = 0
        self.n_invalid_observations = 0
        self.errors = RollingStats(window)
        self.shapes = ShapeHistogram(shape_capacity)
        self.traffic: Deque[TrafficRecord] = deque(maxlen=self.window)
        #: Per-plan share of its group's planning time (the group's model
        #: pass / group size; plans defer their simulator rows, so none of
        #: it is simulator time), fixed buckets — the live p50/p99
        #: plan-latency source for the metrics exporter.
        self.latency = BucketHistogram()

    def record_plan(
        self,
        from_cache: bool,
        fallback: bool,
        heuristic: bool,
        dims_key: tuple | None = None,
    ) -> None:
        self.n_plans += 1
        if from_cache:
            self.n_cache_hits += 1
        if fallback:
            self.n_fallback_plans += 1
        if heuristic:
            self.n_heuristic_plans += 1
        if dims_key is not None:
            self.shapes.record(dims_key)

    def record_latency(self, seconds: float, count: int = 1) -> None:
        """Fold ``count`` plans' equal shares of their group's planning time
        into the latency histogram (engine lock held, like every mutator here)."""
        self.latency.observe(seconds, count)

    def record_observation(
        self,
        predicted: float,
        observed: float,
        dims: Optional[Dict[str, int]] = None,
        threads: Optional[int] = None,
    ) -> None:
        """Fold one executed call's measured runtime into the drift window."""
        if observed <= 0 or predicted < 0:
            self.n_invalid_observations += 1
            return
        self.n_observations += 1
        self.errors.add(abs(observed - predicted) / observed)
        if dims is not None and threads is not None:
            self.traffic.append(
                TrafficRecord(
                    dims=dict(dims),
                    threads=int(threads),
                    predicted=float(predicted),
                    observed=float(observed),
                )
            )

    def reset_window(self) -> None:
        """Forget the rolling error window and traffic log (not the counters).

        Called after a model promotion: errors measured against the replaced
        model would otherwise keep the drift flag lit (and poison the next
        shadow evaluation) long after the new model took over.  The shape
        histogram survives — the workload distribution is a property of the
        traffic, not of the model serving it.
        """
        self.errors = RollingStats(self.window)
        self.traffic.clear()

    @property
    def mean_abs_rel_error(self) -> float:
        return self.errors.mean

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of this routine's plans answered from the LRU cache."""
        if self.n_plans == 0:
            return 0.0
        return self.n_cache_hits / self.n_plans

    def drifting(self, threshold: float, min_observations: int) -> bool:
        """True when the rolling error is trustworthy and above threshold."""
        return (
            len(self.errors) >= min_observations
            and self.errors.mean > threshold
        )

    def snapshot(self) -> Dict[str, object]:
        return {
            "routine": self.routine,
            "plans": self.n_plans,
            "cache_hits": self.n_cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "fallback_plans": self.n_fallback_plans,
            "heuristic_plans": self.n_heuristic_plans,
            "observations": self.n_observations,
            "invalid_observations": self.n_invalid_observations,
            "mean_abs_rel_error": self.mean_abs_rel_error,
            "p50_abs_rel_error": self.errors.quantile(0.5),
            "p99_abs_rel_error": self.errors.quantile(0.99),
            "max_abs_rel_error": self.errors.max,
            "latency": self.latency.snapshot(),
            "shapes": self.shapes.snapshot(),
            "traffic_records": len(self.traffic),
        }


class EngineTelemetry:
    """Aggregate serving statistics for one :class:`ServingEngine`.

    Parameters
    ----------
    drift_threshold:
        Rolling mean absolute relative error above which a routine is
        flagged as a re-install candidate.
    min_observations:
        Observations required in the window before the drift flag can fire
        (guards against flagging on a handful of noisy calls).
    window:
        Rolling window length for per-routine errors, traffic logs and
        batch sizes.
    shape_capacity:
        Bound on distinct shapes tracked per routine's
        :class:`ShapeHistogram`.
    """

    def __init__(
        self,
        drift_threshold: float = 0.25,
        min_observations: int = 20,
        window: int = 256,
        shape_capacity: int = 512,
    ):
        if drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")
        if min_observations < 1:
            raise ValueError("min_observations must be at least 1")
        self.drift_threshold = float(drift_threshold)
        self.min_observations = int(min_observations)
        self.window = int(window)
        self.shape_capacity = int(shape_capacity)
        self.n_requests = 0
        self.n_batches = 0
        self.batch_sizes = RollingStats(window)
        self.routines: "OrderedDict[str, RoutineTelemetry]" = OrderedDict()

    def routine(self, routine: str) -> RoutineTelemetry:
        """One routine's row, created on first use."""
        telemetry = self.routines.get(routine)
        if telemetry is None:
            telemetry = RoutineTelemetry(
                routine, window=self.window, shape_capacity=self.shape_capacity
            )
            self.routines[routine] = telemetry
        return telemetry

    def record_batch(self, size: int) -> None:
        self.n_batches += 1
        self.n_requests += size
        self.batch_sizes.add(size)

    def record_plan(
        self,
        routine: str,
        from_cache: bool,
        fallback: bool,
        heuristic: bool,
        dims_key: tuple | None = None,
    ) -> None:
        self.routine(routine).record_plan(
            from_cache, fallback, heuristic, dims_key=dims_key
        )

    def record_latency(self, routine: str, seconds: float) -> None:
        self.routine(routine).record_latency(seconds)

    def record_observation(
        self,
        routine: str,
        predicted: float,
        observed: float,
        dims: Optional[Dict[str, int]] = None,
        threads: Optional[int] = None,
    ) -> None:
        self.routine(routine).record_observation(
            predicted, observed, dims=dims, threads=threads
        )

    def reset_routine(self, routine: str) -> bool:
        """Reset one routine's drift window after its model was replaced."""
        telemetry = self.routines.get(routine)
        if telemetry is None:
            return False
        telemetry.reset_window()
        return True

    def reinstall_candidates(self) -> List[str]:
        """Routines whose rolling prediction error drifted past threshold."""
        return [
            routine
            for routine, telemetry in self.routines.items()
            if telemetry.drifting(self.drift_threshold, self.min_observations)
        ]

    def drift_report(self, routine: str) -> Optional[Dict[str, object]]:
        telemetry = self.routines.get(routine)
        return None if telemetry is None else telemetry.snapshot()

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serialisable summary of everything tracked."""
        return {
            "requests": self.n_requests,
            "batches": self.n_batches,
            # Lifetime, not windowed: requests / batches merges exactly.
            "mean_batch_size": (
                self.n_requests / self.n_batches if self.n_batches else 0.0
            ),
            "max_batch_size": self.batch_sizes.max,
            "drift_threshold": self.drift_threshold,
            "reinstall_candidates": self.reinstall_candidates(),
            "routines": {
                routine: telemetry.snapshot()
                for routine, telemetry in self.routines.items()
            },
        }


class FaultTelemetry:
    """Supervision counters for one shard, owned by the shard supervisor.

    Like every other class here this carries no locks of its own — the
    :class:`~repro.serving.supervisor.ShardSupervisor` mutates it under its
    own lock.  ``recovery`` tracks the seconds from the first failure of an
    episode to the first healthy batch afterwards, over a bounded window,
    so the merged stats (and ``bench_fault_recovery``) can report
    time-to-recovery without unbounded growth.
    """

    def __init__(self, index: int, recovery_window: int = 64):
        self.index = int(index)
        self.n_failures = 0
        self.n_restarts = 0
        self.n_redispatched = 0
        self.n_rerouted = 0
        self.n_hangs = 0
        self.consecutive_failures = 0
        self.quarantined = False
        self.last_error: Optional[str] = None
        #: Monotonic instant the current failure episode started (None when healthy).
        self.failure_started: Optional[float] = None
        self.recovery = RollingStats(recovery_window)

    def snapshot(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "failures": self.n_failures,
            "restarts": self.n_restarts,
            "redispatched": self.n_redispatched,
            "rerouted": self.n_rerouted,
            "hangs": self.n_hangs,
            "consecutive_failures": self.consecutive_failures,
            "quarantined": self.quarantined,
            "last_error": self.last_error,
            "recovering": self.failure_started is not None,
            "recovery": self.recovery.snapshot(),
        }
