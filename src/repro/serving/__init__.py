"""Production serving layer on top of the ADSALA core.

The paper splits ADSALA into an offline installer (Fig. 1a) and a runtime
predictor (Fig. 1b).  This subpackage turns the runtime half into a serving
engine fit for heavy traffic:

* :mod:`repro.serving.registry` — a versioned model registry over on-disk
  bundles: lazy per-routine loading, several platforms/bundle versions side
  by side, and hot-reload of a re-installed bundle directory.
* :mod:`repro.serving.engine` — a micro-batching plan server: requests are
  coalesced per routine and answered through one batched predictor pass
  instead of N scalar ``plan()`` calls; a plan's simulated times are
  deferred rows, timed in one ``time_batch`` pass when first read.
  Thread-safe behind one coarse engine lock.
* :mod:`repro.serving.frontend` / :mod:`repro.serving.shard` — the
  concurrent sharded frontend: traffic partitioned across N engine shards
  by a deterministic ``(routine, dims_key)`` hash, waitable ``submit()``
  futures, bounded admission control (block or reject backpressure) and
  merged cross-shard statistics.
* :mod:`repro.serving.fallback` — the composable fallback-policy chain
  (installed precision → cross precision → max-threads heuristic) that
  decides which installed model serves a request.
* :mod:`repro.serving.supervisor` / :mod:`repro.serving.faults` — fault
  tolerance: shard health monitoring, dead/hung-worker restart with capped
  exponential backoff, exactly-once redispatch of stranded requests,
  circuit-breaker quarantine with deterministic rerouting, and a seeded
  fault-injection harness for chaos testing.
* :mod:`repro.serving.telemetry` — online observed-vs-predicted error
  tracking, rolling drift statistics and re-install flagging.
* :mod:`repro.serving.workload` — synthetic request streams (uniform /
  cycling / skewed) and JSONL workload files for ``adsala serve`` and the
  throughput benchmark.

:class:`~repro.core.runtime.AdsalaRuntime` and
:class:`~repro.core.runtime.AdsalaBlas` remain the stable public facade;
they delegate to a private :class:`~repro.serving.engine.ServingEngine`.
"""

from repro.serving.fallback import (
    CrossPrecisionPolicy,
    FallbackChain,
    FallbackPolicy,
    InstalledPrecisionPolicy,
    MaxThreadsPolicy,
    RoutineResolution,
    UnservableRoutineError,
    default_runtime_chain,
    default_serving_chain,
)
from repro.serving.telemetry import (
    EngineTelemetry,
    FaultTelemetry,
    RollingStats,
    RoutineTelemetry,
    ShapeHistogram,
    TrafficRecord,
)
from repro.serving.registry import BundleHandle, ModelRegistry
from repro.serving.engine import PlanRequest, ServingEngine, normalize_request
from repro.serving.frontend import (
    PlanFuture,
    QueueFullError,
    ShardedFrontend,
    shard_index,
)
from repro.serving.shard import (
    DeadlineExceededError,
    EngineShard,
    ShardFailure,
)
from repro.serving.procshard import (
    FrameCorruptionError,
    ProcessShard,
    WorkerDiedError,
    WorkerInitError,
)
from repro.serving.supervisor import (
    NoHealthyShardError,
    RestartPolicy,
    ShardSupervisor,
)
from repro.serving.faults import FaultInjector, InjectedFault, parse_fault_spec
from repro.serving.workload import (
    WorkloadRequest,
    append_jsonl,
    generate_workload,
    load_workload,
    read_jsonl,
    save_workload,
)

__all__ = [
    "FallbackPolicy",
    "FallbackChain",
    "InstalledPrecisionPolicy",
    "CrossPrecisionPolicy",
    "MaxThreadsPolicy",
    "RoutineResolution",
    "UnservableRoutineError",
    "default_runtime_chain",
    "default_serving_chain",
    "RollingStats",
    "ShapeHistogram",
    "TrafficRecord",
    "RoutineTelemetry",
    "EngineTelemetry",
    "BundleHandle",
    "ModelRegistry",
    "PlanRequest",
    "ServingEngine",
    "normalize_request",
    "EngineShard",
    "ProcessShard",
    "ShardedFrontend",
    "PlanFuture",
    "QueueFullError",
    "shard_index",
    "ShardFailure",
    "DeadlineExceededError",
    "WorkerDiedError",
    "WorkerInitError",
    "FrameCorruptionError",
    "NoHealthyShardError",
    "ShardSupervisor",
    "RestartPolicy",
    "FaultInjector",
    "InjectedFault",
    "parse_fault_spec",
    "FaultTelemetry",
    "WorkloadRequest",
    "generate_workload",
    "load_workload",
    "save_workload",
    "read_jsonl",
    "append_jsonl",
]
