"""The ADSALA runtime library (paper Fig. 1b) — facade over the serving engine.

Two stable entry points:

* :class:`AdsalaRuntime` — the planner: given a routine and its matrix
  dimensions it returns the predicted-optimal thread count and the
  simulator's estimate of the time saved.
* :class:`AdsalaBlas` — a drop-in BLAS front-end: ``gemm``/``symm``/...
  methods accept NumPy operands, plan the thread count from the operand
  shapes and execute the call with the blocked multi-threaded substrate,
  capping the worker count at the locally available cores.

Design: facade over engine
--------------------------
Since the serving refactor both classes are *thin facades* over a private
:class:`~repro.serving.engine.ServingEngine`.  A single ``plan()`` call is a
micro-batch of one: it flows through the same fallback-policy chain, batch
predictor evaluation and telemetry as high-throughput traffic, so per-call
and batched planning cannot drift apart.  The facade pins the
:func:`~repro.serving.fallback.default_runtime_chain` (installed precision →
cross precision) to preserve the historical contract that a routine with no
model at all raises ``KeyError``; pass a custom ``fallback`` chain (e.g.
:func:`~repro.serving.fallback.default_serving_chain`) to change that.
Batch entry points (:meth:`AdsalaRuntime.plan_many`) and engine telemetry
(:meth:`AdsalaRuntime.serving_stats`) are exposed directly.

Cross-precision substitutions are no longer silent: the returned
:class:`ExecutionPlan` records the originally requested routine in
``fallback_from`` and the resolving policy name in ``policy``.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.blas.threaded import ThreadedBlas
from repro.core.install import InstallationBundle
from repro.routines import get_catalog

__all__ = ["ExecutionPlan", "AdsalaRuntime", "AdsalaBlas"]


class TimingMemo:
    """The engine's timing memo: an LRU of at most ``capacity`` timed rows,
    ``(routine, sorted dims items, threads)`` → seconds (``0`` keeps and counts
    none), its counters, and the resolver lock every group read holds.
    :meth:`renew` starts a source generation's ``rows``; the counters stay.
    """

    __slots__ = ("capacity", "lock", "rows", "hits", "misses")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.lock = threading.Lock()
        self.hits = self.misses = 0
        self.renew()

    def renew(self) -> None:
        self.rows: Optional[OrderedDict] = OrderedDict() if self.capacity else None


class PendingTimings:
    """Simulator rows one planning group owes, answered when a plan is read.

    Planning puts the group in both time slots of each of its plans and the
    plan in ``rows``.  A plan owes the row of its own thread count and the
    ``max_threads`` baseline row, one row when they coincide.  The first read
    resolves the group under the memo's lock: rows the memo holds answer
    from it, the distinct rest are timed in **one** ``time_batch`` pass and
    stored, and both floats go into each plan's instance dict.  Pins the
    simulator and the memo rows it was planned under, so a reload cannot
    change what its plans report; once resolved it drops them.
    """

    __slots__ = ("routine", "simulator", "memo", "memo_rows", "max_threads", "rows", "__weakref__")

    def __init__(self, routine: str, simulator, memo: TimingMemo, max_threads: int):
        self.routine = routine
        self.simulator = simulator
        self.memo = memo
        self.memo_rows = memo.rows
        self.max_threads = max_threads
        self.rows: Optional[List[ExecutionPlan]] = []

    def resolve(self) -> None:
        memo = self.memo
        with memo.lock:
            plans, memoised, routine = self.rows, self.memo_rows, self.routine
            if plans is None:  # another reader got here first
                return
            seconds: Dict[tuple, float] = {}  # row -> its time, memoised or timed
            untimed: Dict[tuple, tuple] = {}  # row the memo lacks -> (dims, threads)
            owed = []  # (plan state, its row, its baseline row)
            for plan in plans:
                dims, chosen = plan.dims, plan.threads
                shape = tuple(sorted(dims.items()))
                own, base = (routine, shape, chosen), (routine, shape, self.max_threads)
                owed.append((plan.__dict__, own, base))
                for row in (own,) if own == base else (own, base):
                    value = None if memoised is None else memoised.get(row)
                    if value is not None:
                        memoised.move_to_end(row)
                        memo.hits += 1
                        seconds[row] = value
                    elif row not in untimed:
                        untimed[row] = (dims, row[2])
            if untimed:
                dim_names = get_catalog().resolve(routine)[2].dim_names
                # One int64 row per dimension, threads last, in a single conversion.
                table = np.array(
                    [[dims[name] for dims, _ in untimed.values()] for name in dim_names]
                    + [[threads for _, threads in untimed.values()]],
                    dtype=np.int64,
                )
                times = self.simulator.time_batch(routine, dict(zip(dim_names, table)), table[-1])
                for row, value in zip(untimed, times):
                    seconds[row] = value = float(value)
                    if memoised is not None:
                        memoised[row] = value
                if memoised is not None:
                    memo.misses += len(untimed)
                    while len(memoised) > memo.capacity:
                        memoised.popitem(last=False)
            for state, own, base in owed:
                state["_predicted_time"], state["_baseline_time"] = seconds[own], seconds[base]
            self.simulator = self.memo_rows = self.rows = None


class _SimulatedTime:
    """Read-only view of a plan slot holding a float or its
    :class:`PendingTimings` group, which the first read resolves."""

    def __init__(self, slot: str):
        self.slot = slot

    def __get__(self, plan, owner=None):
        if plan is None:  # class access: tells @dataclass there is no default
            raise AttributeError(self.slot)
        value = plan.__dict__[self.slot]
        if isinstance(value, PendingTimings):
            value.resolve()
            value = plan.__dict__[self.slot]
        return value


@dataclass(frozen=True, init=False)
class ExecutionPlan:
    """A planned BLAS call: chosen thread count plus simulator estimates.

    ``predicted_time`` and ``baseline_time`` are views.  The constructor
    takes floats (decoded frames, tests) or, from the engine, the plan's
    :class:`PendingTimings` planning group in both slots: planning neither
    runs the simulator nor consults the timing memo.  The first read of an
    untimed field, from any thread, resolves every row its group owes — from
    the memo it was planned under, the rest in one batched simulator pass —
    and writes both floats into each of the group's plans; ``==``, ``repr``,
    pickling and :attr:`estimated_speedup` read the fields and so see timed
    values.

    Attributes
    ----------
    routine:
        The routine key whose model produced the plan (the *served* key).
    predicted_time / baseline_time:
        Simulated runtime at the chosen thread count / at the platform's
        maximum thread count.
    fallback_from:
        The originally requested key when a fallback policy substituted a
        different model (e.g. ``"sgemm"`` served by the ``dgemm`` model),
        ``None`` when the request was served as-is.
    policy:
        Name of the fallback policy that resolved the request
        (``"installed"``, ``"cross-precision"``, ``"max-threads"``).
    """

    routine: str
    dims: Dict[str, int]
    threads: int
    predicted_time: float = _SimulatedTime("_predicted_time")
    baseline_time: float = _SimulatedTime("_baseline_time")
    from_cache: bool
    fallback_from: Optional[str] = None
    policy: str = "installed"

    def __init__(self, routine, dims, threads, predicted_time, baseline_time, from_cache,
                 fallback_from=None, policy="installed"):
        # Written to the instance dict (the generated one would reach the two
        # view slots through a descriptor ``__set__`` and every field through
        # ``object.__setattr__``): this is the per-plan hot path.
        state = self.__dict__
        state["routine"] = routine
        state["dims"] = dims
        state["threads"] = threads
        state["_predicted_time"] = predicted_time
        state["_baseline_time"] = baseline_time
        state["from_cache"] = from_cache
        state["fallback_from"] = fallback_from
        state["policy"] = policy

    def __reduce__(self):
        return ExecutionPlan, tuple(getattr(self, f.name) for f in fields(self))

    #: Sentinel returned by :attr:`estimated_speedup` when the predicted
    #: time is non-positive and no meaningful ratio exists.
    SPEEDUP_UNDEFINED = 0.0

    @property
    def estimated_speedup(self) -> float:
        """``baseline_time / predicted_time``, or :data:`SPEEDUP_UNDEFINED`.

        A non-positive predicted time carries no speedup information (it
        would previously overflow to ``inf``); the finite sentinel ``0.0``
        keeps downstream aggregation (means, tables) well defined.
        """
        if self.predicted_time <= 0:
            return self.SPEEDUP_UNDEFINED
        return self.baseline_time / self.predicted_time


class AdsalaRuntime:
    """Plan thread counts for BLAS calls using an installation bundle.

    A thin facade over :class:`~repro.serving.engine.ServingEngine`: the
    public contract of the original one-shot planner is preserved (same
    ``plan()`` signature, ``KeyError`` for unknown routines, per-routine
    LRU caches), while every call runs through the engine's micro-batch
    pipeline.

    Parameters
    ----------
    bundle:
        The installation bundle (or a registry
        :class:`~repro.serving.registry.BundleHandle`) for the platform.
    fallback:
        Optional :class:`~repro.serving.fallback.FallbackChain` overriding
        the default installed-precision → cross-precision chain.
    """

    def __init__(self, bundle: InstallationBundle, fallback=None):
        # Imported here: repro.serving sits above repro.core in the layer
        # diagram, and the facade is the one place the layers meet.
        from repro.serving.engine import ServingEngine
        from repro.serving.fallback import default_runtime_chain

        self.bundle = bundle
        self.platform = bundle.platform
        self.simulator = bundle.simulator
        self.engine = ServingEngine(
            bundle, fallback=fallback if fallback is not None else default_runtime_chain()
        )

    def plan(self, routine: str, use_cache: bool = True, **dims: int) -> ExecutionPlan:
        """Plan one call: predicted-optimal threads + estimated speedup.

        Precision fallbacks (``sgemm`` served by the ``dgemm`` model when
        only the latter was installed) are applied by the engine's fallback
        chain and recorded on the plan's ``fallback_from`` field.
        """
        return self.engine.plan(routine, use_cache, **dims)

    def plan_many(
        self, requests: Iterable[Tuple[str, Dict[str, int]]]
    ) -> List[ExecutionPlan]:
        """Plan many ``(routine, dims)`` calls in micro-batches (one pass)."""
        return self.engine.plan_many(requests)

    @property
    def calls_planned(self) -> int:
        """Total requests answered (kept from the pre-engine counter API)."""
        return self.engine.telemetry.n_requests

    def cache_statistics(self) -> Dict[str, int]:
        """Aggregate model-evaluation / cache-hit counters across routines."""
        evaluations = 0
        hits = 0
        for installation in self.bundle.routines.values():
            evaluations += installation.predictor.n_model_evaluations
            hits += installation.predictor.n_cache_hits
        return {"model_evaluations": evaluations, "cache_hits": hits}

    def serving_stats(self) -> Dict[str, object]:
        """The engine's telemetry snapshot (batches, drift, per-routine)."""
        return self.engine.stats()


class AdsalaBlas:
    """BLAS Level 3 front-end with ML-selected thread counts.

    A facade pairing the planning engine (via :class:`AdsalaRuntime`) with
    the blocked multi-threaded execution substrate.

    Parameters
    ----------
    bundle:
        The installation bundle for the target platform.
    execution_thread_cap:
        Maximum number of worker threads actually spawned when executing a
        call locally.  Defaults to the local CPU count: the *planned* thread
        count refers to the modelled platform (e.g. 96 threads on Gadi) and
        is reported in the plan, while local execution clamps to what the
        host can run.
    tile:
        Tile size for the blocked execution substrate.
    """

    def __init__(
        self,
        bundle: InstallationBundle,
        execution_thread_cap: int | None = None,
        tile: int = 256,
    ):
        self.runtime = AdsalaRuntime(bundle)
        if execution_thread_cap is None:
            execution_thread_cap = os.cpu_count() or 1
        if execution_thread_cap < 1:
            raise ValueError("execution_thread_cap must be at least 1")
        self.execution_thread_cap = execution_thread_cap
        self.tile = tile
        self.last_plan: ExecutionPlan | None = None

    # -- planning --------------------------------------------------------------
    def plan(self, routine: str, **dims: int) -> ExecutionPlan:
        plan = self.runtime.plan(routine, **dims)
        self.last_plan = plan
        return plan

    def _executor(self, plan: ExecutionPlan) -> ThreadedBlas:
        threads = min(plan.threads, self.execution_thread_cap)
        return ThreadedBlas(n_threads=max(1, threads), tile=self.tile)

    @staticmethod
    def _precision_of(*arrays: np.ndarray) -> str:
        return "s" if all(np.asarray(a).dtype == np.float32 for a in arrays) else "d"

    # -- BLAS front-end ------------------------------------------------------------
    def gemm(self, A, B, C=None, alpha=1.0, beta=0.0) -> np.ndarray:
        A = np.asarray(A)
        B = np.asarray(B)
        precision = self._precision_of(A, B)
        plan = self.plan(
            precision + "gemm", m=A.shape[0], k=A.shape[1], n=B.shape[1]
        )
        return self._executor(plan).gemm(A, B, C=C, alpha=alpha, beta=beta)

    def symm(self, A, B, C=None, alpha=1.0, beta=0.0, lower=True) -> np.ndarray:
        A = np.asarray(A)
        B = np.asarray(B)
        precision = self._precision_of(A, B)
        plan = self.plan(precision + "symm", m=A.shape[0], n=B.shape[1])
        return self._executor(plan).symm(A, B, C=C, alpha=alpha, beta=beta, lower=lower)

    def syrk(self, A, C=None, alpha=1.0, beta=0.0, trans=False, lower=True) -> np.ndarray:
        A = np.asarray(A)
        precision = self._precision_of(A)
        n, k = (A.shape[1], A.shape[0]) if trans else (A.shape[0], A.shape[1])
        plan = self.plan(precision + "syrk", n=n, k=k)
        return self._executor(plan).syrk(
            A, C=C, alpha=alpha, beta=beta, trans=trans, lower=lower
        )

    def syr2k(self, A, B, C=None, alpha=1.0, beta=0.0, trans=False, lower=True) -> np.ndarray:
        A = np.asarray(A)
        B = np.asarray(B)
        precision = self._precision_of(A, B)
        n, k = (A.shape[1], A.shape[0]) if trans else (A.shape[0], A.shape[1])
        plan = self.plan(precision + "syr2k", n=n, k=k)
        return self._executor(plan).syr2k(
            A, B, C=C, alpha=alpha, beta=beta, trans=trans, lower=lower
        )

    def trmm(self, A, B, alpha=1.0, lower=True, transa=False, unit_diag=False) -> np.ndarray:
        A = np.asarray(A)
        B = np.asarray(B)
        precision = self._precision_of(A, B)
        plan = self.plan(precision + "trmm", m=A.shape[0], n=B.shape[1])
        return self._executor(plan).trmm(
            A, B, alpha=alpha, lower=lower, transa=transa, unit_diag=unit_diag
        )

    def trsm(self, A, B, alpha=1.0, lower=True, transa=False, unit_diag=False) -> np.ndarray:
        A = np.asarray(A)
        B = np.asarray(B)
        precision = self._precision_of(A, B)
        plan = self.plan(precision + "trsm", m=A.shape[0], n=B.shape[1])
        return self._executor(plan).trsm(
            A, B, alpha=alpha, lower=lower, transa=transa, unit_diag=unit_diag
        )
