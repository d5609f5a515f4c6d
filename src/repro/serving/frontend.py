"""Concurrent sharded serving frontend over N engine shards.

One :class:`~repro.serving.engine.ServingEngine` answers one micro-batch at
a time behind its coarse lock; heavy multi-client traffic therefore wants
several engines side by side.  :class:`ShardedFrontend` is that layer:

* **Deterministic routing** — each request goes to the shard picked by the
  CRC-32 of ``repr((routine, dims_key))``, which intake fills into its
  routine's template of that text (not Python's salted ``hash``), so a given
  problem shape always lands on the same engine and that engine's
  per-routine prediction LRU and timing memo stay hot for it.  The same
  stream routes identically in every process and run.
* **One route from request to plan** — :meth:`submit` validates the
  request in one intake pass (dims, ``dims_key`` and routing digest), then
  admits, routes, counts and enqueues it under the frontend's one lock and
  returns a :class:`PlanFuture` (request id, shard, ``result(timeout)``,
  ``done()``; a request cannot be cancelled).  :meth:`plan` is
  submit-and-wait for one request and :meth:`plan_many` is
  submit-all-then-collect for a stream: there is no second path around the
  inboxes, so every request meets the same drain loop, deadline check and
  supervised recovery.  Each shard's worker coalesces queued submissions
  into micro-batches and reports their answers once per batch.
* **Admission control** — at most ``max_pending`` requests may be in
  flight at once, :meth:`plan_many` streams included; the in-flight count
  is the ledger itself, ``submitted − completed``.  ``backpressure="block"``
  makes :meth:`submit` wait for room (bounded memory, lossless);
  ``backpressure="reject"`` raises :class:`QueueFullError` immediately and
  counts the shed request in the merged stats.  :meth:`plan_many` always
  waits — a stream is never shed half-way.
* **Merged observability** — :meth:`stats` aggregates every shard into one
  snapshot, built from the one ``stats()`` call each shard backend
  implements and combined key by key as :mod:`repro.obs.schema` declares;
  :meth:`cache_statistics` and :meth:`reinstall_candidates` are views of
  that same snapshot.

Determinism: predictor models and the timing simulator are pure functions
of the request, so the *plans* a sharded run produces are identical —
routine, dims, threads, predicted/baseline times, fallback policy — to a
sequential single-engine replay of the same stream (the stress tests
assert exactly this, keyed by request id).  Only the ``from_cache`` flags
may differ, because each shard warms its own LRU.

Fault tolerance: with ``supervise=True`` (the default) a
:class:`~repro.serving.supervisor.ShardSupervisor` restarts, redispatches
and quarantines (see there).  A per-request ``timeout=`` sheds an expired
request from the drain loop with
:class:`~repro.serving.shard.DeadlineExceededError` — deadlines bound
*latency*, ``max_pending`` bounds *memory*; the two compose.
"""

from __future__ import annotations

import copy
import itertools
import threading
import time
from _thread import allocate_lock
from concurrent.futures import InvalidStateError
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.runtime import ExecutionPlan
from repro.obs import schema
from repro.obs.metrics import now_timestamps
from repro.routines.catalog import UnknownRoutineError, get_catalog
from repro.serving.engine import PlanRequest, ServingEngine
from repro.serving.procshard import ProcessShard, export_source_spec
from repro.serving.registry import BundleHandle
from repro.serving.shard import (
    DeadlineExceededError,
    EngineShard,
    ShardBase,
    build_engine,
    request_digest,
    shard_index,
)
from repro.serving.supervisor import RestartPolicy, ShardSupervisor

__all__ = [
    "BACKPRESSURE_MODES",
    "SHARD_BACKENDS",
    "DeadlineExceededError",
    "QueueFullError",
    "PlanFuture",
    "ShardedFrontend",
    "shard_index",
]

BACKPRESSURE_MODES = ("block", "reject")

#: Shard execution backends: engines in-process vs. in worker processes.
SHARD_BACKENDS = ("thread", "process")


class QueueFullError(RuntimeError):
    """The frontend's bounded in-flight budget is exhausted (reject mode)."""


class PlanFuture:
    """A waitable plan: ``result(timeout)`` blocks until the shard answers.

    Carries the ``request_id`` and the index of the ``shard`` serving it,
    so a timed-out ``result()`` names which request is stuck where.  It
    offers ``result`` and ``done()`` only: a plan request cannot be
    cancelled.  The shard resolves it once — ``set_result`` /
    ``set_exception`` take the *claim* lock without waiting, a second
    raises :class:`concurrent.futures.InvalidStateError` — and releases the
    *ready* lock held since construction; each waiter takes and returns it.
    """

    __slots__ = ("request_id", "shard", "_claim", "_ready", "_plan", "_error")

    def __init__(self, request_id: int, shard: Optional[int] = None):
        self.request_id = request_id
        self.shard = shard
        self._claim = allocate_lock()
        self._ready = allocate_lock()
        self._ready.acquire()
        self._plan: Optional[ExecutionPlan] = None
        self._error: Optional[BaseException] = None

    def set_result(self, plan: ExecutionPlan) -> None:
        if not self._claim.acquire(False):
            raise InvalidStateError(f"request {self.request_id} is already answered")
        self._plan = plan
        self._ready.release()

    def set_exception(self, error: BaseException) -> None:
        if not self._claim.acquire(False):
            raise InvalidStateError(f"request {self.request_id} is already answered")
        self._error = error
        self._ready.release()

    def done(self) -> bool:
        return self._claim.locked()

    def result(self, timeout: Optional[float] = None) -> ExecutionPlan:
        ready = self._ready
        if not ready.acquire(True, -1 if timeout is None else max(0.0, timeout)):
            raise DeadlineExceededError(
                f"request {self.request_id} still unanswered after "
                f"{timeout}s waiting on shard {self.shard}"
            )
        ready.release()
        if self._error is not None:
            raise self._error
        return self._plan


class ShardedFrontend:
    """Partition plan traffic across N thread-safe engine shards.

    Parameters
    ----------
    sources:
        One engine source **per shard** — each an
        :class:`~repro.core.install.InstallationBundle`,
        :class:`~repro.serving.registry.BundleHandle`, or (thread backend
        only) a ready-made :class:`~repro.serving.engine.ServingEngine`.
        Under the thread backend sources must be distinct objects: two
        shards sharing one source would race on its predictor caches
        behind the engines' separate locks (use :meth:`from_bundle` /
        :meth:`from_directory` to build independent copies).  Under the
        process backend every worker opens the *first* source for itself
        (a handle's directory, or its own unpickled copy of the bundle),
        so passing the same object N times is the expected shape.
    max_pending:
        Global bound on in-flight requests — :meth:`submit`, :meth:`plan`
        and :meth:`plan_many` alike (admission control).
    backpressure:
        ``"block"`` (default) or ``"reject"`` — what :meth:`submit` does
        when ``max_pending`` requests are already in flight
        (:meth:`plan_many` always waits).
    max_batch_size / use_cache / timing_cache_capacity:
        Forwarded to each shard's :class:`ServingEngine` (ignored for
        pre-built engines); each engine's timing memo is consulted when a
        plan is read, not when it is planned.
    backend:
        ``"thread"`` (default) runs every engine in this process;
        ``"process"`` runs each engine in its own worker process, which
        opens the bundle itself (:mod:`repro.serving.procshard`) — plan
        batches then execute on independent GILs.
    start_method:
        Process-backend worker start method (default ``spawn``; see
        :func:`repro.serving.procshard.worker_context`).  Ignored for threads.
    drift_threshold:
        Optional telemetry drift threshold for engines this frontend
        builds (both backends; ``None`` keeps the telemetry default).
        Ignored for pre-built engines, which carry their own telemetry.
    supervise:
        ``True`` (default) attaches a
        :class:`~repro.serving.supervisor.ShardSupervisor` (restart,
        redispatch, quarantine).  ``False`` restores the fail-fast
        behaviour: a worker death errors its in-flight futures.
    restart_policy:
        Optional :class:`~repro.serving.supervisor.RestartPolicy`
        overriding the supervision thresholds (backoff, hang timeout,
        quarantine threshold).  Ignored when ``supervise=False``.
    injector:
        Optional :class:`~repro.serving.faults.FaultInjector` whose
        seeded chaos schedule fires on this frontend's shard dispatches
        (testing/benchmarking only).
    """

    def __init__(
        self,
        sources: Sequence,
        max_pending: int = 1024,
        backpressure: str = "block",
        max_batch_size: int = 64,
        use_cache: bool = True,
        timing_cache_capacity: int = 4096,
        backend: str = "thread",
        start_method: Optional[str] = None,
        drift_threshold: Optional[float] = None,
        supervise: bool = True,
        restart_policy: Optional[RestartPolicy] = None,
        injector=None,
    ):
        if not sources:
            raise ValueError("ShardedFrontend needs at least one source")
        if backpressure not in BACKPRESSURE_MODES:
            raise ValueError(
                f"Unknown backpressure mode {backpressure!r}; "
                f"expected one of {BACKPRESSURE_MODES}"
            )
        if backend not in SHARD_BACKENDS:
            raise ValueError(
                f"Unknown shard backend {backend!r}; "
                f"expected one of {SHARD_BACKENDS}"
            )
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.backend = backend
        engine_settings = dict(
            max_batch_size=max_batch_size,
            use_cache=use_cache,
            timing_cache_capacity=timing_cache_capacity,
            drift_threshold=drift_threshold,
        )
        if backend == "process":
            if any(isinstance(source, ServingEngine) for source in sources):
                raise ValueError(
                    "The process backend builds its engines inside worker "
                    "processes; pass bundles or handles, not ServingEngine "
                    "instances"
                )
            spec = export_source_spec(sources[0], **engine_settings)
            self.shards: List[ShardBase] = [
                ProcessShard(index, spec, start_method=start_method)
                for index in range(len(sources))
            ]
        else:
            if len({id(source) for source in sources}) != len(sources):
                raise ValueError(
                    "Each shard needs its own source object; sharing one "
                    "source across shards would race on its predictor caches "
                    "(use from_bundle()/from_directory())"
                )

            def engine_factory(source) -> Optional[Callable[[], ServingEngine]]:
                # A restarted thread shard must NOT reuse the wedged
                # engine (a hung batch may still hold its lock); rebuild
                # from an independent copy of the source instead.
                # Pre-built engines have no retained source to rebuild
                # from, so their shards stay fail-fast on hangs.
                if isinstance(source, ServingEngine):
                    return None

                def rebuild() -> ServingEngine:
                    if isinstance(source, BundleHandle):
                        fresh = BundleHandle(source.directory)
                    else:
                        fresh = copy.deepcopy(source)
                    return build_engine(fresh, **engine_settings)

                return rebuild

            self.shards = [
                EngineShard(
                    index,
                    source
                    if isinstance(source, ServingEngine)
                    else build_engine(source, **engine_settings),
                    engine_factory=engine_factory(source),
                )
                for index, source in enumerate(sources)
            ]
        self.max_pending = int(max_pending)
        self.backpressure = backpressure
        self._request_ids = itertools.count()
        # One lock over admission, the closed check, routing, counting and the
        # enqueue, so a submit racing close() cannot land in a drained inbox.
        # Taken before the supervisor's or a shard's lock, never after them.
        self._lock = threading.Lock()
        self._room = threading.Condition(self._lock)  # waited on only while full
        self.n_submitted = 0
        self.n_completed = 0
        self.n_shed = 0
        self.n_rejected_unknown = 0
        self._closed = False
        for shard in self.shards:
            shard.on_resolved = self._on_resolved
            shard.injector = injector
        self.supervisor: Optional[ShardSupervisor] = None
        if supervise:
            self.supervisor = ShardSupervisor(
                self.shards, policy=restart_policy, injector=injector
            )
            self.supervisor.attach()

    # -- construction helpers -------------------------------------------------------
    @classmethod
    def from_bundle(cls, bundle, n_shards: int, **kwargs) -> "ShardedFrontend":
        """Shard an in-memory bundle.

        Thread backend: shard 0 serves ``bundle`` itself, the rest serve
        deep copies (independent models, caches and simulators).  Process
        backend: no copies here — the bundle rides each worker's spawn
        pickle, so every worker serves its own copy and ``bundle`` itself
        is never touched.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if kwargs.get("backend", "thread") == "process":
            sources = [bundle] * n_shards
        else:
            sources = [bundle] + [copy.deepcopy(bundle) for _ in range(n_shards - 1)]
        return cls(sources, **kwargs)

    @classmethod
    def from_directory(
        cls, directory: str | Path, n_shards: int, **kwargs
    ) -> "ShardedFrontend":
        """Shard an on-disk bundle.

        Thread backend: one independent lazy
        :class:`~repro.serving.registry.BundleHandle` per shard.  Process
        backend: one handle in the parent (manifest only, no model loads);
        every worker opens its own handle on the same directory.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if kwargs.get("backend", "thread") == "process":
            sources = [BundleHandle(directory)] * n_shards
        else:
            sources = [BundleHandle(directory) for _ in range(n_shards)]
        return cls(sources, **kwargs)

    # -- properties -----------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def in_flight(self) -> int:
        """Requests admitted by :meth:`submit` and not yet answered."""
        with self._lock:
            return self.n_submitted - self.n_completed

    # -- lifecycle ------------------------------------------------------------------
    def start(self) -> None:
        """Start every shard worker (idempotent; submit() does this lazily)."""
        for shard in self.shards:
            shard.start()
        if self.supervisor is not None:
            self.supervisor.start()

    def close(self) -> None:
        """Answer everything in flight, then stop the shard workers.

        Setting the closed flag under the frontend's lock fences out any
        in-progress :meth:`submit`: once the flag is visible, every request
        that passed the check has already been enqueued, so the shard
        drains answer it before the workers exit.  Submitters waiting for
        room wake and raise.
        """
        with self._lock:
            self._closed = True
            self._room.notify_all()
        if self.supervisor is not None:
            self.supervisor.stop()
        for shard in self.shards:
            shard.stop()

    def __enter__(self) -> "ShardedFrontend":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request path ----------------------------------------------------------------
    @staticmethod
    def _deadline_from(timeout: Optional[float]) -> Optional[float]:
        if timeout is None:
            return None
        timeout = float(timeout)
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        return time.monotonic() + timeout

    def _intake(self, routine: str, dims: Dict[str, int], deadline) -> Tuple[PlanRequest, int]:
        """Validate one request; return it with its routing digest."""
        request_id = next(self._request_ids)
        try:
            form = get_catalog().request_form(routine)
        except UnknownRoutineError:
            with self._lock:
                self.n_rejected_unknown += 1
            raise
        normalized, dims_key, ordered = form.parts(dims)
        return PlanRequest(request_id, form.key, normalized, dims_key, deadline), form.digest(ordered)

    def _enqueue(self, request: PlanRequest, digest: int, wait: bool) -> PlanFuture:
        """Admit, route, count and enqueue one validated request; a full budget
        sheds it (reject mode) or waits for room until its deadline (block)."""
        with self._lock:
            if self.n_submitted - self.n_completed >= self.max_pending:
                if not wait:
                    self.n_shed += 1
                    raise QueueFullError(
                        f"{self.max_pending} requests already in flight and "
                        "backpressure mode is 'reject'"
                    )
                deadline = request.deadline
                if not self._room.wait_for(
                    lambda: self._closed
                    or self.n_submitted - self.n_completed < self.max_pending,
                    None if deadline is None else deadline - time.monotonic(),
                ):
                    raise DeadlineExceededError(
                        f"request {request.request_id} missed its deadline "
                        f"waiting for one of {self.max_pending} admission slots"
                    )
            try:
                if self._closed:
                    raise RuntimeError("ShardedFrontend is closed")
                index = digest % len(self.shards)
                if self.supervisor is not None:
                    index = self.supervisor.resolve_request(request, index, digest)
                shard = self.shards[index]
                # Started under the lock, so close() finds and joins every
                # worker a submit started.  A shard starts at its first use or
                # after a hung worker was abandoned; answers wait meanwhile.
                if not shard.running:
                    shard.start()
            except BaseException:
                self._room.notify()  # hand on a wakeup this room was given for
                raise
            self.n_submitted += 1
            future = PlanFuture(request.request_id, index)
            shard.enqueue(request, future)
        return future

    def _on_resolved(self, count: int) -> None:
        """Shard hook: ``count`` admitted requests were answered.  More than
        are in flight raises: a request freed twice cannot widen the budget."""
        with self._lock:
            in_flight = self.n_submitted - self.n_completed
            if count > in_flight:
                raise ValueError(f"{count} requests answered, {in_flight} in flight")
            self.n_completed += count
            self._room.notify(count)

    def submit(self, routine: str, timeout: Optional[float] = None, **dims: int) -> PlanFuture:
        """Route one request to its shard; returns a waitable future.

        Validation happens first (bad requests raise ``ValueError`` without
        being admitted), then admission, routing and the enqueue under the
        frontend's lock.  The shard's answer — a plan or an error — ends
        the admission.

        ``timeout`` (seconds) stamps an end-to-end deadline on the request:
        if it is still queued when the deadline passes, the drain loop
        sheds it and the future raises
        :class:`~repro.serving.shard.DeadlineExceededError` naming the
        request and shard; under ``backpressure="block"`` the wait for an
        admission slot ends at the same deadline.
        """
        request, digest = self._intake(routine, dims, self._deadline_from(timeout))
        return self._enqueue(request, digest, self.backpressure == "block")

    def plan(self, routine: str, timeout: Optional[float] = None, **dims: int) -> ExecutionPlan:
        """Blocking convenience: submit and wait for the plan.

        ``timeout`` both stamps the request deadline and bounds the wait.
        """
        return self.submit(routine, timeout=timeout, **dims).result(timeout)

    def plan_many(
        self,
        requests: Iterable[Tuple[str, Dict[str, int]]],
        timeout: Optional[float] = None,
    ) -> List[ExecutionPlan]:
        """Answer a whole stream; plans come back in request order.

        Every request is validated first, then submitted through the same
        admission → route → inbox path as :meth:`submit` and the futures
        are collected in order, so the stream gets the shards' micro-
        batching, deadline shedding and supervised recovery, and counts
        against ``max_pending`` like any other traffic.  A stream is never
        shed: whatever the ``backpressure`` mode, each request waits for
        its admission slot, so a stream longer than ``max_pending``
        completes as the shards free slots.

        ``timeout`` is one end-to-end deadline for the whole stream: the
        first request still unanswered when it expires raises
        :class:`~repro.serving.shard.DeadlineExceededError` naming the
        request and its shard, and the drain loops shed the rest.
        """
        deadline = self._deadline_from(timeout)
        made = [self._intake(routine, dims, deadline) for routine, dims in requests]
        futures = [self._enqueue(request, digest, True) for request, digest in made]
        return [
            future.result(None if deadline is None else deadline - time.monotonic())
            for future in futures
        ]

    def record_observation(self, plan: ExecutionPlan, observed_time: float) -> None:
        """Feed one executed call's runtime to the shard that planned it.

        Routed by the *requested* key (``fallback_from`` when a fallback
        policy substituted a model, else the plan's routine) and by the
        rule :meth:`submit` routed the request by — around a quarantined
        shard, without counting a reroute — so each shard's drift window
        sees exactly the traffic it planned.
        """
        digest = request_digest(plan.fallback_from or plan.routine, plan.dims)
        index = digest % len(self.shards)
        if self.supervisor is not None:
            index = self.supervisor.route(digest, index)
        self.shards[index].record_observation(plan, observed_time)

    # -- merged statistics ------------------------------------------------------------
    def reinstall_candidates(self) -> List[str]:
        """Union of every shard's drift flags (sorted)."""
        return self.stats()["reinstall_candidates"]

    def cache_statistics(self) -> Dict[str, object]:
        """Shard cache counters merged into one single-engine-shaped snapshot."""
        return self.stats()["cache"]

    def stats(self) -> Dict[str, object]:
        """One merged, JSON-serialisable snapshot across every shard.

        The engine keys — counters, per-routine entries, the cache block,
        drift flags — keep a single engine's names and are combined rule
        by rule as :data:`repro.obs.schema.ENGINE` declares, so consumers
        need one schema for both shapes.  A key declared shard-local there
        is carried nowhere in the merge: a routine's ``shapes`` histogram
        stays readable per shard (``frontend.shards[i].stats()``).  Around
        them the frontend adds its own ``backend`` / ``shards``,
        ``admission``, ``supervision``, one ``describe()`` row per shard
        under ``per_shard``, ``pending`` summed over those same rows, and
        ``wall_time`` / ``monotonic_time`` stamped at merge time.  Every
        value derives from **one** ``stats()`` call per shard, so the
        snapshot is internally consistent under live traffic.
        """
        shard_snapshots = [shard.stats() for shard in self.shards]
        per_shard = [shard.describe() for shard in self.shards]
        with self._lock:
            # The frontend's own intake rejections ride in as one more part.
            own = {"rejected_unknown_routine": self.n_rejected_unknown}
            admission = {
                "capacity": self.max_pending,
                "mode": self.backpressure,
                "submitted": self.n_submitted,
                "completed": self.n_completed,
                "in_flight": self.n_submitted - self.n_completed,
                "shed": self.n_shed,
            }
        return {
            **schema.merge(schema.ENGINE, shard_snapshots + [own]),
            "backend": self.backend,
            "shards": len(self.shards),
            "supervision": self.supervisor and self.supervisor.snapshot(per_shard),
            "pending": sum(entry["pending"] for entry in per_shard),
            "admission": admission,
            "per_shard": per_shard,
            **now_timestamps(),
        }
