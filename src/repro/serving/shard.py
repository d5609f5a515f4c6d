"""One serving shard: an inbox drain worker in front of an engine runtime.

A shard owns an inbox of ``(request, future)`` pairs and a worker thread
that blocks on it, opportunistically coalesces whatever else is already
queued into one micro-batch (up to the shard's ``max_batch_size``) and
answers the batch through the shard's execution backend — so a burst of
concurrent submissions is amortised into the micro-batches one engine
would cut from the same stream, while a lone request is answered
immediately instead of waiting for peers.  The inbox is the only way in:
``submit``, ``plan`` and ``plan_many`` on the frontend all enqueue here, so
one drain loop, one deadline check and one recovery path serve them all.

Two backends implement the interface:

* :class:`EngineShard` (here) runs a
  :class:`~repro.serving.engine.ServingEngine` in-process; batches execute
  on the drain thread under the engine's own lock.  N in-process shards
  scale on real cores because the whole evaluate span (feature fill →
  fused transform → stacked descent) runs as one GIL-free native call
  (:mod:`repro.ml._native`); only per-batch Python bookkeeping
  serialises.
* :class:`~repro.serving.procshard.ProcessShard` runs the engine in a
  worker *process*; batches cross a pipe as compact framed arrays and the
  worker opens the bundle itself.

The :class:`~repro.serving.frontend.ShardedFrontend` talks only to the
:class:`ShardBase` interface — routing, admission control and statistics
merging are identical for both backends — and every engine either backend
runs (first start or restart) is built by :func:`build_engine`.  Routing's
definition is :func:`shard_index`, the CRC-32 of ``repr((routine,
dims_key))`` modulo the shard count; :func:`request_digest` computes that
digest as intake does, from the routine's template of the repr, without
building it.

Fault tolerance
---------------
Backends raise :class:`ShardFailure` (or a subclass) for *transport*
failures — a dead worker process, a corrupted pipe frame, a failed worker
init — that a restart can heal, and plain exceptions for genuine request
errors.  When a :class:`~repro.serving.supervisor.ShardSupervisor` is
attached, the drain loop hands failed batches to it for restart +
redispatch instead of failing the futures; without one, behaviour is
unchanged (the error surfaces on every affected future).  Futures are
resolved at-most-once via the future's own atomicity: a request that was
redispatched *and* answered late by the original worker keeps the first
answer (plans are pure functions of the request) and the duplicate is
counted, never raised.  First answers are counted on the frontend's
in-flight ledger through its ``on_resolved(count)`` hook, once per answered
batch and once per future on the rare paths (shed, failed batch, no healthy
shard).
Requests carry an optional deadline; the drain loop sheds expired entries
with :class:`DeadlineExceededError` before they cost a micro-batch slot.
"""

from __future__ import annotations

import os
import queue
import threading
import time
import zlib
from concurrent.futures import InvalidStateError
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.runtime import ExecutionPlan
from repro.routines import get_catalog
from repro.serving.engine import PlanRequest, ServingEngine
from repro.serving.telemetry import EngineTelemetry

__all__ = [
    "DeadlineExceededError",
    "EngineShard",
    "ShardBase",
    "ShardFailure",
    "build_engine",
    "request_digest",
    "shard_index",
]

#: Inbox sentinel that tells the worker to drain leftovers and exit.
_STOP = object()


class ShardFailure(RuntimeError):
    """A shard's execution backend failed in a restartable way.

    Raised for transport-level faults (dead worker process, corrupted pipe
    frame, failed worker initialisation, injected chaos) — failures a
    supervisor can heal by restarting the worker and redispatching the
    batch.  Engine-level errors (bad requests, model bugs) stay plain
    exceptions and always surface on the affected futures.
    """


class DeadlineExceededError(TimeoutError):
    """A request's deadline passed before a plan could be produced."""


def build_engine(
    source,
    max_batch_size: int = 64,
    use_cache: bool = True,
    timing_cache_capacity: int = 4096,
    drift_threshold: Optional[float] = None,
) -> ServingEngine:
    """The one way a shard gets its engine, whichever backend runs it.

    ``source`` must be this engine's alone — a
    :class:`~repro.serving.registry.BundleHandle` nobody else holds or an
    independent copy of the bundle — because engines guard their source's
    predictor caches with their own lock only.  ``timing_cache_capacity``
    bounds the engine's timing memo, read when a plan's timing fields are.
    """
    return ServingEngine(
        source,
        max_batch_size=max_batch_size,
        use_cache=use_cache,
        timing_cache_capacity=timing_cache_capacity,
        telemetry=(
            EngineTelemetry(drift_threshold=drift_threshold)
            if drift_threshold is not None
            else None
        ),
    )


def shard_index(routine: str, dims_key: tuple, n_shards: int) -> int:
    """Deterministic shard for one request.

    CRC-32 over the canonical ``(routine, dims_key)`` repr: stable across
    processes, runs and Python hash randomisation, so replaying a stream
    always produces the same shard assignment (and the same per-shard
    cache behaviour).
    """
    digest = zlib.crc32(repr((routine, dims_key)).encode("utf-8"))
    return digest % n_shards


def request_digest(routine: str, dims: Mapping[str, int]) -> int:
    """The digest the frontend routes a request by, taken as its intake takes
    it: the routine's :class:`~repro.routines.catalog.RequestForm` fills the
    validated values into the text :func:`shard_index` hashes, so
    ``request_digest(r, dims) % n == shard_index(r, dims_key, n)``."""
    form = get_catalog().request_form(routine)
    return form.digest(form.parts(dims)[2])


class ShardBase:
    """Inbox, drain worker and lifecycle shared by every shard backend.

    Subclasses provide :meth:`_execute_batch` (answer a list of requests
    with a list of plans), the :attr:`max_batch_size` coalescing bound,
    :meth:`stats`, :meth:`record_observation`, and optionally :meth:`_on_start` /
    :meth:`_on_stop` lifecycle hooks.  The worker is started lazily by
    :meth:`start` (the frontend does this on first use) and stopped by
    :meth:`stop`, which processes every request already enqueued before
    joining — no accepted request is ever dropped by a shutdown.
    """

    #: Short backend tag reported by describe()/stats().
    backend = "abstract"

    def __init__(self, index: int):
        self.index = int(index)
        self._inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        self._worker: Optional[threading.Thread] = None
        # Serialises start/stop: two lazy starters racing would otherwise
        # both spawn a worker on the same inbox, and the orphan could eat
        # the stop sentinel meant for the tracked one.
        self._lifecycle_lock = threading.Lock()
        # Bumped when a hung worker is abandoned: the zombie notices the
        # stale generation and exits instead of stealing inbox traffic
        # from its replacement.
        self._generation = 0
        # In-flight dispatches keyed by an opaque token: the supervisor's
        # liveness monitor reads the oldest start time to detect a hung
        # batch, and harvests the batches themselves for redispatch.
        self._inflight_lock = threading.Lock()
        self._inflight: Dict[object, Tuple[float, Optional[list]]] = {}
        #: Attached by the supervisor/frontend; None means unsupervised.
        self.supervisor = None
        #: Optional deterministic chaos source (see serving/faults.py).
        self.injector = None
        #: Told how many futures each resolution answered first (frontend).
        self.on_resolved: Callable[[int], None] = lambda count: None
        # Touched only by the worker thread; read by stats snapshots.
        self.n_batches_drained = 0
        self.n_requests_drained = 0
        self.n_deadline_expired = 0
        self.n_duplicate_answers = 0

    # -- backend contract ----------------------------------------------------------
    @property
    def max_batch_size(self) -> int:
        raise NotImplementedError

    def _execute_batch(self, requests: Sequence[PlanRequest]) -> List[ExecutionPlan]:
        """Answer one micro-batch (at most ``max_batch_size`` requests)."""
        raise NotImplementedError

    def restart(self) -> None:
        """Recover the execution backend after a :class:`ShardFailure`."""
        raise NotImplementedError

    def _on_start(self) -> None:
        """Hook run under the lifecycle lock before the drain worker spawns."""

    def _on_stop(self) -> None:
        """Hook run under the lifecycle lock after the drain worker joined."""

    # -- lifecycle -----------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._worker is not None

    def start(self) -> None:
        with self._lifecycle_lock:
            if self._worker is None:
                self._on_start()
                worker = threading.Thread(
                    target=self._drain_loop,
                    args=(self._generation,),
                    name=f"adsala-shard-{self.index}",
                    daemon=True,
                )
                self._worker = worker
                worker.start()

    def stop(self) -> None:
        """Answer everything already enqueued, then join the worker."""
        with self._lifecycle_lock:
            worker = self._worker
            if worker is not None:
                self._inbox.put(_STOP)
                worker.join()
                self._worker = None
            self._on_stop()

    def abandon_worker(self) -> List[list]:
        """Give up on a hung drain worker (thread backends only).

        Bumps the generation — the zombie thread exits (or has its late
        answers suppressed) as soon as it unblocks — forgets the thread so
        :meth:`start` can spawn a replacement on the same inbox, and
        harvests the stuck in-flight batches so the caller can redispatch
        them.  The zombie itself is left to the OS: a daemon thread wedged
        inside a hung engine cannot be killed from Python.
        """
        with self._lifecycle_lock:
            self._generation += 1
            self._worker = None
        with self._inflight_lock:
            batches = [
                batch for _, batch in self._inflight.values() if batch is not None
            ]
            self._inflight.clear()
        return batches

    # -- intake --------------------------------------------------------------------
    def enqueue(self, request: PlanRequest, future) -> None:
        """Hand one routed request (and the future to resolve) to the worker."""
        self._inbox.put((request, future))

    def requeue(self, batch: Sequence[Tuple[PlanRequest, object]]) -> None:
        """Put a harvested/failed batch back on the inbox for redispatch."""
        for item in batch:
            self._inbox.put(item)

    # -- worker --------------------------------------------------------------------
    def _drain_loop(self, generation: int) -> None:
        while True:
            if generation != self._generation:
                return  # abandoned: a replacement owns the inbox now
            item = self._inbox.get()
            if generation != self._generation:
                # Abandoned while blocked on the inbox: hand the item to
                # the replacement worker and bow out.  Re-queueing may
                # reorder, which is harmless — plans are pure functions of
                # each request.
                self._inbox.put(item)
                return
            stopping = item is _STOP
            batch: List[Tuple[PlanRequest, object]] = [] if stopping else [item]
            # Once stopping, everything left joins the last batch.
            while stopping or len(batch) < self.max_batch_size:
                try:
                    extra = self._inbox.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    stopping = True
                else:
                    batch.append(extra)
            if batch:
                self._answer(batch)
            if stopping:
                return

    def _dispatch(
        self,
        requests: Sequence[PlanRequest],
        batch: Optional[list] = None,
    ) -> List[ExecutionPlan]:
        """Execute one micro-batch with liveness tracking + chaos hook."""
        token = object()
        with self._inflight_lock:
            self._inflight[token] = (time.monotonic(), batch)
        try:
            injector = self.injector
            if injector is not None:
                injector.before_batch(self)
            return self._execute_batch(requests)
        finally:
            with self._inflight_lock:
                self._inflight.pop(token, None)

    def stalled_for(self, now: Optional[float] = None) -> Optional[float]:
        """Age in seconds of the oldest in-flight dispatch, or ``None``."""
        with self._inflight_lock:
            if not self._inflight:
                return None
            oldest = min(since for since, _ in self._inflight.values())
        return (time.monotonic() if now is None else now) - oldest

    def _resolve(self, future, error: BaseException) -> None:
        """Fail a future at-most-once and free its slot; count duplicates."""
        try:
            future.set_exception(error)
        except InvalidStateError:
            self.n_duplicate_answers += 1
        else:
            self.on_resolved(1)

    def _shed_expired(self, batch):
        """Resolve expired entries with DeadlineExceededError; return the rest."""
        if all(request.deadline is None for request, _ in batch):
            return batch
        now = time.monotonic()
        live = []
        for request, future in batch:
            if request.deadline is not None and now > request.deadline:
                self.n_deadline_expired += 1
                self._resolve(future, DeadlineExceededError(
                    f"request {request.request_id} missed its deadline "
                    f"before execution on shard {self.index}"
                ))
            else:
                live.append((request, future))
        return live

    def _answer(self, batch: List[Tuple[PlanRequest, object]]) -> None:
        batch = self._shed_expired(batch)
        if not batch:
            return
        requests = [request for request, _ in batch]
        try:
            plans = self._dispatch(requests, batch)
        except BaseException as exc:  # resolve futures even on backend bugs
            if isinstance(exc, ShardFailure) and self.supervisor is not None:
                # Recoverable transport failure: the supervisor restarts
                # the backend and redispatches the batch — the futures
                # stay pending until a healthy worker answers them.
                self.supervisor.on_batch_failure(self, batch, exc)
            else:
                for _, future in batch:
                    self._resolve(future, exc)
            return
        answered = 0
        for (_, future), plan in zip(batch, plans):
            try:
                future.set_result(plan)
            except InvalidStateError:
                # Redispatched and answered twice; both answers are identical.
                self.n_duplicate_answers += 1
            else:
                answered += 1
        if answered:
            self.on_resolved(answered)
        self.n_batches_drained += 1
        self.n_requests_drained += len(batch)
        supervisor = self.supervisor
        if supervisor is not None:
            supervisor.on_batch_success(self)

    # -- statistics interface ------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The engine's ``stats()`` snapshot, from wherever the engine runs.

        The one statistics call a backend implements: the frontend derives
        the cache block, the drift flags and the fallback chain from it
        without ever touching an engine object (a process shard has none
        in the parent).
        """
        raise NotImplementedError

    def record_observation(self, plan: ExecutionPlan, observed_time: float) -> None:
        raise NotImplementedError

    @property
    def pending(self) -> int:
        """Requests enqueued here and not yet resolved.

        Inbox depth plus the sizes of the batches in flight.  A batch the
        drain worker is coalescing, or one between a failure and its
        requeue, is momentarily in neither, so a snapshot under live
        traffic may read low by that one batch.
        """
        with self._inflight_lock:
            in_flight = sum(
                len(batch) for _, batch in self._inflight.values() if batch
            )
        return self._inbox.qsize() + in_flight

    @property
    def worker_pid(self) -> int:
        """PID of the process executing this shard's batches."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "index": self.index,
            "backend": self.backend,
            "worker": f"adsala-shard-{self.index}",
            "pid": self.worker_pid,
            "running": self.running,
            "batches_drained": self.n_batches_drained,
            "requests_drained": self.n_requests_drained,
            "pending": self.pending,
            "deadline_expired": self.n_deadline_expired,
            "duplicate_answers": self.n_duplicate_answers,
        }


class EngineShard(ShardBase):
    """Thread-backed shard: the engine executes in the serving process.

    Batches run on the drain thread under the engine's own lock; the
    ``engine`` attribute stays
    public for in-process telemetry and cache inspection.

    ``engine_factory`` (optional) builds a replacement engine for
    :meth:`restart`: after a hung worker is abandoned the old engine may be
    wedged (its lock held forever by the zombie), so recovery swaps in a
    fresh engine over an independent copy of the model state.  Without a
    factory, restart keeps the existing engine — correct for injected
    faults (which fire before the engine is entered) but unable to heal a
    genuine engine hang.
    """

    backend = "thread"

    def __init__(
        self,
        index: int,
        engine: ServingEngine,
        engine_factory: Optional[Callable[[], ServingEngine]] = None,
    ):
        super().__init__(index)
        self.engine = engine
        self._engine_factory = engine_factory

    @property
    def max_batch_size(self) -> int:
        return self.engine.max_batch_size

    def _execute_batch(self, requests: Sequence[PlanRequest]) -> List[ExecutionPlan]:
        return self.engine.execute(requests)

    def restart(self) -> None:
        if self._engine_factory is not None:
            self.engine = self._engine_factory()

    # -- statistics interface ------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return self.engine.stats()

    def record_observation(self, plan: ExecutionPlan, observed_time: float) -> None:
        self.engine.record_observation(plan, observed_time)

    @property
    def worker_pid(self) -> int:
        return os.getpid()
