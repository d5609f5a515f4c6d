"""Shard supervision: health checks, restarts, redispatch, circuit breaking.

PR 6 gave the sharded frontend worker *processes*; this module gives it a
*fleet discipline*.  Without supervision a SIGKILLed worker poisons its
shard forever: every routed request gets a
:class:`~repro.serving.procshard.WorkerDiedError` and the key range it
owned goes dark.  The :class:`ShardSupervisor` closes that gap:

* **Failure recovery** — when a shard's drain loop hits a
  :class:`~repro.serving.shard.ShardFailure` (dead worker process, broken
  pipe, corrupted frame, failed worker init, injected chaos), the
  supervisor restarts the backend with capped exponential backoff and
  requeues the failed batch.  The futures stay pending throughout, so
  every request is answered exactly once — by whichever worker finally
  produces the plan — and the answers are bit-identical to a sequential
  replay because plans are pure functions of their requests.
* **Stateless restarts** — a replacement engine is built the way the
  first one was (:func:`~repro.serving.shard.build_engine` over a fresh
  handle on the bundle directory or an independent copy of the bundle),
  in the worker process or in this one; a restart has no model state to
  re-verify.
* **Liveness monitoring** — a daemon monitor thread watches each shard's
  oldest in-flight batch.  Past ``hang_timeout`` a process shard's worker
  is SIGKILLed (the blocked drain thread then unblocks into the normal
  failure path); a thread shard's wedged drain worker is *abandoned*
  (generation-fenced so its late answers are suppressed, never doubled), a
  fresh engine is swapped in and the stuck batches are redispatched.
* **Circuit breaker** — after ``max_consecutive_failures`` failed
  recovery rounds a shard is quarantined: its key range is consistently
  rerouted to the surviving shards (a deterministic rehash over the live
  shard list, so a given shape still always lands on the same engine) and
  degraded-mode counters account for every rerouted request in the merged
  ``stats()``.  With no survivors left, affected requests fail loudly
  with :class:`NoHealthyShardError` — nothing ever hangs.

There is one recovery path: every request reaches a shard through its
inbox (``submit``, ``plan`` and ``plan_many`` alike), so every failure
arrives here from a drain loop via :meth:`ShardSupervisor.on_batch_failure`.

The supervisor is attached (or not) by the
:class:`~repro.serving.frontend.ShardedFrontend`; shards without one
behave exactly as before — failures surface on the affected futures.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import schema
from repro.serving.engine import PlanRequest
from repro.serving.shard import ShardBase, ShardFailure, request_digest
from repro.serving.telemetry import FaultTelemetry

__all__ = ["NoHealthyShardError", "RestartPolicy", "ShardSupervisor"]


class NoHealthyShardError(ShardFailure):
    """Every shard is quarantined; the request cannot be served."""


@dataclass(frozen=True)
class RestartPolicy:
    """Tunables for restart backoff, hang detection and circuit breaking.

    ``backoff_base * 2**(n-1)`` seconds (capped at ``backoff_cap``) are
    slept before the ``n``-th consecutive restart of a shard; the counter
    resets on the first healthy batch.  A shard whose consecutive failures
    exceed ``max_consecutive_failures`` is quarantined.  A batch in flight
    longer than ``hang_timeout`` seconds is declared hung; the monitor
    thread checks every ``health_interval`` seconds (defaults to a quarter
    of the hang timeout, bounded to [0.05s, 1s]).

    ``hang_timeout`` must comfortably exceed worker *startup* time: the
    in-flight clock starts at dispatch, and a process shard's first batch
    spawns the worker (~1-2s of interpreter + import in the child).  Set
    it too low and the monitor SIGKILLs replacements mid-spawn, turning
    every recovery into another failure until the breaker trips.
    """

    max_consecutive_failures: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    hang_timeout: float = 30.0
    health_interval: Optional[float] = None

    def __post_init__(self):
        if self.max_consecutive_failures < 1:
            raise ValueError("max_consecutive_failures must be at least 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff parameters must be non-negative")
        if self.hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive")

    @property
    def monitor_interval(self) -> float:
        if self.health_interval is not None:
            return float(self.health_interval)
        return min(1.0, max(0.05, self.hang_timeout / 4.0))

    def backoff(self, consecutive_failures: int) -> float:
        return min(
            self.backoff_base * (2 ** max(0, consecutive_failures - 1)),
            self.backoff_cap,
        )


class ShardSupervisor:
    """Keeps a :class:`~repro.serving.frontend.ShardedFrontend`'s shards alive.

    One instance per frontend.  :meth:`attach` wires itself (and the
    optional fault injector) into every shard; :meth:`start` spawns the
    liveness monitor.  All mutable per-shard state lives in
    :class:`~repro.serving.telemetry.FaultTelemetry` records guarded by one
    supervisor lock — the drain threads and the monitor both report
    through it.
    """

    def __init__(
        self,
        shards: Sequence[ShardBase],
        policy: Optional[RestartPolicy] = None,
        injector=None,
    ):
        if not shards:
            raise ValueError("ShardSupervisor needs at least one shard")
        self.shards = list(shards)
        self.policy = policy or RestartPolicy()
        self.injector = injector
        self._lock = threading.Lock()
        self._states = [FaultTelemetry(shard.index) for shard in self.shards]
        self._lifecycle = threading.Lock()
        self._monitor: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        # Last hang intervention per shard: the monitor must not re-kick a
        # shard every tick while one long recovery is still unwinding.
        self._hang_kicked: Dict[int, float] = {}

    # -- wiring --------------------------------------------------------------------
    def attach(self) -> "ShardSupervisor":
        for shard in self.shards:
            shard.supervisor = self
            if self.injector is not None:
                shard.injector = self.injector
        return self

    def start(self) -> None:
        with self._lifecycle:
            if self._monitor is None:
                self._stop_event = threading.Event()
                monitor = threading.Thread(
                    target=self._monitor_loop,
                    name="adsala-supervisor",
                    daemon=True,
                )
                self._monitor = monitor
                monitor.start()

    def stop(self) -> None:
        with self._lifecycle:
            monitor = self._monitor
            if monitor is not None:
                self._stop_event.set()
                monitor.join()
                self._monitor = None

    # -- routing -------------------------------------------------------------------
    def live_indices(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(
                index
                for index, state in enumerate(self._states)
                if not state.quarantined
            )

    def resolve_request(self, request: PlanRequest, primary: int, digest: int) -> int:
        """Shard index that should serve ``request`` (primary unless dark).

        A quarantined primary's traffic is rehashed deterministically over
        the *live* shard list by the request's routing ``digest`` — stable
        for a given quarantine set, so a problem shape keeps landing on one
        survivor and its caches stay hot.  Counts the reroute against the
        quarantined shard.
        """
        state = self._states[primary]
        if not state.quarantined:
            return primary
        target = self.route(digest, primary)
        if target == primary:
            raise NoHealthyShardError(
                f"request {request.request_id}: every shard is quarantined"
            )
        with self._lock:
            state.n_rerouted += 1
        return target

    def route(self, digest: int, primary: int) -> int:
        """The rule :meth:`resolve_request` applies, counting nothing.

        ``primary`` while it is live, else the rehash of ``digest`` over the
        live shards; ``primary`` again when no shard is live.
        """
        if not self._states[primary].quarantined:
            return primary
        live = self.live_indices()
        return live[digest % len(live)] if live else primary

    # -- recovery core -------------------------------------------------------------
    def on_batch_success(self, shard: ShardBase) -> None:
        """Called by a shard after each healthy batch; closes failure episodes."""
        state = self._states[shard.index]
        if state.consecutive_failures == 0 and state.failure_started is None:
            return
        with self._lock:
            state.consecutive_failures = 0
            if state.failure_started is not None:
                state.recovery.add(time.monotonic() - state.failure_started)
                state.failure_started = None

    def _recover(self, shard: ShardBase, exc: BaseException) -> str:
        """Record one failure; restart with backoff or quarantine.

        Returns ``"restarted"`` or ``"quarantined"``.  A restart that
        itself raises is left for the next dispatch to surface — the
        consecutive-failure counter bounds the loop either way.
        """
        state = self._states[shard.index]
        with self._lock:
            state.n_failures += 1
            state.consecutive_failures += 1
            state.last_error = repr(exc)
            if state.failure_started is None:
                state.failure_started = time.monotonic()
            failures = state.consecutive_failures
            quarantine = failures > self.policy.max_consecutive_failures
            newly_quarantined = quarantine and not state.quarantined
            if quarantine:
                state.quarantined = True
        if quarantine:
            if newly_quarantined:
                warnings.warn(
                    f"shard {shard.index} quarantined after {failures - 1} "
                    f"consecutive restart failures (last: {exc!r}); its key "
                    "range is rerouted to surviving shards",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return "quarantined"
        delay = self.policy.backoff(failures)
        if delay > 0:
            time.sleep(delay)
        try:
            shard.restart()
        except Exception as restart_exc:
            with self._lock:
                state.last_error = f"restart failed: {restart_exc!r}"
        else:
            with self._lock:
                state.n_restarts += 1
        return "restarted"

    def on_batch_failure(
        self,
        shard: ShardBase,
        batch: List[Tuple[PlanRequest, object]],
        exc: ShardFailure,
    ) -> None:
        """The one recovery path: restart and requeue, or reroute on quarantine.

        The futures are *not* failed — they ride back onto an inbox and
        resolve when a healthy worker answers them.  Only with every shard
        quarantined do they fail, with :class:`NoHealthyShardError`.
        """
        outcome = self._recover(shard, exc)
        state = self._states[shard.index]
        if outcome == "quarantined":
            self._reroute_batch(shard, batch, exc)
            return
        with self._lock:
            state.n_redispatched += len(batch)
        shard.requeue(batch)
        shard.start()

    def _reroute_batch(
        self,
        shard: ShardBase,
        batch: List[Tuple[PlanRequest, object]],
        exc: BaseException,
    ) -> None:
        state = self._states[shard.index]
        for request, future in batch:
            digest = request_digest(request.routine, request.dims)
            try:
                target_index = self.resolve_request(request, shard.index, digest)
            except NoHealthyShardError as dead_end:
                dead_end.__cause__ = exc
                # Outside this supervisor's lock: resolving takes the
                # frontend's, and the frontend takes this one while it holds
                # its own (frontend lock, then supervisor lock, never back).
                shard._resolve(future, error=dead_end)
                continue
            with self._lock:
                state.n_redispatched += 1
            target = self.shards[target_index]
            target.start()
            target.enqueue(request, future)

    # -- liveness monitor ----------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop_event.wait(self.policy.monitor_interval):
            self.check_health()

    def check_health(self) -> None:
        """One liveness sweep: declare and recover hung shards."""
        now = time.monotonic()
        for shard in self.shards:
            state = self._states[shard.index]
            if state.quarantined:
                continue
            stalled = shard.stalled_for(now)
            if stalled is None or stalled <= self.policy.hang_timeout:
                continue
            kicked = self._hang_kicked.get(shard.index)
            if kicked is not None and now - kicked < self.policy.hang_timeout:
                continue  # one long recovery is still unwinding
            self._hang_kicked[shard.index] = now
            self._recover_hung(shard, stalled)

    def _recover_hung(self, shard: ShardBase, stalled: float) -> None:
        state = self._states[shard.index]
        with self._lock:
            state.n_hangs += 1
            state.last_error = (
                f"hung batch: in flight {stalled:.2f}s "
                f"(> hang_timeout {self.policy.hang_timeout:.2f}s)"
            )
            if state.failure_started is None:
                state.failure_started = time.monotonic()
        if shard.backend == "process":
            # Kill the wedged worker; the drain thread blocked on the pipe
            # unblocks with EOF and the normal ShardFailure recovery path
            # (restart + redispatch) takes over from there.
            pid = shard.worker_pid
            if pid is not None and pid != os.getpid():
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError, OSError):
                    pass
            return
        # Thread shard: a wedged drain thread cannot be killed — abandon it
        # (generation fencing suppresses its late answers), swap in a fresh
        # engine and redispatch the stuck batches on a replacement worker.
        batches = shard.abandon_worker()
        try:
            shard.restart()
        except Exception as restart_exc:
            with self._lock:
                state.last_error = f"restart failed: {restart_exc!r}"
        else:
            with self._lock:
                state.n_restarts += 1
        redispatched = sum(len(batch) for batch in batches)
        if redispatched:
            with self._lock:
                state.n_redispatched += redispatched
            for batch in batches:
                shard.requeue(batch)
        shard.start()

    # -- observability --------------------------------------------------------------
    def snapshot(self, shard_rows: Optional[Sequence[Mapping]] = None) -> Dict[str, object]:
        """JSON-serialisable supervision block for the merged stats.

        ``shard_rows`` are the shards' ``describe()`` rows when the caller
        already took them (the frontend passes the ones it reports under
        ``per_shard``, so both copies of a shard's own counters agree).
        """
        if shard_rows is None:
            shard_rows = [shard.describe() for shard in self.shards]
        with self._lock:
            fault_rows = [state.snapshot() for state in self._states]
        # A declared row key the shard's describe() row carries is the
        # shard's own counter: one copy of it rides in the supervision row.
        declared = [stat.key for stat in schema.SUPERVISION_ROW]
        per_shard = [
            {**fault, **{key: shard[key] for key in declared if key in shard}}
            for fault, shard in zip(fault_rows, shard_rows)
        ]
        quarantined = [entry["index"] for entry in per_shard if entry["quarantined"]]
        merged: Dict[str, object] = {
            **schema.merge(schema.SUPERVISION_ROW, per_shard),
            **schema.merge(schema.SUPERVISION, per_shard),
            "quarantined": quarantined,
            "healthy_shards": len(per_shard) - len(quarantined),
            "policy": {
                "max_consecutive_failures": self.policy.max_consecutive_failures,
                "backoff_base": self.policy.backoff_base,
                "backoff_cap": self.policy.backoff_cap,
                "hang_timeout": self.policy.hang_timeout,
            },
            "per_shard": per_shard,
        }
        if self.injector is not None:
            merged["injected"] = self.injector.snapshot()
        return merged
