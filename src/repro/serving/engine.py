"""Micro-batching plan server over an installation bundle.

Answering one request at a time — one model evaluation per call — is the
wrong shape under serving traffic.  PR 1 built a batch primitive
(:meth:`~repro.core.predictor.ThreadPredictor.predict_runtimes_batch`) that
amortises the per-call overhead across whole arrays of problem shapes, and
this engine is the serving loop that feeds it.  ``AdsalaRuntime.plan()`` is
this same path used as a micro-batch of one (the engine is the runtime's
backend).  The timing simulator is not in this path: a plan's
``predicted_time`` / ``baseline_time`` are deferred rows, timed by
:meth:`~repro.machine.simulator.TimingSimulator.time_batch` when someone
first reads them (:class:`~repro.core.runtime.ExecutionPlan`):

1. requests are validated and normalised at intake (:meth:`ServingEngine.plan`
   for one, :meth:`ServingEngine.plan_many` for a stream;
   :meth:`ServingEngine.execute` takes requests a frontend already
   normalised) — the engine holds no queue, every entry point answers
   before it returns,
2. :meth:`ServingEngine.execute` splits them into micro-batches of at most
   ``max_batch_size`` requests,
3. one loop over the batch routes and groups it: each requested routine goes
   through the :class:`~repro.serving.fallback.FallbackChain` once per source
   generation — its route (resolution, predictor, telemetry row) is kept until
   the source reloads (:meth:`ServingEngine.reload_source`, or a
   ``ModelRegistry.refresh()`` of the handle) — and its requests join the
   planning group of the model that route names,
4. each group pays for itself once — one
   :meth:`~repro.core.predictor.ThreadPredictor.cached_plans` pass over the
   predictor's LRU (a miss takes its slot as a placeholder that the group's
   **one** batched evaluation fills with a ``(threads, score)`` pair), one
   :class:`~repro.core.runtime.PendingTimings` held in both time slots of
   every plan (no memo probe: the first read answers the group's rows from
   the timing memo and times the rest in one batched pass), one telemetry
   record — and one object per plan, bit-identical to the scalar path, so a
   micro-batch returns exactly the plans a ``plan()`` loop would have
   produced,
5. plans and (optionally) observed runtimes feed the
   :class:`~repro.serving.telemetry.EngineTelemetry` drift tracker.

The engine accepts either an in-memory
:class:`~repro.core.install.InstallationBundle` or a lazy registry
:class:`~repro.serving.registry.BundleHandle` — anything exposing
``routines`` / ``predictor()`` / ``platform`` / ``simulator``.

Concurrency
-----------
The engine is safe to drive from multiple threads: every mutating entry
point (``plan`` / ``plan_many`` / ``execute`` / ``record_observation`` /
``reload_source``) and every stats reader serialises on one coarse engine
lock, so batches, telemetry and the per-routine predictor LRU caches never
interleave.  The timing memo is under the resolver lock, taken by a plan's
first read from any thread and by stats readers inside the engine lock:
engine → resolver, never back.  Request ids are allocated lock-free (an
atomic counter).  One engine still processes one batch at a time — for
CPU parallelism across requests, shard traffic over several engines with
:class:`~repro.serving.frontend.ShardedFrontend`.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.persistence import BundleFormatError
from repro.core.runtime import ExecutionPlan, PendingTimings, TimingMemo
from repro.obs.metrics import now_timestamps
from repro.routines import UnknownRoutineError, get_catalog
from repro.serving.fallback import FallbackChain, default_serving_chain
from repro.serving.telemetry import EngineTelemetry

__all__ = ["PlanRequest", "ServingEngine", "normalize_request"]


@dataclass(frozen=True, init=False)
class PlanRequest:
    """One plan request (dimensions already normalized).

    ``dims_key`` is the canonical hashable form of ``dims`` (sorted items),
    computed once at intake: shard routing, the predictor's LRU probe and
    the shape histogram all key on this one tuple.
    ``deadline`` is an optional absolute :func:`time.monotonic` instant —
    the drain loop sheds a request whose deadline already passed instead of
    spending a micro-batch slot on an answer nobody is waiting for.  The
    deadline never crosses the process-shard pipe: shedding happens on the
    parent side, before dispatch.
    """

    request_id: int
    routine: str
    dims: Dict[str, int]
    dims_key: tuple
    deadline: Optional[float] = None

    def __init__(self, request_id, routine, dims, dims_key, deadline=None):
        # Written to the instance dict (the generated one goes through
        # object.__setattr__ per field): one per request on the hot path.
        state = self.__dict__
        state["request_id"] = request_id
        state["routine"] = routine
        state["dims"] = dims
        state["dims_key"] = dims_key
        state["deadline"] = deadline


def normalize_request(
    routine: str,
    dims: Dict[str, int],
    request_id: int,
    deadline: Optional[float] = None,
) -> PlanRequest:
    """Validate and normalize one request into a :class:`PlanRequest`.

    Shared by the engine's own intake (engine-local ids) and the
    sharded frontend (globally allocated ids): bad routines or dimensions
    raise here, at intake, never mid-batch.
    """
    form = get_catalog().request_form(routine)
    normalized, dims_key, _ = form.parts(dims)
    return PlanRequest(request_id, form.key, normalized, dims_key, deadline)


class _Route:
    """Where one requested routine key goes under one source generation: its
    fallback resolution, plus what the first group served through it looks
    up — the serving predictor and the routine's telemetry row."""

    __slots__ = ("key", "heuristic", "group", "fallback_from", "policy", "predictor", "telemetry")

    def __init__(self, resolution):
        self.key = resolution.key
        self.heuristic = resolution.heuristic
        self.group = (self.key, self.heuristic)
        self.fallback_from = resolution.fallback_from
        self.policy = resolution.policy
        self.predictor = self.telemetry = None


class ServingEngine:
    """Micro-batch + fallback + telemetry around a bundle.

    Safe for concurrent use: all mutating methods and stats readers hold a
    coarse per-engine :class:`threading.RLock`; request ids come from an
    atomic counter and never contend on the lock (see the module docstring).

    Parameters
    ----------
    source:
        An :class:`~repro.core.install.InstallationBundle` or a
        :class:`~repro.serving.registry.BundleHandle`.
    fallback:
        The :class:`~repro.serving.fallback.FallbackChain` routing requests
        to installed models (default: :func:`default_serving_chain`, which
        never rejects a valid routine).
    max_batch_size:
        Upper bound on requests answered in one batched pass.
    telemetry:
        An :class:`~repro.serving.telemetry.EngineTelemetry`; a fresh one is
        created when omitted.
    use_cache:
        Whether plans may be served from / stored into each predictor's LRU
        cache (mirrors the ``use_cache`` flag of ``plan()``).
    timing_cache_capacity:
        Bound on the engine's timing memo (distinct ``(routine, dims,
        threads)`` rows, an LRU per source generation).  Planning neither
        runs the simulator nor touches the memo; the simulator is
        deterministic, so the first read of a plan's timing fields answers
        rows an earlier read timed from the memo and simulates only the
        rest.  ``0`` disables it.
    """

    def __init__(
        self,
        source,
        fallback: Optional[FallbackChain] = None,
        max_batch_size: int = 64,
        telemetry: Optional[EngineTelemetry] = None,
        use_cache: bool = True,
        timing_cache_capacity: int = 4096,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if timing_cache_capacity < 0:
            raise ValueError("timing_cache_capacity must be non-negative")
        self.source = source
        self.fallback = fallback if fallback is not None else default_serving_chain()
        self.max_batch_size = int(max_batch_size)
        self.telemetry = telemetry if telemetry is not None else EngineTelemetry()
        self.use_cache = use_cache
        self.timing_cache_capacity = int(timing_cache_capacity)
        self._timing_memo = TimingMemo(self.timing_cache_capacity)
        self.n_rejected_unknown = 0
        # CPython guarantees next() on one iterator is atomic, so request-id
        # allocation never touches the engine lock.
        self._request_ids = itertools.count()
        self._touched_routines: set[str] = set()
        # Requested routine key -> _Route, for the source generation named by
        # _routes_generation (see _routes_now).
        self._new_generation(getattr(source, "manifest", None))
        self._lock = threading.RLock()
        # In-memory bundles hold every predictor already; compile their
        # fused kernels up front so no request pays the one-off build cost.
        # Lazy registry handles compile per routine at model-load time
        # instead (see BundleHandle.installation).
        routines = getattr(source, "routines", None)
        if isinstance(routines, dict):
            for installation in routines.values():
                installation.predictor.compile()

    # -- properties ----------------------------------------------------------------
    @property
    def platform(self):
        return self.source.platform

    @property
    def simulator(self):
        return self.source.simulator

    # -- request intake -------------------------------------------------------------
    def _make_request(self, routine: str, dims: Dict[str, int]) -> PlanRequest:
        """Validate and normalize one request (shared by plan and plan_many).

        An unknown routine key raises the catalog's structured
        :class:`~repro.routines.catalog.UnknownRoutineError` (naming every
        registered routine key) and is counted in :meth:`stats` under
        ``rejected_unknown_routine``.
        """
        try:
            return normalize_request(routine, dims, next(self._request_ids))
        except UnknownRoutineError:
            with self._lock:
                self.n_rejected_unknown += 1
            raise

    def plan(self, routine: str, use_cache: Optional[bool] = None, **dims: int) -> ExecutionPlan:
        """Plan a single call through the batch path (micro-batch of one).

        A ``use_cache`` override applies to this call only.
        """
        request = self._make_request(routine, dims)
        with self._lock:
            return self._process_batch([request], use_cache)[0]

    def execute(self, requests: Sequence[PlanRequest]) -> List[ExecutionPlan]:
        """Answer pre-validated requests.

        Splits into micro-batches of at most ``max_batch_size`` and returns
        plans in request order (one per request, loudly enforced).  The
        lock is taken per micro-batch, so concurrent callers interleave
        with a long stream instead of stalling behind it.  This is the
        shards' entry point: their requests carry ids the frontend
        allocated globally.
        """
        plans: List[ExecutionPlan] = []
        for start in range(0, len(requests), self.max_batch_size):
            with self._lock:
                plans.extend(
                    self._process_batch(requests[start : start + self.max_batch_size])
                )
        return plans

    def plan_many(
        self, requests: Iterable[Tuple[str, Dict[str, int]]]
    ) -> List[ExecutionPlan]:
        """Plan ``(routine, dims)`` pairs; plans come back in request order.

        Every pair is validated and normalised before the first micro-batch
        runs, so a bad request raises without planning its predecessors.
        """
        return self.execute(
            [self._make_request(routine, dims) for routine, dims in requests]
        )

    # -- batch processing ------------------------------------------------------------
    def _routes_now(self) -> Dict[str, "_Route"]:
        """The route entries of the source's current generation.

        A :class:`~repro.serving.registry.BundleHandle` reads its manifest
        into a new dict on every reload — through :meth:`reload_source`, or
        a ``ModelRegistry.refresh()`` behind this engine's back — so the
        manifest's identity names the generation; an in-memory bundle has no
        manifest and never changes its routines.
        """
        generation = getattr(self.source, "manifest", None)
        if generation is not self._routes_generation:
            self._new_generation(generation)
        return self._routes

    def _new_generation(self, generation) -> None:
        """Forget every route, the platform's thread ceiling (the heuristic
        plan and every baseline row) and the timing memo's rows."""
        self._timing_memo.renew()
        self._routes: Dict[str, _Route] = {}
        self._routes_generation = generation
        self._max_threads: Optional[int] = None

    def _process_batch(
        self, batch: Sequence[PlanRequest], use_cache: Optional[bool] = None
    ) -> List[ExecutionPlan]:
        use_cache = self.use_cache if use_cache is None else use_cache
        self.telemetry.record_batch(len(batch))
        # One loop routes and groups: each request joins the members —
        # (index, request, route) — of the (served key, heuristic) group its
        # routine's route names.  A routine is routed through the fallback
        # chain once per source generation, not once per batch.
        routes = self._routes_now()
        groups: Dict[Tuple[str, bool], list] = {}
        for index, request in enumerate(batch):
            route = routes.get(request.routine)
            if route is None:
                resolution = self.fallback.route(request.routine, self.source)
                route = routes[request.routine] = _Route(resolution)
            members = groups.get(route.group)
            if members is None:
                members = groups[route.group] = []
            members.append((index, request, route))

        max_threads = self._max_threads
        if max_threads is None:
            max_threads = self._max_threads = self.source.platform.max_threads
        plans: List[Optional[ExecutionPlan]] = [None] * len(batch)
        answered = 0
        for (key, heuristic), members in groups.items():
            group_started = time.perf_counter()
            route = members[0][2]
            if heuristic:
                threads = [max_threads] * len(members)
                from_cache = [False] * len(members)
            else:
                predictor = route.predictor
                if predictor is None:  # the route's first group
                    self._touched_routines.add(key)
                    predictor = route.predictor = self.source.predictor(key)
                pairs, from_cache = predictor.cached_plans(
                    [member[1].dims for member in members],
                    use_cache,
                    [member[1].dims_key for member in members],
                )
                threads = [pair[0] for pair in pairs]
            telemetry = route.telemetry
            if telemetry is None:
                telemetry = route.telemetry = self.telemetry.routine(key)
            # Every plan holds the group in both time slots; the group's
            # first read times the rows its plans owe.
            pending = PendingTimings(key, self.source.simulator, self._timing_memo, max_threads)
            rows = pending.rows
            for (index, request, route), chosen, cached in zip(members, threads, from_cache):
                fallback_from = route.fallback_from
                plan = plans[index] = ExecutionPlan(
                    key, request.dims, chosen, pending, pending, cached,
                    fallback_from, route.policy,
                )  # fmt: skip
                rows.append(plan)
                telemetry.record_plan(
                    cached, fallback_from is not None, heuristic, request.dims_key
                )
                answered += 1
            # Each plan's latency is its share of the group's batched
            # predictor pass — the per-request number an external scraper
            # wants, not the whole batch's.  No simulator time is in it.
            telemetry.record_latency(
                (time.perf_counter() - group_started) / len(members), len(members)
            )
        # Every request joins exactly one group and every member is answered,
        # so every slot must hold a plan; a silent filter here would turn a
        # resolution bug into lost requests.
        if answered != len(batch):
            unanswered = [
                batch[index].request_id for index, plan in enumerate(plans) if plan is None
            ]
            raise RuntimeError(
                f"Batch processing dropped {len(unanswered)} of {len(batch)} "
                f"requests (ids {unanswered}); grouping/resolution invariant "
                "violated"
            )
        return plans  # type: ignore[return-value]

    # -- online feedback -------------------------------------------------------------
    def record_observation(self, plan: ExecutionPlan, observed_time: float) -> None:
        """Feed one executed call's measured runtime back into telemetry."""
        with self._lock:
            self.telemetry.record_observation(
                plan.routine,
                plan.predicted_time,
                observed_time,
                dims=plan.dims,
                threads=plan.threads,
            )

    def reinstall_candidates(self) -> List[str]:
        """Routines whose observed-vs-predicted error drifted past threshold."""
        with self._lock:
            return self.telemetry.reinstall_candidates()

    # -- hot reload --------------------------------------------------------------------
    def clear_timing_cache(self) -> None:
        """Start the timing memo over (hit/miss counters survive).

        Must be called whenever the source's simulator may have changed
        without a reload — e.g. after a bundle promotion stamps a new
        machine calibration — because memoised rows would otherwise keep
        answering with the old machine's times.
        """
        with self._lock:
            self._timing_memo.renew()

    def reload_source(self, force: bool = False) -> bool:
        """Hot-reload a registry-backed source and invalidate stale caches.

        Returns whether the source actually changed.  In-memory
        :class:`~repro.core.install.InstallationBundle` sources have no
        on-disk state to reload and always return ``False``.
        """
        reload = getattr(self.source, "reload", None)
        if reload is None:
            return False
        with self._lock:
            changed = bool(reload(force=force))
            if changed:
                self._new_generation(getattr(self.source, "manifest", None))
                # A reloaded bundle may no longer install every routine this
                # engine served; stale keys would make cache_statistics()
                # raise KeyError on source.predictor(key).
                routines = self.source.routines
                self._touched_routines = {
                    key for key in self._touched_routines if key in routines
                }
        return changed

    # -- statistics -------------------------------------------------------------------
    def cache_statistics(self) -> Dict[str, object]:
        """LRU cache counters, aggregate and per routine this engine touched.

        Each per-routine entry reports the predictor's hit/miss counters and
        the resulting ``hit_rate`` (hits over probes), so operators can see
        which routines actually benefit from the LRU plan cache, and
        ``evaluate_path`` — ``"native"`` or ``"numpy"``, which
        implementation evaluates the routine's misses
        (:attr:`~repro.core.compiled.CompiledPredictor.path`).

        A routine this engine served that the (possibly hot-reloaded)
        source can no longer load is reported as ``{"unloadable": True}``
        instead of aborting the whole snapshot — e.g. a routine dropped
        from the bundle by a reload that raced this call, or a model file
        that fails checksum verification.
        """
        hits = misses = evaluations = 0
        per_routine: Dict[str, Dict[str, object]] = {}
        with self._lock:
            for key in sorted(self._touched_routines):
                try:
                    predictor = self.source.predictor(key)
                except (KeyError, OSError, BundleFormatError):
                    # Dropped from a reloaded manifest, model file missing,
                    # or checksum/format verification failed at lazy load.
                    per_routine[key] = {"unloadable": True}
                    continue
                info = predictor.cache_info()
                probes = info["hits"] + info["misses"]
                per_routine[key] = {
                    "hits": info["hits"],
                    "misses": info["misses"],
                    "hit_rate": info["hits"] / probes if probes else 0.0,
                    "evaluate_path": predictor.compile().path,
                }
                hits += info["hits"]
                misses += info["misses"]
                evaluations += predictor.n_model_evaluations
            memo = self._timing_memo
            with memo.lock:  # engine -> resolver, never back
                return {
                    "cache_hits": hits,
                    "cache_misses": misses,
                    "model_evaluations": evaluations,
                    "routines": per_routine,
                    "timing": {
                        "hits": memo.hits,
                        "misses": memo.misses,
                        "size": len(memo.rows or ()),
                        "capacity": memo.capacity,
                    },
                }

    def stats(self) -> Dict[str, object]:
        """Telemetry snapshot plus cache counters (JSON-serialisable).

        Stamped with ``wall_time`` (orders snapshots across processes and
        machines) and ``monotonic_time`` (orders them within this process,
        immune to clock steps) so per-shard snapshots are orderable after
        the frontend merges them.
        """
        with self._lock:
            snapshot = self.telemetry.snapshot()
            snapshot["batch_size_limit"] = self.max_batch_size
            snapshot["fallback_chain"] = self.fallback.describe()
            snapshot["rejected_unknown_routine"] = self.n_rejected_unknown
            snapshot["cache"] = self.cache_statistics()
            snapshot.update(now_timestamps())
            return snapshot
