"""Process-backed serving shard: a ServingEngine behind a pipe, GIL-free.

The thread backend (:class:`~repro.serving.shard.EngineShard`) keeps every
engine in one interpreter, so CPU-bound plan batches serialise on the GIL
and N shards can run *slower* than one engine.  This backend moves each
shard's engine into a worker **process**:

* **Each worker opens the bundle itself** — :func:`export_source_spec`
  ships the *source* (the bundle directory for a
  :class:`~repro.serving.registry.BundleHandle`, the in-memory
  :class:`~repro.core.install.InstallationBundle` otherwise) plus the
  engine settings through the spawn pickle, and the worker builds a stock
  engine with :func:`~repro.serving.shard.build_engine` — the constructor
  thread shards and their restarts use.  The whole six-routine model is a
  few hundred KB and loads in ~10 ms, so there is no shared model state to
  keep alive, re-export or clean up.
* **Pickle-free framing** — requests and plans cross the pipe as compact
  little-endian array frames (request ids / routine indices / flat dims one
  way; ids / threads / times / policy table the other), batched per
  micro-batch.  No pickling on the hot path, and the parent rebuilds each
  :class:`~repro.core.runtime.ExecutionPlan` against the dims dict it
  already holds.
* **Same semantics** — the worker runs the same
  :class:`~repro.serving.engine.ServingEngine` over the same kind of
  source as a thread shard, so plans are bit-identical
  (routine/dims/threads/times/policy) to the thread backend and to a
  sequential single-engine replay by construction; only ``from_cache``
  flags may differ because each worker warms its own LRU.
* **One statistics frame** — the parent asks a worker for exactly one
  thing, its engine's ``stats()`` snapshot (a ``KIND_STATS`` frame out,
  one JSON frame back); the frontend derives the cache block, the drift
  flags and the fallback chain from it.  ``stop()`` captures that
  snapshot once before the STOP frame, and a shard with no live worker
  answers an empty snapshot of the same schema.
* **One native build** — :func:`export_source_spec` calls
  :func:`repro.ml._native.library_path` before the first spawn, so the
  fused kernel is compiled once in the parent and every worker finds the
  digest-named ``.so`` in the on-disk cache instead of racing the
  compiler N-way.

Workers are started with the ``spawn`` method by default (see
:func:`worker_context`): the frontend launches them lazily
from a process that already runs drain threads, where ``fork`` is unsafe.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.blas.api import parse_routine
from repro.core.runtime import ExecutionPlan
from repro.ml import _native
from repro.serving.engine import PlanRequest, ServingEngine
from repro.serving.registry import BundleHandle
from repro.serving.shard import ShardBase, ShardFailure, build_engine

__all__ = [
    "FrameCorruptionError",
    "ProcessShard",
    "WorkerDiedError",
    "WorkerInitError",
    "export_source_spec",
]


#: Environment variable overriding the worker-process start method.
ADSALA_MP_START_ENV = "ADSALA_MP_START"


def worker_context(start_method: str | None = None) -> multiprocessing.context.BaseContext:
    """The multiprocessing context for long-lived serving workers.

    Defaults to ``spawn``: the serving frontend launches shard workers
    lazily, *after* its drain threads exist, and forking a multi-threaded
    parent is undefined behaviour waiting to happen (locks held by threads
    that do not exist in the child).  Spawn also keeps the process backend
    honest — nothing reaches a worker except what is pickled explicitly.
    Override with ``start_method=`` or the ``$ADSALA_MP_START`` environment
    variable (e.g. ``fork`` to trade safety for startup latency on
    platforms where that is acceptable).
    """
    if start_method is None:
        start_method = os.environ.get(ADSALA_MP_START_ENV, "").strip() or "spawn"
    try:
        return multiprocessing.get_context(start_method)
    except ValueError:
        raise ValueError(
            f"Unknown multiprocessing start method {start_method!r}; "
            f"available: {multiprocessing.get_all_start_methods()}"
        ) from None


class WorkerDiedError(ShardFailure):
    """The shard's worker process exited (or its pipe broke) mid-operation."""


class WorkerInitError(ShardFailure):
    """The worker came up but could not initialise its engine.

    The classic cause is a bundle directory that is missing or mid-rewrite
    when the worker opens it; recovery respawns, and the new worker opens
    the bundle again.
    """


class FrameCorruptionError(ShardFailure):
    """A pipe frame failed to decode; the transport is desynchronised."""


# ---------------------------------------------------------------------------
# Wire protocol: 16-byte header (kind, count as little-endian i64) + payload.
# ---------------------------------------------------------------------------
KIND_REQUESTS = 1
KIND_PLANS = 2
KIND_ERROR = 3
KIND_STATS = 4
KIND_JSON = 5
KIND_OBSERVE = 6
KIND_STOP = 7

_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")

_SPEC_CACHE: Dict[str, tuple] = {}


def _dim_names(routine: str) -> tuple:
    names = _SPEC_CACHE.get(routine)
    if names is None:
        _, _, spec = parse_routine(routine)
        names = tuple(spec.dim_names)
        _SPEC_CACHE[routine] = names
    return names


def _frame(kind: int, count: int, payload: bytes = b"") -> bytes:
    return np.array([kind, count], dtype=_I8).tobytes() + payload


def _string_table(strings: Sequence[str]) -> bytes:
    """Length-prefixed newline-joined table (same shape as the policy table).

    Routine keys ride the pipe as per-frame deduplicated string tables
    rather than a fixed builtin-key numbering, so plugin routines the
    static BLAS-12 never heard of serialise without both pipe ends having
    to agree on a catalog order.
    """
    table = "\n".join(strings).encode("utf-8")
    return np.array([len(table)], dtype=_I8).tobytes() + table


def _read_string_table(payload: bytes, offset: int):
    """Decode a :func:`_string_table` at ``offset``; returns (strings, end)."""
    (length,) = np.frombuffer(payload, dtype=_I8, count=1, offset=offset)
    end = offset + 8 + int(length)
    if length < 0 or end > len(payload):
        raise ValueError(
            f"string table of {int(length)} bytes at offset {offset} overruns "
            f"a {len(payload)}-byte payload"
        )
    table = payload[offset + 8 : end]
    return (table.decode("utf-8").split("\n") if table else []), end


def _check_slots(slots: np.ndarray, n_keys: int, lowest: int, what: str) -> None:
    """Every table reference must name a slot the frame's table holds."""
    if slots.size and (slots.min() < lowest or slots.max() >= n_keys):
        raise ValueError(f"{what} reference outside its {n_keys}-entry table")


def _intern_keys(values) -> tuple:
    """Map each value through a per-frame dedup table; returns (indices, keys)."""
    keys: List[str] = []
    index: Dict[str, int] = {}
    slots: List[int] = []
    for value in values:
        slot = index.get(value)
        if slot is None:
            slot = len(keys)
            index[value] = slot
            keys.append(value)
        slots.append(slot)
    return np.asarray(slots, dtype=_I8), keys


def _parse_frame(data: bytes):
    header = np.frombuffer(data, dtype=_I8, count=2)
    return int(header[0]), int(header[1]), data[16:]


def encode_requests(requests: Sequence[PlanRequest]) -> bytes:
    """REQUESTS frame: ids · routine table refs · flat dims (spec order)."""
    n = len(requests)
    ids = np.fromiter((r.request_id for r in requests), dtype=_I8, count=n)
    routine_idx, routine_keys = _intern_keys(r.routine for r in requests)
    dims_flat: List[int] = []
    for request in requests:
        dims = request.dims
        dims_flat.extend(dims[name] for name in _dim_names(request.routine))
    dims_arr = np.asarray(dims_flat, dtype=_I8)
    return _frame(
        KIND_REQUESTS,
        n,
        ids.tobytes()
        + routine_idx.tobytes()
        + _string_table(routine_keys)
        + dims_arr.tobytes(),
    )


def decode_requests(count: int, payload: bytes) -> List[PlanRequest]:
    """Inverse of :func:`encode_requests`; ``ValueError`` on a malformed frame."""
    if count < 0:
        raise ValueError(f"negative request count {count}")
    ids = np.frombuffer(payload, dtype=_I8, count=count)
    routine_idx = np.frombuffer(payload, dtype=_I8, count=count, offset=8 * count)
    routine_keys, dims_offset = _read_string_table(payload, 16 * count)
    _check_slots(routine_idx, len(routine_keys), 0, "routine")
    dims_flat = np.frombuffer(payload, dtype=_I8, offset=dims_offset)
    requests: List[PlanRequest] = []
    position = 0
    for i in range(count):
        routine = routine_keys[int(routine_idx[i])]
        names = _dim_names(routine)
        values = dims_flat[position : position + len(names)]
        position += len(names)
        dims = {name: int(value) for name, value in zip(names, values)}
        requests.append(
            PlanRequest(
                request_id=int(ids[i]),
                routine=routine,
                dims=dims,
                dims_key=tuple(sorted(dims.items())),
            )
        )
    if position != dims_flat.size:
        raise ValueError(
            f"requests frame carries {dims_flat.size} dims, its routines need "
            f"{position}"
        )
    return requests


def encode_plans(plans: Sequence[ExecutionPlan]) -> bytes:
    """PLANS frame: per-plan arrays plus a deduplicated policy-name table.

    Dims are *not* echoed — the parent rebuilds each plan against the
    request dims it retained (the engine answers with ``plan.dims ==
    request.dims`` always).
    """
    n = len(plans)
    policy_idx, policies = _intern_keys(p.policy for p in plans)
    # ExecutionPlan carries no request id; plans ride in request order (the
    # engine answers one plan per request in order; decode re-checks counts).
    threads = np.fromiter((p.threads for p in plans), dtype=_I8, count=n)
    # Routine keys and fallback sources share one per-frame dedup table;
    # fallback slot -1 encodes "no substitution".
    both = [p.routine for p in plans] + [
        p.fallback_from for p in plans if p.fallback_from is not None
    ]
    _, routine_keys = _intern_keys(both)
    key_index = {key: slot for slot, key in enumerate(routine_keys)}
    routine_idx = np.fromiter(
        (key_index[p.routine] for p in plans), dtype=_I8, count=n
    )
    fallback_idx = np.fromiter(
        (
            -1 if p.fallback_from is None else key_index[p.fallback_from]
            for p in plans
        ),
        dtype=_I8,
        count=n,
    )
    predicted = np.fromiter((p.predicted_time for p in plans), dtype=_F8, count=n)
    baseline = np.fromiter((p.baseline_time for p in plans), dtype=_F8, count=n)
    from_cache = np.fromiter((p.from_cache for p in plans), dtype=np.uint8, count=n)
    payload = (
        threads.tobytes()
        + routine_idx.tobytes()
        + fallback_idx.tobytes()
        + policy_idx.tobytes()
        + predicted.tobytes()
        + baseline.tobytes()
        + from_cache.tobytes()
        + _string_table(policies)
        + _string_table(routine_keys)
    )
    return _frame(KIND_PLANS, n, payload)


def decode_plans(
    count: int, payload: bytes, requests: Sequence[PlanRequest]
) -> List[ExecutionPlan]:
    """Inverse of :func:`encode_plans`; ``ValueError`` on a malformed frame."""
    if count != len(requests):
        raise ValueError(
            f"worker answered {count} plans for {len(requests)} requests"
        )
    threads = np.frombuffer(payload, dtype=_I8, count=count)
    routine_idx = np.frombuffer(payload, dtype=_I8, count=count, offset=8 * count)
    fallback_idx = np.frombuffer(payload, dtype=_I8, count=count, offset=16 * count)
    policy_idx = np.frombuffer(payload, dtype=_I8, count=count, offset=24 * count)
    predicted = np.frombuffer(payload, dtype=_F8, count=count, offset=32 * count)
    baseline = np.frombuffer(payload, dtype=_F8, count=count, offset=40 * count)
    from_cache = np.frombuffer(
        payload, dtype=np.uint8, count=count, offset=48 * count
    )
    policies, offset = _read_string_table(payload, 49 * count)
    routine_keys, end = _read_string_table(payload, offset)
    if end != len(payload):
        raise ValueError(f"{len(payload) - end} trailing bytes after a plans frame")
    _check_slots(policy_idx, len(policies), 0, "policy")
    _check_slots(routine_idx, len(routine_keys), 0, "routine")
    _check_slots(fallback_idx, len(routine_keys), -1, "fallback")
    plans: List[ExecutionPlan] = []
    for i, request in enumerate(requests):
        fb = int(fallback_idx[i])
        plans.append(
            ExecutionPlan(
                routine=routine_keys[int(routine_idx[i])],
                dims=request.dims,
                threads=int(threads[i]),
                predicted_time=float(predicted[i]),
                baseline_time=float(baseline[i]),
                from_cache=bool(from_cache[i]),
                fallback_from=None if fb < 0 else routine_keys[fb],
                policy=policies[int(policy_idx[i])],
            )
        )
    return plans


def encode_observation(plan: ExecutionPlan, observed_time: float) -> bytes:
    """OBSERVE frame (no reply): routine key · threads · dims · predicted/observed."""
    names = _dim_names(plan.routine)
    key = plan.routine.encode("utf-8")
    head = np.array([len(key), plan.threads, len(names)], dtype=_I8)
    dims = np.asarray([plan.dims[name] for name in names], dtype=_I8)
    tail = np.array([plan.predicted_time, observed_time], dtype=_F8)
    return _frame(
        KIND_OBSERVE, 1, head.tobytes() + key + dims.tobytes() + tail.tobytes()
    )


def _apply_observation(engine: ServingEngine, payload: bytes) -> None:
    head = np.frombuffer(payload, dtype=_I8, count=3)
    key_length = int(head[0])
    routine = payload[24 : 24 + key_length].decode("utf-8")
    n_dims = int(head[2])
    offset = 24 + key_length
    values = np.frombuffer(payload, dtype=_I8, count=n_dims, offset=offset)
    tail = np.frombuffer(payload, dtype=_F8, count=2, offset=offset + 8 * n_dims)
    dims = {
        name: int(value) for name, value in zip(_dim_names(routine), values)
    }
    plan = ExecutionPlan(
        routine=routine,
        dims=dims,
        threads=int(head[1]),
        predicted_time=float(tail[0]),
        baseline_time=float(tail[0]),
        from_cache=False,
    )
    engine.record_observation(plan, float(tail[1]))


# ---------------------------------------------------------------------------
# Worker spec (parent side) and worker entry point
# ---------------------------------------------------------------------------
def export_source_spec(
    source,
    max_batch_size: int = 64,
    use_cache: bool = True,
    timing_cache_capacity: int = 4096,
    drift_threshold: Optional[float] = None,
    worker_faults: Optional[dict] = None,
) -> dict:
    """The picklable spec every worker of one frontend builds its engine from.

    A :class:`~repro.serving.registry.BundleHandle` crosses as its
    directory (the worker opens its own lazy handle); an in-memory bundle
    rides the spawn pickle whole, which hands each worker an independent
    copy.  Building the native kernel here, before any worker spawns,
    leaves the ``.so`` in the on-disk cache for all of them.  The
    ``timing_cache_capacity`` bounds each worker's timing memo, which the
    worker reads when it encodes its plans.
    """
    _native.library_path()
    return {
        "source": source.directory if isinstance(source, BundleHandle) else source,
        "engine": {
            "max_batch_size": int(max_batch_size),
            "use_cache": bool(use_cache),
            "timing_cache_capacity": int(timing_cache_capacity),
            "drift_threshold": drift_threshold,
        },
        # Worker-side chaos knobs (see serving/faults.py); empty in production.
        "faults": dict(worker_faults or {}),
    }


def _worker_main(conn, spec: dict) -> None:
    """Worker-process entry: open the source, serve frames until STOP."""
    faults = spec["faults"]
    if faults.get("ignore_stop"):
        # Chaos harness: simulate a worker wedged past graceful shutdown.
        # It keeps serving but ignores STOP frames and SIGTERM, so only the
        # parent's kill() escalation can end it (the close() backstop test).
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    engine: Optional[ServingEngine] = None
    init_error: Optional[str] = None
    try:
        try:
            source = spec["source"]
            if isinstance(source, Path):
                source = BundleHandle(source)
            engine = build_engine(source, **spec["engine"])
        except BaseException as exc:
            init_error = f"worker initialisation failed: {exc!r}"
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            kind, count, payload = _parse_frame(data)
            if kind == KIND_STOP:
                if faults.get("ignore_stop"):
                    continue
                break
            if kind == KIND_OBSERVE:
                if engine is not None:
                    try:
                        _apply_observation(engine, payload)
                    except BaseException:
                        pass  # fire-and-forget; never desync the pipe
                continue
            try:
                if init_error is not None:
                    conn.send_bytes(_frame(KIND_ERROR, 0, init_error.encode("utf-8")))
                    continue
                if kind == KIND_REQUESTS:
                    requests = decode_requests(count, payload)
                    plans = engine.execute(requests)
                    conn.send_bytes(encode_plans(plans))
                elif kind == KIND_STATS:
                    snapshot = json.dumps(engine.stats()).encode("utf-8")
                    conn.send_bytes(_frame(KIND_JSON, 0, snapshot))
                else:
                    raise ValueError(f"unknown frame kind {kind}")
            except BaseException as exc:
                conn.send_bytes(_frame(KIND_ERROR, 0, repr(exc).encode("utf-8")))
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Parent-side shard
# ---------------------------------------------------------------------------
class ProcessShard(ShardBase):
    """One engine in a worker process, spoken to over framed pipe messages.

    The worker is launched lazily on first use (spawn start method by
    default).  ``stop()`` captures the worker's final statistics snapshot
    *before* sending the STOP frame — so :meth:`stats` keeps answering
    after close, matching the thread backend where engines outlive their
    shards — then joins the worker.  A worker that dies mid-batch surfaces a
    ``RuntimeError`` naming the pid and exit code on the affected futures;
    it never hangs them, and ``stop()`` afterwards stays idempotent.
    """

    backend = "process"

    def __init__(
        self,
        index: int,
        spec: dict,
        start_method: Optional[str] = None,
        stop_timeout: float = 10.0,
    ):
        super().__init__(index)
        self._spec = spec
        self._ctx = worker_context(start_method)
        self._proc = None
        self._conn = None
        # Serialises pipe round-trips: the drain worker and stats readers
        # share one duplex pipe.
        self._pipe_lock = threading.Lock()
        self._dead = False
        self._closed = False
        self._final: Optional[dict] = None
        self._stop_timeout = float(stop_timeout)
        # Chaos hook: the fault injector arms this to mangle the next
        # plans frame after it leaves the pipe (transport corruption).
        self._corrupt_next_reply = False
        #: Last close() escalation taken (None | "terminate" | "kill").
        self.stop_escalation: Optional[str] = None

    # -- backend contract ----------------------------------------------------------
    @property
    def max_batch_size(self) -> int:
        return self._spec["engine"]["max_batch_size"]

    def _execute_batch(self, requests: Sequence[PlanRequest]) -> List[ExecutionPlan]:
        with self._pipe_lock:
            self._ensure_worker()
            kind, count, payload = self._roundtrip(
                encode_requests(requests), "mid-batch"
            )
        if self._corrupt_next_reply:
            self._corrupt_next_reply = False
            payload = payload[:7]  # short buffer: every decode layout breaks
        try:
            if kind != KIND_PLANS:
                raise ValueError(f"frame kind {kind} answered a requests frame")
            return decode_plans(count, payload, requests)
        except Exception as exc:
            # The pipe may hold half-consumed garbage after a bad frame;
            # the worker has to go so a restart gets a clean transport.
            self._terminate_worker()
            raise FrameCorruptionError(
                f"process shard {self.index} received an undecodable plans "
                f"frame ({exc!r}); worker terminated for restart"
            ) from exc

    # -- worker lifecycle ----------------------------------------------------------
    def _ensure_worker(self) -> None:
        """Launch the worker process if needed (caller holds the pipe lock)."""
        if self._closed:
            raise RuntimeError(f"process shard {self.index} is closed")
        if self._proc is None:
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self._spec),
                name=f"adsala-procshard-{self.index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._proc = process
            self._conn = parent_conn

    def _roundtrip(self, data: bytes, doing: str):
        """One send/recv over the pipe (caller holds the pipe lock)."""
        try:
            self._conn.send_bytes(data)
            reply = self._conn.recv_bytes()
        except (BrokenPipeError, ConnectionResetError, EOFError, OSError) as exc:
            self._raise_dead(doing, exc)
        kind, count, payload = _parse_frame(reply)
        if kind == KIND_ERROR:
            message = payload.decode("utf-8", "replace")
            if message.startswith("worker initialisation failed"):
                # The worker process is up but its engine never built —
                # typically the bundle it opens is missing or mid-rewrite.
                # Restartable: recovery respawns and the source is reopened.
                self._terminate_worker_locked()
                raise WorkerInitError(
                    f"process shard {self.index} worker could not initialise "
                    f"{doing}: {message}"
                )
            raise RuntimeError(
                f"process shard {self.index} worker error {doing}: " + message
            )
        return kind, count, payload

    def _raise_dead(self, doing: str, exc: BaseException) -> None:
        process = self._proc
        pid = process.pid if process is not None else None
        exitcode = None
        if process is not None:
            process.join(timeout=1.0)
            exitcode = process.exitcode
        self._dead = True
        raise WorkerDiedError(
            f"process shard {self.index} worker (pid {pid}) died {doing} "
            f"(exit code {exitcode})"
        ) from exc

    def _terminate_worker(self) -> None:
        with self._pipe_lock:
            self._terminate_worker_locked()

    def _terminate_worker_locked(self) -> None:
        """Force the worker down and mark the shard dead (restart() revives)."""
        process = self._proc
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=self._stop_timeout)
        conn = self._conn
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        self._conn = None
        self._dead = True

    def restart(self) -> None:
        """Discard a dead/poisoned worker; the next batch spawns a fresh one.

        The replacement builds its engine from the same spec, so it opens
        the bundle anew.  Raises ``RuntimeError`` on a closed shard.
        """
        with self._pipe_lock:
            if self._closed:
                raise RuntimeError(f"process shard {self.index} is closed")
            process = self._proc
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=self._stop_timeout)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=self._stop_timeout)
            if self._conn is not None:
                try:
                    self._conn.close()
                except OSError:
                    pass
            self._proc = None
            self._conn = None
            self._dead = False
            self._corrupt_next_reply = False

    def _on_stop(self) -> None:
        """Capture final stats and stop the worker.

        Runs under the lifecycle lock; idempotent — repeated ``stop()``
        calls (including after a dead worker) never raise.
        """
        self._closed = True
        process = self._proc
        if process is not None:
            if not self._dead:
                try:
                    self._final = self.stats()
                except RuntimeError:
                    self._final = self._empty_stats()
                with self._pipe_lock:
                    try:
                        self._conn.send_bytes(_frame(KIND_STOP, 0))
                    except OSError:
                        pass
            process.join(timeout=self._stop_timeout)
            if process.is_alive():
                # Stuck worker: escalate with bounded joins so close() can
                # never hang the serving process.  SIGTERM first (lets a
                # live-but-slow worker flush), SIGKILL if that is ignored.
                self.stop_escalation = "terminate"
                process.terminate()
                process.join(timeout=self._stop_timeout)
                if process.is_alive():
                    self.stop_escalation = "kill"
                    process.kill()
                    process.join(timeout=self._stop_timeout)
            # A worker that failed to initialise has had its pipe closed
            # already (_terminate_worker_locked).
            if self._conn is not None:
                try:
                    self._conn.close()
                except OSError:  # pragma: no cover
                    pass
            self._proc = None
            self._conn = None

    # -- statistics interface ------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The worker engine's ``stats()``: one frame out, one JSON frame back.

        A stopped shard keeps answering with the snapshot captured at
        ``stop()``; one whose worker never started, or died — including
        under this very query, which then leaves the restart to the drain
        loop's next batch — with an empty snapshot of the same schema.
        """
        with self._pipe_lock:
            if self._final is not None:
                return self._final
            if self._proc is None or self._dead:
                return self._empty_stats()
            try:
                _, _, payload = self._roundtrip(
                    _frame(KIND_STATS, 0), "answering a statistics query"
                )
            except ShardFailure:
                return self._empty_stats()
        return json.loads(payload.decode("utf-8"))

    def _empty_stats(self) -> dict:
        """What a fresh engine's ``stats()`` reads, for a shard with no worker.

        Read off a real engine built from the worker's own settings, so the
        schema cannot drift from the live one; an engine that has planned
        nothing never touches its source, hence ``None``.
        """
        return build_engine(None, **self._spec["engine"]).stats()

    def record_observation(self, plan: ExecutionPlan, observed_time: float) -> None:
        with self._pipe_lock:
            if self._closed or self._dead:
                return  # worker gone; nothing to feed
            self._ensure_worker()
            try:
                self._conn.send_bytes(encode_observation(plan, observed_time))
            except (BrokenPipeError, OSError) as exc:
                self._raise_dead("recording an observation", exc)

    @property
    def worker_pid(self) -> Optional[int]:
        process = self._proc
        return process.pid if process is not None else None

    def describe(self) -> dict:
        info = super().describe()
        info["worker"] = f"adsala-procshard-{self.index}"
        return info
