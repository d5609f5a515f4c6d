"""Per-layer attribution for the traced run (``run.py --trace 1``).

Every layer is measured from outside: the workload's own requests are
replayed, single-threaded, through one public entry point at a time, and
each call is wrapped in a span kept in memory until the run ends.  A child
span here is the *same input replayed through the callee on a second
object*, not an interval nested inside its parent — spans inside the
program are a later change — so a layer's self time is its span minus the
spans of the callees measured on the same batch.

A probe group that cannot run, usually because a public symbol has been
removed, reports ``None`` for its metrics plus the reason; it never fails
the run, so a change that deletes a layer is not blocked by this file.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import harness
from spec import PER_LAYER

BATCH = 64
#: Batches of ``BATCH`` requests replayed per routine.
BATCHES_PER_ROUTINE = 4
SIMULATOR_ROWS = 128
SINGLES_PER_ROUTINE = 40
TRANSPORT_BATCHES = 8
US = 1e6


class Tracer:
    """In-memory span store: ``{id, parent, name, batch_id, start, end}``."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []

    def add(self, name, start, end, parent=None, batch_id=None) -> int:
        self.spans.append((name, parent, batch_id, start, end))
        return len(self.spans) - 1

    def timed(self, name: str, call: Callable, parent=None, batch_id=None):
        """Run ``call`` inside a span; returns ``(result, seconds, span id)``."""
        start = time.perf_counter()
        result = call()
        end = time.perf_counter()
        return result, end - start, self.add(name, start, end, parent, batch_id)

    def durations(self, name: str) -> List[float]:
        return [end - start for n, _, _, start, end in self.spans if n == name]

    def as_rows(self) -> List[dict]:
        return [
            {"id": i, "parent": parent, "name": name, "batch_id": batch, "start": start, "end": end}
            for i, (name, parent, batch, start, end) in enumerate(self.spans)
        ]


def _median_us(values: Sequence[float]) -> float:
    return statistics.median(values) * US


def _stages(predictor) -> tuple:
    """``predictor``'s evaluate span as separately callable stages."""
    from repro.core.compiled import compile_model_kernel
    from repro.core.features import FeatureGridWriter

    fused = predictor.pipeline.compile()
    writer = FeatureGridWriter(predictor.routine, predictor.candidate_threads, columns=fused.kept_indices)
    return predictor.compile(), writer, fused, compile_model_kernel(predictor.model)


class Probes:
    """All layer probes over one workload's request stream."""

    def __init__(self, workload: harness.Workload, tracer: Tracer):
        self.workload = workload
        self.tracer = tracer
        self.hot = workload.name == "hot_stream"
        self.metrics: Dict[str, Optional[float]] = {}
        self.missing: Dict[str, str] = {}
        self.table: List[dict] = []
        self.counter_stats: Optional[dict] = None
        #: Median seconds per request of ``ServingEngine.execute`` (set by ``request_path``).
        self.execute_s: Optional[float] = None
        self.pieces_s: Optional[float] = None
        per_routine: Dict[str, list] = {}
        for request in workload.requests:
            per_routine.setdefault(request.routine, []).append(request)
        #: ``(batch_id, routine, requests)`` — grouped per routine, 64 per batch.
        self.batches = []
        self.singles = []
        for routine, requests in per_routine.items():
            for k in range(BATCHES_PER_ROUTINE):
                chunk = requests[k * BATCH : (k + 1) * BATCH]
                if chunk:
                    self.batches.append((len(self.batches), routine, chunk))
            # Every probe owns its objects, so a single may repeat a batched request.
            self.singles.extend(requests[-SINGLES_PER_ROUTINE:])

    # -- plumbing -------------------------------------------------------------------
    def group(self, names: Sequence[str], probe: Callable[[], Dict[str, float]]) -> None:
        """Run one probe group; one that cannot run nulls its metrics and says why.

        Mostly that is a public symbol a later change removed (``ImportError``,
        ``AttributeError``), but any failure is kept out of the run's exit
        code: the probes are diagnostics, the gate is in the trials.
        """
        try:
            values = probe()
        except Exception as exc:  # reported per metric as ``missing``
            for name in names:
                self.metrics[name] = None
                self.missing[name] = f"{type(exc).__name__}: {exc}"
            return
        for name in names:
            self.metrics[name] = values[name]

    def _bundle(self):
        """A private, warmed copy of the bundle: probes never share caches."""
        bundle = harness.load_bundle(self.workload.bundle_dir)
        for installation in bundle.routines.values():
            installation.predictor.compile()
        return bundle

    def _execute_s(self) -> float:
        if self.execute_s is None:
            raise RuntimeError("serving.engine.execute was not measured, so its share cannot be taken out")
        return self.execute_s

    def _calls(self, name: str, call: Callable, items) -> List[float]:
        """Per-request seconds of ``call(item)`` over batches; one span per batch.

        On the hot stream each batch is first replayed off the clock, so the
        timed call sees the cache state the workload produces.
        """
        per_request = []
        for batch_id, item, n in items:
            if self.hot:
                call(item)
            _, seconds, _ = self.tracer.timed(name, lambda: call(item), None, batch_id)
            per_request.append(seconds / n)
        return per_request

    # -- request path ---------------------------------------------------------------
    def request_path(self) -> Dict[str, float]:
        """Batches of 64 through normalise, the engine and what the engine calls."""
        from repro.serving import ServingEngine, normalize_request

        tracer = self.tracer
        engine = ServingEngine(self._bundle())
        bundle = self._bundle()
        simulator = bundle.simulator
        max_threads = bundle.platform.max_threads
        warm = [normalize_request(r.routine, r.dims, i) for i, r in enumerate(self.workload.warmup)]
        engine.execute(warm)

        normalize, execute, plan_batch, evaluate, engine_self = [], [], [], [], []
        seen_rows = set()
        for batch_id, routine, chunk in self.batches:
            n = len(chunk)
            predictor = bundle.predictor(routine)
            compiled = predictor.compile()
            dims_list = [request.dims for request in chunk]

            def normalise_all():
                return [normalize_request(r.routine, r.dims, i) for i, r in enumerate(chunk)]

            prepared = normalise_all()
            if self.hot:  # off the clock: the timed calls below see warm caches
                engine.execute(prepared)
                predictor.plan_batch(dims_list)
            _, t_norm, _ = tracer.timed("routines.normalize_request", normalise_all, None, batch_id)
            _, t_exec, exec_id = tracer.timed(
                "serving.engine.execute", lambda: engine.execute(prepared), None, batch_id
            )
            plans, t_plan, _ = tracer.timed(
                "core.predictor.plan_batch", lambda: predictor.plan_batch(dims_list), exec_id, batch_id
            )
            # The rows the engine's timing memo has not seen: chosen threads
            # and the max-thread baseline, each distinct row once (none on the
            # hot stream, where the off-clock pass memoised them all).
            rows = {}
            for request, plan in zip(prepared, [] if self.hot else plans):
                for threads in (plan.threads, max_threads):
                    key = (routine, request.dims_key, threads)
                    if key not in seen_rows:
                        rows[key] = (request.dims, threads)
            seen_rows.update(rows)
            t_time = 0.0
            if rows:
                columns = {
                    name: np.array([dims[name] for dims, _ in rows.values()], dtype=np.int64)
                    for name in dims_list[0]
                }
                threads = np.array([t for _, t in rows.values()], dtype=np.int64)
                _, t_time, _ = tracer.timed(
                    "machine.simulator.time_batch",
                    lambda: simulator.time_batch(routine, columns, threads),
                    exec_id,
                    batch_id,
                )
            _, t_eval, _ = tracer.timed(
                "core.compiled.predict_runtimes_batch",
                lambda: compiled.predict_runtimes_batch(dims_list), None, batch_id,
            )
            normalize.append(t_norm / n)
            execute.append(t_exec / n)
            plan_batch.append(t_plan / n)
            engine_self.append((t_exec - t_plan - t_time) / n)
            evaluate.append(t_eval / n)

        observe = []
        for plan in engine.execute(warm):
            _, seconds, _ = tracer.timed(
                "serving.engine.record_observation",
                lambda: engine.record_observation(plan, plan.predicted_time * 1.01),
            )
            observe.append(seconds)

        self.execute_s = statistics.median(execute)
        return {
            "routines.normalize_us": _median_us(normalize),
            "serving.engine.execute_us": _median_us(execute),
            "serving.engine.self_us": _median_us(engine_self),
            "core.predictor.plan_batch_us": _median_us(plan_batch),
            "core.compiled.evaluate_us": _median_us(evaluate),
            "serving.telemetry.observe_us": _median_us(observe),
        }

    def staged(self) -> Dict[str, float]:
        """The evaluate span cut into its three stages, each through its own public call."""
        tracer = self.tracer
        bundle = self._bundle()
        fill, transform, descent, residual = [], [], [], []
        for batch_id, routine, chunk in self.batches:
            n = len(chunk)
            compiled, writer, fused, kernel = _stages(bundle.predictor(routine))
            dims_list = [request.dims for request in chunk]
            _, t_eval, eval_id = tracer.timed(
                "core.compiled.predict_runtimes_batch",
                lambda: compiled.predict_runtimes_batch(dims_list), None, batch_id,
            )
            grid, t_fill, _ = tracer.timed(
                "core.features.write_dicts", lambda: writer.write_dicts(dims_list), eval_id, batch_id
            )
            kept, t_trans, _ = tracer.timed(
                "preprocessing.transform_kept", lambda: fused.transform_kept(grid), eval_id, batch_id
            )
            _, t_desc, _ = tracer.timed(
                "ml.kernel.evaluate", lambda: kernel.evaluate(kept), eval_id, batch_id
            )
            fill.append(t_fill / n)
            transform.append(t_trans / n)
            descent.append(t_desc / n)
            residual.append((t_eval - t_fill - t_trans - t_desc) / n)
        return {
            "core.features.fill_us": _median_us(fill),
            "preprocessing.transform_us": _median_us(transform),
            "ml.descent_us": _median_us(descent),
            "core.compiled.stage_residual_us": _median_us(residual),
        }

    def oracle(self) -> Dict[str, float]:
        """One batch per routine through the object-graph oracle (it is slow)."""
        from repro.core.compiled import reference_mode

        bundle = self._bundle()
        last = {routine: (batch_id, chunk) for batch_id, routine, chunk in self.batches}
        per_request = []
        with reference_mode():
            for routine, (batch_id, chunk) in last.items():
                predictor = bundle.predictor(routine)
                dims_list = [request.dims for request in chunk]
                _, seconds, _ = self.tracer.timed(
                    "core.compiled.reference_mode",
                    lambda: predictor.predict_runtimes_batch(dims_list), None, batch_id,
                )
                per_request.append(seconds / len(chunk))
        return {"core.compiled.oracle_us": _median_us(per_request)}

    def single_path(self) -> Dict[str, float]:
        """One request at a time: the attribution table of a single ``plan()`` call."""
        from repro.core.runtime import AdsalaRuntime
        from repro.serving import EngineTelemetry, ServingEngine, normalize_request

        tracer = self.tracer
        runtime = AdsalaRuntime(self._bundle())
        engine = ServingEngine(self._bundle())
        bundle = self._bundle()
        hits = self._bundle()
        simulator = bundle.simulator
        max_threads = bundle.platform.max_threads
        telemetry = EngineTelemetry()
        for request in self.workload.warmup:
            runtime.plan(request.routine, **request.dims)
            engine.plan(request.routine, **request.dims)
        try:
            staged = {routine: _stages(bundle.predictor(routine)) for routine in bundle.routines}
        except (ImportError, AttributeError):
            staged = None  # a stage's symbol is gone: the evaluate row stays whole

        names = (
            "total", "normalize", "execute", "plan_single", "plan_hit", "evaluate",
            "fill", "transform", "descent", "time_rows", "time_scalar", "telemetry",
        )
        seconds: Dict[str, List[float]] = {name: [] for name in names}
        for index, request in enumerate(self.singles):
            routine, dims = request.routine, request.dims
            predictor = bundle.predictor(routine)
            compiled = predictor.compile()
            if self.hot:  # off the clock: the timed calls below are cache hits
                runtime.plan(routine, **dims)
                engine.plan(routine, **dims)
                predictor.plan(dims)
            _, total, total_id = tracer.timed(
                "core.runtime.plan", lambda: runtime.plan(routine, **dims), None, index
            )
            prepared, t_norm, _ = tracer.timed(
                "routines.normalize_request",
                lambda: normalize_request(routine, dims, index), total_id, index,
            )
            _, t_exec, exec_id = tracer.timed(
                "serving.engine.execute", lambda: engine.execute([prepared]), total_id, index
            )
            plan, t_plan, plan_id = tracer.timed(
                "core.predictor.plan", lambda: predictor.plan(dims), exec_id, index
            )
            # A second predictor answers the same shape twice: the second is the hit.
            hit_predictor = hits.predictor(routine)
            hit_predictor.plan(dims)
            _, t_hit, _ = tracer.timed("core.predictor.plan[hit]", lambda: hit_predictor.plan(dims), None, index)
            _, t_eval, eval_id = tracer.timed(
                "core.compiled.predict_runtimes", lambda: compiled.predict_runtimes(dims), plan_id, index
            )
            t_fill = t_trans = t_desc = 0.0
            if staged is not None:
                _, writer, fused, kernel = staged[routine]
                grid, t_fill, _ = tracer.timed(
                    "core.features.write_dicts", lambda: writer.write_dicts([dims]), eval_id, index
                )
                kept, t_trans, _ = tracer.timed(
                    "preprocessing.transform_kept", lambda: fused.transform_kept(grid), eval_id, index
                )
                _, t_desc, _ = tracer.timed("ml.kernel.evaluate", lambda: kernel.evaluate(kept), eval_id, index)
            threads = sorted({plan.threads, max_threads})
            columns = {name: np.array([value] * len(threads), dtype=np.int64) for name, value in dims.items()}
            t_time = 0.0
            if not self.hot:  # on the hot stream the engine's timing memo answers
                _, t_time, _ = tracer.timed(
                    "machine.simulator.time_batch",
                    lambda: simulator.time_batch(routine, columns, np.array(threads, dtype=np.int64)),
                    exec_id, index,
                )
            _, t_scalar, _ = tracer.timed(
                "machine.simulator.time", lambda: simulator.time(routine, dims, plan.threads), None, index
            )

            def record():
                telemetry.record_batch(1)
                telemetry.record_plan(routine, plan.from_cache, False, False, dims_key=prepared.dims_key)
                telemetry.record_latency(routine, t_plan)

            _, t_tele, _ = tracer.timed("serving.telemetry.record", record, exec_id, index)
            for name, value in zip(
                names,
                (total, t_norm, t_exec, t_plan, t_hit, t_eval, t_fill, t_trans, t_desc, t_time, t_scalar, t_tele),
            ):
                seconds[name].append(value)

        med = {name: statistics.median(values) for name, values in seconds.items()}
        # On the hot stream plan() is a cache hit and evaluates nothing.
        evaluated = 0.0 if self.hot else 1.0
        stages = [
            ("routines.normalize", med["normalize"]),
            (
                "serving.engine (self)",
                med["execute"] - med["plan_single"] - med["time_rows"] - med["telemetry"],
            ),
            ("serving.telemetry.record", med["telemetry"]),
            ("core.predictor.plan (self)", med["plan_single"] - evaluated * med["evaluate"]),
            (
                "core.compiled.evaluate (self)",
                evaluated * (med["evaluate"] - med["fill"] - med["transform"] - med["descent"]),
            ),
            ("core.features.fill", evaluated * med["fill"]),
            ("preprocessing.transform", evaluated * med["transform"]),
            ("ml.descent", evaluated * med["descent"]),
            ("machine.simulator.time_batch", med["time_rows"]),
        ]
        total = med["total"]
        attributed = sum(value for _, value in stages)
        self.table = [
            {"stage": stage, "us": value * US, "share": value / total} for stage, value in stages
        ]
        self.table.append({"stage": "residual", "us": (total - attributed) * US, "share": 1 - attributed / total})
        self.table.append({"stage": "AdsalaRuntime.plan (measured p50)", "us": total * US, "share": 1.0})
        return {
            "core.predictor.plan_single_us": med["plan_single"] * US,
            "core.predictor.plan_hit_us": med["plan_hit"] * US,
            "core.compiled.evaluate_single_us": med["evaluate"] * US,
            "machine.simulator.time_scalar_us": med["time_scalar"] * US,
            "trace.residual_share": 1 - attributed / total,
        }

    def simulator_batch(self) -> Dict[str, float]:
        bundle = self._bundle()
        max_threads = bundle.platform.max_threads
        per_row = []
        for batch_id, routine, chunk in self.batches:
            rows = [(r.dims, t) for r in chunk for t in (max(1, max_threads // 2), max_threads)]
            rows = rows[:SIMULATOR_ROWS]
            columns = {
                name: np.array([dims[name] for dims, _ in rows], dtype=np.int64) for name in chunk[0].dims
            }
            threads = np.array([t for _, t in rows], dtype=np.int64)
            _, seconds, _ = self.tracer.timed(
                "machine.simulator.time_batch[128]",
                lambda: bundle.simulator.time_batch(routine, columns, threads), None, batch_id,
            )
            per_row.append(seconds / len(rows))
        return {"machine.simulator.time_batch_us": _median_us(per_row)}

    # -- frontend, transports, observability ----------------------------------------
    def frontend(self) -> Dict[str, float]:
        """The two-shard frontend as the clients and as ``plan_many`` see it."""
        from repro.serving import ShardedFrontend

        tracer = self.tracer
        directory = self.workload.bundle_dir
        flat = [request for _, _, chunk in self.batches for request in chunk]
        values: Dict[str, float] = {}
        with ShardedFrontend.from_directory(directory, n_shards=harness.N_SHARDS) as frontend:
            for request in self.workload.warmup:
                frontend.plan(request.routine, **request.dims)
            if self.hot:
                harness.run_clients(frontend, flat, len(flat), harness.Spin())
            harness.run_clients(frontend, flat, len(flat), harness.Spin(), tracer)
            values["client.submit_us"] = _median_us(tracer.durations("client.submit"))
            values["client.resolve_wait_us"] = _median_us(tracer.durations("client.resolve_wait"))
            self.counter_stats = frontend.stats()

        with ShardedFrontend.from_directory(directory, n_shards=harness.N_SHARDS) as frontend:
            for request in self.workload.warmup:
                frontend.plan(request.routine, **request.dims)
            items = [
                (batch_id, [request.as_tuple() for request in chunk], len(chunk))
                for batch_id, _, chunk in self.batches
            ]
            plan_many = self._calls("serving.frontend.plan_many", frontend.plan_many, items)
        values["serving.frontend.plan_many_us"] = _median_us(plan_many)
        values["serving.frontend.self_us"] = (statistics.median(plan_many) - self._execute_s()) * US
        return values

    def observability(self) -> Dict[str, float]:
        """A scrape of a live frontend, and journal rows for the plans it made."""
        from repro.obs import MetricsRegistry, RunJournal, collect_serving_stats
        from repro.serving import ShardedFrontend

        tracer = self.tracer
        flat = [request.as_tuple() for _, _, chunk in self.batches for request in chunk]
        with ShardedFrontend.from_directory(
            self.workload.bundle_dir, n_shards=harness.N_SHARDS
        ) as frontend:
            plans = frontend.plan_many(flat)

            def scrape():
                registry = MetricsRegistry()
                collect_serving_stats(registry, frontend.stats())
                return registry.render_prometheus()

            scrapes = [tracer.timed("obs.scrape", scrape)[1] for _ in range(5)]

        journal_path = harness.OUT / f"journal-{os.getpid()}.jsonl"
        journal = RunJournal(journal_path, async_writer=True)
        try:
            records = []
            for index, plan in enumerate(plans):
                _, seconds, _ = tracer.timed(
                    "obs.journal.record_plan",
                    lambda: journal.record_plan(
                        plan.routine, plan.dims, plan.threads, plan.predicted_time,
                        baseline_time=plan.baseline_time, from_cache=plan.from_cache,
                        policy=plan.policy, shard=0, request_id=index, version=1,
                    ),
                )
                records.append(seconds)
        finally:
            journal.close()
            for path in harness.OUT.glob(journal_path.name + "*"):
                path.unlink()
        return {"obs.scrape_us": _median_us(scrapes), "obs.journal.record_us": _median_us(records)}

    def transport(self, backend: str) -> Dict[str, float]:
        """64-request round trips through a one-shard frontend, minus the engine's share."""
        from repro.serving import ShardedFrontend
        from repro.serving.frontend import SHARD_BACKENDS

        if backend not in SHARD_BACKENDS:
            raise AttributeError(f"{backend!r} is not in repro.serving.frontend.SHARD_BACKENDS")
        name = f"serving.transport.{backend}.batch_us"

        def round_trip(chunk):
            futures = [frontend.submit(request.routine, **request.dims) for request in chunk]
            return [future.result(harness.RESULT_TIMEOUT) for future in futures]

        with ShardedFrontend.from_directory(
            self.workload.bundle_dir, n_shards=1, backend=backend
        ) as frontend:
            for request in self.workload.warmup:
                frontend.plan(request.routine, **request.dims)
            items = [(batch_id, chunk, 1) for batch_id, _, chunk in self.batches[:TRANSPORT_BATCHES]]
            trips = self._calls(f"serving.transport.{backend}", round_trip, items)
        return {name: (statistics.median(trips) - self._execute_s() * BATCH) * US}

    def counters(self, stats: Optional[dict]) -> Dict[str, float]:
        """Counts the serving objects keep themselves, read after the workload ran."""
        stats = stats if stats is not None else self.counter_stats
        cache = stats["cache"]
        timing = cache["timing"]
        probes = cache["cache_hits"] + cache["cache_misses"]
        timed = timing["hits"] + timing["misses"]
        return {
            "serving.engine.mean_batch_size": float(stats["mean_batch_size"]),
            "serving.engine.timing_memo_hit_share": timing["hits"] / timed if timed else 0.0,
            "core.predictor.cache_hit_share": cache["cache_hits"] / probes if probes else 0.0,
            "core.predictor.model_evaluations": float(cache["model_evaluations"]),
            "serving.admission.shed": float((stats.get("admission") or {}).get("shed", 0)),
            "serving.supervisor.restarts": float((stats.get("supervision") or {}).get("restarts", 0)),
        }

    # -- install path ---------------------------------------------------------------
    def install_path(self) -> Dict[str, float]:
        """The pieces of an installation, one public call at a time."""
        from repro.core.gather import DataGatherer
        from repro.core.persistence import load_bundle, save_bundle
        from repro.core.selection import evaluate_candidates
        from repro.machine.simulator import TimingSimulator
        from repro.serving.registry import BundleHandle

        tracer = self.tracer
        quick = self.workload.quick
        literals = dict(harness.QUICK_INSTALL if quick else harness.INSTALL)
        candidates = literals.pop("candidate_models", None)
        simulator = TimingSimulator(harness.get_platform(harness.PLATFORM), seed=literals["seed"])
        whole_start = time.perf_counter()
        gather_s = evaluate_s = 0.0
        for batch_id, routine in enumerate(self.workload.routines):
            gatherer = DataGatherer(
                simulator=simulator,
                routine=routine,
                n_shapes=literals["n_samples"],
                threads_per_shape=literals["threads_per_shape"],
                seed=literals["seed"],
            )

            def gather():
                return gatherer.gather(), gatherer.gather_test_set(literals["n_test_shapes"])

            (dataset, shapes), seconds, _ = tracer.timed("core.gather", gather, None, batch_id)
            gather_s += seconds
            _, seconds, _ = tracer.timed(
                "core.selection.evaluate_candidates",
                lambda: evaluate_candidates(
                    dataset, simulator, shapes, candidate_names=candidates, seed=literals["seed"]
                ),
                None, batch_id,
            )
            evaluate_s += seconds

        bundle = load_bundle(self.workload.bundle_dir)
        staging = Path(tempfile.mkdtemp(dir=harness.OUT))
        try:
            _, save_s, _ = tracer.timed("core.persistence.save_bundle", lambda: save_bundle(bundle, staging))
            self.pieces_s = time.perf_counter() - whole_start
            size = sum(path.stat().st_size for path in staging.iterdir())
            _, load_s, _ = tracer.timed("core.persistence.load_bundle", lambda: load_bundle(staging))

            def lazy_load():
                handle = BundleHandle(staging)
                return [handle.installation(routine) for routine in handle.installed_routines]

            _, registry_s, _ = tracer.timed("serving.registry.BundleHandle", lazy_load)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return {
            "core.gather.gather_s": gather_s,
            "core.selection.evaluate_s": evaluate_s,
            "core.persistence.save_s": save_s,
            "core.persistence.load_s": load_s,
            "core.persistence.bundle_bytes": float(size),
            "serving.registry.load_s": registry_s,
        }

    def native(self) -> Dict[str, float]:
        """Compile the kernels into an empty cache, in a process of their own."""
        from repro.ml import _native

        kernels = _native.load_kernels()
        loaded = kernels is not None and kernels.fused_evaluate is not None
        cache = Path(tempfile.mkdtemp(dir=harness.OUT))
        code = (
            "import time\n"
            "from repro.ml import _native\n"
            "start = time.perf_counter()\n"
            "path = _native.library_path()\n"
            "print(time.perf_counter() - start if path else 0.0)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(harness.ROOT / "src"), ADSALA_NATIVE_CACHE=str(cache))
        try:
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
            )
            self.tracer.add("ml.native.library_path[subprocess]", start, time.perf_counter())
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return {"ml.native.build_s": float(done.stdout.strip()), "ml.native.loaded": float(loaded)}


def host_metrics(spin: harness.Spin) -> Dict[str, float]:
    samples = sorted(spin.samples)
    return {
        "host.cpu_count": float(os.cpu_count() or 1),
        "host.spin_us": _median_us(samples),
        "host.spin_spread": harness.percentile(samples, 0.9) / harness.percentile(samples, 0.1),
        "host.peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_probes(workload: harness.Workload, tracer: Tracer, stats: Optional[dict]) -> Probes:
    """Every layer probe over ``workload``'s stream; ``stats`` from its own trials."""
    probes = Probes(workload, tracer)
    probes.group(
        [
            "routines.normalize_us", "serving.engine.execute_us", "serving.engine.self_us",
            "core.predictor.plan_batch_us", "core.compiled.evaluate_us", "serving.telemetry.observe_us",
        ],
        probes.request_path,
    )
    probes.group(
        [
            "core.features.fill_us", "preprocessing.transform_us", "ml.descent_us",
            "core.compiled.stage_residual_us",
        ],
        probes.staged,
    )
    probes.group(["core.compiled.oracle_us"], probes.oracle)
    probes.group(
        [
            "core.predictor.plan_single_us", "core.predictor.plan_hit_us",
            "core.compiled.evaluate_single_us", "machine.simulator.time_scalar_us",
            "trace.residual_share",
        ],
        probes.single_path,
    )
    probes.group(["machine.simulator.time_batch_us"], probes.simulator_batch)
    probes.group(
        [
            "client.submit_us", "client.resolve_wait_us",
            "serving.frontend.plan_many_us", "serving.frontend.self_us",
        ],
        probes.frontend,
    )
    probes.group(["obs.scrape_us", "obs.journal.record_us"], probes.observability)
    for backend in ("thread", "process"):
        probes.group([f"serving.transport.{backend}.batch_us"], lambda: probes.transport(backend))
    probes.group(
        [
            "serving.engine.mean_batch_size", "serving.engine.timing_memo_hit_share",
            "core.predictor.cache_hit_share", "core.predictor.model_evaluations",
            "serving.admission.shed", "serving.supervisor.restarts",
        ],
        lambda: probes.counters(stats),
    )
    probes.group(
        [
            "core.gather.gather_s", "core.selection.evaluate_s", "core.persistence.save_s",
            "core.persistence.load_s", "core.persistence.bundle_bytes", "serving.registry.load_s",
        ],
        probes.install_path,
    )
    probes.group(["ml.native.build_s", "ml.native.loaded"], probes.native)
    return probes


#: Share of ``--seconds`` a traced run spends on the workload's own trials;
#: the rest of its time goes to the fixed-size layer probes.
TRACED_TRIAL_SHARE = 0.4


def measure(name: str, seed: int, seconds: float, quick: bool, tracer: Tracer) -> dict:
    """The traced run: a few paired plain/traced trials, then every layer probe."""
    spin = harness.Spin()
    workload = harness.Workload(name, seed, quick)
    checks = harness.gate(workload)
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        plain.append(workload.trial(spin))
        if name != "install_cold":  # its traced twin is the piecewise install of the probes
            traced.append(workload.trial(spin, tracer))
        elapsed = time.perf_counter() - started
        if quick or name == "install_cold" or elapsed >= seconds * TRACED_TRIAL_SHARE:
            break
    probes = run_probes(workload, tracer, plain[-1]["stats"])

    values: Dict[str, Optional[float]] = dict(probes.metrics)
    missing = dict(probes.missing)
    chunks = harness.chunk_values(plain)
    tails = harness.tail_latencies(plain)
    values["client.latency_p95_spins"] = tails["latency_p95_spins"]
    values["client.latency_p99_spins"] = tails["latency_p99_spins"]
    values["raw.plans_per_s"] = statistics.median(chunks["plans_per_s"])
    values["raw.latency_p50_us"] = statistics.median(chunks["latency_p50_s"]) * US
    if traced:
        slowed = statistics.median(harness.chunk_values(traced)["plans_per_spin"])
        values["trace.overhead_share"] = 1 - slowed / statistics.median(chunks["plans_per_spin"])
    elif probes.pieces_s is not None:
        whole = sum(c["wall_s"] for c in plain[0]["chunks"])
        values["trace.overhead_share"] = 1 - whole / probes.pieces_s
    else:
        values["trace.overhead_share"] = None
        missing["trace.overhead_share"] = "the install probe did not run"
    values.update(host_metrics(spin))

    metrics = {}
    for metric, entry in PER_LAYER.items():
        metrics[metric] = {"value": values[metric], "unit": entry["unit"]}
        if values[metric] is None:
            metrics[metric]["missing"] = missing[metric]
    result = harness.record(workload, plain + traced, checks, metrics)
    result["attribution"] = probes.table
    return result
