"""Command-line interface: ``adsala install | predict | serve | adapt | bundle | analyze | bench | platforms``.

The CLI mirrors how the paper's library is used, plus the serving layer:

* ``adsala install`` runs the installation workflow for a platform and
  writes the bundle (config + trained models) to a directory;
* ``adsala predict`` loads a bundle and prints the predicted-optimal thread
  count (and estimated speedup) for one BLAS call, and the run of thread
  counts the model predicts the same minimum for when there is one (the
  plan is its middle);
* ``adsala serve`` replays a request stream (a JSONL workload file or a
  generated mix) through the micro-batching serving engine and prints
  throughput plus per-routine telemetry (with ``--observe``, drift flags
  and the adaptation lifecycle from the bundle's audit trail);
* ``adsala adapt`` closes the loop: serve traffic with observed runtimes
  (optionally on a synthetically drifted machine), then let the
  :class:`~repro.adaptive.controller.AdaptationController` re-gather,
  shadow-evaluate and promote retrained models — one-shot or ``--watch``;
* ``adsala bundle`` inspects, checksum-verifies, schema-migrates or rolls
  back a bundle directory;
* ``adsala analyze`` runs the offline analytics over a run journal written
  by ``adsala serve --journal``: realized speedup vs the max-threads
  baseline per routine, error trends across bundle versions, capacity
  headroom, and the supervision counters of the recorded run;
* ``adsala bench`` regenerates a paper table from the command line;
* ``adsala platforms`` lists the built-in machine presets;
* ``adsala routines`` lists the routine table: the builtin BLAS keys (a
  process that registers more routines with ``register_spec`` and calls
  :func:`main` lists those too).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.blas.api import ROUTINE_KEYS, parse_routine
from repro.machine.platforms import get_platform, list_platforms

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adsala",
        description="ADSALA reproduction: ML-driven thread-count selection for BLAS L3",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    install = sub.add_parser("install", help="run the installation workflow")
    install.add_argument("--platform", default="gadi", help="platform preset name")
    install.add_argument(
        "--routines", nargs="+", default=None, help=f"routine keys (default: all of {ROUTINE_KEYS})"
    )
    install.add_argument("--output", required=True, help="directory to write the bundle to")
    install.add_argument("--samples", type=int, default=80, help="problem shapes per routine")
    install.add_argument("--threads-per-shape", type=int, default=14)
    install.add_argument("--test-shapes", type=int, default=30)
    install.add_argument("--tune", action="store_true", help="run hyper-parameter tuning")
    install.add_argument("--seed", type=int, default=0)
    install.add_argument(
        "--bundle-version",
        type=int,
        default=1,
        help="version tag stamped into the bundle manifest (the serving "
        "registry serves the highest version per platform)",
    )

    predict = sub.add_parser("predict", help="predict the optimal thread count for one call")
    predict.add_argument("--bundle", required=True, help="bundle directory written by install")
    predict.add_argument("--routine", required=True, help="routine key, e.g. dgemm")
    predict.add_argument("--dims", nargs="+", type=int, required=True,
                         help="matrix dimensions in the routine's natural order")

    serve = sub.add_parser(
        "serve", help="replay a request stream through the micro-batching engine"
    )
    serve.add_argument("--bundle", required=True, help="bundle directory written by install")
    serve.add_argument(
        "--workload", default=None,
        help="JSONL workload file (one {'routine':..., 'dims':{...}} per line); "
        "generated when omitted",
    )
    serve.add_argument("--requests", type=int, default=256,
                       help="generated workload length (ignored with --workload)")
    serve.add_argument("--mix", choices=["uniform", "cycling", "skewed"],
                       default="uniform", help="generated workload distribution")
    serve.add_argument("--routines", nargs="+", default=None,
                       help="routines for the generated workload (default: installed)")
    serve.add_argument("--batch-size", type=int, default=64,
                       help="micro-batch size limit")
    serve.add_argument("--shards", type=int, default=1,
                       help="engine shards behind the concurrent frontend "
                       "(1 = the single-engine path)")
    serve.add_argument("--backend", choices=["thread", "process"],
                       default="thread",
                       help="shard execution backend: engines in this process "
                       "(thread) or one worker process per shard, each "
                       "opening the bundle itself (process)")
    serve.add_argument("--clients", type=int, default=1,
                       help="concurrent client threads driving the frontend")
    serve.add_argument("--max-pending", type=int, default=1024,
                       help="global in-flight request bound (admission control)")
    serve.add_argument("--backpressure", choices=["block", "reject"],
                       default="block",
                       help="what submit() does when --max-pending requests "
                       "are in flight: wait for a slot or shed the request")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--no-cache", action="store_true",
                       help="bypass the per-routine LRU prediction caches")
    serve.add_argument("--observe", action="store_true",
                       help="simulate observed runtimes (independent noise) and "
                       "report drift / re-install candidates")
    serve.add_argument("--drift-threshold", type=float, default=0.25,
                       help="rolling mean |observed-predicted|/observed that flags "
                       "a routine for re-installation")
    serve.add_argument("--inject-faults", default=None, metavar="SPEC",
                       help="seeded chaos for the sharded path: a fault spec like "
                       "'kill:3,hang:1' (kinds: kill, hang, corrupt, slow); "
                       "forces the sharded frontend")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the deterministic fault schedule")
    serve.add_argument("--fault-horizon", type=int, default=None,
                       help="dispatch-ordinal window the fault schedule is drawn "
                       "from (default: 8x the fault count)")
    serve.add_argument("--hang-timeout", type=float, default=30.0,
                       help="seconds a batch may stay in flight before the "
                       "supervisor declares the shard hung")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-request timeout in seconds; requests that "
                       "expire before execution are shed, not served")
    serve.add_argument("--no-supervise", action="store_true",
                       help="disable shard supervision: worker deaths fail "
                       "their requests instead of restart + redispatch")
    serve.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                       help="expose Prometheus text at "
                       "http://127.0.0.1:PORT/metrics (JSON at /metrics.json) "
                       "from a stdlib HTTP thread; 0 picks an ephemeral port")
    serve.add_argument("--metrics-linger", type=float, default=0.0,
                       metavar="SECONDS",
                       help="keep the metrics endpoint up this long after the "
                       "stream finishes, so scrapers can collect the final "
                       "state (default: stop immediately)")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="append every served plan, observation and shed "
                       "event to a JSONL run journal at PATH "
                       "(read it back with 'adsala analyze')")
    serve.add_argument("--journal-max-bytes", type=int, default=0,
                       help="rotate the journal when the live segment would "
                       "exceed this size (0 = never rotate)")

    adapt = sub.add_parser(
        "adapt",
        help="drift-triggered re-gather, shadow retraining and canary promotion",
    )
    adapt.add_argument("--bundle", required=True, help="bundle directory written by install")
    adapt.add_argument("--routines", nargs="+", default=None,
                       help="routines for the generated traffic (default: installed)")
    adapt.add_argument("--requests", type=int, default=256,
                       help="observed traffic per round")
    adapt.add_argument("--mix", choices=["uniform", "cycling", "skewed"],
                       default="skewed", help="traffic distribution")
    adapt.add_argument("--seed", type=int, default=0,
                       help="seed for traffic, re-gather and retraining "
                       "(same seed -> bit-identical promoted bundle)")
    adapt.add_argument("--drift-threshold", type=float, default=0.25)
    adapt.add_argument("--min-observations", type=int, default=20,
                       help="window fill required before the drift flag can fire")
    adapt.add_argument("--drift-clock", type=float, default=1.0,
                       help="clock-speed scale of the (synthetically) drifted "
                       "machine observed runtimes come from")
    adapt.add_argument("--drift-bandwidth", type=float, default=1.0,
                       help="memory-bandwidth scale of the drifted machine")
    adapt.add_argument("--drift-sync", type=float, default=1.0,
                       help="synchronisation-cost scale of the drifted machine")
    adapt.add_argument("--regather-shapes", type=int, default=24,
                       help="problem-shape budget of the incremental re-gather")
    adapt.add_argument("--threads-per-shape", type=int, default=6)
    adapt.add_argument("--test-shapes", type=int, default=10)
    adapt.add_argument("--traffic-fraction", type=float, default=0.5,
                       help="fraction of the re-gather budget seeded from the "
                       "observed-traffic shape histogram")
    adapt.add_argument("--min-improvement", type=float, default=0.05,
                       help="shadow bar: fractional error reduction required "
                       "of the candidate model")
    adapt.add_argument("--max-latency-regression", type=float, default=0.5,
                       help="shadow bar: allowed fractional increase of the "
                       "candidate's estimated plan latency")
    adapt.add_argument("--candidates", nargs="+", default=None,
                       help="candidate model pool for retraining "
                       "(default: the full catalogue)")
    adapt.add_argument("--watch", action="store_true",
                       help="keep serving+adapting for --rounds rounds instead "
                       "of one shot")
    adapt.add_argument("--rounds", type=int, default=3,
                       help="serve/adapt rounds in --watch mode")
    adapt.add_argument("--require-promotion", action="store_true",
                       help="exit non-zero unless at least one routine is "
                       "promoted and its rolling error recovers below the "
                       "drift threshold")

    bundle_cmd = sub.add_parser(
        "bundle", help="inspect / verify / migrate / roll back a bundle"
    )
    bundle_cmd.add_argument(
        "action", choices=["inspect", "verify", "migrate", "rollback"]
    )
    bundle_cmd.add_argument("--bundle", required=True, help="bundle directory")
    bundle_cmd.add_argument(
        "--to-version", type=int, default=None,
        help="archived bundle_version to restore (rollback only; default: "
        "the most recent version below the current one)",
    )

    analyze = sub.add_parser(
        "analyze", help="offline analytics over a run journal"
    )
    analyze.add_argument("--journal", required=True,
                         help="run journal written by 'adsala serve --journal' "
                         "(rotated segments are found automatically)")
    analyze.add_argument("--window", type=float, default=1.0,
                         help="capacity-report window in seconds")
    analyze.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the full report as JSON instead of tables")
    analyze.add_argument("--strict", action="store_true",
                         help="fail on malformed journal lines instead of "
                         "skipping them with a warning")

    bench = sub.add_parser("bench", help="regenerate a paper table")
    bench.add_argument(
        "table",
        choices=["table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8"],
    )
    bench.add_argument("--platform", default="gadi")

    sub.add_parser("platforms", help="list built-in platform presets")

    routines_cmd = sub.add_parser(
        "routines",
        help="list every registered routine key",
    )
    routines_cmd.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the catalog as JSON instead of a table",
    )
    return parser


def _cmd_install(args: argparse.Namespace) -> int:
    from repro.core.install import install_adsala
    from repro.core.persistence import save_bundle

    platform = get_platform(args.platform)
    bundle = install_adsala(
        platform=platform,
        routines=args.routines,
        n_samples=args.samples,
        threads_per_shape=args.threads_per_shape,
        n_test_shapes=args.test_shapes,
        tune_hyperparameters=args.tune,
        seed=args.seed,
    )
    path = save_bundle(bundle, args.output, bundle_version=args.bundle_version)
    print(f"Installed {len(bundle.routines)} routine(s) on {platform.name}; bundle at {path}")
    for routine, model in bundle.best_models().items():
        print(f"  {routine}: {model}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.core.persistence import load_bundle
    from repro.core.runtime import AdsalaRuntime

    bundle = load_bundle(args.bundle)
    runtime = AdsalaRuntime(bundle)
    _, _, spec = parse_routine(args.routine)
    if len(args.dims) != spec.n_dims:
        print(
            f"error: {args.routine} expects {spec.n_dims} dimensions {spec.dim_names}, "
            f"got {len(args.dims)}",
            file=sys.stderr,
        )
        return 2
    dims = dict(zip(spec.dim_names, args.dims))
    plan = runtime.plan(args.routine, **dims)
    print(
        f"{args.routine} {dims}: use {plan.threads} threads "
        f"(predicted {plan.predicted_time * 1e3:.2f} ms, "
        f"max-thread baseline {plan.baseline_time * 1e3:.2f} ms, "
        f"estimated speedup {plan.estimated_speedup:.2f}x)"
    )
    if plan.policy != "max-threads":
        # Re-scored here, off the request path: plans carry no scores.
        predictor = bundle.predictor(plan.routine)
        scores = predictor.predict_scores_batch([dims])[0]
        counts = predictor.candidate_threads
        tied = [i for i, score in enumerate(scores) if score == scores.min()]
        if len(tied) > 1:
            some = "" if tied[-1] - tied[0] + 1 == len(tied) else f" ({len(tied)} counts of them)"
            print(
                f"  model flat over {counts[tied[0]]}-{counts[tied[-1]]} threads{some}; "
                f"took {plan.threads}"
            )
    if plan.fallback_from is not None:
        print(
            f"  note: {plan.fallback_from} has no installed model; served by "
            f"the {plan.routine} model ({plan.policy} fallback)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading
    import time

    from repro.core.persistence import BundleFormatError
    from repro.harness.tables import format_table
    from repro.machine.simulator import TimingSimulator
    from repro.serving.engine import ServingEngine
    from repro.serving.faults import FaultInjector
    from repro.serving.frontend import (
        DeadlineExceededError,
        QueueFullError,
        ShardedFrontend,
    )
    from repro.serving.registry import ModelRegistry
    from repro.serving.supervisor import RestartPolicy
    from repro.serving.telemetry import EngineTelemetry
    from repro.serving.workload import generate_workload, load_workload

    if args.shards < 1 or args.clients < 1:
        print("error: --shards and --clients must be at least 1", file=sys.stderr)
        return 2
    registry = ModelRegistry()
    try:
        injector = None
        if args.inject_faults:
            injector = FaultInjector(
                args.inject_faults,
                seed=args.fault_seed,
                horizon=args.fault_horizon,
            )
        supervise = not args.no_supervise
        restart_policy = (
            RestartPolicy(hang_timeout=args.hang_timeout) if supervise else None
        )
        handle = registry.register(args.bundle)
        if args.workload:
            requests = load_workload(args.workload)
            source = args.workload
        else:
            routines = args.routines or handle.installed_routines
            requests = generate_workload(
                routines, args.requests, distribution=args.mix, seed=args.seed
            )
            source = f"generated ({args.mix} mix)"
        if not requests:
            print("error: workload is empty", file=sys.stderr)
            return 2

        bundle_version = handle.bundle_version
        journal = None
        if args.journal:
            from repro.obs.journal import RunJournal

            # Async writer: per-request journaling must not tax the serve
            # loop; run_end + close() below drain everything to disk.
            journal = RunJournal(
                args.journal, max_bytes=args.journal_max_bytes, async_writer=True
            )
            journal.record_run_start(
                bundle=str(args.bundle),
                bundle_version=bundle_version,
                source=source,
                requests=len(requests),
                shards=args.shards,
                backend=args.backend,
                clients=args.clients,
                batch_size=args.batch_size,
                observe=bool(args.observe),
            )
        # The scrape-time collector reads whatever stats callable the
        # serving path has installed so far (live frontend/engine during
        # the stream, the final snapshot afterwards).
        stats_holder: dict = {}
        metrics_server = None
        if args.metrics_port is not None:
            from repro.obs.collectors import StatsCollector
            from repro.obs.metrics import MetricsRegistry, MetricsServer

            metrics_registry = MetricsRegistry()
            collector = StatsCollector(
                metrics_registry,
                stats_fn=lambda: stats_holder.get("fn", dict)(),
                bundle_dir=args.bundle,
            )
            metrics_server = MetricsServer(
                metrics_registry, port=args.metrics_port, collector=collector
            )
            metrics_server.start()
            print(f"metrics: http://127.0.0.1:{metrics_server.port}/metrics")

        def observe_plans(recorder, served_plans) -> None:
            # An independently seeded simulator stands in for real measured
            # runtimes: same machine model (including any calibration a
            # promotion stamped into the settings), different noise draw.
            settings = handle.settings
            observer = TimingSimulator(
                handle.simulator.platform,
                seed=int(settings.get("seed", 0)) + 1,
                noise_level=float(settings.get("noise_level", 0.04)),
            )
            for plan in served_plans:
                observed = observer.time(plan.routine, plan.dims, plan.threads)
                recorder.record_observation(plan, observed)
                if journal is not None:
                    journal.record_observation(
                        plan.routine,
                        plan.threads,
                        plan.predicted_time,
                        observed,
                        baseline_time=plan.baseline_time,
                    )

        sharded = (
            args.shards > 1
            or args.clients > 1
            or args.backend == "process"
            or injector is not None
            or args.deadline is not None
        )
        if sharded:
            # Both backends through one constructor: an independent lazy
            # handle per thread shard, one worker spec for process shards
            # (every worker opens the bundle directory itself).
            frontend = ShardedFrontend.from_directory(
                args.bundle,
                args.shards,
                backend=args.backend,
                max_pending=args.max_pending,
                backpressure=args.backpressure,
                max_batch_size=args.batch_size,
                use_cache=not args.no_cache,
                drift_threshold=args.drift_threshold,
                supervise=supervise,
                restart_policy=restart_policy,
                injector=injector,
            )
            results: list = [None] * len(requests)
            client_errors: list = []
            expired_slots: list = []

            def client(client_index: int) -> None:
                # Round-robin slice, submitted in stream order; each
                # future resolves to exactly one plan (or a shed marker).
                try:
                    for slot in range(client_index, len(requests), args.clients):
                        request = requests[slot]
                        try:
                            future = frontend.submit(
                                request.routine,
                                timeout=args.deadline,
                                **request.dims,
                            )
                        except QueueFullError:
                            # Counted in the frontend's shed stats.
                            if journal is not None:
                                journal.record_shed(
                                    request.routine, "queue_full",
                                    dims=request.dims,
                                )
                            continue
                        try:
                            plan = future.result()
                        except DeadlineExceededError:
                            expired_slots.append(slot)  # shed, not lost
                            if journal is not None:
                                journal.record_shed(
                                    request.routine, "deadline",
                                    dims=request.dims,
                                    request_id=future.request_id,
                                )
                            continue
                        results[slot] = plan
                        if journal is not None:
                            journal.record_plan(
                                plan.routine,
                                plan.dims,
                                plan.threads,
                                plan.predicted_time,
                                baseline_time=plan.baseline_time,
                                from_cache=plan.from_cache,
                                fallback_from=plan.fallback_from,
                                policy=plan.policy,
                                shard=future.shard,
                                request_id=future.request_id,
                                version=bundle_version,
                            )
                except Exception as exc:  # surfaced as exit code 1 below
                    client_errors.append(exc)

            workers = [
                threading.Thread(target=client, args=(index,))
                for index in range(args.clients)
            ]
            stats_holder["fn"] = frontend.stats
            start = time.perf_counter()
            # Observations and the stats snapshot happen inside the with
            # block: process-backend workers (and their telemetry) are gone
            # once the frontend closes.
            with frontend:
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join()
                elapsed = time.perf_counter() - start
                plans = [plan for plan in results if plan is not None]
                if client_errors:
                    print(f"error: client thread failed: {client_errors[0]}",
                          file=sys.stderr)
                    return 1
                lost = (
                    len(requests) - len(plans) - frontend.n_shed
                    - len(expired_slots)
                )
                if lost:
                    print(f"error: {lost} request(s) neither served, shed "
                          "nor expired", file=sys.stderr)
                    return 1
                if args.observe:
                    observe_plans(frontend, plans)
                stats = frontend.stats()
        else:
            engine = ServingEngine(
                handle,
                max_batch_size=args.batch_size,
                use_cache=not args.no_cache,
                telemetry=EngineTelemetry(drift_threshold=args.drift_threshold),
            )
            stats_holder["fn"] = engine.stats
            start = time.perf_counter()
            plans = engine.plan_many(request.as_tuple() for request in requests)
            elapsed = time.perf_counter() - start
            if journal is not None:
                for slot, plan in enumerate(plans):
                    journal.record_plan(
                        plan.routine,
                        plan.dims,
                        plan.threads,
                        plan.predicted_time,
                        baseline_time=plan.baseline_time,
                        from_cache=plan.from_cache,
                        fallback_from=plan.fallback_from,
                        policy=plan.policy,
                        request_id=slot,
                        version=bundle_version,
                    )
            if args.observe:
                observe_plans(engine, plans)
            stats = engine.stats()

        print(
            f"Served {len(plans)} plans from {source} on {handle.platform.name} "
            f"(bundle v{handle.bundle_version}, schema v{handle.schema_version})"
        )
        print(
            f"  {len(plans) / elapsed:.0f} plans/sec | {stats['batches']} batches, "
            f"mean size {stats['mean_batch_size']:.1f} (limit {args.batch_size}) | "
            f"fallback chain: {stats['fallback_chain']}"
        )
        if sharded:
            admission = stats["admission"]
            print(
                f"  {stats['shards']} {stats['backend']} shards x "
                f"{args.clients} clients | "
                f"admission: {admission['submitted']} submitted, "
                f"{admission['shed']} shed ({admission['mode']} mode, "
                f"capacity {admission['capacity']})"
            )
            supervision = stats.get("supervision")
            if supervision is not None:
                quarantined = supervision["quarantined"]
                recovery = ""
                if supervision["recovery_episodes"]:
                    recovery = (
                        f" | recovery mean "
                        f"{supervision['recovery_mean_s'] * 1e3:.0f} ms, max "
                        f"{supervision['recovery_max_s'] * 1e3:.0f} ms"
                    )
                print(
                    f"  supervision: {supervision['restarts']} restarts, "
                    f"{supervision['failures']} failures, "
                    f"{supervision['redispatched']} redispatched, "
                    f"{supervision['rerouted']} rerouted, "
                    f"{supervision['hangs']} hangs, "
                    f"{supervision['deadline_expired']} deadline-expired | "
                    f"healthy {supervision['healthy_shards']}/{stats['shards']}"
                    + (f" | quarantined: {quarantined}" if quarantined else "")
                    + recovery
                )
                injected = supervision.get("injected")
                if injected is not None:
                    fired = ", ".join(
                        f"{kind}:{count}"
                        for kind, count in sorted(injected["injected"].items())
                    ) or "none"
                    print(
                        f"  injected faults: {fired} "
                        f"(seed {injected['seed']}, "
                        f"{injected['remaining']} unfired of "
                        f"{sum(injected['spec'].values())} scheduled)"
                    )
            elif args.deadline is not None:
                print(
                    f"  supervision: off | {len(expired_slots)} deadline-expired"
                )
        cache = stats["cache"]
        print(
            f"  cache: {cache['cache_hits']} hits / {cache['cache_misses']} misses, "
            f"{cache['model_evaluations']} model evaluations"
        )
        rows = []
        for routine, snap in stats["routines"].items():
            row = {
                "routine": routine,
                "plans": snap["plans"],
                "cache_hits": snap["cache_hits"],
                "fallback": snap["fallback_plans"],
                "heuristic": snap["heuristic_plans"],
            }
            if args.observe:
                row["mean_err"] = round(snap["mean_abs_rel_error"], 3)
                row["drifting"] = routine in stats["reinstall_candidates"]
            rows.append(row)
        if rows:  # every request shed past its deadline: nothing to tabulate
            print(format_table(rows, title="Per-routine serving statistics"))
        if args.observe:
            candidates = stats["reinstall_candidates"]
            if candidates:
                print(f"Re-install candidates (drift > {args.drift_threshold}): "
                      f"{', '.join(candidates)}")
            else:
                print(f"No routine drifted past {args.drift_threshold}")
            _print_adaptation_state(args.bundle)
        # Scrapes after the stream read the final merged snapshot (live
        # frontends/engines may already be closed).
        stats_holder["fn"] = lambda: stats
        if journal is not None:
            journal.record_run_end(
                stats=stats,
                plans=len(plans),
                elapsed_s=elapsed,
            )
            journal.close()
            segments = 1 + journal.n_rotations if journal.max_bytes else 1
            print(f"journal: {journal.path} ({journal.n_rows} rows, "
                  f"{min(segments, journal.max_segments + 1)} segment(s))")
        if metrics_server is not None:
            if args.metrics_linger > 0:
                time.sleep(args.metrics_linger)
            metrics_server.stop()
        return 0
    except (FileNotFoundError, BundleFormatError, KeyError, ValueError) as exc:
        # KeyError/ValueError cover bad workload content: unknown routine
        # names, invalid dimensions, --requests 0, malformed JSONL lines.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def _print_adaptation_state(bundle_dir: str) -> None:
    """Report the adaptive layer's lifecycle per routine from the audit trail."""
    from pathlib import Path

    from repro.adaptive.promote import ADAPTATION_LOG_FILE, AdaptationLog

    log = AdaptationLog(Path(bundle_dir) / ADAPTATION_LOG_FILE)
    states = log.per_routine_state()
    if not states:
        return
    print("Adaptation state (from adaptation_log.jsonl):")
    for routine, event in sorted(states.items()):
        details = event.get("details") or {}
        extra = ""
        if event.get("event") == "promoted":
            extra = (f" (v{details.get('from_version')} -> "
                     f"v{details.get('to_version')}, "
                     f"model {details.get('model')})")
        elif event.get("event") == "rejected":
            reasons = details.get("reasons") or []
            if reasons:
                extra = f" ({reasons[0]})"
        print(f"  {routine}: {event.get('state', '?')}"
              f" [last event: {event.get('event', '?')}]{extra}")
    rollback = log.last_event(event="rolled_back")
    if rollback is not None:
        details = rollback.get("details") or {}
        print(f"  last rollback: v{details.get('from_version')} -> "
              f"v{details.get('to_version')}")


def _cmd_adapt(args: argparse.Namespace) -> int:
    import time

    from repro.adaptive import (
        AdaptationConfig,
        AdaptationController,
        DriftInjector,
        make_calibration,
    )
    from repro.core.persistence import BundleFormatError
    from repro.serving.engine import ServingEngine
    from repro.serving.registry import ModelRegistry
    from repro.serving.telemetry import EngineTelemetry
    from repro.serving.workload import generate_workload

    try:
        registry = ModelRegistry()
        handle = registry.register(args.bundle)
        engine = ServingEngine(
            handle,
            telemetry=EngineTelemetry(
                drift_threshold=args.drift_threshold,
                min_observations=args.min_observations,
            ),
        )
        routines = args.routines or handle.installed_routines
        settings = handle.settings
        calibration = make_calibration(
            clock=args.drift_clock,
            bandwidth=args.drift_bandwidth,
            sync=args.drift_sync,
        )
        injector = DriftInjector(handle.platform, calibration)
        noise = float(settings.get("noise_level", 0.04))
        base_seed = int(settings.get("seed", 0))
        # The observer stands in for real measured runtimes on the (possibly
        # drifted) machine: independent noise via a shifted seed.
        observer = injector.simulator(seed=base_seed + 1, noise_level=noise)
        config = AdaptationConfig(
            seed=args.seed,
            regather_shapes=args.regather_shapes,
            regather_threads_per_shape=args.threads_per_shape,
            regather_test_shapes=args.test_shapes,
            traffic_fraction=args.traffic_fraction,
            candidate_models=tuple(args.candidates) if args.candidates else None,
            min_error_improvement=args.min_improvement,
            max_latency_regression=args.max_latency_regression,
        )
        controller = AdaptationController(
            engine,
            config,
            # The re-gather times the drifted machine with its own noise draw.
            measurement_simulator=injector.simulator(
                seed=base_seed + 2, noise_level=noise
            ),
            calibration=calibration,
        )
        if injector.drifted:
            print(f"Injected drift: {injector.calibration}")

        def serve_round(round_index: int) -> None:
            requests = generate_workload(
                routines, args.requests, distribution=args.mix,
                seed=args.seed + round_index,
            )
            plans = engine.plan_many(request.as_tuple() for request in requests)
            for plan in plans:
                engine.record_observation(
                    plan, observer.time(plan.routine, plan.dims, plan.threads)
                )

        def rolling_errors() -> dict:
            return {
                routine: telemetry.mean_abs_rel_error
                for routine, telemetry in engine.telemetry.routines.items()
            }

        n_rounds = args.rounds if args.watch else 1
        promoted_any = False
        start = time.perf_counter()
        for round_index in range(n_rounds):
            serve_round(round_index)
            before = rolling_errors()
            report = controller.step()
            print(f"[round {round_index + 1}/{n_rounds}] {report.summary()} "
                  f"({report.wall_time_s:.2f}s)")
            for routine, verdict in report.shadow.items():
                print(f"  shadow {routine}: live err {verdict.live_error:.4f} "
                      f"({verdict.live_model}) vs candidate "
                      f"{verdict.candidate_error:.4f} ({verdict.candidate_model}) "
                      f"-> {'accept' if verdict.accepted else 'reject'}")
                for reason in verdict.reasons:
                    print(f"    - {reason}")
            if report.promoted:
                promoted_any = True
                serve_round(n_rounds + round_index)  # fresh post-promotion traffic
                after = rolling_errors()
                for routine in report.promoted:
                    print(f"  {routine}: rolling error {before.get(routine, 0.0):.4f} "
                          f"-> {after.get(routine, 0.0):.4f} "
                          f"(threshold {args.drift_threshold})")
            if args.watch and not report.acted and promoted_any:
                break
        elapsed = time.perf_counter() - start

        states = controller.states()
        print(f"Final states after {elapsed:.2f}s: "
              + ", ".join(f"{r}={s}" for r, s in sorted(states.items())))
        print(f"Bundle at version v{handle.bundle_version}")

        if args.require_promotion:
            errors = rolling_errors()
            recovered = [
                routine
                for routine, state in states.items()
                if state in ("promoted", "healthy")
                and errors.get(routine, float("inf")) < args.drift_threshold
            ]
            if not promoted_any or not recovered:
                print(
                    "error: adaptation did not promote a recovered model "
                    f"(promoted={promoted_any}, errors={errors})",
                    file=sys.stderr,
                )
                return 1
        return 0
    except (FileNotFoundError, BundleFormatError, KeyError, ValueError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def _cmd_bundle(args: argparse.Namespace) -> int:
    from repro.core.persistence import (
        SCHEMA_VERSION,
        BundleFormatError,
        manifest_schema_version,
        migrate_manifest,
        read_manifest,
        verify_bundle,
    )

    try:
        if args.action == "inspect":
            manifest = read_manifest(args.bundle)
            print(f"Bundle {args.bundle}")
            print(f"  schema version: {manifest_schema_version(manifest)} "
                  f"(library supports {SCHEMA_VERSION})")
            print(f"  bundle version: {manifest.get('bundle_version', 1)}")
            print(f"  platform:       {manifest['platform']}")
            for routine, meta in sorted(manifest["routines"].items()):
                checksum = meta.get("checksum", "-")
                if isinstance(checksum, str) and ":" in checksum:
                    checksum = checksum.split(":", 1)[1][:12] + "..."
                print(f"  {routine}: model={meta.get('model_name', '?')} "
                      f"target={meta.get('target', 'seconds')} "
                      f"file={meta.get('model_file', '?')} checksum={checksum}")
        elif args.action == "rollback":
            from repro.adaptive.promote import BundlePromoter

            promoter = BundlePromoter(args.bundle)
            before = promoter.current_version()
            try:
                restored = promoter.rollback(args.to_version)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(f"Rolled back {args.bundle}: bundle v{before} -> v{restored} "
                  f"(archived versions: {promoter.archived_versions()})")
        elif args.action == "verify":
            report = verify_bundle(args.bundle)
            for routine, status in sorted(report["routines"].items()):
                print(f"  {routine}: {status}")
            if not report["ok"]:
                print(f"Bundle {args.bundle}: FAILED verification", file=sys.stderr)
                return 1
            print(f"Bundle {args.bundle}: ok "
                  f"(schema v{report['schema_version']}, "
                  f"bundle v{report['bundle_version']}, {report['platform']})")
        else:  # migrate
            before = manifest_schema_version(read_manifest(args.bundle))
            manifest = migrate_manifest(args.bundle)
            after = manifest_schema_version(manifest)
            if before == after:
                print(f"Bundle {args.bundle} already at schema v{after}")
            else:
                print(f"Migrated {args.bundle}: schema v{before} -> v{after} "
                      f"({len(manifest['routines'])} checksums written)")
    except (FileNotFoundError, BundleFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.harness.tables import format_table
    from repro.obs.analytics import (
        capacity_report,
        error_trend,
        speedup_by_routine,
        supervision_summary,
    )
    from repro.obs.journal import journal_segments, read_journal

    segments = journal_segments(args.journal)
    if not segments:
        print(f"error: no journal at {args.journal}", file=sys.stderr)
        return 1
    try:
        rows = list(read_journal(args.journal, strict=args.strict))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    n_plans = sum(1 for row in rows if row.get("event") == "plan")
    n_observations = sum(1 for row in rows if row.get("event") == "observation")
    n_shed = sum(1 for row in rows if row.get("event") == "shed")

    speedup = speedup_by_routine(rows)
    trend = error_trend(rows)
    capacity = capacity_report(rows, window=args.window)
    supervision = supervision_summary(rows)

    if args.as_json:
        report = {
            "journal": str(args.journal),
            "segments": [str(path) for path in segments],
            "rows": len(rows),
            "plans": n_plans,
            "observations": n_observations,
            "shed": n_shed,
            "speedup_by_routine": speedup,
            "error_trend": {
                " ".join(str(part) for part in key): value
                for key, value in trend.items()
            },
            "capacity": capacity,
            "supervision": supervision,
        }
        print(json.dumps(report, indent=2))
        return 0

    print(f"Journal {args.journal}: {len(rows)} rows in {len(segments)} "
          f"segment(s) ({n_plans} plans, {n_observations} observations, "
          f"{n_shed} shed)")

    def cell(value, digits=3):
        return "-" if value is None else round(value, digits)

    table_rows = []
    for routine, entry in speedup.items():
        table_rows.append({
            "routine": routine,
            "plans": entry["plans"],
            "cache_hits": entry["cache_hits"],
            "fallbacks": entry["fallbacks"],
            "observations": entry["observations"],
            "speedup": cell(entry["speedup"]),
            "basis": entry["basis"],
        })
    if table_rows:
        print(format_table(
            table_rows, title="Realized speedup vs max-threads baseline"
        ))
    else:
        print("No plan or observation rows — nothing to attribute speedup to")

    if trend:
        trend_rows = []
        for key in sorted(trend, key=str):
            entry = trend[key]
            routine, version = key[0], key[1]
            trend_rows.append({
                "routine": routine,
                "version": "-" if version is None else version,
                "observations": entry["observations"],
                "mean_err": cell(entry["mean_abs_rel_error"]),
                "p50_err": cell(entry["p50_abs_rel_error"]),
                "p99_err": cell(entry["p99_abs_rel_error"]),
                "max_err": cell(entry["max_abs_rel_error"]),
            })
        print(format_table(
            trend_rows, title="Prediction error by routine x bundle version"
        ))

    if supervision is not None:
        block = supervision.get("supervision")
        if isinstance(block, dict):
            quarantined = block.get("quarantined") or []
            print(
                f"Supervision (from the run_end snapshot): "
                f"{block.get('restarts', 0)} restarts, "
                f"{block.get('failures', 0)} failures, "
                f"{block.get('redispatched', 0)} redispatched, "
                f"{block.get('rerouted', 0)} rerouted, "
                f"{block.get('hangs', 0)} hangs, "
                f"{block.get('deadline_expired', 0)} deadline-expired | "
                f"healthy {block.get('healthy_shards', '?')}"
                + (f" | quarantined: {quarantined}" if quarantined else "")
            )
        admission = supervision.get("admission")
        if isinstance(admission, dict):
            print(
                f"Admission: {admission.get('submitted', 0)} submitted, "
                f"{admission.get('completed', 0)} completed, "
                f"{admission.get('shed', 0)} shed "
                f"(capacity {admission.get('capacity', '?')}, "
                f"{admission.get('mode', '?')} mode)"
            )
    else:
        print("No run_end snapshot in the journal (run crashed or still live)")

    windows = capacity["windows"]
    if windows:
        busiest = max(windows, key=lambda w: w["request_rate"])
        peak = capacity["peak_clean_rate"]
        headroom = busiest["headroom"]
        print(
            f"Capacity: {len(windows)} x {capacity['window_s']:g}s windows | "
            f"peak clean rate "
            + (f"{peak:.0f} req/s" if peak else "n/a")
            + f" | busiest window {busiest['request_rate']:.0f} req/s, "
            f"shed fraction {busiest['shed_fraction']:.3f}"
            + (f", headroom {headroom:+.1%}" if headroom is not None else "")
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.harness import experiments
    from repro.harness.tables import format_table

    if args.table == "table1":
        print(format_table(experiments.table1_routine_specs(), title="Table I: routine specifications"))
    elif args.table == "table2":
        print(format_table(experiments.table2_model_catalog(), title="Table II: candidate models"))
    elif args.table == "table3":
        print(format_table(experiments.table3_features(), title="Table III: features"))
    elif args.table == "table4":
        print(format_table(experiments.table4_model_selection_setonix(), title="Table IV: best models (Setonix)"))
    elif args.table == "table5":
        print(format_table(experiments.table5_model_selection_gadi(), title="Table V: best models (Gadi)"))
    elif args.table == "table6":
        for routine, rows in experiments.table6_model_statistics(args.platform).items():
            print(format_table(rows, title=f"Table VI: {routine} on {args.platform}"))
            print()
    elif args.table == "table7":
        print(
            format_table(
                experiments.table7_speedup_statistics(args.platform),
                title=f"Table VII: speedup statistics on {args.platform}",
            )
        )
    elif args.table == "table8":
        print(
            format_table(
                experiments.table8_profiling(args.platform),
                title=f"Table VIII: profiling breakdown on {args.platform}",
            )
        )
    return 0


def _cmd_platforms(_args: argparse.Namespace) -> int:
    for name in list_platforms():
        print(get_platform(name).describe())
        print()
    return 0


def _cmd_routines(args: argparse.Namespace) -> int:
    import json

    from repro.harness.tables import format_table
    from repro.routines.catalog import get_catalog

    rows = []
    for entry in get_catalog().entries():
        spec = entry.spec
        for key in entry.keys():
            rows.append(
                {
                    "key": key,
                    "dims": " ".join(spec.dim_names),
                    "source": entry.source,
                    "plugin": entry.plugin_name,
                    "version": entry.plugin_version,
                    "simulator": "yes" if spec.has_simulator else "no",
                }
            )
    rows.sort(key=lambda row: row["key"])
    if args.as_json:
        print(json.dumps({"routines": rows}, indent=2))
        return 0
    print(format_table(rows, title=f"Registered routines ({len(rows)} keys)"))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "install": _cmd_install,
        "predict": _cmd_predict,
        "serve": _cmd_serve,
        "adapt": _cmd_adapt,
        "bundle": _cmd_bundle,
        "analyze": _cmd_analyze,
        "bench": _cmd_bench,
        "platforms": _cmd_platforms,
        "routines": _cmd_routines,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
