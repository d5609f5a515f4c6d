"""Benchmark: installation-pipeline scaling (batch timing, flat trees, jobs).

Tracks the perf trajectory of the three hot paths rebuilt for batch /
process-parallel execution:

* **data gathering** — scalar per-call simulator loop vs the vectorised
  ``TimingSimulator.time_batch`` campaign (one array pass per routine);
* **end-to-end installation** — the reference pipeline (node-at-a-time
  tree builders with the per-feature split search, recursive tree
  prediction — forced via ``repro.ml.tree.reference_mode``; timing is
  batched on both sides) vs the optimised serial pipeline
  (forest-wide level-wise grower) vs the process-parallel pipeline on 2+
  jobs.  The two tree builders share their random stream and their
  summation order, so the asserted ``best_models()`` equality covers the
  fitted forests as well as the deterministic candidates;
* **runtime prediction** — the compiled fused feature→preprocess→ensemble
  kernel (PR 3) vs the recursive reference, in µs per ``plan`` call
  (``benchmarks/bench_plan_latency.py`` tracks this path in detail).

Results land in ``benchmarks/results/install_scaling.txt`` so the numbers
are tracked from this PR onward.  Note the parallel row only beats the
optimised serial row when the machine actually has >1 usable core; the
asserted end-to-end speedup takes the best optimised mode.
"""

import gc
import os
import time

from repro.core.gather import DataGatherer
from repro.core.install import install_adsala
from repro.core.predictor import ThreadPredictor
from repro.harness.experiments import QUICK_CONFIG
from repro.harness.tables import format_table
from repro.machine.platforms import get_platform
from repro.machine.simulator import TimingSimulator
from repro.ml import tree as tree_mod

from benchmarks.conftest import run_once

#: The six double-precision routines of the paper's Table I.
ROUTINES = ["dgemm", "dsymm", "dsyrk", "dsyr2k", "dtrmm", "dtrsm"]

PREDICT_REPEATS = 200
PREDICT_DIMS = {"m": 1024, "k": 1024, "n": 1024}


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def test_install_scaling(benchmark, record, record_json):
    platform = get_platform("gadi")
    config = QUICK_CONFIG
    install_kwargs = dict(
        platform=platform,
        routines=ROUTINES,
        n_samples=config.n_samples,
        threads_per_shape=config.threads_per_shape,
        n_test_shapes=config.n_test_shapes,
        candidate_models=list(config.candidate_models),
        seed=config.seed,
    )
    n_jobs = int(os.environ.get("ADSALA_JOBS", "0")) or max(
        2, min(6, os.cpu_count() or 1)
    )

    def run():
        # -- data gathering: scalar reference vs one vectorised batch pass --
        gather_scalar_s = 0.0
        gather_batch_s = 0.0
        for routine in ROUTINES:
            def make(routine=routine):
                return DataGatherer(
                    TimingSimulator(platform, seed=config.seed),
                    routine,
                    n_shapes=config.n_samples,
                    threads_per_shape=config.threads_per_shape,
                    seed=config.seed,
                )
            batch_ds, elapsed = _timed(lambda: make().gather())
            gather_batch_s += elapsed
            # The same rows, one scalar simulator call each (the oracle).
            scalar = TimingSimulator(platform, seed=config.seed)
            scalar_times, elapsed = _timed(
                lambda: [
                    scalar.time(routine, dims, threads)
                    for dims, threads in zip(batch_ds.dims, batch_ds.threads)
                ]
            )
            gather_scalar_s += elapsed
            assert scalar_times == batch_ds.times  # bit-identical campaigns

        # -- end-to-end installation: reference vs optimised vs parallel --
        # Best-of-two timings for the serial modes, dropping each bundle
        # before the next timed phase (holding three full bundles inflates
        # GC/memory pressure enough to skew single runs).
        install_reference_s = float("inf")
        for attempt in range(2):
            gc.collect()
            with tree_mod.reference_mode():
                bundle, elapsed = _timed(
                    lambda: install_adsala(**install_kwargs, n_jobs=1)
                )
            install_reference_s = min(install_reference_s, elapsed)
            reference_models = bundle.best_models()
            del bundle

        install_serial_s = float("inf")
        for attempt in range(2):
            gc.collect()
            bundle_serial, elapsed = _timed(
                lambda: install_adsala(**install_kwargs, n_jobs=1)
            )
            install_serial_s = min(install_serial_s, elapsed)

        gc.collect()
        bundle_parallel, install_parallel_s = _timed(
            lambda: install_adsala(**install_kwargs, n_jobs=n_jobs)
        )
        assert (
            reference_models
            == bundle_serial.best_models()
            == bundle_parallel.best_models()
        )
        del bundle_parallel

        # -- per-call prediction latency: flat descent vs recursive walk --
        # Use the fitted RandomForest candidate (the heaviest t_eval in the
        # pool) so the comparison actually exercises tree inference.
        installation = bundle_serial.routines["dgemm"]
        report = installation.selection
        predictor = ThreadPredictor(
            routine="dgemm",
            pipeline=report._pipeline,
            model=report._fitted_models["RandomForest"],
            candidate_threads=platform.candidate_thread_counts(),
            model_name="RandomForest",
            target=installation.predictor.target,  # fitted by the installer
            level=installation.predictor.level,
        )
        predictor.predict_runtimes(PREDICT_DIMS)  # warm-up
        _, flat_s = _timed(
            lambda: [
                predictor.plan(PREDICT_DIMS, use_cache=False)
                for _ in range(PREDICT_REPEATS)
            ]
        )
        with tree_mod.reference_mode():
            _, reference_s = _timed(
                lambda: [
                    predictor.plan(PREDICT_DIMS, use_cache=False)
                    for _ in range(PREDICT_REPEATS)
                ]
            )

        return {
            "gather_scalar_s": gather_scalar_s,
            "gather_batch_s": gather_batch_s,
            "install_reference_s": install_reference_s,
            "install_serial_s": install_serial_s,
            "install_parallel_s": install_parallel_s,
            "n_jobs": n_jobs,
            "predict_reference_us": reference_s / PREDICT_REPEATS * 1e6,
            "predict_flat_us": flat_s / PREDICT_REPEATS * 1e6,
        }

    result = run_once(benchmark, run)
    gather_speedup = result["gather_scalar_s"] / result["gather_batch_s"]
    best_install_s = min(result["install_serial_s"], result["install_parallel_s"])
    install_speedup = result["install_reference_s"] / best_install_s
    predict_speedup = result["predict_reference_us"] / result["predict_flat_us"]

    rows = [
        {
            "stage": "data gathering (6 routines)",
            "reference_s": round(result["gather_scalar_s"], 3),
            "optimized_s": round(result["gather_batch_s"], 3),
            "speedup": round(gather_speedup, 1),
            "notes": "scalar simulator loop vs one time_batch pass",
        },
        {
            "stage": "install end-to-end (serial)",
            "reference_s": round(result["install_reference_s"], 2),
            "optimized_s": round(result["install_serial_s"], 2),
            "speedup": round(
                result["install_reference_s"] / result["install_serial_s"], 2
            ),
            "notes": "reference_mode() trees vs frontier grower/flat trees, 1 job",
        },
        {
            "stage": f"install end-to-end ({result['n_jobs']} jobs)",
            "reference_s": round(result["install_reference_s"], 2),
            "optimized_s": round(result["install_parallel_s"], 2),
            "speedup": round(
                result["install_reference_s"] / result["install_parallel_s"], 2
            ),
            "notes": "adds per-routine process fan-out",
        },
        {
            "stage": "predictor plan() us/call",
            "reference_s": round(result["predict_reference_us"], 1),
            "optimized_s": round(result["predict_flat_us"], 1),
            "speedup": round(predict_speedup, 2),
            "notes": "recursive node walk vs compiled fused kernel",
        },
    ]
    record(
        "install_scaling",
        format_table(
            rows,
            title=(
                "Install-pipeline scaling: reference vs batch/flat/parallel "
                f"(quick preset, {len(ROUTINES)} routines, "
                f"cpu_count={os.cpu_count()})"
            ),
        ),
    )
    record_json(
        "install_scaling",
        [
            {
                "stage": "data gathering (6 routines)",
                "reference_s": result["gather_scalar_s"],
                "optimized_s": result["gather_batch_s"],
                "speedup": gather_speedup,
            },
            {
                "stage": "install end-to-end (serial)",
                "reference_s": result["install_reference_s"],
                "optimized_s": result["install_serial_s"],
                "speedup": result["install_reference_s"] / result["install_serial_s"],
            },
            {
                "stage": f"install end-to-end ({result['n_jobs']} jobs)",
                "reference_s": result["install_reference_s"],
                "optimized_s": result["install_parallel_s"],
                "speedup": result["install_reference_s"] / result["install_parallel_s"],
            },
            {
                "stage": "predictor plan()",
                "reference_s": result["predict_reference_us"] / 1e6,
                "optimized_s": result["predict_flat_us"] / 1e6,
                "speedup": predict_speedup,
            },
        ],
    )

    # The batch simulator path must collapse the gathering campaign.
    assert gather_speedup >= 5.0
    # The optimised pipeline (best of serial / 2+ jobs) must at least halve
    # the end-to-end installation time.
    assert install_speedup >= 2.0
    # Flattening must not be slower than the recursive reference.
    assert predict_speedup > 1.0
