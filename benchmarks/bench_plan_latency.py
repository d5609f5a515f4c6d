"""Benchmark: compiled fused prediction kernel vs the object-graph oracle.

A ``plan()`` call only pays for itself when it is much cheaper than the
BLAS call it optimises, so this benchmark tracks the *call-time* latency of
the predictor both ways:

* **reference** — the oracle (``feature_matrix_grid`` → per-column
  preprocessing → ``model.predict`` with every tree walked recursively),
  forced via ``repro.core.compiled.reference_mode``;
* **compiled** — the fused feature→preprocess→ensemble kernel
  (:class:`repro.core.compiled.CompiledPredictor`): preallocated feature
  grid over the kept columns only, two vectorised preprocessing
  expressions, one stacked whole-ensemble descent.

Measured on the quick bundle: a cold single-shape ``plan()`` (cache
bypassed — the paper's worst case) for the heaviest candidate models and
for every routine's winning model, plus the 64-shape batched evaluation the
serving engine rides.  Both paths produce bit-identical plans (asserted in
``tests/core/test_compiled.py``), so this is a pure-latency comparison.

The per-stage table (fill, transform, descent) is the ``staged`` probe of
``benchmarks/e2e/layers.py``; this file times only whole calls.

Results land in ``benchmarks/results/plan_latency.{txt,json}``; the
benchmark asserts the compiled single-shape path is at least
``ADSALA_PLAN_SPEEDUP_MIN`` (default 3, CI smoke floor) times faster on
the heavyweight model — capable machines should see well over 10x.
"""

import os
import time

from repro.core import compiled as compiled_mod
from repro.core.install import install_adsala
from repro.core.predictor import ThreadPredictor
from repro.harness.experiments import QUICK_CONFIG
from repro.harness.tables import format_table
from repro.machine.platforms import get_platform

from benchmarks.conftest import run_once

#: The six double-precision routines of the paper's Table I.
ROUTINES = ["dgemm", "dsymm", "dsyrk", "dsyr2k", "dtrmm", "dtrsm"]

#: Heavyweight candidates measured individually (the oracle walks tree by tree).
HEAVY_MODELS = ["RandomForest", "XGBoost"]

COMPILED_REPEATS = 400
REFERENCE_REPEATS = 80
BATCH_SHAPES = 64
MIN_COMPILED_SPEEDUP = float(os.environ.get("ADSALA_PLAN_SPEEDUP_MIN", "3.0"))


def _representative_dims(routine: str) -> dict:
    from repro.blas.api import parse_routine

    _, _, spec = parse_routine(routine)
    return {name: 1024 for name in spec.dim_names}


def _random_dims(routine: str, n: int, seed: int) -> list:
    import numpy as np

    from repro.blas.api import parse_routine

    _, _, spec = parse_routine(routine)
    rng = np.random.default_rng(seed)
    return [
        {name: int(rng.integers(64, 4096)) for name in spec.dim_names}
        for _ in range(n)
    ]


def _cold_plan_seconds(predictor: ThreadPredictor, dims: dict, repeats: int) -> float:
    """Mean seconds per cache-bypassing ``plan()`` call (one warm-up)."""
    predictor.plan(dims, use_cache=False)
    start = time.perf_counter()
    for _ in range(repeats):
        predictor.plan(dims, use_cache=False)
    return (time.perf_counter() - start) / repeats


def _batch_seconds(predictor: ThreadPredictor, dims_list: list, repeats: int) -> float:
    predictor.predict_runtimes_batch(dims_list)
    start = time.perf_counter()
    for _ in range(repeats):
        predictor.predict_runtimes_batch(dims_list)
    return (time.perf_counter() - start) / repeats


def test_plan_latency(benchmark, record, record_json):
    platform = get_platform("gadi")
    config = QUICK_CONFIG
    bundle = install_adsala(
        platform=platform,
        routines=ROUTINES,
        n_samples=config.n_samples,
        threads_per_shape=config.threads_per_shape,
        n_test_shapes=config.n_test_shapes,
        candidate_models=list(config.candidate_models),
        seed=config.seed,
    )

    def run():
        rows = []

        # -- heavyweight candidates, cold single-shape plan -----------------
        report = bundle.routines["dgemm"].selection
        dims = _representative_dims("dgemm")
        for model_name in HEAVY_MODELS:
            predictor = ThreadPredictor(
                routine="dgemm",
                pipeline=report._pipeline,
                model=report._fitted_models[model_name],
                candidate_threads=platform.candidate_thread_counts(),
                model_name=model_name,
                target=bundle.predictor("dgemm").target,  # fitted by the installer
                level=bundle.predictor("dgemm").level,
            )
            compiled_s = _cold_plan_seconds(predictor, dims, COMPILED_REPEATS)
            with compiled_mod.reference_mode():
                reference_s = _cold_plan_seconds(
                    predictor, dims, REFERENCE_REPEATS
                )
            rows.append(
                {
                    "stage": f"plan() cold dgemm {model_name}",
                    "reference_s": reference_s,
                    "optimized_s": compiled_s,
                    "speedup": reference_s / compiled_s,
                }
            )

        # -- every routine's winning model, cold single-shape plan ----------
        compiled_total = reference_total = 0.0
        for routine in ROUTINES:
            predictor = bundle.routines[routine].predictor
            dims = _representative_dims(routine)
            compiled_total += _cold_plan_seconds(
                predictor, dims, COMPILED_REPEATS // 2
            )
            with compiled_mod.reference_mode():
                reference_total += _cold_plan_seconds(
                    predictor, dims, REFERENCE_REPEATS // 2
                )
        rows.append(
            {
                "stage": f"plan() cold, winning models ({len(ROUTINES)} routines)",
                "reference_s": reference_total,
                "optimized_s": compiled_total,
                "speedup": reference_total / compiled_total,
            }
        )

        # -- batched evaluation (the serving engine's inner pass) -----------
        predictor = bundle.routines["dgemm"].predictor
        dims_list = _random_dims("dgemm", BATCH_SHAPES, seed=7)
        compiled_s = _batch_seconds(predictor, dims_list, COMPILED_REPEATS // 8)
        with compiled_mod.reference_mode():
            reference_s = _batch_seconds(
                predictor, dims_list, REFERENCE_REPEATS // 8
            )
        rows.append(
            {
                "stage": f"predict_runtimes_batch ({BATCH_SHAPES} shapes, dgemm)",
                "reference_s": reference_s,
                "optimized_s": compiled_s,
                "speedup": reference_s / compiled_s,
            }
        )
        return rows

    rows = run_once(benchmark, run)
    table_rows = [
        {
            "stage": row["stage"],
            "reference_us": round(row["reference_s"] * 1e6, 1),
            "compiled_us": round(row["optimized_s"] * 1e6, 1),
            "speedup": round(row["speedup"], 2),
        }
        for row in rows
    ]
    text = format_table(
        table_rows,
        title=(
            "Plan latency: compiled fused kernel vs object-graph reference "
            f"(quick preset, gadi, cpu_count={os.cpu_count()})"
        ),
    )
    print()
    print(text)
    record("plan_latency", text)
    record_json("plan_latency", rows)

    headline = rows[0]
    assert headline["speedup"] >= MIN_COMPILED_SPEEDUP, (
        f"compiled plan() is only {headline['speedup']:.2f}x the reference "
        f"path on {headline['stage']!r}; expected >= {MIN_COMPILED_SPEEDUP}x"
    )
