"""Ablation: estimated-speedup selection vs. pure-RMSE selection.

The paper selects the model with the highest *estimated speedup*
``s = t_original / (t_ADSALA + t_eval)`` rather than the lowest prediction
error.  This ablation quantifies what that choice buys: selecting purely by
RMSE favours slow, accurate models (kNN / RandomForest) whose evaluation
latency then eats part of the speedup at runtime.
"""

import numpy as np

from repro.core.evalcost import estimate_native_eval_time
from repro.harness.experiments import QUICK_CONFIG, get_bundle
from repro.harness.tables import format_table

from benchmarks.conftest import run_once

ROUTINES = ["dgemm", "dsymm", "dsyrk", "dtrsm"]


def achieved_speedup(bundle, routine, model_name):
    """Mean speedup (eval time included) of one candidate on the test shapes."""
    installation = bundle.routines[routine]
    report = installation.selection
    pipeline = report._pipeline
    model = report._fitted_models[model_name]

    from repro.core.predictor import ThreadPredictor

    predictor = ThreadPredictor(
        routine=routine,
        pipeline=pipeline,
        model=model,
        candidate_threads=bundle.platform.candidate_thread_counts(),
        model_name=model_name,
        target=installation.predictor.target,  # fitted by the installer
        level=installation.predictor.level,
    )
    eval_time = estimate_native_eval_time(
        model,
        n_candidates=len(predictor.candidate_threads),
        n_features=pipeline.n_features_out_,
    )
    simulator = bundle.simulator
    ratios = []
    for dims in installation.test_shapes:
        threads = predictor.predict_threads(dims, use_cache=False)
        ratios.append(
            simulator.time_at_max_threads(routine, dims)
            / (simulator.time(routine, dims, threads) + eval_time)
        )
    return float(np.mean(ratios))


def test_ablation_selection_criterion(benchmark, record):
    bundle = get_bundle("gadi", config=QUICK_CONFIG)

    def run():
        rows = []
        for routine in ROUTINES:
            report = bundle.routines[routine].selection
            speedup_choice = report.best_model_name
            rmse_choice = min(report.evaluations, key=lambda e: e.rmse).model_name
            rows.append(
                {
                    "subroutine": routine,
                    "speedup_selected": speedup_choice,
                    "speedup_selected_result": round(
                        achieved_speedup(bundle, routine, speedup_choice), 3
                    ),
                    "rmse_selected": rmse_choice,
                    "rmse_selected_result": round(
                        achieved_speedup(bundle, routine, rmse_choice), 3
                    ),
                }
            )
        return rows

    rows = run_once(benchmark, run)
    record(
        "ablation_selection_criterion",
        format_table(rows, title="Ablation: estimated-speedup vs. RMSE model selection (Gadi)"),
    )

    # The paper's criterion never does materially worse than RMSE selection,
    # and wins overall once evaluation latency is charged.
    speedup_total = sum(row["speedup_selected_result"] for row in rows)
    rmse_total = sum(row["rmse_selected_result"] for row in rows)
    assert all(
        row["speedup_selected_result"] >= row["rmse_selected_result"] - 0.05 for row in rows
    )
    assert speedup_total >= rmse_total - 0.05
