"""Model evaluation and selection by estimated speedup (paper Section IV-D).

Every candidate is fitted to the shape's speedup curve,
``log(T(p) / T(p_max))`` — each row's log-runtime less the log-runtime its
shape measured at the maximum thread count — not to seconds.  Gathered
runtimes span more than two orders of magnitude, so in seconds squared
error and split gains are set by the largest shapes; in log space they
weigh relative error, which is what choosing a thread count needs; and
with the per-shape level taken out, a model spends its capacity on how
the runtime moves with the thread count, which is all a plan reads (a
tree fitted to ``log(runtime)`` splits on size first and stays flat over
wide runs of thread counts).  The level itself, ``T(p_max)``, is one
:class:`~repro.core.predictor.LevelHead` per routine, a power law in the
dims fitted in log space and shared by every candidate.  A shape's level
is constant along its row, so the winning
:class:`~repro.core.predictor.ThreadPredictor` (``target="relative"``)
plans on the raw model output.  A dataset with a shape never timed at the
maximum thread count has no curve to fit; its candidates fit
``log(runtime)`` (``target="log"``) instead.  (The paper regresses runtime
directly.)

For every candidate model the selection stage records

* the normalised test RMSE of its runtime predictions, in seconds
  (``exp`` of the model's output times the shape's level against the
  held-out runtimes, so the Table VI column keeps the paper's units),
* its evaluation time ``t_eval`` in microseconds — by default the analytic
  compiled-runtime estimate of :func:`repro.core.evalcost.estimate_native_eval_time`
  (deterministic: selection never reads a clock), with
  ``eval_time_mode="measured"`` the wall-clock cost of a plan through the
  candidate's compiled predictor,
* the *ideal* speedup — running each held-out problem with the model's
  chosen thread count instead of the maximum thread count,
* the *estimated* speedup — the same but charging ``t_eval`` to every call:
  ``s = t_original / (t_ADSALA + t_eval)``,

both as a mean over problems and as an aggregate (total original time over
total optimised time).  The candidate with the highest estimated mean
speedup wins, which is exactly the trade-off that lets a cheap linear model
beat a slightly more accurate ensemble on latency-sensitive routines
(paper Tables IV-VI).

Scoring evaluates each candidate exactly once.  The held-out shapes at
every candidate thread count form one preprocessed grid per routine
(:func:`repro.core.compiled.numpy_grid`, built once and shared), and each
candidate's thread choices are the planner's pick,
:func:`repro.core.compiled.middle_of_ties` (the middle of a run of tied
minima), over :func:`repro.core.compiled.numpy_scores` of it — the
compiled predictor's NumPy fallback, which is also what its first-call
self-check holds the native call and its native pick to.  A candidate
that is only being scored binds no native call and runs no self-check;
the winner's production predictor, built at install, keeps both.

The candidates are fitted and scored one after another on the calling
thread, so the simulator sees one call sequence and a measured ``t_eval``
is never timed beside another fit.  There is no fan-out and nothing to set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core.compiled import (
    compile_model_kernel,
    middle_of_ties,
    numpy_grid,
    numpy_scores,
)
from repro.core.dataset import TimingDataset
from repro.core.evalcost import estimate_native_eval_time
from repro.core.features import FeatureGridWriter
from repro.core.predictor import LevelHead, ThreadPredictor
from repro.core.tuning import fit_candidate
from repro.machine.simulator import TimingSimulator
from repro.ml.metrics import root_mean_squared_error
from repro.ml.model_zoo import CANDIDATE_MODEL_NAMES
from repro.preprocessing.pipeline import PreprocessingPipeline

__all__ = [
    "CandidateEvaluation",
    "SelectionReport",
    "evaluate_candidates",
    "select_best_model",
]


@dataclass
class CandidateEvaluation:
    """Per-model statistics backing one row of the paper's Table VI."""

    model_name: str
    rmse: float
    normalised_rmse: float
    eval_time_us: float
    ideal_mean_speedup: float
    ideal_aggregate_speedup: float
    estimated_mean_speedup: float
    estimated_aggregate_speedup: float

    def as_row(self) -> Dict[str, float | str]:
        return {
            "model": self.model_name,
            "normalised_test_rmse": round(self.normalised_rmse, 2),
            "ideal_mean_speedup": round(self.ideal_mean_speedup, 2),
            "ideal_aggregate_speedup": round(self.ideal_aggregate_speedup, 2),
            "eval_time_us": round(self.eval_time_us, 2),
            "estimated_mean_speedup": round(self.estimated_mean_speedup, 2),
            "estimated_aggregate_speedup": round(self.estimated_aggregate_speedup, 2),
        }


@dataclass
class SelectionReport:
    """Outcome of model selection for one routine on one platform."""

    routine: str
    platform: str
    evaluations: List[CandidateEvaluation] = field(default_factory=list)
    best_model_name: str = ""

    @property
    def best_evaluation(self) -> CandidateEvaluation:
        for evaluation in self.evaluations:
            if evaluation.model_name == self.best_model_name:
                return evaluation
        raise LookupError(f"No evaluation recorded for {self.best_model_name!r}")

    def as_rows(self) -> List[Dict[str, float | str]]:
        return [evaluation.as_row() for evaluation in self.evaluations]


def _speedup_statistics(
    routine: str,
    threads: np.ndarray,
    simulator: TimingSimulator,
    test_shapes: Sequence[Dict[str, int]],
    eval_time_seconds: float,
    original_times: np.ndarray,
) -> tuple[float, float, float, float]:
    """(ideal_mean, ideal_aggregate, estimated_mean, estimated_aggregate).

    ``threads`` holds the candidate's chosen thread count per held-out
    shape; the simulator times them in one vectorised pass.
    ``original_times`` carries the candidate-independent max-thread
    baselines hoisted out of the per-candidate loop by
    :func:`evaluate_candidates`.
    """
    test_shapes = list(test_shapes)
    chosen = simulator.time_batch(routine, test_shapes, threads)
    original = np.asarray(original_times)

    ideal_ratios = original / chosen
    estimated_ratios = original / (chosen + eval_time_seconds)
    ideal_mean = float(ideal_ratios.mean())
    ideal_aggregate = float(original.sum() / chosen.sum())
    estimated_mean = float(estimated_ratios.mean())
    estimated_aggregate = float(
        original.sum() / (chosen.sum() + eval_time_seconds * len(test_shapes))
    )
    return ideal_mean, ideal_aggregate, estimated_mean, estimated_aggregate


def evaluate_candidates(
    dataset: TimingDataset,
    simulator: TimingSimulator,
    test_shapes: Sequence[Dict[str, int]],
    candidate_names: Sequence[str] | None = None,
    tune_hyperparameters: bool = False,
    use_yeo_johnson: bool = True,
    test_size: float = 0.15,
    eval_time_mode: str = "native",
    seed: int = 0,
) -> SelectionReport:
    """Fit, evaluate and rank every candidate model for one routine.

    Parameters
    ----------
    dataset:
        The gathered timing data for the routine.
    simulator:
        Timing source used to score the chosen thread counts on the held-out
        problem shapes.
    test_shapes:
        Separate quasi-randomly sampled problems used for the speedup
        estimate (the paper's 100-120 point test datasets).
    candidate_names:
        Candidate pool; defaults to the full Table II pool.
    tune_hyperparameters:
        Run the grid search of :mod:`repro.core.tuning` per candidate.
    use_yeo_johnson:
        Preprocessing variant (the ablation benchmark turns this off).
    test_size:
        Row-level holdout fraction used for the RMSE column (paper: 15 %).
    eval_time_mode:
        ``"native"`` (default) charges the analytic compiled-runtime cost of
        :func:`repro.core.evalcost.estimate_native_eval_time` as ``t_eval``,
        matching the paper's C++ measurements; ``"measured"`` charges the
        wall-clock cost of one plan through the candidate's compiled
        predictor (:meth:`ThreadPredictor.measure_eval_time`) instead.

    The candidates are fitted and scored one after another, in order.
    """
    if eval_time_mode not in ("native", "measured"):
        raise ValueError("eval_time_mode must be 'native' or 'measured'")
    if candidate_names is None:
        candidate_names = CANDIDATE_MODEL_NAMES
    if not candidate_names:
        raise ValueError("candidate_names must not be empty")
    if not test_shapes:
        raise ValueError("test_shapes must not be empty")

    train, test = dataset.split_rows(test_size=test_size, random_state=seed)
    X = dataset.feature_matrix()
    times = dataset.target()
    log_times = np.log(times)
    # The curve target: each row against its shape's max-thread row, whose
    # runtimes the level head learns; without one per shape, log-runtime.
    reference = dataset.reference_rows(simulator.platform.max_threads)
    level = None
    if reference is not None:
        reference_rows = np.unique(reference)
        level = LevelHead.fit([dataset.dims[i] for i in reference_rows], log_times[reference_rows])
        log_times = log_times - log_times[reference]
        level_test = np.array([level(dataset.dims[i]) for i in test])
    else:
        level_test = np.ones(test.size)

    pipeline = PreprocessingPipeline(
        use_yeo_johnson=use_yeo_johnson,
        feature_names=dataset.feature_names,
    )
    X_train_t, y_train_fit = pipeline.fit_transform(X[train], log_times[train])
    X_test_t = pipeline.transform(X[test])

    test_shapes = list(test_shapes)
    # One scoring grid per routine, shared by every candidate: the held-out
    # shapes at every candidate thread count, filled and transformed once.
    threads = sorted({int(t) for t in simulator.platform.candidate_thread_counts()})
    fused = pipeline.compile()
    writer = FeatureGridWriter(dataset.routine, threads, columns=fused.kept_indices)
    grid = numpy_grid(writer, fused, test_shapes)

    # The max-thread baseline of every held-out shape is candidate-
    # independent: compute it once (one batch call) instead of once per
    # candidate inside the scoring loop.
    original_times = simulator.time_at_max_threads_batch(dataset.routine, test_shapes)

    y_test = times[test]
    threads_array = np.asarray(threads, dtype=int)
    evaluations: List[CandidateEvaluation] = []
    fitted_models = {}
    for name in candidate_names:
        model = fit_candidate(name, X_train_t, y_train_fit, tune=tune_hyperparameters).model
        fitted_models[name] = model
        rmse = root_mean_squared_error(y_test, np.exp(model.predict(X_test_t)) * level_test)
        # The thread choice per held-out shape: the row-wise middle_of_ties
        # of one numpy_scores over the shared grid, i.e. the NumPy fallback
        # of the ThreadPredictor this candidate would become.
        scores = numpy_scores(compile_model_kernel(model), grid)
        chosen_threads = threads_array[
            middle_of_ties(scores.reshape(len(test_shapes), len(threads)))
        ]
        if eval_time_mode == "native":
            eval_time = estimate_native_eval_time(
                model, n_candidates=len(threads), n_features=X_train_t.shape[1]
            )
        else:
            predictor = ThreadPredictor(
                routine=dataset.routine,
                pipeline=pipeline,
                model=model,
                candidate_threads=threads,
                model_name=name,
                target="log" if level is None else "relative",
                level=level,
            )
            eval_time = predictor.measure_eval_time(repeats=3)
        ideal_mean, ideal_agg, est_mean, est_agg = _speedup_statistics(
            dataset.routine, chosen_threads, simulator, test_shapes, eval_time, original_times
        )
        evaluations.append(
            CandidateEvaluation(
                model_name=name,
                rmse=rmse,
                normalised_rmse=np.nan,  # filled in once the max is known
                eval_time_us=eval_time * 1e6,
                ideal_mean_speedup=ideal_mean,
                ideal_aggregate_speedup=ideal_agg,
                estimated_mean_speedup=est_mean,
                estimated_aggregate_speedup=est_agg,
            )
        )

    max_rmse = max(evaluation.rmse for evaluation in evaluations)
    for evaluation in evaluations:
        evaluation.normalised_rmse = (
            evaluation.rmse / max_rmse if max_rmse > 0 else 0.0
        )

    best = max(evaluations, key=lambda e: e.estimated_mean_speedup)
    report = SelectionReport(
        routine=dataset.routine,
        platform=dataset.platform,
        evaluations=evaluations,
        best_model_name=best.model_name,
    )
    # Stash fitted models so callers (install) can reuse the winner without
    # refitting from scratch.
    report._fitted_models = fitted_models  # type: ignore[attr-defined]
    report._pipeline = pipeline  # type: ignore[attr-defined]
    report._level = level  # type: ignore[attr-defined]
    return report


def select_best_model(reports: Sequence[SelectionReport]) -> str:
    """Model with the highest average estimated speedup across routines.

    This is the paper's library-wide criterion ("the ML model with the
    highest average estimated speedup s across all BLAS subroutines is
    selected").
    """
    if not reports:
        raise ValueError("reports must not be empty")
    totals: Dict[str, List[float]] = {}
    for report in reports:
        for evaluation in report.evaluations:
            totals.setdefault(evaluation.model_name, []).append(
                evaluation.estimated_mean_speedup
            )
    averages = {name: float(np.mean(values)) for name, values in totals.items()}
    return max(averages, key=averages.get)
