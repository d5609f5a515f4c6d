"""Model-evaluation cost estimation (the paper's ``t_eval``).

The paper measures ``t_eval`` on its compiled C++ runtime, where a linear
model costs ~5-15 µs, tree ensembles hundreds of µs and kNN several ms
(Table VI).  This reproduction's predictor is cheaper than that for the
ensembles: its evaluate span (feature fill, transform and stacked descent
over 96 thread counts) is one native call.  On the benchmark install (gadi,
six routines, 2-core host) ``eval_time_mode="measured"`` reads about
12-23 µs for the linear models and the single tree, 30-150 µs for the tree
ensembles, 210-350 µs for SVR and 430-730 µs for kNN — and selection then
picks forests and boosters (README, "What selection charges").

Two cost notions are exposed:

* :func:`measured_eval_time` — the wall-clock cost of this package's
  predictor (also available as
  :meth:`repro.core.predictor.ThreadPredictor.measure_eval_time`); it
  depends on the host and the minute, so bundles installed with it are
  not reproducible;
* :func:`estimate_native_eval_time` — an analytic estimate calibrated
  against the evaluation times the paper reports in Table VI.  Model
  selection uses it by default: it is deterministic, and it keeps the
  paper's selection dynamics (cheap linear models beating slightly more
  accurate but slower kNN/forest models on latency-sensitive routines).
"""

from __future__ import annotations

from repro.ml.base import BaseRegressor
from repro.ml.bayes import BayesianRidge
from repro.ml.boosting import (
    AdaBoostRegressor,
    GradientBoostingRegressor,
    HistGradientBoostingRegressor,
)
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import ElasticNet, LinearRegression, Ridge
from repro.ml.neighbors import KNeighborsRegressor
from repro.ml.svm import SVR
from repro.ml.tree import DecisionTreeRegressor

__all__ = ["estimate_native_eval_time", "measured_eval_time"]


# Calibration constants (seconds), chosen so that the estimates land in the
# ranges of the paper's Table VI for ~100 candidate thread counts and ~10^3
# training rows: linear ~5-15 us, decision tree ~5-8 us, XGBoost ~300-1400 us,
# random forest ~550-2300 us, AdaBoost ~60-120 us, kNN ~1700-6500 us.
_DISPATCH_OVERHEAD = 3.0e-6
_LINEAR_PER_TERM = 6.0e-9
_TREE_PER_NODE_VISIT = 2.5e-8
_ENSEMBLE_CALL_OVERHEAD = 1.5e-4
_KNN_PER_DISTANCE_TERM = 4.0e-9
_SVR_PER_KERNEL_TERM = 2.0e-9


def _tree_depth(model: DecisionTreeRegressor) -> int:
    return getattr(model, "depth_", None) or 10


def estimate_native_eval_time(
    model: BaseRegressor, n_candidates: int, n_features: int
) -> float:
    """Estimated ``t_eval`` (seconds) of one prediction in a compiled runtime.

    ``n_candidates`` is the number of candidate thread counts evaluated per
    BLAS call (the predictor scores all of them), ``n_features`` the width of
    the preprocessed feature vector.
    """
    if n_candidates < 1:
        raise ValueError("n_candidates must be at least 1")
    if n_features < 1:
        raise ValueError("n_features must be at least 1")

    if isinstance(model, (LinearRegression, Ridge, ElasticNet, BayesianRidge)):
        return _DISPATCH_OVERHEAD + _LINEAR_PER_TERM * n_candidates * n_features

    if isinstance(model, DecisionTreeRegressor):
        return (
            _DISPATCH_OVERHEAD
            + _TREE_PER_NODE_VISIT * n_candidates * _tree_depth(model)
        )

    if isinstance(model, RandomForestRegressor):
        depth = max(_tree_depth(t) for t in model.estimators_)
        return (
            _ENSEMBLE_CALL_OVERHEAD * 2.0
            + _TREE_PER_NODE_VISIT * n_candidates * len(model.estimators_) * depth
        )

    if isinstance(model, AdaBoostRegressor):
        depth = max(_tree_depth(t) for t in model.estimators_)
        return (
            _ENSEMBLE_CALL_OVERHEAD * 0.2
            + _TREE_PER_NODE_VISIT * n_candidates * len(model.estimators_) * depth
        )

    if isinstance(model, GradientBoostingRegressor):
        return (
            _ENSEMBLE_CALL_OVERHEAD
            + _TREE_PER_NODE_VISIT
            * n_candidates
            * len(model.estimators_)
            * model.max_depth
        )

    if isinstance(model, HistGradientBoostingRegressor):
        return (
            _ENSEMBLE_CALL_OVERHEAD
            + _TREE_PER_NODE_VISIT
            * n_candidates
            * len(model.estimators_)
            * model.max_depth
        )

    if isinstance(model, KNeighborsRegressor):
        n_train = model.X_train_.shape[0]
        return (
            _ENSEMBLE_CALL_OVERHEAD * 3.0
            + _KNN_PER_DISTANCE_TERM * n_candidates * n_train * n_features
        )

    if isinstance(model, SVR):
        n_sv = max(1, model.support_.size)
        return (
            _ENSEMBLE_CALL_OVERHEAD * 0.5
            + _SVR_PER_KERNEL_TERM * n_candidates * n_sv * n_features
        )

    # Unknown estimator type: fall back to a conservative linear-like cost.
    return _DISPATCH_OVERHEAD + _LINEAR_PER_TERM * n_candidates * n_features


def measured_eval_time(predictor, repeats: int = 5) -> float:
    """Wall-clock ``t_eval`` of this package's Python predictor (seconds)."""
    return predictor.measure_eval_time(repeats=repeats)
