"""Registry of candidate models, mirroring the paper's Table II.

Every candidate the paper considers is represented here together with its
qualitative characteristics (parametric / imbalance tolerance / data-size
requirement — the three columns of Table II) and a small default
hyper-parameter grid used by the installation-time tuning stage.

The grids are deliberately compact: the paper's datasets hold ~10^3 points
and the tuning stage already multiplies the grid by the number of candidate
models, BLAS routines and CV folds.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.ml.base import BaseRegressor
from repro.ml.bayes import BayesianRidge
from repro.ml.boosting import (
    AdaBoostRegressor,
    GradientBoostingRegressor,
    HistGradientBoostingRegressor,
)
from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import ElasticNet, LinearRegression
from repro.ml.neighbors import KNeighborsRegressor
from repro.ml.svm import SVR
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "MODEL_CHARACTERISTICS",
    "CANDIDATE_MODEL_NAMES",
    "candidate_models",
    "default_param_grid",
    "make_model",
]


#: Qualitative model characteristics — a verbatim reproduction of Table II.
MODEL_CHARACTERISTICS: Dict[str, Dict[str, Any]] = {
    "LinearRegression": {
        "category": "Linear Models",
        "parametric": True,
        "good_with_imbalance": False,
        "data_size_requirement": "Medium",
    },
    "ElasticNet": {
        "category": "Linear Models",
        "parametric": True,
        "good_with_imbalance": False,
        "data_size_requirement": "Medium",
    },
    "BayesianRidge": {
        "category": "Linear Models",
        "parametric": True,
        "good_with_imbalance": False,
        "data_size_requirement": "Small",
    },
    "DecisionTree": {
        "category": "Tree Based Models",
        "parametric": False,
        "good_with_imbalance": True,
        "data_size_requirement": "Medium",
    },
    "XGBoost": {
        "category": "Tree Based Models",
        "parametric": False,
        "good_with_imbalance": True,
        "data_size_requirement": "Medium",
    },
    "AdaBoost": {
        "category": "Tree Based Models",
        "parametric": False,
        "good_with_imbalance": True,
        "data_size_requirement": "Medium",
    },
    "RandomForest": {
        "category": "Tree Based Models",
        "parametric": False,
        "good_with_imbalance": True,
        "data_size_requirement": "Medium",
    },
    "LightGBM": {
        "category": "Tree Based Models",
        "parametric": False,
        "good_with_imbalance": True,
        "data_size_requirement": "Medium",
    },
    "SVR": {
        "category": "Other Models",
        "parametric": False,
        "good_with_imbalance": False,
        "data_size_requirement": "Small",
    },
    "KNN": {
        "category": "Other Models",
        "parametric": False,
        "good_with_imbalance": False,
        "data_size_requirement": "Medium",
    },
}

CANDIDATE_MODEL_NAMES: List[str] = list(MODEL_CHARACTERISTICS)


_FACTORIES = {
    "LinearRegression": lambda: LinearRegression(),
    "ElasticNet": lambda: ElasticNet(alpha=0.01, l1_ratio=0.5, max_iter=500),
    "BayesianRidge": lambda: BayesianRidge(),
    "DecisionTree": lambda: DecisionTreeRegressor(max_depth=8, min_samples_leaf=2),
    "XGBoost": lambda: GradientBoostingRegressor(
        n_estimators=60, learning_rate=0.1, max_depth=4
    ),
    "AdaBoost": lambda: AdaBoostRegressor(n_estimators=30, max_depth=3, random_state=0),
    "RandomForest": lambda: RandomForestRegressor(
        n_estimators=40, max_depth=12, min_samples_leaf=2, random_state=0
    ),
    "LightGBM": lambda: HistGradientBoostingRegressor(
        n_estimators=60, learning_rate=0.1, max_depth=5, max_bins=48
    ),
    "SVR": lambda: SVR(C=10.0, epsilon=0.01, max_iter=46),
    "KNN": lambda: KNeighborsRegressor(n_neighbors=5, weights="distance"),
}


_PARAM_GRIDS: Dict[str, Dict[str, list]] = {
    "LinearRegression": {},
    "ElasticNet": {"alpha": [0.001, 0.01, 0.1], "l1_ratio": [0.2, 0.5, 0.8]},
    "BayesianRidge": {},
    "DecisionTree": {"max_depth": [6, 10, 14], "min_samples_leaf": [1, 3]},
    "XGBoost": {"max_depth": [3, 4, 6], "learning_rate": [0.05, 0.1]},
    "AdaBoost": {"n_estimators": [20, 40], "max_depth": [3, 4]},
    "RandomForest": {"max_depth": [10, 16], "min_samples_leaf": [1, 2]},
    "LightGBM": {"max_depth": [4, 6], "learning_rate": [0.05, 0.1]},
    "SVR": {"C": [1.0, 10.0], "epsilon": [0.01, 0.1]},
    "KNN": {"n_neighbors": [3, 5, 9], "weights": ["uniform", "distance"]},
}


def make_model(name: str) -> BaseRegressor:
    """Instantiate a fresh candidate model by its Table II name."""
    if name not in _FACTORIES:
        raise KeyError(
            f"Unknown model {name!r}; available: {sorted(_FACTORIES)}"
        )
    return _FACTORIES[name]()


def default_param_grid(name: str) -> Dict[str, list]:
    """Default tuning grid for a candidate model (may be empty)."""
    if name not in _PARAM_GRIDS:
        raise KeyError(
            f"Unknown model {name!r}; available: {sorted(_PARAM_GRIDS)}"
        )
    return {key: list(values) for key, values in _PARAM_GRIDS[name].items()}


def candidate_models(names: List[str] | None = None) -> Dict[str, BaseRegressor]:
    """Instantiate the candidate pool (all of Table II by default)."""
    if names is None:
        names = CANDIDATE_MODEL_NAMES
    return {name: make_model(name) for name in names}
