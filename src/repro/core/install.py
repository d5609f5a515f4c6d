"""The ADSALA installation workflow (paper Fig. 1a).

:func:`install_adsala` runs, for every requested BLAS L3 routine on the
requested platform:

1. domain sampling + timing-data gathering (:mod:`repro.core.gather`),
2. preprocessing, candidate fitting (optionally with hyper-parameter
   tuning) and model selection by estimated speedup
   (:mod:`repro.core.selection`),
3. construction of the production :class:`~repro.core.predictor.ThreadPredictor`
   for the winning model (fitted to each shape's speedup curve against its
   max-thread runtime, with a level head for that runtime, so
   ``target="relative"``),

and returns an :class:`InstallationBundle` — the in-memory equivalent of the
"config file + trained model" pair the paper's installer writes to disk
(persistence to disk lives in :mod:`repro.core.persistence`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.blas.api import ROUTINE_KEYS, parse_routine
from repro.core.dataset import TimingDataset
from repro.core.gather import DataGatherer
from repro.core.predictor import ThreadPredictor
from repro.core.selection import SelectionReport, evaluate_candidates
from repro.machine.simulator import TimingSimulator
from repro.machine.topology import MachineTopology

__all__ = [
    "RoutineInstallation",
    "InstallationBundle",
    "fit_routine_installation",
    "install_adsala",
]


@dataclass
class RoutineInstallation:
    """Everything the runtime needs for one routine."""

    routine: str
    predictor: ThreadPredictor
    selection: SelectionReport
    dataset: TimingDataset
    test_shapes: List[Dict[str, int]] = field(default_factory=list)

    @property
    def best_model_name(self) -> str:
        return self.selection.best_model_name


@dataclass
class InstallationBundle:
    """Result of installing ADSALA on one platform."""

    platform: MachineTopology
    simulator: TimingSimulator
    routines: Dict[str, RoutineInstallation] = field(default_factory=dict)
    candidate_names: List[str] = field(default_factory=list)
    settings: Dict[str, object] = field(default_factory=dict)

    def predictor(self, routine: str) -> ThreadPredictor:
        key = routine.lower()
        if key not in self.routines:
            raise KeyError(
                f"Routine {routine!r} was not installed; available: "
                f"{sorted(self.routines)}"
            )
        return self.routines[key].predictor

    def best_models(self) -> Dict[str, str]:
        """Mapping routine -> winning model name (paper Tables IV/V)."""
        return {
            routine: installation.best_model_name
            for routine, installation in sorted(self.routines.items())
        }

    @property
    def installed_routines(self) -> List[str]:
        return sorted(self.routines)


def fit_routine_installation(
    routine: str,
    dataset: TimingDataset,
    test_shapes: List[Dict[str, int]],
    simulator: TimingSimulator,
    candidate_models: Sequence[str] | None = None,
    tune_hyperparameters: bool = False,
    use_yeo_johnson: bool = True,
    eval_time_mode: str = "native",
    seed: int = 0,
) -> RoutineInstallation:
    """Model-select and fit one routine from an already-gathered dataset.

    The second half of an installation campaign (candidate evaluation,
    selection by estimated speedup, predictor construction), shared by
    :func:`install_adsala` and the adaptive layer's drift-triggered
    retraining, which gathers its dataset from observed traffic instead of
    the static training grid.
    """
    report = evaluate_candidates(
        dataset=dataset,
        simulator=simulator,
        test_shapes=test_shapes,
        candidate_names=candidate_models,
        tune_hyperparameters=tune_hyperparameters,
        use_yeo_johnson=use_yeo_johnson,
        eval_time_mode=eval_time_mode,
        seed=seed,
    )
    best_model = report._fitted_models[report.best_model_name]  # type: ignore[attr-defined]
    pipeline = report._pipeline  # type: ignore[attr-defined]
    level = report._level  # type: ignore[attr-defined]
    predictor = ThreadPredictor(
        routine=routine,
        pipeline=pipeline,
        model=best_model,
        candidate_threads=simulator.platform.candidate_thread_counts(),
        model_name=report.best_model_name,
        target="log" if level is None else "relative",
        level=level,
    )
    return RoutineInstallation(
        routine=routine,
        predictor=predictor,
        selection=report,
        dataset=dataset,
        test_shapes=test_shapes,
    )


def install_adsala(
    platform: MachineTopology,
    routines: Sequence[str] | None = None,
    n_samples: int = 80,
    threads_per_shape: int = 14,
    n_test_shapes: int = 30,
    candidate_models: Sequence[str] | None = None,
    tune_hyperparameters: bool = False,
    use_yeo_johnson: bool = True,
    eval_time_mode: str = "native",
    memory_cap_bytes: float = 500e6,
    max_dim: int | None = None,
    min_dim: int = 32,
    sampling_scale: str = "sqrt",
    scrambled_sampling: bool = True,
    noise_level: float = 0.04,
    seed: int = 0,
    simulator: TimingSimulator | None = None,
) -> InstallationBundle:
    """Install ADSALA for a set of routines on a (simulated) platform.

    Parameters mirror the knobs of the paper's installer; the defaults are a
    scaled-down campaign (80 shapes x 14 thread counts ~ 1100 rows per
    routine, matching the paper's 1000-1200) that completes in seconds per
    routine thanks to the analytic timing simulator.

    Routines are installed one after another, and within a routine the
    candidate models are fitted one after another
    (:func:`repro.core.selection.evaluate_candidates`).

    Returns
    -------
    InstallationBundle
        Per-routine predictors plus the selection reports backing the
        paper's Tables IV-VI.
    """
    if routines is None:
        routines = list(ROUTINE_KEYS)
    if not routines:
        raise ValueError("routines must not be empty")
    normalized_routines = []
    for routine in routines:
        prefix, base, _ = parse_routine(routine)
        normalized_routines.append(prefix + base)

    if simulator is None:
        simulator = TimingSimulator(platform, seed=seed, noise_level=noise_level)
    elif simulator.platform is not platform:
        raise ValueError("simulator platform does not match the requested platform")

    bundle = InstallationBundle(
        platform=platform,
        simulator=simulator,
        candidate_names=list(candidate_models) if candidate_models else [],
        settings={
            "n_samples": n_samples,
            "threads_per_shape": threads_per_shape,
            "n_test_shapes": n_test_shapes,
            "tune_hyperparameters": tune_hyperparameters,
            "use_yeo_johnson": use_yeo_johnson,
            "eval_time_mode": eval_time_mode,
            "memory_cap_bytes": memory_cap_bytes,
            "max_dim": max_dim,
            "min_dim": min_dim,
            "sampling_scale": sampling_scale,
            "scrambled_sampling": scrambled_sampling,
            "noise_level": noise_level,
            "seed": seed,
        },
    )

    for routine in normalized_routines:
        gatherer = DataGatherer(
            simulator=simulator,
            routine=routine,
            n_shapes=n_samples,
            threads_per_shape=threads_per_shape,
            memory_cap_bytes=memory_cap_bytes,
            min_dim=min_dim,
            max_dim=max_dim,
            scale=sampling_scale,
            scrambled=scrambled_sampling,
            seed=seed,
        )
        dataset = gatherer.gather()
        test_shapes = gatherer.gather_test_set(n_test_shapes)
        bundle.routines[routine] = fit_routine_installation(
            routine=routine,
            dataset=dataset,
            test_shapes=test_shapes,
            simulator=simulator,
            candidate_models=candidate_models,
            tune_hyperparameters=tune_hyperparameters,
            use_yeo_johnson=use_yeo_johnson,
            eval_time_mode=eval_time_mode,
            seed=seed,
        )

    if not bundle.candidate_names:
        bundle.candidate_names = sorted(
            {e.model_name for r in bundle.routines.values() for e in r.selection.evaluations}
        )
    return bundle
