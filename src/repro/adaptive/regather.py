"""Budgeted, traffic-seeded re-gather and retrain for drifting routines.

A full installation campaign samples ~80 shapes x 14 thread counts per
routine from a static quasi-random grid.  When a *served* routine drifts,
two things are different: the measurement budget is tighter (the machine is
being timed while it serves traffic), and — unlike at install time — we now
know which shapes the workload actually asks for.  The re-gather therefore

1. seeds a configurable fraction of its (much smaller) shape budget from
   the telemetry :class:`~repro.serving.telemetry.ShapeHistogram`,
   frequency-weighted and jittered so hot shapes seed a neighbourhood, and
2. fills the remainder from the routine's scrambled-Halton
   :class:`~repro.core.sampling.DomainSampler` (same bases, same memory
   cap as the install) so coverage does not collapse onto the recent mix,

then times everything through the existing batched
:class:`~repro.core.gather.DataGatherer` path and refits/model-selects via
:func:`~repro.core.install.fit_routine_installation`.  As at install,
drifting routines and their candidates are retrained one after another.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Mapping, Sequence

import numpy as np

from repro.adaptive.config import AdaptationConfig
from repro.core.dataset import TimingDataset
from repro.core.gather import DataGatherer
from repro.core.install import RoutineInstallation, fit_routine_installation
from repro.core.predictor import ThreadPredictor
from repro.core.sampling import DomainSampler
from repro.machine.simulator import TimingSimulator
from repro.serving.telemetry import ShapeHistogram

__all__ = [
    "RetrainResult",
    "sampler_settings_from_bundle",
    "plan_regather_shapes",
    "retrain_drifting_routines",
]

#: Bundle-manifest settings keys forwarded to the re-gather domain sampler,
#: mapped to the :class:`~repro.core.gather.DataGatherer` parameter names.
_SAMPLER_SETTING_KEYS = {
    "memory_cap_bytes": "memory_cap_bytes",
    "min_dim": "min_dim",
    "max_dim": "max_dim",
    "sampling_scale": "scale",
    "scrambled_sampling": "scrambled",
}


def sampler_settings_from_bundle(settings: Mapping[str, object]) -> Dict[str, object]:
    """Extract the domain-sampler knobs a bundle's install campaign used.

    The re-gather samples the *same* domain the original install did (same
    memory cap, same scale), so retrained and original models are trained
    over comparable supports.
    """
    extracted: Dict[str, object] = {}
    for key, param in _SAMPLER_SETTING_KEYS.items():
        if key in settings and settings[key] is not None:
            extracted[param] = settings[key]
    return extracted


@dataclass
class RetrainResult:
    """Outcome of one routine's re-gather + retrain campaign."""

    routine: str
    installation: RoutineInstallation
    dataset: TimingDataset
    test_shapes: List[Dict[str, int]]
    n_traffic_shapes: int
    n_fresh_shapes: int

    @property
    def model_name(self) -> str:
        return self.installation.best_model_name

    def ranked_installations(self) -> Iterator[RoutineInstallation]:
        """The selection winner, then every other fitted candidate by
        descending estimated mean speedup (ties in evaluation order), each
        as the installation that would promote it."""
        winner = self.installation
        yield winner
        selection = winner.selection
        fitted = getattr(selection, "_fitted_models", {})
        live = winner.predictor
        ranked = sorted(
            selection.evaluations, key=lambda e: e.estimated_mean_speedup, reverse=True
        )
        for evaluation in ranked:
            name = evaluation.model_name
            if name == winner.best_model_name or name not in fitted:
                continue
            predictor = ThreadPredictor(
                routine=live.routine,
                pipeline=live.pipeline,
                model=fitted[name],
                candidate_threads=live.candidate_threads,
                model_name=name,
                target=live.target,
                level=live.level,
            )
            yield replace(
                winner,
                predictor=predictor,
                selection=replace(selection, best_model_name=name),
            )


def _routine_rng(seed: int, routine: str) -> np.random.Generator:
    """Deterministic per-routine generator (seed + routine bytes)."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, *routine.encode()])


def plan_regather_shapes(
    sampler: DomainSampler,
    histogram: ShapeHistogram | None,
    n_shapes: int,
    traffic_fraction: float,
    traffic_jitter: float,
    rng: np.random.Generator,
) -> tuple[List[Dict[str, int]], int, int]:
    """Choose the re-gather problem shapes: traffic-seeded + fresh Halton.

    Returns ``(shapes, n_traffic, n_fresh)``.  Traffic-seeded shapes are
    drawn frequency-weighted from the histogram and jittered per dimension;
    a jittered shape that leaves the admissible domain (memory cap) is
    replaced by a fresh Halton sample instead of being silently dropped, so
    the budget is always spent in full.
    """
    if n_shapes < 1:
        raise ValueError("n_shapes must be positive")
    n_traffic = int(round(traffic_fraction * n_shapes))
    if histogram is None or len(histogram) == 0:
        n_traffic = 0
    shapes: List[Dict[str, int]] = []
    n_seeded = 0
    if n_traffic:
        for dims in histogram.sample(n_traffic, rng):
            jittered = {}
            for name, value in dims.items():
                factor = (
                    rng.uniform(1.0 - traffic_jitter, 1.0 + traffic_jitter)
                    if traffic_jitter > 0
                    else 1.0
                )
                jittered[name] = int(
                    np.clip(round(value * factor), sampler.min_dim, sampler.max_dim)
                )
            if sampler._fits(jittered):
                shapes.append(jittered)
                n_seeded += 1
            else:
                shapes.extend(sampler.sample(1))
    n_fresh = n_shapes - len(shapes)
    if n_fresh > 0:
        shapes.extend(sampler.sample(n_fresh))
    return shapes, n_seeded, n_shapes - n_seeded


def retrain_drifting_routines(
    simulator: TimingSimulator,
    routines: Sequence[str],
    histograms: Mapping[str, ShapeHistogram],
    config: AdaptationConfig,
    sampler_settings: Mapping[str, object] | None = None,
    use_yeo_johnson: bool = True,
) -> Dict[str, RetrainResult]:
    """Run the budgeted campaign for every drifting routine.

    ``simulator`` is the *measurement* source — the machine as it behaves
    now (for injected drift, a :class:`~repro.adaptive.drift.DriftInjector`
    simulator), not the bundle's install-time simulator.
    ``use_yeo_johnson`` follows the bundle's recorded install setting, so
    retrained candidates share the preprocessing policy of every other
    model in the bundle.
    """
    sampler_settings = dict(sampler_settings or {})
    results: Dict[str, RetrainResult] = {}
    for routine in routines:
        gatherer = DataGatherer(
            simulator=simulator,
            routine=routine,
            n_shapes=config.regather_shapes,
            threads_per_shape=config.regather_threads_per_shape,
            seed=config.seed,
            **sampler_settings,
        )
        shapes, n_traffic, n_fresh = plan_regather_shapes(
            gatherer.sampler,
            histograms.get(routine),
            config.regather_shapes,
            config.traffic_fraction,
            config.traffic_jitter,
            _routine_rng(config.seed, routine),
        )
        dataset = gatherer.gather(shapes=shapes)
        test_shapes = gatherer.gather_test_set(config.regather_test_shapes)
        installation = fit_routine_installation(
            routine=routine,
            dataset=dataset,
            test_shapes=test_shapes,
            simulator=simulator,
            candidate_models=(
                list(config.candidate_models) if config.candidate_models else None
            ),
            tune_hyperparameters=config.tune_hyperparameters,
            use_yeo_johnson=bool(use_yeo_johnson),
            eval_time_mode=config.eval_time_mode,
            seed=config.seed,
        )
        results[routine] = RetrainResult(
            routine=routine,
            installation=installation,
            dataset=dataset,
            test_shapes=test_shapes,
            n_traffic_shapes=n_traffic,
            n_fresh_shapes=n_fresh,
        )
    return results
