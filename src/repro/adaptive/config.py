"""Tunables of the closed adaptation loop.

One frozen dataclass carries every knob the loop needs, so a controller, a
CLI invocation and a test can share an identical, hashable description of an
adaptation policy.  The defaults describe a *budgeted* loop: a re-gather
campaign an order of magnitude smaller than a full install (the drifted
machine is being measured while it serves traffic), a conservative promotion
bar (the candidate must be clearly better, not merely different) and a
deterministic seed so any adaptation run can be replayed bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["AdaptationConfig"]


@dataclass(frozen=True)
class AdaptationConfig:
    """Policy knobs for one :class:`~repro.adaptive.controller.AdaptationController`.

    Parameters
    ----------
    seed:
        Flows into every stochastic step (traffic-shape sampling and jitter,
        train/test splits, model fits), making adaptation runs reproducible:
        two runs over identical telemetry produce bit-identical retrained
        bundles.
    regather_shapes:
        Problem-shape budget of the incremental re-gather campaign (a full
        install uses ~80; the adaptive loop measures the live machine, so it
        stays an order of magnitude cheaper).
    regather_threads_per_shape:
        Thread counts timed per re-gathered shape.
    regather_test_shapes:
        Held-out shapes for the retrain's model selection.
    traffic_fraction:
        Fraction of the shape budget seeded from the observed-traffic
        :class:`~repro.serving.telemetry.ShapeHistogram` (frequency-weighted,
        with multiplicative jitter); the remainder comes fresh from the
        routine's scrambled-Halton domain sampler so the model does not
        overfit the recent workload.
    traffic_jitter:
        Half-width of the uniform multiplicative jitter applied per dimension
        to traffic-seeded shapes (0.1 = each dimension scaled by a factor in
        [0.9, 1.1]), so a hot shape seeds a neighbourhood rather than one
        duplicated row.
    candidate_models:
        Candidate pool for the retrain (``None`` = the full Table II pool).
    tune_hyperparameters, eval_time_mode:
        Passed through to :func:`repro.core.install.fit_routine_installation`.
        The default ``"native"`` eval-time mode keeps retraining fully
        deterministic (no wall-clock measurement feeds model selection).
    min_error_improvement:
        Shadow-promotion bar: the candidate's mean replay error must be at
        least this fraction below the live model's
        (``candidate <= live * (1 - min_error_improvement)``).
    max_latency_regression:
        The candidate's estimated per-plan evaluation time may exceed the
        live model's by at most this fraction (a more accurate but much
        slower model is not a win on the serving hot path).
    shadow_min_records:
        Minimum usable traffic records required before a shadow verdict is
        trusted; with fewer, the candidate is rejected (better to keep a
        known model than to promote on anecdote).
    auto_calibrate:
        When no explicit machine calibration is known, estimate a
        first-order uniform one from telemetry (the median observed/
        predicted runtime ratio of the promoted routines' traffic) and
        stamp it on promotion, so the reloaded bundle's simulator — the
        engine's predicted-time source — tracks the machine as measured.
        Without it, promotions driven by real (un-modelled) drift would
        improve thread choices but leave the rolling drift error lit.
    auto_calibrate_tolerance:
        Dead-band around 1.0: estimated ratios within it are treated as
        noise and stamp no calibration.
    max_routines_per_step:
        Upper bound on drifting routines re-gathered in one controller step
        (bounds the measurement budget a single step may spend).

    Retraining fits routines and their candidates one after another, as
    the installer does.
    """

    seed: int = 0
    regather_shapes: int = 24
    regather_threads_per_shape: int = 6
    regather_test_shapes: int = 10
    traffic_fraction: float = 0.5
    traffic_jitter: float = 0.1
    candidate_models: Optional[Tuple[str, ...]] = None
    tune_hyperparameters: bool = False
    eval_time_mode: str = "native"
    min_error_improvement: float = 0.05
    max_latency_regression: float = 0.5
    shadow_min_records: int = 8
    auto_calibrate: bool = True
    auto_calibrate_tolerance: float = 0.05
    max_routines_per_step: int = 4

    def __post_init__(self):
        if self.regather_shapes < 2:
            raise ValueError("regather_shapes must be at least 2")
        if self.regather_threads_per_shape < 1:
            raise ValueError("regather_threads_per_shape must be at least 1")
        if self.regather_test_shapes < 1:
            raise ValueError("regather_test_shapes must be at least 1")
        if not 0.0 <= self.traffic_fraction <= 1.0:
            raise ValueError("traffic_fraction must be in [0, 1]")
        if not 0.0 <= self.traffic_jitter < 1.0:
            raise ValueError("traffic_jitter must be in [0, 1)")
        if self.eval_time_mode not in ("native", "measured"):
            raise ValueError("eval_time_mode must be 'native' or 'measured'")
        if not 0.0 <= self.min_error_improvement < 1.0:
            raise ValueError("min_error_improvement must be in [0, 1)")
        if self.max_latency_regression < 0:
            raise ValueError("max_latency_regression must be non-negative")
        if self.shadow_min_records < 1:
            raise ValueError("shadow_min_records must be at least 1")
        if self.auto_calibrate_tolerance < 0:
            raise ValueError("auto_calibrate_tolerance must be non-negative")
        if self.max_routines_per_step < 1:
            raise ValueError("max_routines_per_step must be at least 1")
        if self.candidate_models is not None:
            object.__setattr__(
                self, "candidate_models", tuple(self.candidate_models)
            )
