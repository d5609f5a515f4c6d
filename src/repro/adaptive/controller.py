"""The closed-loop adaptation controller (drift → re-gather → shadow → promote).

PR 2 gave the serving engine *eyes*: rolling observed-vs-predicted error per
routine and a drift flag (:meth:`~repro.serving.engine.ServingEngine.reinstall_candidates`).
This module gives it *hands*.  The :class:`AdaptationController` drives a
per-routine lifecycle state machine::

    HEALTHY ──drift flag──▶ DRIFTING ──▶ REGATHERING ──▶ SHADOW ──▶ PROMOTED
       ▲                                                   │            │
       └────────── error window recovers ◀─────────────────┴─▶ ROLLED_BACK

One :meth:`AdaptationController.step` runs the whole cycle for every
currently drifting routine: a budgeted, traffic-seeded re-gather on the
*measured* (possibly drifted) machine, a retrain with the installer's own
model-selection criterion, a counterfactual-free shadow comparison against
the live model, and — when the candidate clears the promotion bar — an
atomic bundle promotion followed by an engine hot-reload, telemetry window
reset and audit-log entry.  The retrain's candidates are shadowed in its
selection order and the first that clears the bar is promoted; when none
does they are discarded (``ROLLED_BACK``) and the routine stays eligible
for the next cycle.  A promoted bundle can later be restored byte-for-byte
with :meth:`AdaptationController.rollback`.

The controller is deliberately synchronous and single-threaded: it runs
*between* serving flushes (or in a sidecar process watching the same bundle
directory), mirroring the engine's own lock-free design.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.adaptive.config import AdaptationConfig
from repro.adaptive.drift import uniform_time_calibration
from repro.adaptive.promote import BundlePromoter
from repro.adaptive.regather import (
    RetrainResult,
    retrain_drifting_routines,
    sampler_settings_from_bundle,
)
from repro.adaptive.shadow import ShadowEvaluator, ShadowReport
from repro.machine.simulator import TimingSimulator
from repro.serving.engine import ServingEngine

__all__ = ["RoutineLifecycle", "AdaptationReport", "AdaptationController"]


class RoutineLifecycle(str, Enum):
    """Adaptation lifecycle of one served routine."""

    HEALTHY = "healthy"
    DRIFTING = "drifting"
    REGATHERING = "regathering"
    SHADOW = "shadow"
    PROMOTED = "promoted"
    ROLLED_BACK = "rolled_back"


@dataclass
class AdaptationReport:
    """What one controller step did, routine by routine."""

    drifting: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    retrained: Dict[str, RetrainResult] = field(default_factory=dict)
    shadow: Dict[str, ShadowReport] = field(default_factory=dict)
    promoted: List[str] = field(default_factory=list)
    rejected: List[str] = field(default_factory=list)
    recovered: List[str] = field(default_factory=list)
    new_version: Optional[int] = None
    reloaded: bool = False
    calibration: Dict[str, float] = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def acted(self) -> bool:
        return bool(self.drifting or self.skipped or self.promoted or self.rejected)

    def summary(self) -> str:
        if not self.acted:
            return "no routine drifting; nothing to do"
        parts = [f"drifting: {', '.join(self.drifting) or '-'}"]
        if self.skipped:
            parts.append(
                f"skipped (no installed model, full install required): "
                f"{', '.join(self.skipped)}"
            )
        if self.promoted:
            parts.append(
                f"promoted: {', '.join(self.promoted)} -> bundle v{self.new_version}"
            )
        if self.rejected:
            parts.append(f"rejected in shadow: {', '.join(self.rejected)}")
        if self.recovered:
            parts.append(f"recovered: {', '.join(self.recovered)}")
        return "; ".join(parts)


class AdaptationController:
    """Close the loop between a serving engine's telemetry and its bundle.

    Parameters
    ----------
    engine:
        The live :class:`~repro.serving.engine.ServingEngine`.  For
        promotion the engine must serve a directory-backed
        :class:`~repro.serving.registry.BundleHandle` (hot reload needs a
        manifest on disk); purely in-memory bundles can still be *watched*
        but ``step()`` raises when a promotion would be required.
    config:
        The :class:`~repro.adaptive.config.AdaptationConfig` policy.
    measurement_simulator:
        Timing source for the re-gather — the machine as it behaves *now*.
        Defaults to the engine's own simulator (no drift); tests and the
        CLI inject a :class:`~repro.adaptive.drift.DriftInjector` simulator
        here.
    calibration:
        Machine-calibration mapping describing the measured drift (see
        :func:`repro.machine.topology.apply_calibration`).  Stamped into
        the bundle settings on promotion, so the reloaded bundle's own
        simulator predicts on the drifted machine.
    promoter:
        Override the :class:`~repro.adaptive.promote.BundlePromoter`
        (defaults to one over the engine source's directory).
    clock:
        Injectable time source for the audit log (tests pin it for
        reproducible trails).
    """

    def __init__(
        self,
        engine: ServingEngine,
        config: Optional[AdaptationConfig] = None,
        measurement_simulator: Optional[TimingSimulator] = None,
        calibration: Optional[Mapping[str, float]] = None,
        promoter: Optional[BundlePromoter] = None,
        clock: Callable[[], float] = time.time,
    ):
        self.engine = engine
        self.config = config if config is not None else AdaptationConfig()
        self._measurement_simulator = measurement_simulator
        self.calibration = dict(calibration or {})
        if promoter is None:
            directory = getattr(engine.source, "directory", None)
            promoter = (
                BundlePromoter(directory, clock=clock)
                if directory is not None
                else None
            )
        self.promoter = promoter
        self.shadow_evaluator = ShadowEvaluator(self.config)
        self._states: Dict[str, RoutineLifecycle] = {}
        # Routines already logged as unadaptable (no installed model) — an
        # in-memory dedup so a watch loop does not re-parse the growing
        # audit log, nor re-log the same fact, every step.
        self._unadaptable_logged: set[str] = set()

    @property
    def measurement_simulator(self) -> TimingSimulator:
        """The re-gather timing source.

        When none was injected, this is the engine source's *current*
        simulator — read at use time, not captured at construction, so a
        promotion that stamps a calibration immediately re-aims subsequent
        re-gathers at the calibrated machine view.
        """
        if self._measurement_simulator is not None:
            return self._measurement_simulator
        return self.engine.source.simulator

    # -- state access ------------------------------------------------------------
    def state(self, routine: str) -> RoutineLifecycle:
        return self._states.get(routine, RoutineLifecycle.HEALTHY)

    def states(self) -> Dict[str, str]:
        """Lifecycle per routine the engine's telemetry has seen."""
        return {
            routine: self.state(routine).value
            for routine in self.engine.telemetry.routines
        }

    def _transition(self, routine: str, state: RoutineLifecycle) -> None:
        self._states[routine] = state

    # -- the loop ----------------------------------------------------------------
    def _mark_recovered(self, report: AdaptationReport) -> None:
        """PROMOTED/ROLLED_BACK routines whose error window healed go HEALTHY."""
        telemetry = self.engine.telemetry
        for routine, state in list(self._states.items()):
            if state not in (RoutineLifecycle.PROMOTED, RoutineLifecycle.ROLLED_BACK):
                continue
            routine_telemetry = telemetry.routines.get(routine)
            if routine_telemetry is None:
                continue
            if len(
                routine_telemetry.errors
            ) >= telemetry.min_observations and not routine_telemetry.drifting(
                telemetry.drift_threshold, telemetry.min_observations
            ):
                self._transition(routine, RoutineLifecycle.HEALTHY)
                report.recovered.append(routine)

    def _promotion_calibration(self, routines: List[str]) -> Dict[str, float]:
        """The machine calibration to stamp alongside a promotion.

        An explicitly injected calibration (the operator measured the drift)
        wins.  Otherwise, with ``config.auto_calibrate``, a first-order
        uniform correction is estimated from telemetry: the engine's
        predicted times come from the bundle simulator, so the median
        observed/predicted ratio over the promoted routines' traffic says
        how far that simulator runs from the machine as measured.  Without
        *some* calibration a promotion can improve thread choices but never
        move the rolling drift error, and the loop would retrain forever.
        """
        if self.calibration:
            return dict(self.calibration)
        if not self.config.auto_calibrate:
            return {}
        ratios = [
            record.observed / record.predicted
            for routine in routines
            for record in self.engine.telemetry.routines[routine].traffic
            if record.predicted > 0 and record.observed > 0
        ]
        if not ratios:
            return {}
        ratio = float(np.median(ratios))
        if abs(ratio - 1.0) <= self.config.auto_calibrate_tolerance:
            return {}
        # Compound with any calibration the bundle already carries, so a
        # second drift episode corrects relative to the *current* settings.
        existing = dict(
            (getattr(self.engine.source, "settings", None) or {}).get("calibration")
            or {}
        )
        estimated = uniform_time_calibration(ratio)
        for field_name, scale in estimated.items():
            estimated[field_name] = scale * existing.pop(field_name, 1.0)
        estimated.update(existing)
        return estimated

    def step(self) -> AdaptationReport:
        """Run one full adaptation cycle over the current drift flags."""
        start = time.perf_counter()
        report = AdaptationReport()
        config = self.config
        log = self.promoter.log if self.promoter is not None else None

        self._mark_recovered(report)

        drifting = self.engine.reinstall_candidates()
        # The serving fallback chain answers *uninstalled* routines with the
        # max-threads heuristic, so they accumulate drift error too — but
        # there is no live model to shadow against or replace; adapting
        # them means a full install, which is out of this loop's budget.
        installed = getattr(self.engine.source, "routines", {})
        report.skipped = [
            routine for routine in drifting if routine not in installed
        ]
        drifting = [routine for routine in drifting if routine in installed]
        if log is not None:
            for routine in report.skipped:
                if routine not in self._unadaptable_logged:
                    self._unadaptable_logged.add(routine)
                    log.append(
                        "drift_unadaptable",
                        routine=routine,
                        state=self.state(routine).value,
                        reason="no installed model; run a full install",
                    )
        for routine in drifting:
            # Any non-DRIFTING state re-enters DRIFTING: a routine left in
            # REGATHERING/SHADOW by a step that died mid-cycle must not be
            # stranded there forever.
            if self.state(routine) is not RoutineLifecycle.DRIFTING:
                self._transition(routine, RoutineLifecycle.DRIFTING)
                if log is not None:
                    snapshot = self.engine.telemetry.drift_report(routine) or {}
                    log.append(
                        "drift_detected",
                        routine=routine,
                        state=RoutineLifecycle.DRIFTING.value,
                        rolling_error=round(
                            float(snapshot.get("mean_abs_rel_error", 0.0)), 6
                        ),
                        threshold=self.engine.telemetry.drift_threshold,
                    )
        report.drifting = [
            routine
            for routine in drifting
            if self.state(routine) is RoutineLifecycle.DRIFTING
        ]
        work = report.drifting[: config.max_routines_per_step]
        if not work:
            report.wall_time_s = time.perf_counter() - start
            return report

        # -- re-gather + retrain (fans out per routine) -----------------------
        for routine in work:
            self._transition(routine, RoutineLifecycle.REGATHERING)
        histograms = {
            routine: self.engine.telemetry.routines[routine].shapes
            for routine in work
            if routine in self.engine.telemetry.routines
        }
        settings = dict(getattr(self.engine.source, "settings", None) or {})
        results = retrain_drifting_routines(
            self.measurement_simulator,
            work,
            histograms,
            config,
            sampler_settings=sampler_settings_from_bundle(settings),
            use_yeo_johnson=bool(settings.get("use_yeo_johnson", True)),
        )
        report.retrained = results
        if log is not None:
            for routine, result in results.items():
                log.append(
                    "regathered",
                    routine=routine,
                    state=RoutineLifecycle.REGATHERING.value,
                    rows=len(result.dataset),
                    traffic_shapes=result.n_traffic_shapes,
                    fresh_shapes=result.n_fresh_shapes,
                    model=result.model_name,
                )

        # -- shadow evaluation -------------------------------------------------
        to_promote: Dict[str, RetrainResult] = {}
        for routine, result in results.items():
            self._transition(routine, RoutineLifecycle.SHADOW)
            live = self.engine.source.predictor(routine)
            traffic = self.engine.telemetry.routines[routine].traffic
            result, verdict = self._shadow(routine, live, result, traffic)
            results[routine] = result
            report.shadow[routine] = verdict
            if log is not None:
                log.append(
                    "shadow",
                    routine=routine,
                    state=RoutineLifecycle.SHADOW.value,
                    **verdict.to_details(),
                )
            if verdict.accepted:
                to_promote[routine] = result
            else:
                self._transition(routine, RoutineLifecycle.ROLLED_BACK)
                report.rejected.append(routine)
                if log is not None:
                    log.append(
                        "rejected",
                        routine=routine,
                        state=RoutineLifecycle.ROLLED_BACK.value,
                        reasons=verdict.reasons,
                    )

        # -- promotion + hot reload -------------------------------------------
        if to_promote:
            if self.promoter is None:
                raise RuntimeError(
                    "Promotion requires a directory-backed bundle source "
                    "(a serving BundleHandle) or an explicit promoter"
                )
            promotion_calibration = self._promotion_calibration(list(to_promote))
            report.calibration = dict(promotion_calibration)
            settings_update = (
                {"calibration": promotion_calibration}
                if promotion_calibration
                else None
            )
            report.new_version = self.promoter.promote(
                {
                    routine: result.installation
                    for routine, result in to_promote.items()
                },
                settings_update=settings_update,
                details={
                    routine: report.shadow[routine].to_details()
                    for routine in to_promote
                },
            )
            report.reloaded = self.engine.reload_source()
            for routine in to_promote:
                self.engine.telemetry.reset_routine(routine)
                self._transition(routine, RoutineLifecycle.PROMOTED)
                report.promoted.append(routine)
        report.promoted.sort()
        report.wall_time_s = time.perf_counter() - start
        return report

    def _shadow(self, routine, live, result: RetrainResult, traffic):
        """Shadow the retrained candidates in selection order; the first that
        clears the bar is the one to promote.

        The retrain ranks candidates by estimated speedup and the shadow bar
        is a hard constraint on top of it, so a winner that is less accurate
        than the live model gives way to the next-ranked one that is not.
        Returns ``(result, verdict)``: the result carrying the accepted
        installation and its verdict, or the unchanged result and the
        winner's rejection when none clears the bar.
        """
        first = None
        for installation in result.ranked_installations():
            verdict = self.shadow_evaluator.evaluate(
                routine, live, installation.predictor, traffic
            )
            if verdict.accepted:
                return replace(result, installation=installation), verdict
            if first is None:
                first = verdict
        return result, first

    # -- rollback ----------------------------------------------------------------
    def rollback(self, to_version: Optional[int] = None) -> int:
        """Restore an archived bundle version and hot-reload the engine."""
        if self.promoter is None:
            raise RuntimeError("Rollback requires a directory-backed bundle source")
        restored = self.promoter.rollback(to_version)
        self.engine.reload_source()
        for routine in list(self.engine.telemetry.routines):
            self.engine.telemetry.reset_routine(routine)
            self._transition(routine, RoutineLifecycle.ROLLED_BACK)
        return restored
