"""Closed-loop online adaptation on top of the serving layer.

The paper's premise is that a fitted runtime model is only as good as its
match to the machine and workload it serves.  The serving layer (PR 2)
*detects* the mismatch — rolling observed-vs-predicted error per routine
and a drift flag.  This subpackage *acts* on it:

* :mod:`repro.adaptive.config` — :class:`AdaptationConfig`, every knob of
  the loop in one frozen, reproducible policy object.
* :mod:`repro.adaptive.drift` — :class:`DriftInjector`: synthetic hardware
  drift (rescaled machine parameters) plus the serializable calibration
  mapping that later re-aligns the bundle's own simulator.
* :mod:`repro.adaptive.regather` — budgeted re-gather + retrain for
  drifting routines, seeded from the observed-traffic
  :class:`~repro.serving.telemetry.ShapeHistogram` instead of the static
  training grid.
* :mod:`repro.adaptive.shadow` — :class:`ShadowEvaluator`: replay the
  telemetry traffic log through live and candidate models (no double
  execution) and apply explicit promotion criteria (error improvement, no
  plan-latency regression).
* :mod:`repro.adaptive.promote` — :class:`BundlePromoter`: atomic
  versioned promotion through :mod:`repro.core.persistence`, the
  ``adaptation_log.jsonl`` audit trail, and byte-for-byte rollback.
* :mod:`repro.adaptive.controller` — :class:`AdaptationController`, the
  per-routine lifecycle state machine (HEALTHY → DRIFTING → REGATHERING →
  SHADOW → PROMOTED / ROLLED_BACK) tying it all together, exposed on the
  command line as ``adsala adapt`` and ``adsala bundle rollback``.
"""

from repro.adaptive.config import AdaptationConfig
from repro.adaptive.controller import (
    AdaptationController,
    AdaptationReport,
    RoutineLifecycle,
)
from repro.adaptive.drift import DriftInjector, make_calibration
from repro.adaptive.promote import (
    ADAPTATION_LOG_FILE,
    AdaptationLog,
    BundlePromoter,
)
from repro.adaptive.regather import (
    RetrainResult,
    plan_regather_shapes,
    retrain_drifting_routines,
    sampler_settings_from_bundle,
)
from repro.adaptive.shadow import ShadowEvaluator, ShadowReport

__all__ = [
    "AdaptationConfig",
    "AdaptationController",
    "AdaptationReport",
    "RoutineLifecycle",
    "DriftInjector",
    "make_calibration",
    "ADAPTATION_LOG_FILE",
    "AdaptationLog",
    "BundlePromoter",
    "RetrainResult",
    "plan_regather_shapes",
    "retrain_drifting_routines",
    "sampler_settings_from_bundle",
    "ShadowEvaluator",
    "ShadowReport",
]
