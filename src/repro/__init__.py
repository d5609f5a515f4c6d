"""repro — reproduction of the ADSALA BLAS Level 3 runtime optimiser.

This package reproduces "Machine-Learning-Driven Runtime Optimization of
BLAS Level 3 on Modern Multi-Core Systems" (Xia & Barca, 2024).  It contains

* :mod:`repro.ml` — a from-scratch machine-learning substrate (linear,
  Bayesian, tree, ensemble, kNN and SVR regressors plus model selection),
* :mod:`repro.preprocessing` — Yeo-Johnson, standardisation, LOF outlier
  removal and correlation-based feature pruning,
* :mod:`repro.machine` — analytic multi-core performance models and a timing
  simulator standing in for the Setonix / Gadi supercomputers,
* :mod:`repro.blas` — NumPy reference and blocked multi-threaded
  implementations of all six BLAS Level 3 routines,
* :mod:`repro.core` — the ADSALA contribution: domain sampling, feature
  engineering, data gathering, model selection by estimated speedup, and the
  runtime thread-count predictor,
* :mod:`repro.serving` — the production serving layer: a versioned model
  registry (lazy loading, hot reload), a micro-batching plan engine with a
  composable fallback-policy chain, and online drift telemetry,
* :mod:`repro.adaptive` — the closed adaptation loop on top of serving:
  drift-triggered, traffic-seeded re-gather and retraining, shadow
  evaluation against live traffic, canary promotion with an audit trail
  and byte-for-byte rollback,
* :mod:`repro.harness` — drivers that regenerate every table and figure of
  the paper's evaluation section.

Quickstart
----------
>>> from repro import install_adsala, AdsalaBlas
>>> from repro.machine import get_platform
>>> bundle = install_adsala(platform=get_platform("gadi"), routines=["dgemm"],
...                         n_samples=64, seed=0)
>>> blas = AdsalaBlas(bundle)
>>> plan = blas.plan("dgemm", m=256, k=2048, n=64)
>>> plan.threads <= bundle.platform.max_threads
True

Performance knobs
-----------------
The hot paths run batch/vectorised by default; every knob below changes
only wall-clock time, never results (same seeds -> same outputs):

* ``install_adsala(..., n_jobs=N)`` (or the ``ADSALA_JOBS`` environment
  variable, or ``adsala install --jobs N``) fans the per-routine campaigns
  out over ``N`` worker processes; a single-routine install fans out per
  candidate model instead.  ``-1`` uses every core.
* ``TimingSimulator.time_batch`` / ``breakdown_batch`` evaluate whole
  arrays of (shape, thread-count) configurations in one vectorised pass —
  the data gatherer and model selection use them; the scalar
  ``TimingSimulator.time`` stays as their oracle.
* ``ThreadPredictor(..., cache_capacity=K)`` bounds the LRU prediction
  cache (``K=1`` is the paper's last-call cache); cache misses run through
  the compiled fused feature→preprocess→ensemble kernel
  (:class:`repro.core.compiled.CompiledPredictor`, built once per routine
  at bundle load): one native call compiled on the fly, or its NumPy
  fallback (``ADSALA_NATIVE=0`` forces it; ``CompiledPredictor.path``
  names the one in use).  :func:`repro.core.compiled.reference_mode` is
  the oracle — the object graph over recursive trees
  (:func:`repro.ml.tree.reference_mode`) — and all three are
  bit-identical.
* ``benchmarks/bench_install_scaling.py`` and
  ``benchmarks/bench_plan_latency.py`` track the speedups of these paths
  (batch gathering, end-to-end install, per-call prediction).
"""

from repro.adaptive import AdaptationConfig, AdaptationController
from repro.core.compiled import CompiledPredictor
from repro.core.install import install_adsala, InstallationBundle
from repro.core.runtime import AdsalaBlas, AdsalaRuntime
from repro.core.predictor import ThreadPredictor
from repro.machine import get_platform, list_platforms
from repro.serving import ModelRegistry, ServingEngine, ShardedFrontend

__version__ = "1.6.0"

__all__ = [
    "install_adsala",
    "InstallationBundle",
    "AdsalaBlas",
    "AdsalaRuntime",
    "ThreadPredictor",
    "CompiledPredictor",
    "ModelRegistry",
    "ServingEngine",
    "ShardedFrontend",
    "AdaptationConfig",
    "AdaptationController",
    "get_platform",
    "list_platforms",
    "__version__",
]
