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

Importing the package imports none of these.  The names of ``__all__``
and the subpackages above (``repro.serving``, ...) are each imported on
first access and then kept in the package namespace, so a process pays
only for what it calls: planning from a saved bundle never loads the
adaptation loop or SciPy, and ``adsala --help`` loads neither serving nor
the installer.

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

* ``install_adsala`` installs routines one after another and fits each
  routine's candidate models one after another; there is no worker-count
  setting.  Two installs with the same seeds write identical bundles.
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
* ``benchmarks/bench_plan_latency.py`` tracks the speedup of per-call
  prediction; ``benchmarks/e2e/run.py`` times the end-to-end install.
"""

import importlib

__version__ = "1.6.0"

#: Public name -> the module that defines it, imported on first access.
_EXPORTS = {
    "install_adsala": "repro.core.install",
    "InstallationBundle": "repro.core.install",
    "AdsalaBlas": "repro.core.runtime",
    "AdsalaRuntime": "repro.core.runtime",
    "ThreadPredictor": "repro.core.predictor",
    "CompiledPredictor": "repro.core.compiled",
    "ModelRegistry": "repro.serving",
    "ServingEngine": "repro.serving",
    "ShardedFrontend": "repro.serving",
    "AdaptationConfig": "repro.adaptive",
    "AdaptationController": "repro.adaptive",
    "get_platform": "repro.machine",
    "list_platforms": "repro.machine",
}

#: Submodules reachable as attributes (``repro.serving``) without an import.
_SUBMODULES = frozenset({
    "adaptive", "blas", "cli", "core", "harness", "machine", "ml", "obs",
    "preprocessing", "routines", "serving",
})

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


def __getattr__(name):
    """Import the module behind ``name`` on first access (PEP 562) and cache
    the result in the package namespace, so later lookups never come here."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(_EXPORTS[name]), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)
