"""Process/thread fan-out helpers for the installation pipeline.

The ADSALA installer is embarrassingly parallel at three levels: routines
(each routine's campaign is independent), candidate models (each candidate
is fitted and scored independently) and cross-validation folds / grid-search
parameter combinations.  :func:`map_parallel` is the single primitive behind
all three fan-outs (:func:`repro.core.install.install_adsala`,
:func:`repro.core.selection.evaluate_candidates`,
:func:`repro.ml.model_selection.cross_val_score` and
:class:`repro.ml.model_selection.GridSearchCV`).

Determinism contract
--------------------
Workers receive explicit seeds through their payloads and never consult
global random state, so the result list is **bit-identical** for every
``n_jobs`` value and backend — parallelism changes only the wall-clock time.
Results are always returned in the order of ``items``.

Job-count resolution
--------------------
``n_jobs=None`` falls back to the ``ADSALA_JOBS`` environment variable
(default 1, i.e. serial); ``n_jobs=-1`` uses every available core.  The
``"process"`` backend (default) sidesteps the GIL for the CPU-bound model
fitting; ``"thread"`` suits workloads dominated by NumPy calls that release
the GIL; ``"serial"`` forces in-process execution regardless of ``n_jobs``.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, List, TypeVar

__all__ = [
    "ADSALA_JOBS_ENV",
    "ADSALA_MP_START_ENV",
    "resolve_n_jobs",
    "map_parallel",
    "worker_context",
]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when ``n_jobs`` is ``None``.
ADSALA_JOBS_ENV = "ADSALA_JOBS"

#: Environment variable overriding the worker-process start method.
ADSALA_MP_START_ENV = "ADSALA_MP_START"

_BACKENDS = ("process", "thread", "serial")


def worker_context(start_method: str | None = None) -> multiprocessing.context.BaseContext:
    """The multiprocessing context for long-lived serving workers.

    Defaults to ``spawn``: the serving frontend launches shard workers
    lazily, *after* its drain threads exist, and forking a multi-threaded
    parent is undefined behaviour waiting to happen (locks held by threads
    that do not exist in the child).  Spawn also keeps the process backend
    honest — nothing reaches a worker except what is pickled explicitly.
    Override with ``start_method=`` or the ``$ADSALA_MP_START`` environment
    variable (e.g. ``fork`` to trade safety for startup latency on
    platforms where that is acceptable).
    """
    if start_method is None:
        start_method = os.environ.get(ADSALA_MP_START_ENV, "").strip() or "spawn"
    try:
        return multiprocessing.get_context(start_method)
    except ValueError:
        raise ValueError(
            f"Unknown multiprocessing start method {start_method!r}; "
            f"available: {multiprocessing.get_all_start_methods()}"
        ) from None


def resolve_n_jobs(n_jobs: int | None = None) -> int:
    """Resolve an ``n_jobs`` request to a concrete positive worker count.

    ``None`` reads ``$ADSALA_JOBS`` (default 1); any negative value means
    "all cores".  Zero is rejected.
    """
    if n_jobs is None:
        raw = os.environ.get(ADSALA_JOBS_ENV, "").strip()
        if raw:
            try:
                n_jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"${ADSALA_JOBS_ENV} must be an integer worker count "
                    f"(e.g. 4 or -1 for all cores), got {raw!r}"
                ) from None
        else:
            n_jobs = 1
    n_jobs = int(n_jobs)
    if n_jobs < 0:
        return max(1, os.cpu_count() or 1)
    if n_jobs == 0:
        raise ValueError("n_jobs must be a non-zero integer (or None)")
    return n_jobs


def map_parallel(
    func: Callable[[T], R],
    items: Iterable[T],
    n_jobs: int | None = None,
    backend: str = "process",
) -> List[R]:
    """Apply ``func`` to every item, optionally across a worker pool.

    Parameters
    ----------
    func:
        A picklable (module-level) callable for the process backend; any
        callable for the thread/serial backends.
    items:
        Work items; each must be picklable under the process backend.
    n_jobs:
        Worker count (see :func:`resolve_n_jobs`).  The pool is never larger
        than ``len(items)``; ``n_jobs=1`` short-circuits to a plain loop with
        no pool, no pickling and no subprocess.
    backend:
        ``"process"`` (default), ``"thread"`` or ``"serial"``.

    Returns
    -------
    list
        ``[func(item) for item in items]`` — same order, same values,
        whatever the backend.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"Unknown backend {backend!r}; expected one of {_BACKENDS}")
    items = list(items)
    n_workers = min(resolve_n_jobs(n_jobs), len(items))
    if backend == "serial" or n_workers <= 1:
        return [func(item) for item in items]
    executor_cls = ProcessPoolExecutor if backend == "process" else ThreadPoolExecutor
    with executor_cls(max_workers=n_workers) as executor:
        return list(executor.map(func, items))
