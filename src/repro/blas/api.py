"""Unified BLAS Level 3 routine interface and specifications (paper Table I).

A *routine key* such as ``"dgemm"`` or ``"ssyr2k"`` combines a precision
prefix (``s`` = float32, ``d`` = float64) with a base routine name.  Since
the routine-plugin refactor the specifications themselves live in
:mod:`repro.routines`: the Table I built-ins are provided by
:class:`repro.routines.builtin.BuiltinBlasPlugin` and :func:`parse_routine`
/ :func:`routine_dims` are thin queries against the process-wide
:class:`~repro.routines.catalog.RoutineCatalog`, so plugin routines
(``ADSALA_PLUGIN_PATH`` directories, ``adsala.routines`` entry points)
resolve everywhere these helpers are used.  This module remains the
backward-compatible import surface: :data:`ROUTINE_SPECS`,
:data:`ROUTINE_KEYS` and :data:`ROUTINE_NAMES` still describe the builtin
BLAS-12 (the default installation campaign); the catalog's ``keys()`` is
the full dynamic listing.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.routines.builtin import ROUTINE_SPECS
from repro.routines.catalog import get_catalog
from repro.routines.spec import PRECISIONS, OperandSpec, RoutineSpec

__all__ = [
    "RoutineSpec",
    "OperandSpec",
    "ROUTINE_SPECS",
    "ROUTINE_NAMES",
    "ROUTINE_KEYS",
    "PRECISIONS",
    "parse_routine",
    "routine_dims",
    "precision_dtype",
    "precision_bytes",
    "compute",
]


#: Base names of the builtin BLAS L3 routines (the paper's fixed set).
ROUTINE_NAMES: List[str] = list(ROUTINE_SPECS)

#: The builtin precision-qualified routine keys ("sgemm", ..., "dtrsm") —
#: the default installation campaign.  Plugin keys are listed by
#: ``repro.routines.get_catalog().keys()``.
ROUTINE_KEYS: List[str] = [
    prec + name for name in ROUTINE_NAMES for prec in ("s", "d")
]


def parse_routine(routine: str) -> Tuple[str, str, RoutineSpec]:
    """Split ``"dgemm"`` into ``("d", "gemm", spec)`` via the catalog.

    A bare base name (``"gemm"``) defaults to double precision.  Unknown
    keys raise :class:`repro.routines.UnknownRoutineError` (a
    :class:`KeyError`) naming the registered catalog keys.
    """
    return get_catalog().resolve(routine)


def routine_dims(routine: str, *args: int, **kwargs: int) -> Dict[str, int]:
    """Validated dimension dict for a routine key."""
    _, _, spec = parse_routine(routine)
    return spec.dims_from_args(*args, **kwargs)


def precision_dtype(precision: str) -> np.dtype:
    if precision not in PRECISIONS:
        raise KeyError(f"Unknown precision {precision!r}; expected 's' or 'd'")
    return PRECISIONS[precision]


def precision_bytes(precision: str) -> int:
    return precision_dtype(precision).itemsize


def compute(routine: str, threads: int = 1, **operands):
    """Execute a BLAS L3 routine with the blocked multi-threaded substrate.

    This is a convenience wrapper over :class:`repro.blas.threaded.ThreadedBlas`
    that accepts the operands as keyword arguments, e.g.::

        C = compute("dgemm", threads=4, A=A, B=B)
        B = compute("dtrsm", threads=2, A=L, B=B, lower=True)
    """
    from repro.blas.threaded import ThreadedBlas

    executor = ThreadedBlas(n_threads=threads)
    return executor.run(routine, **operands)
