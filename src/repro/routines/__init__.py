"""The routine table.

Every catalog starts with the fixed BLAS-12 of the paper
(:mod:`repro.routines.builtin`).  Any other routine — other precisions,
batched kernels, sparse or spectral routines, black-box libraries — is a
:class:`~repro.routines.spec.RoutineSpec` passed to
:meth:`~repro.routines.catalog.RoutineCatalog.register_spec`, after which it
flows through sampling, gathering, installation, simulation, serving and
the CLI of the registering process::

    from repro.routines import get_catalog, make_routine_spec

    get_catalog().register_spec(
        make_routine_spec(...), plugin_name="my-routines", plugin_version="1"
    )
"""

from repro.routines.catalog import (
    CatalogEntry,
    RoutineCatalog,
    UnknownRoutineError,
    build_catalog,
    get_catalog,
    reset_catalog,
)
from repro.routines.replay import NoTimingSourceError, ReplayTimingModel
from repro.routines.spec import (
    PRECISIONS,
    FeatureLayout,
    OperandSpec,
    RoutineSpec,
    derive_footprint_terms,
    feature_layout,
    make_routine_spec,
)

__all__ = [
    "CatalogEntry",
    "RoutineCatalog",
    "UnknownRoutineError",
    "build_catalog",
    "get_catalog",
    "reset_catalog",
    "NoTimingSourceError",
    "ReplayTimingModel",
    "PRECISIONS",
    "FeatureLayout",
    "OperandSpec",
    "RoutineSpec",
    "derive_footprint_terms",
    "feature_layout",
    "make_routine_spec",
]
