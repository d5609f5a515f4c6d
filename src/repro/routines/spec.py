"""Routine specifications and spec-derived metadata.

This module is the canonical home of :class:`RoutineSpec` /
:class:`OperandSpec` (re-exported by :mod:`repro.blas.api` for backward
compatibility) plus everything that can be *derived* from a spec instead of
being maintained in parallel literal tables:

* :func:`feature_layout` — the Table III feature set (names, product bases
  and column operations) generalised to any number of free dimensions; for
  two- and three-dimension routines it reproduces the paper's feature lists
  exactly, feature for feature.
* :func:`derive_footprint_terms` — the memory footprint of a routine as
  (coefficient, dim-index factors) monomial terms read off the operand
  table, replacing the hard-coded per-routine table that
  :mod:`repro.core.features` used to keep.
* :func:`make_routine_spec` — the constructor for routines registered with
  :meth:`~repro.routines.catalog.RoutineCatalog.register_spec`: validates
  the dims schema and fills in a derived ``memory_words`` so a minimal
  spec only has to declare name, dims, operands and a FLOPs formula.

Specs are frozen and hashable, so the derivation helpers are memoised per
spec object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "PRECISIONS",
    "OperandSpec",
    "RoutineSpec",
    "FeatureLayout",
    "feature_layout",
    "derive_footprint_terms",
    "derived_memory_words",
    "tiling_schema",
    "make_routine_spec",
]


PRECISIONS: Dict[str, np.dtype] = {
    "s": np.dtype(np.float32),
    "d": np.dtype(np.float64),
}


@dataclass(frozen=True)
class OperandSpec:
    """Shape/type of one matrix operand as listed in Table I.

    ``shape`` entries are dimension names from the owning spec's
    ``dim_names`` or integer literals (as strings, e.g. ``"1"`` for a
    vector operand).
    """

    name: str
    shape: Tuple[str, str]
    kind: str  # "regular", "symmetric", "triangular"


@dataclass(frozen=True)
class RoutineSpec:
    """Specification of one routine served by the thread-count predictor.

    Attributes
    ----------
    name:
        Base routine name (``"gemm"``, ``"symm"``, ...), lowercase.
    dim_names:
        The free size parameters the ADSALA sampler draws (paper: three for
        GEMM, two for the rest; plugins may declare any number).
    operands:
        Operand table matching the paper's Table I.
    flops:
        Callable mapping the dimension dict to the floating-point operation
        count of the routine.
    memory_words:
        Callable mapping the dimension dict to the number of matrix elements
        that must be resident (input/output operands counted once even when
        overwritten, per the paper's footnote on TRMM/TRSM).
    precisions:
        The precision prefixes the routine supports (default both).
    analytic:
        Whether the builtin :class:`~repro.machine.perfmodel.PerformanceModel`
        can time the routine analytically.  True for the BLAS built-ins;
        plugin specs default to False unless they opt in.
    cost_model:
        Optional plugin analytic simulator: ``f(platform, precision,
        dim_arrays, threads_array) -> total_seconds_array``.  Takes
        precedence over ``analytic``.
    measure:
        Optional plugin measurement hook with the same signature — the
        plugin's way of timing the real routine.  Used when no analytic
        source exists (the "black-box" case); the simulator still layers
        its deterministic run-to-run noise on top.
    dim_ranges:
        Optional per-dimension ``(name, min, max)`` sampling bounds for the
        installation campaign; dimensions not listed use the sampler
        defaults.
    footprint_terms:
        Optional explicit monomial encoding of ``memory_words`` for the
        native column program; when omitted it is derived from ``operands``
        (see :func:`derive_footprint_terms`).

    ``flops`` and ``memory_words`` are pure arithmetic on the dimension
    values, so they accept scalars *or* aligned NumPy arrays (one entry per
    problem shape) and return a float or float array accordingly — the
    batch timing path (:meth:`repro.machine.perfmodel.PerformanceModel.breakdown_batch`)
    relies on this.
    """

    name: str
    dim_names: Tuple[str, ...]
    operands: Tuple[OperandSpec, ...]
    flops: Callable[[Dict[str, int]], float]
    memory_words: Callable[[Dict[str, int]], float]
    precisions: Tuple[str, ...] = ("s", "d")
    analytic: bool = True
    cost_model: Optional[Callable] = None
    measure: Optional[Callable] = None
    dim_ranges: Optional[Tuple[Tuple[str, int, int], ...]] = None
    footprint_terms: Optional[Tuple[Tuple[float, Tuple[int, ...]], ...]] = None

    @property
    def n_dims(self) -> int:
        return len(self.dim_names)

    @property
    def has_simulator(self) -> bool:
        """Whether an analytic timing source exists (no measurement needed)."""
        return self.cost_model is not None or self.analytic

    def dims_from_args(self, *args: int, **kwargs: int) -> Dict[str, int]:
        """Build the dimension dict from positional or keyword sizes."""
        if args and kwargs:
            raise TypeError("Pass dimensions either positionally or by name, not both")
        if args:
            if len(args) != self.n_dims:
                raise ValueError(
                    f"{self.name} expects {self.n_dims} dimensions "
                    f"{self.dim_names}, got {len(args)}"
                )
            dims = dict(zip(self.dim_names, args))
        else:
            try:
                dims = {d: kwargs[d] for d in self.dim_names}
            except KeyError:
                missing = [d for d in self.dim_names if d not in kwargs]
                raise ValueError(f"{self.name} missing dimensions: {missing}") from None
            if len(kwargs) != len(dims):
                extra = [d for d in kwargs if d not in self.dim_names]
                raise ValueError(f"{self.name} got unexpected dimensions: {extra}")
        for key, value in dims.items():
            if value.__class__ is not int:
                value = dims[key] = int(value)
            if value < 1:
                raise ValueError(f"Dimension {key} must be positive, got {value}")
        return dims

    def dim_bounds(self, name: str) -> Optional[Tuple[int, int]]:
        """Declared sampling (min, max) for one dimension, if any."""
        if self.dim_ranges is None:
            return None
        for dim, lo, hi in self.dim_ranges:
            if dim == name:
                return (int(lo), int(hi))
        return None


@dataclass(frozen=True)
class FeatureLayout:
    """The Table III feature set derived from one spec.

    ``subsets`` lists the product bases as dim-index tuples — the single
    dimensions first, then all products of two or more dimensions ordered
    by (size, lexicographic index).  The memory footprint is implicitly the
    final base, at index ``len(subsets)``.  ``ops`` gives each feature
    column as ``("nt", None)`` (the thread count), ``("base", i)`` (base
    ``i``) or ``("pt", i)`` (base ``i`` divided by the thread count).
    """

    names: Tuple[str, ...]
    subsets: Tuple[Tuple[int, ...], ...]
    ops: Tuple[Tuple[str, Optional[int]], ...]

    @property
    def n_bases(self) -> int:
        return len(self.subsets) + 1  # + memory footprint

    @property
    def n_features(self) -> int:
        return len(self.ops)


def _index_subsets(n: int) -> Tuple[Tuple[int, ...], ...]:
    """All subsets of ``range(n)`` with >= 2 elements, by (size, lex) order."""
    subsets: list = []
    for size in range(2, n + 1):
        subsets.extend(itertools.combinations(range(n), size))
    return tuple(subsets)


@lru_cache(maxsize=None)
def feature_layout(spec: RoutineSpec) -> FeatureLayout:
    """Derive the Table III feature layout from a spec.

    For ``n_dims == 3`` this reproduces ``THREE_DIM_FEATURES`` and for
    ``n_dims == 2`` ``TWO_DIM_FEATURES`` exactly (same names, same order,
    same operations); other dimension counts extend the same rule: raw
    dims, thread count, all dimension products, memory footprint, then the
    per-thread variant of every size base.
    """
    n = spec.n_dims
    if n < 1:
        raise ValueError(f"{spec.name} declares no dimensions")
    # The paper labels the two-dimension feature set d1/d2 regardless of the
    # routine's own dimension names; keep that for display compatibility.
    labels = ("d1", "d2") if n == 2 else spec.dim_names
    singles = tuple((i,) for i in range(n))
    products = _index_subsets(n)
    subsets = singles + products
    n_bases = len(subsets) + 1
    base_names = ["*".join(labels[i] for i in subset) for subset in subsets]
    base_names.append("memory_footprint")

    names = [base_names[i] for i in range(n)]
    names.append("nt")
    names.extend(base_names[n:])
    names.extend(f"{base}/nt" for base in base_names)

    ops: list = [("base", i) for i in range(n)]
    ops.append(("nt", None))
    ops.extend(("base", i) for i in range(n, n_bases))
    ops.extend(("pt", i) for i in range(n_bases))
    return FeatureLayout(names=tuple(names), subsets=subsets, ops=tuple(ops))


@lru_cache(maxsize=None)
def derive_footprint_terms(
    spec: RoutineSpec,
) -> Optional[Tuple[Tuple[float, Tuple[int, ...]], ...]]:
    """Monomial terms of ``memory_words`` read off the operand table.

    Each operand contributes one ``coefficient * dim * dim ...`` term;
    integer-literal shape entries fold into the coefficient and consecutive
    operands with the same factors merge by summing coefficients — exactly
    the algebra of the builtin ``memory_words`` lambdas, so the native
    column program built from these terms evaluates bit-identically to
    them (and :meth:`FeatureGridWriter._program_matches` verifies that
    before the program is ever used).  Returns the spec's explicit
    ``footprint_terms`` when set, or ``None`` when an operand shape cannot
    be expressed as monomials (the NumPy path then uses ``memory_words``
    directly and the native fill is skipped).
    """
    if spec.footprint_terms is not None:
        return spec.footprint_terms
    if not spec.operands:
        return None
    index = {name: i for i, name in enumerate(spec.dim_names)}
    terms: list = []
    for operand in spec.operands:
        coefficient = 1.0
        factors = []
        for entry in operand.shape:
            if entry in index:
                factors.append(index[entry])
            else:
                try:
                    coefficient = coefficient * float(entry)
                except (TypeError, ValueError):
                    return None
        key = tuple(factors)
        if terms and terms[-1][1] == key:
            terms[-1] = (terms[-1][0] + coefficient, key)
        else:
            terms.append((coefficient, key))
    return tuple(terms)


@lru_cache(maxsize=None)
def tiling_schema(spec: RoutineSpec) -> Tuple[Tuple[str, ...], bool, str]:
    """``(tile_dims, triangular, panel_dim)`` for the analytic cost model.

    Derived from the operand table (the output operand is the last one, per
    Table I convention): the output's free dimensions bound the tile-level
    parallelism — halved to a triangular count when the output is a
    symmetric square — and the panel (accumulation) dimension is the first
    free dimension *not* appearing in the output, falling back to the first
    operand's leading dimension.  For the six BLAS built-ins this
    reproduces the previously hard-coded routine branches exactly: GEMM
    tiles (m, n) and accumulates over k, SYRK/SYR2K tile the triangular n
    and accumulate over k, SYMM/TRMM/TRSM tile (m, n) and accumulate over
    the square operand dimension m.
    """
    if not spec.operands:
        return (spec.dim_names, False, spec.dim_names[0])
    output = spec.operands[-1]
    out_dims = tuple(entry for entry in output.shape if entry in spec.dim_names)
    triangular = (
        output.kind == "symmetric"
        and len(set(output.shape)) == 1
        and len(out_dims) >= 1
    )
    tile_dims = (out_dims[0],) if triangular else out_dims
    if not tile_dims:
        tile_dims = spec.dim_names
    panel_dim = None
    for name in spec.dim_names:
        if name not in output.shape:
            panel_dim = name
            break
    if panel_dim is None:
        first = spec.operands[0]
        for entry in first.shape:
            if entry in spec.dim_names:
                panel_dim = entry
                break
    if panel_dim is None:
        panel_dim = spec.dim_names[0]
    return (tile_dims, triangular, panel_dim)


def derived_memory_words(
    dim_names: Sequence[str], operands: Sequence[OperandSpec]
) -> Callable[[Dict[str, object]], object]:
    """Default ``memory_words`` summing the operand areas left to right."""
    names = tuple(dim_names)
    index = {name: i for i, name in enumerate(names)}
    plan = []
    for operand in operands:
        coefficient = 1.0
        factors = []
        for entry in operand.shape:
            if entry in index:
                factors.append(entry)
            else:
                coefficient = coefficient * float(entry)
        plan.append((coefficient, tuple(factors)))

    def memory_words(dims, _plan=tuple(plan)):
        total = None
        for coefficient, factors in _plan:
            value = coefficient
            for factor in factors:
                value = value * dims[factor]
            total = value if total is None else total + value
        return total if total is not None else 0.0

    return memory_words


def make_routine_spec(
    name: str,
    dim_names: Sequence[str],
    operands: Sequence[OperandSpec | Tuple[str, Tuple[str, str], str]],
    flops: Callable,
    memory_words: Optional[Callable] = None,
    *,
    precisions: Sequence[str] = ("s", "d"),
    analytic: bool = False,
    cost_model: Optional[Callable] = None,
    measure: Optional[Callable] = None,
    dim_ranges: Optional[Dict[str, Tuple[int, int]]] = None,
    footprint_terms: Optional[Sequence[Tuple[float, Sequence[int]]]] = None,
) -> RoutineSpec:
    """Validated constructor for the specs callers register themselves.

    Unlike the raw dataclass this defaults ``analytic`` to False (plugins
    must opt in to the builtin performance model) and derives
    ``memory_words`` from the operand table when not given, so a minimal
    plugin declares only name, dims, operands and a FLOPs formula plus one
    timing source (``cost_model`` or ``measure``).
    """
    key = str(name).lower()
    if not key.isidentifier():
        raise ValueError(f"Routine name {name!r} must be a lowercase identifier")
    dims = tuple(str(d) for d in dim_names)
    if not dims:
        raise ValueError(f"Routine {key!r} must declare at least one dimension")
    if len(set(dims)) != len(dims):
        raise ValueError(f"Routine {key!r} has duplicate dimension names {dims}")
    ops = tuple(
        operand if isinstance(operand, OperandSpec) else OperandSpec(*operand)
        for operand in operands
    )
    for operand in ops:
        for entry in operand.shape:
            if entry in dims:
                continue
            try:
                float(entry)
            except (TypeError, ValueError):
                raise ValueError(
                    f"Operand {operand.name!r} of {key!r} references unknown "
                    f"dimension {entry!r} (declared: {dims})"
                ) from None
    precs = tuple(str(p) for p in precisions)
    if not precs or any(p not in PRECISIONS for p in precs):
        raise ValueError(
            f"Routine {key!r} precisions {precs} must be drawn from "
            f"{tuple(PRECISIONS)}"
        )
    if memory_words is None:
        if not ops:
            raise ValueError(
                f"Routine {key!r} needs operands or an explicit memory_words"
            )
        memory_words = derived_memory_words(dims, ops)
    ranges = None
    if dim_ranges:
        unknown = [d for d in dim_ranges if d not in dims]
        if unknown:
            raise ValueError(f"dim_ranges names unknown dimensions {unknown}")
        ranges = tuple(
            (d, int(lo), int(hi)) for d, (lo, hi) in sorted(dim_ranges.items())
        )
        for d, lo, hi in ranges:
            if lo < 1 or hi <= lo:
                raise ValueError(f"dim_ranges[{d!r}] needs 1 <= min < max")
    terms = None
    if footprint_terms is not None:
        terms = tuple(
            (float(coef), tuple(int(f) for f in factors))
            for coef, factors in footprint_terms
        )
    return RoutineSpec(
        name=key,
        dim_names=dims,
        operands=ops,
        flops=flops,
        memory_words=memory_words,
        precisions=precs,
        analytic=bool(analytic),
        cost_model=cost_model,
        measure=measure,
        dim_ranges=ranges,
        footprint_terms=terms,
    )
