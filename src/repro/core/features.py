"""Feature engineering for the runtime-prediction models (paper Table III).

The paper describes two feature sets, one for routines with three free
matrix dimensions (GEMM) and one for routines with two (SYMM, SYRK, SYR2K,
TRMM, TRSM).  Both are instances of one rule — raw dimensions, thread
count, all dimension products, memory footprint, and the per-thread variant
of every size term — which this module now derives from the routine's
:class:`~repro.routines.spec.RoutineSpec` via
:func:`repro.routines.spec.feature_layout`, so plugin routines with any
number of dimensions get a feature set for free.  For the builtin two- and
three-dimension routines the derived layout reproduces
:data:`TWO_DIM_FEATURES` / :data:`THREE_DIM_FEATURES` exactly, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.blas.api import parse_routine
from repro.blas.flops import memory_words
from repro.ml._native import MAX_PROGRAM_BASES
from repro.routines.spec import derive_footprint_terms, feature_layout

__all__ = [
    "THREE_DIM_FEATURES",
    "TWO_DIM_FEATURES",
    "feature_names",
    "compute_features",
    "feature_matrix_for_threads",
    "feature_matrix_grid",
    "build_feature_matrix",
    "ColumnProgram",
    "FeatureGridWriter",
]


#: Feature names for three-dimension routines (paper Table III, left column).
THREE_DIM_FEATURES: List[str] = [
    "m",
    "k",
    "n",
    "nt",
    "m*k",
    "m*n",
    "k*n",
    "m*k*n",
    "memory_footprint",
    "m/nt",
    "k/nt",
    "n/nt",
    "m*k/nt",
    "m*n/nt",
    "k*n/nt",
    "m*k*n/nt",
    "memory_footprint/nt",
]

#: Feature names for two-dimension routines (paper Table III, right column).
#: ``d1``/``d2`` stand for the routine's two free dimensions — (m, n) for
#: SYMM/TRMM/TRSM and (n, k) for SYRK/SYR2K.
TWO_DIM_FEATURES: List[str] = [
    "d1",
    "d2",
    "nt",
    "d1*d2",
    "memory_footprint",
    "d1/nt",
    "d2/nt",
    "d1*d2/nt",
    "memory_footprint/nt",
]


def feature_names(routine: str) -> List[str]:
    """Feature names for a routine key, derived from its spec."""
    _, _, spec = parse_routine(routine)
    return list(feature_layout(spec).names)


def compute_features(routine: str, dims: Dict[str, int], threads: int) -> np.ndarray:
    """Feature vector for one (problem shape, thread count) pair.

    Scalar reference implementation of the Table III features; the
    vectorised :func:`feature_matrix_grid` must stay element-for-element
    consistent with the values produced here.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    _, _, spec = parse_routine(routine)
    dims = spec.dims_from_args(**dims)
    footprint = memory_words(routine, dims)
    nt = float(threads)

    layout = feature_layout(spec)
    raw = [float(dims[d]) for d in spec.dim_names]
    # Size bases in layout order: raw dims, then left-to-right products —
    # the exact association (e.g. ``(m * k) * n``) the legacy literal
    # expressions used — then the memory footprint.
    bases = []
    for subset in layout.subsets:
        value = raw[subset[0]]
        for index in subset[1:]:
            value = value * raw[index]
        bases.append(value)
    bases.append(footprint)
    values = []
    for kind, index in layout.ops:
        if kind == "nt":
            values.append(nt)
        elif kind == "base":
            values.append(bases[index])
        else:  # "pt": the per-thread variant of base ``index``
            values.append(bases[index] / nt)
    return np.asarray(values, dtype=np.float64)


def feature_matrix_for_threads(
    routine: str, dims: Dict[str, int], threads: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Vectorised feature matrix for one shape across many thread counts.

    This is the hot path of the runtime predictor (one row per candidate
    thread count).  It is the single-shape case of
    :func:`feature_matrix_grid`, which holds the one shared definition of
    the Table III feature blocks.
    """
    return feature_matrix_grid(routine, [dims], threads)


def feature_matrix_grid(
    routine: str,
    dims_list: Sequence[Dict[str, int]],
    threads: Sequence[int] | np.ndarray,
) -> np.ndarray:
    """Vectorised feature matrix for many shapes x many thread counts.

    Returns a ``(len(dims_list) * len(threads), n_features)`` matrix laid
    out shape-major: the first ``len(threads)`` rows belong to
    ``dims_list[0]``, the next block to ``dims_list[1]``, and so on — i.e.
    the vertical stack of :func:`feature_matrix_for_threads` over the
    shapes, built without any per-shape Python work.  This is the batch
    evaluation path of the runtime predictor and of model selection.
    """
    _, _, spec = parse_routine(routine)
    if len(dims_list) == 0:
        raise ValueError("dims_list must not be empty")
    normalized = [spec.dims_from_args(**dims) for dims in dims_list]
    nt = np.asarray(threads, dtype=np.float64)
    if nt.ndim != 1 or nt.size == 0:
        raise ValueError("threads must be a non-empty 1-D sequence")
    if np.any(nt < 1):
        raise ValueError("threads must be positive")

    n_shapes, n_threads = len(normalized), nt.size
    dim_cols = {
        name: np.asarray([dims[name] for dims in normalized], dtype=np.float64)[
            :, None
        ]
        for name in spec.dim_names
    }
    footprint = spec.memory_words(dim_cols)
    raw = [dim_cols[d] for d in spec.dim_names]
    blocks = _feature_blocks(feature_layout(spec), raw, footprint, nt[None, :])
    return np.column_stack(
        [np.broadcast_to(block, (n_shapes, n_threads)).ravel() for block in blocks]
    )


def _feature_blocks(layout, raw, footprint, nt) -> list:
    """The Table III columns in ``layout`` order from the dimension columns
    ``raw``, the footprint and the thread counts ``nt`` (arrays of any
    broadcast-compatible shapes): products left to right — the association
    :func:`compute_features` uses — then each column's operation."""
    bases = []
    for subset in layout.subsets:
        column = raw[subset[0]]
        for index in subset[1:]:
            column = column * raw[index]
        bases.append(column)
    bases.append(footprint)
    blocks = []
    for kind, index in layout.ops:
        if kind == "nt":
            blocks.append(nt)
        elif kind == "base":
            blocks.append(bases[index])
        else:  # "pt": the per-thread variant of base ``index``
            blocks.append(bases[index] / nt)
    return blocks


@dataclass(frozen=True)
class ColumnProgram:
    """Compact i64/f64 encoding of a writer's column recipe for the C kernel.

    Base ``b`` is the left-to-right sum of terms ``base_offsets[b] ..
    base_offsets[b+1]``; each term multiplies ``term_coef[t]`` by the dim
    values indexed by ``term_fac[t]`` (left to right, ``-1`` padded).
    Column ``c`` is the thread count (``col_kind == 0``), base
    ``col_base[c]`` (``1``), or that base divided by the thread count
    (``2``).  The native ``feature_fill`` kernel replays exactly these
    operations in this order, so the grid it fills is bit-identical to
    :meth:`FeatureGridWriter.write` — which
    :meth:`FeatureGridWriter.column_program` verifies numerically before
    ever handing a program out.
    """

    base_offsets: np.ndarray  # int64, (n_bases + 1,)
    term_coef: np.ndarray  # float64, (n_terms,)
    term_fac: np.ndarray  # int64, (n_terms, 3), -1 padded
    col_kind: np.ndarray  # int64, (n_columns,)
    col_base: np.ndarray  # int64, (n_columns,)

    @property
    def n_bases(self) -> int:
        return int(self.base_offsets.shape[0] - 1)

    @property
    def n_columns(self) -> int:
        return int(self.col_kind.shape[0])


#: Awkward float dimension values for the bitwise program probe — chosen so
#: any reassociation of the products or footprint terms changes rounding.
#: The first ``n_dims`` columns are used; specs with more dimensions than
#: probe columns get no native program (NumPy fallback).
_PROBE_VALUES = np.array(
    [
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        [3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0],
        [12.7, 901.3, 64.1, 7.77, 513.9, 2.25, 99.01, 4.5],
        [8192.0, 1.0, 40000.0, 3.0, 17.0, 257.0, 6.0, 1025.0],
        [1e-3, 1e6, 3.1415, 2.718, 1e-2, 1e4, 0.577, 144.0],
        [641.0, 1283.0, 757.0, 389.0, 211.0, 97.0, 53.0, 29.0],
    ],
    dtype=np.float64,
)


class FeatureGridWriter:
    """Preallocated, reusable writer for the Table III feature grid.

    Built once per (routine, candidate thread counts) pair, the writer owns
    a ``(capacity_shapes, n_threads, n_columns)`` float64 buffer and fills
    it directly from dimension arrays — no per-call feature dicts, lists or
    column stacking.  Successive calls reuse (and geometrically grow) the
    same buffer, so a steady-state ``plan()`` allocates nothing beyond the
    handful of base-column temporaries.

    ``columns`` restricts the writer to a subset of the feature set (the
    compiled predictor passes the correlation filter's kept indices, so
    dropped features are never even computed).  Every written value is
    bit-identical to the corresponding entry of :func:`feature_matrix_grid`.
    """

    def __init__(
        self,
        routine: str,
        threads: Sequence[int] | np.ndarray,
        columns: Sequence[int] | np.ndarray | None = None,
    ):
        _, _, spec = parse_routine(routine)
        nt = np.asarray(threads, dtype=np.float64)
        if nt.ndim != 1 or nt.size == 0:
            raise ValueError("threads must be a non-empty 1-D sequence")
        if np.any(nt < 1):
            raise ValueError("threads must be positive")
        self.routine = routine
        self.spec = spec
        self.nt = nt
        self._layout = feature_layout(spec)
        ops = self._layout.ops
        if columns is None:
            columns = np.arange(len(ops), dtype=np.intp)
        else:
            columns = np.asarray(columns, dtype=np.intp)
            if columns.size and (
                columns.min() < 0 or columns.max() >= len(ops)
            ):
                raise ValueError(
                    f"columns out of range for the {len(ops)}-feature set"
                )
        self.columns = columns
        self._ops = [ops[c] for c in columns]
        self._capacity = 0
        self._buffer = None
        self._dims_scratch = None
        self._program_cache: object = "unset"
        self._reserve(1)

    @property
    def n_threads(self) -> int:
        return int(self.nt.size)

    @property
    def n_columns(self) -> int:
        return int(self.columns.size)

    @property
    def buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The whole ``(dims scratch, grid)`` pair — replaced, never resized
        in place, when capacity grows, so holders of raw addresses re-derive
        them exactly when an identity changes."""
        return self._dims_scratch, self._buffer

    def _reserve(self, n_shapes: int) -> None:
        if n_shapes <= self._capacity:
            return
        capacity = max(n_shapes, 2 * self._capacity, 1)
        self._buffer = np.empty(
            (capacity, self.nt.size, self.columns.size), dtype=np.float64
        )
        self._dims_scratch = np.empty(
            (capacity, self.spec.n_dims), dtype=np.float64
        )
        # The scratch as one flat float64 view: a cell store through it is a
        # third cheaper than NumPy's two-index setitem.
        self._dims_flat = memoryview(self._dims_scratch).cast("B").cast("d")
        self._capacity = capacity

    def _bases(self, dim_values: np.ndarray) -> tuple:
        spec = self.spec
        raw = [dim_values[:, j] for j in range(spec.n_dims)]
        bases = []
        for subset in self._layout.subsets:
            column = raw[subset[0]]
            for index in subset[1:]:
                column = column * raw[index]
            bases.append(column)
        bases.append(spec.memory_words(dict(zip(spec.dim_names, raw))))
        return tuple(bases)

    def write(self, dim_values: np.ndarray) -> np.ndarray:
        """Fill the grid from a ``(n_shapes, n_dims)`` dimension array.

        Returns a ``(n_shapes * n_threads, n_columns)`` view of the internal
        buffer, laid out shape-major exactly like
        :func:`feature_matrix_grid`.  The view is only valid until the next
        ``write`` call.
        """
        dim_values = np.asarray(dim_values, dtype=np.float64)
        n_shapes = dim_values.shape[0]
        if n_shapes == 0:
            raise ValueError("dim_values must hold at least one shape")
        self._reserve(n_shapes)
        grid = self._buffer[:n_shapes]
        bases = self._bases(dim_values)
        nt = self.nt
        for j, (kind, index) in enumerate(self._ops):
            if kind == "nt":
                grid[:, :, j] = nt
            elif kind == "base":
                grid[:, :, j] = bases[index][:, None]
            else:  # "pt": the per-thread variant of base ``index``
                grid[:, :, j] = bases[index][:, None] / nt
        return grid.reshape(n_shapes * nt.size, self.columns.size)

    def load_dims(self, dims_list: Sequence[Dict[str, int]]) -> np.ndarray:
        """Validate dimension dicts into the scratch array and return it.

        Dimension validation matches :func:`feature_matrix_grid`
        (``spec.dims_from_args``), so invalid shapes raise the same errors.
        The returned ``(n_shapes, n_dims)`` float64 view (valid until the
        next call) feeds either :meth:`write` or the native fused kernel.
        """
        n_shapes = len(dims_list)
        if n_shapes == 0:
            raise ValueError("dims_list must not be empty")
        if n_shapes > self._capacity:
            self._reserve(n_shapes)
        values = self._dims_scratch
        flat = self._dims_flat
        dim_names = self.spec.dim_names
        n_dims = len(dim_names)
        for i, dims in enumerate(dims_list):
            # Fast path for already-normalized dicts (exact keys, positive
            # ints) — the serving engine always sends these.  Anything else
            # takes the full dims_from_args validation for its exact errors.
            if len(dims) == n_dims:
                cell = i * n_dims
                for name in dim_names:
                    value = dims.get(name)
                    if type(value) is not int or value < 1:
                        break
                    flat[cell] = value
                    cell += 1
                else:
                    continue
            normalized = self.spec.dims_from_args(**dims)
            for j, name in enumerate(dim_names):
                values[i, j] = normalized[name]
        return values[:n_shapes]

    def write_dicts(self, dims_list: Sequence[Dict[str, int]]) -> np.ndarray:
        """Validate dimension dicts and fill the grid from them."""
        return self.write(self.load_dims(dims_list))

    def grid_view(self, n_shapes: int) -> np.ndarray:
        """Flat ``(n_shapes * n_threads, n_columns)`` view of the buffer.

        For the native fused path, which fills the grid in C:
        :meth:`load_dims` (which reserves capacity) must have been called
        with at least ``n_shapes`` shapes first.  Same lifetime rules as
        the view returned by :meth:`write`.
        """
        if n_shapes > self._capacity:
            raise ValueError(
                f"grid_view({n_shapes}) exceeds reserved capacity "
                f"{self._capacity}; call load_dims first"
            )
        return self._buffer[:n_shapes].reshape(
            n_shapes * self.nt.size, self.columns.size
        )

    def column_program(self) -> ColumnProgram | None:
        """The writer's recipe as a :class:`ColumnProgram`, or ``None``.

        ``None`` means the native fill must not be used: either the
        routine's footprint has no term encoding, or the probe below found
        the encoded program not bit-identical to :meth:`write`'s NumPy
        expressions (e.g. a future ``memory_words`` whose operation order
        the table no longer mirrors).  Memoised per writer.
        """
        if self._program_cache == "unset":
            self._program_cache = self._build_program()
        return self._program_cache

    def _build_program(self) -> ColumnProgram | None:
        footprint_terms = derive_footprint_terms(self.spec)
        if footprint_terms is None:
            return None
        base_terms = [
            ((1.0, subset),) for subset in self._layout.subsets
        ]
        base_terms.append(footprint_terms)
        # The native kernel multiplies at most three dim factors per term;
        # wider products (4+-dimension plugins, higher-order footprints)
        # have no encoding and take the NumPy path.
        for terms in base_terms:
            for _, factors in terms:
                if len(factors) > 3:
                    return None
        # The C fill accumulates the bases of one shape in a fixed array of
        # ``MAX_PROGRAM_BASES`` doubles (``MAX_BASES`` in ml/_native.py's
        # source); a wider program takes the NumPy path.
        if len(base_terms) > MAX_PROGRAM_BASES:
            return None
        offsets = [0]
        coefs: list[float] = []
        facs: list[tuple[int, int, int]] = []
        for terms in base_terms:
            for coef, factors in terms:
                coefs.append(coef)
                padded = tuple(factors) + (-1,) * (3 - len(factors))
                facs.append(padded)
            offsets.append(len(coefs))
        col_kind = []
        col_base = []
        for kind, index in self._ops:
            if kind == "nt":
                col_kind.append(0)
                col_base.append(0)
            elif kind == "base":
                col_kind.append(1)
                col_base.append(index)
            else:
                col_kind.append(2)
                col_base.append(index)
        program = ColumnProgram(
            base_offsets=np.ascontiguousarray(offsets, dtype=np.int64),
            term_coef=np.ascontiguousarray(coefs, dtype=np.float64),
            term_fac=np.ascontiguousarray(facs, dtype=np.int64).reshape(
                len(facs), 3
            ),
            col_kind=np.ascontiguousarray(col_kind, dtype=np.int64),
            col_base=np.ascontiguousarray(col_base, dtype=np.int64),
        )
        if not self._program_matches(program):
            return None
        return program

    def _program_matches(self, program: ColumnProgram) -> bool:
        """Bitwise-verify the program against :meth:`_bases`.

        Replays the term program scalar-by-scalar in the C kernel's exact
        evaluation order on awkward float dims (where any reassociation
        would change the rounding) and compares against the vectorised
        NumPy bases.
        """
        if self.spec.n_dims > _PROBE_VALUES.shape[1]:
            return False
        probe = _PROBE_VALUES[:, : self.spec.n_dims]
        expected = self._bases(probe)
        if len(expected) != program.n_bases:
            return False
        for s in range(probe.shape[0]):
            d = probe[s]
            for b in range(program.n_bases):
                acc = 0.0
                start = int(program.base_offsets[b])
                stop = int(program.base_offsets[b + 1])
                for t in range(start, stop):
                    v = float(program.term_coef[t])
                    for q in range(3):
                        fac = int(program.term_fac[t, q])
                        if fac < 0:
                            break
                        v = v * float(d[fac])
                    acc = v if t == start else acc + v
                reference = float(expected[b][s])
                if acc != reference and not (
                    np.isnan(acc) and np.isnan(reference)
                ):
                    return False
        return True


def build_feature_matrix(
    routine: str,
    dims_list: Sequence[Dict[str, int]],
    threads: Sequence[int],
) -> np.ndarray:
    """Feature matrix for aligned sequences of shapes and thread counts.

    ``threads`` may be a single integer (broadcast over all shapes) or a
    sequence aligned with ``dims_list``.  Row ``i`` is
    ``compute_features(routine, dims_list[i], threads[i])`` bit for bit,
    built in one vectorised pass: the footprint takes the integer
    dimensions, as the scalar path's does, and the products and the
    per-thread divisions take float columns in the scalar association.
    """
    if isinstance(threads, (int, np.integer)):
        threads = [int(threads)] * len(dims_list)
    if len(threads) != len(dims_list):
        raise ValueError(
            f"dims_list and threads have different lengths: "
            f"{len(dims_list)} vs {len(threads)}"
        )
    if not dims_list:
        raise ValueError("dims_list must not be empty")
    nt = np.asarray([int(t) for t in threads], dtype=np.float64)
    if np.any(nt < 1):
        raise ValueError("threads must be at least 1")
    _, _, spec = parse_routine(routine)
    normalized = [spec.dims_from_args(**dims) for dims in dims_list]
    int_cols = {
        name: np.asarray([dims[name] for dims in normalized], dtype=np.int64)
        for name in spec.dim_names
    }
    footprint = np.broadcast_to(
        np.asarray(spec.memory_words(int_cols), dtype=np.float64), nt.shape
    )
    raw = [int_cols[d].astype(np.float64) for d in spec.dim_names]
    return np.column_stack(_feature_blocks(feature_layout(spec), raw, footprint, nt))
