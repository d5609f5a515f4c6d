"""Analytic cost model for multi-threaded BLAS Level 3 calls.

The model decomposes the wall-clock time of one call into the same three
components the paper measures with VTune (Table VIII):

``total = kernel + copy + sync (+ other)``

* **kernel** — floating-point work, limited by per-core peak throughput,
  the achievable parallelism (how many output tiles exist), SMT yield,
  Amdahl's law and the memory-bandwidth roofline;
* **copy** — packing of operand panels into per-thread buffers, limited by
  copy bandwidth that saturates with the memory channels and grows with the
  number of pack buffers;
* **sync** — fork/join and barrier costs that grow super-linearly with the
  thread count and pay an extra penalty once threads span both sockets;
* **other** — small per-call bookkeeping (dispatch, page faults).

Every coefficient is taken from the :class:`~repro.machine.topology.MachineTopology`
and its per-routine :class:`~repro.machine.topology.RoutineEfficiency`
profile, so the same code models both Setonix and Gadi.

The scalar ``kernel_time``/``copy_time``/``sync_time``/``other_time``
methods are the one reference implementation.  The batch path
(``breakdown_batch``/``time_batch``) evaluates the same arithmetic over
arrays through a :class:`RoutineTiming` context that binds one routine key
to the platform once — every lookup and constant resolved at build time,
every shared sub-expression computed once per call — and is re-checked
against the catalog on every call, so it is never served stale.

The model is *not* meant to predict absolute runtimes of the real machines;
it is meant to reproduce the qualitative structure that makes ADSALA's
thread-count prediction worthwhile: non-monotone runtime in the thread
count, overhead-dominated small/skinny problems and compute-dominated large
problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.blas.api import RoutineSpec, parse_routine, precision_bytes
from repro.machine.topology import MachineTopology
from repro.routines.spec import tiling_schema

__all__ = [
    "CostBreakdown",
    "CostBreakdownBatch",
    "PerformanceModel",
    "RoutineTiming",
    "normalize_batch_inputs",
    "MODEL_TILE",
    "MODEL_KC",
]


#: Output-tile edge used to estimate the available task parallelism.
MODEL_TILE = 128
#: k-panel depth used to estimate the number of synchronisation episodes.
MODEL_KC = 256


def _pow065(x):
    """``x ** 0.65`` through the NumPy ufunc for scalars and arrays alike.

    NumPy's vectorised ``power`` loop and libm's ``pow`` can disagree by one
    ulp; routing the scalar path through the same ufunc keeps the scalar and
    batch cost models bit-identical.
    """
    return np.power(np.asarray(x, dtype=np.float64), 0.65)


@dataclass(frozen=True)
class CostBreakdown:
    """Per-component wall-clock times (seconds) of one simulated call."""

    kernel: float
    copy: float
    sync: float
    other: float

    @property
    def total(self) -> float:
        return self.kernel + self.copy + self.sync + self.other

    def scaled(self, factor: float) -> "CostBreakdown":
        """Return a breakdown with every component multiplied by ``factor``."""
        return CostBreakdown(
            kernel=self.kernel * factor,
            copy=self.copy * factor,
            sync=self.sync * factor,
            other=self.other * factor,
        )


@dataclass(frozen=True)
class CostBreakdownBatch:
    """Vectorised counterpart of :class:`CostBreakdown`.

    Every component is a ``(n_rows,)`` float array; row ``i`` holds the same
    values the scalar :meth:`PerformanceModel.breakdown` /
    :meth:`repro.machine.simulator.TimingSimulator.breakdown` call would
    produce for the ``i``-th (dims, threads) configuration.
    """

    kernel: np.ndarray
    copy: np.ndarray
    sync: np.ndarray
    other: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.kernel + self.copy + self.sync + self.other

    def __len__(self) -> int:
        return self.kernel.shape[0]

    def row(self, i: int) -> CostBreakdown:
        """The scalar breakdown of one row."""
        return CostBreakdown(
            kernel=float(self.kernel[i]),
            copy=float(self.copy[i]),
            sync=float(self.sync[i]),
            other=float(self.other[i]),
        )


def normalize_batch_inputs(
    spec: RoutineSpec,
    dims: Mapping[str, object] | Sequence[Dict[str, int]],
    threads,
    max_threads: int | None = None,
) -> Tuple[Dict[str, np.ndarray], np.ndarray, int]:
    """Validate and broadcast batch timing inputs to aligned int64 arrays.

    ``dims`` is either a mapping ``{dim_name: array_like}`` (scalars are
    broadcast) or a sequence of per-row dimension dicts; ``threads`` is a
    scalar or a 1-D array.  Every array must have length 1 (broadcast) or the
    common batch length.  Returns ``(dim_arrays, threads_array, n_rows)``.
    """
    if isinstance(dims, Mapping):
        missing = [d for d in spec.dim_names if d not in dims]
        if missing:
            raise ValueError(f"{spec.name} missing dimensions: {missing}")
        extra = [d for d in dims if d not in spec.dim_names]
        if extra:
            raise ValueError(f"{spec.name} got unexpected dimensions: {extra}")
        arrays = {
            name: np.atleast_1d(np.asarray(dims[name], dtype=np.int64))
            for name in spec.dim_names
        }
    else:
        rows = [spec.dims_from_args(**row) for row in dims]
        if not rows:
            raise ValueError("dims must not be empty")
        arrays = {
            name: np.asarray([row[name] for row in rows], dtype=np.int64)
            for name in spec.dim_names
        }
    threads_arr = np.atleast_1d(np.asarray(threads, dtype=np.int64))

    lengths = {a.shape[0] for a in arrays.values()} | {threads_arr.shape[0]}
    lengths.discard(1)
    if len(lengths) > 1:
        raise ValueError(f"Mismatched batch lengths: {sorted(lengths)}")
    n = lengths.pop() if lengths else 1

    def _broadcast(a: np.ndarray) -> np.ndarray:
        if a.ndim != 1:
            raise ValueError("batch inputs must be scalars or 1-D arrays")
        return np.broadcast_to(a, (n,)) if a.shape[0] == 1 and n > 1 else a

    arrays = {name: _broadcast(a) for name, a in arrays.items()}
    threads_arr = _broadcast(threads_arr)

    for name, a in arrays.items():
        if (a < 1).any():
            raise ValueError(f"Dimension {name} must be positive")
    if (threads_arr < 1).any():
        raise ValueError("threads must be at least 1")
    if max_threads is not None and (threads_arr > max_threads).any():
        raise ValueError(
            f"threads exceed the platform maximum ({max_threads})"
        )
    return arrays, threads_arr, n


class ContextCache(dict):
    """Per-routine contexts kept by a model or simulator.

    They hold catalog specs and plugin callables, so a copy or a pickle of
    the owner starts with an empty cache and rebuilds lazily.
    """

    def __reduce__(self):
        return (ContextCache, ())


class RoutineTiming:
    """One routine key bound to one platform, for the batch cost model.

    Everything a batch call needs that does not depend on its problem
    shapes is resolved here once: prefix/base/spec, efficiency profile, item
    size, tiling schema, rate and L3 constants, and every sub-expression of
    the thread count alone, tabulated over ``0..max_threads``.
    :meth:`components` then evaluates all four cost components in one pass
    that gathers the thread terms and computes each shared sub-expression
    (bytes moved, output grid, panel depth) once.  It mirrors the scalar
    ``PerformanceModel.*_time`` methods operation for operation (same
    association order, same ufuncs), so row ``i`` reproduces the scalar
    reference exactly; tests/machine/test_batch_timing.py and
    test_property_timing.py assert it.
    """

    def __init__(self, platform: MachineTopology, routine: str):
        self.platform = platform
        self.prefix, self.base, self.spec = parse_routine(routine)
        self.profile = platform.routine_profile(self.base)
        self.itemsize = precision_bytes(self.prefix)
        self.tile_dims, self.triangular, self.panel_dim = tiling_schema(self.spec)
        peak_per_core = platform.peak_gflops_per_core * 1e9
        if self.prefix == "s":
            peak_per_core *= 2.0  # twice the SIMD lanes in single precision
        self.rate_per_core = peak_per_core * self.profile.kernel_efficiency
        cache_group = max(1, platform.cores_per_cache_group)
        self.l3_words = platform.l3_cache_mb_per_group * 1e6 / self.itemsize / cache_group
        self.max_threads = platform.max_threads
        self.per_core_bandwidth = platform.copy_bandwidth_gbs_per_core * 1e9
        # The thread-count-only terms, by the very ufuncs a call would run on
        # its thread array: one gather per call replaces some twenty of them.
        # Rows are named where :meth:`components` unpacks them.
        t = np.arange(self.max_threads + 1)
        busy_cores = np.minimum(t, platform.physical_cores)
        smt_extra = np.maximum(0, t - platform.physical_cores)
        sqrt_t = np.sqrt(t)
        per_socket_threads = platform.cores_per_socket * platform.smt
        socket_penalty = np.where(t > per_socket_threads, platform.cross_socket_sync_penalty, 1.0)
        bandwidth_cap = platform.total_memory_bandwidth_gbs * 1e9 * 0.85
        self.thread_terms = np.array([
            np.minimum(busy_cores * self.per_core_bandwidth, bandwidth_cap),
            busy_cores + self.profile.smt_yield * smt_extra,
            0.15 * sqrt_t + 0.1 * np.log2(t + 1),
            socket_penalty,
            platform.sync_cost_per_thread * _pow065(t) * socket_penalty,
            platform.fork_cost_per_thread * sqrt_t,
            6e-5 + 2e-6 * sqrt_t,
        ])

    def normalize(self, dims, threads) -> Tuple[Dict[str, np.ndarray], np.ndarray, int]:
        """:func:`normalize_batch_inputs` against this routine and platform."""
        return normalize_batch_inputs(self.spec, dims, threads, self.max_threads)

    def components(
        self, dims: Dict[str, np.ndarray], threads: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Noise-free ``(kernel, copy, sync, other)`` of validated inputs."""
        platform, profile = self.platform, self.profile
        (
            bandwidth, core_capacity, replication, socket_penalty,
            barrier_cost, fork_cost, other_floor,
        ) = self.thread_terms[:, threads]
        bytes_moved = self.spec.memory_words(dims) * self.itemsize
        stream_time = bytes_moved / bandwidth
        panel_depth = dims[self.panel_dim]
        max_tasks = np.ceil(dims[self.tile_dims[0]] / MODEL_TILE)
        if self.triangular:
            max_tasks = max_tasks * (max_tasks + 1) / 2
        for name in self.tile_dims[1:]:
            max_tasks = max_tasks * np.ceil(dims[name] / MODEL_TILE)

        # kernel
        flops = self.spec.flops(dims)
        workers = np.minimum(core_capacity, max_tasks)
        saturation = profile.saturation_threads
        saturation_penalty = 1.0
        if math.isfinite(saturation):
            over = threads > saturation
            if over.any():
                capped = np.minimum(workers, saturation + 0.3 * (workers - saturation))
                workers = np.where(over, capped, workers)
                penalty = 1.0 + profile.oversaturation_penalty * np.log2(threads / saturation)
                saturation_penalty = np.where(over, penalty, 1.0)
        # Validated dims and threads are >= 1, hence max_tasks >= 1: the scalar
        # path's max(1, .) and zero-task guards are moot here.
        concurrent = np.minimum(threads, max_tasks.astype(np.int64))
        imbalance = np.ceil(max_tasks / concurrent) * concurrent / max_tasks
        cache_penalty = np.where(MODEL_TILE * panel_depth > self.l3_words, 1.15, 1.0)
        serial_time = flops * (1.0 - profile.parallel_fraction) / self.rate_per_core
        parallel_time = (
            flops
            * profile.parallel_fraction
            / (self.rate_per_core * np.maximum(workers, 1e-9))
            * imbalance
            * cache_penalty
            * saturation_penalty
        )
        kernel = serial_time + np.maximum(parallel_time, stream_time)

        # copy
        pack_time = np.minimum(bytes_moved, 4.0e6) / self.per_core_bandwidth * replication
        copy = profile.copy_factor * (stream_time + pack_time)

        # sync
        n_barriers = np.minimum(6.0, 1.0 + panel_depth / (4.0 * MODEL_KC))
        oversubscription = (
            platform.sync_cost_per_thread
            * 3.0
            * _pow065(np.maximum(0.0, threads - max_tasks))
            * socket_penalty
        )
        sync = profile.sync_factor * (n_barriers * barrier_cost + oversubscription + fork_cost)

        other = other_floor + bytes_moved / 80e9
        return kernel, copy, sync, other


class PerformanceModel:
    """Analytic copy/sync/kernel model for one machine."""

    def __init__(self, platform: MachineTopology):
        platform.validate()
        self.platform = platform
        self._contexts = ContextCache()

    # -- helpers ---------------------------------------------------------------
    @staticmethod
    def _output_grid(spec: RoutineSpec, dims: Dict[str, int]) -> float:
        """Number of independent output tiles the routine exposes.

        Derived from the spec's operand table via
        :func:`repro.routines.spec.tiling_schema`: the product of tile
        counts over the output dimensions, or the triangular count when the
        output is a symmetric square (SYRK/SYR2K).
        """
        tile_dims, triangular, _ = tiling_schema(spec)
        if triangular:
            n_tiles = math.ceil(dims[tile_dims[0]] / MODEL_TILE)
            return float(n_tiles * (n_tiles + 1) / 2)
        tiles = math.ceil(dims[tile_dims[0]] / MODEL_TILE)
        for name in tile_dims[1:]:
            tiles = tiles * math.ceil(dims[name] / MODEL_TILE)
        return float(tiles)

    @staticmethod
    def _panel_depth(spec: RoutineSpec, dims: Dict[str, int]) -> int:
        """Length of the accumulation dimension (drives barrier count)."""
        _, _, panel_dim = tiling_schema(spec)
        return dims[panel_dim]

    def _spans_sockets(self, threads: int) -> bool:
        per_socket_threads = self.platform.cores_per_socket * self.platform.smt
        return threads > per_socket_threads

    # -- components -------------------------------------------------------------
    def kernel_time(self, routine: str, dims: Dict[str, int], threads: int) -> float:
        prefix, base, spec = parse_routine(routine)
        profile = self.platform.routine_profile(base)
        flops = float(spec.flops(dims))
        itemsize = precision_bytes(prefix)

        peak_per_core = self.platform.peak_gflops_per_core * 1e9
        if prefix == "s":
            peak_per_core *= 2.0  # twice the SIMD lanes in single precision
        rate_per_core = peak_per_core * profile.kernel_efficiency

        physical = self.platform.physical_cores
        busy_cores = min(threads, physical)
        smt_extra = max(0, threads - physical)
        core_capacity = busy_cores + profile.smt_yield * smt_extra

        # Parallelism actually available in the tiled algorithm.
        max_tasks = self._output_grid(spec, dims)
        workers = min(core_capacity, max_tasks)

        # Baseline-library scaling saturation: beyond `saturation_threads`
        # the implementation's partitioning stops improving and extra
        # threads only add contention.
        saturation = profile.saturation_threads
        saturation_penalty = 1.0
        if threads > saturation:
            workers = min(workers, saturation + 0.3 * (workers - saturation))
            saturation_penalty = 1.0 + profile.oversaturation_penalty * math.log2(
                threads / saturation
            )

        # Load imbalance: tasks are executed in waves of `min(threads, tasks)`.
        concurrent = max(1, min(threads, int(max_tasks)))
        waves = math.ceil(max_tasks / concurrent)
        imbalance = waves * concurrent / max_tasks if max_tasks > 0 else 1.0

        # Cache pressure: once the per-task panel working set exceeds the L3
        # slice shared by a cache group, the effective rate drops.
        panel_words = MODEL_TILE * self._panel_depth(spec, dims)
        l3_words = (
            self.platform.l3_cache_mb_per_group
            * 1e6
            / itemsize
            / max(1, self.platform.cores_per_cache_group)
        )
        cache_penalty = 1.15 if panel_words > l3_words else 1.0

        serial_fraction = 1.0 - profile.parallel_fraction
        serial_time = flops * serial_fraction / rate_per_core
        parallel_time = (
            flops
            * profile.parallel_fraction
            / (rate_per_core * max(workers, 1e-9))
            * imbalance
            * cache_penalty
            * saturation_penalty
        )

        # Roofline: kernel streaming traffic cannot exceed memory bandwidth.
        bytes_streamed = float(spec.memory_words(dims)) * itemsize
        bandwidth = self._aggregate_bandwidth(threads)
        bandwidth_time = bytes_streamed / bandwidth

        return serial_time + max(parallel_time, bandwidth_time)

    def _aggregate_bandwidth(self, threads: int) -> float:
        """Memory bandwidth (bytes/s) reachable by ``threads`` active threads."""
        physical = min(threads, self.platform.physical_cores)
        per_core = self.platform.copy_bandwidth_gbs_per_core * 1e9
        cap = self.platform.total_memory_bandwidth_gbs * 1e9 * 0.85
        return min(physical * per_core, cap)

    def copy_time(self, routine: str, dims: Dict[str, int], threads: int) -> float:
        prefix, base, spec = parse_routine(routine)
        profile = self.platform.routine_profile(base)
        itemsize = precision_bytes(prefix)
        bytes_moved = float(spec.memory_words(dims)) * itemsize

        # Shared streaming of the operands into pack buffers.
        stream_time = bytes_moved / self._aggregate_bandwidth(threads)

        # Per-thread pack-buffer population: every worker allocates and
        # first-touches its own pack buffer (capped at a few MB).  The
        # aggregate copy cost grows sub-linearly with the thread count
        # (buffers are filled concurrently but contend for bandwidth and
        # remote NUMA pages) — this is the "Data Copy" component of the
        # paper's Table VIII, which shrinks by ~2x when the ML-selected
        # thread count replaces the maximum.
        buffer_bytes = min(bytes_moved, 4.0e6)
        per_core_bw = self.platform.copy_bandwidth_gbs_per_core * 1e9
        replication = 0.15 * math.sqrt(threads) + 0.1 * math.log2(threads + 1)
        pack_time = buffer_bytes / per_core_bw * replication

        return profile.copy_factor * (stream_time + pack_time)

    def sync_time(self, routine: str, dims: Dict[str, int], threads: int) -> float:
        _, base, spec = parse_routine(routine)
        profile = self.platform.routine_profile(base)

        # A BLAS call synchronises its worker team a handful of times (team
        # wake-up, per-panel barriers, final join); the count grows with the
        # accumulation depth but saturates — vendor BLAS fuses panels into a
        # single parallel region rather than re-synchronising per k-block.
        n_barriers = min(6.0, 1.0 + self._panel_depth(spec, dims) / (4.0 * MODEL_KC))
        socket_penalty = (
            self.platform.cross_socket_sync_penalty if self._spans_sockets(threads) else 1.0
        )
        # Barrier latency grows sub-linearly with the team size (tree
        # barriers / hierarchical wake-up), so oversubscribing never costs
        # the pathological factor-of-threads the naive model would predict —
        # real MKL/BLIS stay within a small factor of optimal even when the
        # thread count is far too high (paper Table VIII: 2-3x, not 50x).
        team_scale = float(_pow065(threads))
        barrier_cost = self.platform.sync_cost_per_thread * team_scale * socket_penalty

        # Oversubscription: threads beyond the available tile parallelism
        # spin at the barrier while the useful work finishes.
        max_tasks = self._output_grid(spec, dims)
        idle_threads = max(0.0, threads - max_tasks)
        oversubscription = (
            self.platform.sync_cost_per_thread
            * 3.0
            * float(_pow065(idle_threads))
            * socket_penalty
        )

        fork_cost = self.platform.fork_cost_per_thread * math.sqrt(threads)
        return profile.sync_factor * (
            n_barriers * barrier_cost + oversubscription + fork_cost
        )

    def other_time(self, routine: str, dims: Dict[str, int], threads: int) -> float:
        prefix, _, spec = parse_routine(routine)
        itemsize = precision_bytes(prefix)
        bytes_moved = float(spec.memory_words(dims)) * itemsize
        # Library dispatch + first-touch page faults.  The constant floor is
        # paid regardless of the thread count, which is what keeps the
        # speedup on the very smallest problems bounded (paper Table VII:
        # maxima around 3-12x rather than orders of magnitude).
        return 6e-5 + 2e-6 * math.sqrt(threads) + bytes_moved / 80e9

    # -- vectorised batch path ---------------------------------------------------
    def context(self, routine: str) -> RoutineTiming:
        """The routine's cached batch context.

        One catalog lookup per call keeps it honest: when the key now
        resolves to another spec object (``reset_catalog()``, a re-registered
        plugin) the context is rebuilt instead of served stale.
        """
        context = self._contexts.get(routine)
        if context is None or context.spec is not parse_routine(routine)[2]:
            context = self._contexts[routine] = RoutineTiming(self.platform, routine)
        return context

    def breakdown_batch(
        self,
        routine: str,
        dims: Mapping[str, object] | Sequence[Dict[str, int]],
        threads,
    ) -> CostBreakdownBatch:
        """Noise-free per-component costs of many calls in one array pass.

        ``dims``/``threads`` follow :func:`normalize_batch_inputs`: aligned
        arrays, with scalars broadcast over the batch.
        """
        context = self.context(routine)
        dim_arrays, threads_arr, _ = context.normalize(dims, threads)
        return CostBreakdownBatch(*context.components(dim_arrays, threads_arr))

    def time_batch(
        self,
        routine: str,
        dims: Mapping[str, object] | Sequence[Dict[str, int]],
        threads,
    ) -> np.ndarray:
        """Noise-free total runtimes (seconds) of many calls."""
        return self.breakdown_batch(routine, dims, threads).total

    # -- public API ---------------------------------------------------------------
    def breakdown(self, routine: str, dims: Dict[str, int], threads: int) -> CostBreakdown:
        """Noise-free per-component cost of one call."""
        if threads < 1:
            raise ValueError("threads must be at least 1")
        if threads > self.platform.max_threads:
            raise ValueError(
                f"threads={threads} exceeds the platform maximum "
                f"({self.platform.max_threads})"
            )
        _, _, spec = parse_routine(routine)
        dims = spec.dims_from_args(**dims)
        return CostBreakdown(
            kernel=self.kernel_time(routine, dims, threads),
            copy=self.copy_time(routine, dims, threads),
            sync=self.sync_time(routine, dims, threads),
            other=self.other_time(routine, dims, threads),
        )

    def time(self, routine: str, dims: Dict[str, int], threads: int) -> float:
        """Noise-free total runtime of one call (seconds)."""
        return self.breakdown(routine, dims, threads).total
