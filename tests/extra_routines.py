"""Five routines beyond the BLAS-12, for tests that register them.

Each is a plain :func:`~repro.routines.spec.make_routine_spec` value with an
analytic ``cost_model``, and together they cover what the built-ins do not:

* ``gemm_batch`` — ``b`` independent m x m @ m x n products; the batch
  dimension is sampled, featured and counted in the footprint like a
  matrix dimension, and threads past ``b`` idle;
* ``tbtrs`` / ``tptrs`` — banded and packed triangular solves against ``r``
  right-hand sides, whose useful thread count saturates at ``r``;
* ``spmv`` — CSR sparse matrix-vector product, memory-bound, with ``nnz``
  as a sampled dimension;
* ``fft2d`` — a 2-D complex FFT whose FLOPs formula is not a monomial.

Tests add them to a catalog with :func:`register`, which is
``catalog.register_spec`` once per spec.
"""

from __future__ import annotations

import numpy as np

from repro.routines import make_routine_spec

#: Fraction of per-core peak a small kernel reaches, as a function of m.
_EFFICIENCY_KNEE = 48.0
#: Fork/join cost per extra thread per batched call (seconds).
_LAUNCH_SECONDS = 2e-6
#: Per-column-block synchronisation cost (seconds) of the n-sweep.
_SWEEP_SYNC_SECONDS = 4e-7
#: Threads at which the memory system is ~63% saturated.
_SATURATION_THREADS = 6.0
#: Per-thread reduction/team overhead (seconds).
_TEAM_SECONDS = 1.5e-6
#: Transpose/exchange cost factor per thread pair (seconds per word).
_EXCHANGE_SECONDS_PER_WORD = 2.5e-11


def _gemm_batch_cost(platform, precision, dims, threads):
    """``b`` independent m x m @ m x n products, round-robin over threads."""
    b = np.asarray(dims["b"], dtype=np.float64)
    m = np.asarray(dims["m"], dtype=np.float64)
    n = np.asarray(dims["n"], dtype=np.float64)
    t = np.asarray(threads, dtype=np.float64)
    width = 2.0 if precision == "s" else 1.0
    itemsize = 4.0 if precision == "s" else 8.0
    peak = platform.peak_gflops_per_core * 1e9 * width
    efficiency = m / (m + _EFFICIENCY_KNEE)
    per_item = 2.0 * m * m * n / (peak * efficiency)
    kernel = np.ceil(b / t) * per_item
    bytes_moved = b * (m * m + 2.0 * m * n) * itemsize
    bandwidth = platform.total_memory_bandwidth_gbs * 1e9
    traffic = bytes_moved / (bandwidth * t / (t + 4.0))
    return kernel + traffic + _LAUNCH_SECONDS * t


def _substitution_cost(flops, rhs, n, platform, precision, threads):
    """Parallel over ``rhs``, sequential along ``n``."""
    t = np.asarray(threads, dtype=np.float64)
    width = 2.0 if precision == "s" else 1.0
    peak = platform.peak_gflops_per_core * 1e9 * width
    useful = np.minimum(t, rhs)
    kernel = flops / (peak * 0.25 * useful)
    sync = _SWEEP_SYNC_SECONDS * np.sqrt(n) * t
    return kernel + sync


def _tbtrs_cost(platform, precision, dims, threads):
    n = np.asarray(dims["n"], dtype=np.float64)
    kd = np.asarray(dims["kd"], dtype=np.float64)
    r = np.asarray(dims["r"], dtype=np.float64)
    flops = 2.0 * n * kd * r
    return _substitution_cost(flops, r, n, platform, precision, threads)


def _tptrs_cost(platform, precision, dims, threads):
    n = np.asarray(dims["n"], dtype=np.float64)
    r = np.asarray(dims["r"], dtype=np.float64)
    flops = n * n * r
    return _substitution_cost(flops, r, n, platform, precision, threads)


def _spmv_cost(platform, precision, dims, threads):
    """CSR streams values + int32 column indices once, x with ~50% reuse."""
    n = np.asarray(dims["n"], dtype=np.float64)
    nnz = np.asarray(dims["nnz"], dtype=np.float64)
    t = np.asarray(threads, dtype=np.float64)
    itemsize = 4.0 if precision == "s" else 8.0
    bytes_moved = nnz * (itemsize + 4.0) + n * itemsize * 1.5
    bandwidth = platform.total_memory_bandwidth_gbs * 1e9
    saturation = t / (t + _SATURATION_THREADS)
    return bytes_moved / (bandwidth * saturation) + _TEAM_SECONDS * t


def _fft2d_cost(platform, precision, dims, threads):
    """Latency-bound butterflies plus an all-to-all transpose."""
    m = np.asarray(dims["m"], dtype=np.float64)
    n = np.asarray(dims["n"], dtype=np.float64)
    t = np.asarray(threads, dtype=np.float64)
    width = 2.0 if precision == "s" else 1.0
    peak = platform.peak_gflops_per_core * 1e9 * width
    points = m * n
    flops = 5.0 * points * np.log2(np.maximum(points, 2.0))
    kernel = flops / (peak * 0.35 * t)
    exchange = _EXCHANGE_SECONDS_PER_WORD * points * np.log2(t + 1.0)
    return kernel + exchange


EXTRA_SPECS = (
    make_routine_spec(
        "gemm_batch",
        ("b", "m", "n"),
        [
            ("A", ("b", "m", "m"), "regular"),
            ("B", ("b", "m", "n"), "regular"),
            ("C", ("b", "m", "n"), "regular"),
        ],
        flops=lambda d: 2.0 * d["b"] * d["m"] * d["m"] * d["n"],
        cost_model=_gemm_batch_cost,
        dim_ranges={"b": (4, 4096), "m": (4, 256), "n": (4, 256)},
    ),
    make_routine_spec(
        "tbtrs",
        ("n", "kd", "r"),
        [
            ("A", ("kd", "n"), "triangular"),
            ("B", ("n", "r"), "regular"),
            ("X", ("n", "r"), "regular"),
        ],
        flops=lambda d: 2.0 * d["n"] * d["kd"] * d["r"],
        cost_model=_tbtrs_cost,
        dim_ranges={"n": (64, 16384), "kd": (1, 512), "r": (1, 1024)},
    ),
    make_routine_spec(
        "tptrs",
        ("n", "r"),
        [
            ("A", ("0.5", "n", "n"), "triangular"),
            ("B", ("n", "r"), "regular"),
            ("X", ("n", "r"), "regular"),
        ],
        flops=lambda d: 1.0 * d["n"] * d["n"] * d["r"],
        cost_model=_tptrs_cost,
        dim_ranges={"n": (64, 8192), "r": (1, 1024)},
    ),
    make_routine_spec(
        "spmv",
        ("n", "nnz"),
        [
            ("values", ("nnz", "1"), "regular"),
            ("colind", ("nnz", "1"), "regular"),
            ("x", ("n", "1"), "regular"),
            ("y", ("n", "1"), "regular"),
        ],
        flops=lambda d: 2.0 * d["nnz"],
        cost_model=_spmv_cost,
        dim_ranges={"n": (1024, 4194304), "nnz": (4096, 67108864)},
    ),
    make_routine_spec(
        "fft2d",
        ("m", "n"),
        [
            ("input", ("2", "m", "n"), "regular"),
            ("output", ("2", "m", "n"), "regular"),
        ],
        flops=lambda d: 5.0 * d["m"] * d["n"] * np.log2(
            np.maximum(np.asarray(d["m"], dtype=np.float64) * d["n"], 2.0)
        ),
        cost_model=_fft2d_cost,
        dim_ranges={"m": (64, 16384), "n": (64, 16384)},
    ),
)

#: Double-precision keys of :data:`EXTRA_SPECS`, in registration order.
EXTRA_KEYS = ["d" + spec.name for spec in EXTRA_SPECS]


def register(catalog) -> None:
    """Add every spec of :data:`EXTRA_SPECS` to ``catalog``."""
    for spec in EXTRA_SPECS:
        catalog.register_spec(spec, plugin_name="test-extra-routines", plugin_version="1")
