"""The native kernels must run without the GIL (satellite check).

The process shard backend is the headline GIL escape, but the in-process
thread backend also leans on the native kernels dropping the GIL —
``ctypes.CDLL`` foreign calls release it, ``PyDLL`` calls do not.  These
tests pin the load path (CDLL with full explicit signatures) and prove
the release dynamically — on any core count, including one — by showing
Python threads make progress *while* a long kernel call is in flight.
With the GIL held for the call's duration no test here can pass: the
counter thread would be frozen and the second caller could not even
record its start timestamp until the first call returned.  Both the bare
``stacked_descent`` kernel and the whole-span ``fused_evaluate`` chain
(feature fill → transform → descent in one foreign call) are proven.
"""

import ctypes
import threading
import time

import numpy as np
import pytest

from repro.core.features import ColumnProgram
from repro.ml import _native

kernels = _native.load_kernels()
kernel = kernels.descent if kernels is not None else None

pytestmark = pytest.mark.skipif(
    kernel is None, reason="native descent kernel unavailable (no C compiler?)"
)


def _long_call_args(depth: int, n_samples: int = 1024):
    """A synthetic self-looping one-node tree: ``depth`` iterations/row.

    Node 0 is a leaf by the FlatTree convention (feature 0 against +inf,
    children self-referential), so the kernel spins ``depth * n_samples``
    branch-free visits — a tunable-duration call with trivially correct
    output (every row lands on the leaf value).
    """
    nodes = np.zeros(1, dtype=_native.NODE_DTYPE)
    nodes["thr"] = np.inf
    nodes["value"] = 7.25
    x = np.zeros((n_samples, 1), dtype=np.float64)
    roots = np.zeros(1, dtype=np.int64)
    depths = np.full(1, depth, dtype=np.int64)
    out = np.empty((1, n_samples), dtype=np.float64)
    return x, roots, depths, nodes, out


def _calibrated_depth(target_seconds: float = 0.25) -> int:
    """A depth that makes one kernel call take roughly ``target_seconds``."""
    probe = 200_000
    x, roots, depths, nodes, out = _long_call_args(probe)
    start = time.perf_counter()
    kernel(x, roots, depths, nodes, 0, 0.0, out)
    elapsed = max(time.perf_counter() - start, 1e-4)
    return max(probe, int(probe * target_seconds / elapsed))


def _long_fused_args(depth: int, n_shapes: int = 1024):
    """Long-running ``fused_evaluate`` arguments exercising all stages.

    A one-dimension identity column program (one base = the dim itself,
    one column publishing that base), the λ=1 Yeo-Johnson fast path (an
    exact identity for the positive inputs used) with a unit affine, and
    the same synthetic self-looping one-node tree as the descent tests —
    so the fused chain runs fill → transform → descent for ``depth``
    iterations per row with trivially correct output.
    """
    program = ColumnProgram(
        base_offsets=np.array([0, 1], dtype=np.int64),
        term_coef=np.array([1.0]),
        term_fac=np.array([[0, -1, -1]], dtype=np.int64),
        col_kind=np.array([1], dtype=np.int64),
        col_base=np.array([0], dtype=np.int64),
    )
    dims = np.full((n_shapes, 1), 3.0)
    nt = np.ones(1)
    grid = np.empty((n_shapes, 1))
    lambdas = np.ones(1)
    shift = np.zeros(1)
    scale = np.ones(1)
    nodes = np.zeros(1, dtype=_native.NODE_DTYPE)
    nodes["thr"] = np.inf
    nodes["value"] = 7.25
    roots = np.zeros(1, dtype=np.int64)
    depths = np.full(1, depth, dtype=np.int64)
    out = np.empty((1, n_shapes), dtype=np.float64)
    return (
        program, dims, nt, grid, lambdas, shift, scale,
        0, roots, depths, nodes, 0.0, 0.0, out,
    )


class TestLoadPath:
    def test_loaded_via_cdll_not_pydll(self):
        """PyDLL calls hold the GIL; the kernel must not be loaded that way."""
        fn = kernel.ctypes_fn
        assert isinstance(fn, ctypes._CFuncPtr)
        assert not (type(fn)._flags_ & ctypes._FUNCFLAG_PYTHONAPI)

    def test_explicit_signature_on_every_export(self):
        """Every exported symbol declares every argtype and its restype."""
        expected_arity = {
            "descent": 10,
            "fused_transform": 7,
            "fused_evaluate": 2,  # the argument record's address and n_shapes
        }
        for name, arity in expected_arity.items():
            wrapper = getattr(kernels, name)
            if wrapper is None:  # transform probe failed on this host
                continue
            fn = wrapper.ctypes_fn
            assert isinstance(fn, ctypes._CFuncPtr), name
            assert not (type(fn)._flags_ & ctypes._FUNCFLAG_PYTHONAPI), name
            assert fn.restype is None, name
            assert fn.argtypes is not None and len(fn.argtypes) == arity, name
            assert all(argtype is not None for argtype in fn.argtypes), name

    def test_kernel_still_correct_on_synthetic_tree(self):
        x, roots, depths, nodes, out = _long_call_args(depth=64, n_samples=13)
        kernel(x, roots, depths, nodes, 0, 0.0, out)
        np.testing.assert_array_equal(out, np.full((1, 13), 7.25))


class TestGilRelease:
    def test_counter_thread_progresses_during_native_call(self):
        """A Python counter keeps running while the kernel call is in flight."""
        depth = _calibrated_depth()
        x, roots, depths, nodes, out = _long_call_args(depth)
        progress = {"count": 0}
        stop = threading.Event()

        def counter():
            while not stop.is_set():
                progress["count"] += 1

        thread = threading.Thread(target=counter, daemon=True)
        thread.start()
        try:
            time.sleep(0.05)  # let the counter reach steady state
            before = progress["count"]
            kernel(x, roots, depths, nodes, 0, 0.0, out)
            after = progress["count"]
        finally:
            stop.set()
            thread.join(timeout=10)
        # Held-GIL ctypes would freeze the counter for the whole call;
        # a released GIL timeshares it through thousands of iterations.
        assert after - before > 1000

    def test_two_native_calls_overlap_in_wall_clock(self):
        """Two threads' kernel-call intervals overlap (impossible GIL-held).

        Each thread records its own (start, end) around one long call.  If
        the foreign call held the GIL, the second thread could not execute
        the bytecode that records its start until the first call returned,
        so the intervals would be disjoint — on any number of cores.
        """
        depth = _calibrated_depth()
        barrier = threading.Barrier(2, timeout=30)
        intervals = [None, None]

        def caller(slot: int):
            x, roots, depths, nodes, out = _long_call_args(depth)
            barrier.wait()
            start = time.perf_counter()
            kernel(x, roots, depths, nodes, 0, 0.0, out)
            intervals[slot] = (start, time.perf_counter())

        threads = [
            threading.Thread(target=caller, args=(slot,)) for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(interval is not None for interval in intervals)
        (a_start, a_end), (b_start, b_end) = intervals
        overlap = min(a_end, b_end) - max(a_start, b_start)
        shortest = min(a_end - a_start, b_end - b_start)
        assert overlap > 0.25 * shortest


@pytest.mark.skipif(
    kernels is None or kernels.fused_evaluate is None,
    reason="fused evaluate kernel unavailable",
)
class TestFusedEvaluateGilRelease:
    """The end-to-end fused chain must release the GIL, not just descent."""

    def _calibrated_fused_depth(self, target_seconds: float = 0.25) -> int:
        probe = 200_000
        args = _long_fused_args(probe)
        start = time.perf_counter()
        kernels.fused_evaluate(*args)
        elapsed = max(time.perf_counter() - start, 1e-4)
        return max(probe, int(probe * target_seconds / elapsed))

    def test_fused_chain_still_correct_on_synthetic_program(self):
        args = _long_fused_args(depth=64, n_shapes=13)
        out = kernels.fused_evaluate(*args)
        grid = args[3]
        np.testing.assert_array_equal(grid, np.full((13, 1), 3.0))
        np.testing.assert_array_equal(out, np.full((1, 13), 7.25))

    def test_counter_thread_progresses_during_fused_call(self):
        depth = self._calibrated_fused_depth()
        args = _long_fused_args(depth)
        progress = {"count": 0}
        stop = threading.Event()

        def counter():
            while not stop.is_set():
                progress["count"] += 1

        thread = threading.Thread(target=counter, daemon=True)
        thread.start()
        try:
            time.sleep(0.05)
            before = progress["count"]
            kernels.fused_evaluate(*args)
            after = progress["count"]
        finally:
            stop.set()
            thread.join(timeout=10)
        assert after - before > 1000

    def test_two_fused_calls_overlap_in_wall_clock(self):
        depth = self._calibrated_fused_depth()
        barrier = threading.Barrier(2, timeout=30)
        intervals = [None, None]

        def caller(slot: int):
            args = _long_fused_args(depth)
            barrier.wait()
            start = time.perf_counter()
            kernels.fused_evaluate(*args)
            intervals[slot] = (start, time.perf_counter())

        threads = [
            threading.Thread(target=caller, args=(slot,)) for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(interval is not None for interval in intervals)
        (a_start, a_end), (b_start, b_end) = intervals
        overlap = min(a_end, b_end) - max(a_start, b_start)
        shortest = min(a_end - a_start, b_end - b_start)
        assert overlap > 0.25 * shortest
