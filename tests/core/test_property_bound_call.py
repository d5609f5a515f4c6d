"""Pointer-lifetime and aliasing suite for the bound native call.

A compiled predictor casts the constant arguments of ``fused_evaluate`` once
into one argument record (:class:`repro.ml._native.BoundEvaluate`) and
re-casts the per-call buffers (dims, grid, output, AdaBoost's median) only
when the feature writer replaced them.  Holding raw addresses
across calls is safe only if nothing they point at can move, die or leak out:

* across generated sequences of batch sizes that force the writer to
  reallocate between calls, every call ``==`` the ``reference_mode()`` oracle,
  for every :class:`ModelKernel` kind;
* a returned array is owned — scribbling on it changes no later result;
* dropping every outside reference to the bound arrays and collecting
  garbage leaves them alive and the results unchanged;
* a served predictor still deep-copies, a served bundle still pickles, the
  copy recompiles on its own, and no ctypes object can reach a pickle.
"""

import copy
import functools
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.blas.api import parse_routine
from repro.core.compiled import CompiledPredictor, reference_mode
from repro.core.features import FeatureGridWriter
from repro.core.predictor import ThreadPredictor
from repro.ml import _native
from repro.ml.model_zoo import make_model
from repro.preprocessing.pipeline import PreprocessingPipeline

kernels = _native.load_kernels()

pytestmark = pytest.mark.skipif(
    kernels is None or kernels.fused_evaluate is None,
    reason="fused native kernels unavailable",
)

ROUTINE = "dsyr2k"
THREADS = [1, 2, 4, 8]

#: One zoo model per ModelKernel kind.
KIND_MODELS = {
    "tree": "DecisionTree",
    "forest-mean": "RandomForest",
    "weighted-median": "AdaBoost",
    "fold": "XGBoost",
    "linear": "LinearRegression",
    "opaque": "KNN",
}


def _shapes(n, seed):
    rng = np.random.default_rng(seed)
    names = parse_routine(ROUTINE)[2].dim_names
    return [{name: int(rng.integers(16, 4096)) for name in names} for _ in range(n)]


POOL = _shapes(700, seed=21)


@functools.cache
def _trained(kind):
    """``(pipeline, model)`` fitted on synthetic runtimes, one per kind."""
    rng = np.random.default_rng(len(kind))
    writer = FeatureGridWriter(ROUTINE, np.asarray(THREADS, dtype=np.float64))
    X = writer.write_dicts(_shapes(80, seed=5)).copy()
    pipeline = PreprocessingPipeline()
    Xt, yt = pipeline.fit_transform(X, rng.random(X.shape[0]) * 10)
    return pipeline, make_model(KIND_MODELS[kind]).fit(Xt, yt)


def _fresh_predictor(kind):
    """A predictor whose writer starts at capacity one, so batch-size
    sequences reallocate from scratch in every example."""
    predictor = ThreadPredictor(ROUTINE, *_trained(kind), THREADS)
    compiled = predictor.compile()
    assert (compiled.path, compiled._model_kernel.kind) == ("native", kind)
    return predictor


@functools.cache
def _oracle(kind, n_shapes):
    predictor = ThreadPredictor(ROUTINE, *_trained(kind), THREADS)
    with reference_mode():
        return predictor.predict_runtimes_batch(POOL[:n_shapes])


@pytest.mark.parametrize("kind", list(KIND_MODELS))
@given(
    sizes=st.lists(
        st.sampled_from([1, 2, 3, 9, 33, 64, 130, 300, 700]), min_size=2, max_size=6
    )
)
@example(sizes=[1, 300, 1, 700, 2])
@settings(max_examples=4, deadline=None)
def test_every_call_equals_the_oracle_across_reallocations(kind, sizes):
    predictor = _fresh_predictor(kind)
    compiled = predictor.compile()
    for n_shapes in sizes:
        grid_before = compiled._writer.buffers[1]
        got = predictor.predict_runtimes_batch(POOL[:n_shapes])
        assert (got == _oracle(kind, n_shapes)).all(), (kind, sizes, n_shapes)
        grew = compiled._writer.buffers[1] is not grid_before
        assert grew == (n_shapes > grid_before.shape[0])
        # The bound call follows the writer: it holds the live buffers.
        assert compiled._fused_call.buffers[1] is compiled._writer.buffers[1]
    assert compiled.path == "native"


@pytest.mark.parametrize("kind", list(KIND_MODELS))
def test_returned_arrays_are_owned(kind):
    """No view of a reused buffer escapes either public entry point."""
    predictor = _fresh_predictor(kind)
    compiled = predictor.compile()
    batch = POOL[:9]
    expected = predictor.predict_runtimes_batch(batch).copy()
    for entry in (predictor, compiled):
        first = entry.predict_runtimes_batch(batch)
        first[:] = np.nan
        single = entry.predict_runtimes(batch[0])
        single[:] = -1.0
        again = entry.predict_runtimes_batch(batch)
        assert (again == expected).all()
        for buffer in (compiled._out, compiled._median, *compiled._writer.buffers):
            if buffer is not None:
                assert not np.shares_memory(again, buffer)


@pytest.mark.parametrize("kind", list(KIND_MODELS))
def test_bound_arrays_outlive_every_outside_reference(kind):
    pipeline, model = copy.deepcopy(_trained(kind))
    compiled = CompiledPredictor(ROUTINE, pipeline, model, THREADS)
    batch = POOL[:17]
    expected = compiled.predict_runtimes_batch(batch).copy()
    bound = compiled._fused_call
    held = [weakref.ref(array) for array in bound._keep[1:] if array is not None]
    assert held
    # Drop the predictor's own handles on what C reads, then the inputs.
    compiled._flat_state = compiled._program = None
    compiled._fused = compiled._model_kernel.stack = None
    del pipeline, model
    gc.collect()
    churn = [np.full(4096, np.nan) for _ in range(64)]  # reuse any freed block
    assert all(ref() is not None for ref in held)
    if compiled._native_mode != 2:  # linear/opaque finish in the dropped model
        assert (compiled.predict_runtimes_batch(batch) == expected).all()
    else:
        grid = compiled._transform_fused(batch)
        assert np.isfinite(grid).all()
    del churn


def test_served_predictors_still_copy_and_pickle(small_bundle):
    bundle = copy.deepcopy(small_bundle)
    for routine in bundle.installed_routines:
        predictor = bundle.predictor(routine)
        dims = {name: 96 for name in parse_routine(routine)[2].dim_names}
        served = predictor.predict_runtimes(dims)
        compiled = predictor.compile()
        assert compiled.path == "native" and compiled._fused_call.buffers[1] is not None
        # The bound call itself can never be serialised ...
        with pytest.raises((TypeError, ValueError, pickle.PicklingError)):
            pickle.dumps(compiled._fused_call)
        # ... and never has to be: copies drop the kernel and rebuild it.
        twin = copy.deepcopy(predictor)
        assert twin._compiled is None and predictor._compiled is compiled
        assert twin.compile()._fused_call is not compiled._fused_call
        assert (twin.predict_runtimes(dims) == served).all()
    blob = pickle.dumps(bundle)
    assert b"ctypes" not in blob
    reloaded = pickle.loads(blob)
    for routine in bundle.installed_routines:
        dims = {name: 96 for name in parse_routine(routine)[2].dim_names}
        assert reloaded.predictor(routine)._compiled is None
        assert (
            reloaded.predictor(routine).predict_runtimes(dims)
            == bundle.predictor(routine).predict_runtimes(dims)
        ).all()
