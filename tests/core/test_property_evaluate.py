"""Generated-input differential test for the whole evaluate span.

One runtime model over one (shapes × candidate-threads) grid has exactly
three implementations — the fused native call, its NumPy fallback and the
object-graph oracle over recursive trees — and they must agree bit for
bit on *any* input, not only on hand-picked shapes.  For every routine key
of the live catalog (contrib plugins registered, so the routines without a
column program are covered) × every :class:`ModelKernel` kind, hypothesis
draws batches of shapes and asserts:

* production ``==`` fallback (a twin compiled under ``ADSALA_NATIVE=0``)
  ``==`` oracle (``reference_mode()``), ``np.array_equal``;
* row *i* of a batch ``==`` the single-shape call — exactly for the four
  tree kinds, whose descent is row-independent by construction.  The
  ``linear`` and ``opaque`` (KNN) kinds hand the transformed matrix to a
  BLAS product whose summation order depends on the row count, so a batch
  row and the single call differ by an ULP or two there; every path still
  agrees with every other path on the same batch, bit for bit;
* a twin that crossed a pickle and recompiled on its own — what a process
  shard worker serves from — ``==`` the in-process one.
"""

import os
import pickle
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compiled import compile_model_kernel, reference_mode
from repro.core.features import FeatureGridWriter
from repro.core.predictor import ThreadPredictor
from repro.ml import _native
from repro.ml.model_zoo import make_model
from repro.preprocessing.pipeline import PreprocessingPipeline
from repro.routines.catalog import build_catalog, get_catalog, reset_catalog
from repro.routines.contrib import register

THREADS = [1, 2, 3, 4, 6, 8]
MAX_DIM = 10**5

#: One zoo model per ModelKernel kind.
KIND_MODELS = {
    "tree": "DecisionTree",
    "forest-mean": "RandomForest",
    "weighted-median": "AdaBoost",
    "fold": "XGBoost",
    "linear": "LinearRegression",
    "opaque": "KNN",
}

_listing = build_catalog(plugin_dirs=[], entry_points=False)
register(_listing)
ROUTINE_KEYS = _listing.keys()


@pytest.fixture(scope="module", autouse=True)
def contrib_catalog():
    reset_catalog()
    register(get_catalog())
    yield
    reset_catalog()


@contextmanager
def _native_disabled():
    """The kill switch, round-tripped: nothing built inside binds a kernel."""
    previous = os.environ.get("ADSALA_NATIVE")
    os.environ["ADSALA_NATIVE"] = "0"
    _native._reset_kernel_cache()
    try:
        yield
    finally:
        if previous is None:
            del os.environ["ADSALA_NATIVE"]
        else:
            os.environ["ADSALA_NATIVE"] = previous
        _native._reset_kernel_cache()


def _trained_predictor(routine, model_name):
    """A predictor fitted on synthetic runtimes over the whole dims range."""
    rng = np.random.default_rng(sum(map(ord, routine + model_name)))
    n_dims = len(get_catalog().resolve(routine)[2].dim_names)
    shapes = np.exp(rng.uniform(0.0, np.log(MAX_DIM), size=(60, n_dims)))
    writer = FeatureGridWriter(routine, np.asarray(THREADS, dtype=np.float64))
    X = writer.write(np.floor(shapes)).copy()
    y = rng.random(X.shape[0]) * 10
    pipeline = PreprocessingPipeline()
    Xt, yt = pipeline.fit_transform(X, y)
    model = make_model(model_name).fit(Xt, yt)
    return ThreadPredictor(routine, pipeline, model, THREADS, model_name=model_name)


@pytest.fixture(scope="module")
def cases():
    """Lazily built ``(production, fallback, worker)`` predictors per case."""
    built = {}

    def case(routine, kind):
        if (routine, kind) not in built:
            production = _trained_predictor(routine, KIND_MODELS[kind])
            assert compile_model_kernel(production.model).kind == kind
            kernels = _native.load_kernels()
            if kernels is not None and kernels.fused_evaluate is not None:
                program = FeatureGridWriter(routine, THREADS).column_program()
                assert production.compile().path_reason == (
                    None if program is not None else "no-column-program"
                )
            # A pickled twin carries no compiled kernel and no tree stack:
            # both are rebuilt under the kill switch and stay NumPy.
            fallback = pickle.loads(pickle.dumps(production))
            with _native_disabled():
                assert fallback.compile().path_reason == "disabled"
            # The same twin left to compile normally is a process worker's
            # predictor: it takes whichever path production took.
            worker = pickle.loads(pickle.dumps(production))
            assert worker.compile().path == production.compile().path
            built[routine, kind] = (production, fallback, worker)
        return built[routine, kind]

    return case


shapes = st.lists(
    st.tuples(*[st.integers(1, MAX_DIM)] * 3), min_size=1, max_size=12
)
picks = st.lists(st.integers(0, 11), min_size=1, max_size=40)


@pytest.mark.parametrize("kind", list(KIND_MODELS))
@pytest.mark.parametrize("routine", ROUTINE_KEYS)
@given(shapes=shapes, picks=picks)
@settings(max_examples=5, deadline=None)
def test_three_paths_agree(cases, routine, kind, shapes, picks):
    production, fallback, worker = cases(routine, kind)
    dim_names = get_catalog().resolve(routine)[2].dim_names
    pool = [dict(zip(dim_names, shape)) for shape in shapes]
    batch = [pool[pick % len(pool)] for pick in picks]  # duplicates included

    served = production.predict_runtimes_batch(batch)
    assert served.shape == (len(batch), len(THREADS))
    assert np.array_equal(served, fallback.predict_runtimes_batch(batch))
    with reference_mode():
        assert np.array_equal(served, production.predict_runtimes_batch(batch))
    for row, dims in zip(served, batch):
        single = production.predict_runtimes(dims)
        if kind in ("linear", "opaque"):
            assert np.allclose(row, single, rtol=1e-12, atol=1e-12)
        else:
            assert np.array_equal(row, single)

    assert np.array_equal(served, worker.predict_runtimes_batch(batch))
