"""Generated-input differential suite for the fused native evaluate call.

The C call does each piece of work once — a column is transformed only where
its input varies and copied elsewhere, AdaBoost's weighted median is taken
inside the call, the arguments travel as one record — and every one of those
shortcuts must be invisible in the bits:

* **transform by kind** — for generated column layouts (any subset and order
  of a routine's feature columns, so any mix of kinds 0 / 1 / 2), λ vectors
  over every dispatch branch, 1–40 shapes and 1–96 thread counts, the grid the
  native call leaves is byte-equal to
  ``FusedTransform.transform_kept(writer.write_dicts(...))``;
* **weighted median** — for generated leaf matrices and weights (forced ties,
  a tie in one row only, all-equal rows, NaN and signed-zero leaves, 1 / 2 /
  30 / 300 trees) a predictor over synthetic trees that reproduce the matrix
  returns ``boosting.weighted_median`` bit for bit, and the rows it hands to
  NumPy (``median_tie_rows``, the call's ``n_tied``) are exactly the rows
  whose leaves have no unique order;
* **whole span** — for all six model-kernel kinds ``predict_runtimes_batch``
  equals the ``reference_mode()`` oracle;
* **bound nt table and positive blocks** — one bound record answers a
  generated sequence of batches (1 shape and many, a batch that makes the
  writer replace its buffers and the record re-point, the first call that
  fills the record's transformed ``nt`` columns and the warmed calls that copy
  them) byte-equal to NumPy on every exponent branch, and the whole-column
  transform of generated matrices — eight-row blocks of non-negative inputs,
  and blocks holding a negative, a signed zero or a NaN — equals NumPy's.

The first two and the last drive the native kernel and are skipped without one — except
under ``ADSALA_NATIVE_REQUIRE=1`` (CI's native leg), where a missing kernel
fails them instead.  The third runs on whichever path the process has, so
under ``ADSALA_NATIVE=0`` it holds the NumPy fallback to the oracle.
"""

import functools
import os
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.blas.api import parse_routine
from repro.core.compiled import CompiledPredictor, reference_mode
from repro.core.features import FeatureGridWriter
from repro.core.predictor import ThreadPredictor
from repro.ml import _native
from repro.ml.boosting import AdaBoostRegressor, weighted_median
from repro.ml.model_zoo import make_model
from repro.ml.tree import FlatTree
from repro.preprocessing.pipeline import FusedTransform, PreprocessingPipeline

kernels = _native.load_kernels()
NATIVE = kernels is not None and kernels.fused_evaluate is not None
REQUIRED = os.environ.get("ADSALA_NATIVE_REQUIRE") == "1"

needs_native = pytest.mark.skipif(
    not NATIVE and not REQUIRED, reason="fused native kernels unavailable"
)

#: Every λ dispatch branch: fast paths, their 2-λ mirrors, both log1p
#: thresholds (exact and within 1e-12), just outside them, and generic pow.
LAMBDAS = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 1e-13, 2.0 - 1e-13, 2.0 + 1e-11, 0.37, -2.2]


def test_required_native_kernel_is_loaded():
    """Under ``ADSALA_NATIVE_REQUIRE=1`` nothing below may run on NumPy."""
    assert NATIVE or not REQUIRED


# -- (i) transform by column kind ------------------------------------------------
@st.composite
def layouts(draw):
    routine = draw(st.sampled_from(["dsymm", "dgemm"]))  # two and three dims
    n_features = FeatureGridWriter(routine, [1.0]).n_columns
    columns = draw(
        st.lists(st.integers(0, n_features - 1), min_size=1, max_size=n_features, unique=True)
    )
    lambdas = draw(
        st.none() | st.lists(st.sampled_from(LAMBDAS), min_size=len(columns), max_size=len(columns))
    )
    n_dims = len(parse_routine(routine)[2].dim_names)
    shapes = draw(
        st.lists(st.tuples(*[st.integers(1, 10**5)] * n_dims), min_size=1, max_size=40)
    )
    return routine, columns, lambdas, draw(st.integers(1, 96)), shapes, draw(st.integers(0, 2**16))


@needs_native
@given(layout=layouts())
@settings(max_examples=40, deadline=None)
def test_by_kind_transform_is_byte_equal_to_numpy(layout):
    routine, columns, lambdas, n_threads, shapes, seed = layout
    writer = FeatureGridWriter(routine, np.arange(1.0, n_threads + 1), columns=columns)
    program = writer.column_program()
    assert program is not None
    rng = np.random.default_rng(seed)
    n_cols = len(columns)
    shift, scale = rng.normal(size=n_cols), rng.random(n_cols) + 0.5
    lambdas = None if lambdas is None else np.asarray(lambdas)
    names = writer.spec.dim_names
    dims_list = [dict(zip(names, shape)) for shape in shapes]
    fused = FusedTransform(
        kept_indices=np.arange(n_cols), lambdas=lambdas, shift=shift, scale=scale
    )
    expected = fused.transform_kept(writer.write_dicts(dims_list))
    dims = writer.load_dims(dims_list).copy()
    grid = np.full(expected.shape, np.nan)
    kernels.fused_evaluate(
        program, dims, writer.nt, grid, lambdas, shift, scale,
        2, None, None, None, 0.0, 0.0, None,
    )  # fmt: skip
    assert grid.tobytes() == expected.tobytes(), (program.col_kind, lambdas)


# -- (ii) weighted median ---------------------------------------------------------
ROUTINE = "dsymm"
NT_COLUMN = len(parse_routine(ROUTINE)[2].dim_names)  # the ``nt`` feature's index


def _chain_tree(leaves: np.ndarray) -> FlatTree:
    """A tree over the thread-count feature: a row with ``nt == r + 1``
    lands on ``leaves[r]`` (a right-leaning chain of ``nt <= r + 1.5``)."""
    n_rows = leaves.shape[0]
    n_nodes = 2 * n_rows - 1
    feature = np.full(n_nodes, -1, dtype=np.intp)
    threshold = np.zeros(n_nodes)
    left = np.full(n_nodes, -1, dtype=np.intp)
    right = np.full(n_nodes, -1, dtype=np.intp)
    value = np.zeros(n_nodes)
    inner = np.arange(n_rows - 1)
    feature[inner] = 0
    threshold[inner] = inner + 1.5
    left[inner] = n_rows - 1 + inner
    right[inner] = np.where(inner < n_rows - 2, inner + 1, n_nodes - 1)
    value[n_rows - 1 :] = leaves
    return FlatTree(feature, threshold, left, right, value, n_rows - 1)


def _median_predictor(leaves: np.ndarray, weights: np.ndarray) -> CompiledPredictor:
    """A predictor whose per-tree leaf matrix over one shape's candidate
    rows is ``leaves`` (``(n_rows, n_trees)``): the grid is the untouched
    thread-count column, the ensemble one chain tree per matrix column."""
    model = AdaBoostRegressor()
    model.estimators_ = [types.SimpleNamespace(flat_tree_=_chain_tree(col)) for col in leaves.T]
    model.estimator_weights_ = weights
    identity = FusedTransform(
        kept_indices=np.array([NT_COLUMN]), lambdas=None, shift=np.zeros(1), scale=np.ones(1)
    )
    pipeline = types.SimpleNamespace(compile=lambda: identity)
    return CompiledPredictor(ROUTINE, pipeline, model, range(1, leaves.shape[0] + 1))


def _leaf_matrix(rng, n_rows, n_trees, ties):
    leaves = rng.normal(size=(n_rows, n_trees))
    row = int(rng.integers(n_rows))
    pair = rng.choice(n_trees, size=2, replace=n_trees < 2)
    if ties == "forced":  # a small value set: ties in most rows
        leaves = rng.integers(0, max(2, n_trees // 2), size=(n_rows, n_trees)).astype(float)
    elif ties == "one-row":
        leaves[row, pair[0]] = leaves[row, pair[1]]
    elif ties == "all-equal-rows":
        leaves[rng.random(n_rows) < 0.5] = 1.25
        leaves[row] = -3.0
    elif ties == "nan":
        leaves[row, pair[0]] = np.nan
    elif ties == "signed-zero":
        leaves[row, pair] = 0.0, -0.0
    return leaves


def _tied_rows(leaves: np.ndarray) -> np.ndarray:
    """Rows with a NaN or two equal leaves (``-0.0 == 0.0``): no unique order."""
    ordered = np.sort(leaves, axis=1)
    return np.isnan(leaves).any(axis=1) | (np.diff(ordered, axis=1) == 0).any(axis=1)


@needs_native
@given(
    n_rows=st.integers(1, 24),
    n_trees=st.sampled_from([1, 2, 30, 300]),
    ties=st.sampled_from(["none", "forced", "one-row", "all-equal-rows", "nan", "signed-zero"]),
    weights_kind=st.sampled_from(["random", "equal", "with-zeros"]),
    n_shapes=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@example(n_rows=96, n_trees=30, ties="one-row", weights_kind="random", n_shapes=2, seed=1)
@example(n_rows=7, n_trees=300, ties="none", weights_kind="random", n_shapes=1, seed=2)
@example(n_rows=1, n_trees=1, ties="none", weights_kind="with-zeros", n_shapes=1, seed=3)
@settings(max_examples=40, deadline=None)
def test_native_median_equals_numpy_and_counts_tied_rows(
    n_rows, n_trees, ties, weights_kind, n_shapes, seed
):
    rng = np.random.default_rng(seed)
    if n_trees == 1:
        ties = "none"  # one leaf per row is always uniquely ordered
    leaves = _leaf_matrix(rng, n_rows, n_trees, ties)
    weights = np.ones(n_trees) if weights_kind == "equal" else rng.random(n_trees) + 0.01
    if weights_kind == "with-zeros":
        weights[rng.random(n_trees) < 0.5] = 0.0
    compiled = _median_predictor(leaves, weights)
    assert (compiled.path, compiled._native_mode) == ("native", 3)
    if ties == "nan":
        # The first-call self-check compares with ``==`` and a NaN prediction
        # never equals itself; everything below compares bytes instead.
        compiled._selfcheck_pending = False
    dims = {name: 64 for name in compiled._writer.spec.dim_names}
    expected = weighted_median(leaves, weights)
    n_tied = int(_tied_rows(leaves).sum())
    if ties in ("none", "one-row"):
        assert n_tied == (ties == "one-row")
    for calls in (1, 2):  # the first call is also self-checked against NumPy
        got = compiled.predict_runtimes_batch([dims] * n_shapes)
        assert got.tobytes() == np.tile(expected, n_shapes).tobytes()
        assert compiled._fused_call.n_tied == n_shapes * n_tied
        assert compiled.median_tie_rows == calls * n_shapes * n_tied
    # C marked exactly the tied rows, and took every other median itself.
    flagged = np.isnan(compiled._median[: n_shapes * n_rows])
    assert np.array_equal(flagged, np.tile(_tied_rows(leaves), n_shapes))
    assert compiled.path == "native"


# -- (iii) the whole span, every kernel kind ---------------------------------------
KIND_MODELS = {
    "tree": "DecisionTree",
    "forest-mean": "RandomForest",
    "weighted-median": "AdaBoost",
    "fold": "XGBoost",
    "linear": "LinearRegression",
    "opaque": "KNN",
}
THREADS = [1, 2, 3, 4, 6, 8, 12]


@functools.cache
def _trained(kind):
    rng = np.random.default_rng(len(kind))
    writer = FeatureGridWriter("dtrsm", np.asarray(THREADS, dtype=np.float64))
    shapes = np.floor(np.exp(rng.uniform(0.0, np.log(10**5), size=(40, 2))))
    X = writer.write(shapes).copy()
    pipeline = PreprocessingPipeline()
    Xt, yt = pipeline.fit_transform(X, rng.random(X.shape[0]) * 10)
    return pipeline, make_model(KIND_MODELS[kind]).fit(Xt, yt)


@pytest.mark.parametrize("kind", list(KIND_MODELS))
@given(shapes=st.lists(st.tuples(*[st.integers(1, 10**5)] * 2), min_size=1, max_size=40))
@settings(max_examples=5, deadline=None)
def test_every_kernel_kind_equals_the_oracle(kind, shapes):
    predictor = ThreadPredictor("dtrsm", *_trained(kind), THREADS)
    compiled = predictor.compile()
    assert compiled._model_kernel.kind == kind
    assert compiled.path == ("native" if NATIVE else "numpy")
    dims_list = [dict(zip(compiled._writer.spec.dim_names, shape)) for shape in shapes]
    got = predictor.predict_runtimes_batch(dims_list)
    again = predictor.predict_runtimes_batch(dims_list)  # past the self-check
    with reference_mode():
        oracle = predictor.predict_runtimes_batch(dims_list)
    assert got.tobytes() == oracle.tobytes() == again.tobytes()
    assert compiled.path == ("native" if NATIVE else "numpy")


# -- (iv) the bound nt table and the positive-block transform ------------------------
def _numpy_transform(X, lambdas, shift, scale):
    from repro.preprocessing.power import yeo_johnson_transform_matrix

    if lambdas is not None:
        X = yeo_johnson_transform_matrix(X, lambdas)
    return (X - shift) / scale


@needs_native
@given(
    lambdas=st.none() | st.lists(st.sampled_from(LAMBDAS), min_size=17, max_size=17),
    n_threads=st.sampled_from([1, 7, 8, 24, 96]),
    batches=st.lists(st.integers(1, 40), min_size=2, max_size=6),
    seed=st.integers(0, 2**16),
)
@example(lambdas=[0.37] * 17, n_threads=96, batches=[1, 1, 5, 40, 1], seed=0)
@example(lambdas=LAMBDAS + LAMBDAS[:5], n_threads=24, batches=[3, 1, 17], seed=1)
@settings(max_examples=30, deadline=None)
def test_one_bound_record_answers_every_batch_like_numpy(lambdas, n_threads, batches, seed):
    """Fresh record, warmed record, re-pointed record: the same bits."""
    rng = np.random.default_rng(seed)
    nt = np.arange(1.0, n_threads + 1)
    writer = FeatureGridWriter("dgemm", nt)  # every column: kinds 0, 1 and 2
    oracle = FeatureGridWriter("dgemm", nt)
    program = writer.column_program()
    assert set(program.col_kind.tolist()) == {0, 1, 2}
    lambdas = None if lambdas is None else np.asarray(lambdas)
    n_cols = program.col_kind.shape[0]
    shift, scale = rng.normal(size=n_cols), rng.random(n_cols) + 0.5
    bound = kernels.fused_evaluate.bind(
        program, nt, lambdas, shift, scale, 2, None, None, None, 0.0, 0.0
    )
    for n_shapes in batches:
        shapes = rng.integers(1, 10**5, size=(n_shapes, 3))
        dims_list = [dict(zip(writer.spec.dim_names, map(int, shape))) for shape in shapes]
        writer.load_dims(dims_list)
        dims, grid = writer.buffers
        if grid is not bound.buffers[1]:  # a larger batch replaced the buffers
            bound.point(dims, grid, None)
        grid.fill(np.nan)
        bound(n_shapes)
        expected = _numpy_transform(oracle.write_dicts(dims_list), lambdas, shift, scale)
        assert writer.grid_view(n_shapes).tobytes() == expected.tobytes()
    assert bound.record.nt_bound == 1


@needs_native
@given(
    n_rows=st.integers(1, 40),
    odd=st.lists(st.sampled_from([-3.5, -0.25, -0.0, 0.0, np.nan]), max_size=6),
    seed=st.integers(0, 2**16),
)
@example(n_rows=16, odd=[], seed=0)  # two full non-negative blocks per column
@example(n_rows=16, odd=[np.nan], seed=1)
@example(n_rows=8, odd=[-0.25], seed=2)
@settings(max_examples=60, deadline=None)
def test_whole_column_transform_blocks_equal_numpy(n_rows, odd, seed):
    """Every λ branch over eight-row blocks, non-negative or holding an odd
    input; a NaN cell must stay NaN, every other cell is compared bytewise."""
    rng = np.random.default_rng(seed)
    lambdas = np.asarray(LAMBDAS)
    X = np.exp(rng.uniform(-3.0, 12.0, size=(n_rows, lambdas.shape[0])))
    for value in odd:
        X[rng.integers(n_rows), rng.integers(lambdas.shape[0])] = value
    shift = rng.normal(size=lambdas.shape[0])
    scale = rng.random(lambdas.shape[0]) + 0.5
    for lam in (lambdas, None):
        expected = _numpy_transform(X, lam, shift, scale)
        got = kernels.fused_transform(X.copy(), lam, shift, scale)
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expected[~nan].tobytes()
