"""The plan's tie rule: the middle of the run of tied minima, native == NumPy.

``repro.core.compiled.middle_of_ties`` is the rule and its oracle: per row
of a score matrix, the lower median of the columns whose score equals the
row minimum exactly; a row with one minimum keeps ``np.argmin``'s column.
The native pick (``middle_of_ties`` in ``repro.ml._native``, run inside the
fused call or as the bound ``pick``) must choose the same column on every
row; the generated batches reach it the way a predictor's finished scores
do, through ``CompiledPredictor._pick_native``.  The oracle half of this
file runs under ``ADSALA_NATIVE=0`` too.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import compiled as compiled_mod
from repro.core.compiled import middle_of_ties
from repro.core.features import FeatureGridWriter
from repro.core.predictor import ThreadPredictor
from repro.ml import _native
from repro.ml.model_zoo import make_model
from repro.preprocessing.pipeline import PreprocessingPipeline

needs_native = pytest.mark.skipif(
    _native.load_kernels() is None, reason="native kernels unavailable"
)


@st.composite
def planted_ties(draw):
    """A finite row, one run of ``width`` equal minima planted at any
    positions (signed zeros among them), and the expected column: the
    run's lower median."""
    n_cols = draw(st.integers(1, 96))
    width = draw(st.integers(1, n_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    row = rng.uniform(0.5, 5.0, n_cols)
    if n_cols > width + 1:  # a tie above the minimum must not matter
        row[rng.choice(n_cols, 2, replace=False)] = row.max()
    positions = np.sort(rng.choice(n_cols, width, replace=False))
    if draw(st.booleans()):
        row[positions] = rng.choice([0.0, -0.0], width)
    else:
        row[positions] = -rng.uniform(0.0, 9.0)
    return row, int(positions[(width - 1) // 2])


@given(planted_ties())
@example((np.array([3.0, 1.0, 1.0, 1.0, 1.0, 2.0]), 2))
@example((np.array([1.0, 1.0]), 0))
@example((np.array([7.0]), 0))
@settings(max_examples=200, deadline=None)
def test_a_planted_tie_picks_its_lower_median(planted):
    row, expected = planted
    assert middle_of_ties(row[None, :]).tolist() == [expected]  # the one-row form
    batch = np.stack([np.arange(row.size, 0.0, -1.0), row])  # the batch form
    assert middle_of_ties(batch).tolist() == [row.size - 1, expected]


@given(
    n_rows=st.integers(1, 16),
    n_cols=st.integers(1, 96),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_untied_rows_are_argmin(n_rows, n_cols, seed):
    scores = np.random.default_rng(seed).permutation(n_rows * n_cols).reshape(n_rows, n_cols)
    scores = scores.astype(np.float64) * 0.25 - 7.0
    argmins = scores.argmin(axis=1).tolist()
    assert middle_of_ties(scores).tolist() == argmins
    assert [middle_of_ties(row[None, :]).item() for row in scores] == argmins


def test_a_nan_row_keeps_argmins_first_nan():
    scores = np.array([[2.0, np.nan, 1.0, 1.0, np.nan], [np.nan, 0.0, 0.0, 0.0, 3.0]])
    assert middle_of_ties(scores).tolist() == scores.argmin(axis=1).tolist() == [1, 0]
    for row, expected in (([2.0, np.nan, 1.0, 1.0, np.nan], 1), ([np.nan, np.nan, np.nan], 0)):
        single = np.array([row])
        assert middle_of_ties(single).tolist() == single.argmin(axis=1).tolist() == [expected]


#: Few distinct values (both zeros among them), so most rows tie somewhere.
FEW_VALUES = st.sampled_from([-0.0, 0.0, -1.5, 2.0, 1e-300, -1e300])


@needs_native
@given(
    n_rows=st.integers(1, 64),
    n_cols=st.integers(1, 96),
    values=st.sampled_from(["few", "all-equal", "spread"]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_native_pick_is_the_oracle(n_rows, n_cols, values, seed, data):
    rng = np.random.default_rng(seed)
    if values == "few":
        pool = np.array(data.draw(st.lists(FEW_VALUES, min_size=1, max_size=4)))
        scores = pool[rng.integers(0, pool.size, (n_rows, n_cols))]
    elif values == "all-equal":
        scores = np.full((n_rows, n_cols), data.draw(FEW_VALUES))
        if scores[0, 0] == 0.0:  # and equal across signs
            scores = np.copysign(scores, rng.choice([-1.0, 1.0], scores.shape))
    else:
        scores = rng.standard_normal((n_rows, n_cols))
    assert _native_pick(scores) == middle_of_ties(scores).tolist()


@needs_native
def test_native_pick_keeps_argmins_first_nan():
    scores = np.array([[2.0, np.nan, 1.0, 1.0, np.nan], [np.nan, 0.0, 0.0, 0.0, 3.0]])
    assert _native_pick(scores) == [1, 0]


@functools.lru_cache(maxsize=None)
def _linear_compiled(n_cols):
    """A bound linear predictor over ``n_cols`` thread counts with room for
    64 shapes: the bound pick of a model Python finishes."""
    pipeline, model = _linear_fit()
    predictor = ThreadPredictor("dgemm", pipeline, model, range(1, n_cols + 1), target="log")
    predictor.choose_batch([{"m": 64 + i, "k": 64, "n": 64} for i in range(64)])
    compiled = predictor.compile()
    assert compiled.path == "native"
    return compiled


@functools.lru_cache(maxsize=None)
def _linear_fit():
    rng = np.random.default_rng(0)
    dims_list = [dict(zip("mkn", map(int, row))) for row in rng.integers(16, 4096, (30, 3))]
    writer = FeatureGridWriter("dgemm", np.asarray(THREADS, dtype=np.float64))
    X = writer.write_dicts(dims_list).copy()
    y = rng.standard_normal(X.shape[0])
    pipeline = PreprocessingPipeline()
    Xt, yt = pipeline.fit_transform(X, y)
    return pipeline, make_model("LinearRegression").fit(Xt, yt)


def _native_pick(scores):
    """The production native pick over a generated score matrix."""
    n_rows, n_cols = scores.shape
    compiled = _linear_compiled(n_cols)
    compiled._pick_native(np.ravel(scores), n_rows)
    return compiled._choice[:n_rows].tolist()


def _flat_predictor(model_name, seed=0):
    """A predictor whose runtimes depend on the shape alone, so its trees
    are flat over the thread counts and most rows tie."""
    rng = np.random.default_rng(seed)
    dims_list = [dict(zip("mkn", map(int, row))) for row in rng.integers(16, 4096, (60, 3))]
    writer = FeatureGridWriter("dgemm", np.asarray(THREADS, dtype=np.float64))
    X = writer.write_dicts(dims_list).copy()
    y = np.repeat(np.log([d["m"] * d["k"] * d["n"] for d in dims_list]), len(THREADS))
    pipeline = PreprocessingPipeline()
    Xt, yt = pipeline.fit_transform(X, y)
    model = make_model(model_name).fit(Xt, yt)
    predictor = ThreadPredictor("dgemm", pipeline, model, THREADS, target="log")
    return predictor, dims_list[:17]


THREADS = [1, 2, 3, 4, 6, 8, 12, 16]
KINDS = ["DecisionTree", "RandomForest", "AdaBoost", "XGBoost", "LinearRegression"]


@pytest.mark.parametrize("model_name", KINDS)
def test_every_kernel_kind_plans_the_oracles_pick(model_name):
    """In-call pick (tree, fold, median), bound pick after Python (forest
    mean, linear): the planned columns are the oracle's, self-check and
    steady state alike, on whichever path the host serves."""
    predictor, dims_list = _flat_predictor(model_name)
    for _ in range(2):  # the first call is self-checked
        scores, choices = predictor.choose_batch(dims_list)
        assert choices == middle_of_ties(scores).tolist()
        with compiled_mod.reference_mode():
            oracle_scores, oracle_choices = predictor.choose_batch(dims_list)
        assert np.array_equal(scores, oracle_scores) and choices == oracle_choices
    if model_name != "LinearRegression":  # the trees tie: not argmin's columns
        assert choices != scores.argmin(axis=1).tolist()
    if _native.load_kernels() is not None:
        assert predictor.compile().path == "native"


@needs_native
def test_the_self_check_compares_the_choices(monkeypatch):
    """A native pick that disagrees with the oracle drops the predictor to
    NumPy at its first call, and the plans stay the oracle's."""
    predictor, dims_list = _flat_predictor("DecisionTree")
    compiled = predictor.compile()
    call = _native.BoundEvaluate.__call__

    def wrong_pick(bound, n_shapes):
        call(bound, n_shapes)
        compiled._choice[:n_shapes] = 0

    monkeypatch.setattr(_native.BoundEvaluate, "__call__", wrong_pick)
    with pytest.warns(RuntimeWarning, match="diverged"):
        scores, choices = predictor.choose_batch(dims_list)
    assert (compiled.path, compiled.path_reason) == ("numpy", "selfcheck-failed")
    assert choices == middle_of_ties(scores).tolist() != [0] * len(dims_list)
