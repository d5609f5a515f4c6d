"""Fused native evaluate: bit-identical to the NumPy fallback and the oracle.

The native module promises one end-to-end ``fused_evaluate`` chain
(feature fill → fused Yeo-Johnson + affine transform → stacked descent),
**bit-identical** to the NumPy expressions it replaces, behind one kill
switch and a first-call self-check.  Every comparison here is exact array
equality.
"""

import warnings

import numpy as np
import pytest

from repro.blas.api import ROUTINE_KEYS, parse_routine
from repro.core import compiled as compiled_mod
from repro.core.features import FeatureGridWriter
from repro.core.predictor import ThreadPredictor
from repro.ml import _native
from repro.ml.model_zoo import CANDIDATE_MODEL_NAMES, make_model
from repro.preprocessing.pipeline import FusedTransform, PreprocessingPipeline

kernels = _native.load_kernels()

pytestmark = pytest.mark.skipif(
    kernels is None or kernels.fused_evaluate is None,
    reason="fused native kernels unavailable (no C compiler, or the "
    "transform probe failed on this host)",
)

THREADS = [1, 2, 4, 8]


def _random_dims(routine, n, seed):
    _, _, spec = parse_routine(routine)
    rng = np.random.default_rng(seed)
    return [
        {name: int(rng.integers(16, 4096)) for name in spec.dim_names}
        for _ in range(n)
    ]


def _trained_predictor(routine, model_name, seed=0, n=120):
    """A ThreadPredictor fitted on synthetic runtimes for one routine."""
    rng = np.random.default_rng(seed)
    writer = FeatureGridWriter(routine, np.asarray(THREADS, dtype=np.float64))
    X = writer.write_dicts(_random_dims(routine, n, seed)).copy()
    y = rng.random(X.shape[0]) * 10
    pipeline = PreprocessingPipeline()
    Xt, yt = pipeline.fit_transform(X, y)
    model = make_model(model_name)
    model.fit(Xt, yt)
    return ThreadPredictor(
        routine, pipeline, model, THREADS, model_name=model_name
    )


def _numpy_staged(compiled, dims_list):
    """The NumPy fallback's result from the same compiled predictor."""
    predictions = compiled._predict_numpy(dims_list)
    return predictions.reshape(len(dims_list), compiled.n_candidates)


class TestFusedEquivalence:
    def test_all_routines_both_precisions(self):
        """Fused == staged NumPy == object reference, all 12 routine keys."""
        for index, routine in enumerate(ROUTINE_KEYS):
            predictor = _trained_predictor(routine, "DecisionTree", seed=index)
            compiled = predictor.compile()
            assert compiled.path == "native", routine
            dims_list = _random_dims(routine, 23, seed=500 + index)
            fused = predictor.predict_runtimes_batch(dims_list)
            assert np.array_equal(fused, _numpy_staged(compiled, dims_list))
            with compiled_mod.reference_mode():
                reference = predictor.predict_runtimes_batch(dims_list)
            assert np.array_equal(fused, reference), routine

    @pytest.mark.parametrize("model_name", CANDIDATE_MODEL_NAMES)
    def test_every_model_kind(self, model_name):
        """Every zoo model rides the fused path (mode 0/1/2) bit-identically."""
        predictor = _trained_predictor("dgemm", model_name)
        compiled = predictor.compile()
        assert (compiled.path, compiled.path_reason) == ("native", None)
        dims_list = _random_dims("dgemm", 17, seed=9)
        fused = predictor.predict_runtimes_batch(dims_list)
        assert np.array_equal(fused, _numpy_staged(compiled, dims_list))
        with compiled_mod.reference_mode():
            reference = predictor.predict_runtimes_batch(dims_list)
        assert np.array_equal(fused, reference)

    @pytest.mark.parametrize("n_shapes", [1, 2, 3, 5, 7, 8, 9, 16, 31])
    def test_tail_sizes_around_lane_boundaries(self, n_shapes):
        """Row counts straddling the 8-lane block boundary (rows = 4·shapes)."""
        predictor = _trained_predictor("ssyr2k", "RandomForest")
        compiled = predictor.compile()
        dims_list = _random_dims("ssyr2k", n_shapes, seed=n_shapes)
        fused = predictor.predict_runtimes_batch(dims_list)
        assert np.array_equal(fused, _numpy_staged(compiled, dims_list))

    def test_lambda_fast_path_columns(self):
        """Transform kernel: every special-λ dispatch branch, bit for bit.

        Covers the scalar fast paths λ∈{-1, 0, .5, 1, 1.5, 2, 3}, generic
        λ, near-special λ just outside the 1e-12 thresholds, and the
        negative-branch exponents, over matrices with mixed-sign values
        and non-multiple-of-8 row counts.
        """
        lambdas = np.array(
            [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 0.37, -0.84, 2.5,
             1e-13, 2.0 - 1e-13, 2.0 + 1e-13, -2.2]
        )
        n_cols = lambdas.size
        rng = np.random.default_rng(42)
        for n_rows in (1, 7, 8, 13, 64, 101):
            X = rng.normal(scale=3.0, size=(n_rows, n_cols))
            X[rng.random(X.shape) < 0.4] *= -1.0
            shift = rng.normal(size=n_cols)
            scale = rng.random(n_cols) + 0.5
            fused = FusedTransform(
                kept_indices=np.arange(n_cols),
                lambdas=lambdas,
                shift=shift,
                scale=scale,
            )
            expected = fused.transform_kept(X)
            got = kernels.fused_transform(X.copy(), lambdas, shift, scale)
            assert np.array_equal(got, expected)

    def test_affine_only_transform(self):
        """Plain-scaler pipelines (lambdas=None) stay bit-identical."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(13, 6)) * 100
        shift = rng.normal(size=6)
        scale = rng.random(6) + 0.25
        fused = FusedTransform(
            kept_indices=np.arange(6), lambdas=None, shift=shift, scale=scale
        )
        got = kernels.fused_transform(X.copy(), None, shift, scale)
        assert np.array_equal(got, fused.transform_kept(X))

    def test_feature_fill_all_routines(self):
        """The column-program fill matches ``write_dicts`` bit for bit.

        Driven through ``fused_evaluate`` stopped after the transform
        (mode 2) with the identity affine, which leaves the filled grid.
        """
        for index, routine in enumerate(ROUTINE_KEYS):
            writer = FeatureGridWriter(
                routine, np.asarray(THREADS, dtype=np.float64)
            )
            program = writer.column_program()
            assert program is not None, routine
            assert writer.column_program() is program  # memoised
            dims_list = _random_dims(routine, 11, seed=700 + index)
            expected = writer.write_dicts(dims_list).copy()
            dims = writer.load_dims(dims_list)
            grid = writer.grid_view(dims.shape[0])
            grid.fill(np.nan)
            n_cols = grid.shape[1]
            kernels.fused_evaluate(
                program, dims, writer.nt, grid,
                None, np.zeros(n_cols), np.ones(n_cols),
                2, None, None, None, 0.0, 0.0, None,
            )
            assert np.array_equal(grid, expected), routine


class TestKillSwitches:
    @pytest.fixture(autouse=True)
    def _restore_kernel_cache(self):
        yield
        _native._reset_kernel_cache()
        assert _native.load_kernels() is not None

    def test_master_switch_disables_everything(self, monkeypatch):
        monkeypatch.setenv("ADSALA_NATIVE", "0")
        _native._reset_kernel_cache()
        assert _native.load_kernels() is None
        predictor = _trained_predictor("strmm", "DecisionTree")
        compiled = predictor.compile()
        assert (compiled.path, compiled.path_reason) == ("numpy", "disabled")
        assert compiled._model_kernel.stack._native is None
        dims_list = _random_dims("strmm", 9, seed=1)
        disabled = predictor.predict_runtimes_batch(dims_list)
        with compiled_mod.reference_mode():
            reference = predictor.predict_runtimes_batch(dims_list)
        assert np.array_equal(disabled, reference)

    def test_failed_transform_probe_leaves_only_the_descent(self, monkeypatch):
        monkeypatch.setattr(_native, "_verify_transform", lambda kernels: False)
        _native._reset_kernel_cache()
        bundle = _native.load_kernels()
        assert bundle.descent is not None
        assert bundle.fused_transform is None and bundle.fused_evaluate is None
        predictor = _trained_predictor("dsymm", "RandomForest")
        compiled = predictor.compile()
        assert (compiled.path, compiled.path_reason) == ("numpy", "probe-failed")
        dims_list = _random_dims("dsymm", 13, seed=2)
        fallback = predictor.predict_runtimes_batch(dims_list)
        with compiled_mod.reference_mode():
            reference = predictor.predict_runtimes_batch(dims_list)
        assert np.array_equal(fallback, reference)


class TestSelfCheck:
    def test_selfcheck_clears_after_first_batch(self):
        predictor = _trained_predictor("dtrsm", "DecisionTree")
        compiled = predictor.compile()
        assert compiled._selfcheck_pending
        predictor.predict_runtimes_batch(_random_dims("dtrsm", 3, seed=3))
        assert not compiled._selfcheck_pending
        assert compiled.path == "native"  # check passed, stays on

    @pytest.mark.parametrize("model_name", ["LinearRegression", "KNN"], ids=["linear", "opaque"])
    def test_selfcheck_evaluates_a_python_finished_model_once(self, model_name):
        """Linear/opaque kernels: the check compares transformed grids, so the
        model itself runs once on the first batch, not once per side."""
        predictor = _trained_predictor("dsyrk", model_name)
        compiled = predictor.compile()
        kernel = compiled._model_kernel
        calls = []
        evaluate = kernel.evaluate
        kernel.evaluate = lambda X: calls.append(X.shape) or evaluate(X)
        dims_list = _random_dims("dsyrk", 5, seed=6)
        first = predictor.predict_runtimes_batch(dims_list)
        assert len(calls) == 1 and compiled.path == "native"
        kernel.evaluate = evaluate
        with compiled_mod.reference_mode():
            reference = predictor.predict_runtimes_batch(dims_list)
        assert np.array_equal(first, reference)

    @pytest.mark.parametrize(
        "model_name",
        ["DecisionTree", "LinearRegression", "KNN"],
        ids=["tree", "linear", "opaque"],  # the kernel kind each compiles to
    )
    def test_selfcheck_catches_divergence_and_falls_back(self, model_name):
        """A tampered flat state must trip the guard, not ship wrong plans —
        whether the check compares predictions (tree kernels) or the
        transformed grid (linear and opaque kernels)."""
        predictor = _trained_predictor("sgemm", model_name)
        compiled = predictor.compile()
        lambdas, shift, scale = compiled._flat_state
        compiled._flat_state = (lambdas, shift + 10.0, scale)
        dims_list = _random_dims("sgemm", 7, seed=4)
        with pytest.warns(RuntimeWarning, match="diverged"):
            out = predictor.predict_runtimes_batch(dims_list)
        assert (compiled.path, compiled.path_reason) == (
            "numpy", "selfcheck-failed"
        )
        with compiled_mod.reference_mode():
            reference = predictor.predict_runtimes_batch(dims_list)
        assert np.array_equal(out, reference)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # warned once, not per batch
            again = predictor.predict_runtimes_batch(dims_list)
        assert np.array_equal(again, reference)


class TestPrebuiltHandoff:
    def test_library_path_round_trip(self):
        """What the procshard parent builds is what a later load picks up."""
        path = _native.library_path()
        assert path is not None
        assert path.endswith(f"kernels_{_native._source_digest()}.so")
        _native._reset_kernel_cache()
        reloaded = _native.load_kernels()
        assert reloaded is not None
        assert reloaded.library == path
