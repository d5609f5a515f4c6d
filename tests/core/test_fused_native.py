"""Fused native evaluate: bit-identical to the NumPy fallback and the oracle.

The native module promises one end-to-end ``fused_evaluate`` chain
(feature fill → fused Yeo-Johnson + affine transform → stacked descent),
**bit-identical** to the NumPy expressions it replaces, behind one kill
switch and a first-call self-check.  Every comparison here is exact array
equality.
"""

import ctypes
import pickle
import time
import types
import warnings

import numpy as np
import pytest

from repro.blas.api import ROUTINE_KEYS, parse_routine
from repro.core import compiled as compiled_mod
from repro.core.features import ColumnProgram, FeatureGridWriter
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


    def test_load_probe_covers_the_by_kind_grouping(self):
        """The probe runs what production calls: one wrong bit in a cell the
        by-kind pass *copied* (the last shape's last row of an ``nt`` column)
        fails it, though the whole-column pass is untouched."""
        real = _native.load_kernels()
        assert _native._verify_transform(real)

        def off_by_an_ulp(program, dims, nt, grid, *rest):
            real.fused_evaluate(program, dims, nt, grid, *rest)
            column = int(np.flatnonzero(program.col_kind == 0)[-1])
            grid[-1, column] = np.nextafter(grid[-1, column], np.inf)

        wrong = types.SimpleNamespace(
            fused_transform=real.fused_transform, fused_evaluate=off_by_an_ulp
        )
        assert not _native._verify_transform(wrong)

    def test_too_many_bases_for_the_kernel_take_the_numpy_path(self, monkeypatch):
        """``FeatureGridWriter`` hands out no program the C fill's fixed
        accumulator array could not hold (here: the limit lowered under
        dgemm's eight bases)."""
        monkeypatch.setattr("repro.core.features.MAX_PROGRAM_BASES", 7)
        predictor = _trained_predictor("dgemm", "DecisionTree")
        compiled = predictor.compile()
        assert (compiled.path, compiled.path_reason) == ("numpy", "no-column-program")
        dims_list = _random_dims("dgemm", 5, seed=8)
        with compiled_mod.reference_mode():
            reference = predictor.predict_runtimes_batch(dims_list)
        assert np.array_equal(predictor.predict_runtimes_batch(dims_list), reference)


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
        transformed grid (linear and opaque kernels).  The C side reads the
        addresses taken at bind time, so the tamper is followed by the bind
        step ``_configure_native`` itself runs."""
        predictor = _trained_predictor("sgemm", model_name)
        compiled = predictor.compile()
        lambdas, shift, scale = compiled._flat_state
        compiled._flat_state = (lambdas, shift + 10.0, scale)
        compiled._bind_fused()
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


#: One zoo model per ModelKernel kind.
KIND_MODELS = {
    "tree": "DecisionTree",
    "forest-mean": "RandomForest",
    "weighted-median": "AdaBoost",
    "fold": "XGBoost",
    "linear": "LinearRegression",
    "opaque": "KNN",
}


def _bind_arguments(**replaced):
    """A valid ``fused_evaluate.bind`` argument list for a one-column grid,
    with any argument (program fields included) replaced by keyword."""
    program = {
        "base_offsets": np.array([0, 1], dtype=np.int64),
        "term_coef": np.array([1.0]),
        "term_fac": np.array([[0, -1, -1]], dtype=np.int64),
        "col_kind": np.array([1], dtype=np.int64),
        "col_base": np.array([0], dtype=np.int64),
    }
    nodes = np.zeros(1, dtype=_native.NODE_DTYPE)
    nodes["thr"] = np.inf
    nodes["value"] = 7.25
    arguments = {
        "nt": np.array([1.0, 2.0]),
        "lambdas": np.ones(1),
        "shift": np.zeros(1),
        "scale": np.ones(1),
        "model_mode": 0,
        "roots": np.zeros(1, dtype=np.int64),
        "depths": np.ones(1, dtype=np.int64),
        "nodes": nodes,
        "fold_base": 0.0,
        "fold_scale": 0.0,
    }
    for name, value in replaced.items():
        (program if name in program else arguments)[name] = value
    return (ColumnProgram(**program), *arguments.values())


class TestBindValidation:
    """What ``data_as`` silently trusted per call is checked once at bind."""

    def test_valid_arguments_bind_and_evaluate(self):
        bound = kernels.fused_evaluate.bind(*_bind_arguments())
        dims, grid, out = np.full((3, 1), 5.0), np.empty((3, 2, 1)), np.empty(6)
        bound.point(dims, grid, out)
        bound(3)
        assert np.array_equal(out, np.full(6, 7.25))
        assert np.array_equal(grid, np.full((3, 2, 1), 5.0))

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("nt", np.array([1, 2], dtype=np.int64)),
            ("nt", np.ones((2, 1))),
            ("base_offsets", np.array([0, 1], dtype=np.int32)),
            ("term_coef", np.arange(4.0)[::2]),
            ("term_fac", np.array([0, -1, -1], dtype=np.int64)),
            ("col_kind", np.array([1.0])),
            ("col_base", [0]),
            ("lambdas", np.ones(1, dtype=np.float32)),
            ("shift", np.zeros((1, 1))),
            ("scale", np.ones(4)[::2]),
            ("roots", np.zeros(1, dtype=np.int32)),
            ("depths", np.ones(1)),
            ("nodes", np.zeros(4)),
        ],
    )
    def test_wrong_dtype_rank_or_layout_is_rejected_by_name(self, name, bad):
        with pytest.raises(TypeError, match=rf"^{name} must be a C-contiguous"):
            kernels.fused_evaluate.bind(*_bind_arguments(**{name: bad}))

    def test_varying_buffers_are_validated_when_pointed(self):
        bound = kernels.fused_evaluate.bind(*_bind_arguments())
        dims, grid, out = np.full((3, 1), 5.0), np.empty((3, 2, 1)), np.empty(6)
        for name, bad in [
            ("dims", (dims[:, 0], grid, out)),
            ("grid", (dims, grid.astype(np.float32), out)),
            ("out", (dims, grid, np.empty(12)[::2])),
        ]:
            with pytest.raises(TypeError, match=rf"^{name} must be"):
                bound.point(*bad)

    def test_none_binds_null_pointers(self):
        """``lambdas is None`` is the affine-only pipeline, ``roots is None``
        mode 2 — both reach C as NULL, and mode 2 takes no output."""
        arguments = _bind_arguments(
            lambdas=None, shift=np.full(1, 1.0), scale=np.full(1, 2.0),
            model_mode=2, roots=None, depths=None, nodes=None,
        )  # fmt: skip
        bound = kernels.fused_evaluate.bind(*arguments)
        record = bound.record
        assert record.has_lambdas == 0 and not record.lambdas  # NULL is falsy
        assert not record.roots and not record.depths and record.nodes is None
        assert record.n_trees == 0 and not record.weights and not record.order
        dims, grid = np.full((2, 1), 5.0), np.full((2, 2, 1), np.nan)
        bound.point(dims, grid, None)
        bound(2)
        assert np.array_equal(grid, np.full((2, 2, 1), 2.0))  # (5 - 1) / 2

    def test_mode_three_needs_its_weights_and_its_median_buffer(self):
        """C dereferences both unconditionally in mode 3: a missing or
        mis-sized one must stop at bind / point, by name."""
        for bad in (None, np.ones(2), np.ones(1, dtype=np.float32)):
            with pytest.raises(TypeError, match="^weights must"):
                kernels.fused_evaluate.bind(*_bind_arguments(model_mode=3), bad)
        bound = kernels.fused_evaluate.bind(*_bind_arguments(model_mode=3), np.ones(1))
        dims, grid, out = np.full((3, 1), 5.0), np.empty((3, 2, 1)), np.empty(6)
        with pytest.raises(TypeError, match="^median must"):
            bound.point(dims, grid, out)
        median = np.empty(6)
        bound.point(dims, grid, out, median)
        bound(3)
        assert np.array_equal(median, np.full(6, 7.25)) and bound.n_tied == 0

    def test_generic_wrappers_validate_too(self):
        with pytest.raises(TypeError, match="^x must be"):
            kernels.fused_transform(np.ones((2, 2), dtype=np.float32), None,
                                    np.zeros(2), np.ones(2))  # fmt: skip
        with pytest.raises(TypeError, match="^roots must be"):
            kernels.descent(
                np.ones((1, 1)), np.zeros(1, dtype=np.int32),
                np.ones(1, dtype=np.int64), np.zeros(1, dtype=_native.NODE_DTYPE),
                0, 0.0, np.empty((1, 1)),
            )  # fmt: skip


class _CastCounter:
    """``ctypes.cast`` wrapped by a counter — NumPy's ``data_as`` is a call
    of it, so this sees every array marshalled anywhere in the process."""

    def __init__(self, monkeypatch):
        self.count = 0
        real = ctypes.cast

        def counting_cast(*args):
            self.count += 1
            return real(*args)

        monkeypatch.setattr(ctypes, "cast", counting_cast)

    def during(self, call) -> int:
        before = self.count
        call()
        return self.count - before


class TestMarshalledOnce:
    @pytest.mark.parametrize("kind", list(KIND_MODELS))
    def test_steady_state_calls_cast_nothing(self, kind, monkeypatch):
        predictor = _trained_predictor("dsymm", KIND_MODELS[kind])
        compiled = predictor.compile()
        assert compiled._model_kernel.kind == kind and compiled.path == "native"
        casts = _CastCounter(monkeypatch)
        one, many = _random_dims("dsymm", 1, seed=1), _random_dims("dsymm", 40, seed=2)
        assert casts.during(lambda: predictor.predict_runtimes_batch(one)) > 0
        for _ in range(3):  # unchanged batch size: nothing left to marshal
            assert casts.during(lambda: predictor.predict_runtimes_batch(one)) == 0
        # Growing the writer re-casts only what it replaced: dims scratch and
        # grid, the output of a tree kernel, the median buffer of mode 3, the
        # pick's choice buffer and, where Python finishes scores for the
        # bound pick (mode 2, a forest's mean, mode 3's tied rows), its
        # scores buffer.
        mode = compiled._native_mode
        finished_in_python = not compiled._pick_in_call or mode == 3
        replaced = 2 + (compiled._out_width > 0) + (mode == 3) + finished_in_python + 1
        assert casts.during(lambda: predictor.predict_runtimes_batch(many)) == replaced <= 6
        for batch in (many, one, many[:7]):  # and any size within capacity
            assert casts.during(lambda: predictor.predict_runtimes_batch(batch)) == 0
        assert compiled.path == "native"

    @pytest.mark.parametrize("kind", list(KIND_MODELS))
    def test_a_call_passes_the_record_and_a_count(self, kind):
        """Everything but the shape count reaches C through the one record
        filled at bind: the foreign function sees exactly two arguments."""
        predictor = _trained_predictor("dsymm", KIND_MODELS[kind])
        bound = predictor.compile()._fused_call
        entry, seen = bound._fn, []
        assert entry is _native.load_kernels().fused_evaluate.ctypes_fn
        bound._fn = lambda *args: seen.append(args) or entry(*args)
        for batch in (_random_dims("dsymm", 1, seed=1), _random_dims("dsymm", 9, seed=2)):
            predictor.predict_runtimes_batch(batch)
        address = ctypes.addressof(bound.record)
        # The first batch is evaluated once more by the NumPy self-check only.
        assert seen == [(address, 1), (address, 9)]

    def test_compile_stays_under_a_millisecond_per_routine(self):
        """Bind-time work must not leak into set-up: one build of each of a
        six-routine bundle's predictors, best of five per routine."""
        routines = ["dgemm", "dsymm", "dsyrk", "dsyr2k", "dtrmm", "dtrsm"]
        for routine, model_name in zip(routines, KIND_MODELS.values()):
            blob = pickle.dumps(_trained_predictor(routine, model_name))
            best = float("inf")
            for _ in range(5):
                twin = pickle.loads(blob)
                start = time.perf_counter()
                twin.compile()
                best = min(best, time.perf_counter() - start)
            assert best < 1e-3, (routine, model_name, best)


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
