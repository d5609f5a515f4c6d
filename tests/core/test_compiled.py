"""Equivalence tests: compiled prediction kernel == object-graph reference.

The compiled path promises *bit-identical* outputs — every test here
compares with exact array equality, not tolerances.
"""

import numpy as np
import pytest

from repro.blas.api import ROUTINE_KEYS, parse_routine
from repro.core import compiled as compiled_mod
from repro.core.compiled import CompiledPredictor, compile_model_kernel
from repro.core.install import install_adsala
from repro.core.predictor import ThreadPredictor
from repro.machine.platforms import get_platform
from repro.ml import tree as tree_mod
from repro.ml.model_zoo import CANDIDATE_MODEL_NAMES, make_model
from repro.preprocessing.pipeline import PreprocessingPipeline


@pytest.fixture(scope="module")
def platform():
    return get_platform("laptop")


@pytest.fixture(scope="module")
def quick_bundle(platform):
    """A small bundle covering every routine in both precisions."""
    return install_adsala(
        platform=platform,
        routines=list(ROUTINE_KEYS),
        n_samples=10,
        threads_per_shape=4,
        n_test_shapes=3,
        candidate_models=["LinearRegression", "DecisionTree"],
        seed=0,
    )


def _random_dims(routine, n, seed):
    _, _, spec = parse_routine(routine)
    rng = np.random.default_rng(seed)
    return [
        {name: int(rng.integers(32, 2048)) for name in spec.dim_names}
        for _ in range(n)
    ]


class TestBundleEquivalence:
    def test_all_routines_both_precisions_randomized_dims(self, quick_bundle):
        for index, routine in enumerate(ROUTINE_KEYS):
            predictor = quick_bundle.routines[routine].predictor
            dims_list = _random_dims(routine, 25, seed=100 + index)
            compiled = predictor.predict_runtimes_batch(dims_list)
            with compiled_mod.reference_mode():
                reference = predictor.predict_runtimes_batch(dims_list)
            assert np.array_equal(compiled, reference), routine

    def test_plans_and_cache_timeline_identical(self, quick_bundle, platform):
        """Same plans, predicted times, hit/miss counters and final cache."""
        for routine in ("dgemm", "ssyrk"):
            source = quick_bundle.routines[routine].predictor
            workload = _random_dims(routine, 6, seed=3) * 3  # repeats hit LRU
            results = {}
            for mode in ("compiled", "reference"):
                predictor = ThreadPredictor(
                    routine=routine,
                    pipeline=source.pipeline,
                    model=source.model,
                    candidate_threads=source.candidate_threads,
                    cache_capacity=4,
                )
                if mode == "reference":
                    with compiled_mod.reference_mode():
                        plans = [predictor.plan(d) for d in workload]
                else:
                    plans = [predictor.plan(d) for d in workload]
                results[mode] = (
                    plans,
                    predictor.cache_info(),
                    list(predictor._cache),
                )
            compiled_plans, compiled_info, compiled_keys = results["compiled"]
            reference_plans, reference_info, reference_keys = results["reference"]
            assert compiled_info == reference_info
            assert compiled_keys == reference_keys
            for left, right in zip(compiled_plans, reference_plans):
                assert left == right

    def test_plan_batch_identical(self, quick_bundle):
        predictor = quick_bundle.routines["dsymm"].predictor
        dims_list = _random_dims("dsymm", 12, seed=9)
        predictor.clear_cache()
        compiled = predictor.plan_batch(dims_list)
        predictor.clear_cache()
        with compiled_mod.reference_mode():
            reference = predictor.plan_batch(dims_list)
        assert compiled == reference


class TestModelEvaluators:
    """compile_model_kernel(...).evaluate == model.predict, every Table II model."""

    @pytest.mark.parametrize("model_name", CANDIDATE_MODEL_NAMES)
    def test_evaluator_matches_predict(self, model_name):
        rng = np.random.default_rng(11)
        X = rng.uniform(-2.0, 2.0, size=(220, 7))
        y = X @ rng.normal(size=7) + 0.05 * rng.normal(size=220)
        model = make_model(model_name)
        model.fit(X, y)
        evaluate = compile_model_kernel(model).evaluate
        Xq = rng.uniform(-2.0, 2.0, size=(40, 7))
        assert np.array_equal(evaluate(Xq), model.predict(Xq))

    @pytest.mark.parametrize(
        "model_name", ["RandomForest", "XGBoost", "LightGBM", "AdaBoost"]
    )
    def test_evaluator_matches_recursive_reference(self, model_name):
        rng = np.random.default_rng(12)
        X = rng.uniform(-1.0, 3.0, size=(180, 5))
        y = np.sin(X).sum(axis=1) + 0.02 * rng.normal(size=180)
        model = make_model(model_name)
        model.fit(X, y)
        evaluate = compile_model_kernel(model).evaluate
        Xq = rng.uniform(-1.0, 3.0, size=(30, 5))
        with tree_mod.reference_mode():
            reference = model.predict(Xq)
        assert np.array_equal(evaluate(Xq), reference)


class TestCompiledPredictor:
    def test_build_once_and_reuse(self, quick_bundle):
        predictor = quick_bundle.routines["dgemm"].predictor
        assert predictor.compile() is predictor.compile()

    def test_compiled_validates_dims(self, quick_bundle):
        predictor = quick_bundle.routines["dgemm"].predictor
        with pytest.raises(ValueError):
            predictor.predict_runtimes({"m": 128, "k": 128, "n": 0})
        with pytest.raises(ValueError):
            predictor.predict_runtimes({"m": 128, "k": 128})

    def test_single_shape_matches_batch_row(self, quick_bundle):
        predictor = quick_bundle.routines["dtrsm"].predictor
        dims_list = _random_dims("dtrsm", 5, seed=21)
        batch = predictor.predict_runtimes_batch(dims_list)
        for i, dims in enumerate(dims_list):
            assert np.array_equal(predictor.predict_runtimes(dims), batch[i])

    def test_direct_compiled_predictor(self, quick_bundle):
        installation = quick_bundle.routines["dsyr2k"]
        predictor = installation.predictor
        compiled = CompiledPredictor(
            "dsyr2k",
            predictor.pipeline,
            predictor.model,
            predictor.candidate_threads,
        )
        dims_list = _random_dims("dsyr2k", 8, seed=5)
        with compiled_mod.reference_mode():
            reference = predictor.predict_scores_batch(dims_list)
        assert np.array_equal(
            compiled.predict_runtimes_batch(dims_list), reference
        )

    def test_reference_mode_restores(self, quick_bundle):
        assert compiled_mod.active_impl() == "compiled"
        with compiled_mod.reference_mode():
            assert compiled_mod.active_impl() == "reference"
            assert tree_mod.active_impl() == "reference"
        assert compiled_mod.active_impl() == "compiled"
        assert tree_mod.active_impl() == "vectorized"


class TestFallbackEvaluator:
    def test_unknown_model_falls_back_to_predict(self):
        class Weird:
            def predict(self, X):
                return np.asarray(X).sum(axis=1)

        model = Weird()
        evaluate = compile_model_kernel(model).evaluate
        X = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(evaluate(X), model.predict(X))

    def test_pipeline_compile_requires_fit(self):
        with pytest.raises(RuntimeError):
            PreprocessingPipeline().compile()
