"""Tests for candidate evaluation and model selection by estimated speedup."""

import numpy as np
import pytest

from repro.core import selection
from repro.core.compiled import CompiledPredictor
from repro.core.dataset import TimingDataset
from repro.core.gather import DataGatherer
from repro.core.install import fit_routine_installation
from repro.core.predictor import ThreadPredictor
from repro.core.selection import (
    CandidateEvaluation,
    SelectionReport,
    evaluate_candidates,
    select_best_model,
)
from repro.machine.simulator import TimingSimulator
from repro.ml.linear import LinearRegression
from repro.ml.metrics import root_mean_squared_error
from repro.ml.model_zoo import CANDIDATE_MODEL_NAMES
from repro.preprocessing.pipeline import PreprocessingPipeline


@pytest.fixture(scope="module")
def selection_inputs(laptop):
    simulator = TimingSimulator(laptop, seed=0)
    gatherer = DataGatherer(simulator, "dsyrk", n_shapes=20, threads_per_shape=6, seed=0)
    dataset = gatherer.gather()
    test_shapes = gatherer.gather_test_set(10)
    return simulator, dataset, test_shapes


CANDIDATES = ["LinearRegression", "DecisionTree", "KNN"]


@pytest.fixture(scope="module")
def report(selection_inputs):
    simulator, dataset, test_shapes = selection_inputs
    return evaluate_candidates(
        dataset=dataset,
        simulator=simulator,
        test_shapes=test_shapes,
        candidate_names=CANDIDATES,
        seed=0,
    )


class TestReportStructure:
    def test_one_evaluation_per_candidate(self, report):
        assert {e.model_name for e in report.evaluations} == set(CANDIDATES)

    def test_best_model_is_a_candidate(self, report):
        assert report.best_model_name in CANDIDATES

    def test_best_model_maximises_estimated_mean_speedup(self, report):
        best = max(report.evaluations, key=lambda e: e.estimated_mean_speedup)
        assert report.best_model_name == best.model_name
        assert report.best_evaluation is best

    def test_normalised_rmse_in_unit_interval(self, report):
        values = [e.normalised_rmse for e in report.evaluations]
        assert max(values) == pytest.approx(1.0)
        assert all(0 < v <= 1.0 for v in values)

    def test_estimated_never_exceeds_ideal(self, report):
        for e in report.evaluations:
            assert e.estimated_mean_speedup <= e.ideal_mean_speedup + 1e-9
            assert e.estimated_aggregate_speedup <= e.ideal_aggregate_speedup + 1e-9

    def test_eval_times_positive(self, report):
        assert all(e.eval_time_us > 0 for e in report.evaluations)

    def test_rows_have_table6_columns(self, report):
        for row in report.as_rows():
            assert set(row) == {
                "model",
                "normalised_test_rmse",
                "ideal_mean_speedup",
                "ideal_aggregate_speedup",
                "eval_time_us",
                "estimated_mean_speedup",
                "estimated_aggregate_speedup",
            }

    def test_missing_best_evaluation_raises(self):
        broken = SelectionReport(routine="dgemm", platform="x", evaluations=[], best_model_name="Z")
        with pytest.raises(LookupError):
            broken.best_evaluation

    def test_fitted_models_stashed_for_reuse(self, report):
        assert set(report._fitted_models) == set(CANDIDATES)
        assert report._pipeline is not None


class TestRelativeTarget:
    """Candidates fit each shape's speedup curve, log(T(p) / T(p_max)); the
    level head carries log T(p_max) and the Table VI RMSE stays in seconds."""

    @pytest.fixture(scope="class")
    def curve(self, selection_inputs):
        simulator, dataset, _ = selection_inputs
        times = dataset.target()
        p_max = simulator.platform.max_threads
        reference = {
            tuple(sorted(dims.items())): time
            for dims, threads, time in zip(dataset.dims, dataset.threads, times)
            if threads == p_max
        }
        return np.log(times) - np.log([reference[tuple(sorted(d.items()))] for d in dataset.dims])

    def test_models_fit_the_speedup_curve(self, selection_inputs, report, curve):
        _, dataset, _ = selection_inputs
        train, _ = dataset.split_rows(test_size=0.15, random_state=0)
        pipeline = PreprocessingPipeline(feature_names=dataset.feature_names)
        X, y = pipeline.fit_transform(dataset.feature_matrix()[train], curve[train])
        expected = LinearRegression().fit(X, y)
        model = report._fitted_models["LinearRegression"]
        np.testing.assert_array_equal(model.coef_, expected.coef_)
        assert model.intercept_ == expected.intercept_

    def test_the_level_is_fitted_on_the_max_thread_rows(self, selection_inputs, report):
        simulator, dataset, _ = selection_inputs
        rows = [i for i, t in enumerate(dataset.threads) if t == simulator.platform.max_threads]
        level = report._level
        assert level.names == tuple(sorted(dataset.dims[0]))
        predicted = np.log([level(dataset.dims[i]) for i in rows])
        measured = np.log(dataset.target()[rows])
        # A least-squares fit: its residuals are orthogonal to the constant.
        assert abs(np.sum(measured - predicted)) < 1e-9 * len(rows)
        assert np.corrcoef(predicted, measured)[0, 1] > 0.9

    def test_rmse_is_in_seconds(self, selection_inputs, report):
        _, dataset, _ = selection_inputs
        _, test = dataset.split_rows(test_size=0.15, random_state=0)
        X_test = report._pipeline.transform(dataset.feature_matrix()[test])
        y_test = dataset.target()[test]
        level = np.array([report._level(dataset.dims[i]) for i in test])
        for evaluation in report.evaluations:
            model = report._fitted_models[evaluation.model_name]
            assert evaluation.rmse == root_mean_squared_error(
                y_test, np.exp(model.predict(X_test)) * level
            )
            # Not the log-space error, which is larger than every runtime here.
            assert evaluation.rmse < y_test.max()

    def test_the_install_plans_on_the_curve(self, selection_inputs, report):
        simulator, dataset, test_shapes = selection_inputs
        installation = fit_routine_installation(
            "dsyrk", dataset, test_shapes, simulator, candidate_models=CANDIDATES
        )
        predictor = installation.predictor
        assert (predictor.target, predictor.level) == ("relative", report._level)


class TestLogTarget:
    """A dataset with a shape never timed at the maximum thread count has no
    curve: candidates fit log-runtime; the Table VI RMSE stays in seconds."""

    @pytest.fixture(scope="class")
    def log_inputs(self, selection_inputs):
        simulator, dataset, test_shapes = selection_inputs
        # One shape loses its max-thread row.
        dropped = dataset.threads.index(simulator.platform.max_threads)
        kept = [i for i in range(len(dataset)) if i != dropped]
        partial = TimingDataset(
            dataset.routine, dataset.platform,
            [dataset.dims[i] for i in kept], [dataset.threads[i] for i in kept],
            [dataset.times[i] for i in kept],
        )  # fmt: skip
        return simulator, partial, test_shapes

    @pytest.fixture(scope="class")
    def log_report(self, log_inputs):
        simulator, dataset, test_shapes = log_inputs
        return evaluate_candidates(dataset, simulator, test_shapes, CANDIDATES, seed=0)

    @pytest.fixture(scope="class")
    def split(self, log_inputs):
        _, dataset, _ = log_inputs
        return dataset.train_test_split(test_size=0.15, random_state=0)

    @pytest.fixture(scope="class")
    def held_out(self, log_report, split):
        _, X_test, _, y_test = split
        return log_report._pipeline.transform(X_test), y_test

    def test_models_fit_log_seconds(self, log_inputs, log_report, split):
        _, dataset, _ = log_inputs
        assert log_report._level is None
        X_train, _, y_train, _ = split
        pipeline = PreprocessingPipeline(feature_names=dataset.feature_names)
        X, y = pipeline.fit_transform(X_train, y_train)
        expected = LinearRegression().fit(X, np.log(y))
        model = log_report._fitted_models["LinearRegression"]
        np.testing.assert_array_equal(model.coef_, expected.coef_)
        assert model.intercept_ == expected.intercept_

    def test_rmse_is_in_seconds(self, log_report, held_out):
        X_test, y_test = held_out
        for evaluation in log_report.evaluations:
            model = log_report._fitted_models[evaluation.model_name]
            assert evaluation.rmse == root_mean_squared_error(
                y_test, np.exp(model.predict(X_test))
            )
            # Not the log-space error, which is larger than every runtime here.
            assert evaluation.rmse < y_test.max()

    def test_the_install_plans_on_log_runtime(self, log_inputs):
        simulator, dataset, test_shapes = log_inputs
        installation = fit_routine_installation(
            "dsyrk", dataset, test_shapes, simulator, candidate_models=CANDIDATES
        )
        assert (installation.predictor.target, installation.predictor.level) == ("log", None)


def _count_compiled_predictors(monkeypatch) -> list:
    built = []
    init = CompiledPredictor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["routine"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(CompiledPredictor, "__init__", counting_init)
    return built


class TestScoringIsTheProductionPredictor:
    """Each candidate is scored once, through the compiled predictor's NumPy
    fallback over one shared grid; its thread choices are the production
    predictor's."""

    @pytest.fixture(scope="class")
    def scored(self, selection_inputs):
        simulator, dataset, test_shapes = selection_inputs
        choices = []
        statistics = selection._speedup_statistics

        def recording(routine, threads, *args):
            choices.append(np.array(threads))
            return statistics(routine, threads, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(selection, "_speedup_statistics", recording)
            report = evaluate_candidates(
                dataset, simulator, test_shapes, candidate_names=CANDIDATE_MODEL_NAMES, seed=0
            )
        return report, dict(zip(CANDIDATE_MODEL_NAMES, choices))

    @pytest.mark.parametrize("name", CANDIDATE_MODEL_NAMES)
    def test_choices_equal_thread_predictor(self, selection_inputs, scored, name):
        simulator, dataset, test_shapes = selection_inputs
        report, choices = scored
        predictor = ThreadPredictor(
            dataset.routine,
            report._pipeline,
            report._fitted_models[name],
            simulator.platform.candidate_thread_counts(),
            target="log",
        )
        expected = predictor.predict_threads_batch(test_shapes)
        assert choices[name].dtype == expected.dtype
        np.testing.assert_array_equal(choices[name], expected)

    def test_native_mode_builds_no_compiled_predictor(
        self, selection_inputs, monkeypatch
    ):
        simulator, dataset, test_shapes = selection_inputs
        built = _count_compiled_predictors(monkeypatch)
        evaluate_candidates(
            dataset, simulator, test_shapes, candidate_names=CANDIDATE_MODEL_NAMES,
            eval_time_mode="native", seed=0,
        )
        assert built == []

    def test_measured_mode_times_one_compiled_predictor_per_candidate(
        self, selection_inputs, monkeypatch
    ):
        simulator, dataset, test_shapes = selection_inputs
        built = _count_compiled_predictors(monkeypatch)
        evaluate_candidates(
            dataset, simulator, test_shapes, candidate_names=CANDIDATES,
            eval_time_mode="measured", seed=0,
        )
        assert built == [dataset.routine] * len(CANDIDATES)


class TestEvalTimeModes:
    def test_measured_mode_gives_larger_eval_times(self, selection_inputs):
        simulator, dataset, test_shapes = selection_inputs
        native = evaluate_candidates(
            dataset, simulator, test_shapes, candidate_names=["LinearRegression"],
            eval_time_mode="native", seed=0,
        )
        measured = evaluate_candidates(
            dataset, simulator, test_shapes, candidate_names=["LinearRegression"],
            eval_time_mode="measured", seed=0,
        )
        assert (
            measured.evaluations[0].eval_time_us > native.evaluations[0].eval_time_us
        )

    def test_invalid_mode_rejected(self, selection_inputs):
        simulator, dataset, test_shapes = selection_inputs
        with pytest.raises(ValueError, match="eval_time_mode"):
            evaluate_candidates(dataset, simulator, test_shapes, eval_time_mode="guess")


class TestValidation:
    def test_empty_candidates(self, selection_inputs):
        simulator, dataset, test_shapes = selection_inputs
        with pytest.raises(ValueError, match="candidate_names"):
            evaluate_candidates(dataset, simulator, test_shapes, candidate_names=[])

    def test_empty_test_shapes(self, selection_inputs):
        simulator, dataset, _ = selection_inputs
        with pytest.raises(ValueError, match="test_shapes"):
            evaluate_candidates(dataset, simulator, [], candidate_names=CANDIDATES)


class TestSelectBestModel:
    def _make_report(self, routine, scores):
        return SelectionReport(
            routine=routine,
            platform="x",
            evaluations=[
                CandidateEvaluation(
                    model_name=name,
                    rmse=1.0,
                    normalised_rmse=1.0,
                    eval_time_us=10.0,
                    ideal_mean_speedup=s,
                    ideal_aggregate_speedup=s,
                    estimated_mean_speedup=s,
                    estimated_aggregate_speedup=s,
                )
                for name, s in scores.items()
            ],
            best_model_name=max(scores, key=scores.get),
        )

    def test_highest_average_across_routines_wins(self):
        reports = [
            self._make_report("dgemm", {"A": 1.0, "B": 1.4}),
            self._make_report("dsymm", {"A": 2.0, "B": 1.5}),
        ]
        # A: mean 1.5, B: mean 1.45 -> A wins the library-wide selection.
        assert select_best_model(reports) == "A"

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            select_best_model([])
