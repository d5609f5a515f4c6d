"""The install has no fan-out: routines and their candidates run in order.

``evaluate_candidates`` fits and scores every candidate one after another
on the calling thread.  The install path must still be safe to run from
several threads at once (thread shards and the library's callers share one
process, and the native kernels load once for all of them): an install or
a selection report computed on two threads side by side must be
bit-identical to the same call run alone.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core import selection
from repro.core.gather import DataGatherer
from repro.core.install import install_adsala
from repro.core.predictor import ThreadPredictor
from repro.core.selection import evaluate_candidates
from repro.machine.simulator import TimingSimulator


def _alone_and_side_by_side(run):
    """``run()`` alone, then two ``run()`` calls started together on two
    threads; returns ``(alone, [first, second])``."""
    alone = run()
    start = threading.Barrier(2)

    def side_by_side():
        start.wait()
        return run()

    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(side_by_side) for _ in range(2)]
        return alone, [future.result() for future in futures]


class TestInstallationParallel:
    CANDIDATES = ["LinearRegression", "DecisionTree"]

    def _install(self, laptop, routines):
        return install_adsala(
            platform=laptop,
            routines=routines,
            n_samples=14,
            threads_per_shape=5,
            n_test_shapes=6,
            candidate_models=self.CANDIDATES,
            seed=0,
        )

    def _assert_bundles_identical(self, a, b, routines):
        assert a.best_models() == b.best_models()
        assert a.simulator.n_evaluations == b.simulator.n_evaluations
        assert a.settings == b.settings
        for routine in routines:
            left = a.routines[routine]
            right = b.routines[routine]
            assert left.dataset.times == right.dataset.times
            assert left.test_shapes == right.test_shapes
            rows_left = [e.__dict__ for e in left.selection.evaluations]
            rows_right = [e.__dict__ for e in right.selection.evaluations]
            assert rows_left == rows_right
            for dims in left.test_shapes:
                assert left.predictor.predict_threads(
                    dims, use_cache=False
                ) == right.predictor.predict_threads(dims, use_cache=False)

    def _assert_matches_side_by_side(self, laptop, routines):
        alone, concurrent = _alone_and_side_by_side(lambda: self._install(laptop, routines))
        for bundle in concurrent:
            self._assert_bundles_identical(alone, bundle, routines)

    def test_multi_routine_parallel_bundle_matches_serial(self, laptop):
        self._assert_matches_side_by_side(laptop, ["dgemm", "dsyrk"])

    def test_single_routine_candidate_fanout_matches_serial(self, laptop):
        self._assert_matches_side_by_side(laptop, ["dsymm"])

    def test_settings_record_no_job_count(self, laptop):
        assert "n_jobs" not in self._install(laptop, ["dgemm"]).settings

    def test_evaluate_candidates_parallel_matches_serial(self, laptop):
        simulator = TimingSimulator(laptop, seed=0)
        gatherer = DataGatherer(
            simulator, "dgemm", n_shapes=14, threads_per_shape=5, seed=0
        )
        dataset = gatherer.gather()
        test_shapes = gatherer.gather_test_set(6)

        def run():
            return evaluate_candidates(
                dataset=dataset,
                simulator=TimingSimulator(laptop, seed=0),
                test_shapes=test_shapes,
                candidate_names=self.CANDIDATES,
                seed=0,
            )

        alone, concurrent = _alone_and_side_by_side(run)
        for report in concurrent:
            assert report.best_model_name == alone.best_model_name
            assert [e.__dict__ for e in report.evaluations] == [
                e.__dict__ for e in alone.evaluations
            ]

    def test_measured_eval_time_follows_its_fit_on_the_caller(self, laptop, monkeypatch):
        # A measured t_eval is a wall-clock reading: it runs on the calling
        # thread right after its own candidate's fit, never beside another.
        events = []
        fit = selection.fit_candidate
        measure = ThreadPredictor.measure_eval_time

        def logged_fit(*args, **kwargs):
            result = fit(*args, **kwargs)
            events.append(("fit", threading.get_ident()))
            return result

        def logged_measure(predictor, *args, **kwargs):
            events.append(("measure", threading.get_ident()))
            return measure(predictor, *args, **kwargs)

        monkeypatch.setattr(selection, "fit_candidate", logged_fit)
        monkeypatch.setattr(ThreadPredictor, "measure_eval_time", logged_measure)
        simulator = TimingSimulator(laptop, seed=0)
        gatherer = DataGatherer(simulator, "dgemm", n_shapes=14, threads_per_shape=5, seed=0)
        evaluate_candidates(
            dataset=gatherer.gather(),
            simulator=simulator,
            test_shapes=gatherer.gather_test_set(6),
            candidate_names=self.CANDIDATES,
            eval_time_mode="measured",
            seed=0,
        )
        assert [kind for kind, _ in events] == ["fit", "measure"] * len(self.CANDIDATES)
        assert {ident for _, ident in events} == {threading.get_ident()}

    def test_baseline_times_hoisted_out_of_candidate_loop(self, laptop):
        # The max-thread baseline of each held-out shape is candidate-
        # independent: the simulator must be consulted (1 + n_candidates)
        # times per shape, not 2 * n_candidates times as before.
        simulator = TimingSimulator(laptop, seed=0)
        gatherer = DataGatherer(
            simulator, "dgemm", n_shapes=14, threads_per_shape=5, seed=0
        )
        dataset = gatherer.gather()
        test_shapes = gatherer.gather_test_set(6)
        before = simulator.n_evaluations
        evaluate_candidates(
            dataset=dataset,
            simulator=simulator,
            test_shapes=test_shapes,
            candidate_names=self.CANDIDATES,
            seed=0,
        )
        consumed = simulator.n_evaluations - before
        assert consumed == len(test_shapes) * (len(self.CANDIDATES) + 1)
