"""Tests for the adaptation controller's lifecycle state machine and loop."""

from dataclasses import replace

import pytest

from repro.adaptive import (
    AdaptationController,
    BundlePromoter,
    DriftInjector,
    RoutineLifecycle,
)
from repro.core.persistence import read_manifest
from repro.serving.engine import ServingEngine


def read_bundle_bytes(directory):
    manifest = read_manifest(directory)
    state = {"bundle.json": (directory / "bundle.json").read_bytes()}
    for meta in manifest["routines"].values():
        state[meta["model_file"]] = (directory / meta["model_file"]).read_bytes()
    return state


@pytest.fixture()
def loop(bundle_dir, quick_config, calibration, laptop, make_engine):
    """A ready-to-step adaptation loop over a fresh on-disk bundle."""
    registry, handle, engine = make_engine(bundle_dir)
    injector = DriftInjector(laptop, calibration)
    controller = AdaptationController(
        engine,
        quick_config,
        measurement_simulator=injector.simulator(seed=2),
        calibration=calibration,
        clock=lambda: 99.0,
    )
    return registry, handle, engine, controller, injector


class TestIdleController:
    def test_no_drift_means_no_action(self, loop, drive_traffic, laptop):
        _, handle, engine, controller, _ = loop
        undrifted_observer = DriftInjector(laptop).simulator(seed=1)
        drive_traffic(engine, undrifted_observer)
        report = controller.step()
        assert not report.acted
        assert report.drifting == []
        assert controller.states() == {"dgemm": "healthy", "dsyrk": "healthy"}
        assert handle.bundle_version == 1

    def test_states_default_to_healthy(self, loop):
        _, _, _, controller, _ = loop
        assert controller.state("dgemm") is RoutineLifecycle.HEALTHY
        assert controller.states() == {}  # no telemetry yet


class TestEndToEndAdaptation:
    def test_drift_to_promotion_to_recovery_and_rollback(
        self, loop, drive_traffic, drifted_observer
    ):
        """The acceptance scenario: inject drift mid-serve, adapt, verify the
        hot reload, the error recovery and the byte-for-byte rollback."""
        _, handle, engine, controller, _ = loop
        bundle_dir = handle.directory
        v1_bytes = read_bundle_bytes(bundle_dir)

        # -- drift: the machine under the engine changed ---------------------
        drive_traffic(engine, drifted_observer)
        drifted = engine.reinstall_candidates()
        assert set(drifted) == {"dgemm", "dsyrk"}
        errors_before = {
            routine: engine.telemetry.routines[routine].mean_abs_rel_error
            for routine in drifted
        }
        assert all(
            error > engine.telemetry.drift_threshold
            for error in errors_before.values()
        )

        # -- one controller step runs the whole cycle ------------------------
        report = controller.step()
        assert set(report.drifting) == {"dgemm", "dsyrk"}
        assert report.promoted  # at least one routine cleared shadow
        assert report.new_version == 2
        assert report.reloaded  # the engine hot-reloaded, no restart
        for routine in report.promoted:
            assert controller.state(routine) is RoutineLifecycle.PROMOTED
        assert handle.bundle_version == 2  # same handle object serves v2

        # -- fresh traffic: rolling error recovers below the threshold -------
        drive_traffic(engine, drifted_observer, seed=4)
        for routine in report.promoted:
            telemetry = engine.telemetry.routines[routine]
            assert telemetry.mean_abs_rel_error < engine.telemetry.drift_threshold
            assert telemetry.mean_abs_rel_error < errors_before[routine]
        follow_up = controller.step()
        for routine in report.promoted:
            assert routine in follow_up.recovered
            assert controller.state(routine) is RoutineLifecycle.HEALTHY

        # -- one-command rollback restores v1 byte for byte ------------------
        restored = controller.rollback()
        assert restored == 1
        assert read_bundle_bytes(bundle_dir) == v1_bytes
        assert handle.bundle_version == 1
        assert all(
            state is RoutineLifecycle.ROLLED_BACK
            for state in (controller.state(r) for r in engine.telemetry.routines)
        )

    def test_audit_trail_records_the_lifecycle(
        self, loop, drive_traffic, drifted_observer
    ):
        _, handle, engine, controller, _ = loop
        drive_traffic(engine, drifted_observer)
        report = controller.step()
        events = controller.promoter.log.events()
        for routine in report.promoted:
            sequence = [
                event["event"] for event in events if event.get("routine") == routine
            ]
            assert sequence == ["drift_detected", "regathered", "shadow", "promoted"]
        promoted_event = controller.promoter.log.last_event(event="promoted")
        assert promoted_event["details"]["to_version"] == 2
        assert promoted_event["ts"] == 99.0  # injected clock

    def test_rejected_candidate_rolls_back_and_stays_eligible(
        self, loop, drive_traffic, drifted_observer, quick_config
    ):
        _, handle, engine, controller, _ = loop
        # An impossible improvement bar forces a shadow rejection.
        controller.config = replace(quick_config, min_error_improvement=0.999)
        controller.shadow_evaluator.config = controller.config
        drive_traffic(engine, drifted_observer)
        report = controller.step()
        assert set(report.rejected) == {"dgemm", "dsyrk"}
        assert report.promoted == []
        assert handle.bundle_version == 1  # nothing written
        for routine in report.rejected:
            assert controller.state(routine) is RoutineLifecycle.ROLLED_BACK
        # Still drifting -> eligible again on the next step.
        next_report = controller.step()
        assert set(next_report.drifting) == {"dgemm", "dsyrk"}

    def test_max_routines_per_step_bounds_the_budget(
        self, loop, drive_traffic, drifted_observer, quick_config
    ):
        _, _, engine, controller, _ = loop
        controller.config = replace(quick_config, max_routines_per_step=1)
        drive_traffic(engine, drifted_observer)
        report = controller.step()
        assert len(report.retrained) == 1


class TestCandidateOrder:
    def test_a_rejected_winner_gives_way_to_the_next_ranked_candidate(
        self, loop, drive_traffic, drifted_observer
    ):
        """The shadow bar is a constraint on the retrain's ranking: when the
        winner fails it, the next-ranked candidate is shadowed and promoted."""
        _, handle, engine, controller, _ = loop
        evaluate = controller.shadow_evaluator.evaluate
        shadowed = []

        def reject_each_winner(routine, live, candidate, traffic):
            verdict = evaluate(routine, live, candidate, traffic)
            shadowed.append((routine, candidate.model_name))
            first = len([r for r, _ in shadowed if r == routine]) == 1
            return replace(verdict, accepted=not first, reasons=["forced"] if first else [])

        controller.shadow_evaluator.evaluate = reject_each_winner
        drive_traffic(engine, drifted_observer)
        report = controller.step()
        assert sorted(report.promoted) == ["dgemm", "dsyrk"]
        manifest = read_manifest(handle.directory)
        for routine in report.promoted:
            tried = [name for r, name in shadowed if r == routine]
            winner, promoted = tried[0], tried[-1]
            assert len(tried) == 2 and promoted != winner
            assert report.retrained[routine].model_name == promoted
            assert report.shadow[routine].candidate_model == promoted
            assert manifest["routines"][routine]["model_name"] == promoted
            assert engine.source.predictor(routine).model_name == promoted

    def test_no_candidate_clearing_the_bar_rolls_back_with_the_winners_verdict(
        self, loop, drive_traffic, drifted_observer, quick_config
    ):
        _, handle, engine, controller, _ = loop
        controller.config = replace(quick_config, min_error_improvement=0.999)
        controller.shadow_evaluator.config = controller.config
        drive_traffic(engine, drifted_observer)
        report = controller.step()
        assert report.promoted == [] and handle.bundle_version == 1
        for routine in report.rejected:
            assert report.shadow[routine].candidate_model == report.retrained[routine].model_name


class TestUninstalledRoutines:
    def test_heuristic_served_drift_is_skipped_not_fatal(
        self, loop, drive_traffic, drifted_observer
    ):
        """Uninstalled routines served by the max-threads heuristic can trip
        the drift flag; the step must skip them (no live model to shadow or
        replace) while still adapting the installed ones."""
        _, handle, engine, controller, _ = loop
        drive_traffic(engine, drifted_observer)
        drive_traffic(engine, drifted_observer, routines=["dtrmm"], n_requests=60)
        assert "dtrmm" in engine.reinstall_candidates()
        report = controller.step()
        assert report.skipped == ["dtrmm"]
        assert "dtrmm" not in report.retrained
        assert report.promoted  # installed routines still adapted
        assert "full install" in report.summary()
        unadaptable = controller.promoter.log.last_event(event="drift_unadaptable")
        assert unadaptable["routine"] == "dtrmm"


class TestCrashRecovery:
    def test_routine_stranded_mid_cycle_re_enters_the_loop(
        self, loop, drive_traffic, drifted_observer
    ):
        """A step that died after transitioning to REGATHERING/SHADOW must
        not strand the routine outside the state machine forever."""
        _, _, engine, controller, _ = loop
        drive_traffic(engine, drifted_observer)
        controller._states["dgemm"] = RoutineLifecycle.REGATHERING
        controller._states["dsyrk"] = RoutineLifecycle.SHADOW
        report = controller.step()
        assert set(report.drifting) == {"dgemm", "dsyrk"}
        assert report.promoted  # the cycle ran to completion again

    def test_unadaptable_routine_logged_once_across_steps(
        self, loop, drive_traffic, drifted_observer
    ):
        _, _, engine, controller, _ = loop
        drive_traffic(engine, drifted_observer, routines=["dtrmm"], n_requests=60)
        first = controller.step()
        second = controller.step()
        assert first.skipped == ["dtrmm"] and second.skipped == ["dtrmm"]
        events = [
            event
            for event in controller.promoter.log.events()
            if event["event"] == "drift_unadaptable"
        ]
        assert len(events) == 1


class TestAutoCalibration:
    def test_promotion_without_explicit_calibration_still_recovers(
        self, bundle_dir, quick_config, laptop, calibration, make_engine, drive_traffic
    ):
        """With no operator-measured calibration, the controller estimates a
        uniform one from telemetry; the drift error must still recover (and
        the loop must quiesce instead of re-promoting forever)."""
        _, handle, engine = make_engine(bundle_dir)
        injector = DriftInjector(laptop, calibration)
        controller = AdaptationController(
            engine,
            quick_config,
            measurement_simulator=injector.simulator(seed=2),
            clock=lambda: 0.0,
        )
        observer = injector.simulator(seed=1)
        drive_traffic(engine, observer)
        report = controller.step()
        assert report.promoted
        assert report.calibration  # estimated, not operator-provided
        assert handle.settings["calibration"] == report.calibration
        drive_traffic(engine, observer, seed=4)
        for routine in report.promoted:
            telemetry = engine.telemetry.routines[routine]
            assert telemetry.mean_abs_rel_error < engine.telemetry.drift_threshold
        assert not controller.step().acted  # converged, no retrain loop

    def test_auto_calibrate_opt_out(
        self, bundle_dir, quick_config, laptop, calibration, make_engine, drive_traffic
    ):
        _, handle, engine = make_engine(bundle_dir)
        injector = DriftInjector(laptop, calibration)
        controller = AdaptationController(
            engine,
            replace(quick_config, auto_calibrate=False),
            measurement_simulator=injector.simulator(seed=2),
            clock=lambda: 0.0,
        )
        drive_traffic(engine, injector.simulator(seed=1))
        report = controller.step()
        assert report.promoted
        assert report.calibration == {}
        assert "calibration" not in handle.settings

    def test_default_measurement_simulator_tracks_reloads(
        self, loop, drive_traffic, drifted_observer
    ):
        _, handle, engine, controller, _ = loop
        controller._measurement_simulator = None
        assert controller.measurement_simulator is engine.source.simulator
        drive_traffic(engine, drifted_observer)
        controller.step()
        # After the promotion's hot reload the property follows the handle's
        # freshly rebuilt (calibrated) simulator.
        assert controller.measurement_simulator is engine.source.simulator


class TestDeterministicAdaptation:
    def test_same_seed_produces_bit_identical_promoted_bundles(
        self,
        adaptive_bundle,
        tmp_path,
        quick_config,
        calibration,
        laptop,
        make_engine,
        drive_traffic,
    ):
        """Satellite: seed -> DataGatherer/sampling makes runs reproducible."""
        from repro.core.persistence import save_bundle

        promoted = []
        for run in ("a", "b"):
            bundle_dir = save_bundle(
                adaptive_bundle, tmp_path / run / "bundle", bundle_version=1
            )
            _, handle, engine = make_engine(bundle_dir)
            injector = DriftInjector(laptop, calibration)
            drive_traffic(engine, injector.simulator(seed=1))
            controller = AdaptationController(
                engine,
                quick_config,
                measurement_simulator=injector.simulator(seed=2),
                calibration=calibration,
                clock=lambda: 0.0,
            )
            report = controller.step()
            assert report.promoted
            promoted.append(read_bundle_bytes(bundle_dir))
        assert promoted[0] == promoted[1]


class TestInMemorySources:
    def test_in_memory_engine_has_no_promoter(self, adaptive_bundle):
        engine = ServingEngine(adaptive_bundle)
        controller = AdaptationController(engine)
        assert controller.promoter is None
        with pytest.raises(RuntimeError, match="directory-backed"):
            controller.rollback()
        assert engine.reload_source() is False

    def test_explicit_promoter_overrides_discovery(self, bundle_dir, adaptive_bundle):
        engine = ServingEngine(adaptive_bundle)
        promoter = BundlePromoter(bundle_dir)
        controller = AdaptationController(engine, promoter=promoter)
        assert controller.promoter is promoter
