"""Tests for saving and loading installation bundles."""

import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.predictor import LevelHead, ThreadPredictor
from repro.core.persistence import (
    SCHEMA_VERSION,
    BundleFormatError,
    load_bundle,
    migrate_manifest,
    read_manifest,
    save_bundle,
    verify_bundle,
)


def _downgrade_to_v1(directory, strip_optional=False):
    """Rewrite a saved bundle's manifest in the original seed (v1) format."""
    manifest_path = directory / "bundle.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.pop("schema_version", None)
    manifest.pop("bundle_version", None)
    manifest["format_version"] = 1
    for meta in manifest["routines"].values():
        meta.pop("checksum", None)
        if strip_optional:
            meta.pop("selection", None)
            meta.pop("dataset", None)
            meta.pop("test_shapes", None)
    manifest_path.write_text(json.dumps(manifest))
    return manifest_path


@pytest.fixture()
def saved_dir(small_bundle, tmp_path):
    return save_bundle(small_bundle, tmp_path / "bundle")


class TestSave:
    def test_manifest_written(self, saved_dir):
        manifest_path = saved_dir / "bundle.json"
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["platform"] == "laptop"
        assert set(manifest["routines"]) == {"dgemm", "dsyrk"}

    def test_model_files_written(self, saved_dir):
        assert (saved_dir / "dgemm.model.pkl").exists()
        assert (saved_dir / "dsyrk.model.pkl").exists()

    def test_manifest_contains_preprocessing_config(self, saved_dir):
        manifest = json.loads((saved_dir / "bundle.json").read_text())
        preprocessing = manifest["routines"]["dgemm"]["preprocessing"]
        assert "feature_names" in preprocessing
        assert "correlation" in preprocessing

    def test_selection_summary_serialised(self, saved_dir):
        manifest = json.loads((saved_dir / "bundle.json").read_text())
        selection = manifest["routines"]["dgemm"]["selection"]
        assert selection["best_model_name"]
        assert len(selection["evaluations"]) == 2


class TestLoad:
    def test_roundtrip_preserves_structure(self, small_bundle, saved_dir):
        restored = load_bundle(saved_dir)
        assert restored.platform.name == small_bundle.platform.name
        assert restored.installed_routines == small_bundle.installed_routines
        assert restored.best_models() == small_bundle.best_models()

    def test_roundtrip_preserves_predictions(self, small_bundle, saved_dir):
        restored = load_bundle(saved_dir)
        dims = {"m": 300, "k": 200, "n": 100}
        original_runtimes = small_bundle.predictor("dgemm").predict_runtimes(dims)
        restored_runtimes = restored.predictor("dgemm").predict_runtimes(dims)
        np.testing.assert_allclose(restored_runtimes, original_runtimes, rtol=1e-12)

    def test_roundtrip_preserves_thread_choice(self, small_bundle, saved_dir):
        restored = load_bundle(saved_dir)
        for routine in small_bundle.installed_routines:
            dims_list = small_bundle.routines[routine].test_shapes[:3]
            for dims in dims_list:
                assert restored.predictor(routine).predict_threads(
                    dims, use_cache=False
                ) == small_bundle.predictor(routine).predict_threads(dims, use_cache=False)

    def test_roundtrip_preserves_datasets(self, small_bundle, saved_dir):
        restored = load_bundle(saved_dir)
        original = small_bundle.routines["dgemm"].dataset
        loaded = restored.routines["dgemm"].dataset
        assert len(loaded) == len(original)
        np.testing.assert_allclose(loaded.target(), original.target())

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(tmp_path / "does-not-exist")

    def test_settings_survive_roundtrip(self, small_bundle, saved_dir):
        restored = load_bundle(saved_dir)
        assert restored.settings["n_samples"] == small_bundle.settings["n_samples"]

    def test_manifest_with_the_retired_use_batch_timing_setting_loads(
        self, small_bundle, tmp_path
    ):
        # Bundles written before the scalar install fork was deleted carry
        # the flag in their settings; it is inert and must not stop a load.
        assert "use_batch_timing" not in small_bundle.settings
        directory = save_bundle(small_bundle, tmp_path / "bundle")
        manifest = json.loads((directory / "bundle.json").read_text())
        manifest["settings"]["use_batch_timing"] = True
        (directory / "bundle.json").write_text(json.dumps(manifest))
        restored = load_bundle(directory)
        assert restored.settings["use_batch_timing"] is True
        dims = {"m": 96, "k": 64, "n": 48}
        assert restored.predictor("dgemm").predict_threads(
            dims, use_cache=False
        ) == small_bundle.predictor("dgemm").predict_threads(dims, use_cache=False)


class TestSchemaVersioning:
    def test_manifest_carries_schema_and_checksums(self, saved_dir):
        manifest = json.loads((saved_dir / "bundle.json").read_text())
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["bundle_version"] == 1
        for meta in manifest["routines"].values():
            assert meta["checksum"].startswith("sha256:")

    def test_bundle_version_parameter(self, small_bundle, tmp_path):
        directory = save_bundle(small_bundle, tmp_path / "v5", bundle_version=5)
        assert read_manifest(directory)["bundle_version"] == 5

    def test_newer_schema_rejected_with_clear_error(self, saved_dir):
        manifest_path = saved_dir / "bundle.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(BundleFormatError, match="schema version"):
            load_bundle(saved_dir)

    def test_invalid_json_rejected(self, saved_dir):
        (saved_dir / "bundle.json").write_text("{ not json")
        with pytest.raises(BundleFormatError, match="not valid JSON"):
            load_bundle(saved_dir)

    def test_missing_required_keys_rejected(self, saved_dir):
        (saved_dir / "bundle.json").write_text(json.dumps({"schema_version": 2}))
        with pytest.raises(BundleFormatError, match="required keys"):
            load_bundle(saved_dir)


#: A schema-v3 bundle written by the code before the log target (one
#: DecisionTree routine, one LinearRegression routine, both fitted to
#: seconds), with the plans that code made from it, ``predicted_time`` as
#: ``float.hex``.
V3_BUNDLE = Path(__file__).parent / "fixtures" / "bundle_v3"


def _recorded_plans():
    return json.loads((V3_BUNDLE / "plans.json").read_text())


def _manifest(directory):
    return json.loads((directory / "bundle.json").read_text())


def _rewrite(directory, edit):
    manifest = _manifest(directory)
    edit(manifest)
    (directory / "bundle.json").write_text(json.dumps(manifest))


def _as_log_target(bundle):
    """The bundle with every model's output read as log-seconds, as a bundle
    installed before the relative target holds it."""
    routines = {}
    for routine, installation in bundle.routines.items():
        live = installation.predictor
        predictor = ThreadPredictor(
            routine, live.pipeline, live.model, live.candidate_threads, live.model_name,
            target="log",
        )  # fmt: skip
        routines[routine] = dataclasses.replace(installation, predictor=predictor)
    return dataclasses.replace(bundle, routines=routines)


@pytest.fixture()
def log_saved_dir(small_bundle, tmp_path):
    return save_bundle(_as_log_target(small_bundle), tmp_path / "log-bundle")


class TestTarget:
    """Schema v4: each routine records what its model predicts."""

    def test_v4_round_trips_the_relative_target(self, small_bundle, saved_dir):
        manifest = _manifest(saved_dir)
        assert manifest["schema_version"] == 4
        assert {meta["target"] for meta in manifest["routines"].values()} == {"relative"}
        restored = load_bundle(saved_dir)
        for routine in small_bundle.installed_routines:
            predictor = restored.predictor(routine)
            assert predictor.target == "relative"
            assert predictor.level == small_bundle.predictor(routine).level
            assert manifest["routines"][routine]["level"] == predictor.level.to_dict()
            for dims in small_bundle.routines[routine].test_shapes[:3]:
                assert predictor.plan(dims, use_cache=False) == (
                    small_bundle.predictor(routine).plan(dims, use_cache=False)
                )

    def test_v4_round_trips_the_log_target(self, small_bundle, log_saved_dir):
        manifest = _manifest(log_saved_dir)
        assert manifest["schema_version"] == 4
        assert {meta["target"] for meta in manifest["routines"].values()} == {"log"}
        assert not any("level" in meta for meta in manifest["routines"].values())
        logged = _as_log_target(small_bundle)
        restored = load_bundle(log_saved_dir)
        for routine in small_bundle.installed_routines:
            assert restored.predictor(routine).target == "log"
            for dims in small_bundle.routines[routine].test_shapes[:3]:
                plan = restored.predictor(routine).plan(dims, use_cache=False)
                assert plan == logged.predictor(routine).plan(dims, use_cache=False)
                # The model's output read another way: the same thread choice.
                assert plan.threads == small_bundle.predictor(routine).predict_threads(dims)

    def test_v3_manifest_reads_as_seconds(self, small_bundle, saved_dir):
        def to_v3(manifest):
            manifest["schema_version"] = 3
            for meta in manifest["routines"].values():
                del meta["target"]

        _rewrite(saved_dir, to_v3)
        restored = load_bundle(saved_dir)
        for routine in small_bundle.installed_routines:
            predictor = restored.predictor(routine)
            assert predictor.target == "seconds"
            for dims in small_bundle.routines[routine].test_shapes[:3]:
                plan = predictor.plan(dims, use_cache=False)
                scores = predictor.predict_scores_batch([dims])[0]
                # Same argmin; the raw output is read as seconds, unconverted.
                assert plan.threads == small_bundle.predictor(routine).plan(
                    dims, use_cache=False
                ).threads
                assert plan.predicted_time == scores.min()
                np.testing.assert_array_equal(predictor.predict_runtimes(dims), scores)

    def test_bundle_written_before_the_log_target_plans_as_recorded(self):
        bundle = load_bundle(V3_BUNDLE)
        assert _manifest(V3_BUNDLE)["schema_version"] == 3
        # Installs no longer record a job count; a bundle that does still loads.
        assert bundle.settings["n_jobs"] == 1
        for routine, plans in _recorded_plans().items():
            predictor = bundle.predictor(routine)
            assert predictor.target == "seconds"
            for recorded in plans:
                plan = predictor.plan(recorded["dims"], use_cache=False)
                assert plan.threads == recorded["threads"]
                assert plan.predicted_time.hex() == recorded["predicted_time"]
            batch = predictor.plan_batch([recorded["dims"] for recorded in plans])
            assert [(p.threads, p.predicted_time.hex()) for p in batch] == [
                (recorded["threads"], recorded["predicted_time"]) for recorded in plans
            ]

    def test_migrating_a_v3_bundle_stamps_seconds(self, tmp_path):
        directory = tmp_path / "v3"
        shutil.copytree(V3_BUNDLE, directory)
        manifest = migrate_manifest(directory)
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert {meta["target"] for meta in manifest["routines"].values()} == {"seconds"}
        bundle = load_bundle(directory)
        for routine, plans in _recorded_plans().items():
            for recorded in plans:
                plan = bundle.predictor(routine).plan(recorded["dims"], use_cache=False)
                assert plan.predicted_time.hex() == recorded["predicted_time"]

    @pytest.mark.parametrize("target", ["LOG", "log10", "", None, 1])
    def test_unknown_target_rejected(self, saved_dir, target):
        def corrupt(manifest):
            manifest["routines"]["dgemm"]["target"] = target

        _rewrite(saved_dir, corrupt)
        with pytest.raises(BundleFormatError, match="target"):
            load_bundle(saved_dir)

    def test_relative_target_without_a_level_rejected(self, saved_dir):
        def strip(manifest):
            del manifest["routines"]["dgemm"]["level"]

        _rewrite(saved_dir, strip)
        with pytest.raises(BundleFormatError, match="level"):
            load_bundle(saved_dir)

    def test_log_predictions_are_seconds(self, log_saved_dir):
        predictor = load_bundle(log_saved_dir).predictor("dgemm")
        dims = {"m": 300, "k": 200, "n": 100}
        scores = predictor.predict_scores_batch([dims])[0]
        np.testing.assert_array_equal(predictor.predict_runtimes(dims), np.exp(scores))
        plan = predictor.plan(dims, use_cache=False)
        assert plan.predicted_time == math.exp(scores.min())

    def test_relative_predictions_are_seconds(self, saved_dir):
        predictor = load_bundle(saved_dir).predictor("dgemm")
        assert isinstance(predictor.level, LevelHead)
        dims = {"m": 300, "k": 200, "n": 100}
        scores = predictor.predict_scores_batch([dims])[0]
        level = predictor.level(dims)
        np.testing.assert_array_equal(predictor.predict_runtimes(dims), np.exp(scores) * level)
        plan = predictor.plan(dims, use_cache=False)
        assert plan.predicted_time == math.exp(scores.min()) * level
        assert predictor.plan_batch([dims], use_cache=False)[0] == plan


class TestChecksums:
    def test_corrupt_model_raises_clear_error(self, saved_dir):
        (saved_dir / "dgemm.model.pkl").write_bytes(b"corrupted bytes")
        with pytest.raises(BundleFormatError, match="Checksum mismatch"):
            load_bundle(saved_dir)

    def test_checksum_check_can_be_disabled(self, saved_dir):
        # Flipping verify_checksums off tolerates a stale checksum as long
        # as the pickle itself still parses.
        manifest_path = saved_dir / "bundle.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["routines"]["dgemm"]["checksum"] = "sha256:" + "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(BundleFormatError):
            load_bundle(saved_dir)
        assert load_bundle(saved_dir, verify_checksums=False)

    def test_missing_model_file_raises(self, saved_dir):
        (saved_dir / "dsyrk.model.pkl").unlink()
        with pytest.raises(BundleFormatError, match="does not exist"):
            load_bundle(saved_dir)

    def test_unpicklable_model_without_checksum_raises(self, saved_dir):
        _downgrade_to_v1(saved_dir)
        (saved_dir / "dgemm.model.pkl").write_bytes(b"corrupted bytes")
        with pytest.raises(BundleFormatError, match="unpickle"):
            load_bundle(saved_dir)

    def test_verify_bundle_reports_per_routine(self, saved_dir):
        assert verify_bundle(saved_dir)["ok"]
        (saved_dir / "dgemm.model.pkl").write_bytes(b"corrupted bytes")
        (saved_dir / "dsyrk.model.pkl").unlink()
        report = verify_bundle(saved_dir)
        assert not report["ok"]
        assert report["routines"]["dgemm"] == "checksum mismatch"
        assert report["routines"]["dsyrk"] == "missing file"


class TestOldSchemaCompatibility:
    def test_v1_manifest_loads(self, small_bundle, saved_dir):
        _downgrade_to_v1(saved_dir)
        restored = load_bundle(saved_dir)
        assert restored.installed_routines == small_bundle.installed_routines

    def test_v1_with_missing_optional_keys_loads(self, small_bundle, saved_dir):
        _downgrade_to_v1(saved_dir, strip_optional=True)
        restored = load_bundle(saved_dir)
        installation = restored.routines["dgemm"]
        assert installation.test_shapes == []
        assert len(installation.dataset) == 0
        assert installation.selection.best_model_name == installation.predictor.model_name
        dims = {"m": 200, "k": 150, "n": 100}
        np.testing.assert_allclose(
            restored.predictor("dgemm").predict_runtimes(dims),
            small_bundle.predictor("dgemm").predict_runtimes(dims),
            rtol=1e-12,
        )

    def test_verify_flags_missing_checksums(self, saved_dir):
        _downgrade_to_v1(saved_dir)
        report = verify_bundle(saved_dir)
        assert not report["ok"]
        assert set(report["routines"].values()) == {"no checksum"}


class TestMigration:
    def test_migrate_v1_to_current(self, saved_dir):
        _downgrade_to_v1(saved_dir)
        manifest = migrate_manifest(saved_dir)
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert "format_version" not in manifest
        assert verify_bundle(saved_dir)["ok"]
        assert load_bundle(saved_dir)

    def test_migrate_is_idempotent(self, saved_dir):
        before = (saved_dir / "bundle.json").read_text()
        migrate_manifest(saved_dir)
        assert (saved_dir / "bundle.json").read_text() == before

    def test_migrate_with_missing_model_fails(self, saved_dir):
        _downgrade_to_v1(saved_dir)
        (saved_dir / "dgemm.model.pkl").unlink()
        with pytest.raises(BundleFormatError, match="missing"):
            migrate_manifest(saved_dir)


class TestChecksumAlgorithms:
    def test_unsupported_algo_fails_verify_and_load(self, saved_dir):
        manifest_path = saved_dir / "bundle.json"
        manifest = json.loads(manifest_path.read_text())
        digest = manifest["routines"]["dgemm"]["checksum"].split(":", 1)[1]
        manifest["routines"]["dgemm"]["checksum"] = f"sha999:{digest}"
        manifest_path.write_text(json.dumps(manifest))
        report = verify_bundle(saved_dir)
        assert not report["ok"]
        assert report["routines"]["dgemm"] == "unsupported checksum"
        with pytest.raises(BundleFormatError, match="checksum format"):
            load_bundle(saved_dir)


class TestWriteRoutineModel:
    def test_default_filename_matches_save_bundle(self, small_bundle, tmp_path):
        from repro.core.persistence import write_routine_model

        directory = tmp_path / "staged"
        directory.mkdir()
        installation = small_bundle.routines["dgemm"]
        meta = write_routine_model(directory, installation)
        assert meta["model_file"] == "dgemm.model.pkl"
        assert meta["checksum"].startswith("sha256:")
        assert (directory / "dgemm.model.pkl").exists()
        assert meta["model_name"] == installation.predictor.model_name
        assert meta["preprocessing"] == (
            installation.predictor.pipeline.to_config().to_dict()
        )

    def test_versioned_filename_leaves_live_file_alone(self, saved_dir, small_bundle):
        from repro.core.persistence import load_routine, write_routine_model

        live_bytes = (saved_dir / "dgemm.model.pkl").read_bytes()
        installation = small_bundle.routines["dgemm"]
        meta = write_routine_model(
            saved_dir, installation, filename="dgemm.model.v2.pkl"
        )
        assert meta["model_file"] == "dgemm.model.v2.pkl"
        assert (saved_dir / "dgemm.model.pkl").read_bytes() == live_bytes
        # The staged file is loadable through the ordinary routine loader.
        restored = load_routine(
            saved_dir, "dgemm", meta, small_bundle.platform
        )
        assert restored.predictor.model_name == installation.predictor.model_name

    def test_no_tmp_residue(self, small_bundle, tmp_path):
        from repro.core.persistence import write_routine_model

        directory = tmp_path / "staged"
        directory.mkdir()
        write_routine_model(directory, small_bundle.routines["dgemm"])
        assert not list(directory.glob("*.tmp"))


class TestCalibratedSettings:
    def test_simulator_from_settings_applies_calibration(self, laptop):
        from repro.core.persistence import simulator_from_settings

        settings = {"seed": 3, "noise_level": 0.02,
                    "calibration": {"clock_ghz": 0.5}}
        simulator = simulator_from_settings(laptop, settings)
        assert simulator.seed == 3
        assert simulator.noise_level == 0.02
        assert simulator.platform.clock_ghz == pytest.approx(laptop.clock_ghz * 0.5)
        assert simulator.platform.name == laptop.name

    def test_missing_calibration_keeps_platform(self, laptop):
        from repro.core.persistence import simulator_from_settings

        simulator = simulator_from_settings(laptop, {"calibration": None})
        assert simulator.platform is laptop

    def test_calibrated_bundle_round_trips_through_load(
        self, small_bundle, tmp_path, laptop
    ):
        directory = save_bundle(small_bundle, tmp_path / "bundle")
        manifest = json.loads((directory / "bundle.json").read_text())
        manifest["settings"]["calibration"] = {"sync_cost_per_thread": 2.0}
        (directory / "bundle.json").write_text(json.dumps(manifest))
        restored = load_bundle(directory)
        assert restored.simulator.platform.sync_cost_per_thread == pytest.approx(
            laptop.sync_cost_per_thread * 2.0
        )
