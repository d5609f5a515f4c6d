"""Tests for the ``adsala`` command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.compiled import middle_of_ties
from repro.core.install import install_adsala
from repro.core.persistence import save_bundle
from repro.machine.platforms import get_platform


@pytest.fixture(scope="module")
def installed_dir(tmp_path_factory):
    """A tiny bundle installed once through the CLI and shared read-only."""
    directory = tmp_path_factory.mktemp("cli") / "bundle"
    exit_code = main(
        [
            "install",
            "--platform", "laptop",
            "--routines", "dgemm", "dsyrk",
            "--output", str(directory),
            "--samples", "8",
            "--threads-per-shape", "3",
            "--test-shapes", "4",
            "--bundle-version", "2",
        ]
    )
    assert exit_code == 0
    return directory


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_install_arguments(self):
        args = build_parser().parse_args(
            ["install", "--platform", "gadi", "--output", "/tmp/x", "--samples", "10"]
        )
        assert args.command == "install"
        assert args.platform == "gadi"
        assert args.samples == 10

    def test_bench_table_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "table99"])


class TestPlatformsCommand:
    def test_lists_all_presets(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "setonix" in out and "gadi" in out and "laptop" in out


class TestRoutinesCommand:
    def test_table_lists_builtin_catalog(self, capsys):
        assert main(["routines"]) == 0
        out = capsys.readouterr().out
        assert "Registered routines" in out
        assert "dgemm" in out
        assert "builtin-blas3" in out

    def test_json_mode_reports_provenance(self, capsys):
        assert main(["routines", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        rows = {row["key"]: row for row in report["routines"]}
        assert len(rows) >= 12
        assert rows["dgemm"]["source"] == "builtin"
        assert rows["dgemm"]["simulator"] == "yes"
        assert rows["strsm"]["dims"] == "m n"


class TestBenchCommand:
    def test_static_tables_print(self, capsys):
        for table in ("table1", "table2", "table3"):
            assert main(["bench", table]) == 0
        out = capsys.readouterr().out
        assert "GEMM" in out
        assert "LinearRegression" in out
        assert "memory_footprint" in out


class TestInstallAndPredict:
    def test_install_then_predict_roundtrip(self, tmp_path, capsys):
        bundle_dir = tmp_path / "bundle"
        exit_code = main(
            [
                "install",
                "--platform", "laptop",
                "--routines", "dgemm",
                "--output", str(bundle_dir),
                "--samples", "8",
                "--threads-per-shape", "3",
                "--test-shapes", "4",
            ]
        )
        assert exit_code == 0
        assert (bundle_dir / "bundle.json").exists()
        out = capsys.readouterr().out
        assert "dgemm" in out

        exit_code = main(
            [
                "predict",
                "--bundle", str(bundle_dir),
                "--routine", "dgemm",
                "--dims", "512", "256", "128",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "use" in out and "threads" in out

    @pytest.mark.parametrize("model", ["DecisionTree", "LinearRegression"])
    def test_predict_prints_the_tied_run(self, model, tmp_path, capsys):
        """A plan whose model predicts one minimum over several thread counts
        (a tree's flat leaf) says so, with the run and the count taken from
        its middle; a plan with one minimum (a linear model's) does not."""
        bundle = install_adsala(
            platform=get_platform("gadi"),
            routines=["dgemm"],
            n_samples=12,
            threads_per_shape=5,
            n_test_shapes=4,
            candidate_models=[model],
            seed=3,
        )
        bundle_dir = save_bundle(bundle, tmp_path / "bundle")
        predictor = bundle.predictor("dgemm")
        counts = predictor.candidate_threads
        scores = predictor.predict_scores_batch([{"m": 1500, "k": 700, "n": 2300}])
        tied = np.flatnonzero(scores[0] == scores[0].min())
        assert (tied.size > 1) == (model == "DecisionTree")
        dims = ["--dims", "1500", "700", "2300"]
        main(["predict", "--bundle", str(bundle_dir), "--routine", "dgemm", *dims])
        out = capsys.readouterr().out
        took = counts[middle_of_ties(scores)[0]]
        assert f"use {took} threads" in out
        if tied.size == 1:
            assert "model flat over" not in out
        else:
            assert f"model flat over {counts[tied[0]]}-{counts[tied[-1]]} threads" in out
            assert out.rstrip().endswith(f"; took {took}")

    def test_predict_with_wrong_dimension_count(self, tmp_path, capsys):
        bundle_dir = tmp_path / "bundle"
        main(
            [
                "install",
                "--platform", "laptop",
                "--routines", "dsyrk",
                "--output", str(bundle_dir),
                "--samples", "6",
                "--threads-per-shape", "3",
                "--test-shapes", "3",
            ]
        )
        capsys.readouterr()
        exit_code = main(
            ["predict", "--bundle", str(bundle_dir), "--routine", "dsyrk", "--dims", "100"]
        )
        assert exit_code == 2
        assert "expects" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_generated_workload(self, installed_dir, capsys):
        exit_code = main(
            [
                "serve",
                "--bundle", str(installed_dir),
                "--requests", "48",
                "--mix", "cycling",
                "--batch-size", "16",
                "--seed", "3",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "plans/sec" in out
        assert "bundle v2, schema v4" in out
        assert "dgemm" in out and "dsyrk" in out

    def test_serve_workload_file(self, installed_dir, tmp_path, capsys):
        from repro.serving.workload import generate_workload, save_workload

        workload_path = tmp_path / "requests.jsonl"
        save_workload(
            workload_path,
            generate_workload(["dgemm", "dsyrk"], 20, "uniform", seed=1),
        )
        exit_code = main(
            ["serve", "--bundle", str(installed_dir), "--workload", str(workload_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Served 20 plans" in out

    def test_serve_observe_reports_drift_section(self, installed_dir, capsys):
        exit_code = main(
            [
                "serve",
                "--bundle", str(installed_dir),
                "--requests", "32",
                "--observe",
                "--seed", "5",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "mean_err" in out
        assert "drift" in out.lower()

    def test_serve_empty_workload_fails(self, installed_dir, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        exit_code = main(
            ["serve", "--bundle", str(installed_dir), "--workload", str(empty)]
        )
        assert exit_code == 2
        assert "empty" in capsys.readouterr().err

    def test_serve_sharded_multi_client(self, installed_dir, capsys):
        exit_code = main(
            [
                "serve",
                "--bundle", str(installed_dir),
                "--requests", "64",
                "--mix", "skewed",
                "--shards", "2",
                "--clients", "4",
                "--seed", "7",
                "--observe",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Served 64 plans" in out  # nothing lost across clients
        assert "2 thread shards x 4 clients" in out
        assert "0 shed (block mode" in out

    def test_serve_unsupervised_deadline_run_reports_its_sheds(
        self, installed_dir, capsys
    ):
        # Without a supervisor there is no supervision line to carry the
        # deadline-expired count; the run must still say what it shed.
        exit_code = main(
            [
                "serve",
                "--bundle", str(installed_dir),
                "--requests", "40",
                "--shards", "2",
                "--no-supervise",
                "--deadline", "1e-9",
                "--seed", "3",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Served 0 plans" in out
        assert "supervision: off | 40 deadline-expired" in out

    def test_serve_process_backend(self, installed_dir, capsys):
        exit_code = main(
            [
                "serve",
                "--bundle", str(installed_dir),
                "--requests", "48",
                "--mix", "cycling",
                "--shards", "2",
                "--backend", "process",
                "--clients", "2",
                "--seed", "11",
                "--observe",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Served 48 plans" in out  # zero lost, zero shed
        assert "2 process shards x 2 clients" in out
        assert "0 shed (block mode" in out

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_serve_engine_options_reach_every_shard(
        self, installed_dir, tmp_path, capsys, backend
    ):
        """--batch-size, --no-cache and --drift-threshold configure the
        engines behind the frontend, whichever backend builds them."""
        from repro.obs.journal import read_journal

        journal = tmp_path / "journal.jsonl"
        exit_code = main(
            [
                "serve",
                "--bundle", str(installed_dir),
                "--requests", "160",
                "--routines", "dgemm",
                "--mix", "cycling",
                "--shards", "2",
                "--backend", backend,
                "--clients", "2",
                "--seed", "5",
                "--observe",
                "--drift-threshold", "1e-9",
                "--no-cache",
                "--batch-size", "4",
                "--journal", str(journal),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Served 160 plans" in out
        assert f"2 {backend} shards x 2 clients" in out
        # Any observed error clears a 1e-9 threshold.
        assert "Re-install candidates (drift > 1e-09): dgemm" in out
        (run_end,) = [
            row for row in read_journal(journal) if row["event"] == "run_end"
        ]
        stats = run_end["stats"]
        assert stats["batch_size_limit"] == 4
        assert 0 < stats["max_batch_size"] <= 4
        # A cycling stream repeats its shapes; only --no-cache keeps every
        # plan off the prediction LRU.
        assert stats["cache"]["cache_hits"] == 0
        assert stats["routines"]["dgemm"]["cache_hits"] == 0
        assert stats["reinstall_candidates"] == ["dgemm"]

    def test_serve_removed_shm_fault_kind_fails_loudly(self, installed_dir, capsys):
        exit_code = main(
            [
                "serve",
                "--bundle", str(installed_dir),
                "--requests", "8",
                "--inject-faults", "shm:1",
            ]
        )
        assert exit_code == 1
        captured = capsys.readouterr()
        assert "Served" not in captured.out  # nothing ran with an empty schedule
        assert "unknown fault kind 'shm'" in captured.err
        for kind in ("kill", "hang", "corrupt", "slow"):
            assert kind in captured.err

    def test_serve_invalid_shard_count_fails(self, installed_dir, capsys):
        exit_code = main(
            ["serve", "--bundle", str(installed_dir), "--shards", "0"]
        )
        assert exit_code == 2
        assert "--shards" in capsys.readouterr().err


class TestBundleCommand:
    def test_inspect(self, installed_dir, capsys):
        assert main(["bundle", "inspect", "--bundle", str(installed_dir)]) == 0
        out = capsys.readouterr().out
        assert "schema version: 4" in out
        assert "sha256" not in out  # checksums shown truncated, without prefix
        assert "dgemm" in out
        assert "target=relative" in out

    def test_verify_ok(self, installed_dir, capsys):
        assert main(["bundle", "verify", "--bundle", str(installed_dir)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_detects_corruption(self, installed_dir, tmp_path, capsys):
        import shutil

        corrupt = tmp_path / "corrupt"
        shutil.copytree(installed_dir, corrupt)
        (corrupt / "dgemm.model.pkl").write_bytes(b"junk")
        assert main(["bundle", "verify", "--bundle", str(corrupt)]) == 1
        captured = capsys.readouterr()
        assert "checksum mismatch" in captured.out
        assert "FAILED" in captured.err

    def test_migrate_upgrades_v1_manifest(self, installed_dir, tmp_path, capsys):
        import shutil

        legacy = tmp_path / "legacy"
        shutil.copytree(installed_dir, legacy)
        manifest_path = legacy / "bundle.json"
        manifest = json.loads(manifest_path.read_text())
        manifest.pop("schema_version")
        manifest.pop("bundle_version")
        manifest["format_version"] = 1
        for meta in manifest["routines"].values():
            meta.pop("checksum")
        manifest_path.write_text(json.dumps(manifest))

        assert main(["bundle", "verify", "--bundle", str(legacy)]) == 1
        capsys.readouterr()
        assert main(["bundle", "migrate", "--bundle", str(legacy)]) == 0
        assert "v1 -> v4" in capsys.readouterr().out
        assert main(["bundle", "verify", "--bundle", str(legacy)]) == 0

    def test_missing_bundle_reports_error(self, tmp_path, capsys):
        assert main(["bundle", "inspect", "--bundle", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().err


class TestRegistryRoundTripViaCli:
    def test_cli_bundle_serves_through_registry(self, installed_dir):
        from repro.serving.engine import ServingEngine
        from repro.serving.registry import ModelRegistry

        registry = ModelRegistry()
        handle = registry.register(installed_dir, name="cli")
        assert handle.bundle_version == 2
        engine = ServingEngine(handle)
        plan = engine.plan("dgemm", m=128, k=128, n=64)
        assert plan.threads >= 1
        assert handle.loaded_routines == ["dgemm"]


class TestServeErrorPaths:
    def test_unknown_routine_reports_clean_error(self, installed_dir, capsys):
        exit_code = main(
            ["serve", "--bundle", str(installed_dir), "--routines", "bogus"]
        )
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_zero_requests_reports_clean_error(self, installed_dir, capsys):
        exit_code = main(
            ["serve", "--bundle", str(installed_dir), "--requests", "0"]
        )
        assert exit_code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_bundle_reports_clean_error(self, tmp_path, capsys):
        exit_code = main(["serve", "--bundle", str(tmp_path / "nope")])
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err


@pytest.fixture()
def adaptable_dir(installed_dir, tmp_path):
    """A private copy of the installed bundle (adaptation mutates it)."""
    import shutil

    target = tmp_path / "adaptable"
    shutil.copytree(installed_dir, target)
    return target


ADAPT_ARGS = [
    "--requests", "200",
    "--drift-clock", "0.55",
    "--drift-sync", "2.5",
    "--regather-shapes", "10",
    "--threads-per-shape", "4",
    "--test-shapes", "6",
    "--candidates", "LinearRegression", "DecisionTree",
    "--max-latency-regression", "2.0",
]


class TestAdaptCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["adapt", "--bundle", "/tmp/x"])
        assert args.command == "adapt"
        assert args.mix == "skewed"
        assert args.drift_clock == 1.0
        assert not args.watch

    def test_no_drift_means_no_promotion(self, adaptable_dir, capsys):
        exit_code = main(["adapt", "--bundle", str(adaptable_dir), "--requests", "64"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "nothing to do" in out
        assert "Bundle at version v2" in out  # installed at --bundle-version 2

    def test_injected_drift_promotes_and_recovers(self, adaptable_dir, capsys):
        exit_code = main(
            ["adapt", "--bundle", str(adaptable_dir), "--require-promotion"]
            + ADAPT_ARGS
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "Injected drift" in out
        assert "promoted" in out
        assert "Bundle at version v3" in out
        assert (adaptable_dir / "adaptation_log.jsonl").exists()
        assert (adaptable_dir / "history" / "v2").is_dir()

    def test_require_promotion_fails_without_drift(self, adaptable_dir, capsys):
        exit_code = main(
            [
                "adapt", "--bundle", str(adaptable_dir),
                "--requests", "64", "--require-promotion",
            ]
        )
        assert exit_code == 1
        assert "did not promote" in capsys.readouterr().err

    def test_missing_bundle_reports_clean_error(self, tmp_path, capsys):
        exit_code = main(["adapt", "--bundle", str(tmp_path / "nope")])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestRollbackCommand:
    def test_rollback_after_adapt_restores_bytes(self, adaptable_dir, capsys):
        before = {
            name: (adaptable_dir / name).read_bytes()
            for name in ("bundle.json", "dgemm.model.pkl", "dsyrk.model.pkl")
        }
        assert (
            main(["adapt", "--bundle", str(adaptable_dir)] + ADAPT_ARGS) == 0
        )
        capsys.readouterr()
        assert main(["bundle", "rollback", "--bundle", str(adaptable_dir)]) == 0
        out = capsys.readouterr().out
        assert "v3 -> v2" in out
        after = {
            name: (adaptable_dir / name).read_bytes()
            for name in ("bundle.json", "dgemm.model.pkl", "dsyrk.model.pkl")
        }
        assert after == before

    def test_rollback_without_history_fails_cleanly(self, adaptable_dir, capsys):
        exit_code = main(["bundle", "rollback", "--bundle", str(adaptable_dir)])
        assert exit_code == 1
        assert "No archived version" in capsys.readouterr().err

    def test_rollback_to_explicit_version(self, adaptable_dir, capsys):
        assert (
            main(["adapt", "--bundle", str(adaptable_dir)] + ADAPT_ARGS) == 0
        )
        assert main(["bundle", "rollback", "--bundle", str(adaptable_dir)]) == 0
        capsys.readouterr()
        exit_code = main(
            [
                "bundle", "rollback", "--bundle", str(adaptable_dir),
                "--to-version", "3",
            ]
        )
        assert exit_code == 0
        assert "v2 -> v3" in capsys.readouterr().out


class TestServeShowsAdaptationState:
    def test_observe_reports_lifecycle_from_audit_trail(
        self, adaptable_dir, capsys
    ):
        assert (
            main(["adapt", "--bundle", str(adaptable_dir)] + ADAPT_ARGS) == 0
        )
        capsys.readouterr()
        exit_code = main(
            [
                "serve", "--bundle", str(adaptable_dir),
                "--requests", "64", "--observe",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Adaptation state" in out
        assert "promoted" in out
        # The promoted, calibrated bundle serves without drift flags.
        assert "No routine drifted" in out

    def test_observe_without_audit_trail_stays_quiet(self, installed_dir, capsys):
        exit_code = main(
            [
                "serve", "--bundle", str(installed_dir),
                "--requests", "32", "--observe",
            ]
        )
        assert exit_code == 0
        assert "Adaptation state" not in capsys.readouterr().out


class TestObservabilityCli:
    def test_parser_accepts_observability_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--bundle", "/b", "--metrics-port", "0",
                "--journal", "/tmp/j.jsonl", "--journal-max-bytes", "1000",
            ]
        )
        assert args.metrics_port == 0 and args.journal == "/tmp/j.jsonl"
        args = build_parser().parse_args(
            ["analyze", "--journal", "/tmp/j.jsonl", "--window", "0.5", "--json"]
        )
        assert args.command == "analyze" and args.as_json is True
        with pytest.raises(SystemExit):  # --journal is required
            build_parser().parse_args(["analyze"])

    def test_serve_journal_metrics_then_analyze(self, installed_dir, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        exit_code = main(
            [
                "serve",
                "--bundle", str(installed_dir),
                "--requests", "48",
                "--mix", "cycling",
                "--shards", "2",
                "--clients", "2",
                "--seed", "9",
                "--observe",
                "--journal", str(journal),
                "--metrics-port", "0",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "metrics: http://127.0.0.1:" in out
        assert f"journal: {journal}" in out
        assert journal.exists()

        from repro.obs.journal import read_journal

        rows = list(read_journal(journal))
        events = {row["event"] for row in rows}
        assert {"run_start", "plan", "observation", "run_end"} <= events
        plans = [row for row in rows if row["event"] == "plan"]
        assert len(plans) == 48
        assert all(row["version"] == 2 for row in plans)  # bundle v2 fixture
        assert all(row["shard"] in (0, 1) for row in plans)

        assert main(["analyze", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "Realized speedup vs max-threads baseline" in out
        assert "observed" in out  # --observe gives the measured basis
        assert "dgemm" in out and "dsyrk" in out
        assert "Prediction error by routine x bundle version" in out
        assert "Supervision" in out and "Capacity" in out

    def test_serve_process_backend_with_observability(
        self, installed_dir, tmp_path, capsys
    ):
        journal = tmp_path / "journal.jsonl"
        exit_code = main(
            [
                "serve",
                "--bundle", str(installed_dir),
                "--requests", "32",
                "--shards", "2",
                "--backend", "process",
                "--clients", "2",
                "--seed", "13",
                "--journal", str(journal),
                "--metrics-port", "0",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Served 32 plans" in out
        assert "metrics: http://127.0.0.1:" in out
        assert main(["analyze", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        # No --observe: speedup falls back to the model's own predictions.
        assert "predicted" in out

    def test_analyze_json_output(self, installed_dir, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        assert main(
            [
                "serve",
                "--bundle", str(installed_dir),
                "--requests", "24",
                "--seed", "4",
                "--observe",
                "--journal", str(journal),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["analyze", "--journal", str(journal), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["plans"] == 24
        assert set(report["speedup_by_routine"]) <= {"dgemm", "dsyrk"}
        for entry in report["speedup_by_routine"].values():
            assert entry["basis"] == "observed"
            assert entry["speedup"] > 0
        assert report["capacity"]["windows"]
        # Single-engine run: the run_end snapshot has no supervision or
        # admission block, just the request total.
        assert report["supervision"] == {"requests": 24}

    def test_analyze_missing_journal_fails(self, tmp_path, capsys):
        exit_code = main(["analyze", "--journal", str(tmp_path / "nope.jsonl")])
        assert exit_code == 1
        assert "no journal" in capsys.readouterr().err
