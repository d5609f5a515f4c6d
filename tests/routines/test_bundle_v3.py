"""Bundle schema v3: plugin provenance round-trips and failure modes."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.install import install_adsala
from repro.core.persistence import (
    SCHEMA_VERSION,
    BundleFormatError,
    load_bundle,
    migrate_manifest,
    read_manifest,
    save_bundle,
    verify_bundle,
)
from repro.machine.platforms import get_platform
from repro.routines.catalog import get_catalog, reset_catalog
from repro.routines.spec import make_routine_spec
from repro.serving.registry import BundleHandle


@pytest.fixture()
def fresh_global_catalog():
    reset_catalog()
    yield get_catalog()
    reset_catalog()


def _register_toy(catalog):
    def measure(platform, precision, dims, threads):
        p = np.asarray(dims["p"], dtype=np.float64)
        q = np.asarray(dims["q"], dtype=np.float64)
        t = np.asarray(threads, dtype=np.float64)
        rate = platform.peak_gflops_per_core * 1e9
        return 16.0 * p * q / (rate * t / (1.0 + 0.1 * (t - 1.0))) + 1e-6 * t

    spec = make_routine_spec(
        "toy",
        ("p", "q"),
        [("A", ("p", "q"), "regular"), ("B", ("p", "q"), "regular")],
        flops=lambda d: 16.0 * d["p"] * d["q"],
        measure=measure,
        dim_ranges={"p": (32, 4096), "q": (32, 4096)},
    )
    catalog.register_spec(spec, plugin_name="toy-plugin", plugin_version="7")


def _toy_bundle(tmp_path, catalog):
    _register_toy(catalog)
    bundle = install_adsala(
        platform=get_platform("laptop"),
        routines=["dtoy"],
        n_samples=16,
        threads_per_shape=6,
        n_test_shapes=4,
        seed=0,
    )
    directory = tmp_path / "bundle"
    save_bundle(bundle, directory)
    return directory


class TestSchemaV3:
    def test_current_schema_is_4(self):
        assert SCHEMA_VERSION == 4

    def test_builtin_provenance_recorded(self, tmp_path):
        bundle = install_adsala(
            platform=get_platform("laptop"),
            routines=["dgemm"],
            n_samples=12,
            threads_per_shape=6,
            n_test_shapes=4,
            seed=0,
        )
        save_bundle(bundle, tmp_path / "b")
        manifest = read_manifest(tmp_path / "b")
        assert manifest["schema_version"] == 4
        plugin = manifest["routines"]["dgemm"]["plugin"]
        assert plugin == {
            "name": "builtin-blas3", "version": "1", "source": "builtin",
        }

    def test_plugin_provenance_roundtrip_through_registry(
        self, tmp_path, fresh_global_catalog
    ):
        directory = _toy_bundle(tmp_path, fresh_global_catalog)
        manifest = read_manifest(directory)
        assert manifest["routines"]["dtoy"]["plugin"]["name"] == "toy-plugin"
        assert manifest["routines"]["dtoy"]["plugin"]["version"] == "7"

        handle = BundleHandle(directory)
        assert handle.schema_version == 4
        plan = handle.predictor("dtoy").plan({"p": 512, "q": 512})
        assert plan.threads >= 1

        # hot reload after an in-place rewrite keeps serving the plugin key
        bundle = load_bundle(directory)
        save_bundle(bundle, directory, bundle_version=2)
        assert handle.reload()
        assert handle.bundle_version == 2
        assert handle.predictor("dtoy").plan({"p": 512, "q": 512}).threads >= 1

    def test_missing_plugin_fails_with_named_error(
        self, tmp_path, fresh_global_catalog
    ):
        directory = _toy_bundle(tmp_path, fresh_global_catalog)
        reset_catalog()  # the toy plugin is gone from the new catalog
        with pytest.raises(BundleFormatError) as excinfo:
            load_bundle(directory)
        message = str(excinfo.value)
        assert "toy-plugin" in message
        assert "dtoy" in message
        assert "ADSALA_PLUGIN_PATH" in message

    def test_missing_plugin_surfaces_in_verify(
        self, tmp_path, fresh_global_catalog
    ):
        directory = _toy_bundle(tmp_path, fresh_global_catalog)
        reset_catalog()
        report = verify_bundle(directory)
        assert report["routines"]["dtoy"] == "unknown plugin"
        assert not report["ok"]

    def test_v2_bundle_still_loads(self, tmp_path):
        bundle = install_adsala(
            platform=get_platform("laptop"),
            routines=["dgemm"],
            n_samples=12,
            threads_per_shape=6,
            n_test_shapes=4,
            seed=0,
        )
        directory = tmp_path / "v2"
        save_bundle(bundle, directory)
        manifest = json.loads((directory / "bundle.json").read_text())
        manifest["schema_version"] = 2
        for meta in manifest["routines"].values():
            meta.pop("plugin", None)
        (directory / "bundle.json").write_text(json.dumps(manifest))

        loaded = load_bundle(directory)
        assert "dgemm" in loaded.routines

        migrated = migrate_manifest(directory)
        assert migrated["schema_version"] == 4
        assert migrated["routines"]["dgemm"]["plugin"]["name"] == "builtin-blas3"

    def test_v2_migrates_via_cli(self, tmp_path, capsys):
        bundle = install_adsala(
            platform=get_platform("laptop"),
            routines=["dgemm"],
            n_samples=12,
            threads_per_shape=6,
            n_test_shapes=4,
            seed=0,
        )
        directory = tmp_path / "v2"
        save_bundle(bundle, directory)
        manifest = json.loads((directory / "bundle.json").read_text())
        manifest["schema_version"] = 2
        for meta in manifest["routines"].values():
            meta.pop("plugin", None)
        (directory / "bundle.json").write_text(json.dumps(manifest))

        assert main(["bundle", "migrate", "--bundle", str(directory)]) == 0
        migrated = read_manifest(directory)
        assert migrated["schema_version"] == 4
        assert migrated["routines"]["dgemm"]["plugin"]["source"] == "builtin"
