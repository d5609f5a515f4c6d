"""End-to-end: a directory-discovered black-box plugin routine completes
install -> serve -> adapt-to-PROMOTED without the core ever importing it.

Uses the shipped ``examples/plugins`` directory (discovered through
``ADSALA_PLUGIN_PATH``), exactly like the CI plugin-smoke job.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.routines.catalog import PLUGIN_PATH_ENV, reset_catalog

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples" / "plugins"


@pytest.fixture()
def blackbox_env(monkeypatch):
    monkeypatch.setenv(PLUGIN_PATH_ENV, str(EXAMPLES_DIR))
    reset_catalog()
    yield
    reset_catalog()


def test_core_never_imports_the_example_plugin():
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    for path in src.rglob("*.py"):
        assert "blackbox_plugin" not in path.read_text()
        assert "opaque_scan" not in path.read_text()


def test_blackbox_install_serve_adapt(blackbox_env, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    assert main([
        "install", "--platform", "gadi", "--routines", "dopaque_scan",
        "--output", str(bundle), "--samples", "24",
        "--threads-per-shape", "8", "--test-shapes", "6",
    ]) == 0

    manifest = json.loads((bundle / "bundle.json").read_text())
    assert manifest["schema_version"] == 4
    assert manifest["routines"]["dopaque_scan"]["plugin"]["name"] == (
        "example-blackbox"
    )
    assert manifest["routines"]["dopaque_scan"]["plugin"]["source"] == "directory"

    assert main([
        "serve", "--bundle", str(bundle), "--requests", "64",
        "--routines", "dopaque_scan", "--observe",
    ]) == 0
    out = capsys.readouterr().out
    assert "dopaque_scan" in out

    assert main([
        "adapt", "--bundle", str(bundle), "--routines", "dopaque_scan",
        "--requests", "96", "--drift-clock", "0.6", "--drift-bandwidth", "0.7",
        "--regather-shapes", "16", "--threads-per-shape", "8",
        "--test-shapes", "6", "--max-latency-regression", "10",
        "--require-promotion",
    ]) == 0
    out = capsys.readouterr().out
    assert "promoted" in out


def test_blackbox_routines_listing(blackbox_env, capsys):
    assert main(["routines", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    keys = {row["key"]: row for row in report["routines"]}
    assert keys["dopaque_scan"]["source"] == "directory"
    assert keys["dopaque_scan"]["plugin"] == "example-blackbox"
    assert keys["dopaque_scan"]["simulator"] == "no"
    assert keys["dgemm"]["source"] == "builtin"
    assert keys["dgemm"]["simulator"] == "yes"
