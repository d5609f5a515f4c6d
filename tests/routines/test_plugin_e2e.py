"""End-to-end: a black-box routine registered with ``register_spec``
completes install -> verify -> serve -> adapt-to-PROMOTED.

The routine has no analytic cost model, only a ``measure`` hook standing in
for timing the real kernel on the machine (a synthetic scaling law reading
the live platform calibration, so machine drift moves its times and the
adaptation loop can re-learn them).  The core library never names it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.install import install_adsala
from repro.core.persistence import read_manifest, save_bundle, verify_bundle
from repro.machine.platforms import get_platform
from repro.routines import get_catalog, make_routine_spec, reset_catalog
from repro.serving import ServingEngine
from repro.serving.registry import ModelRegistry
from repro.serving.workload import generate_workload


def _measure(platform, precision, dims, threads):
    """Measured wall time (seconds) for batches of opaque_scan calls."""
    p = np.asarray(dims["p"], dtype=np.float64)
    q = np.asarray(dims["q"], dtype=np.float64)
    t = np.asarray(threads, dtype=np.float64)
    width = 2.0 if precision == "s" else 1.0
    rate = platform.peak_gflops_per_core * 1e9 * width
    work = 48.0 * p * q * np.sqrt(q)
    kernel = work / (rate * t / (1.0 + 0.10 * (t - 1.0)))
    itemsize = 4.0 if precision == "s" else 8.0
    traffic = 3.0 * p * q * itemsize / (
        platform.total_memory_bandwidth_gbs * 1e9 * t / (t + 5.0)
    )
    return kernel + traffic + 2e-6 * t


OPAQUE_SCAN = make_routine_spec(
    "opaque_scan",
    ("p", "q"),
    [
        ("input", ("p", "q"), "regular"),
        ("state", ("q", "q"), "regular"),
        ("output", ("p", "q"), "regular"),
    ],
    flops=lambda d: 48.0 * d["p"] * d["q"] * np.sqrt(
        np.asarray(d["q"], dtype=np.float64)
    ),
    measure=_measure,
    dim_ranges={"p": (64, 8192), "q": (32, 2048)},
)


@pytest.fixture()
def blackbox_registered():
    reset_catalog()
    get_catalog().register_spec(
        OPAQUE_SCAN, plugin_name="example-blackbox", plugin_version="1.0"
    )
    yield
    reset_catalog()


def test_core_never_imports_the_example_plugin():
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    for path in src.rglob("*.py"):
        assert "opaque_scan" not in path.read_text()


def test_blackbox_install_serve_adapt(blackbox_registered, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    save_bundle(
        install_adsala(
            platform=get_platform("gadi"),
            routines=["dopaque_scan"],
            n_samples=24,
            threads_per_shape=8,
            n_test_shapes=6,
        ),
        bundle,
    )
    manifest = read_manifest(bundle)
    assert manifest["schema_version"] == 4
    assert manifest["routines"]["dopaque_scan"]["plugin"] == {
        "name": "example-blackbox", "version": "1.0", "source": "runtime",
    }
    assert verify_bundle(bundle)["ok"]

    engine = ServingEngine(ModelRegistry().register(bundle))
    requests = generate_workload(["dopaque_scan"], 64)
    plans = engine.plan_many(request.as_tuple() for request in requests)
    assert [plan.routine for plan in plans] == ["dopaque_scan"] * 64
    assert all(plan.policy == "installed" for plan in plans)

    assert main([
        "adapt", "--bundle", str(bundle), "--routines", "dopaque_scan",
        "--requests", "96", "--drift-clock", "0.6", "--drift-bandwidth", "0.7",
        "--regather-shapes", "16", "--threads-per-shape", "8",
        "--test-shapes", "6", "--max-latency-regression", "10",
        "--require-promotion",
    ]) == 0
    assert "promoted" in capsys.readouterr().out


def test_blackbox_routines_listing(blackbox_registered, capsys):
    assert main(["routines", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"routines"}
    keys = {row["key"]: row for row in report["routines"]}
    assert keys["dopaque_scan"]["source"] == "runtime"
    assert keys["dopaque_scan"]["plugin"] == "example-blackbox"
    assert keys["dopaque_scan"]["simulator"] == "no"
    assert keys["dgemm"]["source"] == "builtin"
    assert keys["dgemm"]["simulator"] == "yes"
