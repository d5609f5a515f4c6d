"""Tests for the top-level public API surface."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import blas, core, harness, machine, ml, preprocessing


class TestTopLevelExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_entry_points_importable(self):
        assert callable(repro.install_adsala)
        assert inspect.isclass(repro.AdsalaBlas)
        assert inspect.isclass(repro.ThreadPredictor)
        assert callable(repro.get_platform)

    def test_list_platforms_exposed(self):
        assert set(repro.list_platforms()) >= {"setonix", "gadi", "laptop"}


SRC = Path(__file__).resolve().parents[1] / "src"

#: The end-to-end benchmark's set-up probe: package, platform and catalog.
SETUP_PROBE = (
    "import repro\n"
    "from repro.blas.api import parse_routine\n"
    "repro.get_platform('gadi')\n"
    "[parse_routine(r) for r in ['dgemm', 'dsymm', 'dsyrk']]\n"
)

#: Heavy modules a call needs only when it fits or serves.
HEAVY = ("scipy", "repro.adaptive", "repro.serving")


def _fresh_modules(code, *names):
    """Run ``code`` in a fresh interpreter; report which of ``names`` it loaded."""
    report = f"import json, sys\nprint(json.dumps({{n: n in sys.modules for n in {names!r}}}))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code + report],
        check=True, capture_output=True, text=True, env=env, timeout=120,
    ).stdout
    return json.loads(out.splitlines()[-1])


class TestColdImport:
    """What a fresh process loads: module sets, not timings."""

    def test_setup_probe_loads_no_heavy_module(self):
        assert _fresh_modules(SETUP_PROBE, *HEAVY) == dict.fromkeys(HEAVY, False)

    def test_cli_help_loads_no_heavy_module(self):
        code = (
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
            "    main(['--help'])\n"
        )
        assert _fresh_modules(code, *HEAVY) == dict.fromkeys(HEAVY, False)

    def test_cold_plan_never_loads_scipy(self, small_bundle, tmp_path):
        from repro.core.persistence import save_bundle

        save_bundle(small_bundle, tmp_path / "bundle")
        code = (
            "from repro import AdsalaRuntime\n"
            "from repro.core.persistence import load_bundle\n"
            f"runtime = AdsalaRuntime(load_bundle({str(tmp_path / 'bundle')!r}))\n"
            "assert runtime.plan('dgemm', m=512, k=256, n=384).threads >= 1\n"
            "from repro.ml import _native\n"
            "kernels = _native.load_kernels()\n"
            "assert kernels is None or 'growers_reason' not in vars(kernels)  # nothing grew\n"
        )
        assert _fresh_modules(code, "scipy") == {"scipy": False}

    def test_star_import_resolves_every_name(self):
        code = (
            "import repro\n"
            "names = {}\n"
            "exec('from repro import *', names)\n"
            "assert sorted(set(names) - {'__builtins__'}) == sorted(repro.__all__)\n"
            "assert repro.serving.ShardedFrontend is names['ShardedFrontend']\n"
        )
        assert _fresh_modules(code, "repro.adaptive") == {"repro.adaptive": True}

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
            repro.not_a_name


class TestSubpackageExports:
    @pytest.mark.parametrize("module", [ml, preprocessing, blas, machine, core, harness])
    def test_subpackage_all_resolves(self, module):
        assert hasattr(module, "__all__") and module.__all__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"

    @pytest.mark.parametrize("module", [ml, preprocessing, blas, machine, core, harness])
    def test_subpackage_has_docstring(self, module):
        assert module.__doc__ and len(module.__doc__.strip()) > 40


class TestDocumentation:
    def test_public_classes_have_docstrings(self):
        from repro.core.install import InstallationBundle, install_adsala
        from repro.core.predictor import ThreadPredictor
        from repro.core.runtime import AdsalaBlas, AdsalaRuntime
        from repro.machine.simulator import TimingSimulator

        for obj in (InstallationBundle, install_adsala, ThreadPredictor,
                    AdsalaBlas, AdsalaRuntime, TimingSimulator):
            assert obj.__doc__ and len(obj.__doc__.strip()) > 20

    def test_candidate_models_have_docstrings(self):
        from repro.ml.model_zoo import CANDIDATE_MODEL_NAMES, make_model

        for name in CANDIDATE_MODEL_NAMES:
            model = make_model(name)
            assert type(model).__doc__ and len(type(model).__doc__.strip()) > 20
