"""Catalog registration, discovery and resolution tests."""

import numpy as np
import pytest

from repro.routines.catalog import (
    PLUGIN_PATH_ENV,
    RoutineCatalog,
    UnknownRoutineError,
    build_catalog,
    get_catalog,
    reset_catalog,
)
from repro.routines.plugin import RoutinePlugin, SpecListPlugin
from repro.routines.spec import make_routine_spec

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture()
def fresh_global_catalog():
    reset_catalog()
    yield
    reset_catalog()


def _toy_spec(name="toy", dims=("p", "q")):
    return make_routine_spec(
        name,
        dims,
        [("A", dims, "regular")],
        flops=lambda d: float(np.prod([d[k] for k in dims])),
        measure=lambda platform, prec, d, t: np.asarray(t, dtype=float),
    )


PLUGIN_FILE = '''
import numpy as np
from repro.routines import make_routine_spec

PLUGIN_NAME = "file-plugin"
PLUGIN_VERSION = "2.1"
ROUTINES = [
    make_routine_spec(
        "fileroutine",
        ("p", "q"),
        [("A", ("p", "q"), "regular")],
        flops=lambda d: 1.0 * d["p"] * d["q"],
        measure=lambda platform, prec, dims, t: np.asarray(t, dtype=float),
    )
]
'''


class TestRegistration:
    def test_builtins_present(self):
        catalog = build_catalog(plugin_dirs=[], entry_points=False)
        assert "gemm" in catalog
        assert "dgemm" in catalog.keys()
        assert len(catalog.keys()) == 12
        entry = catalog.entry("gemm")
        assert entry.source == "builtin"
        assert entry.has_simulator

    def test_register_spec_and_resolve(self):
        catalog = build_catalog(plugin_dirs=[], entry_points=False)
        catalog.register_spec(_toy_spec(), plugin_name="t", plugin_version="9")
        prefix, base, spec = catalog.resolve("dtoy")
        assert (prefix, base) == ("d", "toy")
        assert catalog.entry_for_key("stoy").provenance() == {
            "name": "t", "version": "9", "source": "runtime",
        }

    def test_bare_base_name_defaults_to_double(self):
        catalog = build_catalog(plugin_dirs=[], entry_points=False)
        prefix, base, _ = catalog.resolve("gemm")
        assert (prefix, base) == ("d", "gemm")

    def test_collision_is_hard_error(self):
        catalog = build_catalog(plugin_dirs=[], entry_points=False)
        with pytest.raises(ValueError, match="collides"):
            catalog.register_spec(
                _toy_spec("gemm", ("m", "k", "n")), plugin_name="rogue"
            )

    def test_unknown_routine_error_is_structured(self):
        catalog = build_catalog(plugin_dirs=[], entry_points=False)
        with pytest.raises(UnknownRoutineError) as excinfo:
            catalog.resolve("dnope")
        assert excinfo.value.routine == "dnope"
        assert "dgemm" in excinfo.value.known_keys
        assert "Unknown BLAS routine" in str(excinfo.value)
        assert "dgemm" in str(excinfo.value)
        assert isinstance(excinfo.value, KeyError)

    def test_unsupported_precision_rejected(self):
        catalog = build_catalog(plugin_dirs=[], entry_points=False)
        spec = make_routine_spec(
            "single",
            ("p", "q"),
            [("A", ("p", "q"), "regular")],
            flops=lambda d: 1.0 * d["p"] * d["q"],
            precisions=("s",),
            measure=lambda platform, prec, dims, t: np.asarray(t, dtype=float),
        )
        catalog.register_spec(spec, plugin_name="t")
        assert catalog.resolve("ssingle")[0] == "s"
        assert catalog.resolve("single")[0] == "s"
        with pytest.raises(UnknownRoutineError):
            catalog.resolve("dsingle")

    def test_empty_plugin_rejected(self):
        catalog = RoutineCatalog()
        with pytest.raises(ValueError, match="no routine specs"):
            catalog.register_plugin(SpecListPlugin("empty", []))


class TestDirectoryDiscovery:
    def test_loads_plugin_file(self, tmp_path):
        (tmp_path / "myplugin.py").write_text(PLUGIN_FILE)
        catalog = build_catalog(plugin_dirs=[tmp_path], entry_points=False)
        entry = catalog.entry("fileroutine")
        assert entry.plugin_name == "file-plugin"
        assert entry.plugin_version == "2.1"
        assert entry.source == "directory"
        assert not entry.has_simulator

    def test_underscore_files_skipped(self, tmp_path):
        (tmp_path / "_private.py").write_text("raise RuntimeError('boom')")
        catalog = build_catalog(plugin_dirs=[tmp_path], entry_points=False)
        assert catalog.load_errors == []

    def test_broken_plugin_skipped_with_warning(self, tmp_path):
        (tmp_path / "broken.py").write_text("raise RuntimeError('boom')")
        (tmp_path / "good.py").write_text(PLUGIN_FILE)
        with pytest.warns(RuntimeWarning, match="broken"):
            catalog = build_catalog(plugin_dirs=[tmp_path], entry_points=False)
        # the broken file is recorded, the good one still loads
        assert any("broken" in origin for origin, _ in catalog.load_errors)
        assert "fileroutine" in catalog

    def test_missing_directory_recorded(self, tmp_path):
        with pytest.warns(RuntimeWarning, match="not a directory"):
            catalog = build_catalog(
                plugin_dirs=[tmp_path / "absent"], entry_points=False
            )
        assert catalog.load_errors

    def test_register_convention(self, tmp_path):
        (tmp_path / "reg.py").write_text(
            PLUGIN_FILE.replace("ROUTINES = [", "_SPECS = [")
            + "\ndef register(catalog):\n"
            "    for spec in _SPECS:\n"
            "        catalog.register_spec(spec, plugin_name='via-register')\n"
        )
        catalog = build_catalog(plugin_dirs=[tmp_path], entry_points=False)
        assert catalog.entry("fileroutine").plugin_name == "via-register"

    def test_module_without_conventions_is_error(self, tmp_path):
        (tmp_path / "nothing.py").write_text("x = 1\n")
        with pytest.warns(RuntimeWarning, match="nothing"):
            catalog = build_catalog(plugin_dirs=[tmp_path], entry_points=False)
        assert any("nothing" in origin for origin, _ in catalog.load_errors)


class TestGlobalCatalog:
    def test_env_var_discovery(self, tmp_path, monkeypatch, fresh_global_catalog):
        (tmp_path / "envplugin.py").write_text(PLUGIN_FILE)
        monkeypatch.setenv(PLUGIN_PATH_ENV, str(tmp_path))
        reset_catalog()
        assert "fileroutine" in get_catalog()
        # parse_routine is a thin query against the same catalog
        from repro.blas.api import parse_routine

        prefix, base, _ = parse_routine("dfileroutine")
        assert (prefix, base) == ("d", "fileroutine")

    def test_reset_drops_runtime_registrations(self, fresh_global_catalog):
        get_catalog().register_spec(_toy_spec(), plugin_name="t")
        assert "toy" in get_catalog()
        reset_catalog()
        assert "toy" not in get_catalog()

    def test_get_catalog_is_cached(self, fresh_global_catalog):
        assert get_catalog() is get_catalog()


class TestPluginProtocol:
    def test_class_plugin_via_module_convention(self, tmp_path):
        (tmp_path / "classy.py").write_text(
            "import numpy as np\n"
            "from repro.routines import RoutinePlugin, make_routine_spec\n"
            "class MyPlugin(RoutinePlugin):\n"
            "    name = 'classy'\n"
            "    version = '3'\n"
            "    def routine_specs(self):\n"
            "        return [make_routine_spec(\n"
            "            'classyroutine', ('p', 'q'),\n"
            "            [('A', ('p', 'q'), 'regular')],\n"
            "            flops=lambda d: 1.0 * d['p'] * d['q'],\n"
            "            measure=lambda platform, prec, dims, t:\n"
            "                np.asarray(t, dtype=float),\n"
            "        )]\n"
            "PLUGIN = MyPlugin\n"
        )
        catalog = build_catalog(plugin_dirs=[tmp_path], entry_points=False)
        entry = catalog.entry("classyroutine")
        assert entry.plugin_name == "classy"
        assert entry.plugin_version == "3"

    def test_base_plugin_requires_specs(self):
        with pytest.raises(NotImplementedError):
            RoutinePlugin().routine_specs()


class TestResolveMemo:
    """``resolve`` keeps successful answers per spelling — and only those."""

    def test_repeat_is_served_from_the_memo(self):
        catalog = build_catalog(plugin_dirs=[], entry_points=False)
        assert catalog._resolved == {}  # nothing precomputed: filled on use
        first = catalog.resolve("dgemm")
        assert catalog._resolved == {"dgemm": first}
        assert catalog.resolve("dgemm") is first

    def test_case_variants_return_the_same_spec(self):
        catalog = build_catalog(plugin_dirs=[], entry_points=False)
        answers = [catalog.resolve(s) for s in ("dgemm", "DGEMM", "dGemm", "gemm", "GEMM")]
        assert {(prefix, base) for prefix, base, _ in answers} == {("d", "gemm")}
        assert all(spec is answers[0][2] for _, _, spec in answers)
        assert catalog.resolve("DGEMM") == catalog.resolve("dgemm")

    def test_plugin_registered_after_a_resolution(self):
        catalog = build_catalog(plugin_dirs=[], entry_points=False)
        gemm = catalog.resolve("dgemm")
        assert catalog.request_form("dgemm") is catalog.request_form("gemm")
        with pytest.raises(UnknownRoutineError):
            catalog.resolve("dtoy")  # unknown before registration ...
        catalog.register_spec(_toy_spec(), plugin_name="t")
        assert catalog._resolved == {}  # every registration drops the memo ...
        assert catalog._forms == {}  # ... and the request forms kept beside it
        prefix, base, spec = catalog.resolve("dtoy")  # ... known after it
        assert (prefix, base, spec.dim_names) == ("d", "toy", ("p", "q"))
        assert catalog.resolve("toy") == ("d", "toy", spec)
        assert catalog.resolve("dgemm") == gemm

    def test_failures_are_never_memoised(self):
        catalog = build_catalog(plugin_dirs=[], entry_points=False)
        for i in range(10_000):
            with pytest.raises(UnknownRoutineError):
                catalog.resolve(f"nosuch{i}")
        assert catalog._resolved == {}
        with pytest.raises(UnknownRoutineError):
            catalog.resolve("zgemm")  # registered base, undeclared precision
        with pytest.raises(UnknownRoutineError):
            catalog.resolve(["dgemm"])  # unhashable spelling: same structured error
        assert catalog._resolved == {}

    def test_reset_catalog_empties_the_memo(self, fresh_global_catalog):
        from repro.blas.api import parse_routine

        get_catalog().register_spec(_toy_spec(), plugin_name="t")
        assert parse_routine("dtoy")[1] == "toy"
        assert set(get_catalog()._resolved) == {"dtoy"}
        reset_catalog()
        assert get_catalog()._resolved == {}
        with pytest.raises(UnknownRoutineError):
            parse_routine("dtoy")
