"""Catalog registration and resolution tests, and the absence of discovery."""

import numpy as np
import pytest

from repro.routines.builtin import ROUTINE_SPECS
from repro.routines.catalog import (
    UnknownRoutineError,
    build_catalog,
    get_catalog,
    reset_catalog,
)
from repro.routines.spec import make_routine_spec


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


#: A routine file in the shape directory discovery used to load: running it
#: writes a marker beside itself and offers a ``ROUTINES`` list.
MARKING_PLUGIN = """
import pathlib

import numpy as np
from repro.routines import make_routine_spec

pathlib.Path(__file__).with_name("ran.marker").write_text("ran")
ROUTINES = [
    make_routine_spec(
        "fileroutine",
        ("p", "q"),
        [("A", ("p", "q"), "regular")],
        flops=lambda d: 1.0 * d["p"] * d["q"],
        measure=lambda platform, prec, dims, t: np.asarray(t, dtype=float),
    )
]
"""


class TestRegistration:
    def test_builtins_present(self):
        catalog = build_catalog()
        assert "gemm" in catalog
        assert "dgemm" in catalog.keys()
        assert len(catalog.keys()) == 12
        entry = catalog.entry("gemm")
        assert entry.source == "builtin"
        assert entry.has_simulator
        # The identity every bundle records for a built-in routine.
        assert {e.base: e.provenance() for e in catalog.entries()} == {
            base: {"name": "builtin-blas3", "version": "1", "source": "builtin"}
            for base in ROUTINE_SPECS
        }

    def test_register_spec_and_resolve(self):
        catalog = build_catalog()
        catalog.register_spec(_toy_spec(), plugin_name="t", plugin_version="9")
        prefix, base, spec = catalog.resolve("dtoy")
        assert (prefix, base) == ("d", "toy")
        assert catalog.entry_for_key("stoy").provenance() == {
            "name": "t", "version": "9", "source": "runtime",
        }

    def test_bare_base_name_defaults_to_double(self):
        catalog = build_catalog()
        prefix, base, _ = catalog.resolve("gemm")
        assert (prefix, base) == ("d", "gemm")

    def test_collision_is_hard_error(self):
        catalog = build_catalog()
        with pytest.raises(ValueError, match="collides"):
            catalog.register_spec(
                _toy_spec("gemm", ("m", "k", "n")), plugin_name="rogue"
            )

    def test_unknown_routine_error_is_structured(self):
        catalog = build_catalog()
        with pytest.raises(UnknownRoutineError) as excinfo:
            catalog.resolve("dnope")
        assert excinfo.value.routine == "dnope"
        assert "dgemm" in excinfo.value.known_keys
        assert "Unknown BLAS routine" in str(excinfo.value)
        assert "dgemm" in str(excinfo.value)
        assert isinstance(excinfo.value, KeyError)

    def test_unsupported_precision_rejected(self):
        catalog = build_catalog()
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


class TestGlobalCatalog:
    def test_reset_drops_runtime_registrations(self, fresh_global_catalog):
        get_catalog().register_spec(_toy_spec(), plugin_name="t")
        assert "toy" in get_catalog()
        reset_catalog()
        assert "toy" not in get_catalog()

    def test_get_catalog_is_cached(self, fresh_global_catalog):
        assert get_catalog() is get_catalog()


class TestNoDiscovery:
    """The catalog holds the built-ins and what the process registers: a
    routine file on ``ADSALA_PLUGIN_PATH`` or an ``adsala.routines`` entry
    point of an installed distribution is never run."""

    BUILTIN_KEYS = sorted(p + base for base in ROUTINE_SPECS for p in ("s", "d"))

    def test_plugin_path_is_ignored(self, tmp_path, monkeypatch, fresh_global_catalog):
        (tmp_path / "marking.py").write_text(MARKING_PLUGIN)
        monkeypatch.setenv("ADSALA_PLUGIN_PATH", str(tmp_path))
        reset_catalog()
        assert sorted(get_catalog().keys()) == self.BUILTIN_KEYS
        assert not (tmp_path / "ran.marker").exists()

    def test_entry_points_are_ignored(self, tmp_path, monkeypatch, fresh_global_catalog):
        (tmp_path / "marking_routines.py").write_text(MARKING_PLUGIN)
        dist = tmp_path / "marking_routines-1.0.dist-info"
        dist.mkdir()
        (dist / "METADATA").write_text(
            "Metadata-Version: 2.1\nName: marking-routines\nVersion: 1.0\n"
        )
        (dist / "entry_points.txt").write_text("[adsala.routines]\nmarking = marking_routines\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        reset_catalog()
        assert sorted(get_catalog().keys()) == self.BUILTIN_KEYS
        assert not (tmp_path / "ran.marker").exists()


class TestResolveMemo:
    """``resolve`` keeps successful answers per spelling — and only those."""

    def test_repeat_is_served_from_the_memo(self):
        catalog = build_catalog()
        assert catalog._resolved == {}  # nothing precomputed: filled on use
        first = catalog.resolve("dgemm")
        assert catalog._resolved == {"dgemm": first}
        assert catalog.resolve("dgemm") is first

    def test_case_variants_return_the_same_spec(self):
        catalog = build_catalog()
        answers = [catalog.resolve(s) for s in ("dgemm", "DGEMM", "dGemm", "gemm", "GEMM")]
        assert {(prefix, base) for prefix, base, _ in answers} == {("d", "gemm")}
        assert all(spec is answers[0][2] for _, _, spec in answers)
        assert catalog.resolve("DGEMM") == catalog.resolve("dgemm")

    def test_plugin_registered_after_a_resolution(self):
        catalog = build_catalog()
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
        catalog = build_catalog()
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
