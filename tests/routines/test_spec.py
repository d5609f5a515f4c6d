"""Spec-derivation tests: the generic machinery vs the legacy literal tables.

The refactor replaced three hand-maintained per-routine tables —
``_FOOTPRINT_TERMS``, ``_THREE_DIM_OPS`` / ``_TWO_DIM_OPS`` in
:mod:`repro.core.features` and the routine branches of the performance
model's tiling — with derivations from :class:`RoutineSpec`.  These tests
pin the equivalence: for all 12 builtin keys the derived tables and the
resulting feature matrices are *bit-identical* to the legacy literal
implementations, reproduced here verbatim as frozen references.
"""

import numpy as np
import pytest

from repro.blas.api import ROUTINE_KEYS, parse_routine
from repro.blas.flops import memory_words
from repro.core.features import (
    THREE_DIM_FEATURES,
    TWO_DIM_FEATURES,
    build_feature_matrix,
    compute_features,
    feature_names,
)
from repro.routines.builtin import ROUTINE_SPECS
from repro.routines.spec import (
    derive_footprint_terms,
    feature_layout,
    make_routine_spec,
    tiling_schema,
)

#: The deleted ``_FOOTPRINT_TERMS`` literal table of repro.core.features,
#: frozen here as the reference: base name -> ((coefficient, dim-index
#: factors), ...) summing to the routine's memory footprint in words.
LEGACY_FOOTPRINT_TERMS = {
    "gemm": ((1.0, (0, 1)), (1.0, (1, 2)), (1.0, (0, 2))),
    "symm": ((1.0, (0, 0)), (2.0, (0, 1))),
    "syrk": ((1.0, (0, 1)), (1.0, (0, 0))),
    "syr2k": ((2.0, (0, 1)), (1.0, (0, 0))),
    "trmm": ((1.0, (0, 0)), (1.0, (0, 1))),
    "trsm": ((1.0, (0, 0)), (1.0, (0, 1))),
}


def _legacy_features(routine, dims, threads):
    """The pre-refactor literal feature computation, frozen verbatim."""
    _, base, spec = parse_routine(routine)
    footprint = memory_words(routine, dims)
    nt = float(threads)
    if spec.n_dims == 3:
        m, k, n = (float(dims[d]) for d in spec.dim_names)
        mk = m * k
        mn = m * n
        kn = k * n
        mkn = mk * n
        return np.array(
            [
                m, k, n, nt, mk, mn, kn, mkn, footprint,
                m / nt, k / nt, n / nt, mk / nt, mn / nt, kn / nt,
                mkn / nt, footprint / nt,
            ]
        )
    d1, d2 = (float(dims[d]) for d in spec.dim_names)
    d12 = d1 * d2
    return np.array(
        [d1, d2, nt, d12, footprint, d1 / nt, d2 / nt, d12 / nt, footprint / nt]
    )


class TestDerivedFootprintTerms:
    @pytest.mark.parametrize("base", sorted(LEGACY_FOOTPRINT_TERMS))
    def test_matches_legacy_literal_table(self, base):
        assert derive_footprint_terms(ROUTINE_SPECS[base]) == (
            LEGACY_FOOTPRINT_TERMS[base]
        )

    @pytest.mark.parametrize("base", sorted(ROUTINE_SPECS))
    def test_terms_evaluate_to_memory_words(self, base):
        spec = ROUTINE_SPECS[base]
        terms = derive_footprint_terms(spec)
        rng = np.random.default_rng(0)
        for _ in range(20):
            dims = {
                name: int(rng.integers(1, 2000)) for name in spec.dim_names
            }
            raw = [float(dims[name]) for name in spec.dim_names]
            total = 0.0
            for coefficient, factors in terms:
                value = coefficient
                for index in factors:
                    value = value * raw[index]
                total += value
            assert total == float(spec.memory_words(dims))


class TestFeatureEquivalence:
    @pytest.mark.parametrize("routine", ROUTINE_KEYS)
    def test_feature_matrix_bit_identical_to_legacy(self, routine):
        _, _, spec = parse_routine(routine)
        rng = np.random.default_rng(7)
        shapes = [
            {name: int(rng.integers(32, 5000)) for name in spec.dim_names}
            for _ in range(25)
        ]
        for dims in shapes:
            for threads in (1, 3, 8, 48):
                generic = compute_features(routine, dims, threads)
                legacy = _legacy_features(routine, dims, threads)
                assert generic.tobytes() == legacy.tobytes()

    @pytest.mark.parametrize("routine", ROUTINE_KEYS)
    def test_batch_matrix_bit_identical_to_legacy(self, routine):
        _, _, spec = parse_routine(routine)
        rng = np.random.default_rng(11)
        rows = [
            (
                {name: int(rng.integers(32, 5000)) for name in spec.dim_names},
                int(rng.integers(1, 48)),
            )
            for _ in range(40)
        ]
        matrix = build_feature_matrix(
            routine, [dims for dims, _ in rows], [nt for _, nt in rows]
        )
        legacy = np.vstack(
            [_legacy_features(routine, dims, nt) for dims, nt in rows]
        )
        assert matrix.tobytes() == legacy.tobytes()

    def test_names_match_literal_lists(self):
        assert feature_names("dgemm") == THREE_DIM_FEATURES
        for key in ("dsymm", "dsyrk", "dsyr2k", "dtrmm", "dtrsm"):
            assert feature_names(key) == TWO_DIM_FEATURES


class TestFeatureLayoutGeneric:
    def test_four_dim_layout_extends_the_pattern(self):
        spec = make_routine_spec(
            "quad",
            ("a", "b", "c", "e"),
            [("X", ("a", "b"), "regular"), ("Y", ("c", "e"), "regular")],
            flops=lambda d: d["a"] * d["b"] * d["c"] * d["e"],
            measure=lambda platform, p, dims, t: np.asarray(t, dtype=float),
        )
        layout = feature_layout(spec)
        assert layout.names[:5] == ("a", "b", "c", "e", "nt")
        assert "a*b*c*e" in layout.names
        assert "memory_footprint/nt" in layout.names
        # every per-thread variant mirrors a base column
        n_bases = len(layout.subsets) + 1
        assert len(layout.names) == 2 * n_bases + 1

    def test_two_dim_plugin_uses_its_own_dim_names(self):
        spec = make_routine_spec(
            "pair",
            ("p", "q"),
            [("X", ("p", "q"), "regular")],
            flops=lambda d: d["p"] * d["q"],
            measure=lambda platform, prec, dims, t: np.asarray(t, dtype=float),
        )
        assert feature_layout(spec).names[:2] == ("d1", "d2")


class TestTilingSchema:
    def test_builtin_schemas(self):
        assert tiling_schema(ROUTINE_SPECS["gemm"]) == (("m", "n"), False, "k")
        assert tiling_schema(ROUTINE_SPECS["syrk"]) == (("n",), True, "k")
        assert tiling_schema(ROUTINE_SPECS["syr2k"]) == (("n",), True, "k")
        for base in ("symm", "trmm", "trsm"):
            assert tiling_schema(ROUTINE_SPECS[base]) == (("m", "n"), False, "m")


class TestMakeRoutineSpec:
    def test_rejects_unknown_shape_dimension(self):
        with pytest.raises(ValueError, match="unknown"):
            make_routine_spec(
                "bad",
                ("m",),
                [("A", ("m", "z"), "regular")],
                flops=lambda d: d["m"],
            )

    def test_rejects_bad_precisions(self):
        with pytest.raises(ValueError, match="precisions"):
            make_routine_spec(
                "bad",
                ("m",),
                [("A", ("m", "1"), "regular")],
                flops=lambda d: d["m"],
                precisions=("x",),
            )

    def test_rejects_bad_dim_ranges(self):
        with pytest.raises(ValueError, match="dim_ranges"):
            make_routine_spec(
                "bad",
                ("m",),
                [("A", ("m", "1"), "regular")],
                flops=lambda d: d["m"],
                dim_ranges={"m": (10, 10)},
            )

    def test_derived_memory_words_sums_operand_areas(self):
        spec = make_routine_spec(
            "area",
            ("p", "q"),
            [("A", ("p", "q"), "regular"), ("B", ("2", "q"), "regular")],
            flops=lambda d: d["p"] * d["q"],
            measure=lambda platform, prec, dims, t: np.asarray(t, dtype=float),
        )
        assert float(spec.memory_words({"p": 10, "q": 7})) == 10 * 7 + 2 * 7


class TestDimsFromArgs:
    """The error matrix of ``dims_from_args``, pinned to what PR 21 produced:
    same exception types, same messages, same precedence, same coercions."""

    GEMM = ROUTINE_SPECS["gemm"]
    SYRK = ROUTINE_SPECS["syrk"]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(m=1, n=2), "gemm missing dimensions: ['k']"),
            (dict(n=2), "gemm missing dimensions: ['m', 'k']"),
            ({}, "gemm missing dimensions: ['m', 'k', 'n']"),
            (dict(m=1, k=2, n=3, z=4, y=5), "gemm got unexpected dimensions: ['z', 'y']"),
            # both: missing wins, in declaration order
            (dict(m=1, z=4), "gemm missing dimensions: ['k', 'n']"),
            (dict(z=4, m=1, y=2, k=9), "gemm missing dimensions: ['n']"),
            # non-positive: the first offender in declaration order, after int()
            (dict(m=1, k=0, n=3), "Dimension k must be positive, got 0"),
            (dict(m=-5, k=0, n=3), "Dimension m must be positive, got -5"),
            (dict(m=0.9, k=2, n=3), "Dimension m must be positive, got 0"),
            (dict(m="x", k=2, n=3), "invalid literal for int() with base 10: 'x'"),
        ],
    )
    def test_keyword_errors(self, kwargs, message):
        with pytest.raises(ValueError) as caught:
            self.GEMM.dims_from_args(**kwargs)
        assert str(caught.value) == message

    def test_positional_errors(self):
        with pytest.raises(TypeError) as caught:
            self.GEMM.dims_from_args(1, 2, n=3)
        assert str(caught.value) == "Pass dimensions either positionally or by name, not both"
        for args in ((1, 2), (1, 2, 3, 4)):
            with pytest.raises(ValueError) as caught:
                self.GEMM.dims_from_args(*args)
            assert str(caught.value) == (
                f"gemm expects 3 dimensions ('m', 'k', 'n'), got {len(args)}"
            )
        with pytest.raises(ValueError, match="Dimension k must be positive, got 0"):
            self.GEMM.dims_from_args(1, 0, 3)
        with pytest.raises(TypeError, match="not 'NoneType'"):
            self.GEMM.dims_from_args(m=None, k=2, n=3)

    def test_coercion(self):
        for dims in (
            self.GEMM.dims_from_args(n=3.9, k=np.int32(7), m=True),
            self.GEMM.dims_from_args(True, np.int64(7), 3.9),
        ):
            assert dims == {"m": 1, "k": 7, "n": 3}
            assert list(dims) == ["m", "k", "n"]  # declaration order, whatever the call's
            assert [type(v) for v in dims.values()] == [int, int, int]
        assert self.GEMM.dims_from_args(m="12", k=2, n=3) == {"m": 12, "k": 2, "n": 3}
        assert self.SYRK.dims_from_args(k=np.uint8(3), n=2.0) == {"n": 2, "k": 3}
        with pytest.raises(ValueError, match="Dimension k must be positive, got 0"):
            self.SYRK.dims_from_args(k=False, n=2)
