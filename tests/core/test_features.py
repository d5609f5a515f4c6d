"""Tests for the Table III feature engineering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blas.api import ROUTINE_KEYS, parse_routine
from repro.blas.flops import memory_words
from repro.core.features import (
    THREE_DIM_FEATURES,
    TWO_DIM_FEATURES,
    build_feature_matrix,
    compute_features,
    feature_matrix_for_threads,
    feature_names,
)
from repro.routines.catalog import get_catalog, reset_catalog

from extra_routines import EXTRA_KEYS, register


class TestFeatureNames:
    def test_gemm_uses_three_dim_set(self):
        assert feature_names("dgemm") == THREE_DIM_FEATURES
        assert len(feature_names("sgemm")) == 17

    @pytest.mark.parametrize("routine", ["dsymm", "ssyrk", "dsyr2k", "strmm", "dtrsm"])
    def test_others_use_two_dim_set(self, routine):
        assert feature_names(routine) == TWO_DIM_FEATURES
        assert len(feature_names(routine)) == 9

    def test_thread_count_is_a_feature_in_both_sets(self):
        assert "nt" in THREE_DIM_FEATURES
        assert "nt" in TWO_DIM_FEATURES

    def test_names_are_copies(self):
        names = feature_names("dgemm")
        names.append("bogus")
        assert "bogus" not in feature_names("dgemm")


class TestComputeFeatures:
    def test_gemm_feature_values(self):
        dims = {"m": 10, "k": 20, "n": 30}
        vector = compute_features("dgemm", dims, threads=4)
        named = dict(zip(THREE_DIM_FEATURES, vector))
        assert named["m"] == 10 and named["k"] == 20 and named["n"] == 30
        assert named["nt"] == 4
        assert named["m*k"] == 200
        assert named["m*k*n"] == 6000
        assert named["memory_footprint"] == memory_words("dgemm", dims)
        assert named["m*k*n/nt"] == pytest.approx(1500)
        assert named["memory_footprint/nt"] == pytest.approx(named["memory_footprint"] / 4)

    def test_syrk_feature_values(self):
        dims = {"n": 8, "k": 16}
        vector = compute_features("dsyrk", dims, threads=2)
        named = dict(zip(TWO_DIM_FEATURES, vector))
        assert named["d1"] == 8 and named["d2"] == 16
        assert named["d1*d2"] == 128
        assert named["d1*d2/nt"] == 64
        assert named["memory_footprint"] == memory_words("dsyrk", dims)

    def test_invalid_threads(self):
        with pytest.raises(ValueError, match="threads"):
            compute_features("dgemm", {"m": 4, "k": 4, "n": 4}, threads=0)

    def test_all_features_finite_and_positive(self):
        vector = compute_features("dtrsm", {"m": 5000, "n": 3}, threads=96)
        assert np.all(np.isfinite(vector))
        assert np.all(vector > 0)


class TestMatrices:
    def test_build_matrix_shape(self):
        dims_list = [{"m": 10, "k": 10, "n": 10}, {"m": 20, "k": 5, "n": 8}]
        X = build_feature_matrix("dgemm", dims_list, [2, 4])
        assert X.shape == (2, 17)

    def test_build_matrix_broadcasts_scalar_threads(self):
        dims_list = [{"n": 10, "k": 10}] * 3
        X = build_feature_matrix("dsyrk", dims_list, 8)
        assert X.shape == (3, 9)
        assert np.all(X[:, TWO_DIM_FEATURES.index("nt")] == 8)

    def test_build_matrix_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            build_feature_matrix("dgemm", [{"m": 1, "k": 1, "n": 1}], [1, 2])

    def test_build_matrix_empty(self):
        with pytest.raises(ValueError, match="empty"):
            build_feature_matrix("dgemm", [], [])

    def test_vectorised_path_matches_row_by_row(self):
        dims = {"m": 123, "k": 456, "n": 789}
        threads = np.array([1, 3, 7, 16, 96])
        fast = feature_matrix_for_threads("dgemm", dims, threads)
        slow = build_feature_matrix("dgemm", [dims] * len(threads), list(threads))
        assert np.array_equal(fast, slow)

    def test_vectorised_path_two_dims(self):
        dims = {"m": 50, "n": 70}
        threads = np.arange(1, 17)
        fast = feature_matrix_for_threads("dtrmm", dims, threads)
        slow = build_feature_matrix("dtrmm", [dims] * 16, list(threads))
        assert np.array_equal(fast, slow)

    def test_invalid_threads_in_any_row(self):
        with pytest.raises(ValueError, match="threads"):
            build_feature_matrix("dgemm", [{"m": 4, "k": 4, "n": 4}] * 2, [2, 0])

    def test_vectorised_invalid_threads(self):
        with pytest.raises(ValueError):
            feature_matrix_for_threads("dgemm", {"m": 1, "k": 1, "n": 1}, [])
        with pytest.raises(ValueError):
            feature_matrix_for_threads("dgemm", {"m": 1, "k": 1, "n": 1}, [0, 1])


@pytest.fixture(scope="module")
def extra_routines_registered():
    reset_catalog()
    register(get_catalog())
    yield
    reset_catalog()


@pytest.mark.usefixtures("extra_routines_registered")
class TestMatrixIsTheScalarRowLoop:
    """``build_feature_matrix`` builds the training matrix in one pass; every
    row must be ``compute_features`` of that row, byte for byte."""

    @pytest.mark.parametrize("routine", list(ROUTINE_KEYS) + EXTRA_KEYS)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_rows_are_bitwise_compute_features(self, routine, data):
        _, _, spec = parse_routine(routine)
        n_rows = data.draw(st.integers(1, 12))
        dims = st.fixed_dictionaries({name: st.integers(1, 2 ** 20) for name in spec.dim_names})
        dims_list = data.draw(st.lists(dims, min_size=n_rows, max_size=n_rows))
        threads = data.draw(st.lists(st.integers(1, 256), min_size=n_rows, max_size=n_rows))
        matrix = build_feature_matrix(routine, dims_list, threads)
        rows = np.vstack([compute_features(routine, d, t) for d, t in zip(dims_list, threads)])
        assert matrix.dtype == rows.dtype and matrix.shape == rows.shape
        assert matrix.tobytes() == rows.tobytes()


class TestFeatureGridWriter:
    def _grid_writer(self, routine, threads, columns=None):
        from repro.core.features import FeatureGridWriter

        return FeatureGridWriter(routine, threads, columns=columns)

    @pytest.mark.parametrize("routine", ["dgemm", "ssymm", "dsyrk", "strsm"])
    def test_matches_feature_matrix_grid(self, routine):
        from repro.core.features import feature_matrix_grid
        from repro.blas.api import parse_routine

        _, _, spec = parse_routine(routine)
        rng = np.random.default_rng(4)
        dims_list = [
            {name: int(rng.integers(16, 5000)) for name in spec.dim_names}
            for _ in range(7)
        ]
        threads = np.array([1, 2, 5, 13, 48])
        writer = self._grid_writer(routine, threads)
        grid = writer.write_dicts(dims_list)
        assert np.array_equal(grid, feature_matrix_grid(routine, dims_list, threads))

    def test_column_subset(self):
        from repro.core.features import feature_matrix_grid

        dims_list = [{"m": 100, "k": 200, "n": 300}, {"m": 7, "k": 9, "n": 11}]
        threads = [1, 4, 16]
        columns = [0, 3, 8, 16]
        writer = self._grid_writer("dgemm", threads, columns=columns)
        full = feature_matrix_grid("dgemm", dims_list, np.asarray(threads, float))
        assert np.array_equal(writer.write_dicts(dims_list), full[:, columns])

    def test_buffer_reused_and_grows(self):
        writer = self._grid_writer("dgemm", [1, 2])
        first = writer.write_dicts([{"m": 10, "k": 20, "n": 30}])
        buffer_id = id(writer._buffer)
        second = writer.write_dicts([{"m": 11, "k": 21, "n": 31}])
        assert id(writer._buffer) == buffer_id  # same storage reused
        assert first.base is second.base or first is second  # view into it
        big = writer.write_dicts(
            [{"m": i + 1, "k": 2, "n": 3} for i in range(10)]
        )
        assert big.shape == (20, 17)
        assert id(writer._buffer) != buffer_id  # grown geometrically

    def test_validation_matches_grid_errors(self):
        writer = self._grid_writer("dgemm", [1, 2])
        with pytest.raises(ValueError):
            writer.write_dicts([])
        with pytest.raises(ValueError):
            writer.write_dicts([{"m": 1, "k": 1}])
        with pytest.raises(ValueError):
            writer.write_dicts([{"m": 1, "k": 1, "n": 0}])
        with pytest.raises(ValueError):
            self._grid_writer("dgemm", [])
        with pytest.raises(ValueError):
            self._grid_writer("dgemm", [0, 1])
        with pytest.raises(ValueError):
            self._grid_writer("dgemm", [1, 2], columns=[17])

    def test_a_program_wider_than_the_kernels_accumulators_is_not_built(self):
        """The C fill sums bases into ``double bases[MAX_PROGRAM_BASES]``: a
        program with one base more has no native encoding (NumPy path).  No
        catalog spec gets there — 4 dimensions already carry a 4-factor
        product — so the layout is widened directly."""
        import dataclasses

        from repro.ml._native import MAX_PROGRAM_BASES

        writer = self._grid_writer("dgemm", [1, 2])
        layout = writer._layout
        spare = MAX_PROGRAM_BASES - 1 - len(layout.subsets)  # the footprint is a base too
        assert spare > 0
        writer._layout = dataclasses.replace(layout, subsets=layout.subsets + ((0, 1),) * spare)
        program = writer._build_program()
        assert program is not None and program.n_bases == MAX_PROGRAM_BASES
        writer._layout = dataclasses.replace(layout, subsets=writer._layout.subsets + ((0, 1),))
        assert writer._build_program() is None
