"""Equivalence tests: vectorised batch timing vs the scalar reference path.

The scalar ``TimingSimulator.time``/``breakdown`` loop is the reference
implementation; ``time_batch``/``breakdown_batch`` must reproduce it
bit-for-bit (same integer-mix hash draws, same cost-model arithmetic) for
every routine, platform and input form.
"""

import numpy as np
import pytest

from repro.blas.api import parse_routine
from repro.machine.perfmodel import PerformanceModel, normalize_batch_inputs
from repro.machine.platforms import get_platform, list_platforms
from repro.machine.simulator import TimingSimulator


def _random_cases(routine, platform, n, seed):
    rng = np.random.default_rng(seed)
    _, _, spec = parse_routine(routine)
    dims_list = [
        {name: int(rng.integers(1, 5000)) for name in spec.dim_names}
        for _ in range(n)
    ]
    threads = rng.integers(1, platform.max_threads + 1, size=n)
    return dims_list, threads


class TestTimeBatchEquivalence:
    @pytest.mark.parametrize("platform_name", list_platforms())
    @pytest.mark.parametrize("routine", ["dgemm", "ssymm", "dsyrk", "ssyr2k", "dtrmm", "strsm"])
    def test_batch_equals_scalar_loop(self, platform_name, routine):
        platform = get_platform(platform_name)
        simulator = TimingSimulator(platform, seed=7)
        dims_list, threads = _random_cases(routine, platform, 60, seed=11)
        batch = simulator.time_batch(routine, dims_list, threads)
        scalar = np.array(
            [
                simulator.time(routine, dims, int(t))
                for dims, t in zip(dims_list, threads)
            ]
        )
        np.testing.assert_array_equal(batch, scalar)

    def test_breakdown_rows_equal_scalar_breakdown(self, laptop):
        simulator = TimingSimulator(laptop, seed=0)
        dims_list, threads = _random_cases("dgemm", laptop, 20, seed=3)
        batch = simulator.breakdown_batch("dgemm", dims_list, threads)
        for i, (dims, t) in enumerate(zip(dims_list, threads)):
            scalar = simulator.breakdown("dgemm", dims, int(t))
            row = batch.row(i)
            assert (row.kernel, row.copy, row.sync, row.other) == (
                scalar.kernel,
                scalar.copy,
                scalar.sync,
                scalar.other,
            )

    def test_perfmodel_batch_matches_scalar(self, laptop):
        model = PerformanceModel(laptop)
        dims_list, threads = _random_cases("dsyr2k", laptop, 25, seed=5)
        batch = model.time_batch("dsyr2k", dims_list, threads)
        scalar = np.array(
            [model.time("dsyr2k", dims, int(t)) for dims, t in zip(dims_list, threads)]
        )
        np.testing.assert_array_equal(batch, scalar)

    def test_dict_of_arrays_equals_list_of_dicts(self, laptop):
        simulator = TimingSimulator(laptop, seed=1)
        dims_list, threads = _random_cases("dgemm", laptop, 15, seed=2)
        arrays = {
            name: np.array([dims[name] for dims in dims_list])
            for name in ("m", "k", "n")
        }
        np.testing.assert_array_equal(
            simulator.time_batch("dgemm", arrays, threads),
            simulator.time_batch("dgemm", dims_list, threads),
        )

    def test_scalar_threads_broadcast(self, laptop):
        simulator = TimingSimulator(laptop, seed=1)
        dims_list, _ = _random_cases("dsymm", laptop, 10, seed=9)
        batch = simulator.time_batch("dsymm", dims_list, 4)
        scalar = np.array([simulator.time("dsymm", dims, 4) for dims in dims_list])
        np.testing.assert_array_equal(batch, scalar)

    def test_time_at_max_threads_batch(self, laptop):
        simulator = TimingSimulator(laptop, seed=1)
        dims_list, _ = _random_cases("dgemm", laptop, 8, seed=4)
        batch = simulator.time_at_max_threads_batch("dgemm", dims_list)
        scalar = np.array(
            [simulator.time_at_max_threads("dgemm", dims) for dims in dims_list]
        )
        np.testing.assert_array_equal(batch, scalar)

    def test_sweep_threads_uses_batch_and_matches_scalar(self, laptop):
        simulator = TimingSimulator(laptop, seed=2)
        dims = {"m": 300, "k": 200, "n": 150}
        sweep = simulator.sweep_threads("dgemm", dims)
        scalar = np.array(
            [simulator.time("dgemm", dims, int(t)) for t in sweep.threads]
        )
        np.testing.assert_array_equal(sweep.times, scalar)


class TestBatchValidation:
    def test_counter_increments_by_batch_size(self, laptop):
        simulator = TimingSimulator(laptop, seed=0)
        before = simulator.n_evaluations
        simulator.time_batch("dgemm", {"m": [64, 128], "k": 64, "n": 64}, [2, 4])
        assert simulator.n_evaluations == before + 2

    def test_threads_above_platform_maximum_rejected(self, laptop):
        simulator = TimingSimulator(laptop, seed=0)
        with pytest.raises(ValueError, match="maximum"):
            simulator.time_batch(
                "dgemm", {"m": 64, "k": 64, "n": 64}, laptop.max_threads + 1
            )

    def test_non_positive_inputs_rejected(self, laptop):
        simulator = TimingSimulator(laptop, seed=0)
        with pytest.raises(ValueError):
            simulator.time_batch("dgemm", {"m": [64, 0], "k": 64, "n": 64}, 2)
        with pytest.raises(ValueError):
            simulator.time_batch("dgemm", {"m": 64, "k": 64, "n": 64}, 0)

    def test_mismatched_lengths_rejected(self, laptop):
        simulator = TimingSimulator(laptop, seed=0)
        with pytest.raises(ValueError, match="[Mm]ismatch"):
            simulator.time_batch(
                "dgemm", {"m": [64, 128, 256], "k": [64, 64], "n": 64}, 2
            )

    def test_wrong_dimension_names_rejected(self, laptop):
        simulator = TimingSimulator(laptop, seed=0)
        with pytest.raises(ValueError, match="missing"):
            simulator.time_batch("dgemm", {"m": 64, "k": 64}, 2)
        with pytest.raises(ValueError, match="unexpected"):
            simulator.time_batch("dsyrk", {"n": 64, "k": 64, "m": 64}, 2)

    def test_normalize_batch_inputs_broadcasts(self):
        _, _, spec = parse_routine("dgemm")
        arrays, threads, n = normalize_batch_inputs(
            spec, {"m": [10, 20, 30], "k": 5, "n": 7}, 3
        )
        assert n == 3
        np.testing.assert_array_equal(arrays["k"], [5, 5, 5])
        np.testing.assert_array_equal(threads, [3, 3, 3])


class TestGatherBatchEquivalence:
    @pytest.mark.parametrize("routine", ["dgemm", "ssyrk"])
    def test_batch_gather_dataset_is_bit_identical(self, laptop, routine):
        from repro.core.gather import DataGatherer

        batch = DataGatherer(
            TimingSimulator(laptop, seed=0),
            routine,
            n_shapes=12,
            threads_per_shape=5,
            seed=0,
        ).gather()
        # The oracle: one scalar simulator call per gathered row.
        scalar = TimingSimulator(laptop, seed=0)
        assert len(batch.times) == 12 * 5
        assert batch.times == [
            scalar.time(routine, dims, threads)
            for dims, threads in zip(batch.dims, batch.threads)
        ]
