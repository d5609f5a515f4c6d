"""Routines beyond the BLAS-12, registered with ``register_spec``, flow
through every layer (specs in ``tests/extra_routines.py``)."""

import numpy as np
import pytest

from repro.core.features import compute_features, feature_names
from repro.core.sampling import DomainSampler
from repro.machine.platforms import get_platform
from repro.machine.simulator import TimingSimulator
from repro.routines.catalog import get_catalog, reset_catalog

from extra_routines import EXTRA_KEYS, EXTRA_SPECS, register


@pytest.fixture()
def extra_catalog():
    reset_catalog()
    catalog = get_catalog()
    register(catalog)
    yield catalog
    reset_catalog()


class TestContribRegistration:
    def test_all_plugins_register(self, extra_catalog):
        keys = set(extra_catalog.keys())
        for key in EXTRA_KEYS:
            assert key in keys
        for spec in EXTRA_SPECS:
            assert extra_catalog.entry(spec.name).provenance() == {
                "name": "test-extra-routines", "version": "1", "source": "runtime",
            }

    def test_all_have_simulators(self, extra_catalog):
        for spec in EXTRA_SPECS:
            assert spec.has_simulator
            assert not spec.analytic  # cost_model, not the builtin model


class TestContribPipelines:
    @pytest.mark.parametrize("key", EXTRA_KEYS)
    def test_sampler_respects_dim_ranges(self, extra_catalog, key):
        sampler = DomainSampler(key, seed=0)
        _, _, spec = extra_catalog.resolve(key)
        for dims in sampler.sample(10):
            for name, value in dims.items():
                lo, hi = spec.dim_bounds(name) or (1, 10**9)
                assert lo <= value <= hi

    @pytest.mark.parametrize("key", EXTRA_KEYS)
    def test_scalar_batch_bit_identity(self, extra_catalog, key):
        simulator = TimingSimulator(get_platform("gadi"), seed=5)
        sampler = DomainSampler(key, seed=1)
        shapes = sampler.sample(4)
        threads = [1, 3, 9, 17]
        batch = simulator.time_batch(key, shapes, threads)
        for i, (dims, nt) in enumerate(zip(shapes, threads)):
            assert simulator.time(key, dims, nt) == float(batch[i])

    @pytest.mark.parametrize("key", EXTRA_KEYS)
    def test_features_well_formed(self, extra_catalog, key):
        _, _, spec = extra_catalog.resolve(key)
        names = feature_names(key)
        sampler = DomainSampler(key, seed=2)
        dims = sampler.sample(1)[0]
        vector = compute_features(key, dims, threads=4)
        assert len(vector) == len(names)
        assert np.all(np.isfinite(vector))
        assert "memory_footprint" in names
        assert "nt" in names

    @pytest.mark.parametrize("key", EXTRA_KEYS)
    def test_cost_is_positive_and_thread_sensitive(self, extra_catalog, key):
        simulator = TimingSimulator(get_platform("gadi"), seed=0)
        dims = DomainSampler(key, seed=3).sample(1)[0]
        sweep = simulator.sweep_threads(key, dims)
        assert np.all(sweep.times > 0)
        assert sweep.times.max() > sweep.times.min()


class TestContribInstall:
    def test_install_and_predict_batched_gemm(self, extra_catalog):
        from repro.core.install import install_adsala

        bundle = install_adsala(
            platform=get_platform("laptop"),
            routines=["dgemm_batch"],
            n_samples=16,
            threads_per_shape=6,
            n_test_shapes=4,
            seed=0,
        )
        predictor = bundle.routines["dgemm_batch"].predictor
        plan = predictor.plan({"b": 256, "m": 32, "n": 64})
        assert 1 <= plan.threads <= get_platform("laptop").max_threads
