"""Shared fixtures for the test suite.

Everything that needs a trained installation uses the small ``laptop``
platform preset with a scaled-down campaign so the whole suite stays fast.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.install import install_adsala
from repro.machine.platforms import get_platform
from repro.machine.simulator import TimingSimulator

try:
    from hypothesis import settings as hypothesis_settings
except ImportError:  # jobs that run no property tests do not install it
    pass
else:
    # HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a
    # property failure seen in CI replays locally under the same variable.
    hypothesis_settings.register_profile("ci", derandomize=True)
    hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: spawns worker processes or runs for several seconds"
    )


@pytest.fixture(scope="session")
def laptop():
    """The small 8-core test platform."""
    return get_platform("laptop")


@pytest.fixture(scope="session")
def gadi():
    return get_platform("gadi")


@pytest.fixture(scope="session")
def setonix():
    return get_platform("setonix")


@pytest.fixture()
def simulator(laptop):
    """A fresh timing simulator on the laptop platform."""
    return TimingSimulator(laptop, seed=0)


@pytest.fixture(scope="session")
def regression_data():
    """Synthetic non-linear regression data shared by the ML tests."""
    rng = np.random.default_rng(42)
    X = rng.uniform(-2.0, 2.0, size=(240, 4))
    y = (
        2.0 * X[:, 0]
        - 1.5 * X[:, 1] ** 2
        + 0.8 * X[:, 2] * X[:, 3]
        + 0.3 * np.sin(3.0 * X[:, 0])
        + rng.normal(0.0, 0.05, size=X.shape[0])
    )
    return X, y


@pytest.fixture(scope="session")
def linear_data():
    """Exactly linear data (no noise) for closed-form recovery tests."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(120, 3))
    coef = np.array([1.5, -2.0, 0.5])
    y = X @ coef + 3.0
    return X, y, coef, 3.0


@pytest.fixture(scope="session")
def small_bundle(laptop):
    """A tiny but complete ADSALA installation used across the suite."""
    return install_adsala(
        platform=laptop,
        routines=["dgemm", "dsyrk"],
        n_samples=18,
        threads_per_shape=5,
        n_test_shapes=8,
        candidate_models=["LinearRegression", "DecisionTree"],
        seed=0,
    )
