"""The routine-bound batch timing context can never be served stale.

A warmed simulator (one that already built and cached its context for a
key) must answer exactly like a freshly built one after everything that
could invalidate the context: the catalog resolving the key to another
spec, a replay being attached or detached, the simulator being copied or
pickled, and its noise/patch parameters being edited.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.machine.simulator import TimingSimulator
from repro.routines import get_catalog, make_routine_spec, reset_catalog
from repro.routines.replay import NoTimingSourceError, ReplayTimingModel

DIMS = {"p": [8, 700, 30000], "q": [5, 64, 1000]}
THREADS = [1, 3, 8]
GEMM = {"m": [64, 900, 4000], "k": [7, 256, 2048], "n": [3000, 31, 512]}


@pytest.fixture()
def fresh_global_catalog():
    reset_catalog()
    yield get_catalog()
    reset_catalog()


def _spec(name, scale=None):
    cost_model = None
    if scale is not None:
        def cost_model(platform, precision, dims, threads):
            return scale * np.asarray(dims["p"], dtype=np.float64) / threads
    return make_routine_spec(
        name,
        ("p", "q"),
        [("A", ("p", "q"), "regular")],
        flops=lambda d: 1.0 * d["p"] * d["q"],
        cost_model=cost_model,
    )


def _replay(seconds):
    return ReplayTimingModel(("p", "q"), [{"p": 100, "q": 100}], [4], [seconds])


class TestCatalogChanges:
    def test_reregistered_plugin_rebuilds_the_context(self, laptop, fresh_global_catalog):
        fresh_global_catalog.register_spec(_spec("toy", scale=1e-9), plugin_name="v1")
        warmed = TimingSimulator(laptop, seed=5)
        before = warmed.time_batch("dtoy", DIMS, THREADS)

        reset_catalog()
        get_catalog().register_spec(_spec("toy", scale=3e-9), plugin_name="v2")
        after = warmed.time_batch("dtoy", DIMS, THREADS)
        fresh = TimingSimulator(laptop, seed=5).time_batch("dtoy", DIMS, THREADS)
        np.testing.assert_array_equal(after, fresh)
        assert not np.array_equal(after, before)

    def test_builtin_context_survives_a_catalog_reset(self, laptop, fresh_global_catalog):
        warmed = TimingSimulator(laptop, seed=5)
        before = warmed.time_batch("dgemm", GEMM, THREADS)
        reset_catalog()
        np.testing.assert_array_equal(warmed.time_batch("dgemm", GEMM, THREADS), before)


class TestReplayChanges:
    def test_attach_swap_and_detach(self, laptop, fresh_global_catalog):
        fresh_global_catalog.register_spec(_spec("opaque"), plugin_name="t")
        warmed = TimingSimulator(laptop, seed=2)
        with pytest.raises(NoTimingSourceError):
            warmed.time_batch("dopaque", DIMS, THREADS)

        warmed.attach_replay("dopaque", _replay(1e-3))
        first = warmed.time_batch("dopaque", DIMS, THREADS)
        warmed.attach_replay("dopaque", _replay(5e-3))
        second = warmed.time_batch("dopaque", DIMS, THREADS)

        fresh = TimingSimulator(laptop, seed=2)
        fresh.attach_replay("dopaque", _replay(5e-3))
        np.testing.assert_array_equal(second, fresh.time_batch("dopaque", DIMS, THREADS))
        assert not np.array_equal(first, second)
        assert second[1] == warmed.time("dopaque", {"p": 700, "q": 64}, 3)

        warmed.detach_replay("dopaque")
        with pytest.raises(NoTimingSourceError, match="opaque"):
            warmed.time_batch("dopaque", DIMS, THREADS)


class TestCopies:
    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda simulator: pickle.loads(pickle.dumps(simulator))]
    )
    def test_copy_of_a_warmed_simulator(self, laptop, fresh_global_catalog, clone):
        fresh_global_catalog.register_spec(_spec("opaque"), plugin_name="t")
        warmed = TimingSimulator(laptop, seed=9)
        warmed.attach_replay("dopaque", _replay(2e-3))
        expected = {
            "dgemm": warmed.time_batch("dgemm", GEMM, THREADS),
            "dopaque": warmed.time_batch("dopaque", DIMS, THREADS),
        }
        evaluations = warmed.n_evaluations

        twin = clone(warmed)
        np.testing.assert_array_equal(twin.time_batch("dgemm", GEMM, THREADS), expected["dgemm"])
        np.testing.assert_array_equal(
            twin.time_batch("dopaque", DIMS, THREADS), expected["dopaque"]
        )
        assert twin.n_evaluations == evaluations + 6
        assert warmed.n_evaluations == evaluations

        # The twin's context is its own: a replay swapped on it stays there.
        twin.attach_replay("dopaque", _replay(9e-3))
        np.testing.assert_array_equal(
            warmed.time_batch("dopaque", DIMS, THREADS), expected["dopaque"]
        )


class TestLiveParameters:
    @pytest.mark.parametrize(
        "edit",
        [
            {"noise_level": 0.0},
            {"noise_level": 0.3},
            {"patch_probability": 0.0},
            {"patch_probability": 0.8},
            {"patch_probability": 0.8, "patch_strength": 2.5},
        ],
    )
    def test_edits_on_a_warmed_simulator_are_read_live(self, laptop, edit):
        dims = {"n": np.arange(40, 4040, 100), "k": np.arange(1, 2001, 50)}
        threads = np.arange(40) % laptop.max_threads + 1
        base = {"seed": 4, "patch_probability": 0.5}
        warmed = TimingSimulator(laptop, **base)
        before = warmed.time_batch("dsyrk", dims, threads)
        for name, value in edit.items():
            setattr(warmed, name, value)
        after = warmed.time_batch("dsyrk", dims, threads)
        fresh = TimingSimulator(laptop, **{**base, **edit})
        np.testing.assert_array_equal(after, fresh.time_batch("dsyrk", dims, threads))
        assert not np.array_equal(after, before)
