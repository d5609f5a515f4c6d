"""Property tests: the batch timing path against the scalar oracle.

The scalar ``TimingSimulator.time``/``breakdown`` is the only reference
implementation; ``time_batch``/``breakdown_batch`` must reproduce it with
``==`` for every key of the live catalog — the builtin BLAS-12, the contrib
``cost_model`` plugins, a ``measure``-only spec and a replay-attached
routine — on every platform, with noise and patches on or off, for all
three input forms.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blas.api import parse_routine
from repro.machine.perfmodel import PerformanceModel
from repro.machine.platforms import get_platform, list_platforms
from repro.machine.simulator import TimingSimulator
from repro.routines import contrib, get_catalog, make_routine_spec, reset_catalog
from repro.routines.replay import ReplayTimingModel

COMPONENTS = ("kernel", "copy", "sync", "other")
REPLAY = ReplayTimingModel(
    ("p", "q"),
    [{"p": 8, "q": 8}, {"p": 900, "q": 30}, {"p": 70000, "q": 5000}],
    [1, 6, 40],
    [2e-6, 3e-4, 0.7],
)


def _measure(platform, precision, dims, threads):
    p = np.asarray(dims["p"], dtype=np.float64)
    t = np.asarray(threads, dtype=np.float64)
    return 1e-9 * p * np.asarray(dims["q"], dtype=np.float64) / t + 1e-6 * t


@pytest.fixture(scope="module", autouse=True)
def live_catalog():
    """Builtins + contrib plugins + one measure-only and one replay-only spec."""
    reset_catalog()
    catalog = get_catalog()
    contrib.register(catalog)
    operands = [("A", ("p", "q"), "regular")]
    flops = lambda d: 1.0 * d["p"] * d["q"]  # noqa: E731
    catalog.register_spec(
        make_routine_spec("measured", ("p", "q"), operands, flops, measure=_measure),
        plugin_name="test-measure",
    )
    catalog.register_spec(
        make_routine_spec("opaque", ("p", "q"), operands, flops), plugin_name="test-replay"
    )
    yield catalog
    reset_catalog()


def _simulator(platform, **kwargs) -> TimingSimulator:
    simulator = TimingSimulator(platform, **kwargs)
    simulator.attach_replay("dopaque", REPLAY)
    return simulator


@st.composite
def timing_cases(draw):
    routine = draw(st.sampled_from(sorted(get_catalog().keys())))
    platform = get_platform(draw(st.sampled_from(list_platforms())))
    settings_ = {
        "seed": draw(st.integers(0, 2 ** 40)),
        "noise_level": draw(st.sampled_from([0.0, 0.04, 0.5])),
        "patch_probability": draw(st.sampled_from([0.0, 0.06, 0.9])),
    }
    dim_names = parse_routine(routine)[2].dim_names
    n = draw(st.integers(1, 5))
    rows = draw(
        st.lists(
            st.fixed_dictionaries({name: st.integers(1, 10 ** 5) for name in dim_names}),
            min_size=n,
            max_size=n,
        )
    )
    form = draw(st.sampled_from(["mapping", "rows", "broadcast"]))
    thread_counts = st.integers(1, platform.max_threads)
    if form == "broadcast":
        threads = [draw(thread_counts)] * n
    else:
        threads = draw(st.lists(thread_counts, min_size=n, max_size=n))
    return routine, platform, settings_, rows, threads, form


def _batch_arguments(rows, threads, form):
    if form == "broadcast":
        return rows, threads[0]
    if form == "rows":
        return rows, threads
    columns = {name: np.array([row[name] for row in rows]) for name in rows[0]}
    return columns, np.array(threads)


class TestBatchEqualsScalarOracle:
    @given(timing_cases())
    @settings(max_examples=300, deadline=None)
    def test_rows_components_and_counter(self, case):
        routine, platform, settings_, rows, threads, form = case
        oracle = _simulator(platform, **settings_)
        batch = _simulator(platform, **settings_)
        dims, threads_argument = _batch_arguments(rows, threads, form)

        times = batch.time_batch(routine, dims, threads_argument)
        breakdowns = batch.breakdown_batch(routine, dims, threads_argument)
        assert times.shape == (len(rows),) and len(breakdowns) == len(rows)
        for i, (row, nt) in enumerate(zip(rows, threads)):
            assert times[i] == oracle.time(routine, row, nt)
            expected = oracle.breakdown(routine, row, nt)
            got = breakdowns.row(i)
            for component in COMPONENTS:
                assert getattr(got, component) == getattr(expected, component)
        assert batch.n_evaluations == oracle.n_evaluations == 2 * len(rows)

    @given(timing_cases())
    @settings(max_examples=100, deadline=None)
    def test_noise_free_model_rows(self, case):
        routine, platform, _, rows, threads, form = case
        spec = parse_routine(routine)[2]
        if spec.cost_model is not None or not spec.analytic:
            return  # the analytic model only times the builtin routines
        model = PerformanceModel(platform)
        batch = model.breakdown_batch(routine, *_batch_arguments(rows, threads, form))
        for i, (row, nt) in enumerate(zip(rows, threads)):
            expected = model.breakdown(routine, row, nt)
            for component in COMPONENTS:
                assert getattr(batch.row(i), component) == getattr(expected, component)


@pytest.mark.parametrize("routine", ["dgemm", "ssyrk", "dgemm_batch", "dmeasured", "dopaque"])
class TestBatchEntryStillValidates:
    def _good(self, routine):
        return {name: [64, 128] for name in parse_routine(routine)[2].dim_names}

    @pytest.mark.parametrize("bad", [0, -3])
    def test_non_positive_dimension(self, laptop, routine, bad):
        dims = self._good(routine)
        dims[next(iter(dims))] = [64, bad]
        with pytest.raises(ValueError, match="positive"):
            _simulator(laptop).time_batch(routine, dims, 2)
        with pytest.raises(ValueError, match="positive"):
            _simulator(laptop).breakdown_batch(routine, [{k: v[1] for k, v in dims.items()}], 2)

    def test_threads_out_of_range(self, laptop, routine):
        simulator = _simulator(laptop)
        with pytest.raises(ValueError, match="at least 1"):
            simulator.time_batch(routine, self._good(routine), [1, 0])
        with pytest.raises(ValueError, match="maximum"):
            simulator.time_batch(routine, self._good(routine), [1, laptop.max_threads + 1])

    def test_mismatched_lengths(self, laptop, routine):
        with pytest.raises(ValueError, match="[Mm]ismatch"):
            _simulator(laptop).time_batch(routine, self._good(routine), [1, 2, 3])

    def test_wrong_dimension_names(self, laptop, routine):
        simulator = _simulator(laptop)
        dims = self._good(routine)
        with pytest.raises(ValueError, match="unexpected"):
            simulator.time_batch(routine, {**dims, "zz": 4}, 2)
        dims.pop(next(iter(dims)))
        with pytest.raises(ValueError, match="missing"):
            simulator.time_batch(routine, dims, 2)

    def test_empty_row_list(self, laptop, routine):
        simulator = _simulator(laptop)
        with pytest.raises(ValueError, match="empty"):
            simulator.time_batch(routine, [], 2)
        assert simulator.n_evaluations == 0
