"""Installation-time timing-data gathering (paper Fig. 1a, "Data gathering part").

The :class:`DataGatherer` draws problem shapes from the scrambled-Halton
:class:`~repro.core.sampling.DomainSampler`, times each shape at a spread of
candidate thread counts with the platform's :class:`~repro.machine.simulator.TimingSimulator`
(the stand-in for the paper's timing program running MKL/BLIS), and stores
the results in a :class:`~repro.core.dataset.TimingDataset`.

The paper gathers 1000-1200 rows per routine; the default
``n_shapes * threads_per_shape`` here matches that scale, but both knobs are
configurable so that tests can run in milliseconds.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.dataset import TimingDataset
from repro.core.sampling import DomainSampler
from repro.machine.simulator import TimingSimulator

__all__ = ["DataGatherer", "spread_thread_counts"]


def spread_thread_counts(
    max_threads: int, count: int, rng: np.random.Generator | None = None
) -> List[int]:
    """Pick ``count`` thread counts spread log-uniformly over [1, max_threads].

    The endpoints (1 thread and the maximum) are always included so that the
    training data covers both the serial and the fully subscribed regimes;
    intermediate values are log-spaced with a small deterministic jitter so
    repeated shapes do not always sample the same counts.
    """
    if max_threads < 1:
        raise ValueError("max_threads must be at least 1")
    if count < 1:
        raise ValueError("count must be at least 1")
    count = min(count, max_threads)
    if count == 1:
        return [max_threads]
    if count == 2:
        return [1, max_threads]

    log_points = np.logspace(0, np.log2(max_threads), num=count, base=2.0)
    if rng is not None:
        jitter = rng.uniform(0.85, 1.15, size=count)
        log_points = log_points * jitter
    counts = np.unique(np.clip(np.round(log_points).astype(int), 1, max_threads))
    counts = set(counts.tolist())
    counts.add(1)
    counts.add(max_threads)
    # Top up with random distinct values if rounding collapsed some points.
    rng = rng or np.random.default_rng(0)
    while len(counts) < count:
        counts.add(int(rng.integers(1, max_threads + 1)))
    ordered = sorted(counts)
    # Forcing the endpoints may have pushed the set one past the requested
    # size; drop the most redundant interior value (smallest gap to its
    # predecessor) until the budget is met.
    while len(ordered) > count:
        gaps = [
            (ordered[i] - ordered[i - 1], i)
            for i in range(1, len(ordered) - 1)
        ]
        _, drop_index = min(gaps)
        ordered.pop(drop_index)
    return ordered


class DataGatherer:
    """Gather a timing dataset for one routine on one simulated platform.

    Parameters
    ----------
    simulator:
        The platform's timing source.
    routine:
        Routine key (``"dgemm"``, ``"ssyrk"``, ...).
    n_shapes:
        Number of problem shapes sampled from the routine's domain.
    threads_per_shape:
        Number of distinct thread counts timed per shape.
    memory_cap_bytes, min_dim, max_dim, scale, scrambled:
        Domain-sampler settings (see :class:`~repro.core.sampling.DomainSampler`).
    seed:
        Seed for the Halton scrambling and thread-count jitter.
    """

    def __init__(
        self,
        simulator: TimingSimulator,
        routine: str,
        n_shapes: int = 80,
        threads_per_shape: int = 14,
        memory_cap_bytes: float = 500e6,
        min_dim: int = 32,
        max_dim: int | None = None,
        scale: str = "sqrt",
        scrambled: bool = True,
        seed: int = 0,
    ):
        if n_shapes < 1:
            raise ValueError("n_shapes must be at least 1")
        if threads_per_shape < 1:
            raise ValueError("threads_per_shape must be at least 1")
        self.simulator = simulator
        self.routine = routine
        self.n_shapes = n_shapes
        self.threads_per_shape = threads_per_shape
        self.seed = seed
        self.sampler = DomainSampler(
            routine,
            memory_cap_bytes=memory_cap_bytes,
            min_dim=min_dim,
            max_dim=max_dim,
            scale=scale,
            scrambled=scrambled,
            seed=seed,
        )

    def gather(self, shapes: List[Dict[str, int]] | None = None) -> TimingDataset:
        """Run the sampling + timing campaign and return the dataset.

        The whole campaign — every sampled shape at every spread thread
        count — is timed in a single
        :meth:`~repro.machine.simulator.TimingSimulator.time_batch` call,
        collapsing thousands of scalar simulator evaluations into a handful
        of array ops; the dataset is bit-identical to a loop of scalar
        :meth:`~repro.machine.simulator.TimingSimulator.time` calls over
        the same rows (``tests/machine/test_batch_timing.py`` holds that).

        ``shapes`` overrides the Halton-sampled problem shapes with an
        explicit list (the adaptive re-gather seeds the campaign from the
        observed-traffic shape distribution instead of the static training
        grid); timing and thread-count spreading are identical either way.
        """
        rng = np.random.default_rng(self.seed)
        dataset = TimingDataset(
            routine=self.routine, platform=self.simulator.platform.name
        )
        if shapes is None:
            shapes = self.sampler.sample(self.n_shapes)
        elif not shapes:
            raise ValueError("shapes must not be empty when provided")
        else:
            shapes = [dict(dims) for dims in shapes]
        max_threads = self.simulator.platform.max_threads
        per_shape_counts = [
            spread_thread_counts(max_threads, self.threads_per_shape, rng=rng)
            for _ in shapes
        ]
        dim_names = list(shapes[0])
        lengths = [len(counts) for counts in per_shape_counts]
        dim_arrays = {
            name: np.repeat([dims[name] for dims in shapes], lengths)
            for name in dim_names
        }
        threads = np.concatenate(
            [np.asarray(counts, dtype=np.int64) for counts in per_shape_counts]
        )
        times = self.simulator.time_batch(self.routine, dim_arrays, threads)
        row = 0
        for dims, thread_counts in zip(shapes, per_shape_counts):
            for threads_count in thread_counts:
                dataset.append(dims, int(threads_count), float(times[row]))
                row += 1
        return dataset

    def gather_test_set(self, n_shapes: int, skip: int = 9973) -> List[Dict[str, int]]:
        """Sample held-out problem shapes from the same domain.

        The paper evaluates its software on 100-120 *separate* Halton-sampled
        problems per routine; ``skip`` fast-forwards the quasi-random
        sequence so the evaluation shapes do not coincide with training
        shapes.
        """
        if n_shapes < 1:
            raise ValueError("n_shapes must be at least 1")
        self.sampler.sequence.take(1, skip=skip)
        return self.sampler.sample(n_shapes)
