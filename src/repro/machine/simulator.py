"""Timing simulator: the "timing program" of the ADSALA installation workflow.

:class:`TimingSimulator` wraps the analytic :class:`~repro.machine.perfmodel.PerformanceModel`
with two effects observed in the paper's measured data:

* **multiplicative noise** — run-to-run variation of real timings, modelled
  as log-normal noise that is *deterministic* in (platform, routine, dims,
  threads, seed) so that experiments are reproducible;
* **abnormal patches** — the paper's heatmaps (Figs. 4-5) show localized
  regions where the optimal thread count differs drastically from the
  surrounding area (cache-set conflicts, alignment pathologies, ...).  The
  simulator reproduces them by hashing each problem shape into a small
  number of "patch cells" that receive an extra slowdown for a band of
  thread counts.

The simulator exposes the operations the ADSALA pipeline needs:
``time``/``breakdown`` for a single configuration, ``time_batch`` /
``breakdown_batch`` for whole arrays of configurations in one vectorised
pass, ``sweep_threads`` for the full thread-count profile of one problem,
and ``best_threads`` / ``best_time`` for the oracle optimum used in
evaluation.

Determinism and the integer-mix hash
------------------------------------
All pseudo-randomness derives from a splitmix64-style integer mix over
``(platform, seed, tag, routine, dims..., threads)``.  The mix is evaluated
either on Python ints (scalar path) or on ``uint64`` NumPy arrays (batch
path) with bit-identical results, which is what lets the data-gathering
campaign collapse thousands of scalar calls into a handful of array ops
while staying reproducible.  The scalar ``time``/``breakdown`` path is the
only reference implementation; ``time_batch`` equivalence against it is
asserted in the test suite.

The batch path pays its set-up once per routine, not once per call: a
routine-bound context (the model's :class:`~repro.machine.perfmodel.RoutineTiming`
plus the timing hook and the four pre-mixed hash seed states) is built
lazily and kept, inputs are validated once, and the noise pair and the
patch pair are hashed together as one stacked ``(2, 2, n)`` chain (plus one
``(2, n)`` step that extends the noise key by the thread count).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Dict, Mapping, Sequence

import numpy as np

from repro.blas.api import RoutineSpec, parse_routine
from repro.machine.perfmodel import (
    ContextCache,
    CostBreakdown,
    CostBreakdownBatch,
    PerformanceModel,
)
from repro.machine.topology import MachineTopology
from repro.routines.replay import NoTimingSourceError, ReplayTimingModel

__all__ = ["TimingSimulator", "ThreadSweep"]


#: How a total-seconds timing source (plugin cost_model/measure hook or
#: traffic replay) is apportioned into breakdown components.  The builtin
#: analytic routines get a real per-component model; external sources only
#: report totals, so the split is a fixed documented convention.
_HOOK_SPLIT = (0.70, 0.15, 0.05, 0.10)  # kernel, copy, sync, other


# -- splitmix64 integer mixing -------------------------------------------------
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _splitmix64(value: int) -> int:
    """One splitmix64 avalanche step on a Python int (mod 2**64)."""
    z = (value + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


_U64 = tuple(np.uint64(c) for c in (_GAMMA, _MUL1, _MUL2, 30, 27, 31))


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 step on a uint64 array (wrapping arithmetic)."""
    gamma, mul1, mul2, s30, s27, s31 = _U64
    z = z + gamma
    z = (z ^ (z >> s30)) * mul1
    z = (z ^ (z >> s27)) * mul2
    return z ^ (z >> s31)


@lru_cache(maxsize=None)
def _string_code(text: str) -> int:
    """Stable 64-bit code for a string (platform names, routines, tags)."""
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


_TAG_NOISE1 = _string_code("noise1")
_TAG_NOISE2 = _string_code("noise2")
_TAG_PATCH = _string_code("patch")
_TAG_PATCH_CENTER = _string_code("patch-center")


def _replay_hook(replay: ReplayTimingModel, platform, prefix, dims, threads):
    """A replay behind the ``cost_model``/``measure`` hook signature."""
    return replay.time_batch(dims, threads)


@dataclass
class ThreadSweep:
    """Runtime of one problem across every candidate thread count."""

    routine: str
    dims: Dict[str, int]
    threads: np.ndarray
    times: np.ndarray

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.times))

    @property
    def best_threads(self) -> int:
        return int(self.threads[self.best_index])

    @property
    def best_time(self) -> float:
        return float(self.times[self.best_index])

    def time_at(self, threads: int) -> float:
        matches = np.flatnonzero(self.threads == threads)
        if matches.size == 0:
            raise KeyError(f"Thread count {threads} not in sweep")
        return float(self.times[matches[0]])


class TimingSimulator:
    """Deterministic, noisy timing source for one platform.

    Parameters
    ----------
    platform:
        Machine description (e.g. :data:`repro.machine.platforms.GADI`).
    seed:
        Base seed folded into every noise draw.
    noise_level:
        Sigma of the log-normal run-to-run noise (0 disables noise).
    patch_probability:
        Fraction of problem-shape cells that behave "abnormally".
    patch_strength:
        Maximum extra slowdown applied inside an abnormal patch.
    """

    def __init__(
        self,
        platform: MachineTopology,
        seed: int = 0,
        noise_level: float = 0.04,
        patch_probability: float = 0.06,
        patch_strength: float = 0.9,
    ):
        if noise_level < 0:
            raise ValueError("noise_level must be non-negative")
        if not 0.0 <= patch_probability < 1.0:
            raise ValueError("patch_probability must be in [0, 1)")
        self.platform = platform
        self.model = PerformanceModel(platform)
        self.seed = seed
        self.noise_level = noise_level
        self.patch_probability = patch_probability
        self.patch_strength = patch_strength
        self.n_evaluations = 0
        self._replays: Dict[str, partial] = {}
        self._contexts = ContextCache()
        self._hash_base = _splitmix64(_string_code(platform.name) ^ (seed & _MASK64))

    # -- timing-source dispatch --------------------------------------------------
    def attach_replay(self, routine: str, replay: ReplayTimingModel) -> None:
        """Attach an observed-traffic replay as the timing source of a routine.

        Used for catalog routines with neither the builtin analytic model
        nor plugin hooks: once traffic has been observed (or a dataset
        gathered elsewhere), replay makes the routine timeable again —
        sweeps, gathers and adaptation all work against it.
        """
        _, base, _ = parse_routine(routine)
        self._replays[base] = partial(_replay_hook, replay)
        self._contexts.clear()

    def detach_replay(self, routine: str) -> None:
        """Remove a previously attached replay timing source."""
        _, base, _ = parse_routine(routine)
        self._replays.pop(base, None)
        self._contexts.clear()

    def _timing_hook(self, base: str, spec: RoutineSpec):
        """The non-analytic timing source of a routine, or None for builtin.

        Precedence: plugin ``cost_model`` (analytic), builtin performance
        model (``spec.analytic``), plugin ``measure`` hook, attached
        replay.  Raises :class:`NoTimingSourceError` when nothing applies.
        """
        if spec.cost_model is not None:
            return spec.cost_model
        if spec.analytic:
            return None
        if spec.measure is not None:
            return spec.measure
        hook = self._replays.get(base)
        if hook is not None:
            return hook
        raise NoTimingSourceError(
            f"Routine {base!r} has no analytic cost model, no measure hook "
            "and no attached traffic replay; provide a cost_model/measure in "
            "the plugin spec or call TimingSimulator.attach_replay()"
        )

    @staticmethod
    def _split_total(total):
        """Apportion hook/replay total seconds into breakdown components."""
        return (
            total * _HOOK_SPLIT[0],
            total * _HOOK_SPLIT[1],
            total * _HOOK_SPLIT[2],
            total * _HOOK_SPLIT[3],
        )

    def _context(self, routine: str) -> tuple:
        """``(model context, timing hook, hash seed states)`` of a routine key.

        Built on first use and kept.  It cannot go stale: the model's
        context is re-checked against the catalog on every call and a
        rebuilt one invalidates this entry, ``attach_replay`` /
        ``detach_replay`` drop every entry, and a copy or pickle of the
        simulator starts empty.  The ``(2, 2, 1)`` seeds are :meth:`_fraction`'s
        state just before its value loop: the noise pair, then the patch pair.
        """
        timing = self.model.context(routine)
        entry = self._contexts.get(routine)
        if entry is None or entry[0] is not timing:
            seeds = [
                _splitmix64(_splitmix64(self._hash_base ^ tag) ^ _string_code(routine))
                for tag in (_TAG_NOISE1, _TAG_NOISE2, _TAG_PATCH, _TAG_PATCH_CENTER)
            ]
            seeds = np.array(seeds, dtype=np.uint64).reshape(2, 2, 1)
            hook = self._timing_hook(timing.base, timing.spec)
            entry = self._contexts[routine] = (timing, hook, seeds)
        return entry

    # -- deterministic pseudo-randomness ---------------------------------------
    def _fraction(self, tag_code: int, routine: str, values) -> float:
        """Uniform-in-[0,1) value from the integer mix of ``values`` (scalar)."""
        state = _splitmix64(self._hash_base ^ tag_code)
        state = _splitmix64(state ^ _string_code(routine))
        for value in values:
            state = _splitmix64(state ^ (int(value) & _MASK64))
        return state / 2 ** 64

    def _noise_factor(self, routine: str, dims: Dict[str, int], threads: int) -> float:
        if self.noise_level == 0:
            return 1.0
        key = (*dims.values(), threads)
        u1 = self._fraction(_TAG_NOISE1, routine, key)
        u2 = self._fraction(_TAG_NOISE2, routine, key)
        # Box-Muller transform -> standard normal -> log-normal factor.
        u1 = min(max(u1, 1e-12), 1 - 1e-12)
        gaussian = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return float(np.exp(self.noise_level * gaussian))

    def _patch_factor(self, routine: str, dims: Dict[str, int], threads: int) -> float:
        """Localized slowdown reproducing the paper's "abnormal areas"."""
        if self.patch_probability == 0:
            return 1.0
        # Problems are grouped into coarse log-scale cells; a hash decides
        # whether the cell is pathological and, if so, which thread band the
        # pathology affects.
        cell = tuple(int(np.log2(max(v, 1)) * 2) for v in dims.values())
        draw = self._fraction(_TAG_PATCH, routine, cell)
        if draw >= self.patch_probability:
            return 1.0
        band_center_frac = self._fraction(_TAG_PATCH_CENTER, routine, cell)
        band_center = 1 + band_center_frac * (self.platform.max_threads - 1)
        band_width = max(2.0, 0.12 * self.platform.max_threads)
        distance = abs(threads - band_center) / band_width
        if distance > 1.0:
            return 1.0
        return 1.0 + self.patch_strength * (1.0 - distance)

    # -- timing API --------------------------------------------------------------
    def breakdown(self, routine: str, dims: Dict[str, int], threads: int) -> CostBreakdown:
        """Noisy per-component breakdown of one call (scalar reference path)."""
        prefix, base_name, spec = parse_routine(routine)
        dims = spec.dims_from_args(**dims)
        hook = self._timing_hook(base_name, spec)
        if hook is None:
            base = self.model.breakdown(routine, dims, threads)
        else:
            if threads < 1:
                raise ValueError("threads must be at least 1")
            if threads > self.platform.max_threads:
                raise ValueError(
                    f"threads={threads} exceeds the platform maximum "
                    f"({self.platform.max_threads})"
                )
            # Scalar path = batch of one, so hook-timed routines are
            # scalar/batch bit-identical by construction.
            dim_arrays = {
                name: np.asarray([dims[name]], dtype=np.int64)
                for name in spec.dim_names
            }
            threads_arr = np.asarray([threads], dtype=np.int64)
            total = np.asarray(
                hook(self.platform, prefix, dim_arrays, threads_arr),
                dtype=np.float64,
            )
            kernel, copy, sync, other = self._split_total(
                float(total.reshape(-1)[0])
            )
            base = CostBreakdown(kernel=kernel, copy=copy, sync=sync, other=other)
        factor = self._noise_factor(routine, dims, threads) * self._patch_factor(
            routine, dims, threads
        )
        self.n_evaluations += 1
        # Noise predominantly affects the overhead components; the FLOP work
        # itself is stable run-to-run.
        return CostBreakdown(
            kernel=base.kernel * (1.0 + 0.3 * (factor - 1.0)),
            copy=base.copy * factor,
            sync=base.sync * factor,
            other=base.other * factor,
        )

    def time(self, routine: str, dims: Dict[str, int], threads: int) -> float:
        """Noisy total runtime (seconds) of one call."""
        return self.breakdown(routine, dims, threads).total

    def time_at_max_threads(self, routine: str, dims: Dict[str, int]) -> float:
        """Runtime using the platform's maximum thread count (the baseline)."""
        return self.time(routine, dims, self.platform.max_threads)

    # -- batch timing API ---------------------------------------------------------
    def breakdown_batch(
        self,
        routine: str,
        dims: Mapping[str, object] | Sequence[Dict[str, int]],
        threads,
    ) -> CostBreakdownBatch:
        """Noisy breakdowns of many calls in one vectorised pass.

        ``dims`` is a mapping of dimension-name to array (scalars broadcast)
        or a sequence of per-row dimension dicts; ``threads`` is a scalar or
        aligned array.  Row ``i`` is bit-identical to the scalar
        :meth:`breakdown` of the ``i``-th configuration.
        """
        timing, hook, seeds = self._context(routine)
        dim_arrays, threads_arr, n = timing.normalize(dims, threads)
        if hook is None:
            kernel, copy, sync, other = timing.components(dim_arrays, threads_arr)
        else:
            total = np.asarray(
                hook(self.platform, timing.prefix, dim_arrays, threads_arr),
                dtype=np.float64,
            )
            kernel, copy, sync, other = self._split_total(
                np.broadcast_to(total.reshape(-1), (n,))
            )
        noisy, patchy = self.noise_level != 0, self.patch_probability != 0
        if noisy or patchy:
            # One chain hashes the noise pair and the patch pair together: at
            # step j the noise rows mix in dimension j and the patch rows its
            # coarse log-scale cell (validated dims are >= 1, so the scalar
            # path's max(v, 1) is moot); threads extend the noise key only.
            values = np.empty((len(dim_arrays), 2, 1, n), dtype=np.uint64)
            for step, column in zip(values, dim_arrays.values()):
                step[0, 0] = column
            values[:, 1, 0] = np.log2(values[:, 0, 0]) * 2
            state = seeds
            for step in values:
                state = _splitmix64_array(state ^ step)
        factor = 1.0
        if noisy:
            u1, u2 = _splitmix64_array(state[0] ^ threads_arr.view(np.uint64)) / 2.0 ** 64
            u1 = np.minimum(np.maximum(u1, 1e-12), 1 - 1e-12)
            gaussian = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
            factor = np.exp(self.noise_level * gaussian)
        if patchy:
            draw, center = state[1] / 2.0 ** 64
            band_center = 1 + center * (self.platform.max_threads - 1)
            band_width = max(2.0, 0.12 * self.platform.max_threads)
            distance = np.abs(threads_arr - band_center) / band_width
            patched = (draw < self.patch_probability) & (distance <= 1.0)
            factor = factor * np.where(
                patched, 1.0 + self.patch_strength * (1.0 - distance), 1.0
            )
        self.n_evaluations += n
        return CostBreakdownBatch(
            kernel=kernel * (1.0 + 0.3 * (factor - 1.0)),
            copy=copy * factor,
            sync=sync * factor,
            other=other * factor,
        )

    def time_batch(
        self,
        routine: str,
        dims: Mapping[str, object] | Sequence[Dict[str, int]],
        threads,
    ) -> np.ndarray:
        """Noisy total runtimes (seconds) of many calls in one array pass."""
        return self.breakdown_batch(routine, dims, threads).total

    def time_at_max_threads_batch(
        self, routine: str, dims: Mapping[str, object] | Sequence[Dict[str, int]]
    ) -> np.ndarray:
        """Max-thread baseline runtimes for a batch of problem shapes."""
        return self.time_batch(routine, dims, self.platform.max_threads)

    # -- sweeps -------------------------------------------------------------------
    def sweep_threads(
        self,
        routine: str,
        dims: Dict[str, int],
        thread_counts: Sequence[int] | None = None,
    ) -> ThreadSweep:
        """Time one problem at every candidate thread count (one batch call)."""
        if thread_counts is None:
            thread_counts = self.platform.candidate_thread_counts()
        thread_counts = np.asarray(list(thread_counts), dtype=int)
        if thread_counts.size == 0:
            raise ValueError("thread_counts must not be empty")
        _, _, spec = parse_routine(routine)
        dims = spec.dims_from_args(**dims)
        times = self.time_batch(routine, [dims], thread_counts)
        return ThreadSweep(
            routine=routine, dims=dict(dims), threads=thread_counts, times=times
        )

    def best_threads(
        self, routine: str, dims: Dict[str, int], thread_counts: Sequence[int] | None = None
    ) -> int:
        """Oracle-optimal thread count for one problem."""
        return self.sweep_threads(routine, dims, thread_counts).best_threads

    def best_time(
        self, routine: str, dims: Dict[str, int], thread_counts: Sequence[int] | None = None
    ) -> float:
        """Oracle-optimal runtime for one problem."""
        return self.sweep_threads(routine, dims, thread_counts).best_time

    def speedup_vs_max_threads(
        self, routine: str, dims: Dict[str, int], threads: int
    ) -> float:
        """Speedup of running with ``threads`` instead of the maximum count."""
        return self.time_at_max_threads(routine, dims) / self.time(routine, dims, threads)
