"""Runtime thread-count prediction (paper Fig. 1b, "Parameter Predictor").

For a given BLAS call the predictor evaluates the trained runtime model at
every admissible thread count and returns the count with the smallest
predicted runtime (paper Section IV-A); among counts the model predicts
exactly the same minimum for, the middle one
(:func:`~repro.core.compiled.middle_of_ties`).
Repeated calls with recently seen dimensions skip the model evaluation
entirely through a bounded LRU cache — a generalisation of the paper's
last-call cache (Section III-B) that also serves cycling workloads (a
handful of problem shapes alternating back to back, the common pattern in
iterative solvers).  ``cache_capacity=1`` reproduces the paper's exact
last-call behaviour.  The cache keeps a ``(threads, score)`` pair per
shape: ``plan`` / ``plan_batch`` build a :class:`PredictionPlan` from it,
the serving engine, which reads the thread count, builds none.

Batch prediction (:meth:`ThreadPredictor.predict_threads_batch`) evaluates
the model once over a ``(n_shapes * n_candidates)`` feature grid instead of
looping shape by shape.  Installation-time model selection
(:mod:`repro.core.selection`) makes the same choices without building a
predictor per candidate: it scores every candidate on one shared grid
through the compiled kernel's NumPy fallback.

Cache misses ride the **compiled kernel**: the first evaluation builds a
:class:`~repro.core.compiled.CompiledPredictor` (call
:meth:`ThreadPredictor.compile` to pay that cost eagerly, e.g. at bundle
load) and every subsequent miss is a single fused
feature→preprocess→ensemble pass — one native call, or its NumPy
fallback (``CompiledPredictor.path`` says which).  Inside
``repro.core.compiled.reference_mode()`` (or the tree-level
``repro.ml.tree.reference_mode()``) evaluations instead run the oracle:
the object graph ``feature_matrix_grid`` → ``pipeline.transform`` →
``model.predict``, bit-identical and slow, for equivalence tests and
benchmark baselines.  The compiled kernel is working state, not model
state: it is dropped from pickles and deep copies and rebuilt on first
use.  The LRU travels with a copy, unless a pickle from an older tree
holds it in another form; then it starts empty.

The model's output is a *score*; the plan is the column
:func:`~repro.core.compiled.middle_of_ties` picks from each shape's row of
scores (the lower median of the columns tied at the row minimum, which is
the plain argmin when the minimum is unique).  The compiled kernel makes
that pick in native code with the evaluation; the NumPy form is its
oracle.  ``target`` says what the score is: ``"relative"`` (every install
fits ``log(T(p) / T(p_max))``, the shape's speedup curve against its own
max-thread runtime, and keeps a :class:`LevelHead` for ``T(p_max)``;
see :mod:`repro.core.selection`), ``"log"`` (``log(runtime)``, bundles
written before the relative target) or ``"seconds"`` (bundles written
before the log target).  A shape's level is one constant across its row,
and ``log`` is monotone, so ``plan``, ``plan_batch`` and
``predict_threads_batch`` pick from the raw output for every target and
the request path does no extra work on the grid; only
:meth:`ThreadPredictor.predict_runtimes_batch` converts the whole grid to
seconds, and a plan's ``predicted_time`` is the one chosen score
converted.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.core import compiled as compiled_mod
from repro.core.compiled import CompiledPredictor, middle_of_ties
from repro.core.features import feature_matrix_grid, feature_names
from repro.ml import tree as tree_mod
from repro.ml.base import BaseRegressor
from repro.preprocessing.pipeline import PreprocessingPipeline

__all__ = ["LevelHead", "PredictionPlan", "ThreadPredictor", "TARGETS"]

#: ``cache.get`` default: a key the LRU does not hold (``None`` is a placeholder).
_ABSENT = object()

#: What a predictor's model output means: log-runtime relative to the
#: shape's max-thread runtime, log-seconds, or seconds.
TARGETS = ("relative", "log", "seconds")


class LevelHead:
    """A shape's runtime at the maximum thread count, a power law in its
    dims: ``exp(coef[0]) * prod(dims[names[i - 1]] ** coef[i])`` seconds.

    The absolute half of a ``"relative"`` predictor: the model predicts the
    shape's speedup curve ``log(T(p) / T(p_max))``, which alone decides the
    plan, and ``exp`` of that times this head is the runtime in seconds.
    The coefficients are a least-squares fit of the log-runtime of the
    gathered max-thread rows on the log dims.  Evaluating the head makes no
    call below it: one per planned shape is all it adds to a plan.
    """

    __slots__ = ("names", "coef", "_scale", "_powers")

    def __init__(self, names: Sequence[str], coef: Sequence[float]):
        self.names = tuple(names)
        self.coef = tuple(float(c) for c in coef)
        if len(self.coef) != len(self.names) + 1:
            raise ValueError("a level head needs one coefficient per dim plus a constant")
        self._scale = math.exp(self.coef[0])
        self._powers = tuple(zip(self.names, self.coef[1:]))

    @classmethod
    def fit(cls, dims_list: Sequence[Dict[str, int]], log_times: np.ndarray) -> "LevelHead":
        names = tuple(sorted(dims_list[0]))
        logs = np.log([[float(dims[name]) for name in names] for dims in dims_list])
        design = np.column_stack([np.ones(len(logs)), logs])
        coef = np.linalg.lstsq(design, np.asarray(log_times, dtype=np.float64), rcond=None)[0]
        return cls(names, coef)

    def __call__(self, dims: Dict[str, int]) -> float:
        seconds = self._scale
        for name, power in self._powers:
            seconds *= dims[name] ** power
        return seconds

    def to_dict(self) -> dict:
        return {"names": list(self.names), "coef": list(self.coef)}

    @classmethod
    def from_dict(cls, data: dict) -> "LevelHead":
        return cls(data["names"], data["coef"])

    def __eq__(self, other):
        return isinstance(other, LevelHead) and (self.names, self.coef) == (
            other.names,
            other.coef,
        )


@dataclass(frozen=True, init=False)
class PredictionPlan:
    """Result of one thread-count prediction (``predicted_time`` in seconds)."""

    routine: str
    dims: Dict[str, int]
    threads: int
    predicted_time: float
    from_cache: bool

    def __init__(self, routine, dims, threads, predicted_time, from_cache):
        # Written to the instance dict, like ExecutionPlan's.
        state = self.__dict__
        state["routine"] = routine
        state["dims"] = dims
        state["threads"] = threads
        state["predicted_time"] = predicted_time
        state["from_cache"] = from_cache


class ThreadPredictor:
    """Predict the optimal thread count for one BLAS routine.

    Parameters
    ----------
    routine:
        Routine key, e.g. ``"dsyrk"``.
    pipeline:
        Fitted preprocessing pipeline (Yeo-Johnson + correlation filter).
    model:
        Fitted runtime-regression model.
    candidate_threads:
        Thread counts the predictor is allowed to choose between (usually
        ``platform.candidate_thread_counts()``).
    model_name:
        Name of the winning candidate (for reporting).
    cache_capacity:
        Maximum number of distinct problem shapes kept in the LRU
        prediction cache (1 = the paper's last-call cache).
    target:
        What ``model`` predicts: ``"relative"`` (log-runtime over the shape's
        max-thread runtime, what install fits), ``"log"`` (log-seconds) or
        ``"seconds"`` (what bundles written before the log target hold).
    level:
        The :class:`LevelHead` of a ``"relative"`` predictor (and of no
        other).
    """

    def __init__(
        self,
        routine: str,
        pipeline: PreprocessingPipeline,
        model: BaseRegressor,
        candidate_threads: Sequence[int],
        model_name: str = "unknown",
        cache_capacity: int = 16,
        target: str = "seconds",
        level: LevelHead | None = None,
    ):
        candidate_threads = sorted({int(t) for t in candidate_threads})
        if not candidate_threads:
            raise ValueError("candidate_threads must not be empty")
        if candidate_threads[0] < 1:
            raise ValueError("candidate thread counts must be positive")
        if cache_capacity < 1:
            raise ValueError("cache_capacity must be at least 1")
        if target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
        if (target == "relative") != (level is not None):
            raise ValueError("a level head goes with target='relative', and only with it")
        self.routine = routine
        self.pipeline = pipeline
        self.model = model
        self.candidate_threads = candidate_threads
        self.model_name = model_name
        self.cache_capacity = int(cache_capacity)
        self.target = target
        self.level = level
        self.feature_names = feature_names(routine)
        # Shape key -> (chosen thread count, the model's score there).
        self._cache: OrderedDict[tuple, tuple] = OrderedDict()
        self._compiled: CompiledPredictor | None = None
        self.n_model_evaluations = 0
        self.n_cache_hits = 0
        self.n_cache_misses = 0

    # -- compilation ------------------------------------------------------------
    def compile(self) -> CompiledPredictor:
        """Build (or return) the fused feature→preprocess→model kernel.

        Idempotent; the serving layer calls this at bundle load so the
        first request does not pay the one-off build cost.  Predictions
        through the compiled kernel are bit-identical to the object path.
        """
        if self._compiled is None:
            self._compiled = CompiledPredictor(
                self.routine, self.pipeline, self.model, self.candidate_threads
            )
        return self._compiled

    def __getstate__(self):
        # The compiled kernel holds the routine spec's lambdas (not
        # picklable) and per-instance scratch buffers (not to be shared by
        # a deep copy): ship the model state and recompile on first use.
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    def __setstate__(self, state):
        # A predictor pickled after planning by a tree whose LRU held plan
        # objects would hand the engine those where it reads ``(threads,
        # score)`` pairs.  The LRU is working state: such a one starts empty.
        self.__dict__.update(state)
        if any(type(value) is not tuple for value in self._cache.values()):
            self._cache = OrderedDict()

    @staticmethod
    def cache_key(dims: Dict[str, int]) -> tuple:
        """Canonical LRU key for a dims dict (order-insensitive).

        Permuted dict literals (``{"m": 1, "n": 2}`` vs ``{"n": 2, "m": 1}``)
        map to the same entry; every cache probe in this class goes through
        this one helper.
        """
        return tuple(sorted(dims.items()))

    # -- prediction -------------------------------------------------------------
    def predict_runtimes(self, dims: Dict[str, int]) -> np.ndarray:
        """Predicted runtime in seconds for every candidate thread count
        (no caching)."""
        return self.predict_runtimes_batch([dims])[0]

    def predict_runtimes_batch(
        self, dims_list: Sequence[Dict[str, int]]
    ) -> np.ndarray:
        """Predicted runtimes in seconds for many shapes in one model evaluation.

        Returns a ``(len(dims_list), n_candidates)`` array whose row ``i``
        matches ``predict_runtimes(dims_list[i])``; the feature grid,
        preprocessing and model evaluation each run exactly once.  A
        ``"log"`` predictor exponentiates the model's output, a
        ``"relative"`` one scales that by each shape's level.
        """
        scores = self.predict_scores_batch(dims_list)
        if self.target == "relative":
            levels = np.array([self.level(dims) for dims in dims_list])
            return np.exp(scores) * levels[:, None]
        return np.exp(scores) if self.target == "log" else scores

    def predict_scores_batch(
        self, dims_list: Sequence[Dict[str, int]]
    ) -> np.ndarray:
        """The model's raw output over the (shapes x candidates) grid.

        Row ``i``'s :func:`~repro.core.compiled.middle_of_ties` column is the
        plan (:meth:`choose_batch` returns both).  This is the one
        evaluation every prediction method makes; the compiled kernel and
        the oracle compare it bit for bit.
        """
        return self.choose_batch(dims_list)[0]

    def choose_batch(self, dims_list: Sequence[Dict[str, int]]) -> tuple:
        """:meth:`predict_scores_batch`'s scores and each shape's chosen
        candidate index, :func:`~repro.core.compiled.middle_of_ties` of its
        row, as a list of ints — picked in native code with the compiled
        evaluation, by the NumPy oracle otherwise."""
        # Both reference toggles opt out of the compiled kernel: the
        # predictor-level ``repro.core.compiled.reference_mode`` and the
        # tree-level ``repro.ml.tree.reference_mode`` (the kernel binds the
        # stacked descent directly and would otherwise ignore the latter).
        if compiled_mod.active_impl() == "compiled" and tree_mod.active_impl() == "vectorized":
            chosen = (self._compiled or self.compile()).choose_batch(dims_list)
            self.n_model_evaluations += 1
            return chosen
        X = feature_matrix_grid(
            self.routine, dims_list, np.asarray(self.candidate_threads)
        )
        transformed = self.pipeline.transform(X)
        self.n_model_evaluations += 1
        predictions = np.asarray(self.model.predict(transformed), dtype=float)
        scores = predictions.reshape(len(dims_list), len(self.candidate_threads))
        return scores, middle_of_ties(scores).tolist()

    def plan(self, dims: Dict[str, int], use_cache: bool = True) -> PredictionPlan:
        """Choose the thread count with the smallest predicted runtime (the
        middle one of a run the model predicts the same minimum for).

        Calls whose dimensions are among the last ``cache_capacity`` distinct
        shapes are served from the LRU cache without re-evaluating the model:
        a hit is a dictionary lookup plus the plan built from the cached
        thread count and score.  A probe is counted when its plan exists: a
        shape the evaluation rejects raises and leaves every counter where it
        was.

        This is the sequential oracle :meth:`plan_batch` is held to.
        """
        chosen, from_cache = self._plan_one(dims, self.cache_key(dims), use_cache)
        return self._plan_of(dims, chosen, from_cache)

    def _plan_one(self, dims: Dict[str, int], key: tuple, use_cache: bool) -> tuple:
        """One shape's cached ``(threads, score)`` pair, and whether it was a
        hit — :meth:`plan` and a one-shape :meth:`cached_plans`."""
        cache = self._cache
        if use_cache:
            cached = cache.get(key)
            if cached is not None:
                cache.move_to_end(key)
                self.n_cache_hits += 1
                return cached, True
        scores, (best,) = self.choose_batch([dims])
        if use_cache:
            self.n_cache_misses += 1
        chosen = cache[key] = (self.candidate_threads[best], scores.item(0, best))
        cache.move_to_end(key)
        while len(cache) > self.cache_capacity:
            cache.popitem(last=False)
        return chosen, False

    def _plan_of(self, dims: Dict[str, int], chosen: tuple, from_cache: bool) -> PredictionPlan:
        """The plan of a shape whose evaluation chose ``(threads, score)``:
        the dims copied, the score in seconds."""
        dims = dict(dims)
        threads, seconds = chosen
        if self.target != "seconds":
            seconds = math.exp(seconds)
            if self.level is not None:
                seconds *= self.level(dims)
        return PredictionPlan(self.routine, dims, threads, seconds, from_cache)

    def predict_threads(self, dims: Dict[str, int], use_cache: bool = True) -> int:
        """Convenience wrapper returning only the chosen thread count."""
        return self.plan(dims, use_cache=use_cache).threads

    def predict_threads_batch(
        self, dims_list: Sequence[Dict[str, int]]
    ) -> np.ndarray:
        """Chosen thread count per shape, from one batched model evaluation.

        Bypasses the cache.  Install-time scoring makes the same choices
        (``tests/core/test_selection.py`` holds it to this method).
        """
        _, best = self.choose_batch(dims_list)
        return np.asarray(self.candidate_threads, dtype=int)[best]

    def plan_batch(
        self,
        dims_list: Sequence[Dict[str, int]],
        use_cache: bool = True,
        keys: Sequence[tuple] | None = None,
    ) -> list:
        """Plan many shapes with one model evaluation, LRU cache included.

        The serving-engine counterpart of :meth:`plan`: plan ``i`` is
        identical to ``plan(dims_list[i], use_cache=use_cache)`` issued in
        sequence — same thread choices, same predicted times, same
        ``from_cache`` flags, same hit/miss counters and the same final
        cache contents, even when the batch holds more unique shapes than
        ``cache_capacity``.  The only difference is cost: all misses share a
        single :meth:`predict_scores_batch` evaluation (duplicate shapes
        evaluated once), so ``n_model_evaluations`` grows by at most one
        instead of once per miss.  ``keys`` are the shapes'
        :meth:`cache_key` tuples when the caller already holds them (a
        :class:`~repro.serving.engine.PlanRequest` does).

        :meth:`cached_plans` does the work; each shape's plan is built from
        its ``(threads, score)`` pair.
        """
        chosen, hit = self.cached_plans(dims_list, use_cache, keys)
        return [self._plan_of(*slot) for slot in zip(dims_list, chosen, hit)]

    def cached_plans(
        self,
        dims_list: Sequence[Dict[str, int]],
        use_cache: bool = True,
        keys: Sequence[tuple] | None = None,
    ) -> tuple:
        """:meth:`plan_batch` as the serving engine needs it: every shape's
        cached ``(threads, score)`` pair, and the list of ``from_cache`` flags
        :meth:`plan_batch` returns, with the same counters and final cache
        contents.  The engine reads the thread counts and the flags, so no
        plan is built.

        One pass replays the sequential timeline on the LRU itself.  A miss
        takes its slot at once, as a ``None`` placeholder the evaluation
        fills in place, so every later request of the group meets the hit /
        miss / evict order a ``plan()`` loop would: one that finds the
        placeholder is a ``from_cache=True`` hit, one whose slot was
        evicted in between is a second miss sharing the group's one
        evaluation.  No placeholder outlives the call.  When the evaluation
        raises, the placeholders are deleted, nothing is counted (probes or
        evaluation) and the exception propagates unchanged; entries the
        group touched or evicted on its way stay touched or evicted.
        """
        key_of = [self.cache_key(dims) for dims in dims_list] if keys is None else keys
        if len(key_of) == 1:  # the whole timeline is one plan() call
            chosen, from_cache = self._plan_one(dims_list[0], key_of[0], use_cache)
            return [chosen], [from_cache]
        cache = self._cache
        pairs: list = []
        if use_cache:
            # The hits up to the first miss, touched as a plan() loop touches
            # them.  With every key cached nothing is inserted, so nothing is
            # evicted: the sequential answer is the cached pairs.
            probe, touch = cache.get, cache.move_to_end
            for key in key_of:
                cached = probe(key)
                if cached is None:
                    break
                touch(key)
                pairs.append(cached)
            if len(pairs) == len(key_of):
                self.n_cache_hits += len(pairs)
                return pairs, [True] * len(pairs)
        hits = len(pairs)
        flags = [True] * hits
        capacity = self.cache_capacity
        # Distinct shape key -> [its dims, then the slots its plan fills].
        pending: Dict[tuple, list] = {}
        for slot in range(hits, len(key_of)):
            key = key_of[slot]
            cached = cache.get(key, _ABSENT)
            from_cache = False
            if cached is _ABSENT:
                cache[key] = None
                while len(cache) > capacity:
                    cache.popitem(last=False)
            else:
                cache.move_to_end(key)
                if use_cache:
                    hits += 1
                    if cached is not None:
                        pairs.append(cached)
                        flags.append(True)
                        continue
                    from_cache = True  # the placeholder of this group's own miss
            owed = pending.get(key)
            if owed is None:
                pending[key] = [dims_list[slot], slot]
            else:
                owed.append(slot)
            pairs.append(None)
            flags.append(from_cache)
        if not pending:  # an empty group
            return pairs, flags
        try:
            scores, choices = self.choose_batch([owed[0] for owed in pending.values()])
        except BaseException:
            for key in pending:
                if key in cache and cache[key] is None:
                    del cache[key]
            raise
        if use_cache:
            self.n_cache_hits += hits
            self.n_cache_misses += len(pairs) - hits
        score_at, threads = scores.item, self.candidate_threads
        for row, (best, (key, owed)) in enumerate(zip(choices, pending.items())):
            chosen = (threads[best], score_at(row, best))
            if key in cache:  # unless evicted again inside the group
                cache[key] = chosen
            for index in range(1, len(owed)):
                pairs[owed[index]] = chosen
        return pairs, flags

    def clear_cache(self) -> None:
        self._cache.clear()

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss counters and current occupancy of the LRU cache."""
        return {
            "hits": self.n_cache_hits,
            "misses": self.n_cache_misses,
            "size": len(self._cache),
            "capacity": self.cache_capacity,
        }

    # -- evaluation-cost measurement ------------------------------------------------
    def measure_eval_time(
        self, dims: Dict[str, int] | None = None, repeats: int = 5
    ) -> float:
        """Average wall-clock seconds of one full prediction (paper's t_eval).

        The measurement includes feature construction, preprocessing and the
        model evaluation over all candidate thread counts, exactly what a
        runtime call pays before the BLAS kernel starts.
        """
        if repeats < 1:
            raise ValueError("repeats must be at least 1")
        if dims is None:
            # A mid-sized representative problem.
            from repro.blas.api import parse_routine

            _, _, spec = parse_routine(self.routine)
            dims = {name: 1024 for name in spec.dim_names}
        # One warm-up evaluation so one-off allocation / import costs do not
        # count against the model.
        self.predict_scores_batch([dims])
        start = time.perf_counter()
        for _ in range(repeats):
            self.predict_scores_batch([dims])
        return (time.perf_counter() - start) / repeats
