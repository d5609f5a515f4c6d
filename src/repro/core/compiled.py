"""Compiled prediction hot path: one fused feature→preprocess→ensemble kernel.

The object-graph prediction path (``feature_matrix_grid`` →
``PreprocessingPipeline.transform`` → ``model.predict``) re-does structural
work on every ``plan()`` call: it stacks seventeen feature blocks into a
fresh matrix, loops the Yeo-Johnson transform column by column, slices the
correlation survivors, and walks the ensemble tree by tree.  None of that
structure changes after installation — only the dimension values do.

:class:`CompiledPredictor` therefore follows a **build-once / evaluate-many
contract**: everything shape-independent is resolved exactly once when the
predictor is built (at bundle load, or lazily on the first prediction), and
each subsequent evaluation is a short straight-line pass over preallocated
buffers:

* **build time** — parse the routine spec; bind the candidate thread
  counts; read the correlation filter's kept-column indices and restrict
  the Yeo-Johnson lambdas and the standardisation affine to them
  (:meth:`~repro.preprocessing.pipeline.PreprocessingPipeline.compile`);
  construct a :class:`~repro.core.features.FeatureGridWriter` that
  materialises *only the kept feature columns*; bind the model to a
  :class:`ModelKernel` (trees stacked into one struct-of-arrays, a linear
  model's ``(coef, intercept)`` pair); and cast every constant argument
  of the native call — column program, thread counts, lambdas / shift /
  scale, mode, the stacked trees, the fold constants, AdaBoost's weights
  — to its C pointer exactly once, into the one argument record the call
  reads (:class:`repro.ml._native.BoundEvaluate`, which also validates
  them and keeps them alive).
* **evaluate time** — write the dims into the writer's scratch and make
  one C call, passing the record's address and the shape count, that
  fills the feature grid, applies the fused preprocessing (Yeo-Johnson
  then one affine, each column transformed only where its input varies
  and copied elsewhere; the shape-free ``nt`` column is transformed once
  per predictor, by the bound call's first use, and copied into every
  grid after), runs the single stacked ensemble descent and,
  for AdaBoost, takes the weighted median of each row — then picks each
  shape's thread count (:func:`middle_of_ties`, in C: inside the call
  where it wrote the final scores, as a second bound call after Python
  finished them otherwise).  Dims scratch and grid belong to the writer,
  the output, median, score and choice buffers to the predictor; their
  addresses are re-cast only when a larger batch made the writer replace
  its buffers, so a steady-state evaluation marshals nothing, and what it
  returns is an owned array, never a view of a reused buffer.  Only a
  median row whose leaves tie comes back to NumPy (``median_tie_rows``
  counts them; see ``_finish_median``).

One model over one (shapes × candidate-threads) grid is evaluated in
exactly three ways, each with one job:

* **production** (``path == "native"``) — the three stages as one
  GIL-free C call (``fused_evaluate`` in :mod:`repro.ml._native`);
* **fallback** (``path == "numpy"``) — the same three stages as NumPy
  expressions (:func:`numpy_grid`: ``FeatureGridWriter.write_dicts`` →
  ``FusedTransform.transform_kept``; then :func:`numpy_scores`:
  ``ModelKernel.evaluate``), taken when ``ADSALA_NATIVE=0``, nothing
  native could be built, the load-time transform probe failed, the
  routine has no column program, or the first-call self-check tripped
  (``path_reason`` says which) — and what that self-check compares the
  production result against.  Install-time scoring
  (:mod:`repro.core.selection`) runs this path too: one grid per routine,
  one :func:`numpy_scores` per candidate, no native call bound and no
  self-check;
* **oracle** — :func:`reference_mode`: the object graph above over
  recursive trees (:func:`repro.ml.tree.reference_mode`), sharing no
  descent code with the other two.  Tests and benchmark baselines only.

All three are bit-identical (``tests/core/test_compiled.py``,
``tests/core/test_property_evaluate.py``): they perform the exact same
scalar operations per element, just batched differently.  The pick has
one NumPy form, :func:`middle_of_ties`, which the fallback, the oracle and
install-time scoring use and the native pick is held to (at the first
call, and in ``tests/core/test_property_tie_pick.py``).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence

import numpy as np

from repro.core.features import FeatureGridWriter
from repro.ml import _native
from repro.ml.base import BaseRegressor
from repro.ml.boosting import (
    AdaBoostRegressor,
    GradientBoostingRegressor,
    HistGradientBoostingRegressor,
    weighted_median,
)
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor, StackedTrees
from repro.ml.tree import reference_mode as tree_reference_mode
from repro.preprocessing.pipeline import FusedTransform, PreprocessingPipeline

__all__ = [
    "CompiledPredictor",
    "ModelKernel",
    "compile_model_kernel",
    "middle_of_ties",
    "numpy_grid",
    "numpy_scores",
    "reference_mode",
    "active_impl",
]


#: Active implementation: "compiled" (default) or "reference".
_IMPL = "compiled"


@contextmanager
def reference_mode():
    """Force the oracle prediction path for the duration of the block.

    Affects every :class:`~repro.core.predictor.ThreadPredictor` (and, by
    extension, the serving engine): ``plan`` / ``plan_batch`` /
    ``predict_runtimes*`` evaluate ``feature_matrix_grid`` +
    ``PreprocessingPipeline.transform`` + ``model.predict`` with every tree
    walked recursively (:func:`repro.ml.tree.reference_mode` is entered
    too, so models fitted inside the block also use the node-at-a-time
    growers).  Slow and obviously correct; results are bit-identical to
    the compiled paths, which is what the equivalence tests and the
    benchmark's oracle gate assert.
    """
    global _IMPL
    previous = _IMPL
    _IMPL = "reference"
    try:
        with tree_reference_mode():
            yield
    finally:
        _IMPL = previous


def active_impl() -> str:
    """The currently active implementation ("compiled" or "reference")."""
    return _IMPL


@dataclass
class ModelKernel:
    """A fitted model flattened to the fields its evaluation reads.

    ``kind`` names the one evaluator that runs over those fields
    (:func:`compile_model_kernel` picks it):

    * ``"tree"`` / ``"forest-mean"`` / ``"weighted-median"`` descend
      ``stack`` per tree and take row 0 / the mean / the AdaBoost median
      under ``weights``;
    * ``"fold"`` is the boosted sum ``base + Σ scale · tree(X)`` over
      ``stack``;
    * ``"linear"`` is ``X @ coef + intercept``;
    * ``"opaque"`` is ``model.predict`` (SVR, KNN, anything unknown).

    ``evaluate`` takes the *preprocessed* feature matrix and skips input
    re-validation — the compiled predictor constructs that matrix itself.
    It is bound once here, so callers pay no per-call dispatch.  The
    native ``fused_evaluate`` call reads the same fields.
    """

    kind: str
    stack: StackedTrees | None = None
    weights: np.ndarray | None = None
    base: float = 0.0
    scale: float = 0.0
    coef: np.ndarray | None = None
    intercept: float = 0.0
    model: object = None
    evaluate: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind == "opaque":
            self.evaluate = self.model.predict
            return
        if self.kind not in self._EVALUATORS:
            raise ValueError(f"Unknown model kernel kind {self.kind!r}")
        self.evaluate = getattr(self, self._EVALUATORS[self.kind])

    def _evaluate_tree(self, X: np.ndarray) -> np.ndarray:
        return self.stack._descend(X)[0].copy()

    def _evaluate_forest_mean(self, X: np.ndarray) -> np.ndarray:
        return self.stack._descend(X).mean(axis=0)

    def _evaluate_weighted_median(self, X: np.ndarray) -> np.ndarray:
        return weighted_median(self.stack._descend(X).T, self.weights)

    def _evaluate_fold(self, X: np.ndarray) -> np.ndarray:
        return self.stack.fold(X, self.base, self.scale)

    def _evaluate_linear(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef + self.intercept

    _EVALUATORS = {
        "tree": "_evaluate_tree",
        "forest-mean": "_evaluate_forest_mean",
        "weighted-median": "_evaluate_weighted_median",
        "fold": "_evaluate_fold",
        "linear": "_evaluate_linear",
    }


def compile_model_kernel(model: BaseRegressor) -> ModelKernel:
    """Bind a fitted model to its fastest bit-identical evaluation kernel.

    * tree ensembles → the whole-ensemble stacked descent (built eagerly
      here so the first ``plan()`` does not pay the stacking cost);
    * a single decision tree → a one-tree stack, which rides the
      packed-node native descent instead of the level-synchronous NumPy
      gathers;
    * linear-family models (``coef_`` + ``intercept_``) → one mat-vec;
    * anything else (SVR, KNN, ...) → the model's own ``predict``.
    """
    if isinstance(model, DecisionTreeRegressor):
        return ModelKernel("tree", stack=StackedTrees([model.flat_tree_]))
    if isinstance(model, RandomForestRegressor):
        return ModelKernel("forest-mean", stack=model.stacked())
    if isinstance(model, AdaBoostRegressor):
        return ModelKernel(
            "weighted-median",
            stack=model.stacked(),
            weights=np.asarray(model.estimator_weights_, dtype=np.float64),
        )
    if isinstance(model, (GradientBoostingRegressor, HistGradientBoostingRegressor)):
        return ModelKernel(
            "fold",
            stack=model.stacked(),
            base=float(model.base_prediction_),
            scale=float(model.learning_rate),
        )
    coef = getattr(model, "coef_", None)
    intercept = getattr(model, "intercept_", None)
    if coef is not None and intercept is not None:
        return ModelKernel(
            "linear", coef=np.asarray(coef, dtype=np.float64), intercept=intercept
        )
    return ModelKernel("opaque", model=model)


def numpy_grid(
    writer: FeatureGridWriter, fused: FusedTransform, dims_list: Sequence[Dict[str, int]]
) -> np.ndarray:
    """The fallback's fill and transform stages: the preprocessed
    ``(len(dims_list) * n_threads, n_kept)`` grid, as an owned array."""
    return fused.transform_kept(writer.write_dicts(dims_list))


def numpy_scores(kernel: ModelKernel, transformed: np.ndarray) -> np.ndarray:
    """The fallback's model stage over a :func:`numpy_grid` result."""
    return np.asarray(kernel.evaluate(transformed), dtype=float)


def middle_of_ties(scores: np.ndarray) -> np.ndarray:
    """The plan's column per row of a 2-D score matrix: the lower median of
    the columns whose score equals the row minimum exactly.

    A model flat over a run of thread counts (a decision tree's leaf, shared
    by neighbouring counts) cannot tell them apart; ``np.argmin`` would take
    the fewest threads of the run, furthest from the max-thread baseline,
    where this takes its middle.  A row with one minimum keeps
    ``np.argmin``'s column, and so does a row holding a NaN (its first NaN,
    which no score equals).  This NumPy form is the oracle of the native
    pick (``middle_of_ties`` in :mod:`repro.ml._native`) and the pick of the
    NumPy fallback and of install-time scoring.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] == 1:
        # One plan: index its tied columns directly, at half the cost of the
        # running count below; a NaN row has none and takes argmin's.
        row = scores[0]
        tied = np.flatnonzero(row == row.min())
        return np.array([tied[(tied.size - 1) // 2] if tied.size else row.argmin()])
    # Running count of the ties along each row; the lower median of ``count``
    # ties is where it first reaches (count + 1) // 2.
    rank = np.cumsum(scores == scores.min(axis=1, keepdims=True), axis=1)
    count = rank[:, -1:]
    middle = (rank == (count + 1) // 2).argmax(axis=1)
    if count.all():
        return middle
    # A NaN minimum equals nothing: those rows take argmin's first NaN.
    return np.where(count[:, 0] > 0, middle, scores.argmin(axis=1))


class CompiledPredictor:
    """Build-once / evaluate-many kernel for one routine's runtime model.

    Parameters
    ----------
    routine:
        Routine key, e.g. ``"dsyrk"``.
    pipeline:
        Fitted preprocessing pipeline; collapsed to flat arrays at build
        time via :meth:`~repro.preprocessing.pipeline.PreprocessingPipeline.compile`.
    model:
        Fitted runtime-regression model; compiled via
        :func:`compile_model_kernel`.
    candidate_threads:
        Thread counts evaluated per shape (one grid row each).

    The instance owns reusable buffers and is **not** thread-safe; each
    :class:`~repro.core.predictor.ThreadPredictor` builds its own.

    Beside ``path`` / ``path_reason``, ``median_tie_rows`` says which code
    finished an AdaBoost median: it counts the grid rows the native call
    handed back to ``boosting.weighted_median`` because two of their leaves
    tie (0 unless trees share a leaf value; always 0 on the NumPy path).
    """

    def __init__(
        self,
        routine: str,
        pipeline: PreprocessingPipeline,
        model: BaseRegressor,
        candidate_threads: Sequence[int],
    ):
        self.routine = routine
        self.candidate_threads = np.asarray(candidate_threads, dtype=np.float64)
        self._fused = pipeline.compile()
        self._writer = FeatureGridWriter(
            routine, self.candidate_threads, columns=self._fused.kept_indices
        )
        self._model_kernel = compile_model_kernel(model)
        self._configure_native()

    #: Native descent mode per model kind (see ``fused_evaluate`` in
    #: :mod:`repro.ml._native`): 0 = per-tree leaf matrix, 1 = boosted
    #: fold, 2 = stop after the transform and finish in Python, 3 = leaf
    #: matrix plus its weighted median per row.
    _NATIVE_MODES = {
        "tree": 0,
        "forest-mean": 0,
        "weighted-median": 3,
        "fold": 1,
        "linear": 2,
        "opaque": 2,
    }

    def _configure_native(self) -> None:
        """Bind the fused native call, or record why the NumPy path serves.

        The native path is further guarded by a first-call self-check
        against the NumPy path (:meth:`_run_selfcheck`).
        """
        self._fused_call = None
        self._selfcheck_pending = False
        self.median_tie_rows = 0
        kernels = _native.load_kernels()
        if kernels is None:
            self._path_reason = (
                "unavailable" if _native.native_enabled() else "disabled"
            )
            return
        if kernels.fused_evaluate is None:
            self._path_reason = "probe-failed"
            return
        self._program = self._writer.column_program()
        if self._program is None:
            self._path_reason = "no-column-program"
            return
        self._path_reason = None
        self._selfcheck_pending = True
        self._flat_state = self._fused.flat_arrays()
        kernel = self._model_kernel
        mode = self._native_mode = self._NATIVE_MODES[kernel.kind]
        # Output values per grid row: one per tree, one folded sum, or none.
        self._out_width = 0 if mode == 2 else 1 if mode == 1 else kernel.stack.n_trees
        # Whether the call's own tail writes the final scores, so the call
        # can end with the tie pick; a forest's mean and the mode-2 models
        # are finished in Python, which then asks for the pick alone.
        self._pick_in_call = kernel.kind in ("tree", "fold", "weighted-median")
        self._bind_fused()

    def _bind_fused(self) -> None:
        """Cast every per-predictor constant of the native call, once."""
        kernel = self._model_kernel
        stack = kernel.stack
        trees = (None,) * 3 if stack is None else (stack.roots, stack.depths, stack.nodes_packed)
        self._fused_call = _native.load_kernels().fused_evaluate.bind(
            self._program, self._writer.nt, *self._flat_state,
            self._native_mode, *trees, kernel.base, kernel.scale, kernel.weights,
            self._pick_in_call,
        )  # fmt: skip
        self._out = self._median = self._scores = self._choice = None

    @property
    def path(self) -> str:
        """Which implementation serves evaluations: ``"native"`` or ``"numpy"``."""
        return "native" if self._fused_call is not None else "numpy"

    @property
    def path_reason(self) -> str | None:
        """Why ``path`` is ``"numpy"`` — ``"disabled"`` (``ADSALA_NATIVE=0``),
        ``"unavailable"`` (nothing could be built or loaded),
        ``"probe-failed"`` (load-time transform probe), ``"no-column-program"``
        (the routine's features have no native fill) or ``"selfcheck-failed"``
        — and ``None`` on the native path."""
        return self._path_reason

    @property
    def n_candidates(self) -> int:
        return int(self.candidate_threads.size)

    def predict_runtimes(self, dims: Dict[str, int]) -> np.ndarray:
        """Predicted runtime per candidate thread count for one shape.

        Bit-identical to the oracle's ``ThreadPredictor.predict_runtimes``
        output.
        """
        return self.predict_runtimes_batch([dims])[0]

    def predict_runtimes_batch(
        self, dims_list: Sequence[Dict[str, int]]
    ) -> np.ndarray:
        """Predicted runtimes for many shapes in one fused pass.

        Returns a ``(len(dims_list), n_candidates)`` array matching the
        oracle's ``predict_runtimes_batch`` bit for bit: **one C call**
        (fill → transform → descent) that releases the GIL end to end on
        the native path, the same three stages as NumPy expressions
        otherwise.
        """
        return self.choose_batch(dims_list)[0]

    def choose_batch(self, dims_list: Sequence[Dict[str, int]]) -> tuple:
        """:meth:`predict_runtimes_batch`'s scores and each shape's planned
        column, :func:`middle_of_ties` of its row, as a list of ints.

        On the native path the pick runs in C over the final scores: inside
        the one call for a single tree, a fold and an AdaBoost median, as a
        second bound call (:meth:`BoundEvaluate.pick`) after Python finished
        a forest's mean, a linear or opaque model, or tied median rows.
        """
        if self._fused_call is None:
            scores = self._predict_numpy(dims_list).reshape(len(dims_list), -1)
            return scores, middle_of_ties(scores).tolist()
        if self._selfcheck_pending:
            return self._run_selfcheck(dims_list)
        # One native call over the whole evaluate span (and, where Python
        # finishes the scores, the bound pick); the scores are an owned
        # array, never a view of the reused output buffer.
        n_shapes = self._call_fused(dims_list)
        mode = self._native_mode
        rows = n_shapes * self.candidate_threads.size
        if mode == 3:
            scores = self._finish_median(n_shapes, rows)
        elif self._pick_in_call:  # a single tree, a fold: out is the score
            scores = self._out[:rows].copy()
        else:
            if mode == 2:
                scores = numpy_scores(self._model_kernel, self._writer.grid_view(n_shapes))
            else:  # forest-mean
                scores = self._out[: self._out_width * rows].reshape(-1, rows).mean(axis=0)
            self._pick_native(scores, n_shapes)
        return scores.reshape(n_shapes, -1), self._choice[:n_shapes].tolist()

    def _predict_numpy(self, dims_list) -> np.ndarray:
        """The fallback: the three stages as NumPy expressions."""
        return numpy_scores(
            self._model_kernel, numpy_grid(self._writer, self._fused, dims_list)
        )

    def _call_fused(self, dims_list) -> int:
        """Load the dims and make the one C call; returns the shape count.

        The bound call is re-pointed (one cast per buffer) only when the
        writer replaced its buffers; the output buffer, in mode 3 the median
        buffer, the choice buffer and, where Python finishes scores for the
        bound pick (mode 2, a forest's mean, mode 3's tied rows), the scores
        buffer are regrown to match then.
        """
        writer = self._writer
        writer.load_dims(dims_list)
        dims, grid = writer.buffers
        bound = self._fused_call
        if grid is not bound.buffers[1]:
            rows = grid.shape[0] * grid.shape[1]
            mode = self._native_mode
            self._out = np.empty(self._out_width * rows) if self._out_width else None
            self._median = np.empty(rows) if mode == 3 else None
            finished_in_python = not self._pick_in_call or mode == 3
            self._scores = np.empty(rows) if finished_in_python else None
            self._choice = np.empty(grid.shape[0], dtype=np.int64)
            bound.point(dims, grid, self._out, self._median, self._scores, self._choice)
        n_shapes = len(dims_list)
        bound(n_shapes)
        return n_shapes

    def _transform_fused(self, dims_list) -> np.ndarray:
        """Native fill + transform only (mode 2): the transformed grid, as a
        view of the writer's buffer."""
        return self._writer.grid_view(self._call_fused(dims_list))

    def _pick_native(self, scores: np.ndarray, n_shapes: int) -> None:
        """The bound pick over flat scores Python finished."""
        self._scores[: scores.size] = scores
        self._fused_call.pick(n_shapes)

    def _finish_median(self, n_shapes: int, rows: int) -> np.ndarray:
        """Mode 3's result: the medians C took, and NumPy's for the rows it
        flagged (NaN) because two of their leaves tie — ``argsort``'s tie
        order is the host's, so only ``weighted_median`` itself, on the leaf
        matrix the call wrote, reproduces it.  The call skipped its pick
        then; it runs once the medians are whole."""
        median = self._median[:rows].copy()
        if self._fused_call.n_tied:
            tied = np.flatnonzero(np.isnan(median))
            leaves = self._out[: self._out_width * rows].reshape(self._out_width, rows)
            median[tied] = weighted_median(leaves[:, tied].T, self._model_kernel.weights)
            self.median_tie_rows += tied.size
            self._pick_native(median, n_shapes)
        return median

    def _run_selfcheck(self, dims_list) -> tuple:
        """First-call guard: the fused C result must equal the NumPy path.

        For tree kernels (modes 0, 1 and 3) that is the predictions, value
        for value.  For ``linear``/``opaque`` kernels (mode 2) the native
        call stops after the transform and the same ``kernel.evaluate``
        finishes both sides, so the transformed grids are compared bit for
        bit instead — equal inputs give equal outputs — and the model is
        evaluated once.  Either way the choices of the native pick must
        equal :func:`middle_of_ties` of the NumPy scores.

        On mismatch this predictor drops to the NumPy path for good (the
        long-trusted descent kernel inside :class:`StackedTrees` stays), a
        warning is emitted once, and the NumPy result is returned.
        """
        self._selfcheck_pending = False
        n_shapes = len(dims_list)
        if self._native_mode == 2:
            # Snapshot: write_dicts below refills the buffer this views.
            fused = self._transform_fused(dims_list).copy()
            transformed = numpy_grid(self._writer, self._fused, dims_list)
            flat = numpy_scores(self._model_kernel, transformed)
            self._pick_native(flat, n_shapes)
            predictions = reference = flat.reshape(n_shapes, -1)
            choices = self._choice[:n_shapes].tolist()
            agree = fused.tobytes() == transformed.tobytes()
        else:
            predictions, choices = self.choose_batch(dims_list)  # no longer pending
            reference = self._predict_numpy(dims_list).reshape(n_shapes, -1)
            agree = np.array_equal(predictions, reference)
        reference_choices = middle_of_ties(reference).tolist()
        if agree and choices == reference_choices:
            return predictions, choices
        warnings.warn(
            f"native fused evaluate diverged from the NumPy path for "
            f"routine {self.routine!r}; this predictor now evaluates in NumPy",
            RuntimeWarning,
            stacklevel=3,
        )
        self._fused_call = None
        self._path_reason = "selfcheck-failed"
        return reference, reference_choices
