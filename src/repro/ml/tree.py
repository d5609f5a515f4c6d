"""CART regression tree with variance-reduction splits.

The tree is the building block for the Random Forest and AdaBoost
candidates (the two gradient boosters grow their own Newton trees in
:mod:`repro.ml.boosting` and share only :class:`FlatTree`).

**Growing.**  There is one production grower, :func:`_grow_frontier`.  It
takes ``T`` roots — row-index sets into one shared ``X``/``y``/``w`` — and
advances every open node of every tree one level per iteration: nodes are
bucketed by size class into padded ``(nodes, features, width)`` blocks, and
the stable per-feature sort, the per-node prefix sums, the gain, the
validity mask, the first-max ``argmax`` and the earlier-feature tie-break
are one array pass per bucket instead of ~45 NumPy dispatches per node.
``RandomForestRegressor.fit`` makes one ``T``-root call;
``DecisionTreeRegressor.fit`` (and so every AdaBoost round) is the ``T = 1``
case of the same code.  The grower writes the node arrays of a
:class:`FlatTree` directly; no linked node graph exists at any point.

**The oracle.**  Under :func:`reference_mode` trees are grown by
:func:`_grow_reference` — one tree, one node, one feature at a time, through
:func:`_best_split_reference` — and predicted by a recursive walk, tree by
tree; it shares no descent code with the production path, and
:func:`repro.core.compiled.reference_mode` nests it.  The two
builders produce the same node arrays bit for bit
(``tests/ml/test_property_grower.py``, ``tests/ml/test_flat_tree.py``)
because they share two definitions:

* *Feature subsets.*  With ``max_features`` below the feature count, tree
  ``t`` draws one ``rng.random((open_nodes, n_features))`` block per level,
  one row per open node in node order, and a node examines the ``k``
  features with the smallest keys, in key order
  (:func:`_draw_feature_subsets`).  A tree's stream therefore depends only
  on its own shape, not on which other trees grow beside it.
* *Node totals.*  A node's weight, ``Σwy`` and ``Σwy²`` are the last entries
  of sequential prefix sums (``cumsum``) over its rows in node order — the
  arithmetic a padded block reproduces exactly, which pairwise ``sum`` and
  BLAS ``dot`` are not.

**Prediction.**  ``predict`` descends the :class:`FlatTree`
struct-of-arrays (``feature[]``, ``threshold[]``, ``left[]``, ``right[]``,
``value[]``) iteratively for the whole query batch at once; an ensemble
concatenates its trees into one :class:`StackedTrees` and descends them
all in a single pass — through the native ``stacked_descent`` kernel when
it built, through the bit-identical NumPy frontier loop otherwise.  There
is no third way: a prediction is either the stacked descent or the
recursive oracle.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ml import _native
from repro.ml.base import BaseRegressor, check_X, check_X_y

__all__ = [
    "DecisionTreeRegressor",
    "FlatTree",
    "StackedTrees",
    "native_descent_active",
    "reference_mode",
]


#: Active implementation: "vectorized" (default) or "reference".
_IMPL = "vectorized"


@contextmanager
def reference_mode():
    """Force the node-at-a-time builders and recursive prediction.

    Affects every tree-based model in :mod:`repro.ml` (decision tree, random
    forest, AdaBoost and both gradient-boosting variants) for the duration
    of the ``with`` block.  Fitted models are identical either way — the
    reference mode exists for equivalence tests and benchmark baselines.
    """
    global _IMPL
    previous = _IMPL
    _IMPL = "reference"
    try:
        yield
    finally:
        _IMPL = previous


def active_impl() -> str:
    """The currently active implementation ("vectorized" or "reference")."""
    return _IMPL


def native_descent_active() -> bool:
    """Whether new :class:`StackedTrees` will descend through the C kernel.

    False when the build is unavailable or switched off
    (``ADSALA_NATIVE=0``); existing stacks keep whatever kernel they
    resolved at construction.
    """
    return _native.load_kernels() is not None


@dataclass
class _Node:
    """Unpickle target for estimators saved before the frontier grower.

    Those pickles carry a linked ``tree_`` graph of these beside their
    ``flat_tree_``; nothing builds or reads one any more.
    """

    value: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    n_samples: int = 0
    impurity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class FlatTree:
    """Struct-of-arrays compilation of a fitted binary regression tree.

    ``feature[i] == -1`` marks node ``i`` as a leaf; interior nodes route a
    row left when ``X[row, feature[i]] <= threshold[i]``.  :meth:`predict`
    descends all query rows simultaneously (one fancy-indexing step per tree
    level).  The same compiled form serves every tree ensemble in :mod:`repro.ml`.
    """

    __slots__ = (
        "feature",
        "threshold",
        "left",
        "right",
        "value",
        "depth",
        "_descent_feature",
        "_descent_threshold",
        "_children",
    )

    def __init__(self, feature, threshold, left, right, value, depth):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.depth = depth
        # Descent tables with self-looping leaves: a row that reaches a leaf
        # keeps routing to the same node (feature 0 vs +inf always goes
        # "left" onto itself), so predict can run exactly `depth` fixed
        # iterations with no per-level active-row bookkeeping.
        node_ids = np.arange(feature.shape[0], dtype=np.intp)
        is_leaf = feature < 0
        self._descent_feature = np.where(is_leaf, 0, feature)
        self._descent_threshold = np.where(is_leaf, np.inf, threshold)
        # Column 0 = right child, column 1 = left child, so the boolean
        # "goes left" (X[..] <= threshold, false for NaN — same routing as
        # the recursive reference) indexes the children table directly.
        self._children = np.column_stack(
            (
                np.where(is_leaf, node_ids, right),
                np.where(is_leaf, node_ids, left),
            )
        )

    def __getstate__(self):
        return (self.feature, self.threshold, self.left, self.right, self.value, self.depth)

    def __setstate__(self, state):
        self.__init__(*state)

    @classmethod
    def from_node(cls, root) -> "FlatTree":
        """Compile a linked node tree (any object with ``is_leaf``/``feature``/
        ``threshold``/``left``/``right``/``value``) into flat arrays."""
        order = []
        depths = []
        stack = [(root, 0)]
        max_depth = 0
        while stack:
            node, node_depth = stack.pop()
            order.append(node)
            depths.append(node_depth)
            if node_depth > max_depth:
                max_depth = node_depth
            if not node.is_leaf:
                stack.append((node.right, node_depth + 1))
                stack.append((node.left, node_depth + 1))
        index = {id(node): i for i, node in enumerate(order)}
        n = len(order)
        feature = np.full(n, -1, dtype=np.intp)
        threshold = np.zeros(n)
        left = np.full(n, -1, dtype=np.intp)
        right = np.full(n, -1, dtype=np.intp)
        value = np.empty(n)
        for i, node in enumerate(order):
            value[i] = node.value
            if not node.is_leaf:
                feature[i] = node.feature
                threshold[i] = node.threshold
                left[i] = index[id(node.left)]
                right[i] = index[id(node.right)]
        return cls(feature, threshold, left, right, value, max_depth)

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorised iterative descent of all rows of ``X``.

        One fancy-indexing step per tree level over the whole query batch;
        rows that reach a leaf early self-loop there until the fixed
        ``depth`` iterations finish.
        """
        descent_feature = self._descent_feature
        descent_threshold = self._descent_threshold
        children = self._children
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(self.depth):
            go_left = X[rows, descent_feature[node]] <= descent_threshold[node]
            node = children[node, go_left.view(np.int8)]
        return self.value[node]


class StackedTrees:
    """Every :class:`FlatTree` of an ensemble concatenated into one
    struct-of-arrays.

    The per-tree flat arrays (descent feature/threshold tables, children,
    leaf values) are concatenated back to back and each tree's child indices
    are shifted by its *root offset*, so the whole ensemble lives in one set
    of arrays.  :meth:`predict_per_tree` then descends **all trees over all
    query rows simultaneously**: one fancy-indexing step per level moves an
    ``(n_trees, n_samples)`` frontier of node ids, replacing the per-tree
    Python loop that dominated small-batch ensemble prediction.

    Routing is identical to the per-tree :meth:`FlatTree.predict` (leaves
    self-loop, so shallower trees simply idle until the deepest tree
    finishes), which makes the stacked prediction bit-identical to the
    stacked per-tree loop it replaces.  The descent runs over a flat
    ``(n_trees * n_samples,)`` frontier with preallocated scratch buffers
    and ``np.take`` gathers — broadcast fancy indexing on 2-D frontiers
    costs several times more per level at the µs scale this serves.

    When the native kernel built (:func:`native_descent_active`), descent
    and fold instead run through the GIL-free C ``stacked_descent`` over
    the packed 32-byte node array; ``ADSALA_NATIVE=0`` falls back to the
    bit-identical NumPy frontier loop above.
    """

    __slots__ = (
        "feature",
        "threshold",
        "children_flat",
        "value",
        "roots",
        "depths",
        "depth",
        "nodes_packed",
        "_scratch_size",
        "_scratch",
        "_out",
        "_native",
    )

    def __init__(self, flat_trees):
        flat_trees = list(flat_trees)
        if not flat_trees:
            raise ValueError("StackedTrees needs at least one FlatTree")
        sizes = np.asarray([tree.n_nodes for tree in flat_trees], dtype=np.intp)
        offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        self.roots = np.ascontiguousarray(offsets, dtype=np.int64)
        self.depths = np.ascontiguousarray(
            [tree.depth for tree in flat_trees], dtype=np.int64
        )
        self.feature = np.concatenate(
            [tree._descent_feature for tree in flat_trees]
        )
        self.threshold = np.concatenate(
            [tree._descent_threshold for tree in flat_trees]
        )
        # Children interleaved per node as (right, left): the flat index
        # ``2 * node + go_left`` selects the next node in one gather.
        children = np.concatenate(
            [tree._children + offset for tree, offset in zip(flat_trees, offsets)]
        )
        self.children_flat = np.ascontiguousarray(children.reshape(-1))
        self.value = np.concatenate([tree.value for tree in flat_trees])
        self.depth = max(tree.depth for tree in flat_trees)
        # Packed 32-byte array-of-structs mirror for the native kernel: one
        # cache line per node visit instead of four scattered gathers.
        packed = np.empty(self.feature.shape[0], dtype=_native.NODE_DTYPE)
        packed["thr"] = self.threshold
        packed["feat"] = self.feature
        packed["right"] = children[:, 0]
        packed["left"] = children[:, 1]
        packed["value"] = self.value
        self.nodes_packed = packed
        # Scratch/output buffers are allocated on first descent.
        self._scratch_size = -1
        self._scratch = None
        self._out = None
        kernels = _native.load_kernels()
        self._native = kernels.descent if kernels is not None else None

    @property
    def n_trees(self) -> int:
        return self.roots.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def _out_buffer(self, n_samples: int) -> np.ndarray:
        """Reusable ``(n_trees, n_samples)`` output buffer."""
        out = self._out
        if out is None or out.shape[1] != n_samples:
            out = np.empty((self.roots.shape[0], n_samples), dtype=np.float64)
            self._out = out
        return out

    def _buffers(self, n_samples: int, n_features: int):
        """Reusable NumPy-descent scratch for a given frontier geometry.

        Only the fallback path needs these seven arrays; the native kernel
        keeps its whole state in registers and writes straight into the
        output buffer.
        """
        if self._scratch_size != (n_samples, n_features):
            n_trees = self.roots.shape[0]
            size = n_trees * n_samples
            self._scratch = {
                "node": np.empty(size, dtype=np.intp),
                "fn": np.empty(size, dtype=np.intp),
                "xv": np.empty(size, dtype=np.float64),
                "tv": np.empty(size, dtype=np.float64),
                "go_left": np.empty(size, dtype=bool),
                # Flat offset of each frontier slot's X row, so the feature
                # gather is one integer add plus one take.
                "row_base": np.tile(
                    np.arange(n_samples, dtype=np.intp) * n_features, n_trees
                ),
                "node_init": np.repeat(self.roots, n_samples),
            }
            self._scratch_size = (n_samples, n_features)
        return self._scratch

    def _descend(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions as a **view of the internal output buffer**.

        The view is only valid until the next ``_descend``/``fold`` call;
        in-package aggregations consume it immediately.  External callers
        use :meth:`predict_per_tree`, which returns an owned copy.
        """
        n_samples, n_features = X.shape
        out = self._out_buffer(n_samples)
        if self._native is not None:
            return self._native(
                np.ascontiguousarray(X),
                self.roots,
                self.depths,
                self.nodes_packed,
                0,
                0.0,
                out,
            )
        scratch = self._buffers(n_samples, n_features)
        node = scratch["node"]
        fn = scratch["fn"]
        xv = scratch["xv"]
        tv = scratch["tv"]
        go_left = scratch["go_left"]
        row_base = scratch["row_base"]
        X_flat = np.ascontiguousarray(X).reshape(-1)

        node[:] = scratch["node_init"]
        for _ in range(self.depth):
            np.take(self.feature, node, out=fn)
            np.add(fn, row_base, out=fn)
            np.take(X_flat, fn, out=xv)
            np.take(self.threshold, node, out=tv)
            np.less_equal(xv, tv, out=go_left)
            np.multiply(node, 2, out=node)
            np.add(node, go_left, out=node, casting="unsafe")
            np.take(self.children_flat, node, out=node)
        np.take(self.value, node, out=out.reshape(-1))
        return out

    def predict_per_tree(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions for all rows, shape ``(n_trees, n_samples)``.

        Row ``t`` equals ``flat_trees[t].predict(X)`` bit for bit; the
        ensemble-specific aggregation (mean, boosted sum, weighted median)
        is left to the caller.  The returned array is freshly owned.
        """
        return self._descend(X).copy()

    def fold(self, X: np.ndarray, base: float, scale: float) -> np.ndarray:
        """Boosted-ensemble sum: ``base + Σ_t scale * tree_t(X)`` per row.

        The per-tree contributions fold in tree order with the exact
        ``prediction += scale * update`` element updates of the sequential
        loop (the native kernel is compiled with FP contraction off), so
        the result is bit-identical to folding :meth:`predict_per_tree`
        rows in Python — just without the per-tree loop overhead.
        """
        n_samples = X.shape[0]
        prediction = np.full(n_samples, base)
        if self._native is not None:
            return self._native(
                np.ascontiguousarray(X),
                self.roots,
                self.depths,
                self.nodes_packed,
                1,
                scale,
                prediction,
            )
        for update in self._descend(X):
            prediction += scale * update
        return prediction


def _best_split_reference(
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray,
    feature_indices: np.ndarray,
    min_samples_leaf: int,
):
    """Per-feature-loop split search: the oracle's half of the split rule.

    Operates on the node's row subset directly.  Returns
    ``(feature, threshold, gain)`` of the best weighted-SSE split, or
    ``(None, None, 0.0)`` when no admissible split improves it.  Node totals
    are the last entries of sequential prefix sums in node row order — the
    definition the frontier grower shares (see the module docstring).
    """
    n_samples = X.shape[0]
    wy = sample_weight * y
    total_weight = np.cumsum(sample_weight)[-1]
    total_wy = np.cumsum(wy)[-1]
    total_wyy = np.cumsum(wy * y)[-1]
    parent_sse = total_wyy - total_wy * total_wy / total_weight

    best_gain = 0.0
    best_feature = None
    best_threshold = None

    for feature in feature_indices:
        column = X[:, feature]
        order = np.argsort(column, kind="mergesort")
        col_sorted = column[order]
        y_sorted = y[order]
        w_sorted = sample_weight[order]

        w_cum = np.cumsum(w_sorted)
        wy_cum = np.cumsum(w_sorted * y_sorted)
        wyy_cum = np.cumsum(w_sorted * y_sorted * y_sorted)

        # Split after position i puts samples [0..i] left, (i..n) right.
        # Only positions where the feature value actually changes are valid.
        idx = np.arange(n_samples - 1)
        valid = col_sorted[:-1] < col_sorted[1:]
        valid &= (idx + 1 >= min_samples_leaf)
        valid &= (n_samples - (idx + 1) >= min_samples_leaf)
        # Both children must hold a row of positive weight, or a child's
        # value would be 0/0.
        weighted = np.cumsum(w_sorted > 0)
        valid &= (weighted[:-1] > 0) & (weighted[:-1] < weighted[-1])
        if not np.any(valid):
            continue

        left_w = w_cum[:-1]
        left_wy = wy_cum[:-1]
        left_wyy = wyy_cum[:-1]
        right_w = total_weight - left_w
        right_wy = total_wy - left_wy
        right_wyy = total_wyy - left_wyy

        with np.errstate(divide="ignore", invalid="ignore"):
            left_sse = left_wyy - left_wy * left_wy / left_w
            right_sse = right_wyy - right_wy * right_wy / right_w
        gain = parent_sse - (left_sse + right_sse)
        gain[~valid] = -np.inf

        best_idx = int(np.argmax(gain))
        if gain[best_idx] > best_gain + 1e-12:
            best_gain = float(gain[best_idx])
            best_feature = int(feature)
            best_threshold = float(
                0.5 * (col_sorted[best_idx] + col_sorted[best_idx + 1])
            )
            if best_threshold == col_sorted[best_idx + 1]:
                # Adjacent floats: the midpoint rounded up, and would send
                # both values left.
                best_threshold = float(col_sorted[best_idx])

    return best_feature, best_threshold, best_gain


def _draw_feature_subsets(rngs, n_open, n_features: int, n_split_features: int):
    """Per-split feature subsets for one level: ``(sum(n_open), k)`` indices.

    Tree ``t`` contributes one ``rngs[t].random((n_open[t], n_features))``
    block — one row per open node, in node order — and each node examines
    the ``k`` features with the smallest keys, in key order.  Both builders
    call this, so a tree's stream depends only on its own open-node counts:
    growing it alone or inside a forest consumes the same numbers.
    """
    keys = np.empty((int(np.sum(n_open)), n_features))
    stop = 0
    for rng, count in zip(rngs, n_open):
        if count:
            start, stop = stop, stop + int(count)
            rng.random(out=keys[start:stop])
    return keys.argsort(axis=1, kind="stable")[:, :n_split_features]


@dataclass
class _GrownTree:
    """One grown tree: node arrays in level order, root at index 0."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    impurity: np.ndarray
    depth: int

    def importances(self, n_features: int) -> np.ndarray:
        """Unnormalised impurity decrease summed per split feature."""
        interior = np.flatnonzero(self.feature >= 0)
        mass = self.n_samples * self.impurity
        decrease = (
            mass[interior] - mass[self.left[interior]] - mass[self.right[interior]]
        )
        return np.bincount(
            self.feature[interior], weights=decrease, minlength=n_features
        )


def _grow_reference(
    X, y, w, roots, rngs, max_depth, min_samples_split, min_samples_leaf, n_split_features
):
    """Node-at-a-time level-order builder: the oracle for :func:`_grow_frontier`.

    One tree after another, one node after another, every split found by
    :func:`_best_split_reference` on a copied row subset.  It visits nodes
    in the order the frontier grower numbers them, so the two agree on the
    node arrays element for element.
    """
    n_features = X.shape[1]
    all_features = np.arange(n_features)
    grown = []
    for root, rng in zip(roots, rngs):
        # One record per node, in _GrownTree field order.
        nodes = [[-1, 0.0, -1, -1, 0.0, 0, 0.0]]
        level = [(0, np.asarray(root))]
        depth = 0
        while True:
            open_nodes = []
            for node, indices in level:
                w_node = w[indices]
                y_node = y[indices]
                total_weight = np.cumsum(w_node)[-1]
                node_value = np.cumsum(w_node * y_node)[-1] / total_weight
                deviation = y_node - node_value
                node_impurity = (
                    np.cumsum(w_node * (deviation * deviation))[-1] / total_weight
                )
                nodes[node][4:] = node_value, indices.size, node_impurity
                if not (
                    indices.size < min_samples_split
                    or (max_depth is not None and depth >= max_depth)
                    or node_impurity <= 1e-15
                ):
                    open_nodes.append((node, indices))
            if n_split_features < n_features:
                subsets = _draw_feature_subsets(
                    [rng], [len(open_nodes)], n_features, n_split_features
                )
            else:
                subsets = [all_features] * len(open_nodes)
            level = []
            for (node, indices), feature_indices in zip(open_nodes, subsets):
                best_feature, best_threshold, _ = _best_split_reference(
                    X[indices], y[indices], w[indices], feature_indices, min_samples_leaf
                )
                if best_feature is None:
                    continue
                nodes[node][:4] = best_feature, best_threshold, len(nodes), len(nodes) + 1
                mask = X[indices, best_feature] <= best_threshold
                for child_indices in (indices[mask], indices[~mask]):
                    level.append((len(nodes), child_indices))
                    nodes.append([-1, 0.0, -1, -1, 0.0, 0, 0.0])
            if not level:
                break
            depth += 1
        dtypes = (np.intp, float, np.intp, np.intp, float, np.intp, float)
        grown.append(
            _GrownTree(
                *(np.asarray(c, dtype=d) for c, d in zip(zip(*nodes), dtypes)), depth
            )
        )
    return grown


def _best_split_blocks(columns, feature_base, bucket, min_samples_leaf, uniform):
    """Best split of every node in one bucket: :func:`_best_split_reference`
    as one array pass over a padded ``(nodes, features, width)`` block.

    ``feature_base`` holds, per node (or once for all), the offsets of the
    examined features into the flat ``columns``.  Returns ``(found, rank,
    threshold)``: the bucket positions of the nodes that split, the rank of
    the winning feature among those examined, and the cut.
    """
    _, last, block_rows, yb, wb, wyb, total_weight, total_wy = bucket
    n_members, width = block_rows.shape
    n_examined = feature_base.shape[1]
    total_weight = total_weight[:, None, None]
    total_wy = total_wy[:, None, None]
    total_wyy = (wyb * yb).cumsum(axis=1)[np.arange(n_members), last][:, None, None]
    parent_sse = total_wyy - total_wy * total_wy / total_weight

    # Stable sort of every examined column of every node; the +inf padding
    # stays behind the real rows.
    cols = columns.take(feature_base + block_rows[:, None, :])
    order = cols.argsort(axis=2, kind="stable")
    col_sorted = cols.ravel().take(
        order
        + (np.arange(n_members * n_examined) * width).reshape(n_members, n_examined, 1)
    )
    order += (np.arange(n_members) * width)[:, None, None]
    y_sorted = yb.ravel().take(order)
    left_count = np.arange(1, width)
    if uniform:
        # Unit weights: the weight prefix sums are the counts.
        wy_sorted = y_sorted
        left_w = left_count
    else:
        w_sorted = wb.ravel().take(order)
        wy_sorted = w_sorted * y_sorted
        left_w = w_sorted.cumsum(axis=2)[:, :, :-1]
    left_wy = wy_sorted.cumsum(axis=2)[:, :, :-1]
    left_wyy = (wy_sorted * y_sorted).cumsum(axis=2)[:, :, :-1]
    right_w = total_weight - left_w
    right_wy = total_wy - left_wy
    right_wyy = total_wyy - left_wyy
    # Cuts into the padding, or off a weightless end, divide by zero; they
    # are masked below.
    with np.errstate(divide="ignore", invalid="ignore"):
        left_sse = left_wyy - left_wy * left_wy / left_w
        right_sse = right_wyy - right_wy * right_wy / right_w
        gain = parent_sse - (left_sse + right_sse)

    # Admissible cuts: the feature value changes there, both children keep
    # the leaf minimum (which also rules out every cut into the padding) ...
    valid = col_sorted[:, :, :-1] < col_sorted[:, :, 1:]
    valid &= (
        (left_count >= min_samples_leaf)
        & (last[:, None] + 1 - left_count >= min_samples_leaf)
    )[:, None, :]
    if not uniform:
        # ... and both hold a row of positive weight.
        weighted = (w_sorted > 0).cumsum(axis=2)
        valid &= (weighted[:, :, :-1] > 0) & (
            weighted[:, :, :-1] < weighted[:, :, -1:]
        )
    gain = np.where(valid, gain, -np.inf)

    # First maximum per feature (a NaN counts as one, as in argmax); a
    # later feature wins only by more than 1e-12.
    best_position = gain.argmax(axis=2)
    feature_gain = gain.max(axis=2)
    best_gain = np.zeros(n_members)
    rank = np.full(n_members, -1)
    for j in range(n_examined):
        better = feature_gain[:, j] > best_gain + 1e-12
        best_gain[better] = feature_gain[better, j]
        rank[better] = j
    found = np.flatnonzero(rank >= 0)
    rank = rank[found]
    position = best_position[found, rank]
    below = col_sorted[found, rank, position]
    above = col_sorted[found, rank, position + 1]
    threshold = 0.5 * (below + above)
    # Adjacent floats: a midpoint that rounded up would send both values left.
    threshold = np.where(threshold == above, below, threshold)
    return found, rank, threshold


def _grow_frontier(
    X, y, w, roots, rngs, max_depth, min_samples_split, min_samples_leaf, n_split_features
):
    """Grow every tree of a forest together, one level per iteration.

    The frontier is every node of every tree at the current depth, kept as
    flat arrays (``rows`` holds the nodes' row indices back to back, trees in
    order, each tree's nodes left to right).  Nodes are bucketed by size
    class — the next power of two — into padded ``(nodes, width)`` blocks, so
    per-node statistics, the split search and the child partition are a
    fixed number of array passes per bucket however many nodes it holds.

    Padding is one sentinel row past the data: features ``+inf``, target and
    weight zero.  It sorts behind every real row, adds exact zeros to the
    prefix sums (which run along the padded axis and so restart at each
    node), and can never be a split position because a split there would
    leave no real row on its right.
    """
    n_rows, n_features = X.shape
    n_trees = len(roots)
    subsample = n_split_features < n_features
    stride = n_rows + 1
    columns = np.empty((n_features, stride))
    columns[:, :n_rows] = X.T
    columns[:, n_rows] = np.inf
    columns = columns.ravel()
    y_pad = np.append(y, 0.0)
    w_pad = np.append(w, 0.0)
    uniform = bool(np.all(w == 1.0))
    every_feature = np.arange(n_features)[None, :]

    rows = np.concatenate(roots).astype(np.intp, copy=False)
    size = np.asarray([len(root) for root in roots], dtype=np.intp)
    tree = np.arange(n_trees)
    first_id = np.zeros(n_trees, dtype=np.intp)
    tree_depth = np.zeros(n_trees, dtype=np.intp)
    levels = []
    depth = 0

    while True:
        n_nodes = size.size
        node_ids = np.arange(n_nodes)
        start = np.cumsum(size) - size
        rows_pad = np.append(rows, n_rows)
        may_split = max_depth is None or depth < max_depth

        # Node value and impurity, from prefix sums in node row order.
        value = np.empty(n_nodes)
        impurity = np.empty(n_nodes)
        widths = 1 << np.frexp(size - 1)[1]  # next power of two
        buckets = []
        for width in np.unique(widths):
            members = np.flatnonzero(widths == width)
            slot = np.arange(width)
            last = size[members] - 1
            position = start[members, None] + slot
            position[slot > last[:, None]] = rows.size
            block_rows = rows_pad[position]
            yb = y_pad[block_rows]
            wb = w_pad[block_rows]
            wyb = wb * yb
            at = (np.arange(members.size), last)
            total_weight = wb.cumsum(axis=1)[at]
            total_wy = wyb.cumsum(axis=1)[at]
            node_value = total_wy / total_weight
            deviation = yb - node_value[:, None]
            value[members] = node_value
            impurity[members] = (
                (wb * (deviation * deviation)).cumsum(axis=1)[at] / total_weight
            )
            if may_split and width > 1:
                buckets.append(
                    (members, last, block_rows, yb, wb, wyb, total_weight, total_wy)
                )

        # Split search over the open nodes, bucket by bucket.
        split_feature = np.full(n_nodes, -1, dtype=np.intp)
        split_threshold = np.zeros(n_nodes)
        open_mask = (size >= min_samples_split) & ~(impurity <= 1e-15) & may_split
        if subsample:
            subsets = _draw_feature_subsets(
                rngs,
                np.bincount(tree[open_mask], minlength=n_trees),
                n_features,
                n_split_features,
            )
            subset_of = np.cumsum(open_mask) - 1
        for bucket in buckets:
            keep = open_mask[bucket[0]]
            if not keep.any():
                continue
            if not keep.all():
                bucket = tuple(array[keep] for array in bucket)
            members = bucket[0]
            features = subsets[subset_of[members]] if subsample else every_feature
            found, rank, threshold = _best_split_blocks(
                columns,
                (features * stride)[:, :, None],
                bucket,
                min_samples_leaf,
                uniform,
            )
            split_feature[members[found]] = np.broadcast_to(
                features, (members.size, features.shape[1])
            )[found, rank]
            split_threshold[members[found]] = threshold

        # Number this level's nodes and their children per tree.
        is_split = split_feature >= 0
        split_nodes = np.flatnonzero(is_split)
        split_tree = tree[split_nodes]
        per_tree = np.bincount(tree, minlength=n_trees)
        per_tree_split = np.bincount(split_tree, minlength=n_trees)
        local_id = first_id[tree] + node_ids - (np.cumsum(per_tree) - per_tree)[tree]
        first_id = first_id + per_tree
        left = np.full(n_nodes, -1, dtype=np.intp)
        left[split_nodes] = first_id[split_tree] + 2 * (
            np.arange(split_nodes.size)
            - (np.cumsum(per_tree_split) - per_tree_split)[split_tree]
        )
        right = np.where(is_split, left + 1, -1)
        levels.append(
            (tree, local_id, split_feature, split_threshold, left, right,
             value, size, impurity)
        )
        tree_depth[tree] = depth
        if not split_nodes.size:
            break

        # Partition the split nodes' rows: one stable sort on
        # (node, side) keeps every child's rows in parent order.
        row_node = np.repeat(node_ids, size)
        moving = is_split[row_node]
        row_node = row_node[moving]
        moved = rows[moving]
        go_right = ~(
            columns.take(split_feature[row_node] * stride + moved)
            <= split_threshold[row_node]
        )
        key = 2 * row_node + go_right
        rows = moved[key.argsort(kind="stable")]
        size = np.bincount(key, minlength=2 * n_nodes).reshape(n_nodes, 2)[
            split_nodes
        ].ravel()
        if not size.all():
            # Cannot happen for a cut strictly between two feature
            # values; without this an overflowed midpoint would loop.
            raise ValueError("a split left one child empty")
        tree = np.repeat(split_tree, 2)
        depth += 1

    # Scatter the per-level records into per-tree arrays in level order.
    fields = [np.concatenate(field) for field in zip(*levels)]
    offsets = np.cumsum(first_id) - first_id
    where = offsets[fields[0]] + fields[1]
    arrays = []
    for field in fields[2:]:
        out = np.empty_like(field)
        out[where] = field
        arrays.append(out)
    return [
        _GrownTree(
            *(out[offset:offset + count] for out in arrays), depth=int(tree_depth[t])
        )
        for t, (offset, count) in enumerate(zip(offsets, first_id))
    ]


class DecisionTreeRegressor(BaseRegressor):
    """CART regression tree minimising weighted squared error.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until other limits apply.
    min_samples_split:
        Minimum number of samples a node must hold to be considered for
        splitting.
    min_samples_leaf:
        Minimum number of samples in each child of a split.
    max_features:
        Number of features examined per split: ``None`` (all), an ``int``,
        a ``float`` fraction, or ``"sqrt"`` / ``"log2"``.
    random_state:
        Seed for the per-split feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state: int | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    # -- fitting -----------------------------------------------------------
    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if isinstance(self.max_features, str):
            if self.max_features == "sqrt":
                return max(1, int(np.sqrt(n_features)))
            if self.max_features == "log2":
                return max(1, int(np.log2(n_features)))
            raise ValueError(f"Unknown max_features string {self.max_features!r}")
        if isinstance(self.max_features, float):
            if not 0.0 < self.max_features <= 1.0:
                raise ValueError("max_features fraction must be in (0, 1]")
            return max(1, int(round(self.max_features * n_features)))
        value = int(self.max_features)
        if value < 1:
            raise ValueError("max_features must be at least 1")
        return min(value, n_features)

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        n_samples = X.shape[0]
        if sample_weight is None:
            sample_weight = np.ones(n_samples)
        else:
            sample_weight = np.asarray(sample_weight, dtype=float).ravel()
            if sample_weight.shape[0] != n_samples:
                raise ValueError("sample_weight length mismatch")
            if np.any(sample_weight < 0):
                raise ValueError("sample_weight must be non-negative")
            if not sample_weight.sum() > 0:
                raise ValueError("sample_weight must have a positive total")
        rng = np.random.default_rng(self.random_state)
        grown = self._grow(X, y, sample_weight, [np.arange(n_samples)], [rng])
        return self._adopt(grown[0], X.shape[1])

    def _grow(self, X, y, sample_weight, roots, rngs) -> list:
        """Grow one tree per root of validated data under these hyper-parameters.

        ``roots[t]`` is a row-index set into the shared ``X``/``y``/
        ``sample_weight`` and ``rngs[t]`` feeds tree ``t``'s per-split
        feature subsets; a forest passes all its trees at once.
        """
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        grower = _grow_reference if _IMPL == "reference" else _grow_frontier
        return grower(
            X, y, sample_weight, roots, rngs,
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
            self._resolve_max_features(X.shape[1]),
        )

    def _adopt(self, grown: _GrownTree, n_features: int) -> "DecisionTreeRegressor":
        """Take a grown tree as this estimator's fitted state."""
        self.n_features_in_ = n_features
        self.flat_tree_ = FlatTree(
            grown.feature, grown.threshold, grown.left, grown.right, grown.value, grown.depth
        )
        self.importances_ = grown.importances(n_features)
        self.n_leaves_ = self.flat_tree_.n_leaves
        self.depth_ = grown.depth
        return self

    # -- prediction --------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        self._check_fitted("flat_tree_")
        X = check_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features but model was fitted with "
                f"{self.n_features_in_}"
            )
        if _IMPL == "reference":
            return self.predict_reference(X)
        return self.flat_tree_.predict(X)

    def predict_reference(self, X) -> np.ndarray:
        """Recursive node-walk prediction (the oracle for the flat descent)."""
        self._check_fitted("flat_tree_")
        X = check_X(X)
        out = np.empty(X.shape[0])
        self._predict_into(0, X, np.arange(X.shape[0]), out)
        return out

    def _predict_into(self, node: int, X, indices, out) -> None:
        flat = self.flat_tree_
        if flat.feature[node] < 0 or indices.size == 0:
            out[indices] = flat.value[node]
            return
        mask = X[indices, flat.feature[node]] <= flat.threshold[node]
        self._predict_into(flat.left[node], X, indices[mask], out)
        self._predict_into(flat.right[node], X, indices[~mask], out)

    # -- introspection ------------------------------------------------------
    def feature_importances(self) -> np.ndarray:
        """Impurity-decrease importances, normalised to sum to one."""
        self._check_fitted("flat_tree_")
        if not hasattr(self, "importances_"):
            raise RuntimeError(
                "this estimator was fitted before importances were stored "
                "with the flat tree; refit it to get them"
            )
        total = self.importances_.sum()
        return self.importances_ / total if total > 0 else self.importances_.copy()
