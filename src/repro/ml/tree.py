"""CART regression tree with variance-reduction splits.

The tree is the building block for the Random Forest and AdaBoost
candidates (the two gradient boosters grow their own Newton trees in
:mod:`repro.ml.boosting` and share only :class:`FlatTree`).

**Growing.**  Production trees grow in C, one whole tree per call of the
``grow_cart`` kernel of :mod:`repro.ml._native` (:func:`_grow_native`).
``DecisionTreeRegressor._grower`` binds a fit's ``X`` once (its columns
and their dense value ranks); every tree grown through it is then one call
over a root — a row-index multiset into ``X``:
``RandomForestRegressor.fit`` grows its ``T`` bootstrap sets,
``AdaBoostRegressor.fit`` one resample per round and
``DecisionTreeRegressor.fit`` every row.  The
kernel sorts each column once per root and carries the stable order
through every partition, so no node sorts again, and it writes the node
arrays of a :class:`FlatTree` directly; no linked node graph exists at any
point.

**The oracle.**  :func:`_grow_reference` — one tree, one node, one feature
at a time, through :func:`_best_split_reference` — grows trees under
:func:`reference_mode` and wherever the C grower is missing
(``ADSALA_NATIVE=0``, no compiler, or a failed load-time probe); trees are
then predicted by a recursive walk, tree by tree, which shares no descent
code with the production path.  :func:`repro.core.compiled.reference_mode`
nests it.  The two growers produce the same node arrays bit for bit
(``tests/ml/test_property_grower.py``, ``tests/ml/test_flat_tree.py``,
checked again at every kernel load) because they share these definitions:

* *Row order.*  A node's rows are its root's slots in slot order, and a
  column's rows sort by (value, slot) — NumPy's stable argsort.
* *Feature subsets.*  With ``max_features`` below the feature count, tree
  ``t`` draws one ``rng.random((open_nodes, n_features))`` block per level,
  one row per open node in node order, and a node examines the ``k``
  features with the smallest keys, in key order
  (:func:`_draw_feature_subsets`); the C grower takes the same rows from
  one block drawn up front.  A tree's stream therefore depends only on its
  own shape, not on which other trees grow beside it.
* *Node totals.*  A node's weight, ``Σwy`` and ``Σwy²`` are the last entries
  of sequential prefix sums (``cumsum``) over its rows in node order.
* *The scan.*  Per feature, the first maximum of the gain over the
  admissible cuts (``argmax``: a NaN counts as one); a later feature wins
  only by more than ``1e-12``.

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

import functools
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
    "native_grower",
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


def native_grower(name: str):
    """``load_kernels().<name>`` — ``grow_cart``, ``grow_newton`` or
    ``grow_hist`` — or ``None`` under :func:`reference_mode`, without the
    native build, or when the growers failed their load-time probe."""
    if _IMPL == "reference":
        return None
    kernels = _native.load_kernels()
    return None if kernels is None else getattr(kernels, name)


@dataclass
class _Node:
    """Unpickle target for estimators saved by versions that grew a linked
    node graph.

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


def _children(nodes: np.ndarray) -> np.ndarray:
    """The ``(n_nodes, 2)`` int32 view of packed nodes' ``(right, left)``
    fields, so the boolean "goes left" (``X[..] <= threshold``, false for
    NaN — the recursive reference's routing) indexes the next node."""
    right = _native.NODE_DTYPE.fields["right"][1] // 4
    return nodes.view(np.int32).reshape(nodes.shape[0], -1)[:, right : right + 2]


class FlatTree:
    """Struct-of-arrays compilation of a fitted binary regression tree.

    ``feature[i] == -1`` marks node ``i`` as a leaf; interior nodes route a
    row left when ``X[row, feature[i]] <= threshold[i]``.  :meth:`predict`
    descends all query rows simultaneously (one fancy-indexing step per tree
    level).  The same compiled form serves every tree ensemble in :mod:`repro.ml`.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "depth", "nodes")

    def __init__(self, feature, threshold, left, right, value, depth):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.depth = depth
        # The descent table, one packed node per row (``_native.NODE_DTYPE``,
        # the record the C kernel reads), with self-looping leaves: a row
        # that reaches a leaf keeps routing to the same node (feature 0 vs
        # +inf always goes "left" onto itself), so predict can run exactly
        # `depth` fixed iterations with no per-level active-row bookkeeping.
        is_leaf = feature < 0
        node_ids = np.arange(feature.shape[0], dtype=np.intp)
        nodes = np.empty(feature.shape[0], dtype=_native.NODE_DTYPE)
        nodes["thr"] = np.where(is_leaf, np.inf, threshold)
        nodes["feat"] = np.where(is_leaf, 0, feature)
        nodes["right"] = np.where(is_leaf, node_ids, right)
        nodes["left"] = np.where(is_leaf, node_ids, left)
        nodes["value"] = value
        self.nodes = nodes

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
        nodes = self.nodes
        descent_feature = nodes["feat"]
        descent_threshold = nodes["thr"]
        children = _children(nodes)
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(self.depth):
            go_left = X[rows, descent_feature[node]] <= descent_threshold[node]
            node = children[node, go_left.view(np.int8)]
        return self.value[node]

    def predict_reference(self, X: np.ndarray) -> np.ndarray:
        """Recursive node walk over the same arrays: the oracle for
        :meth:`predict` and for every ensemble's stacked descent."""
        out = np.empty(X.shape[0])

        def walk(node: int, rows: np.ndarray) -> None:
            if self.feature[node] < 0 or rows.size == 0:
                out[rows] = self.value[node]
                return
            mask = X[rows, self.feature[node]] <= self.threshold[node]
            walk(self.left[node], rows[mask])
            walk(self.right[node], rows[~mask])

        walk(0, np.arange(X.shape[0]))
        return out


class StackedTrees:
    """Every :class:`FlatTree` of an ensemble concatenated into one packed
    node array.

    The trees' packed descent tables (``FlatTree.nodes``) are concatenated
    back to back and each tree's child indices are shifted by its *root
    offset*, so the whole ensemble lives in ``nodes_packed`` — the one copy
    of the nodes, read by the native kernel directly.  :meth:`predict_per_tree`
    then descends **all trees over all query rows simultaneously**: one
    step per level moves an ``(n_trees, n_samples)`` frontier of node ids,
    replacing the per-tree Python loop that dominated small-batch ensemble
    prediction.

    Routing is identical to the per-tree :meth:`FlatTree.predict` (leaves
    self-loop, so shallower trees simply idle until the deepest tree
    finishes), which makes the stacked prediction bit-identical to the
    stacked per-tree loop it replaces.

    When the native kernel built (:func:`native_descent_active`), descent
    and fold run through the GIL-free C ``stacked_descent`` over the packed
    32-byte nodes.  ``ADSALA_NATIVE=0`` falls back to a bit-identical NumPy
    frontier loop over a flat ``(n_trees * n_samples,)`` frontier with
    preallocated scratch and ``np.take`` gathers (broadcast fancy indexing
    on 2-D frontiers costs several times more per level at the µs scale
    this serves); its contiguous gather tables are split out of
    ``nodes_packed`` on its first descent.
    """

    __slots__ = (
        "roots",
        "depths",
        "depth",
        "nodes_packed",
        "_tables",
        "_scratch_size",
        "_scratch",
        "_out",
        "_native",
    )

    def __init__(self, flat_trees):
        flat_trees = list(flat_trees)
        if not flat_trees:
            raise ValueError("StackedTrees needs at least one FlatTree")
        tables = [tree.nodes for tree in flat_trees]
        sizes = np.asarray([len(table) for table in tables], dtype=np.int64)
        self.roots = np.cumsum(sizes) - sizes
        self.depths = np.asarray([tree.depth for tree in flat_trees], dtype=np.int64)
        self.depth = int(self.depths.max())
        if len(tables) == 1:
            # Root offset 0: the tree's own table, shared, not copied.
            self.nodes_packed = tables[0]
        else:
            # The bytes joined in one pass (a structured concatenate copies
            # field by field, several times slower), then the children
            # shifted to their tree's root offset.
            packed = np.frombuffer(bytearray().join(tables), dtype=_native.NODE_DTYPE)
            shift = np.repeat(self.roots.astype(np.int32), sizes)
            packed["right"] += shift
            packed["left"] += shift
            self.nodes_packed = packed
        self._tables = None
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
        return self.nodes_packed.shape[0]

    def _out_buffer(self, n_samples: int) -> np.ndarray:
        """Reusable ``(n_trees, n_samples)`` output buffer."""
        out = self._out
        if out is None or out.shape[1] != n_samples:
            out = np.empty((self.roots.shape[0], n_samples), dtype=np.float64)
            self._out = out
        return out

    def _gather_tables(self):
        """The NumPy descent's contiguous ``(feature, threshold, children,
        value)`` tables, split out of ``nodes_packed`` once.  Children are
        interleaved per node as ``(right, left)``, so the flat index
        ``2 * node + go_left`` selects the next node in one gather."""
        if self._tables is None:
            nodes = self.nodes_packed
            self._tables = (
                np.ascontiguousarray(nodes["feat"], dtype=np.intp),
                np.ascontiguousarray(nodes["thr"]),
                _children(nodes).astype(np.intp).reshape(-1),
                np.ascontiguousarray(nodes["value"]),
            )
        return self._tables

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
        feature, threshold, children_flat, value = self._gather_tables()
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
            np.take(feature, node, out=fn)
            np.add(fn, row_base, out=fn)
            np.take(X_flat, fn, out=xv)
            np.take(threshold, node, out=tv)
            np.less_equal(xv, tv, out=go_left)
            np.multiply(node, 2, out=node)
            np.add(node, go_left, out=node, casting="unsafe")
            np.take(children_flat, node, out=node)
        np.take(value, node, out=out.reshape(-1))
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
    definition the C grower shares (see the module docstring).
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


def _draw_feature_subsets(rng, n_open: int, n_features: int, n_split_features: int):
    """One tree's per-split feature subsets for one level: ``(n_open, k)``.

    One ``rng.random((n_open, n_features))`` block, a row per open node in
    node order; each node examines the ``k`` features with the smallest
    keys, in key order.  :func:`_grow_native` hands the C grower the same
    rows as one block drawn up front, so a tree's stream depends only on
    its own open nodes, never on which other trees grow beside it.
    """
    keys = rng.random((n_open, n_features))
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
    """Node-at-a-time level-order builder: the oracle for :func:`_grow_native`,
    and the grower wherever the C one is unavailable.

    One tree after another, one node after another, every split found by
    :func:`_best_split_reference` on a copied row subset.  It visits nodes
    in the order the C grower numbers them, so the two agree on the node
    arrays element for element.
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
                    rng, len(open_nodes), n_features, n_split_features
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


def _grow_native(bound, y, w, roots, rngs):
    """The production grower: each tree is one call of the C CART grower.

    ``bound`` is ``load_kernels().grow_cart`` bound to the fit's ``X`` and
    hyper-parameters, shared by every tree.  With ``max_features`` below the
    feature count, tree ``t`` draws its whole key block up front:
    ``rngs[t].random((len(root) - 1, n_features))``, whose rows the grower
    takes one per open node in the order :func:`_grow_reference` draws them
    level by level — the same stream, because a tree opens at most
    ``len(root) - 1`` nodes (every open node holds two slots or more) and
    its generator feeds nothing else.
    """
    grown = []
    for root, rng in zip(roots, rngs):
        root = np.ascontiguousarray(root, dtype=np.int64)
        keys = None
        if bound.n_split_features < bound.n_features:
            keys = rng.random((max(root.size - 1, 0), bound.n_features))
        *arrays, depth = bound.grow(root, y, w, keys)
        grown.append(_GrownTree(*arrays, depth=depth))
    return grown


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
        grown = self._grower(X)(y, sample_weight, [np.arange(n_samples)], [rng])
        return self._adopt(grown[0], X.shape[1])

    def _grower(self, X):
        """``grow(y, sample_weight, roots, rngs) -> [_GrownTree]`` over the
        rows of validated ``X`` under these hyper-parameters.

        ``roots[t]`` is a row-index multiset into ``X`` (a forest's bootstrap
        set, an AdaBoost round's resample) and ``rngs[t]`` feeds tree ``t``'s
        per-split feature subsets.  The C grower binds ``X`` here, once, so
        every tree grown through the returned callable shares its columns
        and value ranks; without it, and under :func:`reference_mode`, trees
        grow through :func:`_grow_reference`.
        """
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        params = dict(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            n_split_features=self._resolve_max_features(X.shape[1]),
        )
        grower = native_grower("grow_cart")
        if grower is None:
            return functools.partial(_grow_reference, X, **params)
        return functools.partial(_grow_native, grower.bind(X, **params))

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
        return self.flat_tree_.predict_reference(check_X(X))

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
