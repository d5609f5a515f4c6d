"""Optional native (C) kernels: the compiled prediction hot path and the
install's tree growers.

One shared object, compiled on first use, covers the whole
``CompiledPredictor`` evaluate span and the growing of every tree
(``grow_cart`` / ``grow_newton`` / ``grow_hist``, see ``_GROWER_SOURCE``,
:class:`BoundGrower` and :class:`BoundHistGrower`: one whole tree per
call, bit-identical to the node-at-a-time oracles in :mod:`repro.ml.tree`
and :mod:`repro.ml.boosting`, which a probe checks at the growers' first
use — :func:`_verify_growers`, dropping only the growers on a mismatch).
For the evaluate span Python binds three entry points:

``fused_evaluate``
    **The production path.**  Chains feature fill → fused Yeo-Johnson +
    affine transform → stacked descent (→ AdaBoost's weighted median) in
    **one C call**, so the GIL is dropped across the whole span and
    intermediate buffers never surface to Python.  Nothing in it is
    computed more often than it changes:

    * the fill replays the compact i64/f64 *column program* exported by
      :meth:`repro.core.features.FeatureGridWriter.column_program` in the
      Python recipe's exact operation order (left-associated sums of
      products, exact ``1.0 *`` / ``2 *`` coefficients), so the grid is
      bit-identical;
    * the transform goes **by column kind**: a ``base / nt`` column (kind
      2) is transformed over every grid row, a ``base`` column (kind 1)
      once per shape and copied down the shape's thread rows, and an
      ``nt`` column (kind 0) once per bound record — its first call fills
      the record's ``nt_table`` and every call's fill copies from it —
      the same ``transform_column`` on the same operands, a third (many
      shapes) to a half (one shape) as many of them and none per call for
      the ``nt`` columns.  A block of eight non-negative lanes of a
      non-log ``pow`` branch takes the lanes' own operations without their
      per-lane dispatch;
    * ``model_mode`` picks the tail: 0 = per-tree leaf matrix (single
      trees and forests), 1 = boosted fold, 2 = stop after the transform
      (linear and opaque models finish in Python on the same grid), 3 =
      the leaf matrix plus ``boosting.weighted_median`` of each row, taken
      in C with NumPy's additions in NumPy's order.  A row holding two
      equal leaves (or a NaN) has no unique order and NumPy's ``argsort``
      tie order is the host's, so C flags such a row (NaN in the median
      buffer, a count in the record) and the caller finishes *those rows*
      with ``weighted_median`` itself on the leaf matrix the call wrote;
    * the plan's **tie pick** (``middle_of_ties``: per shape, the lower
      median of the thread counts tied at the row minimum, the rule of
      ``repro.core.compiled.middle_of_ties``) ends the call where its tail
      wrote the final scores — a single tree, a fold, a median with no
      tied row — and is otherwise the record's second entry,
      ``pick_scores``, over scores Python finished (a forest's mean, a
      linear or opaque model, tied median rows);
    * the arguments travel as **one record**: a predictor binds the call
      once (:class:`BoundEvaluate` fills an :class:`_EvaluateArgs`
      structure mirroring the C ``evaluate_args``), and a call passes the
      record's address and the shape count — two arguments.  The
      14-argument wrapper is bind-then-call-once through the same entry,
      for tests and the load-time probe.

``descent``
    The bare ``stacked_descent`` kernel :class:`repro.ml.tree.StackedTrees`
    descends through — the model-evaluation stage of the NumPy fallback
    and of every ensemble ``predict``.

``fused_transform``
    The transform stage alone — the all-kind-2 case of the one transform
    loop — kept for the load-time probe and the per-branch tests.  It
    reproduces ``FusedTransform.transform_kept`` bit-identically:
    per-column λ dispatch mirrors NumPy's scalar fast paths exactly (λ or
    2-λ in {-1, 0.5, 1, 2} become reciprocal / sqrt / copy / square —
    exact operations), the |λ|≤1e-12 and |λ-2|≤1e-12 branches become
    log1p, and everything else calls ``pow``.  On AVX512 hosts where NumPy
    itself dispatches ``**`` and ``log1p`` to Intel SVML, the kernel calls
    **NumPy's own** ``__svml_pow8_ha`` / ``__svml_log1p8_ha`` symbols
    through function pointers (:func:`set_svml_pointers`), so the
    transcendentals are the same code NumPy runs; elsewhere it uses libm,
    which is what NumPy uses there too.  A bit-exactness probe at load
    time (:func:`_verify_transform`) compares both the whole-column pass
    and the by-kind grouping against the NumPy reference and, on any
    mismatch, drops the transform and the fused chain that contains it.

Three environment variables, no more:

* ``ADSALA_NATIVE=0`` — the single kill switch: nothing native loads and
  every caller runs its bit-identical NumPy expressions;
* ``ADSALA_NATIVE_REQUIRE=1`` — fail **loudly** (RuntimeError) when the
  kernel cannot be built or loaded, instead of silently falling back.
  Used by the CI native-build smoke;
* ``ADSALA_NATIVE_CACHE=<dir>`` — where the compiled ``.so`` is cached
  (default: a per-user 0700 directory under the system temp dir, keyed
  by a hash of the C source).  CI points this at a restored cache.

The cache is also how ``procshard`` workers get the kernel: the parent
calls :func:`library_path` once before the first spawn, so every worker
finds the digest-named ``.so`` already on disk instead of racing the
compiler N ways.

The native path is best-effort by design: no C compiler, a failed build,
or ``ADSALA_NATIVE=0`` → :func:`load_kernels` returns ``None`` and
callers silently use NumPy.  Nothing is ever installed.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
import threading
import types
from pathlib import Path

import numpy as np

__all__ = [
    "MAX_PROGRAM_BASES",
    "NODE_DTYPE",
    "NativeKernels",
    "library_path",
    "load_kernels",
    "native_enabled",
]


#: Packed node layout shared with the C kernel (32 bytes, no padding).
NODE_DTYPE = np.dtype(
    [
        ("thr", "<f8"),
        ("feat", "<i8"),
        ("right", "<i4"),
        ("left", "<i4"),
        ("value", "<f8"),
    ]
)


#: Accumulators the C fill holds per shape (``MAX_BASES`` in the source
#: below, substituted from here).  ``FeatureGridWriter._build_program``
#: hands out no column program with more bases, so none reaches the kernel.
MAX_PROGRAM_BASES = 16

_SOURCE = r"""
#include <stdint.h>
#include <math.h>

typedef struct {
    double thr;
    int64_t feat;
    int32_t right;
    int32_t left;
    double value;
} node_t;

#define LANES 8

/* Descend every (tree, row) pair of a stacked ensemble.
 *
 * x      : row-major (n_samples, n_features) feature matrix
 * roots  : per-tree root index into the packed node array
 * depths : per-tree descent iteration count (leaves self-loop)
 * nodes  : packed 32-byte node structs, children pre-offset per tree
 * mode 0 : out is row-major (n_trees, n_samples); out[t][r] = leaf value
 * mode 1 : out has n_samples entries, pre-filled by the caller;
 *          out[r] += scale * leaf_value, folded tree by tree in order —
 *          the exact update sequence of the boosted-ensemble NumPy loop.
 */
void stacked_descent(const double *x,
                     int64_t n_samples,
                     int64_t n_features,
                     const int64_t *roots,
                     const int64_t *depths,
                     int64_t n_trees,
                     const node_t *nodes,
                     int64_t mode,
                     double scale,
                     double *out)
{
    for (int64_t t = 0; t < n_trees; ++t) {
        const int64_t root = roots[t];
        const int64_t depth = depths[t];
        double *out_row = (mode == 0) ? out + t * n_samples : out;
        for (int64_t r0 = 0; r0 < n_samples; r0 += LANES) {
            const double *xr[LANES];
            int64_t n[LANES];
            for (int l = 0; l < LANES; ++l) {
                /* Tail blocks replicate the last row; the extra lanes are
                 * computed and discarded (descent is a total function). */
                int64_t r = r0 + l < n_samples ? r0 + l : n_samples - 1;
                xr[l] = x + r * n_features;
                n[l] = root;
            }
            for (int64_t d = 0; d < depth; ++d) {
                for (int l = 0; l < LANES; ++l) {
                    const node_t *nd = &nodes[n[l]];
                    n[l] = xr[l][nd->feat] <= nd->thr ? nd->left : nd->right;
                }
            }
            const int64_t live =
                n_samples - r0 < LANES ? n_samples - r0 : LANES;
            if (mode == 0) {
                for (int l = 0; l < live; ++l)
                    out_row[r0 + l] = nodes[n[l]].value;
            } else {
                for (int l = 0; l < live; ++l)
                    out_row[r0 + l] += scale * nodes[n[l]].value;
            }
        }
    }
}

/* ---- SVML bridge -------------------------------------------------------
 *
 * On AVX512-SKX hosts NumPy dispatches float64 ``**`` and ``log1p`` to
 * Intel SVML (__svml_pow8_ha / __svml_log1p8_ha), whose results differ
 * from libm by a ULP on some inputs.  Bit-identity therefore requires
 * calling the *same* SVML code NumPy calls: the loader resolves those
 * symbols from NumPy's own extension module and hands them to
 * set_svml_pointers().  The bridges below are compiled for avx512f via a
 * target attribute, so the .so still loads and runs (libm path) on CPUs
 * without AVX512.  SVML is lane-independent, so calling it with a full
 * 8-lane block — padding dead lanes with 1.0 — reproduces NumPy's
 * results regardless of how NumPy grouped the same elements.
 */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAVE_SVML_BRIDGE 1
#include <immintrin.h>
typedef __m512d (*svml_pow8_t)(__m512d, __m512d);
typedef __m512d (*svml_log1p8_t)(__m512d);
static svml_pow8_t g_svml_pow8;
static svml_log1p8_t g_svml_log1p8;

__attribute__((target("avx512f")))
static void bridge_pow8(const double *t, const double *e, double *r)
{
    _mm512_storeu_pd(
        r, g_svml_pow8(_mm512_loadu_pd(t), _mm512_loadu_pd(e)));
}

__attribute__((target("avx512f")))
static void bridge_log1p8(const double *t, double *r)
{
    _mm512_storeu_pd(r, g_svml_log1p8(_mm512_loadu_pd(t)));
}
#endif

void set_svml_pointers(void *pow8, void *log1p8)
{
#ifdef HAVE_SVML_BRIDGE
    g_svml_pow8 = (svml_pow8_t)pow8;
    g_svml_log1p8 = (svml_log1p8_t)log1p8;
#else
    (void)pow8;
    (void)log1p8;
#endif
}

static void vec_pow8(const double *t, const double *e, double *r)
{
#ifdef HAVE_SVML_BRIDGE
    if (g_svml_pow8) {
        bridge_pow8(t, e, r);
        return;
    }
#endif
    for (int l = 0; l < LANES; ++l)
        r[l] = pow(t[l], e[l]);
}

static void vec_log1p8(const double *t, double *r)
{
#ifdef HAVE_SVML_BRIDGE
    if (g_svml_log1p8) {
        bridge_log1p8(t, r);
        return;
    }
#endif
    for (int l = 0; l < LANES; ++l)
        r[l] = log1p(t[l]);
}

/* ---- Fused Yeo-Johnson + affine transform ------------------------------
 *
 * Mirror of yeo_johnson_transform_matrix followed by (y - shift) / scale.
 * NumPy's ``x ** s`` takes exact fast paths for scalar exponents in
 * {-1, 0.5, 1, 2} (reciprocal / sqrt / copy / square) — and the matrix
 * transform recomputes exactly the λ ∈ {-1, 0, 0.5, 1, 1.5, 2, 3}
 * columns through that scalar path — so the dispatch below reproduces
 * the per-column operation NumPy actually performed:
 *
 *   branch exponent (λ, or 2-λ on the negative branch):
 *     == 2.0  -> t * t          == 0.5 -> sqrt(t)
 *     == 1.0  -> t              == -1.0 -> 1.0 / t
 *     otherwise pow(t, e)       (SVML bridge when wired)
 *   |λ| <= 1e-12 (positive) / |λ-2| <= 1e-12 (negative) -> log1p.
 *
 * All remaining arithmetic (±1.0, negation, the divides, the affine) is
 * correctly-rounded IEEE754, identical in C and NumPy; -ffp-contract=off
 * forbids FMA contraction from changing a ULP.
 */
enum { OP_POW, OP_SQUARE, OP_SQRT, OP_IDENT, OP_RECIP };

static int op_for_exponent(double e)
{
    if (e == 2.0)
        return OP_SQUARE;
    if (e == 0.5)
        return OP_SQRT;
    if (e == 1.0)
        return OP_IDENT;
    if (e == -1.0)
        return OP_RECIP;
    return OP_POW;
}

static void transform_column(double *x,
                             int64_t n_rows,
                             int64_t stride,
                             int64_t has_lam,
                             double lam,
                             double shift,
                             double scale)
{
    if (!has_lam) {
        for (int64_t r = 0; r < n_rows; ++r) {
            double *cell = x + r * stride;
            *cell = (*cell - shift) / scale;
        }
        return;
    }
    int pos_log = fabs(lam) <= 1e-12;
    int neg_log = fabs(lam - 2.0) <= 1e-12;
    const double pos_e = lam;
    const double neg_e = 2.0 - lam;
    const int pos_op = pos_log ? OP_POW : op_for_exponent(pos_e);
    const int neg_op = neg_log ? OP_POW : op_for_exponent(neg_e);

    /* A block of eight non-negative lanes of a non-log pow branch (most
     * base / nt columns) takes the lanes' own operations without their
     * per-lane dispatch: t = x + 1, pow(t, lam), (p - 1) / lam, the affine. */
    const int block_pow = !pos_log && pos_op == OP_POW;
    for (int64_t r0 = 0; r0 < n_rows; r0 += LANES) {
        const int64_t live = n_rows - r0 < LANES ? n_rows - r0 : LANES;
        if (block_pow && live == LANES) {
            double tb[LANES], eb[LANES], pb[LANES];
            int positive = 1;
            for (int l = 0; l < LANES; ++l) {
                const double xv = x[(r0 + l) * stride];
                positive &= xv >= 0.0;
                tb[l] = xv + 1.0;
                eb[l] = pos_e;
            }
            if (positive) {
                vec_pow8(tb, eb, pb);
                for (int l = 0; l < LANES; ++l)
                    x[(r0 + l) * stride] = ((pb[l] - 1.0) / pos_e - shift) / scale;
                continue;
            }
        }
        double v[LANES], t[LANES], p[LANES], y[LANES];
        double tin[LANES], ein[LANES], lin[LANES];
        double powres[LANES], logres[LANES];
        int pos[LANES], use_log[LANES], op[LANES];
        int need_pow = 0, need_log = 0;
        for (int l = 0; l < LANES; ++l) {
            /* Dead tail lanes compute x=0 (positive branch, t=1) and are
             * never stored. */
            const double xv = l < live ? x[(r0 + l) * stride] : 0.0;
            v[l] = xv;
            pos[l] = xv >= 0.0;
            t[l] = pos[l] ? xv + 1.0 : -xv + 1.0;
            use_log[l] = pos[l] ? pos_log : neg_log;
            op[l] = pos[l] ? pos_op : neg_op;
            tin[l] = 1.0;
            ein[l] = 1.0;
            lin[l] = 0.0;
            if (use_log[l]) {
                need_log = 1;
                lin[l] = pos[l] ? xv : -xv;
            } else {
                switch (op[l]) {
                case OP_SQUARE:
                    p[l] = t[l] * t[l];
                    break;
                case OP_SQRT:
                    p[l] = sqrt(t[l]);
                    break;
                case OP_IDENT:
                    p[l] = t[l];
                    break;
                case OP_RECIP:
                    p[l] = 1.0 / t[l];
                    break;
                default:
                    need_pow = 1;
                    tin[l] = t[l];
                    ein[l] = pos[l] ? pos_e : neg_e;
                    break;
                }
            }
        }
        if (need_pow) {
            vec_pow8(tin, ein, powres);
            for (int l = 0; l < LANES; ++l)
                if (!use_log[l] && op[l] == OP_POW)
                    p[l] = powres[l];
        }
        if (need_log)
            vec_log1p8(lin, logres);
        for (int l = 0; l < live; ++l) {
            if (use_log[l])
                y[l] = pos[l] ? logres[l] : -logres[l];
            else if (pos[l])
                y[l] = (p[l] - 1.0) / pos_e;
            else
                y[l] = -((p[l] - 1.0) / neg_e);
            x[(r0 + l) * stride] = (y[l] - shift) / scale;
        }
    }
}

/* The one transform loop: in-place per-column Yeo-Johnson (when
 * has_lambdas) then (y - shift) / scale over a row-major
 * (n_shapes * n_threads, n_cols) grid, threads varying fastest.
 *
 * A column is transformed only where its input varies (col_kind as in
 * feature_fill; NULL means every column is kind 2):
 *
 *   kind 2 (base / nt): every row;
 *   kind 1 (base)     : each shape's first row, copied down its other rows;
 *   kind 0 (nt)       : not at all: feature_fill copied them from the
 *                       record's nt table, transformed once per bound
 *                       record (bind_nt_table).
 *
 * The copied cells held the very operand the transformed cell had, and
 * transform_column is lane-independent (the load-time probe checks that
 * on the host's vector pow / log1p), so every cell gets the bits the
 * whole-column pass gave it — from far fewer transcendental evaluations.
 */
static void transform_grid(double *x,
                           int64_t n_shapes,
                           int64_t n_threads,
                           int64_t n_cols,
                           const int64_t *col_kind,
                           int64_t has_lambdas,
                           const double *lambdas,
                           const double *shift,
                           const double *scale)
{
    const int64_t shape_stride = n_threads * n_cols;
    for (int64_t j = 0; j < n_cols; ++j) {
        double *col = x + j;
        const int64_t kind = col_kind ? col_kind[j] : 2;
        const double lam = has_lambdas ? lambdas[j] : 0.0;
        if (kind == 2) {
            transform_column(col, n_shapes * n_threads, n_cols, has_lambdas,
                             lam, shift[j], scale[j]);
        } else if (kind == 1) {
            transform_column(col, n_shapes, shape_stride, has_lambdas,
                             lam, shift[j], scale[j]);
            for (int64_t s = 0; s < n_shapes; ++s) {
                double *first = col + s * shape_stride;
                for (int64_t th = 1; th < n_threads; ++th)
                    first[th * n_cols] = *first;
            }
        }
    }
}

/* The whole-column case of transform_grid, exported for the load-time
 * probe and the per-branch tests: a (n_rows, n_cols) matrix is n_rows
 * shapes of one thread count with every column kind 2. */
void fused_transform(double *x,
                     int64_t n_rows,
                     int64_t n_cols,
                     int64_t has_lambdas,
                     const double *lambdas,
                     const double *shift,
                     const double *scale)
{
    transform_grid(x, n_rows, 1, n_cols, 0, has_lambdas, lambdas, shift,
                   scale);
}

/* ---- Feature-grid fill -------------------------------------------------
 *
 * Replays FeatureGridWriter's column recipe from a compact program:
 *
 *   bases: n_bases accumulators, base b summing terms
 *          [base_off[b], base_off[b+1]) left-to-right; each term is
 *          term_coef[t] * d[f0] * d[f1] * ... over term_fac[t*3 + q]
 *          factor indices (-1 padded), multiplied left-to-right.
 *   columns: col_kind 0 -> nt_table's cell (the nt column, already
 *            transformed), 1 -> bases[col_base], 2 -> bases / nt.
 *
 * The grid is row-major (n_shapes * n_threads, n_cols), threads varying
 * fastest — exactly the writer's layout.
 *
 * MAX_BASES bounds the accumulator array below.  It is Python's
 * MAX_PROGRAM_BASES (this module), which
 * FeatureGridWriter._build_program enforces: a wider program is never
 * handed out, so none reaches this loop.
 */
#define MAX_BASES __MAX_PROGRAM_BASES__

static void feature_fill(const double *dims,
                  int64_t n_shapes,
                  int64_t n_dims,
                  const double *nt,
                  const double *nt_table,
                  int64_t n_threads,
                  const int64_t *base_off,
                  int64_t n_bases,
                  const double *term_coef,
                  const int64_t *term_fac,
                  const int64_t *col_kind,
                  const int64_t *col_base,
                  int64_t n_cols,
                  double *grid)
{
    double bases[MAX_BASES];
    for (int64_t s = 0; s < n_shapes; ++s) {
        const double *d = dims + s * n_dims;
        for (int64_t b = 0; b < n_bases; ++b) {
            double acc = 0.0;
            for (int64_t ti = base_off[b]; ti < base_off[b + 1]; ++ti) {
                double v = term_coef[ti];
                const int64_t *fac = term_fac + ti * 3;
                for (int q = 0; q < 3 && fac[q] >= 0; ++q)
                    v = v * d[fac[q]];
                acc = ti == base_off[b] ? v : acc + v;
            }
            bases[b] = acc;
        }
        double *row = grid + s * n_threads * n_cols;
        for (int64_t th = 0; th < n_threads; ++th) {
            const double ntv = nt[th];
            const double *table_row = nt_table + th * n_cols;
            double *cell = row + th * n_cols;
            for (int64_t c = 0; c < n_cols; ++c) {
                const int64_t kind = col_kind[c];
                if (kind == 0)
                    cell[c] = table_row[c];
                else if (kind == 1)
                    cell[c] = bases[col_base[c]];
                else
                    cell[c] = bases[col_base[c]] / ntv;
            }
        }
    }
}

/* ---- AdaBoost.R2 weighted median ---------------------------------------
 *
 * boosting.weighted_median over the (n_trees, rows) leaf matrix, row by
 * row: order the row's leaves, accumulate the weights left to right in
 * that order, take the first leaf whose running sum reaches 0.5 * total
 * (leaf 0 of the order when none does — NumPy's argmax of all-False) —
 * NumPy's additions exactly, provided the order is unique.  The sort is
 * an insertion sort that starts from the previous row's permutation:
 * neighbouring thread counts barely reorder the leaves.
 *
 * A row holding two equal leaves, or a NaN beside another leaf, has no
 * unique order, and NumPy's argsort tie order is host-specific; such a
 * row gets NaN in median[] and is counted in the return value, and Python
 * finishes those rows.  (The marker is unambiguous whenever the count is
 * nonzero: that takes two trees, and a uniquely ordered row of two or
 * more leaves holds no NaN, so its median is never one.)
 */
static int64_t weighted_median_rows(const double *leaves,
                                    int64_t n_trees,
                                    int64_t rows,
                                    const double *weights,
                                    int64_t *order,
                                    double *median)
{
    int64_t n_tied = 0;
    for (int64_t t = 0; t < n_trees; ++t)
        order[t] = t;
    for (int64_t r = 0; r < rows; ++r) {
        const double *leaf = leaves + r; /* tree t's leaf: leaf[t * rows] */
        for (int64_t i = 1; i < n_trees; ++i) {
            const int64_t t = order[i];
            const double v = leaf[t * rows];
            int64_t k = i;
            for (; k > 0 && leaf[order[k - 1] * rows] > v; --k)
                order[k] = order[k - 1];
            order[k] = t;
        }
        int unique = 1;
        for (int64_t i = 1; i < n_trees && unique; ++i)
            unique = leaf[order[i - 1] * rows] < leaf[order[i] * rows];
        if (!unique) {
            median[r] = NAN;
            ++n_tied;
            continue;
        }
        double total = weights[order[0]];
        for (int64_t i = 1; i < n_trees; ++i)
            total += weights[order[i]];
        const double threshold = 0.5 * total;
        double running = weights[order[0]];
        int64_t pick = 0;
        while (!(running >= threshold)) {
            if (++pick == n_trees) {
                pick = 0;
                break;
            }
            running += weights[order[pick]];
        }
        median[r] = leaf[order[pick] * rows];
    }
    return n_tied;
}

/* ---- Tie pick ----------------------------------------------------------
 *
 * Per row of a row-major (n_rows, n_cols) score matrix, the lower median
 * of the columns whose score equals the row minimum exactly — the rule of
 * repro.core.compiled.middle_of_ties, its oracle.  The minimum is
 * np.argmin's: the first smallest score, or the first NaN, which no score
 * equals, so a row holding one keeps that column; -0.0 == 0.0, so both
 * join a tie.  A row with one minimum keeps argmin's column.
 */
static void middle_of_ties(const double *scores,
                           int64_t n_rows,
                           int64_t n_cols,
                           int64_t *choice)
{
    for (int64_t r = 0; r < n_rows; ++r) {
        const double *row = scores + r * n_cols;
        int64_t best = 0;
        int nan = row[0] != row[0];
        for (int64_t c = 1; c < n_cols && !nan; ++c) {
            if (row[c] < row[best])
                best = c;
            else if (row[c] != row[c]) {
                best = c;
                nan = 1;
            }
        }
        if (!nan) {
            const double low = row[best];
            int64_t count = 0;
            for (int64_t c = best; c < n_cols; ++c)
                count += row[c] == low;
            for (int64_t skip = (count - 1) / 2; skip > 0;)
                skip -= row[++best] == low;
        }
        choice[r] = best;
    }
}

/* ---- Fused evaluate ----------------------------------------------------
 *
 * feature_fill -> transform_grid -> stacked_descent in one call, so the
 * caller drops the GIL across the whole span.  The arguments arrive as
 * one record the caller filled when it bound the predictor (ctypes'
 * _EvaluateArgs mirrors it field for field), so a call marshals a
 * pointer and a count.  model_mode selects the tail: 0 = per-tree leaf
 * matrix, 1 = fold (out pre-set to fold_base here, then += fold_scale *
 * leaf per tree), 2 = stop after the transform (linear / opaque models
 * finish in Python on the same grid), 3 = the leaf matrix of mode 0,
 * then its weighted median per row into median[] and the tied-row count
 * into n_tied.  With pick_in_call set (the caller sets it where the tail
 * writes the final scores: a single tree's or the fold's out, mode 3's
 * median), the call ends with middle_of_ties over them into choice[], one
 * thread-count column per shape — unless a median row was left to Python.
 * Where Python finishes the scores, it writes them to scores[] and calls
 * pick_scores.
 */
typedef struct {
    const double *dims;
    int64_t n_dims;
    const double *nt;
    int64_t n_threads;
    const int64_t *base_off;
    int64_t n_bases;
    const double *term_coef;
    const int64_t *term_fac;
    const int64_t *col_kind;
    const int64_t *col_base;
    int64_t n_cols;
    double *grid;
    int64_t has_lambdas;
    const double *lambdas;
    const double *shift;
    const double *scale;
    int64_t model_mode;
    const int64_t *roots;
    const int64_t *depths;
    int64_t n_trees;
    const node_t *nodes;
    double fold_base;
    double fold_scale;
    double *out;
    const double *weights; /* mode 3: per-tree weights ...        */
    int64_t *order;        /* ... n_trees entries of sort scratch  */
    double *median;        /* ... and one result per grid row      */
    int64_t n_tied;        /* written by the call (mode 3)         */
    const double *scores;  /* final scores Python finished ...      */
    int64_t *choice;       /* ... and one picked column per shape    */
    int64_t pick_in_call;
    double *nt_table;      /* (n_threads, n_cols): transformed nt ... */
    int64_t nt_bound;      /* ... columns, once filled by the call    */
} evaluate_args;

/* The nt columns (kind 0) do not depend on the shape: the first call of a
 * bound record transforms them once, into nt_table, exactly as a call's
 * own transform would have (the same transform_column over the same
 * n_threads operands at the same stride), and every call copies them. */
static void bind_nt_table(evaluate_args *a)
{
    double *table = a->nt_table;
    for (int64_t j = 0; j < a->n_cols; ++j) {
        if (a->col_kind[j] != 0)
            continue;
        for (int64_t th = 0; th < a->n_threads; ++th)
            table[th * a->n_cols + j] = a->nt[th];
        transform_column(table + j, a->n_threads, a->n_cols, a->has_lambdas,
                         a->has_lambdas ? a->lambdas[j] : 0.0, a->shift[j],
                         a->scale[j]);
    }
    a->nt_bound = 1;
}

void fused_evaluate(evaluate_args *a, int64_t n_shapes)
{
    if (!a->nt_bound)
        bind_nt_table(a);
    feature_fill(a->dims, n_shapes, a->n_dims, a->nt, a->nt_table,
                 a->n_threads, a->base_off, a->n_bases, a->term_coef,
                 a->term_fac, a->col_kind, a->col_base, a->n_cols, a->grid);
    transform_grid(a->grid, n_shapes, a->n_threads, a->n_cols, a->col_kind,
                   a->has_lambdas, a->lambdas, a->shift, a->scale);
    if (a->model_mode == 2)
        return;
    const int64_t rows = n_shapes * a->n_threads;
    if (a->model_mode == 1)
        for (int64_t r = 0; r < rows; ++r)
            a->out[r] = a->fold_base;
    stacked_descent(a->grid, rows, a->n_cols, a->roots, a->depths,
                    a->n_trees, a->nodes, a->model_mode == 1, a->fold_scale,
                    a->out);
    if (a->model_mode == 3)
        a->n_tied = weighted_median_rows(a->out, a->n_trees, rows,
                                         a->weights, a->order, a->median);
    if (a->pick_in_call && a->n_tied == 0)
        middle_of_ties(a->model_mode == 3 ? a->median : a->out, n_shapes,
                       a->n_threads, a->choice);
}

/* The pick alone, over the scores the caller finished in scores[]. */
void pick_scores(evaluate_args *a, int64_t n_shapes)
{
    middle_of_ties(a->scores, n_shapes, a->n_threads, a->choice);
}
""".replace("__MAX_PROGRAM_BASES__", str(MAX_PROGRAM_BASES))

#: The three tree growers.  Self-contained (its own includes), so
#: the mutation tests can compile it alone.
_GROWER_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---- Tree growers -------------------------------------------------------
 *
 * One whole tree per call, written straight into FlatTree's node arrays:
 * grow_cart is tree._grow_reference (weighted-SSE CART, level-order node
 * numbering, bootstrap-multiset roots, per-node max_features subsets) and
 * grow_newton is boosting._NewtonTree._build (XGBoost's gain, pre-order
 * numbering).  Bit identity with those oracles rests on what they share:
 *
 *   order   - a node's rows are its root's slots in slot order, and a
 *             column's sorted rows are ordered by (value, slot) - NumPy's
 *             stable argsort of the node's column.  Each column is counting-
 *             sorted once per root by its dense value ranks, filled in slot
 *             order, and every split partitions the node's segment of every
 *             list stably, so no node sorts again;
 *   totals  - CART node totals are sequential sums (cumsum's last entry);
 *             Newton node totals are NumPy's pairwise sum (pairwise_sum);
 *             Python's float ``** 2`` is libm pow, NumPy's array ``** 2`` a
 *             multiply;
 *   scan    - per feature, NumPy's argmax of the gain with -inf at the
 *             inadmissible cuts (the first maximum, or the first NaN); a
 *             later feature wins only by more than 1e-12;
 *   subsets - a CART tree's feature subsets come from one block of uniform
 *             keys, a row per open node in open-node order (level by level,
 *             node order within a level): the node examines the
 *             n_split_features features with the smallest keys, in key
 *             order - tree._draw_feature_subsets.
 *
 * Hyper-parameters travel as doubles and are compared as Python compares
 * an int with them; max_depth is +inf for "unlimited".
 */
enum {
    GROW_NO_MEMORY = -1,
    GROW_KEYS_EXHAUSTED = -2,
    GROW_EMPTY_CHILD = -3,
    GROW_CAPACITY = -4,
    GROW_ZERO_DIVISION = -5,
    GROW_OVERFLOW = -6
};

typedef struct {
    const double *columns;   /* (n_features, n_rows): X transposed        */
    const int64_t *rank;     /* (n_features, n_rows): dense value ranks   */
    int64_t n_rows;
    int64_t n_features;
    int64_t n_ranks;         /* 1 + the largest rank in any column        */
    double max_depth;
    double min_samples_split;        /* CART                              */
    double min_samples_leaf;
    double min_child_weight;         /* Newton                            */
    double reg_lambda;
    double gamma;
    int64_t n_split_features;        /* CART, with keys                   */
    /* one tree */
    const int64_t *root;     /* slot -> row; a row may fill many slots    */
    int64_t n_slots;
    const double *target;    /* per row: y (CART) / gradient (Newton)     */
    const double *weight;    /* per row: sample weight / hessian          */
    const double *keys;      /* (n_keys, n_features) or NULL: all features */
    int64_t n_keys;
    int64_t capacity;        /* node slots in each output row             */
    int64_t *ints;           /* (4, capacity): feature, left, right, n    */
    double *floats;          /* (3, capacity): threshold, value, impurity */
    int64_t depth;           /* written: the deepest node's depth         */
    /* histogram trees: n_rows x n_features bins below n_bins, row-major;
     * target holds the gradients, and leaf gets each row's leaf value */
    const unsigned char *bins;
    int64_t n_bins;
    double *leaf;
} grow_args;

/* NumPy's float64 sum: below 8 elements a plain loop from 0.0, up to 128
 * eight accumulators, otherwise halves cut at a multiple of 8; the result
 * is added to the reduction's 0.0 identity. */
static double pairwise(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; ++i)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int k = 0; k < 8; ++k)
            r[k] = a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; ++k)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise(a, half) + pairwise(a + half, n - half);
}

double pairwise_sum(const double *a, int64_t n)
{
    return 0.0 + pairwise(a, n);
}

/* One root's slot lists: values, targets and weights gathered by slot,
 * every column's slots in (value, slot) order, the node order. */
typedef struct {
    int64_t n;
    int64_t n_features;
    double *x;               /* (n_features, n) */
    double *t;
    double *w;
    int64_t *sorted;         /* (n_features, n) */
    int64_t *order;
    int64_t *spare;
    unsigned char *goes_left;
} workspace;

static void release(workspace *ws)
{
    free(ws->x);
    free(ws->t);
    free(ws->w);
    free(ws->sorted);
    free(ws->order);
    free(ws->spare);
    free(ws->goes_left);
}

static int prepare(const grow_args *a, workspace *ws)
{
    const int64_t n = a->n_slots, nf = a->n_features, rows = a->n_rows;
    const size_t cells = (size_t)(nf * n) + 1, slots = (size_t)n + 1;
    int64_t *count = malloc(sizeof(int64_t) * (size_t)(a->n_ranks + 1));
    ws->n = n;
    ws->n_features = nf;
    ws->x = malloc(sizeof(double) * cells);
    ws->t = malloc(sizeof(double) * slots);
    ws->w = malloc(sizeof(double) * slots);
    ws->sorted = malloc(sizeof(int64_t) * cells);
    ws->order = malloc(sizeof(int64_t) * slots);
    ws->spare = malloc(sizeof(int64_t) * slots);
    ws->goes_left = malloc(slots);
    if (!count || !ws->x || !ws->t || !ws->w || !ws->sorted || !ws->order ||
        !ws->spare || !ws->goes_left) {
        free(count);
        release(ws);
        return 0;
    }
    for (int64_t s = 0; s < n; ++s) {
        ws->t[s] = a->target[a->root[s]];
        ws->w[s] = a->weight[a->root[s]];
        ws->order[s] = s;
    }
    for (int64_t f = 0; f < nf; ++f) {
        const double *column = a->columns + f * rows;
        const int64_t *rank = a->rank + f * rows;
        double *xf = ws->x + f * n;
        int64_t *sorted = ws->sorted + f * n;
        memset(count, 0, sizeof(int64_t) * (size_t)(a->n_ranks + 1));
        for (int64_t s = 0; s < n; ++s) {
            xf[s] = column[a->root[s]];
            ++count[rank[a->root[s]] + 1];
        }
        for (int64_t r = 1; r <= a->n_ranks; ++r)
            count[r] += count[r - 1];
        for (int64_t s = 0; s < n; ++s)
            sorted[count[rank[a->root[s]]]++] = s;
    }
    free(count);
    return 1;
}

/* Stable partition of one segment of slots by goes_left.  Branch-free: a
 * slot is written to both sides and only its own side's cursor advances
 * (n_left <= i, so the left write never overtakes the read). */
static void partition(int64_t *segment, int64_t count,
                      const unsigned char *goes_left, int64_t *spare)
{
    int64_t n_left = 0, n_right = 0;
    for (int64_t i = 0; i < count; ++i) {
        const int64_t s = segment[i];
        const int64_t to_left = goes_left[s];
        segment[n_left] = s;
        spare[n_right] = s;
        n_left += to_left;
        n_right += 1 - to_left;
    }
    memcpy(segment + n_left, spare, sizeof(int64_t) * (size_t)n_right);
}

/* Send a node's rows left where x[feature] <= threshold, in every list;
 * returns the left child's size. */
static int64_t apply_split(workspace *ws, int64_t start, int64_t count,
                           int64_t feature, double threshold)
{
    const double *xf = ws->x + feature * ws->n;
    int64_t n_left = 0;
    for (int64_t i = start; i < start + count; ++i) {
        const int64_t s = ws->order[i];
        ws->goes_left[s] = xf[s] <= threshold;
        n_left += ws->goes_left[s];
    }
    partition(ws->order + start, count, ws->goes_left, ws->spare);
    for (int64_t f = 0; f < ws->n_features; ++f)
        partition(ws->sorted + f * ws->n + start, count, ws->goes_left,
                  ws->spare);
    return n_left;
}

/* NumPy's argmax fed one element at a time: the first maximum, or the
 * first NaN, which nothing displaces. */
typedef struct {
    double top;
    int64_t at;
} first_max;

static void push_gain(first_max *m, int64_t i, double gain)
{
    if (m->at < 0 || (!(gain <= m->top) && !isnan(m->top))) {
        m->top = gain;
        m->at = i;
    }
}

/* tree._best_split_reference over one node's segment; returns the winning
 * feature (-1: none) and writes its cut. */
static int64_t cart_best_split(const workspace *ws, int64_t start,
                               int64_t count, const int64_t *features,
                               int64_t n_examined, const double *totals,
                               int64_t positive, double min_leaf,
                               double *threshold)
{
    const double tw = totals[0], twy = totals[1], twyy = totals[2];
    const double parent = twyy - twy * twy / tw;
    double best_gain = 0.0;
    int64_t best = -1;
    for (int64_t j = 0; j < n_examined; ++j) {
        const int64_t f = features[j];
        const int64_t *seg = ws->sorted + f * ws->n + start;
        const double *xf = ws->x + f * ws->n;
        double lw = 0.0, lwy = 0.0, lwyy = 0.0;
        int64_t lpos = 0;
        first_max m = {0.0, -1};
        for (int64_t i = 0; i + 1 < count; ++i) {
            const int64_t s = seg[i];
            const double wi = ws->w[s];
            const double wyi = wi * ws->t[s];
            const double wyyi = wyi * ws->t[s];
            if (i == 0) {
                lw = wi;
                lwy = wyi;
                lwyy = wyyi;
            } else {
                lw += wi;
                lwy += wyi;
                lwyy += wyyi;
            }
            lpos += wi > 0.0;
            double gain = -INFINITY;
            /* The value changes here, both children keep the leaf minimum
             * and a row of positive weight. */
            if (xf[s] < xf[seg[i + 1]] && i + 1 >= min_leaf &&
                count - (i + 1) >= min_leaf && lpos > 0 && lpos < positive) {
                const double rw = tw - lw, rwy = twy - lwy, rwyy = twyy - lwyy;
                gain = parent -
                       ((lwyy - lwy * lwy / lw) + (rwyy - rwy * rwy / rw));
            }
            push_gain(&m, i, gain);
        }
        if (m.at >= 0 && m.top > best_gain + 1e-12) {
            const double below = xf[seg[m.at]], above = xf[seg[m.at + 1]];
            best_gain = m.top;
            best = f;
            *threshold = 0.5 * (below + above);
            /* Adjacent floats: a midpoint that rounded up would send both
             * values left. */
            if (*threshold == above)
                *threshold = below;
        }
    }
    return best;
}

/* The row's n_features indices in stable key order (insertion sort). */
static void key_order(const double *key, int64_t n_features, int64_t *index)
{
    for (int64_t j = 0; j < n_features; ++j) {
        int64_t m = j;
        for (; m > 0 && key[index[m - 1]] > key[j]; --m)
            index[m] = index[m - 1];
        index[m] = j;
    }
}

int64_t grow_cart(grow_args *a)
{
    const int64_t n = a->n_slots, cap = a->capacity, nf = a->n_features;
    int64_t *feature = a->ints, *left = a->ints + cap;
    int64_t *right = a->ints + 2 * cap, *n_samples = a->ints + 3 * cap;
    double *threshold = a->floats, *value = a->floats + cap;
    double *impurity = a->floats + 2 * cap;
    workspace ws;
    if (!prepare(a, &ws))
        return GROW_NO_MEMORY;
    /* This level's and the next level's (id, start, count) triples, each
     * node's (weight, wy, wyy) totals and positive-weight row count. */
    int64_t *levels = malloc(sizeof(int64_t) * (size_t)(6 * n + 1));
    double *totals = malloc(sizeof(double) * (size_t)(3 * n + 1));
    int64_t *positive = malloc(sizeof(int64_t) * (size_t)(n + 1));
    unsigned char *open = malloc((size_t)n + 1);
    int64_t *examined = malloc(sizeof(int64_t) * (size_t)(nf + 1));
    int64_t status = GROW_NO_MEMORY;
    if (!levels || !totals || !positive || !open || !examined)
        goto done;
    for (int64_t f = 0; f < nf; ++f)
        examined[f] = f;

    int64_t *level = levels, *next = levels + 3 * n;
    int64_t n_level = 1, n_nodes = 1, depth = 0, key_row = 0;
    level[0] = 0;
    level[1] = 0;
    level[2] = n;
    for (;;) {
        for (int64_t i = 0; i < n_level; ++i) {
            const int64_t id = level[3 * i], count = level[3 * i + 2];
            const int64_t *seg = ws.order + level[3 * i + 1];
            double tw = 0.0, twy = 0.0, twyy = 0.0, spread = 0.0;
            int64_t pos = 0;
            for (int64_t k = 0; k < count; ++k) {
                const double wi = ws.w[seg[k]];
                const double wyi = wi * ws.t[seg[k]];
                const double wyyi = wyi * ws.t[seg[k]];
                if (k == 0) {
                    tw = wi;
                    twy = wyi;
                    twyy = wyyi;
                } else {
                    tw += wi;
                    twy += wyi;
                    twyy += wyyi;
                }
                pos += wi > 0.0;
            }
            const double v = twy / tw;
            for (int64_t k = 0; k < count; ++k) {
                const double d = ws.t[seg[k]] - v;
                const double term = ws.w[seg[k]] * (d * d);
                spread = k == 0 ? term : spread + term;
            }
            const double imp = spread / tw;
            feature[id] = -1;
            left[id] = -1;
            right[id] = -1;
            threshold[id] = 0.0;
            value[id] = v;
            n_samples[id] = count;
            impurity[id] = imp;
            totals[3 * i] = tw;
            totals[3 * i + 1] = twy;
            totals[3 * i + 2] = twyy;
            positive[i] = pos;
            open[i] = !(count < a->min_samples_split || depth >= a->max_depth ||
                        imp <= 1e-15);
        }
        int64_t n_next = 0;
        for (int64_t i = 0; i < n_level; ++i) {
            if (!open[i])
                continue;
            const int64_t id = level[3 * i], start = level[3 * i + 1];
            const int64_t count = level[3 * i + 2];
            int64_t n_examined = nf;
            if (a->keys) {
                if (key_row == a->n_keys) {
                    status = GROW_KEYS_EXHAUSTED;
                    goto done;
                }
                key_order(a->keys + key_row++ * nf, nf, examined);
                n_examined = a->n_split_features;
            }
            double cut = 0.0;
            const int64_t best = cart_best_split(
                &ws, start, count, examined, n_examined, totals + 3 * i,
                positive[i], a->min_samples_leaf, &cut);
            if (best < 0)
                continue;
            const int64_t n_left = apply_split(&ws, start, count, best, cut);
            if (n_left == 0 || n_left == count) {
                status = GROW_EMPTY_CHILD;
                goto done;
            }
            if (n_nodes + 2 > cap) {
                status = GROW_CAPACITY;
                goto done;
            }
            feature[id] = best;
            threshold[id] = cut;
            left[id] = n_nodes;
            right[id] = n_nodes + 1;
            next[3 * n_next] = n_nodes;
            next[3 * n_next + 1] = start;
            next[3 * n_next + 2] = n_left;
            next[3 * n_next + 3] = n_nodes + 1;
            next[3 * n_next + 4] = start + n_left;
            next[3 * n_next + 5] = count - n_left;
            n_next += 2;
            n_nodes += 2;
        }
        if (n_next == 0)
            break;
        ++depth;
        int64_t *swap = level;
        level = next;
        next = swap;
        n_level = n_next;
    }
    a->depth = depth;
    status = n_nodes;
done:
    free(levels);
    free(totals);
    free(positive);
    free(open);
    free(examined);
    release(&ws);
    return status;
}

/* _NewtonTree._best_split_reference over one node's segment, every
 * feature in order; returns the winning feature (-1: none). */
static int64_t newton_best_split(const workspace *ws, const grow_args *a,
                                 int64_t start, int64_t count,
                                 double grad_total, double hess_total,
                                 double parent_score, double *threshold)
{
    const double lam = a->reg_lambda, min_leaf = a->min_samples_leaf;
    double best_gain = 0.0;
    int64_t best = -1;
    for (int64_t f = 0; f < ws->n_features; ++f) {
        const int64_t *seg = ws->sorted + f * ws->n + start;
        const double *xf = ws->x + f * ws->n;
        double gl = 0.0, hl = 0.0;
        first_max m = {0.0, -1};
        for (int64_t i = 0; i + 1 < count; ++i) {
            const int64_t s = seg[i];
            if (i == 0) {
                gl = ws->t[s];
                hl = ws->w[s];
            } else {
                gl += ws->t[s];
                hl += ws->w[s];
            }
            const double gr = grad_total - gl, hr = hess_total - hl;
            double gain = -INFINITY;
            if (xf[s] < xf[seg[i + 1]] && i + 1 >= min_leaf &&
                count - (i + 1) >= min_leaf && hl >= a->min_child_weight &&
                hr >= a->min_child_weight)
                gain = 0.5 * ((gl * gl / (hl + lam) + gr * gr / (hr + lam)) -
                              parent_score) -
                       a->gamma;
            push_gain(&m, i, gain);
        }
        if (m.at >= 0 && m.top > best_gain + 1e-12) {
            best_gain = m.top;
            best = f;
            *threshold = 0.5 * (xf[seg[m.at]] + xf[seg[m.at + 1]]);
        }
    }
    return best;
}

int64_t grow_newton(grow_args *a)
{
    const int64_t n = a->n_slots, cap = a->capacity;
    int64_t *feature = a->ints, *left = a->ints + cap;
    int64_t *right = a->ints + 2 * cap, *n_samples = a->ints + 3 * cap;
    double *threshold = a->floats, *value = a->floats + cap;
    double *impurity = a->floats + 2 * cap;
    /* A volatile exponent keeps the compiler from turning pow(x, 2.0)
     * into x * x: CPython's float ** 2 calls libm pow. */
    volatile double two = 2.0;
    workspace ws;
    if (!prepare(a, &ws))
        return GROW_NO_MEMORY;
    /* Open nodes, depth first: (start, count, depth, 2 * parent + side). */
    int64_t *stack = malloc(sizeof(int64_t) * (size_t)(8 * cap + 8));
    double *gathered = malloc(sizeof(double) * (size_t)(2 * n + 1));
    int64_t status = GROW_NO_MEMORY;
    if (!stack || !gathered)
        goto done;

    int64_t top = 1, n_nodes = 0, depth = 0;
    stack[0] = 0;
    stack[1] = n;
    stack[2] = 0;
    stack[3] = -1;
    while (top > 0) {
        --top;
        const int64_t start = stack[4 * top], count = stack[4 * top + 1];
        const int64_t node_depth = stack[4 * top + 2], link = stack[4 * top + 3];
        if (n_nodes == cap) {
            status = GROW_CAPACITY;
            goto done;
        }
        const int64_t id = n_nodes++;
        if (link >= 0)
            (link & 1 ? right : left)[link >> 1] = id;
        if (node_depth > depth)
            depth = node_depth;
        double *grad = gathered, *hess = gathered + n;
        for (int64_t k = 0; k < count; ++k) {
            grad[k] = ws.t[ws.order[start + k]];
            hess[k] = ws.w[ws.order[start + k]];
        }
        const double grad_total = pairwise_sum(grad, count);
        const double hess_total = pairwise_sum(hess, count);
        const double denominator = hess_total + a->reg_lambda;
        if (denominator == 0.0) {
            status = GROW_ZERO_DIVISION;
            goto done;
        }
        feature[id] = -1;
        left[id] = -1;
        right[id] = -1;
        threshold[id] = 0.0;
        value[id] = -grad_total / denominator;
        n_samples[id] = count;
        impurity[id] = 0.0;
        if (node_depth >= a->max_depth || count < 2 * a->min_samples_leaf)
            continue;
        /* CPython: 0.0 ** 2 is 0.0 without pow, a negative base is
         * squared through its magnitude, and an infinite result raises. */
        const double square = grad_total == 0.0 ? 0.0 : pow(fabs(grad_total), two);
        if (isinf(square)) {
            status = GROW_OVERFLOW;
            goto done;
        }
        double cut = 0.0;
        const int64_t best =
            newton_best_split(&ws, a, start, count, grad_total, hess_total,
                              square / denominator, &cut);
        if (best < 0)
            continue;
        const int64_t n_left = apply_split(&ws, start, count, best, cut);
        feature[id] = best;
        threshold[id] = cut;
        /* Right below left, so the left subtree is numbered first. */
        stack[4 * top] = start + n_left;
        stack[4 * top + 1] = count - n_left;
        stack[4 * top + 2] = node_depth + 1;
        stack[4 * top + 3] = 2 * id + 1;
        stack[4 * top + 4] = start;
        stack[4 * top + 5] = n_left;
        stack[4 * top + 6] = node_depth + 1;
        stack[4 * top + 7] = 2 * id;
        top += 2;
    }
    a->depth = depth;
    status = n_nodes;
done:
    free(stack);
    free(gathered);
    release(&ws);
    return status;
}

/* ---- Histogram grower ---------------------------------------------------
 *
 * grow_hist is boosting._HistTree._build over a binned matrix (bins, row-
 * major, every value below n_bins) and unit hessians, so a node's hessian
 * total is its row count.  A node's rows stay in ascending row order (a
 * stable partition at every split), so every histogram cell sums its
 * gradients in that order from 0.0, as np.bincount does; prefix sums are
 * sequential, as cumsum's; node totals are pairwise_sum.  A feature's cut
 * is its first maximum (argmax), and a feature wins only by beating the
 * best gain so far, which starts at 1e-12.  Nodes are numbered in pre-
 * order and every row's leaf value is written to leaf.
 */
static int64_t hist_best_split(const grow_args *a, const int64_t *seg,
                               int64_t count, double grad_total,
                               double parent_score, double *grad_hist,
                               int64_t *count_hist, int64_t *split_bin)
{
    const int64_t nf = a->n_features, nb = a->n_bins;
    const double lam = a->reg_lambda, min_leaf = a->min_samples_leaf;
    const double hess_total = (double)count;
    for (int64_t c = 0; c < nf * nb; ++c) {
        grad_hist[c] = 0.0;
        count_hist[c] = 0;
    }
    for (int64_t k = 0; k < count; ++k) {
        const unsigned char *row = a->bins + seg[k] * nf;
        const double g = a->target[seg[k]];
        for (int64_t f = 0; f < nf; ++f) {
            grad_hist[f * nb + row[f]] += g;
            ++count_hist[f * nb + row[f]];
        }
    }
    double best_gain = 1e-12;
    int64_t best = -1;
    for (int64_t f = 0; f < nf; ++f) {
        const double *gh = grad_hist + f * nb;
        const int64_t *ch = count_hist + f * nb;
        double g_cum = 0.0;
        int64_t c_cum = 0;
        first_max m = {0.0, -1};
        for (int64_t b = 0; b + 1 < nb; ++b) {
            /* An empty bin repeats the cut before it (its cell is 0.0, never
             * -0.0), whose equal gain it cannot displace. */
            if (b > 0 && ch[b] == 0)
                continue;
            g_cum = b == 0 ? gh[0] : g_cum + gh[b];
            c_cum += ch[b];
            /* Past the last cut leaving min_leaf rows on the right every
             * gain is -inf, which displaces nothing. */
            if (count - c_cum < min_leaf)
                break;
            double gain = -INFINITY;
            if (c_cum >= min_leaf) {
                const double h_cum = (double)c_cum;
                const double g_right = grad_total - g_cum;
                const double h_right = hess_total - h_cum;
                gain = 0.5 * ((g_cum * g_cum / (h_cum + lam) +
                               g_right * g_right / (h_right + lam)) -
                              parent_score);
            }
            push_gain(&m, b, gain);
        }
        if (m.at >= 0 && m.top > best_gain) {
            best_gain = m.top;
            best = f;
            *split_bin = m.at;
        }
    }
    return best;
}

int64_t grow_hist(grow_args *a)
{
    const int64_t n = a->n_rows, nf = a->n_features, cap = a->capacity;
    int64_t *feature = a->ints, *left = a->ints + cap;
    int64_t *right = a->ints + 2 * cap, *n_samples = a->ints + 3 * cap;
    double *threshold = a->floats, *value = a->floats + cap;
    double *impurity = a->floats + 2 * cap;
    volatile double two = 2.0; /* see grow_newton */
    const size_t cells = (size_t)(nf * a->n_bins) + 1, rows = (size_t)n + 1;
    int64_t *order = malloc(sizeof(int64_t) * rows);
    int64_t *spare = malloc(sizeof(int64_t) * rows);
    unsigned char *goes_left = malloc(rows);
    double *gathered = malloc(sizeof(double) * rows);
    double *grad_hist = malloc(sizeof(double) * cells);
    int64_t *count_hist = malloc(sizeof(int64_t) * cells);
    /* Open nodes, depth first: (start, count, depth, 2 * parent + side). */
    int64_t *stack = malloc(sizeof(int64_t) * (size_t)(8 * cap + 8));
    int64_t status = GROW_NO_MEMORY;
    if (!order || !spare || !goes_left || !gathered || !grad_hist ||
        !count_hist || !stack)
        goto done;
    for (int64_t r = 0; r < n; ++r)
        order[r] = r;

    int64_t top = 1, n_nodes = 0, depth = 0;
    stack[0] = 0;
    stack[1] = n;
    stack[2] = 0;
    stack[3] = -1;
    while (top > 0) {
        --top;
        const int64_t start = stack[4 * top], count = stack[4 * top + 1];
        const int64_t node_depth = stack[4 * top + 2], link = stack[4 * top + 3];
        const int64_t *seg = order + start;
        if (n_nodes == cap) {
            status = GROW_CAPACITY;
            goto done;
        }
        const int64_t id = n_nodes++;
        if (link >= 0)
            (link & 1 ? right : left)[link >> 1] = id;
        if (node_depth > depth)
            depth = node_depth;
        for (int64_t k = 0; k < count; ++k)
            gathered[k] = a->target[seg[k]];
        const double grad_total = pairwise_sum(gathered, count);
        const double denominator = (double)count + a->reg_lambda;
        if (denominator == 0.0) {
            status = GROW_ZERO_DIVISION;
            goto done;
        }
        const double v = -grad_total / denominator;
        feature[id] = -1;
        left[id] = -1;
        right[id] = -1;
        threshold[id] = 0.0;
        value[id] = v;
        n_samples[id] = count;
        impurity[id] = 0.0;
        int64_t best = -1, split_bin = 0;
        if (!(node_depth >= a->max_depth || count < 2 * a->min_samples_leaf)) {
            const double square =
                grad_total == 0.0 ? 0.0 : pow(fabs(grad_total), two);
            if (isinf(square)) {
                status = GROW_OVERFLOW;
                goto done;
            }
            best = hist_best_split(a, seg, count, grad_total,
                                   square / denominator, grad_hist,
                                   count_hist, &split_bin);
        }
        if (best < 0) {
            for (int64_t k = 0; k < count; ++k)
                a->leaf[seg[k]] = v;
            continue;
        }
        int64_t n_left = 0;
        for (int64_t k = 0; k < count; ++k) {
            goes_left[seg[k]] = a->bins[seg[k] * nf + best] <= split_bin;
            n_left += goes_left[seg[k]];
        }
        partition(order + start, count, goes_left, spare);
        feature[id] = best;
        threshold[id] = (double)split_bin;
        /* Right below left, so the left subtree is numbered first. */
        stack[4 * top] = start + n_left;
        stack[4 * top + 1] = count - n_left;
        stack[4 * top + 2] = node_depth + 1;
        stack[4 * top + 3] = 2 * id + 1;
        stack[4 * top + 4] = start;
        stack[4 * top + 5] = n_left;
        stack[4 * top + 6] = node_depth + 1;
        stack[4 * top + 7] = 2 * id;
        top += 2;
    }
    a->depth = depth;
    status = n_nodes;
done:
    free(order);
    free(spare);
    free(goes_left);
    free(gathered);
    free(grad_hist);
    free(count_hist);
    free(stack);
    return status;
}
"""

_SOURCE += _GROWER_SOURCE

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_INT64_P = ctypes.POINTER(ctypes.c_int64)

#: Resolved kernel bundle (or None); "unset" until first load attempt.
_KERNELS: object = "unset"
#: Serialises first loads: concurrent first callers (thread shards, a
#: library caller's own threads) build, load and probe the library once.
_KERNELS_LOCK = threading.Lock()


def native_enabled() -> bool:
    """Whether the native kernels are allowed (``ADSALA_NATIVE`` != "0")."""
    return os.environ.get("ADSALA_NATIVE", "1") != "0"


def _require_native() -> bool:
    """Loud-failure mode: build problems raise instead of falling back."""
    return os.environ.get("ADSALA_NATIVE_REQUIRE", "0") == "1"


def _owned_by_current_user(path: Path) -> bool:
    """Whether ``path`` belongs to us (POSIX; trivially true elsewhere)."""
    getuid = getattr(os, "getuid", None)
    if getuid is None:  # pragma: no cover - non-POSIX
        return True
    try:
        return path.stat().st_uid == getuid()
    except OSError:
        return False


def _source_digest(source: str = _SOURCE) -> str:
    return hashlib.sha256(source.encode()).hexdigest()[:16]


def _cache_dir() -> Path:
    """The library cache directory (``ADSALA_NATIVE_CACHE`` or temp)."""
    override = os.environ.get("ADSALA_NATIVE_CACHE")
    if override:
        return Path(override)
    # Per-user, 0700 cache directory: the temp dir is world-writable and
    # the library name is predictable, so never dlopen anything another
    # user could have planted there.
    uid = getattr(os, "getuid", lambda: "u")()
    return Path(tempfile.gettempdir()) / f"adsala-native-{uid}"


def _build_library(source: str = _SOURCE) -> Path | None:
    """Compile (or reuse) the cached shared object; None when impossible.

    ``source`` is the module's C source; the mutation tests pass an edited
    copy of a part of it.
    """
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return None
    cache_dir = _cache_dir()
    library = cache_dir / f"kernels_{_source_digest(source)}.so"
    if library.exists():
        if _owned_by_current_user(cache_dir) and _owned_by_current_user(library):
            return library
        return None
    try:
        cache_dir.mkdir(parents=True, exist_ok=True, mode=0o700)
        if not _owned_by_current_user(cache_dir):
            return None
        with tempfile.TemporaryDirectory(dir=cache_dir) as workdir:
            source_file = Path(workdir) / "kernels.c"
            source_file.write_text(source)
            built = Path(workdir) / "kernels.so"
            subprocess.run(
                [
                    compiler,
                    "-O2",
                    "-ffp-contract=off",
                    "-shared",
                    "-fPIC",
                    "-o",
                    str(built),
                    str(source_file),
                    "-lm",
                ],
                check=True,
                capture_output=True,
                timeout=60,
            )
            os.replace(built, library)  # atomic: concurrent builders race safely
    except (OSError, subprocess.SubprocessError):
        return None
    return library


def library_path() -> str | None:
    """Build (or reuse) the shared object and return its path, or None.

    Called by the ``procshard`` parent *before* spawning workers, so the
    compile happens exactly once and each worker's own
    :func:`load_kernels` finds the cached library.
    """
    if not native_enabled():
        return None
    library = _build_library()
    return str(library) if library is not None else None


def _reset_kernel_cache() -> None:
    """Forget the memoised load (tests and env-switch round-trips)."""
    global _KERNELS
    _KERNELS = "unset"


class NativeKernels:
    """The loaded kernel bundle: the bound entry points plus load metadata.

    ``descent`` and ``pairwise_sum`` are always bound; ``fused_transform``
    and ``fused_evaluate`` are ``None`` when the transform failed its
    bit-exactness probe, ``grow_cart``, ``grow_newton`` and ``grow_hist``
    when the growers failed theirs (``growers_reason`` says why; it is
    empty when they passed).

    Only installs grow trees, so the growers' probe runs at their first
    use — the first read of any of those four attributes, or
    :meth:`verify_growers` — not at load: a planning or serving process
    never pays for it.
    """

    GROWERS = ("grow_cart", "grow_newton", "grow_hist")

    def __init__(self, library: str):
        self.library = library
        self.descent = None
        self.fused_transform = None
        self.fused_evaluate = None
        self.pairwise_sum = None
        self.svml_bridged = False
        self.transform_verified = False
        self._lib = None  # strong ref: keeps the dlopen handle alive
        self._numpy_cdll = None  # strong ref: SVML symbols' home
        self._unverified = None  # the bound growers, until their probe ran
        self._growers_lock = threading.Lock()

    def verify_growers(self) -> str:
        """Run the growers' probe if it has not run, binding ``grow_cart``,
        ``grow_newton``, ``grow_hist`` and ``growers_reason``; returns the
        reason (``""`` when they passed)."""
        with self._growers_lock:
            if "growers_reason" not in self.__dict__:
                growers = self._unverified
                reason = _verify_growers(types.SimpleNamespace(**dict(zip(self.GROWERS, growers))))
                # On a mismatch only the growers go: trees grow through the oracle.
                for name, grower in zip(self.GROWERS, growers):
                    setattr(self, name, None if reason else grower)
                self._unverified = None
                self.growers_reason = reason
        return self.growers_reason

    def __getattr__(self, name: str):
        # Reached only while the growers are unbound: their first read runs the probe.
        if name in self.GROWERS or name == "growers_reason":
            self.verify_growers()
            return self.__dict__[name]
        raise AttributeError(name)


def load_kernels() -> NativeKernels | None:
    """The full native kernel bundle, or ``None`` when unavailable.

    Memoised.  Builds (or reuses) the shared object, wires the SVML
    bridge when NumPy exports the symbols on an AVX512-SKX host and runs
    the transform bit-exactness probe.  With ``ADSALA_NATIVE_REQUIRE=1``
    a build/load failure raises ``RuntimeError`` instead of returning
    ``None``.
    """
    global _KERNELS
    kernels = _KERNELS
    if kernels != "unset":
        return kernels
    with _KERNELS_LOCK:
        if _KERNELS == "unset":
            _KERNELS = _load_kernels_impl()
        return _KERNELS


def _load_kernels_impl() -> NativeKernels | None:
    if not native_enabled():
        return None
    library = _build_library()
    if library is None:
        if _require_native():
            raise RuntimeError(
                "ADSALA_NATIVE_REQUIRE=1 but the native kernel library "
                "could not be built (no compiler, or the build failed)"
            )
        return None
    try:
        lib = ctypes.CDLL(str(library))
        _declare_signatures(lib)
    except (OSError, AttributeError) as exc:
        if _require_native():
            raise RuntimeError(
                f"ADSALA_NATIVE_REQUIRE=1 but loading {library} failed: {exc}"
            ) from exc
        return None

    kernels = NativeKernels(str(library))
    kernels._lib = lib
    kernels._numpy_cdll, kernels.svml_bridged = _wire_svml(lib)

    kernels.descent = _make_descent_wrapper(lib.stacked_descent)
    kernels.fused_transform = _make_transform_wrapper(lib.fused_transform)
    kernels.fused_evaluate = _make_evaluate_wrapper(lib.fused_evaluate, lib.pick_scores)

    # The transform's transcendentals are the one place host math
    # libraries could diverge from NumPy: probe bit-exactness across
    # every dispatch branch and drop the stage (and the fused chain that
    # contains it) on any mismatch.
    kernels.transform_verified = _verify_transform(kernels)
    if not kernels.transform_verified:
        kernels.fused_transform = None
        kernels.fused_evaluate = None

    kernels.pairwise_sum = _make_sum_wrapper(lib.pairwise_sum)
    # The growers answer to the reference growers alone, probed at their
    # first use (NativeKernels.verify_growers).
    kernels._unverified = _bind_growers(lib)
    return kernels


_DESCENT_ARGTYPES = [
    _DOUBLE_P,  # x
    ctypes.c_int64,  # n_samples
    ctypes.c_int64,  # n_features
    _INT64_P,  # roots
    _INT64_P,  # depths
    ctypes.c_int64,  # n_trees
    ctypes.c_void_p,  # nodes
    ctypes.c_int64,  # mode
    ctypes.c_double,  # scale
    _DOUBLE_P,  # out
]

_TRANSFORM_ARGTYPES = [
    _DOUBLE_P,  # x
    ctypes.c_int64,  # n_rows
    ctypes.c_int64,  # n_cols
    ctypes.c_int64,  # has_lambdas
    _DOUBLE_P,  # lambdas
    _DOUBLE_P,  # shift
    _DOUBLE_P,  # scale
]


class _EvaluateArgs(ctypes.Structure):
    """The C ``evaluate_args`` record, field for field and in its order."""

    _fields_ = [
        ("dims", _DOUBLE_P),
        ("n_dims", ctypes.c_int64),
        ("nt", _DOUBLE_P),
        ("n_threads", ctypes.c_int64),
        ("base_off", _INT64_P),
        ("n_bases", ctypes.c_int64),
        ("term_coef", _DOUBLE_P),
        ("term_fac", _INT64_P),
        ("col_kind", _INT64_P),
        ("col_base", _INT64_P),
        ("n_cols", ctypes.c_int64),
        ("grid", _DOUBLE_P),
        ("has_lambdas", ctypes.c_int64),
        ("lambdas", _DOUBLE_P),
        ("shift", _DOUBLE_P),
        ("scale", _DOUBLE_P),
        ("model_mode", ctypes.c_int64),
        ("roots", _INT64_P),
        ("depths", _INT64_P),
        ("n_trees", ctypes.c_int64),
        ("nodes", ctypes.c_void_p),
        ("fold_base", ctypes.c_double),
        ("fold_scale", ctypes.c_double),
        ("out", _DOUBLE_P),
        ("weights", _DOUBLE_P),
        ("order", _INT64_P),
        ("median", _DOUBLE_P),
        ("n_tied", ctypes.c_int64),
        ("scores", _DOUBLE_P),
        ("choice", _INT64_P),
        ("pick_in_call", ctypes.c_int64),
        ("nt_table", _DOUBLE_P),
        ("nt_bound", ctypes.c_int64),
    ]


#: ``fused_evaluate(record address, n_shapes)`` — everything else is in the
#: record, filled once per predictor (:class:`BoundEvaluate`).
_EVALUATE_ARGTYPES = [ctypes.c_void_p, ctypes.c_int64]


def _declare_signatures(lib) -> None:
    lib.stacked_descent.restype = None
    lib.stacked_descent.argtypes = _DESCENT_ARGTYPES
    lib.fused_transform.restype = None
    lib.fused_transform.argtypes = _TRANSFORM_ARGTYPES
    lib.fused_evaluate.restype = None
    lib.fused_evaluate.argtypes = _EVALUATE_ARGTYPES
    lib.pick_scores.restype = None
    lib.pick_scores.argtypes = _EVALUATE_ARGTYPES
    lib.set_svml_pointers.restype = None
    lib.set_svml_pointers.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
    _declare_grower_signatures(lib)


def _declare_grower_signatures(lib) -> None:
    for grower in (lib.grow_cart, lib.grow_newton, lib.grow_hist):
        grower.restype = ctypes.c_int64
        grower.argtypes = [ctypes.c_void_p]  # the _GrowArgs record
    lib.pairwise_sum.restype = ctypes.c_double
    lib.pairwise_sum.argtypes = [_DOUBLE_P, ctypes.c_int64]


def _wire_svml(lib):
    """Hand NumPy's own SVML pow/log1p symbols to the kernel, if present.

    Only on hosts where NumPy's dispatcher would itself pick the SVML
    loops (AVX512_SKX): calling an AVX512 function elsewhere would be an
    illegal instruction, and NumPy uses libm there anyway — which is the
    kernel's fallback, so results still match.
    """
    try:
        import numpy._core._multiarray_umath as umath
    except ImportError:  # pragma: no cover - numpy < 2
        return None, False
    features = getattr(umath, "__cpu_features__", None) or {}
    if not features.get("AVX512_SKX"):
        return None, False
    try:
        numpy_cdll = ctypes.CDLL(umath.__file__)
        pow8 = ctypes.cast(getattr(numpy_cdll, "__svml_pow8_ha"), ctypes.c_void_p)
        log1p8 = ctypes.cast(
            getattr(numpy_cdll, "__svml_log1p8_ha"), ctypes.c_void_p
        )
    except (OSError, AttributeError, TypeError):
        return None, False
    lib.set_svml_pointers(pow8, log1p8)
    return numpy_cdll, True


#: Every dispatch branch of ``transform_column``: the λ fast paths
#: {-1, 0.5, 1, 2} and their 2-λ mirrors, the log1p thresholds (0, ≈0, 2,
#: ≈2) and generic pow lambdas.
_PROBE_LAMBDAS = np.array(
    [
        -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0,
        0.37, -0.84, 2.5, 1e-13, 2.0 - 1e-13, 2.0 + 1e-13, -2.2,
    ]
)  # fmt: skip


def _verify_transform(kernels) -> bool:
    """Probe the native transform against the NumPy reference, bitwise.

    Every λ branch (``_PROBE_LAMBDAS``), positive and negative inputs and
    tail lanes (row counts that are no multiple of 8), twice: the
    whole-column pass through ``fused_transform``, and the by-kind grouping
    production calls, through ``fused_evaluate`` stopped after the transform
    — where a column of kind 0 / 1 is transformed in other lane groups than
    NumPy's and copied, so a host whose vector ``pow`` / ``log1p`` is not
    lane-independent fails here, once, instead of in every predictor's
    first-call self-check.
    """
    try:
        from repro.preprocessing.power import yeo_johnson_transform_matrix
    except Exception:  # pragma: no cover - degenerate environment
        return False

    def reference(X, lambdas, shift, scale):
        if lambdas is not None:
            X = yeo_johnson_transform_matrix(X, lambdas)
        return (X - shift) / scale

    try:
        return _probe_whole_columns(kernels, reference) and _probe_by_kind(kernels, reference)
    except Exception:  # pragma: no cover - probe must never take down load
        return False


def _probe_whole_columns(kernels, reference) -> bool:
    lambdas = _PROBE_LAMBDAS
    base = np.array(
        [
            0.0, 0.37, 1.0, 7.5, 1234.5, 1e6, -0.25,
            -3.5, 0.999, 42.0, 1e-9, 5.0e4, 2.0,
        ]
    )  # fmt: skip
    X = np.empty((base.shape[0], lambdas.shape[0]))
    for j in range(lambdas.shape[0]):
        X[:, j] = np.roll(base, j)
    shift = np.linspace(-1.5, 2.0, lambdas.shape[0])
    scale = np.linspace(0.5, 3.0, lambdas.shape[0])
    return all(
        np.array_equal(
            reference(X, lam, shift, scale),
            kernels.fused_transform(X.copy(), lam, shift, scale),
        )
        for lam in (lambdas, None)
    )


def _probe_by_kind(kernels, reference) -> bool:
    """A 3-shape × 5-thread grid with one column of each kind per probe λ.

    The hand-written column program publishes two signed bases (the dims
    themselves), and the "thread counts" are signed too, so every kind
    meets both Yeo-Johnson branches; 15, 3 and 5 rows all leave tail lanes.
    """
    dims = np.array([[0.37, -3.5], [1234.5, 0.999], [-0.25, 42.0]])
    nt = np.array([1.0, -2.0, 7.5, 0.5, -96.0])
    n_lambdas = _PROBE_LAMBDAS.shape[0]
    lambdas = np.repeat(_PROBE_LAMBDAS, 3)
    kinds = np.tile(np.arange(3, dtype=np.int64), n_lambdas)
    bases = np.arange(kinds.shape[0], dtype=np.int64) // 3 % 2
    program = types.SimpleNamespace(
        base_offsets=np.array([0, 1, 2], dtype=np.int64),
        term_coef=np.ones(2),
        term_fac=np.array([[0, -1, -1], [1, -1, -1]], dtype=np.int64),
        col_kind=kinds,
        col_base=bases,
    )
    base_cells = dims[:, bases][:, None, :]  # (shapes, 1, columns)
    nt_cells = nt[None, :, None]
    filled = np.where(
        kinds == 0, nt_cells, np.where(kinds == 1, base_cells, base_cells / nt_cells)
    ).reshape(dims.shape[0] * nt.shape[0], kinds.shape[0])
    shift = np.linspace(-1.5, 2.0, kinds.shape[0])
    scale = np.linspace(0.5, 3.0, kinds.shape[0])
    for lam in (lambdas, None):
        grid = np.full(filled.shape, np.nan)
        kernels.fused_evaluate(
            program, dims, nt, grid, lam, shift, scale,
            2, None, None, None, 0.0, 0.0, None,
        )  # fmt: skip
        if not np.array_equal(reference(filled, lam, shift, scale), grid):
            return False
    return True


_F64, _I64 = np.dtype(np.float64), np.dtype(np.int64)
_POINTER_OF = {_F64: _DOUBLE_P, _I64: _INT64_P, NODE_DTYPE: ctypes.c_void_p}


def _pointer(name: str, array, dtype: np.dtype, ndim: int | None):
    """The one marshalling routine: validate an array argument, then cast it.

    ``None`` becomes a null pointer; anything but a C-contiguous ndarray of
    exactly ``dtype`` (and rank ``ndim``, unless that is ``None``) raises a
    ``TypeError`` naming the argument — C would read it as raw memory.  A
    cast costs microseconds, hence :class:`BoundEvaluate`.
    """
    if array is None:
        return None
    _validate(name, array, dtype, ndim)
    return array.ctypes.data_as(_POINTER_OF[dtype])


def _address(name: str, array, dtype: np.dtype, ndim: int | None):
    """:func:`_pointer` for a ``c_void_p`` field: the same validation, the
    bare address (``None`` stays a null pointer)."""
    if array is None:
        return None
    _validate(name, array, dtype, ndim)
    return array.ctypes.data


def _validate(name: str, array, dtype: np.dtype, ndim: int | None) -> None:
    ok = isinstance(array, np.ndarray) and array.dtype == dtype and array.flags.c_contiguous
    if not ok or (ndim is not None and array.ndim != ndim):
        rank = "" if ndim is None else f" of rank {ndim}"
        raise TypeError(f"{name} must be a C-contiguous {dtype.name} ndarray{rank}, got {array!r}")


def _make_descent_wrapper(fn):
    def kernel(
        x: np.ndarray,
        roots: np.ndarray,
        depths: np.ndarray,
        nodes: np.ndarray,
        mode: int,
        scale: float,
        out: np.ndarray,
    ) -> np.ndarray:
        fn(
            _pointer("x", x, _F64, 2),
            x.shape[0],
            x.shape[1],
            _pointer("roots", roots, _I64, 1),
            _pointer("depths", depths, _I64, 1),
            roots.shape[0],
            _pointer("nodes", nodes, NODE_DTYPE, 1),
            mode,
            scale,
            _pointer("out", out, _F64, None),
        )
        return out

    # Introspection hook: the raw ctypes foreign function, so callers (and
    # the concurrency tests) can verify the GIL-releasing load path — a
    # ``CDLL`` export with explicit argtypes/restype, never ``PyDLL``.
    kernel.ctypes_fn = fn
    return kernel


def _make_transform_wrapper(fn):
    def kernel(
        x: np.ndarray,
        lambdas: np.ndarray | None,
        shift: np.ndarray,
        scale: np.ndarray,
    ) -> np.ndarray:
        fn(
            _pointer("x", x, _F64, 2),
            x.shape[0],
            x.shape[1],
            0 if lambdas is None else 1,
            _pointer("lambdas", lambdas, _F64, 1),
            _pointer("shift", shift, _F64, 1),
            _pointer("scale", scale, _F64, 1),
        )
        return x

    kernel.ctypes_fn = fn
    return kernel


class BoundEvaluate:
    """``fused_evaluate`` bound to one predictor: bind once, call many.

    The constructor validates and casts, exactly once, every argument that
    cannot change after a predictor is built, writes it into one
    :class:`_EvaluateArgs` record and keeps a strong reference to each
    array, so no bound address can dangle.  ``lambdas is None`` (affine-only
    pipeline) and ``roots is None`` (mode 2: stop after the transform) bind
    null pointers; mode 3 takes the per-tree ``weights`` and owns the sort
    scratch.  The arrays that do vary belong to the caller and persist too:
    :meth:`point` casts them into the record, and is repeated only after the
    caller *replaced* one.  ``bound(n_shapes)`` is then the C call over their
    first ``n_shapes`` shapes with two arguments — the record's address and
    the count — and no ``ctypes.cast``; :meth:`pick` is the tie pick alone
    over the same record.  With ``pick_in_call`` the call itself ends with
    the pick over the scores its tail wrote (a single tree's or the fold's
    output, mode 3's median); ``pick`` reads the scores buffer, where the
    caller writes scores it finished itself.  C reads, and
    writes, the one record, so an instance serves one predictor and is
    **not** thread-safe; it cannot be pickled.
    """

    __slots__ = ("_fn", "_pick", "_address", "_keep", "record", "buffers")

    def __init__(
        self, fn, pick, program, nt, lambdas, shift, scale,
        model_mode, roots, depths, nodes, fold_base, fold_scale, weights=None,
        pick_in_call=False,
    ):  # fmt: skip
        n_trees = 0 if roots is None else roots.shape[0]
        order = None
        if model_mode == 3:
            if not isinstance(weights, np.ndarray) or weights.shape != (n_trees,):
                raise TypeError(f"weights must hold one value per tree in mode 3, got {weights!r}")
            order = np.empty(n_trees, dtype=np.int64)  # the median's sort scratch
        # The transformed nt columns, filled by the first call (bind_nt_table).
        nt_table = np.empty((nt.shape[0], program.col_kind.shape[0]))
        self._fn = fn
        self._pick = pick
        self.record = _EvaluateArgs(  # dims, grid, out, median, scores, choice: point()
            nt=_pointer("nt", nt, _F64, 1),
            n_threads=nt.shape[0],
            base_off=_pointer("base_offsets", program.base_offsets, _I64, 1),
            n_bases=program.base_offsets.shape[0] - 1,
            term_coef=_pointer("term_coef", program.term_coef, _F64, 1),
            term_fac=_pointer("term_fac", program.term_fac, _I64, 2),
            col_kind=_pointer("col_kind", program.col_kind, _I64, 1),
            col_base=_pointer("col_base", program.col_base, _I64, 1),
            n_cols=program.col_kind.shape[0],
            has_lambdas=0 if lambdas is None else 1,
            lambdas=_pointer("lambdas", lambdas, _F64, 1),
            shift=_pointer("shift", shift, _F64, 1),
            scale=_pointer("scale", scale, _F64, 1),
            model_mode=model_mode,
            roots=_pointer("roots", roots, _I64, 1),
            depths=_pointer("depths", depths, _I64, 1),
            n_trees=n_trees,
            nodes=_pointer("nodes", nodes, NODE_DTYPE, 1),
            fold_base=fold_base,
            fold_scale=fold_scale,
            weights=_pointer("weights", weights, _F64, 1),
            order=_pointer("order", order, _I64, 1),
            pick_in_call=1 if pick_in_call else 0,
            nt_table=_pointer("nt_table", nt_table, _F64, 2),
        )
        self._address = ctypes.addressof(self.record)
        self._keep = (
            program, nt, lambdas, shift, scale, roots, depths, nodes, weights, order, nt_table,
        )  # fmt: skip
        self.buffers = (None,) * 6  # what point() last cast; kept alive

    def point(
        self,
        dims: np.ndarray,
        grid: np.ndarray,
        out: np.ndarray | None,
        median: np.ndarray | None = None,
        scores: np.ndarray | None = None,
        choice: np.ndarray | None = None,
    ) -> None:
        """Cast the per-call buffers: a ``(capacity, n_dims)`` dims array, and
        a grid, an output (``None`` in mode 2), in mode 3 one median per grid
        row, and for the pick one final score per grid row and one int64
        choice per shape, all sized for as many shapes."""
        record = self.record
        if record.model_mode == 3 and median is None:
            raise TypeError("median must be a C-contiguous float64 ndarray in mode 3, got None")
        if (record.pick_in_call or scores is not None) and choice is None:
            raise TypeError("the pick needs a C-contiguous int64 choice ndarray, got None")
        record.dims, record.n_dims = _pointer("dims", dims, _F64, 2), dims.shape[1]
        record.grid = _pointer("grid", grid, _F64, None)
        record.out = _pointer("out", out, _F64, None)
        record.median = _pointer("median", median, _F64, 1)
        record.scores = _pointer("scores", scores, _F64, 1)
        record.choice = _pointer("choice", choice, _I64, 1)
        self.buffers = (dims, grid, out, median, scores, choice)

    def __call__(self, n_shapes: int) -> None:
        self._fn(self._address, n_shapes)

    def pick(self, n_shapes: int) -> None:
        """The tie pick over the first ``n_shapes`` shapes' rows of the
        pointed scores buffer, into the choice buffer."""
        self._pick(self._address, n_shapes)

    @property
    def n_tied(self) -> int:
        """Rows of the last mode-3 call left to Python (NaN in ``median``):
        their leaves had no unique order."""
        return self.record.n_tied


def _make_evaluate_wrapper(fn, pick):
    def kernel(
        program,
        dims: np.ndarray,
        nt: np.ndarray,
        grid: np.ndarray,
        lambdas: np.ndarray | None,
        shift: np.ndarray,
        scale: np.ndarray,
        model_mode: int,
        roots: np.ndarray | None,
        depths: np.ndarray | None,
        nodes: np.ndarray | None,
        fold_base: float,
        fold_scale: float,
        out: np.ndarray | None,
    ) -> np.ndarray | None:
        """Bind, point and call once — tests and the load-time probe."""
        bound = kernel.bind(
            program, nt, lambdas, shift, scale,
            model_mode, roots, depths, nodes, fold_base, fold_scale,
        )  # fmt: skip
        bound.point(dims, grid, out)
        bound(dims.shape[0])
        return out

    kernel.ctypes_fn = fn
    kernel.bind = functools.partial(BoundEvaluate, fn, pick)
    return kernel


# ---------------------------------------------------------------------------
# Tree growers
# ---------------------------------------------------------------------------
class _GrowArgs(ctypes.Structure):
    """The C ``grow_args`` record, field for field and in its order."""

    _fields_ = [
        ("columns", ctypes.c_void_p),
        ("rank", ctypes.c_void_p),
        ("n_rows", ctypes.c_int64),
        ("n_features", ctypes.c_int64),
        ("n_ranks", ctypes.c_int64),
        ("max_depth", ctypes.c_double),
        ("min_samples_split", ctypes.c_double),
        ("min_samples_leaf", ctypes.c_double),
        ("min_child_weight", ctypes.c_double),
        ("reg_lambda", ctypes.c_double),
        ("gamma", ctypes.c_double),
        ("n_split_features", ctypes.c_int64),
        ("root", ctypes.c_void_p),
        ("n_slots", ctypes.c_int64),
        ("target", ctypes.c_void_p),
        ("weight", ctypes.c_void_p),
        ("keys", ctypes.c_void_p),
        ("n_keys", ctypes.c_int64),
        ("capacity", ctypes.c_int64),
        ("ints", ctypes.c_void_p),
        ("floats", ctypes.c_void_p),
        ("depth", ctypes.c_int64),
        ("bins", ctypes.c_void_p),
        ("n_bins", ctypes.c_int64),
        ("leaf", ctypes.c_void_p),
    ]


#: A negative ``grow_*`` return, as the exception the reference grower
#: raises in the same situation (the first four cannot happen to a valid
#: call).
_GROW_ERRORS = {
    -1: (MemoryError, "the native tree grower could not allocate its workspace"),
    -2: (RuntimeError, "a tree opened more nodes than its feature-subset key block has rows"),
    -3: (ValueError, "a split left one child empty"),
    -4: (RuntimeError, "a tree outgrew its node capacity"),
    -5: (ZeroDivisionError, "float division by zero"),
    -6: (OverflowError, "(34, 'Numerical result out of range')"),
}


def _dense_ranks(columns: np.ndarray):
    """``(rank, n_ranks)``: every value's rank among its row's distinct
    values, for an ``(n_features, n_rows)`` array of columns — equal values,
    ``-0.0`` and ``0.0`` among them, share one — and one more than the
    largest."""
    n_features, n_rows = columns.shape
    # Flat positions of each column's values in value order.
    order = columns.argsort(axis=1)
    order += (np.arange(n_features) * n_rows)[:, None]
    ordered = columns.ravel()[order]
    steps = np.zeros(columns.shape, dtype=np.int64)
    np.greater(ordered[:, 1:], ordered[:, :-1], out=steps[:, 1:])
    np.cumsum(steps, axis=1, out=steps)
    rank = np.empty(columns.shape, dtype=np.int64)
    rank.ravel()[order.ravel()] = steps.ravel()
    return rank, int(steps[:, -1].max()) + 1


def _cart_capacity(n_slots: int, max_depth) -> int:
    """Every CART leaf holds a slot, so a tree has at most ``2n - 1`` nodes."""
    return max(2 * n_slots - 1, 1)


def _newton_capacity(n_slots: int, max_depth) -> int:
    """A Newton cut can leave a child empty (a midpoint that rounds up to the
    value above it sends every row left), and so can a histogram cut under a
    leaf minimum of zero, so a leaf need not hold a slot: at most the full
    tree of ``max_depth`` levels, and at most ``2 max_depth + 1`` nodes for
    each of the ``2n - 1`` a tree of non-empty leaves has."""
    depth = max(0, math.ceil(max_depth))
    return min(2 ** (depth + 1) - 1, max(2 * n_slots - 1, 1) * (2 * depth + 1))


class NativeGrower:
    """One loaded C tree grower; :meth:`bind` prepares one fit's data for it
    (a :class:`BoundGrower`, or for ``grow_hist`` a :class:`BoundHistGrower`)."""

    __slots__ = ("ctypes_fn", "_capacity", "_bound")

    def __init__(self, fn, capacity, bound=None):
        self.ctypes_fn = fn
        self._capacity = capacity
        self._bound = bound or BoundGrower

    def bind(self, X: np.ndarray, **params):
        return self._bound(self.ctypes_fn, self._capacity, X, **params)


class BoundGrower:
    """A C tree grower bound to one fit's feature matrix: bind once, grow
    many trees.

    The constructor transposes ``X`` into columns and ranks every value
    within its column (:func:`_dense_ranks`), so the grower orders a root's
    slots by one counting sort per column instead of a comparison sort per
    node, and writes both with the hyper-parameters into one
    :class:`_GrowArgs` record.  :meth:`grow` points the record at one
    tree's arrays and calls.  A forest's trees or a booster's rounds share
    the binding; it serves one fit at a time.
    """

    __slots__ = ("_fn", "_capacity", "_record", "_address", "_data")

    def __init__(
        self, fn, capacity, X, *, max_depth=None, min_samples_split=2,
        min_samples_leaf=1, min_child_weight=0.0, reg_lambda=0.0, gamma=0.0,
        n_split_features=None,
    ):  # fmt: skip
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        n_rows, n_features = X.shape
        if n_split_features is None:
            n_split_features = n_features
        if not 1 <= n_split_features <= n_features:
            raise ValueError(f"n_split_features must be in [1, {n_features}], got {n_split_features}")
        columns = np.ascontiguousarray(X.T)
        rank, n_ranks = _dense_ranks(columns)
        max_depth = math.inf if max_depth is None else max_depth
        self._fn = fn
        self._capacity = functools.partial(capacity, max_depth=max_depth)
        self._record = _GrowArgs(
            columns=columns.ctypes.data,
            rank=rank.ctypes.data,
            n_rows=n_rows,
            n_features=n_features,
            n_ranks=n_ranks,
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            min_child_weight=min_child_weight,
            reg_lambda=reg_lambda,
            gamma=gamma,
            n_split_features=n_split_features,
        )
        self._address = ctypes.addressof(self._record)
        self._data = (columns, rank)  # what the record points at

    @property
    def n_features(self) -> int:
        return self._record.n_features

    @property
    def n_split_features(self) -> int:
        return self._record.n_split_features

    def grow(self, root: np.ndarray, target: np.ndarray, weight: np.ndarray, keys=None):
        """Grow one tree in one call.

        ``root`` lists the tree's rows of ``X``, one per slot (a bootstrap
        set repeats rows); ``target`` and ``weight`` hold a value per row of
        ``X`` (CART: ``y`` and the sample weights, Newton: gradient and
        hessian); ``keys`` is a CART tree's feature-subset key block, a row
        per open node, or ``None`` to examine every feature.  Returns the
        node arrays ``(feature, threshold, left, right, value, n_samples,
        impurity)`` — ``impurity`` is zero in a Newton tree — and the depth.
        """
        record = self._record
        n_rows, n_features = record.n_rows, record.n_features
        record.root = _address("root", root, _I64, 1)
        if root.size and not (root.min() >= 0 and root.max() < n_rows):
            raise IndexError("root lists a row outside X")
        for name, array in (("target", target), ("weight", weight)):
            _validate(name, array, _F64, 1)
            if array.shape[0] != n_rows:
                raise ValueError(f"{name} must hold one value per row of X")
        record.target = target.ctypes.data
        record.weight = weight.ctypes.data
        record.keys = _address("keys", keys, _F64, 2)
        if keys is not None and keys.shape[1] != n_features:
            raise ValueError("keys must hold one column per feature")
        record.n_keys = 0 if keys is None else keys.shape[0]
        record.n_slots = root.shape[0]
        record.capacity = self._capacity(root.shape[0])
        return _call_grower(self._fn, record, self._address)


def _call_grower(fn, record: _GrowArgs, address: int):
    """Grow one tree into fresh node arrays of ``record.capacity`` slots:
    ``(feature, threshold, left, right, value, n_samples, impurity,
    depth)``, or the exception of a negative return."""
    capacity = record.capacity
    ints = np.empty((4, capacity), dtype=np.int64)
    floats = np.empty((3, capacity))
    record.ints = ints.ctypes.data
    record.floats = floats.ctypes.data
    n_nodes = fn(address)
    if n_nodes < 0:
        error, message = _GROW_ERRORS[n_nodes]
        raise error(message)
    feature, left, right, n_samples = (row[:n_nodes].copy() for row in ints)
    threshold, value, impurity = (row[:n_nodes].copy() for row in floats)
    return feature, threshold, left, right, value, n_samples, impurity, record.depth


class BoundHistGrower:
    """The C histogram grower bound to one booster's binned matrix.

    The constructor stores the bins as one byte each, row-major, with the
    hyper-parameters in a :class:`_GrowArgs` record; every tree grows on
    all rows, so the node capacity is fixed per binding.  :meth:`grow`
    points the record at one round's gradients and calls.
    """

    __slots__ = ("_fn", "_record", "_address", "_bins")

    def __init__(self, fn, capacity, binned, *, max_depth, min_samples_leaf, reg_lambda, n_bins):
        binned = np.asarray(binned)
        if binned.ndim != 2:
            raise ValueError(f"binned must be 2-dimensional, got shape {binned.shape}")
        if not 1 <= n_bins <= 256:
            raise ValueError(f"n_bins must be in [1, 256], got {n_bins}")
        if binned.size and not (binned.min() >= 0 and binned.max() < n_bins):
            raise ValueError(f"binned holds a bin outside [0, {n_bins})")
        self._bins = np.ascontiguousarray(binned, dtype=np.uint8)
        n_rows, n_features = binned.shape
        self._fn = fn
        self._record = _GrowArgs(
            n_rows=n_rows,
            n_features=n_features,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            reg_lambda=reg_lambda,
            capacity=capacity(n_rows, max_depth),
            bins=self._bins.ctypes.data,
            n_bins=n_bins,
        )
        self._address = ctypes.addressof(self._record)

    def grow(self, grad: np.ndarray):
        """Grow one tree on the gradients ``grad`` (one per row) in one call.

        Returns the node arrays ``(feature, threshold, left, right, value)``
        — a threshold is the cut's bin — the depth, and every row's leaf
        value.
        """
        record = self._record
        _validate("grad", grad, _F64, 1)
        if grad.shape[0] != record.n_rows:
            raise ValueError("grad must hold one value per row of binned")
        leaf = np.empty(record.n_rows)
        record.target = grad.ctypes.data
        record.leaf = leaf.ctypes.data
        feature, threshold, left, right, value, _, _, depth = _call_grower(
            self._fn, record, self._address
        )
        return feature, threshold, left, right, value, depth, leaf


def _bind_growers(lib):
    """``(grow_cart, grow_newton, grow_hist)`` over a loaded library whose
    grower signatures are declared (:func:`_declare_grower_signatures`)."""
    return (
        NativeGrower(lib.grow_cart, _cart_capacity),
        NativeGrower(lib.grow_newton, _newton_capacity),
        NativeGrower(lib.grow_hist, _newton_capacity, BoundHistGrower),
    )


def _make_sum_wrapper(fn):
    def pairwise_sum(a: np.ndarray) -> float:
        """``np.sum`` of a float64 vector as the Newton grower takes it."""
        return fn(_pointer("a", a, _F64, 1), a.shape[0])

    pairwise_sum.ctypes_fn = fn
    return pairwise_sum


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _verify_growers(kernels) -> str:
    """Grow a fixed small forest and two boosters through the three C
    growers and through the reference growers: why they differ, or ``""``.

    Every column repeats values and two columns are equal (ties inside a
    column and between features), some rows weigh nothing, one forest root
    is a bootstrap multiset and the forest examines two of four features
    per node; the Newton booster grows once on every row and once on a
    subsample, with ``min_child_weight`` and ``gamma`` set; the histogram
    booster grows two rounds over eight bins with a leaf minimum of two.
    """
    rng = np.random.default_rng(27)
    X = np.round(rng.normal(size=(40, 4)), 1)
    X[:, 3] = X[:, 1]
    probes = {"grow_cart": _probe_cart, "grow_newton": _probe_newton, "grow_hist": _probe_hist}
    for name, probe in probes.items():
        try:
            differs = probe(getattr(kernels, name), X, rng)
        except Exception as exc:  # the probe must never take down load
            return f"{name}: raised {type(exc).__name__}: {exc}"
        if differs:
            return f"{name}: {differs}"
    return ""


def _probe_cart(grower, X, rng) -> str:
    from repro.ml import tree

    y = X[:, 0] * X[:, 2] + rng.normal(size=X.shape[0])
    w = rng.uniform(0.5, 2.0, size=X.shape[0])
    w[::9] = 0.0
    roots = [np.arange(X.shape[0]), rng.integers(0, X.shape[0], size=X.shape[0])]
    params = dict(max_depth=None, min_samples_split=3, min_samples_leaf=1, n_split_features=2)
    seeds = (5, 6)
    grown = tree._grow_native(
        grower.bind(X, **params), y, w, roots, [np.random.default_rng(s) for s in seeds]
    )
    oracle = tree._grow_reference(X, y, w, roots, [np.random.default_rng(s) for s in seeds], **params)
    for t, (ours, theirs) in enumerate(zip(grown, oracle)):
        for name in ("feature", "threshold", "left", "right", "value", "n_samples", "impurity", "depth"):
            if not _same_bits(getattr(ours, name), getattr(theirs, name)):
                return f"tree {t} {name} differs from tree._grow_reference"
    return ""


def _probe_newton(grower, X, rng) -> str:
    from repro.ml import boosting

    newton = boosting._NewtonTree(
        max_depth=4, min_child_weight=2.0, reg_lambda=1.0, gamma=0.05, min_samples_leaf=1
    )
    bound = newton.bind(grower, X)
    grad, hess = np.round(rng.normal(size=X.shape[0]), 2), np.ones(X.shape[0])
    for rows in (np.arange(X.shape[0]), rng.choice(X.shape[0], size=30, replace=False)):
        ours = newton.grow(bound, rows, grad, hess).flat_
        theirs = newton.fit_reference(X[rows], grad[rows], hess[rows]).flat_
        for name in ("feature", "threshold", "left", "right", "value", "depth"):
            if not _same_bits(getattr(ours, name), getattr(theirs, name)):
                return f"{name} differs from _NewtonTree._build on {rows.size} rows"
    return ""


def _probe_hist(grower, X, rng) -> str:
    from repro.ml import boosting

    hist = boosting._HistTree(max_depth=3, min_samples_leaf=2, reg_lambda=1.0, max_bins=8)
    binned = np.floor(X * 2.0 + 4.0).clip(0, 7).astype(np.int64)
    bound = hist.bind(grower, binned)
    grad = np.round(rng.normal(size=X.shape[0]), 2)
    for _ in range(2):
        ours = hist.grow(bound, grad)
        ours_flat = hist.flat_
        theirs = hist.fit_reference(binned, grad)
        for name in ("feature", "threshold", "left", "right", "value", "depth"):
            if not _same_bits(getattr(ours_flat, name), getattr(hist.flat_, name)):
                return f"{name} differs from _HistTree._build"
        if not _same_bits(ours, theirs):
            return "leaf values differ from _HistTree._build"
        grad = grad - 0.5 * ours
    return ""
