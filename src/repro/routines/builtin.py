"""The BLAS Level 3 built-ins: the routines every catalog starts with.

These are the paper's Table I routine specifications, unchanged: the same
operand tables, the same FLOPs and memory-footprint lambdas (operation
order included — the feature pipeline and native column program depend on
their exact floating-point association).  :mod:`repro.blas.api` re-exports
:data:`ROUTINE_SPECS` so existing imports keep working.
"""

from __future__ import annotations

from typing import Dict

from repro.routines.spec import OperandSpec, RoutineSpec

__all__ = ["ROUTINE_SPECS", "BUILTIN_PLUGIN_NAME", "BUILTIN_PLUGIN_VERSION"]

#: The identity bundles record for the built-ins (manifest ``plugin`` block).
BUILTIN_PLUGIN_NAME = "builtin-blas3"
BUILTIN_PLUGIN_VERSION = "1"


ROUTINE_SPECS: Dict[str, RoutineSpec] = {
    "gemm": RoutineSpec(
        name="gemm",
        dim_names=("m", "k", "n"),
        operands=(
            OperandSpec("A", ("m", "k"), "regular"),
            OperandSpec("B", ("k", "n"), "regular"),
            OperandSpec("C", ("m", "n"), "regular"),
        ),
        flops=lambda d: 2.0 * d["m"] * d["k"] * d["n"],
        memory_words=lambda d: 1.0
        * (d["m"] * d["k"] + d["k"] * d["n"] + d["m"] * d["n"]),
    ),
    "symm": RoutineSpec(
        name="symm",
        dim_names=("m", "n"),
        operands=(
            OperandSpec("A", ("m", "m"), "symmetric"),
            OperandSpec("B", ("m", "n"), "regular"),
            OperandSpec("C", ("m", "n"), "regular"),
        ),
        flops=lambda d: 2.0 * d["m"] * d["m"] * d["n"],
        memory_words=lambda d: 1.0 * (d["m"] * d["m"] + 2 * d["m"] * d["n"]),
    ),
    "syrk": RoutineSpec(
        name="syrk",
        dim_names=("n", "k"),
        operands=(
            OperandSpec("A", ("n", "k"), "regular"),
            OperandSpec("C", ("n", "n"), "symmetric"),
        ),
        flops=lambda d: 1.0 * d["n"] * (d["n"] + 1) * d["k"],
        memory_words=lambda d: 1.0 * (d["n"] * d["k"] + d["n"] * d["n"]),
    ),
    "syr2k": RoutineSpec(
        name="syr2k",
        dim_names=("n", "k"),
        operands=(
            OperandSpec("A", ("n", "k"), "regular"),
            OperandSpec("B", ("n", "k"), "regular"),
            OperandSpec("C", ("n", "n"), "symmetric"),
        ),
        flops=lambda d: 2.0 * d["n"] * (d["n"] + 1) * d["k"],
        memory_words=lambda d: 1.0 * (2 * d["n"] * d["k"] + d["n"] * d["n"]),
    ),
    "trmm": RoutineSpec(
        name="trmm",
        dim_names=("m", "n"),
        operands=(
            OperandSpec("A", ("m", "m"), "triangular"),
            OperandSpec("B", ("m", "n"), "regular"),
        ),
        flops=lambda d: 1.0 * d["m"] * d["m"] * d["n"],
        memory_words=lambda d: 1.0 * (d["m"] * d["m"] + d["m"] * d["n"]),
    ),
    "trsm": RoutineSpec(
        name="trsm",
        dim_names=("m", "n"),
        operands=(
            OperandSpec("A", ("m", "m"), "triangular"),
            OperandSpec("B", ("m", "n"), "regular"),
        ),
        flops=lambda d: 1.0 * d["m"] * d["m"] * d["n"],
        memory_words=lambda d: 1.0 * (d["m"] * d["m"] + d["m"] * d["n"]),
    ),
}

