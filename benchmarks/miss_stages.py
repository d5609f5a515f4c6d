"""Where one warmed planning miss goes: per-stage medians of ``AdsalaRuntime.plan``.

Plans a stream of never-repeated uniform shapes (64-4096 per dimension, the
routine drawn uniformly) through ``AdsalaRuntime(load_bundle(DIR)).plan``,
after 16 warm-up shapes per routine, and times each stage in context with a
``perf_counter_ns`` wrapper around the function that runs it.  A row is the
median over calls of that call's stage time (a parent stage less the stages
inside it), so the rows sum to the plan's p50 within the printed residual;
every wrapper adds its own cost to the rows that contain it, so the total
reads above an unwrapped p50.

    PYTHONPATH=src python benchmarks/miss_stages.py --bundle DIR [--shapes 12000]

``DIR`` is a saved bundle, e.g. the end-to-end benchmark's
``benchmarks/e2e/out/cache/<digest>-full/bundle``.  The script also runs
against a tree that still names the predictor pass ``plan_batch``, routes
through ``FallbackChain.resolve``, looks a plan's timing rows up in the
memo while planning (``ServingEngine._timing_cells``) or builds one
``TimingCell`` per owed row, so two trees can be read side by side.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import statistics
import time

# NumPy reads the BLAS thread count when it loads: hold it to one thread
# first, as the benchmark does.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

from repro.core.features import FeatureGridWriter  # noqa: E402
from repro.core.persistence import load_bundle  # noqa: E402
from repro.core.predictor import ThreadPredictor  # noqa: E402
from repro.core import runtime as runtime_module  # noqa: E402
from repro.core.runtime import AdsalaRuntime, PendingTimings  # noqa: E402
from repro.ml._native import BoundEvaluate  # noqa: E402
from repro.routines import get_catalog  # noqa: E402
from repro.serving.engine import ServingEngine  # noqa: E402
from repro.serving.fallback import FallbackChain  # noqa: E402

PASS = "cached_plans" if hasattr(ThreadPredictor, "cached_plans") else "plan_batch"
ROUTE = "route" if hasattr(FallbackChain, "route") else "resolve"
#: A plan's deferred timing rows: the memo probe of a tree that still has
#: one while planning, else the group's constructor and, where a tree still
#: has them, the constructors of the rows a plan owes.
TIMING = (
    [(ServingEngine, "_timing_cells")]
    if hasattr(ServingEngine, "_timing_cells")
    else [(PendingTimings, "__init__")]
    + [(cell, "__init__") for cell in [getattr(runtime_module, "TimingCell", None)] if cell]
)

#: (owner, function, label): every timed function.
STAGES = [
    (ServingEngine, "_make_request", "intake"),
    (FallbackChain, ROUTE, "route"),
    (ThreadPredictor, PASS, "pass"),
    (ThreadPredictor, "choose_batch", "choose"),
    (FeatureGridWriter, "load_dims", "load_dims"),
    (BoundEvaluate, "__call__", "native"),
    *[(owner, name, "timing") for owner, name in TIMING],
    (ServingEngine, "_process_batch", "process"),
]

#: The printed rows: a name and the stage time of one call.
ROWS = [
    ("intake (`_make_request`: normalize + `PlanRequest`)", lambda t: t["intake"]),
    (f"routing (`FallbackChain.{ROUTE}`)", lambda t: t["route"]),
    (f"predictor bookkeeping (`{PASS}` less choose)", lambda t: t["pass"] - t["choose"]),
    (
        "choose wrappers (`choose_batch` less `load_dims` and the native call)",
        lambda t: t["choose"] - t["load_dims"] - t["native"],
    ),
    ("`load_dims`", lambda t: t["load_dims"]),
    ("native call (`BoundEvaluate.__call__`, ctypes included)", lambda t: t["native"]),
    (
        "deferred timing rows ("
        + " + ".join(f"`{owner.__name__}.{name}`" for owner, name in TIMING)
        + ")",
        lambda t: t["timing"],
    ),
    (
        "rest of `_process_batch` (groups, `ExecutionPlan`, telemetry, clocks)",
        lambda t: t["process"] - t["route"] - t["pass"] - t["timing"],
    ),
    (
        "facade (`AdsalaRuntime.plan`, `engine.plan`, lock)",
        lambda t: t["plan"] - t["process"] - t["intake"],
    ),
]


def shapes(routines, n: int, seed: int):
    """``n`` uniform ``(routine, dims)`` requests."""
    rng = np.random.default_rng(seed)
    dim_names = {key: get_catalog().resolve(key)[2].dim_names for key in routines}
    requests = []
    for pick in rng.integers(len(routines), size=n):
        names = dim_names[routines[pick]]
        sizes = rng.integers(64, 4097, size=len(names))
        requests.append((routines[pick], {name: int(v) for name, v in zip(names, sizes)}))
    return requests


def measure(bundle_dir: str, n: int, seed: int) -> dict:
    """Per-call stage times, in ns, keyed by label (plus ``"plan"``)."""
    runtime = AdsalaRuntime(load_bundle(bundle_dir))
    routines = sorted(runtime.bundle.routines)
    for routine, dims in shapes(routines, 16 * len(routines), seed + 1):
        runtime.plan(routine, **dims)
    times = {label: [] for _, _, label in STAGES}
    times["plan"] = []
    clock = time.perf_counter_ns
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in STAGES]

    def timed(original, label):
        @functools.wraps(original)
        def call(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                times[label][-1] += clock() - start

        return call

    for (owner, name, label), (_, _, original) in zip(STAGES, originals):
        setattr(owner, name, timed(original, label))
    gc.collect()
    try:
        for routine, dims in shapes(routines, n, seed):
            for column in times.values():
                column.append(0)
            start = clock()
            runtime.plan(routine, **dims)
            times["plan"][-1] = clock() - start
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bundle", required=True, help="a saved bundle directory")
    parser.add_argument("--shapes", type=int, default=12000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    times = measure(args.bundle, args.shapes, args.seed)
    calls = [{label: column[k] for label, column in times.items()} for k in range(args.shapes)]
    total = 0.0
    print("| stage | µs |\n|---|---|")
    for name, stage in ROWS:
        value = statistics.median(stage(call) for call in calls) / 1000
        total += value
        print(f"| {name} | {value:.1f} |")
    p50 = statistics.median(times["plan"]) / 1000
    print(f"| sum of the rows | {total:.1f} |")
    print(f"| `AdsalaRuntime.plan` p50 | {p50:.1f} (residual {p50 - total:+.1f}) |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
