"""Where one warmed frontend request goes: per-stage medians of ``submit → result``.

Opens a two-shard thread ``ShardedFrontend`` on a saved bundle, warms 32
uniform shapes (64-4096 per dimension, the routine drawn uniformly) until
every answer comes from a shard's cache, then sends hot requests over those
shapes one at a time from one client and times each stage in context with a
``perf_counter_ns`` wrapper around the function that runs it.  A row is the
median over requests of that request's stage time (a parent stage less the
stages inside it).  The caller's rows sum to the request's p50 within the
printed residual; the drain worker's rows run inside the caller's wait.
Every wrapper adds its own cost to the rows that contain it, so the total
reads above an unwrapped p50.

    PYTHONPATH=src python benchmarks/submit_stages.py --bundle DIR [--requests 20000]

``DIR`` is a saved bundle, e.g. the end-to-end benchmark's
``benchmarks/e2e/out/cache/<digest>-full/bundle``.  The script also runs
against a tree whose frontend validates in ``_normalize``, admits through a
semaphore in ``_admit`` and hashes in ``shard_index`` while routing, so two
trees can be read side by side.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import statistics
import threading
import time

# NumPy reads the BLAS thread count when it loads: hold it to one thread
# first, as the benchmark does.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

from repro.routines import get_catalog  # noqa: E402
from repro.serving import frontend as frontend_module  # noqa: E402
from repro.serving.frontend import PlanFuture, ShardedFrontend  # noqa: E402
from repro.serving.registry import BundleHandle  # noqa: E402
from repro.serving.shard import EngineShard, ShardBase  # noqa: E402
from repro.serving.supervisor import ShardSupervisor  # noqa: E402

INTAKE = "_intake" if hasattr(ShardedFrontend, "_intake") else "_normalize"

#: (owner, function, label): every timed function the tree has.
STAGES = [
    (ShardedFrontend, "submit", "submit"),
    (ShardedFrontend, INTAKE, "intake"),
    (frontend_module, "shard_index", "hash"),
    (ShardedFrontend, "_admit", "admit"),
    (ShardedFrontend, "_enqueue", "enqueue"),
    (ShardSupervisor, "resolve_request", "route"),
    (ShardBase, "enqueue", "inbox"),
    (PlanFuture, "result", "wait"),
    (ShardBase, "_answer", "answer"),
    (EngineShard, "_execute_batch", "engine"),
    (PlanFuture, "set_result", "set_result"),
    (ShardedFrontend, "_on_resolved", "ledger"),
]

#: The printed rows: a name, the thread it runs on and its time in one request.
#: A tree that hashes while routing does so inside ``_enqueue``.
ROWS = [
    (f"intake (`{INTAKE}`, plus the routing hash)", "caller", lambda t: t["intake"] + t["hash"]),
    ("admission (`_admit`, where the tree has one)", "caller", lambda t: t["admit"]),
    ("route (`ShardSupervisor.resolve_request`)", "caller", lambda t: t["route"]),
    ("inbox put (`ShardBase.enqueue`)", "caller", lambda t: t["inbox"]),
    (
        "rest of `_enqueue` (locks, ledger, closed check, `PlanFuture`)",
        "caller",
        lambda t: t["enqueue"] - t["admit"] - t["route"] - t["inbox"] - t["hash"],
    ),
    ("rest of `submit`", "caller", lambda t: t["submit"] - t["intake"] - t["enqueue"]),
    ("wait (`PlanFuture.result`)", "caller", lambda t: t["wait"]),
    (
        "drain (`_answer` less the engine and the resolution)",
        "drain",
        lambda t: t["answer"] - t["engine"] - t["set_result"] - t["ledger"],
    ),
    ("engine (`EngineShard._execute_batch`)", "drain", lambda t: t["engine"]),
    ("resolve (`set_result` + `_on_resolved`)", "drain", lambda t: t["set_result"] + t["ledger"]),
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
    """Per-request stage times, in ns, keyed by label (plus ``"request"``)."""
    times = {label: [0] for _, _, label in STAGES}
    times["request"] = [0]
    clock = time.perf_counter_ns
    answered = threading.Event()  # the drain worker's last timed step is done
    present = [(owner, name, label) for owner, name, label in STAGES if hasattr(owner, name)]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in present]

    def timed(original, label):
        @functools.wraps(original)
        def call(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                times[label][-1] += clock() - start
                if label == "answer":
                    answered.set()

        return call

    # Wrapped before the frontend exists: each shard keeps the bound hook it
    # was given, so ``_on_resolved`` must be the wrapper by then.
    for (owner, name, label), (_, _, original) in zip(present, originals):
        setattr(owner, name, timed(original, label))
    try:
        with ShardedFrontend.from_directory(bundle_dir, n_shards=2) as frontend:
            routines = sorted(BundleHandle(bundle_dir).routines)
            pool = shapes(routines, 32, seed)
            for _ in range(3):  # workers up, every shape cached on its shard
                for routine, dims in pool:
                    frontend.plan(routine, **dims)
            gc.collect()
            for k in range(n):
                routine, dims = pool[k % len(pool)]
                for column in times.values():
                    column.append(0)
                answered.clear()
                start = clock()
                plan = frontend.submit(routine, **dims).result(30)
                times["request"][-1] = clock() - start
                if not (plan.from_cache and answered.wait(30)):
                    raise RuntimeError(f"request {k} was not a settled cache hit")
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    return {label: column[1:] for label, column in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bundle", required=True, help="a saved bundle directory")
    parser.add_argument("--requests", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    times = measure(args.bundle, args.requests, args.seed)
    calls = [{label: column[k] for label, column in times.items()} for k in range(args.requests)]
    total = 0.0
    print("| stage | thread | µs |\n|---|---|---|")
    for name, thread, stage in ROWS:
        value = statistics.median(stage(call) for call in calls) / 1000
        total += value if thread == "caller" else 0.0
        print(f"| {name} | {thread} | {value:.1f} |")
    p50 = statistics.median(times["request"]) / 1000
    print(f"| sum of the caller's rows | caller | {total:.1f} |")
    print(f"| `submit(...).result()` p50 | caller | {p50:.1f} (residual {p50 - total:+.1f}) |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
