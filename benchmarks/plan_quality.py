"""Score the planner's thread choices against the simulator's full sweep.

For each install seed, installs the end-to-end benchmark's literals
(``benchmarks/e2e/harness.py``: ``ROUTINES`` and ``INSTALL``, with
``--platform`` in place of its ``PLATFORM`` and ``--seeds`` in place of its
install seed), plans two request sets through ``ServingEngine.plan_many``
and times every plan at every thread count:

* **uniform** — 600 never-repeating shapes, dims 64-4096, the benchmark's
  ``fresh_requests(ROUTINES, 600, 41)`` (``--uniform-seed`` draws another
  set in place of seed 41);
* **hot** — the benchmark's 32-shape hot pool, each shape weighted by its
  Zipf weight ``1/k``.

Every seed is scored against **one** simulator (seed ``--truth-seed``), so
the spread across seeds measures the planner, not the yardstick.  Printed
per seed and as the median over seeds:

* ``mean`` — mean speedup of the planned thread count over max threads;
* ``oracle`` — the same for the best thread count of the sweep;
* ``headroom`` — the share of the oracle's gain the planner takes,
  ``(mean - 1) / (oracle - 1)``;
* ``<1x`` / ``<0.95x`` — the share of uniform plans slower than max
  threads, overall and per routine;
* ``tied`` / ``width`` — the share of uniform plans whose predicted minimum
  was tied (several thread counts share the row's smallest score; the
  planner takes the middle of that run), and the mean number of thread
  counts in those tied runs.

Usage::

    PYTHONPATH=src python benchmarks/plan_quality.py --platform gadi --seeds 0 1 2
    PYTHONPATH=src python benchmarks/plan_quality.py --platform gadi --seeds 0 --min-uniform 1.19
    # held-out check: unseen install seeds, truth and uniform set
    PYTHONPATH=src python benchmarks/plan_quality.py --platform gadi --seeds 5 6 7 \
        --truth-seed 7 --uniform-seed 1234

``--min-uniform`` exits 1 when the median uniform mean speedup is below it.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from typing import Dict, List, Sequence

# NumPy reads the BLAS thread count when it loads: hold it to one thread
# first, as the benchmark does.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

from install_fingerprint import harness_literals  # noqa: E402

from repro.core.install import install_adsala  # noqa: E402
from repro.machine.platforms import get_platform  # noqa: E402
from repro.machine.simulator import TimingSimulator  # noqa: E402
from repro.serving import ServingEngine, generate_workload  # noqa: E402

# The benchmark's stream literals (benchmarks/e2e/harness.py), copied rather
# than imported: importing the harness would put its own checkout's ``src``
# first on the path, and this script must score whichever ``repro`` is on
# PYTHONPATH.
MIN_DIM, MAX_DIM = 64, 4096
HOT_POOL = 32
HOT_POOL_SEED = 20240611
UNIFORM_REQUESTS = 600
UNIFORM_SEED = 41


def fresh_requests(routines: Sequence[str], n: int, seed: int) -> list:
    """``n`` never-repeating uniform requests, drawn as the benchmark draws them."""
    seen = set()
    requests = []
    draw = 0
    while len(requests) < n:
        for request in generate_workload(
            routines, n, "uniform", seed=seed + draw * 7919, min_dim=MIN_DIM, max_dim=MAX_DIM
        ):
            key = (request.routine, tuple(sorted(request.dims.items())))
            if key not in seen and len(requests) < n:
                seen.add(key)
                requests.append(request)
        draw += 1
    return requests


def sweep(truth: TimingSimulator, requests: Sequence, threads: Sequence[int]) -> Dict[str, np.ndarray]:
    """Per request: speedup of the planned threads and of the sweep's best,
    both over max threads, timed by ``truth``."""
    counts = np.asarray(truth.platform.candidate_thread_counts(), dtype=np.int64)
    planned = np.empty(len(requests))
    best = np.empty(len(requests))
    by_routine: Dict[str, List[int]] = {}
    for index, request in enumerate(requests):
        by_routine.setdefault(request.routine, []).append(index)
    for routine, rows in by_routine.items():
        names = list(requests[rows[0]].dims)
        columns = {
            name: np.repeat([requests[i].dims[name] for i in rows], counts.size).astype(np.int64)
            for name in names
        }
        grid = truth.time_batch(routine, columns, np.tile(counts, len(rows)))
        grid = grid.reshape(len(rows), counts.size)
        baseline = grid[:, -1]
        chosen = grid[np.arange(len(rows)), np.searchsorted(counts, [threads[i] for i in rows])]
        planned[rows] = baseline / chosen
        best[rows] = baseline / grid.min(axis=1)
    return {"planned": planned, "best": best}


def headroom(mean: float, oracle: float) -> float:
    return (mean - 1.0) / (oracle - 1.0) if oracle > 1.0 else float("nan")


def tie_widths(bundle, requests: Sequence) -> np.ndarray:
    """Per request, how many thread counts share its row's smallest score."""
    widths = np.empty(len(requests), dtype=np.int64)
    by_routine: Dict[str, List[int]] = {}
    for index, request in enumerate(requests):
        by_routine.setdefault(request.routine, []).append(index)
    for routine, rows in by_routine.items():
        scores = bundle.predictor(routine).predict_scores_batch([requests[i].dims for i in rows])
        widths[rows] = (scores == scores.min(axis=1, keepdims=True)).sum(axis=1)
    return widths


def score_seed(
    platform_name: str, seed: int, truth: TimingSimulator, literals: dict, uniform_seed: int
) -> dict:
    routines = literals["ROUTINES"]
    install = dict(literals["INSTALL"], seed=seed)
    started = time.perf_counter()
    bundle = install_adsala(get_platform(platform_name), routines=routines, **install)
    install_s = time.perf_counter() - started
    engine = ServingEngine(bundle)

    uniform = fresh_requests(routines, UNIFORM_REQUESTS, uniform_seed)
    pool = fresh_requests(routines, HOT_POOL, HOT_POOL_SEED)
    weights = 1.0 / np.arange(1, HOT_POOL + 1)
    weights /= weights.sum()

    row = {"seed": seed, "install_s": install_s, "selected": bundle.best_models()}
    for name, requests, weight in (("uniform", uniform, None), ("hot", pool, weights)):
        plans = engine.plan_many([request.as_tuple() for request in requests])
        scored = sweep(truth, requests, [plan.threads for plan in plans])
        mean = float(np.average(scored["planned"], weights=weight))
        oracle = float(np.average(scored["best"], weights=weight))
        row[name] = {"mean": mean, "oracle": oracle, "headroom": headroom(mean, oracle)}
        if name == "uniform":
            speedups = scored["planned"]
            row["below"] = {
                "all": (float(np.mean(speedups < 1.0)), float(np.mean(speedups < 0.95)))
            }
            for routine in routines:
                mine = speedups[[r.routine == routine for r in requests]]
                row["below"][routine] = (float(np.mean(mine < 1.0)), float(np.mean(mine < 0.95)))
            widths = tie_widths(bundle, requests)
            tied = widths[widths > 1]
            row["ties"] = (tied.size / widths.size, float(tied.mean()) if tied.size else 0.0)
    return row


def print_report(platform_name: str, rows: List[dict], routines: Sequence[str]) -> dict:
    print(f"plan quality on {platform_name}, scored against one fixed-seed simulator")
    header = (
        f"{'seed':>6} {'uniform':>8} {'oracle':>7} {'headroom':>8} "
        f"{'hot':>7} {'oracle':>7} {'headroom':>8} {'<1x':>6} {'<0.95x':>7} "
        f"{'tied':>6} {'width':>6} {'install':>8}"
    )
    print(header)

    def line(label, u, h, below, ties, install):
        print(
            f"{label:>6} {u['mean']:8.3f} {u['oracle']:7.3f} {u['headroom']:8.1%} "
            f"{h['mean']:7.3f} {h['oracle']:7.3f} {h['headroom']:8.1%} "
            f"{below[0]:6.1%} {below[1]:7.1%} {ties[0]:6.1%} {ties[1]:6.1f} {install}"
        )

    for row in rows:
        install = f"{row['install_s']:7.2f}s"
        line(row["seed"], row["uniform"], row["hot"], row["below"]["all"], row["ties"], install)

    def median_of(block, key):
        return statistics.median(row[block][key] for row in rows)

    median = {
        block: {key: median_of(block, key) for key in ("mean", "oracle", "headroom")}
        for block in ("uniform", "hot")
    }
    median_below = {
        routine: tuple(statistics.median(row["below"][routine][i] for row in rows) for i in (0, 1))
        for routine in ["all", *routines]
    }
    median_ties = tuple(statistics.median(row["ties"][i] for row in rows) for i in (0, 1))
    line("median", median["uniform"], median["hot"], median_below["all"], median_ties, "")

    print("\nuniform plans slower than max threads, per routine (<1x / <0.95x)")
    print(f"{'seed':>6} " + " ".join(f"{routine:>13}" for routine in routines))
    for label, below in [(row["seed"], row["below"]) for row in rows] + [("median", median_below)]:
        cells = " ".join(f"{below[r][0]:6.1%}/{below[r][1]:6.1%}" for r in routines)
        print(f"{label:>6} {cells}")

    print("\nselected models")
    for row in rows:
        print(f"  seed {row['seed']}: " + ", ".join(f"{r} {m}" for r, m in row["selected"].items()))
    return median


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--platform", choices=("gadi", "setonix"), default="gadi")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--truth-seed", type=int, default=0, help="seed of the scoring simulator")
    parser.add_argument(
        "--uniform-seed", type=int, default=UNIFORM_SEED,
        help="seed of the uniform request set (default: the benchmark's)",
    )
    parser.add_argument(
        "--min-uniform", type=float, default=None,
        help="exit 1 when the median uniform mean speedup is below this",
    )
    args = parser.parse_args(argv)

    literals = harness_literals()
    truth = TimingSimulator(get_platform(args.platform), seed=args.truth_seed)
    rows = [
        score_seed(args.platform, seed, truth, literals, args.uniform_seed) for seed in args.seeds
    ]
    median = print_report(args.platform, rows, literals["ROUTINES"])
    if args.min_uniform is not None and median["uniform"]["mean"] < args.min_uniform:
        print(
            f"FAIL: median uniform mean speedup {median['uniform']['mean']:.3f} "
            f"< {args.min_uniform}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
