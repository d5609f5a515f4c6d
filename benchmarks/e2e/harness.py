"""Shared machinery of the end-to-end benchmark (see README.md).

Everything here measures the system **from outside**: it builds the serving
objects with library defaults, drives them through public functions and
times the calls.  Four things live in this module:

* the *spin* — a frozen calibration kernel whose duration is the unit every
  timing is divided by.  The kernel runs between every few tens of
  milliseconds of work, so each piece of work is divided by the host speed
  of its own moment and a number recorded on a slow minute of a shared host
  compares with one recorded on a fast minute;
* the benchmark-owned bundle cache (one install per source tree, reused by
  the three serving workloads);
* the seeded request streams;
* the four workload trials and the correctness gate every trial's plans
  pass through.

``run.py`` pins the environment (BLAS threads, ``ADSALA_*``) before it
imports this module, because NumPy reads the thread count when it loads.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from compare import quartiles
from spec import END_TO_END, OUT, ROOT, WORKLOADS

CACHE = OUT / "cache"

# The benchmark command may not name ``src`` (BENCHMARK.json contract), so
# the library under test is put on the path here; an existing PYTHONPATH=src
# resolves to the same package.
sys.path.insert(0, str(ROOT / "src"))

from repro.core.install import install_adsala  # noqa: E402
from repro.core.persistence import load_bundle, save_bundle  # noqa: E402
from repro.core.runtime import AdsalaRuntime  # noqa: E402
from repro.machine.platforms import get_platform  # noqa: E402
from repro.serving import (  # noqa: E402
    ServingEngine,
    ShardedFrontend,
    WorkloadRequest,
    generate_workload,
)

PLATFORM = "gadi"
#: The six double-precision routines of the paper's Table I.
ROUTINES = ["dgemm", "dsymm", "dsyrk", "dsyr2k", "dtrmm", "dtrsm"]
#: Install literals, fixed so that ``--seed`` drives only the request streams.
INSTALL = dict(n_samples=56, threads_per_shape=12, n_test_shapes=40, seed=0)
QUICK_ROUTINES = ["dgemm", "dsyrk"]
QUICK_INSTALL = dict(
    n_samples=16,
    threads_per_shape=5,
    n_test_shapes=6,
    seed=0,
    candidate_models=["LinearRegression", "DecisionTree"],
)

N_SHARDS = 2
N_CLIENTS = 2
WINDOW = 32
MIN_DIM, MAX_DIM = 64, 4096
#: Requests per trial (full, quick).
STREAM_SIZES = {
    "unique_stream": (6000, 256),
    "hot_stream": (24000, 512),
    "single_call": (3000, 192),
    # No request stream of its own: a fresh uniform one checks the installed
    # bundle's plans, gives their mean speedup and feeds the traced run's
    # request-path probes.
    "install_cold": (6000, 192),
}
#: Requests between two calibration gaps: a few tens of milliseconds of work,
#: short enough that the host speed of the gaps is the host speed of the work.
CHUNK = {"unique_stream": 4 * WINDOW, "hot_stream": 16 * WINDOW, "single_call": WINDOW}
HOT_POOL = 32
HOT_WARM = 2048
#: The hot pool is drawn from this constant, not from ``--seed``: Zipf puts
#: a quarter of the traffic on one shape, so a seed-drawn pool would make
#: ``speedup_mean`` and the two shards' balance properties of the seed
#: instead of the code.  ``--seed`` drives the order of the draws.
HOT_POOL_SEED = 20240611
WARMUP_SEED = 7
ORACLE_SAMPLE = 256
RESULT_TIMEOUT = 60.0
PLAN_FIELDS = ("routine", "threads", "predicted_time", "baseline_time", "policy")


# -- the spin unit -----------------------------------------------------------------
#: Kernel executions per calibration gap between two chunks of work.
GAP_TICKS = 2
#: Seconds between kernel executions inside a long call (``Spin.during``).
SAMPLER_PERIOD = 0.04

_SPIN_ARRAY = np.linspace(0.5, 2.0, 2000)
_SPIN_ROW = np.linspace(0.5, 2.0, 24)
_SPIN_HEAP = np.arange(1 << 20, dtype=np.float64)  # 8 MB: larger than the caches
_SPIN_PICKS = np.random.default_rng(0).integers(0, 1 << 20, size=60000)
_SPIN_OBJECTS = [{"i": i, "v": float(i)} for i in range(20000)]


def _spin_kernel() -> float:
    """The frozen calibration kernel — never edit, every result divides by it.

    About 4 ms in three parts, because a host slowdown does not hit all code
    alike and the planner is a mix: (1) interpreter arithmetic and dict
    stores plus ufuncs on a cache-resident array; (2) what a plan is made
    of — dicts with tuple keys, many NumPy calls on tiny arrays, object
    churn; (3) a large footprint — a random gather over 8 MB and a walk over
    20 000 heap objects.  Over ten minutes of natural host noise the
    three-part kernel tracked ``AdsalaRuntime.plan`` with a coefficient of
    variation of 1.6 % over 20 s windows; part (1) alone, 2.9 %.
    """
    acc = 0
    table: Dict[int, int] = {}
    for i in range(15000):
        acc = (acc + i * i) & 0xFFFF
        table[i & 255] = acc
    for _ in range(100):
        np.log1p(_SPIN_ARRAY) * _SPIN_ARRAY

    memo = {}
    total = float(acc)
    for i in range(220):
        dims = {"m": 64 + i, "n": 128 + (i * 7) % 512, "k": 256 + (i * 13) % 1024}
        key = ("dgemm", tuple(sorted(dims.items())))
        row = np.array([dims["m"], dims["n"], dims["k"], dims["m"] * dims["n"]], dtype=np.float64)
        times = np.exp(-(np.log1p(row)[:, None] * _SPIN_ROW[None, :]).sum(axis=0) * 1e-3)
        best = int(np.argmin(times))
        memo[key] = (best, float(times[best]))
        total += memo[key][1]

    total += float(np.take(_SPIN_HEAP, _SPIN_PICKS).sum())
    for item in _SPIN_OBJECTS:
        total += item["v"]
    return total


class Spin:
    """Runs the calibration kernel and keeps every duration for the host fingerprint."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def tick(self) -> float:
        """Seconds of one kernel execution."""
        start = time.perf_counter()
        _spin_kernel()
        duration = time.perf_counter() - start
        self.samples.append(duration)
        return duration

    def gap(self) -> float:
        """The calibration between two chunks of work: mean of ``GAP_TICKS`` executions."""
        return sum(self.tick() for _ in range(GAP_TICKS)) / GAP_TICKS

    @contextlib.contextmanager
    def during(self) -> Iterator[Dict[str, float]]:
        """Calibrate *inside* one long single-threaded call.

        A call that cannot be cut into chunks (an installation) is sampled
        instead: an interval timer runs the kernel on the main thread every
        ``SAMPLER_PERIOD`` seconds.  On exit the yielded record holds
        ``work_s``, the call's own seconds with the kernel's taken out, and
        ``spins``, every stretch between two executions divided by their
        mean.  Main thread only; the wrapped call must not use ``SIGALRM``.
        """
        marks: List[tuple] = []

        def tick(*_signal_args) -> None:
            start = time.perf_counter()
            self.tick()
            marks.append((start, time.perf_counter()))

        record: Dict[str, float] = {}
        tick()
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLER_PERIOD, SAMPLER_PERIOD)
        try:
            yield record
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            tick()
            work_s = spins = 0.0
            for (start0, end0), (start1, end1) in zip(marks, marks[1:]):
                work_s += start1 - end0
                spins += (start1 - end0) / (((end0 - start0) + (end1 - start1)) / 2)
            record.update(work_s=work_s, spins=spins)


# -- small statistics ---------------------------------------------------------------
def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of ``values`` (quartiles as the driver takes them)."""
    q1, median, q3 = quartiles([float(v) for v in values])
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(sorted_values: Sequence[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


# -- bundle cache -------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """Digest of the library source and the install literals.

    Keys the bundle cache, so a checkout whose ``src/`` changed re-installs
    instead of serving a stale pickle.
    """
    digest = hashlib.sha256(repr((INSTALL, QUICK_INSTALL, ROUTINES)).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def install_once(quick: bool):
    """One full installation with the benchmark's literals."""
    if quick:
        return install_adsala(get_platform(PLATFORM), routines=QUICK_ROUTINES, **QUICK_INSTALL)
    return install_adsala(get_platform(PLATFORM), routines=ROUTINES, **INSTALL)


def ensure_bundle(quick: bool) -> Path:
    """The bundle directory the serving workloads load (built once per source tree)."""
    directory = CACHE / f"{source_digest()}-{'quick' if quick else 'full'}" / "bundle"
    if not (directory / "bundle.json").exists():
        directory.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(dir=directory.parent))
        save_bundle(install_once(quick), staging)
        shutil.rmtree(directory, ignore_errors=True)
        os.replace(staging, directory)
    return directory


# -- request streams ----------------------------------------------------------------
def stream_seed(seed: int, workload: str) -> int:
    return seed * 8 + WORKLOADS.index(workload)


def fresh_requests(routines: Sequence[str], n: int, seed: int) -> List[WorkloadRequest]:
    """``n`` never-repeating uniform requests (dims 64-4096)."""
    seen = set()
    requests: List[WorkloadRequest] = []
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


def hot_requests(routines: Sequence[str], n: int, seed: int) -> List[WorkloadRequest]:
    """``n`` Zipf draws over the fixed pool of ``HOT_POOL`` shapes."""
    pool = fresh_requests(routines, HOT_POOL, HOT_POOL_SEED)
    weights = 1.0 / np.arange(1, HOT_POOL + 1)
    weights /= weights.sum()
    choices = np.random.default_rng(seed).choice(HOT_POOL, size=n, p=weights)
    return [pool[int(c)] for c in choices]


def build_stream(workload: str, seed: int, routines: Sequence[str], quick: bool):
    """The seeded request stream of one workload."""
    n = STREAM_SIZES[workload][1 if quick else 0]
    make = hot_requests if workload == "hot_stream" else fresh_requests
    return make(routines, n, stream_seed(seed, workload))


def warmup_requests(routines: Sequence[str]) -> List[WorkloadRequest]:
    """Sixteen shapes per routine: enough to touch every routine on every shard."""
    return fresh_requests(routines, 16 * len(routines), WARMUP_SEED)


# -- correctness gate ---------------------------------------------------------------
def plan_key(plan) -> Optional[tuple]:
    if plan is None:
        return None
    return tuple(getattr(plan, name) for name in PLAN_FIELDS)


def replay_plans(bundle_dir: Path, requests: Sequence[WorkloadRequest]) -> list:
    """Sequential single-engine replay: the plans every trial's must equal."""
    engine = ServingEngine(load_bundle(bundle_dir))
    return engine.plan_many([request.as_tuple() for request in requests])


def mean_speedup(plans) -> float:
    """Mean ``baseline_time / predicted_time`` of the plans that resolved."""
    return statistics.fmean(plan.estimated_speedup for plan in plans if plan is not None)


def count_mismatches(expected: Sequence[tuple], got: Sequence[Optional[tuple]]) -> int:
    """Plans that are missing or differ in any of ``PLAN_FIELDS``."""
    wrong = sum(1 for want, have in zip(expected, got) if want != have)
    return wrong + abs(len(expected) - len(got))


def oracle_check(bundle_dir: Path, requests, expected: Sequence[tuple]) -> Dict[str, object]:
    """Thread counts of a sample against the object-graph reference path."""
    try:
        from repro.core.compiled import reference_mode
    except ImportError:
        return {"sampled": 0, "mismatches": 0, "missing": "repro.core.compiled.reference_mode"}
    step = max(1, len(requests) // ORACLE_SAMPLE)
    picked = list(range(0, len(requests), step))[:ORACLE_SAMPLE]
    engine = ServingEngine(load_bundle(bundle_dir))
    with reference_mode():
        plans = engine.plan_many([requests[i].as_tuple() for i in picked])
    threads_at = PLAN_FIELDS.index("threads")
    wrong = sum(
        1 for i, plan in zip(picked, plans) if plan.threads != expected[i][threads_at]
    )
    return {"sampled": len(picked), "mismatches": wrong}


def gate_self_test(expected: Sequence[tuple]) -> bool:
    """Perturb one plan and confirm the gate counts exactly that one."""
    perturbed = list(expected)
    threads_at = PLAN_FIELDS.index("threads")
    plan = list(perturbed[0])
    plan[threads_at] += 1
    perturbed[0] = tuple(plan)
    return count_mismatches(expected, perturbed) == 1 and count_mismatches(expected, expected) == 0


# -- client loops -------------------------------------------------------------------
def _chunk(ops: int, wall_s: float, spin_s: float, latencies: List[float]) -> dict:
    """One stretch of work between two calibration gaps, in seconds and in spins."""
    latencies.sort()
    return {
        "ops": ops,
        "wall_s": wall_s,
        "spin_s": spin_s,
        "latency_p50_s": latencies[len(latencies) // 2] if latencies else wall_s,
        "latency_spins": [latency / spin_s for latency in latencies],
    }


def _client(frontend, chunks, barrier, out: dict, tracer) -> None:
    """One closed-loop client: per chunk, submit a window, resolve it, repeat."""
    plans: list = []
    errors: List[str] = []
    latencies: List[List[float]] = []
    clock = time.perf_counter
    for batch_id, requests in enumerate(chunks):
        mine: List[float] = []
        barrier.wait(RESULT_TIMEOUT)
        for start in range(0, len(requests), WINDOW):
            pending = []
            for request in requests[start : start + WINDOW]:
                begun = clock()
                try:
                    future = frontend.submit(request.routine, **request.dims)
                except Exception as exc:  # a refused request is a failed operation
                    errors.append(repr(exc))
                    future = None
                if tracer is not None:
                    tracer.add("client.submit", begun, clock(), batch_id=batch_id)
                pending.append((begun, future))
            for begun, future in pending:
                if future is None:
                    plans.append(None)
                    continue
                waiting = clock() if tracer is not None else 0.0
                try:
                    plans.append(future.result(RESULT_TIMEOUT))
                except Exception as exc:  # shed, timed out or lost: failed
                    errors.append(repr(exc))
                    plans.append(None)
                    continue
                done = clock()
                mine.append(done - begun)
                if tracer is not None:
                    tracer.add("client.resolve_wait", waiting, done, batch_id=batch_id)
        latencies.append(mine)
        barrier.wait(2 * RESULT_TIMEOUT)
    out.update(plans=plans, errors=errors, latencies=latencies)


def run_clients(frontend, requests, chunk_size: int, spin: Spin, tracer=None) -> Dict[str, object]:
    """Drive ``requests`` through ``frontend`` with ``N_CLIENTS`` closed-loop clients.

    The clients stop at a barrier after every ``chunk_size`` requests while
    this thread takes a calibration gap, so each chunk is divided by the
    mean of the gaps on either side of it.
    """
    per_client = chunk_size // N_CLIENTS
    shares = [requests[i::N_CLIENTS] for i in range(N_CLIENTS)]
    chunked = [
        [share[k : k + per_client] for k in range(0, len(share), per_client)] for share in shares
    ]
    n_chunks = max(len(c) for c in chunked)
    for chunks in chunked:  # an uneven split leaves the shorter client an empty last chunk
        chunks.extend([] for _ in range(n_chunks - len(chunks)))
    barrier = threading.Barrier(N_CLIENTS + 1)
    outs: List[dict] = [dict() for _ in range(N_CLIENTS)]
    threads = [
        threading.Thread(target=_client, args=(frontend, chunked[i], barrier, outs[i], tracer))
        for i in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    walls, gaps = [], [spin.gap()]
    for _ in range(n_chunks):
        barrier.wait(RESULT_TIMEOUT)
        start = time.perf_counter()
        barrier.wait(2 * RESULT_TIMEOUT)
        walls.append(time.perf_counter() - start)
        gaps.append(spin.gap())
    for thread in threads:
        thread.join()
    plans: list = [None] * len(requests)
    for i, out in enumerate(outs):
        plans[i::N_CLIENTS] = out["plans"]
    chunks = []
    for k, wall in enumerate(walls):
        latencies = [latency for out in outs for latency in out["latencies"][k]]
        chunks.append(_chunk(len(latencies), wall, (gaps[k] + gaps[k + 1]) / 2, latencies))
    return {"chunks": chunks, "plans": plans, "errors": [e for out in outs for e in out["errors"]]}


# -- trials -------------------------------------------------------------------------
class Workload:
    """One workload's inputs, built once per run and shared by its trials."""

    def __init__(self, name: str, seed: int, quick: bool):
        self.name = name
        self.seed = seed
        self.quick = quick
        self.bundle_dir = ensure_bundle(quick)
        self.routines = QUICK_ROUTINES if quick else ROUTINES
        self.requests = build_stream(name, seed, self.routines, quick)
        self.warmup = warmup_requests(self.routines)
        self.expected = [plan_key(plan) for plan in replay_plans(self.bundle_dir, self.requests)]
        self.stream_seed = stream_seed(seed, name)

    @property
    def clients(self) -> int:
        return N_CLIENTS if self.name in ("unique_stream", "hot_stream") else 1

    @property
    def loop(self) -> str:
        if self.clients > 1:
            return f"closed loop, {self.clients} clients x {WINDOW} outstanding"
        return "closed loop, 1 client"

    def trial(self, spin: Spin, tracer=None) -> Dict[str, object]:
        """Run one trial: its chunks, set-up seconds, failures and the objects' own counters."""
        run = {
            "unique_stream": self._stream_trial,
            "hot_stream": self._stream_trial,
            "single_call": self._single_trial,
            "install_cold": self._install_trial,
        }[self.name]
        return run(spin, tracer)

    def _serving_trial(self, setup_s: float, chunks, plans, errors, stats) -> dict:
        """Apply the gate to a serving trial's plans."""
        return {
            "setup_s": setup_s,
            "chunks": chunks,
            "attempted": len(self.requests),
            "failed": count_mismatches(self.expected, [plan_key(plan) for plan in plans]),
            "errors": errors[:5],
            "speedup_mean": mean_speedup(plans),
            "stats": stats,
        }

    def _stream_trial(self, spin: Spin, tracer) -> dict:
        begun = time.perf_counter()
        frontend = ShardedFrontend.from_directory(self.bundle_dir, n_shards=N_SHARDS)
        try:
            for request in self.warmup:
                frontend.plan(request.routine, **request.dims)
            setup_s = time.perf_counter() - begun
            chunk_size = CHUNK[self.name]
            if self.name == "hot_stream":  # off-clock pass: the caches answer the timed one
                run_clients(frontend, self.requests[:HOT_WARM], HOT_WARM, Spin())
            run = run_clients(frontend, self.requests, chunk_size, spin, tracer)
            stats = frontend.stats()
        finally:
            frontend.close()
        return self._serving_trial(setup_s, run["chunks"], run["plans"], run["errors"], stats)

    def _single_trial(self, spin: Spin, tracer) -> dict:
        begun = time.perf_counter()
        runtime = AdsalaRuntime(load_bundle(self.bundle_dir))
        for request in self.warmup:
            runtime.plan(request.routine, **request.dims)
        setup_s = time.perf_counter() - begun
        clock = time.perf_counter
        plans: list = []
        errors: List[str] = []
        chunks = []
        gap = spin.gap()
        for first in range(0, len(self.requests), CHUNK[self.name]):
            latencies: List[float] = []
            start = clock()
            for request in self.requests[first : first + CHUNK[self.name]]:
                called = clock()
                try:
                    plans.append(runtime.plan(request.routine, **request.dims))
                except Exception as exc:  # a raising plan() is a failed operation
                    errors.append(repr(exc))
                    plans.append(None)
                    continue
                done = clock()
                latencies.append(done - called)
                if tracer is not None:
                    tracer.add("core.runtime.plan", called, done, batch_id=first)
            wall = clock() - start
            after = spin.gap()
            chunks.append(_chunk(len(latencies), wall, (gap + after) / 2, latencies))
            gap = after
        return self._serving_trial(setup_s, chunks, plans, errors, runtime.serving_stats())

    def _install_trial(self, spin: Spin, tracer) -> dict:
        setup_s = import_seconds(self.routines)
        staging = Path(tempfile.mkdtemp(dir=OUT))
        try:
            start = time.perf_counter()
            with spin.during() as sampled:
                save_bundle(install_once(self.quick), staging)
            if tracer is not None:
                tracer.add("core.install.install_adsala+save_bundle", start, time.perf_counter())
            # The freshly installed bundle must plan exactly like the cached one.
            plans = replay_plans(staging, self.requests)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        bad = {want[0] for want, plan in zip(self.expected, plans) if want != plan_key(plan)}
        # One operation = one routine installed; the installation is one chunk
        # whose length in spins was summed stretch by stretch while it ran.
        ops = len(self.routines) - len(bad)
        work_s = sampled["work_s"]
        chunk = _chunk(ops, work_s, work_s / sampled["spins"], [work_s])
        return {
            "setup_s": setup_s,
            "chunks": [chunk],
            "attempted": len(self.routines),
            "failed": len(bad),
            "errors": sorted(bad),
            "speedup_mean": mean_speedup(plans),
            "stats": None,
        }


def import_seconds(routines: Sequence[str]) -> float:
    """Fresh-subprocess ``import repro`` + platform + catalog resolution."""
    code = (
        "import repro\n"
        "from repro.blas.api import parse_routine\n"
        f"repro.get_platform({PLATFORM!r})\n"
        f"[parse_routine(r) for r in {list(routines)!r}]\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
    return time.perf_counter() - start


def chunk_values(trials: Sequence[dict]) -> Dict[str, List[float]]:
    """Every chunk of ``trials`` as raw and normalised throughput and median latency."""
    chunks = [chunk for trial in trials for chunk in trial["chunks"]]
    return {
        "plans_per_s": [c["ops"] / c["wall_s"] for c in chunks],
        "latency_p50_s": [c["latency_p50_s"] for c in chunks],
        "plans_per_spin": [c["ops"] / c["wall_s"] * c["spin_s"] for c in chunks],
        "latency_p50_spins": [c["latency_p50_s"] / c["spin_s"] for c in chunks],
    }


def tail_latencies(trials: Sequence[dict]) -> Dict[str, float]:
    """p95 and p99 of every latency of ``trials``, each in the spins of its own chunk."""
    pooled = sorted(x for t in trials for chunk in t["chunks"] for x in chunk["latency_spins"])
    return {
        "latency_p95_spins": percentile(pooled, 0.95),
        "latency_p99_spins": percentile(pooled, 0.99),
        "samples": len(pooled),
    }


# -- one run ------------------------------------------------------------------------
#: An install trial is seconds long, so a run has few of them; its set-up
#: probe is topped up to this many samples before the median is taken.
MIN_SETUP_SAMPLES = 5


def gate(workload: Workload) -> Dict[str, object]:
    """The run-level half of the correctness gate (trials apply the other half)."""
    oracle = oracle_check(workload.bundle_dir, workload.requests, workload.expected)
    return {"self_test_trips": gate_self_test(workload.expected), "oracle": oracle}


def end_to_end(workload: Workload, trials: Sequence[dict]) -> Dict[str, dict]:
    """The end-to-end metrics of a run: medians over every chunk of every trial."""
    samples = chunk_values(trials)
    samples["speedup_mean"] = [t["speedup_mean"] for t in trials]
    samples["setup_s"] = [t["setup_s"] for t in trials]
    while workload.name == "install_cold" and not workload.quick and (
        len(samples["setup_s"]) < MIN_SETUP_SAMPLES
    ):
        samples["setup_s"].append(import_seconds(workload.routines))
    return {
        metric: dict(summary(samples[metric]), unit=entry["unit"])
        for metric, entry in END_TO_END.items()
    }


def _trial_row(trial: dict) -> dict:
    """One trial in the result file: medians over its chunks, raw and in spins."""
    values = {key: statistics.median(column) for key, column in chunk_values([trial]).items()}
    return {
        "spin_s": statistics.median(c["spin_s"] for c in trial["chunks"]),
        "chunks": len(trial["chunks"]),
        "raw": {
            "wall_s": sum(c["wall_s"] for c in trial["chunks"]),
            "plans_per_s": values["plans_per_s"],
            "latency_p50_s": values["latency_p50_s"],
            "setup_s": trial["setup_s"],
        },
        "normalised": {
            "plans_per_spin": values["plans_per_spin"],
            "latency_p50_spins": values["latency_p50_spins"],
            "speedup_mean": trial["speedup_mean"],
            "setup_s": trial["setup_s"],
        },
    }


def record(workload: Workload, trials: List[dict], checks: dict, metrics: dict) -> dict:
    """The per-workload block of the result file."""
    oracle = checks["oracle"]
    attempted = sum(t["attempted"] for t in trials) + oracle["sampled"]
    failed = sum(t["failed"] for t in trials) + oracle["mismatches"]
    if not checks["self_test_trips"]:
        failed += 1
    return {
        "loop": workload.loop,
        "clients": workload.clients,
        "stream_seed": workload.stream_seed,
        "requests_per_trial": trials[0]["attempted"],
        "attempted": attempted,
        "succeeded": attempted - failed,
        "failed": failed,
        "failed_share": failed / attempted,
        "trials": len(trials),
        "gate": checks,
        "errors": [error for t in trials for error in t["errors"]][:10],
        "per_trial": [_trial_row(t) for t in trials],
        # Reported, not gated: run to run the tails spread several times wider than the medians.
        "tails": tail_latencies(trials),
        "metrics": metrics,
    }


def measure(name: str, seed: int, seconds: float, quick: bool) -> dict:
    """The untraced run: repeat the workload's trial for ``seconds``."""
    spin = Spin()
    workload = Workload(name, seed, quick)
    checks = gate(workload)
    trials = []
    started = time.perf_counter()
    while True:
        trials.append(workload.trial(spin))
        if quick or time.perf_counter() - started >= seconds:
            break
    return record(workload, trials, checks, end_to_end(workload, trials))


def git_sha() -> Optional[str]:
    """HEAD of the checkout, or None where the checkout is not a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None
