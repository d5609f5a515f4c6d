"""The repo's end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py --seed 17                 # every workload
    python3 benchmarks/e2e/run.py --workload hot_stream --seed 17 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 17 --trace 1       # per-layer attribution
    python3 benchmarks/e2e/run.py --quick                   # seconds-long smoke run

Prints every metric by name and unit, checks every plan against a
sequential replay and an oracle sample, writes ``<out>/result-<seed>*.json``
(and ``<out>/trace-<seed>*.json`` when tracing) and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero when any
operation failed the correctness gate.  README.md explains the design.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import spec


def pin_environment() -> None:
    """Library defaults everywhere; everything the run writes inside the checkout.

    BLAS is held to one thread: the planner's own arrays are small, and on a
    two-core box OpenBLAS's second thread made an installation half again as
    slow and bimodal.  Must run before NumPy is imported.
    """
    for name in list(os.environ):
        if name.startswith("ADSALA_"):
            del os.environ[name]
    os.environ["ADSALA_NATIVE_CACHE"] = str(spec.OUT / "cache" / "native")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    scratch = spec.OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    pin_allocator()


#: glibc ``mallopt`` parameters and the values the benchmark holds them at.
_M_TRIM_THRESHOLD, _M_TOP_PAD, _M_MMAP_THRESHOLD = -1, -2, -3
_HEAP_KEEP = 1 << 30
_HEAP_STEP = 64 << 20
#: The largest mmap threshold every glibc accepts.
_MMAP_ABOVE = 32 << 20
#: An installation grows the heap by some 90 MB.
_HEAP_TOUCH = 128 << 20


def pin_allocator() -> None:
    """Make glibc malloc keep the memory it is given back.

    By default every NumPy temporary above 128 KB is a fresh ``mmap`` whose
    pages fault in one by one; here only one above 32 MB is, the highest
    threshold glibc allows.  On the virtual machine this was built on a
    minor fault costs 10-45 us and the price moves with the host's memory
    pressure, which nothing the benchmark can run beside the work tracks:
    one installation took 45 000-69 000 faults and 0.5-3.0 s of system time,
    and its duration in spins spread 1272-1728; with the heap held it takes
    a few hundred faults and read 1252-1297.  Children inherit the setting
    through the environment; this process takes it through ``mallopt``.
    """
    os.environ["MALLOC_TRIM_THRESHOLD_"] = str(_HEAP_KEEP)
    os.environ["MALLOC_MMAP_THRESHOLD_"] = str(_MMAP_ABOVE)
    os.environ["MALLOC_TOP_PAD_"] = str(_HEAP_STEP)
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc: the faults stay in the numbers
        return
    mallopt(_M_TRIM_THRESHOLD, _HEAP_KEEP)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_ABOVE)
    mallopt(_M_TOP_PAD, _HEAP_STEP)
    # Touch the heap's pages once, off the clock, in blocks malloc takes from it.
    block = _MMAP_ABOVE // 2
    blocks = [b"\1" * block for _ in range(_HEAP_TOUCH // block)]
    del blocks


def process_table() -> Dict[int, Tuple[str, int]]:
    """``{pid: (state, parent pid)}`` of every process, read from ``/proc``."""
    table = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:  # the fields after the parenthesised command: state, ppid, ...
                state, parent = (entry / "stat").read_text().rpartition(")")[2].split()[:2]
            except (OSError, ValueError):  # ended while we were reading
                continue
            table[int(entry.name)] = (state, int(parent))
    return table


def descendants(table: Dict[int, Tuple[str, int]], root: int) -> List[int]:
    """Every process of ``table`` below ``root``."""
    found, frontier = [], [root]
    while frontier:
        frontier = [pid for pid, (_, parent) in table.items() if parent in frontier]
        found.extend(frontier)
    return found


def stop_children(patience_s: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Called on every path out of the run.  Three kinds of child exist: the
    subprocesses the probes start (waited for where they are started), the
    spawned workers of the process shard backend (joined by
    ``ShardedFrontend.close``), and ``multiprocessing``'s resource tracker,
    which the shared-memory export starts on the side and which nothing
    waits for: it outlived the run by a moment and was left to whoever
    adopted it.  The tracker is stopped the way the interpreter stops it;
    whatever else an exception left behind is terminated, then killed.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        try:
            tracker._resource_tracker._stop()  # closes its pipe, then waitpid
        except (AttributeError, OSError):
            pass  # not that interpreter, or already gone: the sweep below finds it
    me = os.getpid()
    started: set = set()  # kept by pid: a grandchild is orphaned when its parent ends first
    for sig in (signal.SIGTERM, signal.SIGKILL):
        deadline = time.monotonic() + patience_s
        signalled = False
        while True:
            try:  # reap our own children so that none stays behind as a zombie
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                pass
            table = process_table()
            started.update(descendants(table, me))
            left = [
                pid for pid in started
                if pid in table and (table[pid][0] != "Z" or table[pid][1] == me)
            ]
            if not left:
                return
            if not signalled:
                for pid in left:
                    try:
                        os.kill(pid, sig)
                    except OSError:
                        pass
                signalled = True
            if time.monotonic() >= deadline:
                break
            time.sleep(0.01)


def host_fingerprint() -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def print_workload(name: str, result: dict) -> None:
    print(f"\n== {name} — {result['loop']}; {result['trials']} trials of "
          f"{result['requests_per_trial']} operations; failed {result['failed']}/{result['attempted']}")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        spread = f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n {entry['n']}]" if "q1" in entry else ""
        note = f"  missing: {entry['missing']}" if "missing" in entry else ""
        print(f"  {metric:<42} {shown:>12} {entry['unit']}{spread}{note}")
    if result.get("attribution"):
        print("  attribution of one AdsalaRuntime.plan() call on this stream:")
        for row in result["attribution"]:
            print(f"    {row['stage']:<36} {row['us']:>9.2f} us {100 * row['share']:>6.1f} %")


def last_line(results: Dict[str, dict]) -> dict:
    """The contract's final JSON object (metrics prefixed only when several workloads ran)."""
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            key = metric if len(results) == 1 else f"{name}/{metric}"
            metrics[key] = {k: entry[k] for k in ("value", "unit", "missing") if k in entry}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=float(spec.SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--quick", action="store_true", help="one short trial per workload on a small install")
    parser.add_argument("--out", type=Path, default=spec.OUT, help="directory for the result and trace files")
    args = parser.parse_args(argv)

    pin_environment()
    import harness  # after the pinning: NumPy reads the BLAS thread count when it loads
    import layers

    names = spec.WORKLOADS if args.workload == "all" else [args.workload]
    tracer = layers.Tracer()
    results = {}
    for name in names:
        if args.trace:
            results[name] = layers.measure(name, args.seed, args.seconds, args.quick, tracer)
        else:
            results[name] = harness.measure(name, args.seed, args.seconds, args.quick)
        print_workload(name, results[name])

    suffix = f"{args.seed}" + ("" if args.workload == "all" else f"-{args.workload}")
    document = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "git_sha": harness.git_sha(),
        "src_digest": harness.source_digest(),
        "host": host_fingerprint(),
        "protocol": {
            "platform": harness.PLATFORM,
            "routines": harness.QUICK_ROUTINES if args.quick else harness.ROUTINES,
            "install": harness.QUICK_INSTALL if args.quick else harness.INSTALL,
            "shards": harness.N_SHARDS,
            "blas_threads": 1,
        },
        "workloads": results,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    kind = "trace-result" if args.trace else "result"
    (args.out / f"{kind}-{suffix}.json").write_text(json.dumps(document, indent=1) + "\n")
    if args.trace:
        (args.out / f"trace-{suffix}.json").write_text(json.dumps(tracer.as_rows()) + "\n")
    final = last_line(results)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_children()
    sys.exit(status)
