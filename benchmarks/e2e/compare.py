"""Compare two sets of benchmark runs under the bounds of ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A B
    python3 benchmarks/e2e/compare.py --collect DIR trajectory/BENCH_<n>.json

``A`` (the parent) and ``B`` (the change) are each a directory of
``result-*.json`` files written by ``run.py --out``, a trajectory file
written by ``--collect``, or one result file.  A directory or a trajectory
contributes one sample per run (the run's median); a single result file
contributes one sample per trial.  One row per (workload, end-to-end
metric): both medians and quartiles, the change in the metric's worse
direction as a share of A's median, and a verdict:

* ``unresolved`` — the quartile spread of either side is wider than the
  metric's bound (unless every sample of B beats every sample of A);
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than the wider spread;
* ``within bound`` — otherwise.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

from spec import END_TO_END

Samples = Dict[str, Dict[str, List[float]]]


def _result_files(directory: Path) -> List[Path]:
    return sorted(directory.glob("result-*.json"))


def load(path: Path) -> Samples:
    """``{workload: {metric: [samples]}}`` of a directory, a trajectory or a result file."""
    samples: Samples = {}
    if path.is_dir():
        for file in _result_files(path):
            for name, block in json.loads(file.read_text())["workloads"].items():
                for metric in END_TO_END:
                    value = block["metrics"][metric]["value"]
                    samples.setdefault(name, {}).setdefault(metric, []).append(value)
        if not samples:
            raise SystemExit(f"{path}: no result-*.json files")
        return samples
    document = json.loads(path.read_text())
    for name, block in document["workloads"].items():
        for metric in END_TO_END:
            if document.get("kind") == "trajectory":
                values = block["metrics"][metric]["runs"]
            else:
                values = [trial["normalised"][metric] for trial in block["per_trial"]]
            samples.setdefault(name, {})[metric] = list(values)
    return samples


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Dict[str, object]:
    """Judge samples ``b`` against ``a`` for a metric whose good direction is ``better``."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse_by = sign * (b_med - a_med) / abs(a_med)
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med))
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    if spread > bound and not all_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif all_better or -worse_by > spread:
        word = "better"
    else:
        word = "within bound"
    return {
        "a": (a_q1, a_med, a_q3, len(a)),
        "b": (b_q1, b_med, b_q3, len(b)),
        "worse_by": worse_by,
        "spread": spread,
        "verdict": word,
    }


def compare(a: Samples, b: Samples) -> List[dict]:
    rows = []
    for name in a:
        for metric, entry in END_TO_END.items():
            if name not in b:
                continue
            row = verdict(a[name][metric], b[name][metric], entry["better"], entry["bound"])
            rows.append(dict(row, workload=name, metric=metric, bound=entry["bound"]))
    return rows


def print_rows(rows: List[dict]) -> None:
    print(f"{'workload':<14} {'metric':<18} {'A median [q1, q3] n':<38} {'B median [q1, q3] n':<38} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        sides = [
            f"{med:.5g} [{q1:.5g}, {q3:.5g}] {n}" for q1, med, q3, n in (row["a"], row["b"])
        ]
        print(f"{row['workload']:<14} {row['metric']:<18} {sides[0]:<38} {sides[1]:<38} "
              f"{100 * row['worse_by']:>8.1f}% {100 * row['spread']:>6.1f}% {100 * row['bound']:>5.0f}%  "
              f"{row['verdict']}")


def collect(directory: Path) -> dict:
    """One trajectory point from a directory of runs: per-run values and their quartiles."""
    files = _result_files(directory)
    if not files:
        raise SystemExit(f"{directory}: no result-*.json files")
    documents = [json.loads(file.read_text()) for file in files]
    first = documents[0]
    workloads: Dict[str, dict] = {}
    for document in documents:
        for name, block in document["workloads"].items():
            point = workloads.setdefault(
                name,
                {"loop": block["loop"], "clients": block["clients"], "attempted": 0, "failed": 0,
                 "seeds": [], "metrics": {}},
            )
            point["attempted"] += block["attempted"]
            point["failed"] += block["failed"]
            point["seeds"].append(document["seed"])
            for metric, entry in END_TO_END.items():
                slot = point["metrics"].setdefault(metric, {"unit": entry["unit"], "runs": []})
                slot["runs"].append(block["metrics"][metric]["value"])
    for point in workloads.values():
        for slot in point["metrics"].values():
            q1, median, q3 = quartiles(slot["runs"])
            slot.update(value=median, q1=q1, q3=q3, n=len(slot["runs"]))
    per_layer = {}
    for file in sorted(directory.glob("trace-result-*.json")):
        for name, block in json.loads(file.read_text())["workloads"].items():
            per_layer.setdefault(name, {k: v["value"] for k, v in block["metrics"].items()})
    return {
        "schema": 1,
        "kind": "trajectory",
        "git_sha": first["git_sha"],
        "src_digest": first["src_digest"],
        "host": first["host"],
        "protocol": first["protocol"],
        "seconds": first["seconds"],
        "workloads": workloads,
        "per_layer": per_layer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="parent runs (or, with --collect, the directory to collect)")
    parser.add_argument("b", type=Path, help="the change's runs (or, with --collect, the file to write)")
    parser.add_argument("--collect", action="store_true", help="write one trajectory point instead of comparing")
    args = parser.parse_args(argv)
    if args.collect:
        args.b.parent.mkdir(parents=True, exist_ok=True)
        args.b.write_text(json.dumps(collect(args.a), indent=1) + "\n")
        return 0
    rows = compare(load(args.a), load(args.b))
    print_rows(rows)
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
