"""Smoke test of the end-to-end benchmark: ``run.py --quick``, untraced and traced.

Checks the shape of what the benchmark emits, never a timing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from spec import END_TO_END, PER_LAYER, SPEC, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_quick(out: Path, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(RUN), "--quick", "--seed", "5", "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    kind = "trace-result" if trace else "result"
    return json.loads(done.stdout.splitlines()[-1]), json.loads((out / f"{kind}-5.json").read_text())


def test_declared_names_fit_the_contract():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(SPEC["workloads"]) + len(SPEC["end_to_end"]) + len(SPEC["per_layer"])
    for name in names:
        assert NAME.fullmatch(name), name
    assert END_TO_END["setup_s"]["unit"] == "s" and END_TO_END["setup_s"]["better"] == "lower"


def test_untraced_quick_run_emits_every_end_to_end_metric(tmp_path):
    final, document = run_quick(tmp_path, trace=0)
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    assert set(final["metrics"]) == {f"{w}/{m}" for w in WORKLOADS for m in END_TO_END}
    for key, entry in final["metrics"].items():
        assert isinstance(entry["value"], float) and entry["value"] > 0, key
        assert entry["unit"] == END_TO_END[key.split("/")[1]]["unit"]
    for name, block in document["workloads"].items():
        assert block["gate"]["self_test_trips"] is True, name
        oracle = block["gate"]["oracle"]
        assert oracle["mismatches"] == 0 and (oracle["sampled"] > 0 or oracle.get("missing"))
        assert block["attempted"] == block["succeeded"] + block["failed"]
        assert block["loop"].startswith("closed loop") and block["clients"] in (1, 2)
        assert len(block["per_trial"]) == block["trials"] >= 1


def test_traced_quick_run_emits_every_per_layer_metric(tmp_path):
    final, _ = run_quick(tmp_path, trace=1)
    assert final["correct"] is True
    assert set(final["metrics"]) == {f"{w}/{m}" for w in WORKLOADS for m in PER_LAYER}
    for key, entry in final["metrics"].items():
        if entry["value"] is None:  # a probe may be null only when it names what is missing
            assert entry.get("missing"), key
    spans = json.loads((tmp_path / "trace-5.json").read_text())
    assert spans and set(spans[0]) == {"id", "parent", "name", "batch_id", "start", "end"}


@pytest.mark.parametrize(
    "b, expected",
    [
        ([10.0, 10.1, 10.2, 10.3], "within bound"),
        ([13.0, 13.1, 13.2, 13.3], "worse"),
        ([7.0, 7.1, 7.2, 7.3], "better"),
        ([8.0, 10.0, 12.0, 14.0], "unresolved"),
    ],
)
def test_compare_verdicts(b, expected):
    a = [10.0, 10.1, 10.2, 10.3]
    assert compare.verdict(a, b, "lower", 0.15)["verdict"] == expected
