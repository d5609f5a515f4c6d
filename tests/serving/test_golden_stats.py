"""Golden differential test for the merged ``stats()`` snapshot and its scrape.

``golden/frontend_stats.json`` and ``golden/frontend_metrics.prom`` were
recorded from the commit *before* the snapshot format moved behind
:mod:`repro.obs.schema` (PR 16's tree), by running this file as a script
against that tree::

    PYTHONPATH=<parent checkout>/src python tests/serving/test_golden_stats.py

The timing-memo row counts (``timing.misses`` / ``timing.size`` and their
two series) were re-recorded three times: 16 -> 14 when installs began
fitting log-runtime (more of the scenario's plans chose max threads, whose
chosen and baseline rows coincide), 14 -> 16 when a tied predicted minimum
began planning the middle of its run instead of its fewest threads (two
more distinct chosen rows), and 16 -> 17 when installs began fitting each
shape's speedup curve (one more).  The fourth re-record, ``timing.hits``
92 -> 86 (misses and size stay 17), came when the memo moved from planning
to the first read of a plan: a row is counted once per plan row that the
memo answers, so the six plans that chose max threads, whose predicted and
baseline fields are one row, no longer count a second hit for the
baseline.

The scenario is a seeded, strictly sequential 2-shard thread-backend
stream — observations, one fallback routine (``sgemm`` served by the
``dgemm`` model), deadline sheds and one injected ``kill`` — so every
counter is deterministic; what is not (clocks, pids, latency buckets,
recovery timings, the host's evaluate path) is masked on both sides.  The
snapshot must match key for key and the exposition line for line, apart
from the differences listed in ``PERMITTED``.
"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

from repro.core.install import install_adsala
from repro.core.persistence import save_bundle
from repro.machine.platforms import get_platform
from repro.obs.collectors import collect_serving_stats
from repro.obs.metrics import MetricsRegistry
from repro.routines.catalog import UnknownRoutineError
from repro.serving.faults import FaultInjector
from repro.serving.frontend import DeadlineExceededError, ShardedFrontend
from repro.serving.supervisor import RestartPolicy
from repro.serving.workload import generate_workload

GOLDEN = Path(__file__).parent / "golden"
VOLATILE = "<volatile>"

#: The only differences from the recorded parent, each a fix this PR made.
PERMITTED = {
    # Schema honesty: two engine keys the hand-written merge dropped.
    "added_top_level": {"drift_threshold": 0.25},
    "added_per_routine": ("traffic_records",),
    # One meaning for mean_batch_size (lifetime requests / batches), and a
    # help text that says so instead of "rolling window".
    "reworded_help": (
        "adsala_batch_size_mean",
        # Planning time / group size; since plans defer their simulator rows
        # it holds no simulator time, and the help text says so.
        "adsala_plan_latency_seconds",
        # The memo is consulted when a plan is read, not when it is planned.
        "adsala_timing_cache_hits_total",
        "adsala_timing_cache_misses_total",
    ),
}


def install(directory):
    bundle = install_adsala(
        platform=get_platform("laptop"),
        routines=["dgemm", "dsyrk"],
        n_samples=10,
        threads_per_shape=4,
        n_test_shapes=4,
        candidate_models=["LinearRegression", "DecisionTree"],
        seed=11,
    )
    return save_bundle(bundle, Path(directory) / "bundle", bundle_version=1)


def run_scenario(bundle_dir):
    """The seeded stream; returns ``(stats, prometheus_text)``."""
    frontend = ShardedFrontend.from_directory(
        bundle_dir,
        2,
        max_batch_size=8,
        injector=FaultInjector("kill:1", seed=5, horizon=12, warmup=4),
        restart_policy=RestartPolicy(backoff_base=0.0),
    )
    workload = generate_workload(
        ["dgemm", "dsyrk", "sgemm"], 72, distribution="cycling", seed=23, pool_size=9
    )
    # Exactly representable error samples (0, 0.5, 1), whatever the model
    # predicted: |o - p| / o for o = p, 2p, p / 2.
    factors = (1.0, 2.0, 0.5)
    with frontend:
        with pytest.raises(UnknownRoutineError):
            frontend.submit("qgemm", m=8, k=8, n=8)
        for index, request in enumerate(workload):
            if index % 8 == 7:
                future = frontend.submit(request.routine, timeout=1e-9, **request.dims)
                with pytest.raises(DeadlineExceededError):
                    future.result(30)
                continue
            plan = frontend.plan(request.routine, **request.dims)
            frontend.record_observation(plan, plan.predicted_time * factors[index % 3])
        stats = frontend.stats()
    registry = MetricsRegistry()
    collect_serving_stats(registry, stats)
    return stats, registry.render_prometheus()


def mask_stats(stats):
    stats = copy.deepcopy(stats)
    stats["wall_time"] = stats["monotonic_time"] = VOLATILE
    for row in stats["per_shard"]:
        row["pid"] = VOLATILE
    for entry in stats["routines"].values():
        entry["latency"]["counts"] = entry["latency"]["sum"] = VOLATILE
    for entry in stats["cache"]["routines"].values():
        assert entry["evaluate_path"] in ("native", "numpy")
        entry["evaluate_path"] = VOLATILE
    supervision = stats["supervision"]
    supervision["recovery_mean_s"] = supervision["recovery_max_s"] = VOLATILE
    for row in supervision["per_shard"]:
        for key in ("mean", "max", "last"):
            row["recovery"][key] = VOLATILE
    return stats


_VOLATILE_SERIES = re.compile(
    r"^(adsala_stats_wall_time_seconds|adsala_recovery_seconds_(mean|max)"
    r"|adsala_plan_latency_seconds_sum\{[^}]*\}"
    r'|adsala_plan_latency_seconds_bucket\{[^}]*le="[^+][^"]*"\}) '
)


def mask_exposition(text):
    lines = []
    for line in text.splitlines():
        match = _VOLATILE_SERIES.match(line)
        lines.append(match.group(0) + VOLATILE if match else line)
    return lines


class TestGoldenSnapshot:
    @pytest.fixture(scope="class")
    def scenario(self, tmp_path_factory):
        stats, text = run_scenario(install(tmp_path_factory.mktemp("golden")))
        return mask_stats(stats), mask_exposition(text)

    def test_scenario_exercises_every_path_it_names(self, scenario):
        stats, _ = scenario
        assert stats["routines"]["dgemm"]["fallback_plans"] > 0
        assert stats["rejected_unknown_routine"] == 1
        assert stats["reinstall_candidates"]
        assert stats["supervision"]["deadline_expired"] == 9
        assert stats["supervision"]["restarts"] == 1
        assert stats["supervision"]["injected"]["injected"] == {"kill": 1}
        assert all(entry["observations"] for entry in stats["routines"].values())

    def test_snapshot_matches_the_parent_key_for_key(self, scenario):
        stats = copy.deepcopy(scenario[0])
        golden = json.loads((GOLDEN / "frontend_stats.json").read_text())
        for key, value in PERMITTED["added_top_level"].items():
            assert key not in golden
            assert stats.pop(key) == value
        for entry in stats["routines"].values():
            for key in PERMITTED["added_per_routine"]:
                assert isinstance(entry.pop(key), int)
        # Through JSON, as the journal's run_end row and --json consumers see it.
        assert json.loads(json.dumps(stats)) == golden

    def test_exposition_matches_the_parent_line_for_line(self, scenario):
        _, lines = scenario
        golden = (GOLDEN / "frontend_metrics.prom").read_text().splitlines()
        reworded = tuple(
            f"# HELP {name} " for name in PERMITTED["reworded_help"]
        )
        assert len(lines) == len(golden)
        for ours, theirs in zip(lines, golden):
            if ours.startswith(reworded):
                assert theirs.startswith(reworded) and ours != theirs
            else:
                assert ours == theirs


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        recorded_stats, recorded_text = run_scenario(install(scratch))
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "frontend_stats.json").write_text(
        json.dumps(mask_stats(recorded_stats), indent=1, sort_keys=True) + "\n"
    )
    (GOLDEN / "frontend_metrics.prom").write_text(
        "\n".join(mask_exposition(recorded_text)) + "\n"
    )
    print(f"recorded {GOLDEN} from {sys.modules['repro'].__file__}")
