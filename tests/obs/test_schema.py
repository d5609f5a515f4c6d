"""The snapshot format's one declaration, held to its three derivations.

* honesty — every key a live ``stats()`` snapshot carries is declared,
  merged or shard-local, so a new producer key cannot be dropped silently;
* merge algebra — hypothesis draws per-shard snapshots *from the schema*
  and checks identity, order independence, associativity, pooled means,
  histogram sums and counter-metric additivity (pure dict work, no
  engine);
* collection — engine, merged and partial snapshots all collect, and a
  lower counter reads as a Prometheus reset;
* docs — the README metrics table carries exactly the declared names.
"""

import itertools
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adaptive.promote import ADAPTATION_LOG_FILE, AdaptationLog
from repro.obs import schema
from repro.obs.collectors import collect_adaptation, collect_serving_stats
from repro.obs.metrics import (
    BucketHistogram,
    MetricsRegistry,
    merge_histogram_snapshots,
)
from repro.serving.engine import ServingEngine
from repro.serving.frontend import ShardedFrontend
from repro.serving.workload import generate_workload

def declared(block):
    return {stat.key for stat in block}


def merged_keys(block):
    return {
        stat.key for stat in block if stat.rule not in (schema.LOCAL, schema.ROWS)
    }


def child(block, key):
    (stat,) = [stat for stat in block if stat.key == key]
    return stat.of


def _serve(target, n_requests=40, seed=5):
    workload = generate_workload(["dgemm", "dsyrk"], n_requests, seed=seed)
    for plan in target.plan_many(request.as_tuple() for request in workload):
        target.record_observation(plan, plan.predicted_time * 1.25)


# ---------------------------------------------------------------------------
# Honesty: live snapshots against the declaration
# ---------------------------------------------------------------------------
class TestSchemaHonesty:
    def test_every_engine_key_is_merged_or_declared_local(self, obs_bundle):
        engine = ServingEngine(obs_bundle)
        _serve(engine)
        stats = engine.stats()
        assert set(stats) == declared(schema.ENGINE)
        for entry in stats["routines"].values():
            assert set(entry) == declared(schema.ROUTINE)
        assert set(stats["cache"]) == declared(schema.CACHE)
        assert set(stats["cache"]["timing"]) == declared(child(schema.CACHE, "timing"))
        for entry in stats["cache"]["routines"].values():
            assert set(entry) <= declared(child(schema.CACHE, "routines"))
        assert json.loads(json.dumps(stats)) == stats

    def test_merged_snapshot_carries_every_merged_key_and_no_local_one(
        self, obs_bundle
    ):
        with ShardedFrontend.from_bundle(obs_bundle, 2) as frontend:
            _serve(frontend)
            stats = frontend.stats()
        # Local in an engine's snapshot, re-stamped at merge; ``backend`` and
        # the rows' identity fields are no statistics and are not declared.
        stamps = {"wall_time", "monotonic_time", "backend"}
        assert set(stats) == (
            merged_keys(schema.ENGINE) | declared(schema.FRONTEND) | stamps
        )
        for entry in stats["routines"].values():
            assert set(entry) == merged_keys(schema.ROUTINE)
            assert "shapes" not in entry
            assert entry["traffic_records"] == entry["observations"]
        assert stats["drift_threshold"] == 0.25
        assert declared(child(schema.FRONTEND, "admission")) <= set(stats["admission"])
        # The supervision block: its own keys plus the row block's totals.
        assert (
            declared(schema.SUPERVISION) | merged_keys(schema.SUPERVISION_ROW)
        ) <= set(stats["supervision"])
        for row in stats["per_shard"]:
            assert declared(child(schema.FRONTEND, "per_shard")) <= set(row)
        for row in stats["supervision"]["per_shard"]:
            assert declared(schema.SUPERVISION_ROW) <= set(row)
        assert json.loads(json.dumps(stats)) == stats

    def test_merged_views_are_the_snapshot(self, obs_bundle):
        with ShardedFrontend.from_bundle(obs_bundle, 2) as frontend:
            _serve(frontend)
            stats = frontend.stats()
            assert frontend.cache_statistics() == stats["cache"]
            assert frontend.reinstall_candidates() == stats["reinstall_candidates"]

    def test_ratio_operands_are_declared_before_the_ratio(self):
        for block in (schema.ENGINE, schema.ROUTINE, child(schema.CACHE, "routines")):
            seen = set()
            for stat in block:
                if stat.rule == schema.RATIO:
                    assert set(stat.of) <= seen
                seen.add(stat.key)

    def test_each_metric_name_is_declared_with_one_help_text_and_kind(self):
        by_name = {}
        for stat in schema.metrics():
            by_name.setdefault(stat.name, set()).add((stat.kind, stat.help))
        assert all(len(variants) == 1 for variants in by_name.values())
        assert len(by_name) == 42
        kinds = {name: kind for name, ((kind, _),) in by_name.items()}
        assert kinds["adsala_plan_latency_seconds"] == "histogram"
        assert kinds["adsala_plans_total"] == "counter"
        assert kinds["adsala_pending"] == "gauge"

    def test_unloadable_cache_entries_merge(self):
        loaded = {"hits": 3, "misses": 1, "hit_rate": 0.75, "evaluate_path": "native"}
        gone = {"unloadable": True}
        block = child(schema.CACHE, "routines")
        assert schema.merge(block, [loaded, gone]) == dict(loaded, unloadable=True)
        assert schema.merge(block, [gone, gone]) == gone


# ---------------------------------------------------------------------------
# Merge algebra on snapshots drawn from the schema
# ---------------------------------------------------------------------------
ROUTINES = ("dgemm", "dsyrk", "sgemm")
EIGHTHS = st.integers(0, 64).map(lambda k: k / 8.0)


@st.composite
def histograms(draw):
    histogram = BucketHistogram()
    for exponent in draw(st.lists(st.integers(-18, 1), max_size=6)):
        histogram.observe(2.0 ** exponent)
    return histogram.snapshot()


@st.composite
def parts(draw, block, shared):
    """One shard's dict for ``block``; FIRST keys come from ``shared``."""
    out = {}
    for stat in block:
        if stat.rule == schema.SUM:
            value = draw(st.integers(0, 500))
        elif stat.rule == schema.MAX:
            value = draw(EIGHTHS)
        elif stat.rule == schema.FIRST:
            value = shared.setdefault(stat.key, draw(st.integers(1, 9)))
        elif stat.rule == schema.UNION:
            value = sorted(draw(st.sets(st.sampled_from(ROUTINES))))
        elif stat.rule == schema.PREFER:
            value = draw(st.sampled_from(("native", "numpy")))
        elif stat.rule == schema.MEAN:
            value = draw(EIGHTHS) if out[stat.of] else 0.0
        elif stat.rule == schema.RATIO:
            numerator, *denominators = stat.of
            total = sum(out[key] for key in denominators)
            value = out[numerator] / total if total else 0.0
        elif stat.rule == schema.HISTOGRAM:
            value = draw(histograms())
        elif stat.rule == schema.BLOCK:
            value = draw(parts(stat.of, shared))
        elif stat.rule == schema.MAP:
            value = {
                name: draw(parts(stat.of, shared))
                for name in sorted(draw(st.sets(st.sampled_from(ROUTINES))))
            }
        else:  # LOCAL: whatever the shard says, the merge must not look
            value = draw(st.integers())
        out[stat.key] = value
    return out


@st.composite
def shard_snapshots(draw, min_size=1, max_size=3):
    shared = {}
    count = draw(st.integers(min_size, max_size))
    return [draw(parts(schema.ENGINE, shared)) for _ in range(count)]


def without(block, part, *dropped):
    """``part`` restricted to the keys a merge keeps, minus ``dropped`` rules."""
    out = {}
    for stat in block:
        if stat.key not in part or stat.rule in (schema.LOCAL, schema.ROWS, *dropped):
            continue
        value = part[stat.key]
        if stat.rule == schema.BLOCK:
            value = without(stat.of, value, *dropped)
        elif stat.rule == schema.MAP:
            value = {
                name: without(stat.of, entry, *dropped) for name, entry in value.items()
            }
        out[stat.key] = value
    return out


def counters(snapshot):
    registry = MetricsRegistry()
    collect_serving_stats(registry, snapshot)
    return {
        (name, tuple(sorted(child["labels"].items()))): child["value"]
        for name, family in registry.snapshot().items()
        if family["type"] == "counter"
        for child in family["series"]
    }


ALGEBRA = settings(
    max_examples=20, deadline=None, suppress_health_check=list(HealthCheck)
)


class TestMergeAlgebra:
    @ALGEBRA
    @given(shard_snapshots(max_size=1))
    def test_merging_one_snapshot_is_the_identity_on_every_merged_key(self, shards):
        (only,) = shards
        assert schema.merge(schema.ENGINE, shards) == without(schema.ENGINE, only)

    @ALGEBRA
    @given(shard_snapshots(min_size=2))
    def test_merge_is_order_independent(self, shards):
        forward = schema.merge(schema.ENGINE, shards)
        for order in itertools.permutations(shards):
            assert schema.merge(schema.ENGINE, list(order)) == forward

    @ALGEBRA
    @given(shard_snapshots(min_size=3, max_size=3))
    def test_exact_rules_are_associative_across_a_three_way_split(self, shards):
        a, b, c = shards
        nested = schema.merge(schema.ENGINE, [schema.merge(schema.ENGINE, [a, b]), c])
        flat = schema.merge(schema.ENGINE, shards)
        assert without(schema.ENGINE, nested, schema.MEAN) == without(
            schema.ENGINE, flat, schema.MEAN
        )

    @ALGEBRA
    @given(
        st.lists(
            st.lists(st.floats(0.0, 4.0, allow_nan=False), max_size=8),
            min_size=1,
            max_size=4,
        )
    )
    def test_weighted_error_means_equal_the_pooled_mean(self, windows):
        entries = [
            {
                "observations": len(window),
                "mean_abs_rel_error": math.fsum(window) / len(window) if window else 0.0,
            }
            for window in windows
        ]
        merged = schema.merge(schema.ROUTINE, entries)
        pooled = [sample for window in windows for sample in window]
        assert merged["observations"] == len(pooled)
        assert merged["mean_abs_rel_error"] == pytest.approx(
            math.fsum(pooled) / len(pooled) if pooled else 0.0, rel=1e-12, abs=1e-15
        )

    @ALGEBRA
    @given(shard_snapshots(min_size=2))
    def test_merged_latency_equals_merge_histogram_snapshots(self, shards):
        merged = schema.merge(schema.ENGINE, shards)
        for routine, entry in merged["routines"].items():
            assert entry["latency"] == merge_histogram_snapshots(
                shard["routines"][routine]["latency"]
                for shard in shards
                if routine in shard["routines"]
            )

    @ALGEBRA
    @given(shard_snapshots(min_size=2))
    def test_counter_metrics_of_the_merge_are_the_sum_over_shards(self, shards):
        expected = {}
        for shard in shards:
            for series, value in counters(shard).items():
                expected[series] = expected.get(series, 0.0) + value
        assert counters(schema.merge(schema.ENGINE, shards)) == expected

    def test_supervision_totals_are_sums_and_pooled_recovery(self):
        def row(index, failures, episodes, mean, worst):
            recovery = {
                "count": episodes, "total": episodes, "mean": mean,
                "max": worst, "last": worst,
            }
            return {"index": index, "failures": failures, "recovery": recovery}

        rows = [row(0, 2, 2, 0.5, 0.75), row(1, 0, 0, 0.0, 0.0), row(2, 3, 1, 2.0, 2.0)]
        assert schema.merge(schema.SUPERVISION_ROW, rows) == {"failures": 5}
        assert schema.merge(schema.SUPERVISION, rows) == {
            "recovery_episodes": 3,
            "recovery_mean_s": 1.0,
            "recovery_max_s": 2.0,
        }


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------
class TestCollection:
    def test_partial_and_older_snapshots_collect_what_they_carry(self):
        registry = MetricsRegistry()
        collect_serving_stats(registry, {})
        assert registry.snapshot() == {}
        collect_serving_stats(
            registry,
            {
                "requests": 7,
                "routines": {"dgemm": {"plans": 7}},
                "cache": {"timing": {"hits": 2}},
                "supervision": None,
                "per_shard": [{"index": 1, "deadline_expired": 4}],
                "someday": {"a": 1},
            },
        )
        text = registry.render_prometheus()
        assert "adsala_requests_total 7\n" in text
        assert 'adsala_plans_total{routine="dgemm"} 7\n' in text
        assert "adsala_timing_cache_hits_total 2\n" in text
        assert 'adsala_shard_deadline_expired_total{shard="1"} 4\n' in text
        assert "adsala_batches_total" not in text

    def test_restarted_shards_lower_counter_reads_as_a_reset(self):
        registry = MetricsRegistry()
        collect_serving_stats(registry, {"routines": {"dgemm": {"plans": 10}}})
        collect_serving_stats(registry, {"routines": {"dgemm": {"plans": 3}}})
        assert 'adsala_plans_total{routine="dgemm"} 3\n' in registry.render_prometheus()

    def test_an_empty_latency_histogram_exports_no_family(self):
        registry = MetricsRegistry()
        empty = BucketHistogram().snapshot()
        collect_serving_stats(registry, {"routines": {"dgemm": {"latency": empty}}})
        assert registry.snapshot() == {}


# ---------------------------------------------------------------------------
# Docs
# ---------------------------------------------------------------------------
def _expand(token):
    match = re.search(r"\{([^}]*)\}", token)
    if not match:
        return [token]
    return [
        name
        for choice in match.group(1).split(",")
        for name in _expand(token[: match.start()] + choice + token[match.end():])
    ]


def readme_metrics_table():
    """``{layer: {metric names}}`` from the README's Metrics table."""
    readme = (Path(__file__).parents[2] / "README.md").read_text()
    section = readme[readme.index("**Metrics**"): readme.index("**Journal**")]
    table = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|") or len(cells) != 2 or set(cells[0]) <= set("-"):
            continue
        names = {
            name
            for token in re.findall(r"`(adsala_[a-z_{},]+)`", cells[1])
            for name in _expand(token)
        }
        if names:
            table[cells[0]] = names
    return table


class TestReadmeMetricsTable:
    def test_brace_shorthand_expands(self):
        assert _expand("adsala_x_{a,b}_total") == ["adsala_x_a_total", "adsala_x_b_total"]

    def test_serving_rows_carry_exactly_the_declared_metrics(self):
        table = readme_metrics_table()
        documented = set().union(
            *(names for layer, names in table.items() if layer != "adaptation")
        )
        exported = {stat.name for stat in schema.metrics()}
        assert exported - documented == set(), "exported but undocumented"
        assert documented - exported == set(), "documented but not exported"

    def test_adaptation_row_carries_collect_adaptations_three_names(
        self, obs_bundle_dir
    ):
        log = AdaptationLog(obs_bundle_dir / ADAPTATION_LOG_FILE)
        log.append("promoted", routine="dgemm", state="promoted")
        registry = MetricsRegistry()
        collect_adaptation(registry, log, bundle_dir=obs_bundle_dir)
        assert readme_metrics_table()["adaptation"] == set(registry.snapshot())
        assert len(registry.snapshot()) == 3
