"""Process-wide metrics registry with Prometheus-text and JSON export.

The registry holds metric *families* (one name + help + type + label
names), each of which owns one child series per distinct label-value
tuple.  Three primitives cover the serving stack's needs:

* :class:`Counter` — monotone float.  ``inc()`` for in-process
  instrumentation; ``set_total()`` for *collected* counters that mirror a
  monotone upstream counter (the serving stack's ``stats()`` snapshots);
  a collected value below the current one is treated as a Prometheus
  counter reset (e.g. a restarted shard), not an error.
* :class:`Gauge` — a float that can go anywhere (queue depth, in-flight).
* :class:`Histogram` — fixed cumulative buckets over
  :class:`BucketHistogram` state, exposed Prometheus-style
  (``_bucket{le=...}`` / ``_sum`` / ``_count``) with interpolated
  :meth:`~BucketHistogram.quantile` for p50/p99 readouts.

Exposition: :meth:`MetricsRegistry.render_prometheus` emits the
Prometheus text format (version 0.0.4); :meth:`MetricsRegistry.snapshot`
the equivalent JSON document.  :class:`MetricsServer` serves both from a
stdlib :class:`~http.server.ThreadingHTTPServer` on a daemon thread
(``/metrics``, ``/metrics.json``, ``/healthz``), invoking an optional
``collector`` callable before each scrape so the registry reflects the
live serving stack at scrape time.

Thread-safety model
-------------------
One re-entrant lock per :class:`MetricsRegistry` serialises family
registration, every child mutation made through the family accessors, and
both exports — a scrape observes a consistent point-in-time view.
Individual :class:`BucketHistogram` instances embedded in other owners
(e.g. per-routine telemetry) carry **no** lock of their own and inherit
their owner's discipline, exactly like the rest of
:mod:`repro.serving.telemetry` (mutated only under the engine lock).
"""

from __future__ import annotations

import bisect
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "BucketHistogram",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "merge_histogram_snapshots",
]

#: Fixed plan-latency buckets (seconds): 10 µs .. 1 s, log-ish spaced.
#: Wide enough for a cold compiled plan (~150 µs) and a full re-simulated
#: micro-batch; fine enough that p50/p99 interpolation stays meaningful.
DEFAULT_LATENCY_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1.0,
)


class BucketHistogram:
    """Fixed-bucket histogram state: counts per upper bound, sum, count.

    Buckets are *cumulative only at exposition time*; internally each slot
    counts the observations that fell into ``(previous_le, le]`` with one
    extra overflow slot for ``+Inf``, so merging across shards is a plain
    element-wise sum.  Carries no lock — the owner serialises access (see
    the module docstring).
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Fold in ``count`` observations of ``value``: one bucket search, and
        the same float additions ``count`` single calls would make."""
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += count
        total = self.sum
        for _ in range(count):
            total += value
        self.sum = total
        self.count += count

    def cumulative(self) -> List[int]:
        """Prometheus-style cumulative counts, one per bound plus ``+Inf``."""
        total = 0
        out = []
        for count in self.counts:
            total += count
            out.append(total)
        return out

    def quantile(self, q: float) -> float:
        """Interpolated quantile from bucket counts (Prometheus-style).

        Linear interpolation inside the bucket the target rank falls into;
        the first bucket interpolates from 0 and an overflow rank returns
        the highest finite bound (the histogram cannot resolve beyond it).
        Returns 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            if seen + count >= rank:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[index - 1] if index else 0.0
                upper = self.bounds[index]
                fraction = (rank - seen) / count
                return lower + (upper - lower) * fraction
            seen += count
        return self.bounds[-1]

    def merge_snapshot(self, snapshot: Mapping[str, object]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one."""
        bounds = tuple(float(b) for b in snapshot["bounds"])
        if bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{bounds} vs {self.bounds}"
            )
        counts = snapshot["counts"]
        if len(counts) != len(self.counts):
            raise ValueError("histogram snapshot has the wrong bucket count")
        for slot, count in enumerate(counts):
            self.counts[slot] += int(count)
        self.sum += float(snapshot["sum"])
        self.count += int(snapshot["count"])

    def snapshot(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


def merge_histogram_snapshots(
    snapshots: Iterable[Mapping[str, object]],
    buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
) -> Dict[str, object]:
    """Sum per-shard histogram snapshots into one (same fixed buckets)."""
    merged = BucketHistogram(buckets)
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()


# ---------------------------------------------------------------------------
# Child series
# ---------------------------------------------------------------------------
class Counter:
    """A monotone counter child (one label-value combination)."""

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Mirror an upstream monotone counter (collected metrics).

        The value is taken as-is, including one *below* the current value:
        that is a Prometheus counter reset (a restarted shard rebuilds its
        engine telemetry from zero) and scrapers' ``rate()`` handles it —
        refusing would make a chaos run's scrapes fail exactly when they
        matter most.
        """
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0


class Gauge:
    """A set-anywhere float child."""

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """A fixed-bucket histogram child wrapping :class:`BucketHistogram`."""

    def __init__(self, buckets: Sequence[float]):
        self.state = BucketHistogram(buckets)

    def observe(self, value: float) -> None:
        self.state.observe(value)

    def load_snapshot(self, snapshot: Mapping[str, object]) -> None:
        """Replace this child's state with a collected snapshot."""
        fresh = BucketHistogram(tuple(float(b) for b in snapshot["bounds"]))
        fresh.merge_snapshot(snapshot)
        self.state = fresh

    def quantile(self, q: float) -> float:
        return self.state.quantile(q)


class _Family:
    """One metric family: name, help, type, label names, child per labels."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        label_names: Tuple[str, ...],
        child_factory: Callable[[], object],
    ):
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names = label_names
        self._child_factory = child_factory
        self.children: "Dict[Tuple[str, ...], object]" = {}

    def labels(self, **labels: str) -> object:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self.children.get(key)
        if child is None:
            child = self._child_factory()
            self.children[key] = child
        return child


_NAME_RE_HELP = (
    "metric and label names must match [a-zA-Z_:][a-zA-Z0-9_:]* "
    "(Prometheus exposition rules)"
)


def _valid_name(name: str) -> bool:
    if not name:
        return False
    head, tail = name[0], name[1:]
    if not (head.isascii() and (head.isalpha() or head in "_:")):
        return False
    return all(c.isascii() and (c.isalnum() or c in "_:") for c in tail)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Thread-safe collection of metric families (see module docstring).

    All accessors are get-or-create and idempotent: asking twice for the
    same family returns the same object, but re-using a name with a
    different type, help text or label set raises — silent redefinition is
    how two subsystems end up writing into each other's series.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._families: "Dict[str, _Family]" = {}

    # -- registration ---------------------------------------------------------------
    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        label_names: Sequence[str],
        child_factory: Callable[[], object],
    ) -> _Family:
        if not _valid_name(name):
            raise ValueError(f"invalid metric name {name!r}; {_NAME_RE_HELP}")
        label_names = tuple(label_names)
        for label in label_names:
            if not _valid_name(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}; {_NAME_RE_HELP}")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind} "
                        f"with labels {family.label_names}; cannot re-register "
                        f"as {kind} with labels {label_names}"
                    )
                return family
            family = _Family(name, help_text, kind, label_names, child_factory)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> _Family:
        return self._family(name, help_text, "counter", labels, Counter)

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> _Family:
        return self._family(name, help_text, "gauge", labels, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> _Family:
        return self._family(
            name, help_text, "histogram", labels, lambda: Histogram(buckets)
        )

    # -- convenience single-child setters --------------------------------------------
    def set_gauge(self, name: str, value: float, help_text: str = "", **labels) -> None:
        with self._lock:
            self.gauge(name, help_text, tuple(sorted(labels))).labels(**labels).set(value)

    def set_counter(self, name: str, value: float, help_text: str = "", **labels) -> None:
        with self._lock:
            self.counter(name, help_text, tuple(sorted(labels))).labels(
                **labels
            ).set_total(value)

    # -- exposition -------------------------------------------------------------------
    @staticmethod
    def _labels_text(
        label_names: Sequence[str], key: Sequence[str], extra: str = ""
    ) -> str:
        parts = [
            f'{label}="{_escape_label_value(value)}"'
            for label, value in zip(label_names, key)
        ]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                if family.help:
                    lines.append(f"# HELP {name} {family.help}")
                lines.append(f"# TYPE {name} {family.kind}")
                for key in sorted(family.children):
                    child = family.children[key]
                    if family.kind == "histogram":
                        state = child.state
                        cumulative = state.cumulative()
                        for bound, count in zip(state.bounds, cumulative):
                            labels = self._labels_text(
                                family.label_names, key,
                                f'le="{_format_value(bound)}"',
                            )
                            lines.append(f"{name}_bucket{labels} {count}")
                        labels = self._labels_text(
                            family.label_names, key, 'le="+Inf"'
                        )
                        lines.append(f"{name}_bucket{labels} {state.count}")
                        labels = self._labels_text(family.label_names, key)
                        lines.append(f"{name}_sum{labels} {_format_value(state.sum)}")
                        lines.append(f"{name}_count{labels} {state.count}")
                    else:
                        labels = self._labels_text(family.label_names, key)
                        lines.append(f"{name}{labels} {_format_value(child.value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, object]:
        """JSON-serialisable view: family metadata plus every child series."""
        out: Dict[str, object] = {}
        with self._lock:
            for name, family in self._families.items():
                series = []
                for key in sorted(family.children):
                    child = family.children[key]
                    labels = dict(zip(family.label_names, key))
                    if family.kind == "histogram":
                        series.append({"labels": labels, **child.state.snapshot()})
                    else:
                        series.append({"labels": labels, "value": child.value})
                out[name] = {
                    "type": family.kind,
                    "help": family.help,
                    "series": series,
                }
        return out

    def clear(self) -> None:
        with self._lock:
            self._families.clear()


# ---------------------------------------------------------------------------
# Exposition endpoint
# ---------------------------------------------------------------------------
class _MetricsHandler(BaseHTTPRequestHandler):
    server_version = "adsala-metrics"

    def do_GET(self):  # noqa: N802 (stdlib handler contract)
        server: "_Server" = self.server  # type: ignore[assignment]
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            body, content_type = server.render("prometheus")
        elif path == "/metrics.json":
            body, content_type = server.render("json")
        elif path == "/healthz":
            body, content_type = b"ok\n", "text/plain; charset=utf-8"
        else:
            self.send_error(404, "unknown path (try /metrics, /metrics.json)")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass  # scrapes are routine; stay quiet


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, registry: MetricsRegistry, collector):
        super().__init__(address, _MetricsHandler)
        self.registry = registry
        self.collector = collector
        # One collect at a time: concurrent scrapes would double-read the
        # serving stats for no benefit.
        self._collect_lock = threading.Lock()

    def render(self, fmt: str) -> Tuple[bytes, str]:
        if self.collector is not None:
            with self._collect_lock:
                self.collector()
        if fmt == "json":
            body = json.dumps(self.registry.snapshot(), indent=2).encode("utf-8")
            return body, "application/json"
        body = self.registry.render_prometheus().encode("utf-8")
        return body, "text/plain; version=0.0.4; charset=utf-8"


class MetricsServer:
    """Tiny stdlib HTTP exposition endpoint on a daemon thread.

    ``collector`` (optional, zero-argument) runs before every scrape so
    the registry mirrors the live serving stack at scrape time; pass e.g.
    a :class:`repro.obs.collectors.StatsCollector`.  ``port=0`` binds an
    ephemeral port (read it back from :attr:`port` — the test-friendly
    default).  Start/stop are idempotent and the object is a context
    manager.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
        collector: Optional[Callable[[], None]] = None,
    ):
        self.registry = registry
        self.host = host
        self.requested_port = int(port)
        self.collector = collector
        self._server: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    @property
    def port(self) -> Optional[int]:
        """The bound port (None until :meth:`start`)."""
        with self._lock:
            return None if self._server is None else self._server.server_address[1]

    @property
    def url(self) -> Optional[str]:
        port = self.port
        return None if port is None else f"http://{self.host}:{port}/metrics"

    def start(self) -> "MetricsServer":
        with self._lock:
            if self._server is None:
                server = _Server(
                    (self.host, self.requested_port), self.registry, self.collector
                )
                thread = threading.Thread(
                    target=server.serve_forever,
                    name="adsala-metrics",
                    daemon=True,
                )
                self._server = server
                self._thread = thread
                thread.start()
        return self

    def stop(self) -> None:
        with self._lock:
            server, thread = self._server, self._thread
            self._server = None
            self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def now_timestamps() -> Dict[str, float]:
    """``{"wall_time", "monotonic_time"}`` stamped from one instant.

    ``wall_time`` orders snapshots across processes and machines;
    ``monotonic_time`` orders them within one process immune to clock
    steps.  Shared by ``stats()`` snapshots and journal rows so the two
    evidence streams line up.
    """
    return {"wall_time": time.time(), "monotonic_time": time.monotonic()}
