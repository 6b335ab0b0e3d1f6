"""Service metrics: request counters and latency percentiles.

One registry per service instance, holding one table: a labelled series
per ``(family, labels)`` -- its count, its error count and a bounded
ring of its latest latencies, so a long-lived server's memory stays flat
and the percentiles track recent behaviour rather than all history.
:data:`FAMILIES` declares the four families (handled requests, shard
legs, replica attempts, background jobs); ``snapshot`` nests each one by
label into the ``/stats`` payload and ``render_prometheus`` exposes the
same table as counters and histograms.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Sequence

from .. import counters as engine_counters

__all__ = ["ServiceMetrics", "percentile", "FAMILIES", "PROMETHEUS_BUCKETS_MS"]

#: Latency samples retained per series.
DEFAULT_WINDOW = 2048

#: Cumulative histogram bounds (milliseconds) for the Prometheus
#: exposition -- log-ish spacing from sub-ms cache hits to multi-second
#: filescans, plus the implicit +Inf bucket.
PROMETHEUS_BUCKETS_MS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: The series families, in exposition order: name -> (``/stats`` key,
#: label names, HELP text).  A sharded ``/search`` is one request but N
#: shard legs, kept apart so ``/stats`` shows the skew the merged latency
#: hides; failover may try several replicas per leg, so those are
#: attempts; a job (worker time, not queue wait) may outlive thousands of
#: requests, so it does not skew the endpoint percentiles.
FAMILIES: dict[str, tuple[str, tuple[str, ...], str]] = {
    "requests": ("endpoints", ("endpoint",), "Handled requests per endpoint."),
    "shard_requests": (
        "shards", ("shard", "endpoint"), "Per-shard legs of fanned-out requests."
    ),
    "replica_attempts": (
        "replicas",
        ("shard", "replica", "endpoint"),
        "Per-replica attempts (failover may retry).",
    ),
    "jobs": ("jobs", ("type",), "Background job runs per type."),
}


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0 < q <= 100) by nearest-rank on sorted data."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class _Series:
    """One labelled series: lifetime counts plus a latency window."""

    __slots__ = ("count", "errors", "latencies")

    def __init__(self, window: int) -> None:
        self.count = 0
        self.errors = 0
        self.latencies: deque[float] = deque(maxlen=window)


class ServiceMetrics:
    """Thread-safe request/latency registry for the query service."""

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._lock = threading.Lock()
        self._window = window
        #: family -> label tuple -> series.
        self._series: dict[str, dict[tuple, _Series]] = {
            family: {} for family in FAMILIES
        }
        # Named lifecycle events with no latency of their own (worker
        # restarts, hedged reads, router deadlines): bare counters.
        self._events: dict[str, int] = {}
        self.started_at = time.monotonic()

    def observe(
        self, family: str, labels: tuple, seconds: float, error: bool = False
    ) -> None:
        """Record one observation of ``family`` (a :data:`FAMILIES` key)
        under ``labels``, one value per label name: ``("search",)`` for a
        request, ``(shard, replica, "search")`` for a replica attempt."""
        with self._lock:
            table = self._series[family]
            series = table.get(labels)
            if series is None:
                series = table[labels] = _Series(self._window)
            series.count += 1
            series.errors += error
            series.latencies.append(seconds)

    def event(self, name: str, count: int = 1) -> None:
        """Count one occurrence of a named lifecycle event.

        Used by the worker-process router for the things that are not
        requests: a worker subprocess restarting after a crash, a read
        leg getting hedged, a per-request deadline firing.  Exposed in
        ``/stats`` under ``events`` and in the Prometheus text as
        ``<prefix>_events_total{event="..."}``.
        """
        with self._lock:
            self._events[name] = self._events.get(name, 0) + count

    def event_count(self, name: str) -> int:
        with self._lock:
            return self._events.get(name, 0)

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started_at

    def _sorted(self, family: str) -> list[tuple[tuple, _Series]]:
        table = self._series[family]
        return [(labels, table[labels]) for labels in sorted(table)]

    def snapshot(self) -> dict[str, object]:
        """The ``/stats`` view: totals plus each family nested by label
        (``shards["0"]["search"]``); families never observed are left
        out, except the always-present ``endpoints``."""
        with self._lock:
            requests = self._series["requests"].values()
            result: dict[str, object] = {
                "total": sum(series.count for series in requests),
                "total_errors": sum(series.errors for series in requests),
                "uptime_s": self.uptime_s,
                "endpoints": {},
            }
            for family, (key, _, _) in FAMILIES.items():
                for labels, series in self._sorted(family):
                    node = result.setdefault(key, {})
                    for label in labels[:-1]:
                        node = node.setdefault(str(label), {})
                    millis = [s * 1000.0 for s in series.latencies]
                    node[str(labels[-1])] = {
                        "count": series.count,
                        "errors": series.errors,
                        "latency_ms": {
                            "mean": sum(millis) / len(millis) if millis else 0.0,
                            "p50": percentile(millis, 50),
                            "p90": percentile(millis, 90),
                            "p95": percentile(millis, 95),
                            "p99": percentile(millis, 99),
                        },
                    }
            if self._events:
                result["events"] = dict(sorted(self._events.items()))
            # Engine-work counters are process-global (the engine has no
            # handle on a service instance), so every registry reports
            # the same totals: exact per process, which is also exactly
            # what each worker subprocess should report.
            result["engine"] = engine_counters.global_snapshot()
            return result

    # ------------------------------------------------------------------
    # Prometheus text exposition (format 0.0.4), zero-dependency.
    # ------------------------------------------------------------------
    @staticmethod
    def _escape_label(value: object) -> str:
        text = str(value).replace("\\", "\\\\").replace('"', '\\"')
        return text.replace("\n", "\\n")

    @classmethod
    def _labels(cls, pairs: list[tuple[str, object]]) -> str:
        inner = ",".join(
            f'{name}="{cls._escape_label(value)}"' for name, value in pairs
        )
        return "{" + inner + "}" if inner else ""

    @classmethod
    def _histogram_lines(
        cls, out: list[str], family: str, labels: list, samples: deque
    ) -> None:
        millis = sorted(s * 1000.0 for s in samples)
        position = 0
        for bound in PROMETHEUS_BUCKETS_MS:
            while position < len(millis) and millis[position] <= bound:
                position += 1
            le = labels + [("le", f"{bound:g}")]
            out.append(f"{family}_bucket{cls._labels(le)} {position}")
        le = labels + [("le", "+Inf")]
        out.append(f"{family}_bucket{cls._labels(le)} {len(millis)}")
        out.append(f"{family}_sum{cls._labels(labels)} {sum(millis):.6f}")
        out.append(f"{family}_count{cls._labels(labels)} {len(millis)}")

    def render_prometheus(
        self,
        prefix: str = "staccato",
        gauges: Sequence[tuple] = (),
    ) -> str:
        """Render the registry in the Prometheus text format.

        ``gauges`` are point-in-time values the caller owns (the
        registry only counts events): one ``(name, help, [(label
        pairs, value), ...])`` per family, rendered after the counters.

        Counters are lifetime totals.  The ``*_duration_ms`` histograms
        are computed from the same bounded per-series sample window the
        percentiles use (:data:`DEFAULT_WINDOW` most recent samples),
        so their ``_count``/``_sum`` are *windowed*, not monotonic --
        fine for scrape-time dashboards of recent latency, but rate()
        over them is meaningless; use the ``*_total`` counters for
        rates.  The whole text is rendered under one lock, so every
        line is a consistent cut of the registry.
        """
        with self._lock:
            out: list[str] = []

            def emit(name: str, kind: str, help_text: str, samples) -> None:
                """HELP and TYPE, then one line per ``(label pairs, value)``."""
                out.append(f"# HELP {prefix}_{name} {help_text}")
                out.append(f"# TYPE {prefix}_{name} {kind}")
                for labels, value in samples:
                    out.append(f"{prefix}_{name}{self._labels(labels)} {value}")

            for family, (_, label_names, help_text) in FAMILIES.items():
                rows = [
                    (list(zip(label_names, labels)), series)
                    for labels, series in self._sorted(family)
                ]
                if not rows:
                    continue
                emit(f"{family}_total", "counter", help_text,
                     [(pairs, series.count) for pairs, series in rows])
                emit(f"{family}_errors_total", "counter",
                     f"Errors among {family}.",
                     [(pairs, series.errors) for pairs, series in rows])
                emit(f"{family}_duration_ms", "histogram",
                     f"Latency of {family} (windowed: last {self._window} "
                     "samples per series).", ())
                for pairs, series in rows:
                    self._histogram_lines(
                        out, f"{prefix}_{family}_duration_ms", pairs,
                        series.latencies,
                    )
            engine = engine_counters.global_snapshot()
            for name in sorted(engine):
                emit(f"engine_{name}_total", "counter",
                     engine_counters.COUNTER_NAMES[name], [([], engine[name])])
            if self._events:
                emit("events_total", "counter",
                     "Lifecycle events (worker restarts, hedges, deadlines).",
                     [([("event", name)], count)
                      for name, count in sorted(self._events.items())])
            for name, help_text, series in gauges:
                if series:
                    emit(name, "gauge", help_text, series)
            emit("uptime_seconds", "gauge", "Service uptime in seconds.",
                 [([], f"{self.uptime_s:.3f}")])
            return "\n".join(out) + "\n"
