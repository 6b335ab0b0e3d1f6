"""Service metrics: request counters and latency percentiles.

One registry per service instance.  Every handled request records its
endpoint, outcome and wall-clock latency; ``snapshot`` condenses that
into the ``/stats`` payload -- per-endpoint counts, error counts and
p50/p90/p99/mean latency in milliseconds.  Latencies are kept in a
bounded ring per endpoint so a long-lived server's memory stays flat and
the percentiles track recent behaviour rather than all history.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Sequence

from .. import counters as engine_counters

__all__ = ["ServiceMetrics", "percentile", "PROMETHEUS_BUCKETS_MS"]

#: Latency samples retained per endpoint.
DEFAULT_WINDOW = 2048

#: Cumulative histogram bounds (milliseconds) for the Prometheus
#: exposition -- log-ish spacing from sub-ms cache hits to multi-second
#: filescans, plus the implicit +Inf bucket.
PROMETHEUS_BUCKETS_MS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0 < q <= 100) by nearest-rank on sorted data."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class ServiceMetrics:
    """Thread-safe request/latency registry for the query service."""

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._lock = threading.Lock()
        self._window = window
        self._counts: dict[str, int] = {}
        self._errors: dict[str, int] = {}
        self._latencies: dict[str, deque[float]] = {}
        # Per-shard sub-request observations, keyed (shard index, endpoint).
        self._shard_counts: dict[tuple[int, str], int] = {}
        self._shard_errors: dict[tuple[int, str], int] = {}
        self._shard_latencies: dict[tuple[int, str], deque[float]] = {}
        # Per-replica attempts, keyed (shard index, replica index, endpoint).
        self._replica_counts: dict[tuple[int, int, str], int] = {}
        self._replica_errors: dict[tuple[int, int, str], int] = {}
        self._replica_latencies: dict[tuple[int, int, str], deque[float]] = {}
        # Background jobs, keyed by job type.
        self._job_counts: dict[str, int] = {}
        self._job_errors: dict[str, int] = {}
        self._job_latencies: dict[str, deque[float]] = {}
        # Named lifecycle events with no latency of their own (worker
        # restarts, hedged reads, router deadlines): bare counters.
        self._events: dict[str, int] = {}
        self.started_at = time.monotonic()

    def observe(self, endpoint: str, seconds: float, error: bool = False) -> None:
        """Record one handled request."""
        with self._lock:
            self._counts[endpoint] = self._counts.get(endpoint, 0) + 1
            if error:
                self._errors[endpoint] = self._errors.get(endpoint, 0) + 1
            ring = self._latencies.setdefault(
                endpoint, deque(maxlen=self._window)
            )
            ring.append(seconds)

    def observe_shard(
        self, shard: int, endpoint: str, seconds: float, error: bool = False
    ) -> None:
        """Record one shard's leg of a fanned-out request.

        A sharded ``/search`` is one request at the service level but N
        sub-requests at the storage level; keeping the legs separate lets
        ``/stats`` expose skew (one hot or slow shard) that the merged
        endpoint latency hides.
        """
        key = (shard, endpoint)
        with self._lock:
            self._shard_counts[key] = self._shard_counts.get(key, 0) + 1
            if error:
                self._shard_errors[key] = self._shard_errors.get(key, 0) + 1
            ring = self._shard_latencies.setdefault(
                key, deque(maxlen=self._window)
            )
            ring.append(seconds)

    def observe_replica(
        self,
        shard: int,
        replica: int,
        endpoint: str,
        seconds: float,
        error: bool = False,
    ) -> None:
        """Record one replica's attempt at serving a shard leg.

        The failover path may try several replicas for one leg, so these
        are *attempt* counts, not request counts: a replica accumulating
        errors here is exactly the skew ``/stats`` should make visible
        (and the leg the client saw still succeeded on a sibling).
        """
        key = (shard, replica, endpoint)
        with self._lock:
            self._replica_counts[key] = self._replica_counts.get(key, 0) + 1
            if error:
                self._replica_errors[key] = self._replica_errors.get(key, 0) + 1
            ring = self._replica_latencies.setdefault(
                key, deque(maxlen=self._window)
            )
            ring.append(seconds)

    def observe_job(
        self, job_type: str, seconds: float, error: bool = False
    ) -> None:
        """Record one background job's run (worker time, not queue wait).

        Jobs are not HTTP requests -- a rebalance may outlive thousands
        of them -- so they get their own block in ``snapshot`` instead of
        skewing the endpoint percentiles.
        """
        with self._lock:
            self._job_counts[job_type] = self._job_counts.get(job_type, 0) + 1
            if error:
                self._job_errors[job_type] = self._job_errors.get(job_type, 0) + 1
            ring = self._job_latencies.setdefault(
                job_type, deque(maxlen=self._window)
            )
            ring.append(seconds)

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

    @staticmethod
    def _latency_block(samples: list[float]) -> dict[str, float]:
        millis = [s * 1000.0 for s in samples]
        return {
            "mean": sum(millis) / len(millis) if millis else 0.0,
            "p50": percentile(millis, 50),
            "p90": percentile(millis, 90),
            "p95": percentile(millis, 95),
            "p99": percentile(millis, 99),
        }

    def snapshot(self) -> dict[str, object]:
        """The ``/stats`` view: totals plus per-endpoint breakdown."""
        with self._lock:
            endpoints: dict[str, object] = {}
            for endpoint, count in sorted(self._counts.items()):
                endpoints[endpoint] = {
                    "count": count,
                    "errors": self._errors.get(endpoint, 0),
                    "latency_ms": self._latency_block(
                        list(self._latencies.get(endpoint, ()))
                    ),
                }
            result: dict[str, object] = {
                "total": sum(self._counts.values()),
                "total_errors": sum(self._errors.values()),
                "uptime_s": self.uptime_s,
                "endpoints": endpoints,
            }
            if self._shard_counts:
                shards: dict[str, dict[str, object]] = {}
                for (shard, endpoint), count in sorted(self._shard_counts.items()):
                    shards.setdefault(str(shard), {})[endpoint] = {
                        "count": count,
                        "errors": self._shard_errors.get((shard, endpoint), 0),
                        "latency_ms": self._latency_block(
                            list(self._shard_latencies.get((shard, endpoint), ()))
                        ),
                    }
                result["shards"] = shards
            if self._replica_counts:
                replicas: dict[str, dict[str, dict[str, object]]] = {}
                for (shard, replica, endpoint), count in sorted(
                    self._replica_counts.items()
                ):
                    key = (shard, replica, endpoint)
                    replicas.setdefault(str(shard), {}).setdefault(
                        str(replica), {}
                    )[endpoint] = {
                        "count": count,
                        "errors": self._replica_errors.get(key, 0),
                        "latency_ms": self._latency_block(
                            list(self._replica_latencies.get(key, ()))
                        ),
                    }
                result["replicas"] = replicas
            if self._job_counts:
                jobs: dict[str, object] = {}
                for job_type, count in sorted(self._job_counts.items()):
                    jobs[job_type] = {
                        "count": count,
                        "errors": self._job_errors.get(job_type, 0),
                        "latency_ms": self._latency_block(
                            list(self._job_latencies.get(job_type, ()))
                        ),
                    }
                result["jobs"] = jobs
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
        return (
            str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )

    @classmethod
    def _labels(cls, pairs: list[tuple[str, object]]) -> str:
        inner = ",".join(
            f'{name}="{cls._escape_label(value)}"' for name, value in pairs
        )
        return "{" + inner + "}" if inner else ""

    @classmethod
    def _histogram_lines(
        cls,
        out: list[str],
        family: str,
        labels: list[tuple[str, object]],
        samples: "deque[float] | list[float]",
    ) -> None:
        millis = sorted(s * 1000.0 for s in samples)
        cumulative = 0
        position = 0
        for bound in PROMETHEUS_BUCKETS_MS:
            while position < len(millis) and millis[position] <= bound:
                position += 1
            cumulative = position
            le = labels + [("le", f"{bound:g}")]
            out.append(f"{family}_bucket{cls._labels(le)} {cumulative}")
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
        are computed from the same bounded per-key sample window the
        percentiles use (:data:`DEFAULT_WINDOW` most recent samples),
        so their ``_count``/``_sum`` are *windowed*, not monotonic --
        fine for scrape-time dashboards of recent latency, but rate()
        over them is meaningless; use the ``*_total`` counters for
        rates.  The whole text is rendered under one lock, so every
        line is a consistent cut of the registry.
        """
        with self._lock:
            out: list[str] = []

            def family(
                name: str,
                help_text: str,
                counts: dict,
                errors: dict,
                latencies: dict,
                label_names: tuple[str, ...],
            ) -> None:
                def pairs(key: object) -> list[tuple[str, object]]:
                    parts = key if isinstance(key, tuple) else (key,)
                    return list(zip(label_names, parts))

                if counts:
                    out.append(f"# HELP {prefix}_{name}_total {help_text}")
                    out.append(f"# TYPE {prefix}_{name}_total counter")
                    for key, count in sorted(counts.items()):
                        out.append(
                            f"{prefix}_{name}_total"
                            f"{self._labels(pairs(key))} {count}"
                        )
                    out.append(
                        f"# HELP {prefix}_{name}_errors_total "
                        f"Errors among {name}."
                    )
                    out.append(f"# TYPE {prefix}_{name}_errors_total counter")
                    for key in sorted(counts):
                        out.append(
                            f"{prefix}_{name}_errors_total"
                            f"{self._labels(pairs(key))} "
                            f"{errors.get(key, 0)}"
                        )
                if latencies:
                    out.append(
                        f"# HELP {prefix}_{name}_duration_ms "
                        f"Latency of {name} (windowed: last "
                        f"{self._window} samples per series)."
                    )
                    out.append(f"# TYPE {prefix}_{name}_duration_ms histogram")
                    for key, ring in sorted(latencies.items()):
                        self._histogram_lines(
                            out,
                            f"{prefix}_{name}_duration_ms",
                            pairs(key),
                            ring,
                        )

            family(
                "requests",
                "Handled requests per endpoint.",
                self._counts,
                self._errors,
                self._latencies,
                ("endpoint",),
            )
            family(
                "shard_requests",
                "Per-shard legs of fanned-out requests.",
                self._shard_counts,
                self._shard_errors,
                self._shard_latencies,
                ("shard", "endpoint"),
            )
            family(
                "replica_attempts",
                "Per-replica attempts (failover may retry).",
                self._replica_counts,
                self._replica_errors,
                self._replica_latencies,
                ("shard", "replica", "endpoint"),
            )
            family(
                "jobs",
                "Background job runs per type.",
                self._job_counts,
                self._job_errors,
                self._job_latencies,
                ("type",),
            )
            engine = engine_counters.global_snapshot()
            for name in sorted(engine):
                out.append(
                    f"# HELP {prefix}_engine_{name}_total "
                    f"{engine_counters.COUNTER_NAMES[name]}"
                )
                out.append(f"# TYPE {prefix}_engine_{name}_total counter")
                out.append(f"{prefix}_engine_{name}_total {engine[name]}")
            if self._events:
                out.append(
                    f"# HELP {prefix}_events_total "
                    "Lifecycle events (worker restarts, hedges, deadlines)."
                )
                out.append(f"# TYPE {prefix}_events_total counter")
                for name, count in sorted(self._events.items()):
                    out.append(
                        f"{prefix}_events_total"
                        f"{self._labels([('event', name)])} {count}"
                    )
            for name, help_text, series in gauges:
                if not series:
                    continue
                out.append(f"# HELP {prefix}_{name} {help_text}")
                out.append(f"# TYPE {prefix}_{name} gauge")
                for labels, value in series:
                    out.append(
                        f"{prefix}_{name}{self._labels(labels)} {value}"
                    )
            out.append(
                f"# HELP {prefix}_uptime_seconds Service uptime in seconds."
            )
            out.append(f"# TYPE {prefix}_uptime_seconds gauge")
            out.append(f"{prefix}_uptime_seconds {self.uptime_s:.3f}")
            return "\n".join(out) + "\n"
