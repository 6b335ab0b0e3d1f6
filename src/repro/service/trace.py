"""Span-based request tracing for the query service.

Aggregate percentiles (``/stats``) say *that* a request was slow; a
trace says *where*.  Every handled request records a tree of spans --
body read, validation, cache probe, plan choice, per-shard fan-out
legs, per-replica attempts (with breaker state and failover retries),
engine scan detail, merge and serialization -- into a bounded
in-memory ring queryable over HTTP:

* ``GET /traces`` -- recent trace summaries, filterable by
  ``endpoint``, ``min_ms`` and ``error``;
* ``GET /traces/<id>`` -- one full span tree;
* ``"trace": true`` on any POST body -- echo the request's own tree
  inline in the response.

The span context -- :class:`~repro.tracing.Span`, ``span()`` and the
current span -- lives in the leaf module :mod:`repro.tracing`, which
every layer imports.  This module keeps what only a service needs: the
:class:`Tracer` that installs each request's root and records the
finished tree, the ``X-Trace-Id`` / ``X-Parent-Span-Id`` headers and
the HTTP surface.

The tracer also owns the two structured logs built on the same span
data: the slow-query log (``serve --slow-query-ms N``; JSON lines with
the span breakdown) and the access log (``serve --access-log PATH``;
one JSON line per request).  Both require tracing to be enabled (the
default); ``--no-trace`` turns the whole layer into a no-op whose only
residual cost is one context-variable read per instrumentation point.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Mapping

from .. import tracing
from .validation import ApiError

__all__ = [
    "TRACE_HEADER",
    "PARENT_SPAN_HEADER",
    "DEFAULT_TRACE_RING",
    "PROMETHEUS_CONTENT_TYPE",
    "TextPayload",
    "Tracer",
    "ObservabilityApi",
]

#: Request/response header carrying the trace id end to end.
TRACE_HEADER = "X-Trace-Id"

#: Request header naming the caller-side span a cross-process hop hangs
#: under.  Its presence tells the receiving service that the caller
#: wants the request's span subtree echoed back in the response
#: envelope, so the caller can graft it into its own tree (see
#: :meth:`~repro.tracing.Span.graft` and ``WorkerLeg._rpc``).
PARENT_SPAN_HEADER = "X-Parent-Span-Id"

#: Finished traces retained by default.
DEFAULT_TRACE_RING = 256

#: The Prometheus text exposition format ``GET /metrics`` serves.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclass(frozen=True, slots=True)
class TextPayload:
    """A non-JSON response body (the Prometheus exposition).

    Service methods normally return JSON-able dicts; returning one of
    these instead makes the HTTP handler write ``text`` verbatim under
    ``content_type``.
    """

    text: str
    content_type: str


# ----------------------------------------------------------------------
# The tracer: ring buffer + slow-query / access logs
# ----------------------------------------------------------------------
class Tracer:
    """Per-service trace registry and structured log writers."""

    def __init__(
        self,
        enabled: bool = True,
        ring: int = DEFAULT_TRACE_RING,
        slow_query_ms: float | None = None,
        slow_log_path: str | None = None,
        access_log_path: str | None = None,
    ) -> None:
        self.enabled = enabled
        self.ring_size = max(1, int(ring))
        self.slow_query_ms = slow_query_ms
        self._records: deque[dict[str, Any]] = deque(maxlen=self.ring_size)
        self._lock = threading.Lock()
        self._log_lock = threading.Lock()
        self._slow_log = self._open_log(slow_log_path)
        self._access_log = self._open_log(access_log_path)

    @staticmethod
    def _open_log(path: str | None) -> io.TextIOBase | None:
        if path is None:
            return None
        if path == "-":
            return sys.stderr  # type: ignore[return-value]
        return open(path, "a", encoding="utf-8", buffering=1)

    # -- request lifecycle --------------------------------------------
    def begin_request(
        self,
        endpoint: str,
        method: str,
        path: str,
        trace_id: str | None = None,
        parent_span_id: str | None = None,
    ) -> tracing.Span | None:
        """Open (and install) a request's root span; None when disabled.

        ``parent_span_id`` is the caller-side span named by the
        ``X-Parent-Span-Id`` header on a cross-process hop; recording it
        on the root both documents the parentage in this process's own
        trace ring and asks the dispatch layer to echo the finished
        subtree back to the caller for grafting.
        """
        if not self.enabled:
            return None
        root = tracing.Span(endpoint, method=method, path=path)
        root.trace_id = trace_id or tracing.new_trace_id()
        if parent_span_id:
            root.attrs["parent_span"] = parent_span_id
        tracing.install(root)
        return root

    def finish_request(
        self, root: tracing.Span, status: int
    ) -> dict[str, Any]:
        """Close the root span, record the trace, feed both logs."""
        root.finish()
        root.error = root.error or status >= 400
        duration_ms = (root.duration_s or 0.0) * 1000.0
        record: dict[str, Any] = {
            "trace_id": root.trace_id,
            "endpoint": root.name,
            "method": root.attrs.get("method"),
            "path": root.attrs.get("path"),
            "status": status,
            "error": root.error,
            "duration_ms": round(duration_ms, 3),
            "spans": root.to_dict(),
        }
        with self._lock:
            self._records.append(record)
        if self._access_log is not None:
            self._log_line(
                self._access_log,
                {
                    "ts": time.time(),
                    "kind": "access",
                    "trace_id": root.trace_id,
                    "method": record["method"],
                    "path": record["path"],
                    "endpoint": root.name,
                    "status": status,
                    "duration_ms": record["duration_ms"],
                },
            )
        if (
            self.slow_query_ms is not None
            and duration_ms >= self.slow_query_ms
        ):
            self._log_line(
                (self._slow_log or sys.stderr),
                {
                    "ts": time.time(),
                    "kind": "slow_query",
                    "threshold_ms": self.slow_query_ms,
                    **record,
                },
            )
        return record

    def release(self, root: tracing.Span) -> None:
        """Uninstall the root from the context variable (transport side)."""
        tracing.release(root)

    def _log_line(self, stream: Any, payload: Mapping[str, Any]) -> None:
        line = json.dumps(payload, default=repr)
        with self._log_lock:
            stream.write(line + "\n")

    # -- queries -------------------------------------------------------
    def records(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._records)

    def get(self, trace_id: str) -> dict[str, Any] | None:
        with self._lock:
            for record in reversed(self._records):
                if record["trace_id"] == trace_id:
                    return record
        return None

    def close(self) -> None:
        for stream in (self._slow_log, self._access_log):
            if stream is not None and stream is not sys.stderr:
                try:
                    stream.close()
                except OSError:  # pragma: no cover - best effort
                    pass


# ----------------------------------------------------------------------
# The HTTP surface, mixed into the router and the worker service
# ----------------------------------------------------------------------
def _query_flag(query: Mapping[str, str], key: str) -> bool | None:
    raw = query.get(key)
    if raw is None:
        return None
    if raw in ("1", "true", "yes"):
        return True
    if raw in ("0", "false", "no"):
        return False
    raise ApiError(400, f"{key!r} must be a boolean (true/false), got {raw!r}")


def _query_number(
    query: Mapping[str, str], key: str, minimum: float | None = None
) -> float | None:
    raw = query.get(key)
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ApiError(400, f"{key!r} must be a number, got {raw!r}") from None
    if value != value:  # NaN compares unequal to itself
        raise ApiError(400, f"{key!r} must be a number, got {raw!r}")
    if minimum is not None and value < minimum:
        raise ApiError(
            400, f"{key!r} must be >= {minimum:g}, got {raw!r}"
        )
    return value


def _query_int(
    query: Mapping[str, str], key: str, minimum: int | None = None
) -> int | None:
    """A strictly integral query parameter (``1.5`` is a 400, not 1)."""
    raw = query.get(key)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ApiError(
            400, f"{key!r} must be an integer, got {raw!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise ApiError(400, f"{key!r} must be >= {minimum}, got {raw!r}")
    return value


class ObservabilityApi:
    """``GET /traces``, ``GET /traces/<id>`` and ``GET /metrics``.

    Mixed into :class:`~repro.service.shards.ShardedQueryService` and
    the per-shard :class:`~repro.service.workers.ShardWorkerService`;
    relies only on their ``tracer`` and ``metrics`` attributes and
    ``kernel_memos``.
    """

    tracer: Tracer
    metrics: Any

    def kernel_memos(self) -> Mapping[int, Any]:
        """Shard index -> the :class:`~repro.query.memo.KernelMemo` this
        *process* holds for it (a router lists no worker-process leg:
        that worker's own ``/metrics`` does)."""
        raise NotImplementedError

    def traces_list(self, query: Mapping[str, str]):
        """Recent trace summaries, newest first, with optional filters."""
        endpoint = query.get("endpoint")
        min_ms = _query_number(query, "min_ms", minimum=0.0)
        error = _query_flag(query, "error")
        limit = _query_int(query, "limit", minimum=1)
        records = self.tracer.records()
        matched = []
        for record in reversed(records):
            if endpoint is not None and record["endpoint"] != endpoint:
                continue
            if min_ms is not None and record["duration_ms"] < min_ms:
                continue
            if error is not None and record["error"] != error:
                continue
            matched.append({k: v for k, v in record.items() if k != "spans"})
        if limit is not None:
            matched = matched[:limit]
        return {
            "enabled": self.tracer.enabled,
            "ring": self.tracer.ring_size,
            "count": len(matched),
            "traces": matched,
        }

    def traces_get(self, trace_id: str):
        """One full span tree by trace id."""
        record = self.tracer.get(trace_id)
        if record is None:
            raise ApiError(
                404,
                f"unknown trace {trace_id!r} (ring keeps the last "
                f"{self.tracer.ring_size})",
                "unknown_trace",
            )
        return record

    def metrics_text(self):
        """Prometheus text exposition of the metrics registry."""
        image_bytes = [
            ([("shard", shard), ("approach", approach)], block["bytes"])
            for shard, memo in sorted(self.kernel_memos().items())
            for approach, block in sorted(memo.stats()["scan_image"].items())
        ]
        gauges = [
            (
                "scan_image_bytes",
                "Bytes of decoded, laid-out kernels retained for filescans.",
                image_bytes,
            )
        ]
        return TextPayload(
            self.metrics.render_prometheus(gauges=gauges),
            PROMETHEUS_CONTENT_TYPE,
        )
