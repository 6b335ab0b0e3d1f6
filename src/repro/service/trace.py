"""Span-based request tracing for the query service.

Aggregate percentiles (``/stats``) say *that* a request was slow; a
trace says *where*.  Every handled request records a tree of
:class:`Span`\\ s -- body read, validation, cache probe, plan choice,
per-shard fan-out legs, per-replica attempts (with breaker state and
failover retries), executor queue wait, engine scan detail, merge and
serialization -- into a bounded in-memory ring queryable over HTTP:

* ``GET /traces`` -- recent trace summaries, filterable by
  ``endpoint``, ``min_ms`` and ``error``;
* ``GET /traces/<id>`` -- one full span tree;
* ``"trace": true`` on any POST body -- echo the request's own tree
  inline in the response.

Propagation is a :mod:`contextvars` variable plus an ``X-Trace-Id``
header.  One subtlety carries the whole design: **context variables do
not flow across executor hops** -- ``loop.run_in_executor`` and
``ThreadPoolExecutor.map`` run callables in whatever context the worker
thread last had.  Every fan-out point therefore captures the caller's
current span explicitly and re-installs it in the worker via
:func:`attach` (the sharded fan-out, the asyncio dispatch executor and
the job workers all do this).

The tracer also owns the two structured logs built on the same span
data: the slow-query log (``serve --slow-query-ms N``; JSON lines with
the span breakdown) and the access log (``serve --access-log PATH``;
one JSON line per request).  Both require tracing to be enabled (the
default); ``--no-trace`` turns the whole layer into a no-op whose only
residual cost is one context-variable read per instrumentation point.
"""

from __future__ import annotations

import contextlib
import contextvars
import io
import json
import sys
import threading
import time
import uuid
from collections import deque
from typing import Any, Callable, Iterator, Mapping

from .validation import ApiError

__all__ = [
    "TRACE_HEADER",
    "PARENT_SPAN_HEADER",
    "DEFAULT_TRACE_RING",
    "Span",
    "Tracer",
    "ObservabilityApi",
    "current_span",
    "current_root",
    "span",
    "attach",
    "bind",
]

#: Request/response header carrying the trace id end to end.
TRACE_HEADER = "X-Trace-Id"

#: Request header naming the caller-side span a cross-process hop hangs
#: under.  Its presence tells the receiving service that the caller
#: wants the request's span subtree echoed back in the response
#: envelope, so the caller can graft it into its own tree (see
#: :meth:`Span.graft` and ``WorkerLeg._rpc``).
PARENT_SPAN_HEADER = "X-Parent-Span-Id"

#: Finished traces retained by default.
DEFAULT_TRACE_RING = 256

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "staccato_current_span", default=None
)


def _new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One timed operation inside a request; children are sub-steps.

    Durations come from ``perf_counter``; the wall-clock start is kept
    on the root only (via the trace record).  ``children.append`` from
    concurrent fan-out legs is safe (list.append is atomic under the
    GIL); the tree is only serialized after every leg has joined.
    """

    __slots__ = (
        "name",
        "attrs",
        "parent",
        "trace_id",
        "error",
        "children",
        "grafts",
        "duration_s",
        "_t0",
        "_token",
        "_span_id",
    )

    def __init__(self, name: str, parent: "Span | None" = None, **attrs: Any):
        self.name = name
        self.attrs = dict(attrs)
        self.parent = parent
        self.trace_id: str | None = None
        self.error = False
        self.children: list[Span] = []
        self.grafts: list[dict[str, Any]] = []
        self.duration_s: float | None = None
        self._t0 = time.perf_counter()
        self._token: contextvars.Token | None = None
        self._span_id: str | None = None

    @property
    def span_id(self) -> str:
        """A stable id for this span, minted on first use.

        Only spans that cross a process boundary ever need one, so it
        is lazy -- the common single-process span pays nothing.
        """
        if self._span_id is None:
            self._span_id = _new_trace_id()
        return self._span_id

    def annotate(self, **attrs: Any) -> None:
        """Attach key/value detail (postings fetched, plan label, ...)."""
        self.attrs.update(attrs)

    def graft(self, subtree: Mapping[str, Any], **attrs: Any) -> None:
        """Adopt a span subtree serialized by another process.

        The subtree is the remote root's ``to_dict`` output, kept as-is
        (its ``start_ms`` offsets are relative to the *remote* root --
        two processes share no clock) and emitted among this span's
        children at serialization time.  ``attrs`` annotate the remote
        root (worker index, pid) and a ``remote`` marker distinguishes
        grafted nodes from locally timed ones.  ``list.append`` is
        atomic under the GIL, so concurrent fan-out legs may graft onto
        a shared parent just like they append child spans.
        """
        node = dict(subtree)
        node["attrs"] = {
            **node.get("attrs", {}),
            **attrs,
            "remote": True,
        }
        self.grafts.append(node)

    def finish(self) -> None:
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self._t0

    @property
    def elapsed_s(self) -> float:
        """Final duration, or time-so-far for a still-open span."""
        if self.duration_s is not None:
            return self.duration_s
        return time.perf_counter() - self._t0

    def to_dict(self, base: float | None = None) -> dict[str, Any]:
        """The JSON span tree; offsets are relative to ``base`` (root)."""
        base = self._t0 if base is None else base
        node: dict[str, Any] = {
            "name": self.name,
            "start_ms": round((self._t0 - base) * 1000.0, 3),
            "duration_ms": round(self.elapsed_s * 1000.0, 3),
        }
        if self.error:
            node["error"] = True
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.children or self.grafts:
            node["children"] = [
                c.to_dict(base) for c in self.children
            ] + list(self.grafts)
        return node


# ----------------------------------------------------------------------
# Context propagation
# ----------------------------------------------------------------------
def current_span() -> Span | None:
    """The span this thread/task is currently inside (or None)."""
    return _CURRENT.get()


def current_root() -> Span | None:
    """The root of the current request's span tree (or None)."""
    node = _CURRENT.get()
    while node is not None and node.parent is not None:
        node = node.parent
    return node


@contextlib.contextmanager
def span(name: str, **attrs: Any) -> Iterator[Span | None]:
    """Open a child span under the current one; a no-op when untraced.

    Yields the new :class:`Span` (for :meth:`Span.annotate`) or None
    when the request is not being traced, so instrumentation points
    never need to know whether tracing is on.
    """
    parent = _CURRENT.get()
    if parent is None:
        yield None
        return
    child = Span(name, parent=parent, **attrs)
    parent.children.append(child)
    token = _CURRENT.set(child)
    try:
        yield child
    except BaseException:
        child.error = True
        raise
    finally:
        child.finish()
        _CURRENT.reset(token)


@contextlib.contextmanager
def attach(parent: Span | None) -> Iterator[None]:
    """Install ``parent`` as this thread's current span.

    The explicit half of executor-hop propagation: the caller captures
    :func:`current_span` *before* submitting work, and the worker wraps
    its body in ``attach(captured)``.
    """
    token = _CURRENT.set(parent)
    try:
        yield
    finally:
        _CURRENT.reset(token)


def bind(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap ``fn`` so it runs under the caller's *current* span.

    For handing callables to ``ThreadPoolExecutor.map`` /
    ``run_in_executor``, which would otherwise run them with no (or a
    stale) trace context.
    """
    parent = _CURRENT.get()
    if parent is None:
        return fn

    def bound(*args: Any, **kwargs: Any) -> Any:
        with attach(parent):
            return fn(*args, **kwargs)

    return bound


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
    ) -> Span | None:
        """Open (and install) a request's root span; None when disabled.

        ``parent_span_id`` is the caller-side span named by the
        ``X-Parent-Span-Id`` header on a cross-process hop; recording it
        on the root both documents the parentage in this process's own
        trace ring and asks the dispatch layer to echo the finished
        subtree back to the caller for grafting.
        """
        if not self.enabled:
            return None
        root = Span(endpoint, method=method, path=path)
        root.trace_id = trace_id or _new_trace_id()
        if parent_span_id:
            root.attrs["parent_span"] = parent_span_id
        root._token = _CURRENT.set(root)
        return root

    def finish_request(self, root: Span, status: int) -> dict[str, Any]:
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

    def release(self, root: Span) -> None:
        """Uninstall the root from the context variable (transport side)."""
        if root._token is not None:
            try:
                _CURRENT.reset(root._token)
            except ValueError:  # reset from a different context: best effort
                _CURRENT.set(None)
            root._token = None

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
        from .http_common import PROMETHEUS_CONTENT_TYPE, TextPayload

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

    def profile(self, query: Mapping[str, str]):
        """The sampling profiler's aggregate (``GET /profile``).

        Default is a JSON summary (top self-time frames plus the
        heaviest collapsed stacks); ``?format=collapsed`` answers plain
        collapsed-stack text that flamegraph tools consume directly.
        ``?top=N`` bounds both listings.
        """
        from .http_common import TextPayload

        profiler = getattr(self, "profiler", None)
        if profiler is None:
            raise ApiError(
                404,
                "this service has no profiler (start with --profile-hz N)",
                "profiler_disabled",
            )
        fmt = query.get("format", "json")
        if fmt not in ("json", "collapsed"):
            raise ApiError(
                400, f"'format' must be 'json' or 'collapsed', got {fmt!r}"
            )
        top = _query_int(query, "top", minimum=1)
        if fmt == "collapsed":
            return TextPayload(profiler.render_collapsed(top=top))
        return profiler.snapshot(top=top)
