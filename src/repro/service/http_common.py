"""The transport-independent core of the HTTP layer.

Everything that defines the wire contract of the JSON API lives here,
once:

* the route tables (exact paths and ``/jobs/<id>``-style prefixes);
* request-target splitting (the query string is not part of the route);
* method dispatch, including the JSON 405 for unsupported methods;
* JSON body framing limits and error codes (``bad Content-Length``,
  ``payload_too_large``, ``incomplete_body``, ``bad_json``);
* ``(status, payload)`` normalization of service-method returns, with
  :class:`~repro.service.validation.ApiError` and unexpected exceptions
  mapped to structured error bodies;
* metrics observation and response encoding.

The front end (:mod:`repro.service.server`) owns only the transport:
socket accept/read/write and timeouts.
"""

from __future__ import annotations

import json
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Mapping

from . import trace
from .validation import ApiError

__all__ = [
    "MAX_BODY_BYTES",
    "ALLOWED_METHODS",
    "ALLOW_HEADER",
    "GET_ROUTES",
    "POST_ROUTES",
    "DELETE_ROUTES",
    "GET_ARG_ROUTES",
    "DELETE_ARG_ROUTES",
    "QUERY_ROUTES",
    "UNTRACED_ENDPOINTS",
    "PROMETHEUS_CONTENT_TYPE",
    "Routed",
    "HttpResponse",
    "TextPayload",
    "split_path",
    "split_query",
    "resolve",
    "not_found",
    "method_not_allowed",
    "unread_body",
    "body_length",
    "incomplete_body",
    "decode_json",
    "dispatch",
    "respond",
]

#: Largest accepted request body; OCR batches are text, so 32 MiB is
#: generous while still bounding a misbehaving client.
MAX_BODY_BYTES = 32 * 1024 * 1024

GET_ROUTES = {
    "/health": "health",
    "/stats": "stats",
    "/jobs": "jobs_list",
    "/metrics": "metrics_text",
    "/traces": "traces_list",
}
POST_ROUTES = {
    "/ingest": "ingest",
    "/search": "search",
    "/sql": "sql",
    "/index": "index_job",
    "/replicas": "replicas",
    "/jobs": "jobs_submit",
}
DELETE_ROUTES: dict[str, str] = {}
#: Prefix routes: the path segment after the prefix is passed to the
#: service method as its argument (e.g. ``GET /jobs/<id>``).  The
#: segment must not itself contain ``/`` -- ``/jobs/a/b`` is a 404,
#: not a lookup of the id ``"a/b"``.
GET_ARG_ROUTES = {"/jobs/": "jobs_get", "/traces/": "traces_get"}
DELETE_ARG_ROUTES = {"/jobs/": "jobs_cancel"}

#: Endpoints that receive the parsed query string (``?endpoint=search``)
#: instead of a body or path argument.
QUERY_ROUTES = {"traces_list"}

#: The Prometheus text exposition format ``GET /metrics`` serves.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Methods the API serves; anything else is a JSON 405 whose ``Allow``
#: header lists exactly these.
ALLOWED_METHODS = ("DELETE", "GET", "POST")
ALLOW_HEADER = ", ".join(ALLOWED_METHODS)

#: Per method: (exact table, prefix table, whether a JSON body is read).
_METHOD_TABLES: dict[str, tuple[dict, dict, bool]] = {
    "GET": (GET_ROUTES, GET_ARG_ROUTES, False),
    "POST": (POST_ROUTES, {}, True),
    "DELETE": (DELETE_ROUTES, DELETE_ARG_ROUTES, False),
}


@dataclass(frozen=True, slots=True)
class Routed:
    """One resolved route: the service method to call and how."""

    endpoint: str
    arg: str | None
    with_body: bool


@dataclass(frozen=True, slots=True)
class TextPayload:
    """A non-JSON response body (e.g. the Prometheus exposition).

    Service methods normally return JSON-able dicts; returning one of
    these instead makes :func:`respond` write ``text`` verbatim under
    ``content_type``.
    """

    text: str
    content_type: str = "text/plain; charset=utf-8"


@dataclass(slots=True)
class HttpResponse:
    """A fully rendered response, ready for the transport to write."""

    status: int
    body: bytes
    headers: list[tuple[str, str]] = field(default_factory=list)


def split_path(target: str) -> str:
    """The routable path of a request target (query string dropped).

    ``GET /health?probe=1`` routes as ``/health``; routing on the raw
    target would 404 every URL with a query string.
    """
    return urllib.parse.urlsplit(target).path


def split_query(target: str) -> dict[str, str]:
    """The request target's query string as a flat dict (last value wins)."""
    raw = urllib.parse.parse_qs(
        urllib.parse.urlsplit(target).query, keep_blank_values=True
    )
    return {key: values[-1] for key, values in raw.items()}


def known_endpoints() -> list[str]:
    """Every public route, as quoted in 404 bodies and the startup banner."""
    return [
        f"{method} {path}"
        for method, (exact, by_prefix, _) in sorted(_METHOD_TABLES.items())
        for path in sorted(exact) + [f"{p}<id>" for p in sorted(by_prefix)]
    ]


def not_found(path: str) -> ApiError:
    return ApiError(
        404, f"no route for {path!r}; endpoints: {known_endpoints()}",
        "not_found",
    )


def method_not_allowed(method: str) -> ApiError:
    """The JSON 405 for PUT/PATCH/HEAD/anything else.

    Without this, the request would fall through to ``http.server``'s
    default HTML 501 page, breaking the JSON-only contract.
    :func:`respond` adds ``Allow: DELETE, GET, POST`` to every 405.
    """
    return ApiError(
        405,
        f"method {method} is not supported; allowed methods: "
        f"{ALLOW_HEADER}",
        "method_not_allowed",
    )


def resolve(
    method: str,
    path: str,
    extra_routes: Mapping[tuple[str, str], str] | None = None,
) -> Routed:
    """Resolve ``(method, path)`` to a service method, or raise.

    Raises :class:`ApiError` 405 for methods outside the API and 404
    for unrouted paths -- including a prefix route whose trailing
    segment contains ``/`` (``GET /jobs/abc/def`` must not leak
    ``"abc/def"`` into a job lookup and answer a confusing
    ``job_not_found``).

    ``extra_routes`` maps ``(method, exact_path) -> endpoint`` for
    routes a *specific service instance* serves beyond the public
    contract -- the shard worker processes of
    :mod:`repro.service.workers` expose their internal ``/worker/*``
    RPC surface this way (the handler reads it off
    ``service.EXTRA_ROUTES``).  Keeping these out of the module-level
    tables keeps the public wire contract -- and the docs that are
    checked against it -- unchanged.
    """
    tables = _METHOD_TABLES.get(method)
    if tables is None:
        raise method_not_allowed(method)
    exact, by_prefix, with_body = tables
    endpoint = exact.get(path)
    if endpoint is not None:
        return Routed(endpoint, None, with_body)
    for prefix, endpoint in by_prefix.items():
        if path.startswith(prefix) and len(path) > len(prefix):
            arg = path[len(prefix):]
            if "/" not in arg:
                return Routed(endpoint, arg, with_body)
    if extra_routes:
        endpoint = extra_routes.get((method, path))
        if endpoint is not None:
            return Routed(endpoint, None, with_body)
    raise not_found(path)


# ----------------------------------------------------------------------
# JSON body framing
# ----------------------------------------------------------------------
def _framing_error(status: int, message: str, code: str = "bad_request") -> ApiError:
    """An error that leaves request bytes unread -> must drop keep-alive."""
    error = ApiError(status, message, code)
    error.close_connection = True
    return error


def unread_body(content_length: str | None) -> bool:
    """True when a request declared a body no handler will consume.

    Used for unrouted/unsupported requests (404/405, including HEAD --
    the *response* body is suppressed but the *request* body is still
    on the socket) and for GET/DELETE sent with a body: the transport
    must close after responding or those bytes become the next
    "request".
    """
    return bool(content_length) and content_length != "0"


def body_length(raw: str | None) -> int:
    """Validate a ``Content-Length`` header for a body-carrying route.

    Every error here is a framing error (the declared body, if any,
    stays unread), so each carries ``close_connection`` -- notably the
    413: answering ``payload_too_large`` without reading 33 MiB is the
    point, but the connection cannot be reused after.
    """
    try:
        length = int(raw or 0)
    except (TypeError, ValueError):
        raise _framing_error(400, "bad Content-Length header") from None
    if length <= 0:
        raise _framing_error(400, "request needs a JSON body")
    if length > MAX_BODY_BYTES:
        raise _framing_error(
            413, f"body exceeds {MAX_BODY_BYTES} bytes", "payload_too_large"
        )
    return length


def incomplete_body(received: int, length: int) -> ApiError:
    """The client stalled or hung up mid-body (transport detected)."""
    return _framing_error(
        400,
        f"request body ended after {received} of {length} declared bytes",
        "incomplete_body",
    )


def decode_json(raw: bytes) -> object:
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ApiError(400, f"invalid JSON body: {exc}", "bad_json") from None


# ----------------------------------------------------------------------
# Dispatch and response rendering
# ----------------------------------------------------------------------
#: Endpoints that observe the service rather than serve data: they are
#: not traced themselves (a scrape loop or trace poll would otherwise
#: fill the trace ring with its own requests).
UNTRACED_ENDPOINTS = {"metrics_text", "traces_list", "traces_get"}


def dispatch(
    service,
    routed: Routed,
    payload: object = None,
    query: Mapping[str, str] | None = None,
) -> tuple[int, dict]:
    """Call the routed service method; normalize to ``(status, payload)``.

    A method may return a bare payload (200) or ``(status, payload)``
    -- e.g. job submission answers 202 Accepted with the queued job
    row.  ApiError becomes its structured body; anything else is a
    defensive 500 so one bad request can never take the worker down.

    A body containing ``"trace": true`` gets the request's own span
    tree (as recorded so far -- serialization still lies ahead) echoed
    under ``"trace"`` in a successful response; a request that arrived
    with an ``X-Parent-Span-Id`` header (a cross-process hop from the
    worker router) gets the same echo unconditionally, so the caller
    can graft this process's subtree into its own trace.
    """
    try:
        method = getattr(service, routed.endpoint, None)
        if method is None:
            # A public route this service does not implement (a shard
            # worker process serves only its private RPC surface).
            raise ApiError(
                404, f"{routed.endpoint!r} is not served here", "not_found"
            )
        if routed.endpoint in QUERY_ROUTES:
            result = method(query or {})
        elif routed.with_body:
            result = method(payload)
        elif routed.arg is not None:
            result = method(routed.arg)
        else:
            result = method()
        if (
            isinstance(result, tuple)
            and len(result) == 2
            and isinstance(result[0], int)
        ):
            status, result = result
        else:
            status = 200
        if isinstance(result, dict):
            want_trace = (
                isinstance(payload, Mapping) and payload.get("trace") is True
            )
            root = trace.current_root()
            stitching = root is not None and root.attrs.get("parent_span")
            if root is not None and (want_trace or stitching):
                # Copy before annotating: the handler may have returned
                # a dict the result cache also holds.
                result = dict(result)
                result["trace"] = {
                    "trace_id": root.trace_id,
                    "spans": root.to_dict(),
                }
        return status, result
    except ApiError as exc:
        return exc.status, exc.to_payload()
    except Exception as exc:  # pragma: no cover - defensive boundary
        error = ApiError(500, f"{type(exc).__name__}: {exc}", "internal_error")
        return 500, error.to_payload()


def respond(
    service,
    endpoint: str,
    status: int,
    payload: dict,
    started: float,
) -> HttpResponse:
    """Time the request into the metrics registry, render the body, and
    -- when the request is being traced -- close out its span tree
    (serialization span, trace record, slow-query/access log lines,
    ``X-Trace-Id`` response header)."""
    elapsed = time.perf_counter() - started
    service.metrics.observe("requests", (endpoint,), elapsed, status >= 400)
    with trace.span("serialize"):
        if isinstance(payload, TextPayload):
            body = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
    headers = [
        ("Content-Type", content_type),
        ("Content-Length", str(len(body))),
    ]
    if status == 405:
        headers.append(("Allow", ALLOW_HEADER))
    tracer = getattr(service, "tracer", None)
    root = trace.current_root() if tracer is not None else None
    if root is not None:
        tracer.finish_request(root, status=status)
        if root.trace_id:
            headers.append((trace.TRACE_HEADER, root.trace_id))
    return HttpResponse(status=status, body=body, headers=headers)
