"""The HTTP front end: the wire contract, its transport and the server
lifecycle, in one module.

The stdlib ``ThreadingHTTPServer`` runs one daemonic thread per request.
This module defines everything a client sees of the JSON API, once:

* the route tables (exact paths and ``/jobs/<id>``-style prefixes;
  ``scripts/check_docs_links.py`` checks them against ``docs/API.md``);
* routing on the path alone (the query string is not part of the
  route), with a JSON 405 for unsupported methods;
* JSON body framing: its limit and the ``bad Content-Length``,
  ``payload_too_large``, ``incomplete_body`` and ``bad_json`` errors;
* ``(status, payload)`` normalization of service-method returns, with
  :class:`~repro.service.validation.ApiError` and unexpected exceptions
  mapped to structured error bodies;
* metrics observation and response rendering.

Every serving process -- the router of ``python -m repro serve``, a
service started in process, a shard worker -- runs one lifecycle, here:
:class:`ServiceHTTPServer` on a listening socket its caller bound (a
worker inherits its socket from the router), :func:`start` in a
background thread, :func:`run_until_stopped` in the foreground, and
:meth:`RunningService.stop` as the one stop rule.  The entry points:

* :func:`start_service` / :func:`start_sharded_service` -- start in a
  background thread on an ephemeral port, returning a
  :class:`RunningService` handle (tests, examples, benchmarks);
* :func:`serve_forever` -- blocking foreground server (the
  ``python -m repro serve`` command);
* ``python -m repro.service '<json>'`` -- one shard worker of
  :mod:`repro.service.workers`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import signal
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping

from .. import tracing
from . import trace
from .shards import QueryService, ShardedQueryService
from .validation import ApiError
from .workers import WorkerRouterService

__all__ = [
    "start_service",
    "start_sharded_service",
    "serve_forever",
    "RunningService",
]

#: Largest accepted request body; OCR batches are text, so 32 MiB is
#: generous while still bounding a misbehaving client.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: How long a stopping server lets the requests in flight finish before
#: it closes the service under them.  Under the 15 s a router gives a
#: worker to exit, so a worker always stops itself.
DRAIN_TIMEOUT_S = 10.0

#: How often the foreground loop looks at its stop event.
_STOP_POLL_S = 0.1

#: How often a server thread's accept loop looks for a stop request:
#: :meth:`RunningService.stop` waits up to this long before it drains.
#: (``socketserver``'s default of 0.5 s made every stop wait about that.)
_SERVE_POLL_S = 0.02

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

#: Endpoints that observe the service rather than serve data: they are
#: not traced themselves (a scrape loop or trace poll would otherwise
#: fill the trace ring with its own requests).
UNTRACED_ENDPOINTS = {"metrics_text", "traces_list", "traces_get"}

#: Per method: (exact table, prefix table, whether a JSON body is read).
_METHOD_TABLES: dict[str, tuple[dict, dict, bool]] = {
    "GET": (GET_ROUTES, GET_ARG_ROUTES, False),
    "POST": (POST_ROUTES, {}, True),
    "DELETE": (DELETE_ROUTES, DELETE_ARG_ROUTES, False),
}

#: Any other method is a JSON 405 whose ``Allow`` header lists these.
ALLOW_HEADER = ", ".join(sorted(_METHOD_TABLES))


@dataclass(frozen=True, slots=True)
class Routed:
    """One resolved route: the service method to call and how."""

    endpoint: str
    arg: str | None
    with_body: bool


def known_endpoints() -> list[str]:
    """Every public route, as quoted in 404 bodies and the startup banner."""
    return [
        f"{method} {path}"
        for method, (exact, by_prefix, _) in sorted(_METHOD_TABLES.items())
        for path in sorted(exact) + [f"{p}<id>" for p in sorted(by_prefix)]
    ]


def resolve(
    method: str,
    path: str,
    extra_routes: Mapping[tuple[str, str], str] | None = None,
) -> Routed:
    """Resolve ``(method, path)`` to a service method, or raise.

    Raises :class:`ApiError` 405 for methods outside the API (PUT, PATCH,
    HEAD, ...; without it ``http.server`` would answer an HTML 501) and
    404 for unrouted paths -- including a prefix route whose trailing
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
        raise ApiError(
            405,
            f"method {method} is not supported; allowed methods: "
            f"{ALLOW_HEADER}",
            "method_not_allowed",
        )
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
    raise ApiError(
        404, f"no route for {path!r}; endpoints: {known_endpoints()}",
        "not_found",
    )


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
            root = tracing.current_root()
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


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's service."""

    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"
    #: Socket timeout: without it a client that declares a Content-Length
    #: and never finishes sending would pin its handler thread forever.
    timeout = 60.0
    #: Responses go out as two writes (headers, then body).  With Nagle
    #: on, the body write sits in the kernel until the client ACKs the
    #: headers -- and once a keep-alive connection leaves Linux's
    #: initial quickack mode, that ACK is delayed ~40ms, stalling every
    #: request on a reused connection.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802 (http.server API)
        self._handle("DELETE")

    def __getattr__(self, name: str):
        # http.server dispatches on ``do_<METHOD>`` and answers an HTML
        # 501 page when the attribute is missing; synthesizing a handler
        # for every other method keeps the JSON-only contract (405 with
        # an Allow header) for PUT/PATCH/HEAD/anything else.
        if name.startswith("do_"):
            return lambda: self._handle(name[3:])
        raise AttributeError(name)

    # ------------------------------------------------------------------
    def _handle(self, method: str) -> None:
        # Counted in flight, so a stopping server lets it finish.
        with self.server.serving():
            self._respond(method)

    def _respond(self, method: str) -> None:
        started = time.perf_counter()
        target = urllib.parse.urlsplit(self.path)
        declared = self.headers.get("Content-Length")
        # A declared body no handler reads -- an unrouted request, a
        # HEAD, a GET/DELETE with a body -- stays on the socket, and
        # reusing the connection would parse it as the next request.
        unread_body = bool(declared) and declared != "0"
        service = self.server.service
        try:
            routed = resolve(
                method, target.path, getattr(service, "EXTRA_ROUTES", None)
            )
        except ApiError as exc:
            if unread_body:
                self.close_connection = True
            self._finish(
                "unknown", exc.status, exc.to_payload(), started,
                suppress_body=method == "HEAD",
            )
            return
        tracer = getattr(service, "tracer", None)
        root = None
        if tracer is not None and routed.endpoint not in UNTRACED_ENDPOINTS:
            root = tracer.begin_request(
                routed.endpoint,
                method,
                self.path,
                self.headers.get(trace.TRACE_HEADER),
                parent_span_id=self.headers.get(trace.PARENT_SPAN_HEADER),
            )
        try:
            payload: object = None
            if routed.with_body:
                try:
                    with tracing.span("read_body"):
                        payload = self._read_json(declared)
                except ApiError as exc:
                    self._finish(
                        routed.endpoint, exc.status, exc.to_payload(), started
                    )
                    return
            elif unread_body:
                self.close_connection = True
            query = {
                key: values[-1]  # last value wins
                for key, values in urllib.parse.parse_qs(
                    target.query, keep_blank_values=True
                ).items()
            }
            with tracing.span("handler"):
                status, result = dispatch(service, routed, payload, query)
            self._finish(routed.endpoint, status, result, started)
        finally:
            if root is not None:
                tracer.release(root)

    def _read_json(self, declared: str | None) -> object:
        """The request's JSON body, framed by its ``Content-Length``.

        Until the declared body is read in full, an error leaves request
        bytes on the socket, so it also drops keep-alive -- notably the
        413: answering ``payload_too_large`` without reading 33 MiB is
        the point, but the connection cannot be reused after.
        """
        keep_alive = not self.close_connection
        self.close_connection = True
        try:
            length = int(declared or 0)
        except ValueError:
            raise ApiError(400, "bad Content-Length header") from None
        if length <= 0:
            raise ApiError(400, "request needs a JSON body")
        if length > MAX_BODY_BYTES:
            raise ApiError(
                413, f"body exceeds {MAX_BODY_BYTES} bytes",
                "payload_too_large",
            )
        # One read() is not enough: a client that stalls or disconnects
        # mid-body yields a short read, which json.loads would misreport
        # as bad_json.  Loop until the declared length arrives (bounded
        # by the handler's socket timeout) and give truncation its own
        # error code.
        chunks: list[bytes] = []
        received = 0
        while received < length:
            try:
                chunk = self.rfile.read(length - received)
            except TimeoutError:
                chunk = b""
            if not chunk:
                raise ApiError(
                    400,
                    f"request body ended after {received} of {length} "
                    "declared bytes",
                    "incomplete_body",
                )
            chunks.append(chunk)
            received += len(chunk)
        self.close_connection = not keep_alive
        try:
            return json.loads(b"".join(chunks))
        except json.JSONDecodeError as exc:
            raise ApiError(
                400, f"invalid JSON body: {exc}", "bad_json"
            ) from None

    def _finish(
        self,
        endpoint: str,
        status: int,
        payload: object,
        started: float,
        suppress_body: bool = False,
    ) -> None:
        """Time the request into the metrics registry, render and write
        the response, and -- when the request is being traced -- close
        out its span tree (serialization span, trace record,
        slow-query/access log lines, ``X-Trace-Id`` response header)."""
        service = self.server.service
        elapsed = time.perf_counter() - started
        service.metrics.observe(
            "requests", (endpoint,), elapsed, status >= 400
        )
        with tracing.span("serialize"):
            if isinstance(payload, trace.TextPayload):
                body = payload.text.encode("utf-8")
                content_type = payload.content_type
            else:
                body = json.dumps(payload).encode("utf-8")
                content_type = "application/json"
        tracer = getattr(service, "tracer", None)
        root = tracing.current_root() if tracer is not None else None
        if root is not None:
            tracer.finish_request(root, status=status)
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if status == 405:
                self.send_header("Allow", ALLOW_HEADER)
            if root is not None and root.trace_id:
                self.send_header(trace.TRACE_HEADER, root.trace_id)
            self.end_headers()
            if not suppress_body:  # HEAD states the length, sends no body
                self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to salvage

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers, on a
    listening socket bound by its caller: the router binds ``(host,
    port)``, a shard worker wraps the socket it inherits from the router.

    It counts the requests its handlers are serving, so a stop can wait
    for them (:meth:`drain`).  An idle keep-alive connection is not a
    request: its daemonic handler thread never holds the exit.
    """

    daemon_threads = True

    def __init__(
        self,
        listener: socket.socket,
        service: ShardedQueryService,
        verbose: bool = False,
    ) -> None:
        super().__init__(
            listener.getsockname(),
            ServiceRequestHandler,
            bind_and_activate=False,
        )
        self.socket.close()
        self.socket = listener
        self.service = service
        self.verbose = verbose
        self._busy = 0
        self._idle = threading.Condition()

    @contextlib.contextmanager
    def serving(self):
        """Count one request in flight for as long as the block runs."""
        with self._idle:
            self._busy += 1
        try:
            yield
        finally:
            with self._idle:
                self._busy -= 1
                if not self._busy:
                    self._idle.notify_all()

    def drain(self, timeout_s: float) -> None:
        """Wait until no request is in flight, for at most ``timeout_s``."""
        with self._idle:
            self._idle.wait_for(lambda: not self._busy, timeout_s)


def listen(host: str, port: int) -> socket.socket:
    """The router's listening socket; port 0 picks one free.  The
    socketserver default backlog of 5 drops SYNs under a burst of fresh
    connections (the client then waits out a ~1s retransmit)."""
    return socket.create_server((host, port), backlog=128)


@dataclass
class RunningService:
    """A service running in a background thread, with clean shutdown."""

    service: ShardedQueryService
    server: ServiceHTTPServer
    thread: threading.Thread

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def base_url(self) -> str:
        host = self.server.server_address[0]
        return f"http://{host}:{self.port}"

    def stop(self) -> None:
        """The one stop rule of every serving process: stop accepting,
        let the requests in flight finish (for at most
        :data:`DRAIN_TIMEOUT_S`), then close the service."""
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.server.drain(DRAIN_TIMEOUT_S)
        self.service.close()

    def __enter__(self) -> "RunningService":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start(
    listener: socket.socket, make_service, verbose: bool = False
) -> RunningService:
    """Build the service (``make_service()``) and serve it on
    ``listener`` in a daemon thread; a failed build closes the socket."""
    try:
        service = make_service()
    except BaseException:
        listener.close()
        raise
    server = ServiceHTTPServer(listener, service, verbose=verbose)
    thread = threading.Thread(
        target=server.serve_forever,
        args=(_SERVE_POLL_S,),
        name="staccato-service",
        daemon=True,
    )
    thread.start()
    return RunningService(service=service, server=server, thread=thread)


def run_until_stopped(
    running: RunningService, watch_parent: bool = False
) -> None:
    """Serve until SIGTERM or SIGINT -- or, with ``watch_parent``, until
    this process's parent is gone -- then :meth:`RunningService.stop`.

    Call it from the main thread.  A signal only sets the stop event, so
    a second one during the stop changes nothing; one the launcher set
    to be ignored (SIGINT of a background job) stays ignored.  The loop
    polls the event rather than blocking in ``Event.wait``: the handlers
    run on this thread, and one landing while ``wait`` held the event's
    lock would deadlock on it.  A worker watches its parent because a
    SIGKILLed router never stops its workers, which would otherwise
    outlive it, re-parented and still accepting.
    """
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        if signal.getsignal(signum) is not signal.SIG_IGN:
            signal.signal(signum, lambda *_: stop.set())
    parent = os.getppid()
    try:
        while not stop.is_set():
            if watch_parent and os.getppid() != parent:
                break
            time.sleep(_STOP_POLL_S)
    finally:
        running.stop()


def start_service(
    db_path: str,
    host: str = "127.0.0.1",
    port: int = 0,
    **service_kwargs,
) -> RunningService:
    """Start a service over one database file in a daemon thread."""
    return start(
        listen(host, port),
        functools.partial(QueryService, db_path, **service_kwargs),
    )


def _shard_router(worker_procs: bool) -> type[ShardedQueryService]:
    """The router class for a topology: the legs are all that differ."""
    return WorkerRouterService if worker_procs else ShardedQueryService


def start_sharded_service(
    shard_dir: str,
    num_shards: int,
    host: str = "127.0.0.1",
    port: int = 0,
    worker_procs: bool = False,
    **service_kwargs,
) -> RunningService:
    """Start a sharded query service in a daemon thread (tests, examples).

    ``worker_procs`` puts each shard in a worker *process* (see
    :mod:`repro.service.workers`) behind the same router and the same
    wire contract.
    """
    return start(
        listen(host, port),
        functools.partial(
            _shard_router(worker_procs), shard_dir, num_shards,
            **service_kwargs,
        ),
    )


def serve_forever(
    db_path: str | None = None,
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = True,
    shards: int = 0,
    shard_dir: str | None = None,
    replicas: int = 1,
    worker_procs: bool = False,
    **service_kwargs,
) -> None:
    """Run the service in the foreground until SIGTERM or SIGINT (the
    ``python -m repro serve`` command, which checks the arguments).

    Pass ``db_path`` to serve one database file, or ``shards`` and
    ``shard_dir`` for a shard layout; either way the service is the
    router of :mod:`repro.service.shards`, with ``replicas`` read copies
    per shard.  ``worker_procs`` promotes each shard of a layout to a
    worker subprocess (see :mod:`repro.service.workers`) behind the same
    router.
    """
    if shards > 0:
        make_service = functools.partial(
            _shard_router(worker_procs), shard_dir, shards,
            replicas=replicas, **service_kwargs,
        )
        target = f"shards={shards} dir={shard_dir} replicas={replicas}"
        if worker_procs:
            target += " worker-procs"
    else:
        make_service = functools.partial(
            QueryService, db_path, replicas=replicas, **service_kwargs
        )
        target = f"db={db_path} replicas={replicas}"
    running = start(listen(host, port), make_service, verbose=verbose)
    print(f"staccato service listening on {running.base_url} ({target})")
    print("endpoints: " + ", ".join(known_endpoints()))
    run_until_stopped(running)
