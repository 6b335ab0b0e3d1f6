"""The HTTP front end and the server lifecycle.

A thin shim over the stdlib ``ThreadingHTTPServer`` (one daemonic thread
per request).  Routing, JSON framing and response rendering live in
:mod:`repro.service.http_common`; this module owns the transport.

Two entry points:

* :func:`start_service` / :func:`start_sharded_service` -- start in a
  background thread on an ephemeral port, returning a
  :class:`RunningService` handle (tests, examples, benchmarks);
* :func:`serve_forever` -- blocking foreground server (the
  ``python -m repro serve`` command).
"""

from __future__ import annotations

import contextlib
import signal
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import trace
from .http_common import (
    MAX_BODY_BYTES,  # noqa: F401  (re-exported; the historical home)
    UNTRACED_ENDPOINTS,
    body_length,
    decode_json,
    dispatch,
    incomplete_body,
    known_endpoints,
    resolve,
    respond,
    split_path,
    split_query,
    unread_body,
)
from .shards import QueryService, ShardedQueryService
from .validation import ApiError

__all__ = [
    "build_server",
    "start_service",
    "start_sharded_service",
    "serve_forever",
    "RunningService",
]


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
        started = time.perf_counter()
        declared = self.headers.get("Content-Length")
        try:
            routed = resolve(
                method,
                split_path(self.path),
                getattr(self.server.service, "EXTRA_ROUTES", None),
            )
        except ApiError as exc:
            if unread_body(declared):
                # The body was never read; reusing the connection would
                # parse those bytes as the next request.
                self.close_connection = True
            self._finish(
                "unknown", exc.status, exc.to_payload(), started,
                suppress_body=method == "HEAD",
            )
            return
        service = self.server.service
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
                    with trace.span("read_body"):
                        payload = self._read_json(declared)
                except ApiError as exc:
                    if exc.close_connection:  # framing error: body unread
                        self.close_connection = True
                    self._finish(
                        routed.endpoint, exc.status, exc.to_payload(), started
                    )
                    return
            elif unread_body(declared):
                self.close_connection = True  # GET/DELETE body left unread
            with trace.span("handler"):
                status, result = dispatch(
                    service, routed, payload, split_query(self.path)
                )
            self._finish(routed.endpoint, status, result, started)
        finally:
            if root is not None:
                tracer.release(root)

    def _finish(
        self,
        endpoint: str,
        status: int,
        payload: dict,
        started: float,
        suppress_body: bool = False,
    ) -> None:
        response = respond(
            self.server.service, endpoint, status, payload, started
        )
        try:
            self.send_response(status)
            for name, value in response.headers:
                self.send_header(name, value)
            self.end_headers()
            if not suppress_body:  # HEAD states the length, sends no body
                self.wfile.write(response.body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to salvage

    def _read_json(self, declared: str | None) -> object:
        length = body_length(declared)
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
                # incomplete_body carries close_connection: bytes the
                # client sends after the stall would otherwise be
                # parsed as the next request.
                raise incomplete_body(received, length)
            chunks.append(chunk)
            received += len(chunk)
        return decode_json(b"".join(chunks))

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers."""

    daemon_threads = True
    #: The socketserver default backlog of 5 drops SYNs under a burst of
    #: fresh connections (the client then waits out a ~1s retransmit).
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        service: ShardedQueryService,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self.verbose = verbose


def build_server(
    service: ShardedQueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ServiceHTTPServer:
    """Bind (but do not run) the server; port 0 picks one free."""
    return ServiceHTTPServer((host, port), service, verbose=verbose)


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
        """Stop serving, join the thread and close every connection."""
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.service.close()

    def __enter__(self) -> "RunningService":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _start_in_thread(
    service: ShardedQueryService, host: str, port: int
) -> RunningService:
    server = build_server(service, host=host, port=port)
    thread = threading.Thread(
        target=server.serve_forever, name="staccato-service", daemon=True
    )
    thread.start()
    return RunningService(service=service, server=server, thread=thread)


def start_service(
    db_path: str,
    host: str = "127.0.0.1",
    port: int = 0,
    **service_kwargs,
) -> RunningService:
    """Start a service over one database file in a daemon thread."""
    return _start_in_thread(QueryService(db_path, **service_kwargs), host, port)


def _shard_router(worker_procs: bool) -> type[ShardedQueryService]:
    """The router class for a topology: the legs are all that differ."""
    if not worker_procs:
        return ShardedQueryService
    # Imported lazily: workers.py imports this module for its own server.
    from .workers import WorkerRouterService

    return WorkerRouterService


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
    router = _shard_router(worker_procs)
    return _start_in_thread(
        router(shard_dir, num_shards, **service_kwargs), host, port
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
    """Run the service in the foreground until interrupted (CLI path).

    Pass ``db_path`` to serve one database file, or ``shards`` and
    ``shard_dir`` for a shard layout; either way the service is the
    router of :mod:`repro.service.shards`, with ``replicas`` read copies
    per shard.  ``worker_procs`` promotes each shard of a layout to a
    worker subprocess (see :mod:`repro.service.workers`) behind the same
    router.
    """
    if worker_procs and shards <= 0:
        raise ValueError("--worker-procs needs a sharded service (--shards)")
    if shards > 0:
        if shard_dir is None:
            raise ValueError("sharded serving needs --shard-dir")
        service = _shard_router(worker_procs)(
            shard_dir, shards, replicas=replicas, **service_kwargs
        )
        target = f"shards={shards} dir={shard_dir} replicas={replicas}"
        if worker_procs:
            target += " worker-procs"
    else:
        if db_path is None:
            raise ValueError("serving needs --db (or --shards/--shard-dir)")
        service = QueryService(db_path, replicas=replicas, **service_kwargs)
        target = f"db={db_path} replicas={replicas}"
    server = build_server(service, host=host, port=port, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    print(
        f"staccato service listening on http://{bound_host}:{bound_port} "
        f"({target})"
    )
    print("endpoints: " + ", ".join(known_endpoints()))
    # SIGTERM must take the same graceful path as Ctrl-C: the finally
    # block below is what terminates (and drains) the worker
    # subprocesses of a --worker-procs topology -- without this, a
    # plain `kill` of the router orphans every worker.
    def _graceful_term(signum, frame):
        raise KeyboardInterrupt

    with contextlib.suppress(ValueError):  # signal needs the main thread
        signal.signal(signal.SIGTERM, _graceful_term)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
