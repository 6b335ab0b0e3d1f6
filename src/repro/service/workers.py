"""Multi-process shard workers: the ``WorkerLeg`` side of the shard seam.

The shard router of :mod:`repro.service.shards` reaches a shard through
a :class:`~repro.service.legs.ShardLeg`.  With in-process legs every
shard shares one GIL: a filescan-heavy mix gains concurrency but little
parallelism.  This module promotes each shard to a **worker
subprocess** that owns its StaccatoDB file (plus replicas) outright,
and gives the *same* router a leg that reaches it over local HTTP:

* :class:`ShardWorkerService` -- what one worker process serves: a
  :class:`~repro.service.legs.LocalLeg` whose own methods are exposed
  one-to-one as the private ``/worker/<method>`` RPC surface (an
  ``EXTRA_ROUTES`` table; the public route tables are untouched), plus
  the process's own tracer and metrics.
* ``python -m repro.service '<json>'`` -- the worker entry point: the
  router's own settings as one JSON object; the worker serves on the
  **listening socket it inherits** from the router and stops as every
  serving process does (:mod:`repro.service.server`).
* :class:`WorkerHandle` / :class:`WorkerPool` -- one worker's
  lifecycle: the listening socket, bound once per shard and kept
  across restarts, spawn, readiness, a keep-alive connection pool,
  deadline-aware requests, and a supervisor thread that restarts a
  crashed worker on the same port.
* :class:`WorkerLeg` -- the leg: each seam call is one RPC with a
  **deadline** (a worker that does not answer in time raises
  :class:`~repro.service.legs.LegDeadline`, which the router answers as
  503 ``deadline_exceeded``), except ``version``, which the router reads
  off the worker's files itself.  Traced legs propagate
  ``X-Trace-Id`` and ``X-Parent-Span-Id`` over the hop; the worker
  serializes its span subtree into the response envelope and the leg
  grafts it under its own span, so ``GET /traces/<id>`` shows one
  stitched tree across processes.
* :class:`WorkerRouterService` -- ``serve --shards N --worker-procs``:
  the shared router constructed over ``WorkerLeg``s.  It defines no
  endpoint of its own.

Failure contract: reads retry freely across worker restarts within
their deadline (they are idempotent); a write is never re-sent.  A
write sent while a worker restarts waits in the accept queue of the
socket the router holds, and the next worker serves it, once.  A crash
mid-request is a 503: StaccatoDB ingests are atomic per batch, so the
batch either fully committed or fully rolled back, and a batch
committed but never acknowledged moved the file's version, so no
cached result masks it.
"""

from __future__ import annotations

import contextlib
import functools
import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping, Sequence

from .. import counters as engine_counters
from .. import tracing
from ..db.engine import shard_path, shard_paths
from ..ocr.corpus import Document
from ..query.answers import Answer
from . import trace
from .app import answer_row
from .legs import LegDeadline, LocalLeg
from .metrics import ServiceMetrics
from .replicas import (
    FileWatch,
    ReplicaUnavailable,
    replica_path,
)
from .shards import ShardedQueryService
from .trace import ObservabilityApi, Tracer
from .validation import (
    ApiError,
    IngestRequest,
    SearchRequest,
    validate_index,
    validate_ingest,
    validate_replicas,
    validate_search,
)

__all__ = [
    "DEFAULT_DEADLINE_S",
    "DEFAULT_WRITE_DEADLINE_S",
    "WORKER_SIDECAR_DIR",
    "ShardWorkerService",
    "WorkerHandle",
    "WorkerPool",
    "WorkerLeg",
    "WorkerRouterService",
]

#: Deadline for read legs (search/sql/probes/health).  A worker that
#: does not answer in time -- wedged, paused, overloaded -- is a 503
#: ``deadline_exceeded``, never an indefinite hang.
DEFAULT_DEADLINE_S = 30.0

#: Deadline for write legs.  Ingest batches and index builds are real
#: work (OCR transduction, postings); they get a far wider budget than
#: the interactive reads.
DEFAULT_WRITE_DEADLINE_S = 600.0

#: How long the router waits for a spawned worker to answer ``/health``.
WORKER_READY_TIMEOUT_S = 60.0

#: Everything worker-private under the shard directory lives here: the
#: crash logs.
WORKER_SIDECAR_DIR = "workers"

#: Idle keep-alive connections retained per worker.
_POOL_IDLE_CAP = 8

#: Supervisor poll interval for crashed workers.
_SUPERVISE_INTERVAL_S = 0.25

_JSON_HEADERS = {"Content-Type": "application/json"}

#: The ``src`` root the spawned worker needs on PYTHONPATH to import
#: ``repro`` (the router may itself run from an installed checkout).
_SRC_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)


def worker_log_file(shard_dir: str, index: int) -> str:
    return os.path.join(
        shard_dir, WORKER_SIDECAR_DIR, f"worker-{index:04d}.log"
    )


# ======================================================================
# The worker-process service: a LocalLeg's methods, over HTTP
# ======================================================================
#: ``(http method, "/worker/<name>") -> name``, filled by :func:`_face`.
_WORKER_ROUTES: dict[tuple[str, str], str] = {}


def _face(http_method: str):
    """Serve a leg method as ``<http_method> /worker/<its name>``: object
    bodies in (POST), the wire's 503 for a shard with no usable replica
    out."""

    def decorate(method):
        _WORKER_ROUTES[http_method, f"/worker/{method.__name__}"] = (
            method.__name__
        )

        @functools.wraps(method)
        def face(self, *payload):
            if payload and not isinstance(payload[0], Mapping):
                raise ApiError(400, "request body must be a JSON object")
            try:
                return method(self, *payload)
            except ReplicaUnavailable as exc:
                raise ApiError(
                    503, str(exc), code="shard_unavailable"
                ) from exc

        return face

    return decorate


def _doc_ids(body: Mapping[str, object]) -> list[int]:
    doc_ids = body.get("doc_ids")
    if not isinstance(doc_ids, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in doc_ids
    ):
        raise ApiError(400, "'doc_ids' must be a list of integers")
    return doc_ids


class ShardWorkerService(ObservabilityApi):
    """One shard of a larger layout, served as a standalone process.

    The service *is* a :class:`LocalLeg` -- labelled with its global
    shard index, so its pools, replicas and errors name the shard the
    client addressed -- behind a JSON adapter: each ``/worker/<name>``
    route decodes a body, calls ``leg.<name>`` and encodes the result.
    Running the very leg the in-process router would run is what makes
    the subprocess topology byte-equivalent after the router's merge.
    The router already holds its own per-shard write lock; the leg's is
    taken here too, so the file stays single-writer whoever calls.
    """

    #: The private RPC surface the router's ``WorkerLeg`` drives
    #: (the handler reads this off the service instance; the public route
    #: tables are untouched, and public routes this process does not
    #: implement answer 404).
    EXTRA_ROUTES = _WORKER_ROUTES

    def __init__(
        self,
        shard_dir: str,
        shard_index: int,
        trace_enabled: bool = True,
        **storage,
    ) -> None:
        if shard_index < 0:
            raise ValueError("shard_index must be >= 0")
        self.metrics = ServiceMetrics()
        self.tracer = Tracer(enabled=trace_enabled)
        self.leg = LocalLeg(
            shard_index,
            shard_path(shard_dir, shard_index),
            self.metrics,
            **storage,
        )

    def close(self) -> None:
        self.leg.close()
        self.tracer.close()

    def kernel_memos(self):
        return {self.leg.index: self.leg.kernel_memo}

    # ------------------------------------------------------------------
    @_face("GET")
    def health(self) -> dict[str, object]:
        return self.leg.health()

    @_face("GET")
    def stats(self) -> dict[str, object]:
        # Engine-work counters are per *process*, so only a worker can
        # attribute them to one shard.
        return {
            **self.leg.stats(),
            "engine": engine_counters.global_snapshot(),
        }

    @_face("POST")
    def search(self, body) -> dict[str, object]:
        label, answers = self.leg.search(validate_search(body))
        return {"plan": label, "answers": [answer_row(a) for a in answers]}

    @_face("POST")
    def sql(self, body) -> dict[str, object]:
        query = body.get("query")
        if not isinstance(query, str) or not query.strip():
            raise ApiError(400, "'query' must be a non-empty string")
        return {"rows": self.leg.sql(query, body.get("approach", "staccato"))}

    @_face("POST")
    def present(self, body) -> dict[str, object]:
        relation = body.get("relation")
        if relation not in ("master", "documents"):
            raise ApiError(400, "'relation' must be 'master' or 'documents'")
        return {"present": sorted(self.leg.present(_doc_ids(body), relation))}

    @_face("POST")
    def ingest(self, body) -> dict[str, object]:
        request = validate_ingest(body)
        with self.leg.write_lock:
            count, total = self.leg.ingest(request.dataset.documents, request)
        return {"ingested_lines": count, "total_lines": total}

    @_face("POST")
    def build_index(self, body) -> dict[str, object]:
        request = validate_index(body)
        with self.leg.write_lock:
            postings = self.leg.build_index(request.terms, request.approach)
        return {"postings": postings}

    @_face("POST")
    def change_replicas(self, body) -> dict[str, object]:
        request = validate_replicas({**body, "shard": self.leg.index})
        with self.leg.write_lock:
            return self.leg.change_replicas(request.action, request.replica)

    @_face("POST")
    def rebalance_snapshot(self, body) -> dict[str, object]:
        lo, hi = body.get("doc_lo"), body.get("doc_hi")
        if not isinstance(lo, int) or not isinstance(hi, int):
            raise ApiError(400, "snapshot needs integer 'doc_lo' and 'doc_hi'")
        with self.leg.write_lock:
            docs, lines, path = self.leg.rebalance_snapshot(lo, hi)
        return {"docs": docs, "lines": lines, "source_path": path}

    @_face("POST")
    def rebalance_copy(self, body) -> dict[str, object]:
        source_path = body.get("source_path")
        if not isinstance(source_path, str):
            raise ApiError(400, "copy needs a 'source_path'")
        with self.leg.write_lock:
            return {
                "copied": self.leg.rebalance_copy(source_path, _doc_ids(body))
            }

    @_face("POST")
    def rebalance_delete(self, body) -> dict[str, object]:
        with self.leg.write_lock:
            self.leg.rebalance_delete(_doc_ids(body))
        return {}


# ======================================================================
# Router side: one worker's lifecycle + connections
# ======================================================================
class _NoDelayConnection(http.client.HTTPConnection):
    """An ``HTTPConnection`` with Nagle's algorithm disabled.

    Request bodies and retried requests on a kept-alive socket must not
    wait on the peer's delayed ACK; pair with the server side's
    ``disable_nagle_algorithm`` or a reused connection costs ~40ms per
    round trip.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class _ConnectionPool:
    """Keep-alive ``http.client`` connections to one worker port."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        self._closed = False

    def acquire(self, fresh: bool = False) -> http.client.HTTPConnection:
        if not fresh:
            with self._lock:
                if self._idle:
                    return self._idle.pop()
        return _NoDelayConnection(self.host, self.port, timeout=10)

    def release(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < _POOL_IDLE_CAP:
                self._idle.append(conn)
                return
        conn.close()

    def drop_idle(self) -> None:
        """Close the idle connections (their worker process is gone)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def close_all(self) -> None:
        with self._lock:
            self._closed = True
        self.drop_idle()


class WorkerHandle:
    """One worker subprocess, as the router sees it.

    Owns the listening socket, the spawn command, the readiness poll,
    the connection pool, and the per-request deadline/retry policy.  A
    handle survives its process: the socket is bound once, here, and
    every spawn inherits it, so :meth:`respawn` serves the same port and
    a connection the kernel queued meanwhile is served by the new
    process.
    """

    def __init__(
        self, shard_dir: str, index: int, settings: Mapping[str, object]
    ) -> None:
        self.shard_dir = shard_dir
        self.index = index
        #: :class:`ShardWorkerService` arguments every spawn is given.
        self.settings = dict(settings)
        self.log_file = worker_log_file(shard_dir, index)
        self.proc: subprocess.Popen | None = None
        self._listener = socket.create_server(("127.0.0.1", 0), backlog=128)
        self.port: int = self._listener.getsockname()[1]
        self.restarts = 0
        self.draining = False
        self._conns = _ConnectionPool("127.0.0.1", self.port)
        self._ready = threading.Event()
        self._log_handle = None

    # ------------------------------------------------------------------
    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def describe(self) -> dict[str, object]:
        return {
            "shard": self.index,
            "pid": self.pid,
            "port": self.port,
            "alive": self.alive,
            "ready": self._ready.is_set(),
            "restarts": self.restarts,
            "draining": self.draining,
        }

    # ------------------------------------------------------------------
    def spawn(self) -> None:
        os.makedirs(os.path.dirname(self.log_file), exist_ok=True)
        self._log_handle = open(self.log_file, "ab")
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            _SRC_ROOT + os.pathsep + existing if existing else _SRC_ROOT
        )
        settings = {
            **self.settings,
            "shard_dir": self.shard_dir,
            "shard_index": self.index,
            "listen_fd": self._listener.fileno(),
        }
        # A session of its own: a terminal's Ctrl-C reaches the router
        # alone, which drains its requests while the workers still serve
        # them, then stops them -- a worker stopping itself meanwhile
        # would be respawned by the supervisor.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", json.dumps(settings)],
            pass_fds=(self._listener.fileno(),),
            stdout=self._log_handle,
            stderr=subprocess.STDOUT,
            env=env,
            start_new_session=True,
        )
        self._await_ready()

    def _await_ready(self) -> None:
        deadline = time.monotonic() + WORKER_READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc is None or self.proc.poll() is not None:
                raise RuntimeError(
                    f"worker {self.index} exited during startup "
                    f"(rc={self.proc.returncode if self.proc else '?'}); "
                    f"see {self.log_file}"
                )
            try:
                status, _ = self._one_request("GET", "/health", None, 2.0)
                if status == 200:
                    self._ready.set()
                    return
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.05)
        self._kill_quietly()
        raise RuntimeError(
            f"worker {self.index} did not answer /health within "
            f"{WORKER_READY_TIMEOUT_S:.0f}s; see {self.log_file}"
        )

    def respawn(self) -> None:
        """Replace a dead process with a fresh one (supervisor path)."""
        self._ready.clear()
        self._conns.drop_idle()
        if self._log_handle is not None:
            with contextlib.suppress(OSError):
                self._log_handle.close()
        self.spawn()
        self.restarts += 1  # once ready: a new spawn's files are in place

    def _kill_quietly(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                self.proc.kill()
            with contextlib.suppress(Exception):
                self.proc.wait(timeout=5)

    def terminate(self, drain_timeout_s: float = 15.0) -> None:
        """SIGTERM the worker and wait for its graceful drain."""
        self.draining = True
        self._ready.clear()
        self._conns.close_all()
        if self.proc is not None and self.proc.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=drain_timeout_s)
            except subprocess.TimeoutExpired:
                self._kill_quietly()
        if self._log_handle is not None:
            with contextlib.suppress(OSError):
                self._log_handle.close()
        self._listener.close()

    # ------------------------------------------------------------------
    def _one_request(
        self,
        method: str,
        path: str,
        body: bytes | None,
        timeout_s: float,
        conn: http.client.HTTPConnection | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, object]:
        """One attempt on one connection; raises on transport failure."""
        pool = self._conns
        owned = conn is None
        if conn is None:
            conn = pool.acquire(fresh=True)
        if conn.sock is not None:
            conn.sock.settimeout(timeout_s)
        else:
            conn.timeout = timeout_s
        if headers is None:
            headers = _JSON_HEADERS if body else {}
        try:
            conn.request(method, path, body=body, headers=dict(headers))
            response = conn.getresponse()
            data = response.read()
            will_close = response.will_close
            status = response.status
        except Exception:
            conn.close()
            raise
        if owned or will_close:
            conn.close()
        else:
            pool.release(conn)
        try:
            payload = json.loads(data) if data else None
        except json.JSONDecodeError:
            payload = data.decode("utf-8", "replace")
        return status, payload

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        *,
        deadline: float,
        idempotent: bool,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, object]:
        """One request with deadline, readiness wait, and retry policy.

        Idempotent requests retry on any connection-level failure until
        the deadline (a restart mid-request is invisible to the
        client).  Non-idempotent requests run on a *fresh* connection
        and are never re-sent: a connection failure raises
        :class:`ReplicaUnavailable`, because an ingest batch may have
        committed before the crash and a blind re-send would duplicate
        its rows.  (A write sent while the worker is down is not a
        failure: it waits in the accept queue of the socket this handle
        holds.)  An expired deadline raises :class:`LegDeadline`.
        """
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise LegDeadline(
                    f"shard {self.index} worker did not answer within "
                    "its deadline"
                )
            if not self._ready.wait(timeout=min(remaining, 0.25)):
                if self.draining:
                    raise ReplicaUnavailable(
                        f"shard {self.index} worker is shutting down"
                    )
                continue  # restarting; re-check the deadline and wait on
            conn = self._conns.acquire() if idempotent else None
            try:
                return self._one_request(
                    method, path, body, remaining, conn=conn, headers=headers
                )
            except (socket.timeout, TimeoutError) as exc:
                raise LegDeadline(
                    f"shard {self.index} worker did not answer within "
                    f"its deadline: {str(exc) or 'socket timeout'}"
                ) from exc
            except (OSError, http.client.HTTPException) as exc:
                if idempotent:
                    time.sleep(0.05)
                    continue
                raise ReplicaUnavailable(
                    f"shard {self.index} worker unavailable: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc


class WorkerLeg:
    """A shard served by a worker subprocess: each seam call is one RPC.

    The worker runs a :class:`LocalLeg` (replica failover and breakers
    are its business); this side adds what crossing a process boundary
    needs -- deadlines, trace stitching -- and turns the
    worker's structured errors back into the exceptions a local leg
    would have raised.
    """

    def __init__(self, handle: WorkerHandle, pool: "WorkerPool") -> None:
        self.handle = handle
        self.index = handle.index
        self.path = shard_path(handle.shard_dir, handle.index)
        # The worker serializes its *own* writes, but a rebalance needs
        # its multi-request critical section (and mutual exclusion
        # against ingest/index legs) enforced router-side.
        self.write_lock = threading.Lock()
        self._pool = pool
        # Every file the worker may serve: the copies it starts with,
        # plus any it has reported attaching.
        self._paths = {
            replica_path(self.path, j) for j in range(pool.num_replicas)
        }
        self._watch_lock = threading.Lock()
        self._watches: list[FileWatch] = []
        self._watched_spawn: int | None = None

    @staticmethod
    def fanout_width(num_shards: int) -> int:
        # These legs just wait on worker sockets: size the fan-out for
        # concurrent requests, or every in-flight client serializes
        # through num_shards threads.
        return max(16, 4 * num_shards)

    def close(self) -> None:
        # The workers share one supervisor and drain together.
        self._pool.close()
        with self._watch_lock:
            for watch in self._watches:
                watch.close()

    def version(self) -> tuple:
        """Read off the worker's files, no RPC: a wedged worker never
        stalls a cache hit.  A restarted worker copies its secondaries
        afresh (files an old watch never sees change), so each spawn is
        watched anew once it is ready."""
        spawn = self.handle.restarts
        with self._watch_lock:
            if spawn != self._watched_spawn:
                for watch in self._watches:
                    watch.close()
                self._watches = [FileWatch(p) for p in sorted(self._paths)]
                self._watched_spawn = spawn
            watches = self._watches
        return tuple(watch.version() for watch in watches)

    # ------------------------------------------------------------------
    def _rpc(
        self,
        name: str,
        body: Mapping[str, object] | None = None,
        *,
        idempotent: bool = True,
    ) -> dict[str, object]:
        """``leg.<name>`` inside the worker, over ``/worker/<name>``.

        A worker's structured error passes through with its status and
        code intact (so a worker-side 400/503 reads exactly like the
        in-process leg's).

        When the router request is traced, the leg propagates the trace
        id plus this span's id over the hop (``X-Trace-Id`` /
        ``X-Parent-Span-Id``); the worker answers with its own span
        subtree in the response envelope, which is grafted under this
        leg's span -- so ``GET /traces/<id>`` on the router shows one
        stitched tree across processes.  Untraced requests send neither
        header and the worker builds no tree at all.
        """
        pool = self._pool
        deadline = time.monotonic() + (
            pool.deadline_s if idempotent else DEFAULT_WRITE_DEADLINE_S
        )
        span = tracing.current_span()
        raw = None if body is None else json.dumps(body).encode("utf-8")
        headers: dict[str, str] | None = None
        if span is not None:
            headers = dict(_JSON_HEADERS) if raw else {}
            root = tracing.current_root()
            if root is not None and root.trace_id:
                headers[trace.TRACE_HEADER] = root.trace_id
            headers[trace.PARENT_SPAN_HEADER] = span.span_id
        status, payload = self.handle.request(
            "GET" if body is None else "POST",
            f"/worker/{name}",
            raw,
            deadline=deadline,
            idempotent=idempotent,
            headers=headers,
        )
        if isinstance(payload, dict) and "trace" in payload:
            worker_trace = payload.pop("trace", None)
            if span is not None and isinstance(worker_trace, Mapping):
                subtree = worker_trace.get("spans")
                if isinstance(subtree, Mapping):
                    span.graft(subtree, worker=self.index)
        if status >= 400:
            error = payload.get("error") if isinstance(payload, dict) else None
            if isinstance(error, Mapping) and "message" in error:
                raise ApiError(
                    status,
                    str(error.get("message")),
                    code=str(error.get("code", "worker_error")),
                )
            raise ApiError(
                502,
                f"shard {self.index} worker answered {status} with an "
                "unexpected body",
                code="worker_error",
            )
        return payload if isinstance(payload, dict) else {}

    # ------------------------------------------------------------------
    def search(self, request: SearchRequest) -> tuple[str, list[Answer]]:
        result = self._rpc(
            "search",
            {
                "pattern": request.pattern,
                "approach": request.approach,
                "plan": request.plan,
                "num_ans": request.num_ans,
            },
        )
        answers = [
            Answer(
                line_id=row["line_id"],
                doc_id=row["doc_id"],
                line_no=row["line_no"],
                probability=row["probability"],
            )
            for row in result["answers"]
        ]
        return result["plan"], answers

    def sql(self, query: str, approach: str) -> list[dict[str, object]]:
        body = {"query": query, "approach": approach}
        return self._rpc("sql", body)["rows"]

    def present(self, doc_ids: Sequence[int], relation: str) -> set[int]:
        body = {"doc_ids": list(doc_ids), "relation": relation}
        return set(self._rpc("present", body)["present"])

    def ingest(
        self, docs: Sequence[Document], request: IngestRequest
    ) -> tuple[int, int]:
        body: dict[str, object] = {
            "dataset": request.dataset.name,
            "documents": [
                {
                    "doc_id": doc.doc_id,
                    "name": doc.name,
                    "year": doc.year,
                    "loss": doc.loss,
                    "lines": list(doc.lines),
                }
                for doc in docs
            ],
            "ocr_seed": request.ocr_seed,
            "approaches": list(request.approaches),
        }
        if request.workers is not None:
            body["workers"] = request.workers
        result = self._rpc("ingest", body, idempotent=False)
        return result["ingested_lines"], result["total_lines"]

    def build_index(self, terms: Sequence[str], approach: str) -> int:
        return self._rpc(
            "build_index",
            {"terms": list(terms), "approach": approach},
            idempotent=False,
        )["postings"]

    def change_replicas(
        self, action: str, replica: int | None
    ) -> dict[str, object]:
        result = self._rpc(
            "change_replicas",
            {"action": action, "replica": replica},
            idempotent=False,
        )
        with self._watch_lock:  # watch the new roster afresh
            self._paths |= {row["path"] for row in result["replicas"]}
            self._watched_spawn = None
        return result

    def rebalance_snapshot(
        self, doc_lo: int, doc_hi: int
    ) -> tuple[list[int], int, str]:
        result = self._rpc(
            "rebalance_snapshot",
            {"doc_lo": doc_lo, "doc_hi": doc_hi},
            idempotent=False,
        )
        return result["docs"], result["lines"], result["source_path"]

    def rebalance_copy(
        self, source_path: str, doc_ids: Sequence[int]
    ) -> list[int]:
        return self._rpc(
            "rebalance_copy",
            {"source_path": source_path, "doc_ids": list(doc_ids)},
            idempotent=False,
        )["copied"]

    def rebalance_delete(self, doc_ids: Sequence[int]) -> None:
        self._rpc(
            "rebalance_delete", {"doc_ids": list(doc_ids)}, idempotent=False
        )

    # ------------------------------------------------------------------
    def _observe(self, name: str, down: dict[str, object]):
        """``health``/``stats`` never raise for a down shard; both carry
        this worker's census row."""
        try:
            block = self._rpc(name)
        except (ApiError, LegDeadline, ReplicaUnavailable):
            block = down
        return {**block, "worker": self.handle.describe()}

    def health(self) -> dict[str, object]:
        return self._observe(
            "health", {"lines": None, "healthy": 0, "attached": 0}
        )

    def stats(self) -> dict[str, object]:
        return self._observe("stats", {"lines": None})


class WorkerPool:
    """Spawn, supervise and address the full set of shard workers."""

    def __init__(
        self,
        shard_dir: str,
        num_shards: int,
        settings: Mapping[str, object],
        metrics: ServiceMetrics,
        deadline_s: float = DEFAULT_DEADLINE_S,
    ) -> None:
        self.metrics = metrics
        self.num_replicas = settings.get("num_replicas", 1)
        self.deadline_s = float(deadline_s)
        self.handles = [
            WorkerHandle(shard_dir, index, settings)
            for index in range(num_shards)
        ]
        self.legs = [WorkerLeg(handle, self) for handle in self.handles]
        self._closed = False
        self._close_lock = threading.Lock()
        # Spawn concurrently: each worker pays its own DB/replica
        # startup, and N of those in sequence would dominate boot time.
        with ThreadPoolExecutor(
            max_workers=num_shards, thread_name_prefix="worker-spawn"
        ) as spawner:
            errors = [
                error
                for error in spawner.map(
                    lambda h: self._try_spawn(h), self.handles
                )
                if error is not None
            ]
        if errors:
            self.close()
            raise errors[0]
        self._stop = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name="worker-supervisor", daemon=True
        )
        self._supervisor.start()

    @staticmethod
    def _try_spawn(handle: WorkerHandle) -> Exception | None:
        try:
            handle.spawn()
            return None
        except Exception as exc:  # noqa: BLE001 - re-raised by __init__
            return exc

    # ------------------------------------------------------------------
    def handle(self, index: int) -> WorkerHandle:
        return self.handles[index]

    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        """Restart crashed workers; a SIGSTOPped worker is *not* dead
        (its process still exists), so only the request deadline guards
        against a wedged one."""
        while not self._stop.wait(_SUPERVISE_INTERVAL_S):
            for handle in self.handles:
                if self._closed or handle.draining:
                    continue
                if handle.proc is None or handle.proc.poll() is None:
                    continue
                self.metrics.event("worker_restart")
                try:
                    handle.respawn()
                except Exception:  # noqa: BLE001 - retried next tick
                    self.metrics.event("worker_restart_failed")

    def close(self) -> None:
        """Stop supervising and drain every worker (idempotent)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        stop = getattr(self, "_stop", None)
        if stop is not None:
            stop.set()
            self._supervisor.join(timeout=5)
        with ThreadPoolExecutor(
            max_workers=max(1, len(self.handles)),
            thread_name_prefix="worker-drain",
        ) as drainer:
            list(drainer.map(lambda h: h.terminate(), self.handles))


# ======================================================================
# The router over worker subprocesses
# ======================================================================
class WorkerRouterService(ShardedQueryService):
    """The shard router with every shard in a worker subprocess.

    Only the topology differs from the base class: the constructor's
    leg hook spawns a :class:`WorkerPool` and hands back its
    :class:`WorkerLeg`s.  Every endpoint, job and the constructor
    itself are the shared ones.
    """

    def __init__(
        self,
        shard_dir: str,
        num_shards: int,
        *,
        deadline_s: float = DEFAULT_DEADLINE_S,
        **router_options,
    ) -> None:
        self._deadline_s = deadline_s
        super().__init__(shard_dir, num_shards, **router_options)

    def _open_legs(self, **storage) -> list[WorkerLeg]:
        if self.paths != shard_paths(self.shard_dir, self.num_shards):
            raise ValueError(
                "worker processes serve the canonical shard layout; "
                "'paths' is not supported with worker processes"
            )
        self._workers = WorkerPool(
            self.shard_dir,
            self.num_shards,
            {"trace_enabled": self.tracer.enabled, **storage},
            self.metrics,
            deadline_s=self._deadline_s,
        )
        return self._workers.legs

    def traces_get(self, trace_id: str):
        """One span tree by id, looking through to the workers.

        Requests the router handled live in its own ring (stitched, so
        worker subtrees are already inside).  A trace id minted *by a
        worker* -- e.g. read off a worker log line -- lives only in that
        worker's ring, which is unreachable from outside the machine;
        proxy the lookup so the router's ``/traces/<id>`` is a superset
        of every process's ring.
        """
        record = self.tracer.get(trace_id)
        if record is not None:
            return record
        deadline = time.monotonic() + self._workers.deadline_s
        probed: list[int] = []
        for handle in self._workers.handles:
            probed.append(handle.index)
            try:
                status, payload = handle.request(
                    "GET",
                    f"/traces/{trace_id}",
                    deadline=deadline,
                    idempotent=True,
                )
            except (LegDeadline, ReplicaUnavailable):
                continue
            if status == 200 and isinstance(payload, dict):
                return {**payload, "worker": handle.index}
        raise ApiError(
            404,
            f"unknown trace {trace_id!r} (ring keeps the last "
            f"{self.tracer.ring_size})",
            "unknown_trace",
            hint=(
                "not in the router ring; shard workers "
                f"{probed} were probed and do not hold it either"
            ),
        )
