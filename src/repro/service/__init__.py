"""The StaccatoDB query service: a concurrent JSON-over-HTTP API.

The paper stores OCR transducer approximations in an RDBMS so
applications can query them like any other relation; this subsystem is
the serving tier that promise implies -- a stdlib-only HTTP server (no
dependencies beyond the standard library) in front of one service core:
the shard router of :mod:`repro.service.shards`, over one StaccatoDB
file or over many.  Start it with::

    python -m repro serve --db /tmp/ca.db --port 8080
    python -m repro serve --shards 4 --shard-dir /tmp/shards --port 8080

or in-process (tests, examples)::

    from repro.service import start_service, start_sharded_service
    running = start_service("/tmp/ca.db", port=0)   # ephemeral port
    cluster = start_sharded_service("/tmp/shards", num_shards=2, port=0)
    ...
    running.stop()

HTTP API (all bodies and responses are JSON):

``GET /health``
    Liveness probe: ``{"status": "ok", "lines": N, ...}``.

``GET /stats``
    Operational snapshot: per-endpoint request counts and latency
    percentiles, cache hit/miss/eviction counters, pool occupancy and
    per-approach storage bytes.

``POST /ingest``
    Batch document ingestion, atomic per batch (one transaction).
    Body: ``{"dataset": "name", "documents": [{"doc_id": 1, "name":
    "...", "year": 2010, "loss": 1234.5, "lines": ["...", ...]},
    ...], "ocr_seed": 0, "approaches": ["kmap", "staccato"]}``
    (the default; add ``"fullsfa"`` to store the complete automaton
    too, which ``fullsfa`` queries read).  DataKeys are offset past
    existing rows, so repeated batches append.  A committed batch --
    indexed under the file's stored dictionary in the same transaction
    -- is visible to every plan, and to the query-result cache.

``POST /search``
    LIKE/regex query against any stored approach (one no line
    stores is a 400 ``approach_not_stored``).  Body: ``{"pattern":
    "%Ford%", "approach": "staccato", "plan": "filescan" | "indexed" |
    "auto", "num_ans": 100}``.  Response: the ranked probabilistic
    relation (``answers`` rows with ``line_id``/``doc_id``/``line_no``/
    ``probability``) plus ``cached`` and the plan actually used.

``POST /sql``
    The probabilistic SELECT surface of :mod:`repro.db.sql`.  Body:
    ``{"query": "SELECT DocId, Loss FROM Claims WHERE DocData LIKE
    '%Ford%'", "approach": "staccato", "num_ans": 100}``.

``POST /index``
    Rebuild the dictionary inverted index over HTTP (always a full
    rebuild, from the stored kernels); every reader takes it from the
    file.  Body: ``{"terms": ["public", "law", ...], "approach":
    "staccato"}``.

``/search``/``/sql`` fan out over all shards (or a ``"shards": [0, 2]``
scope) and merge the ranked relations; ``/ingest`` routes documents to
their owning shard by DocId range; ``serve --db`` is the one-shard case
and answers in the same shape.  With ``--replicas R`` each shard keeps
R read copies (writes re-apply to every copy in lockstep): reads
round-robin over the healthy replicas, a failing replica trips a circuit
breaker and its query retries transparently on a sibling, and ``POST
/replicas`` attaches/detaches copies at runtime.  See :mod:`repro.service.shards`,
:mod:`repro.service.replicas` and ``docs/API.md``.

``POST /jobs`` / ``GET /jobs`` / ``GET /jobs/<id>`` / ``DELETE
/jobs/<id>``
    The background job engine (:mod:`repro.service.jobs`): submit work
    by type (``rebalance`` moves a DocId range between live shards,
    ``rebuild_index`` is the index rebuild off the request path), poll
    status/progress, cancel cooperatively.  Jobs
    survive restarts via a JSON journal next to the database.

Errors come back as ``{"error": {"code": ..., "message": ...}}`` with
a 4xx/5xx status.

Architecture: per shard, reads go through a :class:`~repro.service.pool.
ConnectionPool` of ``check_same_thread=False`` SQLite connections (one
lock per connection) and writes serialize through a single writer
connection in WAL mode; identical queries are served from a
thread-safe LRU :class:`~repro.service.cache.QueryCache` keyed on
``(scope, generations, pattern, approach, plan)`` -- a shard's
generation is its files' ``PRAGMA data_version``; an entry serves
every ``num_ans`` up to the one it was computed at -- and a
:class:`~repro.service.metrics.ServiceMetrics` registry feeds
``/stats``.  One module, :mod:`repro.service.server`, holds the HTTP
transport: route tables, body framing and response rendering.  Under
``serve --worker-procs`` each shard runs in a worker subprocess
(:mod:`repro.service.workers`, started as ``python -m repro.service``)
on a listening socket the router binds once and every respawn inherits.
Every serving process has one lifecycle, the one in
:mod:`repro.service.server`: SIGTERM or SIGINT stops accepting, lets the
requests in flight finish and closes the service.
"""

from .cache import QueryCache
from .jobs import Job, JobCancelled, JobEngine, JobType
from .metrics import ServiceMetrics
from .pool import ConnectionPool, PoolClosed
from .replicas import (
    CircuitBreaker,
    ReplicaSet,
    ReplicaUnavailable,
    ordered_locks,
    replica_path,
)
from .server import (
    RunningService,
    serve_forever,
    start_service,
    start_sharded_service,
)
from .shards import (
    QueryService,
    RoutingTable,
    ShardedPool,
    ShardedQueryService,
    shard_for_doc,
)
from .legs import LocalLeg, ShardLeg
from .workers import ShardWorkerService, WorkerLeg, WorkerRouterService
from .validation import ApiError

__all__ = [
    "QueryService",
    "ShardedQueryService",
    "ShardedPool",
    "shard_for_doc",
    "RoutingTable",
    "CircuitBreaker",
    "ReplicaSet",
    "ReplicaUnavailable",
    "replica_path",
    "ordered_locks",
    "Job",
    "JobCancelled",
    "JobEngine",
    "JobType",
    "QueryCache",
    "ServiceMetrics",
    "ConnectionPool",
    "PoolClosed",
    "ApiError",
    "RunningService",
    "serve_forever",
    "start_service",
    "start_sharded_service",
    "ShardLeg",
    "LocalLeg",
    "WorkerLeg",
    "ShardWorkerService",
    "WorkerRouterService",
]
