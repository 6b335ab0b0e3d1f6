"""QueryService: the transport-independent core of the query service.

One instance owns everything the HTTP layer needs:

* a :class:`~repro.service.pool.ConnectionPool` of readers;
* a single writer connection behind a write lock (SQLite allows one
  writer; serializing batches in-process avoids busy-retry storms);
* the :class:`~repro.service.cache.QueryCache`, invalidated after every
  committed batch;
* the :class:`~repro.service.metrics.ServiceMetrics` registry.

Methods mirror the endpoints 1:1 (``ingest``/``search``/``sql``/
``stats``/``health``) and speak plain dicts, so tests can exercise the
full service logic without a socket, and the HTTP handler stays a thin
JSON shim.
"""

from __future__ import annotations

import json
import os
import threading
import time

from ..automata.regex import RegexError
from ..db.engine import APPROACHES, StaccatoDB
from ..db.planner import execute_plan
from ..db.sql import SqlError, execute_select
from ..ocr.engine import SimulatedOcrEngine
from ..query.answers import Answer
from ..query.like import compile_like
from ..query.memo import KernelMemo
from . import trace
from .cache import QueryCache, key_from_json, key_to_json
from .jobs import Job, JobEngine, JobsApi, atomic_write_json
from .metrics import ServiceMetrics
from .pool import ConnectionPool
from .profiler import SamplingProfiler
from .trace import ObservabilityApi, Tracer
from .validation import (
    ApiError,
    SearchRequest,
    validate_index,
    validate_ingest,
    validate_search,
    validate_sql,
)

__all__ = [
    "QueryService",
    "run_search_plan",
    "answer_row",
    "check_pattern",
]


def check_pattern(pattern: str) -> None:
    """Reject an uncompilable pattern up front, as a structured 400.

    Compilation is deterministic, so letting a bad pattern reach the
    evaluation path would fail *every* replica it touches -- on the
    sharded service that would trip circuit breakers and 503 healthy
    shards over what is purely a client mistake.
    """
    try:
        compile_like(pattern)
    except RegexError as exc:
        raise ApiError(400, str(exc), code="bad_pattern") from exc


def index_fingerprint(db: StaccatoDB) -> list:
    """A cheap digest of the persisted dictionary index.

    Line counts alone cannot tell a warm start that ``POST /index`` ran
    between snapshot and restart -- a rebuild changes plan labels and
    projected evaluations without touching ``MasterData``.  The digest
    covers the postings (count plus key/offset sums) and the ``IndexMeta``
    record; a rebuild over different terms or approach changes it, while
    an identical rebuild (deterministic postings) legitimately keeps
    cached results valid.  Shaped as nested lists so it JSON round-trips
    comparably.
    """
    totals = db.conn.execute(
        "SELECT COUNT(*), COALESCE(SUM(DataKey), 0), COALESCE(SUM(Offset), 0) "
        "FROM InvertedIndex"
    ).fetchone()
    meta = db.conn.execute(
        "SELECT Key, Value FROM IndexMeta ORDER BY Key"
    ).fetchall()
    return [list(totals), [list(row) for row in meta]]


def answer_row(answer: Answer) -> dict[str, object]:
    """One :class:`Answer` as the JSON row the API returns."""
    return {
        "line_id": answer.line_id,
        "doc_id": answer.doc_id,
        "line_no": answer.line_no,
        "probability": answer.probability,
    }


def run_search_plan(
    db: StaccatoDB, request: SearchRequest
) -> tuple[str, list[Answer]]:
    """Execute one search request's plan against one database.

    Shared by the single-database service and every shard leg of the
    sharded service; returns the plan label actually used plus the
    ranked answers.
    """
    with trace.span("plan", requested=request.plan) as plan_span:
        if request.plan == "auto":
            plan, answers = execute_plan(
                db,
                request.pattern,
                approach=request.approach,
                num_ans=request.num_ans,
            )
            label = f"auto:{plan.kind}"
        elif request.plan == "indexed":
            answers = db.indexed_search(
                request.pattern,
                approach=request.approach,
                num_ans=request.num_ans,
            )
            label = (
                "indexed"
                if db.index_covers(request.pattern, request.approach)
                else "indexed:filescan-fallback"
            )
        else:
            answers = db.search(
                request.pattern,
                approach=request.approach,
                num_ans=request.num_ans,
            )
            label = "filescan"
        if plan_span is not None:
            plan_span.annotate(plan=label, answers=len(answers))
    return label, answers


def reject_shard_scope(shards: tuple[int, ...] | None) -> None:
    """Single-database services cannot honour a ``shards`` scope."""
    if shards is not None:
        raise ApiError(
            400,
            "this service is not sharded; remove the 'shards' field "
            "or query a service started with --shards",
            code="not_sharded",
        )


class QueryService(JobsApi, ObservabilityApi):
    """The StaccatoDB query service over one database file."""

    def __init__(
        self,
        path: str,
        k: int = 25,
        m: int = 40,
        pool_size: int = 4,
        cache_size: int = 256,
        index_approach: str = "staccato",
        workers: int = 2,
        trace_enabled: bool = True,
        trace_ring: int = trace.DEFAULT_TRACE_RING,
        slow_query_ms: float | None = None,
        slow_log_path: str | None = None,
        access_log_path: str | None = None,
        profile_hz: float = 0.0,
        scan_procs: int | None = None,
    ) -> None:
        if path == ":memory:":
            raise ValueError(
                "the service needs a database file shared across "
                "connections; ':memory:' databases are per-connection"
            )
        self.path = path
        self.index_approach = index_approach
        # One kernel memo for this database: shared by the writer (whose
        # ingests bump its generation clock) and every pooled reader.
        self.kernel_memo = KernelMemo()
        # The writer goes first so a fresh file gets its schema (and WAL
        # mode, letting pooled readers proceed during a batch commit)
        # before any reader connects.
        self._writer = StaccatoDB(
            path,
            k=k,
            m=m,
            check_same_thread=False,
            kernel_memo=self.kernel_memo,
        )
        try:
            self._writer.conn.execute("PRAGMA journal_mode=WAL")
        except Exception:
            pass  # e.g. filesystems without mmap/locking; rollback mode works
        self._write_lock = threading.Lock()
        self.pool = ConnectionPool(
            path,
            size=pool_size,
            k=k,
            m=m,
            index_approach=index_approach,
            kernel_memo=self.kernel_memo,
            scan_procs=scan_procs,
        )
        self.cache = QueryCache(cache_size)
        self.metrics = ServiceMetrics()
        self.tracer = Tracer(
            enabled=trace_enabled,
            ring=trace_ring,
            slow_query_ms=slow_query_ms,
            slow_log_path=slow_log_path,
            access_log_path=access_log_path,
        )
        self.jobs = JobEngine(
            self,
            f"{path}.jobs.json",
            workers=workers,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.profiler = SamplingProfiler(hz=profile_hz)
        self.profiler.start()

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.profiler.stop()
        self.jobs.shutdown()
        self.pool.close()
        self._writer.close()
        self.tracer.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def ingest(self, payload: object) -> dict[str, object]:
        """Ingest one batch of documents; atomic, invalidates the cache."""
        request = validate_ingest(payload)
        ocr = SimulatedOcrEngine(seed=request.ocr_seed)
        started = time.perf_counter()
        with self._write_lock:
            count = self._writer.ingest(
                request.dataset,
                ocr,
                approaches=request.approaches,
                workers=request.workers,
            )
            total = self._writer.num_lines
        # The committed batch changes every query's universe: drop all
        # cached results so readers never serve pre-batch answers.
        self.cache.invalidate()
        return {
            "dataset": request.dataset.name,
            "ingested_lines": count,
            "total_lines": total,
            "elapsed_s": time.perf_counter() - started,
        }

    # ------------------------------------------------------------------
    def search(self, payload: object) -> dict[str, object]:
        """LIKE/regex search, served from cache when possible."""
        with trace.span("validate"):
            request = validate_search(payload)
            reject_shard_scope(request.shards)
            check_pattern(request.pattern)
        key = (
            "search",
            self.path,
            request.pattern,
            request.approach,
            request.plan,
            request.num_ans,
        )
        cached = self.cache.get(key)
        if cached is not None:
            return {**cached, "cached": True}
        generation = self.cache.generation
        started = time.perf_counter()
        with self.pool.acquire() as db:
            plan_label, answers = run_search_plan(db, request)
        result = {
            "pattern": request.pattern,
            "approach": request.approach,
            "plan": plan_label,
            "count": len(answers),
            "answers": [answer_row(a) for a in answers],
            "elapsed_s": time.perf_counter() - started,
        }
        self.cache.put(key, result, generation=generation)
        return {**result, "cached": False}

    # ------------------------------------------------------------------
    def sql(self, payload: object) -> dict[str, object]:
        """The probabilistic SELECT surface of :mod:`repro.db.sql`."""
        with trace.span("validate"):
            request = validate_sql(payload)
            reject_shard_scope(request.shards)
        key = ("sql", self.path, request.query, request.approach, request.num_ans)
        cached = self.cache.get(key)
        if cached is not None:
            return {**cached, "cached": True}
        generation = self.cache.generation
        started = time.perf_counter()
        with self.pool.acquire() as db:
            try:
                with trace.span("sql_execute") as sql_span:
                    rows = execute_select(
                        db,
                        request.query,
                        approach=request.approach,
                        num_ans=request.num_ans,
                    )
                    if sql_span is not None:
                        sql_span.annotate(rows=len(rows))
            except (SqlError, RegexError) as exc:
                raise ApiError(400, str(exc), code="sql_error") from exc
        result = {
            "query": request.query,
            "approach": request.approach,
            "count": len(rows),
            "rows": rows,
            "elapsed_s": time.perf_counter() - started,
        }
        self.cache.put(key, result, generation=generation)
        return {**result, "cached": False}

    # ------------------------------------------------------------------
    def index(self, payload: object) -> dict[str, object]:
        """Build/rebuild the dictionary index and broadcast to the pool.

        The out-of-band CLI step (``python -m repro index``) over HTTP:
        rebuilds the inverted index on the writer, reloads every pooled
        reader's anchor trie, and invalidates the cache (indexed plans
        and plan labels may change under the new index).
        """
        request = validate_index(payload)
        reject_shard_scope(request.shards)
        started = time.perf_counter()
        with self._write_lock:
            postings = self._writer.build_index(
                request.terms, approach=request.approach
            )
        reloaded = self.pool.reload_index(request.approach)
        self.cache.invalidate()
        return {
            "approach": request.approach,
            "terms": len(request.terms),
            "postings": postings,
            "reloaded": reloaded,
            "elapsed_s": time.perf_counter() - started,
        }

    # ------------------------------------------------------------------
    def replicas(self, payload: object) -> dict[str, object]:
        """``POST /replicas`` is a shard-router admin endpoint."""
        raise ApiError(
            400,
            "this service is not sharded; replicas belong to a service "
            "started with --shards (optionally --replicas N)",
            code="not_sharded",
        )

    # ------------------------------------------------------------------
    def validate_job_params(self, job_type, params):
        if job_type == "rebalance":
            raise ApiError(
                400,
                "this service is not sharded; rebalance jobs belong to a "
                "service started with --shards",
                code="not_sharded",
            )
        if job_type == "rebuild_index":
            # One parse covers both checks (shape and shard scope);
            # skip the base class's second validate_index pass.
            reject_shard_scope(validate_index(params).shards)
            return dict(params)
        return super().validate_job_params(job_type, params)

    @property
    def snapshot_path(self) -> str:
        """The warm-start sidecar the ``cache_snapshot`` job writes."""
        return f"{self.path}.cache.json"

    def job_cache_snapshot(self, job: Job, params) -> dict[str, object]:
        """Runner: serialize the query cache for the next warm start.

        The snapshot records the line count it was taken at; a warm
        start only replays it when the database still has that many
        lines (any write in between means the cached results describe a
        different relation, so the whole snapshot is stale).
        """
        job.check_cancelled()
        with self.pool.acquire() as db:
            lines = db.num_lines
            index = index_fingerprint(db)
        entries = self.cache.export_entries()
        payload = {
            "kind": "single",
            "db": self.path,
            "lines": lines,
            "index": index,
            "created_at": time.time(),
            "entries": [
                [key_to_json(key), value] for key, value in entries
            ],
        }
        size = atomic_write_json(self.snapshot_path, payload)
        job.update(progress=1.0, entries=len(entries), bytes=size)
        return {
            "path": self.snapshot_path,
            "entries": len(entries),
            "bytes": size,
        }

    def warm_start(self) -> int:
        """Reload the last ``cache_snapshot`` (``serve --warm-start``).

        Returns the number of entries restored; 0 when there is no
        snapshot, it belongs to another database, or the data has moved
        on since it was taken (stale snapshots are dropped whole --
        cheaper to recompute than to risk serving pre-write answers).
        """
        if not os.path.exists(self.snapshot_path):
            return 0
        # A snapshot that cannot be parsed -- or is structurally off in
        # any way -- is dropped whole: warm starting is best-effort and
        # must never keep the service from coming up.
        try:
            with open(self.snapshot_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if data.get("kind") != "single" or data.get("db") != self.path:
                return 0
            with self.pool.acquire() as db:
                if db.num_lines != data.get("lines"):
                    return 0
                if index_fingerprint(db) != data.get("index"):
                    return 0  # an index rebuild invalidated the entries
            entries = [
                (key_from_json(key), value)
                for key, value in data.get("entries", [])
            ]
        except (OSError, json.JSONDecodeError, ValueError, TypeError,
                KeyError, AttributeError):
            return 0
        return self.cache.load_entries(entries)

    # ------------------------------------------------------------------
    def health(self) -> dict[str, object]:
        """Liveness: the database answers a trivial query."""
        with self.pool.acquire() as db:
            lines = db.num_lines
        return {
            "status": "ok",
            "db": self.path,
            "lines": lines,
            "uptime_s": self.metrics.uptime_s,
        }

    def kernel_memos(self) -> dict[int, KernelMemo]:
        return {0: self.kernel_memo}

    def stats(self) -> dict[str, object]:
        """Operational snapshot: db, cache, pool and request metrics."""
        with self.pool.acquire() as db:
            lines = db.num_lines
            storage = {a: db.storage_bytes(a) for a in APPROACHES}
        return {
            "db": {"path": self.path, "lines": lines, "storage_bytes": storage},
            "cache": self.cache.stats(),
            "kernel_memo": self.kernel_memo.stats(),
            "pool": self.pool.stats(),
            "jobs": self.jobs.stats(),
            "requests": self.metrics.snapshot(),
            "uptime_s": self.metrics.uptime_s,
        }
