"""Durable background jobs: the off-request-path execution engine.

Everything expensive the service does today -- index rebuilds, shard
maintenance -- runs inline on an HTTP handler thread, pinning it for the
duration.  This module gives the service a place to run long-lived
work instead:

* a fixed pool of **worker threads** (``serve --workers N``) consuming a
  FIFO queue of :class:`Job` records;
* a **job registry** with the full lifecycle ``queued -> running ->
  succeeded | failed | cancelled``, progress fractions and per-job
  metrics, inspectable over ``GET /jobs`` / ``GET /jobs/<id>``;
* **cooperative cancellation** (``DELETE /jobs/<id>``): a queued job is
  dropped immediately; a running job sees the request at its next
  :meth:`Job.check_cancelled` checkpoint, unwinds (jobs undo partial
  work -- see the rebalance phases in :mod:`repro.service.shards`), and
  lands in ``cancelled``;
* a **JSON sidecar journal** next to the data
  (``<shard_dir>/jobs.json``; ``<db>.jobs.json`` beside a one-file
  service's database) rewritten atomically
  on every state transition, so jobs survive restarts: a job that was
  queued or running when the process died is *reported* on the next
  start, and re-queued automatically when its type is idempotent
  (``rebuild_index``); other jobs are marked ``failed`` with an
  interruption notice -- an interrupted ``rebalance`` leaves queries
  correct (the read paths de-duplicate) and re-submitting the same move
  converges whatever phase the crash interrupted, while an interrupted
  ``cache_snapshot`` must *not* re-run against the restarted process's
  cold cache (it would clobber the previous good snapshot).

The engine is service-agnostic: a job type's runner is looked up as the
``job_<type>`` method of the owning service, or supplied directly when
registering a custom :class:`JobType` (tests do this to exercise crash
paths).
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from .validation import ApiError, validate_index, validate_job_submit

__all__ = [
    "JOB_STATES",
    "Job",
    "JobCancelled",
    "JobEngine",
    "JobJournal",
    "JobType",
    "JobsApi",
    "atomic_write_json",
]


def atomic_write_json(path: str, payload: Any, default=None) -> int:
    """Serialize ``payload`` and atomically replace ``path`` with it.

    The one write-temp-then-``os.replace`` implementation every sidecar
    (job journal, routing table, pending moves, cache snapshots) shares:
    a crash mid-write leaves the previous file intact.  Raises ``OSError``
    (and serialization errors) to the caller -- jobs want the failure on
    their row, best-effort callers wrap it.  Returns the encoded size.
    """
    encoded = json.dumps(payload, default=default)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(encoded)
    os.replace(tmp, path)
    return len(encoded)

JOB_STATES = ("queued", "running", "succeeded", "failed", "cancelled")

#: States a job can still leave (cancel targets, restart recovery).
ACTIVE_STATES = ("queued", "running")

#: Terminal job rows kept in memory/journal beyond which the oldest drop.
DEFAULT_HISTORY = 256


class JobCancelled(Exception):
    """Raised inside a runner at a checkpoint after a cancel request."""


def _overlaps(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    """Whether two rebalance param sets fight over the same DocId range."""
    return not (
        int(a["doc_hi"]) < int(b["doc_lo"])
        or int(b["doc_hi"]) < int(a["doc_lo"])
    )


@dataclass(frozen=True, slots=True)
class JobType:
    """One registered kind of background work.

    ``runner`` is optional: when ``None`` the engine dispatches to the
    owning service's ``job_<name>(job, params)`` method.  ``idempotent``
    drives restart recovery (re-queue vs report-as-interrupted);
    ``conflicts`` (given the new and an active job's params) lets a type
    refuse overlapping work with 409 ``job_conflict``.
    """

    name: str
    idempotent: bool = False
    runner: Callable[[Any, "Job", Mapping[str, Any]], Any] | None = None
    conflicts: Callable[[Mapping[str, Any], Mapping[str, Any]], bool] | None = None


#: The shipped job types.  ``rebalance`` moves a DocId range between two
#: live shards; ``rebuild_index`` is the
#: ``POST /index`` work rehomed off the request thread;
#: ``cache_snapshot`` serializes the query cache for warm starts.
#: ``cache_snapshot`` is deliberately NOT restart-resumed even though
#: running it twice is harmless in a live process: re-running it right
#: after a restart would snapshot the still-cold cache, atomically
#: replacing the previous good snapshot before ``--warm-start`` could
#: load it.
DEFAULT_JOB_TYPES = (
    JobType("rebalance", idempotent=False, conflicts=_overlaps),
    JobType("rebuild_index", idempotent=True),
    JobType("cache_snapshot", idempotent=False, conflicts=lambda a, b: True),
)


class Job:
    """One unit of background work and its observable state."""

    __slots__ = (
        "id",
        "type",
        "params",
        "state",
        "progress",
        "created_at",
        "started_at",
        "finished_at",
        "error",
        "result",
        "metrics",
        "interrupted",
        "_lock",
        "_cancel",
    )

    def __init__(
        self, job_id: str, job_type: str, params: Mapping[str, Any]
    ) -> None:
        self.id = job_id
        self.type = job_type
        self.params = dict(params)
        self.state = "queued"
        self.progress = 0.0
        self.created_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.error: str | None = None
        self.result: Any = None
        #: Free-form per-job counters a runner publishes as it works
        #: (e.g. a rebalance's moved docs/lines so far).
        self.metrics: dict[str, Any] = {}
        #: Set by journal recovery on jobs that outlived their process.
        self.interrupted = False
        self._lock = threading.Lock()
        self._cancel = threading.Event()

    # ------------------------------------------------------------------
    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def request_cancel(self) -> None:
        self._cancel.set()

    def check_cancelled(self) -> None:
        """Runner checkpoint: unwind cooperatively if a cancel landed."""
        if self._cancel.is_set():
            raise JobCancelled(f"job {self.id} cancelled")

    def update(self, progress: float | None = None, **metrics: Any) -> None:
        """Publish progress (0..1) and/or metric counters from the runner."""
        with self._lock:
            if progress is not None:
                self.progress = max(0.0, min(1.0, progress))
            self.metrics.update(metrics)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The JSON row ``GET /jobs`` returns (and the journal stores)."""
        with self._lock:
            row: dict[str, Any] = {
                "id": self.id,
                "type": self.type,
                "params": dict(self.params),
                "state": self.state,
                "progress": self.progress,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "error": self.error,
                "result": self.result,
                "metrics": dict(self.metrics),
                "cancel_requested": self._cancel.is_set(),
                "interrupted": self.interrupted,
            }
        return row

    @classmethod
    def from_row(cls, row: Mapping[str, Any]) -> "Job":
        """Rebuild a job from its journal row (restart recovery)."""
        job = cls(str(row["id"]), str(row["type"]), row.get("params") or {})
        job.state = row.get("state", "queued")
        job.progress = float(row.get("progress", 0.0))
        job.created_at = float(row.get("created_at", time.time()))
        job.started_at = row.get("started_at")
        job.finished_at = row.get("finished_at")
        job.error = row.get("error")
        job.result = row.get("result")
        job.metrics = dict(row.get("metrics") or {})
        job.interrupted = bool(row.get("interrupted", False))
        return job


class JobJournal:
    """The JSON sidecar making the registry survive restarts.

    One file next to the database, rewritten in full (write-temp +
    ``os.replace``, so a crash mid-write leaves the previous journal
    intact) on every job state transition.  Progress updates are *not*
    journaled -- they are observability, not durability, and journaling
    every tick would turn a long rebalance into an fsync storm.
    """

    def __init__(self, path: str | None) -> None:
        self.path = path

    def load(self) -> list[dict[str, Any]]:
        if self.path is None or not os.path.exists(self.path):
            return []
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return []  # a torn/corrupt journal must not block startup
        rows = data.get("jobs") if isinstance(data, dict) else None
        return [row for row in rows or [] if isinstance(row, dict)]

    def write(self, rows: list[dict[str, Any]]) -> None:
        if self.path is None:
            return
        try:
            # ``default=repr`` keeps a custom job type's non-JSON result
            # or metric from poisoning the journal (and, worse, killing
            # the worker thread that flushes it): the odd value degrades
            # to its repr, the registry stays durable.
            atomic_write_json(self.path, {"jobs": rows}, default=repr)
        except (OSError, TypeError, ValueError):
            # A read-only or vanished directory degrades durability, not
            # serving; the in-memory registry stays authoritative.
            pass


class JobEngine:
    """Worker pool + registry + journal for one service instance."""

    def __init__(
        self,
        service: Any,
        journal_path: str | None,
        workers: int = 2,
        history: int = DEFAULT_HISTORY,
        metrics: Any = None,
        tracer: Any = None,
        extra_types: Sequence[JobType] = (),
    ) -> None:
        if workers < 1:
            raise ValueError("the job engine needs at least one worker")
        self.service = service
        self.workers = workers
        self.journal = JobJournal(journal_path)
        self._history = history
        self._metrics = metrics
        self._tracer = tracer
        # ``extra_types`` land before journal recovery so a custom
        # idempotent type's interrupted jobs re-queue like built-ins.
        self._types: dict[str, JobType] = {t.name: t for t in DEFAULT_JOB_TYPES}
        for job_type in extra_types:
            self._types[job_type.name] = job_type
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._queue: "queue.Queue[Job | None]" = queue.Queue()
        self._closed = False
        self._recover()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"job-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    def register(self, job_type: JobType) -> None:
        """Add (or replace) a job type; tests use this for crash paths."""
        with self._lock:
            self._types[job_type.name] = job_type

    def types(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._types))

    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Replay the journal: report interrupted jobs, resume idempotent ones."""
        rows = self.journal.load()
        requeue: list[Job] = []
        for row in rows:
            try:
                job = Job.from_row(row)
            except (KeyError, TypeError, ValueError):
                # A malformed row (hand edit, format drift) is skipped;
                # a broken journal must never block startup.
                continue
            if job.state in ACTIVE_STATES:
                job.interrupted = True
                spec = self._types.get(job.type)
                if spec is not None and spec.idempotent:
                    # Safe to simply run again: the work converges to the
                    # same end state no matter how far the last run got.
                    job.state = "queued"
                    job.progress = 0.0
                    job.error = None
                    requeue.append(job)
                else:
                    interrupted_while = job.state
                    job.state = "failed"
                    job.error = (
                        f"interrupted by a service restart while "
                        f"{interrupted_while}; not resumed (job type is not "
                        "idempotent)"
                    )
                    job.finished_at = time.time()
            self._jobs[job.id] = job
            self._order.append(job.id)
        if rows:
            self._journal_locked_free()
        for job in requeue:
            self._queue.put(job)

    # ------------------------------------------------------------------
    def _journal_locked_free(self) -> None:
        """Trim history and rewrite the sidecar (call without the lock held
        only from ``_recover``; everywhere else via :meth:`_journal`)."""
        while len(self._order) > self._history:
            victim = self._jobs.get(self._order[0])
            if victim is not None and victim.state in ACTIVE_STATES:
                break  # never drop live jobs, however old
            self._order.pop(0)
            if victim is not None:
                del self._jobs[victim.id]
        self.journal.write(
            [self._jobs[job_id].snapshot() for job_id in self._order]
        )

    def _journal(self) -> None:
        with self._lock:
            self._journal_locked_free()

    # ------------------------------------------------------------------
    def submit(self, job_type: str, params: Mapping[str, Any]) -> Job:
        """Queue one job, enforcing type existence and conflict rules."""
        with self._lock:
            if self._closed:
                raise ApiError(503, "job engine is shut down", "job_engine_down")
            spec = self._types.get(job_type)
            if spec is None:
                raise ApiError(
                    400,
                    f"unknown job type {job_type!r}; "
                    f"one of {sorted(self._types)}",
                    code="bad_request",
                )
            if spec.conflicts is not None:
                for other_id in self._order:
                    other = self._jobs[other_id]
                    if other.type != job_type or other.state not in ACTIVE_STATES:
                        continue
                    if spec.conflicts(params, other.params):
                        raise ApiError(
                            409,
                            f"a {job_type!r} job ({other.id}) is already "
                            f"{other.state} over conflicting parameters",
                            code="job_conflict",
                        )
            job = Job(uuid.uuid4().hex[:12], job_type, params)
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._journal_locked_free()
        self._queue.put(job)
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ApiError(404, f"no job {job_id!r}", code="unknown_job")
        return job

    def list(self) -> list[dict[str, Any]]:
        """Every known job, newest first."""
        with self._lock:
            return [
                self._jobs[job_id].snapshot() for job_id in reversed(self._order)
            ]

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cooperative cancel: immediate for queued, flagged for running."""
        job = self.get(job_id)
        with self._lock:
            if job.state == "queued":
                job.state = "cancelled"
                job.finished_at = time.time()
                job.request_cancel()
                self._done.notify_all()
            elif job.state == "running":
                job.request_cancel()
            else:
                raise ApiError(
                    409,
                    f"job {job_id} already {job.state}; nothing to cancel",
                    code="job_conflict",
                )
        self._journal()
        return job.snapshot()

    def wait(self, job_id: str, timeout: float | None = None) -> dict[str, Any]:
        """Block until the job reaches a terminal state (or timeout)."""
        job = self.get(job_id)
        with self._done:
            self._done.wait_for(
                lambda: job.state not in ACTIVE_STATES, timeout=timeout
            )
        return job.snapshot()

    # ------------------------------------------------------------------
    def _runner_for(self, job: Job):
        with self._lock:
            spec = self._types.get(job.type)
        if spec is not None and spec.runner is not None:
            return lambda: spec.runner(self.service, job, job.params)
        method = getattr(self.service, f"job_{job.type}", None)
        if method is None:
            raise ApiError(
                400,
                f"this service cannot run {job.type!r} jobs",
                code="bad_request",
            )
        return lambda: method(job, job.params)

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            with self._lock:
                if job.state != "queued":  # cancelled while waiting
                    continue
                job.state = "running"
                job.started_at = time.time()
            self._journal()
            error: str | None = None
            state = "succeeded"
            # Each run gets its own trace rooted in this worker thread's
            # context, so engine spans raised by the runner (index build,
            # rebalance reads) land under ``job:<type>`` in ``/traces``.
            root = None
            if self._tracer is not None:
                root = self._tracer.begin_request(
                    f"job:{job.type}", "JOB", f"/jobs/{job.id}"
                )
            try:
                job.check_cancelled()  # a cancel may have raced the dequeue
                result = self._runner_for(job)()
            except JobCancelled:
                state, result = "cancelled", None
            except ApiError as exc:
                # A structured refusal (e.g. bad params surfacing late):
                # keep the message, skip the traceback noise.
                state, result, error = "failed", None, f"{exc.code}: {exc}"
            except Exception:  # noqa: BLE001 - worker crash boundary
                state, result = "failed", None
                error = traceback.format_exc()
            finally:
                if root is not None:
                    self._tracer.finish_request(
                        root, status=500 if state == "failed" else 200
                    )
                    self._tracer.release(root)
            with self._lock:
                job.state = state
                job.result = result
                job.error = error
                job.progress = 1.0 if state == "succeeded" else job.progress
                job.finished_at = time.time()
                self._done.notify_all()
            self._journal()
            if self._metrics is not None:
                self._metrics.observe(
                    "jobs",
                    (job.type,),
                    job.finished_at - (job.started_at or job.finished_at),
                    error=state == "failed",
                )

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The ``/stats`` jobs block: counts by state plus pool shape."""
        with self._lock:
            by_state: dict[str, int] = {}
            for job_id in self._order:
                state = self._jobs[job_id].state
                by_state[state] = by_state.get(state, 0) + 1
            return {
                "workers": self.workers,
                "queued": by_state.get("queued", 0),
                "running": by_state.get("running", 0),
                "states": by_state,
                "journal": self.journal.path,
                "types": sorted(self._types),
            }

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting work, nudge running jobs, join the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for job in self._jobs.values():
                if job.state in ACTIVE_STATES:
                    job.request_cancel()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)


class JobsApi:
    """The ``/jobs`` endpoint surface of the service.

    The concrete service supplies ``self.jobs`` (a :class:`JobEngine`),
    extends ``validate_job_params(type, params)`` for its own job types
    and defines the ``job_<type>`` runner methods.
    """

    jobs: JobEngine

    #: Upper bound on ``"wait": true`` blocking; past it the client gets
    #: the still-running job row back and falls back to polling.
    WAIT_TIMEOUT_S = 600.0

    # ------------------------------------------------------------------
    def jobs_submit(self, payload: Any):
        """``POST /jobs``: queue a job by type + params (202 + job row)."""
        request = validate_job_submit(payload)
        params = self.validate_job_params(request.type, request.params)
        job = self.jobs.submit(request.type, params)
        if request.wait:
            row = self.jobs.wait(job.id, timeout=self.WAIT_TIMEOUT_S)
            if row["state"] in ACTIVE_STATES:
                # Wait timed out with the job still alive: answer 202
                # still-pending (like index_job), never a terminal 200.
                return 202, row
            return row
        return 202, job.snapshot()

    def jobs_list(self) -> dict[str, Any]:
        """``GET /jobs``: every known job (newest first) plus pool shape."""
        return {"jobs": self.jobs.list(), **self.jobs.stats()}

    def jobs_get(self, job_id: str) -> dict[str, Any]:
        """``GET /jobs/<id>``: one job's state/progress/result."""
        return self.jobs.get(job_id).snapshot()

    def jobs_cancel(self, job_id: str) -> dict[str, Any]:
        """``DELETE /jobs/<id>``: cooperative cancellation."""
        return self.jobs.cancel(job_id)

    # ------------------------------------------------------------------
    def index_job(self, payload: Any):
        """``POST /index``: the rebuild, rehomed as a ``rebuild_index`` job.

        The endpoint survives unchanged on the wire but no longer pins a
        request thread: by default it submits and answers 202 with the
        job row.  ``"wait": true`` keeps the old synchronous shape (the
        handler blocks, the *build* still runs on a job worker) and
        returns the rebuild result with the job id attached.
        """
        if not isinstance(payload, Mapping):
            raise ApiError(400, "request body must be a JSON object")
        wait = payload.get("wait", False)
        if not isinstance(wait, bool):
            raise ApiError(400, "'wait' must be a boolean")
        params = {key: value for key, value in payload.items() if key != "wait"}
        params = self.validate_job_params("rebuild_index", params)
        job = self.jobs.submit("rebuild_index", params)
        if not wait:
            return 202, job.snapshot()
        row = self.jobs.wait(job.id, timeout=self.WAIT_TIMEOUT_S)
        if row["state"] in ACTIVE_STATES:
            # The wait timed out but the job is alive and will finish;
            # that is a still-pending 202, not a failure.
            return 202, row
        if row["state"] != "succeeded":
            raise ApiError(
                500,
                f"rebuild_index job {job.id} {row['state']}: {row['error']}",
                code="job_failed",
            )
        return {**row["result"], "job_id": job.id}

    # ------------------------------------------------------------------
    def validate_job_params(
        self, job_type: str, params: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Submit-time validation.

        ``rebuild_index`` re-uses the ``/index`` validator so a bad
        payload is a 400 at submission, not a failed job later;
        ``cache_snapshot`` takes no parameters.  The router extends this
        with ``rebalance``.
        """
        if job_type == "rebuild_index":
            validate_index(params)
            return dict(params)
        if job_type == "cache_snapshot":
            return {}
        return dict(params)

    def job_rebuild_index(self, job: Job, params: Mapping[str, Any]) -> Any:
        """Runner: the existing ``index`` work, off the request path."""
        job.update(progress=0.05)
        result = self.index(dict(params))
        job.update(postings=result.get("postings"))
        return result
