"""The service core: one router over N StaccatoDB shards, N >= 1.

One SQLite file stops scaling long before an OCR corpus does, so the
service runs over N shards, each a complete StaccatoDB file holding a
disjoint subset of the documents.  The paper's answer is a ranked
relation cut at ``NumAns``, evaluated line by line with no cross-line
state, so partitioning by DocId is semantically invisible: every
topology is "top-``NumAns`` merge of per-shard rankings" -- and
``serve --db`` is the N = 1 case (:class:`QueryService`: the same router
over that one file, its sidecars beside it), not a second service.

:class:`ShardedQueryService` is that router, written once against the
:class:`~repro.service.legs.ShardLeg` seam -- the only code that knows
*how* a shard is reached (in this process, or in a worker subprocess;
see :mod:`repro.service.legs` and :mod:`repro.service.workers`):

* **Routing** -- documents are partitioned by DocId range:
  ``shard_for_doc`` stripes contiguous ranges of ``range_width`` ids
  across the shards, so a document (and every line of it) lives wholly
  on one shard and repeated batches for the same document land in the
  same file.  ``/ingest`` may instead ask for ``"route":
  "round_robin"`` when placement does not matter; either way a document
  already present on some shard is routed back to that owner, so
  re-ingestion can never split one document across shards.
* **Fan-out** -- ``/search`` and ``/sql`` execute on every scoped shard
  concurrently (one leg per shard) and the per-shard ranked relations
  are merged by probability with stable (DocId, LineNo, shard)
  tie-breaks -- identical answers and ranking to one database holding
  the union.  Identical concurrent misses coalesce onto one fan-out.
* **Per-shard invalidation** -- every cache key embeds the shard scope
  it was computed over plus those shards' generation counters; an
  ingest or index rebuild bumps only the touched shards' generations
  and evicts only the entries that depended on them.
* **``POST /index``** / **``POST /replicas``** -- build the dictionary
  index shard by shard; attach or detach one replica of one shard.
* **Online rebalancing** -- the ``rebalance`` job
  (:mod:`repro.service.rebalance`) moves one DocId range between two
  live shards under traffic; ownership flips in a **single atomic
  publish** of one immutable :class:`RoutingTable` (readers grab the
  whole table by reference; they can never observe a range owned by
  both -- or neither -- shard).  While copies transiently exist on two
  shards, :func:`merge_ranked` de-duplicates by (DocId, LineNo) and
  ``/sql`` switches to a full-row plan whose aggregates the router
  recomputes, so answers stay exact through every phase.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

from ..db.engine import shard_paths
from ..db.sql import (
    SqlError,
    aggregate_full_rows,
    merge_shard_rows,
    parse_select,
)
from ..ocr.corpus import Document
from ..query.answers import Answer
from . import rebalance, trace
from .app import answer_row, check_pattern
from .cache import QueryCache, key_from_json, key_to_json
from .jobs import Job, JobEngine, JobsApi, atomic_write_json
from .legs import LegDeadline, LocalLeg, ShardLeg
from .metrics import ServiceMetrics
from .profiler import SamplingProfiler
from .replicas import DEFAULT_COOLDOWN_S, ReplicaUnavailable
from .trace import ObservabilityApi, Tracer
from .validation import (
    ApiError,
    validate_index,
    validate_ingest,
    validate_rebalance_params,
    validate_replicas,
    validate_search,
    validate_sql,
)

__all__ = [
    "DEFAULT_RANGE_WIDTH",
    "ROUTING_FILE",
    "shard_for_doc",
    "merge_ranked",
    "RoutingTable",
    "ShardedPool",
    "ShardedQueryService",
    "QueryService",
]

#: DocIds per contiguous routing range.  Ranges stripe across shards
#: (``(doc_id // width) % num_shards``), so bulk loads of consecutive ids
#: spread out while each document still has exactly one owner.
DEFAULT_RANGE_WIDTH = 64

#: In-flight placement entries retained (see ``_placements``).
_PLACEMENTS_CAP = 65536

#: Sidecar files (see :meth:`ShardedQueryService.sidecar`): the routing
#: overrides, the job journal and the warm-start snapshot (the pending
#: moves are named by :mod:`repro.service.rebalance`).
ROUTING_FILE = "routing.json"
JOBS_JOURNAL_FILE = "jobs.json"
CACHE_SNAPSHOT_FILE = "cache-snapshot.json"

#: Rounds an ingest batch may be re-dispatched when a concurrent
#: rebalance moves its documents between placement and commit.  One
#: hop settles a move (overrides are stable once published); the head
#: room only covers back-to-back rebalances of the same range.
_MAX_REROUTE_ROUNDS = 4

#: Backstop on how long a coalesced miss waits for its leader (which
#: releases its followers however it ends).
_SINGLEFLIGHT_WAIT_S = 30.0


def shard_for_doc(
    doc_id: int, num_shards: int, range_width: int = DEFAULT_RANGE_WIDTH
) -> int:
    """The shard owning ``doc_id`` under DocId-range partitioning."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if range_width < 1:
        raise ValueError("range_width must be >= 1")
    return (doc_id // range_width) % num_shards


class RoutingTable:
    """Immutable DocId -> shard ownership: striping plus move overrides.

    The default placement is the striped :func:`shard_for_doc`; a
    rebalance layers an **override** ``[doc_lo, doc_hi] -> shard`` on
    top.  Instances are never mutated after construction -- a rebalance
    builds a successor with :meth:`with_move` and the router swaps the
    whole object in one atomic publish under its routing lock, so a
    concurrent reader holds either the old table or the new one, never
    a half-updated hybrid where a range has two owners (or none).

    Overrides are kept sorted and non-overlapping (a later move splices
    over earlier ones), so lookups are a bisect.
    """

    __slots__ = ("num_shards", "range_width", "overrides", "_bounds")

    def __init__(
        self,
        num_shards: int,
        range_width: int = DEFAULT_RANGE_WIDTH,
        overrides: Sequence[tuple[int, int, int]] = (),
    ) -> None:
        self.num_shards = num_shards
        self.range_width = range_width
        cleaned = sorted(
            (int(lo), int(hi), int(shard)) for lo, hi, shard in overrides
        )
        for (lo, hi, _), (next_lo, _, _) in zip(cleaned, cleaned[1:]):
            if next_lo <= hi:
                raise ValueError("routing overrides must not overlap")
        self.overrides: tuple[tuple[int, int, int], ...] = tuple(cleaned)
        self._bounds = [lo for lo, _, _ in self.overrides]

    # ------------------------------------------------------------------
    def override_owner(self, doc_id: int) -> int | None:
        """The override covering ``doc_id``, or None for striped routing."""
        at = bisect.bisect_right(self._bounds, doc_id) - 1
        if at >= 0:
            lo, hi, shard = self.overrides[at]
            if lo <= doc_id <= hi:
                return shard
        return None

    def owner(self, doc_id: int) -> int:
        """The shard a *new* document with this DocId is placed on."""
        override = self.override_owner(doc_id)
        if override is not None:
            return override
        return shard_for_doc(doc_id, self.num_shards, self.range_width)

    def with_move(self, doc_lo: int, doc_hi: int, target: int) -> "RoutingTable":
        """A successor table where ``[doc_lo, doc_hi]`` belongs to ``target``."""
        if doc_hi < doc_lo:
            raise ValueError("doc_hi must be >= doc_lo")
        spliced: list[tuple[int, int, int]] = []
        for lo, hi, shard in self.overrides:
            if hi < doc_lo or lo > doc_hi:
                spliced.append((lo, hi, shard))
                continue
            if lo < doc_lo:
                spliced.append((lo, doc_lo - 1, shard))
            if hi > doc_hi:
                spliced.append((doc_hi + 1, hi, shard))
        spliced.append((doc_lo, doc_hi, target))
        return RoutingTable(self.num_shards, self.range_width, spliced)

    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, object]:
        return {
            "num_shards": self.num_shards,
            "range_width": self.range_width,
            "overrides": [list(entry) for entry in self.overrides],
        }

    @classmethod
    def load(
        cls, path: str, num_shards: int, range_width: int
    ) -> "RoutingTable":
        """The persisted table of a previous run, or a fresh striped one.

        A sidecar describing a different layout (shard count or stripe
        width changed) is ignored: its overrides are meaningless under
        the new geometry, and plain striping plus owner-probing keeps
        every existing document readable.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if (
                data.get("num_shards") == num_shards
                and data.get("range_width") == range_width
            ):
                return cls(
                    num_shards,
                    range_width,
                    [tuple(entry) for entry in data.get("overrides", [])],
                )
        except (OSError, json.JSONDecodeError, ValueError, TypeError):
            pass
        return cls(num_shards, range_width)

    def save(self, path: str) -> None:
        try:
            atomic_write_json(path, self.to_json())
        except OSError:
            pass  # persistence is best-effort; the live table is in memory


def merge_ranked(
    per_shard: Iterable[tuple[int, Sequence[Answer]]],
    num_ans: int | None,
) -> list[tuple[int, Answer]]:
    """Merge per-shard ranked relations into one global ranking.

    Sorts by descending probability with a (DocId, LineNo, shard)
    tie-break -- the order a single database produces when documents
    were ingested in DocId order, with the shard index as the final key
    so the merged order is fully deterministic no matter which fan-out
    leg finished first -- and cuts at ``num_ans``.  Each kept answer is
    tagged with its source shard (line ids are shard-local).

    Duplicate (DocId, LineNo) rows are dropped, keeping the first in
    sort order: a document lives wholly on one shard, so a duplicate
    only appears mid-rebalance, while a moved line transiently exists on
    both the source and the target -- with the *same* probability (the
    OCR channel is placement-independent), so de-duplication keeps the
    merged relation exact through every phase of a move.
    """
    rows = [
        (shard, answer) for shard, answers in per_shard for answer in answers
    ]
    rows.sort(
        key=lambda row: (
            -row[1].probability,
            row[1].doc_id,
            row[1].line_no,
            row[0],
        )
    )
    seen: set[tuple[int, int]] = set()
    deduped: list[tuple[int, Answer]] = []
    for shard, answer in rows:
        line = (answer.doc_id, answer.line_no)
        if line in seen:
            continue
        seen.add(line)
        deduped.append((shard, answer))
    if num_ans is not None:
        deduped = deduped[:num_ans]
    return deduped



class ShardedPool:
    """The shard legs plus per-shard generation counters.

    The generation counter is the invalidation currency: every committed
    write (ingest batch or index rebuild) to a shard bumps its counter,
    and cached results carry the generation vector of the shards they
    read -- a stale result's key simply never matches again, which also
    closes the compute/invalidate race without a global generation.
    The router is the sole write path, so the clocks live here, not in
    the legs; replication never enters the cache key either: replicas
    are written in lockstep, so one generation per shard describes
    every copy.
    """

    def __init__(self, legs: Sequence[ShardLeg]) -> None:
        if not legs:
            raise ValueError("a sharded pool needs at least one shard")
        self.shards = list(legs)
        self._gen_lock = threading.Lock()
        self._generations = [0] * len(self.shards)

    def __len__(self) -> int:
        return len(self.shards)

    def shard(self, index: int) -> ShardLeg:
        return self.shards[index]

    def acquire(self, shard: int = 0):
        """Check out a pooled reader of one in-process shard: the very
        connections (and kernel memo) its leg serves requests from."""
        return self.shards[shard].pool.acquire()

    # ------------------------------------------------------------------
    def generations(self, scope: Sequence[int]) -> tuple[int, ...]:
        """Snapshot of the scoped shards' generation counters."""
        with self._gen_lock:
            return tuple(self._generations[i] for i in scope)

    def bump(self, scope: Iterable[int]) -> None:
        """Advance the touched shards' generations after a write."""
        with self._gen_lock:
            for i in scope:
                self._generations[i] += 1

    def resume_generations(self, generations: Sequence[int | None]) -> None:
        """Fast-forward generation clocks to a snapshot's values.

        Warm start calls this so cache keys restored from a snapshot
        (which embed generation vectors) keep matching future lookups.
        ``None`` skips a shard; clocks only ever move forward.
        """
        with self._gen_lock:
            for index, generation in enumerate(generations):
                if generation is not None:
                    self._generations[index] = max(
                        self._generations[index], int(generation)
                    )

    def close(self) -> None:
        for leg in self.shards:
            leg.close()


class ShardedQueryService(JobsApi, ObservabilityApi):
    """The StaccatoDB query service over N DocId-range shards."""

    def __init__(
        self,
        shard_dir: str,
        num_shards: int,
        k: int = 25,
        m: int = 40,
        pool_size: int = 2,
        cache_size: int = 256,
        index_approach: str = "staccato",
        range_width: int = DEFAULT_RANGE_WIDTH,
        replicas: int = 1,
        replica_cooldown_s: float = DEFAULT_COOLDOWN_S,
        workers: int = 2,
        trace_enabled: bool = True,
        trace_ring: int = trace.DEFAULT_TRACE_RING,
        slow_query_ms: float | None = None,
        slow_log_path: str | None = None,
        access_log_path: str | None = None,
        profile_hz: float = 0.0,
        paths: Sequence[str] | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("a sharded service needs at least one shard")
        if replicas < 1:
            raise ValueError("each shard needs at least one replica")
        #: Also where the sidecars live (see :meth:`sidecar`).
        self.shard_dir = shard_dir
        self.num_shards = num_shards
        self.range_width = range_width
        self.index_approach = index_approach
        self.num_replicas = replicas
        # ``paths`` overrides the canonical layout (shards that already
        # exist elsewhere; ``shard_dir`` then only holds the sidecars).
        self.paths = (
            list(paths) if paths is not None
            else shard_paths(shard_dir, num_shards)
        )
        if len(self.paths) != num_shards:
            raise ValueError(
                f"got {len(self.paths)} shard paths for {num_shards} shards"
            )
        if not self._one_file:
            os.makedirs(shard_dir, exist_ok=True)
        self.cache = QueryCache(cache_size)
        self.metrics = ServiceMetrics()
        self.tracer = Tracer(
            enabled=trace_enabled,
            ring=trace_ring,
            slow_query_ms=slow_query_ms,
            slow_log_path=slow_log_path,
            access_log_path=access_log_path,
        )
        self.profiler = SamplingProfiler(hz=profile_hz)
        try:
            legs = self._open_legs(
                k=k,
                m=m,
                pool_size=pool_size,
                index_approach=index_approach,
                num_replicas=replicas,
                cooldown_s=replica_cooldown_s,
            )
        except Exception:
            self.tracer.close()
            raise
        self.pool = ShardedPool(legs)
        self._rr_lock = threading.Lock()
        self._rr_next = 0
        # Placements decided in-process, including writes still in
        # flight: the shard probe alone cannot see a racing ingest that
        # has not committed yet, so without this registry two
        # concurrent batches carrying the same new document could each
        # pick it a different shard.  Guarded by ``_rr_lock``; bounded
        # (oldest-first trim) because once a placement's write commits
        # the probe takes over as the durable source -- only entries
        # young enough to race an in-flight batch still matter.
        self._placements: "OrderedDict[int, int]" = OrderedDict()
        self._executor = ThreadPoolExecutor(
            max_workers=legs[0].fanout_width(num_shards),
            thread_name_prefix="shard-fanout",
        )
        # Writes get their own pool: an ingest leg parks on a shard
        # write lock for as long as a rebalance holds it, and parked
        # write legs must never occupy the slots read legs need -- the
        # rebalance's pre-delete barrier waits for in-flight *reads*,
        # which would deadlock (until timeout) if they queued behind
        # blocked writes.
        self._write_executor = ThreadPoolExecutor(
            max_workers=num_shards, thread_name_prefix="shard-writes"
        )
        # Identical concurrent cache misses coalesce onto one fan-out.
        self._inflight_lock = threading.Lock()
        self._inflight: dict[tuple, threading.Event] = {}
        # Ownership: one immutable table, swapped whole under the lock
        # (readers take ``self.routing`` by reference -- atomic publish).
        self._routing_lock = threading.Lock()
        self._routing = RoutingTable.load(
            self.sidecar(ROUTING_FILE), num_shards, range_width
        )
        self.move_gate = rebalance.MoveGate(
            self.sidecar(rebalance.PENDING_MOVES_FILE)
        )
        #: Test hook: called between the copy and the swap of a
        #: rebalance (None = no-op), so cancellation mid-move is
        #: deterministic to exercise.
        self._rebalance_after_copy: Callable[[Job], None] | None = None
        self.jobs = JobEngine(
            self,
            self.sidecar(JOBS_JOURNAL_FILE),
            workers=workers,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.profiler.start()

    @property
    def _one_file(self) -> bool:
        """A service over one database names that file as its
        ``shard_dir`` (:class:`QueryService`): nothing is created next
        to it and its sidecars carry its name."""
        return self.paths == [self.shard_dir]

    def sidecar(self, name: str) -> str:
        """Where this service keeps the sidecar ``name``: inside the
        shard directory, or beside a one-file service's database as
        ``<db>.<name>`` (``<db>.jobs.json``)."""
        if self._one_file:
            return f"{self.shard_dir}.{name}"
        return os.path.join(self.shard_dir, name)

    def _open_legs(self, **storage) -> list[ShardLeg]:
        """One leg per shard path -- the topology's single decision."""
        return [
            LocalLeg(index, path, self.metrics, **storage)
            for index, path in enumerate(self.paths)
        ]

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.profiler.stop()
        self.jobs.shutdown()
        self._executor.shutdown(wait=True)
        self._write_executor.shutdown(wait=True)
        self.pool.close()
        self.tracer.close()

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def routing(self) -> RoutingTable:
        """The current ownership table (an immutable snapshot)."""
        return self._routing

    def publish_routing(self, table: RoutingTable) -> None:
        """Atomically swap the routing table and persist the overrides."""
        with self._routing_lock:
            self._routing = table
            table.save(self.sidecar(ROUTING_FILE))

    def forget_placements(self, doc_ids: Iterable[int]) -> None:
        """Drop in-flight placements a rebalance just made obsolete."""
        with self._rr_lock:
            for doc_id in doc_ids:
                self._placements.pop(doc_id, None)

    def shards_changed(self, touched: set[int]) -> int:
        """A write committed on ``touched``: bump their generations and
        evict only the cache entries whose scope intersects them.

        Keys are ``(kind, scope, generations, ...)`` -- see the query
        methods below -- so ``key[1]`` is the scope tuple.
        """
        self.pool.bump(touched)
        return self.cache.invalidate_where(
            lambda key: bool(touched.intersection(key[1]))
        )

    # ------------------------------------------------------------------
    def _scope(self, shards: tuple[int, ...] | None) -> tuple[int, ...]:
        """The shard indices a request fans out to (default: all)."""
        if shards is None:
            return tuple(range(self.num_shards))
        self._check_shards(shards)
        return shards

    def _check_shards(self, shards: Iterable[int]) -> None:
        bad = [i for i in shards if i >= self.num_shards]
        if bad:
            raise ApiError(
                400,
                f"unknown shards {bad}; this service has "
                f"{self.num_shards} shards (0..{self.num_shards - 1})",
                code="unknown_shard",
            )

    def call_leg(self, index: int, endpoint: str, call):
        """``call(leg)`` on one shard: the one place a leg is invoked.

        Times the leg into the per-shard metrics (so ``/stats`` exposes
        skew the merged endpoint latency hides) and maps a shard that
        could not be reached onto the wire contract: 503
        ``shard_unavailable``, or 503 ``deadline_exceeded`` with its
        trace span and metrics event.  Anything else a leg raises -- a
        client's ``ApiError``, a storage fault -- passes through.
        """
        started = time.perf_counter()
        try:
            result = call(self.pool.shards[index])
        except Exception as exc:
            self.metrics.observe_shard(
                index, endpoint, time.perf_counter() - started, error=True
            )
            if isinstance(exc, ReplicaUnavailable):
                raise ApiError(
                    503, str(exc), code="shard_unavailable"
                ) from exc
            if isinstance(exc, LegDeadline):
                self.metrics.event("deadline_exceeded")
                with trace.span("deadline_exceeded", shard=index):
                    pass
                raise ApiError(
                    503, str(exc), code="deadline_exceeded"
                ) from exc
            raise
        self.metrics.observe_shard(
            index, endpoint, time.perf_counter() - started
        )
        return result

    def _fan_out(self, scope: Sequence[int], endpoint: str, call):
        """Run ``call(leg)`` on every scoped shard concurrently.

        Context variables do not follow executor submission, so the
        caller's span is captured here and re-attached in each worker:
        every leg's spans nest under the request that fanned out.
        Appending concurrent ``shard_leg`` children to the shared parent
        is safe -- ``list.append`` is atomic under the GIL.

        The calling thread runs the first leg itself -- it would only
        block on the executor otherwise -- so a K-shard fan-out costs
        K-1 executor hops and a single-shard scope costs none.
        """
        parent = trace.current_span()

        def traced(index: int):
            if parent is None:
                return self.call_leg(index, endpoint, call)
            with trace.attach(parent), trace.span("shard_leg", shard=index):
                return self.call_leg(index, endpoint, call)

        if len(scope) == 1:
            return [traced(scope[0])]
        rest = [self._executor.submit(traced, index) for index in scope[1:]]
        results = [traced(scope[0])]
        results.extend(future.result() for future in rest)
        return results

    def _fan_out_writes(self, scope: Sequence[int], endpoint: str, call):
        """Fan a *write* out, never losing a committed shard's result.

        Unlike :meth:`_fan_out`, a failing leg does not mask the legs
        that already committed: the caller gets every successful
        ``(index, result)`` so it can bump those shards' generations and
        evict their cache entries *before* the first error is re-raised
        -- otherwise a partial failure would leave pre-write cached
        answers servable for shards whose batch did land.
        """

        def attempt(index: int):
            try:
                return index, self.call_leg(index, endpoint, call), None
            except Exception as exc:  # noqa: BLE001 - re-raised by the caller
                return index, None, exc

        succeeded, first_error = [], None
        for index, value, error in self._write_executor.map(attempt, scope):
            if error is None:
                succeeded.append((index, value))
            elif first_error is None:
                first_error = error
        return succeeded, first_error

    def _cached(self, key: tuple, compute) -> dict[str, object]:
        """Serve ``key`` from the cache, or compute it exactly once.

        Identical concurrent misses singleflight: the first caller is
        the leader and fans out; followers wait for it, then re-probe
        the cache -- falling back to their own fan-out only when the
        leader failed or the result could not be cached (cache disabled
        or invalidated meanwhile).
        """
        cached = self.cache.get(key)
        if cached is not None:
            return {**cached, "cached": True}
        with self._inflight_lock:
            leader = self._inflight.get(key)
            flight = None
            if leader is None:
                flight = self._inflight[key] = threading.Event()
        if leader is not None:
            leader.wait(_SINGLEFLIGHT_WAIT_S)
            cached = self.cache.get(key)
            if cached is not None:
                return {**cached, "cached": True}
        try:
            result = compute()
            self.cache.put(key, result)
        finally:
            if flight is not None:
                with self._inflight_lock:
                    del self._inflight[key]
                flight.set()
        return {**result, "cached": False}

    # ------------------------------------------------------------------
    def _existing_owners(self, doc_ids: Sequence[int]) -> dict[int, int]:
        """Which shard already holds each of ``doc_ids`` (absent: none).

        Re-ingesting a known document must land on the shard that
        already has its earlier lines -- otherwise one document splits
        across shards and the merged ranking carries duplicate
        (DocId, LineNo) rows -- so every ingest first probes the shards
        (concurrently, one leg each) for the batch's DocIds.  A
        document somehow present on several shards (a pre-fix split)
        keeps its lowest-indexed owner.  With one shard there is
        nothing to probe: every document has the same owner.
        """
        if self.num_shards == 1 or not doc_ids:
            return {}
        owners: dict[int, int] = {}
        for index, present in enumerate(
            self._fan_out(
                range(self.num_shards),
                "ingest",
                lambda leg: leg.present(doc_ids, "master"),
            )
        ):
            for doc_id in present:
                owners.setdefault(doc_id, index)
        return owners

    def _split_moved(
        self, leg: ShardLeg, docs: Sequence[Document]
    ) -> tuple[list[Document], list[Document]]:
        """Partition a leg's documents into kept vs moved-by-rebalance.

        Runs under the shard's write lock, so any rebalance that was in
        flight when this batch picked its owners has fully published its
        routing table by now.  A document whose override names another
        shard is re-dispatched *unless its rows are already here* -- a
        pre-move resident (e.g. a round-robin placement inside an
        overridden range) keeps its probe-derived home; the override
        only redirects documents the move actually took away (and fresh
        ones, which were placed by the override to begin with).
        """
        routing = self.routing
        stay: list[Document] = []
        overridden: list[Document] = []
        for doc in docs:
            override = routing.override_owner(doc.doc_id)
            if override is None or override == leg.index:
                stay.append(doc)
            else:
                overridden.append(doc)
        if not overridden:
            return stay, []
        # A false "absent" here would split the document across shards;
        # the leg answers from a copy holding every committed write.
        present = leg.present([doc.doc_id for doc in overridden], "documents")
        moved = [doc for doc in overridden if doc.doc_id not in present]
        stay.extend(doc for doc in overridden if doc.doc_id in present)
        return stay, moved

    def ingest(self, payload: object) -> dict[str, object]:
        """Route a batch to its owning shards; invalidates only those."""
        request = validate_ingest(payload)
        owners = self._existing_owners(
            [doc.doc_id for doc in request.dataset.documents]
        )
        routing = self.routing
        # Placement is decided under one lock hold per batch: committed
        # rows (the probe) win, then in-process placements from racing
        # or in-flight batches, and only genuinely new documents get a
        # fresh assignment -- a contiguous round-robin stride, or their
        # routing-table owner (striped range, or a rebalance override).
        with self._rr_lock:
            for doc_id, index in self._placements.items():
                owners.setdefault(doc_id, index)
            new_docs = [
                doc
                for doc in request.dataset.documents
                if doc.doc_id not in owners
            ]
            if request.route == "round_robin":
                start = self._rr_next
                self._rr_next = (start + len(new_docs)) % self.num_shards
                for offset, doc in enumerate(new_docs):
                    owners[doc.doc_id] = (start + offset) % self.num_shards
            else:
                for doc in new_docs:
                    owners[doc.doc_id] = routing.owner(doc.doc_id)
            # Remember only the fresh assignments (probed owners are
            # already durable on disk), trimming the oldest beyond the
            # cap to keep a long-lived router's memory flat.
            for doc in new_docs:
                self._placements[doc.doc_id] = owners[doc.doc_id]
            while len(self._placements) > _PLACEMENTS_CAP:
                self._placements.popitem(last=False)
        groups: dict[int, list[Document]] = {}
        for doc in request.dataset.documents:
            groups.setdefault(owners[doc.doc_id], []).append(doc)
        started = time.perf_counter()

        def write(leg: ShardLeg) -> tuple[int, int, list[Document]]:
            with leg.write_lock:
                stay, moved = self._split_moved(leg, groups[leg.index])
                if stay:
                    count, total = leg.ingest(stay, request)
                else:
                    count, total = 0, leg.lines_and_index()[0]
            return count, total, moved

        # A rebalance racing this batch can move a document between
        # placement and the leg's lock acquisition; the leg detects it
        # (under the lock, where the published table is authoritative)
        # and hands the document back for another round at its new home.
        ingested: dict[int, int] = {}
        totals: dict[int, int] = {}
        first_error: Exception | None = None
        for _ in range(1 + _MAX_REROUTE_ROUNDS):
            if not groups:
                break
            results, error = self._fan_out_writes(
                sorted(groups), "ingest", write
            )
            if error is not None and first_error is None:
                first_error = error
            next_groups: dict[int, list[Document]] = {}
            for index, (count, total, moved) in results:
                ingested[index] = ingested.get(index, 0) + count
                totals[index] = total
                for doc in moved:
                    next_groups.setdefault(
                        self.routing.owner(doc.doc_id), []
                    ).append(doc)
            groups = next_groups
            if error is not None:
                break  # settle what landed; do not re-route after a failure
        if groups and first_error is None:
            first_error = ApiError(
                503,
                "ingest could not settle: documents kept moving between "
                "shards (concurrent rebalances)",
                code="shard_unavailable",
            )
        evicted = self.shards_changed(
            {index for index, count in ingested.items() if count}
        )
        if first_error is not None:
            raise first_error
        return {
            "dataset": request.dataset.name,
            "route": request.route,
            "ingested_lines": sum(ingested.values()),
            "total_lines": self.total_lines(),
            "shards": {
                str(index): {
                    "ingested_lines": count,
                    "total_lines": totals[index],
                }
                for index, count in sorted(ingested.items())
                if count
            },
            "evicted_cache_entries": evicted,
            "elapsed_s": time.perf_counter() - started,
        }

    # ------------------------------------------------------------------
    def search(self, payload: object) -> dict[str, object]:
        """Fan a search out over the scoped shards and merge the ranking."""
        with trace.span("validate"):
            request = validate_search(payload)
            scope = self._scope(request.shards)
            # A pattern that cannot compile would fail deterministically
            # on every replica -- a 400, never breaker food.
            check_pattern(request.pattern)
        key = (
            "search",
            scope,
            self.pool.generations(scope),
            request.pattern,
            request.approach,
            request.plan,
            request.num_ans,
        )

        def compute() -> dict[str, object]:
            started = time.perf_counter()
            # Registered with the move gate (the move list itself is
            # unused here -- merge_ranked de-duplicates unconditionally)
            # so a rebalance's pre-delete barrier can wait for this
            # fan-out: the source rows must not disappear under a
            # request whose target leg read before the copy landed.
            with self.move_gate.read():
                with trace.span("router", shards=len(scope)):
                    results = self._fan_out(
                        scope, "search", lambda leg: leg.search(request)
                    )
            with trace.span("merge"):
                merged = merge_ranked(
                    [
                        (index, answers)
                        for index, (_, answers) in zip(scope, results)
                    ],
                    request.num_ans,
                )
            labels = {label for label, _ in results}
            return {
                "pattern": request.pattern,
                "approach": request.approach,
                "plan": labels.pop() if len(labels) == 1 else "mixed",
                "plans": {
                    str(index): label
                    for index, (label, _) in zip(scope, results)
                },
                "shards": list(scope),
                "count": len(merged),
                "answers": [
                    {**answer_row(answer), "shard": shard}
                    for shard, answer in merged
                ],
                "elapsed_s": time.perf_counter() - started,
            }

        return self._cached(key, compute)

    # ------------------------------------------------------------------
    def sql(self, payload: object) -> dict[str, object]:
        """Distribute a probabilistic SELECT and merge exactly.

        Every shard runs the widened :func:`~repro.db.sql.shard_select`
        plan (full rows, base aggregates, no cutoff); the router merges
        with :func:`~repro.db.sql.merge_shard_rows`.
        """
        with trace.span("validate"):
            request = validate_sql(payload)
            scope = self._scope(request.shards)
        key = (
            "sql",
            scope,
            self.pool.generations(scope),
            request.query,
            request.approach,
            request.num_ans,
        )

        def compute() -> dict[str, object]:
            try:
                parsed = parse_select(request.query)
            except SqlError as exc:
                raise ApiError(400, str(exc), code="sql_error") from exc
            started = time.perf_counter()
            # While a rebalance is copying, a moved document's rows
            # exist on two shards.  Scalar per-shard aggregates cannot
            # be un-counted, so inside an active move the legs return
            # the full per-document relation instead; the router
            # de-duplicates by DocId (copies are byte-identical) and
            # recomputes the aggregates itself.  The move gate
            # guarantees the flag is seen before any row can be doubled:
            # a rebalance drains pre-announcement readers first.  Only a
            # scope spanning BOTH sides of some active move can see a
            # document twice, so queries scoped away from the move (and
            # all queries, once no move is pending) keep the fast scalar
            # plan.
            scope_set = set(scope)
            with self.move_gate.read() as moves:
                full_rows = any(
                    src in scope_set and dst in scope_set
                    for _, _, src, dst in moves
                )
                with trace.span("router", shards=len(scope)):
                    shard_rows = self._fan_out(
                        scope,
                        "sql",
                        lambda leg: leg.sql(
                            request.query, request.approach, full_rows
                        ),
                    )
            try:
                with trace.span("merge"):
                    if full_rows:
                        seen_docs: set[object] = set()
                        deduped: list[dict[str, object]] = []
                        for rows_ in shard_rows:
                            for row in rows_:
                                if row["DocId"] in seen_docs:
                                    continue
                                seen_docs.add(row["DocId"])
                                deduped.append(row)
                        if parsed.is_aggregate:
                            rows = aggregate_full_rows(parsed, deduped)
                        else:
                            rows = merge_shard_rows(
                                parsed, [deduped], num_ans=request.num_ans
                            )
                    else:
                        rows = merge_shard_rows(
                            parsed, shard_rows, num_ans=request.num_ans
                        )
            except SqlError as exc:
                raise ApiError(400, str(exc), code="sql_error") from exc
            return {
                "query": request.query,
                "approach": request.approach,
                "shards": list(scope),
                "count": len(rows),
                "rows": rows,
                "elapsed_s": time.perf_counter() - started,
            }

        return self._cached(key, compute)

    # ------------------------------------------------------------------
    def index(self, payload: object) -> dict[str, object]:
        """Build/rebuild the dictionary index per scoped shard.

        Each scoped shard builds over its own data on every replica's
        writer (lockstep, like ingest) and reloads its pooled readers,
        so indexed plans are served immediately; the touched shards'
        cached results are evicted (plan choices and projected
        evaluations may change).
        """
        request = validate_index(payload)
        scope = self._scope(request.shards)
        started = time.perf_counter()

        def build(leg: ShardLeg) -> tuple[int, bool]:
            with leg.write_lock:
                return leg.build_index(request.terms, request.approach)

        results, error = self._fan_out_writes(scope, "index", build)
        evicted = self.shards_changed({index for index, _ in results})
        if error is not None:
            raise error
        return {
            "approach": request.approach,
            "terms": len(request.terms),
            "postings": sum(postings for _, (postings, _) in results),
            "shards": {
                str(index): {"postings": postings, "reloaded": reloaded}
                for index, (postings, reloaded) in results
            },
            "evicted_cache_entries": evicted,
            "elapsed_s": time.perf_counter() - started,
        }

    # ------------------------------------------------------------------
    def replicas(self, payload: object) -> dict[str, object]:
        """``POST /replicas``: attach or detach one replica at runtime.

        Attach copies a live sibling (SQLite online backup) under the
        shard's write lock, so the new replica joins in sync; detach
        removes the replica from the rotation and closes it once its
        in-flight queries drain.  Both return the shard's new replica
        roster.
        """
        request = validate_replicas(payload)
        self._check_shards([request.shard])
        started = time.perf_counter()

        def change(leg: ShardLeg) -> dict[str, object]:
            with leg.write_lock:
                return leg.change_replicas(request.action, request.replica)

        affected = self.call_leg(request.shard, "replicas", change)
        return {
            "action": request.action,
            "shard": request.shard,
            **affected,
            "elapsed_s": time.perf_counter() - started,
        }

    # ------------------------------------------------------------------
    def job_rebalance(self, job: Job, params) -> dict[str, object]:
        """Runner: see :func:`repro.service.rebalance.run`."""
        return rebalance.run(self, job, params)

    def validate_job_params(self, job_type, params):
        if job_type == "rebalance":
            request = validate_rebalance_params(params, self.num_shards)
            return {
                "doc_lo": request.doc_lo,
                "doc_hi": request.doc_hi,
                "source": request.source,
                "target": request.target,
            }
        return super().validate_job_params(job_type, params)

    # ------------------------------------------------------------------
    @property
    def snapshot_path(self) -> str:
        """The warm-start sidecar the ``cache_snapshot`` job writes."""
        return self.sidecar(CACHE_SNAPSHOT_FILE)

    def _lines_and_index(self, index: int) -> tuple[int, object]:
        return self.call_leg(index, "stats", lambda leg: leg.lines_and_index())

    def job_cache_snapshot(self, job: Job, params) -> dict[str, object]:
        """Runner: serialize the query cache plus its generation vector.

        Sharded keys embed per-shard generation counters, so the
        snapshot records each shard's generation *and* line count at
        snapshot time; a warm start replays an entry only when every
        shard it covers still matches both.
        """
        job.check_cancelled()
        generations = list(
            self.pool.generations(tuple(range(self.num_shards)))
        )
        lines: list[int] = []
        index_digests: list[object] = []
        for index in range(self.num_shards):
            try:
                shard_lines, digest = self._lines_and_index(index)
            except ApiError as exc:
                raise ApiError(
                    exc.status, f"cannot snapshot: {exc}", code=exc.code
                ) from exc
            lines.append(shard_lines)
            index_digests.append(digest)
        entries = self.cache.export_entries()
        payload = {
            "kind": "sharded",
            "shard_dir": self.shard_dir,
            "num_shards": self.num_shards,
            "range_width": self.range_width,
            "generations": generations,
            "lines": lines,
            "index": index_digests,
            "created_at": time.time(),
            "entries": [[key_to_json(key), value] for key, value in entries],
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

        Per-shard staleness: a shard whose line count moved since the
        snapshot drops every entry whose scope includes it, while
        entries scoped to untouched shards are restored (their
        generation counters resume at the snapshot values, so restored
        keys keep matching future lookups).  Returns the entry count
        loaded; ``/stats`` reports it as ``cache.warm_loaded``.
        """
        if not os.path.exists(self.snapshot_path):
            return 0
        # Best-effort: any structurally-off snapshot is dropped whole
        # rather than keeping the service from coming up.
        try:
            with open(self.snapshot_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if (
                data.get("kind") != "sharded"
                or data.get("num_shards") != self.num_shards
            ):
                return 0
            snap_generations = [
                int(generation) for generation in data.get("generations") or []
            ]
            snap_lines = data.get("lines") or []
            snap_index = data.get("index") or []
            if (
                len(snap_generations) != self.num_shards
                or len(snap_lines) != self.num_shards
                or len(snap_index) != self.num_shards
            ):
                return 0
            stale: set[int] = set()
            for index in range(self.num_shards):
                try:
                    current = self._lines_and_index(index)
                except ApiError:
                    stale.add(index)
                    continue
                # A changed line count *or* a rebuilt index makes the
                # shard's cached results unreplayable.
                if list(current) != [snap_lines[index], snap_index[index]]:
                    stale.add(index)
            # Resume the fresh shards' generation clocks so restored
            # keys (which embed generation vectors) match future lookups.
            self.pool.resume_generations(
                [
                    None if index in stale else snap_generations[index]
                    for index in range(self.num_shards)
                ]
            )
            kept: list[tuple[object, object]] = []
            for raw_key, value in data.get("entries", []):
                key = key_from_json(raw_key)
                if not isinstance(key, tuple) or len(key) < 3:
                    continue
                scope, generations = key[1], key[2]
                if not isinstance(scope, tuple) or not isinstance(
                    generations, tuple
                ):
                    continue
                if any(
                    not isinstance(index, int) or index >= self.num_shards
                    for index in scope
                ):
                    continue
                if any(index in stale for index in scope):
                    continue
                if generations != tuple(snap_generations[s] for s in scope):
                    continue
                kept.append((key, value))
        except (OSError, json.JSONDecodeError, ValueError, TypeError,
                KeyError, AttributeError):
            return 0
        return self.cache.load_entries(kept)

    # ------------------------------------------------------------------
    def total_lines(self) -> int:
        """Lines across all shards (skipping any fully-down shard)."""
        lines = (
            self.call_leg(index, "health", lambda leg: leg.health())["lines"]
            for index in range(self.num_shards)
        )
        return sum(n for n in lines if n is not None)

    def health(self) -> dict[str, object]:
        """Liveness: every shard answers a trivial query on some replica.

        A shard with no healthy replica degrades the status (its line
        count reads ``null``) instead of failing the probe -- the
        service is still serving every other shard.  Legs that are
        processes of their own add a ``workers`` census.
        """
        shards = self._fan_out(
            range(self.num_shards), "health", lambda leg: leg.health()
        )
        per_shard = {
            str(index): shard["lines"] for index, shard in enumerate(shards)
        }
        return {
            "status": "degraded" if None in per_shard.values() else "ok",
            "db": self.shard_dir,
            "num_shards": self.num_shards,
            "lines": sum(n for n in per_shard.values() if n is not None),
            "shard_lines": per_shard,
            "replicas": {
                str(index): {
                    "healthy": shard["healthy"],
                    "attached": shard["attached"],
                }
                for index, shard in enumerate(shards)
            },
            **self._worker_census(shards),
            "uptime_s": self.metrics.uptime_s,
        }

    @staticmethod
    def _worker_census(shards: Sequence[dict]) -> dict[str, object]:
        """Lift the census rows worker-process legs attach to their
        health/stats blocks into one top-level ``workers`` table."""
        workers = {
            str(index): shard.pop("worker")
            for index, shard in enumerate(shards)
            if "worker" in shard
        }
        return {"workers": workers} if workers else {}

    def kernel_memos(self):
        return {
            index: leg.kernel_memo
            for index, leg in enumerate(self.pool.shards)
            if isinstance(leg, LocalLeg)
        }

    def stats(self) -> dict[str, object]:
        """Operational snapshot: per-shard blocks plus the registries."""
        everything = range(self.num_shards)
        shards = self._fan_out(everything, "stats", lambda leg: leg.stats())
        census = self._worker_census(shards)
        return {
            "db": {
                "shard_dir": self.shard_dir,
                "num_shards": self.num_shards,
                "range_width": self.range_width,
                "num_replicas": self.num_replicas,
                "lines": sum(
                    s["lines"] for s in shards if s["lines"] is not None
                ),
            },
            "shards": [
                {
                    "index": index,
                    "path": self.paths[index],
                    "generation": generation,
                    **shard,
                }
                for index, generation, shard in zip(
                    everything, self.pool.generations(everything), shards
                )
            ],
            "routing": self.routing.to_json(),
            "cache": self.cache.stats(),
            "jobs": self.jobs.stats(),
            "requests": self.metrics.snapshot(),
            **census,
            "uptime_s": self.metrics.uptime_s,
        }


class QueryService(ShardedQueryService):
    """``serve --db``: the router over one database file.

    A constructor and nothing else -- every endpoint, job and sidecar
    rule is the router's, so a reply has the router's shape (``shards``
    is ``[0]``).
    """

    def __init__(self, path: str, pool_size: int = 4, **options) -> None:
        if path == ":memory:":
            raise ValueError(
                "the service needs a database file shared across "
                "connections; ':memory:' databases are per-connection"
            )
        super().__init__(
            path, 1, pool_size=pool_size, paths=[path], **options
        )
