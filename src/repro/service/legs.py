"""The ``ShardLeg`` seam: the only code that knows *how* a shard is reached.

The shard router (:mod:`repro.service.shards`) is written once, against
the small interface below; a topology is a choice of leg:

* :class:`LocalLeg` (here) -- the shard lives in this process: a
  :class:`~repro.service.replicas.ReplicaSet` of StaccatoDB files, reads
  failing over across healthy replicas, writes re-applied to every copy
  in lockstep;
* :class:`~repro.service.workers.WorkerLeg` -- the shard lives in a
  worker subprocess whose HTTP surface is a ``LocalLeg``'s own methods;
  deadlines, connection pooling and restart supervision are that leg's
  business.

A leg speaks typed Python values, never wire payloads.  It signals a
shard it cannot reach with :class:`~repro.service.replicas.
ReplicaUnavailable` or :class:`LegDeadline` and a client mistake with
:class:`~repro.service.validation.ApiError`; the router maps, times and
counts those in the one place it invokes a leg.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from typing import Callable, Protocol, Sequence

from ..automata.regex import RegexError
from ..db import storage
from ..db.engine import APPROACHES, ApproachNotStored, StaccatoDB
from ..db.sql import SqlError, document_relation, parse_select
from ..ocr.corpus import Dataset, Document
from ..ocr.engine import SimulatedOcrEngine
from ..query.answers import Answer
from ..query.memo import KernelMemo
from . import rebalance
from .app import run_search_plan
from .metrics import ServiceMetrics
from .replicas import (
    DEFAULT_COOLDOWN_S,
    Replica,
    ReplicaSet,
    ReplicaUnavailable,
)
from .validation import ApiError, IngestRequest, SearchRequest

__all__ = ["LegDeadline", "ShardLeg", "LocalLeg"]

#: DocIds per IN(...) batch when probing a shard for documents it holds.
_PRESENT_PROBE_BATCH = 400


class LegDeadline(Exception):
    """The shard did not answer within the leg's deadline."""


def _not_stored(exc: ApproachNotStored) -> ApiError:
    """A query over an approach the shard's file does not store: a fact
    of what was ingested, the same on every replica, so a client's 400
    rather than a replica fault to fail over."""
    return ApiError(400, str(exc), code="approach_not_stored")


class ShardLeg(Protocol):
    """What the router needs from one shard, however it is reached.

    Writes (``ingest``, ``build_index``, ``change_replicas`` and the
    three rebalance calls) run with :attr:`write_lock` held by the
    caller: the router owns the lock's scope because a rebalance pins
    two shards across several calls.
    """

    index: int
    path: str
    write_lock: threading.Lock

    @staticmethod
    def fanout_width(num_shards: int) -> int:
        """Threads the router's read fan-out needs for this leg type."""

    def search(self, request: SearchRequest) -> tuple[str, list[Answer]]:
        """The shard's ranked answers plus the plan label it used."""

    def sql(self, query: str, approach: str) -> list[dict[str, object]]:
        """The shard's :func:`~repro.db.sql.document_relation` for the
        SELECT: full rows in DocId order, no answer shaping."""

    def ingest(
        self, docs: Sequence[Document], request: IngestRequest
    ) -> tuple[int, int]:
        """Ingest one atomic sub-batch -> (lines ingested, lines total)."""

    def present(self, doc_ids: Sequence[int], relation: str) -> set[int]:
        """Which of ``doc_ids`` the shard holds: rows in ``master``
        (committed lines) or in ``documents``."""

    def version(self) -> tuple:
        """One :class:`~repro.service.replicas.FileWatch` version per
        file of the shard, read in this process: it changes whenever
        anything commits to the shard and never on a read."""

    def build_index(self, terms: Sequence[str], approach: str) -> int:
        """(Re)build the dictionary index -> the postings it holds."""

    def change_replicas(
        self, action: str, replica: int | None
    ) -> dict[str, object]:
        """Attach/detach one replica -> affected replica plus the roster."""

    def rebalance_snapshot(
        self, doc_lo: int, doc_hi: int
    ) -> tuple[list[int], int, str]:
        """(DocIds held in the range, their lines, a live source file)."""

    def rebalance_copy(
        self, source_path: str, doc_ids: Sequence[int]
    ) -> list[int]:
        """Pull documents in from a source shard file -> DocIds inserted."""

    def rebalance_delete(self, doc_ids: Sequence[int]) -> None:
        """Drop documents from every replica."""

    def stats(self) -> dict[str, object]:
        """The shard's ``/stats`` block; never raises for a down shard
        (``lines`` reads None)."""

    def health(self) -> dict[str, object]:
        """``{"lines", "healthy", "attached"}``; never raises for a down
        shard (``lines`` reads None)."""

    def close(self) -> None: ...


class LocalLeg:
    """One shard served from this process: replica set, memo, write lock."""

    def __init__(
        self,
        index: int,
        path: str,
        metrics: ServiceMetrics,
        k: int = 25,
        m: int = 40,
        pool_size: int = 2,
        num_replicas: int = 1,
        cooldown_s: float = DEFAULT_COOLDOWN_S,
    ) -> None:
        self.index = index
        self.path = path
        self.metrics = metrics
        self._k = k
        self._m = m
        self.write_lock = threading.Lock()
        # One kernel memo per shard, shared by its replicas and pool.
        self.kernel_memo = KernelMemo()
        self.replicas = ReplicaSet(
            index,
            path,
            num_replicas,
            k=k,
            m=m,
            pool_size=pool_size,
            cooldown_s=cooldown_s,
            kernel_memo=self.kernel_memo,
        )

    @staticmethod
    def fanout_width(num_shards: int) -> int:
        # GIL-bound scans: more threads than shards buys nothing.
        return num_shards

    @property
    def writer(self) -> StaccatoDB:
        """The first attached replica's writer (tests, inspection)."""
        return self.replicas.replicas()[0].writer

    @property
    def pool(self):
        """The first attached replica's reader pool (tests, inspection)."""
        return self.replicas.replicas()[0].pool

    def close(self) -> None:
        self.replicas.close()

    # ------------------------------------------------------------------
    def _read(self, endpoint: str, fn: Callable[[StaccatoDB], object]):
        """One read with replica failover and per-replica timing."""

        def attempt(replica: Replica) -> object:
            labels = (self.index, replica.replica_index, endpoint)
            started = time.perf_counter()
            try:
                with replica.pool.acquire() as db:
                    result = fn(db)
            except ApiError:
                raise  # client error; not the replica's fault
            except Exception:
                self.metrics.observe(
                    "replica_attempts",
                    labels,
                    time.perf_counter() - started,
                    error=True,
                )
                raise
            self.metrics.observe(
                "replica_attempts", labels, time.perf_counter() - started
            )
            return result

        return self.replicas.run(attempt, passthrough=(ApiError,))

    # ------------------------------------------------------------------
    def search(self, request: SearchRequest) -> tuple[str, list[Answer]]:
        def evaluate(db: StaccatoDB) -> tuple[str, list[Answer]]:
            try:
                return run_search_plan(db, request)
            except ApproachNotStored as exc:
                raise _not_stored(exc) from exc

        return self._read("search", evaluate)

    def sql(self, query: str, approach: str) -> list[dict[str, object]]:
        try:
            parsed = parse_select(query)
        except SqlError as exc:
            raise ApiError(400, str(exc), code="sql_error") from exc

        def evaluate(db: StaccatoDB) -> list[dict[str, object]]:
            try:
                return document_relation(db, parsed, approach)
            except RegexError as exc:
                # A query error, not a replica fault: surface it as the
                # structured 400 instead of failing over.
                raise ApiError(400, str(exc), code="sql_error") from exc
            except ApproachNotStored as exc:
                raise _not_stored(exc) from exc

        return self._read("sql", evaluate)

    def version(self) -> tuple:
        return tuple(
            replica.watch.version() for replica in self.replicas.replicas()
        )

    def present(self, doc_ids: Sequence[int], relation: str) -> set[int]:
        select = (
            "SELECT DISTINCT DocId FROM MasterData"
            if relation == "master"
            else "SELECT DocId FROM Documents"
        )
        ids = sorted(set(doc_ids))

        def probe(db: StaccatoDB) -> set[int]:
            found: set[int] = set()
            for at in range(0, len(ids), _PRESENT_PROBE_BATCH):
                batch = ids[at : at + _PRESENT_PROBE_BATCH]
                marks = ",".join("?" * len(batch))
                found.update(
                    row[0]
                    for row in db.conn.execute(
                        f"{select} WHERE DocId IN ({marks})", batch
                    )
                )
            return found

        return self._read("ingest", probe)

    # ------------------------------------------------------------------
    def ingest(
        self, docs: Sequence[Document], request: IngestRequest
    ) -> tuple[int, int]:
        # Built once, outside the replica loop: OCR and construction are
        # the whole cost of an ingest and depend only on (seed, text,
        # doc_id, line_no), so every copy is written the same rows --
        # postings included, under the first copy's stored dictionary; a
        # copy recording another one drops them (its lines stay
        # uncovered).  A build error surfaces here, before any replica
        # commits.
        built = storage.build_dataset(
            Dataset(name=request.dataset.name, documents=list(docs)),
            SimulatedOcrEngine(seed=request.ocr_seed),
            k=self._k,
            m=self._m,
            approaches=request.approaches,
            workers=request.workers,
            index=self._ingest_index(),
        )

        def apply(replica: Replica) -> tuple[int, int]:
            return replica.writer.write_batch(built), replica.writer.num_lines

        return self.replicas.apply_write(apply)

    def _ingest_index(self) -> storage.IndexSpec | None:
        """The dictionary a batch is indexed under: a live copy's.  A
        copy that cannot say (it is about to fail the write and be
        marked stale) must not fail the batch for its siblings."""
        source = self.replicas.live_replica()
        if source is None:
            return None
        try:
            return source.writer.stored_index()
        except sqlite3.Error:
            return None

    def build_index(self, terms: Sequence[str], approach: str) -> int:
        try:
            return self.replicas.apply_write(
                lambda replica: replica.writer.build_index(terms, approach=approach)
            )
        except ApproachNotStored as exc:  # no replica wrote
            raise _not_stored(exc) from exc

    def change_replicas(
        self, action: str, replica: int | None
    ) -> dict[str, object]:
        if action == "attach":
            affected = self.replicas.attach()
        else:
            try:
                affected = self.replicas.detach(replica)
            except KeyError:
                raise ApiError(
                    404,
                    f"shard {self.index} has no replica {replica}",
                    code="unknown_replica",
                ) from None
            except ValueError as exc:
                raise ApiError(409, str(exc), code="last_replica") from exc
        return {
            "replica": affected.replica_index,
            "path": affected.path,
            "replicas": self.replicas.stats(),
        }

    # ------------------------------------------------------------------
    def rebalance_snapshot(
        self, doc_lo: int, doc_hi: int
    ) -> tuple[list[int], int, str]:
        source = self.replicas.live_replica()
        if source is None:
            raise ApiError(
                503,
                f"shard {self.index} has no live replica to move from",
                code="shard_unavailable",
            )
        conn = source.writer.conn
        docs = [
            row[0]
            for row in conn.execute(
                "SELECT DocId FROM Documents WHERE DocId BETWEEN ? AND ? "
                "ORDER BY DocId",
                (doc_lo, doc_hi),
            )
        ]
        lines = conn.execute(
            "SELECT COUNT(*) FROM MasterData WHERE DocId BETWEEN ? AND ?",
            (doc_lo, doc_hi),
        ).fetchone()[0]
        return docs, lines, os.path.abspath(source.path)

    def rebalance_copy(
        self, source_path: str, doc_ids: Sequence[int]
    ) -> list[int]:
        return self.replicas.apply_write(
            lambda replica: rebalance.copy_docs(replica, source_path, doc_ids)
        )

    def rebalance_delete(self, doc_ids: Sequence[int]) -> None:
        self.replicas.apply_write(
            lambda replica: rebalance.delete_docs(replica, doc_ids)
        )

    # ------------------------------------------------------------------
    def health(self) -> dict[str, object]:
        try:
            lines = self._read("health", lambda db: db.num_lines)
        except ReplicaUnavailable:
            lines = None
        return {
            "lines": lines,
            "healthy": len(self.replicas.healthy()),
            "attached": len(self.replicas),
        }

    def stats(self) -> dict[str, object]:
        def describe(db: StaccatoDB) -> dict[str, object]:
            return {
                "lines": db.num_lines,
                "storage_bytes": {a: db.storage_bytes(a) for a in APPROACHES},
            }

        try:
            described = self._read("stats", describe)
        except ReplicaUnavailable:
            described = {"lines": None, "storage_bytes": None}
        return {
            "kernel_memo": self.kernel_memo.stats(),
            "pool": self.pool.stats(),
            "replicas": self.replicas.stats(),
            **described,
        }
