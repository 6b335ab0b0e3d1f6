"""Online rebalancing: move one DocId range between two live shards.

Everything a move needs beyond the router's ordinary read/write paths
lives here:

* :class:`MoveGate` -- the drain barrier that orders the source delete
  after every read fan-out that may have missed the copy;
* :func:`copy_docs` / :func:`delete_docs` -- the per-replica SQL
  primitives (one verified transaction each) the in-process leg runs,
  either directly or, inside a worker process, on the router's behalf;
* :func:`run` -- the ``rebalance`` job body, written once against the
  :class:`~repro.service.legs.ShardLeg` seam's three rebalance calls, so
  it drives in-process shards and worker processes alike.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Mapping, Sequence

from ..db import storage
from ..db.schema import LINE_TABLES
from .jobs import Job, JobCancelled
from .replicas import Replica, ordered_locks
from .validation import ApiError, validate_rebalance_params

__all__ = ["MoveGate", "copy_docs", "delete_docs", "run"]


class MoveGate:
    """A drain barrier between read fan-outs and a rebalance's delete.

    Every ``/search`` and ``/sql`` fan-out registers under the current
    epoch (:meth:`read`).  :meth:`barrier` advances the epoch and waits
    until every reader of an older epoch has finished.  No reader needs
    to know a move is in flight: the router de-duplicates every merge,
    so a document on two shards is never counted twice.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._epoch = 0
        self._readers: dict[int, int] = {}

    @contextlib.contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            epoch = self._epoch
            self._readers[epoch] = self._readers.get(epoch, 0) + 1
        try:
            yield
        finally:
            with self._cond:
                self._readers[epoch] -= 1
                if not self._readers[epoch]:
                    del self._readers[epoch]
                    self._cond.notify_all()

    def barrier(self, timeout: float = 60.0) -> None:
        """Wait until every currently-registered reader has finished.

        The rebalance runs this between the routing swap and the source
        delete: a fan-out request whose target leg read *before* the
        copy landed must complete -- its source leg still sees the
        pre-delete rows -- before any row disappears from the source,
        or that request could observe the moved documents on neither
        shard.
        """
        with self._cond:
            self._epoch += 1
            fence = self._epoch
            if not self._cond.wait_for(
                lambda: all(epoch >= fence for epoch in self._readers),
                timeout=timeout,
            ):
                raise TimeoutError(
                    "queries in flight before the ownership swap did not "
                    f"drain within {timeout:.0f}s"
                )


# ----------------------------------------------------------------------
# Per-replica SQL primitives
# ----------------------------------------------------------------------
_SRC = "rebalance_src"

#: A line moves with everything stored of it (``LINE_TABLES``): its
#: compiled kernels too, and -- when source and target index under the
#: same dictionary (see :func:`copy_docs`) -- its postings; every copied
#: DataKey is offset past the target's existing keys so the merged file
#: keeps unique line ids.
_COPY_LINES = {
    table: f"INSERT INTO {table}({', '.join(columns)}) SELECT "
    + ", ".join(
        "t.DataKey + :offset" if column == "DataKey" else f"t.{column}"
        for column in columns
    )
    + f" FROM {_SRC}.{table} t JOIN {_SRC}.MasterData m "
    "ON m.DataKey = t.DataKey "
    "WHERE m.DocId IN (SELECT DocId FROM _rebalance_ids)"
    for table, columns in LINE_TABLES.items()
}


def _delete_rows(conn) -> None:
    """Drop the documents of ``_rebalance_ids`` with their lines' rows in
    every per-line table; MasterData names the keys and goes last."""
    for table in reversed(LINE_TABLES):
        conn.execute(
            f"DELETE FROM {table} WHERE DataKey IN "
            "(SELECT DataKey FROM MasterData WHERE DocId IN "
            "(SELECT DocId FROM _rebalance_ids))"
        )
    conn.execute(
        "DELETE FROM Documents WHERE DocId IN (SELECT DocId FROM _rebalance_ids)"
    )


def _load_ids(conn, doc_ids: Sequence[int]) -> None:
    """(Re)fill the per-connection temp table driving copy/delete."""
    conn.execute(
        "CREATE TEMP TABLE IF NOT EXISTS _rebalance_ids "
        "(DocId INTEGER PRIMARY KEY)"
    )
    conn.execute("DELETE FROM _rebalance_ids")
    conn.executemany(
        "INSERT INTO _rebalance_ids(DocId) VALUES (?)",
        [(doc_id,) for doc_id in doc_ids],
    )


def copy_docs(
    replica: Replica, source_path: str, doc_ids: Sequence[int]
) -> list[int]:
    """Copy the moved documents into one target replica, verified.
    Returns the DocIds actually inserted (the skipped ones already
    lived here) -- the only rows a cancel may unwind.

    One transaction per replica: concurrent readers see the copy all at
    once or not at all.  The source is the shard *file* (of this build's
    format: the pool opened it), ATTACHed; the caller holds both shards'
    write locks, so it cannot change under the copy.  Documents the target already holds with AT LEAST the source's
    line count are skipped: lines only append and a doc's new lines land
    on exactly one holder, so a target that is not behind is
    current-or-ahead (it may carry ingests accepted after ownership
    switched -- rows a re-copy from the source must never clobber).  A
    target *behind* the source is a stale copy from a move that died
    mid-way; it is dropped and re-copied in full.  Together these make
    re-submitting the same move the repair path for a run that failed
    or died between the copy commit and the source delete.  The count
    verification runs *inside* the transaction -- a mismatch rolls the
    whole copy back.

    The moved lines' postings come along, and the target's coverage mark
    moves past them, only when both files record the same dictionary and
    approach, the source had every moved line covered and the target has
    no uncovered line; otherwise none are copied and the mark stays
    below the new lines (the index plans scan them).
    """
    writer = replica.writer
    conn = writer.conn
    writer.attach(source_path, _SRC)
    try:
        with conn:
            _load_ids(conn, doc_ids)
            conn.execute(
                f"DELETE FROM _rebalance_ids WHERE DocId IN ("
                f"SELECT d.DocId FROM main.Documents d WHERE "
                f"(SELECT COUNT(*) FROM main.MasterData "
                f" WHERE DocId = d.DocId) >= "
                f"(SELECT COUNT(*) FROM {_SRC}.MasterData "
                f" WHERE DocId = d.DocId))"
            )
            # Remaining ids are either absent from the target (the
            # deletes no-op) or stale partial copies (cleared for a
            # fresh copy).
            _delete_rows(conn)
            # DataKeys start at 0 on a fresh file, so the first free
            # key is MAX + 1 (not MAX): every copied key lands past
            # the target's existing range.
            offset = conn.execute(
                "SELECT COALESCE(MAX(DataKey), -1) + 1 FROM MasterData"
            ).fetchone()[0]
            expect_lines, last_moved = conn.execute(
                f"SELECT COUNT(*), MAX(DataKey) FROM {_SRC}.MasterData "
                f"WHERE DocId IN (SELECT DocId FROM _rebalance_ids)"
            ).fetchone()
            indexed = False
            if expect_lines:
                source_key, source_covered = storage.index_meta(conn, _SRC)
                if source_covered is None or last_moved > source_covered:
                    source_key = None  # a moved line is uncovered there
                indexed = storage.cover_appended(
                    conn, offset, offset + last_moved, source_key
                )
            conn.execute(
                f"INSERT INTO Documents SELECT * FROM {_SRC}.Documents "
                f"WHERE DocId IN (SELECT DocId FROM _rebalance_ids)"
            )
            for table, statement in _COPY_LINES.items():
                if table != "InvertedIndex" or indexed:
                    conn.execute(statement, {"offset": offset})
            got_docs, got_lines = conn.execute(
                "SELECT (SELECT COUNT(*) FROM Documents WHERE DocId IN "
                "(SELECT DocId FROM _rebalance_ids)), "
                "(SELECT COUNT(*) FROM MasterData WHERE DocId IN "
                "(SELECT DocId FROM _rebalance_ids))"
            ).fetchone()
            copied = [
                row[0]
                for row in conn.execute(
                    "SELECT DocId FROM _rebalance_ids ORDER BY DocId"
                )
            ]
            if got_docs != len(copied) or got_lines != expect_lines:
                raise RuntimeError(
                    f"rebalance copy verification failed on "
                    f"{replica.path}: expected {len(copied)} docs / "
                    f"{expect_lines} lines, found {got_docs} / {got_lines}"
                )
    finally:
        writer.detach(_SRC)
    return copied


def delete_docs(replica: Replica, doc_ids: Sequence[int]) -> None:
    """Drop the moved documents from one replica (one transaction)."""
    writer = replica.writer
    with writer.conn:
        _load_ids(writer.conn, doc_ids)
        _delete_rows(writer.conn)


# ----------------------------------------------------------------------
# The job
# ----------------------------------------------------------------------
def _incomplete(exc: Exception, what: str, recipe: str) -> ApiError:
    """Rows sit on two shards and could not be converged right now."""
    unavailable = isinstance(exc, ApiError) and exc.status == 503
    return ApiError(
        503 if unavailable else 500,
        f"{what}: {exc}; {recipe}",
        code="rebalance_incomplete",
    )


def run(router, job: Job, params: Mapping[str, object]) -> dict[str, object]:
    """Runner: move ``[doc_lo, doc_hi]`` from ``source`` to ``target``.

    Phases (cancellation checkpoints between them; a cancel before the
    routing swap undoes the copy and leaves the cluster exactly as it
    was):

    1. **snapshot** -- under both shards' write locks (acquired in
       shard-index order via the shared ``ordered_locks`` helper), list
       the documents the source holds in the range;
    2. **copy + verify** -- one verified transaction per target
       replica, keyed off a healthy source copy;
    3. **swap** -- publish the successor routing table (single atomic
       reference swap) and persist it;
    4. **delete** -- after the move gate's barrier, drop the moved rows
       from every source replica.

    The copy and the delete commit to the shard files, which moves
    their versions (:meth:`ShardLeg.version`): a result cached before
    the move, whose line ids and shard tags it changes, is never served
    after it.

    Between the copy and the delete a moved document is on both shards;
    readers de-duplicate, so answers stay exact.  A run that fails in
    that window says so (``rebalance_incomplete``), and re-submitting
    the same move converges it.
    """
    request = validate_rebalance_params(params, router.num_shards)
    lo, hi = request.doc_lo, request.doc_hi
    src, dst = request.source, request.target

    def on(index: int, call):
        return router.call_leg(index, "rebalance", call)

    job.check_cancelled()
    with ordered_locks(
        (src, router.pool.shard(src).write_lock),
        (dst, router.pool.shard(dst).write_lock),
    ):
        job.update(progress=0.1)
        moved_docs, moved_lines, source_path = on(
            src, lambda leg: leg.rebalance_snapshot(lo, hi)
        )
        job.update(progress=0.2, docs=len(moved_docs), lines=moved_lines)
        job.check_cancelled()
        copied_docs: list[int] = []
        if moved_docs:
            copied_docs = on(
                dst,
                lambda leg: leg.rebalance_copy(source_path, moved_docs),
            )
        job.update(progress=0.6)
        if router._rebalance_after_copy is not None:
            router._rebalance_after_copy(job)
        if job.cancel_requested:
            # Unwind only what THIS run inserted: documents the copy
            # skipped already lived on the target (possibly with
            # post-switch ingests no other shard holds) and must
            # survive the rollback.
            if copied_docs:
                try:
                    on(dst, lambda leg: leg.rebalance_delete(copied_docs))
                except Exception as exc:
                    # The committed copies could not be rolled back:
                    # rows sit on two shards, the same unconverged
                    # state as a failed source delete -- converge by
                    # re-running.
                    raise _incomplete(
                        exc,
                        f"rebalance {job.id} was cancelled but could "
                        f"not roll the copies back off shard {dst}",
                        "re-submit the same rebalance to converge "
                        "(forward)",
                    ) from exc
            raise JobCancelled(
                f"rebalance {job.id} cancelled after copy; "
                "target rolled back, routing unchanged"
            )
        router.publish_routing(router.routing.with_move(lo, hi, dst))
        job.update(progress=0.75)
        if moved_docs:
            try:
                # Every fan-out that may have read the target
                # *before* the copy landed must finish before a row
                # leaves the source, or one request could see the
                # moved documents on neither shard.
                router.move_gate.barrier()
                on(src, lambda leg: leg.rebalance_delete(moved_docs))
            except Exception as exc:
                # Ownership already switched; the copies are live
                # on the target but the source still holds the
                # rows.  Tell the operator the convergence recipe:
                # re-submitting the same move skips the
                # already-copied documents and retries the delete.
                raise _incomplete(
                    exc,
                    f"rebalance switched ownership of [{lo}, {hi}] to "
                    f"shard {dst} but could not delete the moved rows "
                    f"from shard {src}",
                    "re-submit the same rebalance once the shard is "
                    "writable to converge",
                ) from exc
    job.update(progress=1.0)
    return {
        "doc_lo": lo,
        "doc_hi": hi,
        "source": src,
        "target": dst,
        "moved_docs": len(moved_docs),
        "moved_lines": moved_lines,
    }
