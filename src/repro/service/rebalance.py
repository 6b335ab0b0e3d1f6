"""Online rebalancing: move one DocId range between two live shards.

Everything a move needs beyond the router's ordinary read/write paths
lives here:

* :class:`MoveGate` -- the active-move list ``/sql`` consults, the drain
  barriers that order readers against the copy and the delete, and the
  crash-surviving record of moves that may have left rows on two shards;
* :func:`copy_docs` / :func:`delete_docs` -- the per-replica SQL
  primitives (one verified transaction each) the in-process leg runs,
  either directly or, inside a worker process, on the router's behalf;
* :func:`run` -- the ``rebalance`` job body, written once against the
  :class:`~repro.service.legs.ShardLeg` seam's three rebalance calls, so
  it drives in-process shards and worker processes alike.
"""

from __future__ import annotations

import contextlib
import json
import threading
from typing import Iterator, Mapping, Sequence

from ..db import storage
from ..db.schema import LINE_TABLES
from ..sfa.kernel import KERNEL_VERSION, compile_kernel
from ..sfa.serialize import from_bytes
from .jobs import Job, JobCancelled, atomic_write_json
from .replicas import Replica, ordered_locks
from .validation import ApiError, validate_rebalance_params

__all__ = ["PENDING_MOVES_FILE", "MoveGate", "copy_docs", "delete_docs", "run"]

#: Moves that may have left rows on two shards (recorded before the
#: copy, cleared on convergence) -- reloaded at startup so ``/sql``
#: keeps using the de-duplicating plan until a re-run converges.
PENDING_MOVES_FILE = "rebalance-pending.json"

#: ``(doc_lo, doc_hi, source, target)``.
Move = tuple[int, int, int, int]


def _without_last(moves: Sequence[Move], move: Move) -> tuple[Move, ...]:
    """``moves`` minus the *last* occurrence of ``move`` (identical
    entries from an unconverged predecessor must survive)."""
    for at in range(len(moves) - 1, -1, -1):
        if moves[at] == move:
            return tuple(moves[:at]) + tuple(moves[at + 1:])
    return tuple(moves)


class MoveGate:
    """Active rebalance moves, plus a drain barrier for readers.

    ``/sql`` legs return scalar aggregates that cannot be de-duplicated
    after the fact, so a request must *know* a move is in flight before
    any row can exist on two shards.  Readers register under the current
    epoch and receive the active move list; :meth:`begin` publishes the
    move, advances the epoch, and waits until every reader from older
    epochs (who may have missed the move) has finished -- only then may
    the rebalance start copying rows.

    The gate is the in-memory truth; ``pending_path`` is its
    crash-surviving shadow for the moves whose copy started
    (:meth:`record_pending`).  The two are only ever retired together,
    through :meth:`finish`, so they mirror each other by construction.
    """

    def __init__(self, pending_path: str) -> None:
        self._cond = threading.Condition()
        self._epoch = 0
        self._readers: dict[int, int] = {}
        self._pending_path = pending_path
        # Unconverged moves from a previous process: rows may still sit
        # on two shards, so /sql must come back up on the safe plan (no
        # drain needed -- no request predates a service still starting).
        self._pending: list[Move] = self._load_pending()
        self._moves: tuple[Move, ...] = tuple(self._pending)

    # ------------------------------------------------------------------
    def _load_pending(self) -> list[Move]:
        try:
            with open(self._pending_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            return [
                (int(lo), int(hi), int(src), int(dst))
                for lo, hi, src, dst in data.get("moves", [])
            ]
        except (OSError, json.JSONDecodeError, ValueError, TypeError):
            return []

    def _save_pending_locked(self) -> None:
        try:
            atomic_write_json(
                self._pending_path,
                {"moves": [list(m) for m in self._pending]},
            )
        except OSError:
            pass  # best-effort durability; the in-memory gate still holds

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def read(self) -> Iterator[tuple[Move, ...]]:
        with self._cond:
            epoch = self._epoch
            self._readers[epoch] = self._readers.get(epoch, 0) + 1
            moves = self._moves
        try:
            yield moves
        finally:
            with self._cond:
                self._readers[epoch] -= 1
                if not self._readers[epoch]:
                    del self._readers[epoch]
                    self._cond.notify_all()

    def _drain_locked(self, timeout: float) -> bool:
        """Advance the epoch; wait out every reader of older epochs."""
        self._epoch += 1
        fence = self._epoch
        return self._cond.wait_for(
            lambda: all(epoch >= fence for epoch in self._readers),
            timeout=timeout,
        )

    def begin(self, move: Move, timeout: float = 60.0) -> None:
        with self._cond:
            self._moves = self._moves + (move,)
            if not self._drain_locked(timeout):
                self._moves = _without_last(self._moves, move)
                raise TimeoutError(
                    "rebalance could not start: queries from before the "
                    f"move announcement did not drain within {timeout:.0f}s"
                )

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
            if not self._drain_locked(timeout):
                raise TimeoutError(
                    "queries in flight before the ownership swap did not "
                    f"drain within {timeout:.0f}s"
                )

    def record_pending(self, move: Move) -> None:
        """Persist that rows of ``move`` may exist on two shards."""
        with self._cond:
            self._pending.append(move)
            self._save_pending_locked()

    def finish(self, move: Move, converged: bool) -> None:
        """Retire a move from the gate AND the persisted pending record.

        A converged move clears every matching entry a failed
        predecessor (or crash) left behind; an abandoned attempt removes
        only its own, so a predecessor's survive.
        """
        with self._cond:
            if converged:
                self._moves = tuple(m for m in self._moves if m != move)
                self._pending = [m for m in self._pending if m != move]
            else:
                self._moves = _without_last(self._moves, move)
                self._pending = list(_without_last(self._pending, move))
            self._save_pending_locked()


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


def _delete_rows(writer) -> None:
    """Drop the documents of ``_rebalance_ids`` with their lines' rows in
    every per-line table -- an older build's too, so no later line on a
    freed DataKey is answered from them; MasterData names the keys and
    goes last."""
    for table in (*writer.legacy_tables, *reversed(LINE_TABLES)):
        writer.conn.execute(
            f"DELETE FROM {table} WHERE DataKey IN "
            "(SELECT DataKey FROM MasterData WHERE DocId IN "
            "(SELECT DocId FROM _rebalance_ids))"
        )
    writer.conn.execute(
        "DELETE FROM Documents WHERE DocId IN (SELECT DocId FROM _rebalance_ids)"
    )


def _compile_legacy_fullsfa(conn, offset: int) -> None:
    """A moved line of an older source file with a ``FullSFAData`` blob
    but no current ``fullsfa`` kernel row gets that kernel in the
    target: only kernels move, and the line keeps its FullSFA."""
    blobs = conn.execute(
        f"SELECT DataKey, SFABlob FROM {_SRC}.FullSFAData WHERE DataKey IN "
        f"(SELECT DataKey FROM {_SRC}.MasterData WHERE DocId IN "
        f"(SELECT DocId FROM _rebalance_ids)) AND DataKey NOT IN "
        f"(SELECT DataKey FROM {_SRC}.CompiledKernel "
        f"WHERE Approach = 'fullsfa' AND Version = {KERNEL_VERSION})"
    ).fetchall()
    conn.executemany(
        "INSERT OR REPLACE INTO CompiledKernel "
        f"({', '.join(LINE_TABLES['CompiledKernel'])}) VALUES (?, ?, ?, ?, ?)",
        (
            storage.kernel_row(
                key + offset, "fullsfa", compile_kernel(from_bytes(blob))
            )
            for key, blob in blobs
        ),
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
    once or not at all.  The source is the shard *file*, ATTACHed; the
    caller holds both shards' write locks, so it cannot change under the
    copy.  Documents the target already holds with AT LEAST the source's
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
            if not writer.orphans_swept:
                storage.drop_orphan_kernels(conn)
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
            _delete_rows(writer)
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
            if "FullSFAData" in storage.legacy_tables(conn, _SRC):
                _compile_legacy_fullsfa(conn, offset)
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
    writer.orphans_swept = True
    return copied


def delete_docs(replica: Replica, doc_ids: Sequence[int]) -> None:
    """Drop the moved documents from one replica (one transaction)."""
    writer = replica.writer
    with writer.conn:
        _load_ids(writer.conn, doc_ids)
        _delete_rows(writer)


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

    1. **announce** -- register the move and drain SQL readers that
       predate it (they could not know to de-duplicate);
    2. **snapshot** -- under both shards' write locks (acquired in
       shard-index order via the shared ``ordered_locks`` helper), list
       the documents the source holds in the range;
    3. **copy + verify** -- one verified transaction per target
       replica, keyed off a healthy source copy;
    4. **swap** -- publish the successor routing table (single atomic
       reference swap) and persist it;
    5. **delete** -- drop the moved rows from every source replica;
    6. **invalidate** -- bump both shards' generations and evict cache
       entries whose scope touches them (moved line ids and shard tags
       changed even though probabilities did not).
    """
    request = validate_rebalance_params(params, router.num_shards)
    lo, hi = request.doc_lo, request.doc_hi
    src, dst = request.source, request.target
    gate: MoveGate = router.move_gate

    def on(index: int, call):
        return router.call_leg(index, "rebalance", call)

    job.check_cancelled()
    move = (lo, hi, src, dst)
    gate.begin(move)
    moved_docs: list[int] = []
    moved_lines = 0
    evicted = 0
    delete_incomplete = False
    converged = False
    copy_landed = False
    try:
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
                # From here rows may exist on two shards; persist that
                # fact so a crash restarts /sql on the safe
                # de-duplicating plan.
                gate.record_pending(move)
                copied_docs = on(
                    dst,
                    lambda leg: leg.rebalance_copy(source_path, moved_docs),
                )
                copy_landed = True
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
                        # rows sit on two shards, so this is the same
                        # unconverged state as a failed source delete --
                        # keep the gate entry and pending record,
                        # converge by re-running.
                        delete_incomplete = True
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
                    gate.barrier()
                    on(src, lambda leg: leg.rebalance_delete(moved_docs))
                except Exception as exc:
                    # Ownership already switched; the copies are live
                    # on the target but the source still holds the
                    # rows.  Keep the move registered so ``/sql`` stays
                    # on the de-duplicating full-row plan, and tell the
                    # operator the convergence recipe: re-submitting the
                    # same move skips the already-copied documents and
                    # retries the delete.
                    delete_incomplete = True
                    raise _incomplete(
                        exc,
                        f"rebalance switched ownership of [{lo}, {hi}] to "
                        f"shard {dst} but could not delete the moved rows "
                        f"from shard {src}",
                        "re-submit the same rebalance once the shard is "
                        "writable to converge",
                    ) from exc
            job.update(progress=0.9)
        router.forget_placements(moved_docs)
        converged = True
    finally:
        if copy_landed:
            # The target's committed contents changed on every path
            # that got this far -- even a rolled-back cancel briefly
            # exposed the copies to scoped reads that may have been
            # cached -- so both shards' generations move and their
            # cache entries go, success or not.
            evicted = router.shards_changed({src, dst})
        if not delete_incomplete:
            # (An incomplete delete keeps the gate entry and the
            # persisted record: rows sit on two shards until a re-run
            # converges, across restarts too.)
            gate.finish(move, converged)
    job.update(progress=1.0, evicted_cache_entries=evicted)
    return {
        "doc_lo": lo,
        "doc_hi": hi,
        "source": src,
        "target": dst,
        "moved_docs": len(moved_docs),
        "moved_lines": moved_lines,
        "evicted_cache_entries": evicted,
    }
