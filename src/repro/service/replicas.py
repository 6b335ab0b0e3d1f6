"""Read replicas with circuit-breaker failover for the shard router.

One unreadable shard file must not take down every fan-out query, so a
shard can keep ``N`` read replicas: the primary file plus ``N - 1``
copies, all held in lockstep by re-applying every committed write (an
ingest sub-batch or an index rebuild) to every replica under the
shard's write lock.  The OCR channel is deterministic per ``(seed,
text, doc_id, line_no)``, so replaying a batch produces byte-identical
relations on every copy.

The read path load-balances round-robin across the *healthy* replicas
and fails over transparently:

* every replica carries a :class:`CircuitBreaker`.  A leg that raises
  (or whose file has vanished) records a failure, which **opens** the
  breaker: the replica leaves the rotation and the in-flight query is
  retried on a sibling, invisible to the client;
* after ``cooldown_s`` the breaker goes **half-open** and releases one
  live request as a probe -- success closes the breaker (back in
  rotation), failure re-opens it for another cooldown.  Probes ride on
  real traffic, so a failed probe is just one more transparent retry;
* a replica that misses a write which *did* commit on a sibling has
  diverged; it is marked **stale** and stays out of the rotation until
  an operator detaches it and attaches a fresh copy (``POST
  /replicas``), which re-syncs from a live replica via SQLite's online
  backup.

Only when every replica of a shard is out does the query fail, as
:class:`ReplicaUnavailable` (HTTP 503 ``shard_unavailable``).
"""

from __future__ import annotations

import contextlib
import glob
import itertools
import os
import pathlib
import sqlite3
import threading
import time
from typing import Callable, Iterator, Sequence

from .. import tracing
from ..db.engine import StaccatoDB
from ..query.memo import KernelMemo
from .pool import ConnectionPool

__all__ = [
    "DEFAULT_COOLDOWN_S",
    "replica_path",
    "ordered_locks",
    "CircuitBreaker",
    "FileWatch",
    "Replica",
    "ReplicaSet",
    "ReplicaUnavailable",
]


@contextlib.contextmanager
def ordered_locks(
    *pairs: tuple[int, threading.Lock],
) -> Iterator[None]:
    """Hold several keyed locks at once, acquired in ascending key order.

    The serving tier's deadlock-avoidance rule: whenever more than one
    shard-level lock must be held together (a rebalance pins its source
    *and* target shard; replica maintenance may pin a shard and its
    set), every taker sorts by the stable integer key (the shard index)
    first, so two concurrent multi-lock operations can never wait on
    each other in a cycle.  Single-lock takers are unaffected -- they
    hold one lock and always drain.
    """
    ordered = sorted(pairs, key=lambda pair: pair[0])
    held: list[threading.Lock] = []
    try:
        for _, lock in ordered:
            lock.acquire()
            held.append(lock)
        yield
    finally:
        for lock in reversed(held):
            lock.release()

#: Seconds an open breaker waits before releasing a half-open probe.
DEFAULT_COOLDOWN_S = 2.0

_SENTINEL = object()


def replica_path(primary_path: str, replica_index: int) -> str:
    """The file path of one replica of a shard.

    Replica 0 *is* the primary (the canonical ``shard-NNNN.db`` file);
    replica ``j > 0`` lives beside it as ``shard-NNNN.r<j>.db``.
    """
    if replica_index < 0:
        raise ValueError("replica index must be >= 0")
    if replica_index == 0:
        return primary_path
    root, ext = os.path.splitext(primary_path)
    return f"{root}.r{replica_index}{ext}"


class ReplicaUnavailable(RuntimeError):
    """Every replica of a shard is unhealthy (or was already tried)."""


#: One serial per watch connection, never reused in the process.
_WATCH_SERIALS = itertools.count()


class FileWatch:
    """The ``PRAGMA data_version`` of one database file, read under a
    lock on a read-only connection of its own.  SQLite moves it whenever
    another connection, of any process, commits to the file; a read
    never does.  A version is ``(serial, data_version)``: the serial
    names the connection, whose counter means nothing to another one.
    A watch that cannot read its file answers a serial never used
    before -- a miss, never a stale hit -- and reconnects on the next
    call.
    """

    def __init__(self, path: str) -> None:
        self._uri = pathlib.Path(path).absolute().as_uri() + "?mode=ro"
        self._lock = threading.Lock()
        self._conn: sqlite3.Connection | None = None
        self._serial = 0

    def version(self) -> tuple[int, int]:
        with self._lock:
            try:
                if self._conn is None:
                    self._conn = sqlite3.connect(
                        self._uri, uri=True, check_same_thread=False
                    )
                    self._serial = next(_WATCH_SERIALS)
                query = self._conn.execute("PRAGMA data_version")
                return self._serial, query.fetchone()[0]
            except sqlite3.Error:
                self._drop()
                return next(_WATCH_SERIALS), 0

    def _drop(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def close(self) -> None:
        with self._lock:
            self._drop()


class CircuitBreaker:
    """Closed / open / half-open availability gate for one replica.

    * **closed** -- healthy; every request allowed.
    * **open** -- a failure was recorded; nothing allowed until
      ``cooldown_s`` has elapsed.
    * **half-open** -- cooldown over; exactly one request is released
      as a probe.  Its outcome closes or re-opens the breaker.
    """

    def __init__(
        self,
        cooldown_s: float = DEFAULT_COOLDOWN_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._opened_at = 0.0
        self.errors = 0
        self.trips = 0
        self.last_error: str | None = None

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether the caller may send a request to this replica now.

        An open breaker whose cooldown has elapsed releases exactly one
        caller (the half-open probe); concurrent callers are refused
        until the probe's outcome is recorded.
        """
        with self._lock:
            if self._state == "closed":
                return True
            if (
                self._state == "open"
                and self._clock() - self._opened_at >= self.cooldown_s
            ):
                self._state = "half-open"
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"

    def record_failure(self, exc: BaseException) -> None:
        with self._lock:
            self.errors += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
            if self._state != "open":
                self.trips += 1
            self._state = "open"
            self._opened_at = self._clock()

    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "state": self._state,
                "errors": self.errors,
                "trips": self.trips,
                "cooldown_s": self.cooldown_s,
                "last_error": self.last_error,
            }


class Replica:
    """One copy of a shard: file, writer, reader pool, watch, breaker."""

    __slots__ = (
        "shard_index",
        "replica_index",
        "path",
        "writer",
        "pool",
        "watch",
        "breaker",
        "stale",
        "stale_reason",
        "served",
    )

    def __init__(
        self,
        shard_index: int,
        replica_index: int,
        path: str,
        k: int,
        m: int,
        pool_size: int,
        cooldown_s: float,
        clock: Callable[[], float],
        kernel_memo: KernelMemo,
    ) -> None:
        self.shard_index = shard_index
        self.replica_index = replica_index
        self.path = path
        # Writer first: a fresh replica file gets its schema (and WAL
        # mode) before any pooled reader connects.  Lockstep writes make
        # all replicas byte-identical, and the kernel memo is
        # content-addressed, so one shard-level memo safely serves every
        # copy.
        self.writer = StaccatoDB(
            path, k=k, m=m, check_same_thread=False, kernel_memo=kernel_memo
        )
        try:
            self.writer.conn.execute("PRAGMA journal_mode=WAL")
        except Exception:
            pass  # filesystems without locking; rollback mode works
        self.pool = ConnectionPool(
            path,
            size=pool_size,
            k=k,
            m=m,
            label=f"shard-{shard_index}/r{replica_index}",
            kernel_memo=kernel_memo,
        )
        self.watch = FileWatch(path)
        self.breaker = CircuitBreaker(cooldown_s=cooldown_s, clock=clock)
        #: A stale replica missed a write that committed on a sibling;
        #: it never re-enters the rotation (detach + attach re-syncs).
        self.stale = False
        self.stale_reason: str | None = None
        #: Reads this replica served (load-balance visibility).
        self.served = 0

    @property
    def role(self) -> str:
        return "primary" if self.replica_index == 0 else "replica"

    def mark_stale(self, reason: str) -> None:
        self.stale = True
        self.stale_reason = reason

    def close(self) -> None:
        self.watch.close()
        self.pool.close()
        self.writer.close()

    def stats(self) -> dict[str, object]:
        return {
            "replica": self.replica_index,
            "role": self.role,
            "path": self.path,
            "healthy": not self.stale and self.breaker.state == "closed",
            "stale": self.stale,
            "stale_reason": self.stale_reason,
            "served": self.served,
            "breaker": self.breaker.stats(),
            "pool": self.pool.stats(),
        }


class ReplicaSet:
    """A shard's replicas plus the failover read / lockstep write paths.

    The caller (the shard router) holds the shard's write lock around
    :meth:`apply_write`, :meth:`attach` and :meth:`detach`; reads via
    :meth:`run` need no lock -- the replica list is snapshotted under an
    internal lock and each replica's pool serializes its connections.
    """

    def __init__(
        self,
        shard_index: int,
        primary_path: str,
        count: int = 1,
        *,
        k: int = 25,
        m: int = 40,
        pool_size: int = 2,
        cooldown_s: float = DEFAULT_COOLDOWN_S,
        clock: Callable[[], float] = time.monotonic,
        kernel_memo: KernelMemo,
    ) -> None:
        if count < 1:
            raise ValueError("a shard needs at least one replica")
        self.shard_index = shard_index
        self.primary_path = primary_path
        self._k = k
        self._m = m
        self._pool_size = pool_size
        self._cooldown_s = cooldown_s
        self._clock = clock
        self._kernel_memo = kernel_memo
        self._lock = threading.Lock()
        self._rr = 0
        self._next_index = count
        # Disaster recovery first: if the primary file was lost while a
        # replica survived, re-seed the primary from the fullest copy
        # *before* the re-sync below would clobber that copy.
        self._recover_primary()
        primary = self._open(0, primary_path)
        self._replicas: list[Replica] = [primary]
        # Secondary replicas always start as a fresh copy of the
        # primary: a leftover file from a previous run may have missed
        # that run's final writes, and serving from it would be the
        # exact staleness the lockstep-write rule exists to prevent.
        for j in range(1, count):
            self._replicas.append(self._clone(primary, j))

    # ------------------------------------------------------------------
    @staticmethod
    def _file_lines(path: str) -> int:
        """Lines in a StaccatoDB file, or -1 if unreadable/absent."""
        if not os.path.exists(path):
            return -1
        try:
            conn = sqlite3.connect(path)
            try:
                return conn.execute(
                    "SELECT COUNT(*) FROM MasterData"
                ).fetchone()[0]
            finally:
                conn.close()
        except sqlite3.Error:
            return -1

    def _recover_primary(self) -> None:
        """Re-seed a lost/empty primary from the fullest leftover replica.

        The startup re-sync deletes and re-clones every secondary, so a
        primary lost to a disk fault must be restored *from* a surviving
        copy first -- otherwise the re-sync would back an empty fresh
        primary up over the only good data.  Leftover replica files are
        found by pattern, not configured count: a copy attached at
        runtime in the previous run counts too.
        """
        if self._file_lines(self.primary_path) > 0:
            return
        root, ext = os.path.splitext(self.primary_path)
        candidates = sorted(glob.glob(f"{glob.escape(root)}.r*{ext}"))
        best_path, best_lines = None, 0
        for candidate in candidates:
            lines = self._file_lines(candidate)
            if lines > best_lines:
                best_path, best_lines = candidate, lines
        if best_path is None:
            return
        source = sqlite3.connect(best_path)
        try:
            dest = sqlite3.connect(self.primary_path)
            try:
                source.backup(dest)
            finally:
                dest.close()
        finally:
            source.close()

    def _open(self, replica_index: int, path: str) -> Replica:
        return Replica(
            self.shard_index,
            replica_index,
            path,
            self._k,
            self._m,
            self._pool_size,
            self._cooldown_s,
            self._clock,
            kernel_memo=self._kernel_memo,
        )

    def _clone(self, source: Replica, replica_index: int) -> Replica:
        """A new replica whose file is an online-backup copy of ``source``."""
        path = replica_path(self.primary_path, replica_index)
        for leftover in (path, f"{path}-wal", f"{path}-shm"):
            if os.path.exists(leftover):
                os.remove(leftover)
        dest = sqlite3.connect(path)
        try:
            source.writer.conn.backup(dest)
        finally:
            dest.close()
        return self._open(replica_index, path)

    # ------------------------------------------------------------------
    def replicas(self) -> list[Replica]:
        """Snapshot of the currently attached replicas."""
        with self._lock:
            return list(self._replicas)

    def __len__(self) -> int:
        with self._lock:
            return len(self._replicas)

    def live_replica(self) -> Replica | None:
        """A copy that holds every committed write and is still on disk
        (the primary unless it is stale or lost): what a re-sync or a
        rebalance copies from."""
        return next(
            (
                r
                for r in self.replicas()
                if not r.stale and os.path.exists(r.path)
            ),
            None,
        )

    def healthy(self) -> list[Replica]:
        """Replicas currently in the read rotation."""
        return [
            r
            for r in self.replicas()
            if not r.stale and r.breaker.state == "closed"
        ]

    def _pick(self, tried: set[int]) -> Replica | None:
        """Next replica to try: round-robin over the allowed, untried ones."""
        with self._lock:
            candidates = [
                r
                for r in self._replicas
                if r.replica_index not in tried and not r.stale
            ]
            if not candidates:
                return None
            start = self._rr
            self._rr += 1
            order = [
                candidates[(start + i) % len(candidates)]
                for i in range(len(candidates))
            ]
        for replica in order:
            # allow() may consume a half-open probe slot, so only ask
            # the replica we are about to hand out.
            if replica.breaker.allow():
                return replica
        return None

    def run(
        self,
        attempt: Callable[[Replica], object],
        passthrough: tuple[type[BaseException], ...] = (),
    ) -> object:
        """Run ``attempt(replica)`` on a healthy replica, failing over.

        A replica whose file has vanished, or whose attempt raises,
        records a breaker failure and the call moves to the next
        replica; the client never sees the retry.  Exceptions listed in
        ``passthrough`` (client errors like a malformed query) are
        re-raised immediately without blaming the replica.  When every
        replica has been tried or refused, raises
        :class:`ReplicaUnavailable` carrying the last error.
        """
        tried: set[int] = set()
        last_error: BaseException | None = None
        while True:
            replica = self._pick(tried)
            if replica is None:
                detail = f" (last error: {last_error})" if last_error else ""
                raise ReplicaUnavailable(
                    f"shard {self.shard_index}: no healthy replica "
                    f"left{detail}"
                ) from last_error
            tried.add(replica.replica_index)
            # One span per attempt -- a failover shows up as sibling
            # ``replica_attempt`` spans, the failed ones flagged with
            # the error and the breaker state they observed going in.
            with tracing.span(
                "replica_attempt",
                replica=replica.replica_index,
                breaker=replica.breaker.state,
            ) as att:
                if not os.path.exists(replica.path):
                    error: BaseException = FileNotFoundError(replica.path)
                    replica.breaker.record_failure(error)
                    last_error = error
                    if att is not None:
                        att.error = True
                        att.annotate(failure="missing_file")
                    continue
                try:
                    result = attempt(replica)
                except passthrough:
                    # The replica evaluated the request; the error
                    # belongs to the client (e.g. malformed SQL).
                    # Recording it as a breaker success matters: if
                    # this attempt was the half-open probe, leaving the
                    # outcome unrecorded would park the breaker in
                    # half-open forever.
                    replica.breaker.record_success()
                    raise
                except Exception as exc:  # noqa: BLE001 - failover boundary
                    replica.breaker.record_failure(exc)
                    last_error = exc
                    if att is not None:
                        att.error = True
                        att.annotate(failure=type(exc).__name__)
                    continue
                replica.breaker.record_success()
                replica.served += 1
                return result

    # ------------------------------------------------------------------
    def apply_write(self, leg: Callable[[Replica], object]) -> object:
        """Apply one write leg to every live replica, in lockstep.

        Caller holds the shard write lock.  Returns the first
        successful replica's result (all copies are deterministic, so
        any one speaks for the batch).  A replica that fails while a
        sibling commits has diverged and is marked stale; if *no*
        replica commits, nothing diverged -- every replica stays in
        rotation and the first error is re-raised.
        """
        result: object = _SENTINEL
        failures: list[tuple[Replica, BaseException]] = []
        first_error: BaseException | None = None
        for replica in self.replicas():
            if replica.stale:
                continue
            error: BaseException | None = None
            if not os.path.exists(replica.path):
                error = FileNotFoundError(replica.path)
            else:
                try:
                    value = leg(replica)
                except Exception as exc:  # noqa: BLE001 - divergence boundary
                    error = exc
            if error is not None:
                failures.append((replica, error))
                if first_error is None:
                    first_error = error
                continue
            if result is _SENTINEL:
                result = value
        if result is _SENTINEL:
            if first_error is not None:
                raise first_error
            raise ReplicaUnavailable(
                f"shard {self.shard_index}: no writable replica"
            )
        for replica, error in failures:
            replica.breaker.record_failure(error)
            replica.mark_stale(f"missed a committed write: {error}")
        return result

    # ------------------------------------------------------------------
    def attach(self) -> Replica:
        """Add one replica, re-synced from a live sibling (online backup).

        Caller holds the shard write lock, so the copy is a consistent
        snapshot and no batch can land between the copy and the new
        replica joining the rotation.
        """
        source = self.live_replica()
        if source is None:
            raise ReplicaUnavailable(
                f"shard {self.shard_index}: no live replica to copy from"
            )
        with self._lock:
            index = self._next_index
            self._next_index += 1
        replica = self._clone(source, index)
        with self._lock:
            self._replicas.append(replica)
        return replica

    def detach(self, replica_index: int) -> Replica:
        """Remove one replica from the set and close it.

        The file stays on disk (an operator may want the bytes); only
        the serving-side handles go away.  Detaching the last replica
        is refused -- that is shutting the shard down, not trimming it.
        """
        with self._lock:
            matches = [
                r for r in self._replicas if r.replica_index == replica_index
            ]
            if not matches:
                raise KeyError(replica_index)
            if len(self._replicas) == 1:
                raise ValueError(
                    f"shard {self.shard_index}: cannot detach the last replica"
                )
            replica = matches[0]
            self._replicas.remove(replica)
        # Closing the pool blocks until in-flight borrowers release, so
        # no query loses its connection mid-evaluation.
        replica.close()
        return replica

    # ------------------------------------------------------------------
    def stats(self) -> list[dict[str, object]]:
        return [replica.stats() for replica in self.replicas()]

    def close(self) -> None:
        for replica in self.replicas():
            replica.close()
