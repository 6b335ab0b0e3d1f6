"""A pool of read-only StaccatoDB connections for concurrent serving.

SQLite connections are cheap but not free (each open replays the schema
DDL, and the dictionary trie must be reloaded per connection), and the
default ``check_same_thread`` guard forbids sharing one connection across
handler threads.  The pool opens ``size`` connections to the same
database file with ``check_same_thread=False``, guards each with its own
lock, and hands exclusive use to one thread at a time: acquired
connections are removed from the free list *and* hold their per
connection lock until released, so no two threads ever interleave on the
same cursor.

Writes never go through the pool -- each replica keeps one dedicated
writer connection, used under its shard's write lock (see
:mod:`repro.service.replicas`); pooled readers run in SQLite autocommit
mode and therefore observe each committed batch immediately.

A shard keeps one pool per replica file; the ``label`` tells the pools
apart in ``/stats`` (``shard-0/r1``), and ``stats`` reports the backing
``path`` so a replica's occupancy is attributable to its file.
"""

from __future__ import annotations

import contextlib
import threading
from collections import deque
from typing import Iterator

from ..db.engine import StaccatoDB
from ..query.memo import KernelMemo
from . import trace

__all__ = ["ConnectionPool", "PoolClosed"]


class PoolClosed(RuntimeError):
    """Raised when acquiring from a pool that has been closed."""


class _PooledConnection:
    """One reusable connection plus the lock asserting exclusive use."""

    __slots__ = ("db", "lock")

    def __init__(self, db: StaccatoDB) -> None:
        self.db = db
        self.lock = threading.Lock()


class ConnectionPool:
    """Fixed-size pool of ``StaccatoDB`` handles over one database file."""

    def __init__(
        self,
        path: str,
        size: int = 4,
        k: int = 25,
        m: int = 40,
        index_approach: str = "staccato",
        label: str | None = None,
        kernel_memo: KernelMemo | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.path = path
        self.size = size
        #: Display name in ``/stats`` (the shard router labels per shard).
        self.label = label
        # One memo shared by every pooled reader (and, in the service, the
        # writer): any connection's evaluation warms all the others.
        self._entries = [
            _PooledConnection(
                StaccatoDB(
                    path,
                    k=k,
                    m=m,
                    check_same_thread=False,
                    kernel_memo=kernel_memo,
                )
            )
            for _ in range(size)
        ]
        for entry in self._entries:
            entry.db.load_index(index_approach)
        self._free: deque[_PooledConnection] = deque(self._entries)
        self._cond = threading.Condition()
        self._closed = False
        self.checkouts = 0

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def acquire(self, timeout: float | None = None) -> Iterator[StaccatoDB]:
        """Check a connection out for exclusive use by the calling thread."""
        with trace.span("pool_wait") as wait:
            entry = self._checkout(timeout)
            if wait is not None and self.label is not None:
                wait.annotate(pool=self.label)
        try:
            yield entry.db
        finally:
            self._checkin(entry)

    def _checkout(self, timeout: float | None) -> _PooledConnection:
        with self._cond:
            ok = self._cond.wait_for(
                lambda: self._closed or self._free, timeout=timeout
            )
            if self._closed:
                raise PoolClosed("connection pool is closed")
            if not ok:
                raise TimeoutError(
                    f"no free connection after {timeout:.1f}s "
                    f"(pool size {self.size})"
                )
            entry = self._free.popleft()
            self.checkouts += 1
        entry.lock.acquire()
        # close() may have taken this entry's lock (and closed its db)
        # between the pop above and our acquire; re-check before handing
        # the connection out.
        with self._cond:
            if self._closed:
                entry.lock.release()
                raise PoolClosed("connection pool is closed")
        return entry

    def _checkin(self, entry: _PooledConnection) -> None:
        entry.lock.release()
        with self._cond:
            self._free.append(entry)
            self._cond.notify()

    # ------------------------------------------------------------------
    def reload_index(self, approach: str | None = None) -> bool:
        """Refresh every connection's anchor trie (after a rebuild).

        The approach recorded in ``IndexMeta`` wins; ``approach`` is only
        a fallback for databases predating that record.  Returns whether
        a persisted index was found (so ``/index`` can confirm the
        broadcast took)."""
        found = False
        for entry in self._entries:
            with entry.lock:
                found = entry.db.load_index(approach) or found
        return found

    def stats(self) -> dict[str, object]:
        """Pool occupancy snapshot for the ``/stats`` endpoint."""
        with self._cond:
            snapshot: dict[str, object] = {
                "size": self.size,
                "in_use": self.size - len(self._free),
                "checkouts": self.checkouts,
                "path": self.path,
            }
            if self.label is not None:
                snapshot["label"] = self.label
            return snapshot

    def close(self) -> None:
        """Close every connection; subsequent acquires raise PoolClosed."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for entry in self._entries:
            with entry.lock:
                entry.db.close()
