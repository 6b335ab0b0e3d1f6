"""Thread-safe LRU cache for query results.

Query evaluation is the expensive path of the service (every line's
representation is scanned or probed), while the stored relations only
change on ingest.  That makes results perfectly cacheable between
batches: the cache is keyed on the full query identity --
``(kind, db path, pattern/query, approach, plan, num_ans)`` -- and the
whole cache is invalidated whenever a batch lands (ingest is rare and
changes every filescan's universe, so per-key invalidation would buy
nothing).

Counters (hits / misses / evictions / invalidations) feed the
``/stats`` endpoint via :class:`repro.service.metrics.ServiceMetrics`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from . import trace

__all__ = ["QueryCache", "key_to_json", "key_from_json"]


def key_to_json(key: Any) -> Any:
    """A cache key (nested tuples of scalars) as JSON-safe nested lists."""
    if isinstance(key, tuple):
        return [key_to_json(part) for part in key]
    return key


def key_from_json(obj: Any) -> Any:
    """Invert :func:`key_to_json`: every list becomes a tuple again."""
    if isinstance(obj, list):
        return tuple(key_from_json(part) for part in obj)
    return obj


class QueryCache:
    """An LRU mapping from query keys to result payloads.

    All operations take the internal lock, so one instance can be shared
    by every handler thread.  ``capacity <= 0`` disables caching (every
    ``get`` is a miss, ``put`` is a no-op) while keeping the counters
    meaningful.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._generation = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.warm_loaded = 0

    @property
    def generation(self) -> int:
        """Bumped by every invalidation; see :meth:`put`."""
        with self._lock:
            return self._generation

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable) -> Any | None:
        """The cached value, marking it most recently used; None on miss."""
        with trace.span("cache_probe") as probe:
            with self._lock:
                if key in self._data:
                    self._data.move_to_end(key)
                    self.hits += 1
                    if probe is not None:
                        probe.annotate(hit=True)
                    return self._data[key]
                self.misses += 1
            if probe is not None:
                probe.annotate(hit=False)
            return None

    def put(
        self, key: Hashable, value: Any, generation: int | None = None
    ) -> None:
        """Store a result, evicting least-recently-used entries over capacity.

        ``generation`` closes the compute/invalidate race: a reader that
        snapshotted :attr:`generation` before evaluating passes it here,
        and the put becomes a no-op if an invalidation landed in between
        -- otherwise a result computed against pre-batch data could be
        cached *after* the batch's invalidation and served stale forever.
        """
        if self.capacity <= 0:
            return
        with self._lock:
            if generation is not None and generation != self._generation:
                return
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def invalidate(self) -> None:
        """Drop every entry (called after each ingest batch)."""
        with self._lock:
            self._data.clear()
            self._generation += 1
            self.invalidations += 1

    def invalidate_where(self, predicate) -> int:
        """Drop only the entries whose key satisfies ``predicate``.

        The router keys entries with the shard scope they were
        computed over, so an ingest routed to one shard evicts only the
        results that depended on it; returns the number dropped.  Each
        dropped entry counts toward ``invalidations`` -- counting 1 per
        sweep regardless of what it dropped would make the ``/stats``
        hit-rate impossible to interpret against eviction volume.  The
        global generation is *not* bumped -- untouched entries stay
        servable -- so callers relying on generation fencing must encode
        per-shard generations in their keys instead.
        """
        with self._lock:
            doomed = [key for key in self._data if predicate(key)]
            for key in doomed:
                del self._data[key]
            self.invalidations += len(doomed)
            return len(doomed)

    # ------------------------------------------------------------------
    def export_entries(self) -> list[tuple[Hashable, Any]]:
        """Snapshot every entry, LRU-first, for the ``cache_snapshot`` job.

        Keys are the tuple keys the services build (strings, ints, None
        and nested tuples only), so the caller can serialize them as
        nested JSON arrays and restore with :meth:`load_entries`.
        """
        with self._lock:
            return list(self._data.items())

    def load_entries(self, entries: list[tuple[Hashable, Any]]) -> int:
        """Warm-start: pre-populate from a snapshot, counting what landed.

        The caller has already dropped stale-generation entries; this
        only enforces capacity (newest-listed entries win, matching the
        LRU-first export order) and keeps the ``warm_loaded`` counter
        ``/stats`` reports.
        """
        if self.capacity <= 0:
            return 0
        loaded = 0
        with self._lock:
            for key, value in entries:
                self._data[key] = value
                self._data.move_to_end(key)
                loaded += 1
                while len(self._data) > self.capacity:
                    self._data.popitem(last=False)
            self.warm_loaded += loaded
        return loaded

    def stats(self) -> dict[str, float | int]:
        """Counter snapshot for the ``/stats`` endpoint."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "warm_loaded": self.warm_loaded,
            }
