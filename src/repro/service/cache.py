"""Thread-safe LRU cache for query results.

Query evaluation is the expensive path of the service (every line's
representation is scanned or probed), while the stored relations only
change when something commits to a shard file.  The router keys every
entry on the query identity -- ``(kind, shard scope, those shards' file
versions, pattern/query, approach, plan)`` -- where a version is what
the file says (``PRAGMA data_version``, see
:class:`~repro.service.replicas.FileWatch`), read before the fan-out.
A write by anyone moves the version, so no later lookup finds an entry
computed before it; nothing is evicted eagerly, and entries no key
reaches any more age out of the LRU.

``num_ans`` is not in the key: a ranking cut at n is the first n rows
of the same ranking cut at N >= n, so an entry records the ``num_ans``
it was computed at and the router serves every request it covers by
slicing (``usable`` in :meth:`QueryCache.get` says which it covers,
``replaces`` in :meth:`QueryCache.put` keeps the one that covers more).

Counters (hits / misses / evictions) feed the ``/stats`` endpoint.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from .. import tracing

__all__ = ["QueryCache"]


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
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(
        self, key: Hashable, usable: Callable[[Any], bool] | None = None
    ) -> Any | None:
        """The cached value, marking it most recently used; None on miss.

        An entry ``usable`` refuses is a miss (it stays cached until a
        ``put`` replaces it or the LRU drops it).
        """
        with tracing.span("cache_probe") as probe:
            with self._lock:
                if key in self._data and (
                    usable is None or usable(self._data[key])
                ):
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
        self,
        key: Hashable,
        value: Any,
        replaces: Callable[[Any], bool] | None = None,
    ) -> None:
        """Store a result, evicting least-recently-used entries over
        capacity.  An entry already under ``key`` that ``replaces``
        refuses is kept instead."""
        if self.capacity <= 0:
            return
        with self._lock:
            if key in self._data and not (
                replaces is None or replaces(self._data[key])
            ):
                return
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

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
            }
