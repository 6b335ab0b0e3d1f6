"""Cross-request memoization of kernel evaluations.

A filescan's unit of work -- evaluating one compiled kernel against one
query automaton -- is a pure function of ``(kernel content, query)``.
The memo caches its result keyed on the kernel's content fingerprint
(:func:`repro.sfa.kernel.kernel_fingerprint`) and the query's pattern
fingerprint, so repeated probes of hot chunks skip the DP entirely.
Content-addressed keys cannot serve a stale answer, so a write leaves
the memo alone: after an ingest the lines already stored still hit, and
only the new lines -- new fingerprints -- miss.  Entries of kernels
that are gone age out of the LRU.

Hits and misses are reported both through :meth:`stats` (the ``/stats``
memo block) and the process-wide ``memo_hits``/``memo_misses`` engine
counters (``/metrics``).

The memo object is also where a shard keeps its **scan images**
(:class:`ScanImage`): the query-independent half of a filescan -- every
stored kernel decoded and laid out for the batched DP, with the
character pairs each line can spell, which the index plan also reads to
rule out candidates before fetching them -- one per approach
scanned.  It lives here because every handle holds a memo, and one
shared memo spans exactly the connections that may share an image (a
pool's readers, the writer, the replicas of one shard, a worker
process's leg).  An image is validated by *content*: it is current iff
the table's ordered ``(DataKey, Fingerprint)`` column equals the listing
it was built from, which also holds for writes this process never saw (a
rebalance delete, another process's ingest, a replica's file).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .eval_kernel import KernelBatch

__all__ = [
    "KernelMemo",
    "ScanImage",
    "SCAN_IMAGE_BUDGET_BYTES",
    "query_fingerprint",
]

#: Most bytes of scan images one memo retains (its approaches together).
#: A laid-out line is about 3x its stored blob (46 KB at m=40 k=25), so
#: this holds some 5 000 lines; a scan whose image does not fit builds
#: it, uses it and drops it.
SCAN_IMAGE_BUDGET_BYTES = 256 * 1024 * 1024


def query_fingerprint(pattern: str) -> str:
    """Content digest of a query automaton.

    The DFA is fully determined by its LIKE/regex pattern (compilation
    is deterministic), so hashing the pattern hashes the automaton.
    """
    return hashlib.sha256(pattern.encode("utf-8")).hexdigest()[:32]


class ScanImage(NamedTuple):
    """One approach's stored kernels, decoded and laid out, immutable.

    ``listing`` is every ``(DataKey, Fingerprint)`` row of the approach
    in DataKey order, read by the statement that also returned the blobs
    (one snapshot); the image is valid while the table still lists
    exactly that.  ``lines`` maps each listed DataKey to its line
    position in ``batch``.
    """

    listing: list[tuple[int, str]]
    lines: dict[int, int]
    fingerprints: list[str]  # per line position of ``batch``
    batch: "KernelBatch"
    nbytes: int


class KernelMemo:
    """Bounded LRU of (kernel fingerprint, query fingerprint) -> result.

    Values are ``(probability, dp_cells, dp_transitions)`` triples --
    the full :class:`repro.query.eval_kernel.LineResult` payload.  All
    operations take the internal lock; one instance is shared by every
    connection serving a shard.  ``capacity <= 0`` disables the memo.
    """

    def __init__(self, capacity: int = 65536) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: OrderedDict[
            tuple[str, str], tuple[float, int, int]
        ] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._images: dict[str, ScanImage] = {}
        #: approach -> [builds, hits], kept when the image is not.
        self._image_counts: dict[str, list[int]] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(
        self, kernel_fp: str, query_fp: str
    ) -> tuple[float, int, int] | None:
        """The memoized result, marking it recently used; None on miss."""
        key = (kernel_fp, query_fp)
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            return value

    def put(
        self, kernel_fp: str, query_fp: str, value: tuple[float, int, int]
    ) -> None:
        """Store one result."""
        if self.capacity <= 0:
            return
        with self._lock:
            self._data[(kernel_fp, query_fp)] = value
            self._data.move_to_end((kernel_fp, query_fp))
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def scan_image(
        self, approach: str, listing: list[tuple[int, str]]
    ) -> ScanImage | None:
        """The approach's image if it was built from exactly ``listing``
        (a hit), else None: the caller rebuilds and installs."""
        with self._lock:
            image = self._images.get(approach)
            if image is None or image.listing != listing:
                return None
            self._image_counts[approach][1] += 1
            return image

    def install_scan_image(self, approach: str, image: ScanImage) -> bool:
        """Count one build and keep its image if the budget allows.

        Replaces the approach's previous image either way (it was
        stale); of two racing builders the last wins, and a reader still
        evaluating on the old image finishes on it.  Returns whether the
        image was retained.
        """
        with self._lock:
            self._image_counts.setdefault(approach, [0, 0])[0] += 1
            self._images.pop(approach, None)
            held = sum(other.nbytes for other in self._images.values())
            retained = held + image.nbytes <= SCAN_IMAGE_BUDGET_BYTES
            if retained:
                self._images[approach] = image
            return retained

    def image_fits(self, approach: str, held: bool = False) -> bool:
        """False once the approach's last built image was not retained
        (over :data:`SCAN_IMAGE_BUDGET_BYTES`), True otherwise -- with
        ``held``, True only while one is retained: a reader that only
        consults the image, never needs it, does without rather than
        rebuild it on every query."""
        with self._lock:
            images, counts = self._images, self._image_counts
            return approach in images or not (held or approach in counts)

    def stats(self) -> dict[str, object]:
        """Snapshot for the ``/stats`` memo block."""
        with self._lock:
            lookups = self.hits + self.misses
            scan_image = {}
            for approach, (builds, hits) in self._image_counts.items():
                image = self._images.get(approach)
                scan_image[approach] = {
                    "lines": len(image.lines) if image else 0,
                    "bytes": image.nbytes if image else 0,
                    "builds": builds,
                    "hits": hits,
                }
            return {
                "size": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "evictions": self.evictions,
                "scan_image": scan_image,
            }
