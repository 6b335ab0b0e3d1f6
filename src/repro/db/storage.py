"""Ingest and load: moving OCR representations in and out of the RDBMS.

One line of one document becomes:

* a row in ``MasterData`` (its DataKey is the dataset-global line id);
* its ground-truth text in ``GroundTruth`` (the paper built manual ground
  truth; our simulated channel gives it exactly);
* per approach the ingest stores (:data:`DEFAULT_APPROACHES` unless it
  names others), its one stored record (paper Table 5), a compiled
  kernel: the k-MAP strings' one-chunk kernel (MAP reads its rank-0
  string); the Staccato chunk graph's, beside the graph's ``SFA1`` blob;
  on request, the FullSFA's.

All inserts are batched with ``executemany`` inside transactions.

When the target file has a dictionary index, a batch built under that
dictionary (:class:`IndexSpec`) carries its lines' postings, computed
from the kernels it has just compiled; :func:`write_batch` stores them
and extends the file's coverage mark in the transaction that stores the
lines, or -- built under any other dictionary -- drops them and leaves
the lines uncovered (the index plans scan uncovered lines).

The index has one copy, the file's: every decision that uses it reads
it through :func:`stored_index`, whose tries come from one process-wide
cache keyed by the recorded dictionary digest.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from ..automata.trie import DictionaryTrie
from ..core.approximate import staccato_approximate
from ..core.kmap import build_kmap, kmap_sfa
from ..indexing.inverted import build_kernel_postings
from ..indexing.postings import Posting
from ..ocr.corpus import Dataset
from ..ocr.engine import SimulatedOcrEngine
from ..sfa import serialize
from ..sfa.kernel import (
    KERNEL_VERSION,
    CompiledKernel,
    blob_fingerprint,
    compile_kernel,
    to_sfa,
)
from ..sfa.model import Sfa, SfaError
from .schema import LINE_TABLES

__all__ = [
    "APPROACHES",
    "DEFAULT_APPROACHES",
    "IndexSpec",
    "BuiltBatch",
    "build_dataset",
    "write_batch",
    "ingest_dataset",
    "load_fullsfa",
    "kernel_row",
    "load_kmap",
    "load_staccato",
    "load_kernel_blobs",
    "decode_kernel",
    "iter_kernel_blobs",
    "kernel_listing",
    "posting_rows",
    "insert_postings",
    "index_meta",
    "stored_index",
    "cover_appended",
    "set_covered_through",
    "load_ground_truth",
    "all_data_keys",
    "line_metadata",
    "approach_storage_bytes",
    "approach_stored",
]

APPROACHES = ("map", "kmap", "fullsfa", "staccato")

#: What an ingest stores unless asked for more: every default query reads
#: one of these (``map`` reads ``kmap``).  ``fullsfa`` -- the complete
#: automaton, over half of a line's bytes -- is stored only when an
#: ingest's ``approaches`` name it.
DEFAULT_APPROACHES = ("kmap", "staccato")

#: ``map`` stores no kernel: it reads the ``kmap`` rows, and lists each
#: line's derived rank-0 kernel (:func:`decode_kernel`) under the
#: ``kmap`` fingerprint with this prefix -- the derived kernel is a
#: function of that row, and the prefix keeps its memo entries apart.
MAP_FINGERPRINT_PREFIX = "map:"

#: Insert statement per per-line table, in write order.
_INSERTS = {
    table: f"INSERT INTO {table} ({', '.join(columns)}) "
    f"VALUES ({', '.join('?' * len(columns))})"
    for table, columns in LINE_TABLES.items()
}


@dataclass(frozen=True, slots=True)
class IndexSpec:
    """A dictionary index: the trie of its dictionary, the approach its
    postings address and, read from a file (:func:`stored_index`), the
    file's coverage mark.  Plain data, so it travels to ``workers``
    processes like the OCR engine does."""

    trie: DictionaryTrie
    approach: str  # "staccato" | "kmap"
    covered_through: int | None = None


def posting_rows(
    data_key: int, postings: dict[str, set[Posting]]
) -> list[tuple[int, str, int, int, int, int]]:
    """One line's ``InvertedIndex`` rows, ``(DataKey, Term, U, V, Rank,
    Offset)`` sorted by ``(Term, U, V, Rank, Offset)`` -- so the table's
    content does not depend on set iteration order."""
    return sorted(
        (data_key, term, p.u, p.v, p.rank, p.offset)
        for term, term_postings in postings.items()
        for p in term_postings
    )


def insert_postings(conn: sqlite3.Connection, rows: list[tuple]) -> None:
    """Insert :func:`posting_rows` output into ``InvertedIndex``."""
    conn.executemany(_INSERTS["InvertedIndex"], rows)


def _line_representations(
    line: tuple[int, int, int, str],
    ocr: SimulatedOcrEngine,
    k: int,
    m: int,
    approaches: tuple[str, ...],
    index: IndexSpec | None = None,
) -> dict[str, list[tuple]]:
    """Build one line's representations, ``{table: rows}`` (runs in
    worker processes too)."""
    line_id, doc_id, line_no, text = line
    sfa = ocr.recognize_line(text, line_seed=(doc_id, line_no))
    rows: dict[str, list[tuple]] = {"CompiledKernel": []}
    kernels = {}
    if "kmap" in approaches or "map" in approaches:
        kernels["kmap"] = compile_kernel(kmap_sfa(build_kmap(sfa, k).strings))
    if "fullsfa" in approaches:
        kernels["fullsfa"] = compile_kernel(sfa)
    if "staccato" in approaches:
        chunked = staccato_approximate(sfa, m=m, k=k)
        rows["StaccatoGraph"] = [(line_id, serialize.to_bytes(chunked))]
        kernels["staccato"] = compile_kernel(chunked)
    for approach, kernel in kernels.items():
        rows["CompiledKernel"].append(kernel_row(line_id, approach, kernel))
    postings = {}
    if index is not None and index.approach in kernels:
        # From the kernel in hand: never from a decoded blob.
        postings = build_kernel_postings(kernels[index.approach], index.trie)
    rows["InvertedIndex"] = posting_rows(line_id, postings)
    return rows


def kernel_row(
    line_id: int, approach: str, kernel: CompiledKernel
) -> tuple[int, str, int, str, bytes]:
    """One ``CompiledKernel`` insert: the SFA lowered at construction."""
    blob = serialize.kernel_to_bytes(kernel)
    return (line_id, approach, KERNEL_VERSION, blob_fingerprint(blob), blob)


@dataclass(frozen=True, slots=True)
class BuiltBatch:
    """One batch's rows, built but not stored (:func:`build_dataset`).

    DataKeys are batch-local (the dataset's own line ids, from 0); the
    write shifts them past what its connection already holds, so one
    build can be written to every replica of a shard.  ``index_key`` is
    the (dictionary digest, approach) the ``InvertedIndex`` rows were
    computed under -- what a file must record for them to be its own
    (``None``: built without a dictionary, no such rows).
    """

    documents: list[tuple]
    rows: dict[str, list[tuple]]  # table (a key of LINE_TABLES) -> its rows
    index_key: tuple[str, str] | None = None


def build_dataset(
    dataset: Dataset,
    ocr: SimulatedOcrEngine,
    k: int = 25,
    m: int = 40,
    approaches: tuple[str, ...] = DEFAULT_APPROACHES,
    workers: int | None = None,
    index: IndexSpec | None = None,
) -> BuiltBatch:
    """OCR every line of ``dataset`` and construct the chosen
    representations -- all the expensive work of an ingest, none of it
    touching a database (arguments as for :func:`ingest_dataset`).  With
    ``index``, the target file's dictionary, each line's postings are
    part of the build."""
    unknown = set(approaches) - set(APPROACHES)
    if unknown:
        raise ValueError(f"unknown approaches: {sorted(unknown)}")
    lines = dataset.lines()
    rows: dict[str, list[tuple]] = {table: [] for table in _INSERTS}
    rows["MasterData"] = [
        (line_id, f"{dataset.name}-{doc_id}", doc_id, line_no)
        for line_id, doc_id, line_no, _ in lines
    ]
    rows["GroundTruth"] = [(line_id, text) for line_id, _, _, text in lines]
    build = partial(
        _line_representations,
        ocr=ocr,
        k=k,
        m=m,
        approaches=approaches,
        index=index,
    )
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            built = list(pool.map(build, lines, chunksize=8))
    else:
        built = [build(line) for line in lines]
    for line_rows in built:
        for table, table_rows in line_rows.items():
            rows[table].extend(table_rows)
    return BuiltBatch(
        documents=[
            (doc.doc_id, doc.name, doc.year, doc.loss)
            for doc in dataset.documents
        ],
        rows=rows,
        index_key=(
            (index.trie.digest, index.approach) if index is not None else None
        ),
    )


def write_batch(conn: sqlite3.Connection, built: BuiltBatch) -> int:
    """Store a built batch in one transaction; returns its line count.

    Batch ingestion appends: the batch's line ids start at 0, so they are
    shifted past the highest DataKey this connection already stores.  A
    fresh database gets offset 0, preserving the line_id == DataKey
    identity.  A document the file already holds gets its new lines
    numbered after its last stored ``SFANum``, so ``(DocId, SFANum)``
    names one line; their OCR channel stays seeded by the batch's own
    line numbers (the build has run before the write).

    The batch's postings are stored, and the file's coverage mark moved
    past the new lines, only if they were computed under the dictionary
    and approach this file records and every line already here is
    covered; otherwise they are dropped and the mark kept below the new
    lines.
    """
    count = len(built.rows["MasterData"])
    with conn:
        (offset,) = conn.execute(
            "SELECT COALESCE(MAX(DataKey) + 1, 0) FROM MasterData"
        ).fetchone()
        indexed = cover_appended(
            conn, offset, offset + count - 1, built.index_key
        )
        conn.executemany(
            "INSERT OR REPLACE INTO Documents (DocId, DocName, Year, Loss) "
            "VALUES (?, ?, ?, ?)",
            built.documents,
        )
        for table, rows in built.rows.items():
            if table == "InvertedIndex" and not indexed:
                continue
            if table == "MasterData" and offset:
                rows = _after_held_lines(conn, rows)
            if offset:
                rows = [(row[0] + offset, *row[1:]) for row in rows]
            if rows:
                conn.executemany(_INSERTS[table], rows)
    return count


def _after_held_lines(
    conn: sqlite3.Connection, rows: list[tuple]
) -> list[tuple]:
    """``MasterData`` rows with each held document's line numbers
    shifted past the last one the file stores for it."""
    doc_ids = sorted({row[2] for row in rows})
    held = dict(
        conn.execute(
            "SELECT DocId, MAX(SFANum) + 1 FROM MasterData "
            "WHERE DocId IN (SELECT value FROM json_each(?)) GROUP BY DocId",
            (json.dumps(doc_ids),),
        )
    )
    if not held:
        return rows
    return [
        (key, name, doc_id, line_no + held.get(doc_id, 0))
        for key, name, doc_id, line_no in rows
    ]


def index_meta(
    conn: sqlite3.Connection, schema: str = "main"
) -> tuple[tuple[str | None, str | None], int | None]:
    """``((dictionary digest, approach), covered_through)`` as the file
    records them; ``None`` each for a file without an index."""
    meta = dict(conn.execute(f"SELECT Key, Value FROM {schema}.IndexMeta"))
    covered = meta.get("covered_through")
    return (
        (meta.get("dictionary"), meta.get("approach")),
        int(covered) if covered is not None else None,
    )


#: Tries of recorded dictionaries, process-wide, by digest (oldest
#: dropped first).  A digest names its dictionary, so a cached trie is
#: never stale; none is mutated once cached.
_TRIE_CACHE_SIZE = 8
_tries: dict[str, DictionaryTrie] = {}
_tries_lock = threading.Lock()


def stored_index(conn: sqlite3.Connection) -> IndexSpec | None:
    """The file's dictionary index, from one read of ``IndexMeta``;
    ``None`` for a file without one.

    The trie of a recorded dictionary comes from the cache, built from
    ``IndexTerms`` on a miss (``None`` if a rebuild committed between
    the two reads).
    """
    (digest, approach), covered = index_meta(conn)
    if digest is None:
        return None
    with _tries_lock:
        trie = _tries.get(digest)
    if trie is None:
        trie = DictionaryTrie(
            term for (term,) in conn.execute("SELECT Term FROM IndexTerms")
        )
        if trie.digest != digest:
            return None
        with _tries_lock:
            _tries[digest] = trie
            if len(_tries) > _TRIE_CACHE_SIZE:
                del _tries[next(iter(_tries))]
    return IndexSpec(trie, approach, covered)


def cover_appended(
    conn: sqlite3.Connection,
    offset: int,
    last: int,
    key: tuple[str | None, str | None] | None,
) -> bool:
    """The coverage rule, for a writer appending lines at DataKeys
    ``offset..last`` (inside its transaction): may it store their
    postings, computed under index ``key``?

    Yes -- and the mark moves to ``last`` -- iff ``key`` is the
    (dictionary digest, approach) this file records and no line already
    here is uncovered; otherwise the mark is kept below ``offset``, so
    the new lines are uncovered whatever key a deleted line left free.
    A file without an index is left as it is.
    """
    file_key, covered = index_meta(conn)
    if covered is None:
        return False
    indexed = key is not None and key == file_key and covered >= offset - 1
    set_covered_through(conn, last if indexed else min(covered, offset - 1))
    return indexed


def set_covered_through(conn: sqlite3.Connection, data_key: int) -> None:
    """Record that every line with ``DataKey <= data_key`` is covered."""
    conn.execute(
        "INSERT OR REPLACE INTO IndexMeta (Key, Value) "
        "VALUES ('covered_through', ?)",
        (str(data_key),),
    )


def ingest_dataset(
    conn: sqlite3.Connection,
    dataset: Dataset,
    ocr: SimulatedOcrEngine,
    k: int = 25,
    m: int = 40,
    approaches: tuple[str, ...] = DEFAULT_APPROACHES,
    workers: int | None = None,
) -> int:
    """OCR every line of ``dataset`` and store the chosen representations.

    Returns the number of lines ingested.  Each call is one batch: every
    insert happens inside a single transaction (atomic per batch), and
    DataKeys are offset past any existing rows so repeated batches append
    rather than collide.  The ``map`` approach is served
    by the rank-0 string of the ``kmap`` kernel, so requesting ``"map"``
    stores that kernel.  ``workers`` fans the per-line
    representation building out over a process pool -- construction is
    embarrassingly parallel across SFAs, exactly how the paper ran it on
    Condor (Section 5.2).
    """
    return write_batch(
        conn, build_dataset(dataset, ocr, k, m, approaches, workers)
    )


def all_data_keys(conn: sqlite3.Connection) -> list[int]:
    """Every ingested line id, in order."""
    rows = conn.execute("SELECT DataKey FROM MasterData ORDER BY DataKey")
    return [key for (key,) in rows]


def line_metadata(conn: sqlite3.Connection, data_key: int) -> tuple[int, int]:
    """``(DocId, SFANum)`` for one line."""
    row = conn.execute(
        "SELECT DocId, SFANum FROM MasterData WHERE DataKey = ?", (data_key,)
    ).fetchone()
    if row is None:
        raise KeyError(f"no line with DataKey {data_key}")
    return row


def load_fullsfa(conn: sqlite3.Connection, data_key: int) -> Sfa:
    """The FullSFA of one line, rebuilt from its stored kernel (its only
    copy: a blob the codec rejects is an ``SfaError``)."""
    for _, blob in load_kernel_blobs(conn, "fullsfa", [data_key]).values():
        return to_sfa(decode_kernel("fullsfa", data_key, blob))
    raise KeyError(f"no FullSFA for DataKey {data_key}")


def load_staccato(conn: sqlite3.Connection, data_key: int) -> Sfa:
    """Retrieve and deserialize the Staccato chunk graph of one line."""
    row = conn.execute(
        "SELECT GraphBlob FROM StaccatoGraph WHERE DataKey = ?", (data_key,)
    ).fetchone()
    if row is None:
        raise KeyError(f"no Staccato graph for DataKey {data_key}")
    return serialize.from_bytes(row[0])


#: Keys per ``IN (...)`` list of a keyed kernel fetch, under SQLite's
#: oldest default bound on host parameters (999).
_KEYS_PER_FETCH = 900


def load_kernel_blobs(
    conn: sqlite3.Connection,
    approach: str,
    keys: Sequence[int] | None = None,
) -> dict[int, tuple[str, bytes]]:
    """Stored compiled kernels of one approach: all of them in one query,
    or only those of ``keys`` (an index plan's candidates).

    Returns ``{DataKey: (fingerprint, blob)}``; a line without a row of
    the approach is absent, and a foreign blob is an ``SfaError`` once
    decoded (:func:`decode_kernel`), not a silently missing line.
    ``map`` gets the ``kmap`` rows (see :data:`MAP_FINGERPRINT_PREFIX`).
    """
    select = (
        "SELECT DataKey, Fingerprint, KernelBlob FROM CompiledKernel "
        "WHERE Approach = ?"
    )
    tag = MAP_FINGERPRINT_PREFIX if approach == "map" else ""
    stored_as = "kmap" if approach == "map" else approach
    if keys is None:
        rows = conn.execute(select, (stored_as,))
        return {key: (tag + fingerprint, blob) for key, fingerprint, blob in rows}
    stored: dict[int, tuple[str, bytes]] = {}
    for at in range(0, len(keys), _KEYS_PER_FETCH):
        part = keys[at : at + _KEYS_PER_FETCH]
        rows = conn.execute(
            f"{select} AND DataKey IN ({','.join('?' * len(part))})",
            (stored_as, *part),
        )
        for key, fingerprint, blob in rows:
            stored[key] = (tag + fingerprint, blob)
    return stored


def decode_kernel(approach: str, data_key: int, blob: bytes) -> CompiledKernel:
    """The kernel of line ``data_key``'s :func:`load_kernel_blobs` row of
    ``approach``; for ``map``, the rank-0 string of the ``kmap`` kernel,
    compiled as a one-chunk kernel of its own.  A blob the codec rejects
    is an ``SfaError`` naming the line: the row is its only copy."""
    try:
        kernel = serialize.kernel_from_bytes(blob)
    except SfaError as exc:
        raise SfaError(
            f"unreadable {approach} kernel of DataKey {data_key}: {exc}"
        ) from exc
    if approach == "map":
        kernel = compile_kernel(kmap_sfa(_kmap_strings(kernel, 1)))
    return kernel


def iter_kernel_blobs(conn: sqlite3.Connection, approach: str):
    """``(DataKey, blob)`` for every line with a kernel of ``approach``,
    in DataKey order, one row at a time off a single cursor."""
    return conn.execute(
        "SELECT m.DataKey, c.KernelBlob FROM MasterData m "
        "JOIN CompiledKernel c ON c.DataKey = m.DataKey "
        "WHERE c.Approach = ? ORDER BY m.DataKey",
        (approach,),
    )


def kernel_listing(
    conn: sqlite3.Connection, approach: str
) -> list[tuple[int, str]]:
    """``(DataKey, Fingerprint)`` of every row :func:`load_kernel_blobs`
    would return for ``approach``, in DataKey order, without touching a
    blob: what a filescan reads first, and what a scan image is
    validated against."""
    rows = conn.execute(
        "SELECT DataKey, Fingerprint FROM CompiledKernel "
        "WHERE Approach = ? ORDER BY DataKey",
        ("kmap" if approach == "map" else approach,),
    ).fetchall()
    if approach == "map":
        rows = [(key, MAP_FINGERPRINT_PREFIX + fp) for key, fp in rows]
    return rows


def _kmap_strings(
    kernel: CompiledKernel, k: int | None = None
) -> list[tuple[str, float]]:
    """The ranked strings of a ``kmap`` kernel (optionally the first k):
    its steps, in order."""
    symbols = kernel.symbols
    return [
        (symbols[sid], prob)
        for sid, prob in zip(kernel.step_syms[:k], kernel.step_probs)
    ]


def load_kmap(
    conn: sqlite3.Connection, data_key: int, k: int | None = None
) -> list[tuple[str, float]]:
    """The ranked k-MAP strings of one line (optionally truncated to k):
    those of its ``kmap`` kernel, the line's only copy of them -- a blob
    the codec rejects is an ``SfaError``."""
    for _, blob in load_kernel_blobs(conn, "kmap", [data_key]).values():
        return _kmap_strings(decode_kernel("kmap", data_key, blob), k)
    raise KeyError(f"no k-MAP strings for DataKey {data_key}")


def load_ground_truth(conn: sqlite3.Connection, data_key: int) -> str:
    """The clean ground-truth text of one line."""
    row = conn.execute(
        "SELECT Data FROM GroundTruth WHERE DataKey = ?", (data_key,)
    ).fetchone()
    if row is None:
        raise KeyError(f"no ground truth for DataKey {data_key}")
    return row[0]


def approach_stored(conn: sqlite3.Connection, approach: str) -> bool:
    """Whether any line of the file has a kernel row of ``approach``
    (``map`` reads the ``kmap`` record).  False for an empty file."""
    return bool(
        conn.execute(
            "SELECT 1 FROM CompiledKernel WHERE Approach = ? LIMIT 1",
            ("kmap" if approach == "map" else approach,),
        ).fetchone()
    )


def approach_storage_bytes(conn: sqlite3.Connection, approach: str) -> int:
    """Bytes the file holds for one approach (paper Table 2, Figure 20):
    its kernel blobs, plus the chunk graphs of ``staccato`` (``map``
    reads the ``kmap`` record)."""
    if approach not in APPROACHES:
        raise ValueError(f"unknown approach {approach!r}")
    if approach == "map":
        approach = "kmap"
    sums = [
        "SELECT SUM(LENGTH(KernelBlob)) FROM CompiledKernel "
        f"WHERE Approach = '{approach}'"
    ]
    if approach == "staccato":
        sums.append("SELECT SUM(LENGTH(GraphBlob)) FROM StaccatoGraph")
    return sum(conn.execute(query).fetchone()[0] or 0 for query in sums)
