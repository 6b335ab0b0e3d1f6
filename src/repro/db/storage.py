"""Ingest and load: moving OCR representations in and out of the RDBMS.

One line of one document becomes:

* a row in ``MasterData`` (its DataKey is the dataset-global line id);
* its ground-truth text in ``GroundTruth`` (the paper built manual ground
  truth; our simulated channel gives it exactly);
* per approach, its one stored record (paper Table 5): the k-MAP
  strings; the FullSFA's compiled kernel; the Staccato chunk graph's
  compiled kernel, beside the graph's ``SFA1`` blob.

All inserts are batched with ``executemany`` inside transactions.

When the target file has a dictionary index, a batch built under that
dictionary (:class:`IndexSpec`) carries its lines' postings, computed
from the kernels it has just compiled; :func:`write_batch` stores them
and extends the file's coverage mark in the transaction that stores the
lines, or -- built under any other dictionary -- drops them and leaves
the lines uncovered (the index plans scan uncovered lines).
"""

from __future__ import annotations

import math
import sqlite3
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from ..automata.trie import DictionaryTrie
from ..core.approximate import staccato_approximate
from ..core.kmap import build_kmap
from ..indexing.inverted import build_kernel_postings, build_kmap_postings
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
from .schema import LEGACY_LINE_TABLES, LINE_TABLES

__all__ = [
    "APPROACHES",
    "IndexSpec",
    "BuiltBatch",
    "build_dataset",
    "write_batch",
    "ingest_dataset",
    "load_fullsfa",
    "legacy_tables",
    "kernel_row",
    "load_kmap",
    "load_staccato",
    "load_kernel_blobs",
    "iter_kernel_blobs",
    "kernel_listing",
    "drop_orphan_kernels",
    "posting_rows",
    "insert_postings",
    "index_meta",
    "cover_appended",
    "set_covered_through",
    "load_ground_truth",
    "all_data_keys",
    "line_metadata",
    "approach_storage_bytes",
]

APPROACHES = ("map", "kmap", "fullsfa", "staccato")

#: Insert statement per per-line table, in write order.
_INSERTS = {
    table: f"INSERT INTO {table} ({', '.join(columns)}) "
    f"VALUES ({', '.join('?' * len(columns))})"
    for table, columns in LINE_TABLES.items()
}


@dataclass(frozen=True, slots=True)
class IndexSpec:
    """The dictionary index new lines are indexed under: the trie of a
    file's stored dictionary and the approach its postings address.
    Plain data, so it travels to ``workers`` processes like the OCR
    engine does."""

    trie: DictionaryTrie
    approach: str  # "staccato" | "kmap"

    @property
    def key(self) -> tuple[str, str]:
        """What a file must record for these postings to be its own."""
        return (self.trie.digest, self.approach)


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
    postings = {}
    if "kmap" in approaches or "map" in approaches:
        doc = build_kmap(sfa, k)
        rows["kMAPData"] = [
            (line_id, rank, string, math.log(prob) if prob > 0.0 else -math.inf)
            for rank, (string, prob) in enumerate(doc.strings)
        ]
        if index is not None and index.approach == "kmap":
            postings = build_kmap_postings(doc.strings, index.trie)
    if "fullsfa" in approaches:
        rows["CompiledKernel"].append(
            kernel_row(line_id, "fullsfa", compile_kernel(sfa))
        )
    if "staccato" in approaches:
        chunked = staccato_approximate(sfa, m=m, k=k)
        rows["StaccatoGraph"] = [(line_id, serialize.to_bytes(chunked))]
        kernel = compile_kernel(chunked)
        rows["CompiledKernel"].append(kernel_row(line_id, "staccato", kernel))
        if index is not None and index.approach == "staccato":
            # From the kernel in hand: never from a decoded blob.
            postings = build_kernel_postings(kernel, index.trie)
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
    the :attr:`IndexSpec.key` the ``InvertedIndex`` rows were computed
    under (``None``: built without a dictionary, no such rows).
    """

    documents: list[tuple]
    rows: dict[str, list[tuple]]  # table (a key of LINE_TABLES) -> its rows
    index_key: tuple[str, str] | None = None


def build_dataset(
    dataset: Dataset,
    ocr: SimulatedOcrEngine,
    k: int = 25,
    m: int = 40,
    approaches: tuple[str, ...] = ("kmap", "fullsfa", "staccato"),
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
        index_key=index.key if index is not None else None,
    )


def write_batch(
    conn: sqlite3.Connection, built: BuiltBatch, sweep_orphans: bool = False
) -> int:
    """Store a built batch in one transaction; returns its line count.

    Batch ingestion appends: the batch's line ids start at 0, so they are
    shifted past the highest DataKey this connection already stores.  A
    fresh database gets offset 0, preserving the line_id == DataKey
    identity.

    The batch's postings are stored, and the file's coverage mark moved
    past the new lines, only if they were computed under the dictionary
    and approach this file records and every line already here is
    covered; otherwise they are dropped and the mark kept below the new
    lines.  ``sweep_orphans`` first runs :func:`drop_orphan_kernels` (a
    handle's first write).
    """
    count = len(built.rows["MasterData"])
    with conn:
        if sweep_orphans:
            drop_orphan_kernels(conn)
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
            if offset:
                rows = [(row[0] + offset, *row[1:]) for row in rows]
            if rows:
                conn.executemany(_INSERTS[table], rows)
    return count


def index_meta(
    conn: sqlite3.Connection, schema: str = "main"
) -> tuple[tuple[str | None, str | None], int | None]:
    """``((dictionary digest, approach), covered_through)`` as the file
    records them; ``None`` for what it does not record (no index, or an
    index built before the dictionary and the mark were stored)."""
    meta = dict(conn.execute(f"SELECT Key, Value FROM {schema}.IndexMeta"))
    covered = meta.get("covered_through")
    return (
        (meta.get("dictionary"), meta.get("approach")),
        int(covered) if covered is not None else None,
    )


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
    A file without a mark (no index, or one from before the mark) is
    left as it is.
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


def drop_orphan_kernels(conn: sqlite3.Connection) -> int:
    """Delete ``CompiledKernel`` rows of lines that no longer exist.

    Rebalance once moved lines without their kernels: the source kept
    the rows, and the next line to take a freed DataKey would collide
    with them (or worse, be evaluated with them).  Returns the number of
    rows dropped; a file written only by this build has none.
    """
    return conn.execute(
        "DELETE FROM CompiledKernel WHERE DataKey NOT IN "
        "(SELECT DataKey FROM MasterData)"
    ).rowcount


def ingest_dataset(
    conn: sqlite3.Connection,
    dataset: Dataset,
    ocr: SimulatedOcrEngine,
    k: int = 25,
    m: int = 40,
    approaches: tuple[str, ...] = ("kmap", "fullsfa", "staccato"),
    workers: int | None = None,
) -> int:
    """OCR every line of ``dataset`` and store the chosen representations.

    Returns the number of lines ingested.  Each call is one batch: every
    insert happens inside a single transaction (atomic per batch), and
    DataKeys are offset past any existing rows so repeated batches append
    rather than collide.  The ``map`` approach is served
    by the rank-0 rows of ``kMAPData``, so requesting ``"map"`` ensures at
    least k >= 1 strings are stored.  ``workers`` fans the per-line
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


def load_fullsfa(
    conn: sqlite3.Connection, data_key: int, legacy: Sequence[str] | None = None
) -> Sfa:
    """The FullSFA of one line, rebuilt from its stored kernel; without
    a readable current-version row, read from the ``SFA1`` copy an older
    file has in ``FullSFAData`` (``legacy``: the caller's probe of
    :func:`legacy_tables`).  A row the codec rejects with no such copy
    behind it is an ``SfaError``, not a missing line."""
    rejected = None
    for _, blob in load_kernel_blobs(conn, "fullsfa", [data_key]).values():
        try:
            return to_sfa(serialize.kernel_from_bytes(blob))
        except SfaError as exc:
            rejected = exc
    if "FullSFAData" in (legacy_tables(conn) if legacy is None else legacy):
        row = conn.execute(
            "SELECT SFABlob FROM FullSFAData WHERE DataKey = ?", (data_key,)
        ).fetchone()
        if row is not None:
            return serialize.from_bytes(row[0])
    if rejected is not None:
        raise SfaError(
            f"unreadable fullsfa kernel of DataKey {data_key}, the only "
            f"copy of that line's FullSFA: {rejected}"
        ) from rejected
    raise KeyError(f"no FullSFA for DataKey {data_key}")


def legacy_tables(
    conn: sqlite3.Connection, schema: str = "main"
) -> tuple[str, ...]:
    """Which of ``LEGACY_LINE_TABLES`` the file has: one ``sqlite_master``
    probe, which a :class:`~repro.db.engine.StaccatoDB` makes as it opens."""
    names = {
        name for (name,) in conn.execute(f"SELECT name FROM {schema}.sqlite_master")
    }
    return tuple(table for table in LEGACY_LINE_TABLES if table in names)


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

    Returns ``{DataKey: (fingerprint, blob)}`` for rows whose blob
    version matches this build's :data:`~repro.sfa.kernel.KERNEL_VERSION`.
    Rows from other versions -- or lines that predate the kernel table
    entirely -- are simply absent; the read path recompiles those lines
    from their ``SFA1`` blobs, so old database files stay queryable.
    """
    select = (
        "SELECT DataKey, Fingerprint, KernelBlob FROM CompiledKernel "
        "WHERE Approach = ? AND Version = ?"
    )
    if keys is None:
        rows = conn.execute(select, (approach, KERNEL_VERSION))
        return {key: (fingerprint, blob) for key, fingerprint, blob in rows}
    stored: dict[int, tuple[str, bytes]] = {}
    for at in range(0, len(keys), _KEYS_PER_FETCH):
        part = keys[at : at + _KEYS_PER_FETCH]
        rows = conn.execute(
            f"{select} AND DataKey IN ({','.join('?' * len(part))})",
            (approach, KERNEL_VERSION, *part),
        )
        for key, fingerprint, blob in rows:
            stored[key] = (fingerprint, blob)
    return stored


def iter_kernel_blobs(conn: sqlite3.Connection, approach: str):
    """``(DataKey, blob | None)`` for every line, in DataKey order, one
    row at a time off a single cursor: the blob of the line's current-
    version kernel, ``None`` for a line without one (old files)."""
    return conn.execute(
        "SELECT m.DataKey, c.KernelBlob FROM MasterData m "
        "LEFT JOIN CompiledKernel c ON c.DataKey = m.DataKey "
        "AND c.Approach = ? AND c.Version = ? ORDER BY m.DataKey",
        (approach, KERNEL_VERSION),
    )


def kernel_listing(
    conn: sqlite3.Connection, approach: str
) -> list[tuple[int, str]]:
    """``(DataKey, Fingerprint)`` of every row :func:`load_kernel_blobs`
    would return for ``approach``, in DataKey order, without touching a
    blob: what a filescan reads first, and what a scan image is
    validated against."""
    return conn.execute(
        "SELECT DataKey, Fingerprint FROM CompiledKernel "
        "WHERE Approach = ? AND Version = ? ORDER BY DataKey",
        (approach, KERNEL_VERSION),
    ).fetchall()


def load_kmap(
    conn: sqlite3.Connection, data_key: int, k: int | None = None
) -> list[tuple[str, float]]:
    """The ranked k-MAP strings of one line (optionally truncated to k)."""
    rows = conn.execute(
        "SELECT Data, LogProb FROM kMAPData WHERE DataKey = ? ORDER BY Rank",
        (data_key,),
    ).fetchall()
    if not rows:
        raise KeyError(f"no k-MAP strings for DataKey {data_key}")
    if k is not None:
        rows = rows[:k]
    return [(text, math.exp(log_prob)) for text, log_prob in rows]


def load_ground_truth(conn: sqlite3.Connection, data_key: int) -> str:
    """The clean ground-truth text of one line."""
    row = conn.execute(
        "SELECT Data FROM GroundTruth WHERE DataKey = ?", (data_key,)
    ).fetchone()
    if row is None:
        raise KeyError(f"no ground truth for DataKey {data_key}")
    return row[0]


def approach_storage_bytes(conn: sqlite3.Connection, approach: str) -> int:
    """Bytes the file holds for one approach (paper Table 2, Figure 20):
    the k-MAP rows; the ``fullsfa`` kernel blobs (and an older file's
    ``SFA1`` copies); the ``staccato`` kernel and chunk-graph blobs."""
    if approach not in APPROACHES:
        raise ValueError(f"unknown approach {approach!r}")
    if approach in ("map", "kmap"):
        sums = ["SELECT SUM(LENGTH(Data) + 16) FROM kMAPData"]
    else:
        sums = [
            "SELECT SUM(LENGTH(KernelBlob)) FROM CompiledKernel "
            f"WHERE Approach = '{approach}'"
        ]
        if approach == "staccato":
            sums.append("SELECT SUM(LENGTH(GraphBlob)) FROM StaccatoGraph")
        elif "FullSFAData" in legacy_tables(conn):
            sums.append("SELECT SUM(LENGTH(SFABlob)) FROM FullSFAData")
    return sum(conn.execute(query).fetchone()[0] or 0 for query in sums)
