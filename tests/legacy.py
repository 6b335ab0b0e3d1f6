"""Database files as older builds wrote them.

Builds before the ``KRN2``-only schema also stored a line as a
``FullSFAData`` row (the FullSFA's ``SFA1`` blob) and one
``StaccatoData`` row per chunk string; builds before the one-chunk
``kmap`` kernel stored its k-MAP strings as ``kMAPData`` rows of
log-probabilities instead.  This build creates none of these tables; a
file that has them records no file format (``PRAGMA user_version`` 0)
and is upgraded when it is opened (``repro.db.upgrade``).  Their DDL
lives here and nowhere else.

Files of formats 0 and 1 may also hold two states no file of format 2
does, made here by the statements :data:`UNRECORDED_INDEX`,
:data:`NO_APPROACH`, :func:`orphan_rows` and :func:`stranded_kernels`:
an index whose dictionary, coverage mark or approach ``IndexMeta`` does
not record, and ``CompiledKernel`` rows of lines that are gone.  Files
up to format 2 may hold a document whose line numbers repeat
(:func:`repeated_lines`).
"""

import math
import sqlite3

from repro.db import storage
from repro.db.schema import LINE_TABLES
from repro.sfa import serialize

#: An index as builds before the stored dictionary and coverage mark
#: left it: its postings and its ``approach`` row.
UNRECORDED_INDEX = (
    "DELETE FROM IndexMeta WHERE Key IN ('dictionary', 'covered_through')",
    "DELETE FROM IndexTerms",
)

#: With :data:`UNRECORDED_INDEX`, an index as the first indexing
#: builds left it: postings only.
NO_APPROACH = "DELETE FROM IndexMeta WHERE Key = 'approach'"


def orphan_rows(offset: int) -> str:
    """Kernel rows of lines that are not in the file: every row of
    DataKeys 0 and 1, copied to those keys plus ``offset``."""
    columns = ", ".join(LINE_TABLES["CompiledKernel"][1:])
    return (
        f"INSERT INTO CompiledKernel SELECT DataKey + {offset}, {columns} "
        "FROM CompiledKernel WHERE DataKey < 2"
    )


def stranded_kernels(first_key: int) -> list[str]:
    """What a move by builds before kernels moved with their lines left
    in its source: the lines from DataKey ``first_key`` on deleted from
    every per-line table but ``CompiledKernel``."""
    return [
        f"DELETE FROM {table} WHERE DataKey >= {first_key}"
        for table in LINE_TABLES
        if table != "CompiledKernel"
    ]


def repeated_lines(doc_id: int, batch: int) -> str:
    """Document ``doc_id`` as builds up to format 2 stored it when it
    was ingested in batches of ``batch`` lines: each batch numbered its
    lines from 0 again."""
    return (
        f"UPDATE MasterData SET SFANum = SFANum % {batch} "
        f"WHERE DocId = {doc_id}"
    )


def age(conn: sqlite3.Connection, *damage: str, file_format: int = 1) -> None:
    """Apply each ``damage`` statement to an open file, in one
    transaction, and record ``file_format`` as its format."""
    with conn:
        for statement in damage:
            conn.execute(statement)
    conn.execute(f"PRAGMA user_version = {file_format}")

#: The tables, as ``sqlite_master`` names them.
LEGACY_TABLES = ("FullSFAData", "StaccatoData", "kMAPData")

LEGACY_DDL = """
CREATE TABLE IF NOT EXISTS FullSFAData (
    DataKey INTEGER PRIMARY KEY REFERENCES MasterData(DataKey),
    SFABlob BLOB NOT NULL
);

CREATE TABLE IF NOT EXISTS StaccatoData (
    DataKey  INTEGER NOT NULL REFERENCES MasterData(DataKey),
    ChunkNum INTEGER NOT NULL,
    Rank     INTEGER NOT NULL,
    Data     TEXT NOT NULL,
    LogProb  REAL NOT NULL,
    PRIMARY KEY (DataKey, ChunkNum, Rank)
);

CREATE TABLE IF NOT EXISTS kMAPData (
    DataKey INTEGER NOT NULL REFERENCES MasterData(DataKey),
    Rank    INTEGER NOT NULL,
    Data    TEXT NOT NULL,
    LogProb REAL NOT NULL,
    PRIMARY KEY (DataKey, Rank)
);
"""


def _log(prob: float) -> float:
    return math.log(prob) if prob > 0.0 else -math.inf


def add_legacy_tables(conn: sqlite3.Connection) -> None:
    """Give a file of this build the three tables, filled as older
    builds' ingest filled them: every line that has a FullSFA gets its
    ``SFA1`` bytes, every chunk graph its ``(chunk, rank)`` rows, and
    every line's k-MAP strings become ``(rank, string, log p)`` rows in
    place of its ``kmap`` kernel, which no file of that age has."""
    with conn:
        conn.executescript(LEGACY_DDL)
        for key in storage.all_data_keys(conn):
            try:
                strings = storage.load_kmap(conn, key)
            except KeyError:
                pass
            else:
                conn.executemany(
                    "INSERT INTO kMAPData VALUES (?, ?, ?, ?)",
                    [
                        (key, rank, string, _log(prob))
                        for rank, (string, prob) in enumerate(strings)
                    ],
                )
            try:
                blob = serialize.to_bytes(storage.load_fullsfa(conn, key))
            except KeyError:
                pass
            else:
                conn.execute("INSERT INTO FullSFAData VALUES (?, ?)", (key, blob))
            try:
                graph = storage.load_staccato(conn, key)
            except KeyError:
                continue
            conn.executemany(
                "INSERT INTO StaccatoData VALUES (?, ?, ?, ?, ?)",
                [
                    (key, chunk, rank, e.string, _log(e.prob))
                    for chunk, (u, v) in enumerate(sorted(graph.edges))
                    for rank, e in enumerate(graph.emissions(u, v))
                ],
            )
        conn.execute("DELETE FROM CompiledKernel WHERE Approach = 'kmap'")


def legacy_copy(db, path: str, *damage: str, file_format: int = 0) -> str:
    """A copy of ``db``'s file at ``path`` (with the legacy tables
    added, at format 0), passed through :func:`age`: each ``damage``
    statement applied (typically to its ``CompiledKernel`` rows, which
    files of that age lack) and ``file_format`` recorded -- a backup
    copies the current file's."""
    clone = sqlite3.connect(path)
    try:
        db.conn.backup(clone)
        if file_format == 0:
            add_legacy_tables(clone)
        age(clone, *damage, file_format=file_format)
    finally:
        clone.close()
    return path
