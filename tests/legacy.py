"""Database files as older builds wrote them.

Builds before the ``KRN2``-only schema also stored a line as a
``FullSFAData`` row (the FullSFA's ``SFA1`` blob) and one
``StaccatoData`` row per chunk string; builds before the one-chunk
``kmap`` kernel stored its k-MAP strings as ``kMAPData`` rows of
log-probabilities instead.  This build creates none of these tables; a
file that has them records no file format (``PRAGMA user_version`` 0)
and is upgraded when it is opened (``repro.db.upgrade``).  Their DDL
lives here and nowhere else.
"""

import math
import sqlite3

from repro.db import storage
from repro.sfa import serialize

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


def legacy_copy(db, path: str, *damage: str) -> str:
    """A copy of ``db``'s file at ``path`` with the legacy tables added,
    then each ``damage`` statement applied (typically to its
    ``CompiledKernel`` rows, which files of that age lack), and the
    format of a build before formats were recorded: a backup copies the
    current file's."""
    clone = sqlite3.connect(path)
    try:
        db.conn.backup(clone)
        add_legacy_tables(clone)
        with clone:
            for statement in damage:
                clone.execute(statement)
        clone.execute("PRAGMA user_version = 0")
    finally:
        clone.close()
    return path
