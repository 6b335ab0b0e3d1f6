"""Database files as builds before the ``KRN2``-only schema wrote them.

Until PR 23 a line was also stored as a ``FullSFAData`` row (the
FullSFA's ``SFA1`` blob) and one ``StaccatoData`` row per chunk string.
This build creates neither table; it only has to keep opening files
that have them.  Their DDL lives here and nowhere else.
"""

import math
import sqlite3

from repro.db import storage
from repro.sfa import serialize

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
"""


def add_legacy_tables(conn: sqlite3.Connection) -> None:
    """Give a file of this build the two tables, filled as the parent
    commit's ingest filled them: every line that has a FullSFA gets its
    ``SFA1`` bytes, every chunk graph its ``(chunk, rank)`` rows."""
    with conn:
        conn.executescript(LEGACY_DDL)
        for key in storage.all_data_keys(conn):
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
                    (
                        key,
                        chunk,
                        rank,
                        e.string,
                        math.log(e.prob) if e.prob > 0.0 else -math.inf,
                    )
                    for chunk, (u, v) in enumerate(sorted(graph.edges))
                    for rank, e in enumerate(graph.emissions(u, v))
                ],
            )


def legacy_copy(db, path: str, *damage: str) -> str:
    """A copy of ``db``'s file at ``path`` with the legacy tables added,
    then each ``damage`` statement applied (typically to its
    ``CompiledKernel`` rows, which files of that age lack)."""
    clone = sqlite3.connect(path)
    try:
        db.conn.backup(clone)
        add_legacy_tables(clone)
        with clone:
            for statement in damage:
                clone.execute(statement)
    finally:
        clone.close()
    return path
