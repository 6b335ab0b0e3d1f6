"""Relational schema for probabilistic OCR storage (paper Appendix G).

Mirrors the paper's Table 5: one master table per dataset plus one
stored record of a line per approach -- a ``CompiledKernel`` row per
approach (the k-MAP strings are the one-chunk kernel of approach
``kmap``; MAP reads its rank-0 string), the chunk graph's ``SFA1`` blob
kept beside its kernel in ``StaccatoGraph`` as the oracles' reference
copy -- and the inverted-index table of Section 5.3 (implemented there
as "a relational table with a B+-tree on top of it" -- here a SQLite
table with a B-tree index on the term column).  A ``Documents`` table
carries the enterprise metadata of the running insurance example
(``Claims(DocID, Year, Loss, DocData)``).
"""

from __future__ import annotations

import sqlite3

__all__ = ["create_schema", "FILE_FORMAT", "TABLES", "LINE_TABLES"]

#: The file format, as ``PRAGMA user_version`` (0: older builds): a file
#: below it is upgraded as it is opened (``repro.db.upgrade``).
FILE_FORMAT = 3

#: The per-line (DataKey-keyed) tables and their columns, DataKey first,
#: in write order: what ``storage``'s insert statements and rebalance's
#: copy and delete lists are derived from.
LINE_TABLES = {
    "MasterData": ("DataKey", "DocName", "DocId", "SFANum"),
    "GroundTruth": ("DataKey", "Data"),
    "StaccatoGraph": ("DataKey", "GraphBlob"),
    "CompiledKernel": (
        "DataKey", "Approach", "Version", "Fingerprint", "KernelBlob",
    ),
    "InvertedIndex": ("DataKey", "Term", "U", "V", "Rank", "Offset"),
}

TABLES = ["Documents", *LINE_TABLES, "IndexTerms", "IndexMeta"]

_DDL = """
CREATE TABLE IF NOT EXISTS Documents (
    DocId   INTEGER PRIMARY KEY,
    DocName TEXT NOT NULL,
    Year    INTEGER NOT NULL,
    Loss    REAL NOT NULL
);

CREATE TABLE IF NOT EXISTS MasterData (
    DataKey INTEGER PRIMARY KEY,
    DocName TEXT NOT NULL,
    DocId   INTEGER NOT NULL REFERENCES Documents(DocId),
    SFANum  INTEGER NOT NULL
);

CREATE TABLE IF NOT EXISTS StaccatoGraph (
    DataKey   INTEGER PRIMARY KEY REFERENCES MasterData(DataKey),
    GraphBlob BLOB NOT NULL
);

-- Compiled evaluation kernels (repro.sfa.kernel), one per line per
-- stored approach (kmap, fullsfa, staccato).  Version is the blob
-- layout's, KERNEL_VERSION in every row of a current file: an older
-- file's rows are kept or recompiled when it is opened (repro.db.upgrade).
CREATE TABLE IF NOT EXISTS CompiledKernel (
    DataKey     INTEGER NOT NULL REFERENCES MasterData(DataKey),
    Approach    TEXT NOT NULL,
    Version     INTEGER NOT NULL,
    Fingerprint TEXT NOT NULL,
    KernelBlob  BLOB NOT NULL,
    PRIMARY KEY (DataKey, Approach)
);

CREATE TABLE IF NOT EXISTS GroundTruth (
    DataKey INTEGER PRIMARY KEY REFERENCES MasterData(DataKey),
    Data    TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS InvertedIndex (
    Term    TEXT NOT NULL,
    DataKey INTEGER NOT NULL REFERENCES MasterData(DataKey),
    U       INTEGER NOT NULL,
    V       INTEGER NOT NULL,
    Rank    INTEGER NOT NULL,
    Offset  INTEGER NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_inverted_term ON InvertedIndex(Term);

-- The dictionary the index was built over, every term of it: a term
-- without a posting is still a term (its probe answers "no line").
CREATE TABLE IF NOT EXISTS IndexTerms (
    Term TEXT PRIMARY KEY
) WITHOUT ROWID;

-- 'approach' (the representation the postings address), 'dictionary'
-- (digest of the sorted IndexTerms) and 'covered_through' (every line
-- with DataKey <= it has its postings in InvertedIndex under that
-- dictionary and approach; later lines are evaluated by a keyed scan).
CREATE TABLE IF NOT EXISTS IndexMeta (
    Key   TEXT PRIMARY KEY,
    Value TEXT NOT NULL
);
"""


def create_schema(conn: sqlite3.Connection) -> None:
    """Create every table (idempotent); a file that had none is stamped
    with :data:`FILE_FORMAT`."""
    with conn:
        fresh = conn.execute("SELECT 1 FROM sqlite_master").fetchone() is None
        stamp = f"PRAGMA user_version = {FILE_FORMAT};" if fresh else ""
        conn.executescript(_DDL + stamp)
