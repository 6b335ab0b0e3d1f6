"""Relational schema for probabilistic OCR storage (paper Appendix G).

Mirrors the paper's Table 5: one master table per dataset plus one data
table per approach, and the inverted-index table of Section 5.3
(implemented there as "a relational table with a B+-tree on top of it" --
here a SQLite table with a B-tree index on the term column).  A
``Documents`` table carries the enterprise metadata of the running
insurance example (``Claims(DocID, Year, Loss, DocData)``).

Probabilities are stored as log-probabilities in FLOAT8 columns, exactly
as the paper's schema does.
"""

from __future__ import annotations

import sqlite3

__all__ = ["create_schema", "TABLES"]

TABLES = [
    "Documents",
    "MasterData",
    "kMAPData",
    "FullSFAData",
    "StaccatoData",
    "StaccatoGraph",
    "CompiledKernel",
    "GroundTruth",
    "InvertedIndex",
    "IndexTerms",
    "IndexMeta",
]

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

CREATE TABLE IF NOT EXISTS kMAPData (
    DataKey INTEGER NOT NULL REFERENCES MasterData(DataKey),
    Rank    INTEGER NOT NULL,
    Data    TEXT NOT NULL,
    LogProb REAL NOT NULL,
    PRIMARY KEY (DataKey, Rank)
);

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

CREATE TABLE IF NOT EXISTS StaccatoGraph (
    DataKey   INTEGER PRIMARY KEY REFERENCES MasterData(DataKey),
    GraphBlob BLOB NOT NULL
);

-- Compiled evaluation kernels (repro.sfa.kernel), one per line per
-- automaton approach.  Version tags the blob layout; readers ignore
-- rows from other versions and recompile from the SFA blob instead,
-- so old database files keep working after a format bump.
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
    """Create every table (idempotent)."""
    with conn:
        conn.executescript(_DDL)
