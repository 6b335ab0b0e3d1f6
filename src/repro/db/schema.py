"""Relational schema for probabilistic OCR storage (paper Appendix G).

Mirrors the paper's Table 5: one master table per dataset plus one
stored record of a line per approach (``kMAPData`` rows; a
``CompiledKernel`` row per automaton, the chunk graph's ``SFA1`` blob
kept beside its kernel in ``StaccatoGraph`` as the oracles' reference
copy), and the inverted-index table of Section 5.3 (implemented there as
"a relational table with a B+-tree on top of it" -- here a SQLite table
with a B-tree index on the term column).  A ``Documents`` table carries
the enterprise metadata of the running insurance example
(``Claims(DocID, Year, Loss, DocData)``).

Probabilities are stored as log-probabilities in FLOAT8 columns, exactly
as the paper's schema does.
"""

from __future__ import annotations

import sqlite3

__all__ = ["create_schema", "TABLES", "LINE_TABLES", "LEGACY_LINE_TABLES"]

#: The per-line (DataKey-keyed) tables and their columns, DataKey first,
#: in write order: what ``storage``'s insert statements and rebalance's
#: copy and delete lists are derived from.
LINE_TABLES = {
    "MasterData": ("DataKey", "DocName", "DocId", "SFANum"),
    "GroundTruth": ("DataKey", "Data"),
    "kMAPData": ("DataKey", "Rank", "Data", "LogProb"),
    "StaccatoGraph": ("DataKey", "GraphBlob"),
    "CompiledKernel": (
        "DataKey", "Approach", "Version", "Fingerprint", "KernelBlob",
    ),
    "InvertedIndex": ("DataKey", "Term", "U", "V", "Rank", "Offset"),
}

TABLES = ["Documents", *LINE_TABLES, "IndexTerms", "IndexMeta"]

#: Per-line tables only files of earlier builds have (a second, ``SFA1``
#: copy of the FullSFA; a row per chunk string): never created here, read
#: for a line without a ``fullsfa`` kernel, cleared with a deleted line.
LEGACY_LINE_TABLES = ("FullSFAData", "StaccatoData")

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

CREATE TABLE IF NOT EXISTS StaccatoGraph (
    DataKey   INTEGER PRIMARY KEY REFERENCES MasterData(DataKey),
    GraphBlob BLOB NOT NULL
);

-- Compiled evaluation kernels (repro.sfa.kernel), one per line per
-- automaton approach.  Version tags the blob layout; readers ignore
-- rows from other versions and recompile a line that still has an
-- SFA1 blob from it, so old database files keep working.
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
