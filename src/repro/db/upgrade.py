"""The upgrade, run as a handle opens a file an older build wrote.

Format 0 builds kept second copies of a line -- ``FullSFAData`` (the
FullSFA's ``SFA1`` blob), ``StaccatoData`` (a row per chunk string),
``kMAPData`` (the k-MAP strings with log-probabilities, in place of the
``kmap`` kernel) -- and may lack kernel rows or hold unreadable ones.
Builds up to format 1 may also have left an index without its
dictionary, approach or coverage mark recorded in ``IndexMeta``, and
``CompiledKernel`` rows of lines an older rebalance moved away.
Builds up to format 2 numbered a re-ingested document's new lines from
0 again, so one ``(DocId, SFANum)`` could name two lines.  No other
module names those tables or states: every reader assumes a file of
:data:`FILE_FORMAT`."""

from __future__ import annotations

import math
import sqlite3
from itertools import groupby

from ..automata.trie import DictionaryTrie
from ..core.kmap import kmap_sfa
from ..sfa import serialize
from ..sfa.kernel import KERNEL_VERSION, compile_kernel
from ..sfa.model import SfaError
from .schema import FILE_FORMAT, LINE_TABLES
from .storage import kernel_row

__all__ = ["NewerFileFormat", "upgrade"]


class NewerFileFormat(ValueError):
    """The file records a format above :data:`FILE_FORMAT`: a newer build
    wrote it, and this one cannot tell what it holds."""

    def __init__(self, found: int) -> None:
        self.found, self.supported = found, FILE_FORMAT
        super().__init__(
            f"file format {found} is newer than this build's {FILE_FORMAT}"
        )


def _file_format(conn: sqlite3.Connection) -> int:
    (found,) = conn.execute("PRAGMA user_version").fetchone()
    if found > FILE_FORMAT:
        raise NewerFileFormat(found)
    return found


def upgrade(conn: sqlite3.Connection) -> None:
    """Bring the file to :data:`FILE_FORMAT` in one ``BEGIN IMMEDIATE``
    transaction (every step or none; the format is read again inside
    it, so of several openers only the first works), running each step
    from the file's format on: :func:`_upgrade_lines` (0 to 1),
    :func:`_upgrade_index` (1 to 2), then :func:`_upgrade_line_numbers`
    (2 to 3)."""
    if _file_format(conn) == FILE_FORMAT:
        return
    conn.execute("BEGIN IMMEDIATE")
    try:
        found = _file_format(conn)
        if found < 1:
            _upgrade_lines(conn)
        if found < 2:
            _upgrade_index(conn)
        if found < 3:
            _upgrade_line_numbers(conn)
        if found < FILE_FORMAT:
            conn.execute(f"PRAGMA user_version = {FILE_FORMAT}")
        conn.commit()
    except BaseException:
        conn.rollback()
        raise


def _upgrade_lines(conn: sqlite3.Connection) -> None:
    """Keep every kernel row the codec accepts, compile a missing or
    rejected one from the line's copy -- the chunk graph,
    ``FullSFAData``, or ``kMAPData`` scored as ``exp`` of each
    log-probability as the builds that wrote it did --, delete a
    rejected one with no copy, drop the three tables."""
    rejected = []
    for rowid, blob in conn.execute("SELECT rowid, KernelBlob FROM CompiledKernel"):
        try:
            serialize.kernel_from_bytes(blob)
        except SfaError:
            rejected.append((rowid,))
    conn.executemany("DELETE FROM CompiledKernel WHERE rowid = ?", rejected)
    conn.execute("UPDATE CompiledKernel SET Version = ?", (KERNEL_VERSION,))
    tables = {name for (name,) in conn.execute("SELECT name FROM sqlite_master")}
    for approach, table, columns in (
        ("staccato", "StaccatoGraph", "GraphBlob"),
        ("fullsfa", "FullSFAData", "SFABlob"),
        ("kmap", "kMAPData", "Data, LogProb"),
    ):
        if table not in tables:
            continue
        rows = conn.execute(
            f"SELECT DataKey, {columns} FROM {table} WHERE DataKey NOT IN "
            "(SELECT DataKey FROM CompiledKernel WHERE Approach = ?) "
            f"ORDER BY DataKey{', Rank' if approach == 'kmap' else ''}",
            (approach,),
        ).fetchall()
        if approach == "kmap":
            sfas = (
                (key, kmap_sfa([(s, math.exp(lp)) for _, s, lp in line]))
                for key, line in groupby(rows, key=lambda row: row[0])
            )
        else:
            sfas = ((key, serialize.from_bytes(blob)) for key, blob in rows)
        conn.executemany(
            f"INSERT INTO CompiledKernel ({', '.join(LINE_TABLES['CompiledKernel'])}) "
            "VALUES (?, ?, ?, ?, ?)",
            (kernel_row(key, approach, compile_kernel(sfa)) for key, sfa in sfas),
        )
    for table in ("FullSFAData", "StaccatoData", "kMAPData"):
        conn.execute(f"DROP TABLE IF EXISTS {table}")


def _upgrade_index(conn: sqlite3.Connection) -> None:
    """Delete the kernel rows of lines that are gone, and record what
    the read paths of older builds worked out on every read: a file
    with postings but no ``dictionary`` gets the terms they mention as
    its dictionary (``IndexTerms`` and their digest), ``staccato`` as
    its approach if it names none, and -- with no mark -- coverage
    through the last line ``InvertedIndex`` mentions."""
    conn.execute(
        "DELETE FROM CompiledKernel WHERE DataKey NOT IN "
        "(SELECT DataKey FROM MasterData)"
    )
    meta = dict(conn.execute("SELECT Key, Value FROM IndexMeta"))
    if "dictionary" not in meta:
        trie = DictionaryTrie(
            term
            for (term,) in conn.execute("SELECT DISTINCT Term FROM InvertedIndex")
        )
        if not trie.num_terms:
            return
        conn.execute("DELETE FROM IndexTerms")
        conn.executemany(
            "INSERT INTO IndexTerms (Term) VALUES (?)",
            [(term,) for term in trie.terms()],
        )
        meta["dictionary"] = trie.digest
    meta.setdefault("approach", "staccato")
    if "covered_through" not in meta:
        (last,) = conn.execute(
            "SELECT COALESCE(MAX(DataKey), -1) FROM InvertedIndex"
        ).fetchone()
        meta["covered_through"] = str(last)
    conn.executemany(
        "INSERT OR REPLACE INTO IndexMeta (Key, Value) VALUES (?, ?)",
        meta.items(),
    )


def _upgrade_line_numbers(conn: sqlite3.Connection) -> None:
    """Number the lines of every document that holds a repeated
    ``(DocId, SFANum)`` 0..n-1 in DataKey order: the numbers this
    build's writes give a document ingested more than once."""
    conn.execute(
        "UPDATE MasterData SET SFANum = ("
        "SELECT COUNT(*) FROM MasterData AS earlier "
        "WHERE earlier.DocId = MasterData.DocId "
        "AND earlier.DataKey < MasterData.DataKey) "
        "WHERE DocId IN (SELECT DocId FROM MasterData "
        "GROUP BY DocId, SFANum HAVING COUNT(*) > 1)"
    )
