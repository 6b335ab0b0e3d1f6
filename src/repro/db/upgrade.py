"""The one upgrade step, run as a handle opens a file an older build
wrote.  Those builds kept second copies of a line -- ``FullSFAData``
(the FullSFA's ``SFA1`` blob), ``StaccatoData`` (a row per chunk string),
``kMAPData`` (the k-MAP strings with log-probabilities, in place of the
``kmap`` kernel) -- and may lack kernel rows or hold unreadable ones.
No other module names those tables."""

from __future__ import annotations

import math
import sqlite3
from itertools import groupby

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
    transaction (all lines or none; the format is read again inside it,
    so of several openers only the first works): keep every kernel row
    the codec accepts, compile a missing or rejected one from the line's
    copy -- the chunk graph, ``FullSFAData``, or ``kMAPData`` scored as
    ``exp`` of each log-probability as the builds that wrote it did --,
    delete a rejected one with no copy, drop the three tables."""
    if _file_format(conn) == FILE_FORMAT:
        return
    conn.execute("BEGIN IMMEDIATE")
    try:
        if _file_format(conn) < FILE_FORMAT:
            _upgrade_lines(conn)
            conn.execute(f"PRAGMA user_version = {FILE_FORMAT}")
        conn.commit()
    except BaseException:
        conn.rollback()
        raise


def _upgrade_lines(conn: sqlite3.Connection) -> None:
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
