"""A file an older build wrote is upgraded once, when it is opened.

Older builds stored every line two or three times (``tests/legacy.py``
holds the tables this build dropped) and kept the k-MAP strings as
``kMAPData`` rows instead of a ``kmap`` kernel; files of that age may
also lack kernel rows.  Files of formats 0 and 1 may hold an index
whose dictionary, coverage mark or approach is not recorded, and kernel
rows of lines an older rebalance moved away; files up to format 2 may
number a re-ingested document's lines from 0 again.  Opening such a file
upgrades it (``repro.db.upgrade``); each test holds the upgraded file to what the
build before the upgrade read from it transparently -- a current-format
file of the same corpus: answers, probabilities and ``counters.*`` on
every plan and approach, ``load_fullsfa`` bytes, the index
``build_index`` writes, a rebalance move out of it and the reuse of the
keys it freed.  ``map`` and ``kmap`` answer from the kernels compiled
from ``kMAPData``, scoring ``exp`` of each stored log-probability as
those builds did, so their probabilities are held to that scoring, not
to the current file's.  An upgrade is all or nothing, runs once however
many handles open the file at once, and a file of a newer format is
refused.
"""

import math
import multiprocessing
import os
import sqlite3

import pytest

from repro import counters
from repro.db import storage
from repro.db import upgrade as upgrade_module
from repro.db.engine import APPROACHES, StaccatoDB, shard_path
from repro.db.planner import execute_plan
from repro.db.schema import FILE_FORMAT
from repro.db.upgrade import NewerFileFormat
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.ocr.noise import NoiseModel
from repro.query.like import compile_like
from repro.service.shards import ShardedQueryService
from repro.sfa import serialize
from repro.sfa.kernel import KERNEL_VERSION

from .oracles.strings import match_probability_strings
from .legacy import (
    LEGACY_TABLES,
    NO_APPROACH,
    UNRECORDED_INDEX,
    legacy_copy,
    orphan_rows,
    repeated_lines,
)

K, M = 8, 10
DICTIONARY = ["public", "law", "president", "congress"]
PATTERNS = [r"REGEX:Public Law (8|9)\d", "%the President%", "Public Law 8%"]

#: Every approach with a stored record: older builds always stored the
#: FullSFA, which this build stores only when asked.
WITH_FULLSFA = ["kmap", "fullsfa", "staccato"]

#: Orphan kernel rows sit at the DataKeys of lines 0 and 1 plus this.
ORPHANS = 1000

#: What a file of that age lacks: lines with no kernel row at all, and
#: lines whose FullSFA kernel is of a layout this build does not read;
#: and what it may hold that no current file does: an index that
#: records neither its dictionary, its coverage mark nor its approach,
#: and kernel rows of lines that are gone.
AGED = (
    "DELETE FROM CompiledKernel WHERE DataKey % 3 = 0",
    "UPDATE CompiledKernel SET Version = 1 "
    "WHERE DataKey % 3 = 1 AND Approach = 'fullsfa'",
    *UNRECORDED_INDEX,
    NO_APPROACH,
    orphan_rows(ORPHANS),
)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """``(current, legacy)``: one corpus, indexed, in both formats."""
    root = tmp_path_factory.mktemp("legacy")
    current = str(root / "current.db")
    with StaccatoDB(current, k=K, m=M) as db:
        db.ingest(
            make_ca(num_docs=2, lines_per_doc=6),
            SimulatedOcrEngine(NoiseModel(tail_mass=0.0), seed=13),
            tuple(WITH_FULLSFA),
        )
        db.build_index(DICTIONARY)
        legacy = legacy_copy(db, str(root / "legacy.db"), *AGED)
    return current, legacy


#: The approaches an older file answers from its ``kMAPData`` rows.
STRINGS = ("map", "kmap")


def assert_upgraded(conn) -> None:
    """No table of an older build is left, no kernel row of a line that
    is gone, and the file records this build's format."""
    names = {name for (name,) in conn.execute("SELECT name FROM sqlite_master")}
    assert not names & set(LEGACY_TABLES)
    assert conn.execute(
        "SELECT COUNT(*) FROM CompiledKernel WHERE DataKey NOT IN "
        "(SELECT DataKey FROM MasterData)"
    ).fetchone() == (0,)
    assert conn.execute("PRAGMA user_version").fetchone() == (FILE_FORMAT,)


def index_record(conn) -> tuple:
    """``IndexMeta`` and ``IndexTerms``, sorted."""
    return tuple(
        sorted(conn.execute(f"SELECT * FROM {table}"))
        for table in ("IndexMeta", "IndexTerms")
    )


def relation(db: StaccatoDB):
    """Every plan on every approach, ``{(pattern, plan, approach):
    answers}``, with the work it took."""
    assert db.stored_index() is not None
    answers = {}
    with counters.collect() as counts:
        for pattern in PATTERNS:
            for a in APPROACHES:
                answers[pattern, "scan", a] = db.search(
                    pattern, approach=a, num_ans=None
                )
                answers[pattern, "auto", a] = execute_plan(db, pattern, approach=a)[1]
            answers[pattern, "indexed", "staccato"] = db.indexed_search(pattern)
            answers[pattern, "unprojected", "staccato"] = db.indexed_search(
                pattern, use_projection=False
            )
    return answers, dict(counts)


def parent_scores(conn, pattern: str, approach: str) -> dict:
    """``{DataKey: probability}`` as builds that kept ``kMAPData``
    scored ``approach``: the line's accepted strings (the rank-0 one
    alone for ``map``), ``exp`` of each log-probability, summed in rank
    order."""
    query = compile_like(pattern)
    rows = conn.execute(
        "SELECT DataKey, Data, LogProb FROM kMAPData ORDER BY DataKey, Rank"
    ).fetchall()
    lines: dict[int, list] = {}
    for key, text, log_prob in rows:
        lines.setdefault(key, []).append((text, math.exp(log_prob)))
    k = 1 if approach == "map" else None
    scores = {
        key: match_probability_strings(strings[:k], query)
        for key, strings in lines.items()
    }
    return {key: prob for key, prob in scores.items() if prob > 0.0}


def legacy_rows(path: str) -> list:
    """Every row of the older build's tables, of ``CompiledKernel``
    (orphans included) and of the index's record."""
    conn = sqlite3.connect(path)
    try:
        return [
            sorted(conn.execute(f"SELECT * FROM {table}"))
            for table in (*LEGACY_TABLES, "CompiledKernel", "IndexMeta", "IndexTerms")
        ]
    finally:
        conn.close()


def scores_before_the_upgrade(path: str) -> dict:
    """:func:`parent_scores` of every pattern and string approach, read
    from the file before a handle opens (and upgrades) it."""
    conn = sqlite3.connect(path)
    try:
        return {
            (pattern, approach): parent_scores(conn, pattern, approach)
            for pattern in PATTERNS
            for approach in STRINGS
        }
    finally:
        conn.close()


def test_answers_counters_and_fullsfa_bytes_equal_a_current_file(paths):
    current, legacy = paths
    scores = scores_before_the_upgrade(legacy)
    with StaccatoDB(current, k=K, m=M) as new, StaccatoDB(legacy, k=K, m=M) as old:
        assert_upgraded(old.conn)
        # Every term has a posting, so the dictionary the upgrade records
        # from them is the one the index was built over.
        assert index_record(old.conn) == index_record(new.conn)
        (old_answers, old_counts), (new_answers, counts) = relation(old), relation(new)
        assert old_counts == counts
        assert old_answers.keys() == new_answers.keys()
        for (pattern, plan, approach), answers in new_answers.items():
            got = old_answers[pattern, plan, approach]
            if approach not in STRINGS:
                assert got == answers
                continue
            assert [a.line_id for a in got] == [a.line_id for a in answers]
            assert {a.line_id: a.probability for a in got} == scores[
                pattern, approach
            ]
        for key in storage.all_data_keys(new.conn):
            assert serialize.to_bytes(
                storage.load_fullsfa(old.conn, key)
            ) == serialize.to_bytes(storage.load_fullsfa(new.conn, key))
        # The second copies are gone: one record per line per approach.
        for approach in APPROACHES:
            assert old.storage_bytes(approach) == new.storage_bytes(approach)


def test_build_index_writes_the_same_postings(paths, tmp_path):
    rows = "SELECT * FROM InvertedIndex ORDER BY rowid"
    current, legacy = paths
    with StaccatoDB(current, k=K, m=M) as new:
        fresh = new.conn.execute(rows).fetchall()
        copy = legacy_copy(new, str(tmp_path / "legacy.db"), *AGED)
    with StaccatoDB(copy, k=K, m=M) as old:
        assert_upgraded(old.conn)
        assert old.build_index(DICTIONARY) == len(fresh) > 0
        assert old.conn.execute(rows).fetchall() == fresh


# ----------------------------------------------------------------------
# A move out of a legacy shard file, then reuse of the keys it freed.
# ----------------------------------------------------------------------
def _docs(doc_ids, tag="", approaches=None) -> dict:
    body = {
        "dataset": "legacy",
        "documents": [
            {
                "doc_id": doc_id,
                "lines": [
                    f"Congress {tag}line {doc_id}-{n} of public law"
                    for n in range(3)
                ],
            }
            for doc_id in doc_ids
        ],
    }
    if approaches:
        body["approaches"] = approaches
    return body


MOVE = {
    "type": "rebalance",
    "params": {"doc_lo": 1, "doc_hi": 1, "source": 0, "target": 1},
    "wait": True,
}


def _cluster(shard_dir: str) -> ShardedQueryService:
    return ShardedQueryService(shard_dir, 2, k=4, m=6, pool_size=2, range_width=2)


SEARCHED = ("%Congress%", "%fresh%", "%line 1-%")


def _searches(service) -> tuple[list, dict]:
    """Every pattern, approach and plan: its answers, and the work it
    took.  ``map``/``kmap`` probabilities are left out: on an older file
    they are the scoring of :func:`parent_scores`, checked by
    :func:`test_kmap_and_map_answer_as_older_builds_did_across_a_move`."""
    with counters.collect() as counts:
        replies = [
            (
                approach,
                service.search(
                    {
                        "pattern": pattern,
                        "approach": approach,
                        "plan": plan,
                        "num_ans": 50,
                    }
                ),
            )
            for pattern in SEARCHED
            for approach in APPROACHES
            for plan in ("filescan", "auto")
        ]
    answers = [
        [
            (a["doc_id"], a["line_no"], a["shard"])
            + (() if approach in STRINGS else (a["probability"],))
            for a in reply["answers"]
        ]
        for approach, reply in replies
    ]
    return answers, dict(counts)


def _age_shard(shard_dir: str, index: int) -> None:
    """Rewrite one shard file as the parent commit would have left it."""
    path = shard_path(shard_dir, index)
    with StaccatoDB(path, k=4, m=6) as db:
        legacy_copy(db, path + ".aged", *AGED)
    os.replace(path + ".aged", path)


def _move_then_reuse(shard_dir: str, aged: bool) -> list:
    """Docs 0 and 1 on shard 0 (doc 1 on its highest DataKeys), doc 2 on
    shard 1; move doc 1 away; ingest new lines of doc 0 -- without a
    FullSFA -- onto the keys it freed.  Returns what every approach and
    plan answered, with its counters, at each stage."""
    service = _cluster(shard_dir)
    service.ingest(_docs([0, 2], approaches=WITH_FULLSFA))
    service.ingest(_docs([1], approaches=WITH_FULLSFA))
    service.close()
    if aged:
        _age_shard(shard_dir, 0)
    service = _cluster(shard_dir)
    try:
        source, target = service.pool.shard(0), service.pool.shard(1)
        assert_upgraded(source.writer.conn)
        seen = [_searches(service)]
        assert service.jobs_submit(MOVE)["state"] == "succeeded"
        seen.append(_searches(service))
        # Every moved line has its FullSFA kernel at the target, whatever
        # the source held of it (keys 3, 4, 5: no row, an old row, a
        # current one), and the source holds nothing of it any more.
        assert target.writer.conn.execute(
            "SELECT COUNT(*) FROM CompiledKernel "
            "WHERE Approach = 'fullsfa' AND Version = ?",
            (KERNEL_VERSION,),
        ).fetchone() == (target.writer.num_lines,)
        reply = service.ingest(_docs([0], "fresh ", ["kmap", "staccato"]))
        assert reply["ingested_lines"] == 3
        assert source.writer.num_lines == 6
        seen.append(_searches(service))
        # The new lines took the freed keys and have no FullSFA: nine
        # lines do (each matches, the FullSFA keeps every string), and
        # no stale blob may answer for a tenth.
        reply = service.search(
            {"pattern": "%Congress%", "approach": "fullsfa", "num_ans": 50}
        )
        assert reply["count"] == 9
    finally:
        service.close()
    return seen


def test_a_move_out_and_a_key_reuse_equal_a_current_file(tmp_path):
    assert _move_then_reuse(str(tmp_path / "legacy"), True) == _move_then_reuse(
        str(tmp_path / "current"), False
    )


def test_kmap_and_map_answer_as_older_builds_did_across_a_move(tmp_path):
    """An older shard file's lines answer ``map`` and ``kmap`` as
    :func:`parent_scores` says, and keep doing so once a move has given
    them ``kmap`` kernels at the target: those the upgrade compiled from
    ``kMAPData`` at the source."""
    shard_dir = str(tmp_path / "legacy")
    service = _cluster(shard_dir)
    service.ingest(_docs([0, 1, 2]))
    service.close()
    for index in (0, 1):
        _age_shard(shard_dir, index)
    expected = {}
    for index in (0, 1):
        conn = sqlite3.connect(shard_path(shard_dir, index))
        try:
            where = {
                key: (doc_id, line_no)
                for key, doc_id, line_no in conn.execute(
                    "SELECT DataKey, DocId, SFANum FROM MasterData"
                )
            }
            for pattern in SEARCHED:
                for approach in STRINGS:
                    scores = parent_scores(conn, pattern, approach)
                    expected.setdefault((pattern, approach), {}).update(
                        {where[key]: prob for key, prob in scores.items()}
                    )
        finally:
            conn.close()
    assert any(expected.values())

    def answered():
        return {
            (pattern, approach): {
                (a["doc_id"], a["line_no"]): a["probability"]
                for a in service.search(
                    {"pattern": pattern, "approach": approach, "num_ans": 50}
                )["answers"]
            }
            for pattern, approach in expected
        }

    service = _cluster(shard_dir)
    try:
        for index in (0, 1):
            assert_upgraded(service.pool.shard(index).writer.conn)
        assert answered() == expected
        assert service.jobs_submit(MOVE)["state"] == "succeeded"
        target = service.pool.shard(1).writer
        # Doc 1's lines moved with their kmap kernels, built from
        # kMAPData: every line at the target has one.
        assert target.conn.execute(
            "SELECT COUNT(*) FROM CompiledKernel WHERE Approach = 'kmap'"
        ).fetchone() == (target.num_lines,) == (6,)
        assert answered() == expected
    finally:
        service.close()


# ----------------------------------------------------------------------
# The upgrade itself: all or nothing, once, and never over a newer file.
# ----------------------------------------------------------------------
def test_an_upgrade_killed_midway_leaves_the_file_as_it_was(
    paths, tmp_path, monkeypatch
):
    current, _ = paths
    with StaccatoDB(current, k=K, m=M) as db:
        path = legacy_copy(db, str(tmp_path / "killed.db"), *AGED)
    with open(path, "rb") as handle:
        before = handle.read()
    rows = legacy_rows(path)
    meta, terms = rows[-2:]
    assert not terms and "dictionary" not in dict(meta)
    assert any(row[0] >= ORPHANS for row in rows[-3])
    compiled = []
    compile_kernel = upgrade_module.compile_kernel
    upgrade_line_numbers = upgrade_module._upgrade_line_numbers

    def dies_on_the_tenth(sfa):
        compiled.append(sfa)
        if len(compiled) == 10:
            raise RuntimeError("killed midway")
        return compile_kernel(sfa)

    def dies_after_the_last_step(conn):
        upgrade_line_numbers(conn)
        raise RuntimeError("killed midway")

    # Killed in the first step, then once every step has written.
    for name, killer in (
        ("compile_kernel", dies_on_the_tenth),
        ("_upgrade_line_numbers", dies_after_the_last_step),
    ):
        monkeypatch.setattr(upgrade_module, name, killer)
        with pytest.raises(RuntimeError, match="killed midway"):
            StaccatoDB(path, k=K, m=M)
        with open(path, "rb") as handle:
            assert handle.read() == before
        assert legacy_rows(path) == rows
        monkeypatch.undo()
    with StaccatoDB(current, k=K, m=M) as new, StaccatoDB(path, k=K, m=M) as old:
        assert_upgraded(old.conn)
        answers = {
            approach: old.search("%the%", approach=approach, num_ans=None)
            for approach in ("fullsfa", "staccato")
        }
        assert answers == {
            approach: new.search("%the%", approach=approach, num_ans=None)
            for approach in ("fullsfa", "staccato")
        }


#: The upgrade's steps, in order: what :func:`counting_steps` counts.
STEPS = ("_upgrade_lines", "_upgrade_index", "_upgrade_line_numbers")


def counting_steps(setattr, upgrades) -> None:
    """Make each of :data:`STEPS` count its calls in ``upgrades[i]``
    (a ``multiprocessing`` array)."""
    for at, name in enumerate(STEPS):
        run = getattr(upgrade_module, name)

        def counted(conn, at=at, run=run):
            with upgrades.get_lock():
                upgrades[at] += 1
            run(conn)

        setattr(upgrade_module, name, counted)


def _open_and_search(path, barrier, upgrades, results) -> None:
    """One process: open the file as the other one does, then answer."""
    counting_steps(setattr, upgrades)
    barrier.wait()
    with StaccatoDB(path, k=K, m=M) as db:
        results.put(
            [
                (a.line_id, a.probability)
                for a in db.search("%the%", approach="fullsfa", num_ans=None)
            ]
        )


def test_two_processes_opening_an_older_file_upgrade_it_once(paths, tmp_path):
    current, _ = paths
    with StaccatoDB(current, k=K, m=M) as db:
        path = legacy_copy(db, str(tmp_path / "shared.db"), *AGED)
        expected = [
            (a.line_id, a.probability)
            for a in db.search("%the%", approach="fullsfa", num_ans=None)
        ]
    context = multiprocessing.get_context("spawn")
    barrier, upgrades = context.Barrier(2), context.Array("i", len(STEPS))
    results = context.Queue()
    workers = [
        context.Process(
            target=_open_and_search, args=(path, barrier, upgrades, results)
        )
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    answered = [results.get(timeout=60) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0
    assert answered == [expected, expected]
    # Each step ran once: the dictionary was recorded by one process.
    assert list(upgrades) == [1, 1, 1]
    conn = sqlite3.connect(current)
    try:
        recorded = index_record(conn)
    finally:
        conn.close()
    conn = sqlite3.connect(path)
    try:
        assert_upgraded(conn)
        assert index_record(conn) == recorded
    finally:
        conn.close()


def test_a_format_1_file_gets_the_index_step_only(paths, tmp_path, monkeypatch):
    """A file a build of format 1 wrote or upgraded: no legacy table,
    but an index whose dictionary and mark it does not record, and
    kernel rows of lines that are gone.  Opening it runs the steps from
    the second on: the orphans go, every other kernel row is kept byte for
    byte, and the file answers as the current one does."""
    current, _ = paths
    with StaccatoDB(current, k=K, m=M) as db:
        path = legacy_copy(
            db,
            str(tmp_path / "format1.db"),
            *UNRECORDED_INDEX,
            orphan_rows(ORPHANS),
            file_format=1,
        )
    kernels = "SELECT * FROM CompiledKernel ORDER BY DataKey, Approach"
    conn = sqlite3.connect(path)
    try:
        rows = conn.execute(kernels).fetchall()
    finally:
        conn.close()
    kept = [row for row in rows if row[0] < ORPHANS]
    assert len(kept) < len(rows)
    upgrades = multiprocessing.Array("i", len(STEPS))
    counting_steps(monkeypatch.setattr, upgrades)
    with StaccatoDB(current, k=K, m=M) as new, StaccatoDB(path, k=K, m=M) as old:
        assert list(upgrades) == [0, 1, 1]
        assert_upgraded(old.conn)
        assert old.conn.execute(kernels).fetchall() == kept
        assert index_record(old.conn) == index_record(new.conn)
        assert relation(old) == relation(new)


def test_a_repeated_line_number_is_renumbered_as_the_file_opens(
    paths, tmp_path, monkeypatch
):
    """A file a build of format 2 wrote, holding a document ingested in
    two batches of 3 lines, each numbered from 0.  Opening it runs the
    third step alone: the document's lines are numbered 0..5 in DataKey
    order, as this build writes them, and the file answers as the
    current one does."""
    current, _ = paths
    lines = "SELECT * FROM MasterData ORDER BY DataKey"
    with StaccatoDB(current, k=K, m=M) as db:
        (doc_id,) = db.conn.execute("SELECT MIN(DocId) FROM MasterData").fetchone()
        path = legacy_copy(
            db,
            str(tmp_path / "format2.db"),
            repeated_lines(doc_id, 3),
            file_format=2,
        )
    conn = sqlite3.connect(path)
    try:
        numbers = conn.execute(
            "SELECT SFANum FROM MasterData WHERE DocId = ? ORDER BY DataKey",
            (doc_id,),
        ).fetchall()
    finally:
        conn.close()
    assert [n for (n,) in numbers] == [0, 1, 2, 0, 1, 2]
    upgrades = multiprocessing.Array("i", len(STEPS))
    counting_steps(monkeypatch.setattr, upgrades)
    with StaccatoDB(current, k=K, m=M) as new, StaccatoDB(path, k=K, m=M) as old:
        assert list(upgrades) == [0, 0, 1]
        assert_upgraded(old.conn)
        assert old.conn.execute(lines).fetchall() == new.conn.execute(lines).fetchall()
        assert relation(old) == relation(new)


def test_a_file_of_a_newer_format_is_refused(paths, tmp_path):
    current, _ = paths
    path = str(tmp_path / "newer.db")
    with StaccatoDB(current, k=K, m=M) as db:
        clone = sqlite3.connect(path)
        db.conn.backup(clone)
        clone.execute(f"PRAGMA user_version = {FILE_FORMAT + 1}")
        clone.close()
    with open(path, "rb") as handle:
        before = handle.read()
    with pytest.raises(NewerFileFormat, match="newer") as refused:
        StaccatoDB(path, k=K, m=M)
    assert (refused.value.found, refused.value.supported) == (
        FILE_FORMAT + 1,
        FILE_FORMAT,
    )
    with open(path, "rb") as handle:
        assert handle.read() == before
