"""A file the parent commit wrote keeps working, row for row untouched.

The parent stored every line two or three times (``tests/legacy.py``
holds the two tables this build dropped); files of that age may also
lack kernel rows.  Each test holds such a file to a current-format file
of the same corpus: answers, probabilities and ``counters.*`` on every
plan and approach, ``load_fullsfa`` bytes, the index ``build_index``
writes, a rebalance move out of it and the reuse of the keys it freed.
"""

import os
import sqlite3

import pytest

from repro import counters
from repro.db import storage
from repro.db.engine import APPROACHES, StaccatoDB, shard_path
from repro.db.planner import execute_plan
from repro.db.schema import LEGACY_LINE_TABLES
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.ocr.noise import NoiseModel
from repro.service.shards import ShardedQueryService
from repro.sfa import serialize
from repro.sfa.kernel import KERNEL_VERSION

from .legacy import legacy_copy

K, M = 8, 10
DICTIONARY = ["public", "law", "president", "congress"]
PATTERNS = [r"REGEX:Public Law (8|9)\d", "%the President%", "Public Law 8%"]

#: What a file of that age lacks: lines with no kernel row at all, and
#: lines whose FullSFA kernel is of a layout this build does not read.
AGED = (
    "DELETE FROM CompiledKernel WHERE DataKey % 3 = 0",
    "UPDATE CompiledKernel SET Version = 1 "
    "WHERE DataKey % 3 = 1 AND Approach = 'fullsfa'",
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
        )
        db.build_index(DICTIONARY)
        legacy = legacy_copy(db, str(root / "legacy.db"), *AGED)
    return current, legacy


def relation(db: StaccatoDB):
    """Every plan on every approach, with the work it took."""
    assert db.load_index()
    with counters.collect() as counts:
        answers = [
            (
                [db.search(pattern, approach=a, num_ans=None) for a in APPROACHES],
                db.indexed_search(pattern),
                db.indexed_search(pattern, use_projection=False),
                [execute_plan(db, pattern, approach=a)[1] for a in APPROACHES],
            )
            for pattern in PATTERNS
        ]
    return answers, dict(counts)


def legacy_rows(path: str) -> list:
    conn = sqlite3.connect(path)
    try:
        return [
            sorted(conn.execute(f"SELECT * FROM {table}"))
            for table in (*LEGACY_LINE_TABLES, "CompiledKernel")
        ]
    finally:
        conn.close()


def test_answers_counters_and_fullsfa_bytes_equal_a_current_file(paths):
    current, legacy = paths
    before = legacy_rows(legacy)
    with StaccatoDB(current, k=K, m=M) as new, StaccatoDB(legacy, k=K, m=M) as old:
        assert new.legacy_tables == ()
        assert old.legacy_tables == LEGACY_LINE_TABLES
        assert relation(old) == relation(new)
        for key in storage.all_data_keys(new.conn):
            assert serialize.to_bytes(
                storage.load_fullsfa(old.conn, key)
            ) == serialize.to_bytes(storage.load_fullsfa(new.conn, key))
        # What the old file holds for FullSFA includes its second copy.
        assert old.storage_bytes("fullsfa") > new.storage_bytes("fullsfa")
        assert old.storage_bytes("staccato") < new.storage_bytes("staccato")
    assert legacy_rows(legacy) == before  # opening it rewrote nothing


def test_build_index_writes_the_same_postings(paths, tmp_path):
    rows = "SELECT * FROM InvertedIndex ORDER BY rowid"
    current, legacy = paths
    with StaccatoDB(current, k=K, m=M) as new:
        fresh = new.conn.execute(rows).fetchall()
        copy = legacy_copy(new, str(tmp_path / "legacy.db"), *AGED)
    with StaccatoDB(copy, k=K, m=M) as old:
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


def _searches(service) -> tuple[list, dict]:
    with counters.collect() as counts:
        replies = [
            service.search(
                {
                    "pattern": pattern,
                    "approach": approach,
                    "plan": plan,
                    "num_ans": 50,
                }
            )
            for pattern in ("%Congress%", "%fresh%", "%line 1-%")
            for approach in APPROACHES
            for plan in ("filescan", "auto")
        ]
    answers = [
        [(a["doc_id"], a["line_no"], a["shard"], a["probability"]) for a in r["answers"]]
        for r in replies
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
    service.ingest(_docs([0, 2]))
    service.ingest(_docs([1]))
    service.close()
    if aged:
        _age_shard(shard_dir, 0)
    service = _cluster(shard_dir)
    try:
        source, target = service.pool.shard(0), service.pool.shard(1)
        assert bool(source.writer.legacy_tables) == aged
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
        for table in source.writer.legacy_tables:
            assert source.writer.conn.execute(
                f"SELECT COUNT(*) FROM {table} WHERE DataKey >= 3"
            ).fetchone() == (0,)
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
