"""The index plan answers over every ingested line, on every interleaving.

Invariant under test (``docs/ARCHITECTURE.md``, "Dictionary index"): a
line is *covered* iff ``InvertedIndex`` holds its postings under the
file's current dictionary and approach; ``build_index`` covers every
line, every other writer of lines either writes the line's postings and
extends coverage in the same transaction or leaves the line uncovered;
and the index plans scan whatever is uncovered.  So after any sequence
of ingest / ``build_index`` / reopen / rebalance / replica attach, for
every left-anchored pattern, ``indexed_search`` and ``search`` agree on
the answer set, agree on probabilities with ``use_projection=False``,
and ``execute_plan`` returns one of the two.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.automata.trie import DictionaryTrie
from repro.db import storage
from repro.db.engine import StaccatoDB
from repro.db.planner import execute_plan
from repro.db.schema import LINE_TABLES
from repro.ocr.corpus import Dataset, make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.ocr.noise import NoiseModel
from repro.query.memo import KernelMemo
from repro.service.shards import ShardedQueryService

from .legacy import UNRECORDED_INDEX, age
from .oracles import indexing as oracle

K, M = 4, 6

#: ``zebra`` is in no line: a term without a posting is still a term.
DICTIONARY = ["public", "law", "congress", "president", "united", "zebra"]

#: Left-anchored by a dictionary term, each; ``act`` is not in the
#: dictionary, so the last one is the filescan fallback on every plan.
PATTERNS = [
    r"REGEX:Public Law",
    r"REGEX:Public Law (8|9)\d",
    "%Congress %",
    "%President of%",
    "%United States%",
    r"REGEX:zebra crossing",
    r"REGEX:Act of",
]

CORPUS = make_ca(num_docs=4, lines_per_doc=4, seed=3)


def docs(*indexes: int) -> Dataset:
    return Dataset(
        name="coverage", documents=[CORPUS.documents[i] for i in indexes]
    )


def ocr() -> SimulatedOcrEngine:
    return SimulatedOcrEngine(NoiseModel(tail_mass=0.0), seed=5)


def assert_plans_agree(db: StaccatoDB) -> None:
    for pattern in PATTERNS:
        scan = db.search(pattern, num_ans=None)
        indexed = db.indexed_search(pattern, num_ans=None)
        exact = db.indexed_search(pattern, num_ans=None, use_projection=False)
        _, planned = execute_plan(db, pattern, num_ans=None)
        assert {a.line_id for a in indexed} == {a.line_id for a in scan}, pattern
        assert exact == scan, pattern
        assert planned in (scan, indexed), pattern


def reopened(path: str) -> StaccatoDB:
    return StaccatoDB(path, k=K, m=M)


def index_rows(db: StaccatoDB) -> list[tuple]:
    return sorted(
        db.conn.execute(
            "SELECT Term, DataKey, U, V, Rank, Offset FROM InvertedIndex"
        )
    )


def covered_through(db: StaccatoDB) -> int | None:
    return storage.index_meta(db.conn)[1]


@pytest.fixture()
def db(tmp_path):
    with StaccatoDB(str(tmp_path / "lines.db"), k=K, m=M) as handle:
        yield handle


class TestSingleDatabase:
    def test_ingest_index_ingest_reopen(self, db):
        db.ingest(docs(0), ocr())
        assert_plans_agree(db)  # no index yet: every plan is the scan
        db.build_index(DICTIONARY)
        assert_plans_agree(db)
        db.ingest(docs(1, 2), ocr())
        assert db.uncovered_keys() == []
        assert covered_through(db) == db.num_lines - 1
        assert_plans_agree(db)
        with reopened(db.path) as reader:
            # The stored dictionary, not the terms that happen to have
            # postings: the reader probes (and finds empty) what the
            # builder does.
            assert reader.stored_index().trie.terms() == sorted(DICTIONARY)
            assert reader.index_covers(r"REGEX:zebra crossing", "staccato")
            assert reader.indexed_search(r"REGEX:zebra crossing") == []
            assert_plans_agree(reader)
            # A second handle's ingest is indexed under the stored
            # dictionary too, and the first handle sees it.
            reader.ingest(docs(3), ocr())
            assert_plans_agree(reader)
        assert db.uncovered_keys() == []
        assert_plans_agree(db)

    def test_a_reader_answers_from_the_dictionary_the_file_holds(self, db):
        """A reader opened before any index, then rebuilt under by
        another handle twice, answers from the file's dictionary each
        time -- the second one lacks the pattern's anchor."""
        pattern = "%Public Law%"
        db.ingest(docs(0, 1), ocr())
        scan = db.search(pattern, num_ans=None)
        assert scan, "the corpus must match the pattern"
        with reopened(db.path) as reader:
            assert reader.stored_index() is None
            db.build_index(DICTIONARY)
            assert reader.index_anchor(pattern, "staccato") == "public"
            indexed = reader.indexed_search(pattern, num_ans=None)
            assert {a.line_id for a in indexed} == {a.line_id for a in scan}
            db.build_index(["congress", "president"])
            assert reader.index_anchor(pattern, "staccato") is None
            assert reader.indexed_search(pattern, num_ans=None) == scan
            plan, answers = execute_plan(reader, pattern, num_ans=None)
            assert plan.kind == "scan" and answers == scan
            assert_plans_agree(reader)

    def test_the_roadmap_reproduction(self, db):
        db.ingest(docs(0), ocr())
        db.build_index(DICTIONARY)
        db.ingest(docs(1), ocr())
        pattern = r"REGEX:Public Law"
        late = {a.line_id for a in db.search(pattern, num_ans=None)} - set(range(4))
        assert late, "the corpus must put a match in the second ingest"
        for answers in (
            db.indexed_search(pattern, num_ans=None),
            execute_plan(db, pattern, num_ans=None)[1],
        ):
            assert late <= {a.line_id for a in answers}

    def test_postings_written_at_ingest_are_the_rebuild_s(self, db, tmp_path):
        db.build_index(DICTIONARY)  # an empty file, then every line live
        db.ingest(docs(0, 1), ocr())
        db.ingest(docs(2), ocr())
        with StaccatoDB(str(tmp_path / "bulk.db"), k=K, m=M) as bulk:
            bulk.ingest(docs(0, 1), ocr())
            bulk.ingest(docs(2), ocr())
            count = bulk.build_index(DICTIONARY)
            assert index_rows(bulk) == index_rows(db)
            assert count == len(index_rows(bulk)) > 0
            # ... and both are Algorithm 3 over the stored chunk graphs.
            trie = DictionaryTrie(DICTIONARY)
            expected = sorted(
                (term, key, p.u, p.v, p.rank, p.offset)
                for key in storage.all_data_keys(bulk.conn)
                for term, postings in oracle.build_sfa_postings(
                    storage.load_staccato(bulk.conn, key), trie
                ).items()
                for p in postings
            )
            assert index_rows(bulk) == expected
            # Insertion order is deterministic too: by line, then sorted.
            stored = bulk.conn.execute(
                "SELECT DataKey, Term, U, V, Rank, Offset FROM InvertedIndex "
                "ORDER BY rowid"
            ).fetchall()
            assert stored == sorted(stored)

    def test_build_index_reads_no_chunk_graph(self, db, monkeypatch):
        db.ingest(docs(0, 1), ocr())

        def no_graph(conn, data_key):
            raise AssertionError(f"load_staccato({data_key}) during a build")

        monkeypatch.setattr(storage, "load_staccato", no_graph)
        assert db.build_index(DICTIONARY) > 0

    def test_a_file_indexed_before_the_mark_was_stored(self, db):
        """An older build's file: index, then ingest that writes no
        postings, in a file with neither dictionary nor mark.  Opening
        it records the terms its postings mention as the dictionary and
        covers the lines through the last one they mention."""
        db.ingest(docs(0, 1), ocr())
        db.build_index(DICTIONARY)
        age(db.conn, *UNRECORDED_INDEX)
        assert db.stored_index() is None
        storage.ingest_dataset(db.conn, docs(2, 3), ocr(), k=K, m=M)
        with reopened(db.path) as old:
            assert "zebra" not in old.stored_index().trie.terms()
            assert old.uncovered_keys() == list(range(8, 16))
            assert_plans_agree(old)
            # Lines behind the uncovered ones stay uncovered.
            old.ingest(docs(0), ocr())
            assert old.uncovered_keys() == list(range(8, 20))
            assert_plans_agree(old)
            # /index is the repair path.
            old.build_index(DICTIONARY)
            assert old.uncovered_keys() == []
            assert covered_through(old) == 19
            assert_plans_agree(old)

    def test_a_batch_built_under_another_dictionary_is_dropped(self, db):
        db.ingest(docs(0), ocr())
        db.build_index(DICTIONARY)
        before = index_rows(db)
        other = storage.IndexSpec(DictionaryTrie(["public", "law"]), "staccato")
        built = storage.build_dataset(docs(1), ocr(), k=K, m=M, index=other)
        assert built.rows["InvertedIndex"]
        db.write_batch(built)
        assert index_rows(db) == before
        assert db.uncovered_keys() == [4, 5, 6, 7]
        assert covered_through(db) == 3
        assert_plans_agree(db)
        # Lines behind an uncovered line stay uncovered: the mark is a
        # prefix, never a third state.
        db.ingest(docs(2), ocr())
        assert index_rows(db) == before
        assert db.uncovered_keys() == list(range(4, 12))
        assert_plans_agree(db)
        with reopened(db.path) as reader:
            assert_plans_agree(reader)
        db.build_index(DICTIONARY)
        assert db.uncovered_keys() == []
        assert_plans_agree(db)

    def test_the_dictionary_travels_to_build_workers(self):
        spec = storage.IndexSpec(DictionaryTrie(DICTIONARY), "staccato")
        here = storage.build_dataset(docs(1), ocr(), k=K, m=M, index=spec)
        there = storage.build_dataset(
            docs(1), ocr(), k=K, m=M, index=spec, workers=2
        )
        assert here.rows["InvertedIndex"]
        assert there == here

    def test_a_kmap_index_is_extended_from_the_batch_s_strings(self, db):
        db.ingest(docs(0), ocr())
        db.build_index(DICTIONARY, approach="kmap")
        db.ingest(docs(1), ocr())
        assert db.uncovered_keys() == []
        live = index_rows(db)
        assert any(row[1] >= 4 for row in live)
        db.build_index(DICTIONARY, approach="kmap")
        assert index_rows(db) == live
        for pattern in PATTERNS:
            scan = db.search(pattern, approach="kmap", num_ans=None)
            assert db.indexed_search(pattern, approach="kmap", num_ans=None) == scan

    def test_freed_keys_are_not_covered_by_an_old_mark(self, db):
        """Deleting the tail leaves the mark above MAX(DataKey); a batch
        that cannot be indexed must pull it back below its lines."""
        db.ingest(docs(0, 1), ocr())
        db.build_index(DICTIONARY)
        with db.conn:
            for table in LINE_TABLES:
                db.conn.execute(f"DELETE FROM {table} WHERE DataKey >= 4")
        assert covered_through(db) == 7
        db.write_batch(storage.build_dataset(docs(2), ocr(), k=K, m=M))
        assert db.uncovered_keys() == [4, 5, 6, 7]
        assert_plans_agree(db)


def test_concurrent_readers_get_their_file_s_dictionary(tmp_path):
    """More dictionaries than the process-wide trie cache holds, read
    by more threads than cores with a short switch interval: every read
    returns its own file's dictionary and the cache stays bounded."""
    count = storage._TRIE_CACHE_SIZE + 4
    dictionaries = [sorted(["public", f"term{i}"]) for i in range(count)]
    paths = [str(tmp_path / f"{i}.db") for i in range(count)]
    for path, terms in zip(paths, dictionaries):
        with StaccatoDB(path, k=K, m=M) as db:
            db.build_index(terms)
    wrong: list[int] = []

    def read(i: int) -> None:
        with StaccatoDB(paths[i], k=K, m=M) as db:
            for _ in range(40):
                if db.stored_index().trie.terms() != dictionaries[i]:
                    wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=read, args=(i % count,))
            for i in range(2 * count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert len(storage._tries) <= storage._TRIE_CACHE_SIZE


# ----------------------------------------------------------------------
# The 2-shard in-process router: ingest, /index, rebalance, replicas.
# ----------------------------------------------------------------------
class TestSingleDatabaseWithAMemo(TestSingleDatabase):
    """Every interleaving again on a handle with a memo, whose index plan
    rules candidates out with the scan image's pair bits."""

    @pytest.fixture()
    def db(self, tmp_path):
        with StaccatoDB(
            str(tmp_path / "lines.db"), k=K, m=M, kernel_memo=KernelMemo()
        ) as handle:
            yield handle


def _batch(*indexes: int, lines: slice = slice(None)) -> dict:
    return {
        "dataset": "coverage",
        "ocr_seed": 5,
        "documents": [
            {"doc_id": i, "lines": list(CORPUS.documents[i].lines[lines])}
            for i in indexes
        ],
    }


def _search(service, pattern: str, plan: str) -> set[tuple[int, int]]:
    reply = service.search({"pattern": pattern, "plan": plan, "num_ans": 500})
    return {(a["doc_id"], a["line_no"]) for a in reply["answers"]}


def assert_cluster_agrees(service: ShardedQueryService) -> None:
    for pattern in PATTERNS:
        scan = _search(service, pattern, "filescan")
        assert _search(service, pattern, "indexed") == scan, pattern
        assert _search(service, pattern, "auto") == scan, pattern
    for leg in service.pool.shards:
        for replica in leg.replicas.replicas():
            with replica.pool.acquire() as db:
                assert_plans_agree(db)


def _move(service, lo: int, hi: int, source: int, target: int) -> None:
    row = service.jobs_submit(
        {
            "type": "rebalance",
            "params": {"doc_lo": lo, "doc_hi": hi, "source": source, "target": target},
            "wait": True,
        }
    )
    assert row["state"] == "succeeded", row["error"]


@pytest.fixture()
def cluster(tmp_path):
    service = ShardedQueryService(
        str(tmp_path / "shards"), 2, k=K, m=M, pool_size=2, range_width=2
    )
    yield service
    service.close()


class TestTwoShardRouter:
    def test_every_interleaving_answers_over_every_line(self, cluster):
        # DocIds 0,1 -> shard 0; 2,3 -> shard 1.
        cluster.ingest(_batch(0, 2, lines=slice(0, 2)))
        cluster.index({"terms": DICTIONARY})
        assert_cluster_agrees(cluster)
        cluster.ingest(_batch(1, 3))  # after /index, both shards
        assert_cluster_agrees(cluster)
        pattern = r"REGEX:Public Law"
        late = {
            row for row in _search(cluster, pattern, "filescan") if row[0] in (1, 3)
        }
        assert late and late <= _search(cluster, pattern, "auto")
        cluster.replicas({"action": "attach", "shard": 0})
        assert_cluster_agrees(cluster)
        cluster.ingest(_batch(0, lines=slice(2, 4)))  # once, for two copies
        assert_cluster_agrees(cluster)
        for replica in cluster.pool.shard(0).replicas.replicas():
            assert replica.writer.uncovered_keys() == []
        # Same dictionary on both sides: the postings move with the lines.
        _move(cluster, 0, 1, source=0, target=1)
        target = cluster.pool.shard(1).writer
        assert target.uncovered_keys() == []
        assert covered_through(target) == max(storage.all_data_keys(target.conn))
        assert_cluster_agrees(cluster)
        cluster.ingest(_batch(2, lines=slice(2, 4)))
        cluster.ingest(_batch(0))  # re-ingest routes to the new owner
        assert_cluster_agrees(cluster)

    def test_a_move_between_different_dictionaries_copies_no_postings(
        self, cluster
    ):
        cluster.ingest(_batch(0, 1, 2, 3))
        cluster.index({"terms": DICTIONARY, "shards": [0]})
        cluster.index({"terms": ["public", "law"], "shards": [1]})
        target = cluster.pool.shard(1).writer
        before = index_rows(target)
        _move(cluster, 0, 1, source=0, target=1)
        assert index_rows(target) == before
        assert target.uncovered_keys() == list(range(8, 16))
        for leg in cluster.pool.shards:
            for replica in leg.replicas.replicas():
                with replica.pool.acquire() as db:
                    assert_plans_agree(db)
        # ... and back, onto the emptied shard that still records the
        # full dictionary: the lines are uncovered where they come from,
        # so again no posting travels.
        _move(cluster, 0, 1, source=1, target=0)
        home = cluster.pool.shard(0).writer
        assert index_rows(home) == []
        assert home.uncovered_keys() == storage.all_data_keys(home.conn)
        cluster.index({"terms": DICTIONARY})
        assert_cluster_agrees(cluster)
