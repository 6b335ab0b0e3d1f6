"""Tests for the RDBMS layer (repro.db): schema, storage, engine."""

import os
import sqlite3

import pytest

import repro
from repro import counters
from repro.db import engine as engine_module
from repro.db import storage
from repro.db.engine import DEFAULT_WINDOW, StaccatoDB
from repro.db.planner import execute_plan
from repro.db.schema import LINE_TABLES, TABLES, create_schema
from repro.indexing.projection import projected_match_probability
from repro.ocr.corpus import make_ca
from repro.ocr.engine import SimulatedOcrEngine
from repro.ocr.noise import NoiseModel
from repro.query.like import compile_like
from repro.query.memo import KernelMemo
from repro.sfa import serialize
from repro.sfa.kernel import KERNEL_VERSION, kernel_from_bytes
from repro.sfa.model import SfaError

from .legacy import legacy_copy


@pytest.fixture(scope="module")
def loaded_db():
    """A small CA corpus ingested once for the whole module."""
    db = StaccatoDB(k=8, m=10)
    dataset = make_ca(num_docs=2, lines_per_doc=6)
    engine = SimulatedOcrEngine(NoiseModel(tail_mass=0.0), seed=13)
    db.ingest(dataset, engine)
    yield db
    db.close()


class TestSchema:
    """The layout guard: what a file holds is what ``schema`` declares,
    every table of it is read by ``src/``, and a line costs what the
    ledger says -- so a write-only table fails here, not at a re-anchor."""

    #: One statement under ``src/repro`` that reads each table's payload;
    #: reviewed when it changes.  A table nothing reads is one to delete.
    READERS = {
        "Documents": ("db/sql.py", "FROM Documents"),
        "MasterData": ("db/storage.py", "SELECT DocId, SFANum FROM MasterData"),
        "GroundTruth": ("db/engine.py", "SELECT DataKey, Data FROM GroundTruth"),
        "kMAPData": ("db/storage.py", "SELECT Data, LogProb FROM kMAPData"),
        "StaccatoGraph": ("db/storage.py", "SELECT GraphBlob FROM StaccatoGraph"),
        "CompiledKernel": (
            "db/storage.py",
            "SELECT DataKey, Fingerprint, KernelBlob FROM CompiledKernel",
        ),
        "InvertedIndex": (
            "db/engine.py",
            "SELECT DataKey, U, V, Rank, Offset FROM InvertedIndex",
        ),
        "IndexTerms": ("db/engine.py", "SELECT Term FROM IndexTerms"),
        "IndexMeta": ("db/storage.py", "SELECT Key, Value FROM {schema}.IndexMeta"),
    }

    def test_tables_created(self):
        conn = sqlite3.connect(":memory:")
        create_schema(conn)
        names = [
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        ]
        assert sorted(names) == sorted(TABLES)
        assert storage.legacy_tables(conn) == ()
        for table, columns in LINE_TABLES.items():
            declared = [row[1] for row in conn.execute(f"PRAGMA table_info({table})")]
            assert columns[0] == "DataKey" and sorted(columns) == sorted(declared)

    def test_every_table_has_a_reader_under_src(self):
        assert set(self.READERS) == set(TABLES)
        root = os.path.dirname(repro.__file__)
        for table, (module, statement) in self.READERS.items():
            assert table in statement
            with open(os.path.join(root, module), encoding="utf-8") as source:
                assert statement in source.read(), (table, module)

    def test_bytes_per_line_at_the_production_parameters(self, tmp_path):
        path = str(tmp_path / "sized.db")
        with StaccatoDB(path, k=25, m=40) as db:
            lines = db.ingest(
                make_ca(num_docs=3, lines_per_doc=8), SimulatedOcrEngine(seed=7)
            )
            assert lines == 24
            stored = {a: db.storage_bytes(a) for a in ("kmap", "fullsfa", "staccato")}
        per_line = os.path.getsize(path) / lines
        assert per_line <= 90 * 1024
        # Figure 20's order, and the approaches' blobs are most of the file.
        assert stored["kmap"] < stored["staccato"] < stored["fullsfa"]
        assert sum(stored.values()) > 0.8 * per_line * lines

    def test_idempotent(self):
        conn = sqlite3.connect(":memory:")
        create_schema(conn)
        create_schema(conn)  # must not raise


class TestIngest(object):
    def test_counts(self, loaded_db):
        assert loaded_db.num_lines == 12
        keys = storage.all_data_keys(loaded_db.conn)
        assert keys == list(range(12))

    def test_unknown_approach_rejected(self):
        db = StaccatoDB()
        with pytest.raises(ValueError):
            db.ingest(make_ca(num_docs=1, lines_per_doc=1), approaches=("bogus",))
        db.close()

    def test_storage_bytes_positive(self, loaded_db):
        for approach in ("kmap", "fullsfa", "staccato"):
            assert loaded_db.storage_bytes(approach) > 0

    def test_storage_bytes_unknown(self, loaded_db):
        with pytest.raises(ValueError):
            storage.approach_storage_bytes(loaded_db.conn, "bogus")


class TestLoaders:
    def test_fullsfa_roundtrip(self, loaded_db):
        sfa = storage.load_fullsfa(loaded_db.conn, 0)
        assert sfa.num_edges > 0
        line = make_ca(num_docs=2, lines_per_doc=6).documents[0].lines[0]
        engine = SimulatedOcrEngine(NoiseModel(tail_mass=0.0), seed=13)
        recognized = engine.recognize_line(line, line_seed=(0, 0))
        assert serialize.to_bytes(sfa) == serialize.to_bytes(recognized)

    def test_kmap_probabilities_descend(self, loaded_db):
        strings = storage.load_kmap(loaded_db.conn, 0)
        probs = [p for _, p in strings]
        assert probs == sorted(probs, reverse=True)
        assert len(strings) <= 8

    def test_kmap_truncation(self, loaded_db):
        assert len(storage.load_kmap(loaded_db.conn, 0, k=1)) == 1

    def test_staccato_graph(self, loaded_db):
        graph = storage.load_staccato(loaded_db.conn, 0)
        assert graph.num_edges <= 10
        assert graph.max_strings_per_edge() <= 8

    def test_ground_truth(self, loaded_db):
        text = storage.load_ground_truth(loaded_db.conn, 3)
        assert isinstance(text, str) and text

    def test_missing_keys_raise(self, loaded_db):
        for loader in (
            storage.load_fullsfa,
            storage.load_staccato,
            storage.load_kmap,
            storage.load_ground_truth,
        ):
            with pytest.raises(KeyError):
                loader(loaded_db.conn, 999)
        with pytest.raises(KeyError):
            storage.line_metadata(loaded_db.conn, 999)


class TestSearch:
    def test_all_approaches_return_answers(self, loaded_db):
        for approach in ("map", "kmap", "fullsfa", "staccato"):
            answers = loaded_db.search("%the%", approach=approach)
            assert answers, approach
            probs = [a.probability for a in answers]
            assert probs == sorted(probs, reverse=True)

    def test_answer_metadata(self, loaded_db):
        answers = loaded_db.search("%the%", approach="map")
        for answer in answers:
            doc_id, line_no = storage.line_metadata(loaded_db.conn, answer.line_id)
            assert (answer.doc_id, answer.line_no) == (doc_id, line_no)

    def test_num_ans_cutoff(self, loaded_db):
        answers = loaded_db.search("%the%", approach="map", num_ans=2)
        assert len(answers) <= 2

    def test_data_keys_restriction(self, loaded_db):
        answers = loaded_db.search(
            "%the%", approach="map", data_keys=[0, 1, 2]
        )
        assert {a.line_id for a in answers} <= {0, 1, 2}

    def test_unknown_approach(self, loaded_db):
        with pytest.raises(ValueError):
            loaded_db.search("%a%", approach="bogus")

    def test_a_scan_the_memo_answers_compiles_nothing(
        self, tmp_path, monkeypatch
    ):
        """The query DFA is built only when some line needs the DP."""
        path = str(tmp_path / "memo.db")
        with StaccatoDB(path, k=8, m=10) as db:
            db.ingest(make_ca(num_docs=1, lines_per_doc=3), SimulatedOcrEngine())
        compiled = []
        real = engine_module.compile_like
        monkeypatch.setattr(
            engine_module,
            "compile_like",
            lambda like: compiled.append(like) or real(like),
        )
        with StaccatoDB(path, k=8, m=10, kernel_memo=KernelMemo()) as db:
            first = db.search("%the%")
            assert compiled == ["%the%"]
            assert db.search("%the%") == first
            assert compiled == ["%the%"]

    def test_recall_ordering_regex(self, loaded_db):
        """MAP <= kMAP <= FullSFA recall on a digit-heavy regex."""
        pattern = r"REGEX:1\d\d\d"
        truth = loaded_db.ground_truth_matches(pattern)
        if not truth:
            pytest.skip("corpus sample has no matches")

        def recall(approach):
            hits = {a.line_id for a in loaded_db.search(pattern, approach=approach)}
            return len(hits & truth) / len(truth)

        assert recall("map") <= recall("kmap") + 1e-9
        assert recall("kmap") <= recall("fullsfa") + 1e-9


class TestInvertedIndexPlan:
    def test_build_and_probe(self, loaded_db):
        count = loaded_db.build_index(
            ["public", "law", "president", "congress", "united"]
        )
        assert count > 0
        postings = loaded_db.index_postings("public")
        assert postings
        assert 0.0 < loaded_db.index_selectivity("public") <= 1.0

    def test_indexed_search_matches_filescan_lines(self, loaded_db):
        """Unprojected candidates are a filescan of the candidate lines:
        the same kernels through the same evaluator, so the same floats."""
        loaded_db.build_index(["public", "law", "president", "congress"])
        pattern = r"REGEX:Public Law (8|9)\d"
        scan = loaded_db.search(pattern, approach="staccato")
        indexed = loaded_db.indexed_search(pattern, use_projection=False)
        assert indexed == scan

    def test_indexed_search_with_projection_same_lines(self, loaded_db):
        loaded_db.build_index(["public", "law"])
        pattern = r"REGEX:Public Law (8|9)\d"
        scan_lines = {a.line_id for a in loaded_db.search(pattern, "staccato")}
        proj_lines = {
            a.line_id
            for a in loaded_db.indexed_search(pattern, use_projection=True)
        }
        assert proj_lines == scan_lines

    def test_unanchored_falls_back_to_scan(self, loaded_db):
        loaded_db.build_index(["public"])
        pattern = r"REGEX:(8|9)\d"
        indexed = loaded_db.indexed_search(pattern)
        scan = loaded_db.search(pattern, approach="staccato")
        assert {a.line_id for a in indexed} == {a.line_id for a in scan}

    @pytest.mark.parametrize("use_projection", [True, False])
    def test_start_anchored_like_is_evaluated_full_line(
        self, loaded_db, use_projection
    ):
        """No leading % compiles to a whole-string DFA, which has no
        projection: its candidates are scanned, not a ValueError."""
        loaded_db.build_index(["public", "law", "president", "congress"])
        for pattern in ("Public Law%", "Public Law 8%"):
            assert loaded_db.index_covers(pattern, "staccato")
            assert loaded_db.search(pattern)
            assert loaded_db.indexed_search(
                pattern, use_projection=use_projection
            ) == loaded_db.search(pattern)
            plan, answers = execute_plan(loaded_db, pattern)
            assert plan.kind == "index"
            assert answers == loaded_db.search(pattern)

    def test_projected_candidates_equal_the_dict_projection(self, loaded_db):
        loaded_db.build_index(["public", "law", "president", "congress"])
        pattern = r"REGEX:Public Law (8|9)\d"
        query = compile_like(pattern)
        expected = {}
        for key, postings in loaded_db.index_postings("public").items():
            prob = projected_match_probability(
                storage.load_staccato(loaded_db.conn, key),
                query,
                postings,
                DEFAULT_WINDOW,
            )
            if prob > 0.0:
                expected[key] = prob
        assert expected
        answers = loaded_db.indexed_search(pattern, num_ans=None)
        assert {a.line_id: a.probability for a in answers} == expected

    def test_index_approach_validation(self, loaded_db):
        with pytest.raises(ValueError):
            loaded_db.build_index(["law"], approach="fullsfa")

    def test_kmap_index(self, loaded_db):
        loaded_db.build_index(["public", "law"], approach="kmap")
        pattern = r"REGEX:Public Law (8|9)\d"
        indexed = loaded_db.indexed_search(pattern, approach="kmap")
        scan = loaded_db.search(pattern, approach="kmap")
        assert {a.line_id for a in indexed} == {a.line_id for a in scan}
        # Restore the staccato index for other tests in this module.
        loaded_db.build_index(["public", "law", "president", "congress"])


class TestStoredKernels:
    """Files written before ``KRN2`` (or with no kernel rows at all) keep
    answering: absent and other-version rows recompile from ``SFA1`` --
    the chunk graph, and the ``FullSFAData`` copy files of that age have."""

    PATTERNS = [r"REGEX:Public Law (8|9)\d", "%the President%", "Public Law 8%"]

    def answers(self, db):
        with counters.collect() as counts:
            relation = [
                (
                    db.search(pattern),
                    db.search(pattern, approach="fullsfa"),
                    db.indexed_search(pattern),
                    db.indexed_search(pattern, use_projection=False),
                    execute_plan(db, pattern)[1],
                )
                for pattern in self.PATTERNS
            ]
        return relation, dict(counts)

    DAMAGE = [
        "UPDATE CompiledKernel SET Version = 1",
        "DELETE FROM CompiledKernel",
        "DELETE FROM CompiledKernel WHERE DataKey % 2 = 0",
        # The version tag of this build over a blob it cannot read.
        "UPDATE CompiledKernel SET KernelBlob = x'4b524e31' "
        "WHERE DataKey % 3 = 0",
    ]

    def damaged_copy(self, db, tmp_path, damage) -> str:
        return legacy_copy(db, str(tmp_path / "old.db"), damage)

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_old_or_missing_rows_answer_like_fresh_ones(
        self, loaded_db, tmp_path, damage
    ):
        loaded_db.build_index(["public", "law", "president", "congress"])
        fresh = self.answers(loaded_db)
        with StaccatoDB(
            self.damaged_copy(loaded_db, tmp_path, damage), k=8, m=10
        ) as old:
            assert old.load_index()
            assert self.answers(old) == fresh

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_old_or_missing_rows_index_like_fresh_ones(
        self, loaded_db, tmp_path, damage
    ):
        """``build_index`` streams the kernel rows; a line without a
        current one is indexed from its recompiled ``SFA1`` graph."""
        rows = "SELECT * FROM InvertedIndex ORDER BY rowid"
        terms = ["public", "law", "president", "congress"]
        count = loaded_db.build_index(terms)
        fresh = loaded_db.conn.execute(rows).fetchall()
        assert count == len(fresh) > 0
        with StaccatoDB(
            self.damaged_copy(loaded_db, tmp_path, damage), k=8, m=10
        ) as old:
            assert old.build_index(terms) == count
            assert old.conn.execute(rows).fetchall() == fresh

    UNREADABLE = (
        "UPDATE CompiledKernel SET KernelBlob = x'4b524e31' "
        "WHERE DataKey = 3 AND Approach = ?"
    )

    @pytest.mark.parametrize("memo", [False, True])
    def test_an_unreadable_fullsfa_kernel_raises_on_a_current_file(
        self, loaded_db, tmp_path, memo
    ):
        """The kernel is the only copy of a FullSFA: a row the codec
        rejects must fail the query, not shorten its answer.  The same
        damage to a chunk graph's kernel recovers from ``StaccatoGraph``."""
        path = str(tmp_path / "current.db")
        clone = sqlite3.connect(path)
        loaded_db.conn.backup(clone)
        with clone:
            clone.execute(self.UNREADABLE, ("staccato",))
        fresh = {
            approach: loaded_db.search("%the%", approach=approach, num_ans=None)
            for approach in ("staccato", "fullsfa")
        }
        assert any(a.line_id == 3 for a in fresh["fullsfa"])

        def scan(db, approach):
            return db.search("%the%", approach=approach, num_ans=None)

        def reopened():
            options = {"kernel_memo": KernelMemo()} if memo else {}
            return StaccatoDB(path, k=8, m=10, **options)

        with reopened() as db:
            for _ in range(2):  # with a memo, the second scan is a hit
                assert scan(db, "staccato") == fresh["staccato"]
                assert scan(db, "fullsfa") == fresh["fullsfa"]
        with clone:
            clone.execute(self.UNREADABLE, ("fullsfa",))
        clone.close()
        with reopened() as db:
            for _ in range(2):  # ... and takes the scan image just built
                with pytest.raises(SfaError, match="DataKey 3"):
                    scan(db, "fullsfa")
            with pytest.raises(SfaError):
                storage.load_fullsfa(db.conn, 3)
            assert scan(db, "staccato") == fresh["staccato"]

    def test_keyed_fetch_returns_only_the_asked_current_rows(self, loaded_db):
        everything = storage.load_kernel_blobs(loaded_db.conn, "staccato")
        assert set(everything) == set(storage.all_data_keys(loaded_db.conn))
        some = storage.load_kernel_blobs(loaded_db.conn, "staccato", [3, 1, 999])
        assert some == {1: everything[1], 3: everything[3]}
        assert storage.load_kernel_blobs(loaded_db.conn, "staccato", []) == {}
        many = list(range(-2000, 2000))  # several IN-list chunks
        assert storage.load_kernel_blobs(
            loaded_db.conn, "staccato", many
        ) == everything

    def test_stored_fingerprint_is_the_blob_digest(self, loaded_db):
        rows = loaded_db.conn.execute(
            "SELECT Version, Fingerprint, KernelBlob FROM CompiledKernel"
        ).fetchall()
        assert rows
        for version, fingerprint, blob in rows:
            assert version == KERNEL_VERSION
            assert kernel_from_bytes(blob).fingerprint == fingerprint

    def test_chunk_graph_blobs_are_smaller_than_krn1(self, loaded_db):
        """Run-length destinations pay for the ids and forward masses."""
        for _, blob in storage.load_kernel_blobs(
            loaded_db.conn, "staccato"
        ).values():
            kernel = kernel_from_bytes(blob)
            krn1 = (
                26
                + 4 * (kernel.num_nodes + 1)
                + 8 * kernel.num_nodes
                + sum(4 + len(sym.encode()) for sym in kernel.symbols)
                + 16 * kernel.num_steps
            )
            assert len(blob) < krn1


class TestContextManager:
    def test_with_statement(self):
        with StaccatoDB() as db:
            assert db.num_lines == 0
