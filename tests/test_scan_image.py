"""The scan image: one decoded, laid-out kernel batch per shard and approach.

A filescan reads the ``(DataKey, Fingerprint)`` listing, probes the
handle's memo, and evaluates what is left over the *scan image* seeded
at those lines only.  The image is an optimisation of where the kernels
come from, never of what is computed, so everything here is a
differential: subset seeding against per-kernel evaluation, a warm
handle against a fresh one per query (answers *and* counters), and --
after every way the table can change under the image -- against a fresh
handle, with exactly one rebuild.
"""

import random
import shutil
import sqlite3
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import counters
from repro.automata.dfa import dfa_for_pattern
from repro.db import storage
from repro.db.engine import StaccatoDB
from repro.db.sql import execute_select
from repro.ocr.corpus import make_ca, make_lt
from repro.ocr.engine import SimulatedOcrEngine
from repro.query import memo as memo_module
from repro.query.eval_kernel import HAVE_NUMPY, KernelBatch, KernelEvaluator
from repro.query.memo import KernelMemo
from repro.service import QueryService
from repro.sfa.builder import random_chain_sfa
from repro.sfa.kernel import compile_kernel, kernel_from_bytes
from repro.sfa.model import Sfa, SfaError

from .strategies import chain_sfas, chunk_sfas, dag_sfas, regex_patterns
from .test_observability import traced

K, M = 4, 6
APPROACH = "staccato"
PATTERNS = [
    "%Congress%",
    "%the%",
    "%a%",
    "REGEX:(a|e)\\x",
    "REGEX:\\d\\d",
    "%shall%",
    "The%",  # anchored: the general (non-absorbing) DP
    "%",  # matches the empty string: the backward-mass shortcut
]

any_sfas = st.one_of(
    chain_sfas(max_length=6), chunk_sfas(max_chunks=5), dag_sfas(max_length=7)
)


# ----------------------------------------------------------------------
# (a) subset seeding == per-kernel evaluation
# ----------------------------------------------------------------------
@st.composite
def batches_and_subsets(draw):
    sfas = draw(st.lists(any_sfas, min_size=1, max_size=6))
    subset = draw(
        st.lists(
            st.integers(0, len(sfas) - 1), unique=True, max_size=len(sfas)
        )
    )
    return sfas, subset


def lead_in(sfa: Sfa, sources: list[tuple[int, str]]) -> Sfa:
    """``sfa`` plus one source node per ``(target, string)``, with an
    edge into ``sfa.nodes[target]``: the sources' ids are negative, so
    they come before the start node in the topological order and move
    its position.  No mass ever reaches them, but their steps are part
    of the program."""
    sfa = sfa.copy()
    nodes = sfa.nodes
    for i, (target, string) in enumerate(sources):
        sfa.add_edge(-1 - i, nodes[target % len(nodes)], [(string, 0.5)])
    return sfa


@st.composite
def wide_batches(draw):
    """Up to 20 kernels, some with their start node moved by
    :func:`lead_in`, and the batch's line positions in a shuffled order."""
    sources = st.lists(
        st.tuples(st.integers(0, 20), st.sampled_from(["a", "b", "ab", "x"])),
        max_size=2,
    )
    drawn = draw(
        st.lists(st.tuples(any_sfas, sources), min_size=1, max_size=20)
    )
    kernels = [compile_kernel(lead_in(sfa, extra)) for sfa, extra in drawn]
    order = draw(st.permutations(range(len(kernels))))
    return kernels, order


class TestSubsetSeeding:
    @given(
        batches_and_subsets(),
        st.one_of(regex_patterns(), st.just("(a|b)*")),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_lines_subset_equals_per_kernel(self, drawn, pattern, anywhere):
        """Any subset, any order: probabilities and both counters of the
        seeded lines are those of evaluating their kernels alone."""
        sfas, subset = drawn
        query = dfa_for_pattern(pattern, match_anywhere=anywhere)
        kernels = [compile_kernel(sfa) for sfa in sfas]
        expected = [KernelEvaluator(query).evaluate(kernels[i]) for i in subset]
        layouts = [False, True] if HAVE_NUMPY else [False]
        for use_numpy in layouts:
            batch = KernelBatch(kernels, use_numpy=use_numpy)
            assert batch.laid_out == use_numpy
            got = KernelEvaluator(query).evaluate_batch(batch, lines=subset)
            assert got == expected, use_numpy

    @given(wide_batches(), regex_patterns(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_wide_batches_single_lines_and_shuffled_wholes(
        self, drawn, pattern, anywhere
    ):
        """Up to 20 kernels of differing lengths and start positions, so
        seeded lines end before ``max_steps`` and some steps carry no
        seeded emission: every single line, and the whole batch in
        shuffled order (the identity program), equal their kernels
        evaluated alone."""
        kernels, order = drawn
        query = dfa_for_pattern(pattern, match_anywhere=anywhere)
        expected = [KernelEvaluator(query).evaluate(kernel) for kernel in kernels]
        layouts = [False, True] if HAVE_NUMPY else [False]
        for use_numpy in layouts:
            batch = KernelBatch(kernels, use_numpy=use_numpy)
            for ln in range(len(kernels)):
                got = KernelEvaluator(query).evaluate_batch(batch, lines=[ln])
                assert got == [expected[ln]], (use_numpy, ln)
            got = KernelEvaluator(query).evaluate_batch(batch, lines=order)
            assert got == [expected[ln] for ln in order], use_numpy

    def test_a_repeated_line_is_refused(self):
        """Seeding a line twice is an error on both layouts, not a line
        counted twice."""
        kernels = [
            compile_kernel(random_chain_sfa(random.Random(seed), 6))
            for seed in range(3)
        ]
        evaluator = KernelEvaluator(dfa_for_pattern("a", match_anywhere=True))
        layouts = [False, True] if HAVE_NUMPY else [False]
        for use_numpy in layouts:
            batch = KernelBatch(kernels, use_numpy=use_numpy)
            for lines in ([1, 1], [0, 2, 0]):
                with pytest.raises(ValueError):
                    evaluator.evaluate_batch(batch, lines=lines)
        with pytest.raises(ValueError):
            evaluator.evaluate_batch(kernels, lines=[2, 2])

    def test_layout_mismatch_is_refused(self):
        batch = KernelBatch([], use_numpy=False)
        with pytest.raises(ValueError):
            KernelEvaluator(
                dfa_for_pattern("a", match_anywhere=True)
            ).evaluate_batch(batch, use_numpy=True)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="the layout needs numpy")
    def test_laid_out_batch_sheds_the_kernels(self, base_path):
        with StaccatoDB(base_path, k=K, m=M) as db:
            stored = storage.load_kernel_blobs(db.conn, APPROACH)
        batch = KernelBatch(
            [kernel_from_bytes(blob) for _, blob in stored.values()]
        )
        assert batch.kernels is None and batch.nbytes > 0
        assert len(batch.start_backward) == batch.num_lines == len(stored)


# ----------------------------------------------------------------------
# Engine fixtures: one ingested file per module, copied per test
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def base_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("scan_image") / "base.db")
    with StaccatoDB(path, k=K, m=M) as db:
        db.ingest(
            make_ca(num_docs=3, lines_per_doc=4, seed=3),
            SimulatedOcrEngine(seed=5),
            # The tests compare both automaton approaches' images.
            approaches=("kmap", "fullsfa", "staccato"),
        )
    return path


@pytest.fixture
def path(base_path, tmp_path):
    copy = str(tmp_path / "copy.db")
    shutil.copy(base_path, copy)
    return copy


def open_pair(path, memo=None):
    """(memo-holding handle, its memo, plain handle) over one file."""
    memo = memo if memo is not None else KernelMemo()
    return (
        StaccatoDB(path, k=K, m=M, kernel_memo=memo),
        memo,
        StaccatoDB(path, k=K, m=M),
    )


def cold(path, call):
    """``call`` on a fresh handle, and the counters it flushed: the cold
    reference (an image built for it, an empty memo)."""
    with StaccatoDB(path, k=K, m=M) as fresh, counters.collect() as counts:
        result = call(fresh)
    return result, dict(counts)


def image_stats(memo, approach=APPROACH):
    return memo.stats()["scan_image"].get(
        approach, {"lines": 0, "bytes": 0, "builds": 0, "hits": 0}
    )


def assert_same_as_fresh_plain(db, path, patterns=PATTERNS, approach=APPROACH):
    with StaccatoDB(path, k=K, m=M) as fresh:
        for pattern in patterns:
            assert db.search(pattern, approach=approach) == fresh.search(
                pattern, approach=approach
            ), pattern


# ----------------------------------------------------------------------
# (b) warm handle == a fresh handle per query, answers and counters
# ----------------------------------------------------------------------
class TestEngineDifferential:
    @pytest.mark.parametrize("approach", ["staccato", "fullsfa"])
    def test_search_pattern_after_pattern(self, path, approach):
        memo = KernelMemo()
        with StaccatoDB(path, k=K, m=M, kernel_memo=memo) as held:
            lines = held.num_lines
            for pattern in PATTERNS:

                def scan(db):
                    return db.search(pattern, approach=approach)

                with counters.collect() as got:
                    answers = scan(held)
                assert (answers, dict(got)) == cold(path, scan), pattern
                assert got["memo_misses"] == lines and "memo_hits" not in got
            stats = image_stats(memo, approach)
            assert stats["builds"] == 1
            assert stats["hits"] == len(PATTERNS) - 1
            assert stats["lines"] == lines

    def test_sql_over_a_strict_subset_of_documents(self, path):
        memo = KernelMemo()
        with StaccatoDB(path, k=K, m=M, kernel_memo=memo) as held:
            for pattern in PATTERNS[:6]:
                sql = (
                    "SELECT DocId, Loss FROM Claims "
                    f"WHERE DocData LIKE '{pattern}' AND DocId >= 1"
                )
                with counters.collect() as got:
                    rows = execute_select(held, sql)
                assert (rows, dict(got)) == cold(
                    path, lambda db: execute_select(db, sql)
                ), pattern
                # Two of three documents: the image is seeded on 8 of
                # its 12 lines and the other 4 cost nothing.
                assert got["lines_scanned"] == 8
            assert image_stats(memo)["builds"] == 1

    def test_subset_in_any_order(self, path):
        held, _, plain = open_pair(path)
        with held, plain:
            keys = [7, 2, 11, 0]
            assert held.search("%the%", data_keys=keys) == plain.search(
                "%the%", data_keys=keys
            )

    def test_memo_hits_answer_without_the_image(self, path):
        held, memo, plain = open_pair(path)
        with held, plain:
            first = held.search("%the%")
            with counters.collect() as again:
                repeat = held.search("%the%")
            assert repeat == first == plain.search("%the%")
            assert again["memo_hits"] == held.num_lines
            assert "dp_cells" not in again
            assert image_stats(memo)["hits"] == 0  # never consulted


# ----------------------------------------------------------------------
# (c) staleness: every way the table can change under the image
# ----------------------------------------------------------------------
def _line_tables(conn):
    """Every table keyed by DataKey (all but Documents / IndexMeta)."""
    tables = []
    for (name,) in conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'"
    ):
        columns = [row[1] for row in conn.execute(f"PRAGMA table_info({name})")]
        if "DataKey" in columns:
            tables.append(name)
    return tables


class TestStaleness:
    def warmed(self, path):
        held, memo, plain = open_pair(path)
        plain.close()
        held.search(PATTERNS[0])
        assert image_stats(memo)["builds"] == 1
        return held, memo

    def test_ingest_through_the_same_handle(self, path):
        held, memo = self.warmed(path)
        with held:
            held.ingest(
                make_lt(num_docs=1, lines_per_doc=3, seed=9),
                SimulatedOcrEngine(seed=6),
            )
            assert_same_as_fresh_plain(held, path)
            stats = image_stats(memo)
            assert stats["builds"] == 2 and stats["lines"] == 15

    def test_line_deleted_through_a_second_connection(self, path):
        held, memo = self.warmed(path)
        with held:
            other = sqlite3.connect(path)
            with other:
                for table in _line_tables(other):
                    other.execute(f"DELETE FROM {table} WHERE DataKey = 5")
            other.close()
            assert_same_as_fresh_plain(held, path)
            assert all(a.line_id != 5 for a in held.search("%a%", num_ans=None))
            stats = image_stats(memo)
            assert stats["builds"] == 2 and stats["lines"] == 11

    def test_kernel_swapped_for_another_lines(self, path):
        held, memo = self.warmed(path)
        with held:
            before = {a.line_id: a for a in held.search("%a%", num_ans=None)}
            other = sqlite3.connect(path)
            with other:
                fingerprint, blob = other.execute(
                    "SELECT Fingerprint, KernelBlob FROM CompiledKernel "
                    "WHERE DataKey = 2 AND Approach = ?",
                    (APPROACH,),
                ).fetchone()
                other.execute(
                    "UPDATE CompiledKernel SET Fingerprint = ?, KernelBlob = ? "
                    "WHERE DataKey = 6 AND Approach = ?",
                    (fingerprint, blob, APPROACH),
                )
            other.close()
            assert_same_as_fresh_plain(held, path)
            after = {a.line_id: a for a in held.search("%a%", num_ans=None)}
            assert after[6].probability == before[2].probability
            assert image_stats(memo)["builds"] == 2

    def test_version_change_sends_the_line_to_the_legacy_path(self, path):
        """There is no other path: a kernel read does not filter on the
        ``Version`` column (the blob's own header is checked when it is
        decoded), so rewriting the column changes neither the listing,
        nor the image, nor an answer."""
        held, memo = self.warmed(path)
        with held:
            before = held.search("%a%", num_ans=None)
            other = sqlite3.connect(path)
            with other:
                other.execute(
                    "UPDATE CompiledKernel SET Version = 1 "
                    "WHERE DataKey = 4 AND Approach = ?",
                    (APPROACH,),
                )
            other.close()
            assert_same_as_fresh_plain(held, path)
            assert held.search("%a%", num_ans=None) == before
            stats = image_stats(memo)
            assert stats["builds"] == 1 and stats["lines"] == 12

    def test_two_files_sharing_one_memo(self, path, tmp_path):
        """The replica shape, with replicas that differ: one memo object,
        two files.  Each scan validates against its own file."""
        other_path = str(tmp_path / "other.db")
        with StaccatoDB(other_path, k=K, m=M) as other:
            other.ingest(
                make_lt(num_docs=2, lines_per_doc=3, seed=4),
                SimulatedOcrEngine(seed=8),
            )
        memo = KernelMemo()
        first = StaccatoDB(path, k=K, m=M, kernel_memo=memo)
        second = StaccatoDB(other_path, k=K, m=M, kernel_memo=memo)
        with first, second:
            # Fresh patterns each round: a repeated one would be a memo
            # hit (content-addressed) and never consult the image.
            for builds, (db, file, patterns) in enumerate(
                [
                    (first, path, PATTERNS[:3]),
                    (second, other_path, PATTERNS[:3]),
                    (first, path, PATTERNS[3:6]),
                ],
                start=1,
            ):
                assert_same_as_fresh_plain(db, file, patterns)
                assert image_stats(memo)["builds"] == builds

    def test_identical_replicas_share_the_image(self, path, tmp_path):
        replica = str(tmp_path / "replica.db")
        shutil.copy(path, replica)
        memo = KernelMemo()
        first = StaccatoDB(path, k=K, m=M, kernel_memo=memo)
        second = StaccatoDB(replica, k=K, m=M, kernel_memo=memo)
        with first, second:
            first.search(PATTERNS[0])
            assert_same_as_fresh_plain(second, replica, PATTERNS[1:4])
            stats = image_stats(memo)
            assert stats["builds"] == 1 and stats["hits"] == 3


# ----------------------------------------------------------------------
# (d) a hit reads the listing, never a blob
# ----------------------------------------------------------------------
def blob_reads(statements) -> int:
    return sum("KernelBlob" in sql for sql in statements)


class TestListingOnlyFetch:
    def test_no_blob_statement_on_a_hit(self, path):
        with StaccatoDB(path, k=K, m=M, kernel_memo=KernelMemo()) as held:
            statements = []
            held.conn.set_trace_callback(statements.append)
            held.search(PATTERNS[0])
            assert blob_reads(statements)
            del statements[:]
            held.search(PATTERNS[1])  # second distinct pattern: image hit
            assert statements and not blob_reads(statements)
            del statements[:]
            held.search(PATTERNS[1])  # fully memo-hit scan
            assert statements and not blob_reads(statements)

    def test_a_plain_handle_builds_one_image(self, path):
        """A handle opened with no memo holds a private one: distinct
        patterns build one image and read blobs in the first scan only,
        and a write through a second connection costs one rebuild."""
        with StaccatoDB(path) as plain:
            statements = []
            plain.conn.set_trace_callback(statements.append)
            plain.search(PATTERNS[0])
            assert blob_reads(statements) == 1
            del statements[:]
            for pattern in PATTERNS[1:]:
                plain.search(pattern)
            assert statements and not blob_reads(statements)
            assert image_stats(plain.kernel_memo)["builds"] == 1
            other = sqlite3.connect(path)
            with other:
                for table in _line_tables(other):
                    other.execute(f"DELETE FROM {table} WHERE DataKey = 5")
            other.close()
            for pattern in ("%of%", "%in%", "%to%"):
                plain.search(pattern)
            assert blob_reads(statements) == 1
            stats = image_stats(plain.kernel_memo)
            assert stats["builds"] == 2 and stats["lines"] == 11


# ----------------------------------------------------------------------
# (e) damaged blob under an intact fingerprint
# ----------------------------------------------------------------------
class TestRejectedBlob:
    def test_a_rejected_blob_fails_the_scan_and_installs_no_image(self, path):
        """A blob the codec rejects is the line's only kernel: the scan
        fails naming it, on a shared memo and a private one alike, and
        no image holding the other lines is kept in its place."""
        other = sqlite3.connect(path)
        with other:
            other.execute(
                "UPDATE CompiledKernel SET KernelBlob = ? "
                "WHERE DataKey = 3 AND Approach = ?",
                (b"KRN2 but not really", APPROACH),
            )
        other.close()
        held, memo, plain = open_pair(path)
        with held, plain:
            for pattern in PATTERNS[:2]:
                for db in (held, plain):
                    with pytest.raises(SfaError, match="DataKey 3"):
                        db.search(pattern, num_ans=None)
            assert image_stats(memo)["lines"] == 0
            listing = storage.kernel_listing(held.conn, APPROACH)
            assert memo.scan_image(APPROACH, listing) is None


# ----------------------------------------------------------------------
# (f) over budget: build, use, do not retain
# ----------------------------------------------------------------------
class TestBudget:
    def test_zero_budget_retains_nothing(self, path, monkeypatch):
        monkeypatch.setattr(memo_module, "SCAN_IMAGE_BUDGET_BYTES", 0)
        held, memo, plain = open_pair(path)
        with held, plain:
            for pattern in PATTERNS[:4]:
                assert held.search(pattern) == plain.search(pattern)
            stats = image_stats(memo)
            assert stats == {"lines": 0, "bytes": 0, "builds": 4, "hits": 0}

    def test_budget_is_shared_by_both_approaches(self, path, monkeypatch):
        held, memo, plain = open_pair(path)
        with held, plain:
            held.search(PATTERNS[0], approach="staccato")
            small = image_stats(memo, "staccato")["bytes"]
            monkeypatch.setattr(memo_module, "SCAN_IMAGE_BUDGET_BYTES", small)
            assert held.search(PATTERNS[0], approach="fullsfa") == plain.search(
                PATTERNS[0], approach="fullsfa"
            )
            assert image_stats(memo, "fullsfa")["bytes"] == 0
            assert image_stats(memo, "staccato")["bytes"] == small


# ----------------------------------------------------------------------
# (g) the image is immutable
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_NUMPY, reason="the layout needs numpy")
def test_image_arrays_refuse_writes(path):
    held, memo, plain = open_pair(path)
    with held, plain:
        held.search(PATTERNS[0])
        image = memo.scan_image(
            APPROACH, storage.kernel_listing(held.conn, APPROACH)
        )
        batch = image.batch
        arrays = [
            batch.syms_flat,
            batch.probs_flat,
            batch.dst_flat,
            batch.back_flat,
            batch.e_counts,
            batch.start_pos,
            batch.final_pos,
            batch.pair_bits,
            batch.any_pair,
        ]
        for _, idx, char_idx in batch.compose_plan:
            arrays += [idx, char_idx]
        for array in arrays:
            assert array.size and not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0
        assert image.nbytes == sum(array.nbytes for array in arrays)


# ----------------------------------------------------------------------
# Observability: spans, /stats, /metrics
# ----------------------------------------------------------------------
class TestObservability:
    def scan_span(self, db, pattern, **kwargs):
        root, _ = traced(db.search, pattern, **kwargs)
        (scan,) = [c for c in root.children if c.name == "engine_scan"]
        return scan

    def test_engine_scan_span_says_where_the_kernels_came_from(self, path):
        with StaccatoDB(path, k=K, m=M) as held:
            built = self.scan_span(held, PATTERNS[0])
            assert built.attrs["image"] == "built"
            assert built.attrs["image_lines"] == 12
            (build,) = [
                c for c in built.children if c.name == "scan_image_build"
            ]
            assert build.attrs["lines"] == 12 and build.attrs["retained"]
            for stage in ("fetch_ms", "decode_ms", "layout_ms"):
                assert build.attrs[stage] >= 0.0
            hit = self.scan_span(held, PATTERNS[1])
            assert hit.attrs["image"] == "hit" and not hit.children
            memo_hit = self.scan_span(held, PATTERNS[1])
            assert memo_hit.attrs["image"] == "none"
            assert memo_hit.attrs["image_lines"] == 0
            # k-MAP strings are a stored kernel too, with their own
            # image; MAP derives its rank-0 kernels from them into one
            # more, built once and hit by the next distinct pattern.
            for approach in ("kmap", "map"):
                built = self.scan_span(held, "%a%", approach=approach)
                assert built.attrs["image"] == "built"
                assert built.attrs["image_lines"] == 12
                hit = self.scan_span(held, "%e%", approach=approach)
                assert hit.attrs["image"] == "hit"

    def test_stats_and_metrics(self, path):
        service = QueryService(path, k=K, m=M)
        try:
            for pattern in PATTERNS[:3]:
                service.search({"pattern": pattern})
            block = service.stats()["shards"][0]["kernel_memo"]["scan_image"]
            assert block == {
                APPROACH: {
                    "lines": 12,
                    "bytes": block[APPROACH]["bytes"],
                    "builds": 1,
                    "hits": 2,
                }
            }
            assert block[APPROACH]["bytes"] > 0
            text = service.metrics_text().text
            assert (
                f'staccato_scan_image_bytes{{shard="0",approach="{APPROACH}"}} '
                f'{block[APPROACH]["bytes"]}'
            ) in text
        finally:
            service.close()


# ----------------------------------------------------------------------
# (h) readers and a writer, concurrently
# ----------------------------------------------------------------------
def test_distinct_patterns_beside_ingests(path):
    """Four readers of distinct patterns while batches land: whichever
    image a scan validated or built, nothing raises, and once writes stop
    every pattern answers as a plain handle does."""
    service = QueryService(path, k=K, m=M, pool_size=4, cache_size=0)
    words = ["the", "of", "and", "shall", "Act", "a", "e", "in", "to", "be"]
    errors: list[BaseException] = []
    asked: list[str] = []
    stop = threading.Event()

    def reader(offset):
        try:
            turn = 0
            while not stop.is_set():
                pattern = f"%{words[(offset + turn) % len(words)]}%"
                if turn % 3 == 2:
                    pattern = f"REGEX:{words[(offset + turn) % len(words)]}\\x"
                service.search({"pattern": pattern, "num_ans": 50})
                asked.append(pattern)
                turn += 1
        except BaseException as exc:  # reported below, on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    threads = [threading.Thread(target=reader, args=(i * 3,)) for i in range(4)]
    try:
        for thread in threads:
            thread.start()
        for batch in range(3):
            (doc,) = make_lt(num_docs=1, lines_per_doc=2, seed=batch).documents
            service.ingest(
                {
                    "documents": [
                        {"doc_id": 100 + batch, "lines": list(doc.lines)}
                    ]
                }
            )
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    try:
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(asked) >= 4
        with StaccatoDB(path, k=K, m=M) as plain:
            assert plain.num_lines == 18
            for pattern in sorted(set(asked)):
                reply = service.search({"pattern": pattern, "num_ans": 50})
                expected = plain.search(pattern, num_ans=50)
                assert [
                    (row["line_id"], row["probability"])
                    for row in reply["answers"]
                ] == [(a.line_id, a.probability) for a in expected], pattern
        (shard,) = service.stats()["shards"]
        stats = shard["kernel_memo"]["scan_image"][APPROACH]
        assert stats["lines"] == 18
        # One build per table state a scan saw, plus racing builders.
        assert 1 <= stats["builds"] <= 4 + 3 * 4
    finally:
        service.close()
