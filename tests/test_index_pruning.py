"""The index plan prunes projected candidates with the scan image's pair bits.

A projected candidate whose line cannot spell a character pair every
match contains scores 0 without being fetched, decoded or replayed.
That is an optimisation of which candidates are read, never of what is
computed, so everything here is a differential against a handle that
rules nothing out (its image never fits the budget) over the same file:
the same ranked relation bit for bit, the same probe and scan counters,
and exactly the pruned candidates moved from the DP into
``lines_pruned``.
"""

from __future__ import annotations

import shutil

import pytest

from repro import counters
from repro.db import storage
from repro.db.engine import StaccatoDB
from repro.db.planner import execute_plan
from repro.query import memo as memo_module
from repro.query.eval_kernel import spelled_pairs
from repro.query.like import compile_like
from repro.query.memo import KernelMemo
from repro.sfa.kernel import kernel_from_bytes

from .test_index_coverage import DICTIONARY, K, M, docs, ocr
from .test_observability import traced

#: Left-anchored by a dictionary term, each; some spell a pair few lines
#: spell (``w ``, ``8``/``9`` after a space), ``Law zq`` one no line does.
PATTERNS = [
    r"REGEX:Public Law",
    r"REGEX:Public Law (8|9)\d",
    "%Congress %",
    "%Congress shall%",
    "%President of%",
    "%United States%",
    "%Law zq%",
    r"REGEX:Law \d",
    "%Public %",
]


@pytest.fixture(scope="module")
def base_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("index_pruning") / "base.db")
    with StaccatoDB(path, k=K, m=M) as db:
        db.ingest(docs(0, 1, 2), ocr())
        db.build_index(DICTIONARY)
    return path


@pytest.fixture
def path(base_path, tmp_path):
    copy = str(tmp_path / "copy.db")
    shutil.copy(base_path, copy)
    return copy


def handle(path, memo=None) -> StaccatoDB:
    return StaccatoDB(path, k=K, m=M, kernel_memo=memo)


def run(call):
    with counters.collect() as counts:
        answers = call()
    return [(a.line_id, a.probability) for a in answers], dict(counts)


def unspelled_candidates(db: StaccatoDB, pattern: str) -> set[int]:
    """The anchor's candidates whose stored kernel cannot spell every
    required pair, decided from the kernels themselves."""
    pairs = compile_like(pattern).required_pairs
    candidates, _ = db.index_probe(db.index_anchor(pattern, "staccato"))
    stored = storage.load_kernel_blobs(db.conn, "staccato", list(candidates))
    out = set()
    for key in candidates:
        spelled = spelled_pairs(kernel_from_bytes(stored[key][1]))
        if spelled is not None and not pairs <= spelled:
            out.add(key)
    return out


class TestSameAsAPlainHandle:
    @pytest.mark.parametrize("plan", ["indexed", "planned"])
    def test_answers_and_counters(self, path, plan, monkeypatch):
        # With no image retained, a handle rules candidates out on the
        # image it builds for its first query only: ``held`` is a fresh
        # handle per query, ``plain`` one whose first build is behind it
        # and which caches no result, so each of its queries is cold.
        monkeypatch.setattr(memo_module, "SCAN_IMAGE_BUDGET_BYTES", 0)
        pruned_somewhere = False
        with handle(path, KernelMemo(capacity=0)) as plain:
            plain.search("%Law%")
            assert not plain.kernel_memo.image_fits("staccato")
            for pattern in PATTERNS:
                assert plain.index_covers(pattern, "staccato"), pattern
                if plan == "indexed":
                    call = lambda db: db.indexed_search(pattern, num_ans=None)
                    projected = True
                else:
                    kind = execute_plan(plain, pattern)[0].kind
                    call = lambda db: execute_plan(db, pattern, num_ans=None)[1]
                    projected = kind == "index"
                with handle(path, KernelMemo()) as held:
                    got, held_counts = run(lambda: call(held))
                want, plain_counts = run(lambda: call(plain))
                assert got == want, pattern
                for name in ("index_candidates", "postings_probed", "lines_scanned"):
                    assert held_counts.get(name) == plain_counts.get(name), name
                assert held_counts.get("dp_cells", 0) <= plain_counts.get(
                    "dp_cells", 0
                )
                expected = len(unspelled_candidates(plain, pattern)) if projected else 0
                pruned_somewhere |= expected > 0
                assert (
                    held_counts.get("lines_pruned", 0)
                    - plain_counts.get("lines_pruned", 0)
                    == expected
                ), pattern
        assert pruned_somewhere, "the patterns must rule out some candidate"

    def test_a_ruled_out_candidate_is_never_fetched(self, path, monkeypatch):
        fetched: list[int] = []
        keyed = storage.load_kernel_blobs

        def recording(conn, approach, keys=None):
            if keys is not None:
                fetched.extend(keys)
            return keyed(conn, approach, keys)

        pattern = r"REGEX:Public Law"
        with handle(path, KernelMemo()) as held:
            candidates, _ = held.index_probe("public")
            ruled_out = unspelled_candidates(held, pattern)
            assert ruled_out and set(candidates) - ruled_out
            monkeypatch.setattr(storage, "load_kernel_blobs", recording)
            held.indexed_search(pattern)
        assert sorted(fetched) == sorted(set(candidates) - ruled_out)


class TestImage:
    def test_over_budget_image_is_not_built_per_query(self, path, monkeypatch):
        monkeypatch.setattr(memo_module, "SCAN_IMAGE_BUDGET_BYTES", 0)
        memo = KernelMemo()
        with handle(path, memo) as held, handle(path) as plain:
            for pattern in PATTERNS[:5]:
                assert held.indexed_search(pattern) == plain.indexed_search(
                    pattern
                ), pattern
        assert memo.stats()["scan_image"]["staccato"]["builds"] <= 1
        assert not memo.image_fits("staccato")

    def test_image_fits_until_a_build_is_not_retained(self, path, monkeypatch):
        memo = KernelMemo()
        assert memo.image_fits("staccato")
        assert not memo.image_fits("staccato", held=True)  # none built yet
        with handle(path, memo) as db:
            monkeypatch.setattr(memo_module, "SCAN_IMAGE_BUDGET_BYTES", -1)
            db.search("%a%")
            assert not memo.image_fits("staccato")
            assert memo.image_fits("fullsfa")
            monkeypatch.undo()
            db.search("%e%")  # the next filescan builds it again, and keeps it
        assert memo.image_fits("staccato")
        assert memo.image_fits("staccato", held=True)

    def test_a_private_memo_builds_no_image_for_an_index_query(
        self, path, monkeypatch
    ):
        # A handle opened without a memo may answer one query (the CLI):
        # its index query reads only the candidates, never the whole file.
        reads: list = []
        keyed = storage.load_kernel_blobs

        def recording(conn, approach, keys=None):
            reads.append(None if keys is None else sorted(keys))
            return keyed(conn, approach, keys)

        pattern = r"REGEX:Public Law"
        with handle(path) as plain:
            candidates, _ = plain.index_probe("public")
            ruled_out = unspelled_candidates(plain, pattern)
            monkeypatch.setattr(storage, "load_kernel_blobs", recording)
            plain.indexed_search(pattern)
            assert reads == [sorted(candidates)]
            assert plain.kernel_memo.stats()["scan_image"] == {}
            plain.search("%Law%")  # one bulk read: the image, kept
            del reads[:]
            plain.indexed_search(pattern)
        assert reads == [sorted(set(candidates) - ruled_out)]

    def test_a_line_another_handle_ingests_is_judged_on_fresh_bits(
        self, tmp_path
    ):
        path = str(tmp_path / "late.db")
        with StaccatoDB(path, k=K, m=M) as db:
            db.ingest(docs(0), ocr())
            db.build_index(DICTIONARY)
        memo = KernelMemo()
        pattern = r"REGEX:Public Law"
        with handle(path, memo) as held:
            before = {a.line_id for a in held.indexed_search(pattern, num_ans=None)}
            with handle(path) as writer:
                writer.ingest(docs(1), ocr())
            root, after = traced(held.indexed_search, pattern, num_ans=None)
            (ev,) = [c for c in root.children if c.name == "engine_eval"]
            assert ev.attrs["image"] == "built"
            with handle(path) as plain:
                assert after == plain.indexed_search(pattern, num_ans=None)
        late = {a.line_id for a in after} - before
        assert late, "the corpus must put a match in the second ingest"
        assert memo.stats()["scan_image"]["staccato"]["builds"] == 2


class TestObservability:
    def eval_span(self, db, pattern):
        root, _ = traced(db.indexed_search, pattern)
        (ev,) = [c for c in root.children if c.name == "engine_eval"]
        return ev

    def test_engine_eval_says_where_the_bits_came_from(self, path):
        pattern = "%Congress %"
        with handle(path, KernelMemo()) as held, handle(path) as plain:
            ruled_out = len(unspelled_candidates(plain, pattern))
            built = self.eval_span(held, pattern)
            assert built.attrs["image"] == "built"
            assert built.attrs["image_lines"] == plain.num_lines
            assert built.attrs["pruned"] == ruled_out > 0
            assert self.eval_span(held, "%Congress shall%").attrs["image"] == "hit"
            none = self.eval_span(plain, pattern)
            assert none.attrs["image"] == "none"
            assert none.attrs["image_lines"] == 0 and none.attrs["pruned"] == 0
            plain.search("%Law%")  # a filescan leaves its image current
            hit = self.eval_span(plain, pattern)
            assert hit.attrs["image"] == "hit"
            assert hit.attrs["pruned"] == ruled_out
