"""The shipped construction loop against the loop it replaced, exactly.

``tests/oracles/construction.py`` is the pre-rewrite code, verbatim: a
copy per collapse, a topological order per helper, a BFS per probe, the
winner ranked twice, k*k products per merge.  The shipped loop
(``repro.core.approximate`` / ``repro.core.chunks`` / ``repro.sfa.paths``)
drops the repeated work and nothing else, so every comparison here is
``==`` on serialized bytes -- the stored probabilities are the answer,
not an approximation of it.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approximate import staccato_approximate
from repro.core.chunks import collapse, find_min_sfa, region_mass
from repro.db import storage
from repro.db.engine import StaccatoDB
from repro.ocr.corpus import Dataset, Document, make_ca, make_db, make_lt
from repro.ocr.engine import SimulatedOcrEngine
from repro.sfa import paths
from repro.sfa.kernel import compile_kernel, to_sfa
from repro.sfa.model import Sfa
from repro.sfa.serialize import kernel_from_bytes, kernel_to_bytes, to_bytes

from .oracles import construction as oracle
from .strategies import chain_sfas, dag_sfas, ocr_sfas

KS = (1, 2, 3, 7, 25)


def stored_bytes(sfa: Sfa) -> tuple[bytes, bytes]:
    """What ingest stores of a chunk graph: its ``SFA1`` and ``KRN2`` blobs
    (the kernel bytes also pin successor-list order and both masses)."""
    return to_bytes(sfa), kernel_to_bytes(compile_kernel(sfa))


def assert_same_construction(sfa: Sfa, m: int, k: int) -> None:
    before = stored_bytes(sfa)
    built = staccato_approximate(sfa, m, k)
    assert stored_bytes(built) == stored_bytes(oracle.staccato_approximate(sfa, m, k))
    assert stored_bytes(sfa) == before, "input SFA was mutated"


def any_m(draw, sfa: Sfa) -> int:
    return draw(st.integers(min_value=1, max_value=sfa.num_edges + 1))


class TestStaccatoApproximate:
    @given(dag_sfas(), st.data(), st.sampled_from(KS))
    @settings(max_examples=150, deadline=None)
    def test_dags(self, sfa, data, k):
        assert_same_construction(sfa, any_m(data.draw, sfa), k)

    @given(chain_sfas(), st.data(), st.sampled_from(KS))
    @settings(max_examples=60, deadline=None)
    def test_chains(self, sfa, data, k):
        assert_same_construction(sfa, any_m(data.draw, sfa), k)

    @given(ocr_sfas(), st.data(), st.sampled_from(KS))
    @settings(max_examples=100, deadline=None)
    def test_simulated_ocr_lines(self, sfa, data, k):
        assert_same_construction(sfa, any_m(data.draw, sfa), k)

    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_bad_m(self, figure1, m):
        with pytest.raises(ValueError, match="m must be"):
            staccato_approximate(figure1, m, 2)

    def test_rejects_bad_k(self, figure1):
        with pytest.raises(ValueError, match="k must be"):
            staccato_approximate(figure1, 2, 0)


class TestChunkOperations:
    """The public entry points run the loop's routines; hold each to its
    oracle on every adjacent-edge triple of random DAGs."""

    @given(ocr_sfas(max_chars=8), st.sampled_from(KS))
    @settings(max_examples=25, deadline=None)
    def test_every_triple(self, sfa, k):
        for middle in sfa.nodes:
            for pred in sfa.predecessors(middle):
                for succ in sfa.successors(middle):
                    seeds = {pred, middle, succ}
                    region = find_min_sfa(sfa, seeds)
                    assert region == oracle.find_min_sfa(sfa, seeds)
                    assert region_mass(sfa, region) == oracle.region_mass(sfa, region)
                    assert stored_bytes(collapse(sfa, region, k)) == stored_bytes(
                        oracle.collapse(sfa, region, k)
                    )


class TestKBestBetween:
    @given(dag_sfas(), st.sampled_from(KS))
    @settings(max_examples=60, deadline=None)
    def test_whole_sfa_and_every_node_pair(self, sfa, k):
        nodes = sfa.nodes
        for src in nodes[:6]:
            for dst in nodes[:6]:
                assert paths.k_best_between(sfa, src, dst, k) == oracle.k_best_between(
                    sfa, src, dst, k
                )
        assert paths.k_best_strings(sfa, k) == oracle.k_best_between(
            sfa, sfa.start, sfa.final, k
        )

    @given(ocr_sfas(), st.sampled_from(KS), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_within_a_node_subset(self, sfa, k, seed):
        rng = random.Random(seed)
        within = {node for node in sfa.nodes if rng.random() < 0.8}
        assert paths.k_best_between(
            sfa, sfa.start, sfa.final, k, within=within
        ) == oracle.k_best_between(sfa, sfa.start, sfa.final, k, within=within)


def tied_branches() -> Sfa:
    """Dyadic probabilities on parallel branches: every product below is an
    exact power of two, so (partial, emission) pairs tie in groups and
    only the string decides which of them rank inside the top k.

    The upper branch spells ``bb`` (1/4 * 1/8), the lower ``cd`` and
    ``cdd`` (1/2 * 1/4 each), so for k = 2 the join node 4 holds the
    partials ``cd``, ``cdd`` at 1/8.  The last edge emits ``x`` and ``z``
    at 1/4: all four extensions have probability 1/32 and rank
    ``cddx < cddz < cdx < cdz``.  The merge forms row 0 = (``cdx``,
    ``cdz``) and row 1 = (``cddx``) only -- (1 + 1) * (1 + 1) > 2 cuts
    ``cddz`` -- yet ``cddz`` is the second best string.
    """
    sfa = Sfa(start=0, final=1)
    sfa.add_edge(0, 2, [("b", 0.25)])
    sfa.add_edge(2, 4, [("b", 0.125)])
    sfa.add_edge(0, 3, [("c", 0.5), ("cd", 0.5)])
    sfa.add_edge(3, 4, [("d", 0.25)])
    sfa.add_edge(4, 1, [("x", 0.25), ("z", 0.25)])
    return sfa


class TestTieSafeCut:
    """The k-best merge forms only the products that can rank strictly
    inside the top k and redoes the merge in full when a product it cut
    ties the k-th kept value.  These cases need that redo: with it removed
    they return a different (wrong) string set."""

    def test_a_cut_product_wins_the_string_tie_break(self):
        sfa = Sfa(start=0, final=1)
        sfa.add_edge(0, 2, [("b", 0.5), ("ba", 0.5)])
        sfa.add_edge(2, 1, [("z", 0.5), ("zz", 0.5)])
        # All four strings have probability 1/4; ranked by string the best
        # two are 'baz' and 'bazz' -- and ('ba', 'zz') is a pair the cut
        # drops for k = 2, since (1 + 1) * (1 + 1) > 2.
        assert paths.k_best_strings(sfa, 2) == [("baz", 0.25), ("bazz", 0.25)]
        assert paths.k_best_strings(sfa, 2) == oracle.k_best_between(sfa, 0, 1, 2)

    def test_dyadic_parallel_branches(self):
        sfa = tied_branches()
        assert paths.k_best_strings(sfa, 2) == [("cddx", 1 / 32), ("cddz", 1 / 32)]
        for k in range(1, 8):
            assert paths.k_best_strings(sfa, k) == oracle.k_best_between(sfa, 0, 1, k)
            for m in range(1, 7):
                assert_same_construction(sfa, m, k)

    def test_the_dyadic_case_takes_the_redo(self, monkeypatch):
        """Guard the guard: the case above must keep exercising the redo."""
        merges = []
        real = paths._merge_top_k

        def spy(existing, partials, emissions, k):
            merged = real(existing, partials, emissions, k)
            full = sorted(
                existing
                + [(p * e.prob, s + e.string) for p, s in partials for e in emissions]
            )[:k]
            assert merged == full
            # What the cut alone would have kept (no redo).
            rows = [
                (p * e.prob, s + e.string)
                for row, (p, s) in enumerate(partials)
                for e in emissions[: k // (row + 1)]
            ]
            merges.append(sorted(existing + rows)[:k] != full)
            return merged

        monkeypatch.setattr(paths, "_merge_top_k", spy)
        paths.k_best_strings(tied_branches(), 2)
        assert any(merges), "no merge of the tie case needed the full product"


# ----------------------------------------------------------------------
# Golden: the stored bytes of a fixed corpus, so a later change cannot
# drift them silently.  Computed at commit aebfb45 (the parent of the
# in-place rewrite) with the loop that now lives in tests/oracles.
# ----------------------------------------------------------------------
GOLDEN_FINGERPRINTS_SHA256 = (
    "6593af0c031929220f24135fb5cb750459b066c7474661e7b50ec40e2e59bd11"
)


def golden_corpus() -> Dataset:
    """One CA, one LT and one DB document of three lines each."""
    documents = []
    for doc_id, maker in enumerate((make_ca, make_lt, make_db)):
        doc = maker(num_docs=1, lines_per_doc=3, seed=19).documents[0]
        documents.append(
            Document(
                doc_id=doc_id, name=doc.name, year=doc.year, loss=doc.loss,
                lines=doc.lines,
            )
        )
    return Dataset(name="golden", documents=documents)


def test_golden_stored_kernel_fingerprints():
    db = StaccatoDB(":memory:", k=25, m=40)
    try:
        assert db.ingest(golden_corpus(), SimulatedOcrEngine(seed=19)) == 9
        digest = hashlib.sha256()
        rows = db.conn.execute(
            "SELECT Fingerprint FROM CompiledKernel ORDER BY DataKey, Approach"
        ).fetchall()
        assert len(rows) == 18  # a fullsfa and a staccato kernel per line
        for (fingerprint,) in rows:
            digest.update(fingerprint.encode("ascii"))
    finally:
        db.close()
    assert digest.hexdigest() == GOLDEN_FINGERPRINTS_SHA256


def test_golden_corpus_kernels_rebuild_their_sfa1_bytes():
    """The kernel is the stored record: at the production (m, k), each
    line's ``fullsfa`` and ``staccato`` ``KRN2`` rows give back, through
    the codec and ``to_sfa``, the ``SFA1`` bytes of the SFA they were
    compiled from -- the OCR output, and the stored chunk graph."""
    ocr = SimulatedOcrEngine(seed=19)
    corpus = golden_corpus()
    with StaccatoDB(":memory:", k=25, m=40) as db:
        db.ingest(corpus, ocr)
        for data_key, doc_id, line_no, text in corpus.lines():
            recognized = ocr.recognize_line(text, line_seed=(doc_id, line_no))
            assert to_bytes(storage.load_fullsfa(db.conn, data_key)) == to_bytes(
                recognized
            )
            (graph_blob,) = db.conn.execute(
                "SELECT GraphBlob FROM StaccatoGraph WHERE DataKey = ?", (data_key,)
            ).fetchone()
            _, kernel_blob = storage.load_kernel_blobs(db.conn, "staccato")[data_key]
            assert to_bytes(to_sfa(kernel_from_bytes(kernel_blob))) == graph_blob


# ----------------------------------------------------------------------
# Deep pass (CI "full" leg only): the benchmark-shaped corpus, every
# line at the production (m, k), plus the property tests at ten times
# the examples.
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestDeep:
    def test_every_line_of_a_12_doc_corpus(self):
        engine = SimulatedOcrEngine(seed=7)
        lines = 0
        for kind, maker in enumerate((make_ca, make_lt, make_db)):
            for doc in maker(num_docs=4, lines_per_doc=8, seed=0).documents:
                for line_no, text in enumerate(doc.lines):
                    sfa = engine.recognize_line(
                        text, line_seed=(kind * 100 + doc.doc_id, line_no)
                    )
                    assert sfa.num_edges > 40
                    assert_same_construction(sfa, 40, 25)
                    assert paths.k_best_strings(sfa, 25) == oracle.k_best_between(
                        sfa, sfa.start, sfa.final, 25
                    )
                    lines += 1
        assert lines == 96

    @given(dag_sfas(max_length=16), st.data(), st.sampled_from(KS))
    @settings(max_examples=600, deadline=None)
    def test_dags(self, sfa, data, k):
        assert_same_construction(sfa, any_m(data.draw, sfa), k)

    @given(ocr_sfas(max_chars=24), st.data(), st.sampled_from(KS))
    @settings(max_examples=400, deadline=None)
    def test_simulated_ocr_lines(self, sfa, data, k):
        assert_same_construction(sfa, any_m(data.draw, sfa), k)
