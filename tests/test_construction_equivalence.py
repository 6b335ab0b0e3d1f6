"""The shipped construction loop against the loop it replaced, exactly.

``tests/oracles/construction.py`` is the pre-rewrite code, verbatim: a
copy per collapse, a topological order per helper, a BFS per probe, the
strings of every candidate ranked, k*k products per merge.  The shipped loop
(``repro.core.approximate`` / ``repro.core.chunks`` / ``repro.sfa.paths``)
drops the repeated work and nothing else, so every comparison here is
``==`` on serialized bytes -- the stored probabilities are the answer,
not an approximation of it.
"""

import hashlib
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import approximate
from repro.core.approximate import (
    _triples,
    prune_edges_to_k,
    staccato_approximate,
)
from repro.core.chunks import (
    Reachability,
    collapse,
    collapse_in_place,
    find_min_sfa,
    region_mass,
    region_top_k,
)
from repro.db import storage
from repro.db.engine import StaccatoDB
from repro.ocr.corpus import Dataset, Document, make_ca, make_db, make_lt
from repro.ocr.engine import SimulatedOcrEngine
from repro.sfa import paths
from repro.sfa.builder import random_chunk_sfa
from repro.sfa.kernel import compile_kernel, to_sfa
from repro.sfa.model import Sfa
from repro.sfa.ops import topological_order
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


def moving_order() -> Sfa:
    """Kahn's order is 0, 1, 5, 2, 3; collapsing {0, 1, 2} (one string, so
    a loss of 0 and the first key: it wins for every k) gives 0, 2, 5, 3,
    not 0, 5, 2, 3 -- the old order less the interior."""
    sfa = Sfa(start=0, final=3)
    sfa.add_edge(0, 1, [("a", 0.5)])
    sfa.add_edge(1, 2, [("b", 0.5)])
    sfa.add_edge(2, 3, [("c", 0.25), ("d", 0.5)])
    sfa.add_edge(0, 5, [("e", 0.25), ("f", 0.25)])
    sfa.add_edge(5, 3, [("g", 0.5), ("h", 0.25), ("i", 0.125)])
    return sfa


@st.composite
def branchy_dags(draw) -> Sfa:
    """Random DAGs with node ids out of topological order and nodes of one
    predecessor beside the chain: collapses that move Kahn's order."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    count = draw(st.integers(min_value=3, max_value=12))
    ids = rng.sample(range(40), count)
    edges = {(rng.randrange(r), r) for r in range(1, count)}
    edges |= {(r, rng.randrange(r + 1, count)) for r in range(count - 1)}
    edges |= {
        (r, t)
        for r in range(count)
        for t in range(r + 1, count)
        if rng.random() < 0.1
    }
    sfa = Sfa(start=ids[0], final=ids[-1])
    for r, t in sorted(edges):
        emissions = [
            (rng.choice("abc") + rng.choice(("", "x", "yz")), rng.uniform(0.05, 0.3))
            for _ in range(rng.randint(1, 3))
        ]
        sfa.add_edge(ids[r], ids[t], emissions)
    return sfa


def count_follows(monkeypatch) -> dict[bool, int]:
    """Spy on the guard: how many collapses kept the order, how many moved it."""
    outcomes = {True: 0, False: 0}
    real = Reachability.follow

    def spy(self, region):
        kept = real(self, region)
        outcomes[kept] += 1
        return kept

    monkeypatch.setattr(Reachability, "follow", spy)
    return outcomes


class TestIncrementalPasses:
    """The loop patches its order, reachability and candidates
    across a collapse that keeps Kahn's order and rebuilds them when the
    order moves; both paths give the old loop's bytes."""

    def test_the_guard_agrees_with_a_full_kahn_pass(self):
        sfa = moving_order()
        assert topological_order(sfa) == [0, 1, 5, 2, 3]
        reach = Reachability(sfa, topological_order(sfa))
        region = reach.grow((0, 1, 2))
        collapse_in_place(sfa, region, [("ab", 0.25)])
        assert topological_order(sfa) == [0, 2, 5, 3]
        assert not reach.follow(region)

    def test_a_moving_order_takes_the_rebuild(self, monkeypatch):
        outcomes = count_follows(monkeypatch)
        sfa = moving_order()
        for k in KS:
            for m in range(1, sfa.num_edges + 1):
                assert_same_construction(sfa, m, k)
        assert outcomes[False] >= len(KS)

    @given(branchy_dags(), st.data(), st.sampled_from(KS))
    @settings(max_examples=150, deadline=None)
    def test_branchy_dags(self, sfa, data, k):
        # Small m: many collapses, so passes after a rebuild are held too.
        m = data.draw(st.integers(min_value=1, max_value=max(1, sfa.num_edges // 2)))
        assert_same_construction(sfa, m, k)

    def test_simulated_ocr_lines_take_the_patched_path(self, monkeypatch):
        """Guard the guard: a guard that always fell back would stay exact
        and lose the gain, so this is what catches it."""
        outcomes = count_follows(monkeypatch)
        ordered = []
        monkeypatch.setattr(
            approximate,
            "topological_order",
            lambda work, real=approximate.topological_order: ordered.append(1)
            or real(work),
        )
        ocr = SimulatedOcrEngine(seed=19)
        lines = list(golden_corpus().lines())
        for _, doc_id, line_no, text in lines:
            sfa = ocr.recognize_line(text, line_seed=(doc_id, line_no))
            staccato_approximate(sfa, 40, 25)
        assert outcomes[True] > 10 * len(lines)
        assert outcomes[False] == 0
        assert len(ordered) == len(lines)


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


def float_bits(value: float) -> bytes:
    """The IEEE-754 bits of ``value``: ``==`` would let 0.0 match -0.0."""
    return struct.pack("<d", value)


def duplicate_string() -> Sfa:
    """Two edges leave node 0 emitting ``a``, so ``abc`` and ``abd`` are
    each spelled by two paths."""
    sfa = Sfa(start=0, final=1)
    sfa.add_edge(0, 2, [("a", 0.5), ("x", 0.25)])
    sfa.add_edge(0, 3, [("a", 0.25)])
    sfa.add_edge(2, 4, [("b", 1.0)])
    sfa.add_edge(3, 4, [("b", 1.0)])
    sfa.add_edge(4, 1, [("c", 0.5), ("d", 0.5)])
    return sfa


def prefix_pair() -> Sfa:
    """Node 0 emits ``a`` and ``ab``: every string is still spelled by one
    path, but a per-node check cannot tell."""
    sfa = Sfa(start=0, final=1)
    sfa.add_edge(0, 2, [("a", 0.5)])
    sfa.add_edge(0, 3, [("ab", 0.5)])
    sfa.add_edge(2, 4, [("x", 0.5), ("y", 0.5)])
    sfa.add_edge(3, 4, [("z", 1.0)])
    sfa.add_edge(4, 1, [("c", 0.75), ("e", 0.25)])
    return sfa


@st.composite
def ambiguous_chains(draw) -> Sfa:
    """Chains of one- and two-letter strings over ``ab``: most of them
    spell some string along two paths (``a`` + ``ba`` = ``ab`` + ``a``)."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    chunks = draw(st.integers(min_value=2, max_value=5))
    return random_chunk_sfa(
        random.Random(seed), chunks, alphabet="ab", max_chunk_len=2
    )


class TestProbabilitiesOnlyScoring:
    """The greedy scores a candidate by ``k_best_mass`` when the pruned
    line is prefix-free, and by the region's ranked strings otherwise."""

    @staticmethod
    def assert_first_iteration_exact(sfa: Sfa, k: int) -> None:
        work = prune_edges_to_k(sfa, k)
        assert paths.prefix_free(work)
        order = topological_order(work)
        reach = Reachability(work, order)
        for region in {
            tuple(sorted(region.nodes)): region
            for region in map(reach.grow, _triples(work, work.nodes))
        }.values():
            span = reach.span(region)
            kept = paths.k_best_mass(
                work, region.entry, region.exit, k, region.nodes, span
            )
            ranked = region_top_k(work, region, k, span)
            assert float_bits(kept) == float_bits(sum(p for _, p in ranked))

    @given(ocr_sfas(), st.sampled_from(KS))
    @settings(max_examples=60, deadline=None)
    def test_simulated_ocr_lines(self, sfa, k):
        self.assert_first_iteration_exact(sfa, k)

    @given(chain_sfas(), st.sampled_from(KS))
    @settings(max_examples=60, deadline=None)
    def test_chains(self, sfa, k):
        self.assert_first_iteration_exact(sfa, k)

    @pytest.mark.parametrize("make", [duplicate_string, prefix_pair])
    def test_the_guard_falls_back_to_ranked_strings(self, make, monkeypatch):
        sfa = make()
        assert not paths.prefix_free(prune_edges_to_k(sfa, 25))
        calls = {"mass": 0, "ranked": 0, "collapses": 0}

        def counting(name, real):
            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return spy

        monkeypatch.setattr(
            approximate, "k_best_mass", counting("mass", approximate.k_best_mass)
        )
        monkeypatch.setattr(
            approximate, "region_top_k", counting("ranked", region_top_k)
        )
        monkeypatch.setattr(
            approximate,
            "collapse_in_place",
            counting("collapses", approximate.collapse_in_place),
        )
        for k in (1, 2, 3, 25):
            for m in range(1, sfa.num_edges):
                assert_same_construction(sfa, m, k)
        # Scored by its ranked strings, a winner is ranked again to collapse.
        assert calls["collapses"] > 0
        assert calls["ranked"] >= 2 * calls["collapses"]
        assert calls["mass"] == 0

    @given(ambiguous_chains(), st.data(), st.sampled_from(KS))
    @settings(max_examples=80, deadline=None)
    def test_ambiguous_chains(self, sfa, data, k):
        assert_same_construction(sfa, any_m(data.draw, sfa), k)

    def test_every_golden_line_takes_the_probabilities_only_path(self):
        ocr = SimulatedOcrEngine(seed=19)
        for _, doc_id, line_no, text in golden_corpus().lines():
            sfa = ocr.recognize_line(text, line_seed=(doc_id, line_no))
            assert paths.prefix_free(prune_edges_to_k(sfa, 25))


# ----------------------------------------------------------------------
# Golden: the stored bytes of a fixed corpus, so a later change cannot
# drift them silently.  Computed at commit aebfb45 (the parent of the
# in-place rewrite) with the loop that now lives in tests/oracles.
# ----------------------------------------------------------------------
GOLDEN_FINGERPRINTS_SHA256 = (
    "6593af0c031929220f24135fb5cb750459b066c7474661e7b50ec40e2e59bd11"
)
# The golden corpus's k-MAP rows (DataKey, rank, string, log-probability,
# as the kMAPData table held them) and StaccatoGraph blobs, computed at
# commit adf83b1: before the probabilities-only scorer, the shared cut
# rule of repro.sfa.paths and the tuple emissions, all of which these
# rows pass through.
GOLDEN_ROWS_SHA256 = (
    "241b3cf8bcedd1eb530fe004d8446ae9ca0851c5e23d74605ed329aca0fb0a5c"
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


#: The golden kernels include the FullSFA's, which an ingest stores
#: only when asked.
WITH_FULLSFA = ("kmap", "fullsfa", "staccato")


def test_golden_stored_kernel_fingerprints():
    db = StaccatoDB(":memory:", k=25, m=40)
    try:
        assert db.ingest(
            golden_corpus(), SimulatedOcrEngine(seed=19), WITH_FULLSFA
        ) == 9
        digest = hashlib.sha256()
        rows = db.conn.execute(
            "SELECT Fingerprint FROM CompiledKernel "
            "WHERE Approach IN ('fullsfa', 'staccato') "
            "ORDER BY DataKey, Approach"
        ).fetchall()
        assert len(rows) == 18  # a fullsfa and a staccato kernel per line
        for (fingerprint,) in rows:
            digest.update(fingerprint.encode("ascii"))
    finally:
        db.close()
    assert digest.hexdigest() == GOLDEN_FINGERPRINTS_SHA256


def test_golden_stored_rows():
    db = StaccatoDB(":memory:", k=25, m=40)
    try:
        assert db.ingest(golden_corpus(), SimulatedOcrEngine(seed=19)) == 9
        digest = hashlib.sha256()
        # The rows the k-MAP table once held, read back from the kernels.
        kmap = [
            (key, rank, string, math.log(prob) if prob > 0.0 else -math.inf)
            for key in storage.all_data_keys(db.conn)
            for rank, (string, prob) in enumerate(storage.load_kmap(db.conn, key))
        ]
        assert len(kmap) == 9 * 25
        for data_key, rank, string, log_prob in kmap:
            digest.update(
                f"{data_key}\t{rank}\t{string}\t{log_prob.hex()}\n".encode("utf-8")
            )
        graphs = db.conn.execute(
            "SELECT DataKey, GraphBlob FROM StaccatoGraph ORDER BY DataKey"
        ).fetchall()
        assert len(graphs) == 9
        for data_key, blob in graphs:
            digest.update(struct.pack("<qq", data_key, len(blob)))
            digest.update(blob)
    finally:
        db.close()
    assert digest.hexdigest() == GOLDEN_ROWS_SHA256


def test_golden_corpus_kernels_rebuild_their_sfa1_bytes():
    """The kernel is the stored record: at the production (m, k), each
    line's ``fullsfa`` and ``staccato`` ``KRN2`` rows give back, through
    the codec and ``to_sfa``, the ``SFA1`` bytes of the SFA they were
    compiled from -- the OCR output, and the stored chunk graph."""
    ocr = SimulatedOcrEngine(seed=19)
    corpus = golden_corpus()
    with StaccatoDB(":memory:", k=25, m=40) as db:
        db.ingest(corpus, ocr, WITH_FULLSFA)
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
