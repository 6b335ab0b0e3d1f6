"""Tests for inverted indexing, projection and anchors (repro.indexing)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.trie import DictionaryTrie
from repro.core.approximate import staccato_approximate
from repro.core.kmap import kmap_sfa
from repro.indexing.anchors import anchor_for_query, left_anchor_word
from repro.indexing.inverted import (
    _postings_dp,
    build_kernel_postings,
    build_sfa_postings,
)
from repro.indexing.postings import Posting, PostingIndex
from repro.indexing.projection import (
    projected_match_probability,
    projection_nodes,
)
from repro.query.like import compile_like
from repro.sfa import ops
from repro.sfa.builder import chain_sfa, from_string
from repro.sfa.kernel import (
    CompiledKernel,
    compile_kernel,
    kernel_from_bytes,
    kernel_to_bytes,
)
from repro.sfa.model import Sfa

from .oracles import indexing as oracle
from .oracles.direct import (
    direct_posting_count,
    direct_posting_count_enumerated,
)
from .strategies import (
    INDEX_ALPHABET,
    chain_sfas,
    chunk_sfas,
    dag_sfas,
    index_graphs,
    ocr_sfas,
)


class TestBuildSfaPostings:
    def test_single_edge_term(self):
        sfa = from_string("the law stands")
        trie = DictionaryTrie(["law"])
        postings = build_sfa_postings(sfa, trie)
        assert set(postings) == {"law"}
        # Character-level SFA: the term starts on the edge of its first char.
        (posting,) = postings["law"]
        assert posting.u == 4  # 'l' is text[4], edge (4, 5)

    def test_term_straddles_chunks(self, figure3):
        """Terms crossing edge boundaries are found via augmented states."""
        from repro.core.chunks import collapse, find_min_sfa

        region = find_min_sfa(figure3, {2, 3, 5})
        chunked = collapse(figure3, region, k=2)  # 'a','b' then 'cd'/'ef'
        trie = DictionaryTrie(["abcd", "bc", "aef"])
        postings = build_sfa_postings(chunked, trie)
        assert "abcd" in postings
        assert "bc" in postings
        assert "aef" in postings

    def test_multiple_occurrences(self):
        sfa = from_string("law and law")
        postings = build_sfa_postings(sfa, DictionaryTrie(["law"]))
        assert len(postings["law"]) == 2

    def test_case_insensitive(self):
        sfa = from_string("The LAW")
        postings = build_sfa_postings(sfa, DictionaryTrie(["Law"]))
        assert len(postings["law"]) == 1

    def test_posting_records_start_location(self):
        # Chunked SFA where the term starts mid-string on an edge.
        sfa = chain_sfa([[("xxlaw", 1.0)]])
        postings = build_sfa_postings(sfa, DictionaryTrie(["law"]))
        (posting,) = postings["law"]
        assert posting.offset == 2
        assert posting.rank == 0

    @given(dag_sfas(min_length=4, max_length=8), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_enumeration(self, sfa, m):
        """A term is indexed iff some stored string contains it."""
        approx = staccato_approximate(sfa, m=m, k=2)
        terms = ["ab", "ba", "aa", "cab"]
        trie = DictionaryTrie(terms)
        postings = build_sfa_postings(approx, trie)
        strings = set(ops.string_distribution(approx))
        for term in terms:
            contained = any(term in s.lower() for s in strings)
            assert (term in postings) == contained, (term, sorted(strings))


dictionaries = st.lists(
    st.text(alphabet=INDEX_ALPHABET, min_size=1, max_size=5),
    min_size=1,
    max_size=6,
)


def sfa_of(graph) -> Sfa:
    """An :func:`index_graphs` draw as an ``Sfa`` (rank order kept by
    strictly descending probabilities)."""
    symbols, edges, nodes = graph
    sfa = Sfa(start=nodes[0], final=nodes[-1])
    for u, v, syms in edges:
        sfa.add_edge(
            u, v, [(symbols[sid], 0.5 ** (rank + 1)) for rank, sid in enumerate(syms)]
        )
    return sfa


def kernel_of(graph) -> CompiledKernel:
    """An :func:`index_graphs` draw as a kernel, empty symbols and all
    (masses zero: the postings DP reads none)."""
    symbols, edges, order = graph
    pos = {node: at for at, node in enumerate(order)}
    node_offsets, node_runs, run_dst, run_starts = [0], [0], [], [0]
    step_syms: list[int] = []
    for node in order:
        for u, v, syms in edges:
            if u == node:
                run_dst.append(pos[v])
                step_syms.extend(syms)
                run_starts.append(len(step_syms))
        node_offsets.append(len(step_syms))
        node_runs.append(len(run_dst))
    return CompiledKernel(
        num_nodes=len(order),
        start_pos=0,
        final_pos=len(order) - 1,
        node_ids=order,
        symbols=list(symbols),
        node_offsets=node_offsets,
        node_runs=node_runs,
        run_dst=run_dst,
        run_starts=run_starts,
        step_syms=step_syms,
        step_probs=[0.0] * len(step_syms),
        backward=[0.0] * len(order),
        forward=[0.0] * len(order),
    )


def assert_both_adapters_equal_the_oracle(sfa: Sfa, trie: DictionaryTrie):
    expected = oracle.build_sfa_postings(sfa, trie)
    assert build_sfa_postings(sfa, trie) == expected
    kernel = compile_kernel(sfa)
    assert build_kernel_postings(kernel, trie) == expected
    stored = kernel_from_bytes(kernel_to_bytes(kernel))
    assert build_kernel_postings(stored, trie) == expected


class TestPostingsDpEqualsAlgorithm3:
    """The shipped DP against ``tests/oracles/indexing.py`` (the
    per-string ``_run_dfa`` loop it replaced), from both adapters."""

    @given(index_graphs(allow_empty=True), dictionaries, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_edge_lists_with_empty_strings(self, graph, terms, case_sensitive):
        symbols, edges, _ = graph
        trie = DictionaryTrie(terms, case_sensitive=case_sensitive)
        expected = oracle.edge_postings(symbols, edges, trie)
        assert _postings_dp(symbols, edges, trie) == expected
        kernel = kernel_of(graph)
        assert build_kernel_postings(kernel, trie) == expected
        stored = kernel_from_bytes(kernel_to_bytes(kernel))
        assert build_kernel_postings(stored, trie) == expected

    @given(index_graphs(), dictionaries, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_chunk_graphs(self, graph, terms, case_sensitive):
        trie = DictionaryTrie(terms, case_sensitive=case_sensitive)
        assert_both_adapters_equal_the_oracle(sfa_of(graph), trie)

    @given(
        st.one_of(dag_sfas(), chain_sfas(), chunk_sfas(), ocr_sfas()),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_construction_strategies(self, sfa, data):
        # Terms cut from one stored string, so they occur (and straddle
        # edges) instead of merely being drawn from the same alphabet.
        text, node = "", sfa.start
        while node != sfa.final:
            succ = data.draw(st.sampled_from(sorted(set(sfa.successors(node)))))
            text += data.draw(st.sampled_from(sfa.emissions(node, succ))).string
            node = succ
        cuts = st.tuples(st.integers(0, len(text) - 1), st.integers(1, 5))
        terms = [
            text[at : at + length]
            for at, length in data.draw(st.lists(cuts, min_size=1, max_size=5))
        ]
        assert_both_adapters_equal_the_oracle(sfa, DictionaryTrie(terms))

    def test_term_straddles_three_edges(self):
        sfa = chain_sfa(
            [[("xpu", 0.6), ("pu", 0.4)], [("bl", 1.0)], [("ic", 0.7), ("iC", 0.3)]]
        )
        trie = DictionaryTrie(["public", "blic"])
        postings = build_kernel_postings(compile_kernel(sfa), trie)
        assert postings == oracle.build_sfa_postings(sfa, trie)
        assert postings["public"] == {Posting(0, 1, 0, 1), Posting(0, 1, 1, 0)}
        assert postings["blic"] == {Posting(1, 2, 0, 0)}

    def test_two_code_point_lower_is_one_dead_character(self):
        """``'\u0130'.lower()`` is ``'i\u0307'``: the trie spells the term with
        both, the stored character lowers to a key no branch has."""
        trie = DictionaryTrie(["\u0130b"])
        assert trie.terms() == ["i\u0307b"]
        dotted = chain_sfa([[("a\u0130", 1.0)], [("b", 1.0)]])
        spelled = chain_sfa([[("ai\u0307", 1.0)], [("b", 1.0)]])
        assert build_sfa_postings(dotted, trie) == {}
        assert build_sfa_postings(spelled, trie) == {
            "i\u0307b": {Posting(0, 1, 0, 1)}
        }
        for sfa in (dotted, spelled):
            assert_both_adapters_equal_the_oracle(sfa, trie)


class TestBuildKmapPostings:
    def test_offsets(self):
        """k-MAP postings are the one-chunk kernel's: its edge (0, 1),
        the string's rank, the term's offset in the string."""
        strings = [("public law", 0.6), ("pub1ic law", 0.4)]
        kernel = compile_kernel(kmap_sfa(strings))
        postings = build_kernel_postings(kernel, DictionaryTrie(["law", "public"]))
        assert postings == {
            "law": {Posting(0, 1, 0, 7), Posting(0, 1, 1, 7)},
            "public": {Posting(0, 1, 0, 0)},  # only rank 0 spells it
        }


class TestPostingIndex:
    def test_merge_and_query(self):
        index = PostingIndex()
        index.add("law", 7, Posting(0, 1, 0, 3))
        index.merge_line(8, {"law": {Posting(2, 3, 1, 0)}})
        lines = index.lines_for("law")
        assert set(lines) == {7, 8}
        assert index.num_postings() == 2
        assert index.terms() == ["law"]

    def test_selectivity(self):
        index = PostingIndex()
        index.add("law", 1, Posting(0, 1, 0, 0))
        index.add("law", 2, Posting(0, 1, 0, 0))
        assert index.selectivity("law", 10) == pytest.approx(0.2)
        assert index.selectivity("none", 10) == 0.0
        assert index.selectivity("law", 0) == 0.0


class TestDirectPostingCount:
    def test_simple_chain(self):
        sfa = from_string("ab cd")
        assert direct_posting_count(sfa) == 2  # one string, two tokens

    @given(dag_sfas(min_length=3, max_length=8))
    @settings(max_examples=30, deadline=None)
    def test_dp_equals_enumeration(self, sfa):
        assert direct_posting_count(sfa) == direct_posting_count_enumerated(sfa)

    def test_exponential_growth_in_chunks(self):
        # k strings per chunk, m chunks, every string one token:
        # postings = k**m (paths) * m... verify growth is super-linear.
        def chunked(m):
            return chain_sfa(
                [[("ab", 0.5), ("cd", 0.3), ("ef", 0.2)]] * m
            )

        counts = [direct_posting_count(chunked(m)) for m in (1, 3, 5, 7)]
        ratios = [b / a for a, b in zip(counts, counts[1:])]
        assert all(r > 4 for r in ratios)  # ~9x per two chunks

    def test_spaces_split_tokens(self):
        sfa = chain_sfa([[("a b", 0.5), ("ab", 0.5)]])
        # 'a b' has two tokens, 'ab' one -> 3 postings total.
        assert direct_posting_count(sfa) == 3


class TestAnchors:
    def test_left_anchor_extraction(self):
        assert left_anchor_word(r"Public Law (8|9)\d") == "public"
        assert left_anchor_word(r"United States (\x)*") == "united"

    def test_unanchored_patterns(self):
        assert left_anchor_word(r"(no|num).(2|8)") is None
        assert left_anchor_word(r"\d\d") is None
        assert left_anchor_word(r"President") is None  # no complete word

    def test_anchor_for_query_requires_dictionary(self):
        trie = DictionaryTrie(["public"])
        assert anchor_for_query(r"REGEX:Public Law (8|9)\d", trie) == "public"
        assert anchor_for_query(r"REGEX:Secret Act (8|9)\d", trie) is None

    def test_anchor_for_like_query(self):
        trie = DictionaryTrie(["united"])
        assert anchor_for_query("%United States%", trie) == "united"


class TestProjection:
    def test_projection_nodes_depth(self):
        sfa = from_string("abcdef")
        assert projection_nodes(sfa, 0, 2) == {0, 1, 2}
        assert projection_nodes(sfa, 3, 100) == {3, 4, 5, 6}

    def test_projected_probability_matches_full_for_anchored(self):
        from repro.query.eval_sfa import match_probability

        sfa = from_string("xx public law 85 yy")
        trie = DictionaryTrie(["public"])
        postings = build_sfa_postings(sfa, trie)["public"]
        query = compile_like(r"REGEX:public law 8\d")
        full = match_probability(sfa, query)
        proj = projected_match_probability(sfa, query, postings, window=16)
        assert proj == pytest.approx(full)

    def test_short_window_misses(self):
        sfa = from_string("public law 85")
        trie = DictionaryTrie(["public"])
        postings = build_sfa_postings(sfa, trie)["public"]
        query = compile_like(r"REGEX:public law 8\d")
        assert projected_match_probability(sfa, query, postings, window=4) == 0.0

    def test_empty_postings(self):
        sfa = from_string("abc")
        assert projected_match_probability(
            sfa, compile_like("%a%"), set(), window=5
        ) == 0.0

    def test_rejects_exact_match_queries(self):
        sfa = from_string("abc")
        query = compile_like("abc")  # whole-string LIKE, not match-anywhere
        with pytest.raises(ValueError):
            projected_match_probability(
                sfa, query, {Posting(0, 1, 0, 0)}, window=3
            )
