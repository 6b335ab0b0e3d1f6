"""The filescan's character-pair filter loses no answer.

A pattern's required pairs (:func:`repro.automata.regex.required_pairs`)
are in every string it matches; a line's spelled pairs
(:func:`repro.query.eval_kernel.spelled_pairs`, or the numpy layout's
bitmap) are the adjacent pairs of the strings its graph emits.  A line
missing a required pair is skipped by the scan with probability 0, so
the dict DP must give it exactly 0 -- and so must the index plan's
projection of it on any posting windows, which only spells substrings
of the line's paths.  Patterns are cut from the graphs' own strings,
then mutated with wildcards, groups, alternation and stars, so some
lines spell them and some do not.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import dfa_for_pattern
from repro.indexing.postings import Posting
from repro.indexing.projection import projected_match_probability
from repro.query import eval_kernel
from repro.query.eval_kernel import HAVE_NUMPY, KernelBatch, spelled_pairs
from repro.query.eval_sfa import match_probability
from repro.query.like import compile_like, escape_literal
from repro.sfa.builder import random_chunk_sfa
from repro.sfa.kernel import compile_kernel
from repro.sfa.paths import k_best_strings

from .strategies import chain_sfas, chunk_sfas, dag_sfas, index_graphs, ocr_sfas
from .test_indexing import kernel_of

LAYOUTS = [False, True] if HAVE_NUMPY else [False]

small_sfas = st.one_of(
    chain_sfas(max_length=6), chunk_sfas(max_chunks=5), dag_sfas(max_length=7)
)
any_sfas = st.one_of(small_sfas, ocr_sfas())


def path_string(sfa, rng: random.Random) -> str:
    """The string of one random start-to-final path of ``sfa``."""
    node, parts = sfa.start, []
    while node != sfa.final:
        succ = rng.choice(sorted(sfa.successors(node)))
        parts.append(rng.choice(sfa.emissions(node, succ)).string)
        node = succ
    return "".join(parts)


@st.composite
def graphs_and_cut(draw):
    """A few graphs and a substring of one of their strings, 2-6
    characters where the string is long enough."""
    sfas = draw(st.lists(any_sfas, min_size=1, max_size=5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    text = path_string(rng.choice(sfas), rng)
    size = min(len(text), rng.randint(2, 6))
    lo = rng.randrange(len(text) - size + 1)
    return sfas, text[lo : lo + size]


#: Regex mutations: a token that replaces or joins a literal, or a
#: wrapper around a run of tokens.  ``z`` is a literal no graph emits,
#: so ``(z)*`` matches only by repeating zero times.
_TOKENS = ["\\d", "\\x", "z", "(z)*"]
_WRAPPERS = ["({})", "({}|z)", "(z|{})", "(\\x|{})", "({})*"]


@st.composite
def regex_mutations(draw, cut: str) -> str:
    tokens = [escape_literal(ch) for ch in cut]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("replace", "insert", "wrap")))
        at = draw(st.integers(0, len(tokens) - 1))
        if kind == "replace":
            tokens[at] = draw(st.sampled_from(_TOKENS))
        elif kind == "insert":
            tokens.insert(at, draw(st.sampled_from(_TOKENS)))
        else:
            end = draw(st.integers(at + 1, len(tokens)))
            wrapper = draw(st.sampled_from(_WRAPPERS))
            tokens[at:end] = [wrapper.format("".join(tokens[at:end]))]
    return "".join(tokens)


@st.composite
def like_mutations(draw, cut: str) -> str:
    chars = list(cut)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(chars)))
        wildcard = draw(st.sampled_from("_%"))
        if at < len(chars) and draw(st.booleans()):
            chars[at] = wildcard
        else:
            chars.insert(at, wildcard)
    return "".join(chars)


def assert_pruned_lines_score_zero(sfas, query):
    """Both layouts decide alike, and every line they rule out has
    probability exactly 0 under the dict DP."""
    kernels = [compile_kernel(sfa) for sfa in sfas]
    decisions = [
        KernelBatch(kernels, use_numpy=use_numpy).spells(
            query.required_pairs, range(len(kernels))
        )
        for use_numpy in LAYOUTS
    ]
    assert all(decision == decisions[0] for decision in decisions)
    for sfa, spelled in zip(sfas, decisions[0]):
        if not spelled:
            assert match_probability(sfa, query) == 0


class TestNoLostAnswer:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_regex_under_both_semantics(self, data):
        sfas, cut = data.draw(graphs_and_cut())
        pattern = data.draw(regex_mutations(cut))
        for anywhere in (True, False):
            assert_pruned_lines_score_zero(
                sfas, dfa_for_pattern(pattern, match_anywhere=anywhere)
            )

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_like_under_both_semantics(self, data):
        sfas, cut = data.draw(graphs_and_cut())
        like = data.draw(like_mutations(cut))
        for query in (compile_like(like), compile_like(f"%{like}%")):
            assert_pruned_lines_score_zero(sfas, query)


class TestNoLostProjectedAnswer:
    """A candidate the filter rules out scores 0 on every window set."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_entries_and_windows(self, data):
        sfas, cut = data.draw(graphs_and_cut())
        pattern = data.draw(regex_mutations(cut))
        query = dfa_for_pattern(pattern, match_anywhere=True)
        kernels = [compile_kernel(sfa) for sfa in sfas]
        decisions = [
            KernelBatch(kernels, use_numpy=use_numpy).spells(
                query.required_pairs, range(len(kernels))
            )
            for use_numpy in LAYOUTS
        ]
        assert all(decision == decisions[0] for decision in decisions)
        for sfa, spelled in zip(sfas, decisions[0]):
            if spelled:
                continue
            entries = data.draw(
                st.lists(st.sampled_from(sfa.nodes), min_size=1, unique=True)
            )
            window = data.draw(st.integers(0, 8))
            postings = {Posting(u=u, v=u, rank=0, offset=0) for u in entries}
            assert (
                projected_match_probability(sfa, query, postings, window)
                == 0.0
            )


def path_pairs(sfa) -> set[str]:
    """The adjacent pairs of every string ``sfa`` emits."""
    strings = k_best_strings(sfa, 100_000)
    return {text[i : i + 2] for text, _ in strings for i in range(len(text) - 1)}


class TestSpelledPairs:
    @given(small_sfas)
    @settings(max_examples=150, deadline=None)
    def test_exactly_the_pairs_of_the_emitted_strings(self, sfa):
        """Every node lies on a path, so the set is not looser than it
        must be: each pair is in some emitted string."""
        assert spelled_pairs(compile_kernel(sfa)) == path_pairs(sfa)

    def test_an_empty_symbol_spells_any_pair(self):
        """``ab``, ``""``, ``ab`` spells ``ba`` across two nodes."""
        graph = (["", "ab"], [(0, 1, [1]), (1, 2, [0]), (2, 3, [1])], [0, 1, 2, 3])
        kernel = kernel_of(graph)
        assert spelled_pairs(kernel) is None
        for use_numpy in LAYOUTS:
            batch = KernelBatch([kernel], use_numpy=use_numpy)
            assert batch.spells(frozenset({"ba", "zz"}), [0]) == [True]


@pytest.mark.skipif(not HAVE_NUMPY, reason="the bitmap needs numpy")
class TestBitmap:
    @staticmethod
    def bitmap_pairs(batch: KernelBatch, line: int) -> set[str] | None:
        if batch.any_pair[line]:
            return None
        chars, words = batch.chars, batch.pair_bits[line]
        return {
            chars[a] + chars[b]
            for a in range(len(chars))
            for b in range(len(chars))
            if int(words[a, b >> 6]) >> (b & 63) & 1
        }

    @given(
        st.lists(
            st.one_of(
                any_sfas.map(compile_kernel),
                index_graphs(allow_empty=True).map(kernel_of),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_python_layout_line_for_line(self, kernels):
        batch = KernelBatch(kernels, use_numpy=True)
        python = KernelBatch(kernels, use_numpy=False)
        assert [
            self.bitmap_pairs(batch, line) for line in range(len(kernels))
        ] == python.line_pairs

    def test_blocks_cover_every_line(self, monkeypatch):
        """Lines past the first block are laid out like the first."""
        rng = random.Random(5)
        kernels = [
            compile_kernel(random_chunk_sfa(rng, rng.randint(1, 5)))
            for _ in range(7)
        ]
        monkeypatch.setattr(eval_kernel, "PAIR_BLOCK_LINES", 3)
        batch = KernelBatch(kernels, use_numpy=True)
        assert [self.bitmap_pairs(batch, ln) for ln in range(7)] == [
            spelled_pairs(kernel) for kernel in kernels
        ]
