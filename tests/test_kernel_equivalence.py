"""Property tests: compiled-kernel evaluation == the dict DP, bit for bit.

The compiled-kernel paths (pure-python replay and, when numpy is
available, the lockstep batch) must reproduce
:func:`repro.query.eval_sfa.match_probability` exactly -- the same IEEE
float result AND the same ``dp_cells``/``dp_transitions`` counters --
for random SFAs (chains, chunk graphs with multi-character emissions,
branching DAGs) against random query DFAs, through both the
match-anywhere absorbing shortcut and the exact general path, and
through a ``KRN2`` blob round trip.  The index plan's projected replay
is held to the same bar against
:func:`repro.indexing.projection.projected_match_probability`, and the
lockstep batch's transition table against ``step_string``.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import counters
from repro.automata.dfa import DEAD, dfa_for_pattern
from repro.core.kmap import build_kmap, kmap_sfa
from repro.query.eval_kernel import (
    HAVE_NUMPY,
    KernelBatch,
    KernelEvaluator,
    LineResult,
)
from repro.indexing.postings import Posting
from repro.indexing.projection import projected_match_probability
from repro.query.eval_sfa import match_probability, match_probability_exact
from repro.query.like import compile_like
from repro.sfa import serialize
from repro.sfa.kernel import compile_kernel, kernel_from_bytes, kernel_to_bytes
from repro.sfa.ops import forward_mass, topological_order

from .oracles.strings import match_probability_strings
from .strategies import (
    chain_sfas,
    chunk_sfas,
    dag_sfas,
    ocr_sfas,
    regex_patterns,
)

any_sfas = st.one_of(
    chain_sfas(max_length=6), chunk_sfas(max_chunks=5), dag_sfas(max_length=7)
)


#: Chunk graphs beside one-chunk k-MAP kernels, whose symbols are whole
#: strings of many lengths: one batch mixes short and long symbols.
table_sfas = st.one_of(
    any_sfas,
    ocr_sfas(),
    st.builds(
        lambda sfa, k: kmap_sfa(build_kmap(sfa, k).strings),
        st.one_of(ocr_sfas(), any_sfas),
        st.integers(1, 8),
    ),
)


def dict_reference(sfa, query) -> LineResult:
    """The dict DP's answer plus the exact counters it flushed."""
    with counters.collect() as counts:
        if query.match_anywhere:
            prob = match_probability(sfa, query)
        else:
            prob = match_probability_exact(sfa, query)
    return LineResult(
        prob, counts.get("dp_cells", 0), counts.get("dp_transitions", 0)
    )


def kernel_results(sfa, query) -> list[LineResult]:
    """Every kernel path's answer, through the blob codec round trip."""
    kernel = kernel_from_bytes(kernel_to_bytes(compile_kernel(sfa)))
    results = [KernelEvaluator(query).evaluate(kernel)]
    if HAVE_NUMPY:
        results.extend(
            KernelEvaluator(query).evaluate_batch([kernel], use_numpy=True)
        )
    return results


class TestBitForBitEquivalence:
    @given(any_sfas, regex_patterns())
    @settings(max_examples=120, deadline=None)
    def test_match_anywhere(self, sfa, pattern):
        """Absorbing-accept path: kernel paths == dict DP exactly."""
        query = dfa_for_pattern(pattern, match_anywhere=True)
        expected = dict_reference(sfa, query)
        for result in kernel_results(sfa, query):
            assert result == expected

    @given(any_sfas, regex_patterns())
    @settings(max_examples=120, deadline=None)
    def test_exact_match(self, sfa, pattern):
        """General path (no absorbing shortcut): same bit-for-bit bar."""
        query = dfa_for_pattern(pattern, match_anywhere=False)
        expected = dict_reference(sfa, query)
        for result in kernel_results(sfa, query):
            assert result == expected

    @given(
        st.lists(any_sfas, min_size=1, max_size=5),
        regex_patterns(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_per_line(self, sfas, pattern, match_anywhere):
        """A batch over many kernels == the per-line evaluations, for
        both query kinds: one evaluator's row cache spans the lines."""
        query = dfa_for_pattern(pattern, match_anywhere=match_anywhere)
        kernels = [compile_kernel(sfa) for sfa in sfas]
        expected = [dict_reference(sfa, query) for sfa in sfas]
        evaluator = KernelEvaluator(query)
        assert evaluator.evaluate_batch(kernels, use_numpy=False) == expected
        if HAVE_NUMPY:
            batch = KernelBatch(kernels)
            assert (
                KernelEvaluator(query).evaluate_batch(batch, use_numpy=True)
                == expected
            )


@st.composite
def stored_lines(draw):
    """A line as the database holds it: the graph after an ``SFA1`` round
    trip (what the dict DP is handed -- edges re-inserted in sorted
    order, which can reorder ``set(successors)``) and its kernel after a
    ``KRN2`` round trip, plus some of its nodes as posting entries."""
    graph = serialize.from_bytes(serialize.to_bytes(draw(any_sfas)))
    kernel = kernel_from_bytes(kernel_to_bytes(compile_kernel(graph)))
    entries = draw(
        st.sets(st.sampled_from(sorted(graph.nodes)), min_size=1, max_size=4)
    )
    return graph, kernel, entries


class TestProjectedReplay:
    """The index plan's candidate evaluation: the kernel replay on the
    posting windows == the dict DP's projection, bit for bit, on general
    DAGs, for every window from "entries only" to "past the whole line".
    (Pure python under numpy and ``REPRO_NO_NUMPY`` alike; CI runs both.)
    """

    @given(stored_lines(), regex_patterns(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_dict_projection(self, line, pattern, data):
        graph, kernel, entries = line
        window = data.draw(st.integers(0, graph.num_nodes + 1))
        # Two postings can share an entry node; the set of entries is
        # what both evaluators work from.
        postings = {Posting(u, u + 1, rank, 0) for u in entries for rank in (0, 1)}
        with counters.collect() as counts:
            prob = projected_match_probability(
                graph, dfa_for_pattern(pattern), postings, window
            )
        expected = LineResult(
            prob, counts.get("dp_cells", 0), counts.get("dp_transitions", 0)
        )
        evaluator = KernelEvaluator(dfa_for_pattern(pattern))
        assert evaluator.evaluate_projected(kernel, entries, window) == expected
        # The evaluator's row cache carries over between candidates.
        assert evaluator.evaluate_projected(kernel, entries, window) == expected

    @given(stored_lines(), regex_patterns())
    @settings(max_examples=60, deadline=None)
    def test_full_line_is_the_unbounded_window_from_the_start(
        self, line, pattern
    ):
        """Entry = start node, window past every node: the projection is
        the whole line (up to the projection's clamp at 1)."""
        graph, kernel, _ = line
        evaluator = KernelEvaluator(dfa_for_pattern(pattern))
        full = evaluator.evaluate(kernel)
        projected = evaluator.evaluate_projected(
            kernel, {graph.start}, graph.num_nodes
        )
        if evaluator.query.is_accepting(evaluator.query.start):
            return  # full-line shortcut: no DP, no counters
        assert projected == full._replace(
            probability=min(full.probability, 1.0)
        )

    @given(stored_lines())
    @settings(max_examples=60, deadline=None)
    def test_stored_ids_and_forward_masses(self, line):
        graph, kernel, _ = line
        order = topological_order(graph)
        assert kernel.node_ids == order
        forward = forward_mass(graph)
        assert kernel.forward == [forward[node] for node in order]

    def test_no_entries_no_work(self, figure2):
        evaluator = KernelEvaluator(dfa_for_pattern("a"))
        assert evaluator.evaluate_projected(
            compile_kernel(figure2), set(), 3
        ) == LineResult(0.0, 0, 0)

    def test_rejects_what_the_dict_projection_rejects(self, figure2):
        kernel = compile_kernel(figure2)
        exact = KernelEvaluator(dfa_for_pattern("a", match_anywhere=False))
        with pytest.raises(ValueError):
            exact.evaluate_projected(kernel, {figure2.start}, 3)
        anywhere = KernelEvaluator(dfa_for_pattern("a"))
        with pytest.raises(KeyError):
            anywhere.evaluate_projected(kernel, {max(figure2.nodes) + 1}, 3)


class TestAbsorbingShortcut:
    """The match-anywhere empty-pattern shortcut: the dict DP answers
    ``backward[start]`` without any DP work, and so must the kernels."""

    @given(any_sfas)
    @settings(max_examples=40, deadline=None)
    def test_universal_pattern(self, sfa):
        query = dfa_for_pattern("a*", match_anywhere=True)
        expected = dict_reference(sfa, query)
        assert expected.dp_cells == 0 and expected.dp_transitions == 0
        for result in kernel_results(sfa, query):
            assert result == expected


class TestNumpyPath:
    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
    @given(any_sfas, regex_patterns())
    @settings(max_examples=60, deadline=None)
    def test_numpy_equals_python_replay(self, sfa, pattern):
        """The two kernel paths agree with each other directly too."""
        query = dfa_for_pattern(pattern, match_anywhere=True)
        kernel = compile_kernel(sfa)
        py = KernelEvaluator(query).evaluate(kernel)
        (np_result,) = KernelEvaluator(query).evaluate_batch(
            [kernel], use_numpy=True
        )
        assert np_result == py

    def test_forcing_numpy_without_numpy_raises(self, monkeypatch):
        import repro.query.eval_kernel as mod

        monkeypatch.setattr(mod, "HAVE_NUMPY", False)
        query = dfa_for_pattern("a", match_anywhere=True)
        with pytest.raises(RuntimeError):
            KernelEvaluator(query).evaluate_batch([], use_numpy=True)


class TestTransitionTable:
    """The lockstep batch's ``(symbol, state)`` table, composed over the
    query's character classes, is ``step_string`` on every cell."""

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
    @given(
        st.lists(table_sfas, min_size=1, max_size=3),
        regex_patterns(),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_row_is_step_string(self, sfas, pattern, anywhere):
        import numpy as np

        query = dfa_for_pattern(pattern, match_anywhere=anywhere)
        batch = KernelBatch([compile_kernel(sfa) for sfa in sfas])
        table, dead_id = KernelEvaluator(query)._full_table(np, batch)
        assert dead_id == query.num_states
        for sid, symbol in enumerate(batch.sym_strings):
            expected = [
                query.step_string(state, symbol)
                for state in range(query.num_states)
            ]
            assert table[sid].tolist() == [
                dead_id if nxt == DEAD else nxt for nxt in expected
            ] + [dead_id]

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not available")
    @given(
        st.lists(table_sfas, min_size=1, max_size=3),
        regex_patterns(),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_symbol_subset_rows_are_step_string(
        self, sfas, pattern, anywhere, data
    ):
        """Composed over a subset of the symbols (those a seeded scan's
        lines emit), the table has one row per symbol of the subset, in
        its order, and each is that symbol's ``step_string`` row."""
        import numpy as np

        query = dfa_for_pattern(pattern, match_anywhere=anywhere)
        batch = KernelBatch([compile_kernel(sfa) for sfa in sfas])
        symbols = sorted(
            data.draw(st.sets(st.integers(0, len(batch.sym_strings) - 1)))
        )
        table, dead_id = KernelEvaluator(query)._full_table(
            np, batch, np.asarray(symbols, dtype=np.int64)
        )
        assert table.shape == (len(symbols), query.num_states + 1)
        for row, sid in enumerate(symbols):
            expected = [
                query.step_string(state, batch.sym_strings[sid])
                for state in range(query.num_states)
            ]
            assert table[row].tolist() == [
                dead_id if nxt == DEAD else nxt for nxt in expected
            ] + [dead_id]


# ----------------------------------------------------------------------
# k-MAP is Staccato at m = 1: the one-chunk kernel scores strings.
# ----------------------------------------------------------------------
@st.composite
def kmap_queries(draw):
    """A line's k-MAP strings and a LIKE or REGEX pattern over them: a
    left-anchored LIKE (a prefix of a stored string, with ``%``/``_``
    wildcards, or the whole string), a match-anywhere LIKE on one of its
    substrings, or a random REGEX.  The strings are a line SFA's, or a
    ranked list of short ones over two letters, whose prefixes of one
    another make anchored patterns accept strings of several lengths."""
    if draw(st.booleans()):
        sfa = draw(st.one_of(ocr_sfas(), any_sfas))
        strings = build_kmap(sfa, draw(st.integers(1, 30))).strings
    else:
        weights = draw(
            st.dictionaries(
                st.text("ab", min_size=1, max_size=5),
                st.floats(0.01, 1.0),
                min_size=1,
                max_size=25,
            )
        )
        total = sum(weights.values())
        strings = sorted(
            ((text, weight / total) for text, weight in weights.items()),
            key=lambda item: (-item[1], item[0]),
        )
    text = draw(st.sampled_from([string for string, _ in strings]))
    lo = draw(st.integers(0, len(text)))
    hi = draw(st.integers(lo, len(text)))
    # A data % or _ is matched by _.
    literal = "".join("_" if ch in "%_" else ch for ch in text)
    wildcard = draw(st.sampled_from(["%", "_%", "%%", "%_", ""]))
    pattern = draw(
        st.sampled_from(
            [
                literal[:hi] + wildcard,
                "%" + literal[lo:hi] + "%",
                "REGEX:" + draw(regex_patterns()),
            ]
        )
    )
    return strings, pattern


def reorder_ulps(terms: int) -> int:
    """How many ulps of one of them two orders of adding ``terms``
    positive floats can differ by: each is within ``(terms - 1) * u * S``
    of the exact sum ``S`` (``u`` = 2**-53, to first order), and
    ``u * S`` is under two ulps of a float that close to ``S``."""
    return 4 * max(terms - 1, 0)


class TestOneChunkKmapKernel:
    """The engine stores a line's k-MAP strings as the kernel of
    ``kmap_sfa`` and scores ``map``/``kmap`` with the kernel DP.  That
    is :func:`match_probability_strings` over the same strings, bit for
    bit, on the python replay and the numpy lockstep: the probabilities
    are the stored ones and are summed in rank order.  The one exception
    is a whole-string (anchored) LIKE whose accepted strings end in
    different DFA states -- ``'ab%'`` accepting both ``ab`` and ``abc``:
    the DP sums per end state first, so the same positive terms are
    added in another order, within the reordering bound of
    :func:`reorder_ulps`."""

    @given(kmap_queries())
    # One ulp apart: "ab" and "abb" end in one state, "a" in another.
    @example(([("ab", 0.4999999999999999), ("a", 1 / 3), ("abb", 1 / 6)], "a%"))
    @settings(max_examples=300, deadline=None)
    def test_equals_string_scoring(self, case):
        strings, pattern = case
        query = compile_like(pattern)
        kernel = kernel_from_bytes(
            kernel_to_bytes(compile_kernel(kmap_sfa(strings)))
        )
        results = [KernelEvaluator(query).evaluate(kernel)]
        if HAVE_NUMPY:
            results += KernelEvaluator(query).evaluate_batch(
                KernelBatch([kernel]), use_numpy=True
            )
        expected = match_probability_strings(strings, query)
        accepted = [text for text, _ in strings if query.accepts(text)]
        ends = {query.step_string(query.start, text) for text in accepted}
        for result in results:
            if query.match_anywhere or len(ends) <= 1:
                assert result.probability == expected
            else:
                assert abs(result.probability - expected) <= reorder_ulps(
                    len(accepted)
                ) * math.ulp(expected)

    @given(st.one_of(ocr_sfas(), any_sfas), st.integers(1, 30))
    @settings(max_examples=100, deadline=None)
    def test_the_kernel_holds_the_strings(self, sfa, k):
        """Rank order and the probabilities themselves, not a round
        trip through logarithms."""
        strings = build_kmap(sfa, k).strings
        kernel = kernel_from_bytes(
            kernel_to_bytes(compile_kernel(kmap_sfa(strings)))
        )
        assert [
            (kernel.symbols[sid], prob)
            for sid, prob in zip(kernel.step_syms, kernel.step_probs)
        ] == list(strings)
