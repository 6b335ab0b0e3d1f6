"""Tests for probabilistic query evaluation (repro.query)."""

import pytest
from hypothesis import given, settings

from repro.automata.dfa import dfa_for_pattern
from repro.query.answers import Answer, rank_answers
from repro.query.eval_sfa import match_probability, match_probability_exact
from repro.query.like import compile_like, escape_literal, like_to_pattern
from repro.sfa import ops

from .oracles.strings import match_probability_strings, matching_strings
from .strategies import dag_sfas, regex_patterns


class TestMatchProbabilitySfa:
    def test_ford_example(self, figure1):
        """Paper Figure 1: 'Ford' is found with probability ~0.12."""
        prob = match_probability(figure1, compile_like("%Ford%"))
        assert prob == pytest.approx(0.1152)

    def test_certain_match(self, figure1):
        # Every string starts with F or T.
        prob = match_probability(figure1, compile_like("%d%"))
        dist = ops.string_distribution(figure1)
        want = sum(p for s, p in dist.items() if "d" in s)
        assert prob == pytest.approx(want)

    def test_no_match(self, figure1):
        assert match_probability(figure1, compile_like("%xyz%")) == 0.0

    def test_empty_pattern_matches_all_mass(self, figure1):
        assert match_probability(figure1, compile_like("%%")) == pytest.approx(1.0)

    @given(dag_sfas(), regex_patterns(max_atoms=3))
    @settings(max_examples=60, deadline=None)
    def test_equals_brute_force(self, sfa, pattern):
        query = dfa_for_pattern(pattern)
        brute = sum(
            p for s, p in ops.string_distribution(sfa).items() if query.accepts(s)
        )
        assert match_probability(sfa, query) == pytest.approx(brute)

    @given(dag_sfas(), regex_patterns(max_atoms=3))
    @settings(max_examples=60, deadline=None)
    def test_absorbing_equals_general(self, sfa, pattern):
        """The absorbing-accept optimization must not change results."""
        query = dfa_for_pattern(pattern)
        fast = match_probability(sfa, query)
        general = match_probability_exact(sfa, query)
        assert fast == pytest.approx(general)

    def test_exact_match_mode(self, figure1):
        query = dfa_for_pattern("Ford", match_anywhere=False)
        assert match_probability(figure1, query) == pytest.approx(0.1152)
        query5 = dfa_for_pattern(r"\x\x\x\x\x", match_anywhere=False)
        dist = ops.string_distribution(figure1)
        want = sum(p for s, p in dist.items() if len(s) == 5)
        assert match_probability(figure1, query5) == pytest.approx(want)

    def test_string_emissions(self, figure3):
        """The evaluator handles multi-character (chunk) emissions."""
        from repro.core.chunks import collapse, find_min_sfa

        region = find_min_sfa(figure3, {1, 2, 4})
        chunked = collapse(figure3, region, k=2)
        for pattern in ["%bc%", "%aef%", "%ae%", "%cd%"]:
            want = match_probability(figure3, compile_like(pattern))
            got = match_probability(chunked, compile_like(pattern))
            assert got == pytest.approx(want), pattern


class TestMatchProbabilityStrings:
    STRINGS = [("the Ford car", 0.5), ("the F0rd car", 0.3), ("other", 0.2)]

    def test_sums_matching(self):
        query = compile_like("%Ford%")
        assert match_probability_strings(self.STRINGS, query) == pytest.approx(0.5)

    def test_matching_strings_filter(self):
        query = compile_like("%car%")
        kept = matching_strings(self.STRINGS, query)
        assert [s for s, _ in kept] == ["the Ford car", "the F0rd car"]

    def test_empty_input(self):
        assert match_probability_strings([], compile_like("%a%")) == 0.0


class TestLikeTranslation:
    def test_plain_substring(self):
        pattern, anywhere = like_to_pattern("%Ford%")
        assert pattern == "Ford"
        assert anywhere

    def test_inner_wildcards(self):
        pattern, anywhere = like_to_pattern("%F%rd%")
        assert pattern == r"F(\x)*rd"
        assert anywhere

    def test_underscore(self):
        pattern, _ = like_to_pattern("%F_rd%")
        assert pattern == r"F\xrd"

    def test_anchored_like(self):
        pattern, anywhere = like_to_pattern("Ford%")
        assert pattern == r"Ford(\x)*"
        assert not anywhere

    def test_regex_passthrough(self):
        pattern, anywhere = like_to_pattern(r"REGEX:U.S.C. 2\d\d\d")
        assert pattern == r"U.S.C. 2\d\d\d"
        assert anywhere

    def test_metacharacters_escaped(self):
        pattern, _ = like_to_pattern("%a(b)*c%")
        assert pattern == r"a\(b\)\*c"

    def test_escape_literal(self):
        assert escape_literal("a(b|c)*") == r"a\(b\|c\)\*"

    def test_compile_like_semantics(self):
        dfa = compile_like("%Ford%")
        assert dfa.accepts("my Ford car")
        assert not dfa.accepts("my Fjord car")
        exact = compile_like("Ford")
        assert exact.accepts("Ford")
        assert not exact.accepts("a Ford")


class TestRankAnswers:
    def _answers(self):
        return [
            Answer(1, 0, 0, 0.5),
            Answer(2, 0, 1, 0.9),
            Answer(3, 1, 0, 0.0),
            Answer(4, 1, 1, 0.7),
        ]

    def test_sorted_and_filtered(self):
        ranked = rank_answers(self._answers(), num_ans=10)
        assert [a.line_id for a in ranked] == [2, 4, 1]

    def test_num_ans_cutoff(self):
        ranked = rank_answers(self._answers(), num_ans=2)
        assert [a.line_id for a in ranked] == [2, 4]

    def test_none_returns_all_matching(self):
        assert len(rank_answers(self._answers(), num_ans=None)) == 3

    def test_tie_broken_by_line_id(self):
        answers = [Answer(5, 0, 0, 0.5), Answer(3, 0, 0, 0.5)]
        ranked = rank_answers(answers, num_ans=None)
        assert [a.line_id for a in ranked] == [3, 5]

    def test_min_probability(self):
        ranked = rank_answers(self._answers(), num_ans=None, min_probability=0.6)
        assert [a.line_id for a in ranked] == [2, 4]
