"""Tests for NFA compilation and DFA determinization (repro.automata)."""

import re as python_re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import (
    DEAD,
    MAX_STATES,
    QueryTooComplex,
    dfa_for_pattern,
)
from repro.automata.nfa import compile_pattern

from .oracles.automata import materialize, minimize
from .strategies import regex_patterns

#: The patterns name ``a``, ``b``, ``c`` and digits; the text also holds
#: letters and digits they never name and one non-ASCII character, so
#: the digit class and the "everything else" class 0 are exercised.
TEXT_ALPHABET = "abc019 xyQ58\u00e9"


def _to_python_re(pattern: str) -> str:
    """Translate the paper's pattern language to Python re syntax."""
    out = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\" and i + 1 < len(pattern):
            nxt = pattern[i + 1]
            if nxt == "d":
                out.append("[0-9]")
            elif nxt == "x":
                out.append(".")
            else:
                out.append(python_re.escape(nxt))
            i += 2
            continue
        if ch in "(|)*":
            out.append(ch)
        else:
            out.append(python_re.escape(ch))
        i += 1
    return "".join(out)


class TestMatchAnywhere:
    @pytest.mark.parametrize(
        "pattern,text,expected",
        [
            ("Ford", "the Ford claim", True),
            ("Ford", "the F0rd claim", False),
            (r"U.S.C. 2\d\d\d", "see U.S.C. 2301.", True),
            (r"U.S.C. 2\d\d\d", "see U.S.C. 23x1.", False),
            (r"Public Law (8|9)\d", "Public Law 85", True),
            (r"Public Law (8|9)\d", "Public Law 75", False),
            (r"Sec(\x)*7", "Sec. foo 7", True),
            (r"19\d\d, \d\d", "in 1944, 12 men", True),
            (r"(no|num).(2|8)", "num.8", True),
            (r"(no|num).(2|8)", "no,2", True),  # '.' is literal-any? no: literal
        ],
    )
    def test_cases(self, pattern, text, expected):
        # '.' is a literal in the paper's language, so fix the last case:
        if pattern == r"(no|num).(2|8)" and text == "no,2":
            assert not dfa_for_pattern(pattern).accepts(text)
            return
        assert dfa_for_pattern(pattern).accepts(text) == expected

    def test_empty_pattern_matches_everything(self):
        dfa = dfa_for_pattern("")
        assert dfa.accepts("")
        assert dfa.accepts("anything")

    def test_accept_is_absorbing(self):
        dfa = dfa_for_pattern("ab")
        state = dfa.step_string(dfa.start, "xxabyy")
        assert dfa.is_accepting(state)
        assert dfa.step(state, "z") == state

    def test_no_dead_states_in_anywhere_mode(self):
        dfa = dfa_for_pattern("abc")
        state = dfa.start
        for ch in "zzzzz":
            state = dfa.step(state, ch)
            assert state != DEAD


class TestExactMatch:
    def test_whole_string_only(self):
        dfa = dfa_for_pattern("abc", match_anywhere=False)
        assert dfa.accepts("abc")
        assert not dfa.accepts("xabc")
        assert not dfa.accepts("abcx")
        assert not dfa.accepts("ab")

    def test_star(self):
        dfa = dfa_for_pattern("a(b)*", match_anywhere=False)
        assert dfa.accepts("a")
        assert dfa.accepts("abbbb")
        assert not dfa.accepts("ba")

    def test_dead_state_reached(self):
        dfa = dfa_for_pattern("a", match_anywhere=False)
        assert dfa.step(dfa.start, "z") == DEAD
        assert dfa.step(DEAD, "a") == DEAD
        assert not dfa.is_accepting(DEAD)


class TestAgainstPythonRe:
    @given(regex_patterns(), st.text(alphabet=TEXT_ALPHABET, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_match_anywhere_equivalence(self, pattern, text):
        ours = dfa_for_pattern(pattern).accepts(text)
        theirs = python_re.search(_to_python_re(pattern), text) is not None
        assert ours == theirs

    @given(regex_patterns(), st.text(alphabet=TEXT_ALPHABET, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_exact_equivalence(self, pattern, text):
        ours = dfa_for_pattern(pattern, match_anywhere=False).accepts(text)
        theirs = python_re.fullmatch(_to_python_re(pattern), text) is not None
        assert ours == theirs


class TestMaterializeAndMinimize:
    def test_materialized_agrees_with_lazy(self):
        # Equivalence holds over the materialized alphabet only.
        dfa = dfa_for_pattern(r"a(b|c)\d")
        table = materialize(dfa, "abc019 ")
        for text in [" ab1 ", "ac9", "ab", "a b 1", "abc019", "cab0c"]:
            assert table.accepts(text) == dfa.accepts(text)

    def test_minimize_preserves_language(self):
        table = materialize(dfa_for_pattern(r"(a|b)(a|b)c"), "abc ")
        small = minimize(table)
        assert small.num_states <= table.num_states
        for text in ["aac", "abc", "bbc", "ab", "c", "xxaacxx"[:5]]:
            assert small.accepts(text) == table.accepts(text)

    def test_minimize_reduces_redundant_states(self):
        # (a|b) twice creates sibling subsets that minimize can merge.
        dfa = dfa_for_pattern("(aa|ab)", match_anywhere=False)
        table = materialize(dfa, "ab")
        small = minimize(table)
        assert small.num_states < table.num_states

    def test_unknown_character_is_dead(self):
        table = materialize(dfa_for_pattern("a", match_anywhere=False), "a")
        assert table.step(table.start, "z") == table.dead


class TestCharacterClasses:
    def test_one_class_per_named_character_plus_digits_and_other(self):
        dfa = dfa_for_pattern(r"ab\d")
        assert dfa.num_classes == 4  # other, a, b, digits
        assert dfa.char_class("z") == dfa.char_class("\u00e9") == 0
        assert len({dfa.char_class(d) for d in "0123456789"}) == 1
        assert dfa.char_class("a") != dfa.char_class("b")

    def test_a_named_digit_is_its_own_class(self):
        dfa = dfa_for_pattern(r"1\d")
        assert dfa.char_class("1") != dfa.char_class("2") != 0
        assert dfa.char_class("2") == dfa.char_class("9")

    def test_without_digit_matchers_digits_are_other(self):
        assert dfa_for_pattern(r"a\x").char_class("7") == 0

    @given(regex_patterns(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_table_is_complete_and_closed(self, pattern, anywhere):
        dfa = dfa_for_pattern(pattern, match_anywhere=anywhere)
        assert len(dfa.table) == dfa.num_states + 1  # + DEAD's row
        for row in dfa.table:
            assert len(row) == dfa.num_classes
            assert all(DEAD <= nxt < dfa.num_states for nxt in row)
        assert set(dfa.table[DEAD]) == {DEAD}


class TestEagerStateCount:
    def test_keyword_state_count_is_linear(self):
        # Every state is built up front, not only those a text reaches:
        # one per proper prefix (+ restart overlaps) + accept.
        assert dfa_for_pattern("President").num_states <= len("President") + 2

    def test_nfa_state_count(self):
        nfa = compile_pattern(r"a(b|c)*d")
        assert nfa.num_states > 0
        assert nfa.start != nfa.accept

    def test_state_budget(self):
        # "e", n wildcards, "s" anywhere in the text: the DFA tracks which
        # of the last n + 1 characters were an "e", 2^(n+1) subsets.
        wildcards = "\\x" * 13
        assert dfa_for_pattern("e" + "\\x" * 6 + "s").num_states <= MAX_STATES
        with pytest.raises(QueryTooComplex):
            dfa_for_pattern("e" + wildcards + "s")
        with pytest.raises(QueryTooComplex):
            dfa_for_pattern("(\\x)*e" + wildcards + "s", match_anywhere=False)
