"""Tests for the query-pattern parser (repro.automata.regex)."""

import pytest

from repro.automata import regex
from repro.automata.regex import (
    Alternation,
    AnyChar,
    Concat,
    Digit,
    Epsilon,
    Literal,
    RegexError,
    Star,
    literal_prefix,
    parse,
    required_pairs,
)
from repro.query.like import compile_like


class TestParsing:
    def test_literal_word(self):
        node = parse("ab")
        assert node == Concat((Literal("a"), Literal("b")))

    def test_single_char(self):
        assert parse("a") == Literal("a")

    def test_digit_and_any(self):
        assert parse(r"\d") == Digit()
        assert parse(r"\x") == AnyChar()

    def test_escaped_metacharacters(self):
        assert parse(r"\(") == Literal("(")
        assert parse(r"\*") == Literal("*")
        assert parse(r"\\") == Literal("\\")

    def test_alternation(self):
        node = parse("(8|9)")
        assert node == Alternation((Literal("8"), Literal("9")))

    def test_multiword_alternation(self):
        node = parse("(no|num)")
        assert isinstance(node, Alternation)
        assert len(node.options) == 2

    def test_star(self):
        node = parse(r"(\x)*")
        assert node == Star(AnyChar())

    def test_double_star(self):
        # Star(Star(x)) is Star(x): stacked stars collapse while parsing,
        # so no run of them deepens the AST.
        assert parse("(a)**") == Star(Literal("a"))
        assert parse("(a*)*") == Star(Literal("a"))
        assert parse("a" + "*" * 5000) == Star(Literal("a"))

    def test_empty_pattern(self):
        assert parse("") == Epsilon()

    def test_empty_alternative(self):
        node = parse("(a|)")
        assert node == Alternation((Literal("a"), Epsilon()))

    def test_paper_patterns_parse(self):
        for pattern in [
            r"U.S.C. 2\d\d\d",
            r"Public Law (8|9)\d",
            r"Sec(\x)*\d",
            r"19\d\d, \d\d",
            r"\x\x\x\d\d",
            r"spontan(\x)*",
            r"(no|num).(2|8)",
        ]:
            parse(pattern)  # must not raise

    def test_dot_is_literal(self):
        assert parse(".") == Literal(".")


class TestParseErrors:
    def test_unclosed_group(self):
        with pytest.raises(RegexError):
            parse("(ab")

    def test_unbalanced_close(self):
        with pytest.raises(RegexError):
            parse("ab)")

    def test_dangling_escape(self):
        with pytest.raises(RegexError):
            parse("ab\\")

    def test_leading_star(self):
        with pytest.raises(RegexError):
            parse("*a")


class TestLiteralPrefix:
    def test_pure_literal(self):
        assert literal_prefix(parse("President")) == "President"

    def test_stops_at_wildcard(self):
        assert literal_prefix(parse(r"Public Law (8|9)\d")) == "Public Law "
        assert literal_prefix(parse(r"U.S.C. 2\d\d\d")) == "U.S.C. 2"

    def test_alternation_has_no_prefix(self):
        assert literal_prefix(parse(r"(no|num).(2|8)")) == ""

    def test_digit_start_has_no_prefix(self):
        assert literal_prefix(parse(r"19\d\d")) == "19"
        assert literal_prefix(parse(r"\d9")) == ""

    def test_helper_is_pure_literal(self):
        assert regex._is_pure_literal(parse("abc"))
        assert not regex._is_pure_literal(parse(r"a\d"))


def pairs_of(pattern: str) -> set[str]:
    return set(required_pairs(parse(pattern)))


class TestRequiredPairs:
    def test_keyword_body(self):
        assert pairs_of("Ford") == {"Fo", "or", "rd"}
        assert pairs_of("aaa") == {"aa"}
        assert pairs_of("a") == set()
        assert pairs_of("") == set()

    def test_digit_and_any_break_a_run(self):
        assert pairs_of(r"ab\dcd") == {"ab", "cd"}
        assert pairs_of(r"ab\xcd") == {"ab", "cd"}
        assert pairs_of(r"U.S.C. 2\d\d\d") == {
            "U.", ".S", "S.", ".C", "C.", ". ", " 2"
        }

    def test_like_wildcards_break_a_run(self):
        for like in ("%ab_cd%", "%ab%cd%", "ab%cd", "ab_cd"):
            assert compile_like(like).required_pairs == {"ab", "cd"}, like

    def test_groups_flatten(self):
        assert pairs_of("(ab)c") == {"ab", "bc"}
        assert pairs_of("a((b)c)") == {"ab", "bc"}
        assert pairs_of("a()b") == {"ab"}

    def test_alternation_and_star_contribute_nothing(self):
        assert pairs_of("(ab|cd)") == set()
        assert pairs_of("x(ab|cd)y") == set()
        assert pairs_of("(ab)*") == set()
        assert pairs_of("xa(bc)*dy") == {"xa", "dy"}
        assert pairs_of(r"Public(\x)*Law") == {
            "Pu", "ub", "bl", "li", "ic", "La", "aw"
        }

    def test_escaped_metacharacter_is_a_literal(self):
        assert pairs_of(r"a\(b") == {"a(", "(b"}
        assert pairs_of(r"\*\*") == {"**"}

    def test_whole_string_like_requires_the_same_pairs(self):
        for body in ("Congress", "ab_cd", "x%y"):
            assert (
                compile_like(body).required_pairs
                == compile_like(f"%{body}%").required_pairs
            ), body

    def test_the_dfa_carries_them(self):
        assert compile_like(r"REGEX:Public Law (8|9)\d").required_pairs == (
            pairs_of("Public Law ")
        )
