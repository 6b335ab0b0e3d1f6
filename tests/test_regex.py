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
)


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
