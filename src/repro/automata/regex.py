"""Parser for the paper's query-pattern language.

Staccato's ``LIKE`` predicate accepts keyword and regular-expression
patterns that are compiled to DFAs (paper Section 2.1).  The language used
in the evaluation (Tables 4 and 6) consists of:

* literal characters (``.`` and space are literals: ``U.S.C. 2\\d\\d\\d``);
* ``\\d`` -- any decimal digit;
* ``\\x`` -- any character;
* ``( a | b | ... )`` -- alternation of sub-patterns (``(8|9)``, ``(no|num)``);
* ``*`` -- Kleene star on the preceding atom (``(\\x)*``; stacked stars
  are one star);
* ``\\c`` -- escape for a literal ``(``, ``)``, ``|``, ``*`` or ``\\``.

The parser produces a small AST that :mod:`repro.automata.nfa` compiles via
Thompson's construction.  Groups nest at most :data:`MAX_NESTING` deep, so
the parser's and the compiler's recursion stays far inside Python's limit.
"""

from __future__ import annotations

import string as _string
from dataclasses import dataclass

__all__ = [
    "RegexError",
    "Node",
    "Literal",
    "AnyChar",
    "Digit",
    "Concat",
    "Alternation",
    "Star",
    "Epsilon",
    "MAX_NESTING",
    "parse",
    "literal_prefix",
    "required_pairs",
]

DIGITS = frozenset(_string.digits)

#: The deepest group nesting a pattern may use.  The evaluation's
#: patterns nest one deep; each level costs the parser four stack frames.
MAX_NESTING = 64


class RegexError(ValueError):
    """Raised on a malformed pattern."""


class Node:
    """Base class for pattern AST nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Literal(Node):
    """A single literal character."""

    char: str


@dataclass(frozen=True, slots=True)
class AnyChar(Node):
    """``\\x`` -- matches any single character."""


@dataclass(frozen=True, slots=True)
class Digit(Node):
    """``\\d`` -- matches any single decimal digit."""


@dataclass(frozen=True, slots=True)
class Concat(Node):
    """Concatenation of sub-patterns."""

    parts: tuple[Node, ...]


@dataclass(frozen=True, slots=True)
class Alternation(Node):
    """``(a|b|...)`` alternation."""

    options: tuple[Node, ...]


@dataclass(frozen=True, slots=True)
class Star(Node):
    """Kleene star on the inner pattern."""

    inner: Node


@dataclass(frozen=True, slots=True)
class Epsilon(Node):
    """Matches the empty string."""


_SPECIAL = {"(", ")", "|", "*", "\\"}


class _Parser:
    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        self.pos = 0
        self.depth = 0

    def peek(self) -> str | None:
        if self.pos < len(self.pattern):
            return self.pattern[self.pos]
        return None

    def take(self) -> str:
        ch = self.pattern[self.pos]
        self.pos += 1
        return ch

    def parse_alternation(self) -> Node:
        options = [self.parse_concat()]
        while self.peek() == "|":
            self.take()
            options.append(self.parse_concat())
        if len(options) == 1:
            return options[0]
        return Alternation(tuple(options))

    def parse_concat(self) -> Node:
        parts: list[Node] = []
        while self.peek() is not None and self.peek() not in (")", "|"):
            parts.append(self.parse_item())
        if not parts:
            return Epsilon()
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def parse_item(self) -> Node:
        atom = self.parse_atom()
        while self.peek() == "*":
            self.take()
            if not isinstance(atom, Star):  # Star(Star(x)) is Star(x)
                atom = Star(atom)
        return atom

    def parse_atom(self) -> Node:
        ch = self.take()
        if ch == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise RegexError(f"groups nest more than {MAX_NESTING} deep")
            inner = self.parse_alternation()
            if self.peek() != ")":
                raise RegexError(f"unclosed group in pattern {self.pattern!r}")
            self.take()
            self.depth -= 1
            return inner
        if ch == "\\":
            escaped = self.peek()
            if escaped is None:
                raise RegexError(f"dangling escape in pattern {self.pattern!r}")
            self.take()
            if escaped == "d":
                return Digit()
            if escaped == "x":
                return AnyChar()
            return Literal(escaped)
        if ch == "*":
            raise RegexError(f"'*' with nothing to repeat in {self.pattern!r}")
        if ch == ")":
            raise RegexError(f"unbalanced ')' in pattern {self.pattern!r}")
        return Literal(ch)


def parse(pattern: str) -> Node:
    """Parse ``pattern`` into its AST.

    The empty pattern parses to :class:`Epsilon` (which, under the
    match-anywhere semantics of ``LIKE '%%'``, matches every document).
    """
    parser = _Parser(pattern)
    node = parser.parse_alternation()
    if parser.pos != len(pattern):
        raise RegexError(f"trailing characters in pattern {pattern!r}")
    return node


def literal_prefix(node: Node) -> str:
    """The maximal literal prefix of a pattern.

    Used by :mod:`repro.indexing.anchors` to decide whether a regex is
    *left-anchored* by a dictionary word (paper Sections 2.1 and 4): e.g.
    ``Public Law (8|9)\\d`` has literal prefix ``"Public Law "``.
    """
    if isinstance(node, Literal):
        return node.char
    if isinstance(node, Concat):
        prefix = []
        for part in node.parts:
            piece = literal_prefix(part)
            prefix.append(piece)
            if not _is_pure_literal(part):
                break
        return "".join(prefix)
    return ""


def required_pairs(node: Node) -> frozenset[str]:
    """The adjacent character pairs every match of a pattern contains.

    A pattern's mandatory literal runs -- literals concatenated with
    nothing but empty groups between them, at any group depth -- appear
    verbatim in every string it matches, so each adjacent pair of a run
    does too: ``Public Law (8|9)\\d`` requires ``Pu``, ``ub``, ..., ``w `` and
    ``(ab)c`` requires ``ab`` and ``bc``.  ``\\d``, ``\\x``, an alternation
    and a star end a run and contribute nothing (options need not share
    a run; a star may repeat zero times).  A filescan skips the DP of a
    line that cannot spell one of these pairs: its probability is 0.
    """
    pairs = set()
    previous = None
    for char in _run_chars(node):
        if previous is not None and char is not None:
            pairs.add(previous + char)
        previous = char
    return frozenset(pairs)


def _run_chars(node: Node):
    """The pattern's top-level concatenation flattened: each literal's
    character, and ``None`` for every part that ends a run."""
    if isinstance(node, Literal):
        yield node.char
    elif isinstance(node, Concat):
        for part in node.parts:
            yield from _run_chars(part)
    elif not isinstance(node, Epsilon):
        yield None


def _is_pure_literal(node: Node) -> bool:
    if isinstance(node, Literal):
        return True
    if isinstance(node, Concat):
        return all(_is_pure_literal(part) for part in node.parts)
    return False
