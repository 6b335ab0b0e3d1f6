"""SQL LIKE translation (paper Sections 1-2).

Staccato exposes OCR data through the ordinary ``LIKE`` predicate:
``DocData LIKE '%Ford%'``.  ``%`` matches any (possibly empty) substring
and ``_`` any single character; everything else is literal.  We translate
to the paper's pattern language (:mod:`repro.automata.regex`):
``% -> (\\x)*``, ``_ -> \\x``, with metacharacters escaped.  The common
``'%p%'`` shape is recognized and compiled to the efficient
match-anywhere DFA instead of carrying explicit ``(\\x)*`` wrappers.

Beyond standard SQL, a pattern may opt into the paper's full regex
language with the ``REGEX:`` prefix (used by the evaluation's regex
queries, e.g. ``REGEX:U.S.C. 2\\d\\d\\d`` -- these are implicitly
match-anywhere, like all queries in the paper's workload).

A pattern longer than :data:`MAX_PATTERN_CHARS` is refused before it is
parsed, with the same :class:`~repro.automata.dfa.QueryTooComplex` the
DFA's state budget raises.
"""

from __future__ import annotations

from ..automata.dfa import Dfa, QueryTooComplex, dfa_for_pattern

__all__ = [
    "MAX_PATTERN_CHARS",
    "escape_literal",
    "like_to_pattern",
    "compile_like",
]

_METACHARACTERS = set("()|*\\")
REGEX_PREFIX = "REGEX:"

#: The longest pattern compiled.  A literal needs a DFA state per
#: character, so past about 255 characters ``MAX_STATES`` refuses it
#: anyway -- but only after parsing it and building its NFA, work linear
#: in its length.  This bound refuses a longer pattern first, in constant
#: time.
MAX_PATTERN_CHARS = 4096


def escape_literal(text: str) -> str:
    """Escape pattern metacharacters so ``text`` matches literally."""
    return "".join(f"\\{ch}" if ch in _METACHARACTERS else ch for ch in text)


def like_to_pattern(like: str) -> tuple[str, bool]:
    """Translate a LIKE pattern to ``(pattern, match_anywhere)``.

    ``match_anywhere=True`` means the pattern should be compiled with the
    substring (``Sigma* L Sigma*``) semantics; in that case leading and
    trailing ``%`` have already been stripped.
    """
    if like.startswith(REGEX_PREFIX):
        return like[len(REGEX_PREFIX):], True
    body = like
    anywhere = False
    if body.startswith("%") and body.endswith("%") and len(body) >= 2:
        anywhere = True
        body = body[1:-1]
    parts: list[str] = []
    for ch in body:
        if ch == "%":
            parts.append("(\\x)*")
        elif ch == "_":
            parts.append("\\x")
        else:
            parts.append(escape_literal(ch))
    pattern = "".join(parts)
    if not anywhere:
        # Whole-string LIKE semantics: no implicit wildcards at the ends.
        return pattern, False
    return pattern, True


def compile_like(like: str) -> Dfa:
    """Compile a LIKE pattern (or ``REGEX:`` pattern) to its query DFA."""
    if len(like) > MAX_PATTERN_CHARS:
        raise QueryTooComplex(
            f"the pattern has {len(like)} characters, more than "
            f"{MAX_PATTERN_CHARS}"
        )
    pattern, anywhere = like_to_pattern(like)
    return dfa_for_pattern(pattern, match_anywhere=anywhere)
