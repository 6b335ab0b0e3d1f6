"""Query automata: the paper's pattern language, NFAs, DFAs and tries."""

from .dfa import DEAD, Dfa, dfa_for_pattern
from .nfa import CharMatcher, Nfa, compile_pattern
from .regex import (
    Alternation,
    AnyChar,
    Concat,
    Digit,
    Epsilon,
    Literal,
    Node,
    RegexError,
    Star,
    literal_prefix,
    parse,
)
from .trie import DictionaryTrie

__all__ = [
    "DEAD",
    "Dfa",
    "dfa_for_pattern",
    "CharMatcher",
    "Nfa",
    "compile_pattern",
    "Alternation",
    "AnyChar",
    "Concat",
    "Digit",
    "Epsilon",
    "Literal",
    "Node",
    "RegexError",
    "Star",
    "literal_prefix",
    "parse",
    "DictionaryTrie",
]
