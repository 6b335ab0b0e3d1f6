"""Thompson construction: pattern AST -> nondeterministic finite automaton.

The NFA is the intermediate form between the parsed query pattern and the
deterministic automaton used by the matrix-multiplication query evaluator
(paper Sections 2.1-2.2, citing Hopcroft/Motwani/Ullman [29]).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import regex
from .regex import Node

__all__ = ["CharMatcher", "Nfa", "compile_pattern"]


@dataclass(frozen=True, slots=True)
class CharMatcher:
    """A transition label: a concrete char set, any-digit, or any-char.

    ``kind`` is one of ``"lit"``, ``"digit"``, ``"any"``; for ``"lit"`` the
    matched characters are in ``chars``.
    """

    kind: str
    chars: frozenset[str] = frozenset()


ANY = CharMatcher("any")
DIGIT = CharMatcher("digit")


def _lit(ch: str) -> CharMatcher:
    return CharMatcher("lit", frozenset((ch,)))


@dataclass
class Nfa:
    """An NFA with epsilon moves.

    ``transitions[s]`` is a list of ``(matcher, target)`` pairs;
    ``epsilon[s]`` a list of targets reachable on the empty string.
    ``accept`` is the single accepting state (Thompson's construction
    guarantees one).
    """

    start: int = 0
    accept: int = 1
    transitions: dict[int, list[tuple[CharMatcher, int]]] = field(
        default_factory=dict
    )
    epsilon: dict[int, list[int]] = field(default_factory=dict)
    _next_state: int = 0

    def new_state(self) -> int:
        """Allocate a fresh state id."""
        state = self._next_state
        self._next_state += 1
        self.transitions.setdefault(state, [])
        self.epsilon.setdefault(state, [])
        return state

    def add_transition(self, src: int, matcher: CharMatcher, dst: int) -> None:
        """Add a labeled transition."""
        self.transitions[src].append((matcher, dst))

    def add_epsilon(self, src: int, dst: int) -> None:
        """Add an epsilon move."""
        self.epsilon[src].append(dst)

    @property
    def num_states(self) -> int:
        """Number of allocated states."""
        return self._next_state

    def epsilon_closure(self, state: int) -> int:
        """The states reachable from ``state`` via epsilon moves, as a
        bitset (bit ``s`` set for state ``s``)."""
        bits = 1 << state
        stack = [state]
        while stack:
            for nxt in self.epsilon[stack.pop()]:
                if not bits >> nxt & 1:
                    bits |= 1 << nxt
                    stack.append(nxt)
        return bits


def _build(nfa: Nfa, node: Node) -> tuple[int, int]:
    """Thompson construction; returns the fragment's (start, accept)."""
    if isinstance(node, regex.Literal):
        start, accept = nfa.new_state(), nfa.new_state()
        nfa.add_transition(start, _lit(node.char), accept)
        return start, accept
    if isinstance(node, regex.AnyChar):
        start, accept = nfa.new_state(), nfa.new_state()
        nfa.add_transition(start, ANY, accept)
        return start, accept
    if isinstance(node, regex.Digit):
        start, accept = nfa.new_state(), nfa.new_state()
        nfa.add_transition(start, DIGIT, accept)
        return start, accept
    if isinstance(node, regex.Epsilon):
        start, accept = nfa.new_state(), nfa.new_state()
        nfa.add_epsilon(start, accept)
        return start, accept
    if isinstance(node, regex.Concat):
        first_start, prev_accept = _build(nfa, node.parts[0])
        for part in node.parts[1:]:
            part_start, part_accept = _build(nfa, part)
            nfa.add_epsilon(prev_accept, part_start)
            prev_accept = part_accept
        return first_start, prev_accept
    if isinstance(node, regex.Alternation):
        start, accept = nfa.new_state(), nfa.new_state()
        for option in node.options:
            opt_start, opt_accept = _build(nfa, option)
            nfa.add_epsilon(start, opt_start)
            nfa.add_epsilon(opt_accept, accept)
        return start, accept
    if isinstance(node, regex.Star):
        start, accept = nfa.new_state(), nfa.new_state()
        inner_start, inner_accept = _build(nfa, node.inner)
        nfa.add_epsilon(start, inner_start)
        nfa.add_epsilon(start, accept)
        nfa.add_epsilon(inner_accept, inner_start)
        nfa.add_epsilon(inner_accept, accept)
        return start, accept
    raise TypeError(f"unknown AST node {node!r}")


def compile_pattern(pattern: str | Node) -> Nfa:
    """Compile a pattern (text or pre-parsed AST) to an NFA."""
    node = regex.parse(pattern) if isinstance(pattern, str) else pattern
    nfa = Nfa(transitions={}, epsilon={})
    start, accept = _build(nfa, node)
    nfa.start = start
    nfa.accept = accept
    return nfa
