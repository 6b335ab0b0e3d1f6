"""Deterministic query automata, determinized once over character classes.

Queries are evaluated as DFAs over SFA data (paper Section 2.2), and the
evaluation DP is cubic in the number of DFA states (Table 1's
``q^3(m-1)``), so the DFA is kept small and bounded:

* **character classes** -- a pattern's matchers (literal sets, ``\\d``,
  ``\\x``) split the alphabet into a handful of classes no transition
  tells apart: one per literal-set signature, one for the digits outside
  every literal set, one (class 0) for everything else.  Subset
  construction runs once, eagerly, over the classes, and the result is
  an immutable ``state x class`` table: a step is two lookups;
* **absorbing accept** -- for the ``LIKE '%p%'`` (match-anywhere)
  semantics, acceptance of a factor is monotone, so every accepting
  subset collapses into one absorbing accept state;
* **a state budget** -- construction stops past :data:`MAX_STATES`
  states with :class:`QueryTooComplex`, so a pattern whose DFA would blow
  up is refused from the pattern alone, before any data is read.
"""

from __future__ import annotations

from .nfa import Nfa, compile_pattern
from .regex import DIGITS, Node, parse, required_pairs

__all__ = ["DEAD", "MAX_STATES", "Dfa", "QueryTooComplex", "dfa_for_pattern"]

DEAD = -1
_ACCEPT = 0  # the absorbing accept state id (match-anywhere mode)

#: The most states a query DFA may have.  The evaluation's own patterns
#: need far fewer: at most 34 over the 2 200 distinct patterns the four
#: e2e workloads draw on seeds 0-5, at most 15 over figure 17's ``\d``
#: and ``(\x)*`` sweeps and the Table 4/6 regexes.  Past it the DP's
#: ``q^3`` term, not the data, decides the cost: ``e``, n ``\x``, ``s``
#: needs 2^(n+1) + 1 states, 16 385 at n = 13.
MAX_STATES = 256


class QueryTooComplex(ValueError):
    """The pattern's DFA needs more than :data:`MAX_STATES` states."""


class Dfa:
    """The subset-construction DFA of an NFA, complete over its classes.

    ``match_anywhere=True`` gives the ``Sigma* L Sigma*`` semantics the
    paper's LIKE predicate uses: matching restarts at every offset and
    acceptance absorbs.  ``match_anywhere=False`` gives plain whole-string
    acceptance, with ``DEAD`` for the empty subset.
    """

    def __init__(
        self,
        nfa: Nfa,
        match_anywhere: bool = True,
        required_pairs: frozenset[str] = frozenset(),
    ) -> None:
        self._match_anywhere = match_anywhere
        #: Character pairs every accepted string contains
        #: (:func:`~repro.automata.regex.required_pairs` of the pattern);
        #: empty when unknown.  Acceptance never depends on it.
        self.required_pairs = required_pairs
        edges = [
            (src, matcher, dst)
            for src, labelled in nfa.transitions.items()
            for matcher, dst in labelled
        ]
        # A character's class is the set of edges it takes besides the
        # ``\x`` ones; characters no literal set or ``\d`` names take
        # only those, and are class 0.
        named: dict[str, list[int]] = {}
        for i, (_, matcher, _) in enumerate(edges):
            if matcher.kind != "any":
                chars = DIGITS if matcher.kind == "digit" else matcher.chars
                for ch in chars:
                    named.setdefault(ch, []).append(i)
        classes: dict[tuple[int, ...], int] = {(): 0}
        #: character -> class; characters not listed are class 0.
        self._class_of = {
            ch: classes.setdefault(tuple(named[ch]), len(classes))
            for ch in sorted(named)
        }
        taken_by: list[list[int]] = [[] for _ in edges]
        for signature, cls in classes.items():
            for i in signature:
                taken_by[i].append(cls)
        # NFA subsets are bitsets.  Per source state: (the classes an
        # edge takes, the epsilon closure of its target).
        out: dict[int, list[tuple[list[int], int]]] = {}
        for i, (src, matcher, dst) in enumerate(edges):
            takes = list(classes.values()) if matcher.kind == "any" else taken_by[i]
            out.setdefault(src, []).append((takes, nfa.epsilon_closure(dst)))
        movers = sum(1 << src for src in out)
        accept_bit = 1 << nfa.accept
        start_bits = nfa.epsilon_closure(nfa.start)
        restart = start_bits if match_anywhere else 0
        subsets: list[int] = [0] if match_anywhere else []  # 0: _ACCEPT
        ids: dict[int, int] = {}
        accepting = {_ACCEPT} if match_anywhere else set()

        def intern(subset: int) -> int:
            if match_anywhere and subset & accept_bit:
                return _ACCEPT
            if not subset:
                return DEAD
            state = ids.get(subset)
            if state is None:
                if len(subsets) == MAX_STATES:
                    raise QueryTooComplex(
                        f"the query automaton needs more than {MAX_STATES} states"
                    )
                state = ids[subset] = len(subsets)
                subsets.append(subset)
                if subset & accept_bit:
                    accepting.add(state)
            return state

        self.start = intern(start_bits)
        # A class no edge of the subset takes leads to the restart.
        fallback = intern(restart)
        table: list[tuple[int, ...]] = []
        while len(table) < len(subsets):
            subset = subsets[len(table)]
            if not subset:  # the absorbing accept
                table.append((_ACCEPT,) * len(classes))
                continue
            moved: dict[int, int] = {}
            active = subset & movers
            while active:
                low = active & -active
                active ^= low
                for takes, target in out[low.bit_length() - 1]:
                    for cls in takes:
                        moved[cls] = moved.get(cls, restart) | target
            row = [fallback] * len(classes)
            for cls, nxt in moved.items():
                row[cls] = intern(nxt)
            table.append(tuple(row))
        # Row -1 is DEAD's: a sink, so DEAD indexes the table like any state.
        table.append((DEAD,) * len(classes))
        #: ``table[state][cls]``: the transition function, ``DEAD`` included.
        self.table: tuple[tuple[int, ...], ...] = tuple(table)
        self._accepting = frozenset(accepting)

    # ------------------------------------------------------------------
    def char_class(self, ch: str) -> int:
        """The class of character ``ch`` (the table's column)."""
        return self._class_of.get(ch, 0)

    def step(self, state: int, ch: str) -> int:
        """The transition function; ``DEAD`` is a sink for dead ends."""
        return self.table[state][self._class_of.get(ch, 0)]

    def step_string(self, state: int, text: str) -> int:
        """Run the DFA over ``text`` from ``state``."""
        table = self.table
        class_of = self._class_of
        for ch in text:
            state = table[state][class_of.get(ch, 0)]
        return state

    def is_accepting(self, state: int) -> bool:
        """True for accepting states (absorbing in match-anywhere mode)."""
        return state in self._accepting

    def accepts(self, text: str) -> bool:
        """Whole-run acceptance of ``text`` from the start state."""
        return self.is_accepting(self.step_string(self.start, text))

    @property
    def num_states(self) -> int:
        """Number of live states (the ``q`` of Table 1), ``DEAD`` excluded."""
        return len(self.table) - 1

    @property
    def num_classes(self) -> int:
        """Number of character classes (the table's columns)."""
        return len(self.table[0])

    @property
    def match_anywhere(self) -> bool:
        """Whether this DFA uses substring (Sigma* L Sigma*) semantics."""
        return self._match_anywhere


def dfa_for_pattern(pattern: str | Node, match_anywhere: bool = True) -> Dfa:
    """Compile a query pattern straight to its DFA, carrying the pattern's
    required character pairs.

    Raises :class:`QueryTooComplex` past :data:`MAX_STATES` states.
    """
    node = parse(pattern) if isinstance(pattern, str) else pattern
    return Dfa(compile_pattern(node), match_anywhere, required_pairs(node))
