"""A complete transition-table DFA over an explicit alphabet, and Moore
minimization of it.

The shipped :class:`repro.automata.dfa.Dfa` is already a complete table,
over character classes rather than characters.  This is the textbook
form over a concrete alphabet, which the tests use to check the class
table's language (``materialize``) and that subset construction leaves
states a minimizer can merge (``minimize``).
"""

from __future__ import annotations

from repro.automata.dfa import DEAD, Dfa

__all__ = ["MaterializedDfa", "materialize", "minimize"]


class MaterializedDfa:
    """A complete transition-table DFA over an explicit alphabet."""

    def __init__(
        self,
        alphabet: str,
        table: list[list[int]],
        start: int,
        accepting: frozenset[int],
        dead: int,
    ) -> None:
        self.alphabet = alphabet
        self._index = {ch: i for i, ch in enumerate(alphabet)}
        self.table = table
        self.start = start
        self.accepting = accepting
        self.dead = dead

    @property
    def num_states(self) -> int:
        """Total states including the dead sink."""
        return len(self.table)

    def step(self, state: int, ch: str) -> int:
        """Table-lookup transition; unknown characters go dead."""
        col = self._index.get(ch)
        if col is None:
            return self.dead
        return self.table[state][col]

    def accepts(self, text: str) -> bool:
        """Whole-string acceptance over the materialized table."""
        state = self.start
        for ch in text:
            state = self.step(state, ch)
        return state in self.accepting


def materialize(dfa: Dfa, alphabet: str) -> MaterializedDfa:
    """The states of ``dfa`` reachable over ``alphabet``, as a complete
    table over it (plus a dead sink)."""
    pending = [dfa.start]
    seen = {dfa.start}
    while pending:
        state = pending.pop()
        for ch in alphabet:
            nxt = dfa.step(state, ch)
            if nxt != DEAD and nxt not in seen:
                seen.add(nxt)
                pending.append(nxt)
    states = sorted(seen)
    index = {s: i for i, s in enumerate(states)}
    dead = len(states)
    table = [[dead] * len(alphabet) for _ in range(dead + 1)]
    for state in states:
        for j, ch in enumerate(alphabet):
            nxt = dfa.step(state, ch)
            table[index[state]][j] = dead if nxt == DEAD else index[nxt]
    accepting = frozenset(index[s] for s in states if dfa.is_accepting(s))
    return MaterializedDfa(alphabet, table, index[dfa.start], accepting, dead)


def minimize(dfa: MaterializedDfa) -> MaterializedDfa:
    """Moore partition-refinement minimization of a materialized DFA."""
    n = dfa.num_states
    # Initial partition: accepting vs non-accepting.
    block = [1 if s in dfa.accepting else 0 for s in range(n)]
    while True:
        signatures: dict[tuple[int, ...], int] = {}
        new_block = [0] * n
        for state in range(n):
            signature = (block[state],) + tuple(
                block[dfa.table[state][j]] for j in range(len(dfa.alphabet))
            )
            new_block[state] = signatures.setdefault(signature, len(signatures))
        if new_block == block:
            break
        block = new_block
    num_blocks = max(block) + 1
    table = [[0] * len(dfa.alphabet) for _ in range(num_blocks)]
    for state in range(n):
        for j in range(len(dfa.alphabet)):
            table[block[state]][j] = block[dfa.table[state][j]]
    accepting = frozenset(block[s] for s in dfa.accepting)
    return MaterializedDfa(
        dfa.alphabet, table, block[dfa.start], accepting, block[dfa.dead]
    )
