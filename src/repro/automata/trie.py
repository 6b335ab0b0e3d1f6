"""Dictionary prefix-trie automaton (paper Section 4 and Appendix F).

The inverted-index construction compiles the user-supplied dictionary of
terms into a trie automaton "with multiple final states, each
corresponding to a term".  Algorithm 4 then walks SFA strings through this
automaton, starting a fresh run at every character offset, and records a
posting whenever a final state is reached.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

__all__ = ["DictionaryTrie"]


class DictionaryTrie:
    """A deterministic trie over dictionary terms.

    States are integers, 0 is the root.  ``step`` returns ``-1`` when no
    transition exists (the automaton "dies", Algorithm 4).  Final states
    map back to the term they complete.
    """

    DEAD = -1

    def __init__(self, terms: Iterable[str] = (), case_sensitive: bool = False) -> None:
        self._children: list[dict[str, int]] = [{}]
        self._term_of: dict[int, str] = {}
        self._case_sensitive = case_sensitive
        self._digest: str | None = None
        for term in terms:
            self.add(term)

    def _normalize(self, text: str) -> str:
        return text if self._case_sensitive else text.lower()

    def add(self, term: str) -> None:
        """Insert ``term`` into the dictionary."""
        if not term:
            raise ValueError("cannot index the empty term")
        state = 0
        for ch in self._normalize(term):
            nxt = self._children[state].get(ch)
            if nxt is None:
                nxt = len(self._children)
                self._children.append({})
                self._children[state][ch] = nxt
            state = nxt
        self._term_of[state] = self._normalize(term)
        self._digest = None

    # ------------------------------------------------------------------
    @property
    def start(self) -> int:
        """The root state."""
        return 0

    @property
    def num_states(self) -> int:
        """Number of trie states."""
        return len(self._children)

    @property
    def num_terms(self) -> int:
        """Number of dictionary terms."""
        return len(self._term_of)

    @property
    def case_sensitive(self) -> bool:
        """False when characters are lowercased before each transition."""
        return self._case_sensitive

    @property
    def children(self) -> list[dict[str, int]]:
        """Per state, its outgoing branches ``{normalized char: state}``
        (read-only: the index construction walks these directly)."""
        return self._children

    @property
    def term_of(self) -> dict[int, str]:
        """``{final state: the term it completes}`` (read-only)."""
        return self._term_of

    @property
    def digest(self) -> str:
        """Content digest of the dictionary (hex, 32 chars): what a
        database file records to tell which dictionary its postings were
        computed under."""
        if self._digest is None:
            text = "\n".join(self.terms())
            flag = "S" if self._case_sensitive else "I"
            self._digest = hashlib.sha256(
                f"{flag}\n{text}".encode("utf-8")
            ).hexdigest()[:32]
        return self._digest

    def step(self, state: int, ch: str) -> int:
        """Transition on one character; DEAD when no branch exists."""
        if state == self.DEAD:
            return self.DEAD
        return self._children[state].get(self._normalize(ch), self.DEAD)

    def is_final(self, state: int) -> bool:
        """True when a term ends at ``state``."""
        return state in self._term_of

    def term_at(self, state: int) -> str:
        """The term completed at a final state."""
        return self._term_of[state]

    def final_states(self) -> list[int]:
        """All term-final states."""
        return list(self._term_of)

    def contains(self, term: str) -> bool:
        """Whole-term membership test."""
        state = 0
        for ch in self._normalize(term):
            state = self.step(state, ch)
            if state == self.DEAD:
                return False
        return self.is_final(state)

    def terms(self) -> list[str]:
        """The dictionary, sorted."""
        return sorted(self._term_of.values())
