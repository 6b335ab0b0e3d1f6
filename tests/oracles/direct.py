"""Direct (dictionary-less) indexing and its exponential blowup (Fig. 5).

"Directly applying an inverted index to transducer data is essentially
doomed to failure": the representation stores ``k**m`` strings, and
indexing every term occurrence of every stored string needs a posting for
each.  This module computes that posting count *exactly* (big-integer
dynamic program, no enumeration) so the Figure 5 curves can be
regenerated; an enumeration cross-check is provided for test-sized
automata.
"""

from __future__ import annotations

from repro.sfa.model import Sfa
from repro.sfa.ops import enumerate_strings, string_count, topological_order

__all__ = ["direct_posting_count", "direct_posting_count_enumerated"]

# Path-state classes for the token-counting DP: what the previous emitted
# character was (affects whether the next non-space char starts a token).
_BOUNDARY = 0  # start of line or after a space
_IN_TOKEN = 1


def _token_starts(text: str, entering_state: int) -> tuple[int, int]:
    """Number of token starts when reading ``text`` from a given state,
    plus the state after reading it."""
    state = entering_state
    starts = 0
    for ch in text:
        if ch == " ":
            state = _BOUNDARY
        else:
            if state == _BOUNDARY:
                starts += 1
            state = _IN_TOKEN
    return starts, state


def direct_posting_count(sfa: Sfa) -> int:
    """Total postings from directly indexing every stored string.

    Counts, over all ``string_count(sfa)`` stored strings, the number of
    whitespace-delimited term occurrences -- each needs one posting.
    Computed by a DP carrying ``(path count, total token starts)`` per
    (node, boundary-state) pair, so it is exact even when the number of
    strings overflows machine integers (the paper notes the 64-bit
    overflow beyond m = 60 in Figure 5(B)).
    """
    # state: node -> {boundary-state: (paths, tokens)}
    table: dict[int, dict[int, tuple[int, int]]] = {
        node: {} for node in sfa.nodes
    }
    table[sfa.start][_BOUNDARY] = (1, 0)
    for node in topological_order(sfa):
        cell = table[node]
        if not cell:
            continue
        for succ in set(sfa.successors(node)):
            succ_cell = table[succ]
            for emission in sfa.emissions(node, succ):
                for state, (paths, tokens) in cell.items():
                    starts, nxt_state = _token_starts(emission.string, state)
                    prev_paths, prev_tokens = succ_cell.get(nxt_state, (0, 0))
                    succ_cell[nxt_state] = (
                        prev_paths + paths,
                        prev_tokens + tokens + paths * starts,
                    )
    final = table[sfa.final]
    return sum(tokens for _, tokens in final.values())


def direct_posting_count_enumerated(sfa: Sfa, limit: int = 100_000) -> int:
    """Cross-check by brute-force enumeration (tests only)."""
    if string_count(sfa) > limit:
        raise ValueError("too many strings to enumerate; use the DP")
    total = 0
    for text, _ in enumerate_strings(sfa):
        total += len(text.split())
    return total
