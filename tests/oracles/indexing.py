"""Index construction as it stood before the kernel-fed DP (PR 22).

Moved verbatim from ``repro.indexing.inverted``: ``_run_dfa`` (paper
Algorithm 4, one trie walk per stored string per incoming augmented
state) and the ``build_sfa_postings`` loop around it (Algorithm 3).  It
is the reference ``tests/test_indexing.py`` holds the shipped postings
DP to: the same ``term -> set[Posting]`` for every graph, from either
adapter.  It leans only on ``DictionaryTrie``'s stepping methods and
``Sfa``'s public accessors.

``edge_postings`` is not moved code: it is the same loop over the DP's
own input form (an edge list), for the one input an ``Sfa`` cannot hold
-- an empty emission string, which a kernel's symbol table can.
"""

from __future__ import annotations

from repro.automata.trie import DictionaryTrie
from repro.indexing.postings import Posting
from repro.sfa.model import Sfa
from repro.sfa.ops import topological_order

__all__ = ["build_sfa_postings", "edge_postings"]

# An augmented-state table: trie state -> set of start postings.
AugmentedStates = dict[int, set[Posting]]


def _run_dfa(
    trie: DictionaryTrie,
    incoming: AugmentedStates,
    u: int,
    v: int,
    rank: int,
    text: str,
    index: dict[str, set[Posting]],
) -> AugmentedStates:
    """Paper Algorithm 4 (RunDFA) for one stored string of one edge.

    Starts a fresh trie run at every offset of ``text``, continues every
    incoming augmented run, emits postings at final states, and returns
    the augmented states surviving past the end of the string.
    """
    survivors: AugmentedStates = {}

    # Fresh runs beginning inside this string.
    active: list[tuple[int, int]] = []  # (trie state, start offset)
    for j, ch in enumerate(text):
        active.append((trie.start, j))
        advanced: list[tuple[int, int]] = []
        for state, start in active:
            nxt = trie.step(state, ch)
            if nxt == trie.DEAD:
                continue
            advanced.append((nxt, start))
            if trie.is_final(nxt):
                index.setdefault(trie.term_at(nxt), set()).add(
                    Posting(u=u, v=v, rank=rank, offset=start)
                )
        active = advanced
    for state, start in active:
        if state != trie.start:
            survivors.setdefault(state, set()).add(
                Posting(u=u, v=v, rank=rank, offset=start)
            )

    # Runs continuing from predecessor edges.
    for state, origins in incoming.items():
        current = state
        died = False
        for ch in text:
            nxt = trie.step(current, ch)
            if nxt == trie.DEAD:
                died = True
                break
            current = nxt
            if trie.is_final(nxt):
                term = trie.term_at(nxt)
                bucket = index.setdefault(term, set())
                bucket.update(origins)
        if not died:
            survivors.setdefault(current, set()).update(origins)
    return survivors


def build_sfa_postings(
    sfa: Sfa, trie: DictionaryTrie
) -> dict[str, set[Posting]]:
    """Paper Algorithm 3: the index-construction DP over one SFA.

    Works uniformly over FullSFA data (single-character emissions) and
    Staccato chunk graphs (up to k string emissions per edge).  Returns
    ``term -> postings`` for this line.
    """
    index: dict[str, set[Posting]] = {}
    # Augmented states are aggregated per *node*: the union over all
    # incoming edges' survivors, available to every outgoing edge.
    at_node: dict[int, AugmentedStates] = {node: {} for node in sfa.nodes}
    for node in topological_order(sfa):
        incoming = at_node[node]
        for succ in set(sfa.successors(node)):
            for rank, emission in enumerate(sfa.emissions(node, succ)):
                survivors = _run_dfa(
                    trie, incoming, node, succ, rank, emission.string, index
                )
                bucket = at_node[succ]
                for state, origins in survivors.items():
                    bucket.setdefault(state, set()).update(origins)
    return index


def edge_postings(symbols, edges, trie: DictionaryTrie) -> dict[str, set[Posting]]:
    """``build_sfa_postings``'s loop over ``(u, v, symbol ids)`` edges
    listed in topological order of ``u``."""
    index: dict[str, set[Posting]] = {}
    at_node: dict[int, AugmentedStates] = {}
    for u, v, syms in edges:
        incoming = at_node.setdefault(u, {})
        bucket = at_node.setdefault(v, {})
        for rank, sid in enumerate(syms):
            survivors = _run_dfa(
                trie, incoming, u, v, rank, symbols[sid], index
            )
            for state, origins in survivors.items():
                bucket.setdefault(state, set()).update(origins)
    return index
