"""Dictionary-based inverted index construction over SFAs.

Implements the paper's Algorithms 3 and 4 (Appendix F): the dictionary of
terms is compiled into a prefix-trie automaton with one final state per
term; a dynamic program walks the SFA's edges in topological order and
runs the trie over every stored string, starting a fresh run at every
character offset.  Runs still alive at the end of a string are passed to
successor edges as *augmented states* -- (trie state, original posting)
pairs -- which is how terms straddling several edges/chunks are found.
Whenever a final state is reached, the posting recorded is the location
where the term *started*.

There is one DP (:func:`_postings_dp`) and two adapters feeding it
"edges in topological order, per edge its strings in rank order":
:func:`build_kernel_postings` reads them off a
:class:`~repro.sfa.kernel.CompiledKernel` (what ``build_index`` streams
from the ``CompiledKernel`` table and what ingest has just compiled),
:func:`build_sfa_postings` off an :class:`~repro.sfa.model.Sfa`.  The DP
does Algorithm 4's work once per distinct string instead of once per
stored string per augmented state:

* *fresh runs* depend only on the string, so the ``(term, offset)`` hits
  and the surviving ``(trie state, offset)`` pairs are computed once per
  symbol of the line's symbol table and stamped with ``(u, v, rank)``
  per stored string;
* *continuing runs* do not depend on the rank -- origins are unioned --
  so each edge's distinct strings are bucketed by first character and an
  incoming state walks only the strings under the characters its trie
  node actually branches on.

Characters are normalized one at a time, as the trie's ``step`` does
(``'İ'.lower()`` is two code points: lowering a whole string would shift
offsets), and nothing is shared between lines.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

from ..automata.trie import DictionaryTrie
from ..sfa.kernel import CompiledKernel
from ..sfa.model import Sfa
from ..sfa.ops import topological_order
from .postings import Posting

__all__ = [
    "build_sfa_postings",
    "build_kernel_postings",
]

#: One edge of the DP's input: ``(u, v, symbol ids in rank order)``.
Edge = tuple[int, int, Sequence[int]]


def _normalized(text: str, lower: bool) -> Sequence[str]:
    """``text`` as the characters the trie branches on, one per stored
    character (a character whose ``lower()`` is longer stays one entry,
    which no branch matches -- exactly ``DictionaryTrie.step``)."""
    if not lower:
        return text
    if text.isascii():
        return text.lower()
    return [ch.lower() for ch in text]


def _fresh_runs(
    chars: Sequence[str],
    children: list[dict[str, int]],
    term_of: dict[int, str],
) -> tuple[list[tuple[str, int]], list[tuple[int, int]]]:
    """Algorithm 4's fresh runs over one string: a trie run started at
    every offset.  Returns the ``(term, start offset)`` of every final
    state reached and the ``(trie state, start offset)`` of every run
    still alive at the end of the string."""
    hits: list[tuple[str, int]] = []
    alive: list[tuple[int, int]] = []
    end = len(chars)
    root = children[0]
    for start in range(end):
        state = root.get(chars[start])
        at = start + 1
        while state is not None:
            term = term_of.get(state)
            if term is not None:
                hits.append((term, start))
            if at == end:
                alive.append((state, start))
                break
            state = children[state].get(chars[at])
            at += 1
    return hits, alive


def _postings_dp(
    symbols: Sequence[str], edges: Iterable[Edge], trie: DictionaryTrie
) -> dict[str, set[Posting]]:
    """Paper Algorithm 3 over one line.

    ``edges`` lists every ``(u, v)`` edge once, in an order where all
    edges into a node precede the edges out of it; an edge's strings are
    ``symbols[sid]`` for its ids in rank order.  Start locations travel
    as integers (``step * width + offset``, ``step`` the stored string's
    position in edge order) and become :class:`Posting` rows only for
    the ones a term was found at.
    """
    children, term_of = trie.children, trie.term_of
    lower = not trie.case_sensitive
    chars = [_normalized(symbol, lower) for symbol in symbols]
    fresh = [_fresh_runs(c, children, term_of) for c in chars]
    width = max(map(len, symbols), default=0) + 1

    found: dict[str, set[int]] = {}
    # Augmented states are aggregated per *node*: the union over all
    # incoming edges' survivors, available to every outgoing edge.
    at_node: dict[int, dict[int, set[int]]] = {}
    run_first: list[int] = []
    run_edge: list[tuple[int, int]] = []
    step = 0
    for u, v, syms in edges:
        run_first.append(step)
        run_edge.append((u, v))
        bucket = at_node.get(v)
        if bucket is None:
            bucket = at_node[v] = {}

        # Fresh runs beginning inside this edge's strings.
        code = step * width
        for sid in syms:
            hits, alive = fresh[sid]
            for term, start in hits:
                found.setdefault(term, set()).add(code + start)
            for state, start in alive:
                bucket.setdefault(state, set()).add(code + start)
            code += width
        step += len(syms)

        # Runs continuing from predecessor edges: per distinct string.
        incoming = at_node.get(u)
        if not incoming:
            continue
        by_first: dict[str, list[Sequence[str]]] = {}
        passes = False  # an empty string: every run survives it unchanged
        for sid in set(syms):
            c = chars[sid]
            if c:
                by_first.setdefault(c[0], []).append(c)
            else:
                passes = True
        for state, origins in incoming.items():
            if passes:
                bucket.setdefault(state, set()).update(origins)
            for ch, entered in children[state].items():
                for c in by_first.get(ch, ()):
                    current = entered
                    at = 1
                    end = len(c)
                    while current is not None:
                        term = term_of.get(current)
                        if term is not None:
                            found.setdefault(term, set()).update(origins)
                        if at == end:
                            bucket.setdefault(current, set()).update(origins)
                            break
                        current = children[current].get(c[at])
                        at += 1

    index: dict[str, set[Posting]] = {}
    for term, codes in found.items():
        postings = index[term] = set()
        for code in codes:
            at, offset = divmod(code, width)
            run = bisect_right(run_first, at) - 1
            u, v = run_edge[run]
            postings.add(
                Posting(u=u, v=v, rank=at - run_first[run], offset=offset)
            )
    return index


def build_kernel_postings(
    kernel: CompiledKernel, trie: DictionaryTrie
) -> dict[str, set[Posting]]:
    """The index-construction DP over one compiled kernel: its runs are
    the ``(u, v)`` edges in topological order, its symbol table the
    line's distinct strings.  Returns ``term -> postings``, equal to
    :func:`build_sfa_postings` of the graph the kernel was compiled
    from."""
    ids = kernel.node_ids
    runs, dst = kernel.node_runs, kernel.run_dst
    starts, syms = kernel.run_starts, kernel.step_syms
    edges = [
        (ids[t], ids[dst[run]], syms[starts[run] : starts[run + 1]])
        for t in range(kernel.num_nodes)
        for run in range(runs[t], runs[t + 1])
    ]
    return _postings_dp(kernel.symbols, edges, trie)


def build_sfa_postings(
    sfa: Sfa, trie: DictionaryTrie
) -> dict[str, set[Posting]]:
    """Paper Algorithm 3: the index-construction DP over one SFA.

    Works uniformly over FullSFA data (single-character emissions) and
    Staccato chunk graphs (up to k string emissions per edge).  Returns
    ``term -> postings`` for this line.
    """
    symbols: list[str] = []
    sym_ids: dict[str, int] = {}
    edges: list[Edge] = []
    for node in topological_order(sfa):
        for succ in set(sfa.successors(node)):
            syms = []
            for emission in sfa.emissions(node, succ):
                sid = sym_ids.get(emission.string)
                if sid is None:
                    sid = sym_ids[emission.string] = len(symbols)
                    symbols.append(emission.string)
                syms.append(sid)
            edges.append((node, succ, syms))
    return _postings_dp(symbols, edges, trie)

