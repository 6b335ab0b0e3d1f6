"""Hypothesis strategies for property-based tests.

Central definitions so every test module draws the same kinds of SFAs:
normalized random chains and branching DAGs with the unique-paths
property, plus pattern strings from the paper's query language.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.ocr.corpus import make_ca, make_db, make_lt
from repro.ocr.engine import SimulatedOcrEngine
from repro.ocr.noise import NoiseModel
from repro.service.shards import RoutingTable
from repro.sfa.builder import random_chain_sfa, random_chunk_sfa, random_dag_sfa
from repro.sfa.model import Sfa

__all__ = [
    "chain_sfas",
    "chunk_sfas",
    "dag_sfas",
    "ocr_sfas",
    "index_graphs",
    "keyword_patterns",
    "regex_patterns",
    "routing_moves",
    "routing_tables",
]


@st.composite
def chain_sfas(
    draw, min_length: int = 1, max_length: int = 8, max_choices: int = 4
) -> Sfa:
    """Normalized random chain SFAs (unique paths by construction)."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    length = draw(st.integers(min_value=min_length, max_value=max_length))
    return random_chain_sfa(random.Random(seed), length, max_choices=max_choices)


@st.composite
def chunk_sfas(draw, min_chunks: int = 1, max_chunks: int = 6) -> Sfa:
    """Random chunk graphs with multi-character string emissions --
    shaped like ``staccato_approximate`` output, exercising the compiled
    kernel's symbol table with symbols of varying length."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    chunks = draw(st.integers(min_value=min_chunks, max_value=max_chunks))
    return random_chunk_sfa(random.Random(seed), chunks)


@st.composite
def dag_sfas(draw, min_length: int = 2, max_length: int = 10) -> Sfa:
    """Normalized random branching SFAs (unique paths by construction)."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    length = draw(st.integers(min_value=min_length, max_value=max_length))
    return random_dag_sfa(random.Random(seed), length)


@st.composite
def ocr_sfas(draw, max_chars: int = 14) -> Sfa:
    """Simulated-OCR line SFAs (merge/split/space-drop branching, not just
    the diamonds of ``dag_sfas``), short and without the smoothing tail so
    the oracle stays fast."""
    maker = draw(st.sampled_from((make_ca, make_lt, make_db)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    line = maker(num_docs=1, lines_per_doc=1, seed=seed).documents[0].lines[0]
    start = draw(st.integers(min_value=0, max_value=max(0, len(line) - max_chars)))
    text = line[start : start + max_chars].strip() or "the"
    engine = SimulatedOcrEngine(NoiseModel(tail_mass=0.0), seed=seed)
    return engine.recognize_line(text, line_seed=(seed, start))


#: Alphabet of :func:`index_graphs`: two letters in both cases, a space,
#: and ``'İ'`` -- whose ``lower()`` is the two code points ``'i'`` +
#: U+0307, both of which are in the alphabet on their own too.
INDEX_ALPHABET = "abAB i\u0130\u0307"


@st.composite
def index_graphs(draw, allow_empty: bool = False):
    """Random chunk graphs for the index-construction DP, as its input:
    ``(symbols, edges, nodes)`` with ``edges`` a list of ``(u, v, symbol
    ids in rank order)``, all edges into a node before any edge out of
    it, and ``nodes`` the node ids in topological order (start first,
    final last).

    Node ids are arbitrary (topological order is not id order), every
    node has its chain successor plus random skip edges (several
    successors per node, several predecessors per node), strings are
    0-3 characters (``allow_empty``: an ``Sfa`` cannot hold ``""``, a
    kernel's symbol table can) over :data:`INDEX_ALPHABET`, so
    dictionary terms of 3-5 characters straddle three and more edges.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    count = draw(st.integers(min_value=2, max_value=7))
    ids = rng.sample(range(100), count)
    symbols: list[str] = []
    sym_ids: dict[str, int] = {}
    edges = []
    for at in range(count - 1):
        targets = {at + 1} | {
            to for to in range(at + 2, count) if rng.random() < 0.3
        }
        for to in sorted(targets, key=lambda _: rng.random()):
            strings: set[str] = set()
            want = rng.randint(1, 4)
            while len(strings) < want:
                length = rng.randint(0 if allow_empty else 1, 3)
                strings.add(
                    "".join(rng.choice(INDEX_ALPHABET) for _ in range(length))
                )
            syms = []
            for string in sorted(strings, key=lambda _: rng.random()):
                sid = sym_ids.setdefault(string, len(symbols))
                if sid == len(symbols):
                    symbols.append(string)
                syms.append(sid)
            edges.append((ids[at], ids[to], syms))
    return symbols, edges, ids


keyword_patterns = st.text(
    alphabet="abcdefgh ", min_size=1, max_size=6
).filter(lambda s: s.strip() == s and s)

_ATOMS = st.sampled_from(["a", "b", "c", "\\d", "\\x", "(a|b)", "(c|\\d)"])


@st.composite
def regex_patterns(draw, max_atoms: int = 5) -> str:
    """Random patterns in the paper's query language."""
    count = draw(st.integers(min_value=1, max_value=max_atoms))
    parts = []
    for _ in range(count):
        atom = draw(_ATOMS)
        if draw(st.booleans()) and atom.startswith("("):
            atom += "*"
        parts.append(atom)
    return "".join(parts)


# ----------------------------------------------------------------------
# DocId routing (repro.service.shards.RoutingTable): random geometries
# and rebalance-move sequences, including the mid-rebalance states
# where overrides splice over earlier overrides.
# ----------------------------------------------------------------------
@st.composite
def routing_moves(
    draw, num_shards: int, max_moves: int = 6, max_doc: int = 512
) -> list[tuple[int, int, int]]:
    """Sequences of ``(doc_lo, doc_hi, target)`` rebalance moves."""
    moves = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_moves))):
        a = draw(st.integers(min_value=0, max_value=max_doc))
        b = draw(st.integers(min_value=0, max_value=max_doc))
        target = draw(st.integers(min_value=0, max_value=num_shards - 1))
        moves.append((min(a, b), max(a, b), target))
    return moves


@st.composite
def routing_tables(
    draw, max_shards: int = 5, max_moves: int = 6, max_doc: int = 512
) -> RoutingTable:
    """Routing tables reached by applying random move sequences --
    exactly the states a router can publish mid-rebalance."""
    num_shards = draw(st.integers(min_value=1, max_value=max_shards))
    range_width = draw(st.integers(min_value=1, max_value=64))
    table = RoutingTable(num_shards, range_width)
    for lo, hi, target in draw(
        routing_moves(num_shards, max_moves=max_moves, max_doc=max_doc)
    ):
        table = table.with_move(lo, hi, target)
    return table
