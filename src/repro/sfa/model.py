"""The stochastic finite automaton (SFA) data model.

An SFA is the probabilistic representation that OCR software (the paper uses
Google's OCRopus) emits for one line of scanned text.  It is a directed
acyclic graph with a unique start node and a unique final node; every edge
carries one or more *emissions* -- ``(string, probability)`` pairs -- and
every source-to-sink labeled path spells out one candidate transcription of
the line, whose probability is the product of the emission probabilities
along the path (paper Section 2.2).

The paper's Section 3 generalizes the transition function from single
characters to strings, ``delta: E x Sigma+ -> [0, 1]``, so that a Staccato
chunk (several collapsed transitions) fits the same definition.  This module
implements that *generalized* SFA directly; a plain character-level SFA is
simply the special case where every emission has length one.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

__all__ = ["Emission", "Sfa", "SfaError"]


class SfaError(ValueError):
    """Raised when an operation would produce a structurally invalid SFA."""


# The largest probability an emission may carry (summing duplicates may
# overshoot 1 by rounding).
_MAX_PROB = 1.0 + 1e-12


def _emission_error(string: str, prob: float) -> SfaError:
    """Why ``(string, prob)`` is not an emission."""
    if not string:
        return SfaError("emission string must be non-empty")
    return SfaError(f"emission probability {prob} outside [0, 1]")


class _EmissionFields(NamedTuple):
    string: str
    prob: float


class Emission(_EmissionFields):
    """One labeled transition on an edge: emit ``string`` with ``prob``.

    A validated tuple: constructing one checks the string and the
    probability, and :meth:`Sfa.add_edge` builds its emissions from pairs
    it has already checked without paying for a Python constructor per
    emission.
    """

    __slots__ = ()

    def __new__(cls, string: str, prob: float) -> "Emission":
        if not (string and 0.0 <= prob <= _MAX_PROB):
            raise _emission_error(string, prob)
        return tuple.__new__(cls, (string, prob))


class Sfa:
    """A generalized stochastic finite automaton over a DAG.

    Nodes are integers.  Edges are ordered pairs ``(u, v)`` and carry a list
    of :class:`Emission` objects sorted by descending probability.  The
    distinguished ``start`` and ``final`` nodes are the unique source and
    sink of the DAG.

    The class enforces *structural* validity (no duplicate edges, no
    self-loops, acyclicity is checked by :func:`repro.sfa.ops.validate`) but
    deliberately does not force the stochastic normalization condition:
    Staccato approximations legitimately retain less than the full
    probability mass (paper Section 3.1).
    """

    __slots__ = ("_succ", "_pred", "_emissions", "_mass", "start", "final")

    def __init__(self, start: int = 0, final: int = 1) -> None:
        if start == final:
            raise SfaError("start and final nodes must be distinct")
        self._succ: dict[int, list[int]] = {start: [], final: []}
        self._pred: dict[int, list[int]] = {start: [], final: []}
        self._emissions: dict[tuple[int, int], list[Emission]] = {}
        self._mass: dict[tuple[int, int], float] = {}
        self.start = start
        self.final = final

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: int) -> int:
        """Add an isolated node (a no-op if it already exists)."""
        if node not in self._succ:
            self._succ[node] = []
            self._pred[node] = []
        return node

    def fresh_node(self) -> int:
        """Add and return a node with an id not yet in use."""
        node = max(self._succ) + 1
        return self.add_node(node)

    def add_edge(
        self, u: int, v: int, emissions: Iterable[tuple[str, float] | Emission]
    ) -> None:
        """Add edge ``(u, v)`` carrying ``emissions``.

        Emissions are normalized to :class:`Emission` instances and stored
        sorted by descending probability (ties broken by string, so the
        order is deterministic).  Duplicate strings on one edge are merged
        by summing their probabilities.  Every item and every merged sum
        is checked as :class:`Emission` checks one.
        """
        if u == v:
            raise SfaError(f"self-loop on node {u} not allowed in a DAG")
        if (u, v) in self._emissions:
            raise SfaError(f"duplicate edge ({u}, {v})")
        merged: dict[str, float] = {}
        for string, prob in emissions:
            if not (string and 0.0 <= prob <= _MAX_PROB):
                raise _emission_error(string, prob)
            seen = merged.get(string)
            if seen is not None:
                prob = seen + prob
                if not prob <= _MAX_PROB:
                    raise _emission_error(string, prob)
            merged[string] = prob
        if not merged:
            raise SfaError(f"edge ({u}, {v}) must carry at least one emission")
        self.add_node(u)
        self.add_node(v)
        self._succ[u].append(v)
        self._pred[v].append(u)
        # By string, then (stably) by descending probability.
        pairs = sorted(merged.items())
        pairs.sort(key=itemgetter(1), reverse=True)
        self._emissions[(u, v)] = list(map(tuple.__new__, repeat(Emission), pairs))

    def remove_edge(self, u: int, v: int) -> None:
        """Remove edge ``(u, v)``; endpoints are kept."""
        if (u, v) not in self._emissions:
            raise SfaError(f"edge ({u}, {v}) does not exist")
        del self._emissions[(u, v)]
        self._mass.pop((u, v), None)
        self._succ[u].remove(v)
        self._pred[v].remove(u)

    def remove_node(self, node: int) -> None:
        """Remove ``node`` and every incident edge."""
        if node in (self.start, self.final):
            raise SfaError("cannot remove the start or final node")
        if node not in self._succ:
            raise SfaError(f"node {node} does not exist")
        for v in list(self._succ[node]):
            self.remove_edge(node, v)
        for u in list(self._pred[node]):
            self.remove_edge(u, node)
        del self._succ[node]
        del self._pred[node]

    def replace_emissions(
        self, u: int, v: int, emissions: Iterable[tuple[str, float] | Emission]
    ) -> None:
        """Replace the emission list of an existing edge."""
        self.remove_edge(u, v)
        self.add_edge(u, v, emissions)

    def truncate_edge(self, u: int, v: int, k: int) -> None:
        """Keep only the ``k`` most probable emissions of edge ``(u, v)``.

        Exactly ``replace_emissions(u, v, emissions(u, v)[:k])`` without
        re-checking and re-sorting a list that already is both: when
        emissions are dropped the edge moves to the end of ``u``'s
        successors, ``v``'s predecessors and the edge order.  An edge
        carrying at most ``k`` emissions is left as it is.
        """
        if k < 1:
            raise SfaError(f"an edge must keep at least one emission, got k={k}")
        emissions = self._emissions.get((u, v))
        if emissions is None:
            raise SfaError(f"edge ({u}, {v}) does not exist")
        if len(emissions) <= k:
            return
        self.remove_edge(u, v)
        self._succ[u].append(v)
        self._pred[v].append(u)
        self._emissions[(u, v)] = emissions[:k]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[int]:
        """All node ids."""
        return list(self._succ)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs."""
        return list(self._emissions)

    @property
    def num_nodes(self) -> int:
        """Node count."""
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        """Edge count (the m of a Staccato representation)."""
        return len(self._emissions)

    def successors(self, node: int) -> list[int]:
        """Copy of the successor list of ``node``."""
        return list(self._succ[node])

    def predecessors(self, node: int) -> list[int]:
        """Copy of the predecessor list of ``node``."""
        return list(self._pred[node])

    # No-copy views for hot paths (callers must not mutate the results).
    def succ(self, node: int) -> list[int]:
        """Successor list view (do not mutate)."""
        return self._succ[node]

    def pred(self, node: int) -> list[int]:
        """Predecessor list view (do not mutate)."""
        return self._pred[node]

    def out_degree(self, node: int) -> int:
        """Number of outgoing edges."""
        return len(self._succ[node])

    def in_degree(self, node: int) -> int:
        """Number of incoming edges."""
        return len(self._pred[node])

    def emissions(self, u: int, v: int) -> list[Emission]:
        """The (string, prob) labels on edge (u, v), most likely first."""
        return list(self._emissions[(u, v)])

    def has_edge(self, u: int, v: int) -> bool:
        """True when edge (u, v) exists."""
        return (u, v) in self._emissions

    def has_node(self, node: int) -> bool:
        """True when ``node`` exists."""
        return node in self._succ

    def iter_edge_emissions(self) -> Iterator[tuple[int, int, Emission]]:
        """Yield ``(u, v, emission)`` for every emission in the SFA."""
        for (u, v), emissions in self._emissions.items():
            for emission in emissions:
                yield u, v, emission

    def edge_mass(self, u: int, v: int) -> float:
        """Total probability carried by edge ``(u, v)``.

        Summed in stored order on first use and kept until the edge is
        removed (an edge's emission list never changes in place).
        """
        mass = self._mass.get((u, v))
        if mass is None:
            mass = sum(e.prob for e in self._emissions[(u, v)])
            self._mass[(u, v)] = mass
        return mass

    def num_emissions(self) -> int:
        """Total number of stored ``(edge, string)`` pairs."""
        return sum(len(e) for e in self._emissions.values())

    def max_strings_per_edge(self) -> int:
        """The effective ``k`` of this representation."""
        if not self._emissions:
            return 0
        return max(len(e) for e in self._emissions.values())

    # ------------------------------------------------------------------
    # Copying / equality / debugging
    # ------------------------------------------------------------------
    def copy(self) -> "Sfa":
        """An independent structural copy.

        Adjacency and emission lists are copied as they stand: they are
        already validated, merged and sorted, and an :class:`Emission` is
        a tuple, so the two sides share nothing mutable.
        """
        clone = Sfa(self.start, self.final)
        clone._succ = {node: list(succ) for node, succ in self._succ.items()}
        clone._pred = {node: list(pred) for node, pred in self._pred.items()}
        clone._emissions = {
            edge: list(emissions) for edge, emissions in self._emissions.items()
        }
        clone._mass = dict(self._mass)
        return clone

    def structurally_equal(self, other: "Sfa") -> bool:
        """True when nodes, edges and emissions all coincide."""
        if (self.start, self.final) != (other.start, other.final):
            return False
        if set(self._succ) != set(other._succ):
            return False
        if set(self._emissions) != set(other._emissions):
            return False
        for key, emissions in self._emissions.items():
            theirs = other._emissions[key]
            if len(emissions) != len(theirs):
                return False
            for mine, its in zip(emissions, theirs):
                if mine.string != its.string or abs(mine.prob - its.prob) > 1e-9:
                    return False
        return True

    def __repr__(self) -> str:
        return (
            f"Sfa(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"emissions={self.num_emissions()}, start={self.start}, "
            f"final={self.final})"
        )
