"""Graph and probability operations over SFAs.

These are the primitives the rest of the system is built from: topological
order, reachability, the forward/backward sum-product masses used both for
query probabilities and for Staccato's incremental candidate scoring
(paper Section 3.1), validation of the SFA structural invariants, the
unique-paths check of Section 2.2, and the KL-divergence material from
Appendix C.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterator

from .model import Sfa, SfaError

__all__ = [
    "topological_order",
    "validate",
    "is_valid",
    "ancestors",
    "descendants",
    "sum_product",
    "forward_mass",
    "backward_mass",
    "total_mass",
    "string_count",
    "enumerate_strings",
    "string_distribution",
    "has_unique_paths",
    "kl_divergence",
    "retained_mass",
]


def topological_order(sfa: Sfa) -> list[int]:
    """Return the nodes of ``sfa`` in a topological order.

    Raises :class:`SfaError` if the graph contains a cycle.  The order is
    deterministic (Kahn's algorithm with a sorted frontier).
    """
    in_deg = {node: sfa.in_degree(node) for node in sfa.nodes}
    frontier = sorted(node for node, deg in in_deg.items() if deg == 0)
    order: list[int] = []
    queue = deque(frontier)
    while queue:
        node = queue.popleft()
        order.append(node)
        for succ in sorted(sfa.succ(node)):
            in_deg[succ] -= 1
            if in_deg[succ] == 0:
                queue.append(succ)
    if len(order) != sfa.num_nodes:
        raise SfaError("SFA graph contains a cycle")
    return order


def validate(sfa: Sfa, require_stochastic: bool = False) -> None:
    """Check the SFA structural invariants of paper Section 2.2.

    * the graph is a DAG;
    * ``start`` is the unique source and ``final`` the unique sink;
    * every node lies on some start-to-final path;
    * when ``require_stochastic``, the outgoing emission probabilities of
      every non-final node sum to 1 (the original OCR output satisfies
      this; approximations generally do not).

    Raises :class:`SfaError` on the first violation.
    """
    order = topological_order(sfa)  # raises on cycles
    for node in order:
        if node != sfa.start and sfa.in_degree(node) == 0:
            raise SfaError(f"node {node} is a source but is not the start node")
        if node != sfa.final and sfa.out_degree(node) == 0:
            raise SfaError(f"node {node} is a sink but is not the final node")
    reachable = descendants(sfa, sfa.start) | {sfa.start}
    if set(sfa.nodes) - reachable:
        raise SfaError("some nodes are unreachable from the start node")
    co_reachable = ancestors(sfa, sfa.final) | {sfa.final}
    if set(sfa.nodes) - co_reachable:
        raise SfaError("some nodes cannot reach the final node")
    if require_stochastic:
        for node in sfa.nodes:
            if node == sfa.final:
                continue
            out = sum(sfa.edge_mass(node, succ) for succ in set(sfa.successors(node)))
            if abs(out - 1.0) > 1e-6:
                raise SfaError(
                    f"outgoing probability of node {node} is {out}, expected 1.0"
                )


def is_valid(sfa: Sfa, require_stochastic: bool = False) -> bool:
    """Boolean form of :func:`validate`."""
    try:
        validate(sfa, require_stochastic=require_stochastic)
    except SfaError:
        return False
    return True


def _reach(sfa: Sfa, sources: set[int], forward: bool) -> set[int]:
    step = sfa.succ if forward else sfa.pred
    seen: set[int] = set()
    queue = list(sources)
    while queue:
        node = queue.pop()
        for nxt in step(node):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def descendants(sfa: Sfa, node: int) -> set[int]:
    """Nodes strictly reachable from ``node``."""
    return _reach(sfa, {node}, forward=True)


def ancestors(sfa: Sfa, node: int) -> set[int]:
    """Nodes that strictly reach ``node``."""
    return _reach(sfa, {node}, forward=False)


def sum_product(
    sfa: Sfa,
    order: list[int],
    source: int,
    backward: bool = False,
    within: frozenset[int] | None = None,
) -> dict[int, float]:
    """The one sum-product pass: push ``mass[node] * edge_mass`` along the
    edges leaving each node of ``order`` (entering it when ``backward``).

    ``order`` is a topological order of the nodes to visit (reversed for a
    backward pass); callers that already hold one share it instead of
    paying for another.  ``within`` confines the pass to a node subset --
    a chunk region -- and must then contain every node of ``order``.
    The visiting order fixes the order in which a node with several
    predecessors sums their contributions, i.e. the last ulp.
    """
    mass = {node: 0.0 for node in (sfa.nodes if within is None else within)}
    mass[source] = 1.0
    step = sfa.pred if backward else sfa.succ
    for node in order:
        here = mass[node]
        if here == 0.0:
            continue
        for nxt in step(node):
            if within is None or nxt in within:
                edge = (nxt, node) if backward else (node, nxt)
                mass[nxt] += here * sfa.edge_mass(*edge)
    return mass


def forward_mass(sfa: Sfa) -> dict[int, float]:
    """Sum-product forward pass: ``F[v]`` = total probability of all labeled
    paths from the start node to ``v`` (``F[start] = 1``)."""
    return sum_product(sfa, topological_order(sfa), sfa.start)


def backward_mass(sfa: Sfa) -> dict[int, float]:
    """Sum-product backward pass: ``B[v]`` = total probability of all labeled
    paths from ``v`` to the final node (``B[final] = 1``)."""
    order = topological_order(sfa)
    order.reverse()
    return sum_product(sfa, order, sfa.final, backward=True)


def total_mass(sfa: Sfa) -> float:
    """Total probability mass retained by the SFA.

    Equals 1 for the raw OCR output; less than 1 after k-MAP or Staccato
    pruning (the quantity maximized by paper Proposition 3.1).
    """
    return forward_mass(sfa)[sfa.final]


def string_count(sfa: Sfa) -> int:
    """The number of labeled start-to-final paths (stored strings).

    Exact big-integer DP; this is the quantity that grows as ``k**m`` for a
    Staccato representation (paper Figure 2) and drives the Figure 5
    direct-indexing blowup.
    """
    count = {node: 0 for node in sfa.nodes}
    count[sfa.start] = 1
    for node in topological_order(sfa):
        if count[node] == 0:
            continue
        for succ in set(sfa.successors(node)):
            count[succ] += count[node] * len(sfa.emissions(node, succ))
    return count[sfa.final]


def enumerate_strings(
    sfa: Sfa, limit: int | None = None
) -> Iterator[tuple[str, float]]:
    """Yield every ``(string, probability)`` pair the SFA can emit.

    Depth-first, so memory stays proportional to the longest path.  Strings
    produced by several paths (a unique-paths violation) are yielded once
    per path; use :func:`string_distribution` to aggregate.  ``limit`` caps
    the number of results for safety on large automata.
    """
    produced = 0
    stack: list[tuple[int, str, float]] = [(sfa.start, "", 1.0)]
    while stack:
        node, prefix, prob = stack.pop()
        if node == sfa.final:
            yield prefix, prob
            produced += 1
            if limit is not None and produced >= limit:
                return
            continue
        for succ in sorted(set(sfa.successors(node)), reverse=True):
            for emission in reversed(sfa.emissions(node, succ)):
                stack.append((succ, prefix + emission.string, prob * emission.prob))


def string_distribution(sfa: Sfa, limit: int = 1_000_000) -> dict[str, float]:
    """The full distribution over emitted strings, aggregated by string.

    Intended for tests and small automata; raises if more than ``limit``
    paths would need enumerating.
    """
    if string_count(sfa) > limit:
        raise SfaError(f"SFA emits more than {limit} strings; refusing to enumerate")
    dist: dict[str, float] = {}
    for string, prob in enumerate_strings(sfa):
        dist[string] = dist.get(string, 0.0) + prob
    return dist


def has_unique_paths(sfa: Sfa, limit: int = 100_000) -> bool:
    """Check the unique-paths property of paper Section 2.2.

    Every string with non-zero probability must be generated by exactly one
    labeled path.  Verified by enumeration, so only suitable for automata
    with at most ``limit`` paths (tests, OCR-simulator output audits).
    """
    if string_count(sfa) > limit:
        raise SfaError(f"SFA emits more than {limit} strings; refusing to check")
    seen: set[str] = set()
    for string, _ in enumerate_strings(sfa):
        if string in seen:
            return False
        seen.add(string)
    return True


def retained_mass(original: Sfa, approximation: Sfa) -> float:
    """``Pr_S[Emit(alpha)]`` -- the mass the approximation retains.

    Sums, under the *original* distribution, the probability of every
    string the approximation can emit (paper Section 3.2).  Enumerates the
    approximation, so use on test-sized automata.
    """
    original_dist = string_distribution(original)
    emitted = {string for string, _ in enumerate_strings(approximation)}
    return sum(original_dist.get(string, 0.0) for string in emitted)


def kl_divergence(original: Sfa, approximation: Sfa) -> float:
    """KL divergence between the conditioned approximation and the original.

    Appendix C shows the optimal probability assignment for a retained
    string set ``X`` is the original distribution conditioned on ``X``, and
    that ``KL(mu|X || mu) = -log Z`` where ``Z`` is the retained mass.  We
    return exactly that quantity, so smaller is better and 0 means nothing
    was lost.
    """
    mass = retained_mass(original, approximation)
    if mass <= 0.0:
        return math.inf
    return -math.log(mass)
